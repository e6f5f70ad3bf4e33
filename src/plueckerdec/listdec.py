"""Block-code structure of lifted codes and the list decoder.

The coordinates of a lifted codeword at index tuples meeting {1..k} in
exactly k-1 positions are, up to sign, the entries of the codeword matrix,
so they form a linear block code over F_q.  Its parity-check equations,
extended by zeros to the full coordinate vector, combine with the ball
equations, the shuffle relations, and the normalization x_{1..k} = 1 into
a system whose solutions are exactly the codewords within the requested
subspace distance of the received space.

Three interchangeable strategies return that list: solving the equation
system (`paper`), enumerating codewords against the ball forms
(`reduced`), and enumerating codewords against the distance itself
(`oracle`).  `paper` substitutes the block code's generator for the
qualifying coordinates, so the parity forms hold identically (Hp y = 0
exactly when y = Gp^T m for a message m) and drop out.  In one echelon of
the normalization and the ball forms over the other coordinates and the
digits, the rows that pivot on a digit cut out the projection of the
solution set onto the digits; their RREF gives a coset that `paper` walks
in message order, screening each point by the ball forms on the Pluecker
vector read off its codeword matrix's minors and building entries only
for the codewords that pass.  Every strategy lists them in message order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Callable, Iterator, Sequence

from .errors import DecodeError
from .gf import ExtElement, phi_inv
from .matgf import (
    MatGF, _echelon, _pack_row, _reduce, _rref_rows, _slots, _solution_set, _unpack_row,
    kernel_basis, rank, rref,
)
from .gabidulin import (
    ENUMERATION_CAP,
    GabidulinCode,
    RankCodeword,
    Subspace,
    _encoding_matrix,
    lift,
)
from .pluecker import (
    IndexTuple,
    LinearForm,
    PlueckerVector,
    QuadraticRelation,
    all_tuples,
    ball_equations,
    lifted_coordinates,
    shuffle_relations,
    tau_count,
    tuple_rank,
)

STRATEGIES = ("paper", "reduced", "oracle")


@lru_cache(maxsize=None)
def qualifying_tuples(n: int, k: int) -> tuple[IndexTuple, ...]:
    """Lex-ordered k-tuples meeting {1..k} in exactly k-1 positions."""
    return tuple(
        t for t in all_tuples(n, k) if sum(1 for x in t if x <= k) == k - 1
    )


def pluecker_entry_formula(i: Sequence[int], a: MatGF) -> int:
    """Coordinate of the lifted codeword of `a` at a qualifying tuple."""
    k, n, tt = a.rows, a.rows + a.cols, tuple(i)
    if tt not in qualifying_tuples(n, k):
        raise DecodeError(f"tuple {tt} does not meet {{1..{k}}} in exactly {k - 1} positions")
    return lifted_coordinates(a.entries, k, a.cols, a.ctx.q)[tuple_rank(tt, n, k)]


@dataclass(frozen=True)
class BlockCodeView:
    """Generator and parity-check matrices of the qualifying-coordinate code."""

    code: GabidulinCode
    positions: tuple[IndexTuple, ...]
    Gp: MatGF
    Hp: MatGF


@lru_cache(maxsize=None)
def build_block_code(code: GabidulinCode) -> BlockCodeView:
    """Restrict the lifted code to the qualifying coordinates.

    The rows of Gp are the coordinate patterns of the codewords encoding
    the base-field message basis alpha^j * e_i; Hp is the RREF kernel
    basis of their span.
    """
    n, k, q, ell = code.n, code.k, code.q, code.ell
    positions = qualifying_tuples(n, k)
    spots = [tuple_rank(pos, n, k) for pos in positions]
    enc, rho = _encoding_matrix(code), code.rho
    coords = (lifted_coordinates(enc.entries[i::rho], k, ell, q) for i in range(rho))
    Gp = MatGF.from_rows(code.ext.base, [[c[s] for s in spots] for c in coords])
    if rank(Gp) != code.rho:
        raise DecodeError("block code generator is rank deficient")
    Hp, _ = rref(kernel_basis(Gp))
    return BlockCodeView(code, positions, Gp, Hp)


def extended_parity(bc: BlockCodeView) -> list[LinearForm]:
    """Parity rows of Hp scattered into the full coordinate vector.

    Every non-qualifying position, including x_{1..k}, gets coefficient
    zero, so the forms read identically on full Pluecker vectors.
    """
    code = bc.code
    n, k = code.n, code.k
    nvars = comb(n, k)
    spots = [tuple_rank(pos, n, k) for pos in bc.positions]
    forms = []
    for i in range(bc.Hp.rows):
        coeffs = [0] * nvars
        for j, g in enumerate(spots):
            coeffs[g] = bc.Hp.at(i, j)
        forms.append(LinearForm(tuple(coeffs), 0))
    return forms


@dataclass(frozen=True)
class EquationSystem:
    """Linear forms plus quadratic relations in the C(n,k) coordinates."""

    nvars: int
    linear: tuple[LinearForm, ...]
    quadratic: tuple[QuadraticRelation, ...]


def _normalization(nvars: int) -> LinearForm:
    """x_{1..k} = 1, on the lex-first coordinate."""
    return LinearForm((1,) + (0,) * (nvars - 1), 1)


def assemble_system(code: GabidulinCode, r: Subspace, e: int) -> EquationSystem:
    """Normalization, extended parity, and ball forms, plus the shuffles."""
    nvars = comb(code.n, code.k)
    parity = extended_parity(build_block_code(code))
    linear = (_normalization(nvars), *parity, *ball_equations(r, e))
    return EquationSystem(nvars, linear, shuffle_relations(code.n, code.k))


def _check_decode_args(code: GabidulinCode, r: Subspace, e: int) -> None:
    if (r.ctx, r.n) != (code.ext.base, code.n):  # entries over another field are not residues mod q
        raise DecodeError(f"received space lives in F_{r.ctx.q}^{r.n}, code in F_{code.q}^{code.n}")
    if r.k != code.k:
        raise DecodeError(
            f"received spaces of dimension {r.k} are unsupported; this decoder "
            f"requires dimension {code.k}"
        )
    if not 0 <= e <= code.k:
        raise DecodeError(f"need 0 <= e <= k, got e={e}")


def _system_counts(code: GabidulinCode, e: int) -> dict:
    """The system's size by its closed forms: tau + 1 + (delta-1)(n-k)
    linear forms, C(n, 2k) shuffle relations and C(n, k) variables."""
    n, k = code.n, code.k
    return {
        "linear_eqs": tau_count(n, k, e) + 1 + (code.delta - 1) * (n - k),
        "quadratic_eqs": comb(n, 2 * k),
        "vars": comb(n, k),
    }


def system_report(
    code: GabidulinCode, r: Subspace, e: int
) -> tuple[EquationSystem, dict]:
    """Assembled system with its size statistics, which must agree with
    the closed forms (`_system_counts`)."""
    _check_decode_args(code, r, e)
    system = assemble_system(code, r, e)
    stats = {
        "linear_eqs": len(system.linear),
        "quadratic_eqs": len(system.quadratic),
        "vars": system.nvars,
    }
    if stats != _system_counts(code, e):
        raise DecodeError("equation counts disagree with the closed forms")
    return system, stats


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecodeEntry:
    message: tuple[ExtElement, ...]
    codeword: RankCodeword
    subspace: Subspace
    pluecker: PlueckerVector


@dataclass
class DecodeList:
    entries: tuple[DecodeEntry, ...]
    stats: dict

    def subspaces(self) -> set[Subspace]:
        return {entry.subspace for entry in self.entries}


@lru_cache(maxsize=None)
def _digit_order(code: GabidulinCode) -> tuple[int, ...]:
    """Message coordinate (i*ell + j: alpha^j of symbol i) of each F_q digit,
    least significant first; only whole symbols move, so it is self-inverse."""
    ell = code.ell
    return tuple(i * ell + j for i in reversed(range(code.msg_len)) for j in range(ell))


@lru_cache(maxsize=None)
def _digit_columns(code: GabidulinCode) -> tuple[int, ...]:
    """Column of the encoding matrix for each F_q digit, in `_digit_order`
    order, packed in slots that hold a sum of rho products."""
    enc, rho = _encoding_matrix(code), code.rho
    return tuple(_pack_row(enc.entries[p::rho], code.q, rho) for p in _digit_order(code))


def _matrix_at(code: GabidulinCode, digits: int) -> tuple[int, ...]:
    """The codeword matrix A, row-major: the encoding matrix times the
    message coordinates of the message whose F_q digits, least significant
    first, sit in the slots of the packed row `digits`."""
    k, ell, q, rho = code.k, code.ell, code.q, code.rho
    d = _unpack_row(digits, rho, q)
    total = sum(v * col for v, col in zip(d, _digit_columns(code)) if v)
    return tuple(v % q for v in _unpack_row(total, k * ell, q, rho))


@lru_cache(maxsize=2**16)
def _screen_at(code: GabidulinCode, digits: int) -> int:
    """Packed Pluecker vector (`PlueckerVector.packed`) of the lifted
    codeword of the message with these packed digits, read off the minors
    of its `_matrix_at` matrix (`lifted_coordinates`): the only place a
    candidate's coordinates are computed; memoized, as candidates recur."""
    coords = lifted_coordinates(_matrix_at(code, digits), code.k, code.ell, code.q)
    return _pack_row(coords, code.q, len(coords))


@lru_cache(maxsize=2**16)
def _entry_at(code: GabidulinCode, digits: int) -> DecodeEntry:
    """Entry of the message with these packed digits, built from its
    `_matrix_at` matrix and the coordinates its screen (`_screen_at`)
    packs; memoized, and called for the code table and for `paper`'s
    listed candidates only."""
    ext, ell, q, nvars = code.ext, code.ell, code.q, comb(code.n, code.k)
    coords = tuple(_unpack_row(_screen_at(code, digits), nvars, q, nvars))
    d = _unpack_row(digits, code.rho, q)
    x = tuple(d[p] for p in _digit_order(code))
    msg = tuple(ExtElement(ext, x[i : i + ell]) for i in range(0, code.rho, ell))
    mat = MatGF(ext.base, code.k, ell, _matrix_at(code, digits))
    cw = RankCodeword(tuple(phi_inv(ext, mat.row_list(i)) for i in range(code.k)), mat)
    return DecodeEntry(msg, cw, lift(cw), PlueckerVector(ext.base, code.n, code.k, coords))


def _form_check(forms: Sequence[LinearForm], nvars: int, q: int) -> Callable[[int], bool]:
    """Whether packed coordinates (`PlueckerVector.packed`) satisfy every
    form, decided by one product (Kronecker substitution): form i sits
    reversed in slots 2*nvars*i onward, so slot 2*nvars*i + nvars - 1 of
    the product is its dot product, and no slot exceeds nvars*(q-1)^2.
    Only those slots are read, through a byte table when they fit a byte."""
    (w, table), step = _slots(q, nvars), 2 * nvars
    size = step * len(forms) * w  # bytes of the product
    lhs = _pack_row([c for f in forms for c in f.coeffs[::-1] + (0,) * nvars], q, nvars)
    rhs = [f.rhs % q for f in forms]
    if table is not None:
        want, dots = bytes(rhs), slice(nvars - 1, None, step)
        return lambda x: (x * lhs).to_bytes(size, "little")[dots].translate(table) == want
    starts = range((nvars - 1) * w, size, step * w)

    def check(x: int) -> bool:
        b = (x * lhs).to_bytes(size, "little")
        return [int.from_bytes(b[i : i + w], "little") % q for i in starts] == rhs

    return check


def _odometer(base: int, rows: list[int], rho: int, q: int) -> Iterator[int]:
    """Every point base + sum of c_t rows[t] over F_q, the c_t counting up
    like an odometer, the last fastest; points and rows are packed, rho slots.

    In `paper` the slots are message digits: row t has no digit more
    significant than its pivot, a 1 where base and the other rows are zero,
    and the rows come by falling pivot significance, so the points come in
    message order.  Raising c_t by one and wrapping every later c from q-1
    to 0 adds rows[t] + ... + rows[-1] (q times a row is zero): one packed add.
    """
    carry = list(accumulate(reversed(rows), lambda a, b: _reduce(a + b, rho, q)))[::-1]
    counts, last, table = [0] * len(rows), len(rows) - 1, _slots(q)[1]
    point = base
    while True:
        yield point
        t = last
        while t >= 0 and counts[t] == q - 1:
            counts[t] = 0
            t -= 1
        if t < 0:
            return
        counts[t] += 1
        if q == 2:  # the add is slot by slot mod 2
            point ^= carry[t]
        elif table is not None:  # _reduce, inlined on the hot path
            point = int.from_bytes((point + carry[t]).to_bytes(rho, "little").translate(table), "little")
        else:
            point = _reduce(point + carry[t], rho, q)


@lru_cache(maxsize=32)
def _code_table(code: GabidulinCode) -> tuple[DecodeEntry, ...]:
    """Every codeword's entry (`_entry_at`) in message order: the odometer walk
    from 0 by the unit digit rows, most significant first, as `paper` walks."""
    units = [_pack_row([0] * s + [1], code.q) for s in reversed(range(code.rho))]
    return tuple(_entry_at(code, d) for d in _odometer(0, units, code.rho, code.q))


@lru_cache(maxsize=None)
def _solver_layout(code: GabidulinCode) -> tuple[int, tuple[int, ...]]:
    """The number of non-qualifying coordinates, and what each coordinate
    becomes over [non-qualifying coordinates | message digits in
    `_digit_order` order]: a non-qualifying one its own slot, a qualifying
    one its row of Gp^T; packed in slots that hold k(n-k) products."""
    n, k, q = code.n, code.k, code.q
    nvars = comb(n, k)
    block = [tuple_rank(p, n, k) for p in qualifying_tuples(n, k)]
    others = sorted(set(range(nvars)) - set(block))
    gpt = build_block_code(code).Gp.submatrix(_digit_order(code), range(len(block))).transpose()
    rows = {i: [0] * s + [1] for s, i in enumerate(others)}
    rows.update((i, [0] * len(others) + g) for i, g in zip(block, gpt.to_lists()))
    return len(others), tuple(_pack_row(rows[i], q, len(block)) for i in range(nvars))


def _projected_coset(code: GabidulinCode, forms: Sequence[LinearForm]) -> tuple[int, list[int]] | None:
    """The projection onto the message digits of the solutions of `forms`
    over [non-qualifying coordinates | digits] (`_solver_layout`): a packed
    base and one packed step per free digit, ascending, or None when one
    echelon of the forms' rows, rhs in the last slot, pivots there.  A row
    is zero before its pivot, so those pivoting on a digit are zero on the
    other coordinates and cut out the projection; their RREF gives the base
    and the steps (`_solution_set`)."""
    q, rho = code.q, code.rho
    cut, images = _solver_layout(code)
    width, terms, bits = cut + rho, len(images) - cut, 8 * _slots(q)[0]
    sums = (sum(c * im for c, im in zip(f.coeffs, images) if c) for f in forms)
    rows = [_reduce(s, width, q, terms) | f.rhs % q << bits * width for s, f in zip(sums, forms)]
    piv = _echelon(rows, width + 1, q)[0]
    if width in piv:
        return None
    digits = [row >> bits * cut for c, row in piv.items() if c >= cut]
    return _solution_set(digits, _rref_rows(digits, rho + 1, q), rho, q)


def _decode_paper(code: GabidulinCode, r: Subspace, e: int) -> tuple[list[DecodeEntry], dict]:
    """Solve the equation system over the message digits.

    A vector y on the qualifying coordinates meets the parity forms exactly
    when y = Gp^T m for one message m, so substituting Gp^T m for them
    meets the parity forms identically and leaves the projection of the
    solution set onto m unchanged.  One echelon of the normalization and
    the ball forms decides feasibility, and the RREF of its rows that pivot
    on a digit gives that projection (`_projected_coset`): a coset, walked
    in message order.  Each point is a lifted codeword, so it satisfies the
    normalization, the parity forms and the shuffle relations by
    construction; it is listed when its screen (`_screen_at`) satisfies the
    ball forms, and only then gets an entry.
    """
    q, nvars, ball = code.q, comb(code.n, code.k), ball_equations(r, e)
    coset = _projected_coset(code, [_normalization(nvars), *ball])
    if coset is None:
        return [], {"solver_path": "infeasible", "candidates_enumerated": 0}
    base, steps = coset
    total = q ** len(steps)
    if total > ENUMERATION_CAP:
        raise DecodeError(f"{total} candidate assignments exceed the enumeration cap {ENUMERATION_CAP}")
    # a step is non-zero only at its free digit (a 1) and at less significant
    # pivots, so reversed they count in message order; at e = k, no forms
    walk, check = _odometer(base, steps[::-1], code.rho, q), _form_check(ball, nvars, q)
    entries = [_entry_at(code, d) for d in walk if not ball or check(_screen_at(code, d))]
    return entries, {"solver_path": "projected", "candidates_enumerated": total}


def _decode_reduced(code: GabidulinCode, r: Subspace, e: int) -> tuple[list[DecodeEntry], dict]:
    """Test the ball forms on the embedding of every codeword."""
    check = _form_check(ball_equations(r, e), comb(code.n, code.k), code.q)
    entries = [entry for entry in _code_table(code) if check(entry.pluecker.packed)]
    return entries, {"candidates_enumerated": code.size}


def _decode_oracle(code: GabidulinCode, r: Subspace, e: int) -> tuple[list[DecodeEntry], dict]:
    """Test the subspace distance of every codeword, in message order.

    Subtracting R_L times the first block row of [I | A; R_L | R_R] leaves
    [I | A; 0 | R_R - R_L A], so a codeword's distance to the received space
    [R_L | R_R] is 2 rank(R_R - R_L A).  A is linear in the message digits,
    so the odometer walks these k x ell differences, packed row-major, from
    R_R by the steps -R_L A_t of the unit messages.
    """
    table = _code_table(code)
    k, ell, q = code.k, code.ell, code.q
    if e >= min(k, ell):  # no k x ell matrix has larger rank
        return list(table), {"candidates_enumerated": code.size}
    left = r.basis.submatrix(range(k), range(k))
    right = r.basis.submatrix(range(k), range(k, code.n))
    enc = _encoding_matrix(code)
    steps = [
        _pack_row((-(left @ MatGF(enc.ctx, k, ell, enc.entries[t :: code.rho]))).entries, q)
        for t in reversed(_digit_order(code))
    ]
    walk = _odometer(_pack_row(right.entries, q), steps, k * ell, q)
    width = 8 * _slots(q)[0] * ell
    shifts, mask = range(0, k * width, width), (1 << width) - 1
    entries = [
        en for en, m in zip(table, walk)  # at e = 0 only m = 0 is kept
        if not m or e and len(_echelon([m >> s & mask for s in shifts], ell, q)[0]) <= e
    ]
    return entries, {"candidates_enumerated": code.size}


def decode_list(code: GabidulinCode, r: Subspace, e: int, strategy: str = "paper") -> DecodeList:
    """Complete list of codewords within subspace distance 2e of r.

    All strategies return the same entries, in message order; they differ
    only in how the list is derived.
    """
    _check_decode_args(code, r, e)
    if strategy not in STRATEGIES:
        raise DecodeError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy != "paper" and code.size > ENUMERATION_CAP:  # before the code table is built
        raise DecodeError(f"code size {code.size} exceeds the enumeration cap {ENUMERATION_CAP}")
    start = time.perf_counter()
    if strategy == "paper":
        entries, extra = _decode_paper(code, r, e)
    elif strategy == "reduced":
        entries, extra = _decode_reduced(code, r, e)
    else:
        entries, extra = _decode_oracle(code, r, e)
    stats = {
        "strategy": strategy,
        **_system_counts(code, e),
        "elapsed_ms": round((time.perf_counter() - start) * 1000.0, 3),
        **extra,
    }
    return DecodeList(tuple(entries), stats)
