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
(`oracle`).  `paper` eliminates once, enumerates the projection of the
solution set onto the qualifying coordinates, and keeps the codewords
whose embeddings satisfy the complete system.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

from .errors import DecodeError
from .gf import ExtElement, phi_inv
from .matgf import MatGF, _pack_row, _rref_rows, _unpack_row, kernel_basis, rank, rref
from .gabidulin import (
    GabidulinCode,
    RankCodeword,
    Subspace,
    _encoding_matrix,
    encode,
    enumerate_messages,
    lift,
    message_key,
    message_of,
    subspace_distance,
)
from .pluecker import (
    IndexTuple,
    LinearForm,
    PlueckerVector,
    QuadraticRelation,
    _indexed_terms,
    all_tuples,
    ball_equations,
    embed,
    shuffle_relations,
    tau_count,
    tuple_rank,
)

STRATEGIES = ("paper", "reduced", "oracle")

DEFAULT_ENUMERATION_CAP = 2**20


@lru_cache(maxsize=None)
def qualifying_tuples(n: int, k: int) -> tuple[IndexTuple, ...]:
    """Lex-ordered k-tuples meeting {1..k} in exactly k-1 positions."""
    return tuple(
        t for t in all_tuples(n, k) if sum(1 for x in t if x <= k) == k - 1
    )


@lru_cache(maxsize=None)
def _placements(n: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """(row, col, sign) of the codeword-matrix entry behind each qualifying
    coordinate, in the order of `qualifying_tuples`.

    With s the element of {1..k} missing from the tuple and t its unique
    entry above k, the minor collapses to (-1)^(k-s) * a[s][t-k].
    """
    out = []
    for pos in qualifying_tuples(n, k):
        s = next(x for x in range(1, k + 1) if x not in pos)
        t = pos[-1]  # tuples increase, so the one entry above k is last
        out.append((s - 1, t - k - 1, (-1) ** (k - s)))
    return tuple(out)


def pluecker_entry_formula(i: Sequence[int], a: MatGF) -> int:
    """Coordinate of the lifted codeword of `a` at a qualifying tuple."""
    k = a.rows
    n = k + a.cols
    tt = tuple(i)
    positions = qualifying_tuples(n, k)
    if tt not in positions:
        raise DecodeError(f"tuple {tt} does not meet {{1..{k}}} in exactly {k - 1} positions")
    row, col, sign = _placements(n, k)[positions.index(tt)]
    return a.at(row, col) * sign % a.ctx.q


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
    places = _placements(n, k)
    enc = _encoding_matrix(code)
    rows = [[enc.at(r * ell + c, i) * sign % q for r, c, sign in places] for i in range(code.rho)]
    Gp = MatGF.from_rows(code.ext.base, rows)
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


def assemble_system(code: GabidulinCode, r: Subspace, e: int) -> EquationSystem:
    """Normalization, extended parity, and ball forms, plus the shuffles."""
    n, k = code.n, code.k
    nvars = comb(n, k)
    norm = [0] * nvars
    norm[tuple_rank(tuple(range(1, k + 1)), n, k)] = 1
    linear = [LinearForm(tuple(norm), 1)]
    linear.extend(extended_parity(build_block_code(code)))
    linear.extend(ball_equations(r, e))
    return EquationSystem(nvars, tuple(linear), shuffle_relations(n, k))


def _check_decode_args(code: GabidulinCode, r: Subspace, e: int) -> None:
    if r.n != code.n:
        raise DecodeError(f"received space lives in dimension {r.n}, code in {code.n}")
    if r.k != code.k:
        raise DecodeError(
            f"received spaces of dimension {r.k} are unsupported; this decoder "
            f"requires dimension {code.k}"
        )
    if not 0 <= e <= code.k:
        raise DecodeError(f"need 0 <= e <= k, got e={e}")


def system_report(
    code: GabidulinCode, r: Subspace, e: int
) -> tuple[EquationSystem, dict]:
    """Assembled system with its size statistics.

    The counts are also recomputed from the closed forms
    tau + 1 + (delta-1)(n-k) and C(n, 2k) and must agree.
    """
    _check_decode_args(code, r, e)
    n, k, delta = code.n, code.k, code.delta
    system = assemble_system(code, r, e)
    stats = {
        "linear_eqs": len(system.linear),
        "quadratic_eqs": len(system.quadratic),
        "vars": system.nvars,
    }
    expected_linear = tau_count(n, k, e) + 1 + (delta - 1) * (n - k)
    if stats["linear_eqs"] != expected_linear or stats["quadratic_eqs"] != comb(n, 2 * k):
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


@lru_cache(maxsize=32)
def _code_table(
    code: GabidulinCode, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[DecodeEntry, ...]:
    """All codewords with their liftings and embeddings, message-lex order."""
    if code.size > cap:
        raise DecodeError(f"code size {code.size} exceeds the enumeration cap {cap}")
    table = []
    for msg in enumerate_messages(code):
        cw = encode(code, msg)
        sub = lift(cw)
        table.append(DecodeEntry(msg, cw, sub, embed(sub)))
    return tuple(table)


@lru_cache(maxsize=2**16)
def _entry_for_matrix(code: GabidulinCode, mat: MatGF) -> DecodeEntry:
    """Codeword entry determined by a matrix; candidates recur across
    received spaces, so this is memoized."""
    vec = tuple(phi_inv(code.ext, mat.row_list(i)) for i in range(code.k))
    cw = RankCodeword(vec, mat)
    sub = lift(cw)
    return DecodeEntry(message_of(code, cw), cw, sub, embed(sub))


def _pack(forms: Sequence[LinearForm], q: int) -> list[tuple[tuple, int]]:
    """Each form as its nonzero (index, coeff) pairs and its reduced rhs."""
    return [
        (tuple((j, c) for j, c in enumerate(f.coeffs) if c), f.rhs % q) for f in forms
    ]


def _holds(x: Sequence[int], packed: list[tuple[tuple, int]], q: int) -> bool:
    """Whether the coordinates x satisfy every packed form."""
    return all(sum(c * x[j] for j, c in nz) % q == rhs for nz, rhs in packed)


def _coset(base: list[int], kernel: list[list[int]], q: int) -> Iterator[tuple[int, ...]]:
    """Every point of base + span(kernel) over F_q, at about one vector sum
    per point."""
    if not kernel:
        yield tuple(base)
        return
    head, rest = kernel[0], kernel[1:]
    for _ in range(q):
        yield from _coset(base, rest, q)
        base = [(a + b) % q for a, b in zip(base, head)]


def _decode_paper(
    code: GabidulinCode, r: Subspace, e: int, enumeration_cap: int
) -> tuple[list[DecodeEntry], dict]:
    """Solve the equation system, enumerating only the block coordinates.

    One elimination of the linear forms, with the non-qualifying
    coordinates ordered first, decides feasibility.  Its rows whose pivots
    land among the k(n-k) qualifying coordinates constrain those alone:
    they cut out the projection of the solution set, an affine coset that
    the placement table carries into codeword-matrix entries.  Every
    matrix of the coset is re-embedded and kept only when its embedding
    satisfies the complete system, linear forms and shuffle relations.
    """
    n, k, ell, q = code.n, code.k, code.ell, code.q
    system = assemble_system(code, r, e)
    nvars = system.nvars
    block = [tuple_rank(p, n, k) for p in qualifying_tuples(n, k)]
    in_block = set(block)
    perm = [i for i in range(nvars) if i not in in_block] + block
    nb = len(block)
    cut = nvars - nb

    width = nvars + 1  # the rhs is the last column
    aug = [_pack_row([f.coeffs[p] for p in perm] + [f.rhs % q], q) for f in system.linear]
    pivots = _rref_rows(aug, width, q)
    if pivots and pivots[-1] == nvars:
        return [], {"solver_path": "infeasible", "candidates_enumerated": 0}

    # pivot rows by block column; they are zero on the other coordinates
    bound = {p - cut: _unpack_row(row, width, q)[cut:] for row, p in zip(aug, pivots) if p >= cut}
    places = _placements(n, k)

    def to_entries(vec: list[int]) -> list[int]:
        flat = [0] * (k * ell)
        for (i, j, sign), v in zip(places, vec):
            flat[i * ell + j] = v * sign % q
        return flat

    particular = to_entries([bound[j][nb] if j in bound else 0 for j in range(nb)])
    kernel = []
    for f in range(nb):
        if f not in bound:
            vec = [-bound[j][f] % q if j in bound else 0 for j in range(nb)]
            vec[f] = 1
            kernel.append(to_entries(vec))
    total = q ** len(kernel)
    if total > enumeration_cap:
        raise DecodeError(
            f"{total} candidate assignments exceed the enumeration cap {enumeration_cap}"
        )

    ctx = code.ext.base
    # ball forms first: they are the ones a wrong candidate fails
    linear = _pack(system.linear[::-1], q)
    quadratic = [_indexed_terms(rel) for rel in system.quadratic]
    entries = []
    for flat in _coset(particular, kernel, q):
        entry = _entry_for_matrix(code, MatGF(ctx, k, ell, flat))
        x = entry.pluecker.coords
        if _holds(x, linear, q) and not any(
            sum(c * x[a] * x[b] for a, b, c in terms) % q for terms in quadratic
        ):
            entries.append(entry)
    return entries, {"solver_path": "projected", "candidates_enumerated": total}


def _decode_reduced(
    code: GabidulinCode, r: Subspace, e: int, cap: int
) -> tuple[list[DecodeEntry], dict]:
    """Test the ball forms on the embedding of every codeword."""
    q = code.q
    forms = _pack(ball_equations(r, e), q)
    entries = [
        entry for entry in _code_table(code, cap) if _holds(entry.pluecker.coords, forms, q)
    ]
    return entries, {"candidates_enumerated": code.size}


def _decode_oracle(
    code: GabidulinCode, r: Subspace, e: int, cap: int
) -> tuple[list[DecodeEntry], dict]:
    """Test the subspace distance of every codeword directly."""
    entries = [
        entry
        for entry in _code_table(code, cap)
        if subspace_distance(entry.subspace, r) <= 2 * e
    ]
    return entries, {"candidates_enumerated": code.size}


def decode_list(
    code: GabidulinCode,
    r: Subspace,
    e: int,
    strategy: str = "paper",
    *,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> DecodeList:
    """Complete list of codewords within subspace distance 2e of r.

    All strategies return the same entries, sorted by message; they differ
    only in how the list is derived.
    """
    _check_decode_args(code, r, e)
    if strategy not in STRATEGIES:
        raise DecodeError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    start = time.perf_counter()
    if strategy == "paper":
        entries, extra = _decode_paper(code, r, e, enumeration_cap)
    elif strategy == "reduced":
        entries, extra = _decode_reduced(code, r, e, enumeration_cap)
    else:
        entries, extra = _decode_oracle(code, r, e, enumeration_cap)
    entries.sort(key=lambda entry: message_key(code, entry.message))
    stats = {
        "strategy": strategy,
        "linear_eqs": tau_count(code.n, code.k, e) + 1 + (code.delta - 1) * (code.n - code.k),
        "quadratic_eqs": comb(code.n, 2 * code.k),
        "vars": comb(code.n, code.k),
        "elapsed_ms": round((time.perf_counter() - start) * 1000.0, 3),
        **extra,
    }
    return DecodeList(tuple(entries), stats)
