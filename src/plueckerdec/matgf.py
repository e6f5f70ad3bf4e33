"""Dense exact matrices over a prime field F_q, and their one elimination kernel.

Matrices are immutable values; every operation returns a new matrix.
Element access uses 0-based (i, j).  Index *tuples* in the public minor
and pivot interfaces are 1-based, matching the usual mathematical
convention for minors; the conversion happens only at that boundary.

Every elimination runs on packed rows: a row of n entries is one Python
int whose slot j, w bytes from byte j*w, holds entry j (`MatGF.packed`
packs a matrix once).  A row operation pv * row + (q - v) * pivot row is
one big-int multiply-add leaving at most 2(q-1)^2 in a slot, so slots
never carry, and one pass reduces them all mod q: for q <= 11 slots are
bytes and the pass is ``int.to_bytes(...).translate(table)`` with a table
of b mod q built on first use of q; larger primes get the fewest bytes
that hold 2(q-1)^2 and a slot-by-slot pass.  Over F_2 a row operation is
one XOR.  A row's pivot is its lowest nonzero slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .errors import MatrixError
from .gf import FieldCtx


@dataclass(frozen=True)
class MatGF:
    ctx: FieldCtx
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major, reduced mod q

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise MatrixError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise MatrixError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows: Sequence[Sequence[int]]) -> "MatGF":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise MatrixError("ragged rows")
        q = ctx.q
        return cls(ctx, r, c, tuple(x % q for row in rows for x in row))

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "MatGF":
        return cls(ctx, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "MatGF":
        return cls(ctx, rows, cols, (0,) * (rows * cols))

    # -- element access ------------------------------------------------------

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list[int]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_lists(self) -> list[list[int]]:
        return [self.row_list(i) for i in range(self.rows)]

    @cached_property
    def packed(self) -> tuple[int, ...]:
        """The rows as packed ints (see the module docstring), computed once."""
        c, q = self.cols, self.ctx.q
        return tuple(_pack_row(self.entries[i * c : (i + 1) * c], q) for i in range(self.rows))

    # -- arithmetic ----------------------------------------------------------

    def _same_shape(self, other: "MatGF") -> None:
        if self.ctx != other.ctx:
            raise MatrixError("matrices over different fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MatrixError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "MatGF") -> "MatGF":
        self._same_shape(other)
        q = self.ctx.q
        return MatGF(
            self.ctx, self.rows, self.cols,
            tuple((a + b) % q for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "MatGF") -> "MatGF":
        self._same_shape(other)
        q = self.ctx.q
        return MatGF(
            self.ctx, self.rows, self.cols,
            tuple((a - b) % q for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "MatGF":
        q = self.ctx.q
        return MatGF(self.ctx, self.rows, self.cols, tuple(-a % q for a in self.entries))

    def __matmul__(self, other: "MatGF") -> "MatGF":
        if self.ctx != other.ctx:
            raise MatrixError("matrices over different fields")
        if self.cols != other.rows:
            raise MatrixError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        q = self.ctx.q
        n, m, p = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [0] * (n * p)
        for i in range(n):
            arow = a[i * m : (i + 1) * m]
            orow = i * p
            for t, av in enumerate(arow):
                if av:
                    brow = t * p
                    for j in range(p):
                        out[orow + j] += av * b[brow + j]
        return MatGF(self.ctx, n, p, tuple(x % q for x in out))

    def transpose(self) -> "MatGF":
        return MatGF(
            self.ctx, self.cols, self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "MatGF":
        """Submatrix by 0-based row/column index lists."""
        return MatGF(
            self.ctx, len(row_idx), len(col_idx),
            tuple(self.at(i, j) for i in row_idx for j in col_idx),
        )


def vstack(a: MatGF, b: MatGF) -> MatGF:
    if a.ctx != b.ctx or a.cols != b.cols:
        raise MatrixError("vstack needs equal field and column count")
    return MatGF(a.ctx, a.rows + b.rows, a.cols, a.entries + b.entries)


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _slots(q: int, terms: int = 2) -> tuple[int, bytes | None]:
    """Bytes per packed slot that hold a sum of `terms` products of entries
    over F_q (two for a row operation), and the table of b mod q when that is 1."""
    w = 1
    while terms * (q - 1) ** 2 >> 8 * w:
        w += 1
    return w, bytes(b % q for b in range(256)) if w == 1 else None


def _pack_row(row: Sequence[int], q: int, terms: int = 2) -> int:
    """One packed row from entries already reduced mod q, in `_slots(q, terms)`."""
    w = _slots(q, terms)[0]
    if w == 1:
        return int.from_bytes(bytes(row), "little")
    return int.from_bytes(b"".join(x.to_bytes(w, "little") for x in row), "little")


def _unpack_row(r: int, n: int, q: int, terms: int = 2) -> list[int]:
    w = _slots(q, terms)[0]
    b = r.to_bytes(n * w, "little")
    if w == 1:
        return list(b)
    return [int.from_bytes(b[i : i + w], "little") for i in range(0, len(b), w)]


def _reduce(r: int, n: int, q: int, terms: int = 2) -> int:
    """Every one of n slots, sized by `_slots(q, terms)`, taken mod q into row slots."""
    table = _slots(q, terms)[1]
    if table is not None and _slots(q)[1] is not None:
        return int.from_bytes(r.to_bytes(n, "little").translate(table), "little")
    return _pack_row([x % q for x in _unpack_row(r, n, q, terms)], q)


def _echelon(rows: Iterable[int], n: int, q: int) -> tuple[dict[int, int], int]:
    """Row echelon form of packed rows with n slots.

    Each row is cleared at its lowest nonzero slot c, as pv * row - v * p
    with p the pivot row of column c and pv its pivot, until it vanishes or
    opens a new column.  Returns {pivot column: pivot row} in opening order
    and the product mod q of the factors pv: a full-rank square matrix has
    det = sign(columns in opening order) * product of pivots / that product.
    """
    w, table = _slots(q)
    bits = 8 * w
    mask = (1 << bits) - 1
    piv: dict[int, int] = {}
    scale = 1
    for r in rows:
        while r:
            c = ((r & -r).bit_length() - 1) // bits
            p = piv.get(c)
            if p is None:
                piv[c] = r
                break
            if q == 2:  # the row operation is r + p, slot by slot mod 2
                r ^= p
                continue
            v = r >> c * bits & mask
            pv = p >> c * bits & mask
            if pv != 1:
                r *= pv
                scale = scale * pv % q
            r += (q - v) * p
            if table is not None:  # _reduce, inlined on the hot path
                r = int.from_bytes(r.to_bytes(n, "little").translate(table), "little")
            else:
                r = _reduce(r, n, q)
    return piv, scale


def _rref_rows(rows: list[int], n: int, q: int) -> list[int]:
    """In-place RREF of packed rows with n slots, zero rows last; returns the pivot columns."""
    piv, _ = _echelon(rows, n, q)
    cols = sorted(piv)
    bits = 8 * _slots(q)[0]
    mask = (1 << bits) - 1
    # scale each pivot to 1 and clear its column above, last column first,
    # so the pivot row added is already clear of every later pivot column
    for t in range(len(cols) - 1, -1, -1):
        c = cols[t]
        v = piv[c] >> c * bits & mask
        if v != 1:
            piv[c] = _reduce(piv[c] * pow(v, q - 2, q), n, q)
        for a in cols[:t]:
            v = piv[a] >> c * bits & mask
            if v:
                piv[a] = _reduce(piv[a] + (q - v) * piv[c], n, q)
    rows[:] = [piv[c] for c in cols] + [0] * (len(rows) - len(cols))
    return cols


def rref(m: MatGF) -> tuple[MatGF, tuple[int, ...]]:
    """Reduced row echelon form and 1-based pivot columns."""
    n, q = m.cols, m.ctx.q
    rows = list(m.packed)
    pivots = _rref_rows(rows, n, q)
    red = MatGF(m.ctx, m.rows, n, tuple(x for r in rows for x in _unpack_row(r, n, q)))
    return red, tuple(p + 1 for p in pivots)


def rank(m: MatGF) -> int:
    return len(_echelon(m.packed, m.cols, m.ctx.q)[0])


def det(m: MatGF) -> int:
    if m.rows != m.cols:
        raise MatrixError("determinant of a non-square matrix")
    return _det_submatrix(m, tuple(range(m.rows)), tuple(range(m.cols)))


def _det_submatrix(m: MatGF, ri: tuple[int, ...], ci: tuple[int, ...]) -> int:
    """Determinant of the 0-indexed submatrix, one minor at a time, for
    `det`, `minor` and the reference `phi_bar_columns`; every minor of a
    block at once comes from `_all_minors`.

    The unrolled 2x2/3x3 cases carry the tests' references (`minor` of
    each coordinate, `phi_bar_columns` of construction4) at k <= 3; larger
    minors take a sign-tracked elimination.
    """
    q = m.ctx.q
    e = m.entries
    w = m.cols
    k = len(ri)
    if k == 0:
        return 1
    if k == 1:
        return e[ri[0] * w + ci[0]]
    if k == 2:
        r0, r1 = ri[0] * w, ri[1] * w
        c0, c1 = ci
        return (e[r0 + c0] * e[r1 + c1] - e[r0 + c1] * e[r1 + c0]) % q
    if k == 3:
        r0, r1, r2 = ri[0] * w, ri[1] * w, ri[2] * w
        c0, c1, c2 = ci
        a, b, c = e[r0 + c0], e[r0 + c1], e[r0 + c2]
        d, f, g = e[r1 + c0], e[r1 + c1], e[r1 + c2]
        h, i, j = e[r2 + c0], e[r2 + c1], e[r2 + c2]
        return (a * (f * j - g * i) - b * (d * j - g * h) + c * (d * i - f * h)) % q
    piv, scale = _echelon([_pack_row([e[i * w + j] for j in ci], q) for i in ri], k, q)
    if len(piv) < k:
        return 0
    cols = list(piv)
    swaps = sum(a > b for t, a in enumerate(cols) for b in cols[t + 1 :])
    total = (-1) ** swaps * pow(scale, q - 2, q)
    bits = 8 * _slots(q)[0]
    for c, r in piv.items():
        total *= r >> c * bits & (1 << bits) - 1
    return total % q


@lru_cache(maxsize=None)
def _minor_plan(
    k: int, m: int
) -> tuple[dict[tuple[tuple[int, ...], tuple[int, ...]], int], tuple[tuple[tuple[int, int, int], ...], ...]]:
    """Index of every minor (S, T) of a k x m matrix (0-based row and column
    tuples), and the Laplace terms of those of size >= 2 in index order.

    Minors come by size, then rows, then columns: the empty minor (1), then
    the entries row-major, then the rest.  A minor expands along the first
    row s of S as the sum over the p-th column t of T of (-1)^p a[s][t]
    times the minor on (S - s, T - t), listed as (entry, minor, sign).
    """
    index: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    terms = []
    for j in range(min(k, m) + 1):
        for rows in combinations(range(k), j):
            for cols in combinations(range(m), j):
                index[rows, cols] = len(index)
                if j >= 2:
                    s, rest = rows[0], rows[1:]
                    terms.append(tuple(
                        (s * m + t, index[rest, cols[:p] + cols[p + 1 :]], (-1) ** p)
                        for p, t in enumerate(cols)
                    ))
    return index, tuple(terms)


def _all_minors(entries: Sequence[int], k: int, m: int, q: int) -> list[int]:
    """Every minor of the k x m matrix with these row-major entries, in the
    order of `_minor_plan`, each from the smaller ones already computed."""
    out = [1, *entries]
    for terms in _minor_plan(k, m)[1]:
        acc = 0
        for e, i, sign in terms:
            acc += sign * entries[e] * out[i]
        out.append(acc % q)
    return out


def _check_index_tuple(t: Sequence[int], upper: int, what: str) -> tuple[int, ...]:
    tt = tuple(t)
    if any(not 1 <= x <= upper for x in tt):
        raise MatrixError(f"{what} indices out of range 1..{upper}: {tt}")
    if any(a >= b for a, b in zip(tt, tt[1:])):
        raise MatrixError(f"{what} indices must be strictly increasing: {tt}")
    return tt


def minor(m: MatGF, row_idx: Sequence[int], col_idx: Sequence[int]) -> int:
    """Determinant of the submatrix picked by 1-based index tuples."""
    ri = _check_index_tuple(row_idx, m.rows, "row")
    ci = _check_index_tuple(col_idx, m.cols, "column")
    if len(ri) != len(ci):
        raise MatrixError("row and column tuples must have equal length")
    return _det_submatrix(m, tuple(i - 1 for i in ri), tuple(j - 1 for j in ci))


def kernel_basis(m: MatGF) -> MatGF:
    """Basis of the right null space {x : m @ x^T = 0}, one vector per row."""
    return solve_affine(m, (0,) * m.rows)[1]


def solve_affine(
    m: MatGF, rhs: Sequence[int]
) -> tuple[tuple[int, ...], MatGF] | None:
    """Full solution set of m x = rhs as (particular, kernel basis), both
    read off one RREF of the augmented rows (`_solution_set`).

    Returns None when the system is inconsistent.
    """
    if len(rhs) != m.rows:
        raise MatrixError(f"rhs length {len(rhs)} != row count {m.rows}")
    q, n = m.ctx.q, m.cols
    shift = 8 * _slots(q)[0] * n  # the rhs sits in slot n
    aug = [r | b % q << shift for r, b in zip(m.packed, rhs)]
    pivots = _rref_rows(aug, n + 1, q)
    if pivots and pivots[-1] == n:
        return None  # pivot in the rhs column
    particular, kernel = _solution_set(aug, pivots, n, q)
    basis = tuple(x for v in kernel for x in _unpack_row(v, n, q))
    return tuple(_unpack_row(particular, n, q)), MatGF(m.ctx, len(kernel), n, basis)


def _solution_set(rows: Sequence[int], pivots: Sequence[int], n: int, q: int) -> tuple[int, list[int]]:
    """Particular solution (the rhs at each pivot) and kernel basis (per free
    column f ascending: 1 at f and minus column f at each pivot), packed, of
    RREF'd packed rows with n slots, the rhs in slot n and pivots below n."""
    bits = 8 * _slots(q)[0]
    mask, pivot_rows = (1 << bits) - 1, list(zip(rows, pivots))
    kernel = [
        sum(-(r >> bits * f & mask) % q << bits * p for r, p in pivot_rows) + (1 << bits * f)
        for f in sorted(set(range(n)).difference(pivots))
    ]
    return sum(r >> bits * n << bits * p for r, p in pivot_rows), kernel


# ---------------------------------------------------------------------------
# Randomized helpers (used by random_subspace and the tests)
# ---------------------------------------------------------------------------

def random_matrix(ctx: FieldCtx, rows: int, cols: int, rng) -> MatGF:
    return MatGF(ctx, rows, cols, tuple(rng.randrange(ctx.q) for _ in range(rows * cols)))


def random_invertible(ctx: FieldCtx, n: int, rng) -> MatGF:
    while True:
        m = random_matrix(ctx, n, n, rng)
        if rank(m) == n:
            return m


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def mat_to_text(m: MatGF) -> str:
    return "\n".join(" ".join(str(x) for x in m.row_list(i)) for i in range(m.rows))


def mat_from_text(ctx: FieldCtx, text: str) -> MatGF:
    """Parse whitespace-separated entries; rows split by ';' or newlines."""
    raw = text.replace(";", "\n").strip()
    if not raw:
        raise MatrixError("empty matrix text")
    rows = []
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([int(x) for x in line.split()])
        except ValueError:
            raise MatrixError(f"bad matrix row: {line!r}") from None
    return MatGF.from_rows(ctx, rows)
