"""Pluecker coordinates, shuffle relations, and ball equations.

Index tuples are strictly increasing k-tuples from {1, ..., n} (1-based,
like the minors they label), ordered lexicographically.  A subspace embeds
into projective space as the vector of its k x k basis minors; quadratic
shuffle relations cut out the image, and linear forms obtained from the
minor matrix of a change-of-basis inverse describe balls of even subspace
radius around any subspace.  An RREF basis, pivots first, is the top of
N(U'') = [[I_k, U''], [0, I]] with U'' its free-column block, and the
inverse in the ball forms' Construction 4 is N(-U'') with rows permuted;
so every coordinate and coefficient is zero or a signed minor of U''.  One
rule (`_block_pattern`) says which, as patterns keyed by the pivot columns
(`_lifted_table`, `_ball_pattern`); one reader (`_read_minors`) evaluates
them on one bottom-up pass over all minors of U'' (`_all_minors`).
"""

from __future__ import annotations

from itertools import chain, combinations, product, starmap
from operator import gt
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from math import comb
from typing import Callable, Iterable, Sequence

from .errors import GrassmannError
from .gf import FieldCtx
from .matgf import MatGF, _all_minors, _det_submatrix, _minor_plan, _pack_row, rref
from .gabidulin import ENUMERATION_CAP, Subspace

IndexTuple = tuple[int, ...]


@lru_cache(maxsize=None)
def _zero_based_tuples(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(x - 1 for x in t) for t in all_tuples(n, k))


def _check_tuple(t: Sequence[int], n: int, k: int) -> IndexTuple:
    tt = tuple(t)
    if len(tt) != k:
        raise GrassmannError(f"expected a {k}-tuple, got {tt}")
    if any(not 1 <= x <= n for x in tt):
        raise GrassmannError(f"tuple entries out of range 1..{n}: {tt}")
    if any(a >= b for a, b in zip(tt, tt[1:])):
        raise GrassmannError(f"tuple must be strictly increasing: {tt}")
    return tt


@lru_cache(maxsize=None)
def all_tuples(n: int, k: int) -> tuple[IndexTuple, ...]:
    """All increasing k-tuples from {1..n} in lex order, at most ENUMERATION_CAP."""
    if 0 <= k <= n and comb(n, k) > ENUMERATION_CAP:
        raise GrassmannError(f"C({n},{k}) = {comb(n, k)} tuples exceed the enumeration cap")
    return tuple(combinations(range(1, n + 1), k))


def tuple_rank(t: Sequence[int], n: int, k: int) -> int:
    """Lex position of a k-tuple among all increasing k-tuples from {1..n}."""
    tt = _check_tuple(t, n, k)
    r = 0
    prev = 0
    for pos, x in enumerate(tt):
        for y in range(prev + 1, x):
            r += comb(n - y, k - pos - 1)
        prev = x
    return r


def tuple_unrank(r: int, n: int, k: int) -> IndexTuple:
    if not 0 <= r < comb(n, k):
        raise GrassmannError(f"rank {r} out of range for C({n},{k})")
    out = []
    x = 1
    for pos in range(k):
        while True:
            c = comb(n - x, k - pos - 1)
            if r < c:
                out.append(x)
                x += 1
                break
            r -= c
            x += 1
    return tuple(out)


def bruhat_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise order; a partial order only."""
    if len(a) != len(b):
        raise GrassmannError("tuples of different length are not comparable")
    return all(x <= y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlueckerVector:
    """Normalized projective point: first nonzero coordinate equals 1."""

    ctx: FieldCtx
    n: int
    k: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != comb(self.n, self.k):
            raise GrassmannError(
                f"need {comb(self.n, self.k)} coordinates, got {len(self.coords)}"
            )
        first = next((c for c in self.coords if c), None)
        if first is None:
            raise GrassmannError("projective point cannot be identically zero")
        if first != 1:
            raise GrassmannError("vector is not normalized")

    def __str__(self) -> str:
        return "[" + ":".join(str(c) for c in self.coords) + "]"

    def at(self, t: Sequence[int]) -> int:
        return self.coords[tuple_rank(t, self.n, self.k)]

    @cached_property
    def packed(self) -> int:
        """The coordinates as one packed row whose slots hold a dot product
        of two coordinate vectors, computed once."""
        return _pack_row(self.coords, self.ctx.q, len(self.coords))


def normalize(ctx: FieldCtx, n: int, k: int, coords: Sequence[int]) -> PlueckerVector:
    """Scale so the first nonzero coordinate becomes 1."""
    vals = [c % ctx.q for c in coords]
    first = next((c for c in vals if c), None)
    if first is None:
        raise GrassmannError("cannot normalize the zero vector")
    if first != 1:
        f = ctx.inv(first)
        vals = [(c * f) % ctx.q for c in vals]
    return PlueckerVector(ctx, n, k, tuple(vals))


def embed(u: Subspace) -> PlueckerVector:
    """Vector of all k x k minors of the RREF basis, in lex tuple order,
    read off the minors of its free-column block (`_lifted_table`).

    The basis being RREF makes the raw vector already normalized: the lex
    first nonzero minor sits at the pivot tuple and equals 1.
    """
    k, n = u.k, u.n
    if k == 0:
        raise GrassmannError("a 0-dimensional space has no Pluecker embedding")
    return PlueckerVector(u.ctx, n, k, _free_block_minors(u, partial(_lifted_table, n, k)))


# ---------------------------------------------------------------------------
# Shuffle relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticRelation:
    """Sum of coefficient * x_a * x_b terms equal to zero.

    Coefficients are plain integers (signs), reduced mod q at evaluation
    time; the relations themselves do not depend on the field.
    """

    n: int
    k: int
    terms: tuple[tuple[IndexTuple, IndexTuple, int], ...]

    def evaluate(self, coords: Sequence[int], q: int) -> int:
        return sum(c * coords[ia] * coords[ib] for ia, ib, c in self.indexed_terms) % q

    @cached_property
    def indexed_terms(self) -> tuple[tuple[int, int, int], ...]:
        """The terms with each index tuple replaced by its coordinate
        position (`tuple_rank`), computed once."""
        n, k = self.n, self.k
        return tuple((tuple_rank(a, n, k), tuple_rank(b, n, k), c) for a, b, c in self.terms)


@lru_cache(maxsize=None)
def shuffle_relations(n: int, k: int) -> tuple[QuadraticRelation, ...]:
    """One exchange relation per 2k-subset of {1..n}.

    For a 2k-subset split into its k-1 smallest elements a and k+1 largest
    elements b, the relation is sum_j (-1)^(j+1) x_(a,b_j) x_(b minus b_j).
    Every embedded point satisfies all of them; for k = 1 the terms cancel
    identically, matching the fact that G_q(1, n) is all of projective
    space.  Needs 1 <= k <= n, and at most ENUMERATION_CAP relations.
    """
    if not 1 <= k <= n:
        raise GrassmannError(f"need 1 <= k <= n, got n={n}, k={k}")
    relations = []
    for subset in all_tuples(n, 2 * k):
        a = subset[: k - 1]
        b = subset[k - 1 :]
        terms = []
        sign = 1
        for j, bj in enumerate(b):
            # a entries all precede b entries, so a + (bj,) is sorted
            terms.append((a + (bj,), b[:j] + b[j + 1 :], sign))
            sign = -sign
        relations.append(QuadraticRelation(n, k, tuple(terms)))
    return tuple(relations)


# ---------------------------------------------------------------------------
# Balls around a subspace
# ---------------------------------------------------------------------------

def _bound_tuple(n: int, k: int, e: int) -> IndexTuple:
    """(e+1, ..., k, n-e+1, ..., n); prefix empty when e = k."""
    return tuple(range(e + 1, k + 1)) + tuple(range(n - e + 1, n + 1))


def ball_forbidden_tuples(n: int, k: int, e: int) -> tuple[IndexTuple, ...]:
    """Tuples whose coordinate must vanish on the radius-2e ball around
    the subspace spanned by the first k unit vectors."""
    if not 0 <= e <= k:
        raise GrassmannError(f"need 0 <= e <= k, got e={e}")
    bound = _bound_tuple(n, k, e)
    return tuple(t for t in all_tuples(n, k) if not bruhat_leq(t, bound))


def tau_count(n: int, k: int, e: int) -> int:
    """Closed form for the number of forbidden tuples."""
    if not 0 <= e <= k:
        raise GrassmannError(f"need 0 <= e <= k, got e={e}")
    return sum(comb(n - k, k - l) * comb(k, l) for l in range(k - e))


def construction4(u: Subspace) -> tuple[MatGF, MatGF]:
    """Invertible A with first k rows equal to the basis of u, plus its inverse.

    The lower n-k rows of A place an identity on the non-pivot columns.
    The inverse comes from the column permutation that moves the pivot
    columns to the front: the permuted matrix is block unitriangular with
    an explicit inverse, and undoing the permutation on its rows gives
    A^(-1) without elimination.
    """
    ctx = u.ctx
    k, n = u.k, u.n
    _, pivots = rref(u.basis)  # basis is RREF already; reuse its pivots
    pivot_cols = [p - 1 for p in pivots]
    free_cols = [j for j in range(n) if j not in set(pivot_cols)]

    lower = [[int(j == f) for j in range(n)] for f in free_cols]
    a = MatGF.from_rows(ctx, u.basis.to_lists() + lower)

    # sigma(A), A with its columns pivots first, is N(U'') = [[I_k, U''], [0, I]]
    # and its inverse N(-U''); row j of N(-U'') is row c of A^(-1), with c the
    # j-th of the pivot columns and then the free ones.
    inv_rows = [[0] * n for _ in range(n)]
    for j, c in enumerate(pivot_cols + free_cols):
        inv_rows[c][j] = 1
        if j < k:
            inv_rows[c][k:] = [-u.basis.at(j, f) % ctx.q for f in free_cols]
    return a, MatGF.from_rows(ctx, inv_rows)


def phi_bar_columns(a: MatGF, cols: Sequence[Sequence[int]]) -> MatGF:
    """Selected columns of the matrix of k x k minors of a.

    Rows are indexed by lex-ordered row tuples, columns by the requested
    column tuples; entry = minor of a on (row tuple, column tuple).  Only
    the requested columns are materialized.
    """
    if a.rows != a.cols:
        raise GrassmannError("minor matrix needs a square input")
    n = a.rows
    if not cols:
        raise GrassmannError("no columns requested")
    k = len(cols[0])
    checked = [
        tuple(x - 1 for x in _check_tuple(c, n, k)) for c in cols
    ]
    out_rows = []
    for r in _zero_based_tuples(n, k):
        out_rows.append([_det_submatrix(a, r, c) for c in checked])
    return MatGF.from_rows(a.ctx, out_rows)


@dataclass(frozen=True)
class LinearForm:
    """coeffs . x = rhs over F_q, in the full Pluecker variable vector."""

    coeffs: tuple[int, ...]
    rhs: int

    def evaluate(self, coords: Sequence[int], q: int) -> int:
        return sum(c * x for c, x in zip(self.coeffs, coords)) % q

    def holds(self, coords: Sequence[int], q: int) -> bool:
        return self.evaluate(coords, q) == self.rhs % q


def ball_equations(r: Subspace, e: int) -> list[LinearForm]:
    """Linear forms cutting out the radius-2e ball around r.

    A subspace V of the same dimension satisfies all the forms iff its
    subspace distance from r is at most 2e.  One form per forbidden tuple,
    with coefficients the matching column of the minor matrix of A^(-1)
    from construction4, read off the minors of one k x (n-k) block (see
    `_ball_pattern`).  Empty for e = k.  The forms belong to r, so they are
    computed on every call; only their pattern, per pivot set, recurs.
    """
    n, k = r.n, r.k
    if k == 0:
        raise GrassmannError("a 0-dimensional space has no Pluecker embedding")
    coeffs, nvars = _free_block_minors(r, partial(_ball_pattern, n, k, e)), comb(n, k)
    return [LinearForm(coeffs[i : i + nvars], 0) for i in range(0, len(coeffs), nvars)]


def _read_minors(
    pattern: Sequence[int], entries: Sequence[int], k: int, m: int, q: int
) -> tuple[int, ...]:
    """The values `pattern` names among the minors of the k x m matrix with
    these row-major entries, from one `_all_minors` pass: i is minor i in
    `_minor_plan` order, ~i its negative, and the number of minors zero.
    Only this module builds and reads patterns."""
    if not pattern:
        return ()
    minors = _all_minors(entries, k, m, q)
    signed = minors + [0] + [-x % q for x in reversed(minors)]
    return tuple(map(signed.__getitem__, pattern))


def lifted_coordinates(entries: Sequence[int], k: int, ell: int, q: int) -> tuple[int, ...]:
    """Every coordinate of the lifting [I_k | A] of the k x ell matrix A with
    these row-major entries, in lex tuple order; the first one is 1."""
    return _read_minors(_lifted_table(k + ell, k, tuple(range(k))), entries, k, ell, q)


def _free_block_minors(u: Subspace, pattern_at: Callable[..., tuple[int, ...]]) -> tuple[int, ...]:
    """The values that `pattern_at(pivots)` names among the minors of U'',
    for the RREF basis of u with these 0-based pivot columns and U'' its
    free-column block."""
    rows = u.basis.to_lists()
    pivots = tuple(row.index(1) for row in rows)  # the basis is RREF
    upp = [row[j] for row in rows for j in range(u.n) if j not in pivots]
    return _read_minors(pattern_at(pivots), upp, u.k, u.n - u.k, u.ctx.q)


def _block_pattern(
    k: int, m: int, pairs: Iterable, negate: bool = False, sorted_rows: bool = True
) -> tuple[int, ...]:
    """The minor of N(X) = [[I_k, X], [0, I_m]] on each pair of 0-based row
    and column lists, the rows sorted (`_lifted_table`) or, if not
    `sorted_rows`, the columns (`_ball_pattern`), as a `_read_minors`
    pattern over the minors of the k x m block X, or of -X when `negate`.

    Column c < k is the unit vector at row c, and row k + r the unit vector
    at column k + r, so the minor is zero unless each such column has its
    row and each such row its column.  Sorting rows and columns, then moving
    those columns with their rows to the front and those rows with their
    columns to the back, leaves [[I, *, *], [0, X[S, T], *], [0, 0, I]]: the
    minor of X on the other rows S < k and columns k + T, negated by the
    parity of sorting the other side, of the kept rows before each such
    column, of the kept columns after each such row, and, for -X, of |S|.
    """
    index, low = _minor_plan(k, m)[0], set(range(k))
    zero = len(index)
    out = []
    for rows, cols in pairs:
        rs, cs = set(rows), set(cols)
        units, fixed = cs & low, rs - low
        if not units <= rs or not fixed <= cs:
            out.append(zero)
            continue
        s, t = sorted(rs & low - cs), sorted(cs - low - rs)
        swaps = chain(combinations(cols if sorted_rows else rows, 2), product(units, s))
        parity = negate * len(s) + sum(starmap(gt, chain(swaps, product(t, fixed))))
        minor = index[tuple(s), tuple([c - k for c in t])]
        out.append(~minor if parity % 2 else minor)
    return tuple(out)


@lru_cache(maxsize=4096)
def _ball_pattern(n: int, k: int, e: int, pivots: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients of every ball form, flat and form by form, as a
    `_read_minors` pattern over the minors of U'', for a received space with
    these 0-based pivot columns and U'' its free-column block.  A^(-1) from
    construction4 is N(-U'') with block row j moved to pivot column p_j and
    block row k + t to free column f_t, so the coefficient of row tuple R in
    the form of a forbidden tuple is the minor of N(-U'') on R's block rows
    and the forbidden tuple's columns.
    """
    forbidden_tuples = ball_forbidden_tuples(n, k, e)  # capped, so the minor plan is too
    size = len(forbidden_tuples) * comb(n, k)  # one coefficient per form and coordinate
    if size > ENUMERATION_CAP:
        raise GrassmannError(f"{size} ball-form coefficients exceed the enumeration cap")
    order = sorted(range(n), key=lambda c: c not in pivots)  # pivots first, then free
    block_row = {c: b for b, c in enumerate(order)}
    rows = [[block_row[x] for x in t] for t in _zero_based_tuples(n, k)]
    pairs = ((r, c) for c in ([x - 1 for x in f] for f in forbidden_tuples) for r in rows)
    return _block_pattern(k, n - k, pairs, negate=True, sorted_rows=False)


@lru_cache(maxsize=4096)
def _lifted_table(n: int, k: int, pivots: tuple[int, ...]) -> tuple[int, ...]:
    """Every coordinate of the k x n matrix with unit columns e_1, ..., e_k
    at these 0-based pivot columns and a k x (n-k) block U'' in the others,
    in lex tuple order, as a `_read_minors` pattern over the minors of U''.
    An RREF basis is such a matrix; the lifting [I_k | A] is the one with
    pivots (0, ..., k-1) and U'' = A.  Moving the pivots to the front makes
    it the top k rows of N(U''), so a coordinate is the minor of N(U'') on
    those rows and the tuple's block columns.
    """
    tuples = _zero_based_tuples(n, k)  # capped before `_block_pattern` plans the minors
    order = sorted(range(n), key=lambda c: c not in pivots)  # pivots first, then free
    block = {c: b for b, c in enumerate(order)}
    return _block_pattern(k, n - k, ((range(k), [block[x] for x in t]) for t in tuples))


def equidistant_lift(r: Subspace, a: MatGF) -> MatGF:
    """A matrix M with d_S(r, rs[I|A]) = d_S(rs[I|M], rs[I|A]).

    Row-reducing the stack of [I | A] and the basis of r zeroes the left
    block of r's contribution, leaving [0 | Mbar]; M = A + Mbar.
    """
    k, n = r.k, r.n
    if a.rows != k or a.cols != n - k:
        raise GrassmannError(
            f"expected a {k}x{n - k} matrix, got {a.rows}x{a.cols}"
        )
    left = r.basis.submatrix(range(k), range(k))
    right = r.basis.submatrix(range(k), range(k, n))
    mbar = right - (left @ a)
    return a + mbar
