"""Pluecker coordinates, shuffle relations, and ball equations.

Index tuples are strictly increasing k-tuples from {1, ..., n} (1-based,
like the minors they label), ordered lexicographically.  A subspace embeds
into projective space as the vector of its k x k basis minors; quadratic
shuffle relations cut out the image, and linear forms obtained from the
minor matrix of a change-of-basis inverse describe balls of even subspace
radius around any subspace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence

from .errors import GrassmannError
from .gf import FieldCtx
from .matgf import MatGF, _det_submatrix, rref
from .gabidulin import Subspace

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
    """All increasing k-tuples from {1..n} in lex order."""
    return tuple(itertools.combinations(range(1, n + 1), k))


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
    """Vector of all k x k minors of the RREF basis, in lex tuple order.

    The basis being RREF makes the raw vector already normalized: the lex
    first nonzero minor sits at the pivot tuple and equals 1.
    """
    k, n = u.k, u.n
    if k == 0:
        raise GrassmannError("a 0-dimensional space has no Pluecker embedding")
    rows = tuple(range(k))
    basis = u.basis
    coords = [_det_submatrix(basis, rows, t) for t in _zero_based_tuples(n, k)]
    return normalize(u.ctx, n, k, coords)


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
        total = 0
        for ia, ib, c in _indexed_terms(self):
            total += c * coords[ia] * coords[ib]
        return total % q


@lru_cache(maxsize=None)
def _indexed_terms(rel: "QuadraticRelation") -> tuple[tuple[int, int, int], ...]:
    return tuple(
        (tuple_rank(a, rel.n, rel.k), tuple_rank(b, rel.n, rel.k), c)
        for a, b, c in rel.terms
    )


@lru_cache(maxsize=None)
def shuffle_relations(n: int, k: int) -> tuple[QuadraticRelation, ...]:
    """One exchange relation per 2k-subset of {1..n}.

    For a 2k-subset split into its k-1 smallest elements a and k+1 largest
    elements b, the relation is sum_j (-1)^(j+1) x_(a,b_j) x_(b minus b_j).
    Every embedded point satisfies all of them; for k = 1 the terms cancel
    identically, matching the fact that G_q(1, n) is all of projective
    space.  Needs 1 <= k <= n.
    """
    if not 1 <= k <= n:
        raise GrassmannError(f"need 1 <= k <= n, got n={n}, k={k}")
    if 2 * k > n:
        return ()
    relations = []
    for subset in itertools.combinations(range(1, n + 1), 2 * k):
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

    rows = u.basis.to_lists()
    for f in free_cols:
        lower = [0] * n
        lower[f] = 1
        rows.append(lower)
    a = MatGF.from_rows(ctx, rows)

    # sigma(A) = A with columns reordered pivots-first: [[I_k, U''], [0, I]];
    # its inverse is the same block shape with -U''.  Row j of that inverse
    # becomes row order[j] of A^(-1).
    order = pivot_cols + free_cols
    neg_upp = [[-u.basis.at(i, j) % ctx.q for j in free_cols] for i in range(k)]
    inv_rows = [[0] * n for _ in range(n)]
    for j in range(n):
        target = inv_rows[order[j]]
        target[j] = 1
        if j < k:
            for t in range(n - k):
                target[k + t] = neg_upp[j][t]
    a_inv = MatGF.from_rows(ctx, inv_rows)
    return a, a_inv


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
    with coefficients read off the matching column of the minor matrix of
    A^(-1) from construction4.  Empty for e = k.
    """
    return list(_ball_equations_cached(r, e))


@lru_cache(maxsize=4096)
def _ball_equations_cached(r: Subspace, e: int) -> tuple[LinearForm, ...]:
    k, n = r.k, r.n
    forbidden = ball_forbidden_tuples(n, k, e)
    if not forbidden:
        return ()
    _, a_inv = construction4(r)
    col_matrix = phi_bar_columns(a_inv, forbidden)
    forms = []
    for j in range(len(forbidden)):
        coeffs = tuple(col_matrix.at(i, j) for i in range(col_matrix.rows))
        forms.append(LinearForm(coeffs, 0))
    return tuple(forms)


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
