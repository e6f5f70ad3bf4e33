import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plueckerdec.errors import MatrixError
from plueckerdec.gf import FieldCtx
from plueckerdec.matgf import (
    MatGF,
    _all_minors,
    _minor_plan,
    _pack_row,
    _reduce,
    _slots,
    det,
    kernel_basis,
    mat_from_text,
    mat_to_text,
    minor,
    random_invertible,
    random_matrix,
    rank,
    rref,
    solve_affine,
    vstack,
)

F2 = FieldCtx(2)
F3 = FieldCtx(3)
F5 = FieldCtx(5)


def laplace_det(m: MatGF, rows, cols) -> int:
    """Independent oracle: recursive cofactor expansion along the first row."""
    q = m.ctx.q
    if len(rows) == 1:
        return m.at(rows[0], cols[0])
    total = 0
    sign = 1
    for j in range(len(cols)):
        v = m.at(rows[0], cols[j])
        if v:
            total += sign * v * laplace_det(m, rows[1:], cols[:j] + cols[j + 1 :])
        sign = -sign
    return total % q


def test_rref_examples():
    m = MatGF.from_rows(F2, [[0, 1], [1, 0]])
    red, pivots = rref(m)
    assert red == MatGF.identity(F2, 2)
    assert pivots == (1, 2)

    r1 = MatGF.from_rows(F2, [[1, 0, 1, 0], [0, 0, 0, 1]])
    red, pivots = rref(r1)
    assert red == r1
    assert pivots == (1, 4)

    # scale row one by inv(2) = 3, eliminate
    m5 = MatGF.from_rows(F5, [[2, 4], [1, 2]])
    red, pivots = rref(m5)
    assert red.to_lists() == [[1, 2], [0, 0]]
    assert pivots == (1,)


def test_rank_examples():
    assert rank(MatGF.identity(F3, 4)) == 4
    stacked = MatGF.from_rows(F2, [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 1]])
    assert rank(stacked) == 3
    assert rank(MatGF.zeros(F2, 3, 5)) == 0


def test_minor_examples():
    u = MatGF.from_rows(F2, [[1, 0, 0, 1], [0, 1, 1, 0]])
    assert minor(u, (1, 2), (2, 4)) == 1
    assert minor(u, (1, 2), (1, 4)) == 0
    dup = MatGF.from_rows(F3, [[1, 1, 2], [2, 2, 1], [0, 0, 1]])
    assert minor(dup, (1, 2, 3), (1, 2, 3)) == 0  # equal columns 1 and 2


def test_minor_validation():
    u = MatGF.from_rows(F2, [[1, 0], [0, 1]])
    with pytest.raises(MatrixError):
        minor(u, (1, 2), (2, 1))
    with pytest.raises(MatrixError):
        minor(u, (1, 2), (1, 3))
    with pytest.raises(MatrixError):
        minor(u, (1,), (1, 2))


def test_kernel_basis_examples(demo_code):
    assert kernel_basis(MatGF.identity(F2, 3)).rows == 0
    # generator of the qualifying-coordinate code of the demo code
    gp = MatGF.from_rows(F2, [[1, 0, 0, 1], [0, 1, 1, 1]])
    ker = kernel_basis(gp)
    red, _ = rref(ker)
    assert red.to_lists() == [[1, 0, 1, 1], [0, 1, 1, 0]]
    assert kernel_basis(MatGF.zeros(F2, 2, 3)) == MatGF.identity(F2, 3)


def test_kernel_basis_annihilates_random():
    rng = random.Random(7)
    for _ in range(50):
        q = rng.choice([2, 3, 5])
        ctx = FieldCtx(q)
        m = random_matrix(ctx, rng.randrange(1, 5), rng.randrange(1, 6), rng)
        ker = kernel_basis(m)
        assert ker.rows == m.cols - rank(m)
        if ker.rows:
            assert all(x == 0 for x in (m @ ker.transpose()).entries)


def test_solve_affine_simple():
    m = MatGF.from_rows(F2, [[1, 0]])
    particular, kernel = solve_affine(m, [1])
    assert particular == (1, 0)
    assert kernel.to_lists() == [[0, 1]]


def test_solve_affine_decode_system():
    # x12=1, x13+x14+x24=0, x14+x23=0, x12+x23=0 in vars (x12,x13,x14,x23,x24)
    m = MatGF.from_rows(
        F2,
        [
            [1, 0, 0, 0, 0],
            [0, 1, 1, 0, 1],
            [0, 0, 1, 1, 0],
            [1, 0, 0, 1, 0],
        ],
    )
    sol = solve_affine(m, [1, 0, 0, 0])
    assert sol is not None
    particular, kernel = sol
    assert kernel.rows == 1
    q = 2
    points = set()
    for t in range(2):
        vec = tuple(
            (p + t * kv) % q for p, kv in zip(particular, kernel.row_list(0))
        )
        points.add(vec)
    assert points == {(1, 1, 1, 1, 0), (1, 0, 1, 1, 1)}


def test_solve_affine_infeasible():
    m = MatGF.from_rows(F2, [[1, 0], [1, 0]])
    assert solve_affine(m, [1, 0]) is None


def test_solve_affine_shape_check():
    with pytest.raises(MatrixError):
        solve_affine(MatGF.identity(F2, 2), [1])


@given(st.integers(0, 4), st.integers(1, 4), st.sampled_from([2, 3, 5]), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_rref_idempotent_and_pivot_shape(rows, cols, q, pyrandom):
    ctx = FieldCtx(q)
    m = random_matrix(ctx, rows, cols, pyrandom)
    red, pivots = rref(m)
    again, pivots2 = rref(red)
    assert red == again
    assert pivots == pivots2
    assert list(pivots) == sorted(pivots)


def test_rref_row_space_invariant():
    rng = random.Random(11)
    for _ in range(100):
        q = rng.choice([2, 3, 5])
        ctx = FieldCtx(q)
        n = rng.randrange(1, 5)
        m = random_matrix(ctx, n, rng.randrange(1, 6), rng)
        p = random_invertible(ctx, n, rng)
        assert rref(p @ m)[0] == rref(m)[0]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_det_nonzero_iff_full_rank_exhaustive(q, n):
    ctx = FieldCtx(q)
    for entries in itertools.product(range(q), repeat=n * n):
        m = MatGF(ctx, n, n, entries)
        assert (det(m) != 0) == (rank(m) == n)


def test_det_requires_square():
    with pytest.raises(MatrixError):
        det(MatGF.zeros(F2, 2, 3))


def test_minor_matches_laplace_oracle():
    rng = random.Random(23)
    for _ in range(1000):
        q = rng.choice([2, 3, 5])
        ctx = FieldCtx(q)
        size = rng.randrange(1, 6)
        rows = rng.randrange(size, size + 3)
        cols = rng.randrange(size, size + 3)
        m = random_matrix(ctx, rows, cols, rng)
        ri = tuple(sorted(rng.sample(range(rows), size)))
        ci = tuple(sorted(rng.sample(range(cols), size)))
        expected = laplace_det(m, ri, ci)
        got = minor(m, tuple(i + 1 for i in ri), tuple(j + 1 for j in ci))
        assert got == expected


def test_all_minors_match_laplace_oracle():
    """Every minor of every shape up to 4 x 5, including the empty minor,
    and the C(k+m, k) count of the plan."""
    rng = random.Random(31)
    for q in (2, 3, 7, 13):
        ctx = FieldCtx(q)
        for k in range(5):
            for m in range(6):
                a = random_matrix(ctx, k, m, rng)
                index, _ = _minor_plan(k, m)
                got = _all_minors(a.entries, k, m, q)
                assert len(got) == len(index) == math.comb(k + m, k)
                for (ri, ci), i in index.items():
                    assert got[i] == (laplace_det(a, ri, ci) if ri else 1)


def test_matmul_and_stacks():
    a = MatGF.from_rows(F3, [[1, 2], [0, 1]])
    b = MatGF.from_rows(F3, [[2, 0], [1, 1]])
    assert (a @ b).to_lists() == [[1, 2], [1, 1]]
    assert vstack(a, b).rows == 4
    with pytest.raises(MatrixError):
        a @ MatGF.zeros(F3, 3, 2)
    with pytest.raises(MatrixError):
        a + MatGF.zeros(F2, 2, 2)


def test_text_roundtrip():
    m = MatGF.from_rows(F5, [[1, 2, 3], [4, 0, 1]])
    assert mat_from_text(F5, mat_to_text(m)) == m
    assert mat_from_text(F5, "1 2 3;4 0 1") == m
    with pytest.raises(MatrixError):
        mat_from_text(F5, "")
    with pytest.raises(MatrixError):
        mat_from_text(F5, "1 x")


# ---------------------------------------------------------------------------
# The packed elimination kernel against a plain list elimination
# ---------------------------------------------------------------------------

# byte slots (q <= 11) and wider slots (13, 17, 257)
PRIMES = [2, 3, 5, 7, 11, 13, 17, 257]


def plain_rref(rows, q):
    """Textbook Gauss-Jordan elimination on lists of entries."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for j in range(len(rows)):
            if j != r and rows[j][c]:
                f = rows[j][c]
                rows[j] = [(x - f * y) % q for x, y in zip(rows[j], rows[r])]
        pivots.append(c)
    return rows, pivots


@st.composite
def matrices(draw):
    """Matrices up to 8 x 24 over every slot width, with 0 rows, 1 x n and
    n x 1 shapes, all-zero rows and rows that combine earlier ones."""
    q = draw(st.sampled_from(PRIMES))
    rows = draw(st.one_of(st.just(1), st.integers(0, 8)))
    cols = draw(st.one_of(st.just(1), st.integers(0, 24)))
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero":
            row = [0] * cols
        elif kind == "combination" and out:
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            f = draw(st.integers(0, q - 1))
            row = [(x + f * y) % q for x, y in zip(a, b)]
        else:
            row = draw(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols))
        out.append(row)
    return MatGF(FieldCtx(q), rows, cols, tuple(x for row in out for x in row))


@given(matrices())
@settings(max_examples=300)
def test_kernel_rank_rref_and_kernel_basis_match_plain_elimination(m):
    q = m.ctx.q
    red, pivots = plain_rref(m.to_lists(), q)
    assert rank(m) == len(pivots)
    got, got_pivots = rref(m)
    assert got.to_lists() == red
    assert got_pivots == tuple(p + 1 for p in pivots)
    ker = kernel_basis(m)
    assert (ker.rows, ker.cols) == (m.cols - len(pivots), m.cols)
    assert len(plain_rref(ker.to_lists(), q)[1]) == ker.rows
    if ker.rows and m.rows:
        assert not any((m @ ker.transpose()).entries)


@given(matrices(), st.data())
@settings(max_examples=300)
def test_solve_affine_matches_plain_elimination(m, data):
    q = m.ctx.q
    if data.draw(st.booleans()):
        x = data.draw(st.lists(st.integers(0, q - 1), min_size=m.cols, max_size=m.cols))
        rhs = [sum(m.at(i, j) * x[j] for j in range(m.cols)) % q for i in range(m.rows)]
    else:
        rhs = data.draw(st.lists(st.integers(0, q - 1), min_size=m.rows, max_size=m.rows))
    _, pivots = plain_rref([row + [b] for row, b in zip(m.to_lists(), rhs)], q)
    sol = solve_affine(m, rhs)
    assert (sol is None) == (m.cols in pivots)
    if sol is not None:
        particular, ker = sol
        for i in range(m.rows):
            assert sum(m.at(i, j) * particular[j] for j in range(m.cols)) % q == rhs[i]
        assert ker == kernel_basis(m)


@pytest.mark.parametrize("q,terms", [(7, 6), (7, 9), (11, 2), (11, 4), (13, 1), (13, 2), (13, 4)])
def test_reduce_reads_wide_slots_into_row_slots(q, terms):
    """A packed sum of `terms` products has slots up to terms (q-1)^2 in
    `_slots(q, terms)`; `_reduce(..., terms)` takes them mod q into the
    slots of a row.  The widths are both one byte at (7, 6) and (11, 2),
    wider for the sums only at (7, 9), (11, 4) and (13, 1), and both two
    bytes at (13, 2) and (13, 4)."""
    top, n = terms * (q - 1) ** 2, 12
    assert _slots(q, terms)[0] == (1 if top < 256 else 2)
    rng = random.Random(q * terms)
    for trial in range(50):
        vals = [top] * n if trial == 0 else [rng.choice([0, top, rng.randrange(top)]) for _ in range(n)]
        assert _reduce(_pack_row(vals, q, terms), n, q, terms) == _pack_row([v % q for v in vals], q)


def leibniz_det(rows, q):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, p in enumerate(perm):
            term *= rows[i][p]
        total += term
    return total % q


@pytest.mark.parametrize("size", [4, 5])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_minor_matches_leibniz(q, size):
    """Minors with k >= 4 take the sign-tracked elimination path."""
    rng = random.Random(100 * size + q)
    ctx = FieldCtx(q)
    for trial in range(40):
        m = random_matrix(ctx, 6, 7, rng)
        ri = sorted(rng.sample(range(6), size))
        ci = sorted(rng.sample(range(7), size))
        if trial % 4 == 0:  # a dependent row makes the minor vanish
            rows = m.to_lists()
            rows[ri[-1]] = [(a + 2 * b) % q for a, b in zip(rows[ri[0]], rows[ri[2]])]
            m = MatGF.from_rows(ctx, rows)
        sub = [[m.at(i, j) for j in ci] for i in ri]
        got = minor(m, tuple(i + 1 for i in ri), tuple(j + 1 for j in ci))
        assert got == leibniz_det(sub, q)
        assert det(MatGF.from_rows(ctx, sub)) == got


def span(basis, q):
    """Every vector of the row space, by enumerating coefficient vectors."""
    n = basis.cols
    rows = basis.to_lists()
    return {
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % q for j in range(n))
        for coeffs in itertools.product(range(q), repeat=len(rows))
    }


@given(st.sampled_from(PRIMES), st.integers(1, 4), st.data())
@settings(max_examples=150)
def test_subspace_distance_matches_enumerated_intersection(q, n, data):
    from plueckerdec.gabidulin import Subspace, random_subspace, subspace_distance

    # spans are enumerated, so q^k stays small: k = 1 at q = 257
    k = data.draw(st.integers(0, n).filter(lambda k: q**k <= 400))
    rng = data.draw(st.randoms(use_true_random=False))
    ctx = FieldCtx(q)
    u = random_subspace(ctx, n, k, rng)
    shared = data.draw(st.integers(0, k))
    while True:  # v keeps `shared` basis rows of u
        rows = u.basis.to_lists()[:shared] + random_matrix(ctx, k - shared, n, rng).to_lists()
        if len(plain_rref(rows, q)[1]) == k:
            v = Subspace.from_matrix(MatGF(ctx, k, n, tuple(x for row in rows for x in row)))
            break
    su, sv = span(u.basis, q), span(v.basis, q)
    assert len(su) == len(sv) == q**k
    common = len(su & sv)
    dim = next(d for d in range(k + 1) if q**d == common)
    assert subspace_distance(u, v) == subspace_distance(v, u) == 2 * k - 2 * dim
