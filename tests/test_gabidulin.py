import itertools
import random

import pytest

from plueckerdec.errors import CodeError
from plueckerdec.gf import FieldCtx, ext_field
from plueckerdec.matgf import MatGF, rank, vstack
from plueckerdec.gabidulin import (
    RankCodeword,
    Subspace,
    encode,
    enumerate_code,
    enumerate_grassmannian,
    enumerate_messages,
    gaussian_binomial,
    generator_matrix,
    lift,
    make_code,
    mrd_bound,
    random_subspace,
    rank_distance,
    subspace_distance,
)

F2 = FieldCtx(2)


def stacked_rank_distance(u: Subspace, v: Subspace) -> int:
    """Oracle: dim(U+V) from the stacked bases, then 2*dim(U+V) - 2k."""
    return 2 * rank(vstack(u.basis, v.basis)) - 2 * u.k


def test_generator_matrix_demo(demo_code):
    G = generator_matrix(demo_code)
    assert len(G) == 1
    assert [str(x) for x in G[0]] == ["alpha", "1"]


def test_generator_matrix_single_row_when_delta_is_k():
    code = make_code(3, 6, 3, 3)
    G = generator_matrix(code)
    assert len(G) == 1
    assert G[0] == code.g


def test_generator_matrix_derived():
    ext = ext_field(2, 3)
    code = make_code(2, 5, 2, 2, g=[ext.one(), ext.alpha()])
    G = generator_matrix(code)
    assert G == ((ext.one(), ext.alpha()),)


def test_encode_examples(demo_code):
    ext = demo_code.ext
    cw = encode(demo_code, [ext.one()])
    assert [str(x) for x in cw.vec] == ["alpha", "1"]
    assert cw.mat.to_lists() == [[0, 1], [1, 0]]

    zero_cw = encode(demo_code, [ext.zero()])
    assert all(x.is_zero() for x in zero_cw.vec)
    assert zero_cw.mat == MatGF.zeros(F2, 2, 2)

    cw2 = encode(demo_code, [ext.alpha()])
    assert cw2.vec == (ext.alpha() ** 2, ext.alpha())
    assert cw2.mat.to_lists() == [[1, 1], [0, 1]]


def test_encode_length_check(demo_code):
    with pytest.raises(CodeError):
        encode(demo_code, [demo_code.ext.one(), demo_code.ext.one()])


def test_rank_codeword_consistency_enforced(demo_code):
    ext = demo_code.ext
    with pytest.raises(CodeError):
        RankCodeword((ext.one(), ext.one()), MatGF.zeros(F2, 2, 2))


def test_rank_distance_examples(demo_code):
    cw1 = encode(demo_code, [demo_code.ext.one()])
    cw2 = encode(demo_code, [demo_code.ext.alpha()])
    assert rank_distance(cw1, cw1) == 0
    # difference [[1,0],[1,1]] has rank 2, confirming delta = 2
    assert (cw1.mat - cw2.mat).to_lists() == [[1, 0], [1, 1]]
    assert rank_distance(cw1, cw2) == 2
    assert rank_distance(cw1.mat, MatGF.zeros(F2, 2, 2)) == rank(cw1.mat)


def test_rank_distance_shape_check():
    with pytest.raises(CodeError):
        rank_distance(MatGF.zeros(F2, 2, 2), MatGF.zeros(F2, 2, 3))


def test_mrd_bound():
    assert mrd_bound(2, 2, 2) == 2
    assert mrd_bound(2, 3, 2) == 3  # min(2*2, 3*1)
    assert mrd_bound(3, 4, 1) == 12
    with pytest.raises(CodeError):
        mrd_bound(2, 3, 4)


def test_lift_examples(demo_code):
    ext = demo_code.ext
    zero_sub = lift(encode(demo_code, [ext.zero()]))
    assert zero_sub.basis.to_lists() == [[1, 0, 0, 0], [0, 1, 0, 0]]

    sub = lift(encode(demo_code, [ext.one()]))
    assert sub.basis.to_lists() == [[1, 0, 0, 1], [0, 1, 1, 0]]

    sub2 = lift(encode(demo_code, [ext.alpha() ** 2]))
    assert sub2.basis.to_lists() == [[1, 0, 1, 0], [0, 1, 1, 1]]


def test_subspace_distance_examples(demo_code, received_r2):
    ext = demo_code.ext
    lifted1 = lift(encode(demo_code, [ext.one()]))
    lifted2 = lift(encode(demo_code, [ext.alpha()]))
    assert subspace_distance(lifted1, lifted1) == 0
    assert stacked_rank_distance(lifted1, lifted2) == 4
    assert subspace_distance(lifted1, lifted2) == 4
    assert subspace_distance(received_r2, lifted1) == 2


def test_subspace_distance_dimension_check(demo_code):
    u = lift(encode(demo_code, [demo_code.ext.zero()]))
    other = Subspace(MatGF.from_rows(F2, [[1, 0, 0, 0]]))
    with pytest.raises(CodeError):
        subspace_distance(u, other)


def test_subspace_distance_symmetry_random():
    rng = random.Random(5)
    ctx = FieldCtx(3)
    for _ in range(50):
        u = random_subspace(ctx, 5, 2, rng)
        v = random_subspace(ctx, 5, 2, rng)
        d = subspace_distance(u, v)
        assert d == subspace_distance(v, u)
        assert d % 2 == 0
        assert (d == 0) == (u == v)


def test_enumerate_code_demo(demo_code):
    words = list(enumerate_code(demo_code))
    assert len(words) == 4
    vecs = [[str(x) for x in cw.vec] for cw in words]
    assert vecs == [
        ["0", "0"],
        ["alpha", "1"],
        ["alpha+1", "alpha"],
        ["1", "alpha+1"],
    ]


def test_enumerate_code_counts():
    assert len(list(enumerate_code(make_code(3, 4, 2, 2)))) == 9
    words = list(enumerate_code(make_code(2, 5, 2, 2)))
    assert len(words) == 8
    for a, b in itertools.combinations(words, 2):
        assert rank_distance(a, b) >= 2


def test_enumerate_code_cap(demo_code, monkeypatch):
    monkeypatch.setattr("plueckerdec.gabidulin.ENUMERATION_CAP", 3)
    with pytest.raises(CodeError, match="enumeration cap 3"):
        list(enumerate_code(demo_code))


@pytest.mark.parametrize("q,n,k,delta", [(2, 4, 2, 2), (3, 4, 2, 2), (2, 5, 2, 2), (2, 6, 3, 2), (2, 6, 3, 3), (5, 4, 2, 2)])
def test_mrd_attainment(q, n, k, delta):
    code = make_code(q, n, k, delta)
    words = list(enumerate_code(code))
    assert len(words) == code.size == q**code.rho
    assert code.rho == mrd_bound(k, code.ell, delta)
    assert len({cw.mat for cw in words}) == code.size
    # linearity makes the minimum distance the minimum nonzero rank
    nonzero_min = min(rank(cw.mat) for cw in words if any(cw.mat.entries))
    assert nonzero_min == delta
    if len(words) <= 32:
        pair_min = min(
            rank_distance(a, b) for a, b in itertools.combinations(words, 2)
        )
        assert pair_min == nonzero_min


@pytest.mark.parametrize("q,n,k,delta", [(2, 4, 2, 2), (3, 4, 2, 2), (2, 5, 2, 2), (2, 6, 3, 3)])
def test_lifted_code_parameters(q, n, k, delta):
    code = make_code(q, n, k, delta)
    subs = [lift(cw) for cw in enumerate_code(code)]
    assert len(set(subs)) == q ** ((n - k) * (k - delta + 1))
    dmin = min(
        subspace_distance(a, b) for a, b in itertools.combinations(subs, 2)
    )
    assert dmin == 2 * delta


def test_lifting_is_isometry(demo_code):
    words = list(enumerate_code(demo_code))
    for a, b in itertools.combinations(words, 2):
        assert subspace_distance(lift(a), lift(b)) == 2 * rank_distance(a, b)


def test_encode_injective():
    code = make_code(3, 4, 2, 2)
    seen = {}
    for msg in enumerate_messages(code):
        cw = encode(code, msg)
        assert cw.mat not in seen
        seen[cw.mat] = msg


def test_code_validation():
    with pytest.raises(CodeError):
        make_code(2, 4, 2, 1)  # delta < 2
    with pytest.raises(CodeError):
        make_code(2, 4, 2, 3)  # delta > k
    with pytest.raises(CodeError):
        make_code(2, 4, 3, 2)  # k > ell
    ext = ext_field(2, 2)
    with pytest.raises(CodeError):
        make_code(2, 4, 2, 2, g=[ext.one(), ext.one()])


def test_subspace_canonical():
    m = MatGF.from_rows(F2, [[0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 1]])
    sub = Subspace.from_matrix(m)
    assert sub.k == 2
    assert sub.basis.to_lists() == [[1, 0, 0, 1], [0, 1, 1, 0]]
    with pytest.raises(CodeError):
        Subspace(m)  # not an RREF full-rank basis


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2), (2, 5, 2), (2, 6, 3)])
def test_grassmannian_enumeration(q, n, k):
    ctx = FieldCtx(q)
    subs = list(enumerate_grassmannian(ctx, n, k))
    assert len(subs) == gaussian_binomial(n, k, q)
    assert len(set(subs)) == len(subs)


def test_zero_dimensional_bases_keep_n():
    ctx = FieldCtx(2)
    [zero] = enumerate_grassmannian(ctx, 4, 0)
    assert (zero.k, zero.n) == (0, 4)
    lifted = lift(MatGF(ctx, 0, 3, ()))
    assert (lifted.k, lifted.n) == (0, 3)
    assert [s.basis for s in enumerate_grassmannian(ctx, 3, 3)] == [MatGF.identity(ctx, 3)]


def test_random_subspace_deterministic():
    ctx = FieldCtx(3)
    a = random_subspace(ctx, 5, 2, random.Random(42))
    b = random_subspace(ctx, 5, 2, random.Random(42))
    assert a == b
    assert a.k == 2 and a.n == 5
