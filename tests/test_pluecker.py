import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plueckerdec.errors import GrassmannError
from plueckerdec.gf import FieldCtx
from plueckerdec.matgf import MatGF, minor, random_invertible, rank
from plueckerdec.gabidulin import (
    Subspace,
    encode,
    enumerate_grassmannian,
    lift,
    random_subspace,
    subspace_distance,
)
from plueckerdec.pluecker import (
    all_tuples,
    ball_equations,
    ball_forbidden_tuples,
    bruhat_leq,
    construction4,
    embed,
    equidistant_lift,
    normalize,
    phi_bar_columns,
    shuffle_relations,
    tau_count,
    tuple_rank,
    tuple_unrank,
)

F2 = FieldCtx(2)
F3 = FieldCtx(3)
F5 = FieldCtx(5)


# ---------------------------------------------------------------------------
# Tuples and Bruhat order
# ---------------------------------------------------------------------------

def test_tuple_rank_examples():
    assert tuple_rank((1, 2), 4, 2) == 0
    assert tuple_rank((1, 3), 4, 2) == 1
    assert tuple_rank((3, 4), 4, 2) == 5
    assert tuple_unrank(4, 4, 2) == (2, 4)
    # oracle: lex enumeration of all C(5,3) tuples
    assert list(all_tuples(5, 3)).index((2, 4, 5)) == 8
    assert tuple_rank((2, 4, 5), 5, 3) == 8


def test_tuple_validation():
    with pytest.raises(GrassmannError):
        tuple_rank((2, 1), 4, 2)
    with pytest.raises(GrassmannError):
        tuple_rank((1, 5), 4, 2)
    with pytest.raises(GrassmannError):
        tuple_unrank(6, 4, 2)


@given(st.integers(1, 9), st.data())
@settings(max_examples=80)
def test_tuple_rank_unrank_roundtrip(n, data):
    k = data.draw(st.integers(1, n))
    r = data.draw(st.integers(0, comb(n, k) - 1))
    t = tuple_unrank(r, n, k)
    assert tuple_rank(t, n, k) == r
    assert all_tuples(n, k)[r] == t


def test_bruhat_examples():
    assert bruhat_leq((1, 2, 7), (2, 3, 7))
    assert not bruhat_leq((2, 4, 6), (2, 3, 7))
    assert not bruhat_leq((2, 3, 7), (2, 4, 6))
    assert bruhat_leq((1, 3), (1, 3))
    with pytest.raises(GrassmannError):
        bruhat_leq((1, 2), (1, 2, 3))


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (7, 3)])
def test_bruhat_is_partial_order(n, k):
    tuples = all_tuples(n, k)
    for a in tuples:
        assert bruhat_leq(a, a)
    for a, b in itertools.combinations(tuples, 2):
        if bruhat_leq(a, b) and bruhat_leq(b, a):
            assert a == b
    for a, b, c in itertools.product(tuples, repeat=3):
        if bruhat_leq(a, b) and bruhat_leq(b, c):
            assert bruhat_leq(a, c)


# ---------------------------------------------------------------------------
# Embedding and normalization
# ---------------------------------------------------------------------------

def test_embed_demo_table(demo_code):
    ext = demo_code.ext
    u0 = lift(encode(demo_code, [ext.zero()]))
    assert str(embed(u0)) == "[1:0:0:0:0:0]"
    assert str(embed(lift(encode(demo_code, [ext.one()])))) == "[1:1:0:0:1:1]"
    assert str(embed(lift(encode(demo_code, [ext.alpha() ** 2])))) == "[1:1:1:1:0:1]"


def test_normalize_examples():
    v = normalize(F5, 3, 1, (2, 4, 0))
    assert v.coords == (1, 2, 0)
    assert normalize(F5, 3, 1, (1, 2, 0)).coords == (1, 2, 0)
    assert normalize(F5, 3, 1, (0, 0, 3)).coords == (0, 0, 1)
    with pytest.raises(GrassmannError):
        normalize(F5, 3, 1, (0, 0, 0))


def test_embed_basis_invariance():
    rng = random.Random(91)
    for q, n, k in [(2, 4, 2), (3, 4, 2), (5, 4, 2), (2, 5, 2)]:
        ctx = FieldCtx(q)
        for _ in range(200):
            sub = random_subspace(ctx, n, k, rng)
            p = random_invertible(ctx, k, rng)
            scrambled = p @ sub.basis
            raw = [
                minor(scrambled, tuple(range(1, k + 1)), t) for t in all_tuples(n, k)
            ]
            assert normalize(ctx, n, k, raw) == embed(sub)


# ---------------------------------------------------------------------------
# Shuffle relations
# ---------------------------------------------------------------------------

def test_shuffle_single_relation_g24():
    rels = shuffle_relations(4, 2)
    assert len(rels) == 1
    assert rels[0].terms == (
        ((1, 2), (3, 4), 1),
        ((1, 3), (2, 4), -1),
        ((1, 4), (2, 3), 1),
    )


def test_shuffle_counts():
    assert shuffle_relations(3, 2) == ()
    assert len(shuffle_relations(5, 2)) == 5
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert len(shuffle_relations(n, k)) == comb(n, 2 * k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shuffle_soundness_exhaustive_f2(n):
    for k in range(1, n + 1):
        rels = shuffle_relations(n, k)
        for sub in enumerate_grassmannian(F2, n, k):
            coords = embed(sub).coords
            for rel in rels:
                assert rel.evaluate(coords, 2) == 0


@pytest.mark.parametrize("q", [2, 3])
def test_shuffle_completeness_g24(q):
    ctx = FieldCtx(q)
    rel = shuffle_relations(4, 2)[0]
    embedded = {embed(sub).coords for sub in enumerate_grassmannian(ctx, 4, 2)}
    satisfying = set()
    for raw in itertools.product(range(q), repeat=6):
        if not any(raw):
            continue
        v = normalize(ctx, 4, 2, raw)
        if rel.evaluate(v.coords, q) == 0:
            satisfying.add(v.coords)
    assert satisfying == embedded


def test_shuffle_soundness_random_f3_f5():
    rng = random.Random(17)
    for q, n, k in [(3, 5, 2), (5, 4, 2), (3, 6, 3)]:
        ctx = FieldCtx(q)
        rels = shuffle_relations(n, k)
        for _ in range(100):
            coords = embed(random_subspace(ctx, n, k, rng)).coords
            for rel in rels:
                assert rel.evaluate(coords, q) == 0


# ---------------------------------------------------------------------------
# Balls
# ---------------------------------------------------------------------------

def oracle_forbidden(n, k, e):
    """Independent characterization: some entry among the first k-e exceeds k."""
    if e >= k:
        return set()
    return {t for t in all_tuples(n, k) if t[k - e - 1] > k}


def test_ball_forbidden_examples():
    assert ball_forbidden_tuples(4, 2, 1) == ((3, 4),)
    assert ball_forbidden_tuples(4, 2, 2) == ()
    assert set(ball_forbidden_tuples(6, 3, 1)) == oracle_forbidden(6, 3, 1)
    assert len(ball_forbidden_tuples(6, 3, 1)) == 10


def test_tau_count_examples():
    assert tau_count(4, 2, 1) == 1
    assert tau_count(7, 3, 3) == 0
    assert tau_count(6, 3, 1) == len(ball_forbidden_tuples(6, 3, 1))
    with pytest.raises(GrassmannError):
        tau_count(4, 2, 3)


def test_tau_count_identities():
    for n in range(1, 11):
        for k in range(1, n // 2 + 1):
            for e in range(k + 1):
                direct = tau_count(n, k, e)
                assert direct == len(ball_forbidden_tuples(n, k, e))
                assert direct == len(oracle_forbidden(n, k, e))
                complement = comb(n, k) - sum(
                    comb(n - k, k - l) * comb(k, l) for l in range(k - e, k + 1)
                )
                assert direct == complement


def test_construction4_identity():
    u0 = Subspace(MatGF.from_rows(F2, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    a, a_inv = construction4(u0)
    assert a == MatGF.identity(F2, 4)
    assert a_inv == MatGF.identity(F2, 4)


def test_construction4_worked_inverses(received_r1, received_r2):
    _, a1_inv = construction4(received_r1)
    assert a1_inv.to_lists() == [[1, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]]
    _, a2_inv = construction4(received_r2)
    assert a2_inv.to_lists() == [[1, 0, 0, 1], [0, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_construction4_random():
    rng = random.Random(3)
    for _ in range(1000):
        q = rng.choice([2, 3, 5])
        ctx = FieldCtx(q)
        n = rng.randrange(2, 7)
        k = rng.randrange(1, n)
        sub = random_subspace(ctx, n, k, rng)
        a, a_inv = construction4(sub)
        assert a @ a_inv == MatGF.identity(ctx, n)
        assert a.submatrix(range(k), range(n)) == sub.basis


def test_phi_bar_identity_columns():
    ident = MatGF.identity(F3, 4)
    cols = list(all_tuples(4, 2))
    full = phi_bar_columns(ident, cols)
    assert full == MatGF.identity(F3, 6)


def test_phi_bar_worked_columns(received_r1, received_r2):
    _, a1_inv = construction4(received_r1)
    col = phi_bar_columns(a1_inv, [(3, 4)])
    assert [col.at(i, 0) for i in range(6)] == [1, 0, 0, 1, 0, 0]
    _, a2_inv = construction4(received_r2)
    col = phi_bar_columns(a2_inv, [(3, 4)])
    assert [col.at(i, 0) for i in range(6)] == [1, 1, 0, 1, 1, 1]


def test_ball_equations_around_standard_space():
    u0 = Subspace(MatGF.from_rows(F2, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    forms = ball_equations(u0, 1)
    assert len(forms) == 1
    assert forms[0].coeffs == (0, 0, 0, 0, 0, 1)  # x34 = 0
    assert forms[0].rhs == 0
    assert ball_equations(u0, 2) == []


def test_ball_equations_worked(received_r1, received_r2):
    forms = ball_equations(received_r1, 1)
    assert [(f.coeffs, f.rhs) for f in forms] == [((1, 0, 0, 1, 0, 0), 0)]
    forms = ball_equations(received_r2, 1)
    assert [(f.coeffs, f.rhs) for f in forms] == [((1, 1, 0, 1, 1, 1), 0)]


@pytest.mark.parametrize("n", [4, 5])
def test_ball_equations_characterize_distance_exhaustive(n):
    k = 2
    subs = list(enumerate_grassmannian(F2, n, k))
    for r in subs:
        for e in range(0, k + 1):
            forms = ball_equations(r, e)
            assert len(forms) == tau_count(n, k, e)
            for v in subs:
                coords = embed(v).coords
                inside = all(f.holds(coords, 2) for f in forms)
                assert inside == (subspace_distance(v, r) <= 2 * e)


def test_ball_equations_radius_zero_pin_center():
    # e = 0 solutions within the Grassmannian are exactly the center
    for r in enumerate_grassmannian(F3, 4, 2):
        forms = ball_equations(r, 0)
        matches = [
            v
            for v in enumerate_grassmannian(F3, 4, 2)
            if all(f.holds(embed(v).coords, 3) for f in forms)
        ]
        assert matches == [r]


def test_lemma2_identity_small():
    rng = random.Random(29)
    for q, n, k in [(2, 4, 2), (3, 4, 2), (5, 4, 2), (2, 5, 2), (3, 5, 2), (5, 5, 2)]:
        ctx = FieldCtx(q)
        cols = list(all_tuples(n, k))
        for _ in range(100):
            sub = random_subspace(ctx, n, k, rng)
            a = random_invertible(ctx, n, rng)
            full = phi_bar_columns(a, cols)
            x = embed(sub).coords
            product = [
                sum(x[i] * full.at(i, j) for i in range(len(cols))) % q
                for j in range(len(cols))
            ]
            transformed = Subspace.from_matrix(sub.basis @ a)
            assert normalize(ctx, n, k, product) == embed(transformed)


def test_equidistant_lift_examples(demo_code, received_r1, received_r2):
    # receiving an already lifted space returns its right block
    b = MatGF.from_rows(F2, [[0, 1], [1, 0]])
    lifted = lift(b)
    a = MatGF.from_rows(F2, [[1, 1], [0, 1]])
    assert equidistant_lift(lifted, a) == b

    m = equidistant_lift(received_r1, MatGF.zeros(F2, 2, 2))
    u0 = lift(MatGF.zeros(F2, 2, 2))
    assert subspace_distance(received_r1, u0) == 2 * rank(m)

    cw = MatGF.from_rows(F2, [[0, 1], [1, 0]])
    m2 = equidistant_lift(received_r2, cw)
    assert subspace_distance(received_r2, lift(cw)) == 2 * rank(m2 - cw)


def test_equidistant_lift_random():
    rng = random.Random(77)
    for _ in range(300):
        q = rng.choice([2, 3])
        ctx = FieldCtx(q)
        k = rng.randrange(1, 4)
        ell = rng.randrange(k, 5)
        n = k + ell
        r = random_subspace(ctx, n, k, rng)
        from plueckerdec.matgf import random_matrix

        a = random_matrix(ctx, k, ell, rng)
        m = equidistant_lift(r, a)
        assert subspace_distance(r, lift(a)) == subspace_distance(lift(m), lift(a))
