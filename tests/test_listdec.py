import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plueckerdec.channel import ChannelConfig, corrupt
from plueckerdec.errors import DecodeError
from plueckerdec.gf import FieldCtx
from plueckerdec.matgf import MatGF, minor
from plueckerdec.gabidulin import (
    Subspace,
    encode,
    enumerate_code,
    enumerate_grassmannian,
    lift,
    make_code,
    random_subspace,
    subspace_distance,
)
from plueckerdec.listdec import (
    build_block_code,
    decode_list,
    extended_parity,
    pluecker_entry_formula,
    qualifying_tuples,
    system_report,
)
from plueckerdec.pluecker import embed, tuple_rank

F2 = FieldCtx(2)


def test_qualifying_tuples_order():
    assert qualifying_tuples(4, 2) == ((1, 3), (1, 4), (2, 3), (2, 4))
    assert len(qualifying_tuples(6, 3)) == 9
    for t in qualifying_tuples(6, 3):
        assert sum(1 for x in t if x <= 3) == 2


def test_entry_formula_demo_values():
    a = MatGF.from_rows(F2, [[0, 1], [1, 0]])
    assert pluecker_entry_formula((1, 3), a) == 1
    assert pluecker_entry_formula((1, 4), a) == 0
    assert pluecker_entry_formula((2, 3), a) == 0
    assert pluecker_entry_formula((2, 4), a) == 1
    zero = MatGF.zeros(F2, 2, 2)
    for t in qualifying_tuples(4, 2):
        assert pluecker_entry_formula(t, zero) == 0


def test_entry_formula_rejects_bad_tuple():
    a = MatGF.zeros(F2, 2, 2)
    with pytest.raises(DecodeError):
        pluecker_entry_formula((1, 2), a)
    with pytest.raises(DecodeError):
        pluecker_entry_formula((3, 4), a)
    with pytest.raises(DecodeError):
        pluecker_entry_formula((1, 5), a)


@pytest.mark.parametrize("q,n,k,delta", [(2, 4, 2, 2), (3, 4, 2, 2), (5, 4, 2, 2), (3, 6, 3, 2)])
def test_entry_formula_equals_minor(q, n, k, delta):
    """Sign exercise: the formula must match the defining minor for every
    codeword and every qualifying tuple."""
    code = make_code(q, n, k, delta)
    rows = tuple(range(1, k + 1))
    for cw in enumerate_code(code):
        basis = lift(cw).basis
        for t in qualifying_tuples(n, k):
            assert pluecker_entry_formula(t, cw.mat) == minor(basis, rows, t)


def test_block_code_demo(demo_code):
    bc = build_block_code(demo_code)
    assert bc.positions == ((1, 3), (1, 4), (2, 3), (2, 4))
    rowspace = set()
    q = 2
    for c0 in range(q):
        for c1 in range(q):
            vec = tuple(
                (c0 * a + c1 * b) % q
                for a, b in zip(bc.Gp.row_list(0), bc.Gp.row_list(1))
            )
            rowspace.add(vec)
    assert rowspace == {(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)}
    assert bc.Hp.to_lists() == [[1, 0, 1, 1], [0, 1, 1, 0]]
    assert all(x == 0 for x in (bc.Gp @ bc.Hp.transpose()).entries)


def test_block_code_delta_equals_k():
    code = make_code(2, 4, 2, 2)  # delta = k = ell
    bc = build_block_code(code)
    assert bc.Gp.rows == code.ell
    weights = [sum(1 for x in cw if x) for cw in _block_codewords(bc)]
    assert min(w for w in weights if w) >= code.delta


def _block_codewords(bc):
    q = bc.code.q
    rows = [bc.Gp.row_list(i) for i in range(bc.Gp.rows)]
    out = []
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        vec = [0] * bc.Gp.cols
        for c, row in zip(coeffs, rows):
            if c:
                vec = [(v + c * x) % q for v, x in zip(vec, row)]
        out.append(tuple(vec))
    return out


def test_block_code_parameters_derived():
    code = make_code(2, 5, 2, 2)
    bc = build_block_code(code)
    assert bc.Gp.cols == code.k * (code.n - code.k) == 6
    assert bc.Gp.rows == code.rho == 3
    words = set(_block_codewords(bc))
    assert len(words) == 8
    assert min(sum(1 for x in w if x) for w in words if any(w)) >= 2


def test_extended_parity_demo(demo_code):
    bc = build_block_code(demo_code)
    forms = extended_parity(bc)
    assert len(forms) == (demo_code.delta - 1) * (demo_code.n - demo_code.k)
    # zero coefficients at x12 and x34
    for f in forms:
        assert f.coeffs[0] == 0
        assert f.coeffs[5] == 0
        assert f.rhs == 0
    # the full table satisfies both forms; [1:0:0:0:0:0] trivially
    for cw in enumerate_code(demo_code):
        coords = embed(lift(cw)).coords
        for f in forms:
            assert f.holds(coords, 2)


def test_extended_parity_scatters_non_contiguous_positions():
    code = make_code(2, 6, 3, 2)
    bc = build_block_code(code)
    spots = {tuple_rank(p, 6, 3) for p in bc.positions}
    forms = extended_parity(bc)
    for f in forms:
        for j, c in enumerate(f.coeffs):
            if j not in spots:
                assert c == 0
    for cw in enumerate_code(code):
        coords = embed(lift(cw)).coords
        assert all(f.holds(coords, 2) for f in forms)


def test_system_report_counts(demo_code, received_r1):
    system, stats = system_report(demo_code, received_r1, 1)
    assert stats == {"linear_eqs": 4, "quadratic_eqs": 1, "vars": 6}
    system, stats = system_report(demo_code, received_r1, 2)
    assert stats["linear_eqs"] == 1 + (demo_code.delta - 1) * 2

    big = make_code(2, 6, 2, 2)
    r = lift(encode(big, [big.ext.zero()]))
    _, stats = system_report(big, r, 1)
    assert stats["vars"] == comb(6, 2) == 15
    assert stats["quadratic_eqs"] == comb(6, 4) == 15


def test_decode_r1(demo_code, received_r1):
    result = decode_list(demo_code, received_r1, 1)
    assert len(result.entries) == 2
    prefixes = {entry.pluecker.coords[:5] for entry in result.entries}
    assert prefixes == {(1, 1, 1, 1, 0), (1, 0, 1, 1, 1)}
    ext = demo_code.ext
    expected = {lift(encode(demo_code, [ext.alpha()])), lift(encode(demo_code, [ext.alpha() ** 2]))}
    assert result.subspaces() == expected


def test_decode_r2(demo_code, received_r2):
    result = decode_list(demo_code, received_r2, 1)
    assert len(result.entries) == 3
    patterns = [
        tuple(entry.pluecker.at(t) for t in qualifying_tuples(4, 2))
        for entry in result.entries
    ]
    assert patterns == [(1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)]


def test_decode_radius_zero(demo_code):
    for cw in enumerate_code(demo_code):
        sent = lift(cw)
        result = decode_list(demo_code, sent, 0)
        assert result.subspaces() == {sent}


def test_decode_monotone_in_radius(demo_code):
    rng = random.Random(13)
    for _ in range(10):
        r = random_subspace(F2, 4, 2, rng)
        previous = set()
        for e in range(0, 3):
            current = decode_list(demo_code, r, e).subspaces()
            assert previous <= current
            previous = current


def test_normalized_first_coordinate_is_one():
    for q, n, k, delta in [(2, 4, 2, 2), (3, 4, 2, 2), (2, 5, 2, 2)]:
        code = make_code(q, n, k, delta)
        first = tuple_rank(tuple(range(1, k + 1)), n, k)
        for cw in enumerate_code(code):
            assert embed(lift(cw)).coords[first] == 1


def test_strategies_agree_and_are_sorted(demo_code):
    for r in enumerate_grassmannian(F2, 4, 2):
        for e in range(0, 3):
            results = {
                strat: decode_list(demo_code, r, e, strat)
                for strat in ("paper", "reduced", "oracle")
            }
            lists = {
                strat: [entry.subspace for entry in res.entries]
                for strat, res in results.items()
            }
            assert lists["paper"] == lists["reduced"] == lists["oracle"]


def test_strategies_agree_random_sample():
    rng = random.Random(99)
    code = make_code(3, 5, 2, 2)
    for _ in range(15):
        r = random_subspace(FieldCtx(3), 5, 2, rng)
        for e in (1, 2):
            outs = [
                [en.subspace for en in decode_list(code, r, e, s).entries]
                for s in ("paper", "reduced", "oracle")
            ]
            assert outs[0] == outs[1] == outs[2]


def test_strategies_agree_q5_both_solver_paths():
    """Nontrivial signs: the solved coordinates carry (-1)^(k-s) factors.

    The draws reach both outcomes of the solver, a projected coset and an
    infeasible system."""
    rng = random.Random(55)
    for n in (4, 5):
        code = make_code(5, n, 2, 2)
        paths = set()
        for _ in range(10):
            r = random_subspace(FieldCtx(5), n, 2, rng)
            for e in (0, 1, 2):
                oracle = [en.subspace for en in decode_list(code, r, e, "oracle").entries]
                paper = decode_list(code, r, e, "paper")
                assert [en.subspace for en in paper.entries] == oracle
                paths.add(paper.stats["solver_path"])
        assert paths == {"projected", "infeasible"}


@given(st.sampled_from([(4, 2, 2), (5, 2, 2), (6, 3, 3)]), st.integers(0, 2**32))
@settings(max_examples=150)
def test_paper_equals_oracle_q5(params, seed):
    """q = 5 sets outside the exhaustive sweep; (6, 3, 3) is in no shipped
    set.  Received spaces are uniform, or a codeword corrupted by t errors."""
    code = make_code(5, *params)
    rng = random.Random(seed)
    k = code.k
    if rng.random() < 0.5:
        r = random_subspace(code.ext.base, code.n, k, rng)
    else:
        msg = [code.ext.element_at(rng.randrange(code.ext.order)) for _ in range(code.msg_len)]
        t = rng.randrange(k + 1)
        r = corrupt(lift(encode(code, msg)), ChannelConfig(seed=rng.randrange(2**32), t=t))
    for e in range(k + 1):
        oracle = decode_list(code, r, e, "oracle").entries
        paper = decode_list(code, r, e, "paper").entries
        assert [en.message for en in paper] == [en.message for en in oracle]


def test_decoder_completeness_equivalence(demo_code):
    """Membership in the list is exactly ball membership."""
    table = {lift(cw): cw for cw in enumerate_code(demo_code)}
    for r in enumerate_grassmannian(F2, 4, 2):
        for e in range(0, 3):
            got = decode_list(demo_code, r, e).subspaces()
            expected = {
                sub for sub in table if subspace_distance(sub, r) <= 2 * e
            }
            assert got == expected


def test_decode_rejects_wrong_dimension(demo_code):
    r = Subspace(MatGF.from_rows(F2, [[1, 0, 0, 0]]))
    with pytest.raises(DecodeError):
        decode_list(demo_code, r, 1)
    tall = Subspace(MatGF.from_rows(F2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]))
    with pytest.raises(DecodeError):
        decode_list(demo_code, tall, 1)


def test_decode_rejects_bad_radius_and_strategy(demo_code, received_r1):
    with pytest.raises(DecodeError):
        decode_list(demo_code, received_r1, 3)
    with pytest.raises(DecodeError):
        decode_list(demo_code, received_r1, -1)
    with pytest.raises(DecodeError):
        decode_list(demo_code, received_r1, 1, "magic")


def test_decode_cap_exceeded(demo_code, received_r1):
    with pytest.raises(DecodeError):
        decode_list(demo_code, received_r1, 1, enumeration_cap=1)


def test_infeasible_system_returns_empty():
    code = make_code(2, 4, 2, 2)
    # rank-1 right block cannot occur in a rank-distance-2 code, so the
    # radius-0 ball holds no codeword
    r = Subspace(MatGF.from_rows(F2, [[1, 0, 1, 0], [0, 1, 0, 0]]))
    result = decode_list(code, r, 0)
    assert result.entries == ()
    assert result.stats["solver_path"] == "infeasible"
    # pivots not in the first k columns force x_{1..k} = 0, clashing with
    # the normalization equation
    r2 = Subspace(MatGF.from_rows(F2, [[1, 0, 0, 0], [0, 0, 1, 0]]))
    result2 = decode_list(code, r2, 0)
    assert result2.entries == ()


def test_entries_sorted_by_message(demo_code, received_r2):
    result = decode_list(demo_code, received_r2, 2)
    keys = [
        tuple(demo_code.ext.index(m) for m in entry.message)
        for entry in result.entries
    ]
    assert keys == sorted(keys)
    assert len(result.entries) == demo_code.size  # radius k covers everything
