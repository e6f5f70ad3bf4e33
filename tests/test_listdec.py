import itertools
import random
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plueckerdec.channel import ChannelConfig, corrupt
from plueckerdec.errors import DecodeError
from plueckerdec.gf import FieldCtx
from plueckerdec.matgf import MatGF, _pack_row, _slots, _unpack_row, minor, solve_affine
from plueckerdec.gabidulin import (
    Subspace,
    encode,
    enumerate_code,
    enumerate_grassmannian,
    enumerate_messages,
    lift,
    make_code,
    random_subspace,
    subspace_distance,
)
from plueckerdec.listdec import (
    DecodeEntry,
    _code_table,
    _entry_at,
    _form_check,
    _normalization,
    _projected_coset,
    _screen_at,
    _solver_layout,
    assemble_system,
    build_block_code,
    decode_list,
    extended_parity,
    pluecker_entry_formula,
    qualifying_tuples,
    system_report,
)
from plueckerdec.params import SMALL_PARAMETER_SETS
from plueckerdec.pluecker import LinearForm, ball_equations, embed, lifted_coordinates, tuple_rank

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


def _received(code, rng):
    """A uniform received space, or a codeword corrupted by t errors."""
    if rng.random() < 0.5:
        return random_subspace(code.ext.base, code.n, code.k, rng)
    return _corrupted(code, rng)


def _corrupted(code, rng):
    """A random codeword corrupted by t errors, t uniform in 0..k."""
    msg = [code.ext.element_at(rng.randrange(code.ext.order)) for _ in range(code.msg_len)]
    t = rng.randrange(code.k + 1)
    return corrupt(lift(encode(code, msg)), ChannelConfig(seed=rng.randrange(2**32), t=t))


def _assert_paper_equals_oracle(code, r):
    for e in range(code.k + 1):
        oracle = decode_list(code, r, e, "oracle").entries
        paper = decode_list(code, r, e, "paper").entries
        assert [en.message for en in paper] == [en.message for en in oracle]


@given(
    st.sampled_from([(5, 4, 2, 2), (5, 5, 2, 2), (5, 6, 3, 3), (2, 7, 3, 2), (2, 7, 3, 3), (3, 7, 3, 3)]),
    st.integers(0, 2**32),
)
@settings(max_examples=150)
def test_paper_equals_oracle_off_sweep(params, seed):
    """Sets outside the exhaustive sweep: the shipped q = 5 sets, (5,6,3,3)
    with 20 coordinates, and three n = 7 sets with 35 coordinates."""
    code = make_code(*params)
    _assert_paper_equals_oracle(code, _received(code, random.Random(seed)))


@pytest.mark.parametrize("q,modulus", [(7, (1, 0, 1)), (13, (11, 0, 1)), (37, (35, 0, 1))])
def test_paper_equals_oracle_larger_q(q, modulus):
    """From q = 13 a packed slot takes two bytes, and past q = 36 the
    digits have no single-character form."""
    code = make_code(q, 4, 2, 2, modulus)
    rng = random.Random(q)
    for _ in range(6):
        _assert_paper_equals_oracle(code, _received(code, rng))


def _solve_affine_coset(code, forms):
    """Reference for `_projected_coset`: the MatGF system of `forms` over
    [non-qualifying coordinates | digits], solved by `solve_affine`, its
    particular solution and kernel vectors projected onto the digits."""
    q, (cut, images) = code.q, _solver_layout(code)
    width = cut + code.rho
    cols = [_unpack_row(im, width, q, len(images) - cut) for im in images]
    rows = [[sum(c * col[j] for c, col in zip(f.coeffs, cols)) for j in range(width)] for f in forms]
    solved = solve_affine(MatGF.from_rows(code.ext.base, rows), [f.rhs for f in forms])
    if solved is None:
        return None
    particular, kernel = solved
    shift = 8 * _slots(q)[0] * cut
    return _pack_row(particular[cut:], q), [v >> shift for v in kernel.packed if v >> shift]


FRONT_END_SETS = [
    (2, 6, 3, 2), (3, 6, 3, 2), (2, 7, 3, 2), (5, 5, 2, 2), (5, 6, 3, 3),
    (7, 6, 3, 3), (11, 4, 2, 2), (13, 4, 2, 2),
]


@given(st.sampled_from(FRONT_END_SETS), st.sampled_from(["uniform", "lifted"]), st.integers(0, 2**32))
@settings(max_examples=80)
def test_projected_coset_is_the_solve_affine_projection(params, kind, seed):
    """`paper`'s packed front end (one echelon, then the RREF of the rows
    that pivot on a digit) gives the base and steps that projecting the
    whole `solve_affine` solution gives, at every e, on uniform spaces and
    on lifted codewords; and `paper` lists what `oracle` lists.  At (7,6,3,3)
    and (11,4,2,2) the solver images take two-byte slots and the rows one,
    and at (13,4,2,2) both take two."""
    code = make_code(*params)
    rng = random.Random(seed)
    if kind == "uniform":
        r = random_subspace(code.ext.base, code.n, code.k, rng)
    else:
        msg = [code.ext.element_at(rng.randrange(code.ext.order)) for _ in range(code.msg_len)]
        r = lift(encode(code, msg))
    for e in range(code.k + 1):
        forms = [_normalization(comb(code.n, code.k)), *ball_equations(r, e)]
        assert _projected_coset(code, forms) == _solve_affine_coset(code, forms)
    _assert_paper_equals_oracle(code, r)


def _singular_left(code, rng):
    """A received space whose RREF pivots skip one of the columns 1..k, so
    its left k x k block is singular."""
    skip = rng.randrange(code.k)
    while True:
        rows = [
            [0 if j == skip else rng.randrange(code.q) for j in range(code.n)]
            for _ in range(code.k)
        ]
        r = Subspace.from_matrix(MatGF.from_rows(code.ext.base, rows))
        if r.k == code.k:
            return r


ORACLE_SETS = [(ps.q, ps.n, ps.k, ps.delta, None) for ps in SMALL_PARAMETER_SETS] + [
    (5, 6, 3, 3, None), (2, 7, 3, 2, None), (3, 7, 3, 3, None),
    (7, 4, 2, 2, (1, 0, 1)), (13, 4, 2, 2, (11, 0, 1)), (37, 4, 2, 2, (35, 0, 1)),
]


@given(st.sampled_from(ORACLE_SETS), st.sampled_from(["received", "singular"]), st.integers(0, 2**32))
@settings(max_examples=120)
def test_oracle_is_the_distance_definition(params, kind, seed):
    """`oracle` walks rank(R_R - R_L A) over the code; its list must be the
    literal definition, every codeword of the table within subspace distance
    2e, at every e.  The received spaces are uniform, channel-corrupted, or
    forced to a singular left block, and q = 13 and 37 take two-byte slots."""
    code = make_code(*params)
    rng = random.Random(seed)
    r = _received(code, rng) if kind == "received" else _singular_left(code, rng)
    table = _code_table(code)
    dist = [subspace_distance(en.subspace, r) for en in table]
    for e in range(code.k + 1):
        want = [en for en, d in zip(table, dist) if d <= 2 * e]
        assert list(decode_list(code, r, e, "oracle").entries) == want


def test_form_check_extreme_slots():
    """At (5,6,3,3) a dot product of 20 coordinates reaches 20 * 4^2 = 320,
    more than a byte; the check must size its slots for it."""
    q, nvars = 5, 20
    check = _form_check([LinearForm((q - 1,) * nvars, 0)] * 3, nvars, q)
    assert check(_pack_row([q - 1] * nvars, q, nvars))  # 320 = 0 mod 5
    forms = [LinearForm((q - 1,) * nvars, 0), LinearForm((q - 1,) * nvars, 1)]
    assert not _form_check(forms, nvars, q)(_pack_row([q - 1] * nvars, q, nvars))
    assert _form_check([], nvars, q)(_pack_row([q - 1] * nvars, q, nvars))
    rng = random.Random(5)
    for _ in range(200):
        x = [rng.randrange(q) for _ in range(nvars)]
        forms = [
            LinearForm(tuple(rng.randrange(q) for _ in range(nvars)), rng.randrange(q))
            for _ in range(rng.randrange(4))
        ]
        expected = all(f.holds(x, q) for f in forms)
        assert _form_check(forms, nvars, q)(_pack_row(x, q, nvars)) == expected
    # many forms in wide slots: two and three bytes per slot over C(8, 4) and
    # C(7, 3) coordinates; every form holds, or all but one
    for q, nvars in [(3, 70), (13, 35), (37, 70)]:
        for trial in range(40):
            x = [rng.randrange(q) for _ in range(nvars)]
            coeffs = [tuple(rng.randrange(q) for _ in range(nvars)) for _ in range(25)]
            rhs = [sum(c * v for c, v in zip(f, x)) for f in coeffs]
            if trial % 2:
                rhs[rng.randrange(len(rhs))] += rng.randrange(1, q)
            forms = [LinearForm(f, b % q) for f, b in zip(coeffs, rhs)]
            expected = all(f.holds(x, q) for f in forms)
            assert expected == (trial % 2 == 0)
            assert _form_check(forms, nvars, q)(_pack_row(x, q, nvars)) == expected


@pytest.mark.parametrize("ps", SMALL_PARAMETER_SETS, ids=lambda ps: ps.label())
def test_every_list_satisfies_the_whole_system(ps):
    """`paper` checks only the ball forms, and no strategy reads the parity
    forms or the shuffle relations; every entry of every strategy must still
    satisfy every linear form and every shuffle relation of the assembled
    system."""
    code = ps.build()
    rng = random.Random(ps.label())
    q = code.q
    for _ in range(3):
        r = _received(code, rng)
        for e in range(code.k + 1):
            system = assemble_system(code, r, e)
            for strategy in ("paper", "reduced", "oracle"):
                for entry in decode_list(code, r, e, strategy).entries:
                    x = entry.pluecker.coords
                    assert all(f.holds(x, q) for f in system.linear)
                    assert all(rel.evaluate(x, q) == 0 for rel in system.quadratic)


@pytest.mark.parametrize("ps", SMALL_PARAMETER_SETS, ids=lambda ps: ps.label())
def test_paper_walks_the_projected_coset(ps):
    """`paper` walks exactly the codewords whose qualifying coordinates
    extend to a solution of the linear system, and reports an infeasible
    system exactly when there is none.  The lists alone do not pin this: a
    decode that walks a larger coset still keeps the same list."""
    code = ps.build()
    n, k = code.n, code.k
    block = [tuple_rank(t, n, k) for t in qualifying_tuples(n, k)]
    others = sorted(set(range(comb(n, k))) - set(block))
    rng = random.Random(ps.label())
    uniform = random_subspace(code.ext.base, n, k, rng)
    for r in (uniform, _corrupted(code, rng), _corrupted(code, rng)):
        for e in range(k + 1):
            linear = assemble_system(code, r, e).linear
            lhs = MatGF.from_rows(code.ext.base, [[f.coeffs[i] for i in others] for f in linear])
            coset = sum(
                solve_affine(lhs, [f.rhs - sum(f.coeffs[j] * x[j] for j in block) for f in linear])
                is not None
                for x in (entry.pluecker.coords for entry in _code_table(code))
            )
            stats = decode_list(code, r, e).stats
            assert stats["candidates_enumerated"] == coset
            assert (stats["solver_path"] == "infeasible") == (coset == 0)


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


@pytest.mark.parametrize("code_q,space_q", [(2, 3), (5, 2)])
def test_decode_rejects_another_prime_field(code_q, space_q):
    """A received space over another prime field is an error from every
    strategy and from `system_report`; `paper` and `reduced` once listed
    codewords for it, as if its entries were residues mod the code's q."""
    code = make_code(code_q, 4, 2, 2)
    r = random_subspace(FieldCtx(space_q), 4, 2, random.Random(space_q))
    for e in range(code.k + 1):
        for strategy in ("paper", "reduced", "oracle"):
            with pytest.raises(DecodeError, match=f"F_{space_q}"):
                decode_list(code, r, e, strategy)
        with pytest.raises(DecodeError, match=f"F_{space_q}"):
            system_report(code, r, e)


def test_decode_rejects_bad_radius_and_strategy(demo_code, received_r1):
    with pytest.raises(DecodeError):
        decode_list(demo_code, received_r1, 3)
    with pytest.raises(DecodeError):
        decode_list(demo_code, received_r1, -1)
    with pytest.raises(DecodeError):
        decode_list(demo_code, received_r1, 1, "magic")


@pytest.mark.parametrize(
    "strategy,site",
    [("paper", "candidate assignments"), ("reduced", "code size"), ("oracle", "code size")],
    ids=["paper", "reduced", "oracle"],
)
def test_decode_cap_exceeded(demo_code, received_r1, monkeypatch, strategy, site):
    """`paper` caps the points it walks (2 here), the others the code size (4)."""
    monkeypatch.setattr("plueckerdec.listdec.ENUMERATION_CAP", 1)
    with pytest.raises(DecodeError, match=f"{site}.* exceeds? the enumeration cap 1$"):
        decode_list(demo_code, received_r1, 1, strategy)


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


@pytest.mark.parametrize("ps", SMALL_PARAMETER_SETS, ids=lambda ps: ps.label())
def test_paper_at_radius_k_is_the_code_table(ps):
    # at e = k `paper` walks its whole coset, the code, in the table's order
    code = ps.build()
    r = random_subspace(code.ext.base, code.n, code.k, random.Random(ps.label()))
    result = decode_list(code, r, code.k)
    assert result.stats["candidates_enumerated"] == code.size
    assert result.entries == _code_table(code)


@lru_cache(maxsize=None)
def _definitional_table(code):
    """encode, lift and embed for every message of `enumerate_messages`, in
    its order: the construction that `_code_table` must reproduce."""
    table = []
    for msg in enumerate_messages(code):
        cw = encode(code, msg)
        sub = lift(cw)
        table.append(DecodeEntry(msg, cw, sub, embed(sub)))
    return tuple(table)


def _label(params):
    return "q{}_n{}_k{}_d{}".format(*params)


@pytest.mark.parametrize("params", [(5, 5, 2, 2), (3, 6, 3, 2), (2, 8, 4, 2)], ids=_label)
def test_screen_packs_the_embedding_of_every_codeword(params):
    """The screen's packed vector, read off the minors of A = E x by the
    lifted coordinate table, against `embed` of the `encode`-built lifting;
    at (2,8,4,2) the table reaches 4 x 4 minors."""
    code = make_code(*params)
    q, rho = code.q, code.rho
    for index, entry in enumerate(_definitional_table(code)):
        digits = _pack_row([index // q**s % q for s in range(rho)], q)
        assert _screen_at(code, digits) == entry.pluecker.packed


def _assert_table_is_definitional(code):
    table, want = _code_table(code), _definitional_table(code)
    assert table == want
    assert [en.pluecker.packed for en in table] == [en.pluecker.packed for en in want]


@pytest.mark.parametrize(
    "params",
    [(ps.q, ps.n, ps.k, ps.delta) for ps in SMALL_PARAMETER_SETS] + [(2, 8, 4, 2), (3, 7, 3, 2)],
    ids=_label,
)
def test_code_table_is_the_definitional_construction(params):
    """The table `reduced` and `oracle` filter and `plueckerdec code` prints,
    walked from 0 by the unit digits and built from the minors of A, is the
    encode -> lift -> embed construction entry for entry and in message
    order, with the packed coordinates `reduced` checks."""
    _assert_table_is_definitional(make_code(*params))


def test_example8_code_table_is_the_definitional_construction(demo_code):
    _assert_table_is_definitional(demo_code)


def test_paper_builds_entries_only_for_the_list():
    """A cold decode screens every walked candidate and builds an entry
    for each listed one only; at e = k the screen has no forms to check."""
    code = make_code(3, 6, 3, 2)
    rng = random.Random(11)
    for r in (random_subspace(code.ext.base, code.n, code.k, rng), _corrupted(code, rng)):
        for e in range(code.k + 1):
            _screen_at.cache_clear()
            _entry_at.cache_clear()
            result = decode_list(code, r, e)
            assert _entry_at.cache_info().misses == len(result.entries)
            if e == 1:
                assert _screen_at.cache_info().misses == result.stats["candidates_enumerated"]


def test_paper_reads_each_candidates_minors_once(monkeypatch):
    """`_screen_at` is the only place a candidate's coordinates come from:
    on a warm code, a cold decode reads the minors once per screened
    candidate, listed ones included, and at e = k once per listed one."""
    code = make_code(3, 6, 3, 2)
    rng = random.Random(23)
    received = [random_subspace(code.ext.base, code.n, code.k, rng), _corrupted(code, rng)]
    decode_list(code, received[0], 1)  # builds the block code and solver layout
    reads = []

    def counted(*args):
        reads.append(args)
        return lifted_coordinates(*args)

    monkeypatch.setattr("plueckerdec.listdec.lifted_coordinates", counted)
    for r in received:
        for e in range(code.k + 1):
            _screen_at.cache_clear()
            _entry_at.cache_clear()
            reads.clear()
            result = decode_list(code, r, e)
            assert len(reads) == _screen_at.cache_info().misses
            assert len(reads) >= len(result.entries)
