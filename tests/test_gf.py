import itertools
import math

import pytest

from plueckerdec.errors import FieldError
from plueckerdec.gf import (
    ExtFieldCtx,
    FieldCtx,
    _is_prime,
    _poly_mod,
    default_modulus,
    ext_field,
    format_element,
    frobenius,
    is_irreducible,
    lin_independent_over_base,
    phi,
    phi_inv,
)


def test_prime_field_basics():
    f5 = FieldCtx(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.neg(2) == 3
    assert f5.inv(2) == 3
    assert f5.sub(1, 3) == 3


def test_prime_validation():
    with pytest.raises(FieldError):
        FieldCtx(4)
    with pytest.raises(FieldError):
        FieldCtx(1)


def test_is_prime_matches_trial_division():
    for n in range(20_000):
        assert _is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))), n


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
    3825123056546413051,  # strong pseudoprime to bases 2 to 23
    318665857834031151167461,  # psi_12: passes bases 2 to 37, caught by 41
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not _is_prime(n)


def test_field_size_bound():
    """psi_13 passes all 13 bases, so sizes from there on are refused."""
    assert FieldCtx(2**61 - 1).q == 2305843009213693951
    for n in (3317044064679887385961981, 3317044064679887385961981 + 2):
        with pytest.raises(FieldError, match="psi_13"):
            _is_prime(n)
        with pytest.raises(FieldError, match="psi_13"):
            FieldCtx(n)


def test_inverse_of_zero_fails():
    with pytest.raises(FieldError):
        FieldCtx(7).inv(0)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_prime_field_axioms_exhaustive(q):
    f = FieldCtx(q)
    for a in f.elements():
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in f.elements():
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)


def _irreducible_by_trial_division(p, q):
    """Reference: no monic divisor of degree 1 .. deg/2."""
    return all(
        _poly_mod(p, [*low, 1], q)
        for d in range(1, (len(p) - 1) // 2 + 1)
        for low in itertools.product(range(q), repeat=d)
    )


# The moduli table that shipped before the defaults were derived: none changes.
SHIPPED_MODULI = {
    (2, 1): (0, 1), (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1), (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 1): (0, 1), (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1), (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1), (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (5, 1): (0, 1), (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1), (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1), (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 7): (1, 1, 0, 0, 0, 0, 0, 1), (5, 8): (2, 0, 0, 0, 0, 0, 0, 0, 1),
}


def test_default_moduli_are_irreducible():
    """The first monic irreducible in counting order, lowest degree fastest."""
    for q, ell in [*SHIPPED_MODULI, (7, 2), (7, 3), (11, 2), (13, 3)]:
        monic = ((*low[::-1], 1) for low in itertools.product(range(q), repeat=ell))
        first = next(p for p in monic if _irreducible_by_trial_division(p, q))
        assert default_modulus(q, ell) == first == SHIPPED_MODULI.get((q, ell), first)
    assert default_modulus(2, 2) == (1, 1, 1)  # x^2+x+1
    assert default_modulus(2, 3) == (1, 1, 0, 1)  # x^3+x+1


@pytest.mark.parametrize("q", [2, 3, 5])
def test_rabin_agrees_with_trial_division(q):
    """Every monic polynomial of degree 1..4, reducible or not."""
    for ell in range(1, 5):
        for low in itertools.product(range(q), repeat=ell):
            p = (*low, 1)
            assert is_irreducible(p, q) == _irreducible_by_trial_division(p, q), p


def test_irreducibility_of_non_monic_and_constant_polynomials():
    assert not is_irreducible((1, 1, 2), 3)
    assert not is_irreducible((1, 0), 3)
    assert not is_irreducible((1,), 3)
    assert not is_irreducible((), 3)


def test_bad_modulus_rejected():
    with pytest.raises(FieldError):
        ExtFieldCtx(FieldCtx(2), 2, (1, 0, 1))  # (x+1)^2
    with pytest.raises(FieldError):
        ExtFieldCtx(FieldCtx(2), 2, (1, 1))  # wrong degree
    with pytest.raises(FieldError):
        ExtFieldCtx(FieldCtx(2), 2, (1, 1, 2))  # not reduced


def test_phi_examples(f4):
    alpha = f4.alpha()
    assert phi(alpha) == (0, 1)
    assert phi(f4.zero()) == (0, 0)
    # alpha^2 = alpha + 1 under x^2+x+1
    assert phi(alpha**2) == (1, 1)


def test_phi_roundtrip(f4):
    for e in f4.elements():
        assert phi_inv(f4, phi(e)) == e
    with pytest.raises(FieldError):
        phi_inv(f4, (1, 0, 0))


def test_phi_is_linear():
    ext = ext_field(3, 2)
    for a in ext.elements():
        for b in ext.elements():
            s = a + b
            assert phi(s) == tuple(
                (x + y) % 3 for x, y in zip(phi(a), phi(b))
            )


def test_frobenius_examples(f4):
    alpha = f4.alpha()
    # hand oracle: alpha^2 mod x^2+x+1 = alpha+1
    assert frobenius(alpha, 1) == f4.element([1, 1])
    for i in range(5):
        assert frobenius(f4.one(), i) == f4.one()
    for e in f4.elements():
        assert frobenius(e, f4.ell) == e
        assert frobenius(e, 0) == e


def test_frobenius_rejects_negative(f4):
    with pytest.raises(FieldError):
        frobenius(f4.alpha(), -1)


@pytest.mark.parametrize("q,ell", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 8)])
def test_frobenius_is_automorphism(q, ell):
    ext = ext_field(q, ell)
    assert ext.order <= 256
    elems = list(ext.elements())
    for a in elems:
        for b in elems:
            assert frobenius(a * b, 1) == frobenius(a, 1) * frobenius(b, 1)
            assert frobenius(a + b, 1) == frobenius(a, 1) + frobenius(b, 1)


@pytest.mark.parametrize("q,ell", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2)])
def test_multiplicative_group_cyclic(q, ell):
    ext = ext_field(q, ell)
    assert ext.order <= 64
    group_order = ext.order - 1
    # cyclic iff some element has full order; check via element orders
    orders = []
    for e in ext.elements():
        if e.is_zero():
            continue
        o = 1
        acc = e
        while acc != ext.one():
            acc = acc * e
            o += 1
        assert group_order % o == 0
        orders.append(o)
    assert max(orders) == group_order


@pytest.mark.parametrize("q,ell", [(2, 3), (3, 2), (5, 2), (2, 8), (5, 4)])
def test_field_axioms_extension(q, ell):
    ext = ext_field(q, ell)
    one = ext.one()
    for e in ext.elements():
        if not e.is_zero():
            assert e * e.inverse() == one
        assert e + ext.zero() == e
        assert e * one == e


def test_inverse_in_a_large_field():
    ext = ext_field(1_000_003, 2, (1, 0, 1))  # x^2 + 1: 1,000,003 is 3 mod 4
    e = ext.element([123_456, 654_321])
    assert e * e.inverse() == ext.one()
    assert e.inverse() ** -1 == e


def test_context_mixing_is_error():
    a = ext_field(2, 2).alpha()
    b = ext_field(2, 3).alpha()
    with pytest.raises(FieldError):
        a + b
    with pytest.raises(FieldError):
        a * b


def test_lin_independent_examples(f4):
    alpha = f4.alpha()
    assert lin_independent_over_base([f4.one(), alpha])
    assert not lin_independent_over_base([alpha, alpha])
    # phi images of 1, alpha, alpha^2 under x^3+x+1 form the identity
    ext8 = ext_field(2, 3)
    basis = [ext8.one(), ext8.alpha(), ext8.alpha() ** 2]
    assert [phi(b) for b in basis] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert lin_independent_over_base(basis)
    assert lin_independent_over_base([])
    assert not lin_independent_over_base([ext8.zero()])


def test_element_indexing():
    ext = ext_field(3, 2)
    seen = set()
    for i in range(ext.order):
        e = ext.element_at(i)
        assert ext.index(e) == i
        seen.add(e)
    assert len(seen) == 9
    with pytest.raises(FieldError):
        ext.element_at(9)


def test_serialization_roundtrip(f4):
    e = f4.element([1, 1])
    assert e.to_list() == [1, 1]
    assert f4.element(e.to_list()) == e
    assert format_element(e) == "alpha+1"
    assert format_element(f4.zero()) == "0"
    ext = ext_field(3, 3)
    assert format_element(ext.element([2, 0, 1])) == "alpha^2+2"


def test_user_modulus_override():
    # x^3 + x^2 + 1 is the other irreducible cubic over F_2
    ext = ext_field(2, 3, (1, 0, 1, 1))
    assert ext.modulus == (1, 0, 1, 1)
    a = ext.alpha()
    assert a**3 == ext.element([1, 0, 1])  # alpha^3 = alpha^2 + 1


def test_missing_default_modulus():
    with pytest.raises(FieldError, match="no default modulus"):
        ext_field(1_000_003, 2)
