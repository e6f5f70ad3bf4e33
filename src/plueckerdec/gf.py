"""Prime fields F_q and polynomial-basis extension fields F_{q^l}.

Elements of F_q are plain ints in [0, q).  Elements of F_{q^l} are
coefficient vectors over F_q in the basis 1, alpha, ..., alpha^(l-1),
where alpha is a root of a monic irreducible modulus polynomial p(x) of
degree l.  Polynomials are stored as coefficient tuples, lowest degree
first: x^2 + x + 1 <-> (1, 1, 1).

The coordinate map between F_{q^l} and F_q^l is `phi` / `phi_inv`;
`frobenius` raises elements to q-th powers.  A built-in table of default
moduli covers q in {2, 3, 5} up to degree 8; user-supplied moduli
override it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import FieldError

# Smallest monic irreducible polynomial of each degree, in counting order
# of the coefficient vector.  (2, 2) is x^2 + x + 1.
DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (5, 8): (2, 0, 0, 0, 0, 0, 0, 0, 1),
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldCtx:
    """Arithmetic context for the prime field F_q."""

    q: int

    def __post_init__(self) -> None:
        if not _is_prime(self.q):
            raise FieldError(f"field size must be prime, got {self.q}")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def neg(self, a: int) -> int:
        return -a % self.q

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise FieldError("inverse of zero")
        return pow(a, self.q - 2, self.q)

    def elements(self) -> range:
        return range(self.q)


# ---------------------------------------------------------------------------
# Polynomial helpers over F_q (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------

def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return out


def _poly_mod(a: Sequence[int], m: Sequence[int], q: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m."""
    r = list(a)
    dm = len(m) - 1
    while True:
        _poly_trim(r)
        if len(r) - 1 < dm or not r:
            return r
        c = r[-1]
        shift = len(r) - 1 - dm
        for i, mi in enumerate(m):
            r[shift + i] = (r[shift + i] - c * mi) % q


def _poly_ext_gcd(
    a: Sequence[int], b: Sequence[int], q: int
) -> tuple[list[int], list[int]]:
    """Return (g, s) with g = gcd(a, b) monic and s*a = g mod b."""
    inv = lambda x: pow(x, q - 2, q)
    r0, r1 = _poly_trim(list(a)), _poly_trim(list(b))
    s0, s1 = [1], []
    while r1:
        # long division r0 = qt * r1 + rem
        rem = list(r0)
        qt = [0] * max(len(rem) - len(r1) + 1, 1)
        lead_inv = inv(r1[-1])
        while len(rem) >= len(r1) and rem:
            c = (rem[-1] * lead_inv) % q
            shift = len(rem) - len(r1)
            qt[shift] = c
            for i, ri in enumerate(r1):
                rem[shift + i] = (rem[shift + i] - c * ri) % q
            _poly_trim(rem)
        r0, r1 = r1, rem
        qs = _poly_mul(qt, s1, q)
        new_s = [( (s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0) ) % q
                 for i in range(max(len(s0), len(qs), 1))]
        s0, s1 = s1, _poly_trim(new_s)
    # make gcd monic
    if r0:
        c = inv(r0[-1])
        r0 = [(x * c) % q for x in r0]
        s0 = [(x * c) % q for x in s0]
    return r0, s0


def is_irreducible(coeffs: Sequence[int], q: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    p = [c % q for c in coeffs]
    if not p or p[-1] % q != 1:
        return False
    ell = len(p) - 1
    if ell < 1:
        return False
    if ell == 1:
        return True
    if p[0] == 0:
        return False
    for d in range(1, ell // 2 + 1):
        for idx in range(q**d):
            cand = []
            t = idx
            for _ in range(d):
                cand.append(t % q)
                t //= q
            cand.append(1)
            if not _poly_mod(p, cand, q):
                return False
    return True


# ---------------------------------------------------------------------------
# Extension field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtFieldCtx:
    """F_{q^l} in the polynomial basis of a monic irreducible modulus."""

    base: FieldCtx
    ell: int
    modulus: tuple[int, ...]

    def __post_init__(self) -> None:
        q = self.base.q
        if self.ell < 1:
            raise FieldError(f"extension degree must be >= 1, got {self.ell}")
        if len(self.modulus) != self.ell + 1:
            raise FieldError(
                f"modulus must have degree {self.ell}, got {list(self.modulus)}"
            )
        if any(not 0 <= c < q for c in self.modulus):
            raise FieldError("modulus coefficients must be reduced mod q")
        if not is_irreducible(self.modulus, q):
            raise FieldError(
                f"modulus {list(self.modulus)} is not monic irreducible over F_{q}"
            )

    @property
    def q(self) -> int:
        return self.base.q

    @property
    def order(self) -> int:
        return self.q**self.ell

    def element(self, coeffs: Sequence[int]) -> "ExtElement":
        if len(coeffs) != self.ell:
            raise FieldError(
                f"expected {self.ell} coefficients, got {len(coeffs)}"
            )
        return ExtElement(self, tuple(c % self.q for c in coeffs))

    def zero(self) -> "ExtElement":
        return ExtElement(self, (0,) * self.ell)

    def one(self) -> "ExtElement":
        return ExtElement(self, (1,) + (0,) * (self.ell - 1))

    def alpha(self) -> "ExtElement":
        if self.ell == 1:
            # alpha is the residue of x, i.e. the constant -modulus[0]
            return ExtElement(self, (-self.modulus[0] % self.q,))
        return ExtElement(self, (0, 1) + (0,) * (self.ell - 2))

    def from_base(self, c: int) -> "ExtElement":
        return ExtElement(self, (c % self.q,) + (0,) * (self.ell - 1))

    def element_at(self, i: int) -> "ExtElement":
        """The i-th element in counting order of the coefficient vector."""
        if not 0 <= i < self.order:
            raise FieldError(f"element index {i} out of range")
        coeffs = []
        for _ in range(self.ell):
            coeffs.append(i % self.q)
            i //= self.q
        return ExtElement(self, tuple(coeffs))

    def index(self, e: "ExtElement") -> int:
        i = 0
        for c in reversed(e.coeffs):
            i = i * self.q + c
        return i

    def elements(self) -> Iterator["ExtElement"]:
        for i in range(self.order):
            yield self.element_at(i)


@dataclass(frozen=True)
class ExtElement:
    """An element of F_{q^l}, tagged with its context."""

    ctx: ExtFieldCtx
    coeffs: tuple[int, ...]

    def _same(self, other: "ExtElement") -> None:
        if not isinstance(other, ExtElement):
            raise TypeError(f"expected ExtElement, got {type(other).__name__}")
        if self.ctx != other.ctx:
            raise FieldError("elements from different field contexts")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "ExtElement") -> "ExtElement":
        self._same(other)
        q = self.ctx.q
        return ExtElement(
            self.ctx, tuple((a + b) % q for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        self._same(other)
        q = self.ctx.q
        return ExtElement(
            self.ctx, tuple((a - b) % q for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "ExtElement":
        q = self.ctx.q
        return ExtElement(self.ctx, tuple(-a % q for a in self.coeffs))

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        self._same(other)
        q = self.ctx.q
        prod = _poly_mul(self.coeffs, other.coeffs, q)
        red = _poly_mod(prod, self.ctx.modulus, q)
        red += [0] * (self.ctx.ell - len(red))
        return ExtElement(self.ctx, tuple(red))

    def inverse(self) -> "ExtElement":
        if self.is_zero():
            raise FieldError("inverse of zero")
        q = self.ctx.q
        g, s = _poly_ext_gcd(self.coeffs, self.ctx.modulus, q)
        if g != [1]:
            raise FieldError("modulus is not irreducible")  # unreachable
        s += [0] * (self.ctx.ell - len(s))
        return ExtElement(self.ctx, tuple(s[: self.ctx.ell]))

    def __pow__(self, n: int) -> "ExtElement":
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        result = self.ctx.one()
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        return format_element(self)

    def to_list(self) -> list[int]:
        return list(self.coeffs)


def format_element(e: ExtElement) -> str:
    """Human form, highest power first: 'alpha^2+2*alpha+1'."""
    terms = []
    for i in range(e.ctx.ell - 1, -1, -1):
        c = e.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = "alpha" if i == 1 else f"alpha^{i}"
            terms.append(var if c == 1 else f"{c}*{var}")
    return "+".join(terms) if terms else "0"


def ext_field(q: int, ell: int, modulus: Sequence[int] | None = None) -> ExtFieldCtx:
    """Build F_{q^l}, using the built-in modulus table when none is given."""
    base = FieldCtx(q)
    if modulus is None:
        try:
            modulus = DEFAULT_MODULI[(q, ell)]
        except KeyError:
            raise FieldError(
                f"no default modulus for q={q}, ell={ell}; supply one explicitly"
            ) from None
    return ExtFieldCtx(base, ell, tuple(c % q for c in modulus))


# ---------------------------------------------------------------------------
# Coordinate isomorphism and Frobenius
# ---------------------------------------------------------------------------

def phi(e: ExtElement) -> tuple[int, ...]:
    """Coordinates of e in the basis 1, alpha, ..., alpha^(l-1)."""
    return e.coeffs


def phi_inv(ctx: ExtFieldCtx, vec: Sequence[int]) -> ExtElement:
    if len(vec) != ctx.ell:
        raise FieldError(f"expected length {ctx.ell}, got {len(vec)}")
    return ctx.element(vec)


def frobenius(e: ExtElement, i: int) -> ExtElement:
    """e raised to the power q^i, by repeated q-th powering."""
    if i < 0:
        raise FieldError(f"Frobenius exponent must be >= 0, got {i}")
    q = e.ctx.q
    out = e
    for _ in range(i % e.ctx.ell):
        out = out**q
    return out


def lin_independent_over_base(elems: Sequence[ExtElement]) -> bool:
    """True iff the coordinate vectors are linearly independent over F_q."""
    from .matgf import MatGF, rank  # matgf imports this module

    if any(e.ctx != elems[0].ctx for e in elems):
        raise FieldError("elements from different field contexts")
    rows = [e.coeffs for e in elems]
    return not rows or rank(MatGF.from_rows(elems[0].ctx.base, rows)) == len(rows)
