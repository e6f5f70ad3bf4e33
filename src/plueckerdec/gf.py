"""Prime fields F_q and polynomial-basis extension fields F_{q^l}.

Elements of F_q are plain ints in [0, q).  Elements of F_{q^l} are
coefficient vectors over F_q in the basis 1, alpha, ..., alpha^(l-1),
where alpha is a root of a monic irreducible modulus polynomial p(x) of
degree l.  Polynomials are stored as coefficient tuples, lowest degree
first: x^2 + x + 1 <-> (1, 1, 1).

The coordinate map between F_{q^l} and F_q^l is `phi` / `phi_inv`;
`frobenius` raises elements to q-th powers and `inverse` to the power
q^l - 2.  Without a user-supplied modulus, `default_modulus` finds the
first monic irreducible of degree l, for any field of at most
ENUMERATION_CAP elements.  Primality is Miller-Rabin, exact below psi_13.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import FieldError

# Bounds every enumeration: codewords, candidates, index tuples, moduli.
ENUMERATION_CAP = 2**20

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)  # the first 13 primes
_PSI13 = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases, exact for every n below psi_13
    (Sorenson and Webster, Math. Comp. 2017); larger n raise FieldError."""
    if n <= _MR_BASES[-1]:
        return n in _MR_BASES
    if n >= _PSI13:
        raise FieldError(f"primality is decided only below psi_13 = {_PSI13}, got {n}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:  # a witness: a^d != 1 and no a^(d 2^i), i < s, is -1
        x = pow(a, d, n)
        if x != 1 and n - 1 not in (pow(x, 1 << i, n) for i in range(s)):
            return False
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


def _poly_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """gcd of the monic a and the trimmed b, made monic, by Euclid on `_poly_mod`."""
    while b:
        lead_inv = pow(b[-1], q - 2, q)
        b = [c * lead_inv % q for c in b]
        a, b = b, _poly_mod(a, b, q)
    return a


def _poly_powmod(a: Sequence[int], e: int, m: Sequence[int], q: int) -> list[int]:
    """a^e modulo the monic polynomial m, by square and multiply."""
    out, a = [1], _poly_mod(a, m, q)
    while e:
        if e & 1:
            out = _poly_mod(_poly_mul(out, a, q), m, q)
        a = _poly_mod(_poly_mul(a, a, q), m, q)
        e >>= 1
    return out


def is_irreducible(coeffs: Sequence[int], q: int) -> bool:
    """Rabin's test: a monic p of degree l >= 1 is irreducible iff x^(q^l) = x
    mod p and gcd(x^(q^(l/r)) - x, p) = 1 for each prime r dividing l; the
    powers x^(q^i) mod p come by repeated q-th powering, O(l log q) products."""
    p = [c % q for c in coeffs]
    if len(p) < 2 or p[-1] != 1:
        return False
    ell = len(p) - 1
    maximal = {ell // r for r in range(2, ell + 1) if ell % r == 0 and _is_prime(r)}
    h = [0, 1]
    for i in range(1, ell + 1):
        h = _poly_powmod(h, q, p, q) + [0, 0]  # x^(q^i) mod p, padded to degree 1
        diff = _poly_mod([h[0], (h[1] - 1) % q, *h[2:]], p, q)  # x^(q^i) - x mod p
        if i in maximal and _poly_gcd(p, diff, q) != [1]:
            return False
    return not diff


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
        return self ** (self.ctx.order - 2)  # the units form a group of order q^l - 1

    def __pow__(self, n: int) -> "ExtElement":
        base = self.inverse() if n < 0 else self
        red = _poly_powmod(base.coeffs, abs(n), self.ctx.modulus, self.ctx.q)
        return ExtElement(self.ctx, tuple(red + [0] * (self.ctx.ell - len(red))))

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


@lru_cache(maxsize=None)
def default_modulus(q: int, ell: int) -> tuple[int, ...]:
    """The first monic irreducible polynomial of degree ell over F_q in
    counting order of its coefficients, lowest degree fastest: (2, 2) gives
    x^2 + x + 1.  Only for fields of at most ENUMERATION_CAP elements."""
    FieldCtx(q)
    # q >= 2, so ell >= bit_length(cap) is over the cap without forming q^ell
    if not 1 <= ell < ENUMERATION_CAP.bit_length() or q**ell > ENUMERATION_CAP:
        raise FieldError(f"no default modulus for q={q}, ell={ell}: needs ell >= 1 and "
                         f"q^ell <= {ENUMERATION_CAP}; supply one explicitly")
    monic = ((*(i // q**j % q for j in range(ell)), 1) for i in range(q**ell))
    return next(p for p in monic if is_irreducible(p, q))


def ext_field(q: int, ell: int, modulus: Sequence[int] | None = None) -> ExtFieldCtx:
    """Build F_{q^l}, with `default_modulus(q, l)` when no modulus is given."""
    base = FieldCtx(q)
    if modulus is None:
        modulus = default_modulus(q, ell)
    return ExtFieldCtx(base, ell, tuple(c % q for c in modulus))


# ---------------------------------------------------------------------------
# Coordinate isomorphism and Frobenius
# ---------------------------------------------------------------------------

def phi(e: ExtElement) -> tuple[int, ...]:
    """Coordinates of e in the basis 1, alpha, ..., alpha^(l-1)."""
    return e.coeffs


def phi_inv(ctx: ExtFieldCtx, vec: Sequence[int]) -> ExtElement:
    return ctx.element(vec)


def frobenius(e: ExtElement, i: int) -> ExtElement:
    """e raised to the power q^i; q^l is the identity on F_{q^l}."""
    if i < 0:
        raise FieldError(f"Frobenius exponent must be >= 0, got {i}")
    return e ** e.ctx.q ** (i % e.ctx.ell)


def lin_independent_over_base(elems: Sequence[ExtElement]) -> bool:
    """True iff the coordinate vectors are linearly independent over F_q."""
    from .matgf import MatGF, rank  # matgf imports this module

    if any(e.ctx != elems[0].ctx for e in elems):
        raise FieldError("elements from different field contexts")
    rows = [e.coeffs for e in elems]
    return not rows or rank(MatGF.from_rows(elems[0].ctx.base, rows)) == len(rows)
