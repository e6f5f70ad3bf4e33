"""Gabidulin rank-metric codes and their lifting to subspace codes.

A code with word length k over F_{q^l} (k <= l) and minimum rank distance
delta has dimension rho = l*(k - delta + 1) over F_q, the largest value the
rank-metric Singleton bound allows.  Codewords carry both the length-k
vector over F_{q^l} and its k x l coordinate matrix over F_q; lifting
prepends an identity block and yields a k-dimensional subspace of
F_q^(k+l).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import CodeError
from .gf import (  # listdec and pluecker import ENUMERATION_CAP from here
    ENUMERATION_CAP,
    ExtElement,
    ExtFieldCtx,
    FieldCtx,
    ext_field,
    frobenius,
    lin_independent_over_base,
    phi,
)
# vstack stays importable here: perfbench/spans.py wraps gabidulin.vstack
from .matgf import MatGF, _echelon, random_matrix, rank, rref, vstack  # noqa: F401


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of F_q^n, stored as its unique RREF basis.

    Canonical: two Subspace values are equal iff their bases are identical.
    """

    basis: MatGF

    def __post_init__(self) -> None:
        red, pivots = rref(self.basis)
        if red != self.basis or len(pivots) != self.basis.rows:
            raise CodeError("subspace basis must be a full-rank RREF matrix")

    @property
    def n(self) -> int:
        return self.basis.cols

    @property
    def k(self) -> int:
        return self.basis.rows

    @property
    def ctx(self) -> FieldCtx:
        return self.basis.ctx

    @classmethod
    def from_matrix(cls, m: MatGF) -> "Subspace":
        """Row space of an arbitrary matrix, zero rows dropped."""
        red, pivots = rref(m)
        k = len(pivots)
        return _trusted_subspace(MatGF(m.ctx, k, m.cols, red.entries[: k * m.cols]))


def _trusted_subspace(basis: MatGF) -> Subspace:
    """Wrap a basis that is RREF and full rank by construction."""
    sub = object.__new__(Subspace)
    object.__setattr__(sub, "basis", basis)
    return sub


@dataclass(frozen=True)
class RankCodeword:
    """A codeword as a vector over F_{q^l} plus its coordinate matrix."""

    vec: tuple[ExtElement, ...]
    mat: MatGF

    def __post_init__(self) -> None:
        for i, e in enumerate(self.vec):
            if tuple(self.mat.row_list(i)) != phi(e):
                raise CodeError("codeword matrix rows must be the phi images")


@dataclass(frozen=True)
class GabidulinCode:
    """Maximum rank distance code with Frobenius-power generator rows."""

    ext: ExtFieldCtx
    k: int
    delta: int
    g: tuple[ExtElement, ...]

    def __post_init__(self) -> None:
        ell = self.ext.ell
        if not 2 <= self.delta <= self.k:
            raise CodeError(f"need 2 <= delta <= k, got delta={self.delta}, k={self.k}")
        if self.k > ell:
            raise CodeError(f"need k <= ell, got k={self.k}, ell={ell}")
        if len(self.g) != self.k:
            raise CodeError(f"need {self.k} generator elements, got {len(self.g)}")
        if any(e.ctx != self.ext for e in self.g):
            raise CodeError("generator elements from a different field context")
        if not lin_independent_over_base(self.g):
            raise CodeError("generator elements must be independent over the base field")
        object.__setattr__(self, "_hash", hash((self.ext, self.k, self.delta, self.g)))

    def __hash__(self) -> int:  # hashed once: codes key the per-candidate memo
        return self._hash

    @property
    def q(self) -> int:
        return self.ext.q

    @property
    def ell(self) -> int:
        return self.ext.ell

    @property
    def n(self) -> int:
        return self.k + self.ell

    @property
    def rho(self) -> int:
        return self.ell * (self.k - self.delta + 1)

    @property
    def msg_len(self) -> int:
        return self.k - self.delta + 1

    @property
    def size(self) -> int:
        return self.q**self.rho


def make_code(
    q: int,
    n: int,
    k: int,
    delta: int,
    modulus: Sequence[int] | None = None,
    g: Sequence[ExtElement] | None = None,
) -> GabidulinCode:
    """Code construction from ambient parameters; ell = n - k.

    Default generator elements are 1, alpha, ..., alpha^(k-1).
    """
    ell = n - k
    if ell < 1:
        raise CodeError(f"need n > k, got n={n}, k={k}")
    ext = ext_field(q, ell, modulus)
    if g is None:
        alpha = ext.alpha()
        g = tuple(alpha**i for i in range(k))
    return GabidulinCode(ext, k, delta, tuple(g))


@lru_cache(maxsize=None)
def generator_matrix(code: GabidulinCode) -> tuple[tuple[ExtElement, ...], ...]:
    """Rows i = 0..k-delta hold the q^i-th Frobenius powers of the g_j."""
    return tuple(
        tuple(frobenius(gj, i) for gj in code.g) for i in range(code.k - code.delta + 1)
    )


def encode(code: GabidulinCode, msg: Sequence[ExtElement]) -> RankCodeword:
    if len(msg) != code.msg_len:
        raise CodeError(f"message length must be {code.msg_len}, got {len(msg)}")
    G = generator_matrix(code)
    zero = code.ext.zero()
    vec = []
    for j in range(code.k):
        acc = zero
        for i, m in enumerate(msg):
            acc = acc + m * G[i][j]
        vec.append(acc)
    mat = MatGF.from_rows(code.ext.base, [list(phi(v)) for v in vec])
    return RankCodeword(tuple(vec), mat)


@lru_cache(maxsize=None)
def _encoding_matrix(code: GabidulinCode) -> MatGF:
    """Encoding as an F_q-linear map: column i*ell + j holds the codeword
    matrix entries, row-major, of the message alpha^j e_i."""
    m, ell, alpha, zero = code.msg_len, code.ell, code.ext.alpha(), code.ext.zero()
    basis = ([alpha**j if t == i else zero for t in range(m)] for i in range(m) for j in range(ell))
    cols = [encode(code, msg).mat.entries for msg in basis]
    return MatGF.from_rows(code.ext.base, cols).transpose()


def rank_distance(a: RankCodeword | MatGF, b: RankCodeword | MatGF) -> int:
    ma = a.mat if isinstance(a, RankCodeword) else a
    mb = b.mat if isinstance(b, RankCodeword) else b
    if (ma.rows, ma.cols) != (mb.rows, mb.cols):
        raise CodeError(
            f"shape mismatch: {ma.rows}x{ma.cols} vs {mb.rows}x{mb.cols}"
        )
    return rank(ma - mb)


def mrd_bound(k: int, ell: int, delta: int) -> int:
    if not 1 <= delta <= min(k, ell):
        raise CodeError(f"need 1 <= delta <= min(k, ell), got {delta}")
    return min(k * (ell - delta + 1), ell * (k - delta + 1))


def lift(cw: RankCodeword | MatGF) -> Subspace:
    """Row space of [I_k | A]; the result is already in RREF."""
    mat = cw.mat if isinstance(cw, RankCodeword) else cw
    k = mat.rows
    rows = [[1 if i == j else 0 for j in range(k)] + mat.row_list(i) for i in range(k)]
    entries = tuple(x for row in rows for x in row)  # built with its shape: k = 0 keeps n
    return _trusted_subspace(MatGF(mat.ctx, k, k + mat.cols, entries))


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """2k - 2 dim(U n V), from the rank of both bases' packed rows stacked."""
    a, b = u.basis, v.basis
    shape = (a.rows, a.cols, a.ctx.q)
    if shape != (b.rows, b.cols, b.ctx.q):
        raise CodeError(f"(k, n, q) mismatch: {shape} vs {(b.rows, b.cols, b.ctx.q)}")
    return 2 * len(_echelon(a.packed + b.packed, a.cols, a.ctx.q)[0]) - 2 * a.rows


def enumerate_messages(code: GabidulinCode) -> Iterator[tuple[ExtElement, ...]]:
    """All q^rho messages in lex order (first symbol most significant)."""
    symbols = [code.ext.element_at(i) for i in range(code.ext.order)]
    for msg in itertools.product(symbols, repeat=code.msg_len):
        yield msg


def _check_code_size(code: GabidulinCode) -> None:
    """Refuse a walk over the whole code beyond the enumeration cap."""
    if code.size > ENUMERATION_CAP:
        raise CodeError(f"code size {code.size} exceeds the enumeration cap {ENUMERATION_CAP}")


def enumerate_code(code: GabidulinCode) -> Iterator[RankCodeword]:
    _check_code_size(code)
    for msg in enumerate_messages(code):
        yield encode(code, msg)


# ---------------------------------------------------------------------------
# Grassmannian helpers
# ---------------------------------------------------------------------------

def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def enumerate_grassmannian(ctx: FieldCtx, n: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces of F_q^n, grouped by pivot set in lex order.

    Within one pivot set the free entries run in mixed-radix counting order,
    so the overall order is deterministic.
    """
    q = ctx.q
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        free_cells = [
            i * n + j
            for i in range(k)
            for j in range(n)
            if j > pivots[i] and j not in pivot_set
        ]
        for values in itertools.product(range(q), repeat=len(free_cells)):
            entries = [0] * (k * n)  # built with its shape: k = 0 keeps n
            for i, p in enumerate(pivots):
                entries[i * n + p] = 1
            for c, v in zip(free_cells, values):
                entries[c] = v
            yield _trusted_subspace(MatGF(ctx, k, n, tuple(entries)))


def random_subspace(ctx: FieldCtx, n: int, k: int, rng) -> Subspace:
    while True:
        m = random_matrix(ctx, k, n, rng)
        if rank(m) == k:
            return Subspace.from_matrix(m)
