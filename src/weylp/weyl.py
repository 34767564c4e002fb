"""Normal-form arithmetic in the Weyl algebra A_n (n = 1 or 2) over a
coefficient ring of characteristic p, with the relations [d_i, x_i] = 1 and
all other generator pairs commuting.

Elements are stored in normal order (all x's left of all d's) as a sparse map
from exponent vectors (i_1..i_n, j_1..j_n) to coefficients.  Products are
computed through the closed commutation rule

    d^j x^i = sum_k binom(j,k) * i!/(i-k)! * x^{i-k} d^{j-k},

evaluated in aggregate as  A*B = sum_{k < p} k! * (d/d_xi)^[k]A * (d/dx)^[k]B
over commutative normal symbols (binom(j,k)*binom(i,k)*k! equals the falling
factorial form, and k! kills every k >= p).  Both operands are packed once
into int keys (poly._pack) and their coefficients replaced by the int codes
of the ring's codec; each k takes divided derivatives on the packed keys,
with binom(m, k) mod p = binom(m mod p, k) from a p x p table kept per p
(k < p), scales the codes by k! and hands the pair to the shared product
kernel poly._mul_into.  Every k accumulates into one map of unreduced codes,
which the codec reduces once and which is unpacked at the end.  Powers stay
in that packed, coded form from the first factor to the last: the base is
packed at the key width of the final power and encoded once, each step is
reduced, and the result is decoded and unpacked once.  Everything else
(addition, scaling, equality, printing, substitution) is the shared sparse
base of poly.py.  A term-by-term rewriting multiplier lives in the test
suite as an independent oracle for this routine.

The module also hosts the brute-force checks of the p-th power identity
(d + f)^p = d^p + f^{(p-1)} + f^p, in A_1 over fields and over K[t], and its
two-variable analogue in A_2.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _iterproduct
from math import comb

from .poly import (BiPoly, UniPoly, _mul_into, _pack, _Sparse, _unpack,
                   _width)


class WeylElement(_Sparse):
    """Normal-form element of A_n; keys are (i_1..i_n, j_1..j_n)."""

    __slots__ = ("n",)
    _SHAPE = "n"
    _MISMATCH = "mixing A_%d and A_%d"

    def __init__(self, ring, coeffs: dict, n: int = 1):
        if n not in (1, 2):
            raise ValueError("only A_1 and A_2 are supported")
        self.n = n
        _Sparse.__init__(self, ring, coeffs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ring, n: int = 1) -> "WeylElement":
        return cls(ring, {}, n)

    @classmethod
    def one(cls, ring, n: int = 1) -> "WeylElement":
        return cls(ring, {(0,) * (2 * n): ring.one()}, n)

    @classmethod
    def constant(cls, ring, c, n: int = 1) -> "WeylElement":
        return cls(ring, {(0,) * (2 * n): ring.coerce(c)}, n)

    @classmethod
    def monomial(cls, ring, key, c, n: int = 1) -> "WeylElement":
        key = tuple(key)
        if len(key) != 2 * n or any(e < 0 for e in key):
            raise ValueError("bad exponent vector %r" % (key,))
        return cls(ring, {key: ring.coerce(c)}, n)

    @classmethod
    def x_gen(cls, ring, axis: int = 0, n: int = 1) -> "WeylElement":
        key = [0] * (2 * n)
        key[axis] = 1
        return cls(ring, {tuple(key): ring.one()}, n)

    @classmethod
    def d_gen(cls, ring, axis: int = 0, n: int = 1) -> "WeylElement":
        key = [0] * (2 * n)
        key[n + axis] = 1
        return cls(ring, {tuple(key): ring.one()}, n)

    @classmethod
    def from_unipoly(cls, f: UniPoly) -> "WeylElement":
        """Embed f(x) into A_1."""
        return cls(f.ring, {(e, 0): c for e, c in f.coeffs.items()}, 1)

    @classmethod
    def from_xpoly2(cls, f: BiPoly) -> "WeylElement":
        """Embed f(x_1, x_2) into A_2."""
        return cls(f.ring,
                   {(i, j, 0, 0): c for (i, j), c in f.coeffs.items()}, 2)

    def _names(self) -> list[str]:
        if self.n == 1:
            return ["x", "d"]
        return ["x1", "x2", "d1", "d2"]

    # -- multiplication -----------------------------------------------------

    # bound in the class body: bench/tracer.py wraps the methods it finds
    # in each class's own __dict__
    __mul__ = _Sparse.__mul__

    def _product(self, other: "WeylElement") -> "WeylElement":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._like({})
        codec = self.ring.codec
        w = _width(a, b)
        acc = _weyl_mul(codec, self.ring.characteristic, self.n,
                        codec.encode(_pack(a, w)), codec.encode(_pack(b, w)),
                        w, {})
        return self._like(_unpack(codec.decode(acc), w, 2 * self.n))

    def __pow__(self, k: int) -> "WeylElement":
        # repeated multiplication, not the base's square-and-multiply: a
        # step a^k * a costs |a^k| |a| term pairs, a square |a^k|^2.  The
        # chain stays packed and coded from the first factor to the last, at
        # the key width of the final power, reducing once per step, and the
        # divided derivatives of the base are taken once.  Time in powers
        # per pass of the benchmark's restriction workload (seed 1, min of 5
        # passes, three alternations, 2-vCPU Xeon): 0.15-0.20 s, against
        # 0.24-0.25 s for square-and-multiply through the same coded
        # products and 0.45-0.48 s for unpacked repeated multiplication
        # with field-element coefficients
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        if k == 0:
            return WeylElement.one(self.ring, self.n)
        if not self.coeffs:
            return self._like({})
        codec, p = self.ring.codec, self.ring.characteristic
        w = (k * max(map(max, self.coeffs))).bit_length()
        base = codec.encode(_pack(self.coeffs, w))
        base_parts: dict = {}
        acc = base
        for _ in range(k - 1):
            acc = codec.reduce(
                _weyl_mul(codec, p, self.n, acc, base, w, base_parts))
        return self._like(_unpack(codec.decode(acc), w, 2 * self.n))

    def commutator(self, other: "WeylElement") -> "WeylElement":
        return self * other - other * self

    # -- centre ---------------------------------------------------------

    def is_central(self) -> bool:
        """Commutes with every generator.  Decided by the support criterion
        (all exponents divisible by p) and cross-checked against actual
        commutators; the two must agree."""
        p = self.ring.characteristic
        by_support = all(e % p == 0 for key in self.coeffs for e in key)
        gens = ([WeylElement.x_gen(self.ring, a, self.n) for a in range(self.n)]
                + [WeylElement.d_gen(self.ring, a, self.n) for a in range(self.n)])
        by_commutators = all(self.commutator(g).is_zero() for g in gens)
        if by_support != by_commutators:
            raise AssertionError(
                "centrality criteria disagree on %s" % self)
        return by_support

    def to_center(self) -> BiPoly:
        """Coordinates of a central element of A_1 in the centre K[X, Y],
        X = x^p, Y = d^p (exponent division, since x^{pa} d^{pb} is already
        in normal order)."""
        if self.n != 1:
            raise ValueError("to_center is defined for A_1 only")
        if not self.is_central():
            raise ValueError("element is not central")
        p = self.ring.characteristic
        return BiPoly(self.ring,
                      {(i // p, j // p): c
                       for (i, j), c in self.coeffs.items()})

    def substitute_gens(self, images: list["WeylElement"]) -> "WeylElement":
        """Apply the homomorphism sending generator k to images[k]
        (x-generators first, then d-generators)."""
        if len(images) != 2 * self.n:
            raise ValueError("need %d generator images" % (2 * self.n))
        return self._substitute(images)


@lru_cache(maxsize=None)
def _lucas_tables(p: int) -> tuple:
    """binom(m, k) mod p for m, k < p, and k! mod p for k < p."""
    binom = [[comb(m, k) % p for k in range(p)] for m in range(p)]
    fact = [1] * p
    for k in range(2, p):
        fact[k] = fact[k - 1] * k % p
    return binom, fact


def _weyl_mul(codec, p: int, n: int, a: dict, b: dict, w: int,
              b_parts: dict) -> dict:
    """Unreduced codes of the product of A_n elements given by packed keys
    (slot width w) and reduced codes of ``codec``, over characteristic p:
    sum over k of k! (d/d_xi)^[k]a * (d/dx)^[k]b.  ``b_parts`` caches the
    divided derivatives of b by k, for callers that multiply by b
    repeatedly."""
    mask = (1 << w) - 1
    # per-axis orders: a only differentiates in d's, b in x's
    ranges = [range(min(p, 1 + max([key >> (n + s) * w & mask for key in a]),
                        1 + max([key >> s * w & mask for key in b])))
              for s in range(n)]
    ks = list(_iterproduct(*ranges))
    # k! and the binomials are each reduced below p
    codec.check_pairs(len(ks) * min(len(a), len(b)), (p - 1) ** 2)
    binom, fact = _lucas_tables(p)
    zero = codec.zero
    acc: dict = {}
    for k in ks:
        B = b_parts.get(k)
        if B is None:
            B = b_parts[k] = _divided_derivative(
                b, [(s * w, e) for s, e in enumerate(k) if e], w, binom, p, 1)
        if not B:
            continue
        scalar = 1
        for e in k:
            scalar *= fact[e]
        A = _divided_derivative(
            a, [((n + s) * w, e) for s, e in enumerate(k) if e], w, binom, p,
            scalar)
        if A:
            _mul_into(acc, A, B, zero)
    return acc


def _divided_derivative(coeffs: dict, orders: list, width: int, binom: list,
                        p: int, scalar: int) -> dict:
    """``scalar`` times the divided partial derivative prod_s d^[k_s] of a
    normal symbol with packed keys and coded coefficients; ``orders`` lists
    (bit offset of slot s, k_s < p) for the slots with k_s > 0, and
    binom(m, k_s) mod p is binom[m % p][k_s] (Lucas).  Terms whose factor
    vanishes mod p drop out; the others keep distinct keys."""
    if not orders:
        return coeffs
    mask = (1 << width) - 1
    out = {}
    for key, c in coeffs.items():
        f = scalar
        for shift, k in orders:
            f *= binom[((key >> shift) & mask) % p][k]
            if not f:
                break
            key -= k << shift
        else:
            f %= p
            out[key] = c * f if f != 1 else c
    return out


def verify_pth_power_identity(f: UniPoly) -> bool:
    """Brute-force check in A_1 that (d + f)^p = d^p + f^{(p-1)} + f^p, and
    the equivalent form d^p - a_{p-1}(x^p) + f^p where a_{p-1} is the top
    component of the base-p splitting of f.  Works over any coefficient ring
    of characteristic p (field or K[t])."""
    ring = f.ring
    p = ring.characteristic
    d = WeylElement.d_gen(ring)
    lhs = (d + WeylElement.from_unipoly(f)) ** p
    f_to_p = f ** p
    der = f.derivative(p - 1)
    rhs = d ** p + WeylElement.from_unipoly(der) + WeylElement.from_unipoly(f_to_p)
    top = f.p_decompose()[p - 1].expand_inner(f.var)
    rhs_top_form = (d ** p - WeylElement.from_unipoly(top)
                    + WeylElement.from_unipoly(f_to_p))
    return lhs == rhs and lhs == rhs_top_form and der == -top


def verify_pth_power_identity_2vars(f: BiPoly, axis: int) -> bool:
    """The A_2 analogue: (d_i + f)^p = d_i^p + (d/dx_i)^{p-1} f + f^p for f a
    polynomial in the two commuting x-generators."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    ring = f.ring
    p = ring.characteristic
    d = WeylElement.d_gen(ring, axis, n=2)
    lhs = (d + WeylElement.from_xpoly2(f)) ** p
    rhs = (d ** p + WeylElement.from_xpoly2(f.derivative(axis, p - 1))
           + WeylElement.from_xpoly2(f ** p))
    return lhs == rhs
