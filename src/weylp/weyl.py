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
into int keys (poly._pack); each k takes divided derivatives on the packed
keys and hands the pair to the shared product kernel poly._mul_into, which
accumulates every k into one map that is unpacked at the end.  Everything
else (addition, scaling, equality, printing, substitution) is the shared
sparse base of poly.py.  A term-by-term rewriting multiplier lives in the
test suite as an independent oracle for this routine.

The module also hosts the brute-force checks of the p-th power identity
(d + f)^p = d^p + f^{(p-1)} + f^p, in A_1 over fields and over K[t], and its
two-variable analogue in A_2.
"""

from __future__ import annotations

from itertools import product as _iterproduct

from .poly import (BiPoly, UniPoly, _mul_into, _pack, _Sparse, _unpack,
                   _width, lucas_binomial)


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
        ring = self.ring
        p = ring.characteristic
        n = self.n
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._like({})
        # per-axis caps: self only differentiates in d's, other in x's
        caps = [min(p - 1, max(k[n + s] for k in a), max(k[s] for k in b))
                for s in range(n)]
        fact = [1] * p
        for m in range(2, p):
            fact[m] = (fact[m - 1] * m) % p
        w = _width(a, b)
        a, b = _pack(a, w), _pack(b, w)
        acc: dict = {}
        for k in _iterproduct(*(range(c + 1) for c in caps)):
            A = _divided_derivative(
                a, [((n + s) * w, k[s]) for s in range(n) if k[s]], w, p)
            if not A:
                continue
            B = _divided_derivative(
                b, [(s * w, k[s]) for s in range(n) if k[s]], w, p)
            if not B:
                continue
            # k! with every k_s < p, hence a unit mod p
            scalar = 1
            for s in range(n):
                scalar = (scalar * fact[k[s]]) % p
            if scalar != 1:
                sc = ring.from_int(scalar)
                A = {key: c * sc for key, c in A.items()}
            _mul_into(ring, acc, A, B)
        return self._like(_unpack(acc, w, 2 * n))

    def __pow__(self, k: int) -> "WeylElement":
        # repeated multiplication, not the base's square-and-multiply: a
        # step a^k * a costs |a^k| |a| term pairs, a square |a^k|^2.  On
        # the sparse images res raises to the p-th power, squaring made a
        # pass of the benchmark's restriction workload 1.8x slower (1.03 s
        # to 1.88 s, seed 1, 2-vCPU Xeon)
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = WeylElement.one(self.ring, self.n)
        for _ in range(k):
            result = result * self
        return result

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


def _divided_derivative(coeffs: dict, orders: list, width: int,
                        p: int) -> dict:
    """The divided partial derivative prod_s d^[k_s] of a normal symbol
    with packed keys; ``orders`` lists (bit offset of slot s, k_s) for the
    slots with k_s > 0.  Terms whose Lucas binomial vanishes drop out; the
    others keep distinct keys."""
    if not orders:
        return coeffs
    mask = (1 << width) - 1
    out = {}
    for key, c in coeffs.items():
        factor = 1
        for shift, k in orders:
            factor = factor * lucas_binomial((key >> shift) & mask, k, p) % p
            if not factor:
                break
            key -= k << shift
        else:
            out[key] = c * factor if factor != 1 else c
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
