"""Sparse polynomial arithmetic over a coefficient ring of characteristic p.

UniPoly (one printing variable, int exponent keys), BiPoly (pairs of
exponents) and, in weyl.py, WeylElement (exponent vectors in normal order)
are sparse maps from exponent keys to nonzero coefficients.  They share one
private base class, _Sparse, which holds the zero-filtering constructor,
addition, negation, scaling, square-and-multiply powers, equality, the
canonical printer and substitution through cached powers of the images.
Every product runs through one kernel, _mul_into, on int keys and int
coefficient codes: tuple keys are packed into a single int for the duration
of a product, at a bit width taken from the operands' largest exponents so
that exponent sums never carry from one slot into the next, and coefficients
are replaced by the codes of their ring's codec (residues for F_p,
coordinates at a 64-bit stride for F_{p^n}, the elements themselves for
K[t]).  The kernel only adds and multiplies codes; the codec reduces once per
product and hands back the ring's own interned elements, and the keys are
unpacked once at the end.  UniPoly and BiPoly hand the kernel their
operands; WeylElement hands it the divided derivatives of its commutation
rule, and keeps its powers packed and coded from the first factor to the
last.

Also here is the characteristic-p tooling everything above is built from:
divided powers d^[k] = d^k/k! via Lucas binomials (exact even when k!
vanishes mod p), the base-p splitting K[x] = sum K[x^p] x^i, leading terms,
and Jacobians of polynomial pairs.

The coefficient ring is either a FieldSpec (elements: FieldElement, codec:
gfq.FieldCodec) or a PolyRing over one (elements: UniPoly in ``t``), the
latter so identities can be exercised over a reduced coefficient ring that
is not a field.  Division is only ever asked of the field instance.
"""

from __future__ import annotations

from functools import cached_property
from math import comb

from .gfq import FieldElement, FieldSpec

NEG_INF = float("-inf")


def lucas_binomial(m: int, k: int, p: int) -> int:
    """binomial(m, k) mod p by Lucas' theorem (digitwise in base p)."""
    if k < 0 or k > m:
        return 0
    acc = 1
    while k:
        bm, bk = m % p, k % p
        if bk > bm:
            return 0
        acc = (acc * comb(bm, bk)) % p
        m //= p
        k //= p
    return acc % p


def falling_factorial_mod(m: int, k: int, p: int) -> int:
    """m (m-1) ... (m-k+1) mod p, reduced at every step."""
    acc = 1
    for i in range(k):
        acc = (acc * ((m - i) % p)) % p
        if acc == 0:
            return 0
    return acc


# -- the product kernel and its key packing -----------------------------


def _mul_into(acc: dict, a: dict, b: dict, zero=0) -> dict:
    """acc += a * b for maps from int keys that add under multiplication
    (exponents, or exponent vectors packed by _pack) to coefficient codes
    (gfq.FieldCodec, _PolyCodec).  The one loop over coefficient pairs;
    nothing is reduced here, the codec reduces once per product."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    items = b.items()
    for e1, c1 in a.items():
        for e2, c2 in items:
            e = e1 + e2
            acc[e] = get(e, zero) + c1 * c2
    return acc


def _coded_product(codec, a: dict, b: dict) -> dict:
    """a * b for maps from int keys to ring elements, through the codes of
    ``codec``; the result holds its own ring's elements, zeros dropped."""
    codec.check_pairs(min(len(a), len(b)))
    return codec.decode(_mul_into({}, codec.encode(a), codec.encode(b),
                                  codec.zero))


def _width(a: dict, b: dict) -> int:
    """Bits per slot for packing the tuple keys of a product of a and b:
    enough for the sum of the largest exponents, so sums never carry."""
    return (max(map(max, a)) + max(map(max, b))).bit_length()


def _pack(coeffs: dict, width: int) -> dict:
    """Tuple keys as ints, slot s in bits s*width .. (s+1)*width - 1."""
    out = {}
    for key, c in coeffs.items():
        packed = 0
        for e in reversed(key):
            packed = (packed << width) | e
        out[packed] = c
    return out


def _unpack(coeffs: dict, width: int, arity: int) -> dict:
    """Inverse of _pack for keys with ``arity`` slots."""
    mask = (1 << width) - 1
    shifts = [s * width for s in range(arity)]
    return {tuple((key >> s) & mask for s in shifts): c
            for key, c in coeffs.items()}


# -- the shared sparse base -----------------------------------------------


class _Sparse:
    """Map from exponent keys to nonzero coefficients in ``ring``.

    A subclass stores its third constructor argument (printing variables, or
    the rank of A_n) in the slot named by ``_SHAPE``; elements combine only
    with elements of the same class, ring and shape.  Each subclass also
    provides the constructors ``zero`` and ``one``, ``_names`` (printing
    symbols, one per key slot) and ``_product``."""

    __slots__ = ("ring", "coeffs")

    _MISMATCH = "variable mismatch: %r vs %r"

    def __init__(self, ring, coeffs: dict):
        self.ring = ring
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}

    def _shape(self):
        return getattr(self, self._SHAPE)

    def _like(self, coeffs: dict):
        return type(self)(self.ring, coeffs, self._shape())

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Total degree; -inf for 0."""
        return max((sum(k) for k in self.coeffs), default=NEG_INF)

    def coefficient(self, key):
        if not isinstance(key, int):
            key = tuple(key)
        return self.coeffs.get(key, self.ring.zero())

    def _same_kind(self, other) -> bool:
        return type(other) is type(self)

    def _check_compatible(self, other):
        if self.ring != other.ring:
            raise ValueError("coefficient ring mismatch")
        if self._shape() != other._shape():
            raise ValueError(self._MISMATCH % (self._shape(), other._shape()))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            cur = out.get(k)
            out[k] = c if cur is None else cur + c
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not self._same_kind(other):
            return self.scale(other)
        self._check_compatible(other)
        return self._product(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.ring.coerce(c)
        if c.is_zero():
            return self._like({})
        return self._like({k: v * c for k, v in self.coeffs.items()})

    def __pow__(self, k: int):
        """Square-and-multiply: k.bit_length() - 1 squarings and one product
        per further set bit of k, none for k <= 1."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        if k == 0:
            return self.one(self.ring, self._shape())
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.ring == other.ring and self._shape() == other._shape()
                and self.coeffs == other.coeffs)

    __hash__ = None

    def _substitute(self, images: list):
        """Image under the ring homomorphism sending key slot k to
        images[k] (elements of any algebra over the same coefficient ring,
        e.g. polynomials or Weyl elements).  Powers of each image are
        computed once and shared by all terms; a term multiplies its powers
        in slot order, which matters when the images do not commute."""
        one = images[0] ** 0
        powers = [[one, img] for img in images]
        result = None
        for key in sorted(self.coeffs):
            term = None
            exps = (key,) if isinstance(key, int) else key
            for cache, e in zip(powers, exps):
                if e:
                    while len(cache) <= e:
                        cache.append(cache[-1] * cache[1])
                    term = cache[e] if term is None else term * cache[e]
            term = (one if term is None else term) * self.coeffs[key]
            result = term if result is None else result + term
        return one * self.ring.zero() if result is None else result

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        names = self._names()
        one = self.ring.one()
        parts = []
        for key in sorted(self.coeffs, reverse=True):
            c = self.coeffs[key]
            exps = (key,) if isinstance(key, int) else key
            mono = "*".join(m for m in map(_mono_str, names, exps) if m)
            parts.append(_format_term(str(c), c == one, mono))
        return "+".join(parts)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self)


def _mono_str(var: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return var
    return "%s^%d" % (var, e)


def _format_term(cs: str, is_one: bool, mono: str) -> str:
    compound = any(ch in cs for ch in "+*^")
    if not mono:
        return "(%s)" % cs if compound else cs
    if is_one:
        return mono
    if compound:
        return "(%s)*%s" % (cs, mono)
    return "%s*%s" % (cs, mono)


class UniPoly(_Sparse):
    """Sparse univariate polynomial; ``var`` is the printing symbol."""

    __slots__ = ("var",)
    _SHAPE = "var"

    def __init__(self, ring, coeffs: dict, var: str = "x"):
        self.var = var
        _Sparse.__init__(self, ring, coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring, var: str = "x") -> "UniPoly":
        return cls(ring, {}, var)

    @classmethod
    def one(cls, ring, var: str = "x") -> "UniPoly":
        return cls(ring, {0: ring.one()}, var)

    @classmethod
    def constant(cls, ring, c, var: str = "x") -> "UniPoly":
        return cls(ring, {0: ring.coerce(c)}, var)

    @classmethod
    def monomial(cls, ring, e: int, c, var: str = "x") -> "UniPoly":
        if e < 0:
            raise ValueError("negative exponent")
        return cls(ring, {e: ring.coerce(c)}, var)

    @classmethod
    def variable(cls, ring, var: str = "x") -> "UniPoly":
        return cls(ring, {1: ring.one()}, var)

    @classmethod
    def from_coeff_list(cls, ring, coeffs, var: str = "x") -> "UniPoly":
        return cls(ring, {e: ring.coerce(c) for e, c in enumerate(coeffs)}, var)

    def _names(self) -> list[str]:
        return [self.var]

    # -- structure ----------------------------------------------------

    @property
    def degree(self):
        return max(self.coeffs) if self.coeffs else NEG_INF

    def leading_term(self):
        """(degree, coefficient) of the highest monomial; error on zero."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading term")
        d = max(self.coeffs)
        return d, self.coeffs[d]

    # -- ring operations ----------------------------------------------

    # bound in the class body: bench/tracer.py wraps the methods it finds
    # in each class's own __dict__
    __add__ = _Sparse.__add__
    __mul__ = _Sparse.__mul__

    def _same_kind(self, other) -> bool:
        # distinguishes an actual polynomial in our variable from a
        # coefficient value when the coefficient ring is itself PolyRing
        return type(other) is UniPoly and not (
            isinstance(self.ring, PolyRing) and other.var == self.ring.var)

    def _product(self, other: "UniPoly") -> "UniPoly":
        return self._like(_coded_product(self.ring.codec, self.coeffs,
                                         other.coeffs))

    # -- calculus and base-p structure ----------------------------------

    def derivative(self, k: int = 1) -> "UniPoly":
        """k-th formal derivative."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        p = self.ring.characteristic
        out = {}
        for e, c in self.coeffs.items():
            if e >= k:
                f = falling_factorial_mod(e, k, p)
                if f:
                    out[e - k] = c * f if f != 1 else c
        return UniPoly(self.ring, out, self.var)

    def divided_power(self, k: int) -> "UniPoly":
        """d^[k] = d^k / k!: maps x^m to binomial(m, k) x^{m-k} (Lucas mod p)."""
        if k < 0:
            raise ValueError("divided power order must be >= 0")
        p = self.ring.characteristic
        out = {}
        for e, c in self.coeffs.items():
            b = lucas_binomial(e, k, p)
            if b:
                out[e - k] = c * b if b != 1 else c
        return UniPoly(self.ring, out, self.var)

    def shift(self, k: int) -> "UniPoly":
        """Multiply by var^k."""
        if k == 0:
            return self
        return UniPoly(self.ring, {e + k: c for e, c in self.coeffs.items()},
                       self.var)

    def frobenius(self) -> "UniPoly":
        """f -> f^p, i.e. coefficientwise Frobenius with exponents times p."""
        p = self.ring.characteristic
        return UniPoly(self.ring,
                       {e * p: c.frobenius() for e, c in self.coeffs.items()},
                       self.var)

    def inv_frobenius(self) -> "UniPoly":
        """p-th root of a polynomial supported on exponents divisible by p."""
        if not self.ring.is_field:
            raise ValueError("inverse Frobenius needs a perfect field")
        p = self.ring.characteristic
        out = {}
        for e, c in self.coeffs.items():
            if e % p:
                raise ValueError(
                    "exponent %d not divisible by p = %d" % (e, p))
            out[e // p] = c.inv_frobenius()
        return UniPoly(self.ring, out, self.var)

    def p_decompose(self, inner_var: str = "u") -> list["UniPoly"]:
        """Components (a_0, ..., a_{p-1}) with f = sum a_i(x^p) x^i; each a_i
        is returned in a fresh variable standing for x^p."""
        p = self.ring.characteristic
        parts: list[dict] = [{} for _ in range(p)]
        for e, c in self.coeffs.items():
            parts[e % p][e // p] = c
        return [UniPoly(self.ring, part, inner_var) for part in parts]

    def expand_inner(self, var: str = "x") -> "UniPoly":
        """Reinterpret a polynomial in a stand-in for x^p back in x
        (exponents multiplied by p)."""
        p = self.ring.characteristic
        return UniPoly(self.ring, {e * p: c for e, c in self.coeffs.items()},
                       var)

    def substitute(self, value):
        """Evaluate at ``value`` (any element of an algebra over the same
        coefficient ring, e.g. a polynomial or Weyl element)."""
        return self._substitute([value])


class BiPoly(_Sparse):
    """Sparse polynomial in two commuting variables."""

    __slots__ = ("vars",)
    _SHAPE = "vars"

    def __init__(self, ring, coeffs: dict, vars: tuple[str, str] = ("X", "Y")):
        self.vars = tuple(vars)
        _Sparse.__init__(self, ring, coeffs)

    @classmethod
    def zero(cls, ring, vars=("X", "Y")) -> "BiPoly":
        return cls(ring, {}, vars)

    @classmethod
    def one(cls, ring, vars=("X", "Y")) -> "BiPoly":
        return cls(ring, {(0, 0): ring.one()}, vars)

    @classmethod
    def constant(cls, ring, c, vars=("X", "Y")) -> "BiPoly":
        return cls(ring, {(0, 0): ring.coerce(c)}, vars)

    @classmethod
    def gens(cls, ring, vars=("X", "Y")) -> tuple["BiPoly", "BiPoly"]:
        one = ring.one()
        return (cls(ring, {(1, 0): one}, vars), cls(ring, {(0, 1): one}, vars))

    def _names(self) -> tuple:
        return self.vars

    def leading_form(self) -> "BiPoly":
        """Homogeneous component of top total degree."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading form")
        d = self.degree
        return BiPoly(self.ring,
                      {k: c for k, c in self.coeffs.items() if sum(k) == d},
                      self.vars)

    __add__ = _Sparse.__add__
    __mul__ = _Sparse.__mul__

    def _product(self, other: "BiPoly") -> "BiPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._like({})
        w = _width(a, b)
        return self._like(_unpack(
            _coded_product(self.ring.codec, _pack(a, w), _pack(b, w)), w, 2))

    def derivative(self, axis: int, k: int = 1) -> "BiPoly":
        """k-th formal partial derivative along axis 0 or 1."""
        p = self.ring.characteristic
        out = {}
        for key, c in self.coeffs.items():
            e = key[axis]
            if e >= k:
                f = falling_factorial_mod(e, k, p)
                if f:
                    nk = (e - k, key[1]) if axis == 0 else (key[0], e - k)
                    cur = out.get(nk)
                    v = c * f if f != 1 else c
                    out[nk] = v if cur is None else cur + v
        return BiPoly(self.ring, out, self.vars)

    def substitute(self, img0, img1):
        """Ring homomorphism sending the two variables to img0, img1."""
        return self._substitute([img0, img1])


def jacobian(P: BiPoly, Q: BiPoly) -> BiPoly:
    """det of the matrix of formal partials: P_X Q_Y - P_Y Q_X."""
    P._check_compatible(Q)
    return (P.derivative(0) * Q.derivative(1)
            - P.derivative(1) * Q.derivative(0))


def p_recompose(parts: list[UniPoly], var: str = "x") -> UniPoly:
    """Inverse of p_decompose: sum a_i(x^p) x^i."""
    result = UniPoly.zero(parts[0].ring, var)
    for i, part in enumerate(parts):
        result = result + part.expand_inner(var).shift(i)
    return result


class PolyRing:
    """K[t] over a finite field, used as a coefficient ring that is a reduced
    commutative algebra but not a field.  Elements are UniPoly in ``t``."""

    is_field = False

    def __init__(self, base: FieldSpec, var: str = "t"):
        self.base = base
        self.var = var

    @property
    def characteristic(self) -> int:
        return self.base.p

    @cached_property
    def codec(self) -> "_PolyCodec":
        return _PolyCodec(self)

    def zero(self) -> UniPoly:
        return UniPoly.zero(self.base, self.var)

    def one(self) -> UniPoly:
        return UniPoly.one(self.base, self.var)

    def gen(self) -> UniPoly:
        return UniPoly.variable(self.base, self.var)

    def from_int(self, k: int) -> UniPoly:
        return UniPoly.constant(self.base, self.base.from_int(k), self.var)

    def coerce(self, value) -> UniPoly:
        if isinstance(value, UniPoly):
            if value.ring != self.base or value.var != self.var:
                raise ValueError("coefficient ring mismatch")
            return value
        if isinstance(value, FieldElement):
            return UniPoly.constant(self.base, value, self.var)
        if isinstance(value, int):
            return self.from_int(value)
        raise TypeError("cannot coerce %r into %s" % (value, self))

    def random_element(self, rng, max_deg: int = 3) -> UniPoly:
        deg = rng.randint(0, max_deg)
        coeffs = {e: self.base.random_element(rng) for e in range(deg)}
        if deg:
            coeffs[deg] = self.base.random_nonzero(rng)
        else:
            coeffs[0] = self.base.random_element(rng)
        return UniPoly(self.base, coeffs, self.var)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyRing):
            return NotImplemented
        return self.base == other.base and self.var == other.var

    def __hash__(self) -> int:
        return hash((self.base, self.var))

    def __str__(self) -> str:
        return "(%s)[%s]" % (self.base, self.var)

    __repr__ = __str__


class _PolyCodec:
    """Codes for K[t]: each element is its own code, so a product over K[t]
    keeps UniPoly arithmetic on its coefficients (whose own products run
    through the codes of K)."""

    def __init__(self, ring: PolyRing):
        self.zero = ring.zero()

    def check_pairs(self, pairs: int, scale: int = 1) -> None:
        pass

    def encode(self, coeffs: dict) -> dict:
        return coeffs

    def decode(self, acc: dict) -> dict:
        return {k: c for k, c in acc.items() if c.coeffs}

    reduce = decode
