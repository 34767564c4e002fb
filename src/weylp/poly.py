"""Sparse polynomial arithmetic over a coefficient ring of characteristic p.

UniPoly (one printing variable, int exponent keys), BiPoly (pairs of
exponents) and, in weyl.py, WeylElement (exponent vectors in normal order)
are sparse maps from exponent keys to nonzero coefficients.  They share one
private base class, _Sparse, which holds the zero-filtering constructor,
the constructors zero, one and constant (at the origin key, _origin, that
each class names), the generators of the tuple-key classes (_generators:
one unit key per slot, built once per class, ring object and shape and
shared by every caller, BiPoly.gens and the A_n generators among them),
the lift from_unipoly of f(x) into the first generator, addition,
negation, scaling, powers, equality, the test against the unit on the
coefficient map (_is_one, which builds no unit), the canonical printer
(through the term helpers of gfq.py, _mono_str and _format_term, which
also print the polynomials in g; the text of each monomial is kept per
printing symbols and key in a bounded cache, _monomial_text) and
substitution through cached powers of the images, every term added into
one coefficient map.  Every sum of coefficient maps is one rule,
_add_terms: terms, each times an optional factor on the left, added into
a map that drops a key as it cancels, so that no sum is filtered again.
Addition, substitution, autgrp's affine forms and decomposition steps and
theta's inverse add through it.
Exponent keys are spelled here and in weyl.py only; the other modules
read them through _origin and _generators.  A power takes its argument
check and its k = 0, zero and single-term cases from the base (a term
whose powers need no reordering, _commutes, goes to its coefficient's
power with every exponent times k) and otherwise runs its class's chain,
_power: here, by the base-p digits of k through the Frobenius, with
square-and-multiply per digit; WeylElement's own chain in weyl.py.

Every product runs through one kernel, _mul_into, on int keys and int
coefficient codes, and each operand goes in and comes out in one pass.
Going in, _coded packs each tuple key into a single int, at a bit width
taken from the operands' largest exponents so that exponent sums never
carry from one slot into the next, and in the same loop replaces its
coefficient by its code under the ring's codec (codec.code: residues for
F_p, coordinates at a 64-bit stride for F_{p^n}, the elements themselves
for K[t]); UniPoly's int keys need no packing and go in through
codec.encode.  The kernel only adds and multiplies codes.  Coming out,
codec.decode reduces each code once, drops the zeros, hands back the
ring's own interned elements and unpacks the key, all in one loop, so the
result is built without the constructor's filtering pass.  UniPoly alone
hands the kernel its operands; every tuple-key product runs through
weyl.py's one coded pass, _bracket, which hands it the divided
derivatives of the A_1 or A_2 commutation rule, taken on the packed keys
and codes by _divided_derivative (powers over a field run on packed rows
instead, in weyl.py).  With X and Y read as x and d (gr A_1 = K[x, d]),
the product and the jacobian of K[X, Y] are the orders 0 and 1 of that
rule.

Also here is the characteristic-p tooling everything above is built from:
the derivative rule on elements, _Sparse._lower, which lowers one key slot
by k with a factor mod p per exponent and so gives UniPoly's k-th
derivative (falling factorials) and divided power d^[k] = d^k/k! (Lucas
binomials, exact even when k! vanishes mod p) as well as BiPoly's partial
derivatives (inside a coded pass, _divided_derivative applies the same
Lucas factors to packed keys); the base-p splitting K[x] = sum K[x^p] x^i
and leading terms.

The coefficient ring is either a FieldSpec (elements: FieldElement, codec:
gfq.FieldCodec) or a PolyRing over one (elements: UniPoly in ``t``), the
latter so identities can be exercised over a reduced coefficient ring that
is not a field.  Code generic in the ring reads ring.characteristic; what
needs division or p-th roots calls _require_field first, the one check
that refuses K[t], by the name of the operation.
random_unipoly draws a random polynomial over either in one order (the
degree, the lower coefficients, a nonzero leading one), for the suites and
for PolyRing.random_element alike.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb

from .gfq import FieldElement, FieldSpec, _format_term, _mono_str

NEG_INF = float("-inf")


def _require_field(ring, op: str) -> int:
    """The characteristic of ``ring``, once the operation ``op`` has refused
    a ring that is not a field (a finite field, so perfect): the one check
    of what division and p-th roots ask of the coefficient ring."""
    if not ring.is_field:
        raise ValueError("%s requires a perfect-field coefficient ring" % op)
    return ring.characteristic


@lru_cache(maxsize=None)
def _lucas_tables(p: int) -> tuple:
    """binom(m, k) mod p for m, k < p, and k! mod p for k < p."""
    binom = [[comb(m, k) % p for k in range(p)] for m in range(p)]
    fact = [1] * p
    for k in range(2, p):
        fact[k] = fact[k - 1] * k % p
    return binom, fact


def lucas_binomial(m: int, k: int, p: int) -> int:
    """binomial(m, k) mod p by Lucas' theorem (digitwise in base p)."""
    if k < 0 or k > m:
        return 0
    binom = _lucas_tables(p)[0]
    acc = 1
    while k and acc:
        m, bm = divmod(m, p)
        k, bk = divmod(k, p)
        acc = acc * binom[bm][bk] % p
    return acc


def falling_factorial_mod(m: int, k: int, p: int) -> int:
    """m (m-1) ... (m-k+1) mod p, that is k! binomial(m, k) mod p; 0 for
    k >= p, as k consecutive integers then hold a multiple of p."""
    if k >= p:
        return 0
    return _lucas_tables(p)[1][k] * lucas_binomial(m, k, p) % p


# -- the product kernel and its coded operands --------------------------


def _mul_into(acc: dict, a: dict, b: dict, zero=0) -> dict:
    """acc += a * b for maps from int keys that add under multiplication
    (exponents, or exponent vectors packed by _coded) to coefficient codes
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


def _coded(codec, coeffs: dict, width: int) -> dict:
    """A product operand in one pass: each tuple key packed into one int,
    slot s in bits s*width .. (s+1)*width - 1 (the layout codec.decode reads
    back), and each coefficient replaced by its code."""
    code = codec.code
    out = {}
    for key, c in coeffs.items():
        packed = 0
        for e in reversed(key):
            packed = packed << width | e
        out[packed] = code(c)
    return out


def _divided_derivative(coeffs: dict, orders: list, width: int, binom: list,
                        p: int, scalar: int) -> dict:
    """``scalar`` times the divided partial derivative prod_s d^[k_s] of a
    map with packed keys and coded coefficients (_coded); ``orders`` lists
    (bit offset of slot s, k_s < p) for the slots with k_s > 0, and
    binom(m, k_s) mod p is binom[m % p][k_s] (Lucas).  Terms whose factor
    vanishes mod p drop out; the others keep distinct keys."""
    if not orders and scalar == 1:
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


# -- the shared sparse base -----------------------------------------------


def _key_times(key, k: int):
    """An exponent key (an int or a tuple) with every exponent times k."""
    return key * k if isinstance(key, int) else tuple(e * k for e in key)


def _add_terms(acc: dict, terms, c=None) -> dict:
    """acc += the terms (key, v) of ``terms``, each as c * v unless ``c``
    is None (the factor on the left, so a product holds c's ring's own
    element): a key that acc lacks takes the term itself, and a key whose
    sum is zero is deleted, so nonzero terms (and a nonzero c) leave acc
    with only nonzero coefficients and no filtering pass.  Returns acc."""
    get = acc.get
    for k, v in terms:
        if c is not None:
            v = c * v
        if (cur := get(k)) is None:
            acc[k] = v
        elif (v := cur + v).is_zero():
            del acc[k]
        else:
            acc[k] = v
    return acc


@lru_cache(maxsize=4096)
def _monomial_text(names: tuple, key) -> str:
    """The monomial of the exponent key ``key`` (an int or a tuple) in the
    printing symbols ``names``, one per key slot, as _Sparse.__str__ prints
    it: the factors of _mono_str joined by "*", empty at the origin; kept
    for the recent (names, key) pairs."""
    exps = (key,) if isinstance(key, int) else key
    return "*".join(m for m in map(_mono_str, names, exps) if m)


# (class, ring, shape) -> _Sparse._generators(ring, shape), for the last
# ring object of each value that asked
_GENERATORS: dict = {}


class _Sparse:
    """Map from exponent keys to nonzero coefficients in ``ring``.

    A subclass stores its third constructor argument (printing variables, or
    the rank of A_n) in the slot named by ``_SHAPE``; elements combine only
    with elements of the same class, ring and shape.  Each subclass also
    names ``_origin`` (the key of the constant term, as a class attribute or
    a property of the shape), ``_names`` (printing symbols, one per key
    slot) and ``_product``.  The constructors ``zero``, ``one`` and
    ``constant`` are defined here; they pass a shape positionally to the
    subclass constructor, which takes its default shape when none is
    given."""

    __slots__ = ("ring", "coeffs")

    _MISMATCH = "variable mismatch: %r vs %r"

    def __init__(self, ring, coeffs: dict):
        self.ring = ring
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}

    @classmethod
    def zero(cls, ring, *shape):
        return cls(ring, {}, *shape)

    @classmethod
    def one(cls, ring, *shape):
        return cls.constant(ring, ring.one(), *shape)

    @classmethod
    def constant(cls, ring, c, *shape):
        """``c`` (an element of ``ring`` or an int) at the origin key; no
        key is stored when it is zero."""
        out = cls(ring, {}, *shape)
        if not (c := ring.coerce(c)).is_zero():
            out.coeffs[out._origin] = c
        return out

    @classmethod
    def _generators(cls, ring, *shape) -> tuple:
        """The generators in key-slot order, one unit key each (tuple keys
        only), built once per class, ring object and shape (an omitted
        shape is the constructor's default): no element is changed in
        place, so every caller can share them."""
        shape = shape or cls.__init__.__defaults__
        gens = _GENERATORS.get((cls, ring, *shape))
        if gens is None or gens[0].ring is not ring:
            zero, one = cls.zero(ring, *shape), ring.one()
            slots = range(len(zero._origin))
            gens = _GENERATORS[cls, ring, *shape] = tuple(zero._from_nonzero(
                {tuple(int(s == u) for s in slots): one}) for u in slots)
        return gens

    @classmethod
    def from_unipoly(cls, f: "UniPoly"):
        """f in the first generator: f(x) on A_1, f(X) on K[X, Y] (tuple
        keys only)."""
        return cls(f.ring, {(e, 0): c for e, c in f.coeffs.items()})

    def _shape(self):
        return getattr(self, self._SHAPE)

    def _from_nonzero(self, coeffs: dict):
        """An element of our class, ring and shape with ``coeffs``, which
        hold no zero coefficient (the results of sums, which drop the keys
        that cancel, of products, whose codecs drop zeros, of negation and
        of scaling by a nonzero constant): no filtering pass."""
        out = object.__new__(type(self))
        out.ring = self.ring
        out.coeffs = coeffs
        setattr(out, self._SHAPE, self._shape())
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def _is_one(self, ring) -> bool:
        """self == one(ring), decided on the coefficient map at _origin
        without building the unit: at the constructor's default shape, as
        one(ring) is, one term, there, equal to ring.one() (which holds
        only over a ring equal to ``ring``)."""
        coeffs = self.coeffs
        return (len(coeffs) == 1
                and self._shape() == self.__init__.__defaults__[0]
                and coeffs.get(self._origin) == ring.one())

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
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("coefficient ring mismatch")
        if self._shape() != other._shape():
            raise ValueError(self._MISMATCH % (self._shape(), other._shape()))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        self._check_compatible(other)
        # over an equal ring built separately, other's terms are taken
        # times our one, so the sum holds our ring's own elements
        one = None if other.ring is self.ring else self.ring.one()
        return self._from_nonzero(
            _add_terms(dict(self.coeffs), other.coeffs.items(), one))

    # a field and K[t] have no zero divisors: negating, or scaling by a
    # nonzero c, keeps every coefficient nonzero
    def __neg__(self):
        return self._from_nonzero({k: -c for k, c in self.coeffs.items()})

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
            return self._from_nonzero({})
        return self._from_nonzero({k: v * c for k, v in self.coeffs.items()})

    def __pow__(self, k: int):
        """self^k: one for k = 0; for zero, and for a single term whose
        powers need no reordering (_commutes), no product: the coefficient's
        power with every exponent times k; otherwise the chain of _power."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        if k == 0:
            return self.one(self.ring, self._shape())
        if not self.coeffs:
            return self
        if len(self.coeffs) == 1:
            (key, c), = self.coeffs.items()
            if self._commutes(key):
                return self._from_nonzero({_key_times(key, k): c ** k})
        return self._power(k)

    def _commutes(self, key) -> bool:
        """Whether the monomial of ``key`` commutes with itself through
        every reordering, so that its k-th power has every exponent times
        k: always for commuting variables."""
        return True

    def _power(self, k: int):
        """self^k for k >= 1 in a commutative class, by the base-p digits of
        k: with k = sum_i e_i p^i, self^k = prod_i F^i(self)^{e_i}, where the
        Frobenius F (_frobenius), f -> f^p, is a ring map in characteristic
        p that multiplies every exponent by p and raises every coefficient
        to the p-th power (over K[t] that power is again a UniPoly's).  Each
        digit e_i < p takes square-and-multiply: e_i.bit_length() - 1
        squarings and one product per further set bit, none for e_i = 1."""
        p = self.ring.characteristic
        result, frob = None, self
        while True:
            k, e = divmod(k, p)
            if e:
                part, base = None, frob
                while True:
                    if e & 1:
                        part = base if part is None else part * base
                    e >>= 1
                    if not e:
                        break
                    base = base * base
                result = part if result is None else result * part
            if not k:
                return result
            frob = frob._frobenius()

    def _frobenius(self):
        """f -> f^p in a commutative class: every exponent times p and
        every coefficient to the p-th power.  A nonzero coefficient's p-th
        power is nonzero (no zero divisors), and distinct keys stay
        distinct."""
        p = self.ring.characteristic
        return self._from_nonzero({_key_times(key, p): c ** p
                                   for key, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.ring == other.ring and self._shape() == other._shape()
                and self.coeffs == other.coeffs)

    __hash__ = None

    def _substitute(self, images: list, base=None):
        """Image under the ring homomorphism sending key slot k to
        images[k] (elements of any algebra over the same coefficient ring,
        e.g. polynomials or Weyl elements), added to ``base`` (an element
        of the images' class, ring and shape, or None for 0).  Powers of
        each image are computed once and shared by all terms, those of a
        single-term image by its own power (``**``, no product when the
        term commutes with itself); a term multiplies its powers in slot
        order, which matters when the images do not commute.  Every term,
        times its coefficient (unless that is one), adds into one
        coefficient map by _add_terms, a constant term at the origin key,
        so no unit is built, no partial sum is copied and a key that
        cancels is dropped as it cancels."""
        # index 0 of each cache is never read: a zero exponent is skipped
        powers = [[None, img] for img in images]
        first = images[0]
        one = first.ring.one()
        # over an equal ring built separately, each coefficient is taken
        # times the images' one, so the image holds their ring's elements
        lift = None if first.ring is self.ring else one
        acc: dict = {} if base is None else dict(base.coeffs)
        for key, c in self.coeffs.items():
            if lift is not None:
                c = lift * c
            term = None
            exps = (key,) if isinstance(key, int) else key
            for cache, e in zip(powers, exps):
                if e:
                    while len(cache) <= e:
                        img = cache[1]
                        cache.append(img ** len(cache)
                                     if len(img.coeffs) == 1
                                     else cache[-1] * img)
                    term = cache[e] if term is None else term * cache[e]
            if term is None:
                _add_terms(acc, ((first._origin, c),))
            else:
                _add_terms(acc, term.coeffs.items(),
                           None if c is one or c == one else c)
        return first._from_nonzero(acc)

    def _lower(self, slot: int, k: int, factor):
        """The derivative rule: each term with exponent e in key slot
        ``slot`` goes to e - k there, times factor(e, k, p) (mod p, zero
        for e < k); the terms whose factor is zero drop out.  UniPoly's
        derivative and divided power and BiPoly's partial derivative."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        if not 0 <= slot < len(self._names()):
            raise ValueError("axis must be in 0..%d, got %r"
                             % (len(self._names()) - 1, slot))
        p = self.ring.characteristic
        out = {}
        for key, c in self.coeffs.items():
            exps = [key] if isinstance(key, int) else list(key)
            f = factor(exps[slot], k, p)
            if f:
                exps[slot] -= k
                out[exps[0] if isinstance(key, int) else tuple(exps)] = (
                    c * f if f != 1 else c)
        # a factor 0 < f < p keeps every coefficient nonzero in
        # characteristic p, as scaling does
        return self._from_nonzero(out)

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        """The terms from the highest key down, each printed by
        _format_term from its coefficient's text and the text of its
        monomial, which _monomial_text keeps per (names, key)."""
        if not self.coeffs:
            return "0"
        names = self._names()
        one = self.ring.one()
        parts = []
        for key in sorted(self.coeffs, reverse=True):
            c = self.coeffs[key]
            parts.append(_format_term(str(c), c is one or c == one,
                                      _monomial_text(names, key)))
        return "+".join(parts)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self)


class UniPoly(_Sparse):
    """Sparse univariate polynomial; ``var`` is the printing symbol."""

    __slots__ = ("var",)
    _SHAPE = "var"
    _origin = 0

    def __init__(self, ring, coeffs: dict, var: str = "x"):
        self.var = var
        _Sparse.__init__(self, ring, coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, ring, e: int, c, var: str = "x") -> "UniPoly":
        if e < 0:
            raise ValueError("negative exponent")
        return cls(ring, {e: ring.coerce(c)}, var)

    @classmethod
    def variable(cls, ring, var: str = "x") -> "UniPoly":
        return cls(ring, {1: ring.one()}, var)

    def _names(self) -> tuple:
        return (self.var,)

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
        codec, a, b = self.ring.codec, self.coeffs, other.coeffs
        codec.check_pairs(min(len(a), len(b)))
        return self._from_nonzero(codec.decode(_mul_into(
            {}, codec.encode(a), codec.encode(b), codec.zero)))

    # -- calculus and base-p structure ----------------------------------

    def derivative(self, k: int = 1) -> "UniPoly":
        """k-th formal derivative."""
        return self._lower(0, k, falling_factorial_mod)

    def divided_power(self, k: int) -> "UniPoly":
        """d^[k] = d^k / k!: maps x^m to binomial(m, k) x^{m-k} (Lucas mod p)."""
        return self._lower(0, k, lucas_binomial)

    def shift(self, k: int) -> "UniPoly":
        """Multiply by var^k."""
        if k == 0:
            return self
        return UniPoly(self.ring, {e + k: c for e, c in self.coeffs.items()},
                       self.var)

    def frobenius(self) -> "UniPoly":
        """f -> f^p, i.e. coefficientwise Frobenius with exponents times p."""
        return self._frobenius()

    def inv_frobenius(self) -> "UniPoly":
        """p-th root of a polynomial supported on exponents divisible by p."""
        p = _require_field(self.ring, "inv_frobenius")
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
    _origin = (0, 0)

    def __init__(self, ring, coeffs: dict, vars: tuple[str, str] = ("X", "Y")):
        self.vars = tuple(vars)
        _Sparse.__init__(self, ring, coeffs)

    @classmethod
    def gens(cls, ring, vars=("X", "Y")) -> tuple["BiPoly", "BiPoly"]:
        return cls._generators(ring, tuple(vars))

    def _names(self) -> tuple:
        return self.vars

    __add__ = _Sparse.__add__
    __mul__ = _Sparse.__mul__

    def _product(self, other: "BiPoly") -> "BiPoly":
        # order 0 of the A_1 bracket, with X, Y read as x, d, as jacobian
        # is order 1; weyl imports this module, so the import waits
        from .weyl import _bracket
        return self._from_nonzero(
            _bracket(self.ring, 1, self.coeffs, (other.coeffs,), 0, 1)[0])

    def derivative(self, axis: int, k: int = 1) -> "BiPoly":
        """k-th formal partial derivative along axis 0 or 1."""
        return self._lower(axis, k, falling_factorial_mod)

    def substitute(self, img0, img1):
        """Ring homomorphism sending the two variables to img0, img1."""
        return self._substitute([img0, img1])


def random_unipoly(rng, ring, max_deg: int, var: str = "x") -> UniPoly:
    """Degree uniform in 0..max_deg, dense random coefficients, leading
    coefficient nonzero (degree-0 draws may still be the zero polynomial)."""
    deg = rng.randint(0, max_deg)
    coeffs = {e: ring.random_element(rng) for e in range(deg)}
    coeffs[deg] = ring.random_nonzero(rng) if deg else ring.random_element(rng)
    return UniPoly(ring, coeffs, var)


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
        return random_unipoly(rng, self.base, max_deg, self.var)

    def random_nonzero(self, rng) -> UniPoly:
        """One random_element draw, with one in place of zero."""
        f = self.random_element(rng)
        return self.one() if f.is_zero() else f

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
    through the codes of K), and they have no stride to guard."""

    strided = False

    def __init__(self, ring: PolyRing):
        self.zero = ring.zero()

    def check_pairs(self, pairs: int, scale: int = 1) -> None:
        pass

    def code(self, c: UniPoly) -> UniPoly:
        return c

    def encode(self, coeffs: dict) -> dict:
        return coeffs

    def decode(self, acc: dict, width: int = 0, arity: int = 1) -> dict:
        """As gfq.FieldCodec.decode: zeros dropped, keys packed at ``width``
        bits per slot unpacked into ``arity`` exponents (arity 1: kept)."""
        if arity == 1:
            return {k: c for k, c in acc.items() if c.coeffs}
        mask, shifts = (1 << width) - 1, [s * width for s in range(arity)]
        return {tuple([k >> s & mask for s in shifts]): c
                for k, c in acc.items() if c.coeffs}
