"""Normal-form arithmetic in the Weyl algebra A_n (n = 1 or 2) over a
coefficient ring of characteristic p, with the relations [d_i, x_i] = 1 and
all other generator pairs commuting.

Elements are stored in normal order (all x's left of all d's) as a sparse map
from exponent vectors (i_1..i_n, j_1..j_n) to coefficients.  Products are
computed through the closed commutation rule

    d^j x^i = sum_k binom(j,k) * i!/(i-k)! * x^{i-k} d^{j-k},

evaluated in aggregate as  A*B = sum_{k < p} k! * (d/d_xi)^[k]A * (d/dx)^[k]B
over commutative normal symbols (binom(j,k)*binom(i,k)*k! equals the falling
factorial form, and k! kills every k >= p).  Both operands go in once,
their keys packed into ints and their coefficients coded by the ring's
codec in one pass (poly._coded); each k takes divided derivatives on the
packed keys (poly._divided_derivative), with binom(m, k) mod p =
binom(m mod p, k) from a p x p table kept per p (k < p), scales the codes
by k! and hands the pair to the shared product kernel poly._mul_into.
Every k accumulates into one map of unreduced codes, which the codec
reduces and unpacks in one pass at the end.  The product, the commutator
[a, b] and the jacobian of K[X, Y] are one routine on coefficient maps,
_bracket, and differ only in the orders they run: the order-0 terms of a*b
and b*a are the same commutative product and cancel, so a commutator runs
the orders k != 0 of a*b, then those of b*a with k! times p - 1 (codes
stay non-negative), into one accumulator.  With X and Y read as x and d,
the jacobian P_X Q_Y - P_Y Q_X is the order-1 term of [Q, P] (which is
why res, keeping [d, x] = 1, lands in jacobian 1), and jacobian runs that
order alone.  _bracket takes a sequence of right operands against one left
one, packed and coded once: is_central runs its 2n generator commutators
from that one coded operand.  What a bracket needs besides its operands
depends only on its shape, the exponent maxima of its operands and the
orders asked for, and is kept per shape (_weyl_orders, a bounded cache):
the slot width, and per right operand the orders of a*b and b*a, each with
its derivative offsets and k!.

Powers over a field, the brute-force p-th powers behind res and the
identity checks, are a chain acc <- acc * a on rows instead (the operator-
by-blocks view of van der Hoeven, "FFT-like multiplication of linear
differential operators", 2002, with Kronecker packing).  The chain has one
layout, A_2's: an A_1 element runs as A_2 with x2 = d2 = 0, and the orders
k of a step are read from _weyl_orders' plan, as in _bracket, with acc's
d-degrees taken at the final power's.  A row of acc is keyed by its
d-exponents and holds its x-polynomial as one int, one x-slot per
x-exponent (Kronecker in x1 and x2), each x-slot holding the 2n - 1
coefficients in g of an unreduced product of F_{p^n} codes at a sub-slot
width proven wide enough for the chain.  The divided x-derivatives of a
are packed once, split into x2-bands (one short row of x1-slots per
d-exponent and x2-exponent, so that the row of an affine form
a*x1 + b*x2 + c is two short ints, not one mostly empty one; without x2
there is one band); each step costs one bigint product per pair of rows,
one shift per output row and band above 0, and one whole-row fold and
mod-p reduction per output row (a Barrett step on every sub-slot at
once), and the rows are decoded once at the end.
A chain pays its set-up once per shape, not once per power: its orders
come from _weyl_orders' cache, and its row layout, the layout's reduction
(a closure over its constants), the sub-slot form of each element and the
key of each x-slot from _row_layout's, a bounded cache per (field, bound,
slots); an A_1 element's keys are read as A_2 keys without copying its
map, and order 0, whose scalars are all 1, multiplies without them.
Over K[t] a power is plain repeated products; either chain starts after
the argument check and the k = 0, zero and single-term cases of the
shared base, a single term x^i d^j with i, j > 0 on one axis being the one
that still takes the chain.  Everything else (the generators x_i, d_i
that x_gen and d_gen index, the lift from_unipoly of f(x), addition,
scaling, equality, printing, substitution) is the shared sparse base of
poly.py.
A term-by-term rewriting multiplier lives in the test suite as an
independent oracle for all three routines.

Central elements are read in the centre generators x_i^p, d_i^p by one
reader, WeylElement._center_coeffs (the centrality check, then exponent
division), behind to_center on A_1 and resmap's affine brute force on A_2.
The module also hosts the brute-force checks of the p-th power identity
(d + f)^p = d^p + f^{(p-1)} + f^p, in A_1 over fields and over K[t], and its
two-variable analogue in A_2, both through one test, _pth_power_holds.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, product as _iterproduct
from math import prod as _prod

from .poly import (BiPoly, UniPoly, _coded, _divided_derivative, _lucas_tables,
                   _mul_into, _Sparse)


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

    @property
    def _origin(self) -> tuple:
        return (0,) * (2 * self.n)

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(cls, ring, key, c, n: int = 1) -> "WeylElement":
        key = tuple(key)
        if len(key) != 2 * n or any(e < 0 for e in key):
            raise ValueError("bad exponent vector %r" % (key,))
        return cls(ring, {key: ring.coerce(c)}, n)

    @classmethod
    def x_gen(cls, ring, axis: int = 0, n: int = 1) -> "WeylElement":
        return cls._generators(ring, n)[axis]

    @classmethod
    def d_gen(cls, ring, axis: int = 0, n: int = 1) -> "WeylElement":
        return cls._generators(ring, n)[n + axis]

    @classmethod
    def from_xpoly2(cls, f: BiPoly) -> "WeylElement":
        """Embed f(x_1, x_2) into A_2."""
        return cls(f.ring,
                   {(i, j, 0, 0): c for (i, j), c in f.coeffs.items()}, 2)

    def _names(self) -> tuple:
        return ("x", "d") if self.n == 1 else ("x1", "x2", "d1", "d2")

    # -- multiplication -----------------------------------------------------

    # bound in the class body: bench/tracer.py wraps the methods it finds
    # in each class's own __dict__
    __mul__ = _Sparse.__mul__

    def _product(self, other: "WeylElement") -> "WeylElement":
        return self._from_nonzero(
            _bracket(self.ring, self.n, self.coeffs, (other.coeffs,), 0)[0])

    def commutator(self, other: "WeylElement") -> "WeylElement":
        """[self, other] = self * other - other * self in one coded pass
        (_bracket): the order-0 terms of the two products are the same
        commutative product and cancel."""
        self._check_compatible(other)
        return self._from_nonzero(
            _bracket(self.ring, self.n, self.coeffs, (other.coeffs,), 1)[0])

    def _commutes(self, key) -> bool:
        # x_s^i d_s^j with i, j > 0 reorders: (x d)^2 = x^2 d^2 + x d
        n = self.n
        return not any(key[s] and key[n + s] for s in range(n))

    def _power(self, k: int) -> "WeylElement":
        # repeated multiplication, not the base's square-and-multiply: a
        # step a^k * a costs |a^k| |a| term pairs, a square |a^k|^2.  Over a
        # field the chain runs on packed rows (_row_power); over K[t] it is
        # plain repeated products
        if not self.ring.is_field:
            result = self
            for _ in range(k - 1):
                result = result * self
            return result
        return self._from_nonzero(
            _row_power(self.ring, self.n, self.coeffs, k))

    # -- centre ---------------------------------------------------------

    def is_central(self) -> bool:
        """Commutes with every generator.  Decided by the support criterion
        (all exponents divisible by p) and cross-checked against actual
        commutators, the 2n of them run from one coded operand (_bracket);
        the two must agree."""
        ring, n = self.ring, self.n
        p = ring.characteristic
        by_support = all(e % p == 0 for key in self.coeffs for e in key)
        by_commutators = not any(_bracket(
            ring, n, self.coeffs,
            [g.coeffs for g in self._generators(ring, n)], 1))
        if by_support != by_commutators:
            raise AssertionError(
                "centrality criteria disagree on %s" % self)
        return by_support

    def _center_coeffs(self) -> dict:
        """The coefficients of a central element in the centre generators
        x_i^p, d_i^p: its keys with every exponent divided by p (exponent
        division, since x^{pa} d^{pb} is already in normal order).  Raises
        ValueError when the element is not central."""
        if not self.is_central():
            raise ValueError("element is not central")
        p = self.ring.characteristic
        return {tuple(e // p for e in key): c
                for key, c in self.coeffs.items()}

    def to_center(self) -> BiPoly:
        """Coordinates of a central element of A_1 in the centre K[X, Y],
        X = x^p, Y = d^p."""
        if self.n != 1:
            raise ValueError("to_center is defined for A_1 only")
        return BiPoly(self.ring, self._center_coeffs())

    def substitute_gens(self, images: list["WeylElement"]) -> "WeylElement":
        """Apply the homomorphism sending generator k to images[k]
        (x-generators first, then d-generators)."""
        if len(images) != 2 * self.n:
            raise ValueError("need %d generator images" % (2 * self.n))
        return self._substitute(images)


@lru_cache(maxsize=1024)
def _weyl_orders(p: int, n: int, ta: tuple, tbs: tuple, first: int = 0,
                 last: int | None = None) -> tuple:
    """The plan of the orders of the commutation rule that a product of one
    A_n element a with each element b of a sequence runs over
    characteristic p, by the largest exponents per key slot of a (ta) and
    of each b (tbs, None for b = 0); kept for the recent shapes.

    Returned: the bits w per packed key slot (enough for the sum of the
    largest exponents), and per b (None for b = 0) the orders in [first,
    last) of a * b, for first = 1 those of b * a, and the number of both.
    An order k (one per axis, each below p) can contribute to a * b when
    a's d-exponents and b's x-exponents reach it: a only differentiates in
    d's, b in x's; the first is k = 0, the commutative product.  Each order
    is given as _weyl_mul runs it: k, the bit offsets and orders of b's
    divided x-derivatives and of a's divided d-derivatives (only the slots
    with k_s > 0), and k! mod p.  _bracket reads the whole plan, the row
    chain the orders k of a single b."""
    w = (max(ta) + max(map(max, filter(None, tbs)), default=0)).bit_length()
    fact = _lucas_tables(p)[1]

    def planned(ta, tb):
        orders = _iterproduct(*[range(min(p, 1 + ta[n + s], 1 + tb[s]))
                                for s in range(n)])
        return tuple((k, tuple((s * w, e) for s, e in enumerate(k) if e),
                      tuple(((n + s) * w, e) for s, e in enumerate(k) if e),
                      _prod(fact[e] for e in k) % p)
                     for k in islice(orders, first, last))

    plans = []
    for tb in tbs:
        if tb is None:
            plans.append(None)
            continue
        ab = planned(ta, tb)
        ba = planned(tb, ta) if first else ()
        plans.append((ab, ba, len(ab) + len(ba)))
    return w, tuple(plans)


def _maxima(coeffs: dict) -> tuple:
    """The largest exponent per key slot of a nonempty coefficient map; a
    single term's key is its own."""
    if len(coeffs) == 1:
        for key in coeffs:
            return key
    return tuple(map(max, zip(*coeffs)))


def _bracket(ring, n: int, a: dict, bs, first: int,
             last: int | None = None) -> list:
    """For each coefficient map b of the sequence ``bs``, the orders k in
    [first, last) (in _weyl_orders' order) of a * b, and for first = 1
    those of b * a with k! times p - 1 (that is, negated, so that codes stay
    non-negative), for the coefficient maps of A_n elements over ``ring``:
    a packed and coded once for all of bs, each b once, every order of one
    b into one accumulator, decoded once.  The product for first = 0, the
    commutator [a, b] for first = 1, the jacobian for n = 1, first = 1,
    last = 2; is_central runs the 2n generators of A_n as bs.  The slot
    width and each order's derivative offsets and k! come from the plan
    kept per shape (_weyl_orders); the stride guard runs only where the
    codec's codes have a stride (codec.strided)."""
    if not a:
        return [{} for _ in bs]
    codec, p = ring.codec, ring.characteristic
    w, plans = _weyl_orders(
        p, n, _maxima(a), tuple([_maxima(b) if b else None for b in bs]),
        first, last)
    a = _coded(codec, a, w)
    out = []
    for b, plan in zip(bs, plans):
        acc: dict = {}
        if plan:
            ab, ba, orders = plan
            b = _coded(codec, b, w)
            if codec.strided:
                codec.check_pairs(orders * min(len(a), len(b)),
                                  (p - 1) ** 2)
            if ab:
                _weyl_mul(codec, p, n, a, b, w, ab, acc)
            if ba:
                _weyl_mul(codec, p, n, b, a, w, ba, acc, p - 1)
        out.append(codec.decode(acc, w, 2 * n) if acc else acc)
    return out


def jacobian(P: BiPoly, Q: BiPoly) -> BiPoly:
    """det of the matrix of formal partials, P_X Q_Y - P_Y Q_X: with X and Y
    read as x and d, the order-1 term of the commutator [Q, P] of A_1, in
    one coded pass (_bracket)."""
    P._check_compatible(Q)
    return P._from_nonzero(_bracket(P.ring, 1, Q.coeffs, (P.coeffs,), 1, 2)[0])


def _weyl_mul(codec, p: int, n: int, a: dict, b: dict, w: int, plan,
              acc: dict, sign: int = 1) -> dict:
    """``acc`` plus the unreduced codes of sum over the orders k of
    ``plan`` (as _weyl_orders gives them) of
    sign * k! (d/d_xi)^[k]a * (d/dx)^[k]b, for A_n elements given by packed
    keys (slot width w) and reduced codes of ``codec``, over characteristic
    p; ``sign`` (1 or p - 1) multiplies the scalars.  The caller guards the
    code stride (codec.check_pairs)."""
    binom = _lucas_tables(p)[0]
    zero = codec.zero
    for _, xoffsets, doffsets, fact in plan:
        B = _divided_derivative(b, xoffsets, w, binom, p, 1)
        if B:
            A = _divided_derivative(a, doffsets, w, binom, p, fact * sign)
            if A:
                _mul_into(acc, A, B, zero)
    return acc


class _RowLayout:
    """Coefficient slots of the rows of a power chain over F_{p^n}.

    A row is an x-polynomial packed into one int: one x-slot of X bits per
    x-exponent, each holding the 2n - 1 coefficients of a product of two
    codes as polynomials in g, one per sub-slot of S bits.  ``bound`` is an
    upper bound on every coefficient that a step produces, taken after the
    fold of g^n .. g^{2n-2}; with V = bound.bit_length(), t = V +
    p.bit_length() and S >= V + t + 1 (rounded up to whole bytes), neither
    a step's products nor the reduction's multiply by the Barrett constant
    m = 2^t // p + 1 carry from one sub-slot into the next, and for v < 2^V
    the quotient (v * m) >> t is exactly v // p.  ``slots`` is the number
    of x-slots of the longest row (the final power's).  A layout depends
    on (spec, bound, slots) only, and _row_layout keeps the recent ones, so
    a chain builds its layout, its reduction (a closure over the layout's
    constants) and the sub-slot form of each element it meets once per
    (spec, bound, slots), not once per power."""

    def __init__(self, spec, bound: int, slots: int):
        p, n = spec.p, spec.n
        V = bound.bit_length()
        t = V + p.bit_length()
        self.p, self.n, self.t = p, n, t
        m = (1 << t) // p + 1
        self.sb = sb = (V + t + 8) // 8         # bytes per sub-slot
        self.xb = (2 * n - 1) * sb              # bytes per x-slot
        self.S = S = 8 * sb
        self.X = 8 * self.xb
        # element index -> its coordinates in sub-slots (encode), on demand
        self.slotted = {}
        ones, zeros = b"\xff" * sb, bytes(sb)

        def replicated(xslot: bytes) -> int:
            return int.from_bytes(xslot * slots, "little")

        qmask = replicated(
            ((1 << V) - 1).to_bytes(sb, "little") * n + zeros * (n - 1))
        if n == 1:
            def reduce(row: int) -> int:
                return row - p * (row * m >> t & qmask)
        else:
            # the fold: the coefficient of g^(n+k) in each x-slot, shifted
            # down to sub-slot 0 and times the code of the image of g^(n+k)
            # under the modulus (FieldSpec._red), lands in sub-slots 0 ..
            # n - 1
            low = replicated(ones * n + zeros * (n - 1))
            sub = replicated(ones + zeros * (2 * n - 2))
            folds = [(S * (n + k), self.encode(row))
                     for k, row in enumerate(spec._red)]

            def reduce(row: int) -> int:
                out = row & low
                for shift, image in folds:
                    out += (row >> shift & sub) * image
                return out - p * (out * m >> t & qmask)
        # every x-slot of a row folded through the modulus and its
        # coordinates taken mod p, in whole-int operations
        self.reduce = reduce

    def encode(self, coords) -> int:
        """An element of F_{p^n} by its coordinates in g (ascending, as
        FieldSpec._unpack gives them), one per sub-slot."""
        return sum(c << self.S * i for i, c in enumerate(coords))

    def decode(self, row: int):
        """Element indices of the x-slots of a reduced row, lowest first."""
        xb = self.xb
        data = row.to_bytes(-(-row.bit_length() // (8 * xb)) * xb, "little")
        # a coordinate is below p, so it is the low byte of its sub-slot
        p, sb = self.p, self.sb
        cols = [data[c * sb::xb] for c in range(self.n)]
        vals = cols.pop()
        while cols:
            col = cols.pop()
            vals = [c + p * v for c, v in zip(col, vals)]
        return vals


@lru_cache(maxsize=256)
def _row_layout(spec, bound: int, slots: int, d1: int, n: int) -> tuple:
    """The _RowLayout of (spec, bound, slots) and the A_n x-key of each of
    its x-slots (x-slot x holds x1^(x % d1) x2^(x // d1)), kept for the
    recent chains."""
    return (_RowLayout(spec, bound, slots),
            tuple((x % d1, x // d1)[:n] for x in range(slots)))


@lru_cache(maxsize=None)
def _row_scalars(p: int, k1: int, k2: int) -> list:
    """k! binom(j, k) mod p for the order k = (k1, k2) < p of the
    commutation rule, indexed by j1 % p + p * (j2 % p): by Lucas,
    binom(j, k) = binom(j mod p, k) mod p."""
    binom, fact = _lucas_tables(p)
    first = [fact[k1] * binom[m][k1] for m in range(p)]
    return [a * fact[k2] * binom[m][k2] % p
            for m in range(p) for a in first]


def _row_power(spec, n: int, coeffs: dict, k: int) -> dict:
    """The coefficients of a^k, k >= 1, for the A_n element a over the field
    ``spec`` with (nonzero) ``coeffs``, as a chain of k - 1 steps
    acc <- acc * a on rows; an A_1 element runs as A_2 with x2 = d2 = 0.

    A row of acc is keyed by its packed d-exponent vector and holds its
    x-polynomial as one int (_RowLayout); x1^i1 x2^i2 sits in x-slot
    i1 + D1 * i2, with D1 - 1 the final power's degree in x1, so that no
    product wraps.  Per order k of the commutation rule (_weyl_orders, with
    acc's d-degrees bounded by the final power's), the divided
    x-derivative of a is packed once per chain, in bands: a row of it is
    keyed by its d-exponents and its x2-exponent (the band) and holds only
    its x1-slots.  A step multiplies each acc row by k! binom(j, k) mod p
    (a scalar, as it depends only on the row's d-exponents j; order 0's is
    1, and that product is skipped), then by each band row of that
    derivative, one bigint product per row pair; it shifts the sum of each
    output d-key and band up D1 x-slots per band (a pass taken only when a
    has a band above 0) and reduces each output row once.  The rows are
    decoded to the field's elements at the end.  The orders, the layout
    and its x-keys come from caches (_weyl_orders, _row_layout)."""
    p = spec.p
    binom = _lucas_tables(p)[0]
    codes, value = spec.codec._codes, spec.codec.value
    # an A_1 key (i, j) is read as the A_2 key (i, 0, j, 0)
    pad = (0,) * (2 - n)
    terms = [(*key[:n], *pad, *key[n:], *pad, c.val)
             for key, c in coeffs.items()]
    top = tuple(map(max, zip(*terms)))[:4]
    # the final power's x-degrees bound every row of the chain
    d1 = k * top[0] + 1
    slots = d1 * (k * top[1] + 1)
    wd = (k * max(top[2:])).bit_length() or 1       # bits per d-exponent
    dmask = (1 << wd) - 1
    # the divided x-derivatives of a, as (d-key, x1-slot, band, element
    # index) terms per order
    orders = []
    _, ((steps, _, _),) = _weyl_orders(p, 2, tuple(k * t for t in top),
                                       (top,))
    for (k1, k2), *_ in steps:
        part = []
        for i1, i2, j1, j2, v in terms:
            f = binom[i1 % p][k1] * binom[i2 % p][k2]
            if f and (f == 1 or (v := value(codes[v] * f))):
                part.append((j1 | j2 << wd, i1 - k1, i2 - k2, v))
        if part:
            orders.append((k1, k2, part))
    # per order, a step lands at most one pair per term of a on an output
    # coefficient, the acc coordinate times its scalar (below p)
    layout, xkeys = _row_layout(
        spec, spec.codec.bound(len(orders) * len(coeffs), p - 1), slots, d1,
        n)
    # a band row's key is its d-key plus its band above the d-key's bits,
    # so a step sums the products of each (d-key, band) unshifted and
    # shifts each sum once, by D1 x-slots per band, into its output row
    bandbit, band_slots = 2 * wd, layout.X * d1
    jmask = (1 << bandbit) - 1

    def unband(out: dict) -> dict:
        if not top[1]:
            return out
        rows: dict = {}
        for key, raw in out.items():
            j = key & jmask
            rows[j] = rows.get(j, 0) + (raw << band_slots * (key >> bandbit))
        return rows

    X, slotted = layout.X, layout.slotted
    parts = []
    for k1, k2, part in orders:
        rows: dict = {}
        for j, x1, band, v in part:
            s = slotted.get(v)
            if s is None:
                s = slotted[v] = layout.encode(spec._unpack(v))
            key = j | band << bandbit
            rows[key] = rows.get(key, 0) | s << X * x1
        parts.append((_row_scalars(p, k1, k2), k1 | k2 << wd,
                      tuple(rows.items())))
    # order 0 is a itself, and its scalars are all 1: its rows multiply an
    # acc row unscaled
    acc = unband(dict(parts[0][2]))
    rows0, parts = parts[0][2], parts[1:]
    reduce = layout.reduce
    for _ in range(k - 1):
        out: dict = {}
        get = out.get
        for ja, ra in acc.items():
            for jb, rb in rows0:
                key = ja + jb
                out[key] = get(key, 0) + ra * rb
            r = (ja & dmask) % p + p * ((ja >> wd) % p)
            for scalars, shift, rows in parts:
                scalar = scalars[r]
                if scalar:
                    rs = ra * scalar
                    jo = ja - shift
                    for jb, rb in rows:
                        key = jo + jb
                        out[key] = get(key, 0) + rs * rb
        acc = {j: row for j, raw in unband(out).items()
               if (row := reduce(raw))}
    elts = spec._elts
    result = {}
    for j, row in acc.items():
        dkey = (j & dmask, j >> wd)[:n]
        for x, v in enumerate(layout.decode(row)):
            if v:
                result[xkeys[x] + dkey] = elts[v]
    return result


def _pth_power_holds(d: WeylElement, lift, f, der) -> bool:
    """(d + lift(f))^p == d^p + lift(der) + lift(f^p) in the Weyl algebra of
    the generator d, with ``lift`` embedding f's polynomials into it."""
    p = f.ring.characteristic
    return (d + lift(f)) ** p == d ** p + lift(der) + lift(f ** p)


def verify_pth_power_identity(f: UniPoly) -> bool:
    """Brute-force check in A_1 that (d + f)^p = d^p + f^{(p-1)} + f^p, and
    that f^{(p-1)} = -a_{p-1}(x^p), where a_{p-1} is the top component of
    the base-p splitting of f, so that the right side is also
    d^p - a_{p-1}(x^p) + f^p.  Works over any coefficient ring of
    characteristic p (field or K[t])."""
    p = f.ring.characteristic
    der = f.derivative(p - 1)
    return (_pth_power_holds(WeylElement.d_gen(f.ring),
                             WeylElement.from_unipoly, f, der)
            and der == -f.p_decompose()[p - 1].expand_inner(f.var))


def verify_pth_power_identity_2vars(f: BiPoly, axis: int) -> bool:
    """The A_2 analogue: (d_i + f)^p = d_i^p + (d/dx_i)^{p-1} f + f^p for f a
    polynomial in the two commuting x-generators."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    return _pth_power_holds(WeylElement.d_gen(f.ring, axis, n=2),
                            WeylElement.from_xpoly2, f,
                            f.derivative(axis, f.ring.characteristic - 1))
