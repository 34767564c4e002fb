"""The int-coded product kernel: codecs, powers of UniPoly/BiPoly by
square-and-multiply, Weyl powers over fields as a chain on packed rows
(weyl._row_power), checked against the left fold of products, which runs
through the separate pair kernel, and Weyl commutators in one coded pass,
checked against the rewriting multiplier."""

import random
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylp import BiPoly, FieldSpec, PolyRing, UniPoly, WeylElement, weyl
from weylp.gfq import CODE_STRIDE, SUPPORTED_PRIMES
from weylp.weyl import _lucas_tables, _RowLayout, _row_scalars

from helpers import mul_by_rewriting

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F9 = FieldSpec(3, 2)        # small extension field
F13 = FieldSpec(13)
F13_3 = FieldSpec(13, 3)    # q = 2197
KT = PolyRing(F3)
# the fields of the row-chain property: every p-th power chain of the
# benchmark's grid, and the largest field of the claimed domain
ROW_FIELDS = [F2, F3, FieldSpec(2, 2), F9, F13, FieldSpec(13, 2),
              FieldSpec(7, 3), FieldSpec(13, 4)]

POWER_RINGS = [F2, F13, F9, F13_3, KT]


def all_top(ring):
    """-1 - g - ... - g^{n-1}: every coordinate at p - 1 (for K[t], the
    same in t)."""
    if isinstance(ring, PolyRing):
        t = ring.gen()
        return -(ring.one() + t + t * t)
    return ring.element([ring.p - 1] * ring.n)


def some_unit(ring):
    if isinstance(ring, PolyRing):
        return ring.gen() + ring.from_int(2)
    if ring.n > 1:
        return ring.gen() + ring.one()
    return ring.from_int(-2) if ring.p > 2 else ring.one()


def product_counter(monkeypatch, cls, ring):
    """Count cls._product calls over ``ring`` (K[t] coefficient products
    are UniPoly products too, over the base field)."""
    calls = []
    original = cls._product

    def counted(self, other):
        if self.ring is ring:
            calls.append(1)
        return original(self, other)
    monkeypatch.setattr(cls, "_product", counted)
    return calls


def sparse_poly(cls, ring):
    c, u = all_top(ring), some_unit(ring)
    if cls is UniPoly:
        return UniPoly(ring, {0: u, 1: c, 3: ring.one()})
    return BiPoly(ring, {(0, 0): u, (1, 0): c, (0, 2): ring.one(),
                         (1, 1): c})


class TestSparsePow:
    @pytest.mark.parametrize("cls", [UniPoly, BiPoly])
    @pytest.mark.parametrize("ring", [F3, F9, KT], ids=str)
    def test_fewest_products(self, monkeypatch, cls, ring):
        P = sparse_poly(cls, ring)
        repeated = [P.one(ring, P._shape())]
        for _ in range(9):
            repeated.append(repeated[-1] * P)
        calls = product_counter(monkeypatch, cls, ring)
        p = ring.characteristic
        for k in range(10):
            del calls[:]
            assert P ** k == repeated[k]
            # square-and-multiply per nonzero base-p digit e of k, and one
            # product per further nonzero digit; the Frobenius takes none
            digits = [k // p ** i % p for i in range(len(repeated))]
            nonzero = [e for e in digits if e]
            expected = sum(e.bit_length() + bin(e).count("1") - 2
                           for e in nonzero) + max(len(nonzero) - 1, 0)
            assert len(calls) == expected, k


def weyl_base(ring, n):
    c, u = all_top(ring), some_unit(ring)
    one = ring.one()
    if n == 1:
        return WeylElement(ring, {(1, 1): c, (0, 1): one, (2, 0): u,
                                  (0, 0): c}, 1)
    return WeylElement(ring, {(1, 0, 0, 1): c, (0, 0, 1, 0): one,
                              (0, 1, 0, 0): u, (0, 0, 0, 0): c}, 2)


def left_fold(a, k, mul=WeylElement.__mul__):
    """a * a * ... * a (k factors), multiplied from the left."""
    out = WeylElement.one(a.ring, a.n)
    for _ in range(k):
        out = mul(out, a)
    return out


@st.composite
def field_weyl_elements(draw):
    """An element of A_1 (up to 4 terms, exponents up to 3) or A_2 (up to 3
    terms, exponents up to 1) over one of ROW_FIELDS, and an exponent k <=
    p + 1."""
    ring = draw(st.sampled_from(ROW_FIELDS))
    n = draw(st.sampled_from([1, 2]))
    top = 3 if n == 1 else 1
    keys = draw(st.lists(st.tuples(*[st.integers(0, top)] * (2 * n)),
                         min_size=1, max_size=5 - n, unique=True))
    coeffs = {key: ring._elts[draw(st.integers(1, ring.q - 1))]
              for key in keys}
    return WeylElement(ring, coeffs, n), draw(st.integers(0, ring.p + 1))


class TestPackedWeylPower:
    @pytest.mark.parametrize("ring", POWER_RINGS, ids=str)
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_repeated_product(self, ring, n):
        w = weyl_base(ring, n)
        expected = WeylElement.one(ring, n)
        for k in range(ring.characteristic + 2):
            assert w ** k == expected, k
            expected = expected * w

    @pytest.mark.parametrize("ring", POWER_RINGS, ids=str)
    def test_a1_matches_rewriting_chain(self, ring):
        w = weyl_base(ring, 1)
        expected = WeylElement.one(ring, 1)
        for k in range(ring.characteristic + 2):
            assert w ** k == expected, k
            expected = mul_by_rewriting(expected, w)

    def test_zero_and_constants(self):
        zero = WeylElement.zero(F9, 2)
        assert zero ** 0 == WeylElement.one(F9, 2)
        assert (zero ** 3).is_zero()
        c = WeylElement.constant(F9, F9.gen())
        assert c ** 5 == WeylElement.constant(F9, F9.gen() ** 5)


class TestRowPower:
    @given(case=field_weyl_elements())
    @settings(max_examples=150, deadline=None)
    def test_matches_left_fold_of_products(self, case):
        a, k = case
        power = a ** k
        assert power == left_fold(a, k)
        if a.n == 1:
            assert power == left_fold(a, k, mul_by_rewriting)

    def test_all_top_dense_a2_base_at_p13_n4(self):
        # every coordinate at p - 1 on every term: the largest coefficients
        # a step can meet, over the field with the widest x-slots
        spec = FieldSpec(13, 4)
        keys = [(1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1),
                (0, 0, 0, 0), (1, 0, 0, 1)]
        a = WeylElement(spec, {key: all_top(spec) for key in keys}, 2)
        assert a ** 13 == left_fold(a, 13)

    @pytest.mark.parametrize("spec", [F13, FieldSpec(13, 4)], ids=str)
    def test_d_plus_degree_39_all_top(self, spec):
        # (d + f)^13 with deg f = 3p: 40 terms, the longest rows and the
        # largest bound of criterion 1's family
        f = WeylElement(spec, {(i, 0): all_top(spec) for i in range(40)}, 1)
        a = WeylElement.d_gen(spec) + f
        assert a ** 13 == left_fold(a, 13)

    @pytest.mark.parametrize("spec", ROW_FIELDS, ids=str)
    def test_reduction_at_its_bound(self, spec):
        p, n = spec.p, spec.n
        # the bound of a 40-term base over all p orders, as in (d + f)^p
        bound = p * 40 * n * (p - 1) ** 3 * (1 + (n - 1) * (p - 1))
        V, slots = bound.bit_length(), 6
        layout = _RowLayout(spec, bound, slots)
        assert layout.S >= V + layout.t + 1
        rng = random.Random(p * 10 + n)

        def packed(values):
            return sum(v << layout.X * x + layout.S * c
                       for x, slot in enumerate(values)
                       for c, v in enumerate(slot))

        def expected(values):
            return [spec.codec.value(sum(v << CODE_STRIDE * c
                                         for c, v in enumerate(slot)))
                    for slot in values]

        def reduced(values):
            # decode stops at the highest nonzero x-slot
            vals = list(layout.decode(layout.reduce(packed(values))))
            return vals + [0] * (slots - len(vals))

        # the Barrett step alone (nothing above g^{n-1} to fold): every
        # coordinate at 2^V - 1, then random ones below 2^V, per-slot % p
        top = (1 << V) - 1
        for values in ([[top] * n] * slots,
                       [[rng.randrange(1 << V) for _ in range(n)]
                        for _ in range(slots)]):
            row = layout.reduce(packed(values))
            for x, slot in enumerate(values):
                for c, v in enumerate(slot):
                    assert (row >> layout.X * x + layout.S * c
                            & (1 << layout.S) - 1) == v % p
            assert reduced(values) == expected(values)
        # the fold as well: all 2n - 1 coefficients at the largest value
        # whose fold stays below 2^V, then random ones below it
        raw = top // (1 + (n - 1) * (p - 1))
        for values in ([[raw] * (2 * n - 1)] * slots,
                       [[rng.randrange(raw + 1) for _ in range(2 * n - 1)]
                        for _ in range(slots)]):
            assert reduced(values) == expected(values)


def interned(value, spec) -> bool:
    return value.ring is spec and all(
        c is spec._elts[c.val] for c in value.coeffs.values())


class TestCodec:
    @pytest.mark.parametrize("p,n", [(3, 2), (13, 3)])
    def test_products_hand_back_own_interned_elements(self, p, n):
        # an equal FieldSpec built separately interns different objects
        mine, other = FieldSpec(p, n), FieldSpec(p, n)
        assert mine == other and mine._elts[1] is not other._elts[1]
        a = sparse_poly(UniPoly, mine)
        b = sparse_poly(UniPoly, other)
        assert interned(a * b, mine) and interned(b * a, other)
        A, B = sparse_poly(BiPoly, mine), sparse_poly(BiPoly, other)
        assert interned(A * B, mine) and interned(B * A, other)
        for rank in (1, 2):
            v, w = weyl_base(mine, rank), weyl_base(other, rank)
            assert interned(v * w, mine) and interned(w * v, other)
            assert interned(v ** p, mine)

    @pytest.mark.parametrize("p,n", [(3, 2), (13, 3)])
    def test_sums_hand_back_own_interned_elements(self, p, n):
        mine, other = FieldSpec(p, n), FieldSpec(p, n)
        pairs = [(sparse_poly(cls, mine), sparse_poly(cls, other) ** 2)
                 for cls in (UniPoly, BiPoly)]
        pairs += [(weyl_base(mine, rank), weyl_base(other, rank) ** 2)
                  for rank in (1, 2)]
        for a, b in pairs:
            # keys only the right operand has
            assert set(b.coeffs) - set(a.coeffs)
            assert interned(a + b, mine) and interned(b + a, other)
            assert interned(a - b, mine)

    @pytest.mark.parametrize("spec", [F13, F9, F13_3, FieldSpec(2, 4),
                                      FieldSpec(5, 4)], ids=str)
    def test_deferred_reduction_matches_field_arithmetic(self, spec):
        rng = random.Random(5)
        codec = spec.codec
        for e in spec.elements():
            assert codec.decode(codec.encode({0: e})).get(0, spec.zero()) is e
        for _ in range(200):
            terms = [(spec.random_element(rng), spec.random_element(rng))
                     for _ in range(rng.randint(1, 6))]
            acc = 0
            expected = spec.zero()
            for x, y in terms:
                cx, cy = codec.encode({0: x})[0], codec.encode({0: y})[0]
                acc += cx * cy
                expected = expected + x * y
            assert codec.decode({0: acc}).get(0, spec.zero()) is expected

    def test_stride_guard(self):
        codec = F13_3.codec
        codec.check_stride(2 ** CODE_STRIDE - 1)
        with pytest.raises(OverflowError, match="stride"):
            codec.check_stride(2 ** CODE_STRIDE + 1)
        with pytest.raises(OverflowError, match="stride"):
            codec.check_pairs(2 ** CODE_STRIDE)
        # codes of F_p have no stride
        F13.codec.check_pairs(2 ** 80)

    def test_codec_lives_on_its_ring(self):
        assert F9.codec is F9.codec
        assert FieldSpec(3, 2).codec is not F9.codec
        assert KT.codec is KT.codec


def random_term_map(rng, ring, arity, terms=4, top=2):
    """Up to ``terms`` random terms, zero coefficients included."""
    coeffs = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, top) for _ in range(arity))
        coeffs[key[0] if arity == 1 else key] = ring.random_element(rng)
    return coeffs


@pytest.mark.parametrize("ring", [F3, F9, F13_3, KT], ids=str)
def test_products_and_powers_hold_no_zero_coefficient(ring):
    # products and powers skip the constructor's zero filter, so their
    # codecs and the row decode must drop every zero themselves
    rng = random.Random(11)

    def no_zero(value):
        return all(not c.is_zero() for c in value.coeffs.values())

    one, x = UniPoly.one(ring), UniPoly.variable(ring)
    # cancellations: the x-coefficient of (x + 1)(x - 1), and (x + d)^p
    assert no_zero((x + one) * (x - one))
    xd = WeylElement.x_gen(ring) + WeylElement.d_gen(ring)
    for k in range(ring.characteristic + 2):
        assert no_zero(xd ** k)
    for _ in range(30):
        pairs = [(UniPoly(ring, random_term_map(rng, ring, 1)),
                  UniPoly(ring, random_term_map(rng, ring, 1))),
                 (BiPoly(ring, random_term_map(rng, ring, 2)),
                  BiPoly(ring, random_term_map(rng, ring, 2)))]
        pairs += [(WeylElement(ring, random_term_map(rng, ring, 2 * n), n),
                   WeylElement(ring, random_term_map(rng, ring, 2 * n), n))
                  for n in (1, 2)]
        for a, b in pairs:
            assert no_zero(a * b) and no_zero(b * a)
            assert no_zero(a ** rng.randint(0, 3))


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_lucas_tables(p):
    # the Weyl product looks binom(m, k) mod p up as binom[m % p][k], k < p
    binom, fact = _lucas_tables(p)
    for m in range(3 * p):
        for k in range(p):
            assert binom[m % p][k] == comb(m, k) % p
    assert fact == [factorial(k) % p for k in range(p)]
    # the row chain scales a row with d-exponents (j1, j2) by
    # k1! binom(j1, k1) k2! binom(j2, k2) mod p
    for k1, k2 in [(0, 0), (p - 1, 0), (1, p - 1), (p // 2, 1)]:
        scalars = _row_scalars(p, k1, k2)
        for j1 in range(2 * p):
            for j2 in range(2 * p):
                assert scalars[j1 % p + p * (j2 % p)] == (
                    factorial(k1) * comb(j1, k1) * factorial(k2)
                    * comb(j2, k2) % p)


# every field of the row-chain property, and K[t] over a prime and an
# extension field
COMMUTATOR_RINGS = ROW_FIELDS + [KT, PolyRing(FieldSpec(13, 2))]


class TestCommutator:
    """WeylElement.commutator runs the orders k != 0 of both products in one
    coded pass; the rewriting multiplier is its independent oracle."""

    @pytest.mark.parametrize("ring", COMMUTATOR_RINGS, ids=str)
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_rewriting(self, ring, n):
        rng = random.Random(31 + n)
        top = 2 * ring.characteristic if n == 1 else ring.characteristic
        zero, one = WeylElement.zero(ring, n), WeylElement.one(ring, n)
        for _ in range(6):
            a = WeylElement(ring, random_term_map(rng, ring, 2 * n, 5, top), n)
            b = WeylElement(ring, random_term_map(rng, ring, 2 * n, 5, top), n)
            c = WeylElement.constant(ring, ring.random_element(rng), n)
            for u, v in [(a, b), (b, a), (a, a), (a, zero), (zero, b),
                         (a, c), (c, b), (one, a)]:
                expected = mul_by_rewriting(u, v) - mul_by_rewriting(v, u)
                assert u.commutator(v) == expected

    def test_generators(self):
        for n in (1, 2):
            for ring in (F13, FieldSpec(13, 4), KT):
                x = [WeylElement.x_gen(ring, s, n) for s in range(n)]
                d = [WeylElement.d_gen(ring, s, n) for s in range(n)]
                one, zero = WeylElement.one(ring, n), WeylElement.zero(ring, n)
                for s in range(n):
                    for t in range(n):
                        assert d[s].commutator(x[t]) == (one if s == t
                                                         else zero)
                        assert x[s].commutator(d[t]) == (-one if s == t
                                                         else zero)
                        assert x[s].commutator(x[t]) == zero
                        assert d[s].commutator(d[t]) == zero

    def test_stride_guard_counts_both_products(self, monkeypatch):
        # x^3 d^3 against itself: orders 1, 2, 3 in each product, one pair
        # each, every operand coordinate times at most (p - 1)^2
        spec = FieldSpec(13, 2)
        a = WeylElement.monomial(spec, (3, 3), all_top(spec))
        guarded = []
        monkeypatch.setattr(spec.codec, "check_pairs",
                            lambda *args: guarded.append(args))
        a.commutator(a)
        assert guarded == [(6, 12 ** 2)]

    @pytest.mark.parametrize("ring", [F3, F9, FieldSpec(13, 2)], ids=str)
    def test_centrality_check_runs_through_the_product(self, monkeypatch,
                                                       ring):
        # a corrupted product kernel must make the commutator side of
        # is_central disagree with the support criterion
        p = ring.characteristic
        central = WeylElement(ring, {(p, 0): ring.one(), (0, 2 * p):
                                     ring.one()}, 1)
        plain = WeylElement.x_gen(ring) + WeylElement.d_gen(ring)
        assert central.is_central() and not plain.is_central()
        real = weyl._weyl_mul

        def spurious_one(codec, *args):
            acc = real(codec, *args)
            acc[0] = acc.get(0, codec.zero) + 1
            return acc

        monkeypatch.setattr(weyl, "_weyl_mul", spurious_one)
        with pytest.raises(AssertionError, match="centrality criteria"):
            central.is_central()
        monkeypatch.setattr(weyl, "_weyl_mul", lambda *args: {})
        with pytest.raises(AssertionError, match="centrality criteria"):
            plain.is_central()


class TestBandedRows:
    """A_2 row chains key their derivative rows by x2-band; sparse affine
    bases are the case the bands are for."""

    @pytest.mark.parametrize("spec", [FieldSpec(13, 2), FieldSpec(7, 3)],
                             ids=str)
    def test_affine_powers_match_rewriting(self, spec):
        rng = random.Random(7)
        keys = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                (0, 0, 0, 0)]
        for keep in (keys, keys[1:], [keys[1], keys[2], keys[4]]):
            a = WeylElement(spec, {key: spec.random_nonzero(rng)
                                   for key in keep}, 2)
            assert a ** spec.p == left_fold(a, spec.p, mul_by_rewriting)

    def test_bands_and_x1_slots_of_a_dense_row(self):
        # x2-exponents 0, 1 and 3: derivative rows in up to three bands
        spec = FieldSpec(13, 2)
        a = WeylElement(spec, {(2, 3, 0, 0): all_top(spec),
                               (0, 3, 1, 0): spec.gen(),
                               (2, 0, 0, 1): spec.one(),
                               (1, 1, 1, 1): all_top(spec)}, 2)
        assert a ** 4 == left_fold(a, 4, mul_by_rewriting)


@pytest.mark.parametrize("ring", [F3, F9, F13_3, KT], ids=str)
def test_negation_and_scaling_hold_no_zero_coefficient(ring):
    # negation and scaling skip the constructor's zero filter
    rng = random.Random(13)
    for _ in range(20):
        for value in (UniPoly(ring, random_term_map(rng, ring, 1)),
                      BiPoly(ring, random_term_map(rng, ring, 2)),
                      WeylElement(ring, random_term_map(rng, ring, 4), 2)):
            c = ring.random_element(rng)
            for out in (-value, value.scale(c), value * ring.characteristic,
                        value * (ring.characteristic + 1)):
                assert all(not v.is_zero() for v in out.coeffs.values())
            assert value.scale(ring.zero()).is_zero()
            assert (-value).coeffs.keys() == value.coeffs.keys()


@pytest.mark.parametrize("ring", [F3, F9, F13_3, KT], ids=str)
def test_sums_that_cancel_hold_no_zero_coefficient(ring):
    # a sum drops the keys that cancel itself, without the constructor's
    # zero filter; a K[t] coefficient can also cancel in part
    rng = random.Random(17)
    for _ in range(20):
        for arity, make in ((1, lambda c: UniPoly(ring, c)),
                            (2, lambda c: BiPoly(ring, c)),
                            (4, lambda c: WeylElement(ring, c, 2))):
            a = make(random_term_map(rng, ring, arity))
            assert (a + -a).is_zero() and (a - a).is_zero()
            cancel = {k: -c for k, c in a.coeffs.items() if rng.random() < 0.5}
            for b in (make(cancel),
                      make({**random_term_map(rng, ring, arity), **cancel})):
                total = a + b
                assert all(not c.is_zero() for c in total.coeffs.values())
                # the constructor's filter, on the sums of the coefficients
                assert total == make({k: a.coefficient(k) + b.coefficient(k)
                                      for k in {**a.coeffs, **b.coeffs}})
