"""The int-coded product kernel: codecs, powers of UniPoly/BiPoly by
square-and-multiply, and Weyl powers that stay packed and coded from the
first factor to the last."""

import random
from math import comb, factorial

import pytest

from weylp import BiPoly, FieldSpec, PolyRing, UniPoly, WeylElement
from weylp.gfq import CODE_STRIDE, SUPPORTED_PRIMES
from weylp.weyl import _lucas_tables

from helpers import mul_by_rewriting

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F9 = FieldSpec(3, 2)        # small extension field
F13 = FieldSpec(13)
F13_3 = FieldSpec(13, 3)    # q = 2197
KT = PolyRing(F3)

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
        for k in range(10):
            del calls[:]
            assert P ** k == repeated[k]
            expected = k.bit_length() + bin(k).count("1") - 2 if k else 0
            assert len(calls) == expected, k


def weyl_base(ring, n):
    c, u = all_top(ring), some_unit(ring)
    one = ring.one()
    if n == 1:
        return WeylElement(ring, {(1, 1): c, (0, 1): one, (2, 0): u,
                                  (0, 0): c}, 1)
    return WeylElement(ring, {(1, 0, 0, 1): c, (0, 0, 1, 0): one,
                              (0, 1, 0, 0): u, (0, 0, 0, 0): c}, 2)


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
            reduced = codec.reduce({0: acc})
            assert reduced == ({} if expected.is_zero()
                               else codec.encode({0: expected}))

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


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_lucas_tables(p):
    # the Weyl product looks binom(m, k) mod p up as binom[m % p][k], k < p
    binom, fact = _lucas_tables(p)
    for m in range(3 * p):
        for k in range(p):
            assert binom[m % p][k] == comb(m, k) % p
    assert fact == [factorial(k) % p for k in range(p)]
