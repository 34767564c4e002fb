import random

import pytest

from weylp import (BiPoly, FieldSpec, PolyRing, UniPoly, WeylElement,
                   verify_pth_power_identity, verify_pth_power_identity_2vars)

from helpers import mul_by_rewriting, random_unipoly_exact

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2, (1, 1, 1))
F5 = FieldSpec(5)
F7 = FieldSpec(7)


def rand_weyl(rng, spec, n=1, terms=5, max_exp=5):
    coeffs = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, max_exp) for _ in range(2 * n))
        coeffs[key] = spec.random_element(rng)
    return WeylElement(spec, coeffs, n)


def full_slots_weyl(rng, spec, k, n=1):
    """Every exponent vector with entries 0 or 2^k - 1, nonzero random
    coefficients."""
    top = 2 ** k - 1
    keys = [()]
    for _ in range(2 * n):
        keys = [key + (e,) for key in keys for e in (0, top)]
    return WeylElement(spec, {key: spec.random_nonzero(rng) for key in keys},
                       n)


class TestMul:
    def test_defining_relation(self):
        for spec in (F2, F3, F5, F4):
            x = WeylElement.x_gen(spec)
            d = WeylElement.d_gen(spec)
            assert d * x == x * d + WeylElement.one(spec)
            assert d.commutator(x) == WeylElement.one(spec)

    def test_normal_product_untouched(self, f3=F3):
        x = WeylElement.x_gen(f3)
        d = WeylElement.d_gen(f3)
        assert x * d == WeylElement(f3, {(1, 1): f3.one()})

    def test_char_two_commutation(self):
        x = WeylElement.x_gen(F2)
        d = WeylElement.d_gen(F2)
        # d^2 x = x d^2 + 2 d = x d^2
        assert d * d * x == x * d * d

    def test_matches_rewriting_oracle(self):
        rng = random.Random(17)
        for spec in (F2, F3, F5, F4):
            for _ in range(40):
                a = rand_weyl(rng, spec)
                b = rand_weyl(rng, spec)
                assert a * b == mul_by_rewriting(a, b)

    def test_associative(self):
        rng = random.Random(18)
        for spec in (F2, F3, F7):
            for _ in range(25):
                a, b, c = (rand_weyl(rng, spec, terms=4, max_exp=4)
                           for _ in range(3))
                assert (a * b) * c == a * (b * c)

    def test_a2_axes_commute(self):
        x1 = WeylElement.x_gen(F3, 0, 2)
        x2 = WeylElement.x_gen(F3, 1, 2)
        d1 = WeylElement.d_gen(F3, 0, 2)
        d2 = WeylElement.d_gen(F3, 1, 2)
        one = WeylElement.one(F3, 2)
        zero = WeylElement.zero(F3, 2)
        assert d1.commutator(x1) == one and d2.commutator(x2) == one
        for a, b in ((x1, x2), (d1, d2), (d1, x2), (d2, x1)):
            assert a.commutator(b) == zero

    def test_a2_matches_a1_on_single_axis(self):
        rng = random.Random(19)
        for _ in range(20):
            a1 = rand_weyl(rng, F3, n=1, terms=4)
            b1 = rand_weyl(rng, F3, n=1, terms=4)
            lift = lambda w: WeylElement(
                F3, {(i, 0, j, 0): c for (i, j), c in w.coeffs.items()}, 2)
            assert lift(a1) * lift(b1) == lift(a1 * b1)

    def test_packed_keys_do_not_carry(self):
        # exponents 2^k - 1 fill every bit of their slot, so a packing width
        # too narrow for the sums would carry into the neighbouring slot
        rng = random.Random(43)
        for spec in (F2, F3, F5, F4):
            for k in (1, 2, 3, 4, 5):
                a = full_slots_weyl(rng, spec, k)
                b = full_slots_weyl(rng, spec, k)
                unit = full_slots_weyl(rng, spec, 1)
                assert a * b == mul_by_rewriting(a, b)
                assert a * unit == mul_by_rewriting(a, unit)
                assert unit * a == mul_by_rewriting(unit, a)

    def test_packed_keys_do_not_carry_a2(self):
        rng = random.Random(47)
        for spec in (F2, F3):
            for k in (1, 2, 3):
                a, b = (full_slots_weyl(rng, spec, k, n=2) for _ in range(2))
                c = full_slots_weyl(rng, spec, 1, n=2)
                assert (a * b) * c == a * (b * c)
                assert (c * a) * b == c * (a * b)

    def test_packed_keys_do_not_carry_over_polynomial_ring(self):
        ring = PolyRing(F3)
        t = ring.gen()
        top = 2 ** 3 - 1
        a = WeylElement(ring, {(top, top): t, (top, 0): ring.one(),
                               (0, top): t + ring.one(), (1, 1): t ** 2}, 1)
        b = WeylElement(ring, {(top, top): ring.one(), (1, 0): t,
                               (0, 1): ring.from_int(2)}, 1)
        assert a * b == mul_by_rewriting(a, b)
        assert b * a == mul_by_rewriting(b, a)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            WeylElement.x_gen(F2) * WeylElement.x_gen(F2, 0, 2)

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            WeylElement.x_gen(F2) * WeylElement.x_gen(F3)


class TestPow:
    def test_spec_examples(self):
        x = WeylElement.x_gen(F2)
        d = WeylElement.d_gen(F2)
        assert (d + x) ** 2 == d * d + x * x + WeylElement.one(F2)
        assert x ** 2 == WeylElement(F2, {(2, 0): F2.one()})
        x3 = WeylElement.x_gen(F3)
        d3 = WeylElement.d_gen(F3)
        expected = d3 ** 3 + x3 ** 6 + WeylElement.constant(F3, 2)
        assert (d3 + x3 ** 2) ** 3 == expected


class TestCentre:
    def test_examples(self):
        x3 = WeylElement.x_gen(F3)
        assert (x3 ** 3).is_central()
        assert not x3.is_central()
        c = WeylElement.x_gen(F2) ** 2 * WeylElement.d_gen(F2) ** 2 \
            + WeylElement.one(F2)
        assert c.is_central()

    def test_criteria_agree_on_planted_elements(self):
        rng = random.Random(23)
        for spec in (F2, F3, F5):
            p = spec.p
            for _ in range(30):
                # central part
                central = WeylElement(
                    spec, {(p * rng.randint(0, 3), p * rng.randint(0, 3)):
                           spec.random_element(rng) for _ in range(3)})
                assert central.is_central()
                # spoil it
                spoiled = central + WeylElement.monomial(
                    spec, (1, 0), spec.one())
                assert not spoiled.is_central()

    def test_to_center_examples(self):
        p = F3.p
        x = WeylElement.x_gen(F3)
        assert (x ** (2 * p)).to_center() == \
            BiPoly(F3, {(2, 0): F3.one()})
        d2 = WeylElement.d_gen(F2)
        x2 = WeylElement.x_gen(F2)
        val = d2 ** 2 + x2 ** 2 + WeylElement.one(F2)
        X, Y = BiPoly.gens(F2)
        assert val.to_center() == Y + X + BiPoly.one(F2)
        with pytest.raises(ValueError):
            (x2 * d2).to_center()

    def test_to_center_roundtrip(self):
        rng = random.Random(29)
        for spec in (F2, F3, F4):
            p = spec.p
            x = WeylElement.x_gen(spec)
            d = WeylElement.d_gen(spec)
            for _ in range(20):
                z = WeylElement(
                    spec, {(p * rng.randint(0, 3), p * rng.randint(0, 3)):
                           spec.random_element(rng) for _ in range(4)})
                back = z.to_center().substitute(x ** p, d ** p)
                assert back == z

    def test_to_center_a2_unsupported(self):
        w = WeylElement.one(F2, 2)
        with pytest.raises(ValueError):
            w.to_center()


class TestPthPowerIdentity:
    def test_spec_examples(self):
        assert verify_pth_power_identity(UniPoly.variable(F2))
        assert verify_pth_power_identity(UniPoly.constant(F5, 3))
        assert verify_pth_power_identity(UniPoly.variable(F3) ** 2)

    def test_random_fields(self):
        rng = random.Random(31)
        for spec in (F2, F3, F5, F4, FieldSpec(3, 2)):
            for _ in range(15):
                f = random_unipoly_exact(rng, spec,
                                         rng.randint(0, 3 * spec.p))
                assert verify_pth_power_identity(f)

    def test_over_polynomial_ring(self):
        for base in (F2, F3):
            ring = PolyRing(base)
            rng = random.Random(37)
            for _ in range(10):
                deg = rng.randint(0, 2 * base.p)
                coeffs = {e: ring.random_element(rng) for e in range(deg + 1)}
                f = UniPoly(ring, coeffs, "x")
                assert verify_pth_power_identity(f)


class TestA2Identity:
    def test_spec_examples(self):
        f = BiPoly(F2, {(1, 1): F2.one()}, ("x1", "x2"))
        assert verify_pth_power_identity_2vars(f, 0)
        const = BiPoly.constant(F3, 2, ("x1", "x2"))
        assert verify_pth_power_identity_2vars(const, 0)
        f2 = BiPoly(F3, {(2, 1): F3.one()}, ("x1", "x2"))
        assert verify_pth_power_identity_2vars(f2, 0)

    def test_explicit_value(self):
        # (d1 + x1 x2)^2 = d1^2 + x2 + x1^2 x2^2 over F_2
        f = BiPoly(F2, {(1, 1): F2.one()}, ("x1", "x2"))
        d1 = WeylElement.d_gen(F2, 0, 2)
        lhs = (d1 + WeylElement.from_xpoly2(f)) ** 2
        expected = (d1 ** 2
                    + WeylElement.monomial(F2, (0, 1, 0, 0), F2.one(), 2)
                    + WeylElement.monomial(F2, (2, 2, 0, 0), F2.one(), 2))
        assert lhs == expected

    def test_random(self):
        rng = random.Random(41)
        for spec in (F2, F3):
            for _ in range(10):
                coeffs = {(rng.randint(0, 3), rng.randint(0, 3)):
                          spec.random_element(rng) for _ in range(4)}
                f = BiPoly(spec, coeffs, ("x1", "x2"))
                assert verify_pth_power_identity_2vars(f, rng.randrange(2))


class TestPrinting:
    def test_canonical(self):
        x = WeylElement.x_gen(F2)
        d = WeylElement.d_gen(F2)
        assert str(d * x) == "x*d+1"
        assert str(x * d) == "x*d"
        assert str((d + x) ** 2) == "x^2+d^2+1"
        assert str(WeylElement.zero(F2)) == "0"

    def test_a2(self):
        w = WeylElement.monomial(F3, (1, 2, 0, 1), F3.from_int(2), 2)
        assert str(w) == "2*x1*x2^2*d2"
