import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylp import (FieldSpec, PolyRing, UniPoly, delta, delta_geometric,
                   delta_iterated, pi_component, pi_component_via_operators,
                   theta, theta_inverse, theta_inverse_oracle, xp_components)

from helpers import random_unipoly_exact

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2, (1, 1, 1))
F5 = FieldSpec(5)

FIELDS = (F2, F3, F5, F4, FieldSpec(3, 2), FieldSpec(5, 2))


def rand_poly(rng, spec, max_deg):
    return random_unipoly_exact(rng, spec, rng.randint(0, max_deg))


def rand_xp2_poly(rng, spec, max_idx):
    p2 = spec.p ** 2
    return UniPoly(spec, {p2 * rng.randint(0, max_idx):
                          spec.random_element(rng) for _ in range(4)})


class TestTheta:
    def test_examples(self):
        x2, x3 = UniPoly.variable(F2), UniPoly.variable(F3)
        assert theta(x2) == x2 ** 2 + UniPoly.one(F2)
        assert theta(x3) == x3 ** 3
        assert theta(UniPoly.one(F3)) == UniPoly.one(F3)

    def test_additive(self):
        rng = random.Random(2)
        for spec in FIELDS:
            for _ in range(15):
                f = rand_poly(rng, spec, 12)
                g = rand_poly(rng, spec, 12)
                assert theta(f + g) == theta(f) + theta(g)

    def test_filtration_and_leading_term(self):
        rng = random.Random(3)
        for spec in FIELDS:
            p = spec.p
            for _ in range(15):
                f = rand_poly(rng, spec, 9)
                if f.is_zero():
                    continue
                g = theta(f)
                df, cf = f.leading_term()
                assert g.leading_term() == (p * df, cf ** p)

    def test_defined_over_polynomial_ring(self):
        ring = PolyRing(F2)
        t = ring.gen()
        f = UniPoly(ring, {1: t}, "x")
        assert theta(f) == UniPoly(ring, {2: t ** 2, 0: t}, "x")


class TestPiComponent:
    def test_examples(self):
        x = UniPoly.variable(F2)
        g = x ** 4 + x ** 2
        assert pi_component(g, 0) == x ** 4
        assert pi_component(g, 1) == UniPoly.one(F2)
        zero = UniPoly.zero(F5)
        assert all(pi_component(zero, i).is_zero() for i in range(5))
        x3 = UniPoly.variable(F3)
        g3 = x3 ** 9 + (x3 ** 3) * 2
        assert pi_component(g3, 0) == x3 ** 9
        assert pi_component(g3, 1) == UniPoly.constant(F3, 2)
        assert pi_component(g3, 2).is_zero()

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            pi_component(UniPoly.variable(F3), 0)  # not in K[x^p]
        with pytest.raises(ValueError):
            pi_component(UniPoly.zero(F3), 3)  # index out of range

    def test_operator_formula_agrees(self):
        rng = random.Random(5)
        for spec in FIELDS:
            p = spec.p
            for _ in range(20):
                g = UniPoly(spec, {p * rng.randint(0, 3 * p):
                                   spec.random_element(rng)
                                   for _ in range(5)})
                for i in range(p):
                    assert pi_component(g, i) == \
                        pi_component_via_operators(g, i)

    def test_components_reassemble(self):
        rng = random.Random(6)
        for spec in (F2, F3, F5):
            p = spec.p
            for _ in range(10):
                g = UniPoly(spec, {p * rng.randint(0, 12):
                                   spec.random_element(rng)
                                   for _ in range(6)})
                parts = xp_components(g)
                total = UniPoly.zero(spec)
                for i, part in enumerate(parts):
                    total = total + part.shift(p * i)
                assert total == g


class TestDelta:
    def test_examples(self):
        x = UniPoly.variable(F2)
        assert delta(x ** 4) == UniPoly.one(F2)
        assert delta(UniPoly.constant(F2, 1)).is_zero()
        assert delta(x ** 12) == x ** 4

    def test_geometric_examples(self):
        x = UniPoly.variable(F2)
        assert delta_geometric(UniPoly.constant(F3, 2)) == \
            UniPoly.constant(F3, 2)
        assert delta_geometric(x ** 4) == x ** 4 + UniPoly.one(F2)
        assert delta_geometric(UniPoly.zero(F5)).is_zero()

    def test_iterated_closed_form(self):
        rng = random.Random(7)
        for spec in FIELDS:
            for _ in range(20):
                g = rand_xp2_poly(rng, spec, 30)
                cur = g
                for n in (1, 2, 3):
                    cur = delta(cur)
                    assert cur == delta_iterated(g, n)

    def test_support_checked(self):
        with pytest.raises(ValueError):
            delta(UniPoly.variable(F2) ** 2)  # x^2 not in K[x^4]


class TestThetaInverse:
    def test_examples(self):
        x2, x3 = UniPoly.variable(F2), UniPoly.variable(F3)
        assert theta_inverse(x2 ** 2) == x2 + UniPoly.one(F2)
        assert theta_inverse(UniPoly.constant(F2, 1)) == UniPoly.one(F2)
        assert theta_inverse(x3 ** 3) == x3
        assert theta_inverse_oracle(x2 ** 4) == x2 ** 2
        assert theta_inverse_oracle(UniPoly.zero(F3)).is_zero()

    def test_constant_pth_root(self):
        g = F4.gen()
        c = UniPoly.constant(F4, g)
        # theta(c^(1/p)) = c for constants
        assert theta(theta_inverse(c)) == c

    @given(data=st.data(), spec=st.sampled_from(FIELDS))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip(self, data, spec):
        rng = random.Random(data.draw(st.integers(0, 10**9)))
        f = rand_poly(rng, spec, 3 * spec.p ** 2)
        g = theta(f)
        assert theta_inverse(g) == f
        assert theta_inverse_oracle(g) == f

    def test_closed_form_equals_oracle_on_arbitrary_xp_input(self):
        rng = random.Random(8)
        for spec in FIELDS:
            p = spec.p
            for _ in range(20):
                g = UniPoly(spec, {p * rng.randint(0, 3 * p * p):
                                   spec.random_element(rng)
                                   for _ in range(6)})
                f1 = theta_inverse(g)
                assert f1 == theta_inverse_oracle(g)
                assert theta(f1) == g

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            theta_inverse(UniPoly.variable(F2))
        with pytest.raises(ValueError):
            theta_inverse_oracle(UniPoly.variable(F3) ** 4)

    def test_refuses_non_field(self):
        ring = PolyRing(F2)
        g = UniPoly(ring, {2: ring.one()}, "x")
        with pytest.raises(ValueError):
            theta_inverse(g)
        with pytest.raises(ValueError):
            theta_inverse_oracle(g)


@pytest.mark.parametrize("spec", [FieldSpec(13), FieldSpec(13, 2)], ids=str)
def test_theta_inverse_with_one_nonzero_component(spec):
    # g = sum mu_i x^{pi}: every other mu_i is zero, the case theta_inverse
    # skips component by component
    rng = random.Random(13)
    p = spec.p
    for i in range(p):
        for top in range(3):
            g = UniPoly(spec, {p * i + p * p * m: spec.random_nonzero(rng)
                               for m in range(top + 1)}, "x")
            assert sum(not mu.is_zero() for mu in xp_components(g)) == 1
            f = theta_inverse(g)
            assert theta(f) == g
            assert f == theta_inverse_oracle(g)


def test_delta_iterated_zero_times_is_the_argument():
    g = UniPoly.variable(F3) ** 9
    assert delta_iterated(g, 0) is g
