import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylp import FieldSpec
from weylp.gfq import default_modulus, is_irreducible

from helpers import field_mul_schoolbook, field_pow_schoolbook

FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec(13),
          FieldSpec(2, 2, (1, 1, 1)), FieldSpec(3, 2), FieldSpec(5, 2),
          FieldSpec(2, 4), FieldSpec(7, 2)]

field_st = st.sampled_from(FIELDS)


class TestConstruction:
    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            FieldSpec(4)
        with pytest.raises(ValueError):
            FieldSpec(17)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            FieldSpec(2, 0)
        with pytest.raises(ValueError):
            FieldSpec(2, 5)

    def test_rejects_reducible_modulus(self):
        # g^2 + 1 = (g+1)^2 over F_2
        with pytest.raises(ValueError):
            FieldSpec(2, 2, (1, 0, 1))

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            FieldSpec(3, 2, (1, 0, 2))

    def test_default_modulus_is_irreducible(self):
        for p in (2, 3, 5, 7, 11, 13):
            for n in (2, 3, 4):
                mod = default_modulus(p, n)
                assert mod[-1] == 1 and len(mod) == n + 1
                assert is_irreducible(mod, p)

    def test_degree_four_modulus_check_catches_quadratic_square(self):
        # (g^2+g+1)^2 = g^4+g^2+1 over F_2 has no roots but is reducible
        assert not is_irreducible((1, 0, 1, 0, 1), 2)
        # x^4 + x + 1 is irreducible over F_2
        assert is_irreducible((1, 1, 0, 0, 1), 2)

    def test_irreducible_count_matches_gauss_formula(self):
        # monic irreducibles of degree n over F_p number
        # (1/n) sum_{d | n} mu(d) p^(n/d); n = 4 at p = 11, 13 is left out
        # for time (14,641 and 28,561 candidates)
        mobius = {1: 1, 2: -1, 3: -1, 4: 0}
        for p in (2, 3, 5, 7, 11, 13):
            for n in range(1, 5):
                if n == 4 and p > 7:
                    continue
                expected = sum(mobius[d] * p ** (n // d)
                               for d in mobius if n % d == 0) // n
                found = sum(
                    is_irreducible(tuple(low) + (1,), p)
                    for low in itertools.product(range(p), repeat=n))
                assert found == expected, (p, n)

    def test_spec_equality_and_str(self):
        a = FieldSpec(2, 2, (1, 1, 1))
        b = FieldSpec(2, 2, (1, 1, 1))
        assert a == b and hash(a) == hash(b)
        assert str(a) == "p=2,n=2,mod=g^2+g+1"
        assert str(FieldSpec(5)) == "p=5"


class TestArithmetic:
    def test_char_two(self, f2):
        assert f2.one() + f2.one() == f2.zero()

    def test_f4_generator_square(self, f4):
        g = f4.gen()
        assert g * g == g + f4.one()

    def test_inv_in_f3(self, f3):
        assert f3.from_int(2).inv() == f3.from_int(2)

    def test_division_by_zero(self, f3):
        with pytest.raises(ZeroDivisionError):
            f3.zero().inv()
        with pytest.raises(ZeroDivisionError):
            f3.one() / f3.zero()

    def test_spec_mismatch_is_hard_error(self, f2, f3):
        with pytest.raises(ValueError):
            f2.one() + f3.one()
        with pytest.raises(ValueError):
            f2.one() * f3.one()

    def test_equal_specs_interoperate(self):
        a = FieldSpec(3, 2)
        b = FieldSpec(3, 2)
        assert a is not b
        assert a.gen() + b.gen() == a.gen() * 2

    @given(field=field_st, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_field_axioms(self, field, data):
        vals = st.integers(min_value=0, max_value=field.q - 1)
        a = field._elts[data.draw(vals)]
        b = field._elts[data.draw(vals)]
        c = field._elts[data.draw(vals)]
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        assert a + field.zero() == a and a * field.one() == a
        assert a + (-a) == field.zero()
        if not b.is_zero():
            assert b * b.inv() == field.one()

    @given(field=field_st, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_frobenius_is_field_homomorphism(self, field, data):
        vals = st.integers(min_value=0, max_value=field.q - 1)
        a = field._elts[data.draw(vals)]
        b = field._elts[data.draw(vals)]
        assert a.frobenius() == a ** field.p
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()

    @given(field=field_st, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_inv_frobenius_inverts_frobenius(self, field, data):
        a = field._elts[data.draw(
            st.integers(min_value=0, max_value=field.q - 1))]
        assert a.frobenius().inv_frobenius() == a
        assert a.inv_frobenius().frobenius() == a


class TestFrobeniusExamples:
    def test_prime_field_fixed(self, f3):
        assert f3.from_int(2).frobenius() == f3.from_int(2)

    def test_f4_gen(self, f4):
        g = f4.gen()
        assert g.frobenius() == g * g
        assert (g * g).inv_frobenius() == g

    def test_one_fixed(self, f2):
        assert f2.one().frobenius() == f2.one()

    def test_zero_root(self, f4):
        assert f4.zero().inv_frobenius() == f4.zero()

    def test_prime_field_root_identity(self, f5):
        for a in f5.elements():
            assert a.inv_frobenius() == a


class TestPrinting:
    def test_prime_field_bare_integers(self, f5):
        assert str(f5.from_int(3)) == "3"
        assert str(f5.zero()) == "0"

    def test_extension_ascending(self, f4):
        g = f4.gen()
        assert str(g + f4.one()) == "1+g"
        assert str(g) == "g"
        assert str(f4.zero()) == "0"

    def test_bigger_extension(self):
        f8 = FieldSpec(2, 3)
        g = f8.gen()
        assert str(g ** 2 + f8.one()) == "1+g^2"

    def test_coefficient_display(self):
        f9 = FieldSpec(3, 2)
        g = f9.gen()
        assert str(g * 2 + f9.one()) == "1+2*g"


def test_interning_and_no_tables_path():
    big = FieldSpec(13, 3)  # q = 2197
    rng = random.Random(7)
    for _ in range(50):
        a, b = big.random_element(rng), big.random_element(rng)
        assert (a * b) is (b * a)  # interned results
        assert (a + b) - b == a
        if not a.is_zero():
            assert a * a.inv() == big.one()
        assert a.frobenius().inv_frobenius() == a


@pytest.mark.parametrize("p,n", [(13, 1), (2, 2), (3, 2), (2, 4), (7, 2),
                                 (13, 2), (7, 3), (13, 4)])
def test_arithmetic_matches_schoolbook_oracle(p, n):
    # every pair up to q = 169, 2,000 seeded pairs beyond
    spec = FieldSpec(p, n)
    if spec.q <= 169:
        pairs = list(itertools.product(spec.elements(), repeat=2))
        singles = list(spec.elements())
    else:
        rng = random.Random(p * 10 + n)
        pairs = [(spec.random_element(rng), spec.random_element(rng))
                 for _ in range(2000)]
        singles = [a for a, _ in pairs]
    for a, b in pairs:
        x, y = a.coeffs, b.coeffs
        assert a + b is spec.element([(u + v) % p for u, v in zip(x, y)])
        assert a - b is spec.element([(u - v) % p for u, v in zip(x, y)])
        assert a * b is spec.element(field_mul_schoolbook(spec, x, y))
    one = spec.one().coeffs
    for a in singles:
        x = a.coeffs
        assert -a is spec.element([-u % p for u in x])
        if a:
            assert field_mul_schoolbook(spec, x, a.inv().coeffs) == one
        assert a.frobenius() is spec.element(field_pow_schoolbook(spec, x, p))
        root = a.inv_frobenius().coeffs
        assert field_pow_schoolbook(spec, root, p) == x


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (13, 1)])
def test_pow_matches_schoolbook_oracle(p, n):
    spec = FieldSpec(p, n)
    one = spec.one().coeffs
    assert spec.zero() ** 0 is spec.one()
    for a in spec.elements():
        x = a.coeffs
        for e in range(2 * spec.q + 1):
            assert a ** e is spec.element(field_pow_schoolbook(spec, x, e))
        if a:
            for e in range(1, 4):
                assert field_mul_schoolbook(
                    spec, (a ** -e).coeffs,
                    field_pow_schoolbook(spec, x, e)) == one


class TestMixedOperands:
    """Ints on either side are read mod p; other operands are refused."""

    F5 = FieldSpec(5)

    def test_int_operands(self):
        a = self.F5.from_int(2)
        assert 3 - a == self.F5.one()
        assert a == 7

    @pytest.mark.parametrize("op", [lambda a: a - "x", lambda a: a ** 1.5],
                             ids=["sub-str", "pow-float"])
    def test_other_operands_refused(self, op):
        with pytest.raises(TypeError):
            op(self.F5.from_int(2))

    def test_repr(self):
        assert repr(FieldSpec(3)) == "FieldSpec(p=3)"
