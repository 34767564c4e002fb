"""Set-up paid once: the inverses and texts an F_{p^n} element keeps, the
fold each field builds once (FieldCodec.value), the plans of Weyl brackets
kept per shape (weyl._weyl_orders); and powers of UniPoly and BiPoly by the
base-p digits of the exponent, through the Frobenius."""

import pickle
import random
from functools import lru_cache

import pytest

from weylp import BiPoly, FieldSpec, UniPoly, WeylElement, weyl
from weylp.gfq import CODE_STRIDE, _g_str
from weylp.poly import PolyRing, random_unipoly
from weylp.weyl import jacobian

from helpers import mul_by_rewriting

F3, F5 = FieldSpec(3), FieldSpec(5)
F4, F8, F9 = FieldSpec(2, 2), FieldSpec(2, 3), FieldSpec(3, 2)
F25, F49 = FieldSpec(5, 2), FieldSpec(7, 2)
KT = PolyRing(F3)


@lru_cache(maxsize=None)
def f13_4():
    return FieldSpec(13, 4)


def check_kept(spec, elements):
    """Each element's inverse and text: right, and kept."""
    for a in elements:
        text = str(a)
        assert text == _g_str(a.coeffs)
        assert str(a) is text
        if a:
            inv = a.inv()
            assert a * inv is spec.one()
            assert a.inv() is inv


class TestKeptValues:
    @pytest.mark.parametrize("spec", [F4, F8, F9, F25, F49], ids=str)
    def test_every_element(self, spec):
        check_kept(spec, list(spec.elements()))

    def test_seeded_elements_of_a_large_field(self):
        spec = f13_4()
        rng = random.Random(134)
        check_kept(spec, [spec.random_element(rng) for _ in range(500)])

    def test_lists_are_allocated_on_first_use(self):
        spec = FieldSpec(13, 3)
        assert spec._invs is None and spec._texts is None
        a = spec.gen()
        assert (a.inv() * a).val == 1
        assert len(spec._invs) == spec.q and spec._texts is None
        assert [i for i, v in enumerate(spec._invs) if v] == [a.val]

    def test_zero_has_no_inverse_and_none_is_kept(self):
        spec = FieldSpec(3, 2)
        for _ in range(2):
            with pytest.raises(ZeroDivisionError, match="division by zero"):
                spec.zero().inv()
            assert spec._invs is not None and spec._invs[0] is None
        with pytest.raises(ZeroDivisionError):
            spec.one() / spec.zero()
        assert spec._invs[0] is None
        assert spec.one().inv() is spec.one()

    def test_a_copy_keeps_working(self):
        spec = FieldSpec(7, 2)
        a = spec.gen()
        text, inv = str(a), a.inv()
        copy = pickle.loads(pickle.dumps(spec))
        b = copy.gen()
        assert str(b) == text and b.inv().val == inv.val
        assert (b * b.inv()) is copy.one()


class TestOwnFieldFirst:
    """The binary operators take an element of their own FieldSpec before
    coercing; everything else behaves as TestMixedOperands pins it."""

    @pytest.mark.parametrize("spec", [F5, F9], ids=str)
    def test_int_operands(self, spec):
        a = spec.gen() + 2
        assert a + 3 is a + spec.from_int(3)
        assert 3 + a is a + 3
        assert 3 - a is spec.from_int(3) - a
        assert a - 3 is a + spec.from_int(-3)
        assert a * 3 is 3 * a is a + a + a
        assert spec.from_int(2) == 2 + spec.p and spec.gen() != 2 + spec.p

    @pytest.mark.parametrize(
        "op", [lambda a: a + "s", lambda a: "s" - a, lambda a: a - "s",
               lambda a: a * "s", lambda a: a / "s"],
        ids=["add", "rsub", "sub", "mul", "div"])
    def test_string_operands_refused(self, op):
        with pytest.raises(TypeError):
            op(F9.gen())

    def test_equality_with_a_string_is_false(self):
        assert (F9.gen() == "s") is False

    def test_an_equal_field_built_apart(self):
        twin = FieldSpec(3, 2)
        for a in F9.elements():
            b = twin.element(a.coeffs)
            assert a == b and b == a
            for c in F9.elements():
                d = twin.element(c.coeffs)
                assert (a + d) is a + c and (a - d) is a - c
                assert (a * d) is a * c

    def test_another_field_refused(self):
        with pytest.raises(ValueError, match="field mismatch"):
            F9.gen() + F3.one()
        with pytest.raises(ValueError, match="field mismatch"):
            F9.gen() - F3.one()

    @pytest.mark.parametrize("spec", [F3, F4, F9, F49], ids=str)
    def test_difference_is_sum_with_negation(self, spec):
        for a in spec.elements():
            for b in spec.elements():
                assert a - b is a + (-b)


def loop_value(spec, code: int) -> int:
    """FieldCodec.value as one loop over the folds and one over the
    coordinates: the reference the written-out folds must match."""
    p, n = spec.p, spec.n
    if n == 1:
        return code % p
    mask = (1 << CODE_STRIDE) - 1
    folds = [(CODE_STRIDE * (n + k),
              sum(c << CODE_STRIDE * i for i, c in enumerate(row)))
             for k, row in enumerate(spec._red)]
    r = code & ((1 << CODE_STRIDE * n) - 1)
    for shift, image in folds:
        r += (code >> shift & mask) * image
    v = 0
    for shift in [CODE_STRIDE * i for i in reversed(range(n))]:
        v = v * p + (r >> shift & mask) % p
    return v


def fold_fields():
    return [FieldSpec(p, n) for p in (2, 13) for n in (1, 2, 3)] + [
        FieldSpec(2, 4), FieldSpec(3, 4), f13_4()]


class TestFold:
    @pytest.mark.parametrize("spec", fold_fields(), ids=str)
    def test_equals_the_loop_fold(self, spec):
        rng = random.Random(spec.q)
        width = 2 * spec.n - 1
        top = (1 << CODE_STRIDE) - 1
        codes = [sum(rng.randrange(1 << bits) << CODE_STRIDE * i
                     for i in range(width))
                 for bits in (4, 20, 63, 64) for _ in range(200)]
        codes.append(sum(top << CODE_STRIDE * i for i in range(width)))
        codes.append(top)
        value = spec.codec.value
        for code in codes:
            assert value(code) == loop_value(spec, code), hex(code)

    @pytest.mark.parametrize("spec", [F4, F8, FieldSpec(3, 4)], ids=str)
    def test_sums_and_products_of_every_pair(self, spec):
        codes = spec.codec._codes
        for a in spec.elements():
            for b in spec.elements():
                for code in (codes[a.val] + codes[b.val],
                             codes[a.val] * codes[b.val]):
                    assert spec.codec.value(code) == loop_value(spec, code)


def weyl_cases(ring, n, rng):
    """A few A_n elements over ``ring``: the generators, sums of scaled
    generators and products of them."""
    gens = WeylElement._generators(ring, n)
    one = WeylElement.one(ring, n)
    out = list(gens)
    for _ in range(4):
        a = sum((g.scale(ring.random_nonzero(rng)) for g in gens), one)
        out += [a, a * gens[0] + gens[-1] ** 2]
    return out


class TestBracketPlans:
    @pytest.mark.parametrize("ring", [F3, F4, F49, KT], ids=str)
    def test_cold_plans_give_warm_answers(self, ring):
        rng = random.Random(7)
        p = ring.characteristic
        cases = weyl_cases(ring, 1, rng) + weyl_cases(ring, 2, rng)
        pairs = [(a, b) for a in cases for b in cases if a.n == b.n][::7]
        X, Y = BiPoly.gens(ring)
        polys = [X + Y, X * Y + X ** 2, Y ** 3 + X * Y ** 2 + X, X ** p * Y]

        def answers():
            return ([a * b for a, b in pairs]
                    + [a.commutator(b) for a, b in pairs]
                    + [jacobian(P, Q) for P in polys for Q in polys]
                    + [(a ** p).is_central() for a in cases])

        warm = answers()
        weyl._weyl_orders.cache_clear()
        assert answers() == warm
        info = weyl._weyl_orders.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        for (a, b), product in zip(pairs, warm):
            assert product == mul_by_rewriting(a, b)

    def test_a_plan_is_shared_by_equal_shapes(self):
        x, d = WeylElement._generators(F49)
        weyl._weyl_orders.cache_clear()
        (x * d + x).commutator(d * x)
        misses = weyl._weyl_orders.cache_info().misses
        (x.scale(F49.gen()) * d + x).commutator(d * x + d.scale(3))
        assert weyl._weyl_orders.cache_info().misses == misses

    @pytest.mark.parametrize("ring", [F3, KT], ids=str)
    def test_no_stride_guard_without_a_stride(self, monkeypatch, ring):
        guarded = []
        monkeypatch.setattr(ring.codec, "check_pairs",
                            lambda *args: guarded.append(args))
        x, d = WeylElement._generators(ring)
        a = x * d + d ** 2 + x
        assert a.commutator(d) == a * d - d * a
        assert not a.is_central()
        assert guarded == []


def square_and_multiply(f, k: int):
    """f^k for k >= 1 by square-and-multiply on the products alone: the
    reference the base-p digits must agree with."""
    result, base = None, f
    while True:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if not k:
            return result
        base = base * base


def frobenius_power(f, i: int):
    """f^(p^i) term by term: every exponent times p^i, every coefficient to
    the p^i-th power."""
    q = f.ring.characteristic ** i
    return f._from_nonzero({
        key * q if isinstance(key, int) else tuple(e * q for e in key):
        c ** q for key, c in f.coeffs.items()})


def random_polys(ring, rng):
    X, Y = BiPoly.gens(ring)
    out = []
    for _ in range(3):
        out.append(random_unipoly(rng, ring, 3, "x"))
        out.append(BiPoly(ring, {(rng.randint(0, 2), rng.randint(0, 2)):
                                 ring.random_nonzero(rng) for _ in range(3)}))
    return out + [X + Y + BiPoly.constant(ring, ring.random_nonzero(rng))]


class TestPowersByDigits:
    def test_a_power_of_p_squared_collapses(self):
        spec = f13_4()
        X, Y = BiPoly.gens(spec)
        g = spec.gen()
        power = (X + Y + BiPoly.constant(spec, g)) ** 338
        h = g ** 169
        assert power == BiPoly(spec, {(338, 0): spec.one(),
                                      (0, 338): spec.one(),
                                      (0, 0): h * h,
                                      (169, 169): spec.from_int(2),
                                      (169, 0): h + h, (0, 169): h + h})
        assert len(power.coeffs) == 6

    @pytest.mark.parametrize("ring,top", [(F4, 40), (F9, 40),
                                          (FieldSpec(13, 2), 30), (KT, 20)],
                             ids=str)
    def test_agrees_with_square_and_multiply(self, ring, top):
        rng = random.Random(ring.characteristic * 17 + top)
        for f in random_polys(ring, rng):
            small = len(f.coeffs) <= 2 or isinstance(f, UniPoly)
            for k in range(1, top if small else 12):
                assert f ** k == square_and_multiply(f, k), (f, k)

    @pytest.mark.parametrize("ring", [F4, F9, FieldSpec(13, 2), KT], ids=str)
    def test_exact_cases(self, ring):
        rng = random.Random(ring.characteristic + 5)
        p = ring.characteristic
        for f in random_polys(ring, rng):
            assert f ** 0 == type(f).one(ring, f._shape())
            assert f ** 1 == f
            for i in range(1, 3 if p < 13 else 2):
                assert f ** p ** i == frobenius_power(f, i)
                assert f ** (p ** i + 1) == frobenius_power(f, i) * f
