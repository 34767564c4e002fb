"""Oracles for the set-up that each layer of the restriction round trip pays
once: the [d', x'] an A_1 image pair keeps, the centrality check on one
coded operand, F_p powers by the built-in pow, the bounded caches of the row
chain, and theta_inverse on coefficient maps."""

import copy
import pickle
import random

import pytest

from weylp import (A1, AutWord, FieldSpec, GenS, UniPoly, WeylElement,
                   a1_affine_images, realize, res, theta, theta_inverse,
                   theta_inverse_oracle)
from weylp import suites, weyl
from weylp.suites import random_sl2, random_unipoly, random_word

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2, (1, 1, 1))
F7 = FieldSpec(7)
F13 = FieldSpec(13)
F49 = FieldSpec(7, 2)


@pytest.fixture
def commutator_calls(monkeypatch):
    """Counts the commutators of A_1 and A_2 elements, the [d', x'] that
    AutImages.validate tests on A_1."""
    calls = []
    original = WeylElement.commutator

    def counted(self, other):
        calls.append((self, other))
        return original(self, other)
    monkeypatch.setattr(WeylElement, "commutator", counted)
    return calls


class TestBracketKept:
    @pytest.mark.parametrize("spec", [F3, F4, F49])
    def test_validate_computes_one_bracket(self, spec, commutator_calls):
        rng = random.Random(7)
        for _ in range(3):
            sigma = realize(random_word(rng, spec, A1, 3, 2))
            for _ in range(3):
                assert sigma.validate() is sigma
            assert commutator_calls == [(sigma.img_y, sigma.img_x)]
            commutator_calls.clear()

    def test_reassigned_images_compute_again(self, commutator_calls):
        a = realize(AutWord(F3, A1, [GenS()]))
        a.validate()
        # (d, -x) -> (d, x): [x, d] = -1, no automorphism
        a.img_y = -a.img_y
        with pytest.raises(ValueError, match=r"\[d, x\] = 1"):
            a.validate()
        assert len(commutator_calls) == 2

    @pytest.mark.parametrize("spec", [F3, F49])
    def test_records_do_not_see_the_bracket(self, spec, commutator_calls):
        rng = random.Random(5)
        word = random_word(rng, spec, A1, 4, 2)
        a, fresh = realize(word), realize(word)
        before = (repr(a), pickle.dumps(a), pickle.dumps(copy.copy(a)),
                  pickle.dumps(copy.deepcopy(a)))
        a.validate()
        assert len(commutator_calls) == 1
        assert a == fresh and fresh == a
        assert (repr(a), pickle.dumps(a), pickle.dumps(copy.copy(a)),
                pickle.dumps(copy.deepcopy(a))) == before
        for other in (copy.copy(a), copy.deepcopy(a),
                      pickle.loads(pickle.dumps(a))):
            assert other == a and repr(other) == repr(a)
            other.validate()
        # each copy computed its own
        assert len(commutator_calls) == 4

    @pytest.mark.parametrize("spec", [F3, F4, F13])
    def test_res2_affine_case_runs_one_bracket_per_pair(
            self, spec, commutator_calls):
        for i in range(4):
            assert suites.res2_affine(spec, random.Random(i), i) is None
            # the brute-force pair only: the closed form builds Z images
            assert len(commutator_calls) == 1, i
            commutator_calls.clear()

    def test_res_validates_its_input(self, commutator_calls):
        rng = random.Random(3)
        pair = a1_affine_images(F7, random_sl2(rng, F7), (F7.one(),) * 2)
        res(pair)
        res(pair)
        assert len(commutator_calls) == 1


class TestCentrality:
    @pytest.mark.parametrize("spec", [F3, F4, F49])
    def test_agrees_with_the_commutators(self, spec):
        rng = random.Random(spec.q)
        p = spec.p
        for n in (1, 2):
            gens = WeylElement._generators(spec, n)
            for _ in range(6):
                a = sum((g.scale(spec.random_nonzero(rng)) for g in gens),
                        WeylElement.one(spec, n))
                for b in (a, a ** p, a ** p + a ** (2 * p)):
                    expected = all(b.commutator(g).is_zero() for g in gens)
                    assert b.is_central() == expected

    def test_mutated_commutator_scalar_raises(self, monkeypatch):
        """With the scalar of every order zeroed, each commutator
        vanishes, and the support criterion no longer agrees."""
        original = weyl._weyl_mul

        def zeroed(codec, p, n, a, b, w, ks, acc, sign=1):
            return original(codec, p, n, a, b, w, ks, acc, 0)
        x, d = WeylElement._generators(F3)
        mixed = [x, d, x * d + x ** 3, x + d ** 3]
        central = x ** 3 * d ** 3
        assert not any(a.is_central() for a in mixed)
        assert central.is_central()
        monkeypatch.setattr(weyl, "_weyl_mul", zeroed)
        for element in mixed:
            with pytest.raises(AssertionError, match="criteria disagree"):
                element.is_central()
        # a central element still reads as central: its commutators vanish
        assert central.is_central()


def square_and_multiply(a, e):
    result, base = a.spec.one(), a
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


class TestPrimeFieldPowers:
    @pytest.mark.parametrize("spec", [F2, F3, F7, F13], ids=str)
    def test_equals_square_and_multiply(self, spec):
        p = spec.p
        for a in spec.elements():
            for e in sorted({0, 1, p - 2, p, 3 * p}):
                assert a ** e is square_and_multiply(a, e), (a, e)

    @pytest.mark.parametrize("spec", [F2, F3, F7, F13, F4, F49], ids=str)
    def test_negative_exponents_invert(self, spec):
        for a in list(spec.elements())[1:]:
            assert a ** -1 * a == spec.one()
            assert a ** -3 == (a ** 3).inv()
        zero = spec.zero()
        with pytest.raises(ZeroDivisionError):
            zero.inv()
        with pytest.raises(ZeroDivisionError):
            zero ** -1
        assert zero ** 0 == spec.one()


class TestRowChainCaches:
    def test_caches_are_bounded(self):
        for cache in (weyl._weyl_orders, weyl._row_layout):
            assert cache.cache_info().maxsize is not None

    @pytest.mark.parametrize("spec", [F3, F4, F49])
    def test_cold_and_warm_caches_agree(self, spec):
        rng = random.Random(spec.q + 1)
        x, d = WeylElement._generators(spec)
        elements = [d + WeylElement.from_unipoly(
            random_unipoly(rng, spec, 3, "x")) for _ in range(4)]
        elements += [x * d + x, x + d.scale(spec.gen())]
        warm = [a ** spec.p for a in elements]
        weyl._weyl_orders.cache_clear()
        weyl._row_layout.cache_clear()
        cold = [a ** spec.p for a in elements]
        assert cold == warm
        for a, power in zip(elements, cold):
            fold = a
            for _ in range(spec.p - 1):
                fold = fold * a
            assert power == fold


@pytest.mark.parametrize("spec", [F2, F3, F4, F7, F49], ids=str)
def test_theta_inverse_on_coefficient_maps(spec):
    rng = random.Random(spec.q + 2)
    for max_degree in (0, 1, spec.p - 1, spec.p, 2 * spec.p + 1, 8):
        f = random_unipoly(rng, spec, max_degree, "x")
        g = theta(f)
        assert theta_inverse(g) == f == theta_inverse_oracle(g)
    assert theta_inverse(UniPoly.zero(spec)) == UniPoly.zero(spec)
