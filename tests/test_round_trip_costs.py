"""Oracles for four fixed costs of the restriction round trip: the jacobian
kept by an image pair, powers of a single term without a product chain,
decompose's one power per step, and substitution without unit scalings."""

import copy
import pickle
import random
from functools import reduce
from operator import mul

import pytest

from weylp import (A1, Z, AutWord, BiPoly, FieldSpec, GenPhi, GenS, GenT,
                   PolyRing, UniPoly, WeylElement, decompose, in_gamma,
                   realize, res, res_inverse)
from weylp import autgrp, weyl
from weylp.suites import random_word

F3 = FieldSpec(3)
F4 = FieldSpec(2, 2, (1, 1, 1))
F49 = FieldSpec(7, 2)
F169 = FieldSpec(13, 2)
F343 = FieldSpec(7, 3)
F3T = PolyRing(F3)


def fold(a, k):
    """a^k as the left fold of ``*``."""
    return reduce(mul, [a] * k)


@pytest.fixture
def jacobian_calls(monkeypatch):
    """Counts the calls of autgrp.jacobian, the one the image pairs use."""
    calls = []
    original = autgrp.jacobian

    def counted(P, Q):
        calls.append((P, Q))
        return original(P, Q)
    monkeypatch.setattr(autgrp, "jacobian", counted)
    return calls


def a1_word(spec, rng):
    return random_word(rng, spec, A1, 3, 2)


class TestJacobianKept:
    @pytest.mark.parametrize("spec", [F3, F4, F49])
    def test_round_trip_computes_one_jacobian(self, spec, jacobian_calls):
        rng = random.Random(11)
        for _ in range(4):
            sigma = realize(a1_word(spec, rng))
            r = res(sigma)
            back = res_inverse(r.image)
            assert in_gamma(r.image) and back == sigma
            # the one Z pair of the chain; A_1 pairs have no jacobian
            assert len(jacobian_calls) == 1
            assert jacobian_calls[0] == (r.image.img_x, r.image.img_y)
            r.image.validate()
            assert r.image.jacobian() == BiPoly.one(spec)
            assert len(jacobian_calls) == 1
            jacobian_calls.clear()

    def test_reassigned_images_compute_again(self, jacobian_calls):
        a = realize(AutWord(F3, Z, [GenS()]))
        assert in_gamma(a)
        a.img_y = a.img_y.scale(F3.from_int(2))
        assert not in_gamma(a)
        assert len(jacobian_calls) == 2

    @pytest.mark.parametrize("spec", [F3, F49])
    def test_records_do_not_see_the_jacobian(self, spec, jacobian_calls):
        rng = random.Random(5)
        word = random_word(rng, spec, Z, 4, 2)
        a, fresh = realize(word), realize(word)
        before = (repr(a), pickle.dumps(a), pickle.dumps(copy.copy(a)),
                  pickle.dumps(copy.deepcopy(a)))
        a.jacobian()
        assert len(jacobian_calls) == 1
        assert a == fresh and fresh == a
        assert (repr(a), pickle.dumps(a), pickle.dumps(copy.copy(a)),
                pickle.dumps(copy.deepcopy(a))) == before
        for other in (copy.copy(a), copy.deepcopy(a),
                      pickle.loads(pickle.dumps(a))):
            assert other == a and repr(other) == repr(a)
            assert other.jacobian() == a.jacobian()
        # each copy computed its own
        assert len(jacobian_calls) == 4


def single_terms(ring):
    """Single-term elements whose powers need no reordering, with their
    names: x^i, d^j, c x^i and, in A_2, c x1^a d2^b."""
    c = ring.gen() + ring.one() if isinstance(ring, PolyRing) else (
        ring.gen() if ring.n > 1 else ring.from_int(2))
    return [("x^3", WeylElement.monomial(ring, (3, 0), ring.one())),
            ("d^2", WeylElement.monomial(ring, (0, 2), ring.one())),
            ("c*x^2", WeylElement.monomial(ring, (2, 0), c)),
            ("c*x1^2*d2", WeylElement.monomial(ring, (2, 0, 0, 1), c, 2)),
            ("c*X^2*Y", BiPoly(ring, {(2, 1): c})),
            ("c*x^4", UniPoly.monomial(ring, 4, c))]


@pytest.fixture
def row_power_calls(monkeypatch):
    calls = []
    original = weyl._row_power

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(weyl, "_row_power", counted)
    return calls


class TestSingleTermPowers:
    @pytest.mark.parametrize("ring", [F3, F169, F343, F3T],
                             ids=["F3", "F169", "F343", "F3[t]"])
    def test_power_is_the_fold(self, ring, row_power_calls):
        for name, a in single_terms(ring):
            for k in (1, 2, 3, 5, 7):
                assert a ** k == fold(a, k), (name, k)
        assert not row_power_calls

    @pytest.mark.parametrize("spec", [F3, F169, F343])
    def test_mixed_axis_term_takes_the_chain(self, spec, row_power_calls):
        c = spec.gen() if spec.n > 1 else spec.from_int(2)
        for key, n in (((1, 1), 1), ((2, 3), 1), ((1, 0, 2, 0), 2),
                       ((0, 2, 1, 1), 2)):
            a = WeylElement.monomial(spec, key, c, n)
            for k in (2, 3, 4):
                calls = len(row_power_calls)
                assert a ** k == fold(a, k)
                assert len(row_power_calls) == calls + 1


def reducing_words(spec, rng, count):
    """Z words whose decomposition raises a multi-term P to a power m >= 2
    in some step, told by recording BiPoly powers inside decompose."""
    found = []
    powers = []
    original = BiPoly.__pow__

    def recorded(self, k):
        powers.append((len(self.coeffs), k))
        return original(self, k)
    for _ in range(50 * count):
        if len(found) == count:
            break
        word = AutWord(spec, Z, [GenT(spec.random_nonzero(rng))] + [
            g for _ in range(rng.randint(2, 3))
            for g in (GenPhi(UniPoly(spec, {
                e: spec.random_nonzero(rng)
                for e in range(rng.randint(2, 3) + 1)}, "X")), GenS())])
        g = realize(word)
        powers.clear()
        BiPoly.__pow__ = recorded
        try:
            out = decompose(g)
        finally:
            BiPoly.__pow__ = original
        if any(terms > 1 and k >= 2 for terms, k in powers):
            found.append((g, out))
    assert len(found) == count
    return found


class TestDecomposeOnePower:
    @pytest.mark.parametrize("spec", [F4, F49])
    def test_realize_decompose_round_trip(self, spec):
        rng = random.Random(23)
        for g, word in reducing_words(spec, rng, 6):
            assert realize(word) == g


def substitute_by_products(f, images):
    """f at ``images``, term by term: each monomial a left fold of ``*``
    over its factors in slot order (one for none), times its
    coefficient, summed from zero."""
    one = images[0] ** 0
    total = one.scale(0)
    for key, c in f.coeffs.items():
        exps = (key,) if isinstance(key, int) else key
        term = reduce(mul, [img for img, e in zip(images, exps)
                            for _ in range(e)], one)
        total = total + term.scale(c)
    return total


class TestSubstituteUnits:
    @pytest.mark.parametrize("spec", [F3, F49])
    def test_bipoly_into_bipoly(self, spec):
        X, Y = BiPoly.gens(spec)
        one, c = spec.one(), spec.from_int(2)
        images = [X + Y.scale(c), Y * Y + BiPoly.one(spec)]
        for f in (BiPoly(spec, {(0, 0): c, (1, 0): one, (2, 1): one}),
                  BiPoly(spec, {(0, 0): one}), BiPoly(spec, {(1, 1): one}),
                  BiPoly(spec, {(3, 0): c, (0, 2): one}),
                  BiPoly.zero(spec)):
            got = f.substitute(*images)
            assert got == substitute_by_products(f, images)
        assert BiPoly.zero(spec).substitute(*images) == BiPoly.zero(spec)

    @pytest.mark.parametrize("spec", [F3, F49])
    def test_weyl_into_weyl(self, spec):
        x, d = WeylElement._generators(spec)
        one, c = spec.one(), spec.from_int(2)
        images = [x + d.scale(c), d + x * x]
        for f in (WeylElement(spec, {(0, 0): c, (1, 0): one, (1, 2): one}),
                  WeylElement(spec, {(0, 0): one}),
                  WeylElement(spec, {(2, 1): one, (0, 1): c}),
                  WeylElement.zero(spec)):
            assert f.substitute_gens(images) == \
                substitute_by_products(f, images)
        assert WeylElement.zero(spec).substitute_gens(images) == \
            WeylElement.zero(spec)

    def test_unipoly_into_weyl(self):
        x, d = WeylElement._generators(F49)
        image = d + x.scale(F49.gen())
        one = F49.one()
        for f in (UniPoly(F49, {0: F49.gen(), 1: one, 3: one}),
                  UniPoly(F49, {0: one}), UniPoly(F49, {2: one}),
                  UniPoly.zero(F49)):
            got = f.substitute(image)
            assert type(got) is WeylElement
            assert got == substitute_by_products(f, [image])

    def test_over_poly_ring(self):
        ring = F3T
        one, t = ring.one(), ring.gen()
        images = [BiPoly(ring, {(1, 0): one, (0, 0): t}),
                  BiPoly(ring, {(0, 1): t + one})]
        for f in (BiPoly(ring, {(0, 0): t, (1, 0): one, (0, 2): one}),
                  BiPoly(ring, {(0, 0): one}), BiPoly.zero(ring)):
            assert f.substitute(*images) == substitute_by_products(f, images)
