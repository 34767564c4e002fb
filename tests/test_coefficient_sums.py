"""The one sum of coefficient maps, poly._add_terms, against a term-by-term
sum on plain dicts, with the zeros filtered once at the end: on its own, in
a substitution added into a base and in an affine form.  In each, a key
cancels and a later term reaches it again, a path that a sum filtered at
the end never takes."""

import random

import pytest

from weylp import BiPoly, FieldSpec, PolyRing, UniPoly, WeylElement
from weylp.autgrp import affine_forms
from weylp.poly import _add_terms, random_unipoly

F3, F9 = FieldSpec(3), FieldSpec(3, 2)
F3T = PolyRing(F3)
RINGS = [F3, F9, F3T]


def term_by_term(pieces) -> dict:
    """The sum of the coefficient maps of ``pieces``, each (map, factor or
    None), key by key, the zero sums filtered once at the end."""
    acc: dict = {}
    for coeffs, c in pieces:
        for k, v in coeffs.items():
            t = v if c is None else c * v
            acc[k] = acc[k] + t if k in acc else t
    return {k: v for k, v in acc.items() if not v.is_zero()}


def scalars(ring) -> tuple:
    """Two nonzero elements of ``ring``: a, which is not one, and c with
    c + 1 nonzero."""
    if isinstance(ring, PolyRing):
        t = ring.gen()
        return t + ring.one(), t * t
    if ring.n > 1:
        return ring.gen() + ring.one(), ring.gen()
    return ring.from_int(2), ring.one()


def a1_pair(ring, kind) -> tuple:
    """The two generators of K[X, Y] or of A_1."""
    if kind == "bipoly":
        return BiPoly.gens(ring)
    return WeylElement._generators(ring)


class TestAddTerms:
    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_cancel_and_return(self, ring):
        a, c = scalars(ring)
        one = ring.one()
        acc = {0: a, 1: one}
        terms = [(0, -a), (2, c), (0, c), (1, -one), (1, one)]
        assert _add_terms(acc, terms) is acc
        assert acc == term_by_term([({0: a, 1: one}, None)]
                                   + [({k: v}, None) for k, v in terms])
        assert acc == {0: c, 1: one, 2: c}
        # with a factor: every term times it, the zero sums dropped
        acc = _add_terms({0: a, 5: one}, [(0, one), (3, c), (5, one)], -a)
        assert acc == {3: -a * c, 5: one - a}

    def test_factor_on_the_left_keeps_its_own_elements(self):
        mine, other = FieldSpec(3, 2), FieldSpec(3, 2)
        g = other.gen()
        acc = _add_terms({0: mine.gen()}, [(0, g), (1, g)], mine.one())
        assert acc == {0: mine.gen() * 2, 1: mine.gen()}
        assert all(v is mine._elts[v.val] for v in acc.values())


class TestCancelAndReturn:
    @pytest.mark.parametrize("kind", ["bipoly", "weyl"])
    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_substitution_into_a_base(self, ring, kind):
        v, w = a1_pair(ring, kind)
        a, c = scalars(ring)
        one = ring.one()
        shape = v._shape()
        value = v + type(v).one(ring, shape)
        base = w - type(v).constant(ring, a, shape)
        origin = v._origin
        # the term a x' cancels the base's constant, then the constant
        # term c and the term x'^2 reach the origin again
        f = UniPoly(ring, {1: a, 0: c, 2: one})
        assert list(f.coeffs) == [1, 0, 2]
        pieces = [(base.coeffs, None), (value.coeffs, a),
                  ({origin: c}, None), ((value ** 2).coeffs, None)]
        assert origin not in term_by_term(pieces[:2])
        got = f._substitute([value], base)
        assert got.coeffs == term_by_term(pieces)
        assert got.coeffs[origin] == c + one

    @pytest.mark.parametrize("kind", ["bipoly", "weyl"])
    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_random_substitutions_into_a_base(self, ring, kind):
        rng = random.Random(17)
        v, w = a1_pair(ring, kind)
        shape = v._shape()
        unit = type(v).one(ring, shape)
        values = [v + unit, v * v + v.scale(ring.random_nonzero(rng)) + unit,
                  v * w + v, v + w]
        for _ in range(40):
            value = rng.choice(values)
            f = random_unipoly(rng, ring, 4)
            if f.is_zero():
                continue
            pieces = []
            for e, coef in f.coeffs.items():
                pieces.append((({value._origin: coef}, None) if e == 0
                               else ((value ** e).coeffs, coef)))
            # a base that one of f's terms cancels, in part or in full
            e = rng.choice(list(f.coeffs))
            base = -((value ** e).scale(f.coeffs[e])) + w
            got = f._substitute([value], base)
            assert got.coeffs == term_by_term([(base.coeffs, None)] + pieces)

    @pytest.mark.parametrize("kind", ["bipoly", "weyl"])
    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_affine_form(self, ring, kind):
        v, w = a1_pair(ring, kind)
        a, _ = scalars(ring)
        unit = type(v).one(ring, v._shape())
        gens = [v + unit, w + unit]
        origin = v._origin
        # x' - y' + a: x' puts 1 at the origin, y' cancels it, and the
        # translation a reaches it again
        form, second = affine_forms(gens, [[1, -1], [0, 1]], [a, 0])
        pieces = [(gens[0].coeffs, ring.one()), (gens[1].coeffs, -ring.one()),
                  ({origin: a}, None)]
        assert origin not in term_by_term(pieces[:2])
        assert form.coeffs == term_by_term(pieces) == {
            **v.coeffs, **(-w).coeffs, origin: a}
        assert second == gens[1]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_random_affine_forms(self, ring):
        rng = random.Random(23)
        x, d = WeylElement._generators(ring)
        unit = WeylElement.one(ring, 1)
        parts = [x, d, x * d, unit, x * x]
        for _ in range(40):
            # images with overlapping supports, so that terms cancel
            gens = [sum((p.scale(rng.choice([ring.one(), -ring.one()]))
                         for p in rng.sample(parts, 3)), x - x)
                    for _ in range(2)]
            matrix = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
            translation = [rng.randrange(3) for _ in range(2)]
            forms = affine_forms(gens, matrix, translation)
            for form, row, t in zip(forms, matrix, translation):
                pieces = [(g.coeffs, ring.coerce(c))
                          for g, c in zip(gens, row)]
                pieces.append(({unit._origin: ring.coerce(t)}, None))
                assert form.coeffs == term_by_term(pieces)
