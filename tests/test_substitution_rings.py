"""Substitution into images over an equal coefficient field built
separately: the image holds only the images' field's own interned
elements, the constant term included, and equals the image computed with
everything over that one field."""

import pytest

from weylp import BiPoly, FieldSpec, UniPoly, WeylElement

PAIRS = [(FieldSpec(3, 2), FieldSpec(3, 2)), (FieldSpec(13, 3),
                                              FieldSpec(13, 3))]


def moved(f, spec):
    """``f`` rebuilt over ``spec``: the same keys, each coefficient the
    element of ``spec`` with its index."""
    return type(f)(spec, {k: spec._elts[c.val] for k, c in f.coeffs.items()},
                   f._shape())


def assert_owned_image(result, same_ring, spec):
    assert all(c is spec._elts[c.val] for c in result.coeffs.values())
    assert result == same_ring
    assert result.coeffs == same_ring.coeffs


@pytest.fixture(params=PAIRS, ids=["F9", "F2197"])
def fields(request):
    mine, other = request.param
    assert mine is not other and mine == other
    return mine, other


def test_unipoly_into_a_bipoly(fields):
    mine, spec = fields
    g = mine.gen()
    # a constant term, a coefficient one and coefficients that are not
    f = UniPoly(mine, {0: g + 1, 1: mine.one(), 2: g, 3: -g})
    X, Y = BiPoly.gens(spec)
    image = X + spec.gen() * Y + BiPoly.one(spec)
    assert_owned_image(f.substitute(image), moved(f, spec).substitute(image),
                       spec)


def test_unipoly_into_an_a1_element_and_a_single_term(fields):
    mine, spec = fields
    g = mine.gen()
    f = UniPoly(mine, {0: g, 2: mine.one(), 4: g + 2})
    x, d = WeylElement._generators(spec)
    for image in (x * d + spec.gen() * d + WeylElement.one(spec),
                  spec.gen() * x * x * d):
        assert_owned_image(f.substitute(image),
                           moved(f, spec).substitute(image), spec)


def test_bipoly_substitute_and_into_a_base(fields):
    mine, spec = fields
    g = mine.gen()
    P = BiPoly(mine, {(0, 0): g, (1, 0): mine.one(), (1, 2): g + 1,
                      (0, 3): -g})
    X, Y = BiPoly.gens(spec)
    images = [X + BiPoly.constant(spec, spec.gen()), Y + X * X]
    assert_owned_image(P.substitute(*images),
                       moved(P, spec).substitute(*images), spec)
    base = X * Y - BiPoly.constant(spec, spec.gen())
    assert_owned_image(P._substitute(images, base),
                       moved(P, spec)._substitute(images, base), spec)


def test_substitute_gens(fields):
    mine, spec = fields
    g = mine.gen()
    a = WeylElement(mine, {(0, 0): g, (1, 1): mine.one(), (2, 1): g + 1})
    x, d = WeylElement._generators(spec)
    # [d', x'] = [d, x] = 1: an automorphism of A_1
    images = [x + WeylElement.constant(spec, spec.gen()),
              d + spec.gen() * x * x]
    assert_owned_image(a.substitute_gens(images),
                       moved(a, spec).substitute_gens(images), spec)
