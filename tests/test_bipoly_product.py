"""The product of K[X, Y], order 0 of the A_1 bracket with X and Y read as
x and d: against a term-by-term product on plain dicts, with random
coefficients and with every coordinate at p - 1 (the largest codes), and
with the bracket's stride guard, which only codes of F_{p^n}, n > 1, run."""

import random

import pytest

from weylp import BiPoly, FieldSpec, PolyRing, UniPoly

F3, F9, F169, F343 = (FieldSpec(3), FieldSpec(3, 2), FieldSpec(13, 2),
                      FieldSpec(7, 3))
F3T = PolyRing(F3)
RINGS = [F3, F9, F169, F343, F3T]


def term_by_term(P: BiPoly, Q: BiPoly) -> dict:
    """P * Q on plain dicts: every pair of terms, exponents added and
    coefficients multiplied, the zero sums filtered once at the end."""
    acc: dict = {}
    for (i1, j1), c1 in P.coeffs.items():
        for (i2, j2), c2 in Q.coeffs.items():
            key, v = (i1 + i2, j1 + j2), c1 * c2
            acc[key] = acc[key] + v if key in acc else v
    return {k: v for k, v in acc.items() if not v.is_zero()}


def top_element(ring):
    """The element of ``ring`` with every coordinate at p - 1: the last one
    of a field, 2 + 2t + 2t^2 over F_3[t]."""
    if isinstance(ring, PolyRing):
        p = ring.characteristic
        return UniPoly(ring.base, {e: ring.base.from_int(p - 1)
                                   for e in range(3)}, ring.var)
    return ring._elts[ring.q - 1]


def random_bipoly(rng, ring, terms: int, top: bool = False) -> BiPoly:
    """Up to ``terms`` terms of degree at most 6 in each variable, random
    coefficients, or all top_element(ring) when ``top``."""
    coeffs = {(rng.randrange(7), rng.randrange(7)):
              top_element(ring) if top else ring.random_element(rng)
              for _ in range(terms)}
    return BiPoly(ring, coeffs)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("top", [False, True], ids=["random", "top"])
def test_product_is_term_by_term(ring, top):
    rng = random.Random(11)
    for _ in range(20):
        P = random_bipoly(rng, ring, rng.randint(1, 8), top)
        Q = random_bipoly(rng, ring, rng.randint(1, 8), top)
        assert (P * Q).coeffs == term_by_term(P, Q)
    # a dense square: every key of the product gathers many pairs
    X, Y = BiPoly.gens(ring)
    c = top_element(ring)
    dense = BiPoly(ring, {(i, j): c for i in range(5) for j in range(5)})
    assert (dense * dense).coeffs == term_by_term(dense, dense)
    assert (dense * BiPoly.zero(ring)).is_zero()
    assert (BiPoly.zero(ring) * dense).is_zero()
    assert X * Y == Y * X


@pytest.mark.parametrize("ring, calls", [
    (F169, [((3, 12 ** 2), {})]),
    (FieldSpec(13), []),
    (F3T, []),
], ids=["F169", "F13", "F3t"])
def test_product_guards_the_stride_as_the_bracket(ring, calls, monkeypatch):
    """One guard per product, the bracket's: min(|P|, |Q|) pairs on a key,
    each operand coordinate times at most (p - 1)^2; none where the codes
    have no stride."""
    codec = ring.codec
    seen = []
    guard = codec.check_pairs

    def record(*args, **kwargs):
        seen.append((args, kwargs))
        return guard(*args, **kwargs)

    monkeypatch.setattr(codec, "check_pairs", record)
    c = ring.one()
    P = BiPoly(ring, {(0, 0): c, (1, 0): c, (0, 2): c})
    Q = BiPoly(ring, {(e, e): c for e in range(5)})
    P * Q
    assert seen == calls
