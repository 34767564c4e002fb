"""Shared test helpers, including the slow rewriting multiplier that serves
as an independent oracle for WeylElement multiplication, and the schoolbook
product that serves as one for F_{p^n} multiplication."""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from weylp import FieldSpec, UniPoly, WeylElement


@lru_cache(maxsize=None)
def _normal_form_dxi(j: int, i: int) -> tuple:
    """Normal form of d^j x^i as ((i', j'), integer coefficient) pairs,
    computed purely by the one-step rewrite d x = x d + 1:
    d^j x^i = x * d^j x^{i-1} + j * d^{j-1} x^{i-1}."""
    if j == 0 or i == 0:
        return (((i, j), 1),)
    out: dict = {}
    for (a, b), c in _normal_form_dxi(j, i - 1):
        key = (a + 1, b)
        out[key] = out.get(key, 0) + c
    if j >= 1:
        for (a, b), c in _normal_form_dxi(j - 1, i - 1):
            out[(a, b)] = out.get((a, b), 0) + j * c
    return tuple(out.items())


def mul_by_rewriting(lhs: WeylElement, rhs: WeylElement) -> WeylElement:
    """Term-by-term normal-ordering product for A_1 and A_2; independent of
    the closed commutation formula used by WeylElement.__mul__.  The axes
    of A_2 commute with each other, so a product of two monomials is the
    product of one normal form d_s^j x_s^i per axis s."""
    assert lhs.n == rhs.n
    n = lhs.n
    ring = lhs.ring
    acc: dict = {}
    for k1, c1 in lhs.coeffs.items():
        for k2, c2 in rhs.coeffs.items():
            base = c1 * c2
            forms = [_normal_form_dxi(k1[n + s], k2[s]) for s in range(n)]
            for parts in product(*forms):
                c = 1
                xs, ds = [], []
                for s, ((a, b), m) in enumerate(parts):
                    c *= m
                    xs.append(k1[s] + a)
                    ds.append(b + k2[n + s])
                key = tuple(xs + ds)
                v = base * c if c != 1 else base
                cur = acc.get(key)
                acc[key] = v if cur is None else cur + v
    return WeylElement(ring, acc, n)


def field_mul_schoolbook(spec: FieldSpec, a, b) -> tuple:
    """Product in F_{p^n} of two coordinate lists (ascending powers of g):
    the schoolbook product of the polynomials in g, then long division by
    the monic spec.modulus.  Independent of FieldSpec's reduction rows
    (``_red``) and of its codec."""
    p, n, modulus = spec.p, spec.n, spec.modulus
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    # subtract c * g^(k-n) * modulus to clear the coefficient of g^k
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k] % p
        for i, m in enumerate(modulus):
            prod[k - n + i] -= c * m
    return tuple(c % p for c in prod[:n])


def field_pow_schoolbook(spec: FieldSpec, a, e: int) -> tuple:
    """a^e for a coordinate list a and small e >= 0, by repeated
    field_mul_schoolbook."""
    out = (1,) + (0,) * (spec.n - 1)
    for _ in range(e):
        out = field_mul_schoolbook(spec, out, a)
    return out


def random_unipoly_exact(rng, spec: FieldSpec, deg: int,
                         var: str = "x") -> UniPoly:
    coeffs = {e: spec.random_element(rng) for e in range(deg)}
    coeffs[deg] = spec.random_nonzero(rng) if deg else spec.random_element(rng)
    return UniPoly(spec, coeffs, var)
