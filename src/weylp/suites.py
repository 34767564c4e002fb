"""Randomized verification suites and the deterministic input generators
behind them.  A suite is one check per case, ``case(spec, rng, i)``: it
draws all of case i's input from the seeded ``rng`` before its first
check, so that no case's input depends on an earlier outcome, and returns
None when the check passes, else the failing input in re-parseable form
(resn-affine: the four A_2 images of its affine map, joined by "; ", each
read back by parse_weyl; relations: the first failing pair of generators,
a Z word read back by parse_word).
SUITES maps each suite name to its check, and run_suite runs ``count``
cases into a SuiteReport: how many passed and the failing inputs.  The CLI
``fuzz`` command and the acceptance tests are both built on these.
"""

from __future__ import annotations

from .autgrp import (A1, Z, _REWRITES, AutWord, GenAffine, GenPhi, GenS, GenT,
                     Record, _payload_var, affine_forms, in_gamma, mat_mul,
                     realize)
from .gfq import FieldSpec, UsageError
from .poly import BiPoly, PolyRing, random_unipoly
from .resmap import (a1_affine_images, is_symplectic, res, res_affine,
                     res_inverse, res_n_affine, res_n_affine_bruteforce)
from .theta import theta, theta_inverse, theta_inverse_oracle
from .weyl import (WeylElement, verify_pth_power_identity,
                   verify_pth_power_identity_2vars)


class SuiteReport(Record):
    """How many of ``count`` cases of suite ``name`` passed, and the failing
    inputs; run_suite updates it in place."""

    __slots__ = ("name", "count", "passes", "failures")

    def __init__(self, name: str, count: int, passes: int,
                 failures: list | None = None):
        Record.__init__(self, name, count, passes,
                        [] if failures is None else failures)

    @property
    def all_passed(self) -> bool:
        return self.passes == self.count

    def summary(self) -> str:
        if self.all_passed:
            return "%d/%d OK" % (self.passes, self.count)
        return "%d/%d OK, %d FAILED; first failure: %s" % (
            self.passes, self.count, self.count - self.passes,
            self.failures[0])


# ----------------------------------------------------------------------
# random input generators (all deterministic in the supplied rng; random
# unipolys are drawn by poly.random_unipoly)


def random_xpoly2(rng, spec: FieldSpec, max_deg: int) -> BiPoly:
    """Random polynomial in the commuting generators x1, x2."""
    deg = rng.randint(0, max_deg)
    coeffs = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            coeffs[(i, j)] = spec.random_element(rng)
    return BiPoly(spec, coeffs, ("x1", "x2"))


def random_word(rng, spec: FieldSpec, target: str, max_len: int = 6,
                max_payload_deg: int = 4) -> AutWord:
    var = _payload_var(target)
    gens = []
    for _ in range(rng.randint(1, max_len)):
        kind = rng.randrange(4)
        if kind == 0:
            gens.append(GenS())
        elif kind == 1:
            gens.append(GenT(spec.random_nonzero(rng)))
        else:
            # phi twice as likely as s or t: words with several triangular
            # factors (hence composite degree up to 4^3) stay well covered
            gens.append(GenPhi(random_unipoly(rng, spec, max_payload_deg,
                                              var)))
    return AutWord(spec, target, gens)


def random_sl2(rng, spec: FieldSpec):
    """Product of a few random elementary/diagonal matrices; lands in SL_2."""
    one, zero = spec.one(), spec.zero()
    m = ((one, zero), (zero, one))
    for _ in range(4):
        kind = rng.randrange(3)
        if kind == 0:
            lam = spec.random_element(rng)
            g = ((one, zero), (lam, one))
        elif kind == 1:
            lam = spec.random_element(rng)
            g = ((one, lam), (zero, one))
        else:
            mu = spec.random_nonzero(rng)
            g = ((mu, zero), (zero, mu.inv()))
        m = mat_mul(m, g)
    return m


def random_symplectic4(rng, spec: FieldSpec, force_correction: bool = False):
    """Random element of Sp_4 as a product of block generators; when
    force_correction is set, starts from a transvection that makes the p=2
    translation correction term nonzero."""
    one, zero = spec.one(), spec.zero()
    ident = tuple(tuple(one if i == j else zero for j in range(4))
                  for i in range(4))
    m = ident
    if force_correction:
        m = ((one, zero, one, zero), (zero, one, zero, zero),
             (zero, zero, one, zero), (zero, zero, zero, one))
    for _ in range(4):
        kind = rng.randrange(3)
        if kind in (0, 1):
            b00 = spec.random_element(rng)
            b01 = spec.random_element(rng)
            b11 = spec.random_element(rng)
            if kind == 0:
                g = ((one, zero, b00, b01), (zero, one, b01, b11),
                     (zero, zero, one, zero), (zero, zero, zero, one))
            else:
                g = ((one, zero, zero, zero), (zero, one, zero, zero),
                     (b00, b01, one, zero), (b01, b11, zero, one))
        else:
            (a, b), (c, d) = random_sl2(rng, spec)
            g = ((a, b, zero, zero), (c, d, zero, zero),
                 (zero, zero, d, -c), (zero, zero, -b, a))
        m = mat_mul(m, g)
    return m


# ----------------------------------------------------------------------
# suites: one check per case, None when case i passes, else the failing
# input in re-parseable form


def thm17(ring, rng, i):
    """(d + f)^p = d^p + f^{(p-1)} + f^p over ``ring``, deg f <= 3p."""
    f = random_unipoly(rng, ring, 3 * ring.characteristic)
    return None if verify_pth_power_identity(f) else str(f)


def thm17_ring(spec: FieldSpec, rng, i):
    """The same identity with coefficients in K[t], deg_t <= 3."""
    return thm17(PolyRing(spec), rng, i)


def cor22(spec: FieldSpec, rng, i):
    """The A_2 analogue on random f(x1, x2), deg <= 6, both axes."""
    f = random_xpoly2(rng, spec, 6)
    axis = rng.randrange(2)
    if verify_pth_power_identity_2vars(f, axis):
        return None
    return "axis=%d f=%s" % (axis + 1, f)


def theta_rt(spec: FieldSpec, rng, i):
    """theta round trip, closed form vs oracle, leading-term law."""
    p = spec.p
    f = random_unipoly(rng, spec, 3 * p * p)
    g = theta(f)
    ok = theta_inverse(g) == f and theta_inverse_oracle(g) == f
    if ok and not f.is_zero():
        df, cf = f.leading_term()
        dg, cg = g.leading_term()
        ok = dg == p * df and cg == cf ** p
    return None if ok else str(f)


def res_rt(spec: FieldSpec, rng, i):
    """res then res_inverse on random A_1 words, with the image invariants."""
    word = random_word(rng, spec, A1)
    sigma = realize(word)
    try:
        r = res(sigma)
        if (in_gamma(r.image) and r.degree_in == r.degree_out
                and res_inverse(r.image) == sigma):
            return None
    except (ValueError, AssertionError):
        pass
    return str(word)


def res2_affine(spec: FieldSpec, rng, i):
    """Closed affine restriction formula vs brute force on SL_2 + shifts."""
    matrix = random_sl2(rng, spec)
    translation = (spec.random_element(rng), spec.random_element(rng))
    fast = res_affine(spec, matrix, translation)
    if fast == res(a1_affine_images(spec, matrix, translation)).image:
        return None
    return str(AutWord(spec, A1, [GenAffine(matrix, translation)]))


def resn_affine(spec: FieldSpec, rng, i):
    """Closed affine restriction for A_2 vs brute force on Sp_4 + shifts."""
    matrix = random_symplectic4(rng, spec, force_correction=(i % 5 == 0))
    translation = tuple(spec.random_element(rng) for _ in range(4))
    if is_symplectic(matrix, spec) and (
            res_n_affine(spec, matrix, translation)
            == res_n_affine_bruteforce(spec, matrix, translation)):
        return None
    return "; ".join(map(str, affine_forms(WeylElement._generators(spec, 2),
                                           matrix, translation)))


def relations(spec: FieldSpec, rng, i):
    """Every generator relation of autgrp._REWRITES, verified at image
    level: the pair (a, b) and its rewrite realize the same automorphism of
    Z.  One pair per rule is drawn before the first check: t and gamma take
    a nonzero payload, phi a polynomial of degree <= 4."""

    def draw(kind):
        if kind is GenS:
            return GenS()
        if kind is GenPhi:
            return GenPhi(random_unipoly(rng, spec, 4, "X"))
        return kind(spec.random_nonzero(rng))

    one = spec.one()
    cases = [(rule, [draw(a), draw(b)]) for (a, b), rule in _REWRITES.items()]
    for rule, pair in cases:
        if (realize(AutWord(spec, Z, pair))
                != realize(AutWord(spec, Z, rule(*pair, one)))):
            return str(AutWord(spec, Z, pair))
    return None


SUITES = {
    "thm17": thm17,
    "thm17-ring": thm17_ring,
    "cor22": cor22,
    "theta-rt": theta_rt,
    "res-rt": res_rt,
    "res2-affine": res2_affine,
    "resn-affine": resn_affine,
    "relations": relations,
}


def run_suite(name: str, spec: FieldSpec, count: int, rng) -> SuiteReport:
    """Run case i = 0..count-1 of suite ``name``, drawing from ``rng``."""
    try:
        case = SUITES[name]
    except KeyError:
        raise UsageError("unknown suite %r (choose from %s)"
                         % (name, ", ".join(sorted(SUITES))))
    report = SuiteReport(name, count, 0)
    for i in range(count):
        failure = case(spec, rng, i)
        if failure is None:
            report.passes += 1
        else:
            report.failures.append(failure)
    return report
