"""The benchmark's workloads as seeded lists of cases.

Every input is drawn from one ``random.Random(seed)`` with the
``weylp.suites.random_*`` generators.  Automorphism words are drawn at an
exact composite-degree bound and Sp_4 matrices at a fixed row-density
pattern (by rejection), both from fixed schedules below, so a case list has
the same size profile for every seed and only the coefficients change.

A case returns ``(ok, output)``: ``ok`` is the case's own self-check (an
identity holds, a round trip closes, a closed form equals its brute force),
``output`` the canonical string of its result, which the runner hashes and
compares across passes and against the recorded digests.  A case function
takes ``check`` and runs its cross-checks as ``check(fn, *args)``, so the
traced run counts their time in ``check.share``.
"""

from __future__ import annotations

import importlib
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

GFQ = importlib.import_module("weylp.gfq")
THETA = importlib.import_module("weylp.theta")
AUT = importlib.import_module("weylp.autgrp")
RES = importlib.import_module("weylp.resmap")
SUITES = importlib.import_module("weylp.suites")

WORKLOADS = ("restriction", "cli-oneshot")

# ROADMAP aim 1: p in {2, 3, 7, 13}, n in {1, 2}, plus the untabled F_343
GRID = ((2, 1), (2, 2), (3, 1), (3, 2), (7, 1), (7, 2), (13, 1), (13, 2),
        (7, 3))

# composite-degree bounds of random words (product of phi payload degrees)
RES_WORD_BOUND = {(2, 1): 9, (2, 2): 9, (3, 1): 9, (3, 2): 9, (7, 1): 4,
                  (7, 2): 4, (13, 1): 2, (13, 2): 2, (7, 3): 2}
WORD_LEN = 4
WORD_PAYLOAD_DEG = 3
RES_RT_PER_FIELD = 18
RES2_PER_FIELD = 6
# Sp_4 draws for resn-affine at p >= 7: the most frequent row-density pattern
# there (p <= 3 cases cost at most 3 ms whatever their pattern)
RESN_PATTERN = (2, 2, 4, 4)


@dataclass
class Case:
    kind: str
    field: str
    text: str                          # input, in re-parseable form
    fn: Callable[[Callable], tuple]    # fn(check) -> (ok, canonical output)

    def run(self, tracer=None):
        if tracer is None:
            return self.fn(_unchecked)
        return tracer.call("case", self.fn, tracer.check)


def _unchecked(fn, *args):
    return fn(*args)


def field_arg(spec) -> str:
    return "p=%d" % spec.p if spec.n == 1 else "p=%d,n=%d" % (spec.p, spec.n)


def build(workload: str, seed: int, root: str) -> list:
    """FieldSpec construction plus input generation for one workload."""
    rng = random.Random(seed)
    fields = {pn: GFQ.FieldSpec(*pn) for pn in GRID}
    if workload == "restriction":
        return _restriction(rng, fields)
    if workload == "cli-oneshot":
        return _cli(rng, fields, root)
    raise ValueError("unknown workload %r (choose from %s)"
                     % (workload, ", ".join(WORKLOADS)))


# ----------------------------------------------------------------------
# seeded inputs at exact sizes


def word_bound(word) -> int:
    """Product of the phi payload degrees: the composite degree when nothing
    cancels."""
    bound = 1
    for gen in word.gens:
        if isinstance(gen, AUT.GenPhi):
            bound *= max(1, int(max(gen.payload.degree, 0)))
    return bound


def word_of_bound(rng, spec, target: str, bound: int):
    """random_word conditioned on its composite-degree bound."""
    while True:
        word = SUITES.random_word(rng, spec, target, WORD_LEN,
                                  WORD_PAYLOAD_DEG)
        if word_bound(word) == bound:
            return word


def _bounds(cap: int, count: int) -> list:
    """The composite-degree bounds a word of WORD_LEN can reach, up to cap,
    cycled to ``count`` entries."""
    reachable = [b for b in (1, 2, 3, 4, 6, 9) if b <= cap]
    return [reachable[i % len(reachable)] for i in range(count)]


# ----------------------------------------------------------------------
# in-process workloads


def _res_round_trip(spec, word) -> Case:
    def round_trip_ok(r, back, sigma):
        return (AUT.in_gamma(r.image) and r.degree_in == r.degree_out
                and back == sigma)

    def run(check):
        sigma = AUT.realize(word)
        r = RES.res(sigma)
        back = RES.res_inverse(r.image)
        return check(round_trip_ok, r, back, sigma), "%s|%s" % (r.image, back)
    return Case("res-rt", str(spec), str(word), run)


def _res2_affine(spec, matrix, translation) -> Case:
    images = RES.a1_affine_images(spec, matrix, translation)

    def brute():
        return RES.res(RES.a1_affine_images(spec, matrix, translation)).image

    def run(check):
        fast = RES.res_affine(spec, matrix, translation)
        return fast == check(brute), str(fast)
    return Case("res2-affine", str(spec), str(images), run)


def _resn_affine(spec, matrix, translation) -> Case:
    rows = []
    for i, row in enumerate(matrix):
        terms = ["(%s)*%s" % (c, v)
                 for c, v in zip(row, ("x1", "x2", "d1", "d2"))]
        rows.append("+".join(terms + ["(%s)" % translation[i]]))

    def run(check):
        if not check(RES.is_symplectic, matrix, spec):
            return False, "not symplectic"
        fast = RES.res_n_affine(spec, matrix, translation)
        brute = check(RES.res_n_affine_bruteforce, spec, matrix, translation)
        return fast == brute, "%s|%s" % fast
    return Case("resn-affine", str(spec), "; ".join(rows), run)


def density_pattern(matrix) -> tuple:
    """Sorted nonzero counts of the matrix rows."""
    return tuple(sorted(sum(not c.is_zero() for c in row) for row in matrix))


def symplectic4_of_pattern(rng, spec, pattern, force_correction):
    """random_symplectic4 conditioned on its row-density pattern: the cost
    of the brute-force p-th powers grows steeply with the row densities."""
    while True:
        matrix = SUITES.random_symplectic4(rng, spec, force_correction)
        if pattern is None or density_pattern(matrix) == pattern:
            return matrix


def _restriction(rng, fields) -> list:
    cases = []
    for pn in GRID:
        spec = fields[pn]
        for bound in _bounds(RES_WORD_BOUND[pn], RES_RT_PER_FIELD):
            word = word_of_bound(rng, spec, AUT.A1, bound)
            cases.append(_res_round_trip(spec, word))
    for pn in GRID:
        spec = fields[pn]
        for _ in range(RES2_PER_FIELD):
            matrix = SUITES.random_sl2(rng, spec)
            translation = (spec.random_element(rng), spec.random_element(rng))
            cases.append(_res2_affine(spec, matrix, translation))
    for pn in GRID:
        spec = fields[pn]
        pattern = RESN_PATTERN if spec.p >= 7 else None
        matrix = symplectic4_of_pattern(rng, spec, pattern, spec.p == 2)
        translation = tuple(spec.random_element(rng) for _ in range(4))
        cases.append(_resn_affine(spec, matrix, translation))
    return cases


# ----------------------------------------------------------------------
# cli-oneshot: one fresh interpreter per command

# field slots: the grid, with F_169 (the 200 ms table build) and F_343 (no
# tables) repeated so the 90th percentile falls inside the slow group
CLI_SLOTS = GRID + ((13, 2), (7, 3), (2, 1))
CLI_FUZZ = ("theta-rt", "relations", "res2-affine")
CLI_FUZZ_COUNT = 2


@dataclass
class CliCase(Case):
    """``weylp <argv>`` in a fresh interpreter; passes when it exits 0 and
    its stdout equals ``expected``, computed in-process from the library."""

    argv: tuple = ()
    expected: str = ""
    root: str = "."

    def run(self, tracer=None):
        if tracer is None:
            return self._exec([sys.executable, "-m", "weylp.cli"])[:2]
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "cli_child.py")
        ok, out, err = tracer.call("case", self._exec,
                                   [sys.executable, child])
        tracer.merge_reported(err)
        return ok, out

    def _exec(self, command):
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        proc = subprocess.run(command + list(self.argv), cwd=self.root,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        out = proc.stdout.rstrip("\n")
        return (proc.returncode == 0 and out == self.expected, out,
                proc.stderr)


def _cli(rng, fields, root) -> list:
    cases = []

    def add(spec, command, *args, expected):
        argv = (command, "--field", field_arg(spec)) + args
        text = "weylp " + " ".join(
            a if a.replace("-", "").replace(",", "").replace("=", "")
            .isalnum() else "'%s'" % a for a in argv)
        cases.append(CliCase("cli " + command, str(spec), text, None,
                             argv, expected, root))

    for slot, pn in enumerate(CLI_SLOTS):
        spec = fields[pn]
        p = spec.p
        f = SUITES.random_unipoly(rng, spec, 3)
        image = THETA.theta(f)
        rhs = "d^%d" % p if image.is_zero() else "d^%d+%s" % (p, image)
        add(spec, "pow-check", str(f),
            expected="OK: (d+%s)^%d = %s" % (f, p, rhs))
        f = SUITES.random_unipoly(rng, spec, 2 * p)
        add(spec, "theta", str(f), expected=str(THETA.theta(f)))
        f = SUITES.random_unipoly(rng, spec, 2 * p)
        add(spec, "theta-inv", str(THETA.theta(f)), expected=str(f))
        word = SUITES.random_word(rng, spec, AUT.A1, 3, 2)
        sigma = AUT.realize(word)
        image = RES.res(sigma).image
        add(spec, "res", str(word), expected=str(image))
        add(spec, "res-inv", str(image), expected=str(sigma))
        g = AUT.realize(SUITES.random_word(rng, spec, AUT.Z, 4, 3))
        add(spec, "decompose", str(g), expected=str(AUT.decompose(g)))
        add(spec, "jacobian", str(g), expected=str(g.jacobian()))
        a = SUITES.random_word(rng, spec, AUT.Z, 3, 2)
        b = SUITES.random_word(rng, spec, AUT.Z, 3, 2)
        add(spec, "compose", str(a), str(b),
            expected=str(AUT.compose(AUT.realize(a), AUT.realize(b))))
        add(spec, "fuzz", CLI_FUZZ[slot % len(CLI_FUZZ)],
            "--count", str(CLI_FUZZ_COUNT),
            "--seed", str(rng.randrange(2 ** 31)),
            expected="%d/%d OK" % (CLI_FUZZ_COUNT, CLI_FUZZ_COUNT))
    return cases
