"""Command-line front-end.

Subcommands: pow-check, theta, theta-inv, res, res-inv, decompose, compose,
jacobian, fuzz.  Every command takes --field "p=<int>[,n=<int>,mod=<poly in
g>]" and prints one canonical result line (or a stable JSON object with
--json).  Exit codes: 0 success / all checks passed, 1 a verification or
domain failure (identity broken, not an automorphism, jacobian not 1, bad
support), 2 usage or syntax errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .autgrp import (A1, Z, NotAnAutomorphismError, compose, decompose,
                     realize)
from .gfq import UsageError
from .parsing import parse_automorphism, parse_field_spec, parse_unipoly
from .resmap import res, res_inverse
from .suites import SUITES, run_suite
from .theta import theta, theta_inverse, theta_inverse_oracle
from .weyl import verify_pth_power_identity


class VerificationFailure(Exception):
    """Domain-level failure: well-formed input, negative verdict."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylp",
        description="Exact computations in the first Weyl algebra over "
                    "F_{p^n} and in the automorphism groups of its centre.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *positionals):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--field", required=True,
                        help="field spec, e.g. p=2 or p=2,n=2,mod=g^2+g+1")
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON object instead of plain text")
        for pos, phelp in positionals:
            sp.add_argument(pos, help=phelp)
        return sp

    add("pow-check", "verify (d+f)^p = d^p + f^(p-1) + f^p for one f",
        ("poly", "polynomial in x"))
    add("theta", "apply f -> f^p + f^(p-1)", ("poly", "polynomial in x"))
    add("theta-inv", "invert f -> f^p + f^(p-1)",
        ("poly", "polynomial in x with exponents divisible by p"))
    add("res", "restrict an A_1 automorphism to the centre",
        ("aut", "A_1 automorphism: (exprX; exprY) or a word"))
    add("res-inv", "inverse of the restriction on jacobian-1 automorphisms",
        ("aut", "centre automorphism: (exprX; exprY) or a word"))
    add("decompose", "canonical word of a centre automorphism",
        ("aut", "centre automorphism: (exprX; exprY) or a word"))
    sp = add("compose", "compose two automorphisms (left acts after right)",
             ("aut_a", "first automorphism"), ("aut_b", "second automorphism"))
    sp.add_argument("--target", choices=(A1, Z), default=Z,
                    help="which algebra the automorphisms act on (default Z)")
    add("jacobian", "jacobian of a centre endomorphism",
        ("aut", "centre images: (exprX; exprY) or a word"))
    sp = add("fuzz", "run a randomized verification suite",
             ("suite", "one of: " + ", ".join(sorted(SUITES))))
    sp.add_argument("--count", type=int, default=100,
                    help="number of random cases (default 100)")
    sp.add_argument("--seed", type=int, default=0,
                    help="RNG seed (default 0)")
    return parser


def _emit(args, kind: str, field, result: str, checks: dict) -> None:
    if args.json:
        print(json.dumps({"kind": kind, "field": str(field),
                          "result": result, "checks": checks}))
    else:
        print(result)


def _run(args) -> int:
    spec = parse_field_spec(args.field)
    command = args.command
    if command == "pow-check":
        f = parse_unipoly(args.poly, spec)
        ok = verify_pth_power_identity(f)
        image = theta(f)
        rhs = "d^%d" % spec.p if image.is_zero() else \
            "d^%d+%s" % (spec.p, image)
        result = "%s: (d+%s)^%d = %s" % ("OK" if ok else "FAIL", f, spec.p,
                                         rhs)
        _emit(args, command, spec, result, {"identity": ok})
        if not ok:
            raise VerificationFailure("the p-th power identity failed")
        return 0
    if command == "theta":
        f = parse_unipoly(args.poly, spec)
        _emit(args, command, spec, str(theta(f)), {})
        return 0
    if command == "theta-inv":
        g = parse_unipoly(args.poly, spec)
        f = theta_inverse(g)
        checks = {"oracle_agrees": theta_inverse_oracle(g) == f,
                  "round_trip": theta(f) == g}
        _emit(args, command, spec, str(f), checks)
        if not all(checks.values()):
            raise VerificationFailure("theta inversion checks failed")
        return 0
    if command == "res":
        sigma = parse_automorphism(args.aut, spec, A1)
        r = res(sigma)
        checks = {"jacobian_one": r.jacobian_value == spec.one(),
                  "degree_preserved": r.degree_in == r.degree_out}
        _emit(args, command, spec, str(r.image), checks)
        return 0
    if command == "res-inv":
        g = parse_automorphism(args.aut, spec, Z)
        sigma = res_inverse(g)
        checks = {"restriction_round_trip": res(sigma).image == g}
        _emit(args, command, spec, str(sigma), checks)
        if not all(checks.values()):
            raise VerificationFailure("res o res_inverse is not the identity")
        return 0
    if command == "decompose":
        g = parse_automorphism(args.aut, spec, Z)
        word = decompose(g)
        checks = {"realize_matches": realize(word) == g}
        _emit(args, command, spec, str(word), checks)
        if not all(checks.values()):
            raise VerificationFailure("decomposition does not realize back")
        return 0
    if command == "compose":
        a = parse_automorphism(args.aut_a, spec, args.target)
        b = parse_automorphism(args.aut_b, spec, args.target)
        _emit(args, command, spec, str(compose(a, b)), {})
        return 0
    if command == "jacobian":
        g = parse_automorphism(args.aut, spec, Z)
        jac = g.jacobian()
        checks = {"constant": not (set(jac.coeffs) - {(0, 0)}),
                  "nonzero": not jac.is_zero()}
        _emit(args, command, spec, str(jac), checks)
        return 0
    if command == "fuzz":
        if args.count < 1:
            raise UsageError("--count must be positive")
        rng = random.Random(args.seed)
        report = run_suite(args.suite, spec, args.count, rng)
        _emit(args, command, spec, report.summary(),
              {"all_passed": report.all_passed})
        if not report.all_passed:
            raise VerificationFailure("fuzz suite found failures")
        return 0
    raise AssertionError("unhandled command %r" % command)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except VerificationFailure:
        return 1
    except NotAnAutomorphismError as exc:
        print("error: not an automorphism: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        # UsageError covers ParseError
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
