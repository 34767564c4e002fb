"""Command-line front-end.

Subcommands: pow-check, theta, theta-inv, res, res-inv, decompose, compose,
jacobian, fuzz.  Each is one handler in _COMMANDS that maps the parsed
arguments and the field to a canonical result line and a dict of the checks
it made; the command prints that line (or, with --json, a stable JSON object
holding both).  Every command takes --field "p=<int>[,n=<int>,mod=<poly in
g>]".  Exit codes: 0 success; 1 a failed check of a command whose checks
are verdicts (pow-check, theta-inv, res-inv, decompose, fuzz) or a domain
failure (not an automorphism, either argument of compose included;
jacobian not 1; bad support); 2 usage or syntax errors; 3 an internal
check of the library failed (an AssertionError, such as the two
centrality criteria disagreeing), reported on one line that echoes the
command.
"""

from __future__ import annotations

import argparse
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

# the most cases one fuzz run takes: a count is refused (exit 2) before any
# case runs, as the expression budgets refuse an input before computing it
MAX_COUNT = 10000


def _pow_check(args, spec):
    f = parse_unipoly(args.poly, spec)
    ok = verify_pth_power_identity(f)
    image = theta(f)
    rhs = "d^%d" % spec.p if image.is_zero() else "d^%d+%s" % (spec.p, image)
    return ("%s: (d+%s)^%d = %s" % ("OK" if ok else "FAIL", f, spec.p, rhs),
            {"identity": ok})


def _theta(args, spec):
    return str(theta(parse_unipoly(args.poly, spec))), {}


def _theta_inv(args, spec):
    g = parse_unipoly(args.poly, spec)
    f = theta_inverse(g)
    return str(f), {"oracle_agrees": theta_inverse_oracle(g) == f,
                    "round_trip": theta(f) == g}


def _res(args, spec):
    r = res(parse_automorphism(args.aut, spec, A1))
    return str(r.image), {"jacobian_one": r.jacobian_value == spec.one(),
                          "degree_preserved": r.degree_in == r.degree_out}


def _res_inv(args, spec):
    g = parse_automorphism(args.aut, spec, Z)
    sigma = res_inverse(g)
    return str(sigma), {"restriction_round_trip": res(sigma).image == g}


def _decompose(args, spec):
    g = parse_automorphism(args.aut, spec, Z)
    word = decompose(g)
    return str(word), {"realize_matches": realize(word) == g}


def _compose(args, spec):
    # image pairs parse unvalidated, and compose takes endomorphisms
    a, b = (parse_automorphism(text, spec, args.target).validate()
            for text in (args.aut_a, args.aut_b))
    return str(compose(a, b)), {}


def _jacobian(args, spec):
    jac = parse_automorphism(args.aut, spec, Z).jacobian()
    return str(jac), {"constant": jac.degree <= 0,
                      "nonzero": not jac.is_zero()}


def _fuzz(args, spec):
    if args.count < 1:
        raise UsageError("--count must be positive")
    if args.count > MAX_COUNT:
        raise UsageError("--count must be at most %d" % MAX_COUNT)
    report = run_suite(args.suite, spec, args.count, random.Random(args.seed))
    return report.summary(), {"all_passed": report.all_passed}


# name: (handler, help, positional arguments with their help); a handler
# maps (args, spec) to the result line and a dict of the checks it made
_COMMANDS = {
    "pow-check": (_pow_check, "verify (d+f)^p = d^p + f^(p-1) + f^p for one f",
                  ("poly", "polynomial in x")),
    "theta": (_theta, "apply f -> f^p + f^(p-1)", ("poly", "polynomial in x")),
    "theta-inv": (_theta_inv, "invert f -> f^p + f^(p-1)",
                  ("poly", "polynomial in x with exponents divisible by p")),
    "res": (_res, "restrict an A_1 automorphism to the centre",
            ("aut", "A_1 automorphism: (exprX; exprY) or a word")),
    "res-inv": (_res_inv,
                "inverse of the restriction on jacobian-1 automorphisms",
                ("aut", "centre automorphism: (exprX; exprY) or a word")),
    "decompose": (_decompose, "canonical word of a centre automorphism",
                  ("aut", "centre automorphism: (exprX; exprY) or a word")),
    "compose": (_compose, "compose two automorphisms (left acts after right)",
                ("aut_a", "first automorphism"),
                ("aut_b", "second automorphism")),
    "jacobian": (_jacobian, "jacobian of a centre endomorphism",
                 ("aut", "centre images: (exprX; exprY) or a word")),
    "fuzz": (_fuzz, "run a randomized verification suite",
             ("suite", "one of: " + ", ".join(sorted(SUITES)))),
}
# commands whose checks are verdicts: one failed check exits 1
_VERDICTS = frozenset(("pow-check", "theta-inv", "res-inv", "decompose",
                       "fuzz"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylp",
        description="Exact computations in the first Weyl algebra over "
                    "F_{p^n} and in the automorphism groups of its centre.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, *positionals) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--field", required=True,
                        help="field spec, e.g. p=2 or p=2,n=2,mod=g^2+g+1")
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON object instead of plain text")
        for pos, phelp in positionals:
            sp.add_argument(pos, help=phelp)
    sub.choices["compose"].add_argument(
        "--target", choices=(A1, Z), default=Z,
        help="which algebra the automorphisms act on (default Z)")
    fuzz = sub.choices["fuzz"]
    fuzz.add_argument("--count", type=int, default=100,
                      help="number of random cases, at most %d "
                           "(default 100)" % MAX_COUNT)
    fuzz.add_argument("--seed", type=int, default=0,
                      help="RNG seed (default 0)")
    return parser


def _run(args) -> int:
    spec = parse_field_spec(args.field)
    result, checks = _COMMANDS[args.command][0](args, spec)
    if args.json:
        import json     # here only: every other command would pay its load
        print(json.dumps({"kind": args.command, "field": str(spec),
                          "result": result, "checks": checks}))
    else:
        print(result)
    return int(args.command in _VERDICTS and not all(checks.values()))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except NotAnAutomorphismError as exc:
        print("error: not an automorphism: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        # UsageError covers ParseError
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    except AssertionError as exc:
        import shlex    # here only, as json: no other exit pays its load
        command = shlex.join(sys.argv[1:] if argv is None else argv)
        print("error: internal check failed: %s (input: %s)"
              % (exc, command), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
