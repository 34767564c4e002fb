"""Compare two checkouts on whole restriction passes, in one process.

Both checkouts are loaded into this interpreter side by side: each one's
``src/weylp`` as a package of its own (``weylp_base`` and ``weylp_head``)
and its own ``bench/workloads.py`` on top of it.  Run from the repository
root:

    python3 tools/pass_pairs.py --base ../parent [--head .] [--seed 0] \\
        [--rounds 10]

Each side first builds the restriction case list of ``--seed`` and runs
one untimed pass; the digests of the two sides' outputs must be equal and
every case's self-check must hold.  Then ``--rounds`` rounds, each
PASSES_PER_ROUND whole passes per side, the two sides taking turns pass
by pass; the side that runs first switches every pass, and every round.
A round's head / base ratio compares the two sides' summed pass times,
taken interleaved, so both sides share whatever speed the host has over
the round, and each side's time spans several passes, long against one
pass (a tenth of a second) and against the host's shortest swings in
speed.  Printed: each round's summed pass times and ratio, then the median
and quartiles of the ratios and the rounds the head won (a ratio that
prints below 1.000).

The exit status is 1 when the digests differ, a self-check fails, or a
timed pass gives other outputs than the untimed one.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import os
import sys
from time import perf_counter

from bench_pairs import quartiles

WORKLOAD = "restriction"
# whole passes per side in each round, interleaved, timed as one sum
PASSES_PER_ROUND = 5


def _load(name: str, path: str, package_dir=None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=package_dir)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(checkout: str, side: str):
    """``checkout``'s bench/workloads.py, built on the checkout's own
    package, imported as ``weylp_<side>``."""
    checkout = os.path.abspath(checkout)
    name = "weylp_" + side
    src = os.path.join(checkout, "src", "weylp")
    _load(name, os.path.join(src, "__init__.py"), [src])
    # workloads.py imports weylp.*: while it loads, those names are this
    # side's modules, and afterwards what they were before
    def ours(key, prefix="weylp"):
        return key == prefix or key.startswith(prefix + ".")
    saved = {k: m for k, m in sys.modules.items() if ours(k)}
    for key in saved:
        del sys.modules[key]
    sys.modules.update({"weylp" + k[len(name):]: m
                        for k, m in list(sys.modules.items())
                        if ours(k, name)})
    try:
        return _load("workloads_" + side,
                     os.path.join(checkout, "bench", "workloads.py"))
    finally:
        for key in [k for k in sys.modules if ours(k)]:
            del sys.modules[key]
        sys.modules.update(saved)


def digest(outputs: list) -> str:
    return hashlib.sha256("\n".join(outputs).encode()).hexdigest()[:16]


def timed_pass(cases) -> tuple:
    """Seconds of one whole pass, and its outputs."""
    gc.collect()
    t0 = perf_counter()
    outputs = [case.run()[1] for case in cases]
    return perf_counter() - t0, outputs


def timed_round(cases: dict, references: dict, order: tuple) -> tuple:
    """Per side of ``order``, the summed seconds of PASSES_PER_ROUND whole
    passes over its ``cases``, the sides taking turns pass by pass, the
    first being order[0] and then switching every pass; and the side of a
    pass that gave other outputs than its ``references``, or None."""
    seconds = dict.fromkeys(order, 0.0)
    for i in range(PASSES_PER_ROUND):
        for side in order if i % 2 == 0 else order[::-1]:
            t, outputs = timed_pass(cases[side])
            if outputs != references[side]:
                return seconds, side
            seconds[side] += t
    return seconds, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="base checkout")
    parser.add_argument("--head", default=".", help="head checkout")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = ("base", "head")
    cases, references, digests = {}, {}, {}
    for side in sides:
        checkout = getattr(args, side)
        cases[side] = load_workloads(checkout, side).build(
            WORKLOAD, args.seed, checkout)
        results = [case.run() for case in cases[side]]
        references[side] = [out for _, out in results]
        digests[side] = digest(references[side])
        failed = sum(not ok for ok, _ in results)
        print("%s: %s, %d cases, digest %s, %d self-checks failed"
              % (side, checkout, len(results), digests[side], failed))
        if failed:
            return 1
    if digests["base"] != digests["head"]:
        print("the digests differ: the two checkouts give other answers")
        return 1
    print("round  first  base_s  head_s  head/base")
    ratios = []
    for i in range(args.rounds):
        order = sides if i % 2 == 0 else sides[::-1]
        seconds, other = timed_round(cases, references, order)
        if other:
            print("round %d: a %s pass gave other outputs" % (i + 1, other))
            return 1
        ratios.append(seconds["head"] / seconds["base"])
        print("%5d  %5s  %6.4f  %6.4f  %9.3f" % (
            i + 1, order[0], seconds["base"], seconds["head"], ratios[-1]))
    q1, median, q3 = quartiles(ratios)
    # a round is won on the ratio as printed: one in [0.9995, 1) reads
    # 1.000, a tie
    won = sum(float("%.3f" % r) < 1 for r in ratios)
    print("head/base median %.3f [%.3f, %.3f], head won %d of %d rounds"
          % (median, q1, q3, won, len(ratios)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
