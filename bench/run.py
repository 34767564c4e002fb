"""weylp benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): restriction, cli-oneshot.  The
run is a closed loop with one client and one case in flight:

1. set-up, SETUP_REPEATS times: import weylp in a fresh interpreter,
   construct the FieldSpec grid and generate the seeded case list;
   ``setup_s`` is the median;
2. untimed warm-up: the anchor cases (every ANCHOR_STEP-th case of the
   recorded seed 0, checked against digests.json) and, in-process, one full
   pass over the case list, whose outputs become the reference;
3. timed passes over the whole case list until ``--seconds`` is used up.

Every execution is checked: its self-check must pass, its output must equal
the reference, and the reference must match the recorded digest when
digests.json has one for this seed.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 9
ANCHOR_SEED = 0
ANCHOR_STEP = 10


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def recorded_digests(workload: str, seed: int):
    """Per-case output digests recorded for this seed, or None."""
    try:
        with open(DIGESTS) as fh:
            joined = json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None
    if joined is None:
        return None
    return [joined[i:i + 8] for i in range(0, len(joined), 8)]


# ----------------------------------------------------------------------
# set-up


def import_seconds(workload: str) -> float:
    """Seconds to import weylp in a fresh interpreter."""
    module = "weylp.cli" if workload == "cli-oneshot" else "weylp"
    code = ("from time import perf_counter as c; t = c(); import %s; "
            "print(c() - t)" % module)
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def set_up(workloads, workload: str, seed: int):
    t0 = perf_counter()
    cases = workloads.build(workload, seed, ROOT)
    return perf_counter() - t0, cases


# ----------------------------------------------------------------------
# passes


class Checker:
    """Counts executions and failures.  An execution fails when its
    self-check fails, when its output differs from ``references[i]``, or when
    the digest of its output differs from ``recorded[i]``."""

    def __init__(self, references=None, recorded=None):
        self.references = references
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0

    def check(self, i, ok, out):
        good = (ok and (self.references is None or out == self.references[i])
                and (self.recorded is None or (i < len(self.recorded)
                                               and digest(out)
                                               == self.recorded[i])))
        self.attempted += 1
        self.failed += not good


def run_pass(cases, checker=None, tracer=None):
    """One pass over ``cases``; returns (wall seconds, per-case seconds,
    outputs)."""
    times, outputs = [], []
    t_pass = perf_counter()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case_id = i
        t0 = perf_counter()
        try:
            ok, out = case.run(tracer)
        except Exception as exc:  # a crashing case is a failed case
            ok, out = False, "error: %s: %s" % (type(exc).__name__, exc)
        times.append(perf_counter() - t0)
        outputs.append(out)
        if checker is not None:
            checker.check(i, ok, out)
    return perf_counter() - t_pass, times, outputs


def run_passes(cases, checker, seconds=0.0, passes=None, tracer=None):
    """Whole passes until ``seconds`` are used, stopping when the next pass
    would end further past the deadline than short of it; or exactly
    ``passes`` passes.  Returns (pass walls, per-case times, last outputs)."""
    walls, per_case = [], [[] for _ in cases]
    while True:
        wall, times, outputs = run_pass(cases, checker, tracer)
        walls.append(wall)
        for slot, t in zip(per_case, times):
            slot.append(t)
        if passes is not None:
            if len(walls) >= passes:
                break
        elif sum(walls) + wall / 2 >= seconds:
            break
    return walls, per_case, outputs


def warm_up(workloads, workload, cases, checker):
    """Untimed.  Runs the anchor cases through ``checker`` against the
    recorded seed's digests, then returns the references for ``cases``: the
    stdout computed in-process on cli-oneshot, the outputs of one pass
    otherwise."""
    anchors = workloads.build(workload, ANCHOR_SEED, ROOT)[::ANCHOR_STEP]
    recorded = recorded_digests(workload, ANCHOR_SEED)
    cli = workload == "cli-oneshot"
    checker.references = [case.expected for case in anchors] if cli else None
    checker.recorded = recorded[::ANCHOR_STEP] if recorded else None
    run_pass(anchors, checker)
    if cli:
        return [case.expected for case in cases]
    return run_pass(cases)[2]


# ----------------------------------------------------------------------
# metrics


def peak_rss_mb(workload: str) -> float:
    who = (resource.RUSAGE_CHILDREN if workload == "cli-oneshot"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, cases, walls, per_case, setup_s, checker):
    medians = [statistics.median(ts) for ts in per_case]
    return {
        "cases_per_s": (len(cases) * len(walls) / sum(walls), "1/s"),
        "case_p50_ms": (1000 * statistics.median(medians), "ms"),
        "case_p90_ms": (1000 * statistics.quantiles(
            medians, n=10, method="inclusive")[8], "ms"),
        "pass_ratio": (1 - checker.failed / checker.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }


def slowest(cases, per_case):
    medians = [statistics.median(ts) for ts in per_case]
    i = max(range(len(cases)), key=medians.__getitem__)
    case = cases[i]
    return "slowest case: #%d %s field=%s %.3f ms input: %s" % (
        i, case.kind, case.field, 1000 * medians[i], case.text)


def per_layer(tracer, setup_tracer, passes, traced_wall, untraced_wall):
    """Per pass of the case list; set-up metrics per set-up."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {
        "gfq.spec_init.calls": (setup_tracer.calls["gfq.spec_init"]
                                + calls["gfq.spec_init"] / passes, "count"),
        "gfq.spec_init.s": (setup_tracer.self_s["gfq.spec_init"]
                            + self_s["gfq.spec_init"] / passes, "s"),
        "gfq.elem_ops.calls": (counts["gfq.elem_ops.calls"] / passes,
                               "count"),
        "gfq.elem_ops.untabled_calls": (
            counts["gfq.elem_ops.untabled_calls"] / passes, "count"),
        "poly.uni_mul.terms_out": (counts["poly.uni_mul.terms_out"] / passes,
                                   "count"),
        "weyl.mul.pairs": (counts["weyl.mul.pairs"] / passes, "count"),
        "weyl.mul.terms_out": (counts["weyl.mul.terms_out"] / passes,
                               "count"),
        "weyl.mul.max_terms": (tracer.max_terms, "count"),
        "cli.import_s": (self_s["cli.import"] / passes, "s"),
        "suites.gen_s": (setup_tracer.self_s["suites.gen"], "s"),
        "check.share": (tracer.check_s / tracer.case_s, "ratio"),
        "trace.overhead": (traced_wall / untraced_wall, "ratio"),
    }
    for layer in ("poly.uni_mul", "poly.bi_mul", "poly.add", "weyl.mul",
                  "autgrp.decompose", "parsing.parse"):
        out[layer + ".calls"] = (calls[layer] / passes, "count")
    for layer in ("poly.uni_mul", "poly.bi_mul", "poly.add",
                  "poly.bi_substitute", "weyl.mul", "weyl.verify",
                  "weyl.is_central", "weyl.substitute", "theta.theta",
                  "theta.inverse", "theta.oracle", "autgrp.decompose",
                  "autgrp.realize", "autgrp.compose", "resmap.res",
                  "resmap.res_inverse", "resmap.res_affine",
                  "resmap.res_n_bruteforce", "parsing.parse", "cli.main"):
        out[layer + ".self_s"] = (self_s[layer] / passes, "s")
    return out


def attribution_errors(workload, tracer, traced_digest, untraced_digest):
    errors = []
    if workload == "restriction" and not tracer.calls["weyl.mul"]:
        errors.append("weyl.mul.calls is 0 on restriction")
    if traced_digest != untraced_digest:
        errors.append("traced digest %s differs from untraced %s"
                      % (traced_digest, untraced_digest))
    return errors


def write_spans(workload, seed, spans):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (workload, seed))
    with open(path, "w") as fh:
        for span_id, parent, name, start, end, case in spans:
            fh.write(json.dumps({"id": span_id, "parent": parent,
                                 "name": name, "start": start, "end": end,
                                 "case": case}) + "\n")
    return path


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "weylp", "__init__.py")):
        print("error: weylp sources not found under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from tracer import Tracer
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))

    setups = []
    for _ in range(SETUP_REPEATS):
        # start each set-up on a heap freed of the previous one's case list,
        # so that it neither pays for that garbage nor adds it to peak RSS
        cases = None
        gc.collect()
        build_s, cases = set_up(workloads, args.workload, args.seed)
        setups.append(import_seconds(args.workload) + build_s)
    setup_s = statistics.median(setups)

    checker = Checker()
    references = warm_up(workloads, args.workload, cases, checker)
    checker.references = references
    checker.recorded = recorded_digests(args.workload, args.seed)
    print("output digest %s, seed %d %s" % (
        digest("\n".join(references)), args.seed,
        "recorded" if checker.recorded else "not recorded"))

    errors = []
    if not args.trace:
        walls, per_case, _ = run_passes(cases, checker, args.seconds)
        metrics = end_to_end(args.workload, cases, walls, per_case, setup_s,
                             checker)
    else:
        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            set_up(workloads, args.workload, args.seed)
        finally:
            setup_tracer.uninstall()
        walls, per_case, untraced_out = run_passes(cases, checker,
                                                   args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        tracer.record_spans = True
        try:
            traced_walls, _, traced_out = run_passes(
                cases, checker, passes=len(walls), tracer=tracer)
        finally:
            tracer.uninstall()
        print("spans written to %s"
              % write_spans(args.workload, args.seed, tracer.spans))
        metrics = per_layer(tracer, setup_tracer, len(traced_walls),
                            sum(traced_walls), sum(walls))
        errors = attribution_errors(args.workload, tracer,
                                    digest("\n".join(traced_out)),
                                    digest("\n".join(untraced_out)))
    print(slowest(cases, per_case))
    for message in errors:
        print("error: %s" % message, file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0 and not errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
