"""Compare two checkouts on the benchmark in alternated pairs of runs.

Each pair runs ``bench/run.py --trace 0`` once in the base checkout and once
in the head checkout at one seed and run length; the side that runs first
alternates from pair to pair.  Run from the repository root:

    python3 tools/bench_pairs.py --base ../parent --workload restriction \\
        --seeds 41-50 --seconds 50 [--head .]

``--workload`` may be given more than once; ``--seeds`` is a range (41-50)
or a comma list (41,43,45), one pair per seed.  Every run's result (the
last line of its stdout, with workload, seed and side) is printed to
stderr as it ends.  Then, per workload and end-to-end metric of the head's
BENCHMARK.json, one row: each side's median and quartiles, the base's
IQR / median, head / base, the pairs the head wins (ties count for
neither) and a verdict.  ``--out FILE`` also writes all of it as one JSON
object: each side's commit (``git describe --always --dirty``, null
outside git), the CPU count, the Python version, the seeds, the seconds
per run, every run, and the rows.  The verdicts:

    gain    the head wins at least nine tenths of the pairs and the medians
            differ, in the metric's better direction, by more than the
            base's IQR (the distance between its quartiles)
    within  no gain, and the head's median is worse than the base's by no
            more than the metric's bound (a fraction of the base's median)
    worse   otherwise

The exit status is 1 when a run does not end in ``"correct": true``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run, as a dict."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True,
                         text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def commit(checkout: str):
    """The commit ``checkout`` is at, marked -dirty when its files differ
    from it; None outside a git work tree."""
    out = subprocess.run(["git", "describe", "--always", "--dirty"],
                         cwd=checkout, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(metric: dict, base: list[float], head: list[float]) -> dict:
    """One row of the table for ``metric`` (an end_to_end entry of
    BENCHMARK.json), from the paired values of each side."""
    sign = 1 if metric["better"] == "higher" else -1
    bq, hq = quartiles(base), quartiles(head)
    iqr = bq[2] - bq[0]
    won = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    gap = sign * (hq[1] - bq[1])
    if won >= 0.9 * len(base) and gap > iqr:
        verdict = "gain"
    elif -gap <= metric["bound"] * abs(bq[1]):
        verdict = "within"
    else:
        verdict = "worse"
    return {"base": bq, "head": hq,
            "iqr_ratio": iqr / bq[1] if bq[1] else float("nan"),
            "ratio": hq[1] / bq[1] if bq[1] else float("nan"),
            "won": won, "pairs": len(base), "verdict": verdict}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="base checkout")
    parser.add_argument("--head", default=".", help="head checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--out", help="also write the runs and the rows "
                                      "to this JSON file")
    args = parser.parse_args(argv)
    with open(os.path.join(args.head, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = {"base": args.base, "head": args.head}
    runs = []
    for workload in args.workload:
        for i, seed in enumerate(args.seeds):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                result = run_once(sides[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed,
                             "side": side, **result})
                print(json.dumps(runs[-1]), file=sys.stderr, flush=True)

    print("| workload | metric | base median [q1, q3] | head median [q1, q3]"
          " | base IQR/median | head/base | won | verdict |")
    print("|---|---|---|---|---:|---:|---:|---|")
    rows = []
    for workload in args.workload:
        for metric in metrics:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs
                             if r["workload"] == workload
                             and r["side"] == side]
                      for side in sides}
            row = compare(metric, values["base"], values["head"])
            rows.append({"workload": workload, "metric": name, **row,
                         **{side: dict(zip(("q1", "median", "q3"), row[side]))
                            for side in sides}})
            print("| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.3f"
                  " | %.3f | %d/%d | %s |"
                  % (workload, name, row["base"][1], row["base"][0],
                     row["base"][2], row["head"][1], row["head"][0],
                     row["head"][2], row["iqr_ratio"], row["ratio"],
                     row["won"], row["pairs"], row["verdict"]))
    if args.out:
        report = {"commits": {side: commit(path)
                              for side, path in sides.items()},
                  "cpu_count": os.cpu_count(),
                  "python": sys.version.split()[0],
                  "seeds": args.seeds, "seconds": args.seconds,
                  "runs": runs, "rows": rows}
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["correct"] is True for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
