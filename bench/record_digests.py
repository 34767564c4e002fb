"""Record the output digests the benchmark checks against.

Usage (from the repository root):

    python3 bench/record_digests.py

For each workload and each seed 0..RECORDED_SEEDS-1 it builds the case
list, runs one pass and stores the 8-hex digest of every case's canonical
output, concatenated in case order, in bench/digests.json.  cli-oneshot
records the stdout each command must print, computed in-process.  It refuses
to record a case whose self-check fails.  Re-record only when a change is
meant to alter the case lists or their answers, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, ROOT, SRC, Checker, digest, run_pass

RECORDED_SEEDS = 32


def main() -> int:
    sys.path.insert(0, SRC)
    import workloads

    record = {}
    for workload in workloads.WORKLOADS:
        record[workload] = {}
        for seed in range(RECORDED_SEEDS):
            cases = workloads.build(workload, seed, ROOT)
            if workload == "cli-oneshot":
                outputs = [case.expected for case in cases]
            else:
                checker = Checker()
                outputs = run_pass(cases, checker)[2]
                if checker.failed:
                    raise SystemExit("%s seed %d: %d cases fail their "
                                     "self-check"
                                     % (workload, seed, checker.failed))
            record[workload][str(seed)] = "".join(digest(out)
                                                  for out in outputs)
            print(workload, seed, len(outputs), flush=True)
    with open(DIGESTS, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
