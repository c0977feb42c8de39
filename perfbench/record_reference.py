"""Record the DES workloads' reference fingerprints into reference.json.

    python3 perfbench/record_reference.py [first_seed] [last_seed]

For every DES workload and seed in the range (default 0..99) this runs
the timed phase once and stores each point's (tasks completed, records,
makespan).  ``run.py`` fails any repetition whose points differ from the
entry of its seed.  The DES is deterministic, so the file changes only
when the program's behaviour does: re-record it only in a change that
means to alter behaviour, and say so.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 99)
    table: dict = {}
    for name, workload in workloads.DES_WORKLOADS.items():
        for seed in range(first, last + 1):
            out = workload.run(seed)
            table.setdefault(name, {})[str(seed)] = {
                p["label"]: p["fingerprint"] for p in out["points"]
            }
            print(name, seed, file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
