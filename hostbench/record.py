"""Re-record ``expected.json``: the simulated outcome of each workload.

Usage, from the repository root::

    python3 hostbench/record.py 0 4242

Runs one reference window of every workload for each given seed and
stores its event count, digest and telemetry-hub counters. Only do
this after a change that is meant to alter simulated results; a
speed-only change must leave every recorded outcome untouched.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [0]
    workloads = run._import_program()
    expected = {}
    for name in run.NAMES:
        cls = workloads.WORKLOADS[name]
        for seed in seeds:
            wins, _, _ = run.measure(cls(seed, 1.0), 1)
            win = wins[0]
            if win.failed:
                print(f"{name} seed {seed}: {win.problems}", file=sys.stderr)
                return 1
            expected.setdefault(name, {})[str(seed)] = win.outcome
            print(f"{name} seed {seed}: events={win.events} digest={win.digest[:16]}")
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
