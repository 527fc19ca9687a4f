#!/usr/bin/env python3
"""Check that the traced work counters repeat exactly for one seed.

    python3 perfbench/check_counters.py --workload spatial-join --seed 1 --seconds 20

Runs the traced workload twice and compares the counters listed in
``layers.DETERMINISTIC``; exits 1 and names every counter that differs.
A counter that does not repeat must not be used as a gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PREFIX = "# deterministic counters "


def counters(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} failed:\n{proc.stdout}\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith(PREFIX):
            return json.loads(line[len(PREFIX):])
    raise SystemExit("no counter line in the traced output")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    first = counters(args.workload, args.seed, args.seconds)
    second = counters(args.workload, args.seed, args.seconds)
    differ = sorted(k for k in first if first[k] != second.get(k))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "first": first, "second": second,
                      "not_repeating": differ}, sort_keys=True))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
