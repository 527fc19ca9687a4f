#!/usr/bin/env python3
"""Record the single-threaded reference set: every workload once on
``executor="sequential"``.  Ungated; it shows what the threaded
executor buys on the measuring host.

    python3 perfbench/record_sequential.py --seed 1 --seconds 20

writes ``perfbench/sequential_reference.json`` with, per workload, the
end-to-end metrics and the workload's own named metrics as printed.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)")


def run_one(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--executor", "sequential"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} failed:\n{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    provenance = json.loads(lines[0].split(" ", 2)[2])
    named = {}
    for line in lines[1:-1]:
        match = LINE.match(line)
        if match:
            named[match.group(1)] = {"value": float(match.group(2)), "unit": match.group(3)}
    result = json.loads(lines[-1])
    return {"provenance": provenance, "result": result, "printed": named}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    from run import WORKLOADS

    doc = {name: run_one(name, args.seed, args.seconds) for name in WORKLOADS}
    out = HERE / "sequential_reference.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
