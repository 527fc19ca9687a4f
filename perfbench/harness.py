"""Shared plumbing: statistics, provenance, scratch space, result lines."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

perf = time.perf_counter

#: Scratch and output directory, relative to the working directory
#: (the checkout root); every file the benchmark writes lives below it.
OUT_DIR = ".perfbench_out"


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def summary(values) -> dict:
    """Median and quartiles of a sample, plus its size."""
    values = list(values)
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "q1": q1, "median": statistics.median(values), "q3": q3}


def tail(values, q: float) -> dict:
    """The *q*-th percentile with the number of samples above it."""
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return {"percentile": q, "value": value, "n": len(values), "beyond": beyond}


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def provenance(args, parallelism: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "executor": args.executor,
        "parallelism": parallelism,
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


class Scratch:
    """A per-process scratch directory under :data:`OUT_DIR`, removed on close."""

    def __init__(self, tag: str) -> None:
        self.path = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)

    def sub(self, name: str) -> str:
        return os.path.join(self.path, name)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class Report:
    """Human-readable lines, op accounting and the final result line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def line(self, text: str) -> None:
        print(text, flush=True)

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        suffix = f"  ({note})" if note else ""
        self.line(f"  {name:<28} {value:>14.6g} {unit}{suffix}")

    def mismatch(self, what: str) -> None:
        """Count one failed op (raised, or differs from its reference)."""
        self.failed += 1
        if self.failed <= 20:
            print(f"MISMATCH: {what}", file=sys.stderr, flush=True)

    def finish(self, metrics: dict) -> int:
        """Print the result line; the exit code is 1 unless every op passed."""
        for name, entry in metrics.items():
            if not math.isfinite(entry["value"]):
                raise ValueError(f"metric {name} is not finite: {entry['value']}")
        correct = self.failed == 0
        result = {
            "correct": correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": metrics,
        }
        print(json.dumps(result), flush=True)
        return 0 if correct else 1
