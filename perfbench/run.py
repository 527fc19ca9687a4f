#!/usr/bin/env python3
"""The repository benchmark: one command per workload, end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0

Workloads (see each module's docstring for why it exists):

- ``query-mix`` (:mod:`query_mix`) -- closed loop of small indexed,
  kNN, distance and planned queries over a saved-and-reloaded index;
- ``spatial-join`` (:mod:`spatial_join`) -- closed loop of analytic jobs:
  points x polygons, the Fig. 4 self-join, MR-DBSCAN;
- ``geofence-stream`` (:mod:`geofence_stream`) -- open loop at a fixed
  input rate through a durable streaming pipeline.

Every run generates its inputs with numpy from ``--seed``, uses the
library's default ``threads`` executor with ``parallelism =
os.cpu_count()``, checks every output against a brute-force reference
after timing ends, and prints human-readable lines followed, as the
last line, by one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A mismatch or a failed op makes the run exit 1.

End-to-end metrics (``--trace 0``), each defined per workload, because
every workload reports every one of them:

======================  =====  ===============================================
``setup_s``             s      median of repeated set-ups (inputs handed over
                               -> ready to serve)
``latency_p50_ms``      ms     median latency: query / round of the three
                               analytic jobs / batch emit latency from the
                               batch's scheduled time
``latency_tail_ms``     ms     a fixed high percentile with >= 10 samples
                               beyond it: p99 query / p75 round / p95 batch
                               (the count is printed)
``throughput_per_s``    1/s    queries/s, jobs/s, records/s of busy stream
                               time
``peak_rss_mb``         MB     peak resident memory of the process through
                               set-up and warm-up (a fixed amount of work, so
                               a loop that runs more ops in the same time is
                               not charged for them)
======================  =====  ===============================================

Above the result line each workload also prints its own named metrics
(``query_p50_ms``, ``query_p99_ms``, ``queries_per_s``; ``join_s``,
``selfjoin_s``, ``dbscan_s``; ``emit_latency_p50_ms``,
``emit_latency_p95_ms``, ``stream_capacity_rps``, generator lag and
backlog) with their units and sample counts.

``--trace 1`` measures the per-layer metrics of :mod:`layers` instead:
it traces the first set-up and every other op (a seeded half of the
batches on ``geofence-stream``; the ops in between stay untraced, and
the median ratio of the two latencies is the tracing overhead), takes
counters over a fixed prefix of traced ops so they repeat exactly for
one seed (``check_counters.py`` checks that), checks that each workload
stresses the layers it was chosen for, and writes the spans as JSON to
``.perfbench_out/``.

``--executor sequential`` runs the same job single-threaded; it is the
ungated reference recorded in ``perfbench/sequential_reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "query-mix": "query_mix",
    "spatial-join": "spatial_join",
    "geofence-stream": "geofence_stream",
}

#: Which layers must dominate each workload's traced self time.
LAYER_CHECKS = {
    "query-mix": [("spark+planner", ("spark", "planner"), ">", 0.5), ("geometry", ("geometry",), "<", 0.15)],
    "spatial-join": [("geometry+index", ("geometry", "index"), ">", 0.5)],
    "geofence-stream": [
        ("streaming.*", ("streaming", "checkpoint", "state", "window", "cep", "sinks"), ">", 0.5)
    ],
}

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--executor", choices=("threads", "sequential"), default="threads")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"library sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import importlib

    from harness import OUT_DIR, Report, Scratch, provenance

    workload = importlib.import_module(WORKLOADS[args.workload])
    parallelism = os.cpu_count() or 1
    report = Report()
    report.line("# provenance " + json.dumps(provenance(args, parallelism), sort_keys=True))
    tracer = None
    if args.trace:
        from tracer import build_tracer

        tracer = build_tracer()
    scratch = Scratch(args.workload)
    try:
        e2e, traced = workload.run(args, parallelism, report, scratch, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        scratch.close()

    report.line("# end to end" + (" (traced run: informational)" if tracer else ""))
    for name, unit in E2E_UNITS.items():
        report.metric(name, e2e[name], unit)
    report.line(f"# ops attempted {report.attempted}, failed {report.failed}")

    if tracer is None:
        metrics = {name: {"value": float(e2e[name]), "unit": unit} for name, unit in E2E_UNITS.items()}
        return report.finish(metrics)

    import layers

    values = layers.compute(traced["snapshot"], traced["loop"], traced["values"])
    values["trace.spans"] = len(tracer.spans)
    layers.print_table(report, values)
    for label, parts, op, bound in LAYER_CHECKS[args.workload]:
        share = sum(values[f"layer_share.{p}"] for p in parts)
        ok = share > bound if op == ">" else share < bound
        report.line(f"# layer check {args.workload}: {label} share {share:.3f} {op} {bound} -> {'ok' if ok else 'FAILED'}")
    report.line(
        "# deterministic counters "
        + json.dumps({name: values.get(name, 0) for name in layers.DETERMINISTIC}, sort_keys=True)
    )
    if tracer.missing:
        report.line("# patch targets not found: " + ", ".join(tracer.missing))
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    tracer.write_spans(spans_path, {"workload": args.workload, "seed": args.seed})
    report.line(f"# spans written to {spans_path}")
    return report.finish(layers.as_metrics(values))


if __name__ == "__main__":
    sys.exit(main())
