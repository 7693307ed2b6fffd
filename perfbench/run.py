"""GhostBuster benchmark: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload incident-cold --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
``--trace 0`` measures the workload untraced and prints every end-to-end
metric named in ``BENCHMARK.json``; ``--trace 1`` runs the same seed
twice at half length, untraced and then with the layer tracer installed,
checks that both passes gave identical verdicts, and prints every
per-layer metric.  The last stdout line is the result object; a short
human-readable report goes to stderr, and the traced run's spans to
``.perfbench_out/``.  Scratch state lives in ``.perfbench_work/`` and is
removed before exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the value with ``ceil(p% * n)`` at or
    below it, so p95 of 200 samples leaves 10 beyond."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


TAIL_PERCENTILES = (99.9, 99.0, 98.0, 97.0, 96.0, 95.0, 90.0, 80.0, 75.0,
                    50.0)


def tail_percentile(count: int) -> float:
    """The highest listed percentile with at least 10 samples beyond."""
    for p in TAIL_PERCENTILES:
        if count - math.ceil(p / 100.0 * count) >= 10:
            return p
    return 50.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(tally, setup_s, peak_rss_mb: float) -> dict:
    """Every end-to-end metric of one untraced pass."""
    samples = tally.unit_ms
    infected = tally.detected + tally.missed
    flagged = tally.detected + tally.false_positives
    tail = tail_percentile(len(samples))
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "verdict_ms_p50": statistics.median(samples),
        "verdict_ms_p95": percentile(samples, 95.0),
        "epoch_us_per_machine_p50": statistics.median(samples) * 1000.0,
        "epoch_us_per_machine_tail": percentile(samples, tail) * 1000.0,
        "verdicts_per_s": ratio(tally.attempted, tally.wall_s),
        "sim_scan_s_per_machine": ratio(tally.sim_seconds, tally.attempted),
        "recall": ratio(tally.detected, infected),
        "precision": ratio(tally.detected, flagged),
        "confirmed_share": ratio(tally.confirmed, infected),
        "failed_share": ratio(tally.failed, tally.attempted),
        "console_query_us_p50": statistics.median(tally.query_us),
        "console_query_us_p99": percentile(tally.query_us, 99.0),
    }, {"samples": len(samples), "tail_percentile": tail,
        "queries": len(tally.query_us), "infected_verdicts": infected,
        "missed": tally.missed, "false_positives": tally.false_positives,
        "errors": tally.errors}


def per_layer(tracer, traced, plain) -> dict:
    """Every per-layer metric of one traced pass (see the README)."""
    table = tracer.rollup()
    counters = tracer.counter_deltas
    verdicts = max(1, traced.attempted)
    units = max(1, len(traced.unit_ms))

    def calls(span):
        return table.get(span, {}).get("calls", 0)

    def self_ms_per_verdict(span):
        return table.get(span, {}).get("self_ns", 0) / 1e6 / verdicts

    def mean_ms(span):
        row = table.get(span)
        return row["ns"] / 1e6 / row["calls"] if row else 0.0

    def per_unit_ms(span):
        return table.get(span, {}).get("ns", 0) / 1e6 / units

    def counter(name):
        return counters.get(name, 0.0)

    def hit_ratio(hit, other):
        return ratio(counter(hit), counter(hit) + counter(other))

    # The sweep unit's own span: epochs, or incident-cold's scan calls.
    root = table.get("coordinator") or table.get("scanwork.scan") or {}
    scans = calls("ghostbuster.inside_scan")
    rounds = counter("scan.stabilize.rounds")
    escalations = counter("fleet.escalations")
    return {
        "ntfs.mft_parse.calls": calls("ntfs.mft_parse"),
        "ntfs.mft_parse.self_ms": self_ms_per_verdict("ntfs.mft_parse"),
        "ntfs.mft_parse.cache_hit_ratio": hit_ratio(
            "mft.parse.cache_hit", "mft.parse.cache_miss"),
        "ntfs.records_patched": counter("journal.records_patched"),
        "disk.read.calls": calls("disk.read"),
        "disk.read.bytes": tracer.counts.get("disk.read.bytes", 0),
        "registry.hive_parse.calls": calls("registry.hive_parse"),
        "registry.hive_parse.self_ms":
            self_ms_per_verdict("registry.hive_parse"),
        "registry.hive_memo_hit_ratio": hit_ratio(
            "hive.parse.memo_hit", "hive.parse.memo_miss"),
        "registry.bins_reparsed_ratio": hit_ratio(
            "hive.delta.bins_reparsed", "hive.delta.bins_reused"),
        "winapi.file_enum.self_ms": self_ms_per_verdict("winapi.file_enum"),
        "winapi.asep_enum.self_ms": self_ms_per_verdict("winapi.asep_enum"),
        "winapi.process_enum.self_ms":
            self_ms_per_verdict("winapi.process_enum"),
        "winapi.entries_enumerated":
            tracer.counts.get("winapi.entries_enumerated", 0),
        "scanners.low_file.self_ms": self_ms_per_verdict("scanners.low_file"),
        "scanners.low_asep.self_ms": self_ms_per_verdict("scanners.low_asep"),
        "scanners.low_process.self_ms":
            self_ms_per_verdict("scanners.low_process"),
        "diff.calls": calls("diff"),
        "diff.self_ms": self_ms_per_verdict("diff"),
        "diff.entries": tracer.counts.get("diff.entries", 0),
        "ghostbuster.inside_scan.ms": mean_ms("ghostbuster.inside_scan"),
        # Multi-round scans count their rounds; single-round ones do not.
        "ghostbuster.rounds_per_scan":
            ratio(rounds, scans) if rounds else 1.0,
        "policy.confirm.calls": calls("policy.confirm"),
        "policy.confirm.ms": mean_ms("policy.confirm"),
        "policy.confirm_ratio": ratio(
            counter("fleet.escalations.confirmed"), escalations),
        "scanwork.scan.calls": calls("scanwork.scan"),
        "scanwork.scan.ms": mean_ms("scanwork.scan"),
        "scanwork.skip.calls": calls("scanwork.skip"),
        "scanwork.skip.us": mean_ms("scanwork.skip") * 1000.0,
        "queue.lease.us": mean_ms("queue.lease") * 1000.0,
        "queue.ack.us": mean_ms("queue.ack") * 1000.0,
        "queue.epoch_open_close.ms": per_unit_ms("queue.epoch_open_close"),
        "baseline.get.us": mean_ms("baseline.get") * 1000.0,
        "baseline.put.us": mean_ms("baseline.put") * 1000.0,
        "journal.append.calls": calls("journal.append"),
        "journal.append.us": mean_ms("journal.append") * 1000.0,
        "journal.bytes_per_epoch":
            tracer.counts.get("journal.bytes", 0) / units,
        "index.note.calls": calls("index.note"),
        "index.note.us": mean_ms("index.note") * 1000.0,
        "scheduler.plan.ms": mean_ms("scheduler.plan"),
        "aggregator.observe.us": mean_ms("aggregator.observe") * 1000.0,
        "coordinator.self_ms":
            table.get("coordinator", {}).get("self_ns", 0) / 1e6 / units,
        "workloads.apply.ms": per_unit_ms("workloads.apply"),
        "faults.retries": counter("faults.retries"),
        "fleet.scan.errors": counter("fleet.scan.errors"),
        "fleet.ack.late": counter("fleet.ack.late"),
        "scan.layer.failed": counter("scan.layer.failed"),
        "trace.overhead_pct":
            100.0 * (ratio(traced.wall_s, plain.wall_s) - 1.0),
        "trace.attributed_pct": 100.0 * (
            1.0 - ratio(root.get("self_ns", 0), root.get("ns", 0))),
    }


def emit(declared, values: dict) -> dict:
    """``{name: {value, unit}}`` for exactly the declared metrics."""
    missing = [spec["name"] for spec in declared
               if spec["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {', '.join(missing)}")
    return {spec["name"]: {"value": float(values[spec["name"]]),
                           "unit": spec["unit"]} for spec in declared}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes=None) -> dict:
    """One benchmark run; returns the result object."""
    from layertrace import LayerTracer
    from workloads import WORKLOADS

    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    cls = WORKLOADS[workload]
    sizes = sizes or {}
    os.makedirs(WORK_DIR, exist_ok=True)
    tempfile.tempdir = WORK_DIR      # spill files stay in the checkout

    def make(recording=None):
        return cls(seed, WORK_DIR, recording=recording, **sizes)

    bench = make()
    units = bench.units(seconds)
    if not trace:
        setup_s = []
        for attempt in range(bench.setup_repeats):
            if attempt:
                bench.close()
                bench = make()
            started = time.perf_counter()
            bench.setup()
            setup_s.append(time.perf_counter() - started)
        try:
            tally = bench.run(units)
        finally:
            bench.close()
        # Incident-cold synthesises its population machine by machine.
        setup_s = tally.setup_s or setup_s
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values, notes = end_to_end(tally, setup_s, rss_mb)
        metrics = emit(spec["end_to_end"], values)
        violations = tally.violations
    else:
        half = max(1, units // 2)
        bench.setup()
        try:
            plain = bench.run(half)
        finally:
            bench.close()
        tracer = LayerTracer()
        tracer.install()
        try:
            traced_bench = make(recording=tracer.recording)
            traced_bench.setup()
            try:
                tally = traced_bench.run(half)
            finally:
                traced_bench.close()
        finally:
            tracer.uninstall()
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR,
                                  f"spans-{workload}-seed{seed}.jsonl.gz")
        tracer.write_spans(spans_path)
        metrics = emit(spec["per_layer"], per_layer(tracer, tally, plain))
        violations = plain.violations + tally.violations
        if plain.keys != tally.keys:
            violations.append("traced and untraced verdict keys differ")
        notes = {"spans": len(tracer.spans), "spans_file": spans_path}
    for line in violations[:20]:
        print(f"violation: {line}", file=sys.stderr)
    print(f"{workload} seed={seed} units={len(tally.unit_ms)} "
          f"{json.dumps(notes, sort_keys=True)}", file=sys.stderr)
    return {"correct": not violations and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("incident-cold", "fleet-steady",
                                 "wave-churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
