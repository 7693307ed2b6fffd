"""Span tracing from outside the program, for the benchmark's traced run.

The tracer replaces each layer's public function with a timing wrapper
(class methods on the class, module functions in the module the caller
looks them up in), keeps spans in memory as ``(name, start_ns, end_ns,
parent)`` and rolls them up into per-layer self time: a span's duration
minus the time its child spans cover.  Nothing inside ``src/`` changes;
:meth:`LayerTracer.uninstall` puts every original object back.

Wrappers are installed before the traced pass builds its inputs, so
bound methods captured during set-up still route through them, but they
only record inside :meth:`LayerTracer.recording`; outside it they call
straight through.  The untraced pass runs before :meth:`install`, so no
untraced timing ever passes through a wrapper.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.telemetry.metrics import global_metrics


def _arg(index: int) -> Callable:
    """Counter hook: the positional argument at ``index`` (self is 0)."""
    return lambda args, result: int(args[index]) if len(args) > index else 0


def _len_result(args, result) -> int:
    return len(result)


def _len_args(args, result) -> int:
    return sum(len(arg) for arg in args[:2])


def _journal_bytes(args, result) -> int:
    start, end = result
    return end - start


# (module, attribute, span name, counter name, counter hook).  Module
# functions are patched where their caller looks them up: the scanners
# are reached as module attributes (``file_scans.high_level_file_scan``),
# ``cross_view_diff`` is imported by name into the GhostBuster facade,
# ``parse_hive`` into the registry scanner, and the scan body, skip path
# and journal append into the coordinator.
TARGETS: Tuple[Tuple[str, str, str, Optional[str], Optional[Callable]],
               ...] = (
    ("repro.ntfs.mft_parser", "MftParser.parse", "ntfs.mft_parse",
     None, None),
    ("repro.disk.disk", "Disk.read_view", "disk.read",
     "disk.read.bytes", _arg(2)),
    ("repro.disk.disk", "Disk.read_bytes", "disk.read",
     "disk.read.bytes", _arg(2)),
    ("repro.core.scanners.registry", "parse_hive", "registry.hive_parse",
     None, None),
    ("repro.core.scanners.files", "high_level_file_scan",
     "winapi.file_enum", "winapi.entries_enumerated", _len_result),
    ("repro.core.scanners.registry", "high_level_asep_scan",
     "winapi.asep_enum", "winapi.entries_enumerated", _len_result),
    ("repro.core.scanners.processes", "high_level_process_scan",
     "winapi.process_enum", "winapi.entries_enumerated", _len_result),
    ("repro.core.scanners.files", "low_level_file_scan",
     "scanners.low_file", None, None),
    ("repro.core.scanners.registry", "low_level_asep_scan",
     "scanners.low_asep", None, None),
    ("repro.core.scanners.processes", "low_level_process_scan",
     "scanners.low_process", None, None),
    ("repro.core.scanners.processes", "advanced_process_scan",
     "scanners.low_process", None, None),
    ("repro.core.ghostbuster", "cross_view_diff", "diff",
     "diff.entries", _len_args),
    ("repro.core.ghostbuster", "GhostBuster.inside_scan",
     "ghostbuster.inside_scan", None, None),
    ("repro.fleet.policy", "EscalationPolicy.confirm", "policy.confirm",
     None, None),
    ("repro.fleet.scanwork", "perform_machine_scan", "scanwork.scan",
     None, None),
    ("repro.fleet.coordinator", "perform_machine_scan", "scanwork.scan",
     None, None),
    ("repro.fleet.coordinator", "skip_verdict", "scanwork.skip",
     None, None),
    ("repro.fleet.queue", "WorkQueue.lease", "queue.lease", None, None),
    ("repro.fleet.queue", "WorkQueue.ack", "queue.ack", None, None),
    ("repro.fleet.queue", "WorkQueue.open_epoch", "queue.epoch_open_close",
     None, None),
    ("repro.fleet.queue", "WorkQueue.close_epoch",
     "queue.epoch_open_close", None, None),
    ("repro.core.baseline", "BaselineStore.get", "baseline.get",
     None, None),
    ("repro.core.baseline", "BaselineStore.put", "baseline.put",
     None, None),
    ("repro.fleet.coordinator", "append_journal", "journal.append",
     "journal.bytes", _journal_bytes),
    ("repro.console.index", "JournalIndex.note_epoch_record", "index.note",
     None, None),
    ("repro.fleet.scheduler", "FleetScheduler.plan", "scheduler.plan",
     None, None),
    ("repro.fleet.aggregator", "FleetAggregator.observe",
     "aggregator.observe", None, None),
    ("repro.fleet.aggregator", "CampaignTracker.observe",
     "aggregator.observe", None, None),
    ("repro.fleet.coordinator", "FleetCoordinator.run_epoch", "coordinator",
     None, None),
    ("repro.workloads.fleetgen", "apply_ops", "workloads.apply",
     None, None),
    ("repro.workloads.fleetgen", "FleetWorkload.apply_epoch",
     "workloads.apply", None, None),
)

def resolve(module_name: str, attribute: str):
    """``(owner, name)`` for a dotted ``Class.method`` or function name."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class LayerTracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, int, int, int]] = []
        self.counts: Dict[str, int] = {}
        self.counter_deltas: Dict[str, float] = {}
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, bool, object]] = []
        self._recording = False

    # -- patching ---------------------------------------------------------------

    def _wrap(self, span: str, original, counter: Optional[str],
              hook: Optional[Callable]):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer._recording:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span, start, end, parent)
            if counter is not None:
                tracer.counts[counter] = (tracer.counts.get(counter, 0)
                                          + hook(args, result))
            return result

        traced.__wrapped__ = original
        traced.perfbench_span = span
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attribute, span, counter, hook in TARGETS:
            owner, name = resolve(module, attribute)
            own = name in vars(owner)
            original = vars(owner)[name] if own else getattr(owner, name)
            self._saved.append((owner, name, own, original))
            setattr(owner, name, self._wrap(span, getattr(owner, name),
                                            counter, hook))

    def uninstall(self) -> None:
        for owner, name, own, original in reversed(self._saved):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._saved.clear()

    @contextlib.contextmanager
    def recording(self):
        """Record spans, and the program's counter deltas, inside."""
        before = global_metrics().snapshot()["counters"]
        self._recording = True
        try:
            yield
        finally:
            self._recording = False
            after = global_metrics().snapshot()["counters"]
            for name, value in after.items():
                delta = value - before.get(name, 0.0)
                if delta:
                    self.counter_deltas[name] = (
                        self.counter_deltas.get(name, 0.0) + delta)

    # -- rollup -----------------------------------------------------------------

    def rollup(self) -> Dict[str, Dict[str, float]]:
        """span name → calls, inclusive ns and self ns."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "ns": 0,
                                          "self_ns": 0})
            row["calls"] += 1
            row["ns"] += end - start
            row["self_ns"] += end - start - child_ns[index]
        return table

    def write_spans(self, path: str) -> None:
        """Dump every span as one JSON array per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
