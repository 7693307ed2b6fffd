r"""Process scanners — Section 4.

* :func:`high_level_process_scan` — ``CreateToolhelp32Snapshot`` +
  ``Process32First/Next`` issued as a process (the Task Manager / tlist
  path, fully hookable);
* :func:`low_level_process_scan` — a driver's-eye traversal of the Active
  Process List in kernel memory.  Catches API interceptors; misses DKOM,
  because the list is only a truth approximation;
* :func:`advanced_process_scan` — the advanced mode: walk the scheduler's
  thread table and resolve each thread's owner EPROCESS, recovering
  processes FU unlinked;
* :func:`dump_process_scan` — the same two traversals over a crash-dump
  blob, for the outside-the-box path.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import costmodel
from repro.core.scanners.files import (_retry_enumeration,
                                       ensure_scanner_process)
from repro.core.snapshot import ProcessEntry, ResourceType, ScanSnapshot
from repro.faults import context as faults_context
from repro.faults.plan import SITE_WINAPI_ENUM
from repro.kernel.crashdump import CrashDump
from repro.kernel.memory import MemoryReader
from repro.kernel.objects import EprocessView
from repro.kernel.process_list import walk_process_list
from repro.kernel.scheduler import processes_from_threads
from repro.machine import Machine
from repro.telemetry import context as telemetry_context
from repro.telemetry.metrics import global_metrics
from repro.usermode.process import Process


def high_level_process_scan(machine: Machine,
                            process: Optional[Process] = None
                            ) -> ScanSnapshot:
    """Enumerate processes through the full API chain (the lie)."""
    scanner = ensure_scanner_process(machine, process)
    start = machine.clock.now()
    entries: List[ProcessEntry] = []
    def run() -> None:
        entries.clear()
        faults_context.maybe_inject(SITE_WINAPI_ENUM, clock=machine.clock,
                                    scope=machine.name)
        snapshot = scanner.call("kernel32", "CreateToolhelp32Snapshot")
        try:
            info = scanner.call("kernel32", "Process32First", snapshot)
            while info is not None:
                entries.append(ProcessEntry(info.pid, info.name))
                info = scanner.call("kernel32", "Process32Next", snapshot)
        finally:
            scanner.call("kernel32", "CloseHandle", snapshot)

    with telemetry_context.current_tracer().span(
            "scan.processes.high-level", clock=machine.clock,
            machine=machine.name, view="toolhelp-api") as span:
        _retry_enumeration("scan.processes.high-level", run)
        duration = costmodel.charge_process_scan(machine, len(entries))
        span.set(entries=len(entries))
    global_metrics().incr("scan.processes.enumerated", len(entries))
    return ScanSnapshot(ResourceType.PROCESS, view="toolhelp-api",
                        entries=entries, taken_at=start, duration=duration)


def _entries_from_list(reader: MemoryReader,
                       head_address: int) -> List[ProcessEntry]:
    entries = []
    for address in walk_process_list(reader, head_address):
        view = EprocessView(reader, address)
        if view.alive:
            entries.append(ProcessEntry(view.pid, view.name))
    return entries


def _entries_from_threads(reader: MemoryReader,
                          table_address: int) -> List[ProcessEntry]:
    owners = processes_from_threads(reader, table_address)
    entries = []
    for view in owners.values():
        if view.alive:
            entries.append(ProcessEntry(view.pid, view.name))
    return sorted(entries, key=lambda e: e.pid)


def low_level_process_scan(machine: Machine) -> ScanSnapshot:
    """Driver-level Active Process List walk (truth approximation)."""
    start = machine.clock.now()
    with telemetry_context.current_tracer().span(
            "scan.processes.low-level", clock=machine.clock,
            machine=machine.name, view="active-process-list") as span:
        entries = _entries_from_list(
            machine.kernel.memory,
            machine.kernel.process_list.head_address)
        duration = costmodel.charge_process_scan(machine, len(entries))
        span.set(entries=len(entries))
    global_metrics().incr("scan.processes.enumerated", len(entries))
    return ScanSnapshot(ResourceType.PROCESS, view="active-process-list",
                        entries=entries, taken_at=start, duration=duration)


def advanced_process_scan(machine: Machine) -> ScanSnapshot:
    """Advanced mode: scheduler thread table → owner processes."""
    start = machine.clock.now()
    with telemetry_context.current_tracer().span(
            "scan.processes.advanced", clock=machine.clock,
            machine=machine.name, view="thread-table") as span:
        entries = _entries_from_threads(machine.kernel.memory,
                                        machine.kernel.thread_table.address)
        duration = costmodel.charge_process_scan(machine, len(entries))
        span.set(entries=len(entries))
    global_metrics().incr("scan.processes.enumerated", len(entries))
    return ScanSnapshot(ResourceType.PROCESS, view="thread-table",
                        entries=entries, taken_at=start, duration=duration)


def dump_process_scan(dump: CrashDump, advanced: bool = False,
                      taken_at: float = 0.0) -> ScanSnapshot:
    """Outside-the-box: the same traversals over a crash dump."""
    if advanced:
        entries = _entries_from_threads(dump, dump.thread_table_address)
        view = "dump-thread-table"
    else:
        entries = _entries_from_list(dump, dump.active_process_head)
        view = "dump-process-list"
    return ScanSnapshot(ResourceType.PROCESS, view=view, entries=entries,
                        taken_at=taken_at, duration=0.0)
