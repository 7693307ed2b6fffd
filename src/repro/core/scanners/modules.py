r"""Module (loaded DLL / driver) scanners — Section 4.

* :func:`high_level_module_scan` — per-process ``Module32First/Next`` via
  the ``NtQueryInformationProcess`` PEB path, the chain Vanquish defeats
  by blanking its DLL's pathname inside each process's PEB;
* :func:`low_level_module_scan` — the kernel's own module truth table
  (our VAD stand-in), untouched by user-mode tampering;
* :func:`driver_scan` — the loaded-driver list (AskStrider's view; how an
  unhidden ``hxdefdrv.sys`` betrays a Hacker Defender infection).

The high-level scan enumerates *processes* through the high-level process
view: a hidden process's modules are invisible too, and the low-level
module scan attributes that gap correctly.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import costmodel
from repro.core.scanners.files import (_retry_enumeration,
                                       ensure_scanner_process)
from repro.core.snapshot import ModuleEntry, ResourceType, ScanSnapshot
from repro.faults import context as faults_context
from repro.faults.plan import SITE_WINAPI_ENUM
from repro.kernel.objects import EprocessView, ModuleTableView
from repro.kernel.process_list import walk_process_list
from repro.kernel.scheduler import processes_from_threads
from repro.machine import Machine
from repro.telemetry import context as telemetry_context
from repro.telemetry.metrics import global_metrics
from repro.usermode.process import Process


def high_level_module_scan(machine: Machine,
                           process: Optional[Process] = None
                           ) -> ScanSnapshot:
    """Modules of every (API-visible) process via the PEB chain."""
    scanner = ensure_scanner_process(machine, process)
    start = machine.clock.now()
    entries: List[ModuleEntry] = []
    scanned_pids = set()
    def run() -> None:
        entries.clear()
        scanned_pids.clear()
        toolhelp = scanner.call("kernel32", "CreateToolhelp32Snapshot")
        try:
            info = scanner.call("kernel32", "Process32First", toolhelp)
            while info is not None:
                scanned_pids.add(info.pid)
                faults_context.maybe_inject(SITE_WINAPI_ENUM,
                                            clock=machine.clock,
                                            scope=machine.name)
                if info.pid != 4:   # System has no user modules
                    module_snapshot = scanner.call("kernel32",
                                                   "Module32Snapshot",
                                                   info.pid)
                    path = scanner.call("kernel32", "Module32First",
                                        module_snapshot)
                    while path is not None:
                        entries.append(ModuleEntry(info.pid, info.name,
                                                   path))
                        path = scanner.call("kernel32", "Module32Next",
                                            module_snapshot)
                    scanner.call("kernel32", "CloseHandle", module_snapshot)
                info = scanner.call("kernel32", "Process32Next", toolhelp)
        finally:
            scanner.call("kernel32", "CloseHandle", toolhelp)

    with telemetry_context.current_tracer().span(
            "scan.modules.high-level", clock=machine.clock,
            machine=machine.name, view="peb-api") as span:
        _retry_enumeration("scan.modules.high-level", run)
        duration = costmodel.charge_module_scan(machine, len(entries))
        span.set(entries=len(entries))
    global_metrics().incr("scan.modules.enumerated", len(entries))
    result = ScanSnapshot(ResourceType.MODULE, view="peb-api",
                          entries=entries, taken_at=start, duration=duration)
    # Which processes the API view could enumerate at all — consumers use
    # this to scope the diff: a fully hidden process is the *process*
    # detector's finding, not thirty module findings.
    result.scanned_pids = scanned_pids
    return result


def low_level_module_scan(machine: Machine,
                          use_thread_table: bool = True) -> ScanSnapshot:
    """Kernel truth: per-process module tables, reached via kernel walks.

    ``use_thread_table`` reaches processes through the scheduler (so even
    DKOM-hidden processes contribute their modules); otherwise the Active
    Process List is walked.
    """
    kernel = machine.kernel
    start = machine.clock.now()
    entries: List[ModuleEntry] = []
    with telemetry_context.current_tracer().span(
            "scan.modules.low-level", clock=machine.clock,
            machine=machine.name, view="kernel-module-table") as span:
        if use_thread_table:
            views = list(processes_from_threads(
                kernel.memory, kernel.thread_table.address).values())
        else:
            views = [EprocessView(kernel.memory, address) for address in
                     walk_process_list(kernel.memory,
                                       kernel.process_list.head_address)]
        for view in views:
            if not view.alive or view.module_table_address == 0:
                continue
            table = ModuleTableView(kernel.memory, view.module_table_address)
            for path in table.module_paths():
                if path:
                    entries.append(ModuleEntry(view.pid, view.name, path))
        duration = costmodel.charge_module_scan(machine, len(entries))
        span.set(entries=len(entries))
    global_metrics().incr("scan.modules.enumerated", len(entries))
    return ScanSnapshot(ResourceType.MODULE, view="kernel-module-table",
                        entries=entries, taken_at=start, duration=duration)


def driver_scan(machine: Machine) -> List[str]:
    """Loaded drivers via the kernel list (the AskStrider quick check)."""
    return machine.kernel.drivers()
