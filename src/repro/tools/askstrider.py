"""AskStrider: per-process module listing plus the driver list.

The paper: "administrator tools such as Process Explorer, AskStrider and
tlist can be used to enumerate all modules (e.g., DLLs) loaded by each
process and all drivers loaded by the system to detect any suspicious
entries.  For example, AskStrider can be used to quickly detect a Hacker
Defender infection today by revealing its unhidden hxdefdrv.sys driver."

The module view goes through the (hookable, PEB-backed) API chain; the
driver view walks the kernel's loaded-driver list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.machine import Machine
from repro.usermode.process import Process


@dataclass
class AskStriderReport:
    """What the tool displays."""

    modules_by_process: Dict[str, List[str]] = field(default_factory=dict)
    drivers: List[str] = field(default_factory=list)

    def suspicious_drivers(self, known_good: List[str] = ()) -> List[str]:
        """Drivers not in the given baseline (the quick hxdef check)."""
        baseline = {name.casefold() for name in known_good}
        return [name for name in self.drivers
                if name.casefold() not in baseline]


def ask_strider(machine: Machine,
                process: Optional[Process] = None) -> AskStriderReport:
    """Collect the per-process module lists and the driver list."""
    viewer = process or machine.process_by_name("askstrider.exe") or \
        machine.start_process("\\Windows\\explorer.exe",
                              name="askstrider.exe")
    report = AskStriderReport()

    snapshot = viewer.call("kernel32", "CreateToolhelp32Snapshot")
    info = viewer.call("kernel32", "Process32First", snapshot)
    while info is not None:
        if info.pid != 4:
            modules: List[str] = []
            module_snapshot = viewer.call("kernel32", "Module32Snapshot",
                                          info.pid)
            path = viewer.call("kernel32", "Module32First",
                               module_snapshot)
            while path is not None:
                modules.append(path)
                path = viewer.call("kernel32", "Module32Next",
                                   module_snapshot)
            viewer.call("kernel32", "CloseHandle", module_snapshot)
            report.modules_by_process[f"{info.name} (pid {info.pid})"] = \
                modules
        info = viewer.call("kernel32", "Process32Next", snapshot)
    viewer.call("kernel32", "CloseHandle", snapshot)

    report.drivers = machine.kernel.drivers()
    return report
