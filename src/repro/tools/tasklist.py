"""``tlist`` / Task Manager: the process listing users actually read.

Section 4 notes process hiding matters because "there are usually only
tens of processes running on a machine and so it may be feasible for the
user to go through the entire list".  This is that list — through the
Toolhelp chain, so every process-hiding technique applies to it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.machine import Machine
from repro.usermode.process import Process


def tasklist(machine: Machine,
             process: Optional[Process] = None) -> List[Tuple[int, str]]:
    """(pid, name) rows, as Task Manager / tlist would display them."""
    viewer = process or machine.process_by_name("taskmgr.exe") or \
        machine.start_process("\\Windows\\explorer.exe",
                              name="taskmgr.exe")
    snapshot = viewer.call("kernel32", "CreateToolhelp32Snapshot")
    rows: List[Tuple[int, str]] = []
    info = viewer.call("kernel32", "Process32First", snapshot)
    while info is not None:
        rows.append((info.pid, info.name))
        info = viewer.call("kernel32", "Process32Next", snapshot)
    viewer.call("kernel32", "CloseHandle", snapshot)
    return rows
