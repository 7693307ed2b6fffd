"""X1 — extensions beyond the paper's evaluation (its future-work list).

* **ADS**: Section 6 names Alternate Data Streams as a hiding form with
  no enumeration API; the ADS scanner closes that gap and the regular
  file diff demonstrably cannot.
* **RIS**: Section 5 proposes replacing the CD boot with a network boot
  for enterprise automation; network-booting each client of a small
  fleet picks the infected one without a console visit.
* **Registry callbacks**: Section 3 names kernel registry callbacks as
  an alternative interception the diff handles identically.
"""

from __future__ import annotations

import pytest

from repro.core import (GhostBuster, RisServer, executable_streams,
                        scan_alternate_streams)
from repro.ghostware import AdsGhost, CmCallbackGhost, HackerDefender
from repro.machine import Machine

from benchmarks.conftest import bench_once, fresh_machine, print_table


def test_ads_scan_closes_the_future_work_gap(benchmark):
    def run(__):
        machine = fresh_machine("ads-box")
        ghost = AdsGhost()
        ghost.install(machine)
        file_diff = GhostBuster(machine).inside_scan(resources=("files",))
        streams = scan_alternate_streams(machine)
        return ghost, file_diff, streams

    ghost, file_diff, streams = bench_once(benchmark, setup=lambda: None,
                                           action=run)
    executables = executable_streams(streams)
    print_table("X1 — ADS hiding (paper future work)",
                ("detector", "result"),
                [("regular file cross-view diff",
                  "clean (host file matches in both views)"
                  if file_diff.is_clean else "detected"),
                 ("ADS raw-MFT scan",
                  "; ".join(entry.describe() for entry in streams))])
    assert file_diff.is_clean
    assert any(entry.qualified_name == ghost.stream_path
               for entry in executables)


def test_ris_fleet_sweep(benchmark):
    def run(__):
        machines = []
        for index in range(4):
            machine = Machine(f"ris-client-{index}", disk_mb=256,
                              max_records=8192)
            machine.boot()
            machines.append(machine)
        HackerDefender().install(machines[2])
        server = RisServer()
        return {machine.name: server.network_boot_scan(machine)
                for machine in machines}

    reports = bench_once(benchmark, setup=lambda: None, action=run)
    rows = [(name, "clean" if report.is_clean else "INFECTED",
             f"{report.durations['network-boot']:.0f} s")
            for name, report in sorted(reports.items())]
    print_table("X1 — RIS network-boot fleet sweep",
                ("client", "verdict", "network boot"), rows)
    assert [name for name, report in sorted(reports.items())
            if not report.is_clean] == ["ris-client-2"]


def test_cm_callback_technique(benchmark):
    def run(__):
        machine = fresh_machine("cm-box")
        CmCallbackGhost().install(machine)
        return GhostBuster(machine).inside_scan(resources=("registry",))

    report = bench_once(benchmark, setup=lambda: None, action=run)
    print_table("X1 — kernel registry-callback hiding",
                ("hidden hook",),
                [(finding.entry.describe(),)
                 for finding in report.hidden_hooks()])
    assert any(finding.entry.name == "cmghost"
               for finding in report.hidden_hooks())
