"""Enterprise fleet sweeps (Section 5) on the fleet engine.

The RIS deployment at scale is a :class:`~repro.fleet.FleetCoordinator`
epoch: it must produce the same findings whether clients are scanned
one at a time in-process or in parallel by forked scan agents, one
broken client must not take the fleet epoch down with it, and the
epoch carries enough stats to reason about sweep cost.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.errors import MachineStateError
from repro.fleet import FleetCoordinator
from repro.ghostware import HackerDefender
from repro.machine import Machine

INFECTED = (2, 5)


def _client(name, infected=False):
    machine = Machine(name, disk_mb=256, max_records=8192)
    machine.boot()
    if infected:
        HackerDefender().install(machine)
    return machine


def _fleet(count, infected=(), prefix="client"):
    return [_client(f"{prefix}-{index:02d}", index in infected)
            for index in range(count)]


def _agent_factory(name):
    return _client(name, int(name.rsplit("-", 1)[1]) in INFECTED)


def _finding_ids(aggregate):
    return {v.machine: (v.verdict, sorted(v.finding_ids))
            for v in aggregate.verdicts}


class TestParallelDeterminism:
    @pytest.mark.skipif(sys.platform == "win32",
                        reason="distributed mode forks")
    def test_serial_and_parallel_sweeps_agree(self, tmp_path):
        expected = sorted(f"client-{i:02d}" for i in INFECTED)
        serial = FleetCoordinator(str(tmp_path / "serial"),
                                  _fleet(8, infected=INFECTED)).run_epoch()
        roster = [f"client-{index:02d}" for index in range(8)]
        parallel = FleetCoordinator(
            str(tmp_path / "parallel"), roster).run_distributed(
                1, _agent_factory, agents=2)[0]

        assert serial.infected_machines() == expected
        assert parallel.infected_machines() == expected
        assert _finding_ids(serial) == _finding_ids(parallel)


class TestFaultIsolation:
    def test_failing_client_records_error_not_abort(self, tmp_path,
                                                    monkeypatch):
        import repro.fleet.coordinator as coordinator_module

        fleet = _fleet(4, infected=(1,))
        fleet.insert(2, _client("client-broken"))
        real_scan = coordinator_module.perform_machine_scan

        def scan(machine, *args, **kwargs):
            if machine.name == "client-broken":
                raise MachineStateError("client-broken is powered off")
            return real_scan(machine, *args, **kwargs)

        monkeypatch.setattr(coordinator_module, "perform_machine_scan",
                            scan)
        aggregate = FleetCoordinator(str(tmp_path), fleet).run_epoch()

        broken = next(v for v in aggregate.verdicts
                      if v.machine == "client-broken")
        assert broken.verdict == "error"
        assert broken.error.startswith("MachineStateError")
        assert aggregate.infected_machines() == ["client-01"]
        assert aggregate.summary.machines == 5
        assert aggregate.summary.errors == 1


class TestSweepStats:
    def test_stats_populated(self, tmp_path):
        aggregate = FleetCoordinator(str(tmp_path), _fleet(3)).run_epoch()
        summary = aggregate.summary
        assert (summary.machines, summary.scanned) == (3, 3)
        assert summary.scan_seconds > 0
        assert all(v.scan_seconds > 0 for v in aggregate.verdicts)
        # The same stats are durable in the journal's epoch-end record.
        with open(tmp_path / "epochs.jsonl", encoding="utf-8") as handle:
            ends = [json.loads(line) for line in handle
                    if '"epoch-end"' in line]
        assert ends == [dict(summary.to_dict(), type="epoch-end",
                             at=ends[0]["at"])]
