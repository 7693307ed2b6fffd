"""End-to-end chaos acceptance: detection survives injected faults.

The robustness contract in one fleet epoch: five ghostware families
plus a clean control machine scanned by the
:class:`~repro.fleet.FleetCoordinator` while a 5% fault plan fires
transient I/O errors, torn reads, corrupt hive blobs, and spurious
``STATUS_*`` failures — and the pipeline must (a) raise nothing to the
caller, (b) detect every infected machine exactly as a fault-free epoch
does, and (c) account for anything it *couldn't* recover via error
verdicts + the circuit breaker's quarantine instead of silence.
"""

from __future__ import annotations

import pytest

from repro.core import GhostBuster
from repro.core.diff import ScanConfidence
from repro.errors import ReproError
from repro.faults.plan import (FaultPlan, FaultSpec, SITE_DISK_READ,
                               SITE_MFT_PARSE, SITE_WINAPI_ENUM)
from repro.fleet import FleetCoordinator
from repro.ghostware import (Aphex, HackerDefender, ProBotSE, Urbin,
                             Vanquish)
from repro.machine import Machine
from repro.telemetry.metrics import global_metrics

FAMILIES = (HackerDefender, Aphex, Urbin, Vanquish, ProBotSE)


def _fleet():
    machines = []
    for index, family in enumerate(FAMILIES):
        machine = Machine(f"victim-{index:02d}", disk_mb=256,
                          max_records=8192)
        machine.boot()
        family().install(machine)
        machines.append(machine)
    control = Machine("control-clean", disk_mb=256, max_records=8192)
    control.boot()
    machines.append(control)
    return machines


def _identities(report):
    return sorted((f.resource_type.value, str(f.entry.identity))
                  for f in report.findings if not f.is_noise)


def _recall(aggregate):
    """Per-machine verdict and finding identities (recall, not escalation)."""
    return {v.machine: (v.verdict, sorted(v.finding_ids))
            for v in aggregate.verdicts}


def _errors(aggregate):
    return {v.machine: v.error for v in aggregate.verdicts
            if v.error is not None}


def _death(mode, scope):
    return FaultPlan(seed=9, specs=(
        FaultSpec(SITE_WINAPI_ENUM, mode=mode, kinds=("machine_death",),
                  mean_delay_s=0.0, scopes=(scope,)),))


class TestChaosSweep:
    def test_sweep_under_5pct_faults_matches_fault_free(self, tmp_path):
        baseline = FleetCoordinator(str(tmp_path / "ref"),
                                    _fleet()).run_epoch()
        assert not _errors(baseline)

        plan = FaultPlan.default(seed=2026, rate=0.05)
        coordinator = FleetCoordinator(str(tmp_path / "chaos"), _fleet(),
                                       fault_plan=plan)
        chaotic = coordinator.run_epoch()

        # (a) nothing leaked, nothing quarantined at this rate
        assert not _errors(chaotic)
        assert coordinator.breaker.open_scopes() == []
        # (b) recall unchanged: same infected set, same finding identities
        assert chaotic.infected_machines() == baseline.infected_machines()
        assert len(chaotic.infected_machines()) == len(FAMILIES)
        assert _recall(chaotic) == _recall(baseline)
        # (c) the chaos was real, and the log proves it
        assert plan.fired_count() > 0
        assert plan.sequence_digest() != FaultPlan.default(
            seed=2026, rate=0.05).sequence_digest()

    def test_machine_death_quarantined_with_taxonomy(self, tmp_path):
        coordinator = FleetCoordinator(
            str(tmp_path), _fleet(), breaker_threshold=1,
            fault_plan=_death("always", "victim-01"))
        first = coordinator.run_epoch()
        # The error verdict carries its taxonomy bucket (the exception
        # class)...
        assert _errors(first)["victim-01"].startswith("MachineUnavailable")
        # ...without costing the rest of the fleet anything.
        assert sorted(_errors(first)) == ["victim-01"]
        assert len(first.infected_machines()) == len(FAMILIES) - 1

        # The breaker tripped: next epoch the machine is quarantined
        # instead of burning another boot.
        quarantined = global_metrics().counter("fleet.quarantined")
        second = coordinator.run_epoch()
        assert coordinator.breaker.open_scopes() == ["victim-01"]
        assert global_metrics().counter("fleet.quarantined") == \
            quarantined + 1
        assert sorted(_errors(second)) == ["victim-01"]
        assert len(second.infected_machines()) == len(FAMILIES) - 1

    def test_transient_death_recovers_on_retry(self, tmp_path):
        coordinator = FleetCoordinator(
            str(tmp_path), _fleet(),
            fault_plan=_death("one_shot", "victim-00"))
        first = coordinator.run_epoch()
        assert sorted(_errors(first)) == ["victim-00"]

        # One death, then the next epoch's re-lease (the scheduler
        # ranks the errored machine first) succeeds.
        second = coordinator.run_epoch()
        assert not _errors(second)
        assert "victim-00" in second.infected_machines()
        assert second.summary.scanned == 1


class TestChaosDeltaInterplay:
    """Faults landing mid-delta-patch must degrade to a full reparse,
    never to a wrong (or missing) verdict."""

    def _seeded_delta(self, tmp_path, label, fault_plan=None):
        """Seed baselines fault-free, mutate two machines, run epoch 2."""
        fleet = _fleet()
        fleet_dir = str(tmp_path / label)
        FleetCoordinator(fleet_dir, fleet).run_epoch()
        fleet[0].volume.create_file("\\Temp\\delta-drop.bin", b"payload")
        fleet[3].volume.create_file("\\Temp\\delta-drop.bin", b"payload")
        return FleetCoordinator(fleet_dir, fleet,
                                fault_plan=fault_plan).run_epoch()

    def test_delta_sweep_under_5pct_faults_matches_fault_free(
            self, tmp_path):
        reference = self._seeded_delta(tmp_path, "reference")
        plan = FaultPlan.default(seed=2027, rate=0.05)
        chaotic = self._seeded_delta(tmp_path, "chaotic", fault_plan=plan)

        assert not _errors(chaotic)
        assert chaotic.infected_machines() == reference.infected_machines()
        assert sorted(v.machine for v in chaotic.verdicts if v.skipped) == \
            sorted(v.machine for v in reference.verdicts if v.skipped)
        assert _recall(chaotic) == _recall(reference)
        assert plan.fired_count() > 0

    def test_torn_read_mid_patch_degrades_to_full_reparse(self,
                                                          tmp_path):
        # A torn read on the one re-scanned machine bumps the disk
        # generation outside the write path; the journal refuses
        # coverage across the gap and the rescan must cold-parse — with
        # the verdict identical to the fault-free rescan.
        reference = self._seeded_delta(tmp_path, "ref-torn")
        plan = FaultPlan(seed=11, specs=(
            FaultSpec(SITE_DISK_READ, mode="one_shot",
                      kinds=("torn_read",), scopes=("victim-00",)),))
        chaotic = self._seeded_delta(tmp_path, "torn", fault_plan=plan)

        assert plan.fired_count() == 1
        assert not _errors(chaotic)
        assert chaotic.infected_machines() == reference.infected_machines()
        assert _recall(chaotic)["victim-00"] == \
            _recall(reference)["victim-00"]

    def test_parse_fault_mid_patch_self_heals(self, tmp_path):
        reference = self._seeded_delta(tmp_path, "ref-parse")
        plan = FaultPlan(seed=13, specs=(
            FaultSpec(SITE_MFT_PARSE, mode="one_shot",
                      kinds=("transient",), scopes=("victim-03",)),))
        chaotic = self._seeded_delta(tmp_path, "parse", fault_plan=plan)

        assert not _errors(chaotic)
        assert chaotic.infected_machines() == reference.infected_machines()
        assert _recall(chaotic)["victim-03"] == \
            _recall(reference)["victim-03"]


class TestGracefulDegradation:
    def test_failed_layer_yields_partial_report(self, monkeypatch):
        from repro.core.scanners import files as file_scans

        def broken(machine, **kwargs):
            raise ReproError("scanner hardware gave out")

        monkeypatch.setattr(file_scans, "low_level_file_scan", broken)
        machine = Machine("degraded-pc", disk_mb=256, max_records=8192)
        machine.boot()
        HackerDefender().install(machine)

        report = GhostBuster(machine).inside_scan()

        assert report.confidence["files"] is ScanConfidence.FAILED
        assert "scanner hardware gave out" in report.layer_errors["files"]
        assert report.confidence["registry"] is ScanConfidence.FULL
        assert not report.is_complete
        assert "files" in report.degraded_layers()
        assert "partial evidence" in report.summary()
        # The surviving layers still convict the machine.
        assert not report.is_clean

    def test_clean_scan_is_complete_and_full(self):
        machine = Machine("healthy-pc", disk_mb=256, max_records=8192)
        machine.boot()
        report = GhostBuster(machine).inside_scan()
        assert report.is_complete
        assert report.rounds == 1
        assert all(value is ScanConfidence.FULL
                   for value in report.confidence.values())
        assert not report.layer_errors


class TestScanUntilStable:
    def test_phantom_finding_dropped_by_intersection(self, monkeypatch):
        from repro.core import ghostbuster as gb_module
        from repro.core.scanners import files as file_scans
        from repro.core.snapshot import FileEntry

        real_scan = file_scans.low_level_file_scan
        calls = {"n": 0}

        def glitchy(machine, **kwargs):
            snapshot = real_scan(machine, **kwargs)
            calls["n"] += 1
            if calls["n"] == 1:
                # A file that "appeared hidden" only in round one — the
                # kind of one-round artifact a mid-scan write produces.
                snapshot.entries.append(FileEntry(
                    "\\Temp\\phantom-9f3.dat", "phantom-9f3.dat",
                    False, 64))
            return snapshot

        monkeypatch.setattr(gb_module.file_scans,
                            "low_level_file_scan", glitchy)
        machine = Machine("jittery-pc", disk_mb=256, max_records=8192)
        machine.boot()
        HackerDefender().install(machine)

        report = GhostBuster(machine, stabilize_rounds=3).inside_scan(
            resources=("files",))

        paths = [f.entry.path for f in report.findings]
        assert not any("phantom" in path for path in paths)
        assert report.rounds >= 2
        # The genuine infection survives the intersection.
        assert not report.is_clean

    def test_stable_scan_exits_early(self):
        machine = Machine("stable-pc", disk_mb=256, max_records=8192)
        machine.boot()
        HackerDefender().install(machine)

        single = GhostBuster(machine).inside_scan(resources=("files",))
        stabilized = GhostBuster(machine, stabilize_rounds=5).inside_scan(
            resources=("files",))

        assert _identities(stabilized) == _identities(single)
        # Two agreeing rounds end the loop; five were never needed.
        assert stabilized.rounds == 2

    def test_single_round_report_is_unchanged(self):
        machine = Machine("classic-pc", disk_mb=256, max_records=8192)
        machine.boot()
        HackerDefender().install(machine)
        report = GhostBuster(machine, stabilize_rounds=1).inside_scan()
        assert report.rounds == 1
        assert not report.is_clean
