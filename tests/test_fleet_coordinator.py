"""Coordinator epochs: checkpointing, resume soundness, escalation.

The chaos-interplay suite lives here too: killing a worker mid-lease,
killing the coordinator mid-epoch (deterministically, at ack
boundaries), and a Hypothesis sweep over every possible kill point —
in all cases the resumed epoch's verdicts must be element-identical to
an uninterrupted run's and no acked machine may be scanned twice.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.errors import CoordinatorKilled, StaleLease
from repro.fleet import (EscalationPolicy, FleetCoordinator, WorkQueue,
                         fleet_status)
from repro.ghostware import Aphex, HackerDefender
from repro.machine import Machine
from repro.telemetry.metrics import global_metrics


def build_fleet(size=3, infected=(1,), ghost_cls=HackerDefender):
    machines = []
    for index in range(size):
        machine = Machine(f"m{index:02d}", disk_mb=256, max_records=8192)
        machine.boot()
        if index in infected:
            ghost_cls().install(machine)
        machines.append(machine)
    return machines


def verdict_key(aggregate):
    return {v.machine: (v.verdict, v.findings, v.confirmed, v.confirmed_by)
            for v in aggregate.verdicts}


def machine_records(fleet_dir, epoch):
    records = []
    with open(f"{fleet_dir}/epochs.jsonl", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if (record.get("type") == "fleet-machine"
                    and record.get("epoch") == epoch):
                records.append(record)
    return records


class TestEpochLifecycle:
    def test_epoch_covers_fleet_and_detects(self, tmp_path):
        machines = build_fleet(size=3, infected=(1,))
        coordinator = FleetCoordinator(str(tmp_path), machines, workers=2)
        aggregate = coordinator.run_epoch()
        assert aggregate.summary.machines == 3
        assert aggregate.summary.scanned == 3
        assert aggregate.infected_machines() == ["m01"]
        infected = next(v for v in aggregate.verdicts
                        if v.machine == "m01")
        assert infected.escalated and infected.confirmed
        assert infected.confirmed_by == "winpe"
        assert infected.finding_ids
        assert coordinator.queue.epoch is None   # epoch closed

    def test_steady_state_epoch_skips_unchanged(self, tmp_path):
        machines = build_fleet(size=3, infected=(1,))
        coordinator = FleetCoordinator(str(tmp_path), machines, workers=2)
        first = coordinator.run_epoch()
        second = coordinator.run_epoch()
        assert second.summary.skipped == 3
        assert second.summary.scanned == 0
        assert verdict_key(first) == verdict_key(second)
        # The rehydrated infected verdict keeps its provenance.
        skipped = next(v for v in second.verdicts if v.machine == "m01")
        assert skipped.skipped and skipped.confirmed_by == "winpe"

    def test_changed_machine_is_rescanned(self, tmp_path):
        machines = build_fleet(size=3, infected=())
        coordinator = FleetCoordinator(str(tmp_path), machines)
        coordinator.run_epoch()
        machines[2].volume.create_file("\\Temp\\new.txt", b"payload")
        second = coordinator.run_epoch()
        rescanned = {v.machine for v in second.verdicts if v.scanned}
        assert rescanned == {"m02"}
        assert second.summary.skipped == 2

    def test_vmscan_policy_provenance(self, tmp_path):
        machines = build_fleet(size=2, infected=(0,), ghost_cls=Aphex)
        coordinator = FleetCoordinator(
            str(tmp_path), machines,
            policy=EscalationPolicy(confirm_with="vmscan"))
        aggregate = coordinator.run_epoch()
        infected = next(v for v in aggregate.verdicts if v.confirmed)
        assert infected.confirmed_by == "vmscan"

    def test_no_escalation_when_policy_disabled(self, tmp_path):
        machines = build_fleet(size=2, infected=(0,))
        coordinator = FleetCoordinator(
            str(tmp_path), machines,
            policy=EscalationPolicy(escalate=False))
        aggregate = coordinator.run_epoch()
        assert aggregate.summary.infected == 1
        assert aggregate.summary.escalated == 0

    def test_outbreak_detection_across_machines(self, tmp_path):
        machines = build_fleet(size=4, infected=(0, 1, 2))
        coordinator = FleetCoordinator(str(tmp_path), machines,
                                       outbreak_threshold=3)
        aggregate = coordinator.run_epoch()
        outbreaks = aggregate.outbreaks()
        assert outbreaks, "same ghost on 3 machines must raise an alert"
        assert all(len(alert.machines) >= 3 for alert in outbreaks)
        # Outbreak records land in the journal for fleet-status.
        status = fleet_status(str(tmp_path))
        assert status["outbreaks"]

    def test_compaction_shrinks_stores(self, tmp_path):
        machines = build_fleet(size=2, infected=())
        coordinator = FleetCoordinator(str(tmp_path), machines,
                                       compact_every=2)
        coordinator.run_epoch()
        coordinator.run_epoch()
        # After compaction the baseline file holds one record/machine
        # and the queue WAL is empty (no epoch open).
        with open(coordinator.store.path, encoding="utf-8") as handle:
            assert sum(1 for line in handle if line.strip()) == 2
        with open(coordinator.queue.path, encoding="utf-8") as handle:
            assert handle.read() == ""

    def test_fleet_status_reflects_open_epoch(self, tmp_path):
        machines = build_fleet(size=3, infected=())
        coordinator = FleetCoordinator(str(tmp_path), machines, workers=1)
        with pytest.raises(CoordinatorKilled):
            coordinator.run_epoch(kill_after_acks=1)
        status = fleet_status(str(tmp_path))
        assert status["open_epoch"] == 1
        assert status["acked"] == 1
        assert status["pending"] + status["leased"] == 2
        assert status["epochs_completed"] == 0


class TestResumeSoundness:
    def test_kill_and_resume_is_element_identical(self, tmp_path):
        reference = FleetCoordinator(
            str(tmp_path / "ref"), build_fleet(size=4, infected=(1, 3)),
            workers=2).run_epoch()

        fleet_dir = str(tmp_path / "chaos")
        machines = build_fleet(size=4, infected=(1, 3))
        with pytest.raises(CoordinatorKilled):
            FleetCoordinator(fleet_dir, machines,
                             workers=2).run_epoch(kill_after_acks=2)
        resumed = FleetCoordinator(fleet_dir, machines,
                                   workers=2).run_epoch()
        assert verdict_key(resumed) == verdict_key(reference)
        records = machine_records(fleet_dir, epoch=1)
        counts = {record["machine"]: 0 for record in records}
        for record in records:
            counts[record["machine"]] += 1
        assert all(count == 1 for count in counts.values()), counts
        assert len(counts) == 4

    def test_double_kill_then_resume(self, tmp_path):
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=4, infected=(2,))
        for __ in range(2):
            with pytest.raises(CoordinatorKilled):
                FleetCoordinator(fleet_dir, machines,
                                 workers=2).run_epoch(kill_after_acks=1)
        aggregate = FleetCoordinator(fleet_dir, machines,
                                     workers=2).run_epoch()
        assert aggregate.summary.machines == 4
        assert len(machine_records(fleet_dir, epoch=1)) == 4

    def test_resume_does_not_rescan_acked_machines(self, tmp_path):
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=3, infected=())
        with pytest.raises(CoordinatorKilled):
            FleetCoordinator(fleet_dir, machines,
                             workers=1).run_epoch(kill_after_acks=2)
        acked_before = set(WorkQueue(fleet_dir).acked_machines())
        assert len(acked_before) == 2
        generations = {name: machines_by_name(machines)[name]
                       .disk.generation for name in acked_before}
        FleetCoordinator(fleet_dir, machines, workers=1).run_epoch()
        # An acked machine's disk was never touched again (a rescan of
        # an infected machine would have rebooted it).
        for name, generation in generations.items():
            assert (machines_by_name(machines)[name].disk.generation
                    == generation)

    def test_worker_death_mid_lease_under_coordinator(self, tmp_path):
        """A lease taken by a worker that dies is reaped by expiry and
        the machine still completes within the same epoch."""
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=2, infected=())
        coordinator = FleetCoordinator(fleet_dir, machines, workers=1,
                                       lease_seconds=50.0)
        # Simulate a dead worker: open the epoch by hand, lease one
        # machine, and never ack it.
        history_epoch = coordinator.next_epoch_number()
        plan = coordinator.scheduler.plan(
            sorted(coordinator.machines), history_epoch,
            __import__("repro.fleet.scheduler",
                       fromlist=["FleetHistory"]).FleetHistory())
        coordinator.queue.open_epoch(
            history_epoch, coordinator.scheduler.assignments(plan))
        orphan = coordinator.queue.lease(worker=9)
        before = global_metrics().snapshot()["counters"].get(
            "fleet.lease_expired", 0)
        aggregate = coordinator.run_epoch()   # resumes the open epoch
        assert aggregate.summary.machines == 2
        assert orphan.machine in {v.machine for v in aggregate.verdicts}
        # recover_leases() requeued the orphan at resume; no expiry wait.
        after = global_metrics().snapshot()["counters"].get(
            "fleet.lease_expired", 0)
        assert after == before


def machines_by_name(machines):
    return {machine.name: machine for machine in machines}


def run_epoch_via_controller(coordinator, machines):
    """One epoch through the :class:`ScanController` lease/ack handlers.

    Socketless: an in-memory :class:`ScanAgent` scans each lease and
    builds its ack frame exactly as a forked agent would, and the
    controller checkpoints it — the distributed path minus the wire.
    """
    from repro.fleet.aggregator import FleetAggregator
    from repro.fleet.agent import ScanAgent
    from repro.fleet.controller import AgentSession, ScanController

    by_name = machines_by_name(machines)
    controller = ScanController(coordinator, secret="s")
    agent = ScanAgent(("127.0.0.1", 0), "s", "agent-0", by_name.__getitem__)
    session = AgentSession("agent-0", 0, now=0.0)
    epoch = coordinator.next_epoch_number()
    aggregator = FleetAggregator(
        epoch, outbreak_threshold=coordinator.outbreak_threshold)
    coordinator._open_or_resume(epoch, aggregator)
    controller.begin_epoch(epoch, aggregator)
    while True:
        reply = controller._handle_lease(session)
        if reply["op"] != "lease-ok":
            assert reply["state"] == "drained"
            break
        lease = reply["lease"]
        controller._handle_ack(session, agent._scan_to_ack(
            lease["machine"], lease["epoch"], lease["token"],
            reply.get("baseline")))
    controller.end_epoch()
    coordinator._finish_epoch(aggregator)
    return aggregator


class TestCheckpointProperty:
    """Hypothesis: any kill point yields an identical completed epoch."""

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kill_after=st.integers(min_value=1, max_value=3),
           infected=st.sets(st.integers(min_value=0, max_value=2),
                            max_size=2),
           kill_in_gap=st.booleans())
    def test_any_kill_point_resumes_identically(self, tmp_path_factory,
                                                kill_after, infected,
                                                kill_in_gap):
        """Die at the N-th ack boundary — or, with ``kill_in_gap``,
        *inside* the checkpoint: after the baseline put and the journal
        record but before the queue ack commits."""
        tmp_path = tmp_path_factory.mktemp("fleet-prop")
        reference = FleetCoordinator(
            str(tmp_path / "ref"),
            build_fleet(size=3, infected=tuple(infected)),
            workers=2).run_epoch()

        fleet_dir = str(tmp_path / "killed")
        machines = build_fleet(size=3, infected=tuple(infected))
        coordinator = FleetCoordinator(fleet_dir, machines, workers=2)
        if kill_in_gap:
            real_ack = coordinator.queue.ack
            calls = {"n": 0}

            def gap_ack(lease, **payload):
                calls["n"] += 1
                if calls["n"] == kill_after:
                    raise CoordinatorKilled("died in the journal→ack gap")
                return real_ack(lease, **payload)

            coordinator.queue.ack = gap_ack
        try:
            coordinator.run_epoch(
                kill_after_acks=None if kill_in_gap else kill_after)
            killed = False
        except CoordinatorKilled:
            killed = True
        if killed:
            resumed = FleetCoordinator(fleet_dir, machines,
                                       workers=2).run_epoch()
        else:
            # kill_after exceeded the roster: the epoch just finished.
            resumed = reference
            fleet_dir = str(tmp_path / "ref")
        assert verdict_key(resumed) == verdict_key(reference)
        records = machine_records(fleet_dir, epoch=1)
        assert len({record["machine"] for record in records}) == 3
        # A gap kill leaves the dying machine journaled twice (the
        # resume re-records it; last wins); every other machine exactly
        # once.
        counts = Counter(record["machine"] for record in records)
        assert sorted(counts.values()) == (
            [1, 1, 2] if killed and kill_in_gap else [1, 1, 1])

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(churned=st.sets(st.integers(min_value=0, max_value=3),
                           max_size=3),
           kill_at=st.sampled_from(["before-skip-journal",
                                    "skip-journal-to-ack", "after-skip-acks",
                                    "scan-ack"]),
           scan_ack=st.integers(min_value=1, max_value=3))
    def test_any_kill_point_in_a_skip_epoch_resumes_identically(
            self, tmp_path_factory, churned, kill_at, scan_ack):
        """Epoch 2 mixes a skip set with churned machines; die before
        the skip set's journal write, between its journal and queue
        group writes, right after its acks, or at a scan ack."""
        tmp_path = tmp_path_factory.mktemp("fleet-skip-prop")
        size = 4
        skips = size - len(churned)

        def seeded(fleet_dir):
            machines = build_fleet(size=size, infected=(1,))
            coordinator = FleetCoordinator(fleet_dir, machines, workers=2)
            coordinator.run_epoch()
            for index in sorted(churned):
                machines[index].volume.create_file(
                    f"\\Temp\\churn-{index}.bin", b"x")
            return coordinator, machines

        reference_coordinator, __ = seeded(str(tmp_path / "ref"))
        reference = reference_coordinator.run_epoch()

        fleet_dir = str(tmp_path / "killed")
        coordinator, machines = seeded(fleet_dir)
        kill_after = None
        if kill_at == "before-skip-journal":
            real_checkpoint = coordinator._checkpoint

            def dying_checkpoint(batch, aggregator):
                if all(lease is None for lease, __ in batch):
                    raise CoordinatorKilled("died before the skip journal")
                return real_checkpoint(batch, aggregator)

            coordinator._checkpoint = dying_checkpoint
        elif kill_at == "skip-journal-to-ack":
            def dying_ack_pending(payloads):
                raise CoordinatorKilled("died between the group writes")

            coordinator.queue.ack_pending = dying_ack_pending
        elif kill_at == "after-skip-acks":
            kill_after = skips
        else:
            kill_after = skips + scan_ack
        try:
            aggregate = coordinator.run_epoch(kill_after_acks=kill_after)
            killed = False
        except CoordinatorKilled:
            killed = True
        if killed:
            # The kill landed exactly at its boundary: the skip set's
            # acks commit together, and a kill inside its checkpoint
            # acks none of them.
            assert fleet_status(fleet_dir)["acked"] == (
                0 if kill_after is None else max(1, kill_after))
            resumed = FleetCoordinator(fleet_dir, machines, workers=2)
            acked_at_close = []
            real_finish = resumed._finish_epoch

            def finish(aggregator):
                acked_at_close.append(fleet_status(fleet_dir)["acked"])
                return real_finish(aggregator)

            resumed._finish_epoch = finish
            aggregate = resumed.run_epoch()
            assert acked_at_close == [size]
        # (Not killed: the kill point lay past the epoch's last ack.)
        assert verdict_key(aggregate) == verdict_key(reference)
        counts = Counter(record["machine"]
                         for record in machine_records(fleet_dir, epoch=2))
        assert len(counts) == size
        assert max(counts.values()) <= 2
        if killed and kill_at == "skip-journal-to-ack" and skips:
            assert sorted(counts.values()) == sorted(
                [2] * skips + [1] * (size - skips))


class TestChaosInterplay:
    def test_epoch_completes_under_lease_faults(self, tmp_path):
        from repro.faults import context as faults_context
        from repro.faults.plan import (SITE_FLEET_LEASE, FaultPlan,
                                       FaultSpec)

        machines = build_fleet(size=3, infected=(1,))
        coordinator = FleetCoordinator(str(tmp_path), machines, workers=2)
        plan = FaultPlan(seed=99, specs=(
            FaultSpec(SITE_FLEET_LEASE, rate=0.4, kinds=("io_error",)),))
        with faults_context.scoped(plan, clock=coordinator.clock):
            aggregate = coordinator.run_epoch()
        assert aggregate.summary.machines == 3
        assert aggregate.infected_machines() == ["m01"]
        assert plan.fired_count(SITE_FLEET_LEASE) > 0

    def test_chaos_kill_resume_matches_reference(self, tmp_path):
        """The full interplay: scan-site faults active, coordinator
        killed mid-epoch, resumed — verdicts still match the
        uninterrupted chaos run (per-machine fault streams are
        scheduling-independent)."""
        from repro.faults.plan import FaultPlan

        seed = 2026

        def run(fleet_dir, kill_after=None):
            machines = build_fleet(size=3, infected=(0, 2))
            coordinator = FleetCoordinator(
                fleet_dir, machines, workers=2,
                fault_plan=FaultPlan.default(seed, rate=0.02))
            return coordinator.run_epoch(kill_after_acks=kill_after)

        reference = run(str(tmp_path / "ref"))
        chaos_dir = str(tmp_path / "killed")
        with pytest.raises(CoordinatorKilled):
            run(chaos_dir, kill_after=1)
        machines = build_fleet(size=3, infected=(0, 2))
        resumed = FleetCoordinator(
            chaos_dir, machines, workers=2,
            fault_plan=FaultPlan.default(seed, rate=0.02)).run_epoch()
        assert verdict_key(resumed) == verdict_key(reference)
        records = machine_records(chaos_dir, epoch=1)
        assert len(records) == 3


class TestLeaseRecoveryEdgeCases:
    """The queue/checkpoint edge cases distributed mode leans on."""

    def test_ack_after_timeout_is_stale_and_does_not_requeue(
            self, tmp_path):
        clock = SimClock()
        queue = WorkQueue(str(tmp_path), clock=clock, lease_seconds=10.0)
        queue.open_epoch(1, {"m00": 0})
        lease = queue.lease(0)
        clock.advance(10.0)
        with pytest.raises(StaleLease):
            queue.ack(lease, verdict="clean")
        # The refusal has no side effects: not acked, and requeueing is
        # expire_leases()'s job, not the failed ack's.
        assert queue.acked_machines() == {}
        assert queue.pending_machines() == []
        assert queue.expire_leases() == ["m00"]
        assert queue.pending_machines() == ["m00"]

    def test_reclaimed_lease_token_cannot_ack(self, tmp_path):
        clock = SimClock()
        queue = WorkQueue(str(tmp_path), clock=clock, lease_seconds=10.0)
        queue.open_epoch(1, {"m00": 0})
        stale = queue.lease(0)
        clock.advance(11.0)
        assert queue.expire_leases() == ["m00"]
        fresh = queue.lease(1)
        assert fresh.token != stale.token
        with pytest.raises(StaleLease):
            queue.ack(stale, verdict="clean")
        assert queue.acked_machines() == {}
        queue.ack(fresh, verdict="clean")
        assert queue.epoch_drained()

    def test_slow_scan_late_ack_is_surfaced_everywhere(
            self, tmp_path, capsys):
        """A lease shorter than the scan: every fresh verdict goes late,
        the machines complete via the durable-baseline skip path, and
        the waste is visible in the summary, the journal, the metrics,
        and the operator report."""
        reference = FleetCoordinator(
            str(tmp_path / "ref"), build_fleet(size=3, infected=(1,)),
            workers=1).run_epoch()

        fleet_dir = str(tmp_path / "slow")
        before = global_metrics().counter("fleet.ack.late")
        aggregate = FleetCoordinator(
            fleet_dir, build_fleet(size=3, infected=(1,)), workers=1,
            lease_seconds=0.01).run_epoch()
        # Scans landed durably (store.put precedes the ack), so the
        # expiry → requeue → re-lease cycle rides each machine's
        # baseline instead of re-scanning; verdicts are unchanged.
        assert verdict_key(aggregate) == verdict_key(reference)
        assert aggregate.summary.machines == 3
        assert aggregate.summary.skipped == 3
        assert aggregate.summary.late_acks == 3
        assert global_metrics().counter("fleet.ack.late") == before + 3
        # The epoch-end journal record carries the count...
        with open(f"{fleet_dir}/epochs.jsonl", encoding="utf-8") as handle:
            ends = [json.loads(line) for line in handle
                    if '"epoch-end"' in line]
        assert ends[-1]["late_acks"] == 3
        # ...and scan_report renders it for the operator.
        import importlib.util
        from pathlib import Path
        spec = importlib.util.spec_from_file_location(
            "scan_report_late", Path(__file__).resolve().parent.parent
            / "scripts" / "scan_report.py")
        scan_report = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scan_report)
        assert scan_report.main([f"{fleet_dir}/epochs.jsonl"]) == 0
        assert "3 late ack(s) dropped" in capsys.readouterr().out

    def test_kill_between_journal_and_ack_resumes_identically(
            self, tmp_path, monkeypatch):
        """The narrowest crash window: baseline stored, verdict
        journaled, queue ack never committed."""
        self._kill_between_journal_and_ack(
            tmp_path, monkeypatch, lambda c, machines: c.run_epoch())

    def test_kill_between_journal_and_ack_resumes_identically_via_controller(
            self, tmp_path, monkeypatch):
        """The same crash window on the distributed checkpoint path."""
        self._kill_between_journal_and_ack(
            tmp_path, monkeypatch, run_epoch_via_controller)

    def _kill_between_journal_and_ack(self, tmp_path, monkeypatch, run):
        reference = FleetCoordinator(
            str(tmp_path / "ref"), build_fleet(size=3, infected=(1,)),
            workers=1).run_epoch()

        checkpoints = []
        shared = FleetCoordinator._checkpoint

        def counting(coordinator, batch, aggregator):
            checkpoints.extend(verdict.machine for __, verdict in batch)
            return shared(coordinator, batch, aggregator)

        monkeypatch.setattr(FleetCoordinator, "_checkpoint", counting)
        fleet_dir = str(tmp_path / "gap")
        machines = build_fleet(size=3, infected=(1,))
        coordinator = FleetCoordinator(fleet_dir, machines, workers=1)
        real_ack = coordinator.queue.ack
        state = {"killed": False}

        def gap_ack(lease, **payload):
            if not state["killed"]:
                state["killed"] = True
                raise CoordinatorKilled("died after journal, before ack")
            return real_ack(lease, **payload)

        coordinator.queue.ack = gap_ack
        with pytest.raises(CoordinatorKilled):
            run(coordinator, machines)
        resumed = run(FleetCoordinator(fleet_dir, machines, workers=1),
                      machines)
        assert verdict_key(resumed) == verdict_key(reference)
        counts = Counter(record["machine"]
                         for record in machine_records(fleet_dir, epoch=1))
        assert sorted(counts.values()) == [1, 1, 2]
        # Every journaled verdict went through the one shared checkpoint.
        assert Counter(checkpoints) == counts

    def test_durable_knob_fsyncs_every_append(self, tmp_path,
                                              monkeypatch):
        import os

        import repro.fleet.queue as queue_mod

        counts = {"n": 0}
        real_fsync = os.fsync

        def counting_fsync(fd):
            counts["n"] += 1
            return real_fsync(fd)

        monkeypatch.setattr(queue_mod.os, "fsync", counting_fsync)

        def run_epoch_ops(queue):
            queue.open_epoch(1, {"m00": 0})
            queue.ack(queue.lease(0), verdict="clean")
            queue.close_epoch()

        lazy = WorkQueue(str(tmp_path / "lazy"))
        run_epoch_ops(lazy)
        # Only the epoch boundary records are fsynced by default (the
        # console index pins cursors against the WAL prefix).
        assert counts["n"] == 2

        counts["n"] = 0
        durable = WorkQueue(str(tmp_path / "durable"), durable=True)
        run_epoch_ops(durable)
        assert counts["n"] > 2       # every append hits the platter
        per_op = counts["n"]

        # The knob threads through the coordinator too.
        counts["n"] = 0
        coordinator = FleetCoordinator(
            str(tmp_path / "coord"), build_fleet(size=1, infected=()),
            workers=1, queue_durable=True)
        coordinator.run_epoch()
        assert counts["n"] >= per_op


class TestSkipSetCheckpoint:
    """The in-process skip set: one batch, no leases, hand-written
    records that match the dataclass."""

    def test_verdict_to_dict_matches_asdict_and_round_trips(self):
        from dataclasses import MISSING, asdict, fields

        from repro.fleet.aggregator import MachineVerdict

        verdict = MachineVerdict(
            machine="m07", epoch=9, verdict="infected", findings=3,
            noise=2, scanned=True, skipped=True, escalated=True,
            confirmed=True, confirmed_by="winpe",
            baseline_id="m07@g4-0123456789ab", scan_seconds=1.25,
            error="TransientIoError: boom", finding_ids=["file:a", "b"],
            mass_hiding=True, sampled=True, coverage=0.375,
            sampling_escalated=True,
            campaign_fingerprints=["file:\\windows\\*.exe"])
        # Every field differs from its default, so a field added later
        # without a to_dict key fails here rather than vanishing from
        # the journal.
        for spec in fields(verdict):
            default = (spec.default_factory()
                       if spec.default_factory is not MISSING
                       else spec.default)
            assert getattr(verdict, spec.name) != default, spec.name
        record = verdict.to_dict()
        expected = asdict(verdict) | {"type": "fleet-machine"}
        assert list(record.items()) == list(expected.items())
        assert MachineVerdict.from_dict(record) == verdict
        # Value semantics: the record's lists are copies.
        record["finding_ids"].append("mutated")
        assert verdict.finding_ids == ["file:a", "b"]

    def test_all_skipped_epoch_group_commits_without_leases(
            self, tmp_path, monkeypatch):
        import shutil

        import repro.fleet.coordinator as coordinator_mod
        from repro.console import JournalIndex

        fleet_dir = str(tmp_path / "fleet")
        machines = build_fleet(size=4, infected=(1,))
        coordinator = FleetCoordinator(fleet_dir, machines, workers=2)
        coordinator.run_epoch()

        journal_groups, wal_writes = [], []
        real_group = coordinator_mod.append_journal_group
        real_append = coordinator.queue._append

        def group(path, records):
            journal_groups.append([record["type"] for record in records])
            return real_group(path, records)

        def append(*records):
            wal_writes.append([record["op"] for record in records])
            return real_append(*records)

        monkeypatch.setattr(coordinator_mod, "append_journal_group", group)
        coordinator.queue._append = append
        second = coordinator.run_epoch()

        assert second.summary.skipped == 4
        assert journal_groups == [["fleet-machine"] * 4]
        assert wal_writes == [["epoch-open"], ["ack"] * 4, ["epoch-close"]]
        with open(coordinator.queue.path, encoding="utf-8") as handle:
            ops = [json.loads(line)["op"] for line in handle]
        assert ops.count("lease") == 4          # epoch 1's scans only
        # The write-time index answers exactly what an index rebuilt
        # from the journals answers.
        rebuilt_dir = str(tmp_path / "rebuilt")
        shutil.copytree(fleet_dir, rebuilt_dir,
                        ignore=shutil.ignore_patterns("index"))
        live, rebuilt = coordinator.index, JournalIndex(rebuilt_dir)
        live.update()
        rebuilt.rebuild()
        for name in sorted(coordinator.machines):
            history = live.machine_history(name)
            assert [entry["epoch"] for entry in history] == [1, 2]
            assert history == rebuilt.machine_history(name)
        for query in ({}, {"verdict": "infected"}, {"epoch_min": 2},
                      {"verdict": "clean", "epoch_min": 2}):
            assert live.query(**query) == rebuilt.query(**query)
        assert live.epoch_summaries() == rebuilt.epoch_summaries()
        assert fleet_status(fleet_dir)["epochs_completed"] == 2

    def test_all_skipped_epoch_alerts_the_leased_epochs_first_k(
            self, tmp_path):
        # Eight carriers, threshold 3, three shards: the first three
        # carriers in lease order (m01, m02, m04) differ from the first
        # three in roster order (m01, m02, m03).  The skip set must be
        # observed in lease order so the all-skipped epoch 2 alerts on
        # the same machines as the scanned epoch 1.
        fleet_dir = str(tmp_path)
        coordinator = FleetCoordinator(
            fleet_dir, build_fleet(size=9, infected=range(1, 9)),
            workers=3, outbreak_threshold=3)
        coordinator.run(2)

        members = {1: set(), 2: set()}
        with open(f"{fleet_dir}/epochs.jsonl", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record["type"] == "fleet-outbreak":
                    members[record["epoch"]].add(tuple(record["machines"]))
        assert members == {1: {("m01", "m02", "m04")},
                           2: {("m01", "m02", "m04")}}

    def test_skip_verdicts_rehydrate_only_when_a_baseline_changes(
            self, tmp_path, monkeypatch):
        import repro.fleet.coordinator as coordinator_mod

        machines = build_fleet(size=3, infected=(1,))
        coordinator = FleetCoordinator(str(tmp_path), machines, workers=2)
        coordinator.run_epoch()
        rehydrated = []
        real_skip = coordinator_mod.skip_verdict

        def counting(baseline, epoch):
            rehydrated.append(baseline.machine)
            return real_skip(baseline, epoch)

        monkeypatch.setattr(coordinator_mod, "skip_verdict", counting)
        coordinator.run_epoch()
        assert sorted(rehydrated) == ["m00", "m01", "m02"]
        third = coordinator.run_epoch()
        assert sorted(rehydrated) == ["m00", "m01", "m02"]
        assert {v.epoch for v in third.verdicts} == {3}
        assert verdict_key(third) == {
            machine: (verdict.verdict, verdict.findings, verdict.confirmed,
                      verdict.confirmed_by)
            for machine, verdict in coordinator._journaled_verdicts(
                2).items()}
        machines[2].volume.create_file("\\Temp\\new.txt", b"payload")
        coordinator.run_epoch()        # m02 rescans: a new baseline
        coordinator.run_epoch()
        assert sorted(rehydrated) == ["m00", "m01", "m02", "m02"]

    def test_sampled_baseline_skips_only_in_the_sample_tier(self, tmp_path):
        from repro.workloads.sampling import (TIER_FULL, TIER_SAMPLE,
                                              SamplingPolicy)

        class ForcedTiers(SamplingPolicy):
            """Sample tier for epochs 1-2, full tier from epoch 3."""

            def assign(self, plan, epoch):
                tier = TIER_SAMPLE if epoch < 3 else TIER_FULL
                return {entry.machine: tier for entry in plan}

        coordinator = FleetCoordinator(
            str(tmp_path), build_fleet(size=2, infected=()), workers=1,
            sampling=ForcedTiers(seed=1, file_rate=0.5))
        first = coordinator.run_epoch()
        assert all(v.sampled and v.scanned for v in first.verdicts)
        # A sampled baseline holds for another sample-tier epoch...
        assert coordinator.run_epoch().summary.skipped == 2
        # ...but never satisfies a full-tier one, churn or no churn.
        third = coordinator.run_epoch()
        assert third.summary.scanned == 2
        assert not any(v.sampled for v in third.verdicts)

    def test_controller_lease_ok_carries_the_skip_payload(self, tmp_path):
        from repro.fleet.aggregator import FleetAggregator
        from repro.fleet.controller import AgentSession, ScanController
        from repro.fleet.scanwork import skip_verdict

        machines = build_fleet(size=2, infected=(1,))
        coordinator = FleetCoordinator(str(tmp_path), machines, workers=1)
        coordinator.run_epoch()
        controller = ScanController(coordinator, secret="s")
        epoch = coordinator.next_epoch_number()
        aggregator = FleetAggregator(epoch)
        coordinator._open_or_resume(epoch, aggregator)
        controller.begin_epoch(epoch, aggregator)
        session = AgentSession("agent-0", 0, now=0.0)
        for __ in range(2):
            reply = controller._handle_lease(session)
            assert sorted(reply) == ["baseline", "lease", "op"]
            assert reply["op"] == "lease-ok"
            lease = reply["lease"]
            assert sorted(lease) == ["epoch", "expires_at", "machine",
                                     "shard", "token", "worker"]
            baseline = coordinator.store.get(lease["machine"])
            assert reply["baseline"] == {
                "disk_generation": baseline.disk_generation,
                "verdict": skip_verdict(baseline, epoch).to_dict()}
            assert reply["baseline"]["verdict"]["epoch"] == epoch
            assert reply["baseline"]["verdict"]["skipped"] is True
        # Distributed mode leases every machine: no skip set is acked
        # at epoch open, the agents decide the skips.
        assert coordinator.queue.acked_machines() == {}


class TestInMemoryHistory:
    """The coordinator folds its own journal writes into the scheduler
    history; ``load_history`` (a full replay) stays the reference."""

    @pytest.mark.parametrize("case", ["back-to-back", "kill-resume",
                                      "retention", "late-ack"])
    def test_history_matches_replay_at_every_epoch_open(
            self, tmp_path, monkeypatch, case):
        from repro.fleet.scheduler import load_history

        opened = []
        real_open = FleetCoordinator._open_or_resume

        def checked(coordinator, epoch, aggregator):
            assert coordinator.history == load_history(
                coordinator.epochs_path)
            opened.append(epoch)
            return real_open(coordinator, epoch, aggregator)

        monkeypatch.setattr(FleetCoordinator, "_open_or_resume", checked)
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=3, infected=(1,))
        kwargs = {"retention": dict(compact_every=1, retain_epochs=1),
                  "late-ack": dict(lease_seconds=0.01)}.get(case, {})
        coordinator = FleetCoordinator(fleet_dir, machines, workers=2,
                                       **kwargs)
        for epoch in range(3):
            machines[epoch % 3].volume.create_file(
                f"\\Temp\\churn-{epoch}.bin", b"x")
            if case == "kill-resume" and epoch == 1:
                with pytest.raises(CoordinatorKilled):
                    coordinator.run_epoch(kill_after_acks=1)
                coordinator = FleetCoordinator(fleet_dir, machines,
                                               workers=2)
            coordinator.run_epoch()
        assert coordinator.history == load_history(coordinator.epochs_path)
        assert coordinator.history.last_epoch_no == 3
        assert opened == ([1, 2, 2, 3] if case == "kill-resume"
                          else [1, 2, 3])


class TestCliAndReport:
    def test_sweep_epochs_and_fleet_status_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        fleet_dir = str(tmp_path / "fleet")
        assert main(["sweep", "--epochs", "2", "--escalate", "winpe",
                     "--fleet-dir", fleet_dir, "--fleet-size", "3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["epochs"]) == 2
        assert payload["epochs"][1]["skipped"] == 3

        assert main(["fleet-status", "--fleet-dir", fleet_dir,
                     "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["epochs_completed"] == 2
        assert status["open_epoch"] is None

    def test_scan_report_renders_fleet_journal(self, tmp_path, capsys):
        import importlib.util
        from pathlib import Path

        machines = build_fleet(size=3, infected=(1,))
        FleetCoordinator(str(tmp_path), machines, workers=2).run_epoch()

        spec = importlib.util.spec_from_file_location(
            "scan_report", Path(__file__).resolve().parent.parent
            / "scripts" / "scan_report.py")
        scan_report = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spec and scan_report)
        assert scan_report.main([str(tmp_path / "epochs.jsonl")]) == 0
        output = capsys.readouterr().out
        assert "confirmed by winpe" in output
        assert "epoch 1:" in output
        assert "m01" in output
