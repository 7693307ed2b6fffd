"""Telemetry through the scan stack: spans, audit attribution, journals.

The acceptance scenario from the issue: a Hacker Defender detection run
with tracing enabled must produce a span tree and an audit log that
names the specific interposed API(s) responsible for each hidden file,
key, and process — and the metrics snapshot must show nonzero cache hit
counters after a warm scan.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.ghostbuster import GhostBuster
from repro.fleet import FleetCoordinator
from repro.machine import Machine
from repro.ghostware import (FuRootkit, HackerDefender, HideFoldersXP,
                             Vanquish)
from repro.registry.hive_parser import clear_hive_cache
from repro.telemetry import Telemetry
from repro.telemetry.audit import NO_INTERPOSITION
from repro.telemetry.metrics import global_metrics, reset_global_metrics


@pytest.fixture(autouse=True)
def fresh_metrics():
    reset_global_metrics()
    yield
    reset_global_metrics()


def booted_machine(name, **kwargs):
    machine = Machine(name, disk_mb=256, max_records=8192, **kwargs)
    machine.boot()
    return machine


def traced_scan(machine, advanced=True):
    telemetry = Telemetry.enabled(clock=machine.clock)
    ghostbuster = GhostBuster(machine, advanced=advanced,
                              telemetry=telemetry)
    report = ghostbuster.inside_scan()
    return report, telemetry


# -- acceptance: Hacker Defender with tracing ---------------------------------


class TestHackerDefenderAcceptance:

    def test_span_tree_and_audit_name_responsible_apis(self):
        machine = booted_machine("hxdef-victim")
        HackerDefender().install(machine)
        report, telemetry = traced_scan(machine)
        assert not report.is_clean

        # A full span tree: root → per-layer scans → parse children.
        rendered = telemetry.tracer.render()
        assert "ghostbuster.inside_scan" in rendered
        for name in ("scan.files.high-level", "scan.files.low-level",
                     "mft.parse", "scan.registry.low-level",
                     "diff.files", "diff.registry", "diff.processes"):
            assert name in rendered, f"span {name} missing from tree"
        (root,) = telemetry.tracer.roots()
        assert root.name == "ghostbuster.inside_scan"
        assert all(span.wall_end is not None
                   for span in telemetry.tracer.spans())

        # Every hidden file, key, and process is attributed to the
        # specific ntdll detours Hacker Defender installed.
        attributions = telemetry.attribute(report)
        by_resource = {}
        for attribution in attributions:
            key = attribution.finding.resource_type.value
            by_resource.setdefault(key, []).append(attribution)
        assert set(by_resource) >= {"file", "registry", "process"}
        for attribution in by_resource["file"]:
            assert "ntdll!NtQueryDirectoryFile" in attribution.apis
        for attribution in by_resource["registry"]:
            assert set(attribution.apis) & {"ntdll!NtEnumerateKey",
                                            "ntdll!NtEnumerateValueKey",
                                            "ntdll!NtQueryValueKey"}
        for attribution in by_resource["process"]:
            assert "ntdll!NtQuerySystemInformation" in attribution.apis
        owners = telemetry.audit.owners()
        assert any("Hacker Defender" in owner for owner in owners)

    def test_warm_scan_shows_cache_hits(self):
        machine = booted_machine("warm-victim")
        HackerDefender().install(machine)
        clear_hive_cache()
        machine.disk.raw_cache.clear()
        ghostbuster = GhostBuster(machine)
        ghostbuster.inside_scan()     # cold: builds the caches
        reset_global_metrics()
        ghostbuster.inside_scan()     # warm: every parse memoized
        counters = global_metrics().snapshot()["counters"]
        assert counters.get("mft.parse.cache_hit", 0) > 0
        assert counters.get("hive.parse.memo_hit", 0) > 0
        assert counters.get("mft.parse.cache_miss", 0) == 0
        assert counters.get("hive.parse.memo_miss", 0) == 0

    def test_cold_scan_counts_misses_exactly(self):
        machine = booted_machine("cold-victim")
        clear_hive_cache()
        machine.disk.raw_cache.clear()
        reset_global_metrics()
        GhostBuster(machine).inside_scan(resources=("registry",))
        counters = global_metrics().snapshot()["counters"]
        # One raw reader: one namespace build, one parse per hive file.
        assert counters["mft.parse.cache_miss"] == 1
        assert counters["hive.parse.memo_miss"] == 3
        assert counters["scan.asep.enumerated"] >= 0


# -- audit completeness across interception families --------------------------


class TestAuditCompleteness:

    def test_vanquish_inline_layer_and_module_dkom_contrast(self):
        machine = booted_machine("vanquish-victim")
        Vanquish().install(machine)
        report, telemetry = traced_scan(machine)
        apis = telemetry.audit.interposed_apis()
        assert "kernel32!FindFirstFile" in apis
        assert "advapi32!RegEnumValue" in apis
        events = telemetry.audit.events
        # Vanquish overwrites in-memory API code (INLINE_CALL), so the
        # audit places every firing at the inline layer.
        assert events
        assert all(event.layer == "inline" for event in events)
        assert all(event.kind == "inline_call" for event in events)
        # Vanquish blanks PEB module paths in memory — no API interposed
        # on the module path, so module findings carry the DKOM label.
        module_attributions = [
            attribution for attribution in telemetry.attribute(report)
            if attribution.finding.resource_type.value == "module"]
        assert module_attributions
        for attribution in module_attributions:
            assert attribution.apis == []
            assert NO_INTERPOSITION in attribution.describe()

    def test_urbin_iat_layer_recorded(self):
        from repro.ghostware import Urbin

        machine = booted_machine("urbin-victim")
        Urbin().install(machine)
        report, telemetry = traced_scan(machine, advanced=False)
        assert not report.is_clean
        iat_events = [event for event in telemetry.audit.events
                      if event.layer == "iat"]
        assert iat_events
        assert all(event.owner == "Urbin" for event in iat_events)
        assert "kernel32!FindFirstFile" in \
            telemetry.audit.interposed_apis(resource="file")

    def test_fu_dkom_yields_no_interposition_events(self):
        machine = booted_machine("fu-victim")
        fu = FuRootkit()
        fu.install(machine)
        victim = machine.start_process("\\Windows\\explorer.exe",
                                       name="victim.exe")
        fu.hide_process(machine, victim.pid)
        report, telemetry = traced_scan(machine, advanced=True)
        hidden_processes = [
            finding for finding in report.findings
            if finding.resource_type.value == "process"
            and not finding.is_noise]
        assert hidden_processes   # the thread-table walk recovers it
        # DKOM interposes nothing: the audit records no process-resource
        # interception, and the attribution says exactly that.
        assert telemetry.audit.interposed_apis(resource="process") == []
        for attribution in telemetry.attribute(report):
            if attribution.finding in hidden_processes:
                assert attribution.apis == []

    def test_filter_driver_layer_recorded(self):
        machine = booted_machine("hfxp-victim")
        machine.volume.create_directories("\\Temp")
        machine.volume.create_file("\\Temp\\secret.txt", b"s")
        HideFoldersXP(hidden_paths=["\\Temp"]).install(machine)
        report, telemetry = traced_scan(machine, advanced=False)
        assert not report.is_clean
        events = telemetry.audit.events
        filtered = [event for event in events
                    if event.layer == "filter-driver"]
        assert filtered
        assert any("entries" in event.detail for event in filtered)
        assert telemetry.audit.interposed_apis(resource="file") == \
            ["IRP:enumerate_directory"]


# -- fleet epochs under telemetry, and the journal they leave -----------------


def _scan_report():
    spec = importlib.util.spec_from_file_location(
        "scan_report", Path(__file__).resolve().parent.parent
        / "scripts" / "scan_report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFleetHealth:

    def make_fleet(self, size=4, infected=(1,)):
        fleet = []
        for index in range(size):
            machine = booted_machine(f"client-{index}")
            if index in infected:
                HackerDefender().install(machine)
            fleet.append(machine)
        return fleet

    def traced_epoch(self, fleet_dir, fleet):
        telemetry = Telemetry.enabled()
        with telemetry.activate():
            aggregate = FleetCoordinator(fleet_dir, fleet).run_epoch()
        return aggregate, [span.to_dict()
                           for span in telemetry.tracer.spans()]

    def test_fleet_epoch_confines_spans_per_machine(self, tmp_path):
        fleet = self.make_fleet(size=4)
        __, spans = self.traced_epoch(str(tmp_path), fleet)
        roots = [span for span in spans if span["parent_id"] is None]
        assert [root["name"] for root in roots] == ["fleet.epoch"]
        scans = [span for span in spans if span["name"] == "fleet.scan"]
        # one scan span per machine, each hanging off the epoch root
        assert sorted(span["attrs"]["machine"] for span in scans) == \
            [machine.name for machine in fleet]
        assert all(span["parent_id"] == roots[0]["span_id"]
                   for span in scans)
        ids = {span["span_id"] for span in spans}
        for span in spans:
            if span["parent_id"] is not None:
                assert span["parent_id"] in ids

    def test_findings_match_serial_and_health_flags_infected(
            self, tmp_path):
        untraced = FleetCoordinator(str(tmp_path / "plain"),
                                    self.make_fleet(size=4)).run_epoch()
        traced, __ = self.traced_epoch(str(tmp_path / "traced"),
                                       self.make_fleet(size=4))
        assert traced.infected_machines() == untraced.infected_machines()
        assert {v.machine: sorted(v.finding_ids) for v in traced.verdicts} \
            == {v.machine: sorted(v.finding_ids)
                for v in untraced.verdicts}
        records = _scan_report().load_jsonl(
            tmp_path / "traced" / "epochs.jsonl")
        verdicts = {record["machine"]: record["verdict"]
                    for record in records["fleet-machine"]}
        assert verdicts["client-1"] == "infected"
        assert verdicts["client-0"] == "clean"

    def test_jsonl_roundtrip(self, tmp_path):
        FleetCoordinator(str(tmp_path), self.make_fleet(size=2)).run_epoch()
        path = tmp_path / "epochs.jsonl"
        records = _scan_report().load_jsonl(path)
        assert len(records["fleet-machine"]) == 2
        assert records["epoch-start"][0]["machines"] == 2
        assert records["epoch-end"][0]["infected"] == 1
        for line in path.read_text().splitlines():
            json.loads(line)   # every line is standalone JSON

    def test_truncated_jsonl_line_skipped_with_warning(self, tmp_path):
        # A writer that died mid-record leaves a torn line; the loader
        # must keep every intact record and warn, not crash.
        FleetCoordinator(str(tmp_path), self.make_fleet(size=2)).run_epoch()
        path = tmp_path / "epochs.jsonl"
        scan_report = _scan_report()
        intact = scan_report.load_jsonl(path)

        lines = path.read_text().splitlines()
        lines.insert(1, '{"type": "fleet-machine", "mach')   # torn record
        path.write_text("\n".join(lines) + "\n")

        with pytest.warns(UserWarning, match="malformed telemetry"):
            torn = scan_report.load_jsonl(path)
        assert torn["fleet-machine"] == intact["fleet-machine"]
        assert torn["epoch-end"] == intact["epoch-end"]


# -- scan-level counters ------------------------------------------------------


class TestScanCounters:

    def test_enumeration_and_diff_counters(self):
        machine = booted_machine("counter-victim")
        HackerDefender().install(machine)
        reset_global_metrics()
        GhostBuster(machine).inside_scan()
        counters = global_metrics().snapshot()["counters"]
        assert counters["scan.files.enumerated"] > 0
        assert counters["scan.processes.enumerated"] > 0
        assert counters["scan.modules.enumerated"] > 0
        assert counters["diff.hidden.found"] >= 6   # 3 files, 2 keys, 1 proc
