"""The bench case table: gate registry, CI case selection, one runner."""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Every gate the bench evaluates, in table order.  A change here is a
# change to what the bench enforces and belongs in CHANGES.md.
GATE_LABELS = [
    "read_file_content speedup >= 5x",
    "raw ASEP scan speedup >= 5x",
    "RIS sweep findings identical",
    "telemetry overhead <= 5%",
    "delta rescan findings identical",
    "delta rescan speedup >= 10x",
    "delta sweep infected identical",
    "delta sweep findings identical",
    "delta sweep skipped every unchanged machine",
    "delta sweep speedup >= 5x",
    "fleet steady epoch all skipped",
    "fleet steady verdicts stable",
    "fleet steady epoch >= 5x naive serial",
    "fleet escalation precision 1.0",
    "fleet escalation confirmed_by provenance",
    "zero-copy parse namespace identical",
    "zero-copy parse reports identical",
    "cold zero-copy parse >= 5x",
    "memory ceiling verdicts identical",
    "memory ceiling >= 4x machines per GB",
    "console query answers identical",
    "console fleet_status matches replay",
    "console query p50 >= 10x replay",
    "index maintenance overhead <= 5%",
    "distributed sweep verdicts identical",
    "distributed chaos zero lost machines",
    "distributed chaos verdicts identical",
    "distributed sweep >= 2x single process (overhead <= 3x under 4 cores)",
    "sampled sweep full recall 1.0",
    "sampled sweep no false positives",
    "sampled sweep actually sampled",
    "sampled sweep >= 5x reduction at recall >= 0.95",
    "trace replay verdicts element-identical",
    "trace replay journals byte-identical across backends",
    "trace replay digests identical",
    "trace replay infection detected and identical",
    "stealth defended precision 1.0 at every level",
    "stealth defended recall >= 0.95 through high",
    "stealth naive recall measurably degraded when aware",
    "stealth campaign alerts deduped across rotated identities",
    "stealth campaigns deterministic across runs",
    "stealth campaigns deterministic across disk backends",
    "chaos sweep recall unchanged",
    "chaos sweep zero errors",
    "chaos sweep zero quarantines",
    "chaos sweep faults actually fired",
    "Win32 walk identical across cold and warm caches",
    "fleet soak zero lost machines",
    "fleet soak faults fired",
    "distributed soak zero lost machines",
    "distributed soak verdicts identical to single-process reference",
    "distributed soak killed agent-0 declared dead",
    "recorded and replayed verdicts element-identical",
    "trace digests identical across replays",
    "replay journals byte-identical",
    "trace detected its planted infection",
]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_cases_under_test", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def test_gate_labels_are_pinned_and_unique(bench):
    labels = [label for case in bench.CASES.values()
              for label, __ in case.gates + case.speed_gates]
    assert labels == GATE_LABELS
    assert len(set(labels)) == len(labels)


def test_every_case_ci_selects_exists(bench):
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    selected = [name for match in re.finditer(
        r"scripts/bench\.py((?: [a-z_]+)*)", workflow)
        for name in match.group(1).split()]
    assert {"fleet_soak", "distributed_soak", "workload_replay",
            "stealth_campaign"} <= set(selected)
    assert set(selected) <= set(bench.CASES)


def test_smoke_case_writes_timings_and_gates(bench, tmp_path):
    out = tmp_path / "bench.json"
    assert bench.main(["diff_10k_s", "console_query", "--smoke",
                       "--out", str(out)]) == 0
    results = json.loads(out.read_text())
    assert isinstance(results["timings"]["diff_10k_s"], float)
    assert results["sizes"]["console_query"] == \
        bench.CASES["console_query"].smoke
    assert [gate["label"] for gate in results["gates"]] == [
        "console query answers identical",
        "console fleet_status matches replay"]
    assert all(gate["passed"] for gate in results["gates"])


def test_no_out_writes_nothing(bench, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert bench.main(["diff_10k_s", "--smoke"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_unknown_case_exits_nonzero(bench):
    with pytest.raises(SystemExit) as excinfo:
        bench.main(["no_such_case", "--smoke"])
    assert excinfo.value.code != 0


def test_failing_gate_fails_the_run(bench, monkeypatch, capsys):
    case = bench.CASES["console_query"]
    monkeypatch.setitem(bench.CASES, "console_query", bench.Case(
        case.name, case.measure, case.smoke, case.full, case.summary,
        gates=(("console query never passes", lambda result: False),)))
    assert bench.main(["console_query", "--smoke"]) == 1
    output = capsys.readouterr()
    assert "[FAIL] console query never passes" in output.out
    assert "console query never passes" in output.err


def test_scan_report_reads_the_curve_from_both_layouts():
    spec = importlib.util.spec_from_file_location(
        "scan_report_under_test", ROOT / "scripts" / "scan_report.py")
    scan_report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan_report)
    arm = {"precision": 1.0, "recall": 0.5, "outbreak_alerts": 1,
           "campaign_alerts": 2, "probe_hit_rate": None}
    curve = {"fleet_size": 4, "epochs": 3, "curve": [
        {"level": "high", "naive": arm, "defended": arm}]}
    runner_layout = scan_report.render_stealth_curve(
        {"timings": {"stealth_campaign": curve}})
    assert "4 machines x 3 epochs" in runner_layout
    assert "high" in runner_layout
    assert runner_layout == scan_report.render_stealth_curve(
        {"stealth_campaign": curve})
