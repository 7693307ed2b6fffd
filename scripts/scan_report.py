#!/usr/bin/env python
"""Render a fleet epochs journal as an operator report.

Usage::

    PYTHONPATH=src python scripts/scan_report.py FLEET_DIR/epochs.jsonl
    PYTHONPATH=src python scripts/scan_report.py --demo [--out FILE]
    PYTHONPATH=src python scripts/scan_report.py BENCH.json

The journal is the one :class:`repro.fleet.FleetCoordinator` writes
(``epoch-start``, ``fleet-machine``, ``fleet-outbreak``,
``fleet-campaign``, ``fleet-agent``, ``epoch-end`` records); it is
rendered epoch by epoch with scan/skip provenance, escalation
provenance, outbreak alerts, and the cross-epoch campaign timeline.

``--demo`` runs two epochs over a small fleet (one infected client, one
client changed between the epochs, so the second epoch shows both the
baseline skip and the rescan), copies the journal to ``--out`` and
renders it.  A bench JSON (``scripts/bench.py [stealth_campaign] --out
FILE``, or an archived ``BENCH_PR10.json``) is also accepted and
rendered as the per-stealth-level detection columns (docs/adversary.md).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.telemetry.journal_io import read_grouped   # noqa: E402


def load_jsonl(path) -> dict:
    """A journal's intact records grouped by ``type``.

    A malformed line — typically the torn tail of a file whose writer
    died mid-record — is skipped with a warning rather than aborting the
    whole report: the operator still sees every intact record.
    """
    def warn(line_no: int, reason: str) -> None:
        warnings.warn(f"{path}:{line_no}: skipping malformed telemetry "
                      f"record ({reason})", stacklevel=2)

    return read_grouped(path, on_torn=warn)


def render_fleet(records: dict) -> str:
    """Render a fleet epochs journal (``repro.fleet`` coordinator)."""
    lines = []
    for start in records.get("epoch-start", []):
        lines.append(f"epoch {start.get('epoch', '?')} opened over "
                     f"{start.get('machines', '?')} machine(s) at "
                     f"t={start.get('at', 0.0):.1f}s")
    verdicts = records.get("fleet-machine", [])
    if verdicts:
        header = (f"{'machine':<14} {'ep':>3} {'verdict':<9} "
                  f"{'mode':<8} {'findings':>8} {'sim(s)':>8} escalation")
        lines += [header, "-" * len(header)]
        for verdict in verdicts:
            if verdict.get("skipped"):
                mode = "skip"
            elif verdict.get("sampling_escalated"):
                mode = "sam>full"
            elif verdict.get("sampled"):
                coverage = verdict.get("coverage", 1.0)
                mode = f"samp{round(coverage * 100):>3d}%"
            else:
                mode = "scan"
            escalation = ""
            if verdict.get("escalated"):
                escalation = (f"confirmed by {verdict['confirmed_by']}"
                              if verdict.get("confirmed")
                              else "escalated, unconfirmed")
            if verdict.get("error"):
                escalation = verdict["error"]
            lines.append(
                f"{verdict.get('machine', '?'):<14} "
                f"{verdict.get('epoch', 0):>3d} "
                f"{verdict.get('verdict', '?'):<9} {mode:<8} "
                f"{verdict.get('findings', 0):>8d} "
                f"{verdict.get('scan_seconds', 0.0):>8.1f} {escalation}")
    outbreaks = records.get("fleet-outbreak", [])
    for outbreak in outbreaks:
        lines.append(f"OUTBREAK epoch {outbreak.get('epoch', '?')}: "
                     f"{outbreak.get('identity')!r} on "
                     f"{len(outbreak.get('machines', []))} machine(s): "
                     + ", ".join(outbreak.get("machines", [])))
    # Campaign timeline: cross-epoch correlation over rotation-tolerant
    # fuzzy fingerprints — one line per underlying campaign, however
    # many exact identities it rotated through (docs/adversary.md).
    for campaign in records.get("fleet-campaign", []):
        lines.append(
            f"CAMPAIGN {campaign.get('fingerprint')!r}: "
            f"{len(campaign.get('machines', []))} machine(s) since "
            f"epoch {campaign.get('first_epoch', '?')}, "
            f"{len(campaign.get('identities', []))} rotated "
            f"identity(ies): " + ", ".join(campaign.get("machines", [])))
    agents = {}
    for record in records.get("fleet-agent", []):
        agents[record.get("agent", "?")] = record
    if agents:
        lines.append("agents (distributed mode, last state):")
        for name in sorted(agents):
            agent = agents[name]
            lines.append(
                f"  {name:<14} {agent.get('state', '?'):<9} "
                f"acks={agent.get('acks', 0)} "
                f"reconnects={agent.get('reconnects', 0)} "
                f"last={agent.get('event', '?')}"
                + (f" reclaimed={','.join(agent['reclaimed'])}"
                   if agent.get("reclaimed") else ""))
    ends = records.get("epoch-end", [])
    if ends:
        lines.append("epochs:")
        for end in ends:
            late = end.get("late_acks", 0)
            sampled = end.get("sampled", 0)
            sampling = ""
            if sampled:
                recall = end.get("estimated_recall", 1.0)
                sampling = (f", {sampled} sampled "
                            f"({end.get('sampling_escalations', 0)} "
                            f"escalated by sampling, "
                            f"est. recall {recall * 100:.1f}%)")
            lines.append(
                f"  epoch {end.get('epoch', '?')}: "
                f"{end.get('machines', 0)} machine(s), "
                f"{end.get('scanned', 0)} scanned / "
                f"{end.get('skipped', 0)} skipped, "
                f"{end.get('infected', 0)} infected, "
                f"{end.get('escalated', 0)} escalated "
                f"({end.get('confirmed', 0)} confirmed), "
                f"{end.get('errors', 0)} error(s), "
                f"{end.get('outbreaks', 0)} outbreak(s), "
                f"{end.get('scan_seconds', 0.0):.1f}s of scanning"
                + sampling
                + (f", {late} late ack(s) dropped" if late else ""))
    return "\n".join(lines)


def render_stealth_curve(payload: dict) -> str:
    """Per-stealth-level detection columns from a bench JSON.

    ``scripts/bench.py --out`` files carry the curve under
    ``timings.stealth_campaign``; archived files up to ``BENCH_PR10.json``
    carry it at the top level.
    """
    stealth = payload.get("stealth_campaign") or payload.get(
        "timings", {}).get("stealth_campaign")
    if not stealth:
        return "no stealth_campaign section in this bench file"
    lines = [f"stealth campaign curve ({stealth.get('fleet_size', '?')} "
             f"machines x {stealth.get('epochs', '?')} epochs)"]
    header = (f"{'level':<9} {'naive P':>8} {'naive R':>8} "
              f"{'def P':>6} {'def R':>6} {'outbreaks':>9} "
              f"{'campaigns':>9} {'probe':>6}")
    lines += [header, "-" * len(header)]
    for point in stealth.get("curve", []):
        naive, defended = point.get("naive", {}), point.get("defended", {})
        probe = defended.get("probe_hit_rate")
        lines.append(
            f"{point.get('level', '?'):<9} "
            f"{naive.get('precision', 0.0):>8.2f} "
            f"{naive.get('recall', 0.0):>8.2f} "
            f"{defended.get('precision', 0.0):>6.2f} "
            f"{defended.get('recall', 0.0):>6.2f} "
            f"{defended.get('outbreak_alerts', 0):>9d} "
            f"{defended.get('campaign_alerts', 0):>9d} "
            + (f"{probe:>6.2f}" if probe is not None else f"{'n/a':>6}"))
    determinism = stealth.get("determinism", {})
    if determinism:
        lines.append(
            f"determinism: reruns identical "
            f"{determinism.get('runs_identical')}, "
            f"{determinism.get('other_backend', 'other')} backend "
            f"identical {determinism.get('backends_identical')}")
    return "\n".join(lines)


def run_demo(out_path: Path) -> Path:
    import shutil
    import tempfile

    from repro.fleet import FleetCoordinator
    from repro.ghostware import HackerDefender
    from repro.machine import Machine

    machines = []
    for index in range(3):
        machine = Machine(f"client-{index}", disk_mb=256, max_records=8192)
        machine.boot()
        machines.append(machine)
    HackerDefender().install(machines[1])
    with tempfile.TemporaryDirectory(prefix="gb-report-demo-") as tmp:
        coordinator = FleetCoordinator(tmp, machines, console_index=False)
        coordinator.run_epoch()
        machines[2].volume.create_file("\\Temp\\dropped.txt", b"payload")
        coordinator.run_epoch()
        shutil.copyfile(coordinator.epochs_path, out_path)
    return out_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Render a fleet epochs journal")
    parser.add_argument("jsonl", nargs="?", help="epochs journal (JSONL)")
    parser.add_argument("--demo", action="store_true",
                        help="run a two-epoch demo fleet first")
    parser.add_argument("--out", default="SWEEP_DEMO.jsonl",
                        help="where --demo writes its journal")
    options = parser.parse_args(argv)

    if options.demo:
        path = run_demo(Path(options.out))
        print(f"wrote {path}\n")
    elif options.jsonl:
        path = Path(options.jsonl)
    else:
        parser.error("give a journal file or --demo")
    text = path.read_text()
    if text.lstrip().startswith("{") and "\n{" not in text:
        # A bench JSON artifact, not a journal: render the per-level
        # stealth detection columns (docs/adversary.md).
        import json
        print(render_stealth_curve(json.loads(text)))
        return 0
    print(render_fleet(load_jsonl(path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
