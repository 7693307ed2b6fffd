#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every experiment.

Runs a compact version of each benchmark (E1–E12, A1–A3) and writes the
results table.  Deterministic; finishes in a couple of minutes.

Usage:  python scripts/generate_experiments.py [output-path]
"""

from __future__ import annotations

import io
import sys

from repro.core import GhostBuster, check_mass_hiding, disinfect
from repro.core.crosstime import CrossTimeDiffer
from repro.core.injection_ext import injected_scan
from repro.core.vmscan import vm_outside_scan
from repro.ghostware import (AdvancedHideFolders, Aphex, Berbew,
                             FileFolderProtector, FuRootkit,
                             GhostBusterAwareGhost, HackerDefender,
                             HideFiles, HideFoldersXP,
                             LowLevelInterferenceGhost, Mersting,
                             ProBotSE, Urbin, UtilityTargetedGhost,
                             Vanquish)
from repro.machine import APPINIT_KEY, Machine
from repro.registry.hive import RegType
from repro.unixsim import (Darkside, Superkit, Synapsis, T0rnkit,
                           UnixMachine, unix_cross_view_scan)
from repro.workloads import (PAPER_MACHINES, SignatureScanner,
                             attach_standard_services, build_machine,
                             populate_machine)
from repro.workloads.background import CcmService
from repro.workloads.machines import SMALL_MACHINES, WORKSTATION

OUT = io.StringIO()


def emit(text: str = "") -> None:
    OUT.write(text + "\n")


def fresh(name="exp", files=120):
    machine = Machine(name, disk_mb=512, max_records=8192)
    populate_machine(machine, file_count=files, registry_scale=400,
                     seed=42)
    machine.boot()
    return machine


def fmt_minutes(seconds: float) -> str:
    if seconds >= 90:
        return f"{seconds / 60:.1f} min"
    return f"{seconds:.0f} s"


# ---------------------------------------------------------------- E1

def e1() -> None:
    emit("## E1 — Figure 3: hidden-file detection (10 programs)\n")
    emit("| ghostware | paper | measured hidden files |")
    emit("|---|---|---|")
    cases = [
        (Urbin, "1 (msvsres.dll)"),
        (Mersting, "1 (kbddfl.dll)"),
        (Vanquish, "3+ (*vanquish*)"),
        (Aphex, "configurable prefix"),
        (HackerDefender, "3+ (hxdef*)"),
        (ProBotSE, "4 (random names)"),
    ]
    for ghost_cls, paper in cases:
        machine = fresh()
        ghost_cls().install(machine)
        report = GhostBuster(machine).inside_scan(resources=("files",))
        files = [finding.entry.path for finding in report.hidden_files()]
        emit(f"| {ghost_cls.__name__} | {paper} | "
             f"{len(files)}: {', '.join(f.rsplit(chr(92), 1)[-1] for f in files)} |")
    for hider_cls in (HideFiles, HideFoldersXP, AdvancedHideFolders,
                      FileFolderProtector):
        machine = fresh()
        machine.volume.create_directories("\\Secret")
        machine.volume.create_file("\\Secret\\diary.txt", b"")
        hider_cls(hidden_paths=["\\Secret"]).install(machine)
        report = GhostBuster(machine).inside_scan(resources=("files",))
        emit(f"| {hider_cls.__name__} | user-selected files | "
             f"{len(report.hidden_files())} (the selected tree) |")
    emit()


# ---------------------------------------------------------------- E2/E3

def e2_e3() -> None:
    emit("## E2 — Section 2 timing: inside-the-box file detection\n")
    emit("| machine | hardware | paper | measured (simulated) |")
    emit("|---|---|---|---|")
    for profile in SMALL_MACHINES:
        machine = build_machine(profile, seed=3)
        report = GhostBuster(machine).inside_scan(resources=("files",))
        emit(f"| {profile.ident} | {profile.cpu_mhz} MHz, "
             f"{profile.disk_used_gb} GB used | 30 s – 7 min | "
             f"{fmt_minutes(report.durations['files'])} |")
    machine = build_machine(WORKSTATION, seed=3)
    report = GhostBuster(machine).inside_scan(resources=("files",))
    emit(f"| {WORKSTATION.ident} | dual 3 GHz, 95 GB used | 38 min | "
         f"{fmt_minutes(report.durations['files'])} |")
    emit()

    emit("## E3 — Section 2 false positives\n")
    emit("| scenario | paper | measured |")
    emit("|---|---|---|")
    machine = fresh("fp-inside")
    attach_standard_services(machine)
    machine.run_background(300)
    inside = GhostBuster(machine, advanced=True).inside_scan()
    emit(f"| inside-the-box FPs | 0 | {len(inside.findings)} |")

    machine = fresh("fp-typical")
    attach_standard_services(machine)
    outside = GhostBuster(machine).outside_scan(resources=("files",),
                                                background_gap=120)
    emit(f"| outside-the-box FPs, typical machine | two or less | "
         f"{len(outside.findings)} (all classified benign) |")

    machine = fresh("fp-ccm")
    services = attach_standard_services(machine, with_ccm=True)
    before = GhostBuster(machine).outside_scan(resources=("files",),
                                               background_gap=120)
    ccm = next(s for s in services if isinstance(s, CcmService))
    ccm.enabled = False
    after = GhostBuster(machine).outside_scan(resources=("files",),
                                              background_gap=120)
    emit(f"| CCM-managed machine | 7 | {len(before.findings)} |")
    emit(f"| ...after disabling CCM | 2 | {len(after.findings)} |")
    emit()


# ---------------------------------------------------------------- E4/E5

def e4_e5() -> None:
    emit("## E4 — Figure 4: hidden ASEP hook detection (6 programs)\n")
    emit("| ghostware | paper hooks | measured |")
    emit("|---|---|---|")
    for ghost_cls, paper in ((Urbin, "AppInit_DLLs → msvsres.dll"),
                             (Mersting, "AppInit_DLLs → kbddfl.dll"),
                             (HackerDefender, "2 Services hooks"),
                             (Vanquish, "Services\\Vanquish"),
                             (ProBotSE, "2 Services + 1 Run"),
                             (Aphex, "Run hook")):
        machine = fresh()
        ghost_cls().install(machine)
        report = GhostBuster(machine).inside_scan(resources=("registry",))
        hooks = [finding.entry.describe()
                 for finding in report.hidden_hooks()]
        emit(f"| {ghost_cls.__name__} | {paper} | {len(hooks)}: "
             f"{'; '.join(hooks)} |")
    emit()

    emit("## E5 — Section 3 timing and the corrupted-AppInit FP\n")
    emit("| machine | paper | measured (simulated) |")
    emit("|---|---|---|")
    for profile in PAPER_MACHINES:
        machine = build_machine(profile, seed=5)
        report = GhostBuster(machine).inside_scan(resources=("registry",))
        emit(f"| {profile.ident} | 18 – 63 s | "
             f"{report.durations['registry']:.0f} s |")
    machine = fresh("corrupt")
    machine.volume.create_file("\\Windows\\System32\\legit.dll", b"MZ")
    corrupted = "legit.dll\x00GARBAGE".encode("utf-16-le")
    machine.registry.set_value(APPINIT_KEY, "AppInit_DLLs", "legit.dll",
                               RegType.SZ, raw_override=corrupted)
    report = GhostBuster(machine).inside_scan(resources=("registry",))
    emit(f"| corrupted AppInit_DLLs FP | 1 on one machine | "
         f"{len(report.hidden_hooks())} (export/delete/re-import clears "
         f"it) |")
    emit()


# ---------------------------------------------------------------- E6/E7

def e6_e7() -> None:
    emit("## E6 — Figure 6: hidden process/module detection\n")
    emit("| ghostware | paper | measured |")
    emit("|---|---|---|")
    for ghost_cls in (Aphex, HackerDefender, Berbew):
        machine = fresh()
        ghost_cls().install(machine)
        report = GhostBuster(machine).inside_scan(resources=("processes",))
        names = sorted(finding.entry.name
                       for finding in report.hidden_processes())
        emit(f"| {ghost_cls.__name__} | detected via Active Process List |"
             f" {', '.join(names)} |")
    machine = fresh()
    fu = FuRootkit()
    fu.install(machine)
    victim = machine.start_process("\\Windows\\explorer.exe",
                                   name="fu_hidden.exe")
    fu.hide_process(machine, victim.pid)
    std = GhostBuster(machine, advanced=False).inside_scan(
        resources=("processes",))
    adv = GhostBuster(machine, advanced=True).inside_scan(
        resources=("processes",))
    emit(f"| FU (DKOM) | advanced mode only | standard: "
         f"{len(std.hidden_processes())} found; advanced: "
         f"{sorted(f.entry.name for f in adv.hidden_processes())} |")
    machine = fresh()
    Vanquish().install(machine)
    report = GhostBuster(machine).inside_scan(resources=("modules",))
    vanquish_rows = [finding for finding in report.hidden_modules()
                     if "vanquish" in finding.entry.module_path.casefold()]
    emit(f"| Vanquish (module) | vanquish.dll in many processes | "
         f"hidden in {len(vanquish_rows)} processes |")
    emit()

    emit("## E7 — Section 4 timing\n")
    emit("| machine | process+module scan (paper 1–5 s) | "
         "crash dump (paper 15–45 s) |")
    emit("|---|---|---|")
    for profile in PAPER_MACHINES:
        machine = build_machine(profile, seed=7)
        report = GhostBuster(machine, advanced=True).inside_scan(
            resources=("processes", "modules"))
        combined = report.durations["processes"] + \
            report.durations["modules"]
        before = machine.clock.now()
        GhostBuster(machine).write_crash_dump()
        dump_seconds = machine.clock.now() - before
        emit(f"| {profile.ident} | {combined:.1f} s | "
             f"{dump_seconds:.0f} s |")
    emit()


# ---------------------------------------------------------------- E8–E12, A1–A3

def e8_to_a3() -> None:
    emit("## E8 — Figures 2/5: technique coverage\n")
    emit("All six file-hiding techniques (IAT, inline call, kernel32 "
         "detour, ntdll detour, SSDT, filter driver), the hook-free "
         "naming exploits, the three process-hiding interceptions, and "
         "DKOM are each detected by the same cross-view diff "
         "(`benchmarks/test_fig2_fig5_technique_matrix.py`).  The "
         "mechanism-scanner baseline sees nothing for the naming-exploit "
         "and DKOM strains — the paper's coverage-gap argument.\n")

    emit("## E9 — Section 5: targeting and the DLL-injection extension\n")
    emit("| strain | standalone GhostBuster | injected GhostBuster |")
    emit("|---|---|---|")
    for ghost_cls in (UtilityTargetedGhost, GhostBusterAwareGhost):
        machine = fresh()
        machine.start_process("\\Windows\\explorer.exe",
                              name="taskmgr.exe")
        ghost_cls().install(machine)
        standalone = GhostBuster(machine).inside_scan(
            resources=("files", "processes"))
        injected = injected_scan(machine)
        emit(f"| {ghost_cls.__name__} | "
             f"{'detected' if not standalone.is_clean else 'evaded'} | "
             f"{'detected by ' + str(len(injected.detecting_processes)) + ' processes' if not injected.is_clean else 'evaded'} |")
    machine = fresh()
    HackerDefender().install(machine)
    scanner = SignatureScanner()
    blind = scanner.on_demand_scan(machine)
    inoc = scanner.ensure_process(machine)
    revealed = GhostBuster(machine, scanner_process=inoc).inside_scan(
        resources=("files",))
    hits = scanner.scan_hidden_candidates(
        machine, [finding.entry.path
                  for finding in revealed.hidden_files()])
    emit(f"| eTrust demo | signatures alone: {len(blind)} hits | "
         f"with GhostBuster in InocIT.exe: "
         f"{sorted({hit.malware for hit in hits})} |")
    emit()

    emit("## E10 — Section 5: VM-based outside scan\n")
    machine = fresh("vm")
    HackerDefender().install(machine)
    report = vm_outside_scan(machine, power_up_after=False)
    clean_machine = fresh("vm-clean")
    clean_report = vm_outside_scan(clean_machine, power_up_after=False)
    emit(f"- infected VM: {len(report.hidden_files())} hidden files + "
         f"{len(report.hidden_hooks())} hidden hooks found from the host")
    emit(f"- clean VM false positives: {len(clean_report.findings)} "
         f"(paper: zero, same drive image)\n")

    emit("## E11 — Section 5: Unix rootkits\n")
    emit("| rootkit | platform | hidden paths found | FPs (paper ≤ 4) |")
    emit("|---|---|---|---|")
    for kit_cls in (Darkside, Superkit, Synapsis, T0rnkit):
        unix_machine = UnixMachine(flavor=getattr(kit_cls, "flavor",
                                                  "linux"))
        unix_machine.populate(200, seed=13)
        kit = kit_cls()
        kit.install(unix_machine)
        report = unix_cross_view_scan(unix_machine, daemon_churn_files=4)
        emit(f"| {kit.name} | {unix_machine.flavor} | "
             f"{len(report.hidden)} | {report.false_positive_count} |")
    emit()

    emit("## E12 — Section 6: Hacker Defender end-to-end\n")
    machine = fresh("killchain")
    HackerDefender().install(machine)
    ghostbuster = GhostBuster(machine, advanced=True)
    t0 = machine.clock.now()
    proc_report = ghostbuster.inside_scan(resources=("processes",
                                                     "modules"))
    detect_seconds = machine.clock.now() - t0
    t1 = machine.clock.now()
    reg_report = ghostbuster.inside_scan(resources=("registry",))
    locate_seconds = machine.clock.now() - t1
    log = disinfect(machine)
    emit(f"- detect hidden process: {detect_seconds:.1f} s "
         f"(paper: within 5 s)")
    emit(f"- locate {len(reg_report.hidden_hooks())} hidden ASEP keys: "
         f"{locate_seconds:.1f} s (paper: within 1 min)")
    emit(f"- removal: {log.summary()}")
    emit(f"- process findings at stage 1: "
         f"{len(proc_report.hidden_processes())}\n")

    emit("## A1 — ablation: cross-view vs cross-time\n")
    machine = fresh("a1")
    attach_standard_services(machine)
    differ = CrossTimeDiffer(machine)
    checkpoint = differ.checkpoint()
    for __ in range(7):
        machine.run_background(3600)
    HackerDefender().install(machine)
    crosstime = differ.diff(checkpoint, differ.checkpoint())
    crossview = GhostBuster(machine).inside_scan(resources=("files",))
    emit(f"- cross-time findings: {len(crosstime)} "
         f"(3 ghostware + {len(crosstime) - 3} legitimate churn)")
    emit(f"- cross-view findings: {len(crossview.hidden_files())} "
         f"(all ghostware, zero noise)\n")

    emit("## A2 — ablation: mass innocent-file hiding\n")
    machine = fresh("a2")
    HackerDefender().install(machine)
    hider = HideFiles()
    hider.install(machine)
    machine.volume.create_directories("\\chaff")
    for index in range(100):
        path = f"\\chaff\\innocent{index:04d}.txt"
        machine.volume.create_file(path, b"")
        hider.hide_path(machine, path)
    report = GhostBuster(machine).inside_scan(resources=("files",))
    alert = check_mass_hiding(report)
    emit(f"- {len(report.hidden_files())} hidden files → anomaly alert: "
         f"{alert.describe() if alert else 'none'}\n")

    emit("## A3 — ablation: low-level-scan interference\n")
    machine = fresh("a3")
    LowLevelInterferenceGhost().install(machine)
    inside = GhostBuster(machine).inside_scan(
        resources=("files", "registry"))
    outside = GhostBuster(machine).outside_scan(
        resources=("files", "registry"), reboot_after=False)
    inside_verdict = ("DETECTED" if not inside.is_clean
                      else "evaded (as the paper warns)")
    outside_verdict = (f"DETECTED ({len(outside.findings)} findings)"
                       if not outside.is_clean else "evaded")
    emit(f"- inside-the-box: {inside_verdict}")
    emit(f"- outside-the-box: {outside_verdict}\n")

    emit("## A4 — ablation: Gatekeeper (cross-time ASEP) × GhostBuster\n")
    from repro.core import GatekeeperMonitor
    from repro.ghostware import Berbew
    machine = fresh("a4")
    monitor = GatekeeperMonitor(machine)
    changes = monitor.watch(lambda: (Berbew().install(machine),
                                     HackerDefender().install(machine)))
    report = GhostBuster(machine).inside_scan(resources=("registry",))
    gatekeeper_names = sorted(change.name for change in changes)
    ghostbuster_names = sorted(finding.entry.name for finding in
                               report.hidden_hooks())
    emit(f"- Gatekeeper saw the *visible* hook-planting: "
         f"{gatekeeper_names}")
    emit(f"- GhostBuster saw the *hidden* hooks: {ghostbuster_names}")
    emit("- union: full coverage of hiding and non-hiding malware\n")

    emit("## X1 — future work built: ADS, RIS, registry callbacks\n")
    from repro.core import (RisServer, executable_streams,
                            scan_alternate_streams)
    from repro.ghostware import AdsGhost, CmCallbackGhost
    machine = fresh("x1-ads")
    ghost = AdsGhost()
    ghost.install(machine)
    file_diff = GhostBuster(machine).inside_scan(resources=("files",))
    streams = executable_streams(scan_alternate_streams(machine))
    emit(f"- ADS: regular file diff "
         f"{'clean' if file_diff.is_clean else 'detected'}; ADS scanner "
         f"found {[entry.qualified_name for entry in streams]}")
    machine = fresh("x1-cm")
    CmCallbackGhost().install(machine)
    report = GhostBuster(machine).inside_scan(resources=("registry",))
    emit(f"- kernel registry callback: "
         f"{len(report.hidden_hooks())} hidden hook(s) exposed by the "
         f"raw hive parse")
    fleet = []
    for index in range(3):
        client = Machine(f"x1-client-{index}", disk_mb=256,
                         max_records=8192)
        client.boot()
        fleet.append(client)
    HackerDefender().install(fleet[1])
    server = RisServer()
    infected = [client.name for client in fleet
                if not server.network_boot_scan(client).is_clean]
    emit(f"- RIS sweep: {len(fleet)} clients network-booted, "
         f"infected = {infected}\n")


def main() -> None:
    emit("# EXPERIMENTS — paper vs. measured")
    emit()
    emit("Generated by `python scripts/generate_experiments.py` against "
         "the simulated substrate")
    emit("(seeded and deterministic; timing values are simulated-clock "
         "seconds from the")
    emit("calibrated cost model — see DESIGN.md §5).  Each section's "
         "benchmark in")
    emit("`benchmarks/` asserts these shapes on every run.")
    emit()
    e1()
    e2_e3()
    e4_e5()
    e6_e7()
    e8_to_a3()

    output_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    with open(output_path, "w") as handle:
        handle.write(OUT.getvalue())
    print(f"wrote {output_path} ({len(OUT.getvalue().splitlines())} lines)")


if __name__ == "__main__":
    main()
