"""GhostBuster — the paper's contribution.

Cross-view diff detection of resource-hiding ghostware:

* :class:`GhostBuster` — the tool facade (inside- and outside-the-box
  scans over files, ASEP hooks, processes, and modules);
* :mod:`~repro.core.snapshot` / :mod:`~repro.core.diff` — typed scan
  snapshots and the view-difference engine;
* :class:`WinPEEnvironment` — the clean-boot outside-the-box scanner;
* :mod:`~repro.core.removal` — the detect → delete hooks → reboot →
  delete files workflow of Section 6;
* :mod:`~repro.core.injection_ext` — the every-process-is-a-GhostBuster
  DLL extension of Section 5;
* :mod:`~repro.core.vmscan` — VM-based outside-the-box automation;
* :mod:`~repro.core.crosstime` — a Tripwire-style cross-time baseline for
  the false-positive comparison;
* :mod:`~repro.core.anomaly` — mass-hiding anomaly detection.
"""

from repro.core.snapshot import (FileEntry, ModuleEntry, ProcessEntry,
                                 RegistryHookEntry, ResourceType,
                                 ScanSnapshot)
from repro.core.diff import Finding, DetectionReport, cross_view_diff
from repro.core.ghostbuster import GhostBuster
from repro.core.winpe import WinPEEnvironment
from repro.core.noise import NoiseFilter, classify_noise
from repro.core.crosstime import CrossTimeDiffer
from repro.core.removal import RemovalLog, disinfect, offline_disinfect
from repro.core.injection_ext import injected_scan, injected_process_names
from repro.core.vmscan import vm_outside_scan, automated_winpe_vm_scan
from repro.core.anomaly import MassHidingAlert, check_mass_hiding
from repro.core.ads import AdsEntry, executable_streams, scan_alternate_streams
from repro.core.risboot import RisServer
from repro.core.baseline import BaselineStore, MachineBaseline
from repro.core.gatekeeper import AsepChange, GatekeeperMonitor, HookChange
from repro.core.reporting import (report_to_dict, report_to_json,
                                  report_from_dict, save_report_to_volume,
                                  load_report_dict)

__all__ = [
    "FileEntry", "ModuleEntry", "ProcessEntry", "RegistryHookEntry",
    "ResourceType", "ScanSnapshot",
    "Finding", "DetectionReport", "cross_view_diff",
    "GhostBuster", "WinPEEnvironment",
    "NoiseFilter", "classify_noise",
    "CrossTimeDiffer",
    "RemovalLog", "disinfect", "offline_disinfect",
    "injected_scan", "injected_process_names",
    "vm_outside_scan", "automated_winpe_vm_scan",
    "MassHidingAlert", "check_mass_hiding",
    "AdsEntry", "scan_alternate_streams", "executable_streams",
    "RisServer",
    "BaselineStore", "MachineBaseline",
    "GatekeeperMonitor", "AsepChange", "HookChange",
    "report_to_dict", "report_to_json", "report_from_dict",
    "save_report_to_volume", "load_report_dict",
]
