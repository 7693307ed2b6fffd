"""The benchmark's three seeded, single-process, closed-loop workloads.

Each workload drives a public entry point of :mod:`repro` with inputs
generated from its seed, one client at a time: the next scan or epoch
starts only when the previous one returned, and the operator's next
console query only when the previous answer arrived.

* ``incident-cold`` — the paper's incident-response use.  Distinct
  machines are built, scanned once cold through
  ``fleet.scanwork.perform_machine_scan`` with WinPE escalation, and
  dropped.  Cold MFT/hive parsing, the Win32 views, the diff and the
  outside confirmation dominate; the control plane is absent.
* ``fleet-steady`` — the steady-state service.  About 1.6% of the fleet
  changes per epoch, so ``FleetCoordinator.run_epoch`` is mostly the
  skip path and control-plane bookkeeping (queue, baselines, journal,
  console index, scheduler, aggregator), and parsing does little.
* ``wave-churn`` — warm, incremental scanning under an adversary.  Every
  machine changes every epoch and all ten strains arrive at stealth
  level ``high``; the defended settings scan each machine twice.  The
  delta parse paths and escalation dominate; nothing skips.

A sweep unit is one epoch (fleet workloads) or one machine's scan
(``incident-cold``, where each machine is its own one-machine sweep);
every timing sample is a unit's wall time divided by the machines in it.
"""

from __future__ import annotations

import contextlib
import gc
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.console.index import JournalIndex
from repro.core.noise import NoiseFilter
from repro.core.reporting import report_to_dict
from repro.errors import ReproError
from repro.fleet import EscalationPolicy, FleetCoordinator
from repro.fleet import scanwork
from repro.fleet.aggregator import MachineVerdict
from repro.ghostware import AdsGhost, FuRootkit
from repro.registry.hive_parser import clear_hive_cache
from repro.workloads import fleetgen
from repro.workloads.fleetgen import (STRAINS, FleetProfile, FleetWorkload,
                                      InfectionWave)
from repro.workloads.traces import verdict_key

# The scanned corpus of incident-cold: the ten fleet strains plus the
# two that need hand planting (bench_fleet_escalation does the same).
CORPUS = tuple(sorted(STRAINS)) + ("adsghost", "fu")

# Far beyond any simulated scan (the single-process trace runner's
# choice): scans charge hundreds of simulated seconds to the fleet
# clock, so the 300 s default would expire leases mid-scan.
LEASE_SECONDS = 1e6


@dataclass
class Tally:
    """What one measured pass produced."""

    unit_ms: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    query_us: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    attempted: int = 0
    errors: int = 0
    detected: int = 0        # infected and flagged
    missed: int = 0          # infected, not flagged
    false_positives: int = 0
    confirmed: int = 0       # infected and confirmed outside
    sim_seconds: float = 0.0
    keys: List[Tuple] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    def count(self, unit: int, verdict, infected: bool) -> None:
        """Score one verdict against ground truth."""
        self.attempted += 1
        self.sim_seconds += verdict.scan_seconds
        self.keys.append((unit, verdict.machine, verdict_key(verdict)))
        if verdict.verdict == "error":
            self.errors += 1
            self.violations.append(
                f"error verdict for {verdict.machine}: {verdict.error}")
            return
        flagged = verdict.verdict == "infected"
        if infected and flagged:
            self.detected += 1
            self.confirmed += bool(verdict.confirmed)
        elif infected:
            self.missed += 1
        elif flagged:
            self.false_positives += 1

    @property
    def failed(self) -> int:
        return self.errors + self.missed + self.false_positives


def _spread(bounds: Tuple[int, int], count: int) -> List[int]:
    """``count`` values evenly spaced over ``bounds``, ascending."""
    low, high = bounds
    return [low + round(index * (high - low) / max(1, count - 1))
            for index in range(count)]


def _timed(action: Callable) -> Tuple[object, float]:
    start = time.perf_counter()
    result = action()
    return result, time.perf_counter() - start


class Workload:
    """Shared shape: ``setup()`` builds inputs, ``run(units)`` measures.

    ``recording`` is the tracer's recording context (a no-op when
    untraced); a workload enters it around exactly the calls it times.
    """

    name = ""
    #: Sweep units measured per second of ``--seconds`` (fixed, so both
    #: commits of a comparison run identical work).
    units_per_second = 1.0
    min_units = 1
    setup_repeats = 3

    def __init__(self, seed: int, work_dir: str,
                 recording: Optional[Callable] = None,
                 **sizes) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.recording = recording or contextlib.nullcontext
        for key, value in sizes.items():
            if not hasattr(self, key):
                raise TypeError(f"unknown size {key!r}")
            setattr(self, key, value)

    def units(self, seconds: float) -> int:
        return max(self.min_units, round(seconds * self.units_per_second))

    def setup(self) -> None:
        """Build the inputs up to the first timed call."""

    def run(self, units: int) -> Tally:
        raise NotImplementedError

    def close(self) -> None:
        """Drop the inputs and anything written for them."""


class IncidentCold(Workload):
    """Distinct machines, each built, scanned cold once, and dropped."""

    name = "incident-cold"
    units_per_second = 10.0     # machines per second of --seconds
    min_units = 200             # p95 with 10 samples beyond it
    setup_repeats = 1           # set-up is timed per machine instead
    block = 100                 # one of each corpus strain per block
    # The profile's ranges; each block spans every one evenly.
    ranges = {"file_count": (200, 1200), "registry_kb": (200, 600),
              "virtual_files": (20_000, 150_000),
              "cpu_mhz": (550, 2200)}
    lookups = 5                 # operator report lookups per verdict
    resources = ("files", "registry", "processes")

    def setup(self) -> None:
        clear_hive_cache()    # a fresh process starts with a cold memo
        self.profile = FleetProfile(name="ic", size=0, seed=self.seed,
                                    **self.ranges)
        self.policy = EscalationPolicy("winpe")
        self.noise_filter = NoiseFilter()
        # One warm-up machine pays the process's lazy set-up; it is
        # never sampled.
        machine = fleetgen.build_profiled_machine(self.profile, "ic-warmup")
        scanwork.perform_machine_scan(machine, 1, self.policy,
                                      self.noise_filter, self.resources,
                                      None)

    def plan(self, units: int) -> List[Tuple[str, Optional[str], Dict]]:
        """``(name, strain or None, hardware)`` in scan order, in whole
        blocks.

        Every block plants each corpus strain on one machine (12% of
        the block), so the tail lands among escalated machines and the
        ratios do not depend on where a run stops.
        """
        blocks = max(1, -(-units // self.block))
        order: List[Tuple[str, Optional[str], Dict]] = []
        for block in range(blocks):
            rng = random.Random(f"{self.seed}:incident:{block}")
            names = [f"ic-{block:03d}-{index:03d}"
                     for index in range(self.block)]
            strains = list(CORPUS[:self.block])
            rng.shuffle(strains)
            sick = rng.sample(names, len(strains))
            well = [name for name in names if name not in set(sick)]
            infected = dict(zip(sick, strains))
            # Hardware is stratified, not drawn: each block spans every
            # range evenly, the infected machines take evenly spaced
            # ranks of it, and the seed only permutes who gets what, so
            # seeds differ in content, not in total work.
            step = self.block / len(sick)
            ranks = {int(step * (index + 0.5)) for index in range(len(sick))}
            hardware: Dict[str, Dict] = {name: {} for name in names}
            for key, bounds in self.ranges.items():
                values = _spread(bounds, self.block)
                for group, chosen in ((sick, True), (well, False)):
                    share = [value for rank, value in enumerate(values)
                             if (rank in ranks) is chosen]
                    rng.shuffle(share)
                    for name, value in zip(group, share):
                        hardware[name][key] = value
            order.extend((name, infected.get(name), hardware[name])
                         for name in names)
        return order

    def _build(self, name: str, strain: Optional[str], hardware: Dict):
        profile = replace(self.profile, **{
            key: (value, value) for key, value in hardware.items()})
        machine = fleetgen.build_profiled_machine(profile, name)
        if strain == "adsghost":
            AdsGhost().install(machine)
        elif strain == "fu":
            ghost = FuRootkit()
            ghost.install(machine)
            victim = machine.start_process("\\Windows\\explorer.exe",
                                           name="dkom_victim.exe")
            ghost.hide_process(machine, victim.pid)
        elif strain is not None:
            STRAINS[strain]().install(machine)
        return machine

    def run(self, units: int) -> Tally:
        tally = Tally()
        lookup_rng = random.Random(f"{self.seed}:incident:lookups")
        for name, strain, hardware in self.plan(units):
            machine, built_s = _timed(lambda: self._build(name, strain,
                                                          hardware))
            tally.setup_s.append(built_s)
            with self.recording():
                start = time.perf_counter()
                try:
                    outcome = scanwork.perform_machine_scan(
                        machine, 1, self.policy, self.noise_filter,
                        self.resources, None)
                except ReproError as exc:
                    outcome = None
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
            tally.unit_ms.append(elapsed * 1000.0)
            tally.wall_s += elapsed
            if outcome is None:
                tally.count(len(tally.unit_ms), MachineVerdict(
                    machine=name, epoch=1, verdict="error", error=error),
                    strain is not None)
                continue
            tally.count(len(tally.unit_ms),
                        outcome.verdict(name, 1, baseline_id=None),
                        strain is not None)
            self._lookups(outcome.report, lookup_rng, tally)
            del machine, outcome
            gc.collect()      # drop the machine now, not mid-scan later
        return tally

    def _lookups(self, report, rng: random.Random, tally: Tally) -> None:
        """The responder reads the verdict: full record or summary."""
        for __ in range(self.lookups):
            if rng.random() < 0.5:
                answer, took = _timed(lambda: report_to_dict(report))
                ok = len(answer["findings"]) == len(report.findings)
            else:
                answer, took = _timed(report.summary)
                ok = bool(answer)
            tally.query_us.append(took * 1e6)
            if not ok:
                tally.violations.append(
                    f"report lookup disagrees for {report.machine_name}")


class FleetBench(Workload):
    """A ``FleetWorkload`` swept epoch by epoch through the coordinator."""

    size = 0
    queries = 0              # operator console queries per epoch
    # Timed epochs per journal.  Every epoch opens by replaying the
    # whole epochs journal, so epoch cost grows with its length; a
    # workload restarts the journal every this many epochs to measure
    # a repeatable stretch of that growth, not wherever a run stops.
    segment_epochs = 1 << 30
    # A homogeneous fleet around the FleetProfile defaults' midpoints:
    # machine-size variety is incident-cold's job, and a wide spread
    # over a few dozen machines makes seeds differ in total work.
    ranges = {"file_count": (90, 110), "registry_kb": (350, 450),
              "virtual_files": (75_000, 95_000), "cpu_mhz": (1300, 1450)}
    coordinator_kwargs: Dict = {}

    def profile(self) -> FleetProfile:
        raise NotImplementedError

    def churn(self, epoch: int) -> List[Dict]:
        """Extra seeded churn ops applied before ``epoch``."""
        return []

    def setup(self) -> None:
        clear_hive_cache()    # a fresh process starts with a cold memo
        self.workload = FleetWorkload(self.profile())
        self.workload.apply_epoch(1)
        self.epoch = 1
        self.coordinator = None
        self.violations: List[str] = []
        self._start_journal()

    def _start_journal(self) -> None:
        """A fresh fleet directory whose first, cold epoch seeds it."""
        if self.coordinator is not None:
            self._drop_journal()
        self.fleet_dir = tempfile.mkdtemp(prefix="fleet-", dir=self.work_dir)
        self.coordinator = FleetCoordinator(
            self.fleet_dir, self.workload.machines.values(), workers=2,
            policy=EscalationPolicy("winpe"), lease_seconds=LEASE_SECONDS,
            console_index=True, compact_every=0, **self.coordinator_kwargs)
        self.violations.extend(self._check_epoch(
            self.coordinator.run_epoch()))

    def _drop_journal(self) -> None:
        if self.coordinator.index is not None:
            self.coordinator.index.close()
        self.coordinator = None
        shutil.rmtree(self.fleet_dir, ignore_errors=True)

    def close(self) -> None:
        self._drop_journal()
        self.workload = None
        gc.collect()          # free this fleet before the next is built

    def _check_epoch(self, aggregate) -> List[str]:
        summary = aggregate.summary
        if summary.scanned + summary.skipped != self.size:
            return [f"epoch {summary.epoch}: scanned {summary.scanned} + "
                    f"skipped {summary.skipped} != fleet {self.size}"]
        return []

    def run(self, units: int) -> Tally:
        tally = Tally(violations=self.violations)
        query_rng = random.Random(f"{self.seed}:{self.name}:queries")
        for index in range(units):
            if index and index % self.segment_epochs == 0:
                self._start_journal()     # untimed, like set-up
            self.epoch += 1
            epoch = self.epoch
            with self.recording():
                self.workload.apply_epoch(epoch)
                fleetgen.apply_ops(self.workload.machines, self.churn(epoch))
                start = time.perf_counter()
                aggregate = self.coordinator.run_epoch()
                elapsed = time.perf_counter() - start
            tally.unit_ms.append(elapsed * 1000.0 / self.size)
            tally.wall_s += elapsed
            tally.violations.extend(self._check_epoch(aggregate))
            infected = self.workload.infected_machines(epoch)
            for verdict in aggregate.verdicts:
                tally.count(epoch, verdict, verdict.machine in infected)
            self._queries(aggregate, query_rng, tally)
        return tally

    def _queries(self, aggregate, rng: random.Random, tally: Tally) -> None:
        """The operator's seeded console mix against the live index."""
        index: JournalIndex = self.coordinator.index
        epoch = aggregate.summary.epoch
        verdicts = {v.machine: v.verdict for v in aggregate.verdicts}
        flagged = sum(1 for v in verdicts.values() if v == "infected")
        names = sorted(verdicts)
        for __ in range(self.queries):
            roll = rng.random()
            if roll < 0.5:
                name = rng.choice(names)

                def lookup():
                    history = index.machine_history(name)
                    return index.machine_record(history[-1])

                record, took = _timed(lookup)
                ok = (record is not None and record["epoch"] == epoch
                      and record["verdict"] == verdicts[name])
            elif roll < 0.75:
                rows, took = _timed(lambda: index.query(
                    verdict="infected", epoch_min=epoch))
                ok = len(rows) == flagged
            else:
                summaries, took = _timed(index.epoch_summaries)
                ok = (summaries[-1]["epoch"] == epoch
                      and summaries[-1]["machines"] == self.size)
            tally.query_us.append(took * 1e6)
            if not ok:
                tally.violations.append(
                    f"epoch {epoch}: console answer disagrees with the "
                    f"epoch's verdicts")


class FleetSteady(FleetBench):
    """Low churn, a slow infection, and a busy operator."""

    name = "fleet-steady"
    units_per_second = 12.8     # epochs per second of --seconds
    min_units = 20
    size = 64
    queries = 8
    segment_epochs = 32
    # Two strains arrive in the first timed epoch and never spread:
    # HackerDefender, which the default files+registry scan detects and
    # WinPE confirms, and Berbew, a process hider that scan cannot see
    # (a fleet-path detection gap).  A single detected strain would pin
    # failed_share at 0, a single missed one leave precision undefined.
    strains = ("hackerdefender", "berbew")

    def profile(self) -> FleetProfile:
        # FleetProfile.churn_files cannot express a low rate (any
        # nonzero range touches most machines), so churn is generated
        # here instead.
        return FleetProfile(
            name="fs", size=self.size, seed=self.seed, **self.ranges,
            churn_files=(0, 0), churn_registry=(0, 0),
            waves=tuple(InfectionWave(strain, onset_epoch=2, initial=1)
                        for strain in self.strains))

    def churn(self, epoch: int) -> List[Dict]:
        """One machine (1.6% of 64) gains a file; some also a value.

        Machines take turns in a seeded order, so every machine is
        rescanned equally often over a run.
        """
        cycle, turn = divmod(epoch - 2, self.size)   # first timed: 2
        order = sorted(self.workload.machines)
        random.Random(f"{self.seed}:steady-churn:{cycle}").shuffle(order)
        rng = random.Random(f"{self.seed}:steady-churn:{cycle}:{turn}")
        machine = order[turn]
        ops = [{"machine": machine, "op": "create",
                "path": f"\\Temp\\work\\steady-e{epoch}.tmp",
                "size": rng.choice((64, 512, 4096))}]
        if rng.random() < 0.25:
            ops.append({"machine": machine, "op": "regset",
                        "key": "HKLM\\SOFTWARE\\Churn\\Steady",
                        "name": f"e{epoch}", "data": f"{rng.random():.6f}"})
        return ops


class WaveChurn(FleetBench):
    """Every machine churns every epoch while ten strains arrive."""

    name = "wave-churn"
    units_per_second = 2.0      # epochs per second of --seconds
    min_units = 20
    size = 40
    queries = 25
    coordinator_kwargs = {"stabilize_rounds": 2, "flag_unstable": True}

    def profile(self) -> FleetProfile:
        # Default per-machine churn; one strain arrives per epoch.
        return FleetProfile(
            name="wc", size=self.size, seed=self.seed, **self.ranges,
            waves=tuple(InfectionWave(strain, onset_epoch=1 + index,
                                      initial=1, level="high")
                        for index, strain in enumerate(sorted(STRAINS))))


WORKLOADS = {cls.name: cls for cls in (IncidentCold, FleetSteady, WaveChurn)}
