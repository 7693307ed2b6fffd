r"""RIS network-boot automation (Section 5).

"In an enterprise environment, the CD boot can be replaced by a network
boot through the Remote Installation Service (RIS): upon a reboot, a
client machine contacts the RIS server to obtain a network boot loader,
which then performs the outside-the-box scan and diff."

:class:`RisServer` models the server side of one client's network boot:
PXE exchange, clean scan environment, outside-the-box diff, reboot — no
CDs and no user at the console, the deployment story that makes
clean-boot scanning viable at corporate scale.  Sweeping a whole fleet
(delta skips, dispatch order, quarantine, baselines) is the job of
:class:`repro.fleet.FleetCoordinator`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.diff import DetectionReport
from repro.core.ghostbuster import GhostBuster
from repro.core.noise import NoiseFilter
from repro.core.scanners import files as file_scans
from repro.core.scanners import registry as registry_scans
from repro.core.winpe import WinPEEnvironment
from repro.errors import MachineUnavailable
from repro.faults import context as faults_context
from repro.faults.plan import SITE_RIS_TRANSPORT, FaultPlan
from repro.machine import Machine
from repro.telemetry import Telemetry

NETWORK_BOOT_SECONDS = 75.0   # PXE + loader download: faster than a CD


class RisServer:
    """The Remote Installation Service scan orchestrator.

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`) makes the
    network boot run under chaos: the client's scan executes inside a
    fault scope keyed by machine name, with ``ris.transport`` draws
    around the PXE exchange.
    """

    def __init__(self, noise_filter: Optional[NoiseFilter] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.noise_filter = noise_filter or NoiseFilter()
        self.fault_plan = fault_plan

    def network_boot_scan(self, machine: Machine,
                          resources=("files", "registry"),
                          background_gap: float = 0.0,
                          reboot_after: bool = True,
                          telemetry: Optional[Telemetry] = None
                          ) -> DetectionReport:
        """One client's outside-the-box scan via PXE network boot.

        ``telemetry`` (optional) activates tracing/auditing for this one
        client: the scan runs under a ``ris.netboot_scan`` root span and
        every interposition the ghostware fires lands in its audit log.
        """
        telemetry = telemetry or Telemetry.disabled()
        with telemetry.activate():
            with telemetry.tracer.span("ris.netboot_scan",
                                       clock=machine.clock,
                                       machine=machine.name):
                if self.fault_plan is None:
                    return self._netboot_body(machine, set(resources),
                                              background_gap, reboot_after)
                self.fault_plan.attach(machine)
                try:
                    with faults_context.scoped(self.fault_plan,
                                               scope=machine.name,
                                               clock=machine.clock):
                        return self._netboot_body(machine, set(resources),
                                                  background_gap,
                                                  reboot_after)
                finally:
                    self.fault_plan.detach(machine)

    @staticmethod
    def _transport(machine: Machine) -> None:
        """One RIS transport exchange; a fatal fault powers the client off.

        A ``machine_death`` draw means the client dropped off the network
        mid-scan: we mark it powered down (so whoever retries has to boot
        it again) and let :class:`~repro.errors.MachineUnavailable`
        propagate to the caller.
        """
        try:
            faults_context.maybe_inject(SITE_RIS_TRANSPORT,
                                        clock=machine.clock,
                                        scope=machine.name)
        except MachineUnavailable:
            if machine.powered_on:
                machine.shutdown()
            raise

    def _netboot_body(self, machine: Machine, wanted,
                      background_gap: float,
                      reboot_after: bool) -> DetectionReport:
        report = DetectionReport(machine.name, mode="ris-netboot")
        ghostbuster = GhostBuster(machine,
                                  noise_filter=self.noise_filter)

        # The client contacts the RIS server before anything else.
        self._transport(machine)
        lies = {}
        if "files" in wanted:
            lies["files"] = file_scans.high_level_file_scan(machine)
        if "registry" in wanted:
            lies["registry"] = registry_scans.high_level_asep_scan(machine)

        if background_gap > 0:
            machine.run_background(background_gap)
        machine.shutdown()

        # PXE boot into the RIS-served scan environment — the transfer
        # itself is a transport exchange that can drop or time out.
        self._transport(machine)
        boot_seconds = NETWORK_BOOT_SECONDS / max(machine.perf.cpu_scale,
                                                  0.8)
        machine.clock.advance(boot_seconds)
        report.durations["network-boot"] = boot_seconds

        environment = WinPEEnvironment(machine)
        environment.booted = True   # RIS delivered the clean environment
        if "files" in wanted:
            truth = environment.file_scan(win32_naming=True)
            ghostbuster._diff_into(report, "files", lies["files"], truth,
                                   filter_noise=True)
        if "registry" in wanted:
            truth = environment.asep_scan()
            ghostbuster._diff_into(report, "registry", lies["registry"],
                                   truth, filter_noise=True)

        if reboot_after:
            machine.boot()
        return report
