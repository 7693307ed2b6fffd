r"""A signature-based on-demand scanner (the paper's eTrust stand-in).

Section 5's demonstration: an AV scanner with a perfectly good Hacker
Defender signature finds nothing on an infected machine, because its file
enumeration runs through the hooked API and never *sees* the malware
files.  Injecting the GhostBuster DLL into the scanner process
(``InocIT.exe``) restores detection — and creates the dilemma: hide and
be caught by the diff, or don't hide and be caught by the signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.machine import Machine
from repro.usermode.process import Process

# signature bytes → malware family (matches our ghostware file contents)
KNOWN_SIGNATURES: Dict[bytes, str] = {
    b"MZhxdef": "Win32/HackerDefender",
    b"MZhxdefdrv": "Win32/HackerDefender.sys",
    b"MZvanquish": "Win32/Vanquish",
    b"MZaphex": "Win32/AFXRootkit",
    b"MZberbew": "Backdoor/Berbew",
    b"MZprobot": "Spyware/ProBot",
}


@dataclass(frozen=True)
class SignatureHit:
    """One signature match."""

    path: str
    malware: str


class SignatureScanner:
    """On-demand scan: enumerate via the API, match content signatures."""

    process_name = "InocIT.exe"

    def __init__(self, signatures: Optional[Dict[bytes, str]] = None):
        self.signatures = dict(signatures or KNOWN_SIGNATURES)

    def ensure_process(self, machine: Machine) -> Process:
        existing = machine.process_by_name(self.process_name)
        if existing is not None:
            return existing
        return machine.start_process("\\Windows\\explorer.exe",
                                     name=self.process_name)

    def on_demand_scan(self, machine: Machine,
                       process: Optional[Process] = None,
                       root: str = "\\") -> List[SignatureHit]:
        """Walk the namespace as the scanner process; match contents.

        Both the enumeration *and* the content reads go through the
        scanner process's (possibly hooked) API — exactly why a hidden
        file is unreachable no matter how good the signature is.
        """
        scanner = process or self.ensure_process(machine)
        hits: List[SignatureHit] = []

        def walk(directory: str) -> None:
            handle, stat = scanner.call("kernel32", "FindFirstFile",
                                        directory)
            try:
                while stat is not None:
                    if stat.is_directory:
                        walk(stat.path)
                    else:
                        self._check(scanner, stat.path, hits)
                    stat = scanner.call("kernel32", "FindNextFile", handle)
            finally:
                scanner.call("kernel32", "FindClose", handle)

        walk(root)
        return hits

    def _check(self, scanner: Process, path: str,
               hits: List[SignatureHit]) -> None:
        try:
            content = scanner.call("kernel32", "ReadFile", path)
        except ReproError:
            return
        for signature, malware in self.signatures.items():
            if content.startswith(signature):
                hits.append(SignatureHit(path, malware))
                return

    def scan_hidden_candidates(self, machine: Machine,
                               paths: List[str]) -> List[SignatureHit]:
        """Match signatures against specific files read from the truth.

        Used after a GhostBuster diff: the hidden paths come from the raw
        view, so the contents are read below the API (the combination the
        injected-DLL demo builds).
        """
        hits: List[SignatureHit] = []
        for path in paths:
            try:
                content = machine.volume.read_file(path)
            except ReproError:
                continue
            for signature, malware in self.signatures.items():
                if content.startswith(signature):
                    hits.append(SignatureHit(path, malware))
                    break
        return hits
