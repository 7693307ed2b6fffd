"""Kernel32 — the Win32 base API layer.

Every export forwards to the process's NtDll CodeSites via
``process.call``, so both layers stay independently hookable (Aphex
patches FindFirst(Next)File here; Hacker Defender patches one level down
in NtDll).

This layer also enforces Win32 naming semantics: names that NTFS accepts
but Win32 refuses (trailing dots/spaces, reserved device names,
over-MAX_PATH full paths) are silently dropped from enumeration and
rejected on open — which is what makes naming-exploit files invisible to
every Win32-based tool while the raw MFT still shows them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidWin32Name
from repro.ntfs import naming
from repro.winapi.hooks import ApiImpl


#: Bound on a process's memo of Win32 name verdicts; a full memo is
#: dropped whole (a machine's namespace is a few thousand names).
WIN32_NAME_MEMO = 8192


def _win32_visible(process, entry) -> bool:
    verdicts = process.win32_names
    legal = verdicts.get(entry.name)
    if legal is None:
        if len(verdicts) >= WIN32_NAME_MEMO:
            verdicts.clear()
        legal = verdicts[entry.name] = \
            naming.is_valid_win32_component(entry.name)
    return legal and len(entry.path) <= naming.MAX_PATH


def find_first_file(process, directory: str) -> Tuple[int, Optional[object]]:
    """Begin a directory enumeration; returns (handle, first entry)."""
    entries = process.call("ntdll", "NtQueryDirectoryFile", directory)
    visible = [entry for entry in entries if _win32_visible(process, entry)]
    handle = process.open_handle(visible)
    return handle, process.advance_handle(handle)


def find_next_file(process, handle: int):
    """Next entry for a FindFirstFile handle, or None."""
    return process.advance_handle(handle)


def find_close(process, handle: int) -> None:
    """Release a FindFirstFile handle."""
    process.close_handle(handle)


def _validate_win32_path(path: str) -> None:
    if len(path) > naming.MAX_PATH:
        raise InvalidWin32Name(f"path exceeds MAX_PATH: {path!r}")
    for component in naming.split_path(path):
        naming.validate_win32_component(component)


def create_file(process, path: str, content: bytes = b"",
                dos_flags: int = 0):
    """Win32 CreateFile: name validation, then the Native call."""
    _validate_win32_path(path)
    return process.call("ntdll", "NtCreateFile", path, content, dos_flags)


def read_file(process, path: str) -> bytes:
    """Win32 ReadFile (whole-content convenience form)."""
    _validate_win32_path(path)
    return process.call("ntdll", "NtReadFile", path)


def write_file(process, path: str, content: bytes) -> None:
    """Win32 WriteFile (create-or-replace convenience form)."""
    _validate_win32_path(path)
    return process.call("ntdll", "NtWriteFile", path, content)


def delete_file(process, path: str) -> None:
    """Win32 DeleteFile."""
    _validate_win32_path(path)
    return process.call("ntdll", "NtDeleteFile", path)


def create_toolhelp32_snapshot(process) -> int:
    """Snapshot the process list (Task Manager / tlist entry point)."""
    infos = process.call("ntdll", "NtQuerySystemInformation")
    return process.open_handle(infos)


def process32_first(process, snapshot: int):
    """First row of a Toolhelp process snapshot."""
    return process.advance_handle(snapshot)


def process32_next(process, snapshot: int):
    """Next row of a Toolhelp process snapshot."""
    return process.advance_handle(snapshot)


def module32_snapshot(process, pid: int) -> int:
    """Snapshot the module list of one process."""
    paths = process.call("ntdll", "NtQueryInformationProcess", pid)
    return process.open_handle(paths)


def module32_first(process, snapshot: int):
    """First module path of a module snapshot."""
    return process.advance_handle(snapshot)


def module32_next(process, snapshot: int):
    """Next module path of a module snapshot."""
    return process.advance_handle(snapshot)


def close_handle(process, handle: int) -> None:
    """Release a Toolhelp or module snapshot handle."""
    process.close_handle(handle)


EXPORTS: Dict[str, ApiImpl] = {
    "FindFirstFile": find_first_file,
    "FindNextFile": find_next_file,
    "FindClose": find_close,
    "CreateFile": create_file,
    "ReadFile": read_file,
    "WriteFile": write_file,
    "DeleteFile": delete_file,
    "CreateToolhelp32Snapshot": create_toolhelp32_snapshot,
    "Process32First": process32_first,
    "Process32Next": process32_next,
    "Module32Snapshot": module32_snapshot,
    "Module32First": module32_first,
    "Module32Next": module32_next,
    "CloseHandle": close_handle,
}
