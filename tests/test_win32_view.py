"""The Win32 view's caches: listings, paths, name verdicts, API dispatch.

Each cache must be invisible: a walk through warm caches returns what a
walk through cold ones returns, and every interception still fires on
every call.  The volume caches' oracle is a fresh mount of the same
disk, whose caches are empty by construction.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.scanners import files as file_scans
from repro.core.scanners.modules import high_level_module_scan
from repro.core.scanners.processes import high_level_process_scan
from repro.disk import Disk, DiskGeometry
from repro.errors import ApiError, NotADirectory, ReproError
from repro.faults import context as faults_context
from repro.faults.plan import SITE_WINAPI_ENUM, FaultPlan, FaultSpec
from repro.fleet import clone_fleet
from repro.ghostware import (AdsGhost, Aphex, Berbew, CmCallbackGhost,
                             FuRootkit, HackerDefender, Mersting,
                             NamingExploitGhost, ProBotSE,
                             RegistryNamingGhost, Urbin, Vanquish)
from repro.machine import Machine
from repro.ntfs import NtfsVolume
from repro.ntfs import naming
from repro.ntfs.constants import RESIDENT_DATA_LIMIT
from repro.telemetry import Telemetry
from repro.telemetry.audit import AuditLog
from repro.tools.askstrider import ask_strider
from repro.tools.tasklist import tasklist
from repro.winapi import kernel32
from repro.winapi.hooks import PatchKind
from repro.workloads import populate_machine
from repro.workloads.signatures import SignatureScanner

CORPUS = (HackerDefender, Urbin, Mersting, Vanquish, Aphex, ProBotSE,
          Berbew, NamingExploitGhost, RegistryNamingGhost, CmCallbackGhost,
          AdsGhost, FuRootkit)


# -- listing cache vs a fresh mount -------------------------------------------

# Win32-legal names, and names only the native API accepts.
NAMES = st.sampled_from(["a", "B", "c.txt", "Dir", "é.dat", "x" * 40,
                         "con", "NUL.txt", "dot.", "space ", "LPT1"])
SIZES = st.sampled_from([0, 7, RESIDENT_DATA_LIMIT + 1, 5000])


def _stats(volume):
    return list(volume.walk())


def _directories(volume):
    return ["\\"] + [stat.path for stat in _stats(volume)
                     if stat.is_directory]


def _pick(data, volume, files=True, directories=True):
    paths = [stat.path for stat in _stats(volume)
             if (directories if stat.is_directory else files)]
    return data.draw(st.sampled_from(paths)) if paths else None


def _child(data, volume):
    base = data.draw(st.sampled_from(_directories(volume))).rstrip("\\")
    name = data.draw(NAMES)
    return f"{base}\\{name}", not naming.is_valid_win32_component(name)


def op_create_file(volume, data):
    path, native = _child(data, volume)
    volume.create_file(path, b"f" * data.draw(SIZES), native=native)


def op_create_directory(volume, data):
    path, native = _child(data, volume)
    volume.create_directory(path, native=native)


def op_write(volume, data):
    path = _pick(data, volume, directories=False)
    if path is not None:
        volume.write_file(path, b"w" * data.draw(SIZES))


def op_append(volume, data):
    path = _pick(data, volume, directories=False)
    if path is not None:
        volume.append_file(path, b"+" * data.draw(SIZES))


def op_rename(volume, data):
    path = _pick(data, volume)
    if path is not None:
        target, native = _child(data, volume)
        volume.rename(path, target, native=native)


def op_delete(volume, data):
    path = _pick(data, volume)
    if path is None:
        return
    if volume.is_directory(path):
        volume.delete_directory(path, recursive=True)
    else:
        volume.delete_file(path)


def op_set_times(volume, data):
    path = _pick(data, volume)
    if path is not None:
        stamp = st.one_of(st.none(), st.integers(0, 2 ** 40))
        volume.set_times(path, data.draw(stamp), data.draw(stamp),
                         data.draw(stamp))


def op_stream(volume, data):
    path = _pick(data, volume, directories=False)
    if path is None:
        return
    stream = data.draw(st.sampled_from(["zone", "payload"]))
    if data.draw(st.booleans()):
        volume.write_stream(path, stream, b"s" * data.draw(SIZES))
    else:
        volume.delete_stream(path, stream)


OPS = (op_create_file, op_create_directory, op_write, op_append, op_rename,
       op_delete, op_set_times, op_stream)


def _spelling(data, path):
    return data.draw(st.sampled_from([path, path.upper(), path.lower()]))


def assert_matches_fresh_mount(volume, data, seen):
    oracle = NtfsVolume.mount(volume.disk)
    for directory in _directories(volume):
        for path in (_spelling(data, directory), directory):
            assert volume.list_directory(path) == \
                oracle.list_directory(path), path
    # Paths that were renamed or deleted away must stop resolving.
    seen.update(stat.path for stat in _stats(volume))
    for path in sorted(seen):
        path = _spelling(data, path)
        assert volume.exists(path) == oracle.exists(path), path
        if oracle.exists(path):
            assert volume.stat(path) == oracle.stat(path), path


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_listing_cache_matches_a_fresh_mount(data):
    volume = NtfsVolume.format(Disk(DiskGeometry.from_megabytes(8)),
                               max_records=256)
    seen = set()
    for __ in range(data.draw(st.integers(1, 20))):
        op = data.draw(st.sampled_from(OPS))
        try:
            op(volume, data)
        except ReproError:
            pass          # a collision or an illegal move changes nothing
        assert_matches_fresh_mount(volume, data, seen)


def test_each_listing_is_a_new_list(volume):
    volume.create_file("\\a", b"")
    first = volume.list_directory("\\")
    first.clear()
    assert [stat.name for stat in volume.list_directory("\\")] == ["a"]


def test_deleted_directory_listing_is_dropped(volume):
    volume.create_directory("\\a")
    assert volume.list_directory("\\a") == []
    volume.delete_directory("\\a")
    volume.create_file("\\a", b"")          # reuses the record number
    with pytest.raises(NotADirectory):
        volume.list_directory("\\a")


def test_listing_paths_follow_the_spelling_asked_for(volume):
    volume.create_directories("\\Dir\\sub")
    assert [s.path for s in volume.list_directory("\\Dir")] == ["\\Dir\\sub"]
    assert [s.path for s in volume.list_directory("\\DIR")] == ["\\DIR\\sub"]


# -- name check --------------------------------------------------------------

NAME_EXAMPLES = (
    [f"a{char}b" for char in sorted(naming.INVALID_WIN32_CHARS)]
    + ["a\\b", "", ".", "..", "...", "a.", "a ", " ", "a. ", ".a", " a"]
    + ["CON", "con", "Con.txt", "CON .txt", " con", "nul.", "AUX.tar.gz",
       "COM1", "com9.log", "LPT1 ", "lpt9.x.y", "COM10", "CONX", "PRNT"]
    + ["x" * length for length in (254, 255, 256)]
    + ["x" * 254 + ".", "x" * 255 + " ", "é" * 255, "é" * 256]
)


@pytest.mark.parametrize("name", NAME_EXAMPLES)
def test_name_check_agrees_with_violations(name):
    assert naming.is_valid_win32_component(name) == \
        (not naming.win32_component_violations(name))


NAME_ALPHABET = st.sampled_from(
    sorted(naming.INVALID_WIN32_CHARS) + list("\\ .abcCONULPTMX1239é"))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(NAME_ALPHABET, max_size=8),
                 st.builds(lambda n, tail: "x" * n + tail,
                           st.integers(250, 258),
                           st.sampled_from(["", ".", " ", "a", "?"]))))
@example("CON .txt")
def test_name_check_agrees_with_violations_generated(name):
    assert naming.is_valid_win32_component(name) == \
        (not naming.win32_component_violations(name))


# -- API dispatch --------------------------------------------------------------

def _first(process, directory="\\Windows"):
    return process.call("kernel32", "FindFirstFile", directory)


def test_iat_hook_after_first_call_takes_effect(probe):
    handle, entry = _first(probe)
    assert entry is not None
    probe.hook_iat("KERNEL32", "FindFirstFile",
                   lambda proc, directory: (0, "hooked"), owner="test")
    assert _first(probe) == (0, "hooked")
    probe.unhook_iat("kernel32", "FindFirstFile")
    assert _first(probe)[1] == entry


def test_inline_patch_and_restore_after_first_call(probe):
    __, entry = _first(probe)
    site = probe.code_site("kernel32", "FindFirstFile")
    site.patch_inline(lambda original: lambda proc, d: (0, "patched"),
                      PatchKind.INLINE_DETOUR, owner="test")
    telemetry = Telemetry(audit=AuditLog())
    with telemetry.activate():
        assert _first(probe) == (0, "patched")
        assert _first(probe) == (0, "patched")
    assert telemetry.audit.aggregate() == {
        ("inline", "kernel32!FindFirstFile", "test", "inline_detour"): 2}
    site.restore()
    assert _first(probe)[1] == entry


def test_map_module_after_first_call_takes_effect(probe):
    _first(probe)
    probe.map_module("kernel32", dict(
        kernel32.EXPORTS, FindFirstFile=lambda proc, d: (0, "remapped")))
    assert _first(probe) == (0, "remapped")


def test_unknown_function_still_raises(probe):
    with pytest.raises(ApiError):
        probe.call("kernel32", "NoSuchExport")
    with pytest.raises(ApiError):
        probe.call("kernel32", "NoSuchExport")


@pytest.fixture(scope="module")
def golden():
    machine = Machine("golden", disk_mb=512, max_records=8192)
    populate_machine(machine, file_count=120, registry_scale=200, seed=7)
    return machine


def _audited_walk(machine):
    telemetry = Telemetry(audit=AuditLog())
    with telemetry.activate():
        snapshot = file_scans.high_level_file_scan(machine)
    return snapshot.entries, telemetry.audit.aggregate()


@pytest.mark.parametrize("ghost_cls", CORPUS, ids=lambda cls: cls.__name__)
def test_cold_and_warm_walks_identical(golden, ghost_cls):
    machine = clone_fleet(golden, 1, max_records=8192)[0]
    ghost_cls().install(machine)
    assert machine.volume._listings == {}        # a fresh mount: cold
    cold = _audited_walk(machine)
    assert machine.volume._listings               # now warm
    assert _audited_walk(machine) == cold
    assert _audited_walk(machine) == cold


# -- enumeration handles -------------------------------------------------------

def test_interrupted_walks_close_their_handles():
    machine = Machine("leaky", disk_mb=256, max_records=8192)
    populate_machine(machine, file_count=100, registry_scale=200, seed=7)
    machine.boot()
    reference = file_scans.high_level_file_scan(machine).entries
    scanner = file_scans.ensure_scanner_process(machine)
    assert scanner._handles == {}
    plan = FaultPlan(7, (FaultSpec(SITE_WINAPI_ENUM, rate=0.05,
                                   kinds=("status_failure", "hang")),))
    with faults_context.scoped(plan, scope=machine.name,
                               clock=machine.clock):
        for __ in range(5):
            assert file_scans.high_level_file_scan(machine).entries == \
                reference
            assert scanner._handles == {}
    assert any(fault.kind == "status_failure"
               for fault in plan.fired(SITE_WINAPI_ENUM))


def test_snapshot_and_signature_scanners_close_their_handles(booted):
    high_level_process_scan(booted)
    high_level_module_scan(booted)
    assert file_scans.ensure_scanner_process(booted)._handles == {}
    tasklist(booted)
    assert booted.process_by_name("taskmgr.exe")._handles == {}
    ask_strider(booted)
    assert booted.process_by_name("askstrider.exe")._handles == {}
    scanner = SignatureScanner()
    scanner.on_demand_scan(booted)
    assert scanner.ensure_process(booted)._handles == {}
