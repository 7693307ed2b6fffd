"""The one torn-tail-tolerant JSONL journal reader.

Every durable store in the system — the epochs journal, the work-queue
WAL, the baseline store, the telemetry exports — shares the same
append-only JSONL discipline: one JSON object per line, appended whole,
where a writer killed mid-write loses at most the final line.  Before
this module each reader re-implemented the same defensive loop
(``BaselineStore._load``, ``WorkQueue._replay``, ``load_history``,
``scripts/scan_report.py``, …); now they all call :func:`iter_journal`.

Two properties matter beyond "skip bad lines":

* **byte offsets** — each yielded :class:`JournalLine` carries the byte
  range ``[start, end)`` of its source line, which is what the console's
  sidecar indexes (:mod:`repro.console.index`) persist so point lookups
  can ``seek`` straight to a record without replaying the file;
* **completeness** — a final chunk with no trailing newline is the torn
  tail of a live (or killed) writer.  ``complete_only=True`` refuses to
  yield it *or* advance past it, so an incremental indexer resumes at
  exactly that offset and picks the record up once the newline lands.

A newline-*terminated* line that fails to parse (the classic torn-then-
overwritten tail, where a dead writer's partial line and the next
append fused into one corrupt line) is skipped with a warning and
counted, exactly like every reader always did.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class JournalLine:
    """One parsed journal record plus its provenance in the file."""

    record: dict
    line_no: int                    # 1-based physical line number
    start: int                      # byte offset of the line's first byte
    end: int                        # byte offset just past the newline


def iter_journal(path, start: int = 0, *,
                 complete_only: bool = False,
                 on_torn: Optional[Callable[[int, str], None]] = None
                 ) -> Iterator[JournalLine]:
    """Yield :class:`JournalLine` for every intact record in ``path``.

    ``start`` is the byte offset to resume from (0 = whole file) —
    callers that remember the last ``end`` they consumed get O(changes)
    incremental reads.  ``complete_only`` withholds a final line that
    has no trailing newline (a possibly-in-flight append).  ``on_torn``
    is called with ``(line_no, reason)`` for every skipped line; the
    default logs a warning.  A missing file yields nothing.
    """
    if not os.path.exists(path):
        return
    with open(path, "rb") as handle:
        if start:
            handle.seek(start)
        offset = start
        # Line numbers count from ``start`` — an incremental pass never
        # re-reads the prefix just to report absolute numbers.  Full
        # reads (start=0) see true physical line numbers.
        line_no = 0
        for raw in handle:
            line_no += 1
            end = offset + len(raw)
            terminated = raw.endswith(b"\n")
            if not terminated and complete_only:
                # The torn tail of a live writer: neither yield it nor
                # advance — the next incremental pass retries from here.
                return
            stripped = raw.strip()
            if stripped:
                try:
                    record = json.loads(stripped.decode("utf-8"))
                    if not isinstance(record, dict):
                        raise ValueError("journal records are objects, "
                                         f"got {type(record).__name__}")
                except (ValueError, UnicodeDecodeError) as exc:
                    _note_torn(path, line_no, str(exc), on_torn)
                else:
                    yield JournalLine(record=record, line_no=line_no,
                                      start=offset, end=end)
            offset = end


def _note_torn(path, line_no: int, reason: str,
               on_torn: Optional[Callable[[int, str], None]]) -> None:
    if on_torn is not None:
        on_torn(line_no, reason)
    else:
        logger.warning("skipping torn journal line %d in %s: %s",
                       line_no, path, reason)


def read_journal(path, *, on_torn=None) -> List[dict]:
    """Every intact record in ``path``, in file order."""
    return [line.record for line in iter_journal(path, on_torn=on_torn)]


def read_grouped(path, *, key: str = "type", on_torn=None
                 ) -> Dict[str, List[dict]]:
    """Intact records grouped by ``record[key]`` (telemetry exports)."""
    grouped: Dict[str, List[dict]] = {}
    for line in iter_journal(path, on_torn=on_torn):
        grouped.setdefault(line.record.get(key, "unknown"),
                           []).append(line.record)
    return grouped


def read_record_at(path, start: int, end: int) -> Optional[dict]:
    """Fetch one record by the byte range an index stored for it.

    Returns ``None`` when the bytes no longer hold an intact record
    (the file was compacted since the index was built — the caller
    should rebuild its index).
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(start)
            raw = handle.read(max(0, end - start))
    except OSError:
        return None
    stripped = raw.strip()
    if not stripped:
        return None
    try:
        record = json.loads(stripped.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


def append_journal(path, record: dict) -> tuple:
    """Append one record; returns its ``(start, end)`` byte range.

    The standard append discipline every writer in the system uses: one
    ``json.dumps(sort_keys=True)`` line per record.  The parent
    directory must already exist — writers create it once, when they
    are constructed, not on every record.  Returning the byte range
    lets write-time index hooks (:class:`repro.console.index.
    JournalIndex`) note the record's location without re-reading the
    file.
    """
    return append_journal_group(path, [record])[0]


def append_journal_group(path, records) -> List[Tuple[int, int]]:
    """Append several records in one write (a group commit).

    Same line format as :func:`append_journal`; returns each record's
    ``(start, end)`` byte range, in order.  A writer killed mid-group
    leaves a prefix of whole lines plus at most one torn line, which
    every reader already skips.
    """
    payloads = [(json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
                for record in records]
    with open(path, "ab") as handle:
        start = handle.tell()
        handle.write(b"".join(payloads))
    ranges = []
    for payload in payloads:
        ranges.append((start, start + len(payload)))
        start += len(payload)
    return ranges


def head_digest(path, length: int = 4096) -> str:
    """A cheap identity for "is this still the same journal?".

    Compaction rewrites a journal in place (temp + ``os.replace``);
    an index that remembered byte offsets into the old file must
    notice.  The first ``length`` bytes change on any rewrite that
    drops or reorders records, and appends never touch them.
    """
    if not os.path.exists(path):
        return ""
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read(length)).hexdigest()
