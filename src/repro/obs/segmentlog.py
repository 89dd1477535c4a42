"""The append-only NDJSON segment log under the tsdb, trace and profile stores.

:mod:`repro.obs.tsdb`, :mod:`repro.obs.tracestore` and
:mod:`repro.obs.contprof` persist rows the same way, through one
:class:`SegmentLog` each:

* one ``json.dumps(row, sort_keys=True)`` line per row, appended to
  ``<prefix>NNNNNN.ndjson`` (index zero-padded to six digits);
* a new segment once the current one would grow past
  ``max_segment_bytes``, keeping at most ``max_segments`` files (oldest
  deleted);
* after a restart, numbering resumes at the highest index — in a new
  segment when the last one ends in a torn row, so the first new row is
  not glued onto the fragment;
* :func:`replay` yields the rows back oldest first, skipping torn and
  malformed lines.

Every append opens, writes and closes the segment, so no file handle
outlives a call and the newest segment's mtime is the flush age
``/healthz`` reports. Only names that match the scheme exactly are
segments; stray files in the directory are never resumed, pruned or
replayed.
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional

__all__ = ["SegmentLog", "replay"]


def _segment_paths(directory: Path, prefix: str) -> List[Path]:
    """Segment files of ``prefix`` in ``directory``, oldest (lowest index) first."""
    name = re.compile(re.escape(prefix) + r"(\d{6,})\.ndjson")
    found = [
        (int(match.group(1)), path)
        for path in directory.glob(f"{prefix}*.ndjson")
        if (match := name.fullmatch(path.name))
    ]
    return [path for _, path in sorted(found)]


class SegmentLog:
    """Size-rotated, retention-bounded NDJSON segments in one directory.

    With ``directory=None`` the log is memory-only: it writes nothing and
    has no segments, so a store can hold one unconditionally. Append,
    rotation and :meth:`sync` run under one lock, so concurrent writers
    never interleave lines or race a rotation.
    """

    def __init__(
        self,
        directory: Optional[Path],
        prefix: str,
        max_segment_bytes: int = 1 << 20,
        max_segments: int = 8,
    ):
        self.directory = Path(directory) if directory is not None else None
        self.prefix = prefix
        self._max_segment_bytes = max(1, int(max_segment_bytes))
        self._max_segments = max(1, int(max_segments))
        self._lock = threading.Lock()
        self._index = 0
        self._bytes = 0
        self._rotations = 0
        if self.directory is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        existing = self.segment_paths()
        if existing:
            last = existing[-1]
            self._index = int(last.name[len(prefix) : -len(".ndjson")])
            self._bytes = last.stat().st_size
            with last.open("rb") as handle:
                handle.seek(max(0, self._bytes - 1))
                if handle.read(1) not in (b"", b"\n"):
                    # a crash tore the final row: mark the segment full so
                    # the next row starts a new one instead of joining
                    # the fragment
                    self._bytes = self._max_segment_bytes

    @property
    def rotations(self) -> int:
        """Completed size rotations since creation."""
        return self._rotations

    def segment_paths(self) -> List[Path]:
        """The on-disk segment files, oldest first (empty when memory-only)."""
        if self.directory is None:
            return []
        return _segment_paths(self.directory, self.prefix)

    def _path(self) -> Path:
        assert self.directory is not None
        return self.directory / f"{self.prefix}{self._index:06d}.ndjson"

    def _prune(self) -> None:
        """Delete the oldest segments so the next one stays within retention."""
        segments = self.segment_paths()
        for stale in segments[: max(0, len(segments) - (self._max_segments - 1))]:
            stale.unlink(missing_ok=True)

    def append(self, row: Mapping[str, Any]) -> None:
        """Append one row as a JSON line, rotating first if it would not fit."""
        if self.directory is None:
            return
        line = json.dumps(row, sort_keys=True) + "\n"
        size = len(line.encode())
        with self._lock:
            if self._bytes and self._bytes + size > self._max_segment_bytes:
                self._index += 1
                self._bytes = 0
                self._rotations += 1
                self._prune()
            with self._path().open("a", encoding="utf-8") as handle:
                handle.write(line)
            self._bytes += size

    def sync(self) -> None:
        """fsync the current segment so its tail survives power loss."""
        if self.directory is None:
            return
        with self._lock:
            path = self._path()
            if not path.exists():
                return
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def replay(directory: Path | str, prefix: str) -> Iterator[Dict[str, Any]]:
    """Yield every dict row of ``prefix`` segments in ``directory``, oldest first.

    Blank, torn and non-object lines are skipped: a post-mortem wants the
    good rows, not an exception about a crash's last write. Raises
    ``FileNotFoundError`` when ``directory`` does not exist and
    ``ValueError`` when it holds no segments — both before the first row.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"no such {prefix.rstrip('-')} directory: {directory}")
    segments = _segment_paths(directory, prefix)
    if not segments:
        raise ValueError(f"{directory} contains no {prefix}*.ndjson segments")
    return _rows(segments)


def _rows(segments: List[Path]) -> Iterator[Dict[str, Any]]:
    for segment in segments:
        for line in segment.read_text(encoding="utf-8").splitlines():
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if isinstance(row, dict):
                yield row
