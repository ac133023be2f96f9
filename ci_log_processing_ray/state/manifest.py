"""Per-partition lineage manifests: the checkpoint/resume layer.

Mirrors the reference's BuildCache semantics (logscraper.py:227-292):

* partition (here: one input parquet file) == the reference's build uid;
* a manifest is committed ONLY after the partition's output is fully
  written ("save only after the pool finishes", logscraper.py:724-729 --
  at-least-once, made effectively exactly-once by deterministic output
  paths that replace on retry);
* resume = anti-join of the input file list against committed manifests
  (get_last_job_results dedup, logscraper.py:457-468 / J4);
* TTL GC of stale manifests mirrors BuildCache.clean's 1-day TTL
  (logscraper.py:279-284); ``now`` is injected for determinism.

A manifest is a small JSON file written atomically (tmp + rename).  It
is the ONLY record of a pipeline tick: there is no separate per-batch
metrics file.  It carries the partition's row count, per-sink counts,
token checksum and the digest of the batch that committed it, and
``/metrics`` (state/monitoring.py) is a fold over the committed
manifests -- ST5's metrics surface.  Manifests written before the
``batch`` field existed load with ``batch=None``.

Reading the store: the reference loads its cache once and then writes
only the delta; here each process keeps ONE snapshot per store dir
(absolute path): the dir's identity ``(st_ino, st_mtime_ns)``, each
file's ``((inode, size, mtime_ns), Manifest)``, the per-sink totals
kept as manifests come and go, and the names of the young files.  It
lives at module level because callers build a fresh ``ManifestStore``
per tick, and one lock guards every read and write of it: the
``--monitoring-port`` scrape thread reads the store while the loop
commits.

* Reads (``all``, ``committed_ids``, ``sink_totals``,
  ``pending_inputs``) ``stat`` the dir once.  While its identity equals
  the snapshot's and the snapshot is trusted, they answer from the
  snapshot; ``all`` and ``sink_totals`` first re-read the young files.
  Otherwise they rescan: one ``stat`` per file, and a parse of each
  file whose stat identity changed or that was young.  An idle tick is
  then O(new work): one dir ``stat`` plus the young files.
* Racy-clean rule (git's, https://git-scm.com/docs/racy-git): a file
  whose mtime is within ``_RACY_NS`` of a read is young, and is
  re-parsed on every content read, because a rewrite within one
  timestamp tick can keep its stat identity.  The same rule holds for
  the dir: a rescan is trusted only if the dir's mtime was settled when
  it was scanned, since a change in the scan's timestamp tick could
  keep the dir's identity.
* Writes (``commit``, ``remove``) keep the snapshot current
  (write-through): under the lock they take it out, keep it only if its
  identity equals the dir's ``stat`` before the write, write, update the
  entry and the totals, and put it back stamped with the dir's identity
  after the write.  It is then trusted, as only this process writes
  the dir (the contract below).  A crash between the write and the
  put-back leaves no snapshot, so the next read rescans.  A
  ``ManifestStore`` that creates its dir drops that path's snapshot.

The contract this rests on:

* one writer per out dir (``write_and_commit``); other processes only
  read, and a reader process's rescans are trusted only once the dir
  has settled;
* manifests are replaced by rename or removed, never rewritten in
  place;
* a change made outside this process's store calls is seen once it
  changes the dir's identity (creating, renaming or unlinking a file in
  the dir does);
* an in-place rewrite of a settled manifest changes no dir identity,
  so it is not seen until the next such outside change to the dir.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional


@functools.lru_cache(maxsize=1 << 16)
def partition_id(input_path: str) -> str:
    """Stable id for one input partition (path basename + content-free hash
    of the absolute path -- collision-safe across directories).  Cached:
    every tick maps the whole input listing through it."""
    digest = hashlib.sha256(input_path.encode()).hexdigest()[:16]
    return f"{os.path.basename(input_path)}-{digest}"


@dataclass(frozen=True)
class Manifest:
    partition_id: str
    input_path: str
    row_count: int
    per_sink_counts: dict[str, int] = field(default_factory=dict)
    token_checksum: Optional[str] = None
    committed_at: Optional[float] = None  # injected clock, not wall time
    batch: Optional[str] = None  # digest of the committing batch


# A file (or dir) younger than this at read time may still change
# without changing its stat identity.
_RACY_NS = 2_000_000_000


# a file's ((st_ino, st_size, st_mtime_ns) or None, manifest)
_Entry = tuple[Optional[tuple[int, int, int]], Manifest]


@dataclass
class _Snapshot:
    """One store dir as this process last read or wrote it."""
    ident: tuple[int, int]  # the dir's (st_ino, st_mtime_ns)
    trusted: bool  # no change can hide under ``ident``
    files: dict[str, _Entry] = field(default_factory=dict)  # by partition id
    # sink -> (rows, manifests naming the sink)
    totals: dict[str, tuple[int, int]] = field(default_factory=dict)
    young: set[str] = field(default_factory=set)  # re-read on content reads

    def _fold(self, m: Manifest, sign: int) -> None:
        for sink, c in m.per_sink_counts.items():
            rows, refs = self.totals.get(sink, (0, 0))
            if refs + sign:
                self.totals[sink] = (rows + sign * c, refs + sign)
            else:
                del self.totals[sink]

    def put(self, pid: str, ident: Optional[tuple[int, int, int]],
            m: Manifest) -> None:
        self.drop(pid)
        self.files[pid] = (ident, m)
        self._fold(m, 1)

    def drop(self, pid: str) -> None:
        old = self.files.pop(pid, None)
        if old is not None:
            self._fold(old[1], -1)
        self.young.discard(pid)


# absolute store dir -> its snapshot; every access holds _LOCK
_SNAPSHOTS: dict[str, _Snapshot] = {}
_LOCK = threading.Lock()


def _dir_ident(path: str) -> tuple[int, int]:
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns


class ManifestStore:
    def __init__(self, manifest_dir: str):
        self.dir = manifest_dir
        self._key = os.path.abspath(manifest_dir)
        try:
            os.makedirs(manifest_dir)
        except FileExistsError:
            return
        with _LOCK:  # a new dir at a known path: forget the old one
            _SNAPSHOTS.pop(self._key, None)

    def _path(self, pid: str) -> str:
        return os.path.join(self.dir, pid + ".json")

    @contextlib.contextmanager
    def _writing(self) -> Iterator[Optional[_Snapshot]]:
        """Hold the lock over one write to the store.  Yields the
        snapshot if it was current before the write (else None) for the
        caller to update; it goes back, re-stamped, only if the write
        returns."""
        with _LOCK:
            snap = _SNAPSHOTS.pop(self._key, None)
            if snap is not None and snap.ident != _dir_ident(self.dir):
                snap = None
            yield snap
            if snap is not None:
                snap.ident = _dir_ident(self.dir)
                snap.trusted = True
                _SNAPSHOTS[self._key] = snap

    def commit(self, manifest: Manifest) -> None:
        """Atomic write: tmp file + rename (commit point)."""
        payload = json.dumps(manifest.__dict__, sort_keys=True)
        with self._writing() as snap:
            fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as f:
                    f.write(payload)
                os.replace(tmp, self._path(manifest.partition_id))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            if snap is not None:
                snap.put(manifest.partition_id, None, manifest)
                snap.young.add(manifest.partition_id)

    def remove(self, pid: str) -> None:
        """Uncommit one partition: it reads as pending again."""
        with self._writing() as snap:
            try:
                os.unlink(self._path(pid))
            except FileNotFoundError:
                pass
            if snap is not None:
                snap.drop(pid)

    def load(self, pid: str) -> Optional[Manifest]:
        try:
            # bytes + json.loads: ~4 us a file less than a text-mode read
            with open(self._path(pid), "rb") as f:
                return Manifest(**json.loads(f.read()))
        except FileNotFoundError:
            return None

    def _current(self, *, content: bool) -> _Snapshot:
        """This store's snapshot, brought up to date; call under _LOCK.
        ``content``: the caller reads manifests, not only ids, so the
        young files are re-read too."""
        settled_before = time.time_ns() - _RACY_NS
        ident = _dir_ident(self.dir)
        snap = _SNAPSHOTS.get(self._key)
        if snap is None or not snap.trusted or snap.ident != ident:
            snap = _SNAPSHOTS[self._key] = self._scan(ident, snap,
                                                      settled_before)
        elif content:
            for pid in list(snap.young):
                self._reread(snap, pid, settled_before)
        return snap

    def _scan(self, ident: tuple[int, int], old: Optional[_Snapshot],
              settled_before: int) -> _Snapshot:
        """A new snapshot from one pass over the dir; it parses only
        the files whose stat identity changed or that were young."""
        snap = _Snapshot(ident, trusted=ident[1] < settled_before)
        with os.scandir(self.dir) as it:
            entries = [e for e in it if e.name.endswith(".json")]
        for e in entries:
            pid = e.name[: -len(".json")]
            try:
                st = e.stat()
            except FileNotFoundError:
                continue
            hit = (None if old is None or pid in old.young
                   else old.files.get(pid))
            self._take(snap, pid, st, hit, settled_before)
        return snap

    def _reread(self, snap: _Snapshot, pid: str, settled_before: int) -> None:
        try:
            st = os.stat(self._path(pid))
        except FileNotFoundError:
            snap.drop(pid)
            return
        self._take(snap, pid, st, None, settled_before)

    def _take(self, snap: _Snapshot, pid: str, st: os.stat_result,
              hit: Optional[_Entry], settled_before: int) -> None:
        """Put file ``pid`` (stat ``st``) in ``snap``: the manifest of
        ``hit`` if its stat identity still matches, else a fresh parse."""
        fid = (st.st_ino, st.st_size, st.st_mtime_ns)
        m = hit[1] if hit is not None and hit[0] == fid else self.load(pid)
        if m is None:
            snap.drop(pid)
            return
        snap.put(pid, fid, m)
        if st.st_mtime_ns >= settled_before:
            snap.young.add(pid)

    def committed_ids(self) -> set[str]:
        with _LOCK:
            return set(self._current(content=False).files)

    def all(self) -> list[Manifest]:
        """Every committed manifest in partition-id order."""
        with _LOCK:
            files = self._current(content=True).files
            return [files[pid][1] for pid in sorted(files)]

    def sink_totals(self) -> dict[str, int]:
        """Per-sink ``per_sink_counts`` summed over every committed
        manifest, in sink order."""
        with _LOCK:
            totals = self._current(content=True).totals
            return {sink: totals[sink][0] for sink in sorted(totals)}

    def gc(self, *, now: float, ttl_seconds: float = 86400.0) -> list[str]:
        """Drop manifests older than ttl (BuildCache.clean,
        logscraper.py:279-284).  Returns removed partition ids."""
        removed = []
        for m in self.all():
            if m.committed_at is not None and now - m.committed_at > ttl_seconds:
                self.remove(m.partition_id)
                removed.append(m.partition_id)
        return removed


def pending_inputs(
    input_paths: Iterable[str], store: ManifestStore
) -> list[str]:
    """Anti-join: input files without a committed manifest (J4)."""
    with _LOCK:
        done = store._current(content=False).files
        return [p for p in input_paths if partition_id(p) not in done]
