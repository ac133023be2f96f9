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
only the delta; here every idle tick reads the whole store.  ``all()``
therefore keeps a process-wide memo, store dir -> file name -> (stat
identity, Manifest), and parses only the files whose (inode, size,
mtime_ns) changed since this process last read them.  The memo lives at
module level because callers build a fresh ``ManifestStore`` per tick;
it is keyed by absolute path and checked against ``stat`` on every
read, so it never outlives what is on disk.  Racy-clean rule (git's,
https://git-scm.com/docs/racy-git): a file whose mtime is within
``_RACY_NS`` of the scan's start is returned but not memoized, because
a rewrite within one timestamp tick can keep its stat identity.  An
idle tick stays O(history) in ``scandir`` entries and ``stat`` calls;
the memo removes only the JSON parses.

Why not one segment file per batch: a lost commit would then lose a
whole batch instead of one partition, and it would need a compaction
scheme and a migration for existing per-file manifests.  The memo gets
the idle-tick gain with the commit point, the on-disk layout and the
exactly-once argument unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional


def partition_id(input_path: str) -> str:
    """Stable id for one input partition (path basename + content-free hash
    of the absolute path -- collision-safe across directories)."""
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


# A file younger than this at scan time is re-read on every scan.
_RACY_NS = 2_000_000_000
# absolute store dir -> {file name -> ((st_ino, st_size, st_mtime_ns), Manifest)}
_MEMO: dict[str, dict[str, tuple[tuple[int, int, int], Manifest]]] = {}


class ManifestStore:
    def __init__(self, manifest_dir: str):
        self.dir = manifest_dir
        os.makedirs(manifest_dir, exist_ok=True)

    def _path(self, pid: str) -> str:
        return os.path.join(self.dir, pid + ".json")

    def commit(self, manifest: Manifest) -> None:
        """Atomic write: tmp file + rename (commit point)."""
        payload = json.dumps(manifest.__dict__, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(payload)
            os.replace(tmp, self._path(manifest.partition_id))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def remove(self, pid: str) -> None:
        """Uncommit one partition: it reads as pending again."""
        try:
            os.unlink(self._path(pid))
        except FileNotFoundError:
            pass

    def load(self, pid: str) -> Optional[Manifest]:
        try:
            # bytes + json.loads: ~4 us a file less than a text-mode read
            with open(self._path(pid), "rb") as f:
                return Manifest(**json.loads(f.read()))
        except FileNotFoundError:
            return None

    def committed_ids(self) -> set[str]:
        return {
            f[: -len(".json")]
            for f in os.listdir(self.dir)
            if f.endswith(".json")
        }

    def all(self) -> list[Manifest]:
        """Every committed manifest in partition-id order; parses only the
        files new or changed since this process last read the store."""
        key = os.path.abspath(self.dir)
        settled_before = time.time_ns() - _RACY_NS
        old = _MEMO.get(key, {})
        memo: dict[str, tuple[tuple[int, int, int], Manifest]] = {}
        with os.scandir(self.dir) as it:
            entries = [e for e in it if e.name.endswith(".json")]
        out = []
        for e in sorted(entries, key=lambda e: e.name[: -len(".json")]):
            try:
                st = e.stat()
            except FileNotFoundError:
                continue
            ident = (st.st_ino, st.st_size, st.st_mtime_ns)
            hit = old.get(e.name)
            if hit is not None and hit[0] == ident:
                m = hit[1]
            else:
                m = self.load(e.name[: -len(".json")])
                if m is None:
                    continue
            if st.st_mtime_ns < settled_before:
                memo[e.name] = (ident, m)
            out.append(m)
        if memo:
            _MEMO[key] = memo
        else:
            _MEMO.pop(key, None)
        return out

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
    done = store.committed_ids()
    return [p for p in input_paths if partition_id(p) not in done]
