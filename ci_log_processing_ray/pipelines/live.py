"""Live-mode end-to-end pipeline: S1 -> S12 with no parquet
pre-tokenization -- the reference's logscraper+logsender loop
(logscraper.py:run_scraping -> logsender.py:send_to_es) as ONE Ray
pipeline tick:

  driver: version gate (M17) -> jobs intersection (S2) -> paginated
          /builds listing with page-drift dedup (S1) -> anti-join
          against committed manifests (S5/J4)
  cluster: one Ray task per build fetches its inventory -> build_meta
           (S4/M12); then the batch tick's task loop (``task_partials``)
           runs one task per build, as the reference maps ``run_build``
           over its pool (logscraper.py:726-727): the build's file
           downloads incl. .gz twins (S3) -> the batch pipeline's block
           function: parse -> enrich -> route -> per-sink fan-out write
           with conformance count partials (S12/A2)
  driver: per-BUILD manifest commit after the partition rename, then
          nothing else: the batch pipeline's own ``write_and_commit``
          tail with one partition per build, so a crashed run
          re-fetches only uncommitted builds and a second identical
          run is a no-op.  The per-build manifests are the tick's only
          record; ``--monitoring-port`` folds them (state/monitoring.py).

All network access is injected (``get_json`` / ``fetcher_factory``):
tests drive the whole path from dict-backed fakes; a deployment plugs
in urllib.  The engine still never imports an HTTP library.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, Optional, Sequence

import pyarrow as pa

import ray

from ..config import DEFAULT_FILE_CONFIG, FileConfigEntry, PipelineConfig
from ..state.manifest import ManifestStore
from ..sources.zuul import (
    GetBytes,
    GetJson,
    build_key,
    build_rows,
    fetch_build_meta,
    filter_available_jobs,
    get_last_job_results,
    zuul_complete_param,
)
from .flagship import (
    TASK_OPTIONS,
    RunResult,
    idle_result,
    make_block_fn,
    task_partials,
    write_and_commit,
)


def _build_pid(key: str) -> str:
    """Stable per-build partition id from the build's anti-join key
    (``build_key``; same shape as the batch pipeline's path-keyed
    ids)."""
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return f"build-{key}-{digest}"


def _lineage(build: dict) -> str:
    """A build's lineage input path, and its rows' partition key."""
    return f"zuul://{build['uuid']}"


@ray.remote(**TASK_OPTIONS)
def _build_task(block: Callable[[pa.Table], pa.Table], build: dict,
                fetcher_factory: Callable[[], GetBytes],
                file_config: tuple[FileConfigEntry, ...]) -> pa.Table:
    """One live-tick task: the block function over one build's files,
    fetched with the task's own HTTP client (ST2)."""
    t = build_rows(build, fetcher_factory(), file_config)
    return block(t.append_column("path", pa.repeat(_lineage(build), len(t))))


class _StoreSeen:
    """Anti-join view over the manifest store: committed builds read as
    seen; in-flight adds stay in memory so a crash before the write
    commits leaves the build pending (commit-after-write)."""

    def __init__(self, committed: set[str]):
        self.committed = committed
        self.mem: set = set()

    def contains(self, key) -> bool:
        return key in self.mem or _build_pid(key) in self.committed

    def add(self, key) -> None:
        self.mem.add(key)


def run_live(
    get_json: GetJson,
    fetcher_factory: Callable[[], GetBytes],
    zuul_url: str,
    out_dir: str,
    cfg: PipelineConfig = PipelineConfig(),
    *,
    job_names: Optional[Sequence[str]] = None,
    max_builds: int = 100,
    file_config: tuple[FileConfigEntry, ...] = DEFAULT_FILE_CONFIG,
    clock_now: float = 0.0,
) -> RunResult:
    """One live tick.  Returns the same RunResult as the batch
    pipeline; ``n_pending`` is the number of builds processed this
    tick (0 on an idle or fully-committed re-run)."""
    store = ManifestStore(os.path.join(out_dir, "manifests"))
    committed = store.committed_ids()
    seen = _StoreSeen(committed)

    complete = zuul_complete_param(get_json, zuul_url)
    jobs: list[Optional[str]] = [None]
    if job_names:
        jobs = list(filter_available_jobs(get_json, zuul_url, job_names))
    builds: list[dict] = []
    for job in jobs:
        builds.extend(get_last_job_results(
            get_json, zuul_url, max_builds, seen, job,
            complete_param=complete))
    if not builds:
        return idle_result(out_dir, store, len(committed))

    pid_names = [_build_pid(build_key(b)) for b in builds]
    sources = [_lineage(b) for b in builds]
    meta = fetch_build_meta(builds, fetcher_factory)

    def plan(staging_dir: str):
        block = make_block_fn(cfg, meta, file_config, staging_dir, sources,
                              pid_names)
        return task_partials(_build_task, builds, block, fetcher_factory,
                             file_config)

    return write_and_commit(plan, out_dir, store, pid_names, sources,
                            clock_now=clock_now)
