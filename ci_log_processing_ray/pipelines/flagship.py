"""Flagship pipeline: read -> parse -> enrich -> route -> write + count.

The Ray equivalent of logscraper+logsender end to end (SURVEY.md
section 3 "Rebuild lifecycle"):

    1. plan: anti-join pending input files vs committed manifests (J4/ST1)
    2. one Ray task per pending file, largest first, reads the file
       whole into one Arrow block                               [source]
    3-6. the task applies ONE block function (``make_block_fn``):
       partition id -> parse [M1-M8, 2.9] -> enrich (broadcast
       build_meta + file config) [J1/J2] -> route (sink = dated index
       name) [S12/S13] -> per-sink Parquet write into a staged batch
       dir; its per-(partition, sink, severity) count partials are
       the task's only output (A2), consumed as tasks complete
    7. rename each partition into place, then commit its
       lineage manifest (idempotent commit)
    8. nothing more: the partition manifests (with the batch digest)
       are the run's only record; ``/metrics`` folds them  [ST5/A1]

The block function (3-6), the task loop that runs it
(``task_partials``) and the tail (``write_and_commit``, 7-8) are shared
with the live pipeline (pipelines/live.py), whose tasks fetch one build
each instead of reading one file.  fill_mode="grouped" shares the block
function and the tail; it reads and regroups the files with Ray Data (a
shuffle).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data
from ray.exceptions import RaySystemError

from ..config import DEFAULT_FILE_CONFIG, FileConfigEntry, PipelineConfig
from ..sources.readers import load_build_meta
from ..stages.enrich import make_enrich_fn
from ..stages.parse import make_parse_fn, split_doc_id
from ..stages.route import make_route_fn
from ..state.manifest import Manifest, ManifestStore, partition_id, pending_inputs


@dataclass
class RunResult:
    """What one tick did.

    ``counts`` has two shapes: when partitions were pending it is this
    tick's (sink, severity, doc_count, tok_sum); on an idle tick it is
    (sink, doc_count), the per-sink totals over all manifests.
    """
    routed_dir: Optional[str]
    counts: pa.Table
    manifests: list[Manifest]
    n_pending: int
    n_skipped: int


_PARTIAL_SCHEMA = pa.schema([
    ("_partition", pa.int32()),
    ("sink", pa.string()),
    ("severity", pa.string()),
    ("doc_count", pa.int64()),
    ("tok_sum", pa.int64()),
])


def make_fanout_writer(staging_dir: str,
                       pid_names: Sequence[str] | None = None):
    """ONE-PASS per-sink writer + conformance-count combiner.

    The Ray-Data shape of logsender's send_to_es (S12: per-index bulk
    insert returning success counts, logsender.py:467-495): each task
    writes its block's rows into one Parquet file per sink under
    ``part-<partition>/sink=<name>/`` (temp-file + atomic os.replace,
    DETERMINISTIC name derived from the partition id + block content --
    task retries overwrite the same path, so sink counts stay exact),
    and returns only the tiny per-(partition, sink, severity) count
    partials as its output batch.  The downstream aggregate then runs
    over bytes-sized partials instead of re-reading the written corpus:
    the A2 conformance aggregate costs one streaming pass, total.

    ``pid_names`` maps the per-run ``_partition`` index to a STABLE
    partition id: the per-partition directory is then replaceable
    wholesale when that partition is reprocessed after a partial
    failure, so the routed tree never accumulates duplicate rows.  The
    index itself is not written: a re-run numbers its pending set anew.
    """

    def write_and_count(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return _PARTIAL_SCHEMA.empty_table()
        # ONE stable sort by (partition, sink) and ONE take; each
        # (partition, sink) file is then a zero-copy slice, its rows in
        # block order.  One task per input file means a block is
        # normally a single partition; mixed blocks take the same path.
        part = t["_partition"].combine_chunks().to_numpy(zero_copy_only=False)
        sink_enc = t["sink"].combine_chunks().dictionary_encode()
        sinks = sink_enc.dictionary.to_pylist()
        sink = sink_enc.indices.fill_null(-1).to_numpy(zero_copy_only=False)
        key = part.astype(np.int64) * (len(sinks) + 1) + (sink + 1)
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        ends = np.append(starts[1:], len(key))
        grouped = t.take(pa.array(order)).drop_columns(["_partition", "sink"])
        # a partition's file tag: its first row in block order, its size
        pids, first, n_rows = np.unique(part, return_index=True,
                                        return_counts=True)
        tags = {}
        for pid, i, n in zip(pids.tolist(), first.tolist(), n_rows.tolist()):
            tags[pid] = hashlib.sha1(
                f"{t['doc_id'][i].as_py()}|{n}".encode()).hexdigest()[:8]
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            s = int(sink[order[lo]])
            if s < 0:  # a row without a sink is not written
                continue
            pid = int(part[order[lo]])
            name = pid_names[pid] if pid_names is not None else f"{pid:05d}"
            d = os.path.join(staging_dir, f"part-{name}", f"sink={sinks[s]}")
            os.makedirs(d, exist_ok=True)
            path = os.path.join(d, f"part-{tags[pid]}.parquet")
            tmp = f"{path}.tmp-{os.getpid()}"
            pq.write_table(grouped.slice(lo, hi - lo), tmp)
            os.replace(tmp, path)
        g = pa.table({
            "_partition": t["_partition"],
            "sink": t["sink"],
            "severity": t["severity"],
            "n_tok": pc.cast(t["n_tok"].combine_chunks(), pa.int64()),
        }).group_by(["_partition", "sink", "severity"]).aggregate(
            [("n_tok", "count"), ("n_tok", "sum")])
        return pa.table({
            "_partition": g["_partition"],
            "sink": g["sink"],
            "severity": g["severity"],
            "doc_count": pc.cast(g["n_tok_count"], pa.int64()),
            "tok_sum": g["n_tok_sum"],
        }, schema=_PARTIAL_SCHEMA)

    return write_and_count


def _partition_codes(keys: pa.Array, lut: dict[str, int]) -> pa.Array:
    """Each row's int32 partition index ``lut[key]``: one dictionary
    encode, then one gather through the per-distinct-key table."""
    enc = keys.dictionary_encode()
    mapped = np.array([lut[k] for k in enc.dictionary.to_pylist()],
                      dtype=np.int32)
    return pa.array(mapped[enc.indices.to_numpy(zero_copy_only=False)])


def make_block_fn(
    cfg: PipelineConfig,
    meta: pa.Table,
    file_config: tuple[FileConfigEntry, ...],
    staging_dir: str,
    keys: Sequence[str],
    pid_names: Sequence[str],
):
    """A tick's whole per-block transform as ONE Arrow function:
    partition id -> parse -> enrich -> route -> fan-out write.  Its
    output rows are the writer's count partials.

    A source block carries a ``path`` column, each row's partition key
    (its input file, or its build's ``zuul://<uuid>`` lineage path);
    ``_partition`` is that key's index in ``keys``, and the writer
    stores partition i under ``pid_names[i]``.  ``meta`` is
    broadcast once as an object ref; each worker process builds its
    enrich state from it on first use.
    """
    lut = {k: i for i, k in enumerate(keys)}
    parse = make_parse_fn(cfg)
    enrich = make_enrich_fn(ray.put(meta), file_config)
    route = make_route_fn(cfg)
    write = make_fanout_writer(staging_dir, pid_names)

    def process_block(t: pa.Table) -> pa.Table:
        key = t["path"].combine_chunks()
        t = t.drop_columns("path").append_column(
            "_partition", _partition_codes(key, lut))
        t = route(enrich(parse(t)))
        # "sink" is the directory key at write time (stripped from the
        # files); "sink_name" keeps each row's sink in the data
        return write(t.append_column("sink_name", t["sink"]))

    return process_block


def _add_file_key(t: pa.Table) -> pa.Table:
    _, _, line_no, fid = split_doc_id(t["doc_id"].combine_chunks())
    return t.append_column("_file", fid).append_column("_line", line_no)


def _in_file_order(t: pa.Table) -> pa.Table:
    order = pc.sort_indices(t, sort_keys=[("_file", "ascending"),
                                          ("_line", "ascending")])
    return t.take(order).drop_columns(["_file", "_line"])


# The options of a Ray Data map task: retry a dead worker or a system
# error without limit, and spread over the nodes.  A worker death
# mid-tick re-runs its item, and the writer's deterministic file names
# make the re-run overwrite its own output.
TASK_OPTIONS = dict(max_retries=-1, retry_exceptions=[RaySystemError],
                    scheduling_strategy="SPREAD")


@ray.remote(**TASK_OPTIONS)
def _file_task(block: Callable[[pa.Table], pa.Table], path: str) -> pa.Table:
    """One batch-tick task: the block function over ``path`` read whole."""
    t = pq.read_table(path, use_threads=False)
    return block(t.append_column("path", pa.repeat(path, len(t))))


def task_partials(task, items: Iterable, block, *shared) -> Iterator[pa.Table]:
    """A tick's task loop: one ``task.remote(block, item, *shared)`` per
    item, in ``items`` order, yielding each task's count partials as it
    completes.  The task builds the item's rows, appends their ``path``
    partition key and returns the block function's output.

    At most two tasks per cluster CPU are in flight: one running, one
    queued behind it.  The block function and the ``shared`` arguments
    are put in the object store once per tick and shared by every task.

    If a task raises, or the consumer stops early, the tasks still in
    flight are cancelled and awaited before the error propagates: no
    task of a failed tick is left writing into the staging dir that the
    next tick clears and reuses.
    """
    todo = iter(items)
    window = 2 * max(1, int(ray.cluster_resources().get("CPU", 1)))
    refs = [ray.put(x) for x in (block, *shared)]

    def submit(n: int) -> list[ray.ObjectRef]:
        return [task.remote(refs[0], item, *refs[1:])
                for item in itertools.islice(todo, n)]

    in_flight = submit(window)
    try:
        while in_flight:
            [done], in_flight = ray.wait(in_flight, num_returns=1)
            in_flight += submit(1)
            yield ray.get(done)
    except BaseException:
        for ref in in_flight:
            ray.cancel(ref)
        if in_flight:
            ray.wait(in_flight, num_returns=len(in_flight))
        raise


def build_tick(
    input_paths: Sequence[str],
    pid_names: Sequence[str],
    meta: pa.Table,
    cfg: PipelineConfig,
    staging_dir: str,
    file_config: tuple[FileConfigEntry, ...] = DEFAULT_FILE_CONFIG,
) -> Iterable[pa.Table]:
    """One tick's count partials, computed as they are consumed: the
    block function over every input file, writing input i under
    ``staging_dir`` as partition ``pid_names[i]``.

    fill_mode="batch" runs ONE Ray task per file (``_file_task`` in
    ``task_partials``), which reads the file whole: the block function
    sees each file once, in its stored order (the layout contract of the
    batch-local carry-forward), and writes one file per sink.  The file
    count supplies the parallelism.  Files are submitted LARGEST FIRST
    (LPT order), so a hot build's 3-4x-mean task starts in the first
    wave instead of anchoring the last; partition ids key on the PATH,
    so the output does not depend on the order.  No Ray Data plan is
    built: a one-operator plan with KB-sized outputs would add only the
    executor's fixed cost (plan, topology, executor thread, stats actor)
    to every tick.

    fill_mode="grouped" restores the parse layout contract for any
    layout: Ray Data reads the files, one bucketed exchange on the
    (build/filename) file key lands each file whole in one bucket, and
    the bucket kernel is the block function over the bucket sorted by
    (file, line_no).
    """
    paths = list(input_paths)
    block = make_block_fn(cfg, meta, file_config, staging_dir, paths,
                          pid_names)
    if cfg.fill_mode == "batch":
        return task_partials(
            _file_task, sorted(paths, key=os.path.getsize, reverse=True),
            block)
    if cfg.fill_mode != "grouped":
        raise ValueError(cfg.fill_mode)
    from ..ops.window import bucketed_groups

    keyed = ray.data.read_parquet(paths, include_paths=True).map_batches(
        _add_file_key, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed_groups(
        keyed, "_file", lambda t: block(_in_file_order(t)),
        kernel_format="pyarrow",
    ).iter_batches(batch_format="pyarrow", batch_size=None)


_PARTIAL_KEYS = ["_partition", "sink", "severity"]


def summarize_partials(
    partials: pa.Table, n_partitions: int,
) -> tuple[list[tuple[int, dict[str, int], str]], pa.Table]:
    """Reduce the writer's count partials to each partition's manifest
    fields, ``(row_count, per_sink_counts, token_checksum)`` for
    ``_partition`` 0 .. n_partitions-1, plus the batch's
    (sink, severity, doc_count, tok_sum) counts table.

    One partition may span several blocks, so the partials are first
    summed per (partition, sink, severity): the checksum is then
    independent of physical batching.  Rows with a null key are dropped
    (the writer writes no null-sink row).  A partition with no rows gets
    row_count 0, no sinks and the checksum of ``[]``.
    """
    g = partials.drop_null().group_by(_PARTIAL_KEYS).aggregate(
        [("doc_count", "sum"), ("tok_sum", "sum")]
    ).sort_by([(k, "ascending") for k in _PARTIAL_KEYS])
    bounds = np.searchsorted(g["_partition"].to_numpy(),
                             np.arange(n_partitions + 1))
    # to_numpy().tolist(): ~15x faster than to_pylist at 16k partitions
    rows = list(zip(*(g[c].to_numpy().tolist() for c in (
        "sink", "severity", "doc_count_sum", "tok_sum_sum"))))
    summaries = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sub = rows[lo:hi]
        per_sink: dict[str, int] = {}
        for sink, _, n_docs, _ in sub:
            per_sink[sink] = per_sink.get(sink, 0) + n_docs
        checksum = hashlib.sha256(
            json.dumps(sorted(sub), default=str).encode()).hexdigest()[:16]
        summaries.append((sum(per_sink.values()), per_sink, checksum))

    agg = g.group_by(["sink", "severity"]).aggregate(
        [("doc_count_sum", "sum"), ("tok_sum_sum", "sum")]
    ).sort_by([("sink", "ascending"), ("severity", "ascending")])
    counts = pa.table({
        "sink": agg["sink"],
        "severity": agg["severity"],
        "doc_count": agg["doc_count_sum_sum"],
        "tok_sum": agg["tok_sum_sum_sum"],
    })
    return summaries, counts


def write_and_commit(
    plan: Callable[[str], Iterable[pa.Table]],
    out_dir: str,
    store: ManifestStore,
    pid_names: Sequence[str],
    input_paths: Sequence[str],
    *,
    clock_now: float = 0.0,
    n_skipped: int = 0,
) -> RunResult:
    """The shared tail of a pipeline tick: staged fan-out write ->
    per-partition rename -> manifest commit.  The manifests, each
    carrying the batch digest, are the tick's only record.

    ``plan(staging_dir)`` is the tick's iterable of count partial
    tables from the block function writing under ``staging_dir``, all
    written once the iterable is exhausted: the task results of
    ``task_partials`` (batch and live ticks), or grouped mode's Ray Data
    ``iter_batches`` (not ``to_arrow_refs``, which fetches the schema by
    running the whole chain again on one block).  Partial
    ``_partition`` = i is the partition whose stable id is
    ``pid_names[i]`` and whose lineage input is ``input_paths[i]``.
    Idempotent AND duplicate-free across partial failures: a
    reprocessed partition's directory is replaced wholesale before its
    manifest commits, so the routed tree never holds two copies of one
    partition's rows.  Manifests commit only after the
    partition dir is renamed into place -- the reference's
    commit-after-pool ordering (logscraper.py:724-729) made
    exactly-once by determinism.  One writer per out dir: whatever is
    under ``<out>/.staging`` when a tick starts is a crashed tick's
    leftover, so the whole staging root is cleared.
    """
    digest = hashlib.sha256(
        "\n".join(sorted(input_paths)).encode()).hexdigest()[:16]
    routed_root = os.path.join(out_dir, "routed")
    staging_dir = os.path.join(out_dir, ".staging", f"batch-{digest}")
    _clear_staging(out_dir)
    os.makedirs(staging_dir)
    os.makedirs(routed_root, exist_ok=True)
    # single streaming pass: per-sink fan-out write + count partials out
    blocks = [t for t in plan(staging_dir) if len(t)]
    partials = (pa.concat_tables(blocks) if blocks
                else _PARTIAL_SCHEMA.empty_table())
    summaries, counts = summarize_partials(partials, len(pid_names))

    manifests: list[Manifest] = []
    for pid, path, (row_count, per_sink, checksum) in zip(
            pid_names, input_paths, summaries):
        # uncommit-replace-commit, per partition: drop any prior
        # manifest first (so a crash below leaves the partition
        # pending, never committed over a missing dir), remove any
        # prior copy of its output, move the fresh one into place, THEN
        # commit the manifest.
        src = os.path.join(staging_dir, f"part-{pid}")
        dst = os.path.join(routed_root, f"part-{pid}")
        store.remove(pid)
        shutil.rmtree(dst, ignore_errors=True)
        if os.path.isdir(src):
            os.rename(src, dst)
        m = Manifest(
            partition_id=pid,
            input_path=path,
            row_count=row_count,
            per_sink_counts=per_sink,
            token_checksum=checksum,
            committed_at=clock_now,
            batch=digest,
        )
        store.commit(m)
        manifests.append(m)
    _clear_staging(out_dir)

    return RunResult(routed_root, counts, manifests, len(pid_names),
                     n_skipped)


def run_pipeline(
    input_paths: Sequence[str],
    meta: pa.Table | str,
    out_dir: str,
    cfg: PipelineConfig = PipelineConfig(),
    file_config: tuple[FileConfigEntry, ...] = DEFAULT_FILE_CONFIG,
    *,
    resume: bool = True,
    clock_now: float = 0.0,
) -> RunResult:
    """One pipeline tick: process pending partitions, commit manifests.

    Output is keyed by STABLE partition id
    (``routed/part-<pid>/sink=.../``); see ``write_and_commit`` for the
    exactly-once discipline.
    """
    if isinstance(meta, str):
        meta = load_build_meta(meta)
    store = ManifestStore(os.path.join(out_dir, "manifests"))
    paths = sorted(input_paths)
    pending = pending_inputs(paths, store) if resume else paths
    if not pending:
        return idle_result(out_dir, store, len(paths))
    pids = [partition_id(p) for p in pending]
    return write_and_commit(
        lambda staging: build_tick(pending, pids, meta, cfg, staging,
                                   file_config),
        out_dir, store, pids, pending,
        clock_now=clock_now, n_skipped=len(paths) - len(pending))


def _clear_staging(out_dir: str) -> None:
    shutil.rmtree(os.path.join(out_dir, ".staging"), ignore_errors=True)


def idle_result(out_dir: str, store: ManifestStore,
                n_skipped: int) -> RunResult:
    """The result of a tick with nothing pending: per-sink totals over
    all manifests, in sink order, as the store keeps them.  It also
    clears ``<out>/.staging``, which a crash after a tick's last
    manifest commit leaves behind."""
    _clear_staging(out_dir)
    rows = store.sink_totals()
    return RunResult(None, pa.table({
        "sink": list(rows.keys()),
        "doc_count": list(rows.values()),
    }), [], 0, n_skipped)
