"""The traced in-process pass: per-layer seconds and counts.

It drives the flagship's layers shard by shard in the benchmark process,
calling each layer's public callable as the fused Ray operator does:
``pq.read_table`` -> ``make_parse_fn`` -> ``EnrichStage`` ->
``make_route_fn`` -> ``make_fanout_writer``. It also calls
``functions/*`` and ``stages/grok`` on the same decoded lines, which splits
parse into sub-steps. Spans are kept in memory and written out when the
benchmark ends.

The same pass also runs with a ``NullTracer``, which records nothing; the
difference between the traced and untraced wall times is the cost of
tracing itself.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ci_log_processing_ray.config import DEFAULT_FILE_CONFIG, LOGLINE_SOURCES
from ci_log_processing_ray.functions.detok import tokens_to_text
from ci_log_processing_ray.functions.messages import (
    extract_messages,
    extract_severity,
)
from ci_log_processing_ray.functions.timestamps import extract_timestamps
from ci_log_processing_ray.pipelines.flagship import make_fanout_writer
from ci_log_processing_ray.stages.enrich import EnrichStage
from ci_log_processing_ray.stages.grok import (
    GROK_PATTERNS,
    anchor_mask,
    extract_grok_fields,
)
from ci_log_processing_ray.stages.parse import make_parse_fn
from ci_log_processing_ray.stages.route import make_route_fn
from ci_log_processing_ray.state.manifest import (
    ManifestStore,
    partition_id,
    pending_inputs,
)

# The layers run_pipeline executes in its fused operator, in order. Their
# summed time, subtracted from an untraced run's wall time, is the engine's.
CHAIN = ("read", "parse", "enrich", "route", "write")
FUNCTIONS = ("functions.detok", "functions.timestamps", "functions.severity",
             "functions.messages")


class Tracer:
    """Spans with name, id, parent span, start and end (perf_counter ns),
    plus the counts recorded at the same boundary."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter_ns(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name) / 1e9

    def total(self, name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in self.spans if s["name"] == name)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        child = {s["id"]: 0 for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own / 1e9
        return out


class NullTracer:
    """Same interface, records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext({})


def _grok(lines: pa.Array, sources: np.ndarray) -> None:
    for family in ("console", "oslofmt"):
        anchor_mask(lines.filter(pa.array(sources == family)), family)
    for family in GROK_PATTERNS:
        fam = sources == family
        if fam.any():
            extract_grok_fields(lines.filter(pa.array(fam)), family)


def layer_pass(shards: list[str], meta: pa.Table, cfg, staging: str,
               tracer) -> None:
    """One shard-by-shard pass over ``shards``; output goes to ``staging``."""
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    parse_fn = make_parse_fn(cfg)
    route_fn = make_route_fn(cfg)
    writer = make_fanout_writer(staging, [partition_id(p) for p in shards])
    known = meta["build_uuid"]
    with tracer.span("enrich"):
        enrich = EnrichStage(meta, DEFAULT_FILE_CONFIG)
    for i, path in enumerate(shards):
        with tracer.span("shard"):
            with tracer.span("read") as s:
                t = pq.read_table(path)
                t = t.append_column(
                    "_partition", pa.array(np.full(len(t), i, np.int32)))
            s.update(rows=len(t), bytes=os.path.getsize(path))

            with tracer.span("parse") as s:
                parsed = parse_fn(t)
            s.update(rows_in=len(t), rows_out=len(parsed))

            with tracer.span("functions.detok"):
                lines = tokens_to_text(t["tokens"])
            sources = np.asarray(t["source"].combine_chunks())
            log = lines.filter(pa.array(np.isin(sources, LOGLINE_SOURCES)))
            with tracer.span("functions.timestamps"):
                extract_timestamps(log, cfg.today_year)
            with tracer.span("functions.severity"):
                extract_severity(log)
            with tracer.span("functions.messages"):
                extract_messages(log, keep_newlines=cfg.multiline_join)
            with tracer.span("grok"):
                _grok(lines, sources)

            with tracer.span("enrich") as s:
                enriched = enrich(parsed)
            # rows left with null build metadata (unknown build_uuid)
            s["unknown_build_rows"] = int(pc.sum(pc.invert(pc.is_in(
                parsed["build_uuid"], value_set=known))).as_py() or 0)

            with tracer.span("route") as s:
                routed = route_fn(enriched)
            s.update(rows_in=len(enriched), rows_out=len(routed))

            with tracer.span("write") as s:
                partials = writer(
                    routed.append_column("sink_name", routed["sink"]))
            s["rows"] = pc.sum(partials["doc_count"]).as_py() or 0


def _written_files(staging: str) -> list[str]:
    return [os.path.join(d, f) for d, _, fs in os.walk(staging) for f in fs
            if f.endswith(".parquet")]


def _median_time(fn, repeat: int = 5) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_metrics(shards: list[str], meta: pa.Table, cfg, work: str,
                   store_dir: str, listing: list[str], untraced_wall: float,
                   run_docs: int, spans_path: str) -> tuple[dict, list[str]]:
    """After a warm-up pass, run the pass untraced and traced, twice each,
    alternating.

    ``untraced_wall`` is the median wall time of the timed ``run_pipeline``
    operation on the same ``shards``, and ``run_docs`` its routed document
    count; ``store_dir`` and ``listing`` are the manifest store and input
    listing of that operation. Returns (per-layer metrics, problems).
    """
    staging = os.path.join(work, "trace-staging")
    # first calls in this process pay one-off costs; keep them out
    layer_pass(shards[:1], meta, cfg, staging, NullTracer())
    walls: dict[bool, list[float]] = {False: [], True: []}
    tracers = []
    for traced in (False, True, False, True):
        tracer = Tracer() if traced else NullTracer()
        t0 = time.perf_counter()
        layer_pass(shards, meta, cfg, staging, tracer)
        walls[traced].append(time.perf_counter() - t0)
        if traced:
            tracers.append(tracer)
    files = _written_files(staging)
    n_bytes = sum(os.path.getsize(f) for f in files)
    columns = len(pq.read_schema(files[0]).names) if files else 0
    shutil.rmtree(staging, ignore_errors=True)

    def seconds(name: str) -> float:
        return statistics.fmean(t.seconds(name) for t in tracers)

    last = tracers[-1]
    m = {f"{name}.s": seconds(name) for name in CHAIN + ("grok",)}
    m.update({f"{name}_s": seconds(name) for name in FUNCTIONS})
    m.update({
        "read.rows": last.total("read", "rows"),
        "read.bytes": last.total("read", "bytes"),
        "parse.rows_in": last.total("parse", "rows_in"),
        "parse.rows_out": last.total("parse", "rows_out"),
        "enrich.unknown_build_rows": last.total("enrich", "unknown_build_rows"),
        "route.rows_in": last.total("route", "rows_in"),
        "route.rows_out": last.total("route", "rows_out"),
        "write.rows": last.total("write", "rows"),
        "write.files": len(files),
        "write.bytes": n_bytes,
        "write.columns": columns,
    })
    m["write.bytes_per_row"] = n_bytes / max(1, m["write.rows"])

    store = ManifestStore(store_dir)
    m["state.pending_s"] = _median_time(lambda: pending_inputs(listing, store))
    m["state.manifests_load_s"] = _median_time(store.all)
    m["state.manifests"] = len(store.committed_ids())

    m["engine.overhead_s"] = untraced_wall - sum(m[f"{n}.s"] for n in CHAIN)
    m["trace.overhead_s"] = (statistics.fmean(walls[True])
                             - statistics.fmean(walls[False]))

    problems = []
    expect_written = (m["read.rows"]
                      - (m["parse.rows_in"] - m["parse.rows_out"])
                      - (m["route.rows_in"] - m["route.rows_out"]))
    if not expect_written == m["write.rows"] == run_docs:
        problems.append(
            f"rows do not reconcile: read - parse drops - route drops = "
            f"{expect_written}, write.rows = {m['write.rows']}, "
            f"run_pipeline doc_count = {run_docs}")

    with open(spans_path, "w") as f:
        json.dump({"passes": [t.spans for t in tracers],
                   "self_seconds": [t.self_seconds() for t in tracers]}, f)
    return m, problems
