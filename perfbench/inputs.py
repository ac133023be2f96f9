"""Benchmark inputs: the synthetic corpus and its output oracles, per seed.

Runs as a child process of ``run.py`` so that corpus generation, the
row-at-a-time oracles and the host yardstick never count toward the
benchmark process's peak RSS:

    python3 perfbench/inputs.py --seed 1 --cache .perfbench

It prints one JSON line ``{"dir": ..., "generated": bool, "calib_sec": x}``.
A seed's corpus and oracles are generated once and cached under
``<cache>/seed-<n>-<hash>/``, where ``<hash>`` covers the sources they are
made from (``SOURCES``): a change to any of them regenerates the inputs
instead of reusing stale ones. The directory appears atomically (built
under a temporary name, then renamed), so a killed run never leaves a
half-written cache behind.

Cached files:

* ``corpus/token_sequences/part-*.parquet`` and ``corpus/build_meta.parquet``
  from ``sources/synth.generate_corpus`` (``workers=1``);
* ``oracle-<name>.parquet``: one row ``(shard, doc_id, sink, severity)`` per
  document the pipeline must route, for each oracle in ``ORACLES``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from ci_log_processing_ray import reference_impl as ref  # noqa: E402
from ci_log_processing_ray.config import (  # noqa: E402
    LOGLINE_SOURCES,
    SOURCE_TAGS,
    PipelineConfig,
)
from ci_log_processing_ray.sources.synth import (  # noqa: E402
    CorpusSpec,
    generate_corpus,
)

# The flagship configuration and the logstash-semantics configuration.
BACKFILL_CFG = PipelineConfig(skip_debug=True)
LOGSTASH_CFG = PipelineConfig(multiline_join=True, grok_fields=True)

# ~50k rows in 6 file-aligned shards of ~8.4k rows; a follow tick lands one
# shard. Skew is fixed: on one core it cannot change wall time.
N_SHARDS = 6


def corpus_spec(seed: int) -> CorpusSpec:
    return CorpusSpec(n_builds=128, lines_per_file=90, hot_build_factor=2,
                      n_shards=N_SHARDS, workers=1, seed=seed)


ORACLE_SCHEMA = pa.schema([
    ("shard", pa.int32()),
    ("doc_id", pa.string()),
    ("sink", pa.string()),
    ("severity", pa.string()),
])


def _files_in_order(tbl: pa.Table):
    """(build, file) -> [(line_no, source, line)] in first-seen order,
    the grouping ``reference_impl.expected_routed_rows`` uses."""
    files: dict[tuple[str, str], list[tuple[int, str, str]]] = {}
    for doc_id, source, toks in zip(tbl["doc_id"].to_pylist(),
                                    tbl["source"].to_pylist(),
                                    tbl["tokens"].to_pylist()):
        build, rest = doc_id.split("/", 1)
        fname, line_no = rest.rsplit("/", 1)
        files.setdefault((build, fname), []).append(
            (int(line_no), source, bytes(toks).decode("utf-8")))
    return files


def _dropped_before_join(line: str, tags: list[str], cfg) -> bool:
    """The parse stage's row drops that precede the multiline join."""
    if cfg.skip_debug and "DEBUG" in line:
        return True
    if "screen" in tags and line.startswith("+ "):
        return True
    return (("console" in tags or "console.html" in tags)
            and line.rstrip("\n") in ("<pre>", "</pre>"))


def logstash_expected_rows(tbl: pa.Table, cfg) -> list[dict]:
    """Routed documents under ``multiline_join``: one per logstash event.

    Extends the per-file recipe of ``tests/test_grok.py`` (drop rules, then
    ``reference_impl.multiline_events``, then the empty-message drop) with
    the journald-banner skip and routing, and keys each event by the
    ``doc_id`` of its anchor line.
    """
    index, perf_index, sub_index = (cfg.index_name(), cfg.perf_index_name(),
                                    cfg.subunit_index_name())
    out: list[dict] = []
    for (build, fname), rows in _files_in_order(tbl).items():
        rows = sorted(rows)
        source = rows[0][1]
        sink = ref.route_sink(fname, index, perf_index, sub_index)
        if sink is None:
            continue
        if source in LOGLINE_SOURCES:
            tags = SOURCE_TAGS.get(source, [])
            kept = [(no, line) for no, _, line in rows
                    if not _dropped_before_join(line, tags, cfg)]
            seen_ts = False
            for start, text in ref.multiline_events(
                    [line for _, line in kept], source):
                if text.startswith("-- Logs begin at ") and not seen_ts:
                    continue
                seen_ts = seen_ts or (
                    ref.get_timestamp(text, cfg.today_year) is not None)
                if ref.get_message(text) == "":
                    continue
                out.append({"doc_id": f"{build}/{fname}/{kept[start][0]:06d}",
                            "sink": sink, "severity": ref.get_severity(text)})
        else:
            for no, _, line in rows:
                if source == "performance" and ref.get_message(line) == "":
                    continue
                out.append({"doc_id": f"{build}/{fname}/{no:06d}",
                            "sink": sink, "severity": "NONE"})
    return out


# oracle name -> (config, row-at-a-time expected-rows function)
ORACLES = {
    "backfill": (BACKFILL_CFG, ref.expected_routed_rows),
    "logstash": (LOGSTASH_CFG, logstash_expected_rows),
}


def _oracle_table(shard_paths: list[str], cfg, fn) -> pa.Table:
    cols: dict[str, list] = {"shard": [], "doc_id": [], "sink": [],
                             "severity": []}
    for i, path in enumerate(shard_paths):
        for row in fn(pq.read_table(path), cfg):
            cols["shard"].append(i)
            for k in ("doc_id", "sink", "severity"):
                cols[k].append(row[k])
    return pa.table(cols, schema=ORACLE_SCHEMA)


def build(seed: int, dest: str) -> None:
    """Generate the corpus and its oracles for ``seed`` into ``dest``."""
    info = generate_corpus(os.path.join(dest, "corpus"), corpus_spec(seed))
    shards = info["paths"]["shards"]
    for name, (cfg, fn) in ORACLES.items():
        pq.write_table(_oracle_table(shards, cfg, fn),
                       os.path.join(dest, f"oracle-{name}.parquet"))


# Every file the corpus and the oracles depend on.
SOURCES = (
    os.path.abspath(__file__),
    os.path.join(ROOT, "ci_log_processing_ray", "sources", "synth.py"),
    os.path.join(ROOT, "ci_log_processing_ray", "reference_impl.py"),
    os.path.join(ROOT, "ci_log_processing_ray", "config.py"),
)


def sources_hash() -> str:
    h = hashlib.sha256()
    for path in SOURCES:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:8]


def ensure(seed: int, cache: str) -> tuple[str, bool]:
    dest = os.path.join(cache, f"seed-{seed}-{sources_hash()}")
    if os.path.isdir(dest):
        return dest, False
    os.makedirs(cache, exist_ok=True)
    tmp = f"{dest}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    build(seed, tmp)
    os.rename(tmp, dest)
    return dest, True


def calibrate() -> float:
    """Seconds of a fixed single-thread CPU workload: one repetition of the
    host-speed yardstick of ``bench.py``, so that runs on different days can
    be compared. A copy, so that the benchmark stays the same instrument
    whatever happens to ``bench.py``."""
    rng = np.random.default_rng(0)
    a = rng.random((1024, 1024))
    x = rng.random(4_000_000)
    t0 = time.perf_counter()
    (a @ a).sum()
    np.sort(x, kind="stable")
    return time.perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cache", required=True)
    args = ap.parse_args()
    dest, generated = ensure(args.seed, args.cache)
    print(json.dumps({"dir": dest, "generated": generated,
                      "calib_sec": calibrate()}))


if __name__ == "__main__":
    main()
