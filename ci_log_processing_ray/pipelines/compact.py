"""Sink compaction: the small-files maintenance pass every streaming
parquet sink needs.  The flagship fan-out writer (like the reference's
per-index OpenSearch routing, logsender.py) emits one file per
(input shard, sink) so resume stays per-shard idempotent -- after N
ticks a sink directory holds N small files.  This pass coalesces them
into ~target_bytes files without moving rows through the driver.

Plan shape: one driver-side walk collects (sink, path, bytes) -- file
METADATA only, never data; files bin per sink with first-fit-decreasing
up to ``target_bytes``; each bin becomes one independent Ray task that
reads only its own members and writes one output via tmp + atomic
rename; the per-bin stats ride Arrow blocks and fold with one Arrow
``group_by``.  Output names are deterministic (md5 of the member
list), so a re-run skips every finished bin (reading only parquet
footers for the row counts) and a crash mid-run redoes only
unfinished bins.  At 100 TB run it per sink partition (e.g. per day)
so the walk and the bin list stay bounded.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data


def _walk_sink_files(routed_dir: str) -> list[tuple[str, str, int]]:
    """(sink, path, bytes) for every parquet file under a sink=<name>
    directory component, sorted for determinism."""
    out = []
    for root, _dirs, files in os.walk(routed_dir):
        parts = [p for p in root.split(os.sep) if p.startswith("sink=")]
        if not parts:
            continue
        sink = parts[-1][len("sink="):]
        for f in files:
            if f.endswith(".parquet"):
                p = os.path.join(root, f)
                out.append((sink, p, os.path.getsize(p)))
    out.sort()
    return out


def plan_bins(files: list[tuple[str, str, int]],
              target_bytes: int, *, rel_to: str = "") -> list[dict]:
    """First-fit-decreasing per sink: each bin's member bytes stay
    under ``target_bytes`` (single oversized files get their own
    bin)."""
    bins: list[dict] = []
    by_sink: dict[str, list[tuple[int, str]]] = {}
    for sink, path, size in files:
        by_sink.setdefault(sink, []).append((size, path))
    for sink in sorted(by_sink):
        open_bins: list[dict] = []
        for size, path in sorted(by_sink[sink], reverse=True):
            placed = False
            for b in open_bins:
                if b["bytes"] + size <= target_bytes:
                    b["files"].append(path)
                    b["bytes"] += size
                    placed = True
                    break
            if not placed:
                nb = {"sink": sink, "files": [path], "bytes": size}
                open_bins.append(nb)
                bins.append(nb)
    for b in bins:
        b["files"].sort()
        # hash routed-RELATIVE paths: basenames repeat across shard
        # dirs, and absolute paths would break if the tree moves
        b["bin_id"] = hashlib.md5(
            "\n".join(os.path.relpath(f, rel_to) if rel_to else f
                       for f in b["files"])
            .encode()).hexdigest()[:16]
    return bins


def compact_routed(
    routed_dir: str,
    out_dir: str,
    *,
    target_bytes: int = 128 << 20,
) -> pa.Table:
    """Compact every sink's files under ``routed_dir`` into
    ``out_dir/sink=<name>/part-<binhash>.parquet``.  Idempotent:
    finished bins are skipped on re-run (row counts re-read from the
    existing output's footer so the stats stay exact).  Returns one
    int64 row per sink: n_files_in, n_files_out, n_rows, n_skipped."""
    files = _walk_sink_files(routed_dir)
    bins = plan_bins(files, target_bytes, rel_to=routed_dir)

    def run_bin(batch: pa.Table) -> pa.Table:
        sink, members, bin_id = (batch[c][0].as_py()
                                 for c in ("sink", "files", "bin_id"))
        sink_dir = os.path.join(out_dir, f"sink={sink}")
        dest = os.path.join(sink_dir, f"part-{bin_id}.parquet")
        if os.path.exists(dest):
            n, skipped = pq.read_metadata(dest).num_rows, 1
        else:
            os.makedirs(sink_dir, exist_ok=True)
            t = pa.concat_tables([pq.read_table(f) for f in members],
                                 promote_options="default")
            tmp = dest + f".tmp.{os.getpid()}"
            pq.write_table(t, tmp)
            os.replace(tmp, dest)
            n, skipped = len(t), 0
        return pa.table({"sink": [sink], "n_files_in": [len(members)],
                         "n_rows": [n], "n_skipped": [skipped]})

    stats = pa.table({"sink": pa.array([], pa.string()),
                      **{c: pa.array([], pa.int64()) for c in
                         ("n_files_in", "n_rows", "n_skipped")}})
    if bins:
        stats = pa.concat_tables(ray.data.from_items([
            {"sink": b["sink"], "files": b["files"], "bin_id": b["bin_id"]}
            for b in bins])
            .map_batches(run_bin, batch_format="pyarrow", batch_size=1)
            .iter_batches(batch_format="pyarrow", batch_size=None))
    agg = stats.group_by("sink").aggregate(
        [("n_files_in", "sum"), ("n_files_in", "count"), ("n_rows", "sum"),
         ("n_skipped", "sum")])
    return pa.table({
        "sink": agg["sink"],
        "n_files_in": agg["n_files_in_sum"],
        "n_files_out": agg["n_files_in_count"],
        "n_rows": agg["n_rows_sum"],
        "n_skipped": agg["n_skipped_sum"],
    }).sort_by("sink")
