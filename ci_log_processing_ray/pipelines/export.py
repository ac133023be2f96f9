"""Resumable globally-sorted Parquet export (the CLUSTER BY sink):
range-partition the dataset on a sort column, write ONE sorted file per
range, and commit a per-range manifest so a re-run (or a crashed run)
redoes only unfinished ranges -- the write-side complement of the
flagship's per-shard fan-out manifests (state/manifest.py semantics:
tmp + atomic rename, commit-after-write).

Plan shape:
1. cut points from one DDSketch pass (`ops/quantile.py:approx_quantiles`
   -- sketch partials only, never data); exactness is NOT needed, the
   cuts only balance file sizes.  Range membership, and therefore
   CORRECTNESS of the global order, comes from the searchsorted
   assignment itself: file i holds exactly the rows in
   [cut[i-1], cut[i]), so files are disjoint and ordered by
   construction.  The cut array is PERSISTED (`_cuts.json`, tmp +
   atomic rename) together with an input fingerprint (row count +
   order-insensitive modular checksum of the sort column); a resume
   reloads the SAME cuts -- never recomputes them -- and fails loudly
   if the input changed, so rows can never be silently dropped into an
   already-committed range or duplicated into a redone one.
2. one streaming pass routes rows of PENDING ranges into per-range
   piece files.  Pieces are written to a tmp name and os.replace()d
   into a DETERMINISTIC name keyed by (range, content digest, rows),
   so a Ray task retry overwrites its own partial/previous output
   instead of accumulating duplicates, and a crash mid-write leaves
   only a tmp file that finalize ignores.  The route pass also emits
   exact per-range routed row counts; finalize must account for every
   one of them (loud failure otherwise).
3. one Ray task per pending range sorts its pieces and writes
   `range-NNNNN.parquet` via tmp + atomic rename, then commits a
   manifest carrying (rows, min, max) -- the min/max chain is asserted
   monotone across committed ranges at the end of every run.

At 100 TB: resume granularity is one range (pick n_ranges so a range
is a few GB); the pass-2 scan is read-only and prunes finished ranges
before any shuffle; no stage holds more than one range in memory.

Reference parity: logsender's per-index routing + checkpoint semantics
(SURVEY.md S12/ST1) applied to a sorted lake export.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ci_log_processing_ray.state.manifest import Manifest, ManifestStore

_FP_MOD = (1 << 61) - 1  # Mersenne prime; fold in PYTHON ints (numpy
# int64 sums of 2^61-scale partials wrap silently -- CLAUDE.md rule)


def _range_pid(i: int) -> str:
    return f"sorted-range-{i:05d}"


def _table_digest(tab: pa.Table) -> str:
    """Content digest over the raw Arrow buffers of EVERY column
    (validity + offsets + data, children included) -- zero-copy,
    C-speed blake2b.  Deterministic across Ray task retries because the
    filtered sub-table is freshly allocated (offset 0) from the same
    deterministic upstream block."""
    h = hashlib.blake2b(digest_size=16)
    for col in tab.columns:
        for chunk in col.chunks:
            for buf in chunk.buffers():
                if buf is not None:
                    h.update(buf)
    return h.hexdigest()


def _fingerprint_partial(v: np.ndarray) -> tuple[int, int]:
    """Order-insensitive (lo, hi) checksum partials of a sort-column
    batch: 64-bit value hashes split into 32-bit halves so the int64
    numpy sums cannot wrap; the caller folds in Python ints.  The hash
    is the splitmix64 finalizer over the values' unsigned bits, the
    one ``pd.util.hash_array`` applies to numeric arrays, so a
    ``_cuts.json`` checksum written by an earlier version still
    matches."""
    h = np.ascontiguousarray(v).view(f"u{v.dtype.itemsize}").astype(np.uint64)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    lo = int((h & np.uint64(0xFFFFFFFF)).astype(np.int64).sum())
    hi = int((h >> np.uint64(32)).astype(np.int64).sum())
    return lo, hi


def sorted_export(
    ds: ray.data.Dataset,
    sort_col: str,
    out_dir: str,
    *,
    n_ranges: int = 32,
) -> dict:
    """Export ``ds`` as ``n_ranges`` Parquet files globally sorted on
    int64 ``sort_col`` (ties keep arbitrary stable order within the
    file).  Idempotent: committed ranges are skipped wholesale on
    re-run; resume reuses the first run's persisted cut points and
    fails loudly if the input rows changed.  Returns
    {written, skipped, rows_written}."""
    os.makedirs(out_dir, exist_ok=True)
    store = ManifestStore(os.path.join(out_dir, "_manifests"))
    done = {pid for pid in store.committed_ids()
            if pid.startswith("sorted-range-")}
    pending = [i for i in range(n_ranges) if _range_pid(i) not in done]
    if not pending:
        _assert_monotone(store, n_ranges)
        return {"written": 0, "skipped": n_ranges, "rows_written": 0}

    cuts_path = os.path.join(out_dir, "_cuts.json")
    persisted = None
    if os.path.exists(cuts_path):
        with open(cuts_path) as f:
            persisted = json.load(f)
        if persisted["n_ranges"] != n_ranges:
            raise AssertionError(
                f"sorted_export: resume with n_ranges={n_ranges} but "
                f"{cuts_path} was written with "
                f"n_ranges={persisted['n_ranges']}")
        cuts = np.array(persisted["cuts"], dtype=np.float64)
    elif done:
        raise AssertionError(
            f"sorted_export: {len(done)} committed range manifests but "
            f"no {cuts_path} -- cannot resume without the original cut "
            "points (delete the output dir to restart)")
    else:
        from ci_log_processing_ray.ops.quantile import approx_quantiles

        qs = [i / n_ranges for i in range(1, n_ranges)]
        cuts = np.array(sorted(approx_quantiles(ds, sort_col, qs)),
                        dtype=np.float64) if n_ranges > 1 else \
            np.array([], dtype=np.float64)

    pieces_root = os.path.join(out_dir, "_pieces")
    # pending ranges restart from clean piece dirs (deterministic names
    # make retries safe WITHIN a run; across runs block splits can
    # differ, so stale pieces must not survive)
    for i in pending:
        shutil.rmtree(os.path.join(pieces_root, f"range={i}"),
                      ignore_errors=True)
        os.makedirs(os.path.join(pieces_root, f"range={i}"),
                    exist_ok=True)
    pending_set = set(pending)

    def route(t: pa.Table) -> pa.Table:
        v = t[sort_col].combine_chunks().to_numpy(zero_copy_only=False)
        rid = np.searchsorted(cuts, v, side="right") if len(cuts) \
            else np.zeros(len(v), np.int64)
        fp_lo, fp_hi = _fingerprint_partial(v)
        out_rid, out_n = [], []
        for i in np.unique(rid):
            if int(i) not in pending_set:
                continue
            sub = t.filter(pa.array(rid == i))
            pdir = os.path.join(pieces_root, f"range={int(i)}")
            name = (f"piece-{_table_digest(sub)}-"
                    f"{sub.num_rows}.parquet")
            tmp = os.path.join(pdir, f".tmp-{uuid.uuid4().hex}")
            pq.write_table(sub, tmp)
            os.replace(tmp, os.path.join(pdir, name))
            out_rid.append(int(i))
            out_n.append(sub.num_rows)
        return pa.table({
            "rid": pa.array(out_rid + [-1], pa.int64()),
            "n": pa.array(out_n + [len(v)], pa.int64()),
            "fp_lo": pa.array([0] * len(out_rid) + [fp_lo], pa.int64()),
            "fp_hi": pa.array([0] * len(out_rid) + [fp_hi], pa.int64()),
        })

    total_rows, fp, per_range = 0, 0, {}
    for t in ds.map_batches(route, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow", batch_size=None):
        for rid, n, lo, hi in zip(*(t[c].to_pylist() for c in
                                    ("rid", "n", "fp_lo", "fp_hi"))):
            if rid < 0:
                total_rows += n
                fp = (fp + lo + (hi << 32)) % _FP_MOD
            else:
                per_range[rid] = per_range.get(rid, 0) + n

    if persisted is not None:
        if (persisted["rows"], persisted["checksum"]) != (total_rows, fp):
            raise AssertionError(
                "sorted_export: input changed since the first run "
                f"(rows {persisted['rows']} -> {total_rows}, checksum "
                f"{persisted['checksum']} -> {fp}) -- committed ranges "
                "no longer cover the same data; restart into a fresh "
                "output dir")
    else:
        tmp = cuts_path + f".tmp-{uuid.uuid4().hex}"
        with open(tmp, "w") as f:
            json.dump({"n_ranges": n_ranges,
                       "cuts": [float(c) for c in cuts],
                       "rows": total_rows, "checksum": fp}, f)
        os.replace(tmp, cuts_path)

    @ray.remote
    def finalize(i: int) -> tuple[int, int, int, int]:
        pdir = os.path.join(pieces_root, f"range={i}")
        files = sorted(os.path.join(pdir, f) for f in os.listdir(pdir)
                       if f.endswith(".parquet"))
        if files:
            tab = pa.concat_tables([pq.read_table(f) for f in files])
            order = np.argsort(
                tab[sort_col].combine_chunks().to_numpy(
                    zero_copy_only=False), kind="stable")
            tab = tab.take(pa.array(order))
        else:
            tab = None
        final = os.path.join(out_dir, f"range-{i:05d}.parquet")
        tmp = final + ".tmp"
        if tab is not None and tab.num_rows:
            pq.write_table(tab, tmp)
            os.replace(tmp, final)
            col = tab[sort_col].combine_chunks()
            lo = int(col[0].as_py())
            hi = int(col[-1].as_py())
            n = tab.num_rows
        else:
            lo, hi, n = 0, 0, 0  # empty range: manifest only
        shutil.rmtree(pdir, ignore_errors=True)
        return i, n, lo, hi

    results = ray.get([finalize.remote(i) for i in pending])
    rows = 0
    for i, n, lo, hi in results:
        routed_n = per_range.get(i, 0)
        if n != routed_n:
            raise AssertionError(
                f"sorted_export: range {i} finalized {n} rows but the "
                f"route pass shipped {routed_n} -- piece loss or "
                "digest collision; range NOT committed")
        rows += n
        store.commit(Manifest(
            partition_id=_range_pid(i),
            input_path=f"range:{i}", row_count=n,
            per_sink_counts={"min": lo, "max": hi, "empty": int(n == 0)}))
    _assert_monotone(store, n_ranges)
    return {"written": len(pending), "skipped": n_ranges - len(pending),
            "rows_written": rows}


def _assert_monotone(store: ManifestStore, n_ranges: int) -> None:
    """Committed range manifests must chain monotonically: every
    non-empty range's min >= the previous non-empty range's max."""
    prev_max = None
    for i in range(n_ranges):
        m = store.load(_range_pid(i))
        if m is None or m.per_sink_counts.get("empty"):
            continue
        lo = m.per_sink_counts["min"]
        if prev_max is not None and lo < prev_max:
            raise AssertionError(
                f"sorted_export: range {i} min {lo} < previous max "
                f"{prev_max} -- cut assignment violated")
        prev_max = m.per_sink_counts["max"]
