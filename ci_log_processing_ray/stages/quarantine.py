"""Poison-row quarantine: keep a 100 TB run alive through bad records.

At scale, some rows WILL crash a UDF (corrupt payloads, pathological
inputs).  Ray Data's unit of retry is the whole block, so one poison
row can kill a task forever.  ``safe_map_batches`` wraps the UDF: a
clean batch costs ZERO overhead (one try/except around the normal
call); on failure the batch is bisected -- O(k log n) extra UDF calls
for k poison rows -- good rows flow on, and poison rows land in a
quarantine Parquet directory with the exception string attached
(the dead-letter queue).  Quarantine file names are content-addressed
(md5 of the poison rows), so a retried task overwrites rather than
duplicates -- the same idempotency contract as the flagship's fan-out
writer (pipelines/flagship.py).
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data


def safe_map_batches(
    ds: ray.data.Dataset,
    fn,
    *,
    quarantine_dir: str | None = None,
    out_schema: pa.Schema | None = None,
    **map_kwargs,
) -> ray.data.Dataset:
    """``ds.map_batches(fn)`` that survives row-level UDF failures.

    ``fn`` must be a pyarrow Table -> pyarrow Table batch function.
    ``out_schema`` is required only for the degenerate case where EVERY
    row of some batch is poison (there is then no successful call to
    take the output schema from).
    """

    def wrapped(t: pa.Table) -> pa.Table:
        try:
            return fn(t)  # the zero-overhead happy path
        except Exception:
            pass
        good: list[pa.Table] = []
        bad: list[pa.Table] = []
        errs: list[str] = []

        def bisect(tbl: pa.Table) -> None:
            if len(tbl) == 0:
                return
            try:
                good.append(fn(tbl))
            except Exception as e:
                if len(tbl) == 1:
                    bad.append(tbl)
                    errs.append(repr(e))
                else:
                    mid = len(tbl) // 2
                    bisect(tbl.slice(0, mid))
                    bisect(tbl.slice(mid))

        bisect(t)
        if bad and quarantine_dir is not None:
            quarantine_rows(pa.concat_tables(bad), errs, quarantine_dir)
        if good:
            return pa.concat_tables(good)
        if out_schema is not None:
            return out_schema.empty_table()
        raise ValueError(
            "safe_map_batches: every row of a batch failed and no "
            "out_schema was given to build an empty result from")

    return ds.map_batches(wrapped, batch_format="pyarrow", **map_kwargs)


def quarantine_rows(rows: pa.Table, errors: list[str],
                    quarantine_dir: str) -> None:
    """Write poison rows + their exception strings to the dead-letter
    dir with a content-addressed file name (md5 of the rows): a Ray
    task retry rewrites the SAME file, so quarantine counts stay exact
    across retries -- the idempotency contract shared with
    safe_map_batches and the flagship fan-out writer."""
    qt = rows.append_column("_error", pa.array(errors, type=pa.string()))
    os.makedirs(quarantine_dir, exist_ok=True)
    digest = hashlib.md5(
        b"".join(batch.serialize() for batch
                 in qt.to_batches())).hexdigest()[:16]
    # tmp + rename: a scrape counting the dir never opens a torn file
    path = os.path.join(quarantine_dir, f"poison-{digest}.parquet")
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(qt, tmp)
    os.replace(tmp, path)


def quarantined_rows(quarantine_dir: str) -> int:
    """Total poison rows currently in the quarantine dir
    (content-addressed files -> retry-stable)."""
    if not os.path.isdir(quarantine_dir):
        return 0
    return sum(pq.ParquetFile(os.path.join(quarantine_dir, f)).metadata.num_rows
               for f in os.listdir(quarantine_dir) if f.endswith(".parquet"))
