"""Corpus readers: the build_meta lookup side of the enrichment join
and a stripe-parallel ORC ingest.

The flagship reads its log parquet through
``pipelines/flagship.py:_WholeFileParquet`` (one read task per file);
resume filtering (the BuildCache anti-join, logscraper.py:457-468)
happens on the file list before the read via state/manifest.py.
"""

from __future__ import annotations

from typing import Optional, Sequence

import pyarrow.parquet as pq
import ray.data


def load_build_meta(path: str) -> "pyarrow.Table":  # noqa: F821
    """Load the small build_meta lookup side eagerly on the driver.

    This is the broadcast side of the enrichment join (J1, SURVEY.md 2.4):
    one row per build, O(builds) rows total -- orders of magnitude smaller
    than the log-line table, so it is ray.put() once and read once per
    enrich worker process, never shuffled.
    """
    return pq.read_table(path)


def read_orc(
    paths: str | Sequence[str],
    *,
    columns: Optional[list[str]] = None,
) -> ray.data.Dataset:
    """ORC ingest with STRIPE-granular parallelism (this Ray version
    ships no ``read_orc``): the driver lists only footers -- one cheap
    metadata open per file, never row data -- and emits a (path,
    stripe) task table; workers then read their assigned stripes
    column-pruned via ``pyarrow.orc``.  Stripes are ORC's natural
    block unit (like parquet row groups), so a 100-file / 10k-stripe
    corpus fans out 10k independent reads instead of 100 whole-file
    decodes, and ``columns=`` prunes at the stripe read exactly like
    the parquet path.

    Files must be reachable from workers (shared storage on a real
    cluster; local disk here)."""
    import os as _os

    import pyarrow as pa
    from pyarrow import orc as paorc

    if isinstance(paths, str):
        if _os.path.isdir(paths):
            files = sorted(
                _os.path.join(paths, f) for f in _os.listdir(paths)
                if f.endswith(".orc"))
        else:
            files = [paths]
    else:
        files = sorted(paths)

    items = []
    for p in files:
        f = paorc.ORCFile(p)
        items.extend({"path": p, "stripe": i}
                     for i in range(f.nstripes))

    def load(t: "pa.Table") -> "pa.Table":
        out = []
        for path, stripe in zip(t["path"].to_pylist(),
                                t["stripe"].to_pylist()):
            f = paorc.ORCFile(path)
            out.append(pa.Table.from_batches(
                [f.read_stripe(stripe, columns=columns)]))
        return pa.concat_tables(out)

    # one task per stripe: batch_size=1 keeps reads independent
    return ray.data.from_items(items).map_batches(
        load, batch_format="pyarrow", batch_size=1)
