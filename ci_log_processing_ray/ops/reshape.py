"""Reshape operators: list explode (UNNEST WITH ORDINALITY).

The reference flattens nested payloads in two places -- the performance
JSON flattener (logsender.py:372-407, one output doc per leaf metric)
and the subunit normalizer (one doc per test) -- both expressed here as
batch-local explodes.  ``explode_list`` is the generic primitive: each
list element becomes its own row, carrying its parent's id columns and
a 1-based ordinal.  Fully vectorized (offset arithmetic + one ``take``
per id column); embarrassingly parallel -- no shuffle, so it streams at
any scale and output blocks grow only by the mean list length.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data


def explode_table(
    t: pa.Table,
    list_col: str,
    id_cols: list[str],
    *,
    pos_col: str = "pos",
    out_col: str = "val",
) -> pa.Table:
    """Explode one Arrow batch: one output row per list element.

    Null or empty lists contribute no rows (UNNEST semantics).  The
    ordinal is 1-based to match SQL ``generate_subscripts``/``WITH
    ORDINALITY``.
    """
    arr = t[list_col].combine_chunks()
    if pa.types.is_null(arr.type):
        # a block whose list column is entirely null (untyped) explodes
        # to zero rows
        arr = pa.array([], type=pa.list_(pa.null()))
        t = t.slice(0, 0)
    lens = pc.list_value_length(arr)
    lens = pc.fill_null(lens, 0).to_numpy(zero_copy_only=False).astype(np.int64)
    total = int(lens.sum())
    parent = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    starts = np.repeat(np.cumsum(lens) - lens, lens)
    pos = np.arange(total, dtype=np.int64) - starts + 1
    flat = pc.list_flatten(arr)
    parent_idx = pa.array(parent)
    cols = {c: t[c].combine_chunks().take(parent_idx) for c in id_cols}
    cols[pos_col] = pa.array(pos)
    cols[out_col] = flat
    return pa.table(cols)


def melt(
    ds: ray.data.Dataset,
    id_cols: list[str],
    value_cols: list[str],
    *,
    var_name: str = "variable",
    value_name: str = "value",
) -> ray.data.Dataset:
    """Unpivot wide columns into (variable, value) rows -- SQL UNPIVOT /
    pandas ``melt``.  Every ``value_cols`` entry must share one type.

    Pure batch-local map: each block emits ``len(value_cols)`` zero-copy
    column slices stacked with ``pa.concat_tables`` -- no shuffle, no
    row loop, so it streams at any scale and output size is exactly
    ``n_value_cols`` x input rows."""

    def m(t: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            cols = {k: t[k] for k in id_cols}
            cols[var_name] = pa.repeat(pa.scalar(c, pa.string()), len(t))
            cols[value_name] = t[c]
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(m, batch_format="pyarrow", zero_copy_batch=True)


def explode_list(
    ds: ray.data.Dataset,
    list_col: str,
    id_cols: list[str],
    *,
    pos_col: str = "pos",
    out_col: str = "val",
) -> ray.data.Dataset:
    """Dataset-level explode: ``map_batches`` over Arrow blocks, no
    shuffle.  Batch size is left to the executor; for very long lists
    pass a smaller ``override_num_blocks`` at read time instead."""
    return ds.map_batches(
        lambda t: explode_table(t, list_col, id_cols,
                                pos_col=pos_col, out_col=out_col),
        batch_format="pyarrow", zero_copy_batch=True)


def union_by_name(
    datasets: "list[ray.data.Dataset]",
) -> "ray.data.Dataset":
    """Schema-evolution union: concatenate datasets whose schemas
    drifted (columns added / dropped across snapshots) by aligning
    columns BY NAME -- missing columns fill with typed nulls, the
    output schema is the first-seen type per name in input order.
    Disagreeing types for the same name fail loudly.

    Each input is materialized once (``_arrowized``) so its schema
    comes from its blocks, not from a ``limit(1)`` run of its plan; each
    block then projects onto the unified schema (a map, no shuffle) and
    ``Dataset.union`` concatenates them."""
    from .relational import _arrowized

    schemas = [_arrowized(d) for d in datasets]
    unified: dict = {}
    for _, s in schemas:
        for f in s:
            if f.name in unified:
                if unified[f.name] != f.type:
                    raise TypeError(
                        f"column {f.name!r}: {unified[f.name]} vs {f.type}")
            else:
                unified[f.name] = f.type
    target = pa.schema(list(unified.items()))

    def project(t: pa.Table) -> pa.Table:
        cols = {}
        for name in target.names:
            cols[name] = (t[name] if name in t.column_names
                          else pa.nulls(len(t), target.field(name).type))
        return pa.table(cols, schema=target)

    parts = [d.map_batches(project, batch_format="pyarrow",
                           zero_copy_batch=True) for d, _ in schemas]
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out
