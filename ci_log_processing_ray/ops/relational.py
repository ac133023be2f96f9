"""Relational operators Ray Data lacks natively, composed from
groupby/map_groups + map_batches per SURVEY.md §2.4 guidance.

* ``asof_join_grouped`` -- backward as-of join (each left row matched to
  the latest right row with right_ts <= left_ts, same key).  Ray Data
  has no as-of join; we co-partition BOTH sides in ONE shuffle by
  tagging rows with a side marker, unioning, and grouping by key: the
  per-group kernel is then a textbook sorted merge (pandas merge_asof).
  Partitioning assumption: one join key's rows fit in one group (true
  for per-user/per-host telemetry; salt by time range if a key is hot).
* ``window_topk`` -- per-group top-k by an ordering column with
  deterministic tie-break, via groupby().map_groups.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data


def _arrowized(ds: "ray.data.Dataset"):
    """Materialize a dataset as Arrow blocks; return (ds, pa.Schema).

    Pandas-block sources (from_pandas / from_items) report a
    PandasBlockSchema; the typed-union construction in the co-partition
    joins below needs one Arrow schema model.  The schema is read off
    the materialized blocks: ``Dataset.schema()`` on an unexecuted plan
    runs ``limit(1)`` of it and cancels the rest of its tasks, and Ray
    2.49's core can abort the calling process on a task completing
    mid-cancel."""
    ds = ds.map_batches(lambda t: t, batch_format="pyarrow",
                        zero_copy_batch=True).materialize()
    return ds, ds.schema().base_schema


def asof_join_grouped(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    key: str,
    left_on: str,
    right_on: str,
    left_cols: list[str],
    right_cols: list[str],
    out_suffix: str = "_matched",
    direction: str = "backward",
) -> ray.data.Dataset:
    """As-of join; returns left_cols + [right_on + out_suffix]
    + right_cols.  ``direction='backward'`` matches the latest right
    row with right_ts <= left_ts (unmatched rows get nulls);
    ``'forward'`` matches the earliest right row with
    right_ts >= left_ts."""

    import pyarrow as pa

    left, lschema = _arrowized(left)
    right, rschema = _arrowized(right)
    ltypes = {n: lschema.field(n).type for n in [key] + left_cols + [left_on]}
    rtypes = {n: rschema.field(n).type for n in right_cols + [right_on]}
    # one fixed Arrow schema for BOTH tagged sides -- union stays typed
    unified = pa.schema(
        [(key, ltypes[key])] + [(c, ltypes[c]) for c in left_cols]
        + [("_ts", ltypes[left_on]), ("_side", pa.int8())]
        + [(c, rtypes[c]) for c in right_cols])

    def tag_left(t: pa.Table) -> pa.Table:
        n = len(t)
        cols = ([t[key]] + [t[c] for c in left_cols]
                + [t[left_on], pa.nulls(n, pa.int8()).fill_null(0)]
                + [pa.nulls(n, rtypes[c]) for c in right_cols])
        return pa.table(dict(zip(unified.names, cols)), schema=unified)

    def tag_right(t: pa.Table) -> pa.Table:
        n = len(t)
        cols = ([t[key]] + [pa.nulls(n, ltypes[c]) for c in left_cols]
                + [t[right_on], pa.nulls(n, pa.int8()).fill_null(1)]
                + [t[c] for c in right_cols])
        return pa.table(dict(zip(unified.names, cols)), schema=unified)

    lt = left.map_batches(tag_left, batch_format="pyarrow")
    rt = right.map_batches(tag_right, batch_format="pyarrow")
    both = lt.union(rt)

    matched = right_on + out_suffix
    # explicit output schema: the unioned group frame holds NaN for the
    # other side's columns, so pandas upcasts int64 -> float64; emitting
    # an Arrow table with the source types (from_pandas semantics map
    # NaN back to null) restores exact dtypes for the driver's hash.
    out_schema = pa.schema(
        [(c, ltypes[c]) for c in left_cols]
        + [(matched, rtypes[right_on])]
        + [(c, rtypes[c]) for c in right_cols])
    empty = pa.table(
        {name: pa.nulls(0, out_schema.field(name).type)
         for name in out_schema.names}, schema=out_schema)

    def merge(g: pd.DataFrame) -> pa.Table:
        # whole-BUCKET vectorized pointer sweep: ONE lexsort by
        # (key, ts, right-before-left) + a grouped running max of "last
        # right row seen" resolves every left row's match -- ~6 numpy
        # passes per bucket.  (pd.merge_asof(by=key) did the same job
        # through its per-key groupby machinery and measured ~2/3 of the
        # whole 50M-row join's wall time; this kernel cut the full op
        # 62.6 -> ~30 s at calib-comparable load.)
        side = g["_side"].to_numpy()
        if not (side == 0).any():
            return empty
        ts_np = g["_ts"].to_numpy()
        sort_ts = (ts_np.view("i8")
                   if ts_np.dtype.kind in "Mm" else ts_np)
        if direction == "forward":
            sort_ts = -sort_ts  # mirrored sweep: earliest rt >= lt
        _, kcode = np.unique(g[key].to_numpy(), return_inverse=True)
        kcode = kcode.astype(np.int64)
        m = len(g)
        # rights first on ties: backward wants rt <= lt inclusive (and
        # the forward mirror likewise includes equality)
        order = np.lexsort((1 - side, sort_ts, kcode))
        ks, ss = kcode[order], side[order]
        val = np.where(ss == 1, np.arange(m, dtype=np.int64), -1)
        # grouped running max via the order-encode trick: every element
        # of key block k encodes >= k*(m+1) > any earlier block's encode
        enc = ks * np.int64(m + 1) + (val + 1)
        ptr = np.maximum.accumulate(enc) - ks * np.int64(m + 1) - 1
        lmask = ss == 0
        p = ptr[lmask]
        unmatched = p < 0
        pc_ = np.where(unmatched, 0, p)

        def right_vals(col_np):
            vals = col_np[order][pc_]
            return pa.array(pd.Series(vals), mask=unmatched,
                            from_pandas=True)

        cols = {c: pa.array(pd.Series(g[c].to_numpy()[order][lmask]),
                            from_pandas=True)
                for c in left_cols}
        cols[matched] = right_vals(ts_np)
        for c in right_cols:
            cols[c] = right_vals(g[c].to_numpy())
        return pa.table(cols).cast(out_schema)

    from .window import bucketed_groups

    return bucketed_groups(both, key, merge)


def window_topk(
    ds: ray.data.Dataset,
    group_col: str,
    order_col: str,
    k: int,
    *,
    descending: bool = True,
    tiebreak_col: str | None = None,
) -> ray.data.Dataset:
    """Top-k rows per group by order_col (row_number-style window):
    one coarse bucketed shuffle (ops/window.py:bucketed_groups), then a
    single whole-bucket sort + cython groupby-head per bucket -- no
    per-distinct-key dispatch.  The deterministic tie-break makes
    results partition-invariant."""
    from .window import bucketed_groups

    by = [group_col, order_col] + ([tiebreak_col] if tiebreak_col else [])
    asc = [True, not descending] + ([True] if tiebreak_col else [])

    def head(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(by, ascending=asc, kind="mergesort")
        return g.groupby(group_col, sort=False).head(k)

    return bucketed_groups(ds, group_col, head)


def range_join_count(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    key: str,
    left_on: str,
    right_on: str,
    left_id: str,
    window,
) -> ray.data.Dataset:
    """Range join, counted: for each left row, the number of right rows
    of the same key with right_on in [left_on - window, left_on].

    Same co-partitioning trick as the as-of join (ONE shuffle, both
    sides tagged and unioned), but the per-group kernel is two
    searchsorted lookups against the group's sorted right timestamps --
    O((nl + nr) log nr) per key, exact for ties (closed interval on
    both ends, matching SQL BETWEEN).
    """
    import numpy as np
    import pyarrow as pa

    left, lschema = _arrowized(left)
    right, rschema = _arrowized(right)
    unified = pa.schema([
        (key, lschema.field(key).type),
        (left_id, lschema.field(left_id).type),
        ("_ts", lschema.field(left_on).type),
        ("_side", pa.int8()),
    ])

    def tag_left(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({key: t[key], left_id: t[left_id],
                         "_ts": t[left_on],
                         "_side": pa.nulls(n, pa.int8()).fill_null(0)},
                        schema=unified)

    def tag_right(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({key: t[key],
                         left_id: pa.nulls(n, lschema.field(left_id).type),
                         "_ts": t[right_on],
                         "_side": pa.nulls(n, pa.int8()).fill_null(1)},
                        schema=unified)

    both = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow"))

    # explicit Arrow output schema -- the unioned group frame upcasts
    # the (NaN-bearing) left_id column to float64; cast back on emit.
    id_type = lschema.field(left_id).type
    out_schema = pa.schema([(left_id, id_type), ("n_in_window", pa.int64())])
    empty = pa.table({left_id: pa.nulls(0, id_type),
                      "n_in_window": pa.nulls(0, pa.int64())},
                     schema=out_schema)

    def count_in_window(g: pd.DataFrame) -> pa.Table:
        # whole-bucket kernel: one sort by (key, ts), then searchsorted
        # per contiguous key SLICE (numpy views; the slice loop runs
        # in-worker, it is not a per-key shuffle dispatch)
        g = g.sort_values([key, "_ts"], kind="mergesort")
        side = g["_side"].to_numpy()
        ts = g["_ts"].to_numpy()
        keys = g[key].to_numpy()
        ids = g[left_id].to_numpy()
        n = len(g)
        if n == 0 or not (side == 0).any():
            return empty
        bounds = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        bounds = np.append(bounds, n)
        id_parts, cnt_parts = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            is_r = side[s:e] == 1
            l_ts = ts[s:e][~is_r]
            if len(l_ts) == 0:
                continue
            r_ts = ts[s:e][is_r]  # already sorted within the slice
            hi = np.searchsorted(r_ts, l_ts, side="right")
            lo = np.searchsorted(r_ts, l_ts - window, side="left")
            id_parts.append(ids[s:e][~is_r])
            cnt_parts.append(hi - lo)
        return pa.table(
            {left_id: pa.array(np.concatenate(id_parts), type=id_type,
                               from_pandas=True),
             "n_in_window": pa.array(
                 np.concatenate(cnt_parts).astype(np.int64))},
            schema=out_schema)

    from .window import bucketed_groups

    return bucketed_groups(both, key, count_in_window)


# ---------------------------------------------------------------------------
# Bloom-filter semi join: approximate pre-filter + exact verify join
# ---------------------------------------------------------------------------
def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain mixing constants)."""
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15))
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def build_bloom(keys: np.ndarray, *, bits_per_key: int = 16,
                n_hashes: int = 4) -> tuple[np.ndarray, int, int]:
    """Bit array (packed uint64) for the key set; about 0.1 percent false positives
    at 16 bits/key, 4 hashes."""
    keys = keys.astype(np.int64).view(np.uint64)
    m = max(1024, int(len(keys) * bits_per_key))
    words = np.zeros((m + 63) // 64, dtype=np.uint64)
    for i in range(n_hashes):
        h = _splitmix64(keys + np.uint64(i * 0x51_7C_C1_B7_27_22_0A_95))
        pos = h % np.uint64(m)
        np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))
    return words, m, n_hashes


def bloom_contains(words: np.ndarray, m: int, n_hashes: int,
                   keys: np.ndarray) -> np.ndarray:
    """Vectorized membership probe; false positives possible, false
    negatives never."""
    keys = keys.astype(np.int64).view(np.uint64)
    ok = np.ones(len(keys), dtype=bool)
    for i in range(n_hashes):
        h = _splitmix64(keys + np.uint64(i * 0x51_7C_C1_B7_27_22_0A_95))
        pos = h % np.uint64(m)
        bit = (words[(pos >> np.uint64(6)).astype(np.int64)]
               >> (pos & np.uint64(63))) & np.uint64(1)
        ok &= bit.astype(bool)
    return ok


def bloom_semi_join(
    fact: "ray.data.Dataset",
    fact_key: str,
    dim: "ray.data.Dataset",
    dim_key: str,
    *,
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """EXACT semi join with a broadcast Bloom pre-filter: the dim-side
    key set builds a bit array shipped once (``ray.put``); a pure map
    drops ~all non-matching fact rows BEFORE the join shuffle, and the
    surviving sliver goes through a hash semi join for exactness (the
    Bloom filter admits false positives, the join removes them; false
    negatives cannot occur, so the result is exactly the semi join).

    At 100 TB this is the difference between shuffling the whole fact
    table and shuffling only the matching fraction.  The dim side must
    be broadcast-sized (the same contract as any broadcast join).
    """
    import pyarrow.compute as pc

    dim_keys = dim.to_pandas()[dim_key].to_numpy()
    words, m, k = build_bloom(np.unique(dim_keys))
    bloom_ref = ray.put((words, m, k))

    def prefilter(t: pa.Table) -> pa.Table:
        w, mm, kk = ray.get(bloom_ref)
        keys = t[fact_key].combine_chunks().to_numpy(zero_copy_only=False)
        return t.filter(pa.array(bloom_contains(w, mm, kk, keys)))

    survivors = fact.map_batches(prefilter, batch_format="pyarrow",
                                 zero_copy_batch=True)
    n_part = num_partitions or max(
        2, int(ray.cluster_resources().get("CPU", 8)) // 2)
    return survivors.join(dim.select_columns([dim_key]), "left_semi",
                          num_partitions=n_part,
                          on=(fact_key,), right_on=(dim_key,))


# ---------------------------------------------------------------------------
# Salted large-large join: defuse hot-key skew with key salting
# ---------------------------------------------------------------------------
def salted_join(
    fact: "ray.data.Dataset",
    dim: "ray.data.Dataset",
    fact_key: str,
    dim_key: str,
    salt_src: str,
    *,
    n_salt: int = 8,
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """Inner join where the FACT side's hot keys are spread across
    ``n_salt`` sub-partitions: each fact row gets salt =
    hash(salt_src) % n_salt (``salt_src`` is any unique-ish fact
    column), the dim side is replicated once per salt value, and the
    join runs on (key, salt).  A key with 10M fact rows therefore lands
    on n_salt reducers instead of one -- the classic skew fix -- at the
    cost of a x n_salt dim-side replication (cheap when dim << fact).
    Result rows are exactly the unsalted inner join's."""
    import pyarrow.compute as pc

    def add_salt(t: pa.Table) -> pa.Table:
        src = t[salt_src].combine_chunks().to_numpy(zero_copy_only=False)
        salt = (pd.util.hash_array(np.ascontiguousarray(src))
                % n_salt).astype(np.int64)
        return t.append_column("_salt", pa.array(salt))

    def replicate(t: pa.Table) -> pa.Table:
        n = len(t)
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), n_salt))
        rep = t.take(idx)
        salt = np.tile(np.arange(n_salt, dtype=np.int64), n)
        return rep.append_column("_salt", pa.array(salt))

    salted_fact = fact.map_batches(add_salt, batch_format="pyarrow",
                                   zero_copy_batch=True)
    salted_dim = dim.map_batches(replicate, batch_format="pyarrow",
                                 zero_copy_batch=True)
    n_part = num_partitions or max(
        2, int(ray.cluster_resources().get("CPU", 8)) // 2)
    return salted_fact.join(
        salted_dim, "inner", num_partitions=n_part,
        on=(fact_key, "_salt"), right_on=(dim_key, "_salt"))


def interval_overlap_join(
    ds: ray.data.Dataset,
    key_col: str,
    start_col: str,
    end_col: str,
    id_cols: list[str],
    *,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Key-equality + interval-overlap SELF join: every unordered pair
    of rows sharing ``key_col`` whose closed ``[start, end]`` windows
    intersect, emitted once with the pair canonicalized by the
    ``id_cols`` tuple (a_* < b_*) plus the integer overlap length in
    days.  The SQL shape is ``a JOIN b ON a.key = b.key AND
    (a.ids) < (b.ids) AND a.start <= b.end AND b.start <= a.end``.

    Scale shape: ONE coarse key-hash bucketed shuffle co-locates each
    key's intervals (ops/window.py:bucketed_groups -- no per-key
    dispatch); inside a bucket the kernel sorts by (key, start) once
    and finds every partner with a single vectorized searchsorted over
    segment-offset-encoded starts: within a start-sorted segment, row i
    overlaps exactly the rows i+1..upper_i where upper_i is the last
    start <= end_i, so candidate generation is repeat+arange -- no
    per-row or per-key Python, and no candidate ever crosses a bucket.
    Output cardinality is sum over keys of the true overlap count, so a
    hot key with n co-keyed intervals costs O(n log n + pairs); salt on
    a time grid if one key's intervals exceed a worker."""

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, start_col] + id_cols,
                          kind="mergesort", ignore_index=True)
        start = g[start_col].to_numpy().astype("datetime64[D]").astype(np.int64)
        end = g[end_col].to_numpy().astype("datetime64[D]").astype(np.int64)
        # segment id per distinct key, in sorted order
        keys = g[key_col].to_numpy()
        new_seg = np.empty(len(g), dtype=bool)
        new_seg[0] = True
        new_seg[1:] = keys[1:] != keys[:-1]
        seg = np.cumsum(new_seg) - 1
        # offset-encode so one global searchsorted respects segments:
        # values within a segment stay sorted, segments never interleave
        # (re-based to >= 0 so pre-epoch dates cannot cross segments)
        base = start.min() if len(start) else 0
        enc = seg * (1 << 33) + (start - base)
        upper = np.searchsorted(enc, seg * (1 << 33) + (end - base),
                                side="right")
        i0 = np.arange(len(g), dtype=np.int64)
        cnt = np.maximum(upper - (i0 + 1), 0)
        li = np.repeat(i0, cnt)
        offs = np.concatenate([[0], np.cumsum(cnt)])
        ri = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(
            offs[:-1], cnt) + li + 1
        if len(li) == 0:
            cols = {key_col: keys[:0]}
            for p in ("a", "b"):
                for c in id_cols:
                    cols[f"{p}_{c}"] = g[c].to_numpy()[:0]
            cols["overlap_days"] = np.array([], np.int64)
            return pd.DataFrame(cols)
        # canonical order by id tuple (sort order guarantees start_li <=
        # start_ri but not id order)
        swap = np.zeros(len(li), dtype=bool)
        undecided = np.ones(len(li), dtype=bool)
        for c in id_cols:
            v = g[c].to_numpy()
            swap |= undecided & (v[li] > v[ri])
            undecided &= v[li] == v[ri]
        ai = np.where(swap, ri, li)
        bi = np.where(swap, li, ri)
        ov = (np.minimum(end[li], end[ri])
              - np.maximum(start[li], start[ri]))
        cols = {key_col: keys[li]}
        for p, idx in (("a", ai), ("b", bi)):
            for c in id_cols:
                cols[f"{p}_{c}"] = g[c].to_numpy()[idx]
        cols["overlap_days"] = ov
        return pd.DataFrame(cols)

    from .window import bucketed_groups

    return bucketed_groups(ds, key_col, kern, n_buckets=n_buckets)


def cooccurrence_pairs(
    ds: "ray.data.Dataset",
    key_col: str,
    item_col: str,
    *,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Market-basket co-occurrence with association-rule confidence:
    for every unordered item pair (a < b), the number of keys (users /
    baskets) containing BOTH, each item's own key count, and the
    integer-permille confidences ``1000*n_ab // n_a`` (a=>b) and
    ``// n_b`` (b=>a) -- the k=2 frequent-itemset primitive.

    Scale shape: rows collapse to DISTINCT (key, item) pairs first
    (per-block unique partial, one key-hash exchange); the pair
    expansion runs per key-bucket as a vectorized self-merge (output
    bounded by sum over keys of items_per_key^2 -- cap item domains
    upstream for heavy-basket data); item counts ride the same
    distinct table.  The final exchange carries (a, b, n) partials,
    item-vocabulary^2-bounded, never rows.

    The wide steps use coarse-bucket pandas kernels
    (ops/window.py:bucketed_distinct / bucketed_sum) -- (key, item) and
    (a, b) cardinalities are corpus-shaped, the regime where
    Dataset.groupby's native aggregate pays per-distinct-group merge
    cost."""
    from .window import bucketed_distinct, bucketed_groups, bucketed_sum

    def distinct_partial(t: pa.Table) -> pa.Table:
        return (t.select([key_col, item_col])
                .group_by([key_col, item_col]).aggregate([]))

    distinct = (bucketed_distinct(
        ds.map_batches(distinct_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key_col, item_col], n_buckets=n_buckets)
        .materialize())

    import ray as _ray

    # rows of `distinct` are unique (key, item) pairs, so a row count
    # per item IS the item's distinct-key support (item vocabulary is
    # broadcast-sized by contract, so one C-speed kernel per bucket)
    def item_count_kern(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(item_col, as_index=False, sort=False)
                .size().rename(columns={"size": "n"}))

    item_counts = (bucketed_groups(distinct, item_col, item_count_kern,
                                   n_buckets=n_buckets)
                   .to_pandas().sort_values(item_col))
    counts_ref = _ray.put(dict(zip(
        item_counts[item_col], item_counts["n"].astype(np.int64))))

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on=key_col, suffixes=("_a", "_b"))
        m = m[m[f"{item_col}_a"] < m[f"{item_col}_b"]]
        out = (m.groupby([f"{item_col}_a", f"{item_col}_b"],
                         as_index=False, sort=False)
               .size().rename(columns={"size": "n_ab",
                                       f"{item_col}_a": "a",
                                       f"{item_col}_b": "b"}))
        out["n_ab"] = out["n_ab"].astype(np.int64)
        return out

    agg = bucketed_sum(
        bucketed_groups(distinct, key_col, pairs, n_buckets=n_buckets),
        ["a", "b"], ["n_ab"], n_buckets=n_buckets)

    def finish(t: pa.Table) -> pa.Table:
        lut = _ray.get(counts_ref)
        a = t["a"].combine_chunks()
        b = t["b"].combine_chunks()
        n_ab = t["n_ab"].combine_chunks().to_numpy()
        n_a = np.array([lut[x] for x in a.to_pylist()], np.int64)
        n_b = np.array([lut[x] for x in b.to_pylist()], np.int64)
        return pa.table({
            "a": a, "b": b,
            "n_ab": pa.array(n_ab),
            "n_a": pa.array(n_a), "n_b": pa.array(n_b),
            "conf_ab_permille": pa.array(1000 * n_ab // n_a),
            "conf_ba_permille": pa.array(1000 * n_ab // n_b)})

    return agg.map_batches(finish, batch_format="pyarrow")


def triangle_count(
    ds: "ray.data.Dataset",
    key_col: str,
    item_col: str,
    *,
    min_support: int = 1,
    num_partitions: int = 8,
    n_buckets: int | None = None,
) -> pa.Table:
    """Triangle count of the item co-occurrence graph (items are nodes;
    an edge joins two items sharing >= ``min_support`` keys): the
    classic distributed graph benchmark, counted as canonical wedges
    closed by an edge lookup.  Returns one row (n_edges, n_triangles).

    Scale shape: rows collapse to DISTINCT (key, item); edges build
    per key-bucket by vectorized self-merge and dedup/count through
    ONE (a, b) exchange.  ``min_support`` is the wedge-explosion
    guard: co-occurrence graphs over heavy baskets go dense, and wedge
    volume is sum(deg^2) -- raise support (or cap basket size
    upstream) to keep the joined volume graph-shaped.  The edge table
    (graph-sized, not corpus-sized) is materialized once and reused
    across both hash joins: wedges = edges |><| edges on b=a' (every
    a<b<c path), closed against the edge set on (a, c).  Canonical
    a<b ordering means each triangle is counted exactly once with no
    orientation dedup.

    Both wide steps use the coarse-bucket pandas kernels
    (ops/window.py:bucketed_distinct / bucketed_sum): edge-pair key
    cardinality is corpus-shaped, where Dataset.groupby's native
    aggregate pays per-distinct-group merge cost."""
    from .window import bucketed_distinct, bucketed_groups, bucketed_sum

    def distinct_partial(t: pa.Table) -> pa.Table:
        return (t.select([key_col, item_col])
                .group_by([key_col, item_col]).aggregate([]))

    distinct = bucketed_distinct(
        ds.map_batches(distinct_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key_col, item_col], n_buckets=n_buckets)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on=key_col, suffixes=("_a", "_b"))
        m = m[m[f"{item_col}_a"] < m[f"{item_col}_b"]]
        out = (m.groupby([f"{item_col}_a", f"{item_col}_b"],
                         as_index=False, sort=False).size()
               .rename(columns={"size": "n_keys",
                                f"{item_col}_a": "a",
                                f"{item_col}_b": "b"}))
        out["n_keys"] = out["n_keys"].astype(np.int64)
        return out

    def apply_support(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = t.filter(pc.greater_equal(t["n_keys"].combine_chunks(),
                                      min_support))
        return t.select(["a", "b"])

    edges = (bucketed_sum(
        bucketed_groups(distinct, key_col, pairs, n_buckets=n_buckets),
        ["a", "b"], ["n_keys"], n_buckets=n_buckets)
        .map_batches(apply_support, batch_format="pyarrow")
        .materialize())
    n_edges = edges.count()

    e2 = edges.map_batches(
        lambda t: pa.table({"b2": t["a"], "c": t["b"]}),
        batch_format="pyarrow")
    wedges = edges.join(e2, "inner", num_partitions=num_partitions,
                        on=("b",), right_on=("b2",))
    e3 = edges.map_batches(
        lambda t: pa.table({"a3": t["a"], "c3": t["b"]}),
        batch_format="pyarrow")
    tri = wedges.join(e3, "inner", num_partitions=num_partitions,
                      on=("a", "c"), right_on=("a3", "c3"))
    return pa.table({"n_edges": pa.array([n_edges], pa.int64()),
                     "n_triangles": pa.array([tri.count()], pa.int64())})


def caliper_match(
    ds: "ray.data.Dataset",
    id_col: str,
    score_col: str,
    treat_col: str,
    *,
    caliper: int,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """1-nearest-neighbor matching with replacement under a caliper
    (the propensity-score matching step of observational causal
    inference): each treated row matches the control with the minimum
    absolute score distance <= ``caliper``, ties broken by the smaller
    control id; treated rows with no control inside the caliper are
    dropped.  Scores must be int64 (use cents/permille upstream) so
    the distance ordering is exact.

    Scale shape: rows range-bucket by ``score // caliper`` -- the
    nearest in-caliper control of a treated row can only live in the
    same or an adjacent bucket, so controls replicate to a bounded 3x
    halo (the same home/halo contract as the DBSCAN eps-grid) and
    each bucket resolves independently: controls sort once per bucket,
    treated rows probe via searchsorted (run-start indexing makes the
    min-id tie-break exact even with duplicate control scores) -- no
    all-pairs join anywhere.  Output: treated_id, control_id, dist
    (all int64)."""
    from .window import bucketed_groups

    def to_cells(t: pa.Table) -> pa.Table:
        ids = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        s = t[score_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        treat = t[treat_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(bool)
        b = s // caliper
        t_ids, t_s, t_b = ids[treat], s[treat], b[treat]
        c_ids, c_s, c_b = ids[~treat], s[~treat], b[~treat]
        rep3 = lambda a: np.repeat(a, 3)  # noqa: E731
        halo_b = rep3(c_b) + np.tile(
            np.array([-1, 0, 1], np.int64), len(c_b))
        return pa.table({
            "bkt": np.concatenate([t_b, halo_b]),
            "role": np.concatenate([np.zeros(len(t_b), np.int64),
                                    np.ones(3 * len(c_b), np.int64)]),
            "rid": np.concatenate([t_ids, rep3(c_ids)]),
            "s": np.concatenate([t_s, rep3(c_s)])})

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        tr = g[g["role"] == 0]
        co = g[g["role"] == 1].sort_values(["s", "rid"],
                                           kind="mergesort")
        empty = pd.DataFrame({
            "treated_id": pd.Series([], dtype=np.int64),
            "control_id": pd.Series([], dtype=np.int64),
            "dist": pd.Series([], dtype=np.int64)})
        if not len(tr) or not len(co):
            return empty
        cs = co["s"].to_numpy(np.int64)
        cid = co["rid"].to_numpy(np.int64)
        ts = tr["s"].to_numpy(np.int64)
        tid = tr["rid"].to_numpy(np.int64)
        n = len(cs)
        big = np.int64(caliper) + 1
        pos = np.searchsorted(cs, ts, side="left")
        has_r = pos < n
        pr = np.clip(pos, 0, n - 1)
        d_r = np.where(has_r, cs[pr] - ts, big)
        i_r = cid[pr]
        has_l = pos > 0
        pl = np.clip(pos - 1, 0, n - 1)
        lf = np.searchsorted(cs, cs[pl], side="left")
        d_l = np.where(has_l, ts - cs[pl], big)
        i_l = cid[lf]
        pick_r = (d_r < d_l) | ((d_r == d_l) & (i_r < i_l))
        d = np.where(pick_r, d_r, d_l)
        c = np.where(pick_r, i_r, i_l)
        ok = d <= caliper
        return pd.DataFrame({"treated_id": tid[ok],
                             "control_id": c[ok],
                             "dist": d[ok]})

    return bucketed_groups(
        ds.map_batches(to_cells, batch_format="pyarrow",
                       zero_copy_batch=True),
        "bkt", kern, n_buckets=n_buckets)


def butterfly_count(
    ds: "ray.data.Dataset",
    key_col: str,
    item_col: str,
    *,
    max_degree: int | None = None,
    n_buckets: int | None = None,
) -> pa.Table:
    """Butterfly (bipartite 4-cycle / 2x2 biclique) count of the
    key-item graph: the bipartite analogue of the triangle benchmark
    and the motif behind user-item co-engagement and spam-cluster
    detection.  Counted as item-centered wedges: every pair of keys
    sharing an item is one wedge, a key pair sharing ``c`` items closes
    ``C(c, 2)`` butterflies.  Returns one row
    (n_edges, n_wedges, n_butterflies), all int64.

    Scale shape: rows collapse to DISTINCT (key, item) blockwise then
    through one corpus exchange; wedges generate per item-bucket by
    vectorized self-merge (each item is wholly inside one bucket) and
    combine through ONE (k1, k2) exchange whose volume is the wedge
    count -- graph-motif-shaped, not corpus-shaped.  ``max_degree`` is
    the wedge-explosion guard: a hub item of degree d emits C(d, 2)
    wedges, so per-bucket joined volume is bounded by
    max_degree * edges once the cap is set (the standard vertex-cap
    from the butterfly-counting literature; side choice matters too --
    center wedges on the side with the smaller sum(deg^2), here the
    item side).  Per-bucket kept-edge counts ride the pair exchange as
    (-1, -1) sentinel rows (key ids must therefore be non-negative
    integers), and final tallies fold through Python ints so 2^63-scale
    butterfly totals cannot wrap silently."""
    from .window import bucketed_distinct, bucketed_groups, bucketed_sum

    def distinct_partial(t: pa.Table) -> pa.Table:
        return (t.select([key_col, item_col])
                .group_by([key_col, item_col]).aggregate([]))

    distinct = bucketed_distinct(
        ds.map_batches(distinct_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key_col, item_col], n_buckets=n_buckets)

    def wedge_partial(g: pd.DataFrame) -> pd.DataFrame:
        if max_degree is not None:
            deg = g.groupby(item_col, sort=False)[key_col].transform(
                "size")
            g = g[deg.to_numpy() <= max_degree]
        n_edges_kept = len(g)
        m = g.merge(g, on=item_col, suffixes=("_a", "_b"))
        m = m[m[f"{key_col}_a"].to_numpy()
              < m[f"{key_col}_b"].to_numpy()]
        out = (m.groupby([f"{key_col}_a", f"{key_col}_b"],
                         as_index=False, sort=False).size()
               .rename(columns={f"{key_col}_a": "k1",
                                f"{key_col}_b": "k2", "size": "c"}))
        sent = pd.DataFrame({"k1": [-1], "k2": [-1],
                             "c": [n_edges_kept]})
        out = pd.concat([out, sent], ignore_index=True)
        out["k1"] = out["k1"].astype(np.int64)
        out["k2"] = out["k2"].astype(np.int64)
        out["c"] = out["c"].astype(np.int64)
        return out

    pair_sums = bucketed_sum(
        bucketed_groups(distinct, item_col, wedge_partial,
                        n_buckets=n_buckets),
        ["k1", "k2"], ["c"], n_buckets=n_buckets)

    def fold_partial(t: pa.Table) -> pa.Table:
        k1 = t["k1"].combine_chunks().to_numpy(zero_copy_only=False)
        c = t["c"].combine_chunks().to_numpy(zero_copy_only=False)
        sent = k1 == -1
        real = c[~sent].astype(object)  # Python ints: no wrap
        return pa.table({
            "n_edges": pa.array([int(c[sent].sum())], pa.int64()),
            "n_wedges": pa.array([int(real.sum())], pa.int64()),
            "n_butterflies": pa.array(
                [int((real * (real - 1) // 2).sum())], pa.int64())})

    parts = pair_sums.map_batches(
        fold_partial, batch_format="pyarrow").to_pandas()
    if "n_edges" not in parts.columns:  # fully empty input
        z = pa.array([0], pa.int64())
        return pa.table({"n_edges": z, "n_wedges": z,
                         "n_butterflies": z})
    return pa.table({
        "n_edges": pa.array([int(parts["n_edges"].sum())], pa.int64()),
        "n_wedges": pa.array([int(parts["n_wedges"].sum())],
                             pa.int64()),
        "n_butterflies": pa.array(
            [sum(int(x) for x in parts["n_butterflies"])], pa.int64())})


def auto_salted_join(
    fact: "ray.data.Dataset",
    dim: "ray.data.Dataset",
    fact_key: str,
    dim_key: str,
    salt_src: str,
    *,
    hot_permille: int = 10,
    n_salt: int = 8,
    num_partitions: int | None = None,
    partition_budget_factor: int = 2,
) -> "ray.data.Dataset":
    """Adaptive skew defense: MEASURE the fact side's key histogram
    first, then salt ONLY keys that would actually overflow a reduce
    partition -- hot keys spread over ``n_salt`` sub-partitions, cold
    keys keep salt 0, and the dim side replicates only its hot rows.
    Result rows are exactly the plain inner join's; the cost of
    salting (dim replication + wider shuffle key) is paid only where
    skew exists.

    A key is hot when its rows exceed BOTH ``hot_permille``/1000 of
    the total AND ``partition_budget_factor`` x the mean partition
    load (``total / num_partitions``).  The second term is what the
    50M-row scale proof taught: keys at 4% of a 50M-row fact side fit
    a 32-way hash partition comfortably, and the salted plan (wider
    shuffle key, histogram pass) measured ~3x SLOWER than the plain
    join it was defending -- salting pays only past the partition
    budget.  When nothing crosses it, the plain inner join runs
    directly (no salt columns at all).  Set
    ``partition_budget_factor=0`` to force share-based detection.

    The hot set is bounded by construction (at most 1000/hot_permille
    keys), so its broadcast is always tiny; detection rides the
    sketch-for-candidates pattern (ops/sketch.py:heavy_hitters_exact):
    a Misra-Gries pass whose no-miss guarantee covers the permille
    threshold yields exact counts for <= k candidate keys with
    KILOBYTE exchanges -- the exact per-key histogram it replaces
    shipped one row per distinct key per block (measured 8 s at 1M
    keys on 50M rows; key-cardinality-shaped, the wrong scale class
    for a detection pass)."""
    import pyarrow.compute as pc

    from .sketch import heavy_hitters_exact

    n_part = num_partitions or max(
        2, int(ray.cluster_resources().get("CPU", 8)) // 2)
    share_den = max(2, 1000 // max(1, hot_permille))
    cand = heavy_hitters_exact(fact, fact_key, share_den=share_den,
                               k=max(256, share_den + 1))
    total = int(fact.count())
    cutoff = max(1, total * hot_permille // 1000,
                 (partition_budget_factor * total) // n_part
                 if partition_budget_factor else 0)
    hot = (cand[cand["cnt"] > cutoff]["item"].to_numpy()
           if len(cand) else np.array([], dtype=np.int64))
    if len(hot) == 0:
        # nothing crosses the partition budget: the plain hash join IS
        # the fast plan -- no salt column, no dim replication
        return fact.join(dim, "inner", num_partitions=n_part,
                         on=(fact_key,), right_on=(dim_key,))
    hot_ref = ray.put(np.sort(hot))

    def add_salt(t: pa.Table) -> pa.Table:
        hk = ray.get(hot_ref)
        keys = t[fact_key].combine_chunks().to_numpy(
            zero_copy_only=False)
        src = t[salt_src].combine_chunks().to_numpy(zero_copy_only=False)
        salt = np.where(
            np.isin(keys, hk),
            (pd.util.hash_array(np.ascontiguousarray(src)) % n_salt)
            .astype(np.int64),
            0)
        return t.append_column("_salt", pa.array(salt.astype(np.int64)))

    def replicate_hot(t: pa.Table) -> pa.Table:
        hk = ray.get(hot_ref)
        keys = t[dim_key].combine_chunks().to_numpy(zero_copy_only=False)
        is_hot = np.isin(keys, hk)
        reps = np.where(is_hot, n_salt, 1).astype(np.int64)
        idx = pa.array(np.repeat(np.arange(len(t), dtype=np.int64), reps))
        rep = t.take(idx)
        # position within each repeat run, vectorized (the per-row
        # np.arange list comprehension this replaces was a Python loop
        # over every dim row -- measured dominating a 1M-row dim side)
        starts = np.repeat(np.cumsum(reps) - reps, reps)
        salt = np.arange(int(reps.sum()), dtype=np.int64) - starts
        return rep.append_column("_salt", pa.array(salt))

    salted_fact = fact.map_batches(add_salt, batch_format="pyarrow",
                                   zero_copy_batch=True)
    salted_dim = dim.map_batches(replicate_hot, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return salted_fact.join(
        salted_dim, "inner", num_partitions=n_part,
        on=(fact_key, "_salt"), right_on=(dim_key, "_salt"))


def _grouped_prefix_max(vals: np.ndarray, group_ids: np.ndarray) -> np.ndarray:
    """Inclusive running max of ``vals`` within contiguous ``group_ids``
    runs (int64 both), fully vectorized via the order-encode trick:
    ``enc = gid * range + (val - min)`` makes every element of group g
    larger than every element of any earlier group, so one global
    ``np.maximum.accumulate`` never leaks a previous group's max.  Falls
    back to per-group slices if the encoding would overflow int64 (huge
    value range x many groups) -- the fallback loops over GROUPS, not
    rows, and callers only hit it on frontier-sized candidate sets."""
    if len(vals) == 0:
        return vals.astype(np.int64)
    lo = int(vals.min())
    rng = int(vals.max()) - lo + 1
    n_groups = int(group_ids[-1]) + 1
    if n_groups * rng < (1 << 62):
        enc = group_ids * rng + (vals - lo)
        return np.maximum.accumulate(enc) - group_ids * rng + lo
    out = np.empty(len(vals), np.int64)
    starts = np.flatnonzero(np.diff(group_ids, prepend=group_ids[0] - 1))
    bounds = np.append(starts, len(vals))
    for a, b in zip(bounds[:-1], bounds[1:]):
        np.maximum.accumulate(vals[a:b], out=out[a:b])
    return out


def _skyline_keep_mask(group: np.ndarray, minimize: np.ndarray,
                       maximize: np.ndarray) -> np.ndarray:
    """Keep mask for the grouped 2-D skyline: row p is DOMINATED within
    its group iff some q has minimize <= and maximize >= with one strict,
    i.e. ``(M_lt >= s) | (M_le > s)`` where M_lt / M_le are the group's
    max of ``maximize`` over rows with strictly-smaller / <= ``minimize``.
    One lexsort + segment reduceat + grouped prefix max -- no Python
    per-row work.  Ties (identical points) dominate neither way and are
    all kept, matching the NOT EXISTS oracle."""
    n = len(group)
    if n == 0:
        return np.zeros(0, bool)
    _, gid = np.unique(group, return_inverse=True)
    gid = gid.astype(np.int64)
    c = minimize.astype(np.int64)
    s = maximize.astype(np.int64)
    order = np.lexsort((c, gid))
    gs, cs, ss = gid[order], c[order], s[order]
    new_seg = np.empty(n, bool)
    new_seg[0] = True
    new_seg[1:] = (gs[1:] != gs[:-1]) | (cs[1:] != cs[:-1])
    seg_starts = np.flatnonzero(new_seg)
    seg_max = np.maximum.reduceat(ss, seg_starts)
    seg_gid = gs[seg_starts]
    m_le = _grouped_prefix_max(seg_max, seg_gid)
    first_of_group = np.empty(len(seg_starts), bool)
    first_of_group[0] = True
    first_of_group[1:] = seg_gid[1:] != seg_gid[:-1]
    m_lt = np.empty_like(m_le)
    m_lt[0] = np.iinfo(np.int64).min
    m_lt[1:] = m_le[:-1]
    m_lt[first_of_group] = np.iinfo(np.int64).min
    row_seg = np.cumsum(new_seg) - 1
    dominated_sorted = (m_lt[row_seg] >= ss) | (m_le[row_seg] > ss)
    keep = np.empty(n, bool)
    keep[order] = ~dominated_sorted
    return keep


def skyline_2d(
    ds: ray.data.Dataset,
    group_col: str,
    min_col: str,
    max_col: str,
    *,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Grouped 2-D skyline (Pareto frontier): within each ``group_col``
    value, keep rows NOT dominated by another row with ``min_col`` <=
    and ``max_col`` >= (at least one strict).  Integer columns required
    so the result matches a DuckDB NOT EXISTS oracle bit-for-bit.

    Distributed plan (Borzsonyi et al. ICDE'01, "The Skyline Operator"
    divide-and-conquer property): skyline(A u B) is a subset of
    skyline(A) u skyline(B), and every dominated point has a dominator
    that itself survives locally (strict-dominance chains are finite),
    so

      stage 1: per-BLOCK local skyline via the vectorized mask -- the
               corpus shrinks to frontier-sized candidates before any
               data moves;
      stage 2: one hash(group) coarse exchange of the candidates
               (ops/window.py:bucketed_groups, cluster-aware bucket
               count) + the same kernel per bucket for the exact global
               answer.

    The exchange carries only local frontiers -- at 100 TB the shuffle
    volume is bounded by (#blocks x frontier width), not corpus size.
    Skew note: one group never spans buckets, so a pathological group
    whose frontier itself is huge would need a min_col range split; log
    data's frontiers are tiny (documented assumption).
    """

    def local(t: pa.Table) -> pa.Table:
        keep = _skyline_keep_mask(
            t[group_col].combine_chunks().to_numpy(zero_copy_only=False),
            t[min_col].combine_chunks().to_numpy(zero_copy_only=False),
            t[max_col].combine_chunks().to_numpy(zero_copy_only=False))
        return t.filter(pa.array(keep))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        keep = _skyline_keep_mask(g[group_col].to_numpy(),
                                  g[min_col].to_numpy(),
                                  g[max_col].to_numpy())
        return g[keep]

    from .window import bucketed_groups

    candidates = ds.map_batches(local, batch_format="pyarrow",
                                zero_copy_batch=True)
    return bucketed_groups(candidates, group_col, per_bucket,
                           n_buckets=n_buckets)


def _dominance_counts(minimize: np.ndarray,
                      maximize: np.ndarray) -> np.ndarray:
    """Per-row count of rows (same group, caller pre-partitions) that
    DOMINATE it: minimize <= and maximize >= with one strict.  Exact
    2-D dominance counting on the compressed value grid: one bincount
    + a prefix-cumsum along the minimize axis + a suffix-cumsum along
    the maximize axis; exact (c, s) ties are subtracted (equal points
    dominate neither way).  Memory contract: one group's
    distinct-minimize x distinct-maximize grid must fit a worker --
    pre-bucket continuous dimensions (same contract as zorder cells)."""
    c = minimize.astype(np.int64)
    s = maximize.astype(np.int64)
    cu, ci = np.unique(c, return_inverse=True)
    su, si = np.unique(s, return_inverse=True)
    if len(cu) * len(su) > (1 << 27):  # ~1 GiB of int64 cells
        raise ValueError(
            f"dominance grid {len(cu)}x{len(su)} exceeds the per-worker "
            "budget -- pre-bucket the continuous dimension(s) first")
    grid = np.bincount(ci * len(su) + si,
                       minlength=len(cu) * len(su)).reshape(
                           len(cu), len(su))
    acc = np.cumsum(grid, axis=0)              # minimize <=
    acc = acc[:, ::-1].cumsum(axis=1)[:, ::-1]  # maximize >=
    return acc[ci, si] - grid[ci, si]


def dominance_count_2d(
    ds: ray.data.Dataset,
    group_col: str,
    min_col: str,
    max_col: str,
    *,
    out_col: str = "n_dominators",
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Per-row Pareto dominance count within each group (0 = on the
    skyline): the NSGA-style rank signal for two-objective selection
    (e.g. keep documents least dominated on (cost, quality)).  Unlike
    :func:`skyline_2d` the answer for EVERY row depends on its whole
    group, so there is no local-closure shrink: ONE hash(group) coarse
    exchange co-locates each group, then the vectorized grid kernel
    counts dominators with no per-row Python.  Group count is assumed
    vocabulary-shaped (the per-bucket kernel dispatches per group);
    a single huge group is bounded by the grid contract above."""
    from .window import bucketed_groups

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.copy()
        out[out_col] = np.int64(0)
        for _, idx in g.groupby(group_col, sort=False).indices.items():
            out.iloc[idx, out.columns.get_loc(out_col)] = \
                _dominance_counts(g[min_col].to_numpy()[idx],
                                  g[max_col].to_numpy()[idx])
        return out

    return bucketed_groups(ds, group_col, per_bucket, n_buckets=n_buckets)


def clustering_coefficients(
    edges: "ray.data.Dataset",
    src_col: str,
    dst_col: str,
    *,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Per-node local clustering coefficient of the undirected simple
    graph induced by the edge table: for each node, its distinct-
    neighbor degree, the number of triangles incident to it, and the
    coefficient as an exact integer permille
    ``(2000 * tri) // (deg * (deg - 1))`` (0 when deg < 2) -- all-int
    outputs so the DuckDB oracle compares bit-for-bit.

    Semantics: self-loops dropped, parallel edges and orientations
    collapsed before degrees are counted.  Each triangle {a, b, c}
    contributes exactly 1 to each member's count -- the member is the
    center of exactly one wedge of that triangle, so counting CLOSED
    wedges grouped by center is the per-node triangle count (the
    per-node refinement of :func:`triangle_count`).

    Scale shape: three coarse bucketed exchanges, all edge- or
    node-shaped -- (1) canonical distinct edges, (2) wedges generated
    per center bucket then CLOSED against the edge set by a tagged
    co-partition on the wedge's far pair (no Acero join: pandas-block
    inputs with maybe-empty blocks break Dataset.join key resolution),
    (3) a node-keyed combine of degree rows and triangle partials.
    Wedge volume is sum(deg^2)-shaped: for skewed degree, cap or
    support-threshold upstream exactly as :func:`triangle_count`
    documents."""
    from .window import bucketed_distinct, bucketed_groups, bucketed_sum

    def canon(t: pa.Table) -> pa.Table:
        s = t[src_col].combine_chunks().cast(pa.int64()).to_numpy()
        d = t[dst_col].combine_chunks().cast(pa.int64()).to_numpy()
        keep = s != d
        s, d = s[keep], d[keep]
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        df = pd.DataFrame({"a": lo, "b": hi}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    e = bucketed_distinct(
        edges.map_batches(canon, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["a", "b"], n_buckets=n_buckets)

    def both_dirs(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "ctr": np.r_[g["a"].to_numpy(), g["b"].to_numpy()],
            "nbr": np.r_[g["b"].to_numpy(), g["a"].to_numpy()]})

    bi = e.map_batches(both_dirs, batch_format="pandas")

    def wedge_kern(g: pd.DataFrame) -> pd.DataFrame:
        # per center: a degree row + every canonical neighbor pair
        deg = g.groupby("ctr", as_index=False, sort=False).size()
        m = g.merge(g, on="ctr", suffixes=("_1", "_2"))
        m = m[m["nbr_1"] < m["nbr_2"]]
        wedges = pd.DataFrame({
            "x": m["nbr_1"].to_numpy(np.int64),
            "y": m["nbr_2"].to_numpy(np.int64),
            "center": m["ctr"].to_numpy(np.int64),
            "side": np.int8(1)})
        degrows = pd.DataFrame({
            "x": deg["ctr"].to_numpy(np.int64),
            "y": deg["size"].to_numpy(np.int64),
            "center": np.int64(-1),
            "side": np.int8(2)})
        return pd.concat([wedges, degrows], ignore_index=True)

    tagged = bucketed_groups(bi, "ctr", wedge_kern, n_buckets=n_buckets)

    def edge_side(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "x": g["a"].to_numpy(np.int64),
            "y": g["b"].to_numpy(np.int64),
            "center": np.int64(-1),
            "side": np.int8(0)})

    unioned = tagged.union(e.map_batches(edge_side,
                                         batch_format="pandas"))

    def close_kern(g: pd.DataFrame) -> pd.DataFrame:
        # deg rows pass through node-keyed; wedges close against edges
        degrows = g[g["side"] == 2]
        out = [pd.DataFrame({"node": degrows["x"].to_numpy(np.int64),
                             "deg": degrows["y"].to_numpy(np.int64),
                             "tri": np.int64(0)})]
        w = g[g["side"] == 1]
        eg = g[g["side"] == 0][["x", "y"]]
        if len(w) and len(eg):
            closed = w.merge(eg, on=["x", "y"])
            tri = (closed.groupby("center", as_index=False, sort=False)
                   .size())
            out.append(pd.DataFrame({
                "node": tri["center"].to_numpy(np.int64),
                "deg": np.int64(0),
                "tri": tri["size"].to_numpy(np.int64)}))
        return pd.concat(out, ignore_index=True)

    parts = bucketed_groups(unioned, "x", close_kern,
                            n_buckets=n_buckets)
    combined = bucketed_sum(parts, ["node"], ["deg", "tri"],
                            n_buckets=n_buckets)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        deg = g["deg"].to_numpy(np.int64)
        tri = g["tri"].to_numpy(np.int64)
        denom = deg * (deg - 1)
        coeff = np.where(denom > 0, (2000 * tri) // np.maximum(denom, 1),
                         0).astype(np.int64)
        return pd.DataFrame({"node": g["node"].to_numpy(np.int64),
                             "deg": deg, "tri": tri,
                             "coeff_permille": coeff})

    return combined.map_batches(finish, batch_format="pandas")


def common_neighbors_link_prediction(
    edges: "ray.data.Dataset",
    src_col: str,
    dst_col: str,
    *,
    min_common: int = 2,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Link prediction by common-neighbor count: for every NON-adjacent
    node pair sharing >= ``min_common`` neighbors, the pair and its
    count -- the classic structural-similarity candidate generator
    (friend-of-friend recommendation, graph dedup candidates).

    Same canonical-edge + wedge machinery as
    :func:`clustering_coefficients`, but wedges are grouped by their
    FAR PAIR: a wedge (b < c centered at a) is one common neighbor of
    (b, c), so counting wedges per (b, c) and subtracting the pairs
    that are already edges yields exactly
    ``|N(b) & N(c)| >= min_common`` over non-edges.  The tagged
    co-partition on the far pair both counts and filters in ONE
    exchange (edge rows ride along as kill markers).  Wedge volume is
    sum(deg^2)-shaped -- cap or support-threshold upstream for skewed
    degree, as :func:`triangle_count` documents.  Returns
    (node_a, node_b, n_common) with node_a < node_b."""
    from .window import bucketed_distinct, bucketed_groups, bucketed_sum

    def canon(t: pa.Table) -> pa.Table:
        s = t[src_col].combine_chunks().cast(pa.int64()).to_numpy()
        d = t[dst_col].combine_chunks().cast(pa.int64()).to_numpy()
        keep = s != d
        s, d = s[keep], d[keep]
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        df = pd.DataFrame({"a": lo, "b": hi}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    e = bucketed_distinct(
        edges.map_batches(canon, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["a", "b"], n_buckets=n_buckets)

    def both_dirs(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "ctr": np.r_[g["a"].to_numpy(), g["b"].to_numpy()],
            "nbr": np.r_[g["b"].to_numpy(), g["a"].to_numpy()]})

    bi = e.map_batches(both_dirs, batch_format="pandas")

    def wedge_kern(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="ctr", suffixes=("_1", "_2"))
        m = m[m["nbr_1"] < m["nbr_2"]]
        # pre-collapse same-bucket wedges of the same far pair
        w = (m.groupby(["nbr_1", "nbr_2"], as_index=False, sort=False)
             .size())
        return pd.DataFrame({
            "x": w["nbr_1"].to_numpy(np.int64),
            "y": w["nbr_2"].to_numpy(np.int64),
            "n": w["size"].to_numpy(np.int64),
            "is_edge": np.int64(0)})

    wedges = bucketed_groups(bi, "ctr", wedge_kern, n_buckets=n_buckets)

    def edge_side(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "x": g["a"].to_numpy(np.int64),
            "y": g["b"].to_numpy(np.int64),
            "n": np.int64(0),
            "is_edge": np.int64(1)})

    unioned = wedges.union(e.map_batches(edge_side,
                                         batch_format="pandas"))
    summed = bucketed_sum(unioned, ["x", "y"], ["n", "is_edge"],
                          n_buckets=n_buckets)

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.and_(pc.equal(t["is_edge"].combine_chunks(), 0),
                       pc.greater_equal(t["n"].combine_chunks(),
                                        min_common))
        t = t.filter(keep)
        return pa.table({"node_a": t["x"], "node_b": t["y"],
                         "n_common": t["n"]})

    return summed.map_batches(finish, batch_format="pyarrow")


def join_size_audit(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str,
    right_key: str,
    *,
    n_buckets: int | None = None,
) -> pa.Table:
    """Exact join-cardinality audit WITHOUT executing the join: the
    planner-style safety check before an all-to-all join at scale
    (output rows = sum over shared keys of |L_k| * |R_k|; a single
    hot key can make that explode).  Returns one row: join_rows,
    max_amplification (the largest per-key |L_k| * |R_k|), hot_key
    (achieving it, ties to the smaller key), n_shared_keys -- all
    int64.

    Scale shape: each side collapses blockwise to (key, count)
    partials, the two count tables co-partition through ONE
    key-bucketed tagged union (key cardinality is corpus-shaped --
    bucketed kernels, never a driver materialization), and each
    bucket emits a 1-row partial; the driver folds n_buckets rows in
    Python ints (no int64 wrap on 10^18-row products)."""
    from .window import bucketed_groups

    def side_counts(ds, key, side):
        def partial(t: pa.Table) -> pa.Table:
            k = t[key].combine_chunks()
            vc = k.value_counts()
            return pa.table({
                "key": vc.field("values").cast(pa.int64()),
                "c": pc.cast(vc.field("counts"), pa.int64()),
                "side": pa.array(np.full(len(vc), side, np.int64))})

        return ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    import pyarrow.compute as pc

    tagged = side_counts(left, left_key, 0).union(
        side_counts(right, right_key, 1))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        agg = (g.groupby(["key", "side"], sort=False)["c"].sum()
               .unstack("side", fill_value=0))
        if 0 not in agg.columns or 1 not in agg.columns:
            return pd.DataFrame({
                "join_rows": [0], "max_amplification": [0],
                "hot_key": [np.int64(-1)], "n_shared_keys": [0]})
        nl = agg.get(0).to_numpy(np.int64)
        nr = agg.get(1).to_numpy(np.int64)
        shared = (nl > 0) & (nr > 0)
        amp = (nl[shared].astype(object)
               * nr[shared].astype(object))  # Python ints: no wrap
        keys = agg.index.to_numpy(np.int64)[shared]
        if not len(keys):
            return pd.DataFrame({
                "join_rows": [0], "max_amplification": [0],
                "hot_key": [np.int64(-1)], "n_shared_keys": [0]})
        order = np.lexsort((keys, [-int(a) for a in amp]))
        best = order[0]
        return pd.DataFrame({
            "join_rows": [int(amp.sum())],
            "max_amplification": [int(amp[best])],
            "hot_key": [np.int64(keys[best])],
            "n_shared_keys": [len(keys)]})

    parts = bucketed_groups(tagged, "key", fold,
                            n_buckets=n_buckets).to_pandas()
    if not len(parts):
        z = pa.array([0], pa.int64())
        return pa.table({"join_rows": z, "max_amplification": z,
                         "hot_key": pa.array([-1], pa.int64()),
                         "n_shared_keys": z})
    amp = parts["max_amplification"].to_numpy()
    keys = parts["hot_key"].to_numpy()
    order = np.lexsort((keys, -amp))
    best = order[0]
    return pa.table({
        "join_rows": pa.array(
            [sum(int(x) for x in parts["join_rows"])], pa.int64()),
        "max_amplification": pa.array([int(amp[best])], pa.int64()),
        "hot_key": pa.array([int(keys[best])], pa.int64()),
        "n_shared_keys": pa.array(
            [int(parts["n_shared_keys"].sum())], pa.int64())})


def below_group_avg_sum(
    fact: ray.data.Dataset,
    key_col: str,
    qty_col: str,
    val_col: str,
    out_group_col: str,
    *,
    num: int = 1,
    den: int = 5,
    broadcast_cap: int = 8_000_000,
    n_buckets: int | None = None,
    block_preagg: bool = True,
) -> pd.DataFrame:
    """Correlated group-average filter-aggregate (the TPC-H Q17 shape):
    sum ``val_col`` (and count rows) over fact rows whose ``qty_col``
    is strictly below ``(num/den) * avg(qty) OVER (PARTITION BY key)``,
    grouped by ``out_group_col``.  The comparison cross-multiplies
    (``den * qty * cnt < num * sum_qty``) so the plan is exact int64
    arithmetic end-to-end -- no float average, DuckDB-hashable.

    Plan: (1) per-key ``(sum_qty, cnt)`` partials combine inside each
    block, then ONE bucketed exchange collapses them exactly (key
    cardinality is corpus-shaped: parts, users); (2) under
    ``broadcast_cap`` keys the per-key pair ships once via ``ray.put``
    and a vectorized searchsorted mask filters every fact block IN
    PLACE -- the fact table itself is never shuffled; above the cap,
    aggregate rows and fact rows co-partition by hash(key) in ONE
    tagged-union exchange (the bfs_hops contract) and join per bucket.
    Either way the final fold is a vocabulary-sized groupby.

    Int64 bounds: ``den * qty * cnt`` must fit int64 -- true for
    quantity-like values (<=1e4) against per-key row counts <=1e14.

    ``broadcast_cap`` sizing: the broadcast is three int64 arrays
    (24 B/key, one plasma copy PER NODE, mapped zero-copy by every
    worker on it), so 8M keys is ~200 MB/node.  At 49.5M fact rows x
    8M keys the two paths measure within noise of each other on this
    4-column fact (24.4 vs 25.2 s -- the shared cost is the key
    aggregate exchange + two fact passes), but the broadcast path
    skips the full-fact tagged exchange entirely, so its edge grows
    with fact row width.  Billions of keys (the true 100-TB regime)
    still take the co-partition path.

    Reference parity: TPC-H Q17's avg-subquery semantics; the
    reference engine (logscraper) has no such operator -- SURVEY.md
    §2.4 extension family.
    """
    from .window import bucketed_groups, bucketed_sum

    def prep(t: pa.Table) -> pa.Table:
        k = t[key_col].combine_chunks()
        q = t[qty_col].combine_chunks().cast(pa.int64())
        tt = pa.table({key_col: k, "_sq": q,
                       "_n": pa.array(np.ones(len(t), np.int64))})
        if not block_preagg:
            # regime knob: when key cardinality approaches the block
            # row count, the per-block group_by shrinks almost
            # nothing -- callers in that regime skip straight to the
            # bucketed fold
            return tt
        g = tt.group_by(key_col).aggregate([("_sq", "sum"),
                                            ("_n", "sum")])
        return pa.table({key_col: g[key_col], "_sq": g["_sq_sum"],
                         "_n": g["_n_sum"]})

    # materialize the key-sized aggregate ONCE: it is consumed twice
    # (count() to pick the path, then either to_pandas or the tagged
    # union), and without pinning, Ray would re-run the whole fact
    # scan + partials + exchange for each consumer (measured: the Q17
    # proof at 49.5M rows paid the fact pass twice)
    agg = bucketed_sum(
        fact.map_batches(prep, batch_format="pyarrow",
                         zero_copy_batch=True),
        [key_col], ["_sq", "_n"], n_buckets=n_buckets).materialize()

    def fact_partial(frame: pd.DataFrame, keys, sq, cnt) -> pd.DataFrame:
        """Vectorized Q17 mask + vocabulary-sized local fold."""
        k = frame[key_col].to_numpy()
        idx = np.searchsorted(keys, k)
        q = frame[qty_col].to_numpy().astype(np.int64)
        mask = den * q * cnt[idx] < num * sq[idx]
        sub = frame.loc[mask, [out_group_col, val_col]]
        out = sub.groupby(out_group_col, as_index=False,
                          sort=False).agg(
            n_below=(val_col, "size"), sum_val=(val_col, "sum"))
        out["n_below"] = out["n_below"].astype(np.int64)
        out["sum_val"] = out["sum_val"].astype(np.int64)
        return out

    n_keys = agg.count()
    if n_keys <= broadcast_cap:
        adf = agg.to_pandas().sort_values(key_col)
        keys_arr = adf[key_col].to_numpy()
        # dense surrogate keys (contiguous range) resolve by direct
        # offset -- binary search into a multi-million-key broadcast
        # is cache-hostile and dominated the probe pass (measured on
        # the 49.5M-row Q17 proof)
        dense_base = (int(keys_arr[0])
                      if len(keys_arr) and int(keys_arr[-1])
                      - int(keys_arr[0]) + 1 == len(keys_arr)
                      else None)
        ref = ray.put((keys_arr,
                       adf["_sq"].to_numpy().astype(np.int64),
                       adf["_n"].to_numpy().astype(np.int64)))

        def apply(t: pa.Table) -> pa.Table:
            # Arrow end-to-end: a pandas batch format here would
            # convert the out_group string column for EVERY fact row
            # before the mask drops ~90% of them
            keys, sq, cnt = ray.get(ref)
            k = t[key_col].combine_chunks().to_numpy()
            idx = (k - dense_base if dense_base is not None
                   else np.searchsorted(keys, k))
            q = (t[qty_col].combine_chunks().to_numpy()
                 .astype(np.int64))
            mask = den * q * cnt[idx] < num * sq[idx]
            sub = t.filter(pa.array(mask))
            tt = pa.table({
                out_group_col: sub[out_group_col],
                "n_below": pa.array(
                    np.ones(sub.num_rows, np.int64)),
                "sum_val": sub[val_col]})
            g = tt.group_by(out_group_col).aggregate(
                [("n_below", "sum"), ("sum_val", "sum")])
            return pa.table({out_group_col: g[out_group_col],
                             "n_below": g["n_below_sum"],
                             "sum_val": g["sum_val_sum"]})

        parts = fact.map_batches(
            apply, batch_format="pyarrow",
            zero_copy_batch=True).to_pandas()
    else:
        # tagged union: side 0 = per-key aggregates, side 1 = fact rows
        def tag_agg(t: pa.Table) -> pa.Table:
            z = pa.array(np.zeros(len(t), np.int64))
            e = pa.array([""] * len(t), pa.string())
            return pa.table({
                key_col: t[key_col].combine_chunks().cast(pa.int64()),
                "_sq": t["_sq"], "_n": t["_n"], qty_col: z,
                val_col: z, out_group_col: e,
                "_side": pa.array(np.zeros(len(t), np.int8))})

        def tag_fact(t: pa.Table) -> pa.Table:
            z = pa.array(np.zeros(len(t), np.int64))
            return pa.table({
                key_col: t[key_col].combine_chunks().cast(pa.int64()),
                "_sq": z, "_n": z,
                qty_col: t[qty_col].combine_chunks().cast(pa.int64()),
                val_col: t[val_col].combine_chunks().cast(pa.int64()),
                out_group_col: t[out_group_col],
                "_side": pa.array(np.ones(len(t), np.int8))})

        tagged = agg.map_batches(
            tag_agg, batch_format="pyarrow", zero_copy_batch=True
        ).union(fact.map_batches(tag_fact, batch_format="pyarrow",
                                 zero_copy_batch=True))

        def bucket_kern(g: pd.DataFrame) -> pd.DataFrame:
            side = g["_side"].to_numpy()
            a = g[side == 0].sort_values(key_col)
            f = g[side == 1]
            return fact_partial(
                f, a[key_col].to_numpy(),
                a["_sq"].to_numpy().astype(np.int64),
                a["_n"].to_numpy().astype(np.int64))

        parts = bucketed_groups(tagged, key_col, bucket_kern,
                                n_buckets=n_buckets).to_pandas()

    if not len(parts):
        return pd.DataFrame({out_group_col: pd.Series([], dtype=object),
                             "n_below": pd.Series([], dtype=np.int64),
                             "sum_val": pd.Series([], dtype=np.int64)})
    out = parts.groupby(out_group_col, as_index=False, sort=False)[
        ["n_below", "sum_val"]].sum()
    out["n_below"] = out["n_below"].astype(np.int64)
    out["sum_val"] = out["sum_val"].astype(np.int64)
    return out


def count_distribution(
    fact: ray.data.Dataset,
    key_col: str,
    n_entities_total: int,
    *,
    out_count: str = "c_count",
    out_dist: str = "custdist",
    n_buckets: int | None = None,
) -> pd.DataFrame:
    """Distribution of per-entity fact counts INCLUDING the zero bucket
    (the TPC-H Q13 shape: ``customer LEFT JOIN orders`` -> count per
    customer -> histogram of counts).  Callers pass the qualifying fact
    rows (the join filter already applied) and the total entity count;
    the zero bucket is ``n_entities_total - #keys seen`` -- the
    LEFT-JOIN itself is never executed (aggregate pushdown: Q13's outer
    join exists only to keep zero-count entities, which a subtraction
    recovers exactly under the FK assumption that every fact key IS an
    entity; document/validate that upstream).

    Plan: per-block Arrow count partials per key collapse the fact
    stream to at most #entities rows before ONE bucketed exchange
    (key cardinality is corpus-shaped); the per-key count table then
    collapses per block to a count-of-counts histogram partial (count
    domain is tiny), merged by a native vocabulary-shaped groupby.
    Nothing entity-sized ever reaches the driver.

    Reference parity: TPC-H Q13 custdist; SURVEY.md §2.5 family.
    """
    from .window import bucketed_sum

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([key_col]).group_by(key_col).aggregate(
            [([], "count_all")])
        return pa.table({key_col: g[key_col],
                         "_n": g["count_all"].cast(pa.int64())})

    per_key = bucketed_sum(
        fact.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        [key_col], ["_n"], n_buckets=n_buckets)

    def hist_partial(t: pa.Table) -> pa.Table:
        g = t.select(["_n"]).group_by("_n").aggregate([([], "count_all")])
        return pa.table({out_count: g["_n"],
                         out_dist: g["count_all"].cast(pa.int64())})

    hist = (per_key.map_batches(hist_partial, batch_format="pyarrow",
                                zero_copy_batch=True)
            .groupby(out_count).sum(out_dist)).to_pandas()
    hist = hist.rename(columns={f"sum({out_dist})": out_dist})
    n_seen = int(hist[out_dist].sum()) if len(hist) else 0
    zero = int(n_entities_total) - n_seen
    if zero > 0:
        hist = pd.concat(
            [hist, pd.DataFrame({out_count: [0], out_dist: [zero]})],
            ignore_index=True)
    hist[out_count] = hist[out_count].astype(np.int64)
    hist[out_dist] = hist[out_dist].astype(np.int64)
    return hist


def sole_flag_members(
    lines: ray.data.Dataset,
    group_col: str,
    member_col: str,
    flag_col: str,
    *,
    min_members: int = 2,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Per-member count of groups where the member is the SOLE flagged
    one among >= ``min_members`` distinct members (the TPC-H Q21
    "suppliers who kept orders waiting" shape: orders touched by many
    suppliers where exactly one supplier failed).

    Plan: per-block Arrow partial collapses lines to distinct
    ``(group, member, any(flag))`` triples (bounded by group x member,
    far below line count); ONE bucketed exchange on ``group``
    co-locates each group's members; the per-bucket kernel is C-speed
    pandas (size / flag-sum per group, then the flagged row of groups
    with exactly one flagged member); surviving members collapse to
    counts in a second member-keyed bucketed exchange.  The fat line
    table is never shuffled -- only the distinct triples move.

    Reference parity: TPC-H Q21 numwait; SURVEY.md §2.5 family.
    """
    from .window import bucketed_groups, bucketed_sum

    def triple_partial(t: pa.Table) -> pa.Table:
        tt = pa.table({
            group_col: t[group_col].combine_chunks(),
            member_col: t[member_col].combine_chunks(),
            "_f": t[flag_col].combine_chunks().cast(pa.int64())})
        g = tt.group_by([group_col, member_col]).aggregate([("_f", "max")])
        return pa.table({group_col: g[group_col],
                         member_col: g[member_col],
                         "_f": g["_f_max"]})

    triples = lines.map_batches(triple_partial, batch_format="pyarrow",
                                zero_copy_batch=True)

    def sole_kern(g: pd.DataFrame) -> pd.DataFrame:
        # rows are (group, member, any_flag); distinct within a block
        # but possibly duplicated across blocks -> re-collapse first.
        g = g.groupby([group_col, member_col], as_index=False,
                      sort=False)["_f"].max()
        agg = g.groupby(group_col, sort=False)["_f"].agg(["size", "sum"])
        ok = agg[(agg["size"] >= min_members) & (agg["sum"] == 1)].index
        hit = g[(g["_f"] == 1) & g[group_col].isin(ok)]
        return pd.DataFrame({member_col: hit[member_col].to_numpy(),
                             "_one": np.ones(len(hit), np.int64)})

    sole = bucketed_groups(triples, group_col, sole_kern,
                           n_buckets=n_buckets)
    out = bucketed_sum(sole, [member_col], ["_one"],
                       n_buckets=n_buckets)
    return out.map_batches(
        lambda t: pa.table({member_col: t[member_col],
                            "numwait": t["_one"].combine_chunks()
                            .cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)
