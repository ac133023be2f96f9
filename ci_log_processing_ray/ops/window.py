"""Stream-shaped operators over an ordered, partitioned event log.

Ray Data has no event-time windows; these express the reference's
order-dependent semantics (ST3 carry-forward) and classic sessionization
over a SINGLE coarse bucketed shuffle: rows route to hash(key) % 64
partitions, and the per-bucket kernel sorts once by (key, order) and
runs a vectorized pass over the whole bucket.  At high key cardinality
this is the difference between 64 map_groups dispatches and one
dispatch per distinct key (the proven pattern from
ops/dedup.py:ngram_jaccard_pairs).  Partitioning assumption: one
BUCKET (≈ corpus/64) fits in a worker's heap; raise ``n_buckets`` to
shrink buckets at larger scale.
"""

from __future__ import annotations

import datetime

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

DEFAULT_GROUP_BUCKETS = 64

# one reduce task should own roughly this much input; used by the
# input-bytes override of resolve_group_buckets
TARGET_BUCKET_BYTES = 256 << 20

# don't split a known-small exchange below this many rows per bucket
# (the input_rows LOWERING override of resolve_group_buckets)
TARGET_BUCKET_MIN_ROWS = 200_000


def resolve_group_buckets(
    n_buckets: int | None = None,
    *,
    input_bytes: int | None = None,
    input_rows: int | None = None,
) -> int:
    """Cluster/size-aware bucket count for every coarse bucketed
    exchange (the round-2 verdict's fix for the fixed 64-bucket cap on
    reduce-side parallelism).

    An explicit ``n_buckets`` always wins.  Otherwise the default is
    ``max(64, 2 * cluster_CPUs)`` -- so a 256-node x 32-CPU cluster
    gets 16384-way reduces instead of 64 -- raised further to
    ``input_bytes / TARGET_BUCKET_BYTES`` when the caller knows the
    exchange size (so one bucket, ~input/n_buckets, stays inside a
    worker's heap regardless of CPU count)."""
    if n_buckets is not None:
        return int(n_buckets)
    n = DEFAULT_GROUP_BUCKETS
    try:
        import ray as _ray

        if _ray.is_initialized():
            cpus = int(_ray.cluster_resources().get("CPU", 0))
            if cpus > 0:
                n = max(n, 2 * cpus)
    except Exception:  # resolution must never break the pipeline
        pass
    if input_rows is not None:
        # LOWER the default when the caller KNOWS the exchange is small
        # (iterative ops count their frontier every round): below
        # TARGET_BUCKET_MIN_ROWS per bucket the all-to-all is pure
        # per-task fixed cost -- measured 6.5 s -> 2.0 s on the sf0.1
        # tree closure.  Floor 8 keeps reduce-side parallelism; at
        # 100-TB row counts this branch never bites.
        n = min(n, max(8, int(input_rows) // TARGET_BUCKET_MIN_ROWS + 1))
    if input_bytes is not None:
        n = max(n, int(input_bytes) // TARGET_BUCKET_BYTES + 1)
    return n


def _key_buckets(arr: np.ndarray, n_buckets: int) -> np.ndarray:
    if arr.dtype.kind not in "iufb":
        arr = arr.astype(object)
    return (pd.util.hash_array(arr) % n_buckets).astype(np.int32)


def bucketed_groups(
    ds: ray.data.Dataset,
    group_col: str,
    per_bucket,
    *,
    n_buckets: int | None = None,
    kernel_format: str = "pandas",
) -> ray.data.Dataset:
    """hash(group) % n_buckets coarse shuffle + one kernel per bucket.
    ``per_bucket`` receives the bucket (NOT yet sorted, ``_kb`` column
    already removed) holding every row of each of its keys, and must be
    vectorized over the whole bucket.  ``n_buckets`` defaults to the
    cluster-aware :func:`resolve_group_buckets`.

    ``kernel_format="pyarrow"`` hands the kernel a ``pa.Table`` and
    keeps the output on ARROW blocks -- skipping the pandas round-trip
    (object-dtype strings, ~10x costlier merges) and the documented
    empty-pandas-block Acero-join hazard.  Prefer it for new kernels;
    the pandas default remains for the existing frame-based kernels."""
    n_buckets = resolve_group_buckets(n_buckets)

    def add_bucket(t: pa.Table) -> pa.Table:
        k = t[group_col].combine_chunks().to_numpy(zero_copy_only=False)
        return t.append_column(
            "_kb", pa.array(_key_buckets(k, n_buckets)))

    if kernel_format == "pyarrow":
        def run_arrow(t: pa.Table) -> pa.Table:
            return per_bucket(t.drop_columns("_kb"))

        return ds.map_batches(
            add_bucket, batch_format="pyarrow", zero_copy_batch=True
        ).groupby("_kb").map_groups(run_arrow, batch_format="pyarrow")

    def run(g: pd.DataFrame) -> pd.DataFrame:
        return per_bucket(g.drop(columns="_kb"))

    return ds.map_batches(
        add_bucket, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("_kb").map_groups(run, batch_format="pandas")


def attach_group_sizes(t: "pa.Table", key_col: str,
                       id_col: str) -> "pa.Table":
    """Arrow bucket kernel: sort the bucket by (key, id) and append a
    ``bucket_size`` column = run length per distinct key (one lexsort
    + run-length pass, no pandas round-trip).  Shared by the
    simhash / phash exact-bucket clusterers."""
    import numpy as np

    keys = t[key_col].combine_chunks().to_numpy()
    ids = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, keys))
    t = t.take(pa.array(order))
    s = keys[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    sizes = np.diff(np.r_[starts, len(s)])
    return t.append_column(
        "bucket_size", pa.array(np.repeat(sizes, sizes).astype(np.int64)))


def bucketed_sum(
    ds: ray.data.Dataset,
    key_cols: list[str],
    sum_cols: list[str],
    *,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Exact grouped sum at HIGH key cardinality: hash-bucket on the
    first key column, one C-speed pandas groupby-sum per bucket.
    Dataset.groupby(...).aggregate() pays a per-distinct-group cost in
    its merge (measured 145 s for 120k groups on pandas blocks, ~10 s
    on Arrow blocks, vs ~1 s here) -- use this whenever group count is
    corpus-shaped rather than vocabulary-shaped.  The per-bucket kernel
    is an Arrow ``Table.group_by`` (no pandas round-trip: strings stay
    Arrow-encoded and the output rides Arrow blocks)."""

    def kern(t: pa.Table) -> pa.Table:
        g = t.select(key_cols + sum_cols).group_by(key_cols).aggregate(
            [(c, "sum") for c in sum_cols])
        cols = {k: g[k] for k in key_cols}
        for c in sum_cols:
            cols[c] = g[f"{c}_sum"]
        return pa.table(cols)

    return bucketed_groups(ds, key_cols[0], kern, n_buckets=n_buckets,
                           kernel_format="pyarrow")


def bucketed_distinct(
    ds: ray.data.Dataset,
    key_cols: list[str],
    *,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Exact DISTINCT over ``key_cols`` at high cardinality: same
    coarse-bucket shape as :func:`bucketed_sum`, kernel is an Arrow
    keys-only ``group_by`` (no pandas round-trip).  Callers should
    pre-shrink with a per-block distinct partial so the exchange
    carries block-distinct rows."""

    def kern(t: pa.Table) -> pa.Table:
        return t.select(key_cols).group_by(key_cols).aggregate([])

    return bucketed_groups(ds, key_cols[0], kern, n_buckets=n_buckets,
                           kernel_format="pyarrow")


def forward_fill_by_group(
    ds: ray.data.Dataset,
    group_col: str,
    order_col: str,
    value_col: str,
    *,
    fill_leading,
    out_col: str | None = None,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Per-group ordered forward fill (the generalized M2 carry-forward):
    nulls inherit the last non-null value earlier in the group; leading
    nulls get ``fill_leading``.  One sort + a cython groupby-ffill per
    bucket."""
    out = out_col or value_col

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, order_col], kind="mergesort").copy()
        g[out] = g.groupby(group_col, sort=False)[value_col].ffill()
        g[out] = g[out].fillna(fill_leading)
        return g

    return bucketed_groups(ds, group_col, fill, n_buckets=n_buckets)


def sessionize(
    ds: ray.data.Dataset,
    key_col: str,
    ts_col: str,
    *,
    gap: datetime.timedelta,
    tiebreak_cols: list[str] | None = None,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Assign session ids per key: a new session starts when the gap to
    the previous event exceeds ``gap``.  Adds ``session_id`` (0-based
    per key, in (ts, *tiebreak) order -- pass tiebreaks for determinism
    when timestamps can tie).  Whole-bucket vectorized: one sort by
    (key, ts, *tiebreaks), boundary-aware cumsum, no per-key kernel."""
    order = [ts_col] + list(tiebreak_cols or [])

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order, kind="mergesort").copy()
        key = g[key_col]
        newkey = key.ne(key.shift()).to_numpy()
        gapped = (g[ts_col].diff() > gap).to_numpy()
        start = newkey | gapped
        s = np.cumsum(start)
        base = np.maximum.accumulate(np.where(newkey, s, 0))
        g["session_id"] = (s - base).astype(np.int64)
        return g

    return bucketed_groups(ds, key_col, assign, n_buckets=n_buckets)


def linear_attribution(
    ds: "ray.data.Dataset",
    user_col: str,
    ts_col: str,
    channel_col: str,
    id_col: str,
    *,
    conversion: str,
    direct_label: str = "direct",
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Linear multi-touch attribution: every conversion event splits
    1000 permille of credit equally across the touch events since the
    user's previous conversion (the marketing-analytics staple that
    funnels don't cover -- funnels count step completion, attribution
    allocates credit).  Exact integer contract: each touch gets
    ``1000 // n`` with the remainder going to the EARLIEST touch of
    the window (in (ts, id) order), so every converted window sums to
    exactly 1000; a conversion with no prior touches credits 1000 to
    ``direct_label``.  Touches after a user's last conversion earn
    nothing.

    Scale shape: one user-bucketed exchange
    (:func:`bucketed_groups`); the kernel is whole-bucket vectorized
    (one stable sort, grouped cumsums for segment ids, transform-size
    + cumcount for window splits -- no per-user loop) and collapses
    each bucket to channel partials, so the final combine is a
    channel-vocabulary-sized native groupby.  Output: channel, credit,
    n_touches (direct conversions count one row each), all int64."""
    from ray.data.aggregate import Sum

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([user_col, ts_col, id_col], kind="mergesort")
        conv = (g[channel_col] == conversion).to_numpy()
        u = g[user_col].to_numpy()
        cs = pd.Series(conv)
        seg = cs.groupby(u).cumsum().to_numpy() - conv
        nconv = cs.groupby(u).transform("sum").to_numpy()
        credited = ~conv & (seg < nconv)
        t = pd.DataFrame({
            "user": u[credited], "seg": seg[credited],
            "channel": g[channel_col].to_numpy()[credited]})
        grp = t.groupby(["user", "seg"], sort=False)
        n = grp["channel"].transform("size").to_numpy().astype(np.int64)
        rn = grp.cumcount().to_numpy()
        credit = 1000 // n + np.where(rn == 0, 1000 % n, 0)
        ck = pd.DataFrame({"user": u[conv], "seg": seg[conv]})
        mrg = ck.merge(t[["user", "seg"]].drop_duplicates(),
                       on=["user", "seg"], how="left", indicator=True)
        n_direct = int((mrg["_merge"] == "left_only").sum())
        out = pd.DataFrame({
            "channel": np.concatenate([
                t["channel"].to_numpy(),
                np.full(n_direct, direct_label, dtype=object)]),
            "credit": np.concatenate([
                credit, np.full(n_direct, 1000, np.int64)])})
        part = (out.groupby("channel", as_index=False)
                .agg(credit=("credit", "sum"),
                     n_touches=("credit", "size")))
        part["credit"] = part["credit"].astype(np.int64)
        part["n_touches"] = part["n_touches"].astype(np.int64)
        return part

    parts = bucketed_groups(
        ds.select_columns([user_col, ts_col, channel_col, id_col]),
        user_col, kern, n_buckets=n_buckets)
    return parts.groupby("channel").aggregate(
        Sum("credit", alias_name="credit"),
        Sum("n_touches", alias_name="n_touches"))


def lag_diff_by_group(
    ds: "ray.data.Dataset",
    group_col: str,
    ts_col: str,
    id_col: str,
    *,
    tiebreak_col: str | None = None,
    sentinel: int = -1,
    out_col: str = "gap_us",
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """SQL ``lag()`` delta: for each row, microseconds since the
    previous row of the same group in (ts, tiebreak) order; the first
    row of each group gets ``sentinel`` (int64 throughout -- no
    NaN-bearing upcast, the dtype leak class fixed in relational.py).
    Whole-bucket vectorized: one sort, one diff, group-boundary mask."""
    order = [ts_col] + ([tiebreak_col] if tiebreak_col else [])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col] + order, kind="mergesort")
        ts = g[ts_col].to_numpy()
        key = g[group_col].to_numpy()
        gap = np.empty(len(g), dtype=np.int64)
        if len(g):
            gap[1:] = ((ts[1:] - ts[:-1])
                       .astype("timedelta64[us]").astype(np.int64))
            first = np.r_[True, key[1:] != key[:-1]]
            gap[first] = sentinel
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             group_col: key, out_col: gap})

    return bucketed_groups(ds, group_col, kern, n_buckets=n_buckets)


def autocorr_by_group(
    ds: "ray.data.Dataset",
    group_col: str,
    order_cols: list[str],
    value_col: str,
    *,
    lag: int = 1,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Per-group lag-``k`` sample autocorrelation, EXACT in permille --
    the serial-dependence / behavioral-regularity feature (is a user's
    next value predictable from the current one?).  For the group's
    series x_1..x_n in ``order_cols`` order (int64 values):

        num = sum_{t<=n-k} (n*x_t - S)(n*x_{t+k} - S)
        den = sum_{t<=n}   (n*x_t - S)^2        (S = sum x)
        acf_permille = sign(num) * (1000*|num|) // den

    (the usual acf with the mean cleared of division by scaling both
    factors by n; truncation toward zero is part of the contract so a
    SQL engine agrees bit-for-bit).  Groups with n <= lag or den = 0
    (constant series) are dropped.

    Scale shape: one coarse hash(group) bucketed exchange (the
    corpus-shaped-group contract of :func:`lag_diff_by_group` -- groups
    must fit a bucket, the natural shape for per-user/per-session
    series).  Inside the bucket everything is sort-once + masked
    ``np.add.reduceat`` per-group partials (P = lagged products,
    S, Q, head/tail sums) -- no per-row Python; the final num/den
    assembly runs per GROUP in exact Python ints because n^2 * P
    overflows int64 on long series (group-count-shaped, same class as
    the documented md5-per-key loops).

    Returns (group_col, n_obs, acf_permille), all int64.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            group_col: pd.Series([], dtype=np.int64),
            "n_obs": pd.Series([], dtype=np.int64),
            "acf_permille": pd.Series([], dtype=np.int64)})
        if not len(g):
            return empty
        g = g.sort_values([group_col] + order_cols, kind="mergesort")
        key = g[group_col].to_numpy()
        x = g[value_col].to_numpy().astype(np.int64)
        m = len(x)
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = np.r_[starts[1:], m]
        n = (ends - starts).astype(np.int64)
        S = np.add.reduceat(x, starts)
        Q = np.add.reduceat(x * x, starts)
        prod = np.zeros(m, np.int64)
        if m > lag:
            valid = key[:-lag] == key[lag:]
            prod[:m - lag] = np.where(valid, x[:-lag] * x[lag:], 0)
        P = np.add.reduceat(prod, starts)
        pos = np.arange(m) - np.repeat(starts, n)
        H = np.add.reduceat(np.where(pos < lag, x, 0), starts)
        T = np.add.reduceat(
            np.where(pos >= np.repeat(n, n) - lag, x, 0), starts)
        out_k: list[int] = []
        out_n: list[int] = []
        out_a: list[int] = []
        for i in range(len(starts)):
            ni = int(n[i])
            if ni <= lag:
                continue
            Si, Pi, Qi = int(S[i]), int(P[i]), int(Q[i])
            Hi, Ti = int(H[i]), int(T[i])
            num = (ni * ni * Pi - ni * Si * (2 * Si - Ti - Hi)
                   + (ni - lag) * Si * Si)
            den = ni * ni * Qi - ni * Si * Si
            if den <= 0:
                continue
            acf = (-((1000 * -num) // den) if num < 0
                   else (1000 * num) // den)
            out_k.append(int(key[starts[i]]))
            out_n.append(ni)
            out_a.append(acf)
        return pd.DataFrame({
            group_col: np.array(out_k, np.int64),
            "n_obs": np.array(out_n, np.int64),
            "acf_permille": np.array(out_a, np.int64)})

    return bucketed_groups(ds, group_col, kern, n_buckets=n_buckets)


def running_total_by_group(
    ds: "ray.data.Dataset",
    group_col: str,
    order_cols: list[str],
    value_col: str,
    id_col: str,
    *,
    out_col: str = "running_total",
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """SQL ``sum() OVER (PARTITION BY key ORDER BY ... ROWS UNBOUNDED
    PRECEDING)``: per-key cumulative sum in the given order.  Whole-
    bucket vectorized: global cumsum minus the segment-start offset."""

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col] + order_cols, kind="mergesort")
        key = g[group_col].to_numpy()
        v = g[value_col].to_numpy()
        cs = np.cumsum(v)
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        # cumulative total just BEFORE each segment, broadcast per row
        seg_lens = np.diff(np.append(starts, len(g)))
        base = np.repeat(np.r_[0, cs[starts[1:] - 1]], seg_lens)
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             group_col: key,
                             out_col: cs - base})

    return bucketed_groups(ds, group_col, kern, n_buckets=n_buckets)


def rank_by_group(
    ds: "ray.data.Dataset",
    group_col: str,
    value_col: str,
    id_col: str,
    *,
    descending: bool = True,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """SQL ``rank()`` and ``dense_rank()`` per group ordered by
    ``value_col``: peers (equal values) share a rank; rank skips after
    ties, dense_rank does not.  Whole-bucket vectorized (one sort +
    boundary cumsums, no per-key dispatch)."""

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, value_col], kind="mergesort",
                          ascending=[True, not descending])
        key = g[group_col].to_numpy()
        v = g[value_col].to_numpy()
        n = len(g)
        newkey = np.r_[True, key[1:] != key[:-1]]
        newval = np.r_[True, (v[1:] != v[:-1])] | newkey
        idx = np.arange(n, dtype=np.int64)
        seg_start = np.maximum.accumulate(np.where(newkey, idx, 0))
        # rank: 1 + rows before the first peer within the segment
        peer_start = np.maximum.accumulate(np.where(newval, idx, 0))
        rank = peer_start - seg_start + 1
        # dense_rank: distinct-value counter within the segment
        dr = np.cumsum(newval)
        dense = dr - np.maximum.accumulate(np.where(newkey, dr, 0)) + 1
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             group_col: key,
                             "rank": rank.astype(np.int64),
                             "dense_rank": dense.astype(np.int64)})

    return bucketed_groups(ds, group_col, kern, n_buckets=n_buckets)


def quantile_normalize(
    ds: "ray.data.Dataset",
    group_col: str,
    value_col: str,
    id_col: str,
    *,
    ref_group,
    out_col: str = "mapped",
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Quantile normalization / distribution alignment: every group's
    values map onto the REFERENCE group's empirical distribution by
    rank -- the feature-alignment step for cross-source score
    calibration (microarray-style quantile normalization, rank-mapped
    variant).  Exact integer contract: with rn = row_number within
    the group ordered by (value, id), ng = group size and nr = ref
    size, a row maps to the ref value of rank ``1 + (rn-1)*nr // ng``
    (the ref group maps to itself identically).

    Scale shape: pass A ranks rows inside one group-bucketed exchange
    (whole-group-per-bucket contract, same as :func:`rank_by_group`;
    swap in a per-group :func:`row_number_global` when single groups
    outgrow a worker); the ref lookup is a RANK-KEYED tagged-union
    co-partition -- ref rows key on their rank, probe rows on their
    target rank -- so the reference distribution is never broadcast
    or materialized on the driver.  Output:
    (id_col, group_col, value_col, out_col), value dtype preserved."""

    def rank_kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, value_col, id_col],
                          kind="mergesort")
        key = g[group_col].to_numpy()
        n = len(g)
        idx = np.arange(n, dtype=np.int64)
        newkey = np.r_[True, key[1:] != key[:-1]]
        seg = np.maximum.accumulate(np.where(newkey, idx, 0))
        rn = idx - seg + 1
        bounds = np.flatnonzero(newkey)
        sizes = np.diff(np.append(bounds, n))
        ng = np.repeat(sizes, sizes).astype(np.int64)
        return pd.DataFrame({
            "pid": g[id_col].to_numpy(), "grp": key,
            "val": g[value_col].to_numpy(), "rn": rn, "ng": ng})

    ranked = bucketed_groups(
        ds.select_columns([id_col, group_col, value_col]),
        group_col, rank_kern, n_buckets=n_buckets).materialize()

    def count_ref(t: pa.Table) -> pa.Table:
        m = pc.equal(t["grp"].combine_chunks(), ref_group)
        return pa.table({"c": pa.array(
            [int(pc.sum(pc.cast(m, pa.int64())).as_py() or 0)],
            pa.int64())})

    nr = int(ranked.map_batches(count_ref, batch_format="pyarrow")
             .to_pandas()["c"].sum())
    if nr == 0:
        raise ValueError(f"reference group {ref_group!r} is empty")

    def probe_rows(t: pa.Table) -> pa.Table:
        rn = t["rn"].combine_chunks().to_numpy(zero_copy_only=False)
        ng = t["ng"].combine_chunks().to_numpy(zero_copy_only=False)
        key = 1 + (rn - 1) * np.int64(nr) // ng
        return pa.table({"key": pa.array(key, pa.int64()),
                         "side": pa.array(np.ones(len(rn), np.int64)),
                         "pid": t["pid"], "grp": t["grp"],
                         "val": t["val"]})

    def ref_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["grp"].combine_chunks(), ref_group))
        return pa.table({"key": t["rn"],
                         "side": pa.array(np.zeros(t.num_rows,
                                                   np.int64)),
                         "pid": t["pid"], "grp": t["grp"],
                         "val": t["val"]})

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        ref = g[g["side"] == 0]
        pr = g[g["side"] == 1]
        lk = dict(zip(ref["key"].to_numpy(), ref["val"].to_numpy()))
        return pd.DataFrame({
            id_col: pr["pid"].to_numpy(),
            group_col: pr["grp"].to_numpy(),
            value_col: pr["val"].to_numpy(),
            out_col: pr["key"].map(lk).to_numpy()})

    tagged = (ranked.map_batches(ref_rows, batch_format="pyarrow")
              .union(ranked.map_batches(probe_rows,
                                        batch_format="pyarrow")))
    return bucketed_groups(tagged, "key", resolve,
                           n_buckets=n_buckets)


def rolling_count_by_group(
    ds: "ray.data.Dataset",
    group_col: str,
    ts_col: str,
    id_col: str,
    window,
    *,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """SQL RANGE-frame rolling count: for each row, the number of rows
    of the same group with ts in [row.ts - window, row.ts] (peers with
    EQUAL timestamps all count, exactly like ``RANGE BETWEEN <window>
    PRECEDING AND CURRENT ROW``).  Per-bucket kernel: one sort by
    (key, ts), then two searchsorted passes per key SLICE (numpy over
    contiguous views; the per-slice loop is in-worker, not a dispatch)
    -- deliberately NOT pandas ``rolling`` whose ROW-based tie handling
    diverges from SQL."""

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, ts_col], kind="mergesort")
        ts = g[ts_col].to_numpy()
        key = g[group_col].to_numpy()
        n = len(g)
        bounds = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        bounds = np.append(bounds, n)
        out = np.empty(n, dtype=np.int64)
        for s, e in zip(bounds[:-1], bounds[1:]):
            seg = ts[s:e]
            hi = np.searchsorted(seg, seg, side="right")
            lo = np.searchsorted(seg, seg - window, side="left")
            out[s:e] = hi - lo
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             "n_in_window": out})

    return bucketed_groups(ds, group_col, roll, n_buckets=n_buckets)


def ntile_by_group(
    ds: "ray.data.Dataset",
    group_col: str,
    order_cols: list[str],
    id_col: str,
    n_tiles: int,
    *,
    out_col: str = "tile",
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """SQL ``ntile(n) OVER (PARTITION BY group ORDER BY ...)``: rows of
    each group split into ``n`` tiles as equal as possible, the first
    ``count mod n`` tiles one row larger (the SQL-standard fill rule).
    Pass a unique tie-break in ``order_cols`` for determinism.  Whole-
    bucket vectorized: one sort, segment arithmetic, no per-key kernel."""

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col] + order_cols, kind="mergesort")
        key = g[group_col].to_numpy()
        n = len(g)
        idx = np.arange(n, dtype=np.int64)
        newkey = np.r_[True, key[1:] != key[:-1]] if n else np.array([], bool)
        seg_start = np.maximum.accumulate(np.where(newkey, idx, 0))
        starts = np.flatnonzero(newkey)
        seg_lens = np.diff(np.append(starts, n))
        size = np.repeat(seg_lens, seg_lens)          # group size per row
        pos = idx - seg_start                         # 0-based row in group
        q, r = size // n_tiles, size % n_tiles
        # rows 0 .. (q+1)*r-1 fall in the r big tiles of size q+1
        big = pos < (q + 1) * r
        tile = np.where(big, pos // np.maximum(q + 1, 1),
                        r + (pos - (q + 1) * r) // np.maximum(q, 1)) + 1
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             group_col: key,
                             out_col: tile.astype(np.int64)})

    return bucketed_groups(ds, group_col, kern, n_buckets=n_buckets)


def hopping_window_agg(
    ds: "ray.data.Dataset",
    ts_col: str,
    value_col: str,
    *,
    window_s: int,
    hop_s: int,
) -> "ray.data.Dataset":
    """Hopping (sliding) event-time windows: every event lands in
    ``window_s / hop_s`` overlapping windows; per-window count and
    integer-cents value sum.  The window explode and the aggregation
    partials happen INSIDE each batch (one Arrow group_by), so the
    shuffle carries (window, count, cents) partials -- bounded by
    distinct windows per block, never the exploded rows.  Output:
    window_start_s (epoch seconds, int64), n_events, value_cents."""
    if window_s % hop_s:
        raise ValueError("window_s must be a multiple of hop_s")
    n_hops = window_s // hop_s

    def partial(t: pa.Table) -> pa.Table:
        ts = t[ts_col].combine_chunks().to_numpy().astype(
            "datetime64[us]").astype(np.int64)
        sec = ts // 1_000_000
        hb = sec // hop_s
        v = t[value_col].combine_chunks().to_numpy()
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        # each event's n_hops window starts, exploded batch-locally
        starts = ((hb[:, None] - np.arange(n_hops, dtype=np.int64))
                  * hop_s).reshape(-1)
        tt = pa.table({
            "window_start_s": pa.array(starts),
            "n_events": pa.array(np.ones(len(starts), dtype=np.int64)),
            "value_cents": pa.array(np.repeat(cents, n_hops)),
        })
        g = tt.group_by("window_start_s").aggregate(
            [("n_events", "sum"), ("value_cents", "sum")])
        return pa.table({"window_start_s": g["window_start_s"],
                         "n_events": g["n_events_sum"],
                         "value_cents": g["value_cents_sum"]})

    from ray.data.aggregate import Sum

    return (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("window_start_s").aggregate(
                Sum("n_events", alias_name="n_events"),
                Sum("value_cents", alias_name="value_cents")))


def tag_late_events(
    ds: "ray.data.Dataset",
    arrival_col: str,
    ts_col: str,
    *,
    allowed_lateness_us: int,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Watermark-style late-data tagging: an event is LATE when its
    event time trails the high-water mark of everything that ARRIVED
    before it (max event-time over preceding arrival order) by more
    than ``allowed_lateness_us``.

    Distributed running max without a global sort: ``arrival_col``
    range-buckets preserve arrival order (the ops/pack.py pattern), a
    tiny per-bucket max table prefix-maxes on the driver, and each
    bucket's kernel runs one vectorized cummax seeded with its
    predecessor buckets' watermark.  Output: arrival_col, is_late
    (int64 0/1; the first-arriving event is never late)."""
    from ray.data.aggregate import Max, Min

    n_buckets = resolve_group_buckets(n_buckets)

    stats = ds.aggregate(Min(arrival_col), Max(arrival_col))
    lo = int(stats[f"min({arrival_col})"])
    hi = int(stats[f"max({arrival_col})"])
    width = max((hi - lo) // n_buckets + 1, 1)

    def bucket_of(arr: pa.Array) -> pa.Array:
        import pyarrow.compute as pc

        return pc.divide(pc.cast(pc.subtract(arr, lo), pa.int64()),
                         pa.scalar(width, pa.int64()))

    def bucket_max(t: pa.Table) -> pa.Table:
        b = bucket_of(t[arrival_col].combine_chunks())
        # normalize to MICROSECONDS regardless of the source's timestamp
        # unit (an in-memory source can carry timestamp[s]; the kernel
        # below always works in us)
        ts = (t[ts_col].combine_chunks().cast(pa.timestamp("us"))
              .cast(pa.int64()))
        tt = pa.table({"_b": b, "_m": ts})
        g = tt.group_by("_b").aggregate([("_m", "max")])
        return pa.table({"_b": g["_b"], "_m": g["_m_max"]})

    maxes = (ds.map_batches(bucket_max, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby("_b").max("_m").to_pandas().sort_values("_b"))
    # watermark entering bucket b = max event time of buckets < b
    SENTINEL = np.iinfo(np.int64).min // 4  # "- lateness" cannot underflow
    seed = np.full(n_buckets + 1, SENTINEL, dtype=np.int64)
    run = SENTINEL
    by_b = dict(zip(maxes["_b"].astype(int), maxes["max(_m)"]))
    for b in range(n_buckets + 1):
        seed[b] = run
        if b in by_b:
            run = max(run, int(by_b[b]))
    seed_ref = ray.put(seed)

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_b", bucket_of(t[arrival_col].combine_chunks()))

    def tag(g: pd.DataFrame) -> pd.DataFrame:
        base = ray.get(seed_ref)[int(g["_b"].iloc[0])]
        g = g.sort_values(arrival_col, kind="mergesort")
        ts = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        # watermark BEFORE each row: running max shifted by one
        run = np.maximum.accumulate(np.r_[base, ts[:-1]])
        late = (ts < run - allowed_lateness_us).astype(np.int64)
        return pd.DataFrame({arrival_col: g[arrival_col].to_numpy(),
                             "is_late": late})

    return (ds.map_batches(add_bucket, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("_b").map_groups(tag, batch_format="pandas"))


def funnel_first_conversion(
    events: ray.data.Dataset,
    user_col: str,
    ts_col: str,
    type_col: str,
    *,
    step_a: str,
    step_b: str,
    window: "datetime.timedelta",
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Two-step funnel: for every user with >=1 ``step_a`` event, the
    earliest ``step_b`` event that has SOME step_a event within
    ``[b_ts - window, b_ts]`` (closed interval both ends, i.e.
    a.ts <= b.ts <= a.ts + window -- SQL BETWEEN semantics), plus the
    user's step_a count.  Unconverted users emit a null timestamp.

    Shape: the same single co-partitioning shuffle as the range join --
    both step streams tag a side marker, union, and route through one
    coarse bucketed exchange; the per-bucket kernel is one sort plus
    two searchsorted probes per contiguous user slice (O((na+nb) log na)
    per user, no per-key dispatch).  Only (user, ts, side) rows move --
    never the full event payload.
    """

    def pick(step: str, side: int):
        def fn(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            m = pc.equal(t[type_col].combine_chunks(), step)
            f = t.filter(m)
            n = len(f)
            return pa.table({
                user_col: f[user_col].combine_chunks().cast(pa.int64()),
                "_ts": f[ts_col].combine_chunks().cast(pa.timestamp("us")),
                "_side": pa.nulls(n, pa.int8()).fill_null(side)})
        return fn

    both = events.map_batches(
        pick(step_a, 0), batch_format="pyarrow", zero_copy_batch=True
    ).union(events.map_batches(
        pick(step_b, 1), batch_format="pyarrow", zero_copy_batch=True))

    win = np.timedelta64(int(window.total_seconds() * 1_000_000), "us")
    out_schema = pa.schema([(user_col, pa.int64()),
                            ("n_step_a", pa.int64()),
                            ("first_conversion_ts", pa.timestamp("us"))])
    empty = pa.table({n: pa.nulls(0, out_schema.field(n).type)
                      for n in out_schema.names}, schema=out_schema)

    def kern(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([user_col, "_ts"], kind="mergesort")
        ts = g["_ts"].to_numpy().astype("datetime64[us]")
        side = g["_side"].to_numpy()
        users = g[user_col].to_numpy()
        n = len(g)
        if n == 0:
            return empty
        bounds = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        bounds = np.append(bounds, n)
        out_u, out_na, out_conv = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            is_b = side[s:e] == 1
            a_ts = ts[s:e][~is_b]
            if len(a_ts) == 0:
                continue  # funnel is defined over users who did step A
            b_ts = ts[s:e][is_b]
            lo = np.searchsorted(a_ts, b_ts - win, side="left")
            hi = np.searchsorted(a_ts, b_ts, side="right")
            ok = np.flatnonzero(hi > lo)
            out_u.append(int(users[s]))
            out_na.append(len(a_ts))
            out_conv.append(b_ts[ok[0]] if len(ok) else None)
        return pa.table(
            {user_col: pa.array(out_u, type=pa.int64()),
             "n_step_a": pa.array(out_na, type=pa.int64()),
             "first_conversion_ts": pa.array(out_conv,
                                             type=pa.timestamp("us"))},
            schema=out_schema)

    return bucketed_groups(both, user_col, kern, n_buckets=n_buckets)


def runs_by_group(
    ds: ray.data.Dataset,
    group_col: str,
    order_cols: list[str],
    value_col: str,
    *,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Gaps-and-islands / run-length encoding per key: collapse
    CONSECUTIVE rows (ordered by ``order_cols`` within ``group_col``)
    holding the same ``value_col`` into one run row
    (group, value, valid_from, last_seen, n_rows) -- the SCD2-interval
    builder (and the vectorized replacement for the classic
    LAG + cumulative-sum SQL idiom).

    One coarse bucketed shuffle; the per-bucket kernel is a single sort
    plus numpy boundary detection + segment reduceat -- no per-key
    dispatch, no Python row loop."""
    first_order = order_cols[0]

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col] + order_cols, kind="mergesort")
        keys = g[group_col].to_numpy()
        vals = g[value_col].to_numpy()
        ts = g[first_order].to_numpy()
        n = len(g)
        if n == 0:
            return pd.DataFrame({group_col: [], value_col: [],
                                 "valid_from": [], "last_seen": [],
                                 "n_rows": []})
        brk = np.r_[True, (keys[1:] != keys[:-1]) | (vals[1:] != vals[:-1])]
        starts = np.flatnonzero(brk)
        ends = np.r_[starts[1:], n] - 1
        return pd.DataFrame({
            group_col: keys[starts],
            value_col: vals[starts],
            "valid_from": ts[starts],
            "last_seen": ts[ends],
            "n_rows": (ends - starts + 1).astype(np.int64)})

    return bucketed_groups(ds, group_col, kern, n_buckets=n_buckets)


def row_number_global(
    ds: "ray.data.Dataset",
    order_col: str,
    *,
    tie_cols: list[str] | None = None,
    out_col: str = "row_num",
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Exact global 1-based ROW_NUMBER ordered by
    ``(order_col, *tie_cols)`` without a global sort -- the
    zip-with-index primitive.  ``order_col`` must be int64; the full
    tuple must be unique for a deterministic numbering.

    Scale shape: equi-width range buckets on ``order_col`` (ties share
    a value, hence a bucket, so ``tie_cols`` never cross buckets), a
    tiny per-bucket count table prefix-summed on the driver, then one
    bucketed shuffle with a per-bucket sort + arange + broadcast
    offset.  The exchange moves each row once; the driver sees only
    ``n_buckets`` integers.  Equi-width bucketing assumes the order
    key is not pathologically skewed; raise ``n_buckets`` (or
    pre-transform the key) for skewed domains."""
    from ray.data.aggregate import Max, Min

    n_buckets = resolve_group_buckets(n_buckets)

    tie_cols = tie_cols or []
    stats = ds.aggregate(Min(order_col), Max(order_col))
    lo = int(stats[f"min({order_col})"])
    hi = int(stats[f"max({order_col})"])
    width = max((hi - lo) // n_buckets + 1, 1)

    def bucket_of(arr):
        return pc.divide(pc.cast(pc.subtract(arr, lo), pa.int64()),
                         pa.scalar(width, pa.int64()))

    def bucket_count(t: pa.Table) -> pa.Table:
        b = bucket_of(t[order_col].combine_chunks())
        tt = pa.table({"_b": b,
                       "_n": pa.array(np.ones(len(t), np.int64))})
        g = tt.group_by("_b").aggregate([("_n", "sum")])
        return pa.table({"_b": g["_b"], "_n": g["_n_sum"]})

    counts = (ds.map_batches(bucket_count, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("_b").sum("_n").to_pandas().sort_values("_b"))
    offsets = np.zeros(n_buckets + 2, dtype=np.int64)
    by_b = dict(zip(counts["_b"].astype(int), counts["sum(_n)"]))
    run = 0
    for b in range(n_buckets + 2):
        offsets[b] = run
        run += int(by_b.get(b, 0))
    off_ref = ray.put(offsets)

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_b", bucket_of(t[order_col].combine_chunks()))

    def number(g: pd.DataFrame) -> pd.DataFrame:
        base = ray.get(off_ref)[int(g["_b"].iloc[0])]
        g = g.sort_values([order_col] + tie_cols,
                          kind="mergesort").drop(columns="_b")
        g[out_col] = base + np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return (ds.map_batches(add_bucket, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("_b").map_groups(number, batch_format="pandas"))


def twap_by_group(
    ds: "ray.data.Dataset",
    key_col: str,
    ts_col: str,
    value_col: str,
    *,
    tie_col: str | None = None,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Time-weighted average per key: each observation holds until the
    key's next event, so its weight is the gap to that event in
    microseconds (the last observation carries no weight) -- the TWAP
    / sensor-mean primitive, exact in int64 as
    ``(n_intervals, sum_dt_us, sum_value_dt, twap = sum_value_dt //
    sum_dt_us)``.

    ``value_col`` must be int64 (pre-scale floats upstream); products
    use checked multiplies, so a value x timespan envelope past int64
    fails loudly rather than wrapping.  One bucketed key-hash shuffle;
    the kernel is a whole-bucket sort + vectorized diff with key
    boundaries masked."""
    order = [key_col, ts_col] + ([tie_col] if tie_col else [])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort")
        k = g[key_col].to_numpy()
        ts = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        v = g[value_col].to_numpy()
        same = np.r_[k[:-1] == k[1:], False]
        dt = np.where(same, np.r_[np.diff(ts), 0], 0)
        w = pc.multiply_checked(pa.array(v, pa.int64()),
                                pa.array(dt, pa.int64())).to_numpy()
        df = pd.DataFrame({key_col: k,
                           "_n": same.astype(np.int64),
                           "_dt": dt, "_w": w})
        s = df.groupby(key_col, sort=False, as_index=False).sum()
        s["twap"] = np.where(
            s["_dt"] == 0, 0,
            s["_w"] // np.where(s["_dt"] == 0, 1, s["_dt"]))
        return s.rename(columns={"_n": "n_intervals",
                                 "_dt": "sum_dt_us",
                                 "_w": "sum_value_dt"})

    return bucketed_groups(ds, key_col, kern, n_buckets=n_buckets)


def transition_counts(
    ds: "ray.data.Dataset",
    key_col: str,
    ts_col: str,
    state_col: str,
    *,
    tie_col: str | None = None,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """First-order Markov transition matrix over per-key event
    sequences: for every (from_state, to_state) pair, how many times a
    key's event was followed by that next state in (ts, tie) order --
    the session-flow / user-journey primitive.  Output:
    ``from_state, to_state, n`` (int64).

    One bucketed key-hash shuffle; the kernel sorts the whole bucket
    once, masks key boundaries, and counts pairs with a C-speed pandas
    groupby.  The final exchange carries per-bucket
    (from, to, n) partials -- state-vocabulary^2-bounded."""
    order = [key_col, ts_col] + ([tie_col] if tie_col else [])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort")
        k = g[key_col].to_numpy()
        s = g[state_col].to_numpy()
        same = k[:-1] == k[1:]
        df = pd.DataFrame({"from_state": s[:-1][same],
                           "to_state": s[1:][same]})
        out = (df.groupby(["from_state", "to_state"], as_index=False,
                          sort=False).size()
               .rename(columns={"size": "n"}))
        out["n"] = out["n"].astype(np.int64)
        return out

    partials = bucketed_groups(ds, key_col, kern, n_buckets=n_buckets)
    return bucketed_sum(partials, ["from_state", "to_state"], ["n"],
                        n_buckets=n_buckets)


def rank_global(
    ds: "ray.data.Dataset",
    order_col: str,
    *,
    out_col: str = "rank",
    pct_col: str | None = "pct_permille",
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Exact global SQL ``RANK()`` ordered by ``order_col`` (ties share
    a rank; the next rank skips), plus the integer permille percentile
    ``1000 * (rank - 1) // (N - 1)`` -- feature-normalization /
    leaderboard primitive, no global sort.

    Same scale shape as :func:`row_number_global`: equi-width range
    buckets on the int64 order column (a value's ties all land in its
    bucket), per-bucket counts prefix-summed on the driver, and one
    bucketed shuffle whose kernel ranks via sort + first-occurrence
    offsets.  ``order_col`` must be int64."""
    from ray.data.aggregate import Max, Min

    n_buckets = resolve_group_buckets(n_buckets)

    stats = ds.aggregate(Min(order_col), Max(order_col))
    lo = int(stats[f"min({order_col})"])
    hi = int(stats[f"max({order_col})"])
    width = max((hi - lo) // n_buckets + 1, 1)

    def bucket_of(arr):
        return pc.divide(pc.cast(pc.subtract(arr, lo), pa.int64()),
                         pa.scalar(width, pa.int64()))

    def bucket_count(t: pa.Table) -> pa.Table:
        b = bucket_of(t[order_col].combine_chunks())
        tt = pa.table({"_b": b,
                       "_n": pa.array(np.ones(len(t), np.int64))})
        g = tt.group_by("_b").aggregate([("_n", "sum")])
        return pa.table({"_b": g["_b"], "_n": g["_n_sum"]})

    counts = (ds.map_batches(bucket_count, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("_b").sum("_n").to_pandas().sort_values("_b"))
    by_b = dict(zip(counts["_b"].astype(int), counts["sum(_n)"]))
    offsets = np.zeros(n_buckets + 2, dtype=np.int64)
    run = 0
    for b in range(n_buckets + 2):
        offsets[b] = run
        run += int(by_b.get(b, 0))
    total = run
    off_ref = ray.put(offsets)

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_b", bucket_of(t[order_col].combine_chunks()))

    def rank_kern(g: pd.DataFrame) -> pd.DataFrame:
        base = ray.get(off_ref)[int(g["_b"].iloc[0])]
        g = g.sort_values(order_col, kind="mergesort").drop(columns="_b")
        v = g[order_col].to_numpy()
        # rank of each row = base + index of its value's FIRST occurrence
        first = np.r_[True, v[1:] != v[:-1]]
        rank = base + 1 + np.maximum.accumulate(
            np.where(first, np.arange(len(v), dtype=np.int64), 0))
        g[out_col] = rank
        if pct_col is not None:
            denom = max(total - 1, 1)
            g[pct_col] = 1000 * (rank - 1) // denom
        return g

    return (ds.map_batches(add_bucket, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("_b").map_groups(rank_kern, batch_format="pandas"))


def dense_grid_counts(
    ds: "ray.data.Dataset",
    key_col: str,
    ts_col: str,
    *,
    unit_us: int = 3_600_000_000,
    out_ts: str = "window_start",
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Resample to a DENSE time grid with zero-fill: per key, the event
    count for EVERY window between the corpus's first and last window
    -- including empty ones -- the gap-filling step before any
    time-series model ingests the counts.  Output: key, ``out_ts``
    (timestamp us), ``n`` (int64, 0 for silent windows).

    Scale shape: count partials per (key, window) as usual; the grid
    itself is GENERATED DISTRIBUTED (``ray.data.range`` over windows x
    a broadcast key vocabulary -- key cardinality must be
    vocabulary-sized, the usual dimension contract), unioned with the
    real counts as zero rows, and folded through one coarse-bucket
    sum.  No driver-side grid materialization."""
    import ray as _ray
    from ray.data.aggregate import Max, Min

    def partial(t: pa.Table) -> pa.Table:
        ts = pc.cast(t[ts_col].combine_chunks(), pa.timestamp("us"))
        win = pc.multiply(
            pc.divide(pc.cast(ts, pa.int64()),
                      pa.scalar(unit_us, pa.int64())),
            pa.scalar(unit_us, pa.int64()))
        tt = pa.table({key_col: t[key_col].combine_chunks(),
                       "_w": win,
                       "n": pa.array(np.ones(len(t), np.int64))})
        g = tt.group_by([key_col, "_w"]).aggregate([("n", "sum")])
        return pa.table({key_col: g[key_col], "_w": g["_w"],
                         "n": g["n_sum"]})

    counts = (ds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True).materialize())
    stats = counts.aggregate(Min("_w"), Max("_w"))
    lo, hi = int(stats["min(_w)"]), int(stats["max(_w)"])
    n_win = (hi - lo) // unit_us + 1

    def key_partial(t: pa.Table) -> pa.Table:
        return pa.table({key_col: pc.unique(t[key_col].combine_chunks())})

    keys = sorted(
        counts.map_batches(key_partial, batch_format="pyarrow")
        .to_pandas()[key_col].unique())
    keys_ref = _ray.put(np.array(keys, dtype=object))

    def make_grid(t: pa.Table) -> pa.Table:
        ks = _ray.get(keys_ref)
        idx = t["id"].combine_chunks().to_numpy()
        wins = lo + idx * unit_us
        return pa.table({
            key_col: pa.array(np.tile(ks, len(idx))),
            "_w": pa.array(np.repeat(wins, len(ks))),
            "n": pa.array(np.zeros(len(idx) * len(ks), np.int64))})

    grid = ray.data.range(int(n_win)).map_batches(
        make_grid, batch_format="pyarrow")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby([key_col, "_w"], as_index=False, sort=False)[
            "n"].sum()
        out[out_ts] = out["_w"].to_numpy(np.int64).astype(
            "datetime64[us]")
        return out.drop(columns="_w")

    return bucketed_groups(counts.union(grid), key_col, finish,
                           n_buckets=n_buckets)


def funnel_steps(
    ds: "ray.data.Dataset",
    key_col: str,
    ts_col: str,
    type_col: str,
    steps: list[str],
    *,
    window_us: int,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """k-step funnel conversion: per key, the earliest chain
    step1 -> step2 -> ... where each step occurs strictly after the
    previous one and within ``window_us`` of it (first-touch
    semantics); returns one row per step with the count of keys that
    reached it -- the multi-step generalization of the 2-step funnel.

    One bucketed key-hash shuffle; inside each bucket the chain is
    k-1 vectorized merges over per-key first-occurrence tables (pandas
    C-speed, no per-key Python).  Per-bucket partials are k integers;
    the final exchange is k rows."""
    from ray.data.aggregate import Sum

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g[[key_col, ts_col, type_col]]
        ts = g[ts_col]
        if not np.issubdtype(ts.dtype, np.integer):
            g = g.assign(**{ts_col: ts.to_numpy()
                            .astype("datetime64[us]").astype(np.int64)})
        cur = (g[g[type_col] == steps[0]]
               .groupby(key_col, as_index=False)[ts_col].min()
               .rename(columns={ts_col: "_t"}))
        counts = [len(cur)]
        for s in steps[1:]:
            nxt = g[g[type_col] == s].merge(cur, on=key_col)
            nxt = nxt[(nxt[ts_col] > nxt["_t"])
                      & (nxt[ts_col] <= nxt["_t"] + window_us)]
            cur = (nxt.groupby(key_col, as_index=False)[ts_col].min()
                   .rename(columns={ts_col: "_t"}))
            counts.append(len(cur))
        return pd.DataFrame({
            "step": np.arange(1, len(steps) + 1, dtype=np.int64),
            "step_name": steps,
            "n_keys": np.array(counts, np.int64)})

    partials = bucketed_groups(ds, key_col, kern, n_buckets=n_buckets)
    return (partials.groupby(["step", "step_name"])
            .aggregate(Sum("n_keys", alias_name="n_keys")))


def rolling_active_users(
    ds: ray.data.Dataset,
    user_col: str,
    ts_col: str,
    *,
    window_days: int = 7,
    n_buckets: int | None = None,
) -> pd.DataFrame:
    """Rolling distinct-user count (the WAU/MAU primitive): for every
    day d in the corpus's [min_day, max_day] grid, how many distinct
    users had >= 1 event in the trailing ``window_days`` window
    [d - window_days + 1, d].  Exact, without ever re-counting
    distincts per day: each user's activity days collapse to merged
    coverage intervals (consecutive days <= window apart merge), each
    interval emits a (+1 at start, -1 past end) delta, and the answer
    is one cumulative sum over the dense day grid.

    Scale shape: distinct (user, day) pairs pre-shrunk per block, one
    hash(user) bucketed exchange for the interval merge (per-user work
    is a vectorized run sweep, no Python rows), then the delta table
    -- bounded by 2x the number of activity runs, day-cardinality
    shaped in practice -- folds on the driver.  Output: (day, wau),
    one row per grid day."""
    import pyarrow.compute as pc

    reach = window_days - 1

    def pairs(t: pa.Table) -> pa.Table:
        day = pc.cast(pc.cast(pc.cast(
            pc.cast(t[ts_col].combine_chunks(), pa.timestamp("us")),
            pa.date32()), pa.int32()), pa.int64())
        tt = pa.table({user_col: t[user_col].combine_chunks(),
                       "day": day})
        return tt.group_by([user_col, "day"]).aggregate([])

    pre = ds.map_batches(pairs, batch_format="pyarrow",
                         zero_copy_batch=True)

    def deltas(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([user_col, "day"]).sort_values(
            [user_col, "day"], kind="mergesort")
        u = g[user_col].to_numpy()
        d = g["day"].to_numpy(np.int64)
        brk = np.r_[True, (u[1:] != u[:-1]) | (d[1:] - d[:-1] > reach)]
        starts = np.flatnonzero(brk)
        ends = np.r_[starts[1:], len(d)] - 1
        return pd.DataFrame({
            "day": np.concatenate([d[starts], d[ends] + reach + 1]),
            "delta": np.concatenate([
                np.ones(len(starts), np.int64),
                -np.ones(len(starts), np.int64)])})

    dd = bucketed_groups(pre, user_col, deltas,
                         n_buckets=n_buckets).to_pandas()
    if "delta" not in dd.columns:   # empty corpus: columns dropped
        return pd.DataFrame({"day": pd.Series([], dtype=np.int64),
                             "wau": pd.Series([], dtype=np.int64)})
    sign = dd["delta"].to_numpy(np.int64)
    raw_days = dd["day"].to_numpy(np.int64)
    # grid bounds: opens sit AT observed days, closes reach+1 past a
    # run's last observed day -- recover [min_day, max_day] exactly
    dmin = int(raw_days[sign > 0].min())
    dmax = int(raw_days[sign < 0].max()) - reach - 1
    agg = dd.groupby("day", as_index=False)["delta"].sum()
    days = agg["day"].to_numpy(np.int64)
    grid = np.arange(dmin, dmax + 1, dtype=np.int64)
    dv = np.zeros(len(grid), np.int64)
    inb = days <= dmax
    np.add.at(dv, days[inb] - dmin, agg["delta"].to_numpy(np.int64)[inb])
    return pd.DataFrame({"day": grid, "wau": np.cumsum(dv)})


def running_distinct_by_group(
    ds: "ray.data.Dataset",
    group_col: str,
    order_cols: list[str],
    value_col: str,
    id_col: str,
    *,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Running DISTINCT count per group -- for each row, how many
    distinct ``value_col`` values its group has seen up to and
    including it in ``order_cols`` order (cumulative novelty: distinct
    event types so far, distinct pages visited, vocabulary growth).
    SQL has no ``COUNT(DISTINCT) OVER``; the standard emulation is a
    first-occurrence flag (ROW_NUMBER over (group, value) == 1)
    running-summed over the group window, and that is exactly what the
    kernel vectorizes.  The (group, *order_cols) tuple must order rows
    uniquely for determinism.

    Scale shape: one bucketed key-hash exchange; per-bucket kernel is
    one mergesort + pandas duplicated() + segment-masked cumsum, no
    per-key dispatch.  Returns (id, running_distinct)."""

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col] + order_cols, kind="mergesort")
        first = (~g.duplicated([group_col, value_col])).to_numpy()
        key = g[group_col].to_numpy()
        newkey = np.r_[True, key[1:] != key[:-1]]
        run = np.cumsum(first)
        base = np.maximum.accumulate(
            np.where(newkey, run - first, 0))
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            "running_distinct": (run - base).astype(np.int64)})

    return bucketed_groups(ds, group_col, kern, n_buckets=n_buckets)


def rrf_fuse(
    ds: "ray.data.Dataset",
    id_col: str,
    col_a: str,
    col_b: str,
    *,
    k_rrf: int = 60,
    micro: int = 1_000_000,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Reciprocal rank fusion (Cormack/Clarke/Buettcher) of TWO
    rankings of the same corpus -- the standard way to merge lexical
    and semantic retrieval lists before curation or eval.  Each item
    is ranked by ``col_a`` DESC then by ``col_b`` DESC (ties broken by
    ``id_col`` ASC -> unique ROW_NUMBER ranks, engine-exact), and::

        rrf_micro = micro // (k_rrf + rank_a) + micro // (k_rrf + rank_b)

    all int64 (floored reciprocal x1e6; no floats in the hash path).

    Scale shape, per ranking: equi-width range buckets on the negated
    int64 key (global order without a global sort -- rank_global's
    pattern), per-bucket counts prefix-summed on the driver, one
    bucketed shuffle whose kernel sorts (key, id) and offsets
    ROW_NUMBERs; the fusion itself is a node-shaped tagged union +
    bucketed sum on id.  Output: id, rank_a, rank_b, rrf_micro."""
    from ray.data.aggregate import Max, Min

    n_buckets = resolve_group_buckets(n_buckets)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "id": t[id_col].combine_chunks().cast(pa.int64()),
            "ka": pc.multiply(
                t[col_a].combine_chunks().cast(pa.int64()),
                pa.scalar(-1, pa.int64())),
            "kb": pc.multiply(
                t[col_b].combine_chunks().cast(pa.int64()),
                pa.scalar(-1, pa.int64()))})

    base = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()

    def row_number_desc(key: str) -> "ray.data.Dataset":
        stats = base.aggregate(Min(key), Max(key))
        lo, hi = int(stats[f"min({key})"]), int(stats[f"max({key})"])
        width = max((hi - lo) // n_buckets + 1, 1)

        def bucket_count(t: pa.Table) -> pa.Table:
            b = pc.divide(pc.cast(pc.subtract(
                t[key].combine_chunks(), lo), pa.int64()),
                pa.scalar(width, pa.int64()))
            g = pa.table({"_b": b, "_n": pa.array(
                np.ones(len(t), np.int64))}).group_by("_b").aggregate(
                [("_n", "sum")])
            return pa.table({"_b": g["_b"], "_n": g["_n_sum"]})

        counts = (base.map_batches(bucket_count, batch_format="pyarrow",
                                   zero_copy_batch=True)
                  .groupby("_b").sum("_n").to_pandas())
        by_b = dict(zip(counts["_b"].astype(int), counts["sum(_n)"]))
        offsets = np.zeros(n_buckets + 2, dtype=np.int64)
        run = 0
        for b in range(n_buckets + 2):
            offsets[b] = run
            run += int(by_b.get(b, 0))
        off_ref = ray.put(offsets)

        def add_bucket(t: pa.Table) -> pa.Table:
            return pa.table({
                "id": t["id"], key: t[key],
                "_b": pc.divide(pc.cast(pc.subtract(
                    t[key].combine_chunks(), lo), pa.int64()),
                    pa.scalar(width, pa.int64()))})

        def rn_kern(g: pd.DataFrame) -> pd.DataFrame:
            basei = ray.get(off_ref)[int(g["_b"].iloc[0])]
            g = g.sort_values([key, "id"], kind="mergesort")
            return pd.DataFrame({
                "id": g["id"].to_numpy(np.int64),
                "rn": basei + 1 + np.arange(len(g), dtype=np.int64)})

        return (base.map_batches(add_bucket, batch_format="pyarrow",
                                 zero_copy_batch=True)
                .groupby("_b").map_groups(rn_kern,
                                          batch_format="pandas"))

    kr = np.int64(k_rrf)
    mi = np.int64(micro)

    def tag(which: str):
        def t(g: pd.DataFrame) -> pd.DataFrame:
            rn = g["rn"].to_numpy(np.int64)
            z = np.zeros(len(g), np.int64)
            return pd.DataFrame({
                "id": g["id"].to_numpy(np.int64),
                "rank_a": rn if which == "a" else z,
                "rank_b": rn if which == "b" else z,
                "rrf_micro": mi // (kr + rn)})
        return t

    both = (row_number_desc("ka")
            .map_batches(tag("a"), batch_format="pandas")
            .union(row_number_desc("kb")
                   .map_batches(tag("b"), batch_format="pandas")))
    fused = bucketed_sum(both, ["id"],
                         ["rank_a", "rank_b", "rrf_micro"],
                         n_buckets=n_buckets)
    return fused.map_batches(
        lambda t: t.rename_columns([id_col, "rank_a", "rank_b",
                                    "rrf_micro"]),
        batch_format="pyarrow", zero_copy_batch=True)


def interval_union_by_group(
    ds: "ray.data.Dataset",
    key_col: str,
    start_col: str,
    end_col: str,
    *,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Per-key interval UNION (gaps-and-islands merge of overlapping
    [start, end] spans): total covered length and merged-island count
    -- the activity-coverage / uptime primitive (distinct from
    sessionize's gap windows: spans here have real extents and nesting
    counts once).

    Semantics match the SQL islands idiom exactly: spans sorted by
    (start, end) per key; a span starts a new island iff its start is
    STRICTLY greater than the running max end of all previous spans
    (touching spans merge).  Output: key, n_islands, covered (int64,
    same unit as the inputs).

    Scale shape: one hash(key) bucketed exchange; the kernel is whole-
    bucket vectorized (one sort, grouped cummax + shift, island cumsum,
    one groupby-agg) -- no per-key Python."""

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, start_col, end_col],
                          kind="mergesort")
        grp = g.groupby(key_col, sort=False)
        prev_max = grp[end_col].cummax().groupby(
            g[key_col], sort=False).shift(1)
        new_island = (prev_max.isna()
                      | (g[start_col] > prev_max)).to_numpy()
        island = np.cumsum(new_island)
        agg = pd.DataFrame({
            "k": g[key_col].to_numpy(),
            "i": island,
            "s": g[start_col].to_numpy(np.int64),
            "e": g[end_col].to_numpy(np.int64)})
        isl = (agg.groupby(["k", "i"], as_index=False, sort=False)
               .agg(s=("s", "min"), e=("e", "max")))
        cov = isl["e"].to_numpy(np.int64) - isl["s"].to_numpy(np.int64)
        isl["cov"] = cov
        out = (isl.groupby("k", as_index=False, sort=False)
               .agg(n_islands=("cov", "size"), covered=("cov", "sum")))
        return pd.DataFrame({
            key_col: out["k"].to_numpy(np.int64),
            "n_islands": out["n_islands"].to_numpy(np.int64),
            "covered": out["covered"].to_numpy(np.int64)})

    return bucketed_groups(ds, key_col, kern, n_buckets=n_buckets)


def trimmed_mean_stats(
    ds: "ray.data.Dataset",
    group_col: str,
    value_col: str,
    id_col: str,
    *,
    trim_permille: int,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Rank-based trimmed aggregate per group: drop EXACTLY
    ``floor(n * trim_permille / 1000)`` rows from each end of the
    (value, id) order -- the robust-mean variant that removes
    outliers instead of clamping them (:func:`winsorize
    <ci_log_processing_ray.ops.quantile.quantile_disc_by_group>`
    clamps; rank trimming is what 'X% trimmed mean' means).  Emits
    exact int64 sufficient statistics (n_kept, sum_kept) so the hash
    path never divides; callers form the mean.

    Scale shape: one group-bucketed exchange, whole-bucket vectorized
    kernel (one stable sort, per-group boundary arithmetic, masked
    groupby sum -- no per-group dispatch).  Whole-group-per-bucket
    contract, same as :func:`rank_by_group`; swap the rank pass to a
    per-group :func:`row_number_global` when one group outgrows a
    worker."""

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, value_col, id_col],
                          kind="mergesort")
        key = g[group_col].to_numpy()
        v = g[value_col].to_numpy()
        n = len(g)
        idx = np.arange(n, dtype=np.int64)
        newkey = np.r_[True, key[1:] != key[:-1]]
        seg = np.maximum.accumulate(np.where(newkey, idx, 0))
        bounds = np.flatnonzero(newkey)
        sizes = np.diff(np.append(bounds, n))
        ng = np.repeat(sizes, sizes).astype(np.int64)
        rn = idx - seg  # 0-based rank within group
        k = ng * trim_permille // 1000
        keep = (rn >= k) & (rn < ng - k)
        d = pd.DataFrame({"g": key[keep], "v": v[keep]})
        out = (d.groupby("g", as_index=False, sort=False)
               .agg(n_kept=("v", "size"), sum_kept=("v", "sum")))
        out["n_kept"] = out["n_kept"].astype(np.int64)
        out["sum_kept"] = out["sum_kept"].astype(np.int64)
        return out.rename(columns={"g": group_col})

    return bucketed_groups(ds, group_col, kern, n_buckets=n_buckets)


def survival_table(
    ds: "ray.data.Dataset",
    user_col: str,
    ts_col: str,
    type_col: str,
    *,
    start: str,
    event: str,
    n_buckets: int | None = None,
) -> pa.Table:
    """Kaplan-Meier survival table (time-to-event ingredients, exact
    int64): per observed EVENT duration d (whole days from a user's
    first ``start`` to their first ``event`` at-or-after it),
    ``n_events`` = users converting at d and ``n_at_risk`` = users
    whose observed duration (event, or censoring at the global max
    timestamp) is >= d.  S(t) = prod(1 - d_i/n_i) follows exactly;
    emitting the integer pair keeps the hash path division-free.

    Scale shape: one user-bucketed exchange; the per-bucket kernel is
    two vectorized merges (first start per user, first at-or-after
    event per user), so only (user, t0, te) triples leave the
    buckets; the censoring horizon is one tiny max aggregate, and the
    day table folds driver-side -- duration cardinality is the study
    length in days (vocabulary contract), never user-shaped."""
    from ray.data.aggregate import Max

    sel = ds.select_columns([user_col, ts_col, type_col])
    horizon = sel.aggregate(Max(ts_col))[f"max({ts_col})"]
    hz_us = np.datetime64(horizon, "us").astype(np.int64)

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        s = g[g[type_col] == start]
        u0 = (s.groupby(user_col, as_index=False)[ts_col].min()
              .rename(columns={ts_col: "t0"}))
        ev = g[g[type_col] == event].merge(u0, on=user_col)
        ev = ev[ev[ts_col] >= ev["t0"]]
        te = (ev.groupby(user_col, as_index=False)[ts_col].min()
              .rename(columns={ts_col: "te"}))
        out = u0.merge(te, on=user_col, how="left")
        t0 = out["t0"].to_numpy("datetime64[us]").astype(np.int64)
        tev = out["te"].to_numpy("datetime64[us]")
        conv = ~pd.isna(out["te"]).to_numpy()
        te_us = np.where(conv, tev.astype(np.int64), 0)
        de = np.where(conv, (te_us - t0) // 86_400_000_000, -1)
        dc = (hz_us - t0) // 86_400_000_000
        return pd.DataFrame({"de": de.astype(np.int64),
                             "dc": dc.astype(np.int64)})

    per_user = bucketed_groups(sel, user_col, kern,
                               n_buckets=n_buckets)

    def day_partial(t: pa.Table) -> pa.Table:
        de = t["de"].combine_chunks().to_numpy(zero_copy_only=False)
        dc = t["dc"].combine_chunks().to_numpy(zero_copy_only=False)
        dur = np.where(de >= 0, de, dc)
        evf = (de >= 0).astype(np.int64)
        d = (pd.DataFrame({"dur": dur, "ev": evf})
             .groupby("dur", as_index=False)
             .agg(n_events=("ev", "sum"), n_total=("ev", "size")))
        return pa.table({
            "dur": d["dur"].to_numpy(np.int64),
            "n_events": d["n_events"].to_numpy(np.int64),
            "n_total": d["n_total"].to_numpy(np.int64)})

    days = (per_user.map_batches(day_partial, batch_format="pyarrow")
            .to_pandas()
            .groupby("dur", as_index=False).sum()
            .sort_values("dur", ascending=False))
    at_risk = days["n_total"].cumsum()
    out = pd.DataFrame({
        "duration_days": days["dur"].to_numpy(np.int64),
        "n_events": days["n_events"].to_numpy(np.int64),
        "n_at_risk": at_risk.to_numpy(np.int64)})
    out = out[out["n_events"] > 0].sort_values("duration_days")
    return pa.Table.from_pandas(out, preserve_index=False)


def clamped_running_balance(
    ds: "ray.data.Dataset",
    group_col: str,
    order_cols: list[str],
    delta_col: str,
    *,
    out_col: str = "balance",
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Running balance clamped at zero per group (inventory /
    stock-level semantics: you cannot ship what you do not have):
    ``b_i = max(0, b_{i-1} + delta_i)``.  The scan looks
    non-associative, but clamping at zero has the closed form
    ``b_i = S_i - min(0, running_min(S_i))`` over the plain prefix
    sums S -- one cumsum + one cummin, both vectorizable and both
    SQL window functions, so the oracle stays binding (this identity
    is the whole point of the operator: a naive engine loops rows).

    Scale shape: one group-bucketed exchange, whole-bucket kernel
    (one stable sort, boundary-reset cumsum/cummin via the segment
    trick -- no per-group dispatch).  All int64."""

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col] + order_cols, kind="mergesort")
        key = g[group_col].to_numpy()
        d = g[delta_col].to_numpy(np.int64)
        n = len(g)
        # per-group prefix sums and running mins: pandas grouped
        # cumsum/cummin are single C passes (and unlike
        # maximum.accumulate base tricks, correct when totals
        # decrease across group boundaries)
        s = pd.Series(d).groupby(key).cumsum().to_numpy(np.int64)
        runmin = pd.Series(s).groupby(key).cummin().to_numpy(np.int64)
        out = g[[group_col] + order_cols].copy()
        out[delta_col] = d
        out[out_col] = s - np.minimum(0, runmin)
        return out

    return bucketed_groups(ds, group_col, kern, n_buckets=n_buckets)


def monotone_streaks(
    ds: "ray.data.Dataset",
    group_col: str,
    order_cols: list[str],
    value_col: str,
    *,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Longest strictly-increasing run per group (momentum/streak
    analytics: consecutive readings that keep rising in event order),
    plus the number of maximal increasing runs of length >= 2 and the
    group row count -- all exact int64.  A run breaks on <= (ties
    break runs).

    Scale shape: one group-bucketed exchange; whole-bucket vectorized
    kernel -- one stable sort, one diff, boundary-reset run-id cumsum
    (the sessionize trick), one groupby-max -- no per-group
    dispatch."""

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col] + order_cols, kind="mergesort")
        key = g[group_col].to_numpy()
        v = g[value_col].to_numpy()
        n = len(g)
        newkey = np.r_[True, key[1:] != key[:-1]]
        rising = np.r_[False, v[1:] > v[:-1]] & ~newkey
        # run id increments whenever the chain breaks
        run_id = np.cumsum(~rising)
        # position within run = index - first index of run
        idx = np.arange(n, dtype=np.int64)
        run_start = np.maximum.accumulate(np.where(~rising, idx, 0))
        run_len = idx - run_start + 1
        d = pd.DataFrame({"grp": key, "rid": run_id, "len": run_len})
        per_run = (d.groupby(["grp", "rid"], sort=False)["len"].max()
                   .reset_index())
        per_run["ge2"] = (per_run["len"] >= 2).astype(np.int64)
        out = (per_run.groupby("grp", as_index=False)
               .agg(longest_streak=("len", "max"),
                    n_streaks=("ge2", "sum")))
        sizes = d.groupby("grp", sort=False).size()
        out["n_rows"] = out["grp"].map(sizes).astype(np.int64)
        out["longest_streak"] = out["longest_streak"].astype(np.int64)
        out["n_streaks"] = out["n_streaks"].astype(np.int64)
        return out.rename(columns={"grp": group_col})

    return bucketed_groups(ds, group_col, kern, n_buckets=n_buckets)


def max_drawdown_by_group(
    ds: ray.data.Dataset,
    group_col: str,
    order_cols: list[str],
    val_col: str,
    *,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Maximum drawdown per group: the largest peak-to-trough decline
    of the RUNNING SUM of ``val_col`` over the ``order_cols`` order --
    the risk statistic of a balance/inventory/PnL stream, and a
    two-level scan (cumsum, then cummax of the cumsum) that plain
    grouped aggregation cannot express.

    One bucketed exchange; the per-bucket kernel sorts once by
    (group, *order), runs grouped ``cumsum`` and grouped ``cummax``
    (both C-speed pandas scans), and folds ``max(peak - sum)``,
    final balance and row count per group.  Emits int64
    ``(max_drawdown, final_balance, n_rows)``.
    """

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, *order_cols], kind="mergesort")
        keys = g[group_col].to_numpy()
        s = g.groupby(keys, sort=False)[val_col].cumsum()
        peak = s.groupby(keys, sort=False).cummax()
        dd = (peak - s).to_numpy()
        out = pd.DataFrame({group_col: keys, "_dd": dd,
                            "_s": s.to_numpy()})
        res = out.groupby(group_col, as_index=False, sort=False).agg(
            max_drawdown=("_dd", "max"),
            final_balance=("_s", "last"),
            n_rows=("_dd", "size"))
        for c in ("max_drawdown", "final_balance", "n_rows"):
            res[c] = res[c].astype(np.int64)
        return res

    return bucketed_groups(ds, group_col, kern, n_buckets=n_buckets)


def validity_intervals(
    ds: ray.data.Dataset,
    key_col: str,
    ts_col: str,
    tie_col: str,
    attr_cols: list[str],
    *,
    open_end_us: int = 4_102_444_800_000_000,  # 2100-01-01
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Slowly-changing-dimension (SCD type 2) interval build: each
    change row becomes a validity interval ``[valid_from, valid_to)``
    where ``valid_to`` is the key's NEXT change (``open_end_us`` for
    the current row) -- the warehouse snapshot primitive.  ``ts_col``
    and ``tie_col`` must be int64 (us / id); ties order by
    ``(ts, tie)``.

    Plan: ONE key-bucketed exchange; the per-bucket kernel sorts once
    by (key, ts, tie) and computes the lead with a single shifted-array
    compare (segment boundaries get the open sentinel) -- no per-key
    Python.  Partitioning assumption: one key's change history fits a
    bucket (change streams are per-entity small; salt by time range if
    a key is pathologically hot)."""

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tie_col], kind="stable")
        k = g[key_col].to_numpy()
        ts = g[ts_col].to_numpy(np.int64)
        nxt = np.empty(len(g), np.int64)
        if len(g):
            same = k[1:] == k[:-1]
            nxt[:-1] = np.where(same, ts[1:], open_end_us)
            nxt[-1] = open_end_us
        out = g[[key_col] + attr_cols].copy()
        out["valid_from"] = ts
        out["valid_to"] = nxt
        return out

    return bucketed_groups(ds, key_col, kern, n_buckets=n_buckets)


def sliding_extrema_by_group(
    ds: ray.data.Dataset,
    group_col: str,
    order_cols: list[str],
    val_col: str,
    k: int,
    *,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """ROWS-frame sliding max AND min per group (``ROWS BETWEEN k-1
    PRECEDING AND CURRENT ROW``), the monitoring/feature primitive
    pandas ``rolling`` handles per-group but we need whole-bucket
    vectorized.

    Kernel: sort once by (key, order); within-segment row index ``r``
    by cumsum-reset; then the RMQ sparse-table trick -- ceil(log2 k)
    doubling passes build ``M_s[i] = extremum over the last 2^s rows
    (segment-truncated via an r >= shift mask)``, and the answer is
    ``op(M_P[i], M_P[i - (k - 2^P)])`` with the shifted term masked at
    segment boundaries.  Partial head windows come out exactly because
    r < k - 2^P implies r < 2^P, so M_P alone already covers [0, r].
    O(n log k) numpy passes, zero per-group dispatch."""
    if k < 1:
        raise ValueError("k must be >= 1")

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col] + order_cols, kind="mergesort")
        key = g[group_col].to_numpy()
        v = g[val_col].to_numpy(np.int64)
        n = len(g)
        if n == 0:
            out = g.copy()
            out["roll_max"] = np.zeros(0, np.int64)
            out["roll_min"] = np.zeros(0, np.int64)
            return out
        seg_start = np.r_[True, key[1:] != key[:-1]]
        # within-segment index r
        idx = np.arange(n, dtype=np.int64)
        base = np.maximum.accumulate(np.where(seg_start, idx, 0))
        r = idx - base

        def build(vv: np.ndarray, op) -> np.ndarray:
            m = vv.copy()
            s = 1
            while s < k:
                half = min(s, k - s)  # last doubling may be partial
                shifted = np.empty_like(m)
                shifted[:half] = m[:half]  # masked anyway
                shifted[half:] = m[:-half]
                valid = r >= half
                m = np.where(valid, op(m, shifted), m)
                s += half
            return m

        roll_max = build(v, np.maximum)
        roll_min = build(v, np.minimum)
        out = g.copy()
        out["roll_max"] = roll_max
        out["roll_min"] = roll_min
        return out

    return bucketed_groups(ds, group_col, kern, n_buckets=n_buckets)
