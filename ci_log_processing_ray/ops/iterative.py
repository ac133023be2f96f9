"""Iterative distributed algorithms: k-means and connected components.

Both follow the same shape: a SMALL model state lives on the driver and
is re-broadcast each round (``ray.put``), while the big side streams
through ``map_batches`` producing mergeable partials.  Per-round data
movement is bounded by the model size, never the dataset.

* k-means: centroids (k x dim floats) broadcast; each batch computes
  nearest-centroid assignments with one matmul and emits per-centroid
  (sum, count) partials, combined driver-side for small block counts
  and through a distributed groupby beyond that (per-round driver
  traffic stays bounded either way); loops until movement < tol.
* connected components: two-phase local contraction (block-local
  union-find, then a driver closure over the contracted boundary
  graph) -- constant number of passes, diameter-independent; see the
  function docstring.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Min


def kmeans(
    ds: ray.data.Dataset,
    vec_col: str,
    *,
    k: int,
    n_iter: int = 10,
    tol: float = 1e-4,
    seed: int = 42,
    sample_size: int = 1024,
    checkpoint_dir: str | None = None,
    combine_threshold: int = 256,
) -> tuple[np.ndarray, "pd.DataFrame"]:
    """Lloyd's k-means over a ``list<float>`` column.

    ``checkpoint_dir`` makes the loop RESUMABLE: after every round the
    centroids land in ``round-NNNN.parquet`` (write-to-temp + atomic
    rename, the manifest discipline); a restarted call loads the
    latest checkpoint and continues from the next round, so a
    many-hour iterative job survives driver loss at the cost of one
    tiny file per round.

    Init: deterministic farthest-point traversal over a driver-side
    sample (first ``sample_size`` rows): start at the first point, then
    greedily add the sample point farthest from its nearest chosen
    centroid -- one pick per well-separated cluster by construction
    (random init can seed two centroids in one blob and converge to a
    split-blob local optimum).  Each round: ONE streaming pass --
    per-batch assignment matmul against the broadcast centroids,
    in-batch (centroid, sum, count) partials, k-row aggregate to the
    driver.  Returns (centroids [k, dim], per-cluster counts frame).
    The loop stops early when max centroid movement < ``tol``.
    """
    import glob as _glob
    import os as _os

    del seed  # deterministic init; kept for signature stability
    # materialize once: the loop passes over the data n_iter times, and
    # the block count decides how round partials are combined below
    ds = ds.materialize()
    n_blocks = ds.num_blocks()

    start_round = 0
    centroids = None
    if checkpoint_dir:
        _os.makedirs(checkpoint_dir, exist_ok=True)
        ckpts = sorted(_glob.glob(
            _os.path.join(checkpoint_dir, "round-*.parquet")))
        if ckpts:
            import pyarrow.parquet as _pq

            t = _pq.read_table(ckpts[-1])
            kk = int(pc.max(t["cid"]).as_py()) + 1
            dd = int(pc.max(t["pos"]).as_py()) + 1
            centroids = np.zeros((kk, dd))
            centroids[t["cid"].to_numpy(),
                      t["pos"].to_numpy()] = t["v"].to_numpy()
            start_round = int(
                _os.path.basename(ckpts[-1])[6:10]) + 1

    if centroids is None:
        first = ds.limit(sample_size).to_pandas()
        sample = np.vstack(first[vec_col].to_numpy()).astype(np.float64)
        k = min(k, len(sample))
        chosen = [0]
        d2 = ((sample - sample[0]) ** 2).sum(axis=1)
        for _ in range(k - 1):
            nxt = int(d2.argmax())
            chosen.append(nxt)
            d2 = np.minimum(d2, ((sample - sample[nxt]) ** 2).sum(axis=1))
        centroids = sample[chosen].copy()
    dim = centroids.shape[1]

    counts = None
    for _round in range(start_round, n_iter):
        c_ref = ray.put(centroids)

        def partials(t: pa.Table, _c_ref=c_ref) -> pa.Table:
            c = ray.get(_c_ref)  # zero-copy from the object store
            v = np.vstack(t[vec_col].to_numpy(zero_copy_only=False)).astype(
                np.float64)
            # nearest centroid: argmin ||v - c||^2 = argmin -2 v.c + |c|^2
            d = v @ c.T * -2.0 + (c * c).sum(axis=1)[None, :]
            assign = d.argmin(axis=1)
            sums = np.zeros((len(c), v.shape[1]))
            np.add.at(sums, assign, v)
            cnt = np.bincount(assign, minlength=len(c)).astype(np.int64)
            nz = cnt > 0
            flat = sums[nz].reshape(-1)
            cid = np.flatnonzero(nz).astype(np.int64)
            return pa.table({
                "cid": pa.array(np.repeat(cid, v.shape[1])),
                "pos": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                        len(cid))),
                "s": pa.array(flat),
                "n": pa.array(np.repeat(cnt[nz], v.shape[1])),
            })

        # per-block partials are k x dim rows.  With few blocks, collect
        # and combine on the driver (a distributed groupby paid
        # ~0.4s/round of pure exchange overhead for a result this
        # small); past the threshold the driver frame would grow as
        # blocks x k x dim, so fall back to the distributed combine.
        part_ds = ds.map_batches(partials, batch_format="pyarrow",
                                 zero_copy_batch=True)
        if n_blocks <= combine_threshold:
            agg = part_ds.to_pandas()
        else:
            from ray.data.aggregate import Sum

            agg = (part_ds.groupby(["cid", "pos"])
                   .aggregate(Sum("s", alias_name="s"),
                              Sum("n", alias_name="n")).to_pandas())
        agg = agg.groupby(["cid", "pos"], as_index=False)[["s", "n"]].sum()
        new = centroids.copy()
        agg = agg.sort_values(["cid", "pos"])
        for cid, g in agg.groupby("cid"):
            new[int(cid)] = g["s"].to_numpy() / g["n"].to_numpy()
        move = float(np.abs(new - centroids).max())
        counts = (agg[agg["pos"] == 0][["cid", "n"]]
                  .rename(columns={"n": "count"})
                  .astype({"cid": np.int64, "count": np.int64})
                  .reset_index(drop=True))
        centroids = new
        if checkpoint_dir:
            import pyarrow.parquet as _pq

            kk, dd = centroids.shape
            t = pa.table({
                "cid": pa.array(np.repeat(np.arange(kk, dtype=np.int64),
                                          dd)),
                "pos": pa.array(np.tile(np.arange(dd, dtype=np.int64),
                                        kk)),
                "v": pa.array(centroids.reshape(-1))})
            final = _os.path.join(checkpoint_dir,
                                  f"round-{_round:04d}.parquet")
            tmp = final + ".tmp"
            _pq.write_table(t, tmp)
            _os.replace(tmp, final)
        if move < tol:
            break
    return centroids, counts


def pagerank_fixedpoint(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    *,
    n_iter: int = 3,
    scale: int = 10**12,
    damp_num: int = 85,
    damp_den: int = 100,
) -> ray.data.Dataset:
    """PageRank in int64 FIXED-POINT arithmetic (same model-broadcast
    shape as :func:`kmeans`: per-node state -- ranks and out-degrees --
    lives on the driver and is re-broadcast each round; the big edge
    list streams through ``map_batches`` producing mergeable per-dst
    partials, so per-round data movement is bounded by the node count,
    never the edge count).

    Semantics (deterministic, oracle-exact -- every step is integer
    floor arithmetic, so a SQL engine reproduces the values bit-for-bit,
    unlike float power iteration whose summation order varies):

    * r0(v)   = scale // N for every node
    * r_{t+1}(v) = (15 * scale) // (100 * N)
                 + sum over in-edges (u, v), with edge multiplicity, of
                   (damp_num * r_t(u)) // (damp_den * outdeg(u))

    Dangling mass is NOT redistributed (the simplified variant common in
    batch pipelines: total mass leaks a little per round; the ranking
    ORDER is what downstream consumers use).  Multi-edges contribute
    once per occurrence.

    Partitioning assumption: the node state (ids, ranks, degrees) must
    be broadcast-sized -- the same contract as the k-means centroids.
    Graphs whose node state exceeds driver memory would need the rank
    vector sharded across workers; no such variant exists here.

    Returns a Dataset of (node, rank_fp) with rank_fp int64 in units of
    1/scale.
    """


    from ci_log_processing_ray.ops.window import (
        bucketed_distinct, bucketed_sum)

    edges = edges.map_batches(
        lambda t: pa.table({
            "src": t[src_col].combine_chunks().cast(pa.int64()),
            "dst": t[dst_col].combine_chunks().cast(pa.int64())}),
        batch_format="pyarrow").materialize()

    # node-keyed aggregates are CORPUS-shaped (one group per node):
    # per-block partials + the coarse bucketed exchange, never the
    # native per-distinct-group aggregate (measured ~28 s/round on a
    # 2M-node / 20M-edge graph vs ~4 s bucketed -- the ops/window.py
    # rule applied to graphs)
    def deg_partial(t: pa.Table) -> pa.Table:
        u, c = np.unique(t["src"].combine_chunks().to_numpy(),
                         return_counts=True)
        return pa.table({"src": pa.array(u),
                         "d": pa.array(c.astype(np.int64))})

    deg_df = bucketed_sum(
        edges.map_batches(deg_partial, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["src"], ["d"]).to_pandas()

    def node_partial(t: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate([
            t["src"].combine_chunks().to_numpy(),
            t["dst"].combine_chunks().to_numpy()]))
        return pa.table({"node": pa.array(u)})

    nodes = np.sort(
        bucketed_distinct(
            edges.map_batches(node_partial, batch_format="pyarrow",
                              zero_copy_batch=True),
            ["node"])
        .to_pandas()["node"].to_numpy().astype(np.int64))
    n = len(nodes)
    deg = np.zeros(n, dtype=np.int64)
    pos = np.searchsorted(nodes, deg_df["src"].to_numpy().astype(np.int64))
    deg[pos] = deg_df["d"].to_numpy().astype(np.int64)

    ranks = np.full(n, scale // n, dtype=np.int64)
    teleport = (15 * scale) // (100 * n)

    for _round in range(n_iter):
        state_ref = ray.put((nodes, ranks, deg))

        def contrib(t: pa.Table, _ref=state_ref) -> pa.Table:
            nd, r, dg = ray.get(_ref)  # zero-copy numpy views
            s = t["src"].combine_chunks().to_numpy()
            d = t["dst"].combine_chunks().to_numpy()
            si = np.searchsorted(nd, s)
            c = (damp_num * r[si]) // (damp_den * dg[si])
            # in-batch combine: one (dst, partial) row per distinct dst.
            # Sort-once + reduceat, NOT np.add.at scatter (sum order is
            # irrelevant, so the unstable sort is safe; measured 146 ->
            # 84 ms per 1.25M-edge block)
            order = np.argsort(d)
            ds_, cs_ = d[order], c[order]
            starts = np.flatnonzero(
                np.r_[True, ds_[1:] != ds_[:-1]]) if len(ds_) \
                else np.array([], np.int64)
            return pa.table({
                "dst": pa.array(ds_[starts]),
                "c": pa.array(np.add.reduceat(cs_, starts)
                              if len(starts) else cs_[:0])})

        agg = bucketed_sum(
            edges.map_batches(contrib, batch_format="pyarrow",
                              zero_copy_batch=True),
            ["dst"], ["c"]).to_pandas()
        new = np.full(n, teleport, dtype=np.int64)
        di = np.searchsorted(nodes, agg["dst"].to_numpy().astype(np.int64))
        new[di] += agg["c"].to_numpy().astype(np.int64)
        ranks = new

    return ray.data.from_arrow(
        pa.table({"node": pa.array(nodes), "rank_fp": pa.array(ranks)}))


def hits_fixedpoint(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    *,
    n_iter: int = 2,
) -> ray.data.Dataset:
    """HITS hubs & authorities (Kleinberg) in exact UNNORMALIZED int64
    arithmetic -- the link-analysis centrality the reference family
    lacks beside PageRank.  Classic HITS renormalizes each round
    (irrational); here scores stay exact integers for a FIXED iteration
    count, so a SQL engine reproduces them bit-for-bit and the ranking
    order (all any consumer uses) is identical to the normalized
    variant's:

    * h_0(u) = 1 for every node
    * a_t(v) = sum over in-edges  (u, v), with edge multiplicity, of
               h_{t-1}(u)
    * h_t(u) = sum over out-edges (u, v), with edge multiplicity, of
               a_t(v)

    Growth bound is the caller's contract: |a_k| <= maxdeg^(2k-1),
    |h_k| <= maxdeg^(2k); with n_iter=2 any graph with max degree
    under ~2^15 stays inside int64.

    Same model-broadcast shape as :func:`pagerank_fixedpoint`: the
    node-state vectors (ids, h, a) live on the driver and re-broadcast
    per half-round via ``ray.put``; the edge list streams through
    ``map_batches`` emitting per-block-combined (node, partial) rows,
    so each of the two exchanges per round is bounded by the node
    count, never the edge count.  Node state must be broadcast-sized
    (the k-means-centroids contract).

    Returns a Dataset of (node, hub, auth) int64.
    """
    from ci_log_processing_ray.ops.window import (
        bucketed_distinct, bucketed_sum)

    edges = edges.map_batches(
        lambda t: pa.table({
            "src": t[src_col].combine_chunks().cast(pa.int64()),
            "dst": t[dst_col].combine_chunks().cast(pa.int64())}),
        batch_format="pyarrow").materialize()

    def node_partial(t: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate([
            t["src"].combine_chunks().to_numpy(),
            t["dst"].combine_chunks().to_numpy()]))
        return pa.table({"node": pa.array(u)})

    nodes = np.sort(
        bucketed_distinct(
            edges.map_batches(node_partial, batch_format="pyarrow",
                              zero_copy_batch=True),
            ["node"])
        .to_pandas()["node"].to_numpy().astype(np.int64))
    n = len(nodes)

    def _push(vec: np.ndarray, from_col: str, to_col: str) -> np.ndarray:
        """One half-round: out[v] = sum over edges of vec[edge.from]
        grouped by edge.to -- per-block sort-once+reduceat combine,
        then the coarse bucketed exchange (node-shaped, not
        edge-shaped)."""
        ref = ray.put((nodes, vec))

        def contrib(t: pa.Table, _ref=ref) -> pa.Table:
            nd, v = ray.get(_ref)  # zero-copy numpy views
            f = t[from_col].combine_chunks().to_numpy()
            g = t[to_col].combine_chunks().to_numpy()
            c = v[np.searchsorted(nd, f)]
            order = np.argsort(g)
            gs, cs = g[order], c[order]
            starts = np.flatnonzero(
                np.r_[True, gs[1:] != gs[:-1]]) if len(gs) \
                else np.array([], np.int64)
            return pa.table({
                "node": pa.array(gs[starts]),
                "c": pa.array(np.add.reduceat(cs, starts)
                              if len(starts) else cs[:0])})

        agg = bucketed_sum(
            edges.map_batches(contrib, batch_format="pyarrow",
                              zero_copy_batch=True),
            ["node"], ["c"]).to_pandas()
        out = np.zeros(n, dtype=np.int64)
        pos = np.searchsorted(nodes, agg["node"].to_numpy().astype(np.int64))
        out[pos] = agg["c"].to_numpy().astype(np.int64)
        return out

    hub = np.ones(n, dtype=np.int64)
    auth = np.zeros(n, dtype=np.int64)
    for _round in range(n_iter):
        auth = _push(hub, "src", "dst")
        hub = _push(auth, "dst", "src")

    return ray.data.from_arrow(pa.table({
        "node": pa.array(nodes), "hub": pa.array(hub),
        "auth": pa.array(auth)}))


def _local_cc_labels(
    s: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """In-task connected components over one edge block, fully
    vectorized (no per-edge Python -- the round-2 verdict's top scale
    fix; the previous array union-find looped ``for a, b in zip(...)``
    over every edge).

    Algorithm: min-label propagation with pointer jumping.  Endpoints
    compact to index space (a DENSE-ID fast path skips the hash
    factorize when ids already form a tight non-negative range -- the
    common case for synthetic/bench graphs), the bidirectional
    incidence list sorts ONCE (unstable int32 argsort -- order within a
    group is irrelevant to a min), and each round is one gather +
    ``np.minimum.reduceat`` per-node neighbor min followed by
    ``lab = lab[lab]`` pointer jumping to idempotence.  Labels only
    decrease and jumping halves chain depth, so rounds are
    O(log diameter); measured 31 s -> 5.5 s (5.6x) on a 10M-edge /
    2M-node synthetic graph (single thread; see BASELINE.md).

    Returns (nodes ascending, root per node) with root = min node id
    reachable within the block.
    """
    m = len(s)
    if m == 0:
        z = np.array([], dtype=np.int64)
        return z, z
    both = np.concatenate([s, d])
    lo = int(both.min())
    hi = int(both.max())
    span = hi - lo + 1
    if span <= max(8 * m, 1 << 20):
        # dense-id fast path: the shifted id IS the index, and the shift
        # preserves order so min index == min id
        n = span
        e = both - lo
        cnt = np.bincount(e, minlength=n)
        nodes_sorted = None  # nodes = present_idx + lo
    else:
        codes, uniq = pd.factorize(both)  # hash-based, first-seen order
        n = len(uniq)
        idorder = np.argsort(uniq, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[idorder] = np.arange(n, dtype=np.int64)
        nodes_sorted = uniq[idorder]  # ascending: min index == min id
        e = rank[codes]
        cnt = np.bincount(e, minlength=n)

    # group the incidence list by endpoint ONCE; per round only labels
    # move.  o[i] is the partner endpoint of incidence slot i.
    sort_key = e.astype(np.int32) if n < 2**31 else e
    order = np.argsort(sort_key)  # unstable: groups only, order unused
    o_s = np.concatenate([e[m:], e[:m]])[order]
    starts_all = np.zeros(n, dtype=np.int64)
    np.cumsum(cnt[:-1], out=starts_all[1:])
    present_idx = np.flatnonzero(cnt)  # dense path: ids with no edges
    starts = starts_all[present_idx]

    ldt = np.int32 if n < 2**31 else np.int64
    lab = np.arange(n, dtype=ldt)
    o_s = o_s.astype(ldt)
    while True:
        prev = lab
        neigh = np.minimum.reduceat(lab[o_s], starts)
        lab = lab.copy()
        lab[present_idx] = np.minimum(lab[present_idx], neigh)
        while True:  # pointer jumping to idempotence
            nxt = lab[lab]
            if np.array_equal(nxt, lab):
                break
            lab = nxt
        if np.array_equal(lab, prev):
            break

    if nodes_sorted is None:
        nodes = (present_idx + lo).astype(np.int64)
        roots = (lab[present_idx].astype(np.int64) + lo)
    else:
        nodes = nodes_sorted
        roots = nodes_sorted[lab]
    return nodes, roots


def connected_components(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    *,
    boundary_cap: int = 5_000_000,
    n_buckets: int | None = None,
    _prev_merges: int | None = None,
) -> ray.data.Dataset:
    """Distributed connected components, two-phase local contraction
    (the practical at-scale algorithm; iterative per-hop label
    propagation was 10x slower -- O(diameter) rounds of fixed-cost
    exchanges):

    1. LOCAL: each edge block runs an in-task union-find (array-based,
       path-halving) and emits a (node -> local_root) mapping, with
       local_root = min node id of the block-local component.  After
       this pass every component has diameter <= #blocks touching it,
       independent of its true diameter.
    2. BOUNDARY: mappings co-partition by node (one bucketed shuffle);
       a node seen with k > 1 distinct local roots yields k-1
       (root, root) merge edges -- the contracted boundary graph,
       bounded by cross-block boundary nodes, orders smaller than the
       input.  Up to ``boundary_cap`` merge edges the driver closes it
       with the vectorized min-label kernel and broadcasts the result;
       ABOVE the cap the closure runs HIERARCHICALLY: one recursive
       connected_components over the contracted (root, root) graph
       (strictly smaller than the input -- local contraction has
       already collapsed every block-internal structure), and the
       relabel becomes a root-keyed tagged-union co-partition instead
       of a broadcast, so neither the driver nor any single worker
       ever holds the full root map.  Recursion continues while the
       contracted graph STRICTLY SHRINKS (each level collapses every
       block-internal structure, so depth is logarithmic); a level
       that fails to shrink raises explicitly instead of looping.
    3. FINALIZE: relabel phase-1 mappings (broadcast map or the
       co-partition above) + one coarse bucketed min dedup.

    Returns (node, component) with component = min node id reachable.
    """

    def local_cc(t: pa.Table) -> pa.Table:
        s = t[src_col].combine_chunks().cast(pa.int64()).to_numpy()
        d = t[dst_col].combine_chunks().cast(pa.int64()).to_numpy()
        nodes, roots = _local_cc_labels(s, d)
        return pa.table({"node": pa.array(nodes),
                         "root": pa.array(roots)})

    mapping = edges.map_batches(local_cc, batch_format="pyarrow",
                                zero_copy_batch=True).materialize()
    # size every node-shaped exchange from the KNOWN mapping count
    # (materialized; count is metadata) -- see resolve_group_buckets
    from ci_log_processing_ray.ops.window import \
        resolve_group_buckets as _rgb
    nb_map = _rgb(n_buckets, input_rows=mapping.count())

    def boundary_edges(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop_duplicates(["node", "root"])
              .sort_values(["node", "root"], kind="mergesort"))
        first = g.groupby("node", sort=False)["root"].transform("first")
        mask = (g["root"] != first).to_numpy()
        return pd.DataFrame({"ra": first.to_numpy()[mask],
                             "rb": g["root"].to_numpy()[mask]})

    from ci_log_processing_ray.ops.window import bucketed_groups

    merges_ds = bucketed_groups(mapping, "node", boundary_edges,
                                n_buckets=nb_map).materialize()
    n_merges = merges_ds.count()
    if n_merges > boundary_cap:
        if _prev_merges is not None and n_merges >= _prev_merges:
            raise ValueError(
                f"boundary graph has {n_merges} merge edges >= the "
                f"previous level's {_prev_merges}: the contraction is "
                "not shrinking (pathological layout); raise the cap "
                "or repartition the edge input")
        # coalesce the contracted graph to heap-bounded blocks before
        # recursing: local contraction strength IS block locality, and
        # the hash-bucket layout the merges arrive in has none (chains
        # shrank only ~6%/level).  With ~2M edges per block the next
        # level's local closure collapses everything that fits one
        # task -- geometric contraction, usually ONE extra level.
        nb2 = max(1, -(-n_merges // 2_000_000))
        sub = connected_components(merges_ds.repartition(nb2), "ra", "rb",
                                   boundary_cap=boundary_cap,
                                   n_buckets=n_buckets,
                                   _prev_merges=n_merges)

        def fin_tag(t: pa.Table) -> pa.Table:
            n = t["node"].combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
            c = t["component"].combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
            ch = n != c  # identity entries resolve by lookup-miss
            return pa.table({"key": pa.array(n[ch]),
                             "val": pa.array(c[ch]),
                             "_side": pa.array(
                                 np.zeros(ch.sum(), np.int64))})

        def map_tag(t: pa.Table) -> pa.Table:
            return pa.table({
                "key": t["root"].combine_chunks().cast(pa.int64()),
                "val": t["node"].combine_chunks().cast(pa.int64()),
                "_side": pa.array(np.ones(len(t), np.int64))})

        tagged = (sub.map_batches(fin_tag, batch_format="pyarrow",
                                  zero_copy_batch=True)
                  .union(mapping.map_batches(
                      map_tag, batch_format="pyarrow",
                      zero_copy_batch=True)))

        def relabel_bucket(g: pd.DataFrame) -> pd.DataFrame:
            f = g[g["_side"] == 0]
            m = g[g["_side"] == 1]
            if len(m) == 0:
                return pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                                     "component": pd.Series(
                                         [], dtype=np.int64)})
            roots = m["key"].to_numpy(np.int64)
            comp = roots.copy()
            if len(f):
                fk = f["key"].to_numpy(np.int64)
                fv = f["val"].to_numpy(np.int64)
                order = np.argsort(fk)
                fk, fv = fk[order], fv[order]
                pos = np.minimum(np.searchsorted(fk, roots), len(fk) - 1)
                hit = fk[pos] == roots
                comp[hit] = fv[pos[hit]]
            out = pd.DataFrame({"node": m["val"].to_numpy(np.int64),
                                "component": comp})
            # per-bucket pre-combine (a node repeats across blocks)
            return out.groupby("node", as_index=False, sort=False)[
                "component"].min()

        relabeled = bucketed_groups(tagged, "key", relabel_bucket,
                                    n_buckets=nb_map)

        def min_kern(g: pd.DataFrame) -> pd.DataFrame:
            return g.groupby("node", as_index=False, sort=False)[
                "component"].min()

        # a node relabeled under DIFFERENT roots lands in different
        # key-buckets above; one node-keyed min fold closes it
        return bucketed_groups(relabeled, "node", min_kern,
                               n_buckets=nb_map)

    merges = merges_ds.to_pandas()

    # close the contracted boundary graph with the SAME vectorized
    # min-label kernel the blocks use (the per-edge Python union-find
    # it replaces cost ~10 s at a 2M-edge boundary); keep only the
    # entries that actually change (root != min reachable), sorted --
    # the relabel below resolves them with one searchsorted, not a
    # per-row dict map
    if len(merges):
        mnodes, mroots = _local_cc_labels(
            merges["ra"].to_numpy(np.int64),
            merges["rb"].to_numpy(np.int64))
        changed = mnodes != mroots
        fin_keys, fin_vals = mnodes[changed], mroots[changed]
    else:
        fin_keys = fin_vals = np.array([], dtype=np.int64)
    final_ref = ray.put((fin_keys, fin_vals))

    def relabel(t: pa.Table) -> pa.Table:
        k, v = ray.get(final_ref)  # zero-copy sorted key/value arrays
        roots = t["root"].to_numpy(zero_copy_only=False).astype(np.int64)
        comp = roots.copy()
        if len(k):
            pos = np.minimum(np.searchsorted(k, roots), len(k) - 1)
            hit = k[pos] == roots
            comp[hit] = v[pos[hit]]
        # per-block pre-combine: one row per node leaves the block (all
        # its relabeled components are equal by construction, so any
        # representative works -- keep the first)
        nodes = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        un, idx = np.unique(nodes, return_index=True)
        return pa.table({"node": pa.array(un),
                         "component": pa.array(comp[idx])})

    # a node can still appear in several blocks; final dedup via the
    # coarse bucketed exchange -- Dataset.groupby().aggregate(Min) here
    # paid the per-distinct-group merge cost on node-cardinality keys
    # (26.4 s of a 35.3 s run at 2M nodes / 20M edges; the bucketed
    # kernel closes the same dedup in ~2 s)
    from ci_log_processing_ray.ops.window import bucketed_groups

    def min_kern(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("node", as_index=False, sort=False)[
            "component"].min()

    return bucketed_groups(
        mapping.map_batches(relabel, batch_format="pyarrow",
                            zero_copy_batch=True),
        "node", min_kern, n_buckets=nb_map)


def _frontier_csr(u: np.ndarray, v: np.ndarray,
                  extra_nodes: np.ndarray):
    """Sorted-adjacency (CSR-ish) layout for the driver fast paths of
    the frontier-semiring siblings (bfs_hops / widest_paths /
    shortest_path_counts): returns (nodes, vs_sorted, perm, starts,
    ends) where nodes is the sorted universe and [starts[i], ends[i])
    indexes node i's neighbors in vs_sorted."""
    nodes = np.unique(np.concatenate([u, extra_nodes]))
    order = np.argsort(u, kind="stable")
    us, vs = u[order], v[order]
    starts = np.searchsorted(us, nodes)
    ends = np.searchsorted(us, nodes, side="right")
    return nodes, vs, order, starts, ends


def _adj_slots(starts: np.ndarray, ends: np.ndarray,
               sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flattened adjacency-slot indices for the selected node
    positions + per-node lengths (pure numpy, no Python loop)."""
    s_, e_ = starts[sel], ends[sel]
    lens = e_ - s_
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, np.int64), lens
    idx = (np.repeat(s_, lens)
           + (np.arange(total, dtype=np.int64)
              - np.repeat(np.cumsum(lens) - lens, lens)))
    return idx, lens


def bfs_hops(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    seeds: ray.data.Dataset,
    *,
    n_rounds: int,
    n_buckets: int | None = None,
    broadcast_cap: int = 5_000_000,
    driver_edge_cap: int = 400_000,
) -> ray.data.Dataset:
    """Multi-source BFS, ``n_rounds`` frontier expansions: shortest hop
    distance (0 = seed) from any seed node over the UNDIRECTED graph;
    nodes unreached within the round budget are absent.  ``seeds``
    must have a ``node`` column.  Returns (node, hops).

    Scale shape: per round, a broadcastable frontier (its size is
    already known from the exhaustion check) ships once via ``ray.put``
    and the expansion is a pure vectorized ``np.isin`` map over the
    materialized bidirectional edge table -- no per-round edge
    re-shuffle.  Frontiers past the broadcast cap fall back to ONE
    tagged-union bucketed co-partition of frontier + edges.  The
    distance table folds through one bucketed min kernel; every
    exchange is node- or edge-shaped, and no actor holds state.
    Bidirectional edge tables under ``driver_edge_cap`` rows run the
    same BFS in one numpy process (per-round folds are pure fixed cost
    at toy scale); parity pinned by tests/test_ops.py."""
    from ci_log_processing_ray.ops.window import bucketed_groups

    ebi = (edges.map_batches(
        lambda t: pa.table({"u": pa.concat_arrays([
            t[src_col].combine_chunks().cast(pa.int64()),
            t[dst_col].combine_chunks().cast(pa.int64())]),
            "v": pa.concat_arrays([
                t[dst_col].combine_chunks().cast(pa.int64()),
                t[src_col].combine_chunks().cast(pa.int64())])}),
        batch_format="pyarrow", zero_copy_batch=True)
        .materialize())

    if ebi.count() <= driver_edge_cap:
        eb = ebi.to_pandas()
        sd = np.unique(seeds.to_pandas()["node"].to_numpy(np.int64))
        nodes, vs, _, starts, ends = _frontier_csr(
            eb["u"].to_numpy(np.int64), eb["v"].to_numpy(np.int64), sd)
        dist = np.full(len(nodes), -1, np.int64)
        fpos = np.searchsorted(nodes, sd)
        dist[fpos] = 0
        for r in range(1, n_rounds + 1):
            idx, _ = _adj_slots(starts, ends, fpos)
            if not len(idx):
                break
            nbpos = np.unique(np.searchsorted(nodes, vs[idx]))
            new = nbpos[dist[nbpos] < 0]
            if not len(new):
                break
            dist[new] = r
            fpos = new
        hit = dist >= 0
        return ray.data.from_arrow(pa.table({
            "node": pa.array(nodes[hit]),
            "hops": pa.array(dist[hit])}))

    def min_kern(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("node", as_index=False, sort=False)["hops"].min()

    dist = (seeds.map_batches(
        lambda t: pa.table({
            "node": t["node"].combine_chunks().cast(pa.int64()),
            "hops": pa.array(np.zeros(len(t), np.int64))}),
        batch_format="pyarrow").materialize())
    frontier = dist

    # tagged union fallback: edges carry (key=u, v, _side=0), frontier
    # rows (key=node, v=-, _side=1); one bucketed shuffle co-locates
    # every node's edges with its frontier membership, no Acero join
    # (whose key resolution rejects the schema-less empty blocks Ray
    # forwards past pandas kernels).  Materialized LAZILY on first use:
    # broadcast-sized frontiers (the common case) never pay the second
    # edge-table materialization.
    _etag_cache: list = []

    def get_etag():
        if not _etag_cache:
            _etag_cache.append(ebi.map_batches(
                lambda t: pa.table({"key": t["u"], "v": t["v"],
                                    "_side": pa.array(
                                        np.zeros(len(t), np.int8))}),
                batch_format="pyarrow").materialize())
        return _etag_cache[0]

    # frontier sizes are already counted each round (the exhaustion
    # check), so route small frontiers through a ray.put broadcast +
    # pure edge-side map -- no per-round edge re-shuffle.  The tagged
    # union co-partition remains the path for frontiers too large to
    # broadcast (billion-node graphs).
    for r in range(n_rounds):
        n_front = frontier.count()
        if n_front == 0:  # exhausted: no further rounds
            break
        if n_front <= broadcast_cap:
            fset_ref = ray.put(np.sort(
                frontier.to_pandas()["node"].to_numpy(np.int64)))

            def bcast_expand(t: pa.Table, _r=r, _ref=fset_ref) -> pa.Table:
                farr = ray.get(_ref)
                u = t["u"].combine_chunks().to_numpy()
                mask = np.isin(u, farr, assume_unique=False)
                v = t["v"].combine_chunks().to_numpy()[mask]
                return pa.table({
                    "node": pa.array(v),
                    "hops": pa.array(np.full(len(v), _r + 1, np.int64))})

            cand = ebi.map_batches(bcast_expand, batch_format="pyarrow",
                                   zero_copy_batch=True)
        else:
            ftag = frontier.map_batches(
                lambda t: pa.table({
                    "key": t["node"].combine_chunks().cast(pa.int64()),
                    "v": pa.array(np.zeros(len(t), np.int64)),
                    "_side": pa.array(np.ones(len(t), np.int8))}),
                batch_format="pyarrow")

            def expand(g: pd.DataFrame, _r=r) -> pd.DataFrame:
                fkeys = g.loc[g["_side"] == 1, "key"]
                e = g[g["_side"] == 0]
                hit = e[e["key"].isin(set(fkeys))]
                return pd.DataFrame({
                    "node": hit["v"].to_numpy(np.int64),
                    "hops": np.full(len(hit), _r + 1, np.int64)})

            cand = bucketed_groups(get_etag().union(ftag), "key", expand,
                                   n_buckets=n_buckets)
        # coalesce the fold output: groupby emits ~one block per INPUT
        # block and union appends the expansion's blocks every round, so
        # without compaction the distance table's BLOCK count grows by
        # the edge-table block count per round while its rows barely
        # change -- measured per-round fold wall DOUBLING (3.3 -> 10.6
        # -> 20.8 -> 45.5 s over 4 rounds at 20M edges) on pure
        # scheduling overhead.  repartition(nb) (coalesce, no shuffle)
        # bounds it to the bucket count; per-round cost becomes flat.
        from ci_log_processing_ray.ops.window import resolve_group_buckets

        nb = resolve_group_buckets(n_buckets)
        # adaptive fold width: the fold's inputs are bounded by reached
        # nodes + the frontier's neighbor volume; for sub-50k frontiers
        # the full cluster-wide fan-out is pure per-task scheduling cost
        # (dist is materialized, so count() is free metadata).  Large
        # frontiers keep the full width -- a hub-heavy expansion then
        # still spreads across every bucket.
        nb_round = nb if max(n_front, dist.count()) > 50_000 \
            else max(16, nb // 8)
        dist = (bucketed_groups(dist.union(cand), "node", min_kern,
                                n_buckets=nb_round)
                .repartition(nb_round)
                .materialize())
        frontier = dist.filter(expr=f"hops == {r + 1}")

    return dist


def label_propagation(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    *,
    n_rounds: int = 5,
    n_buckets: int | None = None,
    broadcast_cap: int = 5_000_000,
) -> ray.data.Dataset:
    """Synchronous label-propagation community detection over the
    UNDIRECTED graph (Raghavan et al. 2007): every node starts as its
    own label; each round it adopts the most frequent label among its
    neighbors, ties broken by the SMALLEST label, all nodes updating
    simultaneously -- deterministic, unlike the async textbook variant.
    Communities refine the components `connected_components` finds
    (e.g. splitting a near-dup cluster glued by one spurious edge).
    Returns (node, label) after ``n_rounds`` or convergence.

    Scale shape mirrors :func:`bfs_hops`: label tables up to
    ``broadcast_cap`` ship once per round via ``ray.put`` and the
    neighbor vote is a pure searchsorted map over the materialized
    bidirectional edge table + one (node, label) count exchange +
    one argmax kernel per bucket; above the cap the label lookup runs
    as a tagged-union bucketed co-partition (two exchanges per round,
    nothing driver-resident).  Votes pre-aggregate per block before
    every exchange."""
    from ci_log_processing_ray.ops.window import (bucketed_groups,
                                                  resolve_group_buckets)

    ebi = (edges.map_batches(
        lambda t: pa.table({"u": pa.concat_arrays([
            t[src_col].combine_chunks().cast(pa.int64()),
            t[dst_col].combine_chunks().cast(pa.int64())]),
            "v": pa.concat_arrays([
                t[dst_col].combine_chunks().cast(pa.int64()),
                t[src_col].combine_chunks().cast(pa.int64())])}),
        batch_format="pyarrow", zero_copy_batch=True)
        .materialize())

    def node_init(t: pa.Table) -> pa.Table:
        u = np.unique(t["u"].combine_chunks().to_numpy())
        return pa.table({"node": pa.array(u), "label": pa.array(u)})

    labels = (bucketed_groups(
        ebi.map_batches(node_init, batch_format="pyarrow",
                        zero_copy_batch=True),
        "node", lambda g: g.drop_duplicates("node"),
        n_buckets=n_buckets).materialize())
    n_nodes = labels.count()

    def vote_partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["node", "label"]).aggregate([("n", "sum")])
        return pa.table({"node": g["node"], "label": g["label"],
                         "n": g["n_sum"]})

    def argmax_kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["node", "label"], as_index=False,
                      sort=False)["n"].sum()
        g = g.sort_values(["node", "n", "label"],
                          ascending=[True, False, True],
                          kind="mergesort")
        return g.drop_duplicates("node", keep="first")[["node", "label"]]

    # size the per-round exchanges from the KNOWN bidirectional edge
    # count (votes pre-aggregate below it) -- see resolve_group_buckets
    n_edges_bi = ebi.count()
    nb = resolve_group_buckets(n_buckets,
                               input_rows=n_edges_bi + n_nodes)
    prev = None
    for _r in range(n_rounds):
        if n_nodes <= broadcast_cap:
            lab_df = labels.to_pandas().sort_values("node")
            nodes_arr = lab_df["node"].to_numpy(np.int64)
            labs_arr = lab_df["label"].to_numpy(np.int64)
            if prev is not None and np.array_equal(prev, labs_arr):
                break  # converged
            prev = labs_arr
            ref = ray.put((nodes_arr, labs_arr))

            def bcast_vote(t: pa.Table, _ref=ref) -> pa.Table:
                na, la = ray.get(_ref)
                u = t["u"].combine_chunks().to_numpy()
                lab = la[np.searchsorted(na, u)]
                tt = pa.table({
                    "node": t["v"].combine_chunks(),
                    "label": pa.array(lab),
                    "n": pa.array(np.ones(len(u), np.int64))})
                return vote_partial(tt)

            votes = ebi.map_batches(bcast_vote, batch_format="pyarrow",
                                    zero_copy_batch=True)
        else:
            ltag = labels.map_batches(
                lambda t: pa.table({
                    "key": t["node"].combine_chunks().cast(pa.int64()),
                    "v": pa.array(np.zeros(len(t), np.int64)),
                    "lab": t["label"].combine_chunks().cast(pa.int64()),
                    "_side": pa.array(np.ones(len(t), np.int8))}),
                batch_format="pyarrow")
            etag = ebi.map_batches(
                lambda t: pa.table({
                    "key": t["u"], "v": t["v"],
                    "lab": pa.array(np.zeros(len(t), np.int64)),
                    "_side": pa.array(np.zeros(len(t), np.int8))}),
                batch_format="pyarrow")

            def co_vote(g: pd.DataFrame) -> pd.DataFrame:
                lmap = g[g["_side"] == 1].set_index("key")["lab"]
                e = g[g["_side"] == 0]
                lab = e["key"].map(lmap).to_numpy(np.int64)
                out = pd.DataFrame({"node": e["v"].to_numpy(np.int64),
                                    "label": lab,
                                    "n": np.ones(len(e), np.int64)})
                return out.groupby(["node", "label"],
                                   as_index=False, sort=False)["n"].sum()

            votes = bucketed_groups(etag.union(ltag), "key", co_vote,
                                    n_buckets=nb)

        labels = (bucketed_groups(votes, "node", argmax_kern,
                                  n_buckets=nb)
                  .repartition(max(16, nb // 8) if n_nodes <= 50_000
                               else nb)
                  .materialize())
    return labels


def _route_edges_to_shards(edges, src_col, dst_col, shards,
                           n_shards) -> None:
    """Route the BIDIRECTIONAL edge table into resident shard actors
    by hash(u), FROM the read workers: edge rows go worker -> object
    store -> actor, the driver sees only per-block row counts.  Used
    by :func:`kcore_resident`."""

    def route(t: pa.Table) -> pa.Table:
        u = np.concatenate([
            t[src_col].combine_chunks().cast(pa.int64()).to_numpy(),
            t[dst_col].combine_chunks().cast(pa.int64()).to_numpy()])
        v = np.concatenate([
            t[dst_col].combine_chunks().cast(pa.int64()).to_numpy(),
            t[src_col].combine_chunks().cast(pa.int64()).to_numpy()])
        ub = (pd.util.hash_array(u) % n_shards).astype(np.int32)
        refs = []
        for s in range(n_shards):
            m = ub == s
            if m.any():
                refs.append(shards[s].load.remote(u[m], v[m]))
        ray.get(refs)
        return pa.table({"n": pa.array([len(u)], pa.int64())})

    edges.map_batches(route, batch_format="pyarrow",
                      zero_copy_batch=True).count()


def kcore_resident(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    *,
    max_rounds: int = 64,
    n_shards: int | None = None,
    driver_edge_cap: int = 400_000,
) -> "pd.DataFrame":
    """Full k-core decomposition (coreness per node) of the UNDIRECTED
    simple graph induced by the edge table, in the partition-resident
    (BSP/Pregel) shape: edges land in stateful shard actors once and
    each round exchanges only node-shaped messages.

    Algorithm: the distributed h-index fixpoint (Montresor, De Pellegrini,
    Miorandi, "Distributed k-Core Decomposition", 2011 -- public
    literature): every node starts at ``est = degree`` and each
    synchronous round sets ``est(v) = H({est(u) : u in N(v)})`` where H
    is the h-index (the largest h such that at least h neighbors have
    est >= h).  The sequence is monotone non-increasing, bounded below
    by the true coreness, and its fixpoint IS the coreness -- so the
    loop runs to no-change (``max_rounds`` is a backstop, typically
    converges in < 10 rounds on real graphs).

    Input contract: edges may arrive directed, duplicated, and with
    self-loops; the op canonicalizes to the simple undirected graph
    (self-loops dropped, parallel edges collapsed) BEFORE computing
    degrees, because every edge of a node lands in that node's single
    hash(u) shard, so in-shard dedup is global dedup.  Isolated nodes
    (only self-loops) do not appear in the output.

    Scale shape: the bidirectional edge table hash(u)-partitions into
    stateful actors ONCE (routed worker -> actor, never via the
    driver).  At finalize each shard registers, per owner shard, the
    UNIQUE neighbor ids it needs -- node ids cross the wire exactly
    once.  Each round then exchanges only the VALUES of those
    registered estimates as object refs (sum-of-unique-cross-shard-
    neighbors sized, never edge sized), and the per-shard kernel is one
    lexsort + reduceat over its resident edges.  The driver moves refs
    and change counts only.  Cross-shard traffic is n_shards^2 refs per
    round -- fine to a few hundred shards; interpose a tree exchange
    beyond that.  Returns the (node, core) frame (node-table sized).

    Bidirectional canonical edge tables under ``driver_edge_cap`` run
    the SAME synchronous h-index fixpoint in one numpy process
    (coreness is a unique graph invariant, so parity is structural;
    pinned by tests/test_ops.py::test_kcore_driver_parity).
    """
    em = edges.map_batches(
        lambda t: pa.table({
            "u": t[src_col].combine_chunks().cast(pa.int64()),
            "v": t[dst_col].combine_chunks().cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    if em.count() <= driver_edge_cap:
        eb = em.to_pandas()
        u = eb["u"].to_numpy(np.int64)
        v = eb["v"].to_numpy(np.int64)
        keep = u != v
        a = np.minimum(u[keep], v[keep])
        b = np.maximum(u[keep], v[keep])
        if not len(a):
            return pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                                 "core": pd.Series([], dtype=np.int64)})
        de = np.unique(np.stack([a, b], axis=1), axis=0)
        bu = np.concatenate([de[:, 0], de[:, 1]])
        bv = np.concatenate([de[:, 1], de[:, 0]])
        nodes = np.unique(bu)
        order = np.argsort(bu, kind="stable")
        bus, bvs = bu[order], bv[order]
        starts = np.searchsorted(bus, nodes)
        ends = np.searchsorted(bus, nodes, side="right")
        nb_pos = np.searchsorted(nodes, bvs)
        seg = np.repeat(np.arange(len(nodes)), ends - starts)
        est = (ends - starts).astype(np.int64)  # degree
        converged = False
        for _ in range(max_rounds):
            ev = est[nb_pos]
            # per-node h-index: sort neighbor ests desc within segment,
            # h = max_i min(i+1, a_i)
            o = np.lexsort((-ev, seg))
            evs = ev[o]
            pos_in = (np.arange(len(evs))
                      - np.repeat(starts, ends - starts))
            val = np.minimum(pos_in + 1, evs)
            new = np.maximum.reduceat(val, starts)
            if np.array_equal(new, est):
                converged = True
                break
            est = new
        if not converged:
            import warnings

            warnings.warn(
                f"kcore_resident hit max_rounds={max_rounds} before "
                "the h-index fixpoint; returned cores are upper "
                "bounds -- raise max_rounds for deep peeling "
                "structures", RuntimeWarning, stacklevel=2)
        return pd.DataFrame({"node": nodes, "core": est})

    edges = em.map_batches(
        lambda t: pa.table({src_col: t["u"], dst_col: t["v"]}),
        batch_format="pyarrow")

    @ray.remote
    class _CoreShard:
        def __init__(self, shard_id: int, n_shards: int):
            self.sid = shard_id
            self.n = n_shards
            self._cu = []
            self._cv = []
            # per requester shard: positions into self.nodes whose est
            # values that requester needs each round
            self.req_idx = [None] * n_shards

        def load(self, u: np.ndarray, v: np.ndarray) -> int:
            self._cu.append(u)
            self._cv.append(v)
            return len(u)

        def finalize(self) -> int:
            u = (np.concatenate(self._cu)
                 if self._cu else np.array([], np.int64))
            v = (np.concatenate(self._cv)
                 if self._cv else np.array([], np.int64))
            self._cu = self._cv = None
            # canonicalize: drop self-loops, collapse parallel edges
            keep = u != v
            u, v = u[keep], v[keep]
            order = np.lexsort((v, u))
            u, v = u[order], v[order]
            if len(u):
                first = np.r_[True, (u[1:] != u[:-1]) | (v[1:] != v[:-1])]
                u, v = u[first], v[first]
            self.u, self.v = u, v
            # owned nodes + degree = per-u segment lengths (u sorted)
            self.seg_starts = (np.flatnonzero(
                np.r_[True, u[1:] != u[:-1]]) if len(u)
                else np.array([], np.int64))
            self.nodes = u[self.seg_starts] if len(u) else u
            seg_ends = np.r_[self.seg_starts[1:], len(u)]
            self.est = (seg_ends - self.seg_starts).astype(np.int64)
            # neighbor-estimate plumbing: unique v list, per-edge
            # position into it, and per-owner request slices
            self.vneed = np.unique(v)
            self.v_pos = np.searchsorted(self.vneed, v)
            self.est_vneed = np.zeros(len(self.vneed), np.int64)
            self.need_pos_by_owner = []
            owner = (pd.util.hash_array(self.vneed)
                     % self.n).astype(np.int32)
            for b in range(self.n):
                self.need_pos_by_owner.append(
                    np.flatnonzero(owner == b))
            return len(self.nodes)

        def get_requests(self) -> list:
            """Per owner shard: the node ids whose estimates this shard
            needs -- shipped ONCE at setup, as refs."""
            out = []
            for b in range(self.n):
                ids = self.vneed[self.need_pos_by_owner[b]]
                out.append(ray.put(ids) if len(ids) else None)
            return out

        def register_requests(self, requester: int, ids) -> int:
            # passed as a BARE arg (not nested in a list), so Ray
            # auto-resolves the ref actor-side -- ids is the array here
            if ids is None:
                self.req_idx[requester] = None
                return 0
            self.req_idx[requester] = np.searchsorted(self.nodes, ids)
            return len(ids)

        def publish(self) -> list:
            """Per requester shard: current est VALUES aligned to its
            registered request order."""
            return [None if idx is None
                    else ray.put(self.est[idx])
                    for idx in self.req_idx]

        def step(self, pieces: list) -> int:
            """One h-index round over the resident edges; returns how
            many owned estimates changed."""
            for b in range(self.n):
                if pieces[b] is None:
                    continue
                self.est_vneed[self.need_pos_by_owner[b]] = (
                    ray.get(pieces[b]))
            if not len(self.u):
                return 0
            ev = self.est_vneed[self.v_pos]
            # desc-sort neighbor estimates within each u segment
            order = np.lexsort((-ev, self.u))
            ev = ev[order]
            idx = np.arange(len(ev), dtype=np.int64)
            seg_of = np.repeat(
                np.arange(len(self.seg_starts), dtype=np.int64),
                np.diff(np.r_[self.seg_starts, len(ev)]))
            pos = idx - self.seg_starts[seg_of]
            cand = np.minimum(ev, pos + 1)
            h = np.maximum.reduceat(cand, self.seg_starts)
            new = np.minimum(self.est, h)
            changed = int((new != self.est).sum())
            self.est = new
            return changed

        def get_cores(self):
            return pd.DataFrame({"node": self.nodes, "core": self.est})

    from ci_log_processing_ray.ops.window import resolve_group_buckets

    n_shards = n_shards or max(
        4, min(64, resolve_group_buckets(None) // 4))
    shards = [_CoreShard.remote(i, n_shards) for i in range(n_shards)]
    _route_edges_to_shards(edges, src_col, dst_col, shards, n_shards)
    ray.get([s.finalize.remote() for s in shards])

    # one-time request registration: node ids cross the wire once
    reqs = [ray.get(f) for f in [s.get_requests.remote() for s in shards]]
    ray.get([shards[b].register_requests.remote(s, reqs[s][b])
             for s in range(n_shards) for b in range(n_shards)])

    converged = False
    for _r in range(max_rounds):
        per_shard = [ray.get(f) for f in
                     [s.publish.remote() for s in shards]]
        steps = [shards[b].step.remote(
            [per_shard[s][b] for s in range(n_shards)])
            for b in range(n_shards)]
        if sum(ray.get(steps)) == 0:
            converged = True
            break
    if not converged:
        import warnings

        # rounds-to-fixpoint is bounded by the graph's peeling depth
        # (a bare 100-node chain already needs ~50); estimates at the
        # cap are UPPER bounds on coreness, so never fail silently
        warnings.warn(
            f"kcore_resident hit max_rounds={max_rounds} before the "
            "h-index fixpoint; returned cores are upper bounds -- "
            "raise max_rounds for deep peeling structures",
            RuntimeWarning, stacklevel=2)
    out = pd.concat(ray.get([s.get_cores.remote() for s in shards]),
                    ignore_index=True)
    return out.sort_values("node").reset_index(drop=True)


_SSSP_INF = np.int64(1) << 62


def sssp_weighted_resident(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    weight_col: str,
    seeds: ray.data.Dataset,
    *,
    n_rounds: int,
    n_shards: int | None = None,
    driver_edge_cap: int = 400_000,
) -> "pd.DataFrame":
    """Bounded-hop weighted single-source(s) shortest paths over a
    DIRECTED graph with non-negative int64 weights, in the
    partition-resident family shape: after k rounds the distance table
    is EXACTLY ``min over paths from any seed using <= k edges`` --
    the Bellman-Ford recurrence ``d_{i+1}(v) = min(d_i(v),
    min_u(d_i(u) + w(u,v)))`` unrolled k times, which is what the
    DuckDB oracle evaluates as k chained CTE rounds.

    Relaxation is frontier-only (each round relaxes out-edges of nodes
    whose distance improved last round), which equals the relax-from-
    everyone recurrence by induction: a node u last improved at round
    j <= i already pushed ``d_j(u) + w = d_i(u) + w`` to its neighbors
    at round j+1, and distances never increase -- so skipping
    unimproved sources drops only dominated proposals.

    Scale shape: directed edges hash(src)-partition into stateful
    actors once (dst endpoints announced to their owner shard so pure
    sinks have owners); each round ships per-dst MIN-preaggregated
    candidate partials as object refs, frontier-edge sized, never the
    edge table.  Early exit when no distance improves.  Returns the
    reached (node, dist) frame; unreached nodes are absent, seeds
    always present at dist 0.

    Edge tables under ``driver_edge_cap`` run the SAME k-round
    Bellman-Ford recurrence in one numpy process (the k-round distance
    table is a unique function of the input, so parity is structural;
    pinned by tests/test_ops.py::test_sssp_driver_parity)."""
    em = edges.map_batches(
        lambda t: pa.table({
            "u": t[src_col].combine_chunks().cast(pa.int64()),
            "v": t[dst_col].combine_chunks().cast(pa.int64()),
            "w": t[weight_col].combine_chunks().cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    if em.count() <= driver_edge_cap:
        eb = em.to_pandas()
        u = eb["u"].to_numpy(np.int64)
        v = eb["v"].to_numpy(np.int64)
        w = eb["w"].to_numpy(np.int64)
        sd = np.unique(seeds.to_pandas()["node"].to_numpy(np.int64))
        nodes = np.unique(np.concatenate([u, v, sd]))
        INF = np.int64(1) << 62
        dist = np.full(len(nodes), INF, np.int64)
        dist[np.searchsorted(nodes, sd)] = 0
        up = np.searchsorted(nodes, u)
        vp = np.searchsorted(nodes, v)
        for _ in range(n_rounds):
            cand = dist[up] + w
            cand[dist[up] >= INF] = INF
            new = dist.copy()
            np.minimum.at(new, vp, cand)
            if np.array_equal(new, dist):
                break
            dist = new
        hit = dist < INF
        return pd.DataFrame({"node": nodes[hit], "dist": dist[hit]})

    edges = em.map_batches(
        lambda t: pa.table({src_col: t["u"], dst_col: t["v"],
                            weight_col: t["w"]}),
        batch_format="pyarrow")

    @ray.remote
    class _SpShard:
        def __init__(self, shard_id: int, n_shards: int):
            self.sid = shard_id
            self.n = n_shards
            self._cs, self._cd, self._cw, self._cn = [], [], [], []

        def load(self, s, d, w) -> int:
            self._cs.append(s)
            self._cd.append(d)
            self._cw.append(w)
            return len(s)

        def announce(self, nodes) -> int:
            self._cn.append(nodes)
            return len(nodes)

        def finalize(self) -> int:
            self.src = (np.concatenate(self._cs)
                        if self._cs else np.array([], np.int64))
            self.dst = (np.concatenate(self._cd)
                        if self._cd else np.array([], np.int64))
            self.w = (np.concatenate(self._cw)
                      if self._cw else np.array([], np.int64))
            self.nodes = (np.unique(np.concatenate(self._cn))
                          if self._cn else np.array([], np.int64))
            self._cs = self._cd = self._cw = self._cn = None
            order = np.argsort(self.src, kind="stable")
            self.src = self.src[order]
            self.dst = self.dst[order]
            self.w = self.w[order]
            self.dbucket = (pd.util.hash_array(self.dst)
                            % self.n).astype(np.int32)
            self.src_idx = np.searchsorted(self.nodes, self.src)
            self.dist = np.full(len(self.nodes), _SSSP_INF, np.int64)
            self.improved = np.zeros(len(self.nodes), bool)
            self.lonely_seeds = np.array([], np.int64)
            return len(self.nodes)

        def seed(self, s: np.ndarray) -> int:
            idx = np.searchsorted(self.nodes, s)
            idx_c = np.clip(idx, 0, max(len(self.nodes) - 1, 0))
            found = (len(self.nodes) > 0) & (self.nodes[idx_c] == s)
            self.dist[idx_c[found]] = 0
            self.improved[idx_c[found]] = True
            self.lonely_seeds = np.unique(s[~found])
            return int(found.sum())

        def relax(self) -> list:
            m = self.improved[self.src_idx]
            if not m.any():
                return [None] * self.n
            cand = self.dist[self.src_idx[m]] + self.w[m]
            d = self.dst[m]
            db = self.dbucket[m]
            out = []
            for b in range(self.n):
                mb = db == b
                if not mb.any():
                    out.append(None)
                    continue
                dd, cc = d[mb], cand[mb]
                order = np.argsort(dd, kind="stable")
                dd, cc = dd[order], cc[order]
                starts = np.flatnonzero(np.r_[True, dd[1:] != dd[:-1]])
                out.append(ray.put(
                    (dd[starts], np.minimum.reduceat(cc, starts))))
            return out

        def apply(self, pieces: list) -> int:
            self.improved[:] = False
            ds_, cs_ = [], []
            for p in pieces:
                if p is None:
                    continue
                d, c = ray.get(p)
                ds_.append(d)
                cs_.append(c)
            if not ds_:
                return 0
            d = np.concatenate(ds_)
            c = np.concatenate(cs_)
            order = np.argsort(d, kind="stable")
            d, c = d[order], c[order]
            starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
            du = d[starts]
            cu = np.minimum.reduceat(c, starts)
            idx = np.searchsorted(self.nodes, du)
            better = cu < self.dist[idx]
            self.dist[idx[better]] = cu[better]
            self.improved[idx[better]] = True
            return int(better.sum())

        def get_dist(self):
            m = self.dist < _SSSP_INF
            return pd.DataFrame({
                "node": np.concatenate([self.nodes[m],
                                        self.lonely_seeds]),
                "dist": np.concatenate([
                    self.dist[m],
                    np.zeros(len(self.lonely_seeds), np.int64)])})

    from ci_log_processing_ray.ops.window import resolve_group_buckets

    n_shards = n_shards or max(
        4, min(64, resolve_group_buckets(None) // 4))
    shards = [_SpShard.remote(i, n_shards) for i in range(n_shards)]

    def route(t: pa.Table) -> pa.Table:
        s = t[src_col].combine_chunks().cast(pa.int64()).to_numpy()
        d = t[dst_col].combine_chunks().cast(pa.int64()).to_numpy()
        w = t[weight_col].combine_chunks().cast(pa.int64()).to_numpy()
        sb = (pd.util.hash_array(s) % n_shards).astype(np.int32)
        alln = np.unique(np.concatenate([s, d]))
        nb = (pd.util.hash_array(alln) % n_shards).astype(np.int32)
        refs = []
        for sh in range(n_shards):
            m = sb == sh
            if m.any():
                refs.append(shards[sh].load.remote(s[m], d[m], w[m]))
            mn = nb == sh
            if mn.any():
                refs.append(shards[sh].announce.remote(alln[mn]))
        ray.get(refs)
        return pa.table({"n": pa.array([len(s)], pa.int64())})

    edges.map_batches(route, batch_format="pyarrow",
                      zero_copy_batch=True).count()
    ray.get([s.finalize.remote() for s in shards])

    seed_nodes = np.unique(seeds.to_pandas()["node"].to_numpy(np.int64))
    sb = (pd.util.hash_array(seed_nodes) % n_shards).astype(np.int32)
    ray.get([shards[s].seed.remote(seed_nodes[sb == s])
             for s in range(n_shards)])

    for _r in range(n_rounds):
        per_shard = [ray.get(f) for f in
                     [s.relax.remote() for s in shards]]
        applies = [shards[b].apply.remote(
            [per_shard[s][b] for s in range(n_shards)])
            for b in range(n_shards)]
        if sum(ray.get(applies)) == 0:
            break
    out = pd.concat(ray.get([s.get_dist.remote() for s in shards]),
                    ignore_index=True)
    return out.sort_values("node").reset_index(drop=True)


def deterministic_random_walks(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    *,
    walk_len: int,
    n_buckets: int | None = None,
    driver_edge_cap: int = 200_000,
) -> "pd.DataFrame":
    """Random-walk corpus generation (the node2vec/DeepWalk input
    stage) made DETERMINISTIC so it is oracle-checkable: one walk
    starts at every node of the undirected simple graph, and each step
    moves to the neighbor minimizing
    ``md5(f"{cur}:{nbr}:{step}")`` (ties -- md5 collisions -- broken
    by neighbor id).  The md5 "coin" gives the unbiasedness of a real
    random walk while DuckDB can replay every step exactly with k
    chained argmin CTEs.

    Scale shape: per step, ONE tagged co-partition of the walk-state
    table (start, cur) with the bidirectional edge table on
    hash(cur) -- walk state is node-shaped, edges move once per step
    (pre-partitioning edges into resident actors, as
    :func:`kcore_resident` does, is the noted step-up at real scale).  The md5-per-candidate loop inside
    the kernel exists solely to match DuckDB's md5() -- swap in
    pd.util.hash_array for a non-oracle production walk.  Dead ends
    stop early exactly like the SQL.  Returns (start, step, node) for
    steps 0..walk_len."""
    import hashlib

    from ci_log_processing_ray.ops.window import bucketed_groups

    def canon(t: pa.Table) -> pa.Table:
        s = t[src_col].combine_chunks().cast(pa.int64()).to_numpy()
        d = t[dst_col].combine_chunks().cast(pa.int64()).to_numpy()
        keep = s != d
        s, d = s[keep], d[keep]
        df = pd.DataFrame({"a": np.r_[s, d], "b": np.r_[d, s]})
        df = df.drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    bi = edges.map_batches(canon, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()

    if bi.count() <= driver_edge_cap:
        # driver path: the IDENTICAL md5-argmin recurrence in one
        # process (each step's choice is a pure function of (cur, nbr,
        # step), so parity is structural; pinned by
        # tests/test_ops.py::test_random_walks_driver_parity)
        eb = bi.to_pandas()
        a = eb["a"].to_numpy(np.int64)
        b = eb["b"].to_numpy(np.int64)
        order = np.argsort(a, kind="stable")
        a_s, b_s = a[order], b[order]
        nodes = np.unique(a_s)
        starts_i = np.searchsorted(a_s, nodes)
        ends_i = np.searchsorted(a_s, nodes, side="right")
        adj = {int(n): b_s[s:e] for n, s, e in
               zip(nodes, starts_i, ends_i)}
        cur = {int(n): int(n) for n in nodes}
        rows_s = [np.array(sorted(cur), np.int64)]
        rows_step = [np.zeros(len(cur), np.int64)]
        rows_n = [rows_s[0].copy()]
        for step in range(1, walk_len + 1):
            pick: dict = {}
            for c in set(cur.values()):
                best = None
                for nbr in adj.get(c, ()):
                    h = hashlib.md5(
                        f"{c}:{int(nbr)}:{step}".encode()).hexdigest()
                    k = (h, int(nbr))
                    if best is None or k < best[0]:
                        best = (k, int(nbr))
                if best is not None:
                    pick[c] = best[1]
            nxt = {s: pick[c] for s, c in cur.items() if c in pick}
            if not nxt:
                break
            ss = np.array(sorted(nxt), np.int64)
            rows_s.append(ss)
            rows_step.append(np.full(len(ss), step, np.int64))
            rows_n.append(np.array([nxt[int(s)] for s in ss], np.int64))
            cur = nxt
        return ray.data.from_arrow(pa.table({
            "start": pa.array(np.concatenate(rows_s)),
            "step": pa.array(np.concatenate(rows_step)),
            "node": pa.array(np.concatenate(rows_n))}))

    # walks start at every node; state rows are (start, cur)
    def init_states(g: pd.DataFrame) -> pd.DataFrame:
        nodes = np.unique(g["a"].to_numpy(np.int64))
        return pd.DataFrame({"start": nodes, "cur": nodes})

    # in-bucket dedup is global: a node's full adjacency (and thus its
    # presence as "a") lands in one hash bucket
    states = bucketed_groups(bi, "a", init_states,
                             n_buckets=n_buckets).materialize()

    def labeler(step: int):
        def label(g: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "start": g["start"].to_numpy(np.int64),
                "step": np.full(len(g), step, np.int64),
                "node": g["cur"].to_numpy(np.int64)})
        return label

    out_ds = states.map_batches(labeler(0), batch_format="pandas")

    for step in range(1, walk_len + 1):
        def tag_state(g: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"key": g["cur"].to_numpy(np.int64),
                                 "other": g["start"].to_numpy(np.int64),
                                 "side": np.int64(0)})

        def tag_edge(g: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"key": g["a"].to_numpy(np.int64),
                                 "other": g["b"].to_numpy(np.int64),
                                 "side": np.int64(1)})

        unioned = states.map_batches(tag_state, batch_format="pandas"
                                     ).union(
            bi.map_batches(tag_edge, batch_format="pandas"))

        def advance(g: pd.DataFrame, _step=step) -> pd.DataFrame:
            st = g[g["side"] == 0]
            eg = g[g["side"] == 1]
            if not len(st) or not len(eg):
                return pd.DataFrame({
                    "start": pd.Series([], dtype=np.int64),
                    "cur": pd.Series([], dtype=np.int64)})
            # per current node: the md5-argmin neighbor, computed once
            # per (cur, nbr) -- the loop mirrors the oracle's md5()
            best: dict = {}
            for cur, nbr in zip(eg["key"].to_numpy(np.int64),
                                eg["other"].to_numpy(np.int64)):
                h = hashlib.md5(
                    f"{cur}:{nbr}:{_step}".encode()).hexdigest()
                cand = (h, int(nbr))
                if cur not in best or cand < best[cur]:
                    best[cur] = cand
            nxt = st["key"].map(lambda c: best[c][1])
            return pd.DataFrame({
                "start": st["other"].to_numpy(np.int64),
                "cur": nxt.to_numpy(np.int64)})

        states = bucketed_groups(unioned, "key", advance,
                                 n_buckets=n_buckets).materialize()
        out_ds = out_ds.union(states.map_batches(labeler(step),
                                                 batch_format="pandas"))

    return out_ds


def personalized_pagerank_fixedpoint(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    seeds: ray.data.Dataset,
    *,
    n_iter: int = 3,
    scale: int = 10**12,
    damp_num: int = 85,
    damp_den: int = 100,
) -> ray.data.Dataset:
    """Personalized PageRank (random walk with restart to a SEED set)
    in the same oracle-exact int64 floor arithmetic as
    :func:`pagerank_fixedpoint` -- the recommendation / local-relevance
    variant: all restart mass concentrates on the seeds, so ranks
    measure proximity to them instead of global importance.

    * r0(v)     = scale // |S| for v in S, else 0
    * r_{t+1}(v) = [v in S] * (15 * scale) // (100 * |S|)
                 + sum over in-edges (u, v) of
                   (damp_num * r_t(u)) // (damp_den * outdeg(u))

    Same model-broadcast shape, dangling-mass and multi-edge semantics,
    and broadcast-sized node-state contract as the global fixedpoint.
    Seeds absent from the edge set are ignored.  Returns
    (node, rank_fp)."""
    from ci_log_processing_ray.ops.window import (
        bucketed_distinct, bucketed_sum)

    edges = edges.map_batches(
        lambda t: pa.table({
            "src": t[src_col].combine_chunks().cast(pa.int64()),
            "dst": t[dst_col].combine_chunks().cast(pa.int64())}),
        batch_format="pyarrow").materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        u, c = np.unique(t["src"].combine_chunks().to_numpy(),
                         return_counts=True)
        return pa.table({"src": pa.array(u),
                         "d": pa.array(c.astype(np.int64))})

    deg_df = bucketed_sum(
        edges.map_batches(deg_partial, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["src"], ["d"]).to_pandas()

    def node_partial(t: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate([
            t["src"].combine_chunks().to_numpy(),
            t["dst"].combine_chunks().to_numpy()]))
        return pa.table({"node": pa.array(u)})

    nodes = np.sort(
        bucketed_distinct(
            edges.map_batches(node_partial, batch_format="pyarrow",
                              zero_copy_batch=True),
            ["node"])
        .to_pandas()["node"].to_numpy().astype(np.int64))
    n = len(nodes)
    deg = np.zeros(n, dtype=np.int64)
    pos = np.searchsorted(nodes, deg_df["src"].to_numpy().astype(np.int64))
    deg[pos] = deg_df["d"].to_numpy().astype(np.int64)

    seed_ids = np.unique(
        seeds.to_pandas()["node"].to_numpy(np.int64))
    sidx = np.searchsorted(nodes, seed_ids)
    sidx_c = np.clip(sidx, 0, max(n - 1, 0))
    present = (n > 0) & (nodes[sidx_c] == seed_ids)
    sidx = sidx_c[present]
    ns = len(sidx)
    if ns == 0:
        raise ValueError("no seed appears in the edge set")

    teleport_vec = np.zeros(n, dtype=np.int64)
    teleport_vec[sidx] = (15 * scale) // (100 * ns)
    ranks = np.zeros(n, dtype=np.int64)
    ranks[sidx] = scale // ns

    for _round in range(n_iter):
        state_ref = ray.put((nodes, ranks, deg))

        def contrib(t: pa.Table, _ref=state_ref) -> pa.Table:
            nd, r, dg = ray.get(_ref)
            s = t["src"].combine_chunks().to_numpy()
            d = t["dst"].combine_chunks().to_numpy()
            si = np.searchsorted(nd, s)
            c = (damp_num * r[si]) // (damp_den * dg[si])
            order = np.argsort(d)
            ds_, cs_ = d[order], c[order]
            starts = np.flatnonzero(
                np.r_[True, ds_[1:] != ds_[:-1]]) if len(ds_) \
                else np.array([], np.int64)
            return pa.table({
                "dst": pa.array(ds_[starts]),
                "c": pa.array(np.add.reduceat(cs_, starts)
                              if len(starts) else cs_[:0])})

        agg = bucketed_sum(
            edges.map_batches(contrib, batch_format="pyarrow",
                              zero_copy_batch=True),
            ["dst"], ["c"]).to_pandas()
        new = teleport_vec.copy()
        di = np.searchsorted(nodes, agg["dst"].to_numpy().astype(np.int64))
        new[di] += agg["c"].to_numpy().astype(np.int64)
        ranks = new

    return ray.data.from_arrow(
        pa.table({"node": pa.array(nodes), "rank_fp": pa.array(ranks)}))


def neighbor_feature_agg(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    feats: ray.data.Dataset,
    node_col: str,
    feat_col: str,
    *,
    n_buckets: int | None = None,
    driver_edge_cap: int = 400_000,
) -> "ray.data.Dataset":
    """GNN-style neighbor feature aggregation (the GraphSAGE /
    feature-propagation preprocessing primitive) over the DIRECTED
    edge table, exact in int64: for every destination node, the sum
    and count of its in-neighbors' integer features at hop 1, and at
    hop 2 with PATH-MULTISET semantics (one contribution per length-2
    path, i.e. (A^T)^2 x -- the linear-algebra form, which is also
    what two SQL joins compute; revisits and cycles contribute per
    path, documented).

    Scale shape: hop 1 is one tagged co-partition of features with
    edges on hash(src) followed by a bucketed per-dst sum; hop 2
    re-runs the same exchange feeding the hop-1 sums back as features
    (feature tables are node-shaped; edges move once per hop).
    Returns (node, h1_sum, h1_n, h2_sum, h2_n) for nodes with >= 1
    in-path of that length; missing hops fill 0."""
    from ci_log_processing_ray.ops.window import (
        bucketed_groups, bucketed_sum)

    def canon_edges(t: pa.Table) -> pa.Table:
        return pa.table({
            "u": t[src_col].combine_chunks().cast(pa.int64()),
            "v": t[dst_col].combine_chunks().cast(pa.int64())})

    e = edges.map_batches(canon_edges, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()

    if e.count() <= driver_edge_cap:
        # driver path (cap-with-distributed-fallback): edge tables at
        # toy scale pay three fixed-cost exchanges; the same two-hop
        # path-multiset recurrence runs in one pandas process.
        # Feature tables are node-shaped, so they fit whenever the
        # edges do.  Parity pinned by
        # tests/test_ops.py::test_neighbor_agg_driver_parity.
        ef = e.to_pandas()
        fd = feats.to_pandas().rename(
            columns={node_col: "u", feat_col: "_f"})[["u", "_f"]]
        fd["_f"] = fd["_f"].astype(np.int64)
        m1 = ef.merge(fd, on="u")
        h1 = (m1.groupby("v", as_index=False)
              .agg(h1_sum=("_f", "sum"), h1_n=("_f", "size")))
        m2 = ef.merge(h1.rename(columns={"v": "u"}), on="u")
        h2 = (m2.groupby("v", as_index=False)
              .agg(h2_sum=("h1_sum", "sum"), h2_n=("h1_n", "sum")))
        out = h1.merge(h2, on="v", how="outer").fillna(0)
        out = out.rename(columns={"v": "node"}).astype(np.int64)
        return ray.data.from_arrow(pa.Table.from_pandas(
            out[["node", "h1_sum", "h1_n", "h2_sum", "h2_n"]],
            preserve_index=False))

    def one_hop(feat_ds: ray.data.Dataset, fcol: str, ncol: str,
                cnt_col: str | None, *, final_sum: bool
                ) -> ray.data.Dataset:
        """sum/count of source features per dst: features tagged into
        the same hash(u) co-partition as the edges.  All tagging
        stages emit ARROW tables (zero-copy into the exchange's
        pyarrow bucketing -- pandas blocks here cost a conversion per
        batch at exchange time).  With ``final_sum=False`` the
        per-bucket partials are returned unsummed so the caller can
        fold them into its own exchange (saves one full node-shaped
        exchange for hop 2)."""

        def tag_feat(t: pa.Table) -> pa.Table:
            n = len(t)
            return pa.table({
                "key": t[ncol].combine_chunks().cast(pa.int64()),
                "val": t[fcol].combine_chunks().cast(pa.int64()),
                "cnt": (t[cnt_col].combine_chunks().cast(pa.int64())
                        if cnt_col is not None
                        else pa.array(np.ones(n, np.int64))),
                "side": pa.array(np.zeros(n, np.int8))})

        def tag_edge(t: pa.Table) -> pa.Table:
            n = len(t)
            return pa.table({
                "key": t["u"], "val": t["v"],
                "cnt": pa.array(np.zeros(n, np.int64)),
                "side": pa.array(np.ones(n, np.int8))})

        unioned = feat_ds.map_batches(
            tag_feat, batch_format="pyarrow", zero_copy_batch=True
        ).union(e.map_batches(tag_edge, batch_format="pyarrow",
                              zero_copy_batch=True))

        def kern(g: pd.DataFrame) -> pd.DataFrame:
            side = g["side"].to_numpy()
            f = g[side == 0]
            eg = g[side == 1]
            if not len(f) or not len(eg):
                return pd.DataFrame({
                    "node": pd.Series([], dtype=np.int64),
                    "s": pd.Series([], dtype=np.int64),
                    "n": pd.Series([], dtype=np.int64)})
            m = eg[["key", "val"]].merge(
                f[["key", "val", "cnt"]].rename(
                    columns={"val": "fv"}), on="key")
            out = (m.groupby("val", as_index=False, sort=False)
                   .agg(s=("fv", "sum"), n=("cnt", "sum")))
            return pd.DataFrame({"node": out["val"].to_numpy(np.int64),
                                 "s": out["s"].to_numpy(np.int64),
                                 "n": out["n"].to_numpy(np.int64)})

        partials = bucketed_groups(unioned, "key", kern,
                                   n_buckets=n_buckets)
        if not final_sum:
            return partials
        return bucketed_sum(partials, ["node"], ["s", "n"],
                            n_buckets=n_buckets)

    h1 = one_hop(feats, feat_col, node_col, None,
                 final_sum=True).materialize()

    def as_feat(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": g["node"].to_numpy(np.int64),
                             "f": g["s"].to_numpy(np.int64),
                             "_cnt": g["n"].to_numpy(np.int64)})

    # hop 2 partials stay unsummed: the final fusion exchange sums them
    h2 = one_hop(h1.map_batches(as_feat, batch_format="pandas"),
                 "f", "node", "_cnt", final_sum=False)

    def tag_h(which: int):
        def t(g: pd.DataFrame) -> pd.DataFrame:
            z = np.zeros(len(g), np.int64)
            return pd.DataFrame({
                "node": g["node"].to_numpy(np.int64),
                "h1_sum": g["s"].to_numpy(np.int64) if which == 1 else z,
                "h1_n": g["n"].to_numpy(np.int64) if which == 1 else z,
                "h2_sum": g["s"].to_numpy(np.int64) if which == 2 else z,
                "h2_n": g["n"].to_numpy(np.int64) if which == 2 else z})
        return t

    both = h1.map_batches(tag_h(1), batch_format="pandas").union(
        h2.map_batches(tag_h(2), batch_format="pandas"))
    return bucketed_sum(both, ["node"],
                        ["h1_sum", "h1_n", "h2_sum", "h2_n"],
                        n_buckets=n_buckets)


def degree_assortativity(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    *,
    n_buckets: int | None = None,
    driver_edge_cap: int = 400_000,
) -> "ray.data.Dataset":
    """Directed (out-in) degree assortativity SUFFICIENT STATISTICS,
    exact in int64: per edge, x = out-degree(src) and y =
    in-degree(dst); output one row with m (#edges), sx, sy, sxx, syy,
    sxy plus the exact Pearson pieces r_num = m*sxy - sx*sy and
    r_den1 = m*sxx - sx^2, r_den2 = m*syy - sy^2
    (r = r_num / sqrt(r_den1*r_den2); the square root stays OUT of
    the exact contract so the oracle hashes bit-for-bit -- compute the
    float r downstream if wanted).  Positive r_num = hubs feed hubs
    (assortative mixing), negative = hubs feed leaves.

    Scale shape: degree tables are two bucketed count exchanges
    (node-shaped); degrees attach to edges via two tagged hash(key)
    co-partitions (degree rows ride the exchange, never a broadcast);
    suffstat partials collapse per bucket and the driver folds them in
    Python ints (per-bucket int64 partials hold to ~1M-edge buckets at
    degree ~1e3; beyond that widen the kernel to object dtype).
    Self-loops and multi-edges count per edge row, as in the SQL
    mirror."""
    from ci_log_processing_ray.ops.window import (bucketed_groups,
                                                  bucketed_sum)

    def canon(t: pa.Table) -> pa.Table:
        return pa.table({
            "u": t[src_col].combine_chunks().cast(pa.int64()),
            "v": t[dst_col].combine_chunks().cast(pa.int64())})

    e = edges.map_batches(canon, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()

    if e.count() <= driver_edge_cap:
        # driver path: same suffstat math, zero exchanges (parity
        # pinned by tests/test_ops.py::test_assortativity_driver_parity)
        eb = e.to_pandas()
        u = eb["u"].to_numpy(np.int64)
        v = eb["v"].to_numpy(np.int64)
        un, uc = np.unique(u, return_counts=True)
        vn, vc = np.unique(v, return_counts=True)
        x = uc[np.searchsorted(un, u)].astype(np.int64)
        y = vc[np.searchsorted(vn, v)].astype(np.int64)
        m = len(eb)
        sx, sy = int(x.sum()), int(y.sum())
        sxx, syy = int((x * x).sum()), int((y * y).sum())
        sxy = int((x * y).sum())
        return ray.data.from_arrow(pa.table({
            "m": pa.array([m], pa.int64()),
            "sx": pa.array([sx], pa.int64()),
            "sy": pa.array([sy], pa.int64()),
            "sxx": pa.array([sxx], pa.int64()),
            "syy": pa.array([syy], pa.int64()),
            "sxy": pa.array([sxy], pa.int64()),
            "r_num": pa.array([m * sxy - sx * sy], pa.int64()),
            "r_den1": pa.array([m * sxx - sx * sx], pa.int64()),
            "r_den2": pa.array([m * syy - sy * sy], pa.int64())}))

    def deg_of(col: str, out_name: str) -> ray.data.Dataset:
        def ones(t: pa.Table) -> pa.Table:
            return pa.table({
                "node": t[col],
                out_name: pa.array(np.ones(len(t), np.int64))})
        return bucketed_sum(
            e.map_batches(ones, batch_format="pyarrow",
                          zero_copy_batch=True),
            ["node"], [out_name], n_buckets=n_buckets)

    outdeg = deg_of("u", "deg")
    indeg = deg_of("v", "deg")

    def attach(edge_ds: ray.data.Dataset, deg_ds: ray.data.Dataset,
               key: str, carry: str, out: str) -> ray.data.Dataset:
        """Tagged co-partition: per edge row keyed by ``key``, attach
        that node's degree as column ``out`` (carrying ``carry``)."""

        def tag_deg(g: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "key": g["node"].to_numpy(np.int64),
                "a": g["deg"].to_numpy(np.int64),
                "side": np.int8(0)})

        def tag_edge(g: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "key": g[key].to_numpy(np.int64),
                "a": g[carry].to_numpy(np.int64),
                "side": np.int8(1)})

        def kern(g: pd.DataFrame) -> pd.DataFrame:
            side = g["side"].to_numpy()
            d = g[side == 0]
            ed = g[side == 1]
            if not len(d) or not len(ed):
                return pd.DataFrame({
                    key: pd.Series([], dtype=np.int64),
                    carry: pd.Series([], dtype=np.int64),
                    out: pd.Series([], dtype=np.int64)})
            m = ed[["key", "a"]].merge(
                d[["key", "a"]].rename(columns={"a": "deg"}), on="key")
            return pd.DataFrame({
                key: m["key"].to_numpy(np.int64),
                carry: m["a"].to_numpy(np.int64),
                out: m["deg"].to_numpy(np.int64)})

        unioned = deg_ds.map_batches(
            tag_deg, batch_format="pandas").union(
            edge_ds.map_batches(tag_edge, batch_format="pandas"))
        return bucketed_groups(unioned, "key", kern,
                               n_buckets=n_buckets)

    # pass 1: key=src, carry dst, attach x=outdeg(src)
    with_x = attach(e, outdeg, "u", "v", "x")
    # pass 2: key=dst (now in column "v"... rename roles): key v,
    # carry x, attach y=indeg(dst)
    def flip(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"u": g["v"].to_numpy(np.int64),
                             "x": g["x"].to_numpy(np.int64)})

    with_xy = attach(
        with_x.map_batches(flip, batch_format="pandas"),
        indeg, "u", "x", "y")

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        x = g["x"].to_numpy(np.int64)
        y = g["y"].to_numpy(np.int64)
        return pd.DataFrame({
            "m": np.array([len(g)], np.int64),
            "sx": np.array([x.sum()], np.int64),
            "sy": np.array([y.sum()], np.int64),
            "sxx": np.array([(x * x).sum()], np.int64),
            "syy": np.array([(y * y).sum()], np.int64),
            "sxy": np.array([(x * y).sum()], np.int64)})

    parts = with_xy.map_batches(
        partial, batch_format="pandas").to_pandas()
    m = int(parts["m"].sum())
    sx = int(parts["sx"].sum())
    sy = int(parts["sy"].sum())
    sxx = int(parts["sxx"].sum())
    syy = int(parts["syy"].sum())
    sxy = int(parts["sxy"].sum())
    return ray.data.from_arrow(pa.table({
        "m": pa.array([m], pa.int64()),
        "sx": pa.array([sx], pa.int64()),
        "sy": pa.array([sy], pa.int64()),
        "sxx": pa.array([sxx], pa.int64()),
        "syy": pa.array([syy], pa.int64()),
        "sxy": pa.array([sxy], pa.int64()),
        "r_num": pa.array([m * sxy - sx * sy], pa.int64()),
        "r_den1": pa.array([m * sxx - sx * sx], pa.int64()),
        "r_den2": pa.array([m * syy - sy * sy], pa.int64())}))


def edge_reciprocity(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    *,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Directed-graph reciprocity: the fraction of distinct directed
    edges (self-loops excluded) whose reverse edge also exists -- the
    mutual-link metric for follow/citation/link graphs.  Output: one
    row (m = distinct directed edges, m_recip = edges whose reverse
    exists, recip_permille = 1000*m_recip//m), exact int64.

    Scale shape: one hash(unordered pair) bucketed exchange of
    (lo, hi, direction-bit) rows pre-deduped per block; the kernel
    groups each pair and ORs its direction bits (both bits -> the
    pair's 2 edges are both reciprocated); tiny count partials fold on
    the driver."""
    from ci_log_processing_ray.ops.window import bucketed_groups

    def canon(t: pa.Table) -> pa.Table:
        u = t[src_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        v = t[dst_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        keep = u != v
        u, v = u[keep], v[keep]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        fwd = (u < v).astype(np.int64) + 1  # bit 1 = lo->hi, 2 = hi->lo
        d = pd.DataFrame({"lo": lo, "hi": hi,
                          "bits": fwd}).drop_duplicates()
        return pa.table({"lo": pa.array(d["lo"].to_numpy()),
                         "hi": pa.array(d["hi"].to_numpy()),
                         "bits": pa.array(d["bits"].to_numpy())})

    pairs = edges.map_batches(canon, batch_format="pyarrow",
                              zero_copy_batch=True)

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        # bits are 1 or 2; after a distinct over (lo,hi,bits) the
        # per-pair SUM of bits equals their OR (C-speed, no per-pair
        # Python)
        agg = (g.drop_duplicates()
               .groupby(["lo", "hi"], sort=False)["bits"].sum())
        bits = agg.to_numpy(np.int64)
        n_both = int((bits == 3).sum())
        n_single = int((bits != 3).sum())
        return pd.DataFrame({
            "m": np.array([2 * n_both + n_single], np.int64),
            "m_recip": np.array([2 * n_both], np.int64)})

    parts = bucketed_groups(pairs, "lo", kern,
                            n_buckets=n_buckets).to_pandas()
    m = int(parts["m"].sum())
    mr = int(parts["m_recip"].sum())
    if m == 0:
        raise ValueError("no non-loop edges")
    return ray.data.from_arrow(pa.table({
        "m": pa.array([m], pa.int64()),
        "m_recip": pa.array([mr], pa.int64()),
        "recip_permille": pa.array([1000 * mr // m], pa.int64())}))


def minimum_spanning_forest(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    weight_col: str,
    *,
    max_rounds: int = 16,
    n_buckets: int | None = None,
    driver_edge_cap: int = 200_000,
) -> "ray.data.Dataset":
    """Distributed minimum spanning forest via Boruvka's algorithm --
    the clustering / network-design primitive (single-linkage
    clustering IS the MSF).  Edges are undirected (u,v,w int64,
    self-loops dropped); ties break by total (w, min, max) order, so
    the result is deterministic on ANY weights and provably unique
    when weights are distinct.  Returns the forest's edge list
    (u, v, w) with u < v.

    Boruvka rounds (components at least halve per round -> <= log2 n
    rounds):
    1. RELABEL: each endpoint's current component label attaches via
       a node-shaped tagged hash(node) co-partition (labels ride the
       exchange, never a broadcast); intra-component edges drop.
    2. SELECT: every edge is exploded to both endpoint components; a
       bucketed min per component picks its lightest incident edge
       (the Boruvka-safe choice); selections dedup by (u,v).
    3. CONTRACT: the selected edges form a component-level graph whose
       connected components (the in-repo two-phase
       :func:`connected_components`, hierarchical above its boundary
       cap) become the new labels; node labels compose via one more
       tagged co-partition.  Terminates when no cross-component edge
       remains; raises if ``max_rounds`` was too small (forest would
       be incomplete).
    """
    from ci_log_processing_ray.ops.window import (bucketed_distinct,
                                                  bucketed_groups)

    def canon(t: pa.Table) -> pa.Table:
        u = t[src_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        v = t[dst_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        w = t[weight_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        keep = u != v
        u, v, w = u[keep], v[keep], w[keep]
        return pa.table({"eu": pa.array(np.minimum(u, v)),
                         "ev": pa.array(np.maximum(u, v)),
                         "w": pa.array(w)})

    e = edges.map_batches(canon, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()

    if e.count() <= driver_edge_cap:
        # driver path: Kruskal under the SAME (w, min, max) total
        # order.  The minimum forest w.r.t. a strict total order is
        # UNIQUE, so this provably equals the Boruvka result (parity
        # pinned by tests/test_ops.py::test_msf_driver_parity).
        eb = e.to_pandas().sort_values(["w", "eu", "ev"],
                                       kind="mergesort")
        parent: dict = {}

        def find(x: int) -> int:
            r = x
            while parent.setdefault(r, r) != r:
                r = parent[r]
            while parent[x] != r:
                parent[x], x = r, parent[x]
            return r

        fu, fv, fw = [], [], []
        for uu, vv, ww in zip(eb["eu"].to_numpy(np.int64),
                              eb["ev"].to_numpy(np.int64),
                              eb["w"].to_numpy(np.int64)):
            ru, rv = find(int(uu)), find(int(vv))
            if ru != rv:
                parent[ru] = rv
                fu.append(uu)
                fv.append(vv)
                fw.append(ww)
        return ray.data.from_arrow(pa.table({
            "u": pa.array(np.array(fu, np.int64)),
            "v": pa.array(np.array(fv, np.int64)),
            "w": pa.array(np.array(fw, np.int64))}))

    def attach_label(ds_in, key: str, labels, out: str):
        """Tagged co-partition on ``key``: attach that node's current
        component label as ``out``.  ``labels`` None -> identity."""
        if labels is None:
            def ident(t: pa.Table) -> pa.Table:
                return t.append_column(out, t[key])
            return ds_in.map_batches(ident, batch_format="pyarrow",
                                     zero_copy_batch=True)

        other = "cu" if out == "cv" else "cv"

        # IDENTICAL column order on both union sides: blocks of a
        # union feed the same sort exchange, and schema-order drift
        # between producers corrupts the concatenation at scale
        def tag_lab(t: pa.Table) -> pa.Table:
            return pa.table({
                "key": t["node"], "la": t["component"],
                "eu": pa.nulls(len(t), pa.int64()),
                "ev": pa.nulls(len(t), pa.int64()),
                "w": pa.nulls(len(t), pa.int64()),
                other: pa.nulls(len(t), pa.int64()),
                "side": pa.array(np.zeros(len(t), np.int8))})

        def tag_edge(t: pa.Table) -> pa.Table:
            return pa.table({
                "key": t[key], "la": pa.nulls(len(t), pa.int64()),
                "eu": t["eu"], "ev": t["ev"], "w": t["w"],
                other: (t[other] if other in t.column_names
                        else pa.nulls(len(t), pa.int64())),
                "side": pa.array(np.ones(len(t), np.int8))})

        def kern(g: pd.DataFrame) -> pd.DataFrame:
            side = g["side"].to_numpy()
            lab = g[side == 0]
            ed = g[side == 1]
            cols = ["eu", "ev", "w", other, out]
            if not len(ed):
                return pd.DataFrame(
                    {c: pd.Series([], dtype=np.int64) for c in cols})
            lk = lab["key"].to_numpy(np.int64)
            la = lab["la"].to_numpy(np.int64)
            order = np.argsort(lk, kind="stable")
            lk, la = lk[order], la[order]
            ek = ed["key"].to_numpy(np.int64)
            pos = np.searchsorted(lk, ek)
            pos_c = np.minimum(pos, max(len(lk) - 1, 0))
            found = (len(lk) > 0) & (lk[pos_c] == ek)
            # a node with no label row keeps itself (isolated since
            # the start or never relabeled)
            out_lab = np.where(found, la[pos_c], ek)
            res = {"eu": ed["eu"].to_numpy(np.int64),
                   "ev": ed["ev"].to_numpy(np.int64),
                   "w": ed["w"].to_numpy(np.int64),
                   out: out_lab}
            ov = ed[other].to_numpy(np.float64)
            res[other] = np.where(np.isnan(ov), -1,
                                  ov).astype(np.int64)
            return pd.DataFrame({c: res[c] for c in cols})

        unioned = labels.map_batches(
            tag_lab, batch_format="pyarrow").union(
            ds_in.map_batches(tag_edge, batch_format="pyarrow"))
        return bucketed_groups(unioned, "key", kern,
                               n_buckets=n_buckets)

    labels = None  # node -> component; None = identity
    forest_parts: list[ray.data.Dataset] = []

    for _round in range(max_rounds):
        # 1. relabel both endpoints
        with_cu = attach_label(e, "eu", labels, "cu")
        with_cv = attach_label(with_cu, "ev", labels, "cv")

        def live_only(t: pa.Table) -> pa.Table:
            cu = t["cu"].combine_chunks().to_numpy(zero_copy_only=False)
            cv = t["cv"].combine_chunks().to_numpy(zero_copy_only=False)
            return t.filter(pa.array(cu != cv))

        live = with_cv.map_batches(
            live_only, batch_format="pyarrow",
            zero_copy_batch=True).materialize()
        n_live = live.count()
        if n_live == 0:
            return _msf_finalize(forest_parts, n_buckets)
        # size this round's exchanges from the KNOWN live edge count
        # (the contraction shrinks it geometrically; late rounds are
        # tiny and the cluster-default bucket count is pure fixed cost)
        from ci_log_processing_ray.ops.window import \
            resolve_group_buckets as _rgb
        nb_round = _rgb(n_buckets, input_rows=2 * n_live)

        # 2. explode to both endpoint components, min per component
        def explode(t: pa.Table) -> pa.Table:
            return pa.table({
                "comp": pa.chunked_array([t["cu"].combine_chunks(),
                                          t["cv"].combine_chunks()]),
                "eu": pa.chunked_array([t["eu"].combine_chunks()] * 2),
                "ev": pa.chunked_array([t["ev"].combine_chunks()] * 2),
                "w": pa.chunked_array([t["w"].combine_chunks()] * 2),
                "cu": pa.chunked_array([t["cu"].combine_chunks()] * 2),
                "cv": pa.chunked_array([t["cv"].combine_chunks()] * 2)})

        def pick_min(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["comp", "w", "eu", "ev"],
                              kind="mergesort")
            return g.groupby("comp", sort=False).head(1)

        sel = bucketed_groups(
            live.map_batches(explode, batch_format="pyarrow",
                             zero_copy_batch=True),
            "comp", pick_min, n_buckets=nb_round)
        sel_edges = bucketed_distinct(
            sel.map_batches(
                lambda t: t.select(["eu", "ev", "w", "cu", "cv"]),
                batch_format="pyarrow", zero_copy_batch=True),
            ["eu", "ev", "w", "cu", "cv"],
            n_buckets=nb_round).materialize()
        forest_parts.append(sel_edges)

        # 3. contract: CC over the component-level selected graph,
        # then compose node labels through it
        comp_cc = connected_components(
            sel_edges, "cu", "cv",
            n_buckets=nb_round).materialize()
        if labels is None:
            labels = comp_cc
        else:
            def lab_as_edges(t: pa.Table) -> pa.Table:
                # reuse attach machinery: rows (eu=node, key=old comp)
                return pa.table({
                    "eu": t["node"], "ev": t["node"],
                    "w": pa.nulls(len(t), pa.int64()),
                    "key": t["component"]})

            def tag_cc(t: pa.Table) -> pa.Table:
                return pa.table({
                    "eu": pa.nulls(len(t), pa.int64()),
                    "ev": pa.nulls(len(t), pa.int64()),
                    "w": pa.nulls(len(t), pa.int64()),
                    "key": t["node"],
                    "la": t["component"],
                    "side": pa.array(np.zeros(len(t), np.int8))})

            def tag_old(t: pa.Table) -> pa.Table:
                return pa.table({
                    "eu": t["eu"], "ev": t["ev"], "w": t["w"],
                    "key": t["key"],
                    "la": pa.nulls(len(t), pa.int64()),
                    "side": pa.array(np.ones(len(t), np.int8))})

            def compose_kern(g: pd.DataFrame) -> pd.DataFrame:
                side = g["side"].to_numpy()
                cc = g[side == 0]
                old = g[side == 1]
                if not len(old):
                    return pd.DataFrame({
                        "node": pd.Series([], dtype=np.int64),
                        "component": pd.Series([], dtype=np.int64)})
                ck = cc["key"].to_numpy(np.int64)
                ca = cc["la"].to_numpy(np.int64)
                order = np.argsort(ck, kind="stable")
                ck, ca = ck[order], ca[order]
                ok = old["key"].to_numpy(np.int64)
                pos = np.searchsorted(ck, ok)
                pos_c = np.minimum(pos, max(len(ck) - 1, 0))
                found = (len(ck) > 0) & (ck[pos_c] == ok)
                new_lab = np.where(found, ca[pos_c], ok)
                return pd.DataFrame({
                    "node": old["eu"].to_numpy(np.int64),
                    "component": new_lab})

            unioned = comp_cc.map_batches(
                tag_cc, batch_format="pyarrow").union(
                labels.map_batches(
                    lab_as_edges, batch_format="pyarrow",
                    zero_copy_batch=True
                ).map_batches(tag_old, batch_format="pyarrow"))
            labels = bucketed_groups(unioned, "key", compose_kern,
                                     n_buckets=nb_round).materialize()

    # max_rounds exhausted: check completion
    with_cu = attach_label(e, "eu", labels, "cu")
    with_cv = attach_label(with_cu, "ev", labels, "cv")
    rem = with_cv.map_batches(
        lambda t: t.filter(pa.array(
            t["cu"].combine_chunks().to_numpy(zero_copy_only=False)
            != t["cv"].combine_chunks().to_numpy(
                zero_copy_only=False))),
        batch_format="pyarrow", zero_copy_batch=True).count()
    if rem:
        raise ValueError(
            f"minimum_spanning_forest: {rem} cross-component edges "
            f"remain after {max_rounds} rounds; raise max_rounds")
    return _msf_finalize(forest_parts, n_buckets)


def _msf_finalize(parts, n_buckets):
    from ci_log_processing_ray.ops.window import bucketed_distinct

    if not parts:
        return ray.data.from_arrow(pa.table({
            "u": pa.array([], pa.int64()),
            "v": pa.array([], pa.int64()),
            "w": pa.array([], pa.int64())}))
    allp = parts[0]
    for p in parts[1:]:
        allp = allp.union(p)
    out = bucketed_distinct(
        allp.map_batches(
            lambda t: pa.table({"u": t["eu"], "v": t["ev"],
                                "w": t["w"]}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["u", "v", "w"], n_buckets=n_buckets)
    return out


def _ktruss_driver_peel(df: "pd.DataFrame", k: int, *,
                        max_rounds: int = 30,
                        max_degree: int | None = None) -> pa.Table:
    """Driver-side peel loop over an already-canonical deduped (a, b)
    edge frame -- kernel-for-kernel the same math as the distributed
    loop in :func:`ktruss` (wedges from capped centers, closure against
    the FULL current edge set, support threshold with the hub-closure
    protection override), used under ``driver_edge_cap``.  Parity with
    the distributed path is pinned by tests/test_ops.py."""
    import warnings

    min_support = k - 2
    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64()),
                      "support": pa.array([], pa.int64())})
    prot = None
    if max_degree is not None:
        deg = df.groupby("a", sort=False)["b"].size()
        hubs = np.sort(deg[deg > max_degree].index.to_numpy(np.int64))
        if len(hubs):
            nbrs = df[df["a"].isin(hubs)]["b"].to_numpy(np.int64)
            prot = np.unique(np.concatenate([hubs, nbrs]))
            warnings.warn(
                f"ktruss: {len(hubs)} centers exceed "
                f"max_degree={max_degree}; their wedges are skipped "
                f"and edges within the {len(prot)}-node at-risk "
                "closure are exempt from peeling -- result is a "
                f"SUPERSET of the true {k}-truss (protected edges "
                "report lower-bound support)")
    cur = df[["a", "b"]].reset_index(drop=True)
    nxt, nsup = cur, np.zeros(len(cur), np.int64)
    for _ in range(max_rounds):
        if not len(cur):
            return empty
        gw = cur
        if max_degree is not None:
            dsz = gw.groupby("a", sort=False)["b"].transform("size")
            gw = gw[dsz.to_numpy() <= max_degree]
        m = gw.merge(gw, on="a")
        m = m[m["b_x"].to_numpy() < m["b_y"].to_numpy()]
        closed = m.merge(cur.rename(columns={"a": "b_x", "b": "b_y"}),
                         on=["b_x", "b_y"])
        parts = pd.concat([
            pd.DataFrame({"a": closed["a"], "b": closed["b_x"]}),
            pd.DataFrame({"a": closed["a"], "b": closed["b_y"]}),
            pd.DataFrame({"a": closed["b_x"], "b": closed["b_y"]})])
        if len(parts):
            sup = parts.groupby(["a", "b"]).size()
            n = sup.reindex(pd.MultiIndex.from_frame(cur[["a", "b"]]),
                            fill_value=0).to_numpy(np.int64)
        else:
            n = np.zeros(len(cur), np.int64)
        keep = n >= min_support
        if prot is not None:
            av = cur["a"].to_numpy(np.int64)
            bv = cur["b"].to_numpy(np.int64)
            pa_ = np.clip(np.searchsorted(prot, av), 0, len(prot) - 1)
            pb_ = np.clip(np.searchsorted(prot, bv), 0, len(prot) - 1)
            keep |= (prot[pa_] == av) & (prot[pb_] == bv)
        nxt = cur[keep].reset_index(drop=True)
        nsup = n[keep]
        if len(nxt) == len(cur):
            break
        cur = nxt
    else:
        warnings.warn(
            f"ktruss: no fixpoint within max_rounds={max_rounds}; "
            "returning the cap-round graph (a superset of the k-truss)")
    return pa.table({"a": pa.array(nxt["a"].to_numpy(np.int64)),
                     "b": pa.array(nxt["b"].to_numpy(np.int64)),
                     "support": pa.array(nsup)})


def ktruss(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    k: int,
    *,
    max_rounds: int = 30,
    n_buckets: int | None = None,
    max_degree: int | None = None,
    driver_edge_cap: int = 200_000,
) -> ray.data.Dataset:
    """k-truss decomposition: iteratively peel every edge supported by
    fewer than ``k - 2`` triangles until fixpoint, returning the
    surviving edges as canonical ``(a, b, support)`` rows with their
    final in-truss support -- the standard cohesive-subgraph mining
    step (a k-truss is the edge analogue of the k-core, much stricter
    about tie strength).

    Scale design: edges canonicalize (min, max) and dedup once; each
    peel round is three coarse-bucket exchanges, all graph-sized --
    (1) wedges per lower endpoint via one per-bucket self-merge,
    (2) closure of wedges against the edge set via a tagged-union
    (u, v) co-partition (each closed triangle credits its 3 edges),
    (3) support fold + threshold filter.  No per-round driver state
    beyond the edge COUNT; the edge table re-materializes per round
    (graph-sized, same contract as relational.triangle_count).

    ``max_degree`` is the ENFORCED wedge-explosion guard (round-3
    verdict task): wedge volume is sum(deg_low^2) of the current
    graph, so a first round on a hub-heavy graph could explode before
    peeling shrinks anything.  With the cap set, a center whose
    canonical out-degree exceeds it emits NO wedges -- per-round wedge
    volume is bounded by sum(min(deg_low, cap)^2) -- and correctness
    degrades CONSERVATIVELY to a guaranteed SUPERSET of the true
    k-truss: every edge whose support could be undercounted by a
    skipped center (both endpoints in the capped hubs' neighbor
    closure, hubs included) is exempt from peeling, with a one-time
    warning.  Protected edges report their COMPUTED support, a lower
    bound.  The hub-neighbor closure is driver-collected and
    broadcast; it is O(sum deg(capped hubs)) node ids -- by
    construction the few most extreme vertices -- mirroring the repo's
    broadcast-under-cap contract.  Rounds are bounded by
    ``max_rounds``; hitting the cap without fixpoint warns and returns
    the cap-round graph (a superset of the true truss).

    ``driver_edge_cap``: the repo's standard cap-with-distributed-
    fallback shape, applied to the PEEL LOOP -- a graph whose deduped
    canonical edge set fits the cap peels driver-side in one pandas
    process (identical kernels, zero per-round exchanges; each round
    of the distributed loop costs ~1 s of all-to-all fixed overhead
    that dwarfs toy graphs), while anything larger runs the
    distributed loop unchanged (the 10.8M-edge scale proof always
    does).  Parity between the two paths is pinned by
    tests/test_ops.py."""
    import warnings

    from ci_log_processing_ray.ops.window import (bucketed_distinct,
                                                  bucketed_groups,
                                                  resolve_group_buckets)

    # per-round block-count bound: the map_groups reduce keeps its
    # input's block count, so three chained exchanges + two unions per
    # round would otherwise ~3x the block count EVERY round -- measured
    # 2.9k -> 8.6k sort-input blocks in two rounds on a 10M-edge graph,
    # at which point the driver's all-to-all bookkeeping (not the
    # workers) becomes the bottleneck.  One cheap split/merge
    # repartition per round resets it.
    n_part = resolve_group_buckets(n_buckets)

    def canon(t: pa.Table) -> pa.Table:
        s = t[src_col].combine_chunks().to_numpy(zero_copy_only=False)
        d = t[dst_col].combine_chunks().to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({"a": pa.array(np.minimum(s, d)),
                         "b": pa.array(np.maximum(s, d))})

    cur = bucketed_distinct(
        edges.map_batches(canon, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["a", "b"], n_buckets=n_buckets).repartition(
            n_part).materialize()
    n_cur = cur.count()
    min_support = k - 2

    if n_cur <= driver_edge_cap:
        # toy/medium graphs: identical peel, zero per-round exchanges
        return ray.data.from_arrow(_ktruss_driver_peel(
            cur.to_pandas(), k, max_rounds=max_rounds,
            max_degree=max_degree))

    # ENFORCED hub cap: one degree pass over the INITIAL graph (degrees
    # only shrink under peeling, so no new center can exceed the cap
    # later; protection computed once stays a valid superset guard)
    protected_ref = None
    if max_degree is not None:
        from ci_log_processing_ray.ops.window import bucketed_sum

        deg = bucketed_sum(
            cur.map_batches(
                lambda t: pa.table({
                    "a": t["a"],
                    "one": pa.array(np.ones(len(t), np.int64))}),
                batch_format="pyarrow"),
            ["a"], ["one"], n_buckets=n_buckets)
        hubs_df = deg.map_batches(
            lambda t: t.filter(pc.greater(t["one"].combine_chunks(),
                                          max_degree)),
            batch_format="pyarrow").to_pandas()
        if len(hubs_df):
            hubs = np.sort(hubs_df["a"].to_numpy(np.int64))
            hubs_ref = ray.put(hubs)

            def hub_nbrs(t: pa.Table, _h=hubs_ref) -> pa.Table:
                h = ray.get(_h)
                a = t["a"].combine_chunks().to_numpy(
                    zero_copy_only=False)
                p = np.clip(np.searchsorted(h, a), 0, len(h) - 1)
                return t.filter(pa.array(h[p] == a)).select(["b"])

            nbrs = cur.map_batches(
                hub_nbrs, batch_format="pyarrow").to_pandas()
            prot = np.unique(np.concatenate(
                [hubs, nbrs["b"].to_numpy(np.int64)]))
            protected_ref = ray.put(prot)
            warnings.warn(
                f"ktruss: {len(hubs)} centers exceed "
                f"max_degree={max_degree}; their wedges are skipped "
                f"and edges within the {len(prot)}-node at-risk "
                "closure are exempt from peeling -- result is a "
                f"SUPERSET of the true {k}-truss (protected edges "
                "report lower-bound support)")

    def wedge_kern(g: pd.DataFrame) -> pd.DataFrame:
        if max_degree is not None:
            dsz = g.groupby("a", sort=False)["b"].transform("size")
            g = g[dsz.to_numpy() <= max_degree]
        m = g.merge(g, on="a")
        m = m[m["b_x"] < m["b_y"]]
        return pd.DataFrame({
            "u": m["b_x"].to_numpy(np.int64),
            "v": m["b_y"].to_numpy(np.int64),
            "wa": m["a"].to_numpy(np.int64)})

    def close_kern(g: pd.DataFrame) -> pd.DataFrame:
        w = g[g["tag"] == 0]
        e = g[g["tag"] == 1][["u", "v"]]
        closed = w.merge(e, on=["u", "v"])
        parts = pd.concat([
            pd.DataFrame({"a": closed["wa"], "b": closed["u"]}),
            pd.DataFrame({"a": closed["wa"], "b": closed["v"]}),
            pd.DataFrame({"a": closed["u"], "b": closed["v"]})])
        if parts.empty:
            return pd.DataFrame({"a": np.zeros(0, np.int64),
                                 "b": np.zeros(0, np.int64),
                                 "n": np.zeros(0, np.int64)})
        out = parts.groupby(["a", "b"], as_index=False).size()
        return pd.DataFrame({"a": out["a"].to_numpy(np.int64),
                             "b": out["b"].to_numpy(np.int64),
                             "n": out["size"].to_numpy(np.int64)})

    def thresh_kern(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["a", "b"], as_index=False)["n"].sum()
        keep = out["n"].to_numpy(np.int64) >= min_support
        if protected_ref is not None:
            # superset guard: edges whose support might be undercounted
            # by a skipped hub center are never peeled
            prot = ray.get(protected_ref)
            av = out["a"].to_numpy(np.int64)
            bv = out["b"].to_numpy(np.int64)
            pa_ = np.clip(np.searchsorted(prot, av), 0, len(prot) - 1)
            pb_ = np.clip(np.searchsorted(prot, bv), 0, len(prot) - 1)
            keep |= (prot[pa_] == av) & (prot[pb_] == bv)
        out = out[keep]
        return pd.DataFrame({
            "a": out["a"].to_numpy(np.int64),
            "b": out["b"].to_numpy(np.int64),
            "support": out["n"].to_numpy(np.int64)})

    for _ in range(max_rounds):
        # size this round's three exchanges from the KNOWN edge count
        # (wedge volume can exceed it on skew, but support-thresholded
        # peeling bounds it; the floor-8 lowering only fires on small
        # graphs where the all-to-all is pure fixed cost)
        nb_round = resolve_group_buckets(n_buckets, input_rows=n_cur)
        if n_cur == 0:
            return ray.data.from_arrow(pa.table({
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "support": pa.array([], pa.int64())}))
        wedges = bucketed_groups(cur, "a", wedge_kern,
                                 n_buckets=nb_round)
        tag_w = wedges.map_batches(
            lambda t: t.append_column(
                "tag", pa.array(np.zeros(len(t), np.int8))),
            batch_format="pyarrow")
        tag_e = cur.map_batches(
            lambda t: pa.table({
                "u": t["a"], "v": t["b"],
                "wa": pa.array(np.full(len(t), -1, np.int64)),
                "tag": pa.array(np.ones(len(t), np.int8))}),
            batch_format="pyarrow")
        support = bucketed_groups(tag_w.union(tag_e), "u", close_kern,
                                  n_buckets=nb_round)
        tag_z = cur.map_batches(
            lambda t: pa.table({
                "a": t["a"], "b": t["b"],
                "n": pa.array(np.zeros(len(t), np.int64))}),
            batch_format="pyarrow")
        nxt = bucketed_groups(support.union(tag_z), "a", thresh_kern,
                              n_buckets=nb_round).repartition(
                                  min(n_part, nb_round)).materialize()
        n_nxt = nxt.count()
        if n_nxt == n_cur:
            return nxt
        cur = nxt.map_batches(lambda t: t.select(["a", "b"]),
                              batch_format="pyarrow").materialize()
        n_cur = n_nxt
    warnings.warn(
        f"ktruss: no fixpoint within max_rounds={max_rounds}; "
        "returning the cap-round graph (a superset of the k-truss)")
    return nxt


def _tree_closure_driver(R: "pd.DataFrame", *,
                         max_depth: int | None,
                         max_rounds: int) -> pa.Table:
    """Driver-side pointer doubling over a (node, anc, depth=1) frame:
    the SAME frontier-composes-closure recurrence as the distributed
    loop in :func:`tree_closure`, one pandas merge per doubling round."""
    import warnings

    cur_max = 1
    for _ in range(max_rounds):
        if max_depth is not None and cur_max >= max_depth:
            break
        f = R[R["depth"] == cur_max]
        m = f.merge(R, left_on="anc", right_on="node",
                    suffixes=("", "_r"))
        if not len(m):
            break
        new = pd.DataFrame({
            "node": m["node"].to_numpy(np.int64),
            "anc": m["anc_r"].to_numpy(np.int64),
            "depth": (m["depth"].to_numpy(np.int64)
                      + m["depth_r"].to_numpy(np.int64))})
        md = int(new["depth"].max())
        R = pd.concat([R, new], ignore_index=True)
        if md < 2 * cur_max:
            break
        cur_max *= 2
    else:
        warnings.warn(
            f"tree_closure: max_rounds={max_rounds} reached before "
            "fixpoint (cycle, or deeper than 2^max_rounds); returning "
            "the partial closure")
    if max_depth is not None:
        R = R[R["depth"] <= max_depth]
    return pa.table({"node": pa.array(R["node"].to_numpy(np.int64)),
                     "anc": pa.array(R["anc"].to_numpy(np.int64)),
                     "depth": pa.array(R["depth"].to_numpy(np.int64))})


def tree_closure(
    edges: ray.data.Dataset,
    node_col: str,
    parent_col: str,
    *,
    max_depth: int | None = None,
    max_rounds: int = 20,
    n_buckets: int | None = None,
    driver_edge_cap: int = 200_000,
) -> ray.data.Dataset:
    """Transitive ancestor closure of a FOREST (each node has at most
    one parent): every (node, ancestor, depth >= 1) pair -- the
    hierarchy-flattening primitive behind org-chart rollups, BOM
    explosion and category-tree denormalization, the distributed
    equivalent of a ``WITH RECURSIVE`` ancestor CTE.

    Scale design: pointer DOUBLING, not per-level iteration -- round k
    composes the frontier (pairs at depth exactly 2^k, at most one per
    node) with the full closure-so-far via one tagged hash(key)
    co-partition, producing every pair at depth (2^k, 2^(k+1)] exactly
    once (the first-2^k-steps decomposition is unique on a forest, so
    NO dedup exchange is needed).  Depth-D closure finishes in
    ceil(log2 D) rounds; total bytes exchanged ~ 2x the output.  The
    loop stops at fixpoint (observed max depth short of the next
    frontier), at ``max_depth`` (output filtered back to the cap), or
    at ``max_rounds`` with a warning (returning the partial closure).
    Self-loops are dropped; duplicate edges collapse in one distinct
    exchange up front.  Cycles (non-forest input) would never fixpoint
    -- they hit max_rounds; multi-parent nodes (a DAG) violate the
    unique-decomposition contract and must be routed to a dedup'ing
    variant instead.

    ``driver_edge_cap``: forests whose deduped edge set fits the cap
    run the SAME doubling recurrence in one pandas process (per-round
    co-partitions are pure fixed cost at toy scale); larger forests
    take the distributed loop.  Parity pinned by tests/test_ops.py.
    NOTE the closure OUTPUT can exceed the edge count (sum of depths);
    a pathological 200k-deep chain is quadratic in EITHER path."""
    import warnings

    from ci_log_processing_ray.ops.window import (bucketed_distinct,
                                                  bucketed_groups,
                                                  resolve_group_buckets)

    # bound the closure's block count each round: unions + the
    # count-preserving map_groups reduce would otherwise ~3x the block
    # count per doubling round, melting the driver's all-to-all
    # bookkeeping (see the ktruss note); one split/merge repartition
    # per round resets it
    n_part = resolve_group_buckets(n_buckets)

    def canon(t: pa.Table) -> pa.Table:
        n = t[node_col].combine_chunks().cast(pa.int64())
        p = t[parent_col].combine_chunks().cast(pa.int64())
        return pa.table({"node": n, "anc": p}).filter(
            pc.invert(pc.equal(n, p)))

    def with_depth(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"].combine_chunks().cast(pa.int64()),
            "anc": t["anc"].combine_chunks().cast(pa.int64()),
            "depth": pa.array(np.ones(len(t), np.int64))})

    empty = pa.table({"node": pa.array([], pa.int64()),
                      "anc": pa.array([], pa.int64()),
                      "depth": pa.array([], pa.int64())})

    base = bucketed_distinct(
        edges.map_batches(canon, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["node", "anc"], n_buckets=n_buckets)
    R = base.map_batches(with_depth,
                         batch_format="pyarrow").materialize()
    n_rows = R.count()
    if n_rows == 0:
        return ray.data.from_arrow(empty)
    if n_rows <= driver_edge_cap:
        return ray.data.from_arrow(_tree_closure_driver(
            R.to_pandas(), max_depth=max_depth, max_rounds=max_rounds))

    cur_max = 1
    for rnd in range(max_rounds):
        # size each round's exchange from the KNOWN closure row count
        # (union input <= 2 * |R|); the default 2*CPU bucket count is
        # pure per-task fixed cost on small frontiers
        nb_round = resolve_group_buckets(n_buckets,
                                         input_rows=2 * n_rows)
        if max_depth is not None and cur_max >= max_depth:
            break

        def tag_f(t: pa.Table, cm: int = cur_max) -> pa.Table:
            f = t.filter(pc.equal(t["depth"], pa.scalar(cm, pa.int64())))
            return pa.table({
                "key": f["anc"], "a": f["node"], "d": f["depth"],
                "side": pa.array(np.zeros(len(f), np.int8))})

        def tag_r(t: pa.Table) -> pa.Table:
            return pa.table({
                "key": t["node"], "a": t["anc"], "d": t["depth"],
                "side": pa.array(np.ones(len(t), np.int8))})

        unioned = R.map_batches(
            tag_f, batch_format="pyarrow", zero_copy_batch=True
        ).union(R.map_batches(tag_r, batch_format="pyarrow",
                              zero_copy_batch=True))

        def kern(g: pd.DataFrame) -> pd.DataFrame:
            s = g["side"].to_numpy()
            f = g[s == 0]
            r = g[s == 1]
            if not len(f) or not len(r):
                return pd.DataFrame({
                    "node": pd.Series([], dtype=np.int64),
                    "anc": pd.Series([], dtype=np.int64),
                    "depth": pd.Series([], dtype=np.int64)})
            m = f[["key", "a", "d"]].merge(
                r[["key", "a", "d"]].rename(
                    columns={"a": "a2", "d": "d2"}), on="key")
            return pd.DataFrame({
                "node": m["a"].to_numpy(np.int64),
                "anc": m["a2"].to_numpy(np.int64),
                "depth": (m["d"].to_numpy(np.int64)
                          + m["d2"].to_numpy(np.int64))})

        new = bucketed_groups(unioned, "key", kern,
                              n_buckets=nb_round).map_batches(
            lambda t: t, batch_format="pyarrow").materialize()
        n_new = new.count()
        if n_new == 0:
            break
        md = int(new.max("depth"))
        n_rows += n_new
        R = R.union(new).repartition(
            min(n_part, nb_round)).materialize()
        if md < 2 * cur_max:
            break
        cur_max *= 2
    else:
        warnings.warn(
            f"tree_closure: max_rounds={max_rounds} reached before "
            "fixpoint (cycle, or deeper than 2^max_rounds); returning "
            "the partial closure")
    if max_depth is not None:
        R = R.map_batches(
            lambda t, md=max_depth: t.filter(
                pc.less_equal(t["depth"], pa.scalar(md, pa.int64()))),
            batch_format="pyarrow", zero_copy_batch=True)
    return R


def tree_stats(
    edges: ray.data.Dataset,
    node_col: str,
    parent_col: str,
    *,
    max_rounds: int = 20,
    n_buckets: int | None = None,
    driver_edge_cap: int = 200_000,
) -> ray.data.Dataset:
    """Per-node hierarchy analytics over a FOREST edge table: for every
    node appearing in the edges, its depth below its root (root = 0),
    its root's id, and its subtree size (itself + all descendants) --
    the org-chart / category-tree rollup triple, exact in int64.

    Scale shape: one :func:`tree_closure` (pointer doubling,
    ceil(log2 D) co-partition rounds), then three node-shaped bucketed
    exchanges -- (1) per-node argmax-depth over the closure gives
    (depth, root), (2) per-ancestor descendant counts, pre-shrunk to
    per-block partials inside ``map_batches`` before the exchange,
    (3) one tagged co-partition stitches universe + depth/root +
    counts, defaulting roots to (depth 0, root self, size 1 + count)."""
    from ci_log_processing_ray.ops.window import (bucketed_distinct,
                                                  bucketed_groups,
                                                  bucketed_sum,
                                                  resolve_group_buckets)

    clo = tree_closure(edges, node_col, parent_col,
                       max_rounds=max_rounds, n_buckets=n_buckets,
                       driver_edge_cap=driver_edge_cap).materialize()
    n_clo = clo.count()
    if n_clo <= driver_edge_cap:
        # closure fits the cap: the three node-shaped exchanges are
        # pure fixed cost -- same stitch math, one pandas process
        # (parity pinned by tests/test_ops.py)
        R = clo.to_pandas()
        ew = edges.map_batches(
            lambda t: pa.table({
                "n": t[node_col].combine_chunks().cast(pa.int64()),
                "p": t[parent_col].combine_chunks().cast(pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True).to_pandas()
        ew = ew[ew["n"] != ew["p"]]
        universe = np.unique(np.concatenate(
            [ew["n"].to_numpy(np.int64), ew["p"].to_numpy(np.int64)]))
        if len(R):
            top = R.sort_values(["node", "depth"],
                                kind="mergesort").drop_duplicates(
                "node", keep="last")
            dmap = top.set_index("node")
            cnt = R.groupby("anc").size()
        else:
            dmap = pd.DataFrame({"depth": [], "anc": []})
            cnt = pd.Series(dtype=np.int64)
        d = dmap["depth"].reindex(universe, fill_value=0) \
            .to_numpy(np.int64) if len(R) else np.zeros(
            len(universe), np.int64)
        r_raw = dmap["anc"].reindex(universe).to_numpy() if len(R) \
            else np.full(len(universe), np.nan)
        r = np.where(pd.isna(r_raw), universe,
                     pd.Series(r_raw).fillna(0).to_numpy(np.int64))
        c = cnt.reindex(universe, fill_value=0).to_numpy(np.int64) \
            if len(R) else np.zeros(len(universe), np.int64)
        return ray.data.from_arrow(pa.table({
            "node": pa.array(universe),
            "depth": pa.array(d),
            "root": pa.array(r.astype(np.int64)),
            "subtree_size": pa.array(1 + c)}))
    # size the downstream node-shaped exchanges from the KNOWN closure
    # row count (free: clo is materialized) -- see resolve_group_buckets
    n_buckets = resolve_group_buckets(n_buckets, input_rows=n_clo)

    def dkern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["node", "depth"], kind="mergesort")
        top = g.drop_duplicates("node", keep="last")
        return pd.DataFrame({
            "key": top["node"].to_numpy(np.int64),
            "d": top["depth"].to_numpy(np.int64),
            "r": top["anc"].to_numpy(np.int64)})

    d1 = bucketed_groups(clo, "node", dkern, n_buckets=n_buckets)

    def count_partial(t: pa.Table) -> pa.Table:
        g = (pa.table({"key": t["anc"]})
             .group_by(["key"]).aggregate([([], "count_all")]))
        return g.rename_columns(["key", "c"])

    d2 = bucketed_sum(
        clo.map_batches(count_partial, batch_format="pyarrow",
                        zero_copy_batch=True),
        ["key"], ["c"], n_buckets=n_buckets)

    def uni_partial(t: pa.Table) -> pa.Table:
        n = t[node_col].combine_chunks().cast(pa.int64())
        p = t[parent_col].combine_chunks().cast(pa.int64())
        keep = pc.invert(pc.equal(n, p))
        both = pa.concat_arrays([n.filter(keep), p.filter(keep)])
        return pa.table({"key": both.unique()})

    u = bucketed_distinct(
        edges.map_batches(uni_partial, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["key"], n_buckets=n_buckets)

    def tag(side: int, with_dr: bool, with_c: bool):
        def t(g: pd.DataFrame) -> pd.DataFrame:
            z = np.zeros(len(g), np.int64)
            return pd.DataFrame({
                "key": g["key"].to_numpy(np.int64),
                "d": g["d"].to_numpy(np.int64) if with_dr else z,
                "r": g["r"].to_numpy(np.int64) if with_dr else z,
                "c": g["c"].to_numpy(np.int64) if with_c else z,
                "side": np.full(len(g), side, np.int8)})
        return t

    unioned = (u.map_batches(tag(0, False, False),
                             batch_format="pandas")
               .union(d1.map_batches(tag(1, True, False),
                                     batch_format="pandas"))
               .union(d2.map_batches(tag(2, False, True),
                                     batch_format="pandas")))

    def stitch(g: pd.DataFrame) -> pd.DataFrame:
        s = g["side"].to_numpy()
        un = g[s == 0][["key"]]
        m1 = g[s == 1][["key", "d", "r"]]
        m2 = g[s == 2][["key", "c"]]
        out = un.merge(m1, on="key", how="left").merge(
            m2, on="key", how="left")
        key = out["key"].to_numpy(np.int64)
        d = out["d"].fillna(0).to_numpy(np.int64)
        have_r = out["r"].notna().to_numpy()
        r = np.where(have_r, out["r"].fillna(0).to_numpy(np.int64), key)
        c = out["c"].fillna(0).to_numpy(np.int64)
        return pd.DataFrame({"node": key, "depth": d, "root": r,
                             "subtree_size": 1 + c})

    return bucketed_groups(unioned, "key", stitch, n_buckets=n_buckets)


def component_stats(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    *,
    n_buckets: int | None = None,
    driver_edge_cap: int = 400_000,
) -> ray.data.Dataset:
    """Per-connected-component profile: (component = min node id,
    n_nodes, n_edges, cyclomatic = n_edges - n_nodes + 1) -- the
    cluster-shape report behind dedup-cluster audits and graph-quality
    gates (cyclomatic 0 = tree, >0 = that many independent cycles).

    Scale shape: one :func:`connected_components` labeling (two-phase
    local contraction), then the canonical distinct edge set joins its
    LOWER endpoint's label in one tagged hash(node) co-partition (both
    endpoints share a label by construction, so one endpoint suffices
    and edges move once); per-component node and edge counts pre-shrink
    to per-block partials before their bucketed sums, and a final
    component-shaped co-partition stitches the triple."""
    from ci_log_processing_ray.ops.window import (bucketed_distinct,
                                                  bucketed_groups,
                                                  bucketed_sum)

    em = edges.map_batches(
        lambda t: pa.table({
            "u": t[src_col].combine_chunks().cast(pa.int64()),
            "v": t[dst_col].combine_chunks().cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    if em.count() <= driver_edge_cap:
        # driver path: same min-label CC kernel + exact counts in one
        # process (parity pinned by
        # tests/test_ops.py::test_component_stats_driver_parity)
        eb = em.to_pandas()
        u = eb["u"].to_numpy(np.int64)
        v = eb["v"].to_numpy(np.int64)
        nodes, roots = _local_cc_labels(u, v)
        n_per = pd.Series(roots).value_counts().sort_index()
        keep = u != v
        a = np.minimum(u[keep], v[keep])
        b = np.maximum(u[keep], v[keep])
        de = np.unique(np.stack([a, b], axis=1), axis=0)
        ecomp = roots[np.searchsorted(nodes, de[:, 0])]
        e_per = pd.Series(ecomp).value_counts().sort_index()
        comp = n_per.index.to_numpy(np.int64)
        n = n_per.to_numpy(np.int64)
        e = e_per.reindex(n_per.index, fill_value=0).to_numpy(np.int64)
        return ray.data.from_arrow(pa.table({
            "component": pa.array(comp),
            "n_nodes": pa.array(n),
            "n_edges": pa.array(e),
            "cyclomatic": pa.array(e - n + 1)}))

    labels = connected_components(em, "u", "v",
                                  n_buckets=n_buckets).materialize()
    # node-shaped downstream exchanges: size from the KNOWN label count
    from ci_log_processing_ray.ops.window import \
        resolve_group_buckets as _rgb
    n_buckets = _rgb(n_buckets, input_rows=4 * labels.count())

    def canon(t: pa.Table) -> pa.Table:
        s = t[src_col].combine_chunks().to_numpy(zero_copy_only=False)
        d = t[dst_col].combine_chunks().to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({"a": pa.array(np.minimum(s, d)),
                         "b": pa.array(np.maximum(s, d))})

    dedup_edges = bucketed_distinct(
        edges.map_batches(canon, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["a", "b"], n_buckets=n_buckets)

    def tag_lab(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": g["node"].to_numpy(np.int64),
            "comp": g["component"].to_numpy(np.int64),
            "side": np.zeros(len(g), np.int8)})

    def tag_edge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": g["a"].to_numpy(np.int64),
            "comp": np.zeros(len(g), np.int64),
            "side": np.ones(len(g), np.int8)})

    unioned = labels.map_batches(
        tag_lab, batch_format="pandas").union(
        dedup_edges.map_batches(tag_edge, batch_format="pandas"))

    def edge_comp_kern(g: pd.DataFrame) -> pd.DataFrame:
        s = g["side"].to_numpy()
        lab = g[s == 0]
        eg = g[s == 1]
        if not len(eg) or not len(lab):
            return pd.DataFrame({
                "comp": pd.Series([], dtype=np.int64),
                "e": pd.Series([], dtype=np.int64)})
        m = eg[["key"]].merge(lab[["key", "comp"]], on="key")
        out = m.groupby("comp", as_index=False).size()
        return pd.DataFrame({"comp": out["comp"].to_numpy(np.int64),
                             "e": out["size"].to_numpy(np.int64)})

    e_counts = bucketed_sum(
        bucketed_groups(unioned, "key", edge_comp_kern,
                        n_buckets=n_buckets),
        ["comp"], ["e"], n_buckets=n_buckets)

    def node_partial(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("component", as_index=False).size()
        return pd.DataFrame({"comp": out["component"].to_numpy(np.int64),
                             "n": out["size"].to_numpy(np.int64)})

    n_counts = bucketed_sum(
        labels.map_batches(node_partial, batch_format="pandas"),
        ["comp"], ["n"], n_buckets=n_buckets)

    def tag_n(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "comp": g["comp"].to_numpy(np.int64),
            "n": g["n"].to_numpy(np.int64),
            "e": np.zeros(len(g), np.int64)})

    def tag_e(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "comp": g["comp"].to_numpy(np.int64),
            "n": np.zeros(len(g), np.int64),
            "e": g["e"].to_numpy(np.int64)})

    both = n_counts.map_batches(tag_n, batch_format="pandas").union(
        e_counts.map_batches(tag_e, batch_format="pandas"))

    def stitch(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("comp", as_index=False)[["n", "e"]].sum()
        n = out["n"].to_numpy(np.int64)
        e = out["e"].to_numpy(np.int64)
        return pd.DataFrame({
            "component": out["comp"].to_numpy(np.int64),
            "n_nodes": n, "n_edges": e, "cyclomatic": e - n + 1})

    return bucketed_groups(both, "comp", stitch, n_buckets=n_buckets)


def dbscan_grid(
    ds: ray.data.Dataset,
    id_col: str,
    x_col: str,
    y_col: str,
    *,
    eps: int,
    min_pts: int,
    n_buckets: int | None = None,
    driver_point_cap: int = 6000,
) -> ray.data.Dataset:
    """Distributed DBSCAN over INTEGER 2-D coordinates via the classic
    eps-grid partitioning (Ester et al., KDD 1996; the grid/halo
    distribution is the standard MR-DBSCAN shape): density clustering
    with core points (>= ``min_pts`` neighbors within ``eps``,
    COUNTING the point itself), border points (non-core with a core
    neighbor) and noise (``cluster = -1``).

    Determinism contract (shared by the DuckDB oracle): coordinates
    and ``eps`` are int64, every distance test is the exact integer
    ``dx*dx + dy*dy <= eps*eps``; a cluster's label is the MIN core
    id in its core-connectivity component; a border point joins the
    MIN label among its core neighbors' clusters.

    Scale shape: points land in eps-sized grid cells, each point
    replicates to the 3x3 halo of its cell (a bounded 9x exchange --
    the price of never comparing points from far-apart cells), and
    each cell bucket runs one vectorized home x halo merge; per-cell
    work is O(density^2), never all-pairs.  Neighbor counts, core-core
    edges and border-core pairs all come from these cell passes;
    components close through the in-repo two-phase
    :func:`connected_components` (self-loop edges keep isolated cores
    as singleton clusters), and border labels resolve through a
    node-keyed tagged-union co-partition + bucketed min -- no
    broadcast of the (corpus-sized) core set or label map.  Output:
    (id_col, cluster, is_core), all int64.
    """
    from .window import bucketed_groups

    _SENT = np.int64(1) << 62

    if ds.count() <= driver_point_cap:
        # driver path: exact blockwise O(n^2) with the IDENTICAL
        # determinism contract (min-core-id labels, min-label borders);
        # the output is a unique function of the input, so parity is
        # structural (pinned by
        # tests/test_ops.py::test_dbscan_driver_parity).
        pts = ds.to_pandas()
        ids = pts[id_col].to_numpy(np.int64)
        x = pts[x_col].to_numpy(np.int64)
        y = pts[y_col].to_numpy(np.int64)
        n, eps2, B = len(ids), eps * eps, 2048
        cnt = np.zeros(n, np.int64)
        for s in range(0, n, B):
            d2 = ((x[s:s + B, None] - x[None, :]) ** 2
                  + (y[s:s + B, None] - y[None, :]) ** 2)
            cnt[s:s + B] = (d2 <= eps2).sum(axis=1)
        core = cnt >= min_pts
        ci = np.flatnonzero(core)
        cid = ids[ci]
        es, ed = [cid], [cid]  # self-loops keep isolated cores
        for s in range(0, len(ci), B):
            blk = ci[s:s + B]
            d2 = ((x[blk, None] - x[None, ci]) ** 2
                  + (y[blk, None] - y[None, ci]) ** 2)
            ii, jj = np.nonzero(d2 <= eps2)
            a, b = ids[blk[ii]], cid[jj]
            keep = a < b
            es.append(a[keep])
            ed.append(b[keep])
        nodes, roots = _local_cc_labels(np.concatenate(es),
                                        np.concatenate(ed))
        bi = np.flatnonzero(~core)
        blab = np.full(len(bi), _SENT, np.int64)
        for s in range(0, len(bi), B):
            blk = bi[s:s + B]
            d2 = ((x[blk, None] - x[None, ci]) ** 2
                  + (y[blk, None] - y[None, ci]) ** 2)
            near = d2 <= eps2
            lab = roots[np.searchsorted(nodes, cid)]
            lm = np.where(near, lab[None, :], _SENT)
            blab[s:s + B] = (lm.min(axis=1) if len(ci)
                             else np.full(len(blk), _SENT, np.int64))
        return ray.data.from_arrow(pa.table({
            id_col: pa.array(np.concatenate([ids[ci], ids[bi]])),
            "cluster": pa.array(np.concatenate(
                [roots[np.searchsorted(nodes, cid)],
                 np.where(blab == _SENT, -1, blab)])),
            "is_core": pa.array(np.concatenate(
                [np.ones(len(ci), np.int64),
                 np.zeros(len(bi), np.int64)]))}))

    def _cells(t: pa.Table) -> pa.Table:
        """Home row + 9 halo rows per point (role 0 = home)."""
        ids = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        x = t[x_col].combine_chunks().to_numpy(zero_copy_only=False)
        y = t[y_col].combine_chunks().to_numpy(zero_copy_only=False)
        core = (t["is_core"].combine_chunks()
                .to_numpy(zero_copy_only=False)
                if "is_core" in t.column_names
                else np.zeros(len(ids), np.int64))
        cx, cy = x // eps, y // eps
        n = len(ids)
        offs = np.array([(dx, dy) for dx in (-1, 0, 1)
                         for dy in (-1, 0, 1)], np.int64)
        hx = np.repeat(cx, 9) + np.tile(offs[:, 0], n)
        hy = np.repeat(cy, 9) + np.tile(offs[:, 1], n)
        cell_h = (hx << np.int64(32)) | (hy & np.int64(0xFFFFFFFF))
        cell_0 = (cx << np.int64(32)) | (cy & np.int64(0xFFFFFFFF))
        rep = lambda a: np.repeat(a, 9)  # noqa: E731
        return pa.table({
            "cell": np.concatenate([cell_0, cell_h]),
            "role": np.concatenate([np.zeros(n, np.int64),
                                    np.ones(9 * n, np.int64)]),
            "pid": np.concatenate([ids, rep(ids)]),
            "px": np.concatenate([x, rep(x)]),
            "py": np.concatenate([y, rep(y)]),
            "pcore": np.concatenate([core, rep(core)])})

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        """home x halo rows within eps, vectorized across the bucket."""
        home = g[g["role"] == 0]
        halo = g[g["role"] == 1]
        m = home.merge(halo, on="cell", suffixes=("", "_h"))
        dx = m["px"].to_numpy() - m["px_h"].to_numpy()
        dy = m["py"].to_numpy() - m["py_h"].to_numpy()
        return m[dx * dx + dy * dy <= eps * eps]

    # ---- pass 1: neighbor counts -> core flags (coords carried) ----
    def count_kern(g: pd.DataFrame) -> pd.DataFrame:
        m = _pairs(g)
        cnt = (m.groupby("pid", sort=False)
               .agg(x=("px", "first"), y=("py", "first"),
                    c=("pid_h", "size")).reset_index())
        out = pd.DataFrame({
            id_col: cnt["pid"].to_numpy(np.int64),
            x_col: cnt["x"].to_numpy(np.int64),
            y_col: cnt["y"].to_numpy(np.int64),
            "is_core": (cnt["c"].to_numpy() >= min_pts)
            .astype(np.int64)})
        return out

    flagged = bucketed_groups(
        ds.map_batches(
            lambda t: _cells(t.select([id_col, x_col, y_col])),
            batch_format="pyarrow", zero_copy_batch=True),
        "cell", count_kern, n_buckets=n_buckets).materialize()

    # ---- pass 2: core-core edges + border-core candidate pairs ----
    def edge_kern(g: pd.DataFrame) -> pd.DataFrame:
        m = _pairs(g)
        a = m["pid"].to_numpy(np.int64)
        b = m["pid_h"].to_numpy(np.int64)
        ac = m["pcore"].to_numpy() == 1
        bc = m["pcore_h"].to_numpy() == 1
        ee = ac & bc & (a < b)
        self_loop = ac & (a == b)  # keeps isolated cores
        bp = ~ac & bc
        edges = pd.DataFrame({
            "src": np.concatenate([a[ee], a[self_loop]]),
            "dst": np.concatenate([b[ee], a[self_loop]]),
            "tag": np.int64(0)})
        # border fallback sentinel once per non-core home point
        nc = m[~ac].drop_duplicates("pid")
        cand = pd.DataFrame({
            "src": np.concatenate([a[bp],
                                   nc["pid"].to_numpy(np.int64)]),
            "dst": np.concatenate([b[bp], np.full(len(nc), -1,
                                                  np.int64)]),
            "tag": np.int64(1)})
        return pd.concat([edges, cand], ignore_index=True)

    tagged = bucketed_groups(
        flagged.map_batches(_cells, batch_format="pyarrow",
                            zero_copy_batch=True),
        "cell", edge_kern, n_buckets=n_buckets).materialize()

    def pick(tag: int, cols: dict[str, str]):
        def kern(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["tag"].combine_chunks(), tag))
            return pa.table({new: t[old] for old, new in cols.items()})
        return kern

    edges = tagged.map_batches(
        pick(0, {"src": "src", "dst": "dst"}), batch_format="pyarrow")
    labels = connected_components(edges, "src", "dst",
                                  n_buckets=n_buckets)

    # ---- border labels: node-keyed tagged-union co-partition ----
    lab_rows = labels.map_batches(
        lambda t: pa.table({"key": t["node"], "val": t["component"],
                            "side": pa.array(
                                np.zeros(t.num_rows, np.int64))}),
        batch_format="pyarrow")
    pair_rows = tagged.map_batches(
        pick(1, {"dst": "key", "src": "val"}),
        batch_format="pyarrow").map_batches(
        lambda t: t.append_column(
            "side", pa.array(np.ones(t.num_rows, np.int64))),
        batch_format="pyarrow")

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        lmap = g[g["side"] == 0]
        pr = g[g["side"] == 1]
        border = pr["val"].to_numpy(np.int64)   # border point id
        keys = pr["key"].to_numpy(np.int64)     # core id or -1
        lk = dict(zip(lmap["key"].to_numpy(np.int64),
                      lmap["val"].to_numpy(np.int64)))
        lab = np.where(keys == -1, _SENT,
                       pd.Series(keys).map(lk).fillna(_SENT)
                       .to_numpy(np.int64))
        return pd.DataFrame({"pid": border, "lab": lab})

    def min_kern(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("pid", as_index=False, sort=False)["lab"].min()

    border_min = bucketed_groups(
        bucketed_groups(lab_rows.union(pair_rows), "key", resolve,
                        n_buckets=n_buckets),
        "pid", min_kern, n_buckets=n_buckets)

    core_out = labels.map_batches(
        lambda t: pa.table({
            id_col: t["node"], "cluster": t["component"],
            "is_core": pa.array(np.ones(t.num_rows, np.int64))}),
        batch_format="pyarrow")
    border_out = border_min.map_batches(
        lambda t: pa.table({
            id_col: t["pid"],
            "cluster": pa.array(np.where(
                t["lab"].combine_chunks()
                .to_numpy(zero_copy_only=False) == _SENT, -1,
                t["lab"].combine_chunks()
                .to_numpy(zero_copy_only=False)), pa.int64()),
            "is_core": pa.array(np.zeros(t.num_rows, np.int64))}),
        batch_format="pyarrow")
    return core_out.union(border_out)


def spatial_nn(
    ds: ray.data.Dataset,
    id_col: str,
    x_col: str,
    y_col: str,
    *,
    radius: int,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """2-D nearest-neighbor-within-radius self join over INTEGER
    coordinates (the spatial-join primitive: entity conflation,
    sensor fusion, map matching): each point pairs with the nearest
    OTHER point at exact integer distance ``dx*dx + dy*dy <=
    radius*radius``, ties broken by the smaller neighbor id; points
    with an empty ball are dropped.

    Scale shape: radius-sized grid cells, the same bounded 3x3 halo
    contract as :func:`dbscan_grid` (every candidate within the
    radius lives in the 3x3 neighborhood of the home cell); each cell
    bucket runs one vectorized home x halo merge and collapses to an
    argmin per home point -- per-cell work is O(density^2) and the
    exchange is bounded at 10x the input, never all-pairs.  Output:
    (id_col, nn_id, d2), all int64."""
    from .window import bucketed_groups

    def to_cells(t: pa.Table) -> pa.Table:
        ids = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        x = t[x_col].combine_chunks().to_numpy(zero_copy_only=False)
        y = t[y_col].combine_chunks().to_numpy(zero_copy_only=False)
        cx, cy = x // radius, y // radius
        n = len(ids)
        offs = np.array([(dx, dy) for dx in (-1, 0, 1)
                         for dy in (-1, 0, 1)], np.int64)
        hx = np.repeat(cx, 9) + np.tile(offs[:, 0], n)
        hy = np.repeat(cy, 9) + np.tile(offs[:, 1], n)
        rep = lambda a: np.repeat(a, 9)  # noqa: E731
        return pa.table({
            "cell": np.concatenate([
                (cx << np.int64(32)) | (cy & np.int64(0xFFFFFFFF)),
                (hx << np.int64(32)) | (hy & np.int64(0xFFFFFFFF))]),
            "role": np.concatenate([np.zeros(n, np.int64),
                                    np.ones(9 * n, np.int64)]),
            "pid": np.concatenate([ids, rep(ids)]),
            "px": np.concatenate([x, rep(x)]),
            "py": np.concatenate([y, rep(y)])})

    r2 = radius * radius

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        home = g[g["role"] == 0]
        halo = g[g["role"] == 1]
        m = home.merge(halo, on="cell", suffixes=("", "_h"))
        dx = m["px"].to_numpy() - m["px_h"].to_numpy()
        dy = m["py"].to_numpy() - m["py_h"].to_numpy()
        d2 = dx * dx + dy * dy
        keep = (d2 <= r2) & (m["pid"].to_numpy()
                             != m["pid_h"].to_numpy())
        m = m[keep]
        d = pd.DataFrame({
            id_col: m["pid"].to_numpy(np.int64),
            "nn_id": m["pid_h"].to_numpy(np.int64),
            "d2": d2[keep].astype(np.int64)})
        d = d.sort_values([id_col, "d2", "nn_id"],
                          kind="mergesort").drop_duplicates(id_col)
        return d

    return bucketed_groups(
        ds.map_batches(to_cells, batch_format="pyarrow",
                       zero_copy_batch=True),
        "cell", kern, n_buckets=n_buckets)


def partition_modularity(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    comm: ray.data.Dataset,
    node_col: str,
    comm_col: str,
    *,
    n_buckets: int | None = None,
    driver_edge_cap: int = 400_000,
) -> ray.data.Dataset:
    """Exact per-community modularity sufficient statistics for an
    ARBITRARY partition (the community-quality evaluator: score the
    output of LPA / Louvain / a hash prior without re-clustering).
    For each community c over the simple graph of the given edge rows:
    ``internal_edges`` = edges with both endpoints in c and
    ``degree_sum`` = sum of member degrees.  Newman modularity follows
    exactly as Q * 4m^2 = sum_c (4m * e_c - d_c^2) -- all int64, no
    division in the hash path.

    Scale shape: community labels attach to endpoints through TWO
    node-keyed tagged-union co-partitions (src pass, then dst pass) --
    the label table is never broadcast and never leaves its bucket --
    and each block then collapses to (community, internal, degree)
    partials, so the final combine is community-vocabulary-sized.
    Edges are consumed as given (dedup/canonicalize upstream)."""
    from ray.data.aggregate import Sum

    from .window import bucketed_groups

    em = edges.map_batches(
        lambda t: pa.table({
            "u": t[src_col].combine_chunks().cast(pa.int64()),
            "v": t[dst_col].combine_chunks().cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    if em.count() <= driver_edge_cap:
        # driver path: same label-attach + suffstat math, zero
        # exchanges (parity pinned by
        # tests/test_ops.py::test_modularity_driver_parity)
        eb = em.to_pandas()
        cm = comm.to_pandas().rename(
            columns={node_col: "u", comm_col: "_c"})[["u", "_c"]]
        # LEFT attaches: a labeled endpoint counts toward degree_sum
        # even when the edge's other endpoint is unlabeled (the
        # distributed kern emits those rows with a missing label)
        m = (eb.merge(cm, on="u", how="left")
             .rename(columns={"_c": "c_src", "v": "u2"}))
        m = m.merge(cm.rename(columns={"u": "u2"}), on="u2",
                    how="left").rename(columns={"_c": "c_dst"})
        both = pd.concat([m["c_src"], m["c_dst"]],
                         ignore_index=True).dropna()
        d = both.value_counts().sort_index()
        ints = m.loc[m["c_src"].notna() & (m["c_src"] == m["c_dst"]),
                     "c_src"]
        di = ints.value_counts()
        out = pd.DataFrame({
            "community": d.index.to_numpy(),
            "internal_edges": di.reindex(d.index, fill_value=0)
            .to_numpy(np.int64),
            "degree_sum": d.to_numpy(np.int64)})
        out["community"] = out["community"].astype(eb["u"].dtype
                                                  if cm["_c"].dtype.kind
                                                  in "iu" else
                                                  cm["_c"].dtype)
        return ray.data.from_arrow(pa.Table.from_pandas(
            out, preserve_index=False))

    edges = em.map_batches(
        lambda t: pa.table({src_col: t["u"], dst_col: t["v"]}),
        batch_format="pyarrow")

    def resolve_pass(tagged, carry_cols):
        def kern(g: pd.DataFrame) -> pd.DataFrame:
            lab = g[g["side"] == 0]
            pr = g[g["side"] == 1]
            lk = dict(zip(lab["key"].to_numpy(),
                          lab["c"].to_numpy()))
            out = {c: pr[c].to_numpy() for c in carry_cols}
            out["c"] = pr["key"].map(lk).to_numpy()
            return pd.DataFrame(out)

        return bucketed_groups(tagged, "key", kern,
                               n_buckets=n_buckets)

    lab_rows = comm.map_batches(
        lambda t: pa.table({
            "key": t[node_col], "c": t[comm_col],
            "other": pa.array(np.zeros(t.num_rows, np.int64)),
            "side": pa.array(np.zeros(t.num_rows, np.int64))}),
        batch_format="pyarrow")

    e1 = edges.map_batches(
        lambda t: pa.table({
            "key": t[src_col], "c": pa.array(
                np.zeros(t.num_rows, np.int64)),
            "other": t[dst_col],
            "side": pa.array(np.ones(t.num_rows, np.int64))}),
        batch_format="pyarrow")
    # pass 1: attach c(src); carry dst
    got1 = resolve_pass(lab_rows.union(e1), ["other"])

    e2 = got1.map_batches(
        lambda t: pa.table({
            "key": t["other"], "c": pa.array(
                np.zeros(t.num_rows, np.int64)),
            "other": t["c"],  # c_src rides along
            "side": pa.array(np.ones(t.num_rows, np.int64))}),
        batch_format="pyarrow")
    # pass 2: attach c(dst); carry c_src
    got2 = resolve_pass(lab_rows.union(e2), ["other"])

    def partials(t: pa.Table) -> pa.Table:
        c_src = t["other"].combine_chunks().to_numpy(
            zero_copy_only=False)
        c_dst = t["c"].combine_chunks().to_numpy(zero_copy_only=False)
        both = np.concatenate([c_src, c_dst])
        d = (pd.DataFrame({"community": both})
             .groupby("community", as_index=False, sort=False).size()
             .rename(columns={"size": "degree_sum"}))
        ints = c_src[c_src == c_dst]
        di = (pd.DataFrame({"community": ints})
              .groupby("community", as_index=False, sort=False).size()
              .rename(columns={"size": "internal_edges"}))
        out = d.merge(di, on="community", how="left")
        out["internal_edges"] = (out["internal_edges"].fillna(0)
                                 .astype(np.int64))
        out["degree_sum"] = out["degree_sum"].astype(np.int64)
        return pa.Table.from_pandas(out[["community", "internal_edges",
                                         "degree_sum"]],
                                    preserve_index=False)

    return (got2.map_batches(partials, batch_format="pyarrow")
            .groupby("community")
            .aggregate(Sum("internal_edges",
                           alias_name="internal_edges"),
                       Sum("degree_sum", alias_name="degree_sum")))


WIDEST_SEED_W = np.int64(1) << 62


def widest_paths(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    w_col: str,
    seeds: ray.data.Dataset,
    *,
    n_rounds: int,
    n_buckets: int | None = None,
    broadcast_cap: int = 5_000_000,
    driver_edge_cap: int = 400_000,
) -> ray.data.Dataset:
    """Multi-source WIDEST (bottleneck / max-capacity) paths over the
    undirected weighted graph: for each node, the maximum over paths
    from any seed of the MINIMUM edge weight along the path -- the
    max-min semiring sibling of :func:`bfs_hops` (network capacity,
    strongest-connectivity routing).  Seeds report the sentinel
    ``WIDEST_SEED_W``; nodes unreached within ``n_rounds`` are absent.
    Per-round expansion from the ENTIRE best table and from the
    improved frontier are equivalent under the max fold (expansion is
    monotone and idempotent), so a fixed-round SQL unroll reproduces
    the result exactly.

    Scale shape: same contract as :func:`bfs_hops` -- the frontier
    (node, width) pairs broadcast once per round via ray.put under
    ``broadcast_cap`` and the expansion is a vectorized searchsorted
    gather over the materialized bidirectional edge table (no
    per-round edge re-shuffle); beyond the cap it falls back to the
    node-keyed tagged-union co-partition (the bfs_hops contract), so
    billion-node frontiers never broadcast; the fold is one bucketed
    max kernel
    per round that also emits the improved flag, so the next frontier
    costs no extra exchange.  Returns (node, width), int64."""
    from ci_log_processing_ray.ops.window import bucketed_groups

    ebi = (edges.map_batches(
        lambda t: pa.table({
            "u": pa.concat_arrays([
                t[src_col].combine_chunks().cast(pa.int64()),
                t[dst_col].combine_chunks().cast(pa.int64())]),
            "v": pa.concat_arrays([
                t[dst_col].combine_chunks().cast(pa.int64()),
                t[src_col].combine_chunks().cast(pa.int64())]),
            "w": pa.concat_arrays([
                t[w_col].combine_chunks().cast(pa.int64())] * 2)}),
        batch_format="pyarrow", zero_copy_batch=True)
        .materialize())

    if ebi.count() <= driver_edge_cap:
        # driver fast path: same max-min relaxation, one numpy process
        # (parity pinned by tests/test_ops.py)
        eb = ebi.to_pandas()
        sd = np.unique(seeds.to_pandas()["node"].to_numpy(np.int64))
        u = eb["u"].to_numpy(np.int64)
        nodes, vs, perm, starts, ends = _frontier_csr(
            u, eb["v"].to_numpy(np.int64), sd)
        ws = eb["w"].to_numpy(np.int64)[perm]
        best = np.full(len(nodes), -1, np.int64)  # -1 = unreached
        fpos = np.searchsorted(nodes, sd)
        best[fpos] = WIDEST_SEED_W
        for _ in range(n_rounds):
            idx, lens = _adj_slots(starts, ends, fpos)
            if not len(idx):
                break
            fw = np.repeat(best[fpos], lens)
            cand = np.minimum(fw, ws[idx])
            nbpos = np.searchsorted(nodes, vs[idx])
            order = np.argsort(nbpos, kind="stable")
            sp, sc = nbpos[order], cand[order]
            bnd = np.flatnonzero(np.concatenate(
                [[True], sp[1:] != sp[:-1]]))
            mx = np.maximum.reduceat(sc, bnd)
            tgt = sp[bnd]
            improved = mx > best[tgt]
            best[tgt[improved]] = mx[improved]
            fpos = tgt[improved]
            if not len(fpos):
                break
        hit = best >= 0
        return ray.data.from_arrow(pa.table({
            "node": pa.array(nodes[hit]),
            "width": pa.array(best[hit])}))

    best = (seeds.map_batches(
        lambda t: pa.table({
            "node": t["node"].combine_chunks().cast(pa.int64()),
            "width": pa.array(np.full(len(t), WIDEST_SEED_W,
                                      np.int64)),
            "improved": pa.array(np.ones(len(t), np.int64))}),
        batch_format="pyarrow").materialize())

    # tagged edge table for the beyond-broadcast co-partition path,
    # materialized lazily (broadcast-sized frontiers never pay it)
    _etag_cache: list = []

    def get_etag():
        if not _etag_cache:
            _etag_cache.append(ebi.map_batches(
                lambda t: pa.table({
                    "key": t["u"], "v": t["v"], "w": t["w"],
                    "_side": pa.array(np.zeros(t.num_rows, np.int8))}),
                batch_format="pyarrow").materialize())
        return _etag_cache[0]

    for _ in range(n_rounds):
        frontier = best.filter(expr="improved == 1")
        n_front = frontier.count()
        if n_front == 0:
            break
        # size this round's exchanges from KNOWN table sizes (best is
        # materialized, count is metadata) -- see resolve_group_buckets
        from ci_log_processing_ray.ops.window import \
            resolve_group_buckets as _rgb
        nb_round = _rgb(n_buckets, input_rows=best.count() + n_front)
        if n_front <= broadcast_cap:
            fp = frontier.to_pandas()
            order = np.argsort(fp["node"].to_numpy())
            ref = ray.put((fp["node"].to_numpy(np.int64)[order],
                           fp["width"].to_numpy(np.int64)[order]))

            def expand(t: pa.Table, _ref=ref) -> pa.Table:
                fn, fw = ray.get(_ref)
                u = t["u"].combine_chunks().to_numpy(
                    zero_copy_only=False)
                idx = np.clip(np.searchsorted(fn, u), 0,
                              max(len(fn) - 1, 0))
                hit = (fn[idx] == u if len(fn)
                       else np.zeros(len(u), bool))
                cw = np.minimum(fw[idx],
                                t["w"].combine_chunks().to_numpy(
                                    zero_copy_only=False))[hit]
                return pa.table({
                    "node": t["v"].combine_chunks().to_numpy(
                        zero_copy_only=False)[hit],
                    "width": pa.array(cw, pa.int64()),
                    "improved": pa.array(np.full(hit.sum(), -1,
                                                 np.int64))})

            cand = ebi.map_batches(expand, batch_format="pyarrow",
                                   zero_copy_batch=True)
        else:
            # node-keyed tagged-union co-partition: frontier rows ride
            # (key=node, w=width); each bucket maps width onto its
            # local edges -- the frontier never leaves its bucket
            ftag = frontier.map_batches(
                lambda t: pa.table({
                    "key": t["node"].combine_chunks().cast(pa.int64()),
                    "v": pa.array(np.full(t.num_rows, -1, np.int64)),
                    "w": t["width"].combine_chunks().cast(pa.int64()),
                    "_side": pa.array(np.ones(t.num_rows, np.int8))}),
                batch_format="pyarrow")

            def cp_expand(g: pd.DataFrame) -> pd.DataFrame:
                f = g[g["_side"] == 1]
                e = g[g["_side"] == 0]
                wm = dict(zip(f["key"].to_numpy(), f["w"].to_numpy()))
                hit = e[e["key"].isin(wm)]
                fw = hit["key"].map(wm).to_numpy(np.int64)
                return pd.DataFrame({
                    "node": hit["v"].to_numpy(np.int64),
                    "width": np.minimum(fw,
                                        hit["w"].to_numpy(np.int64)),
                    "improved": np.full(len(hit), -1, np.int64)})

            cand = bucketed_groups(get_etag().union(ftag), "key",
                                   cp_expand, n_buckets=nb_round)

        def fold(g: pd.DataFrame) -> pd.DataFrame:
            old = g[g["improved"] >= 0]
            new = g[g["improved"] < 0]
            om = old.groupby("node", sort=False)["width"].max()
            nm = new.groupby("node", sort=False)["width"].max()
            d = pd.concat([om.rename("old"), nm.rename("new")],
                          axis=1)
            oldv = d["old"].fillna(-1).to_numpy(np.int64)
            newv = d["new"].fillna(-1).to_numpy(np.int64)
            return pd.DataFrame({
                "node": d.index.to_numpy(np.int64),
                "width": np.maximum(oldv, newv),
                "improved": (newv > oldv).astype(np.int64)})

        best = bucketed_groups(best.union(cand), "node", fold,
                               n_buckets=nb_round).materialize()

    return best.map_batches(
        lambda t: t.select(["node", "width"]), batch_format="pyarrow")


def shortest_path_counts(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    seeds: ray.data.Dataset,
    *,
    n_rounds: int,
    n_buckets: int | None = None,
    broadcast_cap: int = 5_000_000,
    driver_edge_cap: int = 400_000,
) -> ray.data.Dataset:
    """Multi-source shortest-path COUNTING over the undirected simple
    graph: (node, hops, paths) where ``paths`` is the exact number of
    distinct shortest paths from the seed set (sigma of the Brandes
    betweenness recursion; seeds count 1 at hop 0).  The counting
    semiring sibling of :func:`bfs_hops` (min-hop) and
    :func:`widest_paths` (max-min): a node settled at hop r sums the
    counts of its hop-(r-1) neighbors, exactly and deterministically
    in int64.  Feed DISTINCT edges -- duplicate rows double-count.

    Scale shape: identical to the siblings -- materialized
    bidirectional edge table, per-round broadcast of the just-settled
    frontier's (node, count) pairs (tagged-union co-partition beyond
    ``broadcast_cap``), vectorized searchsorted gather,
    one bucketed fold per round that settles unseen nodes by summing
    their candidate counts.  Expanding all settled nodes would be
    equivalent (any settled neighbor of an unsettled node is
    necessarily on the last frontier), which is what the fixed-round
    SQL unroll does."""
    from ci_log_processing_ray.ops.window import bucketed_groups

    ebi = (edges.map_batches(
        lambda t: pa.table({
            "u": pa.concat_arrays([
                t[src_col].combine_chunks().cast(pa.int64()),
                t[dst_col].combine_chunks().cast(pa.int64())]),
            "v": pa.concat_arrays([
                t[dst_col].combine_chunks().cast(pa.int64()),
                t[src_col].combine_chunks().cast(pa.int64())])}),
        batch_format="pyarrow", zero_copy_batch=True)
        .materialize())

    if ebi.count() <= driver_edge_cap:
        # driver fast path: the sigma recursion in one numpy process
        # (parity pinned by tests/test_ops.py)
        eb = ebi.to_pandas()
        # seeds must be DISTINCT (same contract as the edge rows; the
        # shipped queries all seed from bucketed_distinct)
        sd = np.unique(seeds.to_pandas()["node"].to_numpy(np.int64))
        nodes, vs, _, starts, ends = _frontier_csr(
            eb["u"].to_numpy(np.int64), eb["v"].to_numpy(np.int64), sd)
        dist = np.full(len(nodes), -1, np.int64)
        paths = np.zeros(len(nodes), np.int64)
        fpos = np.searchsorted(nodes, sd)
        dist[fpos] = 0
        paths[fpos] = 1
        for r in range(1, n_rounds + 1):
            idx, lens = _adj_slots(starts, ends, fpos)
            if not len(idx):
                break
            contrib = np.repeat(paths[fpos], lens)
            nbpos = np.searchsorted(nodes, vs[idx])
            unseen = dist[nbpos] < 0
            if not unseen.any():
                break
            np_, nc = nbpos[unseen], contrib[unseen]
            order = np.argsort(np_, kind="stable")
            sp, sc = np_[order], nc[order]
            bnd = np.flatnonzero(np.concatenate(
                [[True], sp[1:] != sp[:-1]]))
            sums = np.add.reduceat(sc, bnd)
            tgt = sp[bnd]
            dist[tgt] = r
            paths[tgt] = sums
            fpos = tgt
        hit = dist >= 0
        return ray.data.from_arrow(pa.table({
            "node": pa.array(nodes[hit]),
            "hops": pa.array(dist[hit]),
            "paths": pa.array(paths[hit])}))

    best = (seeds.map_batches(
        lambda t: pa.table({
            "node": t["node"].combine_chunks().cast(pa.int64()),
            "hops": pa.array(np.zeros(len(t), np.int64)),
            "paths": pa.array(np.ones(len(t), np.int64))}),
        batch_format="pyarrow").materialize())

    _etag_cache: list = []

    def get_etag():
        if not _etag_cache:
            _etag_cache.append(ebi.map_batches(
                lambda t: pa.table({
                    "key": t["u"], "v": t["v"],
                    "c": pa.array(np.zeros(t.num_rows, np.int64)),
                    "_side": pa.array(np.zeros(t.num_rows, np.int8))}),
                batch_format="pyarrow").materialize())
        return _etag_cache[0]

    for r in range(n_rounds):
        frontier = best.filter(expr=f"hops == {r}")
        n_front = frontier.count()
        if n_front == 0:
            break
        # size this round's exchanges from KNOWN table sizes (best is
        # materialized, count is metadata) -- see resolve_group_buckets
        from ci_log_processing_ray.ops.window import \
            resolve_group_buckets as _rgb
        nb_round = _rgb(n_buckets, input_rows=best.count() + n_front)
        if n_front <= broadcast_cap:
            fp = frontier.to_pandas()
            order = np.argsort(fp["node"].to_numpy())
            ref = ray.put((fp["node"].to_numpy(np.int64)[order],
                           fp["paths"].to_numpy(np.int64)[order]))

            def expand(t: pa.Table, _r=r, _ref=ref) -> pa.Table:
                fn, fc = ray.get(_ref)
                u = t["u"].combine_chunks().to_numpy(
                    zero_copy_only=False)
                idx = np.clip(np.searchsorted(fn, u), 0,
                              max(len(fn) - 1, 0))
                hit = (fn[idx] == u if len(fn)
                       else np.zeros(len(u), bool))
                return pa.table({
                    "node": t["v"].combine_chunks().to_numpy(
                        zero_copy_only=False)[hit],
                    "hops": pa.array(np.full(int(hit.sum()), _r + 1,
                                             np.int64)),
                    "paths": pa.array(fc[idx][hit], pa.int64())})

            cand = ebi.map_batches(expand, batch_format="pyarrow",
                                   zero_copy_batch=True)
        else:
            # node-keyed tagged-union co-partition (same contract as
            # bfs_hops / widest_paths): frontier (node, paths) rows
            # co-locate with their edges, counts gather per bucket
            ftag = frontier.map_batches(
                lambda t, _r=r: pa.table({
                    "key": t["node"].combine_chunks().cast(pa.int64()),
                    "v": pa.array(np.full(t.num_rows, -1, np.int64)),
                    "c": t["paths"].combine_chunks().cast(pa.int64()),
                    "_side": pa.array(np.ones(t.num_rows, np.int8))}),
                batch_format="pyarrow")

            def cp_expand(g: pd.DataFrame, _r=r) -> pd.DataFrame:
                f = g[g["_side"] == 1]
                e = g[g["_side"] == 0]
                cm = dict(zip(f["key"].to_numpy(), f["c"].to_numpy()))
                hit = e[e["key"].isin(cm)]
                return pd.DataFrame({
                    "node": hit["v"].to_numpy(np.int64),
                    "hops": np.full(len(hit), _r + 1, np.int64),
                    "paths": hit["key"].map(cm).to_numpy(np.int64)})

            cand = bucketed_groups(get_etag().union(ftag), "key",
                                   cp_expand, n_buckets=nb_round)

        def fold(g: pd.DataFrame, _r=r) -> pd.DataFrame:
            settled = g[g["hops"] <= _r]
            new = g[g["hops"] == _r + 1]
            new = new[~new["node"].isin(settled["node"])]
            ns = (new.groupby("node", as_index=False, sort=False)
                  ["paths"].sum())
            ns["hops"] = np.int64(_r + 1)
            out = pd.concat(
                [settled[["node", "hops", "paths"]],
                 ns[["node", "hops", "paths"]]], ignore_index=True)
            out["paths"] = out["paths"].astype(np.int64)
            out["hops"] = out["hops"].astype(np.int64)
            return out

        best = bucketed_groups(best.union(cand), "node", fold,
                               n_buckets=nb_round).materialize()

    return best


def landmark_distances(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    landmarks: "np.ndarray | list[int]",
    *,
    n_rounds: int = 8,
    broadcast_cap: int = 2_000_000,
    driver_edge_cap: int = 400_000,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Per-landmark shortest-hop table over the UNDIRECTED graph --
    the landmark-embedding primitive behind graph feature engineering,
    triangle-inequality distance estimation and harmonic/closeness
    centrality of chosen hubs.  Unlike :func:`bfs_hops` (min hops to
    ANY seed) this tracks (node, landmark, dist) PAIRS: one
    simultaneous multi-source BFS whose state rows are pairs, so a
    node settles once per landmark that reaches it within
    ``n_rounds``.  Returns (node, landmark, dist); landmark self-rows
    carry dist 0; unreached pairs are absent.

    Scale shape: the landmark set is driver-held and SMALL by contract
    (10s-100s -- the standard landmark-embedding regime), so pair
    state is at most nodes x L.  Per round: the frontier (newly
    settled pairs) broadcasts via ``ray.put`` under ``broadcast_cap``
    and expansion is one vectorized searchsorted gather over the
    materialized bidirectional edge table (no per-round edge
    re-shuffle); settling is ONE tagged-union bucketed co-partition
    of candidates against the settled table on the packed
    (node * L + landmark_index) key -- node-pair-shaped, never
    edge-shaped.  Frontiers past ``broadcast_cap`` would route the
    expansion through the same tagged co-partition as bfs_hops; with
    driver-held landmark sets the broadcast path is the designed
    regime, so the cap simply raises.  Bidirectional edge tables
    under ``driver_edge_cap`` run the identical BFS recursion in one
    numpy process (parity pinned by
    tests/test_ops.py::test_landmark_distances_parity)."""
    from ci_log_processing_ray.ops.window import (bucketed_groups,
                                                  resolve_group_buckets)

    lms = np.unique(np.asarray(list(landmarks), dtype=np.int64))
    L = len(lms)
    if L == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "landmark": pa.array([], pa.int64()),
            "dist": pa.array([], pa.int64())}))
    user_buckets = n_buckets

    ebi = (edges.map_batches(
        lambda t: pa.table({"u": pa.concat_arrays([
            t[src_col].combine_chunks().cast(pa.int64()),
            t[dst_col].combine_chunks().cast(pa.int64())]),
            "v": pa.concat_arrays([
                t[dst_col].combine_chunks().cast(pa.int64()),
                t[src_col].combine_chunks().cast(pa.int64())])}),
        batch_format="pyarrow", zero_copy_batch=True)
        .materialize())

    if ebi.count() <= driver_edge_cap:
        eb = ebi.to_pandas()
        u = eb["u"].to_numpy(np.int64)
        v = eb["v"].to_numpy(np.int64)
        nodes, vs, _, starts, ends = _frontier_csr(u, v, lms)
        out_n, out_l, out_d = [], [], []
        for lm in lms:
            dist = np.full(len(nodes), -1, np.int64)
            fpos = np.searchsorted(nodes, np.array([lm], np.int64))
            dist[fpos] = 0
            for r in range(1, n_rounds + 1):
                idx, _ = _adj_slots(starts, ends, fpos)
                if not len(idx):
                    break
                nbpos = np.unique(np.searchsorted(nodes, vs[idx]))
                new = nbpos[dist[nbpos] < 0]
                if not len(new):
                    break
                dist[new] = r
                fpos = new
            hit = dist >= 0
            out_n.append(nodes[hit])
            out_l.append(np.full(int(hit.sum()), lm, np.int64))
            out_d.append(dist[hit])
        return ray.data.from_arrow(pa.table({
            "node": pa.array(np.concatenate(out_n)),
            "landmark": pa.array(np.concatenate(out_l)),
            "dist": pa.array(np.concatenate(out_d))}))

    seed = pa.table({
        "node": pa.array(lms), "landmark": pa.array(lms),
        "dist": pa.array(np.zeros(L, np.int64))})
    # settled accumulates as RAW Arrow block refs: a per-round
    # union(...).materialize() chain RE-EXECUTES its whole history
    # (measured: union cost doubled every round at 4M edges), while
    # from_arrow_refs carries zero lineage -- blocks stay in the
    # object store and the dataset rebuilds from refs each round.
    settled_refs = [ray.put(seed)]
    settled = ray.data.from_arrow_refs(list(settled_refs))
    frontier = settled
    n_front = L

    for _r in range(n_rounds):
        if n_front == 0:
            break
        # pair-state exchanges are frontier-sized: size the bucket
        # count from the KNOWN frontier (the resolve_group_buckets
        # small-input branch) so toy frontiers don't pay cluster-width
        # per-task fixed costs
        nb_round = resolve_group_buckets(user_buckets,
                                         input_rows=4 * n_front)
        if n_front > broadcast_cap:
            raise RuntimeError(
                "landmark_distances: frontier exceeded broadcast_cap "
                f"({n_front} > {broadcast_cap}) -- raise the cap "
                "(landmark pair frontiers are nodes x L shaped by "
                "contract)")
        fdf = frontier.to_pandas()
        order = np.argsort(fdf["node"].to_numpy(np.int64),
                           kind="mergesort")
        fn = fdf["node"].to_numpy(np.int64)[order]
        fl = fdf["landmark"].to_numpy(np.int64)[order]
        fu = np.unique(fn)
        fstarts = np.searchsorted(fn, fu)
        fends = np.searchsorted(fn, fu, side="right")
        ref = ray.put((fu, fstarts, fends, fl))

        def expand(t: pa.Table, _r=_r, _ref=ref) -> pa.Table:
            fu_, fs_, fe_, fl_ = ray.get(_ref)
            u_ = t["u"].combine_chunks().to_numpy()
            v_ = t["v"].combine_chunks().to_numpy()
            pos = np.searchsorted(fu_, u_)
            pos[pos >= len(fu_)] = 0
            hit = fu_[pos] == u_
            if not hit.any():
                return pa.table({
                    "node": pa.array([], pa.int64()),
                    "landmark": pa.array([], pa.int64()),
                    "dist": pa.array([], pa.int64())})
            hp, hv = pos[hit], v_[hit]
            idx, lens = _adj_slots(fs_, fe_, hp)
            cand = pa.table({
                "node": pa.array(np.repeat(hv, lens)),
                "landmark": pa.array(fl_[idx]),
                "dist": pa.array(np.full(int(lens.sum()), _r + 1,
                                         np.int64))})
            # in-block dedup shrinks the exchange
            g = (cand.group_by(["node", "landmark"])
                 .aggregate([("dist", "min")]))
            return pa.table({"node": g["node"],
                             "landmark": g["landmark"],
                             "dist": g["dist_min"]})

        cand_ds = ebi.map_batches(expand, batch_format="pyarrow",
                                  zero_copy_batch=True)

        def keyed(side: int):
            def f(t: pa.Table) -> pa.Table:
                n_ = t["node"].combine_chunks().to_numpy()
                l_ = t["landmark"].combine_chunks().to_numpy()
                li = np.searchsorted(lms, l_)  # lms sorted unique
                return pa.table({
                    "key": pa.array(n_ * L + li),
                    "node": pa.array(n_),
                    "landmark": pa.array(l_),
                    "dist": t["dist"],
                    "_side": pa.array(np.full(len(n_), side, np.int8))})
            return f

        tagged = (settled.map_batches(keyed(0), batch_format="pyarrow")
                  .union(cand_ds.map_batches(keyed(1),
                                             batch_format="pyarrow")))

        def settle(g: pd.DataFrame) -> pd.DataFrame:
            have = set(g.loc[g["_side"] == 0, "key"])
            new = g[(g["_side"] == 1) & ~g["key"].isin(have)]
            new = new.drop_duplicates("key")
            return new[["node", "landmark", "dist"]]

        new_tbls = [
            b for b in bucketed_groups(tagged, "key", settle,
                                       n_buckets=nb_round)
            .iter_batches(batch_format="pyarrow") if len(b)]
        n_front = sum(len(b) for b in new_tbls)
        if n_front:
            # one compacted Arrow block per round (frontier-sized by
            # construction: <= nodes-reached-this-round x L_local)
            blk = pa.concat_tables(new_tbls)
            ref = ray.put(blk)
            settled_refs.append(ref)
            frontier = ray.data.from_arrow_refs([ref])
            settled = ray.data.from_arrow_refs(list(settled_refs))

    return settled


def stress_centrality(
    edges: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    sources: "np.ndarray | list[int]",
    *,
    n_rounds: int = 8,
    driver_edge_cap: int = 400_000,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Sampled-source STRESS centrality over the UNDIRECTED graph --
    Brandes' two-sweep shape with exact-INTEGER accumulation (stress
    = number of shortest s-t paths through v, the integer sibling of
    betweenness; betweenness divides by sigma_st and leaves the exact
    contract).  For the driver-held source sample S and hop radius
    ``n_rounds``:

        stress(v) = sum_{s in S} sigma_sv * P_s(v),  v != s,

    where sigma_sv counts shortest s-v paths and P_s(v) counts
    directed paths of length >= 1 from v in the s-shortest-path DAG
    (every such path reaches a t with v on an s-t shortest path, so
    sigma_sv * P_s(v) = sum_t sigma_st(v) restricted to d(s,t) <=
    n_rounds -- the truncated-stress contract the oracle states as
    triple counting).

    Scale shape (both sweeps reuse :func:`landmark_distances`'s
    pair-state loop, including its lessons: settled state accumulates
    as raw Arrow block refs -- per-round union().materialize() chains
    re-execute their history -- and every pair-shaped exchange sizes
    its buckets from the KNOWN frontier count):

    * forward: per round, the (node, src, sigma) frontier broadcasts
      via ``ray.put`` and ONE vectorized gather over the materialized
      bidirectional edge table emits sigma partials to neighbors; a
      pair-keyed tagged-union co-partition sums partials and settles
      unseen pairs at dist r+1;
    * backward: levels descend from the deepest settled distance; the
      level-(d+1) pair table (node -> src, 1 + P) broadcasts together
      with the SORTED level-d pair-key set, and the same edge gather
      emits contributions FILTERED in-kernel to pairs at level d (the
      DAG-edge condition dist(u) == dist(v) - 1 is exactly membership
      in level d); the filtered, per-batch pre-aggregated partials
      are then summed DRIVER-side against the level-d table.  Driver
      memory is therefore bounded by the level-d pair count (the same
      frontier-size contract the forward broadcast already relies
      on), never frontier x degree;
    * finalize: one node-shaped bucketed sum of sigma * P.

    Edge tables under ``driver_edge_cap`` run the identical recurrence
    in one numpy process (parity pinned by
    tests/test_ops.py::test_stress_centrality_parity; a brute-force
    all-paths reference pins the semantics).  Output: (node, stress),
    stress > 0 rows only, int64.
    """
    from ci_log_processing_ray.ops.window import (bucketed_groups,
                                                  bucketed_sum,
                                                  resolve_group_buckets)

    srcs = np.unique(np.asarray(list(sources), dtype=np.int64))
    S = len(srcs)
    empty = ray.data.from_arrow(pa.table({
        "node": pa.array([], pa.int64()),
        "stress": pa.array([], pa.int64())}))
    if S == 0:
        return empty

    from ci_log_processing_ray.ops.window import bucketed_distinct

    # sigma multiplies along parallel edges, so stress is defined on
    # the SIMPLE graph: canonical dedup (self-loops dropped) before
    # the bidirectional expansion -- one edge-shaped distinct exchange
    def canon(t: pa.Table) -> pa.Table:
        s = t[src_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        d = t[dst_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({"a": pa.array(np.minimum(s, d)),
                         "b": pa.array(np.maximum(s, d))})

    ebi = (bucketed_distinct(
        edges.map_batches(canon, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["a", "b"], n_buckets=n_buckets)
        .map_batches(
            lambda t: pa.table({"u": pa.concat_arrays([
                t["a"].combine_chunks().cast(pa.int64()),
                t["b"].combine_chunks().cast(pa.int64())]),
                "v": pa.concat_arrays([
                    t["b"].combine_chunks().cast(pa.int64()),
                    t["a"].combine_chunks().cast(pa.int64())])}),
            batch_format="pyarrow")
        .materialize())

    if ebi.count() <= driver_edge_cap:
        eb = ebi.to_pandas()
        u = eb["u"].to_numpy(np.int64)
        v = eb["v"].to_numpy(np.int64)
        nodes, vs, _, starts, ends = _frontier_csr(u, v, srcs)
        total = np.zeros(len(nodes), np.int64)
        for s in srcs:
            dist = np.full(len(nodes), -1, np.int64)
            sig = np.zeros(len(nodes), np.int64)
            sp = np.searchsorted(nodes, np.array([s], np.int64))
            dist[sp] = 0
            sig[sp] = 1
            fpos = sp
            levels = [fpos]
            for r in range(1, n_rounds + 1):
                idx, lens = _adj_slots(starts, ends, fpos)
                if not len(idx):
                    break
                tgt = np.searchsorted(nodes, vs[idx])
                contrib = np.repeat(sig[fpos], lens)
                fresh = dist[tgt] < 0
                newp = np.unique(tgt[fresh])
                add = np.zeros(len(nodes), np.int64)
                np.add.at(add, tgt[fresh], contrib[fresh])
                # also paths arriving at nodes settled THIS round from
                # other frontier parents are all in tgt[fresh] already
                if not len(newp):
                    break
                dist[newp] = r
                sig[newp] = add[newp]
                fpos = newp
                levels.append(fpos)
            # backward: P(v) = sum over DAG successors w of (1 + P(w))
            P = np.zeros(len(nodes), np.int64)
            for d in range(len(levels) - 2, -1, -1):
                lp = levels[d]
                idx, lens = _adj_slots(starts, ends, lp)
                if not len(idx):
                    continue
                tgt = np.searchsorted(nodes, vs[idx])
                owner = np.repeat(lp, lens)
                ok = dist[tgt] == dist[owner] + 1
                add = np.zeros(len(nodes), np.int64)
                np.add.at(add, owner[ok], 1 + P[tgt[ok]])
                P += add
            contrib = sig * P
            contrib[sp] = 0  # v == s excluded
            total += contrib
        hit = total > 0
        if not hit.any():
            return empty
        return ray.data.from_arrow(pa.table({
            "node": pa.array(nodes[hit]),
            "stress": pa.array(total[hit])}))

    user_buckets = n_buckets
    src_index = srcs  # sorted unique; index via searchsorted

    def pack_key(n_, l_):
        return n_ * S + np.searchsorted(src_index, l_)

    # ---- forward sweep: settle (node, src, dist, sigma) pairs ------
    seed = pa.table({
        "node": pa.array(srcs), "src": pa.array(srcs),
        "dist": pa.array(np.zeros(S, np.int64)),
        "sigma": pa.array(np.ones(S, np.int64))})
    settled_refs = [ray.put(seed)]
    level_tbls = [seed]
    n_front = S

    for _r in range(n_rounds):
        if n_front == 0:
            break
        front = level_tbls[-1]
        order = np.argsort(front["node"].to_numpy(), kind="mergesort")
        fn = front["node"].to_numpy()[order]
        fl = front["src"].to_numpy()[order]
        fs = front["sigma"].to_numpy()[order]
        fu = np.unique(fn)
        fstarts = np.searchsorted(fn, fu)
        fends = np.searchsorted(fn, fu, side="right")
        ref = ray.put((fu, fstarts, fends, fl, fs))

        def expand(t: pa.Table, _r=_r, _ref=ref) -> pa.Table:
            fu_, fs_, fe_, fl_, fg_ = ray.get(_ref)
            u_ = t["u"].combine_chunks().to_numpy()
            v_ = t["v"].combine_chunks().to_numpy()
            pos = np.searchsorted(fu_, u_)
            pos[pos >= len(fu_)] = 0
            hit = fu_[pos] == u_
            if not hit.any():
                return pa.table({
                    "node": pa.array([], pa.int64()),
                    "src": pa.array([], pa.int64()),
                    "sigma": pa.array([], pa.int64())})
            hp, hv = pos[hit], v_[hit]
            idx, lens = _adj_slots(fs_, fe_, hp)
            cand = pa.table({
                "node": pa.array(np.repeat(hv, lens)),
                "src": pa.array(fl_[idx]),
                "sigma": pa.array(fg_[idx])})
            g = (cand.group_by(["node", "src"])
                 .aggregate([("sigma", "sum")]))
            return pa.table({"node": g["node"], "src": g["src"],
                             "sigma": g["sigma_sum"]})

        cand_ds = ebi.map_batches(expand, batch_format="pyarrow",
                                  zero_copy_batch=True)
        settled = ray.data.from_arrow_refs(list(settled_refs))

        def keyed(side: int, sig_col: bool):
            def f(t: pa.Table) -> pa.Table:
                n_ = t["node"].combine_chunks().to_numpy()
                l_ = t["src"].combine_chunks().to_numpy()
                sg = (t["sigma"].combine_chunks().to_numpy()
                      if sig_col else np.zeros(len(n_), np.int64))
                return pa.table({
                    "key": pa.array(pack_key(n_, l_)),
                    "node": pa.array(n_),
                    "src": pa.array(l_),
                    "sigma": pa.array(sg),
                    "_side": pa.array(np.full(len(n_), side, np.int8))})
            return f

        tagged = (settled.map_batches(keyed(0, True),
                                      batch_format="pyarrow")
                  .union(cand_ds.map_batches(keyed(1, True),
                                             batch_format="pyarrow")))

        def settle(g: pd.DataFrame, _r=_r) -> pd.DataFrame:
            have = set(g.loc[g["_side"] == 0, "key"])
            new = g[(g["_side"] == 1) & ~g["key"].isin(have)]
            if not len(new):
                return pd.DataFrame({
                    "node": pd.Series([], dtype=np.int64),
                    "src": pd.Series([], dtype=np.int64),
                    "dist": pd.Series([], dtype=np.int64),
                    "sigma": pd.Series([], dtype=np.int64)})
            agg = (new.groupby(["node", "src"], as_index=False)
                   ["sigma"].sum())
            agg["dist"] = _r + 1
            return agg[["node", "src", "dist", "sigma"]]

        nb_round = resolve_group_buckets(user_buckets,
                                         input_rows=4 * n_front)
        new_tbls = [
            b for b in bucketed_groups(tagged, "key", settle,
                                       n_buckets=nb_round)
            .iter_batches(batch_format="pyarrow") if len(b)]
        n_front = sum(len(b) for b in new_tbls)
        if n_front:
            blk = pa.concat_tables(new_tbls)
            blk = pa.table({
                "node": blk["node"].combine_chunks().cast(pa.int64()),
                "src": blk["src"].combine_chunks().cast(pa.int64()),
                "dist": blk["dist"].combine_chunks().cast(pa.int64()),
                "sigma": blk["sigma"].combine_chunks().cast(
                    pa.int64())})
            settled_refs.append(ray.put(blk))
            level_tbls.append(blk)

    # ---- backward sweep: P per (node, src), by descending level ----
    P_by_level = [np.zeros(len(t), np.int64) for t in level_tbls]
    for d in range(len(level_tbls) - 2, -1, -1):
        nxt = level_tbls[d + 1]
        if len(nxt) == 0:
            continue
        order = np.argsort(nxt["node"].to_numpy(), kind="mergesort")
        fn = nxt["node"].to_numpy()[order]
        fl = nxt["src"].to_numpy()[order]
        fp = (1 + P_by_level[d + 1])[order]
        fu = np.unique(fn)
        fstarts = np.searchsorted(fn, fu)
        fends = np.searchsorted(fn, fu, side="right")
        cur = level_tbls[d]
        key_cur = (cur["node"].to_numpy() * S
                   + np.searchsorted(src_index, cur["src"].to_numpy()))
        cur_sorted = np.sort(key_cur)
        ref = ray.put((fu, fstarts, fends, fl, fp, cur_sorted,
                       src_index))

        def back(t: pa.Table, _ref=ref) -> pa.Table:
            fu_, fs_, fe_, fl_, fp_, cur_, si_ = ray.get(_ref)
            empty_t = pa.table({
                "node": pa.array([], pa.int64()),
                "src": pa.array([], pa.int64()),
                "p": pa.array([], pa.int64())})
            u_ = t["u"].combine_chunks().to_numpy()
            v_ = t["v"].combine_chunks().to_numpy()
            pos = np.searchsorted(fu_, u_)
            pos[pos >= len(fu_)] = 0
            hit = fu_[pos] == u_
            if not hit.any():
                return empty_t
            hp, hv = pos[hit], v_[hit]
            idx, lens = _adj_slots(fs_, fe_, hp)
            cn = np.repeat(hv, lens)
            cs = fl_[idx]
            cp = fp_[idx]
            # DAG-edge condition dist(u) == dist(v) - 1 is exactly
            # membership in the broadcast level-d key set: filter
            # in-kernel so the driver-side resolution is bounded by
            # the level-d pair count, not frontier x degree
            if not len(cur_):
                return empty_t
            ck = cn * len(si_) + np.searchsorted(si_, cs)
            p2 = np.minimum(np.searchsorted(cur_, ck), len(cur_) - 1)
            keep = cur_[p2] == ck
            if not keep.any():
                return empty_t
            cand = pa.table({
                "node": pa.array(cn[keep]),
                "src": pa.array(cs[keep]),
                "p": pa.array(cp[keep])})
            g = cand.group_by(["node", "src"]).aggregate([("p", "sum")])
            return pa.table({"node": g["node"], "src": g["src"],
                             "p": g["p_sum"]})

        # contributions land ONLY on pairs at level d (the kernel
        # filters to that key set): resolve against this level's pair
        # table driver-side -- level tables are frontier-sized by
        # construction, the same contract as the forward broadcast
        parts = [b for b in ebi.map_batches(
            back, batch_format="pyarrow",
            zero_copy_batch=True).iter_batches(
                batch_format="pyarrow") if len(b)]
        if not parts:
            continue
        allp = pa.concat_tables(parts)
        agg = (allp.group_by(["node", "src"])
               .aggregate([("p", "sum")]).to_pandas())
        key_agg = (agg["node"].to_numpy(np.int64) * S
                   + np.searchsorted(src_index,
                                     agg["src"].to_numpy(np.int64)))
        o = np.argsort(key_agg, kind="mergesort")
        key_agg, pv = key_agg[o], agg["p_sum"].to_numpy(np.int64)[o]
        pos = np.searchsorted(key_agg, key_cur)
        pos_c = np.minimum(pos, max(len(key_agg) - 1, 0))
        found = (len(key_agg) > 0) & (key_agg[pos_c] == key_cur)
        P_by_level[d] = np.where(found, pv[pos_c], 0).astype(np.int64)

    out_n, out_s = [], []
    for d, t in enumerate(level_tbls):
        if d == 0:
            continue  # v == s pairs excluded
        sg = t["sigma"].to_numpy()
        contrib = sg * P_by_level[d]
        keep = contrib > 0
        out_n.append(t["node"].to_numpy()[keep])
        out_s.append(contrib[keep])
    if not out_n or not sum(len(a) for a in out_n):
        return empty
    pairs = pa.table({"node": pa.array(np.concatenate(out_n)),
                      "stress": pa.array(np.concatenate(out_s))})
    return bucketed_sum(ray.data.from_arrow(pairs), ["node"],
                        ["stress"],
                        n_buckets=resolve_group_buckets(
                            user_buckets, input_rows=len(pairs)))
