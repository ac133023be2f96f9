"""Deduplication operators.

Shuffle structure (the part that matters at 100 TB):

* exact:     vectorized 64-bit content hash per batch (combiner-style),
             then ONE groupby on the compact hash key -- never on the
             full text -- with per-group first-row selection.
* minhash:   per-batch shingling + minhash signatures (numpy, no Python
             per-row loop), explode to (band, band_hash) candidate keys,
             groupby buckets, verify candidate pairs with true Jaccard,
             union-find over the (small) verified edge set.
* simhash:   per-batch 64-bit simhash; exact-bucket groupby (optionally
             on a rotated prefix for near-matches).
* embedding: random-hyperplane LSH bucket key per batch, within-bucket
             exact cosine verification.

All randomness is seeded and derived per-operator -- results are
deterministic regardless of partitioning.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

_HASH_KEY = "cilogprocraydedu"  # exactly 16 bytes (pandas hash_key contract)


def _hash64(texts: pa.Array | list) -> np.ndarray:
    """Deterministic vectorized 64-bit string hash."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if isinstance(texts, pa.Array):
        arr = texts.to_numpy(zero_copy_only=False)  # object ndarray of str
    else:
        arr = np.asarray(texts, dtype=object)
    return pd.util.hash_array(arr, hash_key=_HASH_KEY).astype(np.uint64)


def exact_dedup(
    ds: ray.data.Dataset, text_col: str, id_col: str
) -> ray.data.Dataset:
    """Keep the lexicographically-first id per distinct text.

    Two-phase: per-batch hash (map_batches, vectorized) -> groupby on the
    8-byte hash (the only shuffle; keys are compact, never the payload)
    -> within-group exact-text resolution (collision-safe).
    Returns (id_col, text_col, dup_count).
    """

    def add_hash(t: pa.Table) -> pa.Table:
        # combiner: collapse to block-distinct texts BEFORE the exchange
        # ("first" = MIN id + partial count per text), so the shuffle
        # carries one row per distinct text per block, not one per input
        # row -- on a duplicate-heavy corpus the exchange shrinks by the
        # in-block duplication factor, and the text payload never ships
        # twice.  Arrow group_by end to end: strings stay Arrow-encoded,
        # no pandas object-dtype round-trip.
        h = _hash64(t[text_col].combine_chunks())
        tt = pa.table({
            id_col: t[id_col],
            text_col: t[text_col],
            "_h": pa.array(h.astype(np.int64)),
        })
        g = tt.group_by(text_col).aggregate(
            [(id_col, "min"), (id_col, "count"), ("_h", "min")])
        return pa.table({
            id_col: g[f"{id_col}_min"],
            text_col: g[text_col],
            "dup_count": g[f"{id_col}_count"].cast(pa.int64()),
            "_h": g["_h_min"],
        })

    hashed = ds.map_batches(add_hash, batch_format="pyarrow", batch_size=None)

    def first_per_text(t: pa.Table) -> pa.Table:
        g = t.group_by(text_col).aggregate(
            [(id_col, "min"), ("dup_count", "sum")])
        return pa.table({
            id_col: g[f"{id_col}_min"],
            text_col: g[text_col],
            "dup_count": g["dup_count_sum"],
        })

    # coarse-bucket the hash key: one vectorized Arrow group_by per
    # bucket, NOT one kernel dispatch per distinct text (equal texts
    # share a hash, so they land in the same bucket)
    from ci_log_processing_ray.ops.window import bucketed_groups

    return bucketed_groups(hashed, "_h", first_per_text,
                           kernel_format="pyarrow")


# ---------------------------------------------------------------------------
# MinHash + LSH near-duplicate detection
# ---------------------------------------------------------------------------
_MERSENNE = (1 << 61) - 1


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Distinct k-byte shingle hashes of one document (vectorized rolling
    polynomial hash over the UTF-8 bytes)."""
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    if len(data) < k:
        data = np.pad(data, (0, k - len(data)), constant_values=0)
    n = len(data) - k + 1
    # rolling polynomial hash, base 257 mod 2^61-1
    base = np.uint64(257)
    powers = np.empty(k, dtype=np.uint64)
    p = np.uint64(1)
    with np.errstate(over="ignore"):  # wraparound mult is intentional
        for i in range(k - 1, -1, -1):
            powers[i] = p
            p = (p * base) % np.uint64(_MERSENNE)
    windows = np.lib.stride_tricks.sliding_window_view(data, k)[:n]
    h = (windows * powers).sum(axis=1) % np.uint64(_MERSENNE)
    return np.unique(h)


def _minhash_signature(
    shingles: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """num_perm minhash values via (a*x + b) mod p universal hashing."""
    if len(shingles) == 0:
        return np.full(len(a), _MERSENNE, dtype=np.uint64)
    v = (np.outer(a, shingles) + b[:, None]) % np.uint64(_MERSENNE)
    return v.min(axis=1)


def _perm_params(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def _utf8_stream(arr: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray,
                                                           np.ndarray]:
    """Zero-copy flat UTF-8 byte stream + per-doc byte lengths of a
    string column (no per-doc ``encode``: Arrow already stores the
    concatenated UTF-8 data buffer; we read it through the offsets)."""
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:
        arr = pc.fill_null(arr, "")
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_dtype)[
        arr.offset:arr.offset + len(arr) + 1]
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None \
        else np.array([], dtype=np.uint8)
    flat = data[offs[0]:offs[-1]]
    lens = np.diff(offs).astype(np.int64)
    return flat, lens


def _window_hash_stream(
    texts: pa.Array | pa.ChunkedArray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Whole-batch k-byte rolling window hashes over ALL docs at once
    (the shared front half of :func:`_minhash_sigs` and
    :func:`_doc_shingle_blobs`): zero-copy UTF-8 stream, short docs
    zero-padded in place via one scatter, ONE k-pass rolling polynomial
    hash (the exact arithmetic of the per-doc ``_shingle_hashes``),
    windows crossing doc boundaries dropped by position.

    Returns (window hashes gathered doc-contiguous, per-doc window
    counts, per-doc segment starts, n_docs).
    """
    flat, lens = _utf8_stream(texts)
    n = len(lens)
    if n == 0:
        z = np.array([], dtype=np.int64)
        return np.array([], dtype=np.uint64), z, z, 0
    if (lens >= k).all():
        # common case: nothing to pad, the Arrow data buffer IS the
        # stream -- no scatter copy
        pad_lens = lens
        stream = flat
        out_total = int(lens.sum())
        out_starts = np.zeros(n, dtype=np.int64)
        np.cumsum(lens[:-1], out=out_starts[1:])
    else:
        pad_lens = np.maximum(lens, k)
        out_total = int(pad_lens.sum())
        stream = np.zeros(out_total, dtype=np.uint8)
        in_starts = np.zeros(n, dtype=np.int64)
        np.cumsum(lens[:-1], out=in_starts[1:])
        out_starts = np.zeros(n, dtype=np.int64)
        np.cumsum(pad_lens[:-1], out=out_starts[1:])
        if flat.size:
            shift = np.repeat(out_starts - in_starts, lens)
            stream[np.arange(len(flat), dtype=np.int64) + shift] = flat

    base = np.uint64(257)
    powers = np.empty(k, dtype=np.uint64)
    p = np.uint64(1)
    with np.errstate(over="ignore"):  # wraparound mult is intentional
        for i in range(k - 1, -1, -1):
            powers[i] = p
            p = (p * base) % np.uint64(_MERSENNE)
    n_win = out_total - k + 1
    st = stream.astype(np.uint64)
    h = np.zeros(n_win, dtype=np.uint64)
    for j in range(k):  # k passes, no (n_win, k) materialization
        h += st[j:j + n_win] * powers[j]
    h %= np.uint64(_MERSENNE)

    # windows starting in doc d: positions out_starts[d] ..
    # out_starts[d] + pad_lens[d] - k  (pad_lens >= k, so counts >= 1)
    counts = pad_lens - k + 1
    # gather each doc's valid windows contiguously (docs are contiguous
    # in the stream, so this is one fancy-index over precomputed spans)
    win_idx = (np.arange(int(counts.sum()), dtype=np.int64)
               + np.repeat(out_starts - np.r_[0, np.cumsum(counts)[:-1]],
                           counts))
    sh = h[win_idx]
    seg_starts = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=seg_starts[1:])
    return sh, counts, seg_starts, n


def _doc_shingle_blobs(
    texts: pa.Array | pa.ChunkedArray, k: int
) -> list[bytes]:
    """Per-doc SORTED-UNIQUE shingle-hash blobs for a whole batch,
    bit-identical to ``[_shingle_hashes(t, k).tobytes() for t in ...]``
    but with no per-document Python hashing dispatch: one shared
    rolling-hash stream (:func:`_window_hash_stream`), ONE lexsort over
    the (doc, hash) pairs, adjacent-duplicate drop per segment, then
    cheap per-doc buffer slices.  Used by the minhash verify stage's
    candidate-shingle pass (measured ~3x on the 500k-doc proof)."""
    sh, counts, seg_starts, n = _window_hash_stream(texts, k)
    if n == 0:
        return []
    didx = np.repeat(np.arange(n, dtype=np.int64), counts)
    order = np.lexsort((sh, didx))
    s_sorted = sh[order]
    d_sorted = didx[order]
    keep = np.r_[True, (s_sorted[1:] != s_sorted[:-1])
                 | (d_sorted[1:] != d_sorted[:-1])]
    u = np.ascontiguousarray(s_sorted[keep])
    du = d_sorted[keep]
    u_counts = np.bincount(du, minlength=n)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(u_counts, out=offs[1:])
    return [u[offs[i]:offs[i + 1]].tobytes() for i in range(n)]


def _minhash_sigs(
    texts: pa.Array | pa.ChunkedArray,
    k: int,
    a: np.ndarray,
    b: np.ndarray,
    *,
    perm_chunk: int = 64,
    doc_seg_shingles: int = 16384,
) -> np.ndarray:
    """Whole-batch minhash signatures, bit-identical to the per-doc
    ``_minhash_signature(_shingle_hashes(text, k), a, b)`` path but with
    NO per-document Python dispatch (the round-2 verdict's #2 fix,
    reusing the flattened-stream pattern from ``ngram_jaccard_pairs``):

    * all docs' UTF-8 bytes come zero-copy from the Arrow data buffer,
      short docs zero-pad in place to ``k`` bytes (scatter via one
      repeat/cumsum index map);
    * ONE k-pass rolling polynomial hash over the padded stream (uint64
      wraparound multiply-add then ``% (2^61-1)`` -- the exact
      arithmetic of ``_shingle_hashes``; windows crossing a doc
      boundary are invalid by position, no masking math needed);
    * per-doc per-permutation minima via ``np.minimum.reduceat`` over
      doc segments (duplicates don't change a min, so the old kernel's
      ``np.unique`` is unnecessary), processed through PREALLOCATED
      cache-resident buffers: ``doc_seg_shingles`` (~16k) shingles x
      ``perm_chunk`` permutations per inner step -- fresh multi-MB
      temporaries per chunk measured 6x slower than buffer reuse on
      the same arithmetic (page-fault bound, not compute bound).

    Returns an (n_docs, num_perm) uint64 signature matrix.
    """
    sh, counts, seg_starts, n = _window_hash_stream(texts, k)
    num_perm = len(a)
    if n == 0:
        return np.empty((0, num_perm), dtype=np.uint64)
    sigs = np.empty((n, num_perm), dtype=np.uint64)
    # doc segments bounded by shingle count; O(#segments) bound search
    cum = np.cumsum(counts)
    seg_bounds = [0]
    while seg_bounds[-1] < n:
        prev = seg_bounds[-1]
        target = (int(cum[prev - 1]) if prev else 0) + doc_seg_shingles
        nxt = int(np.searchsorted(cum, target, side="left")) + 1
        seg_bounds.append(min(max(nxt, prev + 1), n))
    max_width = max(
        (int(cum[hi - 1]) - (int(cum[lo - 1]) if lo else 0))
        for lo, hi in zip(seg_bounds[:-1], seg_bounds[1:]))
    buf = np.empty((min(perm_chunk, num_perm), max_width), dtype=np.uint64)
    M = np.uint64(_MERSENNE)
    for lo_d, hi_d in zip(seg_bounds[:-1], seg_bounds[1:]):
        s0 = int(seg_starts[lo_d])
        s1 = int(seg_starts[hi_d - 1] + counts[hi_d - 1])
        sh_seg = sh[s0:s1]
        local_starts = seg_starts[lo_d:hi_d] - s0
        for p0 in range(0, num_perm, perm_chunk):
            p1 = min(p0 + perm_chunk, num_perm)
            v = buf[:p1 - p0, :len(sh_seg)]
            np.multiply(a[p0:p1, None], sh_seg[None, :], out=v)
            v += b[p0:p1, None]
            v %= M
            sigs[lo_d:hi_d, p0:p1] = np.minimum.reduceat(
                v, local_starts, axis=1).T
    return sigs


from functools import lru_cache


@lru_cache(maxsize=8)
def _cached_perm_params(num_perm: int, seed: int):
    """Per-worker-process cache (ST4 pattern): plain-task map_batches
    stages get once-per-process params without actor-pool startup --
    for a 2-task stage over a small table, actor spin-up dominates."""
    return _perm_params(num_perm, seed)


class _MinHashBatch:
    """Minhash + banding kernel (usable as a plain map_batches function:
    state is the cached permutation params, so tasks pay no setup).

    Fully vectorized end to end: signatures come from the flattened
    stream kernel (:func:`_minhash_sigs` -- zero-copy bytes, one
    rolling hash over the whole batch, per-doc reduceat minima; no
    per-document Python dispatch), then the band explode stacks them to
    an (n_docs, bands, rows) cube, the FNV band hash folds over the
    rows axis in uint64 wraparound arithmetic (bit-identical to the
    scalar ``hash_band``), and the output columns come from one
    repeat/tile."""

    def __init__(self, text_col, id_col, k, num_perm, bands, seed):
        self.text_col, self.id_col = text_col, id_col
        self.k, self.num_perm, self.bands = k, num_perm, bands
        self.rows = num_perm // bands
        self.seed = seed

    def __call__(self, t: pa.Table) -> pa.Table:
        a, b = _cached_perm_params(self.num_perm, self.seed)
        ids = t[self.id_col].combine_chunks().to_numpy(zero_copy_only=False)
        n = len(ids)
        if n == 0:
            # keep the SOURCE id type: a hardcoded int64 here would make
            # empty blocks schema-incompatible with non-empty ones for
            # string-id corpora
            return pa.table({
                self.id_col: pa.nulls(0, t.schema.field(self.id_col).type),
                "band": pa.array([], pa.int32()),
                "band_hash": pa.array([], pa.int64())})
        sigs = _minhash_sigs(t[self.text_col], self.k, a, b)
        cube = sigs.reshape(n, self.bands, self.rows)
        with np.errstate(over="ignore"):
            h = np.full((n, self.bands), 1469598103934665603,
                        dtype=np.uint64)  # FNV offset
            for r in range(self.rows):
                h = (h ^ cube[:, :, r]) * np.uint64(1099511628211)
        bh = (h >> np.uint64(1)).astype(np.int64)
        return pa.table({
            self.id_col: pa.array(np.repeat(ids, self.bands)),
            "band": pa.array(np.tile(np.arange(self.bands, dtype=np.int32),
                                     n)),
            "band_hash": pa.array(bh.reshape(-1)),
        })


def hash_band(chunk: np.ndarray) -> int:
    """Deterministic 63-bit hash of one band's signature slice."""
    h = np.uint64(1469598103934665603)  # FNV offset
    for v in chunk:
        h = np.uint64((int(h) ^ int(v)) * 1099511628211 % (1 << 64))
    return int(h >> np.uint64(1))


def _verify_jaccard_batch(left: np.ndarray, right: np.ndarray,
                          blobs_a, blobs_b,
                          threshold: float) -> pa.Table:
    """Whole-batch exact-Jaccard verification, NO per-pair Python
    dispatch: flatten every pair's two shingle sets (unique within a
    side by construction: ``_shingle_hashes`` ends in ``np.unique``)
    into one (pair_idx, hash) stream, lexsort once, count adjacent
    equal (pair, hash) entries -- each adjacency is one intersection
    element -- then one bincount per pair.  The 100x-corpus proof run
    (scale_proof.py) measured the per-pair ``np.intersect1d`` loop it
    replaces at 343 s for 500k docs (~25M candidate pairs); this
    kernel is the fix.  Returns the kept (left, right) edge table."""
    n = len(left)
    if n == 0:
        return pa.table({"left": pa.array([], type=pa.int64()),
                         "right": pa.array([], type=pa.int64())})
    arrs_a = [np.frombuffer(b, dtype=np.uint64) for b in blobs_a]
    arrs_b = [np.frombuffer(b, dtype=np.uint64) for b in blobs_b]
    len_a = np.fromiter((len(x) for x in arrs_a), np.int64, n)
    len_b = np.fromiter((len(x) for x in arrs_b), np.int64, n)
    pair_idx = np.concatenate([
        np.repeat(np.arange(n, dtype=np.int64), len_a),
        np.repeat(np.arange(n, dtype=np.int64), len_b)])
    hashes = np.concatenate([np.concatenate(arrs_a),
                             np.concatenate(arrs_b)])
    order = np.lexsort((hashes, pair_idx))
    ps, hs = pair_idx[order], hashes[order]
    dup = (ps[1:] == ps[:-1]) & (hs[1:] == hs[:-1])
    inter = np.bincount(ps[1:][dup], minlength=n)
    union = len_a + len_b - inter
    jac = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
    keep = jac >= threshold
    left = np.asarray(left)
    right = np.asarray(right)
    return pa.table({"left": pa.array(left[keep].astype(np.int64)),
                     "right": pa.array(right[keep].astype(np.int64))})


def _shuffle_verify_pairs(
    blob_ds: ray.data.Dataset,
    blob_id_col: str,
    blob_col: str,
    pairs: "pd.DataFrame",
    verify_rows,
    empty: "pd.DataFrame",
) -> "pd.DataFrame":
    """Shared 100-TB exact-verify exchange: ONE tagged-union bucketed
    co-partition, with blobs routed per (id, bucket) -- never per edge.
    Every edge goes to its RIGHT endpoint's hash bucket, so a right's
    blob ships exactly once (to its own bucket); a left's blob ships
    once per DISTINCT partner bucket (the driver-computed need list --
    edges are already driver-resident as the candidate list).  The
    superseded two-pass design attached a blob COPY to every edge and
    shipped it through BOTH exchanges: at the 500k-doc scale proof
    (2.9M pairs, ~1.7 KB mean blob) that moved ~10 GB of blobs and cost
    ~300 s; this single exchange moves ~|cand| + |distinct (left,
    bucket)| blobs (~1.1 GB there) regardless of edge multiplicity.

    ``verify_rows(left, right, blobs_a, blobs_b) -> pa.Table`` is the
    caller's vectorized pair kernel; ``empty`` (a ``pa.Table``) fixes
    the output schema for blob-only buckets.  The whole exchange rides
    ARROW blocks (r5: the pandas kernel round-trip materialized every
    blob into an object-dtype column per bucket -- pure overhead).
    Used by minhash_lsh_dedup and prefix_jaccard_pairs."""
    from ci_log_processing_ray.ops.window import (_key_buckets,
                                                  bucketed_groups,
                                                  resolve_group_buckets)

    n_buckets = resolve_group_buckets()
    left_np = pairs["left"].to_numpy(np.int64)
    right_np = pairs["right"].to_numpy(np.int64)
    eb = _key_buckets(right_np, n_buckets).astype(np.int64)
    # extra buckets that need a left's blob beyond its own bucket
    need = pd.DataFrame({"id": left_np, "b": eb}).drop_duplicates()
    need = need[need["b"].to_numpy() != _key_buckets(
        need["id"].to_numpy(), n_buckets).astype(np.int64)]
    need_ref = ray.put(need.reset_index(drop=True))

    def route_blobs(t: pa.Table) -> pa.Table:
        """One copy to the id's own bucket + one per needed extra
        bucket (vectorized: a pandas merge against the broadcast
        need table, one Arrow take for the blob gather)."""
        needs = ray.get(need_ref)
        ids = t[blob_id_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        own = _key_buckets(ids, n_buckets).astype(np.int64)
        m = pd.DataFrame(
            {"id": ids, "_j": np.arange(len(ids), dtype=np.int64)}
        ).merge(needs, on="id")
        idx = np.concatenate([np.arange(len(ids), dtype=np.int64),
                              m["_j"].to_numpy()])
        buckets = np.concatenate([own, m["b"].to_numpy(np.int64)])
        blob = t[blob_col].combine_chunks().take(pa.array(idx))
        out_ids = pa.array(ids[idx])
        return pa.table({
            "key": pa.array(buckets),
            "left": out_ids,
            "right": out_ids,
            "blob": blob,
            "kind": pa.array(np.zeros(len(idx), np.int32)),
        })

    blob_rows = blob_ds.map_batches(route_blobs, batch_format="pyarrow",
                                    zero_copy_batch=True)
    edge_rows = ray.data.from_arrow(pa.table({
        "key": pa.array(eb),
        "left": pa.array(left_np),
        "right": pa.array(right_np),
        "blob": pa.array([b""] * len(pairs), pa.binary()),
        "kind": pa.array(np.ones(len(pairs), np.int32)),
    }))

    def verify_bucket(t: pa.Table) -> pa.Table:
        kind = t["kind"].combine_chunks().to_numpy()
        isb = kind == 0
        bl = t.filter(pa.array(isb))
        lut = dict(zip(bl["left"].to_pylist(), bl["blob"].to_pylist()))
        el = t["left"].combine_chunks().to_numpy()[~isb]
        er = t["right"].combine_chunks().to_numpy()[~isb]
        if not len(el):
            return empty
        outs = []
        # chunk the verify so the lexsort working set stays
        # cache-friendly (8192 pairs x ~600 elements x 16 B)
        for i in range(0, len(el), 8192):
            cl = el[i:i + 8192].astype(np.int64)
            cr = er[i:i + 8192].astype(np.int64)
            outs.append(verify_rows(
                cl, cr,
                [lut[x] for x in cl], [lut[x] for x in cr]))
        return pa.concat_tables(outs)

    out = bucketed_groups(blob_rows.union(edge_rows), "key",
                          verify_bucket,
                          kernel_format="pyarrow").to_pandas()
    # schema-preserving empty (Dataset.to_pandas drops columns on
    # zero-row datasets -- CLAUDE.md rule)
    return empty.to_pandas() if len(out) == 0 else out


def minhash_lsh_dedup(
    ds: ray.data.Dataset,
    text_col: str,
    id_col: str,
    *,
    k: int = 5,
    num_perm: int = 64,
    bands: int = 16,
    jaccard_threshold: float = 0.8,
    seed: int = 97,
    driver_edge_cap: int = 1_000_000,
    broadcast_cand_cap: int = 100_000,
) -> "pd.DataFrame":
    """Near-dup clusters: returns (id, cluster_rep) for every clustered doc.

    Pipeline: minhash+band rows (actor pool) -> groupby(band, band_hash)
    -> candidate pairs per bucket -> exact Jaccard verification on the
    candidate docs only -> closure over the verified edges.  Up to
    ``driver_edge_cap`` edges the closure is a driver union-find (the
    edge set is tiny relative to the corpus by construction); above it
    the edges route through the distributed
    :func:`~ci_log_processing_ray.ops.iterative.connected_components`
    (two-phase local contraction), so pathological corpora with huge
    duplicate clusters never serialize the closure on the driver.
    """
    # plain-task stage: params come from a per-process cache, so there
    # is no actor-pool spin-up to amortize (a small table is only a
    # couple of 4096-row tasks; at scale, tasks parallelize identically)
    banded = ds.map_batches(
        _MinHashBatch(text_col, id_col, k, num_perm, bands, seed),
        batch_format="pyarrow", batch_size=4096)

    def bucket_pairs(t: pa.Table) -> pa.Table:
        # vectorized star expansion over the whole coarse bucket: the
        # smallest id per (band, band_hash) group pairs with every other
        # id in that group -- pair count stays linear in bucket size.
        # Pure numpy over Arrow arrays: one lexsort + segment repeat.
        band = t["band"].combine_chunks().to_numpy()
        bh = t["band_hash"].combine_chunks().to_numpy()
        ids = t[id_col].combine_chunks().to_numpy()
        order = np.lexsort((ids, bh, band))
        b, h, i = band[order], bh[order], ids[order]
        newgrp = np.r_[True, (b[1:] != b[:-1]) | (h[1:] != h[:-1])]
        starts = np.flatnonzero(newgrp)
        rep = np.repeat(i[starts], np.diff(np.r_[starts, len(i)]))
        mask = i != rep
        return pa.table({"left": pa.array(rep[mask]),
                         "right": pa.array(i[mask])})

    from ci_log_processing_ray.ops.window import bucketed_groups

    pairs = (
        # coarse-bucket on band_hash (same (band, band_hash) group never
        # splits); the kernel resolves exact groups vectorized -- no
        # per-distinct-bucket map_groups dispatch
        bucketed_groups(banded, "band_hash", bucket_pairs,
                        kernel_format="pyarrow")
        .to_pandas()  # candidate EDGE list only -- tiny by construction
    )
    if len(pairs) == 0:
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "cluster_rep": pd.Series([], dtype="int64")})
    pairs = pairs.drop_duplicates()

    # ---- distributed exact-Jaccard verification ----------------------
    # The corpus is never scanned on the driver: candidate ids are
    # broadcast (ray.put once), each worker computes shingle sets for
    # ONLY its block's candidate rows, and the pairwise verification
    # runs as two distributed joins (pair.left -> shingles,
    # pair.right -> shingles) + a vectorized-per-pair kernel.  Only the
    # verified edge list (smaller than the candidate list) reaches the
    # driver for union-find.
    import pyarrow.compute as pc

    cand = np.unique(np.concatenate(
        [pairs["left"].to_numpy(), pairs["right"].to_numpy()]))
    cand_ref = ray.put(pa.array(cand.astype(np.int64)))

    def cand_shingles(t: pa.Table) -> pa.Table:
        ids = t[id_col].combine_chunks()
        sub = t.filter(pc.is_in(ids, value_set=ray.get(cand_ref)))
        # bytes, not list<int64>: opaque fixed-layout payload for the
        # exchange; whole-batch kernel (shared rolling-hash stream +
        # one lexsort), no per-doc hashing dispatch
        sh = _doc_shingle_blobs(sub[text_col], k)
        return pa.table({
            "a_id": sub[id_col].combine_chunks().cast(pa.int64()),
            "sh_a": pa.array(sh, type=pa.binary()),
        })

    # ONE corpus pass computes candidate shingles
    cand_a = ds.map_batches(cand_shingles, batch_format="pyarrow",
                            batch_size=4096).materialize()

    def verify_batch(left: np.ndarray, right: np.ndarray,
                     blobs_a, blobs_b) -> pa.Table:
        return _verify_jaccard_batch(left, right, blobs_a, blobs_b,
                                     jaccard_threshold)

    if len(cand) <= broadcast_cand_cap:
        # broadcast-verify: the candidate shingle table is small, so ship
        # it once (ray.put) and resolve both pair sides with a dict
        # lookup inside ONE map_batches over the edge list -- a
        # distributed exchange costs seconds of fixed overhead, pure
        # waste at this size
        cand_tbl = cand_a.to_pandas()
        sh_ref = ray.put(dict(zip(cand_tbl["a_id"].to_numpy(),
                                  cand_tbl["sh_a"].to_numpy())))
        # from_pandas yields ONE block; split so the verify kernel
        # parallelizes across the pool (a single-block edge list ran
        # the whole lexsort verify on one core -- 38 s for 22k pairs
        # of ~2000-shingle docs at sf0.1) and cap batch_size so each
        # lexsort working set stays bounded
        try:
            cpus = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            cpus = 8
        n_parts = max(1, min(2 * cpus, len(pairs) // 1024 + 1))
        pairs_ds = ray.data.from_pandas(
            pairs.astype({"left": np.int64, "right": np.int64})
        ).repartition(n_parts)

        def verify_broadcast(t: pa.Table) -> pa.Table:
            sh = ray.get(sh_ref)
            left = t["left"].to_numpy()
            right = t["right"].to_numpy()
            return verify_batch(left, right,
                                [sh[x] for x in left],
                                [sh[x] for x in right])

        edges = pairs_ds.map_batches(
            verify_broadcast, batch_format="pyarrow",
            batch_size=2048).to_pandas()
    else:
        # shuffle-verify (the 100 TB path): the shared tagged-union
        # bucketed co-partition (see _shuffle_verify_pairs)
        edges = _shuffle_verify_pairs(
            cand_a, "a_id", "sh_a", pairs,
            lambda l, r, ba, bb: _verify_jaccard_batch(
                l, r, ba, bb, jaccard_threshold),
            pa.table({"left": pa.array([], pa.int64()),
                      "right": pa.array([], pa.int64())}))

    if len(edges) > driver_edge_cap:
        # distributed closure: component = min reachable id, exactly the
        # union-by-min the driver path computes
        from ci_log_processing_ray.ops.iterative import connected_components

        cc = connected_components(
            ray.data.from_pandas(
                edges.astype({"left": np.int64, "right": np.int64})),
            "left", "right").to_pandas()
        cc = cc.rename(columns={"node": id_col,
                                "component": "cluster_rep"})
        return cc.sort_values(id_col).reset_index(drop=True)

    # driver closure via the vectorized min-label kernel (every edge
    # endpoint gets its min reachable id, nodes ascending) -- same
    # semantics as the per-edge Python union-find it replaces, no
    # per-row Python
    from ci_log_processing_ray.ops.iterative import _local_cc_labels

    nodes_, roots_ = _local_cc_labels(
        edges["left"].to_numpy(np.int64),
        edges["right"].to_numpy(np.int64))
    return pd.DataFrame({id_col: nodes_, "cluster_rep": roots_})


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact, distributed via pair counting)
# ---------------------------------------------------------------------------
def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    text_col: str,
    id_col: str,
    *,
    n: int = 3,
    threshold_pct: int = 50,
    max_df: int | None = None,
    score: str = "jaccard",
) -> ray.data.Dataset:
    """All document pairs with word-``n``-gram Jaccard >= threshold.

    ``score="containment"`` switches the final predicate to the
    CONTAINMENT coefficient inter / min(|A|, |B|) (the
    superstring-dedup signal: a near-subset document scores ~100
    against its superstring even when Jaccard is low because the
    superstring is much longer); everything upstream -- explode,
    gram-bucket pair counting, combiner -- is shared, and the output's
    last column becomes ``min_sz``.

    Exact and fully distributed -- no driver-side loop, no set shipping:

    1. explode each doc to (gram_hash, doc_id, n_grams) rows, grams
       DISTINCT per doc (map_batches);
    2. groupby(gram_hash) -> emit candidate pair rows per bucket
       (each shared gram contributes exactly ONE co-occurrence row);
    3. groupby(left, right): ``count(*)`` IS the intersection size, so
       jaccard = c / (na + nb - c) falls out of pure counting.

    Any pair with jaccard >= t > 0 shares >= 1 gram, so blocking on
    shared grams loses nothing -- the result is exact.  At 100 TB pass
    ``max_df`` to drop grams appearing in more than max_df docs (the
    classic DF cutoff): candidate generation cost drops from sum(df^2)
    to sum(df<=max_df ? df^2 : 0).  Contract under the cutoff
    (unit-tested): dropped grams leave the INTERSECTION counts but per-
    doc totals stay full, so every reported jaccard is a LOWER BOUND of
    the true score and the output is always a SUBSET of the exact
    output -- the cutoff can lose pairs (those reachable only through
    hot grams, plus borderline pairs pushed under the threshold) but
    never invents or inflates one.

    Returns (left_id, right_id, inter, union_sz) with left_id < right_id,
    threshold applied as ``100*inter >= threshold_pct*union`` (integer
    math -- value-hash safe vs a SQL oracle).
    """

    import pyarrow.compute as pc

    n_buckets = 64  # coarse hash partitions: the ONE shuffle is over 64
    # groups, not one group per distinct gram (per-group dispatch would
    # dominate); within a bucket, pair generation is one vectorized
    # self-merge.
    base = np.uint64(0x9E3779B97F4A7C15)  # odd: wraparound poly combine

    def explode(t: pa.Table) -> pa.Table:
        """Whole-batch vectorized (doc, gram) explode: Arrow lower+split,
        ONE hash_array call over the flattened word stream, rolling
        polynomial n-gram combine, pandas drop_duplicates for the
        per-doc distinct step -- no per-document Python loop."""
        empty = pa.table({"gram": pa.array([], pa.int64()),
                          "bucket": pa.array([], pa.int32()),
                          "doc": pa.array([], pa.int64()),
                          "n_grams": pa.array([], pa.int64())})
        from ci_log_processing_ray.ops.curation import _word_stream

        ids = t[id_col].combine_chunks().to_numpy()
        if len(ids) == 0:
            return empty
        flat, n_words = _word_stream(t[text_col])
        doc_idx = np.repeat(np.arange(len(ids), dtype=np.int64), n_words)
        words = flat.to_numpy(zero_copy_only=False)
        if len(words) < n:
            return empty
        h = pd.util.hash_array(words, hash_key=_HASH_KEY).astype(np.uint64)
        w = len(h) - n + 1
        valid = doc_idx[:w] == doc_idx[n - 1:]
        gram_u = np.zeros(w, dtype=np.uint64)
        for j in range(n):
            gram_u = gram_u * base + h[j:j + w]
        gram_u = gram_u[valid]
        gdoc = doc_idx[:w][valid]
        if len(gram_u) == 0:
            return empty
        dfp = pd.DataFrame({"d": gdoc, "g": gram_u.view(np.int64),
                            "b": (gram_u % np.uint64(n_buckets)).astype(
                                np.int32)}).drop_duplicates(["d", "g"])
        counts = dfp.groupby("d", sort=False)["g"].transform("size")
        return pa.table({
            "gram": pa.array(dfp["g"].to_numpy()),
            "bucket": pa.array(dfp["b"].to_numpy()),
            "doc": pa.array(ids[dfp["d"].to_numpy()]),
            "n_grams": pa.array(counts.to_numpy(dtype=np.int64)),
        })

    exploded = ds.map_batches(explode, batch_format="pyarrow", batch_size=4096)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        df = g.groupby("gram", sort=False)["doc"].transform("size")
        keep = df >= 2
        if max_df is not None:
            keep &= df <= max_df
        sub = g[keep][["gram", "doc", "n_grams"]]
        if len(sub) == 0:
            return pd.DataFrame({"left": pd.Series([], dtype=np.int64),
                                 "right": pd.Series([], dtype=np.int64),
                                 "na": pd.Series([], dtype=np.int64),
                                 "nb": pd.Series([], dtype=np.int64),
                                 "pinter": pd.Series([], dtype=np.int64),
                                 "pair_bucket": pd.Series([], dtype=np.int32)})
        m = sub.merge(sub, on="gram", suffixes=("_a", "_b"))
        m = m[m["doc_a"] < m["doc_b"]]
        # COMBINER: a gram lives in exactly one bucket, so this bucket's
        # co-occurrence count per pair is a partial intersection size --
        # collapse sum(df^2) co-occurrence rows to one row per distinct
        # pair BEFORE the second shuffle.
        part = m.groupby(["doc_a", "doc_b"], as_index=False, sort=False).agg(
            pinter=("gram", "size"), na=("n_grams_a", "first"),
            nb=("n_grams_b", "first"))
        left = part["doc_a"].to_numpy()
        return pd.DataFrame({"left": left,
                             "right": part["doc_b"].to_numpy(),
                             "na": part["na"].to_numpy(),
                             "nb": part["nb"].to_numpy(),
                             "pinter": part["pinter"].to_numpy(),
                             "pair_bucket": (left % n_buckets).astype(np.int32)})

    pairs = exploded.groupby("bucket").map_groups(
        bucket_pairs, batch_format="pandas")

    # second (and last) shuffle: co-locate each pair's per-bucket
    # partial counts by a coarse hash of the left id, then sum locally.
    # (Coarse-bucket map_groups rides the fast sort-exchange with
    # bounded group count; Dataset.groupby(...).aggregate() showed ~20s
    # degenerate single-task sub-stages on the same data, and
    # per-distinct-key map_groups pays per-group dispatch.)
    def combine(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["left", "right"], as_index=False).agg(
            inter=("pinter", "sum"), na=("na", "min"), nb=("nb", "min"))
        inter = agg["inter"].to_numpy(dtype=np.int64)
        na = agg["na"].to_numpy(dtype=np.int64)
        nb = agg["nb"].to_numpy(dtype=np.int64)
        if score == "containment":
            denom = np.minimum(na, nb)
            denom_name = "min_sz"
        else:
            denom = na + nb - inter
            denom_name = "union_sz"
        keep = 100 * inter >= threshold_pct * denom
        return pd.DataFrame({
            "left_id": agg["left"].to_numpy()[keep],
            "right_id": agg["right"].to_numpy()[keep],
            "inter": inter[keep],
            denom_name: denom[keep],
        })

    return pairs.groupby("pair_bucket").map_groups(
        combine, batch_format="pandas")


def _doc_gram_stream(
    t: pa.Table, text_col: str, id_col: str, n: int, base: np.uint64
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole-batch (doc, distinct word-n-gram-hash) explode shared by the
    prefix-filter join's three passes: one hash_array over the flattened
    word stream, rolling polynomial combine, lexsort-based per-doc
    distinct.  Returns (ids, grams_u64, doc_idx) with rows sorted by
    (doc_idx, gram)."""
    from ci_log_processing_ray.ops.curation import _word_stream

    ids = t[id_col].combine_chunks().to_numpy()
    empty = (ids, np.empty(0, np.uint64), np.empty(0, np.int64))
    if len(ids) == 0:
        return empty
    flat, n_words = _word_stream(t[text_col])
    doc_idx = np.repeat(np.arange(len(ids), dtype=np.int64), n_words)
    words = flat.to_numpy(zero_copy_only=False)
    if len(words) < n:
        return empty
    h = pd.util.hash_array(words, hash_key=_HASH_KEY).astype(np.uint64)
    w = len(h) - n + 1
    valid = doc_idx[:w] == doc_idx[n - 1:]
    gram = np.zeros(w, dtype=np.uint64)
    for j in range(n):
        gram = gram * base + h[j:j + w]
    gram = gram[valid]
    gdoc = doc_idx[:w][valid]
    if len(gram) == 0:
        return empty
    order = np.lexsort((gram, gdoc))
    g, d = gram[order], gdoc[order]
    keep = np.r_[True, (g[1:] != g[:-1]) | (d[1:] != d[:-1])]
    return ids, g[keep], d[keep]


def _jaccard_pair_stats(left: np.ndarray, right: np.ndarray,
                        blobs_a, blobs_b,
                        threshold_pct: int) -> pa.Table:
    """Exact per-pair (inter, union) over sorted-unique uint64 gram
    blobs + integer threshold filter; same lexsort pair kernel as
    _verify_jaccard_batch but keeps the counts (value-hash oracle
    columns) instead of just the surviving edge."""
    m = len(left)
    empty = pa.table({"left_id": pa.array([], pa.int64()),
                      "right_id": pa.array([], pa.int64()),
                      "inter": pa.array([], pa.int64()),
                      "union_sz": pa.array([], pa.int64())})
    if m == 0:
        return empty
    arrs_a = [np.frombuffer(b, np.uint64) for b in blobs_a]
    arrs_b = [np.frombuffer(b, np.uint64) for b in blobs_b]
    na = np.fromiter((len(x) for x in arrs_a), np.int64, m)
    nb = np.fromiter((len(x) for x in arrs_b), np.int64, m)
    pair_idx = np.concatenate([
        np.repeat(np.arange(m, dtype=np.int64), na),
        np.repeat(np.arange(m, dtype=np.int64), nb)])
    hashes = np.concatenate([
        np.concatenate(arrs_a) if len(arrs_a) else np.empty(0, np.uint64),
        np.concatenate(arrs_b) if len(arrs_b) else np.empty(0, np.uint64)])
    order = np.lexsort((hashes, pair_idx))
    ps, hs = pair_idx[order], hashes[order]
    dup = (ps[1:] == ps[:-1]) & (hs[1:] == hs[:-1])
    inter = np.bincount(ps[1:][dup], minlength=m).astype(np.int64)
    union = na + nb - inter
    keep = 100 * inter >= threshold_pct * union
    left = np.asarray(left)
    right = np.asarray(right)
    return pa.table({
        "left_id": pa.array(left[keep].astype(np.int64)),
        "right_id": pa.array(right[keep].astype(np.int64)),
        "inter": pa.array(inter[keep]),
        "union_sz": pa.array(union[keep]),
    })


def prefix_jaccard_pairs(
    ds: ray.data.Dataset,
    text_col: str,
    id_col: str,
    *,
    n: int = 3,
    threshold_pct: int = 50,
    broadcast_cand_cap: int = 100_000,
) -> "pd.DataFrame":
    """All pairs with word-``n``-gram Jaccard >= threshold via PREFIX
    FILTERING (AllPairs/PPJoin, Bayardo et al. WWW'07; Xiao et al.
    WWW'08) -- same exact output as :func:`ngram_jaccard_pairs`, but the
    candidate exchange ships only each doc's PREFIX grams instead of all
    of them.

    Under a global gram order (here: ascending (document-frequency,
    gram) -- rarest first), any pair with Jaccard >= t shares at least
    one gram inside both docs' ``|s| - ceil(t*|s|) + 1`` prefixes, so
    pairing within prefix-gram buckets is a lossless candidate
    generator.  Hot grams sort LAST and almost never enter a prefix:
    candidate cost drops from sum(df^2) over all grams (the plain
    pair-counting join's exposure, flagged in the round-2 verdict) to
    sum over prefix entries only -- the principled fix, with no max_df
    approximation contract.

    Stages (3 corpus passes, all vectorized, no per-doc Python):
      A. per-block distinct (gram, doc) partial counts -> one bucketed
         sum -> gram DF table.  Only df >= 2 grams are kept (df = 1
         grams pair with nothing; absent grams default rank df = 1 in
         the order), sorted + broadcast once via ray.put -- gram-
         VOCABULARY-shaped, the same broadcast contract as
         vocab_coverage; above broadcast reach, attach ranks with one
         extra bucketed join instead (documented fallback).
      B. re-explode; per doc order grams by (df, gram), emit the first
         ``p`` (df >= 2 only) to the gram-bucket exchange; distinct
         candidate pairs per bucket (driver-collected edge list, tiny
         by construction -- the minhash contract).
      C. candidate ids broadcast -> one corpus pass builds sorted gram
         blobs for candidate docs only -> exact intersection counts via
         the lexsort pair kernel -> integer threshold filter
         (100*inter >= threshold_pct*union; value-hash safe).  Under
         ``broadcast_cand_cap`` candidates the blob table ships once as
         a broadcast dict; above it the verify rides the shared
         :func:`_shuffle_verify_pairs` tagged-union co-partition (the
         minhash 100 TB path) -- both paths equality-tested.

    Returns (left_id, right_id, inter, union_sz), left_id < right_id.
    """
    import pyarrow.compute as pc

    from ci_log_processing_ray.ops.window import (bucketed_groups,
                                                  bucketed_sum,
                                                  resolve_group_buckets)

    base = np.uint64(0x9E3779B97F4A7C15)
    n_buckets = resolve_group_buckets()

    # ---- pass A: gram document frequencies --------------------------
    def df_partial(t: pa.Table) -> pa.Table:
        _, g, _d = _doc_gram_stream(t, text_col, id_col, n, base)
        u, c = np.unique(g, return_counts=True)
        return pa.table({"gram": pa.array(u.view(np.int64)),
                         "n": pa.array(c.astype(np.int64))})

    df_tbl = bucketed_sum(
        ds.map_batches(df_partial, batch_format="pyarrow", batch_size=4096),
        ["gram"], ["n"]).to_pandas()
    df_tbl = df_tbl[df_tbl["n"] >= 2].sort_values("gram")
    df_grams = np.ascontiguousarray(df_tbl["gram"].to_numpy(np.int64))
    df_vals = np.ascontiguousarray(df_tbl["n"].to_numpy(np.int64))
    df_ref = ray.put((df_grams, df_vals))

    # ---- pass B: prefix-gram candidate rows --------------------------
    def prefix_rows(t: pa.Table) -> pa.Table:
        empty = pa.table({"gram": pa.array([], pa.int64()),
                          "bucket": pa.array([], pa.int32()),
                          "doc": pa.array([], pa.int64()),
                          "n_grams": pa.array([], pa.int64())})
        ids, g, d = _doc_gram_stream(t, text_col, id_col, n, base)
        if len(g) == 0:
            return empty
        grams_s, vals_s = ray.get(df_ref)
        gi = g.view(np.int64)
        pos = np.searchsorted(grams_s, gi)
        pos_c = np.minimum(pos, max(len(grams_s) - 1, 0))
        hit = (grams_s[pos_c] == gi) if len(grams_s) else \
            np.zeros(len(gi), bool)
        df = np.where(hit, vals_s[pos_c] if len(vals_s) else 0, 1)
        sizes = np.bincount(d, minlength=len(ids)).astype(np.int64)
        # prefix length p = s - ceil(t*s/100) + 1
        p = sizes - (threshold_pct * sizes + 99) // 100 + 1
        order = np.lexsort((gi, df, d))
        dd, gg, dfo = d[order], gi[order], df[order]
        starts = np.r_[0, np.flatnonzero(dd[1:] != dd[:-1]) + 1]
        seg_len = np.diff(np.r_[starts, len(dd)])
        rank = np.arange(len(dd), dtype=np.int64) - np.repeat(starts, seg_len)
        keep = (rank < p[dd]) & (dfo >= 2)
        gg, dd = gg[keep], dd[keep]
        if len(gg) == 0:
            return empty
        return pa.table({
            "gram": pa.array(gg),
            "bucket": pa.array((gg.view(np.uint64)
                                % np.uint64(n_buckets)).astype(np.int32)),
            "doc": pa.array(ids[dd]),
            "n_grams": pa.array(sizes[dd]),
        })

    exploded = ds.map_batches(prefix_rows, batch_format="pyarrow",
                              batch_size=4096)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.groupby("gram", sort=False)["doc"].transform("size")
        sub = g[cnt >= 2][["gram", "doc", "n_grams"]]
        if len(sub) == 0:
            return pd.DataFrame({"left": pd.Series([], dtype=np.int64),
                                 "right": pd.Series([], dtype=np.int64),
                                 "na": pd.Series([], dtype=np.int64),
                                 "nb": pd.Series([], dtype=np.int64)})
        m = sub.merge(sub, on="gram", suffixes=("_a", "_b"))
        m = m[m["doc_a"] < m["doc_b"]]
        u = m.drop_duplicates(["doc_a", "doc_b"])
        return pd.DataFrame({"left": u["doc_a"].to_numpy(),
                             "right": u["doc_b"].to_numpy(),
                             "na": u["n_grams_a"].to_numpy(np.int64),
                             "nb": u["n_grams_b"].to_numpy(np.int64)})

    pairs = (bucketed_groups(exploded, "bucket", bucket_pairs)
             .to_pandas()  # candidate EDGE list only -- tiny by design
             .drop_duplicates(["left", "right"]))
    if len(pairs) == 0:
        return pd.DataFrame({
            "left_id": pd.Series([], dtype=np.int64),
            "right_id": pd.Series([], dtype=np.int64),
            "inter": pd.Series([], dtype=np.int64),
            "union_sz": pd.Series([], dtype=np.int64)})

    # ---- pass C: exact verify on candidate docs only -----------------
    cand = np.unique(np.concatenate(
        [pairs["left"].to_numpy(np.int64), pairs["right"].to_numpy(np.int64)]))
    cand_ref = ray.put(cand)

    def cand_blobs(t: pa.Table) -> pa.Table:
        ids, g, d = _doc_gram_stream(t, text_col, id_col, n, base)
        cs = ray.get(cand_ref)
        pos = np.searchsorted(cs, ids)
        pos_c = np.minimum(pos, max(len(cs) - 1, 0))
        want = cs[pos_c] == ids
        # per-doc slices of the (doc-sorted) gram stream
        counts = np.bincount(d, minlength=len(ids)).astype(np.int64)
        offs = np.zeros(len(ids) + 1, np.int64)
        np.cumsum(counts, out=offs[1:])
        sel = np.flatnonzero(want & (counts > 0))
        return pa.table({
            "a_id": pa.array(ids[sel].astype(np.int64)),
            "blob": pa.array([g[offs[i]:offs[i + 1]].tobytes()
                              for i in sel], pa.binary()),
        })

    blob_ds = ds.map_batches(cand_blobs, batch_format="pyarrow",
                             batch_size=4096)
    pairs2 = pairs[["left", "right"]].astype(
        {"left": np.int64, "right": np.int64})
    if len(cand) > broadcast_cand_cap:
        # 100 TB path: shared tagged-union bucketed co-partition
        out = _shuffle_verify_pairs(
            blob_ds, "a_id", "blob", pairs2,
            lambda l, r, ba, bb: _jaccard_pair_stats(
                l, r, ba, bb, threshold_pct),
            pa.table({"left_id": pa.array([], pa.int64()),
                      "right_id": pa.array([], pa.int64()),
                      "inter": pa.array([], pa.int64()),
                      "union_sz": pa.array([], pa.int64())}))
        return out.sort_values(["left_id", "right_id"]).reset_index(
            drop=True)

    blob_tbl = blob_ds.to_pandas()
    blob_ref = ray.put(dict(zip(blob_tbl["a_id"].to_numpy(),
                                blob_tbl["blob"].to_numpy())))
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    n_parts = max(1, min(2 * cpus, len(pairs) // 1024 + 1))
    pairs_ds = ray.data.from_pandas(pairs2).repartition(n_parts)

    def verify(t: pa.Table) -> pa.Table:
        lut = ray.get(blob_ref)
        left = t["left"].to_numpy()
        right = t["right"].to_numpy()
        return _jaccard_pair_stats(left, right,
                                   [lut[x] for x in left],
                                   [lut[x] for x in right], threshold_pct)

    out = pairs_ds.map_batches(verify, batch_format="pyarrow",
                               batch_size=2048).to_pandas()
    return out.sort_values(["left_id", "right_id"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------
_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a_word_hashes(words, seed: int) -> np.ndarray:
    """Vectorized 64-bit FNV-1a over each word's UTF-8 bytes, seeded by
    XOR-folding ``seed`` into the offset basis.  FNV-1a (not
    pd.util.hash_array's siphash) because the fold is exactly
    reproducible in ANSI SQL (a recursive CTE over character
    positions) -- the property the simhash driver oracle relies on
    (``__ray_entry__._SIMHASH_ORACLE``).  Hashes are computed once per
    DISTINCT word (dictionary-encode + gather), so the byte loop runs
    over the vocabulary, not the word stream."""
    if not isinstance(words, (pa.Array, pa.ChunkedArray)):
        words = pa.array(list(words), pa.string())
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    d = words.dictionary_encode()
    uniq = d.dictionary.to_numpy(zero_copy_only=False)
    if len(uniq) == 0:
        return np.empty(0, dtype=np.uint64)
    enc = np.char.encode(uniq.astype(str), "utf-8")
    width = enc.dtype.itemsize
    mat = enc.view(np.uint8).reshape(len(uniq), width)
    lens = np.char.str_len(enc).astype(np.int64)
    h = np.full(len(uniq), np.uint64(_FNV_BASIS) ^ np.uint64(seed),
                dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    with np.errstate(over="ignore"):  # wraparound mult is the spec
        for j in range(int(lens.max())):
            m = lens > j
            h[m] = (h[m] ^ mat[m, j].astype(np.uint64)) * prime
    return h[d.indices.to_numpy()]


def _simhash_batch(
    texts: "list[str] | pa.Array | pa.ChunkedArray", seed: int
) -> np.ndarray:
    """Whole-batch vectorized simhash: ONE vocabulary-level FNV-1a hash
    pass over the flattened word stream, per-doc bit-vote sums via
    np.add.reduceat, bits packed with a shift-dot -- NO per-document
    Python at all.  An RE2 split on Python's whitespace class replaces
    the per-doc ``str.split`` (identical tokenization incl. unicode
    whitespace, empties filtered); Arrow's ``utf8_split_whitespace``
    is not used because it sometimes leaves trailing whitespace
    unsplit, depending on memory state."""
    import pyarrow.compute as pc

    from ci_log_processing_ray.functions.timestamps import _WS_SET

    if isinstance(texts, list):
        texts = pa.array(texts, pa.string())
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    out = np.zeros(n, dtype=np.uint64)
    wl = pc.split_pattern_regex(pc.fill_null(texts, ""),
                                pattern=f"[{_WS_SET}]+")
    raw_counts = np.diff(wl.offsets.to_numpy())
    flat0 = wl.flatten()
    keep = pc.not_equal(flat0, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    # per-doc kept-word counts: cumsum of keep, diffed at list offsets
    cv = np.concatenate([[0], np.cumsum(keep_np)])
    offs = np.concatenate([[0], np.cumsum(raw_counts)])
    lens = (cv[offs[1:]] - cv[offs[:-1]]).astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return out
    h = _fnv1a_word_hashes(flat0.filter(keep), seed)
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((h[:, None] >> shifts) & np.uint64(1)).astype(np.int64)  # (W, 64)
    nz = lens > 0
    nz_lens = lens[nz]
    starts = np.zeros(len(nz_lens), dtype=np.int64)
    starts[1:] = np.cumsum(nz_lens)[:-1]
    votes = 2 * np.add.reduceat(bits, starts, axis=0) - nz_lens[:, None]
    packed = ((votes > 0).astype(np.uint64) << shifts).sum(
        axis=1, dtype=np.uint64)
    out[nz] = packed
    return out


def simhash_clusters(
    ds: ray.data.Dataset, text_col: str, id_col: str, *, seed: int = 11
) -> ray.data.Dataset:
    """Exact-simhash buckets: (id, simhash, bucket_size).  Documents with
    identical 64-bit simhash are near-identical bags of words."""

    def add_sim(t: pa.Table) -> pa.Table:
        sh = _simhash_batch(t[text_col], seed)
        return pa.table({
            id_col: t[id_col],
            "simhash": pa.array(sh.astype(np.int64)),
        })

    simmed = ds.map_batches(add_sim, batch_format="pyarrow", batch_size=None)

    from ci_log_processing_ray.ops.window import (attach_group_sizes,
                                                  bucketed_groups)

    def per_bucket(t: pa.Table) -> pa.Table:
        return attach_group_sizes(t, "simhash", id_col)

    return bucketed_groups(simmed, "simhash", per_bucket,
                           kernel_format="pyarrow")


# ---------------------------------------------------------------------------
# Embedding near-duplicate detection
# ---------------------------------------------------------------------------
def _cosine_verify_arrays(ids: np.ndarray, v: np.ndarray,
                          threshold: float):
    """Exact pairwise cosine over one blocking group's normalized
    vectors + union-by-min; keeps only near-dup sets of size >= 2.
    ``ids`` must be ascending (so union-by-min roots at the set's
    smallest id).  O(|g|^2) by design -- callers bound group size via
    their blocking scheme."""
    sims = v @ v.T
    parent = {int(i): int(i) for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ii, jj = np.nonzero(np.triu(sims >= threshold, 1))
    for i, j in zip(ii, jj):
        ri, rj = find(int(ids[i])), find(int(ids[j]))
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    reps = np.fromiter((find(int(i)) for i in ids), np.int64, len(ids))
    vals, cnt = np.unique(reps, return_counts=True)
    keep = np.isin(reps, vals[cnt >= 2])
    return ids[keep], reps[keep]


def _cosine_cluster_groups(t: pa.Table, block_col: str,
                           id_col: str, threshold: float) -> pa.Table:
    """One task per coarse bucket (Arrow kernel since r5 -- the list
    column never round-trips through pandas object blocks); the
    per-blocking-group O(n^2) cosine verify stays per exact group,
    resolved by run boundaries of ONE lexsort over the bucket."""
    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "cluster_rep": pa.array([], pa.int64())})
    if len(t) == 0:
        return empty
    b = t[block_col].combine_chunks().to_numpy()
    ids = t[id_col].combine_chunks().to_numpy(
        zero_copy_only=False).astype(np.int64)
    vecs = t["_v"].combine_chunks().to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, b))
    b, ids, vecs = b[order], ids[order], vecs[order]
    starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
    ends = np.r_[starts[1:], len(b)]
    out_i, out_r = [], []
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        gi, gr = _cosine_verify_arrays(ids[s:e], np.vstack(vecs[s:e]),
                                       threshold)
        if len(gi):
            out_i.append(gi)
            out_r.append(gr)
    if not out_i:
        return empty
    return pa.table({id_col: pa.array(np.concatenate(out_i)),
                     "cluster_rep": pa.array(np.concatenate(out_r))})


def embedding_dedup(
    ds: ray.data.Dataset,
    vec_col: str,
    id_col: str,
    *,
    cosine_threshold: float = 0.95,
    n_planes: int = 12,
    dim: int = 64,
    seed: int = 23,
) -> "pd.DataFrame":
    """Near-dup clusters over an embedding column (list<float>).

    Random-hyperplane LSH assigns each vector a bucket (map_batches,
    one matmul per batch against a broadcast plane matrix); only
    within-bucket pairs are verified with exact cosine.  Returns
    (id, cluster_rep) for docs in clusters of size >= 2.
    """
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((dim, n_planes))
    planes_ref = ray.put(planes)

    class Bucketer:
        def __init__(self, planes_ref):
            self.planes = ray.get(planes_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            v = np.vstack(t[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
            v /= np.linalg.norm(v, axis=1, keepdims=True) + 1e-12
            bits = (v @ self.planes) > 0
            bucket = bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))
            return pa.table({
                id_col: t[id_col],
                "bucket": pa.array(bucket.astype(np.int64)),
                "_v": pa.array(list(v), type=pa.list_(pa.float64())),
            })

    bucketed = ds.map_batches(
        Bucketer, fn_constructor_args=(planes_ref,),
        batch_format="pyarrow", batch_size=8192, concurrency=(1, 4))

    def verify_many(t: pa.Table) -> pa.Table:
        return _cosine_cluster_groups(t, "bucket", id_col,
                                      cosine_threshold)

    from ci_log_processing_ray.ops.window import bucketed_groups

    clustered = bucketed_groups(bucketed, "bucket", verify_many,
                                kernel_format="pyarrow").to_pandas()
    if len(clustered) == 0:
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "cluster_rep": pd.Series([], dtype="int64")})
    # int64 contract (the Arrow kernel already emits int64; the astype
    # is a cheap no-op guard for the driver's dtype-sensitive hash)
    clustered = clustered.astype({id_col: "int64", "cluster_rep": "int64"})
    return clustered.sort_values(id_col).reset_index(drop=True)


def semdedup(
    ds: "ray.data.Dataset",
    vec_col: str,
    id_col: str,
    *,
    k: int = 16,
    cosine_threshold: float = 0.95,
    n_iter: int = 4,
) -> "pd.DataFrame":
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic near-dup
    clusters via K-MEANS blocking -- cluster the corpus embeddings with
    the distributed k-means from ``ops/iterative.py``, then verify
    exact cosine only WITHIN each cluster (the paper's design: cluster
    count chosen so a cluster's members fit one worker, never
    all-pairs).  Complements :func:`embedding_dedup`, whose blocking is
    random-hyperplane LSH: k-means blocking adapts to the data's actual
    density (no near-dup pair straddles two distant clusters), at the
    cost of the training passes.

    Scale shape: k-means is streaming (k x dim partials per round);
    assignment is a pure map against broadcast UNIT-NORM centroids
    (cosine assignment, matching the verify metric); the O(n_c^2)
    verify runs per cluster inside a coarse-bucket exchange.

    Returns (id, cluster_rep) for docs in near-dup sets of size >= 2;
    cluster_rep is the smallest member id (keep rows whose
    id == cluster_rep for the keep-one policy).
    """
    from ci_log_processing_ray.ops.iterative import kmeans
    from ci_log_processing_ray.ops.window import bucketed_groups

    cents, _ = kmeans(ds, vec_col, k=k, n_iter=n_iter)
    cn = cents / (np.linalg.norm(cents, axis=1, keepdims=True) + 1e-12)
    c_ref = ray.put(cn)

    class Assign:
        def __init__(self, c_ref):
            self.c = ray.get(c_ref)  # zero-copy from the object store

        def __call__(self, t: pa.Table) -> pa.Table:
            v = np.vstack(t[vec_col].to_numpy(
                zero_copy_only=False)).astype(np.float64)
            v /= np.linalg.norm(v, axis=1, keepdims=True) + 1e-12
            cid = (v @ self.c.T).argmax(axis=1).astype(np.int64)
            return pa.table({
                id_col: t[id_col],
                "cluster": pa.array(cid),
                "_v": pa.array(list(v), type=pa.list_(pa.float64())),
            })

    assigned = ds.map_batches(
        Assign, fn_constructor_args=(c_ref,),
        batch_format="pyarrow", batch_size=8192, concurrency=(1, 4))

    def verify_many(t: pa.Table) -> pa.Table:
        return _cosine_cluster_groups(t, "cluster", id_col,
                                      cosine_threshold)

    clustered = bucketed_groups(assigned, "cluster", verify_many,
                                kernel_format="pyarrow").to_pandas()
    if len(clustered) == 0:
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "cluster_rep": pd.Series([], dtype="int64")})
    return clustered.sort_values(id_col).reset_index(drop=True)


def duplicate_spans(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    *,
    n: int = 5,
) -> "ray.data.Dataset":
    """Cross-document duplicate span detection: word ``n``-grams that
    appear in MORE THAN ONE distinct document, with their document
    frequency (the building block of exact substring dedup, Lee et al.
    2022 "Deduplicating Training Data Makes Language Models Better" --
    public paper; there via suffix arrays, here via gram blocking).

    Two-level exact distinct-count: each batch emits per-gram partial
    doc counts over its DISTINCT (gram, doc) pairs, the shuffle routes
    them by hash(gram) into 64 coarse buckets (sort key is the small
    int bucket, gram strings travel as payload -- a string-keyed
    sort-exchange over millions of grams was 4x slower), and one
    C-level pandas groupby per bucket sums partials and keeps df >= 2.
    For corpora whose gram strings are too wide to ship, hash the gram
    (the ``ngram_jaccard_pairs`` layout) and keep this exact form as
    the verify stage.  Output: gram, df (int64), sorted nowhere --
    consume with a downstream sort/limit if needed.
    """
    from ci_log_processing_ray.ops.window import bucketed_groups

    def gram_partials(t: pa.Table) -> pa.Table:
        from ci_log_processing_ray.ops.curation import _doc_ngrams

        d = _doc_ngrams(t[text_col],
                        t[id_col].combine_chunks().to_numpy(
                            zero_copy_only=False), n)
        # a doc never spans batches, so per-batch distinct-doc counts
        # per gram are mergeable partials of the document frequency
        vc = d.groupby("gram", sort=False).size()
        return pa.table({"gram": pa.array(vc.index.to_numpy(),
                                          type=pa.string()),
                         "df": pa.array(vc.to_numpy().astype(np.int64))})

    partials = ds.map_batches(gram_partials, batch_format="pyarrow",
                              zero_copy_batch=True)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("gram", as_index=False, sort=False)["df"].sum()
        return agg[agg["df"] >= 2]

    return bucketed_groups(partials, "gram", finish)


def _positional_grams(
    texts: pa.Array, ids: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """(doc, pos, gram) for EVERY full n-gram start position (no
    dedup, positions 0-based and consecutive per doc) -- the
    positional variant of :func:`_doc_ngrams`, same gather plan."""
    import pyarrow.compute as pc

    from ci_log_processing_ray.ops.curation import (_gather_windows,
                                                    _word_stream)

    flat, n_words = _word_stream(texts)
    doc_idx, win_idx, win_len, gather = _gather_windows(n_words, n, 1)
    full = win_len == n
    if not full.any():
        return (np.array([], np.int64), np.array([], np.int64),
                pa.array([], pa.string()))
    gather = gather[np.repeat(full, win_len)]
    k = int(full.sum())
    offs = np.arange(0, (k + 1) * n, n, dtype=np.int32)
    lists = pa.ListArray.from_arrays(
        pa.array(offs), flat.take(pa.array(gather)))
    grams = pc.binary_join(lists, " ")
    return ids[doc_idx[full]], win_idx[full], grams


def _max_flagged_runs(doc: np.ndarray, isdup: np.ndarray,
                      n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per doc, the longest run of flagged CONSECUTIVE gram positions,
    converted to a word-span length (run + n - 1; 0 when no flags).
    ``doc`` must be grouped (each doc contiguous) with positions
    consecutive within it -- the `_positional_grams` layout."""
    if len(doc) == 0:
        return np.array([], np.int64), np.array([], np.int64)
    run_starts = np.flatnonzero(np.r_[
        True, (doc[1:] != doc[:-1]) | (isdup[1:] != isdup[:-1])])
    run_len = np.diff(np.r_[run_starts, len(doc)])
    run_doc = doc[run_starts]
    flagged_len = np.where(isdup[run_starts], run_len, 0)
    doc_starts = np.flatnonzero(np.r_[True, run_doc[1:] != run_doc[:-1]])
    max_run = np.maximum.reduceat(flagged_len, doc_starts)
    span = np.where(max_run > 0, max_run + n - 1, 0).astype(np.int64)
    return run_doc[doc_starts], span


def max_duplicate_span(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    *,
    n: int = 5,
    mode: str = "broadcast",
) -> "ray.data.Dataset":
    """Per-document longest duplicated word span: the length (in
    words) of the longest contiguous stretch fully covered by word
    ``n``-grams that occur in >= 2 distinct documents -- the per-doc
    removal signal of exact substring dedup (Lee et al. 2022; there
    via suffix arrays over the concatenated corpus, here via gram
    blocking on top of :func:`duplicate_spans`).  Docs shorter than
    ``n`` words or with no duplicated gram report 0.  Output:
    (id, max_dup_span), one row per input doc.

    Two membership plans:

    * ``mode="broadcast"`` (default): the df>=2 gram set is collected
      once and ``ray.put`` -- membership is one ``pc.is_in`` per
      batch and the run sweep stays inside the same map (docs never
      span batches).  Contract: the duplicated-gram set must fit the
      driver (gram-vocabulary sized; on log/telemetry corpora that is
      template-shaped, far below corpus size).
    * ``mode="shuffle"`` (the 100-TB path): positions and dup grams
      meet in ONE tagged-union hash(gram) co-partition (nothing is
      driver-resident), flagged positions re-bucket by doc for the
      run sweep, and the dup-doc-sized result broadcasts back onto
      the corpus for the zero-fill.  Use when the dup-gram set
      exceeds driver memory."""
    import pyarrow.compute as pc

    from ci_log_processing_ray.ops.window import bucketed_groups

    dup = duplicate_spans(ds, text_col, id_col, n=n)

    if mode == "broadcast":
        dup_df = dup.to_pandas()
        # to_pandas() on an empty pandas-block dataset drops columns
        gram_vals = (dup_df["gram"].to_numpy()
                     if "gram" in dup_df.columns else [])
        grams = pa.array(gram_vals, type=pa.string())
        gram_ref = ray.put(grams)

        def scan(t: pa.Table) -> pa.Table:
            ids = t[id_col].combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
            d, _pos, g = _positional_grams(t[text_col], ids, n)
            if len(d):
                isdup = pc.is_in(
                    g, value_set=ray.get(gram_ref)).to_numpy(
                    zero_copy_only=False)
                run_doc, span = _max_flagged_runs(d, isdup, n)
                lut = pd.Series(span, index=run_doc)
                out = lut.reindex(ids, fill_value=0).to_numpy(np.int64)
            else:
                out = np.zeros(len(ids), np.int64)
            return pa.table({"id": pa.array(ids),
                             "max_dup_span": pa.array(out)})

        return ds.map_batches(scan, batch_format="pyarrow",
                              zero_copy_batch=True)

    # mode == "shuffle": tagged-union co-partition by gram
    def pos_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        d, p, g = _positional_grams(t[text_col], ids, n)
        return pa.table({"gram": g, "id": pa.array(d),
                         "pos": pa.array(p),
                         "kind": pa.array(
                             np.zeros(len(d), np.int32))})

    def dup_rows(g: pd.DataFrame) -> pd.DataFrame:
        # empty pandas blocks arrive column-less; emit the full schema
        vals = g["gram"].to_numpy() if "gram" in g.columns else []
        n_g = len(vals)
        return pd.DataFrame({
            "gram": pd.Series(vals, dtype=object),
            "id": np.full(n_g, -1, np.int64),
            "pos": np.full(n_g, -1, np.int64),
            "kind": np.ones(n_g, np.int32)})

    tagged = ds.map_batches(pos_rows, batch_format="pyarrow",
                            zero_copy_batch=True).union(
        dup.map_batches(dup_rows, batch_format="pandas"))

    def flag_bucket(g: pd.DataFrame) -> pd.DataFrame:
        isd = g["kind"].to_numpy() == 1
        dupset = set(g.loc[isd, "gram"])
        p = g[~isd]
        keep = p["gram"].isin(dupset).to_numpy()
        return p.loc[keep, ["id", "pos"]]

    flagged = bucketed_groups(tagged, "gram", flag_bucket)

    def runs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["id", "pos"], kind="mergesort")
        ids = g["id"].to_numpy(np.int64)
        pos = g["pos"].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        lens = np.diff(np.r_[starts, len(ids)])
        rank = np.arange(len(ids), dtype=np.int64) - np.repeat(starts, lens)
        runkey = pos - rank
        rs = np.flatnonzero(np.r_[True, (ids[1:] != ids[:-1]) |
                                  (runkey[1:] != runkey[:-1])])
        rlen = np.diff(np.r_[rs, len(ids)])
        rdoc = ids[rs]
        dstart = np.flatnonzero(np.r_[True, rdoc[1:] != rdoc[:-1]])
        return pd.DataFrame({
            "id": rdoc[dstart],
            "max_dup_span": np.maximum.reduceat(rlen, dstart)
            + n - 1})

    res = bucketed_groups(flagged, "id", runs_bucket).to_pandas()
    if len(res) == 0:
        # no duplicated gram anywhere: to_pandas() on the empty result
        # drops columns, so build the empty lookup explicitly
        res_ref = ray.put(pd.Series(np.array([], np.int64),
                                    index=np.array([], np.int64)))
    else:
        res_ref = ray.put(pd.Series(
            res["max_dup_span"].to_numpy(np.int64),
            index=res["id"].to_numpy(np.int64)))

    def attach(t: pa.Table) -> pa.Table:
        ids = t[id_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        lut = ray.get(res_ref)
        out = lut.reindex(ids, fill_value=0).to_numpy(np.int64)
        return pa.table({"id": pa.array(ids),
                         "max_dup_span": pa.array(out)})

    return ds.map_batches(attach, batch_format="pyarrow",
                          zero_copy_batch=True)


def sorted_neighborhood_pairs(
    ds: "ray.data.Dataset",
    key_col: str,
    id_col: str,
    *,
    window: int,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Sorted-neighborhood method (SNM) candidate generation -- the
    classic entity-resolution blocking technique: order the corpus by
    a sort key and emit every pair of records within ``window``
    positions of each other (0 < rank_b - rank_a < window), i.e.
    exactly the pairs a ROW_NUMBER self-join
    ``b.rn - a.rn BETWEEN 1 AND window-1`` produces.  ``key_col`` must
    be int64 and (key, id) unique; ordering is (key, id) so the pair
    set is deterministic.

    Scale shape: global dense ranks come from
    :func:`..window.row_number_global` (range buckets + driver prefix
    counts -- no global sort); rows then land in SPAN buckets of B
    consecutive ranks, with only the ``window - 1`` rows at each span
    start replicated to the previous span as lookahead, so the
    exchange is corpus-sized + a window-sized fringe per span.  Each
    pair is generated exactly once, in the span owning its LEFT
    member; within a span ranks are dense, so the kernel is
    ``window - 1`` numpy shift-alignments, no per-row loop.  Returns
    (id_a, id_b, key_gap = key_b - key_a >= 0)."""
    from .window import bucketed_groups, row_number_global

    if window < 2:
        raise ValueError("window must be >= 2")
    span = max(window * 16, 256)

    numbered = row_number_global(ds, key_col, tie_cols=[id_col],
                                 out_col="_rn", n_buckets=n_buckets)

    def emit(g: pd.DataFrame) -> pd.DataFrame:
        rn = g["_rn"].to_numpy(np.int64) - 1  # 0-based
        gid = rn // span
        out = [pd.DataFrame({"_g": gid,
                             "_rn": rn,
                             id_col: g[id_col].to_numpy(),
                             key_col: g[key_col].to_numpy()})]
        look = (rn - gid * span) < (window - 1)
        look &= gid > 0
        if look.any():
            out.append(pd.DataFrame({
                "_g": gid[look] - 1,
                "_rn": rn[look],
                id_col: g[id_col].to_numpy()[look],
                key_col: g[key_col].to_numpy()[look]}))
        return pd.concat(out, ignore_index=True)

    spanned = numbered.map_batches(emit, batch_format="pandas")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for gid, gg in g.groupby("_g", sort=False):
            gg = gg.sort_values("_rn", kind="mergesort")
            rn = gg["_rn"].to_numpy(np.int64)
            ids = gg[id_col].to_numpy()
            keys = gg[key_col].to_numpy(np.int64)
            lo = int(gid) * span
            n = len(gg)
            # ranks are dense here, so distance-d partners align by
            # a plain slice shift
            for d in range(1, window):
                if n <= d:
                    break
                left_in_span = rn[: n - d] < lo + span
                out.append(pd.DataFrame({
                    "id_a": ids[: n - d][left_in_span],
                    "id_b": ids[d:][left_in_span],
                    "key_gap": (keys[d:][left_in_span]
                                - keys[: n - d][left_in_span])}))
        if not out:
            return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                                 "id_b": pd.Series([], dtype=np.int64),
                                 "key_gap": pd.Series([],
                                                      dtype=np.int64)})
        return pd.concat(out, ignore_index=True)

    return bucketed_groups(spanned, "_g", pairs, n_buckets=n_buckets)


_CDC_R = np.uint64(0x9E3779B97F4A7C15)  # odd -> invertible mod 2^64


def _inv_u64(r: np.uint64) -> np.uint64:
    """Modular inverse of an odd uint64 via Newton iteration."""
    x = r
    with np.errstate(over="ignore"):
        for _ in range(6):
            x = x * (np.uint64(2) - r * x)
    return x


_CDC_POW_CACHE: dict = {}


def _cdc_pow_lo(r: np.uint64) -> np.ndarray:
    """r^0..r^65535 (mod 2^64), cached per process."""
    key = ("lo", int(r))
    if key not in _CDC_POW_CACHE:
        t = np.empty(1 << 16, np.uint64)
        t[0] = 1
        with np.errstate(over="ignore"):
            for k in range(1, 1 << 16):
                t[k] = t[k - 1] * r
        _CDC_POW_CACHE[key] = t
    return _CDC_POW_CACHE[key]


def _cdc_pow_hi(r: np.uint64) -> np.ndarray:
    """(r^65536)^0..^65535 (mod 2^64), cached per process."""
    key = ("hi", int(r))
    if key not in _CDC_POW_CACHE:
        lo = _cdc_pow_lo(r)
        with np.errstate(over="ignore"):
            step = lo[-1] * r  # r^65536
            t = np.empty(1 << 16, np.uint64)
            t[0] = 1
            for k in range(1, 1 << 16):
                t[k] = t[k - 1] * step
        _CDC_POW_CACHE[key] = t
    return _CDC_POW_CACHE[key]


def _cdc_gear_table() -> np.ndarray:
    """256-entry splitmix64 byte table (deterministic)."""
    x = np.arange(256, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15))
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def cdc_chunk_stats(
    ds: "ray.data.Dataset",
    text_col: str,
    *,
    window: int = 16,
    mask_bits: int = 6,
    n_buckets: int | None = None,
) -> pa.Table:
    """Content-defined chunking dedup ratio (the rolling-hash
    boundary scheme behind backup dedup and chunk-level corpus
    dedup): a chunk boundary falls after byte i wherever the gear
    hash of the trailing ``window`` bytes has ``mask_bits`` low zero
    bits, so INSERTIONS SHIFT BOUNDARIES LOCALLY and shared content
    keeps identical chunks even when documents are prefixed/edited --
    the property fixed-size blocking lacks.  Expected chunk length is
    2^mask_bits bytes.  Returns one row: n_chunks, n_distinct,
    bytes_total, bytes_distinct (all int64).

    Scale shape: fully vectorized -- the batch collapses to one flat
    zero-copy UTF-8 stream; the gear hash is ``window`` shifted adds
    over the whole stream (no per-doc dispatch); chunk identities are
    O(1) polynomial span hashes from ONE prefix-sum pass (mod 2^64,
    Newton-inverse power rollback), so chunks are never materialized;
    the only exchange carries block-distinct ((hash, len) -> count)
    partials.  Doc boundaries force cuts, and windows crossing a doc
    start are suppressed, so chunking is per-document exact."""
    from ci_log_processing_ray.ops.window import bucketed_sum

    gear = _cdc_gear_table()
    mask = np.uint64((1 << mask_bits) - 1)
    rinv = _inv_u64(_CDC_R)

    def partial(t: pa.Table) -> pa.Table:
        flat, lens = _utf8_stream(t[text_col].combine_chunks())
        n = len(flat)
        offs = np.concatenate([[0], np.cumsum(lens)])
        if n == 0:
            return pa.table({"h": pa.array([], pa.uint64()),
                             "l": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        # windowed gear hash h_i = sum_j g[b_{i-j}] * r^j via ONE
        # prefix pass: h_i = (Q_i - Q_{i-W}) * r^i with
        # Q_i = cumsum(g_k * r^-k) -- O(1) passes instead of W shifted
        # adds (whole-stream temporaries were page-fault bound)
        g = gear[flat]
        with np.errstate(over="ignore"):
            # r^i and r^-i via two-level gather tables --
            # multiply.accumulate is a sequential uint64 reduce and
            # measured ~10x slower than these vectorized gathers
            i = np.arange(n, dtype=np.int64)
            lo_i, hi_i = i & 0xFFFF, i >> 16
            rp = _cdc_pow_lo(_CDC_R)[lo_i] * _cdc_pow_hi(_CDC_R)[hi_i]
            ip = _cdc_pow_lo(rinv)[lo_i] * _cdc_pow_hi(rinv)[hi_i]
            qz = np.zeros(n + 1, np.uint64)
            np.cumsum(g * ip, out=qz[1:])
            h = qz[1:].copy()
            h[window:] -= qz[1:n + 1 - window]
            h *= rp
        # boundary candidates first, validity (window inside one doc)
        # filtered on the ~sparse candidate set, not the byte stream
        cand = np.flatnonzero((h & mask) == 0) + 1
        di = np.searchsorted(offs, cand, side="right") - 1
        cand = cand[cand - offs[di] >= window]
        cuts = np.unique(np.concatenate([cand, offs]))
        s, e = cuts[:-1], cuts[1:]
        keep = e > s
        s, e = s[keep], e[keep]
        # polynomial span hashes from one more prefix pass (rp/ip
        # power tables reused from the boundary pass)
        with np.errstate(over="ignore"):
            pref = np.zeros(n + 1, np.uint64)
            np.cumsum(flat.astype(np.uint64) * rp, out=pref[1:])
            hh = (pref[e] - pref[s]) * ip[s]
        d = (pd.DataFrame({"h": hh, "l": (e - s).astype(np.int64)})
             .groupby(["h", "l"], as_index=False, sort=False).size()
             .rename(columns={"size": "cnt"}))
        return pa.table({"h": pa.array(d["h"].to_numpy(), pa.uint64()),
                         "l": pa.array(d["l"].to_numpy(np.int64)),
                         "cnt": pa.array(d["cnt"].to_numpy(np.int64))})

    summed = bucketed_sum(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["h", "l"], ["cnt"], n_buckets=n_buckets)

    def fold(t: pa.Table) -> pa.Table:
        l = t["l"].combine_chunks().to_numpy(zero_copy_only=False)
        c = t["cnt"].combine_chunks().to_numpy(zero_copy_only=False)
        lo = l.astype(object)  # Python ints: no wrap
        co = c.astype(object)
        return pa.table({
            "n_chunks": pa.array([int(co.sum())], pa.int64()),
            "n_distinct": pa.array([len(l)], pa.int64()),
            "bytes_total": pa.array([int((lo * co).sum())],
                                    pa.int64()),
            "bytes_distinct": pa.array([int(lo.sum())], pa.int64())})

    parts = summed.map_batches(fold, batch_format="pyarrow").to_pandas()
    if "n_chunks" not in parts.columns:
        z = pa.array([0], pa.int64())
        return pa.table({"n_chunks": z, "n_distinct": z,
                         "bytes_total": z, "bytes_distinct": z})
    return pa.table({c: pa.array([int(parts[c].sum())], pa.int64())
                     for c in ("n_chunks", "n_distinct",
                               "bytes_total", "bytes_distinct")})


def local_minima_fingerprints(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    *,
    k: int = 8,
    w: int = 5,
) -> "ray.data.Dataset":
    """Winnowing-family document fingerprinting by LOCAL-MINIMA
    selection: over the k-byte rolling-hash stream of each doc, select
    position i iff its hash is the strict minimum of the
    (2w-1)-neighborhood [i-w+1, i+w-1] (segment-truncated) -- the
    content-defined selection scheme shared by MOSS-style winnowing
    and local-minima chunking, giving position-shift-robust
    fingerprints at ~1/(2w-1) density (gaps bounded by the
    neighborhood width; unlike strict winnowing no per-window argmin
    tie rule is needed, so the spec stays exactly reproducible).

    Plan: pure map -- the shared `_window_hash_stream` front half (one
    zero-copy UTF-8 pass, ONE rolling hash for the whole batch), then
    two runs of the ROWS-frame doubling min kernel (forward + reversed
    stream) and a compare; per-doc (n_windows, n_selected,
    checksum = sum of selected hashes mod 1e9+7) fold by reduceat.
    Rows-only (rolling hashes are not SQL-expressible); a brute-force
    parity test pins the selection rule."""

    def kern(t: pa.Table) -> pa.Table:
        ids = t[id_col].combine_chunks().to_numpy().astype(np.int64)
        sh, counts, seg_starts, n = _window_hash_stream(
            t[text_col].combine_chunks(), k)
        if n == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "n_windows": pa.array([], pa.int64()),
                "n_selected": pa.array([], pa.int64()),
                "fp_checksum": pa.array([], pa.int64())})
        total = len(sh)

        # within-segment index r for the forward pass
        idx = np.arange(total, dtype=np.int64)
        starts_mask = np.zeros(total, dtype=bool)
        starts_mask[seg_starts[counts > 0]] = True
        base = np.maximum.accumulate(np.where(starts_mask, idx, 0))
        r = idx - base

        def roll_min(vals: np.ndarray, rr: np.ndarray, win: int):
            m = vals.copy()
            s = 1
            while s < win:
                half = min(s, win - s)
                shifted = np.empty_like(m)
                shifted[:half] = m[:half]
                shifted[half:] = m[:-half]
                valid = rr >= half
                m = np.where(valid, np.minimum(m, shifted), m)
                s += half
            return m

        # min over [i-w+1, i] forward; min over [i, i+w-1] via the
        # reversed stream (segments reverse in place: same r works on
        # the flipped array because counts are symmetric per segment)
        fwd = roll_min(sh, r, w)
        rev = roll_min(sh[::-1], _rev_r(counts, total), w)[::-1]
        # selected iff h equals BOTH inclusive one-sided minima, i.e.
        # the (2w-1)-neighborhood minimum; 61-bit hash ties keep all
        # tied positions (deterministic, parity-tested)
        sel = (sh == fwd) & (sh == rev)

        seli = sel.astype(np.int64)
        chk = np.where(sel, sh % np.uint64(1_000_000_007),
                       np.uint64(0)).astype(np.int64)
        n_sel = np.zeros(n, np.int64)
        csum = np.zeros(n, np.int64)
        nz = counts > 0
        if total:
            n_sel[nz] = np.add.reduceat(seli, seg_starts[nz])
            csum[nz] = np.add.reduceat(chk, seg_starts[nz])
        return pa.table({
            id_col: pa.array(ids),
            "n_windows": pa.array(counts.astype(np.int64)),
            "n_selected": pa.array(n_sel),
            "fp_checksum": pa.array(csum)})

    return ds.map_batches(kern, batch_format="pyarrow",
                          zero_copy_batch=True)


def _rev_r(counts: np.ndarray, total: int) -> np.ndarray:
    """Within-segment indices for the REVERSED window-hash stream:
    segment order flips end-to-front, so the reversed stream's segment
    lengths are counts[::-1] and r is rebuilt from those."""
    rc = counts[::-1]
    rc = rc[rc > 0]
    idx = np.arange(total, dtype=np.int64)
    starts = np.zeros(len(rc), dtype=np.int64)
    np.cumsum(rc[:-1], out=starts[1:])
    starts_mask = np.zeros(total, dtype=bool)
    starts_mask[starts] = True
    base = np.maximum.accumulate(np.where(starts_mask, idx, 0))
    return idx - base
