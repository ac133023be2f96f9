#!/usr/bin/env python
"""LLM-ops scale proof: the dedup/curation operators at 100x documents.

Builds a deterministic 500k-doc corpus (sf0.1's 5,000 documents x 100
replicas, written once to /tmp as 32 parquet shards) with PLANTED
duplication -- every 10th replica is an exact copy, the rest get a
replica-unique marker word appended -- so exact-dup results have a
closed-form truth to verify against while the corpus is 100x anything
the per-round bench touches.  Runs the headline LLM-data operators at
full parallelism and prints ONE JSON line of per-op wall time +
docs/sec, verifying the planted counts where closed-form truth exists.

Usage: python scale_proof.py              (text ops; ~2 GiB of text)
       python scale_proof.py embeddings   (embedding ops at 500k vectors)

The embeddings mode replicates sf0.1's 2,000 unit-norm 64-dim vectors
250x with planted families: every 10th replica an EXACT copy, the rest
perturbed to cosine ~0.9988 with their original -- while the max
cosine between two distinct ORIGINALS is 0.601 (measured), so any
>=0.95 near-dup relation is family-internal by construction and every
ANN / dedup / clustering result has a closed-form family-purity truth.
"""
from __future__ import annotations

import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

SRC = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
REPLICAS = int(os.environ.get("GRAFT_SCALE_REPLICAS", "100"))
NCPU = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
N_SHARDS = 32
CORPUS = f"/tmp/llm_scale_corpus_r{REPLICAS}_v1"

def _calib() -> float:
    """bench.py's host-speed yardstick (min-of-3 single-thread fixed
    workload), emitted with every proof line so cross-run absolute wall
    times can be normalized against the box's ~1.5-4x noise waves."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((1024, 1024))
    x = rng.random(4_000_000)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        (a @ a).sum()
        np.sort(x, kind="stable")
        best = min(best, time.perf_counter() - t0)
    return round(best, 4)



def build_corpus() -> tuple[int, int]:
    """Replicate documents REPLICAS x with planted duplication.

    Replica r of doc d keeps doc_id = d * REPLICAS + r.  r % 10 == 0 ->
    exact text copy (10 exact copies per original at REPLICAS=100);
    otherwise ' v<r>' is appended, making the text replica-unique.
    Deterministic, shard-parallel, written once (marker-file cached).
    """
    marker = os.path.join(CORPUS, ".done")
    base = pq.read_table(os.path.join(SRC, "documents.parquet"),
                         columns=["doc_id", "source", "text"])
    n_base = base.num_rows
    if os.path.exists(marker):
        with open(marker) as f:
            return json.load(f)["n_rows"], n_base
    os.makedirs(CORPUS, exist_ok=True)
    ids = base["doc_id"].to_numpy()
    texts = base["text"].to_pandas().to_numpy()
    srcs = base["source"].to_pandas().to_numpy()
    total = 0
    per_shard = (REPLICAS + N_SHARDS - 1) // N_SHARDS
    for shard in range(N_SHARDS):
        lo, hi = shard * per_shard, min((shard + 1) * per_shard, REPLICAS)
        if lo >= hi:
            continue
        parts = []
        for r in range(lo, hi):
            t = texts if r % 10 == 0 else np.char.add(
                texts.astype(str), f" v{r}")
            parts.append(pa.table({
                "doc_id": pa.array(ids * REPLICAS + r, pa.int64()),
                "source": pa.array(srcs, pa.string()),
                "text": pa.array(t, pa.string()),
            }))
        out = pa.concat_tables(parts)
        total += out.num_rows
        tmp = os.path.join(CORPUS, f".tmp-{shard:04d}.parquet")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(CORPUS, f"part-{shard:04d}.parquet"))
    with open(marker, "w") as f:
        json.dump({"n_rows": total}, f)
    return total, n_base


REPLICAS_E = int(os.environ.get("GRAFT_SCALE_EMB_REPLICAS", "250"))
CORPUS_E = f"/tmp/llm_scale_emb_r{REPLICAS_E}_v1"


def build_emb_corpus() -> tuple[int, int]:
    """Replicate embeddings REPLICAS_E x with planted families.

    Replica r of vec v keeps vec_id = v * REPLICAS_E + r.  r % 10 == 0
    -> exact copy (25 exact copies per original at 250); otherwise
    normalize(v + 0.05 * noise(seed=(r))) -- cosine ~0.9988 to the
    original, far above any cross-original cosine (max 0.601).
    Deterministic, written once (marker-file cached).
    """
    import numpy as np

    marker = os.path.join(CORPUS_E, ".done")
    base = pq.read_table(os.path.join(SRC, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])
    n_base = base.num_rows
    if os.path.exists(marker):
        with open(marker) as f:
            return json.load(f)["n_rows"], n_base
    os.makedirs(CORPUS_E, exist_ok=True)
    ids = base["vec_id"].to_numpy()
    v = np.vstack(base["embedding"].to_pandas().to_numpy()).astype(
        np.float64)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    total = 0
    per_shard = (REPLICAS_E + N_SHARDS - 1) // N_SHARDS
    for shard in range(N_SHARDS):
        lo, hi = shard * per_shard, min((shard + 1) * per_shard,
                                        REPLICAS_E)
        if lo >= hi:
            continue
        parts = []
        for r in range(lo, hi):
            if r % 10 == 0:
                w = v
            else:
                rng = np.random.default_rng(1000 + r)
                w = v + 0.05 * rng.standard_normal(v.shape)
                w /= np.linalg.norm(w, axis=1, keepdims=True)
            parts.append(pa.table({
                "vec_id": pa.array(ids * REPLICAS_E + r, pa.int64()),
                "embedding": pa.array(
                    list(w.astype(np.float32)),
                    type=pa.list_(pa.float32())),
            }))
        out = pa.concat_tables(parts)
        total += out.num_rows
        tmp = os.path.join(CORPUS_E, f".tmp-{shard:04d}.parquet")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(CORPUS_E, f"part-{shard:04d}.parquet"))
    with open(marker, "w") as f:
        json.dump({"n_rows": total}, f)
    return total, n_base


def main_embeddings() -> None:
    import numpy as np
    import ray
    from ray.data import DataContext

    n_rows, n_base = build_emb_corpus()
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.dedup import (
            embedding_dedup, semdedup)
        from ci_log_processing_ray.ops.similarity import (
            knn_bruteforce, knn_graph_ivf, knn_ivf, pca_project,
            quantize_embeddings)

        def read():
            return ray.data.read_parquet(CORPUS_E)

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        results: dict[str, dict] = {}

        def run(name, fn, check=None):
            t0 = time.perf_counter()
            out = fn()
            if hasattr(out, "to_pandas"):
                out = out.to_pandas()
            sec = time.perf_counter() - t0
            results[name] = {"sec": round(sec, 2),
                             "vecs_per_sec": round(n_rows / sec),
                             "out_rows": len(out)}
            if check is not None:
                check(out)

        def fam(ids):
            return np.asarray(ids, np.int64) // REPLICAS_E

        base = pq.read_table(os.path.join(SRC, "embeddings.parquet"),
                             columns=["vec_id", "embedding"])
        q = np.vstack(base["embedding"].to_pandas().to_numpy()[:16]).astype(
            np.float64)
        q_fams = base["vec_id"].to_numpy()[:16]

        # brute force: queries ARE family originals, so every top-10 hit
        # must be in-family (25 exact copies at cosine 1.0 + 225
        # near-dups at ~0.9988 vs <=0.601 cross-family)
        def check_bf(out):
            assert (fam(out["vec_id"]) ==
                    np.repeat(q_fams, 10)).all()

        run("knn_bruteforce",
            lambda: knn_bruteforce(read(), "embedding", "vec_id",
                                   q, list(range(16)), k=10), check_bf)

        # IVF probes a subset of lists; family tightness makes recall
        # near-perfect -- assert >= 80% in-family as the probe contract
        def check_ivf(out):
            ok = (fam(out["vec_id"]) ==
                  np.asarray(out["query_id"].map(
                      dict(enumerate(q_fams))), np.int64))
            assert ok.mean() >= 0.8, ok.mean()

        run("knn_ivf",
            lambda: knn_ivf(read(), "embedding", "vec_id",
                            q, list(range(16)), k=10,
                            n_centroids=64, n_probe=8), check_ivf)

        # LSH-bucketed near-dup: every cluster must be family-pure, and
        # each family's 25 EXACT copies always share a bucket, so
        # clustered rows >= 25 per family
        def check_purity(out):
            assert (fam(out["vec_id"]) == fam(out["cluster_rep"])).all()
            assert len(out) >= n_base * 25, len(out)

        run("embedding_dedup",
            lambda: embedding_dedup(read(), "embedding", "vec_id",
                                    cosine_threshold=0.95),
            check_purity)

        run("semdedup",
            lambda: semdedup(read(), "embedding", "vec_id",
                             k=256, cosine_threshold=0.95, n_iter=4),
            check_purity)

        # IVF k-NN graph: family members are near-identical (cosine
        # ~0.9988 in-family vs 0.601 max cross-family), so each
        # vector's top-1 must be IN-FAMILY and every vector covered --
        # the recall contract semantic dedup at corpus scale rests on
        def check_graph(out):
            ok = fam(out["vec_id"].to_numpy()) == fam(
                out["nn_id"].to_numpy())
            assert ok.mean() >= 0.99, ok.mean()
            assert len(out) == n_rows, len(out)

        run("knn_graph_ivf",
            lambda: knn_graph_ivf(read(), "embedding", "vec_id", k=1,
                                  n_centroids=256, nprobe=2),
            check_graph)

        run("pca_project",
            lambda: pca_project(read(), "embedding", "vec_id",
                                n_components=2),
            lambda out: (_ for _ in ()).throw(AssertionError(len(out)))
            if len(out) != n_rows else None)

        run("quantize_int8",
            lambda: quantize_embeddings(read(), "embedding", "vec_id"),
            lambda out: (_ for _ in ()).throw(AssertionError(len(out)))
            if len(out) != n_rows else None)

        print(json.dumps({
            "corpus_vecs": n_rows,
            "replicas": REPLICAS_E,
            "num_cpus": NCPU,
            "ops": results, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


N_FAM = int(os.environ.get("GRAFT_SCALE_GRAPH_FAMILIES", "20000"))
FAM_C = 100           # nodes per family
EXTRA_PER_FAM = 900   # random intra-family edges (family 0 stays a pure chain)
CORPUS_G = f"/tmp/llm_scale_graph_f{N_FAM}_v1"


def build_graph_corpus() -> tuple[int, int]:
    """Deterministic 2M-node / ~20M-edge graph with closed-form truth.

    Family f owns node ids [f*100, (f+1)*100): a 99-edge chain plus 900
    random intra-family edges (family 0 gets NO extra edges, so its
    BFS distances from node 0 are exactly the chain positions).  Every
    component is one family -> connected_components' label (min
    reachable id) must equal (node // 100) * 100 for every node.

    10% of all edges are scattered round-robin across OTHER shards
    (deterministically), so phase-1 local contraction sees foreign
    edges and the boundary graph is genuinely exercised -- with
    family-contiguous shards alone the cross-block boundary would be
    empty and phase 2 trivial.
    """
    import numpy as np

    marker = os.path.join(CORPUS_G, ".done")
    if os.path.exists(marker):
        with open(marker) as f:
            d = json.load(f)
            return d["n_edges"], d["n_nodes"]
    os.makedirs(CORPUS_G, exist_ok=True)
    per_shard = (N_FAM + N_SHARDS - 1) // N_SHARDS
    n_edges = 0
    scattered: list = []  # (dest_shard, src, dst) spill from each shard
    shards_local: list = []
    for shard in range(N_SHARDS):
        lo, hi = shard * per_shard, min((shard + 1) * per_shard, N_FAM)
        fams = np.arange(lo, hi, dtype=np.int64)
        base = fams * FAM_C
        # chain edges: base+i -> base+i+1 for i in 0..98
        off = np.arange(FAM_C - 1, dtype=np.int64)
        src = (base[:, None] + off[None, :]).reshape(-1)
        dst = src + 1
        # extra random intra-family edges (skip family 0)
        rng = np.random.default_rng(7000 + shard)
        ex_f = np.repeat(fams, EXTRA_PER_FAM)
        a = rng.integers(0, FAM_C, size=len(ex_f)).astype(np.int64)
        b = rng.integers(0, FAM_C, size=len(ex_f)).astype(np.int64)
        keep = ex_f != 0
        ex_src = (ex_f * FAM_C + a)[keep]
        ex_dst = (ex_f * FAM_C + b)[keep]
        s = np.concatenate([src, ex_src])
        d = np.concatenate([dst, ex_dst])
        # scatter every 10th edge to a rotating foreign shard
        idx = np.arange(len(s))
        is_scatter = idx % 10 == 9
        for t in range(N_SHARDS):
            m = is_scatter & (idx % N_SHARDS == t)
            if t != shard and m.any():
                scattered.append((t, s[m], d[m]))
        local = ~is_scatter | (idx % N_SHARDS == shard)
        shards_local.append((s[local], d[local]))
        n_edges += len(s)
    for shard in range(N_SHARDS):
        s_parts = [shards_local[shard][0]] + [
            x[1] for x in scattered if x[0] == shard]
        d_parts = [shards_local[shard][1]] + [
            x[2] for x in scattered if x[0] == shard]
        out = pa.table({
            "src": pa.array(np.concatenate(s_parts)),
            "dst": pa.array(np.concatenate(d_parts))})
        tmp = os.path.join(CORPUS_G, f".tmp-{shard:04d}.parquet")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(CORPUS_G, f"part-{shard:04d}.parquet"))
    n_nodes = N_FAM * FAM_C
    with open(marker, "w") as f:
        json.dump({"n_edges": n_edges, "n_nodes": n_nodes}, f)
    return n_edges, n_nodes


def main_graph() -> None:
    import numpy as np
    import ray
    from ray.data import DataContext

    n_edges, n_nodes = build_graph_corpus()
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.iterative import (
            bfs_hops, connected_components, pagerank_fixedpoint)

        def read():
            return ray.data.read_parquet(CORPUS_G)

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        results: dict[str, dict] = {}

        def run(name, fn, check=None):
            t0 = time.perf_counter()
            out = fn()
            if hasattr(out, "to_pandas"):
                out = out.to_pandas()
            sec = time.perf_counter() - t0
            results[name] = {"sec": round(sec, 2),
                             "edges_per_sec": round(n_edges / sec),
                             "out_rows": len(out)}
            if check is not None:
                check(out)

        # every component is one family: label = (node // 100) * 100
        def check_cc(out):
            node = out["node"].to_numpy()
            comp = out["component"].to_numpy()
            assert len(out) == n_nodes, len(out)
            assert (comp == (node // FAM_C) * FAM_C).all()

        run("connected_components",
            lambda: connected_components(read(), "src", "dst",
                                         boundary_cap=20_000_000),
            check_cc)

        # family 0 is a pure chain: hops from node 0 are chain positions
        def check_bfs(out):
            got = dict(zip(out["node"].to_numpy(),
                           out["hops"].to_numpy()))
            assert got == {i: i for i in range(5)}, got

        run("bfs_hops",
            lambda: bfs_hops(read(), "src", "dst",
                             ray.data.from_items([{"node": 0}]),
                             n_rounds=4),
            check_bfs)

        # 3 fixed-point rounds; min rank >= the teleport floor term
        scale = 10 ** 12

        def check_pr(out):
            assert int(out["rank_fp"].min()) >= (15 * scale) // (
                100 * n_nodes)

        run("pagerank_3r",
            lambda: pagerank_fixedpoint(read(), "src", "dst", n_iter=3,
                                        scale=scale),
            check_pr)

        # bounded-hop weighted SSSP: weights synthesized per edge as
        # 1 + src % 3; family 0 is a pure chain, so from seed 0 the
        # 4-round distances are the exact weight prefix sums
        from ci_log_processing_ray.ops.iterative import (
            sssp_weighted_resident)

        def read_weighted():
            def add_w(t: pa.Table) -> pa.Table:
                s = t["src"].combine_chunks().to_numpy()
                return t.append_column("w", pa.array(1 + s % 3))
            return ray.data.read_parquet(CORPUS_G).map_batches(
                add_w, batch_format="pyarrow", zero_copy_batch=True)

        t0 = time.perf_counter()
        sp = sssp_weighted_resident(
            read_weighted(), "src", "dst", "w",
            ray.data.from_items([{"node": 0}]),
            n_rounds=4, n_shards=NCPU)
        sec = time.perf_counter() - t0
        got_sp = dict(zip(sp["node"].to_numpy(), sp["dist"].to_numpy()))
        pref = np.cumsum(1 + np.arange(4) % 3)
        want_sp = {0: 0} | {i + 1: int(pref[i]) for i in range(4)}
        assert got_sp == want_sp, got_sp
        results["sssp_4r_resident"] = round(sec, 2)

        # GNN neighbor aggregation with f(node) = node id.  Truths:
        # (a) family 0 is a pure chain with no in-edges from anywhere
        #     else, so h1(v)=(v-1,1) for v in 1..99 and h2(v)=(v-2,1)
        #     for v in 2..99 (node 1: no length-2 in-path);
        # (b) global identities: sum(h1_n) == |E| (one path per edge)
        #     and sum(h1_sum) == sum over edges of src -- both checked
        #     against an independent DuckDB scan of the corpus.
        from ci_log_processing_ray.ops.iterative import (
            neighbor_feature_agg)

        import duckdb

        eck = duckdb.sql(
            f"SELECT SUM(src), COUNT(*) FROM '{CORPUS_G}/*.parquet'"
        ).fetchone()
        sum_src, cnt_e = int(eck[0]), int(eck[1])
        assert cnt_e == n_edges

        def mk_feats():
            def f(t: pa.Table) -> pa.Table:
                ids = t["id"].combine_chunks().cast(pa.int64())
                return pa.table({"node": ids, "f": ids})
            return ray.data.range(
                n_nodes, override_num_blocks=NCPU * 4).map_batches(
                f, batch_format="pyarrow", zero_copy_batch=True)

        def check_nagg(out):
            assert int(out["h1_n"].sum()) == n_edges
            assert int(out["h1_sum"].sum()) == sum_src
            fam0 = out[out["node"] < FAM_C].sort_values("node")
            v = fam0["node"].to_numpy()
            assert (v == np.arange(1, FAM_C)).all()
            assert (fam0["h1_sum"].to_numpy() == v - 1).all()
            assert (fam0["h1_n"].to_numpy() == 1).all()
            h2n = fam0["h2_n"].to_numpy()
            h2s = fam0["h2_sum"].to_numpy()
            assert h2n[0] == 0 and h2s[0] == 0  # node 1
            assert (h2n[1:] == 1).all()
            assert (h2s[1:] == v[1:] - 2).all()

        run("neighbor_agg_2hop",
            lambda: neighbor_feature_agg(read(), "src", "dst",
                                         mk_feats(), "node", "f"),
            check_nagg)

        print(json.dumps({
            "n_edges": n_edges,
            "n_nodes": n_nodes,
            "num_cpus": NCPU,
            "ops": results, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


def main() -> None:
    import ray
    from ray.data import DataContext

    n_rows, n_base = build_corpus()
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.curation import dsir_select
        from ci_log_processing_ray.ops.dedup import (
            exact_dedup, minhash_lsh_dedup, simhash_clusters)
        from ci_log_processing_ray.ops.textstats import (
            gopher_rules, token_count_bpe)

        def read():
            return ray.data.read_parquet(CORPUS)

        # untimed warmup: start worker processes and pre-import the hot
        # modules so op timings measure compute, not interpreter startup
        def _warm_worker(b):
            import ci_log_processing_ray.ops.dedup  # noqa: F401
            import ci_log_processing_ray.ops.textstats  # noqa: F401

            return b

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            _warm_worker).count()

        results: dict[str, dict] = {}

        def run(name, fn, check=None):
            t0 = time.perf_counter()
            out = fn()
            if hasattr(out, "to_pandas"):
                out = out.to_pandas()
            sec = time.perf_counter() - t0
            results[name] = {"sec": round(sec, 2),
                             "docs_per_sec": round(n_rows / sec),
                             "out_rows": len(out)}
            if check is not None:
                check(out)

        # exact dedup: each original text occurs REPLICAS//10 times as an
        # exact copy (plus each marked replica is unique).  sf0.1 has a
        # handful of cross-doc duplicate texts of its own, so assert
        # bounds from the planted structure, not strict equality.
        n_copies = REPLICAS // 10

        def check_exact(out):
            assert len(out) <= n_base * (REPLICAS - n_copies + 1), len(out)
            assert (out["dup_count"] >= 1).all()
            if n_copies >= 2:
                dup_groups = out[out["dup_count"] >= n_copies]
                assert len(dup_groups) <= n_base, len(dup_groups)

        run("exact_dedup",
            lambda: exact_dedup(read(), "text", "doc_id"), check_exact)

        # minhash must catch the planted exact-copy groups (jaccard 1.0
        # pairs are always banded together) -- clusters >= the planted
        # group count signals recall, not a hard truth (near-dups from
        # the marker-word perturbation may legitimately join).
        def check_minhash(out):
            assert len(out) >= n_base, len(out)

        run("minhash_dedup",
            lambda: minhash_lsh_dedup(read(), "text", "doc_id",
                                      jaccard_threshold=0.9),
            check_minhash)

        run("simhash", lambda: simhash_clusters(read(), "text", "doc_id"))
        run("gopher_rules",
            lambda: gopher_rules(read(), "text", "doc_id"),
            lambda out: (_ for _ in ()).throw(AssertionError(len(out)))
            if len(out) != n_rows else None)
        run("dsir_select",
            lambda: dsir_select(read(), "text", "doc_id", "source",
                                "src3", k=100),
            lambda out: None if len(out) == 100 else (_ for _ in ()).throw(
                AssertionError(len(out))))
        run("token_count_bpe",
            lambda: token_count_bpe(read(), "text", "source"))

        print(json.dumps({
            "corpus_docs": n_rows,
            "replicas": REPLICAS,
            "num_cpus": NCPU,
            "ops": results, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


CORPUS_SKY = "/tmp/skyline_scale_v1"
SKY_GROUPS = 256
SKY_F = 64          # frontier points per group
SKY_B = 1024        # staircase step
SKY_FILLERS = 20_000_000


def build_skyline_corpus() -> int:
    """Deterministic 20M-row (g, c, s) table with a PLANTED frontier.

    A minimize-c / maximize-s frontier is an antichain, so s must
    INCREASE with c: each group's planted skyline is the staircase
    (c = i*B, s = (i+1)*B).  Every filler sits strictly below the step
    at its own c (s < (c // B + 1) * B), so it is dominated by frontier
    point c // B and can dominate no frontier point j >= c // B (that
    would need s >= (j+1)*B).  Closed-form truth: the skyline is
    EXACTLY the GROUPS x F planted points.  Frontier points are
    scattered round-robin across shards so the global merge is
    genuinely cross-block.
    """
    import numpy as np

    marker = os.path.join(CORPUS_SKY, ".done")
    if os.path.exists(marker):
        with open(marker) as f:
            return json.load(f)["n_rows"]
    os.makedirs(CORPUS_SKY, exist_ok=True)
    fg = np.repeat(np.arange(SKY_GROUPS, dtype=np.int64), SKY_F)
    fi = np.tile(np.arange(SKY_F, dtype=np.int64), SKY_GROUPS)
    fc = fi * SKY_B
    fs = (fi + 1) * SKY_B
    fshard = (fg * SKY_F + fi) % N_SHARDS
    per_shard = SKY_FILLERS // N_SHARDS
    n_rows = 0
    for shard in range(N_SHARDS):
        rng = np.random.default_rng(9000 + shard)
        g = rng.integers(0, SKY_GROUPS, per_shard).astype(np.int64)
        c = rng.integers(0, SKY_F * SKY_B, per_shard).astype(np.int64)
        s = rng.integers(0, 1 << 62, per_shard) % ((c // SKY_B + 1) * SKY_B)
        m = fshard == shard
        out = pa.table({
            "g": pa.array(np.concatenate([g, fg[m]])),
            "c": pa.array(np.concatenate([c, fc[m]])),
            "s": pa.array(np.concatenate([s, fs[m]]))})
        tmp = os.path.join(CORPUS_SKY, f".tmp-{shard:04d}.parquet")
        pq.write_table(out, tmp)
        os.replace(tmp,
                   os.path.join(CORPUS_SKY, f"part-{shard:04d}.parquet"))
        n_rows += len(out)
    with open(marker, "w") as f:
        json.dump({"n_rows": n_rows}, f)
    return n_rows


def main_skyline() -> None:
    import numpy as np
    import ray
    from ray.data import DataContext

    n_rows = build_skyline_corpus()
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.relational import skyline_2d

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        t0 = time.perf_counter()
        out = skyline_2d(
            ray.data.read_parquet(CORPUS_SKY), "g", "c", "s").to_pandas()
        sec = time.perf_counter() - t0

        assert len(out) == SKY_GROUPS * SKY_F, len(out)
        c = out["c"].to_numpy()
        s = out["s"].to_numpy()
        assert (c % SKY_B == 0).all()
        assert (s == (c // SKY_B + 1) * SKY_B).all()

        print(json.dumps({
            "n_rows": n_rows,
            "num_cpus": NCPU,
            "ops": {"skyline_2d": {
                "sec": round(sec, 2),
                "rows_per_sec": round(n_rows / sec),
                "out_rows": len(out)}},
            "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


CORPUS_J = "/tmp/join_scale_v1"
J_DIM_KEYS = 1_000_000
J_HOT_KEYS = 5
J_HOT_ROWS = 2_000_000       # per hot key
J_COLD_ROWS = 40_000_000


def build_join_corpus() -> dict:
    """Deterministic 50M-row fact / 1M-row dim join corpus with PLANTED
    skew: keys 0..4 hold 2M fact rows EACH (10M rows on 5 keys -- the
    hot-CI-job shape the north rule names), the other 40M rows are
    uniform over [0, 1M).  fact_val = 3k+1, dim_val = 7k+2, so the
    joined sum(fact_val + dim_val) = sum over fact rows of (10k + 3)
    -- a closed form accumulated exactly (Python ints) at build time.
    """
    import numpy as np

    marker = os.path.join(CORPUS_J, ".done")
    if os.path.exists(marker):
        with open(marker) as f:
            return json.load(f)
    os.makedirs(CORPUS_J, exist_ok=True)
    # dim: 8 shards of 125k keys
    dim_shards = 8
    per = J_DIM_KEYS // dim_shards
    for shard in range(dim_shards):
        k = np.arange(shard * per, (shard + 1) * per, dtype=np.int64)
        out = pa.table({"dkey": pa.array(k),
                        "dim_val": pa.array(7 * k + 2)})
        tmp = os.path.join(CORPUS_J, f".tmp-dim-{shard:04d}.parquet")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(CORPUS_J, f"dim-{shard:04d}.parquet"))
    # fact: hot rows spread across every shard (a hot CI job's logs land
    # on many input files; the skew shows up at the JOIN key, not the
    # file layout)
    key_sum = 0
    n_rows = 0
    hot_per_shard = J_HOT_ROWS // N_SHARDS
    cold_per_shard = J_COLD_ROWS // N_SHARDS
    for shard in range(N_SHARDS):
        rng = np.random.default_rng(11000 + shard)
        hot = np.repeat(np.arange(J_HOT_KEYS, dtype=np.int64),
                        hot_per_shard)
        cold = rng.integers(0, J_DIM_KEYS, cold_per_shard).astype(np.int64)
        k = np.concatenate([hot, cold])
        rid = (np.arange(len(k), dtype=np.int64)
               + shard * (len(k) + 7))  # unique-ish salt source
        out = pa.table({"key": pa.array(k),
                        "fact_val": pa.array(3 * k + 1),
                        "rid": pa.array(rid)})
        tmp = os.path.join(CORPUS_J, f".tmp-fact-{shard:04d}.parquet")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(CORPUS_J, f"fact-{shard:04d}.parquet"))
        key_sum += int(k.sum())
        n_rows += len(k)
    info = {"n_fact": n_rows, "n_dim": J_DIM_KEYS,
            "expected_sum": 10 * key_sum + 3 * n_rows}
    with open(marker, "w") as f:
        json.dump(info, f)
    return info


def main_join() -> None:
    import numpy as np
    import ray
    from ray.data import DataContext

    info = build_join_corpus()
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.relational import auto_salted_join

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        def read_fact():
            return ray.data.read_parquet(
                sorted(__import__("glob").glob(
                    os.path.join(CORPUS_J, "fact-*.parquet"))))

        def read_dim():
            return ray.data.read_parquet(
                sorted(__import__("glob").glob(
                    os.path.join(CORPUS_J, "dim-*.parquet"))))

        def checksum(joined):
            # streaming fold: per-batch partial (count, sum) -- Python
            # ints on the driver, never a full materialization
            def part(t: pa.Table) -> pa.Table:
                fv = t["fact_val"].combine_chunks().to_numpy()
                dv = t["dim_val"].combine_chunks().to_numpy()
                return pa.table({
                    "n": pa.array([len(t)], pa.int64()),
                    "s": pa.array([int(fv.sum()) + int(dv.sum())],
                                  pa.int64())})

            tot_n = tot_s = 0
            for b in joined.map_batches(
                    part, batch_format="pyarrow").iter_batches(
                        batch_format="pyarrow"):
                tot_n += int(b["n"].to_numpy().sum())
                tot_s += int(b["s"].to_numpy().sum())
            return tot_n, tot_s

        results = {}
        for name, fn in [
            # adaptive: detection sees the 2M-row hot keys FIT the
            # 32-way partition budget and takes the plain-join fast path
            ("auto_salted_join", lambda: auto_salted_join(
                read_fact(), read_dim(), "key", "dkey", "rid",
                hot_permille=10, n_salt=NCPU)),
            # forced-salt: the full salted plan, for the cost comparison
            ("forced_salted_join", lambda: auto_salted_join(
                read_fact(), read_dim(), "key", "dkey", "rid",
                hot_permille=10, n_salt=NCPU,
                partition_budget_factor=0)),
            ("plain_join", lambda: read_fact().join(
                read_dim(), "inner", num_partitions=NCPU,
                on=("key",), right_on=("dkey",))),
        ]:
            t0 = time.perf_counter()
            n, s = checksum(fn())
            sec = time.perf_counter() - t0
            assert n == info["n_fact"], (name, n)
            assert s == info["expected_sum"], (name, s)
            results[name] = {"sec": round(sec, 2),
                             "rows_per_sec": round(n / sec)}

        print(json.dumps({
            "n_fact": info["n_fact"], "n_dim": info["n_dim"],
            "hot_keys": J_HOT_KEYS, "hot_rows_per_key": J_HOT_ROWS,
            "num_cpus": NCPU, "ops": results, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


CORPUS_W = "/tmp/window_scale_v1"
W_USERS = 1_000_000
W_EVENTS = 50                # per user: 10 sessions x 5 events
W_PER_SESSION = 5


def build_window_corpus() -> int:
    """Deterministic 50M-event telemetry corpus with PER-ROW session
    truth: user u's event j (j in 0..49) fires at
    ts = (j // 5) h + (j % 5) s, so with a 30-min session gap the true
    session id of EVERY row is j // 5 -- a closed form each output row
    is checked against in a streaming pass (no driver materialization
    of the 50M-row result).  Rows are round-robin scattered across all
    32 shards by global index, so every user's events span every
    shard and the sessionize exchange is genuinely corpus-wide."""
    import numpy as np

    marker = os.path.join(CORPUS_W, ".done")
    if os.path.exists(marker):
        with open(marker) as f:
            return json.load(f)["n_rows"]
    os.makedirs(CORPUS_W, exist_ok=True)
    total = W_USERS * W_EVENTS
    per_shard = total // N_SHARDS
    n_rows = 0
    for shard in range(N_SHARDS):
        idx = shard + N_SHARDS * np.arange(per_shard, dtype=np.int64)
        u = idx // W_EVENTS
        j = idx % W_EVENTS
        ts_us = ((j // W_PER_SESSION) * 3_600_000_000
                 + (j % W_PER_SESSION) * 1_000_000)
        out = pa.table({
            "user": pa.array(u),
            "j": pa.array(j),
            "ts": pa.array(ts_us.astype("datetime64[us]")),
        })
        tmp = os.path.join(CORPUS_W, f".tmp-{shard:04d}.parquet")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(CORPUS_W, f"part-{shard:04d}.parquet"))
        n_rows += len(out)
    with open(marker, "w") as f:
        json.dump({"n_rows": n_rows}, f)
    return n_rows


def main_window() -> None:
    import datetime

    import numpy as np
    import ray
    from ray.data import DataContext

    n_rows = build_window_corpus()
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.window import (runs_by_group,
                                                      sessionize)

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        def read():
            return ray.data.read_parquet(CORPUS_W)

        results = {}

        # sessionize: every output row's session_id must equal j // 5;
        # verified in a streaming map (per-batch vectorized assert +
        # count partial), never materializing the 50M-row result
        t0 = time.perf_counter()
        out = sessionize(read(), "user", "ts",
                         gap=datetime.timedelta(minutes=30),
                         tiebreak_cols=["j"])

        def check(t: pa.Table) -> pa.Table:
            sid = t["session_id"].combine_chunks().to_numpy()
            j = t["j"].combine_chunks().to_numpy()
            assert (sid == j // W_PER_SESSION).all()
            return pa.table({"n": pa.array([len(t)], pa.int64())})

        n_ok = sum(
            int(b["n"].to_numpy().sum()) for b in out.map_batches(
                check, batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow"))
        sec = time.perf_counter() - t0
        assert n_ok == n_rows, n_ok
        results["sessionize"] = {"sec": round(sec, 2),
                                 "events_per_sec": round(n_rows / sec)}

        # runs (gaps-and-islands on value = session number): exactly
        # 10 runs per user, all of length 5
        t0 = time.perf_counter()
        runs = runs_by_group(
            read().map_batches(
                lambda t: t.append_column(
                    "sess", pa.array(
                        t["j"].combine_chunks().to_numpy()
                        // W_PER_SESSION)),
                batch_format="pyarrow", zero_copy_batch=True),
            "user", ["ts", "j"], "sess")

        def check_runs(t: pa.Table) -> pa.Table:
            nr = t["n_rows"].combine_chunks().to_numpy()
            assert (nr == W_PER_SESSION).all()
            return pa.table({"n": pa.array([len(t)], pa.int64())})

        n_runs = sum(
            int(b["n"].to_numpy().sum()) for b in runs.map_batches(
                check_runs, batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow"))
        sec = time.perf_counter() - t0
        assert n_runs == W_USERS * (W_EVENTS // W_PER_SESSION), n_runs
        results["runs_by_group"] = {"sec": round(sec, 2),
                                    "events_per_sec": round(n_rows / sec)}

        # as-of join at 50M: left = every event, right = one row per
        # (user, session start) with the session number as payload; the
        # backward match's payload must equal j // 5 for EVERY row
        right_dir = "/tmp/window_scale_right_v1"
        rmarker = os.path.join(right_dir, ".done")
        if not os.path.exists(rmarker):
            os.makedirs(right_dir, exist_ok=True)
            per = W_USERS // 8
            for shard in range(8):
                u = np.repeat(np.arange(shard * per, (shard + 1) * per,
                                        dtype=np.int64),
                              W_EVENTS // W_PER_SESSION)
                g = np.tile(np.arange(W_EVENTS // W_PER_SESSION,
                                      dtype=np.int64), per)
                out = pa.table({
                    "user": pa.array(u),
                    "rts": pa.array((g * 3_600_000_000)
                                    .astype("datetime64[us]")),
                    "sess": pa.array(g)})
                tmp = os.path.join(right_dir, f".tmp-{shard:04d}.parquet")
                pq.write_table(out, tmp)
                os.replace(tmp, os.path.join(right_dir,
                                             f"part-{shard:04d}.parquet"))
            with open(rmarker, "w") as f:
                f.write("ok")

        from ci_log_processing_ray.ops.relational import asof_join_grouped

        t0 = time.perf_counter()
        aj = asof_join_grouped(
            read(), ray.data.read_parquet(right_dir),
            key="user", left_on="ts", right_on="rts",
            left_cols=["j"], right_cols=["sess"])

        def check_asof(t: pa.Table) -> pa.Table:
            sess = t["sess"].combine_chunks().to_numpy(
                zero_copy_only=False)
            j = t["j"].combine_chunks().to_numpy(zero_copy_only=False)
            assert (sess == j // W_PER_SESSION).all()
            return pa.table({"n": pa.array([len(t)], pa.int64())})

        n_aj = sum(
            int(b["n"].to_numpy().sum()) for b in aj.map_batches(
                check_asof, batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow"))
        sec = time.perf_counter() - t0
        assert n_aj == n_rows, n_aj
        results["asof_join"] = {"sec": round(sec, 2),
                                "events_per_sec": round(n_rows / sec)}

        print(json.dumps({
            "n_events": n_rows, "n_users": W_USERS, "num_cpus": NCPU,
            "ops": results, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


CORPUS_AUC = "/tmp/stats_scale_auc_v1"
CORPUS_CUSUM = "/tmp/stats_scale_cusum_v1"
S_GROUPS = 1_250_000          # AUC groups x 40 rows = 50M
S_PER_SCORE = 20              # scores 0..19, one pos + one neg each
C_GROUPS = 2_500_000          # CUSUM groups x 20 rows = 50M
C_HALF = 5                    # days 0..9: counts 1,1,1,1,1,3,3,3,3,3


def build_stats_corpora() -> tuple[int, int]:
    """Two deterministic 50M-row corpora with PER-GROUP closed-form
    truths, rows round-robin scattered across all 32 shards:

    * AUC: group g holds 20 (pos, neg) pairs; EVEN groups tie each
      pair at the same score (2U = S^2 = 400, AUC exactly 1/2), ODD
      groups shift every positive +20 (complete separation,
      2U = 2*S^2 = 800, AUC exactly 1).
    * CUSUM/trend: group g sees days 0..9 with counts 1 (first half)
      and 3 (second half): max |n*cum - k*S| = 2h^2 = 50 uniquely at
      day h-1 = 4, and the OLS slope over (x, count) is exactly
      250/825."""
    import numpy as np

    n_auc = S_GROUPS * 2 * S_PER_SCORE
    marker = os.path.join(CORPUS_AUC, ".done")
    if not os.path.exists(marker):
        os.makedirs(CORPUS_AUC, exist_ok=True)
        per = n_auc // N_SHARDS
        for shard in range(N_SHARDS):
            idx = shard + N_SHARDS * np.arange(per, dtype=np.int64)
            grp = idx // (2 * S_PER_SCORE)
            r = idx % (2 * S_PER_SCORE)
            lab = r % 2
            score = r // 2 + lab * S_PER_SCORE * (grp % 2)
            out = pa.table({"grp": pa.array(grp),
                            "label": pa.array(lab),
                            "score": pa.array(score)})
            tmp = os.path.join(CORPUS_AUC, f".tmp-{shard:04d}.parquet")
            pq.write_table(out, tmp)
            os.replace(tmp, os.path.join(CORPUS_AUC,
                                         f"part-{shard:04d}.parquet"))
        with open(marker, "w") as f:
            f.write("ok")

    n_cusum = C_GROUPS * 4 * C_HALF
    marker = os.path.join(CORPUS_CUSUM, ".done")
    if not os.path.exists(marker):
        os.makedirs(CORPUS_CUSUM, exist_ok=True)
        per = n_cusum // N_SHARDS
        day_of_r = np.concatenate([
            np.arange(C_HALF, dtype=np.int64),
            C_HALF + np.repeat(np.arange(C_HALF, dtype=np.int64), 3)])
        for shard in range(N_SHARDS):
            idx = shard + N_SHARDS * np.arange(per, dtype=np.int64)
            grp = idx // (4 * C_HALF)
            day = day_of_r[idx % (4 * C_HALF)]
            ts_us = (20_000 + day) * 86_400_000_000
            out = pa.table({"grp": pa.array(grp),
                            "ts": pa.array(
                                ts_us.astype("datetime64[us]"))})
            tmp = os.path.join(CORPUS_CUSUM, f".tmp-{shard:04d}.parquet")
            pq.write_table(out, tmp)
            os.replace(tmp, os.path.join(CORPUS_CUSUM,
                                         f"part-{shard:04d}.parquet"))
        with open(marker, "w") as f:
            f.write("ok")
    return n_auc, n_cusum


def main_stats() -> None:
    import numpy as np
    import ray
    from ray.data import DataContext

    n_auc, n_cusum = build_stats_corpora()
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.groupagg import (
            grouped_auc, grouped_cusum_peak, grouped_trend_slope)

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()
        results = {}

        def stream_assert(out, check):
            """Per-batch vectorized assert + count partial; never
            materializes the per-group result on the driver."""
            return sum(
                int(b["n"].to_numpy().sum()) for b in out.map_batches(
                    check, batch_format="pyarrow").iter_batches(
                        batch_format="pyarrow"))

        t0 = time.perf_counter()
        auc = grouped_auc(
            ray.data.read_parquet(CORPUS_AUC), "grp", "label", "score")

        def check_auc(t: pa.Table) -> pa.Table:
            g = t["grp"].combine_chunks().to_numpy(zero_copy_only=False)
            num = t["auc_num"].combine_chunks().to_numpy()
            assert (t["n_pos"].combine_chunks().to_numpy()
                    == S_PER_SCORE).all()
            assert (t["auc_den"].combine_chunks().to_numpy()
                    == 2 * S_PER_SCORE * S_PER_SCORE).all()
            want = S_PER_SCORE * S_PER_SCORE * (1 + (g % 2))
            assert (num == want).all()
            return pa.table({"n": pa.array([len(t)], pa.int64())})

        n_groups = stream_assert(auc, check_auc)
        sec = time.perf_counter() - t0
        assert n_groups == S_GROUPS, n_groups
        results["grouped_auc"] = {"sec": round(sec, 2),
                                  "rows_per_sec": round(n_auc / sec)}

        t0 = time.perf_counter()
        cus = grouped_cusum_peak(
            ray.data.read_parquet(CORPUS_CUSUM), "grp", "ts")

        def check_cusum(t: pa.Table) -> pa.Table:
            assert (t["n_days"].combine_chunks().to_numpy()
                    == 2 * C_HALF).all()
            assert (t["total"].combine_chunks().to_numpy()
                    == 4 * C_HALF).all()
            assert (t["max_dev"].combine_chunks().to_numpy()
                    == 2 * C_HALF * C_HALF).all()
            assert (t["peak_day"].combine_chunks().to_numpy()
                    == 20_000 + C_HALF - 1).all()
            return pa.table({"n": pa.array([len(t)], pa.int64())})

        n_groups = stream_assert(cus, check_cusum)
        sec = time.perf_counter() - t0
        assert n_groups == C_GROUPS, n_groups
        results["grouped_cusum_peak"] = {
            "sec": round(sec, 2), "rows_per_sec": round(n_cusum / sec)}

        # trend slope on the same step series: exactly 250/825
        t0 = time.perf_counter()
        tr = grouped_trend_slope(
            ray.data.read_parquet(CORPUS_CUSUM), "grp", "ts")

        def check_trend(t: pa.Table) -> pa.Table:
            assert (t["slope_num"].combine_chunks().to_numpy()
                    == 250).all()
            assert (t["slope_den"].combine_chunks().to_numpy()
                    == 825).all()
            assert (t["n_days"].combine_chunks().to_numpy()
                    == 2 * C_HALF).all()
            return pa.table({"n": pa.array([len(t)], pa.int64())})

        n_groups = stream_assert(tr, check_trend)
        sec = time.perf_counter() - t0
        assert n_groups == C_GROUPS, n_groups
        results["grouped_trend_slope"] = {
            "sec": round(sec, 2), "rows_per_sec": round(n_cusum / sec)}

        # isotonic PAV at 50M rows, synthesized from the row index:
        # score s in 0..999 holds exactly K rows with pos_s = 50*s,
        # so the empirical rates s/1000 are strictly increasing and
        # the exact fit is closed-form: one block per score,
        # (s, s, 50*s, K), rate_permille = s.
        from ci_log_processing_ray.ops.inference import isotonic_calibrate

        K = 50_000
        n_iso = 1000 * K

        def mk_iso():
            def f(t: pa.Table) -> pa.Table:
                idx = t["id"].combine_chunks().to_numpy()
                score = idx // K
                lab = ((idx % K) < 50 * score).astype(np.int64)
                return pa.table({"score": pa.array(score),
                                 "label": pa.array(lab)})
            return ray.data.range(
                n_iso, override_num_blocks=NCPU * 8).map_batches(
                f, batch_format="pyarrow", zero_copy_batch=True)

        t0 = time.perf_counter()
        iso = isotonic_calibrate(mk_iso(), "score", "label").to_pandas()
        sec = time.perf_counter() - t0
        iso = iso.sort_values("block_id")
        s = np.arange(1000, dtype=np.int64)
        assert len(iso) == 1000, len(iso)
        assert (iso["score_lo"].to_numpy() == s).all()
        assert (iso["score_hi"].to_numpy() == s).all()
        assert (iso["pos"].to_numpy() == 50 * s).all()
        assert (iso["n"].to_numpy() == K).all()
        assert (iso["rate_permille"].to_numpy() == s).all()
        results["isotonic_pav"] = {
            "sec": round(sec, 2), "rows_per_sec": round(n_iso / sec)}

        # KS + Wasserstein-1 at 50M rows: side 0 = uniform over
        # 0..999 (K2 rows per value), side 1 = the same shifted +100.
        # Closed form: n1 = n2 = 1000*K2, max |C1-C2| = 100*K2 (the
        # shift region) -> ks_num = n1*100*K2; sum_v |C1-C2| =
        # (4950 + 900*100 + 5050)*K2 = 100000*K2 (ramp + plateau +
        # ramp) -> w1_num = n1*100000*K2.
        from ci_log_processing_ray.ops.groupagg import (
            ks_wasserstein_two_sample)

        K2 = 25_000
        n_ks = 2 * 1000 * K2

        def mk_ks():
            def f(t: pa.Table) -> pa.Table:
                idx = t["id"].combine_chunks().to_numpy()
                side = (idx >= 1000 * K2).astype(np.int64)
                val = idx % 1000 + 100 * side
                return pa.table({"v": pa.array(val.astype(np.int64)),
                                 "side": pa.array(side)})
            return ray.data.range(
                n_ks, override_num_blocks=NCPU * 8).map_batches(
                f, batch_format="pyarrow", zero_copy_batch=True)

        t0 = time.perf_counter()
        ks = ks_wasserstein_two_sample(mk_ks(), "v", "side").to_pandas()
        sec = time.perf_counter() - t0
        n_side = 1000 * K2
        assert ks["n1"].tolist() == [n_side]
        assert ks["n2"].tolist() == [n_side]
        assert ks["ks_num"].tolist() == [n_side * 100 * K2]
        assert ks["w1_num"].tolist() == [n_side * 100_000 * K2]
        assert ks["ks_permille"].tolist() == [100]
        results["ks_wasserstein"] = {
            "sec": round(sec, 2), "rows_per_sec": round(n_ks / sec)}

        print(json.dumps({
            "n_rows_auc": n_auc, "n_rows_cusum": n_cusum,
            "n_rows_isotonic": n_iso, "n_rows_ks": n_ks,
            "num_cpus": NCPU, "ops": results, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


CORPUS_LPA = "/tmp/lpa_scale_v1"
L_CLIQUES = 1_000_000        # 8M nodes, 28M intra + ~1M bridge edges


def build_lpa_corpus() -> int:
    """1M planted 8-cliques (node ids c*8..c*8+7) with ONE bridge
    from each clique's +7 node to the next clique's base.  Synchronous
    min-tie LPA provably converges by round 2 to label == clique min
    id for EVERY node (round 1: non-base nodes take the base id, base
    takes the bridge neighbor; round 2: the 7-vs-1 internal majority
    snaps everyone to the base id) -- a per-ROW closed form:
    label == (node // 8) * 8."""
    import numpy as np

    marker = os.path.join(CORPUS_LPA, ".done")
    if os.path.exists(marker):
        with open(marker) as f:
            return json.load(f)["n_edges"]
    os.makedirs(CORPUS_LPA, exist_ok=True)
    per = L_CLIQUES // N_SHARDS
    pairs = np.array([(i, j) for i in range(8)
                      for j in range(i + 1, 8)], np.int64)
    n_edges = 0
    for shard in range(N_SHARDS):
        c = np.arange(shard * per, (shard + 1) * per, dtype=np.int64)
        base = (c * 8)[:, None]
        src_ids = (base + pairs[None, :, 0]).ravel()
        dst_ids = (base + pairs[None, :, 1]).ravel()
        has_next = c < L_CLIQUES - 1
        bsrc = c[has_next] * 8 + 7
        bdst = (c[has_next] + 1) * 8
        out = pa.table({
            "src": pa.array(np.concatenate([src_ids, bsrc])),
            "dst": pa.array(np.concatenate([dst_ids, bdst]))})
        tmp = os.path.join(CORPUS_LPA, f".tmp-{shard:04d}.parquet")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(CORPUS_LPA,
                                     f"part-{shard:04d}.parquet"))
        n_edges += len(out)
    with open(marker, "w") as f:
        json.dump({"n_edges": n_edges}, f)
    return n_edges


def main_lpa() -> None:
    import ray
    from ray.data import DataContext

    n_edges = build_lpa_corpus()
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.iterative import label_propagation

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()
        results = {}
        n_nodes = L_CLIQUES * 8

        def check(t: pa.Table) -> pa.Table:
            node = t["node"].combine_chunks().to_numpy()
            lab = t["label"].combine_chunks().to_numpy()
            assert (lab == (node // 8) * 8).all()
            return pa.table({"n": pa.array([len(t)], pa.int64())})

        # 8M nodes > the 5M default broadcast cap -> this exercises the
        # tagged-union co-partition label lookup (the 100-TB path) at
        # scale; rounds=4 (provable convergence by 2 + early-exit check)
        t0 = time.perf_counter()
        labels = label_propagation(
            ray.data.read_parquet(CORPUS_LPA), "src", "dst", n_rounds=4)
        n_ok = sum(
            int(b["n"].to_numpy().sum()) for b in labels.map_batches(
                check, batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow"))
        sec = time.perf_counter() - t0
        assert n_ok == n_nodes, n_ok
        results["label_propagation"] = {
            "sec": round(sec, 2),
            "edges_per_sec_per_round": round(n_edges * 4 / sec)}

        print(json.dumps({
            "n_edges": n_edges, "n_nodes": n_nodes, "num_cpus": NCPU,
            "ops": results, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


CORPUS_LANDMARK = "/tmp/llm_scale_landmark_v1"
LM_N_NODES = 4_000_000
LM_STEP = 200_000
LM_ROUNDS = 16


def build_landmark_corpus() -> int:
    """4M-node PATH graph (edge i -- i-1): per-row closed-form truth
    dist(v, lm) == |v - lm| for every landmark within the round
    budget, with window truncation only at node 0 / node N-1."""
    import numpy as np

    marker = os.path.join(CORPUS_LANDMARK, ".done")
    if os.path.exists(marker):
        with open(marker) as f:
            return json.load(f)["n_edges"]
    os.makedirs(CORPUS_LANDMARK, exist_ok=True)
    per = LM_N_NODES // N_SHARDS
    n_edges = 0
    for shard in range(N_SHARDS):
        lo = shard * per
        ids = np.arange(max(lo, 1), lo + per, dtype=np.int64)
        out = pa.table({"src": pa.array(ids),
                        "dst": pa.array(ids - 1)})
        tmp = os.path.join(CORPUS_LANDMARK, f".tmp-{shard:04d}.parquet")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(CORPUS_LANDMARK,
                                     f"part-{shard:04d}.parquet"))
        n_edges += len(out)
    with open(marker, "w") as f:
        json.dump({"n_edges": n_edges}, f)
    return n_edges


def main_landmark() -> None:
    import numpy as np
    import ray
    from ray.data import DataContext

    n_edges = build_landmark_corpus()
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.iterative import landmark_distances

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()
        lms = np.arange(0, LM_N_NODES, LM_STEP, dtype=np.int64)
        t0 = time.perf_counter()
        # 8M bidirectional edge rows >> driver_edge_cap -> distributed
        # path: per-round broadcast frontier + full-edge-table expand,
        # pair-keyed tagged-union settling
        out = landmark_distances(
            ray.data.read_parquet(CORPUS_LANDMARK), "src", "dst",
            lms, n_rounds=LM_ROUNDS).to_pandas()
        sec = time.perf_counter() - t0

        # closed form: every (node, lm) with |node - lm| <= LM_ROUNDS,
        # dist exactly |node - lm|; windows truncate at corpus ends
        node = out["node"].to_numpy(np.int64)
        lm = out["landmark"].to_numpy(np.int64)
        dist = out["dist"].to_numpy(np.int64)
        assert (dist == np.abs(node - lm)).all()
        assert dist.max() == LM_ROUNDS
        want_rows = 0
        for m in lms:
            lo = max(0, m - LM_ROUNDS)
            hi = min(LM_N_NODES - 1, m + LM_ROUNDS)
            want_rows += hi - lo + 1
        assert len(out) == want_rows, (len(out), want_rows)
        # per-landmark coverage is contiguous and centered
        df = out.groupby("landmark")["node"].agg(["min", "max", "size"])
        assert (df["size"] == df["max"] - df["min"] + 1).all()

        print(json.dumps({
            "n_edges": n_edges, "n_landmarks": int(len(lms)),
            "rounds": LM_ROUNDS, "pair_rows": int(len(out)),
            "sec": round(sec, 2),
            "edge_rows_scanned_per_sec": round(
                2 * n_edges * LM_ROUNDS / sec),
            "num_cpus": NCPU, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


CORPUS_STRESS = "/tmp/llm_scale_stress_v1"
ST_N_NODES = 2_000_000


def build_stress_corpus() -> int:
    """2M nodes in decade chains (edge i -- i-1 iff i % 10 != 0):
    200k path components of 10 nodes.  With sources at r in {0, 4}
    per decade, stress has the per-row closed form
    f(r) = [9-r if r>=1] + [r if 1<=r<=3 else 9-r if r>=5 else 0]:
    9,9,9,5,8,6,4,2 for r=1..8, 0 (absent) for r in {0, 9}."""
    import numpy as np

    marker = os.path.join(CORPUS_STRESS, ".done")
    if os.path.exists(marker):
        with open(marker) as f:
            return json.load(f)["n_edges"]
    os.makedirs(CORPUS_STRESS, exist_ok=True)
    per = ST_N_NODES // N_SHARDS
    n_edges = 0
    for shard in range(N_SHARDS):
        lo = shard * per
        ids = np.arange(lo, lo + per, dtype=np.int64)
        ids = ids[ids % 10 != 0]
        out = pa.table({"src": pa.array(ids),
                        "dst": pa.array(ids - 1)})
        tmp = os.path.join(CORPUS_STRESS, f".tmp-{shard:04d}.parquet")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(CORPUS_STRESS,
                                     f"part-{shard:04d}.parquet"))
        n_edges += len(out)
    with open(marker, "w") as f:
        json.dump({"n_edges": n_edges}, f)
    return n_edges


def main_stress() -> None:
    import numpy as np
    import ray
    from ray.data import DataContext

    n_edges = build_stress_corpus()
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.iterative import stress_centrality

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()
        base = np.arange(0, ST_N_NODES, 10, dtype=np.int64)
        sources = np.sort(np.concatenate([base, base + 4]))
        t0 = time.perf_counter()
        out = stress_centrality(
            ray.data.read_parquet(CORPUS_STRESS), "src", "dst",
            sources, n_rounds=9).to_pandas()
        sec = time.perf_counter() - t0

        want = np.array([0, 9, 9, 9, 5, 8, 6, 4, 2, 0], np.int64)
        node = out["node"].to_numpy(np.int64)
        stress = out["stress"].to_numpy(np.int64)
        assert (stress == want[node % 10]).all()
        # rows for exactly the r in 1..8 positions of every decade
        assert len(out) == ST_N_NODES // 10 * 8, len(out)
        assert int(stress.sum()) == ST_N_NODES // 10 * int(want.sum())

        print(json.dumps({
            "n_edges": n_edges, "n_nodes": ST_N_NODES,
            "n_sources": int(len(sources)),
            "pair_rows": int(len(out)), "sec": round(sec, 2),
            "nodes_per_sec": round(ST_N_NODES / sec),
            "num_cpus": NCPU, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


CORPUS_KC = "/tmp/llm_scale_kcore_v1"
KC_BLOCK = 100
KC_N_NODES = 4_000_000


def build_kcore_corpus() -> tuple[int, int]:
    """Deterministic path-power graph with per-row closed-form
    coreness: node ids partition into blocks of 100; block b is the
    p-th power of a path with p = 1 + (b % 8), i.e. node i links to
    i+1..i+p within its block.  Coreness of P_n^p is exactly p for
    every node (every consecutive (p+1)-window is a clique; the graph
    is p-degenerate), so the truth core = 1 + (node // 100) % 8 is
    assertable over all 4M output rows.  Edge rows are round-robin
    scattered across the 32 parquet shards so the resident routing
    exchange is real, and every 10th edge is planted REVERSED as a
    duplicate to exercise canonicalization at scale.  ~18M distinct
    edges (~20M rows fed)."""
    marker = os.path.join(CORPUS_KC, ".done")
    if os.path.exists(marker):
        with open(marker) as f:
            d = json.load(f)
            return d["n_rows"], d["n_nodes"]
    os.makedirs(CORPUS_KC, exist_ok=True)
    ids = np.arange(KC_N_NODES, dtype=np.int64)
    p = 1 + (ids // KC_BLOCK) % 8
    srcs, dsts = [], []
    for j in range(1, 9):
        keep = (j <= p) & ((ids + j) // KC_BLOCK == ids // KC_BLOCK)
        srcs.append(ids[keep])
        dsts.append(ids[keep] + j)
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    dup = np.arange(len(src)) % 10 == 0
    src, dst = (np.concatenate([src, dst[dup]]),
                np.concatenate([dst, src[dup]]))
    n_rows = len(src)
    order = np.arange(n_rows)
    for shard in range(N_SHARDS):
        m = order % N_SHARDS == shard
        out = pa.table({"src": pa.array(src[m]),
                        "dst": pa.array(dst[m])})
        tmp = os.path.join(CORPUS_KC, f".tmp-{shard:04d}.parquet")
        pq.write_table(out, tmp)
        os.replace(tmp,
                   os.path.join(CORPUS_KC, f"part-{shard:04d}.parquet"))
    with open(marker, "w") as f:
        json.dump({"n_rows": n_rows, "n_nodes": KC_N_NODES}, f)
    return n_rows, KC_N_NODES


def main_kcore() -> None:
    import ray
    from ray.data import DataContext

    n_rows, n_nodes = build_kcore_corpus()
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.iterative import kcore_resident

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        t0 = time.perf_counter()
        out = kcore_resident(
            ray.data.read_parquet(CORPUS_KC), "src", "dst",
            n_shards=NCPU)
        sec = time.perf_counter() - t0

        node = out["node"].to_numpy()
        core = out["core"].to_numpy()
        assert len(out) == n_nodes, len(out)
        want = 1 + (node // KC_BLOCK) % 8
        assert (core == want).all(), int((core != want).sum())

        print(json.dumps({
            "n_edge_rows": n_rows, "n_nodes": n_nodes,
            "num_cpus": NCPU,
            "ops": {"kcore_resident": {
                "sec": round(sec, 2),
                "edge_rows_per_sec": round(n_rows / sec),
                "truth": "core == 1 + (node//100)%8 on all 4M rows"}},
            "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()



CORPUS_WEDGE = "/tmp/llm_scale_wedge_v1"
WG_BLOCK = 100
WG_N_NODES = 1_000_000


def build_wedge_corpus() -> tuple[int, int]:
    """Path-power corpus for the wedge-family ops (per-node clustering
    coefficients, common-neighbor link prediction): 1M nodes in blocks
    of 100, block power p = 1 + (block % 4).  Blocks are DISJOINT and
    structurally identical per power, so brute-forcing ONE 100-node
    template block per power yields an exact per-row truth for the
    whole corpus -- every node's (deg, tri, coeff) must equal its
    (power, offset) template entry, and every predicted pair's count
    must equal its (power, offset_a, offset_b) template entry.
    ~6.2M directed edge rows, every 10th planted reversed."""
    marker = os.path.join(CORPUS_WEDGE, ".done")
    if os.path.exists(marker):
        with open(marker) as f:
            d = json.load(f)
            return d["n_rows"], d["n_nodes"]
    os.makedirs(CORPUS_WEDGE, exist_ok=True)
    ids = np.arange(WG_N_NODES, dtype=np.int64)
    p = 1 + (ids // WG_BLOCK) % 4
    srcs, dsts = [], []
    for j in range(1, 5):
        keep = (j <= p) & ((ids + j) // WG_BLOCK == ids // WG_BLOCK)
        srcs.append(ids[keep])
        dsts.append(ids[keep] + j)
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    dup = np.arange(len(src)) % 10 == 0
    src, dst = (np.concatenate([src, dst[dup]]),
                np.concatenate([dst, src[dup]]))
    n_rows = len(src)
    order = np.arange(n_rows)
    for shard in range(N_SHARDS):
        m = order % N_SHARDS == shard
        out = pa.table({"src": pa.array(src[m]),
                        "dst": pa.array(dst[m])})
        tmp = os.path.join(CORPUS_WEDGE, f".tmp-{shard:04d}.parquet")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(
            CORPUS_WEDGE, f"part-{shard:04d}.parquet"))
    with open(marker, "w") as f:
        json.dump({"n_rows": n_rows, "n_nodes": WG_N_NODES}, f)
    return n_rows, WG_N_NODES


def _wedge_templates():
    """Brute-force the 100-node template block for each power: per-
    offset (deg, tri, coeff_permille) and per-offset-pair common-
    neighbor counts (>= 2, non-adjacent) -- exact references for every
    block of the corpus."""
    import collections
    import itertools

    node_t, pair_t = {}, {}
    for p in range(1, 5):
        E = set()
        for i in range(WG_BLOCK):
            for j in range(1, p + 1):
                if i + j < WG_BLOCK:
                    E.add((i, i + j))
        adj = collections.defaultdict(set)
        for a, b in E:
            adj[a].add(b)
            adj[b].add(a)
        for n in range(WG_BLOCK):
            tri = sum(1 for x, y in itertools.combinations(
                sorted(adj[n]), 2) if (min(x, y), max(x, y)) in E)
            d = len(adj[n])
            coeff = (2000 * tri) // (d * (d - 1)) if d >= 2 else 0
            node_t[(p, n)] = (d, tri, coeff)
        cn = collections.Counter()
        for a in range(WG_BLOCK):
            for x, y in itertools.combinations(sorted(adj[a]), 2):
                cn[(x, y)] += 1
        for (x, y), c in cn.items():
            if c >= 2 and (x, y) not in E:
                pair_t[(p, x, y)] = c
    return node_t, pair_t


def main_wedge() -> None:
    import ray
    from ray.data import DataContext

    n_rows, n_nodes = build_wedge_corpus()
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.relational import (
            clustering_coefficients, common_neighbors_link_prediction)

        node_t, pair_t = _wedge_templates()
        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()
        results = {}

        def read():
            return ray.data.read_parquet(CORPUS_WEDGE)

        t0 = time.perf_counter()
        cc = clustering_coefficients(read(), "src", "dst").to_pandas()
        sec = time.perf_counter() - t0
        assert len(cc) == n_nodes, len(cc)
        node = cc["node"].to_numpy()
        pw = 1 + (node // WG_BLOCK) % 4
        off = node % WG_BLOCK
        want = np.array([node_t[(p, o)] for p, o in zip(pw, off)])
        assert (cc["deg"].to_numpy() == want[:, 0]).all()
        assert (cc["tri"].to_numpy() == want[:, 1]).all()
        assert (cc["coeff_permille"].to_numpy() == want[:, 2]).all()
        results["clustering_coefficients"] = {
            "sec": round(sec, 2),
            "nodes_per_sec": round(n_nodes / sec),
            "truth": "per-row (deg, tri, coeff) == template block"}

        t0 = time.perf_counter()
        lp = common_neighbors_link_prediction(
            read(), "src", "dst", min_common=2).to_pandas()
        sec = time.perf_counter() - t0
        a = lp["node_a"].to_numpy()
        b = lp["node_b"].to_numpy()
        assert (a // WG_BLOCK == b // WG_BLOCK).all()  # never crosses
        pwp = 1 + (a // WG_BLOCK) % 4
        offa, offb = a % WG_BLOCK, b % WG_BLOCK
        wantn = np.array([pair_t[(p, x, y)]
                          for p, x, y in zip(pwp, offa, offb)])
        assert (lp["n_common"].to_numpy() == wantn).all()
        n_expected = sum(
            len([1 for (p, _, _) in pair_t if p == pp]) * 2500
            for pp in range(1, 5))
        assert len(lp) == n_expected, (len(lp), n_expected)
        results["link_prediction"] = {
            "sec": round(sec, 2),
            "pairs": int(len(lp)),
            "truth": "per-pair count == template block, exact pair set"}

        print(json.dumps({
            "n_edge_rows": n_rows, "n_nodes": n_nodes,
            "num_cpus": NCPU, "ops": results, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()

def main_msf() -> None:
    """Boruvka MSF at ~16M edge rows with a per-row closed-form
    forest: 8M nodes in 1024-node path families (chain edge i->i+1
    with w=1000+i except across family boundaries), plus heavy
    within-family extras i->i+7 (w=10^9+i) that each close a cycle as
    its heaviest edge.  The forest is EXACTLY the chain edges; path
    length 1024 bounds Boruvka at ~11 rounds."""
    import numpy as np
    import ray
    from ray.data import DataContext

    FAM = 1024
    N_FAMS = 7813
    n_nodes = FAM * N_FAMS
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.iterative import (
            minimum_spanning_forest)

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        def mk_edges():
            def f(t: pa.Table) -> pa.Table:
                i = t["id"].combine_chunks().to_numpy()
                chain = i[(i % FAM) != FAM - 1]
                extra = i[(i % FAM) <= FAM - 8]
                return pa.table({
                    "src": pa.array(np.concatenate([chain, extra])),
                    "dst": pa.array(np.concatenate([chain + 1,
                                                    extra + 7])),
                    "w": pa.array(np.concatenate(
                        [1000 + chain, 10**9 + extra]))})
            return ray.data.range(
                n_nodes, override_num_blocks=NCPU * 8).map_batches(
                f, batch_format="pyarrow", zero_copy_batch=True)

        n_chain = n_nodes - N_FAMS
        n_extra = (FAM - 7) * N_FAMS
        n_edges = n_chain + n_extra

        t0 = time.perf_counter()
        msf = minimum_spanning_forest(mk_edges(), "src", "dst", "w",
                                      max_rounds=16)

        # stream-verify: every forest row must be a chain edge with
        # its exact weight; count + weight checksum close the set
        def check(t: pa.Table) -> pa.Table:
            u = t["u"].combine_chunks().to_numpy()
            v = t["v"].combine_chunks().to_numpy()
            w = t["w"].combine_chunks().to_numpy()
            assert (v == u + 1).all()
            assert (w == 1000 + u).all()
            assert ((u % FAM) != FAM - 1).all()
            return pa.table({
                "n": pa.array([len(t)], pa.int64()),
                "ws": pa.array([int(w.sum())], pa.int64())})

        # iter_batches COALESCES the one-row per-block partials into
        # multi-row batches -- fold every row, not row 0 of each batch
        parts = [(int(n), int(ws))
                 for b in msf.map_batches(
                     check, batch_format="pyarrow").iter_batches(
                     batch_format="pyarrow")
                 for n, ws in zip(b["n"].to_pylist(),
                                  b["ws"].to_pylist())]
        sec = time.perf_counter() - t0
        n_rows = sum(p[0] for p in parts)
        wsum = sum(p[1] for p in parts)  # Python-int fold
        assert n_rows == n_chain, (n_rows, n_chain)
        # sum over chain edges of (1000+i): closed form via total sum
        # minus the boundary terms i = 1024f + 1023
        tot = 1000 * n_chain + (n_nodes * (n_nodes - 1)) // 2 - sum(
            FAM * f + FAM - 1 for f in range(N_FAMS))
        assert wsum == tot, (wsum, tot)
        print(json.dumps({
            "n_edge_rows": n_edges, "n_nodes": n_nodes,
            "msf_rows": n_rows, "num_cpus": NCPU,
            "sec": round(sec, 2),
            "edge_rows_per_sec": round(n_edges / sec),
            "calib_sec": _calib()}))
    finally:
        ray.shutdown()



def main_cov() -> None:
    """Greedy max-coverage at ~1M docs with a closed-form pick
    sequence: every doc = 12 shared words (10 shared trigrams) + a
    doc-unique word run, so round-1 gain is L_i + 10 and every later
    gain is exactly L_i (the shared grams are covered by pick 1,
    the 2 boundary grams + L_i - 2 interior grams stay doc-unique).
    8 planted long docs (L = 100..107 at known ids) dominate the
    L <= 59 background, so the greedy order, ids AND exact integer
    gains are all known in closed form."""
    import numpy as np
    import ray
    from ray.data import DataContext

    N_DOCS = 1_000_000
    K = 8
    SPECIAL = {13 + 125_000 * j: 107 - j for j in range(K)}
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.curation import greedy_max_coverage

        shared = " ".join(f"s{t}" for t in range(12))

        def mk_docs(t: pa.Table) -> pa.Table:
            ids = t["id"].combine_chunks().to_numpy()
            texts = []
            for i in ids:
                L = SPECIAL.get(int(i), 10 + int(i) % 50)
                texts.append(shared + " " + " ".join(
                    f"u{i}_{t}" for t in range(L)))
            return pa.table({"doc_id": pa.array(ids),
                             "text": pa.array(texts, pa.string())})

        docs = ray.data.range(
            N_DOCS, override_num_blocks=NCPU * 8).map_batches(
            mk_docs, batch_format="pyarrow", zero_copy_batch=True)

        t0 = time.perf_counter()
        out = greedy_max_coverage(docs, "doc_id", "text",
                                  k=K, ngram=3).to_pandas()
        sec = time.perf_counter() - t0

        order = sorted(SPECIAL.items(), key=lambda kv: -kv[1])
        exp_ids = [d for d, _ in order]
        exp_gains = [order[0][1] + 10] + [L for _, L in order[1:]]
        assert out["pick"].tolist() == list(range(1, K + 1)), out
        assert out["doc_id"].tolist() == exp_ids, (out, exp_ids)
        assert out["gain"].tolist() == exp_gains, (out, exp_gains)
        # ~34.5 distinct grams per background doc + the shared block
        n_pairs = sum(
            (SPECIAL.get(i, 10 + i % 50) + 12) for i in range(N_DOCS))
        print(json.dumps({
            "n_docs": N_DOCS, "n_pair_rows": n_pairs, "k": K,
            "num_cpus": NCPU, "sec": round(sec, 2),
            "docs_per_sec": round(N_DOCS / sec),
            "calib_sec": _calib()}))
    finally:
        ray.shutdown()



def main_acf() -> None:
    """Lag-1 autocorrelation at ~40M rows / 1000 groups, each group a
    SAWTOOTH x_t = t mod m_g with per-group period m_g = 2 + (g % 97)
    and n_g = m_g * (40000 // m_g) rows -- the acf varies strongly
    with the period (m=2 alternating ~ -1000, long ramps ~ +990), and
    every group has an exact closed-form truth (per-cycle Faulhaber
    sums; cycle-boundary lag products are zero by construction).
    Verifies all 1000 (group, n_obs, acf_permille) rows."""
    import numpy as np
    import ray
    from ray.data import DataContext

    G = 1000
    m_g = np.array([2 + (g % 97) for g in range(G)], np.int64)
    n_g = m_g * (40000 // m_g)
    bounds = np.concatenate([[0], np.cumsum(n_g)])
    total = int(bounds[-1])

    def expected(m: int, n: int) -> int:
        r = n // m
        T1 = m * (m - 1) // 2                       # sum j, j<m
        T2 = (m - 1) * m * (2 * m - 1) // 6         # sum j^2, j<m
        T1p = (m - 2) * (m - 1) // 2                # sum j, j<=m-2
        T2p = (m - 2) * (m - 1) * (2 * m - 3) // 6  # sum j^2, j<=m-2
        S = r * T1
        Q = r * T2
        P = r * (T2p + T1p)         # sum j(j+1), j = 0..m-2, per cycle
        H, T = 0, m - 1             # first and last element (lag 1)
        num = n * n * P - n * S * (2 * S - T - H) + (n - 1) * S * S
        den = n * n * Q - n * S * S
        return (-((1000 * -num) // den) if num < 0
                else (1000 * num) // den)

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.window import autocorr_by_group

        b_ref = ray.put((bounds, m_g))

        def mk(t: pa.Table, _ref=b_ref) -> pa.Table:
            bd, mm = ray.get(_ref)
            rid = t["id"].combine_chunks().to_numpy()
            g = (np.searchsorted(bd, rid, side="right") - 1).astype(
                np.int64)
            x = (rid - bd[g]) % mm[g]
            return pa.table({"g": pa.array(g), "ord": pa.array(rid),
                             "x": pa.array(x)})

        ds = ray.data.range(
            total, override_num_blocks=NCPU * 8).map_batches(
            mk, batch_format="pyarrow", zero_copy_batch=True)

        t0 = time.perf_counter()
        out = autocorr_by_group(ds, "g", ["ord"], "x",
                                lag=1).to_pandas()
        sec = time.perf_counter() - t0
        out = out.sort_values("g").reset_index(drop=True)
        assert len(out) == G, len(out)
        assert (out["g"].to_numpy() == np.arange(G)).all()
        assert (out["n_obs"].to_numpy() == n_g).all()
        exp = np.array([expected(int(m), int(n))
                        for m, n in zip(m_g, n_g)], np.int64)
        assert (out["acf_permille"].to_numpy() == exp).all(), (
            out["acf_permille"].to_numpy()[:5], exp[:5])
        print(json.dumps({
            "n_rows": total, "n_groups": G, "num_cpus": NCPU,
            "sec": round(sec, 2),
            "rows_per_sec": round(total / sec),
            "acf_min": int(exp.min()), "acf_max": int(exp.max()),
            "n_distinct_acf": int(len(set(exp.tolist()))),
            "calib_sec": _calib()}))
    finally:
        ray.shutdown()



def main_hits() -> None:
    """HITS at ~20M edges with per-row closed-form scores: N users
    A_i each point at page B_(i mod P), plus one hub user H pointing
    at every page.  With r = N // P (N chosen divisible by P):

        a1(B_j) = r + 1                     h1(A_i) = r + 1
        h1(H)   = P * (r + 1)
        a2(B_j) = r * (r + 1) + P * (r + 1) = (r + P) * (r + 1)
        h2(A_i) = a2                        h2(H) = P * a2

    Verifies every one of the N + P + 1 node rows (hub AND auth)
    against the closed form."""
    import numpy as np
    import ray
    from ray.data import DataContext

    P = 1000
    N = 20_000_000
    r = N // P
    HUB = 3_000_000_000          # ids: users 0..N-1, pages 2e9+j
    PAGE0 = 2_000_000_000
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.iterative import hits_fixedpoint

        def mk(t: pa.Table) -> pa.Table:
            i = t["id"].combine_chunks().to_numpy()
            src = i.copy()
            dst = PAGE0 + (i % P)
            # fold the hub's P edges into block 0 deterministically
            if i.min() == 0:
                src = np.concatenate([src,
                                      np.full(P, HUB, np.int64)])
                dst = np.concatenate([dst,
                                      PAGE0 + np.arange(P)])
            return pa.table({"src": pa.array(src),
                             "dst": pa.array(dst)})

        edges = ray.data.range(
            N, override_num_blocks=NCPU * 8).map_batches(
            mk, batch_format="pyarrow", zero_copy_batch=True)

        t0 = time.perf_counter()
        out = hits_fixedpoint(edges, "src", "dst", n_iter=2)

        a2 = (r + P) * (r + 1)

        def check(t: pa.Table) -> pa.Table:
            nd = t["node"].combine_chunks().to_numpy()
            hub = t["hub"].combine_chunks().to_numpy()
            auth = t["auth"].combine_chunks().to_numpy()
            users = nd < PAGE0
            pages = (nd >= PAGE0) & (nd < HUB)
            hubrow = nd == HUB
            assert (hub[users] == a2).all()
            assert (auth[users] == 0).all()
            assert (hub[pages] == 0).all()
            assert (auth[pages] == a2).all()
            assert (hub[hubrow] == P * a2).all()
            assert (auth[hubrow] == 0).all()
            return pa.table({"n": pa.array([len(t)], pa.int64())})

        n_rows = sum(
            int(x) for b in out.map_batches(
                check, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow")
            for x in b["n"].to_pylist())
        sec = time.perf_counter() - t0
        assert n_rows == N + P + 1, n_rows
        print(json.dumps({
            "n_edges": N + P, "n_nodes": n_rows, "num_cpus": NCPU,
            "sec": round(sec, 2),
            "edges_per_sec": round((N + P) / sec),
            "calib_sec": _calib()}))
    finally:
        ray.shutdown()



def main_gini() -> None:
    """Gini coefficient at ~50M rows / 500 groups: group g holds
    r_g = 2000 + 4*g copies of EACH value in 1..m_g (m_g = 10 + g),
    so the exact permille has a closed form via the same rank-run
    identity the operator uses -- computed independently here from
    (m, r) alone, never from the data.  All 500 rows asserted."""
    import numpy as np
    import ray
    from ray.data import DataContext

    G = 500
    m_g = np.array([10 + g for g in range(G)], np.int64)
    r_g = np.array([2000 + 4 * g for g in range(G)], np.int64)
    n_g = m_g * r_g
    bounds = np.concatenate([[0], np.cumsum(n_g)])
    total = int(bounds[-1])

    def expected(m: int, r: int) -> int:
        n = m * r
        S = r * m * (m + 1) // 2
        num, C = 0, 0
        for v in range(1, m + 1):
            num += v * r * (2 * C + r - n)
            C += r
        return (1000 * num) // (n * S)

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.quantile import (
            gini_coefficient_by_group)

        b_ref = ray.put((bounds, m_g))

        def mk(t: pa.Table, _ref=b_ref) -> pa.Table:
            bd, mm = ray.get(_ref)
            rid = t["id"].combine_chunks().to_numpy()
            g = (np.searchsorted(bd, rid, side="right") - 1).astype(
                np.int64)
            x = 1 + (rid - bd[g]) % mm[g]
            return pa.table({"g": pa.array(g), "x": pa.array(x)})

        ds = ray.data.range(
            total, override_num_blocks=NCPU * 8).map_batches(
            mk, batch_format="pyarrow", zero_copy_batch=True)

        t0 = time.perf_counter()
        out = gini_coefficient_by_group(ds, "g", "x").to_pandas()
        sec = time.perf_counter() - t0
        out = out.sort_values("g").reset_index(drop=True)
        assert len(out) == G, len(out)
        assert (out["g"].to_numpy() == np.arange(G)).all()
        assert (out["n_obs"].to_numpy() == n_g).all()
        exp = np.array([expected(int(m), int(r))
                        for m, r in zip(m_g, r_g)], np.int64)
        assert (out["gini_permille"].to_numpy() == exp).all(), (
            out["gini_permille"].to_numpy()[:5], exp[:5])
        print(json.dumps({
            "n_rows": total, "n_groups": G, "num_cpus": NCPU,
            "sec": round(sec, 2),
            "rows_per_sec": round(total / sec),
            "gini_min": int(exp.min()), "gini_max": int(exp.max()),
            "n_distinct_gini": int(len(set(exp.tolist()))),
            "calib_sec": _calib()}))
    finally:
        ray.shutdown()


CORPUS_KT = "/tmp/llm_scale_ktruss_v1"
KT_BLOCK = 100
KT_N_NODES = 2_400_000


def build_ktruss_corpus() -> tuple[int, int]:
    """Deterministic path-power graph with a closed-form k-truss:
    node ids partition into blocks of 100; block b is the p-th power
    of a path with p = 1 + (b % 6).  P^p is EXACTLY a (p+1)-truss
    (interior span-j edge support is 2p-j-1, boundary edges bottom out
    at p-1, and every k-truss is a (k-1)-core so coreness p bounds the
    trussness above), so running k=5 must keep blocks with p >= 4
    wholly -- every surviving edge's support has the closed form
    min(B-1, i+p) - max(0, i+j-p) - 1 in block coordinates -- and must
    fully dissolve p <= 3 blocks, the p=3 ones only through a
    multi-round peel cascade (P^3 -> P^2-ish -> empty).  Every 10th
    edge is planted reversed as a duplicate to exercise
    canonicalization at scale."""
    marker = os.path.join(CORPUS_KT, ".done")
    if os.path.exists(marker):
        with open(marker) as f:
            d = json.load(f)
            return d["n_rows"], d["n_nodes"]
    os.makedirs(CORPUS_KT, exist_ok=True)
    ids = np.arange(KT_N_NODES, dtype=np.int64)
    p = 1 + (ids // KT_BLOCK) % 6
    srcs, dsts = [], []
    for j in range(1, 7):
        keep = (j <= p) & ((ids + j) // KT_BLOCK == ids // KT_BLOCK)
        srcs.append(ids[keep])
        dsts.append(ids[keep] + j)
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    dup = np.arange(len(src)) % 10 == 0
    src, dst = (np.concatenate([src, dst[dup]]),
                np.concatenate([dst, src[dup]]))
    n_rows = len(src)
    order = np.arange(n_rows)
    for shard in range(N_SHARDS):
        m = order % N_SHARDS == shard
        out = pa.table({"src": pa.array(src[m]),
                        "dst": pa.array(dst[m])})
        tmp = os.path.join(CORPUS_KT, f".tmp-{shard:04d}.parquet")
        pq.write_table(out, tmp)
        os.replace(tmp,
                   os.path.join(CORPUS_KT, f"part-{shard:04d}.parquet"))
    with open(marker, "w") as f:
        json.dump({"n_rows": n_rows, "n_nodes": KT_N_NODES}, f)
    return n_rows, KT_N_NODES


def main_ktruss() -> None:
    import ray
    from ray.data import DataContext

    n_rows, n_nodes = build_ktruss_corpus()
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.iterative import ktruss

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        k = 5
        t0 = time.perf_counter()
        out = ktruss(ray.data.read_parquet(CORPUS_KT), "src", "dst", k)
        parts = [b for b in out.iter_batches(batch_format="pyarrow")]
        sec = time.perf_counter() - t0

        a = np.concatenate([b["a"].to_numpy() for b in parts])
        bcol = np.concatenate([b["b"].to_numpy() for b in parts])
        sup = np.concatenate([b["support"].to_numpy() for b in parts])
        blk = a // KT_BLOCK
        p = 1 + blk % 6
        # no edge from a dissolving block may survive
        assert (p >= k - 1).all(), int((p < k - 1).sum())
        i = a % KT_BLOCK
        j = bcol - a
        want = (np.minimum(KT_BLOCK - 1, i + p)
                - np.maximum(0, i + j - p) - 1)
        assert (sup == want).all(), int((sup != want).sum())
        # exact surviving edge count: blocks cycle p=1..6 uniformly
        n_blocks = n_nodes // KT_BLOCK
        want_edges = sum(
            (n_blocks // 6) * sum(KT_BLOCK - jj for jj in range(1, pp + 1))
            for pp in range(k - 1, 7))
        assert len(a) == want_edges, (len(a), want_edges)

        print(json.dumps({
            "n_edge_rows": n_rows, "n_nodes": n_nodes, "k": k,
            "surviving_edges": int(len(a)), "num_cpus": NCPU,
            "sec": round(sec, 2),
            "edge_rows_per_sec": round(n_rows / sec),
            "truth": "support == min(99,i+p)-max(0,i+j-p)-1 on every "
                     "surviving row; p<=3 blocks fully dissolved",
            "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()



def main_tree() -> None:
    """Pointer-doubling hierarchy closure + rollup at ~3.3M nodes /
    42.6M closure rows: 100 complete binary trees of 15 levels
    (tree t = ids t*65536 + k, k in 1..32767, parent = k // 2), so
    every closure row has the closed form anc = base + (k >> depth),
    every node's depth is floor(log2 k), its root is base + 1 and its
    subtree size is 2^(15 - level) - 1.  The closure is verified
    DISTRIBUTED (per-batch validity + count + an exact key-sum
    checksum folded in Python ints -- never 42M rows on the driver);
    the rollup is verified per row batch-by-batch."""
    import numpy as np
    import ray
    from ray.data import DataContext

    T = 100
    LEVELS = 15
    PER = (1 << LEVELS) - 1          # 32767 nodes per tree
    STRIDE = 1 << 16
    n_edges_per = PER - 1

    k = np.arange(2, PER + 1, dtype=np.int64)
    lk = np.floor(np.log2(k)).astype(np.int64)   # exact for k < 2^24
    L1 = int(lk.sum())                            # closure rows per tree
    # per-tree key-sum of (16*node + depth) over all closure rows
    A = int((16 * k * lk).sum()) + int((lk * (lk + 1) // 2).sum())
    want_count = T * L1
    want_keysum = T * A + 16 * STRIDE * L1 * (T * (T - 1) // 2)
    node_sum_per = int(k.sum()) + 1               # rollup: ids 1..PER
    want_node_sum = (T * node_sum_per
                     + STRIDE * PER * (T * (T - 1) // 2))

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.iterative import (tree_closure,
                                                         tree_stats)

        def mk(t: pa.Table) -> pa.Table:
            e = t["id"].combine_chunks().to_numpy()
            tr, kk = e // n_edges_per, 2 + e % n_edges_per
            base = tr * STRIDE
            return pa.table({"node": pa.array(base + kk),
                             "parent": pa.array(base + kk // 2)})

        def edges():
            return ray.data.range(
                T * n_edges_per,
                override_num_blocks=NCPU * 4).map_batches(
                mk, batch_format="pyarrow", zero_copy_batch=True)

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        def check_clo(b: pa.Table) -> pa.Table:
            node = b["node"].combine_chunks().to_numpy()
            anc = b["anc"].combine_chunks().to_numpy()
            d = b["depth"].combine_chunks().to_numpy()
            kk = node & (STRIDE - 1)
            base = node - kk
            ok = ((d >= 1) & ((kk >> d) >= 1)
                  & (anc == base + (kk >> d)))
            return pa.table({
                "n": pa.array([len(node)], pa.int64()),
                "viol": pa.array([int((~ok).sum())], pa.int64()),
                "ks": pa.array([int((16 * node + d).sum())],
                               pa.int64())})

        t0 = time.perf_counter()
        clo = tree_closure(edges(), "node", "parent")
        n_rows = 0
        viol = 0
        keysum = 0
        # verification runs DISTRIBUTED; only per-block partials
        # stream to the driver (folded in Python ints, every row of
        # every coalesced batch)
        for b in clo.map_batches(check_clo, batch_format="pyarrow"
                                 ).iter_batches(batch_format="pyarrow",
                                                batch_size=None):
            n_rows += int(b["n"].to_numpy().sum())
            viol += int(b["viol"].to_numpy().sum())
            keysum += sum(int(x) for x in b["ks"].to_numpy())
        sec_clo = time.perf_counter() - t0
        assert viol == 0, viol
        assert n_rows == want_count, (n_rows, want_count)
        assert keysum == want_keysum, (keysum, want_keysum)

        def check_st(g: pd.DataFrame) -> pd.DataFrame:
            node = g["node"].to_numpy(np.int64)
            kk = node & (STRIDE - 1)
            base = node - kk
            lvl = np.floor(np.log2(kk)).astype(np.int64)
            ok = ((g["depth"].to_numpy(np.int64) == lvl)
                  & (g["root"].to_numpy(np.int64) == base + 1)
                  & (g["subtree_size"].to_numpy(np.int64)
                     == (1 << (LEVELS - lvl)) - 1))
            return pd.DataFrame({
                "n": [len(node)], "viol": [int((~ok).sum())],
                "ns": [int(node.sum())]})

        t0 = time.perf_counter()
        st = tree_stats(edges(), "node", "parent")
        n_nodes = 0
        node_sum = 0
        viol_st = 0
        for b in st.map_batches(check_st, batch_format="pandas"
                                ).iter_batches(batch_format="pyarrow",
                                               batch_size=None):
            n_nodes += int(b["n"].to_numpy().sum())
            viol_st += int(b["viol"].to_numpy().sum())
            node_sum += sum(int(x) for x in b["ns"].to_numpy())
        sec_st = time.perf_counter() - t0
        assert viol_st == 0, viol_st
        assert n_nodes == T * PER, (n_nodes, T * PER)
        assert node_sum == want_node_sum, (node_sum, want_node_sum)

        print(json.dumps({
            "n_nodes": T * PER, "n_closure_rows": want_count,
            "depth": LEVELS - 1, "num_cpus": NCPU,
            "closure_sec": round(sec_clo, 2),
            "closure_rows_per_sec": round(want_count / sec_clo),
            "tree_stats_sec": round(sec_st, 2),
            "truth": "anc == base + (k >> depth) on every closure row "
                     "(+ exact count + key-sum); depth/root/subtree "
                     "closed forms on every rollup row",
            "calib_sec": _calib()}))
    finally:
        ray.shutdown()


def main_mw() -> None:
    """Mann-Whitney u2 at ~75M rows / 500 groups: group g holds, per
    side, 100 copies of each value in [0, m_g) (side 0) and
    [c_g, c_g + m_g) (side 1) with m_g = 500 + g, c_g = g % 7 -- so
    #(a>b) = r^2 (m-1-c)(m-c)/2 and #(a==b) = r^2 (m-c), giving the
    exact closed form u2 = r^2 (m - c)^2.  All 500 output rows
    asserted bit-exact."""
    import numpy as np
    import ray
    from ray.data import DataContext

    G = 500
    R = 100
    m_g = np.array([500 + g for g in range(G)], np.int64)
    c_g = np.array([g % 7 for g in range(G)], np.int64)
    side_n = m_g * R
    grp_n = 2 * side_n
    bounds = np.concatenate([[0], np.cumsum(grp_n)])
    total = int(bounds[-1])
    want_u2 = R * R * (m_g - c_g) ** 2

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.groupagg import mann_whitney_u

        b_ref = ray.put((bounds, m_g, c_g))

        def mk(t: pa.Table, _ref=b_ref) -> pa.Table:
            bd, mm, cc = ray.get(_ref)
            rid = t["id"].combine_chunks().to_numpy()
            g = (np.searchsorted(bd, rid, side="right") - 1).astype(
                np.int64)
            pos = rid - bd[g]
            ns = mm[g] * R
            side = (pos >= ns).astype(np.int64)
            ip = pos - side * ns
            val = ip // R + side * cc[g]
            return pa.table({"g": pa.array(g), "side": pa.array(side),
                             "val": pa.array(val)})

        ds = ray.data.range(
            total, override_num_blocks=NCPU * 8).map_batches(
            mk, batch_format="pyarrow", zero_copy_batch=True)

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        t0 = time.perf_counter()
        out = mann_whitney_u(ds, "g", "side", "val").to_pandas()
        sec = time.perf_counter() - t0
        out = out.sort_values("grp").reset_index(drop=True)
        assert len(out) == G, len(out)
        assert (out["grp"].to_numpy() == np.arange(G)).all()
        assert (out["n_a"].to_numpy() == side_n).all()
        assert (out["n_b"].to_numpy() == side_n).all()
        assert (out["u2"].to_numpy() == want_u2).all(), (
            out["u2"].to_numpy()[:5], want_u2[:5])
        print(json.dumps({
            "n_rows": total, "n_groups": G, "num_cpus": NCPU,
            "sec": round(sec, 2), "rows_per_sec": round(total / sec),
            "truth": "u2 == r^2 (m-c)^2 per group, n_a/n_b exact",
            "calib_sec": _calib()}))
    finally:
        ray.shutdown()



def main_dedup() -> None:
    """MinHash+LSH near-dup dedup at 1,000,000 docs with 10,000
    PLANTED exact-duplicate pairs (doc j = 500000 + i carries doc i's
    text for i < 10000; every other doc's words embed its own id, so
    cross-doc shingle sets are disjoint and Jaccard is 0): the output
    must be EXACTLY the planted clusters {(i, i), (500000+i, i)} --
    no false merges possible past the exact-Jaccard verify, no false
    misses possible for exact copies (identical signatures collide in
    every band).  Runs the broadcast_cand_cap=0 SHUFFLE-verify path
    (the 100 TB path: candidate shingles move through a tagged-union
    bucketed exchange, never a driver broadcast)."""
    import numpy as np
    import ray
    from ray.data import DataContext

    N = 1_000_000
    K = 10_000
    OFF = 500_000

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.dedup import minhash_lsh_dedup

        def mk(t: pa.Table) -> pa.Table:
            # words are hash-derived 8-hex tokens: decimal-id words
            # (w1110x3 vs w110x3) share most of their CHARACTER
            # 5-gram shingles, and the exact-Jaccard verify correctly
            # merges them -- the corpus, not the operator, must keep
            # non-planted docs shingle-disjoint
            rid = t["id"].combine_chunks().to_numpy()
            src = np.where((rid >= OFF) & (rid < OFF + K),
                           rid - OFF, rid)
            h = (src[:, None] * 0x9E3779B1
                 + np.arange(20)[None, :] * 0x85EBCA6B) % (1 << 32)
            texts = [" ".join(f"{w:08x}" for w in row) for row in h]
            return pa.table({"doc_id": pa.array(rid),
                             "text": pa.array(texts)})

        ds = ray.data.range(
            N, override_num_blocks=NCPU * 8).map_batches(
            mk, batch_format="pyarrow", zero_copy_batch=True)

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        t0 = time.perf_counter()
        out = minhash_lsh_dedup(ds, "text", "doc_id",
                                jaccard_threshold=0.8,
                                broadcast_cand_cap=0)
        sec = time.perf_counter() - t0
        got = set(zip(out["doc_id"].astype(np.int64),
                      out["cluster_rep"].astype(np.int64)))
        want = {(i, i) for i in range(K)} | {
            (OFF + i, i) for i in range(K)}
        assert got == want, (len(got), len(want),
                             sorted(got - want)[:5],
                             sorted(want - got)[:5])
        print(json.dumps({
            "n_docs": N, "planted_pairs": K, "num_cpus": NCPU,
            "sec": round(sec, 2), "docs_per_sec": round(N / sec),
            "truth": "clusters == exactly the planted "
                     "{(i,i),(500000+i,i)} set, shuffle-verify path",
            "calib_sec": _calib()}))
    finally:
        ray.shutdown()



def main_dedup10m() -> None:
    """MinHash+LSH dedup at 10,000,000 docs with 100,000 planted
    exact-duplicate pairs, run through BOTH closure regimes (round-3
    verdict task #6): (a) driver union-find (edge count under
    driver_edge_cap) and (b) driver_edge_cap=0 -> the distributed
    connected-components closure.  Both runs use the shuffle-verify
    candidate path (broadcast_cand_cap=0): at this scale ~5.8M
    candidate docs appear (the 1.6M planted band rows plus ~2.7M
    random 32-bit band-hash collisions -- realistic LSH noise the
    exact-Jaccard verify must and does reject), so broadcasting the
    shingle table would ship ~1.2 GB per worker; the tagged-union
    bucketed exchange is the only sane route, exactly as in
    production.  Both regimes must recover EXACTLY the planted
    clusters {(i, i), (5000000+i, i) : i < 100000} -- closed-form
    truth, same shingle-disjoint corpus construction as main_dedup."""
    import numpy as np
    import ray
    from ray.data import DataContext

    N = 10_000_000
    K = 100_000
    OFF = 5_000_000

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.dedup import minhash_lsh_dedup

        def mk(t: pa.Table) -> pa.Table:
            rid = t["id"].combine_chunks().to_numpy()
            src = np.where((rid >= OFF) & (rid < OFF + K),
                           rid - OFF, rid)
            h = (src[:, None] * 0x9E3779B1
                 + np.arange(20)[None, :] * 0x85EBCA6B) % (1 << 32)
            texts = [" ".join(f"{w:08x}" for w in row) for row in h]
            return pa.table({"doc_id": pa.array(rid),
                             "text": pa.array(texts)})

        # materialize the 1.8 GB corpus once so the second regime's run
        # times the OPERATOR, not a re-generation
        ds = ray.data.range(
            N, override_num_blocks=NCPU * 8).map_batches(
            mk, batch_format="pyarrow",
            zero_copy_batch=True).materialize()

        want = {(i, i) for i in range(K)} | {
            (OFF + i, i) for i in range(K)}
        out = {}
        for label, kwargs in [
            ("driver_unionfind", dict(broadcast_cand_cap=0,
                                      driver_edge_cap=1 << 30)),
            ("distributed_cc", dict(broadcast_cand_cap=0,
                                    driver_edge_cap=0)),
        ]:
            t0 = time.perf_counter()
            res = minhash_lsh_dedup(ds, "text", "doc_id",
                                    jaccard_threshold=0.8, **kwargs)
            sec = time.perf_counter() - t0
            got = set(zip(res["doc_id"].astype(np.int64),
                          res["cluster_rep"].astype(np.int64)))
            assert got == want, (label, len(got), len(want),
                                 sorted(got - want)[:5],
                                 sorted(want - got)[:5])
            out[label] = {"sec": round(sec, 2),
                          "docs_per_sec": round(N / sec)}
        print(json.dumps({
            "n_docs": N, "planted_pairs": K, "num_cpus": NCPU,
            **out,
            "truth": "both closure paths recover exactly the planted "
                     "{(i,i),(5000000+i,i)} clusters",
            "calib_sec": _calib()}))
    finally:
        ray.shutdown()


def main_incdedup() -> None:
    """Cross-run incremental dedup (state/dedup_index.py) at scale:
    run 1 ingests 4,000,000 unique docs; run 2 (a FRESH actor pool
    reloading the flushed index from disk -- the restart path) ingests
    4,000,000 docs of which every id % 4 == 0 repeats run-1 content;
    run 3 replays run 2's stream verbatim.  Closed-form truth:
    run 1 keeps all 4M; run 2 keeps EXACTLY the 3M new docs (zero
    repeats survive -- checked by an id-arithmetic fold inside the
    stream, no driver materialization of payloads); run 3 keeps 0.
    Only 8-byte hashes ever travel to the 8 shard actors."""
    import shutil as _sh

    import numpy as np
    import ray
    from ray.data import DataContext

    N = 4_000_000
    index_dir = "/tmp/incdedup_proof_index"
    _sh.rmtree(index_dir, ignore_errors=True)

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.state.dedup_index import (DedupIndex,
                                                             incremental_dedup)

        def corpus(run: int):
            def mk(t: pa.Table) -> pa.Table:
                rid = t["id"].combine_chunks().to_numpy()
                if run == 1:
                    src = rid
                else:
                    # id%4==0 repeats run-1 content; others are new
                    src = np.where(rid % 4 == 0, rid, rid + 10_000_000)
                h = (src * 0x9E3779B1) % (1 << 32)
                texts = [f"doc {v:08x} payload {v % 97}" for v in h]
                return pa.table({"doc_id": pa.array(rid),
                                 "text": pa.array(texts)})

            return ray.data.range(
                N, override_num_blocks=NCPU * 4).map_batches(
                mk, batch_format="pyarrow", zero_copy_batch=True)

        def consume(ds):
            """Count kept rows + kept-repeat rows via a streaming fold
            (no payloads to the driver)."""
            def fold(t: pa.Table) -> pa.Table:
                rid = t["doc_id"].combine_chunks().to_numpy()
                return pa.table({
                    "n": pa.array([len(rid)], pa.int64()),
                    "n_rep": pa.array([int((rid % 4 == 0).sum())],
                                      pa.int64())})

            out = ds.map_batches(fold, batch_format="pyarrow").to_pandas()
            if out.empty:  # all-empty blocks skip the fold fn entirely
                return 0, 0
            return int(out["n"].sum()), int(out["n_rep"].sum())

        results = {}
        t0 = time.perf_counter()
        idx = DedupIndex(index_dir, n_shards=8)
        n1, _ = consume(incremental_dedup(corpus(1), idx, "text",
                                          "doc_id"))
        idx.flush()
        assert n1 == N and idx.size() == N, (n1, idx.size())
        idx.shutdown()
        results["run1"] = {"kept": n1, "sec": round(
            time.perf_counter() - t0, 2)}

        t0 = time.perf_counter()
        idx = DedupIndex(index_dir, n_shards=8)  # restart: reload disk
        n2, rep2 = consume(incremental_dedup(corpus(2), idx, "text",
                                             "doc_id"))
        idx.flush()
        assert n2 == 3 * N // 4 and rep2 == 0, (n2, rep2)
        assert idx.size() == N + 3 * N // 4
        results["run2"] = {"kept": n2, "repeats_leaked": rep2,
                           "sec": round(time.perf_counter() - t0, 2)}

        t0 = time.perf_counter()
        n3, _ = consume(incremental_dedup(corpus(2), idx, "text",
                                          "doc_id"))
        idx.shutdown()
        assert n3 == 0, n3
        results["run3_replay"] = {"kept": n3, "sec": round(
            time.perf_counter() - t0, 2)}
        print(json.dumps({
            "n_docs_per_run": N, "num_cpus": NCPU, **results,
            "truth": "run1 keeps 4M, restarted run2 keeps exactly the "
                     "3M new (0 repeats), replay keeps 0",
            "calib_sec": _calib()}))
    finally:
        ray.shutdown()


def main_multimodal() -> None:
    """Multimodal actor-pool plumbing at 1,000,000 images: per-batch
    generated deterministic fake payloads (32x32 = 1032 B each, ~1 GB
    corpus that never materializes -- generation fuses into the decode
    consumer) through the REAL decode_images actor pool (codec loaded
    once per actor; batch_size 64 keeps payload batches heap-friendly).
    Truth is closed-form: every width/height/n_bytes must match the
    id-derived spec exactly (vectorized check over all 1M rows), and
    mean_intensity is re-derived independently on the driver for a
    deterministic 1-in-9973 id sample and compared bit-for-bit."""
    import numpy as np
    import ray
    from ray.data import DataContext

    N = 1_000_000
    W = H = 32

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.multimodal import (decode_images,
                                                          encode_fake_image)

        def mk(t: pa.Table) -> pa.Table:
            ids = t["id"].combine_chunks().to_numpy()
            return pa.table({
                "media_id": pa.array(ids.astype(np.int64)),
                "payload": pa.array(
                    [encode_fake_image(int(i), W, H) for i in ids],
                    type=pa.binary())})

        ds = ray.data.range(N, override_num_blocks=NCPU * 8).map_batches(
            mk, batch_format="pyarrow", zero_copy_batch=True)
        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        t0 = time.perf_counter()
        meta = decode_images(ds, concurrency=(4, NCPU // 2),
                             batch_size=64).to_pandas()
        sec = time.perf_counter() - t0

        assert len(meta) == N, len(meta)
        mid = meta["media_id"].to_numpy(np.int64)
        assert (meta["width"].to_numpy() == W).all()
        assert (meta["height"].to_numpy() == H).all()
        assert (meta["n_bytes"].to_numpy() == 8 + W * H).all()
        assert len(np.unique(mid)) == N
        # exact driver re-derivation for the deterministic sample
        sample = meta[mid % 9973 == 0].sort_values("media_id")
        for i, got in zip(sample["media_id"], sample["mean_intensity"]):
            want = float(np.frombuffer(
                encode_fake_image(int(i), W, H), dtype=np.uint8,
                offset=8).mean())
            assert got == want, (i, got, want)
        print(json.dumps({
            "n_images": N, "num_cpus": NCPU, "sec": round(sec, 2),
            "images_per_sec": round(N / sec),
            "sample_checked": int(len(sample)),
            "truth": "all 1M width/height/n_bytes exact + bit-exact "
                     "mean_intensity on the 1-in-9973 sample",
            "calib_sec": _calib()}))
    finally:
        ray.shutdown()


def main_pack() -> None:
    """GPT-style sequence packing at 100,000,000 docs: doc i has
    n_tok = 1 + (i % 5), so its exclusive global prefix has the closed
    form tok_start(i) = i + 10*(i//5) + r(r-1)/2 with r = i % 5, and
    pack_id / offset_in_pack / spans_boundary (window 1024) are all
    checked PER ROW batch-by-batch -- the distributed two-pass prefix
    sum never materializes anything driver-side beyond one row per
    range bucket."""
    import numpy as np
    import ray
    from ray.data import DataContext

    N = 100_000_000
    W = 1024

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.pack import pack_fixed_windows

        def mk(t: pa.Table) -> pa.Table:
            rid = t["id"].combine_chunks().to_numpy()
            return pa.table({"doc": pa.array(rid),
                             "n_tok": pa.array(1 + rid % 5)})

        ds = ray.data.range(
            N, override_num_blocks=NCPU * 8).map_batches(
            mk, batch_format="pyarrow", zero_copy_batch=True)

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        def check(g: pd.DataFrame) -> pd.DataFrame:
            i = g["doc"].to_numpy(np.int64)
            r = i % 5
            start = i + 10 * (i // 5) + r * (r - 1) // 2
            ln = 1 + r
            ok = ((g["tok_start"].to_numpy(np.int64) == start)
                  & (g["pack_id"].to_numpy(np.int64) == start // W)
                  & (g["offset_in_pack"].to_numpy(np.int64)
                     == start % W)
                  & (g["spans_boundary"].to_numpy(np.int64)
                     == (start % W + ln > W).astype(np.int64)))
            return pd.DataFrame({"n": [len(i)],
                                 "viol": [int((~ok).sum())]})

        t0 = time.perf_counter()
        out = pack_fixed_windows(ds, "doc", "n_tok", W)
        n_rows = 0
        viol = 0
        # distributed per-row verification; only per-block partials
        # reach the driver
        for b in out.map_batches(check, batch_format="pandas"
                                 ).iter_batches(batch_format="pyarrow",
                                                batch_size=None):
            n_rows += int(b["n"].to_numpy().sum())
            viol += int(b["viol"].to_numpy().sum())
        sec = time.perf_counter() - t0
        assert viol == 0, viol
        assert n_rows == N, n_rows
        print(json.dumps({
            "n_docs": N, "window": W, "num_cpus": NCPU,
            "sec": round(sec, 2), "docs_per_sec": round(N / sec),
            "truth": "tok_start == i + 10*(i//5) + r(r-1)/2 and "
                     "pack/offset/spans closed forms on every row",
            "calib_sec": _calib()}))
    finally:
        ray.shutdown()


def main_butterfly() -> None:
    """Butterfly counting at ~48M edge rows with closed-form truths:
    M disjoint K_{3,2} blocks (every edge emitted TWICE so the
    distinct collapse is exercised at scale) -- per block 6 distinct
    edges, 6 item-centered wedges, 3 butterflies -- plus 1000 hub
    items of degree 200 on fresh keys (19,900 wedges each, ZERO
    butterflies).  Run once capped at max_degree=100 (hubs dropped
    whole) and once uncapped (hub wedges included): both answers have
    exact closed forms."""
    import ray
    from ray.data import DataContext

    M = int(os.environ.get("GRAFT_BF_BLOCKS", "4000000"))
    HUBS, HUBDEG = 1000, 200
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.relational import butterfly_count

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        def block_edges(b: pa.Table) -> pa.Table:
            i = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            k = 10 * np.repeat(i, 6) + np.tile(
                np.array([0, 1, 2, 0, 1, 2], np.int64), len(i))
            it = 10 * np.repeat(i, 6) + np.tile(
                np.array([5, 5, 5, 6, 6, 6], np.int64), len(i))
            return pa.table({"k": np.concatenate([k, k]),
                             "i": np.concatenate([it, it])})

        def hub_edges(b: pa.Table) -> pa.Table:
            h = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            it = 10 * M + np.repeat(h, HUBDEG)
            k = (10 * M + HUBS + HUBDEG * np.repeat(h, HUBDEG)
                 + np.tile(np.arange(HUBDEG, dtype=np.int64), len(h)))
            return pa.table({"k": k, "i": it})

        def read():
            blocks = ray.data.range(
                M, override_num_blocks=NCPU * 4).map_batches(
                block_edges, batch_format="pyarrow")
            hubs = ray.data.range(HUBS, override_num_blocks=4).map_batches(
                hub_edges, batch_format="pyarrow")
            return blocks.union(hubs)

        n_rows = 12 * M + HUBS * HUBDEG
        results = {}

        t0 = time.perf_counter()
        capped = butterfly_count(read(), "k", "i",
                                 max_degree=100).to_pandas()
        sec = time.perf_counter() - t0
        got = (int(capped.n_edges[0]), int(capped.n_wedges[0]),
               int(capped.n_butterflies[0]))
        assert got == (6 * M, 6 * M, 3 * M), got
        results["butterfly_capped"] = {
            "sec": round(sec, 2),
            "edge_rows_per_sec": round(n_rows / sec),
            "truth": "(6M, 6M, 3M) exact; hubs dropped whole"}

        t0 = time.perf_counter()
        full = butterfly_count(read(), "k", "i").to_pandas()
        sec = time.perf_counter() - t0
        got = (int(full.n_edges[0]), int(full.n_wedges[0]),
               int(full.n_butterflies[0]))
        want = (6 * M + HUBS * HUBDEG,
                6 * M + HUBS * (HUBDEG * (HUBDEG - 1) // 2), 3 * M)
        assert got == want, (got, want)
        results["butterfly_uncapped"] = {
            "sec": round(sec, 2),
            "edge_rows_per_sec": round(n_rows / sec),
            "truth": "hub wedges C(200,2) each, zero hub butterflies"}

        print(json.dumps({
            "n_edge_rows": n_rows, "n_blocks": M, "num_cpus": NCPU,
            "ops": results, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


def main_dbscan() -> None:
    """dbscan_grid at millions of points with per-row closed-form
    truth: M planted sites on a 1000-unit grid (far beyond eps=20),
    each site = 4 mutually-in-range core points + 1 border + 1 noise
    point, ids 6*site+pos.  Expected output is pure id arithmetic
    (cluster = 6*site for pos 0..4, -1 for pos 5; is_core = pos <= 3),
    checked PER ROW inside map_batches -- only per-block (count,
    violations) partials reach the driver."""
    import ray
    from ray.data import DataContext

    M = int(os.environ.get("GRAFT_DBSCAN_SITES", "1000000"))
    G = int(np.ceil(np.sqrt(M)))
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.iterative import dbscan_grid

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        POS = np.array([(0, 0), (10, 0), (0, 10), (10, 10),
                        (25, 0), (50, 50)], np.int64)

        def gen(b: pa.Table) -> pa.Table:
            s = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            sx = (s % G) * 1000
            sy = (s // G) * 1000
            ids = 6 * np.repeat(s, 6) + np.tile(
                np.arange(6, dtype=np.int64), len(s))
            x = np.repeat(sx, 6) + np.tile(POS[:, 0], len(s))
            y = np.repeat(sy, 6) + np.tile(POS[:, 1], len(s))
            return pa.table({"id": ids, "x": x, "y": y})

        pts = ray.data.range(M, override_num_blocks=NCPU * 4).map_batches(
            gen, batch_format="pyarrow")
        n = 6 * M

        t0 = time.perf_counter()
        out = dbscan_grid(pts, "id", "x", "y", eps=20, min_pts=4)

        def check(t: pa.Table) -> pa.Table:
            ids = t["id"].combine_chunks().to_numpy(zero_copy_only=False)
            cl = t["cluster"].combine_chunks().to_numpy(
                zero_copy_only=False)
            co = t["is_core"].combine_chunks().to_numpy(
                zero_copy_only=False)
            pos = ids % 6
            want_cl = np.where(pos == 5, -1, 6 * (ids // 6))
            want_co = (pos <= 3).astype(np.int64)
            bad = int(((cl != want_cl) | (co != want_co)).sum())
            return pa.table({"n": pa.array([len(ids)], pa.int64()),
                             "bad": pa.array([bad], pa.int64())})

        parts = out.map_batches(check, batch_format="pyarrow").to_pandas()
        sec = time.perf_counter() - t0
        assert int(parts["bad"].sum()) == 0
        assert int(parts["n"].sum()) == n, (int(parts["n"].sum()), n)

        print(json.dumps({
            "n_points": n, "n_sites": M, "num_cpus": NCPU,
            "sec": round(sec, 2),
            "points_per_sec": round(n / sec),
            "truth": "per-row cluster/is_core == id arithmetic",
            "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


def main_causal() -> None:
    """linear_attribution + caliper_match at ~60M rows each, both with
    closed-form truths.

    Attribution: U users x the fixed sequence [c0 c1 c2 buy c0 buy]
    -- window 0 splits 1000 as 334/333/333, window 1 gives c0 all
    1000, so totals are EXACTLY (c0, c1, c2) = (1334U, 333U, 333U)
    with touch counts (2U, U, U) and zero direct.

    Matching: C unit cells [control@100i id 3i, treatedA@100i+30 id
    3i+1, treatedB@100i+60 id 3i+2] with caliper 50 -- A matches its
    own control at dist 30, B matches the NEXT cell's control at dist
    40 (cross-bucket halo exercised every cell), and the last B is
    unmatched.  Verified per row by id arithmetic inside map_batches."""
    import datetime

    import ray
    from ray.data import DataContext

    U = int(os.environ.get("GRAFT_CAUSAL_USERS", "10000000"))
    C = int(os.environ.get("GRAFT_CAUSAL_CELLS", "20000000"))
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.relational import caliper_match
        from ci_log_processing_ray.ops.window import linear_attribution

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()
        results = {}

        base = np.int64(1_700_000_000_000_000)  # epoch us
        chan = np.array(["c0", "c1", "c2", "buy", "c0", "buy"],
                        object)

        def ev_gen(b: pa.Table) -> pa.Table:
            u = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            n = len(u)
            j = np.tile(np.arange(6, dtype=np.int64), n)
            return pa.table({
                "event_id": 6 * np.repeat(u, 6) + j,
                "user_id": np.repeat(u, 6),
                "ts": pa.array((base + 60_000_000 * j).view("M8[us]")),
                "event_type": pa.array(np.tile(chan, n))})

        ev = ray.data.range(U, override_num_blocks=NCPU * 4).map_batches(
            ev_gen, batch_format="pyarrow")
        t0 = time.perf_counter()
        att = linear_attribution(ev, "user_id", "ts", "event_type",
                                 "event_id",
                                 conversion="buy").to_pandas()
        sec = time.perf_counter() - t0
        got = {r["channel"]: (int(r["credit"]), int(r["n_touches"]))
               for _, r in att.iterrows()}
        assert got == {"c0": (1334 * U, 2 * U), "c1": (333 * U, U),
                       "c2": (333 * U, U)}, got
        results["linear_attribution"] = {
            "sec": round(sec, 2), "n_events": 6 * U,
            "events_per_sec": round(6 * U / sec),
            "truth": "channel totals == closed form, no direct"}

        def cell_gen(b: pa.Table) -> pa.Table:
            i = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            n = len(i)
            pos = np.tile(np.array([0, 30, 60], np.int64), n)
            return pa.table({
                "rid": 3 * np.repeat(i, 3) + np.tile(
                    np.arange(3, dtype=np.int64), n),
                "s": 100 * np.repeat(i, 3) + pos,
                "tr": np.tile(np.array([0, 1, 1], np.int64), n)})

        rows = ray.data.range(C, override_num_blocks=NCPU * 4).map_batches(
            cell_gen, batch_format="pyarrow")
        t0 = time.perf_counter()
        out = caliper_match(rows, "rid", "s", "tr", caliper=50)

        def check(t: pa.Table) -> pa.Table:
            tid = t["treated_id"].combine_chunks().to_numpy(
                zero_copy_only=False)
            cid = t["control_id"].combine_chunks().to_numpy(
                zero_copy_only=False)
            d = t["dist"].combine_chunks().to_numpy(
                zero_copy_only=False)
            cell, pos = tid // 3, tid % 3
            want_c = np.where(pos == 1, 3 * cell, 3 * (cell + 1))
            want_d = np.where(pos == 1, 30, 40)
            bad = int(((cid != want_c) | (d != want_d)
                       | (pos == 0)).sum())
            return pa.table({"n": pa.array([len(tid)], pa.int64()),
                             "bad": pa.array([bad], pa.int64())})

        parts = out.map_batches(check, batch_format="pyarrow").to_pandas()
        sec = time.perf_counter() - t0
        assert int(parts["bad"].sum()) == 0
        assert int(parts["n"].sum()) == 2 * C - 1, int(parts["n"].sum())
        results["caliper_match"] = {
            "sec": round(sec, 2), "n_rows": 3 * C,
            "rows_per_sec": round(3 * C / sec),
            "truth": "per-row control/dist == id arithmetic; "
                     "last B unmatched"}

        print(json.dumps({
            "num_cpus": NCPU, "ops": results, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


def main_lifecycle() -> None:
    """clamped_running_balance at 40M rows + survival_table at 20M
    users, closed forms per row / per duration.

    Inventory: every supplier sees the delta pattern [+1, -3]
    repeated -- prefix sums 1, -2, -1, -4, ... so the clamped balance
    is EXACTLY 1 on even steps and 0 on odd steps (the clamp fires
    every other row; b = S - min(0, runmin S) per row).

    Survival: user u signs up at day 0 and converts at day u % 30,
    except every 3rd user (u % 3 == 0) never converts and is censored
    at the horizon (day 40 marker): n_events(d) and n_at_risk(d) have
    exact floor-division closed forms."""
    import ray
    from ray.data import DataContext

    SUP = int(os.environ.get("GRAFT_LC_SUPPLIERS", "400000"))
    PER = 100  # rows per supplier
    U = int(os.environ.get("GRAFT_LC_USERS", "20000000"))
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.window import (
            clamped_running_balance, survival_table)

        ray.data.range(NCPU * 4, override_num_blocks=NCPU).map_batches(
            lambda b: b).count()
        results = {}

        def inv_gen(b: pa.Table) -> pa.Table:
            s = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            sup = np.repeat(s, PER)
            step = np.tile(np.arange(PER, dtype=np.int64), len(s))
            delta = np.where(step % 2 == 0, 1, -3).astype(np.int64)
            return pa.table({"sup": sup, "step": step, "delta": delta})

        rows = ray.data.range(SUP, override_num_blocks=NCPU).map_batches(
            inv_gen, batch_format="pyarrow")
        t0 = time.perf_counter()
        out = clamped_running_balance(rows, "sup", ["step"], "delta")

        def check_inv(t: pa.Table) -> pa.Table:
            step = t["step"].combine_chunks().to_numpy(
                zero_copy_only=False)
            bal = t["balance"].combine_chunks().to_numpy(
                zero_copy_only=False)
            want = np.where(step % 2 == 0, 1, 0)
            bad = int((bal != want).sum())
            return pa.table({"n": pa.array([len(step)], pa.int64()),
                             "bad": pa.array([bad], pa.int64())})

        parts = out.map_batches(check_inv,
                                batch_format="pyarrow").to_pandas()
        sec = time.perf_counter() - t0
        assert int(parts["bad"].sum()) == 0
        assert int(parts["n"].sum()) == SUP * PER
        results["clamped_running_balance"] = {
            "sec": round(sec, 2), "n_rows": SUP * PER,
            "rows_per_sec": round(SUP * PER / sec),
            "truth": "per-row balance == parity closed form (clamp "
                     "fires every other row)"}

        day_us = 86_400_000_000
        base = np.int64(1_700_000_000_000_000)

        def ev_gen(b: pa.Table) -> pa.Table:
            u = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            conv = u % 3 != 0
            uu = np.concatenate([u, u[conv]])
            ty = np.concatenate([
                np.full(len(u), "signup", object),
                np.full(int(conv.sum()), "purchase", object)])
            ts = np.concatenate([
                np.full(len(u), base),
                base + (u[conv] % 30) * day_us])
            return pa.table({"user_id": uu,
                             "ts": pa.array(ts.view("M8[us]")),
                             "event_type": pa.array(ty)})

        horizon_marker = ray.data.from_items(
            [{"user_id": -1,
              "ts": np.datetime64(int(base + 40 * day_us),
                                  "us").item(),
              "event_type": "other"}])
        ev = ray.data.range(U, override_num_blocks=NCPU).map_batches(
            ev_gen, batch_format="pyarrow").union(horizon_marker)

        t0 = time.perf_counter()
        st = survival_table(ev, "user_id", "ts",
                            "event_type", start="signup",
                            event="purchase").to_pandas()
        sec = time.perf_counter() - t0

        got = {int(r["duration_days"]): (int(r["n_events"]),
                                         int(r["n_at_risk"]))
               for _, r in st.iterrows()}
        # closed form: u %% 30 == d forces u %% 3 == d %% 3 (3 | 30),
        # so durations with d %% 3 == 0 have zero events; otherwise
        # n_events(d) = U//30 + (U%%30 > d).  Censored users (u%%3==0,
        # ceil(U/3) of them) observe duration 40.
        n_ev = {d: U // 30 + (1 if U % 30 > d else 0)
                for d in range(30) if d % 3 != 0}
        n_cens = (U + 2) // 3
        want = {}
        for d in sorted(n_ev):
            at_risk = (sum(n for dd, n in n_ev.items() if dd >= d)
                       + n_cens)
            want[d] = (n_ev[d], at_risk)
        assert got == want, (len(got), len(want))
        results["survival_table"] = {
            "sec": round(sec, 2), "n_users": U,
            "users_per_sec": round(U / sec),
            "truth": "per-duration (n_events, n_at_risk) == modular "
                     "closed form"}

        print(json.dumps({
            "num_cpus": NCPU, "ops": results, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


def main_audit() -> None:
    """join_size_audit at 2x40M rows + source_vocab_overlap at 24M
    docs, closed forms.

    Join audit: keys 0..K-1 with left multiplicity 1+(k%3) and right
    1+(k%5): join_rows = sum over the period-15 cycle (closed form),
    max_amplification = 15 first achieved at hot_key = 14.

    Overlap: S sources, every doc of source s is 'shared only<s>':
    every pair has inter = 1, uni = 3, for all C(S,2) pairs -- corpus
    size is irrelevant to the output (the vocabulary contract)."""
    import ray
    from ray.data import DataContext

    K = int(os.environ.get("GRAFT_AU_KEYS", "20000000"))
    U = int(os.environ.get("GRAFT_AU_DOCS", "24000000"))
    S = 20
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.relational import join_size_audit
        from ci_log_processing_ray.ops.textstats import (
            source_vocab_overlap)

        ray.data.range(NCPU * 4, override_num_blocks=NCPU).map_batches(
            lambda b: b).count()
        results = {}

        def side(mod):
            def gen(b: pa.Table) -> pa.Table:
                k = b["id"].combine_chunks().to_numpy(
                    zero_copy_only=False)
                reps = 1 + (k % mod)
                return pa.table({"key": np.repeat(k, reps)})
            return ray.data.range(
                K, override_num_blocks=NCPU).map_batches(
                gen, batch_format="pyarrow")

        t0 = time.perf_counter()
        out = join_size_audit(side(3), side(5), "key", "key").to_pandas()
        sec = time.perf_counter() - t0
        cyc = sum((1 + a % 3) * (1 + a % 5) for a in range(15))
        tail = sum((1 + a % 3) * (1 + a % 5) for a in range(K % 15))
        want_rows = (K // 15) * cyc + tail
        got = (int(out.join_rows[0]), int(out.max_amplification[0]),
               int(out.hot_key[0]), int(out.n_shared_keys[0]))
        assert got == (want_rows, 15, 14, K), got
        nl = K + sum(a % 3 for a in range(15)) * (K // 15)
        results["join_size_audit"] = {
            "sec": round(sec, 2),
            "input_rows": "~2x40M",
            "rows_per_sec": round(4 * K / sec),
            "truth": "period-15 closed form; hot_key 14 at amp 15"}

        texts = np.array([f"shared only{s}" for s in range(S)], object)

        def dgen(b: pa.Table) -> pa.Table:
            i = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            return pa.table({
                "src": pa.array(pd.Series(i % S).map(
                    lambda x: f"s{x:02d}").to_numpy(), pa.string()),
                "text": pa.array(texts[i % S])})

        docs = ray.data.range(U, override_num_blocks=NCPU).map_batches(
            dgen, batch_format="pyarrow")
        t0 = time.perf_counter()
        ov = source_vocab_overlap(docs, "src", "text").to_pandas()
        sec = time.perf_counter() - t0
        assert len(ov) == S * (S - 1) // 2
        assert (ov["inter"] == 1).all() and (ov["uni"] == 3).all()
        results["source_vocab_overlap"] = {
            "sec": round(sec, 2), "n_docs": U,
            "docs_per_sec": round(U / sec),
            "truth": "C(20,2) pairs, inter=1 uni=3 exactly"}

        print(json.dumps({
            "num_cpus": NCPU, "ops": results, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


def main_semiring() -> None:
    """widest_paths + shortest_path_counts at ~12M edge rows each,
    closed forms per planted site.

    Counting: binomial ladders seed->{a,b}->{c,d}->t give paths
    (1,1,1,2,2,4) at hops (0,1,1,2,2,3).  Widest: chains
    seed -5- x -3- y -7- z with a direct seed -2- y shortcut give
    widths (x,y,z) = (5,3,3), with y improving in round 2 and z in
    round 3 (the improved-frontier path is exercised every site)."""
    import ray
    from ray.data import DataContext

    M = int(os.environ.get("GRAFT_SR_SITES", "1500000"))
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.iterative import (
            WIDEST_SEED_W, shortest_path_counts, widest_paths)

        ray.data.range(NCPU * 4, override_num_blocks=NCPU).map_batches(
            lambda b: b).count()
        results = {}

        # ---- counting: nodes site*6 + [s,a,b,c,d,t] ----
        CE = np.array([(0, 1), (0, 2), (1, 3), (1, 4), (2, 3),
                       (2, 4), (3, 5), (4, 5)], np.int64)

        def cgen(b: pa.Table) -> pa.Table:
            s = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            base = 6 * np.repeat(s, len(CE))
            return pa.table({
                "a": base + np.tile(CE[:, 0], len(s)),
                "b": base + np.tile(CE[:, 1], len(s))})

        cedges = ray.data.range(
            M, override_num_blocks=NCPU).map_batches(
            cgen, batch_format="pyarrow")
        seeds = ray.data.range(
            M, override_num_blocks=NCPU).map_batches(
            lambda b: pa.table({
                "node": 6 * b["id"].combine_chunks().to_numpy(
                    zero_copy_only=False)}),
            batch_format="pyarrow")

        HOPS = np.array([0, 1, 1, 2, 2, 3], np.int64)
        PATHS = np.array([1, 1, 1, 2, 2, 4], np.int64)

        t0 = time.perf_counter()
        out = shortest_path_counts(cedges, "a", "b", seeds,
                                   n_rounds=3)

        def check_c(t: pa.Table) -> pa.Table:
            n = t["node"].combine_chunks().to_numpy(
                zero_copy_only=False)
            h = t["hops"].combine_chunks().to_numpy(
                zero_copy_only=False)
            c = t["paths"].combine_chunks().to_numpy(
                zero_copy_only=False)
            pos = n % 6
            bad = int(((h != HOPS[pos]) | (c != PATHS[pos])).sum())
            return pa.table({"n": pa.array([len(n)], pa.int64()),
                             "bad": pa.array([bad], pa.int64())})

        parts = out.map_batches(check_c, batch_format="pyarrow").to_pandas()
        sec = time.perf_counter() - t0
        assert int(parts["bad"].sum()) == 0
        assert int(parts["n"].sum()) == 6 * M
        results["shortest_path_counts"] = {
            "sec": round(sec, 2), "n_edge_rows": 8 * M,
            "edge_rows_per_sec": round(8 * M / sec),
            "truth": "per-row (hops, paths) == binomial-ladder form"}

        # ---- widest: nodes site*4 + [s,x,y,z] ----
        WE = np.array([(0, 1, 5), (1, 2, 3), (2, 3, 7), (0, 2, 2)],
                      np.int64)

        def wgen(b: pa.Table) -> pa.Table:
            s = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            base = 4 * np.repeat(s, len(WE))
            return pa.table({
                "a": base + np.tile(WE[:, 0], len(s)),
                "b": base + np.tile(WE[:, 1], len(s)),
                "w": np.tile(WE[:, 2], len(s))})

        wedges = ray.data.range(
            M, override_num_blocks=NCPU).map_batches(
            wgen, batch_format="pyarrow")
        wseeds = ray.data.range(
            M, override_num_blocks=NCPU).map_batches(
            lambda b: pa.table({
                "node": 4 * b["id"].combine_chunks().to_numpy(
                    zero_copy_only=False)}),
            batch_format="pyarrow")

        WID = np.array([0, 5, 3, 3], np.int64)

        t0 = time.perf_counter()
        wout = widest_paths(wedges, "a", "b", "w", wseeds, n_rounds=3)

        def check_w(t: pa.Table) -> pa.Table:
            n = t["node"].combine_chunks().to_numpy(
                zero_copy_only=False)
            w = t["width"].combine_chunks().to_numpy(
                zero_copy_only=False)
            pos = n % 4
            want = np.where(pos == 0, WIDEST_SEED_W, WID[pos])
            bad = int((w != want).sum())
            return pa.table({"n": pa.array([len(n)], pa.int64()),
                             "bad": pa.array([bad], pa.int64())})

        parts = wout.map_batches(check_w, batch_format="pyarrow").to_pandas()
        sec = time.perf_counter() - t0
        assert int(parts["bad"].sum()) == 0
        assert int(parts["n"].sum()) == 4 * M
        results["widest_paths"] = {
            "sec": round(sec, 2), "n_edge_rows": 4 * M,
            "edge_rows_per_sec": round(4 * M / sec),
            "truth": "per-row width == chain closed form; round-2/3 "
                     "improvements exercised"}

        print(json.dumps({
            "num_cpus": NCPU, "ops": results, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


def main_cdc() -> None:
    """cdc_chunk_stats at 10M docs via the replication invariance:
    200 distinct ~300-byte docs (100 bases + 100 one-byte-prefix
    variants, splitmix chars), each replicated U times.  With the
    kernel proven exact by the pure-Python parity unit test, the
    corpus-scale truth is CLOSED FORM in the small run: n_chunks and
    bytes_total scale by exactly U, n_distinct and bytes_distinct are
    INVARIANT -- any exchange/merge bug breaks one of the four."""
    import random

    import ray
    from ray.data import DataContext

    U = int(os.environ.get("GRAFT_CDC_REPLICAS", "50000"))
    random.seed(13)
    bases = ["".join(random.choice("abcdefgh ") for _ in range(300))
             for _ in range(100)]
    docs = bases + ["X" + b for b in bases]
    K = len(docs)

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.dedup import cdc_chunk_stats

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        small = cdc_chunk_stats(
            ray.data.from_items([{"t": d} for d in docs]),
            "t", window=16, mask_bits=5).to_pandas()
        nc, nd, bt, bd = (int(small.n_chunks[0]),
                          int(small.n_distinct[0]),
                          int(small.bytes_total[0]),
                          int(small.bytes_distinct[0]))

        texts = np.array(docs, object)

        def gen(b: pa.Table) -> pa.Table:
            i = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            return pa.table({"t": pa.array(texts[i % K])})

        corpus = ray.data.range(
            U * K, override_num_blocks=NCPU * 4).map_batches(
            gen, batch_format="pyarrow")

        t0 = time.perf_counter()
        big = cdc_chunk_stats(corpus, "t", window=16,
                              mask_bits=5).to_pandas()
        sec = time.perf_counter() - t0
        got = (int(big.n_chunks[0]), int(big.n_distinct[0]),
               int(big.bytes_total[0]), int(big.bytes_distinct[0]))
        assert got == (U * nc, nd, U * bt, bd), (got, (nc, nd, bt, bd))

        print(json.dumps({
            "n_docs": U * K, "stream_bytes": U * bt,
            "num_cpus": NCPU, "sec": round(sec, 2),
            "docs_per_sec": round(U * K / sec),
            "mb_per_sec": round(U * bt / sec / 1e6, 1),
            "truth": "n_chunks/bytes scale by U exactly; distinct "
                     "set invariant",
            "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


def main_rankops() -> None:
    """quantile_normalize + trimmed_mean_stats at 30M rows, closed
    forms: ref group g0 holds values 0..N-1, 56 probe groups hold
    values 0..S-1, so the rank map is EXACTLY mapped(j) = j*N // S
    per row, and the 20%-trimmed sums are arithmetic-series closed
    forms per group."""
    import ray
    from ray.data import DataContext

    N = int(os.environ.get("GRAFT_RK_REF", "2000000"))
    S = int(os.environ.get("GRAFT_RK_SIZE", "500000"))
    GROUPS = 56
    BIG = 10**7
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.window import (
            quantile_normalize, trimmed_mean_stats)

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()
        results = {}
        total = N + GROUPS * S

        def gen(b: pa.Table) -> pa.Table:
            i = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            g = np.where(i < N, 0, 1 + (i - N) // S)
            j = np.where(i < N, i, (i - N) % S)
            return pa.table({
                "rid": g * BIG + j,
                "grp": pa.array(
                    pd.Series(g).map(lambda x: f"g{x}").to_numpy(),
                    pa.string()),
                "v": j})

        def rows():
            return ray.data.range(
                total, override_num_blocks=NCPU * 4).map_batches(
                gen, batch_format="pyarrow")

        t0 = time.perf_counter()
        out = quantile_normalize(rows(), "grp", "v", "rid",
                                 ref_group="g0")

        def check(t: pa.Table) -> pa.Table:
            rid = t["rid"].combine_chunks().to_numpy(
                zero_copy_only=False)
            mp = t["mapped"].combine_chunks().to_numpy(
                zero_copy_only=False)
            j = rid % BIG
            is_ref = rid < BIG
            want = np.where(is_ref, j, j * np.int64(N) // np.int64(S))
            bad = int((mp != want).sum())
            return pa.table({"n": pa.array([len(rid)], pa.int64()),
                             "bad": pa.array([bad], pa.int64())})

        parts = out.map_batches(check, batch_format="pyarrow").to_pandas()
        sec = time.perf_counter() - t0
        assert int(parts["bad"].sum()) == 0
        assert int(parts["n"].sum()) == total
        results["quantile_normalize"] = {
            "sec": round(sec, 2), "rows_per_sec": round(total / sec),
            "truth": "per-row mapped == j*N//S rank arithmetic"}

        t0 = time.perf_counter()
        tm = trimmed_mean_stats(rows(), "grp", "v", "rid",
                                trim_permille=200).to_pandas()
        sec = time.perf_counter() - t0

        def series_sum(n, k):
            return (n - 1 - k + k) * (n - 2 * k) // 2

        assert len(tm) == GROUPS + 1
        for _, r in tm.iterrows():
            n = N if r["grp"] == "g0" else S
            k = n * 200 // 1000
            assert int(r["n_kept"]) == n - 2 * k
            assert int(r["sum_kept"]) == series_sum(n, k), r["grp"]
        results["trimmed_mean"] = {
            "sec": round(sec, 2), "rows_per_sec": round(total / sec),
            "truth": "per-group (n_kept, sum) == arithmetic series"}

        print(json.dumps({
            "n_rows": total, "num_cpus": NCPU, "ops": results,
            "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


def main_textclass() -> None:
    """nb_classifier_score + ngram_count_of_counts at tens of millions
    of docs, closed forms: U docs, even ids 'aa bb' labeled en, odd
    ids 'bb cc' labeled de.  Weights follow the integer contract
    exactly -- wgt(aa) = 1000*(U/2+1)-1000, wgt(bb) = 0,
    wgt(cc) = -1000 -- so en docs score 1000*U/2 (pred 1) and de docs
    score -1000 (pred 0), checked PER ROW.  Count-of-counts: unigram
    histogram {U/2: 2, U: 1}, bigram histogram {U/2: 2}, exact."""
    import ray
    from ray.data import DataContext

    U = int(os.environ.get("GRAFT_TC_DOCS", "30000000"))
    assert U % 2 == 0
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.textstats import (
            nb_classifier_score, ngram_count_of_counts)

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()
        results = {}

        def gen(b: pa.Table) -> pa.Table:
            i = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            even = i % 2 == 0
            return pa.table({
                "doc_id": i,
                "text": pa.array(np.where(even, "aa bb", "bb cc")),
                "lang": pa.array(np.where(even, "en", "de"))})

        def docs():
            return ray.data.range(
                U, override_num_blocks=NCPU * 4).map_batches(
                gen, batch_format="pyarrow")

        t0 = time.perf_counter()
        out = nb_classifier_score(docs(), "text", "doc_id", "lang",
                                  "en")
        w_aa = 1000 * (U // 2 + 1) - 1000

        def check(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].combine_chunks().to_numpy(
                zero_copy_only=False)
            sc = t["score"].combine_chunks().to_numpy(
                zero_copy_only=False)
            pr = t["pred"].combine_chunks().to_numpy(
                zero_copy_only=False)
            even = ids % 2 == 0
            want_s = np.where(even, w_aa, -1000)
            bad = int(((sc != want_s)
                       | (pr != even.astype(np.int64))).sum())
            return pa.table({"n": pa.array([len(ids)], pa.int64()),
                             "bad": pa.array([bad], pa.int64())})

        parts = out.map_batches(check, batch_format="pyarrow").to_pandas()
        sec = time.perf_counter() - t0
        assert int(parts["bad"].sum()) == 0
        assert int(parts["n"].sum()) == U
        results["nb_classifier"] = {
            "sec": round(sec, 2), "docs_per_sec": round(U / sec),
            "truth": "per-row score/pred == integer-contract closed "
                     "form"}

        t0 = time.perf_counter()
        hist = ngram_count_of_counts(docs(), "text").to_pandas()
        sec = time.perf_counter() - t0
        got = {(int(r["ord"]), int(r["freq"])): int(r["n_ngrams"])
               for _, r in hist.iterrows()}
        assert got == {(1, U // 2): 2, (1, U): 1, (2, U // 2): 2}, got
        results["count_of_counts"] = {
            "sec": round(sec, 2), "docs_per_sec": round(U / sec),
            "truth": "histograms == {U/2: 2, U: 1} / {U/2: 2}"}

        print(json.dumps({
            "n_docs": U, "num_cpus": NCPU, "ops": results,
            "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


def main_spatialnn() -> None:
    """spatial_nn at millions of points with per-row closed-form
    truth: M sites 1000 units apart, each holding a mutual-NN pair
    [(0,0), (7,0)] (d2 = 49, always same cell or adjacent) plus one
    stray at (60,60) whose ball (radius 40) is empty -- expected
    output is pure id arithmetic; strays must be absent."""
    import ray
    from ray.data import DataContext

    M = int(os.environ.get("GRAFT_SNN_SITES", "3000000"))
    G = int(np.ceil(np.sqrt(M)))
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.iterative import spatial_nn

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        POS = np.array([(0, 0), (7, 0), (60, 60)], np.int64)

        def gen(b: pa.Table) -> pa.Table:
            s = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            ids = 3 * np.repeat(s, 3) + np.tile(
                np.arange(3, dtype=np.int64), len(s))
            x = np.repeat((s % G) * 1000, 3) + np.tile(POS[:, 0],
                                                       len(s))
            y = np.repeat((s // G) * 1000, 3) + np.tile(POS[:, 1],
                                                        len(s))
            return pa.table({"id": ids, "x": x, "y": y})

        pts = ray.data.range(M, override_num_blocks=NCPU * 4).map_batches(
            gen, batch_format="pyarrow")

        t0 = time.perf_counter()
        out = spatial_nn(pts, "id", "x", "y", radius=40)

        def check(t: pa.Table) -> pa.Table:
            ids = t["id"].combine_chunks().to_numpy(zero_copy_only=False)
            nn = t["nn_id"].combine_chunks().to_numpy(
                zero_copy_only=False)
            d2 = t["d2"].combine_chunks().to_numpy(zero_copy_only=False)
            pos = ids % 3
            want_nn = np.where(pos == 0, ids + 1, ids - 1)
            bad = int(((pos == 2) | (nn != want_nn)
                       | (d2 != 49)).sum())
            return pa.table({"n": pa.array([len(ids)], pa.int64()),
                             "bad": pa.array([bad], pa.int64())})

        parts = out.map_batches(check, batch_format="pyarrow").to_pandas()
        sec = time.perf_counter() - t0
        assert int(parts["bad"].sum()) == 0
        assert int(parts["n"].sum()) == 2 * M, int(parts["n"].sum())

        print(json.dumps({
            "n_points": 3 * M, "num_cpus": NCPU, "sec": round(sec, 2),
            "points_per_sec": round(3 * M / sec),
            "truth": "mutual-NN pairs by id arithmetic; strays absent",
            "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


def main_passjoin() -> None:
    """edit_distance_pairs at a ~1M-string vocabulary over a 9M-row
    corpus, closed-form pair set: F families of 3 variants
    [base, base+'q', base+'qq'] where base = 5 base-26 digits each
    repeated 5x (25 chars) -- cross-family distance >= 3 by the
    repeated-block construction, in-family distances are EXACTLY the
    suffix-length differences (1, 2, 1).  Each distinct string appears
    10x in the corpus (the vocabulary contract: cost follows DISTINCT
    values, not rows).  Verified per row by the prefix/suffix
    arithmetic inside map_batches; total count must be exactly 3F."""
    import ray
    from ray.data import DataContext

    F = int(os.environ.get("GRAFT_PJ_FAMILIES", "300000"))
    REP = 10
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.curation import edit_distance_pairs

        ray.data.range(NCPU * 4, override_num_blocks=NCPU * 4).map_batches(
            lambda b: b).count()

        letters = np.frombuffer(
            b"abcdefghijklmnopqrstuvwxyz", np.uint8)

        def _mix(x: np.ndarray) -> np.ndarray:
            # splitmix64 finalizer: high-entropy per-position chars so
            # PassJoin's segment blocking sees realistic key entropy
            # (digit-block bases degenerate to 676 distinct segments)
            x = x.astype(np.uint64)
            with np.errstate(over="ignore"):
                x ^= x >> np.uint64(30)
                x *= np.uint64(0xBF58476D1CE4E5B9)
                x ^= x >> np.uint64(27)
                x *= np.uint64(0x94D049BB133111EB)
                x ^= x >> np.uint64(31)
            return x

        def gen(b: pa.Table) -> pa.Table:
            f = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            n = len(f)
            # 25 pseudo-random chars per family (splitmix64 of
            # (family, position)): cross-family near-duplicates are
            # vanishingly unlikely, and the final count assertion
            # would catch one loudly
            pos = np.arange(25, dtype=np.uint64)
            h = _mix(f[:, None].astype(np.uint64) * np.uint64(31)
                     + pos[None, :])
            mat = letters[(h % np.uint64(26)).astype(np.int64)]
            base = mat.view("S25").ravel().astype("U25")
            v0 = base
            v1 = np.char.add(base, "q")
            v2 = np.char.add(base, "qq")
            allv = np.concatenate([v0, v1, v2])
            return pa.table({
                "w": pa.array(np.repeat(allv, REP), pa.string())})

        corpus = ray.data.range(F, override_num_blocks=NCPU * 4).map_batches(
            gen, batch_format="pyarrow")

        t0 = time.perf_counter()
        out = edit_distance_pairs(corpus, "w", k=2, max_len=40)

        def check(t: pa.Table) -> pa.Table:
            a = t["a"].combine_chunks()
            b = t["b"].combine_chunks()
            d = t["dist"].combine_chunks().to_numpy(
                zero_copy_only=False)
            pa_, pb = (pc.utf8_slice_codeunits(a, 0, 25),
                       pc.utf8_slice_codeunits(b, 0, 25))
            la = pc.binary_length(a).to_numpy(zero_copy_only=False)
            lb = pc.binary_length(b).to_numpy(zero_copy_only=False)
            same_fam = pc.equal(pa_, pb).to_numpy(zero_copy_only=False)
            want_d = np.abs(la - lb)
            bad = int((~same_fam | (want_d == 0)
                       | (d != want_d)).sum())
            return pa.table({"n": pa.array([t.num_rows], pa.int64()),
                             "bad": pa.array([bad], pa.int64())})

        parts = out.map_batches(check, batch_format="pyarrow").to_pandas()
        sec = time.perf_counter() - t0
        assert int(parts["bad"].sum()) == 0
        got = int(parts["n"].sum())
        assert got == 3 * F, (got, 3 * F)

        print(json.dumps({
            "n_rows": 30 * F, "n_distinct": 3 * F, "n_pairs": got,
            "num_cpus": NCPU, "sec": round(sec, 2),
            "distinct_per_sec": round(3 * F / sec),
            "truth": "pair set == planted family variants, "
                     "dist == suffix delta",
            "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()




def main_shapes() -> None:
    """The session-12 structural shapes at tens of millions of rows,
    closed-form truths throughout.

    sole_flag_members (TPC-H Q21 shape): order o has k = (o%4)+1
    members (member_id = j*1000 + o%997, j < k), member j flagged iff
    (o+j) % 3 == 0, plus a planted UNFLAGGED duplicate line of member
    j=0 per order (exercises the any-flag distinct collapse).  The
    per-member sole-flag counts are periodic in o with period
    lcm(4,3,997) = 11964, so a one-period numpy simulation scaled by
    N/11964 is an exact truth.

    count_distribution (TPC-H Q13 shape): key k gets 10 + (k%3) fact
    rows -> histogram {10: ceil(E/3), 11: ..., 12: ...} exactly, plus
    a planted zero bucket via n_entities_total = E + ZPAD.

    kcenter_select: 6M near-origin jitter points (quantized distance
    <= 1e6) + 5 planted axis points at descending magnitudes (min
    planted distance 9e10), so greedy selection is exactly
    [0, planted 1..5] with dist = round(a_i*1e6)^2.
    """
    import ray
    from ray.data import DataContext

    MULT = int(os.environ.get("GRAFT_SHAPES_MULT", "1000"))
    PERIOD = 11964  # lcm(4, 3, 997)
    N_ORDERS = PERIOD * MULT
    E = int(os.environ.get("GRAFT_SHAPES_ENTITIES", "5000000"))
    ZPAD = 123_456
    NPTS = int(os.environ.get("GRAFT_SHAPES_POINTS", "6000000"))
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        from ci_log_processing_ray.ops.relational import (
            count_distribution, sole_flag_members)
        from ci_log_processing_ray.ops.similarity import kcenter_select

        ray.data.range(NCPU * 4, override_num_blocks=NCPU).map_batches(
            lambda b: b).count()
        results = {}

        # --- sole_flag_members -------------------------------------
        def line_gen(b: pa.Table) -> pa.Table:
            o = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            k = (o % 4 + 1).astype(np.int64)
            total = int(k.sum())
            oo = np.repeat(o, k)
            # j = position within each order's run
            ends = np.cumsum(k)
            starts = ends - k
            j = np.arange(total, dtype=np.int64) - np.repeat(starts, k)
            flag = ((oo + j) % 3 == 0).astype(np.int64)
            member = j * 1000 + oo % 997
            # planted unflagged duplicate of member j=0 per order
            oo2 = np.concatenate([oo, o])
            member2 = np.concatenate([member, o % 997])
            flag2 = np.concatenate([flag, np.zeros(len(o), np.int64)])
            return pa.table({"order": oo2, "member": member2,
                             "flag": flag2})

        lines = ray.data.range(
            N_ORDERS, override_num_blocks=NCPU).map_batches(
                line_gen, batch_format="pyarrow")
        n_lines = N_ORDERS * 10 // 4 + N_ORDERS  # sum(k)=2.5N + dups
        t0 = time.perf_counter()
        got = sole_flag_members(lines, "order", "member", "flag",
                                min_members=2).to_pandas()
        sec = time.perf_counter() - t0

        # one-period simulation
        o = np.arange(PERIOD, dtype=np.int64)
        k = o % 4 + 1
        oo = np.repeat(o, k)
        ends = np.cumsum(k)
        starts = ends - k
        j = (np.arange(int(k.sum()), dtype=np.int64)
             - np.repeat(starts, k))
        flag = (oo + j) % 3 == 0
        member = j * 1000 + oo % 997
        nf = np.bincount(oo[flag], minlength=PERIOD)
        ok = (k >= 2) & (nf == 1)
        sole = member[flag][ok[oo[flag]]]
        want = {}
        for m, c in zip(*np.unique(sole, return_counts=True)):
            want[int(m)] = int(c) * MULT
        have = {int(m): int(c) for m, c in zip(got["member"],
                                               got["numwait"])}
        assert have == want, (len(have), len(want))
        results["sole_flag_members"] = {
            "sec": round(sec, 2), "n_lines": n_lines,
            "lines_per_sec": round(n_lines / sec),
            "truth": f"{len(want)} per-member counts == one-period "
                     "simulation x N/11964"}

        # --- count_distribution ------------------------------------
        def fact_gen(b: pa.Table) -> pa.Table:
            kk = b["id"].combine_chunks().to_numpy(zero_copy_only=False)
            reps = (10 + kk % 3).astype(np.int64)
            return pa.table({"key": np.repeat(kk, reps)})

        fact = ray.data.range(E, override_num_blocks=NCPU).map_batches(
            fact_gen, batch_format="pyarrow")
        t0 = time.perf_counter()
        hist = count_distribution(fact, "key", E + ZPAD,
                                  out_count="c_count",
                                  out_dist="custdist")
        sec = time.perf_counter() - t0
        have = {int(r.c_count): int(r.custdist)
                for r in hist.itertuples()}
        n10 = (E + 2) // 3
        n11 = (E + 1) // 3
        n12 = E // 3
        assert have == {10: n10, 11: n11, 12: n12, 0: ZPAD}, have
        n_fact = 10 * n10 + 11 * n11 + 12 * n12
        results["count_distribution"] = {
            "sec": round(sec, 2), "n_fact_rows": n_fact,
            "rows_per_sec": round(n_fact / sec),
            "truth": "histogram == {10,11,12} thirds + planted zero "
                     "bucket"}

        # --- kcenter_select ----------------------------------------
        DIM = 16
        mags = [0.50, 0.45, 0.40, 0.35, 0.30]

        def pt_gen(b: pa.Table) -> pa.Table:
            ids = b["id"].combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
            v = np.zeros((len(ids), DIM), np.float64)
            jit = ((ids * 2654435761) % 2001 - 1000) * 1e-6
            v[:, 0] = jit
            for i, m in enumerate(mags):
                sel = ids == i + 1
                if sel.any():
                    v[sel] = 0.0
                    v[sel, i + 1] = m
            v[ids == 0] = 0.0
            return pa.table({
                "vid": ids,
                "vec": pa.FixedSizeListArray.from_arrays(
                    pa.array(v.reshape(-1), pa.float64()), DIM)})

        pts = ray.data.range(NPTS, override_num_blocks=NCPU).map_batches(
            pt_gen, batch_format="pyarrow")
        t0 = time.perf_counter()
        sel = kcenter_select(pts, "vec", "vid", k=6)
        sec = time.perf_counter() - t0
        assert sel["vid"].tolist() == [0, 1, 2, 3, 4, 5], sel
        want_d = [0] + [int(round(m * 1e6)) ** 2 for m in mags]
        assert sel["dist"].tolist() == want_d, sel
        results["kcenter_select"] = {
            "sec": round(sec, 2), "n_points": NPTS,
            "points_per_sec": round(NPTS / sec),
            "truth": "selection == planted axis points in magnitude "
                     "order, exact quantized distances"}

        print(json.dumps({
            "num_cpus": NCPU, "ops": results, "calib_sec": _calib(),
        }))
    finally:
        ray.shutdown()


def build_tpch_corpus() -> dict:
    """Deterministic TPC-H-shaped corpus at ~50M lineitem rows, ONE
    parquet file per table (matching `_read`'s single-file contract),
    written once and cached.  Every column is a fixed arithmetic
    function of the row index, so the corpus is reproducible and all
    the shipped oracle predicates stay binding by construction:
    discounts hit the Q6 [50,70] permille band, brands 12/23/34 exist
    for Q19, 10% of supplier names end in '7' for Q16's blocklist,
    lines-per-order is (o%4)+3 so Q18's >200-qty HAVING selects a few
    percent, and key strides are coprime to their table sizes so FK
    integrity holds with near-uniform fan-in."""
    n_orders = int(os.environ.get("GRAFT_TPCH_ORDERS", "11000000"))
    root = f"/tmp/tpch_scale_o{n_orders}_v3"
    meta_path = os.path.join(root, "_meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            return json.load(f)
    os.makedirs(root, exist_ok=True)
    NPART, NSUPP, NCUST, NNAT = 8_000_000, 100_000, 1_500_000, 25
    K = 2654435761  # Knuth multiplicative constant, coprime to sizes
    base_us = np.datetime64("1995-01-01", "us").astype(np.int64)
    DAY_US = 86_400_000_000

    rk = np.arange(5, dtype=np.int64)
    pq.write_table(pa.table({
        "r_regionkey": rk,
        "r_name": np.char.add("REGION_", rk.astype(str))}),
        os.path.join(root, "region.parquet"))
    nk = np.arange(NNAT, dtype=np.int64)
    pq.write_table(pa.table({
        "n_nationkey": nk,
        "n_name": np.char.add("NATION_", nk.astype(str)),
        "n_regionkey": nk % 5}),
        os.path.join(root, "nation.parquet"))
    segs = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE",
                     "MACHINERY", "HOUSEHOLD"])
    ck = np.arange(NCUST, dtype=np.int64)
    pq.write_table(pa.table({
        "c_custkey": ck, "c_nationkey": (ck * 7) % NNAT,
        "c_mktsegment": segs[ck % 5],
        "c_acctbal": ((ck * 37) % 109999 - 9999) / 100.0}),
        os.path.join(root, "customer.parquet"))
    sk = np.arange(NSUPP, dtype=np.int64)
    pq.write_table(pa.table({
        "s_suppkey": sk,
        "s_name": np.char.add("Supplier#",
                              np.char.zfill(sk.astype(str), 9)),
        "s_nationkey": sk % NNAT}),
        os.path.join(root, "supplier.parquet"))
    ptypes = np.array(["ECONOMY", "LARGE", "STANDARD", "MEDIUM",
                       "SMALL", "PROMO"])
    pk = np.arange(NPART, dtype=np.int64)
    pq.write_table(pa.table({
        "p_partkey": pk,
        "p_brand": np.char.add("Brand#", (11 + pk % 34).astype(str)),
        "p_size": 1 + pk % 50,
        "p_type": ptypes[pk % 6]}),
        os.path.join(root, "part.parquet"), row_group_size=2_000_000)

    priors = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM",
                       "4-NOT SPECIFIED", "5-LOW"])
    CHUNK = 1_000_000  # orders per generation chunk
    o_writer = li_writer = None
    lut = np.array([0, 0, 1, 3], np.int64)  # cumsum of o%4 in-cycle
    n_lines = 0
    for a in range(0, n_orders, CHUNK):
        o = np.arange(a, min(a + CHUNK, n_orders), dtype=np.int64)
        odate_us = base_us + ((o * 23) % 2400) * DAY_US
        ot = pa.table({
            "o_orderkey": o,
            "o_custkey": (o * K) % NCUST,
            "o_orderdate": odate_us.view("M8[us]"),
            "o_orderpriority": priors[o % 5],
            # right-skewed totals (square of a uniform) so the Q11
            # 1.5x-average customer filter stays binding when every
            # customer converges to ~7 orders at full scale
            "o_totalprice": 1000.0
            + (((o * 1315423911) % 1000000007) % 1000) ** 2 / 10.0})
        if o_writer is None:
            o_writer = pq.ParquetWriter(
                os.path.join(root, "orders.parquet"), ot.schema)
        o_writer.write_table(ot, row_group_size=1_000_000)

        kk = o % 4 + 3
        oo = np.repeat(o, kk)
        ends = np.cumsum(kk)
        j = np.arange(int(kk.sum()), dtype=np.int64) - np.repeat(
            ends - kk, kk)
        i = 3 * oo + (oo // 4) * 6 + lut[oo % 4] + j  # global line id
        ship_us = (base_us + ((oo * 23) % 2400) * DAY_US
                   + (1 + (i * 17) % 121) * DAY_US)
        # per-line values come from prime-modulus hashes, NOT direct
        # strides: a part's lines sit 8M apart in i, and any modulus
        # dividing a multiple of 8M (50, 100000, ...) would make the
        # column CONSTANT within every part -- the v2 corpus had
        # one-supplier one-quantity parts, which silenced the Q17
        # below-average filter and degenerated Q20 dominance
        h = (i * 1315423911) % 1000000007
        h2 = (i * 2246822519) % 998244353
        lt = pa.table({
            "l_orderkey": oo,
            "l_partkey": (i * K) % NPART,
            "l_suppkey": h2 % NSUPP,
            "l_quantity": (1 + h % 50).astype(np.float64),
            "l_extendedprice": 900.0 + ((h // 50) % 99999) / 100.0,
            "l_discount": ((h // 4_999_950) % 11) / 100.0,
            "l_shipdate": ship_us.view("M8[us]"),
            "l_returnflag": np.array(["R", "A", "N"])[i % 3],
            "l_linestatus": np.array(["O", "F"])[h % 2]})
        if li_writer is None:
            li_writer = pq.ParquetWriter(
                os.path.join(root, "lineitem.parquet"), lt.schema)
        li_writer.write_table(lt, row_group_size=1_000_000)
        n_lines += len(oo)
    o_writer.close()
    li_writer.close()
    info = {"root": root, "n_orders": n_orders, "n_lines": n_lines,
            "n_parts": NPART, "n_suppliers": NSUPP,
            "n_customers": NCUST}
    with open(meta_path, "w") as f:
        json.dump(info, f)
    return info


TPCH_PROOF_QUERIES = [
    "forecast_revenue", "discounted_revenue", "parts_supplier_cnt",
    "min_cost_supplier", "dominant_suppliers", "priority_class_counts",
    "nation_pair_volume", "market_share", "top_supplier",
    "large_orders", "returned_customers", "local_supplier_volume",
    "pricing_summary", "multiway_join", "profit_by_nation",
    "region_rollup", "below_group_avg", "group_share", "custdist",
    "numwait", "late_orders", "promo_share", "sales_opportunity",
]


def main_tpch() -> None:
    """Run the SHIPPED TPC-H-shape queries (the exact `queries()`
    callables the driver grades) on a ~50M-line-row corpus and check
    each against its own `oracle_sql()` executed by DuckDB over the
    same files -- the driver's correctness gate re-run at ~100x the
    sf0.01 row count, with per-query Ray and DuckDB wall times."""
    import duckdb
    import ray
    from ray.data import DataContext

    t0 = time.perf_counter()
    info = build_tpch_corpus()
    gen_sec = round(time.perf_counter() - t0, 2)
    root = info["root"]
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        import __ray_entry__ as entrymod

        ray.data.range(NCPU * 4, override_num_blocks=NCPU).map_batches(
            lambda b: b).count()
        con = duckdb.connect()
        # bounded spill: a pathological oracle plan must fail fast,
        # not fill the root filesystem (seen once with an inequality
        # predicate the optimizer turned into a dim x dim nested loop)
        con.execute("SET memory_limit='24GB'")
        con.execute("SET temp_directory='/tmp/duck_tpch_tmp'")
        con.execute("SET max_temp_directory_size='20GB'")
        for t in ("region", "nation", "customer", "supplier", "part",
                  "orders", "lineitem"):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{root}/{t}.parquet')")
        qs, oracles = entrymod.queries(), entrymod.oracle_sql()
        only = os.environ.get("GRAFT_TPCH_QUERIES", "")
        names = ([n for n in only.split(",") if n]
                 if only else TPCH_PROOF_QUERIES)
        results = {}
        for name in names:
            t0 = time.perf_counter()
            got = qs[name](root)
            ray_sec = time.perf_counter() - t0
            if hasattr(got, "to_pandas"):
                got = got.to_pandas()
            cols = ", ".join(sorted(got.columns))
            con.register("got_view", got)
            t0 = time.perf_counter()
            con.execute(f"CREATE OR REPLACE TEMP TABLE want AS {oracles[name]}")
            duck_sec = time.perf_counter() - t0
            want_n = con.execute("SELECT COUNT(*) FROM want").fetchone()[0]
            n_diff = con.execute(
                f"SELECT COUNT(*) FROM ("
                f"(SELECT {cols} FROM got_view EXCEPT ALL"
                f" SELECT {cols} FROM want) UNION ALL "
                f"(SELECT {cols} FROM want EXCEPT ALL"
                f" SELECT {cols} FROM got_view))").fetchone()[0]
            assert len(got) == want_n and n_diff == 0, (
                name, len(got), want_n, n_diff)
            # bindingness guard: once parts average multiple lines,
            # the selective predicates must actually select something
            # (0 == 0 is a vacuous proof -- the v2 corpus passed that
            # way, see build_tpch_corpus docstring)
            if (info["n_parts"] < info["n_lines"] <= 60_000_000
                    and name in ("below_group_avg", "group_share",
                                 "dominant_suppliers", "large_orders",
                                 "sales_opportunity")):
                # bindingness guard for the DESIGNED corpus regime
                # (~49.5M lines).  Above it some predicates thin out
                # legitimately: at 135M lines (~17 lines/part) no
                # supplier clears Q20's 20% dominance bar, so a 0-row
                # result there is the TRUE answer (the proof still
                # checks row-identity with the oracle), not vacuity.
                assert want_n > 0, (name, "non-binding at full scale")
            results[name] = {
                "ray_sec": round(ray_sec, 2),
                "duckdb_sec": round(duck_sec, 2),
                "rows": int(want_n),
                "lines_per_sec": round(info["n_lines"] / ray_sec)}
        print(json.dumps({
            "num_cpus": NCPU, "n_lines": info["n_lines"],
            "n_orders": info["n_orders"], "gen_sec": gen_sec,
            "truth": "every query row-set == its own oracle_sql() in "
                     "DuckDB over the same files (EXCEPT ALL empty "
                     "both ways)",
            "ops": results, "calib_sec": _calib()}))
    finally:
        ray.shutdown()


if __name__ == "__main__":
    import sys

    if len(sys.argv) > 1 and sys.argv[1] == "embeddings":
        main_embeddings()
    elif len(sys.argv) > 1 and sys.argv[1] == "graph":
        main_graph()
    elif len(sys.argv) > 1 and sys.argv[1] == "skyline":
        main_skyline()
    elif len(sys.argv) > 1 and sys.argv[1] == "join":
        main_join()
    elif len(sys.argv) > 1 and sys.argv[1] == "window":
        main_window()
    elif len(sys.argv) > 1 and sys.argv[1] == "stats":
        main_stats()
    elif len(sys.argv) > 1 and sys.argv[1] == "lpa":
        main_lpa()
    elif len(sys.argv) > 1 and sys.argv[1] == "kcore":
        main_kcore()
    elif len(sys.argv) > 1 and sys.argv[1] == "wedge":
        main_wedge()
    elif len(sys.argv) > 1 and sys.argv[1] == "msf":
        main_msf()
    elif len(sys.argv) > 1 and sys.argv[1] == "cov":
        main_cov()
    elif len(sys.argv) > 1 and sys.argv[1] == "acf":
        main_acf()
    elif len(sys.argv) > 1 and sys.argv[1] == "hits":
        main_hits()
    elif len(sys.argv) > 1 and sys.argv[1] == "gini":
        main_gini()
    elif len(sys.argv) > 1 and sys.argv[1] == "ktruss":
        main_ktruss()
    elif len(sys.argv) > 1 and sys.argv[1] == "tree":
        main_tree()
    elif len(sys.argv) > 1 and sys.argv[1] == "mw":
        main_mw()
    elif len(sys.argv) > 1 and sys.argv[1] == "dedup":
        main_dedup()
    elif len(sys.argv) > 1 and sys.argv[1] == "dedup10m":
        main_dedup10m()
    elif len(sys.argv) > 1 and sys.argv[1] == "multimodal":
        main_multimodal()
    elif len(sys.argv) > 1 and sys.argv[1] == "incdedup":
        main_incdedup()
    elif len(sys.argv) > 1 and sys.argv[1] == "pack":
        main_pack()
    elif len(sys.argv) > 1 and sys.argv[1] == "butterfly":
        main_butterfly()
    elif len(sys.argv) > 1 and sys.argv[1] == "dbscan2d":
        main_dbscan()
    elif len(sys.argv) > 1 and sys.argv[1] == "causal":
        main_causal()
    elif len(sys.argv) > 1 and sys.argv[1] == "passjoin":
        main_passjoin()
    elif len(sys.argv) > 1 and sys.argv[1] == "spatialnn":
        main_spatialnn()
    elif len(sys.argv) > 1 and sys.argv[1] == "textclass":
        main_textclass()
    elif len(sys.argv) > 1 and sys.argv[1] == "rankops":
        main_rankops()
    elif len(sys.argv) > 1 and sys.argv[1] == "cdc":
        main_cdc()
    elif len(sys.argv) > 1 and sys.argv[1] == "semiring":
        main_semiring()
    elif len(sys.argv) > 1 and sys.argv[1] == "audit":
        main_audit()
    elif len(sys.argv) > 1 and sys.argv[1] == "lifecycle":
        main_lifecycle()
    elif len(sys.argv) > 1 and sys.argv[1] == "shapes":
        main_shapes()
    elif len(sys.argv) > 1 and sys.argv[1] == "tpch":
        main_tpch()
    elif len(sys.argv) > 1 and sys.argv[1] == "landmark":
        main_landmark()
    elif len(sys.argv) > 1 and sys.argv[1] == "stress":
        main_stress()
    else:
        main()
