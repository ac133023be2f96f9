"""Negative tests for the binding in-query certificates.

Each rows-only query that claims a BINDING gate must prove the gate
actually FIRES on corrupted output -- otherwise "binding" is an empty
word.  The certificate helpers in __ray_entry__ are pure functions over
plain pandas/numpy inputs, so these tests need no Ray session.
"""
import numpy as np
import pandas as pd
import pytest

import __ray_entry__ as entrymod


# ---------------------------------------------------------------- isotonic
def _iso_fixture():
    """A tiny exact PAV instance: scores 1..4 with (pos, n) chosen so
    the optimal fit pools {1,2} (rate 1/4) then {3} (1/2) then {4}
    (3/4)."""
    per_score = pd.DataFrame({
        "score": [1, 2, 3, 4],
        "pos": [1, 1, 2, 3],
        "n": [4, 4, 4, 4]})
    fit = pd.DataFrame({
        "block_id": [0, 1, 2],
        "score_lo": [1, 3, 4],
        "score_hi": [2, 3, 4],
        "pos": [2, 2, 3],
        "n": [8, 4, 4],
        "rate_permille": [250, 500, 750]})
    return fit, per_score


def test_isotonic_cert_accepts_optimal():
    fit, ps = _iso_fixture()
    entrymod._cert_isotonic(fit, ps)


def test_isotonic_cert_rejects_non_monotone():
    fit, ps = _iso_fixture()
    bad = fit.copy()
    bad.loc[0, "pos"] = 6          # rate 6/8 > next block's 2/4
    with pytest.raises(AssertionError, match="isotonic"):
        entrymod._cert_isotonic(bad, ps)


def test_isotonic_cert_rejects_mass_loss():
    fit, ps = _iso_fixture()
    bad = fit.copy()
    bad.loc[2, "n"] = 3
    with pytest.raises(AssertionError, match="isotonic"):
        entrymod._cert_isotonic(bad, ps)


def test_isotonic_cert_rejects_suboptimal_pooling():
    # Pooling ALL four scores keeps (pos, n) conserved and trivially
    # monotone, but prefix {1,2} has mean 2/8 < block mean 7/16 --
    # splitting there would reduce L2 error, so the cert must fire.
    _, ps = _iso_fixture()
    bad = pd.DataFrame({
        "block_id": [0], "score_lo": [1], "score_hi": [4],
        "pos": [7], "n": [16], "rate_permille": [437]})
    with pytest.raises(AssertionError, match="prefix"):
        entrymod._cert_isotonic(bad, ps)


def test_isotonic_cert_rejects_overmerge_of_increasing_blocks():
    # Merging blocks {3} and {4} (rates 1/2 < 3/4) is feasible but not
    # maximally split; prefix {3} mean 2/4 < merged mean 5/8 fires the
    # prefix condition.
    _, ps = _iso_fixture()
    bad = pd.DataFrame({
        "block_id": [0, 1],
        "score_lo": [1, 3], "score_hi": [2, 4],
        "pos": [2, 5], "n": [8, 8],
        "rate_permille": [250, 625]})
    with pytest.raises(AssertionError, match="prefix"):
        entrymod._cert_isotonic(bad, ps)


# ----------------------------------------------------------- heavy hitters
def test_heavy_hitters_cert_accepts_within_bound():
    out = pd.DataFrame({"item": ["a", "b"], "est_count": [90, 50]})
    entrymod._cert_heavy_hitters(out, {"a": 100, "b": 55}, 1000, k=32)


def test_heavy_hitters_cert_rejects_overestimate():
    out = pd.DataFrame({"item": ["a"], "est_count": [120]})
    with pytest.raises(AssertionError, match="overestimated"):
        entrymod._cert_heavy_hitters(out, {"a": 100}, 1000, k=32)


def test_heavy_hitters_cert_rejects_blown_bound():
    out = pd.DataFrame({"item": ["a"], "est_count": [10]})
    with pytest.raises(AssertionError, match="MG bound"):
        entrymod._cert_heavy_hitters(out, {"a": 100}, 1000, k=32)


# ---------------------------------------------------------------- quantile
def test_quantile_cert_accepts_close():
    v = np.arange(1.0, 1001.0)
    entrymod._cert_quantile(500.0, v, 0.5, 0.01, "t")


def test_quantile_cert_rejects_far():
    v = np.arange(1.0, 1001.0)
    with pytest.raises(AssertionError, match="relative"):
        entrymod._cert_quantile(560.0, v, 0.5, 0.01, "t")


# --------------------------------------------------------------- pack bins
def _pack_fixture():
    lens = {1: 300, 2: 200, 3: 600, 4: 0}
    out = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "bin_id": [0, 0, 1, 2],
        "offset_in_bin": [0, 300, 0, 0],
        "truncated": [0, 0, 1, 0]})
    return out, lens


def test_pack_cert_accepts_feasible():
    out, lens = _pack_fixture()
    entrymod._cert_pack_bins(out, lens, 512)


def test_pack_cert_rejects_double_place():
    out, lens = _pack_fixture()
    bad = pd.concat([out, out.iloc[[0]]], ignore_index=True)
    with pytest.raises(AssertionError, match="twice"):
        entrymod._cert_pack_bins(bad, lens, 512)


def test_pack_cert_rejects_overlap():
    out, lens = _pack_fixture()
    bad = out.copy()
    bad.loc[1, "offset_in_bin"] = 100   # overlaps doc 1's [0, 300)
    with pytest.raises(AssertionError, match="overlap"):
        entrymod._cert_pack_bins(bad, lens, 512)


def test_pack_cert_rejects_wrong_truncation_flag():
    out, lens = _pack_fixture()
    bad = out.copy()
    bad.loc[2, "truncated"] = 0
    with pytest.raises(AssertionError, match="truncated"):
        entrymod._cert_pack_bins(bad, lens, 512)


def test_pack_cert_rejects_lost_doc():
    out, lens = _pack_fixture()
    with pytest.raises(AssertionError, match="lost"):
        entrymod._cert_pack_bins(out.iloc[:-1], lens, 512)


def test_pack_cert_rejects_single_doc_bin_overflow():
    # a lone doc at a nonzero offset whose end exceeds capacity is an
    # overflow even though the bin holds only one doc (the old
    # len(g) > 1 guard let this through)
    out, lens = _pack_fixture()
    bad = out.copy()
    bad.loc[0, "offset_in_bin"] = 400   # doc 1: [400, 700) > 512
    bad.loc[1, "bin_id"] = 3            # move doc 2 out of bin 0
    with pytest.raises(AssertionError, match="overflows"):
        entrymod._cert_pack_bins(bad, lens, 512)


# ------------------------------------------------- planted-pair recovery
def test_planted_clusters_cert_accepts():
    df = pd.DataFrame({"doc_id": [0, entrymod._PLANT_OFF],
                       "cluster_rep": [0, 0]})
    entrymod._cert_planted_clusters(df, "doc_id", "cluster_rep", [0], "t")


def test_planted_clusters_cert_rejects_missing():
    df = pd.DataFrame({"doc_id": [0], "cluster_rep": [0]})
    with pytest.raises(AssertionError, match="missing"):
        entrymod._cert_planted_clusters(df, "doc_id", "cluster_rep",
                                        [0], "t")


def test_planted_clusters_cert_rejects_split():
    df = pd.DataFrame({"doc_id": [0, entrymod._PLANT_OFF],
                       "cluster_rep": [0, entrymod._PLANT_OFF]})
    with pytest.raises(AssertionError, match="split"):
        entrymod._cert_planted_clusters(df, "doc_id", "cluster_rep",
                                        [0], "t")


SF0 = "/root/testdata/sf0.001"


def test_simhash_gate_fires_without_planting(ray_session, monkeypatch):
    # A regression that silently drops the planted copies must raise.
    monkeypatch.setattr(entrymod, "_plant_dup_texts", lambda ds: ds)
    with pytest.raises(AssertionError, match="simhash"):
        entrymod.q_simhash(SF0)


def test_simhash_domain_guard_fires_on_wordless_doc(tmp_path):
    # The oracle drops a document with no words; the engine hashes it
    # to 0.  The guard raises before the op runs, so no Ray is needed.
    import pyarrow as pa
    import pyarrow.parquet as pq

    for text in ["", " \t\n", None]:
        pq.write_table(pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["two words", text], pa.string())}),
            tmp_path / "documents.parquet")
        with pytest.raises(AssertionError, match="simhash: 1 documents"):
            entrymod.q_simhash(str(tmp_path))


def test_simhash_oracle_splits_words_like_the_engine():
    # One document per str.isspace() code point, each separating three
    # ASCII words: the SQL oracle must hash every one as the engine does.
    import duckdb
    import pyarrow as pa

    from ci_log_processing_ray.ops.dedup import _simhash_batch

    spaces = [chr(c) for c in range(0x3001) if chr(c).isspace()]
    assert len(spaces) == 29
    texts = [f"alpha{ws}beta{ws}{ws}gamma" for ws in spaces]
    documents = pa.table({  # noqa: F841 -- the SQL reads it by name
        "doc_id": pa.array(range(1, 30), pa.int64()),
        "text": pa.array(texts, pa.string())})
    want = _simhash_batch(texts, seed=11).astype(np.int64).tolist()
    got = duckdb.sql(entrymod._SIMHASH_ORACLE).fetchall()
    assert [(d, h) for d, h, _ in got] == list(zip(range(1, 30), want))


def test_winnow_gate_fires_without_planting(ray_session, monkeypatch):
    monkeypatch.setattr(entrymod, "_plant_dup_texts", lambda ds: ds)
    with pytest.raises(AssertionError, match="winnow"):
        entrymod.q_winnow_fingerprints(SF0)


def test_minhash_gate_fires_without_planting(ray_session, monkeypatch):
    monkeypatch.setattr(entrymod, "_plant_dup_texts", lambda ds: ds)
    with pytest.raises(AssertionError, match="minhash"):
        entrymod.q_minhash_dedup(SF0)


def test_phash_gate_fires_when_pairs_dropped(ray_session, monkeypatch):
    from ci_log_processing_ray.ops import multimodal as mm
    real = mm.phash_clusters

    def dropped(ds, **kw):
        return real(ds, **kw).filter(expr="media_id < 1000000")

    monkeypatch.setattr(mm, "phash_clusters", dropped)
    with pytest.raises(AssertionError, match="phash"):
        entrymod.q_phash_dedup(SF0)


def test_compression_gate_fires_on_flat_scores(ray_session, monkeypatch):
    from ci_log_processing_ray.ops import textstats as ts
    real = ts.compression_ratio

    def flat(ds, text_col, id_col):
        out = real(ds, text_col, id_col)

        def clamp(t):
            import pyarrow as pa
            r = t["ratio_milli"].combine_chunks().to_numpy().copy()
            ids = t[id_col].combine_chunks().to_numpy()
            r[ids < 0] = 500          # controls lose their separation
            return pa.table({id_col: t[id_col],
                             "ratio_milli": pa.array(r)})

        return out.map_batches(clamp, batch_format="pyarrow")

    monkeypatch.setattr(ts, "compression_ratio", flat)
    with pytest.raises(AssertionError, match="compression_ratio"):
        entrymod.q_compression_ratio(SF0)


def test_cdc_gate_fires_when_growth_wrong(ray_session, monkeypatch):
    from ci_log_processing_ray.ops import dedup as dd
    real = dd.cdc_chunk_stats
    calls = {"n": 0}

    def stuck(ds, text_col, **kw):
        calls["n"] += 1
        if calls["n"] == 1:
            first = real(ds, text_col, **kw)
            stuck.first = first
            return first
        return stuck.first            # augmented run reports no growth

    monkeypatch.setattr(dd, "cdc_chunk_stats", stuck)
    with pytest.raises(AssertionError, match="cdc_chunks"):
        entrymod.q_cdc_chunks(SF0)


# --------------------------------------------- batch-3 certificate gates
def test_ann_recall_gate_fires_on_collapse(ray_session, monkeypatch):
    from ci_log_processing_ray.ops import similarity as sim

    def empty(ds, vec_col, id_col, q, qids, **kw):
        return pd.DataFrame({"query_id": pd.Series([], dtype=np.int64),
                             "vec_id": pd.Series([], dtype=np.int64)})

    monkeypatch.setattr(sim, "knn_lsh", empty)
    with pytest.raises(AssertionError, match="ann_recall"):
        entrymod.q_ann_recall(SF0)


def test_knn_pq_recall_gate_fires_on_collapse(ray_session, monkeypatch):
    def empty(ds, vec_col, id_col, q, qids, **kw):
        return pd.DataFrame({"query_id": pd.Series([], dtype=np.int64),
                             "vec_id": pd.Series([], dtype=np.int64)})

    monkeypatch.setattr(entrymod, "knn_pq", empty)
    with pytest.raises(AssertionError, match="knn_pq"):
        entrymod.q_knn_pq(SF0)


def test_knn_graph_ivf_gate_fires_on_collapse(ray_session, monkeypatch):
    from ci_log_processing_ray.ops import similarity as sim
    real = sim.knn_graph_ivf

    def holey(ds, vec_col, id_col, **kw):
        out = real(ds, vec_col, id_col, **kw)

        def drop(t):
            import pyarrow as pa
            keep = t["vec_id"].combine_chunks().to_numpy() % 2 == 0
            return t.filter(pa.array(keep))

        return out.map_batches(drop, batch_format="pyarrow")

    monkeypatch.setattr(sim, "knn_graph_ivf", holey)
    with pytest.raises(AssertionError, match="knn_graph_ivf"):
        entrymod.q_knn_graph_ivf(SF0)


def test_label_prop_gate_fires_on_leaked_bridge(ray_session, monkeypatch):
    from ci_log_processing_ray.ops import iterative as it
    real = it.label_propagation

    def leaky(edges, src, dst, **kw):
        out = real(edges, src, dst, **kw)

        def merge_two(t):
            import numpy as np
            import pyarrow as pa
            lab = t["label"].combine_chunks().to_numpy().copy()
            lab[lab == lab.min()] = lab.max()   # fuse two communities
            return pa.table({"node": t["node"], "label": pa.array(lab)})

        return out.map_batches(merge_two, batch_format="pyarrow")

    monkeypatch.setattr(it, "label_propagation", leaky)
    with pytest.raises(AssertionError, match="label_prop"):
        entrymod.q_label_prop(SF0)


def test_log_templates_gate_fires_on_dropped_lines(ray_session, monkeypatch):
    from ci_log_processing_ray.functions import detok
    real = detok.tokens_to_text

    def dropper(tokens):
        out = real(tokens)
        return out.slice(1)  # lose one line per batch

    monkeypatch.setattr(detok, "tokens_to_text", dropper)
    with pytest.raises(AssertionError, match="log_templates"):
        entrymod.q_log_templates(SF0)


def test_incremental_dedup_gate_fires_without_flush(ray_session,
                                                    monkeypatch):
    from ci_log_processing_ray.state import dedup_index as di
    monkeypatch.setattr(di.DedupIndex, "flush", lambda self: 0)
    with pytest.raises(AssertionError, match="replay leaked"):
        entrymod.q_incremental_dedup(SF0)


def test_flagship_counts_gate_fires_on_lost_file(ray_session, monkeypatch):
    import glob as g
    import os
    real = entrymod.run_pipeline

    def lossy(*a, **kw):
        res = real(*a, **kw)
        victim = sorted(g.glob(os.path.join(
            res.routed_dir, "**", "*.parquet"), recursive=True))[0]
        os.remove(victim)
        return res

    monkeypatch.setattr(entrymod, "run_pipeline", lossy)
    with pytest.raises(AssertionError, match="flagship_counts"):
        entrymod.q_flagship_counts(SF0)


def test_multimodal_decode_gate_fires_on_bad_width(ray_session,
                                                   monkeypatch):
    real = entrymod.decode_images

    def mangler(ds, **kw):
        out = real(ds, **kw)

        def bump(t):
            import pyarrow as pa
            import pyarrow.compute as pc
            return t.set_column(
                t.schema.get_field_index("width"), "width",
                pc.add(t["width"], 1))

        return out.map_batches(bump, batch_format="pyarrow")

    monkeypatch.setattr(entrymod, "decode_images", mangler)
    with pytest.raises(AssertionError, match="multimodal_decode"):
        entrymod.q_multimodal_decode(SF0)


def test_quantize_gate_fires_on_wrong_scale(ray_session, monkeypatch):
    from ci_log_processing_ray.ops import similarity as sim
    real = sim.quantize_embeddings

    def skewed(ds, vec_col, id_col):
        out = real(ds, vec_col, id_col)

        def double(t):
            import pyarrow as pa
            import pyarrow.compute as pc
            i = t.schema.get_field_index("scale")
            return t.set_column(i, "scale",
                                pc.multiply(t["scale"], pa.scalar(
                                    2.0, pa.float32())))

        return out.map_batches(double, batch_format="pyarrow")

    monkeypatch.setattr(sim, "quantize_embeddings", skewed)
    with pytest.raises(AssertionError, match="quantize_embeddings"):
        entrymod.q_quantize_embeddings(SF0)


def test_pca_gate_fires_on_scaled_component(ray_session, monkeypatch):
    from ci_log_processing_ray.ops import similarity as sim
    real = sim.pca_project

    def scaled(ds, vec_col, id_col, **kw):
        out = real(ds, vec_col, id_col, **kw)

        def stretch(t):
            import pyarrow as pa
            import pyarrow.compute as pc
            i = t.schema.get_field_index("pc1")
            return t.set_column(i, "pc1", pc.multiply(t["pc1"], 2.0))

        return out.map_batches(stretch, batch_format="pyarrow")

    monkeypatch.setattr(sim, "pca_project", scaled)
    with pytest.raises(AssertionError, match="pca_embeddings"):
        entrymod.q_pca_embeddings(SF0)


def test_kcenter_gate_fires_on_swapped_pick(ray_session, monkeypatch):
    from ci_log_processing_ray.ops import similarity as sim
    real = sim.kcenter_select

    def swapped(ds, vec_col, id_col, **kw):
        out = real(ds, vec_col, id_col, **kw).copy()
        out.loc[out["sel_order"] == 1, "dist"] += 1
        return out

    monkeypatch.setattr(sim, "kcenter_select", swapped)
    with pytest.raises(AssertionError, match="kcenter"):
        entrymod.q_kcenter(SF0)


def test_kmeans_gate_fires_on_count_drift(ray_session, monkeypatch):
    from ci_log_processing_ray.ops import iterative as it
    real = it.kmeans

    def drifted(ds, vec_col, **kw):
        centroids, counts = real(ds, vec_col, **kw)
        counts = counts.copy()
        counts.loc[0, "count"] += 1
        return centroids, counts

    monkeypatch.setattr(it, "kmeans", drifted)
    with pytest.raises(AssertionError, match="kmeans"):
        entrymod.q_kmeans(SF0)


def test_model_score_gate_fires_on_perturbed_score(ray_session,
                                                   monkeypatch):
    from ci_log_processing_ray.ops import inference as inf
    real = inf.score_texts

    def perturbed(ds, text_col, id_col):
        out = real(ds, text_col, id_col)

        def nudge(t):
            import numpy as np
            import pyarrow as pa
            s = t["model_score"].combine_chunks().to_numpy().copy()
            ids = t[id_col].combine_chunks().to_numpy()
            s[ids % 10 == 0] *= 0.999
            return pa.table({id_col: t[id_col],
                             "model_score": pa.array(s)})

        return out.map_batches(nudge, batch_format="pyarrow")

    monkeypatch.setattr(inf, "score_texts", perturbed)
    with pytest.raises(AssertionError, match="model_score"):
        entrymod.q_model_score(SF0)


def test_model_filter_gate_fires_on_dropped_row(ray_session, monkeypatch):
    from ci_log_processing_ray.ops import inference as inf
    real = inf.filter_by_score

    def lossy(ds, text_col, id_col, **kw):
        out = real(ds, text_col, id_col, **kw)
        return out.limit(out.count() - 1)

    monkeypatch.setattr(inf, "filter_by_score", lossy)
    with pytest.raises(AssertionError, match="model_filter"):
        entrymod.q_model_filter(SF0)


def test_bpe_gate_fires_on_swapped_merge(ray_session, monkeypatch):
    from ci_log_processing_ray.ops import curation as cur
    real = cur.bpe_train

    def swapped(ds, text_col, **kw):
        out = real(ds, text_col, **kw).to_pandas()
        out.loc[[0, 1], ["left", "right", "pair_count"]] = \
            out.loc[[1, 0], ["left", "right", "pair_count"]].to_numpy()
        return out

    monkeypatch.setattr(cur, "bpe_train", swapped)
    with pytest.raises(AssertionError, match="bpe_train"):
        entrymod.q_bpe_train(SF0)


# --------------------------------------------- property tests (hypothesis)
from hypothesis import given, settings
from hypothesis import strategies as st


def _ref_pav(pos, n):
    """Reference sequential PAV over per-score (pos, n) stats, already
    sorted by score: returns maximally-merged level sets as (start
    index, pos, n) triples."""
    blocks = []  # [start_idx, pos, n]
    for i, (p, c) in enumerate(zip(pos, n)):
        blocks.append([i, int(p), int(c)])
        while len(blocks) > 1:
            s2, p2, n2 = blocks[-1]
            s1, p1, n1 = blocks[-2]
            if p1 * n2 >= p2 * n1:     # violator (or tie): pool
                blocks.pop()
                blocks[-1] = [s1, p1 + p2, n1 + n2]
            else:
                break
    return blocks


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 6)),
                min_size=1, max_size=12))
def test_isotonic_cert_accepts_every_reference_pav_fit(stats):
    scores = list(range(len(stats)))
    pos = [p for p, _ in stats]
    n = [c for _, c in stats]
    ps = pd.DataFrame({"score": scores, "pos": pos, "n": n})
    blocks = _ref_pav(pos, n)
    rows = []
    for bi, (s, p, c) in enumerate(blocks):
        e = blocks[bi + 1][0] - 1 if bi + 1 < len(blocks) \
            else len(stats) - 1
        rows.append({"block_id": bi, "score_lo": s, "score_hi": e,
                     "pos": p, "n": c,
                     "rate_permille": 1000 * p // c})
    entrymod._cert_isotonic(pd.DataFrame(rows), ps)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 6)),
                min_size=2, max_size=12),
       st.integers(0, 10**6))
def test_isotonic_cert_rejects_any_single_block_perturbation(stats, seed):
    import numpy as np

    scores = list(range(len(stats)))
    pos = [p for p, _ in stats]
    n = [c for _, c in stats]
    ps = pd.DataFrame({"score": scores, "pos": pos, "n": n})
    blocks = _ref_pav(pos, n)
    rows = []
    for bi, (s, p, c) in enumerate(blocks):
        e = blocks[bi + 1][0] - 1 if bi + 1 < len(blocks) \
            else len(stats) - 1
        rows.append({"block_id": bi, "score_lo": s, "score_hi": e,
                     "pos": p, "n": c,
                     "rate_permille": 1000 * p // c})
    fit = pd.DataFrame(rows)
    rng = np.random.default_rng(seed)
    bad = fit.copy()
    bad.loc[rng.integers(0, len(bad)), "pos"] += 1   # corrupt one block
    with pytest.raises(AssertionError):
        entrymod._cert_isotonic(bad, ps)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 700), min_size=1, max_size=40),
       st.integers(0, 10**6))
def test_pack_cert_rejects_random_capacity_violation(lens_list, seed):
    """Any first-fit packing passes; bumping one offset into overlap or
    dropping one doc must always fire."""
    import numpy as np

    capacity = 512
    lens = {i: ln for i, ln in enumerate(lens_list)}
    rows, off, bin_id = [], 0, 0
    for i, ln in lens.items():
        eff = max(1, min(ln, capacity))
        if ln > capacity:
            rows.append({"doc_id": i, "bin_id": 10_000 + i,
                         "offset_in_bin": 0, "truncated": 1})
            continue
        if off + eff > capacity:
            bin_id, off = bin_id + 1, 0
        rows.append({"doc_id": i, "bin_id": bin_id,
                     "offset_in_bin": off, "truncated": 0})
        off += eff
    out = pd.DataFrame(rows)
    entrymod._cert_pack_bins(out, lens, capacity)   # feasible passes
    rng = np.random.default_rng(seed)
    if len(out) > 1:
        bad = out.iloc[:-1]
        with pytest.raises(AssertionError):
            entrymod._cert_pack_bins(bad, lens, capacity)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=200))
def test_heavy_hitters_cert_matches_exact_counts_property(vals):
    vc = pd.Series(vals).value_counts()
    out = pd.DataFrame({"item": vc.index.to_numpy(),
                        "est_count": vc.to_numpy()})
    true = dict(vc)
    entrymod._cert_heavy_hitters(out, true, len(vals), k=32)
    bad = out.copy()
    bad.loc[0, "est_count"] += 1
    with pytest.raises(AssertionError):
        entrymod._cert_heavy_hitters(bad, true, len(vals), k=32)


# ------------------------------------------------- chain-graph contiguity
def test_contiguous_ids_accepts_range():
    entrymod._require_contiguous_ids(np.arange(100, dtype=np.int64), "t")
    entrymod._require_contiguous_ids(np.array([], dtype=np.int64), "t")


def test_contiguous_ids_rejects_gapped():
    with pytest.raises(RuntimeError, match="contiguous"):
        entrymod._require_contiguous_ids(
            np.array([0, 1, 3], dtype=np.int64), "t")
    with pytest.raises(RuntimeError, match="contiguous"):
        entrymod._require_contiguous_ids(
            np.array([1, 2, 3], dtype=np.int64), "t")


# ---------------------------------------------- oracle position-table domain
def test_text_len_domain_guard_accepts_corpus():
    entrymod._assert_text_len_domain(SF0, lo=1, hi=1023, name="t")


def test_text_len_domain_guard_fires_outside(tmp_path):
    """A corpus with a doc longer than the oracle's fixed position
    table must make cdc/winnow raise BEFORE the silent-truncation
    comparison, not pass on a truncated SQL side."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.table({"doc_id": [0, 1],
                             "text": ["short", "x" * 1500],
                             "n_chars": [5, 1500]}),
                   str(tmp_path / "documents.parquet"))
    with pytest.raises(AssertionError, match="position-table domain"):
        entrymod._assert_text_len_domain(str(tmp_path), lo=1, hi=1023,
                                         name="cdc_chunks")
    with pytest.raises(AssertionError, match="position-table domain"):
        entrymod._assert_text_len_domain(str(tmp_path), lo=8, hi=2047,
                                         name="winnow_fingerprints")
