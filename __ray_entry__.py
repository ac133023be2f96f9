"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship parse->enrich->route->aggregate pipeline
over a deterministic token-sequence corpus sized from sf0.001;
``queries()`` exposes one callable per implemented operator family from
SURVEY.md section 2 plus the training-data operators (dedup, similarity
search, text analysis, multimodal); ``oracle_sql()`` gives the DuckDB
equivalent for every SQL-expressible query.

The driver initialises Ray BEFORE importing this module -- nothing here
calls ray.init()/ray.shutdown().

Float determinism policy: every money/value aggregate is computed as
integer cents via ``floor(x * 100 + 0.5)`` per row on BOTH sides (same
IEEE-754 evaluation order), so value hashes compare exactly; SQL sums
are wrapped in CAST(... AS BIGINT) because DuckDB widens integer sums
to INT128.
"""

from __future__ import annotations

import datetime
import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ci_log_processing_ray.config import PipelineConfig
from ci_log_processing_ray.functions.messages import extract_messages, extract_severity
from ci_log_processing_ray.functions.timestamps import _WS_SET, extract_timestamps
from ci_log_processing_ray.ops.dedup import (
    embedding_dedup,
    exact_dedup,
    minhash_lsh_dedup,
    ngram_jaccard_pairs,
    semdedup,
    simhash_clusters,
)
from ci_log_processing_ray.ops.multimodal import (
    decode_images,
    encode_fake_image,
    encode_linear_image,
    encode_linear_video,
    resize_images,
    sample_video_frames,
)
from ci_log_processing_ray.ops.relational import asof_join_grouped, window_topk
from ci_log_processing_ray.ops.similarity import (knn_bruteforce, knn_ivf,
                                                  knn_lsh, knn_pq)
from ci_log_processing_ray.ops.textstats import (
    BPE_RE,
    QUALITY_STOPWORDS,
    STOPWORD_RE,
    WORD_RE,
    add_text_stats,
    fingerprint,
    language_id,
    quality_score,
    repetition_score,
    token_count_bpe,
    word_topk,
)
from ci_log_processing_ray.ops.quantile import (
    approx_quantiles,
    quantile_cont_by_group,
    quantile_disc_by_group,
)
from ci_log_processing_ray.ops.reshape import explode_list
from ci_log_processing_ray.ops.window import (
    forward_fill_by_group,
    lag_diff_by_group,
    rank_by_group,
    running_total_by_group,
    sessionize,
)
from ci_log_processing_ray.pipelines.flagship import run_pipeline
from ci_log_processing_ray.sources.synth import CorpusSpec, generate_corpus

WORD_VOCAB = ("join", "merge", "sort", "window")


_TARGET_BLOCK_BYTES = 8 << 20  # ~8 MiB of parquet per block for small inputs


def _read(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    """read_parquet with size-aware block targeting.

    Ray's default split heuristic aims for ~2x-CPU parallelism no matter
    how small the file is -- a 1.5 MB table becomes 64 x 24 KB blocks,
    and every downstream sort-shuffle then pays 64x64 tiny-partition
    overhead (measured 13x slowdown on the curation composite).  For
    small files, target ~8 MiB per block with a floor of 8 blocks (so
    CPU-heavy text kernels still fan out); large files keep the default
    row-group planning, which is already size-aware at scale.
    """
    path = os.path.join(sf_dir, f"{table}.parquet")
    kwargs = {}
    nbytes = os.path.getsize(path)
    if nbytes < (256 << 20):
        kwargs["override_num_blocks"] = int(
            min(max(8, nbytes // _TARGET_BLOCK_BYTES), 64))
    return ray.data.read_parquet(path, columns=columns, **kwargs)


def _join_partitions(sf_dir: str, *tables: str,
                     rows_per_partition: int = 250_000) -> int:
    """Data-size-aware hash-join partition count: Acero join stages pay
    per-partition fixed costs (aggregator actors), so partitions track
    the JOINED ROW VOLUME (parquet metadata, free to read) with the
    cluster size only as a cap -- measured 2x on sf0.1 vs CPU-derived
    counts."""
    rows = sum(
        pq.read_metadata(os.path.join(sf_dir, f"{t}.parquet")).num_rows
        for t in tables)
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    return int(np.clip(rows // rows_per_partition + 1, 2, max(2, ncpu // 2)))


def _cents(col) -> pa.Array:
    """floor(x*100 + 0.5) as int64 -- deterministic money/cents conversion
    (identical IEEE evaluation order to the oracle SQL)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.cast(pc.floor(pc.add(pc.multiply(col, 100.0), 0.5)), pa.int64())


def _ts_us(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Cast every timestamp column to microsecond precision.  Ray's hash
    shuffle round-trips timestamp keys through numpy datetime64 and can
    emit timestamp[s] where the source (and the DuckDB oracle) carry
    timestamp[us]; values are identical, but the driver's value hash is
    precision-sensitive, so normalize on emit."""
    def cast(t: pa.Table) -> pa.Table:
        fields = [
            (f.name, pa.timestamp("us")) if pa.types.is_timestamp(f.type)
            else (f.name, f.type) for f in t.schema]
        return t.cast(pa.schema(fields))
    return ds.map_batches(cast, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# entry: flagship pipeline over a deterministic corpus sized from sf0.001
# ---------------------------------------------------------------------------
def entry() -> Any:
    sf_dir = "/root/testdata/sf0.001"
    n_docs = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    spec = CorpusSpec(
        n_builds=max(8, min(24, n_docs // 40)),
        lines_per_file=40, seed=1234, n_shards=2, hot_build_factor=4)
    corpus_dir = f"/tmp/ci_log_corpus_entry_{spec.n_builds}_{spec.seed}"
    marker = os.path.join(corpus_dir, ".done")
    if not os.path.exists(marker):
        info = generate_corpus(corpus_dir, spec)
        with open(marker, "w") as f:
            f.write(str(info["n_rows"]))
    import glob
    import shutil

    shards = sorted(glob.glob(os.path.join(corpus_dir, "token_sequences", "*.parquet")))
    out_dir = "/tmp/ci_log_entry_out"
    shutil.rmtree(out_dir, ignore_errors=True)
    res = run_pipeline(
        shards, os.path.join(corpus_dir, "build_meta.parquet"),
        out_dir, PipelineConfig(skip_debug=True))
    return res.counts.to_pandas()


# ---------------------------------------------------------------------------
# query implementations
# ---------------------------------------------------------------------------
def q_route_daily_counts(sf_dir: str):
    """S13 daily index naming + A2 per-sink counts: salted two-phase
    aggregate (per-batch combiner, then a tiny global groupby)."""
    ds = _read(sf_dir, "events", ["ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        day = pc.strftime(t["ts"].combine_chunks(), format="%Y.%m.%d")
        sink = pc.binary_join_element_wise(
            pa.array(["logstash-"] * len(t)), day, "")
        tt = pa.table({
            "sink": sink,
            "doc_count": pa.array(np.ones(len(t), dtype=np.int64)),
            "value_cents": _cents(t["value"]),
        })
        g = tt.group_by("sink").aggregate(
            [("doc_count", "sum"), ("value_cents", "sum")])
        return pa.table({"sink": g["sink"], "doc_count": g["doc_count_sum"],
                         "value_cents": g["value_cents_sum"]})

    return ds.map_batches(partial, batch_format="pyarrow").groupby("sink").aggregate(
        Sum("doc_count", alias_name="doc_count"),
        Sum("value_cents", alias_name="value_cents"))


def q_severity_histogram(sf_dir: str):
    """M1/section-2.9 grok keyword extraction (first match wins) + count."""
    ds = _read(sf_dir, "documents", ["text", "source"])

    def partial(t: pa.Table) -> pa.Table:
        sev = extract_severity(t["text"], vocabulary=WORD_VOCAB)
        tt = pa.table({"source": t["source"].combine_chunks(), "severity": sev,
                       "n": pa.array(np.ones(len(t), dtype=np.int64))})
        g = tt.group_by(["source", "severity"]).aggregate([("n", "sum")])
        return pa.table({"source": g["source"], "severity": g["severity"],
                         "n": g["n_sum"]})

    return ds.map_batches(partial, batch_format="pyarrow").groupby(
        ["source", "severity"]).aggregate(Sum("n", alias_name="n"))


def q_message_extract(sf_dir: str):
    """M4 split-once-on-pipe message extraction."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def fn(t: pa.Table) -> pa.Table:
        line = pc.binary_join_element_wise(
            t["lang"].combine_chunks(), t["text"].combine_chunks(),
            pa.array(["tail"] * len(t)), " | ")
        return pa.table({"doc_id": t["doc_id"],
                         "message": extract_messages(line)})

    return ds.map_batches(fn, batch_format="pyarrow")


def q_timestamp_roundtrip(sf_dir: str):
    """M1 six-pattern timestamp extraction, validated by round-trip."""
    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def fn(t: pa.Table) -> pa.Table:
        ser = t["ts"].to_pandas()
        eid = t["event_id"].to_pandas()
        m = (eid % 3).to_numpy()
        s = pd.Series(index=ser.index, dtype=object)
        s[m == 0] = ser[m == 0].dt.strftime("%Y-%m-%dT%H:%M:%S.%fZ")
        s[m == 1] = ser[m == 1].dt.strftime("%Y-%m-%d %H:%M:%S.%f")
        s[m == 2] = ser[m == 2].dt.strftime("%Y-%m-%dT%H:%M:%S")
        parsed = extract_timestamps(pa.array(s, type=pa.string()), 2024)
        return pa.table({"event_id": t["event_id"], "ts_parsed": parsed})

    return ds.map_batches(fn, batch_format="pyarrow")


def q_debug_filter(sf_dir: str):
    """M3 substring drop filter + per-source counts."""
    ds = _read(sf_dir, "documents", ["text", "source"])

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.invert(pc.match_substring(t["text"].combine_chunks(), "slow"))
        t = t.filter(keep)
        g = t.group_by("source").aggregate([("text", "count")])
        return pa.table({"source": g["source"], "n": g["text_count"]})

    return ds.map_batches(partial, batch_format="pyarrow").groupby(
        "source").aggregate(Sum("n", alias_name="n"))


class _SegmentEnricher:
    """J1-style broadcast lookup: customer dim held per actor."""

    def __init__(self, lut_ref):
        self.lut = ray.get(lut_ref)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["c_mktsegment"] = batch["o_custkey"].map(self.lut)
        return batch


def q_enrich_broadcast(sf_dir: str):
    """J1 broadcast hash join: orders enriched from the small customer
    dim (ray.put once, dict gather per batch; no shuffle)."""
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"])
    lut_ref = ray.put(dict(zip(cust["c_custkey"].to_pylist(),
                               cust["c_mktsegment"].to_pylist())))
    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    enriched = ds.map_batches(
        _SegmentEnricher, fn_constructor_args=(lut_ref,),
        batch_format="pandas", batch_size=65536, concurrency=(1, 4))

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({
            "c_mktsegment": t["c_mktsegment"].combine_chunks(),
            "n_orders": pa.array(np.ones(len(t), dtype=np.int64)),
            "total_cents": _cents(t["o_totalprice"]),
        })
        g = tt.group_by("c_mktsegment").aggregate(
            [("n_orders", "sum"), ("total_cents", "sum")])
        return pa.table({"c_mktsegment": g["c_mktsegment"],
                         "n_orders": g["n_orders_sum"],
                         "total_cents": g["total_cents_sum"]})

    return enriched.map_batches(partial, batch_format="pyarrow").groupby(
        "c_mktsegment").aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("total_cents", alias_name="total_cents"))


def q_carry_forward(sf_dir: str):
    """M2/ST3 carry-forward as a grouped ordered forward fill."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def mask(t: pa.Table) -> pa.Table:
        known = pc.if_else(
            pc.greater_equal(t["value"].combine_chunks(), 50.0),
            t["ts"].combine_chunks(), pa.nulls(len(t), pa.timestamp("us")))
        return pa.table({"event_id": t["event_id"], "user_id": t["user_id"],
                         "ts_known": known})

    masked = ds.map_batches(mask, batch_format="pyarrow")
    filled = forward_fill_by_group(
        masked, "user_id", "event_id", "ts_known",
        fill_leading=pd.Timestamp("2024-01-01"), out_col="ts_filled")
    return filled.select_columns(["event_id", "ts_filled"])


def q_pricing_summary(sf_dir: str):
    """A2-style grouped aggregate (TPC-H q1 shape), partial+final."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_shipdate"])
    cutoff = pa.scalar(datetime.datetime(1998, 9, 2), type=pa.timestamp("us"))

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"].combine_chunks(), cutoff))
        ep = t["l_extendedprice"].combine_chunks()
        disc = t["l_discount"].combine_chunks()
        disc_price = pc.multiply(ep, pc.subtract(1.0, disc))
        tt = pa.table({
            "l_returnflag": t["l_returnflag"].combine_chunks(),
            "l_linestatus": t["l_linestatus"].combine_chunks(),
            "sum_qty": pc.cast(pc.floor(
                pc.add(t["l_quantity"].combine_chunks(), 0.5)), pa.int64()),
            "sum_base_cents": _cents(ep),
            "sum_disc_cents": _cents(disc_price),
            "n": pa.array(np.ones(len(t), dtype=np.int64)),
        })
        g = tt.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("sum_qty", "sum"), ("sum_base_cents", "sum"),
             ("sum_disc_cents", "sum"), ("n", "sum")])
        return pa.table({
            "l_returnflag": g["l_returnflag"], "l_linestatus": g["l_linestatus"],
            "sum_qty": g["sum_qty_sum"], "sum_base_cents": g["sum_base_cents_sum"],
            "sum_disc_cents": g["sum_disc_cents_sum"], "n": g["n_sum"]})

    return ds.map_batches(partial, batch_format="pyarrow").groupby(
        ["l_returnflag", "l_linestatus"]).aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base_cents", alias_name="sum_base_cents"),
            Sum("sum_disc_cents", alias_name="sum_disc_cents"),
            Sum("n", alias_name="n"))


def q_topk_orders(sf_dir: str):
    """Global sort + limit (top-k with deterministic tie-break)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderpriority"])
    top = ds.sort(["o_totalprice", "o_orderkey"],
                  descending=[True, False]).limit(10)

    def fn(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_orderpriority": t["o_orderpriority"],
            "total_cents": _cents(t["o_totalprice"]),
        })

    return top.map_batches(fn, batch_format="pyarrow")


def q_distinct_users(sf_dir: str):
    """Distinct aggregation via two-level groupby."""
    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    pairs = ds.groupby(["event_type", "user_id"]).count()
    return pairs.groupby("event_type").aggregate(Count(alias_name="n_users"))


def q_sessionize(sf_dir: str):
    """Streaming-window op: 30-minute-gap sessions per user."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    sess = sessionize(ds, "user_id", "ts",
                      gap=datetime.timedelta(minutes=30),
                      tiebreak_cols=["event_id"])

    # sessionize's bucketed shuffle already co-locates each user, so the
    # per-user rollup combines INSIDE blocks (1 partial row per user per
    # block) and the global groupby touches ~#users rows, not #events.
    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("user_id").aggregate(
            [("session_id", "max"), ("user_id", "count")])
        return pa.table({
            "user_id": g["user_id"],
            "max_sid": g["session_id_max"],
            "n_events": pc.cast(g["user_id_count"], pa.int64()),
        })

    agg = sess.map_batches(
        partial, batch_format="pyarrow", batch_size=None,
    ).groupby("user_id").aggregate(
        Max("max_sid", alias_name="max_sid"),
        Sum("n_events", alias_name="n_events"))

    def fn(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "n_events": pc.cast(t["n_events"].combine_chunks(), pa.int64()),
            "n_sessions": pc.add(t["max_sid"].combine_chunks(),
                                 pa.scalar(1, pa.int64())),
        })

    return agg.map_batches(fn, batch_format="pyarrow")


def q_join_large(sf_dir: str):
    """Large-large hash-partitioned join (Dataset.join) + aggregate,
    with the additive aggregate PUSHED BELOW the join: lineitem partials
    (count + cents sum per l_orderkey, one Arrow group_by per batch)
    shrink the shuffled fact side ~4x before the join moves it."""
    def li_partial(t: pa.Table) -> pa.Table:
        disc_price = pc.multiply(
            t["l_extendedprice"].combine_chunks(),
            pc.subtract(1.0, t["l_discount"].combine_chunks()))
        tt = pa.table({
            "l_orderkey": t["l_orderkey"].combine_chunks(),
            "n_items": pa.array(np.ones(len(t), dtype=np.int64)),
            "disc_cents": _cents(disc_price),
        })
        g = tt.group_by("l_orderkey").aggregate(
            [("n_items", "sum"), ("disc_cents", "sum")])
        return pa.table({"l_orderkey": g["l_orderkey"],
                         "n_items": g["n_items_sum"],
                         "disc_cents": g["disc_cents_sum"]})

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"]).map_batches(
        li_partial, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    # partition count sized well UNDER the CPU count: each partition is
    # one hash-aggregator actor and they run alongside the scan tasks;
    # partitions track joined row volume (_join_partitions), CPU-capped.
    joined = li.join(orders, "inner",
                     num_partitions=_join_partitions(
                         sf_dir, "lineitem", "orders"),
                     on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("o_orderpriority").aggregate(
            [("n_items", "sum"), ("disc_cents", "sum")])
        return pa.table({"o_orderpriority": g["o_orderpriority"],
                         "n_items": g["n_items_sum"],
                         "disc_cents": g["disc_cents_sum"]})

    return joined.map_batches(partial, batch_format="pyarrow").groupby(
        "o_orderpriority").aggregate(
            Sum("n_items", alias_name="n_items"),
            Sum("disc_cents", alias_name="disc_cents"))


def q_dedup_exact_events(sf_dir: str):
    """Exact dedup by key: first event per (user, type) + multiplicity."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])
    return ds.groupby(["user_id", "event_type"]).aggregate(
        Min("event_id", alias_name="first_event_id"),
        Count(alias_name="dup_count"))


def q_dedup_text(sf_dir: str):
    """Exact content dedup: hash-combine then group (ops/dedup.py)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return exact_dedup(ds, "text", "doc_id")


def q_fingerprint(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return fingerprint(ds, "text", "doc_id")


def q_token_counts(sf_dir: str):
    """Token counting + quality stats, aggregated per source."""
    ds = _read(sf_dir, "documents", ["source", "text"])
    stats = add_text_stats(ds, "text")

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("source").aggregate(
            [("n_words", "sum"), ("n_uniq_words", "sum"),
             ("n_punct", "sum"), ("n_words", "count")])
        return pa.table({
            "source": g["source"], "total_words": g["n_words_sum"],
            "total_uniq_words": g["n_uniq_words_sum"],
            "total_punct": g["n_punct_sum"], "n_docs": g["n_words_count"]})

    return stats.map_batches(partial, batch_format="pyarrow").groupby(
        "source").aggregate(
            Sum("total_words", alias_name="total_words"),
            Sum("total_uniq_words", alias_name="total_uniq_words"),
            Sum("total_punct", alias_name="total_punct"),
            Sum("n_docs", alias_name="n_docs"))


def q_perf_props_sum(sf_dir: str):
    """M7-style nested-payload flatten (vectorized regex field extract)."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        hit = pc.extract_regex(t["props"].combine_chunks(),
                               pattern=r"\"k\": (?P<k>[0-9]+)")
        k = pc.cast(pc.struct_field(hit, "k"), pa.int64())
        tt = pa.table({"event_type": t["event_type"].combine_chunks(),
                       "k_total": k,
                       "n": pa.array(np.ones(len(t), dtype=np.int64))})
        g = tt.group_by("event_type").aggregate([("k_total", "sum"), ("n", "sum")])
        return pa.table({"event_type": g["event_type"],
                         "k_total": g["k_total_sum"], "n": g["n_sum"]})

    return ds.map_batches(partial, batch_format="pyarrow").groupby(
        "event_type").aggregate(Sum("k_total", alias_name="k_total"),
                                Sum("n", alias_name="n"))


def q_hot_key_salted(sf_dir: str):
    """Skew-safe per-key counts: per-batch combiner collapses the hot key
    before the exchange (the salt is the block id)."""
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({"user_id": t["user_id"].combine_chunks(),
                       "n": pa.array(np.ones(len(t), dtype=np.int64)),
                       "value_cents": _cents(t["value"])})
        g = tt.group_by("user_id").aggregate([("n", "sum"), ("value_cents", "sum")])
        return pa.table({"user_id": g["user_id"], "n": g["n_sum"],
                         "value_cents": g["value_cents_sum"]})

    return ds.map_batches(partial, batch_format="pyarrow").groupby(
        "user_id").aggregate(Sum("n", alias_name="n"),
                             Sum("value_cents", alias_name="value_cents"))


def _query_vectors(sf_dir: str, ids=(0, 1, 2)):
    tbl = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    mask = pc.is_in(tbl["vec_id"], value_set=pa.array(list(ids)))
    sub = tbl.filter(mask).sort_by("vec_id")
    q = np.vstack(sub["embedding"].to_numpy(zero_copy_only=False))
    return q, sub["vec_id"].to_pylist()


def q_knn_bruteforce(sf_dir: str):
    """Exact cosine top-10 per query (broadcast query matrix, per-batch
    local top-k combiner)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q, qids = _query_vectors(sf_dir)
    df = knn_bruteforce(ds, "embedding", "vec_id", q, qids, k=10)
    return df[["query_id", "vec_id"]]


def _assert_text_len_domain(sf_dir: str, *, lo: int, hi: int,
                            name: str) -> None:
    """Guard the oracle's position-table domain: the SQL oracles for
    the byte-stream ops enumerate positions from a FIXED range table
    (cdc: range(1, 1024); winnow: range(1, 2048), k=8 padding floor),
    so a corpus whose documents drift outside [lo, hi] chars would
    silently truncate on the SQL side (or row-diverge on padded short
    docs) instead of failing loudly.  Raises BEFORE running the op."""
    nc = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                       columns=["n_chars"])["n_chars"].to_numpy()
    if len(nc) and (nc.min() < lo or nc.max() > hi):
        raise AssertionError(
            f"{name}: corpus doc lengths [{int(nc.min())}, "
            f"{int(nc.max())}] outside the oracle's [{lo}, {hi}] "
            f"position-table domain -- widen the range tables before "
            f"trusting the comparison")


_EXACT_TOP10_CACHE: dict = {}


def _ann_recall_floor(ds, q, qids, approx, floor_permille: int,
                      name: str, cache_key: "str | None" = None) -> None:
    """Recall@10 of an ANN result vs the exact bruteforce top-10,
    enforced as a BINDING floor (round-3 verdict task #5): the query
    RAISES below it, so a recall regression fails the driver run even
    though the op itself is rows-only.  Deterministic: fixed seeds,
    fixed corpus -> fixed recall (measured values in COVERAGE.md).

    ``cache_key`` (the sf_dir) memoizes the exact baseline per corpus
    -- the embeddings tables are immutable test fixtures, and the four
    ANN gates (lsh / ivf / pq / ann_recall) each paid a full
    bruteforce pass per run (the dominant cost of q_knn_pq at every
    scale).  The key also binds the concrete query ids, so a future
    gate with a different same-length query set can never reuse the
    wrong truth."""
    key = (cache_key, tuple(int(i) for i in qids)) if cache_key else None
    ex = _EXACT_TOP10_CACHE.get(key) if key else None
    if ex is None:
        ex = knn_bruteforce(ds, "embedding", "vec_id", q, qids, k=10)
        if hasattr(ex, "to_pandas"):
            ex = ex.to_pandas()
        if key:
            _EXACT_TOP10_CACHE[key] = ex
    e = ex.groupby("query_id")["vec_id"].apply(set)
    a = approx.groupby("query_id")["vec_id"].apply(set)
    hits = sum(len(e[g] & a.get(g, set())) for g in e.index)
    total = int(e.map(len).sum())
    permille = 1000 * hits // max(total, 1)
    if permille < floor_permille:
        raise AssertionError(
            f"{name}: recall@10 {permille} permille below the "
            f"{floor_permille} floor ({hits}/{total} exact edges hit)")


# ---------------------------------------------------------------------------
# Binding in-query certificates for rows-only ops (round-4 session-2).
# Each helper is a pure function over plain pandas/numpy inputs so the
# negative tests in tests/test_binding_gates.py can prove the gate FIRES
# on corrupted output, not just passes on good output.
# ---------------------------------------------------------------------------


def _cert_isotonic(fit: "pd.DataFrame", per_score: "pd.DataFrame") -> None:
    """Full optimality certificate for a PAV isotonic fit, in exact
    integer arithmetic.  ``fit`` is isotonic_calibrate's output
    (score_lo, score_hi, pos, n per level set, ordered by score);
    ``per_score`` is the exact (score, pos, n) sufficient statistics.

    The canonical L2-optimal monotone fit is CHARACTERIZED by:
      (a) the level sets partition the observed scores in order,
      (b) each set's (pos, n) equals the sum of its members',
      (c) adjacent set rates strictly increase (maximal merge), and
      (d) within every set, each proper prefix's mean >= the set mean
          (otherwise splitting there strictly reduces L2 error).
    All compares are cross-multiplied int64 rationals -- no floats."""
    fit = fit.sort_values("score_lo").reset_index(drop=True)
    ps = per_score.sort_values("score").reset_index(drop=True)
    if int(fit["n"].sum()) != int(ps["n"].sum()) or \
            int(fit["pos"].sum()) != int(ps["pos"].sum()):
        raise AssertionError("isotonic: (pos, n) mass not conserved")
    # (c) strictly increasing rates
    p, n = fit["pos"].to_numpy(), fit["n"].to_numpy()
    if not np.all(p[:-1] * n[1:] < p[1:] * n[:-1]):
        raise AssertionError("isotonic: level-set rates not strictly "
                             "increasing (fit not maximally merged)")
    # (a)+(b)+(d) per block against the exact per-score stats
    edges = np.searchsorted(ps["score"].to_numpy(),
                            fit["score_lo"].to_numpy())
    if edges[0] != 0:
        raise AssertionError("isotonic: first block misses low scores")
    cpos = np.concatenate([[0], np.cumsum(ps["pos"].to_numpy())])
    cn = np.concatenate([[0], np.cumsum(ps["n"].to_numpy())])
    bounds = np.append(edges, len(ps))
    for i in range(len(fit)):
        lo_i, hi_i = bounds[i], bounds[i + 1]
        if ps["score"].iloc[hi_i - 1] != fit["score_hi"].iloc[i]:
            raise AssertionError("isotonic: block %d hi-score mismatch" % i)
        bp = int(cpos[hi_i] - cpos[lo_i])
        bn = int(cn[hi_i] - cn[lo_i])
        if bp != int(fit["pos"].iloc[i]) or bn != int(fit["n"].iloc[i]):
            raise AssertionError("isotonic: block %d stats mismatch" % i)
        # (d) every proper prefix mean >= block mean
        pre_p = cpos[lo_i + 1:hi_i] - cpos[lo_i]
        pre_n = cn[lo_i + 1:hi_i] - cn[lo_i]
        if not np.all(pre_p * bn >= bp * pre_n):
            raise AssertionError(
                "isotonic: block %d has a prefix below the block mean "
                "(pooling not optimal)" % i)


def _cert_heavy_hitters(out: "pd.DataFrame", true_counts: dict,
                        n_total: int, k: int) -> None:
    """Misra-Gries guarantee gate: every estimate underestimates its
    true count by at most 2n/(k+1) (one n/(k+1) from the per-block
    summaries, one from the final merge prune) and never overestimates."""
    bound = 2 * n_total // (k + 1)
    for item, est in zip(out["item"], out["est_count"]):
        true = int(true_counts.get(item, 0))
        if est > true:
            raise AssertionError(
                f"heavy_hitters: {item!r} overestimated ({est} > {true})")
        if true - est > bound:
            raise AssertionError(
                f"heavy_hitters: {item!r} misses the MG bound "
                f"({true} - {est} > {bound})")


def _cert_quantile(est: float, values: "np.ndarray", q: float,
                   alpha: float, name: str) -> None:
    """DDSketch accuracy gate: the estimate must be within relative
    error ~alpha of the exact q-quantile.  Rank conventions differ by
    at most one order statistic, so the gate accepts the best of the
    floor/ceil rank values with a 2.5x alpha margin."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    r = q * (len(v) - 1)
    cands = v[[int(np.floor(r)), int(np.ceil(r))]]
    ok = any(abs(est - c) <= 2.5 * alpha * abs(c) + 1e-9 for c in cands)
    if not ok:
        raise AssertionError(
            f"{name}: q={q} estimate {est} outside +/-{2.5 * alpha:.3f} "
            f"relative of exact {cands.tolist()}")


def _cert_pack_bins(out: "pd.DataFrame", lens: dict, capacity: int) -> None:
    """Bin-packing feasibility certificate: every doc placed exactly
    once, truncated flag iff len > capacity, per-bin [offset,
    offset+eff_len) spans disjoint and inside [0, capacity), capacity
    respected with truncated docs clipped to capacity."""
    if out["doc_id"].duplicated().any():
        raise AssertionError("pack_bins: a doc was placed twice")
    if set(out["doc_id"]) != set(lens):
        raise AssertionError("pack_bins: docs lost or invented")
    ln = out["doc_id"].map(lens).to_numpy()
    tr = out["truncated"].to_numpy()
    if not np.array_equal(tr == 1, ln > capacity):
        raise AssertionError("pack_bins: truncated flag wrong")
    eff = np.maximum(np.minimum(ln, capacity), 1)
    off = out["offset_in_bin"].to_numpy()
    if (off < 0).any() or (off >= capacity).any():
        raise AssertionError("pack_bins: offset outside [0, capacity)")
    df = pd.DataFrame({"bin": out["bin_id"].to_numpy(),
                       "off": off, "end": off + eff})
    for b, grp in df.groupby("bin"):
        g = grp.sort_values("off")
        # eff is already clipped to capacity, so a truncated doc at
        # offset 0 ends exactly AT capacity -- any end beyond it is a
        # genuine overflow, single-doc bins included
        if int(g["end"].iloc[-1]) > capacity:
            raise AssertionError(f"pack_bins: bin {b} overflows")
        e = g["end"].to_numpy()[:-1]
        s = g["off"].to_numpy()[1:]
        if not np.all(e <= s):
            raise AssertionError(f"pack_bins: bin {b} spans overlap")


def _plant_dup_texts(ds, mod: int = 50):
    """Deterministically augment the documents dataset with planted
    EXACT duplicates: every doc_id % mod == 0 row gets a verbatim copy
    at doc_id + _PLANT_OFF.  Identical text guarantees identical
    minhash signatures / simhash values, so recovery of every planted
    pair is a deterministic property of a correct kernel -- the
    binding yardstick for the text-dedup family (sf0.01+ has no
    natural exact duplicates, so without planting the signal floats).
    Pure map: planting is per-batch."""

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        sel = (ids % mod) == 0
        planted = pa.table({
            "doc_id": pa.array(ids[sel] + _PLANT_OFF, pa.int64()),
            "text": t["text"].combine_chunks().filter(pa.array(sel))})
        base = pa.table({"doc_id": t["doc_id"], "text": t["text"]},
                        schema=planted.schema)
        return pa.concat_tables([base, planted])

    return ds.map_batches(plant, batch_format="pyarrow")


def _cert_planted_clusters(df: "pd.DataFrame", id_col: str,
                           rep_col: str, planted_base,
                           name: str) -> None:
    """Planted-pair recovery gate: every (base, base + _PLANT_OFF)
    planted exact-duplicate pair must appear in the clustering result
    in the SAME cluster (same representative -- not necessarily the
    base itself, since the base may share a cluster with natural
    duplicates).  Any miss raises."""
    rep = dict(zip(df[id_col], df[rep_col]))
    for b in planted_base:
        p = b + _PLANT_OFF
        if p not in rep or b not in rep:
            raise AssertionError(
                f"{name}: planted pair ({b}, {p}) missing from result")
        if rep[p] != rep[b]:
            raise AssertionError(
                f"{name}: planted pair ({b}, {p}) split across "
                f"clusters ({rep[b]} vs {rep[p]})")


def q_knn_lsh(sf_dir: str):
    """Approximate top-10 via hyperplane LSH multi-probe (rows-only op,
    but with a BINDING recall floor: >= 400 permille of the exact
    bruteforce top-10, asserted in-query; measured 766/466/533 at
    sf0.001/0.01/0.1 with n_planes=6, probe_hamming=2)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q, qids = _query_vectors(sf_dir)
    res = knn_lsh(ds, "embedding", "vec_id", q, qids, k=10,
                  n_planes=6, probe_hamming=2)
    _ann_recall_floor(ds, q, qids, res, 400, "knn_lsh",
                      cache_key=sf_dir)
    return res


def q_minhash_dedup(sf_dir: str):
    """MinHash+LSH near-dup clusters over the planted-augmented corpus
    (every doc_id % 50 == 0 doc gets an exact copy at +1e6): identical
    text -> identical signature -> same band buckets -> Jaccard-1
    verified edge, so recovery of EVERY planted pair is guaranteed for
    a correct kernel and enforced by a BINDING in-query gate
    (_cert_planted_clusters).  Oracle-checked since r5: the full
    output (clusters incl. the natural near-dup pairs -- LSH recall
    on this corpus+seed is exactly 1.0, verified edge-for-edge vs
    brute force) is reproduced by _MINHASH_DEDUP_ORACLE."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = minhash_lsh_dedup(_plant_dup_texts(ds), "text", "doc_id",
                            jaccard_threshold=0.7)
    ids = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id"])["doc_id"].to_numpy()
    _cert_planted_clusters(out, "doc_id", "cluster_rep",
                           ids[ids % 50 == 0], "minhash_dedup")
    return out


def _assert_simhash_domain(sf_dir: str) -> None:
    """Guard _SIMHASH_ORACLE's domain: a document with no words
    (null, empty or whitespace-only text) gets a row with hash 0 from
    the engine, but the SQL oracle's unnest of its empty word list
    yields no row at all, so the two would disagree on that row
    instead of failing loudly.  Raises BEFORE running the op."""
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"]).to_pydict()
    empty = [d for d, t in zip(docs["doc_id"], docs["text"])
             if not (t or "").split()]
    if empty:
        raise AssertionError(
            f"simhash: {len(empty)} documents have no words (first "
            f"doc_id {empty[0]}) -- the oracle drops them while the "
            f"engine emits hash 0")


def q_simhash(sf_dir: str):
    """SimHash exact-bucket clusters over the planted-augmented corpus
    (exact copies at +1e6 for doc_id % 50 == 0), with a BINDING
    in-query gate: every planted copy must carry the SAME 64-bit
    simhash as its base and sit in a bucket of size >= 2.
    Oracle-checked since r5: the seeded-FNV word hash is
    SQL-reproducible, so _SIMHASH_ORACLE recomputes the raw simhash
    values themselves (not just the bucket structure) in DuckDB."""
    _assert_simhash_domain(sf_dir)
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(simhash_clusters(_plant_dup_texts(ds), "text",
                                    "doc_id")).to_pandas()
    ids = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id"])["doc_id"].to_numpy()
    sim = dict(zip(out["doc_id"], out["simhash"]))
    size = dict(zip(out["doc_id"], out["bucket_size"]))
    for b in ids[ids % 50 == 0]:
        p = b + _PLANT_OFF
        if p not in sim or b not in sim:
            raise AssertionError(f"simhash: planted id {p} missing")
        if sim[p] != sim[b] or size[p] < 2:
            raise AssertionError(
                f"simhash: planted copy {p} not bucketed with base "
                f"{b} (hash {sim.get(p)} vs {sim.get(b)}, "
                f"size {size.get(p)})")
    return out


_PLANT_OFF = 1_000_000  # planted near-dup ids: base vec_id + this


def _plant_near_dups(ds):
    """Deterministically augment the embeddings dataset with planted
    near-duplicates: every vec_id % 5 == 0 row gets a copy at
    vec_id + _PLANT_OFF with embedding scaled by exactly 2.0 (same
    direction -> cosine 1.0; 2*float32 is mantissa-exact, so the SQL
    oracle's list_transform(x -> x*2) reproduces IDENTICAL reals).
    The synthetic table's max pairwise cosine is ~0.51, so at
    threshold 0.92 the planted pairs are the ONLY near-dups -- this
    turns the formerly-empty dedup queries into binding signals
    (round-3 verdict task #1).  Pure map: planting is per-batch."""

    def plant(t: pa.Table) -> pa.Table:
        vid = t["vec_id"].combine_chunks().to_numpy()
        sel = (vid % 5) == 0
        emb_type = t.schema.field("embedding").type
        m = np.vstack(t["embedding"].to_numpy(zero_copy_only=False))
        planted = pa.table({
            "vec_id": pa.array(vid[sel] + _PLANT_OFF, pa.int64()),
            "embedding": pa.array(list(m[sel] * np.float32(2.0)),
                                  type=emb_type)})
        base = pa.table({"vec_id": t["vec_id"],
                         "embedding": t["embedding"]},
                        schema=planted.schema)
        return pa.concat_tables([base, planted])

    return ds.map_batches(plant, batch_format="pyarrow")


# shared by embedding_dedup / semdedup: quantized-cosine pair oracle
# over the planted-augmented table.  All true clusters are size-2
# pairs (base, base+OFF), so cluster_rep = the pair's smaller id; the
# FLOOR(permille) >= 920 cut matches the engine's cosine >= 0.92 with
# a huge margin (planted ~1000 vs background <= 513 permille).
_EMBED_DEDUP_ORACLE = """
WITH aug AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + 1000000 AS vec_id,
         list_transform(embedding, x -> x * 2) AS embedding
  FROM embeddings WHERE vec_id % 5 = 0
),
n AS (
  SELECT vec_id, embedding,
         sqrt(list_inner_product(embedding, embedding)) AS nrm
  FROM aug
),
pairs AS (
  SELECT a.vec_id AS ia, b.vec_id AS ib
  FROM n a JOIN n b ON a.vec_id < b.vec_id
  WHERE FLOOR(1000.0 * list_inner_product(a.embedding, b.embedding)
              / (a.nrm * b.nrm)) >= 920
)
SELECT ia AS vec_id, ia AS cluster_rep FROM pairs
UNION ALL
SELECT ib AS vec_id, ia AS cluster_rep FROM pairs
ORDER BY vec_id
"""


def _cdc_oracle_sql() -> str:
    """cdc_chunks exact oracle, generated: the gear table (seeded PRNG,
    deterministic) and the r^j power table (mod 2^64, split into 32-bit
    halves so the gear x power multiply never overflows HUGEINT) are
    embedded as VALUES literals; DuckDB then reproduces the windowed
    gear hash (16 lag() terms per position -- the self-join variant
    measured 20x slower), the mask_bits=5 boundary rule with the
    window-validity filter, the polynomial span hashes and the
    (hash, len)-distinct accounting -- the engine's whole CDC pipeline,
    bit-for-bit (ops/dedup.py:cdc_chunk_stats)."""
    from ci_log_processing_ray.ops.dedup import _CDC_R, _cdc_gear_table

    mod = 1 << 64
    r = int(_CDC_R)
    rp, acc = [], 1
    for _ in range(1024):
        rp.append(acc)
        acc = (acc * r) % mod
    gear_rows = ",".join(
        f"({b},{int(g)})" for b, g in enumerate(_cdc_gear_table()))
    rpow_rows = ",".join(
        f"({u},{v})" for u, v in enumerate(rp))
    lag_terms = " + ".join(
        f"((CAST(coalesce(lag(g, {j}) OVER w, 0) AS HUGEINT)"
        f" * {rp[j] & 0xFFFFFFFF}) % 18446744073709551616"
        f" + ((CAST(coalesce(lag(g, {j}) OVER w, 0) % 4294967296"
        f" AS HUGEINT) * {rp[j] >> 32}) % 4294967296) * 4294967296)"
        f" % 18446744073709551616"
        for j in range(16))
    return f"""
WITH gear(gb, g) AS (VALUES {gear_rows}),
rpow(j, rj) AS (VALUES {rpow_rows}),
bytes AS (
  SELECT doc_id, i.i AS pos, ord(substr(text, i.i, 1)) AS b
  FROM documents, range(1, 1024) i(i)
  WHERE i.i <= length(text)
),
gb AS (SELECT doc_id, pos, g FROM bytes JOIN gear ON gear.gb = bytes.b),
winh AS (
  SELECT doc_id, pos,
         CAST(({lag_terms}) % 18446744073709551616 AS UBIGINT) AS h
  FROM gb
  WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY pos >= 16
),
cutset AS (
  SELECT doc_id, 0 AS c FROM documents
  UNION
  SELECT doc_id, length(text) AS c FROM documents
  UNION
  SELECT doc_id, pos AS c FROM winh WHERE (h & 31) = 0
),
chunks AS (
  SELECT doc_id, c AS s,
         lead(c) OVER (PARTITION BY doc_id ORDER BY c) AS e
  FROM cutset
),
ch AS (SELECT doc_id, s, e, e - s AS len FROM chunks
       WHERE e IS NOT NULL AND e > s),
spanh AS (
  SELECT ch.doc_id, ch.s, ch.len,
         CAST(sum((CAST(b.b AS HUGEINT) * rj.rj) % 18446744073709551616)
              % 18446744073709551616 AS UBIGINT) AS hh
  FROM ch
  JOIN bytes b ON b.doc_id = ch.doc_id AND b.pos > ch.s AND b.pos <= ch.e
  JOIN rpow rj ON rj.j = b.pos - ch.s - 1
  GROUP BY ch.doc_id, ch.s, ch.len
),
agg AS (SELECT hh, len, count(*) AS cnt FROM spanh GROUP BY hh, len)
SELECT CAST(sum(cnt) AS BIGINT) AS n_chunks,
       CAST(count(*) AS BIGINT) AS n_distinct,
       CAST(sum(len * cnt) AS BIGINT) AS bytes_total,
       CAST(sum(len) AS BIGINT) AS bytes_distinct
FROM agg
"""


# winnow_fingerprints exact oracle: the k=8 window hash is a plain

# polynomial sum (byte * 257^(7-j), per-term wraparound mod 2^64,
# then mod 2^61-1 -- the engine's exact uint64 arithmetic, so the
# SQL reproduces it term-for-term with HUGEINT), and the local-minima
# selection [i-w+1, i+w-1] is ONE SQL window min (w=5 -> 4 PRECEDING
# / 4 FOLLOWING).  Checksums and counts then match bit-for-bit.
_WINNOW_ORACLE = r"""

WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text FROM documents
  WHERE doc_id % 50 = 0
),
win AS (
  SELECT doc_id, i.i AS pos,
         (((CAST(ord(substr(text, i.i + 0, 1)) AS HUGEINT) * 74051159531521793) % 18446744073709551616
          + (CAST(ord(substr(text, i.i + 1, 1)) AS HUGEINT) * 288136807515649) % 18446744073709551616
          + (CAST(ord(substr(text, i.i + 2, 1)) AS HUGEINT) * 1121154893057) % 18446744073709551616
          + (CAST(ord(substr(text, i.i + 3, 1)) AS HUGEINT) * 4362470401) % 18446744073709551616
          + (CAST(ord(substr(text, i.i + 4, 1)) AS HUGEINT) * 16974593) % 18446744073709551616
          + (CAST(ord(substr(text, i.i + 5, 1)) AS HUGEINT) * 66049) % 18446744073709551616
          + (CAST(ord(substr(text, i.i + 6, 1)) AS HUGEINT) * 257) % 18446744073709551616
          + (CAST(ord(substr(text, i.i + 7, 1)) AS HUGEINT) * 1) % 18446744073709551616
          ) % 18446744073709551616) % 2305843009213693951 AS h
  FROM aug, range(1, 2048) i(i)
  WHERE i.i + 7 <= length(text)
),
sel AS (
  SELECT doc_id, h,
         min(h) OVER (PARTITION BY doc_id ORDER BY pos
                      ROWS BETWEEN 4 PRECEDING AND 4 FOLLOWING) AS mn
  FROM win
)
SELECT doc_id,
       count(*) AS n_windows,
       CAST(sum(CASE WHEN h = mn THEN 1 ELSE 0 END) AS BIGINT) AS n_selected,
       CAST(sum(CASE WHEN h = mn THEN h % 1000000007 ELSE 0 END) AS BIGINT)
           AS fp_checksum
FROM sel GROUP BY doc_id ORDER BY doc_id

"""


# count_min exact-state oracle: row j's item hash is FNV-1a seeded by
# j + the fmix64 finalizer (same SQL-reproducible pipeline as
# _HLL_ORACLE; 64x64 multiplies split into 32-bit halves), so DuckDB
# rebuilds the whole 4x1024 counter table and answers every point
# query as the min over the 4 hashed cells -- the full sketch, not
# just the error contract.
_COUNT_MIN_ORACLE = r"""

WITH RECURSIVE su AS (
  SELECT DISTINCT CAST(user_id AS VARCHAR) AS s FROM events
),
sj AS (SELECT s, j FROM su, range(0, 4) r(j)),
fh(s, j, pos, h) AS (
  SELECT s, j, 0,
         xor(CAST(14695981039346656037 AS UBIGINT), CAST(j AS UBIGINT))
  FROM sj
  UNION ALL
  SELECT s, j, pos + 1,
         CAST((CAST(xor(h, CAST(ord(substr(s, pos + 1, 1)) AS UBIGINT))
                    AS HUGEINT)
               * 1099511628211) % 18446744073709551616 AS UBIGINT)
  FROM fh WHERE pos < length(s)
),
uh AS (SELECT s, j, h FROM fh WHERE pos = length(s)),
x1 AS (SELECT s, j, xor(h, h >> 33) AS h FROM uh),
x2 AS (SELECT s, j, CAST(((CAST(h AS HUGEINT) * 3981806797) % 18446744073709551616
         + ((CAST(h % 4294967296 AS HUGEINT) * 4283543511) % 4294967296)
         * 4294967296) % 18446744073709551616 AS UBIGINT) AS h FROM x1),
x3 AS (SELECT s, j, xor(h, h >> 33) AS h FROM x2),
x4 AS (SELECT s, j, CAST(((CAST(h AS HUGEINT) * 444984403) % 18446744073709551616
         + ((CAST(h % 4294967296 AS HUGEINT) * 3301882366) % 4294967296)
         * 4294967296) % 18446744073709551616 AS UBIGINT) AS h FROM x3),
x5 AS (SELECT s, j, xor(h, h >> 33) AS h FROM x4),
hp AS (SELECT s, j, CAST(h % 1024 AS BIGINT) AS pos FROM x5),
cnt AS (SELECT CAST(user_id AS VARCHAR) AS s, count(*) AS c FROM events GROUP BY 1),
cells AS (SELECT j, pos, sum(c) AS n FROM hp JOIN cnt USING (s) GROUP BY j, pos),
est AS (
  SELECT hp.s, min(cells.n) AS est_count
  FROM hp JOIN cells ON cells.j = hp.j AND cells.pos = hp.pos
  GROUP BY hp.s
)
SELECT CAST(s AS BIGINT) AS item, CAST(est_count AS BIGINT) AS est_count
FROM est ORDER BY item

"""


# hll_distinct_users exact-state oracle: item hash = seeded FNV-1a of
# str(user_id) + murmur3 fmix64 finalizer (both SQL-reproducible; the
# 64x64 wraparound multiplies are split into 32-bit halves because
# HUGEINT overflows at 2^127).  DuckDB rebuilds bucket = h >> 52,
# rank = 53 - bit_length(low 52 bits) (== the engine's padded-CLZ),
# merges by max per bucket and emits the same rank histogram the
# query returns -- the full sketch state, not just the estimate.
_HLL_ORACLE = r"""

WITH RECURSIVE u AS (
  SELECT DISTINCT event_type, CAST(user_id AS VARCHAR) AS s FROM events
),
su AS (SELECT DISTINCT s FROM u),
fh(s, pos, h) AS (
  SELECT s, 0, CAST(14695981039346656037 AS UBIGINT) FROM su
  UNION ALL
  SELECT s, pos + 1,
         CAST((CAST(xor(h, CAST(ord(substr(s, pos + 1, 1)) AS UBIGINT))
                    AS HUGEINT)
               * 1099511628211) % 18446744073709551616 AS UBIGINT)
  FROM fh WHERE pos < length(s)
),
uh AS (SELECT s, h FROM fh WHERE pos = length(s)),
x1 AS (SELECT s, xor(h, h >> 33) AS h FROM uh),
x2 AS (SELECT s, CAST(((CAST(h AS HUGEINT) * 3981806797) % 18446744073709551616 + ((CAST(h % 4294967296 AS HUGEINT) * 4283543511) % 4294967296) * 4294967296) % 18446744073709551616 AS UBIGINT) AS h FROM x1),
x3 AS (SELECT s, xor(h, h >> 33) AS h FROM x2),
x4 AS (SELECT s, CAST(((CAST(h AS HUGEINT) * 444984403) % 18446744073709551616 + ((CAST(h % 4294967296 AS HUGEINT) * 3301882366) % 4294967296) * 4294967296) % 18446744073709551616 AS UBIGINT) AS h FROM x3),
x5 AS (SELECT s, xor(h, h >> 33) AS h FROM x4),
ranked AS (
  SELECT u.event_type,
         CAST(h >> 52 AS BIGINT) AS bucket,
         CAST(53 - CASE WHEN (h & 4503599627370495) = 0 THEN 0
                        ELSE length(bin(h & 4503599627370495)) END
              AS BIGINT) AS rank
  FROM u JOIN x5 USING (s)
),
regs AS (
  SELECT event_type, bucket, max(rank) AS rank
  FROM ranked GROUP BY event_type, bucket
),
hist AS (
  SELECT event_type, rank, count(*) AS n_regs FROM regs GROUP BY 1, 2
  UNION ALL
  SELECT event_type, 0 AS rank, 4096 - count(*) AS n_regs
  FROM regs GROUP BY event_type
  HAVING 4096 - count(*) > 0
)
SELECT event_type, rank, n_regs FROM hist ORDER BY event_type, rank

"""


# multimodal oracles: the synthetic payloads use affine pixel/byte
# formulas (ops/multimodal.py:encode_linear_image/_video), so DuckDB
# recomputes the decode metadata, the resize's nearest-neighbor index
# selection, and the sampled-frame byte sums exactly -- binding on the
# actual kernel math (a wrong yi/xi stride or frame slice changes the
# sums), not just row geometry.
_MULTIMODAL_DECODE_ORACLE = """
SELECT d.doc_id AS media_id,
       16 + d.doc_id % 16 AS width,
       16 AS height,
       8 + (16 + d.doc_id % 16) * 16 AS n_bytes,
       CAST(sum((d.doc_id * 7919 + (p.p // (16 + d.doc_id % 16)) * 131
                 + (p.p % (16 + d.doc_id % 16)) * 17) % 256) AS BIGINT)
           AS intensity_sum
FROM documents d, range(0, 496) p(p)
WHERE p.p < (16 + d.doc_id % 16) * 16
GROUP BY d.doc_id ORDER BY media_id
"""

_MULTIMODAL_RESIZE_ORACLE = """
SELECT d.doc_id AS media_id, 8 AS width, 8 AS height,
       CAST(sum((d.doc_id * 7919 + (2 * yy.y) * 131
                 + ((xx.x * (16 + d.doc_id % 16)) // 8) * 17) % 256)
            AS BIGINT) AS pixel_sum
FROM documents d, range(0, 8) yy(y), range(0, 8) xx(x)
GROUP BY d.doc_id ORDER BY media_id
"""

_VIDEO_FRAME_SAMPLE_ORACLE = """
SELECT d.doc_id AS media_id, 4 * kk.k AS frame_no,
       CAST(sum((d.doc_id * 104729 + (4 * kk.k) * 257 + j.j * 31) % 256)
            AS BIGINT) AS frame_sum
FROM documents d, range(0, 4) kk(k), range(0, 256) j(j)
WHERE 4 * kk.k < 8 + d.doc_id % 8
GROUP BY d.doc_id, kk.k
ORDER BY media_id, frame_no
"""


# simhash exact oracle: the engine's per-word hash is seeded FNV-1a
# over UTF-8 bytes (ops/dedup.py:_fnv1a_word_hashes), chosen precisely
# because ANSI SQL can reproduce it -- a recursive CTE folds
# (h XOR byte) * prime mod 2^64 over character positions (HUGEINT
# intermediate avoids the UBIGINT overflow throw; corpus is ASCII so
# ord(substr) == the UTF-8 byte).  Bit votes, packing (bit 63 wraps
# negative exactly like the engine's uint64->int64 cast) and bucket
# sizes are then plain SQL, so the FULL output including the raw
# 64-bit simhash values is oracle-checked.
# Words are split on the engine's own whitespace set (ops/dedup.py:
# _simhash_batch), the 29 str.isspace() code points: RE2's \s is only
# [\t\n\f\r ].
_SIMHASH_ORACLE = r"""
WITH RECURSIVE aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text FROM documents
  WHERE doc_id % 50 = 0
),
docwords AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '[{ws}]+'), x -> x <> '') AS ws
  FROM aug
),
vocab AS (SELECT DISTINCT unnest(ws) AS w FROM docwords),
fh(w, pos, h) AS (
  SELECT w, 0,
         xor(CAST(14695981039346656037 AS UBIGINT), CAST(11 AS UBIGINT))
  FROM vocab
  UNION ALL
  SELECT w, pos + 1,
         CAST((CAST(xor(h, CAST(ord(substr(w, pos + 1, 1)) AS UBIGINT))
                    AS HUGEINT)
               * 1099511628211) % 18446744073709551616 AS UBIGINT)
  FROM fh WHERE pos < length(w)
),
wh AS (SELECT w, h FROM fh WHERE pos = length(w)),
occ AS (SELECT doc_id, unnest(ws) AS w FROM docwords),
votes AS (
  SELECT doc_id, b.i AS bit,
         sum(CASE WHEN (h >> CAST(b.i AS UBIGINT)) & 1 = 1
                  THEN 1 ELSE -1 END) AS v
  FROM occ JOIN wh USING (w)
  CROSS JOIN (SELECT unnest(range(0, 64)) AS i) b
  GROUP BY doc_id, b.i
),
sh AS (
  SELECT doc_id,
         sum(CASE WHEN v > 0 THEN CAST(1 AS HUGEINT) << bit
                  ELSE CAST(0 AS HUGEINT) END) AS uh
  FROM votes GROUP BY doc_id
)
SELECT doc_id,
       CAST(CASE WHEN uh >= 9223372036854775808
                 THEN uh - 18446744073709551616
                 ELSE uh END AS BIGINT) AS simhash,
       count(*) OVER (PARTITION BY uh) AS bucket_size
FROM sh ORDER BY doc_id
""".format(ws=_WS_SET)


# minhash_dedup exact oracle: the engine's verified-edge truth set is
# "5-byte-shingle Jaccard >= 0.7" (LSH recall over this corpus+seed is
# exactly 1.0 -- verified edge-for-edge against brute force at sf0.001
# and sf0.01), so DuckDB can reproduce the FULL output: distinct
# 5-char substrings per doc (corpus is ASCII, so chars == UTF-8
# bytes), exact integer Jaccard predicate (10*inter >= 7*union ==
# inter/union >= 0.7 for these denominators), min-label closure via a
# recursive CTE -- identical to the engine's union-by-min.  The cheap
# join prefilter uses J <= min/max (a length-ratio necessary
# condition); intersections resolve RELATIONALLY (candidate pairs x
# exploded hash()-encoded grams, one grouped count) instead of 130k
# list_intersect calls -- 19 s -> ~5 s at sf0.01 (pairs with zero
# shared grams drop out of the inner join; they fail the threshold
# anyway).
_MINHASH_DEDUP_ORACLE = """
WITH RECURSIVE aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text FROM documents
  WHERE doc_id % 50 = 0
),
g AS (
  SELECT doc_id,
         list_distinct(list_transform(range(1, length(text) - 3),
                                      i -> hash(substr(text, i, 5))))
             AS grams
  FROM aug
),
sizes AS (SELECT doc_id, len(grams) AS n FROM g),
cand AS (
  SELECT a.doc_id AS ia, b.doc_id AS ib, a.n AS na, b.n AS nb
  FROM sizes a JOIN sizes b
    ON a.doc_id < b.doc_id
   AND 10 * least(a.n, b.n) >= 7 * greatest(a.n, b.n)
),
gg AS (SELECT doc_id, unnest(grams) AS gram FROM g),
inter AS (
  SELECT c.ia, c.ib, c.na, c.nb, count(*) AS i
  FROM cand c
  JOIN gg ga ON ga.doc_id = c.ia
  JOIN gg gb ON gb.doc_id = c.ib AND gb.gram = ga.gram
  GROUP BY c.ia, c.ib, c.na, c.nb
),
pairs AS (
  SELECT ia, ib FROM inter WHERE 10 * i >= 7 * (na + nb - i)
),
e AS (
  SELECT ia AS a, ib AS b FROM pairs
  UNION ALL
  SELECT ib AS a, ia AS b FROM pairs
),
lbl AS (
  SELECT a AS id, b AS rep FROM e
  UNION
  SELECT e.a AS id, lbl.rep AS rep FROM e JOIN lbl ON lbl.id = e.b
)
SELECT id AS doc_id, least(id, min(rep)) AS cluster_rep
FROM lbl GROUP BY id ORDER BY doc_id
"""


def q_embedding_dedup(sf_dir: str):
    """Embedding-cosine near-dup clusters over the planted-augmented
    embeddings (LSH hyperplane blocking is direction-invariant, so a
    scaled copy always lands in its base's bucket -- guaranteed
    recall, binding oracle)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_dedup(_plant_near_dups(ds), "embedding", "vec_id",
                           cosine_threshold=0.92)


def q_pca_embeddings(sf_dir: str):
    """Distributed PCA (ops/similarity.py:pca_project): one-pass moment
    partials -> driver eigh -> broadcast projection.  Rows-only (float
    eigendecomposition); numpy-parity unit test in tests/test_ops.py.

    BINDING spectral gate: the projected coordinates must realize the
    covariance spectrum computed INDEPENDENTLY driver-side -- mean(pc)
    ~ 0, var(pc_i) == i-th eigenvalue, cov(pc1, pc2) ~ 0 (orthogonal
    directions decorrelate), all within 1e-6 relative.  A wrong
    component, missed centering, or projection bug raises."""
    from ci_log_processing_ray.ops.similarity import pca_project

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = _collect(pca_project(ds, "embedding", "vec_id",
                               n_components=2)).to_pandas()
    emb = np.vstack(pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["embedding"])["embedding"].to_numpy(
            zero_copy_only=False)).astype(np.float64)
    cov = np.cov(emb, rowvar=False, bias=True)
    evals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    p1, p2 = out["pc1"].to_numpy(), out["pc2"].to_numpy()
    scale = max(evals[0], 1e-12)
    checks = [
        abs(p1.mean()) < 1e-6 * np.sqrt(scale) + 1e-9,
        abs(p2.mean()) < 1e-6 * np.sqrt(scale) + 1e-9,
        abs(p1.var() - evals[0]) < 1e-6 * scale,
        abs(p2.var() - evals[1]) < 1e-6 * scale,
        abs(np.mean(p1 * p2)) < 1e-6 * scale,
    ]
    if not all(checks):
        raise AssertionError(
            f"pca_embeddings: projections violate the independently "
            f"computed spectrum (checks={checks}, "
            f"vars=({p1.var():.6g}, {p2.var():.6g}), "
            f"evals=({evals[0]:.6g}, {evals[1]:.6g}))")
    return out


def q_dbscan(sf_dir: str):
    """Grid-based distributed DBSCAN (ops/iterative.py:dbscan_grid)
    over the first two embedding dims quantized to int64 milli-units
    (floor(x*1000) -- the shared exact-integer determinism contract
    with the oracle's recursive-CTE closure); eps=20 units, min_pts=4
    yields ~20 clusters plus border and noise points on this corpus."""
    from ci_log_processing_ray.ops.iterative import dbscan_grid

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def quant(t: pa.Table) -> pa.Table:
        m = np.vstack(t["embedding"].to_numpy(
            zero_copy_only=False)).astype(np.float64)
        return pa.table({
            "vec_id": t["vec_id"],
            "x": pa.array(np.floor(m[:, 0] * 1000.0).astype(np.int64)),
            "y": pa.array(np.floor(m[:, 1] * 1000.0)
                          .astype(np.int64))})

    return dbscan_grid(ds.map_batches(quant, batch_format="pyarrow"),
                       "vec_id", "x", "y", eps=20, min_pts=4)


def q_spatial_nn(sf_dir: str):
    """2-D nearest-neighbor-within-radius spatial self join
    (ops/iterative.py:spatial_nn) over the quantized first two
    embedding dims (same milli-unit contract as dbscan), radius 40
    units -- radius-grid 3x3 halo, per-cell vectorized argmin."""
    from ci_log_processing_ray.ops.iterative import spatial_nn

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def quant(t: pa.Table) -> pa.Table:
        m = np.vstack(t["embedding"].to_numpy(
            zero_copy_only=False)).astype(np.float64)
        return pa.table({
            "vec_id": t["vec_id"],
            "x": pa.array(np.floor(m[:, 0] * 1000.0).astype(np.int64)),
            "y": pa.array(np.floor(m[:, 1] * 1000.0)
                          .astype(np.int64))})

    return spatial_nn(ds.map_batches(quant, batch_format="pyarrow"),
                      "vec_id", "x", "y", radius=40)


def q_semdedup(sf_dir: str):
    """SemDeDup (arXiv:2303.09540): k-means-blocked embedding near-dup
    clusters (ops/dedup.py:semdedup) over the planted-augmented
    embeddings.  Cosine k-means assignment is direction-invariant, so
    a planted scaled copy ALWAYS co-assigns with its base (identical
    unit vectors -> identical argmax) regardless of where the
    centroids land -- the k-means blocking is exact on this corpus and
    the pair oracle binds the OUTPUT even though the blocking itself
    is not SQL-expressible."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return semdedup(_plant_near_dups(ds), "embedding", "vec_id", k=8,
                    cosine_threshold=0.92)


def q_max_coverage(sf_dir: str):
    """Greedy maximum-coverage document selection
    (ops/curation.py:greedy_max_coverage): 4 rounds of exact
    marginal-gain greedy over distinct word trigrams -- the submodular
    data-curation primitive (coverage-based subset selection).  Picks,
    tie-breaks (smallest doc_id) and integer gains all match the
    DuckDB 4-round unrolled CTE oracle exactly."""
    from ci_log_processing_ray.ops.curation import greedy_max_coverage

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return greedy_max_coverage(ds, "doc_id", "text", k=4, ngram=3)


def q_dsir_select(sf_dir: str):
    """DSIR importance selection (arXiv:2302.03169,
    ops/curation.py:dsir_select): top-100 docs most 'src3'-like by
    Laplace-smoothed integer unigram frequency-ratio weights."""
    from ci_log_processing_ray.ops.curation import dsir_select

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    return _collect(dsir_select(ds, "text", "doc_id", "source", "src3",
                                k=100))


def q_lang_id(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    pred = language_id(ds, "text")
    return pred.groupby(["lang", "lang_pred"]).count()


def q_lang_kappa(sf_dir: str):
    """Cohen's kappa of the lang_id heuristic against the true lang
    column (ops/textstats.py:prediction_kappa) -- chance-corrected
    agreement in exact integer permille; blocks collapse to
    classes^2 confusion partials, kappa arithmetic runs on the tiny
    merged matrix only."""
    from ci_log_processing_ray.ops.textstats import prediction_kappa

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return prediction_kappa(language_id(ds, "text"), "lang",
                            "lang_pred")


def q_multimodal_decode(sf_dir: str):
    """Multimodal plumbing: deterministic binary payloads -> actor-pool
    decode -> typed metadata.

    Oracle-checked since r5: payloads use the SQL-reproducible affine
    pixel formula (ops/multimodal.py:encode_linear_image), so DuckDB
    recomputes width/height/n_bytes AND the total pixel intensity.
    intensity_sum = round(mean_intensity * w * h) recovers the exact
    integer byte sum (the relative float error is ~2^-53, far below
    the 0.5 rounding margin), keeping the int64-contract output.

    The closed-form geometry gate stays in-query: width == 16 + id %
    16, height == 16, n_bytes == 8 + w*h, exactly one row per doc."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def make_payload(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        payloads = [encode_linear_image(i, 16 + (i % 16), 16) for i in ids]
        return pa.table({
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
        })

    media = ds.map_batches(make_payload, batch_format="pyarrow", batch_size=256)
    out = _collect(decode_images(media)).to_pandas()
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    mid = out["media_id"].to_numpy()
    w = out["width"].to_numpy().astype(np.int64)
    h = out["height"].to_numpy().astype(np.int64)
    nb = out["n_bytes"].to_numpy().astype(np.int64)
    mi = out["mean_intensity"].to_numpy()
    if (len(out) != n_docs or out["media_id"].duplicated().any()
            or not np.array_equal(w, 16 + mid % 16)
            or not np.all(h == 16)
            or not np.array_equal(nb, 8 + w * h)
            or not np.all((mi >= 0) & (mi <= 255))):
        raise AssertionError(
            "multimodal_decode: decoded metadata violates the "
            "closed-form payload geometry")
    return pd.DataFrame({
        "media_id": out["media_id"].astype("int64"),
        "width": w,
        "height": h,
        "n_bytes": nb,
        "intensity_sum": np.rint(mi * w * h).astype(np.int64),
    })


def _collect(ds: ray.data.Dataset,
             fallback: "pa.Schema | None" = None) -> pa.Table:
    """Materialize a small result Dataset to an Arrow table, keeping the
    schema even when the result is EMPTY (Dataset.to_pandas() returns a
    column-less frame for zero-row datasets, which would break the
    driver's column comparison).  ``fallback`` covers the deepest empty
    case: a dataset whose every upstream block was empty can lose its
    schema entirely (Dataset.schema() is None -- seen at 135M lines
    when dominance legitimately empties), so result-shaped callers pass
    their known output schema.  The dataset is materialized once, so an
    empty result's schema comes from its blocks instead of a second,
    ``limit(1)`` run of the plan."""
    ds = ds.materialize()
    batches = list(ds.iter_batches(batch_format="pyarrow"))
    if not batches:
        sch = ds.schema(fetch_if_missing=False)
        if sch is None:
            if fallback is not None:
                return fallback.empty_table()
            raise ValueError(
                "_collect: empty dataset with no schema and no fallback")
        base = sch.base_schema
        if isinstance(base, pa.Schema):
            return base.empty_table()
        # Empty pandas-block dataset: PandasBlockSchema has no
        # empty_table(); rebuild Arrow fields from the pandas dtypes
        # (object dtype means text in this repo -> string, never null).
        fields = []
        for name, dt in zip(base.names, base.types):
            try:
                typ = (pa.string() if getattr(dt, "kind", None) == "O"
                       else pa.from_numpy_dtype(dt))
            except (pa.ArrowNotImplementedError, TypeError):
                typ = pa.string()
            fields.append(pa.field(name, typ))
        return pa.schema(fields).empty_table()
    return pa.concat_tables(batches, promote_options="default")


def q_ngram_jaccard(sf_dir: str):
    """n-gram Jaccard near-dup pairs -- exact, via distributed pair
    counting (shared-gram blocking loses nothing at threshold > 0).

    ``max_df`` is set to the corpus row count: a gram's document
    frequency can never exceed it, so the cutoff provably changes
    nothing (the unit-tested subset contract) while keeping the
    sum(df^2)-guard ACTIVE in the shipped plan -- any gram hotter than
    the bound (data bugs, adversarial corpora) is dropped instead of
    exploding candidate generation."""
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return _collect(ngram_jaccard_pairs(ds, "text", "doc_id",
                                        n=3, threshold_pct=50,
                                        max_df=n_docs))


def q_ngram_jaccard_maxdf(sf_dir: str):
    """The DF-cutoff scale path exercised for real: grams in more than
    ``max_df=3`` docs are excluded from INTERSECTION counts (per-doc
    totals stay full), so every reported jaccard is a lower bound and
    the output is a subset of the exact result -- candidate generation
    drops from sum(df^2) to sum(df<=3 ? df^2 : 0).  The oracle encodes
    the same contract, so it stays binding under the cutoff."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return _collect(ngram_jaccard_pairs(ds, "text", "doc_id",
                                        n=3, threshold_pct=50, max_df=3))


def q_prefix_jaccard(sf_dir: str):
    """Prefix-filtered set-similarity join (AllPairs/PPJoin): the SAME
    exact pair set as q_ngram_jaccard, but candidate generation ships
    only each doc's (|s| - ceil(t|s|) + 1)-prefix under the global
    (df, gram) order -- hot grams sort last and stay out of the
    exchange, removing the sum(df^2) exposure without max_df's subset
    contract.  The oracle is the brute-force SQL join, so the hash
    match PROVES the pruned plan is lossless."""
    from ci_log_processing_ray.ops.dedup import prefix_jaccard_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return prefix_jaccard_pairs(ds, "text", "doc_id",
                                n=3, threshold_pct=50)


def q_ccnet_buckets(sf_dir: str):
    """CCNet-style per-source quality buckets (Wenzek et al. 2020,
    arXiv:1911.00359): the corpus bigram-LM doc score
    (ops/textstats.py:score_docs_bigram) feeds ntile(3) partitioned by
    source, ordered by (score DESC, doc_id) -- tile 1 = head,
    2 = middle, 3 = tail, the paper's head/middle/tail split."""
    from ci_log_processing_ray.ops.textstats import score_docs_bigram
    from ci_log_processing_ray.ops.window import ntile_by_group

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    scored = score_docs_bigram(ds, "text", "doc_id",
                               passthrough_cols=("source",))

    def neg(t: pa.Table) -> pa.Table:
        return t.append_column("neg_pm", pc.negate(t["avg_permille"]))

    ranked = scored.map_batches(neg, batch_format="pyarrow")
    return ntile_by_group(ranked, "source", ["neg_pm", "doc_id"],
                          "doc_id", 3)


def q_gopher_rules(sf_dir: str):
    """Gopher quality rule bundle (arXiv:2112.11446,
    ops/textstats.py:gopher_rules): per-doc word-count / mean-word-
    length / stopword rules + combined gate, all-integer."""
    from ci_log_processing_ray.ops.textstats import gopher_rules

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return gopher_rules(ds, "text", "doc_id")


def q_gopher_repetition(sf_dir: str):
    """Gopher repetition signals (arXiv:2112.11446 A1.2,
    ops/textstats.py:gopher_repetition): per-doc modal-bigram share
    and duplicate-3-gram share in exact integer permille (base-V gram
    codes, a bijection -- no hash contract needed)."""
    from ci_log_processing_ray.ops.textstats import gopher_repetition

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return gopher_repetition(ds, "text", "doc_id")


def q_quality_score(sf_dir: str):
    """Text-quality scoring: all-integer features via RE2 kernels."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return quality_score(ds, "text", "doc_id")


def q_token_count_bpe(sf_dir: str):
    """BPE-ish (GPT-2 pretokenizer regex) token counting per source."""
    ds = _read(sf_dir, "documents", ["source", "text"])
    return token_count_bpe(ds, "text", "source")


def q_anti_join(sf_dir: str):
    """J4-style anti-join (Dataset.join left_anti): customers that never
    produced an event, counted per market segment."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    ev = _read(sf_dir, "events", ["user_id"])
    missing = cust.join(ev, "left_anti",
                        num_partitions=_join_partitions(
                            sf_dir, "customer", "events"),
                        on=("c_custkey",), right_on=("user_id",))
    return missing.groupby("c_mktsegment").aggregate(
        Count(alias_name="n_customers"))


def q_semi_join(sf_dir: str):
    """Semi-join (Dataset.join left_semi): customers with >= 1 event,
    per market segment."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    ev = _read(sf_dir, "events", ["user_id"])
    active = cust.join(ev, "left_semi",
                       num_partitions=_join_partitions(
                           sf_dir, "customer", "events"),
                       on=("c_custkey",), right_on=("user_id",))
    return active.groupby("c_mktsegment").aggregate(
        Count(alias_name="n_customers"))


_MW_CUTOFF = datetime.datetime(1998, 6, 1)


def q_multiway_join(sf_dir: str):
    """TPC-H Q3 shape: broadcast semi-join on the small dim (customer
    segment filter pushed into the orders scan -- no shuffle), ONE
    large-large hash join, salted-safe partial+final aggregate, global
    sort + limit."""
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"])
    keep = cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))
    keys_ref = ray.put(keep["c_custkey"].combine_chunks())
    cutoff = pa.scalar(_MW_CUTOFF, type=pa.timestamp("us"))

    class OrderFilter:
        def __init__(self, keys_ref):
            # sorted-array membership built ONCE per actor: pc.is_in
            # rebuilds its hash set on every call, which dominated the
            # stage (measured 196ms/batch); two searchsorted probes are
            # ~O(log n) per row and allocation-free.
            self.keys = np.sort(ray.get(keys_ref).to_numpy())

        def __call__(self, t: pa.Table) -> pa.Table:
            vals = t["o_custkey"].combine_chunks().to_numpy()
            if len(self.keys) == 0:
                return t.slice(0, 0).select(["o_orderkey", "o_orderdate"])
            idx = np.minimum(np.searchsorted(self.keys, vals),
                             len(self.keys) - 1)
            mask_seg = pa.array(self.keys[idx] == vals)
            mask = pc.and_(mask_seg,
                           pc.less(t["o_orderdate"].combine_chunks(), cutoff))
            return t.filter(mask).select(["o_orderkey", "o_orderdate"])

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        OrderFilter, fn_constructor_args=(keys_ref,),
        batch_format="pyarrow", concurrency=(1, 4))

    def li_filter(t: pa.Table) -> pa.Table:
        # filter + aggregate-pushdown below the join: the final groupby
        # key (l_orderkey, o_orderdate) is determined by the join key,
        # so revenue partials can combine per batch BEFORE the shuffle
        t = t.filter(pc.greater(t["l_shipdate"].combine_chunks(), cutoff))
        disc_price = pc.multiply(
            t["l_extendedprice"].combine_chunks(),
            pc.subtract(1.0, t["l_discount"].combine_chunks()))
        tt = pa.table({"l_orderkey": t["l_orderkey"].combine_chunks(),
                       "revenue_cents": _cents(disc_price)})
        g = tt.group_by("l_orderkey").aggregate([("revenue_cents", "sum")])
        return pa.table({"l_orderkey": g["l_orderkey"],
                         "revenue_cents": g["revenue_cents_sum"]})

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount",
                "l_shipdate"]).map_batches(li_filter, batch_format="pyarrow")

    # NOTE: aggregating fully below the join (groupby l_orderkey, then
    # join) was A/B-measured SLOWER (8.3-9.2 s vs 6.0-6.5 s at sf0.1):
    # Ray's sort-based groupby over the partial rows costs more than
    # letting the hash join partition them.  Keep join -> groupby.
    joined = li.join(orders, "inner",
                     num_partitions=_join_partitions(
                         sf_dir, "lineitem", "orders"),
                     on=("l_orderkey",), right_on=("o_orderkey",))

    agg = joined.groupby(["l_orderkey", "o_orderdate"]).aggregate(
        Sum("revenue_cents", alias_name="revenue_cents"))
    return _ts_us(agg.sort(["revenue_cents", "l_orderkey"],
                           descending=[True, False]).limit(10))


def q_asof_join(sf_dir: str):
    """As-of join (custom operator): each event matched to the latest
    order of the same user at or before the event time -- one
    co-partitioning shuffle, per-group sorted merge."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
        lambda t: pa.table({"user_id": t["o_custkey"],
                            "o_orderdate": t["o_orderdate"]}),
        batch_format="pyarrow")
    out = asof_join_grouped(
        ev, orders, key="user_id", left_on="ts", right_on="o_orderdate",
        left_cols=["event_id"], right_cols=[])
    return out.map_batches(
        lambda t: t.rename_columns(
            ["last_order_ts" if c == "o_orderdate_matched" else c
             for c in t.column_names]),
        batch_format="pyarrow")


def q_window_topk(sf_dir: str):
    """row_number()-style window: top-2 orders per customer."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    top = window_topk(ds, "o_custkey", "o_totalprice", 2,
                      descending=True, tiebreak_col="o_orderkey")

    def fn(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": t["o_custkey"], "o_orderkey": t["o_orderkey"],
            "total_cents": _cents(t["o_totalprice"])})

    return top.map_batches(fn, batch_format="pyarrow")


def q_tumbling_window(sf_dir: str):
    """Tumbling 1-hour window aggregate per user (partial+final)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        win = pc.floor_temporal(t["ts"].combine_chunks(), unit="hour")
        tt = pa.table({
            "user_id": t["user_id"].combine_chunks(),
            "window_start": win,
            "n": pa.array(np.ones(len(t), dtype=np.int64)),
            "value_cents": _cents(t["value"]),
        })
        g = tt.group_by(["user_id", "window_start"]).aggregate(
            [("n", "sum"), ("value_cents", "sum")])
        return pa.table({"user_id": g["user_id"],
                         "window_start": g["window_start"],
                         "n": g["n_sum"], "value_cents": g["value_cents_sum"]})

    return _ts_us(ds.map_batches(partial, batch_format="pyarrow").groupby(
        ["user_id", "window_start"]).aggregate(
            Sum("n", alias_name="n"),
            Sum("value_cents", alias_name="value_cents")))


def q_union_counts(sf_dir: str):
    """Bag union (Dataset.union) of two filtered streams + count."""
    ds = _read(sf_dir, "events", ["event_type", "value"])
    errors = ds.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"].combine_chunks(), "error"))
        .select(["event_type"]),
        batch_format="pyarrow")
    big = ds.map_batches(
        lambda t: t.filter(pc.greater(t["value"].combine_chunks(), 150.0))
        .select(["event_type"]),
        batch_format="pyarrow")
    return errors.union(big).groupby("event_type").aggregate(
        Count(alias_name="n"))


def q_profit_by_nation(sf_dir: str):
    """Star-schema broadcast-join chain (TPC-H Q9 shape): three small
    dims (part filter, supplier->nation, nation->name) broadcast once;
    ONE pass over the fact table, zero shuffle before the tiny final
    groupby."""
    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_type"])
    econ = part.filter(pc.equal(part["p_type"], "ECONOMY"))[
        "p_partkey"].combine_chunks()
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_nationkey"])
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    n_name = dict(zip(nation["n_nationkey"].to_pylist(),
                      nation["n_name"].to_pylist()))
    supp_nation = {s: n_name[k] for s, k in
                   zip(supp["s_suppkey"].to_pylist(),
                       supp["s_nationkey"].to_pylist())}
    # vectorized lookup state: sorted key vector + aligned value vector
    skeys = np.array(sorted(supp_nation), dtype=np.int64)
    svals = pa.array([supp_nation[k] for k in skeys], type=pa.string())
    state_ref = ray.put((econ, skeys, svals))

    class Star:
        def __init__(self, state_ref):
            self.econ, self.skeys, self.svals = ray.get(state_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            keep = pc.is_in(t["l_partkey"].combine_chunks(),
                            value_set=self.econ)
            t = t.filter(keep)
            sk = t["l_suppkey"].combine_chunks().to_numpy()
            names = self.svals.take(
                pa.array(np.searchsorted(self.skeys, sk), type=pa.int64()))
            disc = pc.multiply(
                t["l_extendedprice"].combine_chunks(),
                pc.subtract(1.0, t["l_discount"].combine_chunks()))
            tt = pa.table({"n_name": names,
                           "n_items": pa.array(np.ones(len(t), dtype=np.int64)),
                           "revenue_cents": _cents(disc)})
            g = tt.group_by("n_name").aggregate(
                [("n_items", "sum"), ("revenue_cents", "sum")])
            return pa.table({"n_name": g["n_name"],
                             "n_items": g["n_items_sum"],
                             "revenue_cents": g["revenue_cents_sum"]})

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"])
    return li.map_batches(Star, fn_constructor_args=(state_ref,),
                          batch_format="pyarrow",
                          concurrency=(1, 4)).groupby("n_name").aggregate(
        Sum("n_items", alias_name="n_items"),
        Sum("revenue_cents", alias_name="revenue_cents"))


def q_region_rollup(sf_dir: str):
    """Dimension rollup through two broadcast hops (customer -> nation
    -> region), TPC-H Q5 shape without the fact-side shuffle."""
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    r_name = dict(zip(region["r_regionkey"].to_pylist(),
                      region["r_name"].to_pylist()))
    nat_region = {n: r_name[r] for n, r in
                  zip(nation["n_nationkey"].to_pylist(),
                      nation["n_regionkey"].to_pylist())}
    nkeys = np.array(sorted(nat_region), dtype=np.int64)
    nvals = pa.array([nat_region[k] for k in nkeys], type=pa.string())
    lut_ref = ray.put((nkeys, nvals))

    class Roll:
        def __init__(self, lut_ref):
            self.nkeys, self.nvals = ray.get(lut_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            nk = t["c_nationkey"].combine_chunks().to_numpy()
            names = self.nvals.take(
                pa.array(np.searchsorted(self.nkeys, nk), type=pa.int64()))
            tt = pa.table({
                "r_name": names,
                "n_customers": pa.array(np.ones(len(t), dtype=np.int64)),
                "acctbal_cents": _cents(t["c_acctbal"]),
            })
            g = tt.group_by("r_name").aggregate(
                [("n_customers", "sum"), ("acctbal_cents", "sum")])
            return pa.table({"r_name": g["r_name"],
                             "n_customers": g["n_customers_sum"],
                             "acctbal_cents": g["acctbal_cents_sum"]})

    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])
    return cust.map_batches(Roll, fn_constructor_args=(lut_ref,),
                            batch_format="pyarrow",
                            concurrency=(1, 4)).groupby("r_name").aggregate(
        Sum("n_customers", alias_name="n_customers"),
        Sum("acctbal_cents", alias_name="acctbal_cents"))


def q_sample_hash(sf_dir: str):
    """Deterministic content-hash sampling (the reproducible-subset
    primitive of a training-data pipeline): keep docs whose
    md5(doc_id) starts with 0 or 1 (a 12.5% expected sample), count
    per source.  Identical hash on both engines -> exact oracle."""
    import hashlib as _hl

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def partial(t: pa.Table) -> pa.Table:
        keep = pa.array([
            _hl.md5(str(d).encode()).hexdigest()[0] in ("0", "1")
            for d in t["doc_id"].to_pylist()])
        t = t.filter(keep)
        g = t.group_by("source").aggregate([("doc_id", "count")])
        return pa.table({"source": g["source"], "n": g["doc_id_count"]})

    return ds.map_batches(partial, batch_format="pyarrow").groupby(
        "source").aggregate(Sum("n", alias_name="n"))


def q_range_join(sf_dir: str):
    """Range join (custom operator): per event, how many orders of the
    same user fall within the 30 days up to the event time -- one
    co-partitioning shuffle, searchsorted kernel per group."""
    from ci_log_processing_ray.ops.relational import range_join_count

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
        lambda t: pa.table({"user_id": t["o_custkey"],
                            "o_orderdate": t["o_orderdate"]}),
        batch_format="pyarrow")
    return range_join_count(
        ev, orders, key="user_id", left_on="ts", right_on="o_orderdate",
        left_id="event_id", window=np.timedelta64(30, "D"))


def q_rolling_window(sf_dir: str):
    """SQL RANGE-frame rolling count per user (1-hour window, peers with
    equal timestamps included -- searchsorted, not pandas rolling)."""
    from ci_log_processing_ray.ops.window import rolling_count_by_group

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    return rolling_count_by_group(ds, "user_id", "ts", "event_id",
                                  np.timedelta64(1, "h"))


def q_hll_distinct_users(sf_dir: str):
    """Approximate per-type distinct users via mergeable HyperLogLog
    register sketches.

    Oracle-checked since r5: the item hash is the SQL-reproducible
    seeded FNV-1a of str(user_id), and the query returns the per-group
    register-RANK HISTOGRAM (an all-integer sufficient statistic of
    the sketch; the estimate is a pure function of it), which
    _HLL_ORACLE rebuilds from scratch in DuckDB -- bucket index,
    padded-CLZ rank and merge-by-max included.

    The BINDING error floor stays in-query: every per-group estimate
    (recomputed from the histogram) is checked against the exact
    distinct count and the query RAISES beyond +/-5% relative error --
    p=12 gives ~1.6% standard error, so 5% is a deterministic-pass /
    regression-fail bound on this fixed corpus."""
    from ci_log_processing_ray.ops.sketch import (
        estimate_from_rank_histogram, hll_distinct_by_group)

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    state = hll_distinct_by_group(ds, "event_type", "user_id", p=12,
                                  hash="fnv", return_state=True)
    state = state.to_pandas() if hasattr(state, "to_pandas") else state
    # exact side: one tiny local distinct fold (the floor's yardstick)
    tbl = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                        columns=["event_type", "user_id"])
    g = (tbl.group_by(["event_type", "user_id"]).aggregate([])
         .group_by("event_type").aggregate([([], "count_all")]))
    exact = dict(zip(g["event_type"].to_pylist(),
                     g["count_all"].to_pylist()))
    for et, sub in state.groupby("event_type"):
        want = exact[et]
        got = round(estimate_from_rank_histogram(
            sub["rank"].to_numpy(np.int64),
            sub["n_regs"].to_numpy(np.int64), 12))
        if abs(got - want) > max(1, want // 20):
            raise AssertionError(
                f"hll_distinct_users: estimate {got} for "
                f"{et!r} outside +/-5% of exact {want}")
    return state.sort_values(["event_type", "rank"]).reset_index(drop=True)


def q_stratified_sample(sf_dir: str):
    """Stratified deterministic sampling: the 5 docs per source with the
    smallest md5(doc_id) -- a reproducible per-stratum subset (window
    top-k over a content hash; same hash both engines -> exact)."""
    import hashlib as _hl

    from ci_log_processing_ray.ops.relational import window_topk

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def add_hash(t: pa.Table) -> pa.Table:
        h = [_hl.md5(str(d).encode()).hexdigest()
             for d in t["doc_id"].to_pylist()]
        return t.append_column("h", pa.array(h, type=pa.string()))

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    top = window_topk(hashed, "source", "h", 5, descending=False,
                      tiebreak_col="doc_id")
    return top.map_batches(lambda t: t.select(["source", "doc_id"]),
                           batch_format="pyarrow")


def q_pivot_counts(sf_dir: str):
    """Pivot-style conditional aggregate: per user, one column per event
    type (count(*) FILTER shape) -- a single pass with a vectorized
    comparison per output column, partial+final."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    types = ["click", "error", "purchase", "signup", "view"]

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"].combine_chunks()
        cols = {"user_id": t["user_id"].combine_chunks()}
        for ty in types:
            cols[f"n_{ty}"] = pc.cast(pc.equal(et, ty), pa.int64())
        tt = pa.table(cols)
        g = tt.group_by("user_id").aggregate(
            [(f"n_{ty}", "sum") for ty in types])
        return pa.table({"user_id": g["user_id"],
                         **{f"n_{ty}": g[f"n_{ty}_sum"] for ty in types}})

    return ds.map_batches(partial, batch_format="pyarrow").groupby(
        "user_id").aggregate(
            *[Sum(f"n_{ty}", alias_name=f"n_{ty}") for ty in types])


def q_knn_ivf(sf_dir: str):
    """IVF-bucketed approximate top-10 (rows-only op, but with a
    BINDING recall floor: >= 600 permille of the exact bruteforce
    top-10, asserted in-query; measured 966/833/666 at
    sf0.001/0.01/0.1 with n_centroids=8, n_probe=5)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q, qids = _query_vectors(sf_dir)
    res = knn_ivf(ds, "embedding", "vec_id", q, qids, k=10,
                  n_centroids=8, n_probe=5)
    _ann_recall_floor(ds, q, qids, res, 600, "knn_ivf",
                      cache_key=sf_dir)
    return res


def q_knn_pq(sf_dir: str):
    """Product-quantization ANN with asymmetric distance computation
    (ops/similarity.py:knn_pq; Jegou et al. TPAMI'11): per-subspace
    codebooks trained on a driver sample, corpus scored via m uint8
    codes + table gathers -- the 8-bytes-per-vector billion-scale
    memory-traffic path.  Rows-only with a BINDING recall floor vs the
    exact bruteforce top-10, asserted in-query (same contract as
    knn_ivf/knn_lsh; measured 866/866 permille at sf0.001/sf0.01 with
    m=16, 256 codes -- 16 bytes/vector, 32x compression)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q, qids = _query_vectors(sf_dir)
    res = knn_pq(ds, "embedding", "vec_id", q, qids, k=10,
                 m_subspaces=16, n_codes=256)
    _ann_recall_floor(ds, q, qids, res, 600, "knn_pq",
                      cache_key=sf_dir)
    return res


def q_multimodal_resize(sf_dir: str):
    """Multimodal resize stage: binary payload -> nearest-neighbor 8x8
    downscale + typed metadata.

    Oracle-checked since r5: payloads use the affine pixel formula
    (ops/multimodal.py:encode_linear_image), so DuckDB reproduces the
    resize's index selection (yi = (y*h)//8, xi = (x*w)//8) and the
    sampled-pixel sum exactly.  pixel_sum = mean_intensity * 64 is an
    EXACT float64 round-trip (integer sum divided by a power of two),
    keeping the int64 output contract."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def make_payload(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        return pa.table({
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array([encode_linear_image(i, 16 + (i % 16), 16)
                                 for i in ids], type=pa.binary()),
        })

    media = ds.map_batches(make_payload, batch_format="pyarrow", batch_size=256)
    resized = resize_images(media, 8, 8)
    out = _collect(resized.map_batches(
        lambda t: t.select(["media_id", "width", "height",
                            "mean_intensity"]),
        batch_format="pyarrow")).to_pandas()
    # BINDING invariants: one row per input image, all resized to 8x8
    n_in = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    if not (len(out) == n_in and (out["width"] == 8).all()
            and (out["height"] == 8).all()):
        raise AssertionError(
            f"multimodal_resize: {len(out)} rows (want {n_in}) or "
            "wrong output dims")
    return pd.DataFrame({
        "media_id": out["media_id"].astype("int64"),
        "width": out["width"].astype("int64"),
        "height": out["height"].astype("int64"),
        "pixel_sum": np.rint(out["mean_intensity"].to_numpy()
                             * 64).astype(np.int64),
    })


def q_video_frame_sample(sf_dir: str):
    """Video frame-sampling stage over deterministic containers.

    Oracle-checked since r5: containers use the affine byte formula
    (ops/multimodal.py:encode_linear_video), so DuckDB reproduces the
    sampled frame numbers AND each frame's byte sum.  frame_sum =
    frame_mean * 256 is an exact float64 round-trip (integer sum over
    a power-of-two frame size)."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def make_payload(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        return pa.table({
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(
                [encode_linear_video(i, 8 + (i % 8), 256) for i in ids],
                type=pa.binary()),
        })

    media = ds.map_batches(make_payload, batch_format="pyarrow", batch_size=128)
    out = _collect(sample_video_frames(media, stride=4)).to_pandas()
    # BINDING closed-form invariants (fake container is id-derived):
    # media i has 8 + i % 8 frames, stride 4 => ceil(n/4) sampled rows
    # at frame numbers 0, 4, 8, ...
    per = out.groupby("media_id")["frame_no"].agg(["count", "max"])
    ids = per.index.to_numpy(np.int64)
    nf = 8 + ids % 8
    want_cnt = -(-nf // 4)
    if not ((per["count"].to_numpy(np.int64) == want_cnt).all()
            and (per["max"].to_numpy(np.int64) == 4 * (want_cnt - 1)).all()):
        raise AssertionError(
            "video_frame_sample: sampled frame counts/positions "
            "diverge from the id-derived container layout")
    return pd.DataFrame({
        "media_id": out["media_id"].astype("int64"),
        "frame_no": out["frame_no"].astype("int64"),
        "frame_sum": np.rint(out["frame_mean"].to_numpy()
                             * 256).astype(np.int64),
    })


def q_multiline_join(sf_dir: str):
    """Logstash multiline join (openstack-filters.conf:12-23) as a
    distributed operator: every 4th document line is a continuation (no
    timestamp prefix); fold it into its anchor event.  One coarse
    bucketed shuffle on hash(file), then a segment-local vectorized join
    (stages/grok.py:multiline_join)."""
    from ci_log_processing_ray.stages.grok import multiline_join

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def mk(t: pa.Table) -> pa.Table:
        did = t["doc_id"].combine_chunks()
        text = t["text"].combine_chunks()
        cont = pc.equal(pc.bit_wise_and(did, 3), 1)
        anchored = pc.binary_join_element_wise(
            pa.array(["2024-01-05 10:00:00.000000 |"] * len(t)), text, " ")
        return pa.table({
            "source": t["source"].combine_chunks(),
            "doc_id": did,
            "line": pc.if_else(cont, text, anchored),
        })

    lines = ds.map_batches(mk, batch_format="pyarrow")
    return multiline_join(lines, file_col="source", order_col="doc_id",
                          line_col="line", family="console")


def q_grok_fields(sf_dir: str):
    """Grok structured-field extraction (openstack-filters.conf:44-77):
    documents rendered as oslofmt/libvirt/syslog lines, parsed back via
    the per-family grok kernels.  The oracle CONSTRUCTS the expected
    fields from the same arithmetic, so a regex defect shows up as a
    value mismatch."""
    from ci_log_processing_ray.stages.grok import extract_grok_fields

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    sev_up = pa.array(["INFO", "ERROR", "WARNING", "TRACE", "CRITICAL"])
    sev_lo = pa.array(["info", "error", "warning", "debug", "critical"])

    def fn(t: pa.Table) -> pa.Table:
        did = t["doc_id"].combine_chunks()
        n = len(t)
        fam = pc.cast(_pc_mod(did, 3), pa.int64())
        pidn = pc.add(pc.cast(_pc_mod(did, 900), pa.int64()), 100)
        pid_s = pc.cast(pidn, pa.string())
        did_s = pc.cast(did, pa.string())
        msg = pc.binary_join_element_wise(
            pa.array(["event"] * n), did_s, " ")
        sev_u = sev_up.take(_pc_mod(did, 5))
        sev_l = sev_lo.take(_pc_mod(did, 5))
        module = pc.binary_join_element_wise(
            pa.array(["nova."] * n), t["lang"].combine_chunks(), "")
        host = pc.binary_join_element_wise(
            pa.array(["node-"] * n), pc.cast(_pc_mod(did, 50), pa.string()), "")
        prog = pc.binary_join_element_wise(
            pa.array(["svc"] * n), pc.cast(_pc_mod(did, 9), pa.string()), "")
        oslo = pc.binary_join_element_wise(
            pa.array(["2024-03-05 12:00:00.123456"] * n),
            pid_s, sev_u, module, msg, " ")
        libv = pc.binary_join_element_wise(
            pa.array(["2024-03-15 12:00:00.123+0000:"] * n),
            pc.binary_join_element_wise(pid_s, "", ":"),
            sev_l, pc.binary_join_element_wise(pa.array([":"] * n), msg, " "),
            " ")
        syslog = pc.binary_join_element_wise(
            pa.array(["Mar 15 12:00:00"] * n), host,
            pc.binary_join_element_wise(
                prog, pc.binary_join_element_wise(
                    pa.array(["["] * n), pid_s, pa.array(["]:"] * n), ""),
                ""),
            msg, " ")
        line = pc.if_else(pc.equal(fam, 0), oslo,
                          pc.if_else(pc.equal(fam, 1), libv, syslog))
        fam_np = fam.to_numpy(zero_copy_only=False)
        out = {name: pa.nulls(n, pa.string())
               for name in ("pid", "loglevel", "module", "syslog_program",
                            "syslog_pid", "syslog_host")}
        for code, family in ((0, "oslofmt"), (1, "libvirt"), (2, "syslog")):
            m = fam_np == code
            if not m.any():
                continue
            mask = pa.array(m)
            sub = extract_grok_fields(line.filter(mask), family)
            for name in out:
                if sub[name].null_count < len(sub[name]):
                    out[name] = pc.replace_with_mask(out[name], mask, sub[name])
        return pa.table({"doc_id": did, **out})

    return ds.map_batches(fn, batch_format="pyarrow")


def q_apache_fields(sf_dir: str):
    """apachecombined grok family (openstack-filters.conf:51-56):
    documents rendered as %{COMBINEDAPACHELOG} access-log lines, parsed
    back via the apachecombined grok kernel -- logdate = timestamp,
    logmessage composed as "verb request response" (conf add_field).
    Every 11th line carries a rawrequest-style quoted section (no verb)
    to exercise the alternation; every 13th sends '-' for bytes.  The
    oracle reconstructs the expected fields from the same arithmetic,
    so a regex defect shows as a value mismatch."""
    from ci_log_processing_ray.stages.grok import extract_grok_fields

    ds = _read(sf_dir, "documents", ["doc_id"])
    verbs = pa.array(["GET", "POST", "PUT", "DELETE", "HEAD"])

    def fn(t: pa.Table) -> pa.Table:
        did = t["doc_id"].combine_chunks()
        n = len(t)
        did_s = pc.cast(did, pa.string())
        ip = pc.binary_join_element_wise(
            pa.array(["10."] * n), pc.cast(_pc_mod(did, 200), pa.string()),
            pa.array([".0.1"] * n), "")
        verb = verbs.take(_pc_mod(did, 5))
        req = pc.binary_join_element_wise(
            pa.array(["/api/v"] * n), pc.cast(_pc_mod(did, 3), pa.string()),
            pa.array(["/r/"] * n), did_s, "")
        ver = pc.if_else(pc.equal(_pc_mod(did, 2), 0),
                         pa.array([" HTTP/1.1"] * n), pa.array([""] * n))
        quoted = pc.if_else(
            pc.equal(_pc_mod(did, 11), 0),
            pa.array(['"ping"'] * n),
            pc.binary_join_element_wise(
                pa.array(['"'] * n), verb, pa.array([" "] * n), req, ver,
                pa.array(['"'] * n), ""))
        resp = pc.cast(pc.add(pc.multiply(_pc_mod(did, 4), 100), 200),
                       pa.string())
        nbytes = pc.if_else(pc.equal(_pc_mod(did, 13), 0),
                            pa.array(["-"] * n),
                            pc.cast(_pc_mod(did, 5000), pa.string()))
        agent = pc.binary_join_element_wise(
            pa.array(['"curl/8.'] * n), pc.cast(_pc_mod(did, 10), pa.string()),
            pa.array(['"'] * n), "")
        line = pc.binary_join_element_wise(
            ip, pa.array(["- - [15/Mar/2024:12:00:00 +0000]"] * n),
            quoted, resp, nbytes, pa.array(['"-"'] * n), agent, " ")
        out = extract_grok_fields(line, "apachecombined")
        return pa.table({
            "doc_id": did,
            "logdate": out["logdate"],
            "verb": out["verb"],
            "request": out["request"],
            "response": out["response"],
            "n_bytes": out["bytes"],
            "logmessage": out["logmessage"],
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def q_logdate_normalize(sf_dir: str):
    """Logstash date-block normalization (openstack-filters.conf:86-102):
    each doc renders its deterministic timestamp components in one of
    the 13 Joda formats (keyed by doc_id % 13), and normalize_logdate
    parses them back -- zoned formats convert to UTC.  The oracle
    reconstructs the expected instant from the same component
    arithmetic (make_timestamp + offset shifts), so both the format
    table and the TZ handling are value-checked."""
    from ci_log_processing_ray.functions.timestamps import normalize_logdate

    ds = _read(sf_dir, "documents", ["doc_id"])
    months = pa.array(["Jan", "Feb", "Mar", "Apr", "May", "Jun",
                       "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"])

    def pad2(arr):
        return pc.utf8_lpad(pc.cast(arr, pa.string()), 2, "0")

    def fn(t: pa.Table) -> pa.Table:
        did = t["doc_id"].combine_chunks()
        n = len(t)
        f = pc.cast(_pc_mod(did, 13), pa.int64())
        mo = pc.add(_pc_mod(did, 12), 1)
        day1 = pc.add(_pc_mod(did, 9), 1)     # 1..9  (MMM  d)
        day2 = pc.add(_pc_mod(did, 19), 10)   # 10..28
        hh, mi = _pc_mod(did, 24), _pc_mod(did, 60)
        ss = _pc_mod(pc.multiply(did, 7), 60)
        ms = _pc_mod(did, 1000)
        us_ = _pc_mod(did, 1000000)
        ymd = pc.binary_join_element_wise(
            pa.array(["2024"] * n), pad2(mo), pad2(day2), "-")
        hms = pc.binary_join_element_wise(pad2(hh), pad2(mi), pad2(ss), ":")
        ms_s = pc.utf8_lpad(pc.cast(ms, pa.string()), 3, "0")
        us_s = pc.utf8_lpad(pc.cast(us_, pa.string()), 6, "0")
        mon_name = months.take(_pc_mod(did, 12))
        sp = pc.binary_join_element_wise(ymd, hms, " ")
        forms = [
            pc.binary_join_element_wise(sp, ms_s, "."),               # 0 .SSS
            pc.binary_join_element_wise(sp, us_s, "."),               # 1 .SSSSSS
            pc.binary_join_element_wise(sp, ms_s, ","),               # 2 ,SSS
            sp,                                                       # 3 plain
            pc.binary_join_element_wise(                              # 4 MMM  d
                mon_name, pa.array([" "] * n),
                pc.cast(day1, pa.string()), pa.array([" "] * n), hms, ""),
            pc.binary_join_element_wise(mon_name, pad2(day2), hms, " "),  # 5
            pc.binary_join_element_wise(                              # 6 + .SSSSSS
                mon_name, pad2(day2),
                pc.binary_join_element_wise(hms, us_s, "."), " "),
            pc.binary_join_element_wise(                              # 7 HTTPDATE
                pad2(day2), pa.array(["/"] * n), mon_name,
                pa.array(["/2024:"] * n), hms, pa.array([" -0700"] * n), ""),
            pc.binary_join_element_wise(                              # 8 .SSSZ
                pc.binary_join_element_wise(sp, ms_s, "."),
                pa.array(["+0530"] * n), ""),
            pc.binary_join_element_wise(                              # 9 E..yyyy Z
                pa.array(["Mon"] * n), mon_name, pad2(day2), hms,
                pa.array(["2024 +0000"] * n), " "),
            pc.binary_join_element_wise(                              # 10 E..yyyy
                pa.array(["Mon"] * n), mon_name, pad2(day2), hms,
                pa.array(["2024"] * n), " "),
            pc.binary_join_element_wise(                              # 11 ISO Z
                ymd, pa.array(["T"] * n),
                pc.binary_join_element_wise(hms, us_s, "."),
                pa.array(["Z"] * n), ""),
            pc.binary_join_element_wise(                              # 12 ISO +02:00
                ymd, pa.array(["T"] * n), hms, pa.array(["+02:00"] * n), ""),
        ]
        rendered = forms[0]
        for code in range(1, 13):
            rendered = pc.if_else(pc.equal(f, code), forms[code], rendered)
        ts = normalize_logdate(rendered, 2024)
        return pa.table({"doc_id": did, "ts": ts})

    return ds.map_batches(fn, batch_format="pyarrow")


def _pc_mod(arr, k: int):
    """Arrow modulo for non-negative int64 (no pc.mod kernel)."""
    return pc.subtract(arr, pc.multiply(
        pc.cast(pc.floor(pc.divide(pc.cast(arr, pa.float64()), k)), pa.int64()),
        k))


def q_flagship_counts(sf_dir: str):
    """The flagship log pipeline itself (rows-only: per-sink counts over
    the deterministic token-sequence corpus derived from this sf)."""
    n_docs = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    spec = CorpusSpec(n_builds=max(8, min(48, n_docs // 40)),
                      lines_per_file=40, seed=1234, n_shards=4,
                      hot_build_factor=4)
    corpus_dir = f"/tmp/ci_log_corpus_q_{spec.n_builds}_{spec.seed}"
    marker = os.path.join(corpus_dir, ".done")
    if not os.path.exists(marker):
        generate_corpus(corpus_dir, spec)
        with open(marker, "w") as f:
            f.write("ok")
    import glob
    import shutil

    shards = sorted(glob.glob(os.path.join(corpus_dir, "token_sequences", "*.parquet")))
    out_dir = f"/tmp/ci_log_q_out_{spec.n_builds}"
    shutil.rmtree(out_dir, ignore_errors=True)
    res = run_pipeline(shards, os.path.join(corpus_dir, "build_meta.parquet"),
                       out_dir, PipelineConfig(skip_debug=True))
    counts = res.counts.to_pandas()
    # BINDING lineage-accounting gate: the per-sink aggregate counts
    # must equal the rows PHYSICALLY WRITTEN to the routed parquet --
    # the logsender conformance contract (per-index doc counts == sunk
    # docs).  A writer/count divergence raises.
    written = sum(
        pq.read_metadata(os.path.join(root, f)).num_rows
        for root, _dirs, files in os.walk(res.routed_dir)
        for f in files if f.endswith(".parquet"))
    claimed = int(counts["doc_count"].sum())
    if written != claimed:
        raise AssertionError(
            f"flagship_counts: {claimed} counted docs vs {written} "
            f"rows written under {res.routed_dir}")
    return counts


def q_autocorr(sf_dir: str):
    """Per-user lag-1 autocorrelation of event values in exact permille
    (ops/window.py:autocorr_by_group): serial-dependence feature over
    each user's (ts, event_id)-ordered cents series -- one coarse
    bucketed exchange, masked-reduceat sufficient statistics, exact
    Python-int num/den assembly (n^2 * sum(x_t * x_{t+1}) overflows
    int64 on long series; the DuckDB oracle runs the same formula in
    HUGEINT)."""
    from ci_log_processing_ray.ops.window import autocorr_by_group

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"].combine_chunks(),
            "ts": t["ts"].combine_chunks(),
            "event_id": t["event_id"].combine_chunks(),
            "cents": _cents(t["value"])})

    return autocorr_by_group(
        ds.map_batches(to_cents, batch_format="pyarrow",
                       zero_copy_batch=True),
        "user_id", ["ts", "event_id"], "cents", lag=1)


def q_hhi(sf_dir: str):
    """Per-user Herfindahl-Hirschman event-type concentration in exact
    permille (ops/groupagg.py:hhi_by_group): the is-this-entity's-mix-
    single-typed audit; corpus-shaped groups, so per-block partial
    counts + one coarse bucketed exchange (never the native
    per-distinct-group merge)."""
    from ci_log_processing_ray.ops.groupagg import hhi_by_group

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    return hhi_by_group(ds, "user_id", "event_type")


def q_benford(sf_dir: str):
    """Benford first-digit audit (ops/profile.py:benford_deviation)
    over lineitem extended-price cents -- the fabricated-data /
    unit-mixup detector; per-block Arrow leading-digit counts, one
    9-key vocabulary groupby, fixed integer Benford constants shared
    verbatim with the oracle."""
    from ci_log_processing_ray.ops.profile import benford_deviation

    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({"x": _cents(t["l_extendedprice"])})

    return benford_deviation(
        ds.map_batches(cents, batch_format="pyarrow",
                       zero_copy_batch=True), "x")


def q_fano(sf_dir: str):
    """Per-user burstiness (ops/groupagg.py:fano_by_group): exact
    permille Fano factor of daily event counts over observed days --
    corpus-shaped groups, per-block (user, day, cnt) partials + one
    coarse bucketed exchange."""
    from ci_log_processing_ray.ops.groupagg import fano_by_group

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def day(t: pa.Table) -> pa.Table:
        us = t["ts"].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "user_id": t["user_id"].combine_chunks(),
            "day": pa.array(us // 86_400_000_000)})

    return fano_by_group(
        ds.map_batches(day, batch_format="pyarrow",
                       zero_copy_batch=True), "user_id", "day")


def q_gini_value(sf_dir: str):
    """Per-event-type Gini COEFFICIENT of value cents in exact permille
    (ops/quantile.py:gini_coefficient_by_group): inequality of the
    continuous magnitude (the dual of the categorical hhi/gini pair).
    The corpus collapses to per-(group, distinct cents) count partials
    -- value-DOMAIN-bounded -- and the rank-run identity folds in exact
    Python ints, wrap-safe at any row count."""
    from ci_log_processing_ray.ops.quantile import (
        gini_coefficient_by_group)

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"].combine_chunks(),
            "cents": _cents(t["value"])})

    return gini_coefficient_by_group(
        ds.map_batches(cents, batch_format="pyarrow",
                       zero_copy_batch=True), "event_type", "cents")


def q_lag_gap(sf_dir: str):
    """lag()-style window: microseconds since the previous event of the
    same user (sentinel -1 for each user's first event).  One coarse
    bucketed shuffle, whole-bucket vectorized diff."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    return lag_diff_by_group(ds, "user_id", "ts", "event_id",
                             tiebreak_col="event_id")


def q_explode_embeddings(sf_dir: str):
    """UNNEST WITH ORDINALITY: one row per embedding component, 1-based
    position, value scaled to int 1e-4 units for hash-exact compare.
    No shuffle -- pure offset arithmetic per block."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    ex = explode_list(ds, "embedding", ["vec_id"], pos_col="pos",
                      out_col="val")

    def fn(t: pa.Table) -> pa.Table:
        v = pc.cast(t["val"].combine_chunks(), pa.float64())
        val_e4 = pc.cast(pc.floor(pc.add(pc.multiply(v, 10000.0), 0.5)),
                         pa.int64())
        return pa.table({"vec_id": t["vec_id"], "pos": t["pos"],
                         "val_e4": val_e4})

    return ex.map_batches(fn, batch_format="pyarrow")


def q_quantile_qty(sf_dir: str):
    """Exact distributed percentile_disc per group: (group, value) ->
    count partials shuffle (distinct pairs only, never rows), final
    rank pick at ceil(q*n)."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def to_int(t: pa.Table) -> pa.Table:
        qty = pc.cast(pc.floor(pc.add(t["l_quantity"].combine_chunks(), 0.5)),
                      pa.int64())
        return pa.table({"l_returnflag": t["l_returnflag"], "qty": qty})

    ints = ds.map_batches(to_int, batch_format="pyarrow")
    return quantile_disc_by_group(
        ints, "l_returnflag", "qty",
        {"q25": 0.25, "q50": 0.5, "q90": 0.9})


def q_repetition_score(sf_dir: str):
    """Gopher-style within-doc repetition: duplicate word-bigram
    percentage per document (all-integer outputs)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return repetition_score(ds, "text", "doc_id")


def q_running_total(sf_dir: str):
    """sum() OVER (PARTITION BY ... ROWS UNBOUNDED PRECEDING): per-user
    cumulative cents, whole-bucket vectorized cumsum."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t["event_id"], "user_id": t["user_id"],
                         "ts": t["ts"], "cents": _cents(t["value"])})

    cents = ds.map_batches(to_cents, batch_format="pyarrow")
    return running_total_by_group(
        cents, "user_id", ["ts", "event_id"], "cents", "event_id",
        out_col="running_cents")


def q_rank_orders(sf_dir: str):
    """rank() + dense_rank() per customer over order value (ranked on
    the cents-converted value so tie structure is identical in both
    engines)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_custkey": t["o_custkey"],
                         "cents": _cents(t["o_totalprice"])})

    ranked = rank_by_group(ds.map_batches(to_cents, batch_format="pyarrow"),
                           "o_custkey", "cents", "o_orderkey",
                           descending=True)
    return ranked.map_batches(
        lambda t: t.rename_columns(
            [{"rank": "rnk", "dense_rank": "dense_rnk"}.get(c, c)
             for c in t.column_names]),
        batch_format="pyarrow")


def q_quantile_cont_qty(sf_dir: str):
    """Exact interpolated percentile_cont per group at dyadic quantiles
    (bit-exact vs the SQL oracle for integer values)."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def to_int(t: pa.Table) -> pa.Table:
        qty = pc.cast(pc.floor(pc.add(t["l_quantity"].combine_chunks(), 0.5)),
                      pa.int64())
        return pa.table({"l_returnflag": t["l_returnflag"], "qty": qty})

    ints = ds.map_batches(to_int, batch_format="pyarrow")
    return quantile_cont_by_group(
        ints, "l_returnflag", "qty",
        {"q25c": 0.25, "q50c": 0.5, "q75c": 0.75})


def q_word_topk(sf_dir: str):
    """Exact corpus word-count top-20 (vocabulary-sized shuffle)."""
    ds = _read(sf_dir, "documents", ["text"])
    return word_topk(ds, "text", 20)


def q_left_outer_join(sf_dir: str):
    """LEFT OUTER JOIN with aggregate pushdown: orders pre-aggregated
    per customer (tiny partial+final), then a left-outer hash join
    against the customer dim; unmatched customers fill 0."""
    from ray.data.aggregate import Count

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({"o_custkey": t["o_custkey"].combine_chunks(),
                       "n_orders": pa.array(np.ones(len(t), dtype=np.int64)),
                       "total_cents": _cents(t["o_totalprice"])})
        g = tt.group_by("o_custkey").aggregate(
            [("n_orders", "sum"), ("total_cents", "sum")])
        return pa.table({"o_custkey": g["o_custkey"],
                         "n_orders": g["n_orders_sum"],
                         "total_cents": g["total_cents_sum"]})

    agg = orders.map_batches(partial, batch_format="pyarrow").groupby(
        "o_custkey").aggregate(Sum("n_orders", alias_name="n_orders"),
                               Sum("total_cents", alias_name="total_cents"))
    cust = _read(sf_dir, "customer", ["c_custkey"])
    joined = cust.join(agg, "left_outer",
                       num_partitions=_join_partitions(
                           sf_dir, "customer"),
                       on=("c_custkey",), right_on=("o_custkey",))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": t["c_custkey"],
            "n_orders": pc.fill_null(
                pc.cast(t["n_orders"].combine_chunks(), pa.int64()), 0),
            "total_cents": pc.fill_null(
                pc.cast(t["total_cents"].combine_chunks(), pa.int64()), 0),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def q_string_agg(sf_dir: str):
    """string_agg(text, '|' ORDER BY doc_id) per source."""
    from ci_log_processing_ray.ops.groupagg import string_agg_by_group

    ds = _read(sf_dir, "documents", ["source", "doc_id", "text"])
    return string_agg_by_group(ds, "source", "text", "doc_id",
                               sep="|", out_col="texts")


def q_mode_event(sf_dir: str):
    """Per-user most frequent event type (mode), deterministic ties:
    (group,value)-count partials shuffle, vectorized argmax pick."""
    from ci_log_processing_ray.ops.groupagg import mode_by_group

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    return mode_by_group(ds, "user_id", "event_type", out_col="mode_type")


def q_value_histogram(sf_dir: str):
    """Fixed-width histogram of event values (bin = floor(value/20)):
    per-batch binned count partials, tiny global groupby."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["value"])

    def partial(t: pa.Table) -> pa.Table:
        b = pc.cast(pc.floor(pc.divide(
            t["value"].combine_chunks(), 20.0)), pa.int64())
        tt = pa.table({"bin": b,
                       "n": pa.array(np.ones(len(t), dtype=np.int64))})
        g = tt.group_by("bin").aggregate([("n", "sum")])
        return pa.table({"bin": g["bin"], "n": g["n_sum"]})

    return ds.map_batches(partial, batch_format="pyarrow").groupby(
        "bin").aggregate(Sum("n", alias_name="n"))


def q_pack_sequences(sf_dir: str):
    """GPT-style sequence packing: global token offset per document
    (distributed two-pass prefix sum, range-bucketed -- no global
    sort), fixed 2048-token window assignment."""
    from ci_log_processing_ray.ops.pack import pack_fixed_windows

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return pack_fixed_windows(ds, "doc_id", "n_chars", 2048)


def q_interval_lookup(sf_dir: str):
    """Broadcast small-side RANGE join (the IP-geolocation pattern):
    25 value intervals derived from the nation dim, shipped once via
    ray.put; each batch resolves membership with two searchsorted
    probes -- no shuffle, no per-row Python."""
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    nk = nation["n_nationkey"].to_numpy().astype(np.int64)
    order = np.argsort(nk)
    lows = (nk * 20 + 3).astype(np.float64)[order]
    highs = (nk * 20 + 15).astype(np.float64)[order]
    names = nation["n_name"].take(pa.array(order)).combine_chunks()
    state_ref = ray.put((lows, highs, names))

    class Lookup:
        def __init__(self, state_ref):
            self.lows, self.highs, self.names = ray.get(state_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            v = t["value"].combine_chunks().to_numpy()
            idx = np.searchsorted(self.lows, v, side="right") - 1
            safe = np.maximum(idx, 0)
            hit = (idx >= 0) & (v < self.highs[safe])
            zone = pc.if_else(pa.array(hit),
                              self.names.take(pa.array(safe)),
                              pa.scalar("NONE", pa.string()))
            return pa.table({"event_id": t["event_id"], "zone": zone})

    ds = _read(sf_dir, "events", ["event_id", "value"])
    return ds.map_batches(Lookup, fn_constructor_args=(state_ref,),
                          batch_format="pyarrow", concurrency=(1, 4))


def q_label_centroids(sf_dir: str):
    """Per-label embedding centroid (the k-means update step), exact:
    components quantized to int 1e-4 units, per-(label, dim) integer
    sums + counts, floor-divided mean.  Composes the explode operator
    with a partial+final aggregate; the shuffle carries
    (label, dim, sum, n) partials -- dims x labels rows per block."""
    ds = _read(sf_dir, "embeddings", ["label", "embedding"])
    ex = explode_list(ds, "embedding", ["label"], pos_col="pos",
                      out_col="val")

    def partial(t: pa.Table) -> pa.Table:
        e4 = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(t["val"].combine_chunks(), pa.float64()), 10000.0), 0.5)),
            pa.int64())
        tt = pa.table({"label": pc.cast(t["label"].combine_chunks(),
                                        pa.int64()),
                       "pos": t["pos"],
                       "s": e4,
                       "n": pa.array(np.ones(len(t), dtype=np.int64))})
        g = tt.group_by(["label", "pos"]).aggregate(
            [("s", "sum"), ("n", "sum")])
        return pa.table({"label": g["label"], "pos": g["pos"],
                         "s": g["s_sum"], "n": g["n_sum"]})

    agg = ex.map_batches(partial, batch_format="pyarrow").groupby(
        ["label", "pos"]).aggregate(Sum("s", alias_name="s"),
                                    Sum("n", alias_name="n"))

    def finish(t: pa.Table) -> pa.Table:
        s = t["s"].combine_chunks().to_numpy()
        n = t["n"].combine_chunks().to_numpy()
        return pa.table({"label": t["label"], "pos": t["pos"],
                         "centroid_e4": pa.array(s // n)})  # floor division

    return agg.map_batches(finish, batch_format="pyarrow")


def q_corpus_curation(sf_dir: str):
    """C4-style curation composite: quality filter (integer heuristics)
    -> exact dedup within source -> per-source doc and word counts.
    One (source, text) dedup shuffle + a tiny per-source aggregate."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def qfilter(t: pa.Table) -> pa.Table:
        col = t["text"].combine_chunks()
        lower = pc.utf8_lower(col)
        n_words = pc.cast(pc.count_substring_regex(col, pattern=WORD_RE),
                          pa.int64())
        n_stop = pc.cast(pc.count_substring_regex(
            lower, pattern=STOPWORD_RE), pa.int64())
        n_punct = pc.cast(pc.count_substring_regex(
            col, pattern=r"[^\w\s]"), pa.int64())
        n_chars = pc.cast(pc.utf8_length(col), pa.int64())
        one = pa.scalar(1, pa.int64())
        stop_pct = pc.divide(pc.multiply(n_stop, pa.scalar(100, pa.int64())),
                             pc.max_element_wise(n_words, one))
        punct_pct = pc.divide(pc.multiply(n_punct, pa.scalar(100, pa.int64())),
                              pc.max_element_wise(n_chars, one))
        keep = pc.and_(
            pc.and_(pc.greater_equal(n_words, pa.scalar(10, pa.int64())),
                    pc.less_equal(stop_pct, pa.scalar(60, pa.int64()))),
            pc.less_equal(punct_pct, pa.scalar(20, pa.int64())))
        tt = pa.table({"source": t["source"], "text": col,
                       "n_words": n_words})
        return tt.filter(keep)

    kept = ds.map_batches(qfilter, batch_format="pyarrow",
                          zero_copy_batch=True)

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({"source": t["source"].combine_chunks(),
                       "n_docs": pa.array(np.ones(len(t), dtype=np.int64)),
                       "total_words": t["n_words"].combine_chunks()})
        g = tt.group_by("source").aggregate(
            [("n_docs", "sum"), ("total_words", "sum")])
        return pa.table({"source": g["source"], "n_docs": g["n_docs_sum"],
                         "total_words": g["total_words_sum"]})

    return kept.groupby(["source", "text"]).aggregate(
        Min("n_words", alias_name="n_words")).map_batches(
        partial, batch_format="pyarrow").groupby("source").aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("total_words", alias_name="total_words"))


def q_duplicate_spans(sf_dir: str):
    """Cross-document duplicate 5-gram spans (exact substring-dedup
    building block): grams appearing in >= 2 distinct documents with
    their document frequency."""
    from ci_log_processing_ray.ops.dedup import duplicate_spans

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return duplicate_spans(ds, "text", "doc_id", n=5)


def q_heavy_hitters(sf_dir: str):
    """Misra-Gries frequent users over the event stream: fixed-size
    mergeable counter partials.  Approximate by design (underestimates
    by <= n/(k+1) per summarize pass) -- rows-only, but with a BINDING
    in-query guarantee gate (_cert_heavy_hitters): every estimate is
    re-checked against the exact count (never overestimates, misses by
    at most 2n/(k+1)); violations raise."""
    from ci_log_processing_ray.ops.sketch import heavy_hitters

    ds = _read(sf_dir, "events", ["user_id"])
    out = heavy_hitters(ds, "user_id", k=32).head(10)
    uid = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                        columns=["user_id"])["user_id"]
    vc = uid.combine_chunks().value_counts()
    true = dict(zip(vc.field("values").to_pylist(),
                    vc.field("counts").to_pylist()))
    _cert_heavy_hitters(out, true, len(uid), k=32)
    return out


def q_heavy_hitters_exact(sf_dir: str):
    """EXACT heavy hitters (freq >= n/125 users) via the sketch-for-
    candidates pattern: Misra-Gries pass 1 (k=256 counters, provable
    candidate superset since k+1 > 125), broadcast exact-verify pass 2.
    Unlike q_heavy_hitters this is bit-exact -- binding DuckDB oracle --
    while still never shuffling more than k counters per block."""
    from ci_log_processing_ray.ops.sketch import heavy_hitters_exact

    ds = _read(sf_dir, "events", ["user_id"])
    out = heavy_hitters_exact(ds, "user_id", share_den=125, k=256)
    return out.rename(columns={"item": "user_id"})


def q_count_min(sf_dir: str):
    """Count-min sketch point-frequency estimates for every distinct
    user (ops/sketch.py:count_min_estimates): depth x width mergeable
    counter partials, depth*width-row exchange regardless of corpus
    size.  Oracle-checked since r5: row j's hash is seeded FNV-1a +
    fmix64 (SQL-reproducible), so _COUNT_MIN_ORACLE rebuilds the
    whole counter table and the min-over-rows point estimates in
    DuckDB.  The BINDING count-min contract gate stays in-query:
    every estimate >= the exact count (the one-sided guarantee is
    deterministic), and overshoot stays under 3n/width; violations
    raise."""
    from ci_log_processing_ray.ops.sketch import count_min_estimates

    ds = _read(sf_dir, "events", ["user_id"])
    uid = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                        columns=["user_id"])["user_id"]
    vc = uid.combine_chunks().value_counts()
    true = dict(zip(vc.field("values").to_pylist(),
                    vc.field("counts").to_pylist()))
    items = sorted(true)
    out = count_min_estimates(ds, "user_id", items, depth=4, width=1024,
                              hash="fnv")
    bound = max(1, 3 * len(uid) // 1024)
    for item, est in zip(out["item"], out["est_count"]):
        t = int(true[item])
        if est < t:
            raise AssertionError(
                f"count_min: {item!r} underestimated ({est} < {t}) -- "
                f"the one-sided guarantee is broken")
        if est - t > bound:
            raise AssertionError(
                f"count_min: {item!r} overshoots by {est - t} "
                f"(> {bound})")
    return out


def q_chunk_text(sf_dir: str):
    """Overlapping fixed-window chunking (RAG / context-window prep):
    50-word chunks, stride 40.  Pure map; reassembly is one take +
    binary_join per batch (ops/curation.py)."""
    from ci_log_processing_ray.ops.curation import chunk_text

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return chunk_text(ds, "text", "doc_id", chunk_size=50, stride=40)


def q_decontaminate(sf_dir: str):
    """Train/eval benchmark decontamination: docs with doc_id % 97 == 0
    act as the held-out eval set; every other doc reports how many of
    its distinct 5-grams leak from the eval set.  Eval grams broadcast
    once; the train scan is a pure map."""
    from ci_log_processing_ray.ops.curation import decontaminate

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def split(is_eval: bool):
        def f(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].combine_chunks().to_numpy()
            mask = (ids % 97 == 0) if is_eval else (ids % 97 != 0)
            return t.filter(pa.array(mask))
        return f

    train = ds.map_batches(split(False), batch_format="pyarrow",
                           zero_copy_batch=True)
    ev = ds.map_batches(split(True), batch_format="pyarrow",
                        zero_copy_batch=True)
    return decontaminate(train, ev, "text", "doc_id", n=5)


def q_vocab_coverage(sf_dir: str):
    """Vocabulary build + OOV rate: top-8 corpus words become the
    vocab (wordcount shuffle), then per-source token and OOV counts
    (broadcast vocab, one-pass partials)."""
    from ci_log_processing_ray.ops.curation import vocab_coverage

    ds = _read(sf_dir, "documents", ["source", "text"])
    return vocab_coverage(ds, "text", "source", vocab_size=8)


def q_strip_stopwords(sf_dir: str):
    """Stopword-strip normalization: lowercase, tokenize, drop
    {'a','the'}, re-join single-spaced; per-doc kept/dropped counts."""
    from ci_log_processing_ray.ops.curation import strip_stopwords

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return strip_stopwords(ds, "text", "doc_id", ("a", "the"))


def q_redact(sf_dir: str):
    """PII-style scrubbing (emails, IPv4, long digit runs -> tokens),
    RE2 kernels in rule order; per-doc redaction counts."""
    from ci_log_processing_ray.ops.curation import redact_text

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return redact_text(ds, "text", "doc_id")


def q_ntile(sf_dir: str):
    """SQL ntile(4) per order-priority partition ordered by
    (o_totalprice, o_orderkey) -- unique tie-break, so deterministic.
    Whole-bucket vectorized segment arithmetic (ops/window.py)."""
    from ci_log_processing_ray.ops.window import ntile_by_group

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_orderpriority", "o_totalprice"])
    return ntile_by_group(ds, "o_orderpriority",
                          ["o_totalprice", "o_orderkey"], "o_orderkey", 4)


def q_rollup(sf_dir: str):
    """GROUP BY ROLLUP(source, lang): one distributed aggregate at the
    finest level, coarser levels re-aggregated from that driver-sized
    frame (ops/groupagg.py)."""
    from ci_log_processing_ray.ops.groupagg import rollup_counts

    ds = _read(sf_dir, "documents", ["source", "lang", "n_chars"])
    return rollup_counts(ds, ["source", "lang"], "n_docs",
                         sum_col="n_chars", sum_name="total_chars")


def q_last_event(sf_dir: str):
    """Latest event per user (CDC / upsert compaction): mergeable
    argmax partials by (ts, event_id) desc, exchange bounded by
    distinct users per block (ops/groupagg.py)."""
    from ci_log_processing_ray.ops.groupagg import last_by_group

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])
    return last_by_group(ds, "user_id", ["ts", "event_id"],
                         ["event_type"])


def q_intersect_except(sf_dir: str):
    """Set ops INTERSECT / EXCEPT on (user, day) activity: user-days
    with both a purchase and a click but no error.  One pass of
    distinct (key, value) partials + a presence pivot
    (ops/groupagg.py)."""
    from ci_log_processing_ray.ops.groupagg import presence_set_op

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def add_day(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "day": pc.floor_temporal(t["ts"].combine_chunks(), unit="day"),
            "event_type": t["event_type"],
        })

    keyed = ds.map_batches(add_day, batch_format="pyarrow",
                           zero_copy_batch=True)
    return presence_set_op(keyed, ["user_id", "day"], "event_type",
                           include=("purchase", "click"),
                           exclude=("error",))


def q_bloom_semi_join(sf_dir: str):
    """Bloom-prefiltered EXACT semi join: BUILDING-segment customer
    keys build a broadcast bit array, the orders scan drops non-matches
    before the join shuffle, and the surviving sliver goes through a
    hash semi join (false positives removed, so the result is exact).
    Aggregated to per-priority counts + cents."""
    from ci_log_processing_ray.ops.relational import bloom_semi_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    dim = cust.filter(expr="c_mktsegment == 'BUILDING'")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderpriority",
                    "o_totalprice"])
    # survivors are ~1/5 of orders (BUILDING segment share); size the
    # verify join to that sliver
    j = bloom_semi_join(orders, "o_custkey", dim, "c_custkey",
                        num_partitions=_join_partitions(
                            sf_dir, "orders", rows_per_partition=1_000_000))

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "n_orders": pa.array(np.ones(len(t), dtype=np.int64)),
            "cents": _cents(t["o_totalprice"]),
        })

    return (j.map_batches(partial, batch_format="pyarrow")
            .groupby("o_orderpriority").aggregate(
                Sum("n_orders", alias_name="n_orders"),
                Sum("cents", alias_name="cents")))


def q_phash_dedup(sf_dir: str):
    """Image near-dup via 64-bit perceptual average-hash: payloads
    derived deterministically from doc ids, with every doc_id % 10 == 0
    image DUPLICATED under a distinct media_id (planted near-dups);
    actor-pool hashing, 8-byte-key bucket shuffle (rows-only -- no
    codec libs / SQL equivalent)."""
    from ci_log_processing_ray.ops.multimodal import phash_clusters

    ds = _read(sf_dir, "documents", ["doc_id"])

    def make_payload(t: pa.Table) -> pa.Table:
        ids, payloads = [], []
        for i in t["doc_id"].to_pylist():
            payload = encode_fake_image(i, 16 + (i % 16), 16)
            ids.append(i)
            payloads.append(payload)
            if i % 10 == 0:  # planted duplicate under a new id
                ids.append(1_000_000 + i)
                payloads.append(payload)
        return pa.table({
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
        })

    media = ds.map_batches(make_payload, batch_format="pyarrow",
                           batch_size=256)
    out = phash_clusters(media)
    res = _collect(out.filter(expr="bucket_size >= 2")).to_pandas()
    # BINDING planted-recovery gate: identical payload -> identical
    # phash, so every planted (i, 1e6+i) pair must surface in a shared
    # bucket; a silently-empty or mis-bucketed result raises.
    ids = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id"])["doc_id"].to_numpy()
    ph = dict(zip(res["media_id"], res["phash"]))
    for b in ids[ids % 10 == 0]:
        p = 1_000_000 + b
        if p not in ph or b not in ph or ph[p] != ph[b]:
            raise AssertionError(
                f"phash_dedup: planted pair ({b}, {p}) not recovered")
    return res


def q_quantize_embeddings(sf_dir: str):
    """int8 embedding quantization (4x storage shrink): per-vector
    symmetric scale, fixed-width binary blob output (rows-only;
    accuracy bound unit-tested).

    BINDING round-trip gate: a deterministic 1-in-10 sample of the
    quantized blobs is dequantized driver-side against the original
    vectors -- symmetric round-to-nearest int8 guarantees per-
    component error <= scale/2, and the max-|v| component must hit
    +/-127 exactly; blob width must equal dim bytes.  Violations
    raise."""
    from ci_log_processing_ray.ops.similarity import quantize_embeddings

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    quant = quantize_embeddings(ds, "embedding", "vec_id")

    def tenth(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(
            t["vec_id"].combine_chunks().to_numpy() % 10 == 0))

    sample = _collect(
        quant.map_batches(tenth, batch_format="pyarrow")).to_pandas()
    orig_t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                           columns=["vec_id", "embedding"])
    keep = pa.array(orig_t["vec_id"].to_numpy() % 10 == 0)
    orig_t = orig_t.filter(keep)
    orig = {int(i): np.asarray(v, np.float64) for i, v in zip(
        orig_t["vec_id"].to_pylist(), orig_t["embedding"].to_pylist())}
    for _, row in sample.iterrows():
        q = np.frombuffer(row["qvec"], dtype=np.int8).astype(np.float64)
        v = orig[int(row["vec_id"])]
        if len(q) != int(row["dim"]) or len(q) != len(v):
            raise AssertionError("quantize_embeddings: blob width != dim")
        s = float(row["scale"])
        if np.abs(q * s - v).max() > s / 2 + 1e-6:
            raise AssertionError(
                f"quantize_embeddings: vec {row['vec_id']} round-trip "
                f"error exceeds scale/2")
        if int(np.abs(q).max()) != 127 and np.abs(v).max() > 0:
            raise AssertionError(
                f"quantize_embeddings: vec {row['vec_id']} max "
                f"component not pinned to 127")
    return quant.map_batches(
        lambda t: t.drop_columns(["qvec"]).append_column(
            "qvec_bytes", pc.binary_length(t["qvec"]).cast(pa.int64())),
        batch_format="pyarrow")


def q_rate_sample(sf_dir: str):
    """Mixture-weight sampling: src0 at 25%, src1 at 50%, everything
    else at 12.5% -- first-hex-digit-of-md5 thresholds, deterministic
    on both engines; per-source kept counts
    (ops/curation.py:rate_sample_by_group)."""
    from ci_log_processing_ray.ops.curation import rate_sample_by_group

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    kept = rate_sample_by_group(ds, "source", "doc_id",
                                {"src0": "4", "src1": "8"}, "2")
    return kept.groupby("source").aggregate(Count(alias_name="n"))


def _export_cache_dir(sf_dir: str, table: str, fmt: str) -> str:
    """Cache dir for a format-converted export, keyed by the SOURCE
    parquet's identity (path + size + mtime): regenerating the sf dir
    invalidates the cache instead of silently serving stale data."""
    import hashlib as _hl

    src = os.path.join(sf_dir, f"{table}.parquet")
    st = os.stat(src)
    tag = _hl.md5(f"{os.path.abspath(src)}|{st.st_size}|{st.st_mtime_ns}"
                  .encode()).hexdigest()[:16]
    return f"/tmp/ci_log_{fmt}_{tag}"


def q_jsonl_source(sf_dir: str):
    """JSONL source coverage: documents exported once to JSON-lines
    (cached per sf), read back with ray.data.read_json, aggregated per
    lang -- proves the non-parquet ingest path end-to-end against the
    parquet oracle."""
    out = _export_cache_dir(sf_dir, "documents", "jsonl")
    marker = os.path.join(out, ".done")
    if not os.path.exists(marker):
        os.makedirs(out, exist_ok=True)
        tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id", "lang", "n_chars"])
        import json as _json

        tmp = os.path.join(out, f"part-0.jsonl.tmp.{os.getpid()}")
        with open(tmp, "w") as f:
            for row in tbl.to_pylist():
                f.write(_json.dumps(row, sort_keys=True) + "\n")
        os.replace(tmp, os.path.join(out, "part-0.jsonl"))
        with open(marker, "w") as f:
            f.write("ok")
    ds = ray.data.read_json(os.path.join(out, "part-0.jsonl"))
    return ds.groupby("lang").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="total_chars"))


def q_csv_source(sf_dir: str):
    """CSV source coverage: events exported once to CSV (cached per
    sf), read back with ray.data.read_csv, aggregated per event type
    with integer cents -- the delimited-text ingest path."""
    out = _export_cache_dir(sf_dir, "events", "csv")
    marker = os.path.join(out, ".done")
    if not os.path.exists(marker):
        os.makedirs(out, exist_ok=True)
        tbl = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                            columns=["event_id", "event_type", "value"])
        import pyarrow.csv as pacsv

        tmp = os.path.join(out, f"events.csv.tmp.{os.getpid()}")
        pacsv.write_csv(tbl, tmp)
        os.replace(tmp, os.path.join(out, "events.csv"))
        with open(marker, "w") as f:
            f.write("ok")
    ds = ray.data.read_csv(os.path.join(out, "events.csv"))

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "n": pa.array(np.ones(len(t), dtype=np.int64)),
            "cents": _cents(pc.cast(t["value"].combine_chunks(),
                                    pa.float64())),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("event_type").aggregate(
                Sum("n", alias_name="n"),
                Sum("cents", alias_name="cents")))


def q_orc_source(sf_dir: str):
    """ORC source coverage (sources/readers.py:read_orc): documents
    exported once to two multi-stripe ORC files (cached per sf; small
    stripe/batch sizes force ~8 stripes each so the STRIPE-granular
    fan-out is real), read back column-pruned through the footer-only
    driver listing, aggregated per source against the parquet oracle."""
    from ci_log_processing_ray.sources.readers import read_orc

    out = _export_cache_dir(sf_dir, "documents", "orc_v1")
    marker = os.path.join(out, ".done")
    if not os.path.exists(marker):
        os.makedirs(out, exist_ok=True)
        from pyarrow import orc as paorc

        tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id", "source", "n_chars"])
        half = tbl.num_rows // 2
        for i, part in enumerate([tbl.slice(0, half), tbl.slice(half)]):
            tmp = os.path.join(out, f".tmp-{i}.{os.getpid()}")
            w = paorc.ORCWriter(tmp, batch_size=64, stripe_size=1024)
            w.write(part)
            w.close()
            os.replace(tmp, os.path.join(out, f"part-{i}.orc"))
        with open(marker, "w") as f:
            f.write("ok")
    ds = read_orc(out, columns=["source", "n_chars"])
    return ds.groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="total_chars"))


def q_pack_bins(sf_dir: str):
    """Bin packing without document splitting (best-fit-style FFD per
    hash bucket, globally unique bin ids): docs -> bins of <= 512
    'tokens' (n_chars/4), oversize docs flagged truncated (rows-only:
    the packing is a heuristic ASSIGNMENT, but it carries a BINDING
    in-query feasibility certificate (_cert_pack_bins): exactly-once
    placement, correct truncation flags, disjoint in-bin spans, and
    capacity respected -- any violation raises)."""
    from ci_log_processing_ray.ops.pack import pack_bins_ffd

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def tok_est(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tok": pc.cast(pc.divide(t["n_chars"].combine_chunks(),
                                       pa.scalar(4, pa.int64())),
                             pa.int64()),
        })

    est = ds.map_batches(tok_est, batch_format="pyarrow",
                         zero_copy_batch=True)
    out = pack_bins_ffd(est, "doc_id", "n_tok", 512)
    out_df = out.to_pandas() if hasattr(out, "to_pandas") else out
    nc = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                       columns=["doc_id", "n_chars"])
    lens = dict(zip(nc["doc_id"].to_pylist(),
                    (nc["n_chars"].to_numpy() // 4).tolist()))
    _cert_pack_bins(out_df, lens, 512)
    return out_df


def q_late_events(sf_dir: str):
    """Watermark late-data tagging: event late iff its event time
    trails the high-water mark of everything that ARRIVED earlier
    (arrival order = event_id) by > 1 hour.  Distributed running max:
    order-preserving range buckets + a 64-int prefix pass
    (ops/window.py:tag_late_events)."""
    from ci_log_processing_ray.ops.window import tag_late_events

    ds = _read(sf_dir, "events", ["event_id", "ts"])
    return tag_late_events(ds, "event_id", "ts",
                           allowed_lateness_us=3_600_000_000)


def q_cap_source(sf_dir: str):
    """Per-source quota cap (data-mixing primitive): at most 20 docs
    per source, picked in md5-hash order (stable pseudo-random, not
    file-position-biased); mergeable local caps bound the exchange
    (ops/curation.py:cap_per_group)."""
    from ci_log_processing_ray.ops.curation import cap_per_group

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    return cap_per_group(ds, "source", "doc_id", 20)


def q_length_batches(sf_dir: str):
    """Length-sorted fixed-size micro-batches with per-batch padding
    waste (n_docs * max_len - sum_len): global rank via
    order-preserving range buckets + driver prefix sum, mergeable
    (count, max, sum) partials (ops/pack.py:length_batches)."""
    from ci_log_processing_ray.ops.pack import length_batches

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return length_batches(ds, "n_chars", "doc_id", batch_size=16)


def q_temperature_mix(sf_dir: str):
    """Temperature-weighted source mixing (multilingual-sampling rule,
    alpha=0.5): per-source quota = floor(sqrt(n_source)) docs picked in
    md5 order; big sources downsample sub-linearly.  Mergeable local
    caps bound the exchange (ops/curation.py:temperature_mix)."""
    from ci_log_processing_ray.ops.curation import temperature_mix

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    return temperature_mix(ds, "source", "doc_id")


def q_full_outer_join(sf_dir: str):
    """FULL OUTER join: per-user event counts against the BUILDING
    customer roster -- users with no segment row AND segment customers
    with no events both survive, null sides coalesced to 0
    (Dataset.join full_outer + one finishing map)."""
    ev = _read(sf_dir, "events", ["user_id"])
    counts = ev.groupby("user_id").aggregate(Count(alias_name="n_events"))
    # ONE read of the small dim serves both the join side and the
    # broadcast membership set (Ray's full_outer coalesces the key pair
    # into the left key name, so the flag must come from a broadcast)
    building = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"]).filter(
        pc.equal(pc.field("c_mktsegment"), "BUILDING")).select(
        ["c_custkey"])
    dim = ray.data.from_arrow(building)
    keys_ref = ray.put(building["c_custkey"].combine_chunks())
    # the join's LEFT input is the per-user aggregate (<= distinct
    # users), not raw events -- size partitions to the small dim side
    j = counts.join(dim, "full_outer",
                    num_partitions=_join_partitions(sf_dir, "customer"),
                    on=("user_id",), right_on=("c_custkey",))

    def finish(t: pa.Table) -> pa.Table:
        uid = t["user_id"].combine_chunks()
        return pa.table({
            "key_id": uid,
            "n_events": pc.coalesce(t["n_events"].combine_chunks(),
                                    pa.scalar(0, pa.int64())),
            "is_building": pc.cast(
                pc.is_in(uid, value_set=ray.get(keys_ref)), pa.int64()),
        })

    return j.map_batches(finish, batch_format="pyarrow")


def q_incremental_dedup(sf_dir: str):
    """Cross-run incremental dedup through the sharded hash-index
    actor pool (state/dedup_index.py -- the engine's one raw-actor
    surface): documents stream against the persisted index; the first
    invocation sees everything new, re-invocations drop all of it.
    Returns per-source counts of never-seen-before docs (rows-only:
    result depends on index state across driver invocations)."""
    import shutil

    from ci_log_processing_ray.state.dedup_index import (
        DedupIndex, incremental_dedup)

    # fresh index per call: the query contract must be idempotent for
    # the driver's repeated runs
    sf_tag = os.path.basename(os.path.normpath(sf_dir))
    index_dir = f"/tmp/ci_log_dedup_index_{sf_tag}"
    shutil.rmtree(index_dir, ignore_errors=True)
    idx = DedupIndex(index_dir, n_shards=4)
    try:
        ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
        new = incremental_dedup(ds, idx, "text", "doc_id")
        out = (new.groupby("source")
               .aggregate(Count(alias_name="n_new")).to_pandas())
        idx.flush()
    finally:
        idx.shutdown()
    # BINDING replay gate (the op's defining cross-run invariant,
    # asserted in-query): a SECOND run against the flushed index --
    # through a fresh actor pool that must reload the persisted
    # segments -- keeps exactly zero docs.  Any leak raises.
    idx2 = DedupIndex(index_dir, n_shards=4)
    try:
        leaked = incremental_dedup(
            _read(sf_dir, "documents", ["doc_id", "source", "text"]),
            idx2, "text", "doc_id").count()
        if leaked != 0:
            raise AssertionError(
                f"incremental_dedup: verbatim replay leaked {leaked} "
                f"docs through the persisted index")
    finally:
        idx2.shutdown()
    return out.sort_values("source").reset_index(drop=True)


def q_model_score(sf_dir: str):
    """Batched model inference (curation quality-model step): stub
    classifier loaded once per actor, hashed-BoW features, one matmul
    per batch (ops/inference.py; rows-only -- float model output).

    BINDING plumbing gate: scores for a deterministic 1-in-10 doc
    sample are recomputed driver-side with the same featurizer+model
    and must agree to rtol=1e-12 (BLAS gemm accumulation order can
    legally vary with matrix shape/threading, so bit-exact equality
    would be environment-fragile); every score must lie in (0, 1) and
    every doc must appear exactly once.  Row loss, duplication, or a
    per-actor model drift raises."""
    from ci_log_processing_ray.ops.inference import (_StubModel,
                                                     _hashed_bow,
                                                     score_texts)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(score_texts(ds, "text", "doc_id")).to_pandas()
    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"])
    n_docs = tbl.num_rows
    if len(out) != n_docs or out["doc_id"].duplicated().any():
        raise AssertionError("model_score: rows lost or duplicated")
    s = out["model_score"].to_numpy()
    if not np.all((s > 0) & (s < 1)):
        raise AssertionError("model_score: score outside (0, 1)")
    sel = tbl["doc_id"].to_numpy() % 10 == 0
    sub = tbl.filter(pa.array(sel))
    want = _StubModel(1234).predict(_hashed_bow(sub["text"].to_pylist()))
    got = (out.set_index("doc_id").loc[sub["doc_id"].to_numpy(),
                                       "model_score"].to_numpy())
    if not np.allclose(got, want, rtol=1e-12, atol=0.0):
        raise AssertionError(
            "model_score: distributed scores diverge from the "
            "driver-side replay on the 1-in-10 sample")
    return out


def q_model_filter(sf_dir: str):
    """Model-gated filter, fused score+keep so the text payload makes
    ONE trip through the object store; returns per-source kept counts
    (rows-only -- float threshold).

    BINDING replay gate: the per-source kept counts are recomputed
    driver-side by scoring EVERY doc with the same featurizer+model
    and thresholding; any count mismatch (row loss, wrong threshold,
    per-actor drift) raises."""
    from ci_log_processing_ray.ops.inference import (_StubModel,
                                                     _hashed_bow,
                                                     filter_by_score)

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    kept = filter_by_score(ds, "text", "doc_id", threshold=0.5)
    out = _collect(kept.groupby("source")
                   .aggregate(Count(alias_name="n_kept"))).to_pandas()
    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "source", "text"])
    scores = _StubModel(1234).predict(_hashed_bow(
        tbl["text"].to_pylist()))
    want = (pd.DataFrame({"source": tbl["source"].to_pylist(),
                          "keep": scores >= 0.5})
            .groupby("source")["keep"].sum().astype(np.int64))
    got = dict(zip(out["source"], out["n_kept"].astype(np.int64)))
    want_d = {k: int(v) for k, v in want.items() if v > 0}
    if got != want_d:
        raise AssertionError(
            f"model_filter: kept counts diverge from the driver-side "
            f"replay ({got} vs {want_d})")
    return out


def q_tokenize_ids(sf_dir: str):
    """Tokenizer encode: words -> frequency-ranked vocab ids (broadcast
    vocab), per-doc (token_id, count) rows (ops/curation.py)."""
    from ci_log_processing_ray.ops.curation import tokenize_to_ids

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return tokenize_to_ids(ds, "text", "doc_id")


def q_outlier_counts(sf_dir: str):
    """Robust outlier gate (two-phase stats-then-filter): per-type
    median of value cents computed exactly (quantile op), broadcast,
    then one scan counts events deviating > 500 dollars from their
    type's median -- all integers, oracle-exact."""
    from ci_log_processing_ray.ops.quantile import quantile_disc_by_group

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "cents": _cents(t["value"])})

    cents = ds.map_batches(to_cents, batch_format="pyarrow",
                           zero_copy_batch=True)
    med = quantile_disc_by_group(cents, "event_type", "cents",
                                 {"med": 0.5}).to_pandas()
    med_ref = ray.put(dict(zip(med["event_type"], med["med"])))

    def partial(t: pa.Table) -> pa.Table:
        m = ray.get(med_ref)
        types = t["event_type"].combine_chunks()
        c = t["cents"].combine_chunks().to_numpy()
        meds = pd.Series(types.to_pylist()).map(m).to_numpy()
        out = (np.abs(c - meds) > 50_000).astype(np.int64)
        tt = pa.table({"event_type": types,
                       "n_outliers": pa.array(out),
                       "n": pa.array(np.ones(len(c), dtype=np.int64))})
        g = tt.group_by("event_type").aggregate(
            [("n_outliers", "sum"), ("n", "sum")])
        return pa.table({"event_type": g["event_type"],
                         "n_outliers": g["n_outliers_sum"],
                         "n": g["n_sum"]})

    return (cents.map_batches(partial, batch_format="pyarrow")
            .groupby("event_type").aggregate(
                Sum("n_outliers", alias_name="n_outliers"),
                Sum("n", alias_name="n")))


def q_kmeans(sf_dir: str):
    """Full distributed k-means loop (Lloyd's): broadcast centroids,
    one streaming assignment+partial pass per round, k-row aggregate to
    the driver, early stop on movement < tol (ops/iterative.py).
    Returns per-cluster counts (rows-only; float assignment).

    BINDING replay gate: the whole loop (farthest-point init over the
    first 1024 rows, 5 Lloyd rounds) is re-run in an independent
    driver-side numpy implementation; final centroids must agree to
    1e-9 relative and the per-cluster counts must be IDENTICAL.  A
    divergent assignment, partial-sum bug, or dropped round raises."""
    from ci_log_processing_ray.ops.iterative import kmeans

    ds = _read(sf_dir, "embeddings", ["embedding"])
    centroids, counts = kmeans(ds, "embedding", k=8, n_iter=5)
    emb = np.vstack(pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["embedding"])["embedding"].to_numpy(
            zero_copy_only=False)).astype(np.float64)
    sample = emb[:1024]
    chosen = [0]
    d2 = ((sample - sample[0]) ** 2).sum(axis=1)
    for _ in range(min(8, len(sample)) - 1):
        nxt = int(d2.argmax())
        chosen.append(nxt)
        d2 = np.minimum(d2, ((sample - sample[nxt]) ** 2).sum(axis=1))
    c = sample[chosen].copy()
    ref_counts = None
    for _round in range(5):
        d = emb @ c.T * -2.0 + (c * c).sum(axis=1)[None, :]
        assign = d.argmin(axis=1)
        cnt = np.bincount(assign, minlength=len(c)).astype(np.int64)
        new = c.copy()
        for cid in np.flatnonzero(cnt):
            new[cid] = emb[assign == cid].mean(axis=0)
        move = float(np.abs(new - c).max())
        ref_counts = cnt
        c = new
        if move < 1e-4:
            break
    got = dict(zip(counts["cid"].astype(int), counts["count"].astype(int)))
    want = {int(i): int(n) for i, n in enumerate(ref_counts) if n > 0}
    if got != want:
        raise AssertionError(
            f"kmeans: per-cluster counts diverge from the sequential "
            f"replay ({got} vs {want})")
    if not np.allclose(centroids, c, rtol=1e-9, atol=1e-9):
        raise AssertionError(
            "kmeans: final centroids diverge from the sequential replay")
    return counts


def q_connected_components(sf_dir: str):
    """Distributed connected components by min-label propagation over a
    chain graph (doc_id -- doc_id-1 within each decade of ids): one
    bucketed (node, label) exchange per round, driver sees only change
    counts -- the at-scale replacement for driver-side union-find.
    Components are the id decades, so the result is oracle-exact."""
    from ci_log_processing_ray.ops.iterative import connected_components

    ds = _read(sf_dir, "documents", ["doc_id"])

    def chain_edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        keep = ids % 10 != 0
        return pa.table({"src": pa.array(ids[keep]),
                         "dst": pa.array(ids[keep] - 1)})

    edges = ds.map_batches(chain_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return connected_components(edges, "src", "dst")


def q_retention(sf_dir: str):
    """Cohort retention (ops/groupagg.py:retention_cohorts): distinct
    users per (first-active-day cohort, day offset); the exchange
    carries distinct (user, day) pairs, never events."""
    from ci_log_processing_ray.ops.groupagg import retention_cohorts

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return _ts_us(retention_cohorts(ds, "user_id", "ts"))


def q_event_runs(sf_dir: str):
    """Gaps-and-islands (ops/window.py:runs_by_group): collapse each
    user's consecutive same-type events (ordered by ts, event_id) into
    run rows -- the vectorized replacement for LAG + cumulative-sum."""
    from ci_log_processing_ray.ops.window import runs_by_group

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])
    return _ts_us(runs_by_group(ds, "user_id", ["ts", "event_id"],
                                "event_type"))


def q_winsorize(sf_dir: str):
    """Winsorized aggregate (outlier-robust): clamp each event's cents
    to its group's exact [p05, p95] band, then sum per group.  Two
    passes: the exact distributed percentile op yields one tiny row per
    group (broadcast back), then a single clamped partial+final sum --
    the quantile table never exceeds group cardinality."""
    from ci_log_processing_ray.ops.quantile import quantile_disc_by_group

    ds = _read(sf_dir, "events", ["event_type", "value"])
    cents_ds = ds.map_batches(
        lambda t: pa.table({"event_type": t["event_type"],
                            "cents": _cents(t["value"])}),
        batch_format="pyarrow")
    band = (quantile_disc_by_group(cents_ds, "event_type", "cents",
                                   {"lo": 0.05, "hi": 0.95})
            .to_pandas().sort_values("event_type"))
    band_ref = ray.put((band["event_type"].to_numpy().astype(object),
                        band["lo"].to_numpy().astype(np.int64),
                        band["hi"].to_numpy().astype(np.int64)))

    def clamp_partial(t: pa.Table) -> pa.Table:
        keys, lo, hi = ray.get(band_ref)
        et = t["event_type"].combine_chunks().to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keys, et)
        cents = _cents(t["value"]).to_numpy()
        w = np.clip(cents, lo[idx], hi[idx])
        tt = pa.table({"event_type": t["event_type"],
                       "w": pa.array(w),
                       "one": pa.array(np.ones(len(t), dtype=np.int64))})
        g = tt.group_by("event_type").aggregate([("w", "sum"),
                                                 ("one", "sum")])
        return pa.table({"event_type": g["event_type"],
                         "sum_winsorized_cents": g["w_sum"],
                         "n": g["one_sum"]})

    return ds.map_batches(clamp_partial, batch_format="pyarrow").groupby(
        "event_type").aggregate(
            Sum("sum_winsorized_cents", alias_name="sum_winsorized_cents"),
            Sum("n", alias_name="n"))


def q_sample_bottomk(sf_dir: str):
    """Exact-k deterministic sample (ops/curation.py:bottomk_by_hash):
    the 100 docs with smallest md5(doc_id), tie-broken by id -- only
    blocks x k candidates ever reach the closing sort+limit."""
    from ci_log_processing_ray.ops.curation import bottomk_by_hash

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    return bottomk_by_hash(ds, "doc_id", 100)


def q_compression_ratio(sf_dir: str):
    """zlib compressibility per doc (repetitive-junk signal): count
    docs per source whose compressed size is under 45% of raw.

    BINDING in-query separation gate: two planted control docs ride
    the corpus -- one pathologically repetitive ('spam ham ' * 200, id
    -1) and one incompressible (md5-chained hex, id -2).  The
    repetitive plant must score ratio_milli < 150 and be flagged, the
    random plant > 600 and unflagged; any inversion (the failure mode
    of a broken ratio or flag) raises."""
    import hashlib

    from ci_log_processing_ray.ops.textstats import compression_ratio

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    # plant once (single extra 2-row batch via union with a tiny table);
    # the incompressible control is base85 of an md5 chain (dense
    # printable alphabet -- hex would hand zlib a free 2x)
    import base64
    h, rnd = b"seed", []
    while len(rnd) < 100:
        h = hashlib.md5(h).digest()
        rnd.append(base64.b85encode(h).decode())
    controls = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([-1, -2], pa.int64()),
        "text": pa.array(["spam ham " * 200, "".join(rnd)]),
        "source": pa.array(["control", "control"])}))
    scored = compression_ratio(ds.union(controls), "text", "doc_id")

    def flag(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "ratio_milli": t["ratio_milli"],
            "is_repetitive": pc.cast(
                pc.less(t["ratio_milli"].combine_chunks(), 450),
                pa.int64())})

    out = _collect(scored.map_batches(flag,
                                      batch_format="pyarrow")).to_pandas()
    r = dict(zip(out["doc_id"], out["ratio_milli"]))
    f = dict(zip(out["doc_id"], out["is_repetitive"]))
    if not (r.get(-1, 10**9) < 150 and f.get(-1) == 1):
        raise AssertionError(
            f"compression_ratio: repetitive control scored "
            f"{r.get(-1)} (want < 150, flagged)")
    if not (r.get(-2, -1) > 600 and f.get(-2) == 0):
        raise AssertionError(
            f"compression_ratio: incompressible control scored "
            f"{r.get(-2)} (want > 600, unflagged)")
    return out


def q_safe_udf(sf_dir: str):
    """Poison-row quarantine (stages/quarantine.py:safe_map_batches):
    a UDF that crashes on event_id % 997 == 0 rows still yields the
    full clean subset -- bad rows bisect-isolated to a dead-letter
    Parquet dir, good rows doubled and emitted.  The oracle is the
    clean subset computed declaratively."""
    import tempfile

    from ci_log_processing_ray.stages.quarantine import safe_map_batches

    def udf(t: pa.Table) -> pa.Table:
        ids = t["event_id"].combine_chunks().to_numpy()
        if np.any(ids % 997 == 0):
            raise ValueError("corrupt record")
        return pa.table({"event_id": t["event_id"],
                         "cents_x2": pc.multiply(
                             _cents(t["value"]), pa.scalar(2, pa.int64()))})

    ds = _read(sf_dir, "events", ["event_id", "value"])
    qdir = tempfile.mkdtemp(prefix="quarantine-", dir="/tmp")
    return safe_map_batches(
        ds, udf, quarantine_dir=qdir,
        out_schema=pa.schema([("event_id", pa.int64()),
                              ("cents_x2", pa.int64())]))


def q_url_curation(sf_dir: str):
    """Web-crawl curation (ops/urltools.py): deterministic per-doc URLs
    (mixed-case host, optional port and query string), parsed and
    canonicalized in one RE2 pass, hosts filtered against a broadcast
    blocklist.  No shuffle; everything is batch-local Arrow kernels."""
    from ci_log_processing_ray.ops.urltools import parse_and_filter_urls

    def build_url(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        src = t["source"].combine_chunks()
        port = pc.if_else(pa.array(ids % 7 == 0),
                          pa.scalar(":8080"), pa.scalar(""))
        qs = pc.if_else(pa.array(ids % 3 == 0),
                        pa.scalar("?utm=x"), pa.scalar(""))
        num = pc.cast(pa.array(ids % 100), pa.string())
        url = pc.binary_join_element_wise(
            "https://", src, ".Example.COM", port, "/p/", num, qs, "")
        return pa.table({"doc_id": t["doc_id"], "url": url})

    ds = _read(sf_dir, "documents", ["doc_id", "source"]).map_batches(
        build_url, batch_format="pyarrow", zero_copy_batch=True)
    return parse_and_filter_urls(
        ds, "url",
        blocked_hosts={"src3.example.com", "src7.example.com"},
        keep_cols=["doc_id", "url"])


def q_snapshot_diff(sf_dir: str):
    """CDC snapshot diff (ops/diff.py): old = docs without doc_id%97==0,
    new = docs without doc_id%89==0 and with every doc_id%50==0 text
    amended -- classify added/removed/changed via one full-outer join of
    (key, presence, cmp) triples."""
    from ci_log_processing_ray.ops.diff import snapshot_diff

    def old_fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        return t.filter(pa.array(ids % 97 != 0))

    def new_fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        t = t.filter(pa.array(ids % 89 != 0))
        ids = t["doc_id"].combine_chunks().to_numpy()
        amended = pc.binary_join_element_wise(
            t["text"].combine_chunks(), " v2", "")
        text = pc.if_else(pa.array(ids % 50 == 0), amended,
                          t["text"].combine_chunks())
        return pa.table({"doc_id": t["doc_id"], "text": text})

    old = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        old_fn, batch_format="pyarrow", zero_copy_batch=True)
    new = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        new_fn, batch_format="pyarrow", zero_copy_batch=True)
    return snapshot_diff(old, new, "doc_id", "text",
                         num_partitions=_join_partitions(sf_dir,
                                                         "documents"))


def q_profile(sf_dir: str):
    """Dataset profiling report over events: per-column row, null and
    exact-distinct counts (ops/profile.py:profile_columns -- one-pass
    count partials + one native-dtype distinct per column)."""
    from ci_log_processing_ray.ops.profile import profile_columns

    ds = _read(sf_dir, "events",
               ["event_id", "user_id", "event_type", "value"])
    return profile_columns(ds, ["event_id", "user_id", "event_type",
                                "value"])


def q_attribution(sf_dir: str):
    """Linear multi-touch attribution
    (ops/window.py:linear_attribution): every purchase splits 1000
    permille equally across the touches since the user's previous
    purchase (remainder to the earliest touch), purchases with no
    prior touches credit 'direct'; per-channel totals combine from
    user-bucketed partials."""
    from ci_log_processing_ray.ops.window import linear_attribution

    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "ts", "event_type"])
    return linear_attribution(ev, "user_id", "ts", "event_type",
                              "event_id", conversion="purchase")


def q_survival(sf_dir: str):
    """Kaplan-Meier survival table
    (ops/window.py:survival_table): days from first signup to first
    purchase per user, censored at the corpus horizon -- exact
    integer (n_events, n_at_risk) per event duration; S(t) follows
    by division outside the hash path."""
    from ci_log_processing_ray.ops.window import survival_table

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    return survival_table(ev, "user_id", "ts", "event_type",
                          start="signup", event="purchase")


def q_rfm(sf_dir: str):
    """RFM segmentation (recency / frequency / monetary quintiles,
    the classic CRM scoring): per customer the days since last order
    (vs the corpus horizon), order count, and cents total; each
    dimension quintiles against its exact distributed percentile_disc
    thresholds (ops/quantile.py:quantile_disc_by_group -- the only
    corpus-shaped exchanges are the per-customer aggregate and the
    quantile partials; thresholds broadcast as 4 ints per dimension)
    and rfm_code = 100*rq + 10*fq + mq.  Quintiles ascend with the
    raw value in ALL dimensions (recency quintile 1 = most recent)."""
    from ci_log_processing_ray.ops.quantile import quantile_disc_by_group
    from ci_log_processing_ray.ops.window import bucketed_groups

    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "cust": t["o_custkey"],
            "date_us": pc.cast(t["o_orderdate"].combine_chunks()
                               .cast(pa.timestamp("us")), pa.int64()),
            "cents": _cents(t["o_totalprice"])})

    rows = ds.map_batches(prep, batch_format="pyarrow")
    hz = int(rows.aggregate(Max("date_us"))["max(date_us)"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("cust", as_index=False)
               .agg(last_us=("date_us", "max"),
                    freq=("date_us", "size"),
                    monetary_cents=("cents", "sum")))
        out["r_days"] = ((hz - out["last_us"].to_numpy(np.int64))
                         // 86_400_000_000)
        for c in ("last_us", "freq", "monetary_cents", "r_days"):
            out[c] = out[c].astype(np.int64)
        return out[["cust", "r_days", "freq", "monetary_cents"]]

    per_cust = bucketed_groups(rows, "cust", agg).materialize()

    def const_g(t: pa.Table) -> pa.Table:
        return t.append_column("g", pa.array(
            np.zeros(t.num_rows, np.int64)))

    qs = {"q1": 0.2, "q2": 0.4, "q3": 0.6, "q4": 0.8}
    th = {}
    for dim in ("r_days", "freq", "monetary_cents"):
        row = quantile_disc_by_group(
            per_cust.map_batches(const_g, batch_format="pyarrow"),
            "g", dim, qs).to_pandas().iloc[0]
        th[dim] = np.array([row["q1"], row["q2"], row["q3"],
                            row["q4"]], np.int64)

    def assign(t: pa.Table) -> pa.Table:
        def q(dim):
            v = t[dim].combine_chunks().to_numpy(zero_copy_only=False)
            return 1 + np.searchsorted(th[dim], v,
                                       side="right").astype(np.int64)

        code = 100 * q("r_days") + 10 * q("freq") + q("monetary_cents")
        return pa.table({
            "o_custkey": t["cust"], "r_days": t["r_days"],
            "freq": t["freq"], "monetary_cents": t["monetary_cents"],
            "rfm_code": pa.array(code, pa.int64())})

    return per_cust.map_batches(assign, batch_format="pyarrow")


def q_inventory_balance(sf_dir: str):
    """Clamped running inventory balance per supplier
    (ops/window.py:clamped_running_balance): returns restock (+qty),
    shipments deplete (-qty), stock floors at zero -- the
    non-associative scan resolved by the closed form
    b = S - min(0, running_min(S)), one grouped cumsum + cummin."""
    from ci_log_processing_ray.ops.window import clamped_running_balance

    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_shipdate", "l_orderkey",
                "l_linenumber", "l_quantity", "l_returnflag"])

    def prep(t: pa.Table) -> pa.Table:
        q = t["l_quantity"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        ret = pc.equal(t["l_returnflag"].combine_chunks(),
                       "R").to_numpy(zero_copy_only=False)
        return pa.table({
            "l_suppkey": t["l_suppkey"],
            "ship_us": pc.cast(t["l_shipdate"].combine_chunks()
                               .cast(pa.timestamp("us")), pa.int64()),
            "l_orderkey": t["l_orderkey"],
            "l_linenumber": t["l_linenumber"],
            "delta": pa.array(np.where(ret, q, -q), pa.int64())})

    return clamped_running_balance(
        li.map_batches(prep, batch_format="pyarrow"), "l_suppkey",
        ["ship_us", "l_orderkey", "l_linenumber"], "delta")


def q_streaks(sf_dir: str):
    """Longest strictly-increasing value streak per user
    (ops/window.py:monotone_streaks): boundary-reset run ids over the
    (ts, event_id) order, whole-bucket vectorized; ties break runs."""
    from ci_log_processing_ray.ops.window import monotone_streaks

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "ts_us": pc.cast(t["ts"].combine_chunks()
                             .cast(pa.timestamp("us")), pa.int64()),
            "event_id": t["event_id"],
            "cents": _cents(t["value"])})

    return monotone_streaks(ev.map_batches(prep,
                                           batch_format="pyarrow"),
                            "user_id", ["ts_us", "event_id"], "cents")


def q_below_group_avg(sf_dir: str):
    """TPC-H Q17 shape (ops/relational.py:below_group_avg_sum):
    revenue of lineitems with quantity below 20% of their part's
    average quantity, per returnflag; exact cross-multiplied int64
    comparison (5*qty*cnt < sum_qty), fact table never shuffled on
    the broadcast path."""
    from ci_log_processing_ray.ops.relational import below_group_avg_sum

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity",
                                    "l_extendedprice", "l_returnflag"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": t["l_partkey"],
            "qty": pc.cast(t["l_quantity"].combine_chunks(),
                           pa.int64()),
            "val_cents": _cents(t["l_extendedprice"]),
            "l_returnflag": t["l_returnflag"]})

    return below_group_avg_sum(
        li.map_batches(prep, batch_format="pyarrow"),
        "l_partkey", "qty", "val_cents", "l_returnflag",
        num=1, den=5)


def q_group_share(sf_dir: str):
    """TPC-H Q11 shape (ops/groupagg.py:group_share_filter): customers
    whose total spend exceeds 1.5x the average customer's (Q11's
    threshold is scale-relative; so is this), with exact permille
    share of the grand total; only survivors reach the driver."""
    from ci_log_processing_ray.ops.groupagg import group_share_filter

    o = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": t["o_custkey"],
                         "cents": _cents(t["o_totalprice"])})

    return group_share_filter(
        o.map_batches(prep, batch_format="pyarrow"),
        "o_custkey", "cents", mult_num=3, mult_den=2)


def q_drawdown(sf_dir: str):
    """Maximum drawdown of each user's running signed balance
    (purchases credit, everything else debits)
    (ops/window.py:max_drawdown_by_group): two-level grouped scan
    (cumsum then cummax) in one bucketed exchange."""
    from ci_log_processing_ray.ops.window import max_drawdown_by_group

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        cents = _cents(t["value"]).to_numpy()
        pos = pc.equal(t["event_type"].combine_chunks(),
                       "purchase").to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": t["user_id"],
            "ts_us": pc.cast(t["ts"].combine_chunks()
                             .cast(pa.timestamp("us")), pa.int64()),
            "event_id": t["event_id"],
            "delta": pa.array(np.where(pos, cents, -cents),
                              pa.int64())})

    return max_drawdown_by_group(
        ev.map_batches(prep, batch_format="pyarrow"),
        "user_id", ["ts_us", "event_id"], "delta")


def q_custdist(sf_dir: str):
    """TPC-H Q13 shape (ops/relational.py:count_distribution):
    distribution of per-customer urgent-order counts INCLUDING the
    zero bucket -- the outer join is never executed (zero-count
    customers recovered by subtraction under the validated FK), the
    fact stream collapses to per-key count partials before one
    bucketed exchange, and only the tiny histogram reaches the
    driver."""
    from ci_log_processing_ray.ops.relational import count_distribution

    o = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def prep(t: pa.Table) -> pa.Table:
        keep = pc.starts_with(t["o_orderpriority"].combine_chunks(),
                              "1-")
        return t.select(["o_custkey"]).filter(keep)

    urgent = o.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True)
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()
    return count_distribution(urgent, "o_custkey", n_cust)


def q_numwait(sf_dir: str):
    """TPC-H Q21 shape (ops/relational.py:sole_flag_members): per
    supplier, the number of multi-supplier orders where it was the
    SOLE supplier with a returned ('R') line -- grouped
    exists/not-exists over the fact table done as distinct
    (order, supplier, any-R) triples + one order-keyed bucketed
    exchange; lineitem itself is never shuffled."""
    from ci_log_processing_ray.ops.relational import sole_flag_members

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_returnflag"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "l_suppkey": t["l_suppkey"],
            "flag": pc.cast(pc.equal(t["l_returnflag"].combine_chunks(),
                                     "R"), pa.int64())})

    return sole_flag_members(
        li.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "l_orderkey", "l_suppkey", "flag", min_members=2)


def q_top_supplier(sf_dir: str):
    """TPC-H Q15 shape ("top supplier"): suppliers whose Q1-1996
    revenue equals the global maximum (ties kept).  Plan: windowed
    lineitem collapses to per-supplier revenue partials (one bucketed
    fold); the global max folds from per-block maxima into one Python
    int broadcast into a distributed equality filter -- only the
    winners reach the driver."""
    from ci_log_processing_ray.ops.window import bucketed_sum

    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_extendedprice", "l_shipdate"])
    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1996, 4, 1)

    def prep(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].combine_chunks().cast(pa.timestamp("us"))
        keep = pc.and_(pc.greater_equal(sd, lo), pc.less(sd, hi))
        sub = t.filter(keep)
        # block pre-agg pays here: supplier cardinality is far below
        # the block row count, so partials shrink ~20x pre-exchange
        tt = pa.table({
            "l_suppkey": sub["l_suppkey"],
            "_rev": _cents(sub["l_extendedprice"])})
        g = tt.group_by("l_suppkey").aggregate([("_rev", "sum")])
        return pa.table({"l_suppkey": g["l_suppkey"],
                         "_rev": g["_rev_sum"]})

    # materialize: the supplier-sized fold is consumed twice (global
    # max, then the equality filter) and would otherwise re-run the
    # whole fact scan for each consumer
    rev = bucketed_sum(
        li.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["l_suppkey"], ["_rev"]).materialize()

    def block_max(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"m": [int(df["_rev"].max())
                                   if len(df) else -1]})

    mdf = rev.map_batches(block_max, batch_format="pandas").to_pandas()
    best = int(mdf["m"].max()) if len(mdf) else -1

    out = rev.map_batches(
        lambda df: df[df["_rev"] == best], batch_format="pandas")
    return _collect(out.map_batches(
        lambda df: df.rename(columns={"_rev": "total_revenue"}),
        batch_format="pandas"))


def q_large_orders(sf_dir: str):
    """TPC-H Q18 shape ("large volume customers"): orders whose total
    quantity exceeds 200, decorated with customer and price.  Plan:
    per-order (qty, cents) block partials and the slim orders side
    co-partition in ONE tagged exchange (_copartition_by_key); each
    bucket kernel folds the sums, applies the HAVING distributed, and
    probes orders for the customer only on qualifying rows
    (sub-percent of the table) -- no separate fold and no hash
    join-back."""
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_quantity", "l_extendedprice"])
    o = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def li_prep(t: pa.Table) -> pa.Table:
        tt = pa.table({
            "k": t["l_orderkey"].combine_chunks(),
            "a": pc.cast(t["l_quantity"].combine_chunks(), pa.int64()),
            "b": _cents(t["l_extendedprice"])})
        g = tt.group_by("k").aggregate([("a", "sum"), ("b", "sum")])
        return pa.table({"k": g["k"], "a": g["a_sum"],
                         "b": g["b_sum"]})

    def o_prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": t["o_orderkey"].combine_chunks(),
            "a": t["o_custkey"].combine_chunks(),
            "b": pa.array(np.zeros(t.num_rows, np.int64))})

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        side = g["_side"].to_numpy()
        ln, od = g[side == 0], g[side == 1]
        empty = pd.DataFrame({
            c: pd.Series([], dtype=np.int64)
            for c in ("o_orderkey", "o_custkey", "sum_qty",
                      "total_cents")})
        if not len(ln) or not len(od):
            return empty
        sums = ln.groupby("k", as_index=False,
                          sort=False)[["a", "b"]].sum()
        big = sums[sums["a"].to_numpy() > 200]
        if not len(big):
            return empty
        bk = big["k"].to_numpy(np.int64)
        hit, cust = _probe_orders(od, bk, "a")
        return pd.DataFrame({
            "o_orderkey": bk[hit],
            "o_custkey": cust[hit],
            "sum_qty": big["a"].to_numpy(np.int64)[hit],
            "total_cents": big["b"].to_numpy(np.int64)[hit]})

    out = _copartition_by_key(
        li.map_batches(li_prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        o.map_batches(o_prep, batch_format="pyarrow",
                      zero_copy_batch=True), kern,
        input_rows=2 * _table_rows(sf_dir, "orders")).to_pandas()
    if not len(out):  # all-empty pandas blocks drop columns
        return pd.DataFrame({
            c: pd.Series([], dtype=np.int64)
            for c in ("o_orderkey", "o_custkey", "sum_qty",
                      "total_cents")})
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out


def q_returned_customers(sf_dir: str):
    """TPC-H Q10 shape ("returned item reporting"): top-20 customers
    by revenue of returned ('R') lines in H1-1996, deterministic
    (rev DESC, custkey ASC) tie-break.  Plan: the filtered fact joins
    orders on orderkey (fact-fact hash join), collapses to per-customer
    revenue in one bucketed fold, and only the fold output is sorted --
    a customer-sized table, never lineitem."""
    from ci_log_processing_ray.ops.window import bucketed_sum

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_returnflag",
                "l_shipdate"])
    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1996, 7, 1)

    def prep(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].combine_chunks().cast(pa.timestamp("us"))
        keep = pc.and_(
            pc.equal(t["l_returnflag"].combine_chunks(), "R"),
            pc.and_(pc.greater_equal(sd, lo), pc.less(sd, hi)))
        sub = t.filter(keep)
        return pa.table({"l_orderkey": sub["l_orderkey"],
                         "_c": _cents(sub["l_extendedprice"])})

    o = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = li.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True).join(
        o, "inner",
        num_partitions=_join_partitions(sf_dir, "orders", "lineitem"),
        on=("l_orderkey",), right_on=("o_orderkey",))
    per_cust = bucketed_sum(
        joined.map_batches(
            lambda t: t.select(["o_custkey", "_c"]),
            batch_format="pyarrow"),
        ["o_custkey"], ["_c"])
    top = (per_cust.map_batches(lambda t: t, batch_format="pyarrow")
           .sort(["_c", "o_custkey"], descending=[True, False])
           .limit(20))
    return _collect(top.map_batches(
        lambda t: pa.table({"o_custkey": t["o_custkey"],
                            "revenue": t["_c"].combine_chunks()
                            .cast(pa.int64())}),
        batch_format="pyarrow"))


def _table_rows(sf_dir: str, *tables: str) -> int:
    """Summed row counts from parquet metadata (free to read)."""
    return sum(
        pq.read_metadata(os.path.join(sf_dir, f"{t}.parquet")).num_rows
        for t in tables)


def _copartition_by_key(left, right, kern, *, n_buckets=None,
                        input_rows=None):
    """Tagged-union co-partition replacing a fact-fact hash join whose
    downstream is an aggregate: both inputs (Arrow blocks with an
    int64 ``k`` column and OTHERWISE IDENTICAL schemas) exchange ONCE
    by hash(k); ``kern`` sees each bucket as a pandas frame with a
    ``_side`` column (0=left, 1=right) holding every row of its keys
    from BOTH sides, and returns a small partial frame.  One exchange
    total instead of Acero's build+probe shuffle -- measured 17.1 ->
    6.6 s (Q4) and 14.8 -> 8.8 s (Q5) at 49.5M lines.

    ``input_rows`` (exchange row count, parquet metadata is enough)
    RAISES the bucket count to ~500k rows per bucket above the
    cluster default.  Pass it ONLY when the kernel runs a real pandas
    groupby over near-key-cardinality frames (Q4/Q18: interleaved
    A/B at 135M lines measured 34 -> 21 s both -- the per-bucket hash
    groupby is superlinear once its table falls out of cache);
    vectorized-mask kernels (Q5/Q7/Q12) measured 20 -> 28 s WORSE
    with more buckets, the extra exchange/scheduling overhead buying
    nothing."""
    from ci_log_processing_ray.ops.window import (bucketed_groups,
                                                  resolve_group_buckets)

    if n_buckets is None and input_rows is not None:
        n_buckets = max(resolve_group_buckets(None),
                        int(input_rows) // 500_000)

    def tag(side):
        def f(t: pa.Table) -> pa.Table:
            return t.append_column("_side", pa.array(
                np.full(t.num_rows, side, np.int8)))
        return f

    tagged = left.map_batches(
        tag(0), batch_format="pyarrow", zero_copy_batch=True).union(
        right.map_batches(tag(1), batch_format="pyarrow",
                          zero_copy_batch=True))
    return bucketed_groups(tagged, "k", kern, n_buckets=n_buckets)


def _dense_base(keys: np.ndarray):
    """For a SORTED UNIQUE key array, return the base offset if the
    keys are a contiguous integer range (the common dense
    surrogate-key case), else None.  Dense keys resolve by direct
    offset instead of binary search -- measured 12.4 s -> 3.4 s for a
    49.5M-row probe into an 8M-key broadcast, where cache-hostile
    searchsorted dominated the whole scan."""
    if len(keys) and int(keys[-1]) - int(keys[0]) + 1 == len(keys):
        return int(keys[0])
    return None


def _probe_positions(keys: np.ndarray, base, p: np.ndarray):
    """Positions of ``p`` in sorted-unique ``keys`` under the
    validated-FK contract (every p present): direct offset when dense
    (``base`` from _dense_base), binary search otherwise."""
    if base is not None:
        return p - base
    return np.searchsorted(keys, p)


def _probe_orders(od: pd.DataFrame, lk: np.ndarray,
                  *cols: str) -> tuple:
    """Bucket-kernel helper: sort the (unique-key) orders side once
    and resolve each line's order attributes by searchsorted; returns
    (hit_mask, attr_arrays...) aligned to ``lk``."""
    ok = od["k"].to_numpy(np.int64)
    if len(ok) == 0:
        # empty orders side: clip(searchsorted,0,-1) would yield pos=-1
        # and the attr gathers would IndexError -- early-return instead
        # of relying on every caller's len() guard (ADVICE fix)
        z = np.zeros(len(lk), np.int64)
        return (np.zeros(len(lk), bool),) + tuple(z for _ in cols)
    order = np.argsort(ok)
    ok_s = ok[order]
    pos = np.clip(np.searchsorted(ok_s, lk), 0, len(ok_s) - 1)
    hit = ok_s[pos] == lk
    return (hit,) + tuple(
        od[c].to_numpy(np.int64)[order][pos] for c in cols)


def q_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape ("local supplier volume"): revenue of lineitems
    whose customer and supplier share a nation, per nation name.
    Plan: the two dim maps (custkey -> nation, suppkey -> nation)
    broadcast once as sorted arrays; slim lineitem and orders sides
    co-partition by hash(orderkey) in ONE tagged exchange
    (_copartition_by_key -- measured 14.8 s -> 8.8 s at 49.5M lines
    vs the Acero join); each bucket kernel probes orders by
    searchsorted, resolves both nations, keeps the equal ones, and
    emits 25-row nation partials."""
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas()
    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_nationkey"]).to_pandas()
    nat = _read(sf_dir, "nation",
                ["n_nationkey", "n_name"]).to_pandas()
    ck = cust.sort_values("c_custkey")
    sk = supp.sort_values("s_suppkey")
    ref = ray.put((ck["c_custkey"].to_numpy(np.int64),
                   ck["c_nationkey"].to_numpy(np.int64),
                   sk["s_suppkey"].to_numpy(np.int64),
                   sk["s_nationkey"].to_numpy(np.int64)))

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice"])
    o = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def li_prep(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["l_orderkey"].combine_chunks(),
                         "a": t["l_suppkey"].combine_chunks(),
                         "c": _cents(t["l_extendedprice"])})

    def o_prep(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["o_orderkey"].combine_chunks(),
                         "a": t["o_custkey"].combine_chunks(),
                         "c": pa.array(np.zeros(t.num_rows, np.int64))})

    def kern(g: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        cks, ckn, sks, skn = ray.get(_ref)
        side = g["_side"].to_numpy()
        ln, od = g[side == 0], g[side == 1]
        if not len(od) or not len(ln):
            return pd.DataFrame({
                "n_nationkey": pd.Series([], dtype=np.int64),
                "_c": pd.Series([], dtype=np.int64)})
        lk = ln["k"].to_numpy(np.int64)
        hit, oc = _probe_orders(od, lk, "a")
        cn = ckn[np.searchsorted(cks, oc)]
        sn = skn[np.searchsorted(sks, ln["a"].to_numpy(np.int64))]
        keep = hit & (cn == sn)
        sub = pd.DataFrame({"n_nationkey": cn[keep],
                            "_c": ln["c"].to_numpy(np.int64)[keep]})
        return sub.groupby("n_nationkey", as_index=False,
                           sort=False)["_c"].sum()

    parts = _copartition_by_key(
        li.map_batches(li_prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        o.map_batches(o_prep, batch_format="pyarrow",
                      zero_copy_batch=True), kern).to_pandas()
    agg = parts.groupby("n_nationkey", as_index=False)["_c"].sum()
    agg = agg.rename(columns={"_c": "revenue"})
    out = agg.merge(nat, on="n_nationkey")[["n_name", "revenue"]]
    out["revenue"] = out["revenue"].astype(np.int64)
    return out


def q_forecast_revenue(sf_dir: str):
    """TPC-H Q6 shape ("forecasting revenue change"): one-row
    filter-aggregate -- revenue (price x discount) of low-quantity
    1996 lines with discount in [5%, 7%].  Exact integers: discount
    re-quantized to permille, revenue in cent-permille micros; the
    whole corpus collapses to per-block (sum, count) partials."""
    li = _read(sf_dir, "lineitem",
               ["l_extendedprice", "l_discount", "l_quantity",
                "l_shipdate"])
    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1997, 1, 1)

    def partial(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].combine_chunks().cast(pa.timestamp("us"))
        disc = t["l_discount"].combine_chunks().to_numpy()
        dp = np.floor(disc * 1000 + 0.5).astype(np.int64)
        qty = t["l_quantity"].combine_chunks().to_numpy()
        keep = ((dp >= 50) & (dp <= 70) & (qty < 24)
                & pc.and_(pc.greater_equal(sd, lo),
                          pc.less(sd, hi)).to_numpy(
                              zero_copy_only=False))
        cents = _cents(t["l_extendedprice"]).to_numpy()[keep]
        return pa.table({
            "revenue_micros": pa.array(
                [int((cents * dp[keep]).sum())], pa.int64()),
            "n_lines": pa.array([int(keep.sum())], pa.int64())})

    parts = li.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    return pd.DataFrame({
        "revenue_micros": np.asarray([parts["revenue_micros"].sum()],
                                     np.int64),
        "n_lines": np.asarray([parts["n_lines"].sum()], np.int64)})


def q_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 shape ("minimum cost supplier"): per part, the
    cheapest line's supplier (lexicographic (price, suppkey) argmin --
    deterministic ties), decorated with the supplier's nation.  Plan:
    (cents, suppkey) packs into ONE int64 (stride = max suppkey + 1,
    overflow-asserted per block) so the lexicographic argmin is a
    plain hash groupby-MIN -- no mergesort, no drop_duplicates; ONE
    bucketed fold does the aggregation, and the supplier->nation
    decoration is a driver-side searchsorted over the fold output.
    The per-block pre-agg is deliberately SKIPPED: with part
    cardinality within ~6x of the block row count, keys barely repeat
    inside a block, so the pre-agg shrank the exchange by only ~8%
    while paying a 1.4M-key hash groupby per block (measured 13.5 ->
    10.6 s without it at 49.5M lines / 8M parts); low-cardinality key
    regimes are where block pre-aggregation pays."""
    from ci_log_processing_ray.ops.window import bucketed_groups

    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_nationkey"]).to_pandas()
    stride = int(supp["s_suppkey"].max()) + 1
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.floor(df["l_extendedprice"].to_numpy()
                     * 100 + 0.5).astype(np.int64)
        assert c.max(initial=0) < (1 << 62) // stride
        v = c * stride + df["l_suppkey"].to_numpy(np.int64)
        return pd.DataFrame({
            "l_partkey": df["l_partkey"].to_numpy(np.int64), "v": v})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("l_partkey", as_index=False,
                         sort=False)["v"].min()

    best = bucketed_groups(
        li.map_batches(partial, batch_format="pandas"),
        "l_partkey", fold).to_pandas()

    v = best["v"].to_numpy(np.int64)
    sk = np.int64(v % stride)
    sp = supp.sort_values("s_suppkey")
    nat = sp["s_nationkey"].to_numpy(np.int64)[
        np.searchsorted(sp["s_suppkey"].to_numpy(np.int64), sk)]
    return pd.DataFrame({
        "l_partkey": best["l_partkey"].astype(np.int64),
        "l_suppkey": sk,
        "min_cents": np.int64(v // stride),
        "s_nationkey": nat})


def _li_orders_coparts(sf_dir: str, order_attr):
    """Shared front half of the Q5/Q7/Q8-style shapes: slim lineitem
    (k=orderkey, a=suppkey, c=cents) and orders (k=orderkey,
    a=order_attr(block), c=0) sides ready for _copartition_by_key,
    plus broadcast sorted (custkey -> nation, suppkey -> nation)
    maps."""
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas()
    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_nationkey"]).to_pandas()
    ck = cust.sort_values("c_custkey")
    sk = supp.sort_values("s_suppkey")
    ref = ray.put((ck["c_custkey"].to_numpy(np.int64),
                   ck["c_nationkey"].to_numpy(np.int64),
                   sk["s_suppkey"].to_numpy(np.int64),
                   sk["s_nationkey"].to_numpy(np.int64)))
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice"])

    def li_prep(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["l_orderkey"].combine_chunks(),
                         "a": t["l_suppkey"].combine_chunks(),
                         "c": _cents(t["l_extendedprice"])})

    ocols, attr_fn = order_attr
    o = _read(sf_dir, "orders", ["o_orderkey"] + ocols)

    def o_prep(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["o_orderkey"].combine_chunks(),
                         "a": attr_fn(t),
                         "c": pa.array(np.zeros(t.num_rows, np.int64))})

    return (li.map_batches(li_prep, batch_format="pyarrow",
                           zero_copy_batch=True),
            o.map_batches(o_prep, batch_format="pyarrow",
                          zero_copy_batch=True), ref)


def q_nation_pair_volume(sf_dir: str):
    """TPC-H Q7 shape ("volume shipping"): revenue per ORDERED
    (supplier nation, customer nation) pair, cross-nation pairs only.
    Same broadcast-dim + one-exchange co-partition plan as Q5; each
    bucket kernel emits at most nations^2 pair partials."""
    lis, os_, ref = _li_orders_coparts(
        sf_dir, (["o_custkey"],
                 lambda t: t["o_custkey"].combine_chunks()))

    def kern(g: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        cks, ckn, sks, skn = ray.get(_ref)
        side = g["_side"].to_numpy()
        ln, od = g[side == 0], g[side == 1]
        if not len(od) or not len(ln):
            return pd.DataFrame({
                "supp_nation": pd.Series([], dtype=np.int64),
                "cust_nation": pd.Series([], dtype=np.int64),
                "_c": pd.Series([], dtype=np.int64)})
        lk = ln["k"].to_numpy(np.int64)
        hit, oc = _probe_orders(od, lk, "a")
        cn = ckn[np.searchsorted(cks, oc)]
        sn = skn[np.searchsorted(sks, ln["a"].to_numpy(np.int64))]
        keep = hit & (cn != sn)
        sub = pd.DataFrame({"supp_nation": sn[keep],
                            "cust_nation": cn[keep],
                            "_c": ln["c"].to_numpy(np.int64)[keep]})
        return sub.groupby(["supp_nation", "cust_nation"],
                           as_index=False, sort=False)["_c"].sum()

    parts = _copartition_by_key(lis, os_, kern).to_pandas()
    agg = parts.groupby(["supp_nation", "cust_nation"],
                        as_index=False)["_c"].sum()
    agg = agg.rename(columns={"_c": "revenue"})
    for c in agg.columns:
        agg[c] = agg[c].astype(np.int64)
    return agg


def q_market_share(sf_dir: str):
    """TPC-H Q8 shape ("national market share"): per order-year, the
    permille of total revenue carried by suppliers of nation 0.  Same
    broadcast-dim + one-exchange co-partition plan as Q5; the order
    attribute shipped through the exchange is the pre-computed order
    YEAR, and the (year, nation-flag) partials are years-sized."""
    def year_attr(t: pa.Table) -> pa.Array:
        us = pc.cast(t["o_orderdate"].combine_chunks()
                     .cast(pa.timestamp("us")), pa.int64()).to_numpy()
        return pa.array(
            1970 + us.view("M8[us]").astype("M8[Y]").astype(np.int64))

    lis, os_, ref = _li_orders_coparts(
        sf_dir, (["o_orderdate"], year_attr))

    def kern(g: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        cks, ckn, sks, skn = ray.get(_ref)
        side = g["_side"].to_numpy()
        ln, od = g[side == 0], g[side == 1]
        if not len(od) or not len(ln):
            return pd.DataFrame({
                "o_year": pd.Series([], dtype=np.int64),
                "_t": pd.Series([], dtype=np.int64),
                "_n": pd.Series([], dtype=np.int64)})
        lk = ln["k"].to_numpy(np.int64)
        hit, year = _probe_orders(od, lk, "a")
        sn = skn[np.searchsorted(sks, ln["a"].to_numpy(np.int64))]
        cents = ln["c"].to_numpy(np.int64)
        sub = pd.DataFrame({
            "o_year": year[hit], "_t": cents[hit],
            "_n": np.where(sn[hit] == 0, cents[hit], 0)})
        return sub.groupby("o_year", as_index=False,
                           sort=False)[["_t", "_n"]].sum()

    parts = _copartition_by_key(lis, os_, kern).to_pandas()
    agg = parts.groupby("o_year", as_index=False)[["_t", "_n"]].sum()
    agg = agg.rename(columns={"_t": "total_cents",
                              "_n": "nation_cents"})
    agg["share_permille"] = [
        int(n) * 1000 // int(t) if int(t) else -1
        for n, t in zip(agg["nation_cents"], agg["total_cents"])]
    for c in agg.columns:
        agg[c] = agg[c].astype(np.int64)
    return agg


def q_priority_class_counts(sf_dir: str):
    """TPC-H Q12 shape ("shipping modes and order priority", adapted:
    the schema subset has no shipmode, so lines group by linestatus):
    among lines shipped >60 days after the order date, per linestatus
    the count of high-priority (1-URGENT/2-HIGH) vs other orders'
    lines.  Plan: one tagged co-partition exchange
    (_copartition_by_key) instead of the hash join; the orders side
    ships ONE packed int64 (orderdate_us * 2 + is_high, asserted in
    range) so no priority strings move, and each bucket kernel emits
    linestatus-sized count partials."""
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linestatus", "l_shipdate"])
    o = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate",
                                 "o_orderpriority"])
    sixty_us = 60 * 86_400_000_000

    def li_prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": t["l_orderkey"].combine_chunks(),
            "v": pc.cast(t["l_shipdate"].combine_chunks()
                         .cast(pa.timestamp("us")), pa.int64()),
            "ls": t["l_linestatus"].combine_chunks()})

    def o_prep(t: pa.Table) -> pa.Table:
        od = pc.cast(t["o_orderdate"].combine_chunks()
                     .cast(pa.timestamp("us")), pa.int64()).to_numpy()
        pr = t["o_orderpriority"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(str)
        high = (np.char.startswith(pr, "1-")
                | np.char.startswith(pr, "2-")).astype(np.int64)
        assert not len(od) or abs(od).max() < (1 << 62)
        return pa.table({
            "k": t["o_orderkey"].combine_chunks(),
            "v": pa.array(od * 2 + high),
            "ls": pa.array([""] * t.num_rows, pa.string())})

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        side = g["_side"].to_numpy()
        ln, od = g[side == 0], g[side == 1]
        if not len(od) or not len(ln):
            return pd.DataFrame({
                "l_linestatus": pd.Series([], dtype=object),
                "_h": pd.Series([], dtype=np.int64),
                "_l": pd.Series([], dtype=np.int64)})
        lk = ln["k"].to_numpy(np.int64)
        hit, packed = _probe_orders(od, lk, "v")
        odate, high = packed >> 1, (packed & 1).astype(bool)
        late = hit & (ln["v"].to_numpy(np.int64) > odate + sixty_us)
        sub = pd.DataFrame({
            "l_linestatus": ln["ls"].to_numpy()[hit],
            "_h": (late & high)[hit].astype(np.int64),
            "_l": (late & ~high)[hit].astype(np.int64)})
        return sub.groupby("l_linestatus", as_index=False,
                           sort=False)[["_h", "_l"]].sum()

    parts = _copartition_by_key(
        li.map_batches(li_prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        o.map_batches(o_prep, batch_format="pyarrow",
                      zero_copy_batch=True), kern).to_pandas()
    agg = parts.groupby("l_linestatus",
                        as_index=False)[["_h", "_l"]].sum()
    agg = agg.rename(columns={"_h": "high_line_count",
                              "_l": "low_line_count"})
    for c in ("high_line_count", "low_line_count"):
        agg[c] = agg[c].astype(np.int64)
    return agg


def q_parts_supplier_cnt(sf_dir: str):
    """TPC-H Q16 shape ("parts/supplier relationship"): per
    (p_brand, p_size), the count of DISTINCT suppliers shipping that
    part, excluding a supplier blocklist (names ending in '7' -- the
    Q16 NOT IN).  Plan: part attrs + the blocklist broadcast sorted;
    the (brand*1000+size, supplier) pair packs into ONE int64 key so
    the distinct exchange ships a single column of block-unique keys
    (measured 22.4 s -> 13.6 s at 49.5M lines vs the two-column
    distinct), and the per-bucket kernel unpacks and counts in two
    numpy passes; the driver-side fold is brand x size x buckets
    sized."""
    from ci_log_processing_ray.ops.window import bucketed_groups

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_brand", "p_size"])
    # Arrow dictionary_encode, NOT np.unique over the string column:
    # 0.18 s vs 5.8 s on an 8M-part table; remap codes to the sorted
    # brand order so downstream stays deterministic
    enc = pc.dictionary_encode(part["p_brand"].combine_chunks())
    bdict = np.asarray(enc.dictionary.to_pylist())
    order = np.argsort(bdict)
    inv = np.empty(len(order), np.int64)
    inv[order] = np.arange(len(order))
    brands = bdict[order]
    bcodes = inv[enc.indices.to_numpy().astype(np.int64)]
    pk = part["p_partkey"].combine_chunks().to_numpy()
    srt = np.argsort(pk)
    pk = pk[srt]
    bcodes = bcodes[srt]
    sizes = part["p_size"].combine_chunks().to_numpy()[srt]
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_name"])
    bad = np.sort(supp.filter(
        pc.ends_with(supp["s_name"].combine_chunks(), "7"))
        ["s_suppkey"].combine_chunks().to_numpy())
    # pack stride: one past the max suppkey, so bs*stride+supp is a
    # bijection; brand x size codes stay far below int64 overflow
    ns = int(pc.max(supp["s_suppkey"]).as_py()) + 1
    assert (len(brands) * 1000 + 1000) < (1 << 62) // ns
    # the 1000 stride encodes (brand, size) bijectively ONLY if
    # 0 <= p_size < 1000 -- out-of-range sizes would silently alias
    # distinct cells into one supplier_cnt bucket (ADVICE fix)
    assert sizes.min() >= 0 and sizes.max() < 1000, \
        f"p_size out of packing range [0,1000): {sizes.min()}..{sizes.max()}"
    ref = ray.put((pk, _dense_base(pk), bcodes,
                   sizes.astype(np.int64), bad))

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    def partial(t: pa.Table, _ref=ref) -> pa.Table:
        pk, base, bc, sz, badk = ray.get(_ref)
        p = t["l_partkey"].combine_chunks().to_numpy()
        s = t["l_suppkey"].combine_chunks().to_numpy()
        pos = _probe_positions(pk, base, p)
        if len(badk):
            bpos = np.clip(np.searchsorted(badk, s), 0, len(badk) - 1)
            keep = badk[bpos] != s
        else:
            keep = np.ones(len(s), bool)
        key = (bc[pos][keep] * 1000 + sz[pos][keep]) * ns + s[keep]
        return pa.table({"ps": pa.array(np.unique(key))})

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        ps = np.unique(g["ps"].to_numpy(np.int64))
        ubs, n = np.unique(ps // ns, return_counts=True)
        return pd.DataFrame({"bs": ubs,
                             "supplier_cnt": n.astype(np.int64)})

    cnt = bucketed_groups(
        li.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "ps", kern).to_pandas()
    cnt = cnt.groupby("bs", as_index=False)["supplier_cnt"].sum()
    bs = cnt["bs"].to_numpy(np.int64)
    out = pd.DataFrame({
        "p_brand": brands[bs // 1000],
        "p_size": (bs % 1000).astype(np.int64),
        "supplier_cnt": cnt["supplier_cnt"].to_numpy(np.int64)})
    return out


def q_discounted_revenue(sf_dir: str):
    """TPC-H Q19 shape ("discounted revenue"): one-row revenue under
    an OR of three (brand, size-range, quantity-range) branches -- the
    disjunctive-predicate join.  Part attrs broadcast sorted with the
    brand DICTIONARY-ENCODED driver-side (0.2 s vs 5.8 s np string
    ops on an 8M-part table), so each branch mask compares int codes,
    never strings."""
    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_brand", "p_size"])
    enc = pc.dictionary_encode(part["p_brand"].combine_chunks())
    bdict = np.asarray(enc.dictionary.to_pylist())
    codes = enc.indices.to_numpy().astype(np.int64)
    pk = part["p_partkey"].combine_chunks().to_numpy()
    srt = np.argsort(pk)
    pk = pk[srt]
    ref = ray.put((pk, _dense_base(pk), codes[srt],
                   part["p_size"].combine_chunks().to_numpy()[srt]))

    def brand_code(name: str) -> int:
        w = np.flatnonzero(bdict == name)
        return int(w[0]) if len(w) else -1

    branches = [(brand_code("Brand#12"), 1, 25, 1, 20),
                (brand_code("Brand#23"), 1, 30, 15, 35),
                (brand_code("Brand#34"), 1, 35, 30, 50)]

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])

    def partial(t: pa.Table, _ref=ref) -> pa.Table:
        pk, base, brand, size = ray.get(_ref)
        p = t["l_partkey"].combine_chunks().to_numpy()
        qty = t["l_quantity"].combine_chunks().to_numpy()
        pos = _probe_positions(pk, base, p)
        b, sz = brand[pos], size[pos]
        keep = np.zeros(len(p), bool)
        for br, s_lo, s_hi, q_lo, q_hi in branches:
            keep |= ((b == br) & (sz >= s_lo) & (sz <= s_hi)
                     & (qty >= q_lo) & (qty <= q_hi))
        cents = _cents(t["l_extendedprice"]).to_numpy()[keep]
        return pa.table({
            "revenue_cents": pa.array([int(cents.sum())], pa.int64()),
            "n_lines": pa.array([int(keep.sum())], pa.int64())})

    parts = li.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    return pd.DataFrame({
        "revenue_cents": np.asarray([parts["revenue_cents"].sum()],
                                    np.int64),
        "n_lines": np.asarray([parts["n_lines"].sum()], np.int64)})


def q_dominant_suppliers(sf_dir: str):
    """TPC-H Q20 shape ("potential part promotion", adapted to the
    schema subset): suppliers shipping MORE THAN 20% of some part's
    total quantity (5*sq > tot -- the nested aggregate-threshold
    semi-join), with how many parts they dominate.  Plan: one
    part-keyed bucketed exchange whose kernel folds the pair sums AND
    the part totals (co-located by construction); the per-supplier
    count fold is supplier-sized.  The per-block (part,supp) pre-agg
    is deliberately SKIPPED -- pairs are ~95% unique within a block
    at this cardinality, so it shrank nothing while paying an Arrow
    group_by per block (11.8 -> 9.8 s without it at 49.5M lines)."""
    from ci_log_processing_ray.ops.window import (bucketed_groups,
                                                  bucketed_sum)

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": t["l_partkey"].combine_chunks(),
            "l_suppkey": t["l_suppkey"].combine_chunks(),
            "_q": pc.cast(t["l_quantity"].combine_chunks(),
                          pa.int64())})

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["l_partkey", "l_suppkey"], as_index=False,
                      sort=False)["_q"].sum()
        tot = g.groupby("l_partkey", sort=False)["_q"].transform("sum")
        hit = g[5 * g["_q"].to_numpy(np.int64)
                > tot.to_numpy(np.int64)]
        return pd.DataFrame({
            "l_suppkey": hit["l_suppkey"].to_numpy(np.int64),
            "n_dominant_parts": np.ones(len(hit), np.int64)})

    parts = bucketed_groups(
        li.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "l_partkey", kern)
    # supplier count fold: the hit table is (part,supp)-pair shaped
    # (dominance is COMMON on sparse parts), so the native
    # Dataset.groupby would pay the per-distinct-group merge cost on
    # pandas blocks -- bucketed_sum keeps it one C-speed kernel per
    # bucket (measured 187 s -> 2 s at 1.8M hit rows / 100k suppliers)
    # _collect, not .to_pandas(): dominance legitimately EMPTIES as
    # lines-per-part grows (at 135M lines / 8M parts no supplier
    # clears 20% -- found by the round-4 all-shapes 135M proof), and
    # an empty pandas-block dataset would drop its columns
    agg = _collect(bucketed_sum(parts, ["l_suppkey"],
                                ["n_dominant_parts"]),
                   fallback=pa.schema([
                       ("l_suppkey", pa.int64()),
                       ("n_dominant_parts", pa.int64())])).to_pandas()
    agg["l_suppkey"] = agg["l_suppkey"].astype(np.int64)
    agg["n_dominant_parts"] = agg["n_dominant_parts"].astype(np.int64)
    return agg.reset_index(drop=True)


def q_sorted_export(sf_dir: str):
    """Resumable globally-sorted Parquet export
    (pipelines/export.py:sorted_export): range-partitioned files with
    per-range manifests and a monotone min/max chain assertion.
    Rows-only (cut points come from a DDSketch pass); returns the
    committed per-range stats.  Resume + order pinned by
    tests/test_pipeline.py."""
    import shutil as _sh
    import tempfile as _tf

    from ci_log_processing_ray.pipelines.export import sorted_export
    from ci_log_processing_ray.state.manifest import ManifestStore

    ev = _read(sf_dir, "events", ["event_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t["event_id"],
                         "cents": _cents(t["value"])})

    out = _tf.mkdtemp(prefix="sorted_export_", dir="/tmp")
    try:
        sorted_export(ev.map_batches(prep, batch_format="pyarrow",
                                     zero_copy_batch=True),
                      "cents", out, n_ranges=8)
        store = ManifestStore(out + "/_manifests")
        rows = []
        for m in sorted(store.all(), key=lambda m: m.partition_id):
            rows.append({"range_id": m.partition_id,
                         "rows": int(m.row_count),
                         "min_cents": int(m.per_sink_counts["min"]),
                         "max_cents": int(m.per_sink_counts["max"])})
        return pd.DataFrame(rows)
    finally:
        _sh.rmtree(out, ignore_errors=True)


def q_winnow_fingerprints(sf_dir: str):
    """Winnowing-family local-minima document fingerprints
    (ops/dedup.py:local_minima_fingerprints): per doc, windows /
    selected / checksum from ONE whole-batch rolling hash + two
    doubling rolling-min passes.  Oracle-checked since r5: the fixed-k
    window hash is a plain polynomial sum DuckDB reproduces
    term-for-term, and the local-minima selection is one SQL window
    min (_WINNOW_ORACLE); the brute-force parity test additionally
    pins the selection rule (tests/test_ops.py).

    BINDING in-query gates over the planted-augmented corpus (exact
    copies at +1e6 for doc_id % 50 == 0): (a) every planted copy's
    (n_windows, n_selected, fp_checksum) must EQUAL its base's --
    fingerprinting is content-defined, so identical text must
    fingerprint identically across different batch placements; (b) the
    global selection density must sit in the [1/3x, 3x] band around
    the 1/(2w-1) local-minima expectation -- a broken rolling-min
    kernel lands far outside it."""
    from ci_log_processing_ray.ops.dedup import local_minima_fingerprints

    _assert_text_len_domain(sf_dir, lo=8, hi=2047,
                            name="winnow_fingerprints")
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(local_minima_fingerprints(
        _plant_dup_texts(ds), "text", "doc_id", k=8, w=5)).to_pandas()
    idx = out.set_index("doc_id")
    ids = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id"])["doc_id"].to_numpy()
    for b in ids[ids % 50 == 0]:
        p = b + _PLANT_OFF
        if p not in idx.index or b not in idx.index:
            raise AssertionError(
                f"winnow_fingerprints: planted id {p} missing")
        if not idx.loc[p].equals(idx.loc[b]):
            raise AssertionError(
                f"winnow_fingerprints: planted copy {p} fingerprints "
                f"differently from base {b}")
    n_win = int(out["n_windows"].sum())
    n_sel = int(out["n_selected"].sum())
    w = 5
    if not (n_win // (3 * (2 * w - 1)) <= n_sel
            <= 3 * n_win // (2 * w - 1)):
        raise AssertionError(
            f"winnow_fingerprints: selection density {n_sel}/{n_win} "
            f"outside the 1/(2w-1) band")
    return out


def q_weighted_median_group(sf_dir: str):
    """Exact quantity-WEIGHTED median and p90 price per return flag
    (ops/quantile.py:quantile_disc_by_group weight_col mode): a row
    counts weight times, identical to percentile_disc over the
    weight-expanded multiset, with (group, value, weight-sum) partials
    and no row expansion anywhere."""
    from ci_log_processing_ray.ops.quantile import quantile_disc_by_group

    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_extendedprice", "l_quantity"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "cents": _cents(t["l_extendedprice"]),
            "qty": pc.cast(t["l_quantity"].combine_chunks(),
                           pa.int64())})

    return quantile_disc_by_group(
        li.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "l_returnflag", "cents", {"wmedian": 0.5, "wq90": 0.9},
        weight_col="qty")


def q_dedup_savings(sf_dir: str):
    """Exact-dedup ROI accounting per source: docs, kept (global
    first-by-doc_id per text), and characters removed -- the
    curation-impact report every dedup run needs.  One 8-byte
    text-hash exchange (payloads never move, the ops/dedup.py exact
    contract); each removed doc is attributed to ITS source, so
    cross-source duplicates debit the copier, not the original.

    HASH-ONLY EQUALITY CONTRACT (shared with every ops/dedup.py exact
    caller): two texts are "duplicates" iff their 64-bit
    pd.util.hash_array values collide.  The DuckDB oracle binds exact
    text equality, so a true 64-bit collision between DISTINCT texts
    would diverge from the oracle -- accepted odds ~n^2/2^64 (~1e-11
    at sf0.01), the standard content-hash dedup tradeoff at corpus
    scale where shipping full texts through the exchange is the thing
    this design exists to avoid."""
    from ci_log_processing_ray.ops.window import bucketed_groups

    ds = _read(sf_dir, "documents",
               ["doc_id", "text", "source", "n_chars"])

    def prep(t: pa.Table) -> pa.Table:
        h = pd.util.hash_array(
            t["text"].combine_chunks().to_numpy(zero_copy_only=False)
            .astype(object)).astype(np.int64)
        return pa.table({
            "_h": pa.array(h),
            "doc_id": t["doc_id"],
            "source": t["source"],
            "n_chars": pc.cast(t["n_chars"].combine_chunks(),
                               pa.int64())})

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        keep_doc = g.groupby("_h")["doc_id"].transform("min")
        removed = (g["doc_id"] != keep_doc).to_numpy()
        out = pd.DataFrame({
            "source": g["source"].to_numpy(),
            "n_docs": np.ones(len(g), np.int64),
            "n_kept": (~removed).astype(np.int64),
            "chars_removed": np.where(removed,
                                      g["n_chars"].to_numpy(np.int64),
                                      0)})
        return out.groupby("source", as_index=False, sort=False).sum()

    parts = bucketed_groups(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "_h", kern)
    agg = parts.groupby("source").sum(
        ["n_docs", "n_kept", "chars_removed"]).to_pandas()
    agg = agg.rename(columns={"sum(n_docs)": "n_docs",
                              "sum(n_kept)": "n_kept",
                              "sum(chars_removed)": "chars_removed"})
    for c in ("n_docs", "n_kept", "chars_removed"):
        agg[c] = agg[c].astype(np.int64)
    return agg


def q_rolling_extrema(sf_dir: str):
    """ROWS-frame sliding max/min of the last 5 events per user
    (ops/window.py:sliding_extrema_by_group): RMQ sparse-table
    doubling -- ceil(log2 k) whole-bucket numpy passes, exact partial
    head windows, zero per-group dispatch."""
    from ci_log_processing_ray.ops.window import sliding_extrema_by_group

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "ts_us": pc.cast(t["ts"].combine_chunks()
                             .cast(pa.timestamp("us")), pa.int64()),
            "event_id": t["event_id"],
            "cents": _cents(t["value"])})

    out = sliding_extrema_by_group(
        ev.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "user_id", ["ts_us", "event_id"], "cents", k=5)
    return out.map_batches(
        lambda df: df[["user_id", "event_id", "cents",
                       "roll_max", "roll_min"]],
        batch_format="pandas")


def q_scd2(sf_dir: str):
    """Slowly-changing-dimension type-2 interval build over the event
    stream (ops/window.py:validity_intervals): each change row gets
    [valid_from, valid_to) with the key's next change as the end
    (open sentinel 2100-01-01) -- one key-bucketed exchange, sort-once
    shifted-compare lead, no per-key Python."""
    from ci_log_processing_ray.ops.window import validity_intervals

    ev = _read(sf_dir, "events",
               ["user_id", "ts", "event_id", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "ts_us": pc.cast(t["ts"].combine_chunks()
                             .cast(pa.timestamp("us")), pa.int64()),
            "event_id": t["event_id"],
            "event_type": t["event_type"]})

    return validity_intervals(
        ev.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "user_id", "ts_us", "event_id", ["event_type"])


def q_span_corruption(sf_dir: str):
    """T5-style span corruption accounting
    (ops/curation.py:span_corruption_stats): the mask is actually
    built (whole-batch global token index + modular test + run-start
    reduceats) while the oracle counts the same mask in closed form,
    binding the kernel exactly."""
    from ci_log_processing_ray.ops.curation import span_corruption_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return span_corruption_stats(ds, "text", "doc_id",
                                 span_len=3, period=5)


def q_late_orders(sf_dir: str):
    """TPC-H Q4 shape ("order priority checking"): orders whose latest
    line shipped more than 60 days after the order date, counted per
    priority.  Plan: per-order max-shipdate block partials and the
    slim orders side co-partition by hash(orderkey) in ONE
    tagged-union exchange whose kernel folds the max, probes orders
    by searchsorted, and emits priority-sized count partials -- the
    EXISTS subquery costs one exchange total, no hash join and no
    separate fold (measured 17.1 s -> 6.6 s at 49.5M lines vs the
    fold-then-Acero-join plan)."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    o = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate",
                                 "o_orderpriority"])
    sixty_days_us = 60 * 86_400_000_000

    def ship_partial(t: pa.Table) -> pa.Table:
        tt = pa.table({
            "k": t["l_orderkey"].combine_chunks(),
            "_v": pc.cast(t["l_shipdate"].combine_chunks()
                          .cast(pa.timestamp("us")), pa.int64())})
        g = tt.group_by("k").aggregate([("_v", "max")])
        return pa.table({
            "k": g["k"], "_v": g["_v_max"],
            "pri": pa.array([""] * g.num_rows, pa.string())})

    def o_prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": t["o_orderkey"].combine_chunks(),
            "_v": pc.cast(t["o_orderdate"].combine_chunks()
                          .cast(pa.timestamp("us")), pa.int64()),
            "pri": t["o_orderpriority"].combine_chunks()})

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        side = g["_side"].to_numpy()
        ms = g[side == 0].groupby("k", sort=False)["_v"].max()
        od = g[side == 1]
        if not len(ms) or not len(od):
            return pd.DataFrame({
                "o_orderpriority": pd.Series([], dtype=object),
                "order_count": pd.Series([], dtype=np.int64)})
        keys = ms.index.to_numpy()
        order = np.argsort(keys)
        skeys, svals = keys[order], ms.to_numpy()[order]
        ok = od["k"].to_numpy()
        pos = np.clip(np.searchsorted(skeys, ok), 0, len(skeys) - 1)
        late = ((skeys[pos] == ok)
                & (svals[pos] > od["_v"].to_numpy() + sixty_days_us))
        out = od.loc[late, ["pri"]].groupby(
            "pri", as_index=False, sort=False).size()
        out.columns = ["o_orderpriority", "order_count"]
        return out

    parts = _copartition_by_key(
        li.map_batches(ship_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        o.map_batches(o_prep, batch_format="pyarrow",
                      zero_copy_batch=True), kern,
        input_rows=2 * _table_rows(sf_dir, "orders")).to_pandas()
    if not len(parts):
        return pd.DataFrame({
            "o_orderpriority": pd.Series([], dtype=object),
            "order_count": pd.Series([], dtype=np.int64)})
    agg = parts.groupby("o_orderpriority",
                        as_index=False)["order_count"].sum()
    agg["order_count"] = agg["order_count"].astype(np.int64)
    return agg


def q_promo_share(sf_dir: str):
    """TPC-H Q14 shape ("promotion effect"): permille of monthly
    revenue from PROMO-type parts.  Plan: the promo part keys broadcast
    once as a sorted array (searchsorted membership per batch, the
    broadcast-dim idiom), lineitem collapses to per-month
    (promo_cents, total_cents) partials in one pass, and the permille
    is an exact floor division on the month-sized aggregate."""
    part = _read(sf_dir, "part", ["p_partkey", "p_type"])

    def promo_keys(t: pa.Table) -> pa.Table:
        keep = pc.starts_with(t["p_type"].combine_chunks(), "PROMO")
        return t.select(["p_partkey"]).filter(keep)

    pk = part.map_batches(promo_keys, batch_format="pyarrow",
                          zero_copy_batch=True).to_pandas()
    promo_sorted = np.sort(pk["p_partkey"].to_numpy(np.int64))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_shipdate"])

    def month_partial(t: pa.Table) -> pa.Table:
        us = pc.cast(t["l_shipdate"].combine_chunks()
                     .cast(pa.timestamp("us")), pa.int64()).to_numpy()
        months = us.view("M8[us]").astype("M8[M]").astype(np.int64)
        ship_month = ((1970 + months // 12) * 100
                      + months % 12 + 1).astype(np.int64)
        cents = _cents(t["l_extendedprice"]).to_numpy()
        keys = t["l_partkey"].combine_chunks().to_numpy()
        idx = np.searchsorted(promo_sorted, keys)
        idx[idx == len(promo_sorted)] = 0
        is_promo = (promo_sorted[idx] == keys) if len(promo_sorted) \
            else np.zeros(len(keys), bool)
        tt = pa.table({
            "ship_month": pa.array(ship_month),
            "_p": pa.array(np.where(is_promo, cents, 0)),
            "_c": pa.array(cents)})
        g = tt.group_by("ship_month").aggregate(
            [("_p", "sum"), ("_c", "sum")])
        return pa.table({"ship_month": g["ship_month"],
                         "_p": g["_p_sum"], "_c": g["_c_sum"]})

    agg = (li.map_batches(month_partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("ship_month").sum(["_p", "_c"]))

    def final(t: pa.Table) -> pa.Table:
        p = t["sum(_p)"].combine_chunks().to_numpy().astype(np.int64)
        c = t["sum(_c)"].combine_chunks().to_numpy().astype(np.int64)
        return pa.table({
            "ship_month": t["ship_month"].combine_chunks()
            .cast(pa.int64()),
            "promo_cents": pa.array(p),
            "total_cents": pa.array(c),
            "promo_permille": pa.array(1000 * p // c)})

    return agg.map_batches(final, batch_format="pyarrow",
                           zero_copy_batch=True)


def q_kcenter(sf_dir: str):
    """Greedy k-center coreset selection over the embedding table
    (ops/similarity.py:kcenter_select): 16 maximally-diverse vectors,
    exact integer quantized distances, one streaming pass per pick.
    Rows-only: the greedy argmax chain is not SQL-expressible; a
    pure-numpy parity test pins the exact selection (tests/test_ops.py).

    BINDING greedy certificate: the full chain is re-verified in-query
    against an exact-integer driver replay over the corpus -- seed =
    smallest id, then each pick must be the true argmax of min-squared-
    distance to the already-chosen set (ties to the smaller id), with
    the recorded dist exact.  Any divergence raises."""
    from ci_log_processing_ray.ops.similarity import kcenter_select

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = kcenter_select(ds, "embedding", "vec_id", k=16)
    tbl = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    ids = tbl["vec_id"].to_numpy()
    v = np.vstack(tbl["embedding"].to_numpy(
        zero_copy_only=False)).astype(np.float64)
    q = np.rint(v * 1e6).astype(np.int64)
    order = np.argsort(ids, kind="mergesort")
    ids, q = ids[order], q[order]
    sel_ids = out[out["sel_order"] == 0]["vec_id"].to_numpy()
    if int(sel_ids[0]) != int(ids[0]):
        raise AssertionError("kcenter: seed is not the smallest id")
    d2 = ((q - q[0]) ** 2).sum(axis=1)
    for i in range(1, len(out)):
        row = out[out["sel_order"] == i].iloc[0]
        best = int(d2.max())
        pick = int(ids[np.flatnonzero(d2 == best)[0]])
        if int(row["vec_id"]) != pick or int(row["dist"]) != best:
            raise AssertionError(
                f"kcenter: pick {i} is ({row['vec_id']}, {row['dist']}) "
                f"but exact replay says ({pick}, {best})")
        j = int(np.flatnonzero(ids == pick)[0])
        d2 = np.minimum(d2, ((q - q[j]) ** 2).sum(axis=1))
    return out


def q_sales_opportunity(sf_dir: str):
    """TPC-H Q22 shape ("global sales opportunity"): customers with an
    above-average positive balance and NO urgent order, rolled up per
    nation.  Plan: the average is two Python ints folded from one
    aggregate pass and broadcast into an exact cross-multiplied filter
    (``bal * n_pos > sum_pos``); the urgent-customer side collapses to
    distinct keys (block partials + bucketed distinct, re-typed to
    Arrow blocks -- Acero joins need a real schema) before a hash
    left_anti join; the nation rollup is dim-sized."""
    from ci_log_processing_ray.ops.window import bucketed_distinct

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": t["c_custkey"],
                         "c_nationkey": t["c_nationkey"],
                         "bal": _cents(t["c_acctbal"])})

    c = cust.map_batches(prep, batch_format="pyarrow",
                         zero_copy_batch=True)

    def pos_partial(t: pa.Table) -> pa.Table:
        b = t["bal"].combine_chunks().to_numpy()
        p = b[b > 0]
        return pa.table({"s": pa.array([int(p.sum())], pa.int64()),
                         "n": pa.array([len(p)], pa.int64())})

    tot = c.map_batches(pos_partial, batch_format="pyarrow",
                        zero_copy_batch=True).to_pandas()
    sum_pos = int(tot["s"].sum())
    n_pos = int(tot["n"].sum())

    rich = c.map_batches(
        lambda t: t.filter(pc.greater(
            pc.multiply(t["bal"].combine_chunks(), n_pos),
            sum_pos)),
        batch_format="pyarrow", zero_copy_batch=True)

    o = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def urgent_partial(t: pa.Table) -> pa.Table:
        keep = pc.starts_with(t["o_orderpriority"].combine_chunks(),
                              "1-")
        return (t.select(["o_custkey"]).filter(keep)
                .group_by("o_custkey").aggregate([]))

    urgent = bucketed_distinct(
        o.map_batches(urgent_partial, batch_format="pyarrow",
                      zero_copy_batch=True),
        ["o_custkey"]).map_batches(
            lambda t: t, batch_format="pyarrow")

    idle = rich.join(urgent, "left_anti",
                     num_partitions=_join_partitions(
                         sf_dir, "customer", "orders"),
                     on=("c_custkey",), right_on=("o_custkey",))
    out = idle.groupby("c_nationkey").aggregate(
        Count(alias_name="n_cust"), Sum("bal", alias_name="sum_bal"))
    return _collect(out)


def q_chi2_lang_source(sf_dir: str):
    """Chi-squared independence cells for lang x source over the
    corpus (ops/groupagg.py:chi2_contingency_cells): exact integer
    expected/term micros so the HUGEINT DuckDB oracle matches
    bit-for-bit; blocks collapse to cell-count partials before one
    vocabulary-shaped groupby."""
    from ci_log_processing_ray.ops.groupagg import chi2_contingency_cells

    ds = _read(sf_dir, "documents", ["lang", "source"])
    return chi2_contingency_cells(ds, "lang", "source")


def q_classifier_eval(sf_dir: str):
    """Per-class precision/recall/F1 permille of the lang_id heuristic
    against the true lang column (ops/groupagg.py:classifier_eval):
    the multi-class evaluation primitive over a distributed confusion
    matrix; -1 sentinel for zero denominators keeps the oracle
    binding."""
    from ci_log_processing_ray.ops.groupagg import classifier_eval

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return classifier_eval(language_id(ds, "text"), "lang", "lang_pred")


def q_calibration(sf_dir: str):
    """Reliability-diagram bins: does order price calibrate against
    order completion?  Fixed $50k score bins with exact integer mean
    label permille and mean score
    (ops/groupagg.py:calibration_bins)."""
    from ci_log_processing_ray.ops.groupagg import calibration_bins

    ds = _read(sf_dir, "orders", ["o_totalprice", "o_orderstatus"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "score": _cents(t["o_totalprice"]),
            "label": pc.cast(pc.equal(t["o_orderstatus"].combine_chunks(),
                                      "F"), pa.int64())})

    return calibration_bins(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "score", "label", bin_width=5_000_000)


def q_seasonal_index(sf_dir: str):
    """Day-of-week seasonality profile per event type
    (ops/groupagg.py:seasonal_index_by_group): exact integer permille
    index mean_dow/mean_overall, dow from epoch days (locale/TZ-free);
    the corpus collapses to (type, dow) partials in one pass."""
    from ci_log_processing_ray.ops.groupagg import seasonal_index_by_group

    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "ts": t["ts"],
                         "cents": _cents(t["value"])})

    return seasonal_index_by_group(
        ev.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "event_type", "ts", "cents")


def q_funnel(sf_dir: str):
    """Two-step funnel (view -> purchase within 30 min, per user):
    one co-partitioning shuffle of (user, ts, side) triples, per-bucket
    searchsorted kernel (ops/window.py:funnel_first_conversion)."""
    from ci_log_processing_ray.ops.window import funnel_first_conversion

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    return funnel_first_conversion(
        ev, "user_id", "ts", "event_type",
        step_a="view", step_b="purchase",
        window=datetime.timedelta(minutes=30))


def q_pagerank(sf_dir: str):
    """Fixed-point PageRank (custom iterative operator,
    ops/iterative.py:pagerank_fixedpoint): 3 rounds of integer power
    iteration over a deterministic event graph (user_id ->
    event_id mod 500).  Every step is int64 floor arithmetic, so the
    DuckDB oracle (3 unrolled join+aggregate rounds) reproduces the
    values bit-for-bit -- a rare value-hash-exact iterative algorithm."""
    from ci_log_processing_ray.ops.iterative import pagerank_fixedpoint

    ev = _read(sf_dir, "events", ["user_id", "event_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        eid = t["event_id"].combine_chunks().to_numpy()
        return pa.table({
            "src": t["user_id"].combine_chunks(),
            "dst": pa.array(eid % 500)})

    edges = ev.map_batches(mk_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return pagerank_fixedpoint(edges, "src", "dst", n_iter=3)


def q_ppr(sf_dir: str):
    """Personalized PageRank (random walk with restart,
    ops/iterative.py:personalized_pagerank_fixedpoint): same event
    graph and int64 floor arithmetic as q_pagerank, but ALL restart
    mass concentrates on the seed users (user_id % 10 == 0), so ranks
    measure proximity to the seeds -- the recommendation variant,
    still value-hash exact against 3 unrolled SQL rounds with a
    seed-conditional teleport."""
    from ci_log_processing_ray.ops.iterative import (
        personalized_pagerank_fixedpoint)

    ev = _read(sf_dir, "events", ["user_id", "event_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        eid = t["event_id"].combine_chunks().to_numpy()
        return pa.table({
            "src": t["user_id"].combine_chunks(),
            "dst": pa.array(eid % 500)})

    def mk_seeds(t: pa.Table) -> pa.Table:
        uid = t["user_id"].combine_chunks().to_numpy()
        return pa.table({"node": pa.array(uid[uid % 10 == 0])})

    edges = ev.map_batches(mk_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    seeds = ev.map_batches(mk_seeds, batch_format="pyarrow",
                           zero_copy_batch=True)
    return personalized_pagerank_fixedpoint(edges, "src", "dst", seeds,
                                            n_iter=3)


def q_hits(sf_dir: str):
    """HITS hubs/authorities (ops/iterative.py:hits_fixedpoint): 2
    exact-integer iterations over the deterministic user->page event
    graph (page = 10^6 + event_id mod 500) plus reverse page->user
    edges for event_id % 7 == 0, so both scores are non-trivial on
    both node classes and edge MULTIPLICITY (repeat user-page visits)
    drives the values.  Unnormalized fixed-iteration HITS is pure
    int64 sums, so the DuckDB oracle (2 unrolled join+aggregate
    rounds) reproduces it bit-for-bit."""
    from ci_log_processing_ray.ops.iterative import hits_fixedpoint

    ev = _read(sf_dir, "events", ["user_id", "event_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        uid = t["user_id"].combine_chunks().to_numpy()
        eid = t["event_id"].combine_chunks().to_numpy()
        page = 10**6 + eid % 500
        rev = eid % 7 == 0
        return pa.table({
            "src": pa.array(np.concatenate([uid, page[rev]])),
            "dst": pa.array(np.concatenate([page, uid[rev]]))})

    edges = ev.map_batches(mk_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return hits_fixedpoint(edges, "src", "dst", n_iter=2)


def q_asof_forward(sf_dir: str):
    """FORWARD as-of join: each event matched to the EARLIEST order of
    the same user at or after the event time (same co-partitioning
    shuffle as the backward variant, direction flipped)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
        lambda t: pa.table({"user_id": t["o_custkey"],
                            "o_orderdate": t["o_orderdate"]}),
        batch_format="pyarrow")
    out = asof_join_grouped(
        ev, orders, key="user_id", left_on="ts", right_on="o_orderdate",
        left_cols=["event_id"], right_cols=[], direction="forward")
    return out.map_batches(
        lambda t: t.rename_columns(
            ["next_order_ts" if c == "o_orderdate_matched" else c
             for c in t.column_names]),
        batch_format="pyarrow")


def q_window_dedup(sf_dir: str):
    """Windowed dedup (streaming rate-limit primitive): keep only the
    FIRST event per (user, event_type) per clock hour -- mergeable
    argmin partials over the composite key (ops/groupagg.py)."""
    from ci_log_processing_ray.ops.groupagg import last_by_group

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def add_hour(t: pa.Table) -> pa.Table:
        return t.append_column(
            "hour", pc.floor_temporal(t["ts"].combine_chunks(), unit="hour"))

    keyed = ds.map_batches(add_hour, batch_format="pyarrow",
                           zero_copy_batch=True)
    return last_by_group(keyed, ["user_id", "event_type", "hour"],
                         ["ts", "event_id"], ["event_id"], keep="first")


def q_hopping_window(sf_dir: str):
    """Hopping event-time windows (1h window, 15min hop): per-window
    count + cents sum; the x4 explode and partial aggregation stay
    inside each batch (ops/window.py:hopping_window_agg)."""
    from ci_log_processing_ray.ops.window import hopping_window_agg

    ds = _read(sf_dir, "events", ["ts", "value"])
    return hopping_window_agg(ds, "ts", "value", window_s=3600, hop_s=900)


def q_epoch_shuffle(sf_dir: str):
    """Deterministic training-order shuffle: global 1-based position of
    every doc under the md5 shuffle key -- hex-prefix range buckets +
    two-pass prefix sum, no global sort operator (ops/shuffle.py)."""
    from ci_log_processing_ray.ops.shuffle import epoch_shuffle

    ds = _read(sf_dir, "documents", ["doc_id"])
    return epoch_shuffle(ds, "doc_id")


def q_tfidf(sf_dir: str):
    """Top-3 TF-IDF terms per doc, integer-rational scoring
    (tf * n_docs // df): broadcast DF table + pure-map top-k
    (ops/textstats.py)."""
    from ci_log_processing_ray.ops.textstats import tfidf_top_terms

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return tfidf_top_terms(ds, "text", "doc_id", k=3)


def q_bm25(sf_dir: str):
    """Top-3 BM25 terms per doc (ops/textstats.py:bm25_top_terms):
    the k1=1.2/b=0.75 retrieval scorer with exact integer rational
    arithmetic (idf ratio x1000, denominators cleared) so the result
    hashes bit-for-bit against the SQL mirror; one vocabulary-sized
    DF+corpus-total exchange then broadcast + pure-map top-k."""
    from ci_log_processing_ray.ops.textstats import bm25_top_terms

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bm25_top_terms(ds, "text", "doc_id", k=3)


def q_ks_drift(sf_dir: str):
    """Two-sample distribution drift between click and error event
    values (ops/groupagg.py:ks_wasserstein_two_sample): exact integer
    KS statistic AND 1-D Wasserstein-1 over value cents -- per-value
    count collapse, range-bucketed driver-prefix cums, cross-bucket
    gap terms folded in Python ints."""
    from ci_log_processing_ray.ops.groupagg import (
        ks_wasserstein_two_sample)

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        et = t["event_type"].combine_chunks()
        keep = pc.is_in(et, value_set=pa.array(["click", "error"]))
        t = t.filter(keep)
        et = t["event_type"].combine_chunks()
        return pa.table({
            "v": _cents(t["value"]),
            "side": pc.cast(pc.equal(et, "error"), pa.int64())})

    return ks_wasserstein_two_sample(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "v", "side")


def q_interval_union(sf_dir: str):
    """Per-user interval UNION coverage
    (ops/window.py:interval_union_by_group): spans [ts, ts + value*100
    seconds] merged gaps-and-islands style (touching spans merge, a
    span counts once however deeply nested) -- total covered
    microseconds + merged-island count, exact int64.  One hash(user)
    bucketed exchange, whole-bucket vectorized kernel."""
    from ci_log_processing_ray.ops.window import interval_union_by_group

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        s = pc.cast(t["ts"].combine_chunks(), pa.int64())
        dur = pc.multiply(_cents(t["value"]),
                          pa.scalar(1_000_000, pa.int64()))
        return pa.table({"user_id": t["user_id"], "s": s,
                         "e": pc.add(s, dur)})

    return interval_union_by_group(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "user_id", "s", "e")


def q_gini(sf_dir: str):
    """Per-source Gini impurity of the language mix
    (ops/groupagg.py:gini_impurity_by_group): exact rational purity
    permille = 1000*(n^2 - sum c^2)//n^2 -- the label-mix audit,
    no transcendental in the hash path; (source,lang) count partials
    then a groups-sized fold."""
    from ci_log_processing_ray.ops.groupagg import gini_impurity_by_group

    ds = _read(sf_dir, "documents", ["source", "lang"])
    return gini_impurity_by_group(ds, "source", "lang")


def q_isotonic(sf_dir: str):
    """Classifier-calibration isotonic fit
    (ops/inference.py:isotonic_calibrate): P(order status 'F') as a
    monotone function of total price in whole dollars (quantized to
    bound the level-set count -- the calibration contract).  ROWS-ONLY
    by design: PAV's sequential pooling recurrence is not
    SQL-expressible -- but the fit carries a BINDING in-query
    optimality certificate (_cert_isotonic): exact-integer level-set
    conservation, strict rate increase, and the prefix-mean pooling
    condition against independently recomputed per-score stats --
    together these CHARACTERIZE the unique optimal monotone fit, so
    any divergence raises.  Plus the sequential-reference parity test
    and closed-form unit tests (tests/test_ops.py)."""
    from ci_log_processing_ray.ops.inference import isotonic_calibrate

    ds = _read(sf_dir, "orders", ["o_totalprice", "o_orderstatus"])

    def prep(t: pa.Table) -> pa.Table:
        dollars = pc.divide(_cents(t["o_totalprice"]),
                            pa.scalar(100, pa.int64()))
        return pa.table({
            "score": dollars,
            "label": pc.cast(pc.equal(t["o_orderstatus"], "F"),
                             pa.int64())})

    fit = isotonic_calibrate(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "score", "label")
    fit_df = fit.to_pandas() if hasattr(fit, "to_pandas") else fit
    # exact yardstick: per-score sufficient stats, one tiny local fold
    tbl = pq.read_table(os.path.join(sf_dir, "orders.parquet"),
                        columns=["o_totalprice", "o_orderstatus"])
    ps = pd.DataFrame({
        "score": _cents(tbl["o_totalprice"]).to_numpy() // 100,
        "pos": pc.equal(tbl["o_orderstatus"], "F").to_numpy(
            zero_copy_only=False).astype(np.int64)})
    ps["n"] = 1
    ps = ps.groupby("score", as_index=False)[["pos", "n"]].sum()
    _cert_isotonic(fit_df, ps)
    return fit_df


def q_rrf(sf_dir: str):
    """Reciprocal rank fusion (ops/window.py:rrf_fuse) of two document
    rankings -- by n_chars and by word count, both DESC with doc_id
    tie-break -- the lexical+semantic list-merge primitive:
    rrf_micro = 1e6//(60+r1) + 1e6//(60+r2), all int64.  Each ranking
    is range-bucketed ROW_NUMBER (no global sort); fusion is one
    node-shaped bucketed sum."""
    from ci_log_processing_ray.ops.curation import _word_stream
    from ci_log_processing_ray.ops.window import rrf_fuse

    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def prep(t: pa.Table) -> pa.Table:
        _, n_words = _word_stream(t["text"])
        return pa.table({"doc_id": t["doc_id"],
                         "n_chars": t["n_chars"],
                         "n_words": pa.array(n_words)})

    return rrf_fuse(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "doc_id", "n_chars", "n_words")


def q_salted_join(sf_dir: str):
    """Skew-defused large join: fact-side salt spreads hot customer
    keys over 8 sub-partitions, dim replicated per salt, join on
    (key, salt) -- result identical to the plain inner join
    (ops/relational.py:salted_join), aggregated per market segment."""
    from ci_log_processing_ray.ops.relational import salted_join

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    j = salted_join(orders, cust, "o_custkey", "c_custkey", "o_orderkey",
                    n_salt=8,
                    num_partitions=_join_partitions(sf_dir, "orders"))

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_mktsegment": t["c_mktsegment"],
            "n_orders": pa.array(np.ones(len(t), dtype=np.int64)),
            "cents": _cents(t["o_totalprice"]),
        })

    return (j.map_batches(partial, batch_format="pyarrow")
            .groupby("c_mktsegment").aggregate(
                Sum("n_orders", alias_name="n_orders"),
                Sum("cents", alias_name="cents")))


def q_approx_quantile(sf_dir: str):
    """DDSketch mergeable quantile sketch over event values: fixed-size
    (bin, count) partials, driver answers from the merged histogram.
    Approximate by design (relative error <= alpha=0.01) -- rows-only,
    but each estimate carries a BINDING in-query accuracy gate
    (_cert_quantile) against the exact order statistics: outside
    2.5x alpha relative error, the query raises."""
    ds = _read(sf_dir, "events", ["value"])
    qs = [0.5, 0.9, 0.99]
    est = approx_quantiles(ds, "value", qs, alpha=0.01)
    vals = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                         columns=["value"])["value"].to_numpy()
    for q, e in zip(qs, est):
        _cert_quantile(e, vals, q, 0.01, "approx_quantile")
    return pd.DataFrame({"q": qs, "estimate": est})


def q_cube(sf_dir: str):
    """GROUP BY CUBE(status, priority) over orders: one distributed
    aggregate at the finest level, the 2^d-1 super-aggregate subsets
    re-derived locally from that driver-sized frame
    (ops/groupagg.py:cube_counts)."""
    from ci_log_processing_ray.ops.groupagg import cube_counts

    ds = _read(sf_dir, "orders",
               ["o_orderstatus", "o_orderpriority", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderstatus": t["o_orderstatus"],
            "o_orderpriority": t["o_orderpriority"],
            "cents": _cents(t["o_totalprice"]),
        })

    return cube_counts(
        ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        ["o_orderstatus", "o_orderpriority"],
        "n_orders", sum_col="cents", sum_name="total_cents")


def q_interval_overlap(sf_dir: str):
    """Interval-overlap self join (ops/relational.py): concurrent
    shipping windows [shipdate, shipdate + quantity days] of the same
    part -- key-hash bucketed co-partition, vectorized searchsorted
    pair sweep, each unordered pair emitted exactly once."""
    from ci_log_processing_ray.ops.relational import interval_overlap_join

    ds = _read(sf_dir, "lineitem",
               ["l_partkey", "l_orderkey", "l_linenumber", "l_quantity",
                "l_shipdate"])

    def win(t: pa.Table) -> pa.Table:
        s = pc.cast(t["l_shipdate"].combine_chunks(), pa.timestamp("us"))
        days = pc.cast(pc.round(t["l_quantity"].combine_chunks()),
                       pa.int64())
        e = pc.cast(pc.add(pc.cast(s, pa.int64()),
                           pc.multiply(days, 86_400_000_000)),
                    pa.timestamp("us"))
        return pa.table({
            "l_partkey": t["l_partkey"],
            "l_orderkey": t["l_orderkey"],
            "l_linenumber": pc.cast(t["l_linenumber"].combine_chunks(),
                                    pa.int64()),
            "s": s, "e": e,
        })

    return interval_overlap_join(
        ds.map_batches(win, batch_format="pyarrow", zero_copy_batch=True),
        "l_partkey", "s", "e", ["l_orderkey", "l_linenumber"])


def q_inverted_index(sf_dir: str):
    """Distinctive-phrase inverted index (ops/textstats.py): posting
    lists for word-bigram terms appearing in 2..20 docs; the exchange
    carries distinct (term, doc) pairs, never text."""
    from ci_log_processing_ray.ops.textstats import inverted_index

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return inverted_index(ds, "text", "doc_id", n=2, min_df=2, max_df=20)


def q_next_word(sf_dir: str):
    """Bigram next-word model (ops/textstats.py:next_word_model): per
    first word, top-3 continuations by corpus bigram count with exact
    integer permille conditional probability; the exchange carries
    per-block (w1, w2, n) partials, never the token stream."""
    from ci_log_processing_ray.ops.textstats import next_word_model

    ds = _read(sf_dir, "documents", ["text"])
    return next_word_model(ds, "text", k=3)


def q_weighted_sample(sf_dir: str):
    """Exact-k weight-biased deterministic sample
    (ops/curation.py:weighted_bottomk): integer priority
    md5_60bit(doc_id) // weight, weight grows with doc length -- the
    data-mixing primitive for quality/length-weighted corpus draws."""
    from ci_log_processing_ray.ops.curation import weighted_bottomk

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def add_w(t: pa.Table) -> pa.Table:
        w = pc.add(pc.divide(t["n_chars"].combine_chunks(), 64), 1)
        return t.append_column("w", pc.cast(w, pa.int64()))

    return weighted_bottomk(
        ds.map_batches(add_w, batch_format="pyarrow", zero_copy_batch=True),
        "doc_id", "w", 100)


def q_melt(sf_dir: str):
    """Wide-to-long unpivot (ops/reshape.py:melt): four lineitem money
    columns become (variable, value) rows via zero-copy column slices
    per block -- SQL UNPIVOT with no shuffle and no row loop."""
    from ci_log_processing_ray.ops.reshape import melt

    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity",
                "l_extendedprice", "l_discount", "l_tax"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "l_linenumber": pc.cast(t["l_linenumber"].combine_chunks(),
                                    pa.int64()),
            "price_cents": _cents(t["l_extendedprice"]),
            "disc_cents": _cents(t["l_discount"]),
            "tax_cents": _cents(t["l_tax"]),
            "qty_cents": _cents(t["l_quantity"]),
        })

    return melt(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["l_orderkey", "l_linenumber"],
        ["price_cents", "disc_cents", "tax_cents", "qty_cents"])


def q_corr_stats(sf_dir: str):
    """Grouped covariance/OLS sufficient statistics
    (ops/groupagg.py:corr_suffstats_by_group): exact int64
    (n, sum_x, sum_y, sum_xx, sum_yy, sum_xy) per return flag over
    (quantity, discount-cents) -- combiner partials per block, one
    bounded exchange."""
    from ci_log_processing_ray.ops.groupagg import corr_suffstats_by_group

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_discount"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "x": pc.cast(t["l_quantity"].combine_chunks(), pa.int64()),
            "y": _cents(t["l_discount"]),
        })

    return corr_suffstats_by_group(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "l_returnflag", "x", "y")


def q_minmax_scale(sf_dir: str):
    """Per-group min-max feature scaling
    (ops/groupagg.py:minmax_scale_by_group): each event's cents mapped
    to exact integer permille of its event_type's [min, max] band --
    tiny (group, min, max) aggregate broadcast once, then a pure map."""
    from ci_log_processing_ray.ops.groupagg import minmax_scale_by_group

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "cents": _cents(t["value"]),
        })

    return minmax_scale_by_group(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "event_type", "cents", out_col="scaled_permille")


def q_row_number(sf_dir: str):
    """Exact global ROW_NUMBER over (o_orderdate, o_orderkey) without a
    global sort (ops/window.py:row_number_global): equi-width range
    buckets on the date + driver prefix-sum of per-bucket counts +
    per-bucket sort with broadcast offsets -- the zip-with-index
    primitive."""
    from ci_log_processing_ray.ops.window import row_number_global

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "date_us": pc.cast(
                pc.cast(t["o_orderdate"].combine_chunks(),
                        pa.timestamp("us")), pa.int64()),
        })

    return row_number_global(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "date_us", tie_cols=["o_orderkey"])


def q_edit1_pairs(sf_dir: str):
    """Spelling-variant detection (ops/curation.py:edit1_pairs): all
    distinct part-name pairs at edit distance exactly 1 via SymSpell
    deletion-neighborhood blocking -- candidate space is
    O(vocab x len), never vocab^2, with an exact per-candidate verify."""
    from ci_log_processing_ray.ops.curation import edit1_pairs

    ds = _read(sf_dir, "part", ["p_name"])
    return edit1_pairs(ds, "p_name")


def q_edit_distance_pairs(sf_dir: str):
    """General-k fuzzy-key detection
    (ops/curation.py:edit_distance_pairs): all distinct part-name
    pairs at edit distance <= 2 via PassJoin partition signatures --
    pigeonhole segment blocking keeps candidates O(vocab * k^2), and
    the exact verify is a banded DP vectorized ACROSS pairs, never a
    per-pair loop."""
    from ci_log_processing_ray.ops.curation import edit_distance_pairs

    ds = _read(sf_dir, "part", ["p_name"])
    return edit_distance_pairs(ds, "p_name", k=2)


def q_nb_classifier(sf_dir: str):
    """fastText/CCNet-style quality-classifier gate
    (ops/textstats.py:nb_classifier_score): train class-distinctive
    word weights for lang='en' vs rest (smoothed rate ratio x1000,
    log dropped the way bm25 drops it), then score every document as
    the int64 sum of its occurrence weights; pred = score > 0."""
    from ci_log_processing_ray.ops.textstats import nb_classifier_score

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return nb_classifier_score(ds, "text", "doc_id", "lang", "en")


def q_quantile_normalize(sf_dir: str):
    """Quantile normalization (ops/window.py:quantile_normalize):
    every source's n_chars distribution rank-maps onto src0's --
    exact integer rank rule 1+(rn-1)*nr//ng, ref lookup via a
    rank-keyed tagged-union co-partition (never broadcast)."""
    from ci_log_processing_ray.ops.window import quantile_normalize

    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    return quantile_normalize(ds, "source", "n_chars", "doc_id",
                              ref_group="src0")


def q_source_overlap(sf_dir: str):
    """Pairwise source vocabulary overlap
    (ops/textstats.py:source_vocab_overlap): exact |A&B| / |A|B|
    set sizes per source pair via block-distinct (source, word)
    partials + a word-bucketed self-merge; emits the integer pair so
    the hash path never divides."""
    from ci_log_processing_ray.ops.textstats import source_vocab_overlap

    ds = _read(sf_dir, "documents", ["source", "text"])
    return source_vocab_overlap(ds, "source", "text")


def q_trimmed_mean(sf_dir: str):
    """10% rank-trimmed aggregate per order priority
    (ops/window.py:trimmed_mean_stats): drops exactly
    floor(n/10) rows from each end of the (cents, orderkey) order and
    emits exact (n_kept, sum_kept) sufficient statistics."""
    from ci_log_processing_ray.ops.window import trimmed_mean_stats

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_totalprice", "o_orderpriority"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "cents": _cents(t["o_totalprice"]),
            "o_orderkey": t["o_orderkey"]})

    return trimmed_mean_stats(
        ds.map_batches(prep, batch_format="pyarrow"),
        "o_orderpriority", "cents", "o_orderkey", trim_permille=100)


def q_count_of_counts(sf_dir: str):
    """Kneser-Ney / Good-Turing smoothing statistics
    (ops/textstats.py:ngram_count_of_counts): exact N_c histograms
    for unigrams and bigrams; gram frequencies resolve inside one
    corpus-shaped bucketed sum and only count-of-count rows reach the
    combine -- the gram list never leaves the workers."""
    from ci_log_processing_ray.ops.textstats import ngram_count_of_counts

    ds = _read(sf_dir, "documents", ["text"])
    return ngram_count_of_counts(ds, "text")


def q_cdc_chunks(sf_dir: str):
    """Content-defined chunking dedup ratio
    (ops/dedup.py:cdc_chunk_stats): gear-hash boundaries, polynomial
    span hashes, chunk bytes never materialized.  Oracle-checked since
    r5: _cdc_oracle_sql() embeds the deterministic gear/power tables
    as VALUES literals and DuckDB reproduces the boundary rule, span
    hashes and distinct accounting bit-for-bit; the pure-Python parity
    + shift-resilience unit test stays
    (tests/test_ops.py::test_cdc_chunk_stats_parity_and_shift).

    BINDING in-query shift-resilience gate: the op runs a second time
    over the corpus augmented with PREFIXED copies ('zz ' + text for
    doc_id % 50 == 0).  CDC's defining property is that an insertion
    only disturbs boundaries locally, so the added DISTINCT bytes must
    stay under 30% of the added raw bytes (fixed-size blocking would
    add ~100%); bytes_total must also grow by exactly the added raw
    bytes.  Violations raise."""
    from ci_log_processing_ray.ops.dedup import cdc_chunk_stats

    _assert_text_len_domain(sf_dir, lo=1, hi=1023, name="cdc_chunks")
    ds = _read(sf_dir, "documents", ["text"])
    base = cdc_chunk_stats(ds, "text", window=16, mask_bits=5)
    base_df = base.to_pandas() if hasattr(base, "to_pandas") else base

    def plant_shift(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        sel = (ids % 50) == 0
        txt = t["text"].combine_chunks()
        shifted = pc.binary_join_element_wise(
            pa.array(["zz "] * int(sel.sum())),
            txt.filter(pa.array(sel)), "")
        return pa.table({"text": pa.concat_arrays([txt, shifted])})

    ds2 = _read(sf_dir, "documents", ["doc_id", "text"])
    aug = cdc_chunk_stats(
        ds2.map_batches(plant_shift, batch_format="pyarrow"),
        "text", window=16, mask_bits=5)
    aug_df = aug.to_pandas() if hasattr(aug, "to_pandas") else aug
    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"])
    selnp = (tbl["doc_id"].to_numpy() % 50) == 0
    added_raw = int(pc.sum(pc.binary_length(
        tbl["text"].combine_chunks().filter(pa.array(selnp))))
        .as_py()) + 3 * int(selnp.sum())
    d_total = int(aug_df["bytes_total"][0] - base_df["bytes_total"][0])
    d_dist = int(aug_df["bytes_distinct"][0]
                 - base_df["bytes_distinct"][0])
    if d_total != added_raw:
        raise AssertionError(
            f"cdc_chunks: bytes_total grew {d_total}, expected "
            f"{added_raw}")
    if d_dist * 10 > added_raw * 3:
        raise AssertionError(
            f"cdc_chunks: prefixed copies added {d_dist} distinct "
            f"bytes of {added_raw} raw -- boundaries did not "
            f"resynchronize (shift resilience broken)")
    return base_df


def q_skipgrams(sf_dir: str):
    """Top-20 positional skip-gram pairs within a 3-word window
    (ops/textstats.py:skipgram_topk) -- the word2vec/GloVe
    co-occurrence statistic; flat-stream offset pairing under
    doc-boundary masks, vocabulary^2-bounded partials."""
    from ci_log_processing_ray.ops.textstats import skipgram_topk

    ds = _read(sf_dir, "documents", ["text"])
    return skipgram_topk(ds, "text", window=3, k=20)


def q_lm_score(sf_dir: str):
    """Bigram-LM document quality scoring
    (ops/textstats.py:score_docs_bigram): train corpus bigram permille
    probabilities (vocabulary-sized exchange), broadcast once, score
    every doc by mean bigram permille in a pure map -- the model-based
    fluency gate of a pretraining pipeline, exact in int64."""
    from ci_log_processing_ray.ops.textstats import score_docs_bigram

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return score_docs_bigram(ds, "text", "doc_id")


def q_contract(sf_dir: str):
    """Data-quality contract gate (ops/profile.py:check_contract):
    vectorized violation predicates fold into one shared streaming
    count pass; the primary-key uniqueness rule adds one distinct-key
    exchange of per-block pre-aggregates."""
    from ci_log_processing_ray.ops.profile import check_contract

    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity", "l_discount",
                "l_shipdate"])
    rules = {
        "qty_gt_45": lambda t: pc.greater(t["l_quantity"], 45.0),
        "disc_over_5pct": lambda t: pc.greater(t["l_discount"], 0.05),
        "shipdate_null": lambda t: pc.is_null(t["l_shipdate"]),
    }
    return check_contract(
        ds, rules,
        unique_keys={"pk_unique": ["l_orderkey", "l_linenumber"]})


def q_merge_upsert(sf_dir: str):
    """MERGE INTO / upsert compaction (ops/diff.py:merge_upsert):
    deterministic update set (every 10th order key gets cents+1, every
    100th is deleted) applied onto orders -- union with source
    priority + bucketed argmax-per-key, one key-hash exchange."""
    from ci_log_processing_ray.ops.diff import merge_upsert

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["o_orderkey"],
                         "cents": _cents(t["o_totalprice"])})

    base = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True)

    def mk_updates(t: pa.Table) -> pa.Table:
        k = t["k"].combine_chunks().to_numpy()
        t = t.filter(pa.array(k % 10 == 0))
        k = t["k"].combine_chunks().to_numpy()
        return pa.table({
            "k": t["k"],
            "cents": pc.add(t["cents"].combine_chunks(), 1),
            "del": pa.array(k % 100 == 0),
        })

    updates = base.map_batches(mk_updates, batch_format="pyarrow")
    return merge_upsert(base, updates, ["k"], ["cents"],
                        delete_col="del")


def q_mad(sf_dir: str):
    """Median absolute deviation per event type
    (ops/quantile.py:mad_by_group): two exact distributed percentile
    passes with a group-sized median broadcast between them -- the
    robust-spread statistic for outlier gating."""
    from ci_log_processing_ray.ops.quantile import mad_by_group

    ds = _read(sf_dir, "events", ["event_type", "value"])
    cents = ds.map_batches(
        lambda t: pa.table({"event_type": t["event_type"],
                            "cents": _cents(t["value"])}),
        batch_format="pyarrow")
    return mad_by_group(cents, "event_type", "cents")


def q_twap(sf_dir: str):
    """Per-user time-weighted average value
    (ops/window.py:twap_by_group): each event's cents weighted by the
    microseconds until the user's next event -- one bucketed key-hash
    shuffle, whole-bucket vectorized diff, checked multiplies."""
    from ci_log_processing_ray.ops.window import twap_by_group

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "ts": pc.cast(t["ts"].combine_chunks(), pa.timestamp("us")),
            "event_id": t["event_id"],
            "cents": _cents(t["value"]),
        })

    return twap_by_group(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", "ts", "cents", tie_col="event_id")


def q_collocations(sf_dir: str):
    """Collocation / phrase mining (ops/textstats.py:collocations):
    integer-permille lift of adjacent word pairs vs independence --
    bigram- and unigram-vocabulary-sized exchanges only, unigram table
    broadcast into the final lift map (word2phrase's merge signal)."""
    from ci_log_processing_ray.ops.textstats import collocations

    ds = _read(sf_dir, "documents", ["text"])
    return collocations(ds, "text", min_count=2)


def q_checksum(sf_dir: str):
    """Order-independent dataset checksum
    (ops/profile.py:dataset_checksum): modular sum of per-row md5-60bit
    over pinned '|'-joined serialization -- each block reduces to two
    integers, the migration-validation equality witness."""
    from ci_log_processing_ray.ops.profile import dataset_checksum

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    return dataset_checksum(ds, ["doc_id", "source"])


def q_bpe_train(sf_dir: str):
    """BPE merge-rule training (ops/curation.py:bpe_train): 8 merges
    learned from corpus word frequencies -- corpus collapses once to
    the (word, count) vocabulary table; each round is vocabulary-sized
    pair-count partials + driver argmax + broadcast merge.  No SQL
    oracle (iterative data-dependent argmax); unit-tested against a
    pure-Python reference implementation.

    BINDING argmax-chain certificate: the full merge sequence is
    re-derived in-query by an independent pure-Python Sennrich loop
    over locally recomputed word counts -- every (rank, left, right,
    pair_count) row must match exactly (count argmax, lexicographic
    tie-break, merge application).  Any divergence raises."""
    from collections import Counter

    from ci_log_processing_ray.ops.curation import _word_stream, bpe_train

    ds = _read(sf_dir, "documents", ["text"])
    out = bpe_train(ds, "text", n_merges=8)
    out_df = out.to_pandas() if hasattr(out, "to_pandas") else out
    texts = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                          columns=["text"])["text"].combine_chunks()
    flat, _ = _word_stream(texts)
    wc = Counter(flat.to_pylist())
    syms = {w: tuple(w) for w in wc}
    for rank in range(len(out_df)):
        pc_counts: Counter = Counter()
        for w, n in wc.items():
            s = syms[w]
            for a, b in zip(s, s[1:]):
                pc_counts[(a, b)] += n
        if not pc_counts:
            raise AssertionError("bpe_train: replay ran out of pairs")
        (l, r), n = min(pc_counts.items(),
                        key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        row = out_df.iloc[rank]
        if (row["left"], row["right"], int(row["pair_count"])) != (l, r, n):
            raise AssertionError(
                f"bpe_train: merge {rank} is "
                f"({row['left']!r}, {row['right']!r}, "
                f"{int(row['pair_count'])}) but the sequential replay "
                f"says ({l!r}, {r!r}, {n})")
        for w in wc:
            s, i, m = syms[w], 0, []
            while i < len(s):
                if i + 1 < len(s) and s[i] == l and s[i + 1] == r:
                    m.append(l + r)
                    i += 2
                else:
                    m.append(s[i])
                    i += 1
            syms[w] = tuple(m)
    return out_df


def q_cooccurrence(sf_dir: str):
    """Market-basket co-occurrence + association-rule confidence
    (ops/relational.py:cooccurrence_pairs): users containing both
    event types, per-type support, integer permille confidence both
    directions -- distinct (user,type) exchange, per-bucket vectorized
    self-merge, item-vocabulary-bounded final exchange."""
    from ci_log_processing_ray.ops.relational import cooccurrence_pairs

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    return cooccurrence_pairs(ds, "user_id", "event_type")


def q_triangles(sf_dir: str):
    """Triangle count of the part co-purchase graph
    (ops/relational.py:triangle_count): parts co-ordered in >=2 shared
    orders form edges (support threshold = the wedge-explosion guard);
    canonical wedges close against the materialized graph-sized edge
    table via two hash joins."""
    from ci_log_processing_ray.ops.relational import triangle_count

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return triangle_count(ds, "l_orderkey", "l_partkey", min_support=2,
                          num_partitions=_join_partitions(sf_dir,
                                                          "lineitem"))


def q_caliper_match(sf_dir: str):
    """Propensity-style 1-NN caliper matching
    (ops/relational.py:caliper_match): urgent orders match the
    nearest non-urgent order by total price within $100 (10,000
    cents), ties to the smaller control key; range-bucketed by
    score//caliper with a 3x control halo, searchsorted probe, no
    all-pairs join."""
    from ci_log_processing_ray.ops.relational import caliper_match

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_totalprice", "o_orderpriority"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "cents": _cents(t["o_totalprice"]),
            "treat": pc.cast(pc.equal(
                t["o_orderpriority"].combine_chunks(), "1-URGENT"),
                pa.int64())})

    return caliper_match(ds.map_batches(prep, batch_format="pyarrow"),
                         "o_orderkey", "cents", "treat",
                         caliper=10000)


def q_join_audit(sf_dir: str):
    """Exact join-cardinality audit without executing the join
    (ops/relational.py:join_size_audit): orders |><| lineitem on
    orderkey -- per-key count partials, one key-bucketed co-partition,
    Python-int folds (no wrap on 10^18-row products).  The planner
    safety check before an all-to-all join at 100 TB."""
    from ci_log_processing_ray.ops.relational import join_size_audit

    o = _read(sf_dir, "orders", ["o_orderkey"])
    li = _read(sf_dir, "lineitem", ["l_orderkey"])
    return join_size_audit(o, li, "o_orderkey", "l_orderkey")


def q_butterflies(sf_dir: str):
    """Butterfly (bipartite 4-cycle) count of the order-part graph
    (ops/relational.py:butterfly_count): item-centered wedges combine
    through one (k1, k2) exchange; C(c, 2) closes per key pair sharing
    c items.  max_degree=64 exercises the hub-cap wedge-explosion
    guard ABOVE this corpus's true max item degree (~49), so the
    oracle (which mirrors the cap) stays binding and exact."""
    from ci_log_processing_ray.ops.relational import butterfly_count

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return butterfly_count(ds, "l_orderkey", "l_partkey",
                           max_degree=64)


def q_modularity(sf_dir: str):
    """Per-community modularity sufficient statistics
    (ops/iterative.py:partition_modularity) of the part % 7 hash
    partition over the support>=2 co-purchase graph: community labels
    attach via two node-keyed tagged-union co-partitions (never
    broadcast), exact int64 (internal_edges, degree_sum) per
    community -- Q * 4m^2 = sum(4m*e_c - d_c^2) follows exactly."""
    from ci_log_processing_ray.ops.iterative import partition_modularity
    from ci_log_processing_ray.ops.relational import cooccurrence_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    edges = (cooccurrence_pairs(li, "l_orderkey", "l_partkey")
             .filter(expr="n_ab >= 2")
             .map_batches(lambda t: t.select(["a", "b"]),
                          batch_format="pyarrow"))

    def comm_fn(t: pa.Table) -> pa.Table:
        p = np.unique(t["l_partkey"].combine_chunks().to_numpy())
        return pa.table({"node": pa.array(p),
                         "c": pa.array(p % 7)})

    from ci_log_processing_ray.ops.window import bucketed_distinct

    comm = bucketed_distinct(
        li.map_batches(comm_fn, batch_format="pyarrow",
                       zero_copy_batch=True), ["node", "c"])
    return partition_modularity(edges, "a", "b", comm, "node", "c")


def q_widest_paths(sf_dir: str):
    """Multi-source widest (bottleneck) paths
    (ops/iterative.py:widest_paths): max over paths of the min
    co-purchase support along the path, 3 frontier rounds from parts
    with key % 97 == 0 -- the max-min semiring sibling of bfs_hops
    (broadcast frontier, searchsorted gather, bucketed max fold)."""
    from ci_log_processing_ray.ops.iterative import widest_paths
    from ci_log_processing_ray.ops.relational import cooccurrence_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    edges = (cooccurrence_pairs(li, "l_orderkey", "l_partkey")
             .filter(expr="n_ab >= 2"))

    def seed_fn(t: pa.Table) -> pa.Table:
        p = t["l_partkey"].combine_chunks().to_numpy()
        return pa.table({"node": pa.array(np.unique(p[p % 97 == 0]))})

    from ci_log_processing_ray.ops.window import bucketed_distinct

    seeds = bucketed_distinct(
        li.map_batches(seed_fn, batch_format="pyarrow",
                       zero_copy_batch=True), ["node"])
    return widest_paths(edges, "a", "b", "n_ab", seeds, n_rounds=3)


def q_path_counts(sf_dir: str):
    """Shortest-path counting (Brandes sigma)
    (ops/iterative.py:shortest_path_counts) over the support>=2
    co-purchase graph from parts with key % 97 == 0, 3 rounds --
    the counting-semiring sibling of bfs_hops/widest_paths; exact
    int64 path multiplicities."""
    from ci_log_processing_ray.ops.iterative import shortest_path_counts
    from ci_log_processing_ray.ops.relational import cooccurrence_pairs
    from ci_log_processing_ray.ops.window import bucketed_distinct

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    edges = (cooccurrence_pairs(li, "l_orderkey", "l_partkey")
             .filter(expr="n_ab >= 2"))

    def seed_fn(t: pa.Table) -> pa.Table:
        p = t["l_partkey"].combine_chunks().to_numpy()
        return pa.table({"node": pa.array(np.unique(p[p % 97 == 0]))})

    seeds = bucketed_distinct(
        li.map_batches(seed_fn, batch_format="pyarrow",
                       zero_copy_batch=True), ["node"])
    return shortest_path_counts(edges, "a", "b", seeds, n_rounds=3)


def q_bfs_hops(sf_dir: str):
    """Multi-source BFS over the part co-purchase graph
    (ops/iterative.py:bfs_hops): seeds are parts with key % 97 == 0,
    3 frontier expansions over support>=2 edges -- per-round
    edge-shaped join + bucketed min fold, nothing driver-side."""
    from ci_log_processing_ray.ops.iterative import bfs_hops
    from ci_log_processing_ray.ops.relational import cooccurrence_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    edges = (cooccurrence_pairs(li, "l_orderkey", "l_partkey")
             .filter(expr="n_ab >= 2")
             .map_batches(lambda t: t.select(["a", "b"]),
                          batch_format="pyarrow"))

    def seed_fn(t: pa.Table) -> pa.Table:
        p = t["l_partkey"].combine_chunks().to_numpy()
        keep = p % 97 == 0
        return pa.table({"node": pa.array(np.unique(p[keep]))})

    seeds = li.map_batches(seed_fn, batch_format="pyarrow",
                           zero_copy_batch=True)
    return bfs_hops(edges, "a", "b", seeds, n_rounds=3)


def q_transitions(sf_dir: str):
    """First-order Markov transition matrix over per-user event
    sequences (ops/window.py:transition_counts): one bucketed key-hash
    shuffle, whole-bucket sort + boundary mask, state-vocabulary^2
    final exchange -- the user-journey flow primitive."""
    from ci_log_processing_ray.ops.window import transition_counts

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])
    return transition_counts(ds, "user_id", "ts", "event_type",
                             tie_col="event_id")


def q_global_rank(sf_dir: str):
    """Exact global RANK with ties + percentile permille over order
    total price cents (ops/window.py:rank_global): range buckets +
    driver prefix counts, per-bucket first-occurrence rank kernel --
    PERCENT_RANK without a global sort."""
    from ci_log_processing_ray.ops.window import rank_global

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "cents": _cents(t["o_totalprice"])})

    return rank_global(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "cents")


def q_target_encode(sf_dir: str):
    """Leave-one-out target encoding
    (ops/groupagg.py:target_encode_loo): per event, the other
    same-type events' cents sum and count as an exact integer rational
    -- category aggregate broadcast once, pure map."""
    from ci_log_processing_ray.ops.groupagg import target_encode_loo

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "cents": _cents(t["value"]),
        })

    return target_encode_loo(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "event_type", "cents")


def q_kfold(sf_dir: str):
    """Stratified k-fold assignment (ops/curation.py:kfold_assign):
    round-robin folds in md5(doc_id) order within each source stratum
    -- deterministic on any cluster size, fold sizes within 1."""
    from ci_log_processing_ray.ops.curation import kfold_assign

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    return kfold_assign(ds, "doc_id", "source", 5)


def q_approx_quantile_group(sf_dir: str):
    """Per-group approximate quantiles (grouped DDSketch,
    ops/quantile.py:approx_quantiles_by_group): (group, bin, n)
    mergeable partials, groups x O(log range / alpha) exchange --
    rows-only (approximate by design), with a BINDING per-group
    accuracy gate (_cert_quantile) against the exact per-group order
    statistics: any estimate outside 2.5x alpha relative error
    raises."""
    from ci_log_processing_ray.ops.quantile import approx_quantiles_by_group

    ds = _read(sf_dir, "events", ["event_type", "value"])
    out = approx_quantiles_by_group(
        ds, "event_type", "value", {"p50": 0.5, "p95": 0.95})
    tbl = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                        columns=["event_type", "value"]).to_pandas()
    for _, row in out.iterrows():
        vals = tbl.loc[tbl["event_type"] == row["event_type"],
                       "value"].to_numpy()
        _cert_quantile(row["p50"], vals, 0.5, 0.01,
                       "approx_quantile_group")
        _cert_quantile(row["p95"], vals, 0.95, 0.01,
                       "approx_quantile_group")
    return out


def q_budget_sample(sf_dir: str):
    """Data mixing to a per-source size budget
    (ops/curation.py:take_until_budget): docs taken in md5 order per
    source while the running character total stays within 4k -- the
    deterministic token-budget mixture sampler."""
    from ci_log_processing_ray.ops.curation import take_until_budget

    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    return take_until_budget(ds, "source", "doc_id", "n_chars", 4_000)


def q_window_anomaly(sf_dir: str):
    """Hot-window anomaly detection: flag (event_type, hour) windows
    whose count exceeds 1.5x the type's mean hourly count -- windowed
    count partials (one exchange), type baselines broadcast back,
    exact integer compare ``2 * n * n_windows > 3 * total``."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        win = pc.floor_temporal(
            pc.cast(t["ts"].combine_chunks(), pa.timestamp("us")),
            unit="hour")
        tt = pa.table({
            "event_type": t["event_type"].combine_chunks(),
            "window_start": win,
            "n": pa.array(np.ones(len(t), dtype=np.int64)),
        })
        g = tt.group_by(["event_type", "window_start"]).aggregate(
            [("n", "sum")])
        return pa.table({"event_type": g["event_type"],
                         "window_start": g["window_start"],
                         "n": g["n_sum"]})

    wins = (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby(["event_type", "window_start"])
            .aggregate(Sum("n", alias_name="n"))).materialize()

    base = (wins.groupby("event_type")
            .aggregate(Sum("n", alias_name="total"),
                       Count(alias_name="n_windows"))
            .to_pandas().sort_values("event_type"))
    ref = ray.put((base["event_type"].to_numpy().astype(object),
                   base["total"].to_numpy().astype(np.int64),
                   base["n_windows"].to_numpy().astype(np.int64)))

    def flag(t: pa.Table) -> pa.Table:
        keys, total, n_windows = ray.get(ref)
        et = t["event_type"].combine_chunks().to_numpy(
            zero_copy_only=False)
        idx = np.searchsorted(keys, et)
        n = t["n"].combine_chunks().to_numpy()
        hot = 2 * n * n_windows[idx] > 3 * total[idx]
        t = t.filter(pa.array(hot))
        return pa.table({
            "event_type": t["event_type"],
            "window_start": pc.cast(t["window_start"].combine_chunks(),
                                    pa.timestamp("us")),
            "n": t["n"]})

    return wins.map_batches(flag, batch_format="pyarrow")


def q_pushdown_scan(sf_dir: str):
    """Predicate pushdown at the READ: the shipdate row filter goes
    into ``read_parquet(filter=...)`` so row groups outside the range
    never leave storage (plus column pruning); the engine then only
    aggregates what survived -- the scan-level pruning contract for
    100 TB inputs."""
    import datetime as _dt

    cutoff = _dt.datetime(1999, 1, 1)
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_quantity", "l_shipdate"],
        filter=(pc.field("l_shipdate") >= pa.scalar(cutoff)))

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({
            "l_returnflag": t["l_returnflag"],
            "n": pa.array(np.ones(len(t), np.int64)),
            "qty": pc.cast(t["l_quantity"].combine_chunks(), pa.int64()),
        })
        g = tt.group_by("l_returnflag").aggregate([("n", "sum"),
                                                   ("qty", "sum")])
        return pa.table({"l_returnflag": g["l_returnflag"],
                         "n": g["n_sum"], "sum_qty": g["qty_sum"]})

    return (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("l_returnflag")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sum_qty", alias_name="sum_qty")))


def q_union_evolved(sf_dir: str):
    """Schema-evolution union (ops/reshape.py:union_by_name): an old
    snapshot (doc_id, source) and a new snapshot (doc_id, n_chars,
    lang) align by name with typed nulls -- the schema-drift merge a
    multi-release corpus needs."""
    from ci_log_processing_ray.ops.reshape import union_by_name

    old = _read(sf_dir, "documents", ["doc_id", "source"])

    def halve_old(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        return t.filter(pa.array(ids % 2 == 0))

    def halve_new(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        return t.filter(pa.array(ids % 2 == 1))

    new = _read(sf_dir, "documents", ["doc_id", "n_chars", "lang"])
    return union_by_name([
        old.map_batches(halve_old, batch_format="pyarrow",
                        zero_copy_batch=True),
        new.map_batches(halve_new, batch_format="pyarrow",
                        zero_copy_batch=True),
    ])


def q_session_paths(sf_dir: str):
    """Session path mining: top-10 most common per-session event-type
    sequences -- sessionize (30-min gap) -> per-session ordered path
    join -> path-count partials -> tiny sort+limit.  Composes the
    sessionize, bucketed-kernel, and bucketed-sum primitives
    end-to-end."""
    from ci_log_processing_ray.ops.window import (bucketed_groups,
                                                  bucketed_sum,
                                                  sessionize)

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])
    sess = sessionize(ds, "user_id", "ts",
                      gap=datetime.timedelta(minutes=30),
                      tiebreak_cols=["event_id"])

    def paths(g):
        g = g.sort_values(["user_id", "session_id", "ts", "event_id"],
                          kind="mergesort")
        agg = (g.groupby(["user_id", "session_id"], sort=False)
               ["event_type"].agg(">".join))
        out = agg.reset_index(name="path")[["path"]]
        out["n"] = np.ones(len(out), np.int64)
        return out

    per_session = bucketed_groups(sess, "user_id", paths)
    counts = bucketed_sum(per_session, ["path"], ["n"])
    return counts.sort(["n", "path"], descending=[True, False]).limit(10)


def q_balance_classes(sf_dir: str):
    """Class-balanced downsampling: every event type capped to the
    SMALLEST type's count, picked in md5(event_id) order -- the
    label-balancing step before classifier training (a tiny count
    aggregate feeds the cap into ops/curation.py:cap_per_group)."""
    from ci_log_processing_ray.ops.curation import cap_per_group

    ds = _read(sf_dir, "events", ["event_id", "event_type"])
    counts = (ds.groupby("event_type")
              .aggregate(Count(alias_name="n")).to_pandas())
    cap = int(counts["n"].min())
    out = cap_per_group(ds, "event_type", "event_id", cap)
    return (out.groupby("event_type")
            .aggregate(Count(alias_name="n_kept")))


def q_resample_grid(sf_dir: str):
    """Dense hourly resampling with zero-fill
    (ops/window.py:dense_grid_counts): every (event_type, hour) cell
    between the corpus's first and last hour, silent hours included --
    grid generated distributed, one coarse-bucket fold."""
    from ci_log_processing_ray.ops.window import dense_grid_counts

    ds = _read(sf_dir, "events", ["event_type", "ts"])
    return dense_grid_counts(ds, "event_type", "ts")


def q_grouping_sets(sf_dir: str):
    """GROUP BY GROUPING SETS ((status, priority), (status), ()) over
    orders (ops/groupagg.py:grouping_sets_counts): one distributed
    finest-level aggregate, requested subsets re-derived locally."""
    from ci_log_processing_ray.ops.groupagg import grouping_sets_counts

    ds = _read(sf_dir, "orders",
               ["o_orderstatus", "o_orderpriority", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderstatus": t["o_orderstatus"],
            "o_orderpriority": t["o_orderpriority"],
            "cents": _cents(t["o_totalprice"]),
        })

    return grouping_sets_counts(
        ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        ["o_orderstatus", "o_orderpriority"],
        [["o_orderstatus", "o_orderpriority"], ["o_orderstatus"], []],
        "n_orders", sum_col="cents", sum_name="total_cents")


def q_multi_distinct(sf_dir: str):
    """Multi-column distinct counts per group in one statement: per
    event type, COUNT(DISTINCT user) and COUNT(DISTINCT day) -- two
    distinct-pair exchanges (each pre-shrunk by per-block unique
    partials) joined on the tiny group table."""
    ds = _read(sf_dir, "events", ["event_type", "user_id", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "user_id": t["user_id"],
            "day": pc.floor_temporal(
                pc.cast(t["ts"].combine_chunks(), pa.timestamp("us")),
                unit="day"),
        })

    p = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def count_distinct(col: str, out: str) -> "pd.DataFrame":
        part = p.map_batches(
            lambda t, _c=col: (t.select(["event_type", _c])
                               .group_by(["event_type", _c])
                               .aggregate([])),
            batch_format="pyarrow")
        from ci_log_processing_ray.ops.window import bucketed_distinct
        distinct = bucketed_distinct(part, ["event_type", col])
        return (distinct.groupby("event_type")
                .aggregate(Count(alias_name=out)).to_pandas())

    users = count_distinct("user_id", "n_users")
    days = count_distinct("day", "n_days")
    out = users.merge(days, on="event_type").sort_values("event_type")
    out["n_users"] = out["n_users"].astype(np.int64)
    out["n_days"] = out["n_days"].astype(np.int64)
    return out.reset_index(drop=True)


def q_ann_recall(sf_dir: str):
    """ANN quality evaluation: recall@10 of the LSH multi-probe index
    vs the exact brute-force top-10, per query and overall -- the
    accept/reject evidence an ANN deployment needs (rows-only: the LSH
    side is hash-geometric).  Both pipelines are distributed; only the
    two k-sized result lists meet on the driver."""
    import pandas as pd

    from ci_log_processing_ray.ops.similarity import (knn_bruteforce,
                                                      knn_lsh)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q, qids = _query_vectors(sf_dir)
    exact = knn_bruteforce(ds, "embedding", "vec_id", q, qids, k=10)
    approx = knn_lsh(ds, "embedding", "vec_id", q, qids, k=10,
                     probe_hamming=2)
    approx = approx if isinstance(approx, pd.DataFrame) \
        else approx.to_pandas()
    e = exact.groupby("query_id")["vec_id"].apply(set)
    a = approx.groupby("query_id")["vec_id"].apply(set)
    rows = []
    for qi in sorted(e.index):
        hits = len(e[qi] & a.get(qi, set()))
        rows.append({"query_id": int(qi), "n_exact": len(e[qi]),
                     "n_hits": hits,
                     "recall_permille": 1000 * hits // max(len(e[qi]), 1)})
    out = pd.DataFrame(rows)
    # BINDING overall floor (deterministic on the fixed corpus + seeds;
    # measured >= 300 permille at sf0.001/0.01/0.1): a recall collapse
    # now raises instead of silently reporting low numbers.
    total_hits = int(out["n_hits"].sum())
    total_exact = int(out["n_exact"].sum())
    if 1000 * total_hits // max(total_exact, 1) < 200:
        raise AssertionError(
            f"ann_recall: overall recall {total_hits}/{total_exact} "
            f"collapsed below the 200-permille floor")
    return out


def q_top_spenders(sf_dir: str):
    """Top-3 customers by total order spend per market segment: a
    combiner-pre-aggregated (customer, cents) rollup joined to the
    broadcast segment dim, then the bucketed window-topk kernel --
    the aggregate-then-rank OLAP two-stage."""
    from ci_log_processing_ray.ops.relational import window_topk

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({"o_custkey": t["o_custkey"],
                       "cents": _cents(t["o_totalprice"])})
        g = tt.group_by("o_custkey").aggregate([("cents", "sum")])
        return pa.table({"o_custkey": g["o_custkey"],
                         "total_cents": g["cents_sum"]})

    spend = (orders.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)
             .groupby("o_custkey")
             .aggregate(Sum("total_cents", alias_name="total_cents")))

    seg_tbl = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                            columns=["c_custkey", "c_mktsegment"])
    seg_ref = ray.put((
        seg_tbl["c_custkey"].combine_chunks().to_numpy(),
        seg_tbl["c_mktsegment"].combine_chunks()
        .to_numpy(zero_copy_only=False)))

    def attach(t: pa.Table) -> pa.Table:
        keys, segs = ray.get(seg_ref)
        order = np.argsort(keys)
        idx = order[np.searchsorted(keys, t["o_custkey"].combine_chunks()
                                    .to_numpy(), sorter=order)]
        return t.append_column("c_mktsegment",
                               pa.array(segs[idx], pa.string()))

    enriched = spend.map_batches(attach, batch_format="pyarrow")
    return window_topk(enriched, "c_mktsegment", "total_cents", 3,
                       descending=True, tiebreak_col="o_custkey")


def q_day_over_day(sf_dir: str):
    """Period-over-period deltas: per (event_type, day), the count,
    the previous OBSERVED day's count (-1 when none), and the delta --
    daily partials (one bounded exchange) + the bucketed lag kernel."""
    from ci_log_processing_ray.ops.window import bucketed_groups

    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(
            pc.cast(t["ts"].combine_chunks(), pa.timestamp("us")),
            unit="day")
        tt = pa.table({"event_type": t["event_type"].combine_chunks(),
                       "day": day,
                       "n": pa.array(np.ones(len(t), np.int64))})
        g = tt.group_by(["event_type", "day"]).aggregate([("n", "sum")])
        return pa.table({"event_type": g["event_type"], "day": g["day"],
                         "n": g["n_sum"]})

    daily = (ds.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby(["event_type", "day"])
             .aggregate(Sum("n", alias_name="n")))

    def lagk(g):
        g = g.sort_values(["event_type", "day"], kind="mergesort")
        k = g["event_type"].to_numpy()
        n = g["n"].to_numpy(np.int64)
        prev = np.empty(len(g), np.int64)
        prev[0] = -1
        if len(g) > 1:
            prev[1:] = np.where(k[1:] == k[:-1], n[:-1], -1)
        g = g.copy()
        g["n_prev"] = prev
        g["delta"] = np.where(prev < 0, 0, n - prev)
        return g

    out = bucketed_groups(daily, "event_type", lagk)
    return _ts_us(out)


def q_golden_record(sf_dir: str):
    """Survivorship merge (MDM golden record): one row per user taking
    each field's best value under its own rule -- max spend, latest
    timestamp, the type AT that latest timestamp, row count -- one
    bucketed kernel pass, per-field argmax semantics."""
    from ci_log_processing_ray.ops.window import bucketed_groups

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type",
                                  "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "ts": pc.cast(t["ts"].combine_chunks(), pa.timestamp("us")),
            "event_type": t["event_type"],
            "cents": _cents(t["value"]),
        })

    def golden(g):
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        agg = g.groupby("user_id", sort=False).agg(
            max_cents=("cents", "max"),
            last_ts=("ts", "max"),
            last_type=("event_type", "last"),
            n_rows=("user_id", "size"))
        out = agg.reset_index()
        out["max_cents"] = out["max_cents"].astype(np.int64)
        out["n_rows"] = out["n_rows"].astype(np.int64)
        return out

    out = bucketed_groups(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", golden)
    return _ts_us(out)


def q_funnel3(sf_dir: str):
    """3-step funnel signup -> click -> purchase, each step within 7
    days of the previous, first-touch semantics
    (ops/window.py:funnel_steps): k-1 vectorized merges per bucket,
    k-integer partials."""
    from ci_log_processing_ray.ops.window import funnel_steps

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "ts": pc.cast(t["ts"].combine_chunks(), pa.timestamp("us")),
            "event_type": t["event_type"],
        })

    return funnel_steps(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", "ts", "event_type",
        ["signup", "click", "purchase"],
        window_us=7 * 86_400_000_000)


def q_auto_salt(sf_dir: str):
    """Adaptive skew defense (ops/relational.py:auto_salted_join):
    measure the fact key histogram, salt ONLY keys above 1% of rows,
    replicate dim rows only for those -- result identical to the plain
    inner join (the oracle), salting cost paid only where skew
    exists."""
    from ci_log_processing_ray.ops.relational import auto_salted_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_quantity"])
    part = _read(sf_dir, "part", ["p_partkey", "p_name"])
    j = auto_salted_join(li, part, "l_partkey", "p_partkey",
                         "l_orderkey", hot_permille=10,
                         num_partitions=_join_partitions(sf_dir,
                                                         "lineitem"))

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({
            "p_name": t["p_name"],
            "n_items": pa.array(np.ones(len(t), np.int64)),
            "qty": pc.cast(t["l_quantity"].combine_chunks(), pa.int64()),
        })
        g = tt.group_by("p_name").aggregate([("n_items", "sum"),
                                             ("qty", "sum")])
        return pa.table({"p_name": g["p_name"],
                         "n_items": g["n_items_sum"],
                         "sum_qty": g["qty_sum"]})

    return (j.map_batches(partial, batch_format="pyarrow")
            .groupby("p_name")
            .aggregate(Sum("n_items", alias_name="n_items"),
                       Sum("sum_qty", alias_name="sum_qty")))


def q_rare_labels(sf_dir: str):
    """Rare-label collapsing: part names holding <2% of lineitem rows
    recode to 'OTHER' (the categorical-feature cardinality guard) --
    label histogram broadcast once, pure recode map, final counts."""
    ds = _read(sf_dir, "lineitem", ["l_partkey"])
    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_name"])
    pk = part["p_partkey"].combine_chunks().to_numpy()
    pn = part["p_name"].combine_chunks().to_numpy(zero_copy_only=False)
    order = np.argsort(pk)
    name_ref = ray.put((pk[order], pn[order]))

    def with_name(t: pa.Table) -> pa.Table:
        keys, names = ray.get(name_ref)
        idx = np.searchsorted(keys, t["l_partkey"].combine_chunks()
                              .to_numpy())
        tt = pa.table({"p_name": pa.array(names[idx], pa.string()),
                       "n": pa.array(np.ones(len(t), np.int64))})
        g = tt.group_by("p_name").aggregate([("n", "sum")])
        return pa.table({"p_name": g["p_name"], "n": g["n_sum"]})

    hist = (ds.map_batches(with_name, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("p_name").aggregate(Sum("n", alias_name="n"))
            .to_pandas())
    total = int(hist["n"].sum())
    cutoff = total * 2 // 100
    hist["label"] = np.where(hist["n"].to_numpy(np.int64) < cutoff,
                             "OTHER", hist["p_name"])
    out = (hist.groupby("label", as_index=False)["n"].sum()
           .sort_values("label").reset_index(drop=True))
    out["n"] = out["n"].astype(np.int64)
    return out


def q_weighted_median(sf_dir: str):
    """Exact QUANTITY-WEIGHTED price percentiles per return flag
    (ops/quantile.py:quantile_disc_by_group with weight_col): each
    lineitem counts l_quantity times -- no row expansion, the weights
    ride the (group, value, weight-sum) partials."""
    from ci_log_processing_ray.ops.quantile import quantile_disc_by_group

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_extendedprice", "l_quantity"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "cents": _cents(t["l_extendedprice"]),
            "w": pc.cast(t["l_quantity"].combine_chunks(), pa.int64()),
        })

    return quantile_disc_by_group(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "l_returnflag", "cents", {"p25": 0.25, "p50": 0.5, "p75": 0.75},
        weight_col="w")


def q_seq_pattern(sf_dir: str):
    """MATCH_RECOGNIZE-style sequence patterns: each user's ordered
    event history encodes as an initials string (s/c/e/v/p), three
    regex patterns match per user, counts aggregate -- pattern
    matching over event SEQUENCES, not rows.  One bucketed path-build
    shuffle, RE2 matching, 3-integer partials."""
    from ci_log_processing_ray.ops.window import bucketed_groups

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])
    patterns = [("signup_then_purchase", "s.*p"),
                ("click_error_click", "c.*e.*c"),
                ("ends_with_purchase", "p$")]

    def paths(g):
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        g = g.assign(_i=g["event_type"].str[0])
        s = g.groupby("user_id", sort=False)["_i"].agg("".join)
        arr = pa.array(s.to_numpy(), pa.string())
        rows = {"pattern": [], "n_users": []}
        for name, rx in patterns:
            hit = pc.sum(pc.match_substring_regex(arr, rx),
                         min_count=0).as_py() or 0
            rows["pattern"].append(name)
            rows["n_users"].append(hit)
        import pandas as _pd
        out = _pd.DataFrame(rows)
        out["n_users"] = out["n_users"].astype(np.int64)
        return out

    partials = bucketed_groups(ds, "user_id", paths)
    return (partials.groupby("pattern")
            .aggregate(Sum("n_users", alias_name="n_users")))


def q_log_templates(sf_dir: str):
    """Log template mining (Drain-lite, rows-only: runs on the token
    corpus, not a SQL view): detokenized log lines mask digit runs and
    hex ids to '<*>', the corpus collapses to (template, n) counts --
    the structure-discovery step of log analytics.  Exchange carries
    distinct templates per block; top 20 by count, ties by template."""
    import glob

    from ci_log_processing_ray.functions.detok import tokens_to_text

    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    spec = CorpusSpec(n_builds=max(8, min(48, n_docs // 40)),
                      lines_per_file=40, seed=1234, n_shards=4,
                      hot_build_factor=4)
    corpus_dir = f"/tmp/ci_log_corpus_q_{spec.n_builds}_{spec.seed}"
    marker = os.path.join(corpus_dir, ".done")
    if not os.path.exists(marker):
        generate_corpus(corpus_dir, spec)
        with open(marker, "w") as f:
            f.write("ok")
    shards = sorted(glob.glob(
        os.path.join(corpus_dir, "token_sequences", "*.parquet")))
    ds = ray.data.read_parquet(shards, columns=["tokens"])

    def templates(t: pa.Table) -> pa.Table:
        lines = tokens_to_text(t["tokens"])
        masked = pc.replace_substring_regex(
            lines, pattern=r"[0-9a-f]{8,}|[0-9]+", replacement="<*>")
        vc = masked.value_counts()
        return pa.table({"template": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    counts = (ds.map_batches(templates, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("template").aggregate(Sum("n", alias_name="n"))
              .materialize())
    # BINDING conservation + idempotence gates: template counts must
    # sum to EXACTLY the corpus line count (no line lost or double-
    # counted through the mask + groupby), and every returned template
    # must be a fixed point of the masking regex (else the grouping
    # key was not canonical).
    total = int(counts.sum("n"))
    n_lines = sum(pq.read_metadata(s).num_rows for s in shards)
    if total != n_lines:
        raise AssertionError(
            f"log_templates: {total} template-counted lines vs "
            f"{n_lines} corpus lines")
    out = _collect(counts.sort(["n", "template"],
                               descending=[True, False]).limit(20))
    import re as _re
    pat = _re.compile(r"[0-9a-f]{8,}|[0-9]+")
    for tpl in out["template"].to_pylist():
        if pat.sub("<*>", tpl) != tpl:
            raise AssertionError(
                f"log_templates: template not mask-canonical: {tpl!r}")
    return out.to_pandas()


def q_moving_sum(sf_dir: str):
    """7-hour trailing moving sum per event type over the DENSE
    zero-filled hourly grid (silent hours count as 0 -- the honest
    moving window): resample_grid -> per-type cumsum-diff kernel."""
    from ci_log_processing_ray.ops.window import (bucketed_groups,
                                                  dense_grid_counts)

    ds = _read(sf_dir, "events", ["event_type", "ts"])
    grid = dense_grid_counts(ds, "event_type", "ts")

    def roll(g):
        g = g.sort_values(["event_type", "window_start"],
                          kind="mergesort")
        k = g["event_type"].to_numpy()
        n = g["n"].to_numpy(np.int64)
        cs = np.cumsum(n)
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        seg_lens = np.diff(np.append(starts, len(g)))
        base = np.repeat(np.r_[0, cs[starts[1:] - 1]], seg_lens)
        seg_cs = cs - base
        idx_in_seg = (np.arange(len(g))
                      - np.repeat(starts, seg_lens))
        lag = idx_in_seg - 7
        prev = np.where(lag >= 0,
                        seg_cs[np.maximum(
                            np.arange(len(g)) - 7, 0)], 0)
        g = g.copy()
        g["sum_7h"] = (seg_cs - prev).astype(np.int64)
        return g

    out = bucketed_groups(grid, "event_type", roll)
    return _ts_us(out)


def q_skyline(sf_dir: str):
    """Per-brand 2-D skyline / Pareto frontier
    (ops/relational.py:skyline_2d): parts not dominated within their
    brand by any cheaper-or-equal part of >= size (one strict).  Local
    per-block skyline shrinks the corpus to frontier-sized candidates
    BEFORE the single hash(group) exchange (Borzsonyi ICDE'01
    divide-and-conquer closure), so shuffle volume is bounded by
    #blocks x frontier width at any corpus size."""
    from ci_log_processing_ray.ops.relational import skyline_2d

    ds = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size",
                                "p_retailprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": t["p_partkey"],
            "p_brand": t["p_brand"],
            "p_size": pc.cast(t["p_size"], pa.int64()),
            "retail_cents": _cents(t["p_retailprice"]),
        })

    return skyline_2d(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "p_brand", "retail_cents", "p_size")


def q_containment_join(sf_dir: str):
    """Exact n-gram CONTAINMENT join (ops/dedup.py:ngram_jaccard_pairs
    with score="containment"): pairs where inter / min(|A|, |B|) >= 80%
    -- the superstring-dedup signal (a near-subset doc scores ~100
    against its superstring even when Jaccard is diluted by the longer
    side).  Same two-exchange distributed pair counting as
    ngram_jaccard; only the final integer predicate and denominator
    column differ.  On this corpus near-dup pairs are near-identical so
    the PAIR SET matches ngram_jaccard's -- the oracle still binds the
    containment math through the min_sz column; the asymmetric case is
    pinned by the planted-substring unit test."""
    from ci_log_processing_ray.ops.dedup import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ngram_jaccard_pairs(ds, "text", "doc_id", n=3,
                               threshold_pct=80, score="containment")


def q_dominance_count(sf_dir: str):
    """Per-part Pareto dominance count within its brand
    (ops/relational.py:dominance_count_2d): how many same-brand parts
    are cheaper-or-equal AND larger-or-equal (one strict) -- 0 marks
    the skyline.  One hash(group) exchange + the vectorized
    compressed-grid counting kernel (bincount + two directional
    cumsums), no per-row Python."""
    from ci_log_processing_ray.ops.relational import dominance_count_2d

    ds = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size",
                                "p_retailprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": t["p_partkey"],
            "p_brand": t["p_brand"],
            "p_size": pc.cast(t["p_size"], pa.int64()),
            "retail_cents": _cents(t["p_retailprice"]),
        })

    return dominance_count_2d(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "p_brand", "retail_cents", "p_size")


def q_zorder_cells(sf_dir: str):
    """Z-order (Morton) clustering key over events
    (ops/layout.py:zorder_cell_counts): interleave hour-of-day with the
    capped integer value into the space-filling-curve cell and count
    rows per cell.  The bit-spread is five vectorized shift-mask passes
    per dimension; per-block bincount partials collapse each block to
    vocabulary-sized (zcell, n) rows before the only exchange.  The
    same key drives ops/layout.py:zorder_sort (Delta/Iceberg OPTIMIZE
    ZORDER layout) -- range-partitioned sort, block stats tight in BOTH
    dimensions."""
    from ci_log_processing_ray.ops.layout import zorder_cell_counts

    ds = _read(sf_dir, "events", ["ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "x": pc.cast(pc.hour(t["ts"]), pa.int64()),
            "y": pc.cast(pc.min_element_wise(
                pc.floor(t["value"].combine_chunks()), 255.0), pa.int64()),
        })

    return zorder_cell_counts(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "x", "y")


def q_knn_graph(sf_dir: str):
    """EXACT k-NN graph (self-similarity join) over the embeddings
    table: every vector's top-3 other vectors by INTEGER dot product
    of floor(x*128+0.5)-quantized coordinates, (dot DESC, nn_id ASC)
    tie-break -- the primitive behind semantic dedup and diversity
    pruning.  Block-pair matmul tasks with per-side local top-k
    combiners; integer similarities keep the graph bit-reproducible
    and SQL-checkable."""
    from ci_log_processing_ray.ops.similarity import knn_graph

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return knn_graph(ds, "embedding", "vec_id", k=3, scale=128.0,
                     block_rows=512)


def q_knn_label_agreement(sf_dir: str):
    """Label-noise scoring by k-NN label agreement
    (ops/similarity.py:knn_label_agreement): per vector, how many of
    its 5 exact nearest other vectors (quantized integer dot, the
    knn_graph contract) share its label -- the confident-learning
    review signal.  The n^2 work stays in knn_graph's block-pair
    combiners; label attachment is two node-shaped tagged
    co-partition exchanges, all-int64 outputs."""
    from ci_log_processing_ray.ops.similarity import knn_label_agreement

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    return knn_label_agreement(ds, "embedding", "vec_id", "label",
                               k=5, scale=128.0, block_rows=512)


def q_knn_graph_ivf(sf_dir: str):
    """Approximate k-NN graph recall evaluation: the IVF-blocked graph
    (home-cell candidates, nprobe probed cells) scored against the
    exact block-pair graph -- recall@3 per thousand, overall coverage
    (rows-only: the IVF cell assignment is k-means-geometric, not
    SQL-expressible).  Both graphs are distributed; only the two edge
    lists meet on the driver."""
    import pandas as pd

    from ci_log_processing_ray.ops.similarity import (knn_graph,
                                                      knn_graph_ivf)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    exact = knn_graph(ds, "embedding", "vec_id", k=3, scale=128.0,
                      block_rows=512).to_pandas()
    approx = knn_graph_ivf(ds, "embedding", "vec_id", k=3, scale=128.0,
                           n_centroids=16, nprobe=4).to_pandas()
    e = exact.groupby("vec_id")["nn_id"].apply(set)
    a = approx.groupby("vec_id")["nn_id"].apply(set)
    n_exact = int(e.map(len).sum())
    n_hits = sum(len(e[v] & a.get(v, set())) for v in e.index)
    recall = 1000 * int(n_hits) // max(n_exact, 1)
    # BINDING floor (deterministic corpus + init; measured >= 700
    # permille across sf0.001/0.01/0.1): an IVF recall collapse raises.
    if recall < 500:
        raise AssertionError(
            f"knn_graph_ivf: recall {recall} permille below the "
            f"500 floor ({n_hits}/{n_exact} edges)")
    if int(len(a)) < int(len(e)):
        raise AssertionError(
            f"knn_graph_ivf: coverage lost ({len(a)}/{len(e)} vectors)")
    return pd.DataFrame([{
        "n_vectors": int(len(e)),
        "n_covered": int(len(a)),
        "n_exact_edges": n_exact,
        "n_hit_edges": int(n_hits),
        "recall_permille": recall,
    }])


def q_roc_auc(sf_dir: str):
    """Grouped ROC-AUC of a score column against a binary label as an
    exact integer rational (auc_num/auc_den = AUC with tie-averaged
    ranks) -- the quality-classifier evaluation primitive: here, does
    order price predict a finished order, per priority class.  Rows
    collapse to (group, score) count partials before the exchange."""
    from ci_log_processing_ray.ops.groupagg import grouped_auc

    ds = _read(sf_dir, "orders",
               ["o_orderpriority", "o_orderstatus", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "pos": pc.cast(pc.equal(t["o_orderstatus"].combine_chunks(),
                                    "F"), pa.int64()),
            "score": _cents(t["o_totalprice"]),
        })

    pre = ds.map_batches(prep, batch_format="pyarrow",
                         zero_copy_batch=True)
    return grouped_auc(pre, "o_orderpriority", "pos", "score")


def q_spearman(sf_dir: str):
    """Grouped Spearman rank correlation between order quantity and
    the 100-dollar price bucket, per return flag, as exact integer
    sufficient statistics (rho = sxy/sqrt(sxx*syy) with tie-averaged
    doubled-centered ranks) -- the monotone-association screen run
    over corpus feature pairs.  Rows collapse to distinct
    (group, x, y) cells before the exchange."""
    from ci_log_processing_ray.ops.groupagg import spearman_by_group

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"].combine_chunks(),
            "x": pc.cast(t["l_quantity"].combine_chunks(), pa.int64()),
            "y": pc.divide(_cents(t["l_extendedprice"]), 10000),
        })

    pre = ds.map_batches(prep, batch_format="pyarrow",
                         zero_copy_batch=True)
    return spearman_by_group(pre, "l_returnflag", "x", "y")


def q_ktruss(sf_dir: str):
    """4-truss of a planted decade graph over doc ids (each decade: a
    K5, a pendant path, a pendant triangle, plus weak bridges between
    decades): peeling must dissolve paths, bridges and lone triangles
    and keep exactly the K5s (and the partial-decade K4, support 2,
    when the id count is not a multiple of 10).  The graph converges
    in two rounds, so the DuckDB oracle unrolls two peel iterations
    exactly."""
    from ci_log_processing_ray.ops.iterative import ktruss

    ds = _read(sf_dir, "documents", ["doc_id"])

    def decade_edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy().astype(np.int64)
        srcs, dsts = [], []
        m = ids % 10
        for back in (1, 2, 3, 4):  # K5 within the decade head
            keep = (m >= back) & (m <= 4)
            srcs.append(ids[keep] - back)
            dsts.append(ids[keep])
        chain = m >= 5  # path 4-5-6-7 then triangle sides 7-8, 8-9
        srcs.append(ids[chain] - 1)
        dsts.append(ids[chain])
        tri = m == 9  # close the 7-8-9 triangle
        srcs.append(ids[tri] - 2)
        dsts.append(ids[tri])
        bridge = (m == 0) & (ids > 0)  # weak inter-decade bridge
        srcs.append(ids[bridge] - 1)
        dsts.append(ids[bridge])
        return pa.table({"src": pa.array(np.concatenate(srcs)),
                         "dst": pa.array(np.concatenate(dsts))})

    edges = ds.map_batches(decade_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return ktruss(edges, "src", "dst", 4)


def q_delta_aggregate(sf_dir: str):
    """Incremental view maintenance: materialize the per-event-type
    (count, cents-sum) view over the first 24 days, then apply a
    delta stream -- the last days as inserts plus retractions of every
    early sub-dollar row -- WITHOUT rescanning the base.  The oracle
    recomputes the final state directly; the Ray path must reach it
    through the maintained view."""
    import datetime as _dt

    from ci_log_processing_ray.ops.diff import delta_aggregate
    from ci_log_processing_ray.ops.window import bucketed_sum

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    cut = pa.scalar(_dt.datetime(2024, 1, 25), pa.timestamp("us"))

    def base_partial(t: pa.Table) -> pa.Table:
        ts = pc.cast(t["ts"].combine_chunks(), pa.timestamp("us"))
        keep = pc.less(ts, cut)
        tt = pa.table({
            "event_type": t["event_type"].combine_chunks().filter(keep),
            "sum_cents": _cents(t["value"]).filter(keep)})
        tt = tt.append_column(
            "n", pa.array(np.ones(len(tt), np.int64)))
        g = tt.group_by("event_type").aggregate(
            [("n", "sum"), ("sum_cents", "sum")])
        return pa.table({"event_type": g["event_type"],
                         "n": g["n_sum"],
                         "sum_cents": g["sum_cents_sum"]})

    def delta_rows(t: pa.Table) -> pa.Table:
        ts = pc.cast(t["ts"].combine_chunks(), pa.timestamp("us"))
        cents = _cents(t["value"])
        et = t["event_type"].combine_chunks()
        ins = pc.greater_equal(ts, cut)
        dels = pc.and_(pc.invert(ins), pc.less(cents, 100))
        n_ins = pc.sum(pc.cast(ins, pa.int64())).as_py() or 0
        n_del = pc.sum(pc.cast(dels, pa.int64())).as_py() or 0
        return pa.table({
            "event_type": pa.chunked_array(
                [et.filter(ins), et.filter(dels)]),
            "op": pa.array(np.r_[np.ones(n_ins, np.int64),
                                 -np.ones(n_del, np.int64)]),
            "sum_cents": pa.chunked_array(
                [cents.filter(ins), cents.filter(dels)]),
        })

    view = bucketed_sum(
        ds.map_batches(base_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["event_type"], ["n", "sum_cents"])
    delta = ds.map_batches(delta_rows, batch_format="pyarrow",
                           zero_copy_batch=True)
    return delta_aggregate(view, delta, ["event_type"],
                           count_col="n", sum_cols=("sum_cents",))


def q_decision_stump(sf_dir: str):
    """Train an error-minimizing decision stump per order priority:
    does a single total-price threshold (thousand-dollar buckets)
    predict order completion?  Exact integer error counts, smallest
    threshold on ties -- the weak-learner / slice-diagnostic
    primitive."""
    from ci_log_processing_ray.ops.groupagg import decision_stump_by_group

    ds = _read(sf_dir, "orders",
               ["o_orderpriority", "o_orderstatus", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": t["o_orderpriority"].combine_chunks(),
            "x": pc.divide(_cents(t["o_totalprice"]), 100000),
            "pos": pc.cast(pc.equal(
                t["o_orderstatus"].combine_chunks(), "F"), pa.int64()),
        })

    pre = ds.map_batches(prep, batch_format="pyarrow",
                         zero_copy_batch=True)
    return decision_stump_by_group(pre, "o_orderpriority", "x", "pos")


def q_theilsen(sf_dir: str):
    """Robust per-event-type trend over daily volumes: Mann-Kendall S
    plus the Theil-Sen lower-median pair slope in milli-units/day --
    the log-storm-proof growth detector (one crazy day cannot move
    the median pair slope, unlike OLS).  Day pairs only, never row
    pairs."""
    from ci_log_processing_ray.ops.groupagg import theilsen_mk_by_group

    ds = _read(sf_dir, "events", ["event_type", "ts"])
    return theilsen_mk_by_group(ds, "event_type", "ts")


def q_kendall(sf_dir: str):
    """Grouped Kendall tau-b between event hour-of-day and the
    10-dollar value bucket, per event type, as exact integer pair
    counts (concordant / discordant / tied) -- the heavy-tie ordinal
    association check.  The kernel never enumerates row pairs: cells
    sweep once with a running per-y count table."""
    from ci_log_processing_ray.ops.groupagg import kendall_by_group

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        ts = pc.cast(t["ts"].combine_chunks(), pa.timestamp("us"))
        return pa.table({
            "event_type": t["event_type"].combine_chunks(),
            "x": pc.cast(pc.hour(ts), pa.int64()),
            "y": pc.divide(_cents(t["value"]), 1000),
        })

    pre = ds.map_batches(prep, batch_format="pyarrow",
                         zero_copy_batch=True)
    return kendall_by_group(pre, "event_type", "x", "y")


def q_trend_slope(sf_dir: str):
    """Per-event-type OLS slope of daily event volume vs day index as
    the exact integer rational (slope_num, slope_den) -- flags growing
    or shrinking log sources without ever shipping a float."""
    from ci_log_processing_ray.ops.groupagg import grouped_trend_slope

    ds = _read(sf_dir, "events", ["event_type", "ts"])
    return grouped_trend_slope(ds, "event_type", "ts")


def q_label_prop(sf_dir: str):
    """Community detection via deterministic synchronous label
    propagation (rows-only: iterative fixpoint, not SQL-expressible):
    doc-id decades wired as near-cliques (i -> i-1, i-2, i-3 within
    the decade) with ONE weak bridge between consecutive decades --
    LPA must keep the decades as separate communities despite the
    bridges.  Returns per-community sizes."""
    from ci_log_processing_ray.ops.iterative import label_propagation

    ds = _read(sf_dir, "documents", ["doc_id"])

    def decade_edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        srcs, dsts = [], []
        for back in (1, 2, 3):
            keep = ids % 10 >= back
            srcs.append(ids[keep])
            dsts.append(ids[keep] - back)
        bridge = ids % 10 == 0
        srcs.append(ids[bridge & (ids > 0)])
        dsts.append(ids[bridge & (ids > 0)] - 1)
        return pa.table({"src": pa.array(np.concatenate(srcs)),
                         "dst": pa.array(np.concatenate(dsts))})

    edges = ds.map_batches(decade_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    labels = label_propagation(edges, "src", "dst", n_rounds=6)
    sizes = (labels.groupby("label")
             .aggregate(Count(alias_name="n_nodes")))
    out = _collect(sizes).to_pandas().sort_values(
        ["label"]).reset_index(drop=True)
    # BINDING structural gate: by construction the planted communities
    # are the doc-id decades -- every recovered community must have
    # exactly 10 nodes and together cover every doc exactly once.  A
    # propagation regression that leaks labels across the weak bridges
    # (or drops nodes) raises.
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    if int(out["n_nodes"].sum()) != n_docs:
        raise AssertionError(
            f"label_prop: {int(out['n_nodes'].sum())} labeled nodes "
            f"vs {n_docs} docs (coverage broken)")
    if not (out["n_nodes"] == 10).all():
        bad = out[out["n_nodes"] != 10]
        raise AssertionError(
            f"label_prop: {len(bad)} communities deviate from the "
            f"planted decade size 10 (bridges leaked)")
    return out


def _require_contiguous_ids(ids: "np.ndarray", name: str) -> None:
    """The sequence-adjacency (edge i -- i-1) and decade-chain graph
    builders assume doc_id is a CONTIGUOUS 0..n-1 range; a gapped
    corpus would silently diverge from the closed-form oracles.
    Checked once per query, driver-side, on the already-loaded id
    column (O(1): min/max over a numpy array)."""
    if len(ids) and not (ids.min() == 0 and ids.max() == len(ids) - 1):
        raise RuntimeError(
            f"{name}: doc_id is not a contiguous 0..n-1 range "
            f"(min={int(ids.min())}, max={int(ids.max())}, "
            f"n={len(ids)}) -- the chain-graph oracles require "
            "contiguity")


def _seq_edges(t: pa.Table) -> pa.Table:
    """Sequence-adjacency path graph over the contiguous doc ids
    (contiguity asserted by the caller via _require_contiguous_ids):
    edge i -- i-1 for every i > 0, so hop distance is exactly
    |i - j| -- the closed-form contract the landmark oracles bind."""
    ids = t["doc_id"].combine_chunks().to_numpy()
    keep = ids > 0
    return pa.table({"src": pa.array(ids[keep]),
                     "dst": pa.array(ids[keep] - 1)})


def q_landmark_distances(sf_dir: str):
    """Landmark distance table (ops/iterative.py:landmark_distances):
    one simultaneous multi-source BFS tracking (node, landmark, dist)
    pairs -- the landmark-embedding / hub-distance feature primitive.
    Landmarks are doc_id % 97 == 0 over the sequence-adjacency path
    graph, 12 rounds, so dist == |node - landmark| <= 12 in closed
    form -- binding DuckDB oracle."""
    from ci_log_processing_ray.ops.iterative import landmark_distances

    ds = _read(sf_dir, "documents", ["doc_id"])
    ids = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id"])["doc_id"].to_numpy()
    _require_contiguous_ids(ids, "landmark_distances")
    lms = ids[ids % 97 == 0]
    edges = ds.map_batches(_seq_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return landmark_distances(edges, "src", "dst", lms, n_rounds=12)


def q_harmonic_centrality(sf_dir: str):
    """Truncated harmonic centrality of the landmark set (sum of
    floor(1e6 / dist) over nodes reached within the round budget,
    plus the reached count) -- derived from the landmark distance
    table by one landmark-shaped aggregate; exact integers, binding
    DuckDB oracle (boundary landmark 0 has half the window, so the
    result is non-constant)."""
    from ci_log_processing_ray.ops.iterative import landmark_distances

    ds = _read(sf_dir, "documents", ["doc_id"])
    ids = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id"])["doc_id"].to_numpy()
    _require_contiguous_ids(ids, "harmonic_centrality")
    lms = ids[ids % 97 == 0]
    edges = ds.map_batches(_seq_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    ld = landmark_distances(edges, "src", "dst", lms, n_rounds=12)

    def partial(t: pa.Table) -> pa.Table:
        d = t["dist"].combine_chunks().to_numpy()
        pos = d > 0
        return pa.table({
            "landmark": t["landmark"].combine_chunks().filter(
                pa.array(pos)),
            "n_reached": pa.array(np.ones(int(pos.sum()), np.int64)),
            "harmonic_micro": pa.array(1_000_000 // d[pos])})

    return (ld.map_batches(partial, batch_format="pyarrow")
            .groupby("landmark").aggregate(
                Sum("n_reached", alias_name="n_reached"),
                Sum("harmonic_micro", alias_name="harmonic_micro")))


_KEYWORD_PATTERNS = ["filter", "hash join", "slow query", "scan",
                     "merge batch"]


def q_keyword_tags(sf_dir: str):
    """Multi-pattern keyword/phrase tagging
    (ops/textstats.py:keyword_occurrences): per pattern, containing-doc
    count + total non-overlapping occurrences -- one vectorized
    count_substring pass per pattern, patterns-sized exchange.  The
    DuckDB oracle uses the REPLACE-length idiom (identical
    non-overlapping left-to-right counting; patterns chosen with no
    proper self-overlap, so the rules provably agree)."""
    from ci_log_processing_ray.ops.textstats import keyword_occurrences

    ds = _read(sf_dir, "documents", ["text"])
    return keyword_occurrences(ds, "text", _KEYWORD_PATTERNS)


def q_eccentricity(sf_dir: str):
    """Per-landmark eccentricity (max hop distance within the round
    budget) + reached count over the decade chain graph, one landmark
    per decade at a DECADE-DEPENDENT offset (position k % 10 in decade
    k), so eccentricity = max(r, 9 - r) varies 5..9 across decades --
    derived from the landmark_distances pair table by one
    landmark-shaped aggregate; binding DuckDB oracle."""
    from ci_log_processing_ray.ops.iterative import landmark_distances

    ds = _read(sf_dir, "documents", ["doc_id"])
    ids = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id"])["doc_id"].to_numpy()
    _require_contiguous_ids(ids, "eccentricity")
    lms = ids[ids % 10 == (ids // 10) % 10]

    def chain_edges(t: pa.Table) -> pa.Table:
        d = t["doc_id"].combine_chunks().to_numpy()
        keep = d % 10 != 0
        return pa.table({"src": pa.array(d[keep]),
                         "dst": pa.array(d[keep] - 1)})

    edges = ds.map_batches(chain_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    ld = landmark_distances(edges, "src", "dst", lms, n_rounds=9)

    def partial(t: pa.Table) -> pa.Table:
        d = t["dist"].combine_chunks().to_numpy()
        pos = d > 0
        return pa.table({
            "landmark": t["landmark"].combine_chunks().filter(
                pa.array(pos)),
            "ecc": pa.array(d[pos]),
            "n_reached": pa.array(np.ones(int(pos.sum()), np.int64))})

    return (ld.map_batches(partial, batch_format="pyarrow")
            .groupby("landmark").aggregate(
                Max("ecc", alias_name="ecc"),
                Sum("n_reached", alias_name="n_reached")))


def q_stress_centrality(sf_dir: str):
    """Sampled-source stress centrality (Brandes two-sweep, exact
    integer: ops/iterative.py:stress_centrality) over the decade chain
    graph with two sources per decade (doc_id % 10 in {0, 4}).  Path
    components have unique shortest paths (sigma = 1), so
    stress(v) = #(source, target) pairs with v strictly between --
    which the DuckDB oracle states as literal triple counting."""
    from ci_log_processing_ray.ops.iterative import stress_centrality

    ds = _read(sf_dir, "documents", ["doc_id"])
    ids = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id"])["doc_id"].to_numpy()
    _require_contiguous_ids(ids, "stress_centrality")
    sources = ids[np.isin(ids % 10, (0, 4))]

    def chain_edges(t: pa.Table) -> pa.Table:
        d = t["doc_id"].combine_chunks().to_numpy()
        keep = d % 10 != 0
        return pa.table({"src": pa.array(d[keep]),
                         "dst": pa.array(d[keep] - 1)})

    edges = ds.map_batches(chain_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return stress_centrality(edges, "src", "dst", sources, n_rounds=9)


def q_kcore(sf_dir: str):
    """Full k-core decomposition (coreness per node) via the
    partition-resident h-index fixpoint
    (ops/iterative.py:kcore_resident): doc ids wired as PATH-POWER
    blocks -- within each block of 20 ids, doc i links to i+1..i+p
    where the power p = 1 + (block % 4) cycles 1,2,3,4 -- and the
    p-th power of a path on >= p+1 nodes has coreness exactly p at
    every node (every consecutive (p+1)-window is a clique, and the
    graph is p-degenerate), so the decomposition is oracle-exact in
    closed form.  Edges are deliberately fed directed and the op
    canonicalizes to the simple undirected graph; the estimate
    exchange ships node ids once at setup and values-only per round."""
    from ci_log_processing_ray.ops.iterative import kcore_resident

    ds = _read(sf_dir, "documents", ["doc_id"])

    def block_edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        p = 1 + (ids // 20) % 4
        srcs, dsts = [], []
        for j in (1, 2, 3, 4):
            keep = (j <= p) & ((ids + j) // 20 == ids // 20)
            srcs.append(ids[keep])
            dsts.append(ids[keep] + j)
        return pa.table({"src": pa.array(np.concatenate(srcs)),
                         "dst": pa.array(np.concatenate(dsts))})

    edges = ds.map_batches(block_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    # blocks of 20 keep the h-index peeling depth ~10 rounds, and 8
    # shards keep the n_shards^2 per-round ref exchange proportionate
    # to this node-table-sized graph (the 4M-node scale proof runs the
    # default sizing)
    return kcore_resident(edges, "src", "dst", n_shards=8)


def q_sssp(sf_dir: str):
    """Bounded-hop weighted shortest paths
    (ops/iterative.py:sssp_weighted_resident): doc ids wired as a
    weighted digraph (i -> i+1 with weight 1 + i%3, plus a skip edge
    i -> i+10 with weight 5), seeded at every block start
    (doc_id % 100 == 0); 4 Bellman-Ford rounds == the oracle's 4
    chained min-relaxation CTEs exactly -- frontier-only relaxation is
    proven equivalent to the relax-from-everyone recurrence in the op
    docstring, so the distance table is value-hash exact."""
    from ci_log_processing_ray.ops.iterative import sssp_weighted_resident

    ds = _read(sf_dir, "documents", ["doc_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        src = np.concatenate([ids, ids])
        dst = np.concatenate([ids + 1, ids + 10])
        w = np.concatenate([1 + ids % 3,
                            np.full(len(ids), 5, np.int64)])
        return pa.table({"src": pa.array(src), "dst": pa.array(dst),
                         "w": pa.array(w)})

    def mk_seeds(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        return pa.table({"node": pa.array(ids[ids % 100 == 0])})

    edges = ds.map_batches(mk_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    seeds = ds.map_batches(mk_seeds, batch_format="pyarrow",
                           zero_copy_batch=True)
    return sssp_weighted_resident(edges, "src", "dst", "w", seeds,
                                  n_rounds=4)


def q_sorted_neighborhood(sf_dir: str):
    """Sorted-neighborhood dedup candidates
    (ops/dedup.py:sorted_neighborhood_pairs): documents ordered by
    (n_chars, doc_id), every pair within 4 positions emitted exactly
    once with its length gap -- the classic entity-resolution blocking
    pass, generated span-bucketed with a window-sized fringe instead
    of a global sort, against the ROW_NUMBER self-join oracle."""
    from ci_log_processing_ray.ops.dedup import sorted_neighborhood_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return _collect(sorted_neighborhood_pairs(
        ds, "n_chars", "doc_id", window=4)).to_pandas().sort_values(
            ["id_a", "id_b"]).reset_index(drop=True)


def q_link_prediction(sf_dir: str):
    """Common-neighbor link prediction
    (ops/relational.py:common_neighbors_link_prediction) over the same
    bounded-degree user-offset graph as q_clustering_coeff: every
    non-adjacent pair sharing >= 2 neighbors, with the count -- wedges
    grouped by their FAR pair and killed by edge markers in one tagged
    co-partition, vs the SQL wedge-join + NOT EXISTS oracle."""
    from ci_log_processing_ray.ops.relational import (
        common_neighbors_link_prediction)

    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        uid = t["user_id"].combine_chunks().to_numpy()
        eid = t["event_id"].combine_chunks().to_numpy()
        return pa.table({"src": pa.array(uid),
                         "dst": pa.array(uid + 1 + eid % 7)})

    edges = ds.map_batches(mk_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return _collect(common_neighbors_link_prediction(
        edges, "src", "dst", min_common=2)).to_pandas().sort_values(
            ["node_a", "node_b"]).reset_index(drop=True)


def q_random_walks(sf_dir: str):
    """Deterministic random-walk corpus
    (ops/iterative.py:deterministic_random_walks): one 3-step walk
    from every node of the user-offset graph, each step the
    md5-argmin neighbor -- the node2vec/DeepWalk input stage with an
    oracle-replayable coin; walk state co-partitions with edges once
    per step, never the whole corpus."""
    from ci_log_processing_ray.ops.iterative import (
        deterministic_random_walks)

    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        uid = t["user_id"].combine_chunks().to_numpy()
        eid = t["event_id"].combine_chunks().to_numpy()
        return pa.table({"src": pa.array(uid),
                         "dst": pa.array(uid + 1 + eid % 7)})

    edges = ds.map_batches(mk_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return _collect(deterministic_random_walks(
        edges, "src", "dst", walk_len=3)).to_pandas().sort_values(
            ["start", "step"]).reset_index(drop=True)


def q_running_distinct(sf_dir: str):
    """Cumulative novelty (ops/window.py:running_distinct_by_group):
    per event, how many DISTINCT event types its user has produced up
    to and including it -- the COUNT(DISTINCT) OVER emulation
    (first-occurrence flag + windowed sum), one bucketed exchange."""
    from ci_log_processing_ray.ops.window import running_distinct_by_group

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])
    return running_distinct_by_group(
        ds, "user_id", ["ts", "event_id"], "event_type", "event_id")


def q_seq_mining(sf_dir: str):
    """Sequential pattern mining, order-2 supports
    (ops/groupagg.py:sequential_pair_support): for every ordered event
    type pair (t1, t2), the number of users with t1 strictly before
    t2 -- the GSP/PrefixSpan first-generation support table, computed
    via per-user first/last positions (one sort, never the quadratic
    self-join the oracle runs)."""
    from ci_log_processing_ray.ops.groupagg import sequential_pair_support

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])
    return sequential_pair_support(ds, "user_id", ["ts", "event_id"],
                                   "event_type")


def q_neighbor_agg(sf_dir: str):
    """GNN feature-propagation preprocessing
    (ops/iterative.py:neighbor_feature_agg): hop-1 and hop-2 (path
    multiset, (A^T)^2 x) in-neighbor sums/counts of n_chars over a
    directed doc graph (i -> i+1, i -> i+7) -- two edge co-partition
    exchanges, feature tables stay node-shaped, exact int64 against
    the two-join SQL oracle."""
    from ci_log_processing_ray.ops.iterative import neighbor_feature_agg

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def mk_edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        return pa.table({
            "src": pa.array(np.concatenate([ids, ids])),
            "dst": pa.array(np.concatenate([ids + 1, ids + 7]))})

    edges = ds.map_batches(mk_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    feats = ds.map_batches(
        lambda t: pa.table({"node": t["doc_id"],
                            "f": t["n_chars"]}),
        batch_format="pyarrow")
    return neighbor_feature_agg(edges, "src", "dst", feats,
                                "node", "f")


def q_assortativity(sf_dir: str):
    """Directed out-in degree assortativity sufficient stats
    (ops/iterative.py:degree_assortativity) over a synthetic doc graph
    with varying out-degree (i->i+1, i->i+7, plus i->i+3 for even i):
    exact int64 m/sx/sy/sxx/syy/sxy and the Pearson pieces r_num,
    r_den1, r_den2 -- degree tables by bucketed count, degrees
    attached via two tagged co-partitions, Python-int driver fold."""
    from ci_log_processing_ray.ops.iterative import degree_assortativity

    ds = _read(sf_dir, "documents", ["doc_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        ev = ids[ids % 2 == 0]
        return pa.table({
            "src": pa.array(np.concatenate([ids, ids, ev])),
            "dst": pa.array(np.concatenate([ids + 1, ids + 7,
                                            ev + 3]))})

    return degree_assortativity(
        ds.map_batches(mk_edges, batch_format="pyarrow",
                       zero_copy_batch=True),
        "src", "dst")


def q_msf(sf_dir: str):
    """Distributed Boruvka minimum spanning forest
    (ops/iterative.py:minimum_spanning_forest) over a doc graph built
    so the forest has a CLOSED FORM the SQL oracle can state: chain
    edges i->i+1 (w=1000+i) plus heavy extras i->i+7 (w=1000000+i).
    Every extra whose far end lies on the chain closes a cycle as its
    heaviest edge (excluded); the last 6 extras are bridges to
    off-chain nodes (included).  Generic correctness is pinned by the
    Kruskal-parity unit test; this instance keeps the oracle binding."""
    from ci_log_processing_ray.ops.iterative import (
        minimum_spanning_forest)

    ds = _read(sf_dir, "documents", ["doc_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        return pa.table({
            "src": pa.array(np.concatenate([ids, ids])),
            "dst": pa.array(np.concatenate([ids + 1, ids + 7])),
            "w": pa.array(np.concatenate([1000 + ids,
                                          1_000_000 + ids]))})

    return minimum_spanning_forest(
        ds.map_batches(mk_edges, batch_format="pyarrow",
                       zero_copy_batch=True),
        "src", "dst", "w")


def q_reciprocity(sf_dir: str):
    """Directed-graph reciprocity (ops/iterative.py:edge_reciprocity)
    over a doc graph with planted mutual links (i->i+1 for all i,
    i+1->i for i%3==0, i->i+7): fraction of distinct non-loop directed
    edges whose reverse exists, exact permille -- one hash(pair)
    bucketed exchange of per-block-deduped (lo,hi,bit) rows."""
    from ci_log_processing_ray.ops.iterative import edge_reciprocity

    ds = _read(sf_dir, "documents", ["doc_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        rev = ids[ids % 3 == 0]
        return pa.table({
            "src": pa.array(np.concatenate([ids, rev + 1, ids])),
            "dst": pa.array(np.concatenate([ids + 1, rev, ids + 7]))})

    return edge_reciprocity(
        ds.map_batches(mk_edges, batch_format="pyarrow",
                       zero_copy_batch=True),
        "src", "dst")


def q_lexical_richness(sf_dir: str):
    """Per-source lexical richness
    (ops/textstats.py:lexical_richness_by_group): token/type/hapax
    counts + TTR and hapax-share permille, exact int64 -- the
    template-spam audit; (group,word) count partials, ONE hash(group)
    bucketed exchange whose kernel merges counts and folds metrics."""
    from ci_log_processing_ray.ops.textstats import (
        lexical_richness_by_group)

    ds = _read(sf_dir, "documents", ["text", "source"])
    return lexical_richness_by_group(ds, "text", "source")


def q_decayed_sum(sf_dir: str):
    """Recency-weighted grouped sum
    (ops/groupagg.py:decayed_sum_by_group): per event type, cents
    halved every 3 days of age back from the corpus max day -- exact
    int64 bit-shift decay instead of float exp(), so the trending
    aggregate value-hashes against DuckDB's integer division."""
    from ci_log_processing_ray.ops.groupagg import decayed_sum_by_group

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "ts": t["ts"],
                         "cents": _cents(t["value"])})

    return decayed_sum_by_group(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "event_type", "ts", "cents", half_life_days=3)


def q_clustering_coeff(sf_dir: str):
    """Per-node local clustering coefficient
    (ops/relational.py:clustering_coefficients) over a user-offset
    graph (user u links to u + 1 + event_id % 7, so offsets 1..7 give
    every node bounded degree <= 14 and scale-stable triangle
    density): distinct-neighbor degree, incident triangles counted as
    CLOSED wedges at their center, and the exact integer permille
    coefficient -- all through edge/node-shaped bucketed exchanges,
    closed against the SQL wedge-join oracle bit-for-bit."""
    from ci_log_processing_ray.ops.relational import (
        clustering_coefficients)

    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        uid = t["user_id"].combine_chunks().to_numpy()
        eid = t["event_id"].combine_chunks().to_numpy()
        return pa.table({"src": pa.array(uid),
                         "dst": pa.array(uid + 1 + eid % 7)})

    edges = ds.map_batches(mk_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return _collect(clustering_coefficients(edges, "src", "dst")
                    ).to_pandas().sort_values("node").reset_index(
                        drop=True)


def _fragmented_events_dir(sf_dir: str) -> str:
    """Build (once per sf, cached) the FRAGMENTED routed tree -- 16
    shard dirs x sink=<event_type>, the streaming fan-out writer's
    natural small-files layout -- shared by the compaction and
    partition-pruning queries."""
    frag = _export_cache_dir(sf_dir, "events", "fragmented_v1")
    marker = os.path.join(frag, ".done")
    if not os.path.exists(marker):
        os.makedirs(frag, exist_ok=True)
        tbl = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                            columns=["event_id", "event_type", "value"])
        eid = tbl["event_id"].combine_chunks().to_numpy()
        shard = (eid % 16).astype(np.int64)
        types = tbl["event_type"].combine_chunks()
        for s in range(16):
            smask = shard == s
            part = tbl.filter(pa.array(smask))
            for et in pc.unique(types).to_pylist():
                sub = part.filter(pc.equal(part["event_type"], et))
                if len(sub) == 0:
                    continue
                d = os.path.join(frag, f"shard-{s:02d}", f"sink={et}")
                os.makedirs(d, exist_ok=True)
                tmp = os.path.join(d, f".tmp.{os.getpid()}")
                pq.write_table(sub, tmp)
                os.replace(tmp, os.path.join(d, "part-0.parquet"))
        with open(marker, "w") as f:
            f.write("ok")
    return frag


def q_partition_prune(sf_dir: str):
    """Hive-style partition pruning at the READ: of the 16x5 routed
    ``sink=<event_type>`` tree, ONLY the click and error partition
    directories are listed and read (the glob never touches the other
    three sinks' files -- file-list pruning, the cheapest shuffle of
    all), then per-sink count + cents; the oracle filters the full
    table, so a row escaping the prune OR a partition missed by the
    glob breaks the hash."""
    import glob as _glob

    frag = _fragmented_events_dir(sf_dir)
    keep = ["click", "error"]
    files = sorted(f for et in keep for f in _glob.glob(
        os.path.join(frag, "shard-*", f"sink={et}", "*.parquet")))
    ds = ray.data.read_parquet(files,
                               columns=["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "sink": t["event_type"],
            "n": pa.array(np.ones(len(t), np.int64)),
            "cents": _cents(t["value"])})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("sink").aggregate(
                Sum("n", alias_name="n"),
                Sum("cents", alias_name="cents")))


def q_compact_sink(sf_dir: str):
    """Sink compaction preserves every routed row: events fan out to
    a FRAGMENTED routed tree (16 shard dirs x sink=<event_type>, the
    streaming writer's natural small-files layout, cached per sf),
    compact_routed coalesces each sink to ~one file, and the oracle
    pins the per-sink row counts straight against the source table --
    any row lost or duplicated in the rewrite breaks the hash."""
    from ci_log_processing_ray.pipelines.compact import compact_routed

    frag = _fragmented_events_dir(sf_dir)
    out_dir = frag + "-compact"
    return compact_routed(frag, out_dir).select(["sink", "n_rows"])


def q_rolling_active(sf_dir: str):
    """Rolling 7-day distinct active users per grid day (the WAU
    primitive) without per-day distinct recounts: per-user coverage
    intervals -> +1/-1 deltas -> one cumulative sum."""
    from ci_log_processing_ray.ops.window import rolling_active_users

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return rolling_active_users(ds, "user_id", "ts", window_days=7)


def q_vocab_drift(sf_dir: str):
    """Per-source vocabulary drift vs the rest of the corpus: exact
    total-variation distance as an integer rational (tv_num, tv_den)
    -- the content-shift score for a log source or crawl snapshot."""
    from ci_log_processing_ray.ops.textstats import vocab_drift

    ds = _read(sf_dir, "documents", ["source", "text"])
    return vocab_drift(ds, "text", "source")


def q_max_dup_span(sf_dir: str):
    """Per-document longest duplicated word span (exact substring
    dedup signal, Lee et al. 2022): length of the longest contiguous
    stretch covered by 5-grams occurring in >= 2 distinct docs; 0 for
    clean or short docs.  Gram blocking over duplicate_spans + one
    vectorized run sweep per batch."""
    from ci_log_processing_ray.ops.dedup import max_duplicate_span

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return max_duplicate_span(ds, "text", "doc_id", n=5)


def q_distinctive_terms(sf_dir: str):
    """Source-distinctive vocabulary by exact odds ratio: words whose
    in-source rate beats the rest-of-corpus rate by more than 13/10,
    integer cross-multiplied -- keyness mining for corpus curation."""
    from ci_log_processing_ray.ops.textstats import distinctive_terms

    ds = _read(sf_dir, "documents", ["source", "text"])
    return distinctive_terms(ds, "text", "source",
                             min_count=2, ratio_num=13, ratio_den=10)


def q_cusum_shift(sf_dir: str):
    """Per-event-type CUSUM change-point over the daily count series:
    peak |n*cumsum(y) - k*S| and the first day attaining it, exact
    integers -- the level-shift locator for a route whose volume
    steps."""
    from ci_log_processing_ray.ops.groupagg import grouped_cusum_peak

    ds = _read(sf_dir, "events", ["event_type", "ts"])
    return grouped_cusum_peak(ds, "event_type", "ts")


def q_tree_closure(sf_dir: str):
    """Hierarchy flattening (ops/iterative.py:tree_closure): ancestor
    transitive closure with depth over the event-id halving forest
    (parent = id // 2 for ids >= 16, roots 8..15) -- pointer DOUBLING,
    ceil(log2 depth) tagged co-partition rounds, no dedup exchange
    (first-2^k-steps decomposition is unique on a forest), vs the
    WITH RECURSIVE DuckDB oracle."""
    from ci_log_processing_ray.ops.iterative import tree_closure

    ds = _read(sf_dir, "events", ["event_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        ids = t["event_id"].combine_chunks().to_numpy().astype(np.int64)
        ids = ids[ids >= 16]
        return pa.table({"node": pa.array(ids),
                         "parent": pa.array(ids // 2)})

    edges = ds.map_batches(mk_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return tree_closure(edges, "node", "parent")


def q_tree_stats(sf_dir: str):
    """Org-chart rollup triple (ops/iterative.py:tree_stats) over the
    same halving forest as q_tree_closure: per node, depth below its
    root, the root id, and the subtree size -- pointer-doubling closure
    plus three node-shaped bucketed exchanges (argmax-depth, pre-shrunk
    descendant counts, one stitching co-partition)."""
    from ci_log_processing_ray.ops.iterative import tree_stats

    ds = _read(sf_dir, "events", ["event_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        ids = t["event_id"].combine_chunks().to_numpy().astype(np.int64)
        ids = ids[ids >= 16]
        return pa.table({"node": pa.array(ids),
                         "parent": pa.array(ids // 2)})

    edges = ds.map_batches(mk_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return tree_stats(edges, "node", "parent")


def q_mannwhitney(sf_dir: str):
    """Per-returnflag Mann-Whitney rank-sum statistic
    (ops/groupagg.py:mann_whitney_u) between odd and even line numbers
    over integer quantities: u2 = 2*#(a>b) + #(a==b), exact int64 via
    per-(group, side, value) count collapse + one per-group cumulative
    kernel -- no pair enumeration, vs the SQL pair-count-join oracle."""
    from ci_log_processing_ray.ops.groupagg import mann_whitney_u

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linenumber", "l_quantity"])

    def prep(t: pa.Table) -> pa.Table:
        ln = t["l_linenumber"].combine_chunks().to_numpy().astype(
            np.int64)
        return pa.table({
            "grp": t["l_returnflag"],
            "side": pa.array(ln % 2),
            "val": pc.cast(pc.round(t["l_quantity"].combine_chunks()),
                           pa.int64())})

    return mann_whitney_u(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        "grp", "side", "val")


def q_component_stats(sf_dir: str):
    """Per-connected-component profile
    (ops/iterative.py:component_stats) over a decade graph whose
    components have closed forms: chain edges (i, i-1) except at decade
    positions 0 and 7 split each id decade into a <=7-node path and a
    7-8-9 path, and every 3rd decade closes 7-8-9 into a triangle --
    so (n_nodes, n_edges, cyclomatic) per component is oracle-exact."""
    from ci_log_processing_ray.ops.iterative import component_stats

    ds = _read(sf_dir, "documents", ["doc_id"])

    def decade_edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy().astype(np.int64)
        m = ids % 10
        chain = (m != 0) & (m != 7)
        tri = (m == 9) & ((ids // 10) % 3 == 0)
        return pa.table({
            "src": pa.array(np.concatenate([ids[chain], ids[tri]])),
            "dst": pa.array(np.concatenate([ids[chain] - 1,
                                            ids[tri] - 2]))})

    edges = ds.map_batches(decade_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return component_stats(edges, "src", "dst")


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "route_daily_counts": q_route_daily_counts,
        "severity_histogram": q_severity_histogram,
        "message_extract": q_message_extract,
        "timestamp_roundtrip": q_timestamp_roundtrip,
        "debug_filter": q_debug_filter,
        "enrich_broadcast": q_enrich_broadcast,
        "carry_forward": q_carry_forward,
        "pricing_summary": q_pricing_summary,
        "topk_orders": q_topk_orders,
        "distinct_users": q_distinct_users,
        "sessionize": q_sessionize,
        "join_large": q_join_large,
        "dedup_exact_events": q_dedup_exact_events,
        "dedup_text": q_dedup_text,
        "fingerprint": q_fingerprint,
        "token_counts": q_token_counts,
        "perf_props_sum": q_perf_props_sum,
        "hot_key_salted": q_hot_key_salted,
        "ngram_jaccard": q_ngram_jaccard,
        "prefix_jaccard": q_prefix_jaccard,
        "ngram_jaccard_maxdf": q_ngram_jaccard_maxdf,
        "quality_score": q_quality_score,
        "gopher_rules": q_gopher_rules,
        "gopher_repetition": q_gopher_repetition,
        "ccnet_buckets": q_ccnet_buckets,
        "token_count_bpe": q_token_count_bpe,
        "anti_join": q_anti_join,
        "semi_join": q_semi_join,
        "multiway_join": q_multiway_join,
        "asof_join": q_asof_join,
        "window_topk": q_window_topk,
        "tumbling_window": q_tumbling_window,
        "union_counts": q_union_counts,
        "profit_by_nation": q_profit_by_nation,
        "region_rollup": q_region_rollup,
        "sample_hash": q_sample_hash,
        "range_join": q_range_join,
        "rolling_window": q_rolling_window,
        "stratified_sample": q_stratified_sample,
        "hll_distinct_users": q_hll_distinct_users,
        "pivot_counts": q_pivot_counts,
        "knn_bruteforce": q_knn_bruteforce,
        "knn_ivf": q_knn_ivf,
        "knn_pq": q_knn_pq,
        "knn_lsh": q_knn_lsh,
        "multimodal_resize": q_multimodal_resize,
        "video_frame_sample": q_video_frame_sample,
        "minhash_dedup": q_minhash_dedup,
        "simhash": q_simhash,
        "embedding_dedup": q_embedding_dedup,
        "semdedup": q_semdedup,
        "dbscan": q_dbscan,
        "spatial_nn": q_spatial_nn,
        "dsir_select": q_dsir_select,
        "max_coverage": q_max_coverage,
        "pca_embeddings": q_pca_embeddings,
        "lang_id": q_lang_id,
        "lang_kappa": q_lang_kappa,
        "multimodal_decode": q_multimodal_decode,
        "multiline_join": q_multiline_join,
        "grok_fields": q_grok_fields,
        "apache_fields": q_apache_fields,
        "logdate_normalize": q_logdate_normalize,
        "lag_gap": q_lag_gap,
        "autocorr": q_autocorr,
        "hhi": q_hhi,
        "benford": q_benford,
        "fano": q_fano,
        "gini_value": q_gini_value,
        "explode_embeddings": q_explode_embeddings,
        "quantile_qty": q_quantile_qty,
        "repetition_score": q_repetition_score,
        "running_total": q_running_total,
        "rank_orders": q_rank_orders,
        "quantile_cont_qty": q_quantile_cont_qty,
        "word_topk": q_word_topk,
        "pack_sequences": q_pack_sequences,
        "left_outer_join": q_left_outer_join,
        "string_agg": q_string_agg,
        "mode_event": q_mode_event,
        "value_histogram": q_value_histogram,
        "interval_lookup": q_interval_lookup,
        "label_centroids": q_label_centroids,
        "corpus_curation": q_corpus_curation,
        "duplicate_spans": q_duplicate_spans,
        "heavy_hitters": q_heavy_hitters,
        "count_min": q_count_min,
        "heavy_hitters_exact": q_heavy_hitters_exact,
        "chunk_text": q_chunk_text,
        "decontaminate": q_decontaminate,
        "vocab_coverage": q_vocab_coverage,
        "strip_stopwords": q_strip_stopwords,
        "redact": q_redact,
        "ntile": q_ntile,
        "rollup": q_rollup,
        "last_event": q_last_event,
        "intersect_except": q_intersect_except,
        "bloom_semi_join": q_bloom_semi_join,
        "epoch_shuffle": q_epoch_shuffle,
        "tfidf": q_tfidf,
        "bm25": q_bm25,
        "rrf": q_rrf,
        "isotonic": q_isotonic,
        "interval_union": q_interval_union,
        "gini": q_gini,
        "ks_drift": q_ks_drift,
        "salted_join": q_salted_join,
        "asof_forward": q_asof_forward,
        "window_dedup": q_window_dedup,
        "hopping_window": q_hopping_window,
        "phash_dedup": q_phash_dedup,
        "quantize_embeddings": q_quantize_embeddings,
        "kmeans": q_kmeans,
        "connected_components": q_connected_components,
        "pagerank": q_pagerank,
        "ppr": q_ppr,
        "hits": q_hits,
        "attribution": q_attribution,
        "survival": q_survival,
        "rfm": q_rfm,
        "inventory_balance": q_inventory_balance,
        "streaks": q_streaks,
        "below_group_avg": q_below_group_avg,
        "custdist": q_custdist,
        "numwait": q_numwait,
        "sales_opportunity": q_sales_opportunity,
        "kcenter": q_kcenter,
        "late_orders": q_late_orders,
        "promo_share": q_promo_share,
        "scd2": q_scd2,
        "span_corruption": q_span_corruption,
        "rolling_extrema": q_rolling_extrema,
        "weighted_median_group": q_weighted_median_group,
        "dedup_savings": q_dedup_savings,
        "winnow_fingerprints": q_winnow_fingerprints,
        "sorted_export": q_sorted_export,
        "top_supplier": q_top_supplier,
        "large_orders": q_large_orders,
        "returned_customers": q_returned_customers,
        "local_supplier_volume": q_local_supplier_volume,
        "forecast_revenue": q_forecast_revenue,
        "min_cost_supplier": q_min_cost_supplier,
        "nation_pair_volume": q_nation_pair_volume,
        "market_share": q_market_share,
        "priority_class_counts": q_priority_class_counts,
        "parts_supplier_cnt": q_parts_supplier_cnt,
        "discounted_revenue": q_discounted_revenue,
        "dominant_suppliers": q_dominant_suppliers,
        "chi2_lang_source": q_chi2_lang_source,
        "classifier_eval": q_classifier_eval,
        "calibration": q_calibration,
        "seasonal_index": q_seasonal_index,
        "group_share": q_group_share,
        "drawdown": q_drawdown,
        "funnel": q_funnel,
        "profile": q_profile,
        "snapshot_diff": q_snapshot_diff,
        "url_curation": q_url_curation,
        "safe_udf": q_safe_udf,
        "sample_bottomk": q_sample_bottomk,
        "compression_ratio": q_compression_ratio,
        "winsorize": q_winsorize,
        "event_runs": q_event_runs,
        "retention": q_retention,
        "cube": q_cube,
        "interval_overlap": q_interval_overlap,
        "inverted_index": q_inverted_index,
        "next_word": q_next_word,
        "weighted_sample": q_weighted_sample,
        "melt": q_melt,
        "corr_stats": q_corr_stats,
        "minmax_scale": q_minmax_scale,
        "row_number": q_row_number,
        "edit1_pairs": q_edit1_pairs,
        "edit_distance_pairs": q_edit_distance_pairs,
        "nb_classifier": q_nb_classifier,
        "quantile_normalize": q_quantile_normalize,
        "source_overlap": q_source_overlap,
        "count_of_counts": q_count_of_counts,
        "cdc_chunks": q_cdc_chunks,
        "skipgrams": q_skipgrams,
        "trimmed_mean": q_trimmed_mean,
        "lm_score": q_lm_score,
        "contract": q_contract,
        "merge_upsert": q_merge_upsert,
        "mad": q_mad,
        "twap": q_twap,
        "collocations": q_collocations,
        "checksum": q_checksum,
        "bpe_train": q_bpe_train,
        "cooccurrence": q_cooccurrence,
        "triangles": q_triangles,
        "butterflies": q_butterflies,
        "modularity": q_modularity,
        "widest_paths": q_widest_paths,
        "path_counts": q_path_counts,
        "caliper_match": q_caliper_match,
        "join_audit": q_join_audit,
        "bfs_hops": q_bfs_hops,
        "transitions": q_transitions,
        "global_rank": q_global_rank,
        "target_encode": q_target_encode,
        "kfold": q_kfold,
        "approx_quantile_group": q_approx_quantile_group,
        "budget_sample": q_budget_sample,
        "window_anomaly": q_window_anomaly,
        "pushdown_scan": q_pushdown_scan,
        "union_evolved": q_union_evolved,
        "session_paths": q_session_paths,
        "balance_classes": q_balance_classes,
        "resample_grid": q_resample_grid,
        "grouping_sets": q_grouping_sets,
        "multi_distinct": q_multi_distinct,
        "ann_recall": q_ann_recall,
        "top_spenders": q_top_spenders,
        "day_over_day": q_day_over_day,
        "golden_record": q_golden_record,
        "funnel3": q_funnel3,
        "auto_salt": q_auto_salt,
        "rare_labels": q_rare_labels,
        "weighted_median": q_weighted_median,
        "seq_pattern": q_seq_pattern,
        "log_templates": q_log_templates,
        "moving_sum": q_moving_sum,
        "tokenize_ids": q_tokenize_ids,
        "outlier_counts": q_outlier_counts,
        "model_score": q_model_score,
        "model_filter": q_model_filter,
        "incremental_dedup": q_incremental_dedup,
        "full_outer_join": q_full_outer_join,
        "late_events": q_late_events,
        "cap_source": q_cap_source,
        "temperature_mix": q_temperature_mix,
        "length_batches": q_length_batches,
        "pack_bins": q_pack_bins,
        "jsonl_source": q_jsonl_source,
        "csv_source": q_csv_source,
        "orc_source": q_orc_source,
        "rate_sample": q_rate_sample,
        "approx_quantile": q_approx_quantile,
        "flagship_counts": q_flagship_counts,
        "skyline": q_skyline,
        "zorder_cells": q_zorder_cells,
        "dominance_count": q_dominance_count,
        "containment_join": q_containment_join,
        "knn_graph": q_knn_graph,
        "knn_label_agreement": q_knn_label_agreement,
        "knn_graph_ivf": q_knn_graph_ivf,
        "roc_auc": q_roc_auc,
        "decision_stump": q_decision_stump,
        "delta_aggregate": q_delta_aggregate,
        "kendall": q_kendall,
        "ktruss": q_ktruss,
        "theilsen": q_theilsen,
        "spearman": q_spearman,
        "trend_slope": q_trend_slope,
        "cusum_shift": q_cusum_shift,
        "distinctive_terms": q_distinctive_terms,
        "max_dup_span": q_max_dup_span,
        "vocab_drift": q_vocab_drift,
        "rolling_active": q_rolling_active,
        "compact_sink": q_compact_sink,
        "partition_prune": q_partition_prune,
        "label_prop": q_label_prop,
        "landmark_distances": q_landmark_distances,
        "stress_centrality": q_stress_centrality,
        "eccentricity": q_eccentricity,
        "keyword_tags": q_keyword_tags,
        "harmonic_centrality": q_harmonic_centrality,
        "sorted_neighborhood": q_sorted_neighborhood,
        "sssp": q_sssp,
        "kcore": q_kcore,
        "clustering_coeff": q_clustering_coeff,
        "decayed_sum": q_decayed_sum,
        "seq_mining": q_seq_mining,
        "neighbor_agg": q_neighbor_agg,
        "assortativity": q_assortativity,
        "reciprocity": q_reciprocity,
        "lexical_richness": q_lexical_richness,
        "msf": q_msf,
        "running_distinct": q_running_distinct,
        "random_walks": q_random_walks,
        "link_prediction": q_link_prediction,
        "tree_closure": q_tree_closure,
        "component_stats": q_component_stats,
        "tree_stats": q_tree_stats,
        "mannwhitney": q_mannwhitney,
    }


WORD_RE_SQL = "[A-Za-z0-9_]+"


def oracle_sql() -> dict[str, str]:
    vocab = "|".join(WORD_VOCAB)
    return {
        "route_daily_counts": """
            SELECT 'logstash-' || strftime(ts, '%Y.%m.%d') AS sink,
                   count(*) AS doc_count,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS value_cents
            FROM events GROUP BY 1""",
        "severity_histogram": f"""
            SELECT source,
                   coalesce(nullif(regexp_extract(text, '\\b({vocab})\\b', 1), ''),
                            'NONE') AS severity,
                   count(*) AS n
            FROM documents GROUP BY 1, 2""",
        "message_extract": """
            SELECT doc_id, text || ' | tail' AS message FROM documents""",
        "timestamp_roundtrip": """
            SELECT event_id,
                   CASE WHEN event_id % 3 IN (0, 1) THEN ts
                        ELSE date_trunc('second', ts) END AS ts_parsed
            FROM events""",
        "debug_filter": """
            SELECT source, count(*) AS n FROM documents
            WHERE NOT contains(text, 'slow') GROUP BY source""",
        "enrich_broadcast": """
            SELECT c_mktsegment, count(*) AS n_orders,
                   CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS total_cents
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment""",
        "carry_forward": """
            SELECT event_id,
                   coalesce(last_value(CASE WHEN value >= 50 THEN ts END
                                       IGNORE NULLS)
                            OVER (PARTITION BY user_id ORDER BY event_id
                                  ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND CURRENT ROW),
                            TIMESTAMP '2024-01-01') AS ts_filled
            FROM events""",
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS BIGINT)
                       AS sum_qty,
                   CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_base_cents,
                   CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                                       + 0.5) AS BIGINT)) AS BIGINT)
                       AS sum_disc_cents,
                   count(*) AS n
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY l_returnflag, l_linestatus""",
        "topk_orders": """
            SELECT o_orderkey, o_orderpriority,
                   CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS total_cents
            FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10""",
        "distinct_users": """
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type""",
        "sessionize": """
            SELECT user_id, count(*) AS n_events,
                   CAST(sum(is_new) + 1 AS BIGINT) AS n_sessions
            FROM (SELECT user_id,
                         CASE WHEN ts - lag(ts) OVER
                              (PARTITION BY user_id ORDER BY ts, event_id)
                              > INTERVAL '30 minutes' THEN 1 ELSE 0 END AS is_new
                  FROM events)
            GROUP BY user_id""",
        "join_large": """
            SELECT o_orderpriority, count(*) AS n_items,
                   CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                                       + 0.5) AS BIGINT)) AS BIGINT)
                       AS disc_cents
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority""",
        "dedup_exact_events": """
            SELECT user_id, event_type, min(event_id) AS first_event_id,
                   count(*) AS dup_count
            FROM events GROUP BY user_id, event_type""",
        "dedup_text": """
            SELECT min(doc_id) AS doc_id, text, count(*) AS dup_count
            FROM documents GROUP BY text""",
        "fingerprint": """
            SELECT doc_id, md5(text) AS fingerprint FROM documents""",
        "token_counts": f"""
            SELECT source,
                   CAST(sum(len(regexp_extract_all(text, '{WORD_RE_SQL}')))
                        AS BIGINT) AS total_words,
                   CAST(sum(len(list_distinct(
                        regexp_extract_all(text, '{WORD_RE_SQL}'))))
                        AS BIGINT) AS total_uniq_words,
                   CAST(sum(len(regexp_extract_all(text, '[^\\w\\s]')))
                        AS BIGINT) AS total_punct,
                   count(*) AS n_docs
            FROM documents GROUP BY source""",
        "perf_props_sum": """
            SELECT event_type,
                   CAST(sum(CAST(regexp_extract(props, '"k": ([0-9]+)', 1)
                                 AS BIGINT)) AS BIGINT) AS k_total,
                   count(*) AS n
            FROM events GROUP BY event_type""",
        "heavy_hitters_exact": """
            SELECT user_id, count(*) AS cnt
            FROM events GROUP BY user_id
            HAVING count(*) * 125 >= (SELECT count(*) FROM events)""",
        "hot_key_salted": """
            SELECT user_id, count(*) AS n,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS value_cents
            FROM events GROUP BY user_id""",
        "ngram_jaccard": """
            WITH g AS (
                SELECT doc_id,
                       list_distinct(list_transform(
                           range(1, len(ws) - 1),
                           i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))
                           AS grams
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
                      FROM documents)
                WHERE len(ws) >= 3)
            SELECT a.doc_id AS left_id, b.doc_id AS right_id,
                   len(list_intersect(a.grams, b.grams)) AS inter,
                   len(a.grams) + len(b.grams)
                       - len(list_intersect(a.grams, b.grams)) AS union_sz
            FROM g a JOIN g b ON a.doc_id < b.doc_id
            WHERE len(list_intersect(a.grams, b.grams)) > 0
              AND 100 * len(list_intersect(a.grams, b.grams))
                  >= 50 * (len(a.grams) + len(b.grams)
                           - len(list_intersect(a.grams, b.grams)))""",
        "prefix_jaccard": """
            WITH g AS (
                SELECT doc_id,
                       list_distinct(list_transform(
                           range(1, len(ws) - 1),
                           i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))
                           AS grams
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
                      FROM documents)
                WHERE len(ws) >= 3)
            SELECT a.doc_id AS left_id, b.doc_id AS right_id,
                   len(list_intersect(a.grams, b.grams)) AS inter,
                   len(a.grams) + len(b.grams)
                       - len(list_intersect(a.grams, b.grams)) AS union_sz
            FROM g a JOIN g b ON a.doc_id < b.doc_id
            WHERE len(list_intersect(a.grams, b.grams)) > 0
              AND 100 * len(list_intersect(a.grams, b.grams))
                  >= 50 * (len(a.grams) + len(b.grams)
                           - len(list_intersect(a.grams, b.grams)))""",
        "ngram_jaccard_maxdf": """
            WITH g AS (
                SELECT doc_id,
                       list_distinct(list_transform(
                           range(1, len(ws) - 1),
                           i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))
                           AS grams
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
                      FROM documents)
                WHERE len(ws) >= 3),
            gd AS (SELECT doc_id, unnest(grams) AS gram FROM g),
            df AS (SELECT gram FROM gd GROUP BY gram
                   HAVING count(*) >= 2 AND count(*) <= 3),
            inter AS (
                SELECT a.doc_id AS left_id, b.doc_id AS right_id,
                       count(*) AS inter
                FROM gd a JOIN gd b ON a.gram = b.gram
                                   AND a.doc_id < b.doc_id
                JOIN df ON df.gram = a.gram
                GROUP BY a.doc_id, b.doc_id),
            tot AS (SELECT doc_id, len(grams) AS n FROM g)
            SELECT left_id, right_id, inter,
                   ta.n + tb.n - inter AS union_sz
            FROM inter
            JOIN tot ta ON ta.doc_id = left_id
            JOIN tot tb ON tb.doc_id = right_id
            WHERE 100 * inter >= 50 * (ta.n + tb.n - inter)""",
        "ccnet_buckets": """
            WITH l AS (SELECT doc_id,
                    list_filter(string_split_regex(lower(text),
                                '[^a-z0-9_]+'), x -> x != '') AS w
                FROM documents),
            b AS (SELECT doc_id, u.g[1] AS w1, u.g[2] AS w2 FROM l,
                  LATERAL (SELECT unnest(list_zip(w, w[2:])) AS g) u
                  WHERE u.g[2] IS NOT NULL),
            c AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS n
                  FROM b GROUP BY w1, w2),
            p AS (SELECT w1, w2,
                         CAST(1000 * n // (CAST(SUM(n) OVER
                             (PARTITION BY w1) AS BIGINT)) AS BIGINT)
                           AS pm
                  FROM c),
            s AS (SELECT b.doc_id,
                         CAST(count(*) AS BIGINT) AS n_bigrams,
                         CAST(sum(p.pm) AS BIGINT) AS score_sum
                  FROM b JOIN p USING (w1, w2) GROUP BY b.doc_id),
            sc AS (SELECT d.doc_id, d.source,
                          CAST(CASE WHEN coalesce(s.n_bigrams, 0) = 0
                               THEN 0 ELSE s.score_sum // s.n_bigrams
                               END AS BIGINT) AS avg_pm
                   FROM documents d LEFT JOIN s USING (doc_id))
            SELECT doc_id, source,
                   CAST(ntile(3) OVER (PARTITION BY source
                        ORDER BY avg_pm DESC, doc_id) AS BIGINT) AS tile
            FROM sc""",
        "gopher_rules": """
            WITH w AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+'))
                           AS word
                FROM documents),
            per AS (SELECT doc_id,
                           CAST(count(*) AS BIGINT) AS n_words,
                           CAST(sum(len(word)) * 1000 // count(*)
                                AS BIGINT) AS mwl_pm,
                           CAST(count(*) FILTER (word IN
                                ('a','an','the','and','of','to','in','is'))
                                AS BIGINT) AS n_stop
                    FROM w GROUP BY doc_id)
            SELECT doc_id, n_words, mwl_pm, n_stop,
                   CAST(n_words BETWEEN 30 AND 80 AS BIGINT) AS r_words,
                   CAST(mwl_pm BETWEEN 4000 AND 5000 AS BIGINT) AS r_mwl,
                   CAST(n_stop >= 2 AS BIGINT) AS r_stop,
                   CAST((n_words BETWEEN 30 AND 80)
                        AND (mwl_pm BETWEEN 4000 AND 5000)
                        AND n_stop >= 2 AS BIGINT) AS passed
            FROM per""",
        # parity: same [a-z0-9_]+ lowercase word stream as the engine;
        # grams compared as STRINGS here vs exact base-V integer codes
        # there -- both are bijections on the gram, so counts agree
        "gopher_repetition": """
            WITH words AS (
                SELECT doc_id, unnest(ws) AS w,
                       unnest(range(1, len(ws) + 1)) AS i
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text),
                                                '[a-z0-9_]+') AS ws
                      FROM documents)),
            bcnt AS (
                SELECT a.doc_id, a.w || ' ' || b.w AS bg,
                       count(*) AS c
                FROM words a JOIN words b
                  ON a.doc_id = b.doc_id AND b.i = a.i + 1
                GROUP BY 1, 2),
            btop AS (
                SELECT doc_id,
                       CAST(1000 * max(c) // sum(c) AS BIGINT) AS v
                FROM bcnt GROUP BY doc_id),
            g3 AS (
                SELECT a.doc_id,
                       a.w || ' ' || b.w || ' ' || c.w AS g
                FROM words a
                JOIN words b ON a.doc_id = b.doc_id AND b.i = a.i + 1
                JOIN words c ON a.doc_id = c.doc_id AND c.i = a.i + 2),
            g3s AS (
                SELECT doc_id,
                       CAST(1000 * (count(*) - count(DISTINCT g))
                            // count(*) AS BIGINT) AS v
                FROM g3 GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(len(regexp_extract_all(lower(d.text),
                                               '[a-z0-9_]+'))
                        AS BIGINT) AS n_words,
                   CAST(COALESCE(bt.v, 0) AS BIGINT) AS top2_pm,
                   CAST(COALESCE(g.v, 0) AS BIGINT) AS dup3_pm
            FROM documents d
            LEFT JOIN btop bt USING (doc_id)
            LEFT JOIN g3s g USING (doc_id)
            ORDER BY d.doc_id""",
        "quality_score": f"""
            SELECT doc_id, n_words, stop_pct, punct_pct,
                   CAST(CASE WHEN n_words >= 10 AND stop_pct <= 60
                             AND punct_pct <= 20 THEN 1 ELSE 0 END AS BIGINT)
                       AS quality
            FROM (SELECT doc_id, n_words,
                         (100 * n_stop) // greatest(n_words, 1) AS stop_pct,
                         (100 * n_punct) // greatest(n_chars, 1) AS punct_pct
                  FROM (SELECT doc_id,
                               len(regexp_extract_all(text, '{WORD_RE_SQL}'))
                                   AS n_words,
                               len(regexp_extract_all(lower(text),
                                   '\\b(?:{"|".join(QUALITY_STOPWORDS)})\\b'))
                                   AS n_stop,
                               len(regexp_extract_all(text, '[^\\w\\s]'))
                                   AS n_punct,
                               length(text) AS n_chars
                        FROM documents))""",
        "token_count_bpe": f"""
            SELECT source,
                   CAST(sum(len(regexp_extract_all(text,
                        '{BPE_RE.replace("'", "''")}'))) AS BIGINT) AS n_tokens,
                   count(*) AS n_docs
            FROM documents GROUP BY source""",
        "anti_join": """
            SELECT c_mktsegment, count(*) AS n_customers
            FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM events e
                              WHERE e.user_id = c.c_custkey)
            GROUP BY c_mktsegment""",
        "semi_join": """
            SELECT c_mktsegment, count(*) AS n_customers
            FROM customer c
            WHERE EXISTS (SELECT 1 FROM events e
                          WHERE e.user_id = c.c_custkey)
            GROUP BY c_mktsegment""",
        "multiway_join": """
            SELECT l_orderkey, o_orderdate,
                   CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                                       + 0.5) AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM customer, orders, lineitem
            WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND c_mktsegment = 'BUILDING'
              AND o_orderdate < TIMESTAMP '1998-06-01'
              AND l_shipdate > TIMESTAMP '1998-06-01'
            GROUP BY l_orderkey, o_orderdate
            ORDER BY revenue_cents DESC, l_orderkey LIMIT 10""",
        "asof_join": """
            SELECT e.event_id, o.o_orderdate AS last_order_ts
            FROM events e ASOF LEFT JOIN orders o
              ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate""",
        "window_topk": """
            SELECT o_custkey, o_orderkey,
                   CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                       AS total_cents
            FROM orders
            QUALIFY row_number() OVER
                (PARTITION BY o_custkey
                 ORDER BY o_totalprice DESC, o_orderkey) <= 2""",
        "tumbling_window": """
            SELECT user_id, date_trunc('hour', ts) AS window_start,
                   count(*) AS n,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS value_cents
            FROM events GROUP BY 1, 2""",
        "union_counts": """
            SELECT event_type, count(*) AS n
            FROM (SELECT event_type FROM events WHERE event_type = 'error'
                  UNION ALL
                  SELECT event_type FROM events WHERE value > 150)
            GROUP BY event_type""",
        "profit_by_nation": """
            SELECT n_name, count(*) AS n_items,
                   CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                                       + 0.5) AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM lineitem, supplier, nation, part
            WHERE l_suppkey = s_suppkey AND s_nationkey = n_nationkey
              AND l_partkey = p_partkey AND p_type = 'ECONOMY'
            GROUP BY n_name""",
        "region_rollup": """
            SELECT r_name, count(*) AS n_customers,
                   CAST(sum(CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS acctbal_cents
            FROM customer, nation, region
            WHERE c_nationkey = n_nationkey AND n_regionkey = r_regionkey
            GROUP BY r_name""",
        "sample_hash": """
            SELECT source, count(*) AS n FROM documents
            WHERE substring(md5(CAST(doc_id AS VARCHAR)), 1, 1) IN ('0', '1')
            GROUP BY source""",
        "range_join": """
            SELECT e.event_id,
                   CAST(count(o.o_orderkey) AS BIGINT) AS n_in_window
            FROM events e LEFT JOIN orders o
              ON o.o_custkey = e.user_id
             AND o.o_orderdate BETWEEN e.ts - INTERVAL '30 days' AND e.ts
            GROUP BY e.event_id""",
        "rolling_window": """
            SELECT event_id,
                   CAST(count(*) OVER (
                       PARTITION BY user_id ORDER BY ts
                       RANGE BETWEEN INTERVAL '1 hour' PRECEDING
                       AND CURRENT ROW) AS BIGINT) AS n_in_window
            FROM events""",
        "stratified_sample": """
            SELECT source, doc_id FROM documents
            QUALIFY row_number() OVER
                (PARTITION BY source
                 ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) <= 5""",
        "lang_id": """
            WITH l AS (SELECT lang,
                    list_filter(string_split_regex(lower(text),
                                '[^a-z0-9_]+'), x -> x != '') AS w
                FROM documents),
            c AS (SELECT lang,
                len(list_filter(w, x -> x IN ('the','a','of','and',
                    'to','in','is','it'))) AS c_en,
                len(list_filter(w, x -> x IN ('el','la','de','y',
                    'que','en','un','es'))) AS c_es,
                len(list_filter(w, x -> x IN ('der','die','das','und',
                    'zu','in','ist','ein'))) AS c_de,
                len(list_filter(w, x -> x IN ('le','la','de','et',
                    'que','en','un','est'))) AS c_fr
                FROM l),
            p AS (SELECT lang,
                CASE WHEN greatest(c_en, c_es, c_de, c_fr) = 0
                         THEN 'other'
                     WHEN c_en = greatest(c_en, c_es, c_de, c_fr)
                         THEN 'en'
                     WHEN c_es = greatest(c_en, c_es, c_de, c_fr)
                         THEN 'es'
                     WHEN c_de = greatest(c_en, c_es, c_de, c_fr)
                         THEN 'de'
                     ELSE 'fr' END AS lang_pred
                FROM c)
            SELECT lang, lang_pred,
                   CAST(count(*) AS BIGINT) AS "count()"
            FROM p GROUP BY 1, 2""",
        "lang_kappa": """
            WITH l AS (SELECT lang,
                    list_filter(string_split_regex(lower(text),
                                '[^a-z0-9_]+'), x -> x != '') AS w
                FROM documents),
            c AS (SELECT lang,
                len(list_filter(w, x -> x IN ('the','a','of','and',
                    'to','in','is','it'))) AS c_en,
                len(list_filter(w, x -> x IN ('el','la','de','y',
                    'que','en','un','es'))) AS c_es,
                len(list_filter(w, x -> x IN ('der','die','das','und',
                    'zu','in','ist','ein'))) AS c_de,
                len(list_filter(w, x -> x IN ('le','la','de','et',
                    'que','en','un','est'))) AS c_fr
                FROM l),
            p AS (SELECT lang,
                CASE WHEN greatest(c_en, c_es, c_de, c_fr) = 0
                         THEN 'other'
                     WHEN c_en = greatest(c_en, c_es, c_de, c_fr)
                         THEN 'en'
                     WHEN c_es = greatest(c_en, c_es, c_de, c_fr)
                         THEN 'es'
                     WHEN c_de = greatest(c_en, c_es, c_de, c_fr)
                         THEN 'de'
                     ELSE 'fr' END AS lang_pred
                FROM c),
            conf AS (SELECT lang, lang_pred, count(*) AS cnt
                     FROM p GROUP BY 1, 2),
            tot AS (SELECT SUM(cnt) AS n FROM conf),
            ag AS (SELECT COALESCE(SUM(cnt), 0) AS a FROM conf
                   WHERE lang = lang_pred),
            rm AS (SELECT lang AS k, SUM(cnt) AS r FROM conf
                   GROUP BY 1),
            cm AS (SELECT lang_pred AS k, SUM(cnt) AS cc FROM conf
                   GROUP BY 1),
            sx AS (SELECT COALESCE(SUM(r * cc), 0) AS s
                   FROM rm JOIN cm USING (k))
            SELECT CAST(n AS BIGINT) AS n, CAST(a AS BIGINT) AS agree,
                   -- floor division for signed numerators (DuckDB //
                   -- truncates; Python floors): subtract the
                   -- non-negative remainder first
                   CAST((1000 * (n * a - s)
                         - (((1000 * (n * a - s)) % (n * n - s)
                             + (n * n - s)) % (n * n - s)))
                        // (n * n - s) AS BIGINT) AS kappa_permille
            FROM tot, ag, sx""",
        "pivot_counts": """
            SELECT user_id,
                   CAST(count(*) FILTER (event_type = 'click') AS BIGINT)
                       AS n_click,
                   CAST(count(*) FILTER (event_type = 'error') AS BIGINT)
                       AS n_error,
                   CAST(count(*) FILTER (event_type = 'purchase') AS BIGINT)
                       AS n_purchase,
                   CAST(count(*) FILTER (event_type = 'signup') AS BIGINT)
                       AS n_signup,
                   CAST(count(*) FILTER (event_type = 'view') AS BIGINT)
                       AS n_view
            FROM events GROUP BY user_id""",
        "knn_bruteforce": """
            SELECT q.query_id, e.vec_id
            FROM embeddings e CROSS JOIN
                 (SELECT vec_id AS query_id, embedding AS qv
                  FROM embeddings WHERE vec_id IN (0, 1, 2)) q
            QUALIFY row_number() OVER
                (PARTITION BY q.query_id
                 ORDER BY list_cosine_similarity(e.embedding, q.qv) DESC,
                          e.vec_id) <= 10""",
        # multiline join oracle: cumulative anchor count per file = event
        # id; leading continuation runs form their own event (cum sum 0).
        "multiline_join": """
            WITH lines AS (
              SELECT source AS file_id, doc_id AS ord,
                     CASE WHEN doc_id % 4 = 1 THEN text
                          ELSE '2024-01-05 10:00:00.000000 | ' || text
                     END AS line,
                     CASE WHEN doc_id % 4 = 1 THEN 0 ELSE 1 END AS is_anchor
              FROM documents),
            ev AS (
              SELECT *, sum(is_anchor) OVER
                     (PARTITION BY file_id ORDER BY ord
                      ROWS UNBOUNDED PRECEDING) AS eid
              FROM lines)
            SELECT file_id, min(ord) AS anchor_ord,
                   CAST(count(*) AS BIGINT) AS n_lines,
                   string_agg(line, chr(10) ORDER BY ord) AS message
            FROM ev GROUP BY file_id, eid""",
        # grok oracle is CONSTRUCTIVE: fields derived from the same
        # arithmetic that rendered the lines, never from a regex.
        "grok_fields": """
            SELECT doc_id,
                   CASE WHEN doc_id % 3 IN (0, 1)
                        THEN CAST(100 + doc_id % 900 AS VARCHAR) END AS pid,
                   CASE WHEN doc_id % 3 = 0 THEN
                     ['INFO','ERROR','WARNING','TRACE','CRITICAL'][(doc_id % 5) + 1]
                        WHEN doc_id % 3 = 1 THEN
                     ['info','error','warning','debug','critical'][(doc_id % 5) + 1]
                   END AS loglevel,
                   CASE WHEN doc_id % 3 = 0 THEN 'nova.' || lang END AS module,
                   CASE WHEN doc_id % 3 = 0 THEN ''
                        WHEN doc_id % 3 = 2 THEN 'svc' || (doc_id % 9)
                   END AS syslog_program,
                   CASE WHEN doc_id % 3 = 0 THEN ''
                        WHEN doc_id % 3 = 2 THEN CAST(100 + doc_id % 900 AS VARCHAR)
                   END AS syslog_pid,
                   CASE WHEN doc_id % 3 = 2 THEN 'node-' || (doc_id % 50)
                   END AS syslog_host
            FROM documents""",
        "logdate_normalize": """
            SELECT doc_id,
                   make_timestamp(
                       2024,
                       (doc_id % 12) + 1,
                       CASE WHEN doc_id % 13 = 4 THEN (doc_id % 9) + 1
                            ELSE (doc_id % 19) + 10 END,
                       doc_id % 24, doc_id % 60,
                       ((doc_id * 7) % 60)
                       + CASE WHEN doc_id % 13 IN (0, 2, 8)
                              THEN (doc_id % 1000) / 1000.0
                              WHEN doc_id % 13 IN (1, 6, 11)
                              THEN (doc_id % 1000000) / 1000000.0
                              ELSE 0 END)
                   + CASE WHEN doc_id % 13 = 7 THEN INTERVAL 7 HOUR
                          WHEN doc_id % 13 = 8 THEN - INTERVAL 330 MINUTE
                          WHEN doc_id % 13 = 12 THEN - INTERVAL 2 HOUR
                          ELSE INTERVAL 0 HOUR END AS ts
            FROM documents""",
        "apache_fields": """
            SELECT doc_id,
                   '15/Mar/2024:12:00:00 +0000' AS logdate,
                   verb, request, response, n_bytes,
                   CASE WHEN verb = '' THEN NULL
                        ELSE verb || ' ' || request || ' ' || response
                   END AS logmessage
            FROM (
                SELECT doc_id,
                       CASE WHEN doc_id % 11 = 0 THEN ''
                            ELSE ['GET','POST','PUT','DELETE','HEAD']
                                 [(doc_id % 5) + 1] END AS verb,
                       CASE WHEN doc_id % 11 = 0 THEN ''
                            ELSE '/api/v' || (doc_id % 3) || '/r/' || doc_id
                       END AS request,
                       CAST(200 + 100 * (doc_id % 4) AS VARCHAR) AS response,
                       CASE WHEN doc_id % 13 = 0 THEN ''
                            ELSE CAST(doc_id % 5000 AS VARCHAR)
                       END AS n_bytes
                FROM documents)""",
        "lag_gap": """
            SELECT event_id, user_id,
                   coalesce(date_diff('microsecond',
                                      lag(ts) OVER (PARTITION BY user_id
                                                    ORDER BY ts, event_id),
                                      ts), -1) AS gap_us
            FROM events""",
        "explode_embeddings": """
            SELECT vec_id,
                   CAST(generate_subscripts(embedding, 1) AS BIGINT) AS pos,
                   CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 10000 + 0.5)
                        AS BIGINT) AS val_e4
            FROM embeddings""",
        "quantile_qty": """
            SELECT l_returnflag,
                   CAST(quantile_disc(CAST(floor(l_quantity + 0.5) AS BIGINT),
                                      0.25) AS BIGINT) AS q25,
                   CAST(quantile_disc(CAST(floor(l_quantity + 0.5) AS BIGINT),
                                      0.5) AS BIGINT) AS q50,
                   CAST(quantile_disc(CAST(floor(l_quantity + 0.5) AS BIGINT),
                                      0.9) AS BIGINT) AS q90
            FROM lineitem GROUP BY l_returnflag""",
        "repetition_score": """
            WITH w AS (SELECT doc_id,
                              regexp_extract_all(lower(text),
                                                 '[a-z0-9_]+') AS ws
                       FROM documents),
            c AS (SELECT doc_id,
                         CAST(greatest(len(ws) - 1, 0) AS BIGINT) AS n_2grams,
                         CAST(len(list_distinct(list_transform(
                              range(1, len(ws)),
                              i -> ws[i] || ' ' || ws[i+1]))) AS BIGINT)
                             AS n_uniq_2grams
                  FROM w)
            SELECT doc_id, n_2grams, n_uniq_2grams,
                   CAST((100 * (n_2grams - n_uniq_2grams))
                        // greatest(n_2grams, 1) AS BIGINT) AS dup_2gram_pct
            FROM c""",
        "running_total": """
            SELECT event_id, user_id,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND CURRENT ROW) AS BIGINT) AS running_cents
            FROM events""",
        "rank_orders": """
            SELECT o_orderkey, o_custkey,
                   rank() OVER (
                       PARTITION BY o_custkey
                       ORDER BY CAST(floor(o_totalprice * 100 + 0.5)
                                     AS BIGINT) DESC) AS rnk,
                   dense_rank() OVER (
                       PARTITION BY o_custkey
                       ORDER BY CAST(floor(o_totalprice * 100 + 0.5)
                                     AS BIGINT) DESC) AS dense_rnk
            FROM orders""",
        "quantile_cont_qty": """
            SELECT l_returnflag,
                   quantile_cont(CAST(floor(l_quantity + 0.5) AS BIGINT),
                                 0.25) AS q25c,
                   quantile_cont(CAST(floor(l_quantity + 0.5) AS BIGINT),
                                 0.5) AS q50c,
                   quantile_cont(CAST(floor(l_quantity + 0.5) AS BIGINT),
                                 0.75) AS q75c
            FROM lineitem GROUP BY l_returnflag""",
        "word_topk": """
            SELECT w AS word, count(*) AS n
            FROM (SELECT unnest(regexp_extract_all(lower(text),
                                                   '[a-z0-9_]+')) AS w
                  FROM documents)
            GROUP BY w ORDER BY n DESC, word LIMIT 20""",
        "pack_sequences": """
            WITH s AS (
                SELECT doc_id, n_chars,
                       CAST(sum(n_chars) OVER (ORDER BY doc_id
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND CURRENT ROW) - n_chars AS BIGINT)
                           AS tok_start
                FROM documents)
            SELECT doc_id, tok_start,
                   CAST(tok_start // 2048 AS BIGINT) AS pack_id,
                   CAST(tok_start % 2048 AS BIGINT) AS offset_in_pack,
                   CAST(CASE WHEN tok_start % 2048 + n_chars > 2048
                             THEN 1 ELSE 0 END AS BIGINT) AS spans_boundary
            FROM s""",
        "left_outer_join": """
            SELECT c_custkey,
                   CAST(coalesce(a.n_orders, 0) AS BIGINT) AS n_orders,
                   CAST(coalesce(a.total_cents, 0) AS BIGINT) AS total_cents
            FROM customer LEFT JOIN (
                SELECT o_custkey, count(*) AS n_orders,
                       sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
                           AS total_cents
                FROM orders GROUP BY o_custkey) a
            ON c_custkey = a.o_custkey""",
        "string_agg": """
            SELECT source, string_agg(text, '|' ORDER BY doc_id) AS texts
            FROM documents GROUP BY source""",
        "mode_event": """
            WITH c AS (SELECT user_id, event_type, count(*) AS n
                       FROM events GROUP BY 1, 2),
            r AS (SELECT user_id, event_type, n,
                         row_number() OVER (PARTITION BY user_id
                                            ORDER BY n DESC, event_type) AS rn
                  FROM c)
            SELECT user_id, event_type AS mode_type, CAST(n AS BIGINT) AS n
            FROM r WHERE rn = 1""",
        "value_histogram": """
            SELECT CAST(floor(value / 20.0) AS BIGINT) AS bin,
                   count(*) AS n
            FROM events GROUP BY 1""",
        "interval_lookup": """
            SELECT event_id, coalesce(n_name, 'NONE') AS zone
            FROM events LEFT JOIN nation
            ON value >= n_nationkey * 20 + 3
               AND value < n_nationkey * 20 + 15""",
        "label_centroids": """
            SELECT label, CAST(pos AS BIGINT) AS pos,
                   CAST(floor(CAST(sum(e4) AS DOUBLE) / count(*)) AS BIGINT)
                       AS centroid_e4
            FROM (SELECT CAST(label AS BIGINT) AS label,
                         generate_subscripts(embedding, 1) AS pos,
                         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 10000
                                    + 0.5) AS BIGINT) AS e4
                  FROM embeddings)
            GROUP BY label, pos""",
        "corpus_curation": f"""
            WITH f AS (
                SELECT source, text, n_words
                FROM (SELECT source, text, n_words,
                             (100 * n_stop) // greatest(n_words, 1)
                                 AS stop_pct,
                             (100 * n_punct) // greatest(n_chars, 1)
                                 AS punct_pct
                      FROM (SELECT source, text,
                                   len(regexp_extract_all(text,
                                       '{WORD_RE_SQL}')) AS n_words,
                                   len(regexp_extract_all(lower(text),
                                       '\\b(?:{"|".join(QUALITY_STOPWORDS)})\\b'))
                                       AS n_stop,
                                   len(regexp_extract_all(text, '[^\\w\\s]'))
                                       AS n_punct,
                                   length(text) AS n_chars
                            FROM documents))
                WHERE n_words >= 10 AND stop_pct <= 60 AND punct_pct <= 20),
            d AS (SELECT source, text, CAST(min(n_words) AS BIGINT) AS n_words
                  FROM f GROUP BY source, text)
            SELECT source, count(*) AS n_docs,
                   CAST(sum(n_words) AS BIGINT) AS total_words
            FROM d GROUP BY source""",
        "chunk_text": """
            WITH w AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
                FROM documents),
            k AS (
                SELECT doc_id, ws, len(ws) AS nw,
                       CASE WHEN len(ws) <= 50 THEN 1
                            ELSE CAST(ceil((len(ws) - 50) / 40.0) AS BIGINT)
                                 + 1 END AS nk
                FROM w WHERE len(ws) > 0),
            c AS (SELECT doc_id, ws, nw,
                         unnest(range(nk)) AS chunk_idx FROM k)
            SELECT doc_id, chunk_idx,
                   CAST(least(50, nw - chunk_idx * 40) AS BIGINT) AS n_words,
                   array_to_string(ws[chunk_idx * 40 + 1 : chunk_idx * 40 + 50],
                                   ' ') AS chunk_text
            FROM c""",
        "decontaminate": """
            WITH g AS (
                SELECT doc_id,
                       unnest(list_distinct(list_transform(
                           range(1, len(ws) - 3),
                           i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]
                                || ' ' || ws[i+3] || ' ' || ws[i+4])))
                           AS gram
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '[a-z0-9_]+')
                                 AS ws
                      FROM documents)
                WHERE len(ws) >= 5),
            e AS (SELECT DISTINCT gram FROM g WHERE doc_id % 97 = 0)
            SELECT g.doc_id, count(*) AS n_hits
            FROM g JOIN e USING (gram)
            WHERE g.doc_id % 97 <> 0
            GROUP BY g.doc_id""",
        "vocab_coverage": """
            WITH w AS (
                SELECT source,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+'))
                           AS word
                FROM documents),
            v AS (SELECT word FROM w
                  GROUP BY word ORDER BY count(*) DESC, word LIMIT 8)
            SELECT source, count(*) AS n_tokens,
                   CAST(count(*) FILTER (
                       WHERE word NOT IN (SELECT word FROM v)) AS BIGINT)
                       AS n_oov
            FROM w GROUP BY source""",
        "strip_stopwords": """
            WITH w AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
                FROM documents)
            SELECT doc_id,
                   array_to_string(
                       list_filter(ws, x -> x NOT IN ('a', 'the')), ' ')
                       AS norm_text,
                   CAST(len(list_filter(ws, x -> x NOT IN ('a', 'the')))
                        AS BIGINT) AS n_kept,
                   CAST(len(ws) - len(list_filter(ws, x -> x NOT IN
                        ('a', 'the'))) AS BIGINT) AS n_dropped
            FROM w""",
        "redact": """
            WITH s1 AS (
                SELECT doc_id,
                       regexp_replace(text,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                           '<EMAIL>', 'g') AS t,
                       len(regexp_extract_all(text,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))
                           AS c1
                FROM documents),
            s2 AS (
                SELECT doc_id,
                       regexp_replace(t,
                           '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b',
                           '<IP>', 'g') AS t,
                       c1,
                       len(regexp_extract_all(t,
                           '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b'))
                           AS c2
                FROM s1)
            SELECT doc_id,
                   regexp_replace(t, '\\d{4,}', '<NUM>', 'g') AS red_text,
                   CAST(c1 + c2 + len(regexp_extract_all(t, '\\d{4,}'))
                        AS BIGINT) AS n_redacted
            FROM s2""",
        "ntile": """
            SELECT o_orderkey, o_orderpriority,
                   CAST(ntile(4) OVER (PARTITION BY o_orderpriority
                        ORDER BY o_totalprice, o_orderkey) AS BIGINT) AS tile
            FROM orders""",
        "rollup": """
            SELECT source, lang, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars
            FROM documents GROUP BY ROLLUP(source, lang)""",
        "last_event": """
            SELECT user_id, ts, event_id, event_type
            FROM events
            QUALIFY row_number() OVER (PARTITION BY user_id
                ORDER BY ts DESC, event_id DESC) = 1""",
        "intersect_except": """
            WITH k AS (SELECT user_id, date_trunc('day', ts) AS day,
                              event_type FROM events)
            SELECT user_id, day FROM k WHERE event_type = 'purchase'
            INTERSECT
            SELECT user_id, day FROM k WHERE event_type = 'click'
            EXCEPT
            SELECT user_id, day FROM k WHERE event_type = 'error'""",
        "rate_sample": """
            WITH h AS (
                SELECT source,
                       substring(md5(CAST(doc_id AS VARCHAR)), 1, 1) AS c
                FROM documents)
            SELECT source, count(*) AS n FROM h
            WHERE (source = 'src0' AND c < '4')
               OR (source = 'src1' AND c < '8')
               OR (source NOT IN ('src0', 'src1') AND c < '2')
            GROUP BY source""",
        "jsonl_source": """
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars
            FROM documents GROUP BY lang""",
        "orc_source": """
            SELECT source, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars
            FROM documents GROUP BY source""",
        "csv_source": """
            SELECT event_type, count(*) AS n,
                   CAST(sum(floor(value * 100 + 0.5)) AS BIGINT) AS cents
            FROM events GROUP BY event_type""",
        "late_events": """
            SELECT event_id,
                   CAST(CASE WHEN epoch_us(ts) <
                        max(epoch_us(ts)) OVER (ORDER BY event_id
                            ROWS BETWEEN UNBOUNDED PRECEDING
                            AND 1 PRECEDING) - 3600000000
                        THEN 1 ELSE 0 END AS BIGINT) AS is_late
            FROM events""",
        "cap_source": """
            SELECT doc_id, source FROM documents
            QUALIFY row_number() OVER (PARTITION BY source
                ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) <= 20""",
        "length_batches": """
            WITH r AS (SELECT doc_id, n_chars,
                              row_number() OVER (ORDER BY n_chars DESC,
                                                 doc_id) AS rn
                       FROM documents)
            SELECT (rn - 1) // 16 AS batch_id,
                   COUNT(*) AS n_docs,
                   MAX(n_chars) AS max_len,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_len,
                   CAST(COUNT(*) * MAX(n_chars) - SUM(n_chars) AS BIGINT)
                       AS padding
            FROM r GROUP BY 1""",
        "temperature_mix": """
            WITH q AS (SELECT source,
                              CAST(FLOOR(SQRT(COUNT(*))) AS BIGINT) AS quota
                       FROM documents GROUP BY source)
            SELECT d.doc_id, d.source
            FROM (SELECT doc_id, source,
                         row_number() OVER (PARTITION BY source
                             ORDER BY md5(CAST(doc_id AS VARCHAR)),
                                      doc_id) AS rn
                  FROM documents) d
            JOIN q USING (source)
            WHERE d.rn <= q.quota""",
        "full_outer_join": """
            SELECT coalesce(u.user_id, c.c_custkey) AS key_id,
                   coalesce(u.n_events, 0) AS n_events,
                   CAST(c.c_custkey IS NOT NULL AS BIGINT) AS is_building
            FROM (SELECT user_id, count(*) AS n_events
                  FROM events GROUP BY user_id) u
            FULL OUTER JOIN (SELECT c_custkey FROM customer
                             WHERE c_mktsegment = 'BUILDING') c
            ON u.user_id = c.c_custkey""",
        "tokenize_ids": """
            WITH w AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+'))
                           AS word
                FROM documents),
            c AS (SELECT word, count(*) AS cnt FROM w GROUP BY word),
            v AS (SELECT word,
                         row_number() OVER (ORDER BY cnt DESC, word) - 1
                             AS tid
                  FROM c)
            SELECT doc_id, tid, count(*) AS n
            FROM w JOIN v USING (word)
            GROUP BY doc_id, tid""",
        "outlier_counts": """
            WITH c AS (SELECT event_type,
                              CAST(floor(value * 100 + 0.5) AS BIGINT)
                                  AS cents
                       FROM events),
            m AS (SELECT event_type,
                         CAST(percentile_disc(0.5) WITHIN GROUP
                              (ORDER BY cents) AS BIGINT) AS med
                  FROM c GROUP BY event_type)
            SELECT c.event_type,
                   CAST(count(*) FILTER (WHERE abs(c.cents - m.med)
                        > 50000) AS BIGINT) AS n_outliers,
                   count(*) AS n
            FROM c JOIN m USING (event_type)
            GROUP BY c.event_type""",
        "link_prediction": """
            WITH raw AS (SELECT user_id AS s,
                                user_id + 1 + (event_id % 7) AS d
                         FROM events),
            e AS (SELECT DISTINCT LEAST(s, d) AS a, GREATEST(s, d) AS b
                  FROM raw WHERE s <> d),
            bi AS (SELECT a, b FROM e UNION ALL SELECT b, a FROM e),
            cn AS (SELECT w1.b AS node_a, w2.b AS node_b,
                          COUNT(*) AS n_common
                   FROM bi w1
                   JOIN bi w2 ON w1.a = w2.a AND w1.b < w2.b
                   GROUP BY 1, 2)
            SELECT node_a, node_b, CAST(n_common AS BIGINT) AS n_common
            FROM cn
            WHERE n_common >= 2
              AND NOT EXISTS (SELECT 1 FROM e
                              WHERE e.a = cn.node_a
                                AND e.b = cn.node_b)""",
        "random_walks": """
            WITH raw AS (SELECT user_id AS s,
                                user_id + 1 + (event_id % 7) AS d
                         FROM events),
            e AS (SELECT DISTINCT LEAST(s, d) AS a, GREATEST(s, d) AS b
                  FROM raw WHERE s <> d),
            bi AS (SELECT a, b FROM e UNION ALL SELECT b, a FROM e),
            w0 AS (SELECT DISTINCT a AS start, a AS cur FROM bi),
            w1 AS (SELECT start, cur FROM (
                    SELECT w0.start, bi.b AS cur,
                           ROW_NUMBER() OVER (PARTITION BY w0.start
                               ORDER BY md5(CAST(w0.cur AS VARCHAR)
                                            || ':' ||
                                            CAST(bi.b AS VARCHAR)
                                            || ':1'), bi.b) AS rk
                    FROM w0 JOIN bi ON bi.a = w0.cur)
                WHERE rk = 1),
            w2 AS (SELECT start, cur FROM (
                    SELECT w1.start, bi.b AS cur,
                           ROW_NUMBER() OVER (PARTITION BY w1.start
                               ORDER BY md5(CAST(w1.cur AS VARCHAR)
                                            || ':' ||
                                            CAST(bi.b AS VARCHAR)
                                            || ':2'), bi.b) AS rk
                    FROM w1 JOIN bi ON bi.a = w1.cur)
                WHERE rk = 1),
            w3 AS (SELECT start, cur FROM (
                    SELECT w2.start, bi.b AS cur,
                           ROW_NUMBER() OVER (PARTITION BY w2.start
                               ORDER BY md5(CAST(w2.cur AS VARCHAR)
                                            || ':' ||
                                            CAST(bi.b AS VARCHAR)
                                            || ':3'), bi.b) AS rk
                    FROM w2 JOIN bi ON bi.a = w2.cur)
                WHERE rk = 1)
            SELECT start, CAST(0 AS BIGINT) AS step, cur AS node FROM w0
            UNION ALL
            SELECT start, CAST(1 AS BIGINT) AS step, cur AS node FROM w1
            UNION ALL
            SELECT start, CAST(2 AS BIGINT) AS step, cur AS node FROM w2
            UNION ALL
            SELECT start, CAST(3 AS BIGINT) AS step, cur AS node FROM w3""",
        "gini_value": """
            WITH v AS (SELECT event_type,
                              CAST(floor(value*100 + 0.5) AS BIGINT)
                                  AS x FROM events),
            o AS (SELECT event_type, x,
                         ROW_NUMBER() OVER (PARTITION BY event_type
                                            ORDER BY x) AS rn,
                         COUNT(*) OVER (PARTITION BY event_type) AS n
                  FROM v)
            SELECT event_type,
                   CAST(MAX(n) AS BIGINT) AS n_obs,
                   CAST((1000 * SUM(CAST(2*rn - n - 1 AS HUGEINT) * x))
                        // (CAST(MAX(n) AS HUGEINT)
                            * SUM(CAST(x AS HUGEINT))) AS BIGINT)
                       AS gini_permille
            FROM o GROUP BY event_type
            HAVING SUM(x) > 0""",
        "benford": """
            WITH v AS (SELECT CAST(floor(l_extendedprice*100 + 0.5)
                                   AS BIGINT) AS x FROM lineitem),
            d AS (SELECT CAST(substr(CAST(x AS VARCHAR), 1, 1)
                              AS BIGINT) AS dig FROM v WHERE x > 0),
            c AS (SELECT dig, CAST(COUNT(*) AS BIGINT) AS n
                  FROM d GROUP BY dig),
            t AS (SELECT CAST(SUM(n) AS BIGINT) AS nn FROM c),
            b(dig, bp) AS (VALUES (1, 301), (2, 176), (3, 124),
                                  (4, 96), (5, 79), (6, 66),
                                  (7, 57), (8, 51), (9, 45))
            SELECT c.dig AS digit, c.n,
                   CAST((1000 * c.n) // t.nn AS BIGINT) AS obs_permille,
                   CAST(b.bp AS BIGINT) AS benford_permille,
                   CAST(abs((1000 * c.n) // t.nn - b.bp) AS BIGINT)
                       AS abs_dev_permille
            FROM c, t JOIN b ON b.dig = c.dig""",
        "fano": """
            WITH c AS (SELECT user_id,
                              CAST(ts AS DATE) AS d,
                              CAST(COUNT(*) AS BIGINT) AS cnt
                       FROM events GROUP BY user_id, d),
            a AS (SELECT user_id,
                         CAST(COUNT(*) AS BIGINT) AS n_units,
                         CAST(SUM(cnt) AS BIGINT) AS s,
                         CAST(SUM(cnt*cnt) AS BIGINT) AS q
                  FROM c GROUP BY user_id)
            SELECT user_id, n_units, s AS n_events,
                   CAST((1000 * (n_units*q - s*s)) // (n_units*s)
                        AS BIGINT) AS fano_permille
            FROM a""",
        "hhi": """
            WITH c AS (SELECT user_id, event_type,
                              CAST(COUNT(*) AS BIGINT) AS cnt
                       FROM events GROUP BY user_id, event_type),
            a AS (SELECT user_id,
                         CAST(SUM(cnt) AS BIGINT) AS n,
                         CAST(SUM(cnt*cnt) AS BIGINT) AS s2
                  FROM c GROUP BY user_id)
            SELECT user_id, n,
                   CAST((1000 * s2) // (n * n) AS BIGINT)
                       AS hhi_permille
            FROM a""",
        "autocorr": """
            WITH b AS (SELECT user_id,
                              CAST(floor(value*100 + 0.5) AS BIGINT) AS x,
                              ts, event_id FROM events),
            o AS (SELECT user_id, x,
                         ROW_NUMBER() OVER (PARTITION BY user_id
                                            ORDER BY ts, event_id) AS rn,
                         COUNT(*) OVER (PARTITION BY user_id) AS n
                  FROM b),
            p AS (SELECT o.user_id,
                         SUM(CAST(o.x AS HUGEINT) * o2.x) AS pp
                  FROM o JOIN o o2 ON o2.user_id = o.user_id
                                  AND o2.rn = o.rn + 1
                  GROUP BY o.user_id),
            s AS (SELECT user_id, CAST(COUNT(*) AS HUGEINT) AS n,
                         SUM(CAST(x AS HUGEINT)) AS ss,
                         SUM(CAST(x AS HUGEINT) * x) AS qq,
                         SUM(CASE WHEN rn <= 1
                                  THEN CAST(x AS HUGEINT) ELSE 0 END) AS hh,
                         SUM(CASE WHEN rn > n - 1
                                  THEN CAST(x AS HUGEINT) ELSE 0 END) AS tt
                  FROM o GROUP BY user_id),
            f AS (SELECT s.user_id, s.n,
                         s.n*s.n*p.pp - s.n*s.ss*(2*s.ss - s.tt - s.hh)
                           + (s.n-1)*s.ss*s.ss AS num,
                         s.n*s.n*s.qq - s.n*s.ss*s.ss AS den
                  FROM s JOIN p ON p.user_id = s.user_id
                  WHERE s.n > 1)
            SELECT user_id, CAST(n AS BIGINT) AS n_obs,
                   CAST(CASE WHEN num < 0 THEN -((1000*(-num)) // den)
                             ELSE (1000*num) // den END AS BIGINT)
                       AS acf_permille
            FROM f WHERE den > 0""",
        "max_coverage": """
            WITH l AS (SELECT doc_id,
                          list_filter(string_split_regex(lower(text),
                              '[^a-z0-9_]+'), x -> x != '') AS w
                       FROM documents),
            g AS (SELECT DISTINCT doc_id,
                         u.g[1] || ' ' || u.g[2] || ' ' || u.g[3] AS gram
                  FROM l, LATERAL (SELECT unnest(
                      list_zip(w, w[2:], w[3:])) AS g) u
                  WHERE u.g[3] IS NOT NULL),
            p1 AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS c
                   FROM g GROUP BY doc_id),
            s1 AS (SELECT doc_id, c FROM p1
                   ORDER BY c DESC, doc_id LIMIT 1),
            cov1 AS (SELECT DISTINCT gram FROM g
                     WHERE doc_id = (SELECT doc_id FROM s1)),
            p2 AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS c FROM g
                   WHERE gram NOT IN (SELECT gram FROM cov1)
                   GROUP BY doc_id),
            s2 AS (SELECT doc_id, c FROM p2
                   ORDER BY c DESC, doc_id LIMIT 1),
            cov2 AS (SELECT gram FROM cov1 UNION
                     SELECT gram FROM g
                     WHERE doc_id = (SELECT doc_id FROM s2)),
            p3 AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS c FROM g
                   WHERE gram NOT IN (SELECT gram FROM cov2)
                   GROUP BY doc_id),
            s3 AS (SELECT doc_id, c FROM p3
                   ORDER BY c DESC, doc_id LIMIT 1),
            cov3 AS (SELECT gram FROM cov2 UNION
                     SELECT gram FROM g
                     WHERE doc_id = (SELECT doc_id FROM s3)),
            p4 AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS c FROM g
                   WHERE gram NOT IN (SELECT gram FROM cov3)
                   GROUP BY doc_id),
            s4 AS (SELECT doc_id, c FROM p4
                   ORDER BY c DESC, doc_id LIMIT 1)
            SELECT CAST(1 AS BIGINT) AS pick, doc_id, c AS gain FROM s1
            UNION ALL SELECT 2, doc_id, c FROM s2
            UNION ALL SELECT 3, doc_id, c FROM s3
            UNION ALL SELECT 4, doc_id, c FROM s4""",
        "hits": """
            WITH e AS (
                SELECT user_id AS src,
                       1000000 + event_id % 500 AS dst FROM events
                UNION ALL
                SELECT 1000000 + event_id % 500 AS src,
                       user_id AS dst
                FROM events WHERE event_id % 7 = 0),
            nodes AS (SELECT src AS node FROM e
                      UNION SELECT dst AS node FROM e),
            a1 AS (SELECT nd.node,
                          CAST(COALESCE(COUNT(e.src), 0) AS BIGINT) AS a
                   FROM nodes nd LEFT JOIN e ON e.dst = nd.node
                   GROUP BY nd.node),
            h1 AS (SELECT nd.node,
                          CAST(COALESCE(SUM(a1.a), 0) AS BIGINT) AS h
                   FROM nodes nd LEFT JOIN e ON e.src = nd.node
                   LEFT JOIN a1 ON a1.node = e.dst
                   GROUP BY nd.node),
            a2 AS (SELECT nd.node,
                          CAST(COALESCE(SUM(h1.h), 0) AS BIGINT) AS a
                   FROM nodes nd LEFT JOIN e ON e.dst = nd.node
                   LEFT JOIN h1 ON h1.node = e.src
                   GROUP BY nd.node),
            h2 AS (SELECT nd.node,
                          CAST(COALESCE(SUM(a2.a), 0) AS BIGINT) AS h
                   FROM nodes nd LEFT JOIN e ON e.src = nd.node
                   LEFT JOIN a2 ON a2.node = e.dst
                   GROUP BY nd.node)
            SELECT h2.node, h2.h AS hub, a2.a AS auth
            FROM h2 JOIN a2 ON a2.node = h2.node""",
        "running_distinct": """
            WITH f AS (SELECT event_id, user_id, ts, event_type,
                              ROW_NUMBER() OVER (
                                  PARTITION BY user_id, event_type
                                  ORDER BY ts, event_id) AS rocc
                       FROM events)
            SELECT event_id,
                   CAST(SUM(CASE WHEN rocc = 1 THEN 1 ELSE 0 END)
                        OVER (PARTITION BY user_id
                              ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING)
                        AS BIGINT) AS running_distinct
            FROM f""",
        "partition_prune": """
            SELECT event_type AS sink, COUNT(*) AS n,
                   CAST(SUM(floor(value * 100 + 0.5)) AS BIGINT) AS cents
            FROM events
            WHERE event_type IN ('click', 'error')
            GROUP BY event_type""",
        "msf": """
            WITH mx AS (SELECT MAX(doc_id) AS m FROM documents)
            SELECT doc_id AS u, doc_id + 1 AS v,
                   CAST(1000 + doc_id AS BIGINT) AS w
            FROM documents
            UNION ALL
            SELECT doc_id, doc_id + 7,
                   CAST(1000000 + doc_id AS BIGINT)
            FROM documents, mx WHERE doc_id >= m - 5""",
        "reciprocity": """
            WITH e AS (
                SELECT DISTINCT u, v FROM (
                    SELECT doc_id AS u, doc_id + 1 AS v FROM documents
                    UNION ALL
                    SELECT doc_id + 1, doc_id FROM documents
                    WHERE doc_id % 3 = 0
                    UNION ALL
                    SELECT doc_id, doc_id + 7 FROM documents)
                WHERE u <> v),
            r AS (SELECT COUNT(*) AS m,
                         SUM(CASE WHEN EXISTS (
                             SELECT 1 FROM e e2
                             WHERE e2.u = e.v AND e2.v = e.u)
                             THEN 1 ELSE 0 END) AS mr
                  FROM e)
            SELECT CAST(m AS BIGINT) AS m,
                   CAST(mr AS BIGINT) AS m_recip,
                   CAST(1000 * mr // m AS BIGINT) AS recip_permille
            FROM r""",
        "lexical_richness": """
            WITH w AS (
                SELECT source,
                       unnest(regexp_extract_all(lower(text),
                                                 '[a-z0-9_]+')) AS word
                FROM documents),
            pw AS (SELECT source, word, count(*) AS cnt
                   FROM w GROUP BY 1, 2),
            g AS (SELECT source,
                         SUM(cnt) AS n_tokens,
                         COUNT(*) AS n_types,
                         SUM(CASE WHEN cnt = 1 THEN 1 ELSE 0 END)
                             AS n_hapax
                  FROM pw GROUP BY source)
            SELECT source,
                   CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(n_types AS BIGINT) AS n_types,
                   CAST(n_hapax AS BIGINT) AS n_hapax,
                   CAST(1000 * n_types // n_tokens AS BIGINT)
                       AS ttr_permille,
                   CAST(1000 * n_hapax // n_types AS BIGINT)
                       AS hapax_permille
            FROM g""",
        "assortativity": """
            WITH e AS (
                SELECT doc_id AS u, doc_id + 1 AS v FROM documents
                UNION ALL
                SELECT doc_id, doc_id + 7 FROM documents
                UNION ALL
                SELECT doc_id, doc_id + 3 FROM documents
                WHERE doc_id % 2 = 0),
            od AS (SELECT u AS node, COUNT(*) AS d FROM e GROUP BY u),
            idg AS (SELECT v AS node, COUNT(*) AS d FROM e GROUP BY v),
            j AS (SELECT od.d AS x, idg.d AS y
                  FROM e JOIN od ON od.node = e.u
                         JOIN idg ON idg.node = e.v),
            s AS (SELECT CAST(COUNT(*) AS BIGINT) AS m,
                         CAST(SUM(x) AS BIGINT) AS sx,
                         CAST(SUM(y) AS BIGINT) AS sy,
                         CAST(SUM(x * x) AS BIGINT) AS sxx,
                         CAST(SUM(y * y) AS BIGINT) AS syy,
                         CAST(SUM(x * y) AS BIGINT) AS sxy
                  FROM j)
            SELECT m, sx, sy, sxx, syy, sxy,
                   CAST(m * sxy - sx * sy AS BIGINT) AS r_num,
                   CAST(m * sxx - sx * sx AS BIGINT) AS r_den1,
                   CAST(m * syy - sy * sy AS BIGINT) AS r_den2
            FROM s""",
        "neighbor_agg": """
            WITH e AS (SELECT doc_id AS u, doc_id + 1 AS v
                       FROM documents
                       UNION ALL
                       SELECT doc_id, doc_id + 7 FROM documents),
            f AS (SELECT doc_id AS node, n_chars AS f FROM documents),
            h1 AS (SELECT e.v AS node,
                          CAST(SUM(f.f) AS BIGINT) AS h1_sum,
                          COUNT(*) AS h1_n
                   FROM e JOIN f ON f.node = e.u GROUP BY e.v),
            h2 AS (SELECT e.v AS node,
                          CAST(SUM(h1.h1_sum) AS BIGINT) AS h2_sum,
                          CAST(SUM(h1.h1_n) AS BIGINT) AS h2_n
                   FROM e JOIN h1 ON h1.node = e.u GROUP BY e.v)
            SELECT COALESCE(h1.node, h2.node) AS node,
                   COALESCE(h1_sum, 0) AS h1_sum,
                   COALESCE(h1_n, 0) AS h1_n,
                   COALESCE(h2_sum, 0) AS h2_sum,
                   COALESCE(h2_n, 0) AS h2_n
            FROM h1 FULL OUTER JOIN h2 ON h1.node = h2.node""",
        "seq_mining": """
            WITH p AS (
                SELECT DISTINCT e1.user_id,
                       e1.event_type AS t1, e2.event_type AS t2
                FROM events e1
                JOIN events e2 ON e1.user_id = e2.user_id
                 AND (e2.ts > e1.ts
                      OR (e2.ts = e1.ts AND e2.event_id > e1.event_id)))
            SELECT t1, t2, COUNT(*) AS support
            FROM p GROUP BY t1, t2""",
        "decayed_sum": """
            WITH mx AS (SELECT MAX(epoch_us(ts) // 86400000000) AS m
                        FROM events)
            SELECT event_type,
                   CAST(SUM(
                       CAST(floor(value * 100 + 0.5) AS BIGINT)
                       // (CAST(1 AS BIGINT) << CAST(LEAST(
                           ((SELECT m FROM mx)
                            - epoch_us(ts) // 86400000000) // 3,
                           62) AS BIGINT))) AS BIGINT) AS decayed_cents,
                   COUNT(*) AS n
            FROM events GROUP BY event_type""",
        "clustering_coeff": """
            WITH raw AS (SELECT user_id AS s,
                                user_id + 1 + (event_id % 7) AS d
                         FROM events),
            e AS (SELECT DISTINCT LEAST(s, d) AS a, GREATEST(s, d) AS b
                  FROM raw WHERE s <> d),
            bi AS (SELECT a, b FROM e UNION ALL SELECT b, a FROM e),
            deg AS (SELECT a AS node, COUNT(*) AS deg FROM bi GROUP BY a),
            tri AS (SELECT w1.a AS node, COUNT(*) AS tri
                    FROM bi w1
                    JOIN bi w2 ON w1.a = w2.a AND w1.b < w2.b
                    JOIN e ON e.a = w1.b AND e.b = w2.b
                    GROUP BY w1.a)
            SELECT d.node,
                   CAST(d.deg AS BIGINT) AS deg,
                   CAST(COALESCE(t.tri, 0) AS BIGINT) AS tri,
                   CAST(CASE WHEN d.deg >= 2
                        THEN (2000 * COALESCE(t.tri, 0))
                             // (d.deg * (d.deg - 1))
                        ELSE 0 END AS BIGINT) AS coeff_permille
            FROM deg d LEFT JOIN tri t ON t.node = d.node""",
        "sorted_neighborhood": """
            WITH r AS (SELECT doc_id, n_chars,
                              ROW_NUMBER() OVER (ORDER BY n_chars,
                                                 doc_id) AS rn
                       FROM documents)
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(b.n_chars - a.n_chars AS BIGINT) AS key_gap
            FROM r a JOIN r b ON b.rn - a.rn BETWEEN 1 AND 3""",
        "sssp": """
            -- 4 chained Bellman-Ford rounds == sssp n_rounds=4
            WITH e AS (
                SELECT doc_id AS src, doc_id + 1 AS dst,
                       1 + doc_id % 3 AS w FROM documents
                UNION ALL
                SELECT doc_id, doc_id + 10, 5 FROM documents),
            r0 AS (SELECT doc_id AS node, CAST(0 AS BIGINT) AS dist
                   FROM documents WHERE doc_id % 100 = 0),
            r1 AS (SELECT node, MIN(dist) AS dist FROM (
                    SELECT node, dist FROM r0
                    UNION ALL
                    SELECT e.dst AS node, r0.dist + e.w AS dist
                    FROM r0 JOIN e ON e.src = r0.node)
                GROUP BY node),
            r2 AS (SELECT node, MIN(dist) AS dist FROM (
                    SELECT node, dist FROM r1
                    UNION ALL
                    SELECT e.dst AS node, r1.dist + e.w AS dist
                    FROM r1 JOIN e ON e.src = r1.node)
                GROUP BY node),
            r3 AS (SELECT node, MIN(dist) AS dist FROM (
                    SELECT node, dist FROM r2
                    UNION ALL
                    SELECT e.dst AS node, r2.dist + e.w AS dist
                    FROM r2 JOIN e ON e.src = r2.node)
                GROUP BY node),
            r4 AS (SELECT node, MIN(dist) AS dist FROM (
                    SELECT node, dist FROM r3
                    UNION ALL
                    SELECT e.dst AS node, r3.dist + e.w AS dist
                    FROM r3 JOIN e ON e.src = r3.node)
                GROUP BY node)
            SELECT node, CAST(dist AS BIGINT) AS dist FROM r4""",
        "kcore": """
            -- path-power construction: block of 20, power p =
            -- 1 + (block % 4); coreness of P_n^p is exactly p
            SELECT doc_id AS node,
                   CAST(1 + ((doc_id // 20) % 4) AS BIGINT) AS core
            FROM documents""",
        "connected_components": """
            WITH n AS (
                SELECT DISTINCT node FROM (
                    SELECT doc_id AS node FROM documents
                    WHERE doc_id % 10 <> 0
                    UNION ALL
                    SELECT doc_id - 1 AS node FROM documents
                    WHERE doc_id % 10 <> 0))
            SELECT node, (node // 10) * 10 AS component FROM n""",
        "ppr": """
            WITH e AS (SELECT user_id AS src, event_id % 500 AS dst
                       FROM events),
            deg AS (SELECT src, COUNT(*) AS d FROM e GROUP BY src),
            nodes AS (SELECT src AS node FROM e
                      UNION SELECT dst AS node FROM e),
            seeds AS (SELECT DISTINCT user_id AS node FROM events
                      WHERE user_id % 10 = 0),
            ns AS (SELECT COUNT(*) AS n FROM seeds),
            r0 AS (SELECT node,
                          CASE WHEN node IN (SELECT node FROM seeds)
                               THEN 1000000000000 // (SELECT n FROM ns)
                               ELSE 0 END AS r
                   FROM nodes),
            i1 AS (SELECT nd.node, CAST(
                          CASE WHEN nd.node IN (SELECT node FROM seeds)
                               THEN (15 * 1000000000000)
                                    // (100 * (SELECT n FROM ns))
                               ELSE 0 END
                          + COALESCE(SUM((85 * r0.r)
                                         // (100 * deg.d)), 0)
                          AS BIGINT) AS r
                   FROM nodes nd
                   LEFT JOIN e ON e.dst = nd.node
                   LEFT JOIN deg ON deg.src = e.src
                   LEFT JOIN r0 ON r0.node = e.src
                   GROUP BY nd.node),
            i2 AS (SELECT nd.node, CAST(
                          CASE WHEN nd.node IN (SELECT node FROM seeds)
                               THEN (15 * 1000000000000)
                                    // (100 * (SELECT n FROM ns))
                               ELSE 0 END
                          + COALESCE(SUM((85 * i1.r)
                                         // (100 * deg.d)), 0)
                          AS BIGINT) AS r
                   FROM nodes nd
                   LEFT JOIN e ON e.dst = nd.node
                   LEFT JOIN deg ON deg.src = e.src
                   LEFT JOIN i1 ON i1.node = e.src
                   GROUP BY nd.node),
            i3 AS (SELECT nd.node, CAST(
                          CASE WHEN nd.node IN (SELECT node FROM seeds)
                               THEN (15 * 1000000000000)
                                    // (100 * (SELECT n FROM ns))
                               ELSE 0 END
                          + COALESCE(SUM((85 * i2.r)
                                         // (100 * deg.d)), 0)
                          AS BIGINT) AS r
                   FROM nodes nd
                   LEFT JOIN e ON e.dst = nd.node
                   LEFT JOIN deg ON deg.src = e.src
                   LEFT JOIN i2 ON i2.node = e.src
                   GROUP BY nd.node)
            SELECT node, r AS rank_fp FROM i3""",
        "pagerank": """
            WITH e AS (SELECT user_id AS src, event_id % 500 AS dst
                       FROM events),
            deg AS (SELECT src, COUNT(*) AS d FROM e GROUP BY src),
            nodes AS (SELECT src AS node FROM e
                      UNION SELECT dst AS node FROM e),
            nn AS (SELECT COUNT(*) AS n FROM nodes),
            r0 AS (SELECT node,
                          1000000000000 // (SELECT n FROM nn) AS r
                   FROM nodes),
            i1 AS (SELECT nd.node, CAST(
                          (15 * 1000000000000) // (100 * (SELECT n FROM nn))
                          + COALESCE(SUM((85 * r0.r) // (100 * deg.d)), 0)
                          AS BIGINT) AS r
                   FROM nodes nd
                   LEFT JOIN e ON e.dst = nd.node
                   LEFT JOIN deg ON deg.src = e.src
                   LEFT JOIN r0 ON r0.node = e.src
                   GROUP BY nd.node),
            i2 AS (SELECT nd.node, CAST(
                          (15 * 1000000000000) // (100 * (SELECT n FROM nn))
                          + COALESCE(SUM((85 * i1.r) // (100 * deg.d)), 0)
                          AS BIGINT) AS r
                   FROM nodes nd
                   LEFT JOIN e ON e.dst = nd.node
                   LEFT JOIN deg ON deg.src = e.src
                   LEFT JOIN i1 ON i1.node = e.src
                   GROUP BY nd.node),
            i3 AS (SELECT nd.node, CAST(
                          (15 * 1000000000000) // (100 * (SELECT n FROM nn))
                          + COALESCE(SUM((85 * i2.r) // (100 * deg.d)), 0)
                          AS BIGINT) AS r
                   FROM nodes nd
                   LEFT JOIN e ON e.dst = nd.node
                   LEFT JOIN deg ON deg.src = e.src
                   LEFT JOIN i2 ON i2.node = e.src
                   GROUP BY nd.node)
            SELECT node, r AS rank_fp FROM i3""",
        "cube": """
            SELECT o_orderstatus, o_orderpriority,
                   count(*) AS n_orders,
                   CAST(sum(CAST(floor(o_totalprice*100 + 0.5) AS BIGINT))
                        AS BIGINT) AS total_cents
            FROM orders GROUP BY CUBE(o_orderstatus, o_orderpriority)""",
        "interval_overlap": """
            WITH l AS (SELECT l_partkey k, l_orderkey ok,
                              CAST(l_linenumber AS BIGINT) ln,
                              l_shipdate s,
                              l_shipdate + INTERVAL (CAST(l_quantity AS INT))
                                DAY AS e
                       FROM lineitem)
            SELECT a.k AS l_partkey,
                   a.ok AS a_l_orderkey, a.ln AS a_l_linenumber,
                   b.ok AS b_l_orderkey, b.ln AS b_l_linenumber,
                   CAST(datediff('day', greatest(a.s, b.s),
                                 least(a.e, b.e)) AS BIGINT) AS overlap_days
            FROM l a JOIN l b
              ON a.k = b.k AND (a.ok, a.ln) < (b.ok, b.ln)
             AND a.s <= b.e AND b.s <= a.e""",
        "inverted_index": """
            WITH l AS (SELECT doc_id,
                    list_filter(string_split_regex(lower(text),
                                '[^a-z0-9_]+'), x -> x != '') AS w
                FROM documents),
            b AS (SELECT DISTINCT doc_id, u.g FROM l,
                  LATERAL (SELECT unnest(list_zip(w, w[2:])) AS g) u
                  WHERE u.g[2] IS NOT NULL),
            p AS (SELECT concat(g[1], ' ', g[2]) AS term,
                         count(*) AS df,
                         string_agg(CAST(doc_id AS VARCHAR), ','
                                    ORDER BY doc_id) AS postings
                  FROM b GROUP BY term)
            SELECT term, df, postings FROM p WHERE df BETWEEN 2 AND 20""",
        "next_word": """
            WITH l AS (SELECT list_filter(string_split_regex(lower(text),
                                '[^a-z0-9_]+'), x -> x != '') AS w
                FROM documents),
            b AS (SELECT u.g[1] AS w1, u.g[2] AS w2 FROM l,
                  LATERAL (SELECT unnest(list_zip(w, w[2:])) AS g) u
                  WHERE u.g[2] IS NOT NULL),
            c AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS n
                  FROM b GROUP BY w1, w2),
            t AS (SELECT *,
                         CAST(SUM(n) OVER (PARTITION BY w1) AS BIGINT)
                           AS total,
                         ROW_NUMBER() OVER (PARTITION BY w1
                                            ORDER BY n DESC, w2) AS rk
                  FROM c)
            SELECT w1, w2, n, total,
                   CAST(1000 * n // total AS BIGINT) AS p_permille
            FROM t WHERE rk <= 3""",
        "weighted_sample": """
            SELECT doc_id, n_chars, w, priority FROM (
                SELECT doc_id, n_chars, (n_chars // 64 + 1) AS w,
                       CAST(concat('0x',
                            substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))
                            AS BIGINT) // (n_chars // 64 + 1) AS priority
                FROM documents)
            ORDER BY priority, doc_id LIMIT 100""",
        "melt": """
            WITH b AS (SELECT l_orderkey,
                   CAST(l_linenumber AS BIGINT) AS l_linenumber,
                   CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT)
                     AS price_cents,
                   CAST(floor(l_discount*100 + 0.5) AS BIGINT)
                     AS disc_cents,
                   CAST(floor(l_tax*100 + 0.5) AS BIGINT) AS tax_cents,
                   CAST(floor(l_quantity*100 + 0.5) AS BIGINT)
                     AS qty_cents
                FROM lineitem)
            SELECT l_orderkey, l_linenumber,
                   'price_cents' AS variable, price_cents AS value FROM b
            UNION ALL
            SELECT l_orderkey, l_linenumber,
                   'disc_cents', disc_cents FROM b
            UNION ALL
            SELECT l_orderkey, l_linenumber,
                   'tax_cents', tax_cents FROM b
            UNION ALL
            SELECT l_orderkey, l_linenumber,
                   'qty_cents', qty_cents FROM b""",
        "moving_sum": """
            WITH b AS (SELECT event_type,
                    date_trunc('hour', ts) AS h FROM events),
            bounds AS (SELECT min(h) AS lo, max(h) AS hi FROM b),
            grid AS (SELECT t.event_type, g.h
                     FROM (SELECT DISTINCT event_type FROM b) t
                     CROSS JOIN bounds
                     CROSS JOIN LATERAL (SELECT unnest(generate_series(
                         bounds.lo, bounds.hi, INTERVAL 1 HOUR)) AS h) g),
            c AS (SELECT event_type, h, CAST(count(*) AS BIGINT) AS n
                  FROM b GROUP BY 1, 2),
            d AS (SELECT grid.event_type, grid.h AS window_start,
                         CAST(coalesce(c.n, 0) AS BIGINT) AS n
                  FROM grid LEFT JOIN c USING (event_type, h))
            SELECT event_type, window_start, n,
                   CAST(SUM(n) OVER (PARTITION BY event_type
                        ORDER BY window_start
                        ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)
                        AS BIGINT) AS sum_7h
            FROM d""",
        "seq_pattern": """
            WITH p AS (SELECT user_id,
                    string_agg(substr(event_type, 1, 1), ''
                               ORDER BY ts, event_id) AS s
                FROM events GROUP BY user_id)
            SELECT 'signup_then_purchase' AS pattern,
                   CAST(count(*) FILTER (WHERE regexp_matches(s, 's.*p'))
                        AS BIGINT) AS n_users FROM p
            UNION ALL
            SELECT 'click_error_click',
                   CAST(count(*) FILTER (WHERE regexp_matches(s,
                        'c.*e.*c')) AS BIGINT) FROM p
            UNION ALL
            SELECT 'ends_with_purchase',
                   CAST(count(*) FILTER (WHERE regexp_matches(s, 'p$'))
                        AS BIGINT) FROM p""",
        "weighted_median": """
            WITH x AS (SELECT l_returnflag,
                    CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT)
                      AS cents
                FROM lineitem,
                LATERAL (SELECT unnest(range(CAST(l_quantity AS INT)))))
            SELECT l_returnflag,
                   CAST(percentile_disc(0.25) WITHIN GROUP
                        (ORDER BY cents) AS BIGINT) AS p25,
                   CAST(percentile_disc(0.5) WITHIN GROUP
                        (ORDER BY cents) AS BIGINT) AS p50,
                   CAST(percentile_disc(0.75) WITHIN GROUP
                        (ORDER BY cents) AS BIGINT) AS p75
            FROM x GROUP BY l_returnflag""",
        "rare_labels": """
            WITH h AS (SELECT p_name, CAST(count(*) AS BIGINT) AS n
                       FROM lineitem JOIN part ON l_partkey = p_partkey
                       GROUP BY p_name),
            t AS (SELECT CAST(sum(n) AS BIGINT) AS total FROM h)
            SELECT CASE WHEN h.n < t.total * 2 // 100 THEN 'OTHER'
                        ELSE h.p_name END AS label,
                   CAST(sum(h.n) AS BIGINT) AS n
            FROM h, t GROUP BY 1""",
        "auto_salt": """
            SELECT p_name,
                   CAST(count(*) AS BIGINT) AS n_items,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)
                     AS sum_qty
            FROM lineitem JOIN part ON l_partkey = p_partkey
            GROUP BY p_name""",
        "funnel3": """
            WITH s1 AS (SELECT user_id, min(ts) AS t1 FROM events
                        WHERE event_type = 'signup' GROUP BY user_id),
            s2 AS (SELECT e.user_id, min(e.ts) AS t2
                   FROM events e JOIN s1 ON e.user_id = s1.user_id
                   WHERE e.event_type = 'click' AND e.ts > s1.t1
                     AND e.ts <= s1.t1 + INTERVAL 7 DAY
                   GROUP BY e.user_id),
            s3 AS (SELECT e.user_id, min(e.ts) AS t3
                   FROM events e JOIN s2 ON e.user_id = s2.user_id
                   WHERE e.event_type = 'purchase' AND e.ts > s2.t2
                     AND e.ts <= s2.t2 + INTERVAL 7 DAY
                   GROUP BY e.user_id)
            SELECT 1 AS step, 'signup' AS step_name,
                   CAST((SELECT count(*) FROM s1) AS BIGINT) AS n_keys
            UNION ALL
            SELECT 2, 'click', (SELECT count(*) FROM s2)
            UNION ALL
            SELECT 3, 'purchase', (SELECT count(*) FROM s3)""",
        "golden_record": """
            SELECT user_id,
                   CAST(max(CAST(floor(value*100 + 0.5) AS BIGINT))
                        AS BIGINT) AS max_cents,
                   max(ts) AS last_ts,
                   arg_max(event_type, ts) AS last_type,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM events GROUP BY user_id""",
        "day_over_day": """
            WITH d AS (SELECT event_type,
                    date_trunc('day', ts) AS day,
                    CAST(count(*) AS BIGINT) AS n
                FROM events GROUP BY 1, 2),
            l AS (SELECT *, LAG(n) OVER (PARTITION BY event_type
                        ORDER BY day) AS p FROM d)
            SELECT event_type, day, n,
                   CAST(coalesce(p, -1) AS BIGINT) AS n_prev,
                   CAST(CASE WHEN p IS NULL THEN 0 ELSE n - p END
                        AS BIGINT) AS delta
            FROM l""",
        "top_spenders": """
            WITH s AS (SELECT o_custkey,
                    CAST(sum(CAST(floor(o_totalprice*100 + 0.5)
                                  AS BIGINT)) AS BIGINT) AS total_cents
                FROM orders GROUP BY o_custkey),
            j AS (SELECT s.o_custkey, s.total_cents, c.c_mktsegment,
                         ROW_NUMBER() OVER (PARTITION BY c.c_mktsegment
                             ORDER BY s.total_cents DESC, s.o_custkey)
                           AS rk
                  FROM s JOIN customer c ON c.c_custkey = s.o_custkey)
            SELECT o_custkey, total_cents, c_mktsegment
            FROM j WHERE rk <= 3""",
        "grouping_sets": """
            SELECT o_orderstatus, o_orderpriority,
                   count(*) AS n_orders,
                   CAST(sum(CAST(floor(o_totalprice*100 + 0.5) AS BIGINT))
                        AS BIGINT) AS total_cents
            FROM orders
            GROUP BY GROUPING SETS ((o_orderstatus, o_orderpriority),
                                    (o_orderstatus), ())""",
        "multi_distinct": """
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
                   CAST(count(DISTINCT date_trunc('day', ts)) AS BIGINT)
                     AS n_days
            FROM events GROUP BY event_type""",
        "resample_grid": """
            WITH b AS (SELECT event_type,
                    date_trunc('hour', ts) AS h FROM events),
            bounds AS (SELECT min(h) AS lo, max(h) AS hi FROM b),
            grid AS (SELECT t.event_type, g.h
                     FROM (SELECT DISTINCT event_type FROM b) t
                     CROSS JOIN bounds
                     CROSS JOIN LATERAL (SELECT unnest(generate_series(
                         bounds.lo, bounds.hi, INTERVAL 1 HOUR)) AS h) g),
            c AS (SELECT event_type, h, CAST(count(*) AS BIGINT) AS n
                  FROM b GROUP BY 1, 2)
            SELECT grid.event_type, grid.h AS window_start,
                   CAST(coalesce(c.n, 0) AS BIGINT) AS n
            FROM grid LEFT JOIN c USING (event_type, h)""",
        "balance_classes": """
            WITH m AS (SELECT min(n) AS cap FROM (
                    SELECT count(*) AS n FROM events
                    GROUP BY event_type)),
            r AS (SELECT event_type,
                         ROW_NUMBER() OVER (PARTITION BY event_type
                             ORDER BY md5(CAST(event_id AS VARCHAR)),
                                      event_id) AS rk
                  FROM events)
            SELECT event_type, CAST(count(*) AS BIGINT) AS n_kept
            FROM r, m WHERE r.rk <= m.cap
            GROUP BY event_type""",
        "session_paths": """
            WITH e AS (SELECT user_id, ts, event_id, event_type
                       FROM events),
            s AS (SELECT *, CASE WHEN lag(ts) OVER w IS NULL
                         OR ts - lag(ts) OVER w > INTERVAL '30 minutes'
                         THEN 1 ELSE 0 END AS new_s
                  FROM e WINDOW w AS (PARTITION BY user_id
                                      ORDER BY ts, event_id)),
            s2 AS (SELECT *, SUM(new_s) OVER (PARTITION BY user_id
                       ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING) AS sid FROM s),
            p AS (SELECT user_id, sid,
                         string_agg(event_type, '>'
                                    ORDER BY ts, event_id) AS path
                  FROM s2 GROUP BY 1, 2),
            c AS (SELECT path, CAST(count(*) AS BIGINT) AS n
                  FROM p GROUP BY path)
            SELECT path, n FROM c
            ORDER BY n DESC, path LIMIT 10""",
        "union_evolved": """
            SELECT doc_id, source, CAST(NULL AS BIGINT) AS n_chars,
                   CAST(NULL AS VARCHAR) AS lang
            FROM documents WHERE doc_id % 2 = 0
            UNION ALL
            SELECT doc_id, CAST(NULL AS VARCHAR), n_chars, lang
            FROM documents WHERE doc_id % 2 = 1""",
        "pushdown_scan": """
            SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)
                     AS sum_qty
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1999-01-01'
            GROUP BY l_returnflag""",
        "window_anomaly": """
            WITH w AS (SELECT event_type,
                    date_trunc('hour', ts) AS window_start,
                    CAST(count(*) AS BIGINT) AS n
                FROM events GROUP BY 1, 2),
            b AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS total,
                         CAST(count(*) AS BIGINT) AS n_windows
                  FROM w GROUP BY event_type)
            SELECT w.event_type, w.window_start, w.n
            FROM w JOIN b USING (event_type)
            WHERE 2 * w.n * b.n_windows > 3 * b.total""",
        "dsir_select": """
            WITH w AS (
                SELECT doc_id, source,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+'))
                           AS word
                FROM documents),
            v AS (SELECT word,
                         CAST(count(*) AS BIGINT) AS raw_n,
                         CAST(count(*) FILTER (source = 'src3')
                              AS BIGINT) AS tgt_n
                  FROM w GROUP BY word),
            wt AS (SELECT word,
                          (1000000 * (tgt_n + 1)) // (raw_n + 1) AS wt
                   FROM v),
            s AS (SELECT doc_id, CAST(sum(wt) AS BIGINT) AS score
                  FROM w JOIN wt USING (word) GROUP BY doc_id)
            SELECT doc_id, score FROM s
            ORDER BY score DESC, doc_id LIMIT 100""",
        "budget_sample": """
            WITH b AS (SELECT doc_id, source, n_chars,
                    md5(CAST(doc_id AS VARCHAR)) AS h FROM documents),
            c AS (SELECT doc_id, source, n_chars,
                         SUM(n_chars) OVER (PARTITION BY source
                             ORDER BY h, doc_id
                             ROWS UNBOUNDED PRECEDING) AS cum
                  FROM b)
            SELECT doc_id, source, n_chars
            FROM c WHERE cum <= 4000""",
        "target_encode": """
            WITH b AS (SELECT event_id, event_type,
                    CAST(floor(value*100 + 0.5) AS BIGINT) AS cents
                FROM events),
            g AS (SELECT event_type, CAST(sum(cents) AS BIGINT) AS s,
                         CAST(count(*) AS BIGINT) AS n
                  FROM b GROUP BY event_type)
            SELECT b.event_id, b.event_type, b.cents,
                   CAST(CASE WHEN g.n <= 1 THEN 0
                        ELSE g.s - b.cents END AS BIGINT) AS loo_num,
                   CAST(greatest(g.n - 1, 0) AS BIGINT) AS loo_den
            FROM b JOIN g USING (event_type)""",
        "kfold": """
            WITH b AS (SELECT doc_id, source,
                    md5(CAST(doc_id AS VARCHAR)) AS h FROM documents)
            SELECT doc_id, source,
                   CAST((ROW_NUMBER() OVER (PARTITION BY source
                         ORDER BY h, doc_id) - 1) % 5 AS BIGINT)
                     AS fold
            FROM b""",
        "global_rank": """
            WITH b AS (SELECT o_orderkey,
                    CAST(floor(o_totalprice*100 + 0.5) AS BIGINT)
                      AS cents FROM orders)
            SELECT o_orderkey, cents,
                   CAST(RANK() OVER (ORDER BY cents) AS BIGINT) AS rank,
                   CAST(1000 * (RANK() OVER (ORDER BY cents) - 1)
                        // greatest((SELECT count(*) - 1 FROM b), 1)
                        AS BIGINT) AS pct_permille
            FROM b""",
        "transitions": """
            WITH s AS (SELECT user_id, event_type,
                    LEAD(event_type) OVER (PARTITION BY user_id
                        ORDER BY ts, event_id) AS next_type
                FROM events)
            SELECT event_type AS from_state, next_type AS to_state,
                   CAST(count(*) AS BIGINT) AS n
            FROM s WHERE next_type IS NOT NULL
            GROUP BY 1, 2""",
        "keyword_tags": """
            WITH pats(pattern) AS (
                VALUES ('filter'), ('hash join'), ('slow query'),
                       ('scan'), ('merge batch')),
            occ AS (
                SELECT p.pattern,
                       (LENGTH(d.text) - LENGTH(REPLACE(d.text,
                            p.pattern, ''))) // LENGTH(p.pattern)
                       AS n
                FROM documents d CROSS JOIN pats p)
            SELECT pattern,
                   CAST(SUM(CASE WHEN n > 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_docs,
                   CAST(SUM(n) AS BIGINT) AS n_occurrences
            FROM occ GROUP BY 1""",
        "eccentricity": """
            SELECT l.doc_id AS landmark,
                   CAST(MAX(ABS(d.doc_id - l.doc_id)) AS BIGINT) AS ecc,
                   CAST(count(*) AS BIGINT) AS n_reached
            FROM documents l, documents d
            WHERE l.doc_id % 10 = (l.doc_id // 10) % 10
              AND d.doc_id // 10 = l.doc_id // 10
              AND d.doc_id <> l.doc_id
            GROUP BY 1""",
        "stress_centrality": """
            SELECT v.doc_id AS node, CAST(count(*) AS BIGINT) AS stress
            FROM documents v, documents s, documents t
            WHERE s.doc_id % 10 IN (0, 4)
              AND v.doc_id // 10 = s.doc_id // 10
              AND t.doc_id // 10 = s.doc_id // 10
              AND ((s.doc_id < v.doc_id AND v.doc_id < t.doc_id)
                OR (t.doc_id < v.doc_id AND v.doc_id < s.doc_id))
            GROUP BY 1""",
        "landmark_distances": """
            SELECT d1.doc_id AS node, d2.doc_id AS landmark,
                   CAST(ABS(d1.doc_id - d2.doc_id) AS BIGINT) AS dist
            FROM documents d1, documents d2
            WHERE d2.doc_id % 97 = 0
              AND ABS(d1.doc_id - d2.doc_id) <= 12""",
        "harmonic_centrality": """
            SELECT d2.doc_id AS landmark,
                   CAST(count(*) AS BIGINT) AS n_reached,
                   CAST(SUM(1000000 // ABS(d1.doc_id - d2.doc_id))
                        AS BIGINT) AS harmonic_micro
            FROM documents d1, documents d2
            WHERE d2.doc_id % 97 = 0
              AND d1.doc_id <> d2.doc_id
              AND ABS(d1.doc_id - d2.doc_id) <= 12
            GROUP BY 1""",
        "bfs_hops": """
            WITH d AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p
                       FROM lineitem),
            e AS (SELECT a.p AS a, b.p AS b
                  FROM d a JOIN d b ON a.o = b.o AND a.p < b.p
                  GROUP BY 1, 2 HAVING count(*) >= 2),
            eb AS (SELECT a AS u, b AS v FROM e
                   UNION ALL SELECT b, a FROM e),
            h0 AS (SELECT DISTINCT l_partkey AS n, 0 AS h FROM lineitem
                   WHERE l_partkey % 97 = 0),
            h1 AS (SELECT DISTINCT eb.v AS n, 1 AS h
                   FROM eb JOIN h0 ON eb.u = h0.n),
            h2 AS (SELECT DISTINCT eb.v AS n, 2 AS h
                   FROM eb JOIN h1 ON eb.u = h1.n),
            h3 AS (SELECT DISTINCT eb.v AS n, 3 AS h
                   FROM eb JOIN h2 ON eb.u = h2.n)
            SELECT n AS node, CAST(min(h) AS BIGINT) AS hops
            FROM (SELECT * FROM h0 UNION ALL SELECT * FROM h1
                  UNION ALL SELECT * FROM h2 UNION ALL SELECT * FROM h3)
            GROUP BY n""",
        "triangles": """
            WITH d AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p
                       FROM lineitem),
            e AS (SELECT a.p AS a, b.p AS b
                  FROM d a JOIN d b ON a.o = b.o AND a.p < b.p
                  GROUP BY 1, 2 HAVING count(*) >= 2)
            SELECT (SELECT CAST(count(*) AS BIGINT) FROM e) AS n_edges,
                   (SELECT CAST(count(*) AS BIGINT) FROM e e1
                    JOIN e e2 ON e1.b = e2.a
                    JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b)
                     AS n_triangles""",
        "join_audit": """
            WITH lc AS (SELECT o_orderkey AS key, count(*) AS nl
                        FROM orders GROUP BY 1),
            rc AS (SELECT l_orderkey AS key, count(*) AS nr
                   FROM lineitem GROUP BY 1),
            j AS (SELECT lc.key, nl * nr AS amp
                  FROM lc JOIN rc USING (key))
            SELECT CAST(sum(amp) AS BIGINT) AS join_rows,
                   CAST(max(amp) AS BIGINT) AS max_amplification,
                   (SELECT key FROM j ORDER BY amp DESC, key LIMIT 1)
                     AS hot_key,
                   CAST(count(*) AS BIGINT) AS n_shared_keys
            FROM j""",
        "caliper_match": """
            WITH o AS (SELECT o_orderkey AS id,
                              CAST(floor(o_totalprice * 100 + 0.5)
                                   AS BIGINT) AS s,
                              o_orderpriority = '1-URGENT' AS tr
                       FROM orders),
            t AS (SELECT * FROM o WHERE tr),
            c AS (SELECT * FROM o WHERE NOT tr)
            SELECT treated_id, control_id, dist FROM (
                SELECT t.id AS treated_id, c.id AS control_id,
                       abs(t.s - c.s) AS dist,
                       row_number() OVER (PARTITION BY t.id
                           ORDER BY abs(t.s - c.s), c.id) AS rn
                FROM t JOIN c ON abs(t.s - c.s) <= 10000)
            WHERE rn = 1""",
        "path_counts": """
            WITH d AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p
                       FROM lineitem),
            e AS (SELECT a.p AS a, b.p AS b
                  FROM d a JOIN d b ON a.o = b.o AND a.p < b.p
                  GROUP BY 1, 2 HAVING count(*) >= 2),
            eb AS (SELECT a AS u, b AS v FROM e
                   UNION ALL SELECT b, a FROM e),
            a0 AS (SELECT DISTINCT l_partkey AS n,
                          CAST(0 AS BIGINT) AS h,
                          CAST(1 AS BIGINT) AS c
                   FROM lineitem WHERE l_partkey % 97 = 0),
            c1 AS (SELECT eb.v AS n, CAST(sum(a0.c) AS BIGINT) AS c
                   FROM eb JOIN a0 ON eb.u = a0.n
                   WHERE eb.v NOT IN (SELECT n FROM a0) GROUP BY 1),
            a1 AS (SELECT * FROM a0
                   UNION ALL SELECT n, 1, c FROM c1),
            c2 AS (SELECT eb.v AS n, CAST(sum(a1.c) AS BIGINT) AS c
                   FROM eb JOIN a1 ON eb.u = a1.n
                   WHERE eb.v NOT IN (SELECT n FROM a1) GROUP BY 1),
            a2 AS (SELECT * FROM a1
                   UNION ALL SELECT n, 2, c FROM c2),
            c3 AS (SELECT eb.v AS n, CAST(sum(a2.c) AS BIGINT) AS c
                   FROM eb JOIN a2 ON eb.u = a2.n
                   WHERE eb.v NOT IN (SELECT n FROM a2) GROUP BY 1),
            a3 AS (SELECT * FROM a2
                   UNION ALL SELECT n, 3, c FROM c3)
            SELECT n AS node, h AS hops, c AS paths FROM a3""",
        "widest_paths": """
            WITH d AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p
                       FROM lineitem),
            e AS (SELECT a.p AS a, b.p AS b,
                         CAST(count(*) AS BIGINT) AS w
                  FROM d a JOIN d b ON a.o = b.o AND a.p < b.p
                  GROUP BY 1, 2 HAVING count(*) >= 2),
            eb AS (SELECT a AS u, b AS v, w FROM e
                   UNION ALL SELECT b, a, w FROM e),
            b0 AS (SELECT DISTINCT l_partkey AS n,
                          CAST(4611686018427387904 AS BIGINT) AS wd
                   FROM lineitem WHERE l_partkey % 97 = 0),
            c1 AS (SELECT eb.v AS n, max(least(b0.wd, eb.w)) AS wd
                   FROM eb JOIN b0 ON eb.u = b0.n GROUP BY 1),
            b1 AS (SELECT n, max(wd) AS wd FROM
                   (SELECT * FROM b0 UNION ALL SELECT * FROM c1)
                   GROUP BY n),
            c2 AS (SELECT eb.v AS n, max(least(b1.wd, eb.w)) AS wd
                   FROM eb JOIN b1 ON eb.u = b1.n GROUP BY 1),
            b2 AS (SELECT n, max(wd) AS wd FROM
                   (SELECT * FROM b1 UNION ALL SELECT * FROM c2)
                   GROUP BY n),
            c3 AS (SELECT eb.v AS n, max(least(b2.wd, eb.w)) AS wd
                   FROM eb JOIN b2 ON eb.u = b2.n GROUP BY 1),
            b3 AS (SELECT n, max(wd) AS wd FROM
                   (SELECT * FROM b2 UNION ALL SELECT * FROM c3)
                   GROUP BY n)
            SELECT n AS node, CAST(wd AS BIGINT) AS width FROM b3""",
        "modularity": """
            WITH d AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p
                       FROM lineitem),
            e AS (SELECT a.p AS a, b.p AS b
                  FROM d a JOIN d b ON a.o = b.o AND a.p < b.p
                  GROUP BY 1, 2 HAVING count(*) >= 2),
            deg AS (SELECT n % 7 AS community,
                           count(*) AS degree_sum
                    FROM (SELECT a AS n FROM e
                          UNION ALL SELECT b FROM e)
                    GROUP BY 1),
            ei AS (SELECT a % 7 AS community,
                          count(*) AS internal_edges
                   FROM e WHERE a % 7 = b % 7 GROUP BY 1)
            SELECT deg.community,
                   CAST(coalesce(ei.internal_edges, 0) AS BIGINT)
                     AS internal_edges,
                   CAST(deg.degree_sum AS BIGINT) AS degree_sum
            FROM deg LEFT JOIN ei USING (community)""",
        "butterflies": """
            WITH e AS (SELECT DISTINCT l_orderkey AS k, l_partkey AS i
                       FROM lineitem),
            f AS (SELECT * FROM e WHERE i IN
                  (SELECT i FROM e GROUP BY i HAVING count(*) <= 64)),
            w AS (SELECT a.k AS k1, b.k AS k2,
                         CAST(count(*) AS BIGINT) AS c
                  FROM f a JOIN f b ON a.i = b.i AND a.k < b.k
                  GROUP BY 1, 2)
            SELECT (SELECT CAST(count(*) AS BIGINT) FROM f) AS n_edges,
                   CAST(coalesce(sum(c), 0) AS BIGINT) AS n_wedges,
                   CAST(coalesce(sum(c * (c - 1) // 2), 0) AS BIGINT)
                     AS n_butterflies
            FROM w""",
        "cooccurrence": """
            WITH d AS (SELECT DISTINCT user_id, event_type FROM events),
            c AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
                  FROM d GROUP BY event_type),
            p AS (SELECT x.event_type AS a, y.event_type AS b,
                         CAST(count(*) AS BIGINT) AS n_ab
                  FROM d x JOIN d y USING (user_id)
                  WHERE x.event_type < y.event_type
                  GROUP BY 1, 2)
            SELECT p.a, p.b, p.n_ab, ca.n AS n_a, cb.n AS n_b,
                   CAST(1000 * p.n_ab // ca.n AS BIGINT)
                     AS conf_ab_permille,
                   CAST(1000 * p.n_ab // cb.n AS BIGINT)
                     AS conf_ba_permille
            FROM p JOIN c ca ON ca.event_type = p.a
                   JOIN c cb ON cb.event_type = p.b""",
        "checksum": """
            WITH h AS (SELECT CAST(concat('0x',
                        substr(md5(concat(CAST(doc_id AS VARCHAR), '|',
                                          source)), 1, 15)) AS BIGINT)
                         AS v FROM documents)
            SELECT CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(sum(CAST(v AS HUGEINT))
                        % 2305843009213693951 AS BIGINT) AS checksum
            FROM h""",
        "collocations": """
            WITH l AS (SELECT list_filter(string_split_regex(lower(text),
                                '[^a-z0-9_]+'), x -> x != '') AS w
                FROM documents),
            b AS (SELECT u.g[1] AS w1, u.g[2] AS w2 FROM l,
                  LATERAL (SELECT unnest(list_zip(w, w[2:])) AS g) u
                  WHERE u.g[2] IS NOT NULL),
            c AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS n_xy
                  FROM b GROUP BY w1, w2),
            u AS (SELECT wd AS w, CAST(count(*) AS BIGINT) AS n
                  FROM (SELECT unnest(w) AS wd FROM l) GROUP BY wd),
            t AS (SELECT CAST(sum(n) AS BIGINT) AS total FROM u)
            SELECT c.w1, c.w2, c.n_xy,
                   CAST(1000 * c.n_xy * t.total // (ux.n * uy.n)
                        AS BIGINT) AS lift_permille
            FROM c, t
            JOIN u ux ON ux.w = c.w1
            JOIN u uy ON uy.w = c.w2
            WHERE c.n_xy >= 2""",
        "mad": """
            WITH b AS (SELECT event_type,
                    CAST(floor(value*100 + 0.5) AS BIGINT) AS cents
                FROM events),
            m AS (SELECT event_type,
                         CAST(percentile_disc(0.5) WITHIN GROUP
                              (ORDER BY cents) AS BIGINT) AS med
                  FROM b GROUP BY event_type),
            d AS (SELECT b.event_type, m.med,
                         abs(b.cents - m.med) AS dev
                  FROM b JOIN m USING (event_type))
            SELECT event_type, CAST(any_value(med) AS BIGINT) AS med,
                   CAST(percentile_disc(0.5) WITHIN GROUP
                        (ORDER BY dev) AS BIGINT) AS mad
            FROM d GROUP BY event_type""",
        "twap": """
            WITH b AS (SELECT user_id, ts, event_id,
                    CAST(floor(value*100 + 0.5) AS BIGINT) AS cents
                FROM events),
            w AS (SELECT user_id, cents,
                         CAST(epoch_us(LEAD(ts) OVER
                              (PARTITION BY user_id
                               ORDER BY ts, event_id) - ts) AS BIGINT)
                           AS dt
                  FROM b)
            SELECT user_id,
                   CAST(count(dt) AS BIGINT) AS n_intervals,
                   CAST(coalesce(sum(dt), 0) AS BIGINT) AS sum_dt_us,
                   CAST(coalesce(sum(cents * dt), 0) AS BIGINT)
                     AS sum_value_dt,
                   CAST(CASE WHEN coalesce(sum(dt), 0) = 0 THEN 0
                        ELSE sum(cents * dt) // sum(dt) END AS BIGINT)
                     AS twap
            FROM w GROUP BY user_id""",
        "merge_upsert": """
            WITH base AS (SELECT o_orderkey AS k,
                    CAST(floor(o_totalprice*100 + 0.5) AS BIGINT)
                      AS cents FROM orders),
            upd AS (SELECT k, cents + 1 AS cents,
                           (k % 100 = 0) AS del
                    FROM base WHERE k % 10 = 0)
            SELECT coalesce(u.k, b.k) AS k,
                   coalesce(u.cents, b.cents) AS cents
            FROM base b FULL OUTER JOIN upd u ON b.k = u.k
            WHERE NOT coalesce(u.del, FALSE)""",
        "contract": """
            SELECT 'disc_over_5pct' AS rule,
                   CAST(count(*) FILTER (WHERE l_discount > 0.05)
                        AS BIGINT) AS n_violations FROM lineitem
            UNION ALL
            SELECT 'pk_unique',
                   CAST(coalesce((SELECT sum(n - 1) FROM (
                        SELECT count(*) AS n FROM lineitem
                        GROUP BY l_orderkey, l_linenumber) WHERE n > 1),
                        0) AS BIGINT)
            UNION ALL
            SELECT 'qty_gt_45',
                   CAST(count(*) FILTER (WHERE l_quantity > 45)
                        AS BIGINT) FROM lineitem
            UNION ALL
            SELECT 'shipdate_null',
                   CAST(count(*) FILTER (WHERE l_shipdate IS NULL)
                        AS BIGINT) FROM lineitem""",
        "skipgrams": """
            WITH l AS (SELECT list_filter(
                           string_split_regex(lower(text),
                                              '[^a-z0-9_]+'),
                           x -> x != '') AS w
                       FROM documents),
            p AS (
                SELECT u.g[1] AS w1, u.g[2] AS w2 FROM l,
                  LATERAL (SELECT unnest(list_zip(w, w[2:])) AS g) u
                WHERE u.g[2] IS NOT NULL
                UNION ALL
                SELECT u.g[1], u.g[2] FROM l,
                  LATERAL (SELECT unnest(list_zip(w, w[3:])) AS g) u
                WHERE u.g[2] IS NOT NULL
                UNION ALL
                SELECT u.g[1], u.g[2] FROM l,
                  LATERAL (SELECT unnest(list_zip(w, w[4:])) AS g) u
                WHERE u.g[2] IS NOT NULL)
            SELECT w1, w2, CAST(count(*) AS BIGINT) AS n
            FROM p GROUP BY 1, 2
            ORDER BY n DESC, w1, w2 LIMIT 20""",
        "count_of_counts": """
            WITH l AS (SELECT list_filter(
                           string_split_regex(lower(text),
                                              '[^a-z0-9_]+'),
                           x -> x != '') AS w
                       FROM documents),
            u AS (SELECT unnest(w) AS g FROM l),
            uc AS (SELECT g, count(*) AS n FROM u GROUP BY g),
            b AS (SELECT u2.g[1] AS w1, u2.g[2] AS w2 FROM l,
                  LATERAL (SELECT unnest(list_zip(w, w[2:])) AS g) u2
                  WHERE u2.g[2] IS NOT NULL),
            bc AS (SELECT w1, w2, count(*) AS n FROM b
                   GROUP BY w1, w2)
            SELECT CAST(1 AS BIGINT) AS ord, CAST(n AS BIGINT) AS freq,
                   CAST(count(*) AS BIGINT) AS n_ngrams
            FROM uc GROUP BY n
            UNION ALL
            SELECT CAST(2 AS BIGINT), CAST(n AS BIGINT),
                   CAST(count(*) AS BIGINT)
            FROM bc GROUP BY n""",
        "source_overlap": """
            WITH sw AS (SELECT DISTINCT source,
                            unnest(regexp_extract_all(lower(text),
                                                      '[a-z0-9_]+'))
                              AS w
                        FROM documents),
            sz AS (SELECT source, count(*) AS n FROM sw
                   GROUP BY source),
            i AS (SELECT a.source AS sa, b.source AS sb,
                         count(*) AS inter
                  FROM sw a JOIN sw b
                    ON a.w = b.w AND a.source < b.source
                  GROUP BY 1, 2)
            SELECT sa AS src_a, sb AS src_b,
                   CAST(inter AS BIGINT) AS inter,
                   CAST(za.n + zb.n - inter AS BIGINT) AS uni
            FROM i JOIN sz za ON za.source = sa
                 JOIN sz zb ON zb.source = sb""",
        "trimmed_mean": """
            WITH o AS (SELECT o_orderpriority AS grp,
                              CAST(floor(o_totalprice * 100 + 0.5)
                                   AS BIGINT) AS v,
                              o_orderkey AS id
                       FROM orders),
            r AS (SELECT grp, v,
                         row_number() OVER (PARTITION BY grp
                             ORDER BY v, id) - 1 AS rn,
                         count(*) OVER (PARTITION BY grp) AS ng
                  FROM o)
            SELECT grp AS o_orderpriority,
                   CAST(count(*) AS BIGINT) AS n_kept,
                   CAST(sum(v) AS BIGINT) AS sum_kept
            FROM r
            WHERE rn >= ng * 100 // 1000
              AND rn < ng - ng * 100 // 1000
            GROUP BY grp""",
        "quantile_normalize": """
            WITH r AS (SELECT doc_id, source, n_chars,
                              row_number() OVER (PARTITION BY source
                                  ORDER BY n_chars, doc_id) AS rn,
                              count(*) OVER (PARTITION BY source)
                                AS ng
                       FROM documents),
            ref AS (SELECT n_chars AS v,
                           row_number() OVER (ORDER BY n_chars,
                                              doc_id) AS rr
                    FROM documents WHERE source = 'src0'),
            nr AS (SELECT count(*) AS c FROM ref)
            SELECT r.doc_id, r.source, r.n_chars, ref.v AS mapped
            FROM r, nr
            JOIN ref ON ref.rr = 1 + (r.rn - 1) * nr.c // r.ng""",
        "nb_classifier": """
            WITH tok AS (
                SELECT doc_id, lang = 'en' AS pos,
                       unnest(regexp_extract_all(lower(text),
                                                 '[a-z0-9_]+')) AS word
                FROM documents),
            cnt AS (SELECT word,
                           CAST(count(*) FILTER (WHERE pos)
                                AS BIGINT) AS n_pos,
                           CAST(count(*) FILTER (WHERE NOT pos)
                                AS BIGINT) AS n_neg
                    FROM tok GROUP BY word),
            tot AS (SELECT sum(n_pos) AS tp, sum(n_neg) AS tn,
                           count(*) AS v FROM cnt),
            wt AS (SELECT word,
                          1000 * (n_pos + 1) * (tn + v)
                            // ((n_neg + 1) * (tp + v)) - 1000 AS wgt
                   FROM cnt, tot)
            SELECT t.doc_id, CAST(sum(wgt) AS BIGINT) AS score,
                   CAST(sum(wgt) > 0 AS BIGINT) AS pred
            FROM tok t JOIN wt USING (word)
            GROUP BY t.doc_id""",
        "lm_score": """
            WITH l AS (SELECT doc_id,
                    list_filter(string_split_regex(lower(text),
                                '[^a-z0-9_]+'), x -> x != '') AS w
                FROM documents),
            b AS (SELECT doc_id, u.g[1] AS w1, u.g[2] AS w2 FROM l,
                  LATERAL (SELECT unnest(list_zip(w, w[2:])) AS g) u
                  WHERE u.g[2] IS NOT NULL),
            c AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS n
                  FROM b GROUP BY w1, w2),
            p AS (SELECT w1, w2,
                         CAST(1000 * n // (CAST(SUM(n) OVER
                             (PARTITION BY w1) AS BIGINT)) AS BIGINT)
                           AS pm
                  FROM c),
            s AS (SELECT b.doc_id,
                         CAST(count(*) AS BIGINT) AS n_bigrams,
                         CAST(sum(p.pm) AS BIGINT) AS score_sum
                  FROM b JOIN p USING (w1, w2) GROUP BY b.doc_id)
            SELECT d.doc_id,
                   CAST(coalesce(s.n_bigrams, 0) AS BIGINT) AS n_bigrams,
                   CAST(coalesce(s.score_sum, 0) AS BIGINT) AS score_sum,
                   CAST(CASE WHEN coalesce(s.n_bigrams, 0) = 0 THEN 0
                        ELSE s.score_sum // s.n_bigrams END AS BIGINT)
                     AS avg_permille
            FROM documents d LEFT JOIN s USING (doc_id)""",
        "edit1_pairs": """
            WITH f AS (SELECT DISTINCT p_name FROM part
                       WHERE len(p_name) BETWEEN 3 AND 40)
            SELECT a.p_name AS a, b.p_name AS b
            FROM f a JOIN f b
              ON a.p_name < b.p_name
             AND levenshtein(a.p_name, b.p_name) = 1""",
        "edit_distance_pairs": """
            WITH f AS (SELECT DISTINCT p_name FROM part
                       WHERE len(p_name) BETWEEN 3 AND 40)
            SELECT a.p_name AS a, b.p_name AS b,
                   CAST(levenshtein(a.p_name, b.p_name) AS BIGINT)
                     AS dist
            FROM f a JOIN f b ON a.p_name < b.p_name
            WHERE levenshtein(a.p_name, b.p_name) <= 2""",
        "row_number": """
            SELECT o_orderkey,
                   CAST(epoch_us(o_orderdate) AS BIGINT) AS date_us,
                   CAST(ROW_NUMBER() OVER (ORDER BY o_orderdate,
                                           o_orderkey) AS BIGINT)
                     AS row_num
            FROM orders""",
        "minmax_scale": """
            WITH b AS (SELECT event_id, event_type,
                    CAST(floor(value*100 + 0.5) AS BIGINT) AS cents
                FROM events),
            m AS (SELECT event_type, min(cents) AS mn, max(cents) AS mx
                  FROM b GROUP BY event_type)
            SELECT b.event_id, b.event_type, b.cents,
                   CASE WHEN m.mx = m.mn THEN 0
                        ELSE (b.cents - m.mn) * 1000 // (m.mx - m.mn)
                   END AS scaled_permille
            FROM b JOIN m USING (event_type)""",
        "corr_stats": """
            WITH b AS (SELECT l_returnflag,
                    CAST(l_quantity AS BIGINT) AS x,
                    CAST(floor(l_discount*100 + 0.5) AS BIGINT) AS y
                FROM lineitem)
            SELECT l_returnflag,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(x) AS BIGINT) AS sum_x,
                   CAST(sum(y) AS BIGINT) AS sum_y,
                   CAST(sum(x*x) AS BIGINT) AS sum_xx,
                   CAST(sum(y*y) AS BIGINT) AS sum_yy,
                   CAST(sum(x*y) AS BIGINT) AS sum_xy
            FROM b GROUP BY l_returnflag""",
        "retention": """
            WITH d AS (SELECT DISTINCT user_id,
                              date_trunc('day', ts) AS day FROM events),
            f AS (SELECT user_id, min(day) AS cohort FROM d
                  GROUP BY user_id)
            SELECT f.cohort,
                   CAST(datediff('day', f.cohort, d.day) AS BIGINT)
                     AS day_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM d JOIN f USING (user_id)
            GROUP BY f.cohort, day_offset""",
        "event_runs": """
            WITH x AS (SELECT user_id, ts, event_id, event_type,
                   CASE WHEN LAG(event_type) OVER
                             (PARTITION BY user_id
                              ORDER BY ts, event_id) = event_type
                        THEN 0 ELSE 1 END AS brk
                  FROM events),
            y AS (SELECT *, SUM(brk) OVER
                        (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS UNBOUNDED PRECEDING) AS grp
                  FROM x)
            SELECT user_id, event_type,
                   min(ts) AS valid_from, max(ts) AS last_seen,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM y GROUP BY user_id, event_type, grp""",
        "winsorize": """
            WITH c AS (SELECT event_type,
                              CAST(floor(value * 100 + 0.5) AS BIGINT)
                                AS cents
                       FROM events),
            q AS (SELECT event_type,
                     CAST(percentile_disc(0.05) WITHIN GROUP
                          (ORDER BY cents) AS BIGINT) AS lo,
                     CAST(percentile_disc(0.95) WITHIN GROUP
                          (ORDER BY cents) AS BIGINT) AS hi
                  FROM c GROUP BY event_type)
            SELECT c.event_type,
                   CAST(sum(LEAST(GREATEST(c.cents, q.lo), q.hi))
                        AS BIGINT) AS sum_winsorized_cents,
                   count(*) AS n
            FROM c JOIN q USING (event_type)
            GROUP BY c.event_type""",
        "sample_bottomk": """
            SELECT doc_id, source FROM documents
            ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
            LIMIT 100""",
        "safe_udf": """
            SELECT event_id,
                   CAST(floor(value * 100 + 0.5) AS BIGINT) * 2 AS cents_x2
            FROM events WHERE event_id % 997 <> 0""",
        "url_curation": """
            WITH u AS (SELECT doc_id,
                   'https://' || source || '.Example.COM'
                   || CASE WHEN doc_id % 7 = 0 THEN ':8080' ELSE '' END
                   || '/p/' || CAST(doc_id % 100 AS VARCHAR)
                   || CASE WHEN doc_id % 3 = 0 THEN '?utm=x' ELSE '' END
                   AS url
               FROM documents),
            p AS (SELECT doc_id, url,
                   lower(regexp_extract(url,
                         '^https?://([^/:?#]+)', 1)) AS host,
                   regexp_extract(url,
                         '^https?://[^/:?#]+[^/?#]*([^?#]*)', 1) AS path
                  FROM u)
            SELECT doc_id, url, host, path, host || path AS canonical_url
            FROM p
            WHERE host NOT IN ('src3.example.com', 'src7.example.com')""",
        "snapshot_diff": """
            WITH o AS (SELECT doc_id, text FROM documents
                       WHERE doc_id % 97 <> 0),
            n AS (SELECT doc_id,
                         CASE WHEN doc_id % 50 = 0 THEN text || ' v2'
                              ELSE text END AS text
                  FROM documents WHERE doc_id % 89 <> 0),
            d AS (SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id,
                         CASE WHEN o.doc_id IS NULL THEN 'added'
                              WHEN n.doc_id IS NULL THEN 'removed'
                              WHEN o.text <> n.text THEN 'changed'
                              ELSE 'unchanged' END AS status
                  FROM o FULL OUTER JOIN n ON o.doc_id = n.doc_id)
            SELECT doc_id, status FROM d WHERE status <> 'unchanged'""",
        "profile": """
            SELECT 'event_id' AS col_name, count(*) AS n,
                   count(*) - count(event_id) AS n_null,
                   count(DISTINCT event_id) AS n_distinct FROM events
            UNION ALL
            SELECT 'event_type', count(*), count(*) - count(event_type),
                   count(DISTINCT event_type) FROM events
            UNION ALL
            SELECT 'user_id', count(*), count(*) - count(user_id),
                   count(DISTINCT user_id) FROM events
            UNION ALL
            SELECT 'value', count(*), count(*) - count(value),
                   count(DISTINCT value) FROM events""",
        "spatial_nn": """
            WITH pts AS (
                SELECT vec_id,
                       CAST(floor(CAST(embedding[1] AS DOUBLE) * 1000)
                            AS BIGINT) AS x,
                       CAST(floor(CAST(embedding[2] AS DOUBLE) * 1000)
                            AS BIGINT) AS y
                FROM embeddings),
            p AS (SELECT a.vec_id AS id, b.vec_id AS nn,
                         (a.x - b.x) * (a.x - b.x)
                         + (a.y - b.y) * (a.y - b.y) AS d2
                  FROM pts a JOIN pts b ON a.vec_id <> b.vec_id
                  WHERE (a.x - b.x) * (a.x - b.x)
                        + (a.y - b.y) * (a.y - b.y) <= 1600)
            SELECT id AS vec_id, nn AS nn_id, CAST(d2 AS BIGINT) AS d2
            FROM (SELECT *, row_number() OVER (PARTITION BY id
                      ORDER BY d2, nn) AS rn FROM p)
            WHERE rn = 1""",
        "dbscan": """
            WITH RECURSIVE pts AS (
                SELECT vec_id,
                       CAST(floor(CAST(embedding[1] AS DOUBLE) * 1000)
                            AS BIGINT) AS x,
                       CAST(floor(CAST(embedding[2] AS DOUBLE) * 1000)
                            AS BIGINT) AS y
                FROM embeddings),
            nbr AS (SELECT a.vec_id AS pa, b.vec_id AS pb
                    FROM pts a JOIN pts b
                    ON (a.x - b.x) * (a.x - b.x)
                       + (a.y - b.y) * (a.y - b.y) <= 400),
            cnt AS (SELECT pa, count(*) AS c FROM nbr GROUP BY pa),
            core AS (SELECT pa AS id FROM cnt WHERE c >= 4),
            ce AS (SELECT n.pa AS a, n.pb AS b FROM nbr n
                   JOIN core c1 ON n.pa = c1.id
                   JOIN core c2 ON n.pb = c2.id),
            r(a, lab) AS (
                SELECT a, b FROM ce
                UNION
                SELECT r.a, ce.b FROM r JOIN ce ON ce.a = r.lab),
            reach AS (SELECT a, min(lab) AS cluster FROM r GROUP BY a),
            bl AS (SELECT n.pa AS id, min(re.cluster) AS cluster
                   FROM nbr n JOIN core c ON n.pb = c.id
                   JOIN reach re ON re.a = n.pb
                   WHERE n.pa NOT IN (SELECT id FROM core)
                   GROUP BY n.pa)
            SELECT a AS vec_id, cluster,
                   CAST(1 AS BIGINT) AS is_core FROM reach
            UNION ALL
            SELECT id, cluster, CAST(0 AS BIGINT) FROM bl
            UNION ALL
            SELECT p.vec_id, CAST(-1 AS BIGINT), CAST(0 AS BIGINT)
            FROM pts p
            WHERE p.vec_id NOT IN (SELECT id FROM core)
              AND p.vec_id NOT IN (SELECT id FROM bl)""",
        "returned_customers": """
            WITH r AS (SELECT o.o_custkey,
                              SUM(CAST(floor(l.l_extendedprice * 100
                                             + 0.5) AS BIGINT)) AS rev
                       FROM lineitem l
                       JOIN orders o ON l.l_orderkey = o.o_orderkey
                       WHERE l.l_returnflag = 'R'
                         AND l.l_shipdate >= DATE '1996-01-01'
                         AND l.l_shipdate < DATE '1996-07-01'
                       GROUP BY 1)
            SELECT o_custkey, CAST(rev AS BIGINT) AS revenue
            FROM r ORDER BY rev DESC, o_custkey LIMIT 20""",
        "local_supplier_volume": """
            SELECT n.n_name,
                   CAST(SUM(CAST(floor(l.l_extendedprice * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS revenue
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            WHERE c.c_nationkey = s.s_nationkey
            GROUP BY 1""",
        "forecast_revenue": """
            SELECT CAST(COALESCE(SUM(
                       CAST(floor(l_extendedprice * 100 + 0.5)
                            AS BIGINT)
                       * CAST(floor(l_discount * 1000 + 0.5)
                              AS BIGINT)), 0) AS BIGINT)
                       AS revenue_micros,
                   CAST(COUNT(*) AS BIGINT) AS n_lines
            FROM lineitem
            WHERE CAST(floor(l_discount * 1000 + 0.5) AS BIGINT)
                      BETWEEN 50 AND 70
              AND l_quantity < 24
              AND l_shipdate >= DATE '1996-01-01'
              AND l_shipdate < DATE '1997-01-01'""",
        "min_cost_supplier": """
            WITH c AS (SELECT l_partkey, l_suppkey,
                              CAST(floor(l_extendedprice * 100 + 0.5)
                                   AS BIGINT) AS cents
                       FROM lineitem),
            r AS (SELECT l_partkey, l_suppkey, cents,
                         ROW_NUMBER() OVER (PARTITION BY l_partkey
                             ORDER BY cents, l_suppkey) AS rn
                  FROM c)
            SELECT CAST(r.l_partkey AS BIGINT) AS l_partkey,
                   CAST(r.l_suppkey AS BIGINT) AS l_suppkey,
                   CAST(r.cents AS BIGINT) AS min_cents,
                   CAST(s.s_nationkey AS BIGINT) AS s_nationkey
            FROM r JOIN supplier s ON r.l_suppkey = s.s_suppkey
            WHERE r.rn = 1""",
        "nation_pair_volume": """
            -- aggregate to the nations^2 pair table with pure
            -- equi-joins FIRST, filter the <> pairs after: a WHERE
            -- s_nationkey <> c_nationkey invites the optimizer to
            -- inequality-join the two dims directly (measured: disk
            -- -filling nested loop at 1.5M x 100k dims).  MATERIALIZED
            -- is the pushdown barrier -- a plain CTE gets flattened
            -- and the group-key filter pushed straight back down.
            WITH pair AS MATERIALIZED (
                SELECT CAST(s.s_nationkey AS BIGINT) AS supp_nation,
                       CAST(c.c_nationkey AS BIGINT) AS cust_nation,
                       SUM(CAST(floor(l.l_extendedprice * 100 + 0.5)
                                AS BIGINT)) AS rev
                FROM lineitem l
                JOIN orders o ON l.l_orderkey = o.o_orderkey
                JOIN customer c ON o.o_custkey = c.c_custkey
                JOIN supplier s ON l.l_suppkey = s.s_suppkey
                GROUP BY 1, 2)
            SELECT supp_nation, cust_nation,
                   CAST(rev AS BIGINT) AS revenue
            FROM pair WHERE supp_nation <> cust_nation""",
        "market_share": """
            WITH j AS (SELECT CAST(year(o.o_orderdate) AS BIGINT)
                                  AS o_year,
                              CAST(floor(l.l_extendedprice * 100
                                         + 0.5) AS BIGINT) AS cents,
                              s.s_nationkey AS sn
                       FROM lineitem l
                       JOIN orders o ON l.l_orderkey = o.o_orderkey
                       JOIN supplier s ON l.l_suppkey = s.s_suppkey)
            SELECT o_year,
                   CAST(SUM(cents) AS BIGINT) AS total_cents,
                   CAST(SUM(CASE WHEN sn = 0 THEN cents ELSE 0 END)
                        AS BIGINT) AS nation_cents,
                   CAST(CASE WHEN SUM(cents) = 0 THEN -1
                        ELSE (SUM(CASE WHEN sn = 0 THEN cents
                                  ELSE 0 END) * 1000) // SUM(cents)
                        END AS BIGINT) AS share_permille
            FROM j GROUP BY 1""",
        "priority_class_counts": """
            SELECT l.l_linestatus,
                   CAST(SUM(CASE WHEN l.l_shipdate >
                                      o.o_orderdate
                                      + INTERVAL 60 DAY
                                  AND (o.o_orderpriority LIKE '1-%'
                                       OR o.o_orderpriority
                                          LIKE '2-%')
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS high_line_count,
                   CAST(SUM(CASE WHEN l.l_shipdate >
                                      o.o_orderdate
                                      + INTERVAL 60 DAY
                                  AND NOT (o.o_orderpriority
                                           LIKE '1-%'
                                           OR o.o_orderpriority
                                              LIKE '2-%')
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS low_line_count
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY 1""",
        "parts_supplier_cnt": """
            SELECT p.p_brand,
                   CAST(p.p_size AS BIGINT) AS p_size,
                   CAST(COUNT(DISTINCT l.l_suppkey) AS BIGINT)
                       AS supplier_cnt
            FROM lineitem l
            JOIN part p ON l.l_partkey = p.p_partkey
            WHERE l.l_suppkey NOT IN
                  (SELECT s_suppkey FROM supplier
                   WHERE s_name LIKE '%7')
            GROUP BY 1, 2""",
        "discounted_revenue": """
            SELECT CAST(COALESCE(SUM(
                       CAST(floor(l.l_extendedprice * 100 + 0.5)
                            AS BIGINT)), 0) AS BIGINT)
                       AS revenue_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_lines
            FROM lineitem l
            JOIN part p ON l.l_partkey = p.p_partkey
            WHERE (p.p_brand = 'Brand#12'
                   AND p.p_size BETWEEN 1 AND 25
                   AND l.l_quantity BETWEEN 1 AND 20)
               OR (p.p_brand = 'Brand#23'
                   AND p.p_size BETWEEN 1 AND 30
                   AND l.l_quantity BETWEEN 15 AND 35)
               OR (p.p_brand = 'Brand#34'
                   AND p.p_size BETWEEN 1 AND 35
                   AND l.l_quantity BETWEEN 30 AND 50)""",
        "dominant_suppliers": """
            WITH ps AS (SELECT l_partkey, l_suppkey,
                               SUM(CAST(l_quantity AS BIGINT)) AS q
                        FROM lineitem GROUP BY 1, 2),
            t AS (SELECT l_partkey, SUM(q) AS tot FROM ps GROUP BY 1)
            SELECT CAST(ps.l_suppkey AS BIGINT) AS l_suppkey,
                   CAST(COUNT(*) AS BIGINT) AS n_dominant_parts
            FROM ps JOIN t USING (l_partkey)
            WHERE 5 * ps.q > t.tot
            GROUP BY 1""",
        "top_supplier": """
            WITH r AS (SELECT l_suppkey,
                              SUM(CAST(floor(l_extendedprice * 100
                                             + 0.5) AS BIGINT)) AS rev
                       FROM lineitem
                       WHERE l_shipdate >= DATE '1996-01-01'
                         AND l_shipdate < DATE '1996-04-01'
                       GROUP BY 1)
            SELECT l_suppkey,
                   CAST(rev AS BIGINT) AS total_revenue
            FROM r WHERE rev = (SELECT max(rev) FROM r)""",
        "large_orders": """
            WITH s AS (SELECT l_orderkey,
                              SUM(CAST(l_quantity AS BIGINT)) AS q,
                              SUM(CAST(floor(l_extendedprice * 100
                                             + 0.5) AS BIGINT)) AS c
                       FROM lineitem GROUP BY 1
                       HAVING SUM(CAST(l_quantity AS BIGINT)) > 200)
            SELECT o.o_orderkey, o.o_custkey,
                   CAST(s.q AS BIGINT) AS sum_qty,
                   CAST(s.c AS BIGINT) AS total_cents
            FROM s JOIN orders o ON s.l_orderkey = o.o_orderkey""",
        "weighted_median_group": """
            WITH w AS (SELECT l_returnflag,
                              CAST(floor(l_extendedprice * 100 + 0.5)
                                   AS BIGINT) AS v,
                              CAST(l_quantity AS BIGINT) AS wt
                       FROM lineitem),
            c AS (SELECT l_returnflag, v, sum(wt) AS n
                  FROM w GROUP BY 1, 2),
            s AS (SELECT l_returnflag, v,
                         sum(n) OVER (PARTITION BY l_returnflag
                                      ORDER BY v) AS cum,
                         sum(n) OVER (PARTITION BY l_returnflag)
                             AS tot
                  FROM c)
            SELECT l_returnflag,
                   CAST(min(v) FILTER (WHERE 2 * cum >= tot)
                        AS BIGINT) AS wmedian,
                   CAST(min(v) FILTER (WHERE 10 * cum >= 9 * tot)
                        AS BIGINT) AS wq90
            FROM s GROUP BY 1""",
        "dedup_savings": """
            WITH r AS (SELECT source, n_chars,
                              row_number() OVER (PARTITION BY text
                                  ORDER BY doc_id) AS rn
                       FROM documents)
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(*) FILTER (WHERE rn = 1) AS BIGINT)
                       AS n_kept,
                   CAST(COALESCE(sum(n_chars) FILTER (WHERE rn > 1),
                                 0) AS BIGINT) AS chars_removed
            FROM r GROUP BY 1""",
        "rolling_extrema": """
            WITH x AS (SELECT user_id, ts, event_id,
                              CAST(floor(value * 100 + 0.5)
                                   AS BIGINT) AS cents
                       FROM events)
            SELECT user_id, event_id, cents,
                   CAST(max(cents) OVER (PARTITION BY user_id
                        ORDER BY ts, event_id
                        ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
                        AS BIGINT) AS roll_max,
                   CAST(min(cents) OVER (PARTITION BY user_id
                        ORDER BY ts, event_id
                        ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
                        AS BIGINT) AS roll_min
            FROM x""",
        "scd2": """
            SELECT user_id, event_type,
                   CAST(epoch_us(ts) AS BIGINT) AS valid_from,
                   CAST(COALESCE(
                        lead(epoch_us(ts)) OVER (
                            PARTITION BY user_id
                            ORDER BY ts, event_id),
                        4102444800000000) AS BIGINT) AS valid_to
            FROM events""",
        "span_corruption": """
            WITH x AS (SELECT doc_id,
                         CAST(len(string_split(text, ' '))
                              AS BIGINT) AS n,
                         CAST(doc_id % 15 AS BIGINT) AS d
                       FROM documents),
            c AS (SELECT doc_id, n, d,
                    ((n + d) // 15) * 3 + least(3, (n + d) % 15)
                    - ((d // 15) * 3 + least(3, d % 15)) AS n_masked,
                    CASE WHEN n = 0 THEN 0
                         ELSE greatest(0, (n + d - 1) // 15
                              - (CASE WHEN d < 3 THEN 0
                                 ELSE (d - 3) // 15 + 1 END) + 1)
                    END AS n_spans
                  FROM x)
            SELECT doc_id, n AS n_tokens,
                   CAST(n_masked AS BIGINT) AS n_masked,
                   CAST(n_spans AS BIGINT) AS n_spans,
                   CAST(n - n_masked + n_spans AS BIGINT)
                       AS n_input_tokens,
                   CAST(n_masked + n_spans AS BIGINT)
                       AS n_target_tokens
            FROM c""",
        "late_orders": """
            WITH m AS (SELECT l_orderkey, max(l_shipdate) AS ms
                       FROM lineitem GROUP BY 1)
            SELECT o.o_orderpriority,
                   CAST(count(*) AS BIGINT) AS order_count
            FROM orders o JOIN m ON o.o_orderkey = m.l_orderkey
            WHERE m.ms > o.o_orderdate + INTERVAL 60 DAY
            GROUP BY 1""",
        "promo_share": """
            WITH x AS (SELECT year(l_shipdate) * 100
                              + month(l_shipdate) AS ship_month,
                              CAST(floor(l_extendedprice * 100 + 0.5)
                                   AS BIGINT) AS c,
                              CASE WHEN p.p_type LIKE 'PROMO%'
                                   THEN 1 ELSE 0 END AS promo
                       FROM lineitem l
                       JOIN part p ON l.l_partkey = p.p_partkey)
            SELECT CAST(ship_month AS BIGINT) AS ship_month,
                   CAST(sum(c * promo) AS BIGINT) AS promo_cents,
                   CAST(sum(c) AS BIGINT) AS total_cents,
                   CAST(1000 * sum(c * promo) // sum(c) AS BIGINT)
                       AS promo_permille
            FROM x GROUP BY 1""",
        "sales_opportunity": """
            WITH pos AS (SELECT c_custkey, c_nationkey,
                                CAST(floor(c_acctbal * 100 + 0.5)
                                     AS BIGINT) AS b
                         FROM customer),
            t AS (SELECT sum(b) AS s, count(*) AS n
                  FROM pos WHERE b > 0),
            u AS (SELECT DISTINCT o_custkey FROM orders
                  WHERE o_orderpriority LIKE '1-%')
            SELECT p.c_nationkey,
                   CAST(count(*) AS BIGINT) AS n_cust,
                   CAST(sum(p.b) AS BIGINT) AS sum_bal
            FROM pos p, t
            WHERE p.b * t.n > t.s
              AND p.c_custkey NOT IN (SELECT o_custkey FROM u)
            GROUP BY 1""",
        "chi2_lang_source": """
            WITH c AS (SELECT lang, source,
                              CAST(count(*) AS BIGINT) AS o
                       FROM documents GROUP BY 1, 2),
            r AS (SELECT lang, sum(o) AS rs FROM c GROUP BY 1),
            s AS (SELECT source, sum(o) AS cs FROM c GROUP BY 1),
            n AS (SELECT sum(o) AS nn FROM c)
            SELECT c.lang, c.source, c.o AS observed,
                   CAST(CAST(r.rs AS HUGEINT) * s.cs * 1000000 // n.nn
                        AS BIGINT) AS expected_micros,
                   CAST((CAST(c.o AS HUGEINT) * n.nn
                         - CAST(r.rs AS HUGEINT) * s.cs)
                        * (CAST(c.o AS HUGEINT) * n.nn
                           - CAST(r.rs AS HUGEINT) * s.cs)
                        * 1000000
                        // (CAST(n.nn AS HUGEINT) * r.rs * s.cs)
                        AS BIGINT) AS term_micros
            FROM c JOIN r USING (lang) JOIN s USING (source), n""",
        "classifier_eval": """
            WITH l AS (SELECT lang,
                    list_filter(string_split_regex(lower(text),
                                '[^a-z0-9_]+'), x -> x != '') AS w
                FROM documents),
            c AS (SELECT lang,
                len(list_filter(w, x -> x IN ('the','a','of','and',
                    'to','in','is','it'))) AS c_en,
                len(list_filter(w, x -> x IN ('el','la','de','y',
                    'que','en','un','es'))) AS c_es,
                len(list_filter(w, x -> x IN ('der','die','das','und',
                    'zu','in','ist','ein'))) AS c_de,
                len(list_filter(w, x -> x IN ('le','la','de','et',
                    'que','en','un','est'))) AS c_fr
                FROM l),
            p AS (SELECT lang,
                CASE WHEN greatest(c_en, c_es, c_de, c_fr) = 0
                         THEN 'other'
                     WHEN c_en = greatest(c_en, c_es, c_de, c_fr)
                         THEN 'en'
                     WHEN c_es = greatest(c_en, c_es, c_de, c_fr)
                         THEN 'es'
                     WHEN c_de = greatest(c_en, c_es, c_de, c_fr)
                         THEN 'de'
                     ELSE 'fr' END AS lang_pred
                FROM c),
            conf AS (SELECT lang AS t, lang_pred AS pr,
                            count(*) AS n
                     FROM p GROUP BY 1, 2),
            cls AS (SELECT DISTINCT t AS cls FROM conf
                    UNION SELECT DISTINCT pr FROM conf),
            m AS (SELECT cls,
                COALESCE((SELECT sum(n) FROM conf
                          WHERE t = cls AND pr = cls), 0) AS tp,
                COALESCE((SELECT sum(n) FROM conf
                          WHERE pr = cls), 0) AS pred_n,
                COALESCE((SELECT sum(n) FROM conf
                          WHERE t = cls), 0) AS true_n
                FROM cls)
            SELECT cls, CAST(tp AS BIGINT) AS tp,
                   CAST(pred_n AS BIGINT) AS pred_n,
                   CAST(true_n AS BIGINT) AS true_n,
                   CAST(CASE WHEN pred_n = 0 THEN -1
                        ELSE 1000 * tp // pred_n END AS BIGINT)
                       AS precision_permille,
                   CAST(CASE WHEN true_n = 0 THEN -1
                        ELSE 1000 * tp // true_n END AS BIGINT)
                       AS recall_permille,
                   CAST(CASE WHEN pred_n + true_n = 0 THEN -1
                        ELSE 2000 * tp // (pred_n + true_n)
                        END AS BIGINT) AS f1_permille
            FROM m""",
        "calibration": """
            WITH x AS (SELECT CAST(floor(o_totalprice * 100 + 0.5)
                                   AS BIGINT) AS s,
                              CASE WHEN o_orderstatus = 'F'
                                   THEN 1 ELSE 0 END AS lab
                       FROM orders)
            SELECT CAST(s // 5000000 AS BIGINT) AS bin,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(lab) AS BIGINT) AS n_pos,
                   CAST(1000 * sum(lab) // count(*) AS BIGINT)
                       AS mean_label_permille,
                   CAST(sum(s) // count(*) AS BIGINT) AS mean_score
            FROM x GROUP BY 1""",
        "seasonal_index": """
            WITH x AS (SELECT event_type,
                        CAST((epoch_us(ts) // 86400000000 + 4) % 7
                             AS BIGINT) AS dow,
                        CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
                       FROM events),
            g AS (SELECT event_type, dow, count(*) AS n,
                         sum(v) AS sv
                  FROM x GROUP BY 1, 2),
            t AS (SELECT event_type, sum(n) AS n_tot,
                         sum(sv) AS s_tot
                  FROM g GROUP BY 1)
            SELECT g.event_type, g.dow, CAST(g.n AS BIGINT) AS n,
                   CAST(g.sv AS BIGINT) AS sum_val,
                   CAST(CAST(g.sv AS HUGEINT) * t.n_tot * 1000
                        // (g.n * t.s_tot) AS BIGINT)
                       AS index_permille
            FROM g JOIN t USING (event_type)""",
        "custdist": """
            WITH co AS (SELECT c.c_custkey,
                               count(o.o_orderkey) AS cnt
                        FROM customer c LEFT JOIN orders o
                          ON c.c_custkey = o.o_custkey
                         AND o.o_orderpriority LIKE '1-%'
                        GROUP BY 1)
            SELECT CAST(cnt AS BIGINT) AS c_count,
                   CAST(count(*) AS BIGINT) AS custdist
            FROM co GROUP BY 1""",
        "numwait": """
            WITH t AS (SELECT l_orderkey, l_suppkey,
                              max(CASE WHEN l_returnflag = 'R'
                                  THEN 1 ELSE 0 END) AS f
                       FROM lineitem GROUP BY 1, 2),
            g AS (SELECT l_orderkey, count(*) AS ns, sum(f) AS nf
                  FROM t GROUP BY 1)
            SELECT t.l_suppkey,
                   CAST(count(*) AS BIGINT) AS numwait
            FROM t JOIN g USING (l_orderkey)
            WHERE g.ns >= 2 AND g.nf = 1 AND t.f = 1
            GROUP BY 1""",
        "below_group_avg": """
            WITH a AS (SELECT l_partkey,
                              SUM(CAST(l_quantity AS BIGINT)) AS sq,
                              COUNT(*) AS cnt
                       FROM lineitem GROUP BY 1)
            SELECT l.l_returnflag,
                   CAST(COUNT(*) AS BIGINT) AS n_below,
                   CAST(SUM(CAST(floor(l.l_extendedprice * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS sum_val
            FROM lineitem l JOIN a ON l.l_partkey = a.l_partkey
            WHERE 5 * CAST(l.l_quantity AS BIGINT) * a.cnt < 1 * a.sq
            GROUP BY 1""",
        "group_share": """
            WITH g AS (SELECT o_custkey,
                              SUM(CAST(floor(o_totalprice * 100 + 0.5)
                                       AS BIGINT)) AS s
                       FROM orders GROUP BY 1),
            t AS (SELECT SUM(s) AS total, COUNT(*) AS n FROM g)
            SELECT g.o_custkey,
                   CAST(g.s AS BIGINT) AS sum_val,
                   CAST(CAST(g.s AS HUGEINT) * 1000 // t.total
                        AS BIGINT) AS share_permille
            FROM g, t
            WHERE CAST(g.s AS HUGEINT) * 2 * t.n
                  > 3 * CAST(t.total AS HUGEINT)""",
        "drawdown": """
            WITH x AS (SELECT user_id, ts, event_id,
                              CASE WHEN event_type = 'purchase'
                                THEN CAST(floor(value * 100 + 0.5)
                                          AS BIGINT)
                                ELSE -CAST(floor(value * 100 + 0.5)
                                           AS BIGINT)
                              END AS v
                       FROM events),
            s AS (SELECT user_id, ts, event_id, v,
                         SUM(v) OVER (PARTITION BY user_id
                             ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS ps
                  FROM x),
            p AS (SELECT user_id, ps,
                         MAX(ps) OVER (PARTITION BY user_id
                             ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS pk
                  FROM s),
            f AS (SELECT user_id, SUM(v) AS fb, COUNT(*) AS n
                  FROM x GROUP BY 1),
            m AS (SELECT user_id, MAX(pk - ps) AS md
                  FROM p GROUP BY 1)
            SELECT f.user_id,
                   CAST(m.md AS BIGINT) AS max_drawdown,
                   CAST(f.fb AS BIGINT) AS final_balance,
                   CAST(f.n AS BIGINT) AS n_rows
            FROM f JOIN m ON f.user_id = m.user_id""",
        "streaks": """
            WITH x AS (SELECT user_id, ts, event_id,
                              CAST(floor(value * 100 + 0.5)
                                   AS BIGINT) AS v
                       FROM events),
            s AS (SELECT *, CASE WHEN v > lag(v) OVER
                      (PARTITION BY user_id ORDER BY ts, event_id)
                      THEN 0 ELSE 1 END AS brk
                  FROM x),
            r AS (SELECT *, sum(brk) OVER (PARTITION BY user_id
                      ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING)
                      AS rid
                  FROM s),
            l AS (SELECT user_id, rid, count(*) AS len
                  FROM r GROUP BY 1, 2)
            SELECT user_id,
                   CAST(max(len) AS BIGINT) AS longest_streak,
                   CAST(count(*) FILTER (WHERE len >= 2) AS BIGINT)
                     AS n_streaks,
                   CAST(sum(len) AS BIGINT) AS n_rows
            FROM l GROUP BY user_id""",
        "inventory_balance": """
            WITH x AS (SELECT l_suppkey,
                              CAST(epoch_us(l_shipdate) AS BIGINT)
                                AS ship_us,
                              l_orderkey, l_linenumber,
                              CASE WHEN l_returnflag = 'R'
                                THEN CAST(l_quantity AS BIGINT)
                                ELSE -CAST(l_quantity AS BIGINT)
                              END AS delta
                       FROM lineitem),
            s AS (SELECT *, sum(delta) OVER (PARTITION BY l_suppkey
                      ORDER BY ship_us, l_orderkey, l_linenumber
                      ROWS UNBOUNDED PRECEDING) AS ps
                  FROM x),
            m AS (SELECT *, min(ps) OVER (PARTITION BY l_suppkey
                      ORDER BY ship_us, l_orderkey, l_linenumber
                      ROWS UNBOUNDED PRECEDING) AS rm
                  FROM s)
            SELECT l_suppkey, ship_us, l_orderkey, l_linenumber,
                   delta, CAST(ps - least(0, rm) AS BIGINT)
                     AS balance
            FROM m""",
        "rfm": """
            WITH c AS (SELECT o_custkey, max(o_orderdate) AS last_d,
                              CAST(count(*) AS BIGINT) AS freq,
                              CAST(sum(CAST(floor(o_totalprice * 100
                                   + 0.5) AS BIGINT)) AS BIGINT)
                                AS monetary_cents
                       FROM orders GROUP BY 1),
            h AS (SELECT max(o_orderdate) AS hz FROM orders),
            r AS (SELECT o_custkey,
                         epoch_us(hz - last_d) // 86400000000
                           AS r_days,
                         freq, monetary_cents
                  FROM c, h),
            t AS (SELECT
                    quantile_disc(r_days, 0.2) AS r1,
                    quantile_disc(r_days, 0.4) AS r2,
                    quantile_disc(r_days, 0.6) AS r3,
                    quantile_disc(r_days, 0.8) AS r4,
                    quantile_disc(freq, 0.2) AS f1,
                    quantile_disc(freq, 0.4) AS f2,
                    quantile_disc(freq, 0.6) AS f3,
                    quantile_disc(freq, 0.8) AS f4,
                    quantile_disc(monetary_cents, 0.2) AS m1,
                    quantile_disc(monetary_cents, 0.4) AS m2,
                    quantile_disc(monetary_cents, 0.6) AS m3,
                    quantile_disc(monetary_cents, 0.8) AS m4
                  FROM r)
            SELECT o_custkey, CAST(r_days AS BIGINT) AS r_days, freq,
                   monetary_cents,
                   CAST(100 * (1 + (r_days >= r1)::INT
                               + (r_days >= r2)::INT
                               + (r_days >= r3)::INT
                               + (r_days >= r4)::INT)
                        + 10 * (1 + (freq >= f1)::INT
                                + (freq >= f2)::INT
                                + (freq >= f3)::INT
                                + (freq >= f4)::INT)
                        + (1 + (monetary_cents >= m1)::INT
                           + (monetary_cents >= m2)::INT
                           + (monetary_cents >= m3)::INT
                           + (monetary_cents >= m4)::INT)
                        AS BIGINT) AS rfm_code
            FROM r, t""",
        "survival": """
            WITH u AS (SELECT user_id,
                              min(ts) FILTER (WHERE event_type =
                                              'signup') AS t0
                       FROM events GROUP BY user_id),
            s AS (SELECT user_id, t0 FROM u WHERE t0 IS NOT NULL),
            e AS (SELECT s.user_id, s.t0, min(ev.ts) AS te
                  FROM s LEFT JOIN events ev
                    ON ev.user_id = s.user_id
                   AND ev.event_type = 'purchase' AND ev.ts >= s.t0
                  GROUP BY s.user_id, s.t0),
            h AS (SELECT max(ts) AS hz FROM events),
            obs AS (SELECT CASE WHEN te IS NOT NULL
                        THEN epoch_us(te - t0) // 86400000000
                        ELSE epoch_us(hz - t0) // 86400000000
                      END AS dur,
                      te IS NOT NULL AS ev
                    FROM e, h),
            g AS (SELECT dur,
                         count(*) FILTER (WHERE ev) AS n_events,
                         count(*) AS n_total
                  FROM obs GROUP BY dur)
            SELECT CAST(dur AS BIGINT) AS duration_days,
                   CAST(n_events AS BIGINT) AS n_events,
                   CAST(sum(n_total) OVER (ORDER BY dur DESC)
                        AS BIGINT) AS n_at_risk
            FROM g QUALIFY n_events > 0""",
        "attribution": """
            WITH e AS (
                SELECT user_id, ts, event_id, event_type,
                       CAST(event_type = 'purchase' AS INT) AS isc
                FROM events),
            s AS (
                SELECT *,
                       sum(isc) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id
                                      ROWS UNBOUNDED PRECEDING) - isc
                         AS seg,
                       sum(isc) OVER (PARTITION BY user_id) AS nconv
                FROM e),
            t AS (SELECT user_id, seg, event_type, ts, event_id
                  FROM s WHERE isc = 0 AND seg < nconv),
            w AS (SELECT event_type AS channel,
                         count(*) OVER (PARTITION BY user_id, seg)
                           AS n,
                         row_number() OVER (PARTITION BY user_id, seg
                                            ORDER BY ts, event_id)
                           AS rn
                  FROM t),
            cr AS (SELECT channel,
                          1000 // n + CASE WHEN rn = 1 THEN 1000 % n
                                           ELSE 0 END AS credit
                   FROM w),
            d AS (SELECT 'direct' AS channel, 1000 AS credit
                  FROM s WHERE isc = 1 AND NOT EXISTS
                    (SELECT 1 FROM t WHERE t.user_id = s.user_id
                                       AND t.seg = s.seg))
            SELECT channel, CAST(sum(credit) AS BIGINT) AS credit,
                   CAST(count(*) AS BIGINT) AS n_touches
            FROM (SELECT * FROM cr UNION ALL SELECT * FROM d)
            GROUP BY channel""",
        "funnel": """
            WITH a AS (SELECT user_id, ts FROM events
                       WHERE event_type = 'view'),
            b AS (SELECT user_id, ts FROM events
                  WHERE event_type = 'purchase'),
            conv AS (SELECT a.user_id, min(b.ts) AS first_conversion_ts
                     FROM a JOIN b ON b.user_id = a.user_id
                      AND b.ts BETWEEN a.ts
                          AND a.ts + INTERVAL 30 MINUTE
                     GROUP BY a.user_id)
            SELECT a.user_id, CAST(count(*) AS BIGINT) AS n_step_a,
                   conv.first_conversion_ts
            FROM a LEFT JOIN conv ON conv.user_id = a.user_id
            GROUP BY a.user_id, conv.first_conversion_ts""",
        "asof_forward": """
            SELECT e.event_id,
                   (SELECT min(o.o_orderdate) FROM orders o
                    WHERE o.o_custkey = e.user_id
                      AND o.o_orderdate >= e.ts) AS next_order_ts
            FROM events e""",
        "window_dedup": """
            SELECT user_id, event_type,
                   date_trunc('hour', ts) AS hour, ts, event_id
            FROM events
            QUALIFY row_number() OVER (
                PARTITION BY user_id, event_type, date_trunc('hour', ts)
                ORDER BY ts, event_id) = 1""",
        "hopping_window": """
            WITH g AS (SELECT CAST(floor(epoch(ts)) AS BIGINT) // 900 AS hb,
                              value
                       FROM events),
            x AS (SELECT (hb - i) * 900 AS window_start_s, value
                  FROM g, unnest([0, 1, 2, 3]) AS t(i))
            SELECT window_start_s, count(*) AS n_events,
                   CAST(sum(floor(value * 100 + 0.5)) AS BIGINT)
                       AS value_cents
            FROM x GROUP BY window_start_s""",
        "epoch_shuffle": """
            SELECT doc_id,
                   CAST(row_number() OVER (
                        ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id)
                        AS BIGINT) AS pos
            FROM documents""",
        "tfidf": """
            WITH w AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+'))
                           AS word
                FROM documents),
            tf AS (SELECT doc_id, word, count(*) AS tf
                   FROM w GROUP BY doc_id, word),
            df AS (SELECT word, count(*) AS df
                   FROM (SELECT DISTINCT doc_id, word FROM w)
                   GROUP BY word),
            nd AS (SELECT count(*) AS n FROM documents)
            SELECT doc_id, word AS term, tf,
                   CAST(tf * n // df AS BIGINT) AS score
            FROM tf JOIN df USING (word), nd
            QUALIFY row_number() OVER (PARTITION BY doc_id
                ORDER BY tf * n // df DESC, word) <= 3""",
        "bm25": """
            WITH w AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+'))
                           AS word
                FROM documents),
            tf AS (SELECT doc_id, word, count(*) AS tf
                   FROM w GROUP BY doc_id, word),
            dl AS (SELECT doc_id, count(*) AS dl
                   FROM w GROUP BY doc_id),
            df AS (SELECT word, count(*) AS df
                   FROM (SELECT DISTINCT doc_id, word FROM w)
                   GROUP BY word),
            nd AS (SELECT count(*) AS n FROM documents),
            av AS (SELECT 1000 * (SELECT count(*) FROM w) // n
                       AS avgdl_milli FROM nd),
            sc AS (SELECT tf.doc_id, tf.word, tf.tf, dl.dl,
                          (1000 * (2*n - 2*df + 1) // (2*df + 1))
                              * 44 * avgdl_milli * tf.tf
                              // (20 * avgdl_milli * tf.tf
                                  + 6 * avgdl_milli + 18000 * dl.dl)
                              AS score
                   FROM tf JOIN dl USING (doc_id)
                           JOIN df USING (word), nd, av)
            SELECT doc_id, word AS term, CAST(tf AS BIGINT) AS tf,
                   CAST(dl AS BIGINT) AS dl, CAST(score AS BIGINT) AS score
            FROM sc
            QUALIFY row_number() OVER (PARTITION BY doc_id
                ORDER BY score DESC, word) <= 3""",
        "ks_drift": """
            WITH s AS (
                SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
                       CASE WHEN event_type = 'error' THEN 1 ELSE 0
                           END AS side
                FROM events
                WHERE event_type IN ('click', 'error')),
            c AS (SELECT v,
                         COUNT(*) FILTER (side = 0) AS c1,
                         COUNT(*) FILTER (side = 1) AS c2
                  FROM s GROUP BY v),
            t AS (SELECT SUM(c1) AS n1, SUM(c2) AS n2 FROM c),
            cum AS (SELECT v,
                           SUM(c1) OVER (ORDER BY v) AS cc1,
                           SUM(c2) OVER (ORDER BY v) AS cc2,
                           LEAD(v) OVER (ORDER BY v) AS nxt
                    FROM c)
            SELECT CAST(n1 AS BIGINT) AS n1,
                   CAST(n2 AS BIGINT) AS n2,
                   CAST(MAX(ABS(n2 * cc1 - n1 * cc2)) AS BIGINT)
                       AS ks_num,
                   CAST(COALESCE(SUM(ABS(n2 * cc1 - n1 * cc2)
                                     * (nxt - v))
                                 FILTER (nxt IS NOT NULL), 0)
                        AS BIGINT) AS w1_num,
                   CAST(n1 * n2 AS BIGINT) AS den,
                   CAST(1000 * MAX(ABS(n2 * cc1 - n1 * cc2))
                        // (n1 * n2) AS BIGINT) AS ks_permille
            FROM cum, t GROUP BY n1, n2""",
        "interval_union": """
            WITH iv AS (
                SELECT user_id,
                       CAST(epoch_us(ts) AS BIGINT) AS s,
                       CAST(epoch_us(ts) AS BIGINT)
                           + CAST(floor(value * 100 + 0.5) AS BIGINT)
                             * 1000000 AS e
                FROM events),
            m AS (SELECT user_id, s, e,
                         MAX(e) OVER (PARTITION BY user_id
                             ORDER BY s, e
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND 1 PRECEDING) AS prev_max
                  FROM iv),
            fl AS (SELECT user_id, s, e,
                          CASE WHEN prev_max IS NULL OR s > prev_max
                               THEN 1 ELSE 0 END AS new_island
                   FROM m),
            isl AS (SELECT user_id, s, e,
                           SUM(new_island) OVER (PARTITION BY user_id
                               ORDER BY s, e
                               ROWS UNBOUNDED PRECEDING) AS island
                    FROM fl),
            g AS (SELECT user_id, island,
                         MAX(e) - MIN(s) AS cov
                  FROM isl GROUP BY 1, 2)
            SELECT user_id,
                   CAST(COUNT(*) AS BIGINT) AS n_islands,
                   CAST(SUM(cov) AS BIGINT) AS covered
            FROM g GROUP BY user_id""",
        "gini": """
            WITH c AS (SELECT source, lang, count(*) AS cnt
                       FROM documents GROUP BY 1, 2),
            g AS (SELECT source, SUM(cnt) AS n,
                         SUM(cnt * cnt) AS ss
                  FROM c GROUP BY source)
            SELECT source, CAST(n AS BIGINT) AS n,
                   CAST(1000 * (n * n - ss) // (n * n) AS BIGINT)
                       AS gini_permille
            FROM g""",
        "rrf": """
            WITH base AS (
                SELECT doc_id, n_chars,
                       len(list_filter(string_split_regex(lower(text),
                           '[^a-z0-9_]+'), x -> x != '')) AS n_words
                FROM documents),
            r AS (SELECT doc_id,
                     row_number() OVER (ORDER BY n_chars DESC, doc_id)
                         AS rank_a,
                     row_number() OVER (ORDER BY n_words DESC, doc_id)
                         AS rank_b
                  FROM base)
            SELECT doc_id, CAST(rank_a AS BIGINT) AS rank_a,
                   CAST(rank_b AS BIGINT) AS rank_b,
                   CAST(1000000 // (60 + rank_a)
                        + 1000000 // (60 + rank_b) AS BIGINT)
                       AS rrf_micro
            FROM r""",
        "salted_join": """
            SELECT c_mktsegment, count(*) AS n_orders,
                   CAST(sum(floor(o_totalprice * 100 + 0.5)) AS BIGINT)
                       AS cents
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment""",
        "bloom_semi_join": """
            SELECT o_orderpriority, count(*) AS n_orders,
                   CAST(sum(floor(o_totalprice * 100 + 0.5)) AS BIGINT)
                       AS cents
            FROM orders
            WHERE o_custkey IN (SELECT c_custkey FROM customer
                                WHERE c_mktsegment = 'BUILDING')
            GROUP BY o_orderpriority""",
        "duplicate_spans": """
            WITH g AS (
                SELECT doc_id,
                       unnest(list_distinct(list_transform(
                           range(1, len(ws) - 3),
                           i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]
                                || ' ' || ws[i+3] || ' ' || ws[i+4])))
                           AS gram
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '[a-z0-9_]+')
                                 AS ws
                      FROM documents)
                WHERE len(ws) >= 5)
            SELECT gram, count(*) AS df
            FROM g GROUP BY gram HAVING count(*) >= 2""",
        "skyline": """
            WITH p AS (
                SELECT p_partkey, p_brand,
                       CAST(p_size AS BIGINT) AS p_size,
                       CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT)
                           AS retail_cents
                FROM part)
            SELECT p.p_partkey, p.p_brand, p.p_size, p.retail_cents
            FROM p
            WHERE NOT EXISTS (
                SELECT 1 FROM p q
                WHERE q.p_brand = p.p_brand
                  AND q.retail_cents <= p.retail_cents
                  AND q.p_size >= p.p_size
                  AND (q.retail_cents < p.retail_cents
                       OR q.p_size > p.p_size))""",
        "zorder_cells": """
            WITH e AS (
                SELECT CAST(hour(ts) AS BIGINT) AS x,
                       LEAST(CAST(floor(value) AS BIGINT), 255) AS y
                FROM events),
            s1 AS (SELECT ((x | (x << 8)) & 16711935) AS xa,
                          ((y | (y << 8)) & 16711935) AS ya FROM e),
            s2 AS (SELECT ((xa | (xa << 4)) & 252645135) AS xb,
                          ((ya | (ya << 4)) & 252645135) AS yb FROM s1),
            s3 AS (SELECT ((xb | (xb << 2)) & 858993459) AS xc,
                          ((yb | (yb << 2)) & 858993459) AS yc FROM s2),
            s4 AS (SELECT ((xc | (xc << 1)) & 1431655765) AS xd,
                          ((yc | (yc << 1)) & 1431655765) AS yd FROM s3)
            SELECT (xd | (yd << 1)) AS zcell, count(*) AS n
            FROM s4 GROUP BY 1""",
        "dominance_count": """
            WITH p AS (
                SELECT p_partkey, p_brand,
                       CAST(p_size AS BIGINT) AS p_size,
                       CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT)
                           AS retail_cents
                FROM part)
            SELECT p.p_partkey, p.p_brand, p.p_size, p.retail_cents,
                   (SELECT count(*) FROM p q
                    WHERE q.p_brand = p.p_brand
                      AND q.retail_cents <= p.retail_cents
                      AND q.p_size >= p.p_size
                      AND (q.retail_cents < p.retail_cents
                           OR q.p_size > p.p_size)) AS n_dominators
            FROM p""",
        "containment_join": """
            WITH g AS (
                SELECT doc_id,
                       list_distinct(list_transform(
                           range(1, len(ws) - 1),
                           i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))
                           AS grams
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
                      FROM documents)
                WHERE len(ws) >= 3)
            SELECT a.doc_id AS left_id, b.doc_id AS right_id,
                   len(list_intersect(a.grams, b.grams)) AS inter,
                   least(len(a.grams), len(b.grams)) AS min_sz
            FROM g a JOIN g b ON a.doc_id < b.doc_id
            WHERE len(list_intersect(a.grams, b.grams)) > 0
              AND 100 * len(list_intersect(a.grams, b.grams))
                  >= 80 * least(len(a.grams), len(b.grams))""",
        "embedding_dedup": _EMBED_DEDUP_ORACLE,
        "minhash_dedup": _MINHASH_DEDUP_ORACLE,
        "simhash": _SIMHASH_ORACLE,
        "multimodal_decode": _MULTIMODAL_DECODE_ORACLE,
        "hll_distinct_users": _HLL_ORACLE,
        "count_min": _COUNT_MIN_ORACLE,
        "winnow_fingerprints": _WINNOW_ORACLE,
        "cdc_chunks": _cdc_oracle_sql(),
        "multimodal_resize": _MULTIMODAL_RESIZE_ORACLE,
        "video_frame_sample": _VIDEO_FRAME_SAMPLE_ORACLE,
        "semdedup": _EMBED_DEDUP_ORACLE,
        # quantize exactly like the engine: q = floor(x*128 + 0.5) in
        # float64 from the same float32 inputs; dot <= dim*q_max^2 <<
        # 2^53 so list_inner_product's float64 sum is the exact integer
        "knn_graph": """
            WITH q AS (
              SELECT vec_id,
                     list_transform(embedding,
                         x -> FLOOR(CAST(x AS DOUBLE) * 128.0 + 0.5)) AS qv
              FROM embeddings
            ), d AS (
              SELECT a.vec_id AS vec_id, b.vec_id AS nn_id,
                     CAST(list_inner_product(a.qv, b.qv) AS BIGINT) AS dot
              FROM q a JOIN q b ON a.vec_id <> b.vec_id
            )
            SELECT vec_id, CAST(rank AS BIGINT) AS rank, nn_id, dot
            FROM (SELECT vec_id, nn_id, dot,
                         row_number() OVER (PARTITION BY vec_id
                             ORDER BY dot DESC, nn_id) AS rank
                  FROM d)
            WHERE rank <= 3""",
        "knn_label_agreement": """
            WITH q AS (
              SELECT vec_id, label,
                     list_transform(embedding,
                         x -> FLOOR(CAST(x AS DOUBLE) * 128.0 + 0.5)) AS qv
              FROM embeddings
            ), d AS (
              SELECT a.vec_id AS vec_id, b.vec_id AS nn_id,
                     CAST(list_inner_product(a.qv, b.qv) AS BIGINT) AS dot
              FROM q a JOIN q b ON a.vec_id <> b.vec_id
            ), nn AS (
              SELECT vec_id, nn_id
              FROM (SELECT vec_id, nn_id,
                           row_number() OVER (PARTITION BY vec_id
                               ORDER BY dot DESC, nn_id) AS rank
                    FROM d)
              WHERE rank <= 5
            )
            SELECT nn.vec_id,
                   CAST(MAX(e1.label) AS BIGINT) AS label,
                   CAST(SUM(CASE WHEN e1.label = e2.label
                            THEN 1 ELSE 0 END) AS BIGINT) AS k_agree,
                   CAST(COUNT(*) AS BIGINT) AS k_n,
                   CAST(SUM(CASE WHEN e1.label = e2.label
                            THEN 1 ELSE 0 END) * 1000
                        // COUNT(*) AS BIGINT) AS agree_permille
            FROM nn
            JOIN q e1 ON e1.vec_id = nn.vec_id
            JOIN q e2 ON e2.vec_id = nn.nn_id
            GROUP BY nn.vec_id""",
        "roc_auc": """
            WITH s AS (
              SELECT o_orderpriority,
                     CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END AS pos,
                     CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS score
              FROM orders
            ), a AS (
              SELECT o_orderpriority, score,
                     CAST(SUM(pos) AS BIGINT) AS np,
                     CAST(COUNT(*) - SUM(pos) AS BIGINT) AS nn
              FROM s GROUP BY 1, 2
            ), o AS (
              SELECT o_orderpriority, np, nn,
                     COALESCE(SUM(nn) OVER (PARTITION BY o_orderpriority
                         ORDER BY score
                         ROWS BETWEEN UNBOUNDED PRECEDING
                         AND 1 PRECEDING), 0) AS cnn
              FROM a
            )
            SELECT o_orderpriority,
                   CAST(SUM(np) AS BIGINT) AS n_pos,
                   CAST(SUM(nn) AS BIGINT) AS n_neg,
                   CAST(SUM(np * (2 * cnn + nn)) AS BIGINT) AS auc_num,
                   CAST(2 * SUM(np) * SUM(nn) AS BIGINT) AS auc_den
            FROM o GROUP BY o_orderpriority""",
        "delta_aggregate": """
            SELECT event_type,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_cents
            FROM events
            WHERE CAST(ts AS TIMESTAMP) >= TIMESTAMP '2024-01-25'
               OR CAST(floor(value * 100 + 0.5) AS BIGINT) >= 100
            GROUP BY event_type""",
        "decision_stump": """
            WITH s AS (
              SELECT o_orderpriority,
                     CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                       // 100000 AS x,
                     CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END
                       AS pos
              FROM orders
            ), c AS (
              SELECT o_orderpriority, x,
                     CAST(SUM(pos) AS BIGINT) AS p,
                     CAST(COUNT(*) - SUM(pos) AS BIGINT) AS q
              FROM s GROUP BY 1, 2
            ), w AS (
              SELECT o_orderpriority, x,
                     SUM(p) OVER (PARTITION BY o_orderpriority
                                  ORDER BY x) AS pl,
                     SUM(q) OVER (PARTITION BY o_orderpriority
                                  ORDER BY x) AS ql,
                     SUM(p) OVER (PARTITION BY o_orderpriority) AS pt,
                     SUM(q) OVER (PARTITION BY o_orderpriority) AS qt
              FROM c
            )
            SELECT o_orderpriority,
                   CAST(x AS BIGINT) AS threshold,
                   CAST(LEAST(pl, ql) + LEAST(pt - pl, qt - ql)
                        AS BIGINT) AS n_errors,
                   CAST(CASE WHEN pl > ql THEN 1 ELSE 0 END AS BIGINT)
                     AS left_label,
                   CAST(CASE WHEN pt - pl > qt - ql THEN 1 ELSE 0 END
                        AS BIGINT) AS right_label,
                   CAST(pt + qt AS BIGINT) AS n_obs
            FROM w
            QUALIFY ROW_NUMBER() OVER (
              PARTITION BY o_orderpriority
              ORDER BY LEAST(pl, ql) + LEAST(pt - pl, qt - ql), x) = 1""",
        "ktruss": """
            WITH ids AS (
              SELECT CAST(doc_id AS BIGINT) AS i FROM documents
            ), e0 AS (
              SELECT i - back AS a, i AS b
              FROM ids, (VALUES (1), (2), (3), (4)) AS t(back)
              WHERE i % 10 BETWEEN 1 AND 4 AND back <= i % 10
              UNION ALL
              SELECT i - 1, i FROM ids WHERE i % 10 >= 5
              UNION ALL
              SELECT i - 2, i FROM ids WHERE i % 10 = 9
              UNION ALL
              SELECT i - 1, i FROM ids WHERE i % 10 = 0 AND i > 0
            ), t0 AS (
              SELECT x.a AS a, x.b AS b, y.b AS c
              FROM e0 x
              JOIN e0 y ON y.a = x.a AND y.b > x.b
              JOIN e0 z ON z.a = x.b AND z.b = y.b
            ), s0 AS (
              SELECT a, b, CAST(COUNT(*) AS BIGINT) AS sup FROM (
                SELECT a, b FROM t0
                UNION ALL SELECT a, c AS b FROM t0
                UNION ALL SELECT b AS a, c AS b FROM t0
              ) GROUP BY a, b
            ), e1 AS (
              SELECT a, b FROM s0 WHERE sup >= 2
            ), t1 AS (
              SELECT x.a AS a, x.b AS b, y.b AS c
              FROM e1 x
              JOIN e1 y ON y.a = x.a AND y.b > x.b
              JOIN e1 z ON z.a = x.b AND z.b = y.b
            ), s1 AS (
              SELECT a, b, CAST(COUNT(*) AS BIGINT) AS sup FROM (
                SELECT a, b FROM t1
                UNION ALL SELECT a, c AS b FROM t1
                UNION ALL SELECT b AS a, c AS b FROM t1
              ) GROUP BY a, b
            )
            SELECT a, b, sup AS support FROM s1 WHERE sup >= 2""",
        "theilsen": """
            WITH d AS (
              SELECT event_type,
                     DATEDIFF('day', DATE '1970-01-01', CAST(ts AS DATE))
                       AS day,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2
            ), p AS (
              SELECT a.event_type,
                     CAST(CASE WHEN b.n > a.n THEN 1
                               WHEN b.n < a.n THEN -1
                               ELSE 0 END AS BIGINT) AS sgn,
                     CAST((1000 * (b.n - a.n)) // (b.day - a.day)
                          AS BIGINT) AS sp
              FROM d a JOIN d b
                ON a.event_type = b.event_type AND b.day > a.day
            ), agg AS (
              SELECT event_type,
                     CAST(SUM(sgn) AS BIGINT) AS mk_s,
                     CAST(COUNT(*) AS BIGINT) AS n_pairs
              FROM p GROUP BY event_type
            ), med AS (
              SELECT event_type, sp AS ts_slope_milli
              FROM (SELECT event_type, sp,
                           ROW_NUMBER() OVER (PARTITION BY event_type
                                              ORDER BY sp) AS r,
                           COUNT(*) OVER (PARTITION BY event_type)
                             AS cnt
                    FROM p)
              WHERE r = (cnt - 1) // 2 + 1
            ), nd AS (
              SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_days
              FROM d GROUP BY event_type HAVING COUNT(*) >= 2
            )
            SELECT nd.event_type, nd.n_days, agg.n_pairs, agg.mk_s,
                   med.ts_slope_milli
            FROM nd
            JOIN agg ON agg.event_type = nd.event_type
            JOIN med ON med.event_type = nd.event_type""",
        "kendall": """
            WITH s AS (
              SELECT event_type,
                     CAST(hour(CAST(ts AS TIMESTAMP)) AS BIGINT) AS x,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) // 1000
                       AS y
              FROM events
            ), c AS (
              SELECT event_type, x, y, CAST(COUNT(*) AS BIGINT) AS n
              FROM s GROUP BY 1, 2, 3
            ), p AS (
              SELECT a.event_type,
                     CAST(SUM(CASE WHEN b.y > a.y THEN a.n * b.n
                              ELSE 0 END) AS BIGINT) AS conc,
                     CAST(SUM(CASE WHEN b.y < a.y THEN a.n * b.n
                              ELSE 0 END) AS BIGINT) AS disc
              FROM c a JOIN c b
                ON a.event_type = b.event_type AND a.x < b.x
              GROUP BY a.event_type
            ), m AS (
              SELECT event_type, CAST(SUM(n) AS BIGINT) AS n_obs
              FROM c GROUP BY event_type
            ), tx AS (
              SELECT event_type,
                     CAST(SUM(cx * (cx - 1) // 2) AS BIGINT) AS tied_x
              FROM (SELECT event_type, x, SUM(n) AS cx
                    FROM c GROUP BY 1, 2) GROUP BY event_type
            ), ty AS (
              SELECT event_type,
                     CAST(SUM(cy * (cy - 1) // 2) AS BIGINT) AS tied_y
              FROM (SELECT event_type, y, SUM(n) AS cy
                    FROM c GROUP BY 1, 2) GROUP BY event_type
            )
            SELECT m.event_type, m.n_obs,
                   COALESCE(p.conc, 0) AS conc,
                   COALESCE(p.disc, 0) AS disc,
                   tx.tied_x, ty.tied_y
            FROM m
            LEFT JOIN p ON p.event_type = m.event_type
            JOIN tx ON tx.event_type = m.event_type
            JOIN ty ON ty.event_type = m.event_type""",
        "spearman": """
            WITH s AS (
              SELECT l_returnflag,
                     CAST(l_quantity AS BIGINT) AS x,
                     CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                       // 10000 AS y
              FROM lineitem
            ), r AS (
              SELECT l_returnflag,
                     CAST(2 * RANK() OVER (PARTITION BY l_returnflag
                                           ORDER BY x)
                          + COUNT(*) OVER (PARTITION BY l_returnflag, x)
                          - 2
                          - COUNT(*) OVER (PARTITION BY l_returnflag)
                          AS BIGINT) AS dx,
                     CAST(2 * RANK() OVER (PARTITION BY l_returnflag
                                           ORDER BY y)
                          + COUNT(*) OVER (PARTITION BY l_returnflag, y)
                          - 2
                          - COUNT(*) OVER (PARTITION BY l_returnflag)
                          AS BIGINT) AS dy
              FROM s
            )
            SELECT l_returnflag,
                   CAST(COUNT(*) AS BIGINT) AS n_obs,
                   CAST(SUM(dx * dy) AS BIGINT) AS sxy,
                   CAST(SUM(dx * dx) AS BIGINT) AS sxx,
                   CAST(SUM(dy * dy) AS BIGINT) AS syy
            FROM r GROUP BY l_returnflag""",
        "trend_slope": """
            WITH d AS (
              SELECT event_type,
                     DATEDIFF('day', DATE '1970-01-01', CAST(ts AS DATE))
                       AS day,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2
            ), c AS (
              SELECT event_type,
                     day - MIN(day) OVER (PARTITION BY event_type) AS x,
                     n
              FROM d
            )
            SELECT event_type,
                   CAST(COUNT(*) AS BIGINT) AS n_days,
                   CAST(COUNT(*) * SUM(x * n) - SUM(x) * SUM(n) AS BIGINT)
                     AS slope_num,
                   CAST(COUNT(*) * SUM(x * x) - SUM(x) * SUM(x) AS BIGINT)
                     AS slope_den
            FROM c GROUP BY event_type""",
        "cusum_shift": """
            WITH d AS (
              SELECT event_type,
                     DATEDIFF('day', DATE '1970-01-01', CAST(ts AS DATE))
                       AS day,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2
            ), w AS (
              SELECT event_type, day,
                     SUM(n) OVER (PARTITION BY event_type ORDER BY day)
                       AS cum,
                     ROW_NUMBER() OVER (PARTITION BY event_type
                         ORDER BY day) AS k,
                     SUM(n) OVER (PARTITION BY event_type) AS s,
                     COUNT(*) OVER (PARTITION BY event_type) AS nd
              FROM d
            )
            SELECT event_type,
                   CAST(nd AS BIGINT) AS n_days,
                   CAST(s AS BIGINT) AS total,
                   CAST(ABS(nd * cum - k * s) AS BIGINT) AS max_dev,
                   CAST(day AS BIGINT) AS peak_day
            FROM w
            QUALIFY ROW_NUMBER() OVER (PARTITION BY event_type
                ORDER BY ABS(nd * cum - k * s) DESC, day ASC) = 1""",
        "distinctive_terms": """
            WITH w AS (
              SELECT source,
                     unnest(regexp_extract_all(lower(text),
                                               '[a-z0-9_]+')) AS word
              FROM documents
            ), c AS (
              SELECT source, word, CAST(count(*) AS BIGINT) AS a
              FROM w GROUP BY 1, 2
            ), tot AS (
              SELECT source, CAST(sum(a) AS BIGINT) AS ts
              FROM c GROUP BY 1
            ), wt AS (
              SELECT word, CAST(sum(a) AS BIGINT) AS tw
              FROM c GROUP BY 1
            ), g AS (SELECT CAST(sum(a) AS BIGINT) AS n FROM c)
            SELECT c.source, c.word, a,
                   CAST(a * (n - tw - ts + a) AS BIGINT) AS or_num,
                   CAST((tw - a) * (ts - a) AS BIGINT) AS or_den
            FROM c JOIN tot USING (source) JOIN wt USING (word)
                 CROSS JOIN g
            WHERE a >= 2
              AND 10 * a * (n - tw - ts + a) > 13 * (tw - a) * (ts - a)""",
        "max_dup_span": """
            WITH words AS (
              SELECT doc_id,
                     regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
              FROM documents
            ), pos AS (
              SELECT doc_id, CAST(i AS BIGINT) AS i,
                     array_to_string(list_slice(ws, i, i + 4), ' ')
                       AS gram
              FROM words, unnest(range(1, len(ws) - 3)) AS t(i)
            ), dup AS (
              SELECT gram FROM pos
              GROUP BY gram HAVING count(DISTINCT doc_id) >= 2
            ), flag AS (
              SELECT p.doc_id, p.i FROM pos p JOIN dup USING (gram)
            ), runs AS (
              SELECT doc_id,
                     i - ROW_NUMBER() OVER (PARTITION BY doc_id
                                            ORDER BY i) AS rk
              FROM flag
            ), best AS (
              SELECT doc_id, MAX(cnt) AS mr FROM (
                SELECT doc_id, rk, count(*) AS cnt
                FROM runs GROUP BY doc_id, rk)
              GROUP BY doc_id
            )
            SELECT w.doc_id AS id,
                   CAST(COALESCE(best.mr + 4, 0) AS BIGINT)
                     AS max_dup_span
            FROM words w LEFT JOIN best ON w.doc_id = best.doc_id""",
        "vocab_drift": """
            WITH w AS (
              SELECT source,
                     unnest(regexp_extract_all(lower(text),
                                               '[a-z0-9_]+')) AS word
              FROM documents
            ), c AS (
              SELECT source, word, CAST(count(*) AS BIGINT) AS a
              FROM w GROUP BY 1, 2
            ), tot AS (
              SELECT source, CAST(sum(a) AS BIGINT) AS ts
              FROM c GROUP BY 1
            ), wt AS (
              SELECT word, CAST(sum(a) AS BIGINT) AS tw
              FROM c GROUP BY 1
            ), g AS (SELECT CAST(sum(a) AS BIGINT) AS n FROM c),
            p AS (
              SELECT c.source,
                     ABS(a * (n - ts) - (tw - a) * ts) AS term,
                     tw, ts, n
              FROM c JOIN tot USING (source) JOIN wt USING (word)
                   CROSS JOIN g
            )
            SELECT source,
                   CAST(SUM(term) + (MAX(n) - SUM(tw)) * MAX(ts)
                        AS BIGINT) AS tv_num,
                   CAST(2 * MAX(ts) * (MAX(n) - MAX(ts)) AS BIGINT)
                     AS tv_den
            FROM p GROUP BY source""",
        "rolling_active": """
            WITH pairs AS (
              SELECT DISTINCT user_id,
                     DATEDIFF('day', DATE '1970-01-01', CAST(ts AS DATE))
                       AS day
              FROM events
            ), b AS (
              SELECT CAST(min(day) AS BIGINT) AS dmin,
                     CAST(max(day) AS BIGINT) AS dmax
              FROM pairs
            ), grid AS (
              SELECT CAST(unnest(range(dmin, dmax + 1)) AS BIGINT) AS day
              FROM b
            )
            SELECT g.day,
                   CAST(count(DISTINCT p.user_id) AS BIGINT) AS wau
            FROM grid g LEFT JOIN pairs p
              ON p.day BETWEEN g.day - 6 AND g.day
            GROUP BY g.day""",
        "compact_sink": """
            SELECT event_type AS sink,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM events GROUP BY event_type""",
        "component_stats": """
            WITH e0 AS (
              SELECT doc_id AS x, doc_id - 1 AS y FROM documents
              WHERE doc_id % 10 NOT IN (0, 7)
              UNION ALL
              SELECT doc_id, doc_id - 2 FROM documents
              WHERE doc_id % 10 = 9 AND (doc_id // 10) % 3 = 0
            ), e AS (
              SELECT DISTINCT LEAST(x, y) AS a, GREATEST(x, y) AS b
              FROM e0
            ), nodes AS (
              SELECT DISTINCT node FROM (
                SELECT a AS node FROM e UNION ALL SELECT b FROM e)
            ), comp_of AS (
              SELECT node,
                     CASE WHEN node % 10 <= 6 THEN (node // 10) * 10
                          ELSE (node // 10) * 10 + 7 END AS comp
              FROM nodes
            ), nn AS (
              SELECT comp, COUNT(*) AS n_nodes FROM comp_of
              GROUP BY comp
            ), ee AS (
              SELECT CASE WHEN a % 10 <= 6 THEN (a // 10) * 10
                          ELSE (a // 10) * 10 + 7 END AS comp,
                     COUNT(*) AS n_edges
              FROM e GROUP BY 1
            )
            SELECT nn.comp AS component,
                   CAST(nn.n_nodes AS BIGINT) AS n_nodes,
                   CAST(COALESCE(ee.n_edges, 0) AS BIGINT) AS n_edges,
                   CAST(COALESCE(ee.n_edges, 0) - nn.n_nodes + 1
                        AS BIGINT) AS cyclomatic
            FROM nn LEFT JOIN ee ON ee.comp = nn.comp""",
        "tree_closure": """
            WITH RECURSIVE e AS (
              SELECT event_id AS node, event_id // 2 AS parent
              FROM events WHERE event_id >= 16
            ), a AS (
              SELECT node, parent AS anc, CAST(1 AS BIGINT) AS depth
              FROM e
              UNION ALL
              SELECT a.node, e.parent, a.depth + 1
              FROM a JOIN e ON e.node = a.anc
            )
            SELECT node, anc, depth FROM a""",
        "tree_stats": """
            WITH RECURSIVE e AS (
              SELECT event_id AS node, event_id // 2 AS parent
              FROM events WHERE event_id >= 16
            ), a AS (
              SELECT node, parent AS anc, CAST(1 AS BIGINT) AS depth
              FROM e
              UNION ALL
              SELECT a.node, e.parent, a.depth + 1
              FROM a JOIN e ON e.node = a.anc
            ), d AS (
              SELECT node, MAX(depth) AS depth,
                     arg_max(anc, depth) AS root
              FROM a GROUP BY node
            ), s AS (
              SELECT anc AS node, COUNT(*) AS cnt FROM a GROUP BY anc
            ), u AS (
              -- explicit DISTINCT: inside a WITH RECURSIVE block this
              -- DuckDB treats a bare UNION as the recursive union and
              -- skips the dedup
              SELECT DISTINCT node FROM (
                SELECT node FROM e UNION ALL SELECT parent FROM e)
            )
            SELECT u.node AS node,
                   CAST(COALESCE(d.depth, 0) AS BIGINT) AS depth,
                   CAST(COALESCE(d.root, u.node) AS BIGINT) AS root,
                   CAST(1 + COALESCE(s.cnt, 0) AS BIGINT)
                       AS subtree_size
            FROM u LEFT JOIN d ON d.node = u.node
                   LEFT JOIN s ON s.node = u.node""",
        "mannwhitney": """
            WITH c AS (
              SELECT l_returnflag AS grp,
                     l_linenumber % 2 AS side,
                     CAST(round(l_quantity) AS BIGINT) AS val,
                     COUNT(*) AS n
              FROM lineitem GROUP BY 1, 2, 3
            ), p AS (
              SELECT a.grp AS grp,
                     SUM(CASE WHEN a.val > b.val THEN 2 * a.n * b.n
                              WHEN a.val = b.val THEN a.n * b.n
                              ELSE 0 END) AS u2
              FROM c a JOIN c b
                ON a.grp = b.grp AND a.side = 0 AND b.side = 1
              GROUP BY 1
            ), t AS (
              SELECT grp,
                     SUM(CASE WHEN side = 0 THEN n ELSE 0 END) AS n_a,
                     SUM(CASE WHEN side = 1 THEN n ELSE 0 END) AS n_b
              FROM c GROUP BY grp
            )
            SELECT t.grp AS grp,
                   CAST(t.n_a AS BIGINT) AS n_a,
                   CAST(t.n_b AS BIGINT) AS n_b,
                   CAST(COALESCE(p.u2, 0) AS BIGINT) AS u2
            FROM t LEFT JOIN p ON p.grp = t.grp""",
    }
