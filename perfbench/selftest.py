#!/usr/bin/env python3
"""Self-test of the benchmark; exits non-zero if any part fails.

    python3 perfbench/selftest.py

* Every metric name ``run.py`` prints is declared in ``BENCHMARK.json``
  with the same unit, and every declared metric is printed.
* The output check fires on tampered output. It runs the in-process layer
  pass (no Ray) over the default seed's corpus, checks the real output
  passes, then changes one thing at a time -- a count, a row, a token, a
  severity, a manifest total -- and requires the check to fail each time.
* The default and holdout seeds give the same workload shape: input row
  count within 5% and each source's share of rows within 2 points.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

import run  # noqa: E402
from check import (  # noqa: E402
    Expected,
    check_counts,
    check_rows,
    check_sink_totals,
    read_routed,
)
from inputs import BACKFILL_CFG, ensure  # noqa: E402
from layers import NullTracer, layer_pass  # noqa: E402


def metric_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for key, printed in (("end_to_end", run.END_TO_END_UNITS),
                         ("per_layer", run.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != printed:
            problems.append(f"{key}: BENCHMARK.json declares {declared}, "
                            f"run.py prints {printed}")
    return problems


def _set(tbl: pa.Table, name: str, arr) -> pa.Table:
    return tbl.set_column(tbl.schema.get_field_index(name), name, arr)


def _counts_of(rows: pa.Table) -> pa.Table:
    g = rows.group_by(["sink_name", "severity"]).aggregate(
        [("doc_id", "count")])
    return pa.table({"sink": g["sink_name"], "severity": g["severity"],
                     "doc_count": g["doc_id_count"]})


def tamper() -> list[str]:
    corpus_dir, _ = ensure(run.DEFAULT_SEED, run.WORK)
    corpus = os.path.join(corpus_dir, "corpus")
    shards = sorted(os.path.join(corpus, "token_sequences", f) for f in
                    os.listdir(os.path.join(corpus, "token_sequences")))
    meta = pq.read_table(os.path.join(corpus, "build_meta.parquet"))
    expected = Expected(pq.read_table(
        os.path.join(corpus_dir, "oracle-backfill.parquet")), [0])
    inputs = pq.read_table(shards[0], columns=["doc_id", "tokens"])
    staging = os.path.join(run.WORK, "selftest")
    layer_pass(shards[:1], meta, BACKFILL_CFG, staging, NullTracer())
    rows = read_routed(staging)
    shutil.rmtree(staging, ignore_errors=True)
    counts = _counts_of(rows)

    problems = []
    clean = (check_rows(rows, expected, inputs)
             + check_counts(counts, expected)
             + check_sink_totals(counts, expected.per_sink()))
    if clean:
        problems.append(f"the untampered output fails its check: {clean}")

    bumped = counts["doc_count"].to_pylist()
    bumped[0] += 1
    tok = rows["tokens"].combine_chunks()
    values = tok.values.to_pylist()
    values[0] ^= 1
    sev = rows["severity"].to_pylist()
    sev[0] = "CRITICAL" if sev[0] != "CRITICAL" else "INFO"
    totals = expected.per_sink()
    totals[next(iter(totals))] -= 1
    cases = {
        "one count changed": check_counts(
            _set(counts, "doc_count", pa.array(bumped, pa.int64())), expected),
        "one row dropped": check_rows(rows.slice(1), expected, inputs),
        "one token changed": check_rows(_set(rows, "tokens", pa.ListArray.from_arrays(
            tok.offsets, pa.array(values, pa.int32()))), expected, inputs),
        "one severity changed": check_rows(
            _set(rows, "severity", pa.array(sev, pa.string())), expected, inputs),
        "one manifest total changed": check_sink_totals(counts, totals),
    }
    for name, found in cases.items():
        if not found:
            problems.append(f"the check does not fire on: {name}")
    return problems


def _shape(seed: int) -> tuple[int, dict[str, float]]:
    corpus_dir, _ = ensure(seed, run.WORK)
    tok = os.path.join(corpus_dir, "corpus", "token_sequences")
    src = pa.concat_tables(pq.read_table(os.path.join(tok, f),
                                         columns=["source"])
                           for f in sorted(os.listdir(tok)))["source"]
    n = len(src)
    return n, {d["values"]: d["counts"] / n
               for d in pc.value_counts(src).to_pylist()}


def seed_shapes() -> list[str]:
    (n0, mix0), (n1, mix1) = _shape(run.DEFAULT_SEED), _shape(run.HOLDOUT_SEED)
    problems = []
    if abs(n1 - n0) > 0.05 * n0:
        problems.append(f"row counts differ by more than 5%: {n0} vs {n1}")
    for src in sorted(set(mix0) | set(mix1)):
        a, b = mix0.get(src, 0.0), mix1.get(src, 0.0)
        if abs(a - b) > 0.02:
            problems.append(f"share of {src} rows: {a:.3f} vs {b:.3f}")
    return problems


def main() -> None:
    failed = False
    for name, part in (("metric names", metric_names),
                       ("tampered output", tamper),
                       ("seed shapes", seed_shapes)):
        problems = part()
        failed |= bool(problems)
        print(f"{name}: {'FAIL' if problems else 'ok'}")
        for p in problems:
            print(f"  {p}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
