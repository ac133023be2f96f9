"""Output checks against the cached per-seed oracles.

Every timed operation is checked after its timer stops. A check returns a
list of problems; an empty list means the output is correct.

* Routed rows: the set of routed ``doc_id``s equals the oracle's, each row
  carries the oracle's sink and severity, and each row's ``tokens`` array is
  the input row's, byte for byte.
* Counts: the per-(sink, severity) ``doc_count`` a run returns equals the
  oracle's; an idle tick's per-sink totals, read from the manifests, equal
  the oracle's totals over every partition committed so far.
"""

from __future__ import annotations

import collections
import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

_READ_COLUMNS = ["doc_id", "tokens", "severity", "sink_name"]


class Expected:
    """The oracle rows of some input shards, sorted by ``doc_id``."""

    def __init__(self, oracle: pa.Table, shards: list[int]):
        rows = oracle.filter(pc.is_in(oracle["shard"],
                                      value_set=pa.array(shards, pa.int32())))
        self.rows = rows.take(pc.sort_indices(rows, [("doc_id", "ascending")]))
        self.counts = collections.Counter(
            zip(self.rows["sink"].to_pylist(),
                self.rows["severity"].to_pylist()))

    def per_sink(self) -> collections.Counter:
        out: collections.Counter = collections.Counter()
        for (sink, _), n in self.counts.items():
            out[sink] += n
        return out


def read_routed(routed_dir: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(routed_dir, "**", "*.parquet"),
                             recursive=True))
    if not files:
        return pa.table({c: pa.array([], pa.string()) for c in _READ_COLUMNS})
    return pa.concat_tables(pq.read_table(f, columns=_READ_COLUMNS)
                            for f in files)


def _list_arrays_equal(a: pa.Array, b: pa.Array) -> bool:
    """Element-wise equality of two list<int32> arrays of equal length."""
    la = pc.list_value_length(a).to_numpy(zero_copy_only=False)
    lb = pc.list_value_length(b).to_numpy(zero_copy_only=False)
    if not np.array_equal(la, lb):
        return False
    return np.array_equal(pc.list_flatten(a).to_numpy(zero_copy_only=False),
                          pc.list_flatten(b).to_numpy(zero_copy_only=False))


def check_rows(got: pa.Table, expected: Expected, inputs: pa.Table) -> list[str]:
    """Routed rows ``got`` against the oracle; ``inputs`` holds the
    ``(doc_id, tokens)`` of the input shards the rows came from."""
    want = expected.rows
    if len(got) != len(want):
        return [f"routed {len(got)} rows, oracle has {len(want)}"]
    got = got.take(pc.sort_indices(got, [("doc_id", "ascending")]))
    problems = []
    if not got["doc_id"].equals(want["doc_id"]):
        problems.append("routed doc_id set differs from the oracle")
        return problems
    if not got["sink_name"].equals(want["sink"]):
        problems.append("a routed row is in the wrong sink")
    if not got["severity"].equals(want["severity"]):
        problems.append("a routed row has the wrong severity")
    idx = pc.index_in(got["doc_id"], value_set=inputs["doc_id"])
    if idx.null_count:
        problems.append("a routed doc_id is not in the input")
    elif not _list_arrays_equal(
            got["tokens"].combine_chunks(),
            inputs["tokens"].combine_chunks().take(idx.combine_chunks())):
        problems.append("a routed row's tokens differ from its input row")
    return problems


def check_counts(counts: pa.Table, expected: Expected) -> list[str]:
    """A run's per-(sink, severity) ``doc_count`` table against the oracle."""
    got = collections.Counter()
    for row in counts.to_pylist():
        got[(row["sink"], row["severity"])] += int(row["doc_count"])
    if got != expected.counts:
        return [f"per-(sink, severity) counts differ: got {dict(got)}, "
                f"oracle {dict(expected.counts)}"]
    return []


def check_sink_totals(counts: pa.Table,
                      want: collections.Counter) -> list[str]:
    """An idle tick's per-sink totals from the manifests."""
    got = collections.Counter()
    for row in counts.to_pylist():
        got[row["sink"]] += int(row["doc_count"])
    if got != want:
        return [f"manifest sink totals differ: got {dict(got)}, "
                f"oracle {dict(want)}"]
    return []
