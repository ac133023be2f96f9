"""Route stage: assign each row its output sink (OpenSearch-index analogue).

Re-expresses send_to_es's endswith routing (logsender.py:467-490):
``performance.json`` -> performance index, ``*.subunit`` -> subunit index,
everything else -> the main logstash index.  Index names are
``prefix + YYYY.MM.DD`` (get_index, logsender.py:563-589) with the date
pinned in PipelineConfig.  Route drops no row: the reference's hard skip
of a broken file (``config.BROKEN_FILES``, logsender.py:527-530) happens
in the parse stage, before the file's rows are decoded.

The sink is a plain string column appended to the batch, no row copied
-- the downstream writer partitions on it (one file per sink), which is
the Parquet equivalent of per-index bulk inserts (S12/S13).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..config import PipelineConfig


def make_route_fn(cfg: PipelineConfig):
    index = cfg.index_name()
    perf_index = cfg.perf_index_name()
    subunit_index = cfg.subunit_index_name()

    def route(batch: pa.Table) -> pa.Table:
        fname = batch["filename"]
        is_perf = pc.ends_with(fname, "performance.json")
        is_sub = pc.ends_with(fname, ".subunit")
        sink = pc.if_else(
            is_perf, pa.scalar(perf_index),
            pc.if_else(is_sub, pa.scalar(subunit_index), pa.scalar(index)),
        )
        return batch.append_column("sink", sink)

    return route
