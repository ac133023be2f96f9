"""Parse stage: tokens -> (ts, severity, message | test fields | perf fields).

One ``map_batches`` transform over zero-copy Arrow blocks that re-expresses
the reference's per-line generator chain (logline_iter + doc_iter,
logsender.py:394-428), the grok drop rules (openstack-filters.conf:5-11,
81-83), the performance.json branch (json_iter + makeJsonFields,
logsender.py:288-329, 384-391) and the subunit branch (subunit_iter,
logsender.py:447-464), dispatched on the ``source`` column.

Timestamp carry-forward (the stateful per-file scan of logsender.py:394-413)
runs vectorized inside the batch via segment-aware forward fill.

PARTITIONING ASSUMPTION (fill_mode="batch", the 100 TB path): one log
file's rows are contiguous within a single Arrow block, in line order.
This holds when the upstream writer emits parquet row groups that do not
split files (our corpus writer emits one row group per build) because Ray
Data never splits parquet row groups across blocks.  The parse stage must
then be applied with ``batch_size=None`` (whole blocks).  For arbitrary
layouts use fill_mode="grouped" (exact; shuffles by file_id).
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import (
    LOGLINE_SOURCES,
    PipelineConfig,
    SEVERITY_NONE,
    SOURCE_TAGS,
)
from ..functions.detok import tokens_to_text
from ..functions.messages import extract_messages, extract_severity
from ..functions.timestamps import extract_timestamps
from ..reference_impl import INT64_MAX

_DOC_ID_RE = r"^(?P<build_uuid>[^/]+)/(?P<filename>.+)/(?P<line_no>[0-9]+)$"
_BANNER = "-- Logs begin at "

PARSED_FIELDS = [
    ("doc_id", pa.string()),
    ("tokens", pa.list_(pa.int32())),
    ("n_tok", pa.int32()),
    ("source", pa.string()),
    ("build_uuid", pa.string()),
    ("filename", pa.string()),
    ("line_no", pa.int32()),
    ("ts", pa.timestamp("us")),
    ("severity", pa.string()),
    ("message", pa.string()),
    ("test_name", pa.string()),
    ("test_status", pa.string()),
    ("test_duration", pa.float64()),
    ("perf_fields", pa.string()),  # JSON-encoded flat dict (makeJsonFields)
    # grok-extracted structure (openstack-filters.conf:44-77); populated
    # only when cfg.grok_fields is on, null otherwise
    ("module", pa.string()),
    ("pid", pa.string()),
    ("syslog_program", pa.string()),
    ("syslog_pid", pa.string()),
    ("syslog_host", pa.string()),
    ("loglevel", pa.string()),
    # conf:21,49,55,61,67,74 add_field received_at = %{@timestamp}: the
    # batch-processing wall clock, injected as the deterministic
    # cfg.received_at (impure input stays driver-side)
    ("received_at", pa.timestamp("us")),
]
PARSED_SCHEMA = pa.schema(PARSED_FIELDS)


def _split_doc_id(tbl: pa.Table) -> tuple[pa.Array, pa.Array, pa.Array]:
    parts = pc.extract_regex(tbl["doc_id"].combine_chunks(), pattern=_DOC_ID_RE)
    build = pc.struct_field(parts, "build_uuid")
    fname = pc.struct_field(parts, "filename")
    line_no = pc.cast(pc.struct_field(parts, "line_no"), pa.int32())
    return build, fname, line_no


def _nulls(n: int, typ) -> pa.Array:
    return pa.nulls(n, type=typ)


def _finalize(tbl: pa.Table, cols: dict[str, pa.Array],
              received_at=None) -> pa.Table:
    """Assemble the unified PARSED_SCHEMA table.

    Input columns whose name starts with ``_`` (e.g. the lineage
    partition id) are passed through unchanged after the schema columns.
    ``received_at`` (a datetime) broadcasts to every row -- the conf
    adds it in every grok block.
    """
    n = len(tbl)
    if received_at is not None and "received_at" not in cols:
        cols = {**cols,
                "received_at": pa.nulls(n, pa.timestamp("us")).fill_null(
                    received_at)}
    out = {}
    for name, typ in PARSED_FIELDS:
        if name in cols:
            arr = cols[name]
        elif name in tbl.column_names:
            arr = tbl[name]
        else:
            arr = _nulls(n, typ)
        out[name] = arr
    schema = PARSED_SCHEMA
    for name in tbl.column_names:
        if name.startswith("_") and name not in out:
            out[name] = tbl[name]
            schema = schema.append(pa.field(name, tbl.schema.field(name).type))
    return pa.table(out, schema=schema)


def _segment_ids(file_ids: np.ndarray) -> np.ndarray:
    """Contiguous-run segment ids (files are block-contiguous)."""
    if len(file_ids) == 0:
        return np.zeros(0, dtype=np.int64)
    change = np.empty(len(file_ids), dtype=bool)
    change[0] = True
    change[1:] = file_ids[1:] != file_ids[:-1]
    return np.cumsum(change) - 1


def _join_multiline(
    tbl: pa.Table, lines: pa.Array, fid_np: np.ndarray
) -> tuple[pa.Table, pa.Array]:
    """Fold continuation lines into their anchor event
    (openstack-filters.conf:12-43), segment-local: one event per anchor
    run, message lines joined with newlines, n_tok summed over the
    event, all other columns taken from the anchor row.  Same
    block-contiguity contract as the timestamp carry-forward."""
    from .grok import anchor_mask

    n = len(tbl)
    src_np = np.asarray(tbl["source"].combine_chunks())
    anchors = np.ones(n, dtype=bool)
    for family in ("console", "oslofmt"):
        fam = src_np == family
        if fam.any():
            anchors[fam] = anchor_mask(lines.filter(pa.array(fam)), family)
    new_file = np.empty(n, dtype=bool)
    new_file[0] = True
    new_file[1:] = fid_np[1:] != fid_np[:-1]
    start = anchors | new_file
    starts = np.nonzero(start)[0]
    if len(starts) == n:
        return tbl, lines
    if not anchors[0] and int(tbl["doc_id"][0].as_py().rsplit("/", 1)[1]):
        raise ValueError(
            "multiline-join ambiguity: block starts mid-file with a "
            f"continuation row at doc_id={tbl['doc_id'][0].as_py()!r}; "
            "its anchor lives in another block. Use file-aligned row "
            "groups (one read task per file).")
    event = np.cumsum(start) - 1
    joined = pd.Series(np.asarray(lines, dtype=object)).groupby(
        event, sort=True).agg("\n".join)
    out = tbl.take(pa.array(starts))
    if "n_tok" in tbl.column_names:
        ntok = tbl["n_tok"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        sums = np.add.reduceat(ntok, starts).astype(np.int32)
        out = out.set_column(out.schema.get_field_index("n_tok"),
                             "n_tok", pa.array(sums, type=pa.int32()))
    return out, pa.array(joined.to_numpy(), type=pa.string())


_GROK_COL_NAMES = ("module", "pid", "syslog_program", "syslog_pid",
                   "syslog_host", "loglevel")


def _extract_grok_cols(
    lines: pa.Array, src_np: np.ndarray
) -> dict[str, pa.Array]:
    """Per-family grok field extraction scattered back to row order
    (openstack-filters.conf:44-77; logdate/logmessage are dropped after
    use by the filter chain, conf:105-107, so not emitted here)."""
    from .grok import GROK_PATTERNS, extract_grok_fields

    n = len(lines)
    cols = {name: pa.nulls(n, pa.string()) for name in _GROK_COL_NAMES}
    for family in GROK_PATTERNS:
        fam = src_np == family
        if not fam.any():
            continue
        mask = pa.array(fam)
        sub = extract_grok_fields(lines.filter(mask), family)
        for name in _GROK_COL_NAMES:
            if sub[name].null_count < len(sub[name]):
                cols[name] = pc.replace_with_mask(
                    cols[name], mask, sub[name])
    return cols


def _parse_loglines(
    tbl: pa.Table, lines: pa.Array, cfg: PipelineConfig, fill: bool
) -> pa.Table:
    """The logline_iter + doc_iter + grok-drop path, vectorized."""
    src = tbl["source"].combine_chunks()
    # --- drop rules that do not depend on scan state ---------------------
    keep = np.ones(len(tbl), dtype=bool)
    if cfg.skip_debug:  # substring filter (logsender.py:400-402)
        keep &= ~pc.match_substring(lines, "DEBUG").to_numpy(zero_copy_only=False)
    screen_srcs = [s for s, t in SOURCE_TAGS.items() if "screen" in t]
    console_srcs = [
        s for s, t in SOURCE_TAGS.items() if "console" in t or "console.html" in t
    ]
    if screen_srcs:  # '^+ ' screen drop (openstack-filters.conf:5-7)
        m = pc.and_(pc.is_in(src, value_set=pa.array(screen_srcs)),
                    pc.starts_with(lines, "+ "))
        keep &= ~m.to_numpy(zero_copy_only=False)
    if console_srcs:  # <pre> markers (openstack-filters.conf:8-11)
        stripped = pc.utf8_rtrim(lines, "\n")
        m = pc.and_(pc.is_in(src, value_set=pa.array(console_srcs)),
                    pc.is_in(stripped, value_set=pa.array(["<pre>", "</pre>"])))
        keep &= ~m.to_numpy(zero_copy_only=False)

    if not keep.all():
        keep_idx = np.nonzero(keep)[0]
        tbl = tbl.take(keep_idx)
        lines = lines.take(pa.array(keep_idx))

    build, fname, line_no = _split_doc_id(tbl)
    file_id = pc.binary_join_element_wise(build, fname, "/")

    if cfg.multiline_join and len(tbl):
        tbl, lines = _join_multiline(tbl, lines, np.asarray(file_id))
        build, fname, line_no = _split_doc_id(tbl)
        file_id = pc.binary_join_element_wise(build, fname, "/")

    ts_ex = extract_timestamps(lines, cfg.today_year)

    banner = pc.starts_with(lines, _BANNER).to_numpy(zero_copy_only=False)
    seg = _segment_ids(np.asarray(file_id))
    has_ts = pc.is_valid(ts_ex).to_numpy(zero_copy_only=False)

    if fill:
        # Ambiguity check: if this block starts MID-FILE (first row's
        # line_no > 0), the scan state of the earlier rows lives in a
        # different block.  That is only a problem when it would change
        # the output: a leading unanchored (no prior-ts) run needing
        # carry-forward, or a banner candidate at the block head.
        if len(tbl) and line_no[0].as_py() > 0:
            n0 = int((seg == seg[0]).sum())
            lead_has = has_ts[:n0]
            anchored = lead_has.cumsum() > 0
            needs_fill = (~lead_has) & (~anchored)
            if needs_fill.any() or banner[:n0][~anchored].any():
                raise ValueError(
                    "carry-forward ambiguity: block starts mid-file at "
                    f"doc_id={tbl['doc_id'][0].as_py()!r} with unanchored "
                    "leading rows; the input layout violates the "
                    "one-log-file-per-block contract. Re-write the input "
                    "with file-aligned row groups and one read task per "
                    "parquet file, or use fill_mode='grouped'.")
        ts_ser = pd.Series(ts_ex.to_pandas().values)
        seg_ser = pd.Series(seg)
        # banner dropped only while no earlier kept line in the file had a
        # timestamp (logsender.py:399-400)
        prior_has = (
            pd.Series(has_ts).groupby(seg_ser).cummax().groupby(seg_ser)
            .shift(1, fill_value=False).to_numpy()
        )
        drop_banner = banner & ~prior_has
        # carry-forward (logsender.py:404-410)
        filled = ts_ser.groupby(seg_ser).ffill()
        filled = filled.fillna(pd.Timestamp(cfg.fallback_now))
        ts = pa.Array.from_pandas(filled, type=pa.timestamp("us"))
        sel = np.nonzero(~drop_banner)[0]
    else:
        ts = ts_ex  # grouped mode fills later; keep banner rows flagged
        sel = np.arange(len(tbl))

    severity = extract_severity(lines)
    message = extract_messages(lines, keep_newlines=cfg.multiline_join)

    cols = {
        "build_uuid": build, "filename": fname, "line_no": line_no,
        "ts": ts, "severity": severity, "message": message,
    }
    if cfg.grok_fields:
        cols.update(_extract_grok_cols(
            lines, np.asarray(tbl["source"].combine_chunks())))
    out = _finalize(tbl, cols, received_at=cfg.received_at)
    if fill:
        # one fused selection pass: banner drop + empty-message drop
        # (logsender.py:421-424) + optional DEBUG-severity drop
        # (openstack-filters.conf:81-83)
        keep_mask = np.zeros(len(out), dtype=bool)
        keep_mask[sel] = True
        keep_mask &= pc.not_equal(message, "").to_numpy(zero_copy_only=False)
        if cfg.drop_debug_severity:
            keep_mask &= pc.not_equal(severity, "DEBUG").to_numpy(
                zero_copy_only=False)
        if not keep_mask.all():
            out = out.filter(pa.array(keep_mask))
    else:
        out = out.append_column("_banner", pa.array(banner))
    return out


def _flatten_perf(content: str) -> dict:
    """makeJsonFields (logsender.py:288-329), one JSON payload -> flat dict."""
    data = json.loads(content)
    fields: dict = {"hostname": data["report"]["hostname"]}
    for service in data.get("services", []):
        mem = service.get("MemoryCurrent", 0)
        if not isinstance(mem, int) or mem > INT64_MAX:
            mem = 0
        fields["service_%s_memorycurrent" % service.get("service")] = mem
    for db in data.get("db", []):
        count = db.get("count", 0)
        if not isinstance(count, int):
            continue
        fields["db_%s_%s" % (db.get("db"), db.get("op").lower())] = count
    for api_call in data.get("api", []):
        name = api_call.get("service")
        for api_type, count in api_call.items():
            if api_type in ("service", "log") or not isinstance(count, int):
                continue
            fields["api_%s_%s" % (name, api_type.lower())] = count
    return fields


def _parse_performance(tbl: pa.Table, lines: pa.Array, cfg: PipelineConfig) -> pa.Table:
    """json_iter + makeJsonFields branch (one row per performance.json).

    Row-at-a-time Python is fine here: performance rows are O(#builds),
    a vanishing fraction of the corpus.
    """
    ts_list, perf_json = [], []
    bad_idx, bad_err = [], []
    for i, line in enumerate(lines.to_pylist()):
        try:
            data = json.loads(line)
            flat = json.dumps(_flatten_perf(line), sort_keys=True)
        except Exception as e:
            # poison row (corrupt performance.json payload): dead-letter
            # it when a quarantine dir is configured, else fail fast --
            # the row-at-a-time JSON branches are the realistic poison
            # vector, so quarantine lives HERE rather than bisecting the
            # whole parse UDF (whose logline branch is not
            # row-independent: the carry-forward layout contract would
            # misfire on bisected sub-batches)
            if cfg.quarantine_dir is None:
                raise
            bad_idx.append(i)
            bad_err.append(repr(e))
            continue
        ts = None
        if "report" in data and "timestamp" in data["report"]:
            ts_arr = extract_timestamps(
                pa.array([data["report"]["timestamp"]]), cfg.today_year)
            ts = ts_arr[0].as_py()
        ts_list.append(ts if ts is not None else cfg.fallback_now)
        perf_json.append(flat)
    if bad_idx:
        from .quarantine import quarantine_rows

        quarantine_rows(
            pa.table({"doc_id": tbl["doc_id"].combine_chunks().take(
                          pa.array(bad_idx)),
                      "source": tbl["source"].combine_chunks().take(
                          pa.array(bad_idx)),
                      "payload": lines.take(pa.array(bad_idx))}),
            bad_err, cfg.quarantine_dir)
        good = np.setdiff1d(np.arange(len(tbl)), np.array(bad_idx))
        tbl = tbl.take(pa.array(good))
        lines = lines.take(pa.array(good))
    build, fname, line_no = _split_doc_id(tbl)
    message = extract_messages(lines)  # doc_iter also runs for perf docs
    out = _finalize(tbl, {
        "build_uuid": build, "filename": fname, "line_no": line_no,
        "ts": pa.array(ts_list, type=pa.timestamp("us")),
        "severity": pa.array([SEVERITY_NONE] * len(tbl)),
        "message": message,
        "perf_fields": pa.array(perf_json, type=pa.string()),
    }, received_at=cfg.received_at)
    return out.filter(pc.not_equal(out["message"].combine_chunks(), ""))


def _parse_subunit(tbl: pa.Table, lines: pa.Array, cfg: PipelineConfig) -> pa.Table:
    """subunit_iter branch (logsender.py:447-464) over pre-parsed test rows.

    Binary subunit stream decoding needs subunit2sql (not available);
    rows arrive pre-split one-per-test as JSON
    {test_name, status, start, end}.  The quirky duration
    ``float(f"{seconds}.{microseconds}")`` and the second-precision
    @timestamp are preserved exactly.
    """
    names, statuses, durations, ts_list = [], [], [], []
    bad_idx, bad_err = [], []
    for i, line in enumerate(lines.to_pylist()):
        try:
            rec = json.loads(line)
            name, status = rec["test_name"], rec["status"]
        except Exception as e:
            # corrupt subunit row: dead-letter when configured (same
            # contract as the performance branch), else fail fast
            if cfg.quarantine_dir is None:
                raise
            bad_idx.append(i)
            bad_err.append(repr(e))
            continue
        if rec.get("start") is None or rec.get("end") is None:
            # FLAG_TIMESTAMP is optional on the wire: no timestamps ->
            # no duration, null @timestamp (the row still routes)
            durations.append(None)
            ts_list.append(None)
        else:
            start = pd.Timestamp(rec["start"]).to_pydatetime()
            end = pd.Timestamp(rec["end"]).to_pydatetime()
            delta = end - start
            durations.append(
                float("%d.%d" % (delta.seconds, delta.microseconds)))
            ts_list.append(start.replace(microsecond=0))  # %S precision
        names.append(name)
        statuses.append(status)
    if bad_idx:
        from .quarantine import quarantine_rows

        quarantine_rows(
            pa.table({"doc_id": tbl["doc_id"].combine_chunks().take(
                          pa.array(bad_idx)),
                      "source": tbl["source"].combine_chunks().take(
                          pa.array(bad_idx)),
                      "payload": lines.take(pa.array(bad_idx))}),
            bad_err, cfg.quarantine_dir)
        good = np.setdiff1d(np.arange(len(tbl)), np.array(bad_idx))
        tbl = tbl.take(pa.array(good))
    build, fname, line_no = _split_doc_id(tbl)
    return _finalize(tbl, {
        "build_uuid": build, "filename": fname, "line_no": line_no,
        "ts": pa.array(ts_list, type=pa.timestamp("us")),
        "severity": pa.array([SEVERITY_NONE] * len(tbl)),
        "test_name": pa.array(names, type=pa.string()),
        "test_status": pa.array(statuses, type=pa.string()),
        "test_duration": pa.array(durations, type=pa.float64()),
    }, received_at=cfg.received_at)


def make_parse_fn(cfg: PipelineConfig, fill: bool | None = None):
    """Build the parse map_batches callable (stateless task; the compiled
    regex tables are module-level constants, mirroring ST4)."""
    do_fill = cfg.fill_mode == "batch" if fill is None else fill

    def parse(batch: pa.Table) -> pa.Table:
        from ..runtime import tune_worker_threads

        tune_worker_threads()
        if "tokens" in batch.column_names:
            lines = tokens_to_text(batch["tokens"])
        else:  # raw text rows from sources/textlog.py
            lines = batch["line"].combine_chunks()
            batch = batch.drop_columns("line")
        src = batch["source"].combine_chunks()
        pieces = []
        log_mask = pc.is_in(src, value_set=pa.array(LOGLINE_SOURCES))
        perf_mask = pc.equal(src, "performance")
        sub_mask = pc.equal(src, "subunit")
        for mask, fn, extra in (
            (log_mask, _parse_loglines, (cfg, do_fill)),
            (perf_mask, _parse_performance, (cfg,)),
            (sub_mask, _parse_subunit, (cfg,)),
        ):
            idx = np.nonzero(mask.to_numpy(zero_copy_only=False))[0]
            if len(idx) == len(batch):
                pieces.append(fn(batch, lines, *extra))
            elif len(idx):
                piece = fn(batch.take(idx), lines.take(pa.array(idx)), *extra)
                pieces.append(piece)
        if not pieces:
            schema = PARSED_SCHEMA
            for name in batch.column_names:
                if name.startswith("_"):
                    schema = schema.append(
                        pa.field(name, batch.schema.field(name).type))
            if not do_fill:
                schema = schema.append(pa.field("_banner", pa.bool_()))
            return schema.empty_table()
        if not do_fill:
            # unify: non-logline pieces get _banner=False
            pieces = [
                p if "_banner" in p.column_names
                else p.append_column("_banner", pa.array([False] * len(p)))
                for p in pieces
            ]
        return pa.concat_tables(pieces)

    return parse


_FILL_BUCKETS = 64
_HELPER_COLS = ("_banner", "_kind", "_fid", "_fill_bucket")


def _sparse_split_fn(cfg: PipelineConfig):
    """Stage A of the exact any-layout fill (fill_mode="grouped").

    The block is sorted by (file, line_no) and divided into RUNS of
    line-CONSECUTIVE rows per file.  Within a run the reference scan
    state is fully determined, so:

      * rows with their own timestamp are always resolved;
      * timestamp-less rows (and banners) with an earlier timestamp in
        the SAME run are resolved in place;
      * everything else (kind=1) plus ONE summary row per run --
        (file, first_line, last_known_ts) -- (kind=2) goes to the
        sparse shuffle.

    Any line-number gap is treated conservatively as "state unknown"
    (the missing lines may live in another block and carry timestamps);
    gaps caused by skip_debug-dropped lines therefore ship a few extra
    pending rows but never a wrong timestamp.  Banner lines can never
    carry their own timestamp (every pattern is ^-anchored and
    "-- Logs begin at " matches none), so a resolved banner always has
    a prior in-run timestamp and is always kept -- exactly the
    reference scan.
    """

    def split(t: pa.Table) -> pa.Table:
        n = len(t)
        base_cols = list(t.column_names)
        if n == 0:
            sch = pa.schema(
                [(c, t.schema.field(c).type) for c in base_cols]
                + [("_kind", pa.int8()), ("_fid", pa.string()),
                   ("_fill_bucket", pa.int32())])
            return sch.empty_table()
        build = t["build_uuid"].combine_chunks()
        fname = t["filename"].combine_chunks()
        fid_col = pc.binary_join_element_wise(build, fname, "/")
        t = t.append_column("_fid", fid_col)
        order = pc.sort_indices(
            t, sort_keys=[("_fid", "ascending"), ("line_no", "ascending")])
        t = t.take(order)

        fid_np = np.asarray(t["_fid"].combine_chunks())
        line_no = t["line_no"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        seg = _segment_ids(fid_np)
        consec = np.empty(n, dtype=bool)
        consec[0] = True
        consec[1:] = (seg[1:] == seg[:-1]) & (np.diff(line_no) == 1)
        run = np.cumsum(~consec) - 0  # new run wherever not consecutive
        run_ser = pd.Series(run)

        src_np = np.asarray(t["source"].combine_chunks())
        is_log = np.isin(src_np, np.asarray(LOGLINE_SOURCES, dtype=object))
        ts_arr = t["ts"].combine_chunks()
        has = pc.is_valid(ts_arr).to_numpy(zero_copy_only=False) & is_log
        banner = t["_banner"].combine_chunks().to_numpy(
            zero_copy_only=False)

        has_ser = pd.Series(has)
        prior_or_self = has_ser.groupby(run_ser).cummax().to_numpy()
        ts_ser = pd.Series(ts_arr.to_pandas().values).where(has_ser)
        filled = ts_ser.groupby(run_ser).ffill()

        # no-ts rows (banners included) resolve iff an earlier in-run
        # row had a timestamp; has-rows always resolve with their own
        resolved_log = is_log & prior_or_self
        pending = is_log & ~prior_or_self

        ts_final = pd.Series(ts_arr.to_pandas().values)
        ts_final[resolved_log] = filled[resolved_log]

        msg = t["message"].combine_chunks()
        empty_msg = pc.fill_null(pc.equal(msg, ""), False).to_numpy(
            zero_copy_only=False)
        keep_resolved = ~pending & ~(is_log & empty_msg)
        if cfg.drop_debug_severity:
            dbg = pc.fill_null(
                pc.equal(t["severity"].combine_chunks(), "DEBUG"),
                False).to_numpy(zero_copy_only=False)
            keep_resolved &= ~(is_log & dbg)

        t = t.set_column(t.schema.get_field_index("ts"), "ts",
                         pa.Array.from_pandas(ts_final,
                                              type=pa.timestamp("us")))

        def bucket_of(fids: np.ndarray) -> np.ndarray:
            return (pd.util.hash_array(fids.astype(object))
                    % _FILL_BUCKETS).astype(np.int32)

        pieces = []
        res_idx = np.nonzero(keep_resolved)[0]
        if len(res_idx):
            rt = t.take(pa.array(res_idx))
            rt = rt.append_column("_kind", pa.array(
                np.zeros(len(res_idx), np.int8)))
            rt = rt.append_column("_fill_bucket", pa.array(
                np.zeros(len(res_idx), np.int32)))
            pieces.append(rt)
        pend_idx = np.nonzero(pending)[0]
        if len(pend_idx):
            pt = t.take(pa.array(pend_idx))
            pt = pt.append_column("_kind", pa.array(
                np.ones(len(pend_idx), np.int8)))
            pt = pt.append_column("_fill_bucket", pa.array(
                bucket_of(fid_np[pend_idx])))
            pieces.append(pt)
        # one summary per LOG run: (fid, first line, last known ts)
        run_starts = np.nonzero(np.concatenate(
            ([True], run[1:] != run[:-1])))[0]
        run_ends = np.concatenate((run_starts[1:] - 1, [n - 1]))
        log_runs = is_log[run_starts]
        if log_runs.any():
            starts = run_starts[log_runs]
            ends = run_ends[log_runs]
            sum_fid = fid_np[starts]
            last_ts = filled.to_numpy()[ends]  # NaT if run had no ts
            m = len(starts)
            cols = {}
            for name in t.column_names:
                if name == "line_no":
                    cols[name] = pa.array(
                        line_no[starts].astype(np.int32), pa.int32())
                elif name == "ts":
                    cols[name] = pa.Array.from_pandas(
                        pd.Series(last_ts), type=pa.timestamp("us"))
                elif name == "_fid":
                    cols[name] = pa.array(sum_fid, type=pa.string())
                else:
                    cols[name] = pa.nulls(m, t.schema.field(name).type)
            st = pa.table(cols, schema=t.schema)
            st = st.append_column("_kind", pa.array(np.full(m, 2, np.int8)))
            st = st.append_column("_fill_bucket", pa.array(bucket_of(sum_fid)))
            pieces.append(st)
        return pa.concat_tables(pieces)

    return split


def _sparse_reduce_fn(cfg: PipelineConfig, out_schema: pa.Schema):
    """Stage B: per-bucket reconstruction of the cross-block scan state.

    For each pending row, the anchor timestamp is the last known ts of
    any EARLIER segment of its file (summaries sorted by first line),
    prior-has likewise -- exactly the reference scan's
    last_known_timestamp at the row's position.  Output is built with
    the explicit Arrow schema so it unions bit-exactly with the
    in-block-resolved stream (tokens survive as list<int32>).
    """
    fallback = np.datetime64(pd.Timestamp(cfg.fallback_now))

    def reduce(df: pd.DataFrame) -> pa.Table:
        pend = df[df["_kind"] == 1]
        summ = df[df["_kind"] == 2]
        if len(pend) == 0:
            return out_schema.empty_table()
        sgroups = {k: g for k, g in summ.groupby("_fid", sort=False)}
        kept = []
        for fid, p in pend.groupby("_fid", sort=False):
            s = sgroups.get(fid)
            s = s.sort_values("line_no", kind="mergesort")
            firsts = s["line_no"].to_numpy()
            last_ts = s["ts"]
            has = last_ts.notna().to_numpy()
            carry = last_ts.ffill().shift(1).to_numpy()
            prior_has = np.concatenate(([False], np.cumsum(has)[:-1] > 0))
            idx = np.searchsorted(firsts, p["line_no"].to_numpy(),
                                  side="right") - 1
            anchor = carry[idx]
            ph = prior_has[idx]
            banner = p["_banner"].to_numpy(dtype=bool)
            keep = ~(banner & ~ph)
            ts_new = np.where(pd.isna(anchor), fallback,
                              anchor.astype("datetime64[us]"))
            p = p[keep].assign(ts=ts_new[keep])
            p = p[p["message"].fillna("") != ""]
            if cfg.drop_debug_severity:
                p = p[p["severity"].fillna("") != "DEBUG"]
            if len(p):
                kept.append(p)
        if not kept:
            return out_schema.empty_table()
        allp = pd.concat(kept)
        cols = {}
        for field in out_schema:
            ser = allp[field.name]
            if pa.types.is_list(field.type):
                cols[field.name] = pa.array(list(ser), type=field.type)
            else:
                cols[field.name] = pa.Array.from_pandas(ser, type=field.type)
        return pa.table(cols, schema=out_schema)

    return reduce


def apply_parse(ds: ray.data.Dataset, cfg: PipelineConfig) -> ray.data.Dataset:
    """Attach the parse stage to a token-sequence Dataset."""
    if cfg.fill_mode == "batch":
        # batch_size=None => whole blocks; required by the contiguity
        # assumption of the in-batch carry-forward.
        return ds.map_batches(
            make_parse_fn(cfg), batch_format="pyarrow", batch_size=None,
            zero_copy_batch=True)
    if cfg.fill_mode != "grouped":
        raise ValueError(cfg.fill_mode)
    # exact any-layout fill with a SPARSE shuffle: resolve in-block,
    # exchange only unresolved leading runs + one summary row per
    # (block x file) segment.  The materialize() is the branch point --
    # the parsed data is produced once and read by both streams.
    parsed = ds.map_batches(
        make_parse_fn(cfg, fill=False), batch_format="pyarrow",
        batch_size=None, zero_copy_batch=True)
    splitd = parsed.map_batches(
        _sparse_split_fn(cfg), batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True).materialize()
    out_schema = splitd.schema().base_schema
    keep_names = [n for n in out_schema.names if n not in _HELPER_COLS]
    out_schema = pa.schema([(n, out_schema.field(n).type)
                            for n in keep_names])

    def take_resolved(t: pa.Table) -> pa.Table:
        mask = pc.equal(t["_kind"].combine_chunks(), pa.scalar(0, pa.int8()))
        return t.filter(mask).select(keep_names)

    def take_pending(t: pa.Table) -> pa.Table:
        mask = pc.not_equal(t["_kind"].combine_chunks(),
                            pa.scalar(0, pa.int8()))
        return t.filter(mask)

    resolved = splitd.map_batches(take_resolved, batch_format="pyarrow",
                                  batch_size=None)
    filled = splitd.map_batches(
        take_pending, batch_format="pyarrow", batch_size=None,
    ).groupby("_fill_bucket").map_groups(
        _sparse_reduce_fn(cfg, out_schema), batch_format="pandas")
    return resolved.union(filled)
