"""Parse stage: tokens -> (ts, severity, message | test fields | perf fields).

One ``map_batches`` transform over zero-copy Arrow blocks that re-expresses
the reference's per-line generator chain (logline_iter + doc_iter,
logsender.py:394-428), the grok drop rules (openstack-filters.conf:5-11,
81-83), the performance.json branch (json_iter + makeJsonFields,
logsender.py:288-329, 384-391) and the subunit branch (subunit_iter,
logsender.py:447-464), dispatched on the ``source`` column.

The logline branch runs no Python per row.  Timestamp carry-forward (the
stateful per-file scan of logsender.py:394-413) is a segment-aware numpy
forward fill; the logstash multiline join is one Arrow ``binary_join`` per
block (``grok.join_events``, shared with ``grok.join_runs``).  The JSON
branches decode payloads row by row, but parse the performance report
timestamps in one ``extract_timestamps`` call per block.

LAYOUT CONTRACT: within a block, each log file's rows form one contiguous
run in strictly increasing line order, and a block that starts mid-file
must not need the earlier rows' scan state.  The parse raises
``ValueError`` when a block breaks the contract.  fill_mode="batch" (the
100 TB path) parses whole blocks where they lie: the contract holds when
the upstream writer emits parquet row groups that do not split files (our
corpus writer emits one row group per build) and each file is one read
task.  fill_mode="grouped" (``pipelines/flagship.build_tick``) restores
the contract for any layout: one bucketed exchange on the
(build/filename) file key and a (file, line_no) sort per bucket, then the
same parse.
"""

from __future__ import annotations

import json
from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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


def _segments(tbl: pa.Table) -> tuple[pa.Array, pa.Array, pa.Array,
                                       np.ndarray, np.ndarray]:
    """(build, filename, line_no, file ids, contiguous-run segment ids)."""
    build, fname, line_no = _split_doc_id(tbl)
    fid = np.asarray(pc.binary_join_element_wise(build, fname, "/"))
    change = np.empty(len(fid), dtype=bool)
    change[:1] = True
    change[1:] = fid[1:] != fid[:-1]
    return build, fname, line_no, fid, np.cumsum(change) - 1


def _check_layout(tbl: pa.Table, fid: np.ndarray, seg: np.ndarray,
                  line_no: pa.Array) -> None:
    """Raise unless each file's rows form one run in strictly increasing
    line order (the scan state of a file split into several runs, or
    out of order, is not in one place)."""
    if len(seg) < 2:
        return
    ln = line_no.to_numpy(zero_copy_only=False)
    bad = np.flatnonzero((seg[1:] == seg[:-1]) & (ln[1:] <= ln[:-1])) + 1
    starts = np.flatnonzero(np.diff(seg, prepend=-1))
    repeat = np.ones(len(starts), dtype=bool)
    repeat[np.unique(fid[starts], return_index=True)[1]] = False
    split = starts[repeat]
    if len(bad) or len(split):
        at = min(bad[:1].tolist() + split[:1].tolist())
        raise ValueError(
            "parse layout violation: a block holds a file's rows in "
            "several runs or out of line order, at doc_id="
            f"{tbl['doc_id'][at].as_py()!r}. fill_mode='batch' needs each "
            "file's rows contiguous and in line order within a block; use "
            "fill_mode='grouped' for arbitrary layouts.")


def _join_multiline(
    tbl: pa.Table, lines: pa.Array, seg: np.ndarray, mid_head: bool
) -> tuple[pa.Table, pa.Array]:
    """Fold continuation lines into their anchor event
    (openstack-filters.conf:12-43), segment-local: one event per anchor
    run, message lines joined with newlines, n_tok summed over the
    event, all other columns taken from the anchor row.  Same
    block-contiguity contract as the timestamp carry-forward."""
    from .grok import anchor_mask, join_events

    n = len(tbl)
    src_np = np.asarray(tbl["source"].combine_chunks())
    anchors = np.ones(n, dtype=bool)
    for family in ("console", "oslofmt"):
        fam = src_np == family
        if fam.any():
            anchors[fam] = anchor_mask(lines.filter(pa.array(fam)), family)
    if mid_head and not anchors[0]:
        raise ValueError(
            "multiline-join ambiguity: block starts mid-file with a "
            f"continuation row at doc_id={tbl['doc_id'][0].as_py()!r}; "
            "its anchor lives in another block. Use file-aligned row "
            "groups (one read task per file), or fill_mode='grouped'.")
    start = anchors | (np.diff(seg, prepend=-1) != 0)
    starts = np.nonzero(start)[0]
    if len(starts) == n:
        return tbl, lines
    out = tbl.take(pa.array(starts))
    if "n_tok" in tbl.column_names:
        ntok = tbl["n_tok"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        sums = np.add.reduceat(ntok, starts).astype(np.int32)
        out = out.set_column(out.schema.get_field_index("n_tok"),
                             "n_tok", pa.array(sums, type=pa.int32()))
    return out, join_events(lines, starts)


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
    tbl: pa.Table, lines: pa.Array, cfg: PipelineConfig
) -> pa.Table:
    """The logline_iter + doc_iter + grok-drop path, vectorized."""
    # Does the block start mid-file?  Decided on the first INPUT row: a
    # block holding a file's line 0 holds its whole scan state, whatever
    # the drop rules below remove from the file's head.
    head_file, head_line = tbl["doc_id"][0].as_py().rsplit("/", 1)
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

    build, fname, line_no, fid, seg = _segments(tbl)
    _check_layout(tbl, fid, seg, line_no)
    # the head checks below concern the first kept file only when it is
    # the file the block started in mid-file
    mid_head = bool(len(tbl)) and int(head_line) > 0 and fid[0] == head_file

    if cfg.multiline_join and len(tbl):
        tbl, lines = _join_multiline(tbl, lines, seg, mid_head)
        build, fname, line_no, fid, seg = _segments(tbl)

    ts_ex = extract_timestamps(lines, cfg.today_year)

    banner = pc.starts_with(lines, _BANNER).to_numpy(zero_copy_only=False)
    has_ts = pc.is_valid(ts_ex).to_numpy(zero_copy_only=False)

    # Ambiguity check: if this block starts MID-FILE, the scan state of
    # the earlier rows lives in a different block.  That is only a
    # problem when it would change the output: a leading unanchored (no
    # prior-ts) run needing carry-forward, or a banner candidate at the
    # block head.
    if mid_head:
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
    # last row at or before each row that has a timestamp, and the first
    # row of each row's segment: a timestamp only carries within its file
    last_ts = np.maximum.accumulate(
        np.where(has_ts, np.arange(len(has_ts)), -1))
    seg_first = np.flatnonzero(np.diff(seg, prepend=-1))[seg]
    # banner dropped only while no earlier kept line in the file had a
    # timestamp (logsender.py:399-400)
    prior_has = np.zeros(len(has_ts), dtype=bool)
    prior_has[1:] = last_ts[:-1] >= seg_first[1:]
    drop_banner = banner & ~prior_has
    # carry-forward (logsender.py:404-410)
    ts = ts_ex.take(pa.array(last_ts, mask=last_ts < seg_first)).fill_null(
        cfg.fallback_now)

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
    # one fused selection pass: banner drop + empty-message drop
    # (logsender.py:421-424) + optional DEBUG-severity drop
    # (openstack-filters.conf:81-83)
    keep_mask = ~drop_banner
    keep_mask &= pc.not_equal(message, "").to_numpy(zero_copy_only=False)
    if cfg.drop_debug_severity:
        keep_mask &= pc.not_equal(severity, "DEBUG").to_numpy(
            zero_copy_only=False)
    if not keep_mask.all():
        out = out.filter(pa.array(keep_mask))
    return out


def _flatten_perf(data: dict) -> dict:
    """makeJsonFields (logsender.py:288-329), one parsed payload -> flat
    dict."""
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


def _map_payloads(tbl: pa.Table, lines: pa.Array, cfg: PipelineConfig,
                  fn) -> tuple[pa.Table, pa.Array, list]:
    """``fn`` over each payload line of a row-at-a-time JSON branch.

    A line whose ``fn`` raises is a poison row (e.g. a corrupt JSON
    payload): it is dead-lettered when ``cfg.quarantine_dir`` is set,
    else the error fails the task.  The JSON branches are the realistic
    poison vector, so quarantine lives HERE rather than bisecting the
    whole parse UDF (whose logline branch is not row-independent: the
    layout contract would misfire on bisected sub-batches).  Returns the
    good rows' table, lines and ``fn`` results.
    """
    results, bad_idx, bad_err = [], [], []
    for i, line in enumerate(lines.to_pylist()):
        try:
            results.append(fn(line))
        except Exception as e:
            if cfg.quarantine_dir is None:
                raise
            bad_idx.append(i)
            bad_err.append(repr(e))
    if bad_idx:
        from .quarantine import quarantine_rows

        bad = pa.array(bad_idx)
        quarantine_rows(
            pa.table({"doc_id": tbl["doc_id"].combine_chunks().take(bad),
                      "source": tbl["source"].combine_chunks().take(bad),
                      "payload": lines.take(bad)}),
            bad_err, cfg.quarantine_dir)
        good = pa.array(np.setdiff1d(np.arange(len(tbl)), bad_idx))
        tbl, lines = tbl.take(good), lines.take(good)
    return tbl, lines, results


def _parse_performance(tbl: pa.Table, lines: pa.Array, cfg: PipelineConfig) -> pa.Table:
    """json_iter + makeJsonFields branch (one row per performance.json).

    Per row, only the JSON decode, the flattening and a type check run
    in Python.  The report timestamps (logsender.py:384-391) are parsed
    in ONE ``extract_timestamps`` call over the block: every call runs
    the pattern table's RE2 kernels once, a fixed cost that a call per
    row would pay per row.  A missing or unparsable timestamp takes
    ``fallback_now``; a present non-string one raises ``TypeError``
    (dead-lettered with a quarantine dir), as in the reference.
    """

    def one(line: str) -> tuple:
        data = json.loads(line)
        flat = json.dumps(_flatten_perf(data), sort_keys=True)
        report = data["report"]
        ts = report.get("timestamp")
        if "timestamp" in report and not isinstance(ts, str):
            raise TypeError(
                f"report.timestamp is {type(ts).__name__}, not str")
        return ts, flat

    tbl, lines, rows = _map_payloads(tbl, lines, cfg, one)
    build, fname, line_no = _split_doc_id(tbl)
    message = extract_messages(lines)  # doc_iter also runs for perf docs
    ts = extract_timestamps(pa.array([r[0] for r in rows], type=pa.string()),
                            cfg.today_year)
    out = _finalize(tbl, {
        "build_uuid": build, "filename": fname, "line_no": line_no,
        "ts": ts.fill_null(cfg.fallback_now),
        "severity": pa.array([SEVERITY_NONE] * len(tbl)),
        "message": message,
        "perf_fields": pa.array([r[1] for r in rows], type=pa.string()),
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

    def one(line: str) -> tuple:
        rec = json.loads(line)
        name, status = rec["test_name"], rec["status"]
        if rec.get("start") is None or rec.get("end") is None:
            # FLAG_TIMESTAMP is optional on the wire: no timestamps ->
            # no duration, null @timestamp (the row still routes)
            return name, status, None, None
        start = datetime.fromisoformat(rec["start"])
        delta = datetime.fromisoformat(rec["end"]) - start
        return (name, status,
                float("%d.%d" % (delta.seconds, delta.microseconds)),
                start.replace(microsecond=0))  # %S precision

    tbl, _, rows = _map_payloads(tbl, lines, cfg, one)
    names, statuses, durations, ts_list = (
        [r[k] for r in rows] for k in range(4))
    build, fname, line_no = _split_doc_id(tbl)
    return _finalize(tbl, {
        "build_uuid": build, "filename": fname, "line_no": line_no,
        "ts": pa.array(ts_list, type=pa.timestamp("us")),
        "severity": pa.array([SEVERITY_NONE] * len(tbl)),
        "test_name": pa.array(names, type=pa.string()),
        "test_status": pa.array(statuses, type=pa.string()),
        "test_duration": pa.array(durations, type=pa.float64()),
    }, received_at=cfg.received_at)


def make_parse_fn(cfg: PipelineConfig):
    """Build the parse map_batches callable (stateless task; the compiled
    regex tables are module-level constants, mirroring ST4)."""

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
        for mask, fn in ((log_mask, _parse_loglines),
                         (perf_mask, _parse_performance),
                         (sub_mask, _parse_subunit)):
            idx = np.nonzero(mask.to_numpy(zero_copy_only=False))[0]
            if len(idx) == len(batch):
                pieces.append(fn(batch, lines, cfg))
            elif len(idx):
                pieces.append(fn(batch.take(idx), lines.take(pa.array(idx)),
                                 cfg))
        if not pieces:
            schema = PARSED_SCHEMA
            for name in batch.column_names:
                if name.startswith("_"):
                    schema = schema.append(
                        pa.field(name, batch.schema.field(name).type))
            return schema.empty_table()
        return pa.concat_tables(pieces)

    return parse
