"""Parse stage: tokens -> (ts, severity, message | test fields | perf fields).

One ``map_batches`` transform over zero-copy Arrow blocks that re-expresses
the reference's per-line generator chain (logline_iter + doc_iter,
logsender.py:394-428), the grok drop rules (openstack-filters.conf:5-11,
81-83), the performance.json branch (json_iter + makeJsonFields,
logsender.py:288-329, 384-391) and the subunit branch (subunit_iter,
logsender.py:447-464), dispatched on the ``source`` column.

Each block's ``doc_id`` is split ONCE (``split_doc_id``: two
``split_pattern`` kernels) into build, filename, line number and file id.
Rows of a broken file (``config.BROKEN_FILES``) are then dropped unread,
before any branch decodes them, as the reference skips the file
(logsender.py:527-530).  The branches work on a row selection
(``_Rows``): block row positions plus the narrow per-row arrays they
read, taken together at every drop.  The wide input columns (``doc_id``,
``tokens``, ``n_tok``, ``source``, ``_partition``) stay in the block
until ``_assemble`` gathers each output row from it once.

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
100 TB path) parses each input file whole, as one block, in one Ray task
(``pipelines/flagship._file_task``): the contract holds when the upstream
writer keeps each log file's rows contiguous and in line order within a
parquet file (our corpus writer does).  fill_mode="grouped"
(``pipelines/flagship.build_tick``) restores the contract for any
layout: one bucketed exchange on the (build/filename) file key and a
(file, line_no) sort per bucket, then the same parse.
"""

from __future__ import annotations

import dataclasses
import json
from datetime import datetime
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import (
    BROKEN_FILES,
    LOGLINE_SOURCES,
    PipelineConfig,
    SEVERITY_NONE,
    SOURCE_TAGS,
)
from ..functions.detok import halves, tokens_to_text
from ..functions.messages import extract_messages, extract_severity
from ..functions.timestamps import extract_timestamps
from ..reference_impl import INT64_MAX

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


def split_doc_id(doc_id: pa.Array) -> tuple[pa.Array, pa.Array, pa.Array,
                                            pa.Array]:
    """(build_uuid, filename, line_no, file id) of ``build/filename/line``
    doc_ids.  The last ``/`` splits off the line number; the first ``/``
    of the rest, the file id, splits the build from the filename.

    A row is null in all four unless the build and the filename are
    non-empty, the filename holds no newline and the line number is
    ASCII digits: the match domain of
    ``^([^/]+)/(.+)/([0-9]+)$`` (RE2 ``.`` excludes only newline).
    """
    fid, line = halves(pc.split_pattern(doc_id, "/", max_splits=1,
                                        reverse=True))
    build, fname = halves(pc.split_pattern(fid, "/", max_splits=1))
    ok = pc.and_(
        pc.and_(pc.greater(pc.binary_length(build), 0),
                pc.greater(pc.binary_length(fname), 0)),
        pc.and_(pc.invert(pc.match_substring(fname, "\n")),
                pc.ascii_is_decimal(line))).fill_null(False)
    if ok.false_count:
        build, fname, line, fid = (
            pc.if_else(ok, a, pa.scalar(None, a.type))
            for a in (build, fname, line, fid))
    return build, fname, pc.cast(line, pa.int32()), fid


def _mask(arr) -> np.ndarray:
    return arr.fill_null(False).to_numpy(zero_copy_only=False)


@dataclasses.dataclass
class _Block:
    """Per-block inputs that row selections index into."""
    doc_id: pa.Array
    n_tok: Optional[np.ndarray]


@dataclasses.dataclass
class _Rows:
    """A selection of a block's rows: their positions ``idx`` in the
    block and the narrow per-row arrays the branches read."""
    block: _Block
    idx: np.ndarray
    lines: pa.Array
    source: pa.Array
    build: pa.Array
    filename: pa.Array
    line_no: pa.Array
    fcode: np.ndarray  # file id code: equal codes, same file

    def __len__(self) -> int:
        return len(self.idx)

    def take(self, sel: np.ndarray, **replace) -> "_Rows":
        """Rows ``sel`` of this selection; ``replace`` gives arrays that
        are already per selected row."""
        ix = pa.array(sel)
        out = {"block": self.block, "idx": self.idx[sel],
               "fcode": self.fcode[sel]}
        for f in ("lines", "source", "build", "filename", "line_no"):
            out[f] = replace[f] if f in replace else getattr(self, f).take(ix)
        return _Rows(**out)

    def doc_id(self, i: int) -> str:
        return self.block.doc_id[int(self.idx[i])].as_py()

    def cols(self) -> dict[str, pa.Array]:
        return {"build_uuid": self.build, "filename": self.filename,
                "line_no": self.line_no}


def _block_rows(batch: pa.Table, lines: pa.Array) -> _Rows:
    """Every row of the block, its doc_id split once.  A doc_id that does
    not split has no file, so no scan state and no sink: the block fails
    with the first one named, on every branch."""
    doc_id = batch["doc_id"].combine_chunks()
    build, fname, line_no, fid = split_doc_id(doc_id)
    if fid.null_count:
        bad = doc_id[pc.index(pc.is_null(fid), True).as_py()].as_py()
        raise ValueError(
            f"doc_id {bad!r} does not split into build/filename/line_no "
            "(a non-empty build, a non-empty filename without a newline, "
            "and ASCII digits after the last '/')")
    fcode = fid.dictionary_encode().indices
    n_tok = (batch["n_tok"].combine_chunks().to_numpy(zero_copy_only=False)
             if "n_tok" in batch.column_names else None)
    return _Rows(_Block(doc_id, n_tok), np.arange(len(batch)), lines,
                 batch["source"].combine_chunks(), build, fname, line_no,
                 fcode.to_numpy(zero_copy_only=False))


def _assemble(batch: pa.Table, parts: list[tuple[np.ndarray, dict]],
              received_at=None) -> pa.Table:
    """The PARSED_SCHEMA table of the branches' output rows, in order.

    Each part is (block row positions, computed columns).  The input
    columns (doc_id, tokens, n_tok, source and every column
    whose name starts with ``_``, e.g. the lineage partition id) are
    gathered from ``batch`` in ONE take; a part's computed column of the
    same name (n_tok of a multiline event) replaces it for that part.
    ``received_at`` (a datetime) broadcasts to every row -- the conf
    adds it in every grok block.
    """
    idx = np.concatenate([p[0] for p in parts] or [np.arange(0)])
    n = len(idx)
    if n == len(batch) and (idx == np.arange(n)).all():
        wide = batch
    else:
        wide = batch.take(pa.array(idx))
    out = {}
    for name, typ in PARSED_FIELDS:
        if any(name in cols for _, cols in parts):
            out[name] = pa.chunked_array([
                (cols[name] if name in cols
                 else batch[name].take(pa.array(i))
                 if name in batch.column_names
                 else pa.nulls(len(i), typ)).cast(typ)
                for i, cols in parts], type=typ)
        elif name in batch.column_names:
            out[name] = wide[name]
        elif name == "received_at" and received_at is not None:
            out[name] = pa.nulls(n, typ).fill_null(received_at)
        else:
            out[name] = pa.nulls(n, typ)
    schema = PARSED_SCHEMA
    for name in batch.column_names:
        if name.startswith("_") and name not in out:
            out[name] = wide[name]
            schema = schema.append(pa.field(name, batch.schema.field(name).type))
    return pa.table(out, schema=schema)


def _segments(fcode: np.ndarray) -> np.ndarray:
    """Contiguous-run segment id of each row."""
    change = np.empty(len(fcode), dtype=bool)
    change[:1] = True
    change[1:] = fcode[1:] != fcode[:-1]
    return np.cumsum(change) - 1


def _check_layout(rows: _Rows, seg: np.ndarray) -> None:
    """Raise unless each file's rows form one run in strictly increasing
    line order (the scan state of a file split into several runs, or
    out of order, is not in one place)."""
    if len(seg) < 2:
        return
    ln = rows.line_no.to_numpy(zero_copy_only=False)
    bad = np.flatnonzero((seg[1:] == seg[:-1]) & (ln[1:] <= ln[:-1])) + 1
    starts = np.flatnonzero(np.diff(seg, prepend=-1))
    repeat = np.ones(len(starts), dtype=bool)
    repeat[np.unique(rows.fcode[starts], return_index=True)[1]] = False
    split = starts[repeat]
    if len(bad) or len(split):
        at = min(bad[:1].tolist() + split[:1].tolist())
        raise ValueError(
            "parse layout violation: a block holds a file's rows in "
            "several runs or out of line order, at doc_id="
            f"{rows.doc_id(at)!r}. fill_mode='batch' needs each "
            "file's rows contiguous and in line order within a block; use "
            "fill_mode='grouped' for arbitrary layouts.")


def _join_multiline(
    rows: _Rows, seg: np.ndarray, mid_head: bool
) -> tuple[_Rows, Optional[pa.Array]]:
    """Fold continuation lines into their anchor event
    (openstack-filters.conf:12-43), segment-local: one event per anchor
    run, message lines joined with newlines, n_tok summed over the
    event (returned, or None when nothing folds), all other columns
    taken from the anchor row.  Same block-contiguity contract as the
    timestamp carry-forward."""
    from .grok import anchor_mask, join_events

    n = len(rows)
    src_np = np.asarray(rows.source)
    anchors = np.ones(n, dtype=bool)
    for family in ("console", "oslofmt"):
        fam = src_np == family
        if fam.any():
            anchors[fam] = anchor_mask(rows.lines.filter(pa.array(fam)),
                                       family)
    if mid_head and not anchors[0]:
        raise ValueError(
            "multiline-join ambiguity: block starts mid-file with a "
            f"continuation row at doc_id={rows.doc_id(0)!r}; "
            "its anchor lives in another block. Use file-aligned row "
            "groups (one read task per file), or fill_mode='grouped'.")
    start = anchors | (np.diff(seg, prepend=-1) != 0)
    starts = np.nonzero(start)[0]
    if len(starts) == n:
        return rows, None
    sums = None
    if rows.block.n_tok is not None:
        ntok = rows.block.n_tok[rows.idx].astype(np.int64)
        sums = pa.array(np.add.reduceat(ntok, starts).astype(np.int32),
                        type=pa.int32())
    return rows.take(starts, lines=join_events(rows.lines, starts)), sums


def _extract_grok_cols(
    lines: pa.Array, src_np: np.ndarray
) -> dict[str, pa.Array]:
    """Per-family grok field extraction scattered back to row order
    (openstack-filters.conf:44-77), with the narrowed patterns that
    capture only the emitted fields (``grok.PARSE_PATTERNS``)."""
    from .grok import PARSE_FIELDS, PARSE_PATTERNS

    n = len(lines)
    cols = {name: pa.nulls(n, pa.string()) for name in PARSE_FIELDS}
    for family, pattern in PARSE_PATTERNS.items():
        fam = src_np == family
        if not fam.any():
            continue
        mask = pa.array(fam)
        hit = pc.extract_regex(lines.filter(mask), pattern=pattern)
        for field in hit.type:
            sub = pc.struct_field(hit, field.name)
            if sub.null_count < len(sub):
                cols[field.name] = pc.replace_with_mask(
                    cols[field.name], mask, sub)
    return cols


def _select(rows: _Rows, cols: dict[str, pa.Array],
            keep: np.ndarray) -> tuple[np.ndarray, dict[str, pa.Array]]:
    """A branch's output: the kept rows' block positions and columns."""
    if keep.all():
        return rows.idx, cols
    m = pa.array(keep)
    return rows.idx[keep], {k: v.filter(m) for k, v in cols.items()}


def _parse_loglines(
    rows: _Rows, cfg: PipelineConfig
) -> tuple[np.ndarray, dict[str, pa.Array]]:
    """The logline_iter + doc_iter + grok-drop path, vectorized."""
    # Does the block start mid-file?  Decided on the first INPUT row: a
    # block holding a file's line 0 holds its whole scan state, whatever
    # the drop rules below remove from the file's head.
    head_fcode, head_line = rows.fcode[0], rows.line_no[0].as_py()
    lines, src = rows.lines, rows.source
    # --- drop rules that do not depend on scan state ---------------------
    keep = np.ones(len(rows), dtype=bool)
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
        rows = rows.take(np.nonzero(keep)[0])

    seg = _segments(rows.fcode)
    _check_layout(rows, seg)
    # the head checks below concern the first kept file only when it is
    # the file the block started in mid-file
    mid_head = (bool(len(rows)) and head_line > 0
                and rows.fcode[0] == head_fcode)

    n_tok = None
    if cfg.multiline_join and len(rows):
        rows, n_tok = _join_multiline(rows, seg, mid_head)
        seg = _segments(rows.fcode)
    lines = rows.lines

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
                f"doc_id={rows.doc_id(0)!r} with unanchored "
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

    cols = {**rows.cols(), "ts": ts, "severity": severity, "message": message}
    if n_tok is not None:
        cols["n_tok"] = n_tok
    if cfg.grok_fields:
        cols.update(_extract_grok_cols(lines, np.asarray(rows.source)))
    # one fused selection: banner drop + empty-message drop
    # (logsender.py:421-424) + optional DEBUG-severity drop
    # (openstack-filters.conf:81-83)
    keep_mask = ~drop_banner
    keep_mask &= _mask(pc.not_equal(message, ""))
    if cfg.drop_debug_severity:
        keep_mask &= _mask(pc.not_equal(severity, "DEBUG"))
    return _select(rows, cols, keep_mask)


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


def _map_payloads(rows: _Rows, cfg: PipelineConfig,
                  fn) -> tuple[_Rows, list]:
    """``fn`` over each payload line of a row-at-a-time JSON branch.

    A line whose ``fn`` raises is a poison row (e.g. a corrupt JSON
    payload): it is dead-lettered when ``cfg.quarantine_dir`` is set,
    else the error fails the task.  The JSON branches are the realistic
    poison vector, so quarantine lives HERE rather than bisecting the
    whole parse UDF (whose logline branch is not row-independent: the
    layout contract would misfire on bisected sub-batches).  Returns the
    good rows and their ``fn`` results.
    """
    results, bad_idx, bad_err = [], [], []
    for i, line in enumerate(rows.lines.to_pylist()):
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
            pa.table({"doc_id": rows.block.doc_id.take(
                          pa.array(rows.idx[bad_idx])),
                      "source": rows.source.take(bad),
                      "payload": rows.lines.take(bad)}),
            bad_err, cfg.quarantine_dir)
        rows = rows.take(np.setdiff1d(np.arange(len(rows)), bad_idx))
    return rows, results


def _parse_performance(
    rows: _Rows, cfg: PipelineConfig
) -> tuple[np.ndarray, dict[str, pa.Array]]:
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

    rows, results = _map_payloads(rows, cfg, one)
    message = extract_messages(rows.lines)  # doc_iter also runs for perf docs
    ts = extract_timestamps(
        pa.array([r[0] for r in results], type=pa.string()), cfg.today_year)
    cols = {
        **rows.cols(),
        "ts": ts.fill_null(cfg.fallback_now),
        "severity": pa.array([SEVERITY_NONE] * len(rows)),
        "message": message,
        "perf_fields": pa.array([r[1] for r in results], type=pa.string()),
    }
    return _select(rows, cols, _mask(pc.not_equal(message, "")))


def _parse_subunit(
    rows: _Rows, cfg: PipelineConfig
) -> tuple[np.ndarray, dict[str, pa.Array]]:
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

    rows, results = _map_payloads(rows, cfg, one)
    names, statuses, durations, ts_list = (
        [r[k] for r in results] for k in range(4))
    return rows.idx, {
        **rows.cols(),
        "ts": pa.array(ts_list, type=pa.timestamp("us")),
        "severity": pa.array([SEVERITY_NONE] * len(rows)),
        "test_name": pa.array(names, type=pa.string()),
        "test_status": pa.array(statuses, type=pa.string()),
        "test_duration": pa.array(durations, type=pa.float64()),
    }


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
        rows = _block_rows(batch, lines)
        # broken files are skipped unread (logsender.py:527-530)
        unbroken = np.ones(len(rows), dtype=bool)
        for name in BROKEN_FILES:
            unbroken &= ~_mask(pc.ends_with(rows.filename, name))
        parts = []
        for mask, fn in (
                (pc.is_in(rows.source, value_set=pa.array(LOGLINE_SOURCES)),
                 _parse_loglines),
                (pc.equal(rows.source, "performance"), _parse_performance),
                (pc.equal(rows.source, "subunit"), _parse_subunit)):
            sel = np.flatnonzero(_mask(mask) & unbroken)
            if len(sel):
                parts.append(fn(rows if len(sel) == len(rows)
                                else rows.take(sel), cfg))
        return _assemble(batch, parts, cfg.received_at)

    return parse
