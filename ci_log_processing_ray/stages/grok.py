"""Grok-side semantics of the reference's logstash/opensearch filter
chain (openstack-filters.conf): multiline event joining and structured
field extraction.

The reference splits responsibilities: logsender ships one doc per
line; the logstash filter config then (a) JOINS continuation lines
into their anchor event (multiline, openstack-filters.conf:12-43) and
(b) extracts ``logdate / loglevel / module / pid / syslog_program /
syslog_pid / logmessage`` via grok (conf:44-77).  Both are re-expressed
here as vectorized Arrow kernels:

* ``anchor_mask`` -- which lines START a new event, per family:
  - console (conf:12-23): an event starts at ``^TIMESTAMP_ISO8601 |``
    (negate=true, what=previous -- every non-matching line joins the
    previous event);
  - oslofmt (conf:24-43): two stacked multiline filters; the row-level
    equivalent is "starts with a timestamp AND is not a
    ``TS  PID (TRACE|ERROR)`` continuation" (the NUMBER requirement is
    what keeps plain ERROR messages from folding -- conf:35-39).
* ``join_events`` -- the one join kernel: lines and event start rows
  -> newline-joined messages, a single ``pc.binary_join`` over a list
  view of the lines.
* ``join_runs`` -- segment-local join over rows in (file, line) order;
  ``multiline_join`` runs it per bucket behind one bucketed exchange
  for arbitrary layouts, on Arrow blocks end to end.  The parse
  stage's join (``stages/parse.py:_join_multiline``) calls
  ``join_events`` too and follows the same layout contract as its
  timestamp carry-forward.
* ``extract_grok_fields`` -- per-family RE2 re-expressions of the grok
  patterns (the regexes are the parse SPEC restated, not copied code;
  grok's Oniguruma ``(?m)`` means dot-matches-newline, hence ``(?s)``
  here so logmessage spans joined lines).
* ``PARSE_PATTERNS`` -- the parse stage's narrowing of the same
  patterns (``stages/parse.py:_extract_grok_cols``).  The parse emits
  six fields (``PARSE_FIELDS``), never logdate or logmessage, so only
  those six groups capture, and each pattern is cut where its last
  emitted group is decided (``(?:\\s|$)``, ``\\]``, ``\\s*:``, ``:? ``):
  the logmessage tail it drops matches any rest of the event, so the
  narrowed pattern matches the same events with the same six groups,
  and RE2's submatch pass no longer walks every event to its end.
  Families that emit none of the six (console, apachecombined) are
  skipped.  ``extract_grok_fields`` keeps the full patterns and output.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

# --- grok pattern building blocks, RE2 form ------------------------------
_TS_ISO = r"\d{4}-\d{2}-\d{2}[T ]\d{2}:?\d{2}(?::?\d{2}(?:[.,]\d+)?)?(?:Z|[+-]\d{2}:?\d{2})?"
_MONTH = (r"(?:Jan(?:uary)?|Feb(?:ruary)?|Mar(?:ch)?|Apr(?:il)?|May|"
          r"Jun(?:e)?|Jul(?:y)?|Aug(?:ust)?|Sep(?:tember)?|Oct(?:ober)?|"
          r"Nov(?:ember)?|Dec(?:ember)?)")
_TS_SYSLOG = rf"{_MONTH} +\d{{1,2}} \d{{2}}:\d{{2}}:\d{{2}}"
_NUMBER = r"[+-]?\d+(?:\.\d+)?"
_LOGLEVEL = (r"(?:[Aa]lert|ALERT|[Tt]race|TRACE|[Dd]ebug|DEBUG|[Nn]otice|"
             r"NOTICE|[Ii]nfo|INFO|[Ww]arn?(?:ing)?|WARN?(?:ING)?|"
             r"[Ee]rr?(?:or)?|ERR?(?:OR)?|[Cc]rit(?:ical)?|CRIT(?:ICAL)?|"
             r"[Ff]atal|FATAL|[Ss]evere|SEVERE|EMERG(?:ENCY)?|"
             r"[Ee]merg(?:ency)?)")
_DAY = r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun)(?:day|sday|nesday|rsday|urday)?"

# multiline anchor patterns (conf:15, :27, :40)
CONSOLE_ANCHOR = rf"^{_TS_ISO} \|"
OSLOFMT_TS = rf"^(?:{_TS_ISO}|{_TS_SYSLOG}) "
OSLOFMT_TRACE_CONT = (rf"^(?:{_TS_ISO}|{_TS_SYSLOG})\s+{_NUMBER}"
                      rf"\s+(?:TRACE|ERROR)")

# per-family grok field patterns (conf:21, :47, :60, :66, :73)
GROK_PATTERNS: dict[str, str] = {
    "console": rf"(?s)^(?P<logdate>{_TS_ISO}) \| (?P<logmessage>.*)$",
    "oslofmt": (
        rf"(?s)^(?P<logdate>{_TS_ISO}|{_TS_SYSLOG})\s*"
        rf"(?:(?P<syslog_program>.*?)(?:\[(?P<syslog_pid>[1-9]\d*)\])?:|"
        rf"(?P<pid>{_NUMBER}))?\s?"
        rf"(?P<loglevel>AUDIT|CRITICAL|DEBUG|INFO|TRACE|WARNING|ERROR) "
        rf"\[?\b(?P<module>\S+?)\]?(?:\s(?P<logmessage>.*))?$"),
    "apacheerror": (
        rf"(?s)\[(?P<logdate>{_DAY} {_MONTH} \d{{1,2}} "
        rf"\d{{2}}:\d{{2}}:\d{{2}}(?:\.\d+)? \d{{4}}\s*"
        rf"(?:[A-Z]{{1,4}}|[+-]\d{{4}})?)\]\s*"
        rf"\[(?P<loglevel>{_LOGLEVEL})\]\s*(?P<logmessage>.*)$"),
    "libvirt": (
        rf"(?s)^(?P<logdate>{_TS_ISO}):\s*(?P<pid>{_NUMBER}):\s*"
        rf"(?P<loglevel>{_LOGLEVEL})\s*:\s*(?P<logmessage>.*)$"),
    "syslog": (
        rf"(?s)^(?P<logdate>{_TS_SYSLOG})\s*"
        rf"(?P<syslog_host>[\w.:-]+)?\s*"
        rf"(?P<syslog_program>.*?)(?:\[(?P<syslog_pid>[1-9]\d*)\])?:? "
        rf"(?P<logmessage>.*)$"),
    # %{COMBINEDAPACHELOG} (openstack-filters.conf:51-56): the conf maps
    # logdate = %{timestamp} (HTTPDATE) and composes
    # logmessage = "%{verb} %{request} %{response}" via add_field --
    # the composition happens in extract_grok_fields below.  A quoted
    # request without the "VERB path [HTTP/v]" shape falls to the
    # rawrequest branch (verb/request stay null, exactly like grok).
    "apachecombined": (
        rf"^(?P<clientip>\S+) (?P<ident>\S+) (?P<auth>\S+) "
        rf"\[(?P<logdate>\d{{1,2}}/{_MONTH}/\d{{4}}:"
        rf"\d{{2}}:\d{{2}}:\d{{2}}(?:\.\d+)? [+-]?\d+)\] "
        rf"\"(?:(?P<verb>\w+) (?P<request>\S+)"
        rf"(?: HTTP/(?P<httpversion>[\d.]+))?|(?P<rawrequest>[^\"]*))\" "
        rf"(?P<response>\d+) (?:(?P<bytes>\d+)|-) "
        rf"\"(?P<referrer>[^\"]*)\" \"(?P<agent>[^\"]*)\"\s*$"),
}

GROK_FIELDS = ("logdate", "syslog_program", "syslog_pid", "pid",
               "loglevel", "module", "logmessage", "syslog_host")

# The fields the parse stage emits: the filter chain drops logdate and
# logmessage once used (openstack-filters.conf:105-107).
PARSE_FIELDS = ("module", "pid", "syslog_program", "syslog_pid",
                "syslog_host", "loglevel")

_NAMED = re.compile(r"\(\?P<(\w+)>")
# (tail, replacement): each tail ends in a logmessage ``(?s).*`` that
# matches whatever is left of the event, so only its head decides
_TAILS = ((r"(?:\s(?P<logmessage>.*))?$", r"(?:\s|$)"),
          (r"\s*(?P<logmessage>.*)$", ""),
          (r"(?P<logmessage>.*)$", ""))


def _narrow(pattern: str, keep: tuple[str, ...]) -> str | None:
    """``pattern`` capturing only the ``keep`` groups and cut where its
    last kept group is decided, or None if it captures none of them.
    The narrowed pattern matches the same events, with the same kept
    groups, and RE2's submatch pass stops at the cut instead of walking
    the logmessage to the end of the event."""
    if not set(_NAMED.findall(pattern)) & set(keep):
        return None
    for tail, end in _TAILS:
        if pattern.endswith(tail):
            pattern = pattern[:-len(tail)] + end
            break
    else:
        raise ValueError(f"no logmessage tail to cut in {pattern!r}")
    return _NAMED.sub(
        lambda m: m.group(0) if m.group(1) in keep else "(?:", pattern)


# the parse path's patterns: families that capture none of
# PARSE_FIELDS (console, apachecombined) have none
PARSE_PATTERNS: dict[str, str] = {
    family: narrowed for family, pattern in GROK_PATTERNS.items()
    if (narrowed := _narrow(pattern, PARSE_FIELDS)) is not None}

# extra columns only the apachecombined family produces
APACHE_FIELDS = ("clientip", "ident", "auth", "verb", "request",
                 "httpversion", "rawrequest", "response", "bytes",
                 "referrer", "agent")


def anchor_mask(lines: pa.Array | pa.ChunkedArray, family: str) -> np.ndarray:
    """True where a line STARTS a new event under the family's multiline
    rules; families without a multiline filter anchor every line."""
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    if family in ("console", "console.html"):
        m = pc.match_substring_regex(lines, CONSOLE_ANCHOR)
        return pc.fill_null(m, False).to_numpy(zero_copy_only=False)
    if family == "oslofmt":
        has_ts = pc.fill_null(
            pc.match_substring_regex(lines, OSLOFMT_TS), False)
        cont = pc.fill_null(
            pc.match_substring_regex(lines, OSLOFMT_TRACE_CONT), False)
        return pc.and_(has_ts, pc.invert(cont)).to_numpy(
            zero_copy_only=False)
    return np.ones(len(lines), dtype=bool)


def join_events(lines: pa.Array, starts: np.ndarray) -> pa.Array:
    """Newline-join each event's lines in one Arrow kernel call.  Event
    ``k`` is ``lines[starts[k]:starts[k + 1]]``; ``starts`` is sorted
    and begins at 0 (when ``lines`` is non-empty)."""
    offsets = np.append(starts, len(lines)).astype(np.int32)
    return pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offsets), lines), "\n")


def join_runs(file_ids: np.ndarray, anchors: np.ndarray,
              lines: pa.Array | list[str]) -> pa.Table:
    """Segment-local multiline join over rows already in (file, line)
    order with files contiguous.  Event starts at an anchor OR at the
    first row of its file (logstash's what=previous: a leading
    continuation run becomes its own event).  Returns
    (file_id, line_idx, n_lines, message), one row per event."""
    if not isinstance(lines, pa.Array):
        lines = pa.array(lines, type=pa.string())
    new_file = np.empty(len(lines), dtype=bool)
    new_file[:1] = True
    new_file[1:] = file_ids[1:] != file_ids[:-1]
    starts = np.flatnonzero(anchors | new_file)
    return pa.table({
        "file_id": file_ids[starts],
        "line_idx": starts.astype(np.int64),
        "n_lines": np.diff(starts, append=len(lines)).astype(np.int64),
        "message": join_events(lines, starts),
    })


def multiline_join(
    ds: ray.data.Dataset,
    *,
    file_col: str,
    order_col: str,
    line_col: str,
    family: str = "console",
) -> ray.data.Dataset:
    """Distributed multiline join for ARBITRARY layouts: one bucketed
    exchange on hash(file) (``ops/window.py:bucketed_groups``), a
    stable per-bucket sort by (file, order), then the segment-local
    vectorized join, all on Arrow blocks.  Partitioning assumption: one
    file's lines fit in one bucket.  Returns (file_id, anchor_ord,
    n_lines, message)."""
    from ..ops.window import bucketed_groups

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(
            t, sort_keys=[(file_col, "ascending"), (order_col, "ascending")]))
        lines = t[line_col].combine_chunks()
        out = join_runs(
            t[file_col].combine_chunks().to_numpy(zero_copy_only=False),
            anchor_mask(lines, family), lines)
        return pa.table({
            "file_id": out["file_id"],
            "anchor_ord": t[order_col].take(out["line_idx"]),
            "n_lines": out["n_lines"],
            "message": out["message"],
        })

    return bucketed_groups(ds, file_col, per_bucket,
                           kernel_format="pyarrow")


def extract_grok_fields(
    lines: pa.Array | pa.ChunkedArray, family: str
) -> dict[str, pa.Array]:
    """Vectorized grok field extraction for one family; returns the
    GROK_FIELDS columns (null where the line does not match -- logstash
    tags those docs _grokparsefailure and leaves fields unset)."""
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    n = len(lines)
    pattern = GROK_PATTERNS.get(family)
    fields = GROK_FIELDS + (APACHE_FIELDS if family == "apachecombined"
                            else ())
    out = {f: pa.nulls(n, pa.string()) for f in fields}
    if pattern is None or n == 0:
        return out
    hit = pc.extract_regex(lines, pattern=pattern)
    present = {f.name for f in hit.type} if n else set()
    for f in fields:
        if f in present:
            out[f] = pc.struct_field(hit, f)
    if family == "apachecombined":
        # conf:55 add_field: logmessage = "%{verb} %{request} %{response}"
        # (null when the rawrequest branch matched -- logstash would
        # leave the sprintf unresolved there; we surface null instead.
        # Non-participating groups extract as EMPTY STRING, the
        # established convention of the other families' oracles.)
        joined = pc.binary_join_element_wise(
            out["verb"], out["request"], out["response"], " ")
        out["logmessage"] = pc.if_else(
            pc.equal(out["verb"], ""), pa.nulls(n, pa.string()), joined)
    return out


def grok_parse_failure(lines: pa.Array | pa.ChunkedArray,
                       family: str) -> pa.Array:
    """True where grok would tag _grokparsefailure (no match)."""
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    pattern = GROK_PATTERNS.get(family)
    if pattern is None:
        return pa.array(np.zeros(len(lines), dtype=bool))
    return pc.invert(pc.fill_null(
        pc.match_substring_regex(lines, pattern), False))
