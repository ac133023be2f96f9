"""Vectorized first-match-wins timestamp extraction.

Re-expresses the reference's 6-pattern table scan
(timestamp_patterns + try_timestamp + get_timestamp,
logsender.py:332-365) as progressive narrowing over a string column.
A pattern resolves a line when its capture matches and the strptime
grammar of its format fullmatches the capture:

  for each pattern in priority order, on the rows still unresolved:
      ASCII lines, exact patterns (1, 2, 4, 5): ONE group-free DFA
         pass over the line itself (pc.match_substring_regex) with the
         pattern's line form, then one named-group extract of the
         fields on the hits only, then integer microseconds assembled
         in numpy (days-from-civil, day-in-month check)
      ASCII lines, patterns 3 and 6: a group-free superset prefilter
         on the line, then the capture path on its hits
      non-ASCII lines: the capture path
      -> resolved rows leave the pending set

  capture path: anchored RE2 capture (pc.extract_regex); an ASCII
      capture goes through the same DFA + extract + assemble with the
      grammar, a non-ASCII one to datetime.strptime row by row

A line form is "the capture matches and the grammar fullmatches it"
restated on the line.  Captures 1, 2 and 4 are ``\\S+`` runs joined by
single spaces, so the line form is the grammar with those spaces
literal, followed by Python whitespace or the end of the line.
Capture 5 is the first 19 characters of ``[0-9-T:]``, and 19 characters
fullmatch its grammar only with every field at its full width, which
is its line form.  Captures 3 and 6 end in fixed-width character
classes the grammar splits differently; they keep capture + grammar.

Each grammar is the regex CPython's ``_strptime`` compiles for ``fmt``
on ASCII input: the same component alternations, format whitespace as
``\\s+`` over Python's whitespace set, literal letters matched without
case.  Unicode digits and Unicode case folding are CPython's alone, so
a capture that is not ASCII goes to ``datetime.strptime`` itself; that
residue is the only per-row Python.  A block whose data buffer holds no
byte >= 0x80 (one max, ``functions.detok.non_ascii_rows``) has no
residue and skips the per-row ASCII test.  int64 microseconds cover
years 0001-9999, the whole ``datetime`` range.

Pattern order is semantic (the greedy syslog fallback at
logsender.py:341 matches almost anything); most real lines resolve at
pattern 1 or 2, so later (%A/%B named) patterns only ever see the
residue.  The year-1900 patch (logsender.py:354-356) substitutes
``today_year`` after the day-in-month check: 1900 is not a leap year,
so a valid 1900 date is valid in every year, as
``datetime.replace(year=...)`` requires.
"""

from __future__ import annotations

import datetime
import re
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .detok import non_ascii_rows

# Python's \s in str patterns and str.isspace() (29 code points); RE2's
# \s is only [\t\n\f\r ].  _WS stands for \s, _NWS for \S.
_WS_SET = (r"\t-\r\x{1c}-\x{1f} \x{85}\x{a0}\x{1680}\x{2000}-\x{200a}"
           r"\x{2028}\x{2029}\x{202f}\x{205f}\x{3000}")
_WS = f"[{_WS_SET}]"
_NWS = f"[^{_WS_SET}]"

# CPython TimeRE components (_strptime.py), one named group per field.
# Seconds cap at 59 because datetime.strptime (unlike time.strptime)
# rejects 60/61.  %d's extra " [1-9]" alternative is left out: in these
# tables %d follows either a \s+ run, which already absorbs the space,
# or a '-' inside a whitespace-free capture.
_Y = r"(?P<Y>\d{4})"
_MO = r"(?P<m>1[0-2]|0[1-9]|[1-9])"
_D = r"(?P<d>3[01]|[12]\d|0[1-9]|[1-9])"
_H = r"(?P<H>2[0-3]|[01]\d|\d)"
_M = r"(?P<M>[0-5]\d|\d)"
_S = r"(?P<S>[0-5]\d|\d)"
_F = r"(?P<f>[0-9]{1,6})"
_HMS = f"{_H}:{_M}:{_S}"
_MONTHS = ["january", "february", "march", "april", "may", "june", "july",
           "august", "september", "october", "november", "december"]
_B3 = "(?P<b>(?i:" + "|".join(m[:3] for m in _MONTHS) + "))"
_BFULL = "(?P<B>(?i:" + "|".join(_MONTHS) + "))"
_WEEKDAYS = ["monday", "tuesday", "wednesday", "thursday", "friday",
             "saturday", "sunday"]
# %A/%a are checked by name and then ignored, as CPython does once the
# year, month and day are known.
_AFULL = "(?i:" + "|".join(_WEEKDAYS) + ")"
_A3 = "(?i:" + "|".join(w[:3] for w in _WEEKDAYS) + ")"
_T, _Z = "(?i:T)", "(?i:Z)"
_SP = f"{_WS}+"

_END = f"(?:{_WS}|$)"  # where a \S run ends


class _Pattern(NamedTuple):
    capture: str  # anchored RE2 capture, group "g"
    fmt: str      # strptime format
    grammar: str  # named-group grammar of the capture
    line: str     # the line form: exact, or a superset prefilter
    exact: bool   # line form matches <=> grammar fullmatches capture


def _on_line(grammar: str) -> str:
    """The line form of a grammar over ``\\S+`` runs joined by single
    spaces: those spaces literal, then the end of the last run."""
    return grammar[:-1].replace(_SP, " ") + _END


_G1 = rf"^{_Y}-{_MO}-{_D}{_T}{_HMS}\.{_F}{_Z}$"
_G2 = rf"^{_Y}-{_MO}-{_D}{_SP}{_HMS}\.{_F}$"
_G3 = rf"^{_B3}{_SP}{_D}{_SP}{_HMS}\.{_F}$"
_G4 = rf"^{_B3}{_SP}{_D}{_SP}{_HMS}$"
_G5 = rf"^{_Y}-{_MO}-{_D}{_T}{_HMS}$"
_G6 = rf"^{_AFULL}{_SP}{_D}{_SP}{_BFULL}{_SP}{_Y}{_SP}{_HMS}$"
# The capture/format pairs are the parse spec of logsender.py:332-346.
PATTERNS: list[_Pattern] = [
    _Pattern(rf"^(?P<g>{_NWS}+)", "%Y-%m-%dT%H:%M:%S.%fZ", _G1,
             _on_line(_G1), True),
    _Pattern(rf"^(?P<g>{_NWS}+ {_NWS}+)", "%Y-%m-%d %H:%M:%S.%f", _G2,
             _on_line(_G2), True),
    _Pattern(rf"^(?P<g>{_NWS}+ [0-9]{{2}}{_WS}[0-9:.]{{14}})",
             "%b %d %H:%M:%S.%f", _G3,
             rf"^{_B3} [0-9]{{2}}{_WS}[0-9:.]{{14}}", False),
    _Pattern(rf"^(?P<g>{_NWS}+ {_NWS}+ {_NWS}+)", "%b %d %H:%M:%S", _G4,
             _on_line(_G4), True),
    # 19 characters of [0-9-T:]: every field at its full width
    _Pattern(r"^(?P<g>[0-9-T:]{19})", "%Y-%m-%dT%H:%M:%S", _G5,
             r"^(?P<Y>\d{4})-(?P<m>1[0-2]|0[1-9])-(?P<d>3[01]|[12]\d|0[1-9])"
             r"T(?P<H>2[0-3]|[01]\d):(?P<M>[0-5]\d):(?P<S>[0-5]\d)", True),
    _Pattern(rf"^(?P<g>{_NWS}+ [0-9]{{2}} {_NWS}+ [0-9: ]{{14}})",
             "%A %d %B %Y %H:%M:%S", _G6,
             rf"^{_AFULL} [0-9]{{2}} {_BFULL} [0-9: ]{{14}}", False),
]

# The logstash date block (openstack-filters.conf:86-102) accepts 13
# Joda formats on the grok-extracted ``logdate``; re-expressed as
# (named-group grammar, year-1900 patch) with the Joda/strptime format
# as a comment.  Joda token widths are exact (SSS = three digits,
# Z = [+-]HHMM with HH < 24 and MM < 60); whitespace runs (RE2 \s)
# stand for each format space, so "MMM  d" and "MMM dd" share one row.
# Order preserved from the conf.
_LS = r"\s+"
_ZH = r"(?P<zs>[+-])(?P<zh>[01]\d|2[0-3])"
_TZ = rf"{_ZH}(?P<zm>[0-5]\d)"
_YMD_HMS = f"{_Y}-{_MO}-{_D}{_LS}{_HMS}"
# ISO8601 as pandas reads it: YYYY[-MM[-DD[(T|ws)HH[:MM[:SS[.fraction]]]
# [ws][Z|±HH[[:]MM]][ws]]]] after optional whitespace; fraction digits
# past the sixth are dropped.
_ISO_TIME = rf"{_H}(?::{_M}(?::{_S}(?:\.(?P<f>\d{{1,6}})\d*)?)?)?"
_ISO_ZONE = rf"(?:Z|{_ZH}(?::?(?P<zm>[0-5]\d))?)?"
_ISO = (rf"^\s*{_Y}(?:-{_MO}(?:-{_D}"
        rf"(?:(?:T|{_LS}){_ISO_TIME}\s*{_ISO_ZONE}\s*)?)?)?$")
LOGSTASH_DATE_FORMATS: list[tuple[str, bool]] = [
    (rf"^{_YMD_HMS}\.(?P<f>\d{{3}})$", True),           # yyyy-MM-dd HH:mm:ss.SSS
    (rf"^{_YMD_HMS}\.(?P<f>\d{{6}})$", True),           # ... .SSSSSS
    (rf"^{_YMD_HMS},(?P<f>\d{{3}})$", True),            # ... ,SSS
    (rf"^{_YMD_HMS}$", True),                           # yyyy-MM-dd HH:mm:ss
    (rf"^{_B3}{_LS}{_D}{_LS}{_HMS}$", True),            # MMM [ d|dd] HH:mm:ss
    (rf"^{_B3}{_LS}{_D}{_LS}{_HMS}\.(?P<f>\d{{6}})$",
     True),                                             # MMM dd HH:mm:ss.SSSSSS
    (rf"^{_D}/{_B3}/{_Y}:{_HMS}{_LS}{_TZ}$", False),    # dd/MMM/yyyy:HH:mm:ss Z
    (rf"^{_YMD_HMS}\.(?P<f>\d{{3}}){_TZ}$", False),     # yyyy-MM-dd HH:mm:ss.SSSZ
    (rf"^{_A3}{_LS}{_B3}{_LS}{_D}{_LS}{_HMS}{_LS}{_Y}{_LS}{_TZ}$",
     False),                                            # E MMM dd HH:mm:ss yyyy Z
    (rf"^{_A3}{_LS}{_B3}{_LS}{_D}{_LS}{_HMS}{_LS}{_Y}$",
     True),                                             # E MMM dd HH:mm:ss yyyy
    (_ISO, False),                                      # ISO8601 catch-all
]

_ABBR = pa.array([m[:3] for m in _MONTHS])
_FULL = pa.array(_MONTHS)
# index 0 is the "unknown month" slot: no day is <= 0, so it rejects.
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_EPOCH = datetime.datetime(1970, 1, 1)
_ONE_US = datetime.timedelta(microseconds=1)
_MIN_US = (datetime.datetime.min - _EPOCH) // _ONE_US
_MAX_US = (datetime.datetime.max - _EPOCH) // _ONE_US
_GROUP = re.compile(r"\(\?P<\w+>")


def _days_from_civil(y: np.ndarray, m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Days since 1970-01-01 of the proleptic Gregorian (y, m, d)
    (H. Hinnant's days_from_civil)."""
    y = y - (m <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((m + 9) % 12) + 2) // 5 + d - 1
    return era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468


def _assemble(fields: pa.StructArray, today_year: int | None,
              blanks: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Named-group captures -> (µs since the epoch, valid).

    A missing Y is 1900, as in CPython; when ``today_year`` is given,
    year 1900 becomes ``today_year`` after the day-in-month check.
    With ``blanks``, a group that took no part in the match (extracted
    as "") is absent too: month and day 1, other fields 0, no offset."""
    col = dict(zip((f.name for f in fields.type), fields.flatten()))

    def num(name: str, absent: int = 0) -> np.ndarray | int:
        if name not in col:
            return absent
        c = col[name]
        if blanks:
            c = pc.utf8_lpad(c, 1, str(absent))
        return pc.cast(c, pa.int64()).to_numpy()

    def month(name: str, table: pa.Array) -> np.ndarray:
        idx = pc.index_in(pc.utf8_lower(col[name]), value_set=table)
        return pc.fill_null(idx, -1).to_numpy().astype(np.int64) + 1

    y = (pc.cast(col["Y"], pa.int64()).to_numpy() if "Y" in col
         else np.full(len(fields), 1900))
    m = (num("m", 1) if "m" in col else month("b", _ABBR) if "b" in col
         else month("B", _FULL))
    d = num("d", 1)
    frac = (pc.cast(pc.utf8_rpad(col["f"], 6, "0"), pa.int64()).to_numpy()
            if "f" in col else 0)
    leap = (y % 4 == 0) & ((y % 100 != 0) | (y % 400 == 0))
    ok = (y >= 1) & (d <= _DAYS_IN_MONTH[m] + (leap & (m == 2)))
    if today_year is not None:
        y = np.where(y == 1900, today_year, y)
    secs = ((_days_from_civil(y, m, d) * 24 + num("H")) * 60
            + num("M")) * 60 + num("S")
    us = secs * 1_000_000 + frac
    if "zs" in col:
        sign = np.where(pc.equal(col["zs"], "-")
                        .to_numpy(zero_copy_only=False), -1, 1)
        us = us - sign * (num("zh") * 60 + num("zm")) * 60_000_000
        ok &= (us >= _MIN_US) & (us <= _MAX_US)
    return us, ok


def _parse_fields(cap: pa.Array, grammar: str, today_year: int | None,
                  only: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``cap`` that fully match ``grammar`` (and ``only``) ->
    (hit mask, µs).  A group-free copy of the grammar runs first as a
    DFA prefilter; the named-group extract runs on its matches only.
    Only a grammar with an optional part (``)?``) can leave a group
    blank, so only such a grammar pays for reading blanks as absent."""
    ok = pc.fill_null(pc.match_substring_regex(
        cap, pattern=_GROUP.sub("(?:", grammar)), False)
    ok = ok.to_numpy(zero_copy_only=False)
    idx = np.flatnonzero(ok if only is None else ok & only)
    hit = np.zeros(len(cap), dtype=bool)
    us = np.zeros(len(cap), dtype=np.int64)
    if len(idx):
        sub_us, valid = _assemble(
            pc.extract_regex(cap.take(idx), pattern=grammar), today_year,
            blanks=")?" in grammar)
        hit[idx] = valid
        us[idx] = sub_us
    return hit, us


def normalize_logdate(
    logdate: pa.Array | pa.ChunkedArray, today_year: int
) -> pa.Array:
    """Logstash ``date``-filter normalization of grok ``logdate`` values
    (openstack-filters.conf:86-102): first matching format wins, zoned
    formats convert to UTC, zoneless ones are taken AS UTC
    (``timezone => "UTC"``), and yearless formats get ``today_year``
    (the same year-patch convention as the logsender table).  Returns
    timestamp[us] naive UTC; null where no format matches (logstash
    would tag _dateparsefailure and keep @timestamp).

    Same progressive narrowing and field kernel as
    :func:`extract_timestamps`; the grammars stand in for Joda's
    exact-width tokens, and the ISO8601 catch-all is one more grammar
    row, tried on the rows every other format rejected."""
    if isinstance(logdate, pa.ChunkedArray):
        logdate = logdate.combine_chunks()
    n = len(logdate)
    us = np.zeros(n, dtype=np.int64)
    hit = np.zeros(n, dtype=bool)
    pending_idx = np.arange(n)
    cur = logdate
    for grammar, patch_year in LOGSTASH_DATE_FORMATS:
        if len(pending_idx) == 0:
            break
        got, got_us = _parse_fields(
            cur, grammar, today_year if patch_year else None)
        if got.any():
            us[pending_idx[got]] = got_us[got]
            hit[pending_idx[got]] = True
            keep = ~got
            pending_idx = pending_idx[keep]
            cur = cur.filter(pa.array(keep))
    return pa.array(us, type=pa.timestamp("us"), mask=~hit)


def _by_capture(lines: pa.Array, p: _Pattern, today_year: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """(hit mask, µs) of ``p`` on ``lines`` through its capture: the
    grammar on ASCII captures, CPython's own strptime on the others
    (Unicode digits, case folding and whitespace by construction)."""
    cap = pc.struct_field(pc.extract_regex(lines, pattern=p.capture), "g")
    if cap.null_count == len(cap):
        return np.zeros(len(cap), dtype=bool), np.zeros(len(cap), np.int64)
    ascii_ = pc.fill_null(pc.string_is_ascii(cap), True).to_numpy(
        zero_copy_only=False)
    got, got_us = _parse_fields(cap, p.grammar, today_year, ascii_)
    for i in np.flatnonzero(~ascii_):
        try:
            d = datetime.datetime.strptime(cap[i].as_py(), p.fmt)
            if d.year == 1900:
                d = d.replace(year=today_year)
        except ValueError:
            continue
        got[i] = True
        got_us[i] = (d - _EPOCH) // _ONE_US
    return got, got_us


def extract_timestamps(lines: pa.Array | pa.ChunkedArray, today_year: int) -> pa.Array:
    """Extract per-line timestamps; null where no pattern matches.

    Returns timestamp[us] (naive UTC, matching the reference's naive
    datetimes and DuckDB's default).
    """
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    n = len(lines)
    us = np.zeros(n, dtype=np.int64)
    hit = np.zeros(n, dtype=bool)
    pending_idx = np.arange(n)
    cur = lines
    wide = non_ascii_rows(lines)  # None: every line is ASCII
    for p in PATTERNS:
        if len(pending_idx) == 0:
            break
        if p.exact:
            got, got_us = _parse_fields(
                cur, p.line, today_year, None if wide is None else ~wide)
            by_cap = wide
        else:
            got = np.zeros(len(cur), dtype=bool)
            got_us = np.zeros(len(cur), dtype=np.int64)
            by_cap = pc.fill_null(pc.match_substring_regex(
                cur, pattern=_GROUP.sub("(?:", p.line)), False).to_numpy(
                    zero_copy_only=False)
            if wide is not None:
                by_cap |= wide
        if by_cap is not None and by_cap.any():
            idx = np.flatnonzero(by_cap)
            got[idx], got_us[idx] = _by_capture(cur.take(idx), p, today_year)
        if got.any():
            us[pending_idx[got]] = got_us[got]
            hit[pending_idx[got]] = True
            keep = ~got
            pending_idx = pending_idx[keep]
            cur = cur.filter(pa.array(keep))
            if wide is not None:
                wide = wide[keep]
    return pa.array(us, type=pa.timestamp("us"), mask=~hit)
