"""Golden tests for the vectorized kernels vs the row-wise reference
semantics (reference goldens re-expressed from
logscraper/tests/test_logsender.py)."""

import datetime

import pyarrow as pa
import pytest

from ci_log_processing_ray import reference_impl as ref
from ci_log_processing_ray.functions.detok import tokens_to_text
from ci_log_processing_ray.functions.messages import extract_messages, extract_severity
from ci_log_processing_ray.functions.timestamps import extract_timestamps
from ci_log_processing_ray.sources.synth import _encode_tokens

YEAR = 2022

# Goldens from tests/test_logsender.py:1177-1194 (today.year pinned to 2022).
GOLDEN_TS = [
    ("2022-02-28 09:44:58.839036 | Other message",
     datetime.datetime(2022, 2, 28, 9, 44, 58, 839036)),
    ("2022-03-21T08:39:18.220547Z | Last metadata expiration",
     datetime.datetime(2022, 3, 21, 8, 39, 18, 220547)),
    ("Mar 31 04:50:23.795709 nested-virt some log",
     datetime.datetime(YEAR, 3, 31, 4, 50, 23, 795700)),
    ("Mar 21 09:33:23 fedora-rax-dfw-0028920567 sudo[2786]: zuul ",
     datetime.datetime(YEAR, 3, 21, 9, 33, 23)),
    ("2022-03-23T13:09:08.644Z|00040|connmgr|INFO|br-int: added",
     datetime.datetime(2022, 3, 23, 13, 9, 8)),
    ("Friday 25 February 2022  09:27:51 +0000 (0:00:00.056)",
     datetime.datetime(2022, 2, 25, 9, 27, 51)),
    ("no timestamp here", None),
    ("-- Logs begin at Fri 2022-03-25 17:40:37 UTC.", None),
    # try_timestamp replaces year==1900 UNCONDITIONALLY, so an explicit
    # literal 1900 date is bumped to today's year too.
    ("1900-03-25 17:40:37.123456 | msg",
     datetime.datetime(YEAR, 3, 25, 17, 40, 37, 123456)),
    # years outside pandas' datetime64[ns] range still parse (the
    # reference uses datetime.strptime, which has no such limit).
    ("2500-03-25 17:40:37.123456 | msg",
     datetime.datetime(2500, 3, 25, 17, 40, 37, 123456)),
    ("1680-01-02 03:04:05.000001 | msg",
     datetime.datetime(1680, 1, 2, 3, 4, 5, 1)),
    ("1600-01-02 03:04:05.000001 | msg",
     datetime.datetime(1600, 1, 2, 3, 4, 5, 1)),
    ("0001-01-01 00:00:00.0 | msg", datetime.datetime(1, 1, 1)),
    ("9999-12-31 23:59:59.999999 | msg",
     datetime.datetime(9999, 12, 31, 23, 59, 59, 999999)),
    ("0000-03-25 17:40:37.123456 | msg", None),  # year 0 does not exist
    # day-in-month: no Feb 29 without a leap year (yearless is 1900),
    # no Sep 31, and the %A weekday name does not rescue April 31
    ("Feb 29 12:00:00 host x", None),
    ("2023-02-29 12:00:00.1 | msg", None),
    ("2024-02-29 12:00:00.1 | msg", datetime.datetime(2024, 2, 29, 12, 0, 0, 100000)),
    ("2000-02-29 12:00:00.1 | msg", datetime.datetime(2000, 2, 29, 12, 0, 0, 100000)),
    ("2100-02-29 12:00:00.1 | msg", None),
    ("Sep 31 10:00:00 host x", None),
    ("Friday 31 April 2022  09:27:51 +0000", None),
    ("1900-02-28T10:00:00+0000", datetime.datetime(YEAR, 2, 28, 10)),
    # strptime matches format letters without case ...
    ("2022-03-21t08:39:18.220547z | x",
     datetime.datetime(2022, 3, 21, 8, 39, 18, 220547)),
    # ... and Python's \s is str.isspace(), wider than RE2's [\t\n\f\r ]
    ("Mar 21\x0b09:33:23.123456 host x",
     datetime.datetime(YEAR, 3, 21, 9, 33, 23, 123450)),
    ("Mar 21\xa009:33:23.123456 host",
     datetime.datetime(YEAR, 3, 21, 9, 33, 23, 123450)),
    ("Mar 21　09:33:23.123456 host x",
     datetime.datetime(YEAR, 3, 21, 9, 33, 23, 123450)),
    ("Mar 21\x1c09:33:23.123456 host x",
     datetime.datetime(YEAR, 3, 21, 9, 33, 23, 123450)),
    ("2022-03-21 08:39:18.22\x0bx",
     datetime.datetime(2022, 3, 21, 8, 39, 18, 220000)),
    # %Y/%d/%H/%M/%S take Unicode digits (here fullwidth)
    ("２０２２-03-21 08:39:18.22 x",
     datetime.datetime(2022, 3, 21, 8, 39, 18, 220000)),
]


def test_reference_get_timestamp_goldens():
    for line, expected in GOLDEN_TS:
        assert ref.get_timestamp(line, YEAR) == expected, line


def test_vectorized_timestamps_match_reference():
    lines = [line for line, _ in GOLDEN_TS]
    got = extract_timestamps(pa.array(lines), YEAR).to_pylist()
    want = [ref.get_timestamp(line, YEAR) for line in lines]
    assert got == want


def test_extract_timestamps_calls_no_pandas(monkeypatch):
    import pandas as pd

    def forbidden(*args, **kwargs):
        raise AssertionError("pandas.to_datetime on the timestamp path")

    monkeypatch.setattr(pd, "to_datetime", forbidden)
    lines = [line for line, _ in GOLDEN_TS]
    got = extract_timestamps(pa.array(lines), YEAR).to_pylist()
    assert got == [want for _, want in GOLDEN_TS]


def test_vectorized_timestamps_match_reference_on_corpus(corpus_dir):
    import pyarrow.parquet as pq

    _, info = corpus_dir
    table = pq.read_table(info["paths"]["token_sequences"])
    lines = tokens_to_text(table["tokens"])
    got = extract_timestamps(lines, YEAR).to_pylist()
    text = lines.to_pylist()
    want = [ref.get_timestamp(line, YEAR) for line in text]
    mismatches = [
        (text[i], got[i], want[i]) for i in range(len(text)) if got[i] != want[i]
    ]
    assert not mismatches, mismatches[:5]


def test_get_message_goldens():
    # tests/test_logsender.py:1170-1175
    assert ref.get_message("28-02-2022 09:44:58.839036 | Some message") == "Some message"
    assert (ref.get_message("2022-02-28 09:44:58.839036 | Other message | other log info")
            == "Other message | other log info")
    # fallback branch does NOT lstrip
    assert ref.get_message("  raw line no pipe\n") == "  raw line no pipe"
    assert ref.get_message("2022-02-28 09:39:09.596 | ") == ""


def test_messages_keep_newlines_golden():
    """The multiline-joined form keeps the event's newlines; the pipe
    branch still lstrips (newlines included), the other keeps all."""
    got = extract_messages(pa.array(["a\nb|  c\nd", "x\ny", "|\n z", "p||q"]),
                           keep_newlines=True)
    assert got.to_pylist() == ["c\nd", "x\ny", "z", "|q"]


def test_vectorized_messages_match_reference(corpus_dir):
    import pyarrow.parquet as pq

    _, info = corpus_dir
    table = pq.read_table(info["paths"]["token_sequences"])
    lines = tokens_to_text(table["tokens"])
    got = extract_messages(lines).to_pylist()
    want = [ref.get_message(line) for line in lines.to_pylist()]
    assert got == want


def test_vectorized_severity_match_reference(corpus_dir):
    import pyarrow.parquet as pq

    _, info = corpus_dir
    table = pq.read_table(info["paths"]["token_sequences"])
    lines = tokens_to_text(table["tokens"])
    got = extract_severity(lines).to_pylist()
    want = [ref.get_severity(line) for line in lines.to_pylist()]
    assert got == want


def test_detok_roundtrip():
    lines = ["hello world", "", "unicode: é© ok", "| pipe", "a" * 500]
    toks = _encode_tokens(lines)
    assert tokens_to_text(toks).to_pylist() == lines
    # sliced input path
    sliced = toks.slice(1, 3)
    assert tokens_to_text(sliced).to_pylist() == lines[1:4]


def test_detok_rejects_non_byte_tokens():
    arr = pa.array([[72, 105], [999]], type=pa.list_(pa.int32()))
    with pytest.raises(Exception):
        tokens_to_text(arr)


def test_normalize_logdate_all_13_formats():
    """Logstash date-block table (openstack-filters.conf:86-102): every
    format parses, zoned ones convert to UTC, yearless ones take
    today_year, junk stays null."""
    import datetime as dt

    from ci_log_processing_ray.functions.timestamps import normalize_logdate

    cases = [
        ("2024-03-05 12:00:00.123", dt.datetime(2024, 3, 5, 12, 0, 0, 123000)),
        ("2024-03-05 12:00:00.123456", dt.datetime(2024, 3, 5, 12, 0, 0, 123456)),
        ("2024-03-05 12:00:00,123", dt.datetime(2024, 3, 5, 12, 0, 0, 123000)),
        ("2024-03-05 12:00:00", dt.datetime(2024, 3, 5, 12, 0, 0)),
        ("Mar  5 12:00:00", dt.datetime(2024, 3, 5, 12, 0, 0)),
        ("Mar 15 12:00:00", dt.datetime(2024, 3, 15, 12, 0, 0)),
        ("Mar 15 12:00:00.123456", dt.datetime(2024, 3, 15, 12, 0, 0, 123456)),
        # zoned -> UTC
        ("15/Mar/2024:12:00:00 -0700", dt.datetime(2024, 3, 15, 19, 0, 0)),
        ("2024-03-05 12:00:00.123+0530",
         dt.datetime(2024, 3, 5, 6, 30, 0, 123000)),
        ("Mon Mar 15 12:00:00 2024 +0000", dt.datetime(2024, 3, 15, 12, 0)),
        ("Mon Mar 15 12:00:00 2024", dt.datetime(2024, 3, 15, 12, 0)),
        ("2024-03-05T12:00:00.123456Z",
         dt.datetime(2024, 3, 5, 12, 0, 0, 123456)),
        ("2024-03-05T12:00:00+02:00", dt.datetime(2024, 3, 5, 10, 0, 0)),
        # Joda SSS is exactly 3 digits: 1-2 digit fractions fall through
        # the .SSS row but the ISO8601 catch-all still takes them
        ("not a date", None),
        ("", None),
        ("2024-13-05 12:00:00", None),  # month 13 rejected by validator
        ("2023-02-29 12:00:00", None),
        ("15/Mar/2024:12:00:00 +2400", None),  # Joda Z: HH < 24, mm < 60
        ("15/Mar/2024:12:00:00 +0060", None),
        ("15/Mar/2024:12:00:00\t+2359", dt.datetime(2024, 3, 14, 12, 1)),
        # every year datetime holds, not only datetime64[ns]'s 1677-2262
        ("2500-03-05 12:00:00", dt.datetime(2500, 3, 5, 12, 0, 0)),
        ("15/Mar/1500:12:00:00 +0000", dt.datetime(1500, 3, 15, 12, 0)),
        ("2300-01-01T00:00:00Z", dt.datetime(2300, 1, 1)),
        ("1650-01-01T00:00:00", dt.datetime(1650, 1, 1)),
        ("9999-12-31T23:59:59.999999+0000", dt.datetime.max),
        ("01/Jan/0001:00:00:00 +0100", None),  # before datetime.min in UTC
    ]
    out = normalize_logdate(
        pa.array([c[0] for c in cases], pa.string()), 2024).to_pylist()
    for (s, want), got in zip(cases, out):
        assert got == want, (s, got, want)


def test_normalize_logdate_iso8601_offset_stays_on_its_row():
    """Each ISO8601 row parses as if alone: a UTC offset, whole or in a
    row that fails (trailing junk, a zone with seconds), never shifts a
    later row that carries none."""
    import datetime as dt

    from ci_log_processing_ray.functions.timestamps import normalize_logdate

    for texts, want in (
        (["2024-03-05T12:00:00+02:00", "2000-10-06 10:06:34.0811"],
         [dt.datetime(2024, 3, 5, 10, 0),
          dt.datetime(2000, 10, 6, 10, 6, 34, 81100)]),
        (["2024-03-05T12:00:00+02:00 junk", "2000-10-06 10:06:34.0811"],
         [None, dt.datetime(2000, 10, 6, 10, 6, 34, 81100)]),
        (["2021-07-09T13:45:27+05:30:00", "2020-02-29T00:00"],
         [None, dt.datetime(2020, 2, 29)]),
    ):
        got = normalize_logdate(pa.array(texts), 2024)
        assert got.to_pylist() == want, texts
