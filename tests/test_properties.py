"""Property-based parity: for ARBITRARY lines, the vectorized Arrow
kernels must agree with the row-at-a-time reference semantics
(reference_impl mirrors logsender.py exactly).  Catches regex-ordering
and edge-case drift that golden fixtures cannot."""

import datetime

import numpy as np
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ci_log_processing_ray import reference_impl as ref
from ci_log_processing_ray.functions.messages import (
    extract_messages,
    extract_severity,
)
from ci_log_processing_ray.functions.timestamps import extract_timestamps

# str.isspace() / Python re's \s: what strptime's format whitespace and
# the reference's \s/\S capture classes use (RE2's \s is narrower)
PY_WS = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
         + "".join(map(chr, range(0x2000, 0x200B)))
         + "\u2028\u2029\u202f\u205f\u3000")
assert len(PY_WS) == 29 and PY_WS.isspace()

# printable-ish lines, biased toward timestamp-like and pipe-y shapes
line_st = st.one_of(
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=120),
    st.builds(
        lambda date, sep, frac, tail: f"{date}{sep}{frac} | {tail}",
        st.sampled_from(["2022-03-25T17:40:37", "2022-03-25 17:40:37",
                         "Mar 25 17:40:37", "Friday 25 March 2022 17:40:37",
                         "Mar 25 17:40:37.123", "not a date",
                         "2022-03-25t17:40:37", "mAR 25 17:40:37",
                         "２０２２-03-25 17:40:37", "2022-03-２５T17:40:37",
                         "Mar 25\x0b17:40:37", "Mar\xa025 17:40:37",
                         "Mar 25\u300017:40:37", "2022-03-25\x1c17:40:37"]),
        st.sampled_from([".", " ", "", "\x0b", "\u3000"]),
        st.sampled_from(["123456", "999999", "0", "", "123456Z",
                         "123456z", "１２"]),
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=40),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(line_st, min_size=1, max_size=20))
@example(["2022-03-21t08:39:18.220547z | x"])
@example(["Mar 21\x0b09:33:23.123456 host x", "2022-03-21 08:39:18.22\x0bx"])
@example(["２０２２-03-21 08:39:18.22 x"])
# one block of ASCII and non-ASCII lines: the line forms and the capture
# path side by side; \x1c is Python whitespace (RE2's \s lacks it) and
# so is \x85, the one non-ASCII
@example(["2022-03-21T08:39:18.220547Z\x1cx", "Mar 21 09:33:23 é",
          "2022-03-21 08:39:18.22\x85x", "Mar 21 09:33:23\x85host",
          "２０２２-03-21 08:39:18.22 x", "2022-03-23T11:46:49+0000: x",
          "Mar 31 04:50:23.795709 é", "Friday 25 February 2022  09:27:51 é"])
# the same shapes in an all-ASCII block
@example(["2022-03-21T08:39:18.220547Z\x1cx", "Mar 21 09:33:23\x1chost",
          "2022-03-21 08:39:18.22\x1cx", "2022-03-23T11:46:49+0000: x",
          "Mar 31 04:50:23.795709 x", "Friday 25 February 2022  09:27:51 x",
          "2022-3-23T11:46:49+0000: x", "Mar 21  09:33:23 host"])
def test_timestamps_match_reference(lines):
    got = extract_timestamps(pa.array(lines, type=pa.string()), 2022)
    for line, g in zip(lines, got.to_pylist()):
        want = ref.get_timestamp(line, 2022)
        assert g == want, (line, g, want)


@settings(max_examples=300, deadline=None)
@given(st.datetimes(min_value=datetime.datetime(1, 1, 1)),
       st.sampled_from([fmt for _, fmt in ref.TIMESTAMP_PATTERNS]),
       st.lists(st.one_of(st.just(" "), st.text(PY_WS, min_size=1, max_size=3)),
                min_size=5, max_size=5),
       st.randoms(use_true_random=False),
       st.sampled_from(["", " | msg", "  host x"]))
def test_rendered_datetimes_match_reference(when, fmt, runs, rnd, tail):
    """Any datetime in any of the 6 formats, with random letter case and
    whitespace runs where the format has a space."""
    text = when.strftime(fmt.replace("%Y", f"{when.year:04d}"))
    parts = text.split(" ")
    text = parts[0] + "".join(r + p for r, p in zip(runs, parts[1:]))
    text = "".join(c.upper() if rnd.random() < 0.5 else c.lower()
                   for c in text)
    line = text + tail
    got = extract_timestamps(pa.array([line], type=pa.string()), 2022)
    assert got.to_pylist() == [ref.get_timestamp(line, 2022)], line


# The 10 fixed Joda formats of the logstash date block
# (openstack-filters.conf:86-102) as (strptime format, fraction digits).
LOGSTASH_FIXED = [
    ("%Y-%m-%d %H:%M:%S.%f", 3), ("%Y-%m-%d %H:%M:%S.%f", 6),
    ("%Y-%m-%d %H:%M:%S,%f", 3), ("%Y-%m-%d %H:%M:%S", 0),
    ("%b %d %H:%M:%S", 0), ("%b %d %H:%M:%S.%f", 6),
    ("%d/%b/%Y:%H:%M:%S %z", 0), ("%Y-%m-%d %H:%M:%S.%f%z", 3),
    ("%a %b %d %H:%M:%S %Y %z", 0), ("%a %b %d %H:%M:%S %Y", 0),
]


@settings(max_examples=300, deadline=None)
@given(st.datetimes(min_value=datetime.datetime(1, 1, 1)),
       st.sampled_from(LOGSTASH_FIXED),
       st.integers(min_value=-(23 * 60 + 59), max_value=23 * 60 + 59),
       st.lists(st.text(" \t\n\f\r", min_size=1, max_size=3),
                min_size=6, max_size=6),
       st.randoms(use_true_random=False))
def test_logdate_rendered_datetimes(when, fmt_digits, offset, runs, rnd):
    """Any datetime in any fixed logstash format, with random month-name
    case and whitespace runs: zoned formats give the UTC instant,
    zoneless ones the wall time, yearless ones take today_year (no
    Feb 29, as 1900 has none), and year 1900 becomes today_year."""
    from ci_log_processing_ray.functions.timestamps import normalize_logdate

    fmt, digits = fmt_digits
    scale = 10 ** (6 - digits)
    local = when.replace(microsecond=when.microsecond // scale * scale
                         if digits else 0)
    sign = "-" if offset < 0 else "+"
    text = when.strftime(
        fmt.replace("%Y", f"{when.year:04d}")
        .replace("%f", f"{when.microsecond:06d}"[:digits])
        .replace("%z", f"{sign}{abs(offset) // 60:02d}{abs(offset) % 60:02d}"))
    parts = text.split(" ")
    text = parts[0] + "".join(r + p for r, p in zip(runs, parts[1:]))
    text = "".join(c.upper() if rnd.random() < 0.5 else c.lower()
                   for c in text)
    if "%z" in fmt:
        try:
            want = local - datetime.timedelta(minutes=offset)
        except OverflowError:
            want = None
    elif "%Y" not in fmt:
        want = (None if (local.month, local.day) == (2, 29)
                else local.replace(year=2024))
    else:
        want = local.replace(year=2024) if local.year == 1900 else local
    got = normalize_logdate(pa.array([text], type=pa.string()), 2024)
    assert got.to_pylist() == [want], text


@settings(max_examples=300, deadline=None)
@given(st.lists(line_st, min_size=1, max_size=20))
@example(["a\nb|c\nd", "|lead", "||x", "a|\x1c\nb", "no pipe\n"])
@example(["|", "x|", "\n|\n", "é|\n é"])
def test_messages_match_reference(lines):
    got = extract_messages(pa.array(lines, type=pa.string()))
    for line, g in zip(lines, got.to_pylist()):
        assert g == ref.get_message(line), line


@settings(max_examples=300, deadline=None)
@given(st.lists(line_st, min_size=1, max_size=20))
def test_severity_match_reference(lines):
    got = extract_severity(pa.array(lines, type=pa.string()))
    for line, g in zip(lines, got.to_pylist()):
        assert g == ref.get_severity(line), line


def test_severity_keyword_beside_non_ascii_word_characters():
    """Python's \\b is Unicode-aware: a keyword glued to a non-ASCII
    letter or digit is no keyword."""
    lines = ["éINFO x", "２INFO", "ÀDEBUG", "ßERRORß"]
    assert [ref.get_severity(line) for line in lines] == ["NONE"] * 4
    got = extract_severity(pa.array(lines + ["x INFO y"]))
    assert got.to_pylist() == ["NONE"] * 4 + ["INFO"]


_word_st = st.text(st.characters(categories=("L", "Nd", "Zs")), max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_word_st, st.sampled_from(ref.SEVERITIES),
                          _word_st), min_size=1, max_size=10))
def test_severity_between_unicode_characters(parts):
    lines = ["".join(p) for p in parts]
    got = extract_severity(pa.array(lines, type=pa.string()))
    assert got.to_pylist() == [ref.get_severity(line) for line in lines]


# --------------------------------------------------------------------------
# SQL-reproducible hash kernels (r5): the vectorized implementations must
# match the scalar textbook definitions on arbitrary inputs, because the
# DuckDB oracles re-derive them independently from the same specs.
# --------------------------------------------------------------------------
def _fnv_ref(word: str, seed: int) -> int:
    h = 0xCBF29CE484222325 ^ seed
    for b in word.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) % (1 << 64)
    return h


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(min_codepoint=1,
                                               max_codepoint=0x2FF),
                        min_size=0, max_size=24),
                min_size=1, max_size=30),
       st.integers(min_value=0, max_value=63))
def test_fnv1a_word_hashes_property(words, seed):
    from ci_log_processing_ray.ops.dedup import _fnv1a_word_hashes

    got = _fnv1a_word_hashes(pa.array(words, pa.string()), seed)
    want = np.array([_fnv_ref(w, seed) for w in words], dtype=np.uint64)
    assert (got == want).all(), (words, seed)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                min_size=1, max_size=50))
def test_fmix64_property(xs):
    from ci_log_processing_ray.ops.sketch import _fmix64

    def ref(x):
        m = (1 << 64) - 1
        x ^= x >> 33
        x = (x * 0xFF51AFD7ED558CCD) & m
        x ^= x >> 33
        x = (x * 0xC4CEB9FE1A85EC53) & m
        x ^= x >> 33
        return x

    arr = np.array(xs, dtype=np.uint64)
    got = _fmix64(arr)
    want = np.array([ref(x) for x in xs], dtype=np.uint64)
    assert (got == want).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet="ab ", min_size=0, max_size=60),
                min_size=1, max_size=12),
       st.integers(min_value=0, max_value=20))
# the start of a falsifying example once recorded in a full-suite run
@example(texts=[" ", "b  bbba"], seed=11)
def test_simhash_batch_property(texts, seed):
    """Vectorized simhash == scalar definition on arbitrary whitespace
    splits (incl. empty docs and repeated words)."""
    from ci_log_processing_ray.ops.dedup import _simhash_batch

    def rowwise(text):
        words = text.split()
        if not words:
            return np.uint64(0)
        h = np.array([_fnv_ref(w, seed) for w in words], dtype=np.uint64)
        bits = ((h[:, None] >> np.arange(64, dtype=np.uint64))
                & np.uint64(1)).astype(np.int64)
        votes = bits.sum(axis=0) * 2 - len(h)
        return np.uint64(sum(1 << i for i, v in enumerate(votes) if v > 0))

    got = _simhash_batch(texts, seed)
    want = np.array([rowwise(t) for t in texts], dtype=np.uint64)
    assert (got == want).all(), texts


# ISO8601-catch-all shapes: date, optional T/space + time with optional
# fraction, optional Z / ±hh / ±hhmm / ±hh:mm offset, plus near-misses
iso_st = st.one_of(
    st.builds(
        lambda when, sep, time_fmt, frac, tz: (
            f"{when.year:04d}{when.strftime('-%m-%d')}"
            + (sep + when.strftime(time_fmt) + frac + tz if sep else "")),
        st.datetimes(min_value=datetime.datetime(1, 1, 1)),
        st.sampled_from(["", "T", " ", "t", "  "]),
        st.sampled_from(["%H:%M:%S", "%H:%M", "%H", "%H%M%S"]),
        st.sampled_from(["", ".0811", ".5", ",123", ".123456789"]),
        st.sampled_from(["", "Z", "z", "+02:00", "-0330", "+05", " +0100",
                         "-12", "+2359", "+99:99"])),
    st.text(alphabet="0123456789-+:TZ. ", max_size=30),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(iso_st, min_size=1, max_size=12))
@example(["2024-03-05T12:00:00+02:00", "2000-10-06 10:06:34.0811"])
@example(["2024-03-05T12:00:00+02:00 junk", "2000-10-06 10:06:34.0811"])
@example(["2021-07-09T13:45:27+05:30:00", "2020-02-29T00:00"])
def test_logdate_batch_equals_rows(texts):
    """``normalize_logdate`` of a batch equals its per-row calls: no
    row's result depends on its neighbours (the ISO8601 catch-all once
    carried one row's UTC offset into later rows without one)."""
    from ci_log_processing_ray.functions.timestamps import normalize_logdate

    got = normalize_logdate(pa.array(texts, type=pa.string()), 2024)
    rows = [normalize_logdate(pa.array([t], type=pa.string()), 2024)[0]
            .as_py() for t in texts]
    assert got.to_pylist() == rows, texts


_RE2_WS = st.text(" \t\n\f\r", min_size=1, max_size=3)


@st.composite
def iso_rendered(draw):
    """(text, want): a datetime rendered in one shape the ISO8601 grammar
    accepts -- YYYY[-MM[-DD[(T|ws)HH[:MM[:SS[.f]]][ws?(Z|±HH[[:]MM])]]]]
    with one- or two-digit fields and optional outer whitespace -- and
    the instant it stands for (UTC; None outside datetime's range)."""
    when = draw(st.datetimes(min_value=datetime.datetime(1, 1, 1)))
    depth = draw(st.integers(0, 6))  # fields after the year, fraction last
    names = ["month", "day", "hour", "minute", "second"][:depth]
    want = datetime.datetime(when.year, 1, 1).replace(
        **{n: getattr(when, n) for n in names})
    parts = [draw(st.sampled_from(["", " ", "\t"])), f"{when.year:04d}"]
    for n, sep in zip(names, ["-", "-", "T|ws", ":", ":"]):
        v = getattr(when, n)
        if sep == "T|ws":
            sep = draw(st.one_of(st.just("T"), _RE2_WS))
        parts += [sep, f"{v:02d}" if v > 9 or draw(st.booleans())
                  else str(v)]
    if depth == 6:
        k = draw(st.integers(1, 9))
        frac = f"{when.microsecond:06d}"[:k]
        parts += [".", frac, "7" * (k - len(frac))]
        want = want.replace(microsecond=int(frac.ljust(6, "0")))
    if depth >= 3:
        zone = draw(st.sampled_from(["", "Z", "hh", "hhmm", "hh:mm"]))
        if zone:
            parts.append(draw(st.sampled_from(["", " ", "  ", "\t"])))
        if zone == "Z":
            parts.append("Z")
        elif zone:
            sign = draw(st.sampled_from(["-", "+"]))
            zh = draw(st.integers(0, 23))
            zm = 0 if zone == "hh" else draw(st.integers(0, 59))
            parts.append(sign + f"{zh:02d}" + {
                "hh": "", "hhmm": f"{zm:02d}", "hh:mm": f":{zm:02d}"}[zone])
            shift = datetime.timedelta(hours=zh, minutes=zm)
            try:
                want = want + shift if sign == "-" else want - shift
            except OverflowError:
                want = None
        parts.append(draw(st.sampled_from(["", " ", "\t"])))
    return "".join(parts), want


@settings(max_examples=400, deadline=None)
@given(st.lists(iso_rendered(), min_size=1, max_size=12))
def test_logdate_iso8601_renders_its_instant(items):
    """Any datetime of years 1-9999, rendered in any shape the ISO8601
    grammar accepts and batched with and without offsets, parses to the
    drawn instant.  today_year 1900 makes the year-1900 patch of the
    fixed zoneless rows an identity, so a shape that an earlier row
    takes first (``2024-03-05 12:00:00.123``) means the same instant."""
    from ci_log_processing_ray.functions.timestamps import normalize_logdate

    texts = [t for t, _ in items]
    got = normalize_logdate(pa.array(texts, type=pa.string()), 1900)
    assert got.to_pylist() == [w for _, w in items], texts


# the doc_id grammar the parse stage splits: build/filename/line_no
DOC_ID_RE = r"^(?P<build_uuid>[^/]+)/(?P<filename>.+)/(?P<line_no>[0-9]+)$"


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.none(),
                          st.text(alphabet="a/09\né٣+ ", max_size=12)),
                min_size=1, max_size=16))
@example(["b/f/1", "/f/1", "b//1", "b/f/", "b/f\n/1", "b\n/f/1", "b/f/1\n",
          "b///1", "b/f/٣", "b/a/b/01", "b/f/+1", None, "", "/"])
def test_split_doc_id_equals_regex_extract(doc_ids):
    """The two-split doc_id kernel gives the regex's build, filename and
    line number on every row, and its file id is ``build/filename``;
    null exactly where the regex does not match."""
    import pyarrow.compute as pc

    from ci_log_processing_ray.stages.parse import split_doc_id

    arr = pa.array(doc_ids, type=pa.string())
    parts = pc.extract_regex(arr, pattern=DOC_ID_RE)
    want_build = pc.struct_field(parts, "build_uuid").to_pylist()
    want_fname = pc.struct_field(parts, "filename").to_pylist()
    want_line = pc.cast(pc.struct_field(parts, "line_no"),
                        pa.int32()).to_pylist()
    build, fname, line_no, fid = split_doc_id(arr)
    assert build.to_pylist() == want_build, doc_ids
    assert fname.to_pylist() == want_fname, doc_ids
    assert line_no.to_pylist() == want_line, doc_ids
    assert fid.to_pylist() == [None if b is None else f"{b}/{f}"
                               for b, f in zip(want_build, want_fname)]
