"""Multiline join + grok field extraction (openstack-filters.conf:12-77):
vectorized kernels vs the sequential logstash simulator, golden fixtures,
and the parse-stage integration."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ci_log_processing_ray import reference_impl as ref
from ci_log_processing_ray.config import PipelineConfig
from ci_log_processing_ray.sources.synth import _encode_tokens, _make_logline
from ci_log_processing_ray.stages.grok import (
    anchor_mask,
    extract_grok_fields,
    grok_parse_failure,
    join_runs,
    multiline_join,
)
from ci_log_processing_ray.stages.parse import make_parse_fn

TRACEBACK_CONSOLE = [
    "2022-03-25 17:40:37.123456 | TASK [run thing]",
    "Traceback (most recent call last):",
    '  File "x.py", line 1, in <module>',
    "ValueError: boom",
    "2022-03-25 17:40:38.000000 | ok: done",
]

TRACEBACK_OSLO = [
    "2022-03-25 17:40:37.123 123 INFO nova.compute [req-1] starting",
    "2022-03-25 17:40:38.000 123 ERROR nova.compute [req-1] it broke",
    "2022-03-25 17:40:38.000 123 TRACE nova.compute Traceback (most recent call last):",
    '2022-03-25 17:40:38.000 123 TRACE nova.compute   File "a.py", line 2',
    "2022-03-25 17:40:38.000 123 TRACE nova.compute RuntimeError: nope",
    "2022-03-25 17:40:39.000 123 WARNING nova.compute [req-2] recovered",
]


def test_console_anchor_mask():
    got = anchor_mask(pa.array(TRACEBACK_CONSOLE), "console")
    assert got.tolist() == [True, False, False, False, True]


def test_oslofmt_anchor_mask():
    # ERROR/TRACE lines WITH a pid fold into the previous event
    # (conf:31-43 NOTE: NUMBER required so plain ERROR does not fold).
    got = anchor_mask(pa.array(TRACEBACK_OSLO), "oslofmt")
    assert got.tolist() == [True, False, False, False, False, True]
    # a timestamp-less line never anchors; an INFO line always does
    extra = anchor_mask(
        pa.array(["no timestamp", "2022-03-25 17:40:39.000 7 INFO m x"]),
        "oslofmt")
    assert extra.tolist() == [False, True]


def test_join_runs_traceback_is_one_doc():
    for lines, family, want_events in (
        (TRACEBACK_CONSOLE, "console", 2),
        (TRACEBACK_OSLO, "oslofmt", 2),
    ):
        anchors = anchor_mask(pa.array(lines), family)
        out = join_runs(np.array(["f"] * len(lines)), anchors, lines)
        assert len(out) == want_events
        want = ref.multiline_events(lines, family)
        assert list(zip(out["line_idx"].to_pylist(),
                        out["message"].to_pylist())) == want


def test_join_runs_leading_continuation_run():
    # a file that STARTS mid-traceback: the leading run is its own event
    lines = ["cont A", "cont B", "2022-03-25 17:40:38.000000 | anchored"]
    anchors = anchor_mask(pa.array(lines), "console")
    out = join_runs(np.array(["f"] * 3), anchors, lines)
    assert out["message"].to_pylist() == [
        "cont A\ncont B", "2022-03-25 17:40:38.000000 | anchored"]
    assert ref.multiline_events(lines, "console") == list(
        zip(out["line_idx"].to_pylist(), out["message"].to_pylist()))


def test_join_runs_matches_simulator_on_synth_lines():
    rng = np.random.default_rng(7)
    for family in ("console", "oslofmt"):
        lines = [_make_logline(rng, family, i) for i in range(400)]
        want = ref.multiline_events(lines, family)
        anchors = anchor_mask(pa.array(lines), family)
        got = join_runs(np.array(["f"] * len(lines)), anchors, lines)
        assert list(zip(got["line_idx"].to_pylist(),
                        got["message"].to_pylist())) == want


def test_join_runs_file_boundary_resets():
    # the same continuation line in two files must not join across files
    lines = ["2022-03-25 17:40:37.000000 | a", "cont", "cont", "cont"]
    fids = np.array(["f1", "f1", "f2", "f2"])
    anchors = anchor_mask(pa.array(lines), "console")
    out = join_runs(fids, anchors, lines)
    assert out["file_id"].to_pylist() == ["f1", "f2"]
    assert out["message"].to_pylist() == [
        "2022-03-25 17:40:37.000000 | a\ncont", "cont\ncont"]


GROK_GOLDENS = [
    # (family, line, expected non-empty fields)
    # %{COMBINEDAPACHELOG} (openstack-filters.conf:51-56): logdate from
    # the HTTPDATE timestamp, logmessage = "verb request response"
    ("apachecombined",
     '127.0.0.1 - frank [10/Oct/2000:13:55:36 -0700] '
     '"GET /apache_pb.gif HTTP/1.0" 200 2326 '
     '"http://www.example.com/start.html" "Mozilla/4.08 [en] (Win98)"',
     {"logdate": "10/Oct/2000:13:55:36 -0700", "clientip": "127.0.0.1",
      "auth": "frank", "ident": "-", "verb": "GET",
      "request": "/apache_pb.gif", "httpversion": "1.0",
      "response": "200", "bytes": "2326",
      "referrer": "http://www.example.com/start.html",
      "agent": "Mozilla/4.08 [en] (Win98)",
      "logmessage": "GET /apache_pb.gif 200"}),
    ("apachecombined",
     '10.0.0.5 - - [15/Mar/2024:12:00:00 +0000] '
     '"POST /api/v1/x" 404 - "-" "curl/8.1"',
     {"logdate": "15/Mar/2024:12:00:00 +0000", "clientip": "10.0.0.5",
      "auth": "-", "ident": "-", "verb": "POST", "request": "/api/v1/x",
      "response": "404", "referrer": "-", "agent": "curl/8.1",
      "logmessage": "POST /api/v1/x 404"}),
    # rawrequest branch: no verb -> logmessage stays null
    ("apachecombined",
     '10.0.0.5 - - [15/Mar/2024:12:00:00 +0000] "quit" 400 0 "-" "-"',
     {"logdate": "15/Mar/2024:12:00:00 +0000", "clientip": "10.0.0.5",
      "auth": "-", "ident": "-", "rawrequest": "quit",
      "response": "400", "bytes": "0", "referrer": "-", "agent": "-"}),
    ("oslofmt",
     "2024-03-05 12:00:00.123456 4567 INFO nova.compute.manager event 5",
     {"logdate": "2024-03-05 12:00:00.123456", "pid": "4567",
      "loglevel": "INFO", "module": "nova.compute.manager",
      "logmessage": "event 5"}),
    ("oslofmt",
     "Mar 15 12:00:00 devstack@n-cpu.service[123]: WARNING nova.foo x y",
     {"logdate": "Mar 15 12:00:00", "syslog_program": "devstack@n-cpu.service",
      "syslog_pid": "123", "loglevel": "WARNING", "module": "nova.foo",
      "logmessage": "x y"}),
    ("libvirt",
     "2024-03-15 12:00:00.123+0000: 4567: error : internal fail",
     {"logdate": "2024-03-15 12:00:00.123+0000", "pid": "4567",
      "loglevel": "error", "logmessage": "internal fail"}),
    ("syslog",
     "Mar 15 12:00:00 node-07 sudo[107]: session opened",
     {"logdate": "Mar 15 12:00:00", "syslog_host": "node-07",
      "syslog_program": "sudo", "syslog_pid": "107",
      "logmessage": "session opened"}),
    ("syslog",
     "Mar  5 12:00:00 node-07 kernel: oops",
     {"logdate": "Mar  5 12:00:00", "syslog_host": "node-07",
      "syslog_program": "kernel", "logmessage": "oops"}),
    ("apacheerror",
     "[Fri Mar 04 12:10:11 2022] [error] client denied by acl",
     {"logdate": "Fri Mar 04 12:10:11 2022", "loglevel": "error",
      "logmessage": "client denied by acl"}),
    ("console",
     "2022-03-25 17:40:37.123456 | some message | rc=0",
     {"logdate": "2022-03-25 17:40:37.123456",
      "logmessage": "some message | rc=0"}),
]


def test_grok_field_goldens():
    for family, line, want in GROK_GOLDENS:
        out = extract_grok_fields(pa.array([line]), family)
        got = {k: out[k][0].as_py() for k in out
               if out[k][0].as_py() not in (None, "")}
        assert got == want, (family, line, got)


def test_grok_multiline_message_spans_newlines():
    # (?m)/(?s): after the multiline join, logmessage spans ALL lines
    joined = "\n".join(TRACEBACK_OSLO[1:5])
    out = extract_grok_fields(pa.array([joined]), "oslofmt")
    assert out["loglevel"][0].as_py() == "ERROR"
    assert out["pid"][0].as_py() == "123"
    assert out["module"][0].as_py() == "nova.compute"
    assert "\n" in out["logmessage"][0].as_py()


# Event heads of each grok family; a random cut and a random tail
# (newlines, brackets, colons and pipes among them) move the places
# where the narrowed parse-path patterns end.
GROK_HEADS = {
    "oslofmt": ["2024-03-05 12:00:00.123456 4567 INFO nova.compute.manager",
                "2024-03-05 12:00:00.123 123 ERROR [nova.compute]",
                "Mar 15 12:00:00 devstack@n-cpu.service[123]: WARNING nova",
                "Mar  5 12:00:00 prog: DEBUG mod]",
                "2022-03-25T17:40:37Z -1.5 AUDIT [x"],
    "apacheerror": ["[Fri Mar 04 12:10:11 2022] [error]",
                    "[Friday March 4 12:10:11.123 2022 +0100]  [Warning]",
                    "x [Sun Mar 04 12:10:11 2022 UTC][crit]"],
    "libvirt": ["2024-03-15 12:00:00.123+0000: 4567: error :",
                "2024-03-15T12:00:00Z: -3: warning:",
                "2024-03-15 12:00:00.123+0000: 1.5: Info  :"],
    "syslog": ["Mar 15 12:00:00 node-07 sudo[107]: ",
               "Mar  5 12:00:00 node-07 kernel: ",
               "Mar 15 12:00:00 host.a:b-c prog[0]:x ",
               "Mar 15 12:00:00 prog "],
    "console": ["2022-03-25 17:40:37.123456 | x"],
    "apachecombined": ['10.0.0.5 - - [15/Mar/2024:12:00:00 +0000] "quit" '
                       '400 0 "-" "-"'],
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(GROK_HEADS)), st.data())
def test_parse_grok_cols_equal_public_fields(family, data):
    """The parse path's narrowed patterns give the six emitted fields
    exactly as the full patterns of ``extract_grok_fields`` do."""
    from ci_log_processing_ray.stages.grok import PARSE_FIELDS
    from ci_log_processing_ray.stages.parse import _extract_grok_cols

    lines = data.draw(st.lists(st.builds(
        lambda head, cut, tail: head[:len(head) - cut] + tail,
        st.sampled_from(GROK_HEADS[family]), st.integers(0, 8),
        st.text(" \t\n[]:|ab1.-_", max_size=12)), min_size=1, max_size=8))
    arr = pa.array(lines, type=pa.string())
    got = _extract_grok_cols(arr, np.array([family] * len(lines)))
    want = extract_grok_fields(arr, family)
    for name in PARSE_FIELDS:
        assert got[name].to_pylist() == want[name].to_pylist(), (name, lines)


def test_grok_parse_failure_flags_unmatched():
    got = grok_parse_failure(
        pa.array(["garbage", TRACEBACK_OSLO[0]]), "oslofmt")
    assert got.to_pylist() == [True, False]


def _token_table(files: dict[str, tuple[str, list[str]]]) -> pa.Table:
    """files: fname -> (source, lines); doc_id layout as sources/synth.py."""
    doc_ids, all_lines, sources = [], [], []
    for fname, (source, lines) in files.items():
        for i, line in enumerate(lines):
            doc_ids.append(f"build-x/{fname}/{i:06d}")
            all_lines.append(line)
            sources.append(source)
    return pa.table({
        "doc_id": pa.array(doc_ids),
        "tokens": _encode_tokens(all_lines),
        "n_tok": pa.array([len(l.encode()) for l in all_lines],
                          type=pa.int32()),
        "source": pa.array(sources),
    })


def test_parse_stage_multiline_join_end_to_end():
    cfg = PipelineConfig(multiline_join=True)
    tbl = _token_table({
        "job-output.txt": ("console", TRACEBACK_CONSOLE + ["<pre>"]),
        "screen-n-cpu.txt": ("oslofmt", TRACEBACK_OSLO),
    })
    out = make_parse_fn(cfg)(tbl)
    by_file = {}
    for row in out.to_pylist():
        by_file.setdefault(row["filename"], []).append(row)
    console = by_file["job-output.txt"]
    # <pre> dropped BEFORE the join (conf order), traceback folds -> 2 docs
    assert len(console) == 2
    assert console[0]["message"] == (
        "TASK [run thing]\nTraceback (most recent call last):\n"
        '  File "x.py", line 1, in <module>\nValueError: boom')
    assert console[0]["line_no"] == 0  # anchor row's identity
    # n_tok summed over the folded event
    assert console[0]["n_tok"] == sum(
        len(l.encode()) for l in TRACEBACK_CONSOLE[:4])
    # oslofmt: the ERROR-with-pid line AND its TRACE block fold into the
    # preceding INFO event (conf:31-43 -- NUMBER+ERROR matches the second
    # multiline filter, so exception blocks attach to the triggering event)
    oslo = by_file["screen-n-cpu.txt"]
    assert [r["line_no"] for r in oslo] == [0, 5]
    assert "RuntimeError: nope" in oslo[0]["message"]
    assert oslo[0]["severity"] == "INFO"


def test_parse_stage_multiline_doc_count_matches_simulator():
    rng = np.random.default_rng(11)
    files = {
        f"screen-{i}.txt": (
            "oslofmt", [_make_logline(rng, "oslofmt", j) for j in range(120)])
        for i in range(3)
    }
    cfg = PipelineConfig(multiline_join=True)
    out = make_parse_fn(cfg)(_token_table(files))
    got = {}
    for row in out.to_pylist():
        got[row["filename"]] = got.get(row["filename"], 0) + 1
    for fname, (family, lines) in files.items():
        # simulator runs on the post-drop stream ('+ ' screen lines are
        # dropped before multiline, conf:5-7), then empty-message docs drop
        kept = [l for l in lines if not l.startswith("+ ")]
        events = ref.multiline_events(kept, family)
        expect = sum(1 for _, m in events if ref.get_message(m) != "")
        assert got.get(fname, 0) == expect, fname


def test_parse_stage_grok_fields_end_to_end():
    cfg = PipelineConfig(multiline_join=True, grok_fields=True)
    tbl = _token_table({
        "screen-n-cpu.txt": ("oslofmt", TRACEBACK_OSLO),
        "job-output.txt": ("console", TRACEBACK_CONSOLE),
    })
    out = make_parse_fn(cfg)(tbl)
    rows = {(r["filename"], r["line_no"]): r for r in out.to_pylist()}
    info = rows[("screen-n-cpu.txt", 0)]
    assert info["pid"] == "123"
    assert info["module"] == "nova.compute"
    assert info["loglevel"] == "INFO"  # grok sees the JOINED event's anchor
    # console family has no module/pid captures -> null, not garbage
    con = rows[("job-output.txt", 0)]
    assert con["module"] is None and con["pid"] is None


def test_dropped_line0_is_not_mid_file_carry_forward():
    """A block holding a file's line 0 starts at the file's head even
    when skip_debug drops that line: the leading timestamp-less line
    takes fallback_now, as in the reference, instead of raising a
    carry-forward ambiguity."""
    cfg = PipelineConfig(skip_debug=True)
    lines = ["2022-03-25 17:40:37.123456 | DEBUG starting",
             "no timestamp here",
             "2022-03-25 17:40:38.000000 | ok"]
    tbl = _token_table({"job-output.txt": ("console", lines)})
    out = make_parse_fn(cfg)(tbl)
    want = list(ref.process_logfile(
        lines, "console", skip_debug=True, drop_debug_severity=False,
        fallback_now=cfg.fallback_now, today_year=cfg.today_year))
    assert [i for i, *_ in want] == [1, 2]
    assert want[0][1] == cfg.fallback_now
    got = [(r["line_no"], r["ts"], r["severity"], r["message"])
           for r in out.to_pylist()]
    assert got == want
    # a block that really starts mid-file still raises
    with pytest.raises(ValueError, match="carry-forward ambiguity"):
        make_parse_fn(cfg)(tbl.slice(1))


def test_dropped_line0_is_not_mid_file_multiline():
    """Same for the multiline join: a console file whose line 0 is a
    dropped <pre> marker and whose line 1 is a continuation line starts
    with its own leading event (logstash's first flush), not an
    ambiguity error."""
    cfg = PipelineConfig(multiline_join=True)
    lines = ["<pre>", "TASK [setup]", "continued",
             "2022-03-25 17:40:38.000000 | ok"]
    tbl = _token_table({"job-output.txt": ("console", lines)})
    rows = make_parse_fn(cfg)(tbl).to_pylist()
    events = ref.multiline_events(lines[1:], "console")
    assert [start + 1 for start, _ in events] == [1, 3]
    assert [r["line_no"] for r in rows] == [1, 3]
    assert rows[0]["message"] == "TASK [setup]\ncontinued"
    assert rows[0]["ts"] == cfg.fallback_now
    with pytest.raises(ValueError, match="multiline-join ambiguity"):
        make_parse_fn(cfg)(tbl.slice(2))


def test_distributed_multiline_join_matches_local(ray_session):
    import ray

    rng = np.random.default_rng(3)
    rows = []
    for f in range(6):
        lines = [_make_logline(rng, "console", j) for j in range(80)]
        rows += [{"file_id": f"f{f}", "line_no": i, "line": l}
                 for i, l in enumerate(lines)]
    # scrambled layout: the bucketed shuffle must restore (file, order)
    perm = np.random.default_rng(4).permutation(len(rows))
    ds = ray.data.from_items([rows[i] for i in perm]).repartition(7)
    got = multiline_join(ds, file_col="file_id", order_col="line_no",
                         line_col="line", family="console").take_all()
    got_set = {(r["file_id"], r["anchor_ord"], r["n_lines"], r["message"])
               for r in got}
    want_set = set()
    by_file = {}
    for r in rows:
        by_file.setdefault(r["file_id"], []).append(r["line"])
    for fid, lines in by_file.items():
        for start, msg in ref.multiline_events(lines, "console"):
            want_set.add((fid, start, msg.count("\n") + 1, msg))
    assert got_set == want_set


def test_received_at_constant_on_every_parsed_row():
    """conf:21,49,55,61: every grok adds received_at = %{@timestamp};
    the engine broadcasts the pinned cfg.received_at to every row of
    every parse branch."""
    import datetime as dt

    cfg = PipelineConfig(
        received_at=dt.datetime(2023, 7, 1, 8, 30, 0))
    tbl = _token_table({
        "screen-n-cpu.txt": ("oslofmt", TRACEBACK_OSLO),
        "job-output.txt": ("console", TRACEBACK_CONSOLE),
    })
    out = make_parse_fn(cfg)(tbl)
    assert "received_at" in out.column_names
    vals = set(out["received_at"].to_pylist())
    assert vals == {dt.datetime(2023, 7, 1, 8, 30, 0)}
