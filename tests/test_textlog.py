"""Raw-file source: subunit v2 wire format, gzip decode, routing.

Goldens come from the reference's own binary fixture and expected docs
(logscraper/tests/test_logsender.py:1254-1379) -- the fixture is read
in place, never copied."""

import datetime
import gzip
import json
import os
import zlib

import pyarrow as pa
import pytest

from ci_log_processing_ray.config import PipelineConfig
from ci_log_processing_ray.functions.subunit import (
    SubunitError,
    iter_packets,
    subunit_results,
)
from ci_log_processing_ray.sources.textlog import (
    classify_source,
    read_log_files,
)

REF_FIXTURE = "/root/reference/logscraper/tests/testrepository.subunit"

# expected docs from test_logsender.py:1254-1345 (name, status, dur, ts)
REF_GOLDEN = [
    ("setUpClass (neutron_tempest_plugin.scenario.test_dns_integration."
     "DNSIntegrationDomainPerProjectTests)", "skip", 0.0,
     "2022-09-21T08:10:06Z"),
    ("neutron_tempest_plugin.scenario.test_dns_integration."
     "DNSIntegrationAdminTests.test_fip_admin_delete", "success", 7.103220,
     "2022-09-21T08:10:20Z"),
    ("neutron_tempest_plugin.scenario.test_dns_integration."
     "DNSIntegrationExtraTests.test_port_with_publishing_subnet", "success",
     9.188214, "2022-09-21T08:10:20Z"),
    ("neutron_tempest_plugin.scenario.test_dns_integration."
     "DNSIntegrationTests.test_fip", "success", 6.738004,
     "2022-09-21T08:10:23Z"),
    ("neutron_tempest_plugin.scenario.test_dns_integration."
     "DNSIntegrationAdminTests.test_port_on_special_network", "success",
     6.611149, "2022-09-21T08:10:27Z"),
    ("neutron_tempest_plugin.scenario.test_dns_integration."
     "DNSIntegrationTests.test_server_with_fip", "success", 30.278503,
     "2022-09-21T08:10:30Z"),
]


def _duration(r):
    d = r["end_time"] - r["start_time"]
    return float(f"{d.seconds}.{d.microseconds}")


@pytest.mark.skipif(not os.path.exists(REF_FIXTURE),
                    reason="reference fixture unavailable")
def test_subunit_reference_fixture_golden():
    with open(REF_FIXTURE, "rb") as f:
        res = subunit_results(f.read())
    got = [(name, r["status"], _duration(r),
            r["start_time"].strftime("%Y-%m-%dT%H:%M:%SZ"))
           for name, r in res.items()]
    assert got == REF_GOLDEN


# --- minimal subunit v2 packet writer (public wire format) for fixtures ---
def _number(v: int) -> bytes:
    if v < 64:
        return bytes([v])
    if v < 16384:
        return bytes([0x40 | (v >> 8), v & 0xFF])
    if v < (1 << 22):
        return bytes([0x80 | (v >> 16), (v >> 8) & 0xFF, v & 0xFF])
    if v < (1 << 30):
        return bytes([0xC0 | (v >> 24), (v >> 16) & 0xFF,
                      (v >> 8) & 0xFF, v & 0xFF])
    raise ValueError(v)


def _utf8(s: str) -> bytes:
    b = s.encode("utf-8")
    return _number(len(b)) + b


def make_packet(status: int, test_id: str | None = None,
                ts: datetime.datetime | None = None) -> bytes:
    flags = 0x2000 | status | 0x0100
    body = b""
    if ts is not None:
        flags |= 0x0200
        seconds = int(ts.replace(tzinfo=datetime.timezone.utc).timestamp())
        nanos = ts.microsecond * 1000
        body += seconds.to_bytes(4, "big") + _number(nanos)
    if test_id is not None:
        flags |= 0x0800
        body += _utf8(test_id)
    # 2-byte length encoding always: sig(1)+flags(2)+len(2)+body+crc(4)
    length = 1 + 2 + 2 + len(body) + 4
    head = bytes([0xB3]) + flags.to_bytes(2, "big") + bytes(
        [0x40 | (length >> 8), length & 0xFF])
    pkt = head + body
    return pkt + (zlib.crc32(pkt) & 0xFFFFFFFF).to_bytes(4, "big")


def _fixture_stream() -> bytes:
    t0 = datetime.datetime(2023, 5, 1, 12, 0, 0)
    return b"".join([
        make_packet(2, "pkg.TestA.test_one[id-123,smoke]", t0),
        make_packet(3, "pkg.TestA.test_one[id-123,smoke]",
                    t0 + datetime.timedelta(seconds=2, microseconds=500000)),
        make_packet(2, "pkg.TestB.test_two", t0),
        make_packet(6, "pkg.TestB.test_two",
                    t0 + datetime.timedelta(seconds=1)),
        make_packet(1, "pkg.TestC.enumerated_only"),
    ])


def test_synthetic_subunit_stream():
    res = subunit_results(_fixture_stream())
    # attr tags stripped, enumeration-only test dropped
    assert list(res) == ["pkg.TestA.test_one", "pkg.TestB.test_two"]
    a = res["pkg.TestA.test_one"]
    assert a["status"] == "success" and _duration(a) == 2.500000
    b = res["pkg.TestB.test_two"]
    assert b["status"] == "fail" and _duration(b) == 1.0


def test_non_subunit_content_raises():
    with pytest.raises(SubunitError, match="Non subunit content"):
        list(iter_packets(b"plain text, not subunit"))


def test_crc_mismatch_raises():
    pkt = bytearray(make_packet(3, "x", datetime.datetime(2023, 1, 1)))
    pkt[-1] ^= 0xFF
    with pytest.raises(SubunitError, match="CRC"):
        list(iter_packets(bytes(pkt)))


def test_classify_source_strips_gz():
    assert classify_source("controller/logs/syslog.txt.gz") == "syslog"
    assert classify_source("job-output.txt") == "console"
    assert classify_source("x/testrepository.subunit") == "subunit"
    assert classify_source("controller/logs/performance.json") == "performance"
    assert classify_source("some/random/file.log") == "text"


@pytest.fixture()
def build_root(tmp_path):
    log_lines = [
        "2022-03-25 17:40:37.123456 | starting build",
        "+ this screen-style line stays (console family has no ^+ drop)",
        "2022-03-25 17:40:38.000001 | ERROR | something failed",
        "no timestamp continuation",
    ]
    a = tmp_path / "build-a"
    a.mkdir()
    (a / "job-output.txt").write_text("\n".join(log_lines) + "\n")
    b = tmp_path / "build-b"
    b.mkdir()
    (b / "job-output.txt.gz").write_bytes(
        gzip.compress(("\n".join(log_lines) + "\n").encode()))
    (b / "testrepository.subunit").write_bytes(_fixture_stream())
    (b / "testrepository.subunit.gz").write_bytes(
        gzip.compress(b"broken, always skipped"))
    perf = {"report": {"hostname": "node1",
                       "timestamp": "2022-03-25T17:40:37.000000"},
            "services": [{"service": "api", "MemoryCurrent": 1024}],
            "db": [], "api": []}
    sub = b / "controller" / "logs"
    sub.mkdir(parents=True)
    (sub / "performance.json").write_text(json.dumps(perf))
    return str(tmp_path)


def test_read_log_files_gz_equivalence(ray_session, build_root):
    rows = read_log_files(build_root).take_all()
    by_build = {}
    for r in rows:
        build, fname, line_no = r["doc_id"].split("/", 1)[0], None, None
        by_build.setdefault(build, []).append(r)
    a = sorted((r["doc_id"].split("/", 1)[1], r["line"], r["source"])
               for r in by_build["build-a"])
    bb = sorted((r["doc_id"].split("/", 1)[1], r["line"], r["source"])
                for r in by_build["build-b"]
                if "job-output" in r["doc_id"])
    assert a == bb  # gz twin decodes to identical rows, .gz name stripped
    # broken file skipped entirely
    assert not any("subunit.gz" in r["doc_id"] for r in rows)
    # binary subunit decoded to per-test JSON rows
    sub_rows = [r for r in rows if r["source"] == "subunit"]
    assert len(sub_rows) == 2
    assert json.loads(sub_rows[0]["line"])["test_name"] == "pkg.TestA.test_one"


def test_textlog_through_parse_and_route(ray_session, build_root, tmp_path):
    """Raw text rows through the flagship block function: the rows it
    writes carry parsed fields under their routed sinks."""
    import pyarrow as pa
    from conftest import read_routed

    from ci_log_processing_ray.config import DEFAULT_FILE_CONFIG
    from ci_log_processing_ray.pipelines.flagship import make_block_fn
    from ci_log_processing_ray.sources.synth import BUILD_META_SCHEMA

    cfg = PipelineConfig()
    rows = pa.concat_tables(read_log_files(build_root).iter_batches(
        batch_format="pyarrow", batch_size=None))
    rows = rows.append_column("path", pa.array(["logs"] * len(rows)))
    staging = str(tmp_path / "staging")
    make_block_fn(cfg, BUILD_META_SCHEMA.empty_table(), DEFAULT_FILE_CONFIG,
                  staging, ["logs"], ["p"])(rows)
    out = read_routed(staging)
    sinks = {r["sink"] for r in out}
    assert sinks == {cfg.index_name(), cfg.perf_index_name(),
                     cfg.subunit_index_name()}
    # both log twins parsed: same per-line messages and timestamps
    logs = [r for r in out if r["sink"] == cfg.index_name()]
    am = sorted((r["doc_id"].split("/", 2)[2], r["ts"], r["message"])
                for r in logs if r["doc_id"].startswith("build-a/"))
    bm = sorted((r["doc_id"].split("/", 2)[2], r["ts"], r["message"])
                for r in logs if r["doc_id"].startswith("build-b/"))
    assert am == bm and len(am) == 4
    # subunit rows carry test fields
    subs = [r for r in out if r["sink"] == cfg.subunit_index_name()]
    assert {r["test_status"] for r in subs} == {"success", "fail"}
    # perf row flattened
    perf = [r for r in out if r["sink"] == cfg.perf_index_name()]
    assert len(perf) == 1
    assert json.loads(perf[0]["perf_fields"])[
        "service_api_memorycurrent"] == 1024


def test_truncated_stream_raises_subunit_error():
    """A stream cut mid-packet (inside the header or a varint) must
    raise SubunitError, never IndexError."""
    full = _fixture_stream()
    for cut in (1, 2, 3, 4, len(full) - 3):
        with pytest.raises(SubunitError):
            list(iter_packets(full[:cut]))


def test_corrupt_subunit_file_is_skipped_not_fatal():
    """Reference semantics (logsender.py:438-441): a .subunit file whose
    body is an HTML error page parses to ZERO rows, not a crash."""
    from ci_log_processing_ray.sources.textlog import decode_file

    rows, fname, source = decode_file(
        "testrepository.subunit", b"<html>404 not found</html>", ())
    assert rows == [] and source == "subunit"


def test_subunit_missing_timestamps_survive():
    """FLAG_TIMESTAMP is optional: a terminal packet without timestamps
    yields null start/end in the decoded row instead of crashing."""
    from ci_log_processing_ray.sources.textlog import decode_file

    pkt = make_packet(3, "pkg.T.test_x", None)   # status=success, no ts
    rows, _, _ = decode_file("x.subunit", pkt, ())
    assert len(rows) == 1
    rec = json.loads(rows[0])
    assert rec["test_name"] == "pkg.T.test_x"
    assert rec["start"] is None and rec["end"] is None


def test_read_orc_stripe_fanout(ray_session, tmp_path):
    """read_orc must see every stripe of every file exactly once, with
    column pruning applied at the stripe read."""
    import numpy as np
    import pyarrow as pa
    from pyarrow import orc as paorc

    from ci_log_processing_ray.sources.readers import read_orc

    rng = np.random.default_rng(5)
    n = 700
    t = pa.table({"k": pa.array(np.arange(n, dtype=np.int64)),
                  "v": pa.array(rng.integers(0, 100, n)),
                  "s": pa.array([f"s{i%3}" for i in range(n)])})
    for i, part in enumerate([t.slice(0, 300), t.slice(300)]):
        w = paorc.ORCWriter(str(tmp_path / f"p{i}.orc"),
                            batch_size=64, stripe_size=512)
        w.write(part)
        w.close()
    n_stripes = sum(paorc.ORCFile(str(tmp_path / f"p{i}.orc")).nstripes
                    for i in range(2))
    assert n_stripes > 4  # the fan-out is real, not one-blob-per-file

    ds = read_orc(str(tmp_path), columns=["k", "v"])
    got = ds.to_pandas().sort_values("k").reset_index(drop=True)
    assert list(got.columns) == ["k", "v"]
    assert len(got) == n
    assert got["k"].tolist() == list(range(n))
    assert int(got["v"].sum()) == int(pa.Table.from_arrays(
        [t["v"]], names=["v"])["v"].to_pandas().sum())
