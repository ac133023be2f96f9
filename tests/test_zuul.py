"""Live Zuul HTTP source (S1-S5/S7/M17) with offline dict-backed fakes:
pager drift dedup, version gate, job intersection, per-build fetch
equivalence vs the build-dir source, meta normalization vs the
reference oracle, and the live tick end to end (resume, one Ray CPU,
the CLI's --live --follow loop)."""

import os
import gzip
import json

import pyarrow as pa
import pytest

from ci_log_processing_ray import reference_impl as ref
from ci_log_processing_ray.config import DEFAULT_FILE_CONFIG
from ci_log_processing_ray.sources.zuul import (
    build_rows,
    fetch_build_meta,
    files_to_check,
    filter_available_jobs,
    get_last_job_results,
    iter_builds,
    normalize_build_fields,
    parse_version,
    zuul_complete_param,
)

ZUUL = "https://zuul.example/api"


def test_parse_version_suffixes():
    # doctest goldens from logscraper.py:376-398
    assert parse_version("4.6.0-1.el7") == (4, 6, 0)
    assert parse_version("4.10.2.dev6 22f04be1") == (4, 10, 2)
    assert parse_version("4.10.2.dev6 22f04be1") > parse_version("4.6.0-1.el7")
    assert not parse_version("4.6.0-1.el7") > parse_version("4.7.0")
    assert parse_version(None) is None
    assert parse_version("") is None
    with pytest.raises(ValueError):
        parse_version("not-a-version")


def test_complete_param_gate():
    def gj(url):
        assert url == ZUUL + "/status"
        return {"zuul_version": "4.10.2.dev6 22f04be1"}

    assert zuul_complete_param(gj, ZUUL) == "&complete=true"
    assert zuul_complete_param(
        lambda u: {"zuul_version": "4.6.0-1.el7"}, ZUUL) == ""
    assert zuul_complete_param(lambda u: {}, ZUUL) == ""
    assert zuul_complete_param(lambda u: None, ZUUL) == ""


def test_filter_available_jobs():
    gj = lambda url: [{"name": "tempest-full"}, {"name": "pep8"}]  # noqa: E731
    assert filter_available_jobs(gj, ZUUL, ["pep8", "unknown", "tempest-full"]) \
        == ["pep8", "tempest-full"]
    assert filter_available_jobs(lambda u: None, ZUUL, ["pep8"]) == []


class _Pager:
    """Fake /builds endpoint with page drift: build b2 reappears on the
    second page (a new build landed between requests)."""

    def __init__(self):
        self.pages = {
            0: [{"uuid": "b1"}, {"uuid": "b2"}],
            2: [{"uuid": "b2"}, {"uuid": "b3"}],
            4: [],
        }
        self.urls = []

    def __call__(self, url):
        self.urls.append(url)
        skip = int(url.rsplit("&skip=", 1)[1])
        return self.pages.get(skip, [])


def test_iter_builds_dedups_page_drift():
    pager = _Pager()
    got = [b["uuid"] for b in iter_builds(pager, ZUUL, "tempest",
                                          page_size=2)]
    assert got == ["b1", "b2", "b3"]
    assert pager.urls[0] == (
        ZUUL + "/builds?limit=2&job_name=tempest&skip=0")


def test_get_last_job_results_anti_join_and_cap():
    class Seen:
        def __init__(self):
            self.s = {"b1"}

        def contains(self, k):
            return k in self.s

        def add(self, k):
            self.s.add(k)

    pager = _Pager()
    seen = Seen()
    got = [b["uuid"] for b in get_last_job_results(pager, ZUUL, 2, seen)]
    # b1 skipped (already seen), cap of 2 stops before b3
    assert got == ["b2"]
    assert seen.s == {"b1", "b2"}


def test_files_to_check_gz_twins():
    names = files_to_check()
    plain = [n for n in names if not n.endswith(".gz")]
    assert set(names) == set(plain) | {n + ".gz" for n in plain}


CONSOLE = ("2022-03-25 17:40:37.123456 | TASK ok\n"
           "2022-03-25 17:40:38.000000 | done\n")
PERF = json.dumps({"report": {"hostname": "h1",
                              "timestamp": "2022-03-25T17:40:37"},
                   "services": [], "db": [], "api": []})


def _site(log_url):
    return {
        log_url + "job-output.txt": CONSOLE.encode(),
        # only the .gz twin exists for this screen log
        log_url + "controller/logs/screen-n-api.txt.gz":
            gzip.compress(b"2022-03-25 17:40:37.000 77 INFO nova.api up\n"),
        log_url + "controller/logs/performance.json": PERF.encode(),
    }


def _rows(t: pa.Table) -> list[tuple]:
    return list(zip(*(t[c].to_pylist() for c in ("doc_id", "line", "source"))))


def _live_site(n: int = 3, first_id=None):
    """n builds on a fake Zuul API, each serving ``_site``'s files;
    with ``first_id`` the listing also carries Zuul's ``_id``s."""
    builds, site = [], {}
    for i in range(n):
        log_url = f"https://storage.example/logs/{i}/b{i}/"
        site.update(_site(log_url))
        builds.append({"uuid": f"b{i}", "log_url": log_url,
                       "result": "SUCCESS", "job_name": "tox",
                       "end_time": "2022-03-25T17:40:40"})
        if first_id is not None:
            builds[-1]["_id"] = first_id + i

    def get_json(url):
        if url.endswith("/status"):
            return {"zuul_version": "4.10.2-1.el7"}
        if "/builds?" in url:
            return builds[int(url.rsplit("skip=", 1)[1]):]
        raise AssertionError(url)

    return get_json, site


def test_build_fetcher_rows_offline():
    log_url = "https://storage.example/logs/1/abc/"
    site = _site(log_url)
    t = build_rows({"uuid": "abc", "log_url": log_url, "result": "SUCCESS",
                    "end_time": "e"}, site.get, DEFAULT_FILE_CONFIG)
    rows = _rows(t)
    by_file = {}
    for doc_id, line, source in rows:
        by_file.setdefault(doc_id.split("/", 1)[1].rsplit("/", 1)[0],
                           []).append((line, source))
    assert [l for l, _ in by_file["job-output.txt"]] == \
        CONSOLE.strip().split("\n")
    # .gz twin decoded, name recorded WITHOUT .gz (makeEvent's replace)
    assert "controller/logs/screen-n-api.txt" in by_file
    assert by_file["controller/logs/screen-n-api.txt"][0][1] == "oslofmt"
    assert by_file["controller/logs/performance.json"][0][1] == "performance"


def test_build_fetcher_custom_result_for_aborted():
    t = build_rows({"uuid": "u1", "log_url": None, "result": "ABORTED",
                    "end_time": "2022-03-25T17:40:37"}, lambda url: None, ())
    rows = _rows(t)
    assert rows == [("u1/custom-job-results.txt/000000",
                     "2022-03-25T17:40:37 | ABORTED", "text")]


def test_read_zuul_builds_matches_build_dir_source(ray_session, tmp_path):
    """The SAME content served over the fake HTTP site and laid out as
    a build directory must produce identical row sets."""
    from ci_log_processing_ray.sources.textlog import read_log_files

    log_url = "https://storage.example/logs/1/abc/"
    site = _site(log_url)
    builds = [
        {"uuid": "abc", "log_url": log_url, "result": "SUCCESS",
         "end_time": "2022-03-25T17:40:40"},
        {"uuid": "dead", "log_url": None, "result": "NODE_FAILURE",
         "end_time": "2022-03-25T17:41:00"},
    ]
    got = sorted(
        (r["doc_id"], r["line"], r["source"])
        for b in builds for r in build_rows(b, site.get).to_pylist())

    root = tmp_path / "builds"
    for url, data in site.items():
        rel = url[len(log_url):]
        p = root / "abc" / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        # the dir layout stores the DECODED file (requests decodes .gz)
        if rel.endswith(".gz"):
            p = p.with_name(p.name[:-3])
            data = gzip.decompress(data)
        p.write_bytes(data)
    (root / "dead").mkdir()
    (root / "dead" / "custom-job-results.txt").write_text(
        "2022-03-25T17:41:00 | NODE_FAILURE")
    want = sorted(
        (r["doc_id"], r["line"], r["source"])
        for r in read_log_files(str(root)).take_all())
    assert got == want


def _inventory(new_shape: bool):
    return {"all": {
        "hosts": {"controller0": {"nodepool": {
            "host_id": "h" * 40, "cloud": "rax", "region": "DFW"}}},
        "vars": {"zuul": {
            "project": {"name": "openstack/nova"} if new_shape
            else "openstack/nova",
            "pipeline": "gate", "voting": 1, "buildset": "bs1",
            "branch": "master", "change": "812345", "patchset": "3",
            "executor": {"hostname": "ze01.opendev.org"},
            "change_url": "https://review.opendev.org/812345",
        }}}}


def _buildinfo(new_shape: bool):
    return {
        "uuid": "abc", "job_name": "tempest-full", "result": "SUCCESS",
        "branch": "master", "project": "openstack/nova",
        "change": 812345, "patchset": "3",
        "ref": ({"ref": "refs/changes/45/812345/3"} if new_shape
                else "refs/changes/45/812345/3"),
        "ref_url": "https://review.opendev.org/812345",
        "buildset": ({"uuid": "bs1"} if new_shape else "bs1"),
        "log_url": "https://storage.example/logs/1/abc/",
        "tenant": "openstack", "end_time": "2022-03-25T17:40:37",
    }


@pytest.mark.parametrize("new_shape", [False, True])
def test_normalize_build_fields_matches_reference(new_shape):
    inv, bi = _inventory(new_shape), _buildinfo(new_shape)
    got = normalize_build_fields(bi, inv)
    want = ref.make_fields(inv, bi)
    want = {k: (None if v == "" and k == "build_change" else v)
            for k, v in want.items()}
    for k, v in want.items():
        assert got[k] == v, (k, got[k], v)


def test_normalize_build_fields_aborted_empty_inventory():
    bi = {"uuid": "u", "job_name": "j", "result": "ABORTED",
          "ref": "r", "log_url": None, "tenant": "t"}
    got = normalize_build_fields(bi, {})
    want = ref.make_fields({}, bi)
    assert got["build_status"] == "ABORTED"
    assert got["hosts_id"] == want["hosts_id"] == []
    assert got["build_set"] == want["build_set"] == "NONE"
    assert got["voting"] == want["voting"] == 2


def test_fetch_build_meta_distributed(ray_session, tmp_path):
    """One row per build, and each inventory fetched exactly once (the
    fetch runs in Ray workers, so GETs are counted in a file)."""
    inv_yaml = json.dumps(_inventory(True)).encode()  # JSON ⊂ YAML
    log = str(tmp_path / "gets.log")

    def make_get(url):
        with open(log, "a") as f:
            f.write(url + "\n")
        if url.endswith("zuul-info/inventory.yaml"):
            return inv_yaml
        return None

    builds = [dict(_buildinfo(True), uuid=f"b{i}",
                   log_url=f"https://storage.example/logs/{i}/")
              for i in range(9)]
    builds += [_buildinfo(True), {
        "uuid": "dead", "job_name": "j2", "result": "ABORTED",
        "ref": "r", "log_url": None, "tenant": "t",
        "end_time": "2022-03-25T17:41:00"}]
    meta = fetch_build_meta(builds, lambda: make_get)
    assert meta.num_rows == 11
    rows = {r["build_uuid"]: r for r in meta.to_pylist()}
    assert rows["abc"]["project"] == "openstack/nova"
    assert rows["abc"]["hosts_region"] == ["rax-DFW"]
    assert rows["abc"]["build_change"] == 812345
    assert rows["dead"]["build_status"] == "ABORTED"
    assert rows["dead"]["hosts_id"] == []
    with open(log) as f:
        gets = sorted(f.read().split())
    assert gets == sorted(b["log_url"] + "zuul-info/inventory.yaml"
                          for b in builds if b["log_url"])


def test_run_live_end_to_end_and_idempotent(ray_session, tmp_path):
    """S1->S12 from fake HTTP fixtures to routed counts: version gate,
    jobs intersection, paginated listing, anti-join vs manifests,
    distributed fetch (.gz twin), parse/enrich/route, per-sink fan-out
    write, per-build manifest commit.  A second identical run is a
    no-op (n_pending == 0) with identical cumulative counts."""
    import glob as _glob

    import pyarrow.parquet as _pq

    from ci_log_processing_ray.config import PipelineConfig
    from ci_log_processing_ray.pipelines.live import run_live

    zuul_url = "https://zuul.example/api"
    log_url = "https://storage.example/logs/1/abc/"
    site = _site(log_url)
    builds_page = [
        {"uuid": "abc", "log_url": log_url, "result": "SUCCESS",
         "end_time": "2022-03-25T17:40:40", "job_name": "tox"},
        {"uuid": "dead", "log_url": None, "result": "ABORTED",
         "end_time": "2022-03-25T17:41:00", "job_name": "tox"},
    ]
    calls = []

    def get_json(url):
        calls.append(url)
        if url.endswith("/status"):
            return {"zuul_version": "4.10.2-1.el7"}
        if url.endswith("/jobs"):
            return [{"name": "tox"}, {"name": "other"}]
        if "/builds?" in url:
            assert "&complete=true" in url  # M17 gate wired through
            skip = int(url.rsplit("skip=", 1)[1])
            return builds_page[skip:]
        raise AssertionError(url)

    out = str(tmp_path / "live_out")
    cfg = PipelineConfig()
    res1 = run_live(get_json, lambda: site.get, zuul_url, out, cfg,
                    job_names=["tox", "missing-job"], max_builds=10)
    assert res1.n_pending == 2
    assert len(res1.manifests) == 2
    total1 = {(r["sink"], r["severity"]): r["doc_count"]
              for r in res1.counts.to_pylist()}
    assert sum(total1.values()) > 0

    # every routed row landed under a per-build partition dir and the
    # files agree with the count partials
    files = _glob.glob(os.path.join(out, "routed", "part-build-*",
                                    "sink=*", "*.parquet"))
    assert files
    assert sum(_pq.read_metadata(f).num_rows for f in files) == \
        sum(total1.values())
    # the aborted build synthesized its custom-result doc
    dead_files = [f for f in files if "part-build-dead-" in f]
    assert sum(_pq.read_metadata(f).num_rows for f in dead_files) == 1
    # every routed file carries the sink as a data column, equal to
    # its sink= directory
    for f in files:
        sink_dir = os.path.basename(os.path.dirname(f))[len("sink="):]
        assert set(_pq.read_table(f, columns=["sink_name"])[
            "sink_name"].to_pylist()) == {sink_dir}, f
    # the per-build manifests are the tick's only record, as in a batch
    # run, so --live --monitoring-port folds them
    from ci_log_processing_ray.state.monitoring import Monitoring

    per_sink1 = {}
    for (s, _), c in total1.items():
        per_sink1[s] = per_sink1.get(s, 0) + c
    assert not os.path.exists(os.path.join(out, "metrics"))
    mon = Monitoring(out)
    assert mon.refresh_from_dir() == 2
    body = mon.render().splitlines()
    assert "cilog_partitions_total 2" in body
    assert "cilog_batches_total 1" in body
    assert f"cilog_docs_total {sum(total1.values())}" in body
    for s, c in per_sink1.items():
        assert f'cilog_docs_per_sink_total{{sink="{s}"}} {c}' in body

    # second run: anti-join vs committed manifests -> nothing pending,
    # cumulative per-sink counts unchanged
    res2 = run_live(get_json, lambda: site.get, zuul_url, out, cfg,
                    job_names=["tox"], max_builds=10)
    assert res2.n_pending == 0
    got2 = {r["sink"]: r["doc_count"] for r in res2.counts.to_pylist()}
    assert got2 == per_sink1


def test_run_live_resumes_builds_keyed_by_zuul_id(ray_session, tmp_path):
    """Zuul's /builds carries an ``_id`` beside each uuid.  The anti-join
    key and the committed partition id derive from the same key, so a
    second tick over the same listing has nothing pending."""
    from ci_log_processing_ray.pipelines.live import run_live

    get_json, site = _live_site(2, first_id=1000)
    out = str(tmp_path / "out")
    assert run_live(get_json, lambda: site.get, ZUUL, out).n_pending == 2
    res = run_live(get_json, lambda: site.get, ZUUL, out)
    assert res.n_pending == 0
    assert res.n_skipped == 2


_ONE_CPU_TICK = """
import sys

import ray

ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ci_log_processing_ray.pipelines.live import run_live
from test_zuul import ZUUL, _live_site

get_json, site = _live_site(2)
print(run_live(get_json, lambda: site.get, ZUUL, sys.argv[1]).n_pending)
"""


def test_run_live_on_one_ray_cpu(tmp_path):
    """A live tick holds no Ray CPU while it waits on another task, so
    it completes on a one-CPU cluster, in its own Ray session."""
    import contextlib
    import signal
    import subprocess
    import sys

    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, RAY_ADDRESS="local", PYTHONPATH=os.pathsep.join(
        [os.path.dirname(tests), tests, os.environ.get("PYTHONPATH", "")]))
    # its own process group, so a hung tick's Ray processes die with it
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_TICK, str(tmp_path / "out")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == 0, stderr[-2000:]
    assert stdout.split()[-1] == "2"


def test_cli_live_follow_polls(ray_session, tmp_path, monkeypatch, capsys):
    """``--live --follow`` polls like the batch ``--follow``: ``--ticks``
    live ticks ``--wait-time`` apart, the last one finding the builds
    committed by the first."""
    from ci_log_processing_ray import cli
    from ci_log_processing_ray.state.manifest import ManifestStore

    get_json, site = _live_site(2)
    monkeypatch.setattr(cli, "_urllib_get_json", get_json)
    monkeypatch.setattr(cli, "_urllib_fetcher_factory", lambda: site.get)
    out = str(tmp_path / "out")
    assert cli.main(["--live", "--zuul-url", ZUUL, "--out", out,
                     "--follow", "--ticks", "2", "--wait-time", "0"]) == 0
    got = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert got["ticks"] == 2
    assert got["n_pending"] == 0
    assert len(ManifestStore(os.path.join(out, "manifests")).all()) == 2
