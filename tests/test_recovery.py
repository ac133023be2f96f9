"""Crash recovery of the pipeline tail, under injected failures.

A crash is injected at a commit point of ``write_and_commit`` (the
k-th ``os.rename`` of a staged partition, or the k-th
``ManifestStore.commit``), or the on-disk state a worker that died
mid-write leaves is built by hand.  A re-run must then converge on a
clean run: the same routed rows and per-sink counts, every manifest
loadable, ``/metrics`` totals equal to the sum over the manifests, and
no ``.staging`` dir left, even when the re-run has nothing pending.  No
crash hook lives in library code: the tests patch the calls made outside
the Ray workers with ``monkeypatch``.
"""

import glob
import os

import pyarrow.parquet as pq
import pytest

from ci_log_processing_ray.config import PipelineConfig
from ci_log_processing_ray.pipelines.flagship import run_pipeline
from ci_log_processing_ray.state.manifest import ManifestStore, partition_id
from ci_log_processing_ray.state.monitoring import Monitoring

CFG = PipelineConfig(skip_debug=True)


class Crash(Exception):
    pass


def _crash_on(monkeypatch, owner, name, k, *, after=False):
    """Make ``owner.name`` raise on its k-th call: before doing its work,
    or (``after``) once it is done.  Only calls that touch the
    pipeline's staging dir count for ``os.rename``."""
    real = getattr(owner, name)
    calls = []

    def armed(*args, **kwargs):
        if name == "rename" and "/.staging/" not in str(args[0]):
            return real(*args, **kwargs)
        calls.append(args)
        if len(calls) == k and not after:
            raise Crash(f"{name} #{k}")
        out = real(*args, **kwargs)
        if len(calls) == k and after:
            raise Crash(f"{name} #{k} (after)")
        return out

    monkeypatch.setattr(owner, name, armed)


def _outcome(out):
    """Everything a converged run must agree on, read from disk."""
    files = sorted(glob.glob(os.path.join(out, "routed", "**", "*"),
                             recursive=True))
    parquet = [f for f in files if f.endswith(".parquet")]
    assert len(parquet) == len([f for f in files if os.path.isfile(f)]), \
        files  # no *.tmp-* leftovers next to the routed files
    rows = sorted(repr(sorted(r.items()))
                  for f in parquet for r in pq.read_table(f).to_pylist())
    mdir = os.path.join(out, "manifests")
    assert all(f.endswith(".json") for f in os.listdir(mdir))
    store = ManifestStore(mdir)
    manifests = [store.load(f[: -len(".json")])
                 for f in sorted(os.listdir(mdir))]
    assert all(m is not None for m in manifests)
    per_sink = {}
    for m in manifests:
        for sink, c in m.per_sink_counts.items():
            per_sink[sink] = per_sink.get(sink, 0) + c
    docs = sum(m.row_count for m in manifests)
    assert docs == sum(per_sink.values()) == len(rows)

    mon = Monitoring(out)
    mon.refresh_from_dir()
    body = mon.render().splitlines()
    assert f"cilog_docs_total {docs}" in body
    assert f"cilog_partitions_total {len(manifests)}" in body
    for sink, c in per_sink.items():
        assert f'cilog_docs_per_sink_total{{sink="{sink}"}} {c}' in body

    # the manifests are the only run record, and nothing stays staged
    assert not os.path.exists(os.path.join(out, "metrics"))
    assert not os.path.exists(os.path.join(out, ".staging"))
    return {"rows": rows, "per_sink": per_sink,
            "pids": sorted(m.partition_id for m in manifests)}


@pytest.fixture(scope="module")
def three_inputs(corpus_dir, tmp_path_factory):
    """3 input partitions cut from the shared corpus."""
    _, info = corpus_dir
    in_dir = tmp_path_factory.mktemp("inputs")
    tbl = pq.read_table(info["paths"]["token_sequences"])
    third = len(tbl) // 3
    paths = []
    for i in range(3):
        p = str(in_dir / f"in-{i}.parquet")
        pq.write_table(tbl.slice(i * third, third if i < 2 else None), p)
        paths.append(p)
    return paths, info["paths"]["build_meta"]


@pytest.fixture(scope="module")
def clean(ray_session, three_inputs, tmp_path_factory):
    paths, meta = three_inputs
    out = str(tmp_path_factory.mktemp("clean"))
    assert run_pipeline(paths, meta, out, CFG).n_pending == 3
    return _outcome(out)


@pytest.mark.parametrize("owner, name, k, after, pending", [
    # after the first partition's rename, before its manifest
    ("store", "commit", 1, False, 3),
    # the second partition's move into place fails
    ("os", "rename", 2, False, 2),
    # during the second manifest commit: /metrics must still count all
    # 3 partitions and every doc of the clean run after the re-run
    ("store", "commit", 2, False, 2),
    # after the last manifest, before the staging dir is cleared
    ("store", "commit", 3, True, 0),
], ids=["rename1-before-manifest", "rename2", "commit2", "after-last"])
def test_rerun_after_crash_converges(ray_session, three_inputs, clean,
                                     tmp_path, monkeypatch,
                                     owner, name, k, after, pending):
    paths, meta = three_inputs
    out = str(tmp_path / "out")
    _crash_on(monkeypatch, ManifestStore if owner == "store" else os,
              name, k, after=after)
    with pytest.raises(Crash):
        run_pipeline(paths, meta, out, CFG)
    res = run_pipeline(paths, meta, out, CFG)
    assert res.n_pending == pending
    assert _outcome(out) == clean


def test_dead_worker_leftovers_are_cleared(ray_session, three_inputs, clean,
                                           tmp_path):
    """A worker killed mid-write leaves a half-filled ``part-*.tmp-*``
    file in a staged batch dir; the next tick clears the whole staging
    root, whatever batch digest it was staged under."""
    paths, meta = three_inputs
    out = str(tmp_path / "out")
    d = os.path.join(out, ".staging", "batch-0123456789abcdef",
                     f"part-{partition_id(paths[0])}", "sink=x")
    os.makedirs(d)
    with open(paths[0], "rb") as f:
        half = f.read()[:100]
    with open(os.path.join(d, "part-deadbeef.parquet.tmp-999"), "wb") as f:
        f.write(half)
    assert run_pipeline(paths, meta, out, CFG).n_pending == 3
    assert _outcome(out) == clean
    assert not os.path.exists(os.path.join(out, ".staging"))


def test_no_resume_crash_keeps_partition_pending(ray_session, three_inputs,
                                                 clean, tmp_path,
                                                 monkeypatch):
    """A ``resume=False`` re-run that crashes after removing a
    partition's old output must leave that partition pending, not
    committed over a missing dir: the next resume run restores its
    rows."""
    paths, meta = three_inputs
    out = str(tmp_path / "out")
    run_pipeline(paths, meta, out, CFG)
    _crash_on(monkeypatch, os, "rename", 2)
    with pytest.raises(Crash):
        run_pipeline(paths, meta, out, CFG, resume=False)
    assert run_pipeline(paths, meta, out, CFG).n_pending == 1
    assert _outcome(out) == clean


def _live_site():
    """3 builds on the fake Zuul API of tests/test_zuul.py."""
    from test_zuul import _site

    builds, site = [], {}
    for i in range(3):
        log_url = f"https://storage.example/logs/{i}/b{i}/"
        site.update(_site(log_url))
        builds.append({"uuid": f"b{i}", "log_url": log_url,
                       "result": "SUCCESS", "job_name": "tox",
                       "end_time": "2022-03-25T17:40:40"})

    def get_json(url):
        if url.endswith("/status"):
            return {"zuul_version": "4.10.2-1.el7"}
        if "/builds?" in url:
            return builds[int(url.rsplit("skip=", 1)[1]):]
        raise AssertionError(url)

    return get_json, site


@pytest.mark.parametrize("k, after", [(1, False), (2, False), (3, True)],
                         ids=["commit1", "commit2", "after-last"])
def test_live_rerun_after_crash_converges(ray_session, tmp_path,
                                          monkeypatch, k, after):
    from ci_log_processing_ray.pipelines.live import run_live

    get_json, site = _live_site()
    zuul = "https://zuul.example/api"
    clean_out = str(tmp_path / "clean")
    assert run_live(get_json, lambda: site.get, zuul, clean_out,
                    CFG).n_pending == 3
    want = _outcome(clean_out)
    assert len(want["pids"]) == 3

    out = str(tmp_path / "out")
    _crash_on(monkeypatch, ManifestStore, "commit", k, after=after)
    with pytest.raises(Crash):
        run_live(get_json, lambda: site.get, zuul, out, CFG)
    res = run_live(get_json, lambda: site.get, zuul, out, CFG)
    assert res.n_pending == {1: 3, 2: 2, 3: 0}[k]
    assert _outcome(out) == want
