"""Crash recovery of the pipeline tail, under injected failures.

A crash is injected at a commit point of ``write_and_commit`` (the
k-th ``os.rename`` of a staged partition, or the k-th
``ManifestStore.commit``), or the on-disk state a worker that died
mid-write leaves is built by hand.  A re-run must then converge on a
clean run: the same routed rows and per-sink counts, every manifest
loadable, ``/metrics`` totals equal to the sum over the manifests, and
no ``.staging`` dir left, even when the re-run has nothing pending.  No
crash hook lives in library code: the tests patch the calls made outside
the Ray workers with ``monkeypatch``.  A fault INSIDE a worker rides in
a test-side wrapper around the block function the driver ships to its
tasks: a worker that dies mid-tick, and a task that raises, on the batch
tick and on the live tick alike.
"""

import glob
import os
import time

import pyarrow.parquet as pq
import pytest
from conftest import tree_bytes

from ci_log_processing_ray.config import PipelineConfig
from ci_log_processing_ray.pipelines import flagship, live
from ci_log_processing_ray.pipelines.flagship import run_pipeline
from ci_log_processing_ray.pipelines.live import run_live
from ci_log_processing_ray.state.manifest import ManifestStore, partition_id
from ci_log_processing_ray.state.monitoring import Monitoring

CFG = PipelineConfig(skip_debug=True)
ZUUL = "https://zuul.example/api"


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
            "pids": sorted(m.partition_id for m in manifests),
            "routed": tree_bytes(os.path.join(out, "routed"))}


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


def _fault_in_block(monkeypatch, fault):
    """Make every block function the driver ships call ``fault(block)``
    before the real one.  The wrapper is a closure, so it is pickled by
    value and runs in the Ray worker.  ``live`` imports the name, so it
    is patched there too."""
    real = flagship.make_block_fn

    def make(*args, **kwargs):
        block = real(*args, **kwargs)

        def faulty(t):
            fault(t)
            return block(t)

        return faulty

    for module in (flagship, live):
        monkeypatch.setattr(module, "make_block_fn", make)


def _live_tick(n):
    """The partition keys of a live tick over n fake builds, and a
    function running that tick into an out dir."""
    from test_zuul import _live_site

    get_json, site = _live_site(n)
    return ([f"zuul://b{i}" for i in range(n)],
            lambda out: run_live(get_json, lambda: site.get, ZUUL, out, CFG))


def _check_worker_death_is_retried(run, tmp_path, monkeypatch):
    clean_out = str(tmp_path / "clean")
    assert run(clean_out).n_pending == 2
    marker = str(tmp_path / "died")

    def die_once(t):
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)

    _fault_in_block(monkeypatch, die_once)
    out = str(tmp_path / "out")
    assert run(out).n_pending == 2
    assert os.path.exists(marker)  # a worker did die
    assert _outcome(out) == _outcome(clean_out)


def test_worker_death_mid_tick_is_retried(ray_session, three_inputs,
                                          tmp_path, monkeypatch):
    """A worker that dies inside the block function (``os._exit``) is
    replaced and its file re-run: the tick completes with a clean run's
    routed bytes, counts and manifests."""
    paths, meta = three_inputs
    _check_worker_death_is_retried(
        lambda out: run_pipeline(paths[:2], meta, out, CFG), tmp_path,
        monkeypatch)


def test_live_worker_death_mid_tick_is_retried(ray_session, tmp_path,
                                               monkeypatch):
    """The same worker death inside a live tick's build task: the build
    is fetched and written again, and the tick converges on a clean
    one."""
    _check_worker_death_is_retried(_live_tick(2)[1], tmp_path, monkeypatch)


def _check_raising_task_fails_cleanly(keys, run, want, tmp_path,
                                      monkeypatch):
    bad = keys[1]

    def raise_or_linger(t):
        if t["path"][0].as_py() == bad:
            raise ValueError("injected fault")
        # without cancel-and-wait these writes would land after the
        # tick raised, inside the quiet second checked below
        time.sleep(0.5)

    def staged():
        return [(f, os.stat(f).st_mtime_ns) for f in sorted(glob.glob(
            os.path.join(out, ".staging", "**"), recursive=True))]

    _fault_in_block(monkeypatch, raise_or_linger)
    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match="injected fault"):
        run(out)
    before = staged()
    time.sleep(1)
    assert staged() == before
    assert not glob.glob(os.path.join(out, "manifests", "*"))

    monkeypatch.undo()
    assert run(out).n_pending == 3
    assert _outcome(out) == want


def test_raising_task_fails_the_tick_cleanly(ray_session, three_inputs,
                                             clean, tmp_path, monkeypatch):
    """One file's task raises while the other two are still running: the
    tick raises that error, commits no manifest, and returns only once
    no task of it can still write into the staging tree.  A re-run
    without the fault converges on a clean run."""
    paths, meta = three_inputs
    _check_raising_task_fails_cleanly(
        paths, lambda out: run_pipeline(paths, meta, out, CFG), clean,
        tmp_path, monkeypatch)


def test_live_raising_task_fails_the_tick_cleanly(ray_session, tmp_path,
                                                  monkeypatch):
    """The same raising task inside a live tick: one build's task
    raises while the other two linger."""
    keys, run = _live_tick(3)
    clean_out = str(tmp_path / "clean")
    assert run(clean_out).n_pending == 3
    _check_raising_task_fails_cleanly(keys, run, _outcome(clean_out),
                                      tmp_path, monkeypatch)


@pytest.mark.parametrize("k, after", [(1, False), (2, False), (3, True)],
                         ids=["commit1", "commit2", "after-last"])
def test_live_rerun_after_crash_converges(ray_session, tmp_path,
                                          monkeypatch, k, after):
    from test_zuul import _live_site

    get_json, site = _live_site()
    clean_out = str(tmp_path / "clean")
    assert run_live(get_json, lambda: site.get, ZUUL, clean_out,
                    CFG).n_pending == 3
    want = _outcome(clean_out)
    assert len(want["pids"]) == 3

    out = str(tmp_path / "out")
    _crash_on(monkeypatch, ManifestStore, "commit", k, after=after)
    with pytest.raises(Crash):
        run_live(get_json, lambda: site.get, ZUUL, out, CFG)
    res = run_live(get_json, lambda: site.get, ZUUL, out, CFG)
    assert res.n_pending == {1: 3, 2: 2, 3: 0}[k]
    assert _outcome(out) == want
