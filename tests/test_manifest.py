"""Manifest store reads and the commit tail's manifest fields.

Each process keeps one snapshot per store dir, which the store's own
commits keep current; these tests pin that a read parses only what
changed, that an idle read of a settled store is one dir ``stat``, and
that every change the contract covers leaves the next read equal to a
fresh parse.  ``summarize_partials`` turns the writer's count partials
into each partition's manifest fields.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pyarrow as pa
import pytest

from ci_log_processing_ray.pipelines.flagship import (
    _PARTIAL_SCHEMA,
    make_fanout_writer,
    summarize_partials,
    write_and_commit,
)
from ci_log_processing_ray.state.manifest import (
    Manifest,
    ManifestStore,
    pending_inputs,
)


def _manifest(i: int, row_count: int = 10, committed_at: float = 1.0) -> Manifest:
    return Manifest(partition_id=f"in-{i:03d}.parquet-{i:016x}",
                    input_path=f"/in/in-{i:03d}.parquet", row_count=row_count,
                    per_sink_counts={"logstash": row_count},
                    token_checksum="0" * 16, committed_at=committed_at)


def _backdate(store_dir: str, t: float) -> None:
    for f in os.listdir(store_dir):
        os.utime(os.path.join(store_dir, f), (t, t))


def _settle(store_dir: str) -> None:
    """Backdate every file, then the dir itself, past the racy window."""
    t = time.time() - 10
    _backdate(store_dir, t)
    os.utime(store_dir, (t, t))


def _mixed(i: int, rows: int = 1) -> Manifest:
    """A manifest whose sinks depend on ``i``: perf for odd ``i``."""
    sinks = ({"perf": rows} if i % 2 else
             {"logstash": i * rows, "subunit": rows})
    return dataclasses.replace(_manifest(i), row_count=sum(sinks.values()),
                               per_sink_counts=sinks)


def _fresh(store_dir: str) -> list[Manifest]:
    """Every manifest file parsed from scratch, in partition-id order."""
    out = []
    for pid in sorted(f[: -len(".json")] for f in os.listdir(store_dir)):
        with open(os.path.join(store_dir, pid + ".json")) as f:
            out.append(Manifest(**json.load(f)))
    return out


def _count_loads(monkeypatch) -> list[str]:
    calls: list[str] = []
    load = ManifestStore.load

    def counting(self, pid):
        calls.append(pid)
        return load(self, pid)

    monkeypatch.setattr(ManifestStore, "load", counting)
    return calls


def test_all_parses_only_changed_manifests(tmp_path, monkeypatch):
    d = str(tmp_path / "manifests")
    store = ManifestStore(d)
    for i in range(50):
        store.commit(_manifest(i))
    _backdate(d, time.time() - 10)
    loads = _count_loads(monkeypatch)

    assert ManifestStore(d).all() == _fresh(d)
    assert len(loads) == 50
    loads.clear()
    assert ManifestStore(d).all() == _fresh(d)
    assert loads == []

    store.commit(_manifest(50))  # new
    store.commit(_manifest(7, committed_at=2.0))  # re-committed, same size
    os.unlink(os.path.join(d, _manifest(9).partition_id + ".json"))
    got = ManifestStore(d).all()
    assert sorted(loads) == [_manifest(7).partition_id,
                             _manifest(50).partition_id]
    assert got == _fresh(d)
    assert len(got) == 50 and got[7].committed_at == 2.0


def test_all_rereads_a_young_file_rewritten_in_place(tmp_path):
    """Racy-clean rule: a file rewritten within one timestamp tick keeps
    its (inode, size, mtime); it is young, so all() must not have
    memoized it."""
    d = str(tmp_path / "manifests")
    store = ManifestStore(d)
    store.commit(_manifest(0, row_count=10))
    assert store.all()[0].row_count == 10

    path = os.path.join(d, _manifest(0).partition_id + ".json")
    st = os.stat(path)
    with open(path, "r+") as f:
        f.write(json.dumps(dataclasses.asdict(_manifest(0, row_count=11)),
                           sort_keys=True))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        st.st_ino, st.st_size, st.st_mtime_ns)

    assert store.all()[0].row_count == 11

    # the same on a trusted snapshot that the store's own commit keeps
    _settle(d)
    assert store.all()[0].row_count == 11
    store.commit(_manifest(1, row_count=5))
    assert store.sink_totals() == {"logstash": 16}
    path = os.path.join(d, _manifest(1).partition_id + ".json")
    st = os.stat(path)
    with open(path, "r+") as f:
        f.write(json.dumps(dataclasses.asdict(_manifest(1, row_count=6)),
                           sort_keys=True))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert store.all()[1].row_count == 6
    assert store.sink_totals() == {"logstash": 17}


def test_rescan_of_a_young_dir_is_not_trusted(tmp_path):
    """Racy-clean rule for the dir: an outside change in the timestamp
    tick of a rescan keeps the dir's identity (simulated here by
    restoring the dir's mtime), so a rescan of a young dir must not be
    answered from."""
    d = str(tmp_path / "manifests")
    store = ManifestStore(d)
    for i in range(3):
        store.commit(_manifest(i))
    os.unlink(os.path.join(d, _manifest(2).partition_id + ".json"))
    assert len(store.all()) == 2  # a rescan of a young dir

    before = os.stat(d)
    with open(os.path.join(d, _manifest(7).partition_id + ".json"), "w") as f:
        f.write(json.dumps(dataclasses.asdict(_manifest(7)), sort_keys=True))
    os.utime(d, ns=(before.st_atime_ns, before.st_mtime_ns))
    _assert_fresh(store)
    assert len(store.all()) == 3


def test_all_sees_a_store_recreated_at_the_same_path(tmp_path):
    """The backfill loop removes its output dir and rebuilds it: the
    memo of the old store must not answer for the new one, whether the
    new files differ from the old in mtime or in size."""
    d = str(tmp_path / "manifests")
    t0 = time.time()

    def recreate(row_count: int, mtime: float) -> ManifestStore:
        shutil.rmtree(d, ignore_errors=True)
        store = ManifestStore(d)
        for i in range(5):
            store.commit(_manifest(i, row_count=row_count))
        _backdate(d, mtime)
        return store

    assert [m.row_count for m in recreate(10, t0 - 10).all()] == [10] * 5
    # same sizes, other mtimes
    assert [m.row_count for m in recreate(20, t0 - 5).all()] == [20] * 5
    # same mtimes, other sizes
    store = recreate(300, t0 - 5)
    assert [m.row_count for m in store.all()] == [300] * 5
    assert store.all() == _fresh(d)


def _assert_fresh(store: ManifestStore) -> None:
    """Every read of ``store`` equals a fresh parse of its files."""
    want = _fresh(store.dir)
    totals: dict[str, int] = {}
    for m in want:
        for sink, c in m.per_sink_counts.items():
            totals[sink] = totals.get(sink, 0) + c
    assert store.all() == want
    assert store.sink_totals() == totals
    assert list(store.sink_totals()) == sorted(totals)
    assert store.committed_ids() == {m.partition_id for m in want}


def _settled_store(tmp_path, n: int = 20) -> ManifestStore:
    store = ManifestStore(str(tmp_path / "manifests"))
    for i in range(n):
        store.commit(_mixed(i))
    _settle(store.dir)
    _assert_fresh(store)  # a trusted snapshot of the settled dir
    return store


def test_own_commits_and_removes_keep_reads_fresh(tmp_path):
    store = _settled_store(tmp_path)
    store.commit(_mixed(20))  # new
    store.commit(_mixed(3, rows=5))  # replaced
    _assert_fresh(store)
    for i in range(1, 21, 2):  # every perf manifest: the sink goes
        store.remove(_mixed(i).partition_id)
    store.remove("never-committed")
    _assert_fresh(store)
    assert "perf" not in store.sink_totals()


def test_outside_unlink_is_seen(tmp_path):
    store = _settled_store(tmp_path)
    os.unlink(os.path.join(store.dir, _mixed(4).partition_id + ".json"))
    _assert_fresh(store)
    assert len(store.all()) == 19


def test_commit_by_another_process_is_seen(tmp_path):
    store = _settled_store(tmp_path)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys\n"
            "from ci_log_processing_ray.state.manifest import (\n"
            "    Manifest, ManifestStore)\n"
            "ManifestStore(sys.argv[1]).commit(Manifest(\n"
            "    partition_id='from-child', input_path='/in/child',\n"
            "    row_count=3, per_sink_counts={'child': 3}))\n")
    subprocess.run([sys.executable, "-c", code, store.dir], check=True,
                   cwd=root, timeout=120,
                   env={**os.environ, "PYTHONPATH": root})
    _assert_fresh(store)
    assert store.sink_totals()["child"] == 3


class Crash(Exception):
    pass


def test_crash_right_after_the_rename_leaves_reads_fresh(tmp_path,
                                                         monkeypatch):
    """The manifest is in place but the commit never returns: no
    snapshot may answer for the dir as it was before."""
    store = _settled_store(tmp_path)
    real = os.replace

    def replace_then_crash(src, dst):
        real(src, dst)
        raise Crash(dst)

    monkeypatch.setattr(os, "replace", replace_then_crash)
    with pytest.raises(Crash):
        store.commit(_mixed(5, rows=7))
    monkeypatch.undo()
    _assert_fresh(store)
    assert store.sink_totals()["perf"] == 9 + 7


def test_idle_read_of_a_settled_store_is_one_dir_stat(tmp_path, monkeypatch):
    """O(1) in history: once the snapshot is current, each read makes
    one ``stat`` (of the dir) and parses nothing."""
    store = _settled_store(tmp_path, n=50)
    paths = [m.input_path for m in _fresh(store.dir)] + ["/in/new.parquet"]
    loads = _count_loads(monkeypatch)
    stats: list[str] = []
    real = os.stat

    def counting(path, *a, **kw):
        stats.append(path)
        return real(path, *a, **kw)

    monkeypatch.setattr(os, "stat", counting)
    for read in (store.all, store.sink_totals, store.committed_ids,
                 lambda: pending_inputs(paths, store)):
        stats.clear()
        read()
        assert stats == [store.dir]
    assert loads == []


def test_in_place_rewrite_of_a_settled_manifest_waits_for_a_dir_change(
        tmp_path):
    """The documented limit: rewriting a settled manifest in place
    changes no dir identity, so reads keep the old content until a
    change made outside the store's own calls touches the dir."""
    store = ManifestStore(str(tmp_path / "manifests"))
    for i in range(3):
        store.commit(_manifest(i, row_count=10))
    _settle(store.dir)
    assert store.all()[0].row_count == 10

    path = os.path.join(store.dir, _manifest(0).partition_id + ".json")
    with open(path, "r+") as f:
        f.write(json.dumps(dataclasses.asdict(_manifest(0, row_count=11)),
                           sort_keys=True))
    assert store.all()[0].row_count == 10
    store.commit(_manifest(1, row_count=12))  # the store's own write
    assert store.all()[0].row_count == 10

    os.unlink(os.path.join(store.dir, _manifest(2).partition_id + ".json"))
    assert store.all()[0].row_count == 11
    _assert_fresh(store)


def test_a_read_waits_for_the_commit_in_flight(tmp_path, monkeypatch):
    """A read from another thread is held off while a commit has its
    file written but not yet renamed into place, and then sees it."""
    store = _settled_store(tmp_path)
    entered, release = threading.Event(), threading.Event()
    real = os.replace

    def held_replace(src, dst):
        entered.set()
        release.wait(60)
        real(src, dst)

    monkeypatch.setattr(os, "replace", held_replace)
    writer = threading.Thread(target=store.commit, args=(_mixed(99),))
    writer.start()
    assert entered.wait(60)
    got: list[list[Manifest]] = []
    reader = threading.Thread(
        target=lambda: got.append(ManifestStore(store.dir).all()))
    reader.start()
    reader.join(0.5)
    held = reader.is_alive()
    release.set()
    writer.join(60)
    reader.join(60)
    assert held and not writer.is_alive() and not reader.is_alive()
    monkeypatch.undo()
    assert got == [_fresh(store.dir)] and len(got[0]) == 21


def test_reads_from_another_thread_while_committing(tmp_path):
    """The ``/metrics`` scrape thread reads the store while the loop
    commits and removes: no read fails, and the end state is exact."""
    store = ManifestStore(str(tmp_path / "manifests"))
    stop = threading.Event()
    errors: list[BaseException] = []
    reads = [0]

    def reader():
        try:
            while not stop.is_set():
                ManifestStore(store.dir).all()
                ManifestStore(store.dir).sink_totals()
                reads[0] += 1
        except BaseException as e:  # noqa: BLE001 (reported below)
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    t = threading.Thread(target=reader, daemon=True)
    try:
        t.start()
        for i in range(500):
            store.commit(_mixed(i, rows=i % 7 + 1))
            if i % 3 == 2:
                store.remove(_mixed(i // 2).partition_id)
    finally:
        stop.set()
        t.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not t.is_alive()
    assert errors == [] and reads[0] > 0
    _assert_fresh(store)


def _checksum(rows) -> str:
    """The manifest token checksum formula over (sink, severity,
    doc_count, tok_sum) rows."""
    return hashlib.sha256(
        json.dumps(sorted(rows), default=str).encode()).hexdigest()[:16]


def test_summarize_partials_merges_blocks_and_keeps_empty_partitions():
    block = lambda rows: pa.table(  # noqa: E731
        dict(zip(_PARTIAL_SCHEMA.names, map(list, zip(*rows)))),
        schema=_PARTIAL_SCHEMA)
    # partition 0 spans two blocks; partition 1 routed no rows
    partials = pa.concat_tables([
        block([(0, "logstash", "INFO", 2, 20), (2, "subunit", "NONE", 1, 9)]),
        block([(0, "logstash", "INFO", 3, 30), (0, "logstash", "ERROR", 1, 5),
               (0, "perf", "NONE", 1, 7)]),
    ])

    summaries, counts = summarize_partials(partials, 3)

    assert summaries == [
        (7, {"logstash": 6, "perf": 1},
         _checksum([("logstash", "INFO", 5, 50), ("logstash", "ERROR", 1, 5),
                    ("perf", "NONE", 1, 7)])),
        (0, {}, _checksum([])),
        (1, {"subunit": 1}, _checksum([("subunit", "NONE", 1, 9)])),
    ]
    assert summaries[1][2] == hashlib.sha256(b"[]").hexdigest()[:16]
    assert counts.to_pylist() == [
        {"sink": "logstash", "severity": "ERROR", "doc_count": 1, "tok_sum": 5},
        {"sink": "logstash", "severity": "INFO", "doc_count": 5, "tok_sum": 50},
        {"sink": "perf", "severity": "NONE", "doc_count": 1, "tok_sum": 7},
        {"sink": "subunit", "severity": "NONE", "doc_count": 1, "tok_sum": 9},
    ]


def test_write_and_commit_on_an_empty_dataset(ray_session, tmp_path):
    """No block comes back: every partition still commits an empty
    manifest and the counts table keeps its columns."""
    import ray.data

    routed = ray.data.from_arrow(pa.table({
        "_partition": pa.array([], pa.int32()),
        "doc_id": pa.array([], pa.string()),
        "sink": pa.array([], pa.string()),
        "severity": pa.array([], pa.string()),
        "n_tok": pa.array([], pa.int32()),
    }))
    out = str(tmp_path / "out")
    store = ManifestStore(os.path.join(out, "manifests"))
    res = write_and_commit(
        lambda staging: routed.map_batches(
            make_fanout_writer(staging, ["a", "b"]), batch_format="pyarrow",
        ).iter_batches(batch_format="pyarrow", batch_size=None),
        out, store, ["a", "b"], ["/in/a", "/in/b"])

    assert [(m.partition_id, m.row_count, m.per_sink_counts, m.token_checksum)
            for m in store.all()] == [
        ("a", 0, {}, _checksum([])), ("b", 0, {}, _checksum([]))]
    assert res.counts.num_rows == 0
    assert res.counts.schema.names == ["sink", "severity", "doc_count",
                                       "tok_sum"]
