"""Manifest store reads and the commit tail's manifest fields.

``ManifestStore.all()`` memoizes settled manifests by stat identity; these
tests pin that it parses only what changed and never serves stale content.
``summarize_partials`` turns the writer's count partials into each
partition's manifest fields.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import time

import pyarrow as pa

from ci_log_processing_ray.pipelines.flagship import (
    _PARTIAL_SCHEMA,
    make_fanout_writer,
    summarize_partials,
    write_and_commit,
)
from ci_log_processing_ray.state.manifest import Manifest, ManifestStore


def _manifest(i: int, row_count: int = 10, committed_at: float = 1.0) -> Manifest:
    return Manifest(partition_id=f"in-{i:03d}.parquet-{i:016x}",
                    input_path=f"/in/in-{i:03d}.parquet", row_count=row_count,
                    per_sink_counts={"logstash": row_count},
                    token_checksum="0" * 16, committed_at=committed_at)


def _backdate(store_dir: str, t: float) -> None:
    for f in os.listdir(store_dir):
        os.utime(os.path.join(store_dir, f), (t, t))


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
            make_fanout_writer(staging, ["a", "b"]), batch_format="pyarrow"),
        out, store, ["a", "b"], ["/in/a", "/in/b"])

    assert [(m.partition_id, m.row_count, m.per_sink_counts, m.token_checksum)
            for m in store.all()] == [
        ("a", 0, {}, _checksum([])), ("b", 0, {}, _checksum([]))]
    assert res.counts.num_rows == 0
    assert res.counts.schema.names == ["sink", "severity", "doc_count",
                                       "tok_sum"]
