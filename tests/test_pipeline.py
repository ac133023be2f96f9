"""End-to-end conformance: Ray pipeline output vs the row-at-a-time
reference oracle on the synthetic corpus (north-rule gates: per-sink
count equality, routed-row set equality, token-array equality)."""

import collections
import glob
import os
import tempfile

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from conftest import read_routed, tree_bytes

from ci_log_processing_ray import reference_impl as ref
from ci_log_processing_ray.config import (
    BROKEN_FILES,
    DEFAULT_FILE_CONFIG,
    PipelineConfig,
)
from ci_log_processing_ray.pipelines.flagship import (
    make_block_fn,
    run_pipeline,
)
from ci_log_processing_ray.sources.readers import load_build_meta

CFG = PipelineConfig(skip_debug=True)


@pytest.fixture(scope="module")
def expected(corpus_dir):
    _, info = corpus_dir
    table = pq.read_table(info["paths"]["token_sequences"])
    return table, ref.expected_routed_rows(table, CFG)


def _routed_rows(ray_session, corpus_dir, cfg, paths=None):
    """The rows ``run_pipeline`` writes for ``paths`` (default: the
    corpus's one token-sequence file)."""
    _, info = corpus_dir
    with tempfile.TemporaryDirectory() as out:
        res = run_pipeline(paths or [info["paths"]["token_sequences"]],
                           info["paths"]["build_meta"], out, cfg)
        return read_routed(res.routed_dir)


def test_routed_row_set_equality(ray_session, corpus_dir, expected):
    table, want = expected
    got = _routed_rows(ray_session, corpus_dir, CFG)
    got_set = {(r["sink"], r["doc_id"]) for r in got}
    want_set = {(r["sink"], r["doc_id"]) for r in want}
    assert got_set == want_set, (
        f"missing={list(want_set - got_set)[:5]} extra={list(got_set - want_set)[:5]}")


def test_per_sink_and_severity_counts(ray_session, corpus_dir, expected):
    _, want = expected
    got = _routed_rows(ray_session, corpus_dir, CFG)
    got_counts = collections.Counter((r["sink"], r["severity"]) for r in got)
    want_counts = collections.Counter((r["sink"], r["severity"]) for r in want)
    assert got_counts == want_counts


def test_timestamps_and_messages_match(ray_session, corpus_dir, expected):
    _, want = expected
    got = _routed_rows(ray_session, corpus_dir, CFG)
    got_by_id = {r["doc_id"]: r for r in got}
    for w in want:
        g = got_by_id[w["doc_id"]]
        assert g["ts"] == w["ts"], (w["doc_id"], g["ts"], w["ts"])
        assert g["message"] == w["message"], w["doc_id"]
        assert g["severity"] == w["severity"], w["doc_id"]


def test_token_array_equality(ray_session, corpus_dir, expected):
    table, _ = expected
    got = _routed_rows(ray_session, corpus_dir, CFG)
    orig = dict(zip(table["doc_id"].to_pylist(), table["tokens"].to_pylist()))
    for r in got:
        assert list(r["tokens"]) == orig[r["doc_id"]], r["doc_id"]


def test_batch_fill_equals_grouped_fill(ray_session, corpus_dir):
    batch_rows = _routed_rows(ray_session, corpus_dir, CFG)
    grouped_cfg = PipelineConfig(skip_debug=True, fill_mode="grouped")
    grouped_rows = _routed_rows(ray_session, corpus_dir, grouped_cfg)

    def key(rows):
        return sorted((r["doc_id"], r["sink"], r["ts"], r["severity"],
                       r["message"]) for r in rows)

    assert key(batch_rows) == key(grouped_rows)
    # token arrays survive the grouped path (the bucketed exchange and
    # the per-bucket sort) byte-identically
    btok = {r["doc_id"]: list(r["tokens"]) for r in batch_rows}
    for r in grouped_rows:
        assert list(r["tokens"]) == btok[r["doc_id"]], r["doc_id"]


def test_enrichment_fields(ray_session, corpus_dir):
    _, info = corpus_dir
    meta_tbl = load_build_meta(info["paths"]["build_meta"])
    metas = {m["build_uuid"]: m for m in meta_tbl.to_pylist()}
    got = _routed_rows(ray_session, corpus_dir, CFG)
    assert got, "pipeline produced no rows"
    for r in got[:500]:
        m = metas[r["build_uuid"]]
        assert r["build_name"] == m["build_name"]
        assert r["build_status"] == m["build_status"]
        assert r["project"] == m["project"]
        assert r["tenant"] == m["tenant"]
        assert list(r["hosts_region"] or []) == list(m["hosts_region"] or [])
        # per-file decoration (logsender.py:540-545)
        file_name, file_tags = ref.get_file_info(
            [{"name": e.name, "tags": list(e.tags)} for e in DEFAULT_FILE_CONFIG],
            r["filename"])
        assert list(r["tags"]) == file_tags, r["filename"]
        base = m["log_url"] or ""
        assert r["log_url"] == base + file_name


def test_run_pipeline_and_resume(ray_session, corpus_dir, tmp_path, expected):
    _, info = corpus_dir
    _, want = expected
    out = str(tmp_path / "out")
    res = run_pipeline([info["paths"]["token_sequences"]],
                       info["paths"]["build_meta"], out, CFG, clock_now=100.0)
    assert res.n_pending == 1 and res.n_skipped == 0
    want_counts = collections.Counter((r["sink"], r["severity"]) for r in want)
    got = {(r["sink"], r["severity"]): r["doc_count"]
           for r in res.counts.to_pylist()}
    assert got == dict(want_counts)
    # written parquet preserves the token arrays byte-identically
    routed_tbl = pq.read_table(res.routed_dir)
    table, _ = expected
    orig = dict(zip(table["doc_id"].to_pylist(), table["tokens"].to_pylist()))
    for doc_id, toks in zip(routed_tbl["doc_id"].to_pylist()[:1000],
                            routed_tbl["tokens"].to_pylist()[:1000]):
        assert toks == orig[doc_id]
    # resume: everything committed -> nothing pending
    res2 = run_pipeline([info["paths"]["token_sequences"]],
                        info["paths"]["build_meta"], out, CFG, clock_now=101.0)
    assert res2.n_pending == 0 and res2.n_skipped == 1
    # manifest GC by TTL
    from ci_log_processing_ray.state.manifest import ManifestStore

    store = ManifestStore(f"{out}/manifests")
    assert store.gc(now=100.0 + 90000, ttl_seconds=86400.0)
    res3 = run_pipeline([info["paths"]["token_sequences"]],
                        info["paths"]["build_meta"], out, CFG, clock_now=102.0)
    assert res3.n_pending == 1


def test_follow_mode_ticks(ray_session, corpus_dir, tmp_path):
    """--follow loop: tick 1 processes what exists; tick 2 sees one new
    input and processes ONLY it; a drain tick does nothing."""
    import shutil

    from ci_log_processing_ray.pipelines.follow import run_follow

    _, info = corpus_dir
    src = info["paths"]["token_sequences"]
    in_dir = tmp_path / "incoming"
    in_dir.mkdir()
    shutil.copy(src, in_dir / "a.parquet")

    sleeps = []

    def list_inputs():
        return sorted(str(p) for p in in_dir.glob("*.parquet"))

    out = str(tmp_path / "out")
    r1 = run_follow(list_inputs, info["paths"]["build_meta"], out, CFG,
                    ticks=1, clock0=0.0)
    assert r1[0].n_pending == 1

    shutil.copy(src, in_dir / "b.parquet")  # same content, new partition
    r2 = run_follow(list_inputs, info["paths"]["build_meta"], out, CFG,
                    ticks=2, wait_seconds=60.0, sleep_fn=sleeps.append,
                    clock0=100.0, stop_when_idle=True)
    assert r2[0].n_pending == 1 and r2[0].n_skipped == 1
    # second tick: drained (stop_when_idle ends the loop)
    assert r2[1].n_pending == 0
    assert sleeps == [60.0]
    # identical content -> identical per-sink counts in both manifests
    assert r1[0].manifests[0].per_sink_counts == r2[0].manifests[0].per_sink_counts


def test_fanout_writer_idempotent(ray_session, corpus_dir, tmp_path):
    """Task-retry semantics: running the SAME block through the block
    function (and so the fan-out writer) twice must produce the same
    files (overwritten, not duplicated) and identical count partials
    -- exactly-once counts."""
    _, info = corpus_dir
    meta = load_build_meta(info["paths"]["build_meta"])
    path = info["paths"]["token_sequences"]
    table = pq.read_table(path)
    block = table.append_column("path", pa.array([path] * len(table)))

    staging = str(tmp_path / "stage")
    os.makedirs(staging)
    writer = make_block_fn(CFG, meta, DEFAULT_FILE_CONFIG, staging, [path],
                           ["p"])
    p1 = writer(block)

    def listing():
        out = {}
        for root, _, files in os.walk(staging):
            for f in files:
                path = os.path.join(root, f)
                out[os.path.relpath(path, staging)] = pq.read_metadata(
                    path).num_rows
        return out

    l1 = listing()
    p2 = writer(block)  # the "retry"
    l2 = listing()
    assert l1 == l2, "retry must overwrite, not duplicate"
    assert p1.equals(p2)
    assert sum(l1.values()) == int(
        pa.compute.sum(p1["doc_count"]).as_py())


def test_cli_end_to_end(corpus_dir, tmp_path):
    """The console entry point runs the full batch and resumes (the
    reference's logsender CLI surface), in its own Ray session."""
    import json
    import os
    import subprocess
    import sys

    _, info = corpus_dir
    out = str(tmp_path / "cli_out")
    cmd = [sys.executable, "-m", "ci_log_processing_ray",
           "--inputs", info["paths"]["token_sequences"],
           "--build-meta", info["paths"]["build_meta"],
           "--out", out, "--skip-debug", "--num-cpus", "2"]
    env = dict(os.environ, RAY_ADDRESS="local")
    r1 = subprocess.run(cmd, capture_output=True, text=True, env=env,
                        timeout=300)
    assert r1.returncode == 0, r1.stderr[-2000:]
    d1 = json.loads(r1.stdout.strip().splitlines()[-1])
    assert d1["n_pending"] == 1 and sum(
        c["doc_count"] for c in d1["counts"]) > 0
    r2 = subprocess.run(cmd, capture_output=True, text=True, env=env,
                        timeout=300)
    d2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert d2["n_pending"] == 0 and d2["n_skipped"] == 1


def _write_shards(table, tmp_path, name, n):
    paths = []
    for i in range(n):
        lo, hi = i * len(table) // n, (i + 1) * len(table) // n
        p = str(tmp_path / f"{name}-{i}.parquet")
        pq.write_table(table.slice(lo, hi - lo), p)
        paths.append(p)
    return paths


LOGSTASH_CFG = PipelineConfig(multiline_join=True, grok_fields=True)
_GROK_COLS = ("module", "pid", "syslog_program", "syslog_pid",
              "syslog_host", "loglevel")


def test_grouped_fill_exact_on_scrambled_layout(ray_session, corpus_dir,
                                                tmp_path, expected):
    """The whole point of fill_mode='grouped': with rows RANDOMLY
    PERMUTED across shards (files split mid-run, order destroyed), the
    grouped path must still reproduce the reference scan exactly -- for
    the flagship config against the reference, and for the logstash
    config (multiline join + grok fields) against batch mode on the
    file-aligned corpus."""
    import dataclasses

    import numpy as np

    table, want = expected
    perm = np.random.default_rng(31).permutation(len(table))
    shard_paths = _write_shards(table.take(pa.array(perm)), tmp_path,
                                "scram", 4)
    cfg = PipelineConfig(skip_debug=True, fill_mode="grouped")

    got = _routed_rows(ray_session, corpus_dir, cfg, shard_paths)
    got_key = sorted((r["doc_id"], r["sink"], r["ts"], r["severity"],
                      r["message"]) for r in got)
    want_key = sorted((r["doc_id"], r["sink"], r["ts"], r["severity"],
                       r["message"]) for r in want)
    assert got_key == want_key

    def key(rows):
        cols = ("doc_id", "sink", "ts", "severity", "message", "n_tok")
        return sorted(tuple(r[c] for c in cols + _GROK_COLS) for r in rows)

    batch = _routed_rows(ray_session, corpus_dir, LOGSTASH_CFG)
    grouped = _routed_rows(
        ray_session, corpus_dir,
        dataclasses.replace(LOGSTASH_CFG, fill_mode="grouped"), shard_paths)
    # binding: the join folds events and grok fills its columns here
    assert len(batch) < len(_routed_rows(
        ray_session, corpus_dir, PipelineConfig()))
    assert any(r["module"] for r in batch)
    assert key(grouped) == key(batch)


def test_batch_layout_guard_on_interleaved_files(ray_session, corpus_dir,
                                                 tmp_path, expected):
    """A file-aligned corpus reordered by (line_no, doc_id) interleaves
    every file within each block while every block still starts at
    line 0: batch mode must refuse the layout and name the grouped
    mode, and grouped mode must reproduce the reference."""
    table, want = expected
    ids = table["doc_id"].to_pylist()
    order = sorted(range(len(ids)),
                   key=lambda i: (int(ids[i].rsplit("/", 1)[1]), ids[i]))
    paths = _write_shards(table.take(pa.array(order)), tmp_path,
                          "interleaved", 2)
    with pytest.raises(Exception, match="fill_mode='grouped'"):
        _routed_rows(ray_session, corpus_dir, CFG, paths)
    got = _routed_rows(ray_session, corpus_dir, PipelineConfig(
        skip_debug=True, fill_mode="grouped"), paths)
    key = ("doc_id", "sink", "severity", "ts", "message")
    assert sorted(tuple(r[k] for k in key) for r in got) == \
        sorted(tuple(r[k] for k in key) for r in want)


def test_partial_failure_resume(ray_session, corpus_dir, tmp_path):
    """Crash-recovery semantics: if one partition's manifest is missing
    (its task died after writing, before commit), a re-run reprocesses
    ONLY that partition and converges to the same global counts."""
    import glob
    import os

    import pyarrow.parquet as pq

    _, info = corpus_dir
    src = info["paths"]["token_sequences"]
    in_dir = tmp_path / "inputs"
    in_dir.mkdir()
    # 3 input partitions with distinct content slices
    tbl = pq.read_table(src)
    third = len(tbl) // 3
    paths = []
    for i in range(3):
        sl = tbl.slice(i * third, third if i < 2 else len(tbl) - 2 * third)
        p = str(in_dir / f"in-{i}.parquet")
        pq.write_table(sl, p)
        paths.append(p)

    out = str(tmp_path / "out")
    res1 = run_pipeline(paths, info["paths"]["build_meta"], out, CFG,
                        clock_now=1.0)
    assert res1.n_pending == 3
    counts1 = {(r["sink"], r["severity"]): r["doc_count"]
               for r in res1.counts.to_pylist()}

    # simulate the crash: one committed manifest vanishes
    victims = sorted(glob.glob(os.path.join(out, "manifests", "*.json")))
    os.unlink(victims[1])

    res2 = run_pipeline(paths, info["paths"]["build_meta"], out, CFG,
                        clock_now=2.0)
    assert res2.n_pending == 1 and res2.n_skipped == 2
    # the reprocessed partition's counts match its original manifest run
    from ci_log_processing_ray.state.manifest import ManifestStore

    store = ManifestStore(os.path.join(out, "manifests"))
    total = {}
    for m in store.all():
        for sink, c in m.per_sink_counts.items():
            total[sink] = total.get(sink, 0) + c
    want = {}
    for (sink, _), c in counts1.items():
        want[sink] = want.get(sink, 0) + c
    assert total == want
    # and the routed tree on disk holds EXACTLY one copy of every row --
    # the reprocessed partition replaced its directory instead of
    # landing a second copy next to the old one
    ondisk = sum(
        pq.read_metadata(p).num_rows
        for p in glob.glob(os.path.join(out, "routed", "**", "*.parquet"),
                           recursive=True))
    assert ondisk == sum(want.values())


def _build_aligned_shards(table, tmp_path, groups):
    """``table`` cut into one file per group of builds, each file holding
    its builds' rows in their stored order, so no log file is split."""
    build = pc.struct_field(pc.extract_regex(
        table["doc_id"], pattern=r"^(?P<b>[^/]+)/"), "b")
    builds = sorted(set(build.to_pylist()))
    paths, lo = [], 0
    for name, n in groups:
        keep = pc.is_in(build, value_set=pa.array(builds[lo:lo + n]))
        lo += n
        path = str(tmp_path / f"{name}.parquet")
        pq.write_table(table.filter(keep), path, row_group_size=64)
        paths.append(path)
    assert lo == len(builds)
    return paths


def test_batch_tick_calls_block_once_per_file(ray_session, corpus_dir,
                                              tmp_path, monkeypatch):
    """A batch tick runs the block function once per input FILE, not
    once per row group: each partition writes one file per sink.  The
    files are submitted largest first, whatever their path order."""
    from ci_log_processing_ray.pipelines import flagship

    _, info = corpus_dir
    table = pq.read_table(info["paths"]["token_sequences"])
    (tmp_path / "in").mkdir()
    # path order a, b, c; size order c, a, b
    paths = _build_aligned_shards(table, tmp_path / "in",
                                  [("a", 3), ("c", 5), ("b", 2)])
    sizes = {p: os.path.getsize(p) for p in paths}
    assert all(pq.read_metadata(p).num_row_groups > 1 for p in paths)
    submitted = []
    real = flagship._file_task

    class Spy:
        def remote(self, block, path):
            submitted.append(path)
            return real.remote(block, path)

    monkeypatch.setattr(flagship, "_file_task", Spy())
    out = str(tmp_path / "out")
    res = run_pipeline(paths, info["paths"]["build_meta"], out, CFG)

    assert res.n_pending == 3
    assert submitted == sorted(paths, key=sizes.get, reverse=True)
    assert submitted != sorted(paths)
    sink_dirs = glob.glob(os.path.join(out, "routed", "part-*", "sink=*"))
    assert len({os.path.dirname(d) for d in sink_dirs}) == 3
    assert all(len(os.listdir(d)) == 1 for d in sink_dirs), sink_dirs


@pytest.mark.parametrize("cfg", [CFG, LOGSTASH_CFG],
                         ids=["backfill", "logstash"])
def test_run_pipeline_matches_in_process_block_fn(ray_session, corpus_dir,
                                                  tmp_path, cfg):
    """The batch tick adds nothing to the block function: run_pipeline's
    routed tree is byte-identical to ``make_block_fn`` applied in this
    process to each file read whole (``tools/routed_digest.py``'s
    method), and each manifest carries ``summarize_partials`` of those
    in-process partials."""
    from ci_log_processing_ray.pipelines.flagship import summarize_partials
    from ci_log_processing_ray.state.manifest import (
        ManifestStore,
        partition_id,
    )

    _, info = corpus_dir
    (tmp_path / "in").mkdir()
    paths = sorted(_build_aligned_shards(
        pq.read_table(info["paths"]["token_sequences"]), tmp_path / "in",
        [("s0", 4), ("s1", 3), ("s2", 3)]))
    meta = load_build_meta(info["paths"]["build_meta"])
    out = str(tmp_path / "out")
    run_pipeline(paths, meta, out, cfg)

    staging = str(tmp_path / "staging")
    pids = [partition_id(p) for p in paths]
    block = make_block_fn(cfg, meta, DEFAULT_FILE_CONFIG, staging, paths,
                          pids)
    partials = []
    for p in paths:
        t = pq.read_table(p, use_threads=False)
        partials.append(block(t.append_column("path", pa.array([p] * len(t)))))
    want = tree_bytes(staging)
    assert len(want) > len(paths)
    assert tree_bytes(os.path.join(out, "routed")) == want

    summaries, _ = summarize_partials(pa.concat_tables(partials), len(paths))
    store = ManifestStore(os.path.join(out, "manifests"))
    for pid, (row_count, per_sink, checksum) in zip(pids, summaries):
        m = store.load(pid)
        assert row_count > 0
        assert (m.row_count, m.per_sink_counts, m.token_checksum) == \
            (row_count, per_sink, checksum)


def test_drop_debug_severity_matches_reference(ray_session, corpus_dir):
    """The DEBUG-severity drop rule (skip_debug off, so the substring
    filter does not pre-empt it) routes exactly the reference's rows."""
    _, info = corpus_dir
    cfg = PipelineConfig(skip_debug=False, drop_debug_severity=True)
    table = pq.read_table(info["paths"]["token_sequences"])
    want = ref.expected_routed_rows(table, cfg)
    kept_all = ref.expected_routed_rows(
        table, PipelineConfig(skip_debug=False))
    # binding: the rule drops DEBUG rows on this corpus, and only those
    dropped = collections.Counter(r["severity"] for r in kept_all) - \
        collections.Counter(r["severity"] for r in want)
    assert set(dropped) == {"DEBUG"} and dropped["DEBUG"] > 0
    got = _routed_rows(ray_session, corpus_dir, cfg)
    key = ("doc_id", "sink", "severity", "ts", "message")
    assert sorted(tuple(r[k] for k in key) for r in got) == \
        sorted(tuple(r[k] for k in key) for r in want)


def test_broken_subunit_file_is_skipped_unread(tmp_path):
    """A broken file's rows (``config.BROKEN_FILES``) are skipped before
    any branch decodes them, as the reference skips the file unread: an
    undecodable payload there neither fails the block nor is
    quarantined, and only the other file's row is routed."""
    from ci_log_processing_ray.stages.parse import make_parse_fn
    from ci_log_processing_ray.stages.route import make_route_fn

    tbl = pa.table({
        "doc_id": ["b1/testrepository.subunit.gz/000000",
                   "b1/job-output.txt/000000"],
        "line": ["\x00\x01 not json", "2024-01-01 00:00:00.000 | hello"],
        "n_tok": [3, 4],
        "source": ["subunit", "console"],
    })
    qdir = tmp_path / "quarantine"
    for cfg in (PipelineConfig(), PipelineConfig(quarantine_dir=str(qdir))):
        out = make_route_fn(cfg)(make_parse_fn(cfg)(tbl))
        assert out["doc_id"].to_pylist() == ["b1/job-output.txt/000000"]
        assert out["sink"].to_pylist() == [cfg.index_name()]
        assert out["message"].to_pylist() == ["hello"]
    assert not qdir.exists() or not os.listdir(qdir)


_PERF_PAYLOAD = '{"report": {"hostname": "h", "timestamp": "2024-01-01T00:00:00"}}'
_SUBUNIT_PAYLOAD = '{"test_name": "t", "status": "success"}'


@pytest.mark.parametrize("rows", [
    [("b1/job-output.txt/x1", "2024-01-01 00:00:00.000 | a", "console"),
     ("b1/job-output.txt/000001", "2024-01-01 00:00:01.000 | b", "console")],
    [("b1/job-output.txt/000000", "2024-01-01 00:00:00.000 | a", "console"),
     ("b1/job-output.txt/x1", "2024-01-01 00:00:01.000 | b", "console"),
     ("b1/job-output.txt/000002", "2024-01-01 00:00:02.000 | c", "console"),
     ("b1/job-output.txt/x2", "2024-01-01 00:00:03.000 | d", "console")],
    [("b1/performance.json/000000", _PERF_PAYLOAD, "performance"),
     ("b1/performance.json/x1", _PERF_PAYLOAD, "performance")],
    [("b1/subunit.json/000000", _SUBUNIT_PAYLOAD, "subunit"),
     ("b1/subunit.json/x1", _SUBUNIT_PAYLOAD, "subunit")],
], ids=["logline-first", "logline-middle", "performance", "subunit"])
def test_unsplittable_doc_id_raises_one_clear_error(rows):
    """A doc_id that does not split into build/filename/line_no has no
    file and no sink: the block fails with one ValueError naming the
    first such doc_id, on every branch and wherever the row sits --
    neither an unrelated error nor a silent drop."""
    from ci_log_processing_ray.stages.parse import make_parse_fn

    doc_ids, lines, sources = zip(*rows)
    tbl = pa.table({"doc_id": list(doc_ids), "line": list(lines),
                    "n_tok": [1] * len(rows), "source": list(sources)})
    first_bad = next(d for d in doc_ids if "/x" in d)
    with pytest.raises(ValueError) as err:
        make_parse_fn(PipelineConfig())(tbl)
    assert str(err.value).startswith(f"doc_id {first_bad!r} does not split")


def _one_file_block(corpus_dir):
    """The first log file of the fixture corpus as a batch-tick block."""
    _, info = corpus_dir
    path = info["paths"]["token_sequences"]
    table = pq.read_table(path)
    ids = table["doc_id"].to_pylist()
    head = ids[0].rsplit("/", 1)[0]
    n = sum(1 for d in ids if d.rsplit("/", 1)[0] == head)
    block = table.slice(0, n)
    assert n > 1 and len(set(block["source"].to_pylist())) == 1
    return path, block.append_column("path", pa.array([path] * n))


@pytest.mark.parametrize("cfg", [CFG, LOGSTASH_CFG],
                         ids=["flagship", "logstash"])
def test_block_fn_copies_wide_rows_at_most_twice(ray_session, corpus_dir,
                                                 tmp_path, monkeypatch, cfg):
    """Copy census of one block through the block function: the tables
    that hold the wide ``tokens`` column are gathered at most twice, once
    by the parse and once by the writer.  ``pa.Table.take`` and
    ``pa.Table.filter`` dispatch to ``pyarrow.compute.take`` and
    ``pyarrow.compute.filter``, so patching those counts both."""
    import pyarrow.compute as pc

    path, block = _one_file_block(corpus_dir)
    meta = load_build_meta(corpus_dir[1]["paths"]["build_meta"])
    fn = make_block_fn(cfg, meta, DEFAULT_FILE_CONFIG, str(tmp_path),
                       [path], ["p"])
    wide = []

    def counting(real):
        def call(data, *args, **kwargs):
            if isinstance(data, (pa.Table, pa.RecordBatch)) and \
                    "tokens" in data.column_names:
                wide.append(real.__name__)
            return real(data, *args, **kwargs)
        return call

    monkeypatch.setattr(pc, "take", counting(pc.take))
    monkeypatch.setattr(pc, "filter", counting(pc.filter))
    partials = fn(block)
    monkeypatch.undo()
    assert int(pc.sum(partials["doc_count"]).as_py()) > 0
    assert len(wide) <= 2, wide


def test_compact_routed_layout_and_idempotency(ray_session, tmp_path):
    """Compaction must (a) preserve every row per sink, (b) reduce the
    file count to the FFD bin count, (c) respect target_bytes, and
    (d) skip every finished bin on a re-run with identical stats."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ci_log_processing_ray.pipelines.compact import compact_routed

    routed = tmp_path / "routed"
    rows_per_sink = {}
    for shard in range(6):
        for sink in ["a", "b"]:
            d = routed / f"part-{shard:02d}" / f"sink={sink}"
            d.mkdir(parents=True)
            n = 10 * (shard + 1)
            t = pa.table({"x": list(range(n)),
                          "s": [sink] * n})
            pq.write_table(t, d / "part-0.parquet")
            rows_per_sink[sink] = rows_per_sink.get(sink, 0) + n

    def by_sink(stats: pa.Table) -> dict:
        return {r["sink"]: r for r in stats.to_pylist()}

    out = tmp_path / "compact"
    t1 = compact_routed(str(routed), str(out), target_bytes=1 << 30)
    assert t1.schema == pa.schema(
        [("sink", pa.string())] + [(c, pa.int64()) for c in (
            "n_files_in", "n_files_out", "n_rows", "n_skipped")])
    s1 = by_sink(t1)
    for sink in ["a", "b"]:
        assert s1[sink]["n_rows"] == rows_per_sink[sink]
        assert s1[sink]["n_files_in"] == 6
        assert s1[sink]["n_files_out"] == 1
        assert s1[sink]["n_skipped"] == 0
        files = list((out / f"sink={sink}").glob("*.parquet"))
        assert len(files) == 1
        assert pq.read_metadata(files[0]).num_rows == rows_per_sink[sink]

    # re-run: every bin already exists -> all skipped, stats identical
    s2 = by_sink(compact_routed(str(routed), str(out),
                                target_bytes=1 << 30))
    assert all(r["n_skipped"] == 1 for r in s2.values())
    assert ({k: r["n_rows"] for k, r in s2.items()}
            == {k: r["n_rows"] for k, r in s1.items()})

    # tiny target: every input file lands in its own bin
    out2 = tmp_path / "compact2"
    s3 = by_sink(compact_routed(str(routed), str(out2), target_bytes=1))
    assert s3["a"]["n_files_out"] == 6
    assert s3["a"]["n_rows"] == rows_per_sink["a"]


def test_cli_compact_mode(corpus_dir, tmp_path):
    """--compact-dir coalesces a routed tree produced by the batch CLI
    and preserves the routed totals; second invocation skips all."""
    import json
    import os
    import subprocess
    import sys

    _, info = corpus_dir
    routed = str(tmp_path / "cli_routed")
    env = dict(os.environ, RAY_ADDRESS="local")
    base = [sys.executable, "-m", "ci_log_processing_ray",
            "--num-cpus", "2"]
    r = subprocess.run(base + [
        "--inputs", info["paths"]["token_sequences"],
        "--build-meta", info["paths"]["build_meta"],
        "--out", routed, "--skip-debug"],
        capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    total = sum(c["doc_count"] for c in json.loads(
        r.stdout.strip().splitlines()[-1])["counts"])

    out = str(tmp_path / "cli_compacted")
    cmd = base + ["--compact-dir", os.path.join(routed, "routed"),
                  "--out", out]
    c1 = subprocess.run(cmd, capture_output=True, text=True, env=env,
                        timeout=300)
    assert c1.returncode == 0, c1.stderr[-2000:]
    d1 = json.loads(c1.stdout.strip().splitlines()[-1])
    assert d1["n_rows"] == total
    # the fixture corpus is a single input shard, so each sink already
    # holds one file; reduction on fragmented trees is pinned by
    # test_compact_routed_layout_and_idempotency
    assert d1["n_files_out"] <= d1["n_files_in"]
    assert d1["n_skipped"] == 0
    c2 = subprocess.run(cmd, capture_output=True, text=True, env=env,
                        timeout=300)
    d2 = json.loads(c2.stdout.strip().splitlines()[-1])
    assert d2["n_rows"] == total
    assert d2["n_skipped"] == d2["n_files_out"]


def test_sorted_export_global_order_and_resume(ray_session, tmp_path):
    """sorted_export writes range files globally ordered on the sort
    column, commits per-range manifests, skips everything on re-run,
    and redoes ONLY a damaged range."""
    import glob as _glob
    import os

    import numpy as np
    import pyarrow.parquet as pq
    import ray

    from ci_log_processing_ray.pipelines.export import sorted_export

    rng = np.random.default_rng(5)
    vals = rng.integers(0, 1_000_000, size=20_000)
    rows = [{"k": int(v), "payload": int(i)} for i, v in enumerate(vals)]
    ds = ray.data.from_items(rows)
    out = str(tmp_path / "sorted")

    r1 = sorted_export(ds, "k", out, n_ranges=8)
    assert r1["written"] == 8 and r1["rows_written"] == 20_000

    files = sorted(_glob.glob(out + "/range-*.parquet"))
    assert files
    last = None
    total = 0
    for f in files:
        t = pq.read_table(f)
        k = t["k"].to_numpy()
        assert (np.diff(k) >= 0).all(), f  # sorted within file
        if last is not None:
            assert k[0] >= last  # ordered across files
        last = k[-1]
        total += len(k)
    assert total == 20_000

    r2 = sorted_export(ds, "k", out, n_ranges=8)
    assert r2 == {"written": 0, "skipped": 8, "rows_written": 0}

    # damage one range: its manifest + file vanish; only it is redone
    victim = files[3]
    os.unlink(victim)
    mdir = os.path.join(out, "_manifests")
    os.unlink(os.path.join(mdir, "sorted-range-00003.json"))
    r3 = sorted_export(ds, "k", out, n_ranges=8)
    assert r3["written"] == 1 and r3["skipped"] == 7
    t = pq.read_table(victim)
    assert (np.diff(t["k"].to_numpy()) >= 0).all()
    assert sum(pq.ParquetFile(f).metadata.num_rows
               for f in sorted(_glob.glob(out + "/range-*.parquet"))) \
        == 20_000


def test_fingerprint_partial_equals_pandas_hash_array():
    """The export checksum stays the one earlier versions persisted in
    ``_cuts.json`` (pandas' ``hash_array`` over the sort column, the
    reference here), so an export they left unfinished still resumes."""
    import numpy as np
    import pandas as pd

    from ci_log_processing_ray.pipelines.export import _fingerprint_partial

    info = np.iinfo(np.int64)
    v = np.random.default_rng(12).integers(
        info.min, info.max, size=100_000, dtype=np.int64, endpoint=True)
    v[:4] = [0, -1, info.min, info.max]
    h = pd.util.hash_array(v)
    assert _fingerprint_partial(v) == (
        int((h & np.uint64(0xFFFFFFFF)).astype(np.int64).sum()),
        int((h >> np.uint64(32)).astype(np.int64).sum()))


def test_sorted_export_persisted_cuts_and_input_guard(ray_session,
                                                      tmp_path):
    """Resume must reuse the FIRST run's persisted cut points and fail
    loudly when the input rows changed (ADVICE: recomputed cuts could
    silently drop rows into already-committed ranges); piece names are
    deterministic content digests so retries overwrite, not accumulate."""
    import json
    import os

    import numpy as np
    import pytest
    import ray

    from ci_log_processing_ray.pipelines.export import sorted_export

    rng = np.random.default_rng(11)
    rows = [{"k": int(v), "p": int(i)}
            for i, v in enumerate(rng.integers(0, 10_000, size=4_000))]
    ds = ray.data.from_items(rows)
    out = str(tmp_path / "sorted")

    r1 = sorted_export(ds, "k", out, n_ranges=4)
    assert r1["rows_written"] == 4_000
    cuts_path = os.path.join(out, "_cuts.json")
    meta = json.load(open(cuts_path))
    assert meta["n_ranges"] == 4 and meta["rows"] == 4_000

    # damage one range, resume with CHANGED input -> loud failure, no
    # silent row loss
    os.unlink(os.path.join(out, "range-00001.parquet"))
    os.unlink(os.path.join(out, "_manifests", "sorted-range-00001.json"))
    changed = ray.data.from_items(rows[:-1])
    with pytest.raises(AssertionError, match="input changed"):
        sorted_export(changed, "k", out, n_ranges=4)

    # resume with the SAME input heals the range using persisted cuts
    r2 = sorted_export(ds, "k", out, n_ranges=4)
    assert r2["written"] == 1 and r2["skipped"] == 3

    # n_ranges mismatch on resume is refused
    os.unlink(os.path.join(out, "range-00002.parquet"))
    os.unlink(os.path.join(out, "_manifests", "sorted-range-00002.json"))
    with pytest.raises(AssertionError, match="n_ranges"):
        sorted_export(ds, "k", out, n_ranges=8)


@pytest.mark.parametrize("poison_source", ["performance", "subunit"])
def test_flagship_quarantine_e2e(ray_session, tmp_path, poison_source):
    """A poison row in a real flagship partition (a performance.json or
    subunit row whose payload is NOT valid JSON, so json.loads raises
    inside the parse UDF) must land in quarantine Parquet with its
    exception string while every other row of the partition flows
    through to the routed output; ``/metrics`` counts the quarantined
    row (round-3 verdict task #7)."""
    import glob as _glob
    import os

    import pyarrow.compute as pc

    from ci_log_processing_ray.sources.synth import (CorpusSpec,
                                                     generate_corpus)

    corpus = str(tmp_path / "corpus")
    info = generate_corpus(corpus,
                           CorpusSpec(n_builds=4, lines_per_file=20,
                                      seed=11))
    seq_path = info["paths"]["token_sequences"]
    t = pq.read_table(seq_path)
    # poison one JSON-branch row: swap its tokens for a console line's
    # (detokenizes to a log line, not JSON -> json.loads raises)
    src = t["source"].to_pylist()
    ids = t["doc_id"].to_pylist()
    # a row of a file the pipeline reads: a broken file is skipped unread
    bad_idx = next(i for i, (s, d) in enumerate(zip(src, ids))
                   if s == poison_source
                   and not d.rsplit("/", 1)[0].endswith(BROKEN_FILES))
    log_idx = src.index("console")
    toks = t["tokens"].to_pylist()
    ntok = t["n_tok"].to_pylist()
    toks[bad_idx] = toks[log_idx]
    ntok[bad_idx] = ntok[log_idx]
    poisoned = pa.table({
        "doc_id": t["doc_id"],
        "tokens": pa.array(toks, type=t.schema.field("tokens").type),
        "n_tok": pa.array(ntok, type=t.schema.field("n_tok").type),
        "source": t["source"]})
    pq.write_table(poisoned, seq_path)
    poison_doc_id = t["doc_id"][bad_idx].as_py()

    qdir = str(tmp_path / "quarantine")
    out = str(tmp_path / "out")
    cfg = PipelineConfig(skip_debug=True, quarantine_dir=qdir)
    meta = load_build_meta(info["paths"]["build_meta"])
    res = run_pipeline([seq_path], meta, out, cfg)
    assert res.n_pending == 1

    # the poison row is in quarantine with its exception attached
    qfiles = _glob.glob(os.path.join(qdir, "poison-*.parquet"))
    assert qfiles
    qt = pa.concat_tables([pq.read_table(f) for f in qfiles])
    assert qt.num_rows == 1
    assert qt["doc_id"][0].as_py() == poison_doc_id
    assert "JSONDecodeError" in qt["_error"][0].as_py()

    # the partition still committed, minus only the poison row, and
    # the routed tree contains the rest of the partition
    routed = pq.ParquetDataset(res.routed_dir).read()
    assert poison_doc_id not in set(routed["doc_id"].to_pylist())
    assert routed.num_rows > 0
    # the OTHER rows of the poisoned branch still made it through
    assert routed.filter(
        pc.match_substring(routed["sink_name"].combine_chunks(),
                           poison_source)).num_rows > 0

    # /metrics counts the quarantined row from the quarantine dir; the
    # run wrote no record besides its partition manifests
    from ci_log_processing_ray.state.monitoring import Monitoring

    assert not os.path.exists(os.path.join(out, "metrics"))
    mon = Monitoring(out, qdir)
    mon.refresh_from_dir()
    assert "cilog_quarantined_rows 1" in mon.render().splitlines()
