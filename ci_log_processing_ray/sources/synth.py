"""Deterministic synthetic corpus generator.

Produces the flagship input tables of FIXTURES.md:

* ``token_sequences.parquet`` -- ``(doc_id:string, tokens:list<int32>,
  n_tok:int32, source:string)``; one row per log line, ``tokens`` =
  UTF-8 bytes of the raw line, ``doc_id`` = ``{build_uuid}/{file}/{line:06d}``.
  Written with **one parquet row group per build** so a log file's rows are
  never split across Ray Data blocks (the partitioning assumption of the
  batch-local timestamp carry-forward -- see stages/parse.py).
* ``build_meta.parquet`` -- the enrichment lookup side (~20 fields per
  build), built through the same makeFields normalization the reference
  applies (logsender.py:220-285), covering old- and new-Zuul shapes.

Line content covers the reference's golden fixtures: all 6 timestamp
formats (logsender.py:332-346), timestamp-less lines (carry-forward,
logsender.py:394-413), journald banners, DEBUG lines, every severity
keyword, pipe-separated and pipe-less messages, empty messages, screen
``+ `` lines and ``<pre>`` markers (openstack-filters.conf:5-11), plus
performance.json payloads with the bad-value guards of
makeJsonFields (logsender.py:288-329) and pre-parsed subunit test rows.

Everything is a pure function of (seed, sizing params) -- no wall clock.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import reference_impl as ref

# file name -> source family used per build (subset chosen per build)
BUILD_FILES: list[tuple[str, str]] = [
    ("job-output.txt", "console"),
    ("controller/logs/screen-n-api.txt", "oslofmt"),
    ("controller/logs/screen-n-cpu.txt", "oslofmt"),
    ("controller/logs/syslog.txt", "syslog"),
    ("logs/apache/error_log.txt", "apacheerror"),
    ("controller/logs/libvirt/libvirtd_log.txt", "libvirt"),
    ("controller/logs/performance.json", "performance"),
    ("testrepository.subunit", "subunit"),
    ("testrepository.subunit.gz", "subunit"),  # broken, skipped unread at parse
]

_MODULES = ["nova.compute", "neutron.agent", "keystone.token", "glance.api",
            "cinder.volume", "swift.proxy"]
_WORDS = ["starting", "finished", "request", "accepted", "timeout", "retry",
          "connection", "closed", "instance", "spawned", "deleted", "updated",
          "volume", "attached", "network", "created", "image", "cached"]
_SEVS = ["AUDIT", "CRITICAL", "DEBUG", "INFO", "TRACE", "WARNING", "ERROR"]
_PROJECTS = ["openstack/neutron", "openstack/nova", "openstack/cinder",
             "openstack/glance", "opendev/base-jobs"]
_JOBS = ["openstack-tox-py39", "openstack-tox-py312", "tempest-full",
         "devstack-platform", "neutron-functional"]
_PIPELINES = ["check", "gate", "periodic"]


@dataclasses.dataclass(frozen=True)
class CorpusSpec:
    n_builds: int = 8
    lines_per_file: int = 60          # mean; actual varies per file
    hot_build_factor: int = 1         # hot build gets factor x lines (skew knob)
    seed: int = 42
    base_date: str = "2022-03"        # month anchor for in-line timestamps
    n_shards: int = 1                 # parquet files (builds round-robin)
    workers: int = 1                  # parallel generator processes


def _phrase(rng) -> str:
    k = rng.integers(2, 6)
    return " ".join(rng.choice(_WORDS, size=k))


def _ts_parts(rng):
    day = int(rng.integers(1, 28))
    h, m, s = int(rng.integers(0, 24)), int(rng.integers(0, 60)), int(rng.integers(0, 60))
    us = int(rng.integers(0, 1000000))
    return day, h, m, s, us


def _make_logline(rng, source: str, line_idx: int) -> str:
    """One synthetic log line; mixes timestamp formats and edge cases."""
    day, h, m, s, us = _ts_parts(rng)
    sev = str(rng.choice(_SEVS))
    msg = _phrase(rng)
    roll = rng.random()
    if source == "console":
        if roll < 0.04:
            return rng.choice(["<pre>", "</pre>"])
        if roll < 0.10:  # ansible task banner, format 6 (double space!)
            return (f"Friday 25 February 2022  {h:02d}:{m:02d}:{s:02d} +0000 "
                    f"(0:00:00.056)       0:00:0{s % 10}.{us:06d}")
        if roll < 0.16:  # empty message after pipe
            return f"2022-03-{day:02d} {h:02d}:{m:02d}:{s:02d}.{us:06d} | "
        if roll < 0.26:  # Zulu format 1
            return f"2022-03-{day:02d}T{h:02d}:{m:02d}:{s:02d}.{us:06d}Z | {msg}"
        if roll < 0.32:  # message containing extra pipes
            return f"2022-03-{day:02d} {h:02d}:{m:02d}:{s:02d}.{us:06d} | {msg} | rc=0"
        return f"2022-03-{day:02d} {h:02d}:{m:02d}:{s:02d}.{us:06d} | {msg}"
    if source == "oslofmt":
        if roll < 0.06:
            return f"+ echo {msg}"  # screen line, dropped
        if roll < 0.18:  # TRACE continuation without timestamp (carry-forward)
            return f"  File \"/opt/stack/{msg.split()[0]}.py\", line {line_idx}, in run"
        pid = int(rng.integers(100, 99999))
        return (f"2022-03-{day:02d} {h:02d}:{m:02d}:{s:02d}.{us:06d} {pid} {sev} "
                f"{rng.choice(_MODULES)} [req-{rng.integers(0, 1 << 32):08x}] {msg}")
    if source == "syslog":
        host = f"node-{rng.integers(0, 99):04d}"
        if roll < 0.25:  # format 3: Mon dd HH:MM:SS.ffffff (14-char capture)
            return f"Mar {day:02d} {h:02d}:{m:02d}:{s:02d}.{us:06d} {host} kernel: {msg}"
        # format 4: year-less syslog
        return f"Mar {day:02d} {h:02d}:{m:02d}:{s:02d} {host} sudo[{rng.integers(1, 9999)}]: {msg}"
    if source == "apacheerror":
        # no parseable timestamp -> exercises carry-forward/fallback-now
        if roll < 0.3:  # occasional ISO line to anchor carry-forward
            return f"2022-03-{day:02d}T{h:02d}:{m:02d}:{s:02d} anchor {sev} {msg}"
        return f"[Fri Mar {day:02d} {h:02d}:{m:02d}:{s:02d} 2022] [{sev.lower()}] client {msg}"
    if source == "libvirt":
        if roll < 0.5:  # ovs-ish ISO-T line, format 5 (first 19 chars)
            return (f"2022-03-{day:02d}T{h:02d}:{m:02d}:{s:02d}.{us // 1000:03d}Z|"
                    f"{line_idx:05d}|connmgr|{sev}|br-int: {msg}")
        return f"2022-03-{day:02d} {h:02d}:{m:02d}:{s:02d}.{us // 1000:03d}+0000: {int(rng.integers(1, 99999))}: {sev.lower()} : {msg}"
    raise ValueError(source)


def _make_perf_json(rng, hostname: str) -> str:
    """performance.json payload incl. the bad-value guard cases
    (tests/test_logsender.py:1121-1168)."""
    services = [
        {"service": "devstack@c-api.service",
         "MemoryCurrent": int(rng.integers(1 << 20, 1 << 30))},
        {"service": "devstack@q-svc.service",
         "MemoryCurrent": int(rng.integers(1 << 20, 1 << 30))},
    ]
    roll = rng.random()
    if roll < 0.25:
        services.append({"service": "apache2.service", "MemoryCurrent": "[not set]"})
    elif roll < 0.5:
        services.append({"service": "apache2.service",
                         "MemoryCurrent": 18446744073709551615})
    db = [
        {"db": "placement", "op": "SELECT", "count": int(rng.integers(1, 5000))},
        {"db": "nova_cell1", "op": "UPDATE", "count": int(rng.integers(1, 500))},
    ]
    if rng.random() < 0.3:
        db.append({"db": "neutron", "op": "INSERT", "count": "NaN"})
    api = [
        {"service": "placement", "log": "p.txt",
         "GET": int(rng.integers(1, 2000)), "POST": int(rng.integers(0, 50)),
         "largest": int(rng.integers(100, 9999))},
        {"service": "neutron", "log": "n.txt",
         "GET": int(rng.integers(1, 2000)), "PUT": "x"},
    ]
    day, hh, mm, ss, us = _ts_parts(rng)
    return json.dumps({
        "services": services, "db": db, "api": api,
        "report": {"timestamp": f"2022-03-{day:02d}T{hh:02d}:{mm:02d}:{ss:02d}.{us:06d}",
                   "hostname": hostname},
    }, sort_keys=True)


def _make_subunit_rows(rng, n: int) -> list[str]:
    rows = []
    for i in range(n):
        day, h, m, s, us = _ts_parts(rng)
        import datetime
        start = datetime.datetime(2022, 3, day, h, m, s, us)
        end = start + datetime.timedelta(
            seconds=int(rng.integers(0, 120)), microseconds=int(rng.integers(0, 1000000)))
        status = "success" if rng.random() > 0.15 else "skip"
        name = (f"setUpClass (tempest.api.test_{i})" if status == "skip"
                else f"tempest.api.compute.test_servers.Test{i}.test_case_{i}")
        if status == "skip":
            end = start
        rows.append(json.dumps({
            "test_name": name, "status": status,
            "start": start.isoformat(), "end": end.isoformat()}, sort_keys=True))
    return rows


def _make_build_meta(rng, uuid: str, aborted: bool) -> dict:
    """buildinfo + inventory for one build -> makeFields record.

    Alternates old-Zuul (plain str project/ref/buildset) and new-Zuul
    (dict-valued) shapes, which must normalize identically
    (logsender.py:220-249; tests/test_logsender.py:1032-1050).
    """
    change = int(rng.integers(700000, 900000))
    patchset = str(rng.integers(1, 9))
    project = str(rng.choice(_PROJECTS))
    job = str(rng.choice(_JOBS))
    pipeline = str(rng.choice(_PIPELINES))
    buildset = "".join(rng.choice(list("0123456789abcdef"), size=32))
    ref_str = f"refs/changes/{change % 100:02d}/{change}/{patchset}"
    new_shape = bool(rng.random() < 0.5)
    buildinfo = {
        "uuid": uuid, "job_name": job,
        "result": "ABORTED" if aborted else ("SUCCESS" if rng.random() < 0.8 else "FAILURE"),
        "branch": "master", "project": project, "change": change,
        "patchset": patchset, "ref": ({"ref": ref_str} if new_shape else ref_str),
        "ref_url": f"https://review.opendev.org/{change}",
        "buildset": ({"uuid": buildset} if new_shape else buildset),
        "log_url": f"https://storage.example/logs/{change}/{uuid}/",
        "tenant": "openstack", "end_time": "2022-03-25T17:40:37",
    }
    if aborted:
        inventory: dict = {}
    else:
        hosts = {}
        for i in range(int(rng.integers(1, 3))):
            region = str(rng.choice(["rax-DFW", "ovh-BHS1", "iweb-mtl01"]))
            cloud, reg = region.split("-", 1)
            hosts[f"controller{i}"] = {"nodepool": {
                "host_id": "".join(rng.choice(list("0123456789abcdef"), size=40)),
                "cloud": cloud, "region": reg}}
        zuul_vars = {
            "project": ({"name": project} if new_shape else project),
            "pipeline": pipeline, "voting": int(rng.random() < 0.9),
            "buildset": buildset, "branch": "master",
            "change": str(change), "patchset": patchset,
            "executor": {"hostname": f"ze{rng.integers(1, 12):02d}.opendev.org"},
            "change_url": f"https://review.opendev.org/{change}",
        }
        inventory = {"all": {"hosts": hosts, "vars": {"zuul": zuul_vars}}}
    return ref.make_fields(inventory, buildinfo)


def _encode_tokens(lines: list[str]) -> pa.ListArray:
    """UTF-8 byte-level tokenization -> list<int32> (vectorized)."""
    data = "".join(lines).encode("utf-8")
    lengths = np.fromiter((len(s.encode("utf-8")) for s in lines),
                          dtype=np.int32, count=len(lines))
    offsets = np.zeros(len(lines) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    values = np.frombuffer(data, dtype=np.uint8).astype(np.int32)
    return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                    pa.array(values, type=pa.int32()))


TOKEN_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("tokens", pa.list_(pa.int32())),
    ("n_tok", pa.int32()),
    ("source", pa.string()),
])


BUILD_META_SCHEMA = pa.schema([
    ("build_uuid", pa.string()),
    ("build_node", pa.string()),
    ("build_name", pa.string()),
    ("build_status", pa.string()),
    ("project", pa.string()),
    ("voting", pa.int32()),
    ("build_set", pa.string()),
    ("build_queue", pa.string()),
    ("build_ref", pa.string()),
    ("build_branch", pa.string()),
    ("build_change", pa.int64()),
    ("build_patchset", pa.string()),
    ("build_newrev", pa.string()),
    ("node_provider", pa.string()),
    ("log_url", pa.string()),
    ("tenant", pa.string()),
    ("hosts_id", pa.list_(pa.string())),
    ("hosts_region", pa.list_(pa.string())),
    ("zuul_executor", pa.string()),
    ("change_url", pa.string()),
])


def _generate_one_build(args) -> tuple[dict, "pa.Table"]:
    """Content of build ``b`` -- deterministic from (seed, b) alone, so
    builds can be generated in parallel in any order."""
    spec, b = args
    rng = np.random.default_rng((spec.seed, b))
    uuid = "".join(rng.choice(list("0123456789abcdef"), size=32))
    aborted = rng.random() < 0.08
    meta = _make_build_meta(rng, uuid, aborted)

    doc_ids: list[str] = []
    lines: list[str] = []
    sources: list[str] = []
    file_breaks: list[int] = []  # start row of each log file

    def emit(fname: str, source: str, file_lines: list[str]):
        file_breaks.append(len(doc_ids))
        for i, line in enumerate(file_lines):
            doc_ids.append(f"{uuid}/{fname}/{i:06d}")
            lines.append(line)
            sources.append(source)

    if aborted:
        # custom-result path (logscraper.py:568-575): single file with
        # "end_time | result"
        emit("custom-job-results.txt", "console",
             ["2022-03-25T17:40:37 | ABORTED"])
    else:
        factor = spec.hot_build_factor if b == 0 else 1
        nfiles = int(rng.integers(4, len(BUILD_FILES) + 1))
        chosen = list(rng.choice(len(BUILD_FILES), size=nfiles, replace=False))
        # always include a console log so every build has log lines
        if 0 not in chosen:
            chosen.insert(0, 0)
        for fi in sorted(chosen):
            fname, source = BUILD_FILES[fi]
            nl = max(3, int(rng.normal(spec.lines_per_file,
                                       spec.lines_per_file / 4)))
            nl *= factor
            if source == "performance":
                emit(fname, source, [_make_perf_json(rng, f"host-{uuid[:8]}")])
            elif source == "subunit":
                emit(fname, source, _make_subunit_rows(rng, max(2, nl // 10)))
            else:
                file_lines = [_make_logline(rng, source, i) for i in range(nl)]
                if source == "syslog" and rng.random() < 0.7:
                    file_lines.insert(
                        0, "-- Logs begin at Fri 2022-03-25 17:40:37 UTC.")
                # leading timestamp-less lines (utcnow-fallback path)
                if rng.random() < 0.3:
                    file_lines.insert(0, "no timestamp on this leading line")
                emit(fname, source, file_lines)

    tokens = _encode_tokens(lines)
    table = pa.table({
        "doc_id": pa.array(doc_ids, type=pa.string()),
        "tokens": tokens,
        "n_tok": pc.list_value_length(tokens),
        "source": pa.array(sources, type=pa.string()),
    }, schema=TOKEN_SCHEMA)
    meta["_file_breaks"] = file_breaks
    return meta, table


def _write_builds(builds, writers, shard_rows) -> int:
    """FILE-aligned ~16k-row chunks, each routed to the currently
    least-loaded shard: files stay whole (the carry-forward layout
    contract) while a hot build's many files SPREAD across shards --
    no shard becomes a straggler read task."""
    n_rows = 0
    for meta, table in builds:
        breaks = meta.pop("_file_breaks") + [len(table)]
        start = 0
        for bi in range(1, len(breaks)):
            if breaks[bi] - start >= 16384 or bi == len(breaks) - 1:
                chunk = table.slice(start, breaks[bi] - start)
                if len(chunk):
                    widx = shard_rows.index(min(shard_rows))
                    writers[widx].write_table(
                        chunk, row_group_size=max(1, len(chunk)))
                    shard_rows[widx] += len(chunk)
                start = breaks[bi]
        n_rows += len(table)
    return n_rows


def generate_corpus(out_dir: str, spec: CorpusSpec = CorpusSpec()) -> dict:
    """Write token_sequences.parquet + build_meta.parquet under out_dir.

    Deterministic regardless of ``spec.workers``: build content depends
    only on (seed, build index); chunk->shard routing happens in the
    single writer process in build order.

    Returns {"n_rows": int, "builds": [uuid...], "paths": {...}}.
    """
    os.makedirs(out_dir, exist_ok=True)
    meta_path = os.path.join(out_dir, "build_meta.parquet")
    if spec.n_shards > 1:
        seq_dir = os.path.join(out_dir, "token_sequences")
        os.makedirs(seq_dir, exist_ok=True)
        shard_paths = [
            os.path.join(seq_dir, f"part-{i:05d}.parquet")
            for i in range(spec.n_shards)
        ]
    else:
        shard_paths = [os.path.join(out_dir, "token_sequences.parquet")]
    seq_path = shard_paths[0] if spec.n_shards == 1 else os.path.dirname(shard_paths[0])

    metas: list[dict] = []
    n_rows = 0
    writers = [pq.ParquetWriter(p, TOKEN_SCHEMA) for p in shard_paths]
    shard_rows = [0] * len(writers)
    try:
        tasks = [(spec, b) for b in range(spec.n_builds)]
        if spec.workers > 1:
            from multiprocessing import Pool

            with Pool(spec.workers) as pool:
                # chunked imap keeps memory bounded; order preserved
                for meta, table in pool.imap(_generate_one_build, tasks,
                                             chunksize=4):
                    metas.append(meta)
                    n_rows += _write_builds([(meta, table)], writers,
                                            shard_rows)
        else:
            for t in tasks:
                meta, table = _generate_one_build(t)
                metas.append(meta)
                n_rows += _write_builds([(meta, table)], writers, shard_rows)
    finally:
        for w in writers:
            w.close()

    uuids = [m["build_uuid"] for m in metas]
    meta_table = pa.Table.from_pylist([_meta_to_row(m) for m in metas],
                                      schema=BUILD_META_SCHEMA)
    pq.write_table(meta_table, meta_path)
    return {"n_rows": n_rows, "builds": uuids,
            "paths": {"token_sequences": seq_path, "build_meta": meta_path,
                      "shards": shard_paths}}


def _meta_to_row(fields: dict) -> dict:
    """makeFields dict -> Arrow row (the '' int sentinel of build_change
    (logsender.py:273-274) becomes NULL in the typed schema)."""
    row = dict(fields)
    if row.get("build_change") == "":
        row["build_change"] = None
    row.setdefault("zuul_executor", None)
    return {k: row.get(k) for k in BUILD_META_SCHEMA.names}
