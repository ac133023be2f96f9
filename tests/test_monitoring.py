"""Prometheus-style metrics exporter (ST5): the stdlib /metrics server
folding the per-partition manifests, the only record of a pipeline run.

Reference surface: logscraper/logscraper.py:295-304 (Gauge
``logscraper_job_count``) + :766-768 (``start_http_server`` behind
``--monitoring-port``).  These tests need no Ray session: the exporter
reads manifests and the quarantine dir and serves plain HTTP."""
import json
import os
import urllib.error
import urllib.request

import pyarrow as pa
import pyarrow.parquet as pq

from ci_log_processing_ray.state.manifest import Manifest, ManifestStore
from ci_log_processing_ray.state.monitoring import (MetricsServer,
                                                    Monitoring)


def _commit(out, pid, per_sink, batch, committed_at=1.0):
    ManifestStore(os.path.join(out, "manifests")).commit(Manifest(
        partition_id=pid, input_path=f"/in/{pid}",
        row_count=sum(per_sink.values()), per_sink_counts=per_sink,
        committed_at=committed_at, batch=batch))


def _quarantine(qdir, name, n_rows):
    os.makedirs(qdir, exist_ok=True)
    pq.write_table(pa.table({"doc_id": [str(i) for i in range(n_rows)]}),
                   os.path.join(qdir, f"poison-{name}.parquet"))


def _scrape(port):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10) as r:
        assert r.status == 200
        assert "text/plain" in r.headers["Content-Type"]
        return r.read().decode()


def _metric_value(body, line_prefix):
    for ln in body.splitlines():
        if ln.startswith(line_prefix + " "):
            return int(ln.rsplit(" ", 1)[1])
    raise AssertionError(f"{line_prefix!r} not in:\n{body}")


def test_refresh_is_idempotent_per_digest(tmp_path):
    out = str(tmp_path)
    _commit(out, "p1", {"logstash-2022.03.25": 60}, "aaa")
    _commit(out, "p2", {"logstash-2022.03.25": 40}, "aaa")
    mon = Monitoring(out)
    assert mon.refresh_from_dir() == 2
    assert mon.refresh_from_dir() == 0   # same partitions: no double count
    body = mon.render()
    assert _metric_value(body, "cilog_docs_total") == 100
    assert _metric_value(body, "cilog_batches_total") == 1
    assert _metric_value(body, "cilog_partitions_total") == 2
    # no quarantine dir given: no quarantine gauge
    assert "cilog_quarantined_rows" not in body


def test_server_scrapes_and_tracks_new_batches(tmp_path):
    out, qdir = str(tmp_path / "out"), str(tmp_path / "quarantine")
    _commit(out, "p1",
            {"logstash-2022.03.25": 40, "subunit-2022.03.25": 20}, "b1")
    _quarantine(qdir, "a", 3)
    srv = MetricsServer(Monitoring(out, qdir), port=0)
    port = srv.start()
    try:
        body = _scrape(port)
        assert _metric_value(body, "cilog_docs_total") == 60
        assert _metric_value(
            body,
            'cilog_docs_per_sink_total{sink="logstash-2022.03.25"}') == 40
        assert _metric_value(body, "cilog_quarantined_rows") == 3
        assert "# TYPE cilog_docs_total counter" in body
        # a follow-loop tick commits another partition and quarantines
        # more rows: the next scrape folds the partition exactly once
        # and counts the quarantine dir as it is now
        _commit(out, "p2", {"logstash-2022.03.26": 40}, "b2")
        _quarantine(qdir, "b", 2)
        body = _scrape(port)
        assert _metric_value(body, "cilog_docs_total") == 100
        assert _metric_value(body, "cilog_batches_total") == 2
        assert _metric_value(body, "cilog_quarantined_rows") == 5
        body2 = _scrape(port)  # idempotent re-scrape
        assert _metric_value(body2, "cilog_docs_total") == 100
    finally:
        srv.stop()


def test_server_404_on_other_paths(tmp_path):
    srv = MetricsServer(Monitoring(str(tmp_path)), port=0)
    port = srv.start()
    try:
        try:
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/other", timeout=10)
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as e:
            assert e.code == 404
    finally:
        srv.stop()


def test_manifest_without_batch_key_loads_and_folds(tmp_path):
    """A manifest written before the ``batch`` field existed loads with
    batch=None and is folded into every counter but the batch count."""
    mdir = tmp_path / "manifests"
    mdir.mkdir()
    (mdir / "old.json").write_text(json.dumps({
        "partition_id": "old", "input_path": "/in/old", "row_count": 7,
        "per_sink_counts": {"s": 7}, "token_checksum": "0" * 16,
        "committed_at": 1.0}))
    assert ManifestStore(str(mdir)).load("old").batch is None
    mon = Monitoring(str(tmp_path))
    assert mon.refresh_from_dir() == 1
    body = mon.render()
    assert _metric_value(body, "cilog_docs_total") == 7
    assert _metric_value(body, 'cilog_docs_per_sink_total{sink="s"}') == 7
    assert _metric_value(body, "cilog_partitions_total") == 1
    assert _metric_value(body, "cilog_batches_total") == 0


def test_gc_never_lowers_counters(tmp_path):
    out = str(tmp_path)
    _commit(out, "p1", {"s": 5}, "b1", committed_at=0.0)
    _commit(out, "p2", {"s": 6}, "b2", committed_at=100.0)
    mon = Monitoring(out)
    assert mon.refresh_from_dir() == 2
    store = ManifestStore(os.path.join(out, "manifests"))
    assert store.gc(now=100.0, ttl_seconds=50.0) == ["p1"]
    assert mon.refresh_from_dir() == 0
    body = mon.render()
    assert _metric_value(body, "cilog_docs_total") == 11
    assert _metric_value(body, "cilog_partitions_total") == 2
    assert _metric_value(body, "cilog_batches_total") == 2


def test_concurrent_refresh_counts_once(tmp_path):
    """Scrapes race on one Monitoring: every partition folds exactly
    once."""
    import sys
    import threading

    out = str(tmp_path)
    n = 40
    for i in range(n):
        _commit(out, f"p{i:03d}", {"s": 1}, f"b{i % 4}")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            mon = Monitoring(out)
            threads = [threading.Thread(target=mon.refresh_from_dir)
                       for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
            body = mon.render()
            assert _metric_value(body, "cilog_batches_total") == 4
            assert _metric_value(body, "cilog_docs_total") == n
            assert _metric_value(body, "cilog_partitions_total") == n
    finally:
        sys.setswitchinterval(old)
