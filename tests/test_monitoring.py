"""Prometheus-style metrics exporter (ST5): the stdlib /metrics server
over the flagship's per-batch metrics manifests.

Reference surface: logscraper/logscraper.py:295-304 (Gauge
``logscraper_job_count``) + :766-768 (``start_http_server`` behind
``--monitoring-port``).  These tests need no Ray session: the exporter
reads JSON manifests and serves plain HTTP."""
import json
import os
import urllib.error
import urllib.request

from ci_log_processing_ray.state.monitoring import (MetricsServer,
                                                    Monitoring)


def _write_batch(mdir, digest, total, per_sink, quarantined=None,
                 n_partitions=1):
    os.makedirs(mdir, exist_ok=True)
    m = {"batch": digest, "n_partitions": n_partitions,
         "total_docs": total, "per_sink": per_sink}
    if quarantined is not None:
        m["quarantined_rows"] = quarantined
    with open(os.path.join(mdir, f"batch-{digest}.json"), "w") as f:
        json.dump(m, f)


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
    mdir = str(tmp_path / "metrics")
    _write_batch(mdir, "aaa", 100, {"logstash-2022.03.25": 100})
    mon = Monitoring(mdir)
    assert mon.refresh_from_dir() == 1
    assert mon.refresh_from_dir() == 0   # same digest: no double count
    body = mon.render()
    assert _metric_value(body, "cilog_docs_total") == 100
    assert _metric_value(body, "cilog_batches_total") == 1


def test_server_scrapes_and_tracks_new_batches(tmp_path):
    mdir = str(tmp_path / "metrics")
    _write_batch(mdir, "b1", 60,
                 {"logstash-2022.03.25": 40, "subunit-2022.03.25": 20},
                 quarantined=3)
    srv = MetricsServer(Monitoring(mdir), port=0)
    port = srv.start()
    try:
        body = _scrape(port)
        assert _metric_value(body, "cilog_docs_total") == 60
        assert _metric_value(
            body,
            'cilog_docs_per_sink_total{sink="logstash-2022.03.25"}') == 40
        assert _metric_value(body, "cilog_quarantined_rows") == 3
        assert "# TYPE cilog_docs_total counter" in body
        # a follow-loop tick lands a second manifest: next scrape folds
        # it exactly once
        _write_batch(mdir, "b2", 40, {"logstash-2022.03.26": 40},
                     quarantined=5)
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


def test_partial_manifest_skipped_then_picked_up(tmp_path):
    mdir = str(tmp_path / "metrics")
    os.makedirs(mdir)
    bad = os.path.join(mdir, "batch-x.json")
    with open(bad, "w") as f:
        f.write('{"batch": "x", "total_')   # torn write
    mon = Monitoring(mdir)
    assert mon.refresh_from_dir() == 0      # skipped, not crashed
    with open(bad, "w") as f:
        json.dump({"batch": "x", "total_docs": 7, "n_partitions": 1,
                   "per_sink": {"s": 7}}, f)
    assert mon.refresh_from_dir() == 1      # picked up next scrape
    assert _metric_value(mon.render(), "cilog_docs_total") == 7


def test_quarantine_gauge_follows_newest_mtime(tmp_path):
    """The gauge shows the newest manifest by mtime, not by digest
    order, whether the two land in one scan or in separate scans."""
    mdir = str(tmp_path / "metrics")
    # digest order (aaa < zzz) is the opposite of mtime order
    _write_batch(mdir, "zzz", 1, {"s": 1}, quarantined=2)
    _write_batch(mdir, "aaa", 1, {"s": 1}, quarantined=9)
    os.utime(os.path.join(mdir, "batch-zzz.json"), (1000, 1000))
    os.utime(os.path.join(mdir, "batch-aaa.json"), (2000, 2000))
    mon = Monitoring(mdir)
    assert mon.refresh_from_dir() == 2
    assert _metric_value(mon.render(), "cilog_quarantined_rows") == 9
    # an older manifest folded by a later scan leaves the gauge alone
    _write_batch(mdir, "mmm", 1, {"s": 1}, quarantined=4)
    os.utime(os.path.join(mdir, "batch-mmm.json"), (1500, 1500))
    assert mon.refresh_from_dir() == 1
    assert _metric_value(mon.render(), "cilog_quarantined_rows") == 9


def test_concurrent_refresh_counts_once_and_keeps_newest_gauge(tmp_path):
    """Scrapes race on one Monitoring: every manifest folds exactly once
    and the gauge ends on the newest-by-mtime value."""
    import sys
    import threading

    mdir = str(tmp_path / "metrics")
    n = 40
    for i in range(n):
        _write_batch(mdir, f"d{i:03d}", 1, {"s": 1}, quarantined=i)
        t = 1000 + (i * 7919) % n  # a permutation: mtime order != digests
        os.utime(os.path.join(mdir, f"batch-d{i:03d}.json"), (t, t))
    newest = max(range(n), key=lambda i: (i * 7919) % n)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            mon = Monitoring(mdir)
            threads = [threading.Thread(target=mon.refresh_from_dir)
                       for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
            body = mon.render()
            assert _metric_value(body, "cilog_batches_total") == n
            assert _metric_value(body, "cilog_docs_total") == n
            assert _metric_value(body, "cilog_quarantined_rows") == newest
    finally:
        sys.setswitchinterval(old)
