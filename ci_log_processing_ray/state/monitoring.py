"""Prometheus-style monitoring exporter (ST5).

The reference exposes a ``logscraper_job_count`` Gauge through
``prometheus_client.start_http_server`` when ``--monitoring-port`` is
set (logscraper/logscraper.py:295-304, 766-768).  The rebuild's only
record of a pipeline tick is the per-partition manifest
(``<out>/manifests/<pid>.json``, state/manifest.py); this module is a
THIN stdlib exporter that folds those manifests:

* :class:`Monitoring` -- ``refresh_from_dir()`` reads
  ``ManifestStore.all()`` (the process's store snapshot, shared under
  one lock with the committing loop: an idle scrape is one dir ``stat``
  and parses nothing settled) and folds each partition id exactly
  once, so re-scrapes are no-ops and a later TTL ``gc`` of old
  manifests never makes a counter go down.
  ``render()`` is the Prometheus text exposition (format 0.0.4).
* :class:`MetricsServer` -- a daemon-threaded ``http.server`` serving
  ``GET /metrics``; no third-party prometheus_client needed (absent in
  this environment), and the scrape path never touches Ray.

Exposed series:

    cilog_batches_total           distinct batch digests folded
    cilog_docs_total              sum of row_count
    cilog_docs_per_sink_total{sink="..."}
    cilog_partitions_total        partitions folded
    cilog_quarantined_rows        rows in the quarantine dir at scrape
                                  time (gauge; only with a quarantine dir)
"""

from __future__ import annotations

import os
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..stages.quarantine import quarantined_rows
from .manifest import ManifestStore

_LABEL_SAFE = re.compile(r"\\|\n|\"")


def _escape_label(v: str) -> str:
    return _LABEL_SAFE.sub(lambda m: {"\\": r"\\", "\n": r"\n",
                                      '"': r"\""}[m.group(0)], v)


class Monitoring:
    """Counters folded from the partition manifests under
    ``<out_dir>/manifests``, plus the quarantine gauge.

    Thread-safe: scrapes fold under one lock while the pipeline loop
    keeps committing manifests.
    """

    def __init__(self, out_dir: str, quarantine_dir: str | None = None):
        self.manifest_dir = os.path.join(out_dir, "manifests")
        self.quarantine_dir = quarantine_dir
        self._lock = threading.Lock()
        self._partitions: set[str] = set()
        self._batches: set[str] = set()
        self._docs = 0
        self._per_sink: dict[str, int] = {}

    def refresh_from_dir(self) -> int:
        """Fold every committed partition not folded before.  Returns
        the number of partitions newly folded."""
        if not os.path.isdir(self.manifest_dir):
            return 0
        manifests = ManifestStore(self.manifest_dir).all()
        new = 0
        with self._lock:
            for m in manifests:
                if m.partition_id in self._partitions:
                    continue
                self._partitions.add(m.partition_id)
                if m.batch is not None:
                    self._batches.add(m.batch)
                self._docs += m.row_count
                for sink, c in m.per_sink_counts.items():
                    self._per_sink[sink] = self._per_sink.get(sink, 0) + c
                new += 1
        return new

    def render(self) -> str:
        with self._lock:
            series = [
                ("cilog_batches_total", "counter",
                 "Committed pipeline batches", [("", len(self._batches))]),
                ("cilog_docs_total", "counter",
                 "Documents routed to sinks", [("", self._docs)]),
                ("cilog_docs_per_sink_total", "counter",
                 "Documents routed, per sink",
                 [(f'{{sink="{_escape_label(s)}"}}', c)
                  for s, c in sorted(self._per_sink.items())]),
                ("cilog_partitions_total", "counter",
                 "Input partitions processed",
                 [("", len(self._partitions))]),
            ]
        if self.quarantine_dir is not None:
            series.append(("cilog_quarantined_rows", "gauge",
                           "Poison rows currently quarantined",
                           [("", quarantined_rows(self.quarantine_dir))]))
        lines: list[str] = []
        for name, typ, help_, samples in series:
            lines.append(f"# HELP {name} {help_}")
            lines.append(f"# TYPE {name} {typ}")
            lines.extend(f"{name}{labels} {v}" for labels, v in samples)
        return "\n".join(lines) + "\n"


class MetricsServer:
    """``GET /metrics`` over stdlib http.server; refresh-on-scrape."""

    def __init__(self, monitoring: Monitoring, port: int = 0,
                 host: str = "127.0.0.1"):
        self.monitoring = monitoring
        mon = monitoring

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (http.server API)
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_response(404)
                    self.end_headers()
                    return
                mon.refresh_from_dir()
                body = mon.render().encode()
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *a):  # silence per-request stderr
                pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self.port = self._httpd.server_address[1]
        self._thread: threading.Thread | None = None

    def start(self) -> int:
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self.port

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
