"""Prometheus-style monitoring exporter (ST5).

The reference exposes a ``logscraper_job_count`` Gauge through
``prometheus_client.start_http_server`` when ``--monitoring-port`` is
set (logscraper/logscraper.py:295-304, 766-768).  The rebuild's batch
engine already persists per-batch metrics manifests
(``<out>/metrics/batch-<digest>.json``, written by
pipelines/flagship.py); this module closes the live-observability gap
with a THIN stdlib exporter over those manifests:

* :class:`Monitoring` — counter registry + Prometheus text exposition
  (format 0.0.4).  ``refresh_from_dir()`` rescans the metrics dir and
  folds each batch manifest exactly once (keyed by batch digest), so the
  exporter is pull-driven and idempotent: a ``--follow`` loop writes
  manifests, the exporter re-reads on every scrape, nothing is double
  counted.
* :class:`MetricsServer` — a daemon-threaded ``http.server`` serving
  ``GET /metrics``; no third-party prometheus_client needed (absent in
  this environment), and the scrape path never touches Ray.

Exposed series (all monotonic counters in batch terms):

    cilog_batches_total
    cilog_docs_total
    cilog_docs_per_sink_total{sink="..."}
    cilog_partitions_total
    cilog_quarantined_rows        (last observed value; gauge)
"""

from __future__ import annotations

import json
import os
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_LABEL_SAFE = re.compile(r"\\|\n|\"")


def _escape_label(v: str) -> str:
    return _LABEL_SAFE.sub(lambda m: {"\\": r"\\", "\n": r"\n",
                                      '"': r"\""}[m.group(0)], v)


class Monitoring:
    """Counter registry fed by the flagship's metrics manifests.

    Thread-safe: the HTTP handler refreshes + renders under a lock
    while the pipeline loop keeps writing new ``batch-*.json`` files.
    """

    def __init__(self, metrics_dir: str | None = None):
        self.metrics_dir = metrics_dir
        self._lock = threading.Lock()
        self._seen: set[str] = set()
        self._counters: dict[tuple[str, tuple[tuple[str, str], ...]],
                             int] = {}
        self._gauges: dict[str, int] = {}
        # chronological key for snapshot gauges: digests sort by
        # content hash, not time, so the gauge follows file mtime
        self._gauge_mtime: float = float("-inf")

    # -- registry -----------------------------------------------------
    def inc(self, name: str, labels: dict[str, str] | None = None,
            amount: int = 1) -> None:
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + int(amount)

    # -- manifest ingestion -------------------------------------------
    def refresh_from_dir(self) -> int:
        """Fold every not-yet-seen ``batch-*.json`` manifest into the
        counters.  Returns the number of NEW manifests folded.  Safe to
        call on every scrape: manifests are keyed by their batch digest
        (deterministic content hash), so re-scans are no-ops."""
        if not self.metrics_dir or not os.path.isdir(self.metrics_dir):
            return 0
        new = 0
        for fname in sorted(os.listdir(self.metrics_dir)):
            if not (fname.startswith("batch-") and fname.endswith(".json")):
                continue
            path = os.path.join(self.metrics_dir, fname)
            try:
                with open(path) as f:
                    m = json.load(f)
                # validate EVERY numeric field before touching any
                # state: a manifest that parses as JSON but carries a
                # malformed value must be skipped whole, not folded
                # half-way (which would 500 the scrape and, with the
                # digest already marked seen, lose the batch forever)
                total_docs = int(m.get("total_docs", 0))
                n_partitions = int(m.get("n_partitions", 0))
                per_sink = {str(s): int(c)
                            for s, c in (m.get("per_sink") or {}).items()}
                quarantined = (int(m["quarantined_rows"])
                               if "quarantined_rows" in m else None)
                mtime = os.path.getmtime(path)
            except (OSError, ValueError, TypeError):
                continue  # partially-written manifest: pick up next scrape
            digest = str(m.get("batch", fname))
            with self._lock:
                if digest in self._seen:
                    continue
                self._seen.add(digest)
            new += 1
            self.inc("cilog_batches_total")
            self.inc("cilog_docs_total", amount=total_docs)
            self.inc("cilog_partitions_total", amount=n_partitions)
            for sink, c in per_sink.items():
                self.inc("cilog_docs_per_sink_total", {"sink": sink}, c)
            with self._lock:
                # newest-by-mtime wins: listdir order is digest order.
                # compare and set under ONE lock hold, so two concurrent
                # scrapes cannot leave an older value behind
                if quarantined is not None and mtime >= self._gauge_mtime:
                    self._gauge_mtime = mtime
                    self._gauges["cilog_quarantined_rows"] = quarantined
        return new

    # -- exposition ---------------------------------------------------
    _HELP = {
        "cilog_batches_total": ("counter", "Committed pipeline batches"),
        "cilog_docs_total": ("counter", "Documents routed to sinks"),
        "cilog_docs_per_sink_total": ("counter",
                                      "Documents routed, per sink"),
        "cilog_partitions_total": ("counter",
                                   "Input partitions processed"),
        "cilog_quarantined_rows": ("gauge",
                                   "Poison rows currently quarantined"),
    }

    def render(self) -> str:
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
        lines: list[str] = []
        names = sorted({n for n, _ in counters} | set(gauges))
        for name in names:
            typ, help_ = self._HELP.get(name, ("counter", name))
            lines.append(f"# HELP {name} {help_}")
            lines.append(f"# TYPE {name} {typ}")
            if name in gauges:
                lines.append(f"{name} {gauges[name]}")
            for (n, labels), v in sorted(counters.items()):
                if n != name:
                    continue
                if labels:
                    lab = ",".join(
                        f'{k}="{_escape_label(v_)}"' for k, v_ in labels)
                    lines.append(f"{name}{{{lab}}} {v}")
                else:
                    lines.append(f"{name} {v}")
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
