"""Typed pipeline configuration.

Replaces the reference's CLI + INI ``literal_eval`` merge
(logsender.py:53-123, logscraper.py:130-194) with one frozen dataclass.
All impure inputs of the reference (``datetime.today()`` for index names
at logsender.py:570-585, ``utcnow()`` fallback at logsender.py:408) are
explicit fields here so every run is deterministic and resumable.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field


# Tag families per `source`, modeled on download-list.yaml.sample:5-258 and
# the grok routing in openstack-filters.conf:5-77.  The `source` column of
# the token-sequence table names the family; tags drive drop rules + routing.
SOURCE_TAGS: dict[str, list[str]] = {
    "console": ["console", "console.html"],
    "oslofmt": ["screen", "oslofmt"],
    "syslog": ["syslog"],
    "apacheerror": ["apacheerror"],
    "libvirt": ["libvirt"],
    "performance": ["performance"],
    "subunit": [],
    # neutral family for files no grok branch claims
    # (openstack-filters.conf has no fallback filter either)
    "text": [],
}

LOGLINE_SOURCES = ("console", "oslofmt", "syslog", "apacheerror", "libvirt",
                   "text")

# Severity vocabulary of the grok loglevel extraction
# (openstack-filters.conf:48; drop rule :81-83).
SEVERITIES = ("AUDIT", "CRITICAL", "DEBUG", "INFO", "TRACE", "WARNING", "ERROR")
SEVERITY_NONE = "NONE"

# File marked broken and always skipped (logsender.py:527-530).
BROKEN_FILES = ("testrepository.subunit.gz",)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the flagship pipeline needs, fixed at submit time."""

    # Index/sink naming (logsender.py:73-83, 563-589): name = prefix + date.
    index_prefix: str = "logstash-"
    performance_index_prefix: str = "performance-"
    subunit_index_prefix: str = "subunit-"
    # The reference computes today() per run (logsender.py:570-571); we pin it.
    run_date: datetime.date = datetime.date(2022, 3, 25)

    # Drop lines containing 'DEBUG' (logsender.py:91-93, 400-402).
    skip_debug: bool = False
    # Drop rows whose extracted severity == DEBUG (openstack-filters.conf:81-83).
    drop_debug_severity: bool = False

    # Deterministic stand-ins for the reference's utcnow() calls:
    # leading-lines-without-timestamp fallback (logsender.py:407-408).
    fallback_now: datetime.datetime = datetime.datetime(2022, 3, 25, 0, 0, 0)
    # received_at = %{@timestamp} (openstack-filters.conf:21,49,55,61):
    # the batch-processing wall clock, pinned for determinism.
    received_at: datetime.datetime = datetime.datetime(2022, 3, 25, 0, 0, 0)
    # year patch for year-less formats (logsender.py:354-356 uses today().year).
    today_year: int = 2022

    # Parse-stage input layout (both modes run the same per-block parse,
    # stages/parse.py:make_parse_fn):
    #  - "batch":   parse each Arrow block where it lies, assuming each log
    #               file's rows are contiguous and in line order within a
    #               block (guaranteed when the upstream writer emits one
    #               parquet row group per file / build -- our corpus writer
    #               does).  Zero shuffle; the 100 TB path.  Raises when a
    #               block breaks the layout contract.
    #  - "grouped": exact regardless of physical layout -- every row goes
    #               through one bucketed exchange on its file key, and each
    #               bucket is sorted by (file, line_no) before the parse.
    fill_mode: str = "batch"
    # Logstash-side semantics (openstack-filters.conf), opt-in because
    # the logsender reference path ships one doc per line:
    #  - multiline_join: fold continuation lines into their anchor event
    #    (conf:12-43) -- every traceback becomes ONE doc;
    #  - grok_fields: extract module/pid/syslog_program/... columns per
    #    source family (conf:44-77).
    multiline_join: bool = False
    grok_fields: bool = False

    # Dead-letter queue: when set, the row-at-a-time parse branches
    # (performance/subunit JSON -- the realistic poison vectors) write
    # rows whose payload raises (e.g. corrupt JSON) to quarantine
    # Parquet with the exception string attached
    # (stages/quarantine.py:quarantine_rows, content-addressed =>
    # retry-stable), and the rest of the partition flows on.
    # ``/metrics`` counts the quarantined rows at scrape time.
    # None = fail fast (a poison row kills its task), matching the
    # reference's behavior.  The vectorized logline branch keeps
    # fail-fast layout-contract semantics either way (its errors mean
    # a violated block layout, not a poison row).
    quarantine_dir: str | None = None

    # Skew note: the count aggregate needs no explicit salt -- the
    # flagship fan-out writer (pipelines/flagship.py:make_fanout_writer)
    # collapses every block to O(#partitions x #sinks x #severities)
    # count partials, so a hot sink ships the same few bytes as a cold
    # one.  Fill-mode "grouped" shuffles whole files into coarse hash
    # buckets of the file key, so a hot build spreads over its files'
    # buckets; one file's rows must fit in one bucket.

    def index_name(self) -> str:
        return self.index_prefix + self.run_date.strftime("%Y.%m.%d")

    def perf_index_name(self) -> str:
        return self.performance_index_prefix + self.run_date.strftime("%Y.%m.%d")

    def subunit_index_name(self) -> str:
        return self.subunit_index_prefix + self.run_date.strftime("%Y.%m.%d")


@dataclass(frozen=True)
class FileConfigEntry:
    """One entry of the download-list file config (download-list.yaml.sample)."""

    name: str
    tags: tuple[str, ...] = field(default_factory=tuple)


# Default file config used by corpus + tests; mirrors the shape (not the
# content) of download-list.yaml.sample:5-80.
DEFAULT_FILE_CONFIG: tuple[FileConfigEntry, ...] = (
    FileConfigEntry("job-output.txt", ("console", "console.html")),
    FileConfigEntry("controller/logs/screen-n-api.txt", ("screen", "oslofmt", "devstack", "nova")),
    FileConfigEntry("controller/logs/syslog.txt", ("syslog",)),
    FileConfigEntry("logs/apache/error_log.txt", ("apacheerror",)),
    FileConfigEntry("controller/logs/libvirt/libvirtd_log.txt", ("libvirt",)),
    FileConfigEntry("controller/logs/performance.json", ("performance", "devstack")),
    FileConfigEntry("testrepository.subunit", ()),
)
