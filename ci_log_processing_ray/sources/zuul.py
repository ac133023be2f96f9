"""Live Zuul HTTP source (S1-S5 + S7 + M17): the reference's network
path re-expressed Ray-Data-first.

Split of responsibilities at scale:

* **Listing is driver-side** -- the ``/builds`` pager is inherently
  sequential (``skip=N`` pagination with an in-flight uuid dedup
  guarding against page drift, logscraper.py:414-440) and tiny
  (O(max_builds) dicts), so it stays a generator on the driver.
* **Fetching is distributed** -- the per-build file downloads (the
  actual bytes) run as an actor-pool ``map_batches`` over the build
  list: one HTTP client per actor (ST2), every configured file AND its
  ``.gz`` twin tried (get_files_to_check, logscraper.py:515-527),
  decode shared with the build-dir source (sources/textlog.py).

All network access is INJECTED: callers pass ``get_json(url)`` /
a ``fetcher_factory`` returning ``get_bytes(url) -> bytes | None``.
The engine never imports an HTTP library -- tests run fully offline
with dict-backed fakes, and a real deployment plugs in urllib/requests.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator, Optional

import pyarrow as pa

import ray
import ray.data

from ..config import DEFAULT_FILE_CONFIG, FileConfigEntry
from .textlog import ROW_SCHEMA, decode_file

GetJson = Callable[[str], object]
GetBytes = Callable[[str], Optional[bytes]]


# ---------------------------------------------------------------------------
# M17: version parser + `&complete=true` gate (logscraper.py:376-411)
# ---------------------------------------------------------------------------
def parse_version(version_txt: Optional[str]) -> Optional[tuple[int, ...]]:
    """Zuul version string -> comparable tuple: drop the rpm package
    suffix (``-1.el7``) and the pip dev suffix (``.dev6 22f04be1``)."""
    if not version_txt:
        return None
    v = version_txt.split("-")[0].split(".dev")[0].strip()
    try:
        return tuple(int(p) for p in v.split("."))
    except ValueError:
        raise ValueError("Invalid zuul version: %s" % version_txt)


def zuul_complete_param(get_json: GetJson, zuul_url: str) -> str:
    """``&complete=true`` if the Zuul at /status is >= 4.7.0, else ''."""
    status = get_json(zuul_url.rstrip("/") + "/status") or {}
    version = parse_version(status.get("zuul_version"))
    return "&complete=true" if version and version >= (4, 7, 0) else ""


# ---------------------------------------------------------------------------
# S2: jobs-list intersection (logscraper.py:443-454)
# ---------------------------------------------------------------------------
def filter_available_jobs(
    get_json: GetJson, zuul_api_url: str, job_names: Iterable[str]
) -> list[str]:
    available = get_json(zuul_api_url.rstrip("/") + "/jobs") or []
    names = {j.get("name") for j in available}
    return [j for j in job_names if j in names]


# ---------------------------------------------------------------------------
# S1: paginated /builds listing with page-drift dedup
# (logscraper.py:414-440)
# ---------------------------------------------------------------------------
def iter_builds(
    get_json: GetJson,
    zuul_url: str,
    job_name: Optional[str] = None,
    *,
    page_size: int = 100,
    complete_param: str = "",
) -> Iterator[dict]:
    """Yield build dicts page by page.  A uuid may reappear on a later
    page when new builds land between requests (skip-based pagination
    drifts); the in-flight ``known`` set yields each build once."""
    extra = ("&job_name=" + job_name) if job_name else ""
    base = (zuul_url.rstrip("/") + "/builds?limit=" + str(page_size)
            + extra + complete_param)
    known: set[str] = set()
    pos = 0
    while True:
        page = get_json(base + "&skip=" + str(pos))
        if not page:
            return
        for build in page:
            if build["uuid"] not in known:
                yield build
            known.add(build["uuid"])
            pos += 1


def get_last_job_results(
    get_json: GetJson,
    zuul_url: str,
    max_builds: int,
    seen,
    job_name: Optional[str] = None,
    *,
    complete_param: str = "",
) -> Iterator[dict]:
    """J4 anti-join against the checkpoint: yield at most ``max_builds``
    builds whose ``_id``/uuid is not in ``seen`` (any object with
    ``contains``/``add``, e.g. state/manifest.py's cache)."""
    count = 0
    for build in iter_builds(get_json, zuul_url, job_name,
                             complete_param=complete_param):
        count += 1
        if count > int(max_builds):
            break
        key = build.get("_id", build["uuid"])
        if seen.contains(key):
            continue
        seen.add(key)
        yield build


# ---------------------------------------------------------------------------
# files-to-check expansion (logscraper.py:515-527): every configured
# name plus its .gz twin
# ---------------------------------------------------------------------------
def files_to_check(
    file_config: tuple[FileConfigEntry, ...] = DEFAULT_FILE_CONFIG,
) -> list[str]:
    names = [e.name for e in file_config]
    return names + [n + ".gz" for n in names]


# ---------------------------------------------------------------------------
# M11/M12 engine-side: build dict + inventory -> typed meta record
# (semantics of makeZuulCapability + makeFields, logsender.py:220-285;
# conformance-tested against reference_impl.make_fields)
# ---------------------------------------------------------------------------
def normalize_build_fields(buildinfo: dict, inventory: dict) -> dict:
    """Typed-schema deviation from the reference dict: ``build_change``
    is None (not '') when absent, hosts_region sorted (the reference's
    set order is hash-dependent)."""
    zuul = dict(inventory.get("all", {}).get("vars", {}).get("zuul", {}))
    b = dict(buildinfo)
    project = (zuul["project"].get("name")
               if isinstance(zuul.get("project"), dict)
               else b.get("project"))
    ref = b.get("ref")
    if isinstance(ref, dict):
        ref = ref.get("ref")
    for key in ("branch", "change", "patchset"):
        if not zuul.get(key):
            zuul[key] = b.get(key)
    buildset = (b["buildset"].get("uuid")
                if isinstance(b.get("buildset"), dict)
                else zuul.get("buildset", b.get("buildset")))
    change_url = zuul.get("change_url") or b.get("ref_url")
    hosts_id, regions = [], set()
    for info in inventory.get("all", {}).get("hosts", {}).values():
        np_ = info.get("nodepool", {})
        if "host_id" in np_:
            hosts_id.append(np_["host_id"])
            regions.add("%s-%s" % (np_["cloud"], np_["region"]))
    change = zuul.get("change")
    executor = zuul.get("executor")
    return {
        "build_uuid": str(b.get("uuid")),
        "build_node": "zuul-executor",
        "build_name": b.get("job_name"),
        "build_status": b["result"],
        "project": project,
        "voting": int(zuul.get("voting", 2)),
        "build_set": str(buildset if buildset is not None else "NONE"),
        "build_queue": zuul.get("pipeline", "NONE"),
        "build_ref": ref,
        "build_branch": zuul.get("branch"),
        "build_change": int(change) if change else None,
        "build_patchset": zuul.get("patchset"),
        "build_newrev": zuul.get("newrev", ""),
        "node_provider": "local",
        "log_url": b.get("log_url"),
        "tenant": b.get("tenant"),
        "hosts_id": hosts_id,
        "hosts_region": sorted(regions),
        "zuul_executor": (executor.get("hostname")
                          if isinstance(executor, dict) else None),
        "change_url": change_url if change_url is not None else "",
    }


def _parse_inventory(data: Optional[bytes]) -> dict:
    if not data:
        return {}
    try:
        import yaml

        return yaml.safe_load(data.decode("utf-8", errors="replace")) or {}
    except ImportError:
        # no YAML parser in this environment: accept JSON-shaped
        # inventories (YAML is a JSON superset), else empty
        try:
            return json.loads(data)
        except Exception:
            return {}
    except Exception:
        return {}


# ---------------------------------------------------------------------------
# Distributed fetch: builds -> parse-ready rows (ROW_SCHEMA)
# ---------------------------------------------------------------------------
_BUILD_COLS = ("uuid", "log_url", "result", "end_time")


class BuildFetcher:
    """Actor-pool stage: one HTTP client per actor (fetcher_factory runs
    in __init__, ST2), builds arrive in batches, rows leave in the
    build-dir source's schema so parse/enrich/route are unchanged.

    Builds without a log_url (ABORTED / NODE_FAILURE) synthesize the
    ``custom-job-results.txt`` doc ``"{end_time} | {result}"`` exactly
    like create_custom_result (logscraper.py:568-575)."""

    def __init__(self, fetcher_factory: Callable[[], GetBytes],
                 file_config: tuple[FileConfigEntry, ...]):
        self.get_bytes = fetcher_factory()
        self.file_config = file_config
        self.names = [e.name for e in file_config]

    def _build_rows(self, uuid, log_url, result, end_time):
        out = []
        if not log_url:
            data = ("%s | %s" % (end_time, result)).encode()
            rows, fname, source = decode_file(
                "custom-job-results.txt", data, self.file_config)
            for i, row in enumerate(rows):
                out.append((f"{uuid}/{fname}/{i:06d}", row, source))
            return out
        base = log_url.rstrip("/") + "/"
        for name in self.names:
            data = self.get_bytes(base + name)
            fetched = name
            if data is None:  # try the .gz twin (logscraper.py:515-527)
                fetched = name + ".gz"
                data = self.get_bytes(base + fetched)
            if data is None:
                continue
            rows, fname, source = decode_file(
                fetched, data, self.file_config)
            for i, row in enumerate(rows):
                out.append((f"{uuid}/{fname}/{i:06d}", row, source))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, lines, sources = [], [], []
        for uuid, log_url, result, end_time in zip(
                *(batch[c].to_pylist() for c in _BUILD_COLS)):
            for doc_id, line, source in self._build_rows(
                    uuid, log_url, result, end_time):
                doc_ids.append(doc_id)
                lines.append(line)
                sources.append(source)
        return pa.table({
            "doc_id": pa.array(doc_ids, type=pa.string()),
            "line": pa.array(lines, type=pa.string()),
            "source": pa.array(sources, type=pa.string()),
            "n_tok": pa.array([0] * len(doc_ids), type=pa.int32()),
        }, schema=ROW_SCHEMA)


def read_zuul_builds(
    builds: list[dict],
    fetcher_factory: Callable[[], GetBytes],
    *,
    file_config: tuple[FileConfigEntry, ...] = DEFAULT_FILE_CONFIG,
    concurrency: tuple[int, int] | int = (1, 8),
) -> ray.data.Dataset:
    """Build dicts (from ``get_last_job_results``) -> parse-ready rows.

    One build per input block so each build's files stay contiguous
    (the carry-forward/multiline layout contract), downloads fan out
    across the actor pool, and a failed build re-runs as one task."""
    items = [{c: b.get(c) for c in _BUILD_COLS} for b in builds]
    ds = ray.data.from_items(items).repartition(max(1, len(items)))
    return ds.map_batches(
        BuildFetcher, fn_constructor_args=(fetcher_factory, file_config),
        batch_format="pyarrow", batch_size=None, concurrency=concurrency)


def fetch_build_meta(
    builds: list[dict],
    fetcher_factory: Callable[[], GetBytes],
    *,
    concurrency: tuple[int, int] | int = (1, 4),
) -> pa.Table:
    """S4+M12: fetch each build's ``zuul-info/inventory.yaml`` and emit
    the typed build_meta table (the broadcast side of the enrich join).
    Distributed fetch -- one row per build comes back, so materializing
    the result is O(builds), never O(log lines)."""
    from .synth import BUILD_META_SCHEMA

    class MetaFetcher:
        def __init__(self):
            self.get_bytes = fetcher_factory()

        def __call__(self, batch: dict) -> pa.Table:
            recs = []
            for raw in batch["payload"]:
                b = json.loads(raw)
                inv = {}
                if b.get("log_url"):
                    inv = _parse_inventory(self.get_bytes(
                        b["log_url"].rstrip("/") + "/zuul-info/inventory.yaml"))
                recs.append(normalize_build_fields(b, inv))
            cols = {n: [r.get(n) for r in recs]
                    for n in BUILD_META_SCHEMA.names}
            return pa.table(cols, schema=BUILD_META_SCHEMA)

    ds = ray.data.from_items(
        [{"payload": json.dumps(b, default=str)} for b in builds])
    out = ds.map_batches(MetaFetcher, batch_size=32,
                         concurrency=concurrency)
    # iter_batches, not to_arrow_refs: the latter fetches the schema by
    # running the plan again on one block, i.e. fetching inventories twice
    tables = [t for t in out.iter_batches(batch_format="pyarrow",
                                          batch_size=None) if len(t)]
    if not tables:
        return pa.table({n: pa.nulls(0, BUILD_META_SCHEMA.field(n).type)
                         for n in BUILD_META_SCHEMA.names},
                        schema=BUILD_META_SCHEMA)
    return pa.concat_tables(tables).cast(BUILD_META_SCHEMA)
