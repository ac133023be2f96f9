"""Live Zuul HTTP source (S1-S5 + S7 + M17): the reference's network
path re-expressed for Ray tasks.

Split of responsibilities at scale:

* **Listing is driver-side** -- the ``/builds`` pager is inherently
  sequential (``skip=N`` pagination with an in-flight uuid dedup
  guarding against page drift, logscraper.py:414-440) and tiny
  (O(max_builds) dicts), so it stays a generator on the driver.
* **Fetching is per build** -- as the reference maps ``run_build`` over
  its process pool (logscraper.py:726-727), each build is fetched by
  one Ray task with its own HTTP client (ST2): ``fetch_build_meta``'s
  tasks download the inventories, and the live tick's tasks
  (pipelines/live.py) call ``build_rows``, which tries every configured
  file AND its ``.gz`` twin (get_files_to_check, logscraper.py:515-527)
  and decodes them as the build-dir source does (sources/textlog.py).

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


def build_key(build: dict) -> str:
    """A build's anti-join key: Zuul's ``_id`` when the listing carries
    one (the reference's BuildCache key), else its uuid."""
    return str(build.get("_id", build["uuid"]))


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
    builds whose ``build_key`` is not in ``seen`` (any object with
    ``contains``/``add``, e.g. pipelines/live.py's manifest view)."""
    count = 0
    for build in iter_builds(get_json, zuul_url, job_name,
                             complete_param=complete_param):
        count += 1
        if count > int(max_builds):
            break
        key = build_key(build)
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
# Per-build fetch: one build -> parse-ready rows (ROW_SCHEMA), and one
# build_meta row per build
# ---------------------------------------------------------------------------
def _fetched_files(build: dict, get_bytes: GetBytes,
                   file_config: tuple[FileConfigEntry, ...]
                   ) -> Iterator[tuple[str, bytes]]:
    """(fetched name, body) of every file the build has: each configured
    name, or its ``.gz`` twin when the plain name is missing
    (logscraper.py:515-527).  A build without a log_url (ABORTED /
    NODE_FAILURE) has only the ``custom-job-results.txt`` doc
    ``"{end_time} | {result}"`` of create_custom_result
    (logscraper.py:568-575)."""
    log_url = build.get("log_url")
    if not log_url:
        yield "custom-job-results.txt", ("%s | %s" % (
            build.get("end_time"), build.get("result"))).encode()
        return
    base = log_url.rstrip("/") + "/"
    for name in (e.name for e in file_config):
        for fetched in (name, name + ".gz"):
            data = get_bytes(base + fetched)
            if data is not None:
                yield fetched, data
                break


def build_rows(
    build: dict,
    get_bytes: GetBytes,
    file_config: tuple[FileConfigEntry, ...] = DEFAULT_FILE_CONFIG,
) -> pa.Table:
    """One build's files -> rows in the build-dir source's schema
    (``ROW_SCHEMA``, doc_id ``{uuid}/{file}/{line:06d}``), decoded as
    that source decodes them, so parse/enrich/route are unchanged.  Each
    file's rows stay contiguous and in line order (the carry-forward
    layout contract)."""
    doc_ids, lines, sources = [], [], []
    for fetched, data in _fetched_files(build, get_bytes, file_config):
        rows, fname, source = decode_file(fetched, data, file_config)
        doc_ids += [f"{build['uuid']}/{fname}/{i:06d}"
                    for i in range(len(rows))]
        lines += rows
        sources += [source] * len(rows)
    return pa.table({
        "doc_id": pa.array(doc_ids, type=pa.string()),
        "line": pa.array(lines, type=pa.string()),
        "source": pa.array(sources, type=pa.string()),
        "n_tok": pa.array([0] * len(doc_ids), type=pa.int32()),
    }, schema=ROW_SCHEMA)


@ray.remote
def _meta_task(build: dict, fetcher_factory: Callable[[], GetBytes]) -> dict:
    get_bytes = fetcher_factory()
    inv = {}
    if build.get("log_url"):
        inv = _parse_inventory(get_bytes(
            build["log_url"].rstrip("/") + "/zuul-info/inventory.yaml"))
    return normalize_build_fields(build, inv)


def fetch_build_meta(
    builds: list[dict],
    fetcher_factory: Callable[[], GetBytes],
) -> pa.Table:
    """S4+M12: fetch each build's ``zuul-info/inventory.yaml`` and emit
    the typed build_meta table (the broadcast side of the enrich join),
    one row per build in build order.  One Ray task per build, which
    opens its own fetcher as the reference's ``run_build`` does."""
    from .synth import BUILD_META_SCHEMA

    factory = ray.put(fetcher_factory)
    recs = ray.get([_meta_task.remote(b, factory) for b in builds])
    return pa.Table.from_pylist(recs, schema=BUILD_META_SCHEMA)
