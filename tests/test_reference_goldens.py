"""Reference golden-value tests, re-expressed from the reference's own
unit-test expectations (SURVEY.md §5): the same inputs must produce the
same golden outputs from OUR implementation.

Fixtures are condensed to the fields the operators actually consume;
golden values are verbatim from /root/reference/logscraper/tests/
test_logsender.py (cited per test).
"""

import json

import pyarrow as pa

from ci_log_processing_ray import reference_impl as ref
from ci_log_processing_ray.config import PipelineConfig

# inventory essentials (test_logsender.py:118-274)
INVENTORY = {
    "all": {
        "hosts": {
            "fedora-35": {
                "nodepool": {
                    "az": None,
                    "cloud": "rax",
                    "host_id": "ed82a4a59ac22bf396288f0b93bf1c658af9321"
                               "30f9d336aad528f21",
                    "label": "fedora-35",
                    "provider": "rax-dfw",
                    "region": "DFW",
                },
            },
        },
        "vars": {
            "zuul": {
                "branch": "master",
                "build": "38bf2cdc947643c9bb04f11f40a0f211",
                "buildset": "52b29e0e716a4436bd20eed47fa396ce",
                "change": "829161",
                "change_url": "https://review.opendev.org/829161",
                "executor": {"hostname": "ze07.opendev.org"},
                "job": "openstack-tox-py39",
                "patchset": "3",
                "pipeline": "check",
                "project": {
                    "canonical_name": "opendev.org/openstack/neutron",
                    "name": "openstack/neutron",
                    "short_name": "neutron",
                },
                "ref": "refs/changes/61/829161/3",
                "tenant": "openstack",
                "voting": True,
            },
        },
    },
}

# old-Zuul buildinfo (test_logsender.py:29-69)
BUILDINFO_OLD = {
    "branch": "master",
    "buildset": {"uuid": "52b29e0e716a4436bd20eed47fa396ce"},
    "change": 829161,
    "end_time": "2022-02-28T10:07:36",
    "job_name": "openstack-tox-py39",
    "log_url": "https://somehost/829161/3/check/openstack-tox-py39/38bf2cd/",
    "newrev": None,
    "patchset": "3",
    "pipeline": "check",
    "project": "openstack/neutron",
    "ref": "refs/changes/61/829161/3",
    "ref_url": "https://review.opendev.org/829161",
    "result": "SUCCESS",
    "tenant": "openstack",
    "uuid": "38bf2cdc947643c9bb04f11f40a0f211",
    "voting": True,
}

# new-Zuul buildinfo: ref is a DICT, no top-level change/patchset/project
# (test_logsender.py:71-116)
BUILDINFO_NEW = {
    "branch": "master",
    "buildset": {"uuid": "52b29e0e716a4436bd20eed47fa396ce"},
    "end_time": "2022-02-28T10:07:36",
    "job_name": "openstack-tox-py39",
    "log_url": "https://somehost/829161/3/check/openstack-tox-py39/38bf2cd/",
    "pipeline": "check",
    "ref": {
        "branch": "master",
        "change": 829161,
        "newrev": None,
        "oldrev": None,
        "patchset": "1",
        "project": "openstack/neutron",
        "ref": "refs/changes/61/829161/3",
        "ref_url": "https://review.opendev.org/829161",
    },
    "result": "SUCCESS",
    "tenant": "openstack",
    "uuid": "38bf2cdc947643c9bb04f11f40a0f211",
    "voting": True,
}

# golden es_fields (test_logsender.py:276-298)
PARSED_FIELDS = {
    "build_node": "zuul-executor",
    "build_name": "openstack-tox-py39",
    "build_status": "SUCCESS",
    "project": "openstack/neutron",
    "voting": 1,
    "build_set": "52b29e0e716a4436bd20eed47fa396ce",
    "build_queue": "check",
    "build_ref": "refs/changes/61/829161/3",
    "build_branch": "master",
    "build_change": 829161,
    "build_patchset": "3",
    "build_newrev": "",
    "build_uuid": "38bf2cdc947643c9bb04f11f40a0f211",
    "change_url": "https://review.opendev.org/829161",
    "node_provider": "local",
    "hosts_region": ["rax-DFW"],
    "hosts_id": ["ed82a4a59ac22bf396288f0b93bf1c658af932130f9d336aad528f21"],
    "log_url": "https://somehost/829161/3/check/openstack-tox-py39/38bf2cd/",
    "tenant": "openstack",
    "zuul_executor": "ze07.opendev.org",
}


def test_make_fields_old_zuul_golden():
    assert ref.make_fields(INVENTORY, BUILDINFO_OLD) == PARSED_FIELDS


def test_make_fields_new_zuul_golden():
    """Old and new Zuul schema yield the IDENTICAL golden dict
    (schema-drift normalization, logsender.py:220-249)."""
    assert ref.make_fields(INVENTORY, BUILDINFO_NEW) == PARSED_FIELDS


def test_flatten_perf_guards():
    """makeJsonFields bad-value guards (test_logsender.py:1121-1168):
    non-int MemoryCurrent -> 0; non-int db count -> key skipped;
    non-int api value skipped; 2^64-1 memory -> 0."""
    json_content = {
        "services": [
            {"service": "apache2.service", "MemoryCurrent": "[not set]"}],
        "db": [{"db": "glance", "op": "DELETE", "count": "[not set]"}],
        "api": [{
            "service": "placement",
            "largest": 2151,
            "nova-scheduler-GET": "[not set]",
        }],
        "report": {
            "timestamp": "2022-08-10T13:51:50.928521",
            "hostname": "ubuntu-focal-rax-iad-0030685864",
            "version": 2,
        },
    }
    assert ref.flatten_perf_json(json.dumps(json_content)) == {
        "api_placement_largest": 2151,
        "hostname": "ubuntu-focal-rax-iad-0030685864",
        "service_apache2.service_memorycurrent": 0,
    }

    json_content_alt = {
        "services": [{"service": "apache2.service",
                      "MemoryCurrent": 18446744073709551615}],
        "db": [],
        "processes": [],
        "api": [],
        "report": {
            "timestamp": "2023-05-02T15:40:49.770732",
            "hostname": "np0033916789",
            "version": 2,
        },
    }
    assert ref.flatten_perf_json(json.dumps(json_content_alt)) == {
        "hostname": "np0033916789",
        "service_apache2.service_memorycurrent": 0,
    }


def test_parse_stage_flatten_matches_reference_guards():
    """The parse-stage flattener must apply the same guards as the
    reference oracle (stages/parse.py:_flatten_perf)."""
    from ci_log_processing_ray.stages.parse import _flatten_perf

    payload = json.dumps({
        "services": [{"service": "a.service", "MemoryCurrent": "[not set]"},
                     {"service": "b.service",
                      "MemoryCurrent": 18446744073709551615}],
        "db": [{"db": "glance", "op": "DELETE", "count": "bad"},
               {"db": "nova", "op": "SELECT", "count": 7}],
        "api": [{"service": "placement", "largest": 3,
                 "log": "skipme", "GET": "notint"}],
        "report": {"timestamp": "2022-08-10T13:51:50", "hostname": "h"},
    })
    got = _flatten_perf(json.loads(payload))
    assert got == ref.flatten_perf_json(payload)
    assert got["service_a.service_memorycurrent"] == 0
    assert got["service_b.service_memorycurrent"] == 0
    assert "db_glance_delete" not in got
    assert got["db_nova_select"] == 7
    assert got["api_placement_largest"] == 3
    assert "api_placement_log" not in got


def _perf_block(reports: list[dict]) -> tuple[pa.Table, list[str]]:
    """A parse input block of performance.json rows, one per report,
    and the rows' payloads."""
    from ci_log_processing_ray.sources.synth import _encode_tokens

    lines = [json.dumps({"report": r, "services": []}) for r in reports]
    return pa.table({
        "doc_id": [f"build-{i}/performance.json/000000"
                   for i in range(len(lines))],
        "tokens": _encode_tokens(lines),
        "n_tok": pa.array([len(l.encode()) for l in lines], type=pa.int32()),
        "source": ["performance"] * len(lines),
    }), lines


def test_parse_stage_perf_timestamps_match_reference(tmp_path):
    """Each performance row's ts equals reference_impl.perf_timestamp
    (logsender.py:384-391) on the paths synth never reaches: a yearless
    stamp (year-1900 patch), an unparsable one and a missing one (both
    fallback_now).  A non-string timestamp raises, as in the reference;
    with a quarantine dir only that row is dead-lettered."""
    import glob
    import os

    import pyarrow.parquet as pq
    import pytest

    from ci_log_processing_ray.stages.parse import make_parse_fn

    good = [{"hostname": "h", "timestamp": "2022-08-10T13:51:50"},
            {"hostname": "h", "timestamp": "Mar 25 10:00:00"},
            {"hostname": "h", "timestamp": "not a time"},
            {"hostname": "h"}]
    tbl, lines = _perf_block(good + [{"hostname": "h", "timestamp": 12345}])
    cfg = PipelineConfig(quarantine_dir=str(tmp_path))
    out = make_parse_fn(cfg)(tbl)
    want = [ref.perf_timestamp(l, cfg.today_year, cfg.fallback_now)
            for l in lines[:4]]
    assert out["ts"].to_pylist() == want
    assert want[1].year == cfg.today_year
    assert want[2] == want[3] == cfg.fallback_now
    qt = pq.read_table(glob.glob(os.path.join(tmp_path, "poison-*"))[0])
    assert qt["doc_id"].to_pylist() == [tbl["doc_id"][4].as_py()]
    assert "TypeError" in qt["_error"][0].as_py()
    with pytest.raises(TypeError):
        ref.perf_timestamp(lines[4], cfg.today_year, cfg.fallback_now)
    with pytest.raises(TypeError):
        make_parse_fn(PipelineConfig())(tbl)


def test_parse_stage_perf_timestamps_one_call_per_block(monkeypatch):
    """The performance branch parses a block's report timestamps in one
    extract_timestamps call, not one per row."""
    from ci_log_processing_ray.stages import parse

    calls = []
    real = parse.extract_timestamps

    def counting(lines, today_year):
        calls.append(len(lines))
        return real(lines, today_year)

    monkeypatch.setattr(parse, "extract_timestamps", counting)
    tbl, _ = _perf_block([{"hostname": "h", "timestamp": "Mar 25 10:00:%02d"
                           % i} for i in range(20)])
    out = parse.make_parse_fn(PipelineConfig())(tbl)
    assert out.num_rows == 20
    assert calls == [20]


def test_subunit_duration_quirk():
    """The reference computes test_duration as float(f"{seconds}.{us}")
    (logsender.py:453-455) -- 1 s + 42 us becomes 1.42, NOT 1.000042.
    The quirk must be preserved bit-for-bit."""
    import datetime

    start = datetime.datetime(2022, 1, 1, 0, 0, 0, 0)
    end = datetime.datetime(2022, 1, 1, 0, 0, 1, 42)
    assert ref.subunit_duration(start, end) == 1.42
    end2 = datetime.datetime(2022, 1, 1, 0, 0, 2, 500000)
    assert ref.subunit_duration(start, end2) == 2.5
    assert ref.subunit_timestamp_str(start) == "2022-01-01T00:00:00Z"


def test_index_naming_goldens():
    """get_index naming (logsender.py:563-589; test_logsender.py:1219-1227):
    prefix + YYYY.MM.DD for main/performance/subunit families."""
    import datetime

    cfg = PipelineConfig(run_date=datetime.date(2022, 3, 25))
    assert cfg.index_name().endswith("2022.03.25")
    assert cfg.perf_index_name().startswith("performance-")
    assert cfg.perf_index_name().endswith("2022.03.25")
    assert cfg.subunit_index_name().startswith("subunit-")
