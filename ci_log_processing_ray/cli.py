"""CLI entry point: the rebuild's analogue of the reference's
``logscraper`` + ``logsender`` console scripts (setup.cfg:25-29).

One command runs the whole parse -> enrich -> route -> write+aggregate
batch (or a --follow polling loop) over a directory/glob of
pre-tokenized Parquet shards:

    python -m ci_log_processing_ray \
        --inputs '/data/corpus/token_sequences/*.parquet' \
        --build-meta /data/corpus/build_meta.parquet \
        --out /data/routed --skip-debug

    # micro-batch streaming (the reference's --follow --wait-time):
    ... --follow --ticks 10 --wait-time 120

This module OWNS a Ray session (guarded init) -- the only places
allowed to, per the driver contract.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
import time


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ci-log-processing-ray",
        description="Ray-Data-native CI log parse->enrich->route->aggregate")
    p.add_argument("--inputs",
                   help="glob of token-sequence parquet shards "
                        "(batch mode; required unless --live)")
    p.add_argument("--build-meta",
                   help="build_meta parquet path "
                        "(batch mode; required unless --live)")
    p.add_argument("--live", action="store_true",
                   help="live mode: list builds from a Zuul API and "
                        "fetch log files over HTTP (S1->S12; see "
                        "pipelines/live.py)")
    p.add_argument("--zuul-url",
                   help="Zuul API base URL (live mode)")
    p.add_argument("--job-names", nargs="*", default=None,
                   help="job names to scrape (live mode; default: all)")
    p.add_argument("--max-builds", type=int, default=100,
                   help="builds per job per tick (live mode)")
    p.add_argument("--compact-dir",
                   help="compact mode: coalesce an existing routed "
                        "tree's per-(shard, sink) small files into "
                        "~target-size files under --out "
                        "(pipelines/compact.py; idempotent)")
    p.add_argument("--target-bytes", type=int, default=128 << 20,
                   help="compact mode: max bytes per output file")
    p.add_argument("--out", required=True, help="output root directory")
    p.add_argument("--skip-debug", action="store_true",
                   help="drop lines containing DEBUG (logsender --skip-debug)")
    p.add_argument("--fill-mode", choices=["batch", "grouped"],
                   default="batch",
                   help="batch: parse each block where it lies (inputs "
                        "must keep each log file's rows contiguous and in "
                        "line order within a parquet row group); grouped: "
                        "any layout, shuffling each file into one bucket "
                        "and sorting it first")
    p.add_argument("--no-resume", action="store_true",
                   help="reprocess inputs even if manifests exist")
    p.add_argument("--follow", action="store_true",
                   help="poll for new inputs (reference --follow)")
    p.add_argument("--ticks", type=int, default=1000000,
                   help="max polling ticks in --follow mode")
    p.add_argument("--wait-time", type=float, default=120.0,
                   help="seconds between ticks (reference default 120)")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="ray.init num_cpus (default: all)")
    p.add_argument("--monitoring-port", type=int, default=None,
                   help="expose Prometheus metrics on this port "
                        "(reference --monitoring-port; 0 picks a free "
                        "port).  Serves GET /metrics folded from the "
                        "partition manifests under <out>/manifests, the "
                        "run's only record; most useful with --follow")
    p.add_argument("--quarantine-dir", default=None,
                   help="dead-letter dir: corrupt performance/subunit "
                        "JSON rows land here as Parquet (with the "
                        "exception string) instead of killing their "
                        "partition; /metrics counts its rows at scrape "
                        "time (cilog_quarantined_rows)")
    return p


def _urllib_get_json(url: str):
    """Default live-mode JSON fetcher (stdlib only; the engine itself
    stays injection-based and network-free -- tests use dict fakes)."""
    import urllib.request

    with urllib.request.urlopen(url, timeout=30) as r:
        return json.loads(r.read().decode("utf-8"))


def _urllib_fetcher_factory():
    import urllib.error
    import urllib.request

    def get_bytes(url: str):
        try:
            with urllib.request.urlopen(url, timeout=60) as r:
                return r.read()
        except urllib.error.URLError:
            return None

    return get_bytes


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False)
    metrics_server = None
    try:
        from .config import PipelineConfig
        from .pipelines.flagship import run_pipeline
        from .pipelines.follow import run_follow

        cfg = PipelineConfig(skip_debug=args.skip_debug,
                             fill_mode=args.fill_mode,
                             quarantine_dir=args.quarantine_dir)

        if args.monitoring_port is not None:
            from .state.monitoring import MetricsServer, Monitoring

            metrics_server = MetricsServer(
                Monitoring(args.out, args.quarantine_dir),
                port=args.monitoring_port)
            bound = metrics_server.start()
            print(json.dumps({"monitoring_port": bound}), flush=True)

        if args.compact_dir:
            from .pipelines.compact import compact_routed

            stats = compact_routed(args.compact_dir, args.out,
                                   target_bytes=args.target_bytes)
            print(json.dumps({
                "sinks": stats.to_pylist(),
                **{c: sum(stats[c].to_pylist()) for c in stats.column_names
                   if c != "sink"},
            }))
            return 0

        if args.live:
            if not args.zuul_url:
                raise SystemExit("--live requires --zuul-url")
            from .pipelines.live import run_live

            results = [run_live(
                _urllib_get_json, _urllib_fetcher_factory,
                args.zuul_url, args.out, cfg,
                job_names=args.job_names, max_builds=args.max_builds,
                clock_now=time.time())]
            last = results[-1]
            print(json.dumps({
                "ticks": 1,
                "n_pending": last.n_pending,
                "n_skipped": last.n_skipped,
                "routed_dir": last.routed_dir,
                "counts": last.counts.to_pylist(),
            }, default=str))
            return 0
        if not args.inputs or not args.build_meta:
            raise SystemExit("batch mode requires --inputs and --build-meta")

        def list_inputs():
            return sorted(glob.glob(args.inputs))

        if args.follow:
            results = run_follow(
                list_inputs, args.build_meta, args.out, cfg,
                ticks=args.ticks, wait_seconds=args.wait_time,
                sleep_fn=time.sleep, clock0=time.time(),
                stop_when_idle=False)
        else:
            results = [run_pipeline(list_inputs(), args.build_meta,
                                    args.out, cfg,
                                    resume=not args.no_resume,
                                    clock_now=time.time())]
        last = results[-1]
        print(json.dumps({
            "ticks": len(results),
            "n_pending": last.n_pending,
            "n_skipped": last.n_skipped,
            "routed_dir": last.routed_dir,
            "counts": last.counts.to_pylist(),
        }, default=str))
        return 0
    finally:
        if metrics_server is not None:
            metrics_server.stop()
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
