#!/usr/bin/env python3
"""One-core flagship benchmark: backfill, follow and logstash workloads.

    python3 perfbench/run.py --workload backfill --seed 1 --seconds 15 --trace 0

Run from the repository root. It times the public entry point
``pipelines/flagship.run_pipeline`` on one Ray CPU from this one
process, checks every timed operation's output against the cached
per-seed oracle, and prints as its last stdout line one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` a separate traced
in-process pass adds the per-layer breakdown (``layers.py``) and the metrics
are the per-layer ones. The line before it carries context that is not a
metric: the host yardstick ``calib_sec``, ``/proc/stat`` steal, sample
counts and where the spans were written. See ``README.md`` for why each
workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import glob
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

DEFAULT_SEED = 1
HOLDOUT_SEED = 8
# Follow starts on a store of HISTORY_MANIFESTS committed partitions, where
# ManifestStore.all() takes ~35 ms on one core. It stands for the
# reference's build cache, which keeps a day of builds (1-day TTL); the
# number of builds a day is assumed, not measured. A real run_pipeline
# commits the first HISTORY_SHARDS of them.
HISTORY_MANIFESTS = 2000
HISTORY_SHARDS = 2
WARMUP_ROWS = 256  # warm-up input: the first rows of shard 0, file-aligned
# Idle resume ticks after each data operation: follow interleaves one with
# its data ticks; backfill and logstash re-run over their indexed output
# three times, so that they too report a measured idle_tick_p50_s.
IDLE_TICKS = {"follow": 1, "backfill": 3, "logstash": 3}
POLL_GAP_S = 0.02  # untimed pause before each idle tick, as between polls

END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "tick_p50_s": "s",
    "tick_p90_s": "s",
    "idle_tick_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER_UNITS = {
    "read.s": "s", "read.rows": "count", "read.bytes": "bytes",
    "parse.s": "s", "parse.rows_in": "count", "parse.rows_out": "count",
    "functions.detok_s": "s", "functions.timestamps_s": "s",
    "functions.severity_s": "s", "functions.messages_s": "s",
    "grok.s": "s",
    "enrich.s": "s", "enrich.unknown_build_rows": "count",
    "route.s": "s", "route.rows_in": "count", "route.rows_out": "count",
    "write.s": "s", "write.rows": "count", "write.files": "count",
    "write.bytes": "bytes", "write.bytes_per_row": "bytes/row",
    "write.columns": "count",
    "state.pending_s": "s", "state.manifests_load_s": "s",
    "state.manifests": "count",
    "engine.overhead_s": "s",
    "trace.overhead_s": "s",
}


class Ops:
    """Timed operations of one run: wall times, and how many failed."""

    def __init__(self):
        self.walls: dict[str, list[float]] = collections.defaultdict(list)
        self.rates: list[float] = []
        self.attempted = 0
        self.failed = 0

    def record(self, kind: str, wall: float, problems: list[str]) -> None:
        self.attempted += 1
        self.walls[kind].append(wall)
        if problems:
            self.failed += 1
            print(f"{kind} failed its check: {problems}", file=sys.stderr)


def _timed(fn):
    """(result, wall seconds, problems); an exception is a failed operation."""
    t0 = time.perf_counter()
    try:
        res = fn()
    except Exception as e:  # a raising operation counts as failed
        return None, time.perf_counter() - t0, [repr(e)]
    return res, time.perf_counter() - t0, []


class Bench:
    def __init__(self, args, inputs_dir: str):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from check import Expected
        from inputs import BACKFILL_CFG, LOGSTASH_CFG

        self.cfg = LOGSTASH_CFG if args.workload == "logstash" else BACKFILL_CFG
        oracle = "logstash" if args.workload == "logstash" else "backfill"
        corpus = os.path.join(inputs_dir, "corpus")
        self.shards = sorted(glob.glob(
            os.path.join(corpus, "token_sequences", "*.parquet")))
        self.meta = pq.read_table(os.path.join(corpus, "build_meta.parquet"))
        self.oracle = pq.read_table(
            os.path.join(inputs_dir, f"oracle-{oracle}.parquet"))
        self.inputs = [pq.read_table(p, columns=["doc_id", "tokens"])
                       for p in self.shards]
        self.all_inputs = pa.concat_tables(self.inputs)
        self.n_rows = len(self.all_inputs)
        self.expected_all = Expected(self.oracle, list(range(len(self.shards))))
        self.work = os.path.join(WORK, "run")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.warmup = os.path.join(self.work, "warmup.parquet")
        pq.write_table(pq.read_table(self.shards[0]).slice(0, WARMUP_ROWS),
                       self.warmup)
        self.problems: list[str] = []
        self.idle_per_op = IDLE_TICKS[args.workload]
        self.ops = Ops()
        self.last_docs = 0  # routed docs of the operation the trace mirrors

    # -- set-up ------------------------------------------------------------
    def start_ray(self) -> float:
        """ray.init plus a warm-up run over a small input, which starts and
        imports the worker; returns their wall time."""
        import ray
        import ray.data

        from ci_log_processing_ray.pipelines.flagship import run_pipeline

        temp = os.path.join(WORK, "ray")  # removed when the run ends
        t0 = time.perf_counter()
        # one CPU: a single worker runs the fused operator, as on a one-core
        # box, whatever number of CPUs the host shows
        ray.init(num_cpus=1, include_dashboard=False,
                 logging_level=logging.ERROR, log_to_driver=False,
                 object_store_memory=256 << 20,
                 # unix socket paths under a long checkout path would
                 # exceed the kernel's limit; Ray then uses its default
                 _temp_dir=temp if len(temp) <= 40 else None)
        ray.data.DataContext.get_current().enable_progress_bars = False
        out = os.path.join(self.work, "warmup")
        run_pipeline([self.warmup], self.meta, out, self.cfg)
        wall = time.perf_counter() - t0
        shutil.rmtree(out, ignore_errors=True)
        return wall

    # -- workloads -----------------------------------------------------------
    def idle_ticks(self, tick, totals: collections.Counter) -> None:
        """Resume ticks with nothing pending; each must process nothing and
        report the oracle's per-sink totals from the manifests.

        Back-to-back ticks share one host state and read alike, so a run's
        median would rest on a handful of states; a pause before each tick
        samples more of them, and is what a polling loop does anyway."""
        from check import check_sink_totals

        for _ in range(self.idle_per_op):
            time.sleep(POLL_GAP_S)
            res, wall, problems = _timed(tick)
            if res is not None:
                if res.n_pending:
                    problems.append(f"idle tick processed {res.n_pending}")
                problems += check_sink_totals(res.counts, totals)
            self.ops.record("idle", wall, problems)

    def run_backfill(self, seconds: float) -> None:
        """Cold run_pipeline over the whole corpus into an empty output
        dir, then idle resume ticks on the committed output."""
        from check import check_counts, check_rows, read_routed
        from ci_log_processing_ray.pipelines.flagship import run_pipeline

        out = os.path.join(self.work, "out")
        deadline = time.perf_counter() + seconds
        while True:
            shutil.rmtree(out, ignore_errors=True)
            res, wall, problems = _timed(
                lambda: run_pipeline(self.shards, self.meta, out, self.cfg))
            if res is not None:
                problems += check_counts(res.counts, self.expected_all)
                problems += check_rows(read_routed(res.routed_dir),
                                       self.expected_all, self.all_inputs)
                self.last_docs = sum(res.counts["doc_count"].to_pylist())
            self.ops.record("run", wall, problems)
            self.ops.rates.append(self.n_rows / wall)

            self.idle_ticks(lambda: run_pipeline(
                self.shards, self.meta, out, self.cfg),
                self.expected_all.per_sink())
            if time.perf_counter() >= deadline:
                break
        self.trace_target = dict(
            shards=self.shards, store_dir=os.path.join(out, "manifests"),
            listing=self.shards, untraced_wall=statistics.median(
                self.ops.walls["run"]))

    def run_follow(self, seconds: float) -> None:
        """Micro-batch ticks: each data tick lands one new shard and calls
        run_pipeline(resume=True); idle ticks with nothing new follow."""
        from check import Expected, check_counts, check_rows, read_routed
        from ci_log_processing_ray.pipelines.flagship import run_pipeline
        from ci_log_processing_ray.state.manifest import (
            ManifestStore,
            partition_id,
        )

        listing_dir = os.path.join(self.work, "listing")
        out = os.path.join(self.work, "out")
        os.makedirs(listing_dir)
        per_shard = [Expected(self.oracle, [i]) for i in range(len(self.shards))]
        shard_rows = [len(t) for t in self.inputs]

        def listing() -> list[str]:
            return sorted(glob.glob(os.path.join(listing_dir, "*.parquet")))

        # preparation (untimed): a committed history of partitions. A real
        # run costs ~0.1 s per partition on one CPU, so only the first
        # HISTORY_SHARDS go through run_pipeline; each later one is a hard
        # link of shard 0 in the listing, committed with shard 0's manifest
        # under its own partition id.
        for i, src in enumerate(self.shards[:HISTORY_SHARDS]):
            shutil.copyfile(src, os.path.join(listing_dir, f"hist-{i:05d}.parquet"))
        history = Expected(self.oracle, list(range(HISTORY_SHARDS)))
        res = run_pipeline(listing(), self.meta, out, self.cfg)
        self.problems += check_counts(res.counts, history)
        store = ManifestStore(os.path.join(out, "manifests"))
        first = listing()[0]
        template = store.load(partition_id(first))
        for i in range(HISTORY_SHARDS, HISTORY_MANIFESTS):
            path = os.path.join(listing_dir, f"hist-{i:05d}.parquet")
            os.link(first, path)
            store.commit(dataclasses.replace(
                template, partition_id=partition_id(path), input_path=path))
        totals = history.per_sink()
        for sink, n in per_shard[0].per_sink().items():
            totals[sink] += n * (HISTORY_MANIFESTS - HISTORY_SHARDS)

        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            src = k % len(self.shards)
            dst = os.path.join(listing_dir, f"tick-{k:05d}.parquet")

            def data_tick():
                shutil.copyfile(self.shards[src], dst)
                return run_pipeline(listing(), self.meta, out, self.cfg,
                                    resume=True, clock_now=float(k))

            res, wall, problems = _timed(data_tick)
            if res is not None:
                if res.n_pending != 1:
                    problems.append(f"data tick processed {res.n_pending}")
                problems += check_counts(res.counts, per_shard[src])
                problems += check_rows(
                    read_routed(os.path.join(
                        res.routed_dir, f"part-{partition_id(dst)}")),
                    per_shard[src], self.inputs[src])
                if src == 0:
                    self.last_docs = sum(res.counts["doc_count"].to_pylist())
            totals += per_shard[src].per_sink()
            self.ops.record("run", wall, problems)
            self.ops.rates.append(shard_rows[src] / wall)

            self.idle_ticks(lambda: run_pipeline(
                listing(), self.meta, out, self.cfg, resume=True,
                clock_now=float(k)), totals)
            k += 1
            if time.perf_counter() >= deadline:
                break
        self.trace_target = dict(
            shards=self.shards[:1], store_dir=os.path.join(out, "manifests"),
            listing=listing(), untraced_wall=statistics.median(
                self.ops.walls["run"]))

    # -- metrics -------------------------------------------------------------
    def end_to_end(self, setup_wall: float, peak_rss_mb: float) -> dict:
        runs, idle = self.ops.walls["run"], self.ops.walls["idle"]
        return {
            "setup_s": setup_wall,
            "rows_per_s": statistics.median(self.ops.rates),
            "tick_p50_s": statistics.median(runs),
            "tick_p90_s": _p90(runs),
            "idle_tick_p50_s": statistics.median(idle),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - self.ops.failed / self.ops.attempted,
        }


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- processes -----------------------------------------------------------------
def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = collections.defaultdict(list)
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            kids[int(fields[1])].append(int(d))
    return kids


def descendants(pid: int) -> list[int]:
    kids, out, todo = _children_map(), [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::")


def peak_rss_mb() -> float:
    """Sum of VmHWM over this process and every Ray worker process."""
    pids = [os.getpid()] + [p for p in descendants(os.getpid())
                            if _is_ray_worker(p)]
    return sum(_status_kb(p, "VmHWM") for p in pids) / 1024.0


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    ray.shutdown()
    deadline = time.monotonic() + 20
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        left = descendants(os.getpid())
        if not left:
            return
        if time.monotonic() > deadline:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.1)


def steal_sample() -> tuple[int, int]:
    """(steal, total) jiffies from /proc/stat."""
    with open("/proc/stat") as f:
        vals = [int(v) for v in f.readline().split()[1:]]
    return (vals[7] if len(vals) > 7 else 0), sum(vals)


def prepare_inputs(seed: int) -> dict:
    """Generate or reuse the seed's inputs in a child process; also times
    the host yardstick there."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--seed", str(seed),
         "--cache", WORK], cwd=ROOT, stdout=subprocess.PIPE, check=True,
        timeout=150)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["backfill", "follow", "logstash"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "ci_log_processing_ray")):
        sys.exit(f"no ci_log_processing_ray package under {ROOT}; "
                 "run from a full checkout of the repository")
    sys.path[:0] = [ROOT, HERE]

    info = prepare_inputs(args.seed)
    bench = Bench(args, info["dir"])
    loop = bench.run_follow if args.workload == "follow" else bench.run_backfill

    try:
        # one set-up a run: the median over runs is setup_s's median, and
        # each further set-up would cost ~8 s of ray.init, warm-up and
        # shutdown that the timed loop needs more
        setup_wall = bench.start_ray()
        steal0 = steal_sample()
        loop(args.seconds)
        rss = peak_rss_mb()
    finally:
        stop_ray()
    steal1 = steal_sample()

    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "input_rows": bench.n_rows, "calib_sec": info["calib_sec"],
        "steal_frac": (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1]),
        "inputs_generated": info["generated"],
        "samples": {k: len(v) for k, v in bench.ops.walls.items()},
        "op_walls": bench.ops.walls,
        "setup_wall": setup_wall,
    }
    if args.trace:
        from layers import traced_metrics

        spans = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json")
        metrics, problems = traced_metrics(
            meta=bench.meta, cfg=bench.cfg, work=bench.work,
            run_docs=bench.last_docs, spans_path=spans, **bench.trace_target)
        bench.problems += problems
        units = PER_LAYER_UNITS
        context["spans"] = os.path.relpath(spans, ROOT)
    else:
        metrics = bench.end_to_end(setup_wall, rss)
        units = END_TO_END_UNITS
    for d in (bench.work, os.path.join(WORK, "ray")):
        shutil.rmtree(d, ignore_errors=True)
    for p in bench.problems:
        print(f"check failed: {p}", file=sys.stderr)

    result = {
        "correct": bench.ops.failed == 0 and not bench.problems,
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps({"context": context}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
