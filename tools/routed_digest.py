"""Digest of what the block function writes for a corpus.

Usage:
    python tools/routed_digest.py CORPUS_DIR --config backfill|logstash

Runs ``pipelines/flagship.make_block_fn`` in this process over every
token-sequence shard under ``CORPUS_DIR`` (a ``sources/synth`` corpus:
``build_meta.parquet`` and ``token_sequences/*.parquet``), one block per
shard as the batch tick reads it, and prints one JSON line with two
sha256 digests:

* ``routed``: over the routed files, each file's path relative to the
  staging dir and its bytes, in path order;
* ``partials``: over the count partials of all blocks, concatenated in
  shard order.

Partition ``i`` is written under the shard's file name, so the digests
do not depend on where the corpus lives.  A change to the block
function that must not change its output shows the same two digests as
its parent commit on the same corpus.
"""
import argparse
import glob
import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

CONFIGS = {
    "backfill": dict(skip_debug=True),
    "logstash": dict(multiline_join=True, grok_fields=True),
}


def digests(corpus_dir: str, config: str) -> dict:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ci_log_processing_ray.config import DEFAULT_FILE_CONFIG, PipelineConfig
    from ci_log_processing_ray.pipelines.flagship import make_block_fn
    from ci_log_processing_ray.sources.readers import load_build_meta

    shards = sorted(glob.glob(os.path.join(
        corpus_dir, "token_sequences", "*.parquet")))
    if not shards:
        raise SystemExit(f"no token_sequences/*.parquet under {corpus_dir}")
    meta = load_build_meta(os.path.join(corpus_dir, "build_meta.parquet"))
    cfg = PipelineConfig(**CONFIGS[config])
    with tempfile.TemporaryDirectory() as staging:
        block = make_block_fn(cfg, meta, DEFAULT_FILE_CONFIG, staging, shards,
                              [os.path.basename(p) for p in shards])
        partials = []
        for path in shards:
            t = pq.read_table(path, use_threads=False)
            partials.append(block(
                t.append_column("path", pa.array([path] * len(t)))))
        files = sorted(
            os.path.relpath(os.path.join(d, f), staging)
            for d, _, fs in os.walk(staging) for f in fs)
        routed = hashlib.sha256()
        for rel in files:
            with open(os.path.join(staging, rel), "rb") as f:
                data = f.read()
            routed.update(f"{rel}\0{len(data)}\0".encode())
            routed.update(data)
    rows = pa.concat_tables(partials).to_pylist()
    return {
        "config": config,
        "shards": len(shards),
        "files": len(files),
        "partial_rows": len(rows),
        "routed": routed.hexdigest(),
        "partials": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("corpus_dir")
    ap.add_argument("--config", choices=sorted(CONFIGS), required=True)
    args = ap.parse_args()

    import ray

    # make_block_fn broadcasts the build metadata with ray.put
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    try:
        print(json.dumps(digests(args.corpus_dir, args.config)))
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
