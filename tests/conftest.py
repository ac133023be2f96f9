import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Small deterministic corpus shared by the pipeline tests."""
    from ci_log_processing_ray.sources.synth import CorpusSpec, generate_corpus

    out = str(tmp_path_factory.mktemp("corpus"))
    info = generate_corpus(out, CorpusSpec(n_builds=10, lines_per_file=40, seed=7))
    return out, info


def read_routed(root):
    """Every row of the routed Parquet files under ``root``, with the
    ``sink`` of its ``sink=<name>`` directory (checked against the
    row's ``sink_name``)."""
    import glob
    import os

    import pyarrow.parquet as pq

    rows = []
    for f in sorted(glob.glob(os.path.join(root, "**", "*.parquet"),
                              recursive=True)):
        sink = os.path.basename(os.path.dirname(f)).split("=", 1)[1]
        t = pq.read_table(f)
        assert set(t["sink_name"].to_pylist()) == {sink}, f
        rows.extend(dict(r, sink=sink) for r in t.to_pylist())
    return rows


def tree_bytes(root):
    """Every file under ``root``: its path relative to ``root`` -> bytes."""
    import os

    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            with open(os.path.join(d, f), "rb") as fh:
                out[os.path.relpath(os.path.join(d, f), root)] = fh.read()
    return out
