from .flagship import build_tick, run_pipeline, RunResult  # noqa: F401
