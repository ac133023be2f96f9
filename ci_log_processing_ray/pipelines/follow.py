"""Micro-batch streaming driver: the reference's ``--follow`` loop.

logscraper and logsender both poll in a sleep loop (``--follow`` +
``--wait-time``: logscraper.py:770-775, logsender.py:683-687) with no
watermarks; each tick processes whatever new work appeared and the
checkpoint layer makes re-seen work a no-op.  Here one tick = one
``run_pipeline`` batch job over the current input listing, or one
``run_live`` tick over the Zuul API (``cli.py --live --follow``); the
manifest anti-join (state/manifest.py) gives the same at-least-once,
effectively-exactly-once behavior as BuildCache + dir-deletion.

Clock and sleep are injected so runs are deterministic and testable
(the reference's impure ``time.sleep``/``datetime.now`` seams).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import pyarrow as pa

from ..config import DEFAULT_FILE_CONFIG, FileConfigEntry, PipelineConfig
from .flagship import RunResult, run_pipeline


def poll(
    tick: Callable[[float], RunResult],
    *,
    ticks: int = 1,
    wait_seconds: float = 120.0,  # the reference's wait_time default
    sleep_fn: Optional[Callable[[float], None]] = None,
    clock0: float = 0.0,
    stop_when_idle: bool = False,
) -> list[RunResult]:
    """Run ``tick(clock)`` up to ``ticks`` times, ``wait_seconds`` apart
    on the injected clock and ``sleep_fn``.  Returns one RunResult per
    tick.  ``stop_when_idle`` ends early on a tick with nothing pending
    (a drain run)."""
    results: list[RunResult] = []
    clock = clock0
    for i in range(ticks):
        res = tick(clock)
        results.append(res)
        if stop_when_idle and res.n_pending == 0:
            break
        if i < ticks - 1:
            if sleep_fn is not None:
                sleep_fn(wait_seconds)
            clock += wait_seconds
    return results


def run_follow(
    list_inputs: Callable[[], Sequence[str]],
    meta: "pa.Table | str",
    out_dir: str,
    cfg: PipelineConfig = PipelineConfig(),
    file_config: tuple[FileConfigEntry, ...] = DEFAULT_FILE_CONFIG,
    **poll_kwargs,
) -> list[RunResult]:
    """Batch micro-batches (``poll``'s keyword arguments): each tick
    re-lists inputs and processes only partitions without a committed
    manifest."""
    return poll(lambda clock: run_pipeline(
        list(list_inputs()), meta, out_dir, cfg, file_config,
        resume=True, clock_now=clock), **poll_kwargs)
