"""Per-worker runtime tuning.

Ray caps BLAS/OpenMP threads in workers (OMP_NUM_THREADS=1) but pyarrow
sizes its OWN compute/IO thread pools to os.cpu_count().  With one
map_batches task per CPU that means cpu_count^2 runnable threads per
node; measured on this box, 32 concurrent parse tasks collapse from
445k rows/s aggregate to 152k purely from that thrash.  Calling
``tune_worker_threads()`` once per worker process (cheap, idempotent)
from every hot UDF pins Arrow to one compute thread per task, which is
the right setting whenever task parallelism itself saturates the node.
"""

from __future__ import annotations

import pyarrow as pa

_TUNED = False


def tune_worker_threads(io_threads: int = 2) -> None:
    global _TUNED
    if _TUNED:
        return
    pa.set_cpu_count(1)
    pa.set_io_thread_count(io_threads)
    _TUNED = True

