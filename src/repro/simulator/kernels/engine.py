"""Kernel execution knobs.

Two environment variables configure the gate-application layer:

``REPRO_KERNEL_THREADS``
    Worker threads for chunked dense updates (default 1 = serial).
    Chunks are disjoint elementwise tiles, so threaded results are
    bit-identical to serial ones.

``REPRO_KERNEL_CHUNK``
    Chunk size in state *elements* (default 65536 = one megabyte of
    complex128 per tile) for 20+-qubit statevectors, keeping each
    tile's working set cache-resident.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

THREADS_ENV = "REPRO_KERNEL_THREADS"
CHUNK_ENV = "REPRO_KERNEL_CHUNK"

#: Default chunk size in state elements (complex128 => 1 MiB tiles).
DEFAULT_CHUNK = 65536

_executor_lock = threading.Lock()
_executor: Optional[ThreadPoolExecutor] = None
_executor_size = 0


def kernel_engine() -> str:
    """The gate-application engine: always the bit-indexed ``pair`` kernels.

    Kept so run manifests can record the resolved setting; the tensordot
    reference is the small-state route inside the dispatcher, not an
    engine of its own.
    """
    return "pair"


def kernel_threads() -> int:
    """Worker-thread count for chunked dense updates (>= 1)."""
    try:
        return max(1, int(os.environ.get(THREADS_ENV, "1")))
    except ValueError:
        return 1


def kernel_chunk() -> int:
    """Chunk size in state elements (>= 1024 so tiles stay GEMM-sized)."""
    try:
        return max(1024, int(os.environ.get(CHUNK_ENV, str(DEFAULT_CHUNK))))
    except ValueError:
        return DEFAULT_CHUNK


def get_executor(threads: int) -> ThreadPoolExecutor:
    """Lazily build (and resize) the shared chunk-worker pool."""
    global _executor, _executor_size
    with _executor_lock:
        if _executor is None or _executor_size != threads:
            if _executor is not None:
                _executor.shutdown(wait=False)
            _executor = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="repro-kernel"
            )
            _executor_size = threads
        return _executor
