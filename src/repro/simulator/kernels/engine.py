"""Resolved kernel settings, for run manifests.

Gate application has one engine (the bit-indexed ``pair`` kernels, with
the tensordot reference as the small-state route) and runs serially.
Dense updates of large states tile into chunks of
:data:`repro.simulator.kernels.pair.KERNEL_CHUNK` elements.
"""

from __future__ import annotations


def kernel_engine() -> str:
    """The gate-application engine: always the bit-indexed ``pair`` kernels.

    Kept so run manifests can record the resolved setting; the tensordot
    reference is the small-state route inside the dispatcher, not an
    engine of its own.
    """
    return "pair"


def kernel_threads() -> int:
    """Threads per gate application: always 1.

    Kept so run manifests can record the resolved setting; chunked tiles
    run one after another on the calling thread.
    """
    return 1
