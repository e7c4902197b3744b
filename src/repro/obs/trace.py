"""Context-managed span trees with near-zero disabled overhead.

A :class:`Span` records a name, a category (the "phase" reports group
by: compile / execute / kernel / store / fleet / ...), free-form attrs
and a monotonic start + duration.  Spans nest: each thread keeps its
own current-span stack, so a span opened on another thread becomes a
root of its own, and structural mutations (attaching children,
registering roots) go through one tracer lock.

Tracing is off by default.  ``REPRO_TRACE=1`` enables it and
``REPRO_TRACE_EXPORT=path`` writes a Chrome trace at process exit.
Spans sit at run, compile, plan-execution and store boundaries, never
per gate: the simulators' ``sim.*.run_plan`` spans carry the ``kernel``
category.  When disabled, ``Tracer.span()`` returns a shared no-op
context manager.

Determinism contract: spans never touch content hashes, RNG streams or
stored result payloads, so a traced run consumes exactly the same
random numbers as an untraced one.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Iterator, List, Optional

from repro.obs import clock

TRACE_ENV = "REPRO_TRACE"
EXPORT_ENV = "REPRO_TRACE_EXPORT"


class Span:
    """One timed region.  Use via ``TRACER.span(...)`` as a context manager."""

    __slots__ = (
        "name",
        "category",
        "attrs",
        "start",
        "duration",
        "children",
        "thread_id",
        "thread_name",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, category: str, attrs: Dict[str, Any]):
        self.name = name
        self.category = category
        self.attrs = attrs
        self.start = 0.0
        self.duration = 0.0
        self.children: List["Span"] = []
        self.thread_id = 0
        self.thread_name = ""
        self._tracer = tracer

    def set(self, **attrs: Any) -> "Span":
        """Attach attrs mid-span (e.g. gate counts known only at exit)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        stack = tracer._stack()
        parent = stack[-1] if stack else None
        with tracer._lock:
            if parent is None:
                tracer.roots.append(self)
            else:
                parent.children.append(self)
        stack.append(self)
        self.start = clock.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.duration = clock.perf_counter() - self.start
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()

    def walk(self) -> Iterator["Span"]:
        """Yield this span and all descendants, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, category={self.category!r}, "
            f"duration={self.duration:.6f}, children={len(self.children)})"
        )


class _NoopSpan:
    """Shared do-nothing stand-in returned while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Process-wide span collector.

    ``enabled`` is a plain attribute, so work done only for a trace (the
    compile pipeline's per-pass gate counts) guards on it with one read;
    everything structural happens under ``_lock``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.roots: List[Span] = []
        self.enabled = False
        self.export_path: Optional[str] = None
        self._refresh_from_env()

    # -- configuration ---------------------------------------------------

    def _refresh_from_env(self) -> None:
        self.enabled = os.environ.get(TRACE_ENV, "") == "1"
        self.export_path = os.environ.get(EXPORT_ENV) or None

    def configure(
        self,
        enabled: Optional[bool] = None,
        export_path: Optional[str] = None,
    ) -> None:
        """Override env-derived settings (tests and the CLI use this)."""
        if enabled is not None:
            self.enabled = enabled
        if export_path is not None:
            self.export_path = export_path

    def reset(self) -> None:
        """Drop all recorded spans and re-read the environment."""
        with self._lock:
            self.roots = []
        self._local = threading.local()
        self._refresh_from_env()

    # -- span creation ---------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, category: str = "misc", **attrs: Any):
        """Start a span; returns a context manager (no-op when disabled)."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, category, attrs)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def all_spans(self) -> List[Span]:
        """Every recorded span, depth first from each root."""
        with self._lock:
            roots = list(self.roots)
        spans: List[Span] = []
        for root in roots:
            spans.extend(root.walk())
        return spans


#: Process-wide tracer.  Instrumented code goes through ``span()``.
TRACER = Tracer()

# Only the process that created the tracer exports at exit.  Forked
# ProcessPoolExecutor children inherit this pid and therefore skip the
# atexit export instead of clobbering the parent's trace file.
_OWNER_PID = os.getpid()


def _export_at_exit() -> None:  # pragma: no cover - exercised via CLI/CI
    if not TRACER.enabled or not TRACER.export_path:
        return
    if os.getpid() != _OWNER_PID:
        return
    if not TRACER.roots:
        return
    from repro.obs.export import export_chrome_trace

    export_chrome_trace(TRACER.export_path)


import atexit  # noqa: E402  (registration belongs next to its hook)

atexit.register(_export_at_exit)
