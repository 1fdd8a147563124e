"""Span tracing from outside the program.

:class:`Tracer` wraps named functions and methods of the ``repro`` layers
so that each call records a span: a name, a start, an end and the span that
was open when it began (its parent).  All wrapped functions are synchronous
and the benchmark runs them on one thread, so spans nest strictly and a
stack is enough to find parents.

Self time is a span's duration minus the part of its interval covered by
its children.  :meth:`Tracer.wrap` keeps that per name as calls return, so
a run of millions of calls needs no span list; the first ``keep`` spans are
also stored raw and written out at the end, and :func:`self_times` recomputes
self time from such a list (the self-tests check the two agree).

Callers that bound a function by name at import (``from repro.wire.codec
import encode_message``) hold their own reference, so :meth:`patch_function`
rebinds the name in every loaded ``repro`` module that holds it, which is
where those callers look it up.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Iterable, Optional


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per-name self time: duration minus the union of child intervals."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals: dict[str, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start) - covered
    return totals


class Tracer:
    """Records spans around wrapped callables; aggregates per span name."""

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, keep: int = 20_000
    ) -> None:
        self.clock = clock
        self.keep = keep
        #: name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list[float]] = {}
        self.spans: list[Span] = []
        self._stack: list[list[Any]] = []  # [span_id, start, child seconds]
        self._next_id = 0
        self._undo: list[Callable[[], None]] = []
        self.gc_pauses: list[float] = []
        self._gc_start: Optional[float] = None

    # -- recording -------------------------------------------------------
    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = self.clock
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        @wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if len(self.spans) < self.keep:
                    self.spans.append(
                        Span(
                            span_id,
                            parent[0] if parent is not None else None,
                            name,
                            frame[1],
                            end,
                        )
                    )

        return traced

    def reset(self) -> None:
        """Zero the aggregates (start of the measured window)."""
        for entry in self.stats.values():
            entry[0], entry[1], entry[2] = 0, 0.0, 0.0
        self.gc_pauses.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "parent": span.parent,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                        }
                    )
                    + "\n"
                )

    # -- patching --------------------------------------------------------
    def patch_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself) as span ``name``."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original))
        self._undo.append(lambda: setattr(cls, attr, original))

    def patch_function(self, module: Any, attr: str, name: str) -> None:
        """Wrap a module-level function as span ``name``."""
        original = getattr(module, attr)
        self.rebind(original, self.wrap(name, original))

    def rebind(self, original: Callable[..., Any], replacement: Callable[..., Any]) -> None:
        """Point every ``repro`` module global that holds ``original`` at
        ``replacement``, so callers that imported it by name see it too."""
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            namespace = getattr(loaded, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, key, replacement)
                    self._undo.append(
                        lambda m=loaded, k=key: setattr(m, k, original)
                    )

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()
        self.stop_gc_watch()

    # -- garbage collector pauses ---------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pauses.append(time.perf_counter() - self._gc_start)
            self._gc_start = None

    def start_gc_watch(self) -> None:
        if self._on_gc not in gc.callbacks:
            gc.callbacks.append(self._on_gc)

    def stop_gc_watch(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
