"""In-memory spans around the benchmark's calls into the library layers.

A span is (name, start, end, parent, op, attrs).  The name is
``<layer>.<function>`` for a call into a public library function,
``op`` for one timed operation and ``check`` for its untimed verification.
Spans are kept in a list and written out once, when the run ends; with
tracing off every call goes straight through.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

from tdlinnik import TdlError

LAYERS = ("cli", "analytic", "moments", "sampler", "oracle")


class Tracer:
    """Records spans and per-call counts when ``enabled``; otherwise inert."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, attrs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: int | None = None, **attrs):
        """Span around a block; ``op`` starts a new operation id."""
        if not self.enabled:
            yield attrs
            return
        if op is not None:
            self._op = op
        idx = self._open(name, attrs)
        try:
            yield attrs
        finally:
            self._close(idx)

    def call(self, name: str, fn, *args, attrs: dict | None = None, counts=None, **kwargs):
        """Call ``fn`` inside a span.

        ``counts(result)`` adds counts to the span's attrs; a typed error
        is recorded as ``attrs["error"]`` and re-raised.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        attrs = dict(attrs or {})
        idx = self._open(name, attrs)
        try:
            result = fn(*args, **kwargs)
        except TdlError as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            self._close(idx)
        if counts is not None:
            attrs.update(counts(result))
        return result

    def dump(self, path, meta: dict) -> None:
        keys = ("name", "start", "end", "parent", "op", "attrs")
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per layer: span duration minus the time its children cover.

    Spans named ``op`` or ``check`` belong to the benchmark itself
    (``bench``); the rest to the layer named by their prefix.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _op, _attrs in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {layer: 0.0 for layer in (*LAYERS, "bench")}
    for i, (name, start, end, *_rest) in enumerate(spans):
        layer = name.split(".")[0]
        out[layer if layer in out else "bench"] += (end - start) - covered[i]
    return out


def p50_ms(durations: list[float]) -> float:
    """Median in milliseconds; 0 when the workload made no such call."""
    return statistics.median(durations) * 1e3 if durations else 0.0
