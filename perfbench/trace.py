"""Span tracer for the benchmark's traced runs.

The benchmark measures each layer from outside: it wraps the public
functions listed in :mod:`layers` and records a span around every call.
A span is ``(name, start_ns, end_ns, parent)``; its parent is the span
that was open on the same thread when it started. Nothing is wrapped
until :func:`layers.install` runs, so an untraced run executes the
program exactly as shipped.

Per span name the tracer keeps the call count, the inclusive time and
the self time (inclusive minus the time covered by child spans). The
first ``SPAN_CAP`` spans of each thread are also kept verbatim and can
be written out with :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import threading
import time


#: Spans of each thread kept verbatim for :meth:`Tracer.dump`.
SPAN_CAP = 20_000


class Tracer:
    def __init__(self):
        #: Span names whose outermost calls are also kept as (start, end)
        #: intervals, for busy-time accounting.
        self.interval_names: frozenset[str] = frozenset()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (a forked worker starts clean)."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[dict] = []

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {
                "stack": [], "agg": {}, "counts": {}, "spans": [],
                "intervals": [],
            }
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    # -- recording ---------------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        counts = self._state()["counts"]
        counts[name] = counts.get(name, 0) + n

    def inside(self, name: str) -> bool:
        """True when a span called *name* is open on this thread."""
        return any(frame[0] == name for frame in self._state()["stack"])

    def wrap(self, owner, attr: str, span: str | None, *,
             before=None, after=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        With *span* ``None`` the wrapper only runs the hooks (a counter
        without timing). ``before(args, kwargs)`` returns a token;
        ``after(args, kwargs, result, token)`` runs on normal return.
        """
        original = getattr(owner, attr)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            if span is None:
                result = original(*args, **kwargs)
            else:
                state = tracer._state()
                stack = state["stack"]
                spans = state["spans"]
                index = -1
                if len(spans) < SPAN_CAP:
                    index = len(spans)
                    spans.append(None)
                frame = [span, 0, index]
                stack.append(frame)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    took = end - start
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[1] += took
                    agg = state["agg"].get(span)
                    if agg is None:
                        agg = state["agg"][span] = [0, 0, 0]
                    agg[0] += 1
                    agg[1] += took
                    agg[2] += took - frame[1]
                    if index >= 0:
                        spans[index] = (
                            span, start, end,
                            parent[2] if parent is not None else -1,
                        )
                    if span in tracer.interval_names and not any(
                        f[0] in tracer.interval_names for f in stack
                    ):
                        state["intervals"].append((start, end))
            if after is not None:
                after(args, kwargs, result, token)
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to *value* until :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def snapshot(self) -> dict:
        """Aggregates over every thread: ``{"agg", "counts", "intervals"}``
        with agg values ``[calls, inclusive_ns, self_ns]``."""
        with self._lock:
            threads = list(self._threads)
        return merge(threads)

    def dump(self, path: str) -> None:
        """Write the aggregates and the kept spans of every thread."""
        payload = self.snapshot()
        with self._lock:
            payload["span_list"] = [
                [thread_index, *span]
                for thread_index, state in enumerate(self._threads)
                for span in state["spans"]
                if span is not None
            ]
        with open(path, "w", encoding="utf-8") as out:
            json.dump(payload, out)


def merge(snapshots: list[dict]) -> dict:
    """Sum several snapshots, or the per-thread states of one tracer, into
    one snapshot (e.g. one per shard)."""
    agg: dict[str, list[int]] = {}
    counts: dict[str, float] = {}
    intervals: list = []
    for snap in snapshots:
        for name, (calls, incl, own) in snap["agg"].items():
            total = agg.setdefault(name, [0, 0, 0])
            total[0] += calls
            total[1] += incl
            total[2] += own
        for name, n in snap["counts"].items():
            counts[name] = counts.get(name, 0) + n
        intervals.extend(snap["intervals"])
    return {"agg": agg, "counts": counts, "intervals": intervals}
