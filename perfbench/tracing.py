"""In-memory span recorder for the traced runs.

Spans are recorded from the benchmark's side, around calls into each
layer's public functions (:meth:`Tracer.wrap` patches a module or
class attribute for the duration of the traced run), and are written
out once at the end as Chrome trace-event JSON, loadable in Perfetto
or ``chrome://tracing``.  Each span has a name, start, end and parent
span; ``group`` ties every span of one sweep or one request together.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer"]


class Tracer:
    """Collects spans ``(id, name, start_ns, end_ns, parent, group, tid)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.origin = time.perf_counter_ns()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, group=None, parent: int | None = None):
        """Record the enclosed block; yields the new span's id."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        if group is None and stack:
            group = stack[-1][1]
        span_id = next(self._ids)
        stack.append((span_id, group))
        t0 = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (span_id, name, t0, t1, parent, group, threading.get_ident())
            )

    def add(self, name: str, t0_ns: int, t1_ns: int, group=None,
            parent: int | None = None) -> None:
        """Record a span whose start and end were measured elsewhere."""
        self.spans.append(
            (next(self._ids), name, t0_ns, t1_ns, parent, group,
             threading.get_ident())
        )

    # -- patching -------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until :meth:`restore`."""
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------
    def table(self, group_prefix: str = "") -> dict[str, dict]:
        """Per span name: count, total seconds and self seconds.

        Only spans whose group starts with ``group_prefix`` count.  Self
        time is a span's duration minus the part its direct child spans
        cover (children of one parent never overlap in a single thread;
        spans from other threads are not subtracted).
        """
        child_ns: dict[int, int] = {}
        tid_of = {s[0]: s[6] for s in self.spans}
        for _sid, _name, t0, t1, parent, _group, tid in self.spans:
            if parent is not None and tid_of.get(parent) == tid:
                child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        out: dict[str, dict] = {}
        for sid, name, t0, t1, _parent, group, _tid in self.spans:
            if not str(group).startswith(group_prefix):
                continue
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += (t1 - t0) / 1e9
            row["self_s"] += max(0, t1 - t0 - child_ns.get(sid, 0)) / 1e9
        return out

    def covered_s(self, t0_ns: int, t1_ns: int) -> float:
        """Seconds of ``[t0, t1]`` covered by at least one span."""
        intervals = sorted(
            (max(s[2], t0_ns), min(s[3], t1_ns))
            for s in self.spans
            if s[3] > t0_ns and s[2] < t1_ns
        )
        covered, cursor = 0, t0_ns
        for a, b in intervals:
            a = max(a, cursor)
            if b > a:
                covered += b - a
                cursor = b
        return covered / 1e9

    def write_chrome(self, path: Path) -> None:
        """Write every span as a Chrome ``X`` (complete) event."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (t0 - self.origin) / 1e3,
                "dur": (t1 - t0) / 1e3,
                "pid": 1,
                "tid": tid,
                "args": {"id": sid, "parent": parent, "group": group},
            }
            for sid, name, t0, t1, parent, group, tid in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
