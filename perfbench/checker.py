"""Independent schedule checker for K-DAG runs.

Written from the paper's definitions, sharing no code with
``repro.sim.validate``: it reads only plain arrays (task types, work,
edges, processor counts, and the trace columns), so a fault in the
program's own validator or lower-bound code cannot hide a fault here.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["ScheduleViolation", "lower_bound", "check_schedule"]

#: Relative tolerance for comparing sums of floating-point work.
TOL = 1e-9


class ScheduleViolation(AssertionError):
    """A trace that is not a valid non-preemptive schedule of its job."""


def _topological_order(n: int, edges: np.ndarray) -> list[int]:
    children: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in edges.tolist():
        children[u].append(v)
        indeg[v] += 1
    ready = deque(v for v in range(n) if indeg[v] == 0)
    order = []
    while ready:
        u = ready.popleft()
        order.append(u)
        for v in children[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if len(order) != n:
        raise ScheduleViolation("job graph has a cycle")
    return order


def lower_bound(types, work, edges, counts) -> float:
    """``max(critical path, max_alpha W_alpha / P_alpha)`` of one job."""
    types = np.asarray(types, dtype=np.int64)
    work = np.asarray(work, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n = len(types)
    start = [0.0] * n
    w = work.tolist()
    children: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges.tolist():
        children[u].append(v)
    path = 0.0
    for u in _topological_order(n, edges):
        finish = start[u] + w[u]
        path = max(path, finish)
        for v in children[u]:
            if finish > start[v]:
                start[v] = finish
    load = max(
        float(work[types == alpha].sum()) / p for alpha, p in enumerate(counts)
    )
    return max(path, load)


def check_schedule(
    types, work, edges, counts, task, alpha, proc, start, end,
    makespan: float | None = None,
) -> float:
    """Raise :class:`ScheduleViolation` unless the trace is a valid schedule.

    Checks that every task runs exactly once, on its own type, for
    exactly its work; that no task starts before each parent ends;
    that no processor runs two tasks at once; and that no type ever
    runs more tasks than it has processors.  Returns the trace's
    makespan (checked against ``makespan`` when given).
    """
    types = np.asarray(types, dtype=np.int64)
    work = np.asarray(work, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    task = np.asarray(task, dtype=np.int64)
    alpha = np.asarray(alpha, dtype=np.int64)
    proc = np.asarray(proc, dtype=np.int64)
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    n = len(types)
    if not (len(task) == len(alpha) == len(proc) == len(start) == len(end)):
        raise ScheduleViolation("trace columns differ in length")
    if len(task) and (task.min() < 0 or task.max() >= n):
        raise ScheduleViolation("trace names a task outside the job")
    runs = np.bincount(task, minlength=n)
    if (runs != 1).any():
        bad = int(np.flatnonzero(runs != 1)[0])
        raise ScheduleViolation(f"task {bad} runs {int(runs[bad])} times")
    if (alpha != types[task]).any():
        i = int(np.flatnonzero(alpha != types[task])[0])
        raise ScheduleViolation(f"task {int(task[i])} ran on the wrong type")
    limits = np.asarray(counts, dtype=np.int64)[alpha]
    if (proc < 0).any() or (proc >= limits).any():
        raise ScheduleViolation("processor index outside its type's pool")
    if (start < 0).any():
        raise ScheduleViolation("a task starts before time 0")
    scale = TOL * np.maximum(1.0, np.abs(end))
    if (np.abs((end - start) - work[task]) > scale).any():
        i = int(np.flatnonzero(np.abs((end - start) - work[task]) > scale)[0])
        raise ScheduleViolation(f"task {int(task[i])} ran for other than its work")
    at = np.empty(n, dtype=np.int64)
    at[task] = np.arange(len(task))
    if len(edges):
        parent_end = end[at[edges[:, 0]]]
        child_start = start[at[edges[:, 1]]]
        late = child_start < parent_end - TOL * np.maximum(1.0, parent_end)
        if late.any():
            u, v = edges[int(np.flatnonzero(late)[0])].tolist()
            raise ScheduleViolation(f"task {v} starts before its parent {u} ends")
    for a, p in enumerate(counts):
        mine = alpha == a
        # Ends sort before starts at equal times: a freed processor may
        # be reused at the same instant.
        times = np.concatenate([start[mine], end[mine]])
        delta = np.concatenate([np.ones(mine.sum()), -np.ones(mine.sum())])
        running = np.cumsum(delta[np.lexsort((delta, times))])
        if len(running) and running.max() > p:
            raise ScheduleViolation(
                f"type {a} runs {int(running.max())} tasks on {p} processors"
            )
    order = np.lexsort((start, proc, alpha))
    same = (alpha[order][1:] == alpha[order][:-1]) & (
        proc[order][1:] == proc[order][:-1]
    )
    overlap = same & (start[order][1:] < end[order][:-1])
    if overlap.any():
        raise ScheduleViolation("a processor runs two tasks at once")
    span = float(end.max()) if len(end) else 0.0
    if makespan is not None and abs(span - makespan) > TOL * max(1.0, span):
        raise ScheduleViolation(f"trace ends at {span}, result says {makespan}")
    return span
