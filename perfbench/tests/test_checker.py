"""The independent schedule checker accepts real schedules and rejects
each kind of corruption."""

import numpy as np
import pytest

from perfbench.checker import ScheduleViolation, check_schedule, lower_bound

# Diamond K-DAG with K=2: 0 -> {1, 2} -> 3, one processor per type.
TYPES = [0, 1, 0, 1]
WORK = [2.0, 3.0, 1.0, 2.0]
EDGES = [(0, 1), (0, 2), (1, 3), (2, 3)]
COUNTS = (1, 1)
# task, alpha, proc, start, end
VALID = [
    (0, 0, 0, 0.0, 2.0),
    (1, 1, 0, 2.0, 5.0),
    (2, 0, 0, 2.0, 3.0),
    (3, 1, 0, 5.0, 7.0),
]


def check(rows, counts=COUNTS, makespan=None):
    task, alpha, proc, start, end = (list(c) for c in zip(*rows)) if rows else ([],) * 5
    return check_schedule(TYPES, WORK, EDGES, counts, task, alpha, proc, start, end,
                          makespan=makespan)


def test_valid_schedule_passes():
    assert check(VALID, makespan=7.0) == 7.0


def test_lower_bound_is_max_of_critical_path_and_load():
    assert lower_bound(TYPES, WORK, EDGES, COUNTS) == 7.0  # path 0-1-3
    assert lower_bound(TYPES, [2.0, 1.0, 9.0, 1.0], EDGES, COUNTS) == 12.0
    assert lower_bound(TYPES, WORK, [], (1, 1)) == 5.0  # type-1 load
    assert lower_bound(TYPES, WORK, [], (2, 1)) == 5.0


def replace(i, **fields):
    rows = [list(r) for r in VALID]
    names = ["task", "alpha", "proc", "start", "end"]
    for key, value in fields.items():
        rows[i][names.index(key)] = value
    return [tuple(r) for r in rows]


@pytest.mark.parametrize(
    "rows, counts, message",
    [
        (VALID[:3], COUNTS, "runs 0 times"),
        (VALID + [VALID[2]], COUNTS, "runs 2 times"),
        (replace(3, start=4.0, end=6.0), COUNTS, "before its parent"),
        (replace(1, alpha=0), COUNTS, "wrong type"),
        (replace(2, end=3.5), COUNTS, "other than its work"),
        (replace(1, proc=1), COUNTS, "outside its type's pool"),
        (replace(2, start=-1.0, end=0.0), COUNTS, "before time 0"),
        (replace(2, task=4), COUNTS, "outside the job"),
    ],
)
def test_corruptions_are_rejected(rows, counts, message):
    with pytest.raises(ScheduleViolation, match=message):
        check(rows, counts)


def test_capacity_and_processor_overlap():
    types, work, edges = [0, 0], [2.0, 2.0], []
    both = ([0, 1], [0, 0], [0, 0], [0.0, 1.0], [2.0, 3.0])
    with pytest.raises(ScheduleViolation, match="runs 2 tasks on 1 processors"):
        check_schedule(types, work, edges, (1,), *both)
    with pytest.raises(ScheduleViolation, match="two tasks at once"):
        check_schedule(types, work, edges, (2,), *both)
    # Back-to-back reuse of one processor at the same instant is legal.
    check_schedule(types, work, edges, (1,), [0, 1], [0, 0], [0, 0],
                   [0.0, 2.0], [2.0, 4.0])


def test_makespan_mismatch_is_rejected():
    with pytest.raises(ScheduleViolation, match="result says"):
        check(VALID, makespan=8.0)


def test_cycle_is_rejected():
    with pytest.raises(ScheduleViolation, match="cycle"):
        lower_bound([0, 0], [1.0, 1.0], [(0, 1), (1, 0)], (1,))


@pytest.mark.parametrize("name", ["kgreedy", "lspan", "dtype", "maxdp", "shiftbt", "mqb"])
def test_real_schedules_pass_and_bounds_agree(name):
    from repro.schedulers.registry import make_scheduler
    from repro.sim.engine import simulate
    from repro.workloads.generator import WORKLOAD_CELLS, sample_instance

    job, system = sample_instance(
        WORKLOAD_CELLS["medium-layered-ir"], np.random.default_rng(5)
    )
    result = simulate(job, system, make_scheduler(name),
                      rng=np.random.default_rng(5), record_trace=True)
    cols = result.trace.as_columns()
    span = check_schedule(job.types, job.work, job.edges, system.counts,
                          cols["task"], cols["alpha"], cols["proc"], cols["start"],
                          cols["end"], makespan=result.makespan)
    bound = lower_bound(job.types, job.work, job.edges, system.counts)
    assert bound == pytest.approx(result.lower_bound(), rel=1e-12)
    assert span >= bound
    # Corrupting one real segment is caught.
    start = cols["start"].copy()
    late = int(np.argmax(start))
    start[late] -= 0.5
    with pytest.raises(ScheduleViolation):
        check_schedule(job.types, job.work, job.edges, system.counts,
                       cols["task"], cols["alpha"], cols["proc"], start, cols["end"])
