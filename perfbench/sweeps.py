"""The three sweep workloads: fig4-scalar, fig4-batch, engine-variants.

A run repeats whole *rounds* until ``--seconds`` have passed.  A round
is one full sweep, computed cold into a fresh result-cache directory
with the offline-info cache cleared (every instance is computed and
written), then re-run warm, where every cached sweep call is answered
from the result cache ``WARM_PASSES`` times.  Round ``r`` uses sweep
seed ``seed * 1000 + r``, so a run averages over several instance sets.

Each sweep call is one *operation*: a cold call is "fresh" work, a
warm call of a cached sweep is "hot".  The traced run (``--trace 1``)
first runs one untraced round, then the same round traced, and
reports the difference as the tracing overhead.
"""

from __future__ import annotations

import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Callable

import numpy as np

from perfbench import checker
from perfbench.common import (
    BenchError,
    WORK,
    describe,
    fresh_dir,
    median,
    peak_rss_mb,
    time_setups,
)
from perfbench.tracing import Tracer

SIZES = {
    "fig4-scalar": {"full": {"n": 8}, "smoke": {"n": 1}},
    "fig4-batch": {"full": {"n": 16}, "smoke": {"n": 2}},
    "engine-variants": {
        "full": {"decentral_n": 8, "p": 256, "robust_n": 4, "stream_n": 2},
        "smoke": {"decentral_n": 1, "p": 16, "robust_n": 1, "stream_n": 1},
    },
}

#: Failure rates of the robustness sweep: the fault-free control and one
#: rate with failures.
RATES = (0.0, 0.5)

SETUP_MODULES = {
    "fig4-scalar": ["repro.experiments.runner"],
    "fig4-batch": ["repro.experiments.runner", "repro.sim.batch"],
    "engine-variants": [
        "repro.experiments.decentral",
        "repro.experiments.robustness",
        "repro.experiments.stream",
    ],
}

SETUP_COUNT = {"full": 5, "smoke": 1}

#: Warm re-runs per round: a warm call takes about a millisecond, so
#: one pass alone would leave the hot CPU figure to timer noise.
WARM_PASSES = 10


@dataclass
class Op:
    """One sweep call of a round."""

    label: str
    run: Callable[[], object]
    cached: bool
    sims: int
    tasks: int


@dataclass
class RoundLog:
    cold_wall: list[float] = field(default_factory=list)
    cold_cpu: list[float] = field(default_factory=list)
    warm_wall: list[float] = field(default_factory=list)
    warm_cpu: list[float] = field(default_factory=list)
    sims: int = 0
    tasks: int = 0


# -- fig4 ---------------------------------------------------------------
def _instance(spec, algorithms, seed: int, i: int):
    """Instance ``i`` of a comparison, seeded exactly as ``run_comparison``."""
    from repro.workloads.generator import sample_instance

    inst_rng, *alg_seeds = np.random.SeedSequence([seed, i]).spawn(
        1 + len(algorithms)
    )
    job, system = sample_instance(spec, np.random.default_rng(inst_rng))
    return job, system, [np.random.default_rng(s) for s in alg_seeds]


def fig4_ops(engine: str, n: int, seed: int, telemetry) -> list[Op]:
    from repro.experiments.runner import run_comparison
    from repro.schedulers.registry import PAPER_ALGORITHMS
    from repro.workloads.generator import WORKLOAD_CELLS

    ops = []
    for cell, spec in WORKLOAD_CELLS.items():
        tasks = sum(
            _instance(spec, PAPER_ALGORITHMS, seed, i)[0].n_tasks for i in range(n)
        )

        def run(spec=spec):
            return [
                s.to_dict()
                for s in run_comparison(
                    spec, PAPER_ALGORITHMS, n, seed, engine=engine,
                    telemetry=telemetry,
                )
            ]

        ops.append(Op(cell, run, True, n * len(PAPER_ALGORITHMS),
                      tasks * len(PAPER_ALGORITHMS)))
    return ops


def _check_trace(job, system, result) -> None:
    cols = result.trace.as_columns()
    span = checker.check_schedule(
        job.types, job.work, job.edges, system.counts,
        cols["task"], cols["alpha"], cols["proc"], cols["start"], cols["end"],
        makespan=result.makespan,
    )
    bound = checker.lower_bound(job.types, job.work, job.edges, system.counts)
    if abs(bound - result.lower_bound()) > checker.TOL * max(1.0, bound):
        raise BenchError(
            f"lower bound {result.lower_bound()} differs from the checker's {bound}"
        )
    if span / bound < 1.0 - checker.TOL:
        raise BenchError(f"{result.scheduler}: makespan {span} below bound {bound}")


def check_fig4(n: int, seed: int, results: dict, first: bool) -> None:
    """Every ratio >= 1, KGreedy <= K+1, stats match the cached ratios,
    and (first round) instance 0 re-simulates to a valid schedule."""
    from repro.resultcache.integrate import open_sweep_cache
    from repro.resultcache.keys import comparison_fingerprint
    from repro.schedulers.registry import PAPER_ALGORITHMS, make_scheduler
    from repro.sim.engine import simulate
    from repro.workloads.generator import WORKLOAD_CELLS

    algs = PAPER_ALGORITHMS
    for cell, spec in WORKLOAD_CELLS.items():
        cache = open_sweep_cache(
            comparison_fingerprint(spec, algs, seed, False, 1.0), len(algs)
        )
        ratios = np.empty((len(algs), n), dtype=np.float64)
        if cache is None or cache.fill_hits(ratios):
            raise BenchError(f"{cell}: cold sweep left instances uncached")
        if (ratios < 1.0 - checker.TOL).any():
            raise BenchError(f"{cell}: a completion-time ratio is below 1")
        k = spec.num_types
        kg = ratios[algs.index("kgreedy")]
        if kg.max() > k + 1:
            raise BenchError(f"{cell}: KGreedy ratio {kg.max()} exceeds K+1={k + 1}")
        for a, stats in enumerate(results[cell]):
            if stats["mean"] != ratios[a].mean() or stats["max"] != ratios[a].max():
                raise BenchError(f"{cell}/{algs[a]}: stats differ from cached ratios")
        if not first:
            continue
        job, system, rngs = _instance(spec, algs, seed, 0)
        for a, name in enumerate(algs):
            result = simulate(job, system, make_scheduler(name), rng=rngs[a],
                              record_trace=True)
            _check_trace(job, system, result)
            if result.completion_time_ratio() != ratios[a, 0]:
                raise BenchError(f"{cell}/{name}: re-simulated ratio differs")


def check_batch_equals_scalar(n: int, seed: int, results: dict) -> None:
    """One cell (chosen by seed) of the batch sweep equals the scalar one."""
    from repro.experiments.runner import run_comparison
    from repro.schedulers.registry import PAPER_ALGORITHMS
    from repro.workloads.generator import WORKLOAD_CELLS

    cell = sorted(WORKLOAD_CELLS)[seed % len(WORKLOAD_CELLS)]
    round_dir = os.environ["REPRO_CACHE_DIR"]
    os.environ["REPRO_CACHE_DIR"] = str(fresh_dir("scalar-ref"))
    try:
        scalar = [
            s.to_dict()
            for s in run_comparison(
                WORKLOAD_CELLS[cell], PAPER_ALGORITHMS, n, seed, engine="scalar"
            )
        ]
    finally:
        shutil.rmtree(os.environ["REPRO_CACHE_DIR"])
        os.environ["REPRO_CACHE_DIR"] = round_dir
    if scalar != results[cell]:
        raise BenchError(f"{cell}: batch stats differ from the scalar engine's")


# -- engine variants ----------------------------------------------------
def variant_ops(size: dict, seed: int, telemetry) -> list[Op]:
    from repro.experiments.decentral import decentral_spec, run_decentral_comparison
    from repro.experiments.robustness import ROBUSTNESS_CELLS, run_robustness_comparison
    from repro.experiments.stream import (
        STREAM_JOBS, STREAM_LOADS, STREAM_SPEC, run_stream,
    )
    from repro.multijob.arrival import poisson_stream
    from repro.multijob.schedulers import STREAM_POLICIES
    from repro.schedulers.registry import PAPER_ALGORITHMS
    from repro.workloads.generator import WORKLOAD_CELLS, sample_job, sample_system

    p, n_dec = size["p"], size["decentral_n"]
    dspec = decentral_spec(p)
    dec_tasks = sum(
        sample_job(
            dspec,
            np.random.default_rng(np.random.SeedSequence([seed, i]).spawn(5)[0]),
        ).n_tasks
        for i in range(n_dec)
    )
    ops = [
        Op(
            f"decentral-p{p}",
            lambda: run_decentral_comparison(p, n_dec, seed, telemetry=telemetry),
            True, 4 * n_dec, 4 * dec_tasks,
        )
    ]
    n_rob = size["robust_n"]
    runs_per = len(PAPER_ALGORITHMS) * (1 + sum(1 for r in RATES if r > 0))
    for cell, _label in ROBUSTNESS_CELLS:
        spec = WORKLOAD_CELLS[cell]
        tasks = sum(
            _instance(spec, PAPER_ALGORITHMS, seed, i)[0].n_tasks
            for i in range(n_rob)
        )
        ops.append(
            Op(
                f"robustness-{cell}",
                lambda spec=spec: run_robustness_comparison(
                    spec, PAPER_ALGORITHMS, RATES, n_rob, seed, telemetry=telemetry
                ),
                True, runs_per * n_rob, runs_per * tasks,
            )
        )
    n_str = size["stream_n"]
    stream_tasks = 0
    for load_index, (_label, gap) in enumerate(STREAM_LOADS):
        for i in range(n_str):
            rng = np.random.default_rng(np.random.SeedSequence([seed, load_index, i]))
            sample_system(STREAM_SPEC, rng)
            stream = poisson_stream(STREAM_SPEC, STREAM_JOBS, gap, rng)
            stream_tasks += sum(job.n_tasks for job in stream.jobs)
    n_pol = len(STREAM_POLICIES)
    ops.append(
        Op(
            "stream",
            lambda: run_stream(n_str, seed, telemetry=telemetry),
            False, n_pol * len(STREAM_LOADS) * n_str, n_pol * stream_tasks,
        )
    )
    return ops


def check_variants(size: dict, seed: int, results: dict, first: bool) -> None:
    """Ratios >= 1; at λ=0 inflation is 1 and waste and kills 0; (first
    round) decentral instance 0 re-simulates to a valid schedule."""
    from repro.decentral.engine import dispatch_simulate
    from repro.decentral.policies import StealPolicy
    from repro.experiments.decentral import decentral_spec, run_decentral_comparison
    from repro.experiments.robustness import ROBUSTNESS_CELLS
    from repro.schedulers.registry import make_scheduler
    from repro.system.resources import ResourceConfig
    from repro.workloads.generator import sample_job

    p = size["p"]
    dec = results[f"decentral-p{p}"]
    if min(dec["ratio"].values()) < 1.0 - checker.TOL:
        raise BenchError("decentral: a mean completion-time ratio is below 1")
    for cell, _label in ROBUSTNESS_CELLS:
        rob = results[f"robustness-{cell}"]
        zero = RATES.index(0.0)
        for name in rob["inflation"]:
            if (rob["inflation"][name][zero], rob["wasted"][name][zero],
                    rob["kills"][name][zero]) != (1.0, 0.0, 0.0):
                raise BenchError(f"robustness {cell}/{name}: λ=0 is not fault-free")
            if min(rob["inflation"][name]) <= 0:
                raise BenchError(f"robustness {cell}/{name}: non-positive inflation")
    if not first:
        return
    algorithms = ["kgreedy", "mqb", "dkgreedy" + StealPolicy().suffix(),
                  "dmqb" + StealPolicy().suffix()]
    inst_rng, *alg_seeds = np.random.SeedSequence([seed, 0]).spawn(1 + len(algorithms))
    job = sample_job(decentral_spec(p), np.random.default_rng(inst_rng))
    system = ResourceConfig((p,) * job.num_types)
    ratios = {}
    for a, name in enumerate(algorithms):
        result = dispatch_simulate(
            job, system, make_scheduler(name),
            rng=np.random.default_rng(alg_seeds[a]), record_trace=True,
        )
        _check_trace(job, system, result)
        ratios[name] = result.completion_time_ratio()
    single = run_decentral_comparison(p, 1, seed)
    if single["ratio"] != ratios:
        raise BenchError("decentral: re-simulated instance 0 differs from the sweep")


# -- running a workload ------------------------------------------------
LAYER_SPANS = {
    "workloads.sample": [
        ("repro.experiments.runner", "sample_instance"),
        ("repro.experiments.decentral", "sample_job"),
        ("repro.experiments.robustness", "sample_instance"),
        ("repro.experiments.stream", "sample_system"),
        ("repro.experiments.stream", "poisson_stream"),
    ],
    "sim.simulate": [
        ("repro.experiments.runner", "simulate"),
        ("repro.experiments.robustness", "simulate"),
    ],
    "batch.grid": [("repro.sim.batch", "simulate_batch_grid")],
    "decentral.run": [("repro.decentral.engine", "simulate_decentralized")],
    "faults.run": [("repro.experiments.robustness", "simulate_with_faults")],
    "multijob.run": [("repro.experiments.stream", "simulate_stream")],
}


def _instrument(tracer: Tracer) -> None:
    import importlib

    from repro.resultcache.integrate import SweepCache

    for name, targets in LAYER_SPANS.items():
        for module, attr in targets:
            tracer.wrap(importlib.import_module(module), attr, name)
    tracer.wrap(SweepCache, "write_instance", "resultcache.write")


def _run_round(workload: str, size: dict, seed: int, first: bool,
               telemetry=None, tracer: Tracer | None = None,
               round_no: int = 0) -> RoundLog:
    from repro.core.cache import clear_offline_cache

    cache_dir = fresh_dir(workload)
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    clear_offline_cache()
    if workload == "engine-variants":
        ops = variant_ops(size, seed, telemetry)
    else:
        engine = "batch" if workload == "fig4-batch" else "scalar"
        ops = fig4_ops(engine, size["n"], seed, telemetry)
    log = RoundLog()
    results = {}

    def timed(op: Op, phase: str):
        t0, c0 = perf_counter(), process_time()
        if tracer is None:
            out = op.run()
        else:
            with tracer.span(f"sweep.{phase}", group=f"{phase}:{round_no}:{op.label}"):
                out = op.run()
        return out, perf_counter() - t0, process_time() - c0

    round_span = tracer.span("round", group=f"round:{round_no}") if tracer else nullcontext()
    with round_span:
        for op in ops:
            results[op.label], wall, cpu = timed(op, "cold")
            log.cold_wall.append(wall)
            log.cold_cpu.append(cpu)
            log.sims += op.sims
            log.tasks += op.tasks
        for k in range(WARM_PASSES):
            for op in ops:
                # An uncached sweep recomputes: rerun it once, in the
                # first round, to check that it is deterministic.
                if not op.cached and not (first and k == 0):
                    continue
                again, wall, cpu = timed(op, "warm")
                if again != results[op.label]:
                    raise BenchError(f"{op.label}: warm re-run differs from the cold run")
                if op.cached:
                    log.warm_wall.append(wall)
                    log.warm_cpu.append(cpu)
    if workload == "engine-variants":
        check_variants(size, seed, results, first)
    else:
        check_fig4(size["n"], seed, results, first)
        if workload == "fig4-batch" and first:
            check_batch_equals_scalar(size["n"], seed, results)
    shutil.rmtree(cache_dir)
    return log


def _warm_up(workload: str, size: dict) -> None:
    """One tiny untimed sweep, so lazy imports and the kernel load are done."""
    small = {k: 1 for k in size}
    if "p" in size:
        small["p"] = 4
    _run_round(workload, small, 1, first=False)


def run(workload: str, seed: int, seconds: float, trace: bool, size_name: str):
    """Run one sweep workload; return ``(metrics, attempted, lines)``."""
    size = SIZES[workload][size_name]
    walls, probes = time_setups(SETUP_MODULES[workload], SETUP_COUNT[size_name])
    _warm_up(workload, size)
    lines = []
    logs: list[RoundLog] = []
    tracer = telemetry = None
    overhead = None
    t_start = perf_counter()
    if trace:
        from repro.obs.telemetry import Telemetry

        base = _run_round(workload, size, seed * 1000, first=True)
        tracer, telemetry = Tracer(), Telemetry()
        _instrument(tracer)
    round_no = 0
    t_measure = time.perf_counter_ns()
    try:
        while round_no == 0 or perf_counter() - t_start < seconds:
            logs.append(
                _run_round(workload, size, seed * 1000 + round_no,
                           first=round_no == 0, telemetry=telemetry,
                           tracer=tracer, round_no=round_no)
            )
            round_no += 1
    finally:
        if tracer is not None:
            tracer.restore()
    t_end = time.perf_counter_ns()
    if trace:
        overhead = sum(logs[0].cold_wall) - sum(base.cold_wall)

    cold_wall = sum(sum(r.cold_wall) for r in logs)
    cold_ops = sum(len(r.cold_wall) for r in logs)
    warm_ops = sum(len(r.warm_wall) for r in logs)
    sims = sum(r.sims for r in logs)
    tasks = sum(r.tasks for r in logs)
    fresh = [w * 1e3 for r in logs for w in r.cold_wall]
    hot = [w * 1e3 for r in logs for w in r.warm_wall]
    metrics = {
        "setup_s": (median(walls), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "tasks_per_s": (tasks / cold_wall, "1/s"),
        "sims_per_s": (sims / cold_wall, "1/s"),
        "fresh_cpu_ms_per_ktask": (sum(sum(r.cold_cpu) for r in logs) * 1e6 / tasks, "ms"),
        "fresh_p50_ms": (median(fresh), "ms"),
        "hot_cpu_ms": (sum(sum(r.warm_cpu) for r in logs) * 1e3 / warm_ops, "ms"),
        "hot_p50_ms": (median(hot), "ms"),
    }
    lines.append(
        f"{len(logs)} rounds, {cold_ops} cold and {warm_ops} warm sweep calls, "
        f"{sims} engine runs, {tasks} tasks, {cold_wall:.2f} s computing"
    )
    lines.append(f"cold sweep call: {describe(fresh, 'ms')}")
    lines.append(f"warm sweep call: {describe(hot, 'ms')}")
    if trace:
        metrics.update(_layers(workload, logs, tracer, telemetry, probes,
                               overhead, t_measure, t_end, lines))
    return metrics, cold_ops + warm_ops, lines


def _layers(workload, logs, tracer, telemetry, probes, overhead,
            t0_ns, t1_ns, lines) -> dict:
    rounds = len(logs)
    # Only spans inside cold sweep calls: the output checks also call
    # into the wrapped layers, and their spans are not sweep work.
    table = tracer.table("cold:")
    snap = telemetry.snapshot()
    counters, timers = snap.counters, snap.timers

    def span_s(name):
        return table.get(name, {}).get("total_s", 0.0) / rounds

    def count(name):
        return counters.get(name, 0) / rounds

    decide = sum(t for k, (t, _c) in timers.items() if k.startswith("decision."))
    loop = timers.get("phase.engine_loop", (0.0, 0))[0]
    wall = (t1_ns - t0_ns) / 1e9
    unattributed = table.get("sweep.cold", {}).get("self_s", 0.0) / rounds
    out = {
        "workloads.sample_s": (span_s("workloads.sample"), "s"),
        "core.prepare_s": (timers.get("phase.prepare", (0.0, 0))[0] / rounds, "s"),
        "schedulers.decide_s": (decide / rounds, "s"),
        "sim.loop_self_s": (max(0.0, loop - decide) / rounds, "s"),
        "sim.decisions": (count("engine.decisions"), "count"),
        "sim.events": (count("engine.events_pushed"), "count"),
        "native.calls": (count("native.calls"), "count"),
        "batch.grid_s": (span_s("batch.grid"), "s"),
        "batch.rounds": (count("batch.rounds"), "count"),
        "batch.fallback_rows": (count("batch.fallback"), "count"),
        "resultcache.write_s": (span_s("resultcache.write"), "s"),
        "resultcache.writes": (count("cache.writes"), "count"),
        "decentral.run_s": (span_s("decentral.run"), "s"),
        "decentral.steals": (count("steal.successes"), "count"),
        "faults.run_s": (span_s("faults.run"), "s"),
        "multijob.run_s": (span_s("multijob.run"), "s"),
        "setup.import_s": (median([p["import_s"] for p in probes]), "s"),
        "setup.native_load_s": (median([p["native_load_s"] for p in probes]), "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.uncovered_s": (wall - tracer.covered_s(t0_ns, t1_ns), "s"),
    }
    path = WORK / "traces" / f"{workload}.json"
    tracer.write_chrome(path)
    lines.append(f"spans: {len(tracer.spans)} written to {path.relative_to(WORK.parent)}")
    lines.append(f"per-layer self time per round ({rounds} traced rounds):")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"  {name:<22} self {row['self_s'] / rounds:9.4f} s  "
            f"total {row['total_s'] / rounds:9.4f} s  calls {row['count'] / rounds:g}"
        )
    lines.append(
        f"  telemetry: prepare {out['core.prepare_s'][0]:.4f} s, decide "
        f"{out['schedulers.decide_s'][0]:.4f} s, loop self "
        f"{out['sim.loop_self_s'][0]:.4f} s per round"
    )
    lines.append(
        f"wall {wall:.3f} s, not covered by any span {out['trace.uncovered_s'][0]:.3f} s; "
        f"tracing overhead on one round {overhead:+.3f} s"
    )
    return out
