"""The serve-routed workload: ``repro route`` with two shards under load.

The cluster runs as real processes (``repro route --shards 2``, each
shard a ``repro serve`` with an in-process pool).  One load-generator
process with two threads, each owning one keep-alive connection,
sends ``/schedule`` requests.  A run repeats whole rounds of two
phases until ``--seconds`` have passed:

* **hot** — open-loop Poisson arrivals at ``hot_rate`` cycling a small
  primed set of requests: every answer comes from a shard's response
  cache, so only the serving path runs;
* **fresh** — open-loop Poisson arrivals at ``fresh_rate`` with seeds
  never sent before: each request runs one scalar simulation.

The traffic is the ``/schedule`` part of the sustained-soak profile in
``scripts/soak.py``: its cheap class sends 170 requests/s, 90% of them
``/schedule`` over 16 seeds (153/s), and its mid class sends 8/s with
never-repeating seeds, both on ``small-layered-ep`` under ``mqb``.

Latency is timed from each request's due time.  CPU cost per
request is read from ``/proc`` for the router and its shards.  The
traced run adds a **direct** phase that replays the hot plan straight
to each request's owning shard, so the router hop can be subtracted.
Teardown is verified: SIGTERM drains the router, then no process of
the tree recorded at start may survive and every port must refuse
connections.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from perfbench import checker
from perfbench.common import (
    WORK,
    BenchError,
    cpu_seconds,
    descendants,
    describe,
    median,
    peak_rss_mb,
    pid_alive,
)
from perfbench.tracing import Tracer

SIZES = {
    "full": {"hot_set": 16, "hot_rate": 153.0, "hot_n": 306, "fresh_rate": 8.0,
             "fresh_n": 24, "setups": 3, "sampled": 12},
    "smoke": {"hot_set": 4, "hot_rate": 153.0, "hot_n": 16, "fresh_rate": 8.0,
              "fresh_n": 4, "setups": 1, "sampled": 2},
}

#: The soak profile's cell and scheduler for ``/schedule`` traffic.
CELL, SCHEDULER = "small-layered-ep", "mqb"

SHARDS = 2
HOST = "127.0.0.1"


@dataclass
class Sample:
    index: int
    due: float
    sent: float
    done: float
    status: int
    body: dict

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


# -- cluster lifecycle --------------------------------------------------
class Cluster:
    """One ``repro route`` process tree, started and verified torn down."""

    def __init__(self, log_name: str) -> None:
        from repro.service.testing import free_port

        self.port = free_port()
        self.log = open(WORK / "tmp" / f"{log_name}.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "route", "--host", HOST,
             "--port", str(self.port), "--shards", str(SHARDS)],
            env=os.environ, stdout=self.log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.tree: list[int] = []
        self.shards: dict[str, tuple[str, int]] = {}

    def wait_up(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"router exited early with {self.proc.returncode}")
            try:
                status, body = get_json(HOST, self.port, "/healthz")
            except OSError:
                status, body = 0, {}
            if status == 200 and body.get("healthy_shards") == SHARDS:
                for shard in body["shards"]:
                    host, port = shard["url"].split("//")[1].split(":")
                    self.shards[shard["id"]] = (host, int(port))
                self.tree = [self.proc.pid, *descendants(self.proc.pid)]
                if len(self.tree) < 1 + SHARDS:
                    raise BenchError(f"router tree has {len(self.tree)} processes")
                return
            time.sleep(0.02)
        raise BenchError(f"cluster not healthy within {timeout} s")

    def cpu(self) -> tuple[float, float]:
        """(router, shards) CPU seconds so far."""
        router = cpu_seconds(self.proc.pid)
        return router, sum(cpu_seconds(pid) for pid in self.tree[1:])

    def rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.tree)

    def stop(self) -> None:
        """SIGTERM drain, then verify that nothing of the tree survives."""
        problems = []
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                code = self.proc.wait(timeout=30)
                if code != 0:
                    problems.append(f"router exited with {code} after SIGTERM")
            except subprocess.TimeoutExpired:
                problems.append("router did not exit within 30 s of SIGTERM")
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(map(pid_alive, self.tree[1:])):
                time.sleep(0.05)
            alive = [pid for pid in self.tree if pid_alive(pid)]
            if alive:
                problems.append(f"processes {alive} outlived the drain")
            for host, port in [(HOST, self.port), *self.shards.values()]:
                if port_open(host, port):
                    problems.append(f"port {port} still accepts connections")
        finally:
            self.kill()
            self.log.close()
        if problems:
            raise BenchError("teardown: " + "; ".join(problems))

    def kill(self) -> None:
        """SIGKILL the router's process group and any recorded survivor."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        for pid in self.tree[1:]:
            if pid_alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if self.proc.poll() is None:
            self.proc.wait(timeout=10)


def port_open(host: str, port: int) -> bool:
    with socket.socket() as sock:
        sock.settimeout(1.0)
        return sock.connect_ex((host, port)) == 0


def get_json(host: str, port: int, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


# -- requests -----------------------------------------------------------
def payload(cell: str, scheduler: str, seed: int) -> bytes:
    from repro.service.protocol import ScheduleRequest

    return json.dumps(ScheduleRequest(cell, scheduler, seed).to_payload()).encode()


class Mix:
    """Request bodies: a fixed hot set, and fresh seeds drawn in order."""

    def __init__(self, seed: int, hot_set: int) -> None:
        base = seed * 1_000_000
        self.hot = [payload(CELL, SCHEDULER, base + j) for j in range(hot_set)]
        self.next_fresh = base + 100_000

    def fresh(self, count: int) -> list[bytes]:
        out = [payload(CELL, SCHEDULER, self.next_fresh + j) for j in range(count)]
        self.next_fresh += count
        return out


class LoadGen:
    """Two sender threads, each with one keep-alive connection."""

    def __init__(self, targets: list[tuple[str, int]], tracer: Tracer | None) -> None:
        self.conns = [http.client.HTTPConnection(h, p, timeout=120) for h, p in targets]
        self.tracer = tracer

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def run(self, plan: list[tuple[float | None, int, bytes]], phase: str,
            parent: int | None = None) -> list[Sample]:
        """Send ``(due offset or None, thread, body)`` entries.

        A ``None`` due time means closed loop: send as soon as the
        thread's previous request has returned.
        """
        results: list[Sample | None] = [None] * len(plan)
        errors: list[Exception] = []
        t0 = perf_counter() + 0.01

        def sender(k: int) -> None:
            conn = self.conns[k]
            try:
                for i, (offset, thread, body) in enumerate(plan):
                    if thread != k:
                        continue
                    due = perf_counter() if offset is None else t0 + offset
                    wait = due - perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    sent = perf_counter()
                    conn.request("POST", "/schedule", body,
                                 {"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    raw = resp.read()
                    done = perf_counter()
                    results[i] = Sample(i, due, sent, done, resp.status, json.loads(raw))
                    if self.tracer is not None:
                        self.tracer.add("request", int(sent * 1e9), int(done * 1e9),
                                        group=f"{phase}:{i}", parent=parent)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=sender, args=(k,)) for k in range(len(self.conns))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
        if errors or any(th.is_alive() for th in threads):
            raise BenchError(f"{phase}: load generator failed: {errors[:1]}")
        return [s for s in results if s is not None]


def open_plan(bodies: list[bytes], rate: float, rng: np.random.Generator):
    """Poisson arrivals at ``rate``, alternating between the two threads."""
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=len(bodies)))
    return [(float(offsets[i]), i % 2, body) for i, body in enumerate(bodies)]


def check_samples(samples: list[Sample], source: str, phase: str) -> None:
    for s in samples:
        body = s.body
        if s.status != 200 or body.get("status") != "ok":
            raise BenchError(f"{phase}: request {s.index} answered {s.status}: {body}")
        if body.get("source") != source:
            raise BenchError(f"{phase}: request {s.index} came from {body.get('source')}")
        if body["result"]["ratio"] < 1.0 - checker.TOL:
            raise BenchError(f"{phase}: request {s.index} has ratio below 1")


def check_in_process(bodies: list[bytes], answers: list[dict]) -> None:
    """Responses equal an in-process run under the protocol's seeding:
    sample from ``default_rng(seed)``, simulate with a fresh one."""
    from repro.schedulers.registry import make_scheduler
    from repro.sim.engine import simulate
    from repro.workloads.generator import sample_instance, workload_cell

    for raw, answer in zip(bodies, answers):
        req = json.loads(raw)
        job, system = sample_instance(
            workload_cell(req["cell"]), np.random.default_rng(req["seed"])
        )
        result = simulate(job, system, make_scheduler(req["scheduler"]),
                          rng=np.random.default_rng(req["seed"]), record_trace=True)
        cols = result.trace.as_columns()
        checker.check_schedule(
            job.types, job.work, job.edges, system.counts, cols["task"],
            cols["alpha"], cols["proc"], cols["start"], cols["end"],
            makespan=result.makespan,
        )
        expect = {
            "makespan": result.makespan,
            "lower_bound": result.lower_bound(),
            "ratio": result.completion_time_ratio(),
            "decisions": int(result.decisions),
            "n_tasks": int(job.n_tasks),
            "counts": list(system.counts),
        }
        got = {key: answer[key] for key in expect}
        if got != expect:
            raise BenchError(f"response {got} differs from in-process run {expect}")


def owners(bodies: list[bytes], shard_ids: list[str]) -> list[int]:
    """Index (into ``shard_ids``) of each body's owning shard on the ring."""
    from repro.cluster.ring import HashRing
    from repro.service.protocol import parse_request, request_fingerprint

    ring = HashRing()
    for sid in shard_ids:
        ring.add(sid)
    return [
        shard_ids.index(ring.preference(request_fingerprint(parse_request(json.loads(b))))[0])
        for b in bodies
    ]


def micro_layers(bodies: list[bytes], answer: dict, repeats: int) -> dict:
    """In-process µs per call of parse, fingerprint and render."""
    from repro.service.protocol import ok_response, parse_request, request_fingerprint
    from repro.service.server import render_http_response

    def per_call_us(fn) -> float:
        times = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(repeats):
                for b in bodies:
                    fn(b)
            times.append((perf_counter() - t0) / (repeats * len(bodies)) * 1e6)
        return median(times)

    requests = {b: parse_request(json.loads(b), expected_kind="schedule") for b in bodies}
    return {
        "service.parse_us": per_call_us(
            lambda b: parse_request(json.loads(b), expected_kind="schedule")),
        "service.fingerprint_us": per_call_us(lambda b: request_fingerprint(requests[b])),
        "service.render_us": per_call_us(
            lambda b: render_http_response(
                200, json.dumps(ok_response("schedule", answer, 1e-5, "cached")).encode(),
                keep_alive=True)),
    }


@dataclass
class Phase:
    samples: list[Sample] = field(default_factory=list)
    router_cpu: float = 0.0
    shard_cpu: float = 0.0
    tasks: int = 0

    def add(self, samples, cpu0, cpu1) -> None:
        self.samples += samples
        self.router_cpu += cpu1[0] - cpu0[0]
        self.shard_cpu += cpu1[1] - cpu0[1]
        self.tasks += sum(s.body["result"]["n_tasks"] for s in samples)

    def cpu_ms(self) -> float:
        return (self.router_cpu + self.shard_cpu) * 1e3 / len(self.samples)


def _counters(cluster: Cluster) -> dict:
    status, body = get_json(HOST, cluster.port, "/metrics")
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    flat = dict(body["router"]["counters"])
    cluster_snap = body.get("cluster") or {}
    flat.update(cluster_snap.get("counters", {}))
    for name, (total, calls) in cluster_snap.get("timers", {}).items():
        flat[name + ".total"] = total
        flat[name + ".calls"] = calls
    return flat


def _delta(after: dict, before: dict, name: str) -> float:
    return after.get(name, 0) - before.get(name, 0)


def bring_up(mix: Mix, name: str, tracer: Tracer | None) -> tuple[Cluster, float, float]:
    """Start a cluster and prime the hot set; returns (cluster, up_s, prime_s)."""
    t0 = perf_counter()
    cluster = Cluster(name)
    try:
        cluster.wait_up()
        t1 = perf_counter()
        gen = LoadGen([(HOST, cluster.port)] * 2, None)
        try:
            primed = gen.run([(None, i % 2, b) for i, b in enumerate(mix.hot)], "prime")
        finally:
            gen.close()
        check_samples(primed, "fresh", "prime")
        t2 = perf_counter()
    except BaseException:
        cluster.kill()
        cluster.log.close()
        raise
    if tracer is not None:
        tracer.add("setup.cluster_up", int(t0 * 1e9), int(t1 * 1e9), group=name)
        tracer.add("setup.prime", int(t1 * 1e9), int(t2 * 1e9), group=name)
    return cluster, t1 - t0, t2 - t1


def run(seed: int, seconds: float, trace: bool, size_name: str):
    """Run the serve-routed workload; return ``(metrics, attempted, lines)``."""
    size = SIZES[size_name]
    mix = Mix(seed, size["hot_set"])
    rng = np.random.default_rng(seed)
    tracer = Tracer() if trace else None
    ups, primes = [], []
    attempted = 0
    for k in range(size["setups"] - 1):
        extra, up, prime = bring_up(mix, f"setup-{k}", tracer)
        extra.stop()
        ups.append(up)
        primes.append(prime)
        attempted += len(mix.hot)

    cluster, up, prime = bring_up(mix, "main", tracer)
    ups.append(up)
    primes.append(prime)
    attempted += len(mix.hot)
    hot, fresh, direct = Phase(), Phase(), Phase()
    untraced_hot: list[float] = []
    fresh_bodies: list[bytes] = []
    fresh_answers: list[dict] = []
    before = after = {}
    try:
        shard_ids = sorted(cluster.shards)
        hot_owner = owners(mix.hot, shard_ids)
        routed = LoadGen([(HOST, cluster.port)] * 2, tracer)
        direct_gen = LoadGen([cluster.shards[sid] for sid in shard_ids], tracer)
        before = _counters(cluster)
        t_start = perf_counter()
        t_measure = time.perf_counter_ns()
        round_no = 0
        try:
            while round_no < 1 + trace or perf_counter() - t_start < seconds:
                # The traced run's first round records no spans: its hot
                # phase is the untraced baseline for the tracing overhead.
                gen_tracer = tracer if round_no > 0 else None
                routed.tracer = direct_gen.tracer = gen_tracer
                hot_bodies = [mix.hot[i % len(mix.hot)] for i in range(size["hot_n"])]
                hot_plan = open_plan(hot_bodies, size["hot_rate"], rng)
                phases = [
                    ("hot", hot, routed, hot_plan, "cached"),
                    ("fresh", fresh, routed,
                     open_plan(mix.fresh(size["fresh_n"]), size["fresh_rate"], rng),
                     "fresh"),
                ]
                if trace:
                    threads = [hot_owner[i % len(mix.hot)] for i in range(len(hot_bodies))]
                    phases.append(
                        ("direct", direct, direct_gen,
                         [(o, t, b) for (o, _t, b), t in zip(hot_plan, threads)],
                         "cached"))
                for name, phase, gen, plan, source in phases:
                    span = (tracer.span(f"phase.{name}", group=f"{name}:{round_no}")
                            if gen_tracer is not None else nullcontext())
                    with span as parent:
                        cpu0 = cluster.cpu()
                        samples = gen.run(plan, f"{name}:{round_no}", parent)
                        cpu1 = cluster.cpu()
                    check_samples(samples, source, name)
                    attempted += len(samples)
                    if trace and round_no == 0:
                        if name == "hot":
                            untraced_hot += [s.latency_ms for s in samples]
                        continue
                    phase.add(samples, cpu0, cpu1)
                    if name == "fresh":
                        fresh_bodies += [b for _o, _t, b in plan]
                        fresh_answers += [s.body["result"] for s in samples]
                round_no += 1
        finally:
            routed.close()
            direct_gen.close()
        t_end = time.perf_counter_ns()
        after = _counters(cluster)
        rss = cluster.rss_mb()
    finally:
        cluster.stop()

    step = max(1, len(fresh_bodies) // size["sampled"])
    check_in_process(fresh_bodies[::step], fresh_answers[::step])

    hot_ms = [s.latency_ms for s in hot.samples]
    fresh_ms = [s.latency_ms for s in fresh.samples]
    metrics = {
        "setup_s": (median([u + p for u, p in zip(ups, primes)]), "s"),
        "peak_rss_mb": (rss, "MB"),
        "fresh_cpu_ms_per_ktask": (
            (fresh.router_cpu + fresh.shard_cpu) * 1e6 / fresh.tasks, "ms"),
        "fresh_cpu_ms": (fresh.cpu_ms(), "ms"),
        "fresh_p50_ms": (median(fresh_ms), "ms"),
        "hot_cpu_ms": (hot.cpu_ms(), "ms"),
        "hot_p50_ms": (median(hot_ms), "ms"),
    }
    lines = [
        f"{round_no} rounds; hot {size['hot_rate']:g}/s, fresh "
        f"{size['fresh_rate']:g}/s open loop on 2 connections",
        f"hot routed latency: {describe(hot_ms, 'ms')}",
        f"fresh routed latency: {describe(fresh_ms, 'ms')}",
        f"fresh: {len(fresh.samples)} requests, {fresh.tasks} tasks",
        f"load generator lateness: "
        f"{describe([s.late_ms for s in hot.samples + fresh.samples], 'ms')}",
    ]
    if trace:
        metrics.update(_layers(mix, hot, fresh, direct, untraced_hot, before,
                               after, ups, primes, tracer, t_measure, t_end, lines))
    return metrics, attempted, lines


def _layers(mix, hot, fresh, direct, untraced_hot, before, after, ups,
            primes, tracer, t0_ns, t1_ns, lines) -> dict:
    hot_ms = [s.latency_ms for s in hot.samples]
    direct_ms = [s.latency_ms for s in direct.samples]
    hits = _delta(after, before, "cache.hits")
    misses = _delta(after, before, "cache.misses")
    exec_calls = _delta(after, before, "service.exec.schedule.calls")
    rejected = sum(
        _delta(after, before, name) for name in after if name.startswith("admission.rejected")
    )
    answer = hot.samples[0].body["result"]
    out = {
        "setup.cluster_up_s": (median(ups), "s"),
        "setup.prime_s": (median(primes), "s"),
        "cluster.hop_ms": (median(hot_ms) - median(direct_ms), "ms"),
        "cluster.router_cpu_ms": (hot.router_cpu * 1e3 / len(hot.samples), "ms"),
        "service.shard_cpu_ms": (hot.shard_cpu * 1e3 / len(hot.samples), "ms"),
        "service.shard_cpu_fresh_ms": (fresh.shard_cpu * 1e3 / len(fresh.samples), "ms"),
        "service.server_ms": (median([s.body["elapsed"] * 1e3 for s in hot.samples]), "ms"),
        "service.server_fresh_ms": (
            median([s.body["elapsed"] * 1e3 for s in fresh.samples]), "ms"),
        "service.exec_ms": (
            _delta(after, before, "service.exec.schedule.total") * 1e3 / max(1, exec_calls),
            "ms"),
        "service.cache_hit_ratio": (hits / max(1, hits + misses), "ratio"),
        "service.rejected": (rejected, "count"),
        "cluster.retried": (_delta(after, before, "router.retried"), "count"),
        "loadgen.late_ms": (median([s.late_ms for s in hot.samples + fresh.samples]), "ms"),
        "trace.overhead_s": ((median(hot_ms) - median(untraced_hot)) / 1e3, "s"),
        "trace.uncovered_s": (
            (t1_ns - t0_ns) / 1e9 - tracer.covered_s(t0_ns, t1_ns), "s"),
    }
    for name, value in micro_layers(mix.hot, answer, 20).items():
        out[name] = (value, "us")
    path = WORK / "traces" / "serve-routed.json"
    tracer.write_chrome(path)
    lines.append(f"spans: {len(tracer.spans)} written to {path.relative_to(WORK.parent)}")
    lines.append(f"direct-to-shard hot latency: {describe(direct_ms, 'ms')}")
    lines.append("per-layer split of a hot request:")
    for name in ("cluster.hop_ms", "cluster.router_cpu_ms", "service.shard_cpu_ms",
                 "service.server_ms", "service.parse_us", "service.fingerprint_us",
                 "service.render_us"):
        lines.append(f"  {name:<28} {out[name][0]:10.4f} {out[name][1]}")
    return out
