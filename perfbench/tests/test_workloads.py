"""Every workload runs end to end at the smoke size, untraced and traced."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.common import quartiles, tail
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "2", "--seconds", "0",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        spans = json.loads((ROOT / ".perfbench" / "traces" / f"{workload}.json").read_text())
        assert spans["traceEvents"]


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fig4-scalar", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tracer_self_time_and_coverage():
    tracer = Tracer()
    with tracer.span("outer", group="g"):
        with tracer.span("inner"):
            pass
    table = tracer.table()
    assert table["outer"]["count"] == table["inner"]["count"] == 1
    assert table["outer"]["self_s"] <= table["outer"]["total_s"]
    (inner,) = [s for s in tracer.spans if s[1] == "inner"]
    (outer,) = [s for s in tracer.spans if s[1] == "outer"]
    assert inner[4] == outer[0] and inner[5] == "g"
    assert tracer.covered_s(outer[2], outer[3]) == pytest.approx(
        (outer[3] - outer[2]) / 1e9)


def test_statistics_helpers():
    assert quartiles([1, 2, 3, 4, 5]) == (1.5, 3.0, 4.5)
    assert tail(list(range(39))) is None
    assert tail(list(range(100)))[0] == "p90"
    assert tail(list(range(1000)))[0] == "p99"
