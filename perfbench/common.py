"""Shared plumbing: checkout layout, environment, statistics, /proc reads.

Everything the benchmark writes lives under ``.perfbench/`` in the
checkout it runs from (result caches, the compiled kernel, temporary
files, span files), so a run never touches the rest of the machine.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """A failed output check or an unusable checkout (exit code 1)."""


def bootstrap() -> None:
    """Point this process and its children at the checkout's own sources.

    Raises :class:`BenchError` when the checkout holds no ``src/repro``
    package, so the benchmark never falls back to some other install.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}; run from a checkout")
    # Result caches of earlier runs must never answer this one.
    shutil.rmtree(WORK / "cache", ignore_errors=True)
    for sub in ("tmp", "native", "xdg", "cache", "traces"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    env = {
        "PYTHONPATH": str(SRC),
        "REPRO_NATIVE_DIR": str(WORK / "native"),
        "XDG_CACHE_HOME": str(WORK / "xdg"),
        "REPRO_CACHE": "1",
        "REPRO_CACHE_DIR": str(WORK / "cache" / "default"),
        "REPRO_WORKERS": "1",
        "TMPDIR": str(WORK / "tmp"),
    }
    os.environ.update(env)
    os.environ.pop("REPRO_ENGINE", None)
    os.environ.pop("REPRO_NATIVE", None)
    tempfile.tempdir = str(WORK / "tmp")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def fresh_dir(kind: str) -> Path:
    """A new empty directory under ``.perfbench/cache`` (unique per call)."""
    path = WORK / "cache" / f"{kind}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


# -- statistics ---------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def tail(values) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it.

    Returns ``("p90", value)`` style pairs, or ``None`` below forty
    samples, where no percentile would describe a tail.
    """
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            index = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            label = f"p{pct:g}".replace(".", "_")
            return label, float(ordered[index])
    return None


def describe(values, unit: str) -> str:
    """``median`` plus its supported tail, with the sample count."""
    if not values:
        return "n=0"
    text = f"p50 {median(values):.3f} {unit}"
    t = tail(values)
    if t is not None:
        text += f", {t[0]} {t[1]:.3f} {unit}"
    return f"{text} (n={len(values)})"


# -- /proc --------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may contain spaces; fields resume after ')'.
    return raw[raw.rindex(")") + 2 :].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one live process (all its threads)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def pid_alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid``, from the /proc parent links."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    out, stack = [], [pid]
    while stack:
        for child in children.get(stack.pop(), ()):
            out.append(child)
            stack.append(child)
    return out


def peak_rss_mb(pid: int | None = None) -> float:
    """``VmHWM`` of ``pid`` (default: this process) in MB."""
    path = Path(f"/proc/{pid or os.getpid()}/status")
    for line in path.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {path}")


# -- set-up probe -------------------------------------------------------
def time_setups(modules: list[str], count: int) -> tuple[list[float], list[dict]]:
    """Start ``count`` fresh interpreters that import ``modules`` and load
    the native kernel; return their wall times and self-reported splits.

    One untimed start comes first, so bytecode compilation and the
    one-off kernel build of a new checkout are not counted.
    """
    cmd = [sys.executable, str(ROOT / "perfbench" / "probe.py"), *modules]
    walls, reports = [], []
    for i in range(count + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, env=os.environ
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        if i:
            walls.append(wall)
            reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return walls, reports
