"""Shared helpers of the lifecycle benchmark: statistics, records, scratch space.

Everything here is workload-independent: order statistics over latency
samples, peak-RSS readings, CPU pinning and forked per-CPU repeats, the
provenance record written next to every run, and the scratch directory
each run works in (always inside the checkout, removed when the run
ends).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
from typing import Callable, Dict, List, Sequence

#: The checkout root: the directory that holds ``perfbench/``.
ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Per-run scratch space and the stamped run records, both git-ignored.
SCRATCH_DIR = ROOT / ".perfbench_tmp"
RECORDS_DIR = ROOT / ".perfbench_records"


class CorrectnessError(RuntimeError):
    """An output of the program under test was wrong: the run has no result."""


def use_repo_sources() -> None:
    """Make ``repro`` (``src/``) and the bench helpers (``benchmarks/``) importable.

    The benchmark measures the checkout it sits in, never an installed
    copy, so a checkout without its sources is an error.
    """
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no src/repro under {ROOT}: nothing to benchmark")
    for path in (ROOT / "src", ROOT / "benchmarks"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def repro_env() -> Dict[str, str]:
    """Environment for a child interpreter that imports this checkout's ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in percent) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


#: p99 is only reported when at least ten samples lie beyond it.
MIN_LATENCY_SAMPLES = 1000
#: Blocks per request, for every workload: callers ask about a group of
#: blocks and wait for the answer.
BLOCKS_PER_REQUEST = 32


def latency_summary(samples_s: Sequence[float]) -> Dict[str, float]:
    """p50 and p99 in milliseconds, plus the sample count."""
    if len(samples_s) < MIN_LATENCY_SAMPLES:
        raise CorrectnessError(
            f"only {len(samples_s)} latency samples; p99 needs at least "
            f"{MIN_LATENCY_SAMPLES}"
        )
    return {
        "latency_p50_ms": 1e3 * percentile(samples_s, 50.0),
        "latency_p99_ms": 1e3 * percentile(samples_s, 99.0),
        "latency_samples": len(samples_s),
    }


def shares(times: Dict[str, float], whole_s: float) -> Dict[str, float]:
    """Each ``<name>_s`` of ``times`` as ``<name>_share``, its fraction of ``whole_s``.

    The per-layer view of where a wall clock went; a layer the workload
    bypasses reads exactly 0.
    """
    return {
        name[: -len("_s")] + "_share": seconds / whole_s
        for name, seconds in times.items()
        if name.endswith("_s")
    }


@contextlib.contextmanager
def pinned_to_cpu(turn: int):
    """Run the block on one CPU of this process's affinity set, chosen by turns.

    On a shared host each CPU is slowed by other tenants in phases of
    seconds, independently of the others; repeats timed on CPUs taken in
    turn keep one contended CPU from deciding a whole run.  Processes
    started inside the block inherit the pinning.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[turn % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def race(task: Callable[[int], object], count: int) -> List[object]:
    """``task(index)`` for every index below ``count``, each in a forked process, all at once.

    Returns the results in index order.  A :class:`CorrectnessError` in a
    child is raised here as one; any other failure of a child is a
    ``RuntimeError``.  Every child has ended when this returns or raises.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    channels, processes = [], []
    try:
        for index in range(count):
            receive, send = context.Pipe(duplex=False)
            process = context.Process(target=_race_child, args=(task, index, send), daemon=True)
            process.start()
            send.close()
            channels.append(receive)
            processes.append(process)
        outcomes = []
        for index, channel in enumerate(channels):
            try:
                if not channel.poll(RACE_TIMEOUT_S):
                    raise EOFError
                outcomes.append(channel.recv())
            except EOFError:
                outcomes.append(("crash", f"child {index} gave no result"))
    finally:
        for channel in channels:
            channel.close()
        for process in processes:
            process.join(timeout=RACE_JOIN_TIMEOUT_S)
            if process.is_alive():
                process.kill()
                process.join()
    for kind, value in outcomes:
        if kind == "incorrect":
            raise CorrectnessError(value)
        if kind == "crash":
            raise RuntimeError(value)
    return [value for _, value in outcomes]


#: How long :func:`race` waits for a child's result, then for the child to exit.
RACE_TIMEOUT_S = 120.0
RACE_JOIN_TIMEOUT_S = 30.0


def _race_child(task, index, send) -> None:
    try:
        send.send(("ok", task(index)))
    except CorrectnessError as error:
        send.send(("incorrect", str(error)))
    except BaseException as error:  # noqa: BLE001 - reported to the parent
        send.send(("crash", f"{type(error).__name__}: {error}"))
    finally:
        send.close()


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def git_commit() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def scratch_dir(name: str) -> pathlib.Path:
    """A fresh, empty scratch directory for one run."""
    path = SCRATCH_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def write_record(workload: str, seed: int, trace: bool, record: Dict) -> pathlib.Path:
    """Stamp a run record (host, time, commit) and keep it beside the checkout."""
    from record import stamp  # benchmarks/record.py

    stamped = stamp({**record, "commit": git_commit()})
    RECORDS_DIR.mkdir(parents=True, exist_ok=True)
    path = RECORDS_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(stamped, indent=2, sort_keys=True) + "\n")
    return path
