"""Lifecycle benchmark of the PALMED reproduction: characterize, then serve.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, default seed

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``characterize``
    cold ``Palmed.run`` of a SKL-like machine, publish, Fig. 4b evaluation
    (:mod:`characterize`);
``serve-binary``
    one standalone node on the binary wire (:mod:`serve`);
``serve-cluster-json``
    a two-node cluster behind an in-process coordinator, JSON wire, half
    repeated and half fresh blocks (:mod:`serve`).

The workload seed drives every generated input (the Fig. 4b suite, the
served corpora and request streams).  ``DEFAULT_SEED`` is the seed to
develop against; a claimed gain must also hold on ``HELDOUT_SEED``.

Output: one ``name value unit`` line per metric, then, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metrics are the ``end_to_end`` set of ``BENCHMARK.json`` (``--trace 0``)
or its ``per_layer`` set (``--trace 1``; layers a workload bypasses read
zero; layer times are shares of the wall clock they belong to, and the
absolute seconds are printed).  A wrong output — a served answer that differs bitwise from the
offline predictor, a time-limited solve, a mapping digest that changes
between repeats — prints no result and exits with status 1.  A stamped
record of every run lands in ``.perfbench_records/``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402 - needs the path above
    ROOT,
    CorrectnessError,
    scratch_dir,
    use_repo_sources,
    write_record,
)

WORKLOADS = ("characterize", "serve-binary", "serve-cluster-json")
DEFAULT_SEED = 1
HELDOUT_SEED = 2
DEFAULT_SECONDS = 15


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    use_repo_sources()
    scratch = scratch_dir(name)
    try:
        if name == "characterize":
            import characterize

            return characterize.run(seed, seconds, trace, scratch)
        import serve

        runner = serve.run_binary if name == "serve-binary" else serve.run_cluster
        return runner(seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def result_line(spec: dict, report: dict, trace: bool) -> dict:
    """The driver's last line: the declared metric set with declared units."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = report["layers"] if trace else report["metrics"]
    metrics = {}
    for metric in declared:
        # A workload reports the layers it loads; the ones it bypasses did
        # no work, which reads as zero.
        value = float(values.get(metric["name"], 0.0)) if trace else float(values[metric["name"]])
        if not math.isfinite(value):
            raise CorrectnessError(f"{metric['name']} is {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": True,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def print_metrics(workload: str, values: dict, units: dict, expected=()) -> None:
    """``workload name value unit`` lines; ``expected`` names it lacks read n/a."""
    for name in sorted(set(values) | set(expected)):
        unit = units.get(name) or (
            "ms" if name.endswith("_ms") else "s" if name.endswith("_s") else ""
        )
        shown = f"{values[name]:.6g}" if name in values else "n/a"
        print(f"{workload}  {name}  {shown}  {unit}".rstrip())


#: Units of the metrics printed for people that are not in BENCHMARK.json.
EXTRA_UNITS = {
    "latency_samples": "count",
    "error_rate": "ratio",
    "rms_error_pct": "%",
    "kendall_tau": "ratio",
    "characterize_s": "s",
    "evaluate_blocks_per_s": "1/s",
}


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process (peak RSS stays per workload)."""
    status = 0
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1] if completed.returncode == 0 else lines))
        if completed.returncode != 0:
            print(f"{workload}: FAILED (exit {completed.returncode})")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                        f"held-out seed {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    spec = load_spec()
    trace = bool(args.trace)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, trace)
        line = result_line(spec, report, trace)
    except CorrectnessError as error:
        print(f"{args.workload}: INCORRECT: {error}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    expected = [] if trace else [m["name"] for m in spec["end_to_end"]] + list(EXTRA_UNITS)
    print_metrics(
        args.workload, report["layers"] if trace else report["metrics"], units, expected
    )
    path = write_record(
        args.workload,
        args.seed,
        trace,
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": trace,
            "params": report["params"],
            "metrics": report["metrics"],
            "layers": report["layers"],
            "attempted": report["attempted"],
            "failed": report["failed"],
        },
    )
    print(f"{args.workload}  record  {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
