"""``predict`` and ``evaluate``: consume saved mapping artifacts offline."""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import (
    add_machine_arguments,
    add_suite_arguments,
    build_machine_from_args,
    build_suite_from_args,
    write_json,
)


def _load_artifact(args: argparse.Namespace, machine):
    from repro.artifacts import ArtifactRegistry

    return ArtifactRegistry(args.artifacts).load_for_machine(machine)


def run_predict(args: argparse.Namespace) -> int:
    from repro.artifacts import ArtifactError
    from repro.predictors import PalmedPredictor
    from repro.predictors.batch import SuiteMatrix

    machine = build_machine_from_args(args)
    try:
        artifact = _load_artifact(args, machine)
    except ArtifactError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    suite = build_suite_from_args(args, machine)
    predictor = PalmedPredictor(artifact.mapping)
    lowered = SuiteMatrix([block.kernel for block in suite])
    predictions = predictor.predict_batch(lowered)

    processed = [p for p in predictions if p.ipc is not None]
    print(
        f"Served {len(predictions)} blocks of {suite.name} from artifact "
        f"{artifact.machine_fingerprint[:16]}… ({artifact.machine_name})"
    )
    if processed:
        mean_ipc = sum(p.ipc for p in processed) / len(processed)
        print(
            f"processed {len(processed)} blocks, mean predicted IPC {mean_ipc:.3f}"
        )
    shown = max(0, min(args.limit, len(predictions)))
    if shown:
        print(f"\nFirst {shown} predictions:")
        width = max(len(block.name) for block in list(suite)[:shown])
        for block, prediction in list(zip(suite, predictions))[:shown]:
            ipc = "unsupported" if prediction.ipc is None else f"{prediction.ipc:.3f}"
            print(f"  {block.name.ljust(width)}  IPC {ipc}")

    write_json(
        {
            "machine": artifact.machine_name,
            "machine_fingerprint": artifact.machine_fingerprint,
            "suite": suite.name,
            "predictions": [
                {
                    "block": block.name,
                    "ipc": prediction.ipc,
                    "supported_fraction": prediction.supported_fraction,
                }
                for block, prediction in zip(suite, predictions)
            ],
        },
        args.json,
    )
    return 0


def run_evaluate(args: argparse.Namespace) -> int:
    from repro import PortModelBackend
    from repro.artifacts import ArtifactError, ArtifactNotFoundError, ArtifactRegistry
    from repro.evaluation import evaluate_predictors, format_accuracy_table
    from repro.measure import MeasurementCache, backend_fingerprint
    from repro.measure.fingerprint import machine_fingerprint
    from repro.predictors import PalmedPredictor

    machine = build_machine_from_args(args)
    backend = PortModelBackend(machine)

    fingerprint = machine_fingerprint(machine)
    try:
        artifact = _load_artifact(args, machine)
        mapping = artifact.mapping
        source = f"saved artifact {artifact.machine_fingerprint[:16]}…"
    except ArtifactNotFoundError:
        # No exported artifact — fall back to the finalize-stage checkpoint
        # left behind by a (possibly resumed) characterization, so the
        # harness consumes the pipeline's own checkpoints instead of
        # requiring a re-run.
        from repro.pipeline import load_final_outcome

        registry = ArtifactRegistry(args.artifacts)
        final = load_final_outcome(registry, backend_fingerprint(backend))
        if final is None:
            print(
                f"error: no mapping artifact and no finalize-stage checkpoint "
                f"for machine {machine.name!r} under {args.artifacts} — run "
                f"the characterization first (python -m repro characterize)",
                file=sys.stderr,
            )
            return 1
        mapping = final.mapping
        source = "finalize-stage checkpoint"
    except ArtifactError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    suite = build_suite_from_args(args, machine)
    cache = MeasurementCache(args.cache) if args.cache else None
    evaluation = evaluate_predictors(
        backend,
        suite,
        [PalmedPredictor(mapping)],
        machine_name=machine.name,
        cache=cache,
    )
    print(f"Fig. 4b metrics from {source} (no inference re-run)")
    print(format_accuracy_table([evaluation]))

    write_json(
        {
            "machine": machine.name,
            "machine_fingerprint": fingerprint,
            "suite": suite.name,
            "metrics": {
                metrics.tool: metrics.as_row() for metrics in evaluation.all_metrics()
            },
        },
        args.json,
    )
    return 0


def register(subparsers) -> None:
    """Attach the ``predict`` and ``evaluate`` subcommands."""
    predict = subparsers.add_parser(
        "predict",
        help="serve batched predictions from a saved mapping artifact",
    )
    add_machine_arguments(predict)
    add_suite_arguments(predict)
    predict.add_argument(
        "--artifacts", metavar="DIR", required=True, help="registry directory"
    )
    predict.add_argument(
        "--limit",
        type=int,
        default=10,
        help="number of per-block predictions to print (default: 10)",
    )
    predict.add_argument("--json", metavar="PATH", default=None)
    predict.set_defaults(handler=run_predict)

    evaluate = subparsers.add_parser(
        "evaluate",
        help="reproduce the Fig. 4b metrics from a saved mapping artifact",
    )
    add_machine_arguments(evaluate)
    add_suite_arguments(evaluate)
    evaluate.add_argument(
        "--artifacts", metavar="DIR", required=True, help="registry directory"
    )
    evaluate.add_argument(
        "--cache",
        metavar="PATH",
        default=None,
        help="persistent measurement-cache file for the native IPCs",
    )
    evaluate.add_argument("--json", metavar="PATH", default=None)
    evaluate.set_defaults(handler=run_evaluate)
