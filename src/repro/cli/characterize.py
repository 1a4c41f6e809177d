"""``characterize`` and ``fleet``: run the PALMED inference into a registry.

Also home of the legacy flag-only parser (``python -m repro`` without a
subcommand runs one characterization, as it always has).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.cli.common import (
    add_machine_arguments,
    build_machine_from_args,
    non_negative_int,
    positive_int,
    write_json,
)
from repro.machines import available_machines

#: ``--fast`` help, shared by ``characterize`` and ``fleet``.
FAST_HELP = (
    "use the cheap test configuration (smaller LPs, tighter caps); LP1 is "
    "proven optimal and LPAUX exact, but beyond the toy machine LP2 can "
    "stop at its 60 s limit, and the mapping then depends on host speed"
)


def add_characterize_arguments(parser: argparse.ArgumentParser) -> None:
    """The characterization flags shared by the legacy CLI and ``characterize``."""
    parser.add_argument(
        "--cache",
        metavar="PATH",
        default=None,
        help="persistent measurement-cache file (default: no persistence)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="DB",
        default=None,
        help="record traced spans and metrics into this sqlite warehouse "
        "(query with 'python -m repro stats --db DB'); results are "
        "bitwise-identical with or without it",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the run statistics as JSON to this file ('-' for stdout)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help=FAST_HELP,
    )
    parser.add_argument(
        "--show-mapping",
        action="store_true",
        help="also print the inferred instruction -> resource usage table",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="serve stages from matching checkpoints in the --artifacts "
        "registry instead of re-running them (requires --artifacts)",
    )
    parser.add_argument(
        "--force-stage",
        metavar="STAGE",
        action="append",
        default=[],
        help="re-run this stage even when a matching checkpoint exists "
        "(repeatable; downstream checkpoints stay valid when the re-run "
        "reproduces the same output)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the per-stage checkpoint hit/miss and timing table",
    )


def build_legacy_parser() -> argparse.ArgumentParser:
    """The legacy (no-subcommand) parser: one characterization run."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the PALMED pipeline on a bundled machine model.",
        epilog="subcommands: characterize | predict | evaluate | fleet | "
        "serve | artifacts — run 'python -m repro <subcommand> --help' for "
        "the artifact-serving workflow (without a subcommand, a plain "
        "characterization runs)",
    )
    add_machine_arguments(parser)
    add_characterize_arguments(parser)
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="mapping-artifact registry directory; saves the inferred "
        "mapping keyed by the machine fingerprint",
    )
    return parser


def run_characterize(args: argparse.Namespace) -> int:
    """Shared implementation of the legacy CLI and ``characterize``."""
    from repro import PortModelBackend
    from repro.palmed import Palmed, PalmedConfig

    config = PalmedConfig().for_fast_tests() if args.fast else PalmedConfig()
    config = dataclasses.replace(
        config,
        cache_path=args.cache,
        telemetry=getattr(args, "telemetry", None),
    )

    registry = None
    if args.artifacts is not None:
        from repro.artifacts import ArtifactRegistry

        registry = ArtifactRegistry(args.artifacts)
    if (args.resume or args.force_stage) and registry is None:
        print(
            "error: --resume/--force-stage need a checkpoint registry; "
            "pass --artifacts DIR",
            file=sys.stderr,
        )
        return 2

    machine = build_machine_from_args(args)
    backend = PortModelBackend(machine)
    palmed = Palmed(
        backend,
        machine.benchmarkable_instructions(),
        config,
        registry=registry,
        resume=args.resume,
        force_stages=args.force_stage,
    )
    result = palmed.run()

    if args.explain:
        print(palmed.explain())
        print()
    print(result.stats.format_table())
    if args.show_mapping:
        print()
        print(result.mapping.table())

    if registry is not None:
        path = registry.save_result(result, machine)
        print(f"\nMapping artifact saved to {path}")

    write_json(
        {
            "stats": dataclasses.asdict(result.stats),
            "config": dataclasses.asdict(config),
            "mapping": result.mapping.to_dict(),
        },
        args.json,
    )
    return 0


def run_fleet(args: argparse.Namespace) -> int:
    """Characterize several machines concurrently into one registry."""
    from repro.palmed import PalmedConfig
    from repro.pipeline import FleetMachine, FleetRunner

    config = PalmedConfig().for_fast_tests() if args.fast else PalmedConfig()
    specs = [
        FleetMachine(machine=name.strip(), isa_size=args.isa_size, seed=args.seed)
        for name in args.machines.split(",")
        if name.strip()
    ]
    if not specs:
        print("error: --machines needs at least one machine name", file=sys.stderr)
        return 2
    unknown = [spec.machine for spec in specs if spec.machine not in available_machines()]
    if unknown:
        print(
            f"error: unknown machine(s) {', '.join(unknown)}; available: "
            f"{', '.join(sorted(available_machines()))}",
            file=sys.stderr,
        )
        return 2

    runner = FleetRunner(
        args.artifacts, config, workers=args.workers, resume=not args.no_resume
    )
    outcomes = runner.characterize(specs)
    print(
        f"Characterized {len(outcomes)} machine(s) with {args.workers or 1} "
        f"worker(s) into {args.artifacts}"
    )
    print(FleetRunner.format_table(outcomes))

    write_json(
        {
            "machines": [
                {
                    "machine": outcome.machine_name,
                    "fingerprint": outcome.machine_fingerprint,
                    "artifact": outcome.artifact_path,
                    "checkpoint_hits": outcome.checkpoint_hits,
                    "stats": outcome.stats.to_dict(),
                }
                for outcome in outcomes
            ],
        },
        args.json,
    )
    return 0


def register(subparsers) -> None:
    """Attach the ``characterize`` and ``fleet`` subcommands."""
    characterize = subparsers.add_parser(
        "characterize",
        help="run the PALMED inference and save the mapping artifact",
    )
    add_machine_arguments(characterize)
    add_characterize_arguments(characterize)
    characterize.add_argument(
        "--artifacts",
        metavar="DIR",
        required=True,
        help="mapping-artifact registry directory to save into",
    )
    characterize.set_defaults(handler=run_characterize)

    fleet = subparsers.add_parser(
        "fleet",
        help="characterize several machines concurrently into one registry",
    )
    fleet.add_argument(
        "--machines",
        required=True,
        help="comma-separated machine names (e.g. 'toy,skl,zen')",
    )
    fleet.add_argument(
        "--isa-size",
        type=positive_int,
        default=48,
        help="synthetic ISA size for the non-toy machines (default: 48)",
    )
    fleet.add_argument(
        "--seed", type=int, default=0, help="ISA generation seed (default: 0)"
    )
    fleet.add_argument(
        "--workers",
        type=non_negative_int,
        default=0,
        help="machine-level worker processes (0 = sequential, the default)",
    )
    fleet.add_argument(
        "--artifacts", metavar="DIR", required=True, help="registry directory"
    )
    fleet.add_argument(
        "--fast",
        action="store_true",
        help=FAST_HELP,
    )
    fleet.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore existing stage checkpoints (default: resume from them)",
    )
    fleet.add_argument("--json", metavar="PATH", default=None)
    fleet.set_defaults(handler=run_fleet)
