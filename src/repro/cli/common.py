"""Argument groups and helpers shared by every ``python -m repro`` subcommand."""

from __future__ import annotations

import argparse
import json
from typing import Optional

from repro.machines import available_machines


def _int_at_least(minimum: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """``argparse`` type: an integer ``>= 0`` (else a usage error, exit 2)."""
    return _int_at_least(0, text)


def positive_int(text: str) -> int:
    """``argparse`` type: an integer ``>= 1`` (else a usage error, exit 2)."""
    return _int_at_least(1, text)


def add_machine_arguments(parser: argparse.ArgumentParser) -> None:
    """The machine-selection flags shared by every subcommand."""
    parser.add_argument(
        "--machine",
        default="toy",
        choices=sorted(available_machines()),
        help="ground-truth machine model (default: toy)",
    )
    parser.add_argument(
        "--isa-size",
        type=positive_int,
        default=48,
        help="synthetic ISA size for the non-toy machines (default: 48)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="ISA generation seed (default: 0)"
    )


def add_suite_arguments(parser: argparse.ArgumentParser) -> None:
    """The benchmark-suite flags shared by ``predict`` and ``evaluate``."""
    parser.add_argument(
        "--suite",
        default="spec",
        choices=("spec", "polybench"),
        help="synthetic suite family to generate (default: spec)",
    )
    parser.add_argument(
        "--blocks",
        type=positive_int,
        default=200,
        help="number of basic blocks for the spec-like suite (default: 200)",
    )
    parser.add_argument(
        "--suite-seed",
        type=int,
        default=0,
        help="suite generation seed (default: 0)",
    )


def build_machine_from_args(args: argparse.Namespace):
    from repro import build_machine

    return build_machine(args.machine, n_instructions=args.isa_size, seed=args.seed)


def build_suite_from_args(args: argparse.Namespace, machine):
    from repro.workloads import (
        generate_polybench_like_suite,
        generate_spec_like_suite,
    )

    if args.suite == "polybench":
        return generate_polybench_like_suite(machine.instructions, seed=args.suite_seed)
    return generate_spec_like_suite(
        machine.instructions, n_blocks=args.blocks, seed=args.suite_seed
    )


def write_json(payload: object, destination: Optional[str]) -> None:
    """Dump a JSON payload to a file or (with ``"-"``) to stdout."""
    if destination is None:
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
    if destination == "-":
        print(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
