#!/usr/bin/env python3
"""Characterize once, predict forever: artifacts + vectorized batch serving.

This walks the full serving workflow documented in ``docs/serving.md``:

1. run the PALMED inference on the toy machine of Fig. 1 ("characterize");
2. save the inferred mapping as a versioned artifact keyed by the machine's
   content fingerprint (:mod:`repro.artifacts`);
3. reload the artifact as a *fresh process* would — by fingerprint, with no
   access to the original ``PalmedResult``;
4. serve batched throughput predictions for a 500-block synthetic suite
   through the vectorized engine, and check them against the scalar path
   (they are bitwise-identical, not just close);
5. time scalar vs batched serving on this machine.

Run with:  python examples/batch_prediction.py
"""

from __future__ import annotations

import tempfile
import time

from repro import Palmed, PortModelBackend, build_toy_machine
from repro.artifacts import ArtifactRegistry, MappingArtifact
from repro.palmed import PalmedConfig
from repro.predictors import PalmedPredictor
from repro.predictors.batch import SuiteMatrix
from repro.workloads import generate_spec_like_suite


def main() -> None:
    # 1. Characterize: the expensive step (hours on real hardware, Table II).
    machine = build_toy_machine()
    backend = PortModelBackend(machine)
    palmed = Palmed(
        backend, machine.benchmarkable_instructions(), PalmedConfig().for_fast_tests()
    )
    result = palmed.run()
    print(f"characterized {machine.name}: "
          f"{result.stats.num_instructions_mapped} instructions mapped, "
          f"{result.stats.num_resources} resources")

    # 2. Persist the mapping, keyed by the machine's content fingerprint.
    #    The registry lives in a temporary directory removed on exit.
    with tempfile.TemporaryDirectory(prefix="palmed-artifacts-") as registry_dir:
        registry = ArtifactRegistry(registry_dir)
        path = registry.save(MappingArtifact.from_result(result, machine))
        print(f"artifact saved to {path}")

        # 3. Reload as a fresh process would: a new registry handle, lookup
        #    by the machine's *current* fingerprint.  A changed machine
        #    model would change the fingerprint and refuse the stale artifact.
        artifact = ArtifactRegistry(registry_dir).load_for_machine(machine)
    predictor = PalmedPredictor(artifact.mapping)
    print(f"loaded mapping for {artifact.machine_name} "
          f"(fingerprint {artifact.machine_fingerprint[:16]}…)")

    # 4. Serve a whole suite: lower it once, predict it in one batch.
    suite = generate_spec_like_suite(machine.instructions, n_blocks=500, seed=0)
    lowered = SuiteMatrix([block.kernel for block in suite])
    predictions = predictor.predict_batch(lowered)

    scalar = [predictor.predict(block.kernel) for block in suite]
    assert predictions == scalar, "batch serving must be bitwise-identical"
    processed = [p for p in predictions if p.ipc is not None]
    print(f"served {len(predictions)} blocks "
          f"({len(processed)} processed, mean predicted IPC "
          f"{sum(p.ipc for p in processed) / len(processed):.3f}); "
          f"bitwise-equal to the scalar loop")

    # 5. Scalar vs vectorized serving throughput on this machine.
    start = time.perf_counter()
    for block in suite:
        predictor.predict(block.kernel)
    scalar_time = time.perf_counter() - start
    start = time.perf_counter()
    predictor.predict_batch(lowered)
    batch_time = time.perf_counter() - start
    print(f"scalar loop {scalar_time * 1e3:.1f} ms, "
          f"lowered batch {batch_time * 1e3:.1f} ms "
          f"({scalar_time / batch_time:.1f}x) — see "
          f"benchmarks/bench_predict_throughput.py for the asserted numbers")


if __name__ == "__main__":
    main()
