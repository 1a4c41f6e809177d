"""Tests for the persistent measurement cache (:mod:`repro.measure`).

Covers hit/miss accounting, on-disk persistence across cache instances,
content-fingerprint invalidation (machine model and noise seed changes),
bitwise-exact round-tripping through JSON, and graceful handling of corrupt
stores.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    MeasurementCache,
    MeasurementNoise,
    Microkernel,
    PortModelBackend,
    build_toy_machine,
    build_zen_like_machine,
)
from repro.measure import backend_fingerprint, kernel_key, machine_fingerprint
from repro.palmed import PalmedConfig
from repro.palmed.benchmarks import BenchmarkRunner


@pytest.fixture
def kernel(toy_instructions):
    return Microkernel({toy_instructions["ADDSS"]: 2, toy_instructions["BSR"]: 1})


class TestAccounting:
    def test_miss_then_hit(self, kernel):
        cache = MeasurementCache()
        assert cache.lookup("fp", kernel) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.store("fp", kernel, 1.5)
        assert cache.lookup("fp", kernel) == 1.5
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_hit_rate_without_lookups_is_zero(self):
        assert MeasurementCache().hit_rate == 0.0

    def test_len_counts_entries_across_fingerprints(self, kernel, toy_instructions):
        cache = MeasurementCache()
        other = Microkernel.single(toy_instructions["BSR"])
        cache.store("fp-a", kernel, 1.0)
        cache.store("fp-a", other, 2.0)
        cache.store("fp-b", kernel, 3.0)
        assert len(cache) == 3
        assert ("fp-a", kernel) in cache
        assert ("fp-b", other) not in cache

    def test_reset_counters_keeps_entries(self, kernel):
        cache = MeasurementCache()
        cache.store("fp", kernel, 1.0)
        cache.lookup("fp", kernel)
        cache.reset_counters()
        assert (cache.hits, cache.misses) == (0, 0)
        assert len(cache) == 1

    def test_summary_mentions_hit_rate(self, kernel):
        cache = MeasurementCache()
        cache.store("fp", kernel, 1.0)
        cache.lookup("fp", kernel)
        assert "hit rate 100.0%" in cache.summary()


class TestPersistence:
    def test_round_trip_across_instances(self, tmp_path, kernel):
        path = tmp_path / "cache.json"
        first = MeasurementCache(path)
        value = 2.0 / 3.0  # not exactly representable in decimal
        first.store("fp", kernel, value)
        first.save()

        second = MeasurementCache(path)
        loaded = second.lookup("fp", kernel)
        assert loaded == value  # bitwise identical through JSON

    def test_save_without_path_is_noop(self, kernel):
        cache = MeasurementCache()
        cache.store("fp", kernel, 1.0)
        cache.save()  # must not raise

    def test_missing_file_starts_empty(self, tmp_path):
        cache = MeasurementCache(tmp_path / "absent.json")
        assert len(cache) == 0

    def test_corrupt_file_warns_and_starts_empty(self, tmp_path, kernel):
        path = tmp_path / "cache.json"
        path.write_text("{ not json", encoding="utf-8")
        with pytest.warns(UserWarning, match="unreadable measurement cache"):
            cache = MeasurementCache(path)
        assert len(cache) == 0
        # And the cache stays usable (and can overwrite the bad file).
        cache.store("fp", kernel, 1.0)
        cache.save()
        assert MeasurementCache(path).lookup("fp", kernel) == 1.0

    def test_unknown_version_is_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 999, "entries": {}}), encoding="utf-8")
        with pytest.warns(UserWarning, match="unreadable measurement cache"):
            cache = MeasurementCache(path)
        assert len(cache) == 0

    def test_concurrent_writers_merge_instead_of_clobbering(self, tmp_path, kernel, toy_instructions):
        # Two cache instances share one path (two concurrent runs): the
        # second save must not wipe what the first one persisted.
        path = tmp_path / "cache.json"
        other = Microkernel.single(toy_instructions["BSR"])
        writer_a = MeasurementCache(path)
        writer_b = MeasurementCache(path)  # opened before A saved anything
        writer_a.store("fp", kernel, 1.0)
        writer_a.save()
        writer_b.store("fp", other, 2.0)
        writer_b.save()

        merged = MeasurementCache(path)
        assert merged.lookup("fp", kernel) == 1.0
        assert merged.lookup("fp", other) == 2.0

    def test_save_creates_parent_directories(self, tmp_path, kernel):
        path = tmp_path / "nested" / "dir" / "cache.json"
        cache = MeasurementCache(path)
        cache.store("fp", kernel, 1.0)
        cache.save()
        assert path.exists()


class TestFingerprints:
    def test_kernel_key_distinguishes_multiplicities(self, toy_instructions):
        addss = toy_instructions["ADDSS"]
        bsr = toy_instructions["BSR"]
        one = Microkernel({addss: 1, bsr: 1})
        two = Microkernel({addss: 2, bsr: 1})
        assert kernel_key(one) != kernel_key(two)
        assert kernel_key(two) == kernel_key(Microkernel({bsr: 1, addss: 2}))

    def test_machine_change_invalidates(self, toy_machine):
        zen = build_zen_like_machine()
        assert machine_fingerprint(toy_machine) != machine_fingerprint(zen)
        assert (
            backend_fingerprint(PortModelBackend(toy_machine))
            != backend_fingerprint(PortModelBackend(zen))
        )

    def test_noise_seed_change_invalidates(self, toy_machine):
        noisy_a = PortModelBackend(toy_machine, noise=MeasurementNoise(0.02, seed=0))
        noisy_b = PortModelBackend(toy_machine, noise=MeasurementNoise(0.02, seed=1))
        assert backend_fingerprint(noisy_a) != backend_fingerprint(noisy_b)

    def test_front_end_view_changes_fingerprint(self, toy_machine):
        with_fe = PortModelBackend(toy_machine, include_front_end=True)
        without_fe = PortModelBackend(toy_machine, include_front_end=False)
        assert backend_fingerprint(with_fe) != backend_fingerprint(without_fe)

    def test_fingerprint_is_stable_across_instances(self, toy_machine):
        a = PortModelBackend(toy_machine)
        b = PortModelBackend(build_toy_machine())
        assert backend_fingerprint(a) == backend_fingerprint(b)

    def test_backend_without_fingerprint_yields_none(self):
        class Anonymous:
            pass

        assert backend_fingerprint(Anonymous()) is None


class TestRunnerIntegration:
    """The cache as used by :class:`BenchmarkRunner` across runs."""

    def test_warm_runner_serves_from_cache(self, toy_machine, kernel, tmp_path):
        path = tmp_path / "cache.json"
        config = PalmedConfig(cache_path=str(path))

        cold = BenchmarkRunner(PortModelBackend(toy_machine), config)
        cold_value = cold.ipc(kernel)
        assert cold.num_benchmarks_measured == 1
        assert cold.num_benchmarks_cached == 0
        cold.flush_cache()

        warm_backend = PortModelBackend(toy_machine)
        warm = BenchmarkRunner(warm_backend, config)
        assert warm.ipc(kernel) == cold_value
        assert warm.num_benchmarks_measured == 0
        assert warm.num_benchmarks_cached == 1
        # The backend itself was never consulted.
        assert warm_backend.measurement_count == 0

    def test_changed_noise_seed_misses(self, toy_machine, kernel, tmp_path):
        path = tmp_path / "cache.json"
        config = PalmedConfig(cache_path=str(path))
        noise_a = MeasurementNoise(relative_stddev=0.02, seed=0)
        noise_b = MeasurementNoise(relative_stddev=0.02, seed=1)

        first = BenchmarkRunner(PortModelBackend(toy_machine, noise=noise_a), config)
        first.ipc(kernel)
        first.flush_cache()

        second_backend = PortModelBackend(toy_machine, noise=noise_b)
        second = BenchmarkRunner(second_backend, config)
        second.ipc(kernel)
        assert second.num_benchmarks_measured == 1
        assert second.num_benchmarks_cached == 0
        assert second_backend.measurement_count == 1

    def test_changed_machine_misses(self, toy_machine, kernel, tmp_path):
        path = tmp_path / "cache.json"
        config = PalmedConfig(cache_path=str(path))
        first = BenchmarkRunner(PortModelBackend(toy_machine), config)
        first.ipc(kernel)
        first.flush_cache()

        zen = build_zen_like_machine()
        zen_kernel = Microkernel.single(zen.benchmarkable_instructions()[0])
        second = BenchmarkRunner(PortModelBackend(zen), config)
        second.ipc(zen_kernel)
        assert second.num_benchmarks_cached == 0
        assert second.num_benchmarks_measured == 1
