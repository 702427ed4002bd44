"""Per-stage delta compilation: artifact keys, reuse, stats isolation."""

from __future__ import annotations

import json

import pytest

from repro.cache import (
    CACHE_VERSION,
    ScheduleCache,
    artifact_key,
    schedule_cache_key,
)
from repro.cache.store import routing_to_entry
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.errors import SchedulingError
from repro.experiments import standard_setup
from repro.tfg.graph import build_tfg
from repro.topology import binary_hypercube

CONFIG = CompilerConfig(seed=0, max_paths=16, max_restarts=2, retries=1)


def diamond_setup(cube3, b_size=1280.0, bandwidth=64.0):
    """The `small_setup` diamond, with message ``b``'s size a knob."""
    tfg = build_tfg(
        "diamond",
        [("s", 400), ("m1", 400), ("m2", 400), ("t", 400)],
        [
            ("a", "s", "m1", 640),
            ("b", "s", "m2", b_size),
            ("c", "m1", "t", 640),
            ("d", "m2", "t", 1280),
        ],
    )
    return standard_setup(tfg, cube3, bandwidth=bandwidth)


def compile_with(setup, cache, load=0.5, config=CONFIG):
    return compile_schedule(
        setup.timing,
        setup.topology,
        setup.allocation,
        setup.tau_in_for_load(load),
        config,
        cache=cache,
    )


def stripped_entry(routing):
    """Canonical entry minus solver tallies (delta runs solve fewer LPs)."""
    entry = routing_to_entry(routing)
    entry.pop("solver_stats", None)
    return entry


class TestArtifactStore:
    def test_roundtrip(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        key = artifact_key("demo", {"input": 1})
        assert cache.fetch_artifact(key, "demo") is None
        cache.store_artifact(key, "demo", {"value": [1, 2, 3]})
        assert cache.fetch_artifact(key, "demo") == {"value": [1, 2, 3]}
        # Survives a fresh cache object over the same directory.
        assert ScheduleCache(tmp_path).fetch_artifact(key, "demo") == {
            "value": [1, 2, 3]
        }

    def test_stage_mismatch_misses(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        key = artifact_key("demo", {"input": 1})
        cache.store_artifact(key, "demo", {"value": 1})
        assert cache.fetch_artifact(key, "other") is None

    def test_counters_are_per_stage_only(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        key = artifact_key("demo", {"input": 1})
        cache.fetch_artifact(key, "demo")
        cache.store_artifact(key, "demo", {"value": 1})
        cache.fetch_artifact(key, "demo")
        stats = cache.stats.as_dict()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["stores"] == 0
        assert stats["stages"]["demo"] == {
            "hits": 1, "misses": 1, "stores": 1,
        }

    def test_contains_probes_without_counting(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        key = artifact_key("demo", {"input": 1})
        assert not cache.contains(key)
        cache.store_artifact(key, "demo", {"value": 1})
        assert cache.contains(key)
        assert ScheduleCache(tmp_path).contains(key)  # disk tier
        stats = cache.stats.as_dict()
        assert stats["hits"] == 0 and stats["misses"] == 0


class TestDeltaCompile:
    def test_cold_compile_stores_stage_artifacts(self, cube3, tmp_path):
        cache = ScheduleCache(tmp_path)
        compile_with(diamond_setup(cube3), cache)
        stats = cache.stats.as_dict()
        # Artifact traffic never skews the monolithic counters.
        assert stats["misses"] == 1 and stats["stores"] == 1
        stages = stats["stages"]
        assert stages["assign-paths"]["stores"] == 1
        assert stages["allocate+schedule"]["stores"] == 4
        assert stages["build-schedule"]["stores"] == 1

    def test_full_prefix_replay_after_monolithic_loss(self, cube3, tmp_path):
        setup = diamond_setup(cube3)
        fresh = compile_with(setup, ScheduleCache(tmp_path))
        # Drop only the monolithic entry; every stage artifact survives.
        entry_path = next(
            p for p in tmp_path.rglob("*.json")
            if json.loads(p.read_text())["kind"] == "schedule"
        )
        entry_path.unlink()
        reopened = ScheduleCache(tmp_path)
        warm = compile_with(setup, reopened)
        stats = reopened.stats.as_dict()
        assert stats["hits"] == 0 and stats["misses"] == 1
        stages = stats["stages"]
        for name in ("assign-paths", "allocate+schedule", "build-schedule"):
            assert stages[name]["misses"] == 0, name
        assert stages["allocate+schedule"]["hits"] == 4
        assert stages["build-schedule"]["hits"] == 1
        assert warm.schedule == fresh.schedule

    def test_partial_reuse_on_size_perturbation(self, cube3, tmp_path):
        compile_with(diamond_setup(cube3), ScheduleCache(tmp_path))
        perturbed = diamond_setup(cube3, b_size=640.0)
        delta_cache = ScheduleCache(tmp_path)
        delta = compile_with(perturbed, delta_cache)
        stages = delta_cache.stats.as_dict()["stages"]
        # Only the subset containing the perturbed message re-runs.
        assert stages["allocate+schedule"]["hits"] == 3
        assert stages["allocate+schedule"]["misses"] == 1
        cold = compile_with(
            perturbed, ScheduleCache(tmp_path / "cold")
        )
        assert stripped_entry(delta) == stripped_entry(cold)

    def test_negative_subset_artifact_replays_failure(self, tmp_path):
        from repro.mapping import sequential_allocation
        from repro.tfg.synth import chain_tfg

        setup = standard_setup(
            chain_tfg(4, ops=400.0, size_bytes=1280.0),
            binary_hypercube(3),
            bandwidth=64.0,
            allocator=sequential_allocation,
        )
        with pytest.raises(SchedulingError) as first:
            compile_with(setup, ScheduleCache(tmp_path))
        # Drop the monolithic negative entry; the stored per-stage
        # failure artifact must replay the identical error.
        entry_path = next(
            p for p in tmp_path.rglob("*.json")
            if json.loads(p.read_text())["kind"] == "failure"
        )
        entry_path.unlink()
        reopened = ScheduleCache(tmp_path)
        with pytest.raises(SchedulingError) as second:
            compile_with(setup, reopened)
        assert type(second.value) is type(first.value)
        assert str(second.value) == str(first.value)
        assert second.value.stage == first.value.stage

    def test_delta_disabled_without_cache(self, cube3):
        # No cache, no delta state: compilation still works unchanged.
        routing = compile_with(diamond_setup(cube3), None)
        assert routing.schedule is not None


class TestPerfKnobKeyIdentity:
    def test_key_unchanged_by_knob_removal(self, cube3):
        # The literal key of this instance before the perf-only solver
        # knobs were deleted: the knobs were never hashed, so dropping
        # them from CompilerConfig must not move any cache key.
        pytest.importorskip("scipy")
        setup = diamond_setup(cube3)
        key = schedule_cache_key(
            setup.timing,
            setup.topology,
            setup.allocation,
            setup.tau_in_for_load(0.5),
            CONFIG,
        )
        assert key == (
            "1ddef24f04bb6dc6abbdcafc6751db6f15998fed882eb9a08ba8082e07d14da2"
        )

    def test_cache_version_bumped(self):
        assert CACHE_VERSION == "repro.cache/2"
