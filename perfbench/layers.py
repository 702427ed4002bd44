"""Calls into each layer, timed and counted from outside the program.

A :class:`Probe` is what every workload calls instead of the layer
functions themselves.  Untraced, it calls straight through.  Traced, it
times each call with its own clock and reads the work counts the layer
already reports: a :class:`~repro.trace.profile.CompileProfiler` for
the compiler stages, ``extra["solver_stats"]`` for the LP engine, the
run results of the simulators, and :class:`TimedCache` for the
schedule cache.  Nothing inside ``src/`` is changed to make this
possible.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Mapping

from repro.cache import ScheduleCache
from repro.cache.store import error_to_entry, routing_to_entry
from repro.check import analyze_schedule
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.core.pipeline import verdict_code
from repro.errors import SchedulingError
from repro.results import RunConfig
from repro.trace.profile import CompileProfiler
from repro.wormhole.simulator import WormholeSimulator

from arith import self_ms

#: The compiler settings of the paper-figure benchmarks.  The seed stays
#: 0 so schedules, and the digests pinned in ``expected.json``, stay put.
COMPILER = CompilerConfig(seed=0, max_paths=48, max_restarts=4, retries=2)

#: Invocations simulated per WR run and per SR replay (Figs. 7-10).
INVOCATIONS = 48
WARMUP = 12

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = {
    "core.compile.ms": "ms",
    "core.compile.calls": "count",
    "core.compile.self_ms": "ms",
    "core.timebounds.ms": "ms",
    "core.assign_paths.ms": "ms",
    "core.assign_paths.attempts": "count",
    "core.subsets.ms": "ms",
    "core.subsets.count": "count",
    "core.interval.ms": "ms",
    "core.interval.max_subset_ms": "ms",
    "core.switching.ms": "ms",
    "core.switching.commands": "count",
    "solvers.lp_solves": "count",
    "solvers.lp_batches": "count",
    "solvers.lp_iterations": "count",
    "solvers.lp_ms": "ms",
    "solvers.lp_failures": "count",
    "check.analyzer.ms": "ms",
    "check.analyzer.findings": "count",
    "core.executor.calls": "count",
    "core.executor.ms": "ms",
    "core.executor.invocations": "count",
    "core.executor.flights": "count",
    "core.executor.us_per_flight": "us",
    "wormhole.ms": "ms",
    "wormhole.invocations": "count",
    "wormhole.recoveries": "count",
    "wormhole.us_per_invocation": "us",
    "cache.fetch.calls": "count",
    "cache.fetch.hits": "count",
    "cache.fetch.ms": "ms",
    "cache.store.calls": "count",
    "cache.store.ms": "ms",
    "cache.artifact_fetch.calls": "count",
    "cache.artifact_fetch.hits": "count",
    "cache.artifact_fetch.ms": "ms",
    "cache.artifact_store.calls": "count",
    "cache.artifact_store.ms": "ms",
    "cache.artifact_hit_ratio": "ratio",
    "cache.bytes_written": "B",
    "serve.fast_hits": "count",
    "serve.dispatched": "count",
    "serve.coalesced": "count",
    "serve.rejected": "count",
    "serve.failed": "count",
    "serve.http_4xx": "count",
    "serve.http_5xx": "count",
    "serve.hit_p50_ms": "ms",
    "serve.hit_p99_ms": "ms",
    "serve.refuted_p50_ms": "ms",
    "serve.cold_p50_ms": "ms",
    "serve.cold_p90_ms": "ms",
    "serve.worker_compile_ms": "ms",
    "pool.dispatch_overhead_ms": "ms",
    "serve.generator_lag_max_ms": "ms",
    "serve.generator_lag_p99_ms": "ms",
    "serve.hit_samples": "count",
    "serve.refuted_samples": "count",
    "serve.cold_samples": "count",
    "bench.timed_passes": "count",
    "bench.traced_passes": "count",
    "trace.overhead_pct": "%",
}

#: Cache-call tallies, each with ``.calls``/``.ms`` (and ``.hits``).
CACHE_CALLS = (
    "cache.fetch", "cache.store", "cache.artifact_fetch",
    "cache.artifact_store",
)


def outcome_entry(routing, error: SchedulingError | None) -> dict[str, Any]:
    """A compile outcome as the cache serializes it, minus telemetry.

    Solver tallies are dropped: a delta recompile solves fewer LPs than
    a cold one for the same schedule, and wall times never repeat.
    """
    if error is not None:
        return error_to_entry(error)
    entry = routing_to_entry(routing)
    entry.pop("solver_stats", None)
    return entry


def digest(entry: Mapping[str, Any]) -> str:
    """SHA-256 of an entry's canonical JSON."""
    blob = json.dumps(entry, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def verdict(error: SchedulingError | None) -> str:
    return "OK" if error is None else verdict_code(error)


class TimedCache(ScheduleCache):
    """A schedule cache whose public fetch/store calls are timed."""

    def __init__(self, directory: str | Path, probe: "Probe") -> None:
        super().__init__(directory)
        self._probe = probe

    def _timed(self, name: str, call, *args):
        start = time.perf_counter()
        hit = True
        try:
            result = call(*args)
            hit = result is not None
            return result
        finally:
            # A stored failure is re-raised by fetch: that is a hit too.
            self._probe.count_call(name, time.perf_counter() - start, hit)

    def fetch(self, key, topology=None):
        return self._timed("cache.fetch", super().fetch, key, topology)

    def store(self, key, routing) -> None:
        self._timed("cache.store", super().store, key, routing)

    def store_failure(self, key, error) -> None:
        self._timed("cache.store", super().store_failure, key, error)

    def fetch_artifact(self, key, stage):
        return self._timed(
            "cache.artifact_fetch", super().fetch_artifact, key, stage
        )

    def store_artifact(self, key, stage, payload) -> None:
        self._timed(
            "cache.artifact_store", super().store_artifact, key, stage,
            payload,
        )


class Probe:
    """The benchmark's door into each layer; counts when ``traced``."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.values: dict[str, float] = defaultdict(float)
        #: Compiles the routing itself says a cache answered, traced or not.
        self.cache_served = 0

    # -- accounting ------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.values[name] += value

    def count_call(self, name: str, seconds: float, hit: bool) -> None:
        self.add(f"{name}.calls", 1)
        self.add(f"{name}.ms", seconds * 1000.0)
        if hit:
            self.add(f"{name}.hits", 1)

    def add_profile(self, profile: Mapping[str, Any]) -> None:
        """Stage walls and sizes of one compile profile (its dict form)."""
        for stage in profile.get("stages", ()):
            name, ms = stage["stage"], float(stage["wall_ms"])
            detail = stage.get("detail", {})
            if name.startswith("allocate+schedule"):
                self.add("core.interval.ms", ms)
                self.values["core.interval.max_subset_ms"] = max(
                    self.values["core.interval.max_subset_ms"], ms
                )
            elif name.startswith("assign-paths"):
                self.add("core.assign_paths.ms", ms)
                self.add("core.assign_paths.attempts", 1)
            elif name == "time-bounds":
                self.add("core.timebounds.ms", ms)
            elif name == "maximal-subsets":
                self.add("core.subsets.ms", ms)
                self.add("core.subsets.count", detail.get("subsets", 0))
            elif name == "build-schedule":
                self.add("core.switching.ms", ms)
                self.add("core.switching.commands", detail.get("commands", 0))

    def add_solver_stats(self, stats: Mapping[str, Any] | None) -> None:
        """LP totals one successful compile reports."""
        if stats is None:
            return
        for key, name in (
            ("lp_solves", "solvers.lp_solves"),
            ("lp_batches", "solvers.lp_batches"),
            ("lp_iterations", "solvers.lp_iterations"),
            ("lp_wall_ms", "solvers.lp_ms"),
            ("lp_failures", "solvers.lp_failures"),
        ):
            self.add(name, stats.get(key, 0))

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, derived ones included; 0 if unused."""
        values = dict(self.values)
        for name in PER_LAYER:
            values.setdefault(name, 0.0)
        cache_ms = sum(values[f"{name}.ms"] for name in CACHE_CALLS)
        if values["core.compile.calls"]:
            values["core.compile.self_ms"] = self_ms(
                values["core.compile.ms"], cache_ms
            )
        fetches = values["cache.artifact_fetch.calls"]
        if fetches:
            values["cache.artifact_hit_ratio"] = (
                values["cache.artifact_fetch.hits"] / fetches
            )
        if values["core.executor.flights"]:
            values["core.executor.us_per_flight"] = (
                values["core.executor.ms"] * 1000.0
                / values["core.executor.flights"]
            )
        if values["wormhole.invocations"]:
            values["wormhole.us_per_invocation"] = (
                values["wormhole.ms"] * 1000.0
                / values["wormhole.invocations"]
            )
        return {name: values[name] for name in PER_LAYER}

    # -- layer calls -----------------------------------------------------

    def compile(self, setup, tau_in: float, cache_dir: Path | None = None):
        """``compile_schedule``; returns ``(routing, error)``."""
        cache = None
        if cache_dir is not None:
            cache = (
                TimedCache(cache_dir, self) if self.traced
                else ScheduleCache(cache_dir)
            )
        profiler = CompileProfiler() if self.traced else None
        start = time.perf_counter()
        routing = error = None
        try:
            routing = compile_schedule(
                setup.timing, setup.topology, setup.allocation, tau_in,
                COMPILER, profiler=profiler, cache=cache,
            )
        except SchedulingError as exc:
            error = exc
        if routing is not None and "cache" in routing.extra:
            self.cache_served += 1
        if self.traced:
            self.add("core.compile.calls", 1)
            self.add(
                "core.compile.ms", (time.perf_counter() - start) * 1000.0
            )
            self.add_profile(profiler.profile.to_dict())
            if routing is not None:
                self.add_solver_stats(routing.extra.get("solver_stats"))
        return routing, error

    def analyze(self, setup, routing):
        """The conformance analyzer on a compiled schedule."""
        start = time.perf_counter()
        report = analyze_schedule(
            routing.schedule, setup.topology, timing=setup.timing,
            allocation=setup.allocation,
        )
        if self.traced:
            self.add(
                "check.analyzer.ms", (time.perf_counter() - start) * 1000.0
            )
            self.add("check.analyzer.findings", len(report.findings))
        return report

    def replay(self, setup, routing):
        """SR replay of a compiled schedule (``core.executor``).

        Flights are counted from the schedule (one per slot per
        invocation, as the executor spawns them) rather than with a
        recording tracer, which would slow the replay by more than half
        and inflate the time this layer reports.
        """
        start = time.perf_counter()
        result = ScheduledRoutingExecutor(
            routing, setup.timing, setup.topology, setup.allocation
        ).run(config=RunConfig(invocations=INVOCATIONS, warmup=WARMUP))
        if self.traced:
            self.add(
                "core.executor.ms", (time.perf_counter() - start) * 1000.0
            )
            self.add("core.executor.calls", 1)
            self.add("core.executor.invocations", INVOCATIONS)
            slots = sum(len(s) for s in routing.schedule.slots.values())
            self.add("core.executor.flights", slots * INVOCATIONS)
        return result

    def wormhole(self, setup, tau_in: float):
        """A wormhole-routing simulation at one input period."""
        start = time.perf_counter()
        result = WormholeSimulator(
            setup.timing, setup.topology, setup.allocation
        ).run(tau_in, config=RunConfig(invocations=INVOCATIONS, warmup=WARMUP))
        if self.traced:
            self.add("wormhole.ms", (time.perf_counter() - start) * 1000.0)
            self.add("wormhole.invocations", INVOCATIONS)
            self.add("wormhole.recoveries", result.extra.get("recoveries", 0))
        return result
