"""The three batch workloads: sweep, matrix and delta.

Each is a class with the same small surface, which ``run.py`` drives:

- the constructor builds the inputs (set-up, untimed);
- ``before_pass()`` / ``after_pass(probe)`` run around each timed pass,
  outside the timer;
- ``run_pass(probe)`` is the timed work; it returns one result and one
  wall time per point, and the number of points that failed
  unexpectedly;
- ``rows(results)`` turns a pass's results into comparable rows
  (verdicts, digests), outside the timer;
- ``problems(passes)`` checks every pass's rows and returns what is
  wrong (empty when correct).

Inputs of ``sweep`` and ``matrix`` do not depend on the seed; their
verdict rows and schedule digests are pinned in ``expected.json``.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from pathlib import Path
from typing import Any

from repro.errors import SchedulingError
from repro.experiments.setup import standard_setup
from repro.faults.residual import ResidualTopology
from repro.metrics import load_sweep
from repro.solvers import get_backend
from repro.solvers.base import LPProblemBuilder
from repro.tfg import dvb_tfg
from repro.tfg.graph import TaskFlowGraph
from repro.topology import GeneralizedHypercube, binary_hypercube
from repro.topology.routing import links_on_path

from layers import COMPILER, Probe, digest, outcome_entry, verdict

EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: FIG7b: DVB-5 on the 6-cube at B=128, 11 loads from 0.2 to 1.0.
SWEEP_LOADS = load_sweep(11)
#: The standard feasibility grid's loads.
GRID_LOADS = load_sweep(10)


# ``warm_up_solver``, ``scaled_tfg`` and ``droppable_links`` follow
# ``_warmup``, ``_scaled_tfg`` and ``_droppable_link`` of
# ``benchmarks/bench_delta.py``, widened so the seed can pick the link
# and the factor.  The copy is deliberate: the benchmark stands on
# ``src/`` alone, so editing, porting or deleting the older
# ``benchmarks/`` scripts cannot change its inputs.


def warm_up_solver() -> None:
    """Pay the LP engine's import and probe cost once, before timing."""
    builder = LPProblemBuilder(1)
    builder.set_objective([0], [1.0])
    builder.add_eq_rows([1.0], rows=[0], cols=[0], values=[1.0])
    get_backend().solve(builder.build())


def dvb():
    return dvb_tfg(5)


def grid_topologies():
    return [binary_hypercube(6), GeneralizedHypercube((4, 4, 4))]


def pinned(name: str) -> Any:
    return json.loads(EXPECTED.read_text())[name]


def compile_points(probe: Probe, points):
    """Compile ``(label, setup, load, cache_dir)`` points in order.

    Returns one ``(label, routing, error)`` result and one wall time
    per point, and the number of points that raised something other
    than a scheduling verdict (that exception is the result's error).
    """
    results, walls, failed = [], [], 0
    for label, setup, load, cache_dir in points:
        start = time.perf_counter()
        try:
            routing, error = probe.compile(
                setup, setup.tau_in_for_load(load), cache_dir
            )
        except Exception as exc:  # an operation failure, not an outcome
            failed += 1
            routing, error = None, exc
        walls.append(time.perf_counter() - start)
        results.append((label, routing, error))
    return results, walls, failed


def compile_rows(results) -> list[dict]:
    """Verdict and outcome digest of each compile result."""
    rows = []
    for label, routing, error in results:
        if error is not None and not isinstance(error, SchedulingError):
            rows.append({"point": label, "failure": repr(error)})
        else:
            rows.append({
                "point": label,
                "verdict": verdict(error),
                "digest": digest(outcome_entry(routing, error)),
            })
    return rows


def grid_problems(name: str, passes: list[list[dict]]) -> list[str]:
    """Every pass must equal the pinned rows exactly."""
    expected = pinned(name)
    return [
        f"{name} pass {index}: rows differ from expected.json "
        f"(first difference at {first_difference(rows, expected)})"
        for index, rows in enumerate(passes)
        if rows != expected
    ]


def first_difference(rows: list, expected: list) -> str:
    for got, want in zip(rows, expected):
        if got != want:
            return f"{want.get('point')}: got {got}"
    return f"row count {len(rows)} vs {len(expected)}"


class Workload:
    """Hooks around a timed pass; most workloads need none."""

    def before_pass(self) -> None:
        pass

    def after_pass(self, probe: Probe) -> None:
        pass

    def run_pass(self, probe: Probe):
        return compile_points(probe, self.points)

    def rows(self, results) -> list[dict]:
        return compile_rows(results)


class Sweep(Workload):
    """Figs. 7-10 protocol: WR run, compile, analyzer, SR replay per load."""

    name = "sweep"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.setup = standard_setup(dvb(), binary_hypercube(6), 128.0)
        self.points_per_pass = len(SWEEP_LOADS)

    def run_pass(self, probe: Probe):
        results, walls, failed = [], [], 0
        for load in SWEEP_LOADS:
            result = {"point": f"load={load:.4f}"}
            tau_in = self.setup.tau_in_for_load(load)
            start = time.perf_counter()
            try:
                result["wr"] = probe.wormhole(self.setup, tau_in)
                routing, error = probe.compile(self.setup, tau_in)
                result.update(routing=routing, error=error)
                if routing is not None:
                    result["report"] = probe.analyze(self.setup, routing)
                    result["sr"] = probe.replay(self.setup, routing)
            except Exception as exc:  # an operation failure, not an outcome
                failed += 1
                result["failure"] = repr(exc)
            walls.append(time.perf_counter() - start)
            results.append(result)
        return results, walls, failed

    def rows(self, results) -> list[dict]:
        rows = []
        for result in results:
            row = {"point": result["point"]}
            if "failure" in result:
                row["failure"] = result["failure"]
            else:
                routing, error = result["routing"], result["error"]
                row.update(
                    wr_oi=result["wr"].has_oi(),
                    wr_recoveries=result["wr"].extra.get("recoveries", 0),
                    verdict=verdict(error),
                    digest=digest(outcome_entry(routing, error)),
                )
                if routing is not None:
                    row["findings"] = len(result["report"].findings)
                    row["sr_throughput"] = (
                        result["sr"].throughput_stats().mean
                    )
            rows.append(row)
        return rows

    @staticmethod
    def pin_rows(rows: list[dict]) -> list[dict]:
        keys = ("point", "wr_oi", "wr_recoveries", "verdict", "digest")
        return [{key: row.get(key) for key in keys} for row in rows]

    def problems(self, passes: list[list[dict]]) -> list[str]:
        found = grid_problems(
            self.name, [self.pin_rows(rows) for rows in passes]
        )
        for index, rows in enumerate(passes):
            for row in rows:
                # SR delivers exactly the input rate: normalized
                # throughput 1.0 up to float rounding of the mean.
                if abs(row.get("sr_throughput", 0.0) - 1.0) > 1e-9:
                    found.append(
                        f"sweep pass {index} {row['point']}: SR throughput "
                        f"{row.get('sr_throughput')} is not 1.0"
                    )
                if row.get("findings", 1) != 0:
                    found.append(
                        f"sweep pass {index} {row['point']}: analyzer "
                        f"findings {row.get('findings')}"
                    )
            if not any(row.get("wr_oi") for row in rows):
                found.append(f"sweep pass {index}: WR shows OI at no load")
        return found


class Matrix(Workload):
    """Uncached compiles of the 40-point DVB-5 feasibility grid."""

    name = "matrix"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.points = [
            (f"{topology.name} B={bandwidth:g} load={load:.4f}",
             setup, load, None)
            for topology in grid_topologies()
            for bandwidth in (64.0, 128.0)
            for setup in [standard_setup(dvb(), topology, bandwidth)]
            for load in GRID_LOADS
        ]
        self.points_per_pass = len(self.points)

    def problems(self, passes: list[list[dict]]) -> list[str]:
        return grid_problems(self.name, passes)


def scaled_tfg(tfg: TaskFlowGraph, target: str, factor: float):
    """The same TFG with one message's size scaled by ``factor``."""
    scaled = TaskFlowGraph(tfg.name)
    for task in tfg.tasks:
        scaled.add_task(task.name, task.ops)
    for message in tfg.messages:
        size = message.size_bytes
        if message.name == target:
            size *= factor
        scaled.add_message(message.name, message.src, message.dst, size)
    return scaled


def fill_points(workdir: Path):
    """The B=128 half of the grid, compiled into one artifact cache."""
    return [
        (f"{topology.name} B=128 load={load:.4f}", setup, load, workdir)
        for topology in grid_topologies()
        for setup in [standard_setup(dvb(), topology, 128.0)]
        for load in GRID_LOADS
    ]


def droppable_links(setup) -> list:
    """Links of the topology outside every message's candidate pool."""
    pooled = set()
    for message in setup.timing.tfg.messages:
        src = setup.allocation[message.src]
        dst = setup.allocation[message.dst]
        if src != dst:
            for path in setup.topology.minimal_path_pool(
                src, dst, COMPILER.max_paths
            ):
                pooled.update(links_on_path(path))
    return [link for link in sorted(setup.topology.links)
            if link not in pooled]


def tree_bytes(directory: Path) -> int:
    return sum(
        path.stat().st_size for path in directory.rglob("*") if path.is_file()
    )


class Delta(Workload):
    """Seeded one-element perturbations recompiled over a warm cache.

    The warm cache holds the 20-point B=128 grid; it is filled during
    set-up (``fill``) and restored from its snapshot before each pass,
    so every pass sees the same cache.  Each grid point gets two
    perturbations, both drawn from the seed:

    - a link drop, of a link outside every message's candidate path
      pool: the instance's key changes but no stage input does, so the
      whole stage prefix replays from artifacts;
    - a size scale of the first message by a factor in 0.7-0.8: time
      bounds shift, so path assignment re-runs and only the subsets it
      leaves unchanged replay.

    Keeping each kind to one class of work makes a pass cost about the
    same under every seed; a dropped link on a used path, say, would
    turn a replay into a cold compile.
    """

    name = "delta"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.snapshot = workdir / "delta-warm"
        self.live = workdir / "delta-live"
        rng = random.Random(seed)
        tfg = dvb()
        message = tfg.messages[0].name
        self.points = []
        for topology in grid_topologies():
            links = droppable_links(standard_setup(tfg, topology, 128.0))
            for load in GRID_LOADS:
                link = rng.choice(links)
                factor = round(rng.uniform(0.7, 0.8), 3)
                self.points.append((
                    f"{topology.name} load={load:.4f} drop {link}",
                    standard_setup(
                        tfg, ResidualTopology(topology, [link]), 128.0
                    ),
                    load, self.live,
                ))
                self.points.append((
                    f"{topology.name} load={load:.4f} {message} x{factor}",
                    standard_setup(
                        scaled_tfg(tfg, message, factor), topology, 128.0
                    ),
                    load, self.live,
                ))
        self.points_per_pass = len(self.points)
        self._snapshot_bytes = 0

    def fill(self) -> list[dict]:
        """Compile the warm grid into the snapshot directory."""
        shutil.rmtree(self.snapshot, ignore_errors=True)
        results, _, failed = compile_points(
            Probe(False), fill_points(self.snapshot)
        )
        if failed:
            raise RuntimeError(f"{failed} warm-cache compile(s) failed")
        return compile_rows(results)

    def adopt(self, filled: Path) -> None:
        """Use a warm cache another process filled as the snapshot."""
        shutil.rmtree(self.snapshot, ignore_errors=True)
        shutil.move(str(filled), str(self.snapshot))
        self._snapshot_bytes = tree_bytes(self.snapshot)

    def before_pass(self) -> None:
        shutil.rmtree(self.live, ignore_errors=True)
        shutil.copytree(self.snapshot, self.live)

    def after_pass(self, probe: Probe) -> None:
        if probe.traced:
            probe.add(
                "cache.bytes_written",
                tree_bytes(self.live) - self._snapshot_bytes,
            )

    def problems(self, passes: list[list[dict]]) -> list[str]:
        """Each recompile must equal a cold, uncached compile of it."""
        results, _, failed = compile_points(
            Probe(False),
            [(label, setup, load, None)
             for label, setup, load, _ in self.points],
        )
        cold = compile_rows(results)
        found = []
        if failed:
            found.append(f"delta: {failed} cold reference compile(s) failed")
        for index, rows in enumerate(passes):
            if rows != cold:
                found.append(
                    f"delta pass {index}: recompile differs from a cold "
                    f"compile at {first_difference(rows, cold)}"
                )
        return found
