"""The repository benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload and prints its end-to-end metrics;
``--trace 1`` also times each layer from outside and prints the
per-layer metrics.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the
run writes lives under ``.perfbench-work/`` and is removed at exit.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from arith import TooFewSamples, nearest_rank

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
WORKLOADS = ("sweep", "matrix", "delta", "serve")
#: Workloads whose rows ``expected.json`` pins and ``--record`` rewrites.
RECORDABLE = ("sweep", "matrix")
#: Set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed passes at least, so even a slow sweep has the 20 points a
#: median needs.
MIN_PASSES = 2

#: The end-to-end metrics every run reports, with their units.
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "points_per_s": "1/s",
    "p50_ms": "ms",
}


class InvalidRun(RuntimeError):
    """The run cannot be reported: the load generator fell behind.

    A percentile over too few samples makes a run invalid too
    (``arith.TooFewSamples``).
    """


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="rewrite the workload's rows in expected.json from one "
        "untimed pass and exit, printing no result (sweep, matrix)",
    )
    parser.add_argument(
        "--setup-probe", metavar="DIR", type=Path,
        help=argparse.SUPPRESS,  # internal: one timed set-up, then exit
    )
    args = parser.parse_args(argv)
    if args.record and args.workload not in RECORDABLE:
        parser.error(f"--record is only for {' and '.join(RECORDABLE)}")
    return args


def why(workload: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {
        name: statistics.median(sample[name] for sample in samples)
        for name in samples[0]
    }


# -- batch workloads ---------------------------------------------------------

def batch_class(name: str):
    from batch import Delta, Matrix, Sweep

    return {"sweep": Sweep, "matrix": Matrix, "delta": Delta}[name]


def setup_probe(args) -> int:
    """One set-up in this fresh interpreter (timed by the parent)."""
    from batch import warm_up_solver

    workload = batch_class(args.workload)(args.seed, args.setup_probe)
    warm_up_solver()
    if args.workload == "delta":
        rows = workload.fill()
        (args.setup_probe / "fill.json").write_text(json.dumps(rows))
    return 0


def record(args, workdir: Path) -> int:
    """Rewrite the workload's pinned rows from one untimed pass.

    Only for a change meant to alter schedules.  Nothing is checked
    against the rows just written, so no result is printed.
    """
    from batch import EXPECTED, warm_up_solver
    from layers import Probe

    workload = batch_class(args.workload)(args.seed, workdir)
    warm_up_solver()
    results, _, failed = workload.run_pass(Probe(False))
    if failed:
        print(f"perfbench: {failed} point(s) failed; nothing recorded",
              file=sys.stderr)
        return 1
    rows = workload.rows(results)
    pins = json.loads(EXPECTED.read_text())
    pins[args.workload] = (
        workload.pin_rows(rows) if args.workload == "sweep" else rows
    )
    EXPECTED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"recorded {args.workload} rows in {EXPECTED}")
    return 0


def timed_setups(args, workdir: Path, env: dict) -> tuple[list[float], Path]:
    """Run the set-up in ``SETUP_REPEATS`` fresh interpreters."""
    seconds, probe_dir = [], workdir
    for index in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup-{index}"
        probe_dir.mkdir()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe", str(probe_dir)],
            cwd=ROOT, env=env, check=True, timeout=150,
        )
        seconds.append(time.perf_counter() - start)
    return seconds, probe_dir


def fill_problems(probe_dirs: list[Path]) -> list[str]:
    from batch import pinned

    expected = [r for r in pinned("matrix") if " B=128 " in r["point"]]
    return [
        f"delta warm cache {path.name}: fill differs from expected.json"
        for path in probe_dirs
        if json.loads((path / "fill.json").read_text()) != expected
    ]


def run_batch(args, workdir: Path, env: dict):
    from batch import warm_up_solver
    from layers import Probe

    setup_seconds, last_probe = timed_setups(args, workdir, env)
    workload = batch_class(args.workload)(args.seed, workdir)
    warm_up_solver()
    problems = []
    if args.workload == "delta":
        problems += fill_problems(
            [workdir / f"setup-{i}" for i in range(SETUP_REPEATS)]
        )
        workload.adopt(last_probe / "delta-warm")

    walls = {False: [], True: []}
    layer_samples, passes, point_walls, failed = [], [], [], 0
    cache_served = 0
    kinds = (False, True) if args.trace else (False,)
    while True:
        for traced in kinds:
            probe = Probe(traced)
            workload.before_pass()
            start = time.perf_counter()
            results, pass_point_walls, pass_failed = workload.run_pass(probe)
            walls[traced].append(time.perf_counter() - start)
            workload.after_pass(probe)
            passes.append(workload.rows(results))
            failed += pass_failed
            cache_served += probe.cache_served
            if traced:
                layer_samples.append(probe.metrics())
            else:
                point_walls += pass_point_walls
        spent = sum(walls[False]) + sum(walls[True])
        per_round = sum(statistics.median(walls[k]) for k in kinds)
        enough = len(walls[False]) >= MIN_PASSES
        if enough and spent + 0.5 * per_round >= args.seconds:
            break

    problems += workload.problems(passes)
    if args.workload in ("matrix", "sweep"):
        problems += uncached_problems(args.workload, workdir, cache_served)

    rates = [workload.points_per_pass / wall for wall in walls[False]]
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "points_per_s": statistics.median(rates),
        "p50_ms": nearest_rank(
            [wall * 1000.0 for wall in point_walls], 50
        ),
    }
    print(f"setup runs (s): {[round(s, 3) for s in setup_seconds]}")
    print(
        f"timed passes: {len(walls[False])} x {workload.points_per_pass} "
        f"points, walls (s) {[round(w, 3) for w in walls[False]]}; "
        f"p50_ms over {len(point_walls)} points"
    )
    layers = None
    if args.trace:
        layers = median_metrics(layer_samples)
        layers["bench.timed_passes"] = len(walls[False])
        layers["bench.traced_passes"] = len(walls[True])
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(walls[True]) / statistics.median(walls[False])
            - 1.0
        )
        problems += isolation_problems(args.workload, layers)
    attempted = len(passes) * workload.points_per_pass
    return metrics, layers, problems, attempted, failed


def uncached_problems(workload: str, workdir: Path,
                      cache_served: int) -> list[str]:
    """The program itself shows no schedule cache at work.

    No compile says it came from a cache (``extra["cache"]``), and no
    file appeared under the run's directory, where a cache would have
    to write.
    """
    found = []
    if cache_served:
        found.append(f"{workload}: {cache_served} compile(s) came from a cache")
    written = [path for path in workdir.rglob("*") if path.is_file()]
    if written:
        found.append(f"{workload}: files were written, e.g. {written[0]}")
    return found


def isolation_problems(workload: str, layers: dict[str, float]) -> list[str]:
    """The benchmark's own calls leave the layers alone they should.

    These counts come from the benchmark's wrappers, so they guard its
    wiring (matrix and delta never replay, matrix and sweep never pass
    a cache); ``uncached_problems`` observes the program itself.
    """
    from layers import CACHE_CALLS

    found = []
    if workload in ("matrix", "delta") and layers["core.executor.calls"]:
        found.append(f"{workload}: SR replay ran")
    cache_calls = sum(layers[f"{name}.calls"] for name in CACHE_CALLS)
    if workload in ("matrix", "sweep") and cache_calls:
        found.append(f"{workload}: the schedule cache was called")
    return found


# -- serve -------------------------------------------------------------------

def run_serve(args, workdir: Path, env: dict):
    import farm as serve
    from layers import Probe
    from repro.serve.client import ServeClient

    setup_seconds, running = [], None
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        running, warm = serve.start_warm_farm(
            ROOT, workdir / f"farm-cache-{index}", env
        )
        setup_seconds.append(time.perf_counter() - start)
        if index < SETUP_REPEATS - 1:
            running.stop()
    try:
        with ServeClient("127.0.0.1", running.port) as client:
            before = client.stats()
        interactive, cold = serve.drive(running.port, args.seed, args.seconds)
        with ServeClient("127.0.0.1", running.port) as client:
            after = client.stats()
    finally:
        running.stop()
    records = interactive + cold
    problems, failed = serve.check(records, warm)

    lags = serve.lags(interactive)
    lag_max, lag_p99 = max(lags), nearest_rank(lags, 99)
    print(
        f"generator lag: max {lag_max * 1000:.3f} ms, "
        f"p99 {lag_p99 * 1000:.3f} ms over {len(lags)} sends"
    )
    if lag_max > serve.MAX_LAG_S or lag_p99 > serve.MAX_LAG_P99_S:
        raise InvalidRun("the load generator fell behind its schedule")

    print(f"setup runs (s): {[round(s, 3) for s in setup_seconds]}")
    samples = {
        cls: serve.latencies_ms(records, cls)
        for cls in ("hit", "refuted", "cold")
    }
    percentiles = {}
    for cls, percent in (
        ("hit", 50), ("hit", 99), ("refuted", 50), ("cold", 50), ("cold", 90)
    ):
        name = f"serve.{cls}_p{percent}_ms"
        percentiles[name] = nearest_rank(samples[cls], percent)
        print(
            f"{name:>24} {percentiles[name]:10.3f} ms "
            f"over {len(samples[cls])} samples"
        )
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": serve.farm_peak_rss_mb(),
        "points_per_s": serve.cold_rate(cold),
        "p50_ms": nearest_rank(serve.latencies_ms(interactive), 50),
    }
    layers = None
    if args.trace:
        probe = Probe(True)
        serve.layer_metrics(probe, records, serve.stats_delta(before, after))
        probe.add("serve.generator_lag_max_ms", lag_max * 1000.0)
        probe.add("serve.generator_lag_p99_ms", lag_p99 * 1000.0)
        for cls, values in samples.items():
            probe.add(f"serve.{cls}_samples", len(values))
        for name, value in percentiles.items():
            probe.add(name, value)
        layers = probe.metrics()
    return metrics, layers, problems, len(records), failed


# -- entry point -------------------------------------------------------------

def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK_ROOT.rmdir()  # only once no other run is using it


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(
            f"perfbench: no package source at {SRC}; run from the root of "
            "a repository checkout", file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe is not None:
        return setup_probe(args)

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    if args.record:
        try:
            return record(args, workdir)
        finally:
            remove_workdir(workdir)
    tempfile.tempdir = str(workdir / "tmp")
    env = dict(
        os.environ, PYTHONPATH=str(SRC), TMPDIR=str(workdir / "tmp")
    )
    print(f"workload {args.workload}, seed {args.seed}: {why(args.workload)}")
    try:
        runner = run_serve if args.workload == "serve" else run_batch
        metrics, layers, problems, attempted, failed = runner(
            args, workdir, env
        )
    except (InvalidRun, TooFewSamples) as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        remove_workdir(workdir)

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name:>16} {value:12.4f} {END_TO_END[name]}")
    if layers is not None:
        from layers import PER_LAYER

        for name, value in layers.items():
            print(f"{name:>32} {value:14.4f} {PER_LAYER[name]}")
        reported = {
            name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in layers.items()
        }
    else:
        reported = {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, value in metrics.items()
        }
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": reported,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
