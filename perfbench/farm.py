"""The serve workload: two request streams against a ``repro.cli serve``.

The farm runs in its own process (``--workers 1``, a fresh cache
directory).  The generator drives two streams, one after the other,
each on its own keep-alive connection:

- the interactive stream, open loop on a fixed schedule: memo-hit
  duplicates of a warm set compiled during set-up, admission-refuted
  instances and malformed payloads, in a seeded order;
- the compile stream, closed loop: a fixed number of distinct cold
  DVB instances with seeded loads, each sent as soon as the previous
  one is answered, so each is a new cache key and pays a full
  compilation, and the time they take is set by the farm alone.

The streams take turns because on a 2-core host, running them at once
keeps three processes busy (generator, front end, worker): the
worker's compile then shared a core with the front end's interactive
traffic, and cold throughput moved by a quarter between runs of the
same code.

Both streams are fixed in size, because the farm keeps what it served
(built instances, the worker's memory cache tier): a run that served
more would also report more memory.

Interactive latency is measured from each request's due time
(``arith``).
"""

from __future__ import annotations

import gc
import http.client
import itertools
import random
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.serve.client import ServeClient
from repro.serve.loadgen import (
    DUPLICATE,
    MALFORMED,
    REFUTED,
    build_mix,
    cold_payloads,
    malformed_payloads,
    refuted_payloads,
)

from arith import (
    Sent,
    generator_lag,
    latency_from_due,
    median_block_rate,
    nearest_rank,
)
from layers import Probe

#: Requests per second of the interactive stream.
INTERACTIVE_RATE = 200.0
#: The share of ``--seconds`` the interactive stream is sized for; the
#: compile stream, whose throughput is the noisier figure, gets the
#: rest.
INTERACTIVE_SHARE = 0.4
#: The interactive stream's classes, by ``build_mix``'s names.
CLASSES = {DUPLICATE: "hit", REFUTED: "refuted", MALFORMED: "malformed"}
#: Cold instances per second of the compile stream's share.  One worker
#: on its own answers 12-18 of them a second on a 2-core host.
COLD_PER_SECOND = 14.0
#: Consecutive cold answers per block of :func:`cold_rate`, so that a
#: passing stall of the host moves few blocks; even, so each block
#: holds (about) as many instances of each model count.
COLD_BLOCK = 20
#: Model counts of the cold instances, taken in turn.
COLD_MODELS = (3, 4)
#: The golden-ratio step: any prefix of the loads it walks through is
#: spread evenly over their range.
GOLDEN = (5 ** 0.5 - 1) / 2
#: The interactive generator fell behind when it sent this late
#: (seconds) ...
MAX_LAG_S = 0.25
#: ... or when 1 % of its sends were later than this.
MAX_LAG_P99_S = 0.02
#: A request unanswered after this long counts as failed.
REQUEST_TIMEOUT_S = 60.0
HIT_SET = cold_payloads(6)


@dataclass
class Record:
    """One request of a stream and what came back."""

    cls: str
    payload: Any
    sent: Sent
    status: int | None
    body: dict


def cold_instances(seed: int):
    """Distinct feasible DVB instances, none in the warm set, without end.

    So that every prefix holds the same spread of work under every
    seed, the model counts alternate and each one's loads step through
    0.2-0.4 by the golden ratio from a seeded start.
    """
    rng = random.Random(seed)
    starts = {model: rng.random() for model in COLD_MODELS}
    taken = {(p["models"], p["load"]) for p in HIT_SET}
    for step in itertools.count():
        for model in COLD_MODELS:
            load = round(
                0.2 + 0.2 * ((starts[model] + step * GOLDEN) % 1.0), 4
            )
            if (model, load) in taken:
                continue
            taken.add((model, load))
            yield {
                "kind": "compile", "topology": "hypercube6",
                "bandwidth": 128.0, "models": model, "load": load,
                "seed": 0,
            }


def interactive_mix(seed: int, count: int) -> list[tuple[str, Any]]:
    """The interactive stream's classes and payloads, seeded order.

    The shares and the order are the repository's own load mix
    (``build_mix``: 10 % refuted, 2 % malformed, the rest duplicates of
    the warm set).  Each refuted request then gets a distinct identity
    (its request seed), so that it passes admission instead of being
    answered from the result memo; the compiler never sees these seeds,
    since admission turns every one away before dispatch.
    """
    mix = build_mix(count + len(HIT_SET), seed, HIT_SET)
    identities = iter(random.Random(seed).sample(
        range(len(refuted_payloads()), 10**6), count
    ))
    return [
        (CLASSES[cls],
         dict(payload, seed=next(identities)) if cls == REFUTED else payload)
        for cls, payload in mix
    ]


class Farm:
    """One ``repro.cli serve`` process; stopped with SIGTERM."""

    def __init__(self, root: Path, cache_dir: Path, env: dict) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1", "--cache-dir", str(cache_dir)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"farm did not start: {line!r}")
        self.port = int(line.split()[3].rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def start_warm_farm(root: Path, cache_dir: Path, env: dict):
    """Boot a farm and warm it; returns (farm, warm-set results).

    Warming compiles the hit set (the worker's first compile also pays
    the LP engine's import) and sends one refuted and one malformed
    request, so the first diagnosis and the first 400 are paid here
    rather than inside the measured streams.
    """
    farm = Farm(root, cache_dir, env)
    try:
        results = {}
        with ServeClient("127.0.0.1", farm.port) as client:
            for payload in HIT_SET:
                status, body = client.submit(payload, wait=True)
                result = body.get("result", {})
                if status != 200 or result.get("verdict") != "OK":
                    raise RuntimeError(f"warm-set compile failed: {body}")
                results[canonical(payload)] = comparable(result)
            status, body = client.submit(refuted_payloads(1)[0], wait=True)
            if body.get("state") != "rejected":
                raise RuntimeError(f"refuted instance not rejected: {body}")
            status, body = client.submit(malformed_payloads()[0], wait=True)
            if status != 400:
                raise RuntimeError(f"malformed payload answered {status}")
    except BaseException:
        farm.stop()
        raise
    return farm, results


def canonical(payload: dict) -> tuple:
    return tuple(sorted(payload.items()))


def comparable(result: dict) -> dict:
    """A compile result minus its per-run telemetry."""
    return {
        key: value for key, value in result.items()
        if key not in ("profile", "solver_stats", "cache_stats")
    }


def submit(client: ServeClient, cls: str, payload, due: float) -> Record:
    """Send one request, waiting for its answer; never raises."""
    sent = time.perf_counter()
    try:
        status, body = client.submit(payload, wait=True)
    except (OSError, http.client.HTTPException) as exc:
        status, body = None, {"error": repr(exc)}
    return Record(
        cls, payload, Sent(due, sent, time.perf_counter()), status, body
    )


def open_loop(port: int, schedule, t0: float, out: list) -> None:
    """Send ``(offset, cls, payload)`` in order, each at ``t0 + offset``."""
    with ServeClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S) as client:
        for offset, cls, payload in schedule:
            due = t0 + offset
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            out.append(submit(client, cls, payload, due))


def closed_loop(port: int, payloads, out: list) -> None:
    """Send each payload once the last is answered; each request is due
    when it is sent."""
    with ServeClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S) as client:
        for payload in payloads:
            out.append(submit(client, "cold", payload, time.perf_counter()))


def drive(port: int, seed: int, seconds: float) -> tuple[list, list]:
    """Both streams in turn, sized for ``seconds``; returns their records."""
    n_interactive = round(INTERACTIVE_RATE * INTERACTIVE_SHARE * seconds)
    n_cold = round(COLD_PER_SECOND * (1.0 - INTERACTIVE_SHARE) * seconds)
    interactive = [
        (index / INTERACTIVE_RATE, cls, payload)
        for index, (cls, payload) in enumerate(
            interactive_mix(seed, n_interactive)
        )
    ]
    records: tuple[list, list] = ([], [])
    # The kept response bodies grow the heap; a collection pause here
    # would stall the sender and read as farm latency.
    gc.disable()
    try:
        open_loop(port, interactive, time.perf_counter() + 0.05, records[0])
        closed_loop(
            port, itertools.islice(cold_instances(seed), n_cold), records[1]
        )
    finally:
        gc.enable()
    return records


def cold_rate(cold: list[Record]) -> float:
    """Cold compiles answered per second by the closed-loop stream."""
    return median_block_rate([record.sent for record in cold], COLD_BLOCK)


def check(records, warm: dict) -> tuple[list[str], int]:
    """Output checks per class; returns (problems, failed requests)."""
    problems, failed = [], 0
    for record in records:
        cls, status, body = record.cls, record.status, record.body
        result = body.get("result", {})
        if status is None or status >= 500 or body.get("state") == "failed":
            failed += 1
            problems.append(f"{cls} request failed: {status} {body}")
        elif cls == "malformed" and status != 400:
            problems.append(f"malformed payload answered {status}")
        elif cls == "refuted" and body.get("state") != "rejected":
            problems.append(f"refuted instance not rejected: {body}")
        elif cls == "hit" and (
            comparable(result) != warm[canonical(record.payload)]
        ):
            problems.append(f"duplicate answered differently: {result}")
        elif cls == "cold" and (
            result.get("verdict") != "OK" or result.get("cache_hit")
        ):
            problems.append(f"cold compile not a fresh OK: {result}")
    return problems, failed


def farm_peak_rss_mb() -> float:
    """Largest resident set of this process and every reaped descendant.

    Linux folds a reaped child's peak into its parent's children total,
    so once the farm has stopped this covers its worker process too.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def stats_delta(before: dict, after: dict) -> dict[str, int]:
    names = ("fast_hits", "dispatched", "coalesced", "rejected", "failed")
    return {
        name: after["service"][name] - before["service"][name]
        for name in names
    }


def layer_metrics(probe: Probe, records, service: dict) -> None:
    """Per-layer numbers from response bodies and ``/v1/stats``."""
    for name, value in service.items():
        probe.add(f"serve.{name}", value)
    statuses = [record.status or 0 for record in records]
    probe.add("serve.http_4xx", sum(400 <= s < 500 for s in statuses))
    probe.add("serve.http_5xx", sum(s >= 500 for s in statuses))
    walls, overheads = [], []
    for record in records:
        result = record.body.get("result", {})
        if record.cls != "cold" or "profile" not in result:
            continue
        wall = sum(s["wall_ms"] for s in result["profile"]["stages"])
        walls.append(wall)
        answered_ms = (record.sent.done - record.sent.sent) * 1000.0
        overheads.append(answered_ms - wall)
        probe.add("core.compile.calls", 1)
        probe.add("core.compile.ms", wall)
        probe.add_profile(result["profile"])
        probe.add_solver_stats(result.get("solver_stats"))
    probe.add("serve.worker_compile_ms", nearest_rank(walls, 50))
    probe.add("pool.dispatch_overhead_ms", nearest_rank(overheads, 50))


def latencies_ms(records, cls: str | None = None) -> list[float]:
    """Latencies from due time of one class, or of every request."""
    return [
        latency_from_due(record.sent) * 1000.0
        for record in records if cls in (None, record.cls)
    ]


def lags(records) -> list[float]:
    return generator_lag([record.sent for record in records])
