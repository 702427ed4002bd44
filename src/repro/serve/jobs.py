"""Job model of the compile farm: requests, lifecycle, and the store.

A :class:`JobRequest` names one problem instance the same way the CLI
does — (workload models, topology, bandwidth, load, allocator, seed)
plus compiler-config overrides — so the wire format stays a small JSON
object and workers rebuild the instance deterministically on their side.
Validation happens here (:meth:`JobRequest.from_payload` raises
:class:`BadRequest` on malformed input), keeping the HTTP layer dumb.

A :class:`Job` walks the lifecycle::

    queued -> admitted -> running -> done
           \\-> rejected             \\-> failed

``rejected`` is the admission fast path (the static diagnoser refuted
the instance — no worker ever saw it); ``done`` covers both feasible
and *proven-infeasible* compilations (an infeasibility verdict is a
successful answer); ``failed`` is reserved for internal errors.  Every
transition appends a structured event consumed by the streaming
``/v1/jobs/<id>/events`` endpoint.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.compiler import CompilerConfig
from repro.errors import ReproError
from repro.solvers import BACKEND_NAMES
from repro.topology import topology_names
from repro.topology.registry import STANDARD_TOPOLOGIES, TOPOLOGY_ALIASES

__all__ = [
    "BadRequest",
    "Job",
    "JobRequest",
    "JobStore",
    "JOB_ADMITTED",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_REJECTED",
    "JOB_RUNNING",
    "TERMINAL_STATES",
]

JOB_QUEUED = "queued"
JOB_ADMITTED = "admitted"
JOB_REJECTED = "rejected"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: States a job never leaves.
TERMINAL_STATES = frozenset({JOB_REJECTED, JOB_DONE, JOB_FAILED})

#: Request kinds the farm accepts.
KINDS = ("compile", "diagnose", "check")

#: Task-placement strategies a request may name (mirrors the CLI).
ALLOCATORS = ("sequential", "bfs", "random", "annealed")


def _lp_backend(value: Any) -> str:
    """Coerce an ``lp_backend`` override, rejecting unknown names here
    rather than in the worker (where they would fail the job)."""
    name = str(value)
    if name not in BACKEND_NAMES:
        raise BadRequest(
            f"unknown lp_backend {name!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}"
        )
    return name


#: CompilerConfig fields a request may override, with coercers.
_CONFIG_FIELDS: dict[str, Any] = {
    "seed": int,
    "use_assign_paths": bool,
    "max_paths": int,
    "max_restarts": int,
    "retries": int,
    "feedback_rounds": int,
    "sync_margin": float,
    "lp_backend": _lp_backend,
    "prescreen": bool,
}


class BadRequest(ReproError):
    """A malformed or unsupported job payload (HTTP 400)."""


def _require(
    payload: Mapping[str, Any],
    key: str,
    kind: type,
    default: Any | None = None,
) -> Any:
    value = payload.get(key, default)
    if value is None:
        raise BadRequest(f"missing required field {key!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise BadRequest(
            f"field {key!r} must be {kind.__name__}, got {value!r}"
        ) from None


@dataclass(frozen=True)
class JobRequest:
    """One validated compile/diagnose/check request.

    ``models``/``topology``/``bandwidth``/``load``/``allocator``/``seed``
    pin the problem instance exactly as the CLI flags of the same names
    do; ``config`` holds :class:`~repro.core.compiler.CompilerConfig`
    overrides (unknown keys are rejected, not ignored — a typo must not
    silently change the cache key).
    """

    kind: str
    topology: str
    bandwidth: float
    models: int
    load: float
    allocator: str = "sequential"
    seed: int = 0
    config: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def from_payload(cls, payload: Any) -> "JobRequest":
        """Validate an untrusted JSON payload into a request."""
        if not isinstance(payload, Mapping):
            raise BadRequest("request body must be a JSON object")
        kind = str(payload.get("kind", "compile"))
        if kind not in KINDS:
            raise BadRequest(
                f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}"
            )
        topology = str(payload.get("topology", ""))
        if TOPOLOGY_ALIASES.get(topology, topology) not in STANDARD_TOPOLOGIES:
            raise BadRequest(
                f"unknown topology {topology!r}; expected one of "
                f"{', '.join(topology_names())}"
            )
        bandwidth = _require(payload, "bandwidth", float, 64.0)
        if bandwidth <= 0:
            raise BadRequest(f"bandwidth must be > 0, got {bandwidth}")
        models = _require(payload, "models", int, 8)
        if models < 1:
            raise BadRequest(f"models must be >= 1, got {models}")
        load = _require(payload, "load", float)
        if not 0 < load <= 1:
            raise BadRequest(f"load must be in (0, 1], got {load}")
        allocator = str(payload.get("allocator", "sequential"))
        if allocator not in ALLOCATORS:
            raise BadRequest(
                f"unknown allocator {allocator!r}; expected one of "
                f"{', '.join(ALLOCATORS)}"
            )
        seed = _require(payload, "seed", int, 0)
        raw_config = payload.get("config", {})
        if not isinstance(raw_config, Mapping):
            raise BadRequest("config must be a JSON object")
        config: list[tuple[str, Any]] = []
        for key in sorted(raw_config):
            coerce = _CONFIG_FIELDS.get(key)
            if coerce is None:
                raise BadRequest(f"unknown config field {key!r}")
            try:
                config.append((key, coerce(raw_config[key])))
            except (TypeError, ValueError):
                raise BadRequest(
                    f"config field {key!r} has invalid value "
                    f"{raw_config[key]!r}"
                ) from None
        return cls(
            kind=kind,
            topology=TOPOLOGY_ALIASES.get(topology, topology),
            bandwidth=bandwidth,
            models=models,
            load=load,
            allocator=allocator,
            seed=seed,
            config=tuple(config),
        )

    @classmethod
    def from_canonical(cls, payload: Mapping[str, Any]) -> "JobRequest":
        """Rebuild a request from :meth:`canonical` output (worker side).

        The canonical form is already validated; this constructor only
        restores the shapes JSON flattened (the config pair list).
        """
        return cls(
            kind=str(payload["kind"]),
            topology=str(payload["topology"]),
            bandwidth=float(payload["bandwidth"]),
            models=int(payload["models"]),
            load=float(payload["load"]),
            allocator=str(payload["allocator"]),
            seed=int(payload["seed"]),
            config=tuple(
                (str(k), v) for k, v in payload.get("config", ())
            ),
        )

    def compiler_config(self) -> CompilerConfig:
        """The effective compiler config (request seed + overrides)."""
        fields: dict[str, Any] = {"seed": self.seed}
        fields.update(dict(self.config))
        return CompilerConfig(**fields)

    def canonical(self) -> dict[str, Any]:
        """Deterministic JSON-able form (worker payloads, dedup keys)."""
        return {
            "kind": self.kind,
            "topology": self.topology,
            "bandwidth": self.bandwidth,
            "models": self.models,
            "load": self.load,
            "allocator": self.allocator,
            "seed": self.seed,
            "config": [[k, v] for k, v in self.config],
        }

    def instance_signature(self) -> str:
        """Stable identity of the *instance* this request names.

        Two requests with the same signature compile the same problem
        under the same config — the single-flight map coalesces on this
        (per kind: a ``check`` does strictly more work than a
        ``compile``, so they never share a flight).
        """
        return json.dumps(self.canonical(), sort_keys=True)


@dataclass
class Job:
    """One accepted request working through the farm."""

    id: str
    request: JobRequest
    key: str  #: content-addressed schedule-cache key of the instance
    state: str = JOB_QUEUED
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    #: Duplicate submissions that attached to this flight.
    coalesced: int = 0
    #: Lifecycle + stage progress events, in order.
    events: list[dict[str, Any]] = field(default_factory=list)
    _done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def add_event(self, name: str, **args: Any) -> dict[str, Any]:
        """Append one structured progress event."""
        event = {
            "seq": len(self.events),
            "t": round(time.time() - self.submitted_at, 6),
            "event": name,
        }
        if args:
            event.update(args)
        self.events.append(event)
        return event

    def transition(self, state: str, **args: Any) -> None:
        """Move to ``state`` and record the transition event."""
        self.state = state
        if state in TERMINAL_STATES:
            self.finished_at = time.time()
        self.add_event(state, **args)
        if self.terminal:
            self._done.set()

    async def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; False on timeout."""
        try:
            await asyncio.wait_for(self._done.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    def snapshot(self) -> dict[str, Any]:
        """The JSON view served by ``/v1/jobs/<id>``."""
        payload: dict[str, Any] = {
            "id": self.id,
            "kind": self.request.kind,
            "key": self.key,
            "state": self.state,
            "request": self.request.canonical(),
            "submitted_at": self.submitted_at,
            "coalesced": self.coalesced,
        }
        if self.finished_at is not None:
            payload["finished_at"] = self.finished_at
            payload["elapsed_ms"] = round(
                (self.finished_at - self.submitted_at) * 1000.0, 3
            )
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobStore:
    """Jobs by id, with a bounded history of finished ones.

    The store never drops a non-terminal job; terminal jobs age out
    oldest-first once ``history_limit`` is exceeded (their results live
    on in the schedule cache — the store is for polling, not archival).
    """

    def __init__(self, history_limit: int = 512) -> None:
        self.history_limit = history_limit
        self._jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)

    def new_id(self) -> str:
        return f"job-{next(self._ids)}"

    def add(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._evict()

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def __len__(self) -> int:
        return len(self._jobs)

    def active(self) -> list[Job]:
        """Jobs not yet terminal, oldest first."""
        return [job for job in self._jobs.values() if not job.terminal]

    def _evict(self) -> None:
        excess = len(self._jobs) - self.history_limit
        if excess <= 0:
            return
        for job_id in [
            jid for jid, job in self._jobs.items() if job.terminal
        ][:excess]:
            del self._jobs[job_id]
