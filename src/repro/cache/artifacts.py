"""Per-stage delta compilation: artifact keys over the stage pipeline.

The monolithic schedule key of :mod:`repro.cache.keys` is all-or-nothing:
change one message size, drop one link, and the whole compilation is
cold again even though most of the LP work would come out identical.
This module generalizes what :mod:`repro.faults.repair` proved locally —
partial recompilation is sound — into content-addressed **artifact
keys** for the expensive pipeline stages:

- ``assign-paths`` — keyed on the *content* of the time bounds, the
  minimal-path candidate pools, and the heuristic knobs (seed,
  ``max_paths``, ``max_restarts``).  The pools insight does the heavy
  lifting: a topology perturbation that touches no candidate pool (e.g.
  dropping an unused link) leaves the key unchanged, so the whole
  descent is skipped;
- ``allocate+schedule`` — one artifact per maximal subset, keyed on the
  interval lengths plus each member's duration, activity row and path
  links (everything the two LPs consume).  Failures are stored as
  *negative* artifacts so a delta recompile replays the feedback/retry
  loop byte-identically;
- ``build-schedule`` — the final Omega, keyed on the bounds digest, the
  assignment content digest and the per-subset artifact keys.

Keys hash actual stage **inputs**, never instance provenance, so an
artifact is reused exactly when stage determinism guarantees the same
output — byte-identity of delta recompiles (modulo wall times and LP
tallies) falls out by construction and is enforced by the fuzz corpus'
delta differential.  Cheap stages (time bounds, the utilisation gate,
maximal subsets) are recomputed; their content digests feed the keys of
the stages downstream.

:class:`DeltaState` carries the digests through one compilation and
brokers fetch/store against the :class:`~repro.cache.store.ScheduleCache`
artifact tier; per-stage hit/miss/store counters land in
``CacheStats.stages`` (never in the scalar schedule-level counters).
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.cache.keys import (
    CACHE_VERSION,
    canonical_allocation,
    canonical_topology,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.store import ScheduleCache
    from repro.core.assignment import PathAssignment
    from repro.core.compiler import CompilerConfig
    from repro.core.interval_allocation import IntervalAllocation
    from repro.core.interval_scheduling import IntervalSchedule
    from repro.core.switching import CommunicationSchedule
    from repro.core.timebounds import TimeBoundSet
    from repro.errors import SchedulingError
    from repro.tfg.analysis import TFGTiming
    from repro.topology.base import Topology

__all__ = [
    "DeltaState",
    "artifact_key",
    "bounds_content",
    "pools_content",
]

#: Artifact stage names (also the ``CacheStats.stages`` counter keys).
STAGE_ASSIGN = "assign-paths"
STAGE_INTERVAL = "allocate+schedule"
STAGE_SCHEDULE = "build-schedule"


def _digest(payload: Any) -> str:
    """SHA-256 hex digest of a canonical-JSON payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def artifact_key(stage: str, inputs: Mapping[str, Any]) -> str:
    """The content key of one stage artifact.

    ``inputs`` must canonicalize everything the stage reads; the
    ``"artifact"`` marker keeps the key space disjoint from schedule and
    diagnosis keys, and :data:`~repro.cache.keys.CACHE_VERSION` retires
    old artifacts whenever the payload layout changes.
    """
    return _digest(
        {"version": CACHE_VERSION, "artifact": stage, "inputs": dict(inputs)}
    )


def bounds_content(bounds: "TimeBoundSet") -> dict[str, Any]:
    """The time-bound set as canonical content (order-preserving).

    Message order is part of the content: the AssignPaths RNG consumes
    pools in message order, so bound sets equal up to reordering must
    *not* collapse to one digest.
    """
    return {
        "tau_in": bounds.tau_in,
        "bounds": [
            [
                name,
                b.release,
                b.deadline,
                b.duration,
                [[start, end] for start, end in b.windows],
            ]
            for name, b in bounds.bounds.items()
        ],
    }


def pools_content(
    pools: Mapping[str, Sequence[Sequence[int]]],
) -> list[list[Any]]:
    """Candidate path pools as canonical content (order-preserving).

    Pool enumeration order matters — the heuristic's random initial
    assignments index into it — so the pools are hashed exactly as
    enumerated.  The pools also determine every message's endpoints
    (each path runs source → destination), so no separate endpoint
    digest is needed.
    """
    return [
        [name, [list(path) for path in pool]] for name, pool in pools.items()
    ]


def _assignment_content(assignment: "PathAssignment") -> list[list[Any]]:
    return [
        [name, list(assignment.path(name))] for name in assignment.messages
    ]


class DeltaState:
    """Digest bookkeeping + artifact broker for one delta compilation.

    Created by :func:`~repro.core.compiler.compile_schedule` whenever a
    cache is attached and the monolithic key missed; the pipeline stages
    consult it through ``context.delta``.  Instance-level digests are
    computed once; attempt-level digests (assignment, subsets) are wiped
    by :meth:`reset_attempt` alongside the context's artifacts.
    """

    def __init__(
        self,
        cache: "ScheduleCache",
        timing: "TFGTiming",
        topology: "Topology",
        allocation: Mapping[str, int],
        tau_in: float,
        config: "CompilerConfig",
    ) -> None:
        from repro.solvers import default_backend_name

        self.cache = cache
        self.config = config
        backend = config.lp_backend
        self.backend_name = (
            default_backend_name() if backend == "auto" else backend
        )
        self.topology_digest = _digest(canonical_topology(topology))
        self.allocation_digest = _digest(canonical_allocation(allocation))
        self.tau_in = float(tau_in)
        # Recorded as the stages run.
        self.bounds_digest: str | None = None
        self.assignment_digest: str | None = None
        self.subset_keys: list[str] = []

    def reset_attempt(self) -> None:
        """Wipe attempt-scoped digests before a retry under a new seed."""
        self.assignment_digest = None
        self.subset_keys = []

    # -- time bounds (recomputed; digest feeds downstream keys) ----------

    def record_bounds(self, bounds: "TimeBoundSet") -> None:
        self.bounds_digest = _digest(bounds_content(bounds))

    # -- path assignment --------------------------------------------------

    def assignment_key(
        self, pools: Mapping[str, Sequence[Sequence[int]]], seed: int
    ) -> str:
        """Artifact key of the heuristic assignment for one attempt."""
        config = self.config
        return artifact_key(
            STAGE_ASSIGN,
            {
                "kind": "heuristic",
                "bounds": self.bounds_digest,
                "pools": pools_content(pools),
                "seed": seed,
                "max_paths": config.max_paths,
                "max_restarts": config.max_restarts,
            },
        )

    def lsd_assignment_key(self) -> str:
        """Artifact key of the deterministic LSD→MSD baseline assignment."""
        return artifact_key(
            STAGE_ASSIGN,
            {
                "kind": "lsd",
                "bounds": self.bounds_digest,
                "topology": self.topology_digest,
                "allocation": self.allocation_digest,
            },
        )

    def fetch_assignment(
        self,
        key: str,
        topology: "Topology",
        endpoints: Mapping[str, tuple[int, int]],
    ) -> "PathAssignment | None":
        """Rebuild a stored assignment; ``None`` on miss or stale payload."""
        from repro.core.assignment import PathAssignment
        from repro.errors import ReproError

        payload = self.cache.fetch_artifact(key, STAGE_ASSIGN)
        if payload is None:
            return None
        try:
            paths = {
                str(name): [int(n) for n in path]
                for name, path in payload["paths"]
            }
            assignment = PathAssignment(topology, dict(endpoints), paths)
        except (KeyError, TypeError, ValueError, ReproError):
            return None
        self.record_assignment(assignment)
        return assignment

    def store_assignment(self, key: str, assignment: "PathAssignment") -> None:
        self.cache.store_artifact(
            key, STAGE_ASSIGN, {"paths": _assignment_content(assignment)}
        )
        self.record_assignment(assignment)

    def record_assignment(self, assignment: "PathAssignment") -> None:
        self.assignment_digest = _digest(_assignment_content(assignment))

    # -- per-subset interval allocation + scheduling ----------------------

    def subset_key(
        self,
        bounds: "TimeBoundSet",
        assignment: "PathAssignment",
        subset: tuple[str, ...],
        index: int,
    ) -> str:
        """Artifact key of one subset's allocation/scheduling outcome.

        Canonicalizes everything the two LPs (and the feedback loop
        between them) consume: the interval lengths, and per member its
        duration, activity row and path links.  The resolved backend
        name is included (different solvers may legitimately pick
        different optima).  ``index`` pins the error metadata
        (``subset_index``) of negative artifacts.
        """
        messages = []
        for name in subset:
            bound = bounds.bounds[name]
            row = bounds.activity[bounds.index[name]]
            messages.append(
                [
                    name,
                    bound.duration,
                    [int(flag) for flag in row],
                    [[u, v] for u, v in assignment.links(name)],
                ]
            )
        return artifact_key(
            STAGE_INTERVAL,
            {
                "lengths": list(bounds.intervals.lengths),
                "messages": messages,
                "subset_index": index,
                "feedback_rounds": self.config.feedback_rounds,
                "backend": self.backend_name,
            },
        )

    def fetch_subset(
        self, key: str, subset: tuple[str, ...]
    ) -> "tuple[IntervalAllocation, dict[int, IntervalSchedule]] | None":
        """Replay one subset's stored outcome.

        Returns the (allocation, interval schedules) pair on a success
        hit, ``None`` on a miss or stale payload — and **raises** the
        recorded :class:`~repro.errors.SchedulingError` on a negative
        hit, exactly as the live feedback loop would, so the compiler's
        retry machinery replays byte-identically.
        """
        from repro.cache.store import entry_to_error
        from repro.core.interval_allocation import IntervalAllocation
        from repro.core.interval_scheduling import (
            FeasibleSetSlot,
            IntervalSchedule,
        )

        payload = self.cache.fetch_artifact(key, STAGE_INTERVAL)
        if payload is None:
            return None
        try:
            if payload.get("outcome") == "failure":
                error = entry_to_error(payload["error"])
            else:
                allocation = IntervalAllocation(
                    subset=subset,
                    allocation={
                        (str(name), int(k)): float(t)
                        for name, k, t in payload["cells"]
                    },
                    load_factor=float(payload["load_factor"]),
                )
                schedules = {
                    int(k): IntervalSchedule(
                        interval=int(k),
                        slots=tuple(
                            FeasibleSetSlot(
                                messages=frozenset(
                                    str(m) for m in slot_messages
                                ),
                                duration=float(duration),
                            )
                            for slot_messages, duration in slots
                        ),
                    )
                    for k, slots in payload["schedules"]
                }
        except (KeyError, TypeError, ValueError):
            return None
        if payload.get("outcome") == "failure":
            self.subset_keys.append(key)
            raise error
        self.subset_keys.append(key)
        return allocation, schedules

    def store_subset(
        self,
        key: str,
        allocation: "IntervalAllocation",
        schedules: "Mapping[int, IntervalSchedule]",
    ) -> None:
        payload = {
            "outcome": "success",
            "cells": [
                [name, k, t] for (name, k), t in allocation.allocation.items()
            ],
            "load_factor": allocation.load_factor,
            "schedules": [
                [
                    k,
                    [
                        [sorted(slot.messages), slot.duration]
                        for slot in schedule.slots
                    ],
                ]
                for k, schedule in schedules.items()
            ],
        }
        self.cache.store_artifact(key, STAGE_INTERVAL, payload)
        self.subset_keys.append(key)

    def store_subset_failure(self, key: str, error: "SchedulingError") -> None:
        """Record a negative artifact replaying the exact stage error."""
        from repro.cache.store import error_to_entry

        self.cache.store_artifact(
            key,
            STAGE_INTERVAL,
            {"outcome": "failure", "error": error_to_entry(error)},
        )
        self.subset_keys.append(key)

    # -- the assembled schedule ------------------------------------------

    def schedule_key(self) -> str:
        """Artifact key of the final Omega for this attempt's artifacts."""
        return artifact_key(
            STAGE_SCHEDULE,
            {
                "bounds": self.bounds_digest,
                "assignment": self.assignment_digest,
                "subsets": list(self.subset_keys),
            },
        )

    def fetch_schedule(self, key: str) -> "CommunicationSchedule | None":
        from repro.core.io import schedule_from_dict
        from repro.errors import ReproError

        payload = self.cache.fetch_artifact(key, STAGE_SCHEDULE)
        if payload is None:
            return None
        try:
            return schedule_from_dict(payload["schedule"])
        except (KeyError, TypeError, ValueError, ReproError):
            return None

    def store_schedule(
        self, key: str, schedule: "CommunicationSchedule"
    ) -> None:
        from repro.core.io import schedule_to_dict

        self.cache.store_artifact(
            key, STAGE_SCHEDULE, {"schedule": schedule_to_dict(schedule)}
        )
