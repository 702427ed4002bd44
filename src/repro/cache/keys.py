"""Content-addressed cache keys for compiled schedules.

A compilation is fully determined by five inputs: the task-flow graph,
its timing (bandwidth, speeds, message window), the topology's link set,
the task→node allocation, the input period, and the compiler config.
:func:`schedule_cache_key` canonicalizes all of them into one JSON
payload and hashes it with SHA-256, so the key is

- **stable** — independent of ``PYTHONHASHSEED``, process, platform and
  dict insertion tricks (every mapping is emitted with sorted keys;
  floats round-trip exactly through ``repr``);
- **complete** — any input that can change the compiled schedule is in
  the payload, including every :class:`~repro.core.compiler.
  CompilerConfig` field, so perturbing a single field yields a
  different key;
- **structural for topologies** — the key hashes the actual link set,
  not the topology's display name, so two residual topologies that both
  print as ``hypercube(6)-2down`` but lost different links get
  different keys.

Bump :data:`CACHE_VERSION` whenever the payload layout or the
serialized entry format changes; old entries then miss instead of
deserializing wrongly (the invalidation rule — see ``docs/compiler.md``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiler import CompilerConfig
    from repro.tfg.analysis import TFGTiming
    from repro.tfg.graph import TaskFlowGraph
    from repro.topology.base import Topology

#: Version stamp baked into every key and every stored entry.
#: ``/2``: perf-only solver knobs (the since-removed batching and
#: warm-start switches) were elided from :func:`canonical_config`
#: unconditionally — entries written under ``/1`` keys (which hashed
#: non-default knob values) would otherwise shadow or miss the unified
#: key space.
CACHE_VERSION = "repro.cache/2"

#: ``CompilerConfig`` fields that change solver wall time but provably
#: not the compiled schedule — always elided from cache keys.  Empty
#: today: the ledger and its checks stay so a future perf-only knob
#: still needs an explicit hash-or-elide decision.
PERF_ONLY_CONFIG_FIELDS: tuple[str, ...] = ()

#: ``CompilerConfig`` fields that are part of cache identity.  Together
#: with :data:`PERF_ONLY_CONFIG_FIELDS` this is the complete decision
#: ledger: every config field appears in exactly one of the two tuples.
#: The ``cache-key`` lint rule cross-checks the ledger against the
#: dataclass statically, and :func:`canonical_config` enforces it at
#: runtime — a new knob cannot ship without an explicit hash-or-elide
#: decision.
HASHED_CONFIG_FIELDS = (
    "seed",
    "use_assign_paths",
    "max_paths",
    "max_restarts",
    "retries",
    "feedback_rounds",
    "sync_margin",
    "lp_backend",
    "prescreen",
)


def canonical_tfg(tfg: "TaskFlowGraph") -> dict[str, Any]:
    """The TFG as a plain, deterministically ordered structure."""
    return {
        "name": tfg.name,
        "tasks": [[task.name, task.ops] for task in tfg.tasks],
        "messages": [
            [m.name, m.src, m.dst, m.size_bytes] for m in tfg.messages
        ],
    }


def canonical_timing(timing: "TFGTiming") -> dict[str, Any]:
    """Timing inputs: TFG plus bandwidth, speeds and message window."""
    return {
        "tfg": canonical_tfg(timing.tfg),
        "bandwidth": timing.bandwidth,
        "speeds": sorted(
            (task.name, timing.speed(task.name)) for task in timing.tfg.tasks
        ),
        "message_window": timing.message_window,
    }


def canonical_topology(topology: "Topology") -> dict[str, Any]:
    """The topology as its actual link set (not its display name).

    The name is included for debuggability but the links are what makes
    residual topologies with equal names distinguishable.
    """
    return {
        "name": topology.name,
        "radices": list(topology.radices),
        "links": sorted([a, b] for a, b in topology.links),
    }


def canonical_allocation(allocation: Mapping[str, int]) -> list[list[Any]]:
    """The task→node map as a sorted pair list."""
    return sorted([task, int(node)] for task, node in allocation.items())


def canonical_config(config: "CompilerConfig") -> dict[str, Any]:
    """Every config field; new fields invalidate old keys automatically.

    ``lp_backend`` is canonicalized to the backend ``"auto"`` *resolves
    to in this environment*, not the literal string.  Hashing the
    literal ``"auto"`` poisoned shared caches: an environment without
    scipy resolves ``"auto"`` to the reference simplex, one with scipy
    resolves it to HiGHS, yet both hashed to the same key — so a
    negative ("infeasible") entry recorded by one solver was replayed
    verbatim to the other.  Canonicalizing also unifies
    ``key("auto") == key(resolved)`` within one environment, which is
    what content addressing promises.

    Solver *performance* knobs (:data:`PERF_ONLY_CONFIG_FIELDS`) are
    elided **unconditionally**: they change how fast the LPs are
    solved, not which schedule comes out, so every knob value must hash
    to the same key.  Eliding only default values — the pre-``/2``
    behaviour — fragmented the key space: a run with a non-default
    perf knob could not reuse entries a default-config run had already
    compiled, despite producing byte-identical schedules.
    """
    from repro.solvers import default_backend_name

    fields = asdict(config)
    decided = set(HASHED_CONFIG_FIELDS) | set(PERF_ONLY_CONFIG_FIELDS)
    if set(fields) != decided:
        undecided = sorted(set(fields) - decided)
        stale = sorted(decided - set(fields))
        raise ValueError(
            "CompilerConfig fields drifted from the cache-key decision "
            f"ledger (undecided: {undecided}, stale: {stale}); update "
            "HASHED_CONFIG_FIELDS / PERF_ONLY_CONFIG_FIELDS in "
            "repro.cache.keys"
        )
    if fields.get("lp_backend") == "auto":
        fields["lp_backend"] = default_backend_name()
    for knob in PERF_ONLY_CONFIG_FIELDS:
        fields.pop(knob, None)
    return fields


def cache_key_payload(
    timing: "TFGTiming",
    topology: "Topology",
    allocation: Mapping[str, int],
    tau_in: float,
    config: "CompilerConfig",
) -> dict[str, Any]:
    """The full canonical payload a key hashes (exposed for tests)."""
    return {
        "version": CACHE_VERSION,
        "timing": canonical_timing(timing),
        "topology": canonical_topology(topology),
        "allocation": canonical_allocation(allocation),
        "tau_in": float(tau_in),
        "config": canonical_config(config),
    }


def schedule_cache_key(
    timing: "TFGTiming",
    topology: "Topology",
    allocation: Mapping[str, int],
    tau_in: float,
    config: "CompilerConfig",
) -> str:
    """SHA-256 hex digest of the canonical compilation inputs."""
    payload = cache_key_payload(timing, topology, allocation, tau_in, config)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def diagnosis_cache_key(
    timing: "TFGTiming",
    topology: "Topology",
    allocation: Mapping[str, int],
    tau_in: float,
    sync_margin: float = 0.0,
) -> str:
    """Key for a cached :class:`~repro.diagnose.Diagnosis`.

    Diagnosis depends only on the instance (timing, topology,
    allocation, period, sync margin) — not on the compiler config — so
    the key omits seeds, backends and retry knobs: the same instance
    diagnosed under any config hits the same entry.  The ``"analysis"``
    marker keeps the key space disjoint from schedule keys.
    """
    payload = {
        "version": CACHE_VERSION,
        "analysis": "diagnosis",
        "timing": canonical_timing(timing),
        "topology": canonical_topology(topology),
        "allocation": canonical_allocation(allocation),
        "tau_in": float(tau_in),
        "sync_margin": float(sync_margin),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
