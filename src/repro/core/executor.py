"""Replay of a scheduled-routing solution: closed form, or on the DES.

The paper *argues* that independently executed switching schedules are
contention-free and meet every deadline; this executor *machine-checks*
it.  It replays ``invocations`` periods: tasks run at their static ASAP
instants, and every transmission slot claims its links as exclusive
resources at its absolute time.  Any claim that is not granted instantly
is a contention violation and aborts the run; any delivery completing
after its destination task's start instant is a deadline violation.

A successful replay yields a :class:`~repro.results.RunResult` with
``technique="scheduled"`` whose output intervals are exactly ``tau_in``
— the constant throughput the paper guarantees.

Which path runs
---------------
Both paths read one :class:`FlightTable` — every slot occurrence of the
replay as ``(invocation x slot)`` arrays, unrolled with the single
wrapped-window rule that :meth:`ScheduledRoutingExecutor.absolute_slots`
also uses — and share the static deadline assertion over it.

- **Closed form** (:meth:`ScheduledRoutingExecutor.run` on a healthy,
  untraced replay: no ``fault_trace``, tracer disabled).  On a healthy
  machine every flight and every task instant is a fixed frame offset
  plus ``j * tau_in``, so the replay is evaluated as numpy arrays: a
  flight contends when its start falls more than ``EPS`` before the
  running maximum of the ends of the flights the DES would have
  granted that link to earlier, completions are the latest output-task
  finish of each invocation, and link busy times are summed in the
  DES's release order.  Its results are bit-identical to the DES's.
- **Discrete-event replay** (:meth:`ScheduledRoutingExecutor.run_des`;
  what :meth:`~ScheduledRoutingExecutor.run` uses under a fault trace or
  an enabled tracer).  Transmissions are kernel processes claiming
  :class:`~repro.sim.resources.Resource` links.  It is also the oracle
  the closed form is fuzzed against (:mod:`repro.check.fuzz`).

When the closed form finds contention the replay is rejected, and it is
replayed on the DES to report the violation.  Whether *some* flight
contends is exact in closed form (the earliest-requested blocked claim
is blocked on the DES too), but *which* violation the DES detects first
depends on flights it holds waiting at an earlier hop: such a flight has
not yet claimed its later hops, so claims the arrays see as blocked may
be granted at once.  Deadline misses are static and raised by both
paths alike.

Pass a :class:`~repro.results.RunConfig` carrying a
:class:`~repro.trace.tracer.TraceRecorder` to capture the replay as a
structured trace: ``slot`` spans for every scheduled transmission
window, ``link`` occupancy spans for every grant, ``task`` spans per
invocation, and ``run`` completion instants.

Fault injection
---------------
``run(fault_trace=...)`` replays the same schedule on a *breaking*
machine: a :class:`~repro.faults.injection.FaultInjector` drives link
outages from the trace, and per-node clock drift shifts the transmission
windows of the drifted node's outgoing messages.  A slot claim on a
failed link raises :class:`~repro.errors.LinkFailedError` (the detection
event the repair engine consumes); drift-induced contention or deadline
misses raise the other :class:`~repro.errors.FaultInjectionError`
subclasses instead of :class:`~repro.errors.ScheduleValidationError`,
because the schedule is healthy — the machine is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Mapping

import numpy as np

from repro.core.compiler import ScheduledRouting
from repro.errors import (
    FaultedDeadlineError,
    FaultInjectionError,
    LinkFailedError,
    ScheduleValidationError,
)
from repro.results import RunConfig, RunResult, resolve_run_config
from repro.sim import Environment, Event, Monitor, Resource
from repro.tfg.analysis import TFGTiming
from repro.topology.base import Link, Topology
from repro.trace.tracer import TraceRecorder
from repro.units import EPS

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.models import FaultTrace

#: Closed-form replay outcome: completion times and per-link busy time.
Outcome = tuple[tuple[float, ...], dict[Link, float]]


@dataclass(frozen=True)
class FlightTable:
    """Every transmission slot of a replay, unrolled over its invocations.

    Column ``k`` is one frame slot (each routed message's slots are
    contiguous, messages in ``schedule.slots`` order); row ``j`` is
    invocation ``j``.  Times are unshifted by clock drift.

    Attributes
    ----------
    messages:
        Routed message names, one per column group.
    first_column:
        Index of each message's first column.
    column_message:
        Message index of each column.
    paths:
        Each message's links (all of a message's slots share its path).
    shift:
        Each message's clock-drift shift (zero on a healthy machine).
    period:
        ``(invocations, 1)`` column of ``j * tau_in``.
    start, end:
        ``(invocations, slots)`` absolute flight windows.
    """

    messages: tuple[str, ...]
    first_column: np.ndarray
    column_message: np.ndarray
    paths: tuple[tuple[Link, ...], ...]
    shift: np.ndarray
    period: np.ndarray
    start: np.ndarray
    end: np.ndarray


def _ranks(order: np.ndarray) -> np.ndarray:
    """Position of each element in ``order`` (the inverse permutation)."""
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order] = np.arange(order.size)
    return ranks


def _bounds(keys: np.ndarray) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of equal values in sorted ``keys``."""
    if not keys.size:
        return []
    edges = np.flatnonzero(np.diff(keys)) + 1
    return list(zip([0, *edges.tolist()], [*edges.tolist(), keys.size]))


class ScheduledRoutingExecutor:
    """Runs a compiled schedule and verifies its guarantees."""

    def __init__(
        self,
        routing: ScheduledRouting,
        timing: TFGTiming,
        topology: Topology,
        allocation: Mapping[str, int],
    ):
        self.routing = routing
        self.timing = timing
        self.topology = topology
        self.allocation = dict(allocation)
        self.tau_in = routing.tau_in
        self._asap = timing.asap_schedule()

    # -- frame -> absolute time mapping --------------------------------------

    def _frame_offsets(self, message_name: str) -> list[tuple[float, float]]:
        """``(offset, duration)`` of each of a message's frame slots, the
        offset measured from the message's release in its invocation.

        A frame slot at ``s`` maps into the invocation's window starting at
        the absolute release ``j * tau_in + t_f(src)``: slots at or after
        the wrapped release ``r`` come ``s - r`` into the window; earlier
        slots belong to the wrapped head and come ``(tau_in - r) + s`` in.
        """
        r = self.routing.bounds.bounds[message_name].release
        offsets = []
        for slot in self.routing.schedule.slots[message_name]:
            if slot.start >= r - EPS:
                offset = slot.start - r
            else:
                offset = (self.tau_in - r) + slot.start
            offsets.append((offset, slot.duration))
        return offsets

    def absolute_slots(
        self, message_name: str, invocation: int
    ) -> list[tuple[float, float]]:
        """Absolute ``(start, end)`` occurrences of a message's slots in one
        invocation (see :meth:`_frame_offsets` for the wrap rule)."""
        message = self.timing.tfg.message(message_name)
        abs_release = invocation * self.tau_in + self._asap[message.src][1]
        occurrences = []
        for offset, duration in self._frame_offsets(message_name):
            start = abs_release + offset
            occurrences.append((start, start + duration))
        return occurrences

    def _flight_table(
        self, invocations: int, fault_trace: "FaultTrace | None" = None
    ) -> FlightTable:
        """All flights of an ``invocations``-period replay as arrays.

        Element ``[j, k]`` is exactly ``absolute_slots(name, j)[i]`` for
        column ``k``, the ``i``-th slot of ``name``: the same float
        operations in the same order.
        """
        messages: list[str] = []
        first_column: list[int] = []
        paths: list[tuple[Link, ...]] = []
        shifts: list[float] = []
        bases: list[float] = []
        offsets: list[float] = []
        durations: list[float] = []
        column_message: list[int] = []
        for name, slots in self.routing.schedule.slots.items():
            if not slots:
                raise ScheduleValidationError(
                    f"message {name!r} has no transmission slots"
                )
            message = self.timing.tfg.message(name)
            index = len(messages)
            messages.append(name)
            first_column.append(len(offsets))
            paths.append(slots[0].links)
            # The source CP's clock dictates when the flight enters the
            # network, so the whole clear-path window shifts by the
            # source node's drift offset.
            shifts.append(
                0.0 if fault_trace is None
                else fault_trace.drift_of(self.allocation[message.src])
            )
            for offset, duration in self._frame_offsets(name):
                bases.append(self._asap[message.src][1])
                offsets.append(offset)
                durations.append(duration)
                column_message.append(index)
        period = np.arange(invocations, dtype=np.float64)[:, None] * self.tau_in
        start = (period + np.array(bases)) + np.array(offsets)
        return FlightTable(
            messages=tuple(messages),
            first_column=np.array(first_column, dtype=np.intp),
            column_message=np.array(column_message, dtype=np.intp),
            paths=tuple(paths),
            shift=np.array(shifts, dtype=np.float64),
            period=period,
            start=start,
            end=start + np.array(durations),
        )

    # -- execution ------------------------------------------------------

    def run(
        self,
        invocations: int | None = None,
        warmup: int | None = None,
        fault_trace: "FaultTrace | None" = None,
        *,
        config: RunConfig | None = None,
    ) -> RunResult:
        """Replay the schedule for ``config.invocations`` periods.

        Accepts a :class:`~repro.results.RunConfig` (the unified run
        API); the ``invocations``/``warmup``/``fault_trace`` keywords
        are retained as a thin shim and, when given, override the
        corresponding config fields.  A healthy, untraced replay is
        evaluated in closed form; anything else runs on the DES
        (:meth:`run_des`).

        Raises :class:`~repro.errors.ScheduleValidationError` if the
        replay observes link contention or a missed delivery deadline on a
        healthy machine, and the applicable
        :class:`~repro.errors.FaultInjectionError` subclass when an
        injected fault (``config.fault_trace``) causes the violation.
        """
        config = resolve_run_config(
            config,
            invocations=invocations,
            warmup=warmup,
            fault_trace=fault_trace,
        )
        if config.fault_trace is None and not config.tracer.enabled:
            outcome = self._closed_form(self._prepare(config))
            if outcome is not None:
                return self._result(config, *outcome)
        return self.run_des(config)

    def _prepare(self, config: RunConfig) -> FlightTable:
        """Validate the run length, unroll the flights and assert every
        delivery deadline statically (shared by both replay paths)."""
        invocations, warmup = config.invocations, config.warmup
        if invocations - warmup < 4:
            raise ScheduleValidationError(
                f"need >= 4 measured invocations, got {invocations} with "
                f"warmup={warmup}"
            )
        table = self._flight_table(invocations, config.fault_trace)
        if not table.messages:
            return table
        # Every routed message's last absolute slot (shifted by any
        # injected source-clock drift) must land before its destination
        # task's start.
        tfg = self.timing.tfg
        last_end = np.maximum.reduceat(table.end, table.first_column, axis=1)
        dst_start = np.array(
            [self._asap[tfg.message(name).dst][0] for name in table.messages]
        )
        due = table.period + dst_start
        late = last_end + table.shift > due + 1e-6
        if late.any():
            # Report the first miss in TFG message order, then invocation.
            rank = {message.name: i for i, message in enumerate(tfg.messages)}
            j, m = min(
                zip(*np.nonzero(late)),
                key=lambda jm: (rank[table.messages[jm[1]]], jm[0]),
            )
            name, shift = table.messages[m], float(table.shift[m])
            delivery, deadline = float(last_end[j, m]), float(due[j, m])
            if shift != 0.0:
                raise FaultedDeadlineError(name, deadline, delivery + shift)
            raise ScheduleValidationError(
                f"message {name!r} invocation {j}: delivery "
                f"at {delivery:.6f} misses destination start {deadline:.6f}"
            )
        return table

    def _closed_form(self, table: FlightTable) -> Outcome | None:
        """Evaluate a healthy replay as arrays.

        Returns ``None`` when some flight contends: the replay is then
        rejected, and the caller replays it on the DES to report the
        violation the DES detects first.
        """
        invocations, columns = table.start.shape
        start, end = table.start.ravel(), table.end.ravel()
        flights = start.size

        # Spawn order of the DES: flights sorted by (start, end, name, j).
        name_rank = np.argsort(np.argsort(np.array(table.messages)))
        spawn_order = np.lexsort((
            np.repeat(np.arange(invocations), columns),
            np.tile(name_rank[table.column_message], invocations),
            end,
            start,
        ))
        spawn = _ranks(spawn_order)
        # Flights starting at the same instant share a group.
        spawned = start[spawn_order]
        group = np.empty(flights, dtype=np.int64)
        group[spawn_order] = np.cumsum(np.r_[False, spawned[1:] != spawned[:-1]])

        # One claim per (flight, hop): flight-major, then in path order.
        link_ids: dict[Link, int] = {}
        hop_column: list[int] = []
        hop_index: list[int] = []
        hop_link: list[int] = []
        for k, m in enumerate(table.column_message.tolist()):
            for hop, link in enumerate(table.paths[m]):
                hop_column.append(k)
                hop_index.append(hop)
                hop_link.append(link_ids.setdefault(link, len(link_ids)))
        links = list(link_ids)
        hops = max(hop_index, default=0) + 1
        claim = np.repeat(
            np.arange(invocations, dtype=np.intp) * columns, len(hop_column)
        ) + np.tile(np.array(hop_column, dtype=np.intp), invocations)
        claim_hop = np.tile(np.array(hop_index, dtype=np.int64), invocations)
        claim_link = np.tile(np.array(hop_link, dtype=np.intp), invocations)
        claim_start, claim_end = start[claim], end[claim]

        # Contention: per link, claims in the order the DES requests them —
        # start, then hop (a flight claims its hops one agenda step apart),
        # then spawn order.  A claim is granted once every earlier claim's
        # flight has ended, so it waits for the running maximum of their
        # ends.
        request = (group[claim] * hops + claim_hop) * flights + spawn[claim]
        order = np.lexsort((request, claim_link))
        for a, b in _bounds(claim_link[order]):
            segment = order[a:b]
            granted = np.maximum.accumulate(claim_end[segment])[:-1]
            if (granted - claim_start[segment[1:]] > EPS).any():
                return None

        # Completions: the latest output-task finish of each invocation,
        # evaluated as the DES's timeouts are: (j*tau + t_s) + (t_f - t_s).
        outputs = [task.name for task in self.timing.tfg.output_tasks]
        if not outputs:  # pragma: no cover - defensive, as the DES
            raise ScheduleValidationError(
                f"{invocations} invocations never completed"
            )
        task_start = np.array([self._asap[name][0] for name in outputs])
        task_finish = np.array([self._asap[name][1] for name in outputs])
        finish = (table.period + task_start) + (task_finish - task_start)
        completion_times = tuple(finish.max(axis=1).tolist())

        # Link busy: each link sums its claims' (end - start) in the DES's
        # release order.  End-timeouts fire at start + (end - start), ties
        # in the order they were scheduled (earlier start, then shorter
        # path, then spawn order); a flight releases its hops in path
        # order.  Keys appear in order of each link's first release.
        path_length = np.array([len(path) for path in table.paths])
        retire = _ranks(np.lexsort((
            spawn,
            np.tile(path_length[table.column_message], invocations),
            start,
            start + (end - start),
        )))
        release = retire[claim] * hops + claim_hop
        order = np.lexsort((release, claim_link))
        held = (claim_end - claim_start)[order]
        runs = sorted(
            _bounds(claim_link[order]), key=lambda run: release[order[run[0]]]
        )
        link_busy = {
            links[claim_link[order[a]]]: float(np.add.accumulate(held[a:b])[-1])
            for a, b in runs
        }
        return completion_times, link_busy

    def run_des(self, config: RunConfig | None = None) -> RunResult:
        """Replay the schedule on the discrete-event kernel.

        :meth:`run` uses this path under a fault trace or an enabled
        tracer; call it directly to use the DES as an oracle for the
        closed form.  Raises as :meth:`run` does.
        """
        config = config if config is not None else RunConfig()
        table = self._prepare(config)
        invocations = config.invocations
        fault_trace, tracer = config.fault_trace, config.tracer
        env = Environment(tracer=tracer)
        links: dict[Link, Resource] = {
            link: Resource(env, capacity=1, name=str(link))
            for link in self.topology.links
        }
        injector = None
        if fault_trace is not None:
            from repro.faults.injection import FaultInjector

            injector = FaultInjector(env, links, fault_trace, self.topology)
        link_busy: dict[Link, float] = {}
        completions = Monitor("completions")
        outputs = [t.name for t in self.timing.tfg.output_tasks]
        pending = {j: len(outputs) for j in range(invocations)}

        def transmission(
            message_name: str, path: tuple[Link, ...], start: float, end: float
        ) -> Generator[Event, Any, None]:
            yield env.timeout(start - env.now if start > env.now else 0.0)
            held = []
            for link in path:
                if links[link].failed:
                    if tracer.enabled:
                        tracer.instant(
                            "fault",
                            "detection",
                            env.now,
                            track=str(link),
                            message=message_name,
                        )
                    raise LinkFailedError(link, message_name, env.now)
                request = links[link].request(owner=message_name)
                yield request
                assert request.grant_time is not None
                if request.grant_time - request.request_time > EPS:
                    if fault_trace is not None:
                        raise FaultInjectionError(
                            f"contention on {link} while transmitting "
                            f"{message_name!r} at t={env.now:.6f} under "
                            "injected faults (drift margin exceeded?)",
                            detection_time=env.now,
                        )
                    raise ScheduleValidationError(
                        f"contention on {link} while transmitting "
                        f"{message_name!r} at t={env.now:.6f}"
                    )
                held.append((link, request))
            yield env.timeout(end - env.now)
            for link, request in held:
                links[link].release(request)
                link_busy[link] = link_busy.get(link, 0.0) + (end - start)

        def task_run(task_name: str, invocation: int) -> Generator[Event, Any, None]:
            start, finish = self._asap[task_name]
            yield env.timeout(invocation * self.tau_in + start - env.now)
            # Deliveries due before this start were asserted statically.
            run_start = env.now
            yield env.timeout(finish - start)
            if tracer.enabled:
                tracer.span(
                    "task",
                    task_name,
                    run_start,
                    env.now,
                    track=f"node{self.allocation[task_name]}",
                    invocation=invocation,
                )
            if task_name in outputs:
                pending[invocation] -= 1
                if pending[invocation] == 0:
                    completions.record(env.now, invocation)
                    if tracer.enabled:
                        tracer.instant(
                            "run",
                            "completion",
                            env.now,
                            track="outputs",
                            invocation=invocation,
                        )

        for j in range(invocations):
            for task in self.timing.tfg.tasks:
                env.process(task_run(task.name, j))
        # Spawn transmissions sorted by absolute start so timeout waits are
        # non-negative relative to spawn order.
        flights = []
        names = [table.messages[m] for m in table.column_message.tolist()]
        shifts = table.shift[table.column_message].tolist()
        for j, (starts, ends) in enumerate(
            zip(table.start.tolist(), table.end.tolist())
        ):
            for name, shift, start, end in zip(names, shifts, starts, ends):
                flights.append((max(start + shift, 0.0), end + shift, name, j))
        paths = dict(zip(table.messages, table.paths))
        for start, end, name, j in sorted(flights):
            if tracer.enabled:
                # The *compiled* transmission window; the link-occupancy
                # spans emitted by the Resource record the *replayed* one
                # (the SR guarantee is that the two coincide).
                tracer.span(
                    "slot",
                    name,
                    start,
                    end,
                    track=f"msg {name}",
                    invocation=j,
                )
            env.process(transmission(name, paths[name], start, end))

        env.run()

        if len(completions) != invocations:  # pragma: no cover - defensive
            raise ScheduleValidationError(
                f"{invocations - len(completions)} invocations never completed"
            )
        completion_times = tuple(time for time, _ in completions)
        return self._result(
            config,
            completion_times,
            link_busy,
            None if injector is None else injector.events,
        )

    def _result(
        self,
        config: RunConfig,
        completion_times: tuple[float, ...],
        link_busy: dict[Link, float],
        fault_events: Any = None,
    ) -> RunResult:
        extra: dict[str, Any] = {
            "commands": self.routing.schedule.num_commands,
            "link_busy": link_busy,
            "invocations": config.invocations,
        }
        if fault_events is not None:
            extra["fault_events"] = fault_events
        return RunResult(
            tau_in=self.tau_in,
            completion_times=completion_times,
            warmup=config.warmup,
            critical_path_length=self.timing.critical_path().length,
            technique="scheduled",
            extra=extra,
            trace=config.tracer if isinstance(config.tracer, TraceRecorder) else None,
        )
