"""Unit tests for the scheduled-routing executor."""

import pytest

from repro.core.executor import ScheduledRoutingExecutor
from repro.core.switching import TransmissionSlot
from repro.errors import ScheduleValidationError


class TestAbsoluteSlots:
    def test_periodicity(self, chain_routing):
        routing, timing, topo, allocation = chain_routing
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        for name in routing.schedule.slots:
            s0 = executor.absolute_slots(name, 0)
            s3 = executor.absolute_slots(name, 3)
            for (a0, b0), (a3, b3) in zip(s0, s3):
                assert a3 - a0 == pytest.approx(3 * routing.tau_in)
                assert b3 - b0 == pytest.approx(3 * routing.tau_in)

    def test_slots_inside_message_window(self, chain_routing):
        routing, timing, topo, allocation = chain_routing
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        asap = timing.asap_schedule()
        for name in routing.schedule.slots:
            message = timing.tfg.message(name)
            for j in (0, 2):
                release = j * routing.tau_in + asap[message.src][1]
                deadline = release + timing.message_window
                for start, end in executor.absolute_slots(name, j):
                    assert start >= release - 1e-9
                    assert end <= deadline + 1e-9

    def test_total_time_matches_duration(self, chain_routing):
        routing, timing, topo, allocation = chain_routing
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        for name in routing.schedule.slots:
            total = sum(
                end - start for start, end in executor.absolute_slots(name, 1)
            )
            assert total == pytest.approx(timing.xmit_time(name))


class TestRun:
    def test_constant_throughput(self, chain_routing):
        routing, timing, topo, allocation = chain_routing
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        result = executor.run(invocations=16, warmup=2)
        assert result.technique == "scheduled"
        assert not result.has_oi()
        stats = result.throughput_stats()
        assert stats.minimum == pytest.approx(1.0)
        assert stats.maximum == pytest.approx(1.0)

    def test_latency_equals_windowed_asap(self, chain_routing):
        routing, timing, topo, allocation = chain_routing
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        result = executor.run(invocations=16, warmup=2)
        expected = timing.asap_latency() / timing.critical_path().length
        stats = result.latency_stats()
        assert stats.minimum == pytest.approx(expected)
        assert stats.maximum == pytest.approx(expected)

    def test_needs_enough_invocations(self, chain_routing):
        routing, timing, topo, allocation = chain_routing
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        with pytest.raises(ScheduleValidationError):
            executor.run(invocations=4, warmup=2)

    def test_tampered_schedule_detected(self, chain_routing):
        """Injecting a contention bug into Omega must be caught at replay."""
        routing, timing, topo, allocation = chain_routing
        # Shift one message's slots outside its window / onto a busy link.
        name = next(iter(routing.schedule.slots))
        slots = routing.schedule.slots[name]
        shifted = tuple(
            TransmissionSlot(s.message, (s.start + 7.0) % routing.tau_in,
                             s.duration, s.path)
            for s in slots
        )
        routing.schedule.slots[name] = shifted
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        with pytest.raises(ScheduleValidationError):
            executor.run(invocations=12, warmup=2)
