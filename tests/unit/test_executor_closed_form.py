"""Closed-form SR replay against the DES replay.

``ScheduledRoutingExecutor.run`` evaluates a healthy, untraced replay as
arrays; ``run_des`` replays the same schedule on the discrete-event
kernel.  An accepted replay must agree bit for bit (completion times,
link busy times and their key order); a rejected one must raise the same
error class with the same message on both paths.
"""

import pytest

import repro.core.executor as executor_module
from repro.core.compiler import compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.core.switching import TransmissionSlot
from repro.errors import ReproError, ScheduleValidationError
from repro.results import RunConfig
from repro.tfg import TFGTiming
from repro.tfg.synth import chain_tfg, fan_tfg
from repro.trace import TraceRecorder
from repro.units import EPS

CONFIG = RunConfig(invocations=12, warmup=2)


def assert_identical(executor, config=CONFIG):
    closed = executor.run(config=config)
    des = executor.run_des(config)
    assert closed.completion_times == des.completion_times
    assert list(closed.extra["link_busy"].items()) == list(
        des.extra["link_busy"].items()
    )
    return closed


def assert_same_error(executor, config=CONFIG):
    with pytest.raises(ReproError) as closed:
        executor.run(config=config)
    with pytest.raises(ReproError) as des:
        executor.run_des(config)
    assert type(closed.value) is type(des.value)
    assert str(closed.value) == str(des.value)
    return closed.value


def retime(routing, name, start=None, duration=None, path=None):
    """Replace every slot of ``name`` with a retimed/rerouted copy."""
    routing.schedule.slots[name] = tuple(
        TransmissionSlot(
            s.message,
            s.start if start is None else start,
            s.duration if duration is None else duration,
            s.path if path is None else path,
        )
        for s in routing.schedule.slots[name]
    )


class TestAcceptedReplays:
    def test_chain(self, chain_routing):
        result = assert_identical(ScheduledRoutingExecutor(*chain_routing))
        assert not result.has_oi()

    @pytest.mark.parametrize("load", [0.2, 0.6, 1.0])
    def test_fig7b_loads(self, dvb_setup_128, load):
        setup = dvb_setup_128
        routing = compile_schedule(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(load),
        )
        executor = ScheduledRoutingExecutor(
            routing, setup.timing, setup.topology, setup.allocation
        )
        result = assert_identical(
            executor, RunConfig(invocations=48, warmup=12)
        )
        assert result.throughput_stats().mean == pytest.approx(1.0)

    def test_all_messages_local(self, cube3):
        """Co-located tasks route nothing: an empty flight table."""
        timing = TFGTiming(chain_tfg(3, 400, 1280), 128.0, speeds=40.0)
        allocation = {"t0": 0, "t1": 0, "t2": 0}
        routing = compile_schedule(timing, cube3, allocation, tau_in=40.0)
        assert not routing.schedule.slots
        result = assert_identical(
            ScheduledRoutingExecutor(routing, timing, cube3, allocation)
        )
        assert result.extra["link_busy"] == {}

    def test_untraced_run_never_builds_the_kernel(
        self, chain_routing, monkeypatch
    ):
        def no_kernel(*args, **kwargs):
            raise AssertionError("closed form built a DES environment")

        monkeypatch.setattr(executor_module, "Environment", no_kernel)
        ScheduledRoutingExecutor(*chain_routing).run(config=CONFIG)

    def test_traced_run_takes_the_des(self, chain_routing):
        tracer = TraceRecorder()
        result = ScheduledRoutingExecutor(*chain_routing).run(
            config=CONFIG.replace(tracer=tracer)
        )
        assert result.trace is tracer
        assert tracer.select("link")


class TestRejectedReplays:
    def test_shifted_slots_core_executor(self, chain_routing):
        """The shift of ``test_core_executor``: +7 into the frame."""
        routing = chain_routing[0]
        name = next(iter(routing.schedule.slots))
        slot = routing.schedule.slots[name][0]
        retime(routing, name, start=(slot.start + 7.0) % routing.tau_in)
        assert isinstance(
            assert_same_error(ScheduledRoutingExecutor(*chain_routing)),
            ScheduleValidationError,
        )

    def test_shifted_slots_schedule_tampering(self, chain_routing):
        """The shift of ``test_schedule_tampering``: +11 into the frame."""
        routing = chain_routing[0]
        name = next(iter(routing.schedule.slots))
        slot = routing.schedule.slots[name][0]
        retime(routing, name, start=(slot.start + 11.0) % routing.tau_in)
        assert isinstance(
            assert_same_error(ScheduledRoutingExecutor(*chain_routing)),
            ScheduleValidationError,
        )

    def test_deadline_miss(self, chain_routing):
        """m1 stretched 5us past its destination's start."""
        routing = chain_routing[0]
        retime(routing, "m1", duration=15.0)
        error = assert_same_error(ScheduledRoutingExecutor(*chain_routing))
        assert "'m1' invocation 0" in str(error)
        assert "misses destination start" in str(error)

    def test_needs_enough_invocations(self, chain_routing):
        error = assert_same_error(
            ScheduledRoutingExecutor(*chain_routing), RunConfig(invocations=5, warmup=2)
        )
        assert "need >= 4 measured invocations" in str(error)

    def test_first_violation_behind_a_waiting_flight(self, cube6):
        """The DES names the violation it detects first, which the arrays
        cannot: out1 waits on (0, 1) behind out0 until 16 and has not yet
        claimed (0, 2), so out3 is blocked there only by out2 and is
        detected at 13 — while the arrays, which see out1 holding (0, 2)
        from 11 to 19, would grant out3 at 19 and name out1 at 16."""
        tfg = fan_tfg(4, ops=400.0, size_bytes=1280.0)
        timing = TFGTiming(tfg, 128.0, speeds=40.0)
        allocation = {"src": 0, "mid0": 1, "mid1": 2, "mid2": 4,
                      "mid3": 8, "sink": 3}
        routing = compile_schedule(timing, cube6, allocation, tau_in=80.0)
        for name, start, duration, path in [
            ("out0", 10.0, 6.0, (0, 1)),
            ("out1", 11.0, 8.0, (1, 0, 2)),
            ("out2", 10.0, 3.0, (0, 2)),
            ("out3", 12.0, 3.0, (0, 2)),
        ]:
            retime(routing, name, start=start, duration=duration, path=path)
        error = assert_same_error(
            ScheduledRoutingExecutor(routing, timing, cube6, allocation)
        )
        assert str(error) == (
            "contention on (0, 2) while transmitting 'out3' at t=13.000000"
        )

    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    def test_fig7b_path_swaps(self, dvb_setup_128, victim):
        """One message moved onto the next message's path: the replays
        accept or reject together, rejecting with the same message."""
        setup = dvb_setup_128
        routing = compile_schedule(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(0.6),
        )
        names = list(routing.schedule.slots)
        donor = routing.schedule.slots[names[victim + 1]][0]
        retime(routing, names[victim], path=donor.path)
        executor = ScheduledRoutingExecutor(
            routing, setup.timing, setup.topology, setup.allocation
        )
        config = RunConfig(invocations=24, warmup=4)
        try:
            executor.run_des(config)
        except ReproError:
            assert_same_error(executor, config)
        else:
            assert_identical(executor, config)


class TestSharedLinkEdges:
    """m0 shortened to [10, 15] and m2 moved onto m0's link (0, 1) at
    frame ``15 - overlap``: m0 of invocation j+1 occupies [50, 55] + 40j
    and m2 of invocation j follows it at 55 - overlap."""

    @staticmethod
    def share_link(chain_routing, overlap):
        routing = chain_routing[0]
        retime(routing, "m0", duration=5.0)
        retime(routing, "m2", start=15.0 - overlap, duration=5.0,
               path=(0, 1))
        return ScheduledRoutingExecutor(*chain_routing)

    def test_back_to_back_accepted(self, chain_routing):
        executor = self.share_link(chain_routing, 0.0)
        m0 = executor.absolute_slots("m0", 1)[0]
        m2 = executor.absolute_slots("m2", 0)[0]
        assert m0[1] == m2[0]
        result = assert_identical(executor)
        assert result.extra["link_busy"][(0, 1)] == pytest.approx(
            2 * 5.0 * CONFIG.invocations
        )

    def test_overlap_within_eps_accepted(self, chain_routing):
        assert_identical(self.share_link(chain_routing, EPS / 2))

    @pytest.mark.parametrize("overlap", [2 * EPS, 0.1])
    def test_overlap_beyond_eps_rejected(self, chain_routing, overlap):
        error = assert_same_error(self.share_link(chain_routing, overlap))
        assert isinstance(error, ScheduleValidationError)
        assert str(error).startswith("contention on (0, 1) while transmitting")
