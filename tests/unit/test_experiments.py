"""Unit tests for the experiment drivers and standard setup."""

import pytest

from repro.core.compiler import CompilerConfig
from repro.experiments import (
    pipeline_comparison,
    standard_setup,
    utilization_comparison,
)
from repro.mapping import bfs_allocation
from repro.tfg.synth import chain_tfg


class TestStandardSetup:
    def test_paper_calibration_b64(self, dvb5, cube6):
        setup = standard_setup(dvb5, cube6, bandwidth=64.0)
        assert setup.timing.tau_m / setup.timing.tau_c == pytest.approx(1.0)
        assert setup.tau_c == pytest.approx(50.0)

    def test_paper_calibration_b128(self, dvb5, cube6):
        setup = standard_setup(dvb5, cube6, bandwidth=128.0)
        # Same machine, double bandwidth: tau_m/tau_c = 0.5.
        assert setup.timing.tau_m / setup.timing.tau_c == pytest.approx(0.5)
        assert setup.tau_c == pytest.approx(50.0)

    def test_load_to_period(self, dvb_setup_64):
        assert dvb_setup_64.tau_in_for_load(1.0) == pytest.approx(50.0)
        assert dvb_setup_64.tau_in_for_load(0.2) == pytest.approx(250.0)
        with pytest.raises(ValueError):
            dvb_setup_64.tau_in_for_load(0.0)
        with pytest.raises(ValueError):
            dvb_setup_64.tau_in_for_load(1.5)

    def test_custom_allocator(self, dvb5, cube6):
        setup = standard_setup(dvb5, cube6, 64.0, allocator=bfs_allocation)
        assert setup.allocation == bfs_allocation(dvb5, cube6)

    def test_explicit_allocation_overrides(self, cube3):
        tfg = chain_tfg(3, 400, 1280)
        manual = {"t0": 7, "t1": 6, "t2": 5}
        setup = standard_setup(tfg, cube3, 64.0, allocation=manual)
        assert setup.allocation == manual


class TestUtilizationComparison:
    def test_heuristic_never_worse(self, small_setup):
        points = utilization_comparison(
            small_setup, [0.3, 0.7, 1.0], seed=0, max_restarts=1
        )
        assert len(points) == 3
        for point in points:
            assert point.u_heuristic <= point.u_lsd + 1e-9
            assert point.tau_in == pytest.approx(
                small_setup.tau_c / point.load
            )


class TestPipelineComparison:
    def test_small_sweep(self, small_setup):
        points = pipeline_comparison(
            small_setup, [0.5, 1.0], invocations=14, warmup=2,
            compiler_config=CompilerConfig(max_paths=12, max_restarts=1),
        )
        assert len(points) == 2
        for point in points:
            assert not point.wr_deadlock
            assert point.wr_throughput is not None
            if point.sr_feasible:
                assert point.sr_throughput == pytest.approx(1.0)
                assert point.sr_fail_stage is None
                assert point.sr_status == "feasible"
            else:
                assert point.sr_fail_stage is not None
                assert "infeasible" in point.sr_status

    def test_replayed_sr_latency_is_windowed_asap(self, small_setup):
        """Every feasible point is replayed, and the replay measures the
        analytic SR latency: the windowed ASAP latency over Lambda."""
        points = pipeline_comparison(
            small_setup, [1.0], invocations=14, warmup=2,
            compiler_config=CompilerConfig(max_paths=12, max_restarts=1),
        )
        point = points[0]
        assert point.sr_feasible
        expected = (
            small_setup.timing.asap_latency()
            / small_setup.timing.critical_path().length
        )
        assert point.sr_latency == pytest.approx(expected)
        assert point.sr_throughput == pytest.approx(1.0)
