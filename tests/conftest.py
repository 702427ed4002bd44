"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.core.compiler import compile_schedule
from repro.experiments import standard_setup
from repro.mapping import sequential_allocation
from repro.tfg import TFGTiming, dvb_tfg
from repro.tfg.graph import build_tfg
from repro.tfg.synth import chain_tfg, fan_tfg
from repro.topology import GeneralizedHypercube, Mesh, Torus, binary_hypercube

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


# -- topologies ----------------------------------------------------------------

@pytest.fixture(scope="session")
def cube3():
    """Binary 3-cube: 8 nodes, 12 links."""
    return binary_hypercube(3)


@pytest.fixture(scope="session")
def cube6():
    """Binary 6-cube: the paper's 64-node hypercube."""
    return binary_hypercube(6)


@pytest.fixture(scope="session")
def ghc444():
    """GHC(4,4,4): the paper's 64-node generalized hypercube."""
    return GeneralizedHypercube((4, 4, 4))


@pytest.fixture(scope="session")
def torus44():
    """Small 4x4 torus for fast tests."""
    return Torus((4, 4))


@pytest.fixture(scope="session")
def torus88():
    """8x8 torus from the paper's evaluation."""
    return Torus((8, 8))


@pytest.fixture(scope="session")
def mesh44():
    """4x4 open mesh."""
    return Mesh((4, 4))


# -- workloads -----------------------------------------------------------------

@pytest.fixture(scope="session")
def dvb5():
    """The benchmark DVB workload (5 object models)."""
    return dvb_tfg(5)


@pytest.fixture()
def tiny_tfg():
    """Three tasks in a chain with two messages — smallest useful TFG."""
    return chain_tfg(3, ops=400.0, size_bytes=1280.0)


@pytest.fixture()
def diamond_tfg():
    """Diamond: one source, two parallel middles, one sink."""
    return build_tfg(
        "diamond",
        [("s", 400), ("m1", 400), ("m2", 400), ("t", 400)],
        [
            ("a", "s", "m1", 640),
            ("b", "s", "m2", 1280),
            ("c", "m1", "t", 640),
            ("d", "m2", "t", 1280),
        ],
    )


@pytest.fixture()
def fan4_tfg():
    """Fan-out/fan-in with four parallel middles."""
    return fan_tfg(4, ops=400.0, size_bytes=1280.0)


# -- bound setups ---------------------------------------------------------------

@pytest.fixture()
def tiny_timing(tiny_tfg):
    """Chain timing: all tasks 10us, messages 10us at B=128."""
    return TFGTiming(tiny_tfg, bandwidth=128.0, speeds=40.0)


@pytest.fixture()
def chain_routing(cube3):
    """A compiled 4-task chain on the 3-cube at tau_in=40: one 10us slot
    per message, all times exact in binary floating point."""
    timing = TFGTiming(chain_tfg(4, 400, 1280), 128.0, speeds=40.0)
    allocation = {"t0": 0, "t1": 1, "t2": 3, "t3": 7}
    routing = compile_schedule(timing, cube3, allocation, tau_in=40.0)
    return routing, timing, cube3, allocation


@pytest.fixture(scope="session")
def dvb_setup_128(dvb5, cube6):
    """Paper-standard DVB setup on the 6-cube at B=128 (always feasible)."""
    return standard_setup(dvb5, cube6, bandwidth=128.0)


@pytest.fixture(scope="session")
def dvb_setup_64(dvb5, cube6):
    """Paper-standard DVB setup on the 6-cube at B=64."""
    return standard_setup(dvb5, cube6, bandwidth=64.0)


@pytest.fixture()
def small_setup(cube3):
    """A small full setup: diamond TFG on the 3-cube."""
    tfg = build_tfg(
        "diamond",
        [("s", 400), ("m1", 400), ("m2", 400), ("t", 400)],
        [
            ("a", "s", "m1", 640),
            ("b", "s", "m2", 1280),
            ("c", "m1", "t", 640),
            ("d", "m2", "t", 1280),
        ],
    )
    return standard_setup(tfg, cube3, bandwidth=64.0,
                          allocator=sequential_allocation)
