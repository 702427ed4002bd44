"""ABL-VC — Section 6 remark: the stricter wormhole model.

"In a stricter model, each channel will be multiplexed between two
virtual channels.  As a result, the bandwidth available to a message is
halved and the instances of OI are likely to increase."

This ablation runs the DVB/6-cube/B=128 sweep under both models and
counts OI instances.
"""

from benchmarks.conftest import (
    COMPILER, INVOCATIONS, LOADS, WARMUP, print_pipeline_figure,
)
from repro.experiments import pipeline_comparison, standard_setup
from repro.topology import binary_hypercube


def test_virtual_channels_increase_oi(benchmark, dvb):
    setup = standard_setup(dvb, binary_hypercube(6), 128.0)

    def sweep():
        plain = pipeline_comparison(
            setup, LOADS, invocations=INVOCATIONS, warmup=WARMUP,
            compiler_config=COMPILER, virtual_channels=1,
        )
        strict = pipeline_comparison(
            setup, LOADS, invocations=INVOCATIONS, warmup=WARMUP,
            compiler_config=COMPILER, virtual_channels=2,
        )
        return plain, strict

    plain, strict = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_pipeline_figure("ABL-VC baseline (1 channel)", plain)
    print_pipeline_figure("ABL-VC stricter model (2 virtual channels)", strict)
    oi_plain = sum(1 for p in plain if p.wr_oi)
    oi_strict = sum(1 for p in strict if p.wr_oi)
    print(f"\nOI instances: {oi_plain} (plain) vs {oi_strict} (2 VCs)")
    assert oi_strict >= oi_plain
