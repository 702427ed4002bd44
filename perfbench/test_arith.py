"""Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench -q``."""

import pytest

from arith import (
    MIN_BEYOND,
    Sent,
    TooFewSamples,
    generator_lag,
    latency_from_due,
    median_block_rate,
    nearest_rank,
    self_ms,
)


class TestNearestRank:
    def test_rank_is_ceiling_of_share(self):
        values = list(range(1, 101))  # 1..100
        assert nearest_rank(values, 50) == 50
        assert nearest_rank(values, 90) == 90

    def test_order_of_input_does_not_matter(self):
        values = [float(v) for v in range(200, 0, -1)]
        assert nearest_rank(values, 50) == 100.0

    def test_exact_integer_rank(self):
        # 0.9 * 100 is 90.00000000000001 in floats; the rank must be 90.
        assert nearest_rank(list(range(1, 101)), 90) == 90

    def test_refuses_fewer_than_ten_beyond(self):
        with pytest.raises(TooFewSamples):
            nearest_rank(list(range(99)), 90)  # rank 90, 9 beyond
        with pytest.raises(TooFewSamples):
            nearest_rank(list(range(999)), 99)  # rank 990, 9 beyond

    def test_accepts_exactly_ten_beyond(self):
        assert nearest_rank(list(range(1, 101)), 90) == 90  # 10 beyond
        assert nearest_rank(list(range(1, 1001)), 99) == 990
        assert MIN_BEYOND == 10

    def test_median_needs_twenty_samples(self):
        with pytest.raises(TooFewSamples):
            nearest_rank(list(range(19)), 50)
        assert nearest_rank(list(range(1, 21)), 50) == 10

    def test_percent_out_of_range(self):
        with pytest.raises(ValueError):
            nearest_rank(list(range(100)), 100)


class TestOpenLoop:
    def test_latency_counts_from_due_time(self):
        # Due at 1.0, sent late at 1.5 because the connection was busy,
        # answered at 1.6: the user waited 0.6, not 0.1.
        assert latency_from_due(Sent(due=1.0, sent=1.5, done=1.6)) == (
            pytest.approx(0.6)
        )

    def test_stall_is_charged_to_later_requests(self):
        # Requests due every 10 ms; the first takes 35 ms, so the next
        # three are sent when the connection frees up.
        stream = [
            Sent(due=0.000, sent=0.000, done=0.035),
            Sent(due=0.010, sent=0.035, done=0.036),
            Sent(due=0.020, sent=0.036, done=0.037),
            Sent(due=0.030, sent=0.037, done=0.038),
            Sent(due=0.040, sent=0.040, done=0.041),
        ]
        latencies = [latency_from_due(s) for s in stream]
        assert latencies == pytest.approx([0.035, 0.026, 0.017, 0.008, 0.001])
        # None of that was the generator's fault.
        assert generator_lag(stream) == pytest.approx([0.0] * 5)

    def test_generator_lag_is_send_beyond_due_and_free_connection(self):
        stream = [
            Sent(due=0.0, sent=0.002, done=0.003),  # 2 ms late
            Sent(due=0.001, sent=0.004, done=0.005),  # 1 ms after free
        ]
        assert generator_lag(stream) == pytest.approx([0.002, 0.001])


class TestClosedLoopRate:
    def test_median_over_blocks_passes_over_a_stall(self):
        # Back-to-back requests of 0.1 s each, but the fourth block of
        # two stalls for a second: the median block still reads 10/s.
        stream, t = [], 0.0
        for index in range(10):
            took = 1.1 if index == 7 else 0.1
            stream.append(Sent(due=t, sent=t, done=t + took))
            t += took
        assert median_block_rate(stream, 2) == pytest.approx(10.0)

    def test_partial_block_is_left_out(self):
        stream = [Sent(0.0, 0.0, 0.5), Sent(0.5, 0.5, 1.0),
                  Sent(1.0, 1.0, 9.0)]
        assert median_block_rate(stream, 2) == pytest.approx(2.0)

    def test_no_full_block(self):
        with pytest.raises(TooFewSamples):
            median_block_rate([Sent(0.0, 0.0, 1.0)], 2)


class TestSelfTime:
    def test_compile_minus_cache_calls(self):
        assert self_ms(1429.75, 149.75) == pytest.approx(1280.0)

    def test_no_cache_calls(self):
        assert self_ms(12.5, 0.0) == 12.5

    def test_cache_time_cannot_exceed_compile_time(self):
        with pytest.raises(ValueError):
            self_ms(10.0, 10.5)
