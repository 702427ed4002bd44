"""The arithmetic behind the reported numbers.

Kept apart from the workloads so it can be tested on hand-made samples
(``python3 -m pytest perfbench -q``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond its rank; below that, one outlier moves it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def nearest_rank(values: Sequence[float], percent: int) -> float:
    """The nearest-rank ``percent``-th percentile of ``values``.

    The smallest sample such that at least ``percent`` % of the samples
    are at or below it: rank ``ceil(percent * n / 100)``, 1-based.  The
    percent is an integer so the rank is exact integer arithmetic.
    Raises :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND`
    samples lie beyond that rank.
    """
    if not 0 < percent < 100:
        raise ValueError(f"percent must be in (0, 100), got {percent}")
    n = len(values)
    rank = max(1, -(-percent * n // 100))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{percent} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


@dataclass(frozen=True)
class Sent:
    """One open-loop request: when it was due, sent and answered (s)."""

    due: float
    sent: float
    done: float


def latency_from_due(request: Sent) -> float:
    """Latency as the user of an open loop sees it: answer minus due.

    A stall that delays the send of later requests is counted in their
    latency, instead of disappearing into a late send time.
    """
    return request.done - request.due


def generator_lag(requests: Sequence[Sent]) -> list[float]:
    """How late the generator itself sent each request of one stream.

    Requests of a stream share one connection, so a request cannot be
    sent before the previous one was answered; waiting for that is the
    system's delay (and shows in :func:`latency_from_due`).  Anything
    beyond ``max(due, previous answer)`` is the generator's own delay.
    """
    lags = []
    previous_done = float("-inf")
    for request in requests:
        lags.append(request.sent - max(request.due, previous_done))
        previous_done = request.done
    return lags


def median_block_rate(requests: Sequence[Sent], block: int) -> float:
    """Answers per second of a closed loop: the median over its blocks.

    ``requests`` are consecutive, each sent once the last was answered.
    Each run of ``block`` of them gives one rate (``block`` over the
    time from the first send to the last answer); a trailing partial
    block is left out.  A stall of the host slows the few blocks it
    falls in, and the median passes over them.
    """
    rates = [
        block / (requests[start + block - 1].done - requests[start].sent)
        for start in range(0, len(requests) - block + 1, block)
    ]
    if not rates:
        raise TooFewSamples(f"{len(requests)} requests fill no block of {block}")
    return statistics.median(rates)


def self_ms(compile_ms: float, cache_ms: float) -> float:
    """Compile time spent outside cache calls.

    Cache calls happen inside the compile call, so their time can never
    exceed it; a larger value means the two were not measured around
    the same calls.
    """
    if cache_ms > compile_ms:
        raise ValueError(
            f"cache time {cache_ms} ms exceeds compile time {compile_ms} ms"
        )
    return compile_ms - cache_ms
