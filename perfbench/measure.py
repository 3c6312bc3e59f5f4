"""Pure helpers of the benchmark: quantiles, schedules, span arithmetic.

Everything here is deterministic and free of I/O so that the self-tests
in ``test_perfbench.py`` can pin it down exactly.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond it (p50 needs 20 samples, p99 needs 1000).
SAMPLES_BEYOND = 10


def samples_needed(q: float) -> int:
    """Smallest sample count for which quantile ``q`` may be reported."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"quantile must be in [0, 1), got {q}")
    return math.ceil(SAMPLES_BEYOND / (1.0 - q) - 1e-9)


def percentile_ok(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least 10 beyond quantile ``q``."""
    return n >= samples_needed(q)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method).

    ``math.inf`` entries (failed or timed-out requests) sort last, so a
    failure share above ``1 - q`` makes the quantile infinite.
    """
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == math.inf:
        return ordered[lo] if pos == lo else math.inf
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def poisson_offsets(seed: int, tag: int, rate: float, duration: float) -> list[float]:
    """Seeded Poisson arrivals: ``round(rate * duration)`` offsets in
    ``[0, duration)``, ascending.

    A Poisson process conditioned on its arrival count places the
    arrivals as sorted independent uniforms, so the count — and with it
    the sample size of every percentile — is fixed by the rate alone.
    """
    n = int(round(rate * duration))
    if n <= 0:
        return []
    rng = np.random.default_rng([int(seed), int(tag)])
    return sorted(float(x) for x in rng.uniform(0.0, duration, size=n))


def block_mix(seed: int, tag: int, shares: Mapping[str, float], n: int, block: int = 10) -> list[str]:
    """``n`` request kinds in the given shares, exactly per block of
    ``block`` requests and in seeded random order within each block."""
    counts = {k: int(round(v * block)) for k, v in shares.items()}
    exact = all(abs(v * block - counts[k]) < 1e-9 for k, v in shares.items())
    if not exact or sum(counts.values()) != block:
        raise ValueError(f"shares {dict(shares)} do not split a block of {block}")
    pattern = [k for k, c in counts.items() for _ in range(c)]
    rng = np.random.default_rng([int(seed), int(tag)])
    kinds: list[str] = []
    while len(kinds) < n:
        kinds.extend(pattern[i] for i in rng.permutation(block))
    return kinds[:n]


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(start, end, children)


def reconcile(
    name: str, total: int, parts: Mapping[str, int]
) -> str | None:
    """``None`` when ``total`` equals the sum of ``parts``; else a report
    naming every counter value, so a broken ledger explains itself."""
    got = sum(int(v) for v in parts.values())
    if int(total) == got:
        return None
    terms = " + ".join(f"{k}={v}" for k, v in parts.items())
    return f"{name}: {total} != {terms} (= {got})"
