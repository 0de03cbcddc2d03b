"""Summaries the benchmark reports: tail percentiles, medians, TV error."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Mapping, Sequence

import numpy as np

from repro.core.projection import clip_and_rescale

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def supported_percentile(n: int, wanted: float = 99.0) -> float:
    """The highest percentile <= ``wanted`` with ``MIN_BEYOND`` samples beyond.

    With ``n`` samples, ``n * (1 - q/100)`` of them lie beyond the
    q-th percentile; q is lowered until that is at least
    ``MIN_BEYOND``. Returns 0.0 when even the median lacks support.
    """
    if n < MIN_BEYOND:
        return 0.0
    # Tenths of a percent, in integers so 1000 samples give exactly 99.0.
    best_tenths = (1000 * (n - MIN_BEYOND)) // n
    return min(wanted, best_tenths / 10.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(samples_s: Sequence[float]) -> dict:
    """p50 and the supported tail (<= p99) in ms, with the sample count."""
    n = len(samples_s)
    q = supported_percentile(n)
    return {
        "p50_ms": percentile(samples_s, 50.0) * 1e3 if n else 0.0,
        "tail_ms": percentile(samples_s, q) * 1e3 if q else 0.0,
        "tail_q": q,
        "samples": n,
    }


def quieter_half(steal_shares: Sequence[float]) -> list:
    """Indices of the segments whose host CPU steal is at most the median.

    Steal is time the hypervisor gave this machine's CPUs to someone
    else. Slow stretches of a run coincide with it, so metrics are taken
    over the quieter half of a phase's segments (ties keep more).
    """
    if not steal_shares:
        return []
    cut = statistics.median(steal_shares)
    return [i for i, share in enumerate(steal_shares) if share <= cut]


def tv_distance(estimate, truth) -> float:
    return 0.5 * float(np.abs(np.asarray(estimate) - np.asarray(truth)).sum())


def block_tv_errors(
    served: Sequence[Mapping[str, Sequence[float]]],
    totals: Sequence[int],
    truths: Sequence[Mapping[str, np.ndarray]],
) -> list:
    """Mean-over-attributes TV error of each block, from cumulative answers.

    ``served[b]`` are the unrepaired marginals served after blocks
    ``0..b`` (``totals[b]`` reports in all). The unrepaired estimate is
    linear in the counts, so ``n_b * est_b - n_{b-1} * est_{b-1}`` is
    the block's own unrepaired estimate times its size; it gets the
    paper's clip-and-rescale repair before the TV distance is taken.
    """
    errors = []
    previous: Dict[str, np.ndarray] = {}
    previous_total = 0
    for answer, total, truth in zip(served, totals, truths):
        size = total - previous_total
        per_attribute = []
        for name, true in truth.items():
            cumulative = np.asarray(answer[name], dtype=np.float64) * total
            block = cumulative - previous.get(name, 0.0)
            per_attribute.append(tv_distance(clip_and_rescale(block / size), true))
            previous[name] = cumulative
        previous_total = total
        errors.append(float(np.mean(per_attribute)))
    return errors
