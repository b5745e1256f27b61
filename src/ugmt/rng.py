"""Counter-based random streams and deterministic reductions.

Every stochastic routine in the package draws from a Philox generator keyed
by (seed, stream index).  Streams are independent and addressable: a draw
depends only on its key, so results do not depend on the order in which
streams are opened, only on the order in which their outputs are reduced.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream_rng", "mean_and_stderr"]


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the given (seed, stream) pair; independent across streams."""
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error with pairwise (numpy) summation.

    The reduction order is fixed by the array order, so results are
    reproducible regardless of how the values were produced.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("no samples")
    mean = float(np.sum(values) / n)
    if n == 1:
        return mean, 0.0
    var = float(np.sum((values - mean) ** 2) / (n - 1))
    return mean, float(np.sqrt(var / n))
