"""Stratum membership of set specs on batches of ordered tuples.

The k-particle stratum of the configuration space over a box is the quotient
of the k-fold product box by permutations.  Cylinder objects evaluate on
ordered tuples X of shape (m, k, n) themselves; this module gives the
matching membership of the k-stratum sections of a SetSpec.
"""

from __future__ import annotations

import numpy as np

from .configuration import Configuration, SetSpec
from .geometry import BoxDomain

__all__ = ["stratum_indicator"]


def stratum_indicator(A: SetSpec, k: int, X: np.ndarray, window: BoxDomain) -> np.ndarray:
    """Vectorized membership of the k-stratum sections of A on ordered tuples."""
    m = X.shape[0]
    if A.variant == "count_at_least":
        if k == 0:
            counts = np.zeros(m)
        else:
            counts = np.sum(A.region.contains(X), axis=-1)
        return (counts >= A.threshold).astype(float)
    if A.variant in ("level_set", "level_sheet"):
        if A.count_equals is not None and k != A.count_equals:
            return np.zeros(m)
        vals = A.function.value(X)
        if A.variant == "level_sheet":
            return (vals == A.level).astype(float)
        return A.above_level(vals).astype(float)
    # generic predicate: per-tuple loop through Configuration objects
    out = np.empty(m)
    for i in range(m):
        pts = X[i] if k else np.zeros((0, window.dim))
        out[i] = 1.0 if A.contains(Configuration(window=window, points=pts)) else 0.0
    return out
