"""Stratum membership of set specs on batches of ordered tuples.

The k-particle stratum of the configuration space over a box is the quotient
of the k-fold product box by permutations.  Cylinder objects evaluate on
ordered tuples X of shape (m, k, n) themselves; this module gives the
matching membership of the k-stratum sections of a SetSpec, the one
membership evaluator of the package.  Every SetSpec is a count or a level
condition, so membership is one array expression over the whole stack, and
the empty configuration is the one row of ``np.zeros((1, 0, n))``.
"""

from __future__ import annotations

import numpy as np

from .configuration import SetSpec

__all__ = ["stratum_indicator"]


def stratum_indicator(A: SetSpec, k: int, X: np.ndarray) -> np.ndarray:
    """Membership (0 or 1) of the k-stratum section of A on ordered tuples
    X (m, k, n), shape (m,)."""
    if A.variant == "count":
        counts = np.sum(A.region.contains(X), axis=-1)
        inside = counts >= A.at_least
        if A.at_most is not None:
            inside &= counts <= A.at_most
        return inside.astype(float)
    if A.count_equals is not None and k != A.count_equals:
        return np.zeros(X.shape[0])
    vals = A.function.value(X)
    if A.variant == "level_sheet":
        return (vals == A.level).astype(float)
    return A.above_level(vals).astype(float)
