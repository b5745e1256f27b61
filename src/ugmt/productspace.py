"""Stratum membership of set specs on batches of ordered tuples.

The k-particle stratum of the configuration space over a box is the quotient
of the k-fold product box by permutations.  Cylinder objects evaluate on
ordered tuples X of shape (m, k, n) themselves; this module gives the
matching membership of the k-stratum sections of a SetSpec.
"""

from __future__ import annotations

import numpy as np

from .configuration import Configuration, SetSpec, _canonical
from .geometry import BoxDomain, DomainError

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
    # generic predicate: validate the whole batch as the Configuration
    # constructor would, then ask the predicate tuple by tuple
    if k and not np.all(window.contains(X.reshape(-1, window.dim), tol=1e-12)):
        raise DomainError("points must lie in the window")
    if k > 1:
        same = np.all(X[:, :, None, :] == X[:, None, :, :], axis=-1)
        if np.any(same & ~np.eye(k, dtype=bool)):
            raise DomainError("multiplicity one violated: duplicate point")
    out = np.empty(m)
    for i in range(m):
        gamma = Configuration._unsafe(window, _canonical(X[i]))
        out[i] = 1.0 if A.contains(gamma) else 0.0
    return out
