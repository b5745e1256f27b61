"""Finite point configurations, Poisson sampling, and Borel set descriptions.

A configuration is a finite multiplicity-one point pattern in a box window,
held as a point array (k, n); a batch of k-point configurations is a tuple
stack (m, k, n).  Cylinder objects are symmetric in their particles, so the
order of a pattern's rows matters only to the floating-point order of its
sums; ``_in_point_order`` puts each configuration's points in lexicographic
order where a fixed summation order is wanted.

Poisson configurations are drawn by ``poisson_configurations`` in bulk: the
counts of all the configurations a stream gives from one ``rng.poisson`` call,
and all their points from one ``rng.random`` block.  ``by_count`` groups the
ragged output into (m_k, k, n) stacks by particle count.

A set description (``SetSpec``) is a count condition {lo <= N(region) <= hi}
or a level condition on a cylinder function, so its membership on a tuple
stack is one array expression (``productspace.stratum_indicator``), and its
section at an outside pattern (``section_set``) is a set description of the
same variant: a level condition's function takes the pattern's linear
statistics as an offset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import BoxDomain, DomainError

__all__ = [
    "MCEstimate",
    "SetSpec",
    "CollisionError",
    "by_count",
    "poisson_configurations",
    "section_set",
]

_SAMPLE_RETRIES = 10


class CollisionError(RuntimeError):
    """Exact point collision persisted through the retry cap."""


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo result: mean, standard error, sample count, and seed."""

    mean: float
    std_err: float
    n_samples: int
    seed: int
    name: str = ""

    def __post_init__(self):
        if self.std_err < 0:
            raise ValueError("std_err must be nonnegative")

    def within(self, target: float, k_sigma: float = 3.0) -> bool:
        return abs(self.mean - target) <= k_sigma * self.std_err


# ---------------------------------------------------------------------------
# Poisson sampling (intensity = Lebesgue measure on the window)


def poisson_configurations(window: BoxDomain, rng: np.random.Generator, m: int
                           ) -> tuple[np.ndarray, np.ndarray]:
    """The next m Poisson configurations of rng, as counts (m,) and points
    (counts.sum(), n): configuration i is the counts[i] rows that follow the
    rows of configurations 0, ..., i - 1.

    The counts are one ``rng.poisson(volume, m)`` draw and the points one
    ``rng.random`` block mapped to low + (high - low) u.  A configuration with
    two equal points keeps its count and has its points redrawn from rng, up
    to ``_SAMPLE_RETRIES`` draws in all; equal points are found by one sort
    per round, with the configuration as the leading key.
    """
    n = window.dim
    low, span = np.array(window.lower), np.subtract(window.upper, window.lower)

    def uniform(rows):
        pts = rng.random((rows, n))
        pts *= span
        pts += low
        return pts

    counts = rng.poisson(window.volume, size=m)
    points = uniform(int(counts.sum()))
    owner = np.repeat(np.arange(m), counts)
    rows = np.arange(points.shape[0])   # the rows of configurations not yet checked
    for attempt in range(_SAMPLE_RETRIES):
        if attempt:
            points[rows] = uniform(rows.size)
        own = owner[rows]
        order = np.lexsort((*points[rows].T[::-1], own))
        o, s = own[order], points[rows[order]]
        same = (o[1:] == o[:-1]) & np.all(s[1:] == s[:-1], axis=1)
        if not same.any():
            return counts, points
        rows = rows[np.isin(own, o[1:][same])]
    raise CollisionError("exact point collision persisted; broken RNG?")


def _in_point_order(counts: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Ragged points with each configuration's points in lexicographic order,
    from one sort with the configuration as the leading key."""
    owner = np.repeat(np.arange(counts.size), counts)
    return points[np.lexsort((*points.T[::-1], owner))]


def by_count(counts: np.ndarray, points: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Ragged configurations grouped by count, k ascending: k -> (positions,
    tuples), the positions in ``counts`` of the k-point configurations,
    ascending, and their points stacked (m_k, k, n)."""
    first = np.cumsum(counts) - counts
    order = np.argsort(counts, kind="stable")
    ks, at = np.unique(counts[order], return_index=True)
    return {int(k): (idx, points[first[idx][:, None] + np.arange(k)])
            for k, idx in zip(ks, np.split(order, at[1:]))}


# ---------------------------------------------------------------------------
# Borel set descriptions with declared locality


@dataclass(frozen=True)
class SetSpec:
    """Membership description of a Borel subset of the configuration space.

    Variants: ``count`` ({at_least <= N(region) <= at_most}, the point count
    in ``region``; ``at_most`` None bounds it from below only), ``level_set``
    (super-level set {F > t} or {F >= t} of a cylinder function),
    ``level_sheet`` ({F = t}, the reduced boundary of the strict super-level
    set).  ``productspace.stratum_indicator`` evaluates membership on tuple
    stacks.

    ``locality``, when set, declares a box outside of which membership does
    not depend on the configuration; it is caller-declared and spot-checked,
    not inferred.
    """

    variant: str
    locality: BoxDomain | None = None
    region: BoxDomain | None = None
    at_least: int = 0
    at_most: int | None = None
    function: object = None   # CylinderFunction for level variants
    level: float = 0.0
    strict: bool = True
    count_equals: int | None = None  # restrict level variants to one stratum
    name: str = ""

    # -- constructors -------------------------------------------------------

    @staticmethod
    def count_at_least(region: BoxDomain, threshold: int, name: str = "") -> "SetSpec":
        return SetSpec(variant="count", region=region, at_least=int(threshold),
                       locality=region, name=name)

    @staticmethod
    def count_at_most(region: BoxDomain, threshold: int, name: str = "") -> "SetSpec":
        return SetSpec(variant="count", region=region, at_most=int(threshold),
                       locality=region, name=name)

    @staticmethod
    def level_set(function, level: float, strict: bool = True,
                  count_equals: int | None = None, name: str = "") -> "SetSpec":
        return SetSpec(variant="level_set", function=function, level=float(level),
                       strict=strict, locality=function.locality(),
                       count_equals=count_equals, name=name)

    @staticmethod
    def level_sheet(function, level: float, count_equals: int | None = None,
                    name: str = "") -> "SetSpec":
        return SetSpec(variant="level_sheet", function=function, level=float(level),
                       locality=function.locality(), count_equals=count_equals, name=name)

    def boundary_sheet(self) -> "SetSpec":
        """The defining level sheet of a level-set spec (its reduced boundary)."""
        if self.variant != "level_set":
            raise ValueError("boundary sheets exist for level-set specs only")
        return SetSpec.level_sheet(self.function, self.level, self.count_equals,
                                   name=self.name and f"bd({self.name})")

    def above_level(self, values):
        """The super-level test of a level variant: values > level, or >= when
        the set is not strict."""
        return (values > self.level) if self.strict else (values >= self.level)


def section_set(spec: SetSpec, eta: np.ndarray, box: BoxDomain) -> SetSpec:
    """Section of a set at the outside pattern eta, a point array (k, n): the
    configurations gamma in ``box`` with gamma + eta in the set.

    eta must be supported outside ``box``.  eta's points use up part of a
    count: a count set's section lowers both bounds by eta's count in the
    region, which is 0 when the region sits inside ``box``, and a level
    variant's lowers ``count_equals`` by eta's count.  Once a lowered bound
    is negative the section is empty (upper bound) or holds every count
    (lower bound); a negative ``count_equals`` is a stratum of zero Poisson
    weight, so that section and its sheet are empty on every route.
    """
    if np.any(box.contains(eta)):
        raise DomainError("eta must be supported outside the section box")
    locality = spec.locality.intersect(box) if spec.locality is not None else None
    name = f"{spec.name}|section" if spec.name else ""
    if spec.variant == "count":
        used = int(np.sum(spec.region.contains(eta)))
        return replace(spec, at_least=spec.at_least - used,
                       at_most=None if spec.at_most is None else spec.at_most - used,
                       locality=locality, name=name)
    # the outside pattern only offsets the linear statistics, by f_i star eta
    count_eq = spec.count_equals
    if count_eq is not None:
        count_eq = count_eq - len(eta)
    F = spec.function
    return replace(spec, function=replace(F, offset=tuple(F.stars(eta).tolist())),
                   locality=locality, count_equals=count_eq, name=name)
