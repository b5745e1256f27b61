"""Finite point configurations, Poisson sampling, and Borel set descriptions.

A configuration is a finite multiplicity-one point pattern in a box window.
Configurations are canonicalized by lexicographic point order so that equality
and hashing are well defined on the quotient by particle relabeling.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import BoxDomain, DomainError

__all__ = [
    "Configuration",
    "MCEstimate",
    "SetSpec",
    "CollisionError",
    "section_set",
]

_SAMPLE_RETRIES = 10


class CollisionError(RuntimeError):
    """Exact point collision persisted through the retry cap."""


def _canonical(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float).reshape(-1, points.shape[-1] if points.ndim > 1 else 1)
    if pts.shape[0] == 0:
        return pts
    order = np.lexsort(pts.T[::-1])
    return pts[order]


@dataclass(frozen=True)
class Configuration:
    """Finite multiplicity-one point pattern inside a box window."""

    window: BoxDomain
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, self.window.dim)
        if pts.ndim != 2 or pts.shape[1] != self.window.dim:
            raise DomainError("points must have shape (k, n) matching the window")
        pts = _canonical(pts)
        if pts.shape[0] and not np.all(self.window.contains(pts, tol=1e-12)):
            raise DomainError("points must lie in the window")
        if pts.shape[0] > 1 and np.any(np.all(np.diff(pts, axis=0) == 0.0, axis=1)):
            raise DomainError("multiplicity one violated: duplicate point")
        object.__setattr__(self, "points", pts)
        self.points.setflags(write=False)

    @staticmethod
    def _unsafe(window: BoxDomain, points: np.ndarray) -> "Configuration":
        """Constructor without validation or canonicalization.

        Only for sampler-produced points (already inside the window, distinct
        almost surely); equality/hashing contracts require the public
        constructor.
        """
        self = object.__new__(Configuration)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "points", points)
        return self

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def count_in(self, region: BoxDomain) -> int:
        if self.count == 0:
            return 0
        return int(np.sum(region.contains(self.points)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Configuration)
                and self.window == other.window
                and self.points.shape == other.points.shape
                and bool(np.all(self.points == other.points)))

    def __hash__(self) -> int:
        return hash((self.window, self.points.tobytes()))


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


@functools.lru_cache(maxsize=64)
def _sampler(window: BoxDomain) -> tuple[float, object, object, int]:
    """(volume, low, high, dim) of the uniform draws in a window, once per window.

    A cube's bounds are scalars: ``rng.uniform`` then skips its broadcasting
    path and computes the same ``low + (high - low) * u`` per coordinate, so
    the stream is unchanged.  Other boxes keep read-only bound arrays.
    """
    lo, hi = window.lower, window.upper
    if len(set(lo)) == 1 and len(set(hi)) == 1:
        low, high = lo[0], hi[0]
    else:
        low, high = np.array(lo), np.array(hi)
        low.setflags(write=False)
        high.setflags(write=False)
    return window.volume, low, high, window.dim


def _draw(window: BoxDomain, rng: np.random.Generator) -> np.ndarray:
    """Points of one Poisson configuration: N ~ Poisson(volume), then N uniform
    points, redrawn while two of them coincide exactly."""
    volume, low, high, dim = _sampler(window)
    k = rng.poisson(volume)
    for _ in range(_SAMPLE_RETRIES):
        pts = rng.uniform(low, high, size=(k, dim))
        if k < 2 or len(set(map(tuple, pts.tolist()))) == k:
            return pts
    raise CollisionError("exact point collision persisted; broken RNG?")


# ---------------------------------------------------------------------------
# sums and sections


def _merge(gamma: Configuration, eta: Configuration) -> Configuration:
    window = gamma.window.hull(eta.window)
    pts = np.vstack([gamma.points, eta.points])
    if pts.shape[0] > 1:
        canon = _canonical(pts)
        if np.any(np.all(np.diff(canon, axis=0) == 0.0, axis=1)):
            raise CollisionError("superposition collides: multiplicity one violated")
    return Configuration(window=window, points=pts)


# ---------------------------------------------------------------------------
# Borel set descriptions with declared locality


@dataclass(frozen=True)
class SetSpec:
    """Membership description of a Borel subset of the configuration space.

    Variants: ``predicate`` (arbitrary membership oracle), ``count_at_least``
    (at least ``threshold`` points in ``region``), ``level_set`` (super-level
    set {F > t} or {F >= t} of a cylinder function), ``level_sheet``
    ({F = t}, the reduced boundary of the strict super-level set).

    ``locality``, when set, declares a box outside of which membership does
    not depend on the configuration; it is caller-declared and spot-checked,
    not inferred.
    """

    variant: str
    locality: BoxDomain | None = None
    region: BoxDomain | None = None
    threshold: int = 0
    function: object = None   # CylinderFunction for level variants
    level: float = 0.0
    strict: bool = True
    oracle: object = None
    count_equals: int | None = None  # restrict level variants to one stratum
    name: str = ""

    # -- constructors -------------------------------------------------------

    @staticmethod
    def predicate(oracle, locality: BoxDomain | None = None, name: str = "") -> "SetSpec":
        return SetSpec(variant="predicate", oracle=oracle, locality=locality, name=name)

    @staticmethod
    def count_at_least(region: BoxDomain, threshold: int, name: str = "") -> "SetSpec":
        return SetSpec(variant="count_at_least", region=region, threshold=int(threshold),
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

    # -- membership ---------------------------------------------------------

    def contains(self, gamma: Configuration) -> bool:
        if self.variant == "predicate":
            return bool(self.oracle(gamma))
        if self.variant == "count_at_least":
            return gamma.count_in(self.region) >= self.threshold
        if self.count_equals is not None and gamma.count != self.count_equals:
            return False
        if self.variant == "level_set":
            return bool(self.above_level(self.function.value(gamma)))
        if self.variant == "level_sheet":
            return bool(self.function.value(gamma) == self.level)
        raise ValueError(f"unknown variant {self.variant}")

    def above_level(self, values):
        """The super-level test of a level variant: values > level, or >= when
        the set is not strict."""
        return (values > self.level) if self.strict else (values >= self.level)


def section_set(spec: SetSpec, eta: Configuration, box: BoxDomain) -> SetSpec:
    """Section of a set at the outside pattern eta: gamma -> member(gamma + eta).

    gamma ranges over configurations in ``box``; eta must be supported outside
    it.  When the declared locality sits inside ``box`` the section does not
    depend on eta at all.
    """
    if eta.count and np.any(box.contains(eta.points)):
        raise DomainError("eta must be supported outside the section box")
    locality = spec.locality.intersect(box) if spec.locality is not None else None

    if spec.locality is not None and box.contains_box(spec.locality):
        base = spec

        def member(gamma: Configuration) -> bool:
            return base.contains(gamma)
    else:
        def member(gamma: Configuration) -> bool:
            return spec.contains(_merge(gamma, eta))

    if spec.variant in ("level_set", "level_sheet") and spec.function is not None:
        # shifting the outside pattern only offsets the linear statistics
        shifted = spec.function.shift_by(eta)
        # eta's points use up a count constraint; once they exceed it the
        # count is negative, a stratum of zero Poisson weight: the section and
        # its sheet are empty on every route
        count_eq = spec.count_equals
        if count_eq is not None:
            count_eq = count_eq - eta.count
        return SetSpec(variant=spec.variant, function=shifted, level=spec.level,
                       strict=spec.strict, locality=locality, count_equals=count_eq,
                       name=f"{spec.name}|section" if spec.name else "")
    return SetSpec.predicate(member, locality=locality,
                             name=f"{spec.name}|section" if spec.name else "")
