"""Finite point configurations, Poisson sampling, and Borel set descriptions.

A configuration is a finite multiplicity-one point pattern in a box window.
Configurations are canonicalized by lexicographic point order so that equality
and hashing are well defined on the quotient by particle relabeling.  A
``Configuration`` is one pattern on its own: a configuration of the capacity
sieve, or the outside pattern eta of a section.  Batches of configurations are
tuple stacks (m, k, n), not ``Configuration`` objects.

Poisson configurations are drawn by ``poisson_configurations``, one walk over
a block of uniform doubles for all the configurations a stream gives, bit for
bit the sequence of per-configuration ``_draw`` calls: numpy's count rule
below mean 10 (Knuth's multiplication method) and the uniform coordinates are
both read off the block.  ``by_count`` groups the walk's ragged output into
(m_k, k, n) stacks by particle count.

A set description (``SetSpec``) is a count condition {lo <= N(region) <= hi}
or a level condition on a cylinder function, so its membership on a tuple
stack is one array expression (``productspace.stratum_indicator``), and its
section at an outside pattern (``section_set``) is a set description of the
same variant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import BoxDomain, DomainError

__all__ = [
    "Configuration",
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

    @property
    def count(self) -> int:
        return self.points.shape[0]

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


# numpy draws a Poisson count by Knuth's multiplication rule below this mean
# and by the PTRS rejection sampler from it on
_MULTIPLICATION_MAX = 10.0


def poisson_configurations(window: BoxDomain, rng: np.random.Generator, m: int
                           ) -> tuple[np.ndarray, np.ndarray]:
    """The next m Poisson configurations of rng, as counts (m,) and points
    (counts.sum(), n): configuration i is the counts[i] rows that follow the
    rows of configurations 0, ..., i - 1.

    Bit for bit the points of m sequential ``_draw(window, rng)`` calls,
    collision redraws included.  Below volume 10 numpy's count rule is
    Knuth's: prod *= u while prod > exp(-volume), so a count X reads X + 1
    doubles, and each coordinate of its points is low + (high - low) u of
    one more.  The walk reads both off one ``rng.random`` block, extended
    while it runs short, and finds exact duplicate points by one sort per
    round; a configuration with a hit is redrawn from the doubles after it,
    up to ``_SAMPLE_RETRIES`` times, as ``_draw`` does.  From volume 10 numpy
    counts by rejection, whose consumption a block cannot tell, and each
    configuration is one ``_draw``.

    The block runs past the last configuration: rng is used up, and nothing
    drawn from it afterwards continues the sequence of ``_draw`` calls.
    """
    volume, _, _, n = _sampler(window)
    if volume >= _MULTIPLICATION_MAX:
        draws = [_draw(window, rng) for _ in range(m)]
        return (np.array([d.shape[0] for d in draws], dtype=np.intp),
                np.concatenate([np.zeros((0, n)), *draws]))
    enlam = math.exp(-volume)
    low, span = np.array(window.lower), np.subtract(window.upper, window.lower)

    def points(v, first, k):
        """The k points whose coordinates start at v[first], for each entry."""
        size = k * n
        idx = np.repeat(first - (np.cumsum(size) - size), size) + np.arange(size.sum())
        pts = v[idx].reshape(-1, n)
        pts *= span
        pts += low
        return pts

    counts, rows, left = [], [], m
    v = np.empty(0)   # the doubles not consumed yet
    while left:
        X = _knuth_counts(v, enlam)
        end = np.arange(1, v.size + 1) + (n + 1) * X   # one past each configuration
        end[(X < 0) | (end > v.size)] = 0              # not complete inside the block
        starts = _chase(end.tolist(), left)
        k = X[starts]
        pts = points(v, starts + k + 1, k)
        hit = _first_collision(pts, k)
        ok = len(starts) if hit is None else hit
        counts.append(k[:ok])
        rows.append(pts[:k[:ok].sum()])
        left -= ok
        if hit is None:
            v = v[end[starts[-1]]:] if ok else v
            if left:
                v = np.concatenate([v, rng.random(_block_size(left, volume, n))])
            continue
        # _draw's redraw rule: the next k n doubles, while the points collide
        s, kh = starts[hit], k[hit]
        first, size = s + kh + 1, kh * n
        need = first + _SAMPLE_RETRIES * size
        if need > v.size:
            v = np.concatenate([v, rng.random(need - v.size)])
        for t in range(1, _SAMPLE_RETRIES):
            pts = points(v, np.array([first + t * size]), k[hit:hit + 1])
            if _first_collision(pts, k[hit:hit + 1]) is None:
                break
        else:
            raise CollisionError("exact point collision persisted; broken RNG?")
        counts.append(k[hit:hit + 1])
        rows.append(pts)
        left -= 1
        v = v[first + (t + 1) * size:]
    return (np.concatenate([np.zeros(0, dtype=np.intp), *counts]),
            np.concatenate([np.zeros((0, n)), *rows]))


def _block_size(m: int, volume: float, n: int) -> int:
    """Doubles for m configurations: their mean use 1 + (n + 1) volume each,
    plus three standard deviations of the total."""
    return int(m * (1.0 + (n + 1) * volume) + 3.0 * (n + 1) * math.sqrt(m * volume)) + 8


def _knuth_counts(v: np.ndarray, enlam: float) -> np.ndarray:
    """X[q]: the count of a walk from v[q], the number of factors of the
    running product v[q] v[q + 1] ..., multiplied in that order, that keep it
    above enlam; -1 where the walk runs past the end of v."""
    X = np.zeros(v.size, dtype=np.intp)
    q = np.flatnonzero(v > enlam)
    prod = v[q]
    x = 1
    while q.size:
        X[q] = x
        nxt = q + x
        inside = nxt < v.size
        X[q[~inside]] = -1
        q, prod = q[inside], prod[inside] * v[nxt[inside]]
        above = prod > enlam
        q, prod = q[above], prod[above]
        x += 1
    return X


def _chase(end: list[int], m: int) -> np.ndarray:
    """The starts 0, end[0], end[end[0]], ... of at most m configurations,
    up to the first start whose end is 0 (not complete)."""
    end.append(0)   # the start one past the block is not complete
    starts, q = [], 0
    for _ in range(m):
        if not end[q]:
            break
        starts.append(q)
        q = end[q]
    return np.array(starts, dtype=np.intp)


def _in_point_order(counts: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Ragged points with each configuration's points in the lexicographic
    order that ``Configuration`` keeps, from one sort with the configuration
    as the leading key."""
    owner = np.repeat(np.arange(counts.size), counts)
    return points[np.lexsort((*points.T[::-1], owner))]


def _first_collision(pts: np.ndarray, k: np.ndarray) -> int | None:
    """The first configuration with two equal points, None if there is none.
    Equal points are neighbours in point order."""
    owner = np.repeat(np.arange(k.size), k)
    s = _in_point_order(k, pts)
    same = (owner[1:] == owner[:-1]) & np.all(s[1:] == s[:-1], axis=1)
    return int(owner[1:][same][0]) if same.any() else None


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


def section_set(spec: SetSpec, eta: Configuration, box: BoxDomain) -> SetSpec:
    """Section of a set at the outside pattern eta: the configurations gamma
    in ``box`` with gamma + eta in the set.

    eta must be supported outside ``box``.  eta's points use up part of a
    count: a count set's section lowers both bounds by eta's count in the
    region, which is 0 when the region sits inside ``box``, and a level
    variant's lowers ``count_equals`` by eta's count.  Once a lowered bound
    is negative the section is empty (upper bound) or holds every count
    (lower bound); a negative ``count_equals`` is a stratum of zero Poisson
    weight, so that section and its sheet are empty on every route.
    """
    if eta.count and np.any(box.contains(eta.points)):
        raise DomainError("eta must be supported outside the section box")
    locality = spec.locality.intersect(box) if spec.locality is not None else None
    name = f"{spec.name}|section" if spec.name else ""
    if spec.variant == "count":
        used = int(np.sum(spec.region.contains(eta.points)))
        return replace(spec, at_least=spec.at_least - used,
                       at_most=None if spec.at_most is None else spec.at_most - used,
                       locality=locality, name=name)
    # shifting the outside pattern only offsets the linear statistics
    count_eq = spec.count_equals
    if count_eq is not None:
        count_eq = count_eq - eta.count
    return replace(spec, function=spec.function.shift_by(eta), locality=locality,
                   count_equals=count_eq, name=name)
