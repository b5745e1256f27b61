"""Codimension-m Poisson measures: count probabilities and level-sheet estimators.

The k-particle stratum over a box is a quotient of the product box, so the
codimension-m content of a set section splits as a sum over particle counts:
    total = e^{-vol} * sum_k per_k,
    per_k = (1/k!) * H^{nk-m}( preimage of the k-section in the product box ),
which ``montecarlo.Strata`` assembles as the Poisson-weighted average of the
section content over the product box.
For m = 0 this reduces to the Poisson probability of the set.  For m = 1 the
sections must be smooth level sets; their surface content is estimated by the
coarea identity, integral of |grad g| times a level profile of unit mass:
the hard band chi{|g - c| < eps} / (2 eps) on Monte Carlo tuples, or, on a
quadrature grid, Gaussian profiles of three widths scored in one pass and
extrapolated to width 0.

A localized measure averages the measure of the sections at outside patterns
eta.  A section of a level set is F with the offset row F.stars(eta), so for
m = 1 one stratum loop measures every section of a box: one quadrature run
per distinct offset row, and Monte Carlo blocks of at most ``BLOCK_COORDS``
coordinates in which each section draws its own rows on its own stream.  Each
section's value and error keep the bits of a ``rho_m_on_box`` call of its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .configuration import (MCEstimate, SetSpec, _in_point_order, by_count,
                            poisson_configurations, section_set)
from .cylinder import CylinderFunction, _add_offset
from .geometry import BoxDomain, DomainError
from .montecarlo import (StratifiedSum, Strata, StratumGrid, poisson_k_cutoff,
                         stratum_grid_points, uniform_tuples)
from .productspace import stratum_indicator
from .rng import mean_and_stderr, stream_rng

__all__ = [
    "CodimMeasureResult",
    "RhoLimitResult",
    "rho_m_on_box",
    "sheet_integrals",
    "rho_m_localized",
    "rho_m_limit",
    "scaled_box",
    "CriticalLevelError",
]

MIN_GRADIENT = 1e-3
BLOCK_COORDS = 2 ** 17  # coordinates in one stacked Monte Carlo block: 1 MB of doubles


class CriticalLevelError(RuntimeError):
    """The defining function has near-vanishing gradient on the level band."""


@dataclass(frozen=True)
class CodimMeasureResult:
    """Codim-m measure with its per-count breakdown: per_k[k] is (1/k!) times
    the content of the k-section, so total = e^{-vol} * sum(per_k)."""

    per_k: dict[int, float]
    k_truncation: int
    total: float
    total_err: float

    @classmethod
    def of(cls, res: StratifiedSum, window: BoxDomain, K_max: int | None):
        """From a sum over counts up to K_max (default: the window's Poisson cutoff)."""
        scale = float(np.exp(window.volume))
        return cls({k: scale * v for k, v in res.per_k.items()},
                   poisson_k_cutoff(window.volume) if K_max is None else K_max,
                   res.value, res.error)


# ---------------------------------------------------------------------------
# level-set band estimator


def band_integral_mc(h, window: BoxDomain, k: int, n_samples: int,
                     seed: int | tuple[int, ...], stream: int
                     ) -> dict[str, list[tuple[float, float]]]:
    """MC estimates of the integrals over window^k of the densities h returns,
    one per seed.

    The n_samples tuples are split evenly over the seeds (``seed`` is one
    seed or a tuple of them), each seed's share drawn on stream (seed,
    stream) into its own rows of one ``uniform_tuples`` block.  ``h`` maps
    the block (m, k, n) to a dict name -> density (m,); one draw serves every
    density, and each seed's rows are reduced on their own.  Returns
    name -> [(value, err) per seed].
    """
    S = len(seed) if isinstance(seed, tuple) else 1
    n = n_samples // S
    densities = h(uniform_tuples(window, k, n, seed, stream))
    volk = window.volume ** k
    return {name: [(volk * mean, volk * err)
                   for mean, err in map(mean_and_stderr, hv.reshape(S, n))]
            for name, hv in densities.items()}


def band_integral_quad(densities: dict, window: BoxDomain, k: int, order: int) -> dict:
    """Tensor quadrature over window^k of each density, given on the rows of
    ``stratum_grid_points(window, k, order)``.

    The sum stays the ordered tensor rule's, term for term, as the
    Richardson extrapolation in the profile width amplifies any change of
    summation order.
    """
    grid, w = _ordered_weights(window, k, order)
    return {key: float(np.sum(w * grid.ordered(hv).ravel())) for key, hv in densities.items()}


@functools.lru_cache(maxsize=8)
def _ordered_weights(window: BoxDomain, k: int, order: int) -> tuple[StratumGrid, np.ndarray]:
    """The grid on window^k and its tensor weights on the ordered tuples, built once."""
    grid = StratumGrid.on(window, k, order)
    w = functools.reduce(np.multiply.outer, grid.weights).ravel()
    w.setflags(write=False)
    return grid, w


def _gradient(g, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """grad g and |grad g| at X, read-only: every weight and width shares them."""
    grad = g.gradient(X)
    gn = np.sqrt(np.sum(grad * grad, axis=(-2, -1)))
    grad.setflags(write=False)
    gn.setflags(write=False)
    return grad, gn


def _checked_min(gn: np.ndarray, section, sections: int) -> np.ndarray:
    """min |grad g| over each section's rows near the sheet, gn's rows
    belonging to the sections ``section`` (inf for a section without any);
    raises at a critical level, with the minimum of the first section below
    ``MIN_GRADIENT``."""
    mins = np.full(sections, np.inf)
    np.minimum.at(mins, np.broadcast_to(section, gn.shape), gn)
    low = np.flatnonzero(mins < MIN_GRADIENT)
    if low.size:
        raise CriticalLevelError(f"gradient {mins[low[0]]:.2e} below {MIN_GRADIENT} on the "
                                 "level band; perturb the level")
    return mins


@dataclass(frozen=True, eq=False)
class _Sections:
    """Sections of one offset-free cylinder function F at several offset rows.

    On a batch of len(offsets) equal segments, segment j is evaluated as the
    section ``replace(F, offset=tuple(offsets[j]))`` evaluates it: F's stars,
    then the offset row added the way ``CylinderFunction.add_offset`` adds
    it, a zero entry adding nothing.
    """

    F: CylinderFunction
    offsets: np.ndarray  # (sections, arity)

    def _stars(self, X: np.ndarray) -> np.ndarray:
        rows = np.repeat(self.offsets, X.shape[0] // len(self.offsets), axis=0)
        return _add_offset(self.F.stars(X), rows)

    def value(self, X: np.ndarray) -> np.ndarray:
        return self.F.outer.value(self._stars(X))

    def gradient(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape)
        if X.shape[-2] == 0:
            return out
        return self.F._lift(self._stars(X), lambda f: f.gradient(X), out)


def _hard_band(g, X: np.ndarray, level: float, eps: float, weights: dict, sections: int
               ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The hard band chi{|g - level| < eps} / (2 eps) times each weight on the
    rows of X, and min |grad g| over each section's band rows.

    Rows [j m, (j + 1) m) of X are section j of ``sections``.  g is evaluated
    on every row, its gradient and the weights on the band rows only, and the
    critical level check runs per section.
    """
    vals = g.value(X)
    rows = np.flatnonzero(np.abs(vals - level) < eps)
    out = {name: np.zeros(X.shape[0]) for name in weights}
    if not rows.size:
        return out, np.full(sections, np.inf)
    section = rows // (X.shape[0] // sections)
    Xm = X[rows]
    if isinstance(g, _Sections):  # each band row keeps its section's offset row
        g = _Sections(g.F, g.offsets[section])
    grad, gn = _gradient(g, Xm)
    mins = _checked_min(gn, section, sections)
    prof = 1.0 / (2.0 * eps)
    for name, weight in weights.items():
        out[name][rows] = (gn if weight is None else weight(Xm, grad, gn)) * prof
    return out, mins


def surface_functional(g, level: float, weights: dict, window: BoxDomain, k: int, *,
                       eps: float, n_samples: int = 20_000, seed: int | tuple[int, ...] = 0,
                       stream: int = 0, quad_order: int | None = None):
    """Band estimates of int_{ {g = level} cap window^k } weight dH^{nk-1}.

    ``g`` evaluates value/gradient on ordered tuples, as cylinder functions
    do.  ``weights`` maps names to surface densities: ``weight(X, grad, gn)``
    returns the density against H^{nk-1} with the |grad g| factor already
    multiplied in, gn being |grad g| at the rows of X; ``None`` measures the
    surface itself; weights must be symmetric in the particles, and must not
    write to the arrays they receive.  One pass serves the whole battery: g,
    its gradient (with its norm) and each weight are evaluated once per call.

    Two modes share the coarea identity.  By default, the hard band
    chi/(2 eps) on ``n_samples`` Monte Carlo tuples (any k; ``sheet_integrals``
    sizes them by ``Stratum.draws``), with gradients and weights taken on
    the band rows only.  When ``quad_order`` is given, a smooth Gaussian level
    profile under tensor quadrature (deterministic): gradients and weights
    are taken on the whole grid, scored under three profile widths at once,
    and extrapolated to width 0 by a quadratic fit; the error bar is half the
    gap between that value and the linear extrapolation from the two
    narrowest widths, plus 1e-10 relative.  A grid with no row in the widest
    band gives (0, 0, inf), with no gradient or weight evaluated.  Out of
    each band the density is
    exactly 0, whatever the weight returns there.  The critical level check
    and the profile widths depend on g only, never on a weight.  Returns
    name -> (value, err, min |grad g| seen near the sheet).

    A tuple of seeds measures one section per seed and returns a list of
    such results: each seed's n_samples tuples fill its own rows of one
    block, and its result has the bits of its own call.  A ``_Sections`` g
    gives seed j its own offset row; the quadrature draws nothing, so one
    run serves every seed.
    """
    seeds = seed if isinstance(seed, tuple) else (seed,)
    if quad_order is None:
        mins = []

        def band(X):
            dens, section_mins = _hard_band(g, X, level, eps, weights, len(seeds))
            mins.append(section_mins)
            return dens

        est = band_integral_mc(band, window, k, n_samples * len(seeds), seed, stream)
        out = [{name: (*est[name][j], float(mins[0][j])) for name in weights}
               for j in range(len(seeds))]
    else:
        out = [_quadrature_band(g, level, weights, window, k, eps, quad_order)] * len(seeds)
    return out if isinstance(seed, tuple) else out[0]


def _quadrature_band(g, level: float, weights: dict, window: BoxDomain, k: int, eps: float,
                     quad_order: int) -> dict[str, tuple[float, float, float]]:
    """The smooth-profile quadrature route of ``surface_functional``."""
    X = stratum_grid_points(window, k, quad_order)[0]
    dev = g.value(X) - level
    dist = np.abs(dev)
    # Gaussian profiles wide enough in base-space units for the grid to
    # resolve, steeper g asking for wider ones; each truncated at five
    # standard deviations, its core at two
    spacing = float(np.max(window.sides)) / quad_order
    sig0 = max(eps, 4.0 * spacing)
    if not np.any(dist < 10.0 * sig0):
        # no row near the sheet: no core, so the widths are sig0, sqrt(2) sig0
        # and 2 sig0, and every band is empty
        return {name: (0.0, 0.0, np.inf) for name in weights}
    grad, gn = _gradient(g, X)
    gscale = float(np.max(gn[dist < 2.0 * sig0], initial=0.0))
    sig = max(sig0, 4.0 * spacing * min(gscale, 3.0))
    sigs = np.array([sig, sig * np.sqrt(2.0), sig * 2.0])
    min_grad = float(_checked_min(gn[dist < 2.0 * sigs[2]], 0, 1)[0])
    dens = {name: gn if weight is None else weight(X, grad, gn)
            for name, weight in weights.items()}
    scored = {}
    # a first width within 1% of sig0 is scored at sig0 itself
    for j, s in enumerate((sig if sig > 1.01 * sig0 else sig0, sigs[1], sigs[2])):
        z = dev / s
        prof = np.exp(-0.5 * z * z) / (s * np.sqrt(2.0 * np.pi))
        for name, d in dens.items():
            scored[name, j] = np.where(dist < 5.0 * s, d * prof, 0.0)
    sums = band_integral_quad(scored, window, k, quad_order)
    # Richardson in the profile width: sheets meeting the product-box
    # boundary bias the smeared estimate linearly in the width, smooth
    # weights quadratically; eliminate both orders and report the gap to
    # the linear extrapolation as the error proxy
    M = np.stack([np.ones(3), sigs, sigs ** 2], axis=1)
    est = {}
    for name in weights:
        v = np.array([sums[name, j] for j in range(3)])
        r_quad = float(np.linalg.solve(M, v)[0])
        r_lin = float(v[0] + (v[0] - v[1]) / (np.sqrt(2.0) - 1.0))
        est[name] = (r_quad, abs(r_quad - r_lin) * 0.5 + 1e-10 * abs(r_quad), min_grad)
    return est


def surface_functional_auto(g, level: float, weights: dict, window: BoxDomain, k: int, *,
                            eps: float, n_samples: int = 20_000,
                            seed: int | tuple[int, ...] = 0, stream: int = 0,
                            quad_order: int | None = None):
    """surface_functional preferring the smooth-profile quadrature.

    The wide profile needed on coarse grids can sweep over critical points of
    steep level functions far from the sheet itself; in that case the whole
    battery falls back to the narrow hard-band Monte Carlo route, which
    still detects genuine critical levels, on every seed's own stream.
    """
    if quad_order is not None:
        try:
            return surface_functional(g, level, weights, window, k, eps=eps,
                                      n_samples=n_samples, seed=seed, stream=stream,
                                      quad_order=quad_order)
        except CriticalLevelError:
            pass
    return surface_functional(g, level, weights, window, k, eps=eps,
                              n_samples=n_samples, seed=seed, stream=stream,
                              quad_order=None)


def sheet_integrals(g, level: float, weights: dict, window: BoxDomain, *,
                    streams: tuple[int, int], eps: float | None = None,
                    n_samples: int, seed: int, K_max: int | None = None,
                    count_equals: int | None = None) -> dict[str, StratifiedSum]:
    """Poisson integrals of surface weights over the level sheet {g = level}.

    The codim-1 stratum loop on one section: per count k, one
    ``surface_functional_auto`` call serves every weight (``weights`` as in
    ``surface_functional``), by quadrature on counts 1 and 2 of a 1-d window
    (orders 192, 96) or count 1 otherwise (order 32), else by
    ``Stratum.draws(n_samples)`` band draws on stream (seed, base + stride k)
    for ``streams`` = (base, stride), as many as the quadrature's fallback
    draws.  ``eps`` defaults to 1e-2 of the largest side.  Returns
    name -> StratifiedSum.
    """
    return _sheet_loop(g, level, weights, window, (seed,), streams=streams, eps=eps,
                       n_samples=n_samples, K_max=K_max, count_equals=count_equals)[0]


def _sheet_loop(g, level: float, weights: dict, window: BoxDomain, seeds: tuple[int, ...],
                offsets: np.ndarray | None = None, *, streams: tuple[int, int],
                eps: float | None, n_samples: int, K_max: int | None,
                count_equals: int | None) -> list[dict[str, StratifiedSum]]:
    """``sheet_integrals`` of several sections of one sheet at once, one
    result per seed.

    With ``offsets`` None there is one seed, and its section is g itself.
    Otherwise g is an offset-free cylinder function, and section j is g at
    the offset row offsets[j], measured on the streams of seeds[j].  A
    quadrature stratum draws nothing, so one ``surface_functional_auto`` call
    per distinct offset row serves all its sections; a critical level there
    falls back to each section's own draws.  A Monte Carlo stratum measures
    the sections in blocks of at most ``BLOCK_COORDS`` coordinates, one
    call per block: each section's tuples fill its own rows on its own
    stream, so every section gets the bits of a call of its own.
    """
    if eps is None:
        eps = 1e-2 * float(np.max(window.sides))
    base, stride = streams
    strata = Strata(window, orders={1: 192, 2: 96} if window.dim == 1 else {1: 32},
                    K_max=K_max, count_equals=count_equals)
    if offsets is None:
        groups = [(g, np.arange(1))]
    else:
        rows, which = np.unique(offsets, axis=0, return_inverse=True)
        groups = [(replace(g, offset=tuple(row.tolist())), np.flatnonzero(which.ravel() == i))
                  for i, row in enumerate(rows)]
    S, per_stratum = len(seeds), {}
    for s in strata:
        n, stream = s.draws(n_samples), base + stride * s.k
        if s.order is not None:
            parts = groups
        else:
            size = max(1, BLOCK_COORDS // max(1, n * s.k * window.dim))
            parts = [(g if offsets is None else _Sections(g, offsets[lo:lo + size]),
                      range(lo, min(lo + size, S))) for lo in range(0, S, size)]
        ests = [None] * S
        for h, part in parts:
            # one section keeps the one-seed call, and its one result
            part_seeds = tuple(seeds[j] for j in part)
            est = surface_functional_auto(h, level, weights, window, s.k, eps=eps, n_samples=n,
                                          seed=part_seeds if len(part) > 1 else part_seeds[0],
                                          stream=stream, quad_order=s.order)
            for j, e in zip(part, est if len(part) > 1 else [est]):
                ests[j] = e
        volk = window.volume ** s.k
        per_stratum[s.k] = [{name: (val / volk, err / volk) for name, (val, err, _) in est.items()}
                            for est in ests]
    return [{name: strata.integrate(lambda s, name=name, j=j: [per_stratum[s.k][j][name]])
             for name in weights}
            for j in range(S)]


# ---------------------------------------------------------------------------
# codimension-m Poisson measures


def _stratum_fraction_exact(A: SetSpec, k: int, window: BoxDomain) -> float | None:
    """Closed-form uniform fraction of the k-stratum section, when available.

    Count specs admit the exact binomial sum: conditioned on k uniform
    points, the count in the region is Binomial(k, vol(region)/vol(window)).
    The fraction is the sum of its terms from the lower bound to the upper
    bound (or k), every one of them nonnegative, so nothing cancels as in a
    difference of cdfs.
    """
    if A.variant != "count":
        return None
    inter = A.region.intersect(window)
    p = (inter.volume / window.volume) if inter is not None else 0.0
    hi = k if A.at_most is None else min(A.at_most, k)
    return sum(math.comb(k, j) * p ** j * (1.0 - p) ** (k - j)
               for j in range(max(A.at_least, 0), hi + 1))


def rho_m_on_box(A: SetSpec, m: int, window: BoxDomain, *,
                 n_samples: int = 20_000, seed: int = 0) -> CodimMeasureResult:
    """Codimension-m Poisson measure of A on the configuration space over a box.

    m = 0 reduces to the Poisson probability of A (count-stratified).  m = 1
    requires A to be a level-set description; the measured object is the
    defining level sheet {F = level}, i.e. the reduced boundary of the strict
    super-level set, measured by the stratum loop of ``sheet_integrals`` on
    streams (seed, 80 + k), a stratum of negative band value counting as
    empty.  Other codimensions, and m = 1 on other variants, raise.
    """
    if m not in (0, 1):
        raise DomainError("only m in {0, 1} is computed")
    if m == 0:
        strata = Strata(window, mc_n=n_samples, seed=seed, stream_base=60)

        def term(s):
            exact = _stratum_fraction_exact(A, s.k, window)
            if exact is not None:
                return [(exact, 0.0)]
            return [s.average(lambda X: stratum_indicator(A, s.k, X))]

        # vacuum stratum: membership of the empty configuration
        empty = float(stratum_indicator(A, 0, np.zeros((1, 0, window.dim)))[0])
        res = strata.integrate(term, empty=empty)
        return CodimMeasureResult.of(res, window, None)
    return _rho1(A, window, (seed,), n_samples=n_samples)[0]


def _sheet_function(A: SetSpec) -> CylinderFunction:
    """The cylinder function whose level sheet rho_1 measures."""
    if A.variant not in ("level_set", "level_sheet"):
        raise DomainError("m = 1 requires a level-set description")
    return A.function


def _rho1(A: SetSpec, window: BoxDomain, seeds: tuple[int, ...],
          offsets: np.ndarray | None = None, *, n_samples: int) -> list[CodimMeasureResult]:
    """rho_1 of the level sheet of A on the window, one result per seed: of A
    itself for one seed and no ``offsets``, else of A's section at the
    offset row offsets[j] (``section_set``'s F.stars(eta)) for seeds[j], every
    section sharing A's ``count_equals``.  The sheet is measured by
    ``_sheet_loop`` on streams (seed, 80 + k)."""
    F = _sheet_function(A)
    if offsets is not None:
        F = replace(F, offset=())
    out = []
    for res in _sheet_loop(F, float(A.level), {"surface": None}, window, seeds, offsets,
                           streams=(80, 1), eps=None, n_samples=n_samples, K_max=None,
                           count_equals=A.count_equals):
        res = res["surface"]
        # a stratum whose band value came out negative counts as empty; the
        # Poisson weight is positive, so clamping its share clamps the value
        per_k = {k: max(v, 0.0) for k, v in res.per_k.items()}
        total = 0.0
        for v in per_k.values():  # in count order, as the unclamped sum was made
            total += v
        out.append(CodimMeasureResult.of(StratifiedSum(total, res.error, per_k), window, None))
    return out


def scaled_box(center, r: float, dim: int) -> BoxDomain:
    c = np.broadcast_to(np.atleast_1d(np.asarray(center, dtype=float)), (dim,))
    return BoxDomain(tuple(c - r / 2.0), tuple(c + r / 2.0))


@dataclass(frozen=True)
class RhoLimitResult:
    """Localized measures on increasing boxes and the two verdicts of the
    monotone localization: the measures increase, and they stop moving once
    the box holds the set's locality."""

    values: tuple[float, ...]
    errors: tuple[float, ...]
    boxes: tuple[BoxDomain, ...]
    locality: BoxDomain

    @property
    def limit(self) -> float:
        return self.values[-1]

    @property
    def limit_err(self) -> float:
        return self.errors[-1]

    @property
    def monotone(self) -> bool:
        """No step falls by more than 3 sqrt(s_i^2 + s_{i+1}^2)."""
        v, s = self.values, self.errors
        return all(v[i + 1] >= v[i] - 3.0 * np.sqrt(s[i] ** 2 + s[i + 1] ** 2)
                   for i in range(len(v) - 1))

    @property
    def saturation(self) -> tuple[float, float] | None:
        """(last - first value, s_first + s_last) over the boxes that hold the
        locality in their interior; None with fewer than two such boxes."""
        inside = [i for i, b in enumerate(self.boxes)
                  if np.all(np.less(b.lower, self.locality.lower))
                  and np.all(np.greater(b.upper, self.locality.upper))]
        if len(inside) < 2:
            return None
        first, last = inside[0], inside[-1]
        return self.values[last] - self.values[first], self.errors[first] + self.errors[last]

    @property
    def saturated(self) -> bool | None:
        """The first and last boxes holding the locality agree within
        3 (s_first + s_last); None when undecided."""
        sat = self.saturation
        return None if sat is None else bool(abs(sat[0]) <= 3.0 * sat[1] + 1e-9)


def rho_m_localized(A: SetSpec, m: int, inner: BoxDomain, outer: BoxDomain, *,
                    n_eta: int = 64, n_samples: int = 20_000, seed: int = 0) -> MCEstimate:
    """Localized codim-m measure: average over outside patterns eta of the
    codim-m measure of the eta-section on the inner box.

    Membership may only depend on A.locality, which must sit inside ``outer``;
    the Poisson average over the rest of the complement is then exact.  When
    the locality sits inside ``inner`` the outer integral collapses and the
    result is deterministic up to the inner estimator error.  Otherwise the
    n_eta patterns are drawn on stream (seed, 7), and pattern i's section is
    measured by ``rho_m_on_box`` on seed + 1 + i with max(2000,
    n_samples // 8) samples: for m = 1 all sections at once, in one stratum
    loop, with the same bits as the calls one by one; for m = 0 one call
    per pattern.
    """
    if A.locality is None:
        raise DomainError("localized measures need a declared locality")
    if not outer.contains_box(A.locality):
        raise DomainError("locality exceeds the outer box")
    if inner.contains_box(A.locality):
        sec = section_set(A, np.zeros((0, inner.dim)), inner)
        res = rho_m_on_box(sec, m, inner, n_samples=n_samples, seed=seed)
        return MCEstimate(mean=res.total, std_err=res.total_err, n_samples=n_samples,
                          seed=seed, name=A.name and f"rho{m}_loc({A.name})")
    # Poisson patterns eta on the locality outside the inner box, each in
    # lexicographic point order, which fixes the order its offset sums in;
    # the error adds the spread over patterns and the per-pattern errors in
    # quadrature
    counts, points = poisson_configurations(A.locality, stream_rng(seed, 7), n_eta)
    points = _in_point_order(counts, points)
    outside = ~inner.contains(points)
    counts = np.bincount(np.repeat(np.arange(n_eta), counts)[outside], minlength=n_eta)
    points = points[outside]
    seeds = seed + 1 + np.arange(n_eta)
    n_section = max(2000, n_samples // 8)
    if m == 1:
        res = _rho1_patterns(A, inner, counts, points, seeds, n_section)
    else:
        etas = np.split(points, np.cumsum(counts)[:-1])
        res = [rho_m_on_box(section_set(A, eta, inner), m, inner, n_samples=n_section,
                            seed=int(s)) for eta, s in zip(etas, seeds)]
    vals = np.array([r.total for r in res])
    errs = np.array([r.total_err for r in res])
    mean, spread = mean_and_stderr(vals)
    err = float(np.sqrt(spread * spread + np.sum(errs**2) / n_eta**2))
    return MCEstimate(mean=mean, std_err=err, n_samples=n_eta,
                      seed=seed, name=A.name and f"rho{m}_loc({A.name})")


def _rho1_patterns(A: SetSpec, inner: BoxDomain, counts: np.ndarray, points: np.ndarray,
                   seeds: np.ndarray, n_samples: int) -> list[CodimMeasureResult]:
    """rho_1 on the inner box of A's section at every outside pattern (counts,
    points), pattern i measured on seed seeds[i]: ``rho_m_on_box`` of its
    ``section_set``, bit for bit.  The offsets are F's stars of the patterns,
    one stack per count; the sections are measured together, grouped by
    their lowered ``count_equals``."""
    F = _sheet_function(A)
    offsets = np.empty((counts.size, F.arity))
    for pos, eta in by_count(counts, points).values():
        offsets[pos] = F.stars(eta)
    lowered = np.zeros(counts.size) if A.count_equals is None else A.count_equals - counts
    res = [None] * counts.size
    for c in np.unique(lowered):
        part = np.flatnonzero(lowered == c)
        spec = A if A.count_equals is None else replace(A, count_equals=int(c))
        for i, r in zip(part, _rho1(spec, inner, tuple(int(s) for s in seeds[part]),
                                     offsets[part], n_samples=n_samples)):
            res[i] = r
    return res


def rho_m_limit(A: SetSpec, m: int, boxes: list[BoxDomain], *, n_eta: int = 64,
                n_samples: int = 20_000, seed: int = 0) -> RhoLimitResult:
    """Localized measures of A on increasing boxes, with their verdicts.

    The localized measures increase to rho_m, so the result states whether
    no step falls by more than 3 sqrt(s_i^2 + s_{i+1}^2) (``monotone``) and
    whether the boxes holding the locality agree (``saturated``); a failed
    verdict is returned, not raised.  Every box is measured inside the last
    box's hull with the locality on the same seed: common random numbers
    across the schedule keep the sequence smooth.
    """
    if len(boxes) < 3:
        raise DomainError("schedule must contain at least 3 boxes")
    for small, big in zip(boxes, boxes[1:]):
        if not big.contains_box(small):
            raise DomainError("boxes must be increasing")
    outer = boxes[-1].hull(A.locality or boxes[-1])
    ests = [rho_m_localized(A, m, b, outer, n_eta=n_eta, n_samples=n_samples, seed=seed)
            for b in boxes]
    return RhoLimitResult(values=tuple(e.mean for e in ests),
                          errors=tuple(e.std_err for e in ests),
                          boxes=tuple(boxes), locality=A.locality)
