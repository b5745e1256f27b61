"""Monte Carlo and stratified quadrature against the Poisson measure.

Two integration routes are provided and used as mutual oracles throughout:

* plain Monte Carlo over sampled configurations.  ``draw_by_count`` draws
  each sample of an ``MCPlan`` once, per configuration and on the plan's
  streams, and groups the draws by particle count into ``(m_k, k, n)`` tuple
  stacks that keep their sample indices.  ``integrate_battery`` evaluates
  every member of a battery of stratum functions ``Hk(k, X)`` on those
  stacks, puts the values back in sample order and reduces each member with
  ``mean_and_stderr``; ``integrate`` is the same route for one functional of
  a ``Configuration``, evaluated per configuration; and
* particle-count stratification (``Strata``, the one particle-count loop of
  the package): condition on k points, weight by the Poisson probability of
  k, and integrate over the k-fold product box by tensor Gauss-Legendre
  quadrature (exact up to the count truncation) or per-stratum Monte Carlo
  for larger k.  ``poisson_stratified_battery`` evaluates a battery once per
  stratum and integrates each member.

The count weights need no scipy: ``poisson_pmf`` reproduces the bits of
``scipy.stats.poisson.pmf`` from ``math`` (log k! as cephes ``lgam`` computes
it), and the tail mass beyond a count, which sets ``poisson_k_cutoff`` and the
stratified error bar's truncation charge, is the sum of the pmf terms.

Uniform k-tuples on a Monte Carlo stratum come from ``uniform_tuples``, one
bulk draw on the counter-based stream (seed, stream).  Inside a
``shared_draws`` scope a repeated (window, k, n, seed, stream) key returns the
first draw's array instead of drawing again, so callers that integrate
several functions on the same strata draw each stratum once.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .configuration import Configuration, MCEstimate, SetSpec, _draw
from .geometry import BoxDomain, gauss_legendre
from .rng import mean_and_stderr, stream_rng

__all__ = [
    "MCPlan",
    "draw_by_count",
    "integrate",
    "integrate_battery",
    "integrate_disintegrated",
    "measure_of_set",
    "poisson_k_cutoff",
    "poisson_pmf",
    "poisson_stratified",
    "poisson_stratified_battery",
    "stratum_grid_points",
    "default_stratum_orders",
    "shared_draws",
    "uniform_tuples",
    "StratumGrid",
    "Stratum",
    "Strata",
    "StratifiedSum",
]

MIN_SAMPLES = 100


@dataclass(frozen=True)
class MCPlan:
    """Deterministic Monte Carlo plan; identical plans give identical output.

    Sample i is drawn on the random stream (seed, i mod ``streams``).
    """

    n_samples: int
    seed: int
    window: BoxDomain
    streams: int = 16

    def __post_init__(self):
        if self.n_samples < MIN_SAMPLES:
            raise ValueError(f"n_samples must be at least {MIN_SAMPLES}")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")


def draw_by_count(plan: MCPlan) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Every configuration of the plan, drawn once and grouped by particle count.

    Stream j of the plan's ``streams`` S draws samples j, j + S, j + 2S,
    ... in that order on the random stream (seed, j), one ``_draw`` per
    configuration, so the points and the collision retries do not depend on
    the grouping.  Streams are drawn j = 0, ..., S - 1 in order.  Returns
    k -> (sample indices, tuples) for every count drawn, k ascending: the
    tuples have shape (m_k, k, n) and are in stream order.
    """
    S, n = plan.streams, plan.n_samples
    groups: dict[int, tuple[list, list]] = {}
    for j in range(S):
        rng = stream_rng(plan.seed, j)
        for i in range(j, n, S):
            pts = _draw(plan.window, rng)
            idx, tuples = groups.setdefault(pts.shape[0], ([], []))
            idx.append(i)
            tuples.append(pts)
    return {k: (np.array(idx), np.stack(tuples)) for k, (idx, tuples) in sorted(groups.items())}


def _in_sample_order(Hk, draws: dict, plan: MCPlan) -> np.ndarray:
    """Values of the stratum function Hk at the drawn samples, in sample order."""
    values = np.empty(plan.n_samples)
    for k, (idx, X) in draws.items():
        values[idx] = np.asarray(Hk(k, X), dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite integrand value encountered")
    return values


def _per_configuration(G, window: BoxDomain):
    """The stratum function of a functional G of one Configuration."""
    def Hk(k, X):
        return [G(Configuration._unsafe(window, pts)) for pts in X]
    return Hk


def _estimate(values: np.ndarray, plan: MCPlan, name: str) -> MCEstimate:
    mean, std_err = mean_and_stderr(values)
    return MCEstimate(mean=mean, std_err=std_err, n_samples=values.size,
                      seed=plan.seed, name=name)


def sample_values(G, plan: MCPlan) -> np.ndarray:
    """Per-sample values of G under the plan, in sample order."""
    return _in_sample_order(_per_configuration(G, plan.window), draw_by_count(plan), plan)


def integrate(G, plan: MCPlan, name: str = "") -> MCEstimate:
    """Sample mean and standard error of G under the Poisson measure."""
    return _estimate(sample_values(G, plan), plan, name)


def integrate_battery(battery: Mapping[str, Callable], plan: MCPlan) -> dict[str, MCEstimate]:
    """Sample mean and standard error of every member, from one draw of the plan.

    Members follow the ``Hk(k, X)`` convention of ``poisson_stratified``: X
    holds the plan's k-particle configurations as tuples (m_k, k, n) and Hk
    returns their (m_k,) values.  Each member's estimate equals ``integrate``
    of the same functional bit for bit.  Returns name -> MCEstimate.
    """
    draws = draw_by_count(plan)
    return {name: _estimate(_in_sample_order(Hk, draws, plan), plan, name)
            for name, Hk in battery.items()}


INNER_SAMPLES = 32


def integrate_disintegrated(G, split: tuple[BoxDomain, BoxDomain], plan: MCPlan,
                            name: str = "") -> MCEstimate:
    """Nested estimate over a window partition: outer on N, inner on M.

    For each outer pattern zeta on N, averages G(zeta + xi) over
    ``INNER_SAMPLES`` inner Poisson patterns xi on M; the standard error is
    taken across outer samples, which accounts for the inner noise as well.
    """
    M, N = split
    if not M.disjoint_interior(N):
        raise ValueError("split boxes must have disjoint interiors")
    if abs(M.volume + N.volume - plan.window.volume) > 1e-9 * plan.window.volume:
        raise ValueError("split must partition the window")
    n_outer = max(plan.n_samples // INNER_SAMPLES, MIN_SAMPLES)
    rng_o = stream_rng(plan.seed, 1)
    rng_i = stream_rng(plan.seed, 2)
    means = np.empty(n_outer)
    for i in range(n_outer):
        zeta = _draw(N, rng_o)
        acc = np.empty(INNER_SAMPLES)
        for j in range(INNER_SAMPLES):
            xi = _draw(M, rng_i)
            merged = Configuration._unsafe(plan.window, np.vstack([zeta, xi]))
            acc[j] = G(merged)
        means[i] = np.sum(acc) / INNER_SAMPLES
    if not np.all(np.isfinite(means)):
        raise ValueError("non-finite integrand value encountered")
    mean, std_err = mean_and_stderr(means)
    return MCEstimate(mean=mean, std_err=std_err, n_samples=n_outer * INNER_SAMPLES,
                      seed=plan.seed, name=name)


def measure_of_set(A: SetSpec, plan: MCPlan, name: str = "") -> MCEstimate:
    """Probability of A under the Poisson measure on the plan window."""
    return integrate(A.indicator, plan, name=name or (A.name and f"pi({A.name})"))


# ---------------------------------------------------------------------------
# particle-count stratification


# Stirling's series of cephes ``lgam`` (scipy's ``gammaln``) for x >= 13
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3,
             8.33333333333331927722e-2)


def _log_factorial(k: int) -> float:
    """log k! by the branch of cephes ``lgam`` taken at x = k + 1, bit for bit:
    the log of the exact k! below 13, Stirling's series from there (three
    terms from 1000 on, none beyond 1e8)."""
    x = float(k + 1)
    if x < 13.0:
        return math.log(math.factorial(k))
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    s = _STIRLING[0]
    for c in _STIRLING[1:]:
        s = s * p + c
    return q + s / x


def poisson_pmf(k, lam: float):
    """Poisson(lam) probability of k, elementwise over an array of counts.

    exp(k log lam - log k! - lam) with ``_log_factorial``: the same bits as
    ``scipy.stats.poisson.pmf``, without importing scipy.  A negative count has
    probability 0.
    """
    log_lam = math.log(lam)

    def log_pmf(j: int) -> float:
        if j < 0:
            return -math.inf
        return j * log_lam - _log_factorial(j) - lam

    if np.ndim(k) == 0:
        return float(np.exp(log_pmf(int(k))))
    return np.exp(np.array([log_pmf(int(j)) for j in np.ravel(k)]).reshape(np.shape(k)))


def _poisson_tail(k: int, lam: float) -> float:
    """Poisson(lam) mass beyond the count k, the sum of pmf(j) over j > k.

    The terms are summed by the ratio pmf(j) / pmf(j - 1) = lam / j from the
    largest one, j0 = max(k + 1, floor lam): upward until they no longer change
    the sum, then downward to j = k + 1.  Every term is positive, so nothing
    cancels as in 1 - cdf.
    """
    j0 = max(k + 1, int(lam))
    top = poisson_pmf(j0, lam)
    total, term, j = 0.0, top, j0
    while total + term != total:
        total += term
        j += 1
        term *= lam / j
    term, j = top, j0
    while j > k + 1:
        term *= j / lam
        j -= 1
        total += term
    return total


@functools.lru_cache(maxsize=128)
def poisson_k_cutoff(volume: float, tol: float = 1e-10) -> int:
    """Smallest K with Poisson(volume) tail mass beyond K below tol; the tail
    is summed once per (volume, tol)."""
    k = 0
    while _poisson_tail(k, volume) > tol and k < 10_000:
        k += 1
    return k


def default_stratum_orders(n_dim: int) -> dict[int, int]:
    """Per-axis Gauss-Legendre orders by particle count (grid strata)."""
    if n_dim == 1:
        return {1: 64, 2: 48, 3: 28, 4: 16}
    return {1: 32, 2: 12}


@dataclass(frozen=True)
class StratumGrid:
    """Tensor Gauss-Legendre grid on window^k with per-particle axes."""

    window: BoxDomain
    k: int
    order: int
    nodes: tuple[np.ndarray, ...]    # one per axis (n per particle)
    weights: tuple[np.ndarray, ...]

    @classmethod
    def on(cls, window: BoxDomain, k: int, order: int) -> "StratumGrid":
        rules = [gauss_legendre(window.lower[a], window.upper[a], order)
                 for _ in range(k) for a in range(window.dim)]
        return cls(window=window, k=k, order=order, nodes=tuple(nd for nd, _ in rules),
                   weights=tuple(w for _, w in rules))

    @property
    def axes(self) -> int:
        return self.k * self.window.dim

    def shape(self) -> tuple[int, ...]:
        return (self.order,) * self.axes

    def integrate(self, values: np.ndarray) -> float:
        out = values
        for w in reversed(self.weights):
            out = np.tensordot(out, w, axes=([-1], [0]))
        return float(out)

    def tuples(self) -> np.ndarray:
        """All grid points as ordered tuples, shape (order^(nk), k, n)."""
        mesh = np.meshgrid(*self.nodes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1).reshape(-1, self.k, self.window.dim)


@functools.lru_cache(maxsize=32)
def stratum_grid_points(window: BoxDomain, k: int, order: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Flattened tensor Gauss-Legendre rule on window^k.

    Returns (points, weights) with points of shape (order^(n k), k, n).  The
    rule is built once per (window, k, order) and shared: both arrays are
    read-only.
    """
    grid = StratumGrid.on(window, k, order)
    pts = grid.tuples()
    w = functools.reduce(np.multiply.outer, grid.weights).ravel()
    pts.setflags(write=False)
    w.setflags(write=False)
    return pts, w


def _box_tuples(rng: np.random.Generator, window: BoxDomain, k: int, n: int) -> np.ndarray:
    """n uniform ordered k-tuples in the window, shape (n, k, dim), from rng.

    One ``rng.random`` call for all n k dim coordinates, mapped in place to
    ``lower + (upper - lower) u``: the same doubles, consumed in the same
    order and combined by the same two roundings as ``rng.uniform`` on the
    window bounds tiled k times, without its broadcasting path.
    """
    u = rng.random(size=(n, k, window.dim))
    u *= np.subtract(window.upper, window.lower)
    u += window.lower
    return u


_SHARED_DRAWS: ContextVar[dict | None] = ContextVar("_SHARED_DRAWS", default=None)
_SCOPE_MEMO: ContextVar[dict | None] = ContextVar("_SCOPE_MEMO", default=None)


@contextmanager
def shared_draws():
    """Scope in which ``uniform_tuples`` draws each (window, k, n, seed,
    stream) key once, and ``scope_memo`` hands out one memo dict.

    Streams are counter-based, so a repeated key repeats the draw value for
    value; inside the scope every caller of a key gets the one array, made
    read-only.  Both memos are dropped when the scope exits, which bounds
    the memory they hold.
    """
    token = _SHARED_DRAWS.set({})
    memo_token = _SCOPE_MEMO.set({})
    try:
        yield
    finally:
        _SCOPE_MEMO.reset(memo_token)
        _SHARED_DRAWS.reset(token)


def scope_memo() -> dict | None:
    """The open ``shared_draws`` scope's memo for values derived from its
    read-only arrays, or None outside a scope.  Callers own their keys."""
    return _SCOPE_MEMO.get()


def uniform_tuples(window: BoxDomain, k: int, n: int, seed: int, stream: int) -> np.ndarray:
    """n uniform ordered k-tuples in the window, shape (n, k, dim), drawn on
    the random stream (seed, stream); read-only and shared inside a
    ``shared_draws`` scope."""
    memo = _SHARED_DRAWS.get()
    if memo is None:
        return _box_tuples(stream_rng(seed, stream), window, k, n)
    key = (window, k, n, seed, stream)
    X = memo.get(key)
    if X is None:
        X = memo[key] = _box_tuples(stream_rng(seed, stream), window, k, n)
        X.setflags(write=False)
    return X


@dataclass(frozen=True)
class Stratum:
    """The k-particle stratum: its Poisson weight and its integration route.

    ``order`` is the per-axis Gauss-Legendre order of a grid stratum; ``None``
    routes the stratum to ``mc_n`` uniform draws on stream (seed, stream).
    """

    window: BoxDomain
    k: int
    weight: float
    order: int | None
    mc_n: int
    seed: int
    stream: int

    def grid(self, order: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        return stratum_grid_points(self.window, self.k,
                                   self.order if order is None else order)

    def draw(self, n: int | None = None) -> np.ndarray:
        return uniform_tuples(self.window, self.k, self.mc_n if n is None else n,
                              self.seed, self.stream)

    def grid_mean(self, values: np.ndarray, w: np.ndarray) -> float:
        """Quadrature average over window^k of values at the grid points."""
        return float(np.sum(w * values)) / self.window.volume ** self.k

    def averages(self, H: Callable[[np.ndarray], Mapping[str, np.ndarray]]
                 ) -> dict[str, tuple[float, float]]:
        """(average, error) over window^k of every member of a battery.

        H maps tuples (m, k, n) to name -> (m,) values and runs once on the
        stratum's grid or draw; each member is reduced on its own: exact on
        grid strata, mean and standard error on Monte Carlo ones.
        """
        if self.order is not None:
            pts, w = self.grid()
            return {name: (self.grid_mean(np.asarray(v), w), 0.0)
                    for name, v in H(pts).items()}
        return {name: mean_and_stderr(v) for name, v in H(self.draw()).items()}

    def average(self, H: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
        """(average, error) of H over window^k, H mapping tuples (m, k, n) to (m,)."""
        return self.averages(lambda X: {"": H(X)})[""]


class StratifiedSum(NamedTuple):
    value: float
    error: float
    per_k: dict[int, float]  # each stratum's weighted share of the value


@dataclass
class Strata:
    """The particle-count strata k >= 1 of the Poisson measure on a box window.

    Counts run from 1 to ``K_max`` (default: tail mass beyond it below 1e-10)
    or are just ``count_equals``; counts of zero Poisson weight are skipped.
    Stratum k is a grid stratum of order ``orders[k]`` when given, else a Monte
    Carlo stratum of ``mc_n`` draws on stream (seed, stream_base + k).
    """

    window: BoxDomain
    orders: dict[int, int] = field(default_factory=dict)
    mc_n: int = 0
    seed: int = 0
    stream_base: int = 0
    K_max: int | None = None
    count_equals: int | None = None

    def __post_init__(self):
        if self.K_max is None:
            self.K_max = poisson_k_cutoff(self.window.volume)

    def __iter__(self) -> Iterator[Stratum]:
        lam = self.window.volume
        counts = range(1, self.K_max + 1) if self.count_equals is None else (self.count_equals,)
        for k in counts:
            pk = poisson_pmf(k, lam)
            if pk == 0.0:
                continue
            yield Stratum(window=self.window, k=k, weight=pk, order=self.orders.get(k),
                          mc_n=self.mc_n, seed=self.seed, stream=self.stream_base + k)

    def integrate(self, term: Callable[[Stratum], Iterable[tuple[float, float]]], *,
                  empty: float | None = None,
                  sup_bound: float | None = None) -> StratifiedSum:
        """Poisson expectation: the sum over strata of weight times average.

        ``term(stratum)`` returns (average, error) pieces of the integrand's
        average over window^k; weighted errors add in quadrature.  ``empty``
        is the integrand on the empty configuration (omitted when None); the
        tail beyond ``K_max`` is charged as its mass times ``sup_bound``.
        """
        lam = self.window.volume
        total, err_sq, per_k = 0.0, 0.0, {}
        if empty is not None:
            per_k[0] = poisson_pmf(0, lam) * empty
            total += per_k[0]
        for s in self:
            per_k[s.k] = 0.0
            for mean, err in term(s):
                total += s.weight * mean
                per_k[s.k] += s.weight * mean
                err_sq += (s.weight * err) ** 2
        if sup_bound is not None:
            err_sq += (_poisson_tail(self.K_max, lam) * sup_bound) ** 2
        return StratifiedSum(total, float(np.sqrt(err_sq)), per_k)


def poisson_stratified_battery(Hk, window: BoxDomain, *, quad_k: int = 3,
                               mc_n: int = 20_000, seed: int = 0,
                               sup_bound: float | None = None
                               ) -> dict[str, tuple[float, float]]:
    """E_pi of every member of a battery, from one pass over the strata.

    ``Hk(k, X)`` evaluates the symmetric stratum functions of all members on
    ordered tuples X of shape (m, k, n) and returns name -> (m,) values, so
    work shared by the members (draws, gradients) is done once per stratum.
    Strata up to ``quad_k`` use tensor quadrature (deterministic); the rest use
    per-stratum Monte Carlo on streams 9000 + k; the truncated tail is charged
    to the error using ``sup_bound`` when supplied.

    Returns name -> (value, error), where error combines Monte Carlo standard
    errors and the tail bound.
    """
    orders = default_stratum_orders(window.dim)
    strata = Strata(window, orders={k: o for k, o in orders.items() if k <= quad_k},
                    mc_n=mc_n, seed=seed, stream_base=9_000)
    empty = {name: float(np.asarray(v)[0])
             for name, v in Hk(0, np.zeros((1, 0, window.dim))).items()}
    per_stratum = {s.k: s.averages(lambda X, k=s.k: Hk(k, X)) for s in strata}
    out = {}
    for name in empty:
        res = strata.integrate(lambda s, name=name: [per_stratum[s.k][name]],
                               empty=empty[name], sup_bound=sup_bound)
        out[name] = (res.value, res.error)
    return out


def poisson_stratified(Hk, window: BoxDomain, *, quad_k: int = 3, mc_n: int = 20_000,
                       seed: int = 0, sup_bound: float | None = None) -> tuple[float, float]:
    """E_pi[H] by conditioning on the particle count.

    ``Hk(k, X)`` evaluates the symmetric stratum function on ordered tuples,
    X of shape (m, k, n) -> (m,).  The one-member call of
    ``poisson_stratified_battery``; returns (value, error).
    """
    return poisson_stratified_battery(lambda k, X: {"": Hk(k, X)}, window, quad_k=quad_k,
                                      mc_n=mc_n, seed=seed, sup_bound=sup_bound)[""]
