"""Monte Carlo and stratified quadrature against the Poisson measure.

Two integration routes are provided and used as mutual oracles throughout:

* plain Monte Carlo over sampled configurations.  ``draw_by_count`` draws
  each sample of an ``MCPlan`` once, one ``poisson_configurations`` bulk draw
  per plan stream, and groups the draws by particle count into ``(m_k, k, n)``
  tuple stacks that keep their sample indices.  ``integrate_battery`` evaluates
  every member of a battery of stratum functions ``Hk(k, X)`` on those
  stacks, puts the values back in sample order and reduces each member with
  ``mean_and_stderr``; and
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
bulk draw on the counter-based stream (seed, stream), or for a tuple of seeds
one such draw per seed stacked into one block.  Inside a
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

from .configuration import MCEstimate, by_count, poisson_configurations
from .geometry import BoxDomain, gauss_legendre
from .rng import mean_and_stderr, stream_rng

__all__ = [
    "MCPlan",
    "draw_by_count",
    "integrate_battery",
    "poisson_k_cutoff",
    "poisson_pmf",
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
MASS_RATIO = 0.01   # a Monte Carlo stratum of Poisson weight w draws n w / (MASS_RATIO w_top)


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
    ... in that order on the random stream (seed, j), all of them by one
    ``poisson_configurations`` call, so the points and the collision redraws
    do not depend on the grouping.  Returns k -> (sample indices, tuples)
    for every count drawn, k ascending: the tuples have shape (m_k, k, n) and
    are in stream order.
    """
    S, n = plan.streams, plan.n_samples
    draws = [poisson_configurations(plan.window, stream_rng(plan.seed, j), len(range(j, n, S)))
             for j in range(S)]
    sample = np.concatenate([np.arange(j, n, S) for j in range(S)])
    groups = by_count(np.concatenate([c for c, _ in draws]), np.concatenate([p for _, p in draws]))
    return {k: (sample[pos], X) for k, (pos, X) in groups.items()}


def integrate_battery(battery: Mapping[str, Callable], plan: MCPlan) -> dict[str, MCEstimate]:
    """Sample mean and standard error of every member, from one draw of the plan.

    Each member is one stratum function ``Hk(k, X)`` of the convention of
    ``poisson_stratified_battery``, taken alone: X holds the plan's
    k-particle configurations as tuples (m_k, k, n) and Hk returns their
    (m_k,) values, which are put back in sample order.  Returns
    name -> MCEstimate.
    """
    draws = draw_by_count(plan)
    out = {}
    for name, Hk in battery.items():
        values = np.empty(plan.n_samples)
        for k, (idx, X) in draws.items():
            values[idx] = np.asarray(Hk(k, X), dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite integrand value encountered")
        mean, std_err = mean_and_stderr(values)
        out[name] = MCEstimate(mean=mean, std_err=std_err, n_samples=values.size,
                               seed=plan.seed, name=name)
    return out


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

    def ordered(self, values: np.ndarray) -> np.ndarray:
        """Values at the rows of ``stratum_grid_points`` gathered onto the grid."""
        idx = _tuple_index(self.order ** self.window.dim, self.k)
        return np.asarray(values)[idx].reshape(self.shape())


@functools.lru_cache(maxsize=None)
def _multisets(q: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The R = C(q + r - 1, r) multisets of r nodes out of q as sorted rows
    (R, r) in lexicographic order, and ``up`` (q, R_{r-1}): ``up[x, i]`` is
    the row of multiset i of r - 1 nodes with node x added (empty when
    r = 0).  Each smaller row is extended by every x from its last entry up,
    and ``up`` is found by the rows' base-q keys.  Cached; read-only."""
    if r == 0:
        rows, up = np.zeros((1, 0), dtype=np.intp), np.zeros((q, 0), dtype=np.intp)
    elif q ** r > np.iinfo(np.int64).max:
        raise ValueError(f"base-{q} keys of {r} nodes overflow int64")
    else:
        smaller = _multisets(q, r - 1)[0]
        reps = q - (smaller[:, -1] if r > 1 else 0)
        parent = np.repeat(np.arange(len(smaller)), reps)
        rows = np.column_stack([smaller[parent],
                                np.arange(parent.size) - (np.cumsum(reps) - q)[parent]])
        grown = np.column_stack([np.tile(smaller, (q, 1)), np.repeat(np.arange(q), len(smaller))])
        place = q ** np.arange(r - 1, -1, -1)
        up = np.searchsorted(rows @ place, np.sort(grown, axis=1) @ place).reshape(q, -1)
    rows.setflags(write=False)
    up.setflags(write=False)
    return rows, up


@functools.lru_cache(maxsize=32)
def _tuple_index(q: int, k: int) -> np.ndarray:
    """The row in ``_multisets(q, k)`` of every ordered k-tuple of q nodes,
    shape (q,) * k.  Cached; read-only."""
    idx = np.zeros((), dtype=np.intp)
    for r in range(1, k + 1):
        idx = np.moveaxis(_multisets(q, r)[1][:, idx], 0, -1)
    idx.setflags(write=False)
    return idx


def _fold(vecs: np.ndarray) -> np.ndarray:
    """W (R, n): W[M] sums prod_s vecs[s, a_s] over the ordered node tuples
    (a_1, ..., a_r) with multiset M, for n rows of r slots of q node weights.

    Slot by slot, W_{s+1}[M] = sum over the distinct x in M of
    W_s[M - x] vecs[s, x], so no array of q^r entries per row is made.
    """
    r, q, n = vecs.shape
    W = vecs[0] if r else np.ones((1, n))
    for s in range(1, r):
        rows, up = _multisets(q, s + 1)
        grown = np.zeros((rows.shape[0], n))
        for x in range(q):
            grown[up[x]] += W * vecs[s, x]
        W = grown
    return W


@functools.lru_cache(maxsize=32)
def stratum_grid_points(window: BoxDomain, k: int, order: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on window^k modulo particle order.

    The points (R, k, n) are the R = C(Q + k - 1, k) multisets of the
    Q = order^n nodes of one particle, each weighted by its node-weight
    product times its number of orderings, so the rule integrates functions
    symmetric in the particles as the tensor rule on the Q^k ordered tuples
    does.  Built once per (window, k, order) and shared: both arrays are
    read-only.
    """
    one = StratumGrid.on(window, 1, order)
    nodes = np.stack([m.ravel() for m in np.meshgrid(*one.nodes, indexing="ij")], axis=-1)
    w = functools.reduce(np.multiply.outer, one.weights).ravel()
    pts = nodes[_multisets(w.size, k)[0]]
    W = _fold(np.broadcast_to(w[:, None], (k, w.size, 1))).ravel()
    pts.setflags(write=False)
    W.setflags(write=False)
    return pts, W


def _box_tuples(rng: np.random.Generator, window: BoxDomain, k: int, n: int) -> np.ndarray:
    """n uniform ordered k-tuples in the window, shape (n, k, dim), from rng.

    One ``rng.random`` call for all n k dim coordinates, mapped in place to
    ``lower + (upper - lower) u``: the same doubles, consumed in the same
    order and combined by the same two roundings as ``rng.uniform`` on the
    window bounds tiled k times, without its broadcasting path.
    """
    return _to_window(rng.random(size=(n, k, window.dim)), window)


def _to_window(u: np.ndarray, window: BoxDomain) -> np.ndarray:
    """Uniform doubles u (..., dim) mapped in place to lower + (upper - lower) u."""
    u *= window.sides
    u += window.lower
    return u


def _stacked_tuples(window: BoxDomain, k: int, n: int, seeds: tuple[int, ...],
                    stream: int) -> np.ndarray:
    """``_box_tuples`` of every seed's stream (seed, stream), stacked in seed
    order into one block (len(seeds) n, k, dim): each stream writes its
    doubles into its own rows, and the block is mapped to the window once."""
    X = np.empty((len(seeds) * n, k, window.dim))
    for j, seed in enumerate(seeds):
        stream_rng(seed, stream).random(out=X[j * n:(j + 1) * n])
    return _to_window(X, window)


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


def uniform_tuples(window: BoxDomain, k: int, n: int, seed: int | tuple[int, ...],
                   stream: int) -> np.ndarray:
    """n uniform ordered k-tuples in the window, shape (n, k, dim), drawn on
    the random stream (seed, stream); read-only and shared inside a
    ``shared_draws`` scope.

    A tuple of seeds draws n tuples on each seed's stream into one block
    (len(seed) n, k, dim), seed j's in rows [j n, (j + 1) n): each segment is
    the one-seed draw, bit for bit.
    """
    memo = _SHARED_DRAWS.get()
    key = (window, k, n, seed, stream)
    X = None if memo is None else memo.get(key)
    if X is None:
        X = (_stacked_tuples(window, k, n, seed, stream) if isinstance(seed, tuple)
             else _box_tuples(stream_rng(seed, stream), window, k, n))
        if memo is not None:
            X.setflags(write=False)
            memo[key] = X
    return X


@dataclass(frozen=True)
class Stratum:
    """The k-particle stratum: its Poisson weight and its integration route.

    ``order`` is the per-axis Gauss-Legendre order of a grid stratum; ``None``
    routes the stratum to ``draws(mc_n)`` uniform draws on stream (seed,
    stream).  ``top`` is the largest Poisson weight among its ``Strata``' counts.
    """

    window: BoxDomain
    k: int
    weight: float
    top: float
    order: int | None
    mc_n: int
    seed: int
    stream: int

    def grid(self, order: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        return stratum_grid_points(self.window, self.k,
                                   self.order if order is None else order)

    def draws(self, n: int) -> int:
        """The Monte Carlo draws for a nominal n, in proportion to the Poisson
        weight: n while the weight is at least ``MASS_RATIO`` of the top one,
        fewer below, never under ``MIN_SAMPLES`` nor over n.  The one place a
        stratum's sample count is decided."""
        return min(n, max(MIN_SAMPLES, math.ceil(n * self.weight / (MASS_RATIO * self.top))))

    def draw(self, n: int | None = None) -> np.ndarray:
        """``draws(n)`` uniform tuples (n defaults to ``mc_n``): on a stream
        counted from its start, the first rows of the n-row draw."""
        return uniform_tuples(self.window, self.k, self.draws(self.mc_n if n is None else n),
                              self.seed, self.stream)

    def grid_mean(self, values: np.ndarray, w: np.ndarray) -> float:
        """Quadrature average over window^k of values at the grid points."""
        return float(np.sum(w * values)) / self.window.volume ** self.k

    def averages(self, H: Callable[[np.ndarray], Mapping[str, np.ndarray]]
                 ) -> dict[str, tuple[float, float]]:
        """(average, error) over window^k of every member of a battery.

        H maps tuples (m, k, n) to name -> (m,) values and runs once on the
        stratum's grid or draw; each member is reduced on its own: exact on
        grid strata, mean and standard error on Monte Carlo ones.  The grid
        is the multiset rule of ``stratum_grid_points``, so every member must
        be symmetric in the particles.
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
    Carlo stratum on stream (seed, stream_base + k) that draws in proportion to
    its Poisson mass: ``Stratum.draws(mc_n)``, all mc_n on counts of at least
    ``MASS_RATIO`` of the largest weight among the counts.
    """

    window: BoxDomain
    orders: dict[int, int] = field(default_factory=dict)
    mc_n: int = 0
    seed: int = 0
    stream_base: int = 0
    K_max: int | None = None
    count_equals: int | None = None

    _strata: tuple[Stratum, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.K_max is None:
            self.K_max = poisson_k_cutoff(self.window.volume)
        lam = self.window.volume
        counts = range(1, self.K_max + 1) if self.count_equals is None else (self.count_equals,)
        weights = {k: poisson_pmf(k, lam) for k in counts}
        top = max(weights.values(), default=0.0)
        self._strata = tuple(
            Stratum(window=self.window, k=k, weight=pk, top=top, order=self.orders.get(k),
                    mc_n=self.mc_n, seed=self.seed, stream=self.stream_base + k)
            for k, pk in weights.items() if pk != 0.0)

    def __iter__(self) -> Iterator[Stratum]:
        """The strata, with their Poisson weights computed once per ``Strata``."""
        return iter(self._strata)

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

