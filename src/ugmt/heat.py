"""Lifted heat semigroup on the configuration space over a box.

The Poisson measure splits over particle counts, and the lifted semigroup
acts stratum by stratum as the k-fold tensor Neumann semigroup on the product
box, so every operator here reduces to 1-d kernel matrices applied along
tensor-grid axes.  Gradients of semigroup outputs are computed through the
differentiated kernel (equivalently, the absorbing-boundary kernel applied to
the differentiated integrand), never by finite differences.  A stratum grid
is one batch of ordered tuples: functionals and their gradients on it come
from the same ``value``/``gradient`` and ``productspace.stratum_indicator``
that evaluate every other batch.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .configuration import Configuration, SetSpec
from .cylinder import CylinderFunction, ExponentialCylinderFunction
from .geometry import (BoxDomain, DomainError, HeatKernel1D, QuadratureError,
                       gauss_legendre, required_order)
from .montecarlo import (MCPlan, Strata, StratumGrid, draw_by_count, poisson_k_cutoff,
                         stratum_grid_points)
from .productspace import stratum_indicator

__all__ = [
    "LiftedHeatOperator",
    "BesselOperator",
    "lift_semigroup",
    "lifted_gradient_norm",
    "check_intertwining",
    "regularization_slope",
    "bessel_apply",
    "capacity_upper_bound",
    "IntertwiningReport",
    "ViolationReport",
]


def _eval_on_grid(F, grid: StratumGrid) -> np.ndarray:
    """F on the grid, shaped like it.

    The grid's points are one batch of ordered tuples (the cached read-only
    ``stratum_grid_points``), evaluated by the evaluator every other route
    uses: ``value`` for cylinder functions and product statistics,
    ``productspace.stratum_indicator`` for level-set specs.  Inside a
    ``shared_draws`` scope each inner function's statistic is computed once
    per grid.
    """
    X = stratum_grid_points(grid.window, grid.k, grid.order)[0]
    if isinstance(F, SetSpec):
        if F.variant not in ("level_set", "level_sheet"):
            raise DomainError("grid path supports level-set specs only")
        vals = stratum_indicator(F, grid.k, X, grid.window)
    elif isinstance(F, (CylinderFunction, ExponentialCylinderFunction)):
        vals = F.value(X)
    else:
        raise TypeError(f"no grid evaluation for {type(F)}")
    return vals.reshape(grid.shape())


@dataclass
class LiftedHeatOperator:
    """Stratum-wise tensor Neumann semigroup over a box window.

    Grid-based operations are available for small particle counts (per-axis
    orders shrink as k grows); the Poisson count truncation K_max leaves a
    tail mass below 1e-10.
    """

    window: BoxDomain
    grid_orders: dict[int, int] = field(default_factory=dict)
    K_max: int = field(init=False)

    def __post_init__(self):
        if not self.grid_orders:
            if self.window.dim == 1:
                self.grid_orders = {1: 80, 2: 64, 3: 40, 4: 24}
            else:
                self.grid_orders = {1: 24, 2: 10}
        self.K_max = poisson_k_cutoff(self.window.volume)
        self._kernels: dict = {}
        self._kernel_matrices: dict = {}

    @property
    def grid_k_max(self) -> int:
        return max(self.grid_orders)

    def grid(self, k: int, order: int | None = None) -> StratumGrid:
        if order is None:
            if k not in self.grid_orders:
                raise DomainError(f"no grid order configured for k={k}")
            order = self.grid_orders[k]
        return StratumGrid.on(self.window, k, order)

    def _axis_kernel(self, t: float, axis_in_particle: int) -> HeatKernel1D:
        L = float(self.window.sides[axis_in_particle])
        key = (t, axis_in_particle)
        if key not in self._kernels:
            self._kernels[key] = HeatKernel1D(L=L, t=t)
        return self._kernels[key]

    def _matrix(self, t: float, grid: StratumGrid, kind: str, axis: int) -> np.ndarray:
        """The 1-d kernel matrix of one grid axis, built once per operator.

        The key is (t, kind, axis in the particle, order) and the grid's
        interval on that axis, which fix the Gauss-Legendre nodes; the cached
        matrices are read-only.
        """
        a = axis % self.window.dim
        ker = self._axis_kernel(t, a)
        if required_order(t, ker.L) > grid.order:
            raise QuadratureError(f"grid order {grid.order} cannot resolve the kernel at t={t}")
        key = (t, kind, a, grid.order, grid.window.lower[a], grid.window.upper[a])
        if key not in self._kernel_matrices:
            build = {"neumann": ker.matrix, "dx": ker.matrix_dx,
                     "dirichlet": ker.matrix_dirichlet}[kind]
            K = build(grid.nodes[axis] - self.window.lower[a], grid.weights[axis])
            K.setflags(write=False)
            self._kernel_matrices[key] = K
        return self._kernel_matrices[key]

    def tensor_apply(self, values: np.ndarray, t: float, grid: StratumGrid,
                     special_axis: int | None = None,
                     special_kind: str = "dx") -> np.ndarray:
        """Apply the tensor kernel along every axis (one axis may use the
        differentiated or absorbing kernel)."""
        out = values
        for axis in range(grid.axes):
            K = self._matrix(t, grid, special_kind if axis == special_axis else "neumann", axis)
            out = np.moveaxis(np.tensordot(K, out, axes=([1], [axis])), 0, axis)
        return out

    def gradient_of_semigroup(self, F, t: float, k: int,
                              order: int | None = None) -> tuple[StratumGrid, np.ndarray]:
        """Full product-space gradient of T_t F on the k-stratum grid.

        Returns (grid, G) with G of shape (axes, *grid.shape()); works for
        indicator-type F as well since only the kernel is differentiated.
        A configuration functional is symmetric in its particles and the grid
        has the same nodes for every particle, so only particle 0's n
        components are kernel applications: particle j's are the same arrays
        with the particle blocks 0 and j swapped (k n -> n ``tensor_apply``).
        """
        grid = self.grid(k, order)
        vals = _eval_on_grid(F, grid)
        n = self.window.dim
        comps = [self.tensor_apply(vals, t, grid, special_axis=ax, special_kind="dx")
                 for ax in range(n)]
        for j in range(1, k):
            swap = list(range(grid.axes))
            swap[:n], swap[j * n:(j + 1) * n] = swap[j * n:(j + 1) * n], swap[:n]
            comps += [np.transpose(g, swap) for g in comps[:n]]
        return grid, np.stack(comps, axis=0)


def lift_semigroup(F, t: float, op: LiftedHeatOperator, k: int,
                   order: int | None = None) -> tuple[StratumGrid, np.ndarray]:
    """T_t F on the k-particle stratum grid (tensor kernel quadrature)."""
    if t <= 0:
        raise DomainError("t must be positive")
    if k > op.K_max:
        raise DomainError(f"stratum {k} exceeds the count truncation {op.K_max}")
    grid = op.grid(k, order)
    return grid, op.tensor_apply(_eval_on_grid(F, grid), t, grid)


def lifted_gradient_norm(F, t: float | None, op: LiftedHeatOperator,
                         p: float = 1.0) -> tuple[float, float]:
    """|| grad T_t F ||_p^p under the Poisson measure (t=None means grad F).

    Grid strata are summed with Poisson weights; the last grid stratum's
    contribution is charged to the error bar as a conservative proxy for the
    truncated tail (no charge when F lives on a single stratum).
    """
    single = isinstance(F, SetSpec) and F.count_equals is not None
    strata = Strata(op.window, orders=op.grid_orders, K_max=op.grid_k_max,
                    count_equals=F.count_equals if single else None)

    def term(s):
        if t is None:
            grid = op.grid(s.k, s.order)
            sq = np.zeros(grid.shape())
            for c in _grad_grid(F, grid):
                sq += c * c
        else:
            grid, G = op.gradient_of_semigroup(F, t, s.k, s.order)
            sq = np.einsum("a...,a...->...", G, G)
        return [(grid.integrate(sq ** (p / 2.0)) / op.window.volume ** s.k, 0.0)]

    res = strata.integrate(term)
    tail_err = 0.0 if single else abs(res.per_k[max(res.per_k)])
    return res.value, tail_err


def _grad_grid(F, grid: StratumGrid) -> list[np.ndarray]:
    """Components of the product-space gradient of F itself on the grid, from
    ``F.gradient`` on the grid's tuples; component j n + c is coordinate c of
    particle j."""
    if not isinstance(F, CylinderFunction):
        raise DomainError("direct gradients on grids need a cylinder function")
    X = stratum_grid_points(grid.window, grid.k, grid.order)[0]
    G = F.gradient(X).reshape(-1, grid.axes)
    return [G[:, a].reshape(grid.shape()) for a in range(grid.axes)]


# ---------------------------------------------------------------------------
# intertwining


@dataclass(frozen=True)
class IntertwiningReport:
    t: float
    k: int
    max_residual: float
    refinement_residual: float


def check_intertwining(f, t: float, op: LiftedHeatOperator, k: int = 1,
                       order: int | None = None) -> IntertwiningReport:
    """Compare the two routes to the gradient of the lifted semigroup of f-star.

    Route one differentiates the Neumann kernel; route two applies the
    absorbing-boundary kernel to the exact gradient of the statistic.  The
    report carries the residual at double resolution as a quadrature error
    estimate.
    """
    if k > 2:
        raise DomainError("intertwining grids are limited to k <= 2")
    from .cylinder import cyl_from_star
    F = cyl_from_star(f)

    def residual(order_):
        grid = op.grid(k, order_)
        vals = _eval_on_grid(F, grid)
        worst = 0.0
        dvals = _grad_grid(F, grid)
        for ax in range(grid.axes):
            lhs = op.tensor_apply(vals, t, grid, special_axis=ax, special_kind="dx")
            rhs = op.tensor_apply(dvals[ax], t, grid, special_axis=ax, special_kind="dirichlet")
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        return worst

    base_order = order or max(op.grid_orders.get(k, 48), 96)
    r1 = residual(base_order)
    r2 = residual(min(2 * base_order, 192))
    return IntertwiningReport(t=t, k=k, max_residual=r1, refinement_residual=r2)


# ---------------------------------------------------------------------------
# pointwise p-Bakry-Emery check


@dataclass(frozen=True)
class ViolationReport:
    p: float
    t: float
    n_samples: int
    max_violation: float
    violation_fraction: float
    tolerance: float = 1e-8

    @property
    def passed(self) -> bool:
        return self.violation_fraction == 0.0

    def to_json(self) -> dict:
        return {"p": self.p, "t": self.t, "n": self.n_samples,
                "max_violation": self.max_violation,
                "violation_fraction": self.violation_fraction,
                "tolerance": self.tolerance}


# nodes per particle on the k-particle stratum; the battery's grid is q nodes of
# particle 0 by the R = C(q + k - 2, k - 1) multisets of the others' nodes
_BE_ORDERS = {1: 64, 2: 48, 3: 24, 4: 16, 5: 12, 6: 12, 7: 9, 8: 8}


def _draw_configurations(plan: MCPlan) -> dict[int, np.ndarray]:
    """The plan's samples as (m_k, k, n) tuple stacks by particle count k, from
    one draw of the plan (``montecarlo.draw_by_count``)."""
    return {k: X for k, (_, X) in draw_by_count(plan).items()}


@functools.lru_cache(maxsize=None)
def _multisets(q: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The R = C(q + r - 1, r) multisets of r nodes out of q as sorted rows
    (R, r), and ``up`` (q, R_{r-1}): ``up[x, i]`` is the row of multiset i of
    r - 1 nodes with node x added (empty when r = 0).  Cached; read-only."""
    combos = list(itertools.combinations_with_replacement(range(q), r))
    rows = np.array(combos, dtype=np.intp).reshape(len(combos), r)
    up = np.empty((q, 0), dtype=np.intp)
    if r:
        index = {row: i for i, row in enumerate(map(tuple, rows.tolist()))}
        smaller = _multisets(q, r - 1)[0].tolist()
        up = np.array([[index[tuple(sorted(M + [x]))] for M in smaller] for x in range(q)],
                      dtype=np.intp)
    rows.setflags(write=False)
    up.setflags(write=False)
    return rows, up


def _fold(vecs: np.ndarray) -> np.ndarray:
    """W (R, n): W[M] sums prod_s vecs[s, a_s] over the ordered node tuples
    (a_1, ..., a_r) with multiset M, for n rows of r slots of q node weights.

    Slot by slot, W_{s+1}[M] = sum over the distinct x in M of
    W_s[M - x] vecs[s, x], so no array of q^r entries per row is made.
    """
    r, q, n = vecs.shape
    W = np.ones((1, n))
    for s in range(r):
        rows, up = _multisets(q, s + 1)
        grown = np.zeros((rows.shape[0], n))
        for x in range(q):
            grown[up[x]] += W * vecs[s, x]
        W = grown
    return W


def _bilinear(left: np.ndarray, table: np.ndarray, W: np.ndarray) -> np.ndarray:
    """sum over a, M of left[i, a] table[s, a, M] W[M, i], shape (n, S).

    The longer of the q and R axes is contracted by the matrix product, so
    the temporary has n * S * min(q, R) entries.
    """
    S, q, R = table.shape
    if R <= q:
        mid = left @ table.transpose(1, 0, 2).reshape(q, S * R)
        return np.einsum("isr,ri->is", mid.reshape(-1, S, R), W)
    mid = table.reshape(S * q, R) @ W
    return np.einsum("sai,ia->is", mid.reshape(S, q, -1), left)


def _be_weights(A: np.ndarray) -> np.ndarray:
    """The Neumann vectors A (b, k, q) of particles 1..k-1 folded onto
    multisets, shape (R, k * b); row j * b + i serves gradient component j
    of sample i.  F is symmetric in its particles, so component j is that of
    particle 0 with particles 0 and j swapped: A_0 goes in slot j (and D_j on
    particle 0).  The rows of component 0 serve the right side too.
    """
    b, k, q = A.shape
    At = A.transpose(1, 2, 0)                                  # (k, q, b)
    vecs = np.repeat(At[1:, :, None, :], k, axis=2)            # (k-1, q, k, b)
    for s in range(1, k):
        vecs[s - 1, :, s] = At[0]
    return _fold(vecs.reshape(k - 1, q, k * b))


def _be_integrate(F: CylinderFunction, nodes: np.ndarray, lo: float, ps: list[float],
                  A: np.ndarray, D: np.ndarray, W: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the pointwise check for F on the k-particle stratum.

    A and D hold the Neumann and absorbing kernel vectors, shape (b, k, q), of
    b samples over the q nodes per particle, and W their folds
    (``_be_weights``).  Returns the right sides, |grad F|^p integrated with A
    on every particle, shape (b, P), and the gradient components of the left
    side, shape (b, k): component j is the gradient of F along particle j
    integrated with D on particle j and A on the others.

    Both integrands are evaluated once per node of particle 0 and multiset
    of the others' nodes (a q x R table), and each side is one bilinear
    contraction of that table with the sample weights.
    """
    b, k, q = A.shape
    rows = _multisets(q, k - 1)[0]
    pts_col = (nodes + lo)[:, None]
    fvals = np.stack([f.value(pts_col) for f in F.inners], axis=-1)   # (q, l)
    fgrads = np.stack([f.gradient(pts_col)[:, 0] for f in F.inners], axis=-1)
    # the linear statistics, summed over the particles in order
    u = np.repeat(fvals[:, None, :], rows.shape[0], axis=1)          # (q, R, l)
    for c in range(k - 1):
        u += fvals[rows[:, c]]
    dphi = [F.outer.partial(i).eval(u) for i in range(F.arity)]

    def along(fg):
        """The gradient component of a particle whose inner gradients are fg."""
        g = dphi[0] * fg[..., 0]
        for i in range(1, F.arity):
            g += dphi[i] * fg[..., i]
        return g

    g0 = along(fgrads[:, None, :])
    sq = g0 * g0
    for c in range(k - 1):
        sq += along(fgrads[rows[:, c]]) ** 2
    powers = np.stack([sq ** (p / 2.0) for p in ps])                  # (P, q, R)
    rhs = _bilinear(A[:, 0], powers, W[:, :b])
    comps = _bilinear(D.transpose(1, 0, 2).reshape(k * b, q), g0[None], W)
    return rhs, comps.reshape(k, b).T


def bakry_emery_battery(battery: Mapping[str, CylinderFunction], ps, ts,
                        op: LiftedHeatOperator, plan: MCPlan, tolerance: float = 1e-8
                        ) -> dict[str, list[ViolationReport]]:
    """Pointwise |grad T_t F|^p <= T_t |grad F|^p over sampled configurations.

    Both sides are quadratures over the same per-sample product grid: the
    right side contracts |grad F|^p with the Neumann kernel, the left side
    contracts the integrand gradient with the absorbing kernel (equal to the
    differentiated Neumann kernel after integration by parts).

    ``battery`` maps names to cylinder functions.  The plan is drawn once and
    its samples grouped by particle count k.  Per (k, t), one pass over the
    kernel images gives the Neumann and absorbing vectors of every sample.
    Configurations are unordered, so the grid is the quotient of the q^k
    ordered node tuples by particle swaps: q nodes of particle 0 by the
    R = C(q + k - 2, k - 1) multisets of the others' nodes.  Per k, every
    sample's vectors are folded onto those multisets once (``_be_weights``);
    per (F, k), both integrands are evaluated on the q x R table and
    contracted with the folds by two matrix products, so memory is
    O(b k R + P q R) for b samples and times.  One-dimensional windows
    only; counts beyond the configured orders use a coarse grid, which stays
    faithful because both sides share it.  Returns name -> one
    ViolationReport per (p, t), p-major.
    """
    if op.window.dim != 1:
        raise DomainError("the pointwise check is implemented for 1-d windows")
    ps = [float(p) for p in np.atleast_1d(ps)]
    ts = [float(t) for t in np.atleast_1d(ts)]
    if any(p < 1 for p in ps):
        raise DomainError("p must be at least 1")
    P, nt = len(ps), len(ts)
    # per name, the largest gap and the violation count, shape (P, nt)
    worst = {name: np.zeros((P, nt)) for name in battery}
    counts = {name: np.zeros((P, nt), dtype=int) for name in battery}
    L = float(op.window.sides[0])
    lo = op.window.lower[0]
    for k, X in _draw_configurations(plan).items():
        if k == 0:
            continue  # both sides vanish on the vacuum
        q = _BE_ORDERS.get(k, 8)
        nodes, w = gauss_legendre(0.0, L, q)
        xs = X[:, :, 0][..., None] - lo                                  # (m, k, 1)
        pairs = [op._axis_kernel(t, 0).kernel_and_dirichlet(xs, nodes[None, None, :])
                 for t in ts]
        m = X.shape[0]
        A = np.stack([kn * w for kn, _ in pairs]).reshape(nt * m, k, q)
        D = np.stack([kd * w for _, kd in pairs]).reshape(nt * m, k, q)
        W = _be_weights(A)
        for name, F in battery.items():
            rhs, comps = _be_integrate(F, nodes, lo, ps, A, D, W)
            rhs, comps = rhs.reshape(nt, m, P), comps.reshape(nt, m, k)
            lhs_sq = np.zeros((nt, m))
            for j in range(k):
                lhs_sq += comps[:, :, j] * comps[:, :, j]
            for i, p in enumerate(ps):
                gap = np.maximum(lhs_sq, 0.0) ** (p / 2.0) - rhs[:, :, i]   # (nt, m)
                worst[name][i] = np.maximum(worst[name][i], np.max(gap, axis=1))
                counts[name][i] += np.sum(gap > tolerance, axis=1)
    n_total = plan.n_samples
    return {name: [ViolationReport(p=p, t=t, n_samples=n_total,
                                   max_violation=float(worst[name][i, ti]),
                                   violation_fraction=int(counts[name][i, ti]) / max(n_total, 1),
                                   tolerance=tolerance)
                   for i, p in enumerate(ps) for ti, t in enumerate(ts)]
            for name in battery}


def regularization_slope(op: LiftedHeatOperator, t_grid, modes=range(1, 9),
                         order: int = 96) -> tuple[float, list[tuple[float, float]]]:
    """Log-log slope of the heat regularization envelope (p = 2).

    The mode statistics factor over particles, so the envelope of
    ||grad T_t F_j|| / ||F_j|| over cosine modes is computed on the
    single-particle stratum with a high-order grid and the differentiated
    kernel; the fitted slope probes the discretized semigroup, not a closed
    form.  The sharp regularization exponent is -1/2.
    """
    from .geometry import SmoothFunction

    if op.window.dim != 1:
        raise DomainError("the regularization probe is 1-d")
    grid = op.grid(1, order)
    w = grid.weights[0]
    fvs = [SmoothFunction.neumann_mode((j,), op.window).value(grid.nodes[0][:, None])
           for j in modes]
    pairs = []
    for t in t_grid:
        best = 0.0
        for fv in fvs:
            dTf = op.tensor_apply(fv, t, grid, special_axis=0, special_kind="dx")
            num = np.sqrt(np.sum(w * dTf * dTf))
            den = np.sqrt(np.sum(w * fv * fv))
            best = max(best, num / den)
        pairs.append((float(t), float(best)))
    logs = np.log(np.array(pairs))
    slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    return slope, pairs


# ---------------------------------------------------------------------------
# Bessel operator and capacity upper bounds


@dataclass(frozen=True)
class BesselOperator:
    """Gamma-weighted time average of the heat semigroup.

    B F = (1/Gamma(alpha/2)) * integral of e^{-t} t^{alpha/2-1} T_t F dt,
    realized by 48-node generalized Gauss-Laguerre quadrature; exact on
    constants.  The rule comes from the Jacobi matrix of the Laguerre
    polynomials L^(a), a = alpha/2 - 1 (Golub and Welsch, Math. Comp. 23,
    1969): its eigenvalues, polished by one Newton step, are the nodes, and
    the weight of the normalized measure at a node x is the squared first
    component of the unit eigenvector, 1 / sum_j p_j(x)^2 over the orthonormal
    polynomials p_j.  The recurrence gives the tiny weights of the far nodes
    to full relative precision; eigenvector components from ``eigh`` carry
    only an absolute error, which puts the moments of t^20 1e-11 off.
    """

    alpha: float
    p: float

    def __post_init__(self):
        if self.alpha <= 0 or not (1.0 <= self.p < np.inf):
            raise DomainError("need alpha > 0 and p in [1, inf)")

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        a, n = self.alpha / 2.0 - 1.0, 48
        j = np.arange(n + 1.0)
        diag, off = 2.0 * j + a + 1.0, np.sqrt(j * (j + a))  # off[j] couples j - 1 and j
        x = np.linalg.eigvalsh(np.diag(diag[:n]) + np.diag(off[1:n], 1) + np.diag(off[1:n], -1))
        p, dp, _ = _orthonormal_laguerre(x, diag, off)
        x = x - p / dp
        return x, 1.0 / _orthonormal_laguerre(x, diag, off)[2]


def _orthonormal_laguerre(x: np.ndarray, diag: np.ndarray, off: np.ndarray):
    """p_n(x), p_n'(x) and sum_{j<n} p_j(x)^2 for the orthonormal polynomials of
    the Jacobi matrix (``diag``, ``off``), n = len(diag) - 1, by the three-term
    recurrence off[j+1] p_{j+1} = (x - diag[j]) p_j - off[j] p_{j-1}."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    dprev, dcur = np.zeros_like(x), np.zeros_like(x)
    norm_sq = np.zeros_like(x)
    for k in range(len(diag) - 1):
        norm_sq += cur * cur
        prev, cur, dprev, dcur = (
            cur, ((x - diag[k]) * cur - off[k] * prev) / off[k + 1],
            dcur, (cur + (x - diag[k]) * dcur - off[k] * dprev) / off[k + 1])
    return cur, dcur, norm_sq


def bessel_apply(F, B: BesselOperator, op: LiftedHeatOperator,
                 gammas: list[Configuration], t_floor: float = 5e-4) -> np.ndarray:
    """B F at the given configurations (per-sample tensor quadrature).

    Laguerre nodes below ``t_floor`` are evaluated at the floor; for bounded F
    this perturbs the average by at most the weight mass below the floor times
    the modulus of continuity of t -> T_t F, and keeps kernel quadrature well
    posed.
    """
    ts, ws = B.nodes_weights()
    ts = np.maximum(ts, t_floor)
    out = np.zeros(len(gammas))
    for i, gamma in enumerate(gammas):
        acc = 0.0
        for t, w in zip(ts, ws):
            acc += w * _semigroup_at(F, gamma, t, op)
        out[i] = acc
    return out


def _semigroup_at(F, gamma: Configuration, t: float, op: LiftedHeatOperator) -> float:
    """T_t F(gamma) by per-particle kernel quadrature (1-d windows).

    Each particle's kernel is integrated over a localized sub-interval
    carrying all but ~1e-11 of its mass, so long windows stay resolvable at
    small times.
    """
    k = gamma.count
    if k == 0:
        return F.value(gamma)
    if op.window.dim != 1:
        raise DomainError("per-sample semigroup evaluation is 1-d only")
    L = float(op.window.sides[0])
    lo = op.window.lower[0]
    q = _BE_ORDERS.get(k, 8)
    ker = op._axis_kernel(t, 0)
    xs = gamma.points[:, 0] - lo
    reach = 7.0 * np.sqrt(2.0 * t)
    rows_A = []
    rows_pts = []
    for x in xs:
        a = max(0.0, x - reach)
        b = min(L, x + reach)
        nodes, w = gauss_legendre(a, b, q)
        rows_A.append(ker.kernel(np.full(q, x), nodes) * w)
        rows_pts.append(nodes + lo)
    if isinstance(F, CylinderFunction):
        shape = (q,) * k
        u = np.zeros(shape + (F.arity,))
        for j in range(k):
            fv = np.stack([f.value(rows_pts[j][:, None]) for f in F.inners], axis=-1)
            u = u + fv.reshape([q if a == j else 1 for a in range(k)] + [F.arity])
        vals = F.outer.value(u)
        out = vals
        for j in range(k):
            out = np.tensordot(rows_A[j], out, axes=([0], [0]))
        return float(out)
    raise DomainError("per-sample semigroup needs a cylinder function")


def capacity_upper_bound(E_sieve: list[Configuration], candidates: list,
                         B: BesselOperator, op: LiftedHeatOperator) -> tuple[float, dict]:
    """Upper bound on the (B.alpha, B.p) capacity of the set represented by the sieve.

    Each candidate is a pair (F, norm_fn) of a nonnegative F and its exact
    p-norm routine (e.g. factorized over independent regions); F is scaled so
    that B F >= 1 on the sieve configurations, and the bound is the smallest
    ||F / min_sieve(B F)||_p^p.  An empty sieve encodes the empty set
    (capacity zero).  Returns (bound, diagnostics); the bound is +inf when no
    candidate has a positive sieve minimum.
    """
    if not candidates:
        raise DomainError("candidate list must be nonempty")
    if not E_sieve:
        return 0.0, {"note": "empty set"}
    p = B.p
    best = float("inf")
    diag = {"candidates": []}
    for F, norm_fn in candidates:
        bf = bessel_apply(F, B, op, E_sieve)
        m = float(np.min(bf))
        if m <= 0:
            diag["candidates"].append({"sieve_min": m, "norm": None})
            continue
        norm_p = float(norm_fn(p))
        bound = norm_p / m**p
        diag["candidates"].append({"sieve_min": m, "norm": norm_p, "bound": bound})
        best = min(best, bound)
    if np.isinf(best):
        diag["note"] = "no candidate reached a positive sieve minimum"
    return best, diag
