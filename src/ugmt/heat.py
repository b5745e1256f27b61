"""Lifted heat semigroup on the configuration space over a box.

The Poisson measure splits over particle counts, and the lifted semigroup
acts stratum by stratum as the k-fold tensor Neumann semigroup on the product
box, so every operator here reduces to 1-d kernel matrices applied along
tensor-grid axes.  Gradients of semigroup outputs are computed through the
differentiated kernel (equivalently, the absorbing-boundary kernel applied to
the differentiated integrand), never by finite differences.  Functionals
on a stratum grid come from the same ``value``/``gradient`` and
``productspace.stratum_indicator`` that evaluate every other batch, on the
node multisets of ``montecarlo.stratum_grid_points``, gathered onto the grid.

The per-sample routes (the pointwise Bakry-Emery check and the Bessel
operator) work on the (m, k, n) tuple stacks of one particle count at a
time: B F at a list of (k, n) point arrays takes one ``_semigroup_at`` pass
per count over every configuration and Laguerre time, with one image sum per
image order of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .configuration import SetSpec, by_count
from .cylinder import CylinderFunction, ExponentialCylinderFunction
from .geometry import (BoxDomain, DomainError, HeatKernel1D, QuadratureError,
                       _check_kernel_args, _image_sum, _legendre_rule, _neumann_term,
                       gauss_legendre, required_order)
from .montecarlo import (MCPlan, Strata, StratumGrid, _fold, _multisets, _tuple_index,
                         draw_by_count, stratum_grid_points)
from .productspace import stratum_indicator

__all__ = [
    "LiftedHeatOperator",
    "BesselOperator",
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

    F is symmetric in its particles, so it is evaluated on the rows of the
    multiset rule (the cached read-only ``stratum_grid_points``) by the
    evaluator every other route uses: ``value`` for cylinder functions and
    product statistics, ``productspace.stratum_indicator`` for level-set specs.
    Inside a ``shared_draws`` scope each inner function's statistic is
    computed once per grid.
    """
    X = stratum_grid_points(grid.window, grid.k, grid.order)[0]
    if isinstance(F, SetSpec):
        if F.variant not in ("level_set", "level_sheet"):
            raise DomainError("grid path supports level-set specs only")
        vals = stratum_indicator(F, grid.k, X)
    elif isinstance(F, (CylinderFunction, ExponentialCylinderFunction)):
        vals = F.value(X)
    else:
        raise TypeError(f"no grid evaluation for {type(F)}")
    return grid.ordered(vals)


def _all_particles(comps: list[np.ndarray], k: int, n: int) -> list[np.ndarray]:
    """The k n gradient components on the grid from particle 0's n: F is
    symmetric and every particle has the same nodes, so particle j's are
    particle 0's with the particle blocks 0 and j swapped."""
    out = list(comps)
    for j in range(1, k):
        swap = list(range(k * n))
        swap[:n], swap[j * n:(j + 1) * n] = swap[j * n:(j + 1) * n], swap[:n]
        out += [np.transpose(g, swap) for g in comps]
    return out


@dataclass
class LiftedHeatOperator:
    """Stratum-wise tensor Neumann semigroup over a box window.

    Grid-based operations are available for small particle counts (per-axis
    orders shrink as k grows).
    """

    window: BoxDomain
    grid_orders: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.grid_orders:
            if self.window.dim == 1:
                self.grid_orders = {1: 80, 2: 64, 3: 40, 4: 24}
            else:
                self.grid_orders = {1: 24, 2: 10}
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
        Only particle 0's n components are kernel applications; the others
        come by ``_all_particles`` (k n -> n ``tensor_apply``).
        """
        grid = self.grid(k, order)
        vals = _eval_on_grid(F, grid)
        n = self.window.dim
        comps = [self.tensor_apply(vals, t, grid, special_axis=ax, special_kind="dx")
                 for ax in range(n)]
        return grid, np.stack(_all_particles(comps, k, n), axis=0)


def lifted_gradient_norm(F, t: float | None, op: LiftedHeatOperator,
                         p: float = 1.0) -> tuple[float, float]:
    """|| grad T_t F ||_p^p under the Poisson measure (t=None means grad F).

    Grid strata are summed with Poisson weights; the last grid stratum's
    contribution is charged to the error bar as a conservative proxy for the
    truncated tail (no charge when F lives on a single stratum).
    """
    if t is None and not isinstance(F, CylinderFunction):
        raise DomainError("direct gradients on grids need a cylinder function")
    single = isinstance(F, SetSpec) and F.count_equals is not None
    strata = Strata(op.window, orders=op.grid_orders, K_max=op.grid_k_max,
                    count_equals=F.count_equals if single else None)

    def term(s):
        if t is None:
            return [s.average(lambda X: np.sum(F.gradient(X) ** 2, axis=(-2, -1)) ** (p / 2.0))]
        grid, G = op.gradient_of_semigroup(F, t, s.k, s.order)
        sq = np.einsum("a...,a...->...", G, G)
        return [(grid.integrate(sq ** (p / 2.0)) / op.window.volume ** s.k, 0.0)]

    res = strata.integrate(term)
    tail_err = 0.0 if single else abs(res.per_k[max(res.per_k)])
    return res.value, tail_err


def _grad_grid(F, grid: StratumGrid) -> list[np.ndarray]:
    """Components of the product-space gradient of F itself on the grid;
    component j n + c is coordinate c of particle j.  Particle 0's come from
    ``F.gradient`` at its Q nodes by the multisets of the others' nodes."""
    if not isinstance(F, CylinderFunction):
        raise DomainError("direct gradients on grids need a cylinder function")
    k, n = grid.k, grid.window.dim
    nodes = stratum_grid_points(grid.window, 1, grid.order)[0][:, 0]      # (Q, n)
    Q, rest = len(nodes), _multisets(len(nodes), k - 1)[0]
    rows = np.column_stack([np.repeat(np.arange(Q), len(rest)), np.tile(rest, (Q, 1))])
    G0 = F.gradient(nodes[rows])[:, 0].reshape(Q, len(rest), n)[:, _tuple_index(Q, k - 1)]
    return _all_particles([G0[..., c].reshape(grid.shape()) for c in range(n)], k, n)


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


# nodes per particle on the k-particle stratum; the battery's grid is q nodes of
# particle 0 by the R = C(q + k - 2, k - 1) multisets of the others' nodes
_BE_ORDERS = {1: 64, 2: 48, 3: 24, 4: 16, 5: 12, 6: 12, 7: 9, 8: 8}


def _draw_configurations(plan: MCPlan) -> dict[int, np.ndarray]:
    """The plan's samples as (m_k, k, n) tuple stacks by particle count k, from
    one draw of the plan (``montecarlo.draw_by_count``)."""
    return {k: X for k, (_, X) in draw_by_count(plan).items()}


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
    F.add_offset(u)
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
    sample's vectors are folded onto those multisets once (``_be_weights``,
    by ``montecarlo._fold``, which also weights the stratum rules);
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


def regularization_slope(op: LiftedHeatOperator,
                         t_grid) -> tuple[float, list[tuple[float, float]]]:
    """Log-log slope of the heat regularization envelope (p = 2).

    The mode statistics factor over particles, so the envelope of
    ||grad T_t F_j|| / ||F_j|| over the cosine modes j = 1..8 is computed on
    the single-particle stratum with an order-96 grid and the differentiated
    kernel; the fitted slope probes the discretized semigroup, not a closed
    form.  The sharp regularization exponent is -1/2.
    """
    from .geometry import SmoothFunction

    if op.window.dim != 1:
        raise DomainError("the regularization probe is 1-d")
    grid = op.grid(1, 96)
    w = grid.weights[0]
    fvs = [SmoothFunction.neumann_mode((j,), op.window).value(grid.nodes[0][:, None])
           for j in range(1, 9)]
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
        """The rule's nodes and weights, built once per operator; read-only."""
        return self._rule

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray]:
        a, n = self.alpha / 2.0 - 1.0, 48
        j = np.arange(n + 1.0)
        diag, off = 2.0 * j + a + 1.0, np.sqrt(j * (j + a))  # off[j] couples j - 1 and j
        x = np.linalg.eigvalsh(np.diag(diag[:n]) + np.diag(off[1:n], 1) + np.diag(off[1:n], -1))
        p, dp, _ = _orthonormal_laguerre(x, diag, off)
        x = x - p / dp
        w = 1.0 / _orthonormal_laguerre(x, diag, off)[2]
        x.setflags(write=False)
        w.setflags(write=False)
        return x, w


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
                 gammas: list[np.ndarray], t_floor: float = 5e-4) -> np.ndarray:
    """B F at the configurations ``gammas``, point arrays (k, n), batched by
    particle count.

    The configurations are grouped by count (``configuration.by_count``);
    each count takes one ``_semigroup_at`` call at every Laguerre time, and
    B F is the Laguerre-weighted sum of its rows.  Laguerre nodes below
    ``t_floor`` are evaluated at the floor; for bounded F this perturbs the
    average by at most the weight mass below the floor times the modulus of
    continuity of t -> T_t F, and keeps kernel quadrature well posed.
    """
    ts, ws = B.nodes_weights()
    ts = np.maximum(ts, t_floor)
    counts = np.array([len(g) for g in gammas], dtype=int)
    points = np.concatenate([np.zeros((0, op.window.dim)), *gammas])
    out = np.zeros(len(gammas))
    for idx, X in by_count(counts, points).values():
        out[idx] = ws @ _semigroup_at(F, X, ts, op)
    return out


def _kernel_rows(X: np.ndarray, ts: np.ndarray, op: LiftedHeatOperator,
                 q: int) -> tuple[np.ndarray, np.ndarray]:
    """Localized kernel quadrature of every particle at every time (1-d).

    For the configurations X (m, k, 1) and times ts (T,), returns the nodes
    (T, m, k, q) and the kernel rows k_t(x, node) w (T, m, k, q): q
    Gauss-Legendre nodes on the sub-interval within 7 sqrt(2 t) of the
    particle x, which carries all but ~1e-11 of the kernel's mass, so long
    windows stay resolvable at small times.  The times are grouped by the
    image order of their kernel, and each group's rows come from one image
    pass with t broadcast; every row equals ``HeatKernel1D(L, t).kernel``
    times the ``gauss_legendre`` weights on its sub-interval bit for bit.
    """
    L = float(op.window.sides[0])
    xs = X[None, :, :, :1] - op.window.lower[0]                        # (1, m, k, 1)
    t = ts[:, None, None, None]
    reach = 7.0 * np.sqrt(2.0 * t)
    lo, hi = np.maximum(0.0, xs - reach), np.minimum(L, xs + reach)
    x, w = _legendre_rule(q)
    half = 0.5 * (hi - lo)
    nodes, weights = lo + half * (x + 1.0), half * w                    # gauss_legendre's rule
    _check_kernel_args(xs, nodes, t, L)
    orders = np.array([op._axis_kernel(s, 0).M for s in ts])
    rows = np.empty(nodes.shape)
    for M in np.unique(orders):
        sel = orders == M
        rows[sel] = _image_sum(xs, nodes[sel], t[sel], L, int(M), _neumann_term)[0] * weights[sel]
    return nodes, rows


def _semigroup_at(F, X: np.ndarray, ts, op: LiftedHeatOperator) -> np.ndarray:
    """T_t F at the k-point configurations X (m, k, 1) for every time t in
    ts, shape (T, m), by per-particle kernel quadrature (1-d windows).

    One call serves every configuration and time: the inner functions are
    evaluated once on the (T, m, k, q) nodes of ``_kernel_rows``, the outer
    once on the (T, m, q, ..., q) tensor grid of their sums, and each
    particle axis is contracted with its kernel rows by one einsum.  Memory
    is O(T m q^k) for the q = ``_BE_ORDERS[k]`` nodes per particle.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    T, (m, k) = len(ts), X.shape[:2]
    if k == 0:
        return np.tile(F.value(X), (T, 1))
    if op.window.dim != 1:
        raise DomainError("per-sample semigroup evaluation is 1-d only")
    if not isinstance(F, CylinderFunction):
        raise DomainError("per-sample semigroup needs a cylinder function")
    q = _BE_ORDERS.get(k, 8)
    nodes, rows = _kernel_rows(X, ts, op, q)
    pts = (nodes + op.window.lower[0])[..., None]
    fv = np.stack([f.value(pts) for f in F.inners], axis=-1)           # (T, m, k, q, l)
    u = np.zeros((T, m) + (q,) * k + (F.arity,))
    for j in range(k):
        u = u + fv[:, :, j].reshape((T, m) + tuple(q if a == j else 1 for a in range(k))
                                    + (F.arity,))
    out = F.outer.value(F.add_offset(u))
    for j in range(k):
        out = np.einsum("tmq,tmq...->tm...", rows[:, :, j], out)
    return out


def capacity_upper_bound(sieve: list[np.ndarray], F, norm_fn, B: BesselOperator,
                         op: LiftedHeatOperator) -> tuple[float, float]:
    """Upper bound on the (B.alpha, B.p) capacity of the set represented by the
    sieve, point arrays (k, n), and the lowest B F on the sieve.

    F is a nonnegative candidate and ``norm_fn(p)`` is ||F||_p^p exactly (e.g.
    factorized over independent regions); F / min_sieve(B F) has B F >= 1 on
    the sieve, so ||F||_p^p / min^p bounds the capacity.  An empty sieve
    encodes the empty set: (0.0, inf).  A nonpositive minimum gives no
    bound: (inf, minimum).
    """
    if not sieve:
        return 0.0, float("inf")
    low = float(np.min(bessel_apply(F, B, op, sieve)))
    if low <= 0:
        return float("inf"), low
    return float(norm_fn(B.p)) / low**B.p, low
