import numpy as np
import pytest

from ugmt.configuration import Configuration, SetSpec
from ugmt.cylinder import (CylinderFunction, ExponentialCylinderFunction,
                           OuterFunction, add_n, const, coord, cyl_compose,
                           cyl_from_star, cyl_mul, mul_n, smoothstep, tanh_of)
from ugmt.geometry import (BoxDomain, DomainError, QuadratureError, SmoothFunction,
                           gauss_legendre, interval)
from ugmt.heat import (BesselOperator, LiftedHeatOperator, _eval_on_grid, _semigroup_at,
                       bakry_emery_battery, bessel_apply, capacity_upper_bound,
                       check_intertwining, lift_semigroup,
                       lifted_gradient_norm, regularization_slope)
from ugmt.montecarlo import MCPlan, integrate

UNIT = interval(0.0, 1.0)
OP = LiftedHeatOperator(window=UNIT)


def shifted_mode(amp=-0.2):
    c = SmoothFunction.constant(amp, UNIT)
    m = SmoothFunction.neumann_mode((1,), UNIT, amplitude=amp)
    return SmoothFunction(kind="sum", support=UNIT, factors=(c, m), window=UNIT)


def _one_particle(L: float, order: int):
    """The operator on [0, L], its k = 1 grid of the given order, and the nodes."""
    op = LiftedHeatOperator(window=interval(0.0, L))
    grid = op.grid(1, order)
    return op, grid, grid.nodes[0]


def test_cosine_eigenfunction_decay():
    op, grid, x = _one_particle(1.0, 64)
    g = op.tensor_apply(np.cos(np.pi * x), 0.01, grid)
    exact = np.exp(-np.pi**2 * 0.01) * np.cos(np.pi * x)
    assert np.max(np.abs(g - exact)) < 1e-12
    # probe against the cosine mode's exact decay at x = 0.3
    probe = np.exp(-np.pi**2 * 0.01) * np.cos(0.3 * np.pi)
    assert abs(probe - 0.53254) < 5e-5


def test_semigroup_constant_and_mode():
    op, grid, x = _one_particle(1.0, 64)
    g = op.tensor_apply(np.full(x.shape, 3.0), 0.5, grid)
    assert np.max(np.abs(g - 3.0)) < 1e-10
    L = 2.0
    op2, grid2, x2 = _one_particle(L, 128)
    g2 = op2.tensor_apply(np.cos(2 * np.pi * x2 / L), 0.05, grid2)
    exact = np.exp(-((2 * np.pi / L) ** 2) * 0.05) * np.cos(2 * np.pi * x2 / L)
    assert np.max(np.abs(g2 - exact)) < 1e-10


def test_semigroup_property_and_contraction():
    f = SmoothFunction.bump(0.5, 0.25, 1.3)
    op, grid, x = _one_particle(1.0, 96)
    fv = f.value(x[:, None])
    g2 = op.tensor_apply(op.tensor_apply(fv, 0.02, grid), 0.03, grid)
    direct = op.tensor_apply(fv, 0.05, grid)
    assert np.max(np.abs(g2 - direct)) < 1e-8
    assert np.max(np.abs(direct)) <= 1.3 + 1e-12
    assert np.all(direct >= -1e-12)


def test_semigroup_quadrature_guard():
    op, grid, x = _one_particle(1.0, 64)
    with pytest.raises(QuadratureError):
        op.tensor_apply(x, 1e-5, grid)
    # 8 nodes cannot resolve the kernel at t = 0.01 (two nodes per sqrt(2t))
    op, grid, x = _one_particle(1.0, 8)
    with pytest.raises(QuadratureError):
        op.tensor_apply(x, 0.01, grid)


def test_conservative_on_constants():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    Fc = cyl_compose(lambda r: mul_n(const(0.0), r) + const(1.0), cyl_from_star(f))
    for k in (1, 2, 3):
        for t in (2e-3, 0.1, 10.0):
            grid, out = lift_semigroup(Fc, t, OP, k)
            assert np.max(np.abs(out - 1.0)) < 1e-9


def test_tensor_product_structure():
    # product integrand: the tensor semigroup factorizes per particle
    f = SmoothFunction.bump(0.5, 0.3, 0.6, window=UNIT)
    E = ExponentialCylinderFunction(f=shifted_mode(-0.25))
    t, k = 0.05, 2
    grid, lhs = lift_semigroup(E, t, OP, k)
    ker = OP._axis_kernel(t, 0)
    nodes, w = grid.nodes[0], grid.weights[0]
    K = ker.kernel(nodes[:, None], nodes[None, :]) * w[None, :]
    Ttf = K @ (1.0 + E.f.value(nodes[:, None]))
    rhs = Ttf[:, None] * Ttf[None, :]
    assert np.max(np.abs(lhs - rhs)) < 1e-8


@pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
def test_exponential_cylinder_identity(t):
    E = ExponentialCylinderFunction(f=shifted_mode(-0.2))
    for k in (1, 2, 3):
        grid, lhs = lift_semigroup(E, t, OP, k)
        ker = OP._axis_kernel(t, 0)
        nodes, w = grid.nodes[0], grid.weights[0]
        K = ker.kernel(nodes[:, None], nodes[None, :]) * w[None, :]
        Ttf = K @ E.f.value(nodes[:, None])
        rhs = np.ones(grid.shape())
        for j in range(k):
            shp = [1] * k
            shp[j] = len(nodes)
            rhs = rhs * (1.0 + Ttf.reshape(shp))
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_semigroup_law_on_exponentials():
    E = ExponentialCylinderFunction(f=shifted_mode(-0.3))
    s, t = 0.04, 0.07
    grid, two_step = lift_semigroup(E, s, OP, 2)
    # apply the second step on the grid output
    two_step = OP.tensor_apply(two_step, t, grid)
    _, direct = lift_semigroup(E, s + t, OP, 2)
    assert np.max(np.abs(two_step - direct)) < 1e-6


def test_kernel_matrix_cache_is_transparent():
    # a warmed operator reuses its kernel matrices; results must not move a bit
    f = SmoothFunction.bump(0.45, 0.3, 1.0, window=UNIT)
    F = cyl_compose(lambda r: tanh_of(r), cyl_from_star(f))
    warm = LiftedHeatOperator(window=UNIT)

    def run(op):
        out = []
        for t in (0.01, 0.05):
            for k in (1, 2):
                grid, G = op().gradient_of_semigroup(F, t, k)
                vals = np.cos(np.arange(G[0].size)).reshape(G[0].shape)
                out += [G, op().tensor_apply(vals, t, grid),
                        op().tensor_apply(vals, t, grid, special_axis=k - 1,
                                          special_kind="dirichlet")]
        return out

    run(lambda: warm)
    for a, b in zip(run(lambda: warm), run(lambda: LiftedHeatOperator(window=UNIT))):
        assert np.array_equal(a, b)
    # the resolution check runs on cached and uncached calls alike
    t = 1e-4
    fine = warm.grid(1, 160)
    warm.tensor_apply(np.ones(fine.shape()), t, fine)
    with pytest.raises(QuadratureError):
        warm.tensor_apply(np.ones(warm.grid(1).shape()), t, warm.grid(1))


_SQUARE_ISH = BoxDomain((0.0, 0.0), (1.0, 0.8))


def _symmetric_functionals(window):
    """A tanh-sum cylinder function and a level set of a bump statistic."""
    lin = SmoothFunction.linear(window) if window.dim == 1 else \
        SmoothFunction.bump((0.5, 0.4), 0.38, 1.0, window=window)
    bump = SmoothFunction.bump((0.45, 0.35)[:window.dim], 0.3, 1.0, window=window)
    return {"tanh-sum": cyl_compose(lambda r: tanh_of(mul_n(const(0.35), r)), cyl_from_star(lin)),
            "level-set": SetSpec.level_set(cyl_from_star(bump), 0.6)}


@pytest.mark.parametrize("window, ks, t", [(UNIT, (1, 2, 3, 4), 0.006), (UNIT, (1, 2, 3, 4), 0.02),
                                           (_SQUARE_ISH, (1, 2), 0.05)],
                         ids=["unit-0.006", "unit-0.02", "2d-0.05"])
def test_semigroup_gradient_by_particle_symmetry(window, ks, t):
    # particle j's components are particle 0's with the particle blocks
    # swapped; against one differentiated kernel application per axis
    op = LiftedHeatOperator(window=window)
    for name, F in _symmetric_functionals(window).items():
        for k in ks:
            grid, G = op.gradient_of_semigroup(F, t, k)
            assert G.shape == (grid.axes, *grid.shape())
            vals = _eval_on_grid(F, grid)
            for ax in range(grid.axes):
                want = op.tensor_apply(vals, t, grid, special_axis=ax, special_kind="dx")
                scale = np.max(np.abs(want))
                assert scale > 0.0, (name, k, ax)
                assert np.max(np.abs(G[ax] - want)) <= 1e-13 * scale, (name, k, ax)


def test_semigroup_gradient_applies_n_kernels_per_stratum(monkeypatch):
    calls = []
    apply = LiftedHeatOperator.tensor_apply

    def counting(self, *args, **kwargs):
        calls.append(kwargs.get("special_axis"))
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(LiftedHeatOperator, "tensor_apply", counting)
    for window, k in ((UNIT, 4), (_SQUARE_ISH, 2)):
        calls.clear()
        LiftedHeatOperator(window=window).gradient_of_semigroup(
            _symmetric_functionals(window)["tanh-sum"], 0.05, k)
        assert calls == list(range(window.dim))


def test_pi_symmetry_on_grids():
    f = SmoothFunction.bump(0.45, 0.3, 1.0, window=UNIT)
    g = SmoothFunction.bump(0.55, 0.3, 0.8, window=UNIT)
    F = cyl_compose(lambda r: tanh_of(r), cyl_from_star(f))
    G = cyl_compose(lambda r: tanh_of(r), cyl_from_star(g))
    t = 0.05
    for k in (1, 2):
        grid, TF = lift_semigroup(F, t, OP, k)
        Fv = _eval_on_grid(F, grid)
        Gv = _eval_on_grid(G, grid)
        TG = OP.tensor_apply(Gv, t, grid)
        assert grid.integrate(TF * Gv) == pytest.approx(grid.integrate(Fv * TG), abs=1e-10)


def test_grid_route_guards():
    bump = SmoothFunction.bump(0.45, 0.3, 1.0, window=UNIT)
    with pytest.raises(DomainError):
        lift_semigroup(SetSpec.count_at_least(interval(0.2, 0.6), 1), 0.05, OP, 1)
    with pytest.raises(TypeError):
        lift_semigroup(bump, 0.05, OP, 1)
    with pytest.raises(DomainError):
        lifted_gradient_norm(SetSpec.level_set(cyl_from_star(bump), 0.6), None, OP)
    gamma = Configuration(window=UNIT, points=np.array([[0.3], [0.7]]))
    with pytest.raises(DomainError):
        _semigroup_at(ExponentialCylinderFunction(f=shifted_mode(-0.25)), gamma, 0.05, OP)


def test_level_set_on_grids_is_stratum_membership():
    bump = SmoothFunction.bump(0.45, 0.3, 1.0, window=UNIT)
    E = SetSpec.level_set(cyl_from_star(bump), 0.6, count_equals=2)
    for k in (1, 3):
        assert not np.any(_eval_on_grid(E, OP.grid(k)))
    grid = OP.grid(2)
    vals = _eval_on_grid(E, grid)
    x, y = grid.nodes
    for i in range(len(x)):
        for j in range(len(y)):
            if i != j:
                gamma = Configuration(window=UNIT, points=np.array([[x[i]], [y[j]]]))
                assert vals[i, j] == float(E.contains(gamma)), (i, j)
    assert 0.0 < vals.mean() < 1.0


def test_lp_contraction():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    F = cyl_compose(lambda r: tanh_of(r), cyl_from_star(f))
    from ugmt.configuration import sample_poisson_batch
    gams = sample_poisson_batch(UNIT, seed=3, n=3000)
    tf = np.array([_semigroup_at(F, g, 0.05, OP) for g in gams])
    fv = np.array([F.value(g) for g in gams])
    for p in (1.0, 2.0, 4.0):
        lhs = np.abs(tf) ** p
        rhs = np.abs(fv) ** p
        diff = lhs - rhs
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        assert diff.mean() <= 3 * se


def test_intertwining_eigenfunction_and_bumps():
    fcos = SmoothFunction.neumann_mode((1,), UNIT)
    rep = check_intertwining(fcos, 0.01, OP, k=1)
    assert rep.max_residual < 1e-8
    fb = SmoothFunction.bump(0.5, 0.35, 1.0, window=UNIT)
    rep2 = check_intertwining(fb, 0.05, OP, k=2)
    assert rep2.max_residual < 1e-4
    # residuals stay small at small t and the refinement estimate is honest
    for t in (0.05, 0.02, 0.01):
        r = check_intertwining(fb, t, OP, k=1, order=128)
        assert r.max_residual < 1e-5
        assert r.refinement_residual <= r.max_residual + 1e-9
    with pytest.raises(DomainError):
        check_intertwining(fb, 0.05, OP, k=3)


def test_bakry_emery_constant_and_linear():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    Fc = cyl_compose(lambda r: mul_n(const(0.0), r) + const(2.0), cyl_from_star(f))
    plan = MCPlan(n_samples=500, seed=5, window=UNIT)
    rep = bakry_emery_battery({"F": Fc}, [2.0], [0.05], OP, plan)["F"][0]
    assert rep.max_violation <= 0.0 + 1e-12
    F = cyl_from_star(f)
    rep2 = bakry_emery_battery({"F": F}, [2.0], [0.01], OP,
                               MCPlan(n_samples=2000, seed=6, window=UNIT))["F"][0]
    assert rep2.violation_fraction == 0.0


def test_regularization_slope_window():
    slope, pairs = regularization_slope(OP, np.geomspace(1e-3, 1e-1, 9))
    assert -0.65 <= slope <= -0.45
    assert all(v2 <= v1 for (_, v1), (_, v2) in zip(pairs, pairs[1:]))


def test_bessel_normalization_and_positivity():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    Fc = cyl_compose(lambda r: mul_n(const(0.0), r) + const(1.0), cyl_from_star(f))
    B = BesselOperator(alpha=0.8, p=2.0)
    gams = [Configuration(window=UNIT, points=np.array([[0.4]])),
            Configuration(window=UNIT, points=np.array([[0.3], [0.7]]))]
    vals = bessel_apply(Fc, B, OP, gams)
    assert np.max(np.abs(vals - 1.0)) < 1e-6
    Fpos = cyl_compose(lambda r: smoothstep(r, 0.4, 0.1), cyl_from_star(f))
    assert np.all(bessel_apply(Fpos, B, OP, gams) >= 0.0)


@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5, 2.0, 3.0])
def test_laguerre_rule_matches_scipy(alpha):
    from scipy import special
    a = alpha / 2.0 - 1.0
    x, w = BesselOperator(alpha=alpha, p=2.0).nodes_weights()
    x_ref, w_ref = special.roots_genlaguerre(48, a)
    w_ref = w_ref / special.gamma(alpha / 2.0)
    assert np.max(np.abs(x - x_ref) / x_ref) <= 1e-12
    assert np.max(np.abs(w - w_ref)) <= 1e-13
    assert abs(np.sum(w) - 1.0) <= 1e-14
    # moments of the normalized Gamma(a + 1) law: the rising factorial (a + 1)_j
    rising = 1.0
    for j in range(21):
        assert np.sum(w * x**j) == pytest.approx(rising, rel=1e-12)
        rising *= a + 1.0 + j


def test_bessel_eigen_closed_form():
    # B applied to a mode statistic: (1 + lambda)^(-alpha/2) decay
    amp = 0.3
    fcos = SmoothFunction.neumann_mode((1,), UNIT, amplitude=amp)
    F = cyl_from_star(fcos)
    alpha = 1.2
    B = BesselOperator(alpha=alpha, p=2.0)
    gam = Configuration(window=UNIT, points=np.array([[0.23]]))
    lam = np.pi**2
    expected = (1.0 + lam) ** (-alpha / 2.0) * F.value(gam)
    got = bessel_apply(F, B, OP, [gam], t_floor=1e-6)[0]
    assert got == pytest.approx(expected, rel=2e-3)


def test_capacity_conventions():
    B = BesselOperator(alpha=0.6, p=2.0)
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    Fc = cyl_compose(lambda r: mul_n(const(0.0), r) + const(1.0), cyl_from_star(f))
    # empty set
    bound, diag = capacity_upper_bound([], [(Fc, lambda p: 1.0)], B, OP)
    assert bound == 0.0
    # full space with the constant candidate: B1 = 1 and ||1||_p = 1
    sieve = [Configuration(window=UNIT, points=np.array([[x]])) for x in (0.2, 0.8)]
    bound2, _ = capacity_upper_bound(sieve, [(Fc, lambda p: 1.0)], B, OP)
    assert bound2 == pytest.approx(1.0, rel=1e-4)


def test_battery_runs_all_pairs():
    f = SmoothFunction.bump(0.45, 0.28, 1.0, window=UNIT)
    F = cyl_compose(lambda r: tanh_of(r), cyl_from_star(f))
    plan = MCPlan(n_samples=1000, seed=9, window=UNIT)
    reports = bakry_emery_battery({"F": F}, [1.0, 2.0], [0.01, 0.1], OP, plan)["F"]
    assert len(reports) == 4
    assert all(r.violation_fraction == 0.0 for r in reports)


def test_gradient_norm_consistency():
    # for the mode statistic the semigroup gradient norm decays with the
    # exact eigenvalue rate on every stratum
    fcos = SmoothFunction.neumann_mode((1,), UNIT, amplitude=0.5)
    F = cyl_from_star(fcos)
    n0, _ = lifted_gradient_norm(F, None, OP, p=1.0)
    t = 0.02
    nt, _ = lifted_gradient_norm(F, t, OP, p=1.0)
    assert nt == pytest.approx(np.exp(-np.pi**2 * t) * n0, rel=1e-6)


# ---------------------------------------------------------------------------
# the mapping form of the Bakry-Emery battery against the per-F einsum loop


_REFERENCE_CHUNK_FLOATS = 6_000_000   # floats of one chunk's broadcast grid tensor


def _einsum_battery_reference(F, ps, ts, op, plan):
    """The per-F loop the battery form replaced, kept as the reference.

    It draws the plan per configuration, builds every particle's gradient
    component and |grad F|^p per (k, t), the kernel vectors per chunk, and
    contracts each particle axis with an einsum over the grid tensor
    broadcast to every sample.  Returns the per-sample gaps
    |grad T_t F|^p - T_t |grad F|^p of the samples with k > 0, per (p, t),
    and the sample count.
    """
    from ugmt.configuration import _draw
    from ugmt.heat import _BE_ORDERS
    from ugmt.rng import stream_rng

    points = []
    S = plan.streams
    for j in range(S):
        rng = stream_rng(plan.seed, j)
        for _ in range(len(range(j, plan.n_samples, S))):
            points.append(_draw(plan.window, rng))
    by_k = {}
    for pts in points:
        by_k.setdefault(pts.shape[0], []).append(pts)
    gaps = {(p, t): [] for p in ps for t in ts}
    L = float(op.window.sides[0])
    lo = op.window.lower[0]
    for k, group in sorted(by_k.items()):
        if k == 0:
            continue
        q = _BE_ORDERS.get(k, 8)
        nodes, w = gauss_legendre(0.0, L, q)
        pts_col = (nodes + lo)[:, None]
        fvals = np.stack([f.value(pts_col) for f in F.inners], axis=-1)
        fgrads = np.stack([f.gradient(pts_col)[:, 0] for f in F.inners], axis=-1)
        shape = (q,) * k
        u = np.zeros(shape + (F.arity,))
        for j in range(k):
            u = u + fvals.reshape([q if a == j else 1 for a in range(k)] + [F.arity])
        dphi = np.stack([F.outer.partial(i).eval(u) for i in range(F.arity)], axis=-1)
        per_j = []
        sq = np.zeros(shape)
        for j in range(k):
            gj = np.zeros(shape)
            for i in range(F.arity):
                gshape = [q if a == j else 1 for a in range(k)]
                gj = gj + dphi[..., i] * fgrads[:, i].reshape(gshape)
            per_j.append(gj)
            sq = sq + gj * gj
        X = np.stack(group)[:, :, 0] - lo
        chunk = max(1, _REFERENCE_CHUNK_FLOATS // (q ** k + 1))
        for t in ts:
            ker = op._axis_kernel(t, 0)
            powers = {p: sq ** (p / 2.0) for p in ps}
            for s in range(0, X.shape[0], chunk):
                xs = X[s:s + chunk]
                A = ker.kernel(xs[..., None], nodes[None, None, :]) * w
                D = ker.dirichlet(xs[..., None], nodes[None, None, :]) * w

                def contract(vals, special_j=None):
                    out = np.broadcast_to(vals, (xs.shape[0],) + vals.shape)
                    for j in range(k):
                        vec = D[:, j] if j == special_j else A[:, j]
                        out = np.einsum("mq...,mq->m...", out, vec)
                    return out

                lhs_sq = np.zeros(xs.shape[0])
                for j in range(k):
                    comp = contract(per_j[j], special_j=j)
                    lhs_sq += comp * comp
                for p in ps:
                    gap = np.maximum(lhs_sq, 0.0) ** (p / 2.0) - contract(powers[p])
                    gaps[(p, t)].append(gap)
    return {key: np.concatenate(v) for key, v in gaps.items()}, len(points)


BE_PLAN = MCPlan(n_samples=1500, seed=5, window=UNIT)   # particle counts up to 6
BE_TOLERANCES = (1e-8, -0.6, -3.0, -300.0)   # the last three split the gaps


def _be_members():
    f1 = SmoothFunction.bump(0.45, 0.28, 1.0, window=UNIT)
    f2 = SmoothFunction.neumann_mode((2,), UNIT, amplitude=0.6)
    tanh_bump = cyl_compose(lambda r: tanh_of(r), cyl_from_star(f1))
    return {"tanh-bump": tanh_bump,
            "product": cyl_mul(tanh_bump, cyl_from_star(f2))}   # arity 2


def test_battery_matches_per_F_einsum_reference():
    from ugmt.montecarlo import draw_by_count

    assert max(draw_by_count(BE_PLAN)) >= 5
    members = _be_members()
    ps, ts = [1.0, 2.0, 4.0], [0.01, 0.1]
    refs = {name: _einsum_battery_reference(F, ps, ts, OP, BE_PLAN)
            for name, F in members.items()}
    seen_partial_counts = 0
    for tol in BE_TOLERANCES:
        got = bakry_emery_battery(members, ps, ts, OP, BE_PLAN, tolerance=tol)
        assert list(got) == list(members)
        for name, (gaps, n) in refs.items():
            assert [(r.p, r.t) for r in got[name]] == [(p, t) for p in ps for t in ts]
            for rep in got[name]:
                gap = gaps[(rep.p, rep.t)]
                count = int(np.sum(gap > tol))
                seen_partial_counts += 0 < count < gap.size
                assert rep.n_samples == n and rep.tolerance == tol
                assert rep.violation_fraction == count / n
                assert abs(rep.max_violation - max(0.0, float(np.max(gap)))) <= 1e-12
    # the negative tolerances split the samples, so the counts see every gap
    assert seen_partial_counts >= 10


def test_battery_memory_stays_below_the_whole_grid():
    import tracemalloc

    from ugmt.heat import _BE_ORDERS
    from ugmt.montecarlo import draw_by_count

    members = _be_members()
    k = max(draw_by_count(BE_PLAN))
    q = _BE_ORDERS[k]
    assert (k, q) == (6, 12)
    # half of the largest stratum's whole-grid |grad F|^p tensor (3 p values)
    budget = 3 * q ** k * 8 / 2
    tracemalloc.start()
    try:
        bakry_emery_battery(members, [1, 2, 4], [0.01, 0.1], OP, BE_PLAN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget, f"peak {peak / 1e6:.1f} MB against a budget of {budget / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# the quotient grid: node multisets in place of ordered node tuples


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_multisets_count_and_cover_the_ordered_tuples(q):
    import itertools
    from math import comb

    from ugmt.heat import _multisets

    for r in range(6):
        rows, up = _multisets(q, r)
        assert rows.shape == (comb(q + r - 1, r), r)
        index = {tuple(row): i for i, row in enumerate(rows.tolist())}
        assert len(index) == rows.shape[0]
        hits = np.zeros(rows.shape[0], dtype=int)
        for a in itertools.product(range(q), repeat=r):
            hits[index[tuple(sorted(a))]] += 1
        # each ordered tuple lands on one multiset, each multiset is reached
        assert hits.sum() == q ** r and np.all(hits > 0)
        if r:
            smaller = _multisets(q, r - 1)[0].tolist()
            for x in range(q):
                assert [rows[i].tolist() for i in up[x]] == [sorted(M + [x]) for M in smaller]


@pytest.mark.parametrize("q,r", [(1, 3), (2, 4), (3, 3), (4, 5), (5, 2)])
def test_fold_equals_the_sum_over_ordered_tuples(q, r):
    import itertools

    from ugmt.heat import _fold, _multisets

    n = 7
    vecs = np.random.default_rng(10 * q + r).uniform(0.1, 1.0, size=(r, q, n))
    rows = _multisets(q, r)[0]
    index = {tuple(row): i for i, row in enumerate(rows.tolist())}
    ref = np.zeros((rows.shape[0], n))
    for a in itertools.product(range(q), repeat=r):
        ref[index[tuple(sorted(a))]] += np.prod(vecs[np.arange(r), list(a)], axis=0)
    got = _fold(vecs)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


def _ordered_grid_sides(F, nodes, ps, A, D):
    """Both battery sides by brute force over the q^k ordered node tuples:
    F's lifted gradient at every tuple, contracted axis by axis per sample."""
    b, k, q = A.shape
    X = np.stack(np.meshgrid(*[nodes] * k, indexing="ij"), axis=-1).reshape(-1, k, 1)
    G = F.gradient(X)[..., 0].reshape((q,) * k + (k,))
    sq = np.sum(G * G, axis=-1)

    def contract(vals, vectors):
        out = vals
        for vec in vectors:
            out = np.tensordot(vec, out, axes=([0], [0]))
        return float(out)

    rhs = np.array([[contract(sq ** (p / 2.0), A[i]) for p in ps] for i in range(b)])
    comps = np.array([[contract(G[..., j], [D[i, a] if a == j else A[i, a] for a in range(k)])
                       for j in range(k)] for i in range(b)])
    return rhs, comps


def _k7_setup():
    k, q = 7, 4
    X = np.random.default_rng(77).uniform(0.0, 1.0, size=(3, k, 1))
    nodes, w = gauss_legendre(0.0, 1.0, q)
    ts = [0.05, 0.1]
    pairs = [OP._axis_kernel(t, 0).kernel_and_dirichlet(X, nodes[None, None, :]) for t in ts]
    A = np.stack([kn * w for kn, _ in pairs]).reshape(-1, k, q)
    D = np.stack([kd * w for _, kd in pairs]).reshape(-1, k, q)
    return X, nodes, ts, A, D


def test_quotient_grid_matches_the_ordered_grid_at_k7():
    from ugmt.heat import _be_integrate, _be_weights

    _, nodes, _, A, D = _k7_setup()
    ps = [1.0, 2.0, 4.0]
    W = _be_weights(A)
    for F in _be_members().values():
        ref_rhs, ref_comps = _ordered_grid_sides(F, nodes, ps, A, D)
        rhs, comps = _be_integrate(F, nodes, 0.0, ps, A, D, W)
        assert np.max(np.abs(rhs - ref_rhs) / ref_rhs) <= 1e-12
        # the components cancel; compare them against T_t |grad F|
        assert np.max(np.abs(comps - ref_comps) / ref_rhs[:, :1]) <= 1e-12


def test_battery_matches_the_ordered_grid_at_k7(monkeypatch):
    import ugmt.heat as heat

    X, nodes, ts, A, D = _k7_setup()
    ps = [1.0, 2.0]
    members = _be_members()
    gaps = {}
    for name, F in members.items():
        rhs, comps = _ordered_grid_sides(F, nodes, ps, A, D)
        lhs_sq = np.sum(comps * comps, axis=1).reshape(len(ts), -1)
        gaps[name] = {(p, t): lhs_sq[ti] ** (p / 2.0) - rhs.reshape(len(ts), -1, len(ps))[ti, :, i]
                      for i, p in enumerate(ps) for ti, t in enumerate(ts)}
    monkeypatch.setattr(heat, "_BE_ORDERS", {7: 4})
    monkeypatch.setattr(heat, "_draw_configurations", lambda plan: {7: X})
    plan = MCPlan(n_samples=100, seed=1, window=UNIT)   # the fractions count per 100
    # tolerances halfway between the sorted gaps split the samples every way
    every = np.sort(np.concatenate([g for per in gaps.values() for g in per.values()]))
    for tol in (every[1:] + every[:-1]) / 2.0:
        got = bakry_emery_battery(members, ps, ts, OP, plan, tolerance=tol)
        for name, reports in got.items():
            for rep in reports:
                count = int(np.sum(gaps[name][(rep.p, rep.t)] > tol))
                assert rep.violation_fraction == count / 100
