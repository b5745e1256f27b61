from dataclasses import replace

import numpy as np
import pytest

from ugmt.configuration import SetSpec, section_set
from ugmt.cylinder import (CylinderFunction, CylinderVectorField,
                           ExponentialCylinderFunction, OuterFunction, add_n, const,
                           coord, cyl_compose, cyl_from_star, exp_neg, mul_n, square, tanh_of)
from ugmt.geometry import DomainError, SmoothFunction, SmoothVectorField, interval
from ugmt.montecarlo import MCPlan, draw_by_count, integrate_battery, shared_draws
from ugmt.productspace import stratum_indicator

UNIT = interval(0.0, 1.0)
RNG = np.random.default_rng(7)


def conf(*pts):
    return np.array(pts, dtype=float).reshape(len(pts), 1)


EMPTY = np.zeros((0, 1))


def random_cylinder(rng):
    f1 = SmoothFunction.bump(rng.uniform(0.35, 0.6), rng.uniform(0.2, 0.35), 1.0, window=UNIT)
    f2 = SmoothFunction.bump(rng.uniform(0.35, 0.6), rng.uniform(0.2, 0.35), 0.8, window=UNIT)
    t1 = tanh_of(coord(1))
    root = add_n(tanh_of(coord(0)), mul_n(const(0.5), tanh_of(add_n(coord(0), coord(1)))),
                 const(0.1), mul_n(const(0.3), t1), mul_n(const(-0.2), square(t1)))
    return CylinderFunction(OuterFunction(root, 2), (f1, f2))


def random_field(rng):
    v = SmoothVectorField((SmoothFunction.bump(rng.uniform(0.4, 0.6),
                                               rng.uniform(0.2, 0.3), 1.0, window=UNIT),))
    coeff = cyl_compose(lambda r: tanh_of(r),
                        cyl_from_star(SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)))
    return CylinderVectorField(((coeff, v),))


# ---------------------------------------------------------------------------
# outer expression trees


def test_outer_partials_match_finite_differences():
    root = add_n(mul_n(tanh_of(coord(0)), exp_neg(mul_n(const(-1.0), square(coord(1))))),
                 mul_n(const(0.5), coord(0)), mul_n(const(0.25), square(coord(0))))
    phi = OuterFunction(root, 2)
    u = np.array([0.3, -0.7])
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (phi.value(u + e) - phi.value(u - e)) / (2 * h)
        assert phi.grad(u)[i] == pytest.approx(fd, abs=1e-6)


def test_outer_bounds_certify():
    bounded = tanh_of(add_n(coord(0), coord(1)))
    lo, hi = OuterFunction(bounded, 2).root.bound()
    assert -1.0 <= lo <= hi <= 1.0
    assert not np.isfinite(OuterFunction(coord(0), 1).root.bound()[1])
    with pytest.raises(DomainError):
        exp_neg(coord(0))           # not certified nonpositive
    with pytest.raises(DomainError):
        OuterFunction(coord(3), 2)  # arity violation


def test_sup_bound_dominates_samples():
    # the interval bound of the outer tree dominates every value
    F = random_cylinder(np.random.default_rng(1))
    lo, hi = F.outer.root.bound()
    for _, X in draw_by_count(MCPlan(n_samples=200, seed=13, window=UNIT, streams=1)).values():
        vals = F.value(X)
        assert np.all((lo - 1e-12 <= vals) & (vals <= hi + 1e-12))


# ---------------------------------------------------------------------------
# the star statistic and gradients


def test_eval_star_basics():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    assert cyl_from_star(f).value(EMPTY) == 0.0
    c = SmoothFunction.constant(2.5, UNIT)
    assert cyl_from_star(c).value(conf([0.1], [0.5], [0.9])) == pytest.approx(7.5)


def test_star_campbell_mean():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    plan = MCPlan(n_samples=20_000, seed=3, window=UNIT)
    est = integrate_battery({"star": lambda k, X: cyl_from_star(f).value(X)}, plan)["star"]
    from ugmt.geometry import gauss_legendre
    nodes, w = gauss_legendre(0, 1, 64)
    target = float(np.sum(w * f.value(nodes[:, None])))
    assert est.within(target, 3.0)


def test_gradient_identity_and_constant():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    F = cyl_from_star(f)
    g = conf([0.45], [0.6])
    assert np.allclose(F.gradient(g), f.gradient(g))
    Fc = cyl_compose(lambda r: add_n(mul_n(const(0.0), r), const(4.0)), F)
    assert np.allclose(Fc.gradient(g), 0.0)


def flow_map(v: SmoothVectorField, points: np.ndarray, s: float) -> np.ndarray:
    """RK4 integration of dx/dt = v(x) from 0 to s in steps of at most 1e-3
    (fields are compactly supported, so the flow is globally defined)."""
    pts = np.array(np.atleast_2d(points), dtype=float)
    if s == 0.0 or pts.size == 0:
        return pts
    nsteps = max(1, int(np.ceil(abs(s) / 1e-3)))
    h = s / nsteps
    for _ in range(nsteps):
        k1 = v.value(pts)
        k2 = v.value(pts + 0.5 * h * k1)
        k3 = v.value(pts + 0.5 * h * k2)
        k4 = v.value(pts + h * k3)
        pts = pts + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return pts


def directional_derivative_fd(F: CylinderFunction, v: SmoothVectorField,
                              gamma: np.ndarray, s: float = 1e-5) -> float:
    """Central difference of F along the flow of v; oracle for <grad F, v>_T."""
    if len(gamma) == 0:
        return 0.0
    return float(F.value(flow_map(v, gamma, s)) - F.value(flow_map(v, gamma, -s))) / (2.0 * s)


def test_gradient_matches_flow_derivative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        F = random_cylinder(rng)
        v = SmoothVectorField((SmoothFunction.bump(rng.uniform(0.4, 0.6),
                                                   rng.uniform(0.2, 0.3), 0.7,
                                                   window=UNIT),))
        k = rng.integers(1, 4)
        g = rng.uniform(0.05, 0.95, (k, 1))
        fd = directional_derivative_fd(F, v, g, s=1e-5)
        inner = float(np.sum(F.gradient(g) * v.value(g)))
        assert fd == pytest.approx(inner, abs=1e-4 * (1 + abs(inner)))


def test_locality_and_section_identity():
    # points outside every inner support leave F unchanged, and a section at
    # an outside pattern eta is F on X with eta appended as fixed particles:
    # its value, and its gradient on the first k particles
    rng = np.random.default_rng(2)
    box = interval(0.0, 0.5)
    for _ in range(6):
        F = random_cylinder(rng)
        g = conf([0.45], [0.55])
        assert F.value(np.vstack([g, conf([0.02])])) == pytest.approx(F.value(g), abs=1e-12)
        A = SetSpec.level_set(F, 0.3)
        for k in range(4):
            X = rng.uniform(0.0, 0.5, (20, k, 1))

            def inner(f):
                return f.value(X), f.gradient(X)

            def appended(eta):
                return np.concatenate([X, np.broadcast_to(eta, (20,) + eta.shape)], axis=1)

            for j in range(4):
                eta = rng.uniform(0.5 + 1e-9, 1.0, (j, 1))
                sec = section_set(A, eta, box).function
                full = appended(eta)
                want, want_grad = F.value(full), F.gradient(full)[:, :k]
                value, grad = sec.value_and_gradient(X, inner)
                for got, ref in ((sec.value(X), want), (sec.gradient(X), want_grad),
                                 (value, want), (grad, want_grad)):
                    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
                # a section of a section is the section at the union
                eta2 = rng.uniform(0.5 + 1e-9, 1.0, (2, 1))
                both = np.vstack([eta, eta2])
                twice = section_set(section_set(A, eta, box), eta2, box).function
                union = section_set(A, both, box).function
                for ref in (union.value(X), F.value(appended(both))):
                    np.testing.assert_allclose(twice.value(X), ref, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# divergence and tangent norms


def test_divergence_pure_field():
    v = SmoothVectorField((SmoothFunction.bump(0.5, 0.3, 0.8, window=UNIT),))
    V = CylinderVectorField(((1.0, v),))
    g = conf([0.42], [0.61])
    assert V.divergence(g) == pytest.approx(float(np.sum(-v.divergence(g))))
    assert V.divergence(EMPTY) == 0.0


def test_integration_by_parts_adjoint():
    # int <V, grad F> dpi = int F (div* V) dpi within Monte Carlo error;
    # the per-sample difference gives a correlated (tighter) test.  The samples
    # are evaluated as one (m_k, k, 1) stack per particle count k
    rng = np.random.default_rng(5)
    plan = MCPlan(n_samples=6000, seed=17, window=UNIT, streams=1)
    stacks = draw_by_count(plan).values()
    for trial in range(20):
        F = random_cylinder(rng)
        V = random_field(rng)
        diffs = np.empty(plan.n_samples)
        for idx, X in stacks:
            diffs[idx] = (np.sum(F.gradient(X) * V.at_particles(X), axis=(-2, -1))
                          - F.value(X) * V.divergence(X))
        mean = diffs.mean()
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(mean) <= 3 * se + 1e-6


def test_exponential_cylinder_product_statistic():
    c = SmoothFunction.constant(-0.3, UNIT)
    E = ExponentialCylinderFunction(f=c)
    for k in range(4):
        g = np.linspace(0.1, 0.9, k).reshape(k, 1)
        assert E.value(g) == pytest.approx(0.7**k, abs=1e-14)


def test_exponential_cylinder_rejects_f_reaching_minus_one():
    # the domain check reads f's value bound; a coordinate bump's is its
    # amplitude times max rho phi(rho^2) over a radial grid, about 0.359 a
    near = SmoothFunction.coordinate_bump(0.5, 0.3, 2.7, window=UNIT)
    over = SmoothFunction.coordinate_bump(0.5, 0.3, 2.8, window=UNIT)
    assert near.sup_norm() == pytest.approx(0.969, abs=5e-4)
    assert over.sup_norm() == pytest.approx(1.005, abs=5e-4)
    ExponentialCylinderFunction(near)
    mode = SmoothFunction.neumann_mode((1,), UNIT, amplitude=-0.4)
    shifted = SmoothFunction(kind="sum", support=UNIT, window=UNIT,
                             factors=(SmoothFunction.constant(-0.6, UNIT), mode))
    assert shifted.sup_norm() == 1.0
    for f in (over, SmoothFunction.constant(-1.0, UNIT), shifted):
        with pytest.raises(DomainError):
            ExponentialCylinderFunction(f)


# ---------------------------------------------------------------------------
# a configuration is the batch of one


def _stacked_cases(rng):
    F = random_cylinder(rng)
    E = ExponentialCylinderFunction(SmoothFunction.bump(0.5, 0.3, -0.6, window=UNIT))
    V_const = CylinderVectorField(((1.5, SmoothVectorField((SmoothFunction.coordinate_bump(
        0.5, 0.35, 0.8, window=UNIT),))),))
    V_cyl = CylinderVectorField((random_field(rng).terms[0], (-0.5, SmoothVectorField((
        SmoothFunction.bump(0.45, 0.3, 0.7, window=UNIT),)))))
    specs = [SetSpec.level_set(F, 0.4), SetSpec.level_set(E, 0.8, strict=False),
             SetSpec.count_at_least(interval(0.2, 0.6), 2),
             SetSpec.count_at_most(interval(0.2, 0.6), 1)]
    return (F, E), (V_const, V_cyl), specs


@pytest.mark.parametrize("k", [0, 1, 2, 4])
def test_tuple_batches_match_configurations(k, member):
    rng = np.random.default_rng(100 + k)
    functions, fields, specs = _stacked_cases(rng)
    gams = [rng.uniform(0.0, 1.0, (k, 1)) for _ in range(12)]
    X = np.stack(gams)
    perm = rng.permutation(k)
    Xp = X[:, perm]
    for F in functions:
        vals, grads = F.value(X), F.gradient(X)
        for i, g in enumerate(gams):
            assert vals[i] == F.value(g)
            assert np.array_equal(grads[i], F.gradient(g))
        np.testing.assert_allclose(F.value(Xp), vals, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(F.gradient(Xp), grads[:, perm], rtol=1e-12, atol=1e-12)
    for V in fields:
        at, div = V.at_particles(X), V.divergence(X)
        for i, g in enumerate(gams):
            assert np.array_equal(at[i], V.at_particles(g))
            assert div[i] == V.divergence(g)
        np.testing.assert_allclose(V.at_particles(Xp), at[:, perm], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(V.divergence(Xp), div, rtol=1e-12, atol=1e-12)
    for A in specs:
        ind = stratum_indicator(A, k, X)
        assert np.array_equal(ind, [float(member(A, g)) for g in gams])
        assert np.array_equal(stratum_indicator(A, k, Xp), ind)


def test_divergence_rejects_support_outside_window():
    # the window is attached after construction, so the bump sticks out of it
    leaky = replace(SmoothFunction.bump(0.9, 0.3, 1.0), window=UNIT)
    V = CylinderVectorField(((1.0, SmoothVectorField((leaky,))),))
    g = conf([0.7], [0.95])
    with pytest.raises(DomainError):
        V.divergence(g)
    with pytest.raises(DomainError):
        V.divergence(np.stack([g, g]))
    with pytest.raises(DomainError):
        V.divergence(g)


@pytest.mark.parametrize("k", range(13))
def test_stars_equal_numpy_particle_sums(k):
    # numpy sums fewer than 8 elements in order from 0.0 and more pairwise:
    # stars must give f.value(X).sum(axis=-1) bit for bit on either side of
    # k = 8, on rows of -0.0 (whose sum is +0.0), for a configuration, and
    # from the memo of a shared_draws scope
    rng = np.random.default_rng(300 + k)
    inners = (SmoothFunction.bump(0.5, 0.3, -1.3, window=UNIT),
              SmoothFunction.coordinate_bump(0.45, 0.4, 0.9, window=UNIT),
              SmoothFunction.linear(UNIT, amplitude=-0.7, offset=0.5))
    F = CylinderFunction(OuterFunction(add_n(coord(0), coord(1), coord(2)), 3), inners)
    X = rng.uniform(0.0, 1.0, (400, k, 1)) * np.exp(rng.uniform(-8.0, 0.0, (400, k, 1)))
    X[:3] = 0.5    # the linear inner is -0.0 at every particle
    X[3:6] = 0.95  # the negative bump is -0.0 outside its support
    ref = np.stack([f.value(X).sum(axis=-1) for f in inners], axis=-1)
    assert ref.shape == (400, 3) and F.stars(X).tobytes() == ref.tobytes()
    if k:
        assert np.all(np.signbit(inners[2].value(X[:3])))
        assert np.all(np.signbit(inners[0].value(X[3:6])))
        zeros = np.concatenate([ref[:3, 2], ref[3:6, 0]])
        assert np.all(zeros == 0.0) and not np.any(np.signbit(zeros))
    X.setflags(write=False)
    with shared_draws():
        assert F.stars(X).tobytes() == ref.tobytes()
        assert F.stars(X).tobytes() == ref.tobytes()  # from the memo
    gamma = np.sort(rng.uniform(0.0, 1.0, k))[:, None]
    ref = np.array([f.value(gamma).sum(axis=-1) for f in inners])
    assert F.stars(gamma).tobytes() == ref.tobytes()
