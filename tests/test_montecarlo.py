import numpy as np
import pytest

from ugmt.configuration import Configuration, SetSpec
from ugmt.cylinder import cyl_compose, cyl_from_star, tanh_of
from ugmt.geometry import SmoothFunction, gauss_legendre, interval
from ugmt.montecarlo import (MCPlan, integrate, integrate_disintegrated,
                             measure_of_set, poisson_k_cutoff, poisson_stratified)

UNIT = interval(0.0, 1.0)
PLAN = MCPlan(n_samples=20_000, seed=90, window=UNIT)


def test_plan_minimum_samples():
    with pytest.raises(ValueError):
        MCPlan(n_samples=10, seed=1, window=UNIT)


def test_constant_is_exact():
    est = integrate(lambda g: 1.0, PLAN)
    assert est.mean == 1.0 and est.std_err == 0.0


def test_intensity():
    est = integrate(lambda g: float(g.count), PLAN)
    assert est.within(UNIT.volume, 3.0)


def test_laplace_functional():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    nodes, w = gauss_legendre(0.0, 1.0, 64)
    target = float(np.exp(np.sum(w * (np.exp(f.value(nodes[:, None])) - 1.0))))

    def G(g):
        return float(np.exp(np.sum(f.value(g.points)))) if g.count else 1.0

    est = integrate(G, PLAN)
    assert est.within(target, 3.0)


def test_linearity_for_fixed_plan():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)

    def G(g):
        return float(np.sum(f.value(g.points))) if g.count else 0.0

    def H(g):
        return float(g.count)

    a, b = 2.5, -0.75
    combo = integrate(lambda g: a * G(g) + b * H(g), PLAN)
    eg = integrate(G, PLAN)
    eh = integrate(H, PLAN)
    assert combo.mean == pytest.approx(a * eg.mean + b * eh.mean, rel=1e-13)


def test_determinism_and_antithetic():
    est1 = integrate(lambda g: float(g.count), PLAN)
    est2 = integrate(lambda g: float(g.count), PLAN)
    assert est1.mean == est2.mean and est1.std_err == est2.std_err
    anti = MCPlan(n_samples=20_000, seed=90, window=UNIT, antithetic=True)
    est3 = integrate(lambda g: float(g.count), anti)
    assert est3.within(1.0, 3.0)


def test_non_finite_detected():
    with pytest.raises(ValueError):
        integrate(lambda g: float("nan"), MCPlan(n_samples=100, seed=1, window=UNIT))


def test_disintegration_constant_and_count():
    M, N = interval(0.0, 0.4), interval(0.4, 1.0)
    est = integrate_disintegrated(lambda g: 1.0, (M, N), PLAN)
    assert est.mean == 1.0
    est2 = integrate_disintegrated(lambda g: float(g.count_in(M)), (M, N), PLAN)
    assert est2.within(M.volume, 3.0)
    with pytest.raises(ValueError):
        integrate_disintegrated(lambda g: 1.0, (interval(0, 0.5), interval(0.4, 1.0)), PLAN)


def test_disintegration_vs_direct():
    f = SmoothFunction.bump(0.5, 0.35, 1.0, window=UNIT)
    F = cyl_compose(lambda r: tanh_of(r), cyl_from_star(f))
    M, N = interval(0.0, 0.5), interval(0.5, 1.0)
    direct = integrate(F.value, PLAN)
    nested = integrate_disintegrated(F.value, (M, N), PLAN)
    comb = np.sqrt(direct.std_err**2 + nested.std_err**2)
    assert abs(direct.mean - nested.mean) <= 3 * comb


def test_measure_of_set_void():
    Q = interval(0.2, 0.7)
    A = SetSpec.predicate(lambda g: g.count_in(Q) == 0, locality=Q)
    est = measure_of_set(A, PLAN)
    assert est.within(np.exp(-Q.volume), 3.0)
    full = SetSpec.count_at_least(UNIT, 0)
    assert measure_of_set(full, PLAN).mean == 1.0


def test_stratified_against_mc():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    F = cyl_compose(lambda r: tanh_of(r), cyl_from_star(f))
    def Hk(k, X):
        return F.value(X)

    val, err = poisson_stratified(Hk, UNIT, seed=4, sup_bound=1.0)
    mc = integrate(F.value, PLAN)
    assert abs(val - mc.mean) <= 3 * mc.std_err + err + 1e-4


def test_k_cutoff_tail():
    from scipy import stats
    K = poisson_k_cutoff(1.0, 1e-10)
    assert stats.poisson.sf(K, 1.0) < 1e-10
    assert stats.poisson.sf(K - 1, 1.0) >= 1e-10


def test_chebyshev_sanity():
    # true value inside mean +- 3 sigma for at least 95 of 100 seeds
    hits = 0
    for seed in range(100):
        plan = MCPlan(n_samples=400, seed=seed, window=UNIT)
        est = integrate(lambda g: float(g.count), plan)
        if abs(est.mean - 1.0) <= 3 * est.std_err:
            hits += 1
    assert hits >= 95
