import functools
from dataclasses import replace
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from ugmt import batteries, hausdorff
from ugmt.bv import _SHEET_STREAMS, perimeter_measure
from ugmt.configuration import SetSpec, poisson_configurations, section_set
from ugmt.cylinder import cyl_compose, cyl_from_star, tanh_of
from ugmt.geometry import (BoxDomain, DomainError, SmoothFunction, _legendre_rule,
                           gauss_legendre, interval)
from ugmt.hausdorff import (CriticalLevelError, RhoLimitResult, _stratum_fraction_exact,
                            rho_m_limit, rho_m_localized, rho_m_on_box, scaled_box,
                            sheet_integrals, surface_functional, surface_functional_auto)
from ugmt.montecarlo import (MCPlan, StratumGrid, integrate_battery, stratum_grid_points,
                             uniform_tuples)
from ugmt.productspace import stratum_indicator
from ugmt.rng import mean_and_stderr, stream_rng

UNIT = interval(0.0, 1.0)


def _probabilities(sets, plan):
    """Plain Monte Carlo probability of each set, from one draw of the plan."""
    return integrate_battery({i: lambda k, X, A=A: stratum_indicator(A, k, X)
                              for i, A in enumerate(sets)}, plan)


class CoordinateSum:
    """g(x) = sum of first coordinates; |grad| = sqrt(k)."""

    def value(self, X):
        return X[:, :, 0].sum(axis=1)

    def gradient(self, X):
        g = np.zeros_like(X)
        g[:, :, 0] = 1.0
        return g


def test_level_set_point_slice():
    v, e, _ = surface_functional(CoordinateSum(), 0.5, {"s": None}, UNIT, 1, eps=0.01,
                                 n_samples=200_000, seed=3, quad_order=None)["s"]
    assert abs(v - 1.0) <= 3 * e + 5e-3


def test_level_set_segment_and_antidiagonal():
    sq = BoxDomain((0.0, 0.0), (1.0, 1.0))
    v, e, _ = surface_functional(CoordinateSum(), 0.5, {"s": None}, sq, 1, eps=0.01,
                                 n_samples=300_000, seed=5, quad_order=None)["s"]
    assert abs(v - 1.0) <= 3 * e + 0.01  # segment length
    v2, e2, _ = surface_functional(CoordinateSum(), 1.0, {"s": None}, UNIT, 2, eps=0.01,
                                   n_samples=300_000, seed=6, quad_order=None)["s"]
    assert abs(v2 - np.sqrt(2.0)) <= 3 * e2 + 0.02


# the k = 2 smooth-profile quadrature misses the sheet's length next to a face
# of the product box, and on the two-stack sheet, by more than its error
# proxy; ROADMAP item 1 (the sheet oracle with no band) is to mend this
_PROXY_MISS = pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the k = 2 quadrature "
                                "is biased beyond its error proxy")


@pytest.mark.parametrize("c, k, order, tol", [
    pytest.param(0.5, 1, 192, 1e-5, id="point"),
    pytest.param(0.5, 2, 96, 1e-5, id="segment-0.5"),
    pytest.param(1.0, 2, 96, 1e-5, id="antidiagonal"),
    # these read 1.405912 +- 0.000928 against 1.385929, 0.018292 +- 0.000464
    # against 0.028284, and 1.57703 +- 0.00114 against 1.59609
    pytest.param(1.02, 2, 96, None, id="segment-1.02", marks=_PROXY_MISS),
    pytest.param(1.98, 2, 96, None, id="segment-1.98", marks=_PROXY_MISS),
    pytest.param("two-stack", 2, 96, None, id="two-stack", marks=_PROXY_MISS),
])
def test_level_set_quadrature_route(c, k, order, tol):
    # {sum x_i = c} on the unit window is a point at k = 1 and a segment of
    # length sqrt(2) min(c, 2 - c) at k = 2; the two-stack sheet is measured
    # against its order-192 value; tol None means within 3 error proxies
    if c == "two-stack":
        S = batteries.stack_set()
        g, c = S.function, S.level
        exact = surface_functional(g, c, {"s": None}, UNIT, k, eps=0.01, quad_order=192)["s"][0]
    else:
        g, exact = CoordinateSum(), (1.0 if k == 1 else np.sqrt(2.0) * min(c, 2.0 - c))
    v, e, _ = surface_functional(g, c, {"s": None}, UNIT, k, eps=0.01, quad_order=order)["s"]
    assert abs(v - exact) <= (tol or 3.0 * e)


def test_critical_level_detected():
    class Flat:
        def value(self, X):
            return np.full(X.shape[0], 0.3) + 1e-6 * X[:, :, 0].sum(axis=1)

        def gradient(self, X):
            return np.full_like(X, 1e-6)

    with pytest.raises(CriticalLevelError):
        surface_functional(Flat(), 0.3, {"s": None}, UNIT, 1, eps=0.05, n_samples=10_000)


def test_rho0_matches_direct_probability():
    plan = MCPlan(n_samples=30_000, seed=8, window=UNIT)
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    sets = [
        SetSpec.count_at_least(UNIT, 0),
        SetSpec.count_at_least(interval(0.0, 0.5), 1),
        SetSpec.level_set(cyl_from_star(f), 0.8),
        SetSpec.count_at_most(interval(0.3, 0.7), 0),
        SetSpec.count_at_least(interval(0.2, 0.9), 2),
    ]
    for A, direct in zip(sets, _probabilities(sets, plan).values()):
        res = rho_m_on_box(A, 0, UNIT, seed=21)
        comb = 3 * direct.std_err + 3 * res.total_err + 1e-4
        assert abs(res.total - direct.mean) <= comb
    # the count spec with threshold 1: closed form 1 - e^{-vol}
    res = rho_m_on_box(sets[1], 0, UNIT, seed=2)
    assert res.total == pytest.approx(1 - np.exp(-0.5), abs=1e-9)


def test_rho0_of_the_void_set_is_exact():
    # {N((0.3, 0.7)) = 0} takes the binomial route of the count sets: its
    # Poisson probability e^{-0.4}, with no Monte Carlo error
    res = rho_m_on_box(batteries.rho0_sets()["void-mid"], 0, UNIT)
    assert abs(res.total - np.exp(-0.4)) <= 1e-10
    assert res.total_err == 0.0


@pytest.mark.parametrize("p", [0.0, 1e-3, 0.1, 0.3, 0.5, 0.55, 0.6, 0.7, 0.9, 1.0])
def test_count_fraction_is_the_binomial_tail(p):
    # every count k <= 60 and every bound from below 0 to above k
    from scipy import stats
    region = interval(0.0, p) if p > 0.0 else interval(2.0, 3.0)
    for k in range(61):
        thresholds = np.arange(-1, k + 2)
        want = stats.binom.sf(thresholds - 1, k, p)
        got = [_stratum_fraction_exact(SetSpec.count_at_least(region, t), k, UNIT)
               for t in thresholds]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        # at most t: the terms from 0 to t (a sum of binom.pmf terms is itself
        # off by up to 1.4e-14 relative here; binom.cdf by 8e-15)
        want = stats.binom.cdf(thresholds, k, p)
        got = [_stratum_fraction_exact(SetSpec.count_at_most(region, t), k, UNIT)
               for t in thresholds]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        # at least lo and at most k - 1: the terms from lo to k - 1, summed in
        # exact rational arithmetic on the float p and rounded once
        P, Q = Fraction(p), Fraction(1.0 - p)
        for lo in (1, k // 2):
            both = replace(SetSpec.count_at_most(region, k - 1), at_least=lo)
            want = float(sum(comb(k, j) * P**j * Q**(k - j) for j in range(lo, k)))
            np.testing.assert_allclose(_stratum_fraction_exact(both, k, UNIT), want,
                                       rtol=1e-14, atol=0.0)


def test_rho1_halfspace_sheet():
    lin = SmoothFunction.linear(UNIT)
    sheet = SetSpec.level_sheet(cyl_from_star(lin), 0.5, count_equals=1)
    res = rho_m_on_box(sheet, 1, UNIT, seed=7)
    assert res.total == pytest.approx(np.exp(-1.0), abs=1e-3)
    assert res.per_k[1] == pytest.approx(1.0, abs=1e-3)
    # k! weight: the quotient contribution times k! is the product-space content
    assert res.per_k[1] * 1 == pytest.approx(1.0, abs=1e-3)


def test_perimeter_and_rho1_are_one_call_of_the_sheet_loop():
    # the same sheet on two stream rules: each result is the loop's sum, the
    # per-count shares scaled by e^{vol}; no stratum is clamped here
    E = batteries.stack_set()
    pm = perimeter_measure(E, UNIT, n_samples=3_000, seed=5)
    r1 = rho_m_on_box(E.boundary_sheet(), 1, UNIT, n_samples=3_000, seed=5)
    scale = np.exp(UNIT.volume)
    for got, streams in ((pm, _SHEET_STREAMS), (r1, (80, 1))):
        res = sheet_integrals(E.function, E.level, {"s": None}, UNIT, streams=streams,
                              n_samples=3_000, seed=5)["s"]
        assert min(res.per_k.values()) >= 0.0
        assert (got.total, got.total_err) == (res.value, res.error)
        assert got.per_k == {k: scale * v for k, v in res.per_k.items()}
    assert pm.total != r1.total  # Monte Carlo strata on different streams


def test_rho1_clamps_a_negative_stratum_at_zero():
    # sheet-scale-1.3 sectioned on [-0.5, 0.5] by a one-point outside pattern
    # at which the extrapolated band value of the k = 2 stratum (quadrature
    # order 96) comes out negative
    spec = batteries.monotone_sheets()["sheet-scale-1.3"]
    inner = scaled_box(0.0, 1.0, 1)
    eta = np.array([[0.5321212403346848]])
    sec = section_set(spec, eta, inner)
    raw = sheet_integrals(sec.function, sec.level, {"s": None}, inner, streams=(80, 1),
                          n_samples=2_000, seed=29, count_equals=sec.count_equals)["s"]
    got = rho_m_on_box(sec, 1, inner, n_samples=2_000, seed=29)
    assert raw.per_k[2] < 0.0 and min(v for k, v in raw.per_k.items() if k != 2) >= 0.0
    scale = np.exp(inner.volume)
    assert got.per_k == {k: scale * max(v, 0.0) for k, v in raw.per_k.items()}
    total = 0.0
    for v in raw.per_k.values():  # in count order, as the loop adds its shares
        total += max(v, 0.0)
    assert got.total == total
    assert got.total > raw.value
    assert got.total_err == raw.error


def test_rho1_rejects_bad_inputs():
    A = SetSpec.count_at_least(UNIT, 1)
    with pytest.raises(DomainError):
        rho_m_on_box(A, 1, UNIT)
    with pytest.raises(DomainError):
        rho_m_on_box(A, 2, UNIT)


def test_rho_localized_constant_when_local():
    f = SmoothFunction.bump(0.0, 0.25, 1.0, window=scaled_box(0.0, 3.0, 1))
    sheet = SetSpec.level_sheet(cyl_from_star(f), 0.55)
    outer = scaled_box(0.0, 3.0, 1)
    est1 = rho_m_localized(sheet, 1, scaled_box(0.0, 1.0, 1), outer, seed=3)
    est2 = rho_m_localized(sheet, 1, scaled_box(0.0, 2.0, 1), outer, seed=3)
    assert abs(est1.mean - est2.mean) <= 3 * (est1.std_err + est2.std_err) + 1e-3
    # m = 0 agrees with the plain probability
    A = SetSpec.level_set(cyl_from_star(f), 0.55)
    est0 = rho_m_localized(A, 0, scaled_box(0.0, 1.0, 1), outer, seed=4)
    plan = MCPlan(n_samples=30_000, seed=5, window=outer)
    direct = _probabilities([A], plan)[0]
    assert abs(est0.mean - direct.mean) <= 3 * (est0.std_err + direct.std_err) + 1e-3


def test_rho_limit_monotone_and_saturating():
    window = scaled_box(0.0, 3.0, 1)
    f = SmoothFunction.bump(0.0, 0.45, 1.0, window=window)
    sheet = SetSpec.level_sheet(cyl_from_star(f), 0.55)
    boxes = [scaled_box(0.0, r, 1) for r in (1.0, 1.5, 2.0, 3.0)]
    res = rho_m_limit(sheet, 1, boxes, seed=11, n_samples=8000, n_eta=32)
    for a, b, ea, eb in zip(res.values, res.values[1:], res.errors, res.errors[1:]):
        assert b >= a - 3 * (ea + eb)
    assert res.monotone
    assert res.saturated
    assert res.limit == res.values[-1]


def _limit_result(values, errors, rs=(1.0, 1.5, 2.0, 3.0), locality=interval(-0.6, 0.6)):
    return RhoLimitResult(values=tuple(values), errors=tuple(errors),
                          boxes=tuple(scaled_box(0.0, r, 1) for r in rs), locality=locality)


def test_rho_limit_monotone_verdict_uses_the_quadrature_margin():
    # a step down of 5: inside the summed margin 3 (s_i + s_j) = 6, outside
    # the quadrature margin 3 sqrt(s_i^2 + s_j^2) = 4.24
    res = _limit_result([1.0, 1.0, -4.0, -4.0], [1.0, 1.0, 1.0, 1.0])
    assert res.values[2] >= res.values[1] - 3 * (res.errors[1] + res.errors[2])
    assert res.monotone is False
    assert _limit_result([1.0, 1.0, -3.0, -3.0], [1.0] * 4).monotone is True


def test_rho_limit_returns_a_failed_verdict_instead_of_raising():
    # a far decrease gives a verdict; the estimates behind it are kept
    res = _limit_result([0.5, 0.1, 0.1, 0.1], [0.01, 0.01, 0.01, 0.01])
    assert res.monotone is False
    assert res.values == (0.5, 0.1, 0.1, 0.1)
    assert res.saturated is True  # the boxes r >= 1.5 hold the locality and agree


def test_rho_limit_saturation_needs_two_boxes_holding_the_locality():
    # only r = 3 holds [-1, 1] in its interior; the r = 2 box ends at its edge
    res = _limit_result([0.1, 0.2, 0.3, 0.9], [0.01] * 4, locality=interval(-1.0, 1.0))
    assert res.saturation is None and res.saturated is None
    res = _limit_result([0.1, 0.2, 0.3, 0.9], [0.01] * 4, locality=interval(-0.9, 0.9))
    assert res.saturation == pytest.approx((0.6, 0.02))
    assert res.saturated is False


def test_localized_sheet_of_a_count_constrained_set():
    # outside patterns with two or more points exceed count_equals = 1: their
    # sections are empty and contribute (0, 0) instead of raising
    E = batteries.half_space_set()
    inner = scaled_box(0.5, 0.4, 1)
    eta = np.array([[0.05], [0.95]])
    res = rho_m_on_box(section_set(E.boundary_sheet(), eta, inner), 1, inner)
    assert (res.total, res.total_err) == (0.0, 0.0)
    ests = [rho_m_localized(E.boundary_sheet(), 1, scaled_box(0.5, r, 1), UNIT, seed=7,
                            n_samples=20_000) for r in (0.4, 0.7, 1.0)]
    for est in ests[:2]:
        assert est.mean == pytest.approx(np.exp(-1.0), abs=3 * est.std_err)
    # the box that holds the locality is the full-window perimeter, bit for bit
    assert ests[-1].mean == perimeter_measure(E, UNIT, seed=7, n_samples=20_000).total


def _patterns(A, inner, n_eta, seed):
    """The outside patterns of ``rho_m_localized``, each as drawn and as its
    sorted part outside the inner box."""
    counts, points = poisson_configurations(A.locality, stream_rng(seed, 7), n_eta)
    drawn = np.split(points, np.cumsum(counts)[:-1])
    return [(pts, pts[np.lexsort(pts.T[::-1])][~inner.contains(pts[np.lexsort(pts.T[::-1])])])
            for pts in drawn]


def _localized_reference(A, inner, n_eta, n_samples, seed):
    """rho_1 localized as a loop over patterns: one ``rho_m_on_box`` call on
    each pattern's section, on seed + 1 + i; with the calls' results."""
    res = [rho_m_on_box(section_set(A, eta, inner), 1, inner,
                        n_samples=max(2000, n_samples // 8), seed=seed + 1 + i)
           for i, (_, eta) in enumerate(_patterns(A, inner, n_eta, seed))]
    vals = np.array([r.total for r in res])
    errs = np.array([r.total_err for r in res])
    mean, spread = mean_and_stderr(vals)
    return mean, float(np.sqrt(spread * spread + np.sum(errs**2) / n_eta**2)), res


_SHEET = batteries.monotone_sheets()["sheet-scale-1.8"]
_STACK_CASES = {
    # sections at empty, one-point and two-point patterns, one of them drawn
    # out of point order; 32 sections of 2,000 3-tuples fill two blocks
    "sheet-scale-1.8": (_SHEET, interval(-0.8, 0.8), batteries.MONO_WINDOW, 32, 1),
    # count_equals = 3 is lowered by each pattern's outside count: the
    # sections form groups of counts 3, 2 and 1
    "count-equals-3": (SetSpec.level_sheet(_SHEET.function, 0.55, count_equals=3),
                       interval(-0.8, 0.8), batteries.MONO_WINDOW, 32, 1),
    # the sheet through tanh: the gradient on a band row depends on the
    # row's offset
    "tanh-of-sheet": (SetSpec.level_sheet(cyl_compose(tanh_of, _SHEET.function), np.tanh(0.55)),
                      interval(-0.8, 0.8), batteries.MONO_WINDOW, 32, 1),
    # counts 1, 0 and below: the zero-particle stratum and empty sections
    "half-space": (batteries.half_space_set().boundary_sheet(), scaled_box(0.5, 0.4, 1),
                   UNIT, 24, 7),
}


@pytest.mark.parametrize("name", list(_STACK_CASES))
def test_stacked_sections_equal_the_per_pattern_loop(name):
    A, inner, outer, n_eta, seed = _STACK_CASES[name]
    got = rho_m_localized(A, 1, inner, outer, n_eta=n_eta, n_samples=2_000, seed=seed)
    mean, err, res = _localized_reference(A, inner, n_eta, 2_000, seed)
    assert (got.mean, got.std_err) == (mean, err)
    patterns = _patterns(A, inner, n_eta, seed)
    assert {0, 1, 2} <= {len(eta) for _, eta in patterns}
    if name != "half-space":
        assert any(len(eta) == 2 and not np.array_equal(pts[~inner.contains(pts)], eta)
                   for pts, eta in patterns)
        # Monte Carlo band rows at k = 3, whose 2,000 tuples per section
        # take more than one block
        assert any(r.per_k.get(3, 0.0) > 0.0 for r in res)
        assert hausdorff.BLOCK_COORDS // (2_000 * 3) < n_eta


def test_sections_at_one_offset_share_quadrature_but_not_draws(monkeypatch):
    # two sections at one offset on two seeds: each quadrature stratum runs
    # once for both, and the Monte Carlo strata draw on each seed's streams
    A = SetSpec.level_sheet(batteries.tanh_sum_function(0.35), 0.3)
    offsets = np.array([[0.2], [0.2]])
    quad = []
    real = hausdorff.surface_functional_auto

    def spy(*args, **kwargs):
        if kwargs["quad_order"] is not None:
            quad.append((args[4], kwargs["seed"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(hausdorff, "surface_functional_auto", spy)
    both = hausdorff._rho1(A, UNIT, (5, 9), offsets, n_samples=2_000)
    assert quad == [(1, (5, 9)), (2, (5, 9))]
    section = replace(A, function=replace(A.function, offset=(0.2,)))
    for got, seed in zip(both, (5, 9)):
        ref = rho_m_on_box(section, 1, UNIT, n_samples=2_000, seed=seed)
        assert (got.total, got.total_err, got.per_k) == (ref.total, ref.total_err, ref.per_k)
    first, second = both
    assert first.per_k[1] == second.per_k[1] > 0.0
    assert first.per_k[2] == second.per_k[2] > 0.0
    assert first.per_k[3] != second.per_k[3]


@pytest.mark.parametrize("order", [1, 7, 32, 96, 192])
def test_cached_rule_is_fresh_leggauss_and_read_only(order):
    x, w = np.polynomial.legendre.leggauss(order)
    cx, cw = _legendre_rule(order)
    assert np.array_equal(cx, x) and np.array_equal(cw, w)
    assert _legendre_rule(order)[0] is cx  # built once per order
    with pytest.raises(ValueError):
        cx[0] = 0.0
    with pytest.raises(ValueError):
        cw[0] = 0.0
    # the affine map to [lo, hi] is the uncached one, bit for bit
    lo, hi = 0.25, 1.75
    nodes, weights = gauss_legendre(lo, hi, order)
    half = 0.5 * (hi - lo)
    assert np.array_equal(nodes, lo + half * (x + 1.0))
    assert np.array_equal(weights, half * w)
    nodes[0] = -1.0  # callers own the mapped arrays
    assert np.array_equal(_legendre_rule(order)[0], x)


def _ordered_rule(window, k, order):
    """The tensor Gauss-Legendre rule on window^k over ordered node tuples:
    points (order^(n k), k, n) and weights."""
    grid = StratumGrid.on(window, k, order)
    pts = np.stack(np.meshgrid(*grid.nodes, indexing="ij"), axis=-1)
    w = functools.reduce(np.multiply.outer, grid.weights).ravel()
    return pts.reshape(-1, k, window.dim), w


@pytest.mark.parametrize("dim, k", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)])
def test_multiset_rule_integrates_symmetric_functions_as_the_ordered_rule(dim, k):
    window = interval(0.2, 1.1) if dim == 1 else BoxDomain((0.0, -0.5), (1.0, 1.5))
    pts, w = stratum_grid_points(window, k, 6)
    ordered, wo = _ordered_rule(window, k, 6)
    assert abs(np.sum(w) - window.volume ** k) <= 1e-13 * window.volume ** k

    def symmetric(X):
        e1 = np.sum(X[..., 0], axis=1)
        p2 = np.sum(X * X, axis=(1, 2))
        return [e1 ** 3 * p2, np.prod(1.0 + X[..., -1] - 0.3 * X[..., 0] ** 2, axis=1),
                np.exp(-e1) * np.cos(p2)]

    for got, ref in zip(symmetric(pts), symmetric(ordered)):
        exact = np.sum(wo * ref)
        assert abs(np.sum(w * got) - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("window, k, order", [
    (UNIT, 1, 192), (UNIT, 2, 96), (interval(0.0, 0.5), 3, 12),
    (BoxDomain((0.0, 0.0), (1.0, 2.0)), 2, 5)])
def test_stratum_grid_is_memoized_read_only_and_fresh(window, k, order):
    grid = StratumGrid.on(window, k, order)
    ordered, w = _ordered_rule(window, k, order)
    pts, weights = stratum_grid_points(window, k, order)
    Q = order ** window.dim
    assert pts.shape == (comb(Q + k - 1, k), k, window.dim)
    # each ordered tuple's row holds its particles sorted by node index
    rows = grid.ordered(np.arange(len(pts))).ravel()
    node = np.indices((Q,) * k).reshape(k, -1).T
    by_node = np.argsort(node, axis=1, kind="stable")
    assert np.array_equal(pts[rows], ordered[np.arange(len(ordered))[:, None], by_node])
    # a row's weight is the sum of its tuples' weights, and every row is hit
    assert np.all(np.bincount(rows, minlength=len(pts)) > 0)
    assert np.allclose(np.bincount(rows, weights=w, minlength=len(pts)), weights,
                       rtol=1e-14, atol=0.0)
    again = stratum_grid_points(window, k, order)
    assert again[0] is pts and again[1] is weights
    with pytest.raises(ValueError):
        pts[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        weights[0] = 0.0


@pytest.mark.parametrize("k", [0, 1, 2, 4])
def test_stratum_indicator_matches_configuration_reference(k, member):
    X = uniform_tuples(UNIT, k, 3_000, seed=5, stream=k)
    for name, A in batteries.rho0_sets().items():
        ref = [1.0 if member(A, x) else 0.0 for x in X]
        assert np.array_equal(stratum_indicator(A, k, X), ref), name


def _reference_quad_route(g, level, weights, window, k, eps, quad_order):
    """The quadrature route of surface_functional with g evaluated afresh for
    every profile width: g.value on the whole grid, g.gradient on the band."""
    state = {"min_grad": np.inf, "max_grad": 0.0}
    pts, w = _ordered_rule(window, k, quad_order)
    spacing = float(np.max(window.sides)) / quad_order

    def run(sig):
        vals = g.value(pts)
        mask = np.abs(vals - level) < 5.0 * sig
        dens = {name: np.zeros(pts.shape[0]) for name in weights}
        if np.any(mask):
            Xm = pts[mask]
            grad = g.gradient(Xm)
            gn = np.sqrt(np.sum(grad * grad, axis=(-2, -1)))
            incore = np.abs(vals[mask] - level) < 2.0 * sig
            if np.any(incore):
                state["min_grad"] = min(state["min_grad"], float(np.min(gn[incore])))
                state["max_grad"] = max(state["max_grad"], float(np.max(gn[incore])))
            z = (vals[mask] - level) / sig
            prof = np.exp(-0.5 * z * z) / (sig * np.sqrt(2.0 * np.pi))
            for name, weight in weights.items():
                dens[name][mask] = (gn if weight is None else weight(Xm, grad, gn)) * prof
        return {name: float(np.sum(w * d)) for name, d in dens.items()}

    sig0 = max(eps, 4.0 * spacing)
    v1 = run(sig0)
    sig = max(sig0, 4.0 * spacing * min(state["max_grad"], 3.0))
    if sig > 1.01 * sig0:
        v1 = run(sig)
    sigs = np.array([sig, sig * np.sqrt(2.0), sig * 2.0])
    runs = (v1, run(sigs[1]), run(sigs[2]))
    M = np.stack([np.ones(3), sigs, sigs ** 2], axis=1)
    out = {}
    for name in weights:
        vals = np.array([r[name] for r in runs])
        r_quad = float(np.linalg.solve(M, vals)[0])
        r_lin = float(vals[0] + (vals[0] - vals[1]) / (np.sqrt(2.0) - 1.0))
        out[name] = (r_quad, abs(r_quad - r_lin) * 0.5 + 1e-10 * abs(r_quad), state["min_grad"])
    if np.isfinite(state["min_grad"]) and state["min_grad"] < 1e-3:
        raise CriticalLevelError(f"gradient {state['min_grad']:.2e}")
    return out


class _Spy:
    """A level function that counts value calls and keeps every gradient row."""

    def __init__(self, g):
        self.g, self.value_calls, self.rows = g, 0, []

    def value(self, X):
        self.value_calls += 1
        return self.g.value(X)

    def gradient(self, X):
        self.rows.append(np.array(X))
        return self.g.gradient(X)


def _counted(weights: dict, calls: dict) -> dict:
    """The weights, each counting its calls in ``calls``."""
    def count(name, weight):
        def counted(X, grad, gn):
            calls[name] = calls.get(name, 0) + 1
            return weight(X, grad, gn)
        return counted

    return {name: w if w is None else count(name, w) for name, w in weights.items()}


def _quad_case(name):
    if name == "empty-band":
        # one particle's bump statistic stays at most 1, 0.37 below the
        # level: no grid row lies in the widest band, 10 sig0 = 0.21 wide
        S = batteries.stack_set()
        return S.function, S.level, UNIT, 1, 192
    if name == "plateau-fallback":
        top = SmoothFunction.plateau(interval(0.3, 0.7), 0.02, window=UNIT)
        return cyl_from_star(top), 0.97, UNIT, 1, 192
    if name == "tilted-2d":
        sq = batteries.UNIT2
        f = SmoothFunction.linear(sq, axis=1, amplitude=0.8, offset=0.1)
        return cyl_compose(lambda r: tanh_of(r), cyl_from_star(f)), 0.35, sq, 1, 32
    k, order = {"tanh-sum-k1": (1, 192), "tanh-sum-k2": (2, 96)}[name]
    return batteries.tanh_sum_function(0.35), 0.3, UNIT, k, order


@pytest.mark.parametrize("name", ["tanh-sum-k1", "tanh-sum-k2", "tilted-2d",
                                  "plateau-fallback", "empty-band"])
def test_quadrature_route_evaluates_g_once_per_grid(name):
    # one value and one gradient call on the whole grid and one call per
    # weight score every profile width, and an empty band needs neither the
    # gradient nor a weight; a Monte Carlo draw takes gradients on its band
    # rows only
    g, level, window, k, order = _quad_case(name)
    G = cyl_from_star(SmoothFunction.bump((0.45,) * window.dim, 0.3, 1.0, window=window))
    weights = {"surface": None,
               "G": lambda X, grad, gn: G.value(X) * gn,
               "tilt": lambda X, grad, gn: (np.sum(X[:, :, 0], axis=1)
                                            * np.sum(grad, axis=(-2, -1)))}
    spy, calls = _Spy(g), {}
    try:
        ref = _reference_quad_route(g, level, weights, window, k, 0.01, order)
    except CriticalLevelError as exc:
        ref = exc
    if isinstance(ref, CriticalLevelError):
        assert name == "plateau-fallback"
        with pytest.raises(CriticalLevelError, match=str(ref)):
            surface_functional(spy, level, _counted(weights, calls), window, k, eps=0.01,
                               quad_order=order)
        assert calls == {}  # a critical level is found before any weight runs
        mc = surface_functional(g, level, weights, window, k, eps=0.01, n_samples=3_000,
                                seed=4, stream=9)
        assert surface_functional_auto(g, level, weights, window, k, eps=0.01,
                                       n_samples=3_000, seed=4, stream=9,
                                       quad_order=order) == mc
    elif name == "empty-band":
        got = surface_functional(spy, level, _counted(weights, calls), window, k, eps=0.01,
                                 quad_order=order)
        assert got == ref
        assert set(got.values()) == {(0.0, 0.0, np.inf)}
        assert spy.value_calls == 1 and spy.rows == [] and calls == {}
        return
    else:
        got = surface_functional(spy, level, _counted(weights, calls), window, k, eps=0.01,
                                 quad_order=order)
        assert got == ref
        assert got["surface"][0] > 0.1
        assert calls == {"G": 1, "tilt": 1}
    assert spy.value_calls == 1
    assert len(spy.rows) == 1
    assert np.array_equal(spy.rows[0], stratum_grid_points(window, k, order)[0])

    spy, calls = _Spy(g), {}
    surface_functional(spy, level, _counted(weights, calls), window, k, eps=0.01,
                       n_samples=3_000, seed=4, stream=9)
    X = uniform_tuples(window, k, 3_000, 4, 9)
    band = X[np.abs(g.value(X) - level) < 0.01]
    assert len(band) > 0
    assert spy.value_calls == 1 and calls == {"G": 1, "tilt": 1}
    assert len(spy.rows) == 1 and np.array_equal(spy.rows[0], band)


def _linear_sheet(name):
    """g, level, window, k, order (None: Monte Carlo) and a distance from the
    level beyond every profile's band, reached on the grid or the draw."""
    if name == "tilted-2d":
        f = SmoothFunction.linear(batteries.UNIT2, axis=1, amplitude=10.0, offset=0.1)
        return cyl_from_star(f), 5.0, batteries.UNIT2, 1, 32, 4.0
    g = cyl_from_star(SmoothFunction.linear(UNIT))
    return {"k1": (g, 0.05, UNIT, 1, 192, 0.9), "k2": (g, 0.5, UNIT, 2, 96, 0.9),
            "monte-carlo": (g, 0.5, UNIT, 2, None, 0.9)}[name]


@pytest.mark.parametrize("name", ["k1", "k2", "tilted-2d", "monte-carlo"])
def test_out_of_band_densities_are_exactly_zero(name):
    # a weight undefined away from the sheet: its NaNs there never reach the
    # sum, and the values equal the finite weight's bit for bit
    g, level, window, k, order, far = _linear_sheet(name)

    def finite(X, grad, gn):
        return (1.0 + np.sum(X[:, :, 0], axis=1)) * gn

    def undefined_far(X, grad, gn):
        return np.where(np.abs(g.value(X) - level) >= far, np.nan, finite(X, grad, gn))

    X = (uniform_tuples(window, k, 3_000, 4, 9) if order is None
         else stratum_grid_points(window, k, order)[0])
    assert np.any(np.abs(g.value(X) - level) >= far)
    got = [surface_functional(g, level, {"w": w}, window, k, eps=0.01, n_samples=3_000,
                              seed=4, stream=9, quad_order=order)["w"]
           for w in (finite, undefined_far)]
    assert got[0] == got[1]
    assert np.all(np.isfinite(got[0])) and got[0][0] > 0.1


def test_band_gradients_are_read_only_for_weights():
    # later profile widths reuse the gradients a weight receives
    def writer(X, grad, gn):
        grad *= 2.0
        return np.sum(grad, axis=(-2, -1))

    F = batteries.tanh_sum_function(0.35)
    for quad_order in (None, 192):
        with pytest.raises(ValueError):
            surface_functional(F, 0.3, {"w": writer}, UNIT, 1, eps=0.01, n_samples=2_000,
                               quad_order=quad_order)


def _bump_statistic_set(shift: float):
    """Super-level set {sum of bump(x_i) > 1.37} on [shift, 1 + shift]."""
    window = interval(shift, 1.0 + shift)
    f = SmoothFunction.bump(0.5 + shift, 0.35, 1.0, window=window)
    return SetSpec.level_set(cyl_from_star(f), 1.37, name="two-stack"), window


def _poisson_measures(shift: float) -> list[tuple[float, float]]:
    E, window = _bump_statistic_set(shift)
    rho0 = rho_m_on_box(E, 0, window, n_samples=20_000, seed=3)
    rho1 = rho_m_on_box(E.boundary_sheet(), 1, window, n_samples=20_000, seed=3)
    per = perimeter_measure(E, window, n_samples=20_000, seed=3)
    return [(rho0.total, rho0.total_err), (rho1.total, rho1.total_err),
            (per.total, per.total_err)]


@pytest.mark.parametrize("shift", [0.25, 3.0, -1.7])
def test_poisson_measures_invariant_under_translating_the_window(shift):
    # the set and its window move together; only the rounding of the shifted
    # coordinates may differ
    base = _poisson_measures(0.0)
    assert base[0][0] > 0.05 and base[1][0] > 0.3 and base[2][0] > 0.3
    for (v0, e0), (v1, e1) in zip(base, _poisson_measures(shift)):
        assert v1 == pytest.approx(v0, rel=1e-12, abs=0.0)
        assert e1 == pytest.approx(e0, rel=1e-12, abs=0.0)
