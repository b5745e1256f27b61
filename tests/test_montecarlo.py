import math

import numpy as np
import pytest
from scipy import special

from ugmt.configuration import CollisionError, MCEstimate, SetSpec, poisson_configurations
from ugmt.cylinder import cyl_compose, cyl_from_star, tanh_of
from ugmt.geometry import BoxDomain, SmoothFunction, gauss_legendre, interval
from ugmt import batteries, montecarlo
from ugmt.hausdorff import scaled_box
from ugmt.montecarlo import (MCPlan, _box_tuples, draw_by_count, integrate_battery,
                             poisson_k_cutoff, poisson_pmf, poisson_stratified_battery, shared_draws, uniform_tuples)
from ugmt.montecarlo import MASS_RATIO, MIN_SAMPLES, Strata
from ugmt.productspace import stratum_indicator
from ugmt.rng import mean_and_stderr, stream_rng
from ugmt import bv, hausdorff
from ugmt.cylinder import add_n, const, mul_n

UNIT = interval(0.0, 1.0)
PLAN = MCPlan(n_samples=20_000, seed=90, window=UNIT)


def test_plan_minimum_samples():
    with pytest.raises(ValueError):
        MCPlan(n_samples=10, seed=1, window=UNIT)


def _mean(Hk, plan=PLAN):
    """integrate_battery's estimate of the one stratum function Hk."""
    return integrate_battery({"": Hk}, plan)[""]


def _count(k, X):
    return np.full(X.shape[0], float(k))


def test_constant_is_exact():
    est = _mean(lambda k, X: np.ones(X.shape[0]))
    assert est.mean == 1.0 and est.std_err == 0.0


def test_intensity():
    est = _mean(_count)
    assert est.within(UNIT.volume, 3.0)


def test_laplace_functional():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    nodes, w = gauss_legendre(0.0, 1.0, 64)
    target = float(np.exp(np.sum(w * (np.exp(f.value(nodes[:, None])) - 1.0))))
    est = _mean(lambda k, X: np.exp(np.sum(f.value(X), axis=-1)))
    assert est.within(target, 3.0)


def test_linearity_for_fixed_plan():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)

    def G(k, X):
        return np.sum(f.value(X), axis=-1)

    a, b = 2.5, -0.75
    got = integrate_battery({"combo": lambda k, X: a * G(k, X) + b * _count(k, X),
                             "G": G, "H": _count}, PLAN)
    assert got["combo"].mean == pytest.approx(a * got["G"].mean + b * got["H"].mean, rel=1e-13)


def test_determinism():
    est1 = _mean(_count)
    est2 = _mean(_count)
    assert est1.mean == est2.mean and est1.std_err == est2.std_err


def test_non_finite_detected():
    with pytest.raises(ValueError):
        _mean(lambda k, X: np.full(X.shape[0], np.nan),
              MCPlan(n_samples=100, seed=1, window=UNIT))


def test_measure_of_set_void():
    Q = interval(0.2, 0.7)
    A = SetSpec.count_at_most(Q, 0)
    est = _mean(lambda k, X: stratum_indicator(A, k, X))
    assert est.within(np.exp(-Q.volume), 3.0)
    full = SetSpec.count_at_least(UNIT, 0)
    assert _mean(lambda k, X: stratum_indicator(full, k, X)).mean == 1.0


def test_stratified_against_mc():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    F = cyl_compose(lambda r: tanh_of(r), cyl_from_star(f))
    def Hk(k, X):
        return F.value(X)

    val, err = poisson_stratified_battery(lambda k, X: {"F": Hk(k, X)}, UNIT, seed=4,
                                          sup_bound=1.0)["F"]
    mc = _mean(Hk)
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
        est = _mean(_count, plan)
        if abs(est.mean - 1.0) <= 3 * est.std_err:
            hits += 1
    assert hits >= 95


# ---------------------------------------------------------------------------
# one draw per plan, grouped by particle count


def _reference_plan_draws(plan, make_rng=stream_rng):
    """Sample index -> points: one ``poisson_configurations`` call per stream,
    split by hand into its configurations, in stream order."""
    S, n = plan.streams, plan.n_samples
    out = {}
    for j in range(S):
        idx = range(j, n, S)
        counts, points = poisson_configurations(plan.window, make_rng(plan.seed, j), len(idx))
        ends = np.cumsum(counts)
        for i, c, e in zip(idx, counts, ends):
            out[i] = points[e - c:e]
    return out


def _stream_order(plan, idx):
    S = plan.streams
    return sorted(idx, key=lambda i: (i % S, i // S))


WINDOWS = {"unit": UNIT, "unit2": BoxDomain((0.0, 0.0), (1.0, 1.0)),
           "volume-12": BoxDomain((0.0, -1.0), (4.0, 2.0))}


@pytest.mark.parametrize("window", WINDOWS.values(), ids=list(WINDOWS))
def test_draw_by_count_reproduces_per_configuration_draws(window):
    plan = MCPlan(n_samples=1000, seed=23, window=window, streams=7)
    ref = _reference_plan_draws(plan)
    draws = draw_by_count(plan)
    assert list(draws) == sorted(draws)
    assert sum(len(idx) for idx, _ in draws.values()) == plan.n_samples
    seen = set()
    for k, (idx, X) in draws.items():
        assert X.shape == (len(idx), k, window.dim)
        assert list(idx) == _stream_order(plan, idx)
        for i, pts in zip(idx, X):
            assert np.array_equal(pts, ref[i])
        seen.update(int(i) for i in idx)
    assert seen == set(range(plan.n_samples))
    if window.volume > 10:
        assert max(draws) >= 8


def test_draw_takes_the_collision_retry_path(monkeypatch, repeat_stream):
    # every stream's first block repeats a point once: draw_by_count groups
    # what the per-stream draws give, the redraw included
    plan = MCPlan(n_samples=200, seed=4, window=UNIT, streams=3)
    streams = []

    def make(seed, stream):
        streams.append(repeat_stream(seed, stream))
        return streams[-1]

    ref = _reference_plan_draws(plan, make)
    monkeypatch.setattr(montecarlo, "stream_rng", make)
    draws = draw_by_count(plan)
    assert len(streams) == 2 * plan.streams
    assert all(s.hit is not None and s.blocks == 2 for s in streams)   # one redraw each
    for idx, X in draws.values():
        for i, pts in zip(idx, X):
            assert np.array_equal(pts, ref[i])
            assert len(set(map(tuple, pts.tolist()))) == pts.shape[0]

    class Stuck:
        """Every count 7 and every double 1/2, on every redraw."""

        def __init__(self, seed, stream):
            pass

        def poisson(self, lam, size):
            return np.full(size, 7)

        def random(self, size):
            return np.full(size, 0.5)

    monkeypatch.setattr(montecarlo, "stream_rng", Stuck)
    with pytest.raises(CollisionError):
        draw_by_count(MCPlan(n_samples=100, seed=4, window=BoxDomain((0.0,), (5.0,))))


def _laplace_pair(f):
    def G(pts):
        return float(np.exp(np.sum(f.value(pts)))) if len(pts) else 1.0

    def Hk(k, X):
        return np.exp(np.sum(f.value(X), axis=-1))
    return G, Hk


def _reference_integrate(G, plan):
    """(mean, std_err) of the per-configuration loop over the plan's draws."""
    values = np.empty(plan.n_samples)
    for i, pts in _reference_plan_draws(plan).items():
        values[i] = G(pts)
    return mean_and_stderr(values)


def _laplace_battery(window):
    fs = [SmoothFunction.bump((0.5,) * window.dim, 0.3, 1.0, window=window),
          SmoothFunction.bump((0.4,) * window.dim, 0.35, -0.7, window=window)]
    pairs = {f"f{i}": _laplace_pair(f) for i, f in enumerate(fs)}
    pairs["count"] = (lambda pts: float(len(pts)), lambda k, X: np.full(X.shape[0], float(k)))
    return pairs


def _tanh_bump_battery(window):
    F = cyl_compose(lambda r: tanh_of(r),
                    cyl_from_star(SmoothFunction.bump(0.25, 0.2, 1.0, window=window)))
    return {"F": (F.value, lambda k, X: F.value(X))}


# (plan, battery of (G on one configuration's (k, n) points, stratum function Hk) pairs)
INTEGRATE_CASES = {
    "unit": (MCPlan(n_samples=3000, seed=71, window=UNIT), _laplace_battery),
    "unit2": (MCPlan(n_samples=3000, seed=71, window=BoxDomain((0.0, 0.0), (1.0, 1.0))),
              _laplace_battery),
    "tanh-bump": (MCPlan(n_samples=500, seed=23, window=interval(0.0, 0.5)), _tanh_bump_battery),
}


@pytest.mark.parametrize("plan, battery", INTEGRATE_CASES.values(), ids=list(INTEGRATE_CASES))
def test_integrate_battery_equals_integrate(plan, battery):
    # integrate_battery against a loop over the plan's configurations, one by one
    pairs = battery(plan.window)
    got = integrate_battery({name: Hk for name, (_, Hk) in pairs.items()}, plan)
    assert list(got) == list(pairs)
    for name, (G, _) in pairs.items():
        mean, std_err = _reference_integrate(G, plan)
        assert got[name] == MCEstimate(mean=mean, std_err=std_err, n_samples=plan.n_samples,
                                       seed=plan.seed, name=name)
    with pytest.raises(ValueError):
        integrate_battery({"nan": lambda k, X: np.full(X.shape[0], np.nan)}, plan)


def test_stratified_battery_equals_member_calls():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    F = cyl_compose(lambda r: tanh_of(r), cyl_from_star(f))
    members = {"value": lambda k, X: F.value(X),
               "grad-sq": lambda k, X: np.sum(F.gradient(X) ** 2, axis=(-2, -1))}
    got = poisson_stratified_battery(lambda k, X: {name: H(k, X) for name, H in members.items()},
                                     UNIT, quad_k=2, mc_n=3000, seed=8, sup_bound=1.0)
    for name, H in members.items():
        one = poisson_stratified_battery(lambda k, X, H=H: {name: H(k, X)}, UNIT, quad_k=2,
                                         mc_n=3000, seed=8, sup_bound=1.0)
        assert got[name] == one[name]


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 1.5, 2.0, 2.25, 3.0, 4.0, 6.0, 12.0])
def test_poisson_pmf_and_tail_equal_scipy_stats(lam):
    from scipy import stats
    ks = np.arange(60)
    assert np.array_equal(poisson_pmf(ks, lam), stats.poisson.pmf(ks, lam))
    for k in ks:
        assert poisson_pmf(int(k), lam) == float(stats.poisson.pmf(k, lam))
    # the tail the count cutoff and the stratified error bar use
    assert np.array_equal(special.pdtrc(ks, lam), stats.poisson.sf(ks, lam))
    k = 0
    while float(stats.poisson.sf(k, lam)) > 1e-10:
        k += 1
    assert poisson_k_cutoff(lam) == k


_PMF_LAMS = [0.25, 0.5, 1.0, 1.5, 2.0, 2.25, 3.0, 4.0, 6.0, 12.0]


@pytest.mark.parametrize("lam", _PMF_LAMS)
def test_poisson_pmf_equals_the_scipy_formula_bit_for_bit(lam):
    # k + 1 runs through all three branches of cephes lgam: below 13, the
    # five-term series below 1000 and the three-term series from 1000 on
    ks = np.arange(1201)
    ref = np.exp(special.xlogy(ks, lam) - special.gammaln(ks + 1) - lam)
    assert np.array_equal(poisson_pmf(ks, lam), ref)
    for k in ks:
        assert poisson_pmf(int(k), lam) == float(ref[k])
    assert poisson_pmf(-1, lam) == 0.0
    assert poisson_pmf(-3, lam) == 0.0
    assert np.array_equal(poisson_pmf(np.array([-2, -1]), lam), [0.0, 0.0])


def _pdtrc_cutoff(volume, tol=1e-10):
    k = 0
    while float(special.pdtrc(k, volume)) > tol and k < 10_000:
        k += 1
    return k


def test_k_cutoff_equals_the_pdtrc_rule():
    volumes = np.concatenate([np.linspace(0.0, 60.0, 501)[1:],
                              [w.volume for w in _DRAW_WINDOWS.values()]])
    for volume in volumes:
        assert poisson_k_cutoff(float(volume)) == _pdtrc_cutoff(volume)


def test_k_cutoff_sums_the_tail_once_per_volume(monkeypatch):
    calls = []
    tail = montecarlo._poisson_tail

    def spy(k, lam):
        calls.append(lam)
        return tail(k, lam)

    monkeypatch.setattr(montecarlo, "_poisson_tail", spy)
    volume = 2.0 ** 0.5   # a volume no other caller asks for
    K = poisson_k_cutoff(volume)
    assert len(calls) == K + 1 and set(calls) == {volume}
    assert poisson_k_cutoff(volume) == K == _pdtrc_cutoff(volume)
    assert len(calls) == K + 1


@pytest.mark.parametrize("lam", _PMF_LAMS)
def test_poisson_tail_matches_pdtrc(lam):
    # k < 60 holds every count cutoff and sup-bound charge of the lab.  Far
    # deeper (log k! of several hundred) the exp of the rounded exponent leaves
    # both this sum and pdtrc a few 1e-13 off the exact tail.
    for k in range(60):
        ref = float(special.pdtrc(k, lam))
        if ref > 1e-300:
            assert montecarlo._poisson_tail(k, lam) == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert montecarlo._poisson_tail(-1, lam) == pytest.approx(1.0, rel=1e-15)


_DRAW_WINDOWS = {
    "unit": batteries.UNIT, "unit2": batteries.UNIT2, "mono": batteries.MONO_WINDOW,
    "cap": batteries.CAP_WINDOW, **{f"scaled-{r}": scaled_box(0.0, r, 1) for r in (1, 1.5, 2, 3)},
    "off-origin-2d": BoxDomain((0.3, -1.2), (1.7, 0.45)),
}


@pytest.mark.parametrize("k", [0, 1, 3, 7])
@pytest.mark.parametrize("name", list(_DRAW_WINDOWS))
def test_uniform_tuples_equal_tiled_uniform(name, k):
    window = _DRAW_WINDOWS[name]
    n, dim = 500, window.dim

    def reference(rng):
        return rng.uniform(np.tile(window.lower, k), np.tile(window.upper, k),
                           size=(n, k * dim)).reshape(n, k, dim)

    got = uniform_tuples(window, k, n, seed=17, stream=3 + k)
    ref = reference(stream_rng(17, 3 + k))
    assert got.shape == ref.shape == (n, k, dim)
    assert got.tobytes() == ref.tobytes()
    # the bulk kernel leaves the generator where the tiled draw does
    rng, rng_ref = stream_rng(4, k), stream_rng(4, k)
    assert _box_tuples(rng, window, k, n).tobytes() == reference(rng_ref).tobytes()
    assert rng.random(7).tobytes() == rng_ref.random(7).tobytes()


@pytest.mark.parametrize("k", [0, 1, 3, 7])
@pytest.mark.parametrize("name", list(_DRAW_WINDOWS))
def test_stacked_seeds_are_the_one_seed_draws(name, k):
    # a tuple of seeds fills one block, seed by seed, with the one-seed draws
    window = _DRAW_WINDOWS[name]
    seeds, n = (17, 4, 17, 900), 150
    got = uniform_tuples(window, k, n, seeds, stream=3 + k)
    assert got.shape == (len(seeds) * n, k, window.dim)
    ref = np.concatenate([uniform_tuples(window, k, n, s, stream=3 + k) for s in seeds])
    assert got.tobytes() == ref.tobytes()
    with shared_draws():
        X = uniform_tuples(window, k, n, seeds, stream=3 + k)
        assert X.tobytes() == ref.tobytes() and not X.flags.writeable
        assert uniform_tuples(window, k, n, seeds, stream=3 + k) is X


def test_strata_weigh_each_count_once(monkeypatch):
    calls = []
    real = montecarlo.poisson_pmf

    def spy(k, lam):
        calls.append(k)
        return real(k, lam)

    monkeypatch.setattr(montecarlo, "poisson_pmf", spy)
    strata = Strata(scaled_box(0.0, 3.0, 1), mc_n=1_000)
    first, again = list(strata), list(strata)
    assert calls == list(range(1, strata.K_max + 1))
    assert first == again and [s.k for s in first] == calls


def test_shared_draws_scope_returns_one_read_only_draw_per_key():
    fresh = uniform_tuples(UNIT, 3, 200, seed=5, stream=2)
    assert fresh.flags.writeable
    assert uniform_tuples(UNIT, 3, 200, seed=5, stream=2) is not fresh
    with shared_draws():
        X = uniform_tuples(UNIT, 3, 200, seed=5, stream=2)
        assert np.array_equal(X, fresh) and not X.flags.writeable
        with pytest.raises(ValueError):
            X[0, 0, 0] = 0.5
        assert uniform_tuples(UNIT, 3, 200, seed=5, stream=2) is X
        with shared_draws():  # a nested scope keeps a memo of its own
            inner = uniform_tuples(UNIT, 3, 200, seed=5, stream=2)
            assert inner is not X and np.array_equal(inner, X)
        assert uniform_tuples(UNIT, 3, 200, seed=5, stream=2) is X
        # every part of the key counts
        for other in [(interval(0.0, 2.0), 3, 200, 5, 2), (UNIT, 2, 200, 5, 2),
                      (UNIT, 3, 100, 5, 2), (UNIT, 3, 200, 6, 2), (UNIT, 3, 200, 5, 3)]:
            Y = uniform_tuples(*other)
            assert Y is not X and Y.tobytes() == uniform_tuples(*other).tobytes()
            assert not np.array_equal(Y, X)
    assert montecarlo._SHARED_DRAWS.get() is None
    after = uniform_tuples(UNIT, 3, 200, seed=5, stream=2)
    assert after is not X and after.flags.writeable and np.array_equal(after, fresh)


# ---------------------------------------------------------------------------
# Monte Carlo strata draw in proportion to their Poisson mass

_RULE_WINDOWS = {"unit": batteries.UNIT, "mono": batteries.MONO_WINDOW,
                 "cap": batteries.CAP_WINDOW, "unit2": batteries.UNIT2}


@pytest.mark.parametrize("n", [2_000, 20_000])
@pytest.mark.parametrize("name", list(_RULE_WINDOWS))
def test_stratum_draws_follow_the_poisson_mass(name, n):
    window = _RULE_WINDOWS[name]
    strata = list(Strata(window, mc_n=n))
    top = max(s.weight for s in strata)
    assert MIN_SAMPLES == 100 and MASS_RATIO == 0.01
    cut = 0
    for s in strata:
        assert s.top == top
        got = s.draws(n)
        assert got == min(n, max(100, math.ceil(n * s.weight / (0.01 * top))))
        assert MIN_SAMPLES <= got <= n
        if s.weight >= 0.01 * top:
            assert got == n
        cut += got < n
        assert s.draws(50) == 50   # never more than the nominal count
    assert cut > 0   # every window has counts below 1% of the top weight
    # the error bar of equal per-stratum variances grows by at most 1%
    w = np.array([s.weight for s in strata])
    drawn = np.array([s.draws(n) for s in strata])
    assert np.sum(w ** 2 / drawn) / np.sum(w ** 2 / n) <= 1.02
    assert list(Strata(window, mc_n=n, K_max=0)) == []   # no counts, no top weight
    # a stratum conditioned on its count is the top of its own Strata
    for k in (1, 3, 12):
        (s,) = Strata(window, mc_n=n, count_equals=k)
        assert s.top == s.weight and s.draws(n) == n


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("name", list(_DRAW_WINDOWS))
def test_fewer_draws_are_the_first_rows_of_the_full_draw(name, k):
    # streams are counter-based: m rows are the first m of the n-row draw
    window = _DRAW_WINDOWS[name]
    full = uniform_tuples(window, k, 2_000, seed=23, stream=700 + k)
    for m in (100, 137, 1_999):
        assert uniform_tuples(window, k, m, seed=23, stream=700 + k).tobytes() == \
            full[:m].tobytes()
    for s in Strata(window, mc_n=2_000, seed=23, stream_base=700, K_max=k):
        X = s.draw()
        assert X.shape[0] == s.draws(2_000)
        assert X.tobytes() == uniform_tuples(window, s.k, 2_000, 23, 700 + s.k)[:len(X)].tobytes()


def test_every_stratum_draw_has_the_rule_count(monkeypatch):
    drawn = []
    real = montecarlo.uniform_tuples

    def spy(window, k, n, seed, stream):
        drawn.append((window, k, n, seed, stream))
        return real(window, k, n, seed, stream)

    monkeypatch.setattr(montecarlo, "uniform_tuples", spy)
    monkeypatch.setattr(hausdorff, "uniform_tuples", spy)

    def rule(window, k, nominal):
        return next(s for s in Strata(window) if s.k == k).draws(nominal)

    def check(nominal):
        assert drawn
        for window, k, n, seed, stream in drawn:
            assert n == rule(window, k, nominal(k, seed, stream)), (k, seed, stream)
        reduced = sum(n < nominal(k, seed, stream) for _, k, n, seed, stream in drawn)
        drawn.clear()
        return reduced

    stack = batteries.stack_set()
    bv.perimeter_measure(stack, UNIT, n_samples=2_000, seed=5)
    assert check(lambda k, seed, stream: 2_000) > 0
    bv.levelset_expectation(stack, lambda k, X: np.ones(X.shape[0]), UNIT, seed=3)
    # band samples on the grid strata k <= 3, count draws beyond them
    assert check(lambda k, seed, stream: 60_000 if k <= 3 else 20_000) > 0
    bump = cyl_from_star(SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT))
    bv.tv_variational(bump, batteries.field_family()[:2], UNIT, seed=1, iterations=1)
    # the search on seed 1, the final estimate on seed 1 + 7919
    assert check(lambda k, seed, stream: 4_000 if seed == 1 else 20_000) > 0


def test_variational_prefactors_divide_by_the_rows_drawn():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    one = cyl_compose(lambda r: add_n(mul_n(const(0.0), r), const(1.0)), cyl_from_star(f))
    obj = bv._VariationalObjective([one], batteries.field_family()[:1], UNIT, seed=3,
                                   n_band=2_000, mc_n=2_000)
    mc = [(n, pw) for kind, n, pw, _ in obj._stream() if kind == "mc"]
    strata = [s for s in Strata(UNIT, orders={1: 64, 2: 48, 3: 28}) if s.order is None]
    assert len(mc) == len(strata)
    for (n, pw), s in zip(mc, strata):
        # F = 1: the prefactors of a stratum's rows sum to its Poisson weight
        assert n == pw.shape[1] == s.draws(2_000)
        assert np.sum(pw[0]) == pytest.approx(s.weight, rel=1e-12)
    assert min(n for n, _ in mc) < 2_000


def test_band_prefactors_divide_by_the_rows_drawn(monkeypatch):
    # on a wide window the light grid strata draw fewer band samples; with
    # every sample in the band and chi - smooth step = 1, a band batch's
    # prefactors sum to its stratum's Poisson weight
    wide = interval(0.0, 10.0)
    E = SetSpec.level_set(cyl_from_star(SmoothFunction.linear(wide)), 5.0)
    monkeypatch.setattr(bv, "_band_split", lambda E, X: (np.ones(len(X), dtype=bool),
                                                          np.ones(len(X))))
    obj = bv._VariationalObjective([E], batteries.field_family()[:1], wide, seed=3,
                                   n_band=2_000, mc_n=100)
    # the count strata beyond the grid draw the floor, mc_n = 100, each
    band = [(n, pw) for kind, n, pw, _ in obj._stream() if kind == "mc" and n != 100]
    strata = [s for s in Strata(wide, orders=bv._LEVELSET_ORDERS) if s.order is not None]
    assert len(band) == len(strata) == 3
    for (n, pw), s in zip(band, strata):
        assert n == pw.shape[1] == s.draws(2_000)
        assert np.sum(pw[0]) == pytest.approx(s.weight, rel=1e-12)
    assert band[0][0] < 2_000   # k = 1 carries under 1% of the top weight
