import functools
from collections import Counter

import numpy as np
import pytest

from ugmt import batteries, bv, cli, montecarlo
from ugmt.configuration import Configuration, SetSpec, poisson_configurations
from ugmt.cylinder import (CylinderVectorField, cyl_compose, cyl_from_star, const, mul_n,
                           tanh_of)
from ugmt.geometry import DomainError, SmoothFunction, SmoothVectorField, interval
from ugmt.heat import LiftedHeatOperator, lifted_gradient_norm
from ugmt.bv import (_REFINE_STEPS, _SHEET_STREAMS, _THETA_GRID, VariationalLower,
                     _VariationalObjective, _alignment_cosines, _coordinate_ascent,
                     coarea_family, gauss_green_residual, levelset_expectation,
                     perimeter_measure, sobolev_alignment, tv_bracket_battery, tv_relaxation,
                     tv_semigroup, tv_variational, tv_variational_battery)
from ugmt.montecarlo import Strata, poisson_k_cutoff
from ugmt.hausdorff import (CriticalLevelError, rho_m_limit, rho_m_on_box, scaled_box,
                            sheet_integrals, surface_functional)
from ugmt.rng import mean_and_stderr, stream_rng

UNIT = interval(0.0, 1.0)
OP = LiftedHeatOperator(window=UNIT)
HALF = batteries.half_space_set()
E_INV = np.exp(-1.0)


def test_levelset_expectation_halfspace():
    # known value: e^{-1} * integral over (1/2, 1] of h
    def h(k, X):
        return np.ones(X.shape[0])

    val, err = levelset_expectation(HALF, h, UNIT, seed=3)
    assert val == pytest.approx(0.5 * E_INV, abs=3 * err + 1e-4)


def test_tv_semigroup_halfspace_and_constant():
    sg = tv_semigroup(HALF, OP, [0.001, 0.002, 0.004, 0.006])
    assert abs(sg.value - E_INV) <= 5e-3
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    Fc = cyl_compose(lambda r: mul_n(const(0.0), r) + const(2.0), cyl_from_star(f))
    sgc = tv_semigroup(Fc, OP, [0.004, 0.006, 0.01, 0.016])
    assert abs(sgc.value) < 1e-9


def test_tv_semigroup_smooth_recovers_direct():
    F = batteries.tanh_cos_function(0.8)
    sg = tv_semigroup(F, OP, [0.004, 0.006, 0.01, 0.016])
    direct, derr = lifted_gradient_norm(F, None, OP, p=1.0)
    assert abs(sg.value - direct) <= sg.error + derr + 0.01 * direct
    # norms approach the direct value from below as t decreases
    assert all(n <= direct + derr + 1e-9 for n in sg.norms)


def test_tv_variational_zero_and_halfspace():
    fam = batteries.field_family()
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    Fzero = cyl_compose(lambda r: mul_n(const(0.0), r), cyl_from_star(f))
    var0 = tv_variational(Fzero, fam[:2], UNIT, seed=1, iterations=1)
    assert abs(var0.value) <= 3 * var0.error + 1e-6
    var = tv_variational(HALF, fam, UNIT, seed=2)
    assert var.value <= E_INV + 3 * var.error + 1e-3
    assert var.value >= 0.9 * E_INV


class _LoopObjective(_VariationalObjective):
    """The objective as a loop over family members, one theta at a time: the
    reference for the batched algebra (same samples, same weights)."""

    def _basis(self, X):
        m, k, _ = X.shape
        A = len(self.family)
        C = np.ones((A, m))
        Cg = np.zeros((A, m, k))
        Vv = np.zeros((A, m, k))
        Vd = np.zeros((A, m, k))
        Dv = np.zeros((A, m))
        for a, (c, v) in enumerate(self.family):
            comp = v.components[0]
            Vv[a] = comp.value(X)
            Vd[a] = comp.gradient(X)[..., 0]
            Dv[a] = np.sum(Vd[a], axis=-1)
            if not isinstance(c, (int, float)):
                C[a] = c.value(X)
                Cg[a] = c.gradient(X)[..., 0]
            else:
                C[a] = float(c)
        return C, Cg, Vv, Vd, Dv

    def _batch_div(self, th, basis):
        C, Cg, Vv, Vd, Dv = basis
        w_a = th[:, None] * C
        Vt = np.einsum("am,amk->mk", w_a, Vv)
        dVt = np.einsum("am,amk->mk", w_a, Vd)
        Q = np.sum(Vt * Vt, axis=-1)
        D = 1.0 / (1.0 + 0.25 * Q)
        inner_av = np.einsum("mk,amk->am", Vt, Vv)
        gradQ = 2.0 * Vt * dVt \
            + 2.0 * np.einsum("am,amk->mk", th[:, None] * inner_av, Cg)
        gradD = (-0.25) * (D * D)[:, None] * gradQ
        div = np.zeros(Q.shape)
        for a in range(len(self.family)):
            grad_caD = D[:, None] * Cg[a] + C[a][:, None] * gradD
            div += th[a] * (-np.sum(grad_caD * Vv[a], axis=-1) - C[a] * D * Dv[a])
        return div

    @functools.cached_property
    def batches(self):
        return list(self._stream())

    def value(self, theta, i=0):
        th = np.asarray(theta, dtype=float)
        return sum(float(np.sum(pw[i] * self._batch_div(th, basis)))
                   for _, _, pw, basis in self.batches)


W_HALF = interval(0.0, 0.5)
_TANH_BUMP = cyl_compose(lambda r: tanh_of(r),
                         cyl_from_star(SmoothFunction.bump(0.25, 0.2, 1.0, window=W_HALF)))
# constant and cylinder coefficients, even and odd fields
_FAMILY = [
    (1.0, SmoothVectorField((SmoothFunction.bump(0.25, 0.2, 1.0, window=W_HALF),))),
    (_TANH_BUMP, SmoothVectorField((SmoothFunction.coordinate_bump(0.25, 0.22, 1.0,
                                                                   window=W_HALF),))),
    (0.5, SmoothVectorField((SmoothFunction.coordinate_bump(0.25, 0.15, 1.0,
                                                            window=W_HALF),))),
    (batteries.count_selector(2, window=W_HALF),
     SmoothVectorField((SmoothFunction.bump(0.3, 0.18, 0.8, window=W_HALF),))),
]
_SLOPE = cyl_compose(lambda r: mul_n(const(0.8), r), cyl_from_star(SmoothFunction.linear(W_HALF)))
# one particle in the right half of W_HALF
_HALF_OF_W = SetSpec.level_set(cyl_from_star(SmoothFunction.linear(W_HALF)), 0.25,
                               count_equals=1)
# the members one objective serves: cylinder functions share one, a level set has its own
_OBJECTIVE_CASES = {
    "cylinder": [_TANH_BUMP, _SLOPE],
    "level-set": [SetSpec.level_set(cyl_from_star(SmoothFunction.linear(W_HALF)), 0.3)],
}


_STEPS = (-4.0, -0.6, 0.0, 0.3, 1.0, 4.0)


@pytest.mark.parametrize("name", sorted(_OBJECTIVE_CASES))
def test_objective_matches_member_loop(name):
    # the line form theta + d e_a against the loop at every trial theta, for
    # every coordinate (constant coefficients at a = 0, 2, cylinder ones at 1, 3)
    Fs = _OBJECTIVE_CASES[name]
    kw = dict(seed=11, n_band=2_000, mc_n=1_000)
    obj = _VariationalObjective(Fs, _FAMILY, W_HALF, **kw)
    ref = _LoopObjective(Fs, _FAMILY, W_HALF, **kw)
    thetas = np.random.default_rng(5).uniform(-3.0, 3.0, size=(4, len(_FAMILY)))
    thetas[0] = 0.0
    thetas[1, [0, 2]] = 0.0   # cylinder coefficients only
    thetas[2, [1, 3]] = 0.0   # constant coefficients only
    for i in range(len(Fs)):
        lines = []   # (theta, a, loop values)
        for theta in thetas:
            for a in range(len(_FAMILY)):
                trials = np.tile(theta, (len(_STEPS), 1))
                trials[:, a] += _STEPS
                lines.append((theta, a, trials, [ref.value(trial, i) for trial in trials]))
        # rounding is relative to the objective's scale: a line whose values
        # cancel to nearly zero (theta = 0) keeps only that absolute accuracy
        tol = dict(rtol=1e-12, atol=1e-12 * max(np.max(np.abs(w)) for *_, w in lines))
        for theta, a, trials, want in lines:
            got = obj.value(theta, i, a, _STEPS)
            assert got.shape == (len(_STEPS),)
            np.testing.assert_allclose(got, want, **tol)
            # the same line from another point of it
            np.testing.assert_allclose(obj.value(trials[-1], i, a, np.subtract(_STEPS, _STEPS[-1])),
                                       got, **tol)


@pytest.mark.parametrize("name", sorted(_OBJECTIVE_CASES))
def test_search_picks_the_brute_force_theta(name):
    Fs = _OBJECTIVE_CASES[name]
    kw = dict(seed=11, n_band=2_000, mc_n=1_000)
    obj = _VariationalObjective(Fs, _FAMILY, W_HALF, **kw)
    ref = _LoopObjective(Fs, _FAMILY, W_HALF, **kw)
    for i in range(len(Fs)):
        theta = np.zeros(len(_FAMILY))
        for steps in (_THETA_GRID, _REFINE_STEPS):
            for a in range(len(theta)):
                rows = np.tile(theta, (len(steps), 1))
                rows[:, a] += steps
                theta = rows[int(np.argmax([ref.value(row, i) for row in rows]))]
        assert np.array_equal(_coordinate_ascent(obj, i, 2), theta)


@pytest.mark.parametrize("name", sorted(_OBJECTIVE_CASES))
def test_search_state_matches_fresh_lines(name, monkeypatch):
    # every line the search scores on its carried state, against the same
    # line from a second objective that carries no search, so its state is
    # built at theta; the chosen steps are the fresh line's
    Fs = _OBJECTIVE_CASES[name]
    obj = _VariationalObjective(Fs, _FAMILY, W_HALF, seed=11, n_band=2_000, mc_n=1_000)
    fresh = _VariationalObjective(Fs, _FAMILY, W_HALF, seed=11, n_band=2_000, mc_n=1_000)
    lines, built = [], []
    value, state = _VariationalObjective.value, _VariationalObjective._state

    def recording_value(self, theta, i, a, steps):
        got = value(self, theta, i, a, steps)
        lines.append((np.array(theta), i, a, steps, got))
        return got

    def counting_state(self, theta, basis):
        built.append(theta.copy())
        return state(self, theta, basis)

    monkeypatch.setattr(_VariationalObjective, "value", recording_value)
    monkeypatch.setattr(_VariationalObjective, "_state", counting_state)
    thetas = [_coordinate_ascent(obj, i, 2) for i in range(len(Fs))]
    monkeypatch.undo()
    # one state per batch and member, built at the member's start
    assert len(built) == len(Fs) * len(obj.batches)
    assert not any(np.any(th) for th in built)
    replay = [np.zeros(len(_FAMILY)) for _ in Fs]
    moved = 0
    for theta, i, a, steps, got in lines:
        assert np.array_equal(theta, replay[i])
        want = fresh.value(theta, i, a, steps)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
        d = steps[int(np.argmax(want))]
        assert d == steps[int(np.argmax(got))]
        replay[i][a] += d
        moved += d != 0.0
    assert moved >= 4   # the states were advanced, not only rebuilt
    for theta, want in zip(thetas, replay):
        assert np.array_equal(theta, want)


@pytest.mark.parametrize("name", sorted(_OBJECTIVE_CASES))
def test_search_holds_one_state_at_a_time(name):
    # the search adds at most two states of one member to the kept batches:
    # one member's state is alive at a time, advanced in place
    import tracemalloc

    Fs = _OBJECTIVE_CASES[name]
    obj = _VariationalObjective(Fs, _FAMILY, W_HALF, seed=11, n_band=2_000, mc_n=1_000)
    zero = np.zeros(len(_FAMILY))
    tracemalloc.start()
    try:
        kept = sum(arr.nbytes for _, _, pw, basis in obj.batches
                   for arr in (pw, *basis) if arr is not None)
        state = sum(arr.nbytes for *_, basis in obj.batches for arr in obj._state(zero, basis))
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        for i in range(len(Fs)):
            _coordinate_ascent(obj, i, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert before >= kept
    assert peak - before <= 2 * state, f"{(peak - before) / state:.2f} states"


def test_basis_evaluates_each_inner_function_once(monkeypatch):
    # the three count selectors' counters are equal, and a coefficient's stars
    # serve its value and its gradient
    fam = batteries.field_family()
    obj = _VariationalObjective([HALF], fam, UNIT, seed=1, n_band=100, mc_n=100)
    X = np.random.default_rng(3).uniform(0.0, 1.0, size=(50, 3, 1))
    C, Cg, Vv, Vd, _ = _LoopObjective([HALF], fam, UNIT, seed=1, n_band=100,
                                      mc_n=100)._basis(X)
    calls = Counter()
    value, gradient = SmoothFunction.value, SmoothFunction.gradient

    def counted(name, fn):
        def wrapper(self, x):
            calls[name] += 1
            return fn(self, x)
        return wrapper

    monkeypatch.setattr(SmoothFunction, "value", counted("value", value))
    monkeypatch.setattr(SmoothFunction, "gradient", counted("gradient", gradient))
    CVv, CVd, S, VCg, contractions = obj._basis(X)
    assert calls == {"value": 7, "gradient": 7}
    # bit for bit the member-by-member evaluation
    cyl = obj._cyl
    expect_S = C * np.sum(Vd, axis=-1)
    expect_S[cyl] += np.sum(Vv[cyl] * Cg[cyl], axis=-1)
    np.testing.assert_array_equal(CVv, Vv * C[..., None])
    np.testing.assert_array_equal(CVd, Vd * C[..., None])
    np.testing.assert_array_equal(S, expect_S)
    np.testing.assert_array_equal(VCg, np.concatenate((Vv[cyl], Cg[cyl])))
    assert contractions is None


@pytest.mark.parametrize("name", sorted(_OBJECTIVE_CASES))
def test_objective_final_estimate_streams(name):
    Fs = _OBJECTIVE_CASES[name]
    thetas = np.array([[0.7, -0.4, 1.3, 0.9], [-1.1, 0.5, 0.2, -0.6]])[:len(Fs)]
    obj = _VariationalObjective(Fs, _FAMILY, W_HALF, seed=11, n_band=2_000, mc_n=1_000)
    got = obj.value_with_error(thetas)
    assert "batches" not in vars(obj)   # streamed: no basis kept
    assert len(got) == len(Fs)
    ref = _LoopObjective(Fs, _FAMILY, W_HALF, seed=11, n_band=2_000, mc_n=1_000)
    for i, th in enumerate(thetas):
        total, err_sq = 0.0, 0.0
        for kind, n, pw, basis in ref.batches:
            contrib = pw[i] * ref._batch_div(th, basis)
            total += float(np.sum(contrib))
            if kind == "mc":
                _, se = mean_and_stderr(np.pad(contrib, (0, n - contrib.size)) * n)
                err_sq += se * se
        assert got[i][0] == pytest.approx(total, rel=1e-12)
        assert got[i][1] == pytest.approx(np.sqrt(err_sq), rel=1e-12)
        # the kept search batches score the same theta within rounding
        assert obj.value(th, i, 0, (0.0,))[0] == pytest.approx(total, rel=1e-12)


def test_level_set_needs_its_own_objective():
    with pytest.raises(DomainError):
        _VariationalObjective([_HALF_OF_W, _TANH_BUMP], _FAMILY, W_HALF, seed=1, n_band=100,
                              mc_n=100)


_BATTERY = {"tanh-bump": _TANH_BUMP, "half": _HALF_OF_W, "slope": _SLOPE}


def test_variational_battery_equals_member_calls():
    together = tv_variational_battery(_BATTERY, _FAMILY, W_HALF, seed=5)
    assert list(together) == list(_BATTERY)
    for name, F in _BATTERY.items():
        alone = tv_variational(F, _FAMILY, W_HALF, seed=5)
        got = together[name]
        assert (got.value, got.error, got.theta) == (alone.value, alone.error, alone.theta), name
        assert got.value > 0.0 and any(got.theta)


def test_variational_battery_builds_each_basis_once(monkeypatch):
    built, batches = {}, {}
    basis, stream = _VariationalObjective._basis, _VariationalObjective._stream

    # keyed by seed: the search objective is dropped before the final one is made
    def counting_basis(self, X):
        built[self.seed] = built.get(self.seed, 0) + 1
        return basis(self, X)

    def counting_stream(self):
        for batch in stream(self):
            batches[self.seed] = batches.get(self.seed, 0) + 1
            yield batch

    monkeypatch.setattr(_VariationalObjective, "_basis", counting_basis)
    monkeypatch.setattr(_VariationalObjective, "_stream", counting_stream)
    cylinders = {"tanh-bump": _TANH_BUMP, "slope": _SLOPE}
    tv_variational_battery(cylinders, _FAMILY, W_HALF, seed=5, iterations=1)
    # one search and one final objective, each building one basis per batch,
    # that is one per stratum, for both members
    n_strata = len(list(Strata(W_HALF)))
    assert built == batches == {5: n_strata, 5 + 7919: n_strata}


def test_tv_relaxation_smooth_and_indicator():
    F = batteries.tanh_cos_function(0.8)
    rel = tv_relaxation(F, OP, [0.004, 0.008])
    direct, derr = lifted_gradient_norm(F, None, OP, p=1.0)
    assert (rel.value, rel.error, rel.smoothing_gap) == (direct, derr, 0.0)
    assert rel.value <= direct * (1 + 1e-3) + 1e-9
    assert rel.value >= direct * (1 - 1e-3)
    relE = tv_relaxation(HALF, OP, [0.002, 0.004, 0.008])
    assert E_INV - 5e-3 <= relE.value + relE.smoothing_gap <= E_INV * 1.05


def test_bracket_halfspace():
    fam = batteries.field_family()
    br = tv_bracket_battery({"F": (HALF, [0.001, 0.002, 0.004, 0.006], [0.002, 0.004])},
                            OP, fam, seed=4)["F"]
    assert br.consistent()
    assert br.relative_width() <= 0.15


def test_perimeter_halfspace_and_full_space():
    pm = perimeter_measure(HALF, UNIT, seed=5)
    assert pm.total == pytest.approx(E_INV, abs=1e-3)
    # the whole space has empty reduced boundary
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    Ffull = cyl_compose(lambda r: mul_n(const(0.0), r) + const(1.0), cyl_from_star(f))
    full = SetSpec.level_set(Ffull, 0.5)
    pm0 = perimeter_measure(full, UNIT, seed=6, n_samples=5000)
    assert pm0.total == pytest.approx(0.0, abs=1e-9)


def test_perimeter_monotone_in_r():
    boxes = [scaled_box(0.5, r, 1) for r in (0.4, 0.7, 1.0)]
    pm = perimeter_measure(HALF, UNIT, seed=7, n_samples=20_000)
    # De Giorgi: the localized perimeter is the localized rho_1 of the boundary sheet
    res = rho_m_limit(HALF.boundary_sheet(), 1, boxes, seed=7, n_samples=20_000)
    assert res.monotone
    assert res.limit == pytest.approx(pm.total, abs=3 * res.limit_err + 1e-3)


def test_de_giorgi_identity_small():
    E2 = batteries.stack_set()
    pm = perimeter_measure(E2, UNIT, n_samples=60_000, seed=21)
    r1 = rho_m_on_box(E2.boundary_sheet(), 1, UNIT, n_samples=60_000, seed=77)
    comb = np.sqrt(pm.total_err**2 + r1.total_err**2)
    assert abs(pm.total - r1.total) <= 3 * comb + 1e-3


def test_gauss_green_zero_field_and_pair():
    zero = CylinderVectorField(((0.0, SmoothVectorField(
        (SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT),)),),))
    rep0 = gauss_green_residual(HALF, zero, UNIT, seed=8, n_samples=5000)
    assert rep0.residual <= 1e-12
    V = batteries.gg_fields()[0]
    rep = gauss_green_residual(HALF, V, UNIT, seed=9)
    assert rep.passed()
    # |sigma| = 1: the normal pairing is dominated by the plain measure
    pm = perimeter_measure(HALF, UNIT, seed=10)
    vmax = 0.7  # amplitude of the battery bump field
    assert abs(rep.rhs) <= vmax * pm.total * (1 + 1e-6) + 3 * rep.rhs_err


def test_coarea_constant_and_smooth():
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    Fc = cyl_compose(lambda r: mul_n(const(0.0), r) + const(1.0), cyl_from_star(f))
    rep = coarea_family({"F": (Fc, [0.2, 0.4, 0.6, 0.8])}, {"G": 1.0}, UNIT, seed=11,
                        n_samples=4000)["F"]["G"]
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)
    assert rep.rhs == pytest.approx(0.0, abs=1e-9)

    a = 0.35
    F = batteries.tanh_sum_function(a)
    us = np.concatenate([np.linspace(0.02, 2.0, 12), np.linspace(2.4, 6.0, 5)])
    rep2 = coarea_family({"F": (F, np.tanh(a * us))}, {"G": 1.0}, UNIT, seed=12,
                         n_samples=30_000)["F"]["G"]
    assert rep2.deviation < 0.05
    assert rep2.gap_fraction <= 0.1


def test_coarea_numeric_G_scales_both_sides():
    F = cyl_compose(lambda r: tanh_of(r), cyl_from_star(
        SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)))
    ts = [0.2, 0.4, 0.6]
    one = coarea_family({"F": (F, ts)}, {"G": 1.0}, UNIT, seed=11, n_samples=2_000)["F"]["G"]
    two = coarea_family({"F": (F, ts)}, {"G": 2.0}, UNIT, seed=11, n_samples=2_000)["F"]["G"]
    assert one.lhs > 0.0 and one.rhs > 0.0
    assert (two.lhs, two.rhs) == (2.0 * one.lhs, 2.0 * one.rhs)
    assert (two.lhs_err, two.rhs_err) == (2.0 * one.lhs_err, 2.0 * one.rhs_err)


def _reference_cosines(F, V, window, seed):
    """The alignment loop, one Configuration at a time."""
    counts, points = poisson_configurations(window, stream_rng(seed, 77), 400)
    cosines = []
    for pts in np.split(points, np.cumsum(counts)[:-1]):
        gamma = Configuration(window=window, points=pts)
        g = F.gradient(gamma)
        gn = float(np.sqrt(np.sum(g * g)))
        if gn <= 0.1:
            continue
        wv = V.at_particles(gamma)
        wn = float(np.sqrt(np.sum(wv * wv)))
        if wn < 1e-12:
            continue
        cosines.append(float(np.sum(g * wv)) / (gn * wn))
    return cosines


@pytest.mark.parametrize("seed", [3, 61, 20240901])
def test_alignment_cosines_equal_configuration_loop(seed):
    window = interval(0.0, 3.0)  # counts up to 12 particles, past numpy's blocks of 8
    F = batteries.tanh_sum_function(0.35)
    coeff = cyl_compose(lambda r: tanh_of(r), cyl_from_star(
        SmoothFunction.bump(1.5, 0.9, 1.0, window=window)))
    V = CylinderVectorField((
        (1.0, SmoothVectorField((SmoothFunction.coordinate_bump(1.4, 1.2, 0.8, window=window),))),
        (coeff, SmoothVectorField((SmoothFunction.bump(1.6, 1.3, -0.6, window=window),)))))
    got = _alignment_cosines(F, V, window, seed)
    ref = _reference_cosines(F, V, window, seed)
    assert len(ref) > 150 and got.tobytes() == np.array(ref).tobytes()


class _Normalized:
    """W = V / (1 + |V|^2_T / 4) at each configuration, the field whose
    divergence the variational objective integrates."""

    def __init__(self, V):
        self.V = V

    def at_particles(self, gamma):
        v = self.V.at_particles(gamma)
        return v / (1.0 + np.sum(v * v) / 4.0)


def test_sobolev_alignment_scores_the_searched_field(monkeypatch):
    # the alignment reads V_theta = sum_a theta_a c_a v_a at the searched
    # theta; W is a positive multiple of it, so the cosines agree with W's
    family = batteries.field_family()
    theta = (1.0, -0.5, 2.0, 0.0, 0.5, 0.15, -0.3, 0.6)
    monkeypatch.setattr(bv, "tv_variational", lambda F, fam, window, seed:
                        VariationalLower(value=0.0, error=0.0, theta=theta))
    F = batteries.tanh_sum_function(0.35)
    V = CylinderVectorField(tuple(
        (s * c if isinstance(c, float) else cyl_compose(lambda r, s=s: mul_n(const(s), r), c), v)
        for s, (c, v) in zip(theta, family)))
    cosines = _alignment_cosines(F, V, UNIT, 20240901)
    assert sobolev_alignment(F, family, UNIT, seed=20240901) == mean_and_stderr(cosines)
    assert len(cosines) > 150
    np.testing.assert_allclose(_reference_cosines(F, _Normalized(V), UNIT, 20240901), cosines,
                               rtol=0.0, atol=1e-12)


def test_sobolev_consistency_density():
    # the density half of |DF| = |grad F| pi is the coarea check
    F = batteries.tanh_sum_function(0.35)
    us = np.concatenate([np.linspace(0.02, 2.0, 12), np.linspace(2.4, 6.0, 5)])
    G = {"unit": 1.0}
    rep = coarea_family({"F": (F, np.tanh(0.35 * us))}, G, UNIT, seed=13, n_samples=30_000)
    assert rep["F"]["unit"].deviation < 0.05


def _surface_weights():
    G = cyl_compose(lambda r: tanh_of(r), cyl_from_star(
        SmoothFunction.bump(0.4, 0.3, 1.0, window=UNIT)))
    V = batteries.gg_fields()[0]
    return {
        "surface": None,
        "G": lambda X, grad, gn: G.value(X) * gn,
        "normal": lambda X, grad, gn: np.sum(V.at_particles(X) * grad, axis=(-2, -1)),
    }


@pytest.mark.parametrize("case", ["quadrature-and-mc", "fallback"])
def test_sheet_integrals_match_weight_by_weight(case):
    # strata 1 and 2 take the quadrature route, 3 and 4 the Monte Carlo one;
    # on the plateau the wide profile meets the flat top, so every quadrature
    # stratum falls back to Monte Carlo
    if case == "fallback":
        top = SmoothFunction.plateau(interval(0.3, 0.7), 0.02, window=UNIT)
        E = SetSpec.level_set(cyl_from_star(top), 0.97)
    else:
        E = HALF
    weights = _surface_weights()

    def run(battery):
        return sheet_integrals(E.function, E.level, battery, UNIT, streams=_SHEET_STREAMS,
                               eps=0.01, n_samples=2_000, seed=3, K_max=4)

    together = run(weights)
    for name, weight in weights.items():
        assert together[name] == run({name: weight})[name], name
    if case == "fallback":
        g = E.function
        with pytest.raises(CriticalLevelError):
            surface_functional(g, 0.97, weights, UNIT, 1, eps=0.01, quad_order=192)


def test_coarea_family_matches_G_by_G():
    F = cyl_compose(lambda r: tanh_of(r), cyl_from_star(
        SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)))
    G_bump = cyl_compose(lambda r: mul_n(const(0.5), tanh_of(r)) + const(0.6), cyl_from_star(
        SmoothFunction.bump(0.45, 0.3, 1.0, window=UNIT)))
    battery = {"unit": 1.0, "two": 2.0, "bump": G_bump}
    # tanh(1) is a critical level: the k = 1 sheet passes the bump's peak
    ts = [0.2, 0.5, float(np.tanh(1.0)), 0.9]
    reps = coarea_family({"F": (F, ts)}, battery, UNIT, seed=11, n_samples=2_000)["F"]
    assert list(reps) == list(battery)
    assert reps["unit"].gap_fraction == 0.25
    for name, G in battery.items():
        one = coarea_family({"F": (F, ts)}, {"G": G}, UNIT, seed=11, n_samples=2_000)["F"]["G"]
        assert repr(reps[name]) == repr(one), name  # repr: nan != nan in per_t


def _coarea_members():
    bump_F = cyl_compose(lambda r: tanh_of(r), cyl_from_star(
        SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)))
    # tanh(1) is a critical level of bump_F only: its k = 1 sheet passes the peak
    return {"bump": (bump_F, [0.2, 0.5, float(np.tanh(1.0)), 0.9]),
            "tanh-sum-035": (batteries.tanh_sum_function(0.35),
                             np.tanh(0.35 * np.array([0.1, 0.6, 1.2, 2.0]))),
            "tanh-sum-050": (batteries.tanh_sum_function(0.50),
                             np.tanh(0.50 * np.array([0.1, 0.7, 1.4])))}


def _spy_draws(monkeypatch):
    """Record (window, k, n, stream key, memo size) for every bulk draw."""
    draws = []
    real = montecarlo._box_tuples

    def spy(rng, window, k, n):
        key = tuple(int(v) for v in rng.bit_generator.state["state"]["key"])
        memo = montecarlo._SHARED_DRAWS.get()
        draws.append(((window, k, n, key), None if memo is None else len(memo)))
        return real(rng, window, k, n)

    monkeypatch.setattr(montecarlo, "_box_tuples", spy)
    return draws


def _spy_whole_values(monkeypatch):
    """Record (scope memo, f, tuples) for every SmoothFunction.value call on a
    whole draw or grid (read-only tuples) inside a shared_draws scope."""
    calls = []
    real = SmoothFunction.value

    def spy(self, points):
        memo = montecarlo.scope_memo()
        if memo is not None and getattr(points, "ndim", 0) == 3 and not points.flags.writeable:
            calls.append((memo, self, points))
        return real(self, points)

    monkeypatch.setattr(SmoothFunction, "value", spy)
    return calls


def test_coarea_family_equals_member_calls_and_draws_once(monkeypatch):
    members = _coarea_members()
    G_bump = cyl_compose(lambda r: mul_n(const(0.5), tanh_of(r)) + const(0.6), cyl_from_star(
        SmoothFunction.bump(0.45, 0.3, 1.0, window=UNIT)))
    battery = {"unit": 1.0, "bump": G_bump}
    draws = _spy_draws(monkeypatch)
    values = _spy_whole_values(monkeypatch)
    alone = {name: coarea_family({name: (F, ts)}, battery, UNIT, seed=11,
                                 n_samples=2_000)[name]
             for name, (F, ts) in members.items()}
    separate, draws[:] = list(draws), []
    separate_values, values[:] = list(values), []
    family = coarea_family(members, battery, UNIT, seed=11, n_samples=2_000)
    # no memo outlives the call
    assert montecarlo._SHARED_DRAWS.get() is None and montecarlo.scope_memo() is None
    # the two tanh-sum members have equal linear inners: on every whole draw
    # or grid, each inner is evaluated once per (level index, stratum)
    linear = members["tanh-sum-035"][0].inners[0]
    assert linear == members["tanh-sum-050"][0].inners[0]
    assert len({id(memo) for memo, _, _ in values}) == 4  # one scope per level index
    evaluated = [(id(memo), f, id(X)) for memo, f, X in values]
    assert len(set(evaluated)) == len(evaluated)
    K = poisson_k_cutoff(UNIT.volume)
    assert sum(f == linear for _, f, _ in values) == 4 * K
    assert sum(f == linear for _, f, _ in separate_values) == (4 + 3) * K
    assert list(family) == list(members)
    for name in members:
        assert list(family[name]) == list(battery)
        for gname in battery:
            assert repr(family[name][gname]) == repr(alone[name][gname]), (name, gname)
    assert [alone[name]["unit"].gap_fraction for name in members] == [0.25, 0.0, 0.0]
    # each (window, k, n, seed, stream) is drawn once for the whole family,
    # where the member calls draw most keys once per member (131 draws of 51
    # keys: the bump member stops at its critical level, and tanh-sum-050 has
    # one level less)
    keys = [key for key, _ in draws]
    assert len(set(keys)) == len(keys) and set(keys) == {key for key, _ in separate}
    assert len(separate) > 2.5 * len(keys)
    # a scope holds one level index's strata only
    assert max(size for _, size in draws if size is not None) < poisson_k_cutoff(UNIT.volume)


def test_suite_integrands_are_symmetric_in_the_particles(monkeypatch):
    # grid strata integrate on node multisets, so the surface weights and the
    # h functions the suites hand to the stratum rules must not depend on the
    # order of the particles
    from collections import defaultdict

    weights, hs = [], []

    def sheets(g, level, ws, window, **kwargs):
        weights.extend((g, w) for w in ws.values() if w is not None)
        return {name: montecarlo.StratifiedSum(0.0, 0.0, {}) for name in ws}

    def levelset(E, h, window, **kwargs):
        hs.append(h)
        return 0.0, 0.0

    def stratified(Hk, window, **kwargs):
        hs.append(Hk)
        return defaultdict(lambda: (0.0, 0.0))

    monkeypatch.setattr(bv, "sheet_integrals", sheets)
    monkeypatch.setattr(bv, "levelset_expectation", levelset)
    monkeypatch.setattr(bv, "poisson_stratified_battery", stratified)
    for _, E in cli._degiorgi_sets():
        for V in batteries.gg_fields():
            gauss_green_residual(E, V, UNIT)
    coarea_family(batteries.tanh_sum_members(np.array([0.5, 1.5])),
                  batteries.coarea_weights(), UNIT)
    # 9 gauss-green weights and left sides; coarea's 2 G by 3 members by 2
    # levels, and its one right side
    assert len(weights) == 9 + 12 and len(hs) == 9 + 1

    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert np.max(np.abs(a - b)) <= 1e-13 * max(np.max(np.abs(a)), 1e-300)

    for k in (1, 2, 3, 5):
        X = montecarlo.uniform_tuples(UNIT, k, 400, seed=21, stream=k)
        Xp = X[:, np.roll(np.arange(k), 1)]
        for g, weight in weights:
            grads = [g.gradient(Y) for Y in (X, Xp)]
            same(*[weight(Y, G, np.sqrt(np.sum(G * G, axis=(-2, -1))))
                   for Y, G in zip((X, Xp), grads)])
        for h in hs:
            a, b = h(k, X), h(k, Xp)
            if not isinstance(a, dict):
                a, b = {"": a}, {"": b}
            for name in a:
                same(a[name], b[name])


def _fresh_line(obj, theta, state, a, basis):
    """``_line`` on a kept batch with q2 = sum U^2 and t3 = sum U^2 U'
    contracted afresh from U on every call."""
    CVv, CVd, _, _, UVCg = basis
    cyl = obj._cyl
    Vt, dVt, pair = state[:3]
    U, dU = CVv[a], CVd[a]
    (P, R), (p, r) = np.split(pair, 2), np.split(UVCg[a], 2)
    VtU, UU = Vt * U, U * U
    q1 = 2.0 * np.einsum("mk->m", VtU)
    q2 = np.einsum("mk->m", UU)
    t1 = 2.0 * np.einsum("mk,mk->m", VtU, dVt) + np.einsum("mk,mk,mk->m", Vt, Vt, dU) \
        + theta[cyl] @ (P * r + p * R)
    t2 = np.einsum("mk,mk->m", UU, dVt) + 2.0 * np.einsum("mk,mk->m", VtU, dU) \
        + theta[cyl] @ (p * r)
    t3 = np.einsum("mk,mk->m", UU, dU)
    if a in cyl:
        j = cyl.index(a)
        t1 += P[j] * R[j]
        t2 += P[j] * r[j] + p[j] * R[j]
        t3 += p[j] * r[j]
    return q1, q2, t1, t2, t3


@pytest.mark.parametrize("name", sorted(_OBJECTIVE_CASES))
def test_kept_line_coefficients_equal_fresh_ones(name, monkeypatch):
    Fs = _OBJECTIVE_CASES[name]
    obj = _VariationalObjective(Fs, _FAMILY, W_HALF, seed=11, n_band=2_000, mc_n=1_000)
    kept = [basis[3].copy() for *_, basis in obj.batches]
    theta = np.random.default_rng(9).uniform(-2.0, 2.0, size=len(_FAMILY))
    for *_, basis in obj.batches:
        state = obj._state(theta, basis)
        for a in range(len(_FAMILY)):
            got = obj._line(theta, state, a, basis)
            for x, y in zip(got, _fresh_line(obj, theta, state, a, basis)):
                assert x.tobytes() == y.tobytes()
    # scoring lines leaves the kept coefficients as they were built
    for want, (*_, basis) in zip(kept, obj.batches):
        assert want.tobytes() == basis[3].tobytes()
    thetas = [_coordinate_ascent(obj, i, 2) for i in range(len(Fs))]
    fresh = _VariationalObjective(Fs, _FAMILY, W_HALF, seed=11, n_band=2_000, mc_n=1_000)
    monkeypatch.setattr(_VariationalObjective, "_line", _fresh_line)
    for i, theta in enumerate(thetas):
        assert np.array_equal(_coordinate_ascent(fresh, i, 2), theta)
