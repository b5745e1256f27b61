"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated at runtime.
"""

import itertools
import json
import time
from dataclasses import replace

import numpy as np

from ugmt import batteries
from ugmt.cli import SuiteConfig, laplace_target, run_suite
from ugmt.configuration import poisson_configurations
from ugmt.cylinder import cyl_compose, cyl_from_star, smoothstep, tanh_of
from ugmt.geometry import BoxDomain, SmoothFunction, interval
from ugmt.heat import (BesselOperator, LiftedHeatOperator, _eval_on_grid, bakry_emery_battery,
                       capacity_upper_bound, check_intertwining, lifted_gradient_norm,
                       regularization_slope)
from ugmt.hausdorff import rho_m_limit, rho_m_localized, rho_m_on_box, scaled_box
from ugmt.montecarlo import MCPlan, integrate_battery
from ugmt.productspace import stratum_indicator
from ugmt.rng import mean_and_stderr, stream_rng
from ugmt.bv import (coarea_family, gauss_green_residual, perimeter_measure,
                     sobolev_alignment, tv_bracket_battery, tv_semigroup)

UNIT = interval(0.0, 1.0)
E_INV = float(np.exp(-1.0))


def emit(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {name}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_laplace_functional():
    t0 = time.time()
    worst = 0.0
    for fams, window in ((batteries.bump_family_1d(), batteries.UNIT),
                         (batteries.bump_family_2d(), batteries.UNIT2)):
        plan = MCPlan(n_samples=100_000, seed=11, window=window)
        # exp of the linear statistic, on every k-particle stack of one draw of the plan
        battery = {i: lambda k, X, f=f: np.exp(np.sum(f.value(X), axis=-1))
                   for i, f in enumerate(fams)}
        case0 = time.time()
        ests = integrate_battery(battery, plan)
        assert time.time() - case0 < 10.0
        for f, est in zip(fams, ests.values()):
            target = laplace_target(f)
            dev = abs(est.mean - target) / (3 * est.std_err)
            worst = max(worst, dev)
            assert est.within(target, 3.0)
    emit(1, "Laplace functional vs quadrature", worst <= 1.0,
         f"worst |dev|/3sigma = {worst:.2f}, {time.time()-t0:.1f}s")


def _nested_estimate(F, split, plan, inner=32):
    """(mean, std_err) of the nested Poisson integral over a window partition.

    Each of max(n / inner, 100) outer patterns zeta on N (stream (seed, 1))
    is merged with ``inner`` inner patterns xi on M (stream (seed, 2)), each
    stream drawn in order by one bulk draw, and F is averaged over the merged patterns; the standard
    error is taken across outer samples, so it covers the inner noise as
    well.  F is evaluated on the merged tuples, batched by particle count.
    """
    M, N = split
    n_outer = max(plan.n_samples // inner, 100)

    def patterns(window, stream, m):
        counts, pts = poisson_configurations(window, stream_rng(plan.seed, stream), m)
        return np.split(pts, np.cumsum(counts)[:-1])

    outer, xis = patterns(N, 1, n_outer), patterns(M, 2, n_outer * inner)
    merged = [np.vstack([outer[i // inner], xi]) for i, xi in enumerate(xis)]
    counts = np.array([pts.shape[0] for pts in merged])
    values = np.empty(len(merged))
    for k in np.unique(counts):
        idx = np.flatnonzero(counts == k)
        values[idx] = F.value(np.stack([merged[i] for i in idx]))
    return mean_and_stderr(values.reshape(n_outer, inner).sum(axis=1) / inner)


def test_03_disintegration():
    t0 = time.time()
    rng = np.random.default_rng(4)
    plan = MCPlan(n_samples=20_000, seed=23, window=UNIT)
    M, N = interval(0.0, 0.55), interval(0.55, 1.0)
    fails = 0
    for i in range(10):
        f = SmoothFunction.bump(rng.uniform(0.3, 0.7), rng.uniform(0.2, 0.3), 1.0,
                                window=UNIT)
        F = cyl_compose(lambda r: tanh_of(r), cyl_from_star(f))
        direct = integrate_battery({"F": lambda k, X: F.value(X)},
                                   replace(plan, seed=100 + i))["F"]
        nested_mean, nested_err = _nested_estimate(F, (M, N), replace(plan, seed=200 + i))
        comb = np.sqrt(direct.std_err**2 + nested_err**2)
        if abs(direct.mean - nested_mean) > 3 * comb:
            fails += 1
    el = time.time() - t0
    emit(3, "nested vs direct Poisson integrals", fails == 0 and el < 30.0,
         f"fails={fails}/10, {el:.1f}s")


def test_04_rho0_equals_pi():
    t0 = time.time()
    plan = MCPlan(n_samples=30_000, seed=9, window=UNIT)
    sets = batteries.rho0_sets()
    probabilities = integrate_battery(
        {name: lambda k, X, A=A: stratum_indicator(A, k, X) for name, A in sets.items()},
        plan)
    fails = 0
    for name, A in sets.items():
        res = rho_m_on_box(A, 0, UNIT, seed=41)
        direct = probabilities[name]
        comb = 3 * (direct.std_err + res.total_err) + 1e-6
        if abs(res.total - direct.mean) > comb:
            fails += 1
    el = time.time() - t0
    emit(4, "codimension-0 measure equals the Poisson probability",
         fails == 0 and el < 30.0, f"fails={fails}/5, {el:.1f}s")


def test_05_half_space_perimeter():
    t0 = time.time()
    E = batteries.half_space_set()
    pm = perimeter_measure(E, UNIT, n_samples=100_000, seed=3)
    sg = tv_semigroup(E, LiftedHeatOperator(window=UNIT),
                      [0.001, 0.002, 0.004, 0.006])
    ok_oracle = abs(pm.total - E_INV) < 1e-3
    ok_sg = abs(sg.value - E_INV) < 5e-3
    el = time.time() - t0
    emit(5, "half-space perimeter equals e^{-1}",
         ok_oracle and ok_sg and el < 60.0,
         f"oracle diff {abs(pm.total-E_INV):.1e}, semigroup diff {abs(sg.value-E_INV):.1e}, {el:.1f}s")


def test_06_monotone_localization():
    t0 = time.time()
    boxes = [scaled_box(0.0, r, 1) for r in (1.0, 1.5, 2.0, 3.0)]
    mono_fail = const_fail = 0
    for name, spec in batteries.monotone_sheets().items():
        res = rho_m_limit(spec, 1, boxes, seed=7, n_samples=6000, n_eta=48)
        mono_fail += not res.monotone
        const_fail += res.saturated is False
    el = time.time() - t0
    emit(6, "localized measures nondecreasing and saturating",
         mono_fail == 0 and const_fail == 0 and el < 120.0,
         f"mono fails={mono_fail}, const fails={const_fail}, {el:.1f}s")


def test_07_exhaustion_independence():
    t0 = time.time()
    outer = batteries.MONO_WINDOW
    fails = 0
    picked = list(batteries.monotone_sheets().items())[:3]
    mid_box = BoxDomain((-0.7,), (0.55,))  # between the centered 1- and 2-boxes
    for name, spec in picked:
        lo = rho_m_localized(spec, 1, scaled_box(0.0, 1.0, 1), outer, seed=13,
                             n_samples=6000, n_eta=48)
        mid = rho_m_localized(spec, 1, mid_box, outer, seed=13,
                              n_samples=6000, n_eta=48)
        hi = rho_m_localized(spec, 1, scaled_box(0.0, 2.0, 1), outer, seed=13,
                             n_samples=6000, n_eta=48)
        if not (lo.mean <= mid.mean + 3 * (lo.std_err + mid.std_err)
                and mid.mean <= hi.mean + 3 * (mid.std_err + hi.std_err)):
            fails += 1
    el = time.time() - t0
    emit(7, "sandwich between nested exhaustion boxes", fails == 0 and el < 60.0,
         f"fails={fails}/3, {el:.1f}s")


def test_08_exponential_cylinder_identity():
    t0 = time.time()
    from ugmt.cylinder import ExponentialCylinderFunction
    op = LiftedHeatOperator(window=UNIT)
    worst = 0.0
    for name, f in batteries.exp_cyl_inners().items():
        E = ExponentialCylinderFunction(f=f)
        for t in (0.01, 0.1, 1.0):
            for k in (1, 2, 3):
                grid = op.grid(k)
                lhs = op.tensor_apply(_eval_on_grid(E, grid), t, grid)
                ker = op._axis_kernel(t, 0)
                nodes, w = grid.nodes[0], grid.weights[0]
                K = ker.kernel(nodes[:, None], nodes[None, :]) * w[None, :]
                Ttf = K @ f.value(nodes[:, None])
                rhs = np.ones(grid.shape())
                for j in range(k):
                    shp = [1] * k
                    shp[j] = len(nodes)
                    rhs = rhs * (1.0 + Ttf.reshape(shp))
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    el = time.time() - t0
    emit(8, "product statistic commutes with the semigroup",
         worst < 1e-6 and el < 30.0, f"max grid err {worst:.1e}, {el:.1f}s")


def test_09_intertwining():
    t0 = time.time()
    op = LiftedHeatOperator(window=UNIT)
    worst = 0.0
    for f in batteries.intertwine_bumps():
        for k in (1, 2):
            rep = check_intertwining(f, 0.05, op, k=k)
            worst = max(worst, rep.max_residual)
    el = time.time() - t0
    emit(9, "gradient-semigroup intertwining", worst < 1e-4 and el < 60.0,
         f"max residual {worst:.1e}, {el:.1f}s")


def test_10_bakry_emery():
    t0 = time.time()
    op = LiftedHeatOperator(window=UNIT)
    plan = MCPlan(n_samples=10_000, seed=42, window=UNIT)
    worst = 0.0
    violations = 0
    for name, F in batteries.be_battery().items():
        for rep in bakry_emery_battery({name: F}, [1.0, 2.0, 4.0], [0.01, 0.1], op, plan)[name]:
            worst = max(worst, rep.max_violation)
            violations += int(rep.violation_fraction > 0.0)
    slope, _ = regularization_slope(op, np.geomspace(1e-3, 1e-1, 9))
    plateau = cyl_compose(lambda r: smoothstep(r, 1.0, 0.05),
                          cyl_from_star(SmoothFunction.linear(UNIT)))
    pl_norms = [np.sqrt(lifted_gradient_norm(plateau, t, op, p=2.0)[0])
                for t in np.geomspace(5e-3, 1e-1, 6)]
    pl_slope = float(np.polyfit(np.log(np.geomspace(5e-3, 1e-1, 6)),
                                np.log(pl_norms), 1)[0])
    el = time.time() - t0
    ok = violations == 0 and -0.65 <= slope <= -0.45 and pl_slope >= -0.55 and el < 180.0
    emit(10, "pointwise gradient domination and regularization rate", ok,
         f"violations={violations}, slope={slope:.3f}, plateau slope={pl_slope:.3f}, {el:.1f}s")


def test_11_tv_equivalence_bracket():
    t0 = time.time()
    op = LiftedHeatOperator(window=UNIT)
    fam = batteries.field_family()
    members = {"half-space": (batteries.half_space_set(),
                              [0.001, 0.002, 0.004, 0.006], [0.002, 0.004])}
    for name, F in batteries.smooth_battery().items():
        members[name] = (F, [0.004, 0.006, 0.01, 0.016], [0.004, 0.008])
    widths = []
    ok = True
    for name, br in tv_bracket_battery(members, op, fam, seed=77).items():
        widths.append((name, br.relative_width()))
        ok = ok and br.consistent() and br.relative_width() <= 0.15
    el = time.time() - t0
    emit(11, "three-route total variation bracketing", ok and el < 300.0,
         f"widths={[(n, round(w, 3)) for n, w in widths]}, {el:.1f}s")


def test_12_de_giorgi_identity():
    t0 = time.time()
    fails = 0
    for name, E in (("half-space", batteries.half_space_set()),
                    ("two-stack", batteries.stack_set()),
                    ("tanh-sum", batteries.tanh_sum_set())):
        pm = perimeter_measure(E, UNIT, n_samples=80_000, seed=31)
        r1 = rho_m_on_box(E.boundary_sheet(), 1, UNIT, n_samples=80_000, seed=97)
        comb = np.sqrt(pm.total_err**2 + r1.total_err**2)
        if abs(pm.total - r1.total) > 3 * comb + 1e-4:
            fails += 1
    el = time.time() - t0
    emit(12, "perimeter equals the codim-1 measure of the reduced boundary",
         fails == 0 and el < 300.0, f"fails={fails}/3, {el:.1f}s")


def test_13_gauss_green():
    t0 = time.time()
    fields = batteries.gg_fields()
    sets = [("half-space", batteries.half_space_set()),
            ("two-stack", batteries.stack_set()),
            ("tanh-sum", batteries.tanh_sum_set())]
    fails = 0
    count = 0
    for (sname, E), (i, V) in itertools.product(sets, enumerate(fields)):
        if count >= 6:
            break
        rep = gauss_green_residual(E, V, UNIT, seed=19 + 7 * i, n_samples=60_000)
        if not rep.passed():
            fails += 1
        count += 1
    el = time.time() - t0
    emit(13, "divergence pairing equals the boundary-normal pairing",
         fails == 0 and el < 180.0, f"fails={fails}/6, {el:.1f}s")


def test_14_coarea():
    t0 = time.time()
    us = np.concatenate([np.linspace(0.02, 2.0, 14), np.linspace(2.4, 6.0, 6)])
    G_bump = cyl_compose(lambda r: smoothstep(r, 0.2, 0.4),
                         cyl_from_star(SmoothFunction.bump(0.45, 0.3, 1.0, window=UNIT)))
    worst = 0.0
    members = {a: (batteries.tanh_sum_function(a), np.tanh(a * us)) for a in (0.28, 0.35, 0.50)}
    family = coarea_family(members, {"unit": 1.0, "bump": G_bump}, UNIT, seed=51,
                           n_samples=40_000)
    for reps in family.values():
        for rep in reps.values():
            worst = max(worst, rep.deviation)
            assert rep.gap_fraction <= 0.10
    el = time.time() - t0
    emit(14, "levels of the perimeter integrate to the gradient mass",
         worst < 0.05 and el < 300.0, f"worst deviation {worst:.2%}, {el:.1f}s")


def test_15_sobolev_consistency():
    t0 = time.time()
    us = np.concatenate([np.linspace(0.02, 2.0, 12), np.linspace(2.4, 6.0, 5)])
    G_batt = {"unit": 1.0,
              "bump-cyl": cyl_compose(lambda r: smoothstep(r, 0.2, 0.4),
                                      cyl_from_star(SmoothFunction.bump(
                                          0.45, 0.3, 1.0, window=UNIT)))}
    members = {a: (batteries.tanh_sum_function(a), np.tanh(a * us)) for a in (0.28, 0.35, 0.50)}
    family = coarea_family(members, G_batt, UNIT, seed=61, n_samples=30_000)
    worst = max(rep.deviation for reps in family.values() for rep in reps.values())
    align, _ = sobolev_alignment(members[0.35][0], batteries.field_family(), UNIT, seed=61)
    el = time.time() - t0
    ok = worst < 0.05 and align >= 0.9 and el < 120.0
    emit(15, "total variation density matches the gradient norm", ok,
         f"worst deviation {worst:.2%}, alignment {align}, {el:.1f}s")


def test_16_capacity_direction():
    t0 = time.time()
    alpha, p = 0.6, 2.0
    W, S_box, sheet, members = batteries.capacity_family()
    op = LiftedHeatOperator(window=W)
    B = BesselOperator(alpha=alpha, p=p)
    base = rho_m_on_box(sheet, 1, S_box, n_samples=40_000, seed=71)
    caps, rhos = [], []
    for mem in members:
        bound, _ = capacity_upper_bound(mem["sieve"], [mem["candidate"]], B, op)
        caps.append(bound)
        rhos.append(float(np.exp(-mem["ell"])) * base.total)
    mono = (all(b <= a * (1 + 1e-9) for a, b in zip(caps, caps[1:]))
            and all(b <= a * (1 + 1e-9) for a, b in zip(rhos, rhos[1:])))
    reached = any(c < 1e-6 for c in caps)
    implication = all(r < 1e-4 for c, r in zip(caps, rhos) if c < 1e-6)
    el = time.time() - t0
    emit(16, "capacity bound controls the codim-1 measure",
         mono and reached and implication and el < 180.0,
         f"caps={[f'{c:.1e}' for c in caps]}, rhos={[f'{r:.1e}' for r in rhos]}, {el:.1f}s")


def test_17_determinism():
    rep1 = run_suite(SuiteConfig(suite="campbell", seed=5, samples=2000))
    rep2 = run_suite(SuiteConfig(suite="campbell", seed=5, samples=2000))
    p1, p2 = rep1.to_json(), rep2.to_json()
    p1.pop("timestamp")
    p2.pop("timestamp")
    same = json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
    emit(17, "identical configs give identical numeric payloads", same)
