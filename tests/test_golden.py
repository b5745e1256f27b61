"""Fixed-seed regression values for every particle-count stratified estimator.

Each case is small (short windows, few samples) and returns (value, error).
The pinned numbers are reference values of the estimators as first written;
a refactor may reorder floating-point arithmetic and so move them by at most
1e-12 relative, nothing more.
"""

import numpy as np
import pytest

from ugmt.bv import _SHEET_STREAMS, _VariationalObjective, levelset_expectation
from ugmt.configuration import SetSpec
from ugmt.cylinder import cyl_compose, cyl_from_star, tanh_of
from ugmt.geometry import SmoothFunction, SmoothVectorField, interval
from ugmt.hausdorff import rho_m_on_box, sheet_integrals
from ugmt.heat import LiftedHeatOperator, lifted_gradient_norm
from ugmt.montecarlo import poisson_stratified_battery

W = interval(0.0, 0.5)
BUMP = SmoothFunction.bump(0.25, 0.2, 1.0, window=W)
LIN = SmoothFunction.linear(W)
TANH_BUMP = cyl_compose(lambda r: tanh_of(r), cyl_from_star(BUMP))
SUM_SET = SetSpec.level_set(cyl_from_star(LIN), 0.3)


def _poisson_stratified(sup_bound):
    return poisson_stratified_battery(lambda k, X: {"": TANH_BUMP.value(X)}, W, quad_k=2,
                                      mc_n=2_000, seed=3, sup_bound=sup_bound)[""]


def _levelset_expectation():
    return levelset_expectation(SUM_SET, lambda k, X: TANH_BUMP.value(X), W, seed=5)


def _variational():
    family = [
        (1.0, SmoothVectorField((SmoothFunction.bump(0.25, 0.2, 1.0, window=W),))),
        (TANH_BUMP, SmoothVectorField((SmoothFunction.coordinate_bump(0.25, 0.22, 1.0,
                                                                      window=W),))),
    ]
    obj = _VariationalObjective([SUM_SET], family, W, seed=11, n_band=2_000, mc_n=1_000)
    return obj.value_with_error(np.array([[0.7, -0.4]]))[0]


def _surface_quadrature():
    res = sheet_integrals(SUM_SET.function, SUM_SET.level, {"s": None}, W,
                          streams=_SHEET_STREAMS, eps=0.01, n_samples=2_000, seed=13, K_max=3)
    return res["s"][:2]


def _surface_fallback():
    # the wide quadrature profile reaches the flat top of the plateau, a
    # critical level, so every stratum drops to the hard-band Monte Carlo route
    top = SmoothFunction.plateau(interval(0.15, 0.35), 0.01, window=W)
    res = sheet_integrals(cyl_from_star(top), 0.97, {"s": None}, W, streams=_SHEET_STREAMS,
                          eps=0.005, n_samples=2_000, seed=17, K_max=2)
    return res["s"][:2]


def _rho(m, spec):
    res = rho_m_on_box(spec, m, W, n_samples=2_000, seed=19)
    return res.total, res.total_err


def _lifted(t):
    op = LiftedHeatOperator(window=interval(0.0, 0.8), grid_orders={1: 40, 2: 24, 3: 12})
    F = cyl_compose(lambda r: tanh_of(r),
                    cyl_from_star(SmoothFunction.bump(0.4, 0.3, 1.0, window=op.window)))
    return lifted_gradient_norm(F, t, op, p=1.0)


CASES = {
    "poisson_stratified": lambda: _poisson_stratified(None),
    "poisson_stratified_sup": lambda: _poisson_stratified(2e5),
    "levelset_expectation": _levelset_expectation,
    "variational_value_with_error": _variational,
    "surface_battery_quadrature": _surface_quadrature,
    "surface_battery_fallback": _surface_fallback,
    "rho0_on_box": lambda: _rho(0, SUM_SET),
    "rho0_on_box_exact": lambda: _rho(0, SetSpec.count_at_least(interval(0.0, 0.3), 2)),
    "rho1_on_box": lambda: _rho(1, SetSpec.level_sheet(cyl_from_star(LIN), 0.3)),
    "rho1_on_box_one_count": lambda: _rho(1, SetSpec.level_sheet(cyl_from_star(LIN), 0.3,
                                                                 count_equals=2)),
    "lifted_gradient_norm_direct": lambda: _lifted(None),
    "lifted_gradient_norm_semigroup": lambda: _lifted(0.01),
}

GOLDEN = {
    'levelset_expectation': (0.09088978006564534, 0.00013849180661345024),
    'lifted_gradient_norm_direct': (1.0785949227695693, 0.07731709064326125),
    'lifted_gradient_norm_semigroup': (0.6343948158816499, 0.034878101026504474),
    'poisson_stratified': (0.1812944747483668, 6.619778636664228e-05),
    'poisson_stratified_sup': (0.1812944747483668, 6.621588740217574e-05),
    'rho0_on_box': (0.20541046860840814, 0.003423886965360237),
    'rho0_on_box_exact': (0.036936313106031474, 0.0),
    'rho1_on_box': (0.74861925703502, 0.003792512991910712),
    'rho1_on_box_one_count': (0.12865368197213412, 5.406541593690078e-06),
    'surface_battery_fallback': (1.4292030931622615, 0.3569827826681413),
    'surface_battery_quadrature': (0.7455803024717058, 0.002374247147784345),
    # the error is the n - 1 standard error of mean_and_stderr on each batch
    'variational_value_with_error': (0.40273913900725966, 0.002615904781194304),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_value(name):
    value, error = CASES[name]()
    want_value, want_error = GOLDEN[name]
    assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
    assert error == pytest.approx(want_error, rel=1e-12, abs=0.0)

