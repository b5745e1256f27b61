"""The per-layer tracer in perfbench/tracer.py wraps these names by string.

A rename would not fail any run: the tracer would just stop counting, and the
per-layer counters would silently read zero.  This test pins the names and the
leading parameters the tracer's hooks unpack, and the modules it indexes as
layers.
"""

import ast
import importlib.util
import inspect
import pathlib
import sys

import numpy as np
import pytest

from ugmt import bv, geometry, hausdorff, heat, montecarlo
from ugmt.geometry import interval

HOOKED = [
    (montecarlo, "stratum_grid_points", ()),
    (hausdorff, "band_integral_mc", ("h", "window", "k", "n_samples")),
    (hausdorff, "band_integral_quad", ()),
    (hausdorff, "surface_functional_auto", ()),
    (heat, "_semigroup_at", ()),
    (heat, "_draw_configurations", ()),
    (geometry, "gauss_legendre", ("lo", "hi", "order")),
    (geometry, "neumann_kernel", ("a", "b", "t", "L", "M")),
    (geometry, "_neumann_kernel_dx", ("a", "b", "t", "L", "M")),
    (geometry, "_dirichlet_kernel", ("a", "b", "t", "L", "M")),
]

HOOKED_METHODS = [
    (bv._VariationalObjective, ("value", "value_with_error")),
    (heat.LiftedHeatOperator, ("tensor_apply",)),
    (geometry.SmoothFunction, ("value", "gradient")),
]


@pytest.mark.parametrize("module, name, leading", HOOKED,
                         ids=[f"{m.__name__}.{n}" for m, n, _ in HOOKED])
def test_traced_function_exists(module, name, leading):
    fn = getattr(module, name)
    assert fn.__module__ == module.__name__
    params = list(inspect.signature(fn).parameters)
    assert tuple(params[:len(leading)]) == leading


@pytest.mark.parametrize("cls, methods", HOOKED_METHODS,
                         ids=[c.__name__ for c, _ in HOOKED_METHODS])
def test_traced_methods_exist(cls, methods):
    for name in methods:
        assert callable(vars(cls)[name]), name


def _tracer_layers() -> tuple:
    tree = ast.parse((pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_tracer_layers_are_loaded_modules():
    import ugmt.cli  # noqa: F401  (the traced runs import the package through the CLI)
    for layer in _tracer_layers():
        assert f"ugmt.{layer}" in sys.modules, layer


def test_sheet_loop_passes_quad_order_by_keyword(monkeypatch):
    # the tracer counts a fallback when a call with kwargs["quad_order"] set
    # runs a Monte Carlo band; a positional order would leave
    # hausdorff.fallbacks at 0 without failing any run
    from ugmt import batteries
    calls = []
    real = hausdorff.surface_functional_auto

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(hausdorff, "surface_functional_auto", spy)
    bv.perimeter_measure(batteries.stack_set(), batteries.UNIT, n_samples=500, seed=1,
                         K_max=3)
    assert [n for n, _ in calls] == [5, 5, 5]  # g, level, weights, window, k
    assert [kwargs["quad_order"] for _, kwargs in calls] == [192, 96, None]
    # the localized measure runs the same loop on stacks of sections
    calls.clear()
    sheet = batteries.monotone_sheets()["sheet-scale-1.8"]
    hausdorff.rho_m_localized(sheet, 1, interval(-0.8, 0.8), batteries.MONO_WINDOW, n_eta=4,
                              n_samples=2_000, seed=5)
    assert calls and {n for n, _ in calls} == {5}
    assert {192, 96, None} <= {kwargs["quad_order"] for _, kwargs in calls}
    assert any(len(kwargs["seeds"]) > 1 for _, kwargs in calls)


def test_band_samples_count_every_row_drawn(monkeypatch):
    # the tracer adds band_integral_mc's n_samples to hausdorff.band_samples:
    # on a stack of sections it must be the rows of the whole block, not one
    # section's share
    from ugmt import batteries
    from ugmt.configuration import SetSpec
    calls, drawn = [], []
    real_mc, real_draw = hausdorff.band_integral_mc, hausdorff.uniform_tuples

    def spy_mc(h, window, k, n_samples, *args, **kwargs):
        calls.append((n_samples, len(drawn)))
        return real_mc(h, window, k, n_samples, *args, **kwargs)

    def spy_draw(*args):
        X = real_draw(*args)
        drawn.append(X.shape[0])
        return X

    monkeypatch.setattr(hausdorff, "band_integral_mc", spy_mc)
    monkeypatch.setattr(hausdorff, "uniform_tuples", spy_draw)
    A = SetSpec.level_sheet(batteries.tanh_sum_function(0.35), 0.3)
    hausdorff._rho1(A, batteries.UNIT, (5, 9), np.array([[0.2], [0.0]]), n_samples=2_000)
    assert calls and len(drawn) == len(calls)
    for n_samples, i in calls:  # each call draws once, after its hook ran
        assert n_samples == drawn[i]
    assert max(drawn) == 2 * 2_000  # both sections' rows in one block


def test_traced_pathwise_suites_run(tmp_path):
    # the tracer's kernel and rule hooks call float() on t and the interval
    # bounds, so a batched route that passed them arrays would crash here
    from ugmt import cli
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        codes = {suite: tracer.suite(suite, lambda suite=suite: cli.main(
                     ["run", suite, "--out", str(tmp_path / suite)]))
                 for suite in ("capacity", "bakry-emery")}
    finally:
        tracer.uninstall()
    assert codes == {"capacity": 0, "bakry-emery": 0}
    assert tracer.metrics(list(codes))["heat.calls"] > 0
