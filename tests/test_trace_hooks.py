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

import pytest

from ugmt import bv, geometry, hausdorff, heat, montecarlo

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
