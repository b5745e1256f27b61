"""Every public name of the package has a caller in the program.

A name in a module's ``__all__`` that only tests call is code no suite runs:
it drifts from the program and can carry claims no report checks.  The scan
reads ``src/ugmt`` and ``perfbench``.  A use of ``module.name`` is an import
of it, an attribute of the module imported as a module (``batteries.UNIT``),
or, inside the module, a read of the name that no local binding shadows
(Python's own scoping, through ``symtable``).  So a method call
(``F.gradient``) does not use a module function of the same name, and a
definition or an assignment is not a use.

Second-route references are exempt.  The program computes each of their
quantities another way, and tests set the two routes against each other.
"""

import ast
import pathlib
import symtable

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "ugmt"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

SECOND_ROUTES = {
    "quotient_distance": "assignment distance, checked against brute_force_distance",
    "measure_of_set": "plain Monte Carlo probability against rho_0 on strata",
    "integrate_disintegrated": "disintegrated Poisson integral against the stratified one",
    "lift_semigroup": "tensor-grid semigroup against the closed-form ExponentialCylinderFunction",
    "hausdorff_covering_upper": "covering upper bound against the band oracle",
    "sample_poisson": "per-configuration draws against draw_by_count",
    "sample_poisson_batch": "per-configuration draws against draw_by_count",
    "directional_derivative_fd": "finite differences against the exact gradient",
    "eval_star": "unbatched star statistic against CylinderFunction",
}


def _public_names() -> list[tuple[str, str]]:
    """(module, name) for each ``__all__`` entry of a module.  The package's
    own ``__all__`` re-exports module names: their import in ``__init__``
    counts as a use of the module's name, so they are not listed twice."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                    for t in node.targets):
                out.extend((path.stem, name) for name in ast.literal_eval(node.value))
    return out


def _imported_module(node: ast.ImportFrom, path: pathlib.Path) -> str | None:
    """The package module an ``from ... import`` statement reads, if any."""
    if node.level == 1 and path.parent == PACKAGE:
        return node.module or "__init__"
    if node.level == 0 and node.module and node.module.split(".")[0] == "ugmt":
        return node.module.partition(".")[2] or "__init__"
    return None


def _global_reads(table: symtable.SymbolTable) -> set[str]:
    """Names read at module level, or as globals in any function or class."""
    names, tables = set(), [table]
    while tables:
        t = tables.pop()
        names.update(sym.get_name() for sym in t.get_symbols()
                      if sym.is_referenced() and (t.get_type() == "module" or sym.is_global()))
        tables.extend(t.get_children())
    return names


def _program_uses() -> set[tuple[str, str]]:
    used = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        text = path.read_text()
        tree = ast.parse(text)
        modules = {}  # local name -> package module imported as a module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (source := _imported_module(node, path)):
                for alias in node.names:
                    if source == "__init__" and alias.name in MODULES:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        used.add((source, alias.name))
        used.update((modules[node.value.id], node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules)
        if path.parent == PACKAGE:
            table = symtable.symtable(text, str(path), "exec")
            used.update((path.stem, name) for name in _global_reads(table))
    return used


def test_every_public_name_has_a_program_caller():
    used = _program_uses()
    test_only = [f"{module}.{name}" for module, name in _public_names()
                 if (module, name) not in used and name not in SECOND_ROUTES]
    assert not test_only, f"public names that only tests call: {test_only}"


def test_second_route_exemptions_are_public_and_still_test_only():
    # an exemption that gains a program caller, or leaves __all__, is dropped
    public = {name: module for module, name in _public_names()}
    used = _program_uses()
    stale = sorted(name for name in SECOND_ROUTES
                   if name not in public or (public[name], name) in used)
    assert not stale, f"exemptions to drop: {stale}"
