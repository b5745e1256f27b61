"""Every public name of the package has a caller in the program.

A name in a module's ``__all__`` that only tests call is code no suite runs:
it drifts from the program and can carry claims no report checks.  The scan
reads identifiers (names, attributes and imported names) in ``src/ugmt`` and
``perfbench``; a definition or an assignment does not count as a use.

Second-route references are exempt.  The program computes each of their
quantities another way, and tests set the two routes against each other.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "ugmt"

SECOND_ROUTES = {
    "quotient_distance": "assignment distance, checked against brute_force_distance",
    "measure_of_set": "plain Monte Carlo probability against rho_0 on strata",
    "integrate_disintegrated": "disintegrated Poisson integral against the stratified one",
    "lift_semigroup": "per-configuration semigroup against tensor_apply",
    "hausdorff_covering_upper": "covering upper bound against the band oracle",
    "check_bakry_emery": "per-configuration form of bakry_emery_battery",
    "coarea_check": "one-member form of coarea_battery",
    "tv_bracket": "one-member form of tv_bracket_battery",
    "sample_poisson": "per-configuration draws against draw_by_count",
    "sample_poisson_batch": "per-configuration draws against draw_by_count",
    "directional_derivative_fd": "finite differences against the exact gradient",
    "eval_star": "unbatched star statistic against CylinderFunction",
}


def _public_names() -> list[tuple[str, str]]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                    for t in node.targets):
                out.extend((path.stem, name) for name in ast.literal_eval(node.value))
    return out


def _program_uses() -> set[str]:
    used = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_public_name_has_a_program_caller():
    used = _program_uses()
    test_only = [f"{module}.{name}" for module, name in _public_names()
                 if name not in used and name not in SECOND_ROUTES]
    assert not test_only, f"public names that only tests call: {test_only}"


def test_second_route_exemptions_are_public_and_still_test_only():
    # an exemption that gains a program caller, or leaves __all__, is dropped
    public = {name for _, name in _public_names()}
    used = _program_uses()
    stale = sorted(name for name in SECOND_ROUTES if name not in public or name in used)
    assert not stale, f"exemptions to drop: {stale}"
