"""Built-in test batteries: named sets, functions, and fields for the suites.

Every entry names the identity it probes, so reports and the catalog listing
stay self-describing.  Entries are plain builders over the shared standard
windows; the suites call the builders directly, and the catalog table gives
each one a name that ``ugmt list-batteries`` prints.
"""

from __future__ import annotations

import functools

import numpy as np

from .configuration import SetSpec
from .cylinder import (CylinderFunction, CylinderVectorField, OuterFunction,
                       add_n, const, coord, cyl_compose, cyl_from_star, exp_neg,
                       mul_n, nonneg_hint, smoothstep, square, tanh_of)
from .geometry import BoxDomain, SmoothFunction, SmoothVectorField, interval
from .montecarlo import poisson_pmf, poisson_stratified_battery

UNIT = interval(0.0, 1.0)
UNIT2 = BoxDomain((0.0, 0.0), (1.0, 1.0))
MONO_WINDOW = interval(-1.5, 1.5)
CAP_WINDOW = interval(0.0, 17.6)


# ---------------------------------------------------------------------------
# inner functions and fields


def bump_family_1d() -> list[SmoothFunction]:
    return [
        SmoothFunction.bump(0.45, 0.30, 1.0, window=UNIT),
        SmoothFunction.bump(0.55, 0.35, 0.8, window=UNIT),
        SmoothFunction.bump(0.38, 0.33, 1.2, window=UNIT),
    ]


def bump_family_2d() -> list[SmoothFunction]:
    return [
        SmoothFunction.bump((0.5, 0.5), 0.35, 1.0, window=UNIT2),
        SmoothFunction.bump((0.45, 0.55), 0.30, 0.7, window=UNIT2),
        SmoothFunction.bump((0.6, 0.4), 0.32, 0.9, window=UNIT2),
    ]


def intertwine_bumps() -> list[SmoothFunction]:
    return [
        SmoothFunction.bump(0.5, 0.35, 1.0, window=UNIT),
        SmoothFunction.bump(0.45, 0.32, 0.8, window=UNIT),
        SmoothFunction.bump(0.55, 0.30, 1.1, window=UNIT),
    ]


def count_selector(m: int, window: BoxDomain = UNIT) -> CylinderFunction:
    """Smooth exp(-2 (N - m)^2) coefficient, N the (smoothed) particle count.

    Lets the variational search tune the field amplitude per particle count,
    which is what the tangent-norm constraint demands of near-optimal fields.
    """
    counter = SmoothFunction.plateau(window, 0.01, window=window)
    root = exp_neg(mul_n(const(-2.0), square(add_n(coord(0), const(-float(m))))))
    return CylinderFunction(OuterFunction(root, 1), (counter,), name=f"count~{m}")


def field_family() -> list[tuple]:
    """Variational search basis: even and odd bump fields, one cylinder
    coefficient term, and count-adapted copies of the widest field."""
    coeff = cyl_compose(lambda r: tanh_of(r),
                        cyl_from_star(SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)))
    wide = SmoothVectorField((SmoothFunction.plateau(interval(0.04, 0.96), 0.02,
                                                     window=UNIT),))
    fam = [
        (1.0, SmoothVectorField((SmoothFunction.bump(0.5, 0.35, 1.0, window=UNIT),))),
        (1.0, wide),
        (1.0, SmoothVectorField((SmoothFunction.coordinate_bump(0.5, 0.35, 1.0, window=UNIT),))),
        (1.0, SmoothVectorField((SmoothFunction.coordinate_bump(0.5, 0.48, 1.0, window=UNIT),))),
        (coeff, SmoothVectorField((SmoothFunction.bump(0.5, 0.4, 1.0, window=UNIT),))),
    ]
    for m in (1, 2, 3):
        fam.append((count_selector(m), wide))
    return fam


def gg_fields() -> list[CylinderVectorField]:
    coeff = cyl_compose(lambda r: add_n(const(0.8), mul_n(const(0.3), tanh_of(r))),
                        cyl_from_star(SmoothFunction.bump(0.4, 0.3, 1.0, window=UNIT)))
    return [
        CylinderVectorField(((1.0, SmoothVectorField((SmoothFunction.bump(0.45, 0.3, 0.7, window=UNIT),))),)),
        CylinderVectorField(((1.0, SmoothVectorField((SmoothFunction.coordinate_bump(0.5, 0.35, 0.8, window=UNIT),))),)),
        CylinderVectorField(((coeff, SmoothVectorField((SmoothFunction.bump(0.55, 0.3, 0.6, window=UNIT),))),)),
    ]


# ---------------------------------------------------------------------------
# functions on the configuration space


def half_space_set() -> SetSpec:
    """One particle in the unit interval, located right of the midpoint."""
    lin = SmoothFunction.linear(UNIT)
    return SetSpec.level_set(cyl_from_star(lin, name="coordinate"), 0.5,
                             count_equals=1, name="half-space")


def stack_set() -> SetSpec:
    """Super-level set {bump statistic > 1.37}; active from two particles up."""
    f = SmoothFunction.bump(0.5, 0.35, 1.0, window=UNIT)
    return SetSpec.level_set(cyl_from_star(f, name="bump-stat"), 1.37, name="two-stack")


def tanh_sum_function(a: float = 0.35, name: str = "tanh-sum") -> CylinderFunction:
    lin = SmoothFunction.linear(UNIT)
    return cyl_compose(lambda r: tanh_of(mul_n(const(a), r)), cyl_from_star(lin), name=name)


def tanh_sum_members(us) -> dict[str, tuple[CylinderFunction, np.ndarray]]:
    """Coarea members: name -> (tanh(a sum x), levels tanh(a us)) for three
    slopes a."""
    return {name: (tanh_sum_function(a, name), np.tanh(a * us))
            for name, a in (("tanh-sum-035", 0.35), ("tanh-sum-050", 0.50),
                            ("tanh-sum-028", 0.28))}


def coarea_weights() -> dict:
    """The G battery of the coarea check: the bare gradient mass and a
    bump-statistic weight with values in (0.1, 1.1)."""
    G_bump = cyl_compose(lambda r: add_n(const(0.6), mul_n(const(0.5), tanh_of(r))),
                         cyl_from_star(SmoothFunction.bump(0.45, 0.3, 1.0, window=UNIT)))
    return {"unit": 1.0, "bump-cyl": G_bump}


def tanh_sum_set() -> SetSpec:
    return SetSpec.level_set(tanh_sum_function(0.35), 0.45, name="tanh-sum-set")


def tanh_cos_function(amp: float = 0.8) -> CylinderFunction:
    f = SmoothFunction.neumann_mode((1,), UNIT, amplitude=amp)
    return cyl_compose(lambda r: tanh_of(r), cyl_from_star(f), name="tanh-cos")


def smooth_battery() -> dict[str, CylinderFunction]:
    return {
        "tanh-sum-035": tanh_sum_function(0.35, "tanh-sum-035"),
        "tanh-sum-050": tanh_sum_function(0.50, "tanh-sum-050"),
        "tanh-cos": tanh_cos_function(0.8),
    }


def be_battery() -> dict[str, CylinderFunction]:
    """Cylinder functions for the pointwise semigroup-gradient domination check."""
    f1 = SmoothFunction.bump(0.45, 0.28, 1.0, window=UNIT)
    f2 = SmoothFunction.bump(0.55, 0.33, 0.8, window=UNIT)
    f3 = SmoothFunction.neumann_mode((2,), UNIT, amplitude=0.6)
    return {
        "tanh-bump": cyl_compose(lambda r: tanh_of(r), cyl_from_star(f1)),
        "sq-damped": cyl_compose(lambda r: exp_neg(mul_n(const(-0.5), square(r))),
                                 cyl_from_star(f2)),
        "tanh-mode": cyl_compose(lambda r: tanh_of(mul_n(const(0.7), r)),
                                 cyl_from_star(f3)),
    }


def exp_cyl_inners() -> dict[str, SmoothFunction]:
    """Admissible f for the product statistic: -1 < f <= 0, Neumann-compatible."""
    c1 = SmoothFunction.constant(-0.2, UNIT)
    m1 = SmoothFunction.neumann_mode((1,), UNIT, amplitude=-0.2)
    m2 = SmoothFunction.neumann_mode((2,), UNIT, amplitude=-0.15)
    c2 = SmoothFunction.constant(-0.15, UNIT)
    return {
        "shifted-mode-1": SmoothFunction(kind="sum", support=UNIT, factors=(c1, m1), window=UNIT),
        "shifted-mode-2": SmoothFunction(kind="sum", support=UNIT, factors=(c2, m2), window=UNIT),
        "constant": SmoothFunction.constant(-0.3, UNIT),
    }


# ---------------------------------------------------------------------------
# monotonicity family on the symmetric window


def monotone_sheets() -> dict[str, SetSpec]:
    """Sheet specs with localities of different scales inside [-1.5, 1.5]."""
    out = {}
    scales = [0.5, 0.8, 1.0, 1.3, 1.8]
    for i, s in enumerate(scales):
        f = SmoothFunction.bump(0.0, s / 2.0, 1.0, window=MONO_WINDOW)
        out[f"sheet-scale-{s}"] = SetSpec.level_sheet(cyl_from_star(f), 0.55,
                                                      name=f"sheet-scale-{s}")
    return out


def rho0_sets() -> dict[str, SetSpec]:
    f = SmoothFunction.bump(0.5, 0.3, 1.0, window=UNIT)
    return {
        "whole-space": SetSpec.count_at_least(UNIT, 0),
        "occupied-left": SetSpec.count_at_least(interval(0.0, 0.5), 1),
        "void-mid": SetSpec.count_at_most(interval(0.3, 0.7), 0, name="void-mid"),
        "bump-level": SetSpec.level_set(cyl_from_star(f), 0.8),
        "pair": SetSpec.count_at_least(interval(0.2, 0.9), 2),
    }


# ---------------------------------------------------------------------------
# capacity battery: sheet-with-void shrinking family


def capacity_family():
    """Shrinking sets A_l = {bump-stat = 1/2} with a void on [0, l].

    Returns (window, support box, sheet spec, members) where each member
    carries the void length, the candidate (F, exact norm routine), and the
    sieve configurations as sorted point arrays (k, 1).  Norms factor
    exactly over the disjoint void and statistic regions; the void factor
    uses the Poisson count distribution.
    """
    W = CAP_WINDOW
    fsheet = SmoothFunction.bump(16.8, 0.38, 1.0, window=W)
    Fs = cyl_from_star(fsheet)
    S_box = interval(16.3, 17.3)
    c_level = 0.5
    beta = 6.0  # the void factor is exp(-beta * plateau statistic)
    sheet = SetSpec.level_sheet(Fs, c_level)
    u0 = 1.0 - 1.0 / (1.0 - np.log(c_level))
    roots = [16.8 - 0.38 * np.sqrt(u0), 16.8 + 0.38 * np.sqrt(u0)]

    @functools.cache
    def step_norm(pp: float) -> float:
        """The statistic factor of every member's norm, once per p."""
        def Hk(k, X):
            vals = np.sum(fsheet.value(X), axis=-1)
            return {"step": (0.5 * (1.0 + np.tanh((vals - (c_level - 0.25)) / 0.08))) ** pp}
        return poisson_stratified_battery(Hk, S_box, quad_k=3, seed=5)["step"][0]

    members = []
    for ell in (0.0, 2.0, 4.0, 7.0, 10.0, 15.5):
        if ell > 0:
            R = interval(0.0, ell)
            plat = SmoothFunction.plateau(R, 0.02, window=W)
            outer = mul_n(smoothstep(coord(0), c_level - 0.25, 0.08),
                          exp_neg(mul_n(const(-beta), nonneg_hint(coord(1)))))
            F = CylinderFunction(OuterFunction(outer, 2), (fsheet, plat))
        else:
            F = CylinderFunction(OuterFunction(smoothstep(coord(0), c_level - 0.25, 0.08), 1),
                                 (fsheet,))

        def norm_fn(pp: float, ell=ell) -> float:
            base = step_norm(pp)
            if ell == 0.0:
                return base
            ks = np.arange(0, 80)
            pmf = poisson_pmf(ks, ell)
            return base * float(np.sum(pmf * np.exp(-pp * beta * ks)))

        ambient = max(ell + 0.4, 12.0)
        ambient = min(ambient, 16.1)
        sieve = [np.array([[r]]) for r in roots]
        sieve.append(np.sort([[roots[0]], [ambient]], axis=0))
        members.append({"ell": ell, "candidate": (F, norm_fn), "sieve": sieve})
    return W, S_box, sheet, members


# ---------------------------------------------------------------------------
# the catalog


# name -> (builder, anchor, kind, description)
_ENTRIES = {
    "bumps-1d": (bump_family_1d, "Laplace functional", "inner functions",
                 "three mollifier bumps on the unit interval"),
    "bumps-2d": (bump_family_2d, "Laplace functional", "inner functions",
                 "three mollifier bumps on the unit square"),
    "half-space": (half_space_set, "De Giorgi identity", "set",
                   "single particle right of the midpoint"),
    "two-stack": (stack_set, "De Giorgi identity", "set",
                  "bump statistic above a two-particle level"),
    "tanh-sum-set": (tanh_sum_set, "De Giorgi identity", "set",
                     "super-level set of a saturated coordinate sum"),
    "tanh-sum-035": (lambda: tanh_sum_function(0.35, "tanh-sum-035"), "coarea formula",
                     "function", "saturated coordinate sum, gentle slope"),
    "tanh-sum-050": (lambda: tanh_sum_function(0.50, "tanh-sum-050"), "coarea formula",
                     "function", "saturated coordinate sum, steeper slope"),
    "tanh-cos": (tanh_cos_function, "total variation equivalence", "function",
                 "saturated first cosine mode statistic"),
    "be-battery": (be_battery, "Bakry-Emery p-inequality", "functions",
                   "three cylinder functions for the pointwise domination"),
    "exp-cyl": (exp_cyl_inners, "product semigroup identity", "inner functions",
                "admissible nonpositive statistics for product form"),
    "field-family": (field_family, "variational total variation", "fields",
                     "even/odd bump fields with one cylinder coefficient"),
    "gg-fields": (gg_fields, "Gauss-Green formula", "fields",
                  "test fields for boundary-normal pairing"),
    "monotone-sheets": (monotone_sheets, "monotone localization", "sets",
                        "sheet statistics at five locality scales"),
    "rho0-sets": (rho0_sets, "Poisson consistency", "sets",
                  "count (at least, at most) and level sets"),
    "capacity-family": (capacity_family, "capacity-measure comparison", "sets",
                        "sheet-with-void shrinking family"),
    "intertwine-bumps": (intertwine_bumps, "gradient intertwining", "inner functions",
                         "three bumps for the two-route gradient"),
}


def catalog() -> dict[str, dict]:
    """Name -> {anchor, kind, description} for every built-in battery entry."""
    return {name: {"anchor": a, "kind": k, "description": d}
            for name, (_, a, k, d) in _ENTRIES.items()}
