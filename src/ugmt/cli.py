"""Command-line harness: verification suites, configs, and report emission.

Usage:
    ugmt run <suite> [--config path] [--seed N] [--samples N] [--out dir]
    ugmt list-batteries
    ugmt plot-data <report.json> [--out dir]

Suites: campbell | monotonicity | bakry-emery | intertwine | tv-equivalence |
de-giorgi | coarea | gauss-green | capacity | sobolev.  Exit code 0 iff all
checks pass, 1 on any failure, 2 on configuration errors.  Reports are JSON
(with a CSV summary); identical configs reproduce identical numeric payloads.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, batteries
from .configuration import SetSpec
from .geometry import SmoothFunction
from .heat import (BesselOperator, LiftedHeatOperator, bakry_emery_battery,
                   capacity_upper_bound, check_intertwining, regularization_slope)
from .hausdorff import rho_m_limit, rho_m_on_box, scaled_box
from .montecarlo import MASS_RATIO, MIN_SAMPLES, MCPlan, integrate_battery, stratum_grid_points
from .bv import (coarea_family, gauss_green_residual, perimeter_measure,
                 sobolev_alignment, tv_bracket_battery)

SCHEMA_VERSION = 1
SUITES = ("campbell", "monotonicity", "bakry-emery", "intertwine", "tv-equivalence",
          "de-giorgi", "coarea", "gauss-green", "capacity", "sobolev")
# the surface-measure suites draw at least this many samples
SAMPLES_FLOOR = 20_000
FLOORED_SUITES = ("de-giorgi", "coarea", "gauss-green", "capacity")


class ConfigError(ValueError):
    pass


@dataclass
class SuiteConfig:
    suite: str
    seed: int = 20240901
    samples: int = 20_000
    out_dir: str = "ugmt-out"
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}")
        if self.samples < 100:
            raise ConfigError("samples must be at least 100")
        if self.seed is None:
            raise ConfigError("an explicit seed is required")

    @staticmethod
    def from_text(text: str, suite: str | None = None) -> "SuiteConfig":
        fields: dict = {"options": {}}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in ("suite", "out"):
                fields["out_dir" if key == "out" else key] = val
            elif key in ("seed", "samples"):
                try:
                    fields[key] = int(val)
                except ValueError:
                    raise ConfigError(f"{key} must be an integer, not {val!r}") from None
            else:
                fields["options"][key] = val
        if suite:
            fields["suite"] = suite
        if "suite" not in fields:
            raise ConfigError("config must name a suite")
        return SuiteConfig(**fields)

    @property
    def drawn_samples(self) -> int:
        """The sample count the report records: ``samples``, raised to the
        floor for the suites that draw at least ``SAMPLES_FLOOR``, and a
        quarter of it (at least 4,000) per box of the monotonicity suite."""
        if self.suite == "monotonicity":
            return max(4000, self.samples // 4)
        return max(self.samples, SAMPLES_FLOOR) if self.suite in FLOORED_SUITES else self.samples

    def floats(self, key: str, default: list[float]) -> list[float]:
        if key not in self.options:
            return default
        try:
            return [float(v) for v in str(self.options[key]).split(",")]
        except ValueError:
            raise ConfigError(f"{key} must be a comma-separated list of numbers, "
                              f"not {self.options[key]!r}") from None

    def number(self, key: str, default: float) -> float:
        values = self.floats(key, [default])
        if len(values) != 1:
            raise ConfigError(f"{key} must be one number, not {self.options[key]!r}")
        return values[0]


@dataclass
class Report:
    suite: str
    records: list[dict]
    seed: int
    samples: int

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.records)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "environment": {"package_version": __version__, "seed": self.seed,
                            "samples": self.samples,
                            "stratum_draws": {"floor": MIN_SAMPLES, "mass_ratio": MASS_RATIO}},
            "records": self.records,
            "all_pass": self.passed,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }

    def save(self, out_dir: str) -> tuple[str, str]:
        os.makedirs(out_dir, exist_ok=True)
        jpath = os.path.join(out_dir, f"{self.suite}.json")
        with open(jpath, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        cpath = os.path.join(out_dir, f"{self.suite}.csv")
        with open(cpath, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["name", "anchor", "value", "target", "sigma", "pass"])
            for r in self.records:
                wr.writerow([r["name"], r["anchor"], r["value"], r["target"],
                             r["sigma"], r["pass"]])
        return jpath, cpath


def validate_report_schema(payload: dict) -> list[str]:
    """Structural validation of a report payload; returns problems found."""
    problems = []
    for key in ("schema_version", "suite", "environment", "records", "all_pass", "timestamp"):
        if key not in payload:
            problems.append(f"missing key {key}")
    for i, rec in enumerate(payload.get("records", [])):
        for key in ("name", "anchor", "value", "target", "sigma", "pass"):
            if key not in rec:
                problems.append(f"record {i} missing {key}")
    return problems


def record(name: str, anchor: str, value: float, target: float, sigma: float,
           ok: bool, series: dict | None = None) -> dict:
    rec = {"name": name, "anchor": anchor, "value": float(value),
           "target": float(target), "sigma": float(sigma), "pass": bool(ok)}
    if series:
        rec["series"] = series
    return rec


# ---------------------------------------------------------------------------
# suite implementations


def laplace_target(f: SmoothFunction) -> float:
    """Order-64 quadrature of exp( integral of (e^f - 1) ) over the support box."""
    pts, w = stratum_grid_points(f.support, 1, 64)
    vals = np.exp(f.value(pts[:, 0])) - 1.0
    return float(np.exp(np.sum(w * vals)))


def _suite_campbell(cfg: SuiteConfig) -> list[dict]:
    records = []
    for tag, fams, window in (("1d", batteries.bump_family_1d(), batteries.UNIT),
                              ("2d", batteries.bump_family_2d(), batteries.UNIT2)):
        plan = MCPlan(n_samples=cfg.samples, seed=cfg.seed, window=window)
        # exp of the linear statistic, on every k-particle stack of one draw
        battery = {f"laplace-{tag}-{i}": lambda k, X, f=f: np.exp(np.sum(f.value(X), axis=-1))
                   for i, f in enumerate(fams)}
        for f, (name, est) in zip(fams, integrate_battery(battery, plan).items()):
            target = laplace_target(f)
            ok = est.within(target, 3.0)
            records.append(record(name, "Laplace functional", est.mean, target, est.std_err, ok))
    return records


def _suite_monotonicity(cfg: SuiteConfig) -> list[dict]:
    records = []
    r_values = cfg.floats("r_schedule", [1.0, 1.5, 2.0, 3.0])
    if len(r_values) < 3 or not all(0.0 < r < s for r, s in zip(r_values, r_values[1:])):
        raise ConfigError(f"r_schedule must hold at least 3 increasing positive sides, "
                          f"not {r_values}")
    boxes = [scaled_box(0.0, r, 1) for r in r_values]
    for name, spec in batteries.monotone_sheets().items():
        res = rho_m_limit(spec, 1, boxes, seed=cfg.seed,
                          n_samples=cfg.drawn_samples, n_eta=48)
        series = {"columns": ["r", "rho1_r", "sigma", "monotone"],
                  "rows": [[r, v, s, res.monotone]
                           for r, v, s in zip(r_values, res.values, res.errors)]}
        records.append(record(f"monotone-{name}", "monotone localization",
                              res.limit, res.limit, res.limit_err, res.monotone, series))
        if res.saturated is not None:
            gap, sigma = res.saturation
            records.append(record(f"saturation-{name}", "monotone localization",
                                  gap, 0.0, sigma, res.saturated))
    return records


def _suite_bakry_emery(cfg: SuiteConfig) -> list[dict]:
    records = []
    ps = cfg.floats("p_values", [1.0, 2.0, 4.0])
    ts = cfg.floats("t_values", [0.01, 0.1])
    if not all(1.0 <= p < np.inf for p in ps):
        raise ConfigError(f"p_values must lie in [1, inf), not {ps}")
    if not all(0.0 < t < np.inf for t in ts):
        raise ConfigError(f"t_values must be positive and finite, not {ts}")
    op = LiftedHeatOperator(window=batteries.UNIT)
    plan = MCPlan(n_samples=cfg.samples, seed=cfg.seed, window=batteries.UNIT)
    for name, reports in bakry_emery_battery(batteries.be_battery(), ps, ts, op, plan).items():
        for rep in reports:
            records.append(record(f"pointwise-{name}-p{rep.p:g}-t{rep.t:g}",
                                  "Bakry-Emery p-inequality",
                                  rep.max_violation, 0.0, rep.tolerance,
                                  rep.violation_fraction == 0.0))
    t_grid = np.geomspace(1e-3, 1e-1, 9)
    slope, pairs = regularization_slope(op, t_grid)
    ok = -0.65 <= slope <= -0.45
    series = {"columns": ["t", "envelope"], "rows": [[t, v] for t, v in pairs]}
    records.append(record("regularization-slope", "heat regularization rate",
                          slope, -0.5, 0.1, ok, series))
    return records


def _suite_intertwine(cfg: SuiteConfig) -> list[dict]:
    records = []
    op = LiftedHeatOperator(window=batteries.UNIT)
    t = cfg.number("t", 0.05)
    if not 0.0 < t < np.inf:
        raise ConfigError(f"t must be positive and finite, not {t}")
    for i, f in enumerate(batteries.intertwine_bumps()):
        for k in (1, 2):
            rep = check_intertwining(f, t, op, k=k)
            ok = rep.max_residual < 1e-4
            records.append(record(f"intertwine-bump{i}-k{k}", "gradient intertwining",
                                  rep.max_residual, 0.0, rep.refinement_residual, ok))
    return records


def _suite_tv_equivalence(cfg: SuiteConfig) -> list[dict]:
    records = []
    op = LiftedHeatOperator(window=batteries.UNIT)
    fam = batteries.field_family()
    members = {"half-space": (batteries.half_space_set(),
                              [0.001, 0.002, 0.004, 0.006], [0.002, 0.004])}
    for name, F in batteries.smooth_battery().items():
        members[name] = (F, [0.004, 0.006, 0.01, 0.016], [0.004, 0.008])
    for name, br in tv_bracket_battery(members, op, fam, seed=cfg.seed).items():
        ok = br.consistent() and br.relative_width() <= 0.15
        records.append(record(f"bracket-{name}", "total variation equivalence",
                              br.semigroup_value, br.relaxation_upper,
                              br.semigroup_err + br.upper_err, ok,
                              {"columns": ["route", "value", "err"],
                               "rows": [["variational", br.variational_lower, br.lower_err],
                                        ["semigroup", br.semigroup_value, br.semigroup_err],
                                        ["relaxation", br.relaxation_upper, br.upper_err]]}))
    return records


def _degiorgi_sets() -> list[tuple[str, SetSpec]]:
    return [("half-space", batteries.half_space_set()),
            ("two-stack", batteries.stack_set()),
            ("tanh-sum", batteries.tanh_sum_set())]


def _suite_de_giorgi(cfg: SuiteConfig) -> list[dict]:
    records = []
    n = cfg.drawn_samples
    for name, E in _degiorgi_sets():
        pm = perimeter_measure(E, batteries.UNIT, n_samples=n, seed=cfg.seed)
        sheet = E.boundary_sheet()
        r1 = rho_m_on_box(sheet, 1, batteries.UNIT, n_samples=n, seed=cfg.seed + 811)
        comb = float(np.sqrt(pm.total_err**2 + r1.total_err**2))
        ok = abs(pm.total - r1.total) <= 3.0 * comb + 1e-6
        records.append(record(f"de-giorgi-{name}", "De Giorgi identity",
                              pm.total, r1.total, comb, ok))
    return records


def _suite_coarea(cfg: SuiteConfig) -> list[dict]:
    records = []
    us = np.concatenate([np.linspace(0.02, 2.0, 14), np.linspace(2.4, 6.0, 6)])
    family = coarea_family(batteries.tanh_sum_members(us), batteries.coarea_weights(),
                           batteries.UNIT, seed=cfg.seed, n_samples=cfg.drawn_samples)
    for fname, reps in family.items():
        for gname, rep in reps.items():
            ok = rep.deviation < 0.05 and rep.gap_fraction <= 0.10
            records.append(record(f"coarea-{fname}-{gname}", "coarea formula",
                                  rep.lhs, rep.rhs, rep.combined_sigma, ok))
    return records


def _suite_gauss_green(cfg: SuiteConfig) -> list[dict]:
    records = []
    fields = batteries.gg_fields()
    sets = _degiorgi_sets()
    pairs = [(sname, E, i, V) for (sname, E) in sets for i, V in enumerate(fields)]
    for sname, E, i, V in pairs[:6]:
        rep = gauss_green_residual(E, V, batteries.UNIT, seed=cfg.seed + 31 * i,
                                   n_samples=cfg.drawn_samples)
        ok = rep.passed()
        records.append(record(f"gauss-green-{sname}-V{i}", "Gauss-Green formula",
                              rep.lhs, rep.rhs, rep.combined_sigma, ok))
    return records


def _suite_capacity(cfg: SuiteConfig) -> list[dict]:
    records = []
    alpha = cfg.number("alpha", 0.6)
    p = cfg.number("p", 2.0)
    if not 0.0 < alpha < np.inf:
        raise ConfigError(f"alpha must be positive and finite, not {alpha}")
    if not 1.0 <= p < np.inf:
        raise ConfigError(f"p must lie in [1, inf), not {p}")
    W, S_box, sheet, members = batteries.capacity_family()
    op = LiftedHeatOperator(window=W)
    B = BesselOperator(alpha=alpha, p=p)
    base = rho_m_on_box(sheet, 1, S_box, n_samples=cfg.drawn_samples,
                        seed=cfg.seed)
    caps, rhos = [], []
    rows = []
    for mem in members:
        bound, _ = capacity_upper_bound(mem["sieve"], [mem["candidate"]], B, op)
        rho = float(np.exp(-mem["ell"])) * base.total
        rho_sig = float(np.exp(-mem["ell"])) * base.total_err
        caps.append(bound)
        rhos.append(rho)
        rows.append([mem["ell"], bound, rho, rho_sig])
    mono_cap = all(caps[i + 1] <= caps[i] * (1 + 1e-9) for i in range(len(caps) - 1))
    mono_rho = all(rhos[i + 1] <= rhos[i] * (1 + 1e-9) for i in range(len(rhos) - 1))
    implication = all(r < 1e-4 for c, r in zip(caps, rhos) if c < 1e-6)
    reached = any(c < 1e-6 for c in caps)
    series = {"columns": ["ell", "cap_bound", "rho1", "rho1_sigma"], "rows": rows}
    records.append(record("capacity-monotone", "capacity-measure comparison",
                          caps[-1], 0.0, 0.0, mono_cap, series))
    records.append(record("rho1-monotone", "capacity-measure comparison",
                          rhos[-1], 0.0, 0.0, mono_rho))
    records.append(record("capacity-implication", "capacity-measure comparison",
                          min(caps), 1e-6, 0.0, implication and reached))
    return records


def _suite_sobolev(cfg: SuiteConfig) -> list[dict]:
    """The direction half of |DF| = |grad F| pi, on tanh-sum-035; the density
    half is the coarea suite, on the same members and G battery."""
    align, err = sobolev_alignment(batteries.tanh_sum_function(0.35, "tanh-sum-035"),
                                   batteries.field_family(), batteries.UNIT, seed=cfg.seed)
    return [record("alignment-tanh-sum-035", "Sobolev-BV consistency",
                   align, 1.0, err, align >= 0.9)]


_SUITE_FNS = {
    "campbell": _suite_campbell,
    "monotonicity": _suite_monotonicity,
    "bakry-emery": _suite_bakry_emery,
    "intertwine": _suite_intertwine,
    "tv-equivalence": _suite_tv_equivalence,
    "de-giorgi": _suite_de_giorgi,
    "coarea": _suite_coarea,
    "gauss-green": _suite_gauss_green,
    "capacity": _suite_capacity,
    "sobolev": _suite_sobolev,
}


def run_suite(cfg: SuiteConfig) -> Report:
    records = _SUITE_FNS[cfg.suite](cfg)
    return Report(suite=cfg.suite, records=records, seed=cfg.seed, samples=cfg.drawn_samples)


def list_batteries_text() -> str:
    cat = batteries.catalog()
    lines = [f"{len(cat)} battery entries:"]
    for name, meta in sorted(cat.items()):
        lines.append(f"  {name:18s} [{meta['anchor']}] ({meta['kind']}): {meta['description']}")
    return "\n".join(lines)


def emit_plot_data(report_payload: dict, out_dir: str) -> list[str]:
    """Per-check CSV files from a report's series payloads."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for rec in report_payload.get("records", []):
        if "series" not in rec:
            continue
        path = os.path.join(out_dir, f"{rec['name']}.csv")
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(rec["series"]["columns"])
            for row in rec["series"]["rows"]:
                wr.writerow(row)
        written.append(path)
    if not written:
        path = os.path.join(out_dir, "empty.csv")
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["name", "value"])
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ugmt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a verification suite")
    runp.add_argument("suite", choices=SUITES)
    runp.add_argument("--config", default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--samples", type=int, default=None)
    runp.add_argument("--out", default=None)
    sub.add_parser("list-batteries", help="print the battery catalog")
    plotp = sub.add_parser("plot-data", help="emit per-check CSVs from a report")
    plotp.add_argument("report")
    plotp.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if args.command == "list-batteries":
        print(list_batteries_text())
        return 0

    if args.command == "plot-data":
        with open(args.report) as fh:
            payload = json.load(fh)
        problems = validate_report_schema(payload)
        if problems:
            print("invalid report:", "; ".join(problems), file=sys.stderr)
            return 2
        out = args.out or os.path.dirname(os.path.abspath(args.report))
        for path in emit_plot_data(payload, out):
            print(path)
        return 0

    try:
        if args.config:
            with open(args.config) as fh:
                cfg = SuiteConfig.from_text(fh.read(), suite=args.suite)
        else:
            cfg = SuiteConfig(suite=args.suite)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.samples is not None:
            cfg.samples = args.samples
        if args.out is not None:
            cfg.out_dir = args.out
        # a suite reads its own options, and checks them before it runs
        report = run_suite(cfg)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    jpath, cpath = report.save(cfg.out_dir)
    for rec in report.records:
        status = "pass" if rec["pass"] else "FAIL"
        print(f"[{status}] {rec['name']}: value={rec['value']:.6g} "
              f"target={rec['target']:.6g} sigma={rec['sigma']:.2g}")
    print(f"report: {jpath}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
