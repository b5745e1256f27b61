import json
import os
import subprocess
import sys
import time

import pytest

from ugmt import batteries
from ugmt.cli import (SUITES, ConfigError, Report, SuiteConfig, emit_plot_data,
                      laplace_target, list_batteries_text, main, run_suite,
                      validate_report_schema)
from ugmt.geometry import SmoothFunction, interval
import numpy as np


def test_config_parse():
    text = "suite = campbell\nseed = 7\nsamples = 500\nout = /tmp/x\nextra = 1,2\n"
    cfg = SuiteConfig.from_text(text)
    assert cfg.suite == "campbell" and cfg.seed == 7 and cfg.samples == 500
    assert cfg.floats("extra", []) == [1.0, 2.0]
    # comments and blank lines carry nothing
    assert SuiteConfig.from_text("# a comment\n\n" + text.replace("\n", "  # note\n")) == cfg


def test_config_errors():
    with pytest.raises(ConfigError):
        SuiteConfig(suite="nope")
    with pytest.raises(ConfigError):
        SuiteConfig(suite="campbell", samples=10)
    with pytest.raises(ConfigError):
        SuiteConfig.from_text("samples = 100\n")  # no suite named


_BAD_CONFIGS = [
    ("monotonicity", "r_schedule = 1.0,x\n", "r_schedule"),      # not a number
    ("monotonicity", "r_schedule = 1.0,2.0\n", "r_schedule"),    # fewer than 3 boxes
    ("monotonicity", "r_schedule = 1.0,3.0,2.0\n", "r_schedule"),
    ("monotonicity", "seed = x\n", "seed"),
    ("bakry-emery", "p_values = 0.5, 2.0\n", "p_values"),       # p < 1
    ("bakry-emery", "t_values = 0.0, 0.1\n", "t_values"),       # t = 0
    ("capacity", "alpha = x\n", "alpha"),
    ("capacity", "alpha = -1\n", "alpha"),
    ("intertwine", "t = 0.05, 0.1\n", "t"),                   # not one number
]


@pytest.mark.parametrize("suite, text, key", _BAD_CONFIGS,
                         ids=[f"{text}-{key}" for _, text, key in _BAD_CONFIGS])
def test_bad_config_values_exit_2(tmp_path, capsys, suite, text, key):
    # each suite rejects its options before it starts any work
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"suite = {suite}\n" + text)
    assert main(["run", suite, "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and key in err
    assert not (tmp_path / "o").exists()


def test_laplace_target_against_closed_form():
    # constant statistic: exp(vol (e^c - 1)) exactly
    c = SmoothFunction.constant(0.3, interval(0.0, 1.0))
    assert laplace_target(c) == pytest.approx(np.exp(np.exp(0.3) - 1.0), rel=1e-12)


def test_catalog_and_round_trip():
    cat = batteries.catalog()
    assert len(cat) >= 12
    assert all(meta["anchor"] for meta in cat.values())
    for builder, *_ in batteries._ENTRIES.values():
        builder()  # every entry resolves
    text = list_batteries_text()
    assert all(name in text for name in cat)


def test_version_is_the_project_version():
    import pathlib

    tomllib = pytest.importorskip("tomllib")
    with open(pathlib.Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    report = Report(suite="demo", records=[], seed=0, samples=0).to_json()
    assert report["environment"]["package_version"] == version


def test_run_suite_report_and_determinism(tmp_path):
    cfg = SuiteConfig(suite="campbell", seed=5, samples=2000, out_dir=str(tmp_path / "a"))
    rep = run_suite(cfg)
    assert rep.passed
    jpath, cpath = rep.save(cfg.out_dir)
    payload = json.load(open(jpath))
    assert validate_report_schema(payload) == []
    # identical config: identical numeric payload except the timestamp
    rep2 = run_suite(SuiteConfig(suite="campbell", seed=5, samples=2000,
                                 out_dir=str(tmp_path / "b")))
    jpath2, _ = rep2.save(str(tmp_path / "b"))
    p1 = json.load(open(jpath))
    p2 = json.load(open(jpath2))
    p1.pop("timestamp")
    p2.pop("timestamp")
    assert p1 == p2


def test_main_exit_codes(tmp_path, monkeypatch):
    out = str(tmp_path / "o")
    code = main(["run", "campbell", "--seed", "5", "--samples", "1000", "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "campbell.json"))
    # configuration error
    bad = tmp_path / "bad.cfg"
    bad.write_text("samples = 10\nsuite = campbell\n")
    assert main(["run", "campbell", "--config", str(bad)]) == 2
    # a failing check propagates exit code 1
    import ugmt.cli as cli_mod

    def fake(cfg):
        return [{"name": "x", "anchor": "none", "value": 1.0, "target": 0.0,
                 "sigma": 0.0, "pass": False}]

    monkeypatch.setitem(cli_mod._SUITE_FNS, "campbell", fake)
    assert main(["run", "campbell", "--out", str(tmp_path / "f")]) == 1


def test_reports_record_the_sample_count_drawn(tmp_path, monkeypatch):
    import ugmt.cli as cli_mod
    # de-giorgi draws at least the floor, and its report says so
    reports = {}
    for samples in ("2000", "20000"):
        out = str(tmp_path / samples)
        assert main(["run", "de-giorgi", "--samples", samples, "--out", out]) == 0
        reports[samples] = json.load(open(os.path.join(out, "de-giorgi.json")))
    assert reports["2000"]["environment"]["samples"] == 20000
    assert reports["2000"]["records"] == reports["20000"]["records"]
    # a suite without the floor draws the count asked for
    assert SuiteConfig(suite="campbell", samples=1000).drawn_samples == 1000
    # monotonicity's localized measures draw a quarter of it, at least 4,000,
    # and its report records that count
    drawn = []
    real = cli_mod.rho_m_limit

    def spy(*args, **kwargs):
        drawn.append(kwargs["n_samples"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "rho_m_limit", spy)
    out = str(tmp_path / "monotonicity")
    assert main(["run", "monotonicity", "--out", out]) == 0
    report = json.load(open(os.path.join(out, "monotonicity.json")))
    assert report["environment"]["samples"] == 5000
    assert drawn == [5000] * len(batteries.monotone_sheets())
    assert SuiteConfig(suite="monotonicity", samples=2000).drawn_samples == 4000


def test_plot_data_emission(tmp_path):
    payload = {
        "schema_version": 1, "suite": "demo", "environment": {},
        "all_pass": True, "timestamp": "now",
        "records": [
            {"name": "curve", "anchor": "a", "value": 1.0, "target": 1.0,
             "sigma": 0.0, "pass": True,
             "series": {"columns": ["t", "value", "sigma"],
                        "rows": [[0.1, 1.0, 0.01], [0.2, 0.9, 0.01]]}},
            {"name": "plain", "anchor": "a", "value": 1.0, "target": 1.0,
             "sigma": 0.0, "pass": True},
        ],
    }
    assert validate_report_schema(payload) == []
    paths = emit_plot_data(payload, str(tmp_path))
    assert len(paths) == 1 and paths[0].endswith("curve.csv")
    header = open(paths[0]).readline().strip()
    assert header == "t,value,sigma"
    # empty report: header-only file
    empty = dict(payload, records=[])
    paths2 = emit_plot_data(empty, str(tmp_path / "e"))
    assert open(paths2[0]).readline().strip() == "name,value"


def test_list_batteries_cli(capsys):
    assert main(["list-batteries"]) == 0
    out = capsys.readouterr().out
    assert "battery entries" in out


_REFUSE_SCIPY = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy was imported")

from ugmt import batteries, cli
from ugmt.hausdorff import rho_m_on_box

codes = {suite: cli.main(["run", suite, "--seed", "20240901", "--out", f"{sys.argv[1]}/{suite}"])
         for suite in cli.SUITES}
rho0 = {name: rho_m_on_box(A, 0, batteries.UNIT).total
        for name, A in batteries.rho0_sets().items()}
print(json.dumps({"codes": codes, "rho0": rho0}))
"""


def test_suites_run_with_scipy_refused(tmp_path):
    # numpy is the one runtime dependency: every suite, and rho_0 on the
    # closed-form count strata, runs where an import of scipy fails
    import ugmt
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ugmt.__file__)))
    t0 = time.time()
    out = subprocess.run([sys.executable, "-c", _REFUSE_SCIPY, str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert time.time() - t0 < 30.0
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["codes"] == {suite: 0 for suite in SUITES}
    assert list(got["rho0"]) == list(batteries.rho0_sets())
    assert all(0.0 <= p <= 1.0 + 1e-12 for p in got["rho0"].values())


def test_python_dash_m_runs_the_command_line(tmp_path):
    import ugmt
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ugmt.__file__)))
    out = subprocess.run([sys.executable, "-m", "ugmt", "run", "campbell", "--samples", "100",
                          "--out", str(tmp_path)], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "campbell.json").exists()
