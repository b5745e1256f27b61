import json
import os

import pytest

from ugmt import batteries
from ugmt.cli import (ConfigError, Report, SuiteConfig, emit_plot_data,
                      laplace_target, list_batteries_text, main, run_suite,
                      validate_report_schema)
from ugmt.geometry import SmoothFunction, gauss_legendre, interval
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
    for name in cat:
        batteries.build(name)  # every entry resolves
    with pytest.raises(KeyError):
        batteries.build("missing-entry")
    text = list_batteries_text()
    assert all(name in text for name in cat)


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


def test_reports_record_the_sample_count_drawn(tmp_path):
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
