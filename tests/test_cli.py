import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import readoutmap
from readoutmap import liouville, model, response
from readoutmap.cli import load_config, main

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

BASE = {
    "delta_ad_mhz": 0.0, "delta_cd_mhz": -5.0, "alpha_a_mhz": 0.0,
    "chi_ac_mhz": -0.1, "kappa_c_mhz": 1.0, "n_a": 2, "n_c": 4,
    "pulse": {"kind": "constant", "omega_c_mhz": 10.0},
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_unknown_config_key_is_reported(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {**BASE, "typo_key": 1})
    rc = main(["rates-sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "typo_key" in capsys.readouterr().err


def test_empty_sweep_is_an_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {**BASE, "rates_sweep": {
        "delta_cd_start_mhz": -1.0, "delta_cd_stop_mhz": 1.0, "points": 0}})
    rc = main(["rates-sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "point" in capsys.readouterr().err


def test_rates_sweep_single_peak(tmp_path):
    cfg = write_config(tmp_path, "c.json", {**BASE, "rates_sweep": {
        "delta_cd_start_mhz": -1.0, "delta_cd_stop_mhz": 1.2, "points": 221}})
    out = tmp_path / "sweep.csv"
    assert main(["rates-sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 221
    gam = np.array([float(r["gamma_phi_mhz"]) for r in rows])
    det = np.array([float(r["delta_cd_mhz"]) for r in rows])
    step = det[1] - det[0]
    # single collective peak midway between the dressed resonances (0 and 0.2)
    assert abs(det[np.argmax(gam)] - 0.1) <= step + 1e-12
    assert {"n_ground", "n_excited", "stark_mhz"} <= set(rows[0])


def test_rates_sweep_split_peaks(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        **BASE, "chi_ac_mhz": -2.0,
        "rates_sweep": {"delta_cd_start_mhz": -8.0, "delta_cd_stop_mhz": 12.0, "points": 801}})
    out = tmp_path / "sweep.csv"
    assert main(["rates-sweep", "--config", cfg, "--out", str(out)]) == 0
    gam = np.array([float(r["gamma_phi_mhz"]) for r in read_rows(out)])
    interior = (gam[1:-1] > gam[:-2]) & (gam[1:-1] > gam[2:])
    assert int(np.sum(interior)) == 2


def test_benchmark_eig_small(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        **BASE, "chi_ac_mhz": -1.0, "n_c": 4,
        "benchmark_eig": {"omega_c_grid_mhz": [0.0, 1.0, 2.0]}})
    out = tmp_path / "bench.csv"
    assert main(["benchmark-eig", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
    rows = read_rows(out)
    assert len(rows) == 3
    assert float(rows[0]["stark_mhz"]) == 0.0
    assert float(rows[0]["gamma_phi_mhz"]) == 0.0
    assert float(rows[1]["gamma_phi_pert_mhz"]) > 0.0
    # numeric and perturbative dephasing agree at low power
    ratio = float(rows[1]["gamma_phi_mhz"]) / float(rows[1]["gamma_phi_pert_mhz"])
    assert 0.95 < ratio < 1.05


def test_transient_crosstalk_numbers(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "delta_ad_mhz": -2050.0, "delta_cd_mhz": -50.0, "alpha_a_mhz": -330.0,
        "chi_ac_mhz": -1.0, "kappa_c_mhz": 5.0, "n_a": 2, "n_c": 6,
        "pulse": {"kind": "square-gaussian", "omega_c_mhz": 14.2,
                  "tau_p_ns": 1000.0, "tau_r_ns": 100.0, "sigma_r_ns": 50.0},
        "transient": {"dt_ns": 0.1, "t_end_ns": 1300.0, "levels": [[1, 0]]}})
    out = tmp_path / "transient.csv"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    mid = rows[int(round(500.0 / 0.1))]
    assert float(mid["photon"]) == pytest.approx(0.0201, abs=5e-4)
    assert float(mid["re_e"]) == pytest.approx(-0.0387, abs=2e-3)  # Stark ~ -40 kHz


def test_spectrum_grid(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        **BASE, "chi_ac_mhz": -1.0, "n_a": 3,
        "spectrum_grid": {"photon": 10.0, "levels": 3}})
    out = tmp_path / "grid.csv"
    assert main(["spectrum-grid", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 9
    for r in rows:
        if r["n_al"] == r["n_ar"]:
            assert float(r["re_E"]) == 0.0 and float(r["im_E"]) == 0.0
        else:
            assert float(r["im_E"]) < 0.0


def test_propagate_small(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "delta_ad_mhz": 0.0, "delta_cd_mhz": -10.0, "alpha_a_mhz": 0.0,
        "chi_ac_mhz": -1.0, "kappa_c_mhz": 5.0, "n_a": 2, "n_c": 4,
        "pulse": {"kind": "constant", "omega_c_mhz": 2.0},
        "propagate": {"dt_ns": 0.05, "t_end_ns": 4000.0, "sample_every": 400}})
    out = tmp_path / "prop.csv"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0].keys() == {"t_ns", "abs_rho10_full", "abs_rho10_eff", "photon"}
    assert float(rows[0]["abs_rho10_full"]) == pytest.approx(0.5)
    full_end = float(rows[-1]["abs_rho10_full"])
    eff_end = float(rows[-1]["abs_rho10_eff"])
    assert full_end < 0.5 and eff_end < 0.5
    assert abs(full_end / eff_end - 1.0) < 0.05


def test_propagate_memory_is_flat_in_the_response_grid(tmp_path):
    # 1.2 M response steps: eta is solved at the 601 written samples only, so
    # no array of the grid's length (16 bytes a step) is ever allocated
    cfg = write_config(tmp_path, "c.json", {
        "delta_ad_mhz": 0.0, "delta_cd_mhz": -10.0, "alpha_a_mhz": 0.0,
        "chi_ac_mhz": -1.5, "kappa_c_mhz": 8.0, "n_a": 2, "n_c": 3,
        "pulse": {"kind": "constant", "omega_c_mhz": 1.0},
        "propagate": {"dt_ns": 0.02, "t_end_ns": 24000.0, "sample_every": 2000}})
    out = tmp_path / "prop.csv"
    tracemalloc.start()
    try:
        assert main(["propagate", "--config", cfg, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(read_rows(out)) == 601
    assert peak < 16 * 1_200_001 / 4


def test_constant_propagate_evaluates_the_envelope_on_few_intervals(tmp_path, monkeypatch):
    # 1.2 M response steps and 60 k propagate steps in 600 sample intervals,
    # all at one constant level: one evaluated interval serves them all
    intervals, original = [], model.sg_envelope

    def counting(t, pulse):
        intervals.append(np.size(t))
        return original(t, pulse)

    for module in (liouville, model, response):  # every module that holds the name
        monkeypatch.setattr(module, "sg_envelope", counting)
    cfg = write_config(tmp_path, "c.json", {
        "delta_ad_mhz": 0.0, "delta_cd_mhz": -10.0, "alpha_a_mhz": 0.0,
        "chi_ac_mhz": -1.5, "kappa_c_mhz": 8.0, "n_a": 2, "n_c": 3,
        "pulse": {"kind": "constant", "omega_c_mhz": 1.0},
        "propagate": {"dt_ns": 0.02, "t_end_ns": 24000.0, "sample_every": 2000}})
    out = tmp_path / "prop.csv"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 0
    assert len(read_rows(out)) == 601
    assert len(intervals) <= 3


def test_propagate_warns_when_the_truncation_is_too_small(tmp_path, capsys):
    # configs/propagate.json at n_c = 3 and 40 MHz: 3.76 photons at level 0
    # against n_c/4 = 0.75; the run still writes its (truncated) result
    with open(os.path.join(CONFIGS, "propagate.json")) as fh:
        cfg = json.load(fh)
    cfg["n_c"] = 3
    cfg["pulse"]["omega_c_mhz"] = 40.0
    cfg["propagate"] = {"dt_ns": 0.005, "t_end_ns": 200.0, "sample_every": 1000}
    out = tmp_path / "prop.csv"
    rc = main(["propagate", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)])
    assert capsys.readouterr().err == (
        "warning: peak steady-state photon number 3.76 >= n_c/4 = 0.75: too large for "
        "n_c = 3; increase the resonator truncation\n")
    assert rc == 0 and len(read_rows(out)) == 41


def test_shipped_propagate_gives_no_truncation_warning(tmp_path, capsys):
    # about 0.1 photon against the n_c/4 = 2.5 bound
    out = tmp_path / "prop.csv"
    assert main(["propagate", "--config", os.path.join(CONFIGS, "propagate.json"),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_transient_levels_above_n_a_are_a_result(tmp_path):
    # the closed form does not depend on n_a: a level at or above the model's
    # qubit levels is computed, not rejected, with the same bytes for any n_a
    products = []
    for n_a in (2, 3):
        cfg = write_config(tmp_path, f"c{n_a}.json", {
            **BASE, "n_a": n_a, "transient": {"dt_ns": 0.5, "t_end_ns": 200.0, "levels": [[2, 0]]}})
        out = tmp_path / f"t{n_a}.csv"
        assert main(["transient", "--config", cfg, "--out", str(out)]) == 0
        products.append(out.read_bytes())
    assert products[0] == products[1]


def test_compare_gambetta(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        **BASE, "chi_ac_mhz": -2.0,
        "compare_gambetta": {"delta_cd_start_mhz": -12.0, "delta_cd_stop_mhz": 8.0,
                             "points": 100}})
    out = tmp_path / "g.csv"
    assert main(["compare-gambetta", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 100
    for r in rows:
        ours = float(r["gamma_phi_mhz"])
        shifted = float(r["gamma_phi_gambetta_shifted_mhz"])
        assert abs(shifted / ours - 1.0) < 1e-12


def test_byte_identical_reruns_and_no_header(tmp_path):
    cfg = write_config(tmp_path, "c.json", {**BASE, "rates_sweep": {
        "delta_cd_start_mhz": -2.0, "delta_cd_stop_mhz": 2.0, "points": 41}})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["rates-sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["rates-sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "c.csv"
    assert main(["rates-sweep", "--config", cfg, "--out", str(out3), "--no-header"]) == 0
    assert len(out3.read_text().splitlines()) == 41


def test_validate_passes(tmp_path):
    # BASE with every command section: six rules, all within their bounds
    cfg = write_config(tmp_path, "c.json", {**BASE, **FORMAT_SECTIONS})
    out = tmp_path / "report.json"
    rc = main(["validate", "--config", cfg, "--out", str(out)])
    report = json.loads(out.read_text())
    assert rc == 0
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"].values())
    assert sorted(report["checks"]) == [
        "benchmark_eig.truncation", "benchmark_eig.validity_margin", "propagate.dt",
        "propagate.truncation", "transient.dt", "transient.validity_margin"]


def test_validate_without_rule_sections_has_no_checks(tmp_path, capsys):
    assert main(["validate", "--config", write_config(tmp_path, "c.json", BASE)]) == 0
    assert json.loads(capsys.readouterr().out) == {"passed": True, "checks": {}}


# each shipped config: the exit code, and for each check whether it passes
# and how its detail starts
SHIPPED_VALIDATION = [
    ("benchmark_eig", 1, {
        # 4.00 photons at the strongest drive against n_c/4 = 3.5
        "benchmark_eig.truncation": (False, "photon number 4 >= n_c/4 = 3.5: "),
        "benchmark_eig.validity_margin": (True, "margin 0.57 at omega_c = 20.0998 MHz")}),
    ("transient_flattop", 1, {
        "transient.dt": (True, "dt / bound = 0.628 "),
        "transient.validity_margin": (False, "margin 1.203 at omega_c = 50 MHz")}),
    ("transient_crosstalk", 0, {
        "transient.dt": (True, "dt / bound = 0.628 "),
        "transient.validity_margin": (True, "margin 0.005448 at omega_c = 14.2 MHz")}),
    ("propagate", 0, {
        "propagate.dt": (True, "dt / bound = 0.344 "),
        "propagate.truncation": (True, "photon number 0.1 < n_c/4 = 2.5")}),
    ("rates_sweep_narrow", 0, {}),
    ("rates_sweep_split", 0, {}),
    ("spectrum_grid", 0, {}),
    ("compare_gambetta", 0, {}),
]


@pytest.mark.parametrize("config, rc, expected", SHIPPED_VALIDATION,
                         ids=[c for c, _, _ in SHIPPED_VALIDATION])
def test_validate_on_the_shipped_configs(tmp_path, capsys, config, rc, expected):
    out = tmp_path / "report.json"
    assert main(["validate", "--config", os.path.join(CONFIGS, config + ".json"),
                 "--out", str(out)]) == rc
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["passed"] is (rc == 0)
    assert sorted(report["checks"]) == sorted(expected)
    for name, (passed, detail) in expected.items():
        assert report["checks"][name]["passed"] is passed
        assert report["checks"][name]["detail"].startswith(detail)


@pytest.mark.parametrize("command, config, section", [
    ("propagate", "propagate", "propagate"),
    ("transient", "transient_crosstalk", "transient"),
])
def test_validate_dt_rule_is_the_commands_rule(tmp_path, capsys, command, config, section):
    # just below the bound validate passes and the command runs; just above,
    # validate fails and the command stops with its stability error
    with open(os.path.join(CONFIGS, config + ".json")) as fh:
        payload = json.load(fh)
    payload[section]["t_end_ns"] = 20.0
    run = load_config(write_config(tmp_path, "c.json", payload))
    if section == "propagate":
        bound = liouville.stability_bound(*liouville.generator_blocks(run.params),
                                          run.pulse.omega_c)[0]
    else:
        bound = response.max_stable_dt(run.params, run.pulse)
    for factor, ok in ((1.0 - 1e-9, True), (1.0 + 1e-9, False)):
        payload[section]["dt_ns"] = bound * factor
        cfg = write_config(tmp_path, "c.json", payload)
        report = tmp_path / "report.json"
        assert main(["validate", "--config", cfg, "--out", str(report)]) == (0 if ok else 1)
        assert json.loads(report.read_text())["checks"][f"{section}.dt"]["passed"] is ok
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == \
            (0 if ok else 1)
        assert ("stability bound" in capsys.readouterr().err) is not ok


def test_benchmark_eig_warns_when_the_truncation_is_too_small(tmp_path, capsys):
    # the shipped grid reaches 4.00 photons at n_c = 14 (bound 3.5); without
    # its last two points (at most 3.0 photons) it stays below the bound
    with open(os.path.join(CONFIGS, "benchmark_eig.json")) as fh:
        payload = json.load(fh)
    out = tmp_path / "bench.csv"
    assert main(["benchmark-eig", "--config", os.path.join(CONFIGS, "benchmark_eig.json"),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: peak steady-state photon number 4 >= n_c/4 = 3.5: too large for "
        "n_c = 14; increase the resonator truncation\n")
    assert len(read_rows(out)) == 13
    payload["benchmark_eig"]["omega_c_grid_mhz"] = payload["benchmark_eig"]["omega_c_grid_mhz"][:-2]
    assert main(["benchmark-eig", "--config", write_config(tmp_path, "c.json", payload),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(read_rows(out)) == 11


def test_load_config_roundtrip(tmp_path):
    cfg = write_config(tmp_path, "c.json", BASE)
    rc = load_config(cfg)
    assert rc.params.delta_cd == -5.0
    assert rc.pulse.kind == "constant"


@pytest.mark.parametrize("chi, start, stop, points", [
    (-0.1, -2.0, 2.0, 5),  # through delta_cd = 0: the ground-state resonance
    (-1.0, 1.0, 3.0, 3),   # through delta_cd = -2 chi: the excited-state resonance
])
def test_rates_sweep_through_an_undamped_resonance_is_an_error(tmp_path, capsys,
                                                              chi, start, stop, points):
    cfg = write_config(tmp_path, "c.json", {
        **BASE, "chi_ac_mhz": chi, "kappa_c_mhz": 0.0,
        "rates_sweep": {"delta_cd_start_mhz": start, "delta_cd_stop_mhz": stop,
                        "points": points}})
    rc = main(["rates-sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # the message names the swept point and the resonance it sits on
    grid = np.linspace(start, stop, points)
    level, d = ("ground", 0.0) if 0.0 in grid else ("excited", -2.0 * chi)
    assert f"delta_cd = {d:g} MHz is on the undamped {level}-state resonance" in err


@pytest.mark.parametrize("command, fields, level, d", [
    # level 1's dressed detuning 2 + 2 * (-1) * 1 vanishes: (0, 1) entry is singular
    ("spectrum-grid", {"delta_cd_mhz": 2.0, "chi_ac_mhz": -1.0,
                       "spectrum_grid": {"photon": 1.0, "levels": 3}}, 1, 2.0),
    # undriven, undamped, resonant: the response step has no bound, and the
    # effective map's ground level sits on its resonance
    ("propagate", {"delta_cd_mhz": 0.0, "chi_ac_mhz": -1.0,
                   "pulse": {"kind": "constant", "omega_c_mhz": 0.0},
                   "propagate": {"dt_ns": 0.5, "t_end_ns": 20.0, "sample_every": 10}}, 0, 0.0),
    # level 1 on its resonance: the validity margin has no value
    ("transient", {"delta_cd_mhz": 2.0, "chi_ac_mhz": -1.0,
                   "transient": {"dt_ns": 0.5, "t_end_ns": 20.0}}, 1, 2.0),
    ("validate", {"delta_cd_mhz": 2.0, "chi_ac_mhz": -1.0,
                  "benchmark_eig": {"omega_c_grid_mhz": [0.0, 1.0]},
                  "transient": {"dt_ns": 0.5, "t_end_ns": 20.0},
                  "propagate": {"dt_ns": 0.05, "t_end_ns": 20.0}}, 1, 2.0),
])
def test_undamped_dressed_resonance_is_an_error(tmp_path, capsys, command, fields, level, d):
    cfg = write_config(tmp_path, "c.json", {**BASE, "kappa_c_mhz": 0.0, **fields})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    # one error line and nothing else: no traceback, no report, no CSV
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (f"delta_cd = {d:g} MHz puts qubit level {level} on its undamped dressed "
            f"resonance") in err
    assert not (tmp_path / "o.csv").exists()


STARTUP_SCRIPT = """
import json, sys
import readoutmap, readoutmap.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

cfg, out = sys.argv[1], sys.argv[2]
loaded = {"import": scipy_modules()}
for command, extra in (("rates-sweep", []), ("spectrum-grid", []), ("compare-gambetta", []),
                       ("benchmark-eig", ["--threads", "2"]), ("transient", []),
                       ("propagate", []), ("validate", [])):
    assert cli.main([command, "--config", cfg, "--out", out] + extra) == 0
    loaded[command] = scipy_modules()
print(json.dumps(loaded))
"""


def test_startup_and_eigensolves_load_no_scipy(tmp_path):
    # the package runs on numpy alone: no subcommand loads any scipy module
    cfg = write_config(tmp_path, "c.json", {
        **BASE,
        "rates_sweep": {"delta_cd_start_mhz": -2.0, "delta_cd_stop_mhz": 2.0, "points": 5},
        "spectrum_grid": {"photon": 1.0, "levels": 3},
        "compare_gambetta": {"delta_cd_start_mhz": -12.0, "delta_cd_stop_mhz": 8.0, "points": 5},
        "benchmark_eig": {"omega_c_grid_mhz": [0.0, 1.0]},
        "transient": {"dt_ns": 0.5, "t_end_ns": 200.0},
        "propagate": {"dt_ns": 0.05, "t_end_ns": 200.0, "sample_every": 400}})
    src = os.path.dirname(os.path.dirname(readoutmap.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, cfg, str(tmp_path / "o.csv")],
                          env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(proc.stdout)
    for stage in ("import", "rates-sweep", "spectrum-grid", "compare-gambetta", "benchmark-eig"):
        assert loaded[stage] == [], stage
    for stage in ("transient", "propagate", "validate"):
        assert loaded[stage] == [], stage


FORMAT_SECTIONS = {
    "rates_sweep": {"delta_cd_start_mhz": -2.0, "delta_cd_stop_mhz": 2.0, "points": 41},
    "benchmark_eig": {"omega_c_grid_mhz": [0.0, 1.0, 2.0]},
    # the transient's first row holds exact zeros, one of them signed
    "transient": {"dt_ns": 0.5, "t_end_ns": 200.0},
    "spectrum_grid": {"photon": 10.0, "levels": 2},
    "propagate": {"dt_ns": 0.05, "t_end_ns": 200.0, "sample_every": 400},
    "compare_gambetta": {"delta_cd_start_mhz": -12.0, "delta_cd_stop_mhz": 8.0, "points": 20},
}


@pytest.mark.parametrize("command", ["rates-sweep", "benchmark-eig", "transient",
                                     "spectrum-grid", "propagate", "compare-gambetta"])
def test_csv_format_contract(tmp_path, command):
    cfg = write_config(tmp_path, "c.json", {**BASE, **FORMAT_SECTIONS})
    full, bare = tmp_path / "full.csv", tmp_path / "bare.csv"
    assert main([command, "--config", cfg, "--out", str(full)]) == 0
    assert main([command, "--config", cfg, "--out", str(bare), "--no-header"]) == 0
    text = full.read_bytes().decode()
    assert text.endswith("\r\n")
    lines = text.split("\r\n")[:-1]
    assert not any("\r" in ln or "\n" in ln for ln in lines)
    assert "-0" not in [field for ln in lines for field in ln.split(",")]
    assert bare.read_bytes().decode() == "".join(ln + "\r\n" for ln in lines[1:])


@pytest.mark.parametrize("command, config, section, key, value, names", [
    ("transient", "transient_flattop", "transient", "dt_ns", 0, "dt"),
    ("transient", "transient_flattop", "transient", "dt_ns", -0.1, "dt"),
    ("transient", "transient_flattop", "transient", "t_end_ns", -5, "t_end"),
    ("transient", "transient_flattop", "transient", "t_end_ns", 0, "t_end"),
    ("transient", "transient_flattop", "transient", "levels", [], "levels"),
    ("transient", "transient_flattop", "transient", "levels", [[1]], "levels"),
    ("transient", "transient_flattop", "transient", "levels", [[None, 0]], "levels"),
    ("transient", "transient_flattop", "transient", "levels", 5, "levels"),
    ("propagate", "propagate", "propagate", "dt_ns", 0, "dt"),
    ("propagate", "propagate", "propagate", "dt_ns", -0.02, "dt"),
    ("propagate", "propagate", "propagate", "sample_every", 0, "sample_every"),
    ("propagate", "propagate", "propagate", "sample_every", -3, "sample_every"),
    ("benchmark-eig", "benchmark_eig", "benchmark_eig", "omega_c_grid_mhz", [], "omega_c grid"),
    ("benchmark-eig", "benchmark_eig", "benchmark_eig", "omega_c_grid_mhz", [[0.0, 1.0]],
     "omega_c grid"),
    ("benchmark-eig", "benchmark_eig", "benchmark_eig", "omega_c_grid_mhz", [[0.0], 1.0],
     "omega_c grid"),
    ("benchmark-eig", "benchmark_eig", "benchmark_eig", "omega_c_max_mhz", 20.1,
     "omega_c_max_mhz"),
    ("spectrum-grid", "spectrum_grid", "spectrum_grid", "levels", 0, "levels"),
    ("spectrum-grid", "spectrum_grid", "spectrum_grid", "levels", -2, "levels"),
    ("transient", "transient_flattop", "transient", "levels", [[-1, 0]], "levels"),
])
def test_edge_inputs_are_clear_errors(tmp_path, capsys, command, config, section, key, value,
                                      names):
    # a shipped config with one key changed
    with open(os.path.join(CONFIGS, config + ".json")) as fh:
        payload = json.load(fh)
    payload[section][key] = value
    cfg = write_config(tmp_path, "c.json", payload)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    errors = [ln for ln in lines if ln.startswith("error: ")]
    assert len(errors) == 1 and names in errors[0]
    assert not any("Traceback" in ln for ln in lines)


@pytest.mark.parametrize("threads", [0, -1])
def test_benchmark_eig_needs_a_worker_thread(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, "c.json", {**BASE, "benchmark_eig": {"omega_c_grid_mhz": [0.0]}})
    rc = main(["benchmark-eig", "--config", cfg, "--out", str(tmp_path / "o.csv"),
               "--threads", str(threads)])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert [ln for ln in lines if ln.startswith("error: ")] == \
        [f"error: n_workers = {threads} must be >= 1"]
    assert not any("Traceback" in ln for ln in lines)
    assert not (tmp_path / "o.csv").exists()


# SHA-256 of shipped products that run element-wise float arithmetic only (no
# LAPACK), so their bytes do not depend on BLAS threads; a change to any of
# them is a change to a published number
SHIPPED_DIGESTS = [
    ("rates-sweep", "rates_sweep_narrow",
     "70762c8bc74bebe27d81d91ac10377844d242c9304595c8f5aa1fbc4681ba6c7"),
    ("rates-sweep", "rates_sweep_split",
     "aeb077f3415ea2c8a95279448a67fb215ff497d4b117335160aa6906b76c37b9"),
    ("compare-gambetta", "compare_gambetta",
     "6062252ff8ea898a0412a1942f2f2fd31ae96ec5a47120d456582e9b89f4e9af"),
    ("spectrum-grid", "spectrum_grid",
     "dd87073b911952f950f49d1fb1b0d098d952c32e48fae2378b25648265cf9bfa"),
]


def test_shipped_products_keep_their_bytes(tmp_path):
    assert [name for name in readoutmap.__all__ if not hasattr(readoutmap, name)] == []
    changed = []
    for command, config, digest in SHIPPED_DIGESTS:
        out = tmp_path / f"{config}.csv"
        assert main([command, "--config", os.path.join(CONFIGS, config + ".json"),
                     "--out", str(out)]) == 0
        if hashlib.sha256(out.read_bytes()).hexdigest() != digest:
            changed.append(config)
    assert changed == []
