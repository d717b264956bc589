import argparse
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
from readoutmap import cli, model, response
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


COMMANDS = ["rates-sweep", "benchmark-eig", "transient", "spectrum-grid", "propagate",
            "compare-gambetta", "validate"]


def test_main_builds_one_parser(tmp_path, monkeypatch):
    built, original = [], argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cfg = write_config(tmp_path, "c.json", {**BASE, "spectrum_grid": {}})
    assert main(["spectrum-grid", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
    assert built == ["readoutmap"]


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command, --config"),
    (["bogus", "--config", "c.json"], "argument command: invalid choice: 'bogus'"),
    (["propagate"], "the following arguments are required: --config"),
    (["propagate", "--config", "c.json", "--threads", "z"],
     "argument --threads: invalid int value: 'z'"),
])
def test_usage_errors_exit_2_with_the_usage_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("usage: readoutmap ")
    assert lines[-1].startswith(f"readoutmap: error: {message}")
    assert not any("Traceback" in ln for ln in lines)


def test_help_exits_0_and_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in COMMANDS)


def test_options_may_come_before_the_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {**BASE, "spectrum_grid": {}})
    after, before = tmp_path / "after.csv", tmp_path / "before.csv"
    assert main(["spectrum-grid", "--config", cfg, "--out", str(after), "--no-header"]) == 0
    assert main(["--no-header", "--out", str(before), "--config", cfg, "spectrum-grid"]) == 0
    assert before.read_bytes() == after.read_bytes()


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


def test_pulsed_propagate_memory_is_flat_in_the_response_grid(tmp_path):
    # 1.2 M response steps whose ramps span the grid, in 600 sample intervals that are
    # all scanned: they go through the recurrence a fixed budget of steps at a time, so
    # no array of the grid's length (16 bytes a step) is ever allocated
    cfg = write_config(tmp_path, "c.json", {
        "delta_ad_mhz": 0.0, "delta_cd_mhz": -10.0, "alpha_a_mhz": 0.0,
        "chi_ac_mhz": -1.5, "kappa_c_mhz": 8.0, "n_a": 2, "n_c": 3,
        "pulse": {"kind": "square-gaussian", "omega_c_mhz": 1.0, "tau_p_ns": 24000.0,
                  "tau_r_ns": 12000.0, "sigma_r_ns": 6000.0},
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


@pytest.mark.parametrize("sample_every", [250, 50])
def test_pulsed_propagate_scans_each_ramp_once_per_level(tmp_path, monkeypatch, sample_every):
    # a propagate-pulse-like grid: 5000 steps, ramps of 1000 steps at both ends of the
    # pulse. The sample intervals that meet a ramp (5 + 6 of 250 steps, or 21 + 22 of 50)
    # make one run each, so the recurrence runs once per ramp and qubit level, over the
    # run's length, however many sample intervals there are
    calls, original = [], response._rk4_linear

    def spy(mu, f, fm, h, z0):
        calls.append(np.shape(f))
        return original(mu, f, fm, h, z0)

    monkeypatch.setattr(response, "_rk4_linear", spy)
    cfg = write_config(tmp_path, "c.json", {
        **BASE, "pulse": {"kind": "square-gaussian", "omega_c_mhz": 10.0, "tau_p_ns": 80.0,
                          "tau_r_ns": 20.0, "sigma_r_ns": 10.0},
        "propagate": {"dt_ns": 0.02, "t_end_ns": 100.0, "sample_every": sample_every}})
    out = tmp_path / "prop.csv"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 0
    assert len(read_rows(out)) == 1 + 5000 // sample_every
    up, down = {250: (1250, 1500), 50: (1050, 1100)}[sample_every]
    assert calls == [(up + 1,)] * 2 + [(down + 1,)] * 2


def test_constant_propagate_evaluates_the_envelope_on_few_intervals(tmp_path, monkeypatch):
    # 1.2 M response steps in 600 sample intervals, all at one constant level:
    # the exact coherence, and the amplitudes with it, take every interval in
    # closed form
    intervals, original = [], model.sg_envelope

    def counting(t, pulse):
        intervals.append(np.size(t))
        return original(t, pulse)

    for module in (model, response):  # every module that holds the name
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


@pytest.mark.parametrize("sample_every", [7, 50, 1000])
def test_propagate_classifies_each_sample_interval_once(tmp_path, monkeypatch, sample_every):
    # one walk of the recurrences gives the coherence and the photon number:
    # 303 steps of a pulse that ends inside the grid, so ramps, top and tail
    calls = []

    def spy(pulse, t0, t1):
        calls.extend(zip(np.ravel(t0).tolist(), np.ravel(t1).tolist()))
        return model.constant_envelope(pulse, t0, t1)

    monkeypatch.setattr(response, "constant_envelope", spy)
    cfg = write_config(tmp_path, "c.json", {
        **BASE, "pulse": {"kind": "square-gaussian", "omega_c_mhz": 4.0, "tau_p_ns": 20.0,
                          "tau_r_ns": 5.0, "sigma_r_ns": 2.5},
        "propagate": {"dt_ns": 0.1, "t_end_ns": 30.3, "sample_every": sample_every}})
    out = tmp_path / "prop.csv"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 0
    intervals = len(read_rows(out)) - 1  # the samples 0, sample_every, ..., 303
    assert len(calls) == intervals == len(set(calls))


def test_propagate_does_not_depend_on_the_resonator_truncation(tmp_path, capsys):
    # configs/propagate.json at 40 MHz: 3.76 photons at level 0, far beyond what
    # n_c = 3 holds. The exact coherence has no Fock truncation, so n_c = 3 and
    # n_c = 10 write the same bytes, and no truncation warning is given
    with open(os.path.join(CONFIGS, "propagate.json")) as fh:
        cfg = json.load(fh)
    cfg["pulse"]["omega_c_mhz"] = 40.0
    cfg["propagate"] = {"dt_ns": 0.005, "t_end_ns": 200.0, "sample_every": 1000}
    products = []
    for n_c in (3, 10):
        out = tmp_path / f"prop{n_c}.csv"
        rc = main(["propagate", "--config", write_config(tmp_path, "c.json", {**cfg, "n_c": n_c}),
                   "--out", str(out)])
        assert rc == 0 and capsys.readouterr().err == ""
        products.append(out.read_bytes())
    assert products[0] == products[1]
    assert len(products[0].splitlines()) == 1 + 41  # the header and 41 samples


def test_propagate_with_a_coherence_that_is_not_finite_is_an_error(tmp_path, capsys):
    # a qubit detuning near the float limit: (eps_1 - eps_0) t overflows the
    # phase beyond t = 1.8 ns
    cfg = write_config(tmp_path, "c.json", {
        **BASE, "delta_ad_mhz": 1e308, "propagate": {"dt_ns": 0.05, "t_end_ns": 200.0}})
    out = tmp_path / "prop.csv"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: coherence of qubit levels (1, 0) is not finite: its phase overflows\n")
    assert not out.exists()


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
    # BASE with every command section: five rules, all within their bounds
    cfg = write_config(tmp_path, "c.json", {**BASE, **FORMAT_SECTIONS})
    out = tmp_path / "report.json"
    rc = main(["validate", "--config", cfg, "--out", str(out)])
    report = json.loads(out.read_text())
    assert rc == 0
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"].values())
    assert sorted(report["checks"]) == [
        "benchmark_eig.truncation", "benchmark_eig.validity_margin", "propagate.dt",
        "transient.dt", "transient.validity_margin"]


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
        # level 1 at |delta_cd + 2 chi| = 7 MHz sets the bound; the 50 MHz drive does not enter
        "transient.dt": (True, "dt / bound = 0.088 (dt 0.1 ns, bound 1.137 ns)"),
        "transient.validity_margin": (False, "margin 1.203 at omega_c = 50 MHz")}),
    ("transient_crosstalk", 0, {
        # the level-1 recurrences of the written pair (1, 0), at delta_cd + 2 chi = -52 MHz
        "transient.dt": (True, "dt / bound = 0.653 (dt 0.1 ns, bound 0.153 ns)"),
        "transient.validity_margin": (True, "margin 0.005448 at omega_c = 14.2 MHz")}),
    ("propagate", 0, {
        # the level-1 response at delta_cd + 2 chi = -12 MHz sets the bound
        "propagate.dt": (True, "dt / bound = 0.0302 (dt 0.02 ns, bound 0.6631 ns)")}),
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


def test_transient_checks_its_step_at_the_levels_of_its_pair(tmp_path, capsys):
    # level 0 allows dt = 1.5 ns (|delta_cd| = 5 MHz), but the written pair (2, 0) runs
    # its recurrences at delta_cd + 4 chi = -325 MHz: at dt 1.5 ns they overflow
    # (re_e reached 7e40 while the photon number stayed below 0.011)
    payload = {"delta_ad_mhz": -2005.0, "delta_cd_mhz": -5.0, "alpha_a_mhz": -330.0,
               "chi_ac_mhz": -80.0, "kappa_c_mhz": 5.0, "n_a": 3, "n_c": 14,
               "pulse": {"kind": "square-gaussian", "omega_c_mhz": 1.0, "tau_p_ns": 400.0,
                         "tau_r_ns": 100.0, "sigma_r_ns": 50.0},
               "transient": {"dt_ns": 1.5, "t_end_ns": 300.0, "levels": [[2, 0]]}}
    run = load_config(write_config(tmp_path, "c.json", payload))
    bound = response.max_stable_dt(run.params, 2)
    assert bound < 1.5 < response.max_stable_dt(run.params)
    for dt, ok in ((1.5, False), (bound * (1.0 + 1e-9), False), (bound * (1.0 - 1e-9), True)):
        payload["transient"] = {"dt_ns": dt, "t_end_ns": 300.0 if dt == 1.5 else 20.0,
                                "levels": [[2, 0]]}
        cfg, out = write_config(tmp_path, "c.json", payload), tmp_path / "t.csv"
        assert main(["transient", "--config", cfg, "--out", str(out)]) == (0 if ok else 1)
        err = capsys.readouterr().err
        assert out.exists() is ok
        report = tmp_path / "report.json"
        assert main(["validate", "--config", cfg, "--out", str(report)]) == (0 if ok else 1)
        assert capsys.readouterr().err == ""
        check = json.loads(report.read_text())["checks"]["transient.dt"]
        assert check["passed"] is ok
        if not ok:
            line = f"step size {dt} ns exceeds stability bound {bound:.4g} ns of qubit level 2"
            assert err == f"error: {line}\n"
            assert check["detail"].endswith(f"ns): {line}")


def test_transient_warns_and_then_stops_at_its_step_rule(tmp_path, capsys):
    # the shipped flat top's margin 1.203 warns; a step of 2 ns is above the level-1 bound
    with open(os.path.join(CONFIGS, "transient_flattop.json")) as fh:
        payload = json.load(fh)
    payload["transient"]["dt_ns"] = 2.0
    cfg, out = write_config(tmp_path, "c.json", payload), tmp_path / "t.csv"
    assert main(["transient", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "warning: perturbative validity margin 1.203 >= 1 at the pulse peak\n"
        "error: step size 2.0 ns exceeds stability bound 1.137 ns of qubit level 1\n")
    assert not out.exists()
    report = tmp_path / "report.json"
    assert main(["validate", "--config", cfg, "--out", str(report)]) == 1
    checks = json.loads(report.read_text())["checks"]
    assert {name: check["passed"] for name, check in checks.items()} == {
        "transient.validity_margin": False, "transient.dt": False}


def test_the_transient_margin_warning_has_validates_digits(tmp_path, capsys):
    # at a 1e154 MHz drive the margin is 3.8e150; the warning printed all its digits
    with open(os.path.join(CONFIGS, "transient_crosstalk.json")) as fh:
        payload = json.load(fh)
    payload["pulse"]["omega_c_mhz"] = 1e154
    payload["transient"]["t_end_ns"] = 20.0
    cfg, report = write_config(tmp_path, "c.json", payload), tmp_path / "report.json"
    margin = model.validity_margin(load_config(cfg).params, 1e154)
    assert main(["transient", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 0
    warning = capsys.readouterr().err
    assert warning == f"warning: perturbative validity margin {margin:.4g} >= 1 at the pulse peak\n"
    assert len(warning) < 80
    assert main(["validate", "--config", cfg, "--out", str(report)]) == 1
    detail = json.loads(report.read_text())["checks"]["transient.validity_margin"]["detail"]
    assert detail.startswith(f"margin {margin:.4g} at ")


def test_a_strong_drive_takes_the_step_its_levels_allow(tmp_path):
    # the shipped flat top drives at 50 MHz, but the step rule reads only the recurrences'
    # rates: at dt = 1 ns (the bound is 1.137 ns) E of the pair matches the shipped
    # dt = 0.1 ns run at every common time. Measured: 1.33e-8 of max |E|
    with open(os.path.join(CONFIGS, "transient_flattop.json")) as fh:
        payload = json.load(fh)
    e = {}
    for dt in (0.1, 1.0):
        payload["transient"]["dt_ns"] = dt
        cfg, out = write_config(tmp_path, "c.json", payload), tmp_path / f"{dt}.csv"
        assert main(["transient", "--config", cfg, "--out", str(out)]) == 0
        e[dt] = np.array([[float(r["t_ns"]), complex(float(r["re_e"]), float(r["im_e"]))]
                          for r in read_rows(out)])
    fine, coarse = e[0.1][::10], e[1.0]
    assert np.array_equal(fine[:, 0], coarse[:, 0])
    assert np.max(np.abs(coarse[:, 1] - fine[:, 1])) <= 3e-8 * np.max(np.abs(fine[:, 1]))


@pytest.mark.parametrize("chi", [1e200, 1.5e308], ids=["dressed-factor", "detuning"])
def test_validate_dt_detail_names_an_overflowing_key(tmp_path, capsys, chi):
    # the level-1 bound of an overflowing chi_ac is about 0 (1e200) or 0 (1.5e308):
    # validate's failed dt check ends with the command's error text, which names the key
    cfg = write_config(tmp_path, "c.json", {
        **BASE, "chi_ac_mhz": chi, "propagate": {"dt_ns": 0.02, "t_end_ns": 20.0}})
    assert main(["propagate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step size 0.02 ns exceeds stability bound ")
    assert f"of qubit level 1: chi_ac_mhz = {chi:g} overflows the dressed " in err
    report = tmp_path / "report.json"
    assert main(["validate", "--config", cfg, "--out", str(report)]) == 1
    assert capsys.readouterr().err == ""
    check = json.loads(report.read_text())["checks"]["propagate.dt"]
    assert check["passed"] is False
    assert check["detail"].endswith("ns): " + err[len("error: "):].rstrip("\n"))


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
    # propagate steps the level-0 and level-1 responses; transient the level-0 one and
    # those of its written pair, here (1, 0)
    bound = min(response.max_stable_dt(run.params, k) for k in (0, 1))
    # level 1 binds: |delta_cd + 2 chi| = 12 > |delta_cd| = 10 (propagate), 52 > 50 (transient)
    assert bound < response.max_stable_dt(run.params)
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


def test_benchmark_eig_near_zero_drive_prints_no_numpy_warning(tmp_path):
    # at 1e-200 MHz the first inverse-iteration solve is not finite and is solved again
    # off its shift; a fresh interpreter shows what a user's stderr would hold
    with open(os.path.join(CONFIGS, "benchmark_eig.json")) as fh:
        payload = {**json.load(fh), "benchmark_eig": {"omega_c_grid_mhz": [0.0, 1e-200, 1.0]}}
    cfg, out = write_config(tmp_path, "c.json", payload), tmp_path / "bench.csv"
    src = os.path.dirname(os.path.dirname(readoutmap.__file__))
    proc = subprocess.run([sys.executable, "-m", "readoutmap.cli", "benchmark-eig", "--config",
                           cfg, "--out", str(out)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(read_rows(out)) == 3


def test_benchmark_eig_rates_do_not_depend_on_the_qubit_splitting(tmp_path, capsys):
    # the (1, 0) block carries delta_ad only as delta_ad * I: solved without it, the
    # Stark shift and the dephasing are the same strings at any delta_ad, up to 1e200,
    # where the block's Frobenius norm would overflow
    with open(os.path.join(CONFIGS, "benchmark_eig.json")) as fh:
        payload = json.load(fh)
    rates = []
    for delta_ad in (-2005.0, 1e12, 1e200):
        out = tmp_path / "bench.csv"
        cfg = write_config(tmp_path, "c.json", {**payload, "delta_ad_mhz": delta_ad})
        assert main(["benchmark-eig", "--config", cfg, "--out", str(out)]) == 0
        assert "error" not in capsys.readouterr().err
        rows = read_rows(out)
        assert [float(row["re_E_mhz"]) for row in rows[:1]] == [delta_ad]
        rates.append([(row["stark_mhz"], row["gamma_phi_mhz"]) for row in rows])
    assert len(rates[0]) == 13 and rates[1] == rates[0] and rates[2] == rates[0]


def test_load_config_roundtrip(tmp_path):
    cfg = write_config(tmp_path, "c.json", BASE)
    rc = load_config(cfg)
    assert rc.params.delta_cd == -5.0
    assert rc.pulse.kind == "constant"


@pytest.mark.parametrize("chi, start, stop, points", [
    (-0.1, -2.0, 2.0, 5),  # through delta_cd = 0: level 0 on its resonance
    (-1.0, 1.0, 3.0, 3),   # through delta_cd = -2 chi: level 1 on its resonance
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
    # one error line that names the swept point and the qubit level on its resonance
    grid = np.linspace(start, stop, points)
    level, d = (0, 0.0) if 0.0 in grid else (1, -2.0 * chi)
    assert err == (f"error: delta_cd = {d:g} MHz puts qubit level {level} on its undamped "
                   f"dressed resonance (delta_cd + 2 chi_ac n = 0, kappa_c = 0)\n")


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
    # a sweep point whose square underflows: level 0's dressed factor is 0
    ("rates-sweep", {"chi_ac_mhz": -1.0,
                     "rates_sweep": {"delta_cd_start_mhz": 1e-200, "delta_cd_stop_mhz": 1e-200,
                                     "points": 1}}, 0, 1e-200),
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


@pytest.mark.parametrize("command", ["rates-sweep", "benchmark-eig", "transient", "spectrum-grid",
                                     "propagate", "compare-gambetta", "validate"])
def test_an_overflowing_chi_ac_is_one_error_line_that_names_it(tmp_path, capsys, command):
    # 2 chi_ac overflows a float: level 0 is still the bare resonator, level 1 has no number
    cfg = write_config(tmp_path, "c.json", {
        **BASE, "chi_ac_mhz": 1.5e308,
        "rates_sweep": {"delta_cd_start_mhz": -2.0, "delta_cd_stop_mhz": 2.0, "points": 5},
        "spectrum_grid": {"photon": 1.0, "levels": 3},
        "compare_gambetta": {"delta_cd_start_mhz": -12.0, "delta_cd_stop_mhz": 8.0, "points": 5},
        "benchmark_eig": {"omega_c_grid_mhz": [0.0, 1.0]},
        "transient": {"dt_ns": 0.5, "t_end_ns": 200.0},
        "propagate": {"dt_ns": 0.05, "t_end_ns": 200.0, "sample_every": 400}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("chi_ac_mhz = 1.5e+308 overflows the dressed detuning delta_cd + 2 chi_ac n of "
            "qubit level 1\n") in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("key, level, commands", [
    ("chi_ac_mhz", 1, ["rates-sweep", "benchmark-eig", "transient", "spectrum-grid", "propagate",
                       "compare-gambetta", "validate"]),
    # the sweeps set delta_cd themselves
    ("delta_cd_mhz", 0, ["benchmark-eig", "transient", "spectrum-grid", "propagate", "validate"]),
    ("kappa_c_mhz", 0, ["rates-sweep", "benchmark-eig", "transient", "spectrum-grid", "propagate",
                        "compare-gambetta", "validate"]),
])
def test_an_overflowing_dressed_factor_is_one_error_line_that_names_its_key(tmp_path, capsys,
                                                                             key, level, commands):
    # 1e200 is a float, its square is not: (delta_cd + 2 chi_ac n)^2 + (kappa_c/2)^2 overflows
    cfg = write_config(tmp_path, "c.json", {
        **BASE, key: 1e200,
        "rates_sweep": {"delta_cd_start_mhz": -2.0, "delta_cd_stop_mhz": 2.0, "points": 5},
        "spectrum_grid": {"photon": 1.0, "levels": 3},
        "compare_gambetta": {"delta_cd_start_mhz": -12.0, "delta_cd_stop_mhz": 8.0, "points": 5},
        "benchmark_eig": {"omega_c_grid_mhz": [0.0, 1.0]},
        "transient": {"dt_ns": 0.5, "t_end_ns": 200.0},
        "propagate": {"dt_ns": 0.05, "t_end_ns": 200.0, "sample_every": 400}})
    for command in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")])
        assert rc == 1, command
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert (f"{key} = 1e+200 overflows the dressed factor (delta_cd + 2 chi_ac n)^2 + "
                f"(kappa_c/2)^2 of qubit level {level}\n") in err, err
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


IMPORT_GUARD_SCRIPT = """
import json, sys
before = set(sys.modules)
import readoutmap.cli
readoutmap.cli.load_config(sys.argv[1])
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"modules": sorted(loaded - set(sys.stdlib_module_names)),
                  "csv_tables": readoutmap.model._csv_tables.cache_info().currsize}))
"""


def test_startup_loads_the_standard_library_and_numpy_only(tmp_path):
    # what every CLI call pays before its command runs (a fresh interpreter
    # importing readoutmap.cli and loading a config) pulls in nothing else, and
    # leaves write_csv's formatting tables to its first call
    cfg = write_config(tmp_path, "c.json", {**BASE, **FORMAT_SECTIONS})
    src = os.path.dirname(os.path.dirname(readoutmap.__file__))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD_SCRIPT, cfg],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          check=True)
    assert json.loads(proc.stdout) == {"modules": ["numpy", "readoutmap"], "csv_tables": 0}


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
    ("transient", "transient_flattop", "transient", "levels", [[None, 0]],
     "error: 'levels' in config section 'transient' must be an integer, got null"),
    ("transient", "transient_flattop", "transient", "levels", 5, "levels"),
    ("propagate", "propagate", "propagate", "dt_ns", 0, "dt"),
    ("propagate", "propagate", "propagate", "dt_ns", -0.02, "dt"),
    ("propagate", "propagate", "propagate", "sample_every", 0, "sample_every"),
    ("propagate", "propagate", "propagate", "sample_every", -3, "sample_every"),
    ("benchmark-eig", "benchmark_eig", "benchmark_eig", "omega_c_grid_mhz", [], "omega_c grid"),
    ("benchmark-eig", "benchmark_eig", "benchmark_eig", "omega_c_grid_mhz", [[0.0, 1.0]],
     "error: 'omega_c_grid_mhz' in config section 'benchmark_eig' must be a finite number, "
     "got [0.0, 1.0]"),
    ("benchmark-eig", "benchmark_eig", "benchmark_eig", "omega_c_grid_mhz", [[0.0], 1.0],
     "error: 'omega_c_grid_mhz' in config section 'benchmark_eig' must be a finite number, "
     "got [0.0]"),
    ("benchmark-eig", "benchmark_eig", "benchmark_eig", "omega_c_max_mhz", 20.1,
     "omega_c_max_mhz"),
    ("spectrum-grid", "spectrum_grid", "spectrum_grid", "levels", 0, "levels"),
    ("spectrum-grid", "spectrum_grid", "spectrum_grid", "levels", -2, "levels"),
    ("transient", "transient_flattop", "transient", "levels", [[-1, 0]], "levels"),
    # rules the commands apply that validate must apply too: the exact error line
    ("benchmark-eig", "benchmark_eig", "benchmark_eig", "omega_c_grid_mhz", [1.0, 2.0],
     "error: omega_c grid must start at 0"),
    ("propagate", "propagate", "propagate", "sample_every", 0,
     "error: sample_every = 0 must be >= 1"),
    ("propagate", "propagate", "propagate", "t_end_ns", -1,
     "error: end time t_end = -1.0 ns must be >= 0"),
    ("transient", "transient_crosstalk", "transient", "t_end_ns", 0,
     "error: correlations need at least two grid points: t_end is below dt/2"),
    ("transient", "transient_crosstalk", "transient", "t_end_ns", -5,
     "error: end time t_end = -5.0 ns must be >= 0"),
    ("transient", "transient_crosstalk", "transient", "levels", [[-1, 0]],
     "error: config section 'transient': 'levels' must be a non-empty list of [n_al, n_ar] "
     "pairs of ints >= 0"),
    ("transient", "transient_crosstalk", None, "kappa_c_mhz", 0,
     "error: correlations_timedomain requires kappa_c > 0"),
    ("spectrum-grid", "spectrum_grid", "spectrum_grid", "levels", 0,
     "error: config section 'spectrum_grid': 'levels' = 0 must be >= 1"),
    ("rates-sweep", "rates_sweep_narrow", "rates_sweep", "points", 0,
     "error: sweep must contain at least one point"),
    ("rates-sweep", "rates_sweep_narrow", "rates_sweep", "point", 5,
     "error: unknown key(s) in config section 'rates_sweep': ['point']"),
    ("compare-gambetta", "compare_gambetta", None, "kappa_c_mhz", 0,
     "error: gambetta_rates requires kappa_c > 0"),
    # a section value that is not of its key's kind: one error line that names the key
    ("propagate", "propagate", "propagate", "dt_ns", None,
     "error: 'dt_ns' in config section 'propagate' must be a finite number, got null"),
    ("propagate", "propagate", "propagate", "t_end_ns", float("inf"),
     "error: 't_end_ns' in config section 'propagate' must be a finite number, got Infinity"),
    ("propagate", "propagate", "propagate", "sample_every", 2.5,
     "error: 'sample_every' in config section 'propagate' must be an integer, got 2.5"),
    ("propagate", "propagate", "propagate", "sample_every", True,
     "error: 'sample_every' in config section 'propagate' must be an integer, got true"),
    ("propagate", "propagate", "propagate", "sample_every", None,
     "error: 'sample_every' in config section 'propagate' must be an integer, got null"),
    ("rates-sweep", "rates_sweep_narrow", "rates_sweep", "points", None,
     "error: 'points' in config section 'rates_sweep' must be an integer, got null"),
    ("rates-sweep", "rates_sweep_narrow", "rates_sweep", "points", 10.9,
     "error: 'points' in config section 'rates_sweep' must be an integer, got 10.9"),
    ("spectrum-grid", "spectrum_grid", "spectrum_grid", "photon", None,
     "error: 'photon' in config section 'spectrum_grid' must be a finite number, got null"),
    ("spectrum-grid", "spectrum_grid", "spectrum_grid", "photon", float("nan"),
     "error: 'photon' in config section 'spectrum_grid' must be a finite number, got NaN"),
    ("transient", "transient_flattop", "transient", "levels", [[1.7, 0]],
     "error: 'levels' in config section 'transient' must be an integer, got 1.7"),
    ("benchmark-eig", "benchmark_eig", "benchmark_eig", "omega_c_grid_mhz", [0.0, float("nan")],
     "error: 'omega_c_grid_mhz' in config section 'benchmark_eig' must be a finite number, "
     "got NaN"),
    ("benchmark-eig", "benchmark_eig", "benchmark_eig", "omega_c_grid_mhz", [0.0, "1"],
     "error: 'omega_c_grid_mhz' in config section 'benchmark_eig' must be a finite number, "
     "got \"1\""),
    ("transient", "transient_flattop", "transient", "levels", [[1, 0], [0, "1"]],
     "error: 'levels' in config section 'transient' must be an integer, got \"1\""),
    ("transient", "transient_flattop", "transient", "levels", [[1, 0, 2]],
     "error: config section 'transient': 'levels' must be a non-empty list of [n_al, n_ar] "
     "pairs of ints >= 0"),
    ("transient", "transient_flattop", "transient", "levels", [[1, 0], 5],
     "error: config section 'transient': 'levels' must be a non-empty list of [n_al, n_ar] "
     "pairs of ints >= 0"),
])
def test_edge_inputs_are_clear_errors(tmp_path, capsys, command, config, section, key, value,
                                      names):
    # a shipped config with one key changed (section None: a system key)
    with open(os.path.join(CONFIGS, config + ".json")) as fh:
        payload = json.load(fh)
    (payload[section] if section else payload)[key] = value
    cfg = write_config(tmp_path, "c.json", payload)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    errors = [ln for ln in lines if ln.startswith("error: ")]
    assert len(errors) == 1 and names in errors[0]
    assert not any("Traceback" in ln for ln in lines)
    # validate agrees: its dt rule fails on a numeric dt, or it stops with the
    # command's error line
    report = tmp_path / "report.json"
    assert main(["validate", "--config", cfg, "--out", str(report)]) == 1
    validate_err = capsys.readouterr().err
    if key == "dt_ns" and isinstance(value, (int, float)):
        assert json.loads(report.read_text())["checks"][f"{section}.dt"]["passed"] is False
    else:
        assert validate_err == errors[0] + "\n"
        assert not report.exists()
        # the reader rejects the section before any warning rule runs
        assert lines == errors


# the configs of the commands whose readers run the command's own closed-form computation
# (the sweep rows in grid order, the spectrum matrix), so validate meets the command's first
# error: benchmark-eig's and transient's readers meet the same rules through their warning
# rules. propagate's reader runs the effective map's check where its steps are within the
# bound; above it validate names an overflowing key in its failed dt check
DRESSED_CONFIGS = ["rates_sweep_narrow", "rates_sweep_split", "spectrum_grid", "compare_gambetta"]


@pytest.mark.parametrize("config, change", [
    *[pytest.param(config, {key: 1e200}, id=f"{config}-{key}") for config in DRESSED_CONFIGS
      for key, (kind, _) in model.PARAM_SPEC.items() if kind is float],
    # undamped sweeps through delta_cd = 0, level 0 on its resonance
    *[pytest.param(config, {"kappa_c_mhz": 0.0}, id=f"{config}-undamped")
      for config in ("rates_sweep_narrow", "rates_sweep_split")],
    pytest.param("spectrum_grid", {"spectrum_grid": {"photon": -1.0, "levels": 3}},
                 id="spectrum_grid-negative-photon"),
    # undamped, level 0 (delta_cd 0) or level 1 (delta_cd + 2 chi = 0) on its resonance:
    # the steps are within the bound, and the effective map cannot divide by the level
    *[pytest.param("propagate", {"kappa_c_mhz": 0.0, "delta_cd_mhz": d},
                   id=f"propagate-undamped-level-{level}") for level, d in ((0, 0.0), (1, 2.0))],
])
def test_validate_stops_where_the_command_stops(tmp_path, capsys, config, change):
    with open(os.path.join(CONFIGS, config + ".json")) as fh:
        payload = {**json.load(fh), **change}
    command = next(k for k in payload
                   if k in ("rates_sweep", "spectrum_grid", "compare_gambetta", "propagate")
                   ).replace("_", "-")
    cfg = write_config(tmp_path, "c.json", payload)

    def errors(argv):
        rc = main([*argv, "--config", cfg, "--out", str(tmp_path / "o")])
        return rc, [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]

    rc, lines = errors([command])
    assert errors(["validate"]) == (rc, lines)
    assert len(lines) == rc


def test_sweep_rows_are_computed_once_and_validate_runs_the_same_rows(tmp_path, monkeypatch):
    # the sweep readers return the rows their command writes: one row call per grid
    # point on the command path, and validate makes the same calls
    calls = []
    for name in ("_rates_row", "_gambetta_row"):
        def spy(p, omega, d, _row=getattr(cli, name), _name=name):
            calls.append((_name, omega, float(d)))
            return _row(p, omega, d)
        monkeypatch.setattr(cli, name, spy)
    cfg = write_config(tmp_path, "c.json", {
        **BASE, "rates_sweep": {"delta_cd_start_mhz": -2.0, "delta_cd_stop_mhz": 2.0, "points": 7},
        "compare_gambetta": {"delta_cd_start_mhz": -12.0, "delta_cd_stop_mhz": 8.0, "points": 5}})
    expected = {"rates-sweep": [("_rates_row", 10.0, d) for d in np.linspace(-2.0, 2.0, 7)],
                "compare-gambetta": [("_gambetta_row", 10.0, d)
                                     for d in np.linspace(-12.0, 8.0, 5)]}
    for command, rows in expected.items():
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        assert calls == rows, command
        assert len(read_rows(tmp_path / "o.csv")) == len(rows)
        calls.clear()
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "report.json")]) == 0
    assert calls == expected["rates-sweep"] + expected["compare-gambetta"]  # section order


def assert_one_error_line(tmp_path, capsys, command, payload):
    """Run `command` and validate on `payload`; both must stop with the same
    single error line, status 1 or 2, no traceback and no output file. Returns it."""
    cfg = write_config(tmp_path, "c.json", payload)
    out, report = tmp_path / "o.csv", tmp_path / "report.json"
    rc = main([command, "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc in (1, 2) and err.count("\n") == 1, (rc, err)
    assert err.startswith("error: " if rc == 1 else "config error: "), err
    assert not out.exists()
    assert main(["validate", "--config", cfg, "--out", str(report)]) == rc
    assert capsys.readouterr().err == err
    assert not report.exists()
    return err.rstrip("\n")


SYSTEM = {k: v for k, v in BASE.items() if k != "pulse"}


@pytest.mark.parametrize("command, payload, line", [
    ("propagate", {**BASE, "delta_cd_mhz": None},
     "config error: 'delta_cd_mhz' in config must be a finite number, got null"),
    ("rates-sweep", {**BASE, "n_c": 4.7},
     "config error: 'n_c' in config must be an integer, got 4.7"),
    ("rates-sweep", {**BASE, "n_a": True},
     "config error: 'n_a' in config must be an integer, got true"),
    ("rates-sweep", {**BASE, "n_c": 10**400},
     "config error: 'n_c' in config must be an integer, got 1000"),
    ("rates-sweep", {**BASE, "chi_ac_mhz": -10**400},
     "config error: 'chi_ac_mhz' in config must be a finite number, got -1000"),
    ("propagate", {**SYSTEM, "pulse": {"kind": "constant", "omega_c_mhz": None}},
     "config error: 'omega_c_mhz' in config section 'pulse' must be a finite number, got null"),
    ("propagate", {**SYSTEM, "pulse": {"kind": "constant", "omega_c_mhz": float("nan")}},
     "config error: 'omega_c_mhz' in config section 'pulse' must be a finite number, got NaN"),
    ("rates-sweep", {**SYSTEM, "pulse": {"kind": "constant", "omega_c_mhz": float("nan")}},
     "config error: 'omega_c_mhz' in config section 'pulse' must be a finite number, got NaN"),
    ("rates-sweep", {**SYSTEM, "pulse": {"kind": "constant", "omega_c_mhz": "10"}},
     "config error: 'omega_c_mhz' in config section 'pulse' must be a finite number, "
     "got \"10\""),
    ("rates-sweep", {**SYSTEM, "pulse": {"kind": 5, "omega_c_mhz": 10.0}},
     "config error: 'kind' in config section 'pulse' must be a string, got 5"),
    ("rates-sweep", {**SYSTEM, "pulse": None},
     "config error: config section 'pulse' must be a JSON object, got null"),
    ("rates-sweep", {**SYSTEM, "pulse": [10.0]},
     "config error: config section 'pulse' must be a JSON object, got [10.0]"),
    ("rates-sweep", SYSTEM, "config error: missing key(s) in config: ['pulse']"),
    ("rates-sweep", {**BASE, "pulse": {"omega_c_mhz": 10.0}},
     "config error: missing key(s) in config section 'pulse': ['kind']"),
    ("rates-sweep", {**BASE, "rates_sweep": 5},
     "error: config section 'rates_sweep' must be a JSON object, got 5"),
    ("rates-sweep", {**BASE, "rates_sweep": {"points": 5}},
     "error: missing key(s) in config section 'rates_sweep': "
     "['delta_cd_start_mhz', 'delta_cd_stop_mhz']"),
    ("propagate", {**BASE, "propagate": {"dt_ns": 0.05}},
     "error: missing key(s) in config section 'propagate': ['t_end_ns']"),
    ("rates-sweep", {**BASE, "out": 5}, "config error: 'out' in config must be a string, got 5"),
    ("rates-sweep", {**BASE, "out": 7.5},
     "config error: 'out' in config must be a string, got 7.5"),
    ("rates-sweep", [BASE], "config error: config must be a JSON object, got [{"),
])
def test_config_values_of_the_wrong_kind_are_one_error_line(tmp_path, capsys, command, payload,
                                                           line):
    assert assert_one_error_line(tmp_path, capsys, command, payload).startswith(line)


SHIPPED_COMMANDS = {"benchmark_eig": "benchmark-eig", "compare_gambetta": "compare-gambetta",
                    "propagate": "propagate", "rates_sweep_narrow": "rates-sweep",
                    "rates_sweep_split": "rates-sweep", "spectrum_grid": "spectrum-grid",
                    "transient_crosstalk": "transient", "transient_flattop": "transient"}


@pytest.mark.parametrize("config", sorted(SHIPPED_COMMANDS))
def test_every_shipped_config_key_rejects_values_of_the_wrong_kind(tmp_path, capsys, config):
    # each scalar key, at the top level or in a section, set to a value its
    # kind does not take (an int key, shipped as a JSON int, also takes no 2.5)
    with open(os.path.join(CONFIGS, config + ".json")) as fh:
        shipped = json.load(fh)
    places = [(None, shipped)] + [(name, sec) for name, sec in shipped.items()
                                  if isinstance(sec, dict)]
    cases = 0
    for section, values in places:
        for key, good in values.items():
            if isinstance(good, (dict, list)):
                continue
            bad = [None, True, "1", float("nan"), float("inf"), [1]]
            for value in bad + [2.5] * isinstance(good, int):
                payload = json.loads(json.dumps(shipped))
                (payload[section] if section else payload)[key] = value
                line = assert_one_error_line(tmp_path, capsys, SHIPPED_COMMANDS[config], payload)
                assert key in line, (section, key, value, line)
                cases += 1
    assert cases >= 7 * 6 + 2  # the system keys, n_a and n_c with 2.5 too


def shipped_payload(config, pulse=None, **sections):
    """A shipped config with pulse keys and whole sections replaced."""
    with open(os.path.join(CONFIGS, config + ".json")) as fh:
        payload = json.load(fh)
    payload["pulse"].update(pulse or {})
    return {**payload, **sections}


SG_PULSE = {"kind": "square-gaussian", "omega_c_mhz": 6.5192, "tau_p_ns": 1000.0,
            "tau_r_ns": 100.0, "sigma_r_ns": 50.0}


@pytest.mark.parametrize("config, pulse, line", [
    # sigma_r^2 underflows to 0: the normalization divides by zero
    ("transient_crosstalk", {"sigma_r_ns": 1e-200}, "tau_r_ns = 100 and sigma_r_ns = 1e-200"),
    # sigma_r^2 overflows
    ("transient_crosstalk", {"sigma_r_ns": 1e200}, "tau_r_ns = 100 and sigma_r_ns = 1e+200"),
    # 2 sigma_r^2 is inf, and sigma_r / tau_r = 1e8 rounds exp to 1: the normalization is 0
    ("transient_flattop", {"sigma_r_ns": 1e154}, "tau_r_ns = 100 and sigma_r_ns = 1e+154"),
    ("transient_flattop", {"sigma_r_ns": 1e10}, "tau_r_ns = 100 and sigma_r_ns = 1e+10"),
    # tau_r^2 underflows to 0: the normalization is 0
    ("transient_crosstalk", {"tau_r_ns": 1e-300}, "tau_r_ns = 1e-300 and sigma_r_ns = 50"),
    # propagate on a square-gaussian pulse: the same ramps
    ("propagate", {**SG_PULSE, "tau_r_ns": 1e-200}, "tau_r_ns = 1e-200 and sigma_r_ns = 50"),
    ("propagate", {**SG_PULSE, "sigma_r_ns": 1e-200}, "tau_r_ns = 100 and sigma_r_ns = 1e-200"),
    ("propagate", {**SG_PULSE, "sigma_r_ns": 1e200}, "tau_r_ns = 100 and sigma_r_ns = 1e+200"),
])
def test_a_pulse_key_the_ramp_cannot_normalize_is_one_config_error(tmp_path, capsys, config,
                                                                  pulse, line):
    payload = shipped_payload(config, pulse)
    assert assert_one_error_line(tmp_path, capsys, SHIPPED_COMMANDS[config], payload) == (
        f"config error: {line} give no ramp: its normalization 1 - exp(-tau_r^2 / "
        "(2 sigma_r^2)) is 0 or out of float range")


STEADY_OVERFLOW = "overflows the steady-state photon number of qubit level 0"


@pytest.mark.parametrize("config, pulse, sections, line", [
    # the square of the drive overflows in the steady-state photon number
    ("rates_sweep_narrow", {"omega_c_mhz": 1e155}, {},
     f"drive omega_c = 1e+155 MHz {STEADY_OVERFLOW}"),
    ("compare_gambetta", {"omega_c_mhz": 1e155}, {},
     f"drive omega_c = 1e+155 MHz {STEADY_OVERFLOW}"),
    ("benchmark_eig", {}, {"benchmark_eig": {"omega_c_grid_mhz": [0.0, 1e155]}},
     f"drive omega_c = 1e+155 MHz {STEADY_OVERFLOW}"),
    # finite photon numbers, but the rates or the transient series built on them overflow
    ("compare_gambetta", {"omega_c_mhz": 1e154}, {},
     "drive omega_c = 1e+154 MHz overflows the row at delta_cd = -12 MHz"),
    ("rates_sweep_split", {"omega_c_mhz": 1e154}, {},
     "drive omega_c = 1e+154 MHz overflows the row at delta_cd = -8 MHz"),
    ("transient_flattop", {"omega_c_mhz": 1e154}, {},
     "drive omega_c = 1e+154 MHz overflows the transient series of qubit levels (1, 0)"),
    ("transient_crosstalk", {"omega_c_mhz": 1e160}, {},
     "drive omega_c = 1e+160 MHz overflows the transient series of qubit levels (1, 0)"),
    # propagate's coherence phase overflows first; its reader runs the same coherence
    ("propagate", {"omega_c_mhz": 1e154}, {},
     "coherence of qubit levels (1, 0) is not finite: its phase overflows"),
])
def test_a_drive_too_large_for_a_float_is_one_error_line(tmp_path, capsys, config, pulse,
                                                         sections, line):
    payload = shipped_payload(config, pulse, **sections)
    assert assert_one_error_line(tmp_path, capsys, SHIPPED_COMMANDS[config], payload) == (
        f"error: {line}")


def error_lines(text):
    return [ln for ln in text.splitlines() if ln.startswith(("error: ", "config error: "))]


@pytest.mark.parametrize("value", [1e-300, 1e-200, 1e154, 1e155, 1e200, 1e300])
@pytest.mark.parametrize("key", ["omega_c_mhz", "tau_r_ns", "sigma_r_ns"])
@pytest.mark.parametrize("config", sorted(SHIPPED_COMMANDS))
def test_pulse_keys_at_the_float_edges_write_finite_numbers_or_one_error_line(
        tmp_path, capsys, config, key, value):
    # a shipped config with one pulse key at an edge of the float range: the command
    # writes finite numbers or stops with one error line, never a traceback, and
    # validate stops with the same line (so validate passing means the command runs)
    cfg = write_config(tmp_path, "c.json", shipped_payload(config, {key: value}))
    out, report = tmp_path / "o.csv", tmp_path / "report.json"
    rc = main([SHIPPED_COMMANDS[config], "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    errors = error_lines(err)
    assert "Traceback" not in err and len(errors) == (rc != 0) and out.exists() is (rc == 0)
    if rc == 0:
        with open(out) as fh:
            values = [float(x) for row in list(csv.reader(fh))[1:] for x in row]
        assert np.all(np.isfinite(values))
    validate_rc = main(["validate", "--config", cfg, "--out", str(report)])
    validate_err = capsys.readouterr().err
    assert "Traceback" not in validate_err and error_lines(validate_err) == errors
    assert validate_rc != 0 or rc == 0
    if rc:
        assert validate_rc == rc


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
