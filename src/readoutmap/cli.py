"""Command-line driver: JSON config in, CSV/JSON data out.

Subcommands map one-to-one onto plot-ready data products:

  rates-sweep       dephasing / Stark shift vs resonator-drive detuning
  benchmark-eig     exact eigenvalue sweep vs the perturbative rates
  transient         pulse response, correlation functions, generator entries
  spectrum-grid     effective spectrum over a level grid
  propagate         full master-equation coherence vs the effective map
  compare-gambetta  two-level-model dephasing vs ours, with the chi offset
  validate          run the invariant suite, emit a JSON report

All frequencies in configs are cyclic MHz; times are ns. Output is
deterministic (byte-identical across reruns); --no-header drops the CSV
header row.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import effective, liouville, response, spectra, transient
from .model import (PulseSpec, SystemParams, detuning_l, detuning_r, params_from_dict,
                    pulse_from_dict, sg_envelope, truncation_error, validity_margin, write_csv)

_TOP_KEYS = {"delta_ad_mhz", "delta_cd_mhz", "alpha_a_mhz", "chi_ac_mhz", "kappa_c_mhz",
             "n_a", "n_c", "pulse", "out",
             "rates_sweep", "benchmark_eig", "transient", "spectrum_grid",
             "propagate", "compare_gambetta"}


@dataclass(frozen=True)
class RunConfig:
    """Validated system + pulse definition plus per-command sections."""

    params: SystemParams
    pulse: PulseSpec
    sections: dict
    out: str | None


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        raw = json.load(fh)
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown config key(s): {sorted(unknown)}")
    params = params_from_dict({k: raw[k] for k in raw
                               if k.endswith("_mhz") or k in ("n_a", "n_c")})
    if "pulse" not in raw:
        raise ValueError("config requires a 'pulse' section")
    pulse = pulse_from_dict(raw["pulse"])
    sections = {k: raw[k] for k in raw if k in
                ("rates_sweep", "benchmark_eig", "transient", "spectrum_grid",
                 "propagate", "compare_gambetta")}
    return RunConfig(params=params, pulse=pulse, sections=sections, out=raw.get("out"))


def _section(config: RunConfig, name: str, allowed: set[str]) -> dict:
    sec = config.sections.get(name, {})
    unknown = set(sec) - allowed
    if unknown:
        raise ValueError(f"unknown key(s) in config section '{name}': {sorted(unknown)}")
    return sec


def _linspace(sec: dict, start_key: str, stop_key: str, default_points: int = 101):
    if start_key not in sec or stop_key not in sec:
        raise ValueError(f"config section requires '{start_key}' and '{stop_key}'")
    points = int(sec.get("points", default_points))
    if points < 1:
        raise ValueError("sweep must contain at least one point")
    return np.linspace(float(sec[start_key]), float(sec[stop_key]), points)


def cmd_rates_sweep(config: RunConfig, out: str, header: bool, threads: int) -> None:
    sec = _section(config, "rates_sweep",
                   {"delta_cd_start_mhz", "delta_cd_stop_mhz", "points"})
    grid = _linspace(sec, "delta_cd_start_mhz", "delta_cd_stop_mhz", 401)
    p = config.params
    omega = config.pulse.omega_c
    rows = []
    for d in grid:
        pd = replace(p, delta_cd=float(d))
        try:
            n_ground = response.steady_state(pd, omega)[1]
            n_excited = response.steady_state(replace(pd, delta_cd=pd.delta_cd + 2.0 * p.chi_ac),
                                              omega)[1]
        except ValueError:
            level = "ground" if pd.delta_cd == 0.0 else "excited"
            raise ValueError(f"sweep point delta_cd = {d + 0.0:g} MHz is on the undamped "
                             f"{level}-state resonance (kappa_c = 0): no steady state") from None
        pair = effective.rates(pd, n_ground)
        rows.append((d, pair.dephasing, pair.stark, n_ground, n_excited))
    effective.write_rates_sweep_csv(out, rows, header=header)


def cmd_benchmark_eig(config: RunConfig, out: str, header: bool, threads: int) -> None:
    sec = _section(config, "benchmark_eig", {"omega_c_grid_mhz"})
    try:
        grid = np.asarray(sec.get("omega_c_grid_mhz", []), dtype=float)
    except (TypeError, ValueError):  # ragged lists, strings
        grid = np.empty(0)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("config section 'benchmark_eig' requires 'omega_c_grid_mhz', "
                         "a non-empty 1-D omega_c grid")
    p = config.params
    margin = validity_margin(p, float(np.max(grid)))
    if margin >= 1.0:
        print(f"warning: perturbative validity margin {margin:.3f} >= 1 at the strongest drive",
              file=sys.stderr)
    track = spectra.track_coherence(p, grid, n_workers=threads)
    pert = [effective.rates(p, n) for n in track.photons]
    spectra.write_track_csv(out, track, p, header=header,
                            extra_cols={"gamma_phi_pert_mhz": [r.dephasing for r in pert],
                                        "stark_pert_mhz": [r.stark for r in pert]})


def cmd_transient(config: RunConfig, out: str, header: bool, threads: int) -> None:
    sec = _section(config, "transient", {"dt_ns", "t_end_ns", "levels"})
    if "dt_ns" not in sec or "t_end_ns" not in sec:
        raise ValueError("config section 'transient' requires 'dt_ns' and 't_end_ns'")
    margin = validity_margin(config.params, config.pulse.omega_c)
    if margin >= 1.0:
        print(f"warning: perturbative validity margin {margin:.3f} >= 1 at the pulse peak",
              file=sys.stderr)
    # every entry must be a pair of qubit levels; the CSV holds the first one only
    try:
        levels = [(int(m), int(n)) for m, n in sec.get("levels", [[1, 0]])]
    except (TypeError, ValueError):
        levels = []
    if not levels or min(min(pair) for pair in levels) < 0:
        raise ValueError("config section 'transient': 'levels' must be a non-empty list of "
                         "[n_al, n_ar] pairs of ints >= 0")
    traj = response.solve_eta(config.params, config.pulse,
                              float(sec["t_end_ns"]), float(sec["dt_ns"]))
    corr = transient.correlations_timedomain(traj, config.params, levels[:1])
    gen = transient.effective_generator_timedep(corr, traj, config.params, levels[:1])
    transient.write_transient_csv(out, traj, corr, gen, pair=levels[0], header=header)


def cmd_spectrum_grid(config: RunConfig, out: str, header: bool, threads: int) -> None:
    sec = _section(config, "spectrum_grid", {"photon", "levels"})
    photon = float(sec.get("photon", 1.0))
    levels = int(sec.get("levels", 3))
    if levels < 1:
        raise ValueError(f"config section 'spectrum_grid': 'levels' = {levels} must be >= 1")
    effective.write_spectrum_grid_csv(out, config.params, levels, photon, header=header)


def cmd_propagate(config: RunConfig, out: str, header: bool, threads: int) -> None:
    sec = _section(config, "propagate", {"dt_ns", "t_end_ns", "sample_every"})
    if "dt_ns" not in sec or "t_end_ns" not in sec:
        raise ValueError("config section 'propagate' requires 'dt_ns' and 't_end_ns'")
    p, pulse = config.params, config.pulse
    dt, t_end = float(sec["dt_ns"]), float(sec["t_end_ns"])
    sample_every = sec.get("sample_every")
    sample_every = int(sample_every) if sample_every is not None else None
    problem = truncation_error(response.peak_photon(p, pulse.omega_c), p.n_c)
    if problem:
        print(f"warning: peak steady-state {problem}", file=sys.stderr)

    plus = np.zeros(p.n_a * p.n_c, dtype=complex)
    plus[0] = 1.0 / np.sqrt(2.0)
    plus[p.n_c] = 1.0 / np.sqrt(2.0)
    rho0 = np.outer(plus, plus.conj())
    state0 = liouville.VectorizedState(vec=liouville.vectorize(rho0))
    result = liouville.propagate(state0, p, pulse, t_end, dt, sample_every=sample_every)

    # effective-map coherence on the same output grid; the response step must
    # divide the propagation step so the grids line up exactly (an undriven,
    # undamped, resonant resonator has no step bound: eta stays 0). eta is
    # solved at the written samples only.
    dt_max = response.max_stable_dt(p, pulse)
    dt_eta = dt / np.ceil(dt / dt_max) if np.isfinite(dt_max) else dt
    idx = np.rint(result.times / dt_eta).astype(int)
    photon = np.abs(response.eta_at(p, pulse, t_end, dt_eta, idx)) ** 2
    qubit = liouville.qubit_block(result.blocks)
    rho_t = effective.effective_map_apply(qubit[0], p, photon, result.times)
    write_csv(out, {"t_ns": result.times, "abs_rho10_full": abs(qubit[:, 1, 0]),
                    "abs_rho10_eff": abs(rho_t[:, 1, 0]), "photon": photon}, header=header)


def cmd_compare_gambetta(config: RunConfig, out: str, header: bool, threads: int) -> None:
    sec = _section(config, "compare_gambetta",
                   {"delta_cd_start_mhz", "delta_cd_stop_mhz", "points"})
    grid = _linspace(sec, "delta_cd_start_mhz", "delta_cd_stop_mhz", 100)
    p = config.params
    omega = config.pulse.omega_c

    def point(d):
        pd = replace(p, delta_cd=float(d))
        ours = effective.rates(pd, response.steady_state(pd, omega)[1]).dephasing
        shifted = replace(pd, delta_cd=pd.delta_cd + p.chi_ac)
        return ours, effective.gambetta_rates(pd, omega), effective.gambetta_rates(shifted, omega)

    ours, theirs, shifted = zip(*[point(d) for d in grid])
    write_csv(out, {"delta_cd_mhz": grid, "gamma_phi_mhz": ours, "gamma_phi_gambetta_mhz": theirs,
                    "gamma_phi_gambetta_shifted_mhz": shifted}, header=header)


# ---------------------------------------------------------------------------
# invariant suite


def _run_validation(config: RunConfig) -> dict:
    p = config.params
    checks: dict[str, dict] = {}

    def record(name, passed, detail):
        checks[name] = {"passed": bool(passed), "detail": detail}

    # envelope continuity across branch boundaries
    pulse = PulseSpec("square-gaussian", 50.0, tau_p=1000.0, tau_r=100.0, sigma_r=50.0)
    jump = 0.0
    for edge in (0.0, pulse.tau_r, pulse.tau_p - pulse.tau_r, pulse.tau_p):
        left = sg_envelope(edge - 1e-12, pulse)
        right = sg_envelope(edge + 1e-12, pulse)
        jump = max(jump, abs(left - right))
    record("envelope_continuity", jump < 1e-12, f"max boundary jump {jump:.3e}")

    # dressed-detuning conjugation
    value_l, value_r = detuning_l(p, 1), detuning_r(p, 1)
    record("detuning_conjugation", value_r == np.conj(value_l),
           f"value_l={value_l}, value_r={value_r}")

    # vectorization oracle: random Hermitian instances + the Kerr model
    rng = np.random.default_rng(20260810)
    small = SystemParams(-20.0, -5.0, -3.3, -1.0, 1.0, 2, 5)
    worst = 0.0
    for _ in range(5):
        m = small.n_a * small.n_c
        h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        h = (h + h.conj().T) / 2.0
        c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        sup = liouville.build_superoperator(h, [liouville.CollapseTerm(0.7, c)])
        # reference: same algebra through the doubled-copy route
        eye = np.eye(m)
        hu = np.kron(h, eye) - np.kron(eye, h.conj()) + 1j * 0.7 * (
            np.kron(c, c.conj()) - 0.5 * np.kron(c.conj().T @ c, eye)
            - 0.5 * np.kron(eye, (c.conj().T @ c).T))
        worst = max(worst, float(np.max(np.abs(sup - (-1j) * hu))))
    hu_kerr = liouville.build_extended_hamiltonian(small, 7.0)
    h_kerr = liouville.kerr_hamiltonian(small, 7.0)
    _, c_op = liouville.single_copy_operators(small)
    sup_kerr = liouville.build_superoperator(2.0 * np.pi * h_kerr,
                                             [liouville.CollapseTerm(2.0 * np.pi * small.kappa_c, c_op)])
    worst = max(worst, float(np.max(np.abs(-2j * np.pi * hu_kerr - sup_kerr))))
    record("vectorization_oracle", worst < 1e-12, f"max elementwise diff {worst:.3e}")

    # trace functional annihilates the generator from the left
    w_tr = liouville.trace_functional(small.n_a * small.n_c)
    lhs = w_tr @ (-1j * hu_kerr)
    record("trace_functional", float(np.max(np.abs(lhs))) < 1e-12,
           f"max |w L| entry {float(np.max(np.abs(lhs))):.3e}")

    # step-drive response against the closed form
    traj = response.solve_eta(small, PulseSpec("constant", 7.0), 2000.0, 0.1)
    eta_ss, _ = response.steady_state(small, 7.0)
    beta = (2j * np.pi * small.delta_cd + np.pi * small.kappa_c) * 1e-3
    exact = eta_ss * (1.0 - np.exp(-beta * traj.times))
    err = float(np.max(np.abs(traj.eta - exact)))
    record("response_step_closed_form", err < 1e-8, f"max abs error {err:.3e}")

    # crosstalk-scale steady-state photon number
    cross = SystemParams(-2050.0, -50.0, -330.0, -1.0, 5.0, 2, 6)
    _, n_ss = response.steady_state(cross, 14.2)
    record("steady_state_photon", abs(n_ss - 0.0201) < 5e-4, f"n_ss = {n_ss:.6f}")

    # dephasing equivalence after the chi offset
    worst = 0.0
    for d in np.linspace(-12.0, 8.0, 100):
        pd = SystemParams(0.0, float(d), 0.0, -2.0, 1.0, 2, 2)
        ours = effective.rates(pd, response.steady_state(pd, 10.0)[1]).dephasing
        theirs = effective.gambetta_rates(replace(pd, delta_cd=pd.delta_cd + pd.chi_ac), 10.0)
        worst = max(worst, abs(theirs / ours - 1.0))
    record("gambetta_shift_identity", worst < 1e-12, f"max relative diff {worst:.3e}")

    # spectrum property draws
    ok = True
    for _ in range(500):
        pr = SystemParams(0.0, float(rng.uniform(-60, 60)), 0.0,
                          float(rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0])),
                          float(rng.uniform(0.05, 10.0)), 4, 2)
        ph = float(rng.uniform(0.0, 20.0))
        m_, n_ = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        e_mn = effective.effective_spectrum(pr, m_, n_, ph)
        e_nm = effective.effective_spectrum(pr, n_, m_, ph)
        if m_ == n_:
            ok &= e_mn == 0.0
        else:
            ok &= abs(e_mn + np.conj(e_nm)) <= 1e-12 * max(1.0, abs(e_mn))
            ok &= (e_mn.imag < 0.0) if ph > 0 else (e_mn.imag <= 0.0)
    record("spectrum_properties", ok, "500 random draws, levels 0..3")

    # Choi positivity and the sign-flip mutant
    three_level = SystemParams(0.0, -5.0, 0.0, -1.0, 1.0, 3, 2)
    min_eig = min(effective.choi_cptp_check(three_level, 10.0, t, levels=3) for t in (0.01, 0.1, 1.0))
    mutant = effective.spectrum_matrix(three_level, 3, 10.0).conj()
    mutant_eig = float(np.linalg.eigvalsh(effective.dephasing_choi(mutant, 0.1)).min())
    record("choi_positivity", min_eig >= -1e-10 and mutant_eig < -1e-6,
           f"min eig {min_eig:.3e}, mutant min eig {mutant_eig:.3e}")

    # correlation conjugation + adiabatic limit on a step drive
    step = PulseSpec("constant", 3.0)
    pr = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 2)
    traj = response.solve_eta(pr, step, 14.0 / pr.kappa_c * 1e3, 0.5)
    corr = transient.correlations_timedomain(traj, pr, [(1, 1), (1, 0)])
    conj_gap = float(np.max(np.abs(corr.a_rr[(1, 1)] - np.conj(corr.a_ll[(1, 1)]))))
    eta_ss, n_ss = response.steady_state(pr, 3.0)
    i10 = int(round(10.0 / pr.kappa_c * 1e3 / traj.dt))
    a_ad, _, b_ad, c_ad = effective.adiabatic_correlations(pr, 1, 0, n_ss)
    rel_a = abs(corr.a_ll[(1, 0)][i10] - a_ad) / abs(a_ad)
    rel_b = abs(corr.b_lr[(1, 0)][i10] - b_ad) / abs(b_ad)
    rel_c = abs(corr.c_lr[(1, 0)][i10] - c_ad) / abs(c_ad)
    record("correlation_adiabatic_limit",
           conj_gap < 1e-10 and rel_a < 1e-6 and rel_b < 1e-6 and rel_c < 1e-6,
           f"conj gap {conj_gap:.2e}; rel A {rel_a:.2e}, B {rel_b:.2e}, C {rel_c:.2e}")

    # rates() is literally the (1,0) spectrum entry
    pair = effective.rates(p, 0.7)
    entry = effective.effective_spectrum(p, 1, 0, 0.7)
    record("rates_match_spectrum_entry",
           pair.stark == entry.real and pair.dephasing == -entry.imag,
           "exact equality")

    # zero mode and spectrum pairing at a modest drive
    small8 = SystemParams(-2005.0, -5.0, -330.0, -1.0, 1.0, 2, 8)
    es = spectra.eigendecompose(liouville.build_extended_hamiltonian(small8, 5.0))
    min_abs = float(np.min(np.abs(es.eigenvalues)))
    pair_gap = 0.0
    for e in es.eigenvalues:
        pair_gap = max(pair_gap, float(np.min(np.abs(es.eigenvalues - (-np.conj(e))))))
    record("zero_mode_and_pairing", min_abs < 1e-8 and pair_gap < 1e-8,
           f"min |E| {min_abs:.2e}, worst pairing gap {pair_gap:.2e}")

    return checks


def cmd_validate(config: RunConfig, out: str | None, header: bool, threads: int) -> int:
    checks = _run_validation(config)
    passed = all(c["passed"] for c in checks.values())
    report = {"passed": passed, "checks": checks}
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if passed else 1


_COMMANDS = {
    "rates-sweep": (cmd_rates_sweep, "rates_sweep.csv"),
    "benchmark-eig": (cmd_benchmark_eig, "benchmark_eig.csv"),
    "transient": (cmd_transient, "transient.csv"),
    "spectrum-grid": (cmd_spectrum_grid, "spectrum_grid.csv"),
    "propagate": (cmd_propagate, "propagate.csv"),
    "compare-gambetta": (cmd_compare_gambetta, "compare_gambetta.csv"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="readoutmap",
                                     description="dispersive-readout effective map toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_COMMANDS) + ["validate"]:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="output path")
        sp.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
        sp.add_argument("--no-header", action="store_true", help="omit CSV header rows")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    header = not args.no_header
    try:
        if args.command == "validate":
            return cmd_validate(config, args.out, header, args.threads)
        func, default_out = _COMMANDS[args.command]
        out = args.out or config.out or default_out
        func(config, out, header, args.threads)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
