"""Command-line driver: JSON config in, CSV/JSON data out.

Subcommands map one-to-one onto plot-ready data products:

  rates-sweep       dephasing / Stark shift vs resonator-drive detuning
  benchmark-eig     exact eigenvalue sweep vs the perturbative rates
  transient         pulse response, correlation functions, generator entries
  spectrum-grid     effective spectrum over a level grid
  propagate         full master-equation coherence vs the effective map
  compare-gambetta  two-level-model dephasing vs ours, with the chi offset
  validate          the commands' pre-flight rules on the config, as a JSON report

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
from .model import (PulseSpec, SystemParams, params_from_dict, pulse_from_dict, truncation_error,
                    validity_margin, write_csv)

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


def _grid_section(config: RunConfig, name: str, extra: set[str]) -> dict:
    """Section `name` of a command that steps a time grid: it needs 'dt_ns' and 't_end_ns'."""
    sec = _section(config, name, {"dt_ns", "t_end_ns"} | extra)
    if "dt_ns" not in sec or "t_end_ns" not in sec:
        raise ValueError(f"config section '{name}' requires 'dt_ns' and 't_end_ns'")
    return sec


def _omega_grid(config: RunConfig) -> np.ndarray:
    """The benchmark_eig section's drive grid (MHz): a non-empty 1-D array."""
    sec = _section(config, "benchmark_eig", {"omega_c_grid_mhz"})
    try:
        grid = np.asarray(sec.get("omega_c_grid_mhz", []), dtype=float)
    except (TypeError, ValueError):  # ragged lists, strings
        grid = np.empty(0)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("config section 'benchmark_eig' requires 'omega_c_grid_mhz', "
                         "a non-empty 1-D omega_c grid")
    return grid


def _warn_margin(params: SystemParams, omega: float, where: str) -> None:
    margin = validity_margin(params, omega)
    if margin >= 1.0:
        print(f"warning: perturbative validity margin {margin:.3f} >= 1 at {where}",
              file=sys.stderr)


def _warn_truncation(params: SystemParams, omega: float) -> None:
    problem = truncation_error(response.peak_photon(params, omega), params.n_c)
    if problem:
        print(f"warning: peak steady-state {problem}", file=sys.stderr)


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
    grid = _omega_grid(config)
    p = config.params
    strongest = float(np.max(np.abs(grid)))
    _warn_margin(p, strongest, "the strongest drive")
    _warn_truncation(p, strongest)
    track = spectra.track_coherence(p, grid, n_workers=threads)
    pert = [effective.rates(p, n) for n in track.photons]
    spectra.write_track_csv(out, track, p, header=header,
                            extra_cols={"gamma_phi_pert_mhz": [r.dephasing for r in pert],
                                        "stark_pert_mhz": [r.stark for r in pert]})


def cmd_transient(config: RunConfig, out: str, header: bool, threads: int) -> None:
    sec = _grid_section(config, "transient", {"levels"})
    _warn_margin(config.params, config.pulse.omega_c, "the pulse peak")
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
    sec = _grid_section(config, "propagate", {"sample_every"})
    p, pulse = config.params, config.pulse
    dt, t_end = float(sec["dt_ns"]), float(sec["t_end_ns"])
    sample_every = sec.get("sample_every")
    sample_every = int(sample_every) if sample_every is not None else None
    _warn_truncation(p, pulse.omega_c)

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


def cmd_validate(config: RunConfig, out: str | None, header: bool, threads: int) -> int:
    """Apply the pre-flight rules of the config's own commands to the config,
    without running them. Each is a check {"passed", "detail"} named
    <section>.<rule>:

      validity_margin  transient, benchmark_eig: below 1 (the command warns)
      truncation       propagate, benchmark_eig: below model.truncation_error's
                       bound (the command warns)
      dt               transient, propagate: 0 < dt <= the command's step
                       bound (the command raises); reports dt / bound

    Drives are the pulse peak, and benchmark_eig's strongest grid point.
    Returns the exit code, 1 when a check fails; the commands' own
    ValueErrors (a malformed section, an undefined margin) propagate.
    """
    p, pulse, sections = config.params, config.pulse, config.sections
    checks: dict[str, dict] = {}

    def record(name, passed, detail):
        checks[name] = {"passed": bool(passed), "detail": detail}

    def record_dt(name, extra, bound):
        dt = float(_grid_section(config, name, extra)["dt_ns"])
        record(f"{name}.dt", 0.0 < dt <= bound,
               f"dt / bound = {dt / bound:.3g} (dt {dt:g} ns, bound {bound:.4g} ns)")

    drives = {"transient": pulse.omega_c, "propagate": pulse.omega_c}
    if "benchmark_eig" in sections:
        drives["benchmark_eig"] = float(np.max(np.abs(_omega_grid(config))))
    for name in ("benchmark_eig", "transient"):
        if name in sections:
            margin = validity_margin(p, drives[name])
            record(f"{name}.validity_margin", margin < 1.0,
                   f"margin {margin:.4g} at omega_c = {drives[name]:g} MHz (warns at >= 1)")
    for name in ("benchmark_eig", "propagate"):
        if name in sections:
            photon = response.peak_photon(p, drives[name])
            problem = truncation_error(photon, p.n_c)
            record(f"{name}.truncation", problem is None,
                   problem or f"photon number {photon:.3g} < n_c/4 = {p.n_c / 4.0:g}")
    if "transient" in sections:
        record_dt("transient", {"levels"}, response.max_stable_dt(p, pulse))
    if "propagate" in sections:
        record_dt("propagate", {"sample_every"},
                  liouville.stability_bound(*liouville.generator_blocks(p), pulse.omega_c)[0])

    passed = all(c["passed"] for c in checks.values())
    text = json.dumps({"passed": passed, "checks": checks}, indent=2, sort_keys=True)
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
