"""Command-line driver: JSON config in, CSV/JSON data out.

Subcommands map one-to-one onto plot-ready data products:

  rates-sweep       dephasing / Stark shift vs resonator-drive detuning
  benchmark-eig     exact eigenvalue sweep vs the perturbative rates
  transient         pulse response, correlation functions, generator entries
  spectrum-grid     effective spectrum over a level grid
  propagate         exact master-equation coherence vs the effective map
  compare-gambetta  two-level-model dephasing vs ours, with the chi offset
  validate          the rules of every section's reader, as JSON

Each config section has one reader, called by its command and by validate. It
raises the command's input errors and returns (what the command writes, its rules
{<section>.<rule>: rule}): warning rules, and for a command that steps a time grid
its step rule, built beside the call that steps its levels. The command prints its
failed warnings and then stops at a failed step rule with response._grid_steps's
error; validate reports the union of the rules. Every reader but benchmark_eig's
runs the command's own computation, so validate meets the command's first error:
the sweep rows and the spectrum matrix, and, where the grid passes its step rule,
the transient series and the propagate columns (propagate's phase overflow
included). A value the drive makes too large for a float is model.drive_error's
one error line, from the command and validate alike.

One parser reads every command: `readoutmap <command> --config PATH [--out PATH]
[--threads N] [--no-header]`, the options before or after the command. A usage
error (no or unknown command, no --config, a --threads that is not an int)
exits 2 with argparse's usage line and message.

All frequencies in configs are cyclic MHz; times are ns. Every config value
is read by model.read_section: an error in the system keys, the pulse or
'out' exits 2 ("config error:"), one in a command's section exits 1
("error:"), from the command and validate alike. Output is deterministic
(byte-identical across reruns); --no-header drops the CSV header row.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import effective, response, spectra, transient
from .model import (PARAM_SPEC, PulseSpec, SystemParams, config_value, drive_error,
                    params_from_dict, pulse_from_dict, read_section, truncation_error,
                    validity_margin, write_csv)


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
    top = read_section("config", raw, {**dict.fromkeys([*PARAM_SPEC, "pulse"], (None, ...)),
                                       **dict.fromkeys(_READERS, (None, None)), "out": (str, None)})
    params = params_from_dict({k: raw[k] for k in PARAM_SPEC})
    return RunConfig(params, pulse_from_dict(raw["pulse"]),
                     {k: raw[k] for k in raw if k in _READERS}, top["out"])


def _section(config: RunConfig, name: str, spec: dict) -> dict:
    return read_section(f"config section '{name}'", config.sections.get(name, {}), spec)


def _sweep(config: RunConfig, name: str, default_points: int) -> np.ndarray:
    """The delta_cd grid (MHz) of sweep section `name`."""
    ends = dict.fromkeys(("delta_cd_start_mhz", "delta_cd_stop_mhz"), (float, ...))
    sec = _section(config, name, {**ends, "points": (int, default_points)})
    if sec["points"] < 1:
        raise ValueError("sweep must contain at least one point")
    return np.linspace(sec["delta_cd_start_mhz"], sec["delta_cd_stop_mhz"], sec["points"])


def _grid_section(config: RunConfig, name: str, extra: dict) -> tuple[dict, float, float]:
    """Section `name` of a command that steps a time grid, and its 'dt_ns' and 't_end_ns'."""
    sec = _section(config, name, {"dt_ns": (float, ...), "t_end_ns": (float, ...), **extra})
    dt, t_end = sec["dt_ns"], sec["t_end_ns"]
    if not t_end >= 0.0:
        raise ValueError(f"end time t_end = {t_end} ns must be >= 0")
    return sec, dt, t_end


def _rule(params: SystemParams, rule: str, omega: float, where: str) -> tuple[bool, str, str, bool]:
    """Warning rule 'validity_margin' or 'truncation' at drive omega (MHz):
    (passed, validate's detail, the command's warning, False: it does not stop the command)."""
    if rule == "validity_margin":
        margin = validity_margin(params, omega)
        return (margin < 1.0, f"margin {margin:.4g} at omega_c = {omega:g} MHz (warns at >= 1)",
                f"perturbative validity margin {margin:.4g} >= 1 at {where}", False)
    photon = response.peak_photon(params, omega)
    problem = truncation_error(photon, params.n_c)
    detail = problem or f"photon number {photon:.3g} < n_c/4 = {params.n_c / 4.0:g}"
    return problem is None, detail, f"peak steady-state {problem}", False


def _step_rule(params: SystemParams, dt: float, t_end: float, levels) -> tuple[int | None, tuple]:
    """The step rule of a grid that steps the recurrences of qubit `levels`: its number of
    steps (None where the rule fails), and the rule (passed, validate's detail dt / bound
    from response._step_error, the command's error from response._grid_steps, True: a
    failed step rule stops the command)."""
    bound, problem = response._step_error(params, dt, levels)
    ratio = dt / bound if bound else np.inf  # an overflowing level bounds dt by 0
    detail = (f"dt / bound = {ratio:.3g} (dt {dt:g} ns, bound {bound:.4g} ns)"
              + (f": {problem}" if problem else ""))
    try:
        return response._grid_steps(params, t_end, dt, levels), (True, detail, None, True)
    except ValueError as exc:
        return None, (False, detail, str(exc), True)


def _read_benchmark_eig(config: RunConfig) -> tuple[np.ndarray, dict]:
    where, key = "config section 'benchmark_eig'", "omega_c_grid_mhz"
    values = _section(config, "benchmark_eig", {key: (None, [])})[key]
    if not isinstance(values, list) or not values:
        raise ValueError(f"{where} requires '{key}', a non-empty 1-D omega_c grid")
    grid = np.array([config_value(where, key, x, float) for x in values])
    if grid[0] != 0.0:
        raise ValueError("omega_c grid must start at 0")
    omega = float(np.max(np.abs(grid)))
    return grid, {f"benchmark_eig.{rule}": _rule(config.params, rule, omega, "the strongest drive")
                  for rule in ("validity_margin", "truncation")}


def _read_transient(config: RunConfig) -> tuple[tuple | None, dict]:
    """transient's (trajectory, correlations, generator) of the written pair, or None where
    the grid fails the step rule of the levels it steps: eta at level 0 and the correlations
    at the pair's. Raises model.drive_error's ValueError where a series it writes is not
    finite."""
    sec, dt, t_end = _grid_section(config, "transient", {"levels": (None, [[1, 0]])})
    # every entry must be a pair of qubit levels; the CSV holds the first one only
    where, pairs, levels = "config section 'transient'", sec["levels"], []
    if isinstance(pairs, list) and all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        levels = [tuple(config_value(where, "levels", n, int) for n in pair) for pair in pairs]
    if not levels or min(min(pair) for pair in levels) < 0:
        raise ValueError(f"{where}: 'levels' must be a non-empty list of "
                         "[n_al, n_ar] pairs of ints >= 0")
    # the margin's error at an undamped resonance comes before kappa's
    margin = _rule(config.params, "validity_margin", config.pulse.omega_c, "the pulse peak")
    if config.params.kappa_c <= 0:
        raise ValueError("correlations_timedomain requires kappa_c > 0")
    if dt > 0.0 and t_end / dt <= 0.5:  # round(t_end / dt) == 0 steps
        raise ValueError("correlations need at least two grid points: t_end is below dt/2")
    p, pair = config.params, levels[0]
    n_steps, step = _step_rule(p, dt, t_end, sorted({0, *pair}))
    rules = {"transient.validity_margin": margin, "transient.dt": step}
    if n_steps is None:
        return None, rules
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        traj = response.solve_eta(p, config.pulse, t_end, dt)
        corr = transient.correlations_timedomain(traj, p, [pair])
        gen = transient.effective_generator_timedep(corr, traj, p, [pair])
        written = [traj.photon, corr.a_ll[pair], corr.a_rr[pair], corr.b_lr[pair],
                   corr.c_lr[pair], gen.values[pair]]
    problem = drive_error(config.pulse.omega_c, f"the transient series of qubit levels {pair}",
                          written)
    if problem:
        raise ValueError(problem)
    return (traj, corr, gen), rules


def _read_spectrum_grid(config: RunConfig) -> tuple[tuple, dict]:
    sec = _section(config, "spectrum_grid", {"photon": (float, 1.0), "levels": (int, 3)})
    photon, levels = sec["photon"], sec["levels"]
    if levels < 1:
        raise ValueError(f"config section 'spectrum_grid': 'levels' = {levels} must be >= 1")
    return effective.spectrum_matrix(config.params, levels, photon), {}


def _read_propagate(config: RunConfig) -> tuple[dict | None, dict]:
    """propagate's CSV columns: the exact and the effective-map coherence of the qubit
    (|0> + |1>)/sqrt(2), resonator in vacuum, at every sample_every-th grid point and the
    last (about 512 samples by default), with the photon number; or None where the grid
    fails the step rule of levels 0 and 1, whose resonators it steps. Raises the coherence's
    error where its phase overflows, and the effective map's at an undamped dressed
    resonance."""
    sec, dt, t_end = _grid_section(config, "propagate", {"sample_every": (int, None)})
    sample_every, p = sec["sample_every"], config.params
    if sample_every is not None and sample_every < 1:
        raise ValueError(f"sample_every = {sample_every} must be >= 1")
    n_steps, step = _step_rule(p, dt, t_end, (0, 1))
    if n_steps is None:
        return None, {"propagate.dt": step}
    if sample_every is None:
        sample_every = max(1, n_steps // 512)
    idx = np.append(np.arange(0, n_steps, sample_every), n_steps)
    times = idx * dt
    rho0 = np.zeros((p.n_a, p.n_a), dtype=complex)
    rho0[:2, :2] = (1.0 / np.sqrt(2.0)) ** 2
    coherence, _, eta = response.coherence_at(p, config.pulse, t_end, dt, idx, 1, 0)
    full, photon = rho0[1, 0] * coherence, np.abs(eta) ** 2
    rho_t = effective.effective_map_apply(rho0, p, photon, times)
    return {"t_ns": times, "abs_rho10_full": abs(full), "abs_rho10_eff": abs(rho_t[:, 1, 0]),
            "photon": photon}, {"propagate.dt": step}


def _read_compare_gambetta(config: RunConfig) -> tuple[list, dict]:
    grid = _sweep(config, "compare_gambetta", 100)
    if config.params.kappa_c <= 0:
        raise ValueError("gambetta_rates requires kappa_c > 0")
    return [_gambetta_row(config.params, config.pulse.omega_c, d) for d in grid], {}


def _read_rates_sweep(config: RunConfig) -> tuple[list, dict]:
    grid = _sweep(config, "rates_sweep", 401)
    return [_rates_row(config.params, config.pulse.omega_c, d) for d in grid], {}


# section -> reader: (what the command writes: a sweep's rows, the omega_c grid, the transient
# series, the spectrum matrix or the propagate columns, None where a rule stops the command;
# {<section>.<rule>: _rule(...) or _step_rule(...)[1]}) or the command's error
_READERS = {"rates_sweep": _read_rates_sweep, "benchmark_eig": _read_benchmark_eig,
            "transient": _read_transient, "spectrum_grid": _read_spectrum_grid,
            "propagate": _read_propagate, "compare_gambetta": _read_compare_gambetta}


def _read(config: RunConfig, name: str):
    """What section `name`'s command writes, through its reader: its failed warning rules
    go to stderr, and after them a failed rule that stops the command is its error."""
    values, rules = _READERS[name](config)
    for passed, _, message, stops in sorted(rules.values(), key=lambda rule: rule[3]):
        if not passed and stops:
            raise ValueError(message)
        if not passed:
            print(f"warning: {message}", file=sys.stderr)
    return values


def _finite_row(omega: float, row: tuple) -> tuple:
    """A sweep row at delta_cd = row[0], or model.drive_error's ValueError where one of
    its values is not finite."""
    problem = drive_error(omega, f"the row at delta_cd = {row[0]:g} MHz", row)
    if problem:
        raise ValueError(problem)
    return row


def _rates_row(p: SystemParams, omega: float, d) -> tuple:
    """rates-sweep at delta_cd = d: (d, dephasing, stark, n_ground, n_excited)."""
    pd = replace(p, delta_cd=float(d))
    n_ground, n_excited = (response.steady_state(pd, omega, k)[1] for k in (0, 1))
    pair = effective.rates(pd, n_ground)
    return _finite_row(omega, (d, pair.dephasing, pair.stark, n_ground, n_excited))


def cmd_rates_sweep(config: RunConfig, out: str, header: bool, threads: int) -> None:
    effective.write_rates_sweep_csv(out, _read(config, "rates_sweep"), header=header)


def cmd_benchmark_eig(config: RunConfig, out: str, header: bool, threads: int) -> None:
    grid = _read(config, "benchmark_eig")
    p = config.params
    track = spectra.track_coherence(p, grid, n_workers=threads)
    pert = [effective.rates(p, n) for n in track.photons]
    spectra.write_track_csv(out, track, header=header,
                            extra_cols={"gamma_phi_pert_mhz": [r.dephasing for r in pert],
                                        "stark_pert_mhz": [r.stark for r in pert]})


def cmd_transient(config: RunConfig, out: str, header: bool, threads: int) -> None:
    traj, corr, gen = _read(config, "transient")
    transient.write_transient_csv(out, traj, corr, gen, pair=corr.pairs[0], header=header)


def cmd_spectrum_grid(config: RunConfig, out: str, header: bool, threads: int) -> None:
    effective.write_spectrum_grid_csv(out, _read(config, "spectrum_grid"), header=header)


def cmd_propagate(config: RunConfig, out: str, header: bool, threads: int) -> None:
    write_csv(out, _read(config, "propagate"), header=header)


def _gambetta_row(p: SystemParams, omega: float, d) -> tuple:
    """compare-gambetta at delta_cd = d: (d, our dephasing, the two-level model's, and the
    two-level model's at delta_cd + chi_ac)."""
    pd = replace(p, delta_cd=float(d))
    ours = effective.rates(pd, response.steady_state(pd, omega)[1]).dephasing
    shifted = replace(pd, delta_cd=pd.delta_cd + p.chi_ac)
    return _finite_row(omega, (d, ours, effective.gambetta_rates(pd, omega),
                               effective.gambetta_rates(shifted, omega)))


def cmd_compare_gambetta(config: RunConfig, out: str, header: bool, threads: int) -> None:
    grid, ours, theirs, shifted = zip(*_read(config, "compare_gambetta"))
    write_csv(out, {"delta_cd_mhz": grid, "gamma_phi_mhz": ours, "gamma_phi_gambetta_mhz": theirs,
                    "gamma_phi_gambetta_shifted_mhz": shifted}, header=header)


def cmd_validate(config: RunConfig, out: str | None) -> int:
    """Run the reader of every section in the config and report, as checks
    {"passed", "detail"} named <section>.<rule>, the rules its readers return:

      validity_margin  transient, benchmark_eig: below 1 (the command warns)
      truncation       benchmark_eig: below model.truncation_error's bound (the
                       command warns)
      dt               transient, propagate: 0 < dt <= the bound of the step rule of
                       the levels the command steps, response._step_error: the smallest
                       max_stable_dt of them (else the command stops with its error);
                       reports dt / bound, and above the bound the rule's error text

    Drives are the pulse peak, and benchmark_eig's strongest grid point.
    Returns the exit code, 1 when a check fails; a reader's error propagates.
    """
    checks = {name: {"passed": bool(passed), "detail": detail}
              for section in config.sections
              for name, (passed, detail, *_) in _READERS[section](config)[1].items()}
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
    parser.add_argument("command", choices=[*_COMMANDS, "validate"], help="data product")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output path")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    parser.add_argument("--no-header", action="store_true", help="omit CSV header rows")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    header = not args.no_header
    try:
        if args.command == "validate":
            return cmd_validate(config, args.out)
        func, default_out = _COMMANDS[args.command]
        out = args.out or config.out or default_out
        func(config, out, header, args.threads)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
