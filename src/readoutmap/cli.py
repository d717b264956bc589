"""Command-line driver: JSON config in, CSV/JSON data out.

Subcommands map one-to-one onto plot-ready data products:

  rates-sweep       dephasing / Stark shift vs resonator-drive detuning
  benchmark-eig     exact eigenvalue sweep vs the perturbative rates
  transient         pulse response, correlation functions, generator entries
  spectrum-grid     effective spectrum over a level grid
  propagate         exact master-equation coherence vs the effective map
  compare-gambetta  two-level-model dephasing vs ours, with the chi offset
  validate          every section's reader and the commands' pre-flight rules, as JSON

Each config section has one reader, called by its command and by validate: it
raises the command's input errors and evaluates its warning rules. Every reader
but benchmark_eig's runs the command's own computation and returns what the
command writes, so validate meets the command's first error: the sweep rows and
the spectrum matrix, and, where the grid passes the command's step rule, the
transient series and the propagate columns (propagate's phase overflow
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


def _rule(params: SystemParams, rule: str, omega: float, where: str) -> tuple[bool, str, str]:
    """Warning rule 'validity_margin' or 'truncation' at drive omega (MHz):
    (passed, validate's detail, the command's warning)."""
    if rule == "validity_margin":
        margin = validity_margin(params, omega)
        return (margin < 1.0, f"margin {margin:.4g} at omega_c = {omega:g} MHz (warns at >= 1)",
                f"perturbative validity margin {margin:.3f} >= 1 at {where}")
    photon = response.peak_photon(params, omega)
    problem = truncation_error(photon, params.n_c)
    detail = problem or f"photon number {photon:.3g} < n_c/4 = {params.n_c / 4.0:g}"
    return problem is None, detail, f"peak steady-state {problem}"


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


def _read_transient(config: RunConfig) -> tuple[tuple, dict]:
    sec, dt, t_end = _grid_section(config, "transient", {"levels": (None, [[1, 0]])})
    # every entry must be a pair of qubit levels; the CSV holds the first one only
    where, pairs, levels = "config section 'transient'", sec["levels"], []
    if isinstance(pairs, list) and all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        levels = [tuple(config_value(where, "levels", n, int) for n in pair) for pair in pairs]
    if not levels or min(min(pair) for pair in levels) < 0:
        raise ValueError(f"{where}: 'levels' must be a non-empty list of "
                         "[n_al, n_ar] pairs of ints >= 0")
    # the margin's error at an undamped resonance comes before kappa's
    rule = _rule(config.params, "validity_margin", config.pulse.omega_c, "the pulse peak")
    if config.params.kappa_c <= 0:
        raise ValueError("correlations_timedomain requires kappa_c > 0")
    if dt > 0.0 and t_end / dt <= 0.5:  # round(t_end / dt) == 0 steps
        raise ValueError("correlations need at least two grid points: t_end is below dt/2")
    section = dt, t_end, levels
    series = _transient_series(config, section) if _within_step_rule(config, "transient",
                                                                      section) else None
    return (*section, series), {"transient.validity_margin": rule}


def _transient_series(config: RunConfig, section: tuple) -> tuple:
    """transient's (trajectory, correlations, generator) of the written pair levels[0] of
    section (dt, t_end, levels), or model.drive_error's ValueError where a series it writes
    is not finite."""
    (dt, t_end, levels), p = section, config.params
    pair = levels[0]
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
    return traj, corr, gen


def _read_spectrum_grid(config: RunConfig) -> tuple[tuple, dict]:
    sec = _section(config, "spectrum_grid", {"photon": (float, 1.0), "levels": (int, 3)})
    photon, levels = sec["photon"], sec["levels"]
    if levels < 1:
        raise ValueError(f"config section 'spectrum_grid': 'levels' = {levels} must be >= 1")
    return effective.spectrum_matrix(config.params, levels, photon), {}


def _read_propagate(config: RunConfig) -> tuple[tuple, dict]:
    sec, dt, t_end = _grid_section(config, "propagate", {"sample_every": (int, None)})
    sample_every = sec["sample_every"]
    if sample_every is not None and sample_every < 1:
        raise ValueError(f"sample_every = {sample_every} must be >= 1")
    section = dt, t_end, sample_every
    columns = _propagate_columns(config, section) if _within_step_rule(config, "propagate",
                                                                        section) else None
    return (*section, columns), {}


def _propagate_columns(config: RunConfig, section: tuple) -> dict:
    """propagate's CSV columns on section (dt, t_end, sample_every): the exact and the
    effective-map coherence of the qubit (|0> + |1>)/sqrt(2), resonator in vacuum, at every
    sample_every-th grid point and the last (about 512 samples by default), with the photon
    number. Raises the coherence's error where its phase overflows, and the effective map's
    at an undamped dressed resonance."""
    (dt, t_end, sample_every), p = section, config.params
    n_steps = response._grid_steps(p, t_end, dt, _STEPPED_LEVELS["propagate"](section))
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
            "photon": photon}


def _within_step_rule(config: RunConfig, name: str, section: tuple) -> bool:
    """Whether the grid of parsed section `name` (dt first) passes its command's step rule:
    past it the reader runs the command's computation, before it validate reports the rule
    as its dt check and the command raises the rule's error."""
    dt = section[0]
    return dt > 0.0 and response._step_error(config.params, dt,
                                             _STEPPED_LEVELS[name](section))[1] is None


def _read_compare_gambetta(config: RunConfig) -> tuple[list, dict]:
    grid = _sweep(config, "compare_gambetta", 100)
    if config.params.kappa_c <= 0:
        raise ValueError("gambetta_rates requires kappa_c > 0")
    return [_gambetta_row(config.params, config.pulse.omega_c, d) for d in grid], {}


def _read_rates_sweep(config: RunConfig) -> tuple[list, dict]:
    grid = _sweep(config, "rates_sweep", 401)
    return [_rates_row(config.params, config.pulse.omega_c, d) for d in grid], {}


# section -> the qubit levels whose RK4 recurrences its command steps, from the parsed section:
# dt <= max_stable_dt of each, set by the level's dressed detuning and kappa_c, not the drive.
# transient steps eta (level 0) and the correlation recurrences of the pair it writes,
# propagate the coherence of levels 1 and 0
_STEPPED_LEVELS = {"transient": lambda section: sorted({0, *section[2][0]}),
                   "propagate": lambda section: (0, 1)}

# section -> reader: (what the command writes: the parsed section with its product, a sweep's
# rows or the spectrum matrix; {<section>.<rule>: _rule(...)}) or the command's error
_READERS = {"rates_sweep": _read_rates_sweep, "benchmark_eig": _read_benchmark_eig,
            "transient": _read_transient, "spectrum_grid": _read_spectrum_grid,
            "propagate": _read_propagate, "compare_gambetta": _read_compare_gambetta}


def _read(config: RunConfig, name: str):
    """Section `name` through its reader; its failed rules are warnings on stderr."""
    values, rules = _READERS[name](config)
    for passed, _, warning in rules.values():
        if not passed:
            print(f"warning: {warning}", file=sys.stderr)
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
    section = dt, t_end, levels, series = _read(config, "transient")
    # the step rule's error, where the reader ran nothing
    response._grid_steps(config.params, t_end, dt, _STEPPED_LEVELS["transient"](section))
    transient.write_transient_csv(out, *series, pair=levels[0], header=header)


def cmd_spectrum_grid(config: RunConfig, out: str, header: bool, threads: int) -> None:
    effective.write_spectrum_grid_csv(out, _read(config, "spectrum_grid"), header=header)


def cmd_propagate(config: RunConfig, out: str, header: bool, threads: int) -> None:
    section = dt, t_end, _, columns = _read(config, "propagate")
    # the step rule's error, where the reader ran nothing
    response._grid_steps(config.params, t_end, dt, _STEPPED_LEVELS["propagate"](section))
    write_csv(out, columns, header=header)


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


def cmd_validate(config: RunConfig, out: str | None, header: bool, threads: int) -> int:
    """Run the reader of every section in the config and report, as checks
    {"passed", "detail"} named <section>.<rule>, the rules of its commands:

      validity_margin  transient, benchmark_eig: below 1 (the command warns)
      truncation       benchmark_eig: below model.truncation_error's bound (the
                       command warns)
      dt               transient, propagate: 0 < dt <= the bound of the command's own
                       step rule, response._step_error: the smallest max_stable_dt of
                       the levels it steps (else it raises); reports dt / bound, and
                       above the bound the rule's error text

    Drives are the pulse peak, and benchmark_eig's strongest grid point.
    Returns the exit code, 1 when a check fails; a reader's error propagates.
    """
    read = {name: _READERS[name](config) for name in config.sections}
    rules = {name: rule for _, section in read.values() for name, rule in section.items()}
    for name in _STEPPED_LEVELS.keys() & read.keys():
        section = read[name][0]  # the parsed section is (dt, t_end, ...)
        dt, levels = section[0], _STEPPED_LEVELS[name](section)
        bound, problem = response._step_error(config.params, dt, levels)
        ratio = dt / bound if bound else np.inf  # an overflowing level bounds dt by 0
        rules[f"{name}.dt"] = (0.0 < dt <= bound, f"dt / bound = {ratio:.3g} "
                               f"(dt {dt:g} ns, bound {bound:.4g} ns)"
                               + (f": {problem}" if problem else ""), None)
    checks = {name: {"passed": bool(passed), "detail": detail}
              for name, (passed, detail, _) in rules.items()}

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
