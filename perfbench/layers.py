"""Per-layer metrics of the traced run.

The layers are the package modules. Spans are named `<module>.<function>`
(see tracing.py); the observers below read problem sizes and accuracy numbers
from the arguments (by parameter name) and results of a few of those calls,
after the span has ended. Counts marked "computed" are derived from array sizes, not measured.
"""

from __future__ import annotations

import numpy as np

from readoutmap import (cli, effective, eigenstates, liouville, model, response, spectra,
                        transient)

MODULES = [cli, model, response, liouville, spectra, effective, transient, eigenstates]


def _generator(args, result):
    data = result.data
    return {"dim": result.dim, "nnz_frac": np.count_nonzero(data) / data.size}


def _propagate(args, result):
    # a constant pulse takes the matrix-power path: no RK4 steps are taken one
    # by one, so only time-dependent pulses count steps
    stepwise = args["pulse"].kind != "constant"
    return {"dim": args["state0"].vec.size if stepwise else 0,
            "steps": int(round(args["t_end"] / args["dt"])) if stepwise else 0,
            "trace_drift": result.max_trace_drift,
            "herm_drift": result.max_hermiticity_drift}


def _eigendecompose(args, result):
    op = args["op"]
    mat = op.data if hasattr(op, "data") else np.asarray(op)
    return {"dim": mat.shape[0],
            "residual": float(np.max(result.residuals) / np.linalg.norm(mat))}


def _correlations(args, result):
    pairs = result.pairs
    left, right = {m for m, _ in pairs}, {n for _, n in pairs}
    # two particular solutions per distinct level on each side, two cascades per pair
    return {"solves": 2 * (len(left) + len(right)) + 2 * len(pairs),
            "grid": result.times.size}


OBSERVERS = {
    "liouville.build_extended_hamiltonian": _generator,
    "liouville.extended_drive_operator": _generator,
    "liouville.propagate": _propagate,
    "spectra.eigendecompose": _eigendecompose,
    "spectra.track_coherence": lambda a, r: {"min_overlap": float(np.min(r.overlaps[1:]))},
    "eigenstates.fidelity_sweep": lambda a, r: {"points": len(a["omega_c_values"])},
    "response.solve_eta": lambda a, r: {"steps": r.times.size - 1},
    "transient.correlations_timedomain": _correlations,
}

BUILD = ("liouville.build_extended_hamiltonian", "liouville.extended_drive_operator")
CSV_WRITERS = ("effective.write_rates_sweep_csv", "effective.write_spectrum_grid_csv")

# (name, unit) in report order; every workload reports every one of them,
# 0 where the layer does not run
METRICS = [
    ("cli.load_config_s", "s"), ("cli.cmd_self_s", "s"), ("cli.csv_rows", "count"),
    ("cli.csv_bytes", "bytes"),
    ("liouville.build_s", "s"), ("liouville.build_calls", "count"), ("liouville.dim", "count"),
    ("liouville.nnz_frac", "ratio"),
    ("liouville.propagate_s", "s"), ("liouville.propagate_steps", "count"),
    ("liouville.step_flops", "flop"), ("liouville.trace_drift", "dimensionless"),
    ("liouville.herm_drift", "dimensionless"),
    ("spectra.eig_s", "s"), ("spectra.eig_calls", "count"), ("spectra.eig_dim", "count"),
    ("spectra.eig_flops", "flop"), ("spectra.eig_1t_s", "s"), ("spectra.track_s", "s"),
    ("spectra.min_overlap", "dimensionless"), ("spectra.max_residual", "ratio"),
    ("spectra.write_csv_s", "s"),
    ("eigenstates.fidelity_sweep_s", "s"), ("eigenstates.points", "count"),
    ("response.solve_eta_s", "s"), ("response.steps", "count"), ("response.steps_per_s", "1/s"),
    ("transient.correlations_s", "s"), ("transient.particular_solves", "count"),
    ("transient.grid_points", "count"), ("transient.generator_s", "s"),
    ("transient.write_csv_s", "s"),
    ("effective.rates_s", "s"), ("effective.rate_evals", "count"),
    ("effective.map_apply_s", "s"), ("effective.write_csv_s", "s"),
    ("trace.pass_s", "s"), ("trace.busy_s", "s"), ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("check.oracle_err", "ratio"), ("check.fail_ratio", "ratio"),
]


def eig_flops(n: int) -> float:
    """Computed: 25 n^3 operations for the shifted-QR eigensolve with
    eigenvectors (Golub & Van Loan), at 4 real flops per complex operation."""
    return 100.0 * n**3


def step_flops(dim: int) -> float:
    """Computed: one time-dependent RK4 step is 4 stages x 2 dense complex
    matvecs of size dim, 8 real flops per complex multiply-add."""
    return 64.0 * dim**2


def layer_values(tracer, passes: int) -> dict[str, float]:
    """Per-pass layer numbers from the spans of `passes` traced passes."""
    spans = tracer.spans
    selfs = tracer.self_times()

    def pick(*names):
        return [s for s in spans if s.name in names]

    def total(*names):
        return sum(s.duration for s in pick(*names)) / passes

    def count(*names):
        return len(pick(*names)) / passes

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in pick(name)) / passes

    def attr_max(names, key):
        return max((s.attrs[key] for s in pick(*names) if key in s.attrs), default=0.0)

    eig = pick("spectra.eigendecompose")
    step_dim = attr_max(["liouville.propagate"], "dim")  # stepwise propagations only
    solve_s = total("response.solve_eta")
    steps = attr_sum("response.solve_eta", "steps")
    return {
        "cli.load_config_s": total("cli.load_config"),
        "cli.cmd_self_s": sum(t for s, t in zip(spans, selfs)
                              if s.name.startswith("cli.cmd_")) / passes,
        "liouville.build_s": total(*BUILD),
        "liouville.build_calls": count(*BUILD),
        "liouville.dim": attr_max(BUILD, "dim"),
        "liouville.nnz_frac": attr_max(BUILD, "nnz_frac"),
        "liouville.propagate_s": total("liouville.propagate"),
        "liouville.propagate_steps": attr_sum("liouville.propagate", "steps"),
        "liouville.step_flops": step_flops(step_dim) if step_dim else 0.0,
        "liouville.trace_drift": attr_max(["liouville.propagate"], "trace_drift"),
        "liouville.herm_drift": attr_max(["liouville.propagate"], "herm_drift"),
        "spectra.eig_s": total("spectra.eigendecompose"),
        "spectra.eig_calls": count("spectra.eigendecompose"),
        "spectra.eig_dim": attr_max(["spectra.eigendecompose"], "dim"),
        "spectra.eig_flops": sum(eig_flops(s.attrs["dim"]) for s in eig) / passes,
        "spectra.track_s": sum(t for s, t in zip(spans, selfs)
                               if s.name == "spectra.track_coherence") / passes,
        "spectra.min_overlap": min((s.attrs["min_overlap"]
                                    for s in pick("spectra.track_coherence")), default=0.0),
        "spectra.max_residual": attr_max(["spectra.eigendecompose"], "residual"),
        "spectra.write_csv_s": total("spectra.write_track_csv"),
        "eigenstates.fidelity_sweep_s": total("eigenstates.fidelity_sweep"),
        "eigenstates.points": attr_sum("eigenstates.fidelity_sweep", "points"),
        "response.solve_eta_s": solve_s,
        "response.steps": steps,
        "response.steps_per_s": steps / solve_s if solve_s else 0.0,
        "transient.correlations_s": total("transient.correlations_timedomain"),
        "transient.particular_solves": attr_sum("transient.correlations_timedomain", "solves"),
        "transient.grid_points": attr_sum("transient.correlations_timedomain", "grid"),
        "transient.generator_s": total("transient.effective_generator_timedep"),
        "transient.write_csv_s": total("transient.write_transient_csv"),
        "effective.rates_s": total("effective.rates", "effective.gambetta_rates"),
        "effective.rate_evals": count("effective.rates", "effective.gambetta_rates"),
        "effective.map_apply_s": total("effective.effective_map_apply"),
        "effective.write_csv_s": total(*CSV_WRITERS),
        "trace.busy_s": sum(selfs) / passes,
        "trace.spans": len(spans) / passes,
    }
