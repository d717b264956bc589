"""System parameters, pulse envelopes, and the units contract.

Units convention used across the package: every spectral quantity (detunings,
anharmonicity, dispersive shift, decay and drive rates) is stored as a cyclic
frequency in MHz, i.e. the omega/2pi value. Times are in ns. Whenever a phase
or decay exponent is formed, the frequency is multiplied by 2*pi and the time
by 1e-3 (ns -> us), so that 1 MHz * 1 us = one full cycle. The constant
RAD_PER_MHZ_NS below is that conversion factor.

Every CSV the package writes goes through write_csv, which owns the output
format: each value is printed as "%.12g" % (x + 0.0), the same text as the
f"{x + 0.0:.12g}" of earlier versions (12 significant digits, signed zeros
printed as 0), comma-separated with \r\n line ends; the header row goes
through the default csv dialect.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

# angular rad/ns per cyclic MHz: phase = RAD_PER_MHZ_NS * f_mhz * t_ns
RAD_PER_MHZ_NS = 2.0e-3 * math.pi

# rows formatted per write in write_csv; bounds its memory, not its output
_CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class SystemParams:
    """Frequencies (cyclic MHz) and truncations of the driven Kerr readout model.

    delta_ad : qubit-drive detuning
    delta_cd : resonator-drive detuning
    alpha_a  : qubit anharmonicity (enters the Hamiltonian for levels >= 2 only)
    chi_ac   : half the full dispersive shift (may be negative)
    kappa_c  : resonator decay rate (>= 0)
    n_a, n_c : qubit / resonator truncation dimensions (>= 2)
    """

    delta_ad: float
    delta_cd: float
    alpha_a: float
    chi_ac: float
    kappa_c: float
    n_a: int
    n_c: int

    def __post_init__(self):
        for name in ("delta_ad", "delta_cd", "alpha_a", "chi_ac", "kappa_c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.kappa_c < 0:
            raise ValueError("kappa_c must be >= 0")
        if self.n_a < 2 or self.n_c < 2:
            raise ValueError("truncations n_a and n_c must both be >= 2")


@dataclass(frozen=True)
class PulseSpec:
    """Drive pulse: peak amplitude omega_c (MHz) and envelope shape.

    kind 'constant' is an always-on unit envelope (a step drive when the
    response is integrated from eta(0)=0). kind 'square-gaussian' is a flat-top
    pulse with Gaussian ramps of width sigma_r over rise time tau_r, total
    length tau_p (all ns); the envelope is exactly 0 outside [0, tau_p].
    """

    kind: str
    omega_c: float
    tau_p: float = 0.0
    tau_r: float = 0.0
    sigma_r: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "square-gaussian"):
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        if self.kind == "square-gaussian":
            if not 0.0 < self.tau_r <= self.tau_p / 2.0:
                raise ValueError("square-gaussian requires 0 < tau_r <= tau_p/2")
            if self.sigma_r <= 0.0:
                raise ValueError("square-gaussian requires sigma_r > 0")


def detuning_l(params: SystemParams, n: int) -> complex:
    """Ket-copy complex detuning for qubit level n (MHz)."""
    return params.delta_cd - 0.5j * params.kappa_c + 2.0 * params.chi_ac * n


def detuning_r(params: SystemParams, n: int) -> complex:
    """Bra-copy complex detuning for qubit level n (MHz); exactly
    conj(detuning_l(params, n))."""
    return params.delta_cd + 0.5j * params.kappa_c + 2.0 * params.chi_ac * n


def sg_envelope(t, pulse: PulseSpec):
    """Dimensionless envelope value in [0, 1] at time t (ns).

    Flat-top with Gaussian shoulders; identically 0 outside [0, tau_p].
    Accepts scalars or arrays.
    """
    scalar = np.ndim(t) == 0
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if pulse.kind == "constant":
        out = np.ones_like(t_arr)
        return float(out[0]) if scalar else out
    tau_p, tau_r, sig = pulse.tau_p, pulse.tau_r, pulse.sigma_r
    floor = math.exp(-tau_r**2 / (2.0 * sig**2))
    norm = 1.0 - floor
    out = np.zeros_like(t_arr)

    up = (t_arr >= 0.0) & (t_arr <= tau_r)
    out[up] = (np.exp(-((t_arr[up] - tau_r) ** 2) / (2.0 * sig**2)) - floor) / norm
    flat = (t_arr > tau_r) & (t_arr < tau_p - tau_r)
    out[flat] = 1.0
    down = (t_arr >= tau_p - tau_r) & (t_arr <= tau_p)
    out[down] = (np.exp(-((t_arr[down] - (tau_p - tau_r)) ** 2) / (2.0 * sig**2)) - floor) / norm
    return float(out[0]) if scalar else out


def constant_envelope(pulse: PulseSpec, t0: float, t1: float) -> float | None:
    """The value sg_envelope gives on all of [t0, t1] (ns) when its own
    branches make it constant there, else None.

    That is 1.0 for a constant pulse, 1.0 strictly inside the flat top
    (tau_r < t0 and t1 < tau_p - tau_r) and 0.0 strictly after the pulse
    (t0 > tau_p). Any interval that overlaps a ramp or touches a branch point
    gives None, even where the envelope happens to be constant.
    """
    if pulse.kind == "constant":
        return 1.0
    if pulse.tau_r < t0 and t1 < pulse.tau_p - pulse.tau_r:
        return 1.0
    if t0 > pulse.tau_p:
        return 0.0
    return None


def envelope_derivatives(t, pulse: PulseSpec, order: int):
    """Analytic time derivative of the envelope, order 1..3, in 1/ns^order.

    Zero on the plateau, outside the pulse, and for constant pulses. At the
    branch points the ramp-side one-sided value is returned.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"unsupported envelope derivative order {order}")
    scalar = np.ndim(t) == 0
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t_arr)
    if pulse.kind == "constant":
        return float(out[0]) if scalar else out

    tau_p, tau_r, sig = pulse.tau_p, pulse.tau_r, pulse.sigma_r
    norm = 1.0 - math.exp(-tau_r**2 / (2.0 * sig**2))

    def ramp(u):
        # derivatives of exp(-u^2/(2 sig^2))/norm with respect to t
        g = np.exp(-(u**2) / (2.0 * sig**2)) / norm
        if order == 1:
            return -u / sig**2 * g
        if order == 2:
            return (u**2 / sig**4 - 1.0 / sig**2) * g
        return (-(u**3) / sig**6 + 3.0 * u / sig**4) * g

    up = (t_arr >= 0.0) & (t_arr <= tau_r)
    out[up] = ramp(t_arr[up] - tau_r)
    down = (t_arr >= tau_p - tau_r) & (t_arr <= tau_p)
    out[down] = ramp(t_arr[down] - (tau_p - tau_r))
    return float(out[0]) if scalar else out


def validity_margin(params: SystemParams, omega_c: float) -> float:
    """Ratio of the collective interaction to the detuning gap product.

    |chi_ac * omega_c| / (sqrt(delta_cd^2 + (kappa_c/2)^2)
                          * sqrt((delta_cd + 2 chi_ac)^2 + (kappa_c/2)^2))

    The perturbative effective map is trustworthy when this is well below 1;
    callers should warn at >= 1. Raises ValueError when qubit level 0 or 1
    sits on its undamped dressed resonance (kappa_c = 0 and
    delta_cd + 2 chi_ac n = 0), where the ratio has no value.
    """
    d, chi, k = params.delta_cd, params.chi_ac, params.kappa_c
    rhs = math.sqrt(d**2 + (k / 2.0) ** 2) * math.sqrt((d + 2.0 * chi) ** 2 + (k / 2.0) ** 2)
    if rhs == 0.0:
        raise ValueError(f"delta_cd = {d + 0.0:g} MHz puts qubit level {0 if d == 0.0 else 1} "
                         f"on its undamped dressed resonance (kappa_c = 0): the validity "
                         f"margin has no value")
    return abs(chi * omega_c) / rhs


def truncation_error(photon: float, n_c: int) -> str | None:
    """The one rule for a resonator truncation too small for its photon number.

    A coherent state of photon >= n_c/4 has a Fock tail that n_c levels cut
    off; the message then names the photon number and the bound, else None.
    """
    if photon >= n_c / 4.0:
        return (f"photon number {photon:.3g} >= n_c/4 = {n_c / 4.0:g}: too large for "
                f"n_c = {n_c}; increase the resonator truncation")
    return None


def params_from_dict(cfg: dict) -> SystemParams:
    """Build SystemParams from the JSON config keys (…_mhz names)."""
    keys = {
        "delta_ad_mhz", "delta_cd_mhz", "alpha_a_mhz",
        "chi_ac_mhz", "kappa_c_mhz", "n_a", "n_c",
    }
    unknown = set(cfg) - keys
    if unknown:
        raise ValueError(f"unknown system parameter key(s): {sorted(unknown)}")
    missing = keys - set(cfg)
    if missing:
        raise ValueError(f"missing system parameter key(s): {sorted(missing)}")
    return SystemParams(
        delta_ad=float(cfg["delta_ad_mhz"]),
        delta_cd=float(cfg["delta_cd_mhz"]),
        alpha_a=float(cfg["alpha_a_mhz"]),
        chi_ac=float(cfg["chi_ac_mhz"]),
        kappa_c=float(cfg["kappa_c_mhz"]),
        n_a=int(cfg["n_a"]),
        n_c=int(cfg["n_c"]),
    )


def pulse_from_dict(cfg: dict) -> PulseSpec:
    """Build PulseSpec from the JSON config 'pulse' section."""
    allowed = {"kind", "omega_c_mhz", "tau_p_ns", "tau_r_ns", "sigma_r_ns"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"unknown pulse key(s): {sorted(unknown)}")
    if "kind" not in cfg or "omega_c_mhz" not in cfg:
        raise ValueError("pulse section requires 'kind' and 'omega_c_mhz'")
    return PulseSpec(
        kind=str(cfg["kind"]),
        omega_c=float(cfg["omega_c_mhz"]),
        tau_p=float(cfg.get("tau_p_ns", 0.0)),
        tau_r=float(cfg.get("tau_r_ns", 0.0)),
        sigma_r=float(cfg.get("sigma_r_ns", 0.0)),
    )


def write_csv(path, columns: dict, header: bool = True) -> None:
    """Write equal-length 1-D columns, keyed by their header names, one row per index.

    Each value is converted to float and printed as "%.12g" % (x + 0.0), the
    same text as f"{x + 0.0:.12g}": 12 significant digits, integers without a
    decimal point, and the + 0.0 folding signed zeros. Rows are formatted a
    block at a time, so memory stays flat in the row count. A complex column,
    an empty mapping, a column that is not 1-D, or columns of different
    lengths raise ValueError before the file is opened.
    """
    if any(np.iscomplexobj(c) for c in columns.values()):
        raise ValueError("write_csv takes real columns; write complex ones as .real and .imag")
    data = [np.asarray(c, dtype=float) for c in columns.values()]
    shapes = {name: col.shape for name, col in zip(columns, data)}
    if len(set(shapes.values())) != 1 or data[0].ndim != 1:
        raise ValueError(f"write_csv takes one or more 1-D columns of equal length, got {shapes}")
    row = ",".join(["%.12g"] * len(data)) + "\r\n"
    with open(path, "w", newline="") as fh:
        if header:
            csv.writer(fh).writerow(list(columns))
        for start in range(0, len(data[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([col[start:start + _CSV_BLOCK_ROWS] for col in data]) + 0.0
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
