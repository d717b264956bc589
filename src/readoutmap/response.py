"""Classical resonator response to the drive, with analytic derivatives.

The mean-field amplitude eta(t) of the damped, driven resonator obeys (in the
package units, time in ns, rates in cyclic MHz)

    d(eta)/dt = -(2*pi*i*delta_cd + pi*kappa_c) * 1e-3 * eta
                - i*pi*1e-3 * omega_c(t)

with eta(0) = 0. A fixed-step classic RK4 on a uniform grid is used so that
downstream correlation integrals stay grid-aligned; it is evaluated as its
one-step recurrence by one banded solve (`_rk4_linear`, shared with the
transient correlation integrals). That solve is the package's only use of
scipy, imported on its first call so that importing the package loads numpy
alone. Derivatives are obtained from the ODE itself (differentiating it once
and twice) rather than from the samples, which keeps the adiabatic derivative
expansion noise-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RAD_PER_MHZ_NS, PulseSpec, SystemParams, envelope_derivatives, sg_envelope


@dataclass(frozen=True)
class ResonatorTrajectory:
    """Uniformly sampled complex resonator amplitude and its derivatives.

    times in ns; eta dimensionless; eta_d1/2/3 in 1/ns^k. photon = |eta|^2.
    """

    times: np.ndarray
    eta: np.ndarray
    eta_d1: np.ndarray
    eta_d2: np.ndarray
    eta_d3: np.ndarray
    pulse: PulseSpec

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def photon(self) -> np.ndarray:
        return np.abs(self.eta) ** 2


def steady_state(params: SystemParams, omega_c: float) -> tuple[complex, float]:
    """Steady-state amplitude and photon number under a constant drive.

    eta_ss = -(i/2) omega_c / (i delta_cd + kappa_c/2)
    n_c    = (omega_c/2)^2 / (delta_cd^2 + (kappa_c/2)^2)
    """
    denom = 1j * params.delta_cd + params.kappa_c / 2.0
    if denom == 0:
        raise ValueError("degenerate resonator: delta_cd = kappa_c = 0 has no steady state")
    eta_ss = -0.5j * omega_c / denom
    n_c = (omega_c / 2.0) ** 2 / (params.delta_cd**2 + (params.kappa_c / 2.0) ** 2)
    return eta_ss, n_c


def _decay_rate_per_ns(params: SystemParams) -> complex:
    return (2.0j * np.pi * params.delta_cd + np.pi * params.kappa_c) * 1.0e-3


def max_stable_dt(params: SystemParams, pulse: PulseSpec) -> float:
    """Largest allowed RK4 step: 0.05 rad of the fastest rate per step."""
    fastest = max(abs(params.delta_cd), params.kappa_c, abs(pulse.omega_c))
    if fastest == 0.0:
        return np.inf
    return 0.05 / (RAD_PER_MHZ_NS * fastest)


def _rk4_linear(mu: complex, f: np.ndarray, fm: np.ndarray, h: float, z0: complex) -> np.ndarray:
    """Classic RK4 for du/dt = mu*u + f(t) from u[0] = z0 on a uniform grid.

    f holds the forcing at the N grid points, fm at the N-1 interval midpoints;
    h is the signed step. With a = h*mu, one RK4 step is exactly

        u[k+1] = R*u[k] + g[k],  R = 1 + a + a^2/2 + a^3/6 + a^4/24,
        g[k] = (h/6) [(1 + a + a^2/2 + a^3/4) f[k] + (4 + 2a + a^2/2) fm[k] + f[k+1]],

    so the trajectory is one unit lower-bidiagonal banded solve. LAPACK ztbtrs
    runs it as plain forward substitution, i.e. that recurrence; a pivoting
    band LU (solve_banded) would reorder the arithmetic.
    """
    from scipy.linalg.lapack import ztbtrs

    a = h * mu
    r = 1.0 + a * (1.0 + a * (0.5 + a * (1.0 / 6.0 + a / 24.0)))
    rhs = np.empty(f.size, dtype=complex)
    rhs[0] = z0
    g = rhs[1:]
    np.multiply(1.0 + a * (1.0 + a * (0.5 + 0.25 * a)), f[:-1], out=g)
    g += (4.0 + a * (2.0 + 0.5 * a)) * fm
    g += f[1:]
    g *= h / 6.0
    ab = np.empty((2, f.size), dtype=complex, order="F")  # LAPACK band storage
    ab[0] = 1.0
    ab[1] = -r
    u, _ = ztbtrs(ab, rhs[:, None], uplo="L", diag="U", overwrite_b=True)
    return u[:, 0]


def _eta_samples(params: SystemParams, pulse: PulseSpec, t_end: float, dt: float) -> np.ndarray:
    """eta on the grid k*dt, k = 0..round(t_end/dt): the RK4 trajectory alone."""
    if not dt > 0.0:
        raise ValueError(f"step size dt = {dt} ns must be > 0")
    if not t_end >= 0.0:
        raise ValueError(f"end time t_end = {t_end} ns must be >= 0")
    dt_max = max_stable_dt(params, pulse)
    if dt > dt_max:
        raise ValueError(f"step size {dt} ns exceeds stability bound {dt_max:.4g} ns")
    n_steps = int(round(t_end / dt))
    half_grid = np.arange(2 * n_steps + 1) * (dt / 2.0)
    dr = -1.0j * np.pi * 1.0e-3 * pulse.omega_c * sg_envelope(half_grid, pulse)
    return _rk4_linear(-_decay_rate_per_ns(params), dr[0::2], dr[1::2], dt, 0.0)


def solve_eta(params: SystemParams, pulse: PulseSpec, t_end: float, dt: float) -> ResonatorTrajectory:
    """Integrate the resonator response on [0, t_end] ns with step dt.

    kappa_c = 0 is accepted and is not an error: the resonator is undamped and
    eta rings up without settling (at delta_cd = 0 under a constant drive it
    grows linearly, eta = -i*pi*1e-3*omega_c*t), finite on any finite grid.

    Raises ValueError when dt is not positive, t_end is negative, or dt
    violates the stability/accuracy bound.
    """
    eta = _eta_samples(params, pulse, t_end, dt)
    beta = _decay_rate_per_ns(params)
    drive = -1.0j * np.pi * 1.0e-3 * pulse.omega_c
    times = np.arange(eta.size) * dt
    env = sg_envelope(times, pulse)
    env_d1 = envelope_derivatives(times, pulse, 1)
    env_d2 = envelope_derivatives(times, pulse, 2)
    eta_d1 = -beta * eta + drive * env
    eta_d2 = -beta * eta_d1 + drive * env_d1
    eta_d3 = -beta * eta_d2 + drive * env_d2
    return ResonatorTrajectory(times=times, eta=eta, eta_d1=eta_d1, eta_d2=eta_d2,
                               eta_d3=eta_d3, pulse=pulse)

