"""Time-dependent drive correlation functions and the assembled generator.

The second-order correlations A_ll/A_rr and the third-order cross correlations
B_lr/C_lr are indefinite (particular-solution) integrals of the resonator
response against dressed-detuning phase kernels. Each one reduces to scalar
auxiliary states u obeying du/dt = mu*u + f(t) with complex mu = +-i*w, where
w is a dressed detuning in rad/ns. Each is integrated by classic RK4, evaluated
as its one-step recurrence by a blocked numpy scan (`response._rk4_linear`,
shared with the resonator response). |Re(mu)| is half the resonator linewidth
and its sign sets the direction, so kappa_c must be positive:

  * Re(mu) < 0 (decaying kernel): the particular solution is the causal one;
    integrate forward from u(0) = 0. The pulse starts from eta(0) = 0,
    so the homogeneous admixture is negligible and decays anyway.
  * Re(mu) > 0 (growing kernel): forward integration is exponentially unstable
    (homogeneous growth at kappa/2); the particular solution is future-
    directed, u(t) = -Integral_t^inf f(s) e^{mu (t-s)} ds, and is obtained by
    integrating backward from t_end with the first-order slowly-varying
    estimate u(t_end) = -f/mu - f'/mu^2 as the final value. The estimate's
    error decays at kappa/2 away from t_end, so the last ~4/kappa of the grid
    should be treated as a settling zone.

B_lr needs only products of single integrals (its double integrals share the
upper limit); C_lr nests one integral inside another and is realized as a
two-stage cascade, O(N) in the grid length.

RK4 midpoint values of the drive terms come from cubic Hermite interpolation
using the analytically known first derivatives, which preserves the solver's
fourth order without leaving the trajectory grid.

Results are reported in the package units: A in 1/MHz, B and C in 1/MHz^2, so
the assembled generator E(t) lands in MHz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RAD_PER_MHZ_NS, SystemParams, detuning_l, detuning_r, write_csv
from .response import ResonatorTrajectory, _rk4_linear


@dataclass(frozen=True)
class CorrelationSet:
    """Per level-pair complex correlation series on the trajectory grid."""

    times: np.ndarray
    pairs: list[tuple[int, int]]
    a_ll: dict[tuple[int, int], np.ndarray]
    a_rr: dict[tuple[int, int], np.ndarray]
    b_lr: dict[tuple[int, int], np.ndarray]
    c_lr: dict[tuple[int, int], np.ndarray]


@dataclass(frozen=True)
class GeneratorSeries:
    """Assembled complex generator entries E_{n_al,n_ar}(t) in MHz."""

    times: np.ndarray
    values: dict[tuple[int, int], np.ndarray]


def _midpoints(f: np.ndarray, fdot: np.ndarray, dt: float) -> np.ndarray:
    # cubic Hermite at the interval centers, O(dt^4) with exact end derivatives
    return 0.5 * (f[:-1] + f[1:]) + dt * (fdot[:-1] - fdot[1:]) / 8.0


def _particular(f: np.ndarray, fdot: np.ndarray, mu: complex, dt: float) -> np.ndarray:
    """Particular solution of du/dt = mu u + f on the grid (direction by Re mu)."""
    fm = _midpoints(f, fdot, dt)
    if mu.real < 0.0:
        return _rk4_linear(mu, f, fm, dt, 0.0)
    z_end = -f[-1] / mu - fdot[-1] / mu**2  # slowly-varying particular estimate
    return _rk4_linear(mu, f[::-1], fm[::-1], -dt, z_end)[::-1]


def correlations_timedomain(traj: ResonatorTrajectory, params: SystemParams,
                            levels) -> CorrelationSet:
    """Correlation functions for the requested (n_al, n_ar) level pairs.

    The trajectory must be on a uniform grid with eta(0) = 0 (every series is
    then exactly zero at t = 0). Raises ValueError for kappa_c = 0: with no
    resonator decay neither integration direction damps the homogeneous error.
    """
    if params.kappa_c <= 0:
        raise ValueError("correlations_timedomain requires kappa_c > 0")
    pairs = [(int(m), int(n)) for m, n in levels]
    t = traj.times
    if t.size < 2:
        raise ValueError("correlations need at least two grid points: t_end is below dt/2")
    dt = traj.dt
    steps = np.diff(t)
    if steps.size and np.max(np.abs(steps - dt)) > 1e-9 * dt:
        raise ValueError("trajectory grid is not uniform")
    eta = traj.eta
    if abs(eta[0]) > 1e-12 * max(1.0, float(np.max(np.abs(eta)))):
        raise ValueError("trajectory must start from eta(0) = 0")
    etad = traj.eta_d1
    eta_c, etad_c = np.conj(eta), np.conj(etad)

    # unique per-side auxiliary states, keyed by qubit level
    left_levels = sorted({p[0] for p in pairs})
    right_levels = sorted({p[1] for p in pairs})
    fwd_l, bwd_l, fwd_r, bwd_r = {}, {}, {}, {}
    for n in left_levels:
        w_l = RAD_PER_MHZ_NS * detuning_l(params, n)
        fwd_l[n] = _particular(eta, etad, -1j * w_l, dt)    # decaying kernel
        bwd_l[n] = _particular(eta_c, etad_c, 1j * w_l, dt)  # growing kernel
    for n in right_levels:
        w_r = RAD_PER_MHZ_NS * detuning_r(params, n)
        fwd_r[n] = _particular(eta_c, etad_c, 1j * w_r, dt)  # decaying kernel
        bwd_r[n] = _particular(eta, etad, -1j * w_r, dt)     # growing kernel

    a_ll, a_rr, b_lr, c_lr = {}, {}, {}, {}
    s1 = RAD_PER_MHZ_NS          # ns-angular integral -> 1/MHz
    s2 = RAD_PER_MHZ_NS**2
    for n_al, n_ar in pairs:
        w_l = RAD_PER_MHZ_NS * detuning_l(params, n_al)
        w_r = RAD_PER_MHZ_NS * detuning_r(params, n_ar)
        f_l, g_l = fwd_l[n_al], bwd_l[n_al]
        f_r, g_r = fwd_r[n_ar], bwd_r[n_ar]

        a_ll[(n_al, n_ar)] = s1 * (eta * g_l - eta_c * f_l) / 2j
        a_rr[(n_al, n_ar)] = s1 * (eta * f_r - eta_c * g_r) / 2j

        # cross terms; dd = i (w_r - w_l) never vanishes for kappa_c > 0
        dd = 1j * (w_r - w_l)
        if dd == 0:
            raise ValueError("coincident dressed detunings: cross correlations are singular")
        b_lr[(n_al, n_ar)] = s2 * (f_r * f_l - (eta * f_r + eta_c * f_l) / (2.0 * dd))

        fdot_l = -1j * w_l * f_l + eta      # derivative of the inner stage from its ODE
        fdot_r = 1j * w_r * f_r + eta_c
        casc_l = _particular(f_l, fdot_l, -1j * w_r, dt)
        casc_r = _particular(f_r, fdot_r, 1j * w_l, dt)
        c_lr[(n_al, n_ar)] = s2 * ((eta_c * g_r + eta * g_l) / (2.0 * dd)
                                   - 0.5 * (eta_c * casc_l + eta * casc_r))

    return CorrelationSet(times=t, pairs=pairs, a_ll=a_ll, a_rr=a_rr, b_lr=b_lr, c_lr=c_lr)


def _side_detuning(params: SystemParams, level: int, side: str) -> complex:
    if side not in ("l", "r"):
        raise ValueError("side must be 'l' or 'r'")
    return detuning_l(params, level) if side == "l" else detuning_r(params, level)


def adiabatic_series_A(traj: ResonatorTrajectory, params: SystemParams, level: int,
                       order: int, side: str = "l") -> np.ndarray:
    """Derivative expansion of the second-order correlation, orders 0..2.

    order 0:  |eta|^2 / d
    order 1:  + (eta deta* - eta* deta) / (2i d^2)
    order 2:  - (eta ddeta* + eta* ddeta) / (2 d^3)

    with d the dressed detuning (MHz) and derivatives taken per phase time
    2*pi*t_us, so the result is in 1/MHz like correlations_timedomain.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"unsupported adiabatic order {order}")
    d = _side_detuning(params, level, side)
    eta = traj.eta
    out = np.abs(eta) ** 2 / d
    if order >= 1:
        d1 = traj.eta_d1 / RAD_PER_MHZ_NS  # per phase time
        out = out + (eta * np.conj(d1) - np.conj(eta) * d1) / (2j * d**2)
    if order >= 2:
        d2 = traj.eta_d2 / RAD_PER_MHZ_NS**2
        out = out - (eta * np.conj(d2) + np.conj(eta) * d2) / (2.0 * d**3)
    return out


def fourier_A(traj: ResonatorTrajectory, params: SystemParams, level: int,
              n_freq: int, side: str = "l") -> np.ndarray:
    """Second-order correlation through the frequency domain.

    The double-frequency kernel (w + w' + 2d)/(2 (w+d)(w'+d)) splits into
    1/2 [1/(w+d) + 1/(w'+d)], so the double transform collapses to products of
    single transforms of the response. The trajectory is zero-padded to
    n_freq (a power of two, >= the grid length); the series is returned on the
    original grid in 1/MHz. The signal should have decayed by the end of the
    window, and the band edge must resolve the kernel pole.
    """
    if n_freq < traj.times.size:
        raise ValueError("n_freq must cover the trajectory length")
    if n_freq & (n_freq - 1):
        raise ValueError("n_freq must be a power of two")
    d = _side_detuning(params, level, side)
    w_hat = RAD_PER_MHZ_NS * d  # rad/ns
    dt = traj.dt
    if np.pi / dt < 4.0 * abs(w_hat):
        raise ValueError("grid too coarse: band edge does not resolve the dressed detuning")
    n = traj.times.size
    x = np.fft.fft(traj.eta, n_freq)
    w = 2.0 * np.pi * np.fft.fftfreq(n_freq, dt)
    forward_part = np.fft.ifft(x / (w + w_hat))
    backward_part = np.fft.fft(np.conj(x) / (w + w_hat)) / n_freq
    series = 0.5 * (backward_part[:n] * traj.eta + np.conj(traj.eta) * forward_part[:n])
    return RAD_PER_MHZ_NS * series


def effective_generator_timedep(corr: CorrelationSet, traj: ResonatorTrajectory,
                                params: SystemParams, levels) -> GeneratorSeries:
    """Assemble E_{n_al,n_ar}(t) (MHz) from the correlation series:

    E = 2 chi |eta|^2 (n_al - n_ar) - 4 chi^2 (A_ll n_al^2 - A_rr n_ar^2)
        + 4i chi^2 kappa (B/6 + C/2) n_al n_ar
    """
    if corr.times.shape != traj.times.shape or np.max(np.abs(corr.times - traj.times)) > 1e-9:
        raise ValueError("correlation set and trajectory are on different grids")
    chi, kap = params.chi_ac, params.kappa_c
    photon = traj.photon
    values = {}
    for pair in [(int(m), int(n)) for m, n in levels]:
        if pair not in corr.a_ll:
            raise ValueError(f"level pair {pair} missing from the correlation set")
        n_al, n_ar = pair
        values[pair] = (2.0 * chi * photon * (n_al - n_ar)
                        - 4.0 * chi**2 * (corr.a_ll[pair] * n_al**2 - corr.a_rr[pair] * n_ar**2)
                        + 4.0j * chi**2 * kap * (corr.b_lr[pair] / 6.0 + corr.c_lr[pair] / 2.0)
                        * n_al * n_ar)
    return GeneratorSeries(times=corr.times, values=values)


def write_transient_csv(path, traj: ResonatorTrajectory, corr: CorrelationSet,
                        gen: GeneratorSeries, pair: tuple[int, int] = (1, 0),
                        header: bool = True) -> None:
    """Columns: t_ns, photon, re/im of A_ll, A_rr, B, C and of E for one pair."""
    pair = (int(pair[0]), int(pair[1]))
    a_ll, a_rr = corr.a_ll[pair], corr.a_rr[pair]
    b, c, e = corr.b_lr[pair], corr.c_lr[pair], gen.values[pair]
    write_csv(path, {"t_ns": traj.times, "photon": traj.photon,
                     "re_a_ll": a_ll.real, "im_a_ll": a_ll.imag,
                     "re_a_rr": a_rr.real, "im_a_rr": a_rr.imag,
                     "re_b_lr": b.real, "im_b_lr": b.imag, "re_c_lr": c.real, "im_c_lr": c.imag,
                     "re_e": e.real, "im_e": e.imag}, header=header)
