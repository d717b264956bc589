"""Classical resonator response to the drive, with analytic derivatives.

The mean-field amplitude eta(t) of the damped, driven resonator obeys (in the
package units, time in ns, rates in cyclic MHz)

    d(eta)/dt = -(2*pi*i*delta_cd + pi*kappa_c) * 1e-3 * eta
                - i*pi*1e-3 * omega_c(t)

with eta(0) = 0. A fixed-step classic RK4 on a uniform grid is used so that
downstream correlation integrals stay grid-aligned; it is evaluated as its
one-step recurrence u[k+1] = r*u[k] + g[k] by a blocked numpy scan
(`_rk4_linear`, shared with the transient correlation integrals; leading axes
scan a batch of trajectories at once). Derivatives
are obtained from the ODE itself (differentiating it once and twice) rather
than from the samples, which keeps the adiabatic derivative expansion
noise-free: the first from the grid-point drive the scan already holds, the
higher ones from the envelope derivatives of model.sg_envelope. The steady
state applies model.drive_error, so a drive whose photon number overflows is
one ValueError.

`coherence_at` evaluates the recurrence only at given samples of a long grid:
it runs the recurrences of two qubit levels' dressed resonators, integrates
their product into the exact coherence that `propagate` writes, and returns
both sampled amplitudes with it (alpha_0 = eta at level 0). It walks maximal
runs of sample intervals: constant runs in closed form, every other run scanned
once per level a fixed step budget at a time, so the Python work is O(1) per
run and memory does not grow with the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (RAD_PER_MHZ_NS, PulseSpec, SystemParams, constant_envelope, drive_error,
                    dressed_detuning, overflow_error, resonance_error, sg_envelope)


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


def steady_state(params: SystemParams, omega_c: float, level: int = 0) -> tuple[complex, float]:
    """Steady-state amplitude and photon number under a constant drive, of the
    resonator as qubit level `level` dresses it: with d = delta_cd + 2 chi_ac level,

    alpha = -(i/2) omega_c / (i d + kappa_c/2)
    n     = (omega_c/2)^2 / (d^2 + (kappa_c/2)^2)

    Level 0 is the bare resonator: alpha is eta_ss, where solve_eta settles.
    Raises model.resonance_error's ValueError when the level is on its
    undamped dressed resonance, and model.drive_error's where n overflows.
    """
    problem = resonance_error(params, (level,))
    if problem:
        raise ValueError(problem)
    d, half_k = dressed_detuning(params, level), params.kappa_c / 2.0
    try:  # Python floats: the square of a drive above 2.7e154 MHz raises
        photon = (omega_c / 2.0) ** 2 / (d**2 + half_k**2)
    except OverflowError:
        photon = math.inf
    problem = drive_error(omega_c, f"the steady-state photon number of qubit level {level}", photon)
    if problem:
        raise ValueError(problem)
    return -0.5j * omega_c / (1j * d + half_k), photon


def peak_photon(params: SystemParams, omega_c: float) -> float:
    """Largest steady_state photon number over the qubit levels k = 0..n_a-1.

    A level on its undamped dressed resonance (model.resonance_error) counts
    as unbounded, inf, under a nonzero drive, and as 0.0 without one. Raises
    model.overflow_error's ValueError where a level's dressed factor overflows,
    and steady_state's where a photon number does.
    """
    problem = overflow_error(params, range(params.n_a))
    if problem:
        raise ValueError(problem)
    return max((math.inf if omega_c else 0.0) if resonance_error(params, (k,))
               else steady_state(params, omega_c, k)[1] for k in range(params.n_a))


def _decay_rate_per_ns(params: SystemParams, level: int = 0) -> complex:
    return (2.0j * np.pi * dressed_detuning(params, level) + np.pi * params.kappa_c) * 1.0e-3


def max_stable_dt(params: SystemParams, level: int = 0) -> float:
    """Largest allowed RK4 step at qubit level `level`: 0.05 rad per step of the larger of
    its dressed detuning |delta_cd + 2 chi_ac level| and kappa_c, the rates of its
    recurrence u[k+1] = r u[k] + g[k]. A level with neither has r == 1 and no bound, inf.

    The drive does not enter. The resonator response and the correlation cascades are
    linear in it, so omega_c scales them and leaves their stability and relative accuracy
    alone. The polaron coherence of coherence_at is the exponential of an integral quadratic
    in omega_c, so its error at a fixed dt grows with the drive: at delta_cd 0, chi_ac -1,
    kappa_c 1 MHz, tau_r 64 ns and dt = the bound 3.98 ns of levels 0 and 1 it is off a dt/2
    run by 2.9e-7 / 5.7e-7 / 2.8e-6 / 2.6e-5 at omega_c = 1 / 10 / 31.6 / 100 MHz. No ramp
    rule (dt <= c sigma_r) bounds the step either: a drive term never bounded the envelope
    (at a weak drive it never binds). At the bound of levels 0 and 1 on the flat top's
    system (delta_cd -5, chi_ac -1, kappa_c 5 MHz; dt 1.137 ns), eta is off a dt/50 run
    by 2.3e-6 / 2.3e-5 / 1.8e-4 of its peak at sigma_r = 50 / 5 / 1 ns (tau_r = 2 sigma_r,
    tau_p 200 ns). Where every rate is small the step can exceed the ramp, or the pulse.
    """
    rate = RAD_PER_MHZ_NS * max(abs(dressed_detuning(params, level)), params.kappa_c)
    if rate == 0.0:  # no detuning or decay, or rates so small that the product underflows
        return np.inf
    return 0.05 / rate


_BLOCK = 32  # steps per block of the scan in _rk4_linear (fastest of 16-64 measured)


def _rk4_factor_minus_one(mu: complex, h: float) -> complex:
    """r - 1 of the RK4 factor r = 1 + a + a^2/2 + a^3/6 + a^4/24, a = h*mu (see
    _rk4_recurrence), before adding the 1 rounds it: fixed points -g / (r - 1) keep their digits."""
    a = h * mu
    return a * (1.0 + a * (0.5 + a * (1.0 / 6.0 + a / 24.0)))


def _rk4_recurrence(mu: complex, f: np.ndarray, fm: np.ndarray,
                    h: float) -> tuple[complex, np.ndarray]:
    """Classic RK4 for du/dt = mu*u + f as u[k+1] = r*u[k] + g[k]; returns r and g.

    f holds the forcing at the N grid points, fm at the N-1 interval midpoints
    (along the last axis); h is the signed step. With a = h*mu, one RK4 step is exactly

        r    = 1 + a + a^2/2 + a^3/6 + a^4/24,
        g[k] = (h/6) [(1 + a + a^2/2 + a^3/4) f[k] + (4 + 2a + a^2/2) fm[k] + f[k+1]].
    """
    a = h * mu
    g = (1.0 + a * (1.0 + a * (0.5 + 0.25 * a))) * f[..., :-1]
    g += (4.0 + a * (2.0 + 0.5 * a)) * fm
    g += f[..., 1:]
    g *= h / 6.0
    return 1.0 + _rk4_factor_minus_one(mu, h), g


def _rk4_linear(mu: complex, f: np.ndarray, fm: np.ndarray, h: float, z0) -> np.ndarray:
    """Classic RK4 for du/dt = mu*u + f(t) from u[0] = z0 on a uniform grid.

    f and fm run along their last axis; leading axes are a batch of
    independent trajectories (z0 broadcasts over them) that share mu and h.
    Each trajectory is the recurrence u[k+1] = r*u[k] + g[k] of
    `_rk4_recurrence`, scanned in blocks of B steps. Inside a block that
    starts from the carry c, u[i+1] = r^(i+1) c + sum_{j<=i} r^(i-j) g[j].
    Each block's end at zero carry is one product with the reversed powers
    r^(B-1)..r^0; the carries c <- r^B c + (that end) follow in one scalar
    loop per trajectory. Then each block's row [c, g[0..B-1]] times the
    (B+1) x B matrix [r^1..r^B ; lower-triangular Toeplitz matrix of the
    powers, transposed] gives all B values, for all blocks in one product.
    Nothing is pivoted, so the result is the recurrence to rounding.
    """
    r, g = _rk4_recurrence(mu, f, fm, h)
    batch, n = g.shape[:-1], g.shape[-1]
    rows, nb = math.prod(batch), -(-n // _BLOCK)
    pw = np.empty(_BLOCK + 1, dtype=complex)  # r^0 .. r^B, each by one more multiplication
    pw[0] = 1.0
    np.cumprod(np.full(_BLOCK, r), out=pw[1:])
    scan = np.empty((_BLOCK + 1, _BLOCK), dtype=complex)  # [carry row; Toeplitz^T]
    scan[0] = pw[1:]
    scan[1:] = np.triu(pw[np.abs(np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK)))])
    # each block's row: the carry into it, then its g (zero-padded after the grid's end)
    blocks = np.zeros((rows, nb, _BLOCK + 1), dtype=complex)
    g, full = g.reshape(rows, n), n // _BLOCK
    blocks[:, :full, 1:] = g[:, :full * _BLOCK].reshape(rows, full, _BLOCK)
    blocks[:, full:, 1:n - full * _BLOCK + 1] = g[:, None, full * _BLOCK:]
    del g  # freed before u is allocated
    ends = blocks[:, :, 1:] @ pw[_BLOCK - 1::-1]
    z0 = np.broadcast_to(np.asarray(z0, dtype=complex), batch).reshape(-1)
    carry, r_block = [], complex(pw[-1])
    for c, row in zip(z0.tolist(), ends.tolist()):
        for end in row:
            carry.append(c)
            c = r_block * c + end
    blocks[:, :, 0] = np.array(carry, dtype=complex).reshape(rows, nb)
    u = np.empty((rows, nb * _BLOCK + 1), dtype=complex)
    u[:, 0] = z0
    np.matmul(blocks, scan, out=u[:, 1:].reshape(rows, nb, _BLOCK))
    return u[:, :n + 1].reshape(*batch, n + 1)


def _grid_steps(params: SystemParams, t_end: float, dt: float, levels=(0,)) -> int:
    """Number of RK4 steps on [0, t_end]; ValueError for a bad grid or one unstable at `levels`."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"step size dt = {dt} ns must be finite and > 0")
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"end time t_end = {t_end} ns must be finite and >= 0")
    problem = _step_error(params, dt, levels)[1]
    if problem:
        raise ValueError(problem)
    return int(round(t_end / dt))


def _step_error(params: SystemParams, dt: float, levels) -> tuple[float, str | None]:
    """The one rule for an RK4 step dt (ns) at the qubit `levels`: the smallest max_stable_dt
    over them, and where dt exceeds it the message naming the stability bound and the lowest
    level that sets it, then model.overflow_error's where a level overflows (its bound is
    then about 0); else None."""
    dt_max, level = min((max_stable_dt(params, k), k) for k in levels)
    if dt <= dt_max:
        return dt_max, None
    problem = overflow_error(params, levels)
    return dt_max, (f"step size {dt} ns exceeds stability bound {dt_max:.4g} ns of qubit "
                    f"level {level}" + (f": {problem}" if problem else ""))


def _drive_amplitude(pulse: PulseSpec) -> complex:
    """Drive term -i*pi*1e-3*omega_c of the ODE at unit envelope (1/ns)."""
    return -1.0j * np.pi * 1.0e-3 * pulse.omega_c


def _drive(pulse: PulseSpec, start: int, stop: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Drive term of the ODE at the grid points start..stop and their midpoints."""
    half_grid = np.arange(2 * start, 2 * stop + 1) * (dt / 2.0)
    dr = _drive_amplitude(pulse) * sg_envelope(half_grid, pulse)
    return dr[0::2], dr[1::2]


def _log1p(w: complex) -> complex:
    """log(1 + w), accurate for small |w| (numpy's complex log1p is not; its expm1 is)."""
    return complex(0.5 * math.log1p(w.real * (2.0 + w.real) + w.imag * w.imag),
                   math.atan2(w.imag, 1.0 + w.real))


def _geometric(q: complex, log_q: complex, n: np.ndarray) -> np.ndarray:
    """q + q^2 + ... + q^n for each entry of the integer array n, with log_q the logarithm of q."""
    if log_q == 0:
        return n.astype(complex)
    return q * np.expm1(n * log_q) / np.expm1(log_q)


_BATCH = 1 << 14  # steps of a non-constant run that coherence_at scans in one _rk4_linear call


# an overflow anywhere in the walk makes the coherence not finite, the error reported at its end
@np.errstate(all="ignore")
def coherence_at(params: SystemParams, pulse: PulseSpec, t_end: float, dt: float,
                 indices, m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coherence, alpha_m, alpha_n) at the grid points k = indices (non-decreasing) of
    k*dt, k = 0..round(t_end/dt): coherence is Tr_c rho_mn(t) / rho_mn(0) of the full
    master equation from resonator vacuum, alpha_k the RK4 recurrence of the resonator
    at qubit level k's dressed detuning (alpha_0 = eta of solve_eta).

    The resonator is linear in each qubit sector, so sector (m, n) keeps the
    polaron form c(t)|alpha_m><alpha_n| (Gambetta et al., PRA 77, 012112 (2008)):

        Tr_c rho_mn(t) = rho_mn(0) exp(-2 pi i 1e-3 [(eps_m - eps_n) t + 2 chi_ac (m - n) I(t)]),
        I(t) = Int_0^t alpha_m alpha_n^* dt',  eps_k = delta_ad k + alpha_a k (k - 1) / 2,

    with no Fock truncation; I is the trapezoid rule plus the Euler-Maclaurin end term
    (dt^2/12) (g'(0) - g'(t)), g' = (alpha_m alpha_n^*)' from the ODE: O(dt^4), as RK4.

    The intervals between distinct indices are walked in maximal runs of consecutive
    intervals, so the Python work is O(1) per run and memory is O(intervals + _BATCH
    steps), not O(grid):
    1. one array call of model.constant_envelope classifies every interval; a run is
       a stretch at one constant level, or one of intervals it does not prove constant
       (all of them when the grid is shorter than a level's response time 1/|mu|,
       r == 1 included);
    2. on a constant run each recurrence is s + b r^k about its fixed point s, so the
       carry k steps in is u_0 + (u_0 - s) expm1(k log r) at every edge at once (the
       form does not cancel where |s| >> |u|), and an interval's sum of
       alpha_m alpha_n^* is four geometric sums about the fixed points in its start
       carries;
    3. any other run is scanned once per level from its start carry by _rk4_linear,
       at most _BATCH steps a call, and the carries, the drive and the running sum of
       alpha_m alpha_n^* are read at its edges.

    Raises ValueError for a bad grid, dt above max_stable_dt of either level, indices
    off the grid or out of order, and a coherence that is not finite (its phase overflows).
    """
    n_steps = _grid_steps(params, t_end, dt, (m, n))
    idx = np.asarray(indices, dtype=int).reshape(-1)
    if np.any(np.diff(idx, prepend=0) < 0) or (idx.size and idx[-1] > n_steps):
        raise ValueError(f"sample indices must be non-decreasing within 0..{n_steps}")
    drive = _drive_amplitude(pulse)
    mu = [-_decay_rate_per_ns(params, k) for k in (m, n)]
    w = [_rk4_factor_minus_one(x, dt) for x in mu]
    r, log_r = [1.0 + x for x in w], [_log1p(x) for x in w]
    q, log_q = r[0] * r[1].conjugate(), log_r[0] + log_r[1].conjugate()
    # the sums of a constant interval run about the fixed points s = g / (1 - r), which reach
    # |drive / mu|: on a grid shorter than a response time 1 / |mu| alpha stays far below s
    # and those sums cancel. Such a level (as one with r == 1, no fixed point) is scanned
    closed = min(abs(x) for x in mu) * (n_steps * dt) >= 1.0

    # the intervals edges[j]..edges[j + 1], at their constant level or inf where scanned
    edges = np.append(0, idx)
    edges = edges[np.diff(edges, prepend=-1) > 0]  # the distinct indices, from 0
    steps = np.diff(edges)
    half = dt / 2.0
    env = constant_envelope(pulse, (2 * edges[:-1]) * half, (2 * edges[1:]) * half)
    level = np.where(np.isnan(env) | (not closed), np.inf, env)
    # the runs bounds[i]..bounds[i + 1] of intervals at one level (none without intervals)
    bounds = np.flatnonzero(np.concatenate(([steps.size > 0], level[1:] != level[:-1], [True])))
    # at each edge: the carries, the sum of alpha_m alpha_n^* over steps 1.., the drive
    carry = np.zeros((2, edges.size), dtype=complex)
    total = np.zeros(edges.size, dtype=complex)
    f_end = np.zeros(edges.size, dtype=complex)
    for j0, j1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        run = slice(j0 + 1, j1 + 1)
        if level[j0] < np.inf:
            f_end[run] = g = drive * level[j0]
            const = np.full(2, g)  # s = g / (1 - r) for the constant g[j] of this level
            s = np.array([[complex(_rk4_recurrence(x, const, const[1:], dt)[1][0]) / -y]
                          for x, y in zip(mu, w)])
            u0 = carry[:, j0:j0 + 1]
            k = edges[run] - edges[j0]
            carry[:, run] = u0 + (u0 - s) * np.expm1(np.multiply.outer(log_r, k))
            (sm, sn), (bm, bn) = s[:, 0], carry[:, j0:j1] - s
            length = steps[j0:j1]
            gm, gn, gq = (_geometric(x, y, length) for x, y in zip((*r, q), (*log_r, log_q)))
            terms = (length * sm * sn.conjugate() + sm * (bn * gn).conj()
                     + bm * sn.conjugate() * gm + bm * bn.conj() * gq)
            total[run] = total[j0] + np.cumsum(terms)
        else:
            um, un, acc = carry[0, j0], carry[1, j0], total[j0]
            for a in range(int(edges[j0]), int(edges[j1]), _BATCH):
                b = min(a + _BATCH, int(edges[j1]))
                f, fm = _drive(pulse, a, b, dt)
                am, an = (_rk4_linear(x, f, fm, dt, u) for x, u in zip(mu, (um, un)))
                running = np.cumsum(am[1:] * an[1:].conj())
                running += acc
                lo, hi = np.searchsorted(edges, (a, b), side="right")  # the edges in (a, b]
                pos = edges[lo:hi] - a
                carry[:, lo:hi] = am[pos], an[pos]
                total[lo:hi], f_end[lo:hi] = running[pos - 1], f[pos]
                um, un, acc = am[-1], an[-1], running[-1]

    at = np.searchsorted(edges, idx)
    um, un = alphas = carry[:, at]
    slope = (mu[0] * um + f_end[at]) * un.conj() + um * (mu[1] * un + f_end[at]).conj()
    integrals = dt * (total[at] - 0.5 * um * un.conj()) - dt * dt / 12.0 * slope

    eps = [params.delta_ad * x + 0.5 * params.alpha_a * x * (x - 1) for x in (m, n)]
    out = np.exp(-1.0j * RAD_PER_MHZ_NS * ((eps[0] - eps[1]) * (idx * dt)
                                           + 2.0 * params.chi_ac * (m - n) * integrals))
    if not np.all(np.isfinite(out)):
        raise ValueError(f"coherence of qubit levels ({m}, {n}) is not finite: "
                         "its phase overflows")
    return out, alphas[0], alphas[1]


def solve_eta(params: SystemParams, pulse: PulseSpec, t_end: float, dt: float) -> ResonatorTrajectory:
    """Integrate the resonator response on [0, t_end] ns with step dt.

    kappa_c = 0 is accepted and is not an error: the resonator is undamped and
    eta rings up without settling (at delta_cd = 0 under a constant drive it
    grows linearly, eta = -i*pi*1e-3*omega_c*t), finite on any finite grid.

    Raises ValueError when dt is not finite and positive, t_end is not finite
    and non-negative, or dt exceeds max_stable_dt of level 0.
    """
    n_steps = _grid_steps(params, t_end, dt)
    beta = _decay_rate_per_ns(params)
    f, fm = _drive(pulse, 0, n_steps, dt)
    eta = _rk4_linear(-beta, f, fm, dt, 0.0)
    drive = _drive_amplitude(pulse)
    times = np.arange(eta.size) * dt
    eta_d1 = -beta * eta + f  # f: the drive at the grid points
    eta_d2 = -beta * eta_d1 + drive * sg_envelope(times, pulse, 1)
    eta_d3 = -beta * eta_d2 + drive * sg_envelope(times, pulse, 2)
    return ResonatorTrajectory(times=times, eta=eta, eta_d1=eta_d1, eta_d2=eta_d2,
                               eta_d3=eta_d3, pulse=pulse)

