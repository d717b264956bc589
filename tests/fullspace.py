"""Full-space references for the tests: the single-copy Kerr Hamiltonian
over |n_a, n_c>, its lowering operators, the trace functional and the
Lindblad generator assembled directly from the flattening identities; the
dense RK4 stepper of the doubled-space density matrix (propagate); the
one-step-at-a-time RK4 of a scalar linear ODE (rk4_reference); and the
per-interval walk of the exact coherence (coherence_walk).

The package builds the doubled-space generator one qubit-sector block at a
time (readoutmap.liouville.sector_generator), and propagate writes the exact
coherence (readoutmap.response.coherence_at, which takes the walk's
intervals in runs). Nothing here is used by them:
these are the independent routes the tests check those against. The stepper
builds its blocks through liouville.sector_generator, looked up at call time,
so a test can patch that function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from readoutmap import liouville
from readoutmap.liouville import AccuracyError, destroy
from readoutmap.model import (RAD_PER_MHZ_NS, PulseSpec, SystemParams, constant_envelope,
                              sg_envelope)
from readoutmap.response import (_decay_rate_per_ns, _drive, _drive_amplitude, _grid_steps, _log1p,
                                 _rk4_factor_minus_one, _rk4_linear, _rk4_recurrence)


@dataclass(frozen=True)
class CollapseTerm:
    """One dissipator: rate gamma (MHz, >= 0) and single-copy jump operator."""

    rate: float
    op: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("collapse rate must be >= 0")


def single_copy_operators(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Qubit and resonator lowering operators over the single-copy space."""
    a = np.kron(destroy(params.n_a), np.eye(params.n_c))
    c = np.kron(np.eye(params.n_a), destroy(params.n_c))
    return a, c


def kerr_hamiltonian(params: SystemParams, omega_c_value: float) -> np.ndarray:
    """Single-copy Kerr system-plus-drive Hamiltonian (MHz), real symmetric."""
    a, c = single_copy_operators(params)
    num_a = a.conj().T @ a
    num_c = c.conj().T @ c
    h = (params.delta_ad * num_a
         + 0.5 * params.alpha_a * (a.conj().T @ a.conj().T @ a @ a)
         + params.delta_cd * num_c
         + 2.0 * params.chi_ac * (num_a @ num_c)
         + 0.5 * omega_c_value * (c + c.conj().T))
    return h


def trace_functional(dim_single: int) -> np.ndarray:
    """Row vector w with w @ |rho> = Tr(rho)."""
    return np.eye(dim_single, dtype=complex).reshape(-1)


def build_superoperator(h: np.ndarray, collapses: list[CollapseTerm]) -> np.ndarray:
    """Lindblad generator assembled directly from the flattening identities.

    Returns -i(kron(H, I) - kron(I, H^T))
            + sum_j gamma_j (kron(C, C*) - 1/2 kron(C^+C, I) - 1/2 kron(I, (C^+C)^T)),
    the action of -i[H, rho] + sum_j gamma_j D[C_j] rho on row-major vec(rho).
    H must be Hermitian; units follow the inputs. This route never touches the
    left/right-copy construction, so it serves as an independent cross-check.
    """
    h = np.asarray(h, dtype=complex)
    m = h.shape[0]
    if h.shape != (m, m):
        raise ValueError("H must be square")
    if np.max(np.abs(h - h.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(h))):
        raise ValueError("H must be Hermitian")
    eye = np.eye(m)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for term in collapses:
        c = np.asarray(term.op, dtype=complex)
        if c.shape != (m, m):
            raise ValueError(f"collapse operator shape {c.shape} does not match H {h.shape}")
        cdc = c.conj().T @ c
        sup = sup + term.rate * (np.kron(c, c.conj())
                                 - 0.5 * np.kron(cdc, eye)
                                 - 0.5 * np.kron(eye, cdc.T))
    return sup


def _drive_block(n_c: int) -> np.ndarray:
    """Drive quadrature kron(x, I) - kron(I, x*), x = (d + d^+)/2: the
    coefficient of the drive amplitude in every sector block of Hu."""
    d = destroy(n_c)
    x = 0.5 * (d + d.conj().T)
    eye = np.eye(n_c)
    return np.kron(x, eye) - np.kron(eye, x.conj())


def generator_blocks(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """The zero-drive sector_generator blocks of all n_a^2 qubit sectors,
    stacked in (n_al, n_ar) row-major order, and the drive block that every
    sector adds times the drive amplitude."""
    static = np.array([liouville.sector_generator(params, n_al, n_ar, 0.0)
                       for n_al in range(params.n_a) for n_ar in range(params.n_a)])
    return static, _drive_block(params.n_c)


def stability_bound(static: np.ndarray, drive: np.ndarray, omega_c: float) -> tuple[float, float]:
    """propagate's step-size rule for the generator_blocks at drive omega_c:
    (dt_max in ns, scale in MHz), with scale the largest absolute row sum of
    Hu over all sectors and dt_max = 0.05 rad of it per step (inf if that is 0)."""
    scale = np.max(np.sum(np.abs(static + omega_c * drive), axis=-1))
    rate = 2.0e-3 * np.pi * float(scale)  # a Python float: no overflow warning
    return (0.05 / rate if rate > 0 else np.inf), scale


@dataclass(frozen=True)
class PropagationResult:
    """Samples at `times` (ns) as sector blocks, shape (n_t, n_a, n_a, n_c, n_c):
    blocks[t, n_al, n_ar] is the resonator matrix of qubit sector (n_al, n_ar),
    exactly 0 in the sectors where state0 is 0."""

    times: np.ndarray
    blocks: np.ndarray
    max_trace_drift: float
    max_hermiticity_drift: float


def _rk4_step_matrix(gen: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step of d/dt psi = gen psi as a matrix: the degree-4 Taylor
    polynomial of expm(dt*gen), which is exactly what stepwise RK4 applies for
    a time-independent linear system. gen may be a stack (..., d, d)."""
    m = np.eye(gen.shape[-1], dtype=complex)
    term = np.eye(gen.shape[-1], dtype=complex)
    for k in range(1, 5):
        term = term @ (dt * gen) / k
        m = m + term
    return m


def _ramp_operands(gen_s: np.ndarray, gen_d: np.ndarray, dt: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Split the occupied static blocks gen_s (S, d, d) and the shared drive
    block gen_d (d, d), both already in 1/ns, into the pieces the ramp step
    uses: the per-sector diagonals times dt/2, as a (d, S) array, and the
    shared real operand (dt/2) [jump | drive.imag], shape (d, 2d).

    Every static block is its diagonal plus the jump term, which all sectors
    share and which is real after the -2*pi*i rate; the drive block is
    imaginary. Nothing of the blocks is dropped: ValueError when an occupied
    block's off-diagonal part differs from the first one's, the jump part is
    not real or the drive block not imaginary.
    """
    d = gen_d.shape[0]
    diag = np.arange(d)
    lam = gen_s[:, diag, diag]
    off = gen_s.copy()
    off[:, diag, diag] = 0.0
    jump = off[0] if len(off) else np.zeros((d, d), dtype=complex)
    if not np.array_equal(off, np.broadcast_to(jump, off.shape)):
        raise ValueError("occupied sector blocks do not share one off-diagonal part")
    if np.any(jump.imag != 0.0) or np.any(gen_d.real != 0.0):
        raise ValueError("jump term not real or drive block not imaginary after the rate")
    half = dt / 2.0
    return half * lam.T, half * np.concatenate([jump.real, gen_d.imag], axis=1)


def propagate(state0: np.ndarray, params: SystemParams, pulse: PulseSpec,
              t_end: float, dt: float, sample_every: int | None = None) -> PropagationResult:
    """RK4 propagation of the density matrix state0 under Hu(t).

    Hu conserves both qubit labels, so only the qubit sectors in which state0
    has a nonzero entry are stepped, from the sector_generator blocks; the
    other sectors stay exactly 0. The drive block is the same in every sector
    and is rescaled with the envelope at the three RK4 amplitudes of each
    step; those amplitudes are evaluated one sample interval at a time. A step
    whose three amplitudes are equal (a constant pulse, the flat top and the
    zero tail of a square-gaussian) is time-independent: maximal runs of such
    steps up to the next sample are applied as one power of the RK4 step
    matrix, which is the same polynomial the stepwise loop applies. A sample
    interval that model.constant_envelope proves constant is one such run at
    omega_c times that level, taken without evaluating its envelope; powers
    are memoized by (amplitude, run length), so equal intervals share one.

    The other steps (the ramps) use how the blocks are made: after the
    -2*pi*i rate each static block is its own diagonal plus the jump term
    i*kappa_c*kron(d, d*), real and shared by every sector, and the drive
    block is imaginary and shared too. A ramp run steps the occupied sectors
    as the S columns of one (d, S) array: each RK4 stage is one real matmul of
    the shared operand (dt/2) [jump | drive.imag] on the real view of
    [v; i a v], plus the per-sector diagonal times v, written in place into
    preallocated stage buffers. state0, the density matrix over |n_a, n_c>
    (square or flattened row-major), is reshaped to sector blocks, and so are
    the samples.

    Raises ValueError when dt is not positive, t_end is negative, sample_every
    is below 1, state0 does not have (n_a n_c)^2 entries, an occupied
    block's off-diagonal part is not the shared jump term (or the jump term is
    not real, or the drive block not imaginary, after the rate), or dt
    exceeds stability_bound at the pulse amplitude (over all n_a^2 sectors
    whether occupied or not), and AccuracyError when the trace (the sum of
    the traces of the diagonal sectors) drifts by more than 1e-6 or the state
    departs from Hermiticity (max |blocks[t, m, n] - blocks[t, n, m]^+| over
    the samples, the entries of rho - rho^+) by more than 1e-6 (or by NaN).
    """
    if not dt > 0.0:
        raise ValueError(f"step size dt = {dt} ns must be > 0")
    if not t_end >= 0.0:
        raise ValueError(f"end time t_end = {t_end} ns must be >= 0")
    if sample_every is not None and sample_every < 1:
        raise ValueError(f"sample_every = {sample_every} must be >= 1")
    n_a, n_c = params.n_a, params.n_c
    size = (n_a * n_c) ** 2
    vec = np.asarray(state0, dtype=complex).reshape(-1)
    if vec.size != size:
        raise ValueError(f"state0 has {vec.size} entries; n_a = {n_a}, "
                         f"n_c = {n_c} needs (n_a n_c)^2 = {size}")
    static, drive = generator_blocks(params)
    dt_max, scale = stability_bound(static, drive, pulse.omega_c)
    if dt > dt_max:
        raise ValueError(f"step size {dt} ns exceeds stability bound {dt_max:.4g} ns "
                         f"for matrix scale {scale:.4g} MHz")

    n_steps = int(round(t_end / dt))
    if sample_every is None:
        sample_every = max(1, n_steps // 512)
    rate = -2.0j * np.pi * 1.0e-3  # per ns per MHz

    psi0 = (vec.reshape(n_a, n_c, n_a, n_c)
            .transpose(0, 2, 1, 3).reshape(n_a * n_a, n_c * n_c))
    occupied = np.any(psi0 != 0, axis=1)
    gen_s = rate * static[occupied]
    gen_d = rate * drive
    y = psi0[occupied][:, :, None]
    powers = {}  # (amplitude, run length) -> power of the RK4 step matrix

    # ramp step buffers: the stage input u in w[:d] and i*a*u in w[d:]; k1..k4
    # receive the RK4 slopes times dt/2, tmp the diagonal term
    lam, op = _ramp_operands(gen_s, gen_d, dt)
    d = op.shape[0]
    w = np.empty((2 * d, len(y)), dtype=complex)
    u, iau, w_re = w[:d], w[d:], w.view(float)
    slopes = np.empty((5, d, len(y)), dtype=complex)
    k1, k2, k3, k4, tmp = slopes
    k1_re, k2_re, k3_re, k4_re, _ = slopes.view(float)

    def stage(a, out, out_re):
        np.multiply(u, 1j * a, out=iau)
        np.matmul(op, w_re, out=out_re)
        np.multiply(lam, u, out=tmp)
        out += tmp

    def ramp(y, amp):
        """RK4 steps with half-step amplitudes amp (2 n + 1 floats) on the
        (S, d, 1) stack y, in the (d, S) layout."""
        v = y[:, :, 0].T.copy()
        for j in range(0, len(amp) - 1, 2):
            a0, a1, a2 = amp[j:j + 3]
            u[...] = v
            stage(a0, k1, k1_re)
            np.add(v, k1, out=u)
            stage(a1, k2, k2_re)
            np.add(v, k2, out=u)
            stage(a1, k3, k3_re)
            np.add(v, k3, out=u)
            np.add(u, k3, out=u)
            stage(a2, k4, k4_re)
            # v += (k1 + 2 (k2 + k3) + k4) / 3
            np.add(k2, k3, out=k2)
            np.multiply(k2, 2.0, out=k2)
            np.add(k1, k4, out=k1)
            np.add(k1, k2, out=k1)
            np.divide(k1, 3.0, out=k1)
            v += k1
        return v.T[:, :, None]

    def runs(start, end):
        """The maximal runs of the steps start..end of one sample interval, as
        (n, a, None) for n steps at the constant amplitude a and (n, None,
        amp) for n ramp steps with their 2 n + 1 half-step amplitudes."""
        half = dt / 2.0
        level = float(constant_envelope(pulse, (2 * start) * half, (2 * end) * half))
        if not np.isnan(level):
            return [(end - start, pulse.omega_c * level, None)]
        amp = pulse.omega_c * sg_envelope(np.arange(2 * start, 2 * end + 1) * half, pulse)
        flat = (amp[:-2:2] == amp[1::2]) & (amp[1::2] == amp[2::2])
        out, i = [], 0
        while i < end - start:
            # run length: up to the first step of the other kind or the interval end
            n = int(np.argmin(np.append(flat[i:], not flat[i]) == flat[i]))
            out.append((n, float(amp[2 * i]), None) if flat[i]
                       else (n, None, amp[2 * i:2 * (i + n) + 1].tolist()))
            i += n
        return out

    times = np.append(np.arange(0, n_steps, sample_every), n_steps) * dt
    blocks = np.zeros((len(times), n_a * n_a, n_c * n_c), dtype=complex)
    blocks[0] = psi0
    for sample, start in enumerate(range(0, n_steps, sample_every), start=1):
        for n, a, amp in runs(start, min(start + sample_every, n_steps)):
            if amp is not None:
                y = ramp(y, amp)
                continue
            if (a, n) not in powers:
                powers[a, n] = np.linalg.matrix_power(_rk4_step_matrix(gen_s + a * gen_d, dt), n)
            y = powers[a, n] @ y
        blocks[sample, occupied] = y[:, :, 0]

    blocks = blocks.reshape(len(times), n_a, n_a, n_c, n_c)
    trace = np.trace(qubit_block(blocks), axis1=1, axis2=2)
    trace_drift = float(np.max(np.abs(trace - trace[0])))
    # sector pair by pair: the temporaries stay one sector's size; np.max keeps a NaN
    herm_drift = float(np.max([
        np.max(np.abs(blocks[:, m, n] - blocks[:, n, m].conj().transpose(0, 2, 1)))
        for m in range(n_a) for n in range(m, n_a)]))
    if not trace_drift <= 1e-6:
        raise AccuracyError(f"trace drifted by {trace_drift:.3e} (> 1e-6); reduce dt")
    if not herm_drift <= 1e-6:
        raise AccuracyError(f"Hermiticity drifted by {herm_drift:.3e} (> 1e-6)")
    return PropagationResult(times=times, blocks=blocks, max_trace_drift=trace_drift,
                             max_hermiticity_drift=herm_drift)


def qubit_block(blocks: np.ndarray) -> np.ndarray:
    """Resonator trace Tr_c of sector blocks (..., n_a, n_a, n_c, n_c): the
    qubit density matrices, shape (..., n_a, n_a)."""
    return np.trace(blocks, axis1=-2, axis2=-1)


def _scalar_geometric(q: complex, log_q: complex, n: int) -> complex:
    """q + q^2 + ... + q^n, with log_q the logarithm of q."""
    return complex(n) if log_q == 0 else q * np.expm1(n * log_q) / np.expm1(log_q)


def rk4_reference(mu, f, fm, h, z0):
    """Classic RK4 for du/dt = mu*u + f, one step at a time (the reference of
    response._rk4_linear): f at the grid points, fm at the interval midpoints,
    signed step h."""
    u = np.empty(len(f), dtype=complex)
    z = complex(z0)
    u[0] = z
    for k in range(len(f) - 1):
        k1 = mu * z + f[k]
        k2 = mu * (z + 0.5 * h * k1) + fm[k]
        k3 = mu * (z + 0.5 * h * k2) + fm[k]
        k4 = mu * (z + h * k3) + f[k + 1]
        z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u[k + 1] = z
    return u


def coherence_walk(params: SystemParams, pulse: PulseSpec, t_end: float, dt: float,
                   indices, m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-interval walk that response.coherence_at takes in runs, as its oracle: the
    same (coherence, alpha_m, alpha_n), with both recurrences advanced from index to
    index, one interval at a time. On an interval that constant_envelope proves
    constant each is s + b r^j about its fixed point s, so the interval's sum of
    alpha_m alpha_n^* is four geometric sums and the carry u + b (r^n - 1); every
    other interval (and every one on a grid shorter than a level's response time
    1/|mu|) is scanned by response._rk4_linear from the carry.
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
    closed = min(abs(x) for x in mu) * (n_steps * dt) >= 1.0  # as in coherence_at
    fixed, sums = {}, {}  # level -> fixed points s; interval length -> geometric sums, r^n - 1

    integrals = np.empty(idx.size, dtype=complex)
    alphas = np.empty((2, idx.size), dtype=complex)
    um = un = f_end = total = 0j  # the carries, the drive at them, sum of alpha_m alpha_n^*
    k = 0
    for i, stop in enumerate(idx.tolist()):
        if stop > k:
            steps = stop - k
            level = float(constant_envelope(pulse, (2 * k) * (dt / 2.0),
                                            (2 * stop) * (dt / 2.0)))
            if closed and not np.isnan(level):
                f_end = drive * level
                if level not in fixed:  # s = g / (1 - r) for the constant g[j] of this level
                    const = np.full(2, f_end)
                    fixed[level] = [complex(_rk4_recurrence(x, const, const[1:], dt)[1][0])
                                    / -y for x, y in zip(mu, w)]
                if steps not in sums:
                    sums[steps] = ([_scalar_geometric(x, y, steps) for x, y in zip(r, log_r)],
                                   _scalar_geometric(q, log_q, steps),
                                   [np.expm1(steps * y) for y in log_r])
                (sm, sn), ((gm, gn), gq, (em, en)) = fixed[level], sums[steps]
                bm, bn = um - sm, un - sn
                total += (steps * sm * sn.conjugate() + sm * (bn * gn).conjugate()
                          + bm * sn.conjugate() * gm + bm * bn.conjugate() * gq)
                um, un = um + bm * em, un + bn * en  # not s + b r^n: |s| >> |u| cancels
            else:
                f, fm = _drive(pulse, k, stop, dt)
                am = _rk4_linear(mu[0], f, fm, dt, um)[1:]
                an = _rk4_linear(mu[1], f, fm, dt, un)[1:]
                total += complex(np.vdot(an, am))
                um, un, f_end = complex(am[-1]), complex(an[-1]), complex(f[-1])
            k = stop
        alphas[:, i] = um, un
        slope = ((mu[0] * um + f_end) * un.conjugate()
                 + um * (mu[1] * un + f_end).conjugate())
        integrals[i] = dt * (total - 0.5 * um * un.conjugate()) - dt * dt / 12.0 * slope

    eps = [params.delta_ad * x + 0.5 * params.alpha_a * x * (x - 1) for x in (m, n)]
    with np.errstate(all="ignore"):  # an overflow is reported below
        out = np.exp(-1.0j * RAD_PER_MHZ_NS * ((eps[0] - eps[1]) * (idx * dt)
                                               + 2.0 * params.chi_ac * (m - n) * integrals))
    if not np.all(np.isfinite(out)):
        raise ValueError(f"coherence of qubit levels ({m}, {n}) is not finite: "
                         "its phase overflows")
    return out, alphas[0], alphas[1]
