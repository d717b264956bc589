"""Vectorized Lindblad generator over the doubled (ket x bra) Fock space.

A density matrix rho = sum_{mn} rho_mn |m><n| over the single-copy basis is
flattened row-major into a vector with components rho_mn on |m_l>|n_r>. An
operator O acting from the left becomes O (x) I, and from the right (through
the adjoint) I (x) O*. The Lindblad equation then reads

    d/dt |rho> = -i * Hu(t) |rho>,
    Hu = H_l - H_r + i*kappa_c*(c_l c_r - 1/2 c_l^+ c_l - 1/2 c_r^+ c_r)

with H_l/H_r independent copies of the Kerr system-plus-drive Hamiltonian.
Hu is kept in cyclic MHz; propagation multiplies by -2*pi*i and time in us.

The doubled basis is ordered row-major as |n_al, n_cl, n_ar, n_cr> with the
resonator index fastest within each copy, i.e.
index = ((n_al*n_c + n_cl)*n_a + n_ar)*n_c + n_cr (see basis_index). Hu
conserves n_al and n_ar, so it is n_a^2 independent n_c^2 x n_c^2 blocks, one
per qubit sector; sector_indices picks out the indices of one sector.

sector_generator is the definition of Hu: it builds one sector block directly
from n_c-dimensional resonator operators. build_extended_hamiltonian is the
scatter of all n_a^2 blocks into the full doubled-space matrix, the one user
of basis_index and sector_indices; only the tests and the benchmark harness
call it. The eigensolves, the eigenstate residuals and propagate work on the
blocks, and propagate returns its samples as sector blocks. stability_bound
is propagate's step-size rule, which cli validate applies to a config
without propagating. The single-copy Kerr Hamiltonian and the Lindblad
generator assembled from the flattening identities, the independent route
the blocks are checked against, live with the tests (tests/fullspace.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PulseSpec, SystemParams, constant_envelope, sg_envelope


class AccuracyError(RuntimeError):
    """Numerical result failed its accuracy gate (try a smaller step)."""


@dataclass(frozen=True)
class VectorizedState:
    """Flattened density matrix over the doubled basis; its sizes n_a and n_c
    are those of the SystemParams it is used with."""

    vec: np.ndarray


def destroy(n: int) -> np.ndarray:
    """Truncated lowering operator."""
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1).astype(complex)


def basis_index(params: SystemParams, n_al: int, n_cl: int, n_ar: int, n_cr: int) -> int:
    """Row-major index of |n_al, n_cl, n_ar, n_cr> in the doubled basis."""
    n_a, n_c = params.n_a, params.n_c
    return ((n_al * n_c + n_cl) * n_a + n_ar) * n_c + n_cr


def sector_indices(params: SystemParams, n_al: int, n_ar: int) -> np.ndarray:
    """Doubled-basis indices of qubit sector (n_al, n_ar), ordered (n_cl, n_cr)
    row-major. Hu conserves both qubit labels, so
    hu[np.ix_(idx, idx)] is one of its n_a^2 independent n_c^2 x n_c^2 blocks."""
    n_cl, n_cr = np.divmod(np.arange(params.n_c ** 2), params.n_c)
    return basis_index(params, n_al, n_cl, n_ar, n_cr)


def vectorize(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(-1)


def sector_generator(params: SystemParams, n_al: int, n_ar: int,
                     omega_c_value: float) -> np.ndarray:
    """Block of Hu on qubit sector (n_al, n_ar), basis (n_cl, n_cr) row-major (MHz):

        kron(h_l, I) - kron(I, h_r*)
            + i*kappa_c*(kron(d, d*) - 1/2 kron(n, I) - 1/2 kron(I, n^T)),
        h_k = (delta_ad k + alpha_a/2 k(k-1)) I + (delta_cd + 2 chi_ac k) n
              + (omega_c/2)(d + d^+),

    with d the resonator lowering operator, n = d^+ d, h_l = h_{n_al} and
    h_r = h_{n_ar}. The level numbers k and k(k-1) are taken from the qubit
    operator products a^+ a and a^+ a^+ a a, and the terms are added in the
    order of the single-copy Kerr Hamiltonian
    delta_ad a^+a + alpha_a/2 a^+a^+aa + delta_cd c^+c + 2 chi_ac a^+a c^+c
    + omega_c/2 (c + c^+), so every entry is the same float as in the
    Kronecker doubling of that Hamiltonian (the test reference).
    """
    n_a = params.n_a
    if not (0 <= n_al < n_a and 0 <= n_ar < n_a):
        raise ValueError(f"qubit sector ({n_al}, {n_ar}) outside 0..{n_a - 1}")
    a = destroy(n_a)
    num_a = np.diag(a.conj().T @ a)
    kerr_a = np.diag(a.conj().T @ a.conj().T @ a @ a)
    d = destroy(params.n_c)
    num_c = d.conj().T @ d
    eye = np.eye(params.n_c)

    def h(k):
        return ((params.delta_ad * num_a[k] + 0.5 * params.alpha_a * kerr_a[k]) * eye
                + params.delta_cd * num_c
                + 2.0 * params.chi_ac * (num_a[k] * num_c)
                + 0.5 * omega_c_value * (d + d.conj().T))

    return (np.kron(h(n_al), eye) - np.kron(eye, h(n_ar).conj())
            + 1j * params.kappa_c * (np.kron(d, d.conj())
                                     - 0.5 * np.kron(num_c, eye)
                                     - 0.5 * np.kron(eye, num_c.T)))


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
    static = np.array([sector_generator(params, n_al, n_ar, 0.0)
                       for n_al in range(params.n_a) for n_ar in range(params.n_a)])
    return static, _drive_block(params.n_c)


def stability_bound(static: np.ndarray, drive: np.ndarray, omega_c: float) -> tuple[float, float]:
    """propagate's step-size rule for the generator_blocks at drive omega_c:
    (dt_max in ns, scale in MHz), with scale the largest absolute row sum of
    Hu over all sectors and dt_max = 0.05 rad of it per step (inf at scale 0)."""
    scale = np.max(np.sum(np.abs(static + omega_c * drive), axis=-1))
    return (0.05 / (2.0e-3 * np.pi * scale) if scale > 0 else np.inf), scale


def build_extended_hamiltonian(params: SystemParams, omega_c_value: float) -> np.ndarray:
    """Full Hu (MHz): the n_a^2 sector_generator blocks scattered into the
    doubled space, zeros between sectors."""
    dim = (params.n_a * params.n_c) ** 2
    data = np.zeros((dim, dim), dtype=complex)
    for n_al in range(params.n_a):
        for n_ar in range(params.n_a):
            idx = sector_indices(params, n_al, n_ar)
            data[np.ix_(idx, idx)] = sector_generator(params, n_al, n_ar, omega_c_value)
    return data


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


def propagate(state0: VectorizedState, params: SystemParams, pulse: PulseSpec,
              t_end: float, dt: float, sample_every: int | None = None) -> PropagationResult:
    """RK4 propagation of the vectorized state under Hu(t).

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
    preallocated stage buffers. state0.vec, the row-major density matrix over
    |n_a, n_c>, is reshaped to sector blocks, and so are the samples.

    Raises ValueError when dt is not positive, t_end is negative, sample_every
    is below 1, state0.vec does not have (n_a n_c)^2 entries, an occupied
    block's off-diagonal part is not the shared jump term (or the jump term is
    not real, or the drive block not imaginary, after the rate), or dt
    exceeds stability_bound at the pulse amplitude (over all n_a^2 sectors
    whether occupied or not), and AccuracyError when the trace (the sum of
    the traces of the diagonal sectors) drifts by more than 1e-6 or the state
    departs from Hermiticity (max |blocks[t, m, n] - blocks[t, n, m]^+| over
    the samples, the entries of rho - rho^+) by more than 1e-6.
    """
    if not dt > 0.0:
        raise ValueError(f"step size dt = {dt} ns must be > 0")
    if not t_end >= 0.0:
        raise ValueError(f"end time t_end = {t_end} ns must be >= 0")
    if sample_every is not None and sample_every < 1:
        raise ValueError(f"sample_every = {sample_every} must be >= 1")
    n_a, n_c = params.n_a, params.n_c
    size = (n_a * n_c) ** 2
    if state0.vec.size != size:
        raise ValueError(f"state0.vec has {state0.vec.size} entries; n_a = {n_a}, "
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

    psi0 = (state0.vec.astype(complex).reshape(n_a, n_c, n_a, n_c)
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
        level = constant_envelope(pulse, (2 * start) * half, (2 * end) * half)
        if level is not None:
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
    # sector pair by pair: the temporaries stay one sector's size
    herm_drift = max(
        float(np.max(np.abs(blocks[:, m, n] - blocks[:, n, m].conj().transpose(0, 2, 1))))
        for m in range(n_a) for n in range(m, n_a))
    if trace_drift > 1e-6:
        raise AccuracyError(f"trace drifted by {trace_drift:.3e} (> 1e-6); reduce dt")
    if herm_drift > 1e-6:
        raise AccuracyError(f"Hermiticity drifted by {herm_drift:.3e} (> 1e-6)")
    return PropagationResult(times=times, blocks=blocks, max_trace_drift=trace_drift,
                             max_hermiticity_drift=herm_drift)


def qubit_block(blocks: np.ndarray) -> np.ndarray:
    """Resonator trace Tr_c of sector blocks (..., n_a, n_a, n_c, n_c): the
    qubit density matrices, shape (..., n_a, n_a)."""
    return np.trace(blocks, axis1=-2, axis2=-1)
