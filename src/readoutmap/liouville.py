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
conserves n_al and n_ar; sector_indices picks out one qubit sector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import PulseSpec, SystemParams, sg_envelope


class AccuracyError(RuntimeError):
    """Numerical result failed its accuracy gate (try a smaller step)."""


@dataclass(frozen=True)
class ExtendedOperator:
    """Dense complex matrix over the doubled space."""

    data: np.ndarray
    dim: int

    def __post_init__(self):
        if self.data.shape != (self.dim, self.dim):
            raise ValueError(f"data shape {self.data.shape} does not match dim {self.dim}")


@dataclass(frozen=True)
class CollapseTerm:
    """One dissipator: rate gamma (MHz, >= 0) and single-copy jump operator."""

    rate: float
    op: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("collapse rate must be >= 0")


@dataclass(frozen=True)
class VectorizedState:
    """Flattened density matrix over the doubled basis, with (n_a, n_c) tag."""

    vec: np.ndarray
    dims: tuple[int, int]

    @property
    def dim_single(self) -> int:
        return self.dims[0] * self.dims[1]

    def to_density_matrix(self) -> np.ndarray:
        m = self.dim_single
        return self.vec.reshape(m, m)

    def trace(self) -> complex:
        return complex(np.trace(self.to_density_matrix()))


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


def vectorize(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(-1)


def trace_functional(dim_single: int) -> np.ndarray:
    """Row vector w with w @ |rho> = Tr(rho)."""
    return np.eye(dim_single, dtype=complex).reshape(-1)


def build_extended_hamiltonian(params: SystemParams, omega_c_value: float) -> ExtendedOperator:
    """Assemble Hu = H_l - H_r + H_kappa by Kronecker doubling (MHz)."""
    h = kerr_hamiltonian(params, omega_c_value)
    _, c = single_copy_operators(params)
    num_c = c.conj().T @ c
    m = h.shape[0]
    eye = np.eye(m)
    hu = (np.kron(h, eye) - np.kron(eye, h.conj())
          + 1j * params.kappa_c * (np.kron(c, c.conj())
                                   - 0.5 * np.kron(num_c, eye)
                                   - 0.5 * np.kron(eye, num_c.T)))
    return ExtendedOperator(data=hu, dim=m * m)


def extended_drive_operator(params: SystemParams) -> ExtendedOperator:
    """Doubled drive quadrature (c_l + c_l^+ - c_r - c_r^+)/2: the coefficient
    of the instantaneous drive amplitude inside Hu."""
    _, c = single_copy_operators(params)
    x = 0.5 * (c + c.conj().T)
    m = x.shape[0]
    eye = np.eye(m)
    return ExtendedOperator(data=np.kron(x, eye) - np.kron(eye, x.conj()), dim=m * m)


def build_superoperator(h: np.ndarray, collapses: list[CollapseTerm]) -> ExtendedOperator:
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
    return ExtendedOperator(data=sup, dim=m * m)


@dataclass(frozen=True)
class PropagationResult:
    times: np.ndarray
    states: list[VectorizedState]
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


def propagate(state0: VectorizedState, params: SystemParams, pulse: PulseSpec,
              t_end: float, dt: float, sample_every: int | None = None) -> PropagationResult:
    """RK4 propagation of the vectorized state under Hu(t).

    Hu conserves both qubit labels, so only the qubit sectors in which state0
    has a nonzero entry are stepped, as one stack of n_c^2 x n_c^2 blocks
    sliced out of the full generator; the other sectors stay exactly 0. The
    drive block is rescaled with the envelope at the three RK4 amplitudes of
    each step. A step whose three amplitudes are equal (a constant pulse, the
    flat top and the zero tail of a square-gaussian) is time-independent:
    maximal runs of such steps up to the next sample are applied as one power
    of the RK4 step matrix, which is the same polynomial the stepwise loop
    applies. Samples are embedded back into the full doubled vector.

    Raises ValueError when dt violates the matrix-scale stability bound and
    AccuracyError when the trace drifts by more than 1e-6 or the state departs
    from Hermiticity (max |rho - rho^+| over the samples) by more than 1e-6.
    """
    hu_static = build_extended_hamiltonian(params, 0.0).data
    hu_drive = extended_drive_operator(params).data

    scale = np.max(np.sum(np.abs(hu_static + pulse.omega_c * hu_drive), axis=1))
    dt_max = 0.05 / (2.0e-3 * np.pi * scale) if scale > 0 else np.inf
    if dt > dt_max:
        raise ValueError(f"step size {dt} ns exceeds stability bound {dt_max:.4g} ns "
                         f"for matrix scale {scale:.4g} MHz")

    n_steps = int(round(t_end / dt))
    if sample_every is None:
        sample_every = max(1, n_steps // 512)
    rate = -2.0j * np.pi * 1.0e-3  # per ns per MHz

    psi0 = state0.vec.astype(complex)
    sectors = np.array([sector_indices(params, n_al, n_ar)
                        for n_al in range(params.n_a) for n_ar in range(params.n_a)])
    blocks = sectors[np.any(psi0[sectors] != 0, axis=1)]
    gen_s = rate * hu_static[blocks[:, :, None], blocks[:, None, :]]
    gen_d = rate * hu_drive[blocks[:, :, None], blocks[:, None, :]]
    y = psi0[blocks][:, :, None]

    amp = pulse.omega_c * sg_envelope(np.arange(2 * n_steps + 1) * (dt / 2.0), pulse)
    flat = (amp[:-2:2] == amp[1::2]) & (amp[1::2] == amp[2::2])
    powers = {}  # (amplitude, run length) -> power of the RK4 step matrix

    def rhs(a, v):
        return gen_s @ v + a * (gen_d @ v)

    times = [0.0]
    states = [VectorizedState(vec=state0.vec.copy(), dims=state0.dims)]
    k = 0
    while k < n_steps:
        if flat[k]:
            # run length: up to the first non-constant step or the next sample
            n = int(np.argmin(np.append(flat[k:(k // sample_every + 1) * sample_every], False)))
            a = float(amp[2 * k])
            if (a, n) not in powers:
                powers[a, n] = np.linalg.matrix_power(_rk4_step_matrix(gen_s + a * gen_d, dt), n)
            y = powers[a, n] @ y
        else:
            n = 1
            k1 = rhs(amp[2 * k], y)
            k2 = rhs(amp[2 * k + 1], y + dt / 2.0 * k1)
            k3 = rhs(amp[2 * k + 1], y + dt / 2.0 * k2)
            k4 = rhs(amp[2 * k + 2], y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k += n
        if k % sample_every == 0 or k == n_steps:
            vec = np.zeros_like(psi0)
            vec[blocks] = y[:, :, 0]
            times.append(k * dt)
            states.append(VectorizedState(vec=vec, dims=state0.dims))

    trace_drift = 0.0
    herm_drift = 0.0
    for st in states:
        rho = st.to_density_matrix()
        trace_drift = max(trace_drift, abs(np.trace(rho) - np.trace(states[0].to_density_matrix())))
        herm_drift = max(herm_drift, float(np.max(np.abs(rho - rho.conj().T))))
    if trace_drift > 1e-6:
        raise AccuracyError(f"trace drifted by {trace_drift:.3e} (> 1e-6); reduce dt")
    if herm_drift > 1e-6:
        raise AccuracyError(f"Hermiticity drifted by {herm_drift:.3e} (> 1e-6)")
    return PropagationResult(times=np.asarray(times), states=states,
                             max_trace_drift=float(trace_drift),
                             max_hermiticity_drift=herm_drift)


def qubit_block(state: VectorizedState) -> np.ndarray:
    """Resonator-traced qubit density matrix Tr_c rho, shape (n_a, n_a)."""
    n_a, n_c = state.dims
    rho = state.to_density_matrix().reshape(n_a, n_c, n_a, n_c)
    return np.trace(rho, axis1=1, axis2=3)


def qubit_coherence(state: VectorizedState, m: int = 1, n: int = 0) -> complex:
    """Matrix element <m_a| Tr_c rho |n_a> (resonator traced out)."""
    return complex(qubit_block(state)[m, n])
