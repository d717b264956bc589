"""Vectorized Lindblad generator over the doubled (ket x bra) Fock space.

A density matrix rho = sum_{mn} rho_mn |m><n| over the single-copy basis is
flattened row-major into a vector with components rho_mn on |m_l>|n_r>. An
operator O acting from the left becomes O (x) I, and from the right (through
the adjoint) I (x) O*. The Lindblad equation then reads

    d/dt |rho> = -i * Hu(t) |rho>,
    Hu = H_l - H_r + i*kappa_c*(c_l c_r - 1/2 c_l^+ c_l - 1/2 c_r^+ c_r)

with H_l/H_r independent copies of the Kerr system-plus-drive Hamiltonian.
Hu is kept in cyclic MHz; a time evolution multiplies by -2*pi*i and time in us.

The doubled basis is ordered row-major as |n_al, n_cl, n_ar, n_cr> with the
resonator index fastest within each copy, i.e.
index = ((n_al*n_c + n_cl)*n_a + n_ar)*n_c + n_cr (see basis_index). Hu
conserves n_al and n_ar, so it is n_a^2 independent n_c^2 x n_c^2 blocks, one
per qubit sector; sector_indices picks out the indices of one sector.

sector_generator is the definition of Hu: it builds one sector block directly
from n_c-dimensional resonator operators, for the eigensolves and the
eigenstate residuals. build_extended_hamiltonian scatters all n_a^2 blocks
into the full matrix (the one user of basis_index and sector_indices; only
the tests and the benchmark harness call it). No command steps Hu in time:
propagate writes the exact coherence (response.coherence_at). The dense RK4
stepper and the single-copy generator, the independent routes the blocks and
that coherence are checked against, live with the tests (tests/fullspace.py).
"""

from __future__ import annotations

import numpy as np

from .model import SystemParams


class AccuracyError(RuntimeError):
    """Numerical result failed its accuracy gate (try a smaller step)."""


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

    # the Kronecker doubling written straight into one block [n_cl, n_cr, n_cl', n_cr']:
    # h_l where n_cr = n_cr', -h_r* where n_cl = n_cl', the jump kron(d, d*) on
    # (n_cl + 1, n_cr + 1), the number terms on the diagonal; every other product
    # in the doubling is an exact zero
    n_c = params.n_c
    num = num_c.diagonal().real
    jump = d.diagonal(1)
    block = np.zeros((n_c,) * 4, dtype=complex)
    np.einsum("ijkj->jik", block)[...] = h(n_al)
    np.einsum("ijil->ijl", block)[...] -= h(n_ar).conj()
    np.einsum("ijij->ij", block[:-1, :-1, 1:, 1:])[...] = (
        1j * params.kappa_c * np.outer(jump, jump))
    np.einsum("ijij->ij", block)[...] += 1j * params.kappa_c * (-0.5 * num[:, None] - 0.5 * num)
    return block.reshape(n_c ** 2, n_c ** 2)


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
