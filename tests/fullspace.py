"""Full single-copy reference for the tests: the Kerr Hamiltonian over
|n_a, n_c>, its lowering operators, the trace functional and the Lindblad
generator assembled directly from the flattening identities.

The package builds the doubled-space generator one qubit-sector block at a
time (readoutmap.liouville.sector_generator). Nothing here is used by it:
these are the independent routes the tests check those blocks against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from readoutmap.liouville import destroy
from readoutmap.model import SystemParams


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
