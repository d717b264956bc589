"""Perturbative stationary eigenstates of the doubled-space generator.

At zeroth order each doubled eigenstate is a qubit Fock label on either copy
with both resonator copies in coherent states (eta on the ket copy, eta* on
the bra copy). Higher orders add qubit-conditioned resonator excitations:
displaced creation operators (c^+ - eta*) acting on the coherent background,
with closed-form coefficients built from the dressed detunings. Coherent
amplitudes are written analytically in the truncated Fock basis (never via
matrix exponentials) to avoid truncation-induced norm loss.

Under a constant drive the model (no resonator Kerr term) has an exact
stationary eigenpair per qubit sector, the polaron picture of Gambetta et al.,
PRA 77, 012112 (2008): the displaced product |n_al, alpha_l><n_ar, alpha_r|,
each resonator copy in the steady state of its dressed detuning, with the
closed-form eigenvalue of effective.effective_spectrum. In a truncated Fock
basis it is exact up to truncation (closed_form_eigenpair).

Validation is done at a steady-state snapshot under constant drive. Hu
conserves n_al and n_ar, so a (n_al, n_ar) ansatz and its exact partner live
in that one qubit sector: every vector here is a block vector over
(n_cl, n_cr), the basis of that sector's n_c^2 x n_c^2 block
(liouville.sector_generator). The exact partner is the block's eigenvector at
the closed-form eigenvalue, solved for alone (spectra.eigenpair_near, each step
n_c small solves over the block's ket levels n_cl).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .effective import effective_spectrum
from .liouville import destroy, sector_generator
from .model import (SystemParams, detuning_l, detuning_r, resonance_error, truncation_error,
                    write_csv)
from .response import steady_state
from .spectra import eigenpair_near


@dataclass(frozen=True)
class PerturbativeEigenstate:
    """Unit-normalized eigenstate for labels (n_al, n_ar), orders 0..2, as a
    vector over the (n_cl, n_cr) basis of the (n_al, n_ar) sector block."""

    n_al: int
    n_ar: int
    order: int
    eta: complex
    vector: np.ndarray = field(repr=False)


def coherent_amplitudes(eta: complex, n_c: int) -> np.ndarray:
    """Truncated coherent-state column: exp(-|eta|^2/2) eta^k / sqrt(k!)."""
    k = np.arange(n_c)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n_c, dtype=float)))))
    mag = np.exp(-abs(eta) ** 2 / 2.0 + k * np.log(abs(eta)) - 0.5 * log_fact) if eta != 0 \
        else np.concatenate(([1.0], np.zeros(n_c - 1)))
    phase = np.exp(1j * k * np.angle(eta)) if eta != 0 else np.ones(n_c)
    return mag * phase


def closed_form_eigenpair(params: SystemParams, n_al: int, n_ar: int,
                          omega_c: float) -> tuple[complex, np.ndarray]:
    """Constant-drive eigenpair of the (n_al, n_ar) sector block in closed form.

    The eigenvalue is delta_ad (n_al - n_ar) + alpha_a/2 (n_al(n_al-1) -
    n_ar(n_ar-1)) + E_{n_al,n_ar}(photon). The unit block vector is
    kron(coherent(alpha_l), conj(coherent(alpha_r))), alpha_k the steady-state
    amplitude of level k, response.steady_state(params, omega_c, k). The pair is exact
    for this model but for Fock truncation: its residual falls as n_c grows."""
    _, photon = steady_state(params, omega_c)
    value = (params.delta_ad * (n_al - n_ar)
             + 0.5 * params.alpha_a * (n_al * (n_al - 1) - n_ar * (n_ar - 1))
             + effective_spectrum(params, n_al, n_ar, photon))
    alpha_l, alpha_r = (steady_state(params, omega_c, k)[0] for k in (n_al, n_ar))
    vec = np.kron(coherent_amplitudes(alpha_l, params.n_c),
                  np.conj(coherent_amplitudes(alpha_r, params.n_c)))
    return complex(value), vec / np.linalg.norm(vec)


def perturbative_eigenstate(labels: tuple[int, int], params: SystemParams,
                            eta: complex, order: int) -> PerturbativeEigenstate:
    """Build the order-0/1/2 eigenstate for qubit labels in {0, 1}^2.

    The (0,0) state is the pure coherent product at every order. For excited
    labels the first order applies -2 chi eta (c^+ - eta*)/dl (and the mirror
    on the bra copy), the second order its half-squared iteration, and (1,1)
    additionally the cross ket-bra excitation. Requires |eta|^2 < n_c/4 so the
    coherent tail is negligible at the truncation, and, for an excited label
    at order >= 1, level 1 off its undamped dressed resonance
    (model.resonance_error), whose dressed detuning the excitations divide by.
    """
    n_al, n_ar = labels
    if n_al not in (0, 1) or n_ar not in (0, 1):
        raise ValueError("perturbative eigenstates are built for labels in {0,1}")
    if order not in (0, 1, 2):
        raise ValueError(f"unsupported perturbative order {order}")
    n_c = params.n_c
    problem = truncation_error(abs(eta) ** 2, n_c) or (
        resonance_error(params, (1,)) if order >= 1 and 1 in labels else None)
    if problem:
        raise ValueError(problem)

    res_l = coherent_amplitudes(eta, n_c)
    res_r = coherent_amplitudes(np.conj(eta), n_c)

    disp_l = destroy(n_c).conj().T - np.conj(eta) * np.eye(n_c)  # c^+ - eta*
    disp_r = destroy(n_c).conj().T - eta * np.eye(n_c)           # c^+ - eta

    vec = np.kron(res_l, res_r)
    chi = params.chi_ac
    if n_al == 1 and order >= 1:
        dl = detuning_l(params, 1)
        vec = vec - (2.0 * chi * eta / dl) * np.kron(disp_l @ res_l, res_r)
        if order >= 2:
            vec = vec + (2.0 * chi**2 * eta**2 / dl**2) * np.kron(disp_l @ (disp_l @ res_l), res_r)
    if n_ar == 1 and order >= 1:
        dr = detuning_r(params, 1)
        vec = vec - (2.0 * chi * np.conj(eta) / dr) * np.kron(res_l, disp_r @ res_r)
        if order >= 2:
            vec = vec + (2.0 * chi**2 * np.conj(eta) ** 2 / dr**2) \
                * np.kron(res_l, disp_r @ (disp_r @ res_r))
    if n_al == 1 and n_ar == 1 and order >= 2:
        d, k = params.delta_cd, params.kappa_c
        cross = 4.0 * chi**2 * abs(eta) ** 2 / ((d + 2.0 * chi) ** 2 + (k / 2.0) ** 2)
        vec = vec + cross * np.kron(disp_l @ res_l, disp_r @ res_r)

    vec = vec / np.linalg.norm(vec)
    return PerturbativeEigenstate(n_al=n_al, n_ar=n_ar, order=order, eta=complex(eta),
                                  vector=vec)


def exact_eigenvector(state: PerturbativeEigenstate, params: SystemParams,
                      omega_c: float) -> np.ndarray:
    """Exact eigenvector of the static generator matched to the ansatz.

    Only the (state.n_al, state.n_ar) qubit sector of Hu is solved: Hu
    conserves both qubit labels, so the ansatz and its exact partner have no
    weight outside that block. Returns the unit block eigenvector, in the
    basis of state.vector.

    The partner is the block eigenpair nearest the closed-form eigenvalue, by
    inverse iteration from the perturbative vector (spectra.eigenpair_near).
    Raises TrackingLostError when its overlap with the ansatz drops to 0.5
    (the ansatz is too far from exact)."""
    block, shift = _sector(params, state.n_al, state.n_ar, omega_c)
    return eigenpair_near(block, shift, state.vector, _levels=params.n_c).vector


def eigenstate_fidelity(state: PerturbativeEigenstate, params: SystemParams,
                        omega_c: float, exact: np.ndarray | None = None) -> float:
    """Infidelity 1 - |<pert|exact>|^2 against the exact static eigenvector,
    taken as |exact - <pert|exact> pert|^2: the squared norm of the part of the
    unit exact orthogonal to the unit pert, which does not cancel when small.

    The state must have been built with the steady-state amplitude of
    omega_c. A precomputed exact vector can be passed to amortize the
    diagonalization over several orders."""
    eta_ss, _ = steady_state(params, omega_c)
    if abs(state.eta - eta_ss) > 1e-8 * (1.0 + abs(eta_ss)):
        raise ValueError(f"state was built with eta = {state.eta}, but omega_c = {omega_c} "
                         f"has steady-state amplitude {eta_ss}")
    if exact is None:
        exact = exact_eigenvector(state, params, omega_c)
    orthogonal = exact - np.vdot(state.vector, exact) * state.vector
    return float(np.vdot(orthogonal, orthogonal).real)


def residual_norm(state: PerturbativeEigenstate, params: SystemParams, omega_c: float) -> float:
    """|Hu v - lambda v| / |v| with lambda the closed-form eigenvalue
    delta_ad (n_al - n_ar) + anharmonic offset + E_{n_al,n_ar}(photon).

    v is a block vector of the (n_al, n_ar) qubit sector, which Hu maps to
    itself, so H_b v on that sector's block is all of Hu v."""
    return _residual(*_sector(params, state.n_al, state.n_ar, omega_c), state.vector)


def _sector(params: SystemParams, n_al: int, n_ar: int,
            omega_c: float) -> tuple[np.ndarray, complex]:
    """The (n_al, n_ar) block of Hu and its closed-form eigenvalue."""
    lam, _ = closed_form_eigenpair(params, n_al, n_ar, omega_c)
    return sector_generator(params, n_al, n_ar, omega_c), lam


def _residual(block: np.ndarray, lam: complex, v: np.ndarray) -> float:
    return float(np.linalg.norm(block @ v - lam * v) / np.linalg.norm(v))


def fidelity_sweep(params: SystemParams, omega_c_values, labels: tuple[int, int] = (1, 0),
                   orders=(0, 1, 2)) -> list[dict]:
    """Infidelity and residual for each order across drive amplitudes.

    Returns one record per (omega_c, order): keys omega_c_mhz, order,
    infidelity, residual_norm. Each point builds its sector block and the
    closed-form eigenvalue once; the exact vector (exact_eigenvector's solve,
    from the highest order) and every residual share them."""
    rows = []
    for omega in omega_c_values:
        eta_ss, _ = steady_state(params, omega)
        states = [perturbative_eigenstate(labels, params, eta_ss, o) for o in orders]
        block, lam = _sector(params, *labels, omega)
        exact = eigenpair_near(block, lam, states[-1].vector, _levels=params.n_c).vector
        for state in states:
            rows.append({
                "omega_c_mhz": float(omega),
                "order": state.order,
                "infidelity": eigenstate_fidelity(state, params, omega, exact=exact),
                "residual_norm": _residual(block, lam, state.vector),
            })
    return rows


def write_fidelity_csv(path, rows, header: bool = True) -> None:
    """Columns: omega_c_mhz, order, infidelity, residual_norm."""
    names = ("omega_c_mhz", "order", "infidelity", "residual_norm")
    write_csv(path, {name: [r[name] for r in rows] for name in names}, header=header)
