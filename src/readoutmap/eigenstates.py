"""Perturbative stationary eigenstates of the doubled-space generator.

Under a constant drive the model (no resonator Kerr term) has an exact
stationary eigenpair per qubit sector, the polaron picture of Gambetta et al.,
PRA 77, 012112 (2008): the displaced product |n_al, alpha_l><n_ar, alpha_r|,
each resonator copy in the steady state of its dressed detuning, with the
closed-form eigenvalue of effective.effective_spectrum (closed_form_eigenpair,
exact up to Fock truncation). Coherent amplitudes are written analytically in
the truncated Fock basis, never via matrix exponentials.

The perturbative eigenstate of labels in {0, 1}^2 is the series of that vector
in the drive about eta (eta on the ket copy, eta* on the bra copy): t_0 =
coherent(eta), t_k = (a/k)(c^+ - eta*) t_{k-1}, s_0 = coherent(eta*), s_k =
(b/k)(c^+ - eta) s_{k-1}, and v = sum over i + j <= order of kron(t_i, s_j),
normalized; a = -2 chi eta / dl(1) for an excited ket label, b = -2 chi eta* /
dr(1) for an excited bra label, else 0. Its limit e^{a(c^+ - eta*)}|eta> (x)
e^{b(c^+ - eta)}|eta*> is |alpha_{n_al}> (x) |alpha_{n_ar}*> up to a factor, as
eta + a = alpha_1; c^+ only raises in the truncated basis, so the truncated sum
reaches closed_form_eigenpair's vector to rounding.

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
    if eta == 0:
        return np.eye(1, n_c)[0]  # the vacuum
    k = np.arange(n_c)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n_c, dtype=float)))))
    mag = np.exp(-abs(eta) ** 2 / 2.0 + k * np.log(abs(eta)) - 0.5 * log_fact)
    return mag * np.exp(1j * k * np.angle(eta))


def closed_form_eigenpair(params: SystemParams, n_al: int, n_ar: int,
                          omega_c: float) -> tuple[complex, np.ndarray]:
    """Constant-drive eigenpair of the (n_al, n_ar) sector block in closed form.

    The eigenvalue is delta_ad (n_al - n_ar) + alpha_a/2 (n_al(n_al-1) -
    n_ar(n_ar-1)) + E_{n_al,n_ar}(photon). The unit block vector is
    kron(coherent(alpha_l), conj(coherent(alpha_r))), alpha_k the steady-state
    amplitude of level k, response.steady_state(params, omega_c, k). The pair is exact
    for this model but for Fock truncation: its residual falls as n_c grows. Raises
    model.truncation_error's ValueError (the larger |alpha|^2) where the vector's norm is 0."""
    _, photon = steady_state(params, omega_c)
    alpha_l, alpha_r = (steady_state(params, omega_c, k)[0] for k in (n_al, n_ar))
    vec = np.kron(coherent_amplitudes(alpha_l, params.n_c),
                  np.conj(coherent_amplitudes(alpha_r, params.n_c)))
    norm = np.linalg.norm(vec)
    if not norm > 0.0:
        raise ValueError(truncation_error(max(abs(alpha_l), abs(alpha_r)) ** 2, params.n_c))
    value = (params.delta_ad * (n_al - n_ar)
             + 0.5 * params.alpha_a * (n_al * (n_al - 1) - n_ar * (n_ar - 1))
             + effective_spectrum(params, n_al, n_ar, photon))
    return complex(value), vec / norm


def _displacement_series(labels: tuple[int, int], params: SystemParams, eta: complex,
                         order: int) -> np.ndarray:
    """The module docstring's series, unnormalized, to any order >= 0."""
    n_c, chi = params.n_c, params.chi_ac
    # level 1's dressed detunings: only an excited label past order 0 divides by them
    a = -2.0 * chi * eta / detuning_l(params, 1) if labels[0] and order else 0.0
    b = -2.0 * chi * np.conj(eta) / detuning_r(params, 1) if labels[1] and order else 0.0
    up = destroy(n_c).conj().T
    disp_l, disp_r = up - np.conj(eta) * np.eye(n_c), up - eta * np.eye(n_c)
    t, s = [coherent_amplitudes(eta, n_c)], [coherent_amplitudes(np.conj(eta), n_c)]
    for k in range(1, order + 1):
        t.append((a / k) * (disp_l @ t[-1]))
        s.append((b / k) * (disp_r @ s[-1]))
    partial = np.cumsum(s, axis=0)  # s_0 + ... + s_j
    return sum(np.kron(t[i], partial[order - i]) for i in range(order + 1))


def perturbative_eigenstate(labels: tuple[int, int], params: SystemParams,
                            eta: complex, order: int) -> PerturbativeEigenstate:
    """The order-0/1/2 eigenstate for qubit labels in {0, 1}^2: the module docstring's
    series of closed_form_eigenpair's vector, summed over i + j <= order.

    (0,0) is the coherent product at every order. Requires |eta|^2 < n_c/4, so the
    coherent tail is negligible at the truncation, and, for an excited label at order
    >= 1, level 1 off its undamped dressed resonance (model.resonance_error).
    """
    n_al, n_ar = labels
    if n_al not in (0, 1) or n_ar not in (0, 1):
        raise ValueError("perturbative eigenstates are built for labels in {0,1}")
    if order not in (0, 1, 2):
        raise ValueError(f"unsupported perturbative order {order}")
    problem = truncation_error(abs(eta) ** 2, params.n_c) or (
        resonance_error(params, (1,)) if order >= 1 and 1 in labels else None)
    if problem:
        raise ValueError(problem)
    vec = _displacement_series(labels, params, eta, order)
    return PerturbativeEigenstate(n_al=n_al, n_ar=n_ar, order=order, eta=complex(eta),
                                  vector=vec / np.linalg.norm(vec))


def exact_eigenvector(state: PerturbativeEigenstate, params: SystemParams,
                      omega_c: float) -> np.ndarray:
    """Exact unit eigenvector of the static generator matched to the ansatz, in the basis
    of state.vector: the eigenpair of the ansatz's qubit-sector block (Hu conserves both
    labels) nearest the closed-form eigenvalue, by inverse iteration from the perturbative
    vector (spectra.eigenpair_near). Raises TrackingLostError when its overlap with the
    ansatz drops to 0.5 (the ansatz is too far from exact)."""
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
        rows += [{"omega_c_mhz": float(omega), "order": state.order,
                  "infidelity": eigenstate_fidelity(state, params, omega, exact=exact),
                  "residual_norm": _residual(block, lam, state.vector)} for state in states]
    return rows


def write_fidelity_csv(path, rows, header: bool = True) -> None:
    """Columns: omega_c_mhz, order, infidelity, residual_norm."""
    names = ("omega_c_mhz", "order", "infidelity", "residual_norm")
    write_csv(path, {name: [r[name] for r in rows] for name in names}, header=header)
