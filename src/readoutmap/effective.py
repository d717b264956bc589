"""Closed-form effective dispersive map under adiabatic resonator response.

All quantities are per qubit-coherence |n_al><n_ar| and diagonal in the qubit
number basis, so this module is element-wise algebra over the level labels:
complex spectrum entries E_{n_al,n_ar}, the Stark shift / dephasing pair for the
|1><0| coherence, the equivalent Lindblad form (number-diagonal Hamiltonian
and collapse operator), channel application, and a Choi positivity check.
A function that divides by the dressed factors of some levels first applies
model.resonance_error to them: an undamped dressed resonance is one ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (SystemParams, detuning_l, detuning_r, overflow_error, resonance_error,
                    write_csv)


@dataclass(frozen=True)
class RatePair:
    """Stark shift and measurement-induced dephasing for |1><0| (MHz)."""

    stark: float
    dephasing: float

    def __post_init__(self):
        if self.dephasing < 0:
            raise ValueError("dephasing rate must be >= 0")


@dataclass(frozen=True)
class EffectiveLindblad:
    """Number-diagonal effective Hamiltonian and collapse-operator values."""

    h_values: np.ndarray  # real, per level
    c_values: np.ndarray  # complex, per level; c_values[0] == 0


def adiabatic_correlations(params: SystemParams, n_al: int, n_ar: int,
                           photon: float) -> tuple[complex, complex, complex, complex]:
    """Leading adiabatic values of the drive correlation functions.

    A_ll = photon / dl(n_al), A_rr = photon / dr(n_ar),
    B_lr = C_lr = (3/2) photon / (dl(n_al) dr(n_ar)).
    """
    if not photon >= 0:
        raise ValueError("photon number must be >= 0")
    problem = resonance_error(params, (n_al, n_ar))
    if problem:
        raise ValueError(problem)
    dl = detuning_l(params, n_al)
    dr = detuning_r(params, n_ar)
    a_ll = photon / dl
    a_rr = photon / dr
    b_lr = 1.5 * photon / (dl * dr)
    return a_ll, a_rr, b_lr, b_lr


def effective_spectrum(params: SystemParams, n_al: int | np.ndarray, n_ar: int | np.ndarray,
                       photon: float) -> complex | np.ndarray:
    """Closed-form complex eigenvalue E_{n_al,n_ar} (MHz) at the given photon number.

    n_al and n_ar are ints (a complex is returned) or integer arrays, which
    broadcast against each other. The squares are written as products, so a
    scalar call and an array entry are the same float. The real part carries
    the level-difference factor and the imaginary part its square, so
    E_{n,n} = 0 and E_{m,n} = -conj(E_{n,m}) hold exactly in floating point.

    Raises model.resonance_error's ValueError when a level is on its undamped
    dressed resonance, where the entry is singular; over an array the message
    names the lowest such level.
    """
    if not photon >= 0:
        raise ValueError("photon number must be >= 0")
    d, chi, k = params.delta_cd, params.chi_ac, params.kappa_c
    half_k_sq = (k / 2.0) ** 2
    dl = d + 2.0 * chi * n_al
    dr = d + 2.0 * chi * n_ar
    den = (dl * dl + half_k_sq) * (dr * dr + half_k_sq)
    # count_nonzero, not np.any: on a scalar call's bool it is ~6x cheaper; den * 0.0
    # is NaN, so counted, where den is not finite (an overflowing dressed detuning)
    zero = np.count_nonzero(den == 0.0)
    if zero or np.count_nonzero(den * 0.0):
        raise ValueError(resonance_error(params, np.union1d(n_al, n_ar)) or
                         f"delta_cd = {d + 0.0:g} MHz: a product of two dressed factors "
                         f"{'underflows to 0' if zero else 'overflows'}, so the effective "
                         f"spectrum is out of float range")
    base = d**2 + half_k_sq
    diff = n_al - n_ar
    re = 2.0 * chi * base * (dl * dr + half_k_sq) * diff * photon / den
    im = -2.0 * chi**2 * k * base * diff**2 * photon / den
    return re + 1j * im


def spectrum_matrix(params: SystemParams, levels: int, photon: float) -> np.ndarray:
    """E_{m,n} over levels 0..levels-1 as a complex matrix."""
    problem = overflow_error(params, range(levels))  # before numpy overflows on it
    if problem:
        raise ValueError(problem)
    n = np.arange(levels)
    return effective_spectrum(params, n[:, None], n[None, :], photon)


def rates(params: SystemParams, photon: float) -> RatePair:
    """Stark shift and dephasing of the |1><0| coherence at the given photon
    number: the real and negative imaginary parts of E_{1,0}.

    The dephasing equals -(1/2) (kappa_c/(delta_cd+2 chi_ac)) times the
    second-order Stark contribution; see stark_orders.
    """
    entry = effective_spectrum(params, 1, 0, photon)
    return RatePair(stark=entry.real, dephasing=-entry.imag)


def stark_orders(params: SystemParams, photon: float) -> tuple[float, float]:
    """First- and second-order Stark contributions (their sum is rates().stark)."""
    problem = resonance_error(params, (1,))
    if problem:
        raise ValueError(problem)
    d, chi, k = params.delta_cd, params.chi_ac, params.kappa_c
    first = 2.0 * chi * photon
    second = -4.0 * chi**2 * (d + 2.0 * chi) * photon / ((d + 2.0 * chi) ** 2 + (k / 2.0) ** 2)
    return first, second


def gambetta_rates(params: SystemParams, omega_c: float) -> float:
    """Two-level-model dephasing rate built from both pointer photon numbers:

    gamma = chi^2 kappa (n_+ + n_-) / (delta_cd^2 + chi^2 + kappa^2/4),
    n_pm = (omega_c/2)^2 / ((delta_cd +- chi)^2 + (kappa/2)^2).

    Evaluating it at delta_cd + chi_ac reproduces rates() at delta_cd exactly
    (the two conventions differ by a chi offset of the resonator frequency).
    """
    if params.kappa_c <= 0:
        raise ValueError("gambetta_rates requires kappa_c > 0")
    d, chi, k = params.delta_cd, params.chi_ac, params.kappa_c
    n_plus = (omega_c / 2.0) ** 2 / ((d + chi) ** 2 + (k / 2.0) ** 2)
    n_minus = (omega_c / 2.0) ** 2 / ((d - chi) ** 2 + (k / 2.0) ** 2)
    return chi**2 * k * (n_plus + n_minus) / (d**2 + chi**2 + k**2 / 4.0)


def effective_lindblad(params: SystemParams, photon: float) -> EffectiveLindblad:
    """Number-diagonal Lindblad form of the adiabatic map.

    h(n) = 2 chi n photon - 4 chi^2 photon (d + 2 chi n) n^2 / ((d+2chi n)^2 + (k/2)^2)
    c(n) = sqrt(4 chi^2 kappa photon) * n / (d - i k/2 + 2 chi n)

    |c(1)|^2 / 2 reproduces the dephasing rate of rates().
    """
    if not photon >= 0:
        raise ValueError("photon number must be >= 0")
    problem = resonance_error(params, range(params.n_a))
    if problem:
        raise ValueError(problem)
    d, chi, k = params.delta_cd, params.chi_ac, params.kappa_c
    n = np.arange(params.n_a, dtype=float)
    dn = d + 2.0 * chi * n
    h = 2.0 * chi * photon * n - 4.0 * chi**2 * photon * dn * n**2 / (dn**2 + (k / 2.0) ** 2)
    c = math.sqrt(4.0 * chi**2 * k * photon) * n / (dn - 0.5j * k)
    return EffectiveLindblad(h_values=h, c_values=c)


def effective_map_apply(rho0: np.ndarray, params: SystemParams, photon_series,
                        t_grid) -> np.ndarray:
    """Apply the element-wise effective map along a photon-number history.

    rho_mn(t) = rho_mn(0) * exp(-2 pi i * R_mn * Integral_0^t photon dt'),
    with R_mn the per-photon spectrum entry and the integral by the trapezoid
    rule on t_grid (ns). Returns rho at every grid time, shape (nt, d, d).
    Diagonal entries are conserved identically (R_nn = 0).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    if rho0.shape != (d, d):
        raise ValueError("rho0 must be square")
    if np.max(np.abs(rho0 - rho0.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(rho0))):
        raise ValueError("rho0 must be Hermitian")
    t = np.asarray(t_grid, dtype=float)
    phot = np.asarray(photon_series, dtype=float)
    if t.shape != phot.shape:
        raise ValueError("photon_series and t_grid must share a grid")
    rate = spectrum_matrix(params, d, 1.0)  # per-photon entries
    # cumulative trapezoid of the photon number, converted ns -> us
    integ = np.concatenate(([0.0], np.cumsum(0.5 * (phot[1:] + phot[:-1]) * np.diff(t)))) * 1e-3
    phases = np.exp(-2j * np.pi * rate[None, :, :] * integ[:, None, None])
    return rho0[None, :, :] * phases


def dephasing_choi(spectrum: np.ndarray, t_us: float) -> np.ndarray:
    """Choi matrix of the element-wise map rho_mn -> exp(-2 pi i E_mn t) rho_mn."""
    d = spectrum.shape[0]
    k = np.arange(d) * (d + 1)  # index of |m>|m> in the d^2 basis
    choi = np.zeros((d * d, d * d), dtype=complex)
    choi[k[:, None], k] = np.exp(-2j * np.pi * spectrum * t_us)
    return choi


def choi_cptp_check(params: SystemParams, photon: float, t_us: float,
                    levels: int | None = None) -> float:
    """Minimum eigenvalue of the effective map's Choi matrix (>= 0 up to
    roundoff for a physical channel)."""
    if t_us < 0:
        raise ValueError("time must be >= 0")
    d = params.n_a if levels is None else levels
    choi = dephasing_choi(spectrum_matrix(params, d, photon), t_us)
    return float(np.linalg.eigvalsh(choi).min())


def write_rates_sweep_csv(path, rows, header: bool = True) -> None:
    """Columns: delta_cd_mhz, gamma_phi_mhz, stark_mhz, n_ground, n_excited."""
    names = ("delta_cd_mhz", "gamma_phi_mhz", "stark_mhz", "n_ground", "n_excited")
    table = np.reshape(np.asarray(rows, dtype=float), (len(rows), len(names)))
    write_csv(path, dict(zip(names, table.T)), header=header)


def write_spectrum_grid_csv(path, params: SystemParams, levels: int, photon: float,
                            header: bool = True) -> None:
    """Columns: n_al, n_ar, re_E, im_E over the level grid."""
    e = spectrum_matrix(params, levels, photon).ravel()
    n_al, n_ar = np.indices((levels, levels)).reshape(2, -1)
    write_csv(path, {"n_al": n_al, "n_ar": n_ar, "re_E": e.real, "im_E": e.imag},
              header=header)
