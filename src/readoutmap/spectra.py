"""Exact spectrum of the doubled-space generator and drive sweeps.

For a constant drive the generator is time independent. Hu conserves both
qubit labels n_al and n_ar, so it is n_a^2 independent n_c^2 x n_c^2 blocks,
and the |1><0| qubit coherence lives entirely in the (n_al, n_ar) = (1, 0)
block. Only that block is diagonalized, densely, by numpy's LAPACK zgeev
(balancing, Hessenberg reduction, shifted QR). numpy releases the GIL for the
solve, so the solves of a threaded sweep overlap. Its coherence eigenvalue is
followed across a drive sweep by eigenvector-overlap continuation; its real
part renormalizes the qubit frequency (Stark shift) and its negative
imaginary part is the measurement-induced dephasing rate.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .liouville import AccuracyError, basis_index, sector_generator, sector_indices
from .model import SystemParams, write_csv
from .response import steady_state


class TrackingLostError(RuntimeError):
    """Eigenvector continuation lost the branch (grid too coarse)."""


@dataclass(frozen=True)
class EigenSet:
    """Full spectrum of a general complex matrix with per-pair residuals."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, unit 2-norm
    residuals: np.ndarray


@dataclass(frozen=True)
class CoherenceTrack:
    """|1><0| coherence eigenvalue followed over a drive-amplitude grid."""

    omega_c: np.ndarray
    eigenvalues: np.ndarray
    overlaps: np.ndarray
    photons: np.ndarray
    vectors: list[np.ndarray]


def eigendecompose(op: np.ndarray) -> EigenSet:
    """Dense non-Hermitian eigendecomposition with residual enforcement."""
    mat = np.asarray(op, dtype=complex)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix contains non-finite entries")
    w, v = np.linalg.eig(mat)
    norms = np.linalg.norm(v, axis=0)
    v = v / norms
    residuals = np.linalg.norm(mat @ v - v * w, axis=0)
    scale = np.linalg.norm(mat)
    if scale > 0 and np.max(residuals) > 1e-8 * scale:
        raise AccuracyError(
            f"eigensolver residual {np.max(residuals):.3e} exceeds 1e-8*|M| = {1e-8 * scale:.3e}; "
            f"matrix norm {scale:.3e}, worst pair index {int(np.argmax(residuals))}")
    return EigenSet(eigenvalues=w, eigenvectors=v, residuals=residuals)


def coherence_seed(params: SystemParams) -> tuple[np.ndarray, complex]:
    """Exact zero-drive eigenpair for the |1_al, 0_cl, 0_ar, 0_cr> coherence."""
    dim = (params.n_a * params.n_c) ** 2
    v = np.zeros(dim, dtype=complex)
    v[basis_index(params, 1, 0, 0, 0)] = 1.0
    return v, complex(params.delta_ad)


def track_coherence(params: SystemParams, omega_c_grid, n_workers: int = 1) -> CoherenceTrack:
    """Follow the coherence eigenvalue along the drive grid by max overlap.

    Only the (1, 0) qubit sector of Hu is built (liouville.sector_generator)
    and diagonalized: Hu conserves n_al and n_ar, so the |1><0| eigenvector
    has no weight outside that block, and the continuation cannot jump to
    another sector. The selected block eigenvector is embedded back into the
    full doubled space (zeros elsewhere).

    The grid must start at omega_c = 0, where the eigenvector is the exact
    basis state. Each diagonalization is independent (parallel across the
    grid); the overlap selection is a sequential pass afterwards.
    """
    grid = np.asarray(omega_c_grid, dtype=float)
    if grid.size == 0 or grid[0] != 0.0:
        raise ValueError("omega_c grid must start at 0")
    idx = sector_indices(params, 1, 0)

    def diag(omega):
        return eigendecompose(sector_generator(params, 1, 0, omega))

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            eigsets = list(pool.map(diag, grid[1:]))
    else:
        eigsets = [diag(w) for w in grid[1:]]

    v_seed, e0 = coherence_seed(params)
    eigenvalues = [e0]
    overlaps = [1.0]
    vectors = [v_seed]
    for omega, es in zip(grid[1:], eigsets):
        ov = np.abs(vectors[-1][idx].conj() @ es.eigenvectors)
        j = int(np.argmax(ov))
        if ov[j] <= 0.5:
            raise TrackingLostError(
                f"overlap {ov[j]:.3f} <= 0.5 at omega_c = {omega} MHz; refine the grid")
        eigenvalues.append(complex(es.eigenvalues[j]))
        overlaps.append(float(ov[j]))
        vectors.append(np.zeros_like(v_seed))
        vectors[-1][idx] = es.eigenvectors[:, j]

    photons = np.array([steady_state(params, w)[1] for w in grid])
    return CoherenceTrack(omega_c=grid, eigenvalues=np.asarray(eigenvalues),
                          overlaps=np.asarray(overlaps), photons=photons, vectors=vectors)


def extract_rates(track: CoherenceTrack, params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (stark, gamma_phi) in MHz from the tracked eigenvalue."""
    stark = track.eigenvalues.real - params.delta_ad
    gamma_phi = -track.eigenvalues.imag
    return stark, gamma_phi


def write_track_csv(path, track: CoherenceTrack, params: SystemParams, header: bool = True,
                    extra_cols: dict[str, np.ndarray] | None = None) -> None:
    """Columns: omega_c_mhz, n_c_photons, re_E_mhz, im_E_mhz, stark_mhz,
    gamma_phi_mhz, overlap (plus any extra columns appended in order)."""
    stark, gamma = extract_rates(track, params)
    columns = {"omega_c_mhz": track.omega_c, "n_c_photons": track.photons,
               "re_E_mhz": track.eigenvalues.real, "im_E_mhz": track.eigenvalues.imag,
               "stark_mhz": stark, "gamma_phi_mhz": gamma, "overlap": track.overlaps}
    write_csv(path, {**columns, **(extra_cols or {})}, header=header)
