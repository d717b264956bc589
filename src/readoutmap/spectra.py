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

from .liouville import AccuracyError, sector_generator
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
    """|1><0| coherence eigenvalue followed over a drive-amplitude grid.

    vectors are unit eigenvectors of the (1, 0) sector block, ordered
    (n_cl, n_cr) row-major like liouville.sector_generator."""

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


def track_coherence(params: SystemParams, omega_c_grid, n_workers: int = 1) -> CoherenceTrack:
    """Follow the coherence eigenvalue along the drive grid by max overlap.

    Only the (1, 0) qubit sector of Hu is built (liouville.sector_generator)
    and diagonalized: Hu conserves n_al and n_ar, so the |1><0| eigenvector
    has no weight outside that block, and the continuation cannot jump to
    another sector. Every vector stays in that block's basis.

    The grid must start at omega_c = 0, where the eigenvector is the exact
    basis state |0_cl, 0_cr> (block entry 0) with eigenvalue delta_ad. The
    diagonalizations are independent and run on n_workers (>= 1) threads;
    the overlap selection is a sequential pass afterwards.
    """
    grid = np.asarray(omega_c_grid, dtype=float)
    if grid.size == 0 or grid[0] != 0.0:
        raise ValueError("omega_c grid must start at 0")
    if n_workers < 1:
        raise ValueError(f"n_workers = {n_workers} must be >= 1")

    def diag(omega):
        return eigendecompose(sector_generator(params, 1, 0, omega))

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        eigsets = list(pool.map(diag, grid[1:]))

    seed = np.zeros(params.n_c ** 2, dtype=complex)
    seed[0] = 1.0
    eigenvalues = [complex(params.delta_ad)]
    overlaps = [1.0]
    vectors = [seed]
    for omega, es in zip(grid[1:], eigsets):
        ov = np.abs(vectors[-1].conj() @ es.eigenvectors)
        j = int(np.argmax(ov))
        if ov[j] <= 0.5:
            raise TrackingLostError(
                f"overlap {ov[j]:.3f} <= 0.5 at omega_c = {omega} MHz; refine the grid")
        eigenvalues.append(complex(es.eigenvalues[j]))
        overlaps.append(float(ov[j]))
        vectors.append(es.eigenvectors[:, j].copy())  # a view would keep the whole matrix

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
