"""Exact spectrum of the doubled-space generator and drive sweeps.

For a constant drive the generator is time independent. Hu conserves both
qubit labels n_al and n_ar, so it is n_a^2 independent n_c^2 x n_c^2 blocks,
and the |1><0| qubit coherence lives entirely in the (n_al, n_ar) = (1, 0)
block. The model has no resonator Kerr term, so that block's coherence
eigenpair has a closed form (eigenstates.closed_form_eigenpair, the polaron
picture) that is exact up to Fock truncation. A drive sweep therefore solves
for that one pair only: inverse iteration (eigenpair_near) on the block,
shifted by the closed-form eigenvalue and started from the closed-form vector,
with one dense numpy factorization per point. numpy releases the GIL for it,
so the points of a threaded sweep overlap. Each tracked vector must still
overlap the previous grid point's (continuation check); its real part
renormalizes the qubit frequency (Stark shift) and its negative imaginary part
is the measurement-induced dephasing rate.

eigendecompose, the full spectrum by numpy's LAPACK zgeev, is the dense
reference that the tests and the benchmark harness use; no command calls it.
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
class EigenPair:
    """One eigenpair of a general complex matrix: the Rayleigh-quotient
    eigenvalue of a unit vector, its residual |M v - value v| and the
    Frobenius norm |M| that the residual gate (1e-8 |M|) scales with."""

    value: complex
    vector: np.ndarray
    residual: float
    scale: float


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


# inverse iteration: iteration cap, and the change of the phase-aligned unit
# iterate below which it has stopped changing (in units of eps * sqrt(dim))
MAX_ITERATIONS = 50
STALL = 4.0


def _finite(op: np.ndarray) -> np.ndarray:
    mat = np.asarray(op, dtype=complex)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix contains non-finite entries")
    return mat


def _check_residual(residual: float, scale: float, detail: str) -> None:
    """AccuracyError unless residual <= 1e-8 |M| (a NaN residual fails too)."""
    if not residual <= 1e-8 * scale:
        raise AccuracyError(
            f"eigensolver residual {residual:.3e} exceeds 1e-8*|M| = {1e-8 * scale:.3e}; "
            f"matrix norm {scale:.3e}{detail}")


def eigendecompose(op: np.ndarray) -> EigenSet:
    """Dense non-Hermitian eigendecomposition with residual enforcement."""
    mat = _finite(op)
    w, v = np.linalg.eig(mat)
    norms = np.linalg.norm(v, axis=0)
    v = v / norms
    residuals = np.linalg.norm(mat @ v - v * w, axis=0)
    _check_residual(np.max(residuals), np.linalg.norm(mat),
                    f", worst pair index {int(np.argmax(residuals))}")
    return EigenSet(eigenvalues=w, eigenvectors=v, residuals=residuals)


def _scaled_inverse(mat: np.ndarray, shift: complex, scale: float) -> np.ndarray:
    """(mat - shift*I)^-1 divided by its largest entry magnitude.

    Inverse iteration needs only its direction, and the scaling keeps
    inv @ v from overflowing when shift is within rounding of an eigenvalue.
    A shift that is an eigenvalue to the last bit (a Fock state at zero
    drive), so that the inverse does not exist or overflows, is moved off it
    by one rounding step of |M|; the iteration still finds that eigenvector."""
    shifted = mat.copy()
    np.fill_diagonal(shifted, mat.diagonal() - shift)
    try:
        inv = np.linalg.inv(shifted)
    except np.linalg.LinAlgError:
        inv = None
    if inv is None or not np.all(np.isfinite(inv)):
        np.fill_diagonal(shifted, mat.diagonal() - (shift + np.spacing(scale)))
        inv = np.linalg.inv(shifted)
    inv /= np.max(np.abs(inv))
    return inv


def _inverse_iteration(op: np.ndarray, shift: complex, start: np.ndarray) -> EigenPair:
    """The eigenpair nearest shift, ungated: op - shift*I is inverted once and
    applied to the unit iterate, phase-aligned to its predecessor, until the
    iterate stops changing or MAX_ITERATIONS is reached."""
    mat = _finite(op)
    scale = float(np.linalg.norm(mat))
    inv = _scaled_inverse(mat, shift, scale)
    v = np.asarray(start, dtype=complex)
    v = v / np.linalg.norm(v)
    stall = STALL * np.finfo(float).eps * np.sqrt(v.size)
    for _ in range(MAX_ITERATIONS):
        w = inv @ v
        w /= np.linalg.norm(w)
        phase = np.vdot(v, w)
        if phase != 0:
            w *= phase.conjugate() / abs(phase)
        change = np.linalg.norm(w - v)
        v = w
        if change <= stall:
            break
    mv = mat @ v
    value = complex(np.vdot(v, mv))
    return EigenPair(value=value, vector=v, residual=float(np.linalg.norm(mv - value * v)),
                     scale=scale)


def _accept(pair: EigenPair, anchor: np.ndarray, where: str) -> float:
    """Gate a pair: first its overlap |anchor^H v| with a unit vector (> 0.5,
    else TrackingLostError), then its residual. Returns the overlap. The
    overlap goes first, so a lost branch reports as lost."""
    overlap = float(abs(np.vdot(anchor, pair.vector)))
    if overlap <= 0.5:
        raise TrackingLostError(f"overlap {overlap:.3f} <= 0.5{where}")
    _check_residual(pair.residual, pair.scale, where)
    return overlap


def eigenpair_near(op: np.ndarray, shift: complex, start: np.ndarray) -> EigenPair:
    """The one eigenpair of op whose eigenvalue is nearest shift, by inverse
    iteration from start.

    op - shift*I is factored once (an exact eigenvalue as shift is stepped
    off by one rounding unit of |op|). The eigenvalue is the Rayleigh quotient
    of the converged unit vector. Raises ValueError on non-finite entries,
    TrackingLostError when the pair found overlaps start by 0.5 or less
    (|start^H v| / |start|: it is another branch than the one start guessed),
    and then AccuracyError when the residual exceeds 1e-8 |op|_F, e.g. for a
    shift midway between two eigenvalues, where the iterate never settles."""
    pair = _inverse_iteration(op, shift, start)
    _accept(pair, start / np.linalg.norm(start), f" near eigenvalue {complex(shift):.6g}")
    return pair


def track_coherence(params: SystemParams, omega_c_grid, n_workers: int = 1) -> CoherenceTrack:
    """Follow the coherence eigenvalue along the drive grid.

    Only the (1, 0) qubit sector of Hu is built (liouville.sector_generator)
    and solved: Hu conserves n_al and n_ar, so the |1><0| eigenvector has no
    weight outside that block. Every vector stays in that block's basis.

    The grid must start at omega_c = 0, where the eigenvector is the exact
    basis state |0_cl, 0_cr> (block entry 0) with eigenvalue delta_ad. Each
    other point is solved on its own by eigenpair_near's inverse iteration,
    shifted by the closed-form eigenvalue and started from the closed-form
    vector, on n_workers (>= 1) threads. A sequential pass then checks, point
    by point, that each vector overlaps the previous one by more than 0.5
    (TrackingLostError: refine the grid; the overlap column) and only then
    its residual.
    """
    grid = np.asarray(omega_c_grid, dtype=float)
    if grid.size == 0 or grid[0] != 0.0:
        raise ValueError("omega_c grid must start at 0")
    if n_workers < 1:
        raise ValueError(f"n_workers = {n_workers} must be >= 1")

    from .eigenstates import closed_form_eigenpair  # eigenstates imports this module

    def solve(omega):
        shift, start = closed_form_eigenpair(params, 1, 0, omega)
        return _inverse_iteration(sector_generator(params, 1, 0, omega), shift, start)

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        pairs = list(pool.map(solve, grid[1:]))

    seed = np.zeros(params.n_c ** 2, dtype=complex)
    seed[0] = 1.0
    eigenvalues = [complex(params.delta_ad)]
    overlaps = [1.0]
    vectors = [seed]
    for omega, pair in zip(grid[1:], pairs):
        overlaps.append(_accept(pair, vectors[-1], f" at omega_c = {omega} MHz"))
        eigenvalues.append(pair.value)
        vectors.append(pair.vector)

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
