"""Exact spectrum of the doubled-space generator and drive sweeps.

For a constant drive the generator is time independent. Hu conserves both
qubit labels n_al and n_ar, so it is n_a^2 independent n_c^2 x n_c^2 blocks,
and the |1><0| qubit coherence lives entirely in the (n_al, n_ar) = (1, 0)
block. The model has no resonator Kerr term, so that block's coherence
eigenpair has a closed form (eigenstates.closed_form_eigenpair, the polaron
picture) that is exact up to Fock truncation. A drive sweep therefore solves
for that one pair only: inverse iteration (eigenpair_near) on the block,
shifted by the closed-form eigenvalue and started from the closed-form vector,
stopped by the stall or a rounding-level residual; from the closed-form start
one step is usually enough.

Each step solves the shifted block as the block-tridiagonal matrix it is. The
drive moves n_cl by +-1, the jump lowers n_cl and n_cr together and -h_r*
keeps n_cl, so in the (n_cl, n_cr) order every n_c x n_c block between ket
levels more than one apart is an exact zero, and a solve is n_c small LU
solves (_block_solve): O(n_c^4) work in place of the dense O(n_c^6). There is
no pivoting between the blocks. At kappa_c > 0 its backward error stays at
rounding level; at kappa_c = 0 the block is Hermitian and a Schur complement
can come near singular, so it has a longer tail (measured up to 3e-12
normwise), which the iteration's residual gate sees like any other error.
Also at kappa_c = 0 a diagonal sector's eigenvalue 0 is n_c-fold degenerate:
the iteration returns some eigenvector of that eigenspace, at a rounding-level
residual, and which one depends on how the block is solved. The small solves
are short numpy calls that hold the GIL most of the time, so the threads of a
sweep hardly overlap.

Each tracked vector must still overlap the previous grid point's
(continuation check); its real part renormalizes the qubit frequency (Stark
shift) and its negative imaginary part is the measurement-induced dephasing
rate.

eigendecompose, the full spectrum by numpy's LAPACK zgeev, is the dense
reference that the tests and the benchmark harness use; no command calls it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

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

    eigenvalues are delta_ad + E', with E' the eigenvalue solved at delta_ad = 0;
    stark is Re E', kept apart so that its digits do not depend on |delta_ad|.
    vectors are unit eigenvectors of the (1, 0) sector block, ordered
    (n_cl, n_cr) row-major like liouville.sector_generator."""

    omega_c: np.ndarray
    eigenvalues: np.ndarray
    stark: np.ndarray
    overlaps: np.ndarray
    photons: np.ndarray
    vectors: list[np.ndarray]


# inverse iteration: iteration cap, and the rounding level in units of eps * sqrt(dim):
# the change of the phase-aligned unit iterate below which it has stopped changing,
# and (times |M|_F) the Rayleigh residual at which it has converged
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


@np.errstate(over="ignore", invalid="ignore")
def _block_solve(mat: np.ndarray, shift: complex, v: np.ndarray, levels: int) -> np.ndarray:
    """w with (mat - shift*I) w = v, for mat block tridiagonal over levels x levels
    equal m x m blocks: B[i, j], the block from level i to level j of mat - shift*I,
    is zero for |i - j| > 1.

    Block LU with no pivoting between blocks, eliminated from the last level down to
    the first, so that the near-singular pivot of a shift at an eigenvalue is met in
    the last small solve. From S_{l-1} = B[l-1, l-1] and y_{l-1} = v_{l-1} (l = levels):
    X_i = S_i^-1 [B[i, i-1] | y_i], S_{i-1} = B[i-1, i-1] - B[i-1, i] X_i[:, :m] and
    y_{i-1} = v_{i-1} - B[i-1, i] X_i[:, m]; then w_0 = S_0^-1 y_0 and
    w_i = X_i[:, m] - X_i[:, :m] w_{i-1}. Each S^-1 is numpy's LU solve with partial
    pivoting within its block. The blocks are views of mat. levels = 1 is any square
    matrix: the loop is empty and the one solve is of the whole shifted matrix.
    Overflow and invalid values raise no numpy warning: near an eigenvalue w may
    come out not finite, and _inverse_iteration then solves again off the shift."""
    m = v.size // levels
    b = mat.reshape(levels, m, levels, m)
    y = v.reshape(levels, m)
    lam = np.diag(np.full(m, shift))
    s, rhs, xs = b[-1, :, -1] - lam, y[-1], []
    for i in range(levels - 1, 0, -1):
        x = np.linalg.solve(s, np.concatenate((b[i, :, i - 1], rhs[:, None]), axis=1))
        t = b[i - 1, :, i] @ x
        s, rhs = b[i - 1, :, i - 1] - lam - t[:, :m], y[i - 1] - t[:, m]
        xs.append(x)
    w = [np.linalg.solve(s, rhs)]
    for x in reversed(xs):
        w.append(x[:, m] - x[:, :m] @ w[-1])
    return np.concatenate(w)


def _inverse_iteration(op: np.ndarray, shift: complex, start: np.ndarray,
                       levels: int = 1) -> EigenPair:
    """The eigenpair nearest shift, ungated. Each step solves (op - shift*I) w = v
    (_block_solve over levels diagonal blocks; a sector block of Hu is block
    tridiagonal over its n_c ket levels n_cl) and the next iterate is the unit w,
    phase-aligned to v. It stops when the iterate's Rayleigh residual is at
    rounding level (STALL * eps * sqrt(dim) * |op|_F), when the iterate stops
    changing, or after MAX_ITERATIONS steps. w is scaled by its largest entry
    magnitude before it is normalized, so its norm cannot overflow when shift
    is within rounding of an eigenvalue. A shift that is an eigenvalue to the
    last bit (a Fock state at zero drive), so that the solve fails or
    overflows, is moved off it by one rounding step of |op|; the iteration
    still finds that eigenvector."""
    mat = _finite(op)
    scale = float(np.linalg.norm(mat))
    v = np.asarray(start, dtype=complex)
    v = v / np.linalg.norm(v)
    rounding = STALL * np.finfo(float).eps * np.sqrt(v.size)
    for _ in range(MAX_ITERATIONS):
        try:
            w = _block_solve(mat, shift, v, levels)
        except np.linalg.LinAlgError:
            w = None
        if w is None or not np.all(np.isfinite(w)):
            w = _block_solve(mat, shift + np.spacing(scale), v, levels)
        w /= np.max(np.abs(w))
        w /= np.linalg.norm(w)
        phase = np.vdot(v, w)
        if phase != 0:
            w *= phase.conjugate() / abs(phase)
        change = np.linalg.norm(w - v)
        v = w
        mv = mat @ v
        value = complex(np.vdot(v, mv))
        residual = float(np.linalg.norm(mv - value * v))
        if change <= rounding or residual <= rounding * scale:
            break
    return EigenPair(value=value, vector=v, residual=residual, scale=scale)


def _accept(pair: EigenPair, anchor: np.ndarray, where: str) -> float:
    """Gate a pair: first its overlap |anchor^H v| with a unit vector (> 0.5,
    else TrackingLostError), then its residual. Returns the overlap. The
    overlap goes first, so a lost branch reports as lost."""
    overlap = float(abs(np.vdot(anchor, pair.vector)))
    if overlap <= 0.5:
        raise TrackingLostError(f"overlap {overlap:.3f} <= 0.5{where}")
    _check_residual(pair.residual, pair.scale, where)
    return overlap


def eigenpair_near(op: np.ndarray, shift: complex, start: np.ndarray, *,
                   _levels: int = 1) -> EigenPair:
    """The one eigenpair of op whose eigenvalue is nearest shift, by inverse
    iteration from start.

    Each step is one solve of op - shift*I, stopped by the stall or a
    rounding-level residual (an exact eigenvalue as shift is stepped off by
    one rounding unit of |op|). The solve is one LU solve of the whole matrix;
    the sector callers (eigenstates) pass _levels = n_c, and the solve is then
    n_c small LU solves of the block-tridiagonal sector block (_block_solve).
    The eigenvalue is the Rayleigh quotient of the converged unit vector.
    Raises ValueError on non-finite entries,
    TrackingLostError when the pair found overlaps start by 0.5 or less
    (|start^H v| / |start|: it is another branch than the one start guessed),
    and then AccuracyError when the residual exceeds 1e-8 |op|_F, e.g. for a
    shift midway between two eigenvalues, where the iterate never settles."""
    pair = _inverse_iteration(op, shift, start, _levels)
    _accept(pair, start / np.linalg.norm(start), f" near eigenvalue {complex(shift):.6g}")
    return pair


def track_coherence(params: SystemParams, omega_c_grid, n_workers: int = 1) -> CoherenceTrack:
    """Follow the coherence eigenvalue along the drive grid.

    Only the (1, 0) qubit sector of Hu is built (liouville.sector_generator)
    and solved: Hu conserves n_al and n_ar, so the |1><0| eigenvector has no
    weight outside that block. Every vector stays in that block's basis.

    The bare qubit splitting enters that block only as delta_ad * I, so the
    block is solved in the frame delta_ad = 0 and delta_ad is added to the
    eigenvalue afterwards: the Stark shift and the dephasing keep their
    digits at any |delta_ad|.

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

    frame = replace(params, delta_ad=0.0)

    def solve(omega):
        shift, start = closed_form_eigenpair(frame, 1, 0, omega)
        return _inverse_iteration(sector_generator(frame, 1, 0, omega), shift, start,
                                  params.n_c)

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        pairs = list(pool.map(solve, grid[1:]))

    seed = np.zeros(params.n_c ** 2, dtype=complex)
    seed[0] = 1.0
    eigenvalues = [0j]  # in the frame
    overlaps = [1.0]
    vectors = [seed]
    for omega, pair in zip(grid[1:], pairs):
        overlaps.append(_accept(pair, vectors[-1], f" at omega_c = {omega} MHz"))
        eigenvalues.append(pair.value)
        vectors.append(pair.vector)

    photons = np.array([steady_state(params, w)[1] for w in grid])
    shifts = np.asarray(eigenvalues)
    return CoherenceTrack(omega_c=grid, eigenvalues=params.delta_ad + shifts, stark=shifts.real,
                          overlaps=np.asarray(overlaps), photons=photons, vectors=vectors)


def extract_rates(track: CoherenceTrack) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (stark, gamma_phi) in MHz from the tracked eigenvalue: the
    track's offset-free Re E - delta_ad, and -Im E."""
    return track.stark, -track.eigenvalues.imag


def write_track_csv(path, track: CoherenceTrack, header: bool = True,
                    extra_cols: dict[str, np.ndarray] | None = None) -> None:
    """Columns: omega_c_mhz, n_c_photons, re_E_mhz, im_E_mhz, stark_mhz,
    gamma_phi_mhz, overlap (plus any extra columns appended in order)."""
    stark, gamma = extract_rates(track)
    columns = {"omega_c_mhz": track.omega_c, "n_c_photons": track.photons,
               "re_E_mhz": track.eigenvalues.real, "im_E_mhz": track.eigenvalues.imag,
               "stark_mhz": stark, "gamma_phi_mhz": gamma, "overlap": track.overlaps}
    write_csv(path, {**columns, **(extra_cols or {})}, header=header)
