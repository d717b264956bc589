import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readoutmap import cli, spectra
from readoutmap.effective import effective_spectrum, rates
from readoutmap.eigenstates import (closed_form_eigenpair, exact_eigenvector, fidelity_sweep,
                                    perturbative_eigenstate)
from readoutmap.liouville import (AccuracyError, basis_index, build_extended_hamiltonian,
                                  sector_generator, sector_indices)
from readoutmap.model import SystemParams
from readoutmap.response import steady_state
from readoutmap.spectra import (STALL, TrackingLostError, _block_solve, _inverse_iteration,
                                eigendecompose, eigenpair_near, extract_rates, track_coherence,
                                write_track_csv)
from conftest import BENCH, PHOTON_TARGETS, omega_for_photon


def closed_form_zero_drive_spectrum(p: SystemParams):
    """Fock-diagonal eigenvalues at zero drive (independent oracle)."""
    vals = []
    for n_al in range(p.n_a):
        for n_cl in range(p.n_c):
            for n_ar in range(p.n_a):
                for n_cr in range(p.n_c):
                    vals.append(p.delta_ad * (n_al - n_ar)
                                + 0.5 * p.alpha_a * (n_al * (n_al - 1) - n_ar * (n_ar - 1))
                                + p.delta_cd * (n_cl - n_cr)
                                + 2.0 * p.chi_ac * (n_al * n_cl - n_ar * n_cr)
                                - 0.5j * p.kappa_c * (n_cl + n_cr))
    return np.array(vals)


def test_eigendecompose_diagonal():
    d = np.diag(np.array([1.0, -2.0, 3.5j], dtype=complex))
    es = eigendecompose(d)
    assert np.allclose(sorted(es.eigenvalues, key=lambda z: (z.real, z.imag)),
                       sorted(np.diag(d), key=lambda z: (z.real, z.imag)), atol=1e-14)
    assert np.max(es.residuals) < 1e-12


def test_eigendecompose_weakly_coupled_pair():
    eps = 1e-6
    es = eigendecompose(np.array([[0.0, 1.0], [eps, 0.0]], dtype=complex))
    got = np.sort(es.eigenvalues.real)
    assert got == pytest.approx([-np.sqrt(eps), np.sqrt(eps)], rel=1e-8)


def test_eigendecompose_rejects_nonfinite():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@settings(max_examples=40, deadline=None)
@given(n_a=st.sampled_from([2, 3]), n_c=st.integers(2, 8), omega=st.floats(0.0, 10.0),
       data=st.data())
def test_eigendecompose_matches_scipy_eig_on_sector_blocks(n_a, n_c, omega, data):
    import scipy.linalg  # reference solver only; the package does not load scipy here
    p = replace(BENCH, n_a=n_a, n_c=n_c)
    n_al, n_ar = (data.draw(st.integers(0, n_a - 1)) for _ in range(2))
    block = sector_generator(p, n_al, n_ar, omega)
    es = eigendecompose(block)
    w_ref, v_ref = scipy.linalg.eig(block)
    tol = 1e-9 * max(1.0, np.linalg.norm(block))
    assert max(float(np.min(np.abs(es.eigenvalues - e))) for e in w_ref) <= tol
    assert max(float(np.min(np.abs(w_ref - e))) for e in es.eigenvalues) <= tol
    v_ref = v_ref / np.linalg.norm(v_ref, axis=0)
    gate = 1e-8 * np.linalg.norm(block)
    assert np.max(es.residuals) <= gate
    assert np.max(np.linalg.norm(block @ v_ref - v_ref * w_ref, axis=0)) <= gate


def test_zero_drive_spectrum_matches_closed_form():
    p = SystemParams(-20.0, -5.0, -3.3, -1.0, 1.0, 2, 4)
    es = eigendecompose(build_extended_hamiltonian(p, 0.0))
    expected = closed_form_zero_drive_spectrum(p)
    # two-way nearest matching (the spectrum carries exact degeneracies)
    assert max(float(np.min(np.abs(es.eigenvalues - e))) for e in expected) < 1e-10
    assert max(float(np.min(np.abs(expected - e))) for e in es.eigenvalues) < 1e-10


@pytest.mark.parametrize("p, omega", [
    (SystemParams(-20.0, -5.0, -3.3, -1.0, 1.0, 2, 6), 4.0),
    # the benchmark qubit (far detuned, transmon anharmonicity) at 2 x 8
    (SystemParams(-2005.0, -5.0, -330.0, -1.0, 1.0, 2, 8), 5.0),
], ids=["2x6", "benchmark-qubit-2x8"])
def test_spectrum_pairing_and_zero_mode(p, omega):
    es = eigendecompose(build_extended_hamiltonian(p, omega))
    w = es.eigenvalues
    # closed under E -> -conj(E) (ket/bra exchange)
    worst = max(float(np.min(np.abs(w - (-np.conj(e))))) for e in w)
    assert worst < 1e-8
    assert float(np.min(np.abs(w))) < 1e-8


def test_sector_spectra_tile_the_full_spectrum():
    p = SystemParams(-20.0, -5.0, -3.3, -1.0, 1.0, 3, 4)
    hu = build_extended_hamiltonian(p, 4.0)
    full = eigendecompose(hu).eigenvalues
    blocks = np.concatenate([eigendecompose(hu[np.ix_(idx, idx)]).eigenvalues
                             for idx in (sector_indices(p, m, n)
                                         for m in range(p.n_a) for n in range(p.n_a))])
    assert blocks.size == full.size
    assert max(float(np.min(np.abs(full - e))) for e in blocks) <= 1e-9
    assert max(float(np.min(np.abs(blocks - e))) for e in full) <= 1e-9


def full_space_track(params, grid):
    """Overlap continuation over eigensolves of the whole doubled-space
    generator (reference for the sector-block tracking): eigenvalues and
    unit eigenvectors along the grid."""
    v_prev = np.zeros((params.n_a * params.n_c) ** 2, dtype=complex)
    v_prev[basis_index(params, 1, 0, 0, 0)] = 1.0
    eigenvalues, vectors = [complex(params.delta_ad)], [v_prev]
    for omega in grid[1:]:
        es = eigendecompose(build_extended_hamiltonian(params, omega))
        ov = np.abs(v_prev.conj() @ es.eigenvectors)
        j = int(np.argmax(ov))
        assert ov[j] > 0.5
        v_prev = es.eigenvectors[:, j]
        eigenvalues.append(es.eigenvalues[j])
        vectors.append(v_prev)
    return np.array(eigenvalues), vectors


def test_sector_tracking_matches_full_space_tracking(bench_track):
    track, _ = bench_track
    picks = [0] + [1 + PHOTON_TARGETS.index(n) for n in (0.5, 2.3, 4.0)]
    eigenvalues, vectors = full_space_track(BENCH, track.omega_c[picks])
    assert np.max(np.abs(eigenvalues - track.eigenvalues[picks])) <= 1e-9
    idx = sector_indices(BENCH, 1, 0)
    for i, v in zip(picks, vectors):
        assert abs(abs(np.vdot(v[idx], track.vectors[i])) - 1.0) <= 1e-9


def closed_form_coherence_eigenvalue(p: SystemParams, omega: float) -> complex:
    """|1><0| eigenvalue under constant drive in the polaron picture (Gambetta
    et al., PRA 77, 012112 (2008)): the eigenvector is the displaced product
    |1, alpha_1><0, alpha_0| with alpha_n = -(omega/2)/(delta_cd + 2 chi n - i kappa/2)."""
    a1, a0 = (-(omega / 2.0) / (p.delta_cd + 2.0 * p.chi_ac * n - 0.5j * p.kappa_c)
              for n in (1, 0))
    return p.delta_ad + (omega / 2.0) * (a1 - np.conj(a0)) + 1j * p.kappa_c * a1 * np.conj(a0)


def test_coherence_eigenvalue_matches_closed_form():
    # at 24 resonator levels the Fock truncation is negligible up to 4 photons
    # (the 2 x 14 benchmark deviates by 2.7e-3 MHz there)
    wide = replace(BENCH, n_c=24)
    grid = [0.0] + [omega_for_photon(wide, n) for n in (0.5, 2.0, 4.0)]
    track = track_coherence(wide, grid, n_workers=2)
    lam = np.array([closed_form_coherence_eigenvalue(wide, w) for w in grid])
    pert = np.array([wide.delta_ad + effective_spectrum(wide, 1, 0, n)
                     for n in track.photons])
    assert np.max(np.abs(lam - pert)) <= 1e-12
    assert np.max(np.abs(lam - track.eigenvalues)) <= 1e-8


def test_threaded_tracking_matches_serial_tracking():
    grid = [0.0] + [omega_for_photon(BENCH, n) for n in (0.1, 0.5, 1.2, 2.3, 4.0)]
    serial = track_coherence(BENCH, grid, n_workers=1)
    threaded = track_coherence(BENCH, grid, n_workers=2)
    assert np.max(np.abs(threaded.eigenvalues - serial.eigenvalues)) <= 1e-9
    assert np.max(np.abs(threaded.overlaps - serial.overlaps)) <= 1e-9
    assert np.array_equal(threaded.photons, serial.photons)


def test_track_requires_zero_start():
    with pytest.raises(ValueError, match="start at 0"):
        track_coherence(BENCH, [1.0, 2.0])


def test_track_zero_drive_is_exact():
    p = SystemParams(-20.0, -5.0, -3.3, -1.0, 1.0, 2, 4)
    track = track_coherence(p, [0.0])
    assert track.eigenvalues[0] == p.delta_ad + 0.0j
    assert track.overlaps[0] == 1.0
    assert track.vectors[0].shape == (p.n_c ** 2,)
    assert track.vectors[0][0] == 1.0  # |0_cl, 0_cr> of the (1, 0) block


def test_tracking_lost_on_absurd_jump():
    p = SystemParams(0.0, -1.0, 0.0, -1.0, 0.5, 2, 8)
    with pytest.raises(TrackingLostError):
        track_coherence(p, [0.0, 40.0])


def test_low_power_rate_slopes(bench_track):
    track, _ = bench_track
    stark, gamma = extract_rates(track)
    n = track.photons
    # per-photon slopes from the two lowest nonzero-drive points
    dgamma = (gamma[2] - gamma[1]) / (n[2] - n[1])
    dstark = (stark[2] - stark[1]) / (n[2] - n[1])
    assert dgamma == pytest.approx(0.0406091, rel=0.01)
    assert dstark == pytest.approx(-1.4314721, rel=0.01)
    assert np.all(gamma[1:] >= 0.0)
    assert gamma[0] == 0.0 and stark[0] == 0.0


def test_low_power_ratio_approaches_one(bench_track):
    track, _ = bench_track
    _, gamma = extract_rates(track)
    ratios = [gamma[i] / rates(BENCH, track.photons[i]).dephasing
              for i in range(1, len(track.photons))]
    # perturbative consistency improves toward zero drive
    assert abs(ratios[0] - 1.0) < 5e-4
    assert abs(ratios[0] - 1.0) <= abs(ratios[-1] - 1.0)


def pad_block_vector(vec, n_from, n_to):
    """Sector-block vector over (n_cl, n_cr) at n_from resonator levels,
    zero-padded to n_to levels."""
    out = np.zeros((n_to, n_to), dtype=complex)
    out[:n_from, :n_from] = vec.reshape(n_from, n_from)
    return out.ravel()


def test_truncation_convergence_of_tracked_eigenvalue(bench_track):
    # At the strongest drive (~4 photons) the tracked eigenvalue still moves
    # by 2.5e-3 MHz when going 14 -> 16 resonator levels, shrinking ~12x per
    # extra pair of levels (measured: 2.1e-4 at 16 -> 18, 1.3e-5 at 18 -> 20).
    # The benchmark's 5% dephasing tolerance is ~40x coarser than the
    # 14-level truncation error, so dims 2 x 14 are adequate for the sweep.
    track, _ = bench_track
    omega_top = track.omega_c[-1]
    moves = []
    vec = track.vectors[-1]
    prev_params = BENCH
    prev_eig = track.eigenvalues[-1]
    for n_c in (16, 18):
        wide = SystemParams(BENCH.delta_ad, BENCH.delta_cd, BENCH.alpha_a, BENCH.chi_ac,
                            BENCH.kappa_c, BENCH.n_a, n_c)
        padded = pad_block_vector(vec, prev_params.n_c, n_c)
        es = eigendecompose(sector_generator(wide, 1, 0, omega_top))
        j = int(np.argmax(np.abs(padded.conj() @ es.eigenvectors)))
        moves.append(abs(es.eigenvalues[j] - prev_eig))
        vec, prev_params, prev_eig = es.eigenvectors[:, j], wide, es.eigenvalues[j]
    assert moves[0] < 5e-3
    assert moves[1] < moves[0] / 5.0  # geometric truncation convergence


@settings(max_examples=60, deadline=None)
@given(n_a=st.sampled_from([2, 3]), n_c=st.integers(4, 10), photon=st.floats(0.0, 1.0),
       data=st.data())
def test_eigenpair_near_matches_the_dense_max_overlap_pair(n_a, n_c, photon, data):
    # blocked inverse iteration against the full dense spectrum of the same
    # block, the pair selected as the old sweeps did: by overlap with the
    # closed-form vector
    p = replace(BENCH, n_a=n_a, n_c=n_c)
    m, n = (data.draw(st.integers(0, n_a - 1)) for _ in range(2))
    omega = omega_for_photon(p, photon)
    block = sector_generator(p, m, n, omega)
    shift, start = closed_form_eigenpair(p, m, n, omega)
    pair = eigenpair_near(block, shift, start)
    ref = eigendecompose(block)
    j = int(np.argmax(np.abs(start.conj() @ ref.eigenvectors)))
    assert abs(pair.value - ref.eigenvalues[j]) <= 1e-9
    assert 1.0 - abs(np.vdot(pair.vector, ref.eigenvectors[:, j])) <= 1e-12
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-14)
    assert pair.residual <= 1e-8 * np.linalg.norm(block)


def solve_as_the_iteration_does(solve, shift, scale):
    """(shift, w) from solve(shift), moved by one rounding step of the block norm
    when the solve is singular or not finite, as _inverse_iteration moves it."""
    try:
        w = solve(shift)
    except np.linalg.LinAlgError:
        w = None
    if w is None or not np.all(np.isfinite(w)):
        shift = shift + np.spacing(scale)
        w = solve(shift)
    return shift, w


def backward_error(a, w, v):
    """Normwise backward error |a w - v| / (|a|_F |w| + |v|) of w as a solution of a w = v,
    from w and v divided by max|w| (a near-singular solve's |w| can overflow a norm)."""
    top = np.max(np.abs(w))
    w, v = w / top, v / top
    return np.linalg.norm(a @ w - v) / (np.linalg.norm(a) * np.linalg.norm(w) + np.linalg.norm(v))


@settings(max_examples=60, deadline=None)
@given(n_a=st.sampled_from([2, 3]), n_c=st.integers(2, 16), omega=st.floats(0.0, 20.1),
       kappa=st.just(0.0) | st.floats(0.05, 10.0), seed=st.integers(0, 2**32 - 1))
# the 2 x 14 benchmark point, undriven, at 5 MHz and at about 4 photons
@example(n_a=2, n_c=14, omega=0.0, kappa=1.0, seed=0)
@example(n_a=2, n_c=14, omega=5.0, kappa=1.0, seed=0)
@example(n_a=2, n_c=14, omega=20.0998, kappa=1.0, seed=0)
def test_block_solve_matches_the_dense_solve_of_the_shifted_block(n_a, n_c, omega, kappa, seed):
    # every sector, shifted by its closed-form eigenvalue (the near-singular solve of a
    # sweep). Measured normwise backward error over 34k draws of these ranges, with
    # shifts also moved off the eigenvalue: dense LU <= 1.2e-16; the block solve
    # <= 6.2e-16 at kappa > 0, and at kappa = 0 (a Hermitian block, so a Schur
    # complement can come near singular with no pivoting between blocks) a tail up
    # to 3.2e-12, 2 draws in 17k above 1e-12
    p = replace(BENCH, n_a=n_a, n_c=n_c, kappa_c=kappa)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n_c**2) + 1j * rng.normal(size=n_c**2)
    bound = 1e-14 if kappa > 0 else 1e-10
    eye = np.eye(n_c**2)
    for m in range(n_a):
        for n in range(n_a):
            block = sector_generator(p, m, n, omega)
            shift, _ = closed_form_eigenpair(p, m, n, omega)
            scale = np.linalg.norm(block)
            dense = solve_as_the_iteration_does(
                lambda s: np.linalg.solve(block - s * eye, v), shift, scale)
            blocked = solve_as_the_iteration_does(
                lambda s: _block_solve(block, s, v, n_c), shift, scale)
            for s, w in (dense, blocked):
                assert backward_error(block - s * eye, w, v) <= bound
            assert backward_error(block - dense[0] * eye, dense[1], v) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(n_a=st.sampled_from([2, 3]), n_c=st.integers(2, 16), omega=st.floats(0.0, 20.1),
       kappa=st.floats(0.05, 10.0))
@example(n_a=2, n_c=14, omega=0.0, kappa=1.0)
@example(n_a=2, n_c=14, omega=5.0, kappa=1.0)
@example(n_a=2, n_c=14, omega=20.0998, kappa=1.0)
def test_sector_eigenpair_matches_the_one_block_path(n_a, n_c, omega, kappa):
    # eigenpair_near on the sector blocks, solved over their n_c ket levels and as one
    # dense block: the same pair (measured over 3000 draws: values within 4.9e-16 |M|,
    # 1 - |overlap| <= 5.6e-16), or the same gate fails on both
    p = replace(BENCH, n_a=n_a, n_c=n_c, kappa_c=kappa)
    for m in range(n_a):
        for n in range(n_a):
            block = sector_generator(p, m, n, omega)
            shift, start = closed_form_eigenpair(p, m, n, omega)
            try:
                dense = eigenpair_near(block, shift, start)
            except (TrackingLostError, AccuracyError) as err:
                with pytest.raises(type(err)):
                    eigenpair_near(block, shift, start, _levels=n_c)
                continue
            pair = eigenpair_near(block, shift, start, _levels=n_c)
            assert abs(pair.value - dense.value) <= 1e-12 * dense.scale
            assert 1.0 - abs(np.vdot(pair.vector, dense.vector)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(n_a=st.sampled_from([2, 3]), n_c=st.integers(2, 16), omega=st.floats(0.01, 20.1))
# (omega / 2 d_k)^2 near an integer, d_k = delta_cd + 2 chi_ac k: the block LU, which does not
# pivot between levels, ended 18-1.2e5 times above the residual bound on sector (k, k)
@example(n_a=2, n_c=12, omega=10.0)                 # sector (0, 0)
@example(n_a=2, n_c=14, omega=10.0)
@example(n_a=2, n_c=15, omega=10.0)
@example(n_a=2, n_c=12, omega=10.000001)
@example(n_a=2, n_c=15, omega=10.000001)
@example(n_a=2, n_c=14, omega=14.142135623730951)  # 10 sqrt(2)
@example(n_a=2, n_c=15, omega=14.142135623730951)
@example(n_a=2, n_c=14, omega=14.0)                 # sector (1, 1)
@example(n_a=2, n_c=15, omega=14.0)
def test_undamped_diagonal_sector_gives_an_eigenvector_of_its_degenerate_eigenspace(
        n_a, n_c, omega):
    # at kappa = 0 a diagonal sector is h (x) 1 - 1 (x) h*, whose eigenvalue 0 is n_c-fold
    # degenerate; the block and the one-block solves each return some vector of that
    # eigenspace (they differed in all 150 measured draws), each at a rounding-level
    # residual and with the same eigenvalue. Ungated: at a small n_c the closed-form
    # start can overlap the pair found by 0.5 or less
    p = replace(BENCH, n_a=n_a, n_c=n_c, kappa_c=0.0)
    for k in range(n_a):
        block = sector_generator(p, k, k, omega)
        shift, start = closed_form_eigenpair(p, k, k, omega)
        dense = _inverse_iteration(block, shift, start)
        pair = _inverse_iteration(block, shift, start, n_c)
        assert pair.residual <= STALL * np.finfo(float).eps * n_c * pair.scale
        assert abs(pair.value - dense.value) <= 1e-12 * dense.scale


def test_closed_form_eigenpair_matches_the_polaron_eigenvalue():
    for omega in (0.0, 3.2, 11.0, 20.1):
        lam, _ = closed_form_eigenpair(BENCH, 1, 0, omega)
        assert abs(lam - closed_form_coherence_eigenvalue(BENCH, omega)) <= 1e-12


def test_closed_form_eigenvector_residual_falls_with_truncation():
    # Fock truncation is all that separates the closed-form pair from an
    # eigenpair (measured at 11 MHz: 1.4e-4 at n_c = 14, 1.6e-10 at 24)
    residuals = []
    for n_c in (14, 18, 24):
        p = replace(BENCH, n_c=n_c)
        lam, v = closed_form_eigenpair(p, 1, 0, 11.0)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        residuals.append(np.linalg.norm(sector_generator(p, 1, 0, 11.0) @ v - lam * v))
    assert residuals[0] <= 2e-4
    assert residuals[1] < residuals[0] / 100.0
    assert residuals[2] < residuals[1] / 100.0
    assert residuals[2] <= 3e-10


@pytest.mark.parametrize("m, n", [(m, n) for m in range(3) for n in range(3)])
def test_dense_block_eigenvalue_converges_to_the_closed_form(m, n):
    # every sector of n_a = 3 at ~4 photons (20.0998 MHz): only Fock truncation
    # separates the nearest block eigenvalue from the closed form. Measured
    # |dE| / |Im E| at n_c = 10, 14, 18: 0.88, 1.67e-2, 8.37e-5 for (1,0);
    # 0.374, 6.96e-3, 3.49e-5 for (2,0); 4.84e-2, 5.60e-5, 1.83e-8 for (2,1);
    # the mirrored sectors alike, and |dE| <= 8e-14 on the diagonal
    p3 = replace(BENCH, n_a=3)
    omega = omega_for_photon(p3, 4.0)
    gaps = []
    for n_c in (10, 14, 18):
        p = replace(p3, n_c=n_c)
        lam, _ = closed_form_eigenpair(p, m, n, omega)
        w = np.linalg.eigvals(sector_generator(p, m, n, omega))
        gap = float(np.min(np.abs(w - lam)))
        gaps.append(gap if m == n else gap / abs(lam.imag))
    if m == n:
        assert max(gaps) <= 2e-13
    else:
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 2e-4


def test_eigenpair_near_at_an_exactly_singular_shift():
    # zero drive: the block is diagonal and the closed-form eigenvalue is its
    # entry to the last bit, so block - shift*I cannot be factored as it is
    p = SystemParams(-20.0, -5.0, -3.3, -1.0, 1.0, 2, 4)
    block = sector_generator(p, 1, 0, 0.0)
    shift, start = closed_form_eigenpair(p, 1, 0, 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(block - shift * np.eye(block.shape[0]))
    pair = eigenpair_near(block, shift, start)
    expect = np.zeros(p.n_c ** 2, dtype=complex)
    expect[0] = 1.0
    assert np.array_equal(pair.vector, expect)
    assert pair.value == p.delta_ad and pair.residual == 0.0


def test_block_solve_near_an_exact_eigenvalue_raises_no_numpy_warning():
    # at a drive of 1e-200 MHz the benchmark block is diagonal to rounding and its
    # closed-form eigenvalue exact, so the first block solve overflows at a rounding-level
    # pivot and its back substitution turns that infinity into NaNs; the re-solve off the
    # shift gives the pair
    block = sector_generator(BENCH, 1, 0, 1e-200)
    shift, start = closed_form_eigenpair(BENCH, 1, 0, 1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = eigenpair_near(block, shift, start, _levels=BENCH.n_c)
    assert np.all(np.isfinite(pair.vector)) and pair.residual == 0.0


def test_eigenpair_near_rejects_a_shift_midway_between_eigenvalues():
    # equidistant eigenvalues: the iterate swaps its relative sign every step
    # and never settles on either eigenvector
    with pytest.raises(AccuracyError, match="residual"):
        eigenpair_near(np.diag([1.0, 3.0]).astype(complex), 2.0, np.array([1.0, 0.5]))


def test_eigenpair_near_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        eigenpair_near(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1.0, np.array([0.0, 1.0]))


def test_lost_branch_is_reported_before_the_residual_gate():
    # at the absurd jump the pair near the closed-form eigenvalue fails both
    # gates; tracking reports the lost branch, not the residual
    p = SystemParams(0.0, -1.0, 0.0, -1.0, 0.5, 2, 8)
    block = sector_generator(p, 1, 0, 40.0)
    shift, start = closed_form_eigenpair(p, 1, 0, 40.0)
    pair = _inverse_iteration(block, shift, start)
    assert abs(pair.vector[0]) <= 0.5  # overlap with the zero-drive vector
    assert pair.residual > 1e-8 * np.linalg.norm(block)
    with pytest.raises(TrackingLostError, match="at omega_c = 40.0 MHz"):
        track_coherence(p, [0.0, 40.0])
    with pytest.raises(TrackingLostError, match="near eigenvalue"):
        eigenpair_near(block, shift, start)


def test_weak_drive_tracking_takes_one_solve_per_point(monkeypatch):
    # from the closed-form start the first iterate's residual is already at rounding
    # level, so no second inverse-iteration step is taken only to see the iterate stop
    # changing; each step is one solve of the 196 x 196 block over its 14 ket levels
    steps, solve = [], _block_solve

    def spy(mat, shift, v, levels):
        steps.append((mat.shape, levels))
        return solve(mat, shift, v, levels)

    monkeypatch.setattr(spectra, "_block_solve", spy)
    grid = [0.0] + [omega_for_photon(BENCH, n) for n in (0.05, 0.1, 0.2, 0.35, 0.5)]
    assert track_coherence(BENCH, grid, n_workers=2).eigenvalues.size == 6
    assert steps == [((196, 196), 14)] * 5


def test_sector_solves_see_no_matrix_larger_than_one_ket_level(monkeypatch):
    # tracking, the fidelity sweep and exact_eigenvector solve the 196 x 196 block at
    # 2 x 14 as 14 x 14 solves, one per ket level
    shapes, solve = [], np.linalg.solve

    def spy(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    grid = [0.0] + [omega_for_photon(BENCH, n) for n in PHOTON_TARGETS]
    assert track_coherence(BENCH, grid, n_workers=2).eigenvalues.size == 13
    assert len(fidelity_sweep(BENCH, [0.5, 5.0])) == 6
    state = perturbative_eigenstate((1, 0), BENCH, steady_state(BENCH, 5.0)[0], 2)
    assert exact_eigenvector(state, BENCH, 5.0).shape == (196,)
    assert shapes and set(shapes) == {(14, 14)}


def test_strongest_shipped_drive_ends_at_a_rounding_level_residual():
    # 20.0998 MHz, about 4 photons, the last point of configs/benchmark_eig.json (whose
    # system is BENCH) takes three solves. The full-inverse iteration gave
    # -2010.7234629755892 - 0.1612859065454586j there; the solves are within 7e-13 MHz
    # of it with 1 and 2 BLAS threads
    shift, start = closed_form_eigenpair(BENCH, 1, 0, 20.0998)
    pair = eigenpair_near(sector_generator(BENCH, 1, 0, 20.0998), shift, start)
    assert pair.residual <= STALL * np.finfo(float).eps * np.sqrt(start.size) * pair.scale
    assert abs(pair.value - (-2010.7234629755892 - 0.1612859065454586j)) <= 5e-12


def test_product_paths_never_run_a_full_eigensolve(monkeypatch, tmp_path):
    # tracking and the fidelity sweep solve for their one pair only, by one
    # block-tridiagonal solve per step, and validate solves nothing; eigendecompose
    # (zgeev) is the dense reference of the tests and the benchmark harness
    def full_solve(*args, **kwargs):
        raise AssertionError("full eigendecomposition or inverse run")

    monkeypatch.setattr(np.linalg, "eig", full_solve)
    monkeypatch.setattr(np.linalg, "inv", full_solve)
    p = SystemParams(-20.0, -5.0, -3.3, -1.0, 1.0, 2, 6)
    assert track_coherence(p, [0.0, 0.5, 1.0], n_workers=2).eigenvalues.size == 3
    assert len(fidelity_sweep(p, [0.0, 0.5, 1.0])) == 9
    cfg = tmp_path / "every_section.json"
    cfg.write_text(json.dumps({
        "delta_ad_mhz": p.delta_ad, "delta_cd_mhz": p.delta_cd, "alpha_a_mhz": p.alpha_a,
        "chi_ac_mhz": p.chi_ac, "kappa_c_mhz": p.kappa_c, "n_a": p.n_a, "n_c": p.n_c,
        "pulse": {"kind": "constant", "omega_c_mhz": 1.0},
        "rates_sweep": {"delta_cd_start_mhz": -2.0, "delta_cd_stop_mhz": 2.0, "points": 5},
        "benchmark_eig": {"omega_c_grid_mhz": [0.0, 0.5, 1.0]},
        "transient": {"dt_ns": 0.5, "t_end_ns": 200.0},
        "spectrum_grid": {"photon": 1.0, "levels": 2},
        "propagate": {"dt_ns": 0.05, "t_end_ns": 200.0, "sample_every": 400},
        "compare_gambetta": {"delta_cd_start_mhz": -12.0, "delta_cd_stop_mhz": 8.0,
                             "points": 5}}))
    report = tmp_path / "report.json"
    assert cli.main(["validate", "--config", str(cfg), "--out", str(report)]) == 0
    # the five rules of these sections: propagate has no truncation rule
    assert len(json.loads(report.read_text())["checks"]) == 5


def test_track_csv(tmp_path, bench_track):
    track, _ = bench_track
    out = tmp_path / "track.csv"
    write_track_csv(out, track)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("omega_c_mhz,n_c_photons,re_E_mhz,im_E_mhz,stark_mhz")
    assert len(lines) == track.omega_c.size + 1
    first_row = lines[1].split(",")
    assert float(first_row[0]) == 0.0 and float(first_row[5]) == 0.0
    # the strongest drive row is labeled with ~4 steady photons
    last_row = lines[-1].split(",")
    assert abs(float(last_row[1]) - 4.0) < 1e-9
