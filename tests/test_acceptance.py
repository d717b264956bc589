"""Acceptance suite: each test prints a single PASS/FAIL line for its
criterion and then asserts it, at the tolerances fixed below.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np
import pytest

from readoutmap.effective import (adiabatic_correlations, choi_cptp_check, dephasing_choi,
                                  effective_map_apply, effective_spectrum, gambetta_rates,
                                  rates, spectrum_matrix)
from readoutmap.liouville import (VectorizedState, build_extended_hamiltonian, propagate,
                                  qubit_block, vectorize)
from readoutmap.model import PulseSpec, SystemParams
from readoutmap.response import solve_eta, steady_state
from readoutmap.spectra import extract_rates
from readoutmap.transient import adiabatic_series_A, fourier_A
from conftest import BENCH
from fullspace import CollapseTerm, build_superoperator, kerr_hamiltonian, single_copy_operators


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_vectorization_oracle():
    t0 = time.perf_counter()
    small = SystemParams(-20.0, -5.0, -3.3, -1.0, 1.0, 2, 5)
    m = small.n_a * small.n_c
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(5):
        h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        h = (h + h.conj().T) / 2.0
        c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        gamma = float(rng.uniform(0.1, 2.0))
        eye = np.eye(m)
        doubled = (np.kron(h, eye) - np.kron(eye, h.conj())
                   + 1j * gamma * (np.kron(c, c.conj())
                                   - 0.5 * np.kron(c.conj().T @ c, eye)
                                   - 0.5 * np.kron(eye, (c.conj().T @ c).T)))
        sup = build_superoperator(h, [CollapseTerm(gamma, c)])
        worst = max(worst, float(np.max(np.abs(sup - (-1j) * doubled))))
    hu = build_extended_hamiltonian(small, 7.0)
    _, c_op = single_copy_operators(small)
    sup = build_superoperator(2.0 * np.pi * kerr_hamiltonian(small, 7.0),
                              [CollapseTerm(2.0 * np.pi * small.kappa_c, c_op)])
    worst = max(worst, float(np.max(np.abs(-2j * np.pi * hu - sup))))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"max elementwise diff {worst:.2e} (tol 1e-12), {elapsed:.2f} s (cap 1 s)")


def test_criterion_02_response_solver():
    t0 = time.perf_counter()
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 1.0, 2, 4)
    traj = solve_eta(p, PulseSpec("constant", 7.0), t_end=2000.0, dt=0.1)
    eta_ss, _ = steady_state(p, 7.0)
    beta = (2j * np.pi * p.delta_cd + np.pi * p.kappa_c) * 1e-3
    exact = eta_ss * (1.0 - np.exp(-beta * traj.times))
    err = float(np.max(np.abs(traj.eta - exact)))

    p5 = SystemParams(0.0, -5.0, 0.0, -1.0, 5.0, 2, 4)
    sg = PulseSpec("square-gaussian", 50.0, tau_p=1000.0, tau_r=100.0, sigma_r=50.0)
    ring = solve_eta(p5, sg, t_end=1500.0, dt=0.1)
    sel = ring.times > 1050.0
    slope = np.polyfit(ring.times[sel], np.log(ring.photon[sel]), 1)[0]
    kappa_fit = -slope / (2.0 * np.pi * 1e-3)
    elapsed = time.perf_counter() - t0
    report(2, err < 1e-8 and abs(kappa_fit / 5.0 - 1.0) < 0.01 and elapsed < 1.0,
           f"step-drive max err {err:.2e} (tol 1e-8), "
           f"decay fit {kappa_fit:.4f} MHz vs 5 (tol 1%), {elapsed:.2f} s (cap 1 s)")


def test_criterion_03_photon_calibration():
    cross = SystemParams(-2050.0, -50.0, -330.0, -1.0, 5.0, 2, 6)
    _, n_ss = steady_state(cross, 14.2)
    omega4 = 2.0 * np.sqrt(4.0 * (BENCH.delta_cd**2 + (BENCH.kappa_c / 2.0) ** 2))
    _, n_check = steady_state(BENCH, omega4)
    report(3, abs(n_ss - 0.0201) < 5e-4 and abs(omega4 - 20.1) < 0.1
           and abs(n_check - 4.0) < 1e-9,
           f"n_ss {n_ss:.5f} (0.0201 +- 5e-4), omega for 4 photons {omega4:.4f} MHz (20.1 +- 0.1)")


def test_criterion_04_gambetta_equivalence():
    chi, kappa, omega = -2.0, 1.0, 10.0
    worst = 0.0
    for d in np.linspace(-12.0, 8.0, 100):
        ours_p = SystemParams(0.0, float(d), 0.0, chi, kappa, 2, 2)
        shifted = SystemParams(0.0, float(d) + chi, 0.0, chi, kappa, 2, 2)
        n_ground = (omega / 2.0) ** 2 / (d**2 + (kappa / 2.0) ** 2)
        ours = rates(ours_p, n_ground).dephasing
        worst = max(worst, abs(gambetta_rates(shifted, omega) / ours - 1.0))
    report(4, worst < 1e-12, f"max relative mismatch {worst:.2e} on 100 points (tol 1e-12)")


def test_criterion_05_eigenvalue_benchmark(bench_track):
    track, elapsed = bench_track
    _, gamma = extract_rates(track, BENCH)
    photons = track.photons
    ratios = gamma[1:] / np.array([rates(BENCH, n).dephasing for n in photons[1:]])
    low = photons[1:] <= 0.5
    in_band = bool(np.all((ratios[low] >= 0.95) & (ratios[low] <= 1.05)))
    dev_high = np.abs(ratios[~low] - 1.0)
    monotone = bool(np.all(np.diff(dev_high) > 0))
    report(5, in_band and monotone and elapsed < 120.0,
           f"low-power ratios in [{ratios[low].min():.5f}, {ratios[low].max():.5f}] "
           f"(band [0.95, 1.05]); deviation monotone above 0.5 photons: {monotone}; "
           f"sweep {elapsed:.0f} s (cap 120 s)")


def test_criterion_06_spectrum_properties():
    rng = np.random.default_rng(2026)
    ok = True
    for _ in range(500):
        p = SystemParams(0.0, float(rng.uniform(-60, 60)), 0.0,
                         float(rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0])),
                         float(rng.uniform(0.05, 10.0)), 4, 2)
        photon = float(rng.uniform(1e-3, 20.0))
        m, n = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        e_mn = effective_spectrum(p, m, n, photon)
        e_nm = effective_spectrum(p, n, m, photon)
        if m == n:
            ok &= e_mn == 0.0
        else:
            ok &= abs(e_mn + np.conj(e_nm)) <= 1e-12 * max(1.0, abs(e_mn))
            ok &= e_mn.imag < 0.0
    report(6, ok, "500 draws: E_nn = 0 exactly, antisymmetry <= 1e-12, Im E < 0 off-diagonal")


def test_criterion_07_cptp():
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 1.0, 3, 2)
    min_eigs = [choi_cptp_check(p, 10.0, t_us, levels=3) for t_us in (0.01, 0.1, 1.0)]
    mutant = spectrum_matrix(p, 3, 10.0).conj()
    mutant_min = float(np.linalg.eigvalsh(dephasing_choi(mutant, 0.1)).min())
    ok = min(min_eigs) >= -1e-10 and mutant_min < -1e-6
    report(7, ok, f"Choi min eig {min(min_eigs):.2e} (tol -1e-10); "
                  f"sign-flipped mutant {mutant_min:.2e} < 0 detected")


def test_criterion_08_transient_consistency(step_drive_run, flat_top_run):
    params, pulse, traj, corr = step_drive_run
    _, n_ss = steady_state(params, pulse.omega_c)
    i = int(round(10.0 / params.kappa_c * 1e3 / traj.dt))
    ad = adiabatic_correlations(params, 1, 0, n_ss)
    rel = [abs(series[(1, 0)][i] - val) / abs(val) for series, val in
           zip((corr.a_ll, corr.a_rr, corr.b_lr, corr.c_lr), ad)]
    const_ok = max(rel) < 1e-6

    p5, sg, traj5, corr5 = flat_top_run
    ref = corr5.a_ll[(1, 0)]
    ramps = ((traj5.times >= 0.0) & (traj5.times <= sg.tau_r)) | \
            ((traj5.times >= sg.tau_p - sg.tau_r) & (traj5.times <= sg.tau_p))
    err0 = float(np.max(np.abs(adiabatic_series_A(traj5, p5, 1, 0)[ramps] - ref[ramps])))
    err2 = float(np.max(np.abs(adiabatic_series_A(traj5, p5, 1, 2)[ramps] - ref[ramps])))

    n_freq = 1 << int(np.ceil(np.log2(4 * traj5.times.size)))
    af = fourier_A(traj5, p5, 1, n_freq)
    window = (traj5.times >= 2 * sg.tau_r) & (traj5.times <= sg.tau_p - 2 * sg.tau_r)
    fourier_rel = float(np.max(np.abs(af[window] - ref[window])) / np.max(np.abs(ref[window])))

    ok = const_ok and err2 < err0 and fourier_rel < 1e-3
    report(8, ok, f"constant-drive rel err {max(rel):.2e} (tol 1e-6); "
                  f"ramp error order-2 {err2:.2e} < order-0 {err0:.2e}; "
                  f"Fourier vs time-domain {fourier_rel:.2e} (tol 1e-3)")


def test_criterion_09_full_versus_effective_map():
    t0 = time.perf_counter()
    p = SystemParams(0.0, -10.0, 0.0, -1.0, 5.0, 2, 10)
    target_photon = 0.1
    omega = 2.0 * np.sqrt(target_photon * (p.delta_cd**2 + (p.kappa_c / 2.0) ** 2))
    pulse = PulseSpec("constant", omega)
    gamma = rates(p, target_photon).dephasing
    t_end = 3.0 / (2.0 * np.pi * gamma) * 1e3  # three dephasing times, ns
    dt = 0.02

    plus = np.zeros(p.n_a * p.n_c, dtype=complex)
    plus[0] = plus[p.n_c] = 1.0 / np.sqrt(2.0)
    rho0 = np.outer(plus, plus.conj())
    state0 = VectorizedState(vec=vectorize(rho0))
    result = propagate(state0, p, pulse, t_end, dt, sample_every=2000)
    coh_full = np.abs(qubit_block(result.blocks)[:, 1, 0])

    out_t = np.asarray(result.times)
    traj = solve_eta(p, pulse, t_end, dt * 2000 / 128)
    photon = traj.photon[np.rint(out_t / traj.dt).astype(int)]
    rho_q0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    coh_eff = np.abs(effective_map_apply(rho_q0, p, photon, out_t)[:, 1, 0])
    rel = float(np.max(np.abs(coh_full - coh_eff) / coh_eff))
    elapsed = time.perf_counter() - t0
    report(9, rel < 0.03 and elapsed < 60.0,
           f"max |rho_10| relative deviation {rel:.4f} over 3 dephasing times "
           f"(tol 0.03) at ~{target_photon} photons, dims 2x10; {elapsed:.0f} s (cap 60 s)")


def test_criterion_10_eigenstate_ordering(eigenstate_rows):
    rows = eigenstate_rows
    omegas = sorted({r["omega_c_mhz"] for r in rows})
    by_point = {(r["omega_c_mhz"], r["order"]): r["infidelity"] for r in rows}
    ordered = all(by_point[(w, 2)] < by_point[(w, 1)] < by_point[(w, 0)] for w in omegas)
    inf0 = np.array([by_point[(w, 0)] for w in omegas])
    slope = float(np.polyfit(np.log(omegas), np.log(inf0), 1)[0])
    report(10, ordered and abs(slope - 2.0) <= 0.4,
           f"order-2 < order-1 < order-0 at all {len(omegas)} points: {ordered}; "
           f"order-0 log-log slope {slope:.3f} (2.0 +- 0.4)")
