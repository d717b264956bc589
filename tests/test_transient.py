import numpy as np
import pytest

from readoutmap.effective import adiabatic_correlations, effective_spectrum
from readoutmap.model import PulseSpec, SystemParams
from readoutmap.response import solve_eta, steady_state
from readoutmap.transient import (adiabatic_series_A, correlations_timedomain,
                                  effective_generator_timedep, fourier_A, write_transient_csv)

CROSSTALK = SystemParams(delta_ad=-2050.0, delta_cd=-50.0, alpha_a=-330.0,
                         chi_ac=-1.0, kappa_c=5.0, n_a=2, n_c=6)
SLOW_PULSE = PulseSpec("square-gaussian", omega_c=14.2, tau_p=1000.0, tau_r=100.0, sigma_r=50.0)


def test_zero_drive_gives_zero_series():
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 2)
    traj = solve_eta(p, PulseSpec("constant", 0.0), 200.0, 0.5)
    corr = correlations_timedomain(traj, p, [(1, 0)])
    gen = effective_generator_timedep(corr, traj, p, [(1, 0)])
    assert np.all(corr.a_ll[(1, 0)] == 0.0)
    assert np.all(corr.b_lr[(1, 0)] == 0.0)
    assert np.all(gen.values[(1, 0)] == 0.0)


def test_series_start_at_zero(flat_top_run):
    _, _, traj, corr = flat_top_run
    for pair in corr.pairs:
        assert corr.a_ll[pair][0] == 0.0
        assert corr.a_rr[pair][0] == 0.0
        assert corr.b_lr[pair][0] == 0.0
        assert corr.c_lr[pair][0] == 0.0


def test_conjugation_between_copies(flat_top_run):
    _, _, _, corr = flat_top_run
    gap = np.max(np.abs(corr.a_rr[(1, 1)] - np.conj(corr.a_ll[(1, 1)])))
    assert gap < 1e-10


def test_step_drive_reaches_adiabatic_values(step_drive_run):
    params, pulse, traj, corr = step_drive_run
    _, n_ss = steady_state(params, pulse.omega_c)
    i = int(round(10.0 / params.kappa_c * 1e3 / traj.dt))
    a_ad, a_rr_ad, b_ad, c_ad = adiabatic_correlations(params, 1, 0, n_ss)
    assert abs(corr.a_ll[(1, 0)][i] - a_ad) / abs(a_ad) < 1e-6
    assert abs(corr.a_rr[(1, 0)][i] - a_rr_ad) / abs(a_rr_ad) < 1e-6
    assert abs(corr.b_lr[(1, 0)][i] - b_ad) / abs(b_ad) < 1e-6
    assert abs(corr.c_lr[(1, 0)][i] - c_ad) / abs(c_ad) < 1e-6


def test_generator_plateau_matches_adiabatic_spectrum(step_drive_run):
    params, pulse, traj, corr = step_drive_run
    gen = effective_generator_timedep(corr, traj, params, [(1, 0), (1, 1)])
    _, n_ss = steady_state(params, pulse.omega_c)
    i = int(round(10.0 / params.kappa_c * 1e3 / traj.dt))
    expected = effective_spectrum(params, 1, 0, n_ss).value
    assert abs(gen.values[(1, 0)][i] - expected) / abs(expected) < 1e-6
    assert abs(gen.values[(1, 1)][i]) < 1e-9 * abs(expected)


def test_grid_refinement(step_drive_run):
    params, pulse, traj, corr = step_drive_run
    fine = solve_eta(params, pulse, traj.times[-1], traj.dt / 2.0)
    corr_fine = correlations_timedomain(fine, params, [(1, 0)])
    for name, series in (("a_ll", corr.a_ll), ("b_lr", corr.b_lr), ("c_lr", corr.c_lr)):
        coarse = series[(1, 0)]
        refined = getattr(corr_fine, name)[(1, 0)][::2]
        scale = np.max(np.abs(coarse))
        assert np.max(np.abs(refined - coarse)) / scale < 1e-6, name


def test_adiabatic_series_constant_drive(step_drive_run):
    params, pulse, traj, corr = step_drive_run
    i = int(round(10.0 / params.kappa_c * 1e3 / traj.dt))
    _, n_ss = steady_state(params, pulse.omega_c)
    a_ad, _, _, _ = adiabatic_correlations(params, 1, 0, n_ss)
    s0 = adiabatic_series_A(traj, params, 1, 0)
    s1 = adiabatic_series_A(traj, params, 1, 1)
    s2 = adiabatic_series_A(traj, params, 1, 2)
    # derivatives vanish in steady state: all orders coincide with the plateau value
    assert abs(s0[i] - a_ad) / abs(a_ad) < 1e-10
    assert abs(s1[i] - s0[i]) < 1e-12
    assert abs(s2[i] - s0[i]) < 1e-12
    with pytest.raises(ValueError):
        adiabatic_series_A(traj, params, 1, 3)


def test_adiabatic_series_improves_on_ramps(flat_top_run):
    params, pulse, traj, corr = flat_top_run
    reference = corr.a_ll[(1, 0)]
    s0 = adiabatic_series_A(traj, params, 1, 0)
    s2 = adiabatic_series_A(traj, params, 1, 2)
    ramps = ((traj.times >= 0.0) & (traj.times <= pulse.tau_r)) | \
            ((traj.times >= pulse.tau_p - pulse.tau_r) & (traj.times <= pulse.tau_p))
    err0 = np.max(np.abs(s0[ramps] - reference[ramps]))
    err2 = np.max(np.abs(s2[ramps] - reference[ramps]))
    assert err2 < err0


def test_fourier_route_agrees_with_time_domain(flat_top_run):
    params, pulse, traj, corr = flat_top_run
    n_freq = 1 << int(np.ceil(np.log2(4 * traj.times.size)))
    af = fourier_A(traj, params, 1, n_freq)
    window = (traj.times >= 2 * pulse.tau_r) & (traj.times <= pulse.tau_p - 2 * pulse.tau_r)
    ref = corr.a_ll[(1, 0)]
    rel = np.max(np.abs(af[window] - ref[window])) / np.max(np.abs(ref[window]))
    assert rel < 1e-3


def test_fourier_single_tone_closed_form():
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 2)
    n = 16384
    dt = 0.1
    times = np.arange(n) * dt
    k_bin = 7
    f0 = k_bin / (n * dt) * 1e3  # MHz, exactly on an FFT bin
    tone = np.exp(2j * np.pi * f0 * 1e-3 * times)
    from readoutmap.response import ResonatorTrajectory
    traj = ResonatorTrajectory(times=times, eta=tone,
                               eta_d1=2j * np.pi * f0 * 1e-3 * tone,
                               eta_d2=(2j * np.pi * f0 * 1e-3) ** 2 * tone,
                               eta_d3=(2j * np.pi * f0 * 1e-3) ** 3 * tone,
                               pulse=PulseSpec("constant", 1.0))
    af = fourier_A(traj, p, 1, n)  # periodic tone: no padding
    d1 = p.delta_cd - 0.5j * p.kappa_c + 2.0 * p.chi_ac
    exact = (2.0 * f0 + 2.0 * d1) / (2.0 * (f0 + d1) ** 2)
    assert abs(af[n // 2] - exact) / abs(exact) < 1e-6


def test_fourier_zero_input():
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 2)
    traj = solve_eta(p, PulseSpec("constant", 0.0), 100.0, 0.5)
    assert np.all(fourier_A(traj, p, 1, 1024) == 0.0)


def test_fourier_validation():
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 2)
    traj = solve_eta(p, PulseSpec("constant", 1.0), 100.0, 0.5)
    with pytest.raises(ValueError, match="power of two"):
        fourier_A(traj, p, 1, 300)
    with pytest.raises(ValueError, match="cover"):
        fourier_A(traj, p, 1, 64)
    coarse = solve_eta(p, PulseSpec("constant", 1.0), 1000.0, 1.5)
    big_detuning = SystemParams(0.0, -300.0, 0.0, -1.0, 2.0, 2, 2)
    with pytest.raises(ValueError, match="band edge"):
        fourier_A(coarse, big_detuning, 1, 2048)


def test_crosstalk_generator_follows_photon_number():
    traj = solve_eta(CROSSTALK, SLOW_PULSE, 1300.0, 0.1)
    corr = correlations_timedomain(traj, CROSSTALK, [(1, 0)])
    gen = effective_generator_timedep(corr, traj, CROSSTALK, [(1, 0)])
    e10 = gen.values[(1, 0)]
    # dephasing never turns into gain in the settled adiabatic window (the
    # instantaneous second-order rate does swing through zero on the ramps,
    # at any finite ramp speed; only the settled plateau is adiabatic-valid)
    plateau = (traj.times >= 0.5 * SLOW_PULSE.tau_p) & \
              (traj.times <= SLOW_PULSE.tau_p - SLOW_PULSE.tau_r)
    assert np.min(-e10.imag[plateau]) > -1e-9
    # plateau dephasing is at the 1e-4 MHz scale
    i_mid = int(round(500.0 / traj.dt))
    assert 1e-5 < -e10[i_mid].imag < 1e-3
    # |E| follows the instantaneous photon number through the whole pulse
    per_photon = effective_spectrum(CROSSTALK, 1, 0, 1.0).value
    sel = traj.photon > 0.2 * np.max(traj.photon)
    ratio = np.abs(e10[sel]) / (abs(per_photon) * traj.photon[sel])
    assert np.max(np.abs(ratio - 1.0)) < 0.02


def test_grid_mismatch_is_rejected(step_drive_run):
    params, pulse, traj, corr = step_drive_run
    other = solve_eta(params, pulse, traj.times[-1] / 2.0, traj.dt)
    with pytest.raises(ValueError, match="grid"):
        effective_generator_timedep(corr, other, params, [(1, 0)])
    nonzero = solve_eta(params, pulse, 100.0, traj.dt)
    shifted = type(nonzero)(times=nonzero.times, eta=nonzero.eta + 1.0,
                            eta_d1=nonzero.eta_d1, eta_d2=nonzero.eta_d2,
                            eta_d3=nonzero.eta_d3, pulse=pulse)
    with pytest.raises(ValueError, match="eta\\(0\\)"):
        correlations_timedomain(shifted, params, [(1, 0)])


def test_zero_linewidth_is_rejected():
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 0.0, 2, 2)
    traj = solve_eta(p, PulseSpec("constant", 1.0), 100.0, 0.5)
    with pytest.raises(ValueError, match="kappa_c"):
        correlations_timedomain(traj, p, [(1, 0)])


def test_transient_csv(tmp_path, step_drive_run):
    params, pulse, traj, corr = step_drive_run
    gen = effective_generator_timedep(corr, traj, params, [(1, 0)])
    out = tmp_path / "transient.csv"
    write_transient_csv(out, traj, corr, gen, pair=(1, 0))
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t_ns,photon,re_a_ll")
    assert len(lines) == traj.times.size + 1
