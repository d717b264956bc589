import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readoutmap import response, transient
from readoutmap.cli import load_config
from readoutmap.effective import adiabatic_correlations, effective_spectrum
from readoutmap.model import PulseSpec, SystemParams
from readoutmap.response import coherence_at, max_stable_dt, solve_eta, steady_state
from readoutmap.transient import (adiabatic_series_A, correlations_timedomain,
                                  effective_generator_timedep, fourier_A, write_transient_csv)
from fullspace import rk4_reference

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

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
    assert np.all(gen[(1, 0)] == 0.0)


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
    expected = effective_spectrum(params, 1, 0, n_ss)
    assert abs(gen[(1, 0)][i] - expected) / abs(expected) < 1e-6
    assert abs(gen[(1, 1)][i]) < 1e-9 * abs(expected)


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


@pytest.mark.parametrize("series", [
    lambda traj, p, side: adiabatic_series_A(traj, p, 1, 0, side=side),
    lambda traj, p, side: fourier_A(traj, p, 1, 256, side=side),
], ids=["adiabatic_series_A", "fourier_A"])
def test_side_must_be_l_or_r(series):
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 2)
    traj = solve_eta(p, PulseSpec("constant", 1.0), 100.0, 0.5)
    # the two sides use conjugate detunings, so they give different series
    assert not np.allclose(series(traj, p, "l"), series(traj, p, "r"))
    for side in ("x", "L", ""):
        with pytest.raises(ValueError, match="side must be 'l' or 'r'"):
            series(traj, p, side)


def test_crosstalk_generator_follows_photon_number():
    traj = solve_eta(CROSSTALK, SLOW_PULSE, 1300.0, 0.1)
    corr = correlations_timedomain(traj, CROSSTALK, [(1, 0)])
    gen = effective_generator_timedep(corr, traj, CROSSTALK, [(1, 0)])
    e10 = gen[(1, 0)]
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
    per_photon = effective_spectrum(CROSSTALK, 1, 0, 1.0)
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


def test_correlations_check_the_step_at_the_levels_of_their_pairs():
    # level 0 allows dt = 1.5 ns (|delta_cd| = 5 MHz), but the pair (2, 0) runs its
    # recurrences at delta_cd + 4 chi = -325 MHz, bound 0.0245 ns: unchecked, |E| reached
    # 1.3e41 while the photon number stayed below 0.011
    p = SystemParams(-2005.0, -5.0, -330.0, -80.0, 5.0, 3, 14)
    pulse = PulseSpec("square-gaussian", omega_c=1.0, tau_p=400.0, tau_r=100.0, sigma_r=50.0)
    traj = solve_eta(p, pulse, 300.0, 1.5)
    bound = max_stable_dt(p, 2)
    with pytest.raises(ValueError, match=re.escape(
            f"step size 1.5 ns exceeds stability bound {bound:.4g} ns of qubit level 2")):
        correlations_timedomain(traj, p, [(2, 0)])
    assert correlations_timedomain(traj, p, [(0, 0)]).pairs == [(0, 0)]  # level 0 passes


def test_transient_csv(tmp_path, step_drive_run):
    params, pulse, traj, corr = step_drive_run
    gen = effective_generator_timedep(corr, traj, params, [(1, 0)])
    out = tmp_path / "transient.csv"
    write_transient_csv(out, traj, corr, gen, pair=(1, 0))
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t_ns,photon,re_a_ll")
    assert len(lines) == traj.times.size + 1


def _transient_series(config):
    """eta and the (A_ll, A_rr, B, C, E) series of the config's pair, as cmd_transient
    computes them."""
    p, pulse = config.params, config.pulse
    sec = config.sections["transient"]
    pair = tuple(sec["levels"][0])
    traj = solve_eta(p, pulse, sec["t_end_ns"], sec["dt_ns"])
    corr = correlations_timedomain(traj, p, [pair])
    gen = effective_generator_timedep(corr, traj, p, [pair])
    return [traj.eta, corr.a_ll[pair], corr.a_rr[pair], corr.b_lr[pair], corr.c_lr[pair],
            gen[pair]]


@pytest.mark.parametrize("name", ["transient_flattop", "transient_crosstalk"])
def test_shipped_transients_match_the_stepwise_recurrence(monkeypatch, name):
    # every recurrence of the product (solve_eta and the correlation cascades) run
    # one RK4 step at a time instead of by the blocked scan: measured <= 1.5e-13 of
    # each series' max |value|
    config = load_config(os.path.join(CONFIGS, name + ".json"))
    got = _transient_series(config)
    for module in (response, transient):
        monkeypatch.setattr(module, "_rk4_linear", rk4_reference)
    ref = _transient_series(config)
    for x, y in zip(got, ref):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


def _commands_at_step(p, pulse, t_end, dt, pair, idx):
    """transient's E of `pair` at every grid point, and propagate's coherence of levels
    (1, 0) at the grid indices idx, both on the grid k dt, k = 0..round(t_end / dt)."""
    traj = solve_eta(p, pulse, t_end, dt)
    corr = correlations_timedomain(traj, p, [pair])
    return (effective_generator_timedep(corr, traj, p, [pair])[pair],
            coherence_at(p, pulse, t_end, dt, idx, 1, 0)[0])


@settings(max_examples=80, deadline=None)
@given(delta_cd=st.floats(-60.0, 60.0), chi=st.floats(0.1, 100.0),
       chi_sign=st.sampled_from([-1.0, 1.0]), kappa=st.floats(0.1, 20.0),
       log_omega=st.floats(-1.0, 2.0),  # omega_c log-uniform over 0.1..100 MHz
       tau_r=st.floats(2.0, 100.0), step_frac=st.floats(0.3, 1.0),
       levels=st.integers(2, 3).flatmap(lambda n_a: st.tuples(
           st.just(n_a), st.permutations(range(n_a)).map(lambda x: tuple(x[:2])))))
# the flat top's system with a 2 ns ramp: dt = 1.137 ns, one step per sigma_r
@example(delta_cd=-5.0, chi=1.0, chi_sign=-1.0, kappa=5.0, log_omega=2.0, tau_r=2.0,
         step_frac=1.0, levels=(2, (1, 0)))
# every rate 0.1 MHz: the rule accepts a step longer than the pulse, which no sample sees
@example(delta_cd=0.1, chi=0.1, chi_sign=-1.0, kappa=0.1, log_omega=0.0, tau_r=2.0,
         step_frac=0.75, levels=(2, (1, 0)))
def test_a_step_the_rule_accepts_is_accurate_at_any_drive(delta_cd, chi, chi_sign, kappa,
                                                           log_omega, tau_r, step_frac, levels):
    # dt at a fraction of the bound validate applies to both commands, which the drive does
    # not enter; transient's E of the pair and propagate's coherence against a dt / 2 run
    # on the same samples, through ramp up, flat top and ramp down. The rule reads only the
    # recurrences' rates, not the envelope: the error is a floor the rule sets plus the
    # envelope's, which grows with x = dt / sigma_r and says nothing beyond x of about 2.
    # Measured over 2000 draws of these ranges: 1.1e-5 of max |E| and 3.9e-8 absolute for
    # the coherence at x < 0.03; at most 1e-4 + 0.05 x^4 and 1e-6 + 0.062 x^4 at any x.
    # 2500 further draws passed the bounds below.
    n_a, pair = levels
    p = SystemParams(0.0, delta_cd, 0.0, chi_sign * chi, kappa, n_a, 4)
    pulse = PulseSpec("square-gaussian", 10.0 ** log_omega, tau_p=4.0 * tau_r, tau_r=tau_r,
                      sigma_r=tau_r / 2.0)
    # transient steps level 0 and the pair, propagate levels 0 and 1
    dt = step_frac * min(max_stable_dt(p, k) for k in {0, 1, *pair})
    n_steps = int(np.ceil(pulse.tau_p / dt))
    idx = np.append(np.arange(0, n_steps, max(1, n_steps // 512)), n_steps)  # propagate's
    e, coh = _commands_at_step(p, pulse, n_steps * dt, dt, pair, idx)
    e_ref, coh_ref = _commands_at_step(p, pulse, n_steps * dt, dt / 2.0, pair, 2 * idx)
    assert e.size == n_steps + 1
    x4 = (dt / pulse.sigma_r) ** 4
    assert np.max(np.abs(e - e_ref[::2])) <= (1e-4 + 0.1 * x4) * np.max(np.abs(e_ref))
    assert np.max(np.abs(coh - coh_ref)) <= 1e-6 + 0.1 * x4
