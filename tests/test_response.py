import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readoutmap import response
from readoutmap.effective import rates
from readoutmap.model import RAD_PER_MHZ_NS, PulseSpec, SystemParams, sg_envelope
from readoutmap.response import (_rk4_linear, coherence_at, max_stable_dt, peak_photon, solve_eta,
                                 steady_state)
from fullspace import coherence_walk, propagate, qubit_block, rk4_reference

P = SystemParams(delta_ad=0.0, delta_cd=-5.0, alpha_a=0.0, chi_ac=-1.0, kappa_c=1.0,
                 n_a=2, n_c=14)


def step_response(params, omega_c, t_ns):
    """Closed-form ring-up of the linear resonator ODE (independent oracle)."""
    eta_ss, _ = steady_state(params, omega_c)
    beta = (2j * np.pi * params.delta_cd + np.pi * params.kappa_c) * 1e-3
    return eta_ss * (1.0 - np.exp(-beta * np.asarray(t_ns)))


B = response._BLOCK  # steps per block of the scan


def at_block_edges(test):
    """Examples with grids of B-2 .. B+1 and 2B steps (n = grid points), both step signs:
    a grid that ends one step before, on, or one step after a block edge."""
    for n in (B - 1, B, B + 1, B + 2, 2 * B + 1):
        for sign in (1.0, -1.0):
            test = example(n=n, h=0.1, h_sign=sign, a_abs=0.05, a_phase=2.0, seed=n)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 2000),
       h=st.floats(1e-3, 10.0),
       h_sign=st.sampled_from([1.0, -1.0]),
       a_abs=st.floats(0.0, 0.05),          # |h*mu| within the max_stable_dt bound
       a_phase=st.floats(0.0, 2.0 * np.pi),  # any sign of Re(h*mu), hence of Re(mu)
       seed=st.integers(0, 2**32 - 1))
@example(n=1, h=0.1, h_sign=1.0, a_abs=0.05, a_phase=0.0, seed=0)
@example(n=2000, h=0.1, h_sign=-1.0, a_abs=0.05, a_phase=3.0, seed=1)
# long grids, so the block-end carry crosses many block boundaries
@example(n=5000, h=0.1, h_sign=1.0, a_abs=0.05, a_phase=0.0, seed=2)     # growing kernel
@example(n=5000, h=0.1, h_sign=1.0, a_abs=0.05, a_phase=np.pi, seed=3)   # decaying kernel
@at_block_edges
def test_rk4_linear_matches_stepwise_reference(n, h, h_sign, a_abs, a_phase, seed):
    rng = np.random.default_rng(seed)
    h = h_sign * h
    mu = a_abs * np.exp(1j * a_phase) / h
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    fm = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    z0 = complex(rng.normal(), rng.normal())
    ref = rk4_reference(mu, f, fm, h, z0)
    got = _rk4_linear(mu, f, fm, h, z0)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_rk4_linear_peak_memory_is_a_few_outputs():
    # the scan holds g, one padded copy of it with the carries, and the output:
    # measured peak 2.2x the output's bytes
    shape = (14001,)
    rng = np.random.default_rng(6)
    f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    fm = 0.5 * (f[:-1] + f[1:])
    tracemalloc.start()
    try:
        out = _rk4_linear(-0.01 + 0.05j, f, fm, 0.1, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == shape
    assert peak <= 4 * out.nbytes


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["constant", "square-gaussian"]),
       omega_c=st.floats(0.5, 60.0),
       delta_cd=st.floats(-20.0, 20.0),
       kappa_c=st.floats(0.1, 10.0),
       step_frac=st.floats(0.05, 1.0),    # response step as a fraction of its bound
       m=st.integers(2, 6),               # response steps per propagate step
       n=st.integers(1, 300),             # propagate steps
       sample_every=st.integers(1, 320))
@example(kind="square-gaussian", omega_c=50.0, delta_cd=-5.0, kappa_c=5.0, step_frac=1.0,
         m=3, n=100, sample_every=7)      # partial last interval through both ramps
# a short interval against the ring-up: the closed-form carry s + (u - s) r^n cancelled
@example(kind="constant", omega_c=60.0, delta_cd=0.0, kappa_c=0.125, step_frac=0.0625,
         m=2, n=1, sample_every=1)
def test_sampled_amplitudes_match_the_full_trajectory(kind, omega_c, delta_cd, kappa_c,
                                                      step_frac, m, n, sample_every):
    p = SystemParams(0.0, delta_cd, 0.0, -1.0, kappa_c, 2, 4)
    pulse = PulseSpec("constant", omega_c)
    dt = step_frac * min(max_stable_dt(p, k) for k in (0, 1))
    t_end = n * m * dt
    if kind == "square-gaussian":
        # the pulse ends inside the grid, so the samples see ramps, top and tail
        pulse = PulseSpec(kind, omega_c, tau_p=0.6 * t_end, tau_r=0.15 * t_end,
                          sigma_r=0.075 * t_end)
    # propagate's sample grid: every sample_every-th step, then the last one
    idx = m * np.array(list(range(0, n, sample_every)) + [n])
    _, alpha_1, alpha_0 = coherence_at(p, pulse, t_end, dt, idx, 1, 0)
    # level 1 is the bare resonator at its dressed detuning delta_cd + 2 chi_ac
    for got, q in ((alpha_0, p), (alpha_1, replace(p, delta_cd=delta_cd + 2.0 * p.chi_ac))):
        full = solve_eta(q, pulse, t_end, dt).eta
        assert full.size == n * m + 1
        assert np.max(np.abs(got - full[idx])) <= 1e-12 * np.max(np.abs(full))


def test_peak_photon_is_the_largest_level_steady_state():
    # level k sits at delta_cd + 2 chi k: -5 and -7 MHz for P, -1 and +1 for `split`
    assert peak_photon(P, 7.0) == steady_state(P, 7.0)[1]
    split = SystemParams(0.0, -1.0, 0.0, 1.0, 1.0, 3, 4)
    assert peak_photon(split, 7.0) == pytest.approx(12.25 / 1.25, rel=1e-15)
    # an undamped dressed resonance is unbounded under a drive, empty without one
    undamped = SystemParams(0.0, 2.0, 0.0, -1.0, 0.0, 2, 4)
    assert peak_photon(undamped, 1.0) == np.inf
    assert peak_photon(undamped, 0.0) == 0.0
    # a dressed factor that overflows is an error, not a resonance
    with pytest.raises(ValueError, match=r"kappa_c_mhz = 1e\+200 overflows"):
        peak_photon(replace(P, kappa_c=1e200), 7.0)


def test_one_point_grid():
    traj = solve_eta(P, PulseSpec("constant", 7.0), t_end=0.0, dt=0.1)
    assert traj.eta.tolist() == [0.0]


def test_undamped_resonant_drive_rings_up_linearly():
    p = SystemParams(0.0, 0.0, 0.0, -1.0, 0.0, 2, 4)
    traj = solve_eta(p, PulseSpec("constant", 2.0), 500.0, 0.1)
    drive = -1.0j * np.pi * 1.0e-3 * 2.0
    assert np.max(np.abs(traj.eta - drive * traj.times)) <= 1e-12 * np.max(np.abs(traj.eta))


def test_steady_state_values():
    assert steady_state(P, 0.0) == (0.0, 0.0)
    cross = SystemParams(-2050, -50, -330, -1, 5, 2, 6)
    _, n = steady_state(cross, 14.2)
    assert n == pytest.approx(0.0201137157, rel=1e-8)
    # four steady photons on the benchmark point
    omega4 = 2.0 * np.sqrt(4.0 * (P.delta_cd**2 + (P.kappa_c / 2.0) ** 2))
    assert omega4 == pytest.approx(20.1, abs=0.1)
    _, n4 = steady_state(P, omega4)
    assert n4 == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ValueError):
        steady_state(SystemParams(0, 0, 0, 0, 0, 2, 2), 1.0)


def bits(state):
    alpha, photon = state
    return np.array([alpha.real, alpha.imag, photon]).tobytes()


@settings(max_examples=300, deadline=None)
@given(delta_cd=st.floats(-100.0, 100.0), chi=st.floats(-5.0, 5.0),
       kappa=st.floats(1e-6, 50.0), level=st.integers(0, 6), omega=st.floats(-50.0, 50.0))
@example(delta_cd=-0.0, chi=1.0, kappa=1.0, level=0, omega=7.0)
def test_steady_state_of_a_level_is_the_bare_one_at_its_dressed_detuning(delta_cd, chi, kappa,
                                                                        level, omega):
    p = SystemParams(0.0, delta_cd, 0.0, chi, kappa, 2, 4)
    dressed = replace(p, delta_cd=delta_cd + 2.0 * chi * level)
    assert bits(steady_state(p, omega, level)) == bits(steady_state(dressed, omega))
    # level 0 is the closed form at delta_cd itself, to the bit
    bare = (-0.5j * omega / (1j * delta_cd + kappa / 2.0),
            (omega / 2.0) ** 2 / (delta_cd**2 + (kappa / 2.0) ** 2))
    assert bits(steady_state(p, omega)) == bits(bare)


def test_step_drive_matches_closed_form():
    traj = solve_eta(P, PulseSpec("constant", 7.0), t_end=2000.0, dt=0.1)
    exact = step_response(P, 7.0, traj.times)
    assert np.max(np.abs(traj.eta - exact)) < 1e-8


def test_zero_drive_stays_zero():
    traj = solve_eta(P, PulseSpec("constant", 0.0), t_end=100.0, dt=0.5)
    assert np.all(traj.eta == 0.0)


def test_step_size_bound_enforced():
    with pytest.raises(ValueError, match="stability"):
        solve_eta(P, PulseSpec("constant", 7.0), t_end=10.0, dt=10.0)
    # 0.05 rad of the faster of |delta_cd + 2 chi_ac level| and kappa_c: 5 and 7 MHz for P
    assert max_stable_dt(P) == pytest.approx(0.05 / (2e-3 * np.pi * 5.0))
    assert max_stable_dt(P, 1) == pytest.approx(0.05 / (2e-3 * np.pi * 7.0))
    assert max_stable_dt(replace(P, kappa_c=20.0), 1) == pytest.approx(0.05 / (2e-3 * np.pi * 20.0))


@pytest.mark.parametrize("t_end, dt, message", [
    (10.0, np.inf, "step size dt = inf ns must be finite and > 0"),
    (np.inf, 1.0, "end time t_end = inf ns must be finite and >= 0"),
    (10.0, np.nan, "step size dt = nan ns must be finite and > 0"),
    (np.nan, 1.0, "end time t_end = nan ns must be finite and >= 0"),
    (10.0, 0.0, "step size dt = 0.0 ns must be finite and > 0"),
    (-1.0, 1.0, "end time t_end = -1.0 ns must be finite and >= 0"),
])
def test_a_grid_that_is_not_finite_is_an_error(t_end, dt, message):
    # no detuning and no decay: no level has a rate, so no step bound stops dt = inf
    # (it gave 0 steps) and t_end = inf reached round(inf) (an OverflowError)
    p = SystemParams(0.0, 0.0, 0.0, 0.0, 0.0, 2, 2)
    assert max_stable_dt(p, 0) == max_stable_dt(p, 1) == np.inf
    with pytest.raises(ValueError, match=re.escape(message)):
        response._grid_steps(p, t_end, dt, (0, 1))
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_eta(p, PulseSpec("constant", 1.0), t_end, dt)


def test_a_drive_whose_photon_number_overflows_is_a_drive_error():
    # (omega_c / 2)^2 raises in Python floats above 2.7e154 MHz; below that, a dressed
    # factor under 1 can still carry the quotient past the float range
    undamped_enough = replace(P, delta_cd=0.0, kappa_c=1e-3)
    for params, omega, level in ((P, 1e155, 0), (P, -1e300, 1), (undamped_enough, 2e154, 0)):
        line = (f"drive omega_c = {omega:g} MHz overflows the steady-state photon number of "
                f"qubit level {level}")
        with pytest.raises(ValueError, match=re.escape(line)):
            steady_state(params, omega, level)
    with pytest.raises(ValueError, match=re.escape("drive omega_c = 1e+155 MHz overflows")):
        peak_photon(P, 1e155)
    # just below, the photon number is the closed form's float
    assert steady_state(P, 1e154)[1] == (1e154 / 2.0) ** 2 / (25.0 + 0.25)


@pytest.mark.parametrize("pulse", [
    PulseSpec("square-gaussian", 50.0, tau_p=1000.0, tau_r=100.0, sigma_r=50.0),
    PulseSpec("square-gaussian", 14.2, tau_p=1000.0, tau_r=100.0, sigma_r=50.0),
    PulseSpec("square-gaussian", 3.0, tau_p=200.0, tau_r=100.0, sigma_r=10.0),
    PulseSpec("constant", 7.0),
])
def test_eta_d1_is_the_ode_at_the_grid_drive_bit_for_bit(pulse):
    # solve_eta takes the drive at the grid points from the half-grid drive of its scan:
    # the same floats as the envelope evaluated on the grid k * dt
    traj = solve_eta(P, pulse, t_end=1300.0, dt=0.1)
    beta = (2j * np.pi * P.delta_cd + np.pi * P.kappa_c) * 1e-3
    drive = -1j * np.pi * 1e-3 * pulse.omega_c
    assert traj.eta_d1.tobytes() == (-beta * traj.eta
                                     + drive * sg_envelope(traj.times, pulse)).tobytes()


def test_the_stepped_amplitudes_are_linear_in_the_drive():
    # why the drive does not enter max_stable_dt: 100 times the drive gives 100 times eta
    # and both dressed amplitudes, so neither stability nor relative accuracy moves.
    # Measured: 1.6e-15 (eta), 8e-16 and 1.1e-15 (alpha_1, alpha_0) relative
    p = replace(P, kappa_c=5.0)
    pulses = [PulseSpec("square-gaussian", omega, tau_p=200.0, tau_r=100.0, sigma_r=50.0)
              for omega in (1.0, 100.0)]
    weak, strong = (solve_eta(p, pulse, 240.0, 0.05).eta for pulse in pulses)
    assert np.max(np.abs(strong - 100.0 * weak)) <= 1e-14 * np.max(np.abs(100.0 * weak))
    idx = np.arange(0, 4801, 37)  # ramp up, flat top, ramp down, tail
    weak, strong = (coherence_at(p, pulse, 240.0, 0.05, idx, 1, 0)[1:] for pulse in pulses)
    for x, y in zip(weak, strong):
        assert np.max(np.abs(y - 100.0 * x)) <= 1e-14 * np.max(np.abs(100.0 * x))


def test_derivatives_satisfy_the_ode():
    pulse = PulseSpec("square-gaussian", 50.0, tau_p=1000.0, tau_r=100.0, sigma_r=50.0)
    traj = solve_eta(P, pulse, t_end=1200.0, dt=0.1)
    beta = (2j * np.pi * P.delta_cd + np.pi * P.kappa_c) * 1e-3
    from readoutmap.model import sg_envelope
    rhs = -beta * traj.eta - 1j * np.pi * 1e-3 * 50.0 * sg_envelope(traj.times, pulse)
    assert np.max(np.abs(traj.eta_d1 - rhs)) < 1e-10
    assert traj.eta[0] == 0.0


def test_post_pulse_decay_rate():
    kappa = 5.0
    p = SystemParams(0.0, -5.0, 0.0, -1.0, kappa, 2, 14)
    pulse = PulseSpec("square-gaussian", 50.0, tau_p=1000.0, tau_r=100.0, sigma_r=50.0)
    traj = solve_eta(p, pulse, t_end=1500.0, dt=0.1)
    sel = traj.times > 1050.0
    slope = np.polyfit(traj.times[sel], np.log(traj.photon[sel]), 1)[0]
    kappa_fit = -slope / (2.0 * np.pi * 1e-3)
    assert abs(kappa_fit / kappa - 1.0) < 0.01


def test_flat_top_plateau_reaches_steady_photon_number():
    kappa = 5.0
    p = SystemParams(0.0, -5.0, 0.0, -1.0, kappa, 2, 14)
    pulse = PulseSpec("square-gaussian", 50.0, tau_p=2400.0, tau_r=100.0, sigma_r=50.0)
    traj = solve_eta(p, pulse, t_end=2400.0, dt=0.1)
    _, n_ss = steady_state(p, 50.0)
    i = int(round(2250.0 / traj.dt))  # late plateau, transients long dead
    assert abs(traj.photon[i] / n_ss - 1.0) < 1e-6


def test_rk4_order_of_convergence():
    # step drive: smooth everywhere, so the order-4 ratio is clean
    sols = [solve_eta(P, PulseSpec("constant", 7.0), t_end=1200.0, dt=dt).eta
            for dt in (0.4, 0.2, 0.1)]
    change1 = np.max(np.abs(sols[1][::2] - sols[0]))
    change2 = np.max(np.abs(sols[2][::2] - sols[1]))
    assert change2 < change1 / 15.0



@settings(max_examples=300, deadline=None)
@given(delta_cd=st.floats(-100.0, 100.0), chi=st.floats(-5.0, 5.0), kappa=st.floats(0.0, 50.0),
       level=st.integers(0, 6))
def test_step_bound_of_a_level_is_the_bare_one_at_its_dressed_detuning(delta_cd, chi, kappa,
                                                                      level):
    p = SystemParams(0.0, delta_cd, 0.0, chi, kappa, 2, 4)
    dressed = replace(p, delta_cd=delta_cd + 2.0 * chi * level)
    assert max_stable_dt(p, level) == max_stable_dt(dressed)


def test_level_zero_step_bound_ignores_chi_even_where_it_overflows():
    huge = SystemParams(0.0, -5.0, 0.0, 1.5e308, 1.0, 2, 4)
    pulse = PulseSpec("constant", 7.0)
    assert max_stable_dt(huge) == max_stable_dt(P)
    # 2 chi overflows: level 1 takes no step at all
    assert max_stable_dt(huge, 1) == 0.0
    with pytest.raises(ValueError, match="stability"):
        coherence_at(huge, pulse, 10.0, 1e-3, [0, 10], 1, 0)


def vacuum_superposition(p, levels):
    """Equal superposition of the qubit `levels`, resonator in vacuum, as a density matrix."""
    psi = np.zeros(p.n_a * p.n_c, dtype=complex)
    psi[np.array(levels) * p.n_c] = 1.0 / np.sqrt(len(levels))
    return np.outer(psi, psi.conj())


def stepper_gap(p, pulse, t_end, dt, sample_every, pairs):
    """Worst |Tr_c rho_mn - rho_mn(0) coherence_at| over the samples of the
    test-side dense stepper (an independent route, exact up to Fock truncation)."""
    rho0 = vacuum_superposition(p, range(p.n_a))
    res = propagate(rho0, p, pulse, t_end, dt, sample_every)
    idx = np.rint(res.times / dt).astype(int)
    qubit = qubit_block(res.blocks)
    return max(np.max(np.abs(qubit[:, m, n] - qubit[0, m, n]
                             * coherence_at(p, pulse, t_end, dt, idx, m, n)[0]))
               for m, n in pairs)


def test_coherence_matches_the_stepper_on_a_pulse():
    # the propagate-pulse benchmark's resonator and pulse at a converged 2 x 12;
    # measured 1.2e-13 (7.2e-6 at n_c = 6, the stepper's truncation error)
    p = SystemParams(0.0, -10.0, 0.0, -1.0, 5.0, 2, 12)
    pulse = PulseSpec("square-gaussian", 10.0, tau_p=400.0, tau_r=100.0, sigma_r=50.0)
    assert stepper_gap(p, pulse, 500.0, 0.02, 250, [(1, 0)]) <= 1e-12


@pytest.mark.parametrize("pulse", [
    PulseSpec("constant", 4.0),
    PulseSpec("square-gaussian", 4.0, tau_p=150.0, tau_r=40.0, sigma_r=20.0),
], ids=["constant", "ramped"])
def test_coherence_matches_the_stepper_for_every_pair_at_three_levels(pulse):
    # a converged 3 x 12: measured worst 1.5e-12 / 1.4e-12 (constant / ramped), at (2, 0)
    p = SystemParams(-3.0, -5.0, -2.0, -1.0, 2.0, 3, 12)
    assert stepper_gap(p, pulse, 200.0, 0.05, 40, [(1, 0), (2, 0), (2, 1)]) <= 2e-11


@pytest.mark.parametrize("delta_cd, omega", [(-10.0, 6.0), (0.0, 1.0)],
                         ids=["off-resonance", "level-0-resonant"])
def test_coherence_matches_the_stepper_without_damping(delta_cd, omega):
    # kappa_c = 0 at a converged 2 x 12: alpha_k oscillates, or (level 0 on its
    # resonance, r = 1: the scanned path) rings up linearly to 0.39 photons;
    # measured 3.3e-13 / 1.6e-13
    p = SystemParams(0.0, delta_cd, 0.0, -1.0, 0.0, 2, 12)
    gap = stepper_gap(p, PulseSpec("constant", omega), 300.0 if delta_cd else 200.0, 0.02, 100,
                      [(1, 0)])
    assert gap <= 5e-12


CLOSED_FORM_CASES = {
    # a constant drive, samples at every 7th step
    "constant": (SystemParams(0.0, -10.0, 0.0, -1.0, 5.0, 2, 4), PulseSpec("constant", 6.5192),
                 500.0, 0.02, 7),
    # flat top and zero tail in 250-step intervals, at three levels
    "pulse": (SystemParams(-3.0, -5.0, -2.0, -1.0, 2.0, 3, 4),
              PulseSpec("square-gaussian", 4.0, tau_p=300.0, tau_r=60.0, sigma_r=30.0),
              500.0, 0.02, 250),
    # undamped: |r| = 1 to within RK4's O(a^6)
    "undamped": (SystemParams(0.0, -10.0, 0.0, -1.0, 0.0, 2, 4),
                 PulseSpec("square-gaussian", 10.0, tau_p=400.0, tau_r=100.0, sigma_r=50.0),
                 900.0, 0.02, 250),
    # undamped and 6e-8 MHz off resonance at level 0: the fixed point (|s| ~ 1e8) is far
    # beyond alpha on this grid, where sums about it cancelled to 2e-7 relative
    "near-resonant": (SystemParams(0.0, 6e-8, 0.0, -1.0, 0.0, 2, 4), PulseSpec("constant", 28.6),
                      40.0, 0.1, 7),
}


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
def test_constant_intervals_in_closed_form_match_the_scanned_recurrence(monkeypatch, case):
    p, pulse, t_end, dt, sample_every = CLOSED_FORM_CASES[case]
    n_steps = int(round(t_end / dt))
    idx = np.append(np.arange(0, n_steps, sample_every), n_steps)
    pairs = [(1, 0), (2, 0), (2, 1)] if p.n_a == 3 else [(1, 0)]
    closed = [coherence_at(p, pulse, t_end, dt, idx, m, n) for m, n in pairs]
    classified, scanned, original = [], [], response._rk4_linear

    def nothing_constant(pulse, t0, t1):
        classified.append(np.size(t0))
        return np.full(np.shape(t0), np.nan)

    def scan(mu, f, fm, h, z0):
        scanned.append(np.shape(f)[-1] - 1)
        return original(mu, f, fm, h, z0)

    monkeypatch.setattr(response, "constant_envelope", nothing_constant)
    monkeypatch.setattr(response, "_rk4_linear", scan)
    for (m, n), (got, *got_alphas) in zip(pairs, closed):
        classified.clear()
        scanned.clear()
        ref, *ref_alphas = coherence_at(p, pulse, t_end, dt, idx, m, n)
        # the reference classified its intervals and scanned all of them, at both levels
        assert classified == [idx.size - 1]
        assert sum(scanned) == 2 * n_steps
        # measured worst 5.6e-15 / 3.8e-14 / 2.0e-14 (constant / pulse / undamped)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13
        # measured worst 2.8e-14 / 1.2e-13 / 1.4e-13 of max |alpha|
        for alpha, ref_alpha in zip(got_alphas, ref_alphas):
            assert np.max(np.abs(alpha - ref_alpha)) <= 1e-12 * np.max(np.abs(ref_alpha))


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["constant", "square-gaussian"]),
       delta_cd=st.one_of(st.just(0.0), st.floats(-20.0, 20.0)),
       kappa_c=st.one_of(st.just(0.0), st.floats(0.1, 10.0)),
       omega_c=st.floats(0.5, 40.0),
       step_frac=st.floats(0.05, 1.0),   # step as a fraction of the levels' bound
       n_steps=st.integers(1, 2500),
       cuts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       last=st.booleans(),               # the grid's end is a sample, or a partial interval
       pair=st.sampled_from([(1, 0), (2, 0), (2, 1), (0, 0)]))
# level 0 on its undamped resonance: r == 1 exactly, so all 6 intervals, of mixed
# lengths up to 760 steps, are one scanned run
@example(kind="square-gaussian", delta_cd=0.0, kappa_c=0.0, omega_c=10.0, step_frac=1.0,
         n_steps=2000, cuts=[0.1, 0.1, 0.35, 0.5, 0.52, 0.9], last=True, pair=(1, 0))
# about 120 ramp intervals of 6 or 7 steps, one run, between flat top and tail
@example(kind="square-gaussian", delta_cd=-5.0, kappa_c=5.0, omega_c=30.0, step_frac=0.5,
         n_steps=2500, cuts=[i / 400.0 for i in range(400)] + [0.5, 0.5], last=False,
         pair=(2, 0))
# ramp runs of 24000 and 48000 steps, longer than the scan budget of 16384: chunks end
# inside the sample intervals 6000..16800, 36000..60000 and 60000..70800
@example(kind="square-gaussian", delta_cd=-5.0, kappa_c=5.0, omega_c=30.0, step_frac=0.5,
         n_steps=120000, cuts=[0.05, 0.14, 0.2, 0.3, 0.5, 0.59, 0.7], last=True, pair=(1, 0))
# the ramp-down run starts from the nonzero carry that the flat-top run leaves
@example(kind="square-gaussian", delta_cd=-5.0, kappa_c=5.0, omega_c=30.0, step_frac=0.5,
         n_steps=2500, cuts=[0.2, 0.3, 0.4, 0.5, 0.55, 0.7, 0.8], last=True, pair=(2, 1))
# the samples end inside the ramp down
@example(kind="square-gaussian", delta_cd=-5.0, kappa_c=5.0, omega_c=30.0, step_frac=0.5,
         n_steps=2500, cuts=[0.1, 0.2, 0.3, 0.5], last=False, pair=(1, 0))
# repeated indices, in a constant run and in a scanned one
@example(kind="square-gaussian", delta_cd=-5.0, kappa_c=5.0, omega_c=30.0, step_frac=0.5,
         n_steps=2500, cuts=[0.05, 0.05, 0.3, 0.3, 0.3, 0.7, 0.7], last=True, pair=(1, 0))
# the one sample 0: no interval at all
@example(kind="constant", delta_cd=-5.0, kappa_c=5.0, omega_c=30.0, step_frac=0.5,
         n_steps=2500, cuts=[0.0], last=False, pair=(1, 0))
def test_run_walk_coherence_matches_the_per_interval_walk(kind, delta_cd, kappa_c, omega_c,
                                                          step_frac, n_steps, cuts, last, pair):
    # coherence_at walks maximal runs of sample intervals, constant ones in closed form
    # and the others scanned once per level; the oracle walks the same recurrences from
    # index to index. Measured worst over 3 x 1500 draws: 4.8e-15 of max |alpha| and
    # 1.3e-14 (1 + |x|) relative for the coherence.
    p = SystemParams(-3.0, delta_cd, -2.0, -1.0, kappa_c, 3, 4)
    pulse = PulseSpec("constant", omega_c)
    # level 1's bound too: a pair with neither detuning nor decay (r == 1) has none, and
    # one with a tiny detuning a step that its drive overflows in
    dt = step_frac * min(max_stable_dt(p, k) for k in {*pair, 1})
    t_end = n_steps * dt
    if kind == "square-gaussian":
        pulse = PulseSpec(kind, omega_c, tau_p=0.6 * t_end, tau_r=0.15 * t_end,
                          sigma_r=0.075 * t_end)
    idx = np.sort(np.round(np.array(cuts) * n_steps).astype(int))
    if last:
        idx = np.append(idx, n_steps)
    got = coherence_at(p, pulse, t_end, dt, idx, *pair)
    ref = coherence_walk(p, pulse, t_end, dt, idx, *pair)
    scale = [np.max(np.abs(x), initial=0.0) for x in ref[1:]]
    for alpha, ref_alpha, top in zip(got[1:], ref[1:], scale):
        assert np.max(np.abs(alpha - ref_alpha), initial=0.0) <= 3e-13 * top
    # the coherence is exp(-i x) with |x| up to 2 pi 1e-3 (|eps_m - eps_n| t +
    # 2 |chi| |m - n| |I|), |I| <= t max|alpha_m| max|alpha_n|: the error of x scales with it
    m, n = pair
    eps = [p.delta_ad * k + 0.5 * p.alpha_a * k * (k - 1) for k in pair]
    exponent = RAD_PER_MHZ_NS * idx * dt * (abs(eps[0] - eps[1])
                                            + 2.0 * abs(p.chi_ac * (m - n)) * scale[0] * scale[1])
    kept = np.abs(ref[0]) > 1e-250  # not near the subnormals, whose digits run out
    assert np.all(np.abs(got[0][kept] / ref[0][kept] - 1.0) <= 1e-13 * (1.0 + exponent[kept]))


@settings(max_examples=100, deadline=None)
@given(delta_cd=st.floats(-30.0, 30.0), chi=st.floats(0.1, 3.0), chi_sign=st.sampled_from([-1, 1]),
       kappa=st.floats(0.5, 20.0), step_frac=st.floats(0.1, 1.0))
def test_coherence_decays_at_the_dephasing_rate_after_ring_up(delta_cd, chi, chi_sign, kappa,
                                                             step_frac):
    # Under a constant drive, once the ring-up has decayed (exp(-40) of it),
    # |coherence| decays at Gamma_phi = kappa |alpha_1 - alpha_0|^2 / 2, the
    # effective map's dephasing at the level-0 photon number. The drive sets
    # ten e-folds of 2 pi 1e-3 Gamma_phi over the grid. Measured worst over
    # 3 x 1500 random draws of these ranges: 1.4e-13 relative.
    p = SystemParams(0.0, delta_cd, 0.0, chi_sign * chi, kappa, 2, 4)
    t_ring = 40.0 / (np.pi * kappa * 1e-3)
    n0 = 10.0 / (2.0 * np.pi * 1e-3 * rates(p, 1.0).dephasing * 2.0 * t_ring)
    omega = 2.0 * np.sqrt(n0 * (delta_cd ** 2 + kappa ** 2 / 4.0))
    pulse = PulseSpec("constant", omega)
    dt = step_frac * min(max_stable_dt(p, k) for k in (0, 1))
    k1 = int(np.ceil(t_ring / dt))
    coh = coherence_at(p, pulse, 2 * k1 * dt, dt, [k1, 2 * k1], 1, 0)[0]
    gamma = -np.log(np.abs(coh[1] / coh[0])) / (2.0 * np.pi * 1e-3 * k1 * dt)
    alpha = [steady_state(p, omega, k)[0] for k in (0, 1)]
    assert gamma == pytest.approx(rates(p, n0).dephasing, rel=1e-11)
    assert gamma == pytest.approx(kappa * abs(alpha[1] - alpha[0]) ** 2 / 2.0, rel=1e-11)


def test_coherence_at_checks_its_inputs():
    pulse = PulseSpec("constant", 3.0)
    for indices in ([0, 5, 3], [-1, 2], [0, 101]):
        with pytest.raises(ValueError, match="sample indices"):
            coherence_at(P, pulse, 10.0, 0.1, indices, 1, 0)
    # level 1 sits at delta_cd + 2 chi = -7 MHz: its bound is below level 0's
    dt = 0.5 * (max_stable_dt(P, 1) + max_stable_dt(P))
    coherence_at(P, pulse, 10.0, dt, [0], 0, 0)
    with pytest.raises(ValueError, match="stability"):
        coherence_at(P, pulse, 10.0, dt, [0], 1, 0)
    # the qubit frequency enters the phase only: (eps_1 - eps_0) t overflows
    with pytest.raises(ValueError, match=r"\(1, 0\) is not finite: its phase overflows"):
        coherence_at(replace(P, delta_ad=1e308), pulse, 10000.0, 0.1, [0, 100000], 1, 0)
