import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readoutmap.model import PulseSpec, SystemParams
from readoutmap.response import (_rk4_linear, max_stable_dt, solve_eta, steady_state,
                                 write_trajectory_csv)

P = SystemParams(delta_ad=0.0, delta_cd=-5.0, alpha_a=0.0, chi_ac=-1.0, kappa_c=1.0,
                 n_a=2, n_c=14)


def step_response(params, omega_c, t_ns):
    """Closed-form ring-up of the linear resonator ODE (independent oracle)."""
    eta_ss, _ = steady_state(params, omega_c)
    beta = (2j * np.pi * params.delta_cd + np.pi * params.kappa_c) * 1e-3
    return eta_ss * (1.0 - np.exp(-beta * np.asarray(t_ns)))


def rk4_reference(mu, f, fm, h, z0):
    """Classic RK4 for du/dt = mu*u + f, one step at a time (independent oracle):
    f at the grid points, fm at the interval midpoints, signed step h."""
    u = np.empty(len(f), dtype=complex)
    z = complex(z0)
    u[0] = z
    for k in range(len(f) - 1):
        k1 = mu * z + f[k]
        k2 = mu * (z + 0.5 * h * k1) + fm[k]
        k3 = mu * (z + 0.5 * h * k2) + fm[k]
        k4 = mu * (z + h * k3) + f[k + 1]
        z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u[k + 1] = z
    return u


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 2000),
       h=st.floats(1e-3, 10.0),
       h_sign=st.sampled_from([1.0, -1.0]),
       a_abs=st.floats(0.0, 0.05),          # |h*mu| within the max_stable_dt bound
       a_phase=st.floats(0.0, 2.0 * np.pi),  # any sign of Re(h*mu), hence of Re(mu)
       seed=st.integers(0, 2**32 - 1))
@example(n=1, h=0.1, h_sign=1.0, a_abs=0.05, a_phase=0.0, seed=0)
@example(n=2000, h=0.1, h_sign=-1.0, a_abs=0.05, a_phase=3.0, seed=1)
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


def test_one_point_grid():
    traj = solve_eta(P, PulseSpec("constant", 7.0), t_end=0.0, dt=0.1)
    assert traj.eta.tolist() == [0.0]


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
    assert max_stable_dt(P, PulseSpec("constant", 7.0)) == pytest.approx(
        0.05 / (2e-3 * np.pi * 7.0))


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


def test_trajectory_csv(tmp_path):
    traj = solve_eta(P, PulseSpec("constant", 7.0), t_end=10.0, dt=0.5)
    out = tmp_path / "traj.csv"
    write_trajectory_csv(out, traj)
    lines = out.read_text().splitlines()
    assert lines[0] == "t_ns,re_eta,im_eta,photon_number"
    assert len(lines) == traj.times.size + 1
    write_trajectory_csv(out, traj, header=False)
    assert len(out.read_text().splitlines()) == traj.times.size
