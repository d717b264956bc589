import csv
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from readoutmap import effective, eigenstates, model
from readoutmap.model import (PulseSpec, SystemParams, constant_envelope, detuning_l,
                              detuning_r, dressed_detuning, drive_error, overflow_error, params_from_dict, pulse_from_dict, resonance_error,
                              sg_envelope, truncation_error, validity_margin, write_csv)
from readoutmap.response import steady_state

SG = PulseSpec("square-gaussian", omega_c=50.0, tau_p=1000.0, tau_r=100.0, sigma_r=50.0)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(0, 0, 0, 0, -1.0, 2, 2)
    with pytest.raises(ValueError):
        SystemParams(0, 0, 0, 0, 0, 1, 2)
    with pytest.raises(ValueError):
        SystemParams(float("nan"), 0, 0, 0, 0, 2, 2)
    # negative chi is the common sign
    SystemParams(-2005, -5, -330, -1, 1, 2, 14)


def test_pulse_validation():
    with pytest.raises(ValueError):
        PulseSpec("square-gaussian", 50.0, tau_p=1000.0, tau_r=600.0, sigma_r=50.0)
    with pytest.raises(ValueError):
        PulseSpec("square-gaussian", 50.0, tau_p=1000.0, tau_r=100.0, sigma_r=0.0)
    with pytest.raises(ValueError):
        PulseSpec("triangle", 50.0)
    PulseSpec("square-gaussian", 50.0, tau_p=200.0, tau_r=100.0, sigma_r=50.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["omega_c", "tau_p", "tau_r", "sigma_r"])
def test_pulse_fields_must_be_finite(field, value):
    fields = {"omega_c": 50.0, "tau_p": 1000.0, "tau_r": 100.0, "sigma_r": 50.0, field: value}
    for kind in ("constant", "square-gaussian"):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PulseSpec(kind, **fields)


def test_envelope_anchor_values():
    assert sg_envelope(0.0, SG) == 0.0
    assert sg_envelope(SG.tau_r, SG) == 1.0
    assert sg_envelope(SG.tau_p / 2.0, SG) == 1.0
    assert sg_envelope(SG.tau_p, SG) == 0.0
    assert sg_envelope(-5.0, SG) == 0.0
    assert sg_envelope(SG.tau_p + 5.0, SG) == 0.0
    assert sg_envelope(123.4, PulseSpec("constant", 10.0)) == 1.0


def test_envelope_range_and_continuity():
    t = np.linspace(-50.0, SG.tau_p + 50.0, 20011)
    env = sg_envelope(t, SG)
    assert np.all(env >= 0.0) and np.all(env <= 1.0)
    for edge in (0.0, SG.tau_r, SG.tau_p - SG.tau_r, SG.tau_p):
        jump = abs(sg_envelope(edge - 1e-12, SG) - sg_envelope(edge + 1e-12, SG))
        assert jump < 1e-12


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["constant", "square-gaussian"]),
       omega=st.floats(-60.0, 60.0),
       dt=st.one_of(st.sampled_from([0.125, 0.25, 0.5, 1.0]), st.floats(0.01, 2.0)),
       p_half=st.integers(2, 400),  # tau_p in half-steps
       r_frac=st.floats(0.0, 1.0),  # tau_r in half-steps, as a fraction of p_half/2
       k=st.integers(0, 220), n=st.integers(1, 120))
# no flat top (tau_r = tau_p/2), an interval ending exactly at the peak
@example(kind="square-gaussian", omega=5.0, dt=0.25, p_half=200, r_frac=1.0, k=40, n=10)
# endpoints exactly on tau_r (t0, then t1), on tau_p - tau_r (t1, then t0) and on tau_p (t0)
@example(kind="square-gaussian", omega=5.0, dt=0.25, p_half=200, r_frac=0.4, k=20, n=10)
@example(kind="square-gaussian", omega=5.0, dt=0.25, p_half=200, r_frac=0.4, k=10, n=10)
@example(kind="square-gaussian", omega=5.0, dt=0.25, p_half=200, r_frac=0.4, k=70, n=10)
@example(kind="square-gaussian", omega=5.0, dt=0.25, p_half=200, r_frac=0.4, k=80, n=10)
@example(kind="square-gaussian", omega=-5.0, dt=0.25, p_half=200, r_frac=0.4, k=100, n=10)
# just inside the flat top, and the first interval after tau_p (negative drive: -0.0)
@example(kind="square-gaussian", omega=5.0, dt=0.25, p_half=200, r_frac=0.4, k=21, n=48)
@example(kind="square-gaussian", omega=-5.0, dt=0.25, p_half=200, r_frac=0.4, k=101, n=10)
def test_constant_envelope_is_exact_where_it_claims_a_level(kind, omega, dt, p_half, r_frac,
                                                            k, n):
    # propagate's sample interval k..k+n on its half-grid (2j) * (dt/2)
    half = dt / 2.0
    r_half = max(1, round(r_frac * (p_half // 2)))
    if kind == "constant":
        pulse = PulseSpec(kind, omega)
        ramps = []
    else:
        tau_p, tau_r = p_half * half, r_half * half
        pulse = PulseSpec(kind, omega, tau_p=tau_p, tau_r=tau_r, sigma_r=0.5 * tau_r)
        ramps = [(0.0, tau_r), (tau_p - tau_r, tau_p)]
    t0, t1 = (2 * k) * half, (2 * (k + n)) * half
    level = float(constant_envelope(pulse, t0, t1))
    # NaN exactly when the closed interval meets a ramp, branch points included
    assert np.isnan(level) == any(t0 <= hi and t1 >= lo for lo, hi in ramps)
    if not np.isnan(level):
        amp = pulse.omega_c * sg_envelope(np.arange(2 * k, 2 * (k + n) + 1) * half, pulse)
        # bit for bit, signed zeros included
        assert amp.tobytes() == np.full(amp.shape, pulse.omega_c * level).tobytes()


# the envelope functions as they read pulse.kind before PulseSpec kept its pieces: each
# computed the ramp normalization itself. The pieces must give the same floats, bit for bit


def reference_envelope(t, pulse):
    scalar = np.ndim(t) == 0
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if pulse.kind == "constant":
        out = np.ones_like(t_arr)
        return float(out[0]) if scalar else out
    tau_p, tau_r, sig = pulse.tau_p, pulse.tau_r, pulse.sigma_r
    floor = math.exp(-tau_r**2 / (2.0 * sig**2))
    norm = 1.0 - floor
    out = np.zeros_like(t_arr)
    up = (t_arr >= 0.0) & (t_arr <= tau_r)
    out[up] = (np.exp(-((t_arr[up] - tau_r) ** 2) / (2.0 * sig**2)) - floor) / norm
    flat = (t_arr > tau_r) & (t_arr < tau_p - tau_r)
    out[flat] = 1.0
    down = (t_arr >= tau_p - tau_r) & (t_arr <= tau_p)
    out[down] = (np.exp(-((t_arr[down] - (tau_p - tau_r)) ** 2) / (2.0 * sig**2)) - floor) / norm
    return float(out[0]) if scalar else out


def reference_derivative(t, pulse, order):
    scalar = np.ndim(t) == 0
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t_arr)
    if pulse.kind == "constant":
        return float(out[0]) if scalar else out
    tau_p, tau_r, sig = pulse.tau_p, pulse.tau_r, pulse.sigma_r
    norm = 1.0 - math.exp(-tau_r**2 / (2.0 * sig**2))

    def ramp(u):
        g = np.exp(-(u**2) / (2.0 * sig**2)) / norm
        if order == 1:
            return -u / sig**2 * g
        return (u**2 / sig**4 - 1.0 / sig**2) * g

    up = (t_arr >= 0.0) & (t_arr <= tau_r)
    out[up] = ramp(t_arr[up] - tau_r)
    down = (t_arr >= tau_p - tau_r) & (t_arr <= tau_p)
    out[down] = ramp(t_arr[down] - (tau_p - tau_r))
    return float(out[0]) if scalar else out


def reference_constant_envelope(pulse, t0, t1):
    t0, t1 = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(t1, dtype=float))
    if pulse.kind == "constant":
        return np.ones(t0.shape)
    top = (pulse.tau_r < t0) & (t1 < pulse.tau_p - pulse.tau_r)
    return np.where(top, 1.0, np.where(t0 > pulse.tau_p, 0.0, np.nan))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["constant", "square-gaussian"]),
       tau_p=st.floats(1.0, 2000.0), r_frac=st.floats(0.0, 1.0),
       s_frac=st.one_of(st.floats(0.01, 10.0), st.sampled_from([1e-3, 1e3, 1e5])),
       dt=st.one_of(st.sampled_from([0.1, 0.02, 0.0137, 0.25]), st.floats(0.005, 5.0)),
       start=st.integers(-50, 100), n=st.integers(1, 3000), every=st.integers(1, 40))
# the shipped flat top, one without a flat stretch, and one ending on its last grid point
@example(kind="square-gaussian", tau_p=1000.0, r_frac=0.2, s_frac=0.5, dt=0.1, start=0,
         n=14000, every=7)
@example(kind="square-gaussian", tau_p=200.0, r_frac=1.0, s_frac=0.5, dt=0.02, start=0,
         n=10000, every=13)
@example(kind="square-gaussian", tau_p=100.0, r_frac=0.5, s_frac=0.2, dt=0.25, start=-4,
         n=404, every=4)
def test_envelope_pieces_match_the_kind_branches_bit_for_bit(kind, tau_p, r_frac, s_frac, dt,
                                                            start, n, every):
    # the grid k * dt and its half-grid, from before the pulse to past its end, as
    # solve_eta and coherence_at read them; sigma_r up to 1e5 tau_r (norm near 5e-11)
    tau_r = max(r_frac * tau_p / 2.0, 1e-3)
    pulse = (PulseSpec(kind, 3.0) if kind == "constant" else
             PulseSpec(kind, 3.0, tau_p=tau_p, tau_r=tau_r, sigma_r=s_frac * tau_r))
    grid = np.arange(2 * start, 2 * (start + n) + 1) * (dt / 2.0)
    assert sg_envelope(grid, pulse).tobytes() == reference_envelope(grid, pulse).tobytes()
    for order in (1, 2):
        assert (sg_envelope(grid, pulse, order).tobytes()
                == reference_derivative(grid, pulse, order).tobytes())
    for t in grid[::every][:50].tolist():
        assert sg_envelope(t, pulse) == reference_envelope(t, pulse)
        assert sg_envelope(t, pulse, 2) == reference_derivative(t, pulse, 2)
    edges = grid[::2][::every]  # sample intervals, NaN where no piece holds them constant
    assert (constant_envelope(pulse, edges[:-1], edges[1:]).tobytes()
            == reference_constant_envelope(pulse, edges[:-1], edges[1:]).tobytes())


@pytest.mark.parametrize("tau_r, sigma_r", [
    (100.0, 1e-200),   # sigma_r^2 underflows: the normalization divides by zero
    (100.0, 1e-300),
    (100.0, 1e155),    # sigma_r^2 overflows
    (100.0, 1e200),
    (100.0, 1e154),    # 2 sigma_r^2 is inf: the normalization is 0
    (100.0, 1e10),     # sigma_r / tau_r = 1e8: exp rounds to 1, the normalization is 0
    (1e-300, 50.0),    # tau_r^2 underflows: the normalization is 0
    (1e-200, 50.0),
    (2e154, 1e150),    # tau_r^2 overflows
])
def test_a_ramp_the_floats_cannot_normalize_is_a_pulse_error(tau_r, sigma_r):
    with pytest.raises(ValueError, match=re.escape(f"tau_r_ns = {tau_r:g} and sigma_r_ns = "
                                                   f"{sigma_r:g} give no ramp")):
        PulseSpec("square-gaussian", 50.0, tau_p=max(1000.0, 2.0 * tau_r), tau_r=tau_r,
                  sigma_r=sigma_r)


@pytest.mark.parametrize("tau_p, tau_r, sigma_r", [
    (2e100, 1e100, 1e78),    # sigma_r^4 overflows: sg_envelope raised OverflowError
    (1000.0, 100.0, 1e-82),  # sigma_r^4 underflows to 0: numpy warned, the derivative was NaN
    (1000.0, 100.0, 1e-77),  # tau_r^2 / sigma_r^4 overflows: the derivative was NaN
    (1e20, 9000.0, 1e-75),   # the fall ramp, rounded, reaches u = 16384 ns
])
def test_a_ramp_whose_second_derivative_leaves_the_floats_is_a_pulse_error(tau_p, tau_r,
                                                                           sigma_r):
    with pytest.raises(ValueError, match=re.escape(f"sigma_r_ns = {sigma_r:g} puts the ramp's "
                                                   "second derivative out of float range")):
        PulseSpec("square-gaussian", 14.2, tau_p=tau_p, tau_r=tau_r, sigma_r=sigma_r)


@pytest.mark.parametrize("tau_p, tau_r, sigma_r", [
    (2e100, 1e100, 1.15e77), (1000.0, 100.0, 8.7e-77), (1e20, 9000.0, 1.2e-75)])
def test_envelope_derivatives_are_finite_up_to_the_sigma_r_rule(tau_p, tau_r, sigma_r):
    pulse = PulseSpec("square-gaussian", 14.2, tau_p=tau_p, tau_r=tau_r, sigma_r=sigma_r)
    t = np.concatenate([np.linspace(0.0, tau_r, 1001), np.linspace(tau_p - tau_r, tau_p, 1001),
                        [pulse.ramps[1][0], tau_p]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in (0, 1, 2):
            assert np.all(np.isfinite(sg_envelope(t, pulse, order)))


def test_a_ramp_with_a_tiny_normalization_keeps_the_rounding_of_its_foot():
    # sigma_r >> tau_r: norm = 1 - floor is tiny but nonzero, and the ramp values carry
    # the rounding of floor over norm, about 1.1e-16 / norm (measured 1.5e-2 at 1e7)
    for ratio, bound in ((1e3, 1e-9), (1e5, 1e-5), (1e7, 5e-2)):
        pulse = PulseSpec("square-gaussian", 1.0, tau_p=1000.0, tau_r=100.0,
                          sigma_r=100.0 * ratio)
        t = np.linspace(0.0, 100.0, 10001)
        a, b = (t - 100.0) ** 2 / (2.0 * pulse.sigma_r**2), 100.0**2 / (2.0 * pulse.sigma_r**2)
        exact = (np.expm1(-a) - math.expm1(-b)) / -math.expm1(-b)
        err = np.max(np.abs(sg_envelope(t, pulse) - exact))
        assert err <= bound and err <= 2.2e-16 / pulse.norm


def test_drive_error_names_the_drive_where_a_value_is_not_finite():
    assert drive_error(1e154, "the rows", [(1.0, 2.0), (3.0, 4.0)]) is None
    assert drive_error(1e154, "the rows", [1.0, complex(1.0, np.inf)]) == (
        "drive omega_c = 1e+154 MHz overflows the rows")
    assert drive_error(-3.0, "x", np.array([np.nan])) == "drive omega_c = -3 MHz overflows x"


def test_truncation_error_is_one_rule_at_a_quarter_of_n_c():
    assert truncation_error(2.4999, 10) is None
    assert "n_c/4 = 2.5" in truncation_error(2.5, 10)
    assert "n_c = 10" in truncation_error(float("inf"), 10)


def test_derivatives_trivial_cases():
    const = PulseSpec("constant", 10.0)
    assert sg_envelope(37.0, const, 1) == 0.0
    assert sg_envelope(SG.tau_p / 2.0, SG, 1) == 0.0
    assert sg_envelope(SG.tau_p / 2.0, SG, 2) == 0.0
    for order in (-1, 3, 4):
        with pytest.raises(ValueError, match=f"unsupported envelope derivative order {order}"):
            sg_envelope(1.0, SG, order)


def test_first_derivative_matches_finite_difference_at_half_ramp():
    t = SG.tau_r / 2.0
    h = 5e-3
    fd = (sg_envelope(t + h, SG) - sg_envelope(t - h, SG)) / (2.0 * h)
    an = sg_envelope(t, SG, 1)
    assert abs(an - fd) / abs(fd) < 1e-8


@pytest.mark.parametrize("order", [1, 2])
def test_derivatives_match_finite_differences_on_grid(order):
    # 1000 interior ramp points, away from the branch boundaries
    t = np.concatenate([np.linspace(5.0, SG.tau_r - 5.0, 500),
                        np.linspace(SG.tau_p - SG.tau_r + 5.0, SG.tau_p - 5.0, 500)])
    f = lambda x: sg_envelope(x, SG)
    h = 0.05
    if order == 1:
        fd = (f(t + h) - f(t - h)) / (2.0 * h)
    else:
        fd = (f(t + h) - 2.0 * f(t) + f(t - h)) / h**2
    an = sg_envelope(t, SG, order)
    assert np.max(np.abs(an - fd)) / np.max(np.abs(an)) < 1e-6


def test_level_detuning_conjugation():
    p = SystemParams(-2005, -5, -330, -1, 1, 2, 14)
    for n in range(4):
        assert detuning_r(p, n) == np.conj(detuning_l(p, n))
        assert detuning_l(p, n) == p.delta_cd - 0.5j * p.kappa_c + 2 * p.chi_ac * n


def test_validity_margin():
    p = SystemParams(-2005, -5, -330, -1, 1, 2, 14)
    assert validity_margin(p, 10.0) == pytest.approx(0.283573857722881, rel=1e-12)
    zero_chi = SystemParams(0, -5, 0, 0, 1, 2, 2)
    assert validity_margin(zero_chi, 10.0) == 0.0
    # drive between the two dressed resonances: gap product collapses to a square
    mid = SystemParams(0, 1.0, 0, -1.0, 2.0, 2, 2)
    expected = abs(mid.chi_ac * 7.0) / (mid.chi_ac**2 + (mid.kappa_c / 2.0) ** 2)
    assert validity_margin(mid, 7.0) == pytest.approx(expected, rel=1e-12)
    # undamped, with qubit level 0 or 1 on its dressed resonance: no value
    for d, level in ((0.0, 0), (2.0, 1)):
        with pytest.raises(ValueError, match=f"level {level} on its undamped dressed resonance"):
            validity_margin(SystemParams(0, d, 0, -1.0, 0.0, 2, 2), 1.0)
    with pytest.raises(ValueError):
        validity_margin(SystemParams(0, 0.0, 0, 0.0, 0.0, 2, 2), 1.0)


# kappa_c = 0, chi_ac = -1: the delta_cd that puts a qubit level on its undamped dressed
# resonance, and that level; at 1e-200 level 0's dressed detuning squares to 0
RESONANT = {"level-0": (0.0, 0), "level-1": (2.0, 1), "level-0-underflow": (1e-200, 0)}

# every call that divides by a level's dressed factor, with the levels it divides by
DRESSED_CALLS = {
    "steady_state": (lambda p: steady_state(p, 1.0), {0}),
    "steady_state-level-1": (lambda p: steady_state(p, 1.0, 1), {1}),
    "validity_margin": (lambda p: validity_margin(p, 1.0), {0, 1}),
    "effective_spectrum": (lambda p: effective.effective_spectrum(p, 1, 0, 1.0), {0, 1}),
    "spectrum_matrix": (lambda p: effective.spectrum_matrix(p, 3, 1.0), {0, 1, 2}),
    "rates": (lambda p: effective.rates(p, 1.0), {0, 1}),
    "adiabatic_correlations": (lambda p: effective.adiabatic_correlations(p, 1, 0, 1.0), {0, 1}),
    "stark_orders": (lambda p: effective.stark_orders(p, 1.0), {1}),
    "effective_lindblad": (lambda p: effective.effective_lindblad(p, 1.0), {0, 1, 2}),
    "closed_form_eigenpair": (lambda p: eigenstates.closed_form_eigenpair(p, 1, 0, 1.0)[1],
                              {0, 1}),
    "perturbative_eigenstate": (
        lambda p: eigenstates.perturbative_eigenstate((1, 0), p, 0.1j, 1).vector, {1}),
    "perturbative_eigenstate-ground": (
        lambda p: eigenstates.perturbative_eigenstate((0, 0), p, 0.1j, 2).vector, set()),
    "fidelity_sweep": (lambda p: eigenstates.fidelity_sweep(p, [0.5], orders=(0, 1)), {0, 1}),
}


@pytest.mark.parametrize("case", RESONANT)
@pytest.mark.parametrize("name", DRESSED_CALLS)
def test_undamped_dressed_resonance_is_one_error(name, case):
    # one ValueError with the one message, naming the resonant level, and no
    # warning; a call that does not divide by that level returns finite values
    call, levels = DRESSED_CALLS[name]
    d, level = RESONANT[case]
    p = SystemParams(0.0, d, 0.0, -1.0, 0.0, 3, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if level not in levels:
            result = call(p)
            assert np.all(np.isfinite(np.asarray(result, dtype=complex)))
            return
        with pytest.raises(ValueError) as exc:
            call(p)
    assert str(exc.value) == (f"delta_cd = {d:g} MHz puts qubit level {level} on its undamped "
                              f"dressed resonance (delta_cd + 2 chi_ac n = 0, kappa_c = 0)")


def test_resonance_error_names_the_lowest_resonant_level():
    p = SystemParams(0.0, 2.0, 0.0, -1.0, 0.0, 3, 4)
    assert resonance_error(p, (0, 2)) is None and resonance_error(p, ()) is None
    assert "level 1 on" in resonance_error(p, (2, 1, 0))
    # chi_ac = 0: every level shares delta_cd; damping lifts every resonance
    flat = SystemParams(0.0, 0.0, 0.0, 0.0, 0.0, 3, 4)
    assert "level 0 on" in resonance_error(flat, (2, 1, 0))
    assert resonance_error(SystemParams(0.0, 0.0, 0.0, 0.0, 0.1, 3, 4), (0, 1)) is None


def test_an_overflowing_chi_ac_is_named_and_level_zero_keeps_delta_cd():
    # 2 chi_ac overflows: level 0 is the bare resonator, every other level an error
    huge = SystemParams(0.0, -5.0, 0.0, 1.5e308, 1.0, 3, 4)
    assert dressed_detuning(huge, 0) == -5.0 and dressed_detuning(huge, 1) == np.inf
    assert overflow_error(huge, (0,)) is None and resonance_error(huge, (0,)) is None
    assert steady_state(huge, 7.0, 0) == steady_state(replace(huge, chi_ac=0.0), 7.0, 0)
    line = ("chi_ac_mhz = 1.5e+308 overflows the dressed detuning delta_cd + 2 chi_ac n of "
            "qubit level 1")
    assert overflow_error(huge, (2, 1, 0)) == resonance_error(huge, (0, 1)) == line
    with pytest.raises(ValueError, match=re.escape(line)):
        steady_state(huge, 7.0, 1)
    with pytest.raises(ValueError, match=re.escape(line)):
        effective.rates(huge, 1.0)


def test_an_overflowing_dressed_factor_names_its_largest_term():
    # every key below sqrt(max float) ~ 1.34e154 squares; each one above it is named
    base = SystemParams(0.0, -5.0, 0.0, -1.0, 1.0, 3, 4)
    assert overflow_error(replace(base, delta_cd=1e154, kappa_c=1e154), range(3)) is None

    def line(key, value, level):
        return (f"{key} = {value} overflows the dressed factor "
                f"(delta_cd + 2 chi_ac n)^2 + (kappa_c/2)^2 of qubit level {level}")

    assert overflow_error(replace(base, chi_ac=1e200), (2, 1, 0)) == line("chi_ac_mhz", "1e+200", 1)
    assert overflow_error(replace(base, chi_ac=1e200), (0,)) is None
    assert overflow_error(replace(base, delta_cd=-1e200), (1,)) == line("delta_cd_mhz", "-1e+200", 1)
    assert overflow_error(replace(base, kappa_c=1e200), (2,)) == line("kappa_c_mhz", "1e+200", 2)
    # the largest term is named: here 2 chi_ac n outweighs delta_cd
    both = replace(base, delta_cd=1e200, chi_ac=1e200)
    assert overflow_error(both, (1,)) == line("chi_ac_mhz", "1e+200", 1)
    # numpy integer levels give the same line, and no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert overflow_error(both, np.arange(1, 3)) == line("chi_ac_mhz", "1e+200", 1)
    assert resonance_error(both, (1,)) == line("chi_ac_mhz", "1e+200", 1)


def test_config_dict_parsing():
    cfg = {"delta_ad_mhz": -2005, "delta_cd_mhz": -5, "alpha_a_mhz": -330,
           "chi_ac_mhz": -1, "kappa_c_mhz": 1, "n_a": 2, "n_c": 14}
    p = params_from_dict(cfg)
    assert p.delta_ad == -2005 and p.n_c == 14
    with pytest.raises(ValueError, match="bogus"):
        params_from_dict({**cfg, "bogus": 1})
    with pytest.raises(ValueError, match="kappa_c_mhz"):
        params_from_dict({k: v for k, v in cfg.items() if k != "kappa_c_mhz"})

    pulse = pulse_from_dict({"kind": "square-gaussian", "omega_c_mhz": 50,
                             "tau_p_ns": 1000, "tau_r_ns": 100, "sigma_r_ns": 50})
    assert pulse.tau_r == 100.0
    with pytest.raises(ValueError, match="shape"):
        pulse_from_dict({"kind": "constant", "omega_c_mhz": 1, "shape": "x"})


def test_write_csv_format(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(out, {"k": [0, 1, 2], "x": np.array([-0.0, 1.0 / 3.0, -2.5e-20])})
    assert out.read_bytes() == b"k,x\r\n0,0\r\n1,0.333333333333\r\n2,-2.5e-20\r\n"
    write_csv(out, {"k": [0, 1, 2], "x": np.array([-0.0, 1.0 / 3.0, -2.5e-20])}, header=False)
    assert out.read_bytes().startswith(b"0,0\r\n")
    with pytest.raises(ValueError):
        write_csv(out, {"k": [0, 1], "x": [0.0]})


def rowwise_reference(path, columns: dict, header: bool = True) -> None:
    """The row-at-a-time writer write_csv replaced; its bytes are the contract."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(list(columns))
        for row in zip(*columns.values(), strict=True):
            w.writerow([f"{x + 0.0:.12g}" for x in row])


BLOCK = model._CSV_BLOCK_ROWS
EDGE_FLOATS = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"), 5e-324,
               -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 2.0**60, 1.0 / 3.0]


def drawn_column(kind: str, n_rows: int, rng: np.random.Generator):
    if kind == "bits":  # every exponent: subnormals, nan payloads of both signs, infinities
        return rng.integers(0, 2**64, n_rows, dtype=np.uint64).view(np.float64)
    if kind == "normal":
        return (rng.standard_normal(n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)).tolist()
    return rng.integers(-2**62, 2**62, n_rows).tolist()  # Python ints, some beyond 2**53


# random bit patterns include signalling NaNs, which raise the invalid flag in + 0.0
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kinds=st.lists(st.sampled_from(["bits", "normal", "int"]), min_size=1, max_size=12),
       n_rows=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1]) | st.integers(0, 3000),
       seed=st.integers(0, 2**32 - 1),
       edges=st.lists(st.floats(allow_subnormal=True) | st.integers(-2**70, 2**70), max_size=24),
       header=st.booleans())
@example(kinds=["bits", "int"], n_rows=BLOCK + 1, seed=0, edges=EDGE_FLOATS, header=True)
@example(kinds=["normal"] * 12, n_rows=2 * BLOCK, seed=1, edges=EDGE_FLOATS, header=False)
def test_write_csv_matches_rowwise_reference(tmp_path, kinds, n_rows, seed, edges, header):
    rng = np.random.default_rng(seed)
    columns = {f"c{j}": drawn_column(kind, n_rows, rng) for j, kind in enumerate(kinds)}
    names = list(columns)
    for j, value in enumerate(edges if n_rows else []):
        columns[names[j % len(names)]][(j * 7919) % n_rows] = value
    rowwise_reference(tmp_path / "ref.csv", columns, header=header)
    write_csv(tmp_path / "out.csv", columns, header=header)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def assert_rows_match_reference(tmp_path, values, n_cols: int = 4) -> None:
    """write_csv prints `values`, n_cols a row (the last row padded with zeros), as
    rowwise_reference does."""
    values = np.asarray(values, dtype=float)
    table = np.append(values, np.zeros(-len(values) % n_cols)).reshape(-1, n_cols)
    columns = {f"c{j}": table[:, j] for j in range(n_cols)}
    rowwise_reference(tmp_path / "ref.csv", {name: c.tolist() for name, c in columns.items()})
    write_csv(tmp_path / "out.csv", columns)
    out, ref = (tmp_path / "out.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes()
    if out != ref:  # name the first row that differs
        assert out.split(b"\r\n") == ref.split(b"\r\n")
    assert out == ref


def with_neighbours(values, ulps: int = 3) -> np.ndarray:
    """Each value, the `ulps` nearest floats on either side of it, and their negatives."""
    base = np.asarray(values, dtype=float)
    out = [base]
    for direction in (np.inf, -np.inf):
        near = base
        for _ in range(ulps):
            near = np.nextafter(near, direction)
            out.append(near)
    out = np.concatenate(out)
    return np.concatenate([out, -out])


# a 12-digit mantissa k, +-delta off the tie k + 0.5, at scale 10**j: where one
# rounding error in the kernel's scaling would pick the wrong neighbour
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.integers(10**11, 10**12 - 1), st.floats(-3e-3, 3e-3),
                          st.integers(-25, 25), st.booleans()), min_size=1, max_size=200))
def test_write_csv_matches_rowwise_reference_at_near_ties(tmp_path, ties):
    assert_rows_match_reference(tmp_path, [(-1.0 if negative else 1.0) * (k + 0.5 + delta) * 10.0**j
                                           for k, delta, j, negative in ties])


MANTISSAS = ["1", "1.5", "5", "1.23456789012", "1.00000000001", "9.99999999999",
             "9.9999999999949", "9.999999999995", "9.9999999999951"]
VALUE_CASES = {
    # 10**j and the floats next to it, from underflow to overflow
    "powers of ten": [float(f"1e{j}") for j in range(-330, 309)],
    # the largest 12-digit mantissa and a half: rounds up to the next power of ten
    "carry ties": [float(f"999999999999.5e{j}") for j in range(-340, 297)]
    + [float(f"999999999999.4999e{j}") for j in range(-340, 297)],
    # where the kernel hands over to "%.12g", both sides
    "fast-range edges": [1e-11, 9.999999999995e-12, 9.99999999999e-12, 1.00000000001e-11,
                         1e33, 9.999999999995e32, 9.99999999999e32, 1.00000000001e33],
    # fixed notation runs from e = -4 to e = 11; e = -5 and e = 12 are exponential
    "mode boundaries": [float(f"{m}e{e}") for e in (-6, -5, -4, -3, -1, 0, 1, 10, 11, 12, 13)
                        for m in MANTISSAS],
    "zeros, nan, inf and subnormals": [0.0, -0.0, float("nan"), -float("nan"), float("inf"),
                                       -float("inf"), 5e-324, 1e-310, 2.2250738585072014e-308,
                                       2.225073858507201e-308, 4.9406564584124654e-322],
}


@pytest.mark.parametrize("case", sorted(VALUE_CASES))
def test_write_csv_matches_rowwise_reference_at_edge_values(tmp_path, case):
    assert_rows_match_reference(tmp_path, with_neighbours(VALUE_CASES[case]), n_cols=5)


def test_write_csv_matches_rowwise_reference_on_a_seeded_sweep(tmp_path):
    # 10**6 values in rows of 40: bit patterns, magnitudes across and beyond the
    # kernel's range, near-ties, and short decimals with trailing zeros
    rng = np.random.default_rng(20240611)
    rows = 25_000
    bits = rng.integers(0, 2**64, (rows, 2), dtype=np.uint64).view(np.float64)
    wide = rng.choice([-1.0, 1.0], (rows, 14)) * 10.0 ** rng.uniform(-14.0, 36.0, (rows, 14))
    ties = ((rng.integers(10**11, 10**12, (rows, 10)) + 0.5 + rng.uniform(-3e-3, 3e-3, (rows, 10)))
            * 10.0 ** rng.integers(-25, 26, (rows, 10)))
    short = rng.integers(-10**6, 10**6, (rows, 14)) / 10.0 ** rng.integers(-8, 12, (rows, 14))
    with np.errstate(invalid="ignore"):  # signalling NaNs among the bit patterns
        assert_rows_match_reference(tmp_path, np.hstack([bits, wide, ties, short]).ravel(),
                                    n_cols=40)


def test_format_tables_match_a_plain_loop():
    dig, ntz, slot, mul, div = model._csv_tables()
    groups = [f"{g:04d}" for g in range(10000)] + [f"{g:04d}".rstrip("0") for g in range(10000)]
    assert dig.tobytes() == b"".join(bytes(c for ch in text.ljust(4, "\0") for c in (ord(ch), 0))
                                     for text in groups)
    assert ntz.tolist() == [0] * 10000 + [4 - len(text) for text in groups[10000:]]
    reference = []
    for negative in (0, 1):
        for last in (0, 1):
            for e in range(model._E_LO, model._E_HI + 1):
                for zeros in range(12):
                    text = bytearray(40)
                    text[0] = ord("-") if negative else 0
                    if -4 <= e < 12:
                        if e < 0:
                            text[1:2 - e] = b"0." + b"0" * (-e - 1)
                        for k in range(e + 1):
                            text[8 + 2 * k] = ord("0")
                        if 0 <= e < 11 - zeros:
                            text[9 + 2 * e] = ord(".")
                    else:
                        if zeros < 11:
                            text[9] = ord(".")
                        text[32:36] = b"e%+03d" % e
                    text[36:38] = b"\r\n" if last else b",\0"
                    reference.append(bytes(text))
    assert slot.tobytes() == b"".join(reference)
    for e, m, d in zip(range(model._E_LO, model._E_HI + 1), mul, div):
        assert (m, d) == ((float(10 ** (11 - e)), 1.0) if e <= 11 else (1.0, float(10 ** (e - 11))))


def test_format_kernel_needs_log10_only_to_within_one(tmp_path, monkeypatch):
    # a floor(log10 |x|) one off either way is corrected back before rounding
    values = with_neighbours(VALUE_CASES["mode boundaries"] + VALUE_CASES["fast-range edges"]
                             + np.geomspace(1e-11, 9e32, 997).tolist())
    log10 = np.log10
    for shift in (-0.3, 0.3):
        monkeypatch.setattr(model.np, "log10", lambda a, shift=shift: log10(a) + shift)
        assert_rows_match_reference(tmp_path, values)


def test_format_kernel_needs_its_scaled_value_only_within_the_tie_margin(tmp_path, monkeypatch):
    # scaling by the rounded reciprocal of 10**(e - 11), two roundings, moves y by up
    # to 2.3e-4 (the shipped scaling rounds once); what may round either way goes to "%.12g"
    dig, ntz, slot, mul, div = model._csv_tables()
    monkeypatch.setattr(model, "_csv_tables", lambda: (dig, ntz, slot, mul / div, div / div))
    rng = np.random.default_rng(5)
    values = ((rng.integers(10**11, 10**12, 4000) + 0.5 + rng.uniform(-3e-4, 3e-4, 4000))
              * 10.0 ** rng.integers(-25, 26, 4000))
    assert_rows_match_reference(tmp_path, values)


@pytest.mark.parametrize("columns, match", [
    ({"k": [0, 1], "x": [0.0]}, r"got \{'k': \(2,\), 'x': \(1,\)\}"),
    ({"k": [0, 1], "x": np.zeros((2, 2))}, r"'x': \(2, 2\)"),
    ({"x": np.zeros((3, 2))}, r"got \{'x': \(3, 2\)\}"),
    ({"x": 1.0}, r"got \{'x': \(\)\}"),
    ({}, r"got \{\}"),
    ({"k": [0, 1], "z": np.array([1.0, 2.0 + 1.0j])}, "real columns"),
    # header names the csv module would quote: the header row joins them as they are
    ({"k": [0, 1], "a,b": [0.0, 1.0]}, r"header names .* got \['a,b'\]"),
    ({"k": [0, 1], "": [0.0, 1.0]}, r"header names .* got \[''\]"),
])
def test_write_csv_rejects_malformed_columns(tmp_path, columns, match):
    out = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=match):
        write_csv(out, columns)
    assert not out.exists()
