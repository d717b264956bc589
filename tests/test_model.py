import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from readoutmap import model
from readoutmap.model import (PulseSpec, SystemParams, constant_envelope, detuning_l,
                              detuning_r, envelope_derivatives, params_from_dict,
                              pulse_from_dict, sg_envelope, truncation_error, validity_margin,
                              write_csv)

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
    level = constant_envelope(pulse, t0, t1)
    # None exactly when the closed interval meets a ramp, branch points included
    assert (level is None) == any(t0 <= hi and t1 >= lo for lo, hi in ramps)
    if level is not None:
        amp = pulse.omega_c * sg_envelope(np.arange(2 * k, 2 * (k + n) + 1) * half, pulse)
        # bit for bit, signed zeros included
        assert amp.tobytes() == np.full(amp.shape, pulse.omega_c * level).tobytes()


def test_truncation_error_is_one_rule_at_a_quarter_of_n_c():
    assert truncation_error(2.4999, 10) is None
    assert "n_c/4 = 2.5" in truncation_error(2.5, 10)
    assert "n_c = 10" in truncation_error(float("inf"), 10)


def test_derivatives_trivial_cases():
    const = PulseSpec("constant", 10.0)
    assert envelope_derivatives(37.0, const, 1) == 0.0
    assert envelope_derivatives(SG.tau_p / 2.0, SG, 1) == 0.0
    assert envelope_derivatives(SG.tau_p / 2.0, SG, 2) == 0.0
    with pytest.raises(ValueError):
        envelope_derivatives(1.0, SG, 4)
    with pytest.raises(ValueError):
        envelope_derivatives(1.0, SG, 0)


def test_first_derivative_matches_finite_difference_at_half_ramp():
    t = SG.tau_r / 2.0
    h = 5e-3
    fd = (sg_envelope(t + h, SG) - sg_envelope(t - h, SG)) / (2.0 * h)
    an = envelope_derivatives(t, SG, 1)
    assert abs(an - fd) / abs(fd) < 1e-8


@pytest.mark.parametrize("order", [1, 2, 3])
def test_derivatives_match_finite_differences_on_grid(order):
    # 1000 interior ramp points, away from the branch boundaries
    t = np.concatenate([np.linspace(5.0, SG.tau_r - 5.0, 500),
                        np.linspace(SG.tau_p - SG.tau_r + 5.0, SG.tau_p - 5.0, 500)])
    f = lambda x: sg_envelope(x, SG)
    if order == 1:
        h = 0.05
        fd = (f(t + h) - f(t - h)) / (2.0 * h)
    elif order == 2:
        h = 0.05
        fd = (f(t + h) - 2.0 * f(t) + f(t - h)) / h**2
    else:
        # Richardson-extrapolated third difference (the plain stencil's h^2
        # error does not reach 1e-6 before roundoff kicks in)
        def third(h):
            return (-f(t - 2 * h) + 2.0 * f(t - h) - 2.0 * f(t + h) + f(t + 2 * h)) / (2.0 * h**3)
        h = 0.1
        fd = (4.0 * third(h) - third(2.0 * h)) / 3.0
    an = envelope_derivatives(t, SG, order)
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


@pytest.mark.parametrize("columns, match", [
    ({"k": [0, 1], "x": [0.0]}, r"got \{'k': \(2,\), 'x': \(1,\)\}"),
    ({"k": [0, 1], "x": np.zeros((2, 2))}, r"'x': \(2, 2\)"),
    ({"x": np.zeros((3, 2))}, r"got \{'x': \(3, 2\)\}"),
    ({"x": 1.0}, r"got \{'x': \(\)\}"),
    ({}, r"got \{\}"),
    ({"k": [0, 1], "z": np.array([1.0, 2.0 + 1.0j])}, "real columns"),
])
def test_write_csv_rejects_malformed_columns(tmp_path, columns, match):
    out = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=match):
        write_csv(out, columns)
    assert not out.exists()
