import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from readoutmap import model
from readoutmap.model import (PulseSpec, SystemParams, envelope_derivatives, level_detuning,
                              params_from_dict, pulse_from_dict, sg_envelope, validity_margin,
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
        ld = level_detuning(p, n, n)
        assert ld.value_r == np.conj(ld.value_l)
        assert ld.value_l == p.delta_cd - 0.5j * p.kappa_c + 2 * p.chi_ac * n


def test_validity_margin():
    p = SystemParams(-2005, -5, -330, -1, 1, 2, 14)
    assert validity_margin(p, 10.0) == pytest.approx(0.283573857722881, rel=1e-12)
    zero_chi = SystemParams(0, -5, 0, 0, 1, 2, 2)
    assert validity_margin(zero_chi, 10.0) == 0.0
    # drive between the two dressed resonances: gap product collapses to a square
    mid = SystemParams(0, 1.0, 0, -1.0, 2.0, 2, 2)
    expected = abs(mid.chi_ac * 7.0) / (mid.chi_ac**2 + (mid.kappa_c / 2.0) ** 2)
    assert validity_margin(mid, 7.0) == pytest.approx(expected, rel=1e-12)
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
