import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readoutmap.effective import (adiabatic_correlations, choi_cptp_check, dephasing_choi,
                                  effective_lindblad, effective_map_apply, effective_spectrum,
                                  gambetta_rates, rates, spectrum_matrix, stark_orders,
                                  write_rates_sweep_csv, write_spectrum_grid_csv)
from readoutmap.model import SystemParams, detuning_l, detuning_r

BENCH = SystemParams(-2005.0, -5.0, -330.0, -1.0, 1.0, 2, 14)
GRID10 = SystemParams(0.0, -5.0, 0.0, -1.0, 1.0, 3, 2)  # spectrum-grid working point


def generator_eigenvalue(params, n_al, n_ar, photon):
    """E_{n_al,n_ar} assembled term by term from the effective generator:
    first-order shift, level-dressed second-order terms, and the cross term
    (an independent cross-check of the closed form)."""
    chi, k = params.chi_ac, params.kappa_c
    dl = detuning_l(params, n_al)
    dr = detuning_r(params, n_ar)
    return (2.0 * chi * photon * (n_al - n_ar)
            - 4.0 * chi**2 * photon * (n_al**2 / dl - n_ar**2 / dr)
            + 4.0j * chi**2 * k * photon * n_al * n_ar / (dl * dr))


def scalar_reference(params, n_al, n_ar, photon):
    """The per-entry closed form effective_spectrum replaced (squares through
    **, one entry per call); an independent oracle for the broadcasting one."""
    if photon < 0:
        raise ValueError("photon number must be >= 0")
    d, chi, k = params.delta_cd, params.chi_ac, params.kappa_c
    half_k_sq = (k / 2.0) ** 2
    dl = d + 2.0 * chi * n_al
    dr = d + 2.0 * chi * n_ar
    den = (dl**2 + half_k_sq) * (dr**2 + half_k_sq)
    if den == 0.0:
        n = n_al if dl**2 + half_k_sq == 0.0 else n_ar
        raise ValueError(f"delta_cd = {d + 0.0:g} MHz puts qubit level {n} on its undamped "
                         f"dressed resonance (delta_cd + 2 chi_ac n = 0, kappa_c = 0)")
    base = d**2 + half_k_sq
    diff = float(n_al - n_ar)
    re = 2.0 * chi * base * (dl * dr + half_k_sq) * diff * photon / den
    im = -2.0 * chi**2 * k * base * diff**2 * photon / den
    return complex(re, im)


def loop_reference(params, levels, photon):
    """The per-entry double loop spectrum_matrix replaced."""
    return np.array([[scalar_reference(params, m, n, photon) for n in range(levels)]
                     for m in range(levels)])


def error_text(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{fn.__name__} raised no ValueError")


@settings(max_examples=200, deadline=None)
@given(delta_cd=st.floats(-100.0, 100.0), chi=st.floats(-5.0, 5.0), kappa=st.floats(0.01, 20.0),
       levels=st.integers(1, 7), photon=st.floats(0.0, 50.0))
def test_spectrum_matrix_entries_are_the_scalar_calls(delta_cd, chi, kappa, levels, photon):
    p = SystemParams(0.0, delta_cd, 0.0, chi, kappa, 2, 2)
    mat = spectrum_matrix(p, levels, photon)
    scalar = np.array([[effective_spectrum(p, m, n, photon) for n in range(levels)]
                       for m in range(levels)])
    assert mat.shape == (levels, levels) and mat.dtype == complex
    assert np.array_equal(mat, scalar)
    ref = loop_reference(p, levels, photon)
    assert np.all(np.abs(mat - ref) <= 1e-15 * np.abs(ref))
    # E_nn = 0 and E_mn = -conj(E_nm), exactly
    assert np.all(np.diagonal(mat) == 0.0)
    assert np.array_equal(mat, -mat.conj().T)


@settings(max_examples=100, deadline=None)
@given(chi=st.sampled_from([0.0, 1.0, -1.0]) | st.floats(0.05, 5.0) | st.floats(-5.0, -0.05),
       singular=st.integers(0, 6), extra=st.integers(1, 4), photon=st.floats(0.0, 50.0))
@example(chi=0.0, singular=2, extra=1, photon=1.0)  # every level singular: name level 0
def test_spectrum_matrix_names_the_lowest_singular_level(chi, singular, extra, photon):
    # kappa_c = 0 and delta_cd + 2 chi_ac n = 0 at n = singular (at every n if chi_ac = 0)
    p = SystemParams(0.0, -(2.0 * chi * singular), 0.0, chi, 0.0, 2, 2)
    levels = singular + extra
    text = error_text(spectrum_matrix, p, levels, photon)
    assert text == error_text(loop_reference, p, levels, photon)
    assert f"qubit level {0 if chi == 0.0 else singular} on its undamped" in text


def test_spectrum_underflow_without_a_resonant_level_is_a_clear_error():
    # no level's dressed factor is 0 (delta_cd^2 = 1e-200), but their product underflows
    p = SystemParams(0.0, 1e-100, 0.0, 0.0, 0.0, 2, 2)
    for call in (lambda: effective_spectrum(p, 1, 0, 1.0), lambda: spectrum_matrix(p, 2, 1.0)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == ("delta_cd = 1e-100 MHz: a product of two dressed factors "
                                  "underflows to 0, so the effective spectrum is out of float "
                                  "range")


def random_params(rng):
    return SystemParams(0.0, float(rng.uniform(-60, 60)), 0.0,
                        float(rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0])),
                        float(rng.uniform(0.05, 10.0)), 4, 2)


def test_adiabatic_correlations_values():
    a_ll, a_rr, b, c = adiabatic_correlations(GRID10, 1, 0, 0.0)
    assert a_ll == 0.0 and a_rr == 0.0 and b == 0.0 and c == 0.0
    a_ll, a_rr, b, c = adiabatic_correlations(GRID10, 1, 1, 10.0)
    assert a_ll == pytest.approx(-1.4213197969543 + 0.1015228426396j, rel=1e-12)
    assert a_rr == pytest.approx(np.conj(a_ll), rel=1e-12)
    assert b == c
    with pytest.raises(ValueError):
        adiabatic_correlations(GRID10, 1, 0, -1.0)
    degenerate = SystemParams(0.0, 2.0, 0.0, -1.0, 0.0, 2, 2)
    with pytest.raises(ValueError, match="^delta_cd = 2 MHz puts qubit level 1 on its undamped "
                       r"dressed resonance \(delta_cd \+ 2 chi_ac n = 0, kappa_c = 0\)$"):
        adiabatic_correlations(degenerate, 1, 0, 1.0)


@pytest.mark.parametrize("photon", [-1.0, np.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("call", [
    lambda photon: adiabatic_correlations(GRID10, 1, 0, photon),
    lambda photon: effective_spectrum(GRID10, 1, 0, photon),
    lambda photon: effective_lindblad(GRID10, photon),
    lambda photon: rates(GRID10, photon),
], ids=["adiabatic_correlations", "effective_spectrum", "effective_lindblad", "rates"])
def test_photon_number_must_be_a_number_at_least_zero(call, photon):
    # a NaN photon number fails the check too, not slip past "photon < 0"
    with pytest.raises(ValueError, match="photon number must be >= 0"):
        call(photon)


def test_spectrum_entry_values():
    assert effective_spectrum(GRID10, 1, 1, 10.0) == 0.0
    e10 = effective_spectrum(GRID10, 1, 0, 10.0)
    assert e10 == pytest.approx(-14.3147208122 - 0.4060913706j, rel=1e-10)
    e01 = effective_spectrum(GRID10, 0, 1, 10.0)
    assert e01 == -np.conj(e10)


def test_spectrum_matches_generator_assembly():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = random_params(rng)
        m, n = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        ph = float(rng.uniform(0.0, 30.0))
        closed = effective_spectrum(p, m, n, ph)
        term_by_term = generator_eigenvalue(p, m, n, ph)
        assert abs(closed - term_by_term) <= 1e-12 * max(1.0, abs(closed))


def test_spectrum_property_draws():
    rng = np.random.default_rng(3)
    for _ in range(500):
        p = random_params(rng)
        ph = float(rng.uniform(0.0, 20.0))
        m, n = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        e_mn = effective_spectrum(p, m, n, ph)
        e_nm = effective_spectrum(p, n, m, ph)
        if m == n:
            assert e_mn == 0.0
        else:
            assert abs(e_mn + np.conj(e_nm)) <= 1e-12 * max(1.0, abs(e_mn))
            if ph > 0:
                assert e_mn.imag < 0.0


def test_rates_and_identity():
    pair = rates(BENCH, 1.0)
    assert pair.stark == pytest.approx(-1.4314720812182742, rel=1e-14)
    assert pair.dephasing == pytest.approx(0.04060913705583756, rel=1e-14)
    entry = effective_spectrum(BENCH, 1, 0, 1.0)
    assert pair.stark == entry.real and pair.dephasing == -entry.imag
    zero_chi = SystemParams(0.0, -5.0, 0.0, 0.0, 1.0, 2, 2)
    assert rates(zero_chi, 3.0) == rates(zero_chi, 0.0)
    # dephasing is tied to the second-order shift
    first, second = stark_orders(BENCH, 1.0)
    assert first + second == pytest.approx(pair.stark, rel=1e-13)
    chain = -0.5 * BENCH.kappa_c / (BENCH.delta_cd + 2 * BENCH.chi_ac) * second
    assert chain == pytest.approx(pair.dephasing, rel=1e-13)


def test_crosstalk_scale_rates():
    cross = SystemParams(-2050.0, -50.0, -330.0, -1.0, 5.0, 2, 6)
    pair = rates(cross, 0.0201137157)
    assert pair.stark == pytest.approx(-0.0386838, rel=1e-5)
    assert -0.045 < pair.stark < -0.035  # tens of kHz
    assert pair.dephasing == pytest.approx(7.4214e-05, rel=1e-4)


def test_gambetta_equivalence():
    zero_chi = SystemParams(0.0, -5.0, 0.0, 0.0, 1.0, 2, 2)
    assert gambetta_rates(zero_chi, 10.0) == 0.0
    split = dict(delta_ad=0.0, alpha_a=0.0, chi_ac=-2.0, kappa_c=1.0, n_a=2, n_c=2)
    worst = 0.0
    for d in np.linspace(-12.0, 8.0, 100):
        ours_params = SystemParams(delta_cd=float(d), **split)
        shifted = SystemParams(delta_cd=float(d) + split["chi_ac"], **split)
        for omega in np.linspace(0.5, 20.0, 100):
            n_ground = (omega / 2.0) ** 2 / (d**2 + 0.25)
            ours = rates(ours_params, n_ground).dephasing
            worst = max(worst, abs(gambetta_rates(shifted, omega) / ours - 1.0))
    assert worst < 1e-12
    with pytest.raises(ValueError):
        gambetta_rates(SystemParams(0, -5, 0, -1, 0.0, 2, 2), 1.0)


def test_effective_lindblad():
    lb = effective_lindblad(BENCH, 0.0)
    assert np.all(lb.h_values == 0.0) and np.all(lb.c_values == 0.0)
    lb = effective_lindblad(BENCH, 0.7)
    pair = rates(BENCH, 0.7)
    assert lb.c_values[0] == 0.0
    assert np.isrealobj(lb.h_values)
    assert abs(lb.c_values[1]) ** 2 / 2.0 == pytest.approx(pair.dephasing, rel=1e-13)
    assert lb.h_values[1] == pytest.approx(pair.stark, rel=1e-13)


def test_effective_map_apply():
    rng = np.random.default_rng(5)
    d = 3
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho0 = m @ m.conj().T
    rho0 /= np.trace(rho0).real
    t = np.linspace(0.0, 2000.0, 401)
    photon = 0.5 * (1.0 - np.exp(-t / 300.0))
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 1.0, 3, 2)
    rho_t = effective_map_apply(rho0, p, photon, t)
    # t = 0 is the identity; diagonals are conserved at all times
    assert np.max(np.abs(rho_t[0] - rho0)) == 0.0
    for i in (100, 400):
        assert np.max(np.abs(np.diagonal(rho_t[i]) - np.diagonal(rho0))) == 0.0
    # |rho_10(t)| decays with the integrated dephasing rate
    gamma_per = rates(p, 1.0).dephasing
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (photon[1:] + photon[:-1]) * np.diff(t)))) * 1e-3
    expected = np.abs(rho0[1, 0]) * np.exp(-2.0 * np.pi * gamma_per * integral)
    assert np.max(np.abs(np.abs(rho_t[:, 1, 0]) - expected)) < 1e-12
    with pytest.raises(ValueError, match="Hermitian"):
        effective_map_apply(np.array([[0.0, 1.0], [0.0, 0.0]]), p, photon, t)


def test_effective_map_grid_convergence():
    # trapezoid accumulation: doubling the grid shrinks the change ~4x
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 1.0, 2, 2)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    end = 2000.0
    phot = lambda t: 0.5 * (1.0 - np.exp(-t / 300.0))
    finals = []
    for n_pts in (201, 401, 801):
        t = np.linspace(0.0, end, n_pts)
        finals.append(effective_map_apply(rho0, p, phot(t), t)[-1][1, 0])
    change1 = abs(finals[1] - finals[0])
    change2 = abs(finals[2] - finals[1])
    assert change2 < change1 / 3.0
    assert change2 < 1e-4


def test_choi_positivity_and_mutant():
    assert choi_cptp_check(GRID10, 10.0, 0.0, levels=3) >= -1e-12
    for t_us in (0.01, 0.1, 1.0):
        assert choi_cptp_check(GRID10, 10.0, t_us, levels=3) >= -1e-10
    # flipping the sign of the imaginary part turns decay into gain: not CP
    mutant = spectrum_matrix(GRID10, 3, 10.0).conj()
    assert np.linalg.eigvalsh(dephasing_choi(mutant, 0.1)).min() < -1e-6
    with pytest.raises(ValueError):
        choi_cptp_check(GRID10, 10.0, -1.0)


def test_choi_matches_elementwise_loop():
    spec = spectrum_matrix(GRID10, 3, 10.0)
    d = spec.shape[0]
    phi = np.exp(-2j * np.pi * spec * 0.1)
    ref = np.zeros((d * d, d * d), dtype=complex)
    for m in range(d):
        for n in range(d):
            ref[m * d + m, n * d + n] = phi[m, n]
    assert np.array_equal(dephasing_choi(spec, 0.1), ref)


def test_dephasing_peak_structure():
    # overlapping dressed resonances: single peak midway between them
    omega = 10.0
    narrow = dict(delta_ad=0.0, alpha_a=0.0, chi_ac=-0.1, kappa_c=1.0, n_a=2, n_c=2)
    grid = np.linspace(-1.0, 1.2, 2201)
    gam = np.array([rates(SystemParams(delta_cd=float(d), **narrow),
                          (omega / 2.0) ** 2 / (d**2 + 0.25)).dephasing for d in grid])
    peak = grid[np.argmax(gam)]
    assert abs(peak - 0.1) <= grid[1] - grid[0]
    # resolved resonances: the peak splits
    wide = dict(delta_ad=0.0, alpha_a=0.0, chi_ac=-2.0, kappa_c=1.0, n_a=2, n_c=2)
    grid = np.linspace(-8.0, 12.0, 4001)
    gam = np.array([rates(SystemParams(delta_cd=float(d), **wide),
                          (omega / 2.0) ** 2 / (d**2 + 0.25)).dephasing for d in grid])
    interior = (gam[1:-1] > gam[:-2]) & (gam[1:-1] > gam[2:])
    assert int(np.sum(interior)) == 2


def test_csv_writers(tmp_path):
    out = tmp_path / "sweep.csv"
    write_rates_sweep_csv(out, [(1.0, 2.0, 3.0, 4.0, 5.0)])
    assert out.read_text().splitlines()[0] == "delta_cd_mhz,gamma_phi_mhz,stark_mhz,n_ground,n_excited"
    out2 = tmp_path / "grid.csv"
    write_spectrum_grid_csv(out2, GRID10, 3, 10.0)
    lines = out2.read_text().splitlines()
    assert lines[0] == "n_al,n_ar,re_E,im_E"
    assert len(lines) == 10
    diag = [ln for ln in lines[1:] if ln.split(",")[0] == ln.split(",")[1]]
    assert all(float(ln.split(",")[2]) == 0.0 and float(ln.split(",")[3]) == 0.0 for ln in diag)
