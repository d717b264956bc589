import numpy as np
import pytest

from readoutmap.effective import effective_spectrum
from readoutmap import eigenstates
from readoutmap.eigenstates import (coherent_amplitudes, eigenstate_fidelity, exact_eigenvector,
                                    fidelity_sweep, perturbative_eigenstate, residual_norm,
                                    write_fidelity_csv)
from readoutmap.liouville import build_extended_hamiltonian, destroy, sector_indices
from readoutmap.model import SystemParams, detuning_l
from readoutmap.response import steady_state
from readoutmap.spectra import eigendecompose

SMALL = SystemParams(-20.0, -5.0, -3.3, -1.0, 1.0, 2, 8)


def test_coherent_amplitudes():
    vac = coherent_amplitudes(0.0, 5)
    assert np.array_equal(vac, [1.0, 0.0, 0.0, 0.0, 0.0])
    eta = 0.4 - 0.3j
    v = coherent_amplitudes(eta, 30)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    # lowering operator eigenvector property within truncation
    c = destroy(30)
    assert np.max(np.abs((c @ v)[:20] - eta * v[:20])) < 1e-12


def test_ground_pair_is_pure_coherent_product():
    eta = 0.3 + 0.2j
    states = [perturbative_eigenstate((0, 0), SMALL, eta, o) for o in (0, 1, 2)]
    for s in states[1:]:
        assert np.max(np.abs(s.vector - states[0].vector)) == 0.0
    # zero drive: bare Fock basis state
    bare = perturbative_eigenstate((1, 0), SMALL, 0.0, 2)
    expect = np.zeros(bare.vector.size)
    expect[0] = 1.0  # |0_cl, 0_cr> of the (1, 0) block
    assert np.max(np.abs(bare.vector - expect)) == 0.0


def test_first_order_correction_structure():
    eta = 0.25 - 0.1j
    s0 = perturbative_eigenstate((1, 0), SMALL, eta, 0)
    s1 = perturbative_eigenstate((1, 0), SMALL, eta, 1)
    # rebuild the expected unnormalized vector independently
    n_c = SMALL.n_c
    rl = coherent_amplitudes(eta, n_c)
    rr = coherent_amplitudes(np.conj(eta), n_c)
    base = np.kron(rl, rr)
    disp = destroy(n_c).conj().T - np.conj(eta) * np.eye(n_c)
    coeff = -2.0 * SMALL.chi_ac * eta / detuning_l(SMALL, 1)
    raw = base + coeff * np.kron(disp @ rl, rr)
    raw /= np.linalg.norm(raw)
    assert np.max(np.abs(s1.vector - raw)) < 1e-14
    assert np.max(np.abs(s0.vector - base / np.linalg.norm(base))) < 1e-14


def test_input_validation():
    with pytest.raises(ValueError, match="truncation"):
        perturbative_eigenstate((1, 0), SMALL, 3.0, 1)  # |eta|^2 = 9 >= n_c/4
    with pytest.raises(ValueError):
        perturbative_eigenstate((2, 0), SMALL, 0.1, 1)
    with pytest.raises(ValueError):
        perturbative_eigenstate((1, 0), SMALL, 0.1, 3)


def test_zero_drive_fidelity_is_exact():
    state = perturbative_eigenstate((1, 0), SMALL, 0.0, 0)
    assert eigenstate_fidelity(state, SMALL, 0.0) < 1e-10


def test_order_hierarchy_and_slope(eigenstate_rows):
    rows = eigenstate_rows
    omegas = sorted({r["omega_c_mhz"] for r in rows})
    by_point = {(r["omega_c_mhz"], r["order"]): r for r in rows}
    for w in omegas:
        i0 = by_point[(w, 0)]["infidelity"]
        i1 = by_point[(w, 1)]["infidelity"]
        i2 = by_point[(w, 2)]["infidelity"]
        assert i2 < i1 < i0
    inf0 = np.array([by_point[(w, 0)]["infidelity"] for w in omegas])
    slope = np.polyfit(np.log(omegas), np.log(inf0), 1)[0]
    assert abs(slope - 2.0) <= 0.4


def test_residual_decreases_with_drive(eigenstate_rows):
    rows = eigenstate_rows
    omegas = sorted({r["omega_c_mhz"] for r in rows})
    res2 = [next(r["residual_norm"] for r in rows
                 if r["omega_c_mhz"] == w and r["order"] == 2) for w in omegas]
    assert all(res2[i] < res2[i + 1] for i in range(len(res2) - 1))


def test_residual_definition():
    omega = 1.5
    eta_ss, _ = steady_state(SMALL, omega)
    state = perturbative_eigenstate((1, 0), SMALL, eta_ss, 2)
    res = residual_norm(state, SMALL, omega)
    assert 0.0 < res < 1.0  # small but nonzero at finite drive


def full_matvec_residual(state, params, omega_c):
    """|Hu v - lambda v| / |v| with the full doubled-space generator (reference)."""
    hu = build_extended_hamiltonian(params, omega_c)
    _, photon = steady_state(params, omega_c)
    n_al, n_ar = state.n_al, state.n_ar
    lam = (params.delta_ad * (n_al - n_ar)
           + 0.5 * params.alpha_a * (n_al * (n_al - 1) - n_ar * (n_ar - 1))
           + effective_spectrum(params, n_al, n_ar, photon))
    v = np.zeros(hu.shape[0], dtype=complex)
    v[sector_indices(params, n_al, n_ar)] = state.vector
    return float(np.linalg.norm(hu @ v - lam * v) / np.linalg.norm(v))


@pytest.mark.parametrize("labels", [(1, 0), (1, 1), (0, 0)])
def test_residual_on_the_sector_block_matches_full_matvec(labels):
    for omega in (0.7, 2.0):
        eta_ss, _ = steady_state(SMALL, omega)
        for order in (0, 1, 2):
            state = perturbative_eigenstate(labels, SMALL, eta_ss, order)
            ref = full_matvec_residual(state, SMALL, omega)
            assert abs(residual_norm(state, SMALL, omega) - ref) <= 1e-12 * ref


def full_space_infidelity(state, params, omega_c):
    """1 - |<pert|exact>|^2 with the eigenvector of the full doubled-space
    generator that overlaps the embedded ansatz most (reference)."""
    v = np.zeros((params.n_a * params.n_c) ** 2, dtype=complex)
    v[sector_indices(params, state.n_al, state.n_ar)] = state.vector
    es = eigendecompose(build_extended_hamiltonian(params, omega_c))
    exact = es.eigenvectors[:, int(np.argmax(np.abs(v.conj() @ es.eigenvectors)))]
    return float(1.0 - abs(np.vdot(v, exact)) ** 2)


@pytest.mark.parametrize("labels", [(1, 0), (1, 1), (0, 0)])
def test_fidelity_on_the_sector_block_matches_full_space(labels):
    for omega in (0.7, 2.0):
        eta_ss, _ = steady_state(SMALL, omega)
        for order in (0, 1, 2):
            state = perturbative_eigenstate(labels, SMALL, eta_ss, order)
            ref = full_space_infidelity(state, SMALL, omega)
            assert abs(eigenstate_fidelity(state, SMALL, omega) - ref) <= 1e-14


def test_small_infidelity_keeps_its_digits():
    # exact = (pert + eps w) / norm with a unit w orthogonal to pert has infidelity
    # eps^2 / (1 + eps^2); 1 - |<pert|exact>|^2 cancels to 11% off it here, at eps = 1e-7
    omega, eps = 2.0, 1e-7
    state = perturbative_eigenstate((1, 0), SMALL, steady_state(SMALL, omega)[0], 2)
    pert = state.vector
    w = np.random.default_rng(7).normal(size=pert.size) * (1.0 + 0.5j)
    w -= np.vdot(pert, w) * pert
    w /= np.linalg.norm(w)
    exact = (pert + eps * w) / np.sqrt(1.0 + eps**2)
    got = eigenstate_fidelity(state, SMALL, omega, exact=exact)
    assert abs(got / (eps**2 / (1.0 + eps**2)) - 1.0) <= 1e-8


def test_double_excited_state_residual_only():
    # the (1,1) state is built (with the cross excitation) and checked through
    # its residual; its eigenvalue offset is zero so the residual is all error
    omega = 1.0
    eta_ss, _ = steady_state(SMALL, omega)
    s2 = perturbative_eigenstate((1, 1), SMALL, eta_ss, 2)
    s0 = perturbative_eigenstate((1, 1), SMALL, eta_ss, 0)
    assert residual_norm(s2, SMALL, omega) < residual_norm(s0, SMALL, omega)


@pytest.mark.parametrize("labels", [(1, 0), (1, 1)])
def test_fidelity_sweep_builds_each_block_once(monkeypatch, labels):
    omegas = [0.7, 2.0]
    # the public per-state route: a block and a closed-form eigenvalue per call
    expected = []
    for omega in omegas:
        eta_ss, _ = steady_state(SMALL, omega)
        states = [perturbative_eigenstate(labels, SMALL, eta_ss, o) for o in (0, 1, 2)]
        exact = exact_eigenvector(states[-1], SMALL, omega)
        expected += [{"omega_c_mhz": omega, "order": s.order,
                      "infidelity": eigenstate_fidelity(s, SMALL, omega, exact=exact),
                      "residual_norm": residual_norm(s, SMALL, omega)} for s in states]
    calls = {"sector_generator": 0, "closed_form_eigenpair": 0}
    for name in calls:
        def counted(*args, _f=getattr(eigenstates, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(eigenstates, name, counted)
    assert fidelity_sweep(SMALL, omegas, labels=labels) == expected
    assert calls == {"sector_generator": len(omegas), "closed_form_eigenpair": len(omegas)}


def test_fidelity_csv(tmp_path, eigenstate_rows):
    out = tmp_path / "fid.csv"
    write_fidelity_csv(out, eigenstate_rows)
    lines = out.read_text().splitlines()
    assert lines[0] == "omega_c_mhz,order,infidelity,residual_norm"
    assert len(lines) == len(eigenstate_rows) + 1
