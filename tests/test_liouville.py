import numpy as np
import pytest

from readoutmap import liouville
from readoutmap.liouville import (AccuracyError, CollapseTerm, VectorizedState, basis_index,
                                  build_extended_hamiltonian, build_superoperator, destroy,
                                  kerr_hamiltonian, propagate, qubit_coherence,
                                  single_copy_operators, trace_functional, vectorize,
                                  write_matrix_csv)
from readoutmap.model import PulseSpec, SystemParams

SMALL = SystemParams(delta_ad=-20.0, delta_cd=-5.0, alpha_a=-3.3, chi_ac=-1.0,
                     kappa_c=1.0, n_a=2, n_c=5)


def doubled_copy_generator(h, gamma, c):
    """Independent assembly of -i(H_l - H_r) + dissipator through the
    left/right copy definitions O_l = O (x) I, O_r = I (x) O* (test oracle)."""
    m = h.shape[0]
    eye = np.eye(m)
    h_l, h_r = np.kron(h, eye), np.kron(eye, h.conj())
    c_l, c_r = np.kron(c, eye), np.kron(eye, c.conj())
    return (-1j * (h_l - h_r)
            + gamma * (c_l @ c_r
                       - 0.5 * c_l.conj().T @ c_l
                       - 0.5 * c_r.conj().T @ c_r))


def test_zero_drive_diagonal_entries():
    hu = build_extended_hamiltonian(SMALL, 0.0).data
    idx = basis_index(SMALL, 1, 0, 0, 0)
    assert hu[idx, idx] == SMALL.delta_ad
    vac = basis_index(SMALL, 0, 0, 0, 0)
    assert hu[vac, vac] == 0.0
    # only the photon-cascade couplings survive off the diagonal at zero drive
    _, c = single_copy_operators(SMALL)
    cascade = 1j * SMALL.kappa_c * np.kron(c, c.conj())
    assert np.max(np.abs(hu - np.diag(np.diag(hu)) - cascade)) == 0.0


def test_dimension_bookkeeping():
    hu = build_extended_hamiltonian(SMALL, 3.0)
    assert hu.dim == (SMALL.n_a * SMALL.n_c) ** 2
    assert hu.data.shape == (hu.dim, hu.dim)


def test_superoperator_trivial_cases():
    m = 4
    zero = build_superoperator(np.zeros((m, m)), [])
    assert np.all(zero.data == 0.0)
    c = destroy(m)
    sup = build_superoperator(np.zeros((m, m)), [CollapseTerm(2.0, c)]).data
    # vacuum is stationary: the generator annihilates vec(|0><0|)
    vac = np.zeros(m * m)
    vac[0] = 1.0
    assert np.max(np.abs(sup @ vac)) == 0.0
    with pytest.raises(ValueError, match="Hermitian"):
        build_superoperator(np.array([[0.0, 1.0], [0.0, 0.0]]), [])
    with pytest.raises(ValueError, match="shape"):
        build_superoperator(np.zeros((3, 3)), [CollapseTerm(1.0, destroy(4))])
    with pytest.raises(ValueError):
        CollapseTerm(-1.0, c)


def test_vectorization_oracle_random_instances():
    rng = np.random.default_rng(7)
    m = SMALL.n_a * SMALL.n_c
    for _ in range(5):
        h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        h = (h + h.conj().T) / 2.0
        c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        gamma = float(rng.uniform(0.1, 2.0))
        sup = build_superoperator(h, [CollapseTerm(gamma, c)]).data
        assert np.max(np.abs(sup - doubled_copy_generator(h, gamma, c))) < 1e-12


def test_vectorization_oracle_kerr_model():
    hu = build_extended_hamiltonian(SMALL, 7.0)
    h = kerr_hamiltonian(SMALL, 7.0)
    _, c = single_copy_operators(SMALL)
    sup = build_superoperator(h, [CollapseTerm(SMALL.kappa_c, c)])
    assert np.max(np.abs(-1j * hu.data - sup.data)) < 1e-12


def test_trace_functional_annihilates_generator():
    for omega in (0.0, 7.0):
        hu = build_extended_hamiltonian(SMALL, omega).data
        w = trace_functional(SMALL.n_a * SMALL.n_c)
        assert np.max(np.abs(w @ (-1j * hu))) < 1e-12


def test_zero_drive_vacuum_resonator_states_are_eigenvectors():
    hu = build_extended_hamiltonian(SMALL, 0.0).data
    aa = SMALL.alpha_a
    for n_al in range(SMALL.n_a):
        for n_ar in range(SMALL.n_a):
            e = np.zeros(hu.shape[0])
            e[basis_index(SMALL, n_al, 0, n_ar, 0)] = 1.0
            lam = (SMALL.delta_ad * (n_al - n_ar)
                   + 0.5 * aa * (n_al * (n_al - 1) - n_ar * (n_ar - 1)))
            assert np.max(np.abs(hu @ e - lam * e)) < 1e-12


def test_propagate_identity_with_zero_generator():
    p = SystemParams(0, 0, 0, 0, 0, 2, 2)
    rho0 = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    rho0 = np.kron(rho0, np.diag([1.0, 0.0])).astype(complex)
    st = VectorizedState(vec=vectorize(rho0), dims=(2, 2))
    res = propagate(st, p, PulseSpec("constant", 0.0), 100.0, 1.0)
    assert np.max(np.abs(res.states[-1].vec - st.vec)) == 0.0


def test_propagate_single_photon_decay():
    p = SystemParams(0, 0, 0, 0, 2.0, 2, 4)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[1, 1] = 1.0  # |0_a, 1_c>
    st = VectorizedState(vec=vectorize(rho0), dims=(2, 4))
    res = propagate(st, p, PulseSpec("constant", 0.0), 500.0, 0.5)
    pop = np.array([s.to_density_matrix()[1, 1].real for s in res.states])
    exact = np.exp(-2.0 * np.pi * p.kappa_c * np.asarray(res.times) * 1e-3)
    assert np.max(np.abs(pop - exact)) < 1e-6
    assert res.max_hermiticity_drift < 1e-8
    assert res.max_trace_drift < 1e-9


def test_propagate_time_dependent_pulse_preserves_structure():
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 4)
    pulse = PulseSpec("square-gaussian", 3.0, tau_p=200.0, tau_r=50.0, sigma_r=25.0)
    plus = np.zeros(8, dtype=complex)
    plus[0] = plus[4] = 1.0 / np.sqrt(2.0)
    rho0 = np.outer(plus, plus.conj())
    st = VectorizedState(vec=vectorize(rho0), dims=(2, 4))
    res = propagate(st, p, pulse, 300.0, 0.05)
    assert res.max_trace_drift < 1e-8
    assert res.max_hermiticity_drift < 1e-8
    assert abs(res.states[-1].trace() - 1.0) < 1e-8


def test_propagate_hermiticity_gate(monkeypatch):
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 4)
    coherence = basis_index(p, 1, 0, 0, 0)  # |1_a 0_c><0_a 0_c|: off-diagonal, trace-free

    def skewed(params, omega_c_value):
        hu = build_extended_hamiltonian(params, omega_c_value).data.copy()
        hu[coherence, coherence] += 0.01j  # grows rho_10 but not rho_01
        return liouville.ExtendedOperator(data=hu, dim=hu.shape[0])

    monkeypatch.setattr(liouville, "build_extended_hamiltonian", skewed)
    plus = np.zeros(8, dtype=complex)
    plus[0] = plus[4] = 1.0 / np.sqrt(2.0)
    st = VectorizedState(vec=vectorize(np.outer(plus, plus.conj())), dims=(2, 4))
    with pytest.raises(AccuracyError, match="Hermiticity"):
        propagate(st, p, PulseSpec("constant", 0.0), 100.0, 0.05)


def test_propagate_step_bound():
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 4)
    with pytest.raises(ValueError, match="stability"):
        propagate(VectorizedState(vec=np.zeros(64, complex), dims=(2, 4)),
                  p, PulseSpec("constant", 3.0), 10.0, 5.0)


def test_qubit_coherence_partial_trace():
    n_a, n_c = 2, 3
    rho = np.zeros((6, 6), dtype=complex)
    rho[1 * n_c + 0, 0 * n_c + 0] = 0.3
    rho[1 * n_c + 2, 0 * n_c + 2] = 0.2j
    st = VectorizedState(vec=vectorize(rho), dims=(n_a, n_c))
    assert qubit_coherence(st) == pytest.approx(0.3 + 0.2j)


def test_matrix_csv_dump(tmp_path):
    hu = build_extended_hamiltonian(SystemParams(0, -5, 0, -1, 1, 2, 2), 0.0)
    out = tmp_path / "hu.csv"
    write_matrix_csv(out, hu)
    lines = out.read_text().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) - 1 == int(np.count_nonzero(hu.data))
    # deterministic across reruns
    first = out.read_text()
    write_matrix_csv(out, hu)
    assert out.read_text() == first
