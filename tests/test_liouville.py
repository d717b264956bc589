from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readoutmap import cli, eigenstates, liouville, response, spectra
from readoutmap.eigenstates import coherent_amplitudes
from readoutmap.liouville import (AccuracyError, VectorizedState, basis_index,
                                  build_extended_hamiltonian, destroy, propagate, qubit_block,
                                  sector_generator, sector_indices, vectorize)
from readoutmap.model import PulseSpec, SystemParams, constant_envelope, sg_envelope
from readoutmap.response import solve_eta
from fullspace import (CollapseTerm, build_superoperator, kerr_hamiltonian,
                       single_copy_operators, trace_functional)

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


def kron_doubling(params, omega_c_value):
    """Hu by Kronecker doubling of the full single-copy Kerr Hamiltonian (test
    reference: every sector block must equal its slice exactly)."""
    h = kerr_hamiltonian(params, omega_c_value)
    _, c = single_copy_operators(params)
    num_c = c.conj().T @ c
    eye = np.eye(h.shape[0])
    return (np.kron(h, eye) - np.kron(eye, h.conj())
            + 1j * params.kappa_c * (np.kron(c, c.conj())
                                     - 0.5 * np.kron(num_c, eye)
                                     - 0.5 * np.kron(eye, num_c.T)))


def kron_drive(params):
    """Full doubled drive quadrature by Kronecker doubling (test reference)."""
    _, c = single_copy_operators(params)
    x = 0.5 * (c + c.conj().T)
    eye = np.eye(x.shape[0])
    return np.kron(x, eye) - np.kron(eye, x.conj())


def dense_rk4_reference(state0, params, pulse, t_end, dt, sample_every):
    """Stepwise RK4 of the whole doubled vector under Hu(t), one step at a time,
    with the drive rescaled by the envelope at each substep (test oracle)."""
    rate = -2.0j * np.pi * 1.0e-3
    gen_s = rate * build_extended_hamiltonian(params, 0.0)
    gen_d = rate * kron_drive(params)
    n_steps = int(round(t_end / dt))
    half_grid = np.arange(2 * n_steps + 1) * (dt / 2.0)
    amp = (pulse.omega_c * sg_envelope(half_grid, pulse)).tolist()

    def rhs(a, y):
        return gen_s @ y + a * (gen_d @ y)

    psi = state0.vec.astype(complex).copy()
    times, vecs = [0.0], [psi.copy()]
    for k in range(n_steps):
        k1 = rhs(amp[2 * k], psi)
        k2 = rhs(amp[2 * k + 1], psi + dt / 2.0 * k1)
        k3 = rhs(amp[2 * k + 1], psi + dt / 2.0 * k2)
        k4 = rhs(amp[2 * k + 2], psi + dt * k3)
        psi = psi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % sample_every == 0 or k + 1 == n_steps:
            times.append((k + 1) * dt)
            vecs.append(psi.copy())
    return np.asarray(times), vecs


def plus_state(params, resonator=0):
    """(|0> + |1>)/sqrt(2) on the qubit times Fock state |resonator>."""
    psi = np.zeros(params.n_a * params.n_c, dtype=complex)
    psi[resonator] = psi[params.n_c + resonator] = 1.0 / np.sqrt(2.0)
    return VectorizedState(vec=vectorize(np.outer(psi, psi.conj())))


def sector_blocks(vecs, params):
    """Doubled vectors (..., (n_a n_c)^2) as sector blocks (..., n_a, n_a, n_c,
    n_c), each block read through sector_indices (test reference for the
    layout of PropagationResult.blocks)."""
    vecs = np.asarray(vecs)
    lead, n_a, n_c = vecs.shape[:-1], params.n_a, params.n_c
    out = np.empty(lead + (n_a, n_a, n_c, n_c), dtype=complex)
    for n_al in range(n_a):
        for n_ar in range(n_a):
            out[..., n_al, n_ar, :, :] = vecs[..., sector_indices(params, n_al, n_ar)].reshape(
                lead + (n_c, n_c))
    return out


def assert_matches_dense_reference(state0, params, pulse, t_end, dt, sample_every):
    res = propagate(state0, params, pulse, t_end, dt, sample_every=sample_every)
    times, vecs = dense_rk4_reference(state0, params, pulse, t_end, dt, sample_every)
    assert np.array_equal(res.times, times)
    ref = sector_blocks(vecs, params)
    assert res.blocks.shape == ref.shape
    assert np.max(np.abs(res.blocks - ref)) <= 1e-12
    return res


def test_zero_drive_diagonal_entries():
    hu = build_extended_hamiltonian(SMALL, 0.0)
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
    dim = (SMALL.n_a * SMALL.n_c) ** 2
    assert hu.shape == (dim, dim)


@settings(max_examples=60, deadline=None)
@given(n_a=st.sampled_from([2, 3]), n_c=st.integers(2, 5),
       freqs=st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4),
       kappa=st.floats(0.0, 10.0), omega=st.floats(-20.0, 20.0))
def test_generator_has_no_entries_between_qubit_sectors(n_a, n_c, freqs, kappa, omega):
    p = SystemParams(*freqs, kappa_c=kappa, n_a=n_a, n_c=n_c)
    hu = build_extended_hamiltonian(p, omega)
    inside = np.zeros(hu.shape, dtype=bool)
    for n_al in range(n_a):
        for n_ar in range(n_a):
            idx = sector_indices(p, n_al, n_ar)
            inside[np.ix_(idx, idx)] = True
    # the sectors tile the doubled basis: n_a^2 disjoint sets of n_c^2 indices
    assert np.count_nonzero(inside) == n_a**2 * n_c**4
    assert np.all(hu[~inside] == 0.0)


@settings(max_examples=60, deadline=None)
@given(n_a=st.sampled_from([2, 3]), n_c=st.integers(2, 6),
       freqs=st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4),
       kappa=st.floats(0.0, 10.0), omega=st.floats(-20.0, 20.0))
def test_sector_generator_matches_independent_route(n_a, n_c, freqs, kappa, omega):
    p = SystemParams(*freqs, kappa_c=kappa, n_a=n_a, n_c=n_c)
    _, c = single_copy_operators(p)
    # build_superoperator gives -i*Hu from the flattening identities
    ref = 1j * build_superoperator(kerr_hamiltonian(p, omega), [CollapseTerm(kappa, c)])
    full = build_extended_hamiltonian(p, omega)
    kron = kron_doubling(p, omega)
    for n_al in range(n_a):
        for n_ar in range(n_a):
            idx = np.ix_(sector_indices(p, n_al, n_ar), sector_indices(p, n_al, n_ar))
            block = sector_generator(p, n_al, n_ar, omega)
            assert block.shape == (n_c**2, n_c**2)
            assert np.max(np.abs(block - ref[idx])) <= 1e-12 * np.max(np.abs(ref))
            assert np.array_equal(full[idx], block)
            assert np.array_equal(kron[idx], block)
    assert np.array_equal(full, kron)


def test_sector_generator_rejects_labels_outside_the_qubit():
    for n_al, n_ar in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="sector"):
            sector_generator(SMALL, n_al, n_ar, 1.0)


def test_sector_indices_follow_basis_order():
    idx = sector_indices(SMALL, 1, 0)
    n_c = SMALL.n_c
    assert idx.tolist() == [basis_index(SMALL, 1, n_cl, 0, n_cr)
                            for n_cl in range(n_c) for n_cr in range(n_c)]


def test_superoperator_trivial_cases():
    m = 4
    zero = build_superoperator(np.zeros((m, m)), [])
    assert np.all(zero == 0.0)
    c = destroy(m)
    sup = build_superoperator(np.zeros((m, m)), [CollapseTerm(2.0, c)])
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
        sup = build_superoperator(h, [CollapseTerm(gamma, c)])
        assert np.max(np.abs(sup - doubled_copy_generator(h, gamma, c))) < 1e-12


def test_vectorization_oracle_kerr_model():
    hu = build_extended_hamiltonian(SMALL, 7.0)
    h = kerr_hamiltonian(SMALL, 7.0)
    _, c = single_copy_operators(SMALL)
    sup = build_superoperator(h, [CollapseTerm(SMALL.kappa_c, c)])
    assert np.max(np.abs(-1j * hu - sup)) < 1e-12


def test_trace_functional_annihilates_generator():
    for omega in (0.0, 7.0):
        hu = build_extended_hamiltonian(SMALL, omega)
        w = trace_functional(SMALL.n_a * SMALL.n_c)
        assert np.max(np.abs(w @ (-1j * hu))) < 1e-12


def test_zero_drive_vacuum_resonator_states_are_eigenvectors():
    hu = build_extended_hamiltonian(SMALL, 0.0)
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
    st = VectorizedState(vec=vectorize(rho0))
    res = propagate(st, p, PulseSpec("constant", 0.0), 100.0, 1.0)
    assert np.max(np.abs(res.blocks[-1] - sector_blocks(st.vec, p))) == 0.0


def test_propagate_single_photon_decay():
    p = SystemParams(0, 0, 0, 0, 2.0, 2, 4)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[1, 1] = 1.0  # |0_a, 1_c>
    st = VectorizedState(vec=vectorize(rho0))
    res = propagate(st, p, PulseSpec("constant", 0.0), 500.0, 0.5)
    pop = res.blocks[:, 0, 0, 1, 1].real
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
    st = VectorizedState(vec=vectorize(rho0))
    res = propagate(st, p, pulse, 300.0, 0.05)
    assert res.max_trace_drift < 1e-8
    assert res.max_hermiticity_drift < 1e-8
    assert abs(np.trace(qubit_block(res.blocks[-1])) - 1.0) < 1e-8


# no flat top: every step of the 100 ns gate runs is a ramp step
RAMPS_ONLY = PulseSpec("square-gaussian", 3.0, tau_p=100.0, tau_r=50.0, sigma_r=25.0)
GATE_PULSES = [PulseSpec("constant", 0.0), RAMPS_ONLY]


def test_gate_pulse_has_ramp_steps_only():
    amp = sg_envelope(np.arange(2 * 2000 + 1) * 0.025, RAMPS_ONLY)
    assert not np.any((amp[:-2:2] == amp[1::2]) & (amp[1::2] == amp[2::2]))


@pytest.mark.parametrize("pulse", GATE_PULSES, ids=["constant", "ramps"])
def test_propagate_hermiticity_gate(monkeypatch, pulse):
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 4)

    def skewed(params, n_al, n_ar, omega_c_value):
        block = sector_generator(params, n_al, n_ar, omega_c_value)
        if (n_al, n_ar) == (1, 0):
            # |1_a 0_c><0_a 0_c|: off-diagonal, trace-free; grows rho_10 but not rho_01
            block[0, 0] += 0.01j
        return block

    monkeypatch.setattr(liouville, "sector_generator", skewed)
    plus = np.zeros(8, dtype=complex)
    plus[0] = plus[4] = 1.0 / np.sqrt(2.0)
    st = VectorizedState(vec=vectorize(np.outer(plus, plus.conj())))
    with pytest.raises(AccuracyError, match="Hermiticity"):
        propagate(st, p, pulse, 100.0, 0.05)


@pytest.mark.parametrize("pulse", GATE_PULSES, ids=["constant", "ramps"])
def test_propagate_trace_gate(monkeypatch, pulse):
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 4)

    def skewed(params, n_al, n_ar, omega_c_value):
        block = sector_generator(params, n_al, n_ar, omega_c_value)
        if (n_al, n_ar) == (0, 0):
            # |0_a 0_c><0_a 0_c|: on the trace; grows rho_00 and with it the trace
            block[0, 0] += 0.01j
        return block

    monkeypatch.setattr(liouville, "sector_generator", skewed)
    with pytest.raises(AccuracyError, match="trace"):
        propagate(plus_state(p), p, pulse, 100.0, 0.05)


@pytest.mark.parametrize("skew_every_sector", [False, True])
def test_propagate_rejects_blocks_outside_the_ramp_structure(monkeypatch, skew_every_sector):
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 4)

    def skewed(params, n_al, n_ar, omega_c_value):
        block = sector_generator(params, n_al, n_ar, omega_c_value)
        if skew_every_sector:
            # the same in every sector, but imaginary after the rate
            block[0, 1] += 0.01
        elif (n_al, n_ar) == (1, 0):
            # off the diagonal of one occupied sector only
            block[0, 1] += 0.01j
        return block

    monkeypatch.setattr(liouville, "sector_generator", skewed)
    match = "not real" if skew_every_sector else "off-diagonal"
    with pytest.raises(ValueError, match=match):
        propagate(plus_state(p), p, RAMPS_ONLY, 100.0, 0.05)


@settings(max_examples=40, deadline=None)
@given(tau_p=st.floats(10.0, 40.0), ramp=st.floats(0.05, 1.0), width=st.floats(0.2, 2.0),
       dt=st.floats(0.05, 0.25), tail=st.floats(0.0, 10.0), sample_every=st.integers(1, 60))
# 500 steps, 7 does not divide them, and samples every 0.7 ns land inside both ramps
@example(tau_p=40.0, ramp=0.5, width=0.5, dt=0.1, tail=10.0, sample_every=7)
# 2500 ramp steps (no plateau) and a zero tail: the in-place stage algebra over a long run
@example(tau_p=50.0, ramp=1.0, width=0.5, dt=0.02, tail=2.0, sample_every=300)
# one sample at the end only, after the zero tail
@example(tau_p=20.0, ramp=1.0, width=1.0, dt=0.2, tail=3.0, sample_every=60)
# no plateau, peak at the midpoint of the step [10, 10.25]: equal end amplitudes, a
# different midpoint amplitude, so the step is not constant
@example(tau_p=20.25, ramp=1.0, width=0.5, dt=0.25, tail=1.0, sample_every=5)
def test_propagate_matches_dense_stepwise_reference(tau_p, ramp, width, dt, tail, sample_every):
    p = SystemParams(-3.0, -5.0, 0.0, -1.0, 2.0, 2, 3)
    tau_r = ramp * tau_p / 2.0
    pulse = PulseSpec("square-gaussian", 4.0, tau_p=tau_p, tau_r=tau_r, sigma_r=width * tau_r)
    assert_matches_dense_reference(plus_state(p, resonator=1), p, pulse, tau_p + tail, dt,
                                   sample_every)


# configs/propagate.json's resonator and drive (~0.1 photons) at 2 x 10
POLARON = SystemParams(0.0, -10.0, 0.0, -1.0, 5.0, 2, 10)


@pytest.mark.parametrize("pulse, t_end", [
    (PulseSpec("constant", 6.5192), 2000.0),
    (PulseSpec("square-gaussian", 6.5192, tau_p=100.0, tau_r=25.0, sigma_r=12.5), 150.0),
], ids=["constant", "pulse"])
def test_propagate_blocks_keep_the_polaron_form(pulse, t_end):
    # From resonator vacuum each sector (m, n) stays c_mn(t)|alpha_m><alpha_n|
    # (Gambetta et al., PRA 77, 012112 (2008)), alpha_k the response at
    # delta_cd + 2 chi k, with trace rho_mn(0) exp(-2 pi i 1e-3 [(eps_m - eps_n) t
    # + 2 chi (m - n) Int alpha_m alpha_n^* dt']). Measured worst over the
    # samples and the four sectors: rank-1 distance 6.3e-8 / 4.8e-8 and trace
    # error 1.5e-9 / 1.4e-9 (constant / pulse); the bounds keep 10x of margin.
    p, dt = POLARON, 0.02
    res = propagate(plus_state(p), p, pulse, t_end, dt)
    idx = np.rint(res.times / dt).astype(int)
    alpha = [solve_eta(replace(p, delta_cd=p.delta_cd + 2.0 * p.chi_ac * k), pulse, t_end, dt).eta
             for k in range(p.n_a)]
    eps = [p.delta_ad * k + 0.5 * p.alpha_a * k * (k - 1) for k in range(p.n_a)]
    for m in range(p.n_a):
        for n in range(p.n_a):
            block = res.blocks[:, m, n]
            ket = np.array([coherent_amplitudes(a, p.n_c) for a in alpha[m][idx]])
            bra = np.array([coherent_amplitudes(a, p.n_c) for a in alpha[n][idx]])
            fit = ket[:, :, None] * bra.conj()[:, None, :]
            c = np.sum(fit.conj() * block, axis=(1, 2)) / np.sum(np.abs(fit) ** 2, axis=(1, 2))
            rank1 = (np.linalg.norm(block - c[:, None, None] * fit, axis=(1, 2))
                     / np.linalg.norm(block, axis=(1, 2)))
            assert np.max(rank1) <= 7e-7
            prod = alpha[m] * np.conj(alpha[n])
            integral = np.concatenate(([0.0], np.cumsum(0.5 * (prod[1:] + prod[:-1]) * dt)))
            exact = 0.5 * np.exp(-2j * np.pi * 1e-3 * ((eps[m] - eps[n]) * res.times
                                                       + 2.0 * p.chi_ac * (m - n) * integral[idx]))
            assert np.max(np.abs(qubit_block(block) - exact)) <= 2e-8


@pytest.mark.parametrize("n_a, levels, pulse", [
    (3, [0, 1], PulseSpec("constant", 4.0)),
    (3, [0, 1], PulseSpec("square-gaussian", 4.0, tau_p=50.0, tau_r=15.0, sigma_r=7.5)),
    (2, [0], PulseSpec("square-gaussian", 4.0, tau_p=50.0, tau_r=15.0, sigma_r=7.5)),
], ids=["constant", "ramped", "one-sector"])
def test_propagate_leaves_empty_sectors_zero(n_a, levels, pulse):
    p = SystemParams(-3.0, -5.0, -2.0, -1.0, 2.0, n_a, 3)
    # qubit levels `levels` in equal superposition, resonator in |1>: the
    # occupied sectors are levels x levels (4 of 9, or the single (0, 0))
    psi = np.zeros(n_a * p.n_c, dtype=complex)
    psi[np.array(levels) * p.n_c + 1] = 1.0 / np.sqrt(len(levels))
    st0 = VectorizedState(vec=vectorize(np.outer(psi, psi.conj())))
    res = assert_matches_dense_reference(st0, p, pulse, 60.0, 0.1, 45)
    empty = [(n_al, n_ar) for n_al in range(n_a) for n_ar in range(n_a)
             if {n_al, n_ar} - set(levels)]
    assert len(empty) == n_a ** 2 - len(levels) ** 2
    assert all(np.all(res.blocks[:, n_al, n_ar] == 0.0) for n_al, n_ar in empty)


def test_propagate_zero_state_stays_zero():
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 4)
    zero = VectorizedState(vec=np.zeros(64, complex))
    pulse = PulseSpec("square-gaussian", 3.0, tau_p=20.0, tau_r=5.0, sigma_r=2.5)
    res = propagate(zero, p, pulse, 30.0, 0.1, sample_every=40)
    assert res.times.tolist() == pytest.approx([0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 30.0])
    assert np.all(res.blocks == 0.0)
    assert res.max_trace_drift == 0.0
    assert res.max_hermiticity_drift == 0.0


# a flat top from 5 to 15 ns and a zero tail after 20 ns
SHORTCUT_PULSES = {"constant": PulseSpec("constant", 4.0),
                   "square-gaussian": PulseSpec("square-gaussian", 4.0, tau_p=20.0, tau_r=5.0,
                                                sigma_r=2.5)}


@pytest.mark.parametrize("sample_every", [1, 7, 400])
@pytest.mark.parametrize("kind", ["constant", "square-gaussian"])
def test_constant_interval_shortcut_is_bit_identical(monkeypatch, kind, sample_every):
    # The default run skips the envelope on provably constant sample
    # intervals; with constant_envelope patched to None every interval takes
    # the evaluated path. 303 steps: 7 leaves a partial last interval and 400
    # is one interval longer than the grid.
    p, pulse = SystemParams(-3.0, -5.0, 0.0, -1.0, 2.0, 2, 3), SHORTCUT_PULSES[kind]
    t_end, dt, m = 30.3, 0.1, 3
    levels = []

    def spy(pulse, t0, t1):
        levels.append(constant_envelope(pulse, t0, t1))
        return levels[-1]

    def run():
        res = propagate(plus_state(p, resonator=1), p, pulse, t_end, dt, sample_every)
        idx = m * np.rint(res.times / dt).astype(int)
        return res.blocks, response.eta_at(p, pulse, t_end, dt / m, idx)

    monkeypatch.setattr(liouville, "constant_envelope", spy)
    monkeypatch.setattr(response, "constant_envelope", spy)
    blocks, eta = run()
    # the shortcut fires, except where the one interval holds both ramps
    assert any(level is not None for level in levels) == (kind == "constant"
                                                          or sample_every < 400)
    monkeypatch.setattr(liouville, "constant_envelope", lambda *args: None)
    monkeypatch.setattr(response, "constant_envelope", lambda *args: None)
    ref_blocks, ref_eta = run()
    assert np.array_equal(blocks, ref_blocks)
    assert np.array_equal(eta, ref_eta)


def test_propagate_rejects_negative_end_time():
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 4)
    with pytest.raises(ValueError, match="t_end"):
        propagate(plus_state(p), p, PulseSpec("constant", 3.0), -5.0, 0.1)


def test_propagate_rejects_a_state_of_the_wrong_size():
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 4)
    small = plus_state(replace(p, n_c=3))
    with pytest.raises(ValueError, match=r"36 entries.*\b64\b"):
        propagate(small, p, PulseSpec("constant", 3.0), 10.0, 0.1)


def test_propagate_step_bound():
    p = SystemParams(0.0, -5.0, 0.0, -1.0, 2.0, 2, 4)
    with pytest.raises(ValueError, match="stability"):
        propagate(VectorizedState(vec=np.zeros(64, complex)),
                  p, PulseSpec("constant", 3.0), 10.0, 5.0)


@pytest.mark.parametrize("n_a", [2, 3])
def test_propagate_stability_bound_covers_every_sector(n_a):
    p = SystemParams(-30.0, -5.0, -7.0, -1.0, 2.0, n_a, 4)
    omega = 6.0
    scale = np.max(np.sum(np.abs(kron_doubling(p, 0.0) + omega * kron_drive(p)), axis=1))
    dt_max = 0.05 / (2.0e-3 * np.pi * scale)
    ground = np.zeros((n_a * p.n_c,) * 2, dtype=complex)
    ground[0, 0] = 1.0
    # only the (0, 0) sector, which does not set the scale, or none at all
    for st0 in (VectorizedState(vec=vectorize(ground)),
                VectorizedState(vec=np.zeros(ground.size, complex))):
        # the block row sums add the same entries in another order: the bound
        # may move by the rounding of a sum of a few terms, not more
        above = dt_max * (1.0 + 1e-14)
        with pytest.raises(ValueError, match="stability"):
            propagate(st0, p, PulseSpec("constant", omega), 2.0 * above, above)
        below = dt_max * (1.0 - 1e-14)
        propagate(st0, p, PulseSpec("constant", omega), 2.0 * below, below)


def test_product_paths_never_build_the_full_generator(monkeypatch):
    def full_build(*args, **kwargs):
        raise AssertionError("full doubled-space generator assembled")

    for module in (liouville, spectra, eigenstates):
        monkeypatch.setattr(module, "build_extended_hamiltonian", full_build, raising=False)
    p = SystemParams(-20.0, -5.0, -3.3, -1.0, 1.0, 2, 6)
    track = spectra.track_coherence(p, [0.0, 0.5, 1.0])
    assert track.eigenvalues.size == 3
    rows = eigenstates.fidelity_sweep(p, [0.5, 1.0])
    assert len(rows) == 6
    p0 = replace(p, delta_ad=0.0, alpha_a=0.0)
    for pulse in (PulseSpec("constant", 2.0),
                  PulseSpec("square-gaussian", 2.0, tau_p=20.0, tau_r=5.0, sigma_r=2.5)):
        res = propagate(plus_state(p0), p0, pulse, 30.0, 0.1)
        assert res.max_trace_drift < 1e-9


def test_eigenvectors_never_use_the_doubled_layout(monkeypatch, tmp_path):
    # tracking and the fidelity sweep keep every vector in its qubit-sector
    # block, and propagate keeps its samples as sector blocks; only
    # build_extended_hamiltonian (the tests and the benchmark harness) needs
    # the layout
    def layout(*args, **kwargs):
        raise AssertionError("doubled-basis layout used")

    for module in (liouville, spectra, eigenstates, cli):
        for name in ("basis_index", "sector_indices"):
            monkeypatch.setattr(module, name, layout, raising=False)
    p = SystemParams(-20.0, -5.0, -3.3, -1.0, 1.0, 2, 6)
    track = spectra.track_coherence(p, [0.0, 0.5, 1.0])
    assert [v.shape for v in track.vectors] == [(p.n_c ** 2,)] * 3
    rows = eigenstates.fidelity_sweep(p, [0.5, 1.0])
    assert len(rows) == 6
    p0 = replace(p, delta_ad=0.0, alpha_a=0.0)
    for pulse in (PulseSpec("constant", 2.0),
                  PulseSpec("square-gaussian", 2.0, tau_p=20.0, tau_r=5.0, sigma_r=2.5)):
        res = propagate(plus_state(p0), p0, pulse, 30.0, 0.1)
        assert res.blocks.shape == (len(res.times), 2, 2, p.n_c, p.n_c)
        config = cli.RunConfig(params=p0, pulse=pulse, out=None,
                               sections={"propagate": {"dt_ns": 0.1, "t_end_ns": 30.0}})
        out = tmp_path / f"{pulse.kind}.csv"
        cli.cmd_propagate(config, str(out), True, 1)
        assert len(out.read_text().splitlines()) == len(res.times) + 1


def random_density_matrix(n_a, n_c):
    rng = np.random.default_rng(7)
    return rng.standard_normal((n_a * n_c,) * 2) + 1j * rng.standard_normal((n_a * n_c,) * 2)


def sparse_coherence_matrix(n_a, n_c):
    """<1_a|Tr_c rho|0_a> = 0.3 + 0.2j from two resonator levels, all else 0."""
    rho = np.zeros((n_a * n_c,) * 2, dtype=complex)
    rho[1 * n_c + 0, 0 * n_c + 0] = 0.3
    rho[1 * n_c + 2, 0 * n_c + 2] = 0.2j
    return rho


@pytest.mark.parametrize("make_rho, n_a, n_c", [(random_density_matrix, 3, 5),
                                                (sparse_coherence_matrix, 2, 3)],
                         ids=["random", "sparse"])
def test_qubit_block_matches_summed_trace(make_rho, n_a, n_c):
    rho = make_rho(n_a, n_c)
    p = SystemParams(0.0, 0.0, 0.0, 0.0, 0.0, n_a, n_c)
    block = qubit_block(sector_blocks(vectorize(rho), p))
    ref = [[sum(rho[m * n_c + j, n * n_c + j] for j in range(n_c)) for n in range(n_a)]
           for m in range(n_a)]
    assert np.allclose(block, ref, rtol=0.0, atol=1e-14)
    # any leading axes: the trace is taken over the last two only
    stack = qubit_block(sector_blocks(np.stack([vectorize(rho), 2.0 * vectorize(rho)]), p))
    assert np.array_equal(stack, [block, 2.0 * block])
    if make_rho is sparse_coherence_matrix:
        assert complex(block[1, 0]) == pytest.approx(0.3 + 0.2j)
