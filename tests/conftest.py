"""Shared fixtures: the expensive eigenvalue sweeps and pulse runs are
computed once per session and reused by the module tests and the acceptance
suite."""

import time

import numpy as np
import pytest
from hypothesis import settings

from readoutmap import PulseSpec, SystemParams, solve_eta, track_coherence
from readoutmap.eigenstates import fidelity_sweep
from readoutmap.transient import correlations_timedomain

# a failing property test prints its reproduction blob, so a failure in a test log can be
# replayed exactly with @reproduce_failure; every other setting is the loaded profile's
settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")

# strong-dispersive benchmark point: qubit far detuned, resonator 5 MHz below
# the drive, half dispersive shift -1 MHz, 1 MHz linewidth, 2 x 14 truncation
BENCH = SystemParams(delta_ad=-2005.0, delta_cd=-5.0, alpha_a=-330.0,
                     chi_ac=-1.0, kappa_c=1.0, n_a=2, n_c=14)

# steady-state photon targets for the drive sweep (12 points up to ~4 photons)
PHOTON_TARGETS = [0.05, 0.1, 0.2, 0.35, 0.5, 0.8, 1.2, 1.7, 2.3, 3.0, 3.5, 4.0]


def omega_for_photon(params: SystemParams, n: float) -> float:
    return 2.0 * np.sqrt(n * (params.delta_cd**2 + (params.kappa_c / 2.0) ** 2))


@pytest.fixture(scope="session")
def bench_track():
    """Coherence eigenvalue sweep over the 12-point drive grid (plus the
    zero-drive anchor). Returns (track, wall_seconds)."""
    grid = [0.0] + [omega_for_photon(BENCH, n) for n in PHOTON_TARGETS]
    t0 = time.perf_counter()
    track = track_coherence(BENCH, grid, n_workers=2)
    return track, time.perf_counter() - t0


@pytest.fixture(scope="session")
def eigenstate_rows():
    """Perturbative-eigenstate fidelity sweep over a decade of amplitudes."""
    omegas = np.geomspace(0.5, 5.0, 10)
    return fidelity_sweep(BENCH, omegas)


@pytest.fixture(scope="session")
def flat_top_run():
    """Flat-top pulse at the transient-benchmark working point:
    (params, pulse, trajectory, correlations for pairs (1,0) and (1,1))."""
    params = SystemParams(delta_ad=-2005.0, delta_cd=-5.0, alpha_a=-330.0,
                          chi_ac=-1.0, kappa_c=5.0, n_a=2, n_c=14)
    pulse = PulseSpec("square-gaussian", omega_c=50.0, tau_p=1000.0, tau_r=100.0, sigma_r=50.0)
    traj = solve_eta(params, pulse, t_end=1400.0, dt=0.1)
    corr = correlations_timedomain(traj, params, [(1, 0), (1, 1)])
    return params, pulse, traj, corr


@pytest.fixture(scope="session")
def step_drive_run():
    """Constant (step) drive held for 14/kappa: correlations reach their
    adiabatic values well before the end settling zone."""
    params = SystemParams(delta_ad=0.0, delta_cd=-5.0, alpha_a=0.0,
                          chi_ac=-1.0, kappa_c=2.0, n_a=2, n_c=14)
    pulse = PulseSpec("constant", omega_c=3.0)
    t_end = 14.0 / params.kappa_c * 1e3
    traj = solve_eta(params, pulse, t_end, dt=0.5)
    corr = correlations_timedomain(traj, params, [(1, 0), (1, 1)])
    return params, pulse, traj, corr
