"""Effective dispersive-readout maps for a driven Kerr qubit-resonator system.

Closed-form Stark-shift and measurement-induced-dephasing rates of a
dispersively measured multi-level qubit, their transients under pulsed drive,
and exact cross-checks against the dense spectrum and time propagation of the
vectorized Lindblad generator.
"""

from .effective import (EffectiveLindblad, RatePair, adiabatic_correlations, choi_cptp_check,
                        effective_lindblad, effective_map_apply, effective_spectrum,
                        gambetta_rates, rates, spectrum_matrix)
from .eigenstates import (PerturbativeEigenstate, closed_form_eigenpair, eigenstate_fidelity,
                          fidelity_sweep, perturbative_eigenstate, residual_norm)
from .liouville import (AccuracyError, PropagationResult, VectorizedState,
                        build_extended_hamiltonian, propagate, qubit_block, sector_generator)
from .model import PulseSpec, SystemParams, envelope_derivatives, sg_envelope, validity_margin
from .response import ResonatorTrajectory, solve_eta, steady_state
from .spectra import (CoherenceTrack, EigenPair, EigenSet, TrackingLostError, eigendecompose,
                      eigenpair_near, extract_rates, track_coherence)
from .transient import (CorrelationSet, GeneratorSeries, adiabatic_series_A,
                        correlations_timedomain, effective_generator_timedep, fourier_A)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "CoherenceTrack", "CorrelationSet",
    "EffectiveLindblad", "EigenPair", "EigenSet", "GeneratorSeries", "PerturbativeEigenstate",
    "PropagationResult", "PulseSpec", "RatePair", "ResonatorTrajectory", "SystemParams",
    "TrackingLostError", "VectorizedState", "adiabatic_correlations", "adiabatic_series_A",
    "build_extended_hamiltonian", "choi_cptp_check",
    "closed_form_eigenpair", "correlations_timedomain", "effective_generator_timedep",
    "effective_lindblad", "effective_map_apply", "effective_spectrum", "eigendecompose",
    "eigenpair_near", "eigenstate_fidelity", "envelope_derivatives", "extract_rates",
    "fidelity_sweep", "fourier_A", "gambetta_rates", "perturbative_eigenstate",
    "propagate", "qubit_block", "rates", "residual_norm", "sector_generator", "sg_envelope",
    "solve_eta", "spectrum_matrix", "steady_state", "track_coherence", "validity_margin",
]
