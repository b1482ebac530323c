"""Spectral simulation of lag-k auto-covariance random matrix ensembles.

Builds the N x N ensembles Y = X A X* (A the k-step shift) and their
circular variant, evaluates the closed-form limiting radial law, solves the
large-lag resolvent fixed point, and runs seeded Monte Carlo experiments
checking linearization and least-singular-value behaviour.
"""

from autocov_spectra.ensembles import (
    EnsembleSpec,
    EntryLaw,
    build_autocov,
    build_circular,
    build_linearization,
    hermitize,
    sample_entry_matrix,
    shift_matrix,
)
from autocov_spectra.limit_law import Gamma0Law
from autocov_spectra.fixed_point import ResolventParams, solve_s

__version__ = "0.1.0"

__all__ = [
    "EnsembleSpec",
    "EntryLaw",
    "Gamma0Law",
    "ResolventParams",
    "build_autocov",
    "build_circular",
    "build_linearization",
    "hermitize",
    "sample_entry_matrix",
    "shift_matrix",
    "solve_s",
]
