"""Spectral simulation of lag-k auto-covariance random matrix ensembles.

Builds the N x N ensembles Y = X A X* (A the k-step shift) and their
circular variant, evaluates the closed-form limiting radial law, solves the
large-lag resolvent fixed point, and runs seeded Monte Carlo experiments
checking linearization and least-singular-value behaviour.
Importing the package loads no numpy, so the CLI can set OpenBLAS's
thread count before numpy loads.
"""

__version__ = "0.1.0"
