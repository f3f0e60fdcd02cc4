"""Minimax support selection under Hamming loss.

Selectors and exact risk formulas for the sparse Gaussian sequence model
and its Bernoulli/Poisson analogues, phase-boundary signal levels, and a
deterministic seeded Monte Carlo harness.  Names are imported from their
modules; the package namespace holds only the submodules and __version__.
"""

__version__ = "0.1.0"
