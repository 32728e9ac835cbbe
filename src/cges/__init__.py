"""Confidence-guided early stopping for repeated model sampling.

Bayesian aggregation of (answer, confidence) pairs over candidate answers,
an adaptive stopping controller with self-consistency baselines, confidence
estimators over token probabilities, a generative simulator for checking
concentration behaviour, and a record/replay endpoint client.  Public names
are imported from the module that defines them, e.g. ``cges.posterior``.
"""

__version__ = "0.1.0"
