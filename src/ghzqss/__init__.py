"""Quantum secret sharing over a reusable GHZ carrier: statevector simulator,
channel adversaries, and a deterministic Monte Carlo security harness."""

from ._version import __version__
from .adversary import AttackKind
from .harness import ExperimentConfig, run_experiment, run_trial

__all__ = ["__version__", "AttackKind", "ExperimentConfig", "run_experiment", "run_trial"]
