"""Shared helpers for the test suite."""

import numpy as np

from ghzqss.harness import run_experiment
from ghzqss.statevector import StateVector

ROW_COLUMNS = ("trial_index", "detected", "mismatches", "ambiguous", "eve_correct_bits", "eve_known_fraction")


def random_state(labels, rng) -> StateVector:
    """Haar-ish random pure state over the given labels."""
    dim = 1 << len(labels)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps = amps / np.linalg.norm(amps)
    return StateVector(tuple(labels), amps)


def run_with_rows(config):
    """``run_experiment`` plus its per-trial columns, gathered through
    ``on_chunk`` and joined in trial order."""
    chunks = []
    report = run_experiment(config, on_chunk=lambda *columns: chunks.append(columns))
    return report, {name: np.concatenate(column) for name, column in zip(ROW_COLUMNS, zip(*chunks))}
