"""Shared helpers for the test suite."""

from types import SimpleNamespace

import numpy as np

from ghzqss.harness import _transition_table, run_experiment
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


def path_columns(path, attack):
    """The per-round columns of a batch outcome, derived from its (B, n)
    ``path`` of flat [state, q, eve, bob, charlie] table indices: data bits,
    Bob's and Charlie's outcomes, Eve's readouts (-1 where absent) and each
    trial's final state id."""
    table = _transition_table(attack)
    path = path.astype(np.int64)
    return SimpleNamespace(
        bits=(path >> 3) & 1,
        bob=(path >> 1) & 1,
        charlie=path & 1,
        eve_readouts=table.readout.reshape(-1)[path >> 2],
        final_state=table.next_state.reshape(-1)[path[:, -1]],
    )
