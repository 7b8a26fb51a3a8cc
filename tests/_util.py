"""Shared helpers for the test suite."""

from types import SimpleNamespace

import numpy as np

from ghzqss import statevector
from ghzqss.harness import run_experiment, run_trial
from ghzqss.statevector import StateVector, apply_cnot, apply_h, from_terms, new_basis_state

ROW_COLUMNS = ("trial_index", "mismatches", "ambiguous", "eve_correct_bits")

#: The carrier's register, and the carrier's with Alice's pair.
LAB4 = ("A", "B", "C", "E")
LAB6 = ("A", "B", "C", "E", "S1", "S2")


#: The statevector ops that cache their results.
CACHED_OPS = (
    statevector.tensor,
    statevector.apply_h,
    statevector.apply_cnot,
    statevector._measure,
    statevector.discard_qubit,
)


def bind_uncached(monkeypatch, *modules) -> None:
    """Bind each cached op to its uncached ``__wrapped__`` wherever
    ``statevector`` or one of ``modules`` binds it, until ``monkeypatch``
    undoes it."""
    for module in (statevector, *modules):
        for op in CACHED_OPS:
            if getattr(module, op.__name__, None) is op:
                monkeypatch.setattr(module, op.__name__, op.__wrapped__)


def cache_totals() -> tuple[int, int]:
    """The cached ops' summed hits and summed entries."""
    infos = [op.cache_info() for op in CACHED_OPS]
    return sum(info.hits for info in infos), sum(info.currsize for info in infos)


def ignore_stage(k, stage, state) -> None:
    """An ``eve_on_transit`` observer that is told every stage and keeps none."""


def apply_x(state: StateVector, q: str) -> StateVector:
    """Bit flip (Pauli X) on qubit ``q``: basis index i takes the entry at
    i with ``q``'s bit flipped, a permutation, so the form stays reduced."""
    flip = 1 << (state.n_qubits - 1 - state.axis(q))
    return StateVector(state.labels, [state.ints[i ^ flip] for i in range(len(state.ints))], state.r)


def carrier_ancilla_odd(q1):
    """The carrier and Eve's ancilla E in their odd-round form for the
    round-1 bit ``q1``: (|000 q1> + |111 q1^1>)/sqrt2."""
    return from_terms(LAB4, {f"000{q1}": 1, f"111{q1 ^ 1}": 1}, 1)


def carrier_ancilla_even(q1):
    """``carrier_ancilla_odd(q1)`` after Hadamards on A, B, C and E: every
    even-weight four-bit ket, negated where ``q1`` and the ancilla bit are 1."""
    terms = {}
    for i in range(16):
        s = format(i, "04b")
        if s.count("1") % 2 == 0:
            terms[s] = -1 if q1 == 1 and s[3] == "1" else 1
    return from_terms(LAB4, terms, 3)


def amplitudes(state: StateVector) -> np.ndarray:
    """The state's amplitudes as floats, ``ints * 2**(-r/2)``."""
    return np.array(state.ints) * 2.0 ** (-state.r / 2)


def random_state(labels, rng) -> StateVector:
    """A random stabilizer state over the given labels: a random basis state
    after a random circuit of ``6 * len(labels)`` H, X and CNOT gates, drawn
    from ``rng``."""
    labels = tuple(labels)
    n = len(labels)
    state = new_basis_state(labels, "".join(str(b) for b in rng.integers(2, size=n)))
    for _ in range(6 * n):
        kind = rng.integers(3 if n >= 2 else 2)
        q = labels[rng.integers(n)]
        if kind == 0:
            state = apply_h(state, q)
        elif kind == 1:
            state = apply_x(state, q)
        else:
            state = apply_cnot(state, q, labels[(labels.index(q) + 1 + rng.integers(n - 1)) % n])
    return state


def equal_up_to_global_phase(s1: StateVector, s2: StateVector, tol: float = 1e-9) -> bool:
    """True iff ``s1 == lam * s2`` componentwise within ``tol`` for some unit ``lam``."""
    if s1.labels != s2.labels:
        raise ValueError(f"registers differ: {s1.labels!r} vs {s2.labels!r}")
    a, b = amplitudes(s1), amplitudes(s2)
    j = int(np.argmax(np.abs(a) + np.abs(b)))
    if abs(b[j]) < 1e-12 or abs(a[j]) < 1e-12:
        # One side is (near) zero where the other is largest: no unit phase fits
        # unless both are negligible there, in which case compare directly.
        return bool(np.max(np.abs(a - b)) <= tol)
    lam = a[j] / b[j]
    lam /= abs(lam)
    return bool(np.max(np.abs(a - lam * b)) <= tol)


def _subset_axes(state: StateVector, subset):
    """``subset``'s axes first, then the rest, after checking the subset."""
    subset = tuple(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValueError(f"subset labels must be distinct, got {subset!r}")
    keep = [state.axis(q) for q in subset]
    return keep + [ax for ax in range(state.n_qubits) if ax not in keep], len(keep)


def marginal_probabilities(state: StateVector, subset) -> dict[str, float]:
    """Probability table over the bitstrings of ``subset`` (in subset order).

    Entries below 1e-15 are omitted; the remaining entries sum to 1 within
    rounding.
    """
    axes, k = _subset_axes(state, subset)
    probs = (amplitudes(state) ** 2).reshape([2] * state.n_qubits)
    table = probs.transpose(axes).reshape(1 << k, -1).sum(axis=1)
    return {format(i, f"0{k}b"): float(p) for i, p in enumerate(table) if p > 1e-15}


def reduced_density_matrix(state: StateVector, subset) -> np.ndarray:
    """Reduced density matrix of ``subset`` (partial trace over the rest)."""
    axes, k = _subset_axes(state, subset)
    psi = amplitudes(state).reshape([2] * state.n_qubits).transpose(axes).reshape(1 << k, -1)
    return psi @ psi.conj().T


def sent_bits(result) -> tuple[int, ...]:
    """A trial's data bits: its transcript's ``sent`` bits."""
    return tuple(rec.sent for rec in result.transcript)


def run_to_final_carrier(config, trial_index=0):
    """``run_trial`` and the trial's final carrier, its observer's last snapshot."""
    snapshots = []
    result = run_trial(config, trial_index, observer=lambda *snapshot: snapshots.append(snapshot))
    return result, snapshots[-1][2]


def run_with_rows(config):
    """``run_experiment`` plus its per-trial columns, gathered through
    ``on_chunk`` and joined in trial order."""
    chunks = []
    report = run_experiment(config, on_chunk=lambda *columns: chunks.append(columns))
    return report, {name: np.concatenate(column) for name, column in zip(ROW_COLUMNS, zip(*chunks))}


def path_columns(path, table):
    """The per-round columns of a (B, n) ``path`` of flat [state, q, eve,
    bob, charlie] indices of ``table``, a transition table or a minimal
    machine that reads q: data bits and Eve's readouts.

    A readout is derived from the table's ``reveals``: announcing round k
    reveals its readout XOR its bit q as the offset, so where a round
    reveals an offset o, she read q XOR o. Round 1, which reveals the offset
    as its bit itself, and rounds that reveal nothing read -1."""
    path = path.astype(np.int64)
    bits = (path >> 3) & 1
    reveals = np.array(table.reveals)[path]
    readouts = np.where(reveals >= 0, bits ^ reveals, -1)
    readouts[:, 0] = -1
    return SimpleNamespace(bits=bits, eve_readouts=readouts)
