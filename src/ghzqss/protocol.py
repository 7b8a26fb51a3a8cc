"""Three-party secret sharing rounds over a reusable GHZ carrier.

Alice, Bob and Charlie share the carrier (1/sqrt2)(|000> + |111>) on qubits
A, B, C. Round k sends one data bit on a fresh pair (S1, S2), by ``k % 2``:

- odd rounds encode the bit as the basis pair |q,q> and Alice entangles it
  with two CNOTs (A->S1, A->S2);
- even rounds encode it as the Bell pair |q-bar> and Alice entangles with a
  single CNOT (A->S1).

Bob receives S1, Charlie receives S2; each disentangles with a CNOT from his
carrier qubit and measures. After every round the three parties apply a
Hadamard to their carrier qubits, toggling the carrier between its two forms.
Eavesdropping is checked at the end by publicly comparing a random
subsequence of the data bits. No attack is named here; ``adversary`` has them.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .statevector import (
    StateVector,
    apply_cnot,
    apply_h,
    from_terms,
    measure_z,
    new_basis_state,
)


class RoundRecord(NamedTuple):
    """Outcome of one transport round as seen by the legitimate parties."""

    round_index: int
    sent: int
    bob_outcome: int
    charlie_outcome: int
    reconstructed: int
    consistent: bool

    @classmethod
    def from_outcomes(cls, k: int, sent: int, bob: int, charlie: int) -> "RoundRecord":
        """Apply the reconstruction rule: odd rounds take Bob's outcome and
        flag Bob != Charlie as an inconsistency; even rounds take the XOR."""
        if k % 2:
            return cls(k, sent, bob, charlie, bob, bob == charlie)
        return cls(k, sent, bob, charlie, bob ^ charlie, True)


class DetectionReport(NamedTuple):
    """Result of the public subsequence comparison. Whether it announced an odd
    index, which tells the interceptor her offset, is read off ``compared_indices``."""

    compared_indices: tuple[int, ...]
    mismatches: int
    detected: bool


def init_carrier() -> StateVector:
    """Fresh GHZ carrier over (A, B, C); ``eve_prepare`` adds Eve's qubits."""
    return from_terms(("A", "B", "C"), {"000": 1, "111": 1}, 1)


@functools.cache
def encode_pair(q: int, odd: int) -> StateVector:
    """Sending pair for data bit ``q``: |q,q> on odd rounds (``odd`` = 1),
    the Bell pair |q-bar> on even rounds. States are immutable, so each
    (q, odd) is built once and shared by every round and trial that sends it.

    The Bell convention is |0-bar> = (|00> + |11>)/sqrt2 and
    |1-bar> = (|01> + |10>)/sqrt2, the unique sign choice under which a bit
    flip on either pair qubit maps |q-bar> to |(q+1)-bar> as a strict vector
    identity.
    """
    if q not in (0, 1):
        raise ValueError(f"data bit must be 0 or 1, got {q!r}")
    q = int(q)  # True or 1.0 shares the entry of 1, so it must build the same state
    if odd:
        return new_basis_state(("S1", "S2"), f"{q}{q}")
    return from_terms(("S1", "S2"), {f"0{q}": 1, f"1{1 - q}": 1}, 1)


def alice_entangle(joint: StateVector, odd: int) -> StateVector:
    """Alice's entangling CNOTs: A->S1 then A->S2 on odd rounds (``odd`` = 1),
    A->S1 only on even rounds (``odd`` = 0)."""
    joint = apply_cnot(joint, "A", "S1")
    if odd:
        joint = apply_cnot(joint, "A", "S2")
    return joint


def bob_disentangle(joint: StateVector) -> StateVector:
    """Bob's receiving CNOT B->S1."""
    return apply_cnot(joint, "B", "S1")


def charlie_disentangle(joint: StateVector) -> StateVector:
    """Charlie's receiving CNOT C->S2."""
    return apply_cnot(joint, "C", "S2")


def receive_and_reconstruct(
    joint: StateVector, k: int, sent: int, bits: tuple[int, int]
) -> tuple[RoundRecord, StateVector]:
    """Bob measures S1 and Charlie measures S2 (in that order), then the
    round record is built under the reconstruction rule.

    ``bits`` supplies the two random measurement bits (bob, charlie).
    """
    bob_bit, charlie_bit = bits
    bob, joint = measure_z(joint, "S1", bob_bit)
    charlie, joint = measure_z(joint, "S2", charlie_bit)
    return RoundRecord.from_outcomes(k, sent, bob, charlie), joint


def end_round_hadamards(joint: StateVector) -> StateVector:
    """Round-end Hadamards on the three carrier qubits. The adversary mirrors
    them on its ancilla through its own end-round hook."""
    for q in ("A", "B", "C"):
        joint = apply_h(joint, q)
    return joint


def public_comparison(records, indices) -> DetectionReport:
    """Publicly compare the data bits at ``indices`` (1-based).

    A compared index mismatches when its record's reconstructed bit differs
    from the record's sent bit or its consistency flag is down. Detection is
    declared on any mismatch.
    """
    records = list(records)
    n = len(records)
    indices = tuple(sorted(int(i) for i in indices))
    if len(set(indices)) != len(indices):
        raise ValueError(f"comparison indices must be distinct, got {indices!r}")
    if indices and not (1 <= indices[0] and indices[-1] <= n):
        raise ValueError(f"comparison indices {indices!r} out of range 1..{n}")
    mismatches = 0
    for i in indices:
        rec = records[i - 1]
        if rec.reconstructed != rec.sent or not rec.consistent:
            mismatches += 1
    return DetectionReport(compared_indices=indices, mismatches=mismatches, detected=mismatches > 0)
