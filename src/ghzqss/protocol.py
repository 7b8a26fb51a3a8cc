"""Three-party secret sharing rounds over a reusable GHZ carrier.

Alice, Bob and Charlie share the carrier (1/sqrt2)(|000> + |111>) on qubits
A, B, C. Each round transports one data bit on a fresh sending pair (S1, S2):

- odd rounds encode the bit as the basis pair |q,q> and Alice entangles it
  with two CNOTs (A->S1, A->S2);
- even rounds encode it as the Bell pair |q-bar> and Alice entangles with a
  single CNOT (A->S1).

Bob receives S1, Charlie receives S2; each disentangles with a CNOT from his
carrier qubit and measures. After every round the three parties apply a
Hadamard to their carrier qubits, toggling the carrier between its two forms.
Eavesdropping is checked at the end by publicly comparing a random
subsequence of the data bits.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import NamedTuple

from .statevector import (
    StateVector,
    apply_cnot,
    apply_h,
    from_terms,
    measure_z,
    new_basis_state,
)


class RoundParity(Enum):
    ODD = "odd"
    EVEN = "even"


def round_parity(k: int) -> RoundParity:
    """Parity of 1-based round index ``k``."""
    if k < 1:
        raise ValueError(f"round index must be >= 1, got {k}")
    return RoundParity.ODD if k % 2 == 1 else RoundParity.EVEN


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
        if round_parity(k) is RoundParity.ODD:
            return cls(k, sent, bob, charlie, bob, bob == charlie)
        return cls(k, sent, bob, charlie, bob ^ charlie, True)


class DetectionReport(NamedTuple):
    """Result of the public subsequence comparison."""

    compared_indices: tuple[int, ...]
    mismatches: int
    detected: bool
    any_odd_index_announced: bool


def init_carrier(with_adversary_ancilla: bool = False) -> StateVector:
    """Fresh GHZ carrier over (A, B, C), optionally tensored with the
    interceptor's |0> ancilla on E."""
    if with_adversary_ancilla:
        return from_terms(("A", "B", "C", "E"), {"0000": 1, "1110": 1}, 1)
    return from_terms(("A", "B", "C"), {"000": 1, "111": 1}, 1)


@functools.cache
def encode_pair(q: int, parity: RoundParity) -> StateVector:
    """Sending pair for data bit ``q``: |q,q> on odd rounds, the Bell pair
    |q-bar> on even rounds. States are immutable, so each (q, parity) is
    built once and shared by every round and trial that sends it.

    The Bell convention is |0-bar> = (|00> + |11>)/sqrt2 and
    |1-bar> = (|01> + |10>)/sqrt2, the unique sign choice under which a bit
    flip on either pair qubit maps |q-bar> to |(q+1)-bar> as a strict vector
    identity.
    """
    if q not in (0, 1):
        raise ValueError(f"data bit must be 0 or 1, got {q!r}")
    q = int(q)  # True or 1.0 shares the entry of 1, so it must build the same state
    if parity is RoundParity.ODD:
        return new_basis_state(("S1", "S2"), f"{q}{q}")
    return from_terms(("S1", "S2"), {f"0{q}": 1, f"1{1 - q}": 1}, 1)


def alice_entangle(joint: StateVector, parity: RoundParity) -> StateVector:
    """Alice's entangling CNOTs: A->S1 then A->S2 on odd rounds, A->S1 only
    on even rounds."""
    joint = apply_cnot(joint, "A", "S1")
    if parity is RoundParity.ODD:
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


def public_comparison(records, sent, indices) -> DetectionReport:
    """Publicly compare the data bits at ``indices`` (1-based).

    A compared index mismatches when its reconstructed bit differs from the
    sent bit or its consistency flag is down. Detection is declared on any
    mismatch. The report also notes whether any announced index is odd,
    which is the quantity the interceptor exploits.
    """
    records = list(records)
    sent = list(sent)
    n = len(records)
    if len(sent) != n:
        raise ValueError(f"{n} round record(s) but {len(sent)} sent bit(s)")
    indices = tuple(sorted(int(i) for i in indices))
    if len(set(indices)) != len(indices):
        raise ValueError(f"comparison indices must be distinct, got {indices!r}")
    if indices and not (1 <= indices[0] and indices[-1] <= n):
        raise ValueError(f"comparison indices {indices!r} out of range 1..{n}")
    mismatches = 0
    for i in indices:
        rec = records[i - 1]
        if rec.reconstructed != sent[i - 1] or not rec.consistent:
            mismatches += 1
    return DetectionReport(
        compared_indices=indices,
        mismatches=mismatches,
        detected=mismatches > 0,
        any_odd_index_announced=any(i % 2 == 1 for i in indices),
    )
