"""Channel adversaries for the GHZ-carrier protocol.

Three strategies are modeled:

- ``NO_ATTACK``: the channel is untouched.
- ``INTERCEPT_RESEND``: Eve measures S1 in the computational basis every
  round and forwards the collapsed qubit. This collapses the carrier and is
  eventually detectable through the public comparison.
- ``CNOT_ANCILLA``: Eve adds a private |0> ancilla E to the carrier, entangles
  it with one CNOT in round 1, mirrors the parties' round-end Hadamards, rides
  along invisibly through even rounds, and in odd rounds >= 3 disentangles
  S1 with a CNOT from her ancilla, reads it out deterministically, and
  restores the state with a second CNOT. Her readouts r_k satisfy
  r_k = q_k XOR q_1, so any publicly announced odd-indexed bit resolves the
  offset q_1 and with it every odd-indexed data bit.

Every per-attack decision lives here: the harness calls :func:`eve_prepare`,
:func:`eve_on_transit`, :func:`eve_end_round` and :func:`eve_postprocess`
for every attack, and neither it nor the protocol names one.

Eve may only ever touch her own ancilla E and the in-transit qubit S1; every
gate and measurement she performs is routed through a guard that raises
:class:`EveScopeViolation` otherwise.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .statevector import StateVector, apply_cnot, apply_h, measure_z, new_basis_state, tensor


class AttackKind(Enum):
    NO_ATTACK = "none"
    INTERCEPT_RESEND = "intercept-resend"
    CNOT_ANCILLA = "cnot-ancilla"

    @classmethod
    def from_name(cls, name: str) -> "AttackKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown attack kind {name!r}; expected one of "
                         f"{[k.value for k in cls]}")


#: The only qubits the adversary is allowed to address.
EVE_TOUCHABLE = frozenset({"E", "S1"})


class EveScopeViolation(RuntimeError):
    """An adversary operation addressed a qubit outside Eve's reach."""


class EveInferenceError(RuntimeError):
    """Eve's bookkeeping reached a state that is impossible in a correct run."""


class EveRecord(NamedTuple):
    """Eve's per-trial notebook, built once her rounds are over.

    ``measured`` maps odd round indices >= 3 to the readout r_k (only the
    CNOT-ancilla strategy reads anything) over the ``rounds_seen`` rounds of
    the trial. Post-processing sets either the inferred offset or, when no
    odd index was announced, the ``ambiguous`` flag; the inferred bits and
    the two candidate sequences for the odd-indexed bits are decoded from
    ``measured`` when read.
    """

    measured: dict[int, int]
    rounds_seen: int
    inferred_offset: int | None = None
    ambiguous: bool = False

    @property
    def inferred_bits(self) -> dict[int, int] | None:
        return None if self.inferred_offset is None else _decode(self, self.inferred_offset)

    @property
    def candidates(self) -> tuple[dict[int, int], dict[int, int]] | None:
        return (_decode(self, 0), _decode(self, 1)) if self.ambiguous else None


def _guard(*qubits: str) -> None:
    bad = [q for q in qubits if q not in EVE_TOUCHABLE]
    if bad:
        raise EveScopeViolation(
            f"adversary attempted to touch {bad!r}; allowed qubits are "
            f"{sorted(EVE_TOUCHABLE)!r}"
        )


def _guarded_cnot(state: StateVector, control: str, target: str) -> StateVector:
    _guard(control, target)
    return apply_cnot(state, control, target)


def _guarded_h(state: StateVector, q: str) -> StateVector:
    _guard(q)
    return apply_h(state, q)


def _guarded_measure(state: StateVector, q: str, bit: int):
    _guard(q)
    return measure_z(state, q, bit)


def eve_prepare(kind: AttackKind, carrier: StateVector) -> StateVector:
    """The carrier Eve starts from: the CNOT-ancilla strategy tensors her |0>
    ancilla on E onto it; the other strategies return it unchanged."""
    if kind is AttackKind.CNOT_ANCILLA:
        return tensor(carrier, new_basis_state(("E",), "0"))
    return carrier


def eve_on_transit(kind: AttackKind, k: int, joint: StateVector, bit: int, emit):
    """Eve's action on the in-transit qubit S1 during round ``k``.

    Called exactly once per round, after Alice's entangling CNOTs and before
    Bob's receiving CNOT. ``bit`` feeds any measurement Eve performs;
    ``emit(k, stage, state)`` is told each of her intermediate states.
    Returns the (possibly transformed) joint state and her readout: r_k in a
    CNOT-ancilla odd round >= 3, ``None`` in every other round.
    """
    if kind is AttackKind.NO_ATTACK:
        return joint, None

    if kind is AttackKind.INTERCEPT_RESEND:
        _, joint = _guarded_measure(joint, "S1", bit)
        emit(k, "after Eve measure-and-resend of S1", joint)
        return joint, None

    # CNOT-ancilla strategy.
    if k == 1:
        joint = _guarded_cnot(joint, "S1", "E")
        emit(k, "after Eve C(S1->E)", joint)
        return joint, None

    joint = _guarded_cnot(joint, "E", "S1")
    emit(k, "after Eve C(E->S1)", joint)
    if k % 2 == 0:
        return joint, None

    # Odd rounds >= 3: S1 is now disentangled; read it, then restore.
    readout, joint = _guarded_measure(joint, "S1", bit)
    emit(k, "after Eve measurement of S1", joint)
    joint = _guarded_cnot(joint, "E", "S1")
    emit(k, "after Eve restoring C(E->S1)", joint)
    return joint, readout


def eve_end_round(kind: AttackKind, joint: StateVector) -> StateVector:
    """Eve's round-end hook: the CNOT-ancilla strategy mirrors the parties'
    Hadamards on her ancilla; the other strategies do nothing."""
    if kind is AttackKind.CNOT_ANCILLA:
        return _guarded_h(joint, "E")
    return joint


def _decode(record: EveRecord, offset: int) -> dict[int, int]:
    """The odd-indexed bits Eve's readouts give under round 1's bit ``offset``."""
    return {1: offset, **{k: r ^ offset for k, r in record.measured.items()}}


def eve_postprocess(kind: AttackKind, record: EveRecord, announced: dict[int, int]) -> EveRecord:
    """Resolve Eve's readouts against the publicly announced bits; only the
    CNOT-ancilla strategy infers anything, the others get ``record`` back.

    Any announced odd index j fixes the offset (the announced value itself
    for j = 1, otherwise r_j XOR q_j); the offset then decodes every recorded
    odd round. Multiple announced odd indices are cross-checked and must
    agree. The returned record sets the offset, from which its
    ``inferred_bits`` decode; if only even indices were announced, it is
    ambiguous instead, and its ``candidates`` decode both offsets.
    """
    if kind is not AttackKind.CNOT_ANCILLA:
        return record
    offsets: list[int] = []
    for j in sorted(announced):
        if not 1 <= j <= record.rounds_seen:
            raise ValueError(
                f"announced index {j} outside the {record.rounds_seen} observed round(s)"
            )
        if j % 2 == 0:
            continue
        if j == 1:
            offsets.append(announced[j])
        else:
            if j not in record.measured:
                raise ValueError(f"announced odd index {j} has no recorded readout")
            offsets.append(record.measured[j] ^ announced[j])
    if not offsets:
        return record._replace(inferred_offset=None, ambiguous=True)
    if len(set(offsets)) != 1:
        raise EveInferenceError(f"announced odd indices imply conflicting offsets {offsets!r}")
    return record._replace(inferred_offset=offsets[0], ambiguous=False)
