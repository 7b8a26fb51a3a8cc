import itertools

import numpy as np
import pytest

from ghzqss.adversary import (
    EVE_TOUCHABLE,
    AttackKind,
    EveInferenceError,
    EveRecord,
    EveScopeViolation,
    _guarded_cnot,
    _guarded_h,
    _guarded_measure,
    eve_end_round,
    eve_on_transit,
    eve_postprocess,
    eve_prepare,
)
from ghzqss.protocol import (
    alice_entangle,
    bob_disentangle,
    charlie_disentangle,
    encode_pair,
    end_round_hadamards,
    init_carrier,
    receive_and_reconstruct,
)
from ghzqss.statevector import (
    from_terms,
    max_abs_difference,
    new_basis_state,
    tensor,
)

from _util import ignore_stage, marginal_probabilities, reduced_density_matrix

LAB4 = ("A", "B", "C", "E")
LAB6 = ("A", "B", "C", "E", "S1", "S2")


def carrier_ancilla_odd(q1):
    return from_terms(LAB4, {f"000{q1}": 1, f"111{q1 ^ 1}": 1}, 1)


def carrier_ancilla_even(q1):
    terms = {}
    for i in range(16):
        s = format(i, "04b")
        if s.count("1") % 2 == 0:
            terms[s] = -1 if q1 == 1 and s[3] == "1" else 1
    return from_terms(LAB4, terms, 3)


def odd_round_system(q1, q):
    return from_terms(
        LAB6,
        {f"000{q1}{q}{q}": 1, f"111{q1 ^ 1}{q ^ 1}{q ^ 1}": 1},
        1,
    )


def transit_state(q1, q, odd):
    joint = tensor(carrier_ancilla_odd(q1) if odd else carrier_ancilla_even(q1), encode_pair(q, odd))
    return alice_entangle(joint, odd)


# --- attack kinds -------------------------------------------------------------


def test_attack_kind_names_round_trip():
    for kind in AttackKind:
        assert AttackKind.from_name(kind.value) is kind
    with pytest.raises(ValueError):
        AttackKind.from_name("quantum-cloning")


# --- preparation ---------------------------------------------------------------


def test_eve_prepare_adds_the_ancilla_only_under_cnot_ancilla():
    carrier = eve_prepare(AttackKind.CNOT_ANCILLA, init_carrier())
    expected = from_terms(LAB4, {"0000": 1, "1110": 1}, 1)
    assert max_abs_difference(carrier, expected) <= 1e-12
    assert marginal_probabilities(carrier, ("A",)) == pytest.approx({"0": 0.5, "1": 0.5})
    honest = init_carrier()
    assert eve_prepare(AttackKind.NO_ATTACK, honest) is honest
    assert eve_prepare(AttackKind.INTERCEPT_RESEND, honest) is honest


# --- round 1 -------------------------------------------------------------------


@pytest.mark.parametrize("q1", [0, 1])
def test_round1_cnot_copies_pair_bit_onto_ancilla(q1):
    carrier = eve_prepare(AttackKind.CNOT_ANCILLA, init_carrier())
    joint = alice_entangle(tensor(carrier, encode_pair(q1, 1)), 1)
    joint, readout = eve_on_transit(AttackKind.CNOT_ANCILLA, 1, joint, 1, ignore_stage)
    flip = q1 ^ 1
    expected = from_terms(
        LAB6, {f"000{q1}{q1}{q1}": 1, f"111{flip}{flip}{flip}": 1}, 1
    )
    assert joint.key == expected.key
    assert readout is None


# --- odd rounds >= 3 -------------------------------------------------------------


@pytest.mark.parametrize("q1", [0, 1])
@pytest.mark.parametrize("q", [0, 1])
def test_odd_round_readout_and_restoration(q1, q):
    joint = odd_round_system(q1, q)
    stages = {}

    def emit(k, stage, state):
        assert k == 3  # every stage is told its round
        stages[stage] = state

    joint_after, readout = eve_on_transit(AttackKind.CNOT_ANCILLA, 3, joint, 1, emit)
    # After the first CNOT the in-transit qubit is detached and definite.
    split = stages["after Eve C(E->S1)"]
    s1 = q ^ q1
    expected_split = from_terms(
        LAB6, {f"000{q1}{s1}{q}": 1, f"111{q1 ^ 1}{s1}{q ^ 1}": 1}, 1
    )
    assert split.key == expected_split.key
    assert readout == q ^ q1
    # The readout is certain: the measurement returned the state it was given.
    assert stages["after Eve measurement of S1"] is split
    # The second CNOT restores the entangled system exactly.
    assert joint_after.key == odd_round_system(q1, q).key


@pytest.mark.parametrize("q1", [0, 1])
def test_odd_round_introduces_no_error(q1):
    q = q1 ^ 1  # arbitrary data bit, distinct from the offset for variety
    joint, readout = eve_on_transit(AttackKind.CNOT_ANCILLA, 3, odd_round_system(q1, q), 1, ignore_stage)
    joint = charlie_disentangle(bob_disentangle(joint))
    rec, _ = receive_and_reconstruct(joint, 3, q, (0, 1))
    assert rec.bob_outcome == q
    assert rec.charlie_outcome == q
    assert rec.consistent
    assert readout == q ^ q1


# --- even rounds ------------------------------------------------------------------


@pytest.mark.parametrize("q1", [0, 1])
def test_even_round_changes_nothing_and_leaks_nothing(q1):
    ancilla_states = {}
    for q in (0, 1):
        joint = transit_state(q1, q, 0)
        joint, _ = eve_on_transit(AttackKind.CNOT_ANCILLA, 2, joint, 1, ignore_stage)
        joint = charlie_disentangle(bob_disentangle(joint))
        # Carrier+ancilla part is exactly the even form it started in.
        expected = tensor(carrier_ancilla_even(q1), encode_pair(q, 0))
        assert joint.key == expected.key
        ancilla_states[q] = reduced_density_matrix(joint, ("E",))
    # Eve's ancilla state is independent of the transmitted bit.
    assert np.max(np.abs(ancilla_states[0] - ancilla_states[1])) <= 1e-12


# --- end-of-round hook ----------------------------------------------------------


def test_eve_end_round_mirrors_hadamards():
    for q1 in (0, 1):
        odd_form = carrier_ancilla_odd(q1)
        parties = end_round_hadamards(odd_form)
        combined = eve_end_round(AttackKind.CNOT_ANCILLA, parties)
        assert combined.key == carrier_ancilla_even(q1).key
        back = eve_end_round(AttackKind.CNOT_ANCILLA, end_round_hadamards(combined))
        assert back.key == odd_form.key


def test_eve_end_round_identity_for_passive_kinds():
    state = init_carrier()
    assert eve_end_round(AttackKind.NO_ATTACK, state) is state
    assert eve_end_round(AttackKind.INTERCEPT_RESEND, state) is state


# --- intercept-resend -------------------------------------------------------------


def test_intercept_resend_collapses_and_forwards():
    carrier = init_carrier()
    joint = alice_entangle(tensor(carrier, encode_pair(0, 1)), 1)
    joint, readout = eve_on_transit(AttackKind.INTERCEPT_RESEND, 1, joint, 0, ignore_stage)
    # Measuring S1 collapses the whole branch structure: S1 is definite now.
    table = marginal_probabilities(joint, ("S1",))
    assert len(table) == 1
    assert readout is None


def test_no_attack_leaves_state_untouched():
    carrier = init_carrier()
    joint = alice_entangle(tensor(carrier, encode_pair(1, 1)), 1)
    out, _ = eve_on_transit(AttackKind.NO_ATTACK, 1, joint, 1, ignore_stage)
    assert out is joint


# --- the readout contract ----------------------------------------------------------


def _joint_eve_meets(kind, k, q1, q):
    """The joint state after Alice's CNOTs in round ``k``, carrying ``q``:
    for the CNOT-ancilla attack the carrier+ancilla of offset ``q1`` (the
    golden odd-round system in odd rounds >= 3), else the honest carrier."""
    odd = k % 2
    if kind is AttackKind.CNOT_ANCILLA:
        if k == 1:
            return alice_entangle(tensor(eve_prepare(kind, init_carrier()), encode_pair(q, odd)), odd)
        return odd_round_system(q1, q) if odd else transit_state(q1, q, odd)
    carrier = init_carrier() if odd else end_round_hadamards(init_carrier())
    return alice_entangle(tensor(carrier, encode_pair(q, odd)), odd)


@pytest.mark.parametrize("kind", list(AttackKind))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("bit", [0, 1])
def test_eve_reads_out_exactly_in_odd_ancilla_rounds_from_three(kind, k, bit):
    reads = kind is AttackKind.CNOT_ANCILLA and k >= 3 and k % 2 == 1
    for q1, q in itertools.product((0, 1), repeat=2):
        joint = _joint_eve_meets(kind, k, q1, q)
        after, readout = eve_on_transit(kind, k, joint, bit, ignore_stage)
        assert readout == (q ^ q1 if reads else None)
        again, readout_again = eve_on_transit(kind, k, joint, bit, ignore_stage)
        assert (again.key, readout_again) == (after.key, readout)


# --- legality guard ---------------------------------------------------------------


def test_guard_blocks_out_of_scope_qubits():
    assert EVE_TOUCHABLE == {"E", "S1"}
    state = new_basis_state(LAB6, "000000")
    with pytest.raises(EveScopeViolation):
        _guarded_cnot(state, "E", "B")
    with pytest.raises(EveScopeViolation):
        _guarded_cnot(state, "A", "S1")
    with pytest.raises(EveScopeViolation):
        _guarded_h(state, "C")
    with pytest.raises(EveScopeViolation):
        _guarded_measure(state, "S2", 0.5)


def test_guard_allows_scope_qubits():
    state = new_basis_state(LAB6, "000100")
    out = _guarded_cnot(state, "E", "S1")
    assert out.key == new_basis_state(LAB6, "000110").key


# --- post-processing ---------------------------------------------------------------


def test_postprocess_announced_odd_index_recovers_everything():
    # r_k = q_k xor q1 with q1 = 1: bits q = 1,?,0,?,1 -> r3 = 1, r5 = 0.
    rec = EveRecord({3: 1, 5: 0}, 5)
    out = eve_postprocess(AttackKind.CNOT_ANCILLA, rec, {3: 0})
    assert out.inferred_offset == 1
    assert out.inferred_bits == {1: 1, 3: 0, 5: 1}
    assert not out.ambiguous
    assert out.candidates is None


def test_postprocess_index_one_is_the_offset_itself():
    rec = EveRecord({3: 1}, 3)
    out = eve_postprocess(AttackKind.CNOT_ANCILLA, rec, {1: 1, 2: 0})
    assert out.inferred_offset == 1
    assert out.inferred_bits == {1: 1, 3: 0}


def test_postprocess_even_only_announcement_is_ambiguous():
    rec = EveRecord({3: 1, 5: 0}, 6)
    out = eve_postprocess(AttackKind.CNOT_ANCILLA, rec, {2: 0, 4: 1, 6: 0})
    assert out.ambiguous
    assert out.inferred_offset is None and out.inferred_bits is None
    assert out.candidates == ({1: 0, 3: 1, 5: 0}, {1: 1, 3: 0, 5: 1})


def test_postprocess_cross_checks_multiple_odd_indices():
    rec = EveRecord({3: 1, 5: 0}, 5)
    out = eve_postprocess(AttackKind.CNOT_ANCILLA, rec, {3: 0, 5: 1})  # both imply offset 1
    assert out.inferred_offset == 1
    with pytest.raises(EveInferenceError):
        eve_postprocess(AttackKind.CNOT_ANCILLA, rec, {3: 0, 5: 0})  # offsets 1 and 0 disagree


def test_postprocess_rejects_unknown_indices():
    rec = EveRecord({3: 1}, 4)
    with pytest.raises(ValueError):
        eve_postprocess(AttackKind.CNOT_ANCILLA, rec, {7: 1})
    rec_missing = EveRecord({}, 4)
    with pytest.raises(ValueError):
        eve_postprocess(AttackKind.CNOT_ANCILLA, rec_missing, {3: 1})


def test_postprocess_returns_a_new_record_and_leaves_the_notebook_as_it_was():
    rec = EveRecord({3: 1, 5: 0}, 5)
    before = EveRecord({3: 1, 5: 0}, 5)
    assert rec == before and rec is not before
    out = eve_postprocess(AttackKind.CNOT_ANCILLA, rec, {3: 0})
    assert out is not rec and rec == before
    assert out != rec and out.measured == rec.measured and out.rounds_seen == 5
    assert EveRecord({}, 0) != EveRecord({}, 1)
    with pytest.raises(AttributeError):
        rec.measured = {}


@pytest.mark.parametrize("kind", [AttackKind.NO_ATTACK, AttackKind.INTERCEPT_RESEND])
def test_postprocess_of_an_attack_that_reads_nothing_returns_the_record_given(kind):
    rec = EveRecord({}, 5)
    # Announcements that would resolve, or make ambiguous, a CNOT-ancilla record.
    for announced in ({1: 1, 3: 0}, {2: 0, 4: 1}, {}):
        out = eve_postprocess(kind, rec, announced)
        assert out is rec
        assert out.inferred_offset is None and not out.ambiguous
