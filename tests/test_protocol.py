import itertools

import numpy as np
import pytest

from ghzqss.adversary import AttackKind, eve_end_round
from ghzqss.protocol import (
    DetectionReport,
    RoundRecord,
    alice_entangle,
    bob_disentangle,
    charlie_disentangle,
    encode_pair,
    end_round_hadamards,
    init_carrier,
    public_comparison,
    receive_and_reconstruct,
)
from ghzqss.statevector import (
    apply_cnot,
    from_terms,
    max_abs_difference,
    new_basis_state,
    tensor,
)

from _util import LAB6, apply_x, carrier_ancilla_even, carrier_ancilla_odd, marginal_probabilities


def honest_even_carrier():
    # The even-round form of the GHZ carrier: uniform over even-weight kets.
    return from_terms(("A", "B", "C"), {s: 1 for s in ("000", "011", "101", "110")}, 2)


# --- setup ---------------------------------------------------------------


def test_init_carrier_without_ancilla():
    carrier = init_carrier()
    expected = from_terms(("A", "B", "C"), {"000": 1, "111": 1}, 1)
    assert max_abs_difference(carrier, expected) <= 1e-12
    assert marginal_probabilities(carrier, ("A",)) == pytest.approx({"0": 0.5, "1": 0.5})


# --- encoding --------------------------------------------------------------


@pytest.mark.parametrize("q, expected", [(0, "00"), (1, "11")])
def test_encode_odd_is_basis_pair(q, expected):
    pair = encode_pair(q, 1)
    assert max_abs_difference(pair, new_basis_state(("S1", "S2"), expected)) <= 1e-12


def test_encode_even_zero_is_even_parity_bell():
    pair = encode_pair(0, 0)
    expected = from_terms(("S1", "S2"), {"00": 1, "11": 1}, 1)
    assert max_abs_difference(pair, expected) <= 1e-12


def test_encode_even_one_is_the_flip_of_even_zero():
    # The encoding of bit 1 must be exactly what a single flip of either
    # qubit does to the encoding of bit 0 (strict vector equality).
    zero = encode_pair(0, 0)
    one = encode_pair(1, 0)
    assert max_abs_difference(one, apply_x(zero, "S1")) <= 1e-12
    assert max_abs_difference(one, apply_x(zero, "S2")) <= 1e-12
    expected = from_terms(("S1", "S2"), {"01": 1, "10": 1}, 1)
    assert max_abs_difference(one, expected) <= 1e-12


def test_encode_rejects_non_bit():
    with pytest.raises(ValueError):
        encode_pair(2, 1)


@pytest.mark.parametrize("parity", [1, 0], ids=["odd", "even"])
def test_encode_shares_one_state_per_bit_and_parity(parity):
    encode_pair.cache_clear()
    for q in (0, 1):
        # A bool first: the entry it makes is the one the int finds.
        assert encode_pair(bool(q), parity) is encode_pair(q, parity) is encode_pair(q, parity)
        assert encode_pair(q, parity).key == encode_pair.__wrapped__(q, parity).key
    assert encode_pair(0, parity).key != encode_pair(1, parity).key
    for bad in (2, -1, 2, "1"):  # raised afresh each time: an error is never cached
        with pytest.raises(ValueError, match="data bit must be 0 or 1"):
            encode_pair(bad, parity)


# --- entangling and disentangling -------------------------------------------


@pytest.mark.parametrize("q1", [0, 1])
@pytest.mark.parametrize("q", [0, 1])
def test_alice_entangle_odd_builds_two_branch_system(q1, q):
    joint = tensor(carrier_ancilla_odd(q1), encode_pair(q, 1))
    joint = alice_entangle(joint, 1)
    expected = from_terms(
        LAB6,
        {
            f"000{q1}{q}{q}": 1,
            f"111{q1 ^ 1}{q ^ 1}{q ^ 1}": 1,
        },
        1,
    )
    assert max_abs_difference(joint, expected) <= 1e-12


@pytest.mark.parametrize("q1", [0, 1])
@pytest.mark.parametrize("q", [0, 1])
def test_even_round_cnots_change_nothing_with_interceptor(q1, q):
    # One CNOT from each of A, E, B, C onto a Bell-encoded pair leaves both
    # the carrier+ancilla and the pair exactly as they were: every ket of
    # the even-form carrier has even weight, and an even number of flips
    # fixes the Bell pair.
    start = tensor(carrier_ancilla_even(q1), encode_pair(q, 0))
    orders = [
        (("A", "S1"), ("E", "S1"), ("B", "S1"), ("C", "S2")),
        (("C", "S2"), ("B", "S1"), ("E", "S1"), ("A", "S1")),
    ]
    for order in orders:
        joint = start
        for control, target in order:
            joint = apply_cnot(joint, control, target)
        assert max_abs_difference(joint, start) <= 1e-12


@pytest.mark.parametrize("q", [0, 1])
def test_even_round_cnots_change_nothing_honest(q):
    start = tensor(honest_even_carrier(), encode_pair(q, 0))
    joint = alice_entangle(start, 0)
    joint = bob_disentangle(joint)
    joint = charlie_disentangle(joint)
    assert max_abs_difference(joint, start) <= 1e-12


@pytest.mark.parametrize("q1", [0, 1])
def test_disentangle_after_round1_interception(q1):
    flip = q1 ^ 1
    transit = from_terms(
        LAB6, {f"000{q1}{q1}{q1}": 1, f"111{flip}{flip}{flip}": 1}, 1
    )
    joint = charlie_disentangle(bob_disentangle(transit))
    expected = from_terms(
        LAB6, {f"000{q1}{q1}{q1}": 1, f"111{flip}{q1}{q1}": 1}, 1
    )
    assert max_abs_difference(joint, expected) <= 1e-12


@pytest.mark.parametrize("q", [0, 1])
def test_disentangle_honest_round1(q):
    # Two-term expansion by hand: after Bob's and Charlie's CNOTs the pair
    # factors out as |q,q> and the carrier returns to the GHZ form.
    labels = ("A", "B", "C", "S1", "S2")
    joint = from_terms(
        labels,
        {f"000{q}{q}": 1, f"111{q ^ 1}{q ^ 1}": 1},
        1,
    )
    joint = charlie_disentangle(bob_disentangle(joint))
    expected = from_terms(labels, {f"000{q}{q}": 1, f"111{q}{q}": 1}, 1)
    assert max_abs_difference(joint, expected) <= 1e-12


# --- measurement and reconstruction ------------------------------------------


def test_receive_odd_honest_is_deterministic():
    carrier = init_carrier()
    joint = alice_entangle(tensor(carrier, encode_pair(1, 1)), 1)
    joint = charlie_disentangle(bob_disentangle(joint))
    record, _ = receive_and_reconstruct(joint, 1, 1, (1, 0))
    assert record.bob_outcome == 1
    assert record.charlie_outcome == 1
    assert record.reconstructed == 1
    assert record.consistent


@pytest.mark.parametrize("bob_draw", [0.2, 0.8])
def test_receive_even_honest_reconstructs_by_parity(bob_draw):
    # Bob's outcome is random; Charlie's is anticorrelated for q=1, so the
    # XOR always reconstructs the bit (enumerated over both of Bob's bits,
    # each the top bit of a draw).
    carrier = honest_even_carrier()
    joint = alice_entangle(tensor(carrier, encode_pair(1, 0)), 0)
    joint = charlie_disentangle(bob_disentangle(joint))
    record, _ = receive_and_reconstruct(joint, 2, 1, (int(bob_draw >= 0.5), 1))
    assert record.charlie_outcome == record.bob_outcome ^ 1
    assert record.reconstructed == 1
    assert record.consistent


def test_round_record_reconstruction_rules():
    odd = RoundRecord.from_outcomes(3, 1, 1, 1)
    assert odd.reconstructed == 1 and odd.consistent
    odd_bad = RoundRecord.from_outcomes(3, 1, 1, 0)
    assert odd_bad.reconstructed == 1 and not odd_bad.consistent
    even = RoundRecord.from_outcomes(4, 1, 0, 1)
    assert even.reconstructed == 1 and even.consistent


# --- round-end Hadamards ------------------------------------------------------


@pytest.mark.parametrize("q1", [0, 1])
def test_hadamards_toggle_carrier_form(q1):
    odd_form = carrier_ancilla_odd(q1)
    even_form = eve_end_round(AttackKind.CNOT_ANCILLA, end_round_hadamards(odd_form))
    assert max_abs_difference(even_form, carrier_ancilla_even(q1)) <= 1e-12
    back = eve_end_round(AttackKind.CNOT_ANCILLA, end_round_hadamards(even_form))
    assert max_abs_difference(back, odd_form) <= 1e-12


def test_hadamards_on_honest_carrier():
    even = end_round_hadamards(init_carrier())
    assert max_abs_difference(even, honest_even_carrier()) <= 1e-12


# --- public comparison ---------------------------------------------------------


def test_public_comparison_honest_run_is_clean():
    records = [RoundRecord.from_outcomes(k, b, b, b) for k, b in enumerate([1, 0, 1, 1], 1)]
    # Even rounds reconstruct via XOR, so feed outcomes that XOR to the bit.
    records[1] = RoundRecord.from_outcomes(2, 0, 1, 1)
    records[3] = RoundRecord.from_outcomes(4, 1, 0, 1)
    report = public_comparison(records, (1, 2, 3, 4))
    assert report.mismatches == 0
    assert not report.detected


def test_public_comparison_flags_corrupted_record():
    records = [
        RoundRecord.from_outcomes(1, 1, 0, 0),  # reconstructed 0 != sent 1
        RoundRecord.from_outcomes(2, 0, 1, 1),
    ]
    report = public_comparison(records, (1,))
    assert report.detected and report.mismatches == 1
    # An inconsistency alone also counts, even when the bit is right.
    records = [RoundRecord.from_outcomes(1, 1, 1, 0), RoundRecord.from_outcomes(2, 0, 0, 0)]
    report = public_comparison(records, (1, 2))
    assert report.detected and report.mismatches == 1


def test_public_comparison_only_counts_compared_indices():
    records = [
        RoundRecord.from_outcomes(1, 1, 0, 0),
        RoundRecord.from_outcomes(2, 0, 1, 1),
    ]
    report = public_comparison(records, (2,))
    assert not report.detected


def test_public_comparison_validates_indices():
    records = [RoundRecord.from_outcomes(1, 1, 1, 1), RoundRecord.from_outcomes(2, 0, 0, 0)]
    with pytest.raises(ValueError):
        public_comparison(records, (0,))
    with pytest.raises(ValueError):
        public_comparison(records, (3,))
    with pytest.raises(ValueError):
        public_comparison(records, (1, 1))
