"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import time

import numpy as np
import pytest

from ghzqss.adversary import AttackKind, eve_end_round, eve_on_transit, eve_prepare
from ghzqss.harness import (
    ExperimentConfig,
    _minimal_machine,
    _run_batch,
    run_experiment,
    run_trial,
    verify_golden_states,
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
    apply_cnot,
    apply_h,
    from_terms,
    max_abs_difference,
    measure_z,
    tensor,
)

from _util import (
    apply_x,
    equal_up_to_global_phase,
    ignore_stage,
    marginal_probabilities,
    path_columns,
    random_state,
    reduced_density_matrix,
    run_to_final_carrier,
    run_with_rows,
    sent_bits,
)
from oracles import (
    all_even_subset_probability,
    intercept_resend_detection_probability,
)

LAB4 = ("A", "B", "C", "E")


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")


def carrier_ancilla_odd(q1):
    return from_terms(LAB4, {f"000{q1}": 1, f"111{q1 ^ 1}": 1}, 1)


def carrier_ancilla_even(q1):
    terms = {}
    for i in range(16):
        s = format(i, "04b")
        if s.count("1") % 2 == 0:
            terms[s] = -1 if q1 == 1 and s[3] == "1" else 1
    return from_terms(LAB4, terms, 3)


def _tables_close(first: dict, second: dict, tol: float) -> bool:
    keys = set(first) | set(second)
    return all(abs(first.get(k, 0.0) - second.get(k, 0.0)) <= tol for k in keys)


@pytest.fixture(scope="module")
def attack_run_32():
    config = ExperimentConfig(
        n_bits=32,
        trials=10_000,
        attack=AttackKind.CNOT_ANCILLA,
        compare_fraction=0.25,
        master_seed=20_260_809,
    )
    return (config,) + run_with_rows(config)


# --- criterion 1: golden state reproduction ----------------------------------


def test_criterion_1_golden_states():
    start = time.perf_counter()
    checks = verify_golden_states()
    elapsed = time.perf_counter() - start

    worst = max(c.max_error for c in checks)
    ok = len(checks) == 10 and all(c.passed for c in checks) and worst == 0.0 and elapsed < 1.0

    # Independent sign-pattern cross-check for the signed Hadamard branch:
    # the even form for q1=1 carries a minus exactly on the kets printed with
    # one, i.e. 0011, 0101, 1001, 1111 (ancilla bit set), plus on the rest.
    even = eve_end_round(AttackKind.CNOT_ANCILLA, end_round_hadamards(carrier_ancilla_odd(1)))
    signs = {}
    for i, a in enumerate(even.ints):
        if a:
            signs[format(i, "04b")] = 1 if a > 0 else -1
    expected_signs = {
        "0000": 1, "0011": -1, "0101": -1, "0110": 1,
        "1001": -1, "1010": 1, "1100": 1, "1111": -1,
    }
    ok = ok and signs == expected_signs
    # Every nonzero amplitude is exactly ±1/(2 sqrt2): an entry ±1 at r = 3.
    ok = ok and even.r == 3 and all(abs(a) == 1 for a in even.ints if a)

    _report(1, "golden state reproduction", ok, f"max error {worst:.2e}, {elapsed * 1e3:.0f} ms")
    assert ok


# --- criterion 2: zero detection with honest-looking statistics ----------------


def test_criterion_2_zero_detection(attack_run_32):
    config, report, _rows = attack_run_32
    ok = report.detection_rate == 0.0 and report.mismatch_histogram == {0: 10_000}

    # Per-round observable statistics match an honest run on every reachable
    # round configuration: compare the receivers' joint (S1, S2) table and
    # each carrier qubit's own table at the pre-measurement stage, for both
    # carrier branches, both data bits, and every round type.
    honest_odd = init_carrier()
    honest_even = end_round_hadamards(init_carrier())
    worst_gap = 0.0
    for q1 in (0, 1):
        cases = [
            (1, eve_prepare(AttackKind.CNOT_ANCILLA, honest_odd), honest_odd),
            (3, carrier_ancilla_odd(q1), honest_odd),
            (2, carrier_ancilla_even(q1), honest_even),
        ]
        for k, attack_carrier, honest_carrier in cases:
            for q in (0, 1):
                attacked = alice_entangle(tensor(attack_carrier, encode_pair(q, k % 2)), k % 2)
                attacked, _ = eve_on_transit(AttackKind.CNOT_ANCILLA, k, attacked, 1, ignore_stage)
                attacked = charlie_disentangle(bob_disentangle(attacked))
                honest = alice_entangle(tensor(honest_carrier, encode_pair(q, k % 2)), k % 2)
                honest = charlie_disentangle(bob_disentangle(honest))
                for subset in (("S1", "S2"), ("A",), ("B",), ("C",)):
                    ta = marginal_probabilities(attacked, subset)
                    th = marginal_probabilities(honest, subset)
                    keys = set(ta) | set(th)
                    gap = max(abs(ta.get(x, 0.0) - th.get(x, 0.0)) for x in keys)
                    worst_gap = max(worst_gap, gap)
    ok = ok and worst_gap <= 1e-9

    # End-of-trial carrier: for even-length runs the carrier+ancilla returns
    # to its odd form and the carrier qubits alone are honest-GHZ distributed.
    honest_table = marginal_probabilities(honest_odd, ("A", "B", "C"))
    sample_config = ExperimentConfig(
        n_bits=32, trials=1, attack=AttackKind.CNOT_ANCILLA,
        compare_fraction=0.25, master_seed=config.master_seed,
    )
    for t in range(40):
        result, final_carrier = run_to_final_carrier(sample_config, t)
        assert equal_up_to_global_phase(
            final_carrier, carrier_ancilla_odd(sent_bits(result)[0]), tol=1e-9
        )
        table = marginal_probabilities(final_carrier, ("A", "B", "C"))
        ok = ok and _tables_close(table, honest_table, 1e-9)

    _report(
        2,
        "zero detection, honest-looking statistics",
        ok,
        f"detection rate {report.detection_rate}, marginal gap {worst_gap:.1e}",
    )
    assert ok


# --- criterion 3: exact recovery of the odd-indexed bits ------------------------


def test_criterion_3_half_the_bits(attack_run_32):
    _config, report, rows = attack_run_32
    nonambiguous = ~rows["ambiguous"]
    ok = bool(nonambiguous.any())
    ok = ok and bool(np.all(rows["eve_correct_bits"][nonambiguous] == 16))  # ceil(32/2)
    ok = ok and bool(np.all(rows["eve_correct_bits"][nonambiguous] / 32 == 0.5))
    ok = ok and report.mean_eve_known_fraction == 0.5

    # Offset relation r_k = q_k xor q_1 in 100% of recorded rounds,
    # checked over full batches at even and odd n.
    relation_rounds = 0
    for n in (16, 9):
        config = ExperimentConfig(
            n_bits=n, trials=2048, attack=AttackKind.CNOT_ANCILLA,
            compare_fraction=0.25, master_seed=97 + n,
        )
        machine, reads = _minimal_machine(config.attack)
        assert reads & 0b1000  # the path holds the data bits
        out = path_columns(_run_batch(config, np.arange(config.trials)).path, machine)
        for k in range(3, n + 1, 2):
            r = out.eve_readouts[:, k - 1]
            assert np.all(r >= 0)
            ok = ok and bool(np.all(r == (out.bits[:, k - 1] ^ out.bits[:, 0])))
            relation_rounds += r.size

    # Odd n: the inferred count is ceil(n/2) and every inferred bit is right.
    config9 = ExperimentConfig(
        n_bits=9, trials=1, attack=AttackKind.CNOT_ANCILLA,
        compare_fraction=0.5, master_seed=123,
    )
    for t in range(60):
        result = run_trial(config9, t)
        if result.eve.ambiguous:
            continue
        inferred = result.eve.inferred_bits
        ok = ok and len(inferred) == 5 == result.eve_correct_bits
        ok = ok and all(sent_bits(result)[j - 1] == b for j, b in inferred.items())

    _report(
        3,
        "half-the-bits recovery",
        ok,
        f"{int(nonambiguous.sum())} non-ambiguous trials, offset relation over {relation_rounds} readouts",
    )
    assert ok


# --- criterion 4: ambiguity probability ------------------------------------------


def test_criterion_4_ambiguity_rate_matches_hypergeometric():
    config = ExperimentConfig(
        n_bits=16,
        trials=100_000,
        attack=AttackKind.CNOT_ANCILLA,
        compare_fraction=0.25,
        master_seed=31_337,
    )
    report = run_experiment(config)
    expected = all_even_subset_probability(16, 0.25)
    assert expected == pytest.approx(math.comb(8, 4) / math.comb(16, 4), abs=1e-15)
    sigma = math.sqrt(expected * (1.0 - expected) / config.trials)
    gap = abs(report.ambiguous_rate - expected)
    ok = gap <= 3.0 * sigma
    _report(
        4,
        "ambiguity probability",
        ok,
        f"rate {report.ambiguous_rate:.5f} vs {expected:.5f}, {gap / sigma:.2f} sigma",
    )
    assert ok


# --- criterion 5: even rounds leak nothing to the interceptor ---------------------


def test_criterion_5_even_round_ancilla_independence():
    worst = 0.0
    for q1 in (0, 1):
        ancilla_states = {}
        for q in (0, 1):
            joint = tensor(carrier_ancilla_even(q1), encode_pair(q, 0))
            joint = alice_entangle(joint, 0)
            joint, _ = eve_on_transit(AttackKind.CNOT_ANCILLA, 2, joint, 1, ignore_stage)
            joint = charlie_disentangle(bob_disentangle(joint))
            states = [reduced_density_matrix(joint, ("E",))]
            # Also through both receiver measurement branches and the
            # round-end Hadamards: still independent of q.
            for bob_bit in (0, 1):
                record, collapsed = receive_and_reconstruct(joint, 2, q, (bob_bit, 1))
                states.append(reduced_density_matrix(collapsed, ("E",)))
                ended = eve_end_round(AttackKind.CNOT_ANCILLA, end_round_hadamards(collapsed))
                states.append(reduced_density_matrix(ended, ("E",)))
            ancilla_states[q] = states
        for rho0, rho1 in zip(ancilla_states[0], ancilla_states[1]):
            worst = max(worst, float(np.max(np.abs(rho0 - rho1))))
    ok = worst <= 1e-9
    _report(5, "even-round interceptor ignorance", ok, f"max ancilla gap {worst:.1e}")
    assert ok


# --- criterion 6: measure-and-resend baseline is detectable ------------------------


def test_criterion_6_intercept_resend_matches_enumeration_oracle():
    # Smallest interesting case has a closed form: only round 2 can corrupt,
    # it does so with probability 1/2, and the single compared index hits it
    # with probability 1/2: detection probability exactly 1/4.
    exact_small = intercept_resend_detection_probability(2, 0.5)
    ok = abs(exact_small - 0.25) <= 1e-12

    config_small = ExperimentConfig(
        n_bits=2, trials=2000, attack=AttackKind.INTERCEPT_RESEND,
        compare_fraction=0.5, master_seed=5150,
    )
    small = run_experiment(config_small)
    sigma_small = math.sqrt(exact_small * (1 - exact_small) / config_small.trials)
    ok = ok and small.detection_rate > 0.0
    ok = ok and abs(small.detection_rate - exact_small) <= 3.0 * sigma_small

    config = ExperimentConfig(
        n_bits=16, trials=10_000, attack=AttackKind.INTERCEPT_RESEND,
        compare_fraction=0.5, master_seed=271_828,
    )
    report = run_experiment(config)
    expected = intercept_resend_detection_probability(16, 0.5)
    sigma = math.sqrt(expected * (1 - expected) / config.trials)
    gap = abs(report.detection_rate - expected)
    ok = ok and report.detection_rate > 0.0 and gap <= 3.0 * sigma

    _report(
        6,
        "measure-and-resend baseline vs enumeration oracle",
        ok,
        f"n=2: {small.detection_rate:.4f} vs 0.25; n=16: {report.detection_rate:.4f} "
        f"vs {expected:.4f} ({gap / sigma:.2f} sigma)",
    )
    assert ok


# --- criterion 7: core engine property suite ----------------------------------------


def test_criterion_7_engine_properties():
    rng = np.random.default_rng(424242)
    ok = True

    # Unitarity: random gate chains preserve the norm, exactly.
    for _ in range(25):
        labels = ("A", "B", "C", "E", "S1", "S2")[: int(rng.integers(2, 7))]
        s = random_state(labels, rng)
        for _ in range(20):
            choice = rng.integers(3)
            q = labels[rng.integers(len(labels))]
            if choice == 0:
                s = apply_h(s, q)
            elif choice == 1:
                s = apply_x(s, q)
            else:
                t = labels[(labels.index(q) + 1) % len(labels)]
                s = apply_cnot(s, q, t)
        ok = ok and sum(a * a for a in s.ints) == 1 << s.r

    # Involutions.
    s = random_state(("A", "B", "C"), rng)
    ok = ok and max_abs_difference(apply_h(apply_h(s, "B"), "B"), s) <= 1e-12
    ok = ok and max_abs_difference(apply_x(apply_x(s, "C"), "C"), s) <= 1e-12
    ok = ok and max_abs_difference(apply_cnot(apply_cnot(s, "A", "C"), "A", "C"), s) <= 1e-12

    # Strict single-flip identity on the Bell-encoded pair.
    for q in (0, 1):
        pair = encode_pair(q, 0)
        flipped = encode_pair(q ^ 1, 0)
        ok = ok and max_abs_difference(apply_x(pair, "S1"), flipped) <= 1e-12
        ok = ok and max_abs_difference(apply_x(pair, "S2"), flipped) <= 1e-12

    # Even numbers of flips over either pair qubit leave the encoding alone.
    for q in (0, 1):
        s = encode_pair(q, 0)
        for count in (2, 4, 6):
            t = s
            for i in range(count):
                t = apply_x(t, "S1" if rng.integers(2) else "S2")
            parity_flips = count % 2
            ok = ok and max_abs_difference(t, encode_pair(q ^ parity_flips, 0)) <= 1e-12

    # Born consistency on a random three-qubit state.
    s = random_state(("A", "B", "C"), rng)
    p0 = marginal_probabilities(s, ("B",)).get("0", 0.0)
    # A fair outcome is its bit: the draw's top bit, 1 when it reaches 1/2.
    draws = rng.random(10_000)
    zeros = sum(measure_z(s, "B", int(d >= 0.5))[0] == 0 for d in draws)
    band = 3.0 * math.sqrt(p0 * (1 - p0) / draws.size)
    ok = ok and abs(zeros / draws.size - p0) <= band

    _report(7, "core engine property suite", ok)
    assert ok
