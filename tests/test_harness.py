import hashlib
import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzqss import adversary, protocol
from ghzqss.adversary import AttackKind, EveInferenceError, eve_on_transit
from ghzqss.harness import (
    ExperimentConfig,
    _batch_randomness,
    _bit,
    _draw,
    _round_symbols,
    _run_batch,
    _stream,
    _transition_table,
    aggregate_report_dict,
    run_experiment,
    run_trial,
    seed_for_trial,
    verify_golden_states,
)
from ghzqss.protocol import (
    alice_entangle,
    bob_disentangle,
    charlie_disentangle,
    encode_pair,
    end_round_hadamards,
    init_carrier,
    round_parity,
)
from ghzqss.statevector import (
    from_terms,
    measure_z,
    measurement_log,
    probability_of_zero,
    tensor,
)

from _util import ROW_COLUMNS, equal_up_to_global_phase, marginal_probabilities, path_columns, run_with_rows

LAB4 = ("A", "B", "C", "E")


def carrier_ancilla_odd(q1):
    return from_terms(LAB4, {f"000{q1}": 1, f"111{q1 ^ 1}": 1}, 1)


# --- seeding ---------------------------------------------------------------


def test_seed_for_trial_varies_with_index_and_master():
    assert seed_for_trial(7, 0) != seed_for_trial(7, 1)
    assert seed_for_trial(7, 0) != seed_for_trial(8, 0)
    assert seed_for_trial(7, 3) == seed_for_trial(7, 3)


def test_seed_for_trial_no_collisions_across_masters():
    seeds = set(seed_for_trial(np.arange(1_000_000, dtype=np.uint64), 0).tolist())
    assert len(seeds) == 1_000_000


def _splitmix64_seed(master: int, trial_index: int) -> int:
    """The per-trial seed in Python integers, as the reference for the vectorised one."""
    mask = (1 << 64) - 1
    z = (master + (trial_index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


@pytest.mark.parametrize("master", [0, 7, -1, 2**64 + 5, 2**70])
def test_seed_for_trial_vectorised_matches_the_integer_formula(master):
    indices = [0, 1, 2**40, 2**63]
    expected = [_splitmix64_seed(master, t) for t in indices]
    assert seed_for_trial(master, np.array(indices, dtype=np.uint64)).tolist() == expected
    assert [int(seed_for_trial(master, t)) for t in indices] == expected


def _trial_randomness(config, indices):
    seeds, compared = _batch_randomness(config, indices)
    symbols = np.stack([_round_symbols(config, seeds, k) for k in range(1, config.n_bits + 1)], axis=1)
    return seeds, symbols, compared


def test_trial_randomness_is_stable_and_sized():
    random_config = ExperimentConfig(n_bits=9, master_seed=5)
    _, symbols, _ = _trial_randomness(random_config, np.array([4]))
    # Fixing every data bit to the complement of the drawn one shows the override.
    complement = "".join(str(1 - (int(sym) >> 3)) for sym in symbols[0])
    for bits in (None, complement):
        config = ExperimentConfig(n_bits=9, trials=1, compare_fraction=0.3, master_seed=5, bits=bits)
        seeds, symbols, compared = _trial_randomness(config, np.array([4]))
        _, symbols2, compared2 = _trial_randomness(config, np.array([4]))
        assert np.array_equal(symbols, symbols2) and np.array_equal(compared, compared2)
        assert symbols.shape == (1, 9) and compared.shape == (1, 9)
        assert symbols.dtype == np.int64 and set(np.unique(symbols)) <= set(range(16))
        assert compared.sum() == config.compare_count == 3
        seed = int(seeds[0])
        for k in range(1, 10):
            # The data bit, then the top bits of Eve's, Bob's and Charlie's words.
            q = _bit(_stream(seed, k, 0)) if bits is None else int(bits[k - 1])
            e, b, c = (_bit(_stream(seed, k, column)) for column in (1, 2, 3))
            assert int(symbols[0, k - 1]) == q << 3 | e << 2 | b << 1 | c


@pytest.mark.parametrize("word", [0, 2**63 - 2**11, 2**63 - 1, 2**63, 2**64 - 1])
def test_a_words_top_bit_is_whether_its_draw_reaches_one_half(word):
    assert _bit(word) == int(_draw(word) >= 0.5)
    assert _bit(np.array([word], dtype=np.uint64))[0] == _bit(word)


@pytest.mark.parametrize("fraction", [0.1, 0.9, 1.0])  # m = 1, n - 1 and n at n = 10
def test_every_trial_compares_exactly_compare_count_rounds(fraction):
    config = ExperimentConfig(n_bits=10, trials=500, compare_fraction=fraction, master_seed=3)
    _, compared = _batch_randomness(config, np.arange(config.trials))
    assert np.all(compared.sum(axis=1) == config.compare_count)


def test_compared_positions_are_uniform():
    config = ExperimentConfig(n_bits=8, trials=20_000, compare_fraction=3 / 8, master_seed=11)
    assert config.compare_count == 3
    _, compared = _batch_randomness(config, np.arange(config.trials))
    p = 3 / 8
    band = 5.0 * math.sqrt(p * (1 - p) / config.trials)
    assert np.all(np.abs(compared.mean(axis=0) - p) <= band)


def test_fixed_bits_mode():
    config = ExperimentConfig(n_bits=4, bits="1011", master_seed=1)
    assert run_trial(config, 0).bits == (1, 0, 1, 1)
    assert config.bits_mode == "fixed"


# --- config validation --------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_bits": 0},
        {"n_bits": 2**21 + 1},
        {"n_bits": 4, "trials": 0},
        {"n_bits": 4, "compare_fraction": 0.0},
        {"n_bits": 4, "compare_fraction": 1.5},
        {"n_bits": 4, "bits": "10"},
        {"n_bits": 2, "bits": "1x"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)
    with pytest.raises(ValueError):  # a copy is checked as well
        ExperimentConfig(n_bits=4)._replace(**kwargs)


def test_compare_count_is_at_least_one():
    config = ExperimentConfig(n_bits=3, compare_fraction=0.1)
    assert config.compare_count == 1


@pytest.mark.parametrize("fraction, n_bits", [(0.28, 25), (0.14, 50), (0.07, 100)])
def test_compare_count_is_exact_where_the_float_product_misrounds(fraction, n_bits):
    assert math.ceil(fraction * n_bits) == 8
    assert ExperimentConfig(n_bits=n_bits, compare_fraction=fraction).compare_count == 7


def test_compare_count_is_the_exact_ceiling_of_the_decimal_fraction():
    from fractions import Fraction

    rng = random.Random(20260)
    fractions = [0.28, 0.14, 0.07, 1.0, 0.1, 1e-05, 5e-324, 0.9999999999999999]
    fractions += [1.0 - rng.random() for _ in range(200)]  # in (0, 1]
    for f in fractions:
        for n in (1, 2, 7, 25, 100, 2**21):
            expected = math.ceil(Fraction(str(f)) * n)
            assert ExperimentConfig(n_bits=n, compare_fraction=f).compare_count == expected, (f, n)


# --- single trials ----------------------------------------------------------------


def test_no_attack_trial_reconstructs_everything():
    config = ExperimentConfig(n_bits=10, attack=AttackKind.NO_ATTACK, master_seed=3)
    result = run_trial(config, 0)
    assert not result.detection.detected
    for rec, sent in zip(result.transcript, result.bits):
        assert rec.reconstructed == sent
        assert rec.consistent
    assert result.eve_known_fraction == 0.0
    assert result.eve.measured == {}


def test_cnot_ancilla_trial_recovers_odd_bits():
    # Find a trial whose comparison subset announces an odd index.
    config = ExperimentConfig(
        n_bits=8, attack=AttackKind.CNOT_ANCILLA, compare_fraction=0.25, master_seed=12
    )
    for t in range(20):
        result = run_trial(config, t)
        if not result.eve.ambiguous:
            break
    else:
        pytest.fail("no non-ambiguous trial in 20 attempts")
    assert not result.detection.detected
    assert result.eve_correct_bits == 4  # ceil(8/2)
    assert result.eve_known_fraction == 0.5
    inferred = result.eve.inferred_bits
    assert set(inferred) == {1, 3, 5, 7}
    for j, guess in inferred.items():
        assert guess == result.bits[j - 1]


def test_cnot_ancilla_all_even_announcement_is_ambiguous():
    config = ExperimentConfig(
        n_bits=2, attack=AttackKind.CNOT_ANCILLA, compare_fraction=0.5, master_seed=0
    )
    for t in range(50):
        result = run_trial(config, t)
        if result.detection.compared_indices == (2,):
            assert result.eve.ambiguous
            assert result.eve_correct_bits == 0
            assert result.eve.candidates is not None
            first, second = result.eve.candidates
            # One of the two candidates is the truth.
            truth = {1: result.bits[0]}
            assert truth in (first, second)
            return
    pytest.fail("no all-even comparison subset in 50 trials")


@settings(deadline=None, max_examples=25)
@given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_honest_run_correctness_and_carrier_cycle(n, seed):
    config = ExperimentConfig(n_bits=n, attack=AttackKind.NO_ATTACK, master_seed=seed)
    carriers = []
    result = run_trial(
        config,
        0,
        observer=lambda k, stage, state: carriers.append((k, state))
        if stage == "after round-end Hadamards"
        else None,
    )
    for rec, sent in zip(result.transcript, result.bits):
        assert rec.reconstructed == sent and rec.consistent
    ghz = init_carrier()
    even_form = end_round_hadamards(ghz)
    for k, carrier in carriers:
        expected = even_form if k % 2 == 1 else ghz
        assert equal_up_to_global_phase(carrier, expected, tol=1e-9)


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 10_000),
    fraction=st.floats(0.05, 1.0),
)
def test_zero_detection_for_cnot_ancilla(n, seed, fraction):
    config = ExperimentConfig(
        n_bits=n,
        attack=AttackKind.CNOT_ANCILLA,
        compare_fraction=fraction,
        master_seed=seed,
    )
    result = run_trial(config, 0)
    assert result.detection.mismatches == 0
    assert not result.detection.detected
    for rec, sent in zip(result.transcript, result.bits):
        assert rec.reconstructed == sent and rec.consistent


@settings(deadline=None, max_examples=20)
@given(n=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_offset_relation_and_deterministic_readouts(n, seed):
    config = ExperimentConfig(n_bits=n, attack=AttackKind.CNOT_ANCILLA, master_seed=seed)
    result = run_trial(config, 0)
    q1 = result.bits[0]
    expected_rounds = {k for k in range(3, n + 1, 2)}
    assert set(result.eve.measured) == expected_rounds
    for k, r in result.eve.measured.items():
        assert r == result.bits[k - 1] ^ q1
        assert result.eve.probabilities[k] == pytest.approx(1.0, abs=1e-12)


def test_final_carrier_purity_after_even_length_attack_run():
    config = ExperimentConfig(n_bits=6, attack=AttackKind.CNOT_ANCILLA, master_seed=21)
    result = run_trial(config, 0)
    expected = carrier_ancilla_odd(result.bits[0])
    assert equal_up_to_global_phase(result.final_carrier, expected, tol=1e-9)
    # The carrier qubits alone look exactly like the honest GHZ carrier.
    attack_table = marginal_probabilities(result.final_carrier, ("A", "B", "C"))
    honest_table = marginal_probabilities(init_carrier(), ("A", "B", "C"))
    assert attack_table == pytest.approx(honest_table, abs=1e-9)


def test_trace_snapshots_cover_every_round():
    config = ExperimentConfig(n_bits=2, attack=AttackKind.CNOT_ANCILLA, master_seed=2, bits="10")
    snapshots = []
    run_trial(config, 0, observer=lambda *snapshot: snapshots.append(snapshot))
    rounds_seen = {k for k, _, _ in snapshots}
    assert rounds_seen == {0, 1, 2}
    stages_round_1 = [stage for k, stage, _ in snapshots if k == 1]
    assert "after Eve C(S1->E)" in stages_round_1
    assert "after round-end Hadamards" in stages_round_1


def _exact_trial(result, snapshots):
    """A trial's fields, every field of its Eve record, and its trace, with
    every state as its exact key (labels and bytes)."""
    fields = result._replace(eve=None, final_carrier=None)
    return fields, vars(result.eve), result.final_carrier.key, [(k, stage, state.key) for k, stage, state in snapshots]


@pytest.mark.parametrize("attack", list(AttackKind))
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_run_trial_is_identical_with_and_without_the_memo(attack, seed):
    config = ExperimentConfig(n_bits=64, attack=attack, master_seed=seed)
    runs = {}
    for name, play in (("memo", run_trial), ("direct", run_trial.__wrapped__)):
        snapshots = []
        result = play(config, 3, observer=lambda *snapshot: snapshots.append(snapshot))
        runs[name] = _exact_trial(result, snapshots), snapshots
    assert runs["memo"][0] == runs["direct"][0]
    # The memo did answer: repeated snapshots share one state object.
    assert len({id(state) for *_, state in runs["memo"][1]}) < len({id(state) for *_, state in runs["direct"][1]})


# --- batch engine equivalence ---------------------------------------------------


@pytest.mark.parametrize("attack", list(AttackKind))
@pytest.mark.parametrize(
    "n_bits, fraction, bits",
    [
        pytest.param(1, 1.0, None, id="1-1.0"),
        pytest.param(5, 0.4, None, id="5-0.4"),
        pytest.param(8, 0.25, None, id="8-0.25"),
        pytest.param(17, 0.25, None, id="17-0.25"),
        pytest.param(9, 1.0, None, id="9-1.0"),
        pytest.param(1, 1.0, "1", id="1-1.0-fixed"),
        pytest.param(5, 0.4, "10110", id="5-0.4-fixed"),
        pytest.param(17, 0.25, "01101001110010110", id="17-0.25-fixed"),
    ],
)
def test_batch_engine_matches_single_trials(attack, n_bits, fraction, bits):
    config = ExperimentConfig(
        n_bits=n_bits, trials=24, attack=attack, compare_fraction=fraction, master_seed=77, bits=bits
    )
    out = _run_batch(config, np.arange(24))
    columns = path_columns(out.path, attack)
    final_carriers = {}
    for t in range(24):
        single = run_trial(config, t)
        assert tuple(columns.bits[t]) == single.bits
        for k, rec in enumerate(single.transcript):
            assert columns.bob[t, k] == rec.bob_outcome
            assert columns.charlie[t, k] == rec.charlie_outcome
        assert bool(out.detected[t]) == single.detection.detected
        assert int(out.mismatches[t]) == single.detection.mismatches
        assert bool(out.ambiguous[t]) == single.eve.ambiguous
        assert int(out.eve_correct[t]) == single.eve_correct_bits
        assert float(out.known_fraction[t]) == pytest.approx(single.eve_known_fraction)
        # Trials ending in one table state end in one carrier, and vice versa.
        key = final_carriers.setdefault(int(columns.final_state[t]), single.final_carrier.key)
        assert key == single.final_carrier.key
        if attack is AttackKind.CNOT_ANCILLA:
            for k, r in single.eve.measured.items():
                assert columns.eve_readouts[t, k - 1] == r
    assert len(set(final_carriers.values())) == len(final_carriers)


def test_transition_table_is_built_on_first_use_once_per_attack():
    import ghzqss.harness as harness

    harness._transition_table.cache_clear()
    for attack in AttackKind:
        config = ExperimentConfig(n_bits=3, trials=2, attack=attack)
        run_experiment(config)
        run_experiment(config)
    info = harness._transition_table.cache_info()
    assert info.misses == info.currsize == len(AttackKind)


# State count and sha256 of each table's columns, in field order; a
# renumbered state changes ``next_state`` and so the digest.
TABLE_DIGESTS = {
    AttackKind.NO_ATTACK: (3, "d7c31c80ef7ab23265d1ac8176aec1acbf84a95de66ecbb5e6ec05ba0c4efc66"),
    AttackKind.INTERCEPT_RESEND: (17, "f7a0659f9052d0d40e1e86a35b168d3b2bfb770382a6ce4e328d5c5bb39bde5f"),
    AttackKind.CNOT_ANCILLA: (5, "b11ca0a4ec2ded9ee31cac18a55fb77c7a26a6b0ebfd5b0e35e3b015bddeb4c1"),
}


@pytest.mark.parametrize("attack", list(AttackKind))
def test_transition_tables_are_pinned(attack):
    table = _transition_table(attack)
    assert table._fields == ("reveals", "hits", "mismatch", "next_state", "by_symbol")
    digest = hashlib.sha256()
    for column in table:
        digest.update(f"{column.dtype.str}{column.shape}".encode())
        digest.update(np.ascontiguousarray(column).tobytes())
    assert (len(table.next_state), digest.hexdigest()) == TABLE_DIGESTS[attack]


#: The largest draw the random stream can produce.
LARGEST_DRAW = 1.0 - 2.0**-53


def _record_measurements(monkeypatch, reached):
    """Make every measurement of the protocol and the adversary add its
    (state, qubit) to ``reached``, keyed on P(0) and the state's key."""

    def recording(state, q, draw):
        reached.setdefault((probability_of_zero(state, q), state.key, q), (state, q))
        return measure_z(state, q, draw)

    monkeypatch.setattr(protocol, "measure_z", recording)
    monkeypatch.setattr(adversary, "measure_z", recording)


def _build_recording_measurements(monkeypatch, attack):
    """A fresh table build for ``attack``, and every measurement it makes,
    recorded as :func:`_record_measurements` records them."""
    import ghzqss.harness as harness

    reached = {}
    _record_measurements(monkeypatch, reached)
    harness._transition_table.cache_clear()
    try:
        return harness._transition_table(attack), reached
    finally:
        harness._transition_table.cache_clear()


@pytest.mark.parametrize("attack", list(AttackKind))
def test_the_largest_draw_never_realizes_a_rounding_noise_branch(attack, monkeypatch):
    # P(0) is exact, so no measurement has a rounding-noise branch: every P(0)
    # is 0, 1/2 or 1, and the largest draw realizes the certain outcome of
    # every P(0) = 1.
    reached = {}
    _record_measurements(monkeypatch, reached)
    for seed in range(3):
        run_trial(ExperimentConfig(n_bits=64, attack=attack, master_seed=seed), 0)
    p0s = {p0 for p0, _, _ in reached}
    assert p0s <= {0.0, 0.5, 1.0} and 1.0 in p0s
    for (p0, _, _), (state, q) in reached.items():
        if p0 == 1.0:
            with measurement_log() as log:
                outcome, _, record = measure_z(state, q, LARGEST_DRAW)
            assert (outcome, record.probability, log) == (0, 1.0, [1.0])


@pytest.mark.parametrize("attack", list(AttackKind))
def test_every_fair_measurement_of_the_tables_splits_the_draws_at_one_half(attack, monkeypatch):
    # A fair threshold is exactly 1/2, so ``draw >= P(0)`` is the top bit of
    # the draw's word, as the batch engine reads it, on every draw.
    _, reached = _build_recording_measurements(monkeypatch, attack)
    # Every measurement is certain or fair, exactly, and some are fair.
    p0s = {p0 for p0, _, _ in reached}
    assert p0s <= {0.0, 0.5, 1.0} and 0.5 in p0s
    fair = [(state, q) for (p0, _, _), (state, q) in reached.items() if p0 == 0.5]
    for state, q in fair:
        assert [measure_z(state, q, draw)[0] for draw in (0.5 - 2.0**-53, 0.5)] == [0, 1]


def test_the_table_build_plays_each_receive_half_once_per_cell(monkeypatch):
    # A (state, q, Eve's outcome) cell's receive half is played once per
    # symbol of Bob's and Charlie's bits, even where both of Eve's symbols
    # reach the cell.
    import ghzqss.harness as harness

    receive = harness._receive
    played = Counter()

    def counting(kind, k, joint, q, draws, emit):
        played[kind, k, joint.key, q, draws] += 1
        return receive(kind, k, joint, q, draws, emit)

    monkeypatch.setattr(harness, "_receive", counting)
    harness._transition_table.cache_clear()
    try:
        for attack in AttackKind:
            harness._transition_table(attack)
    finally:
        harness._transition_table.cache_clear()
    assert played and set(played.values()) == {1}


@pytest.mark.parametrize("attack", list(AttackKind))
def test_extreme_draws_take_an_enumerated_branch_of_the_table(attack, monkeypatch):
    table, reached = _build_recording_measurements(monkeypatch, attack)
    # Every measurement the build makes takes a branch of nonzero
    # probability at every extreme draw (a zero-probability branch raises).
    assert reached
    for state, q in reached.values():
        for draw in (0.0, 0.25, 0.75, LARGEST_DRAW):
            assert measure_z(state, q, draw)[2].probability > 0.0
    # Every symbol of every (state, q) reaches a cell with a next state.
    assert np.all(table.by_symbol >= 0)
    assert np.all(table.next_state.reshape(-1)[table.by_symbol] >= 0)


def test_a_changed_round_op_reaches_both_engines(monkeypatch):
    import ghzqss.harness as harness

    reference = harness.receive_and_reconstruct

    def charlie_alone_on_even_rounds(joint, k, sent, draws):
        rec, joint = reference(joint, k, sent, draws)
        if k % 2 == 0:
            rec = rec._replace(reconstructed=rec.charlie_outcome)
        return rec, joint

    harness._transition_table.cache_clear()
    monkeypatch.setattr(harness, "receive_and_reconstruct", charlie_alone_on_even_rounds)
    try:
        for attack in AttackKind:
            config = ExperimentConfig(n_bits=6, trials=40, attack=attack, compare_fraction=1.0, master_seed=13)
            batch = _run_batch(config, np.arange(40)).mismatches.tolist()
            assert batch == [run_trial(config, t).detection.mismatches for t in range(40)]
            assert any(batch)
    finally:
        harness._transition_table.cache_clear()


def test_transition_table_refuses_a_measurement_neither_certain_nor_fair(monkeypatch):
    import ghzqss.harness as harness
    from ghzqss import statevector

    fair = statevector.probability_of_zero

    def skewed(state, q):
        p0 = fair(state, q)
        return 0.3 if abs(p0 - 0.5) <= 1e-12 else p0

    harness._transition_table.cache_clear()
    monkeypatch.setattr(statevector, "probability_of_zero", skewed)
    try:
        for attack in AttackKind:
            with pytest.raises(RuntimeError, match="neither certain nor fair"):
                harness._transition_table(attack)
    finally:
        harness._transition_table.cache_clear()


def test_batch_engine_refuses_conflicting_reveals(monkeypatch):
    import ghzqss.harness as harness

    table = harness._transition_table(AttackKind.CNOT_ANCILLA)
    # Every round reveals its own bit as the offset, so rounds sending 1 and 0 disagree.
    conflicting = table._replace(
        reveals=np.zeros_like(table.reveals) + np.arange(2, dtype=np.int8)[:, None]
    )
    monkeypatch.setattr(harness, "_transition_table", lambda kind: conflicting)
    config = ExperimentConfig(n_bits=2, trials=4, attack=AttackKind.CNOT_ANCILLA, compare_fraction=1.0, bits="10")
    with pytest.raises(EveInferenceError, match="conflicting offsets"):
        _run_batch(config, np.arange(4))


def test_batch_compared_subset_matches_single():
    config = ExperimentConfig(n_bits=7, trials=10, compare_fraction=0.4, master_seed=9)
    out = _run_batch(config, np.arange(10))
    for t in range(10):
        batch_subset = tuple(np.nonzero(out.compared[t])[0] + 1)
        assert batch_subset == run_trial(config, t).detection.compared_indices


# --- experiments ------------------------------------------------------------------


def test_run_experiment_no_attack():
    config = ExperimentConfig(n_bits=6, trials=300, attack=AttackKind.NO_ATTACK, master_seed=4)
    report = run_experiment(config)
    assert report.detection_rate == 0.0
    assert report.mean_eve_known_fraction == 0.0
    assert report.ambiguous_rate == 0.0
    assert report.mismatch_histogram == {0: 300}
    assert report.trial_count == 300


@pytest.mark.parametrize("attack", [AttackKind.INTERCEPT_RESEND, AttackKind.CNOT_ANCILLA])
def test_run_experiment_chunking_is_invisible(monkeypatch, attack):
    import ghzqss.harness as harness

    config = ExperimentConfig(n_bits=5, trials=50, attack=attack, compare_fraction=0.5, master_seed=6)
    full, full_rows = run_with_rows(config)
    monkeypatch.setattr(harness, "_CHUNK_ROUNDS", 35)  # chunks of 7 trials at n_bits=5
    chunked, chunked_rows = run_with_rows(config)
    assert full == chunked
    for name in ROW_COLUMNS:
        assert np.array_equal(full_rows[name], chunked_rows[name]), name


def test_run_experiment_peak_memory_follows_the_chunk_budget(monkeypatch):
    import tracemalloc

    import ghzqss.harness as harness

    def peak(trials: int) -> int:
        config = ExperimentConfig(n_bits=256, trials=trials, attack=AttackKind.CNOT_ANCILLA)
        tracemalloc.start()
        try:
            run_experiment(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(harness, "_CHUNK_ROUNDS", 256 * 16)  # chunks of 16 trials
    peak(1)  # the table and one-time allocations land outside the compared peaks
    # Eight chunks peak no higher than one: memory follows the budget, not trials x n.
    assert peak(128) < 1.25 * peak(16)


def test_run_csv_peak_memory_does_not_grow_with_trials(monkeypatch):
    import contextlib
    import os
    import tracemalloc

    import ghzqss.harness as harness
    from ghzqss.cli import main

    def peak(trials: int) -> int:
        argv = ["run", "--bits-count", "16", "--attack", "cnot-ancilla", "--trials", str(trials), "--format", "csv"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    monkeypatch.setattr(harness, "_CHUNK_ROUNDS", 256)  # chunks of 16 trials
    peak(1)  # the table and one-time allocations land outside the compared peaks
    # Rows are written chunk by chunk, so 256 chunks peak no higher than 32.
    assert peak(4096) < 1.25 * peak(512)


def test_run_experiment_reports_are_byte_identical():
    config = ExperimentConfig(
        n_bits=8, trials=200, attack=AttackKind.CNOT_ANCILLA, compare_fraction=0.25, master_seed=10
    )
    first = json.dumps(aggregate_report_dict(config, run_experiment(config)), sort_keys=True)
    second = json.dumps(aggregate_report_dict(config, run_experiment(config)), sort_keys=True)
    assert first == second


def test_ambiguous_rate_matches_closed_form_at_small_scale():
    # n=4, f=0.25 -> one announced index; ambiguous iff it is even: p = 1/2.
    config = ExperimentConfig(
        n_bits=4, trials=4000, attack=AttackKind.CNOT_ANCILLA, compare_fraction=0.25, master_seed=8
    )
    report = run_experiment(config)
    p = 0.5
    band = 3.0 * math.sqrt(p * (1 - p) / config.trials)
    assert abs(report.ambiguous_rate - p) <= band


def test_report_dict_schema_is_stable_across_attacks():
    expected_report_keys = {
        "trial_count",
        "detection_rate",
        "mean_eve_known_fraction",
        "ambiguous_rate",
        "mismatch_histogram",
    }
    for attack in AttackKind:
        config = ExperimentConfig(n_bits=4, trials=20, attack=attack, master_seed=2)
        payload = aggregate_report_dict(config, run_experiment(config))
        assert set(payload) == {"version", "config", "report"}
        assert set(payload["report"]) == expected_report_keys
        assert payload["config"]["attack"] == attack.value


def test_trial_rows_align_with_aggregate():
    config = ExperimentConfig(
        n_bits=6, trials=120, attack=AttackKind.INTERCEPT_RESEND, compare_fraction=0.5, master_seed=14
    )
    report, rows = run_with_rows(config)
    assert len(rows["trial_index"]) == 120
    assert rows["trial_index"].tolist() == list(range(120))
    assert rows["detected"].sum() / 120 == pytest.approx(report.detection_rate)
    hist = {}
    for m in rows["mismatches"].tolist():
        hist[m] = hist.get(m, 0) + 1
    assert hist == report.mismatch_histogram


# --- golden-state verifier ---------------------------------------------------------


GOLDEN_FAMILIES = (
    "round1 transit",
    "round1 carrier after disentangle",
    "carrier after round-end Hadamards",
    "odd-round entangled system",
    "odd-round ancilla split",
)


def test_golden_states_all_pass():
    checks = verify_golden_states()
    assert [c.name for c in checks] == [f"{family} (q1={q1})" for q1 in (0, 1) for family in GOLDEN_FAMILIES]
    assert all(c.passed for c in checks)
    assert all(c.max_error <= 1e-12 for c in checks)


def test_golden_states_sign_fault_is_caught():
    checks = verify_golden_states(inject_sign_fault=True)
    failing = [c for c in checks if not c.passed]
    assert failing
    assert all("Hadamards" in c.name for c in failing)


def _eve_after_the_receivers(kind, k, carrier, q, record, draws, emit):
    """A broken first half round: Eve acts on S1 after Bob's and Charlie's CNOTs."""
    parity = round_parity(k)
    joint = alice_entangle(tensor(carrier, encode_pair(q, parity)), parity)
    emit(k, "after Alice CNOTs", joint)
    joint = charlie_disentangle(bob_disentangle(joint))
    joint, record = eve_on_transit(kind, k, joint, record, draws[0], lambda stage, state: emit(k, stage, state))
    emit(k, "after Bob/Charlie disentangling CNOTs", joint)
    return joint, record


@pytest.mark.parametrize(
    "name, broken",
    [("_transit", _eve_after_the_receivers), ("eve_end_round", lambda kind, joint: joint)],
    ids=["eve-after-the-receivers", "no-ancilla-hadamard"],
)
def test_golden_states_check_the_round_the_engines_play(monkeypatch, name, broken):
    import ghzqss.harness as harness

    monkeypatch.setattr(harness, name, broken)
    assert any(not c.passed for c in verify_golden_states())


def test_golden_states_report_every_readout_failure(monkeypatch):
    import ghzqss.harness as harness

    def misread(kind, k, joint, record, draw=None, observer=None):
        joint, record = eve_on_transit(kind, k, joint, record, draw, observer)
        if k in record.measured:
            record.measured[k] ^= 1
        return joint, record

    monkeypatch.setattr(harness, "eve_on_transit", misread)
    split = [c for c in verify_golden_states() if c.name.startswith("odd-round ancilla split")]
    assert len(split) == 2
    for c in split:
        q1 = int(c.name[-2])
        assert not c.passed
        assert c.detail == f"readout {q1 ^ 1} != {q1} for q=0; readout {q1} != {q1 ^ 1} for q=1"
