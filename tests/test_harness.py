import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzqss import adversary, protocol
from ghzqss.adversary import (
    AttackKind,
    EveInferenceError,
    EveRecord,
    eve_end_round,
    eve_on_transit,
    eve_postprocess,
)
from ghzqss.harness import (
    ExperimentConfig,
    _batch_randomness,
    _bit,
    _minimal_machine,
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
    receive_and_reconstruct,
)
from ghzqss.statevector import (
    StateVector,
    apply_h,
    discard_qubit,
    from_terms,
    measure_z,
    tensor,
)

from _util import (
    ROW_COLUMNS,
    bind_uncached,
    cache_totals,
    equal_up_to_global_phase,
    marginal_probabilities,
    path_columns,
    run_to_final_carrier,
    run_with_rows,
    sent_bits,
)

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


def _trial_randomness(config, indices, reads=0b1111):
    """The trials' seeds, (B, n) symbols of the bits ``reads`` masks, and
    comparison masks."""
    seeds, compared = _batch_randomness(config, indices)
    return seeds, _round_symbols(config, seeds, reads).T, compared


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
        assert symbols.dtype == np.uint8 and set(np.unique(symbols)) <= set(range(16))
        assert compared.sum() == config.compare_count == 3
        seed = int(seeds[0])
        for k in range(1, 10):
            # The data bit, then the top bits of Eve's, Bob's and Charlie's words.
            q = _bit(_stream(seed, k, 0)) if bits is None else int(bits[k - 1])
            e, b, c = (_bit(_stream(seed, k, column)) for column in (1, 2, 3))
            assert int(symbols[0, k - 1]) == q << 3 | e << 2 | b << 1 | c
        # Only the masked bits are drawn; the others read 0.
        for reads in range(16):
            assert np.array_equal(_trial_randomness(config, np.array([4]), reads)[1], symbols & reads)


@pytest.mark.parametrize("trials, n_bits", [(1, 40_000), (3, 20_000), (40_000, 2), (70_000, 1), (300, 300)])
def test_round_symbols_are_the_same_in_every_blocking(trials, n_bits, monkeypatch):
    # Blocks of whole rounds, of one round, and of part of a round all cut
    # the (n, B) symbols into pieces that hash each trial-round once.
    import ghzqss.harness as harness

    config = ExperimentConfig(n_bits=n_bits, master_seed=8)
    seeds = seed_for_trial(config.master_seed, np.arange(trials, dtype=np.uint64))
    symbols = _round_symbols(config, seeds, 0b1111)
    assert symbols.shape == (n_bits, trials) and symbols.flags.c_contiguous
    monkeypatch.setattr(harness, "_BLOCK", n_bits * trials)  # one block
    assert np.array_equal(_round_symbols(config, seeds, 0b1111), symbols)


@pytest.mark.parametrize("word", [0, 2**63 - 2**11, 2**63 - 1, 2**63, 2**64 - 1])
def test_a_words_top_bit_is_whether_its_draw_reaches_one_half(word):
    # The draw a word gave before measurements took bits, its top 53 bits:
    # a fair measurement's outcome then was ``draw >= 1/2``, the top bit now.
    draw = (word >> 11) * 2.0**-53
    assert _bit(word) == int(draw >= 0.5)
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
    assert sent_bits(run_trial(config, 0)) == (1, 0, 1, 1)
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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_bits": 4.0},
        {"n_bits": True},
        {"n_bits": 4, "trials": 2.5},
        {"n_bits": 4, "master_seed": 1.5},
        {"n_bits": 4, "master_seed": "1"},
        {"n_bits": 4, "compare_fraction": Fraction(1, 4)},
        {"n_bits": 4, "compare_fraction": True},
        {"n_bits": 4, "compare_fraction": "0.25"},
        {"n_bits": 4, "attack": "none"},
        {"n_bits": 4, "bits": ["1", "0", "1", "1"]},
    ],
)
def test_config_refuses_a_field_of_the_wrong_type(kwargs):
    with pytest.raises(TypeError):
        ExperimentConfig(**kwargs)
    with pytest.raises(TypeError):  # a copy is checked as well
        ExperimentConfig(n_bits=4)._replace(**kwargs)


def test_config_takes_numpy_integers_as_python_ints():
    config = ExperimentConfig(n_bits=np.int64(4), trials=np.uint8(2), master_seed=np.int64(-1), compare_fraction=1)
    assert all(type(getattr(config, name)) is int for name in ("n_bits", "trials", "master_seed"))
    assert run_experiment(config) == run_experiment(ExperimentConfig(n_bits=4, trials=2, master_seed=-1, compare_fraction=1))


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
    for rec, sent in zip(result.transcript, sent_bits(result)):
        assert rec.reconstructed == sent
        assert rec.consistent
    assert result.eve_correct_bits / config.n_bits == 0.0
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
    assert result.eve_correct_bits / config.n_bits == 0.5
    inferred = result.eve.inferred_bits
    assert set(inferred) == {1, 3, 5, 7}
    for j, guess in inferred.items():
        assert guess == sent_bits(result)[j - 1]


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
            truth = {1: sent_bits(result)[0]}
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
    for rec, sent in zip(result.transcript, sent_bits(result)):
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
    for rec, sent in zip(result.transcript, sent_bits(result)):
        assert rec.reconstructed == sent and rec.consistent


@settings(deadline=None, max_examples=20)
@given(n=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_offset_relation_and_deterministic_readouts(n, seed):
    config = ExperimentConfig(n_bits=n, attack=AttackKind.CNOT_ANCILLA, master_seed=seed)
    states = {}
    result = run_trial(config, 0, observer=lambda k, stage, state: states.__setitem__((k, stage), state))
    bits = sent_bits(result)
    q1 = bits[0]
    expected_rounds = {k for k in range(3, n + 1, 2)}
    assert set(result.eve.measured) == expected_rounds
    for k, r in result.eve.measured.items():
        assert r == bits[k - 1] ^ q1
        # A certain readout: the measurement returned the state it was given.
        assert states[k, "after Eve measurement of S1"].key == states[k, "after Eve C(E->S1)"].key


def test_final_carrier_purity_after_even_length_attack_run():
    config = ExperimentConfig(n_bits=6, attack=AttackKind.CNOT_ANCILLA, master_seed=21)
    result, final_carrier = run_to_final_carrier(config)
    expected = carrier_ancilla_odd(sent_bits(result)[0])
    assert equal_up_to_global_phase(final_carrier, expected, tol=1e-9)
    # The carrier qubits alone look exactly like the honest GHZ carrier.
    attack_table = marginal_probabilities(final_carrier, ("A", "B", "C"))
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
    """A trial's fields, its Eve record, and its trace, which ends with the
    final carrier, with every state as its exact key (labels and bytes)."""
    fields = result._replace(eve=None)
    return fields, result.eve, [(k, stage, state.key) for k, stage, state in snapshots]


def _play_trial(config):
    snapshots = []
    result = run_trial(config, 3, observer=lambda *snapshot: snapshots.append(snapshot))
    return _exact_trial(result, snapshots), snapshots


@pytest.mark.parametrize("attack", list(AttackKind))
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_run_trial_is_identical_with_and_without_the_memo(attack, seed, monkeypatch):
    import ghzqss.harness as harness

    config = ExperimentConfig(n_bits=64, attack=attack, master_seed=seed)
    with monkeypatch.context() as uncached:
        bind_uncached(uncached, harness, protocol, adversary)
        before = cache_totals()
        direct = _play_trial(config)
        assert cache_totals() == before  # no call reached a cache
    hits = cache_totals()[0]
    cached = _play_trial(config)
    assert cached[0] == direct[0]
    # The caches did answer: repeated snapshots share one state object.
    assert cache_totals()[0] > hits
    assert len({id(state) for *_, state in cached[1]}) < len({id(state) for *_, state in direct[1]})


def test_the_op_caches_stop_growing_with_the_trial_length():
    # The states the protocol reaches are a finite closure, which the table
    # builds play in full, so a longer trial adds no cache entry.
    for attack in AttackKind:
        _transition_table(attack)

    def trace_every_attack(n_bits):
        for attack in AttackKind:
            run_trial(ExperimentConfig(n_bits=n_bits, attack=attack, master_seed=n_bits), 0, observer=lambda *_: None)
        return cache_totals()[1]

    entries = trace_every_attack(256)
    assert trace_every_attack(4096) == entries


# --- batch engine equivalence ---------------------------------------------------


def clear_table_caches():
    """Drop every built transition table and minimal machine."""
    import ghzqss.harness as harness

    harness._transition_table.cache_clear()
    harness._minimal_machine.cache_clear()


def table_walk(table, symbols):
    """The flat [state, symbol] index of ``table`` along each row of the
    (B, n) ``symbols``, from state 0, one round at a time."""
    next_state = np.array(table.next_state)
    path = np.empty(symbols.shape, dtype=np.int64)
    state = np.zeros(len(symbols), dtype=np.int64)
    for k in range(symbols.shape[1]):
        path[:, k] = state * 16 + symbols[:, k]
        state = next_state[path[:, k]]
    return path


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
    _, rows = run_with_rows(config)
    # The full table, walked on all four symbol bits of the same trials, gives
    # every round's outputs as the engine's minimal machine does.
    table = _transition_table(attack)
    machine = _minimal_machine(attack)[0]
    path = table_walk(table, _trial_randomness(config, np.arange(24))[1])
    for name in ("mismatch", "reveals"):
        assert np.array_equal(np.array(getattr(table, name))[path], np.array(getattr(machine, name))[out.path]), name
    columns = path_columns(path, table)
    mismatch = np.array(table.mismatch)[path]
    states = np.array(table.next_state)[path]  # (B, n) table state after each round
    carriers = {}
    for t in range(24):
        after = {}
        single = run_trial(
            config, t, observer=lambda k, stage, state: after.__setitem__(k, state)
            if stage == "after round-end Hadamards" else None,
        )
        assert tuple(columns.bits[t]) == sent_bits(single)
        for k, rec in enumerate(single.transcript, start=1):
            assert bool(mismatch[t, k - 1]) == (rec.reconstructed != rec.sent or not rec.consistent)
            # Trials in one table state after a round hold one carrier, entering
            # a round of one parity, and vice versa.
            key = carriers.setdefault(int(states[t, k - 1]), (k % 2, after[k].key))
            assert key == (k % 2, after[k].key)
        assert bool(rows["mismatches"][t] > 0) == single.detection.detected
        assert int(out.mismatches[t]) == single.detection.mismatches
        assert bool(out.ambiguous[t]) == single.eve.ambiguous
        assert int(out.eve_correct[t]) == single.eve_correct_bits
        assert int(rows["eve_correct_bits"][t]) == single.eve_correct_bits
        if attack is AttackKind.CNOT_ANCILLA:
            for k, r in single.eve.measured.items():
                assert columns.eve_readouts[t, k - 1] == r
    assert len(set(carriers.values())) == len(carriers)


@pytest.mark.parametrize("attack", list(AttackKind))
def test_batch_path_is_each_rounds_state_and_symbol(attack):
    # One gather per round: a round's path entry is the minimal machine's
    # state it starts in times 16 plus the symbol of the bits the machine
    # reads, and its cell's next state starts the next round.
    config = ExperimentConfig(n_bits=9, trials=64, attack=attack, master_seed=31)
    machine, reads = _minimal_machine(attack)
    _, symbols, _ = _trial_randomness(config, np.arange(64))
    path = _run_batch(config, np.arange(64)).path
    assert path.dtype == np.uint8
    path = path.astype(np.int64)
    next_state = np.array(machine.next_state)
    assert np.array_equal(path & 15, symbols & reads)
    assert np.all(path[:, 0] >> 4 == 0)
    assert np.array_equal(path[:, 1:] >> 4, next_state[path[:, :-1]])


def test_transition_table_is_built_on_first_use_once_per_attack():
    import ghzqss.harness as harness

    clear_table_caches()
    for attack in AttackKind:
        config = ExperimentConfig(n_bits=3, trials=2, attack=attack)
        run_experiment(config)
        run_experiment(config)
    for built in (harness._transition_table, harness._minimal_machine):
        info = built.cache_info()
        assert info.misses == info.currsize == len(AttackKind), built


# State count and sha256 of the repr of each table's flat columns, in field
# order; a renumbered state changes ``next_state`` and so the digest.
TABLE_DIGESTS = {
    AttackKind.NO_ATTACK: (3, "361b09cba944626877fa1984c70d17059b29443bae3bfeab0a4682d35591a7e4"),
    AttackKind.INTERCEPT_RESEND: (17, "95a870bba40aa0474eca51263b826d9bbec51c30ad4387a6b37af49408facea7"),
    AttackKind.CNOT_ANCILLA: (5, "2e48ab81f69826a9a79ce0acecb0bca435d24f3ac8e42763700292bd5c68b7d7"),
}


@pytest.mark.parametrize("attack", list(AttackKind))
def test_transition_tables_are_pinned(attack):
    table = _transition_table(attack)
    assert table._fields == ("next_state", "mismatch", "reveals")
    digest = hashlib.sha256(repr(tuple(table)).encode()).hexdigest()
    assert (len(table.next_state) // 16, digest) == TABLE_DIGESTS[attack]


#: Minimal machine state count and the mask of the symbol bits it reads,
#: q<<3 | eve<<2 | bob<<1 | charlie.
MACHINES = {
    AttackKind.NO_ATTACK: (1, 0b0000),
    AttackKind.INTERCEPT_RESEND: (3, 0b1011),
    AttackKind.CNOT_ANCILLA: (5, 0b1000),
}


@pytest.mark.parametrize("attack", list(AttackKind))
def test_minimal_machines_are_pinned(attack):
    machine, reads = _minimal_machine(attack)
    assert machine._fields == _transition_table(attack)._fields
    assert {len(column) for column in machine} == {len(machine.next_state)}
    assert (len(machine.next_state) // 16, reads) == MACHINES[attack]


def _play(table, symbols):
    """The (mismatch, reveals) of every round of ``table`` along ``symbols``, from state 0."""
    state, outputs = 0, []
    for x in symbols:
        cell = 16 * state + x
        outputs.append((table.mismatch[cell], table.reveals[cell]))
        state = table.next_state[cell]
    return outputs


@pytest.mark.parametrize("attack", list(AttackKind))
def test_the_minimal_machine_plays_the_tables_outputs(attack):
    table = _transition_table(attack)
    machine = _minimal_machine(attack)[0]
    rng = random.Random(1956)
    for length in range(1, 65):
        for _ in range(8):
            symbols = [rng.randrange(16) for _ in range(length)]
            assert _play(machine, symbols) == _play(table, symbols), symbols


def test_the_minimal_machines_state_the_papers_claims():
    def cells(machine, state):
        return [(x >> 3, x >> 2 & 1, x >> 1 & 1, x & 1, machine.next_state[16 * state + x],
                 machine.mismatch[16 * state + x], machine.reveals[16 * state + x]) for x in range(16)]

    # Without an attack nothing is ever detected, and nothing is revealed.
    assert all((n, m, r) == (0, False, -1) for *_, n, m, r in cells(_minimal_machine(AttackKind.NO_ATTACK)[0], 0))
    # Measure-and-resend: round 1 passes, then an even-round and an odd-round
    # state alternate, mismatching on q ^ bob ^ charlie and on q ^ bob.
    ir = _minimal_machine(AttackKind.INTERCEPT_RESEND)[0]
    for state, following, mismatch in ((0, 1, lambda q, b, c: 0), (1, 2, lambda q, b, c: q ^ b ^ c), (2, 1, lambda q, b, c: q ^ b)):
        assert all(n == following and m == bool(mismatch(q, b, c)) and r == -1 for q, _, b, c, n, m, r in cells(ir, state))
    # The CNOT ancilla is never detected. Announcing round 1 reveals its bit
    # q1 as her offset and leads to an even-round state per q1; announcing an
    # odd round >= 3 reveals q1 too, and even rounds reveal nothing.
    cnot = _minimal_machine(AttackKind.CNOT_ANCILLA)[0]
    assert all((n, m, r) == (1 + q, False, q) for q, _, _, _, n, m, r in cells(cnot, 0))
    for state, following, revealed in ((1, 3, -1), (2, 4, -1), (3, 1, 0), (4, 2, 1)):
        assert all((n, m, r) == (following, False, revealed) for *_, n, m, r in cells(cnot, state))


def test_a_table_that_reads_eves_bit_makes_the_engine_draw_it(monkeypatch):
    # The reads are derived from the table: a mutant whose one even-round cell
    # mismatches XOR Eve's bit makes the engine draw her column, and it still
    # plays each trial as a walk of the mutant table on all four bits does.
    import ghzqss.harness as harness

    attack = AttackKind.INTERCEPT_RESEND
    table = _transition_table(attack)
    reads = _minimal_machine(attack)[1]
    flipped = 16 * table.next_state[0] + 0b0100  # Eve's bit set
    mutant = table._replace(mismatch=tuple(m ^ (i == flipped) for i, m in enumerate(table.mismatch)))
    monkeypatch.setattr(harness, "_transition_table", lambda kind: mutant)
    config = ExperimentConfig(n_bits=6, trials=200, attack=attack, compare_fraction=0.5, master_seed=21)
    harness._minimal_machine.cache_clear()
    try:
        assert harness._minimal_machine(attack)[1] == reads | 0b0100
        out = _run_batch(config, np.arange(config.trials))
    finally:
        harness._minimal_machine.cache_clear()
    expected, honest = [], []
    for t in range(config.trials):
        seed = seed_for_trial(config.master_seed, t)
        symbols = [sum(_bit(_stream(seed, k, c)) << (3 - c) for c in range(4)) for k in range(1, config.n_bits + 1)]
        single = run_trial(config, t)
        compared = single.detection.compared_indices
        expected.append(sum(m for k, (m, _) in enumerate(_play(mutant, symbols), start=1) if k in compared))
        honest.append(single.detection.mismatches)
    assert out.mismatches.tolist() == expected
    assert expected != honest  # the mutant cell is reached and changes some trial


@pytest.mark.parametrize(
    "attack, symbol_columns",
    [(AttackKind.NO_ATTACK, None), (AttackKind.INTERCEPT_RESEND, 3), (AttackKind.CNOT_ANCILLA, 1)],
)
def test_a_chunk_hashes_only_the_words_its_machine_reads(attack, symbol_columns, monkeypatch):
    # Words the stream's hash returns over one chunk: the trials' seeds, the
    # comparison keys and one word per read symbol column and trial-round;
    # none at all when no output can vary.
    import ghzqss.harness as harness

    words = []
    avalanche = harness._avalanche
    monkeypatch.setattr(harness, "_avalanche", lambda z: words.append(np.size(z)) or avalanche(z))
    B, n = 300, 17
    run_experiment(ExperimentConfig(n_bits=n, trials=B, attack=attack, master_seed=2))
    assert sum(words) == (0 if symbol_columns is None else B + B * n + symbol_columns * B * n)


@pytest.mark.parametrize("attack", list(AttackKind))
def test_a_long_trial_draws_its_symbols_in_a_few_calls(attack, monkeypatch):
    import ghzqss.harness as harness

    calls = []
    stream = harness._stream
    monkeypatch.setattr(harness, "_stream", lambda *args: calls.append(args) or stream(*args))
    _run_batch(ExperimentConfig(n_bits=4096, attack=attack, master_seed=4), np.arange(1))
    # The comparison keys in one call, then one call per read column.
    assert len(calls) == 1 + bin(_minimal_machine(attack)[1]).count("1")


def test_a_round_decodes_right_exactly_when_it_reveals_the_offset():
    # The batch engine counts Eve's correct bits as the rounds whose reveals
    # equal her offset. On every reachable cell that agrees with the
    # reference: announcing round 1 as o fixes the offset to o, and
    # eve_postprocess then decodes the round's own readout right or not.
    import ghzqss.harness as harness

    attack = AttackKind.CNOT_ANCILLA
    clear_table_caches()
    try:
        table = harness._transition_table(attack)
        reveals = table.reveals
        config = ExperimentConfig(n_bits=6, trials=16, attack=attack, master_seed=3)
        out = _run_batch(config, np.arange(config.trials))
        machine = harness._minimal_machine(attack)[0]
    finally:
        clear_table_caches()
    # The full table's walk on all four symbol bits, which the engine's
    # minimal machine matches round for round.
    path = table_walk(table, _trial_randomness(config, np.arange(config.trials))[1])
    assert np.array_equal(np.array(reveals)[path], np.array(machine.reveals)[out.path])
    reached = set()
    for t in range(config.trials):
        single = run_trial(config, t)
        for k, q in enumerate(sent_bits(single), start=1):
            cell = int(path[t, k - 1])
            reached.add(cell >> 2)  # [state, q, eve]
            readout = single.eve.measured.get(k)
            record = EveRecord({} if readout is None else {k: readout}, k)
            for o in (0, 1):
                decoded = eve_postprocess(attack, record, {1: o}).inferred_bits.get(k) == q
                assert decoded == (reveals[cell] == o), (t, k, o)
    assert reached == set(range(len(reveals) // 4))
    # What a round reveals does not depend on the receivers' bits.
    assert all(reveals[i] == reveals[i & ~3] for i in range(len(reveals)))


#: The words at the ends of the stream and either side of its middle.
EXTREME_WORDS = (0, 2**63 - 1, 2**63, 2**64 - 1)


def _record_measurements(monkeypatch, reached):
    """Make every measurement of the protocol and the adversary add its
    (state, qubit) to ``reached``, keyed on the state's key and the qubit."""

    def recording(state, q, bit):
        reached.setdefault((state.key, q), (state, q))
        return measure_z(state, q, bit)

    monkeypatch.setattr(protocol, "measure_z", recording)
    monkeypatch.setattr(adversary, "measure_z", recording)


def _is_certain(state, q) -> bool:
    """Whether measuring ``q`` is certain: bits 0 and 1 give one outcome."""
    return measure_z(state, q, 0)[0] == measure_z(state, q, 1)[0]


def _build_recording_measurements(monkeypatch, attack):
    """A fresh table build for ``attack``, and every measurement it makes,
    recorded as :func:`_record_measurements` records them."""
    import ghzqss.harness as harness

    reached = {}
    _record_measurements(monkeypatch, reached)
    clear_table_caches()
    try:
        return harness._transition_table(attack), reached
    finally:
        clear_table_caches()


@pytest.mark.parametrize("attack", list(AttackKind))
def test_the_largest_draw_never_realizes_a_rounding_noise_branch(attack, monkeypatch):
    # Certain or fair is decided exactly, so no measurement has a
    # rounding-noise branch: the stream's largest word, whose bit is 1,
    # realizes the certain outcome 0 wherever outcome 0 is certain.
    reached = {}
    _record_measurements(monkeypatch, reached)
    for seed in range(3):
        run_trial(ExperimentConfig(n_bits=64, attack=attack, master_seed=seed), 0)
    certain = [(state, q) for state, q in reached.values() if _is_certain(state, q)]
    certain_zero = [(state, q) for state, q in certain if measure_z(state, q, 0)[0] == 0]
    assert certain_zero
    for state, q in certain_zero:
        outcome, after = measure_z(state, q, _bit(2**64 - 1))
        assert outcome == 0 and after is state


@pytest.mark.parametrize("attack", list(AttackKind))
def test_every_fair_measurement_of_the_tables_splits_the_draws_at_one_half(attack, monkeypatch):
    # A fair measurement's outcome is its bit, the top bit of its word, as
    # the batch engine reads it: the words split at one half.
    _, reached = _build_recording_measurements(monkeypatch, attack)
    # Every measurement is certain or fair, exactly, and some are fair.
    fair = [(state, q) for state, q in reached.values() if not _is_certain(state, q)]
    assert fair
    for state, q in fair:
        assert [measure_z(state, q, _bit(word))[0] for word in EXTREME_WORDS] == [0, 0, 1, 1]


@pytest.mark.parametrize("attack", list(AttackKind))
def test_extreme_draws_take_an_enumerated_branch_of_the_table(attack, monkeypatch):
    table, reached = _build_recording_measurements(monkeypatch, attack)
    # Every measurement the build makes takes a branch of nonzero
    # probability at the bit of every extreme word.
    assert reached
    for state, q in reached.values():
        born = marginal_probabilities(state, (q,))
        for word in EXTREME_WORDS:
            outcome, _ = measure_z(state, q, _bit(word))
            assert born.get(str(outcome), 0.0) > 0.0
    # Every symbol of every state reaches a next state.
    assert len(table.next_state) == 16 * (max(table.next_state) + 1)
    assert min(table.next_state) >= 0


def test_a_changed_round_op_reaches_both_engines(monkeypatch):
    import ghzqss.harness as harness

    reference = harness.receive_and_reconstruct

    def charlie_alone_on_even_rounds(joint, k, sent, bits):
        rec, joint = reference(joint, k, sent, bits)
        if k % 2 == 0:
            rec = rec._replace(reconstructed=rec.charlie_outcome)
        return rec, joint

    clear_table_caches()
    monkeypatch.setattr(harness, "receive_and_reconstruct", charlie_alone_on_even_rounds)
    try:
        for attack in AttackKind:
            config = ExperimentConfig(n_bits=6, trials=40, attack=attack, compare_fraction=1.0, master_seed=13)
            batch = _run_batch(config, np.arange(40)).mismatches.tolist()
            assert batch == [run_trial(config, t).detection.mismatches for t in range(40)]
            assert any(batch)
            # run_experiment takes the engine path, since the machine now mismatches.
            assert run_with_rows(config)[1]["mismatches"].tolist() == batch
    finally:
        clear_table_caches()


def test_transition_table_refuses_a_measurement_neither_certain_nor_fair(monkeypatch):
    import ghzqss.harness as harness

    def skewed_carrier():
        # Not a stabilizer state: Bob's round-1 S1 reads q^A^B, and
        # intercept-resend's S1 reads q^A, each 0 with probability 12/16.
        # The interceptor's ancilla comes from eve_prepare, as on the real carrier.
        return StateVector(("A", "B", "C"), [3, 1, 1, 1, 1, 1, 1, 1], 4)

    clear_table_caches()
    monkeypatch.setattr(harness, "init_carrier", skewed_carrier)
    try:
        for attack in AttackKind:
            with pytest.raises(ValueError, match="neither certain nor fair"):
                harness._transition_table(attack)
            with pytest.raises(ValueError, match="neither certain nor fair"):
                run_trial(ExperimentConfig(n_bits=4, attack=attack), 0)
    finally:
        clear_table_caches()


def test_batch_engine_refuses_conflicting_reveals(monkeypatch):
    import ghzqss.harness as harness

    table = harness._transition_table(AttackKind.CNOT_ANCILLA)
    # Every round reveals its own bit as the offset, so rounds sending 1 and 0 disagree.
    conflicting = table._replace(reveals=tuple((i >> 3) & 1 for i in range(len(table.reveals))))
    monkeypatch.setattr(harness, "_transition_table", lambda kind: conflicting)
    config = ExperimentConfig(n_bits=2, trials=4, attack=AttackKind.CNOT_ANCILLA, compare_fraction=1.0, bits="10")
    harness._minimal_machine.cache_clear()
    try:
        with pytest.raises(EveInferenceError, match="conflicting offsets"):
            _run_batch(config, np.arange(4))
    finally:
        harness._minimal_machine.cache_clear()


def test_batch_compared_subset_matches_single():
    config = ExperimentConfig(n_bits=7, trials=10, compare_fraction=0.4, master_seed=9)
    _, compared = _batch_randomness(config, np.arange(10))
    for t in range(10):
        batch_subset = tuple(np.nonzero(compared[t])[0] + 1)
        assert batch_subset == run_trial(config, t).detection.compared_indices


# --- experiments ------------------------------------------------------------------


def test_run_experiment_no_attack():
    config = ExperimentConfig(n_bits=6, trials=300, attack=AttackKind.NO_ATTACK, master_seed=4)
    report = run_experiment(config)
    assert report.detection_rate == 0.0
    assert report.mean_eve_known_fraction == 0.0
    assert report.ambiguous_rate == 0.0
    assert report.mismatch_histogram == {0: 300}
    assert aggregate_report_dict(config, report)["report"]["trial_count"] == 300


def test_run_experiment_with_every_trial_ambiguous():
    # Two rounds, one compared: a seed whose every trial compares round 2
    # announces no odd bit, so no trial resolves Eve's offset.
    config = ExperimentConfig(n_bits=2, trials=4, attack=AttackKind.CNOT_ANCILLA, compare_fraction=0.5)
    config = next(
        c for c in (config._replace(master_seed=seed) for seed in range(1000))
        if all(run_trial(c, t).detection.compared_indices == (2,) for t in range(c.trials))
    )
    report = run_experiment(config)
    assert report.ambiguous_rate == 1.0
    assert report.mean_eve_known_fraction == 0.0
    assert report.detection_rate == 0.0


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
    assert (rows["mismatches"] > 0).sum() / 120 == pytest.approx(report.detection_rate)
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
    assert all(c.max_error == 0.0 for c in checks)


def test_golden_states_sign_fault_is_caught():
    checks = verify_golden_states(inject_sign_fault=True)
    failing = [c for c in checks if not c.passed]
    assert failing
    assert all("Hadamards" in c.name for c in failing)


def _eve_after_the_receivers(kind, k, carrier, q, eve, bits, emit):
    """A broken round: Eve acts on S1 after Bob's and Charlie's CNOTs."""
    joint = alice_entangle(tensor(carrier, encode_pair(q, k % 2)), k % 2)
    emit(k, "after Alice CNOTs", joint)
    joint = charlie_disentangle(bob_disentangle(joint))
    joint, readout = eve_on_transit(kind, k, joint, eve, emit)
    emit(k, "after Bob/Charlie disentangling CNOTs", joint)
    rec, joint = receive_and_reconstruct(joint, k, q, bits)
    emit(k, "after Bob/Charlie measurements", joint)
    carrier = discard_qubit(discard_qubit(joint, "S1", rec.bob_outcome), "S2", rec.charlie_outcome)
    carrier = eve_end_round(kind, end_round_hadamards(carrier))
    emit(k, "after round-end Hadamards", carrier)
    return rec, readout, carrier


@pytest.mark.parametrize(
    "name, broken",
    [("_round", _eve_after_the_receivers), ("eve_end_round", lambda kind, joint: joint)],
    ids=["eve-after-the-receivers", "no-ancilla-hadamard"],
)
def test_golden_states_check_the_round_the_engines_play(monkeypatch, name, broken):
    import ghzqss.harness as harness

    monkeypatch.setattr(harness, name, broken)
    assert any(not c.passed for c in verify_golden_states())


def test_golden_states_report_every_readout_failure(monkeypatch):
    import ghzqss.harness as harness

    def misread(kind, k, joint, bit, emit):
        joint, readout = eve_on_transit(kind, k, joint, bit, emit)
        return joint, None if readout is None else readout ^ 1

    monkeypatch.setattr(harness, "eve_on_transit", misread)
    split = [c for c in verify_golden_states() if c.name.startswith("odd-round ancilla split")]
    assert len(split) == 2
    for c in split:
        q1 = int(c.name[-2])
        assert not c.passed
        assert c.detail == f"readout {q1 ^ 1} != {q1} for q=0; readout {q1} != {q1 ^ 1} for q=1"


def test_golden_states_catch_a_readout_that_is_not_deterministic(monkeypatch):
    # Eve turns S1 to the X basis before she reads it, so her readout is a
    # fair coin: the measurement collapses the state it is given.
    monkeypatch.setattr(adversary, "_guarded_measure", lambda state, q, bit: measure_z(apply_h(state, q), q, bit))
    split = [c for c in verify_golden_states() if c.name.startswith("odd-round ancilla split")]
    assert len(split) == 2
    for c in split:
        assert not c.passed
        assert "not deterministic" in c.detail
