
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzqss.statevector import (
    QUBIT_ROLES,
    StateVector,
    apply_cnot,
    apply_h,
    discard_qubit,
    from_terms,
    max_abs_difference,
    measure_z,
    new_basis_state,
    state_terms,
    state_to_dict,
    tensor,
)

from _util import (
    LAB6,
    amplitudes,
    apply_x,
    bind_uncached,
    cache_totals,
    equal_up_to_global_phase,
    marginal_probabilities,
    random_state,
    reduced_density_matrix,
)
from oracles import brute_marginal


def bell(q: int) -> StateVector:
    """(|0,q> + |1,1-q>)/sqrt2 over (S1, S2)."""
    return from_terms(("S1", "S2"), {f"0{q}": 1, f"1{1 - q}": 1}, 1)


# --- basis construction -----------------------------------------------------


def test_basis_state_all_zeros():
    s = new_basis_state(("A", "B", "C"), "000")
    assert (s.ints[0], s.r) == (1, 0)
    assert np.count_nonzero(s.ints) == 1


def test_basis_state_msb_first_convention():
    # The first label is the most significant bit: "000111" lands on 0b000111.
    s = new_basis_state(LAB6, "000111")
    assert s.ints[0b000111] == 1
    assert np.count_nonzero(s.ints) == 1


def test_basis_state_single_qubit():
    s = new_basis_state(("S1",), "1")
    assert (s.ints, s.r) == ((0, 1), 0)


@pytest.mark.parametrize(
    "labels, bits",
    [(("A", "B"), "0"), (("A",), "00"), (("A", "B"), "0x")],
)
def test_basis_state_rejects_bad_bits(labels, bits):
    with pytest.raises(ValueError):
        new_basis_state(labels, bits)


def test_register_rejects_unknown_role_and_duplicates():
    with pytest.raises(ValueError):
        new_basis_state(("A", "Z"), "00")
    with pytest.raises(ValueError):
        new_basis_state(("A", "A"), "00")


def test_from_terms_rejects_unnormalized():
    with pytest.raises(ValueError):
        from_terms(("A",), {"0": 1}, 2)


# --- gates ------------------------------------------------------------------


def test_hadamard_on_zero():
    s = apply_h(new_basis_state(("A",), "0"), "A")
    assert (s.ints, s.r) == ((1, 1), 1)
    assert state_terms(s) == [("0", 0.7071067811865476, 0.0), ("1", 0.7071067811865476, 0.0)]


def test_hadamard_unknown_label():
    with pytest.raises(ValueError):
        apply_h(new_basis_state(("A",), "0"), "B")


def test_state_vectors_are_exact_reduced_and_normalised():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        s = random_state(QUBIT_ROLES[:n], rng)
        for q in s.labels:
            # H twice is the identity: the sums are halved back to the input's form.
            assert apply_h(apply_h(s, q), q).key == s.key
    assert StateVector(("A",), [True, -1], 1).ints == (1, -1)
    for ints, r in (([2, 2], 3), ([2, 0], 2), ([1, 1], 2), ([1, 1], 0), ([1, 0], -1), ([1, 0, 0, 0], 0), ([0, 0], 0)):
        with pytest.raises(ValueError):  # not reduced, not normalised, or the wrong length
            StateVector(("A",), ints, r)
    for ints in ([1.0, 0], [1, 0.0], [1j, 0], [np.float64(1.0), 0]):
        with pytest.raises(TypeError):
            StateVector(("A",), ints, 0)
    with pytest.raises(TypeError):
        StateVector(("A",), [1, 0], 0.0)


def test_x_bell_flip_identity_is_strict():
    # Flipping either qubit of (|00>+|11>)/sqrt2 gives the same vector
    # (|01>+|10>)/sqrt2 exactly, and vice versa.
    for q in (0, 1):
        flipped_first = apply_x(bell(q), "S1")
        flipped_second = apply_x(bell(q), "S2")
        assert max_abs_difference(flipped_first, bell(q ^ 1)) <= 1e-12
        assert max_abs_difference(flipped_second, bell(q ^ 1)) <= 1e-12


def test_x_twice_is_identity():
    s = bell(1)
    assert max_abs_difference(apply_x(apply_x(s, "S2"), "S2"), s) <= 1e-12


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), count=st.integers(0, 12))
def test_even_x_count_fixes_bell_pair_odd_count_flips_it(seed, count):
    rng = np.random.default_rng(seed)
    for q in (0, 1):
        s = bell(q)
        for _ in range(count):
            s = apply_x(s, rng.choice(["S1", "S2"]))
        expected = bell(q ^ (count % 2))
        assert max_abs_difference(s, expected) <= 1e-12


def test_cnot_produces_round1_transit_state():
    # (|000,00> + |111,11>) over (A,B,C,S1,S2) tensored with |0> on E,
    # reordered to (A,B,C,E,S1,S2); CNOT S1->E copies the pair bit onto E.
    before = from_terms(LAB6, {"000000": 1, "111011": 1}, 1)
    after = apply_cnot(before, "S1", "E")
    expected = from_terms(LAB6, {"000000": 1, "111111": 1}, 1)
    assert max_abs_difference(after, expected) <= 1e-12


def test_cnot_detaches_s1_from_entangled_system():
    for q in (0, 1):
        system = from_terms(
            LAB6,
            {f"0000{q}{q}": 1, f"1111{q ^ 1}{q ^ 1}": 1},
            1,
        )
        split = apply_cnot(system, "E", "S1")
        expected = from_terms(
            LAB6,
            {f"0000{q}{q}": 1, f"1111{q}{q ^ 1}": 1},
            1,
        )
        assert max_abs_difference(split, expected) <= 1e-12
        # S1 is now definite: its marginal is a point mass.
        assert marginal_probabilities(split, ("S1",)) == pytest.approx({f"{q}": 1.0})


def test_cnot_with_control_zero_is_identity():
    s = new_basis_state(("A", "B"), "01")
    assert max_abs_difference(apply_cnot(s, "A", "B"), s) <= 1e-12


def test_cnot_rejects_equal_control_target():
    with pytest.raises(ValueError):
        apply_cnot(new_basis_state(("A", "B"), "00"), "A", "A")


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 5), seed=st.integers(0, 10_000))
def test_gate_involutions(n, seed):
    rng = np.random.default_rng(seed)
    labels = QUBIT_ROLES[:n]
    s = random_state(labels, rng)
    q = labels[rng.integers(n)]
    assert max_abs_difference(apply_h(apply_h(s, q), q), s) <= 1e-12
    assert max_abs_difference(apply_x(apply_x(s, q), q), s) <= 1e-12
    if n >= 2:
        t = labels[(labels.index(q) + 1) % n]
        assert max_abs_difference(apply_cnot(apply_cnot(s, q, t), q, t), s) <= 1e-12


@settings(deadline=None, max_examples=40)
@given(n=st.integers(2, 6), seed=st.integers(0, 10_000), length=st.integers(0, 30))
def test_norm_preserved_by_random_gate_sequences(n, seed, length):
    rng = np.random.default_rng(seed)
    labels = QUBIT_ROLES[:n]
    s = random_state(labels, rng)
    for _ in range(length):
        kind = rng.integers(3)
        q = labels[rng.integers(n)]
        if kind == 0:
            s = apply_h(s, q)
        elif kind == 1:
            s = apply_x(s, q)
        else:
            t = labels[(labels.index(q) + 1 + rng.integers(n - 1)) % n]
            s = apply_cnot(s, q, t)
    assert sum(a * a for a in s.ints) == 1 << s.r
    assert any(a & 1 for a in s.ints)


# --- every op against a dense reference ---------------------------------------

_I2 = np.eye(2)
_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
_P = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))  # projectors onto |0> and |1>


def _on(n, ops):
    """The n-qubit operator that applies ``ops[axis]`` on each axis (msb
    first) and the identity elsewhere, as a Kronecker product."""
    out = np.eye(1)
    for axis in range(n):
        out = np.kron(out, ops.get(axis, _I2))
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_every_op_matches_a_dense_reference_at_every_qubit(n):
    # Every qubit position and every ordered pair, on seeded random
    # stabilizer states: an op that reads the wrong qubit's amplitudes fails.
    labels = QUBIT_ROLES[:n]
    for seed in range(3):
        state = random_state(labels, np.random.default_rng(100 * n + seed))
        psi = amplitudes(state)
        for c in range(n):
            h = apply_h(state, labels[c])
            assert h.labels == labels
            assert np.abs(amplitudes(h) - _on(n, {c: _H2}) @ psi).max() <= 1e-12
            for t in set(range(n)) - {c}:
                cnot = _on(n, {c: _P[0]}) + _on(n, {c: _P[1], t: _X2})
                assert np.abs(amplitudes(apply_cnot(state, labels[c], labels[t])) - cnot @ psi).max() <= 1e-12
            branches = [_on(n, {c: _P[v]}) @ psi for v in (0, 1)]
            p0 = branches[0] @ branches[0]
            for bit in (0, 1):
                outcome, after = measure_z(state, labels[c], bit)
                if abs(p0 - 0.5) <= 1e-12:  # fair: the outcome is the bit, and the state its branch
                    assert outcome == bit
                    expected = branches[bit] / np.sqrt(0.5)
                else:  # certain: the outcome is forced and the state unchanged
                    assert (outcome, round(p0)) in ((0, 1), (1, 0))
                    expected = psi
                assert after.labels == labels
                assert np.abs(amplitudes(after) - expected).max() <= 1e-12
                # The measured qubit has collapsed: dropping it keeps its slice.
                kept = expected.reshape((2,) * n).take(outcome, axis=c).reshape(-1)
                dropped = discard_qubit(after, labels[c], outcome)
                assert dropped.labels == labels[:c] + labels[c + 1 :]
                assert np.abs(amplitudes(dropped) - kept).max() <= 1e-12


# --- measurement ------------------------------------------------------------


def test_measure_basis_state_is_certain():
    # Two equal states: the second is returned itself too, not the first.
    for s in (new_basis_state(("A",), "0"), new_basis_state(("A",), "0")):
        outcome, after = measure_z(s, "A", 1)
        assert outcome == 0
        assert after is s  # a certain measurement returns its input


@pytest.mark.parametrize("bit", [0, 1])
def test_measure_z_outcome_is_the_bit_when_fair_and_forced_when_certain(bit):
    ghz = from_terms(("A", "B", "C"), {"000": 1, "111": 1}, 1)
    assert marginal_probabilities(ghz, ("A",)) == pytest.approx({"0": 0.5, "1": 0.5})
    outcome, after = measure_z(ghz, "A", bit)
    assert outcome == bit
    assert after.key == new_basis_state(("A", "B", "C"), str(bit) * 3).key
    for forced in (0, 1):
        certain = tensor(new_basis_state(("A",), str(forced)), apply_h(new_basis_state(("B",), "0"), "B"))
        outcome, after = measure_z(certain, "A", bit)
        assert outcome == forced
        assert after is certain
    # Not a stabilizer state: A reads 0 with probability 12/16, which no one bit names.
    skewed = StateVector(("A", "B", "C"), [3, 1, 1, 1, 1, 1, 1, 1], 4)
    assert marginal_probabilities(skewed, ("A",)) == pytest.approx({"0": 0.75, "1": 0.25})
    for _ in range(2):
        with pytest.raises(ValueError, match="neither certain nor fair"):
            measure_z(skewed, "A", bit)


@pytest.mark.parametrize("bit", [2, -1])
def test_measure_z_refuses_a_bit_other_than_0_or_1(bit):
    ghz = from_terms(("A", "B", "C"), {"000": 1, "111": 1}, 1)
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        measure_z(ghz, "A", bit)


def test_measure_detached_s1_is_deterministic():
    for q1 in (0, 1):
        for q in (0, 1):
            s1_bit = q ^ q1
            split = from_terms(
                LAB6,
                {
                    f"000{q1}{s1_bit}{q}": 1,
                    f"111{q1 ^ 1}{s1_bit}{q ^ 1}": 1,
                },
                1,
            )
            for bit in (0, 1):
                outcome, after = measure_z(split, "S1", bit)
                assert outcome == s1_bit
                assert after is split


@pytest.mark.parametrize("improbable, certain", [(0, 1), (1, 0)])
def test_an_outcome_below_the_minimum_is_never_realized(improbable, certain):
    # P(0) is exact, so the minimum is 0: an outcome of probability 0 is never
    # realized, whatever the bit.
    state = tensor(new_basis_state(("A",), str(certain)), apply_h(new_basis_state(("B",), "0"), "B"))
    # The certain outcome holds all the weight and the improbable one none.
    assert marginal_probabilities(state, ("A",)) == pytest.approx({str(certain): 1.0})
    for bit in (0, 1):
        outcome, after = measure_z(state, "A", bit)
        assert outcome == certain
        assert after is state


def test_a_branch_of_probability_other_than_a_power_of_one_half_raises():
    # Not a stabilizer state: A reads 0 with probability 12/16 and 1 with 4/16.
    state = StateVector(("A", "B", "C"), [3, 1, 1, 1, 1, 1, 1, 1], 4)
    assert marginal_probabilities(state, ("A",)) == pytest.approx({"0": 0.75, "1": 0.25})
    for bit in (0, 1):
        with pytest.raises(ValueError, match="neither certain nor fair"):
            measure_z(state, "A", bit)


def test_born_frequencies_match_marginals():
    rng = np.random.default_rng(99)
    states = [
        apply_h(new_basis_state(("A",), "0"), "A"),
        random_state(("A", "B", "C"), rng),
    ]
    # A measurement is certain or fair and a fair outcome is its bit, so
    # bits that are 1 on the upper half of equispaced draws give zeros at
    # the rate P(0): 0, 1/2 or 1, exactly.
    bits = ((np.arange(10_000) + 0.5) / 10_000 >= 0.5).astype(int).tolist()
    for s in states:
        for q in s.labels:
            p0 = marginal_probabilities(s, (q,)).get("0", 0.0)
            zeros = sum(measure_z(s, q, bit)[0] == 0 for bit in bits)
            assert zeros / len(bits) in (0.0, 0.5, 1.0)
            assert zeros / len(bits) == pytest.approx(p0, abs=1e-12)


# --- comparison and diagnostics ----------------------------------------------


def test_equal_up_to_global_phase():
    rng = np.random.default_rng(5)
    s = random_state(("A", "B"), rng)
    negated = StateVector(s.labels, [-a for a in s.ints], s.r)
    assert equal_up_to_global_phase(s, negated, tol=1e-12)
    assert not equal_up_to_global_phase(
        new_basis_state(("A",), "0"), new_basis_state(("A",), "1"), tol=1e-9
    )


def test_equal_up_to_global_phase_requires_same_register():
    with pytest.raises(ValueError):
        equal_up_to_global_phase(
            new_basis_state(("A",), "0"), new_basis_state(("A", "B"), "00")
        )


def test_marginal_of_full_basis_state_is_point_mass():
    s = new_basis_state(("A", "B", "C"), "101")
    assert marginal_probabilities(s, ("A", "B", "C")) == pytest.approx({"101": 1.0})


def test_marginal_of_sending_pair_before_interception():
    # (|000,q,q> + |111,q+1,q+1>)/sqrt2 over (A,B,C,S1,S2) with q=0.
    labels = ("A", "B", "C", "S1", "S2")
    s = from_terms(labels, {"00000": 1, "11111": 1}, 1)
    table = marginal_probabilities(s, ("S1", "S2"))
    assert table == pytest.approx({"00": 0.5, "11": 0.5})
    assert table == pytest.approx(brute_marginal(labels, amplitudes(s), ("S1", "S2")))


def test_marginal_of_single_carrier_qubit():
    ghz = from_terms(("A", "B", "C"), {"000": 1, "111": 1}, 1)
    assert marginal_probabilities(ghz, ("A",)) == pytest.approx({"0": 0.5, "1": 0.5})


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 5), seed=st.integers(0, 10_000))
def test_marginal_matches_brute_force_and_sums_to_one(n, seed):
    rng = np.random.default_rng(seed)
    labels = QUBIT_ROLES[:n]
    s = random_state(labels, rng)
    k = int(rng.integers(1, n + 1))
    subset = tuple(rng.permutation(labels)[:k])
    table = marginal_probabilities(s, subset)
    expected = brute_marginal(labels, amplitudes(s), subset)
    assert table == pytest.approx(expected, abs=1e-12)
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)


def test_marginal_rejects_bad_subsets():
    s = new_basis_state(("A", "B"), "00")
    with pytest.raises(ValueError):
        marginal_probabilities(s, ())
    with pytest.raises(ValueError):
        marginal_probabilities(s, ("A", "A"))
    with pytest.raises(ValueError):
        marginal_probabilities(s, ("C",))


def test_reduced_density_matrix_of_ghz_qubit_is_maximally_mixed():
    ghz = from_terms(("A", "B", "C"), {"000": 1, "111": 1}, 1)
    rho = reduced_density_matrix(ghz, ("A",))
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_reduced_density_matrix_trace_and_purity():
    rng = np.random.default_rng(17)
    s = random_state(("A", "B", "C"), rng)
    rho = reduced_density_matrix(s, ("A", "B", "C"))
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    # Full subset of a pure state stays pure.
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-9)


# --- product structure and serialization -------------------------------------


def test_tensor_orders_and_rejects_overlap():
    left = new_basis_state(("A", "B"), "10")
    right = new_basis_state(("S1",), "1")
    joined = tensor(left, right)
    assert joined.labels == ("A", "B", "S1")
    assert joined.ints[0b101] == 1
    with pytest.raises(ValueError):
        tensor(left, new_basis_state(("A",), "0"))


def test_discard_collapsed_qubit():
    s = from_terms(("A", "B", "S1"), {"001": 1, "111": 1}, 1)
    reduced = discard_qubit(s, "S1", 1)
    expected = from_terms(("A", "B"), {"00": 1, "11": 1}, 1)
    assert max_abs_difference(reduced, expected) <= 1e-12


def test_discard_rejects_uncollapsed_qubit():
    s = apply_h(new_basis_state(("A",), "0"), "A")
    with pytest.raises(ValueError):
        discard_qubit(tensor(s, new_basis_state(("B",), "0")), "A", 0)
    # No qubit has collapsed to an outcome outside {0, 1}, cached or not.
    collapsed = new_basis_state(("A", "B"), "10")
    for op in (discard_qubit, discard_qubit.__wrapped__):
        for q in collapsed.labels:
            for outcome in (2, -1):
                with pytest.raises(ValueError, match="not collapsed"):
                    op(collapsed, q, outcome)



def test_state_terms_order_and_cutoff():
    s = from_terms(("A", "B"), {"01": 1, "10": -1}, 1)
    # Exact zeros are left out; the rest render correctly rounded.
    assert state_terms(s) == [("01", 0.7071067811865476, 0.0), ("10", -0.7071067811865476, 0.0)]
    dump = state_to_dict(s)
    assert dump["labels"] == ["A", "B"]
    assert dump["msb_first"] is True
    assert len(dump["terms"]) == 2


# --- state values and cached ops -------------------------------------------------


def test_states_are_values():
    ghz = from_terms(("A", "B", "C"), {"000": 1, "111": 1}, 1)
    built = apply_cnot(apply_cnot(apply_h(new_basis_state(("A", "B", "C"), "000"), "A"), "A", "B"), "A", "C")
    copy = StateVector(ghz.labels, list(ghz.ints), ghz.r)
    for other in (built, copy):
        assert other is not ghz
        assert other == ghz and hash(other) == hash(ghz)
        assert not other != ghz
    assert {ghz: "ghz"}[built] == "ghz"
    # States a sign apart, or over other labels, differ.
    assert StateVector(ghz.labels, [-a for a in ghz.ints], ghz.r) != ghz
    assert from_terms(("A", "B", "C"), {"000": 1, "111": -1}, 1) != ghz
    assert StateVector(("A", "B", "E"), ghz.ints, ghz.r) != ghz
    # A state never equals a tuple of its fields, nor its key.
    for fields in ((ghz.labels, ghz.ints, ghz.r), ghz.key, ghz.ints):
        assert ghz != fields and not ghz == fields and fields != ghz


def _variants(seed):
    """A six-qubit state, a copy of it built apart from it, and a seeded
    random stabilizer state with its negation: the copy has the same key,
    the negation a key of its own."""
    base = from_terms(LAB6, {"000000": 1, "111000": 1}, 1)
    base = apply_h(apply_cnot(base, "A", "S1"), "S2")
    state = random_state(LAB6, np.random.default_rng(seed))
    return [base, StateVector(LAB6, base.ints, base.r), state, StateVector(LAB6, [-a for a in state.ints], state.r)]


def _cached_calls(state):
    """Each cached op on ``state``, as (name, thunk); ``measure_z`` covers
    both bits, and ``discard_qubit`` acts on a state measured before the
    thunks run."""
    outcome, collapsed = measure_z(state, "S1", 1)
    return [
        ("tensor", lambda: tensor(discard_qubit(collapsed, "S1", outcome), new_basis_state(("S1",), "1"))),
        ("tensor right", lambda: tensor(new_basis_state(("S1",), "0"), discard_qubit(collapsed, "S1", outcome))),
        ("apply_h", lambda: apply_h(state, "C")),
        ("apply_cnot", lambda: apply_cnot(state, "A", "S2")),
        ("measure_z 0", lambda: measure_z(state, "S2", 0)[1]),
        ("measure_z 1", lambda: measure_z(state, "S2", 1)[1]),
        ("discard_qubit", lambda: discard_qubit(collapsed, "S1", outcome)),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_memoized_ops_match_the_ops_bit_for_bit(seed, monkeypatch):
    states = _variants(seed)
    with monkeypatch.context() as uncached:
        bind_uncached(uncached, sys.modules[__name__])
        before = cache_totals()
        direct = [[thunk().key for _, thunk in _cached_calls(s)] for s in states]
        assert cache_totals() == before  # no call reached a cache
    assert direct[0] == direct[1] and direct[2] != direct[3]  # equal states, and states a sign apart
    for _ in range(2):  # the second pass is answered from the caches
        hits = cache_totals()[0]
        for state, expected in zip(states, direct):
            for (name, thunk), want in zip(_cached_calls(state), expected):
                assert thunk().key == want, name
    assert cache_totals()[0] > hits


def _assert_immutable(state):
    labels, ints, r, key = state.labels, state.ints, state.r, state.key
    with pytest.raises(TypeError):
        state.ints[0] = 0
    for name in ("labels", "ints", "r", "key"):
        with pytest.raises(AttributeError):
            setattr(state, name, ())
        with pytest.raises(AttributeError):
            delattr(state, name)
    assert (state.labels, state.ints, state.r, state.key) == (labels, ints, r, key)


def test_cached_results_are_shared_and_read_only():
    state = _variants(0)[2]
    first = apply_h(state, "A")
    assert apply_h(StateVector(LAB6, list(state.ints), state.r), "A") is first
    fresh = apply_h.__wrapped__(state, "A")
    assert fresh is not first and fresh.key == first.key
    _assert_immutable(first)
    _assert_immutable(measure_z(state, "S1", 1)[1])


def test_memoized_measure_z_follows_every_bit(monkeypatch):
    ghz = from_terms(("A", "B", "C"), {"000": 1, "111": 1}, 1)
    outcomes = [measure_z(ghz, "A", bit)[0] for bit in (1, 1, 0, 1)]
    _, collapsed = measure_z(ghz, "A", 0)
    assert measure_z(collapsed, "B", 1)[0] == 0  # a certain outcome, whatever the bit
    assert outcomes == [1, 1, 0, 1]
    bind_uncached(monkeypatch)
    outcome, direct = measure_z(ghz, "A", 0)
    assert direct is not collapsed and (outcome, direct.key) == (0, collapsed.key)


def test_memoized_ops_never_cache_an_exception():
    # Not a stabilizer state: A reads 0 with probability 3/4, which no one bit names.
    skewed = StateVector(("A", "B", "C"), [3, 1, 1, 1, 1, 1, 1, 1], 4)
    uncollapsed = apply_h(new_basis_state(("A", "B"), "00"), "A")
    raised = []
    for _ in range(2):
        with pytest.raises(ValueError, match="not collapsed") as residual:
            discard_qubit(uncollapsed, "A", 0)
        with pytest.raises(ValueError, match="neither certain nor fair") as branch:
            measure_z(skewed, "A", 0)
        with pytest.raises(ValueError, match="bit must be 0 or 1") as bit:
            measure_z(skewed, "A", 2)
        raised += [residual.value, branch.value, bit.value]
    assert len({id(e) for e in raised}) == 6  # raised afresh by every call
    # The key holds the argument types: a float outcome fails as it does uncached.
    collapsed = measure_z(uncollapsed, "A", 0)[1]
    discard_qubit(collapsed, "A", 0)
    with pytest.raises(TypeError):
        discard_qubit(collapsed, "A", 0.0)
    with pytest.raises(TypeError):
        discard_qubit.__wrapped__(collapsed, "A", 0.0)
