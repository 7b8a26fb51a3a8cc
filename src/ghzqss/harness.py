"""Experiment orchestration: seeded trials, Monte Carlo aggregation, and the
golden-state verifier, which reads the states it checks from a ``run_trial``
trace.

Determinism contract (random stream v2): every trial is a pure function of
``(master_seed mod 2^64, trial_index)``. ``seed_for_trial`` avalanches the
pair into a trial seed ``s``; the trial's every random word is then a
counter-based hash of ``(s, round k, column c)``, the SplitMix64 output
``avalanche(s + (5k + c) * 0x9E3779B97F4A7C15)``, with columns 0 data bit,
1 Eve's measurement bit, 2 Bob's, 3 Charlie's and 4 the round's comparison
key. ``_stream`` is the only reader of the stream and ``_bit`` and
``_compare_key`` the only readers of its words; they take Python ints, for
the single-trial engine, and uint64 arrays, for the vectorized batch
engine, alike, so results are independent of execution order and identical
between the two. numpy is imported only when ``_batch_randomness``,
``_round_symbols`` or ``_run_batch`` runs, which ``run_experiment`` calls
only for an attack whose outputs can vary; the transition table and the
minimal machine they read are built in pure Python.

``run_experiment`` keeps only running totals: per-trial results leave each
chunk through its ``on_chunk`` callback, so its memory is bounded by the
chunk size whatever ``trials`` is.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from typing import NamedTuple

from ._version import __version__
from .adversary import (
    AttackKind,
    EveInferenceError,
    EveRecord,
    eve_end_round,
    eve_on_transit,
    eve_postprocess,
    eve_prepare,
)
from .protocol import (
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
from .statevector import (
    StateVector,
    discard_qubit,
    from_terms,
    max_abs_difference,
    tensor,
)

_MASK64 = (1 << 64) - 1
#: Trial-rounds per batch-engine chunk (``_CHUNK_ROUNDS // n_bits`` trials),
#: and the largest ``n_bits`` a config accepts, so a chunk holds one trial.
_CHUNK_ROUNDS = 2**21
#: The low bits of a comparison key, which hold the round index k - 1.
_KEY_ROUND_BITS = _CHUNK_ROUNDS - 1
#: Trial-rounds per numpy call of the batch hashing, so its temporaries stay in cache.
_BLOCK = 2**14
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: Columns of the random stream, per round.
_BIT, _EVE, _BOB, _CHARLIE, _KEY = range(5)


def _avalanche(z):
    """SplitMix64's finalizer of ``z`` mod 2^64: a Python int, or a fresh
    uint64 array updated in place (uint64 array arithmetic wraps mod 2^64
    without a warning, so the masks cost it nothing but a pass)."""
    z &= _MASK64
    z ^= z >> 30
    z *= _MIX1
    z &= _MASK64
    z ^= z >> 27
    z *= _MIX2
    z &= _MASK64
    z ^= z >> 31
    return z


def seed_for_trial(master_seed, trial_index):
    """Per-trial seed via a SplitMix64 avalanche of (master_seed, trial_index).

    Takes Python ints, or broadcasts over uint64 arrays of indices (and of
    masters). ``master_seed`` is reduced mod 2^64 first, so -1 and 2^64 - 1
    name the same stream. The mixing is pure integer arithmetic, so reports
    are reproducible across platforms and thread schedules.
    """
    return _avalanche((master_seed & _MASK64) + (trial_index + 1) * _GAMMA)


def _stream(seeds, k, column):
    """The stream's word for (trial seed, round ``k``, ``column``): output
    5k + column of a SplitMix64 generator seeded with the trial seed. Python
    ints, or uint64 arrays broadcast over all three arguments."""
    return _avalanche(seeds + (5 * k + column) * _GAMMA)


def _bit(word):
    """A data or measurement bit: the top bit of its word."""
    return word >> 63


def _compare_key(word, k):
    """Round ``k``'s comparison key: its word (a fresh array is updated in
    place) with the low bits replaced by k - 1, so keys are distinct and a
    tie of the high bits goes to the earlier round."""
    word &= _MASK64 ^ _KEY_ROUND_BITS
    word |= k - 1
    return word


class _ExperimentFields(NamedTuple):
    """The fields of :class:`ExperimentConfig`, which checks them."""

    n_bits: int
    trials: int = 1
    attack: AttackKind = AttackKind.NO_ATTACK
    compare_fraction: float = 0.25
    master_seed: int = 0
    bits: str | None = None


class ExperimentConfig(_ExperimentFields):
    """Parameters of a Monte Carlo experiment, checked when it is made.

    ``bits`` fixes the transmitted sequence for every trial; ``None`` draws a
    fresh uniform sequence per trial. The comparison subset always has
    ``ceil(compare_fraction * n_bits)`` indices (at least one), chosen
    uniformly without replacement. The product is taken exactly on the
    fraction's decimal form, so 0.28 x 25 gives 7, not the 8 the float
    product rounds up to. The integer fields are stored as Python ints, and
    a field of the wrong type raises ``TypeError``: a bool, a count or seed
    without ``__index__``, a ``compare_fraction`` not an int or a float, an
    ``attack`` not an :class:`AttackKind`, or ``bits`` neither a str nor None.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        fields = _ExperimentFields(*args, **kwargs)._asdict()
        for name in ("n_bits", "trials", "master_seed"):
            value = fields[name]
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            fields[name] = operator.index(value)
        fraction = fields["compare_fraction"]
        if isinstance(fraction, bool) or not isinstance(fraction, (int, float)):
            raise TypeError(f"compare_fraction must be an int or a float, got {fraction!r}")
        if not isinstance(fields["attack"], AttackKind):
            raise TypeError(f"attack must be an AttackKind, got {fields['attack']!r}")
        if not isinstance(fields["bits"], (str, type(None))):
            raise TypeError(f"bits must be a str or None, got {fields['bits']!r}")
        self = super().__new__(cls, **fields)
        if self.n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {self.n_bits}")
        if self.n_bits > _CHUNK_ROUNDS:
            raise ValueError(f"n_bits must be <= {_CHUNK_ROUNDS}, got {self.n_bits}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.compare_fraction <= 1.0:
            raise ValueError(
                f"compare_fraction must lie in (0, 1], got {self.compare_fraction}"
            )
        if self.bits is not None:
            if len(self.bits) != self.n_bits or any(c not in "01" for c in self.bits):
                raise ValueError(
                    f"fixed bit sequence {self.bits!r} must be {self.n_bits} characters of 0/1"
                )
        return self

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds its copy through ``_make``, so a copy is checked too.
        return cls(*iterable)

    @property
    def bits_mode(self) -> str:
        return "fixed" if self.bits is not None else "random"

    @property
    def compare_count(self) -> int:
        # The fraction's shortest decimal form is digits x 10**exp exactly.
        mantissa, _, exp = str(self.compare_fraction).partition("e")
        whole, _, decimals = mantissa.partition(".")
        scaled = int(whole + decimals) * self.n_bits
        exp = int(exp or 0) - len(decimals)
        return max(1, scaled * 10**exp if exp >= 0 else -(-scaled // 10**-exp))


class TrialResult(NamedTuple):
    """What one trial produced. Its data bits are the transcript's ``sent``
    bits; its states, the final carrier included, reach only an observer."""

    transcript: list[RoundRecord]
    detection: DetectionReport
    eve: EveRecord
    eve_correct_bits: int


class AggregateReport(NamedTuple):
    """Aggregated Monte Carlo statistics.

    ``mean_eve_known_fraction`` averages over non-ambiguous trials only
    (an ambiguous interceptor holds two candidate sequences, not knowledge).
    It is their exact count of correct bits over ``n_bits`` times their
    number, rounded once, so it does not depend on the chunking.
    """

    detection_rate: float
    mean_eve_known_fraction: float
    ambiguous_rate: float
    mismatch_histogram: dict[int, int]


def _silent(k, stage, state) -> None:
    pass


def _round(kind: AttackKind, k: int, carrier: StateVector, q: int, eve: int, bits, emit):
    """Round ``k`` from ``carrier``: the pair encoding ``q`` is prepared,
    Alice entangles, the adversary acts on the in-transit S1 (measuring with
    the bit ``eve``, if at all), Bob and Charlie disentangle, measure with
    ``bits`` and reconstruct the round record, the pair is discarded, and
    everyone applies their round-end Hadamard, Eve through her end-of-round
    hook. Returns the record, Eve's readout (``None`` in a round she reads
    nothing, see ``eve_on_transit``) and the carrier the next round starts
    from. ``emit(k, stage, state)`` is invoked at every protocol stage."""
    joint = tensor(carrier, encode_pair(q, k % 2))
    emit(k, "carrier+pair prepared", joint)
    joint = alice_entangle(joint, k % 2)
    emit(k, "after Alice CNOTs", joint)
    joint, readout = eve_on_transit(kind, k, joint, eve, emit)
    joint = charlie_disentangle(bob_disentangle(joint))
    emit(k, "after Bob/Charlie disentangling CNOTs", joint)
    rec, joint = receive_and_reconstruct(joint, k, q, bits)
    emit(k, "after Bob/Charlie measurements", joint)
    carrier = discard_qubit(discard_qubit(joint, "S1", rec.bob_outcome), "S2", rec.charlie_outcome)
    carrier = eve_end_round(kind, end_round_hadamards(carrier))
    emit(k, "after round-end Hadamards", carrier)
    return rec, readout, carrier


def run_trial(config: ExperimentConfig, trial_index: int = 0, observer=None) -> TrialResult:
    """Run one full protocol trial, playing ``_round`` for every round.
    After all rounds the public comparison runs on the trial's random subset
    and Eve post-processes her readouts against the announced bits.

    ``observer(round, stage, state)``, when given, is invoked at every
    protocol stage; it is the only way to watch a trial, and its last
    snapshot is the final carrier.
    """
    seed = seed_for_trial(config.master_seed, operator.index(trial_index))
    n = config.n_bits
    keys = sorted(_compare_key(_stream(seed, k, _KEY), k) for k in range(1, n + 1))
    subset = tuple(sorted((key & _KEY_ROUND_BITS) + 1 for key in keys[: config.compare_count]))
    kind = config.attack
    emit = observer or _silent
    carrier = eve_prepare(kind, init_carrier())
    emit(0, "initial carrier", carrier)
    measured: dict[int, int] = {}
    transcript: list[RoundRecord] = []

    for k in range(1, n + 1):
        q = _bit(_stream(seed, k, _BIT)) if config.bits is None else int(config.bits[k - 1])
        eve, bob, charlie = (_bit(_stream(seed, k, c)) for c in (_EVE, _BOB, _CHARLIE))
        rec, readout, carrier = _round(kind, k, carrier, q, eve, (bob, charlie), emit)
        if readout is not None:
            measured[k] = readout
        transcript.append(rec)

    detection = public_comparison(transcript, subset)
    record = eve_postprocess(kind, EveRecord(measured, n), {j: transcript[j - 1].sent for j in subset})
    inferred = record.inferred_bits or {}
    correct = sum(1 for j, b in inferred.items() if transcript[j - 1].sent == b)
    return TrialResult(transcript, detection, record, correct)


# ---------------------------------------------------------------------------
# Vectorized batch engine. Every gate is Clifford and every prepared state is
# a stabilizer state, so a run only ever visits a handful of distinct states,
# a state being a carrier plus the phase of the round it enters, and every
# measurement is certain or fair (Aaronson & Gottesman, PRA 70, 052328), so
# measure_z takes one random bit. _transition_table finds the states by
# playing the round run_trial plays, _round, from every reachable state on
# each round symbol, and reads each transition's mismatch and Eve's
# inference from the reference rules; the op caches answer its repeats.
# _minimal_machine merges the table's states that no symbol string tells
# apart (1 / 3 / 5 states for none / intercept-resend / cnot-ancilla) and
# finds the symbol bits some cell reads. A chunk of trials steps through
# the machine by one integer gather per round, on the round's 4-bit symbol
# (data bit, then Eve's, Bob's and Charlie's bits) with every unread bit 0,
# then gathers every per-trial column along each trial's path; a machine
# whose outputs cannot vary is not walked at all. The engine reads
# run_trial's randomness through the same _stream, _bit and _compare_key,
# hashing it in cache-sized blocks, so outcomes match run_trial trial for
# trial (asserted by the test suite). The table and the machine are flat
# tuples and their builds import no numpy.
# ---------------------------------------------------------------------------


class _TransitionTable(NamedTuple):
    """Round transitions as flat tuples: the columns ``_run_batch`` gathers,
    and no more. Each is indexed by ``state * 16 + symbol``, that is by
    [state, q, eve, bob, charlie]. ``reveals`` is the offset that announcing
    the round reveals, read from ``eve_postprocess`` on the round's record,
    as in run_trial; -1 means it reveals nothing, as in every cell of an
    attack that infers nothing. It does not depend on the receivers' bits,
    so it repeats over each cell's four (bob, charlie) symbols. Eve decodes
    a round's bit right exactly when its ``reveals`` equals her offset."""

    next_state: tuple[int, ...]
    mismatch: tuple[bool, ...]  # the round's bit fails the public comparison
    reveals: tuple[int, ...]


@functools.cache
def _transition_table(kind: AttackKind) -> _TransitionTable:
    """Closure over the states reachable from the initial carrier in round 1.

    A state is a carrier plus the representative round (1, 2 or 3) of the
    round it enters: round 1, then 2 for every even round and 3 for every
    odd round >= 3, since the protocol and the adversary act alike in every
    round of one kind. States are exact values, so a carrier seen before
    equals the one seen then, and its id is a dict lookup. States, then
    symbols, are played in index order, so each cell is appended where the
    flat layout puts it.
    """
    states: list[tuple[StateVector, int]] = []
    next_states, mismatches, reveals = [], [], []
    ids: dict[tuple, int] = {}

    def state_id(carrier: StateVector, k: int) -> int:
        key = (k, carrier)
        if key not in ids:
            ids[key] = len(states)
            states.append((carrier, k))
        return ids[key]

    state_id(eve_prepare(kind, init_carrier()), 1)
    # The loop also visits the states state_id appends while it runs.
    for start, k in states:
        following = 2 if k % 2 else 3
        for q, eve, bob, charlie in itertools.product((0, 1), repeat=4):
            rec, readout, carrier = _round(kind, k, start, q, eve, (bob, charlie), _silent)
            record = EveRecord({} if readout is None else {k: readout}, k)
            offset = eve_postprocess(kind, record, {k: q}).inferred_offset
            next_states.append(state_id(carrier, following))
            mismatches.append(public_comparison([rec], [1]).detected)
            reveals.append(-1 if offset is None else offset)

    return _TransitionTable(tuple(next_states), tuple(mismatches), tuple(reveals))


@functools.cache
def _minimal_machine(kind: AttackKind) -> tuple[_TransitionTable, int]:
    """The table with equal states merged, and the mask of symbol bits it reads.

    Moore's partition refinement (1956): a pass splits the states by each
    of their 16 cells' (``mismatch``, ``reveals``) and next state's class,
    until a pass splits nothing. Classes are numbered by their first state,
    so the initial state stays 0. A bit is read when flipping it changes
    some cell's outputs or next class; an unread bit cannot change a trial.
    """
    table = _transition_table(kind)
    classes, count = [0] * (len(table.next_state) // 16), 1
    while True:
        cells = [(classes[s], *outputs) for s, *outputs in zip(*table)]
        ids: dict[tuple, int] = {}
        classes = [ids.setdefault(tuple(cells[i : i + 16]), len(ids)) for i in range(0, len(cells), 16)]
        if len(ids) == count:  # no class split, so the cells' classes are the final ones
            break
        count = len(ids)
    cells = [cells[16 * classes.index(c) + x] for c in range(count) for x in range(16)]
    reads = sum(bit for bit in (8, 4, 2, 1) if any(cells[i ^ bit] != cell for i, cell in enumerate(cells)))
    return _TransitionTable(*map(tuple, zip(*cells))), reads


class _BatchOutcome(NamedTuple):
    """A chunk's per-trial columns; ``on_chunk`` gets all but ``path``."""

    path: np.ndarray          # (B, n) flat [state, symbol] minimal machine index per round
    mismatches: np.ndarray    # (B,) counted within the compared subset; > 0 is detected
    ambiguous: np.ndarray     # (B,) bool
    eve_correct: np.ndarray   # (B,) 0 where ambiguous


def _batch_randomness(config: ExperimentConfig, indices: np.ndarray):
    """The trials' seeds (B,) and (B, n) comparison subset masks: a trial
    compares the ``compare_count`` rounds with the smallest ``_compare_key``,
    hashed and ranked a block of about ``_BLOCK`` trial-rounds at a time."""
    import numpy as np

    m, n = config.compare_count, config.n_bits
    seeds = seed_for_trial(config.master_seed, np.asarray(indices, dtype=np.uint64))
    rounds = np.arange(1, n + 1, dtype=np.uint64)
    compared = np.empty((len(seeds), n), dtype=bool)
    rows = max(1, _BLOCK // n)
    for t in range(0, len(seeds), rows):
        keys = _compare_key(_stream(seeds[t : t + rows, None], rounds, _KEY), rounds)
        np.less_equal(keys, np.partition(keys, m - 1, axis=1)[:, m - 1 : m], out=compared[t : t + rows])
    return seeds, compared


def _round_symbols(config: ExperimentConfig, seeds: np.ndarray, reads: int):
    """Every round's symbols ``q<<3 | eve<<2 | bob<<1 | charlie`` for the
    trials with ``seeds``, as an (n, B) uint8 array, rounds-major: the top
    bits of the stream columns 0-3 that ``reads`` masks, and 0 for the bits
    it leaves out, with a read data bit ``q`` fixed where the config fixes
    it. Each numpy call hashes a block of about ``_BLOCK`` trial-rounds."""
    import numpy as np

    n, B = config.n_bits, len(seeds)
    symbols = np.zeros((n, B), dtype=np.uint8)
    columns = [c for c in (_BIT, _EVE, _BOB, _CHARLIE) if reads >> (3 - c) & 1]
    if config.bits is not None and _BIT in columns:
        columns.remove(_BIT)
        symbols |= ((np.frombuffer(config.bits.encode(), dtype=np.uint8) & 1) << 3)[:, None]
    rows, width = max(1, _BLOCK // B), min(B, _BLOCK)
    for first in range(0, n, rows):
        k = np.arange(first + 1, min(first + rows, n) + 1, dtype=np.uint64)[:, None]
        for t in range(0, B, width):
            block = symbols[first : first + rows, t : t + width]
            for c in columns:
                block |= _bit(_stream(seeds[t : t + width], k, c)) << (3 - c)
    return symbols


def _run_batch(config: ExperimentConfig, indices: np.ndarray) -> _BatchOutcome:
    import numpy as np

    seeds, compared = _batch_randomness(config, indices)
    machine, reads = _minimal_machine(config.attack)
    # Round k's row of the path is walked in place over its symbols: each
    # trial's flat [state, q, eve, bob, charlie] machine index, its state
    # times 16 plus its symbol.
    path = _round_symbols(config, seeds, reads)
    path = path.astype(np.min_scalar_type(len(machine.next_state) - 1), copy=False)
    next_cell = np.array([16 * s for s in machine.next_state], dtype=path.dtype)
    state = np.zeros(len(seeds), dtype=path.dtype)
    for row in path:
        row += state
        next_cell.take(row, out=state)

    compared = compared.T
    mismatches = (np.array(machine.mismatch)[path] & compared).sum(axis=0)
    ambiguous = np.zeros(len(seeds), dtype=bool)
    eve_correct = np.zeros(len(seeds), dtype=np.int64)
    if max(machine.reveals) >= 0:  # Eve infers: some round reveals her offset
        revealed = np.array(machine.reveals, dtype=np.int8)[path]
        reveals = np.where(compared, revealed, -1)
        offset = reveals.max(axis=0)
        if np.any((reveals >= 0) & (reveals != offset)):
            raise EveInferenceError("announced odd indices imply conflicting offsets")
        ambiguous = offset < 0
        # A round decodes right exactly when the offset is the one it reveals.
        eve_correct = np.where(ambiguous, 0, (revealed == offset).sum(axis=0))

    return _BatchOutcome(path.T, mismatches, ambiguous, eve_correct)


def run_experiment(config: ExperimentConfig, on_chunk=None) -> AggregateReport:
    """Aggregate ``config.trials`` independent trials.

    Trials are processed by the vectorized engine in chunks of at most
    ``_CHUNK_ROUNDS`` trial-rounds; because every trial's randomness is
    derived solely from its index, the report is independent of chunking and
    execution order, and two runs with the same config are byte-identical.

    ``on_chunk(indices, mismatches, ambiguous, eve_correct)``, when given,
    receives each chunk's per-trial columns as equal-length Python sequences
    in trial order (``indices`` a ``range``), before the chunk is released;
    it is the only way to see single trials, so nothing per trial outlives
    its chunk. A trial is detected when its mismatches are > 0, and Eve
    knows ``eve_correct / n_bits`` of its bits (0 where ambiguous). The
    totals kept are the mismatch histogram, the ambiguous count and Eve's
    correct bits; the report derives its other counts from them. An attack
    whose minimal machine never mismatches or reveals has constant columns,
    never detected and never ambiguous, and draws nothing.
    """
    hist: Counter[int] = Counter()
    ambiguous_total = 0
    correct_total = 0
    machine, _ = _minimal_machine(config.attack)
    varies = any(machine.mismatch) or max(machine.reveals) >= 0
    if varies:
        import numpy as np

    chunk = _CHUNK_ROUNDS // config.n_bits
    for start in range(0, config.trials, chunk):
        indices = range(start, min(start + chunk, config.trials))
        if not varies:
            hist[0] += len(indices)
            if on_chunk is not None:
                on_chunk(indices, [0] * len(indices), [False] * len(indices), [0] * len(indices))
            continue
        out = _run_batch(config, np.arange(indices.start, indices.stop))
        ambiguous_total += int(out.ambiguous.sum())
        correct_total += int(out.eve_correct.sum())
        for value, c in zip(*np.unique(out.mismatches, return_counts=True)):
            hist[int(value)] += int(c)
        if on_chunk is not None:
            on_chunk(indices, out.mismatches.tolist(), out.ambiguous.tolist(), out.eve_correct.tolist())
        del out  # free this chunk's arrays before the next chunk draws its own

    nonambiguous_total = config.trials - ambiguous_total
    return AggregateReport(
        detection_rate=(config.trials - hist[0]) / config.trials,
        mean_eve_known_fraction=(correct_total / (config.n_bits * nonambiguous_total)) if nonambiguous_total else 0.0,
        ambiguous_rate=ambiguous_total / config.trials,
        mismatch_histogram=dict(sorted(hist.items())),
    )


def aggregate_report_dict(config: ExperimentConfig, report: AggregateReport) -> dict:
    """JSON-ready report: aggregate fields plus config echo and version."""
    return {
        "version": __version__,
        "config": {
            "n_bits": config.n_bits,
            "trials": config.trials,
            "attack": config.attack.value,
            "compare_fraction": config.compare_fraction,
            "compare_count": config.compare_count,
            "master_seed": config.master_seed,
            "bits_mode": config.bits_mode,
            "bits": config.bits,
        },
        "report": {
            "trial_count": config.trials,
            "detection_rate": report.detection_rate,
            "mean_eve_known_fraction": report.mean_eve_known_fraction,
            "ambiguous_rate": report.ambiguous_rate,
            "mismatch_histogram": {str(k): v for k, v in report.mismatch_histogram.items()},
        },
    }


# ---------------------------------------------------------------------------
# Golden-state verifier: seeded CNOT-ancilla trials are played through
# run_trial, the round both engines play, and the states its trace reports
# are compared strictly (componentwise, no global phase allowance) against
# hand-coded expected states.
# ---------------------------------------------------------------------------

_LAB6 = ("A", "B", "C", "E", "S1", "S2")
_LAB4 = ("A", "B", "C", "E")


class GoldenCheck(NamedTuple):
    name: str
    passed: bool
    max_error: float
    detail: str = ""


def _round1_transit(q1: int) -> StateVector:
    flip = q1 ^ 1
    return from_terms(_LAB6, {f"000{q1}{q1}{q1}": 1, f"111{flip}{flip}{flip}": 1}, 1)


def _carrier_ancilla_odd(q1: int) -> StateVector:
    return from_terms(_LAB4, {f"000{q1}": 1, f"111{q1 ^ 1}": 1}, 1)


def _carrier_ancilla_even(q1: int) -> StateVector:
    # All even-weight four-bit kets; for q1=1 the sign follows the ancilla bit.
    terms = {}
    for i in range(16):
        s = format(i, "04b")
        if s.count("1") % 2 == 0:
            terms[s] = -1 if q1 == 1 and s[3] == "1" else 1
    return from_terms(_LAB4, terms, 3)


def _odd_round_system(q1: int, q: int) -> StateVector:
    return from_terms(_LAB6, {f"000{q1}{q}{q}": 1, f"111{q1 ^ 1}{q ^ 1}{q ^ 1}": 1}, 1)


def _ancilla_split(q1: int, q: int) -> StateVector:
    s1 = q ^ q1  # the readout: S1 is disentangled and definite in both terms
    return from_terms(_LAB6, {f"000{q1}{s1}{q}": 1, f"111{q1 ^ 1}{s1}{q ^ 1}": 1}, 1)


def verify_golden_states(inject_sign_fault: bool = False) -> list[GoldenCheck]:
    """Play seeded 3-round CNOT-ancilla trials through ``run_trial`` and
    compare the states its trace reports strictly against their hand-coded
    forms. Both are exact, so a check passes when its error is exactly 0.0.

    Ten checks: five scenario families, each for both values of the
    round-1 bit q1. Each q1 plays the bits q1, 0, q for both values of the
    round-3 bit q, and every check reports its worst error over both trials.
    The ancilla-split check also fails, with a detail, if Eve's round-3
    readout is not q XOR q1, or is not deterministic: her measurement must
    return the state it was given. ``inject_sign_fault`` flips one amplitude
    sign in the round-1 post-Hadamard state as compared (the trial itself is
    untouched), which must make exactly the Hadamard checks fail; it exists
    for fault-injection tests.
    """
    checks: list[GoldenCheck] = []

    for q1 in (0, 1):
        errors: dict[str, float] = {}
        failures: list[str] = []
        for q in (0, 1):
            states: dict[tuple[int, str], StateVector] = {}
            config = ExperimentConfig(n_bits=3, attack=AttackKind.CNOT_ANCILLA, bits=f"{q1}0{q}")
            eve = run_trial(config, observer=lambda k, stage, state: states.__setitem__((k, stage), state)).eve
            even_form = states[1, "after round-end Hadamards"]
            if inject_sign_fault:
                ints = list(even_form.ints)
                last = max(i for i, a in enumerate(ints) if a)
                ints[last] = -ints[last]
                even_form = StateVector(even_form.labels, ints, even_form.r)
            # The receivers' CNOTs detach the round-1 pair as |q1,q1>.
            detached = from_terms(_LAB6, {f"000{q1}{q1}{q1}": 1, f"111{q1 ^ 1}{q1}{q1}": 1}, 1)
            system = _odd_round_system(q1, q)
            comparisons = {
                "round1 transit": [(states[1, "after Eve C(S1->E)"], _round1_transit(q1))],
                "round1 carrier after disentangle": [
                    (states[1, "after Bob/Charlie disentangling CNOTs"], detached),
                    (states[1, "after Bob/Charlie measurements"], detached),
                ],
                # Round-end Hadamards: odd form -> signed even-weight form -> back.
                "carrier after round-end Hadamards": [
                    (even_form, _carrier_ancilla_even(q1)),
                    (states[2, "after round-end Hadamards"], _carrier_ancilla_odd(q1)),
                ],
                "odd-round entangled system": [(states[3, "after Alice CNOTs"], system)],
                # Eve's CNOT detaches S1, she reads it deterministically, and
                # her second CNOT restores the system.
                "odd-round ancilla split": [
                    (states[3, "after Eve C(E->S1)"], _ancilla_split(q1, q)),
                    (states[3, "after Eve restoring C(E->S1)"], system),
                ],
            }
            for name, pairs in comparisons.items():
                err = max(max_abs_difference(state, expected) for state, expected in pairs)
                errors[name] = max(errors.get(name, 0.0), err)
            if eve.measured[3] != q ^ q1:
                failures.append(f"readout {eve.measured[3]} != {q ^ q1} for q={q}")
            # A certain measurement returns its input; a fair one collapses it.
            if states[3, "after Eve measurement of S1"] != states[3, "after Eve C(E->S1)"]:
                failures.append(f"readout not deterministic for q={q}")
        for name, err in errors.items():
            detail = "; ".join(failures) if name == "odd-round ancilla split" else ""
            checks.append(GoldenCheck(f"{name} (q1={q1})", err == 0.0 and not detail, err, detail))

    return checks
