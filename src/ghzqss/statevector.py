"""Exact statevector engine for small registers of labeled qubits, in pure
Python.

Conventions used throughout the package:

- A register is an ordered tuple of distinct labels drawn from ``QUBIT_ROLES``.
- The FIRST label owns the MOST significant bit of the basis index, so ket
  strings read left to right in label order: for labels ``("A", "B", "C")``
  the string ``"011"`` addresses basis index ``0b011``.
- Amplitudes are exact: amplitude i is ``ints[i] * 2**(-r/2)``, for a tuple
  of Python ints and an int ``r``. Every gate here (H, CNOT) is a real
  Clifford gate, so every state the protocol reaches is a stabilizer state
  of this form, and its every Z measurement is certain or fair (Aaronson &
  Gottesman, PRA 70, 052328 (2004)). A register holds at most six qubits
  (64 entries), a size at which an array library buys nothing, so the
  single-trial engine, ``trace`` and ``verify`` never import one.
- A state is kept reduced: not every entry is even. So equal states have
  equal entries and equal ``r``, and the norm is exact: the squares of the
  entries sum to ``2**r``.
- Floats appear only where a state is rendered (:func:`state_terms`) or
  compared (:func:`max_abs_difference`): entry ``c`` is
  ``c * sqrt(0.5)**(r % 2) * 2**-(r // 2)``, which is correctly rounded for
  ``c = ±1``.
- Operations are pure: they take a :class:`StateVector` and return one (for
  a certain measurement, the input). States are values, so the ops that
  build or measure one (``tensor``, the gates, ``probability_of_zero``,
  ``discard_qubit`` and the collapse half of ``measure_z``) are cached for
  the life of the process, on equal arguments of equal types: a repeated
  call returns the first call's immutable result. The states the protocol
  reaches are a finite closure, so the caches stop growing.
- Measurement randomness enters only through an explicit ``bit`` argument,
  which keeps every caller a pure function of its seed: a measurement is
  certain or fair, so one random bit names a fair one's outcome, and
  :func:`measure_z` refuses any other P(0).
"""

from __future__ import annotations

import functools
import math
from array import array
from itertools import chain
from operator import index, itemgetter

#: Qubit roles known to the register layout. A, B, C are the three carrier
#: qubits, E is the interceptor's ancilla, S1 and S2 are the per-round
#: sending qubits.
QUBIT_ROLES = ("A", "B", "C", "E", "S1", "S2")

_SQRT_HALF = math.sqrt(0.5)

_set = object.__setattr__
#: The cache of the pure ops; ``typed`` keeps an int and a float argument
#: apart, so ``discard_qubit(state, q, 0.0)`` fails as it would uncached.
_cached = functools.lru_cache(maxsize=None, typed=True)


class StateVector:
    """Exact real amplitudes over an ordered register of labeled qubits.

    Amplitude i is ``ints[i] * 2**(-r/2)``: ``ints`` holds ``2 ** len(labels)``
    Python ints, indexed msb-first by the labels, per the module conventions.
    The constructor checks the labels and the length, and that every entry
    is an integer (a float or complex entry raises ``TypeError``), that the
    squares sum to exactly ``2**r`` and that some entry is odd (the reduced
    form); anything else raises ``ValueError``. Instances are immutable
    values: two compare equal, and hash alike, exactly when their keys do,
    and a state never equals an object of another type.

    ``key`` is the labels, ``r`` and the entries as 64-bit integers: equal
    exactly when the states are, since the form is reduced.
    """

    __slots__ = ("labels", "ints", "r", "key")

    def __init__(self, labels, ints, r: int) -> None:
        labels = tuple(labels)
        for q in labels:
            if q not in QUBIT_ROLES:
                raise ValueError(f"unknown qubit role {q!r}; expected one of {QUBIT_ROLES}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels in {labels!r}")
        ints = tuple(map(index, ints))
        expected = 1 << len(labels)
        if len(ints) != expected:
            raise ValueError(f"{len(ints)} entries do not match {len(labels)} qubit(s); expected {expected}")
        r = index(r)
        weight = sum(a * a for a in ints)
        if r < 0 or weight != 1 << r:
            raise ValueError(f"entries whose squares sum to {weight} do not describe a state at r = {r}")
        if not any(a & 1 for a in ints):
            raise ValueError("entries not reduced: every one is even")
        _fill(self, labels, ints, r)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete {name!r} of an immutable StateVector")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"StateVector(labels={self.labels!r}, ints={self.ints!r}, r={self.r!r})"

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def axis(self, q: str) -> int:
        """Position of label ``q`` (0 = most significant bit)."""
        try:
            return self.labels.index(q)
        except ValueError:
            raise ValueError(f"qubit {q!r} not in register {self.labels!r}") from None


def _fill(state: StateVector, labels: tuple, ints: tuple, r: int) -> StateVector:
    _set(state, "labels", labels)
    _set(state, "ints", ints)
    _set(state, "r", r)
    _set(state, "key", (labels, r, array("q", ints).tobytes()))
    return state


def _state(labels: tuple, ints: tuple, r: int) -> StateVector:
    """A state from parts an op has made valid and reduced, unchecked."""
    return _fill(object.__new__(StateVector), labels, ints, r)


def _reduced(labels: tuple, ints: tuple, r: int) -> StateVector:
    """The state ``ints`` at ``r``, normalised exactly but possibly all even:
    every entry is halved, and 2 subtracted from ``r``, while all are even."""
    while not any(a & 1 for a in ints):
        ints = tuple(a >> 1 for a in ints)
        r -= 2
    return _state(labels, ints, r)


def _scale(r: int) -> float:
    """The amplitude of entry 1 at ``r``: ``sqrt(0.5)**(r % 2) * 2**-(r // 2)``."""
    return _SQRT_HALF ** (r % 2) * 2.0 ** -(r // 2)


def new_basis_state(labels, bits: str) -> StateVector:
    """Computational basis state |bits> over ``labels`` (msb-first)."""
    labels = tuple(labels)
    if len(bits) != len(labels):
        raise ValueError(
            f"bitstring {bits!r} has length {len(bits)} but register has {len(labels)} qubit(s)"
        )
    if any(b not in "01" for b in bits):
        raise ValueError(f"bitstring {bits!r} must contain only '0' and '1'")
    ints = [0] * (1 << len(labels))
    ints[int(bits, 2)] = 1
    return StateVector(labels, ints, 0)


def from_terms(labels, terms: dict[str, int], r: int) -> StateVector:
    """State built from explicit ket terms with integer coefficients at
    ``r``, e.g. ``{"000": 1, "111": 1}`` at ``r = 1`` for (|000> + |111>)/sqrt2.

    The terms must describe a normalized, reduced state (see
    :class:`StateVector`).
    """
    labels = tuple(labels)
    ints = [0] * (1 << len(labels))
    for bits, coeff in terms.items():
        if len(bits) != len(labels) or any(b not in "01" for b in bits):
            raise ValueError(f"bad ket string {bits!r} for register {labels!r}")
        ints[int(bits, 2)] = coeff
    return StateVector(labels, ints, r)


@_cached
def tensor(left: StateVector, right: StateVector) -> StateVector:
    """Tensor product; ``right``'s qubits become the least significant bits.
    An odd entry times an odd entry is odd, so the product stays reduced."""
    overlap = set(left.labels) & set(right.labels)
    if overlap:
        raise ValueError(f"registers share qubits {sorted(overlap)!r}")
    return _state(left.labels + right.labels, tuple(a * b for a in left.ints for b in right.ints), left.r + right.r)


def _blocks(state: StateVector, q: str) -> tuple[list[tuple], list[tuple]]:
    """The entries cut into runs of equal index bits above ``q``: the runs
    where ``q`` is 0 and, pairwise aligned with them, the runs where it is 1."""
    step = 1 << (state.n_qubits - 1 - state.axis(q))
    ints = state.ints
    runs = [ints[i : i + step] for i in range(0, len(ints), step)]
    return runs[0::2], runs[1::2]


def _join(zeros, ones) -> tuple[int, ...]:
    """The inverse of :func:`_blocks`: interleave the ``q = 0`` and ``q = 1`` runs."""
    return tuple(chain.from_iterable(chain.from_iterable(zip(zeros, ones))))


@_cached
def apply_h(state: StateVector, q: str) -> StateVector:
    """Hadamard gate on qubit ``q``: each pair (a, b) becomes (a + b, a - b)
    at ``r + 1``, then reduced."""
    zeros, ones = _blocks(state, q)
    return _reduced(state.labels, _join(
        [[a + b for a, b in zip(zero, one)] for zero, one in zip(zeros, ones)],
        [[a - b for a, b in zip(zero, one)] for zero, one in zip(zeros, ones)],
    ), state.r + 1)


@functools.cache
def _cnot_gather(n: int, cbit: int, tbit: int) -> itemgetter:
    """Picks, for every basis index, the entry a CNOT moves there."""
    return itemgetter(*[i ^ tbit if i & cbit else i for i in range(1 << n)])


@_cached
def apply_cnot(state: StateVector, control: str, target: str) -> StateVector:
    """CNOT with the given control and target qubits."""
    if control == target:
        raise ValueError(f"control and target are both {control!r}")
    n = state.n_qubits
    cbit = 1 << (n - 1 - state.axis(control))
    tbit = 1 << (n - 1 - state.axis(target))
    return _state(state.labels, _cnot_gather(n, cbit, tbit)(state.ints), state.r)


@_cached
def probability_of_zero(state: StateVector, q: str) -> float:
    """Born probability of outcome 0 for a Z measurement of ``q``: the
    squares of the entries where ``q`` is 0 over ``2**r``, one correctly
    rounded division, so 0.0, 0.5 or 1.0 exactly on a stabilizer state."""
    zeros, _ = _blocks(state, q)
    return sum(a * a for a in chain.from_iterable(zeros)) / (1 << state.r)


def measure_z(state: StateVector, q: str, bit: int) -> tuple[int, StateVector]:
    """Z-basis measurement of ``q`` driven by one random ``bit``.

    Every state the protocol reaches is a stabilizer state, so every
    measurement is certain or fair: a fair one's outcome is ``bit``, and a
    certain one's is forced, whatever ``bit``. Returns the outcome and the
    collapsed state, which is ``state`` itself exactly when the outcome was
    certain. Raises ``ValueError`` if ``bit`` is not 0 or 1, or if P(0) is
    not exactly 0, 1/2 or 1, since then no one bit names the outcome.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    p0 = probability_of_zero(state, q)
    if p0 == 0.5:
        outcome = int(bit)
        return outcome, _collapse(state, q, outcome)
    if p0 not in (0.0, 1.0):
        raise ValueError(f"a measurement of {q!r} with P(0) = {p0} is neither certain nor fair")
    return int(p0 == 0.0), state


@_cached
def _collapse(state: StateVector, q: str, outcome: int) -> StateVector:
    """``state`` projected onto ``q = outcome`` of a fair measurement: the
    kept entries hold half the weight, so they stand at ``r - 1``, and are
    then reduced."""
    kept = _blocks(state, q)[outcome]
    blank = [(0,) * len(run) for run in kept]
    ints = _join(kept, blank) if outcome == 0 else _join(blank, kept)
    return _reduced(state.labels, ints, state.r - 1)


@_cached
def discard_qubit(state: StateVector, q: str, outcome: int) -> StateVector:
    """Drop a qubit that has already collapsed to ``|outcome>``.

    Every entry where ``q`` is ``1 - outcome`` must be 0. The kept entries
    then hold the whole weight and every odd entry, so ``r`` stays and the
    result is reduced.
    """
    runs = _blocks(state, q)
    if any(chain.from_iterable(runs[1 - outcome])):
        raise ValueError(f"qubit {q!r} is not collapsed to {outcome}")
    return _state(tuple(l for l in state.labels if l != q), tuple(chain.from_iterable(runs[outcome])), state.r)


def max_abs_difference(s1: StateVector, s2: StateVector) -> float:
    """Largest componentwise amplitude difference (strict, phase-sensitive);
    exactly 0.0 for equal states."""
    if s1.labels != s2.labels:
        raise ValueError(f"registers differ: {s1.labels!r} vs {s2.labels!r}")
    scale1, scale2 = _scale(s1.r), _scale(s2.r)
    return max(abs(a * scale1 - b * scale2) for a, b in zip(s1.ints, s2.ints))


def state_terms(state: StateVector) -> list[tuple[str, float, float]]:
    """Ordered (bitstring, re, im) triples for the nonzero amplitudes; ``im``
    is always 0.0."""
    n = state.n_qubits
    scale = _scale(state.r)
    return [(format(i, f"0{n}b"), c * scale, 0.0) for i, c in enumerate(state.ints) if c]


def state_to_dict(state: StateVector) -> dict:
    """JSON-friendly dump: label order plus the nonzero ket terms.

    The first listed label is the most significant bit of each ket string.
    """
    return {
        "labels": list(state.labels),
        "msb_first": True,
        "terms": [[bits, re, im] for bits, re, im in state_terms(state)],
    }


def format_state(state: StateVector) -> str:
    """Human-readable one-term-per-line rendering of the nonzero amplitudes."""
    return "\n".join(f"({re:+.9f}{im:+.9f}j) |{bits}>" for bits, re, im in state_terms(state))
