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
  build or measure one (``tensor``, the gates, ``measure_z``'s outcome and
  branch, and ``discard_qubit``) are cached for the life of the process, on
  equal arguments of equal types: a repeated call returns the first call's
  immutable result. The states the protocol reaches are a finite closure,
  so the caches stop growing.
- Measurement randomness enters only through an explicit ``bit`` argument,
  which keeps every caller a pure function of its seed: :func:`measure_z`
  tells a certain measurement from a fair one by integer weights, one
  random bit names a fair one's outcome, and it refuses any other weight.
"""

from __future__ import annotations

import functools
import math
from array import array
from operator import index

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
    """The state ``ints`` at ``r``, normalised exactly and not all zero, but
    possibly all even: every entry is halved, and 2 subtracted from ``r``,
    while all are even."""
    while not any(a & 1 for a in ints):
        ints = tuple(a >> 1 for a in ints)
        r -= 2
    return _state(labels, ints, r)


def _scale(r: int) -> float:
    """The amplitude of entry 1 at ``r``: ``sqrt(0.5)**(r % 2) * 2**-(r // 2)``."""
    return _SQRT_HALF ** (r % 2) * 2.0 ** -(r // 2)


def new_basis_state(labels, bits: str) -> StateVector:
    """Computational basis state |bits> over ``labels`` (msb-first)."""
    return from_terms(labels, {bits: 1}, 0)


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


def _mask(state: StateVector, q: str) -> int:
    """The bit that qubit ``q`` sets in a basis index."""
    return 1 << (state.n_qubits - 1 - state.axis(q))


@_cached
def apply_h(state: StateVector, q: str) -> StateVector:
    """Hadamard gate on qubit ``q``: each pair of entries (a, b) at indices
    that differ only in ``q``'s bit becomes (a + b, a - b) at ``r + 1``,
    then reduced."""
    bit = _mask(state, q)
    ints = state.ints
    pairs = (ints[i ^ bit] - a if i & bit else a + ints[i | bit] for i, a in enumerate(ints))
    return _reduced(state.labels, tuple(pairs), state.r + 1)


@_cached
def apply_cnot(state: StateVector, control: str, target: str) -> StateVector:
    """CNOT with the given control and target qubits."""
    if control == target:
        raise ValueError(f"control and target are both {control!r}")
    cbit, tbit = _mask(state, control), _mask(state, target)
    ints = state.ints
    return _state(state.labels, tuple(ints[i ^ tbit if i & cbit else i] for i in range(len(ints))), state.r)


def measure_z(state: StateVector, q: str, bit: int) -> tuple[int, StateVector]:
    """Z-basis measurement of ``q`` driven by one random ``bit``.

    The squares of the entries where ``q`` is 0 sum to 0 or ``2**r`` when
    the outcome is certain, and to half of ``2**r`` when it is fair; every
    stabilizer state gives one of the three. A certain outcome is forced,
    whatever ``bit``, and ``state`` itself is returned. A fair outcome is
    ``bit``, and the state its branch: the entries where ``q``'s bit is
    ``bit``, at ``r - 1``, reduced. Raises ``ValueError`` if ``bit`` is not
    0 or 1, or for any other sum, since then no one bit names the outcome.
    """
    outcome, branch = _measure(state, q, bit)
    return outcome, state if branch is None else branch


@_cached
def _measure(state: StateVector, q: str, bit: int) -> tuple[int, StateVector | None]:
    """:func:`measure_z`'s outcome and fair branch (``None`` when certain),
    cached apart from the state a certain measurement returns, which is the
    caller's own object, not an equal one an earlier call was given."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    mask, full, ints = _mask(state, q), 1 << state.r, state.ints
    zero = sum(a * a for i, a in enumerate(ints) if not i & mask)
    if zero in (0, full):
        return int(zero == 0), None
    if 2 * zero != full:
        raise ValueError(f"a measurement of {q!r} with P(0) = {zero / full} is neither certain nor fair")
    want = mask * bit
    branch = tuple(a if i & mask == want else 0 for i, a in enumerate(ints))
    return int(bit), _reduced(state.labels, branch, state.r - 1)


@_cached
def discard_qubit(state: StateVector, q: str, outcome: int) -> StateVector:
    """Drop a qubit that has already collapsed to ``|outcome>``.

    Every entry where ``q``'s bit is not ``outcome`` must be 0, else
    ``ValueError``. The kept entries then hold the whole weight and every
    odd entry, so ``r`` stays and the result is reduced.
    """
    bit = _mask(state, q)
    want = bit * index(outcome)
    ints = state.ints
    if any(a for i, a in enumerate(ints) if i & bit != want):
        raise ValueError(f"qubit {q!r} is not collapsed to {outcome}")
    kept = tuple(a for i, a in enumerate(ints) if i & bit == want)
    return _state(tuple(l for l in state.labels if l != q), kept, state.r)


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
