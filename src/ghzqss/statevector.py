"""Dense statevector engine for small registers of labeled qubits, in pure
Python.

Conventions used throughout the package:

- A register is an ordered tuple of distinct labels drawn from ``QUBIT_ROLES``.
- The FIRST label owns the MOST significant bit of the basis index, so ket
  strings read left to right in label order: for labels ``("A", "B", "C")``
  the string ``"011"`` addresses basis index ``0b011``.
- Amplitudes are a tuple of Python ``complex``. A register holds at most six
  qubits (64 amplitudes), a size at which an array library buys nothing, so
  the single-trial engine, ``trace`` and ``verify`` never import one.
- Arithmetic is complex x complex throughout (scalars are ``complex``
  constants), every sum of squares is ``math.fsum`` over ``m * m`` with
  ``m = abs(a)``, and a division by a real multiplies by its reciprocal,
  as Smith's complex division does. So the digits depend neither on a
  BLAS's summation order nor on the platform.
- Operations are pure: they take a :class:`StateVector` and return a new one,
  except inside a :func:`memoized_ops` block, where an op called again on an
  identical input (same :attr:`StateVector.key`, same other arguments) may
  return the shared result of the first call.
  Measurement randomness enters only through an explicit ``draw`` argument,
  which keeps every caller a pure function of its seed.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain
from operator import attrgetter, itemgetter, sub
from typing import NamedTuple

#: Qubit roles known to the register layout. A, B, C are the three carrier
#: qubits, E is the interceptor's ancilla, S1 and S2 are the per-round
#: sending qubits.
QUBIT_ROLES = ("A", "B", "C", "E", "S1", "S2")

INV_SQRT2 = 1.0 / math.sqrt(2.0)
_H = complex(INV_SQRT2)

#: Accumulated-norm tolerance (gate chains, collapses).
NORM_TOL = 1e-9
#: Tolerance for exact algebraic identities at this register size.
EXACT_TOL = 1e-12
#: A measurement may only realize an outcome at least this probable.
MIN_BRANCH_PROBABILITY = 1e-12

_measurement_log: ContextVar[list[float] | None] = ContextVar("measurement_log", default=None)
_memo: ContextVar[dict | None] = ContextVar("memo", default=None)
_real, _imag = attrgetter("real"), attrgetter("imag")


class StateVector:
    """Complex amplitudes over an ordered register of labeled qubits.

    ``amplitudes`` is a tuple of ``2 ** len(labels)`` complex numbers, indexed
    msb-first by the labels, per the module conventions; any iterable of
    numbers is accepted and converted. Instances are immutable and compare by
    identity; the gate and measurement helpers return new vectors, or inside
    :func:`memoized_ops` possibly a shared one.

    ``key`` is the labels and the bytes of every real part, then every
    imaginary part: equal exactly when the states are bit for bit equal, so a
    ``-0.0`` or a one-ulp variant has a key of its own.
    """

    __slots__ = ("labels", "amplitudes", "key")

    def __init__(self, labels, amplitudes) -> None:
        labels = tuple(labels)
        for q in labels:
            if q not in QUBIT_ROLES:
                raise ValueError(f"unknown qubit role {q!r}; expected one of {QUBIT_ROLES}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels in {labels!r}")
        amps = tuple(map(complex, amplitudes))
        expected = 1 << len(labels)
        if len(amps) != expected:
            raise ValueError(
                f"{len(amps)} amplitude(s) do not match {len(labels)} qubit(s); expected {expected}"
            )
        if not all(map(cmath.isfinite, amps)):
            raise ValueError("non-finite amplitude in state vector")
        _set = object.__setattr__
        _set(self, "labels", labels)
        _set(self, "amplitudes", amps)
        _set(self, "key", (labels, struct.pack(f"<{2 * expected}d", *map(_real, amps), *map(_imag, amps))))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete {name!r} of an immutable StateVector")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"StateVector(labels={self.labels!r}, amplitudes={self.amplitudes!r})"

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def axis(self, q: str) -> int:
        """Position of label ``q`` (0 = most significant bit)."""
        try:
            return self.labels.index(q)
        except ValueError:
            raise ValueError(f"qubit {q!r} not in register {self.labels!r}") from None

    def norm(self) -> float:
        return math.sqrt(_sum_of_squares(self.amplitudes))


class MeasurementRecord(NamedTuple):
    """One Z-basis measurement: which qubit, the outcome, and its Born probability."""

    qubit: str
    outcome: int
    probability: float


def _sum_of_squares(amps) -> float:
    """Exact-rounded sum of ``|a|**2``, each square taken as ``m * m``."""
    return math.fsum(m * m for m in map(abs, amps))


def _divided(amps, d: float) -> list[complex]:
    """``amps`` divided by the real ``d`` as Smith's complex division by
    ``d + 0j`` does it: both parts times ``1 / d``, each after adding its zero
    cross term, which fixes the sign of a zero part."""
    s = 1.0 / d
    return [complex((a.real + a.imag * 0.0) * s, (a.imag - a.real * 0.0) * s) for a in amps]


@contextmanager
def memoized_ops():
    """Memoise the pure ops on their exact input for the duration of the block.

    Every gate is Clifford, so a trial or a table build asks the ops the same
    question many times. Inside the block an op is keyed on each state
    argument's :attr:`StateVector.key` (labels and amplitude bytes, no
    tolerance) plus the other arguments and their types; a repeated call
    returns the first call's result. Exceptions are not cached. Each block
    starts an empty memo, and the memo ends with the block; as a decorator,
    ``@memoized_ops()`` gives every call of the function its own."""
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def _memoized(op):
    """``op``, answered from the memo of the enclosing :func:`memoized_ops`
    block when there is one. A call with keyword arguments computes directly;
    the engines call positionally."""

    @functools.wraps(op)
    def memoized(*args, **kwargs):
        memo = _memo.get()
        if memo is None or kwargs:
            return op(*args, **kwargs)
        key = (op, *[a.key if isinstance(a, StateVector) else (type(a), a) for a in args])
        try:
            return memo[key]
        except KeyError:
            pass
        result = memo[key] = op(*args)
        return result

    return memoized


def new_basis_state(labels, bits: str) -> StateVector:
    """Computational basis state |bits> over ``labels`` (msb-first)."""
    labels = tuple(labels)
    if len(bits) != len(labels):
        raise ValueError(
            f"bitstring {bits!r} has length {len(bits)} but register has {len(labels)} qubit(s)"
        )
    if any(b not in "01" for b in bits):
        raise ValueError(f"bitstring {bits!r} must contain only '0' and '1'")
    amps = [0j] * (1 << len(labels))
    amps[int(bits, 2)] = 1 + 0j
    return StateVector(labels, amps)


def from_terms(labels, terms: dict[str, complex]) -> StateVector:
    """State built from explicit ket terms, e.g. ``{"000": c0, "111": c1}``.

    The terms must describe a normalized state (norm within ``NORM_TOL`` of 1).
    """
    labels = tuple(labels)
    amps = [0j] * (1 << len(labels))
    for bits, coeff in terms.items():
        if len(bits) != len(labels) or any(b not in "01" for b in bits):
            raise ValueError(f"bad ket string {bits!r} for register {labels!r}")
        amps[int(bits, 2)] += complex(coeff)
    nrm = math.sqrt(_sum_of_squares(amps))
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"terms describe a state of norm {nrm}, expected 1")
    return StateVector(labels, amps)


@_memoized
def tensor(left: StateVector, right: StateVector) -> StateVector:
    """Tensor product; ``right``'s qubits become the least significant bits."""
    overlap = set(left.labels) & set(right.labels)
    if overlap:
        raise ValueError(f"registers share qubits {sorted(overlap)!r}")
    return StateVector(left.labels + right.labels, [a * b for a in left.amplitudes for b in right.amplitudes])


def _blocks(state: StateVector, q: str) -> tuple[list[tuple], list[tuple]]:
    """The amplitudes cut into runs of equal index bits above ``q``: the runs
    where ``q`` is 0 and, pairwise aligned with them, the runs where it is 1."""
    step = 1 << (state.n_qubits - 1 - state.axis(q))
    amps = state.amplitudes
    runs = [amps[i : i + step] for i in range(0, len(amps), step)]
    return runs[0::2], runs[1::2]


def _join(zeros, ones) -> list[complex]:
    """The inverse of :func:`_blocks`: interleave the ``q = 0`` and ``q = 1`` runs."""
    return list(chain.from_iterable(chain.from_iterable(zip(zeros, ones))))


@_memoized
def apply_h(state: StateVector, q: str) -> StateVector:
    """Hadamard gate on qubit ``q``."""
    zeros, ones = _blocks(state, q)
    return StateVector(state.labels, _join(
        [[(a + b) * _H for a, b in zip(zero, one)] for zero, one in zip(zeros, ones)],
        [[(a - b) * _H for a, b in zip(zero, one)] for zero, one in zip(zeros, ones)],
    ))


@_memoized
def apply_x(state: StateVector, q: str) -> StateVector:
    """Bit flip (Pauli X) on qubit ``q``."""
    zeros, ones = _blocks(state, q)
    return StateVector(state.labels, _join(ones, zeros))


@functools.cache
def _cnot_gather(n: int, cbit: int, tbit: int) -> itemgetter:
    """Picks, for every basis index, the amplitude a CNOT moves there."""
    return itemgetter(*[i ^ tbit if i & cbit else i for i in range(1 << n)])


@_memoized
def apply_cnot(state: StateVector, control: str, target: str) -> StateVector:
    """CNOT with the given control and target qubits."""
    if control == target:
        raise ValueError(f"control and target are both {control!r}")
    n = state.n_qubits
    cbit = 1 << (n - 1 - state.axis(control))
    tbit = 1 << (n - 1 - state.axis(target))
    return StateVector(state.labels, _cnot_gather(n, cbit, tbit)(state.amplitudes))


@_memoized
def probability_of_zero(state: StateVector, q: str) -> float:
    """Born probability of outcome 0 for a Z measurement of ``q``, clamped to [0, 1]."""
    zeros, _ = _blocks(state, q)
    return min(max(_sum_of_squares(chain.from_iterable(zeros)), 0.0), 1.0)


def measure_z(state: StateVector, q: str, draw: float) -> tuple[int, StateVector, MeasurementRecord]:
    """Z-basis measurement of ``q`` driven by an explicit uniform draw.

    An outcome less probable than ``MIN_BRANCH_PROBABILITY`` is never
    realized: the threshold is 0.0 (outcome 1) if P(0) is below it, 1.0
    (outcome 0) if 1 - P(0) is, and P(0) otherwise, and the outcome is
    ``draw >= threshold``. The threshold is what :func:`measurement_log`
    records. Returns the outcome, the collapsed state renormalized by the
    Born probability of the realized outcome, and a record carrying that
    probability.
    """
    if not 0.0 <= draw < 1.0:
        raise ValueError(f"draw must lie in [0, 1), got {draw}")
    p0 = probability_of_zero(state, q)
    if p0 < MIN_BRANCH_PROBABILITY:
        threshold = 0.0
    elif 1.0 - p0 < MIN_BRANCH_PROBABILITY:
        threshold = 1.0
    else:
        threshold = p0
    log = _measurement_log.get()
    if log is not None:
        log.append(threshold)
    outcome = int(draw >= threshold)
    p_out = 1.0 - p0 if outcome else p0
    return outcome, _collapse(state, q, outcome, p_out), MeasurementRecord(q, outcome, p_out)


@_memoized
def _collapse(state: StateVector, q: str, outcome: int, p_out: float) -> StateVector:
    """``state`` projected onto ``q = outcome`` and divided by ``sqrt(p_out)``."""
    runs = _blocks(state, q)
    d = math.sqrt(p_out)
    kept = [_divided(run, d) for run in runs[outcome]]
    blank = [(0j,) * len(run) for run in kept]
    return StateVector(state.labels, _join(*((kept, blank) if outcome == 0 else (blank, kept))))


@contextmanager
def measurement_log():
    """Collect the threshold of every :func:`measure_z` call made inside the
    block, in call order: its Born P(0), or 0.0 or 1.0 where one outcome is
    below ``MIN_BRANCH_PROBABILITY``. The batch engine reads the adversary's
    measurements this way, without knowing which qubit she measures, or when."""
    log: list[float] = []
    token = _measurement_log.set(log)
    try:
        yield log
    finally:
        _measurement_log.reset(token)


@_memoized
def discard_qubit(state: StateVector, q: str, outcome: int) -> StateVector:
    """Drop a qubit that has already collapsed to ``|outcome>``.

    The complementary slice must carry no amplitude (within ``NORM_TOL``).
    The result is renormalized to remove collapse drift.
    """
    runs = _blocks(state, q)
    dead = math.sqrt(_sum_of_squares(chain.from_iterable(runs[1 - outcome])))
    if dead > NORM_TOL:
        raise ValueError(f"qubit {q!r} is not collapsed to {outcome} (residual norm {dead:.3e})")
    kept = list(chain.from_iterable(runs[outcome]))
    return StateVector(tuple(l for l in state.labels if l != q), _divided(kept, math.sqrt(_sum_of_squares(kept))))


def max_abs_difference(s1: StateVector, s2: StateVector) -> float:
    """Largest componentwise amplitude difference (strict, phase-sensitive)."""
    if s1.labels != s2.labels:
        raise ValueError(f"registers differ: {s1.labels!r} vs {s2.labels!r}")
    return max(map(abs, map(sub, s1.amplitudes, s2.amplitudes)))


def state_terms(state: StateVector, cutoff: float = 1e-12) -> list[tuple[str, float, float]]:
    """Ordered (bitstring, re, im) triples for entries with ``|amp| > cutoff``."""
    n = state.n_qubits
    return [
        (format(i, f"0{n}b"), float(a.real), float(a.imag))
        for i, a in enumerate(state.amplitudes)
        if abs(a) > cutoff
    ]


def state_to_dict(state: StateVector, cutoff: float = 1e-12) -> dict:
    """JSON-friendly dump: label order plus significant ket terms.

    The first listed label is the most significant bit of each ket string.
    """
    return {
        "labels": list(state.labels),
        "msb_first": True,
        "terms": [[bits, re, im] for bits, re, im in state_terms(state, cutoff)],
    }


def format_state(state: StateVector, cutoff: float = 1e-12) -> str:
    """Human-readable one-term-per-line rendering of the significant amplitudes."""
    lines = [
        f"({re:+.9f}{im:+.9f}j) |{bits}>"
        for bits, re, im in state_terms(state, cutoff)
    ]
    return "\n".join(lines) if lines else "(zero state)"
