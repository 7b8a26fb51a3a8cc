"""Dense statevector engine for small registers of labeled qubits.

Conventions used throughout the package:

- A register is an ordered tuple of distinct labels drawn from ``QUBIT_ROLES``.
- The FIRST label owns the MOST significant bit of the basis index, so ket
  strings read left to right in label order: for labels ``("A", "B", "C")``
  the string ``"011"`` addresses basis index ``0b011``.
- Operations are pure: they take a :class:`StateVector` and return a new one,
  except inside a :func:`memoized_ops` block, where an op called again on an
  identical input (same labels, same amplitude bytes, same other arguments)
  may return the shared, read-only result of the first call.
  Measurement randomness enters only through an explicit ``draw`` argument,
  which keeps every caller a pure function of its seed.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

#: Qubit roles known to the register layout. A, B, C are the three carrier
#: qubits, E is the interceptor's ancilla, S1 and S2 are the per-round
#: sending qubits.
QUBIT_ROLES = ("A", "B", "C", "E", "S1", "S2")

INV_SQRT2 = float(1.0 / np.sqrt(2.0))

#: Accumulated-norm tolerance (gate chains, collapses).
NORM_TOL = 1e-9
#: Tolerance for exact algebraic identities at this register size.
EXACT_TOL = 1e-12
#: A measurement may only realize an outcome at least this probable.
MIN_BRANCH_PROBABILITY = 1e-12

_measurement_log: ContextVar[list[float] | None] = ContextVar("measurement_log", default=None)
_memo: ContextVar[dict | None] = ContextVar("memo", default=None)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over an ordered register of labeled qubits.

    ``amplitudes`` has length ``2 ** len(labels)`` and is indexed msb-first
    by the labels, per the module conventions. Instances are treated as
    immutable; the gate and measurement helpers return new vectors, or
    inside :func:`memoized_ops` possibly a shared read-only one.
    """

    labels: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        for q in labels:
            if q not in QUBIT_ROLES:
                raise ValueError(f"unknown qubit role {q!r}; expected one of {QUBIT_ROLES}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels in {labels!r}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        expected = 1 << len(labels)
        if amps.shape != (expected,):
            raise ValueError(
                f"amplitude array of shape {amps.shape} does not match "
                f"{len(labels)} qubit(s); expected ({expected},)"
            )
        if not np.isfinite(amps).all():
            raise ValueError("non-finite amplitude in state vector")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def axis(self, q: str) -> int:
        """Position of label ``q`` (0 = most significant bit)."""
        try:
            return self.labels.index(q)
        except ValueError:
            raise ValueError(f"qubit {q!r} not in register {self.labels!r}") from None

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class MeasurementRecord:
    """One Z-basis measurement: which qubit, the outcome, and its Born probability."""

    qubit: str
    outcome: int
    probability: float


@contextmanager
def memoized_ops():
    """Memoise the pure ops on their exact input for the duration of the block.

    Every gate is Clifford, so a trial or a table build asks the ops the same
    question many times. Inside the block an op is keyed on each state
    argument's labels and amplitude bytes, with no tolerance, plus the other
    arguments and their types; a repeated call returns the first call's
    result, whose amplitudes are read-only. Exceptions are not cached. Each
    block starts an empty memo, and the memo ends with the block; as a
    decorator, ``@memoized_ops()`` gives every call of the function its own."""
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
        key = (op, *[(a.labels, a.amplitudes.tobytes()) if isinstance(a, StateVector) else (type(a), a) for a in args])
        try:
            return memo[key]
        except KeyError:
            pass
        result = op(*args)
        if isinstance(result, StateVector):
            result.amplitudes.flags.writeable = False
        memo[key] = result
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
    amps = np.zeros(1 << len(labels), dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return StateVector(labels, amps)


def from_terms(labels, terms: dict[str, complex]) -> StateVector:
    """State built from explicit ket terms, e.g. ``{"000": c0, "111": c1}``.

    The terms must describe a normalized state (norm within ``NORM_TOL`` of 1).
    """
    labels = tuple(labels)
    amps = np.zeros(1 << len(labels), dtype=np.complex128)
    for bits, coeff in terms.items():
        if len(bits) != len(labels) or any(b not in "01" for b in bits):
            raise ValueError(f"bad ket string {bits!r} for register {labels!r}")
        amps[int(bits, 2)] += coeff
    nrm = float(np.linalg.norm(amps))
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"terms describe a state of norm {nrm}, expected 1")
    return StateVector(labels, amps)


@_memoized
def tensor(left: StateVector, right: StateVector) -> StateVector:
    """Tensor product; ``right``'s qubits become the least significant bits."""
    overlap = set(left.labels) & set(right.labels)
    if overlap:
        raise ValueError(f"registers share qubits {sorted(overlap)!r}")
    return StateVector(left.labels + right.labels, np.kron(left.amplitudes, right.amplitudes))


def _split_view(state: StateVector, q: str) -> np.ndarray:
    """Amplitudes reshaped to (pre, 2, post) with ``q`` on the middle axis."""
    ax = state.axis(q)
    n = state.n_qubits
    return state.amplitudes.reshape(1 << ax, 2, 1 << (n - 1 - ax))


@_memoized
def apply_h(state: StateVector, q: str) -> StateVector:
    """Hadamard gate on qubit ``q``."""
    view = _split_view(state, q)
    out = np.empty_like(view)
    out[:, 0, :] = (view[:, 0, :] + view[:, 1, :]) * INV_SQRT2
    out[:, 1, :] = (view[:, 0, :] - view[:, 1, :]) * INV_SQRT2
    return StateVector(state.labels, out.reshape(-1))


@_memoized
def apply_x(state: StateVector, q: str) -> StateVector:
    """Bit flip (Pauli X) on qubit ``q``."""
    view = _split_view(state, q)
    out = np.empty_like(view)
    out[:, 0, :] = view[:, 1, :]
    out[:, 1, :] = view[:, 0, :]
    return StateVector(state.labels, out.reshape(-1))


@_memoized
def apply_cnot(state: StateVector, control: str, target: str) -> StateVector:
    """CNOT with the given control and target qubits."""
    if control == target:
        raise ValueError(f"control and target are both {control!r}")
    n = state.n_qubits
    cbit = 1 << (n - 1 - state.axis(control))
    tbit = 1 << (n - 1 - state.axis(target))
    idx = np.arange(state.dim)
    src = np.where(idx & cbit, idx ^ tbit, idx)
    return StateVector(state.labels, state.amplitudes[src])


@_memoized
def probability_of_zero(state: StateVector, q: str) -> float:
    """Born probability of outcome 0 for a Z measurement of ``q``, clamped to [0, 1]."""
    view = _split_view(state, q)
    p0 = float(np.sum(np.abs(view[:, 0, :]) ** 2))
    return float(np.clip(p0, 0.0, 1.0))


def measure_z(state: StateVector, q: str, draw: float) -> tuple[int, StateVector, MeasurementRecord]:
    """Z-basis measurement of ``q`` driven by an explicit uniform draw.

    The outcome is 0 iff ``draw < P(0)``. Returns the outcome, the collapsed
    and renormalized state, and a record carrying the Born probability of the
    realized outcome.
    """
    if not 0.0 <= draw < 1.0:
        raise ValueError(f"draw must lie in [0, 1), got {draw}")
    p0 = probability_of_zero(state, q)
    log = _measurement_log.get()
    if log is not None:
        log.append(p0)
    outcome = 0 if draw < p0 else 1
    p_out = p0 if outcome == 0 else 1.0 - p0
    if p_out < MIN_BRANCH_PROBABILITY:
        raise RuntimeError(f"measurement realized a zero-probability branch on {q!r}")
    return outcome, _collapse(state, q, outcome, p_out), MeasurementRecord(q, outcome, p_out)


@_memoized
def _collapse(state: StateVector, q: str, outcome: int, p_out: float) -> StateVector:
    """``state`` projected onto ``q = outcome`` and divided by ``sqrt(p_out)``."""
    view = _split_view(state, q)
    out = np.zeros_like(view)
    out[:, outcome, :] = view[:, outcome, :] / np.sqrt(p_out)
    return StateVector(state.labels, out.reshape(-1))


@contextmanager
def measurement_log():
    """Collect the Born P(0) of every :func:`measure_z` call made inside the
    block, in call order. The batch engine reads the adversary's measurement
    probabilities this way, without knowing which qubit she measures, or when."""
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
    view = _split_view(state, q)
    dead = float(np.linalg.norm(view[:, 1 - outcome, :]))
    if dead > NORM_TOL:
        raise ValueError(f"qubit {q!r} is not collapsed to {outcome} (residual norm {dead:.3e})")
    kept = view[:, outcome, :].reshape(-1)
    labels = tuple(l for l in state.labels if l != q)
    return StateVector(labels, kept / np.linalg.norm(kept))


def equal_up_to_global_phase(s1: StateVector, s2: StateVector, tol: float = NORM_TOL) -> bool:
    """True iff ``s1 == lam * s2`` componentwise within ``tol`` for some unit ``lam``."""
    if s1.labels != s2.labels:
        raise ValueError(f"registers differ: {s1.labels!r} vs {s2.labels!r}")
    a, b = s1.amplitudes, s2.amplitudes
    j = int(np.argmax(np.abs(a) + np.abs(b)))
    if abs(b[j]) < 1e-12 or abs(a[j]) < 1e-12:
        # One side is (near) zero where the other is largest: no unit phase fits
        # unless both are negligible there, in which case compare directly.
        return bool(np.max(np.abs(a - b)) <= tol)
    lam = a[j] / b[j]
    lam /= abs(lam)
    return bool(np.max(np.abs(a - lam * b)) <= tol)


def max_abs_difference(s1: StateVector, s2: StateVector) -> float:
    """Largest componentwise amplitude difference (strict, phase-sensitive)."""
    if s1.labels != s2.labels:
        raise ValueError(f"registers differ: {s1.labels!r} vs {s2.labels!r}")
    return float(np.max(np.abs(s1.amplitudes - s2.amplitudes)))


def marginal_probabilities(state: StateVector, subset) -> dict[str, float]:
    """Probability table over the bitstrings of ``subset`` (in subset order).

    Entries below 1e-15 are omitted; the remaining entries sum to 1 within
    ``NORM_TOL``.
    """
    subset = tuple(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValueError(f"subset labels must be distinct, got {subset!r}")
    keep = [state.axis(q) for q in subset]
    n = state.n_qubits
    rest = [ax for ax in range(n) if ax not in keep]
    probs = (np.abs(state.amplitudes) ** 2).reshape([2] * n)
    table = probs.transpose(keep + rest).reshape(1 << len(keep), -1).sum(axis=1)
    k = len(subset)
    return {format(i, f"0{k}b"): float(p) for i, p in enumerate(table) if p > 1e-15}


def reduced_density_matrix(state: StateVector, subset) -> np.ndarray:
    """Reduced density matrix of ``subset`` (partial trace over the rest)."""
    subset = tuple(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValueError(f"subset labels must be distinct, got {subset!r}")
    keep = [state.axis(q) for q in subset]
    n = state.n_qubits
    rest = [ax for ax in range(n) if ax not in keep]
    psi = state.amplitudes.reshape([2] * n).transpose(keep + rest).reshape(1 << len(keep), -1)
    return psi @ psi.conj().T


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
