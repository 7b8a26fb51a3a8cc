"""Independent brute-force oracles used to cross-check the simulator.

Everything here deliberately avoids the package's statevector engine: gates
are implemented with standalone index arithmetic over plain arrays, and the
detection oracle enumerates every measurement branch exactly instead of
sampling. Register convention matches the package docs (first qubit = most
significant bit) so states can be compared, but no simulator code is shared.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def brute_marginal(labels, amplitudes, subset) -> dict[str, float]:
    """Marginal probability table by direct summation over basis indices."""
    labels = list(labels)
    n = len(labels)
    out: dict[str, float] = {}
    for idx, a in enumerate(amplitudes):
        p = abs(a) ** 2
        if p <= 1e-15:
            continue
        bits = format(idx, f"0{n}b")
        key = "".join(bits[labels.index(q)] for q in subset)
        out[key] = out.get(key, 0.0) + p
    return out


def _cnot(vec: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    cbit = 1 << (n - 1 - control)
    tbit = 1 << (n - 1 - target)
    out = np.empty_like(vec)
    for idx in range(vec.size):
        out[idx] = vec[idx ^ tbit] if idx & cbit else vec[idx]
    return out


def _hadamard(vec: np.ndarray, n: int, q: int) -> np.ndarray:
    bit = 1 << (n - 1 - q)
    out = np.zeros_like(vec)
    for idx in range(vec.size):
        a = vec[idx]
        if a == 0:
            continue
        if idx & bit:
            out[idx ^ bit] += a * _INV_SQRT2
            out[idx] -= a * _INV_SQRT2
        else:
            out[idx] += a * _INV_SQRT2
            out[idx ^ bit] += a * _INV_SQRT2
    return out


def _measure_branches(vec: np.ndarray, n: int, q: int):
    """Yield (outcome, probability, collapsed) for each branch with mass."""
    bit = 1 << (n - 1 - q)
    for outcome in (0, 1):
        branch = np.array(
            [a if bool(idx & bit) == bool(outcome) else 0.0 for idx, a in enumerate(vec)],
            dtype=complex,
        )
        p = float(np.sum(np.abs(branch) ** 2))
        if p > 1e-15:
            yield outcome, p, branch / math.sqrt(p)


def _drop(vec: np.ndarray, n: int, q: int, outcome: int) -> np.ndarray:
    """Remove qubit ``q`` (collapsed to ``outcome``) from the register."""
    p = n - 1 - q
    out = np.zeros(vec.size // 2, dtype=complex)
    for idx in range(vec.size):
        if (idx >> p) & 1 == outcome:
            hi = idx >> (p + 1)
            lo = idx & ((1 << p) - 1)
            out[(hi << p) | lo] = vec[idx]
    nrm = math.sqrt(float(np.sum(np.abs(out) ** 2)))
    return out / nrm


def _canonical(vec: np.ndarray) -> bytes:
    """Phase-fixed, rounded key so branches with equal states merge."""
    v = vec
    for a in vec:
        if abs(a) > 1e-9:
            v = vec * (a.conjugate() / abs(a))
            break
    return np.round(v, 12).tobytes()


def _round_transition(carriers: dict, ckey: bytes, odd: bool) -> dict:
    """One measure-and-resend round from a given three-qubit carrier.

    Returns {(next_carrier_key, bad_flag): probability} where ``bad_flag``
    marks a round whose public comparison entry would mismatch. The transit
    register is (A, B, C, S1, S2); data bits are uniform.
    """
    carrier = carriers[ckey]
    result: dict = {}
    for q in (0, 1):
        pq = 0.5
        joint = np.zeros(32, dtype=complex)
        if odd:
            pair = {q * 2 + q: 1.0}
        else:
            pair = {q: _INV_SQRT2, 2 + (1 - q): _INV_SQRT2}
        for c in range(8):
            if carrier[c] != 0:
                for p_idx, amp in pair.items():
                    joint[c * 4 + p_idx] = carrier[c] * amp
        joint = _cnot(joint, 5, 0, 3)  # Alice -> S1
        if odd:
            joint = _cnot(joint, 5, 0, 4)  # Alice -> S2
        for _eve, pe, after_eve in _measure_branches(joint, 5, 3):
            st = _cnot(after_eve, 5, 1, 3)  # Bob -> S1
            st = _cnot(st, 5, 2, 4)  # Charlie -> S2
            for bob, pb, after_bob in _measure_branches(st, 5, 3):
                for charlie, pc, after_charlie in _measure_branches(after_bob, 5, 4):
                    reconstructed = bob if odd else bob ^ charlie
                    bad = 1 if reconstructed != q or (odd and bob != charlie) else 0
                    red = _drop(after_charlie, 5, 4, charlie)
                    red = _drop(red, 4, 3, bob)
                    for qq in range(3):
                        red = _hadamard(red, 3, qq)
                    key2 = _canonical(red)
                    if key2 not in carriers:
                        carriers[key2] = red
                    prob = pq * pe * pb * pc
                    pair_key = (key2, bad)
                    result[pair_key] = result.get(pair_key, 0.0) + prob
    return result


def intercept_resend_detection_probability(n_bits: int, compare_fraction: float) -> float:
    """Exact detection probability of the measure-and-resend strategy.

    Enumerates every measurement branch of the honest five-qubit system round
    by round, merging branches with identical carrier states, then averages
    the probability that a uniform ``ceil(f*n)``-subset of indices hits at
    least one corrupted round (hypergeometric miss term per branch).
    """
    m = math.ceil(Fraction(str(compare_fraction)) * n_bits)
    ghz = np.zeros(8, dtype=complex)
    ghz[0b000] = _INV_SQRT2
    ghz[0b111] = _INV_SQRT2
    carriers = {_canonical(ghz): ghz}
    dist = {(_canonical(ghz), 0): 1.0}
    cache: dict = {}

    for k in range(1, n_bits + 1):
        odd = k % 2 == 1
        new_dist: dict = {}
        for (ckey, bad), prob in dist.items():
            trans = cache.get((ckey, odd))
            if trans is None:
                trans = _round_transition(carriers, ckey, odd)
                cache[(ckey, odd)] = trans
            for (ckey2, bad_flag), p2 in trans.items():
                key = (ckey2, bad + bad_flag)
                new_dist[key] = new_dist.get(key, 0.0) + prob * p2
        dist = new_dist

    detect = 0.0
    denom = math.comb(n_bits, m)
    for (_ckey, bad), prob in dist.items():
        miss = math.comb(n_bits - bad, m) / denom
        detect += prob * (1.0 - miss)
    return detect


def all_even_subset_probability(n_bits: int, compare_fraction: float) -> float:
    """Closed-form probability that a uniform subset announces no odd index."""
    m = math.ceil(Fraction(str(compare_fraction)) * n_bits)
    n_even = n_bits // 2
    return math.comb(n_even, m) / math.comb(n_bits, m) if m <= n_even else 0.0
