"""Output checks for every ``ghzqss`` invocation the benchmark makes.

Each check returns a list of problems; an empty list means the output is
correct. The reference values are computed here, independently of the
package: ``compare_count`` with exact arithmetic, the CNOT-ancilla ambiguity
rate in closed form, and the measure-and-resend detection rate from the
branch-enumeration oracle in ``tests/oracles.py``, which is imported
read-only.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

CSV_HEADER = ["trial_index", "detected", "mismatches", "ambiguous", "eve_correct_bits", "eve_known_fraction"]
SIGMAS = 5.0
# Slack for float rounding when an expected rate is 0 or 1.
RATE_SLACK = 1e-12
GOLDEN_CHECK_COUNT = 10
NORM_TOL = 1e-9


@dataclass(frozen=True)
class Invocation:
    """One ``python -m ghzqss`` call: its arguments and what it must print."""

    op: str  # "version", "run", "trace" or "verify"
    attack: str = "none"
    n_bits: int = 0
    trials: int = 0
    fmt: str = "json"
    seed: int = 0
    bits: str = ""
    compare_fraction: str = "0.25"

    def cli_args(self) -> list[str]:
        if self.op == "version":
            return ["--version"]
        if self.op == "verify":
            return ["verify", "--format", "json"]
        if self.op == "trace":
            return [
                "trace", "--bits", self.bits, "--attack", self.attack, "--seed", str(self.seed),
                "--compare-fraction", self.compare_fraction, "--format", "json",
            ]
        return [
            "run", "--bits-count", str(self.n_bits), "--trials", str(self.trials),
            "--attack", self.attack, "--compare-fraction", self.compare_fraction,
            "--seed", str(self.seed), "--format", self.fmt,
        ]

    @property
    def trial_count(self) -> int:
        """Trials this invocation completes: ``trace`` is one, ``verify`` none."""
        return {"run": self.trials, "trace": 1}.get(self.op, 0)

    @property
    def compare_count(self) -> int:
        return expected_compare_count(self.compare_fraction, self.n_bits)


def expected_compare_count(fraction: str, n_bits: int) -> int:
    """Comparison subset size, computed exactly (no float product)."""
    return math.ceil(Fraction(fraction) * n_bits)


def ambiguity_probability(n_bits: int, m: int) -> float:
    """Probability that a uniform m-subset of 1..n announces no odd index."""
    n_even = n_bits - math.ceil(n_bits / 2)
    return float(Fraction(math.comb(n_even, m), math.comb(n_bits, m)))


class References:
    """Expected rates, cached per configuration."""

    def __init__(self, root: Path):
        spec = importlib.util.spec_from_file_location("perfbench_oracles", root / "tests" / "oracles.py")
        self._oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self._oracles)
        self._detection: dict[tuple[int, str], float] = {}

    def intercept_resend_detection(self, n_bits: int, fraction: str) -> float:
        key = (n_bits, fraction)
        if key not in self._detection:
            self._detection[key] = self._oracles.intercept_resend_detection_probability(n_bits, float(fraction))
        return self._detection[key]


def _rate_problem(what: str, observed: float, expected: float, samples: int) -> list[str]:
    sigma = math.sqrt(max(expected * (1.0 - expected), 0.0) / samples)
    if abs(observed - expected) > SIGMAS * sigma + RATE_SLACK:
        return [f"{what} {observed:.6f} is not within {SIGMAS:g} sigma of {expected:.6f} ({samples} trials)"]
    return []


def check_version(text: str) -> list[str]:
    words = text.split()
    if len(words) != 2 or words[0] != "ghzqss":
        return [f"--version printed {text.strip()!r}"]
    return []


def parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check_run_csv(inv: Invocation, text: str, refs: References) -> list[str]:
    table = parse_csv(text)
    if not table or table[0] != CSV_HEADER:
        return [f"CSV header {table[:1]!r}"]
    rows = table[1:]
    if len(rows) != inv.trials:
        return [f"{len(rows)} CSV rows for {inv.trials} trials"]
    n, m = inv.n_bits, inv.compare_count
    half = math.ceil(n / 2)
    problems: list[str] = []
    detected_total = ambiguous_total = 0
    known_sum = Fraction(0)
    for i, row in enumerate(rows):
        try:
            index, detected, mismatches, ambiguous, correct = (int(v) for v in row[:5])
            fraction = row[5]
        except (ValueError, IndexError):
            return [f"CSV row {i} malformed: {row!r}"]
        bad = []
        if index != i:
            bad.append(f"trial_index {index}")
        if detected not in (0, 1) or detected != int(mismatches > 0) or not 0 <= mismatches <= m:
            bad.append(f"detected={detected} mismatches={mismatches}")
        if ambiguous not in (0, 1) or fraction != f"{correct / n:.6f}":
            bad.append(f"ambiguous={ambiguous} eve_known_fraction={fraction}")
        if inv.attack in ("none", "cnot-ancilla") and mismatches:
            bad.append(f"{mismatches} mismatches under {inv.attack}")
        if inv.attack == "cnot-ancilla":
            if correct != (0 if ambiguous else half):
                bad.append(f"eve_correct_bits={correct} ambiguous={ambiguous}")
        elif ambiguous or correct:
            bad.append(f"eve fields {ambiguous}/{correct} under {inv.attack}")
        if bad:
            problems.append(f"CSV row {i}: " + ", ".join(bad))
            if len(problems) >= 5:
                break
        detected_total += detected
        ambiguous_total += ambiguous
        if not ambiguous:
            known_sum += Fraction(correct, n)
    problems += _aggregate_problems(
        inv, refs, detected_total / inv.trials, ambiguous_total / inv.trials,
        known_sum / (inv.trials - ambiguous_total) if ambiguous_total < inv.trials else None,
    )
    return problems


def _aggregate_problems(inv: Invocation, refs: References, detection: float, ambiguous: float, known) -> list[str]:
    """Rate checks shared by the CSV rows and the JSON report."""
    n, m, t = inv.n_bits, inv.compare_count, inv.trials
    if inv.attack == "intercept-resend":
        return _rate_problem(
            "intercept-resend detection rate", detection,
            refs.intercept_resend_detection(n, inv.compare_fraction), t,
        ) + ([f"ambiguous rate {ambiguous}"] if ambiguous else [])
    problems = [f"detection rate {detection} under {inv.attack}"] if detection else []
    if inv.attack == "none":
        return problems + ([f"ambiguous rate {ambiguous}"] if ambiguous else [])
    problems += _rate_problem("ambiguous rate", ambiguous, ambiguity_probability(n, m), t)
    if known is not None and known != Fraction(1, 2):
        problems.append(f"mean known fraction {float(known)} is not exactly 0.5")
    return problems


def check_run_json(inv: Invocation, text: str, refs: References) -> list[str]:
    payload = json.loads(text)
    config, report = payload["config"], payload["report"]
    echo = {
        "n_bits": inv.n_bits, "trials": inv.trials, "attack": inv.attack,
        "compare_count": inv.compare_count, "master_seed": inv.seed, "bits_mode": "random",
    }
    problems = [f"config.{k} = {config.get(k)!r}, expected {v!r}" for k, v in echo.items() if config.get(k) != v]
    hist = {int(k): v for k, v in report["mismatch_histogram"].items()}
    if report["trial_count"] != inv.trials or sum(hist.values()) != inv.trials:
        problems.append(f"trial_count {report['trial_count']}, histogram total {sum(hist.values())}")
        return problems
    if any(not 0 <= k <= inv.compare_count for k in hist):
        problems.append(f"histogram keys {sorted(hist)} outside 0..{inv.compare_count}")
    detection = report["detection_rate"]
    if detection != (inv.trials - hist.get(0, 0)) / inv.trials:
        problems.append(f"detection rate {detection} disagrees with histogram {hist}")
    ambiguous = report["ambiguous_rate"]
    known = report["mean_eve_known_fraction"]
    if inv.attack != "cnot-ancilla" and known != 0:
        problems.append(f"mean known fraction {known} under {inv.attack}")
    known = Fraction(known) if ambiguous < 1 else None
    return problems + _aggregate_problems(inv, refs, detection, ambiguous, known)


def check_trace(inv: Invocation, text: str) -> list[str]:
    payload = json.loads(text)
    problems = []
    for key, want in (("bits", inv.bits), ("attack", inv.attack), ("seed", inv.seed)):
        if payload.get(key) != want:
            problems.append(f"{key} echo {payload.get(key)!r}")
    n = len(inv.bits)
    sent = [int(c) for c in inv.bits]
    records = payload["records"]
    if [r["round"] for r in records] != list(range(1, n + 1)) or [r["sent"] for r in records] != sent:
        return problems + ["round records do not list the sent bits in order"]
    for r in records:
        odd = r["round"] % 2 == 1
        rule = r["bob"] if odd else r["bob"] ^ r["charlie"]
        if r["reconstructed"] != rule or r["consistent"] != (not odd or r["bob"] == r["charlie"]):
            problems.append(f"round {r['round']} breaks the reconstruction rule")
            break
    honest = inv.attack in ("none", "cnot-ancilla")
    if honest and any(r["reconstructed"] != r["sent"] or not r["consistent"] for r in records):
        problems.append(f"records do not reconstruct the sent bits under {inv.attack}")

    comparison = payload["comparison"]
    indices = comparison["compared_indices"]
    if len(indices) != inv.compare_count or indices != sorted(set(indices)) or not all(1 <= i <= n for i in indices):
        problems.append(f"compared indices {indices} (expected {inv.compare_count} distinct in 1..{n})")
        return problems
    bad = sum(1 for i in indices if records[i - 1]["reconstructed"] != sent[i - 1] or not records[i - 1]["consistent"])
    if comparison["mismatches"] != bad or comparison["detected"] != (bad > 0) or (honest and bad):
        problems.append(f"comparison {comparison} (recount {bad} mismatches)")
    any_odd = any(i % 2 == 1 for i in indices)
    if comparison["any_odd_index_announced"] != any_odd:
        problems.append("any_odd_index_announced is wrong")

    eve = payload["eve"]
    if inv.attack == "cnot-ancilla":
        if sorted(int(k) for k in eve["measured"]) != list(range(3, n + 1, 2)):
            problems.append("eve readouts are not the odd rounds >= 3")
        if eve["ambiguous"] == any_odd:
            problems.append(f"eve ambiguous={eve['ambiguous']} with any_odd={any_odd}")
        elif not eve["ambiguous"]:
            inferred = {int(k): v for k, v in eve["inferred_bits"].items()}
            if inferred != {j: sent[j - 1] for j in range(1, n + 1, 2)}:
                problems.append("eve's inferred bits are not the odd-indexed sent bits")
    elif eve["measured"] or eve["ambiguous"] or eve["inferred_bits"] is not None:
        problems.append(f"eve record {eve} under {inv.attack}")

    snapshots = payload["snapshots"]
    if not snapshots or snapshots[0]["round"] != 0 or snapshots[-1]["round"] != n:
        problems.append("snapshots do not span setup to the last round")
    for snap in snapshots:
        norm = sum(re * re + im * im for _bits, re, im in snap["state"]["terms"])
        if abs(norm - 1.0) > NORM_TOL:
            problems.append(f"snapshot round {snap['round']} {snap['stage']!r} has norm {norm}")
            break
    return problems


def check_verify(text: str) -> list[str]:
    payload = json.loads(text)
    checks = payload["checks"]
    if payload["all_passed"] is not True or len(checks) != GOLDEN_CHECK_COUNT or not all(c["passed"] for c in checks):
        return [f"verify: all_passed={payload['all_passed']}, {sum(c['passed'] for c in checks)}/{len(checks)} passed"]
    return []


def check_output(inv: Invocation, text: str, refs: References) -> list[str]:
    """Every check that applies to ``inv``'s stdout."""
    try:
        if inv.op == "version":
            return check_version(text)
        if inv.op == "verify":
            return check_verify(text)
        if inv.op == "trace":
            return check_trace(inv, text)
        if inv.fmt == "csv":
            return check_run_csv(inv, text, refs)
        return check_run_json(inv, text, refs)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable {inv.op} output: {type(exc).__name__}: {exc}"]


def cross_engine(inv: Invocation, text: str, ghzqss_harness, ghzqss_adversary, samples: int) -> list[str]:
    """Re-run a few seeded trial indices of a ``run`` through ``run_trial``.

    The single-trial reference must agree with the batch engine's CSV row,
    or, for JSON, with what the aggregate report allows.
    """
    config = ghzqss_harness.ExperimentConfig(
        n_bits=inv.n_bits, trials=inv.trials, attack=ghzqss_adversary.AttackKind.from_name(inv.attack),
        compare_fraction=float(inv.compare_fraction), master_seed=inv.seed,
    )
    indices = random.Random(inv.seed).sample(range(inv.trials), samples)
    rows = parse_csv(text)[1:] if inv.fmt == "csv" else None
    report = json.loads(text)["report"] if rows is None else None
    problems = []
    for t in indices:
        result = ghzqss_harness.run_trial(config, t)
        ref = (int(result.detection.detected), result.detection.mismatches,
               int(result.eve.ambiguous), result.eve_correct_bits)
        if rows is not None:
            got = tuple(int(v) for v in rows[t][1:5])
            if got != ref:
                problems.append(f"trial {t}: run_trial gives {ref}, CSV row gives {got}")
            continue
        if report["mismatch_histogram"].get(str(ref[1]), 0) < 1:
            problems.append(f"trial {t}: run_trial gives {ref[1]} mismatches, absent from the histogram")
        if ref[0] and not report["detection_rate"] > 0:
            problems.append(f"trial {t}: run_trial detects, report detection rate is 0")
        if ref[2] and not report["ambiguous_rate"] > 0:
            problems.append(f"trial {t}: run_trial is ambiguous, report ambiguous rate is 0")
        if inv.attack == "cnot-ancilla" and not ref[2] and Fraction(ref[3], inv.n_bits) != Fraction(
            report["mean_eve_known_fraction"]
        ):
            problems.append(f"trial {t}: run_trial knows {ref[3]} bits, report mean is {report['mean_eve_known_fraction']}")
    return problems
