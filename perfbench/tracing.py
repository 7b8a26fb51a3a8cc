"""Spans around the calls between ``ghzqss`` modules, recorded from outside.

Each public function is wrapped where its caller binds it, so a span covers
one call from one layer into the next:

- ``cli`` -> the harness names and ``state_to_dict``;
- ``harness`` -> the protocol, adversary and statevector names it calls;
- ``protocol`` and ``adversary`` -> the statevector names they call.

A span is (name, start, end, parent). The span's self time is its duration
minus the durations of its children; calls are single-threaded and never
overlap, so the children's durations are the time they cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

PROTOCOL_FNS = (
    "init_carrier", "encode_pair", "alice_entangle", "bob_disentangle", "charlie_disentangle",
    "receive_and_reconstruct", "end_round_hadamards", "public_comparison",
)
ADVERSARY_FNS = ("eve_on_transit", "eve_end_round", "eve_postprocess")
STATEVECTOR_FNS = (
    "tensor", "discard_qubit", "apply_cnot", "apply_h", "measure_z", "from_terms",
    "new_basis_state", "max_abs_difference", "state_to_dict",
)
MODULES = ("cli", "harness", "protocol", "adversary", "statevector")

#: Binding module -> the names it imports from another layer (or calls on
#: itself, for ``seed_for_trial``) that get wrapped.
BINDINGS = {
    "ghzqss.cli": ("run_experiment", "run_trial", "verify_golden_states", "aggregate_report_dict", "state_to_dict"),
    "ghzqss.harness": ("seed_for_trial",) + PROTOCOL_FNS + ADVERSARY_FNS
    + ("tensor", "discard_qubit", "from_terms", "max_abs_difference"),
    "ghzqss.protocol": ("apply_cnot", "apply_h", "measure_z", "new_basis_state", "from_terms"),
    "ghzqss.adversary": ("apply_cnot", "apply_h", "measure_z"),
}

ROOT = "cli.main"
RUN_EXPERIMENT = "harness.run_experiment"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    trials: int = 0  # trials requested, recorded for run_experiment

    @property
    def duration(self) -> float:
        return self.end - self.start


def span_name(fn) -> str:
    """``<module>.<function>`` with the ``ghzqss.`` prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Recorder:
    """Keeps the spans of the calls made through wrapped functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str | None = None):
        name = name or span_name(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_trials = name == RUN_EXPERIMENT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            if counts_trials:
                span.trials = args[0].trials
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in ``BINDINGS`` for the duration of the block."""
        saved = []
        try:
            for module_name, names in BINDINGS.items():
                module = importlib.import_module(module_name)
                for attr in names:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Hand over the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans taken while a call is still open")
        spans = self.spans[:]
        self.spans.clear()  # in place: the wrappers hold this list
        return spans


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def layer_metrics(spans: list[Span], stdout_bytes: int) -> dict[str, float]:
    """Per-layer numbers of one batch of spans (one workload cycle)."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    for span, self_s in zip(spans, self_times(spans)):
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + self_s
    trials = sum(span.trials for span in spans if span.name == RUN_EXPERIMENT)

    out = {
        "cli.self_s": own.get(ROOT, 0.0),
        "cli.stdout_bytes": stdout_bytes,
        "cli.main.busy_s": busy.get(ROOT, 0.0),
    }
    for module in MODULES[1:]:
        out[f"{module}.self_s"] = sum(v for k, v in own.items() if k.startswith(module + "."))
    run_busy = busy.get(RUN_EXPERIMENT, 0.0)
    out.update({
        "harness.run_experiment.busy_s": run_busy,
        "harness.run_experiment.calls": calls.get(RUN_EXPERIMENT, 0),
        "harness.run_experiment.trials": trials,
        "harness.run_experiment.trials_per_busy_s": trials / run_busy if run_busy else 0.0,
        "harness.seed_for_trial.calls": calls.get("harness.seed_for_trial", 0),
        "harness.run_trial.busy_s": busy.get("harness.run_trial", 0.0),
        "harness.run_trial.self_s": own.get("harness.run_trial", 0.0),
        "harness.run_trial.calls": calls.get("harness.run_trial", 0),
        "harness.verify_golden_states.busy_s": busy.get("harness.verify_golden_states", 0.0),
        "harness.aggregate_report_dict.busy_s": busy.get("harness.aggregate_report_dict", 0.0),
    })
    for module, names in (("protocol", PROTOCOL_FNS), ("adversary", ADVERSARY_FNS), ("statevector", STATEVECTOR_FNS)):
        for fn in names:
            out[f"{module}.{fn}.self_s"] = own.get(f"{module}.{fn}", 0.0)
            out[f"{module}.{fn}.calls"] = calls.get(f"{module}.{fn}", 0)
    return out


PEAK_TRACED = "harness.run_experiment.peak_traced_mb"


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run prints: name -> (unit, better)."""
    units = {}
    for name in layer_metrics([], 0):
        if name.endswith("trials_per_busy_s"):
            units[name] = ("1/s", "higher")
        elif name.endswith("_s"):
            units[name] = ("s", "lower")
        elif name.endswith("_bytes"):
            units[name] = ("bytes", "lower")
        elif name.endswith(".trials"):
            units[name] = ("count", "higher")
        else:
            units[name] = ("count", "lower")
    units[PEAK_TRACED] = ("MB", "lower")
    return units
