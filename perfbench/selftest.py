"""Self-tests of the benchmark's checker and span accounting.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from checks import Invocation  # noqa: E402
from ghzqss import adversary, cli, harness  # noqa: E402


def output(inv: Invocation) -> str:
    text, problems = run.call_main(cli.main, inv.cli_args())
    assert not problems, problems
    return text


def flip_csv_cell(text: str, row: int, column: int) -> str:
    table = checks.parse_csv(text)
    table[row + 1][column] = str(1 - int(table[row + 1][column]))
    return "\r\n".join(",".join(r) for r in table) + "\r\n"


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.refs = checks.References(ROOT)

    def test_flipped_detected_cell_is_a_failure(self):
        for attack in run.ATTACKS:
            with self.subTest(attack=attack):
                inv = Invocation("run", attack=attack, n_bits=16, trials=300, fmt="csv", seed=11)
                text = output(inv)
                self.assertEqual(checks.check_output(inv, text, self.refs), [])
                self.assertNotEqual(checks.check_output(inv, flip_csv_cell(text, 7, 1), self.refs), [])

    def test_wrong_compare_count_is_a_failure(self):
        inv = Invocation("run", attack="intercept-resend", n_bits=256, trials=32, fmt="json", seed=5)
        payload = json.loads(output(inv))
        self.assertEqual(checks.check_output(inv, json.dumps(payload), self.refs), [])
        payload["config"]["compare_count"] += 1
        self.assertNotEqual(checks.check_output(inv, json.dumps(payload), self.refs), [])

    def test_compare_count_is_exact(self):
        # math.ceil(0.28 * 25) is 8; the exact count is 7.
        self.assertEqual(checks.expected_compare_count("0.28", 25), 7)
        self.assertEqual(checks.expected_compare_count("0.25", 16), 4)
        self.assertEqual(checks.expected_compare_count("0.25", 256), 64)

    def test_cross_engine_catches_a_doctored_row(self):
        inv = Invocation("run", attack="intercept-resend", n_bits=16, trials=50, fmt="csv", seed=3)
        text = output(inv)
        self.assertEqual(checks.cross_engine(inv, text, harness, adversary, 3), [])
        sampled = random.Random(inv.seed).sample(range(inv.trials), 1)[0]
        doctored = flip_csv_cell(text, sampled, 3)  # the ambiguous cell
        self.assertNotEqual(checks.cross_engine(inv, doctored, harness, adversary, 1), [])

    def test_doctored_trace_is_a_failure(self):
        inv = Invocation("trace", attack="cnot-ancilla", n_bits=24, seed=2, bits="011010001110101100101101")
        payload = json.loads(output(inv))
        self.assertEqual(checks.check_output(inv, json.dumps(payload), self.refs), [])
        payload["records"][4]["reconstructed"] ^= 1
        self.assertNotEqual(checks.check_output(inv, json.dumps(payload), self.refs), [])

    def test_failed_verify_is_a_failure(self):
        text, problems = run.call_main(cli.main, Invocation("verify").cli_args())
        self.assertEqual((problems, checks.check_verify(text)), ([], []))
        text, problems = run.call_main(cli.main, ["verify", "--format", "json", "--inject-sign-fault"])
        self.assertNotEqual(checks.check_verify(text), [])


class SpanTest(unittest.TestCase):
    def assert_self_times_fit(self, spans):
        own = tracing.self_times(spans)
        children: dict[int, float] = {}
        for span, self_s in zip(spans, own):
            self.assertGreaterEqual(self_s, -1e-9, span.name)
            if span.parent >= 0:
                parent = spans[span.parent]
                self.assertTrue(parent.start <= span.start <= span.end <= parent.end, span.name)
                children[span.parent] = children.get(span.parent, 0.0) + self_s
        for parent, total in children.items():
            self.assertLessEqual(total, spans[parent].duration + 1e-9, spans[parent].name)

    def test_synthetic_tree(self):
        spans = [
            tracing.Span("cli.main", 0.0, 10.0, -1),
            tracing.Span("harness.run_trial", 1.0, 4.0, 0),
            tracing.Span("statevector.tensor", 2.0, 3.0, 1),
            tracing.Span("harness.verify_golden_states", 5.0, 9.0, 0),
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 4.0])
        self.assert_self_times_fit(spans)

    def test_traced_invocations(self):
        recorder = tracing.Recorder()
        invocations = [
            Invocation("trace", attack=a, n_bits=12, seed=9, bits="110100111010") for a in run.ATTACKS
        ] + [Invocation("verify"), Invocation("run", attack="cnot-ancilla", n_bits=16, trials=64, fmt="csv", seed=1)]
        originals = {name: getattr(harness, name) for name in tracing.BINDINGS["ghzqss.harness"]}
        with recorder.installed():
            main = recorder.wrap(cli.main, tracing.ROOT)
            for inv in invocations:
                self.assertEqual(run.call_main(main, inv.cli_args())[1], [])
        self.assertEqual({name: getattr(harness, name) for name in originals}, originals)
        spans = recorder.take()
        self.assertEqual(sum(s.parent < 0 for s in spans), len(invocations))
        self.assert_self_times_fit(spans)
        metrics = tracing.layer_metrics(spans, 0)
        self.assertEqual(metrics["harness.run_trial.calls"], 3)
        self.assertEqual(metrics["harness.seed_for_trial.calls"], 3 + 64)
        self.assertEqual(metrics["harness.run_experiment.trials"], 64)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {name: unit for name, (unit, _better) in tracing.metric_units().items()},
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
