import argparse
import csv
import functools
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ghzqss import cli, harness
from ghzqss.adversary import AttackKind
from ghzqss.cli import SEED_ENV_VAR, main
from ghzqss.harness import ExperimentConfig
from ghzqss.statevector import format_state, state_to_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# --- verify ---------------------------------------------------------------


def test_verify_passes_with_ten_lines(capsys):
    code, out = run_cli(capsys, "verify")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)
    assert "10/10 checks passed" in out


def test_verify_json_is_machine_readable(capsys):
    code, out = run_cli(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 10
    assert all(set(c) == {"name", "passed", "max_error", "detail"} for c in payload["checks"])


# sha256 of stdout of `verify --inject-sign-fault` per format.
SIGN_FAULT_DIGESTS = {
    "text": "5f8d43725cd4b18f768cb2b7eafd00c1019043d5bdc27e49c5c2b6a50f4f4d8f",
    "json": "fc069c70651159a55d8fae0aab6a7c04af9326f2a95414e7bae6ab4af7336257",
}


def test_verify_sign_fault_fails_with_exit_1(capsys):
    code, out = run_cli(capsys, "verify", "--inject-sign-fault")
    assert code == 1
    assert "FAIL" in out
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert all("Hadamards" in line for line in failing)
    for fmt, digest in SIGN_FAULT_DIGESTS.items():
        code, out = run_cli(capsys, "verify", "--format", fmt, "--inject-sign-fault")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (1, digest)


# --- run ------------------------------------------------------------------


def test_run_json_schema_and_values(capsys):
    code, out = run_cli(
        capsys,
        "run",
        "--attack", "cnot-ancilla",
        "--bits-count", "8",
        "--trials", "400",
        "--compare-fraction", "0.25",
        "--seed", "3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["attack"] == "cnot-ancilla"
    assert payload["config"]["master_seed"] == 3
    report = payload["report"]
    assert report["detection_rate"] == 0.0
    assert report["mean_eve_known_fraction"] == 0.5
    assert report["mismatch_histogram"] == {"0": 400}


def test_run_none_attack_pretty(capsys):
    code, out = run_cli(
        capsys, "run", "--attack", "none", "--bits-count", "4", "--trials", "50", "--seed", "1"
    )
    assert code == 0
    assert "detection rate:          0.000000" in out
    assert "mean eve known fraction: 0.000000" in out


def test_run_intercept_resend_detects(capsys):
    code, out = run_cli(
        capsys,
        "run",
        "--attack", "intercept-resend",
        "--bits-count", "8",
        "--trials", "300",
        "--compare-fraction", "0.5",
        "--seed", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["report"]["detection_rate"] > 0.0


def test_run_csv_emits_one_row_per_trial(capsys):
    code, out = run_cli(
        capsys,
        "run",
        "--attack", "cnot-ancilla",
        "--bits-count", "6",
        "--trials", "25",
        "--seed", "5",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "trial_index",
        "detected",
        "mismatches",
        "ambiguous",
        "eve_correct_bits",
        "eve_known_fraction",
    ]
    assert len(rows) == 26
    assert all(row[1] == "0" for row in rows[1:])  # never detected


def _csv_writer_rendering(config):
    """``run_experiment``'s columns for ``config`` as ``csv.writer`` renders
    them, each trial's detected flag and known fraction derived with numpy."""
    import numpy as np

    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["trial_index", "detected", "mismatches", "ambiguous", "eve_correct_bits", "eve_known_fraction"])

    def write_rows(*columns):
        # The columns arrive as four equal-length Python sequences.
        assert all(isinstance(column, (range, list)) for column in columns)
        assert len({len(column) for column in columns}) == 1
        indices, mismatches, ambiguous, eve_correct = map(np.array, columns)
        fractions = eve_correct / float(config.n_bits)
        writer.writerows(zip(
            indices.tolist(), (mismatches > 0).astype(int).tolist(), mismatches.tolist(),
            ambiguous.astype(int).tolist(), eve_correct.tolist(), [f"{f:.6f}" for f in fractions.tolist()],
        ))

    harness.run_experiment(config, on_chunk=write_rows)
    return text.getvalue()


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("n", [1, 2, 17, 256])
@pytest.mark.parametrize("attack", ["none", "intercept-resend", "cnot-ancilla"])
def test_run_csv_matches_the_csv_writer(capsys, attack, n, seed):
    argv = ("--bits-count", str(n), "--trials", "40", "--attack", attack, "--seed", str(seed))
    code, out = run_cli(capsys, "run", *argv, "--format", "csv")
    assert code == 0
    config = ExperimentConfig(n_bits=n, trials=40, attack=AttackKind(attack), master_seed=seed)
    assert out == _csv_writer_rendering(config)


@pytest.mark.parametrize("attack", ["intercept-resend", "cnot-ancilla"])
def test_run_csv_of_many_chunks_matches_the_csv_writer(capsys, monkeypatch, attack):
    monkeypatch.setattr(harness, "_CHUNK_ROUNDS", 35)  # chunks of 7 trials at 5 bits
    code, out = run_cli(capsys, "run", "--bits-count", "5", "--trials", "50", "--attack", attack,
                        "--compare-fraction", "0.5", "--seed", "6", "--format", "csv")
    assert code == 0
    config = ExperimentConfig(n_bits=5, trials=50, attack=AttackKind(attack), compare_fraction=0.5, master_seed=6)
    assert out == _csv_writer_rendering(config)


# sha256 of stdout per (attack, format, compare fraction), on random stream
# v2. A change to the random stream, or to the version in the JSON, must
# record these again.
RUN_DIGESTS = {
    ("none", "json", "0.25"): "2dcd96a9f5acd3b9a25ce8ee94e1db310095e57864d7573f7e0713f731fc20c7",
    ("none", "csv", "0.25"): "378d3eea0cffa784343dcfaf9ecbc2dbef6f73972cc9e0885db0ee6fcb358b40",
    ("intercept-resend", "json", "0.25"): "86fa328a838196efad65d0cb413a6c3e7f7743654c0144ce7696a8aed557e038",
    ("intercept-resend", "csv", "0.25"): "08b654aaba97ae6eb12ace69c1f00fc0fbdf4ee61f7a44679843edb779e45fc0",
    # mean_eve_known_fraction 9/17 = 0.5294117647058824, rounded once from the exact count.
    ("cnot-ancilla", "json", "0.25"): "8b975f6b7bd2bfd29aadd98d1d27bdb408c6073cb4b9756c81441d528877b0a4",
    ("cnot-ancilla", "csv", "0.25"): "77f7af58abe0f217c53704dc8f346ab30d63bd802a19dada68a5bf2bdad4f385",
    ("cnot-ancilla", "csv", "1.0"): "29365e2de344f5d20f3d433e93ce90dec4bee996aa5989803c6bc5e098741af0",
}


@pytest.mark.parametrize("attack, fmt, fraction", list(RUN_DIGESTS))
def test_run_output_bytes_are_pinned(capsys, monkeypatch, attack, fmt, fraction):
    # On either engine: the rule's constant forces every run to the numpy one, then to the packed one.
    for packed_rounds in (0, 2**62):
        monkeypatch.setattr(harness, "_PACKED_ROUNDS", packed_rounds)
        code, out = run_cli(
            capsys,
            "run",
            "--attack", attack,
            "--format", fmt,
            "--compare-fraction", fraction,
            "--bits-count", "17",
            "--trials", "300",
            "--seed", "7",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == RUN_DIGESTS[attack, fmt, fraction], packed_rounds


# sha256 of stdout per (command, attack, format): `trace` of TRACE_BITS at
# seed 7, and `verify`. The JSON traces and `verify` were re-recorded when
# amplitudes became exact; the text traces, printed to 9 decimals, did not move.
TRACE_BITS = "10110011100011010"
TRACE_DIGESTS = {
    ("trace", "none", "json"): "60b1dd16ffd4c0e6cd1673559adb0d9df73f4d51b4bb58c60b1b9c9af476f9f4",
    ("trace", "none", "text"): "76f3bb6f5118cdc220e46455b85ea80192c7a4cfdecd76085787ce7fe7e83d82",
    ("trace", "intercept-resend", "json"): "9112c220f74c7f48fbad112dbcdb4709c1d286fa5b4728c7646829868ea3a55a",
    ("trace", "intercept-resend", "text"): "2403933e4bad4489c8d2d4dbb49db8c7b0262b033a0d93e95b6babae49a12f85",
    ("trace", "cnot-ancilla", "json"): "63eb44f87a6d2fc6c484f20694ccba556048c7e8137d76aa762e37969d325c49",
    ("trace", "cnot-ancilla", "text"): "34d2bbd6b2ed3f9a2c295fd034b4bbeed177b7c4b1ea385833c3a3a57b87fb74",
    ("verify", None, "text"): "7e462b3354e975cfac6fc5dbab814a2813af20f69d6820b09efe70b24d358b21",
    ("verify", None, "json"): "077f014a168c3f5be5d5684dbb33edb82cfaa3c38c52949e2a85f29f948b2ef8",
}


@pytest.mark.parametrize("command, attack, fmt", list(TRACE_DIGESTS))
def test_trace_and_verify_output_bytes_are_pinned(capsys, command, attack, fmt):
    argv = [command, "--format", fmt]
    if command == "trace":
        argv += ["--bits", TRACE_BITS, "--attack", attack, "--seed", "7"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRACE_DIGESTS[command, attack, fmt]


@pytest.mark.parametrize("seed, same_seed", [("-1", "18446744073709551615"), ("5", "18446744073709551621")])
def test_run_seeds_equal_mod_2_64_give_the_same_rows(capsys, seed, same_seed):
    outputs = []
    for s in (seed, same_seed):
        code, out = run_cli(capsys, "run", "--format", "csv", "--bits-count", "9", "--trials", "40", "--seed", s)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--bits-count", "0"],
        ["run", "--bits-count", "2097153"],
        ["run", "--trials", "0"],
        ["run", "--compare-fraction", "0"],
        ["run", "--compare-fraction", "1.2"],
        ["run", "--attack", "bogus"],
        ["run", "--format", "yaml"],
        ["trace", "--bits", "1", "--compare-fraction", "0"],
        ["trace", "--bits", "101", "--compare-fraction", "1.2"],
    ],
)
def test_run_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    # Every usage error, a config rule's too, shows the subcommand's usage.
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ghzqss {argv[0]} ") and f"\nghzqss {argv[0]}: error: " in err, err


# --- trace ------------------------------------------------------------------


def test_trace_round1_states_for_attack_run(capsys):
    code, out = run_cli(
        capsys,
        "trace", "--bits", "10", "--attack", "cnot-ancilla", "--seed", "7",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    by_stage = {(s["round"], s["stage"]): s["state"] for s in payload["snapshots"]}

    transit = by_stage[(1, "after Eve C(S1->E)")]
    assert sorted(t[0] for t in transit["terms"]) == ["000111", "111000"]
    for _bits, re_part, im_part in transit["terms"]:
        assert re_part == pytest.approx(0.7071067811865475, abs=1e-12)
        assert im_part == 0.0

    # After round 2's Hadamards the carrier+ancilla is back in its odd form.
    end_of_round_2 = by_stage[(2, "after round-end Hadamards")]
    assert sorted(t[0] for t in end_of_round_2["terms"]) == ["0001", "1110"]

    assert payload["comparison"]["mismatches"] == 0
    assert payload["eve"]["measured"] == {}  # n=2: no odd round >= 3 yet


def test_trace_honest_run_shows_detached_pair(capsys):
    code, out = run_cli(
        capsys, "trace", "--bits", "0", "--attack", "none", "--seed", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    stage = next(
        s for s in payload["snapshots"]
        if s["round"] == 1 and s["stage"] == "after Bob/Charlie disentangling CNOTs"
    )
    assert sorted(t[0] for t in stage["state"]["terms"]) == ["00000", "11100"]
    assert stage["state"]["labels"] == ["A", "B", "C", "S1", "S2"]


def test_trace_seed_changes_only_measurement_draws(capsys):
    readouts = {}
    for seed in ("1", "2"):
        code, out = run_cli(
            capsys,
            "trace", "--bits", "1011", "--attack", "cnot-ancilla", "--seed", seed,
            "--format", "json",
        )
        assert code == 0
        readouts[seed] = json.loads(out)["eve"]["measured"]
    # r_3 = q_3 xor q_1 = 1 xor 1 = 0 regardless of the seed.
    assert readouts["1"] == readouts["2"] == {"3": 0}


@pytest.mark.parametrize("attack", ["none", "intercept-resend", "cnot-ancilla"])
@pytest.mark.parametrize("seed, compared", [("2", [2]), ("0", [1])])
def test_trace_json_derives_whether_an_odd_index_was_announced(capsys, attack, seed, compared):
    code, out = run_cli(
        capsys, "trace", "--bits", "10", "--attack", attack, "--compare-fraction", "0.5", "--seed", seed,
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    comparison = payload["comparison"]
    assert comparison["compared_indices"] == compared
    assert comparison["any_odd_index_announced"] is any(i % 2 for i in compared)
    if attack == "cnot-ancilla":  # an announced odd index is what resolves her offset
        assert payload["eve"]["ambiguous"] is not comparison["any_odd_index_announced"]


def test_trace_text_format_headers(capsys):
    code, out = run_cli(capsys, "trace", "--bits", "1", "--attack", "none", "--seed", "0")
    assert code == 0
    assert "ket convention: leftmost label = most significant basis bit" in out
    assert "round 1 (odd) sent=1" in out


def record_snapshots(monkeypatch):
    """Patch the CLI's ``run_trial`` to record the snapshots it shows."""
    snapshots = []

    def recording_run_trial(config, trial_index, observer):
        def observe(*snapshot):
            snapshots.append(snapshot)
            observer(*snapshot)

        return harness.run_trial(config, trial_index, observer=observe)

    monkeypatch.setattr(cli, "run_trial", recording_run_trial)
    return snapshots


def reference_trace_json(out, snapshots):
    """The per-snapshot rendering: ``out``'s payload dumped again with every
    snapshot's state converted and dumped in place."""
    payload = json.loads(out)
    payload["snapshots"] = [
        {"round": k, "stage": stage, "state": state_to_dict(state)} for k, stage, state in snapshots
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reference_trace_text(out, snapshots, bits):
    """The per-snapshot rendering: ``format_state`` called for every snapshot."""
    lines = out.splitlines()[:2]
    current = None
    for k, stage, state in snapshots:
        if k != current:
            current = k
            lines += ["", "setup"] if k == 0 else ["", f"round {k} ({'odd' if k % 2 else 'even'}) sent={bits[k - 1]}"]
        lines.append(f"  {stage}  [{' '.join(state.labels)}]")
        lines += [f"    {line}" for line in format_state(state).splitlines()]
    return "\n".join(lines) + out[out.index("\n\nround records\n"):]


def reference_trace(fmt, out, snapshots, bits):
    if fmt == "json":
        return reference_trace_json(out, snapshots)
    return reference_trace_text(out, snapshots, bits)


def assert_trace_matches_reference(capsys, monkeypatch, attack, bits, seed, fmt):
    """Trace ``bits`` and compare the output with the reference rendering; return it."""
    snapshots = record_snapshots(monkeypatch)
    code, out = run_cli(capsys, "trace", "--bits", bits, "--attack", attack, "--seed", str(seed), "--format", fmt)
    assert code == 0
    assert out == reference_trace(fmt, out, snapshots, bits)
    return out


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("n", [1, 2, 5, 17, 64, 256, 257])
@pytest.mark.parametrize("attack", ["none", "intercept-resend", "cnot-ancilla"])
def test_trace_matches_per_snapshot_rendering(capsys, monkeypatch, attack, n, fmt):
    # Intercept-resend at n=64 holds many states equal up to rounding noise.
    # 256 and 257 bits end the records at and just past a whole number of
    # write batches.
    rng = random.Random(f"{attack}/{n}")
    bits = "".join(rng.choice("01") for _ in range(n))
    assert_trace_matches_reference(capsys, monkeypatch, attack, bits, rng.getrandbits(32), fmt)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("seed, ambiguous", [(0, False), (2, True)])
def test_trace_matches_per_snapshot_rendering_on_each_eve_branch(capsys, monkeypatch, seed, ambiguous, fmt):
    # Seed 2 announces only even indices of TRACE_BITS, seed 0 an odd one too.
    out = assert_trace_matches_reference(capsys, monkeypatch, "cnot-ancilla", TRACE_BITS, seed, fmt)
    if fmt == "json":
        eve = json.loads(out)["eve"]
        assert eve["ambiguous"] is ambiguous
        assert eve["inferred_offset"] == (None if ambiguous else 1)
        assert (eve["inferred_bits"] is None) is ambiguous
    else:
        assert ("eve inference: ambiguous;" in out) is ambiguous


#: The amplitudes reachable states have, ±2^(-r/2) for r = 0..4, correctly rounded.
EXACT_AMPLITUDES = {sign * a for sign in (1.0, -1.0) for a in (0.25, 0.3535533905932738, 0.5, 0.7071067811865476, 1.0)}


@pytest.mark.parametrize("attack", ["none", "intercept-resend", "cnot-ancilla"])
def test_trace_renders_exact_amplitudes(capsys, attack):
    code, out = run_cli(capsys, "trace", "--bits", TRACE_BITS, "--attack", attack, "--seed", "7", "--format", "json")
    assert code == 0
    terms = [term for snapshot in json.loads(out)["snapshots"] for term in snapshot["state"]["terms"]]
    assert {re for _, re, _ in terms} <= EXACT_AMPLITUDES
    assert {str(im) for _, _, im in terms} == {"0.0"}


def test_trace_rejects_malformed_bits(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "--bits", "10a1"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "--bits", ""])
    assert excinfo.value.code == 2


# --- seed resolution -----------------------------------------------------------


def test_environment_seed_is_used_when_flag_absent(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "41")
    code, out = run_cli(
        capsys, "run", "--bits-count", "4", "--trials", "10", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["config"]["master_seed"] == 41


def test_seed_flag_wins_over_environment(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "41")
    code, out = run_cli(
        capsys, "run", "--bits-count", "4", "--trials", "10", "--seed", "9", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["config"]["master_seed"] == 9


def test_invalid_environment_seed_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--bits-count", "4", "--trials", "10"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ghzqss run ") and "\nghzqss run: error: environment variable" in err, err


# --- options -------------------------------------------------------------------


def test_run_and_trace_share_each_option_definition():
    (subparsers,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        command: {a.option_strings[-1]: a for a in subparsers.choices[command]._actions if a.dest != "help"}
        for command in ("run", "trace")
    }
    for name in ("--attack", "--compare-fraction", "--seed"):
        run, trace = options["run"][name], options["trace"][name]
        assert (run.choices, run.default, run.type, run.help) == (trace.choices, trace.default, trace.type, trace.help)
    # The order is each usage line's, which every usage error prints on stderr.
    assert list(options["run"]) == ["--bits-count", "--trials", "--attack", "--compare-fraction", "--seed", "--format"]
    assert list(options["trace"]) == ["--bits", "--attack", "--seed", "--compare-fraction", "--format"]


# --- start-up cost ---------------------------------------------------------------


def _checkout_env():
    """The environment, with this checkout's package first on the path."""
    import ghzqss

    return {**os.environ, "PYTHONPATH": str(Path(ghzqss.__file__).resolve().parents[1])}


@functools.cache
def _imported_by(*args):
    """Run ``python -X importtime args`` on this checkout's package and
    return the top-level names of the modules it imported."""
    child = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=_checkout_env(), capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    modules = [line.rsplit("|", 1)[-1].strip() for line in child.stderr.splitlines() if line.startswith("import time:")]
    # The log was read: every caller loads the harness, so an absence below means something.
    assert "ghzqss.harness" in modules
    return {module.split(".")[0] for module in modules}


def _imported_packages(*argv):
    """The top-level modules ``python -m ghzqss argv`` imports."""
    return _imported_by("-m", "ghzqss", *argv)


STARTUP_ARGV = [("--version",), ("trace", "--bits", "10110", "--attack", "cnot-ancilla", "--format", "json"), ("verify",)]
RUN_ARGV = ("run", "--bits-count", "4", "--trials", "3")


def _packed(n_bits, trials):
    """Whether ``run_experiment``'s rule gives a run of this size to the packed engine."""
    return trials * (n_bits + harness._TRIAL_ROUNDS) <= harness._PACKED_ROUNDS


@pytest.mark.parametrize("argv", STARTUP_ARGV, ids=["version", "trace", "verify"])
def test_trace_verify_and_version_never_import_numpy(argv):
    assert "numpy" not in _imported_packages(*argv)


def test_building_every_transition_table_never_imports_numpy():
    build = (
        "from ghzqss.adversary import AttackKind\n"
        "from ghzqss.harness import _minimal_machine\n"
        "for kind in AttackKind:\n"
        "    _minimal_machine(kind)\n"
    )
    assert "numpy" not in _imported_by("-c", build)


def test_run_imports_numpy():
    # The guards above and below can only fail if numpy shows up in the log
    # when it is imported: a run above the rule, which the numpy engine plays.
    assert not _packed(256, 1024)
    assert "numpy" in _imported_packages("run", "--bits-count", "256", "--trials", "1024", "--attack", "cnot-ancilla")


def test_a_run_just_below_the_rule_never_imports_numpy():
    trials = harness._PACKED_ROUNDS // (16 + harness._TRIAL_ROUNDS)
    assert _packed(16, trials) and not _packed(16, trials + 1)
    assert "numpy" not in _imported_packages("run", "--bits-count", "16", "--trials", str(trials), "--attack", "cnot-ancilla")


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
def test_a_run_whose_outputs_cannot_vary_never_imports_numpy(fmt):
    assert "numpy" not in _imported_packages(*RUN_ARGV, "--attack", "none", "--format", fmt)


def test_version_never_imports_textwrap():
    assert "textwrap" not in _imported_packages("--version")


def test_help_imports_textwrap():
    # The positive control: the guard above can only fail if textwrap shows up in the log.
    assert "textwrap" in _imported_packages("--help")


@pytest.mark.parametrize("argv", STARTUP_ARGV, ids=["version", "trace", "verify"])
def test_trace_verify_and_version_import_neither_dataclasses_nor_fractions(argv):
    assert not {"dataclasses", "fractions"} & _imported_packages(*argv)


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
def test_no_run_format_imports_csv(fmt):
    assert "csv" not in _imported_packages(*RUN_ARGV, "--format", fmt)


def test_the_import_log_shows_csv_when_it_is_imported():
    # The positive control: the guard above can only fail if csv shows up in the log.
    assert "csv" in _imported_by("-c", "import csv, ghzqss.harness")


# --- output streams -------------------------------------------------------------


_PIPE_BITS = "".join(random.Random(1).choice("01") for _ in range(4000))


@pytest.mark.parametrize(
    "argv, head",
    [
        (["run", "--format", "csv", "--trials", "200000"], b"trial_index,"),
        (["trace", "--bits", _PIPE_BITS, "--format", "text"], b"bits: "),
        (["trace", "--bits", _PIPE_BITS, "--format", "json"], b"{"),
    ],
    ids=["run-csv", "trace-text", "trace-json"],
)
def test_a_reader_closing_stdout_ends_the_run_with_141_and_no_traceback(argv, head):
    # 200000 CSV rows, or a 4000-bit trace, are megabytes, far more than a
    # pipe buffers.
    with subprocess.Popen(
        [sys.executable, "-m", "ghzqss", *argv],
        env=_checkout_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as child:
        assert child.stdout.read(len(head)) == head
        child.stdout.close()
        stderr = child.stderr.read()
        assert (child.wait(timeout=120), stderr) == (141, b"")


def _child_exit(*args, closed_stdout=True, unbuffered=False):
    """Run ``python args`` on this checkout's package, with ``PYTHONUNBUFFERED``
    set only if ``unbuffered`` and stdout a pipe whose reader closed before the
    child started (``/dev/null`` unless ``closed_stdout``); return its exit
    code and stderr."""
    env = {key: value for key, value in _checkout_env().items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, *args], env=env, stdout=write_end if closed_stdout else subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    return child.returncode, child.stderr


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (("run", "--format", "json", "--trials", "100"), False),
        (("run", "--format", "json", "--trials", "100"), True),
        (("run", "--format", "csv", "--trials", "10"), False),
        (("trace", "--bits", "101"), False),
        (("verify",), False),
        (("--version",), False),
        (("--help",), False),
        (("run", "--help"), False),
        # argparse drops a failed write of help or version, which left these at 0.
        (("--version",), True),
        (("--help",), True),
        (("run", "--help"), True),
    ],
    ids=[
        "run-json", "run-json-unbuffered", "run-csv", "trace", "verify", "version", "help", "run-help",
        "version-unbuffered", "help-unbuffered", "run-help-unbuffered",
    ],
)
def test_a_reader_closing_stdout_before_a_small_output_is_flushed_ends_with_141(argv, unbuffered):
    # Each output fits in stdout's buffer, so buffered, the write that fails is the flush.
    assert _child_exit("-m", "ghzqss", *argv, unbuffered=unbuffered) == (141, b"")


# --- process exit ---------------------------------------------------------------


# Starts the package as ``python -m ghzqss`` does, after an atexit hook that
# reports the freeze count; atexit runs before the interpreter's finalization.
_FREEZE_PROBE = (
    "import atexit, gc, os, runpy\n"
    "atexit.register(lambda: os.write(2, b'frozen %d' % gc.get_freeze_count()))\n"
    "runpy.run_module('ghzqss', run_name='__main__')\n"
)


@pytest.mark.parametrize(
    "argv, closed_stdout, code",
    [
        (RUN_ARGV, False, 0),
        (("trace", "--bits", "101"), False, 0),
        (("verify",), False, 0),
        (("verify", "--inject-sign-fault"), False, 1),
        (("run", "--trials", "0"), False, 2),
        (("--version",), False, 0),
        (("verify",), True, 141),
    ],
    ids=["run", "trace", "verify", "verify-fault", "usage-error", "version", "closed-stdout"],
)
def test_every_exit_of_the_process_freezes_the_heap_first(argv, closed_stdout, code):
    status, stderr = _child_exit("-c", _FREEZE_PROBE, *argv, closed_stdout=closed_stdout)
    frozen = stderr.rpartition(b"frozen ")[2]
    assert status == code and frozen.isdigit() and int(frozen) > 0, stderr[-2000:]


def test_main_leaves_the_heap_unfrozen(capsys):
    # In-process callers call main many times and must keep collecting.
    before = gc.get_freeze_count()
    for argv in (RUN_ARGV, ("trace", "--bits", "101"), ("verify",)):
        assert main(list(argv)) == 0
    assert gc.get_freeze_count() == before


class _CountingSink:
    """A stdout that counts what is written to it and keeps none of it."""

    size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("attack", ["none", "intercept-resend", "cnot-ancilla"])
def test_json_trace_peak_memory_is_below_its_output_size(monkeypatch, attack):
    import tracemalloc

    rng = random.Random(4096)
    bits = "".join(rng.choice("01") for _ in range(1024))
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["trace", "--bits", bits, "--attack", attack, "--format", "json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak < sink.size


@pytest.mark.parametrize("attack", ["none", "intercept-resend", "cnot-ancilla"])
def test_trace_holds_less_than_a_tenth_of_its_output_beyond_its_trial(monkeypatch, attack):
    # The trial itself keeps every round's record, about a fifth of a text
    # trace's output, so the bound is on what a trace holds beyond its trial:
    # its snapshots and their rendering. An untraced trace first fills the op
    # caches and makes argparse's lazy imports, so neither run counts them.
    import tracemalloc

    rng = random.Random(4096)
    bits = "".join(rng.choice("01") for _ in range(1024))
    argv = ["trace", "--bits", bits, "--attack", attack, "--seed", "0", "--format"]
    monkeypatch.setattr(sys, "stdout", _CountingSink())
    assert main([*argv, "text"]) == 0
    config = harness.ExperimentConfig(
        attack=harness.AttackKind.from_name(attack), compare_fraction=0.25, master_seed=0, n_bits=1024, bits=bits
    )
    tracemalloc.start()
    try:
        harness.run_trial(config)
        trial_peak = tracemalloc.get_traced_memory()[1]
        for fmt in ("json", "text"):
            sink = _CountingSink()
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.reset_peak()
            assert main([*argv, fmt]) == 0
            assert tracemalloc.get_traced_memory()[1] - trial_peak < sink.size / 10, fmt
    finally:
        tracemalloc.stop()
