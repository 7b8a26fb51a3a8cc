"""Command-line front end.

Subcommands:

- ``run``: Monte Carlo experiment, reported as pretty text, JSON (aggregate
  plus config echo), or CSV (one row per trial, written chunk by chunk).
- ``trace``: single run over a fixed bit sequence with labeled state
  snapshots at every protocol stage.
- ``verify``: golden-state checks of the simulator against the hand-coded
  attack scenario states.

Exit codes: 0 success, 1 verification failure, 2 usage error. Results go to
stdout only. When ``--seed`` is omitted, the ``GHZQSS_SEED`` environment
variable is consulted before falling back to 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._version import __version__
from .adversary import AttackKind
from .harness import (
    ExperimentConfig,
    aggregate_report_dict,
    run_experiment,
    run_trial,
    verify_golden_states,
)
from .statevector import format_state, state_to_dict

SEED_ENV_VAR = "GHZQSS_SEED"

_ATTACK_NAMES = [kind.value for kind in AttackKind]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzqss",
        description="Simulate a GHZ-carrier quantum secret sharing channel and "
        "measure eavesdropping strategies against it.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte Carlo experiment")
    run.add_argument("--bits-count", type=int, default=16, help="data bits per trial (default 16)")
    run.add_argument("--trials", type=int, default=1000, help="number of trials (default 1000)")
    run.add_argument("--attack", choices=_ATTACK_NAMES, default="none", help="adversary strategy")
    run.add_argument(
        "--compare-fraction",
        type=float,
        default=0.25,
        help="fraction of indices announced in the public comparison (default 0.25)",
    )
    run.add_argument("--seed", type=int, default=None, help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    run.add_argument("--format", choices=["pretty", "json", "csv"], default="pretty")

    trace = sub.add_parser("trace", help="trace one run with per-stage state snapshots")
    trace.add_argument("--bits", required=True, help="bit sequence to transmit, e.g. 1011")
    trace.add_argument("--attack", choices=_ATTACK_NAMES, default="none", help="adversary strategy")
    trace.add_argument("--seed", type=int, default=None, help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    trace.add_argument(
        "--compare-fraction",
        type=float,
        default=0.25,
        help="fraction of indices announced in the public comparison (default 0.25)",
    )
    trace.add_argument("--format", choices=["text", "json"], default="text")

    verify = sub.add_parser("verify", help="check the simulator against the golden scenario states")
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.add_argument("--inject-sign-fault", action="store_true", help=argparse.SUPPRESS)

    return parser


def _resolve_seed(parser: argparse.ArgumentParser, seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        parser.error(f"environment variable {SEED_ENV_VAR}={env!r} is not an integer")
        raise AssertionError("unreachable")


def _build_config(args, parser: argparse.ArgumentParser, **fields) -> ExperimentConfig:
    """The config of a ``run`` or ``trace``; a rule it breaks is a usage error."""
    try:
        return ExperimentConfig(
            attack=AttackKind.from_name(args.attack),
            compare_fraction=args.compare_fraction,
            master_seed=_resolve_seed(parser, args.seed),
            **fields,
        )
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")


def _cmd_run(args, parser: argparse.ArgumentParser) -> int:
    config = _build_config(args, parser, n_bits=args.bits_count, trials=args.trials)
    if args.format == "csv":
        import csv  # only CSV output needs it; every other command starts without

        writer = csv.writer(sys.stdout)
        writer.writerow(
            ["trial_index", "detected", "mismatches", "ambiguous", "eve_correct_bits", "eve_known_fraction"]
        )

        def write_rows(indices, detected, mismatches, ambiguous, eve_correct, known_fraction):
            writer.writerows(
                zip(
                    indices.tolist(),
                    detected.astype(int).tolist(),
                    mismatches.tolist(),
                    ambiguous.astype(int).tolist(),
                    eve_correct.tolist(),
                    [f"{fraction:.6f}" for fraction in known_fraction.tolist()],
                )
            )

        run_experiment(config, on_chunk=write_rows)
        return 0
    report = run_experiment(config)
    if args.format == "json":
        print(json.dumps(aggregate_report_dict(config, report), indent=2, sort_keys=True))
    else:
        print(f"attack:                  {config.attack.value}")
        print(f"trials:                  {report.trial_count}")
        print(f"bits per trial:          {config.n_bits} ({config.bits_mode})")
        print(f"compare fraction:        {config.compare_fraction} ({config.compare_count} indices)")
        print(f"master seed:             {config.master_seed}")
        print(f"detection rate:          {report.detection_rate:.6f}")
        print(f"mean eve known fraction: {report.mean_eve_known_fraction:.6f} (non-ambiguous trials)")
        print(f"ambiguous rate:          {report.ambiguous_rate:.6f}")
        hist = ", ".join(f"{k}: {v}" for k, v in report.mismatch_histogram.items())
        print(f"mismatch histogram:      {hist}")
    return 0


def _distinct_renderer(render):
    """``render`` run once per distinct state, keyed on its exact
    ``StateVector.key`` (labels, ``r`` and integer entries).

    Every gate is Clifford, so a trace repeats a few states many times, and
    equal states have equal keys.
    """
    rendered = {}

    def render_once(state):
        key = state.key
        if key not in rendered:
            rendered[key] = render(state)
        return rendered[key]

    return render_once


def _cmd_trace(args, parser: argparse.ArgumentParser) -> int:
    bits = args.bits
    config = _build_config(args, parser, n_bits=len(bits), bits=bits)
    snapshots = []
    result = run_trial(config, trial_index=0, observer=lambda *snapshot: snapshots.append(snapshot))

    if args.format == "json":
        eve = result.eve
        payload = {
            "version": __version__,
            "bits": bits,
            "attack": config.attack.value,
            "seed": config.master_seed,
            "snapshots": None,
            "records": [
                {
                    "round": rec.round_index,
                    "sent": rec.sent,
                    "bob": rec.bob_outcome,
                    "charlie": rec.charlie_outcome,
                    "reconstructed": rec.reconstructed,
                    "consistent": rec.consistent,
                }
                for rec in result.transcript
            ],
            "comparison": {
                "compared_indices": list(result.detection.compared_indices),
                "mismatches": result.detection.mismatches,
                "detected": result.detection.detected,
                "any_odd_index_announced": result.detection.any_odd_index_announced,
            },
            "eve": {
                "measured": {str(k): v for k, v in sorted(eve.measured.items())},
                "inferred_offset": eve.inferred_offset,
                "inferred_bits": None
                if eve.inferred_bits is None
                else {str(k): v for k, v in sorted(eve.inferred_bits.items())},
                "ambiguous": eve.ambiguous,
            },
        }
        # Each distinct state is dumped once; the snapshots are spliced in at
        # the depth and key order json.dumps(payload, indent=2) gives them.
        state_json = _distinct_renderer(
            lambda state: json.dumps(state_to_dict(state), indent=2, sort_keys=True).replace("\n", "\n      ")
        )
        snapshots_json = ",\n    ".join(
            f'{{\n      "round": {k},\n      "stage": {json.dumps(stage)},\n      "state": {state_json(state)}\n    }}'
            for k, stage, state in snapshots
        )
        dump = json.dumps(payload, indent=2, sort_keys=True)
        print(dump.replace('"snapshots": null', f'"snapshots": [\n    {snapshots_json}\n  ]', 1))
        return 0

    state_text = _distinct_renderer(
        lambda state: "\n".join(f"    {line}" for line in format_state(state).splitlines())
    )
    print(f"bits: {bits}  attack: {config.attack.value}  seed: {config.master_seed}")
    print("ket convention: leftmost label = most significant basis bit")
    current: int | None = None
    for k, stage, state in snapshots:
        if k != current:
            current = k
            if k == 0:
                print("\nsetup")
            else:
                parity = "odd" if k % 2 == 1 else "even"
                print(f"\nround {k} ({parity}) sent={result.bits[k - 1]}")
        print(f"  {stage}  [{' '.join(state.labels)}]")
        print(state_text(state))
    print("\nround records")
    for rec in result.transcript:
        print(
            f"  round {rec.round_index}: sent={rec.sent} bob={rec.bob_outcome} "
            f"charlie={rec.charlie_outcome} reconstructed={rec.reconstructed} "
            f"consistent={'yes' if rec.consistent else 'no'}"
        )
    det = result.detection
    print(f"\ncomparison indices: {' '.join(map(str, det.compared_indices))}")
    print(f"mismatches: {det.mismatches}")
    print(f"detected: {'yes' if det.detected else 'no'}")
    if config.attack is AttackKind.CNOT_ANCILLA:
        eve = result.eve
        print(f"eve readouts: {dict(sorted(eve.measured.items()))}")
        if eve.ambiguous:
            first, second = eve.candidates
            print(f"eve inference: ambiguous; candidates {dict(sorted(first.items()))} "
                  f"or {dict(sorted(second.items()))}")
        else:
            print(f"eve inference: offset={eve.inferred_offset} "
                  f"bits={dict(sorted(eve.inferred_bits.items()))}")
    return 0


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    checks = verify_golden_states(inject_sign_fault=args.inject_sign_fault)
    all_passed = all(c.passed for c in checks)
    if args.format == "json":
        payload = {
            "version": __version__,
            "all_passed": all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "max_error": c.max_error, "detail": c.detail}
                for c in checks
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status}  {c.name}  (max error {c.max_error:.2e})"
            if c.detail:
                line += f"  [{c.detail}]"
            print(line)
        print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args, parser)
    if args.command == "trace":
        return _cmd_trace(args, parser)
    return _cmd_verify(args, parser)


if __name__ == "__main__":
    sys.exit(main())
