"""Command-line front end.

Subcommands:

- ``run``: Monte Carlo experiment, reported as pretty text, JSON (aggregate
  plus config echo), or CSV (one row per trial, written chunk by chunk and
  formatted from the engine's four per-trial columns).
- ``trace``: single run over a fixed bit sequence with labeled state
  snapshots at every protocol stage.
- ``verify``: golden-state checks of the simulator against the hand-coded
  attack scenario states.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 stdout
closed by its reader (128 + SIGPIPE). Results go to stdout only. When
``--seed`` is omitted, the ``GHZQSS_SEED`` environment variable is consulted
before falling back to 0.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import os
import sys
from array import array

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


class _Parser(argparse.ArgumentParser):  # argparse drops a failed write to stdout, which main must see
    def _print_message(self, message, file=None):
        if file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


class _Version(argparse.Action):  # argparse's own formats through textwrap, an import --version need not pay
    def __call__(self, parser, namespace, values, option_string=None):
        sys.stdout.write(f"{parser.prog} {__version__}\n")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghzqss",
        description="Simulate a GHZ-carrier quantum secret sharing channel and "
        "measure eavesdropping strategies against it.",
    )
    parser.add_argument(
        "--version", action=_Version, nargs=0, default=argparse.SUPPRESS, help="show program's version number and exit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options run and trace share, each added where its subcommand's usage line lists it.
    attack = dict(choices=[kind.value for kind in AttackKind], default="none", help="adversary strategy")
    fraction = dict(type=float, default=0.25,
                    help="fraction of indices announced in the public comparison (default 0.25)")
    seed = dict(type=int, default=None, help=f"master seed (default: ${SEED_ENV_VAR} or 0)")

    run = sub.add_parser("run", help="run a Monte Carlo experiment")
    run.add_argument("--bits-count", type=int, default=16, help="data bits per trial (default 16)")
    run.add_argument("--trials", type=int, default=1000, help="number of trials (default 1000)")
    run.add_argument("--attack", **attack)
    run.add_argument("--compare-fraction", **fraction)
    run.add_argument("--seed", **seed)
    run.add_argument("--format", choices=["pretty", "json", "csv"], default="pretty")
    run.set_defaults(handler=_cmd_run, parser=run)

    trace = sub.add_parser("trace", help="trace one run with per-stage state snapshots")
    trace.add_argument("--bits", required=True, help="bit sequence to transmit, e.g. 1011")
    trace.add_argument("--attack", **attack)
    trace.add_argument("--seed", **seed)
    trace.add_argument("--compare-fraction", **fraction)
    trace.add_argument("--format", choices=["text", "json"], default="text")
    trace.set_defaults(handler=_cmd_trace, parser=trace)

    verify = sub.add_parser("verify", help="check the simulator against the golden scenario states")
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.add_argument("--inject-sign-fault", action="store_true", help=argparse.SUPPRESS)
    verify.set_defaults(handler=_cmd_verify, parser=verify)

    return parser


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"environment variable {SEED_ENV_VAR}={env!r} is not an integer")


def _build_config(args, **fields) -> ExperimentConfig:
    """The config of a ``run`` or ``trace``; a rule it breaks is a usage error."""
    try:
        return ExperimentConfig(
            attack=AttackKind.from_name(args.attack),
            compare_fraction=args.compare_fraction,
            master_seed=_resolve_seed(args.seed),
            **fields,
        )
    except ValueError as exc:
        args.parser.error(str(exc))
        raise AssertionError("unreachable")


def _cmd_run(args) -> int:
    config = _build_config(args, n_bits=args.bits_count, trials=args.trials)
    if args.format == "csv":
        n = config.n_bits
        sys.stdout.write("trial_index,detected,mismatches,ambiguous,eve_correct_bits,eve_known_fraction\r\n")

        def write_rows(indices, mismatches, ambiguous, eve_correct):
            sys.stdout.writelines(
                f"{i},{int(m > 0)},{m},{int(a)},{e},{e / n:.6f}\r\n"
                for i, m, a, e in zip(indices, mismatches, ambiguous, eve_correct)
            )

        run_experiment(config, on_chunk=write_rows)
        return 0
    report = run_experiment(config)
    if args.format == "json":
        print(json.dumps(aggregate_report_dict(config, report), indent=2, sort_keys=True))
    else:
        print(f"attack:                  {config.attack.value}")
        print(f"trials:                  {config.trials}")
        print(f"bits per trial:          {config.n_bits} ({config.bits_mode})")
        print(f"compare fraction:        {config.compare_fraction} ({config.compare_count} indices)")
        print(f"master seed:             {config.master_seed}")
        print(f"detection rate:          {report.detection_rate:.6f}")
        print(f"mean eve known fraction: {report.mean_eve_known_fraction:.6f} (non-ambiguous trials)")
        print(f"ambiguous rate:          {report.ambiguous_rate:.6f}")
        hist = ", ".join(f"{k}: {v}" for k, v in report.mismatch_histogram.items())
        print(f"mismatch histogram:      {hist}")
    return 0


def _state_json(state) -> str:  # 2.7x as fast as json.dumps on a 256-bit intercept-resend trace
    """``state_to_dict(state)`` as ``json.dumps(..., indent=2, sort_keys=True)``
    renders it in a snapshot; its labels and ket strings need no escaping."""
    d = state_to_dict(state)
    labels = ",".join(f'\n          "{label}"' for label in d["labels"])
    terms = ",".join(
        f'\n          [\n            "{bits}",\n            {re!r},\n            {im!r}\n          ]'
        for bits, re, im in d["terms"]
    )
    return (
        f'{{\n        "labels": [{labels}\n        ],\n        "msb_first": {json.dumps(d["msb_first"])},'
        f'\n        "terms": [{terms}\n        ]\n      }}'
    )


def _write_batches(texts) -> None:
    # A few dozen pieces per write: fewer, larger writes than stdout's 8 KiB
    # buffer makes, while a batch stays a small part of a long trace's memory.
    while batch := "".join(itertools.islice(texts, 32)):
        sys.stdout.write(batch)


def _cmd_trace(args) -> int:
    bits = args.bits
    config = _build_config(args, n_bits=len(bits), bits=bits)
    if args.format == "json":
        # Each snapshot is two small ints: its round and the id of its (stage, state) pair, rendered once.
        pairs, rounds, pair_ids = {}, array("I"), array("I")

        def keep(k, stage, state):
            rounds.append(k)
            pair_ids.append(pairs.setdefault((stage, state), len(pairs)))

        result = run_trial(config, trial_index=0, observer=keep)
        det, eve = result.detection, result.eve
        # Round keys as str, as json.loads gives them and the trace sorts them ("11" < "3"); ints sort as numbers.
        measured, inferred = eve.measured, eve.inferred_bits
        head, rest = json.dumps({
            "version": __version__, "bits": bits, "attack": config.attack.value, "seed": config.master_seed,
            "records": None, "snapshots": None,  # written below, in batches
            "comparison": {**det._asdict(), "any_odd_index_announced": any(i % 2 for i in det.compared_indices)},
            "eve": {
                "measured": {str(k): v for k, v in measured.items()}, "inferred_offset": eve.inferred_offset,
                "inferred_bits": inferred and {str(k): v for k, v in inferred.items()}, "ambiguous": eve.ambiguous,
            },
        }, indent=2, sort_keys=True).split('"records": null', 1)
        middle, tail = rest.split('"snapshots": null', 1)
        sys.stdout.write(f'{head}"records": [')
        _write_batches(
            f'{"," if i else ""}\n    {{\n      "bob": {rec.bob_outcome},\n      "charlie": {rec.charlie_outcome},\n'
            f'      "consistent": {"true" if rec.consistent else "false"},\n'
            f'      "reconstructed": {rec.reconstructed},\n'
            f'      "round": {rec.round_index},\n      "sent": {rec.sent}\n    }}'
            for i, rec in enumerate(result.transcript)
        )
        sys.stdout.write(f'\n  ]{middle}"snapshots": [')
        pair_json = [f'"stage": {json.dumps(stage)},\n      "state": {_state_json(state)}' for stage, state in pairs]
        _write_batches(
            f'{"," if i else ""}\n    {{\n      "round": {k},\n      {pair_json[p]}\n    }}'
            for i, (k, p) in enumerate(zip(rounds, pair_ids))
        )
        sys.stdout.write(f"\n  ]{tail}\n")
        return 0

    # Text is printed as run_trial emits each snapshot.
    print(f"bits: {bits}  attack: {config.attack.value}  seed: {config.master_seed}")
    print("ket convention: leftmost label = most significant basis bit")
    state_text = functools.cache(lambda state: "".join(f"    {line}\n" for line in format_state(state).splitlines()))
    current = None

    def show(k, stage, state):
        nonlocal current
        if k != current:
            current = k
            print("\nsetup" if k == 0 else f"\nround {k} ({'odd' if k % 2 else 'even'}) sent={bits[k - 1]}")
        sys.stdout.write(f"  {stage}  [{' '.join(state.labels)}]\n{state_text(state)}")

    result = run_trial(config, trial_index=0, observer=show)
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
    eve = result.eve
    if eve.ambiguous or eve.inferred_offset is not None:  # Eve inferred, or tried to
        print(f"eve readouts: {dict(sorted(eve.measured.items()))}")
        if eve.ambiguous:
            first, second = eve.candidates
            print(f"eve inference: ambiguous; candidates {dict(sorted(first.items()))} "
                  f"or {dict(sorted(second.items()))}")
        else:
            print(f"eve inference: offset={eve.inferred_offset} "
                  f"bits={dict(sorted(eve.inferred_bits.items()))}")
    return 0


def _cmd_verify(args) -> int:
    checks = verify_golden_states(inject_sign_fault=args.inject_sign_fault)
    all_passed = all(c.passed for c in checks)
    if args.format == "json":
        payload = {
            "version": __version__,
            "all_passed": all_passed,
            "checks": [c._asdict() for c in checks],
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
    try:
        try:
            args = parser.parse_args(argv)
            return args.handler(args)
        finally:
            sys.stdout.flush()  # here, not at exit, so a small output meets the guard too
    except BrokenPipeError:
        # The reader closed stdout. Point it at /dev/null so the flush at exit
        # stays quiet, and exit as a process killed by SIGPIPE reports.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def console_main() -> int:
    """The process entry: ``main``, then ``gc.freeze()``, so the collections at exit
    skip every object. ``main`` never freezes: in-process callers keep collecting."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console_main())
