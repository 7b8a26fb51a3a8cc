"""Benchmark of the ``ghzqss`` command line on three fixed workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc-n16-csv --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload as a closed loop with one client: one
``python -m ghzqss ...`` process at a time, each started after the previous
one exits, until the summed wall time of the workload's invocations reaches
``--seconds`` (whole cycles of invocations only). Set-up time is measured
first as the median of several ``python -m ghzqss --version`` runs. Every
output is checked (see ``checks.py``) and a few trials of every ``run`` are
re-run through the single-trial reference outside the timed window.

``--trace 1`` runs the same invocations in this process through
``ghzqss.cli.main`` with spans around the calls between modules (see
``tracing.py``) and reports per-layer numbers, as medians over workload
cycles, plus a tracemalloc pass for the batch engine's peak.

Every input derives from ``--workload`` and ``--seed``. The next-to-last
stdout line is a JSON object of run facts (machine, versions, sample counts,
fail rate); the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True

import checks  # noqa: E402
import tracing  # noqa: E402
from checks import Invocation  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/ghzqss/__init__.py", "src/ghzqss/cli.py", "tests/oracles.py")

ATTACKS = ("none", "intercept-resend", "cnot-ancilla")
#: name -> (n_bits, trials per ``run`` invocation, output format); the
#: trace-verify cycle traces ``n_bits`` seeded bits per attack, then verifies.
WORKLOADS = {
    "mc-n16-csv": (16, 4096, "csv"),
    "mc-n256-json": (256, 1024, "json"),
    "trace-verify": (256, 0, "json"),
}
#: Trials per ``run`` invocation re-run through ``harness.run_trial``.
CROSS_CHECK_SAMPLES = {16: 3, 256: 2}
SETUP_SAMPLES = 11
END_TO_END_UNITS = {"trials_per_s": "1/s", "op_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}
CHILD_TIMEOUT_S = 60.0


def cycle(workload: str, rng: random.Random) -> list[Invocation]:
    """One pass over the workload's invocations, inputs drawn from ``rng``."""
    n_bits, trials, fmt = WORKLOADS[workload]
    if workload == "trace-verify":
        traces = [
            Invocation(
                "trace", attack=a, n_bits=n_bits, seed=rng.getrandbits(32),
                bits=format(rng.getrandbits(n_bits), f"0{n_bits}b"),
            )
            for a in ATTACKS
        ]
        return traces + [Invocation("verify")]
    return [Invocation("run", attack=a, n_bits=n_bits, trials=trials, fmt=fmt, seed=rng.getrandbits(32)) for a in ATTACKS]


@dataclass
class Child:
    wall_s: float
    exit_code: int | None  # None after a timeout
    stdout: str
    stderr: str
    rss_mb: float
    cpu_s: float


def run_child(args: list[str], env: dict) -> Child:
    """Run ``python -m ghzqss <args>`` to completion; time it from start to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "ghzqss", *args], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for stream in (proc.stdout, proc.stderr):
            sel.register(stream, selectors.EVENT_READ)
        deadline = start + CHILD_TIMEOUT_S
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    out, err = (b"".join(chunks[fd]).decode(errors="replace") for fd in (out_fd, err_fd))
    return Child(
        wall, None if timed_out else proc.returncode, out, err, usage.ru_maxrss / 1024.0,
        usage.ru_utime + usage.ru_stime,
    )


class Tally:
    """Attempted and failed invocations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, inv: Invocation, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{' '.join(inv.cli_args())[:120]}: {'; '.join(problems)[:600]}")
        return not problems


def child_problems(child: Child, inv: Invocation, refs: checks.References) -> list[str]:
    if child.exit_code is None:
        return [f"timed out after {CHILD_TIMEOUT_S:g} s"]
    if child.exit_code != 0:
        return [f"exit code {child.exit_code}: {child.stderr.strip()[-300:]}"]
    return checks.check_output(inv, child.stdout, refs)


def timed_run(workload: str, rng: random.Random, seconds: float, refs, tally: Tally):
    from ghzqss import adversary, harness

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    version = Invocation("version")

    def version_wall() -> float:
        child = run_child(version.cli_args(), env)
        tally.record(version, child_problems(child, version, refs))
        return child.wall_s

    version_wall()  # warm-up: byte-compiles the package in a fresh checkout
    setup = [version_wall() for _ in range(SETUP_SAMPLES)]

    walls: list[float] = []
    rss: list[float] = []
    cpu = 0.0
    trials = cycles = cross_checked = 0
    while not cycles or sum(walls) < seconds:
        for inv in cycle(workload, rng):
            child = run_child(inv.cli_args(), env)
            problems = child_problems(child, inv, refs)
            if not problems and inv.op == "run":
                samples = CROSS_CHECK_SAMPLES[inv.n_bits]
                try:
                    problems = checks.cross_engine(inv, child.stdout, harness, adversary, samples)
                except Exception:  # a crash of the reference is a failed check, not the end of the run
                    problems = [traceback.format_exc(limit=3)]
                cross_checked += samples
            if tally.record(inv, problems):
                trials += inv.trial_count
            walls.append(child.wall_s)
            rss.append(child.rss_mb)
            cpu += child.cpu_s
        cycles += 1

    values = {
        "trials_per_s": trials / sum(walls),
        "op_s.p50": statistics.median(walls),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setup),
    }
    facts = {
        "cycles": cycles,
        "invocations": len(walls),
        "trials_completed": trials,
        "cross_checked_trials": cross_checked,
        "trials_per_cpu_s": trials / cpu,
        "wall_s.total": sum(walls),
        "cpu_s.total": cpu,
        "samples": {"trials_per_s": len(walls), "op_s.p50": len(walls), "peak_rss_mb": len(walls), "setup_s": len(setup)},
        "op_s.quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls,
        "setup_s.all": setup,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}, facts


def call_main(main, argv: list[str]) -> tuple[str, list[str]]:
    """Call ``ghzqss.cli.main`` in this process; return stdout and any problems."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed invocation, not the end of the run
        return buf.getvalue(), [traceback.format_exc(limit=3)]
    return buf.getvalue(), [] if code == 0 else [f"exit code {code}"]


def traced_run(workload: str, rng: random.Random, seconds: float, refs, tally: Tally):
    from ghzqss import cli

    start = time.perf_counter()
    recorder = tracing.Recorder()
    per_cycle: list[dict] = []
    traced_wall = 0.0
    with recorder.installed():
        main = recorder.wrap(cli.main, tracing.ROOT)
        while not per_cycle or traced_wall < seconds:
            stdout_bytes = 0
            for inv in cycle(workload, rng):
                text, problems = call_main(main, inv.cli_args())
                stdout_bytes += len(text.encode())
                tally.record(inv, problems or checks.check_output(inv, text, refs))
            spans = recorder.take()
            traced_wall += sum(s.duration for s in spans if s.parent < 0)
            per_cycle.append(tracing.layer_metrics(spans, stdout_bytes))
    metrics = {name: statistics.median(c[name] for c in per_cycle) for name in per_cycle[0]}

    peak_start = time.perf_counter()
    metrics[tracing.PEAK_TRACED] = run_experiment_peak_mb(cli, cycle(workload, rng), refs, tally)
    units = tracing.metric_units()
    facts = {
        "traced_cycles": len(per_cycle),
        "traced_run_wall_s": peak_start - start,
        "tracemalloc_pass_wall_s": time.perf_counter() - peak_start,
        "samples": {name: len(per_cycle) for name in per_cycle[0]} | {tracing.PEAK_TRACED: 1},
    }
    return {name: (metrics[name], units[name][0]) for name in units}, facts


def run_experiment_peak_mb(cli, invocations: list[Invocation], refs, tally: Tally) -> float:
    """Largest tracemalloc peak of one ``run_experiment`` call over one cycle."""
    if not any(inv.op == "run" for inv in invocations):
        return 0.0
    original = cli.run_experiment
    peak = 0

    def measured(*args, **kwargs):
        nonlocal peak
        tracemalloc.reset_peak()
        try:
            return original(*args, **kwargs)
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1])

    cli.run_experiment = measured
    tracemalloc.start()
    try:
        for inv in invocations:
            text, problems = call_main(cli.main, inv.cli_args())
            tally.record(inv, problems or checks.check_output(inv, text, refs))
    finally:
        tracemalloc.stop()
        cli.run_experiment = original
    return peak / 2**20


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over CPUs (Linux)."""
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ghzqss").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; run it from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import ghzqss
    import numpy

    if not Path(ghzqss.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported ghzqss from {ghzqss.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    rng = random.Random(f"{args.workload}/{args.seed}")
    refs = checks.References(ROOT)
    tally = Tally()
    run = traced_run if args.trace else timed_run
    steal_before = machine_steal_s()
    metrics, facts = run(args.workload, rng, args.seconds, refs, tally)
    if steal_before is not None:
        facts["machine_steal_s"] = machine_steal_s() - steal_before

    n_bits = WORKLOADS[args.workload][0]
    exact_m = checks.expected_compare_count(Invocation.compare_fraction, n_bits)
    facts.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trials_per_invocation": WORKLOADS[args.workload][1] or 1,
        "compare_fraction": Invocation.compare_fraction,
        "compare_count": exact_m,
        "compare_count_float_product_agrees": math.ceil(float(Invocation.compare_fraction) * n_bits) == exact_m,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ghzqss": ghzqss.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "fail_rate": tally.failed / tally.attempted,
        "failures": tally.reasons,
    })
    for reason in tally.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
