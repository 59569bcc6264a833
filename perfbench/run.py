"""The lnd benchmark: seeded corpora, verdict-checked, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's corpus from the seed (perfbench/gen.py), checks
that `lnd parse` accepts it, and runs it in fresh worker processes
(perfbench/worker.py), each a `runner.run` of the corpus with a timer
around every directive dispatch.  No directive has a time limit.  Every
verdict is compared with the answer known from the construction, and the
report of the first timed process must be byte-identical to the stdout of
`lnd check` (`lnd report` for breadth) on the same corpus and seed.

With --trace 0 the end-to-end metrics are measured: one timed process
runs the whole corpus, then more timed processes, which skip the
directives that took over SLOW_S in the first, and set-up-only processes
repeat while there is time, and `lnd check|report` runs the whole corpus
last, all within about S seconds.  Each time is the fastest of its
repetitions (see end_to_end).
With --trace 1 `lnd check|report` and one traced process run
(perfbench/spans.py); the traced report must equal the CLI's stdout byte
for byte, and the per-layer metrics are printed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The run-environment record and every
metric, with its unit and sample count, are printed before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
DECIDED_WITHIN_S = 1.0
# Directives slower than this run twice per run, in the first timed process
# and in `lnd check`; the later processes, which only add latency samples of
# the other directives, skip them.  At the seed commit this is one pair of
# the irreducibility corpus, at 17-21 s, so the latency samples of its other
# 119 directives can be repeated several times within a run.
SLOW_S = 2.0
SETUP_REPEATS = 5
# Timed processes per run, at least: the whole-corpus one and seven more.  A
# fixed floor keeps the latency samples per directive from shrinking when a
# slow phase of the machine makes the two whole-corpus runs take longer.
MIN_PASSES = 8
PROCESS_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark could not run the program at all."""


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "commit": commit,
    }


def _lnd_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli(args: list[str]) -> tuple[int, str]:
    """Run the real `lnd` command line and return (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "lnd.cli", *args], cwd=ROOT, env=_lnd_env(),
        capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
    )
    if proc.stderr.strip():
        raise BenchError(f"lnd {args[0]} wrote to stderr: {proc.stderr.strip()[-500:]}")
    return proc.returncode, proc.stdout


def worker(corpus: Path, seed: int, full: bool, tag: str, *extra: str) -> dict:
    """One fresh worker process; returns its result plus wall time and report."""
    result_path = WORK / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(corpus),
           "--seed", str(seed), "--result", str(result_path), *extra]
    if full:
        cmd.append("--full")
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    wall = time.perf_counter() - started
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["wall_s"] = wall
    result["report"] = proc.stdout
    return result


def count_failures(result: dict, expected: list[str]) -> int:
    """Verdicts that differ from the known answer; ERRORs and missing or
    extra entries (a definition that failed to build) count too.  Only the
    directives the process skipped (no latency) are not compared."""
    verdicts = result["verdicts"]
    if len(verdicts) != len(expected):
        return max(len(expected), 1)
    return sum(
        1 for got, want, t in zip(verdicts, expected, result["latencies_s"])
        if t is not None and got != want
    )


def quantile(values: list[float], q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def run_cli(workload: str, corpus: Path, seed: int, report: str,
            problems: list[str]) -> float:
    """`lnd parse` accepts the corpus, and `lnd check|report` on the whole
    corpus prints exactly `report`.  Returns the wall time of `lnd
    check|report`."""
    code, out = cli(["parse", str(corpus)])
    if code != 0 or not out.startswith("ok: "):
        problems.append(f"lnd parse rejected the corpus: {out.strip()}")
    command = "report" if workload == "breadth" else "check"
    started = time.perf_counter()
    _, out = cli([command, str(corpus), "--seed", str(seed)])
    wall = time.perf_counter() - started
    if out != report:
        problems.append(f"worker report differs from `lnd {command}` stdout")
    return wall


def end_to_end(workload: str, seed: int, seconds: float, corpus: Path,
               expected: list[str], problems: list[str]) -> tuple[dict, int, int]:
    """Interference from other tenants of the machine only ever adds time,
    and comes in phases of tens of seconds to minutes that slow lnd by up to
    2x.  A run's median then depends on how much of the run fell into a slow
    phase, while the fastest repetition stays steadier.  So every time is the fastest of the
    run's repetitions: per whole-corpus process for wall_s and checks_per_s,
    per process for setup_s, and per directive (over the timed processes)
    for the latency metrics."""
    full = workload == "breadth"
    begin = time.perf_counter()
    passes = [worker(corpus, seed, full, "pass0")]
    slow = [i for i, t in enumerate(passes[0]["latencies_s"]) if t > SLOW_S]
    skip = ("--skip", ",".join(map(str, slow)))
    # `lnd check|report` runs last, so that the run's two timings of the whole
    # corpus lie apart in time; its time, about pass0's, is kept free for it.
    # The set-up-only processes are spread between the timed ones.
    setups: list[float] = []
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - begin + min(p["wall_s"] for p in passes[1:])
        + passes[0]["wall_s"] <= seconds
    ):
        if len(setups) < SETUP_REPEATS:
            setups.append(worker(corpus, seed, full, f"setup{len(setups)}",
                                 "--setup-only")["setup_s"])
        passes.append(worker(corpus, seed, full, f"pass{len(passes)}", *skip))
    cli_wall = run_cli(workload, corpus, seed, passes[0]["report"], problems)
    whole = passes if not slow else passes[:1]
    walls = [p["wall_s"] for p in whole] + [cli_wall]

    failed = sum(count_failures(p, expected) for p in passes)
    attempted = len(expected) + (len(passes) - 1) * (len(expected) - len(slow))
    fastest = [min(t for t in times if t is not None)
               for times in zip(*(p["latencies_s"] for p in passes))]
    rates = [len(p["latencies_s"]) / p["phase_s"] for p in whole]
    metrics = {
        "wall_s": (min(walls), "s"),
        "setup_s": (min(setups + [p["setup_s"] for p in passes]), "s"),
        "checks_per_s": (max(rates), "1/s"),
        "check_p50_ms": (quantile(fastest, 0.5) * 1e3, "ms"),
        "check_p90_ms": (quantile(fastest, 0.9) * 1e3, "ms"),
        "decided_1s_ratio": (sum(t <= DECIDED_WITHIN_S for t in fastest) / len(fastest), "ratio"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in whole) / 1024, "MB"),
    }
    print(f"samples: {len(walls)} whole-corpus processes ({len(whole)} timed, 1 lnd cli), "
          f"{len(setups) + len(passes)} set-ups, {len(fastest)} directive latencies "
          f"(each the fastest of {len(passes)} timed processes, except {len(slow)} "
          f"over {SLOW_S:g} s timed in the first only), slowest directive "
          f"{max(fastest) * 1e3:.1f} ms")
    print(f"failed_ratio {failed / attempted:.6f} ratio ({failed}/{attempted})")
    return metrics, attempted, failed


def per_layer(workload: str, seed: int, corpus: Path,
              expected: list[str], problems: list[str]) -> tuple[dict, int, int]:
    """One traced worker; the untraced reference is `lnd check|report`,
    whose stdout the traced report must equal byte for byte."""
    traced = worker(corpus, seed, workload == "breadth", "traced",
                    "--trace", str(WORK / f"spans-{workload}-{seed}.bin"))
    untraced_wall = run_cli(workload, corpus, seed, traced["report"], problems)
    trace = traced["trace"]
    coverage = trace["directive_total_s"] / traced["phase_s"] if traced["phase_s"] else 1.0
    if not 0.95 <= coverage <= 1.05:
        problems.append(f"directive spans cover {coverage:.3f} of the directive phase")
    found = trace["metrics"]
    metrics = {}
    for name in spans.span_names():
        for field, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s")):
            metrics[f"{name}.{field}"] = (found.get(f"{name}.{field}", 0), unit)
    for name in spans.COUNTS:
        metrics[name] = (found[name], "bits" if name.endswith("bits_max") else "count")
    metrics["runner.errors"] = (traced["verdicts"].count("ERROR"), "count")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / untraced_wall, "ratio")
    print(f"trace: {trace['spans']} spans; directive spans "
          f"{trace['directive_total_s']:.6f} s, {coverage:.4f} of the directive phase")
    return metrics, len(expected), count_failures(traced, expected)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args()

    if not (ROOT / "src" / "lnd" / "__init__.py").is_file():
        print("error: no lnd sources at src/lnd; run from a checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = environment()
    text, expected = gen.generate(options.workload, options.seed)
    corpus = WORK / f"{options.workload}-{options.seed}.corpus"
    corpus.write_text(text, encoding="utf-8")
    print(f"workload {options.workload}: seed {options.seed}, {len(expected)} directives, "
          f"{len(text)} bytes, {expected.count('FAIL')} expected FAIL")
    problems: list[str] = []
    try:
        if options.trace:
            metrics, attempted, failed = per_layer(
                options.workload, options.seed, corpus, expected, problems)
        else:
            metrics, attempted, failed = end_to_end(
                options.workload, options.seed, options.seconds, corpus,
                expected, problems)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_after"] = list(os.getloadavg())
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in problems:
        print(f"problem: {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
