"""One fresh lnd process of the benchmark.

Imports lnd from the checkout's `src`, parses the corpus with
`corpus.parse`, runs it with `runner.run` and prints the report exactly as
`lnd check` (or `lnd report` with --full) would.  The only addition is a
timer around each entry of the runner's directive dispatch table.  No
directive is cut short: each runs until it returns its verdict.  --skip
lists directive indices that are not dispatched at all; they get the
verdict SKIPPED and no latency.  Timings go to the JSON file named by
--result.

    python3 perfbench/worker.py CORPUS --seed N --result OUT.json
        [--full] [--setup-only] [--skip I,J,...] [--trace SPANS.bin]
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class SetupDone(BaseException):
    """Stops a set-up-only run at the first directive."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("corpus")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--skip", default="")
    parser.add_argument("--trace", default=None)
    options = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if options.trace:
        from spans import DIRECTIVE_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    from lnd import corpus, runner

    skip = {int(i) for i in options.skip.split(",") if i}
    latencies: list[float | None] = []
    marks: dict[str, float] = {}

    def timed(handler):
        def dispatch(args, rng):
            if options.setup_only:
                marks["first"] = time.perf_counter()
                raise SetupDone
            if len(latencies) in skip:
                latencies.append(None)
                return ("SKIPPED", "not dispatched in this process")
            start = time.perf_counter()
            marks.setdefault("first", start)
            try:
                return handler(args, rng)
            finally:
                end = time.perf_counter()
                latencies.append(end - start)
                marks["last"] = end

        if tracer is not None:
            return tracer.wrap(DIRECTIVE_SPAN, dispatch)
        return dispatch

    for name, handler in list(runner._HANDLERS.items()):
        runner._HANDLERS[name] = timed(handler)

    source = Path(options.corpus).read_text(encoding="utf-8")
    case = corpus.parse(source)
    result: dict = {}
    try:
        report = runner.run(case, seed=options.seed)
    except SetupDone:
        report = None
    if report is not None:
        sys.stdout.write(runner.format_report(report, full=options.full))
        sys.stdout.flush()
        result["verdicts"] = [entry.verdict for entry in report.entries]
        result["directives"] = len(case.directives)
    done = time.perf_counter()
    result.update(
        setup_s=marks.get("first", done) - STARTED,
        phase_s=marks.get("last", done) - marks.get("first", done),
        latencies_s=latencies,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        trace = tracer.aggregate()
        tracer.write(Path(options.trace))
        result["trace"] = trace
    Path(options.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
