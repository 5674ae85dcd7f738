"""Child-process side of the benchmark; `run.py` starts one per use, with
`src` on PYTHONPATH. Modes:

  setup                     print the seconds a fresh `import triality.cli` takes
  timed-cli SPEED_OUT -- ARGV
                            `triality.cli.main(ARGV)` with the speed sampler
                            running; the program's stdout passes through, the
                            exit code is the program's, and the samples and the
                            sampler's time go to SPEED_OUT
  cli TRACE_OUT OP -- ARGV  traced `triality.cli.main(ARGV)`; the program's stdout
                            passes through and the exit code is the program's
  eval-loop SPEC            closed loop of `eval` then `sigma` calls through
                            `triality.cli.main` in this process (SPEC is a JSON file)
  suites SEED OUT           time `build_report(RunConfig(seed=SEED, suite=s))`
                            for each suite s, untraced
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def _setup() -> int:
    start = time.perf_counter()
    import triality.cli  # noqa: F401
    print(repr(time.perf_counter() - start))
    return 0


def _timed_cli(speed_out: str, argv: list[str]) -> int:
    from speed import SpeedSampler

    sampler = SpeedSampler().start()
    try:
        import triality.cli

        return triality.cli.main(argv)
    finally:
        sampler.stop()
        sys.stdout.flush()
        with open(speed_out, "w", encoding="utf-8") as handle:
            json.dump(sampler.to_json(), handle)


def _cli(trace_out: str, op: int, argv: list[str]) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    import triality.cli

    tracer.op = op
    try:
        return tracer.span(f"cli.main.{argv[0]}", triality.cli.main, argv)
    finally:
        sys.stdout.flush()
        tracer.write(trace_out)


def _call_main(main, argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _eval_loop(spec_path: str) -> int:
    """Each op runs `eval --input F --json` then `sigma --input F --json`.

    Runs `count` ops when `count` is set, otherwise ops until `seconds` have
    passed (at least `min_ops`). Outputs are checked later by the parent, so
    the timed region holds only the program's own work. An untraced loop runs
    the speed sampler and takes the sampler's time out of each op's time.
    """
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = None
    if spec["trace_out"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import triality.cli

    sampler = None
    if tracer is None:
        from speed import SpeedSampler

        sampler = SpeedSampler()

    def call(op: int, argv: list[str]) -> tuple[int, str]:
        if tracer is None:
            return _call_main(triality.cli.main, argv)
        tracer.op = op
        return tracer.span(f"cli.main.{argv[0]}", _call_main, triality.cli.main, argv)

    inputs = spec["inputs"]
    ops = 0
    with open(spec["results"], "w", encoding="utf-8") as results:
        if sampler is not None:
            sampler.start()
        started = time.perf_counter()
        while True:
            if spec["count"] is not None:
                if ops >= spec["count"]:
                    break
            elif ops >= spec["min_ops"] and time.perf_counter() - started >= spec["seconds"]:
                break
            index = ops % len(inputs)
            path = inputs[index]
            t0, h0 = time.perf_counter(), sampler.handler_s if sampler else 0.0
            try:
                eval_code, eval_out = call(ops, ["eval", "--input", path, "--json"])
                sigma_code, sigma_out = call(ops, ["sigma", "--input", path, "--json"])
                error = None
            except Exception as exc:  # an exception is a failed op, not a dead run
                eval_code = sigma_code = None
                eval_out = sigma_out = ""
                error = f"{type(exc).__name__}: {exc}"
            t1, h1 = time.perf_counter(), sampler.handler_s if sampler else 0.0
            # one line per op, written as it completes, so that outputs kept
            # for the parent's oracle do not count towards this process's memory
            ms = (t1 - t0 - (h1 - h0)) * 1e3
            results.write(json.dumps({"input": index, "ms": ms, "error": error,
                                      "eval": [eval_code, eval_out],
                                      "sigma": [sigma_code, sigma_out]}) + "\n")
            ops += 1
        elapsed = time.perf_counter() - started
        if sampler is not None:
            sampler.stop()
            elapsed -= sampler.handler_s
        results.write(json.dumps({"elapsed_s": elapsed,
                                  "speed": sampler.to_json() if sampler else None}) + "\n")
    if tracer is not None:
        tracer.write(spec["trace_out"])
    return 0


def _suites(seed: int, out_path: str) -> int:
    from triality.verify import SUITES, RunConfig, build_report, report_passed

    results = {}
    for suite in SUITES:
        t0 = time.perf_counter()
        entries = build_report(RunConfig(seed=seed, suite=suite))
        results[suite] = {"busy_s": time.perf_counter() - t0,
                          "passed": report_passed(entries)}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle)
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        return _setup()
    if mode == "timed-cli":
        return _timed_cli(argv[1], argv[argv.index("--") + 1:])
    if mode == "cli":
        split = argv.index("--")
        return _cli(argv[1], int(argv[2]), argv[split + 1:])
    if mode == "eval-loop":
        return _eval_loop(argv[1])
    if mode == "suites":
        return _suites(int(argv[1]), argv[2])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
