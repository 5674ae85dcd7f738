"""Benchmark of the triality package, driven from outside through its public
entry points: the `triality` command line (`python -m triality.cli`),
`triality.cli.main` in a long-lived process, and, for the traced run, the
public functions of each module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that has `src/triality`; it needs only
the standard library. Workloads (one closed-loop client, at most one child
process alive at a time):

  verify_default  op = one cold `triality verify --json --seed N` at the default
                  config (100 samples, bound 9): the product, every layer on
                  small integers
  eval_rational   op = `eval --input F --json` then `sigma --input F --json`
                  through `triality.cli.main` in one process; F holds 28
                  coefficients p/q with |p| <= 10^6, 1 <= q <= 10^3
  structure_cold  op = one cold `triality fixed --json` then one cold
                  `triality dump --json`: fixed-locus construction and large
                  JSON output, no invariants

With --trace 0 the run measures for --seconds seconds (at least two ops) and
reports setup_s (median of 20 fresh-interpreter `import triality.cli` times,
half before and half after the ops), ops_per_s, op_ms_p50 and peak_rss_mb (of
the process doing the work; for subprocess ops the largest child). It also
prints op_ms_tail (the highest percentile with at least ten samples beyond
it, when the run has them) and failed_ratio, which the last-line JSON
carries as `failed` / `attempted`. A cold op is a fresh `worker.py timed-cli`
process that calls `triality.cli.main` with the speed sampler running; the
times are scaled to a nominal machine speed measured by that sampler (see
`speed.py`), and the unscaled times and the reference time are printed above
the last line.

With --trace 1 the run does a fixed number of ops untraced and then the same
ops in fresh processes that wrap the functions in `tracer.TARGETS`, so call
counts repeat exactly for a seed. It reports per-layer calls, busy and self
time, `exact.SpanSolver.coords.hit_ratio` (0 when never called), the
per-suite `build_report` times on verify_default and the tracing overhead
(traced minus untraced op_ms_p50). The last line carries the metrics that
are measured on every workload; the full table is printed above it and saved
under `.perfbench_work/`.

Every op's output is checked by `oracles.py`; a rejected output, an exception
or a non-zero exit is a failed op. Negative controls (a corrupted-constant
`verify`, and altered outputs fed to each oracle) must be rejected, or the
run reports `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import oracles
import speed
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"

WORKLOADS = ("verify_default", "eval_rational", "structure_cold")
RUN_LIMIT_S = 170       # no child outlives this, so a run ends inside 180 s
SETUP_PROBES = 20
MIN_OPS = 2             # verify_default compares stdout across ops of a run
EVAL_POOL = 256
TRACED_OPS = {"verify_default": 1, "eval_rational": 30, "structure_cold": 3}

# per-layer metrics in the last-line JSON of a traced run: every call count,
# and the times that are non-zero on every workload
LAYER_TIMES = ("exact.SquareMatrix.__mul__.busy_s", "exact.SquareMatrix.__mul__.self_s",
               "exact.self_s", "so8.self_s", "automorphisms.self_s",
               "cli.main.busy_s", "cli.main.self_s")


class Child(NamedTuple):
    """Result of one child process."""

    code: int
    stdout: str
    seconds: float
    maxrss_kb: int
    speed_ms: tuple = ()    # reference samples taken by a timed child
    handler_s: float = 0.0  # the child's time in the speed sampler, not in `seconds`


class Runner:
    """Starts children one at a time and kills any that would outlive the run."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str]) -> Child:
        with open(WORK / "child.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            reaped = False
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                timer.cancel()
                proc.stdout.close()
                if not reaped:
                    proc.kill()
                    proc.wait()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (WORK / "child.stderr").read_text(errors="replace")[-2000:]
            if tail:
                print(f"child {argv[1:4]} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return Child(proc.returncode, out.decode(), seconds, usage.ru_maxrss)

    def cli(self, args: list[str]) -> Child:
        return self.run([sys.executable, "-m", "triality.cli", *args])

    def timed_cli(self, args: list[str]) -> Child:
        """The CLI with the speed sampler running; its time is taken out of the child's."""
        speed_out = WORK / "speed.json"
        speed_out.unlink(missing_ok=True)
        child = self.run([sys.executable, str(WORKER), "timed-cli", str(speed_out), "--", *args])
        if not speed_out.exists():      # killed at the run limit
            return child
        sampled = json.loads(speed_out.read_text())
        return child._replace(seconds=child.seconds - sampled["handler_s"],
                              speed_ms=tuple(sampled["samples_ms"]),
                              handler_s=sampled["handler_s"])

    def traced_cli(self, args: list[str], trace_out: Path, op: int) -> Child:
        return self.run([sys.executable, str(WORKER), "cli", str(trace_out), str(op),
                         "--", *args])

    def worker(self, *args: str) -> Child:
        return self.run([sys.executable, str(WORKER), *args])

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def closed_loop(do_op, check, runner: Runner, seconds: float,
                count: int | None) -> tuple[list, float]:
    """Run ops back to back: `count` of them, or until `seconds` have passed and
    at least MIN_OPS ran. Stops early rather than start an op that the last
    one's time says would not finish before the run limit. Outputs are checked
    after the loop, so the oracles' work stays out of the measured time, and
    the children's time in the speed sampler is taken out of the elapsed time."""
    ops: list = []
    started = time.perf_counter()
    while True:
        n = len(ops)
        if count is not None:
            if n >= count:
                break
        elif n >= MIN_OPS and time.perf_counter() - started >= seconds:
            break
        if ops and ops[-1]["ms"] / 1e3 > runner.time_left():
            print("stopping early: the next op would pass the run limit", file=sys.stderr)
            break
        ops.append(do_op(n))
    elapsed = time.perf_counter() - started
    for op in ops:
        out = op.pop("out")
        elapsed -= sum(child.handler_s for child in out)
        op["error"] = check(*out)
    return ops, elapsed


# ---------------------------------------------------------------------------
# workloads: run() gives op records with "ms", "rss_kb" and "error" (None when
# the oracle accepts), the measured seconds, and the span files of a traced run;
# an untraced run leaves the speed samples of its ops in `speed_ms`
# ---------------------------------------------------------------------------

class VerifyDefault:
    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        self.seed = seed % 2 ** 31
        self.reference: str | None = None
        self.speed_ms: list[float] = []

    def negative_controls(self) -> list[str]:
        child = self.runner.cli(["verify", "--corrupt-constant", "--json", "--suite", "triality"])
        problems = []
        reason = oracles.check_corrupted_verify(child.code, child.stdout)
        if reason:
            problems.append(f"corrupted-constant verify: {reason}")
        if oracles.check_verify(child.code, child.stdout, self.seed) is None:
            problems.append("verify oracle accepted the corrupted-constant report")
        return problems

    def _check(self, child: Child) -> str | None:
        reason = oracles.check_verify(child.code, child.stdout, self.seed)
        if reason is None:
            if self.reference is None:
                self.reference = child.stdout
            elif child.stdout != self.reference:
                reason = "stdout differs from the first op with the same seed"
        return reason

    def run(self, seconds: float, count: int | None, traced: bool = False):
        args = ["verify", "--json", "--seed", str(self.seed)]
        paths = []

        def op(n):
            if traced:
                paths.append(WORK / f"spans-verify-{n}.json")
                child = self.runner.traced_cli(args, paths[-1], n)
            else:
                child = self.runner.timed_cli(args)
                self.speed_ms += child.speed_ms
            return {"ms": child.seconds * 1e3, "rss_kb": child.maxrss_kb, "out": (child,)}
        return (*closed_loop(op, self._check, self.runner, seconds, count), paths)

    def suites(self) -> dict:
        out = WORK / "suites.json"
        child = self.runner.worker("suites", str(self.seed), str(out))
        suites = json.loads(out.read_text()) if child.code == 0 else {}
        if not suites or not all(r["passed"] for r in suites.values()):
            raise RuntimeError("per-suite build_report run failed")
        return suites


class EvalRational:
    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        rng = random.Random(seed)
        (WORK / "eval").mkdir()
        self.inputs: list[list[str]] = []
        self.paths: list[str] = []
        for k in range(EVAL_POOL):
            coeffs = [str(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3)))
                      for _ in range(28)]
            path = WORK / "eval" / f"element-{k:03d}.json"
            path.write_text(json.dumps({"coeffs": coeffs}))
            self.inputs.append(coeffs)
            self.paths.append(str(path))
        self.good_op: dict | None = None
        self.speed_ms: list[float] = []

    def negative_controls(self) -> list[str]:
        if self.good_op is None:
            return ["no accepted op to alter"]
        record = self.good_op
        altered = oracles.altered_eval_op(record["eval"][1], record["sigma"][1])
        if oracles.check_eval_op(self.inputs[record["input"]], 0, altered[0],
                                 0, altered[1]) is None:
            return ["eval oracle accepted an altered sigma output"]
        return []

    def run(self, seconds: float, count: int | None, traced: bool = False):
        """One worker process runs the whole closed loop and times each op itself."""
        spec = WORK / "eval-spec.json"
        results = WORK / "eval-results.jsonl"
        paths = [WORK / "spans-eval.json"] if traced else []
        spec.write_text(json.dumps({
            "inputs": self.paths, "seconds": seconds, "min_ops": MIN_OPS, "count": count,
            "trace_out": str(paths[0]) if traced else None, "results": str(results)}))
        child = self.runner.worker("eval-loop", str(spec))
        if child.code != 0:
            raise RuntimeError("eval-loop worker failed")
        ops = []
        with open(results, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "elapsed_s" in record:
                    elapsed = record["elapsed_s"]
                    if record["speed"]:
                        self.speed_ms = record["speed"]["samples_ms"]
                    continue
                error = record["error"] or oracles.check_eval_op(
                    self.inputs[record["input"]], *record["eval"], *record["sigma"])
                if error is None and self.good_op is None:
                    self.good_op = record
                ops.append({"ms": record["ms"], "rss_kb": child.maxrss_kb, "error": error})
        return ops, elapsed, paths


class StructureCold:
    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        self.verdicts: dict = {}
        self.good: dict = {}
        self.speed_ms: list[float] = []

    def _check(self, fixed: Child, dump: Child) -> str | None:
        for name, child, check in (("fixed", fixed, oracles.check_fixed),
                                   ("dump", dump, oracles.check_dump)):
            key = (name, child.code, child.stdout)
            if key not in self.verdicts:
                self.verdicts[key] = check(child.code, child.stdout)
            if self.verdicts[key]:
                return f"{name}: {self.verdicts[key]}"
        f, d = json.loads(fixed.stdout), json.loads(dump.stdout)
        if (f["order3_fixed"]["basis_coeffs"] != d["g2_basis"]
                or f["involution_fixed"]["basis_coeffs"] != d["so7_basis"]):
            return "fixed and dump report different bases"
        self.good.setdefault("fixed", fixed.stdout)
        self.good.setdefault("dump", dump.stdout)
        return None

    def negative_controls(self) -> list[str]:
        if not self.good:
            return ["no accepted op to alter"]
        problems = []
        if oracles.check_fixed(0, oracles.altered_fixed(self.good["fixed"])) is None:
            problems.append("fixed oracle accepted a wrong rank")
        if oracles.check_dump(0, oracles.altered_dump(self.good["dump"])) is None:
            problems.append("dump oracle accepted an altered g2 basis")
        return problems

    def run(self, seconds: float, count: int | None, traced: bool = False):
        paths = []

        def op(n):
            children = []
            for command in ("fixed", "dump"):
                if traced:
                    paths.append(WORK / f"spans-{command}-{n}.json")
                    children.append(self.runner.traced_cli([command, "--json"], paths[-1], n))
                else:
                    children.append(self.runner.timed_cli([command, "--json"]))
                    self.speed_ms += children[-1].speed_ms
            return {"ms": sum(c.seconds for c in children) * 1e3,
                    "rss_kb": max(c.maxrss_kb for c in children), "out": children}
        return (*closed_loop(op, self._check, self.runner, seconds, count), paths)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, if above p50."""
    q = int(100 * (1 - 10 / len(values))) if len(values) > 10 else 0
    if q <= 50:
        return None
    return q, statistics.quantiles(values, n=100)[q - 1]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata(args, counts: dict) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "machine": platform.machine(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "samples": counts}


def measure(workload, runner: Runner, seconds: float):
    """Untraced run: (last-line metrics, all printed metrics, sample counts, ops)."""
    def probe() -> float:
        return float(runner.worker("setup").stdout)

    # half the set-up probes run after the ops, so that a burst of load from
    # other tenants of the machine at one end of the run does not set the median
    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    ops, elapsed, _ = workload.run(seconds, None)
    probes += [probe() for _ in range(SETUP_PROBES - len(probes))]
    ms = [op["ms"] for op in ops]
    raw = {
        "setup_s": (statistics.median(probes), "s"),
        "ops_per_s": (len(ops) / elapsed, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
    }
    scale = speed.scale(workload.speed_ms)
    metrics = {
        "setup_s": (raw["setup_s"][0] * scale, "s"),
        "ops_per_s": (raw["ops_per_s"][0] / scale, "1/s"),
        "op_ms_p50": (raw["op_ms_p50"][0] * scale, "ms"),
        "peak_rss_mb": (max(op["rss_kb"] for op in ops) * 1024 / 1e6, "MB"),
    }
    shown = dict(metrics)
    tail = tail_percentile(ms)
    if tail:
        shown[f"op_ms_tail.p{tail[0]}"] = (tail[1] * scale, "ms")
    shown["failed_ratio"] = (sum(1 for op in ops if op["error"]) / len(ops), "ratio")
    for key, (value, unit) in raw.items():
        shown[f"{key}.unscaled"] = (value, unit)
    shown["speed.reference_ms"] = (statistics.median(workload.speed_ms), "ms")
    counts = {"setup_probes": len(probes), "ops": len(ops), "elapsed_s": elapsed,
              "speed_samples": len(workload.speed_ms)}
    return metrics, shown, counts, ops


def measure_traced(workload, name: str):
    """Traced run: (last-line metrics, all printed metrics, sample counts, ops)."""
    count = TRACED_OPS[name]
    plain, _, _ = workload.run(0, count)
    traced, _, paths = workload.run(0, count, traced=True)
    summary = tracing.summarize([json.loads(p.read_text()) for p in paths])
    for target in summary["missing"]:
        print(f"not traced, absent from the package: {target}", file=sys.stderr)
    calls, busy, self_s = summary["calls"], summary["busy_s"], summary["self_s"]
    shown: dict = {}
    for target in tracing.TARGET_NAMES:
        shown[f"{target}.calls"] = (calls.get(target, 0), "count")
        shown[f"{target}.busy_s"] = (busy.get(target, 0.0), "s")
        shown[f"{target}.self_s"] = (self_s.get(target, 0.0), "s")
    coords = "exact.SpanSolver.coords"
    shown[f"{coords}.hit_ratio"] = (
        summary["hits"].get(coords, 0) / calls[coords] if calls.get(coords) else 0.0, "ratio")
    for layer in ("exact", "so8", "automorphisms", "invariants", "octonion"):
        shown[f"{layer}.self_s"] = (sum(v for k, v in self_s.items()
                                        if k.startswith(layer + ".")), "s")
    suites = workload.suites() if name == "verify_default" else {}
    for suite in ("octonion", "so8", "triality", "invariants"):
        shown[f"verify.suite.{suite}.busy_s"] = (suites.get(suite, {}).get("busy_s", 0.0), "s")
    for command in ("verify", "eval", "sigma", "fixed", "dump"):
        span = f"cli.main.{command}"
        shown[f"{span}.busy_s"] = (busy.get(span, 0.0), "s")
        shown[f"{span}.self_s"] = (self_s.get(span, 0.0), "s")
    shown["cli.main.busy_s"] = (sum(v for k, v in busy.items() if k.startswith("cli.main.")), "s")
    shown["cli.main.self_s"] = (sum(v for k, v in self_s.items()
                                    if k.startswith("cli.main.")), "s")
    traced_p50 = statistics.median(op["ms"] for op in traced)
    plain_p50 = statistics.median(op["ms"] for op in plain)
    shown["trace.op_ms_p50"] = (traced_p50, "ms")
    shown["trace.untraced_op_ms_p50"] = (plain_p50, "ms")
    shown["trace.overhead_ms"] = (traced_p50 - plain_p50, "ms")

    metrics = {k: v for k, v in shown.items()
               if k.endswith((".calls", ".hit_ratio")) or k in LAYER_TIMES
               or k.startswith("trace.")}
    counts = {"untraced_ops": len(plain), "traced_ops": len(traced)}
    return metrics, shown, counts, plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "triality" / "cli.py").is_file():
        print(f"error: no triality package under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    runner = Runner()
    workload = {"verify_default": VerifyDefault, "eval_rational": EvalRational,
                "structure_cold": StructureCold}[args.workload](runner, args.seed)
    problems = []
    if isinstance(workload, VerifyDefault):
        problems += workload.negative_controls()   # a subprocess: before timing
    if args.trace:
        metrics, shown, counts, ops = measure_traced(workload, args.workload)
    else:
        metrics, shown, counts, ops = measure(workload, runner, args.seconds)
    if not isinstance(workload, VerifyDefault):
        problems += workload.negative_controls()  # these alter outputs of accepted ops

    failed = [op["error"] for op in ops if op["error"]]
    for reason in sorted(set(failed)):
        print(f"failed op: {reason}", file=sys.stderr)
    for problem in problems:
        print(f"negative control not rejected: {problem}", file=sys.stderr)

    meta = metadata(args, counts)
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items() if k != "samples"))
    print("# samples: " + json.dumps(meta["samples"]))
    for key, (value, unit) in shown.items():
        print(f"{key:56s} {value:>14.6g} {unit}")
    result = {"correct": not failed and not problems, "attempted": len(ops),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    saved = {"meta": meta, "result": result,
             "shown": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}}
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(saved, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
