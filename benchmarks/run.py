"""dagcredit benchmark.

Run from the root of a dagcredit checkout:

    python3 benchmarks/run.py --workload backtest-ref [--seed 42] [--seconds 20] [--trace 0]
    python3 benchmarks/run.py      # every workload, one process each

A run is a closed loop with a single caller: set-up (timed in separate
interpreter processes), one warm-up iteration that also counts agent runner
calls, then timed iterations until ``--seconds`` have passed, and at least
``MIN_ITERATIONS``. Every iteration's outputs are checked. Times are in
reference seconds (see ``speed.py``), so that runs on a host whose speed
drifts can be compared. With ``--trace 1`` the run alternates traced and
untraced iterations and reports per-layer metrics from the traced ones instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. For every workload
at once, the metric names are prefixed with ``<workload>.``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads

DEFAULT_SECONDS = 20
MIN_ITERATIONS = 3
SETUP_REPEATS = 15
PACKAGE_MODULES = ("agents", "backtest", "cli", "coalitions", "config", "graph", "optimizer", "shapley")

# Times ``import dagcredit`` (plus the workload's entry module) and input
# generation in a fresh interpreter, in reference seconds; the benchmark's own
# modules are imported before the clock starts.
SETUP_PROBE = """
import importlib, sys
src, bench, name, seed, run_dir = sys.argv[1:]
sys.path[:0] = [src, bench]
import speed, workloads
workload = workloads.WORKLOADS[name]
with speed.Clock(interval=0.01) as clock:
    importlib.import_module("dagcredit")
    importlib.import_module(workload.entry)
    workload.make_input(int(seed), run_dir)
print(clock.seconds)
"""


def package_modules() -> dict:
    """dagcredit's modules by short name; the package must be importable."""
    import dagcredit  # noqa: F401  (imports every module but the CLI)
    import dagcredit.cli  # noqa: F401

    return {m: sys.modules[f"dagcredit.{m}"] for m in PACKAGE_MODULES}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, root: Path, workload, seed: int) -> None:
        self.modules = package_modules()
        src = (root / "src").resolve()
        package = Path(self.modules["graph"].__file__).resolve()
        if src not in package.parents:
            raise SystemExit(f"error: dagcredit imported from {package.parent}, not {src}")
        self.root = root
        self.workload = workload
        self.seed = seed
        self.bench_out = root / ".bench_out"
        self.bench_out.mkdir(exist_ok=True)
        self.run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=self.bench_out))
        self.input = workload.make_input(seed, self.run_dir)
        self.check = workloads.OutputCheck(workload, seed)
        self.attempted = 0
        self.failed = 0

    def iteration(self, wrap=None, after=None) -> speed.Clock | None:
        """One timed program call plus its output check; the call's clock,
        or None when the call raised or its outputs are wrong.
        ``after`` sees the output directory before it is removed."""
        self.attempted += 1
        out_dir = Path(tempfile.mkdtemp(prefix="out-", dir=self.run_dir))
        # Start each iteration from the same heap state, so that a cyclic
        # collection left over from the last one is not timed in this one.
        gc.collect()
        try:
            call = self.workload.prepare(self.modules, self.input, out_dir)
            if wrap is not None:
                call = wrap(call)
            with speed.Clock() as clock:
                result = call()
            problems = self.check(result, out_dir)
            if after is not None:
                after(out_dir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems = ["raised"]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            return None
        return clock

    def setup_times(self) -> list[float]:
        out = []
        for _ in range(SETUP_REPEATS):
            probe = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, str(self.root / "src"),
                 str(workloads.BENCH_DIR), self.workload.name, str(self.seed), str(self.run_dir)],
                capture_output=True, text=True, timeout=120, check=True,
            )
            out.append(float(probe.stdout.strip().splitlines()[-1]))
        return out

    def counted_warm_up(self) -> int:
        """Untimed first iteration, with the agent runners counting calls."""
        counter = tracing.CallCounter()
        with tracing.patched(self.modules, counter.hooks()):
            ok = self.iteration() is not None
        if ok and not 0 < counter.calls <= self.workload.max_executions:
            self.failed += 1
            print(
                f"check failed: {counter.calls} agent executions, "
                f"at most {self.workload.max_executions} expected",
                file=sys.stderr,
            )
        return counter.calls

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def end_to_end(run: Run, seconds: float) -> dict:
    setup = run.setup_times()
    executions = run.counted_warm_up()
    rates: list[float] = []
    wall_rates: list[float] = []
    speeds: list[float] = []
    start = time.perf_counter()
    last = 0.0
    while (time.perf_counter() - start + last <= seconds
           or len(rates) < MIN_ITERATIONS and run.failed < MIN_ITERATIONS):
        clock = run.iteration()
        if clock is None:
            if run.attempted > 3 and not rates:
                break
            continue
        last = clock.wall
        rates.append(run.workload.episodes / clock.seconds)
        wall_rates.append(run.workload.episodes / clock.wall)
        speeds.append(clock.speed)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    q1, med, q3 = quartiles(rates) if rates else (0.0, 0.0, 0.0)
    s1, smed, s3 = quartiles(setup)
    print(f"{'episodes_per_s':<18} {med:>12.4f} 1/s    median of {len(rates)} iterations "
          f"(q1 {q1:.4f}, q3 {q3:.4f})")
    if rates:
        print(f"{'':<18} {statistics.median(wall_rates):>12.4f} 1/s    the same in wall time; "
              f"host speed {statistics.median(speeds):.3f} of the reference")
    print(f"{'agent_executions':<18} {executions:>12d} count  per iteration (warm-up iteration)")
    print(f"{'setup_s':<18} {smed:>12.4f} s      median of {len(setup)} fresh interpreters "
          f"(q1 {s1:.4f}, q3 {s3:.4f})")
    print(f"{'peak_rss_mb':<18} {peak:>12.1f} MiB    whole benchmark process")
    return {
        "episodes_per_s": {"value": med, "unit": "1/s"},
        "agent_executions": {"value": executions, "unit": "count"},
        "setup_s": {"value": smed, "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MiB"},
    }


def per_layer(run: Run, seconds: float) -> dict:
    run.iteration()  # warm-up
    samples: dict[str, list[float]] = {}
    absent_hooks: list[str] = []
    last_tracer = None
    pair = 0.0
    start = time.perf_counter()
    while last_tracer is None or time.perf_counter() - start + pair <= seconds:
        pair_start = time.perf_counter()
        tracer = tracing.Tracer()
        measured = {}

        def after(out_dir: Path) -> None:
            measured.update(tracing.layer_metrics(tracer.spans))
            measured["backtest.report_bytes"] = (
                dir_bytes(out_dir) if measured["backtest.report_write_s"] is not None else None
            )

        with tracing.patched(run.modules, tracer.hooks()) as absent_hooks:
            traced = run.iteration(
                wrap=lambda fn: tracer.wrap("bench.iteration", tracing.ROOT_KIND, fn), after=after
            )
        untraced = run.iteration()
        pair = time.perf_counter() - pair_start
        last_tracer = tracer
        if traced is None or untraced is None:
            if run.attempted > 6 and not samples:
                break
            continue
        replayed = measured["shapley.replay_executions"] or 0
        if measured["shapley.agent_executions"] is not None and (
            measured["agents.calls"] != measured["shapley.agent_executions"] + replayed
        ):
            run.failed += 1
            print(f"check failed: {measured['agents.calls']} runner calls, but the engines "
                  f"report {measured['shapley.agent_executions']} + {replayed}", file=sys.stderr)
        measured["trace.overhead_ratio"] = traced.seconds / untraced.seconds
        for name, value in measured.items():
            samples.setdefault(name, [])
            if value is not None:
                samples[name].append(value)

    trace_path = run.bench_out / f"trace-{run.workload.name}.jsonl"
    if last_tracer is not None:
        last_tracer.write_jsonl(trace_path)
    metrics = {}
    absent = []
    pairs = len(samples.get("trace.overhead_ratio", []))
    for name, values in sorted(samples.items()):
        if not values:
            absent.append(name)
        value = statistics.median(values) if values else 0
        metrics[name] = {"value": value, "unit": unit_of(name)}
        print(f"{name:<28} {value:>14.6g} {unit_of(name):<6} "
              + ("absent" if not values else f"median of {len(values)}"))
    uncovered = metrics.get("trace.uncovered_s", {}).get("value", 0.0)
    print(f"traced pairs: {pairs}; wall time no layer span covers: {uncovered:.4f} s per iteration")
    print(f"absent metrics: {', '.join(absent) or 'none'}")
    print(f"absent hooks: {', '.join(absent_hooks) or 'none'}")
    print(f"spans of the last traced iteration: {trace_path}")
    return metrics


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a process of its own, then one combined result line."""
    worst = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ], stdout=subprocess.PIPE, text=True)
        print(child.stdout, end="", flush=True)
        worst = max(worst, child.returncode)
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            return worst
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dagcredit" / "__init__.py").is_file():
        print("error: run from the root of a dagcredit checkout (no src/dagcredit here)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(root / "src"))

    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  pid {os.getpid()}")
    run = Run(root, workload, args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(run, args.seconds)
    finally:
        run.close()
    correct = run.failed == 0
    print(f"checks: {run.attempted - run.failed} of {run.attempted} iterations passed")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
