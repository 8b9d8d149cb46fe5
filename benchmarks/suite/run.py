"""Run the repository benchmark.

One run of one workload (run from the repository root)::

    python3 benchmarks/suite/run.py --workload cold-solve --seed 0 --seconds 20 --trace 0

prints progress and a host stamp on stderr and, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced replay and writes its spans to
``benchmarks/suite/out/``.  The exit code is 0 only when every output
passed the correctness gate.

Other modes::

    run.py --repeat K [--workload W] [--out summary.json]   # K fresh runs each
    run.py --compare old.json new.json                      # two --repeat summaries
    run.py --quick [--workload W]                            # smoke test, all checks
    run.py --workload W --record-golden                      # rewrite W's golden file

See ``benchmarks/suite/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
DEFAULT_SECONDS = 20.0
QUICK_SECONDS = 2.0
#: Set-ups per plain run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A traced in-process phase must spend this share of its wall time in
#: root spans, or layer times would not add up to the end-to-end time.
COVERAGE_TOLERANCE = 0.01

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}
WORKLOAD_LAYERS = (
    "pool.groups_dispatched",
    "pool.jobs_shipped",
    "pool.shm_attached",
    "pool.respawns",
    "pool.degraded_groups",
    "service.requests_total",
    "service.requests_rejected",
    "service.batches_solved",
    "service.jobs_per_batch",
    "service.batches_overlapped",
    "service.jobs_failed",
    "http.warm_p50_ms",
    "http.warm_p90_ms",
    "http.cold_p50_ms",
    "http.p99_ms",
    "dynamics.replans",
    "trace.ops",
    "trace.overhead",
    "trace.wall_s",
    "trace.root_share",
)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name in ("lp.share", "trace.overhead", "trace.root_share"):
        return "ratio"
    return "count"


def _bootstrap() -> None:
    """Make ``repro`` (from ``src/``) and the suite package importable."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    # Import the suite as a package so its trace module never shadows the
    # standard library's; spawned pool workers inherit this path.
    sys.path[0] = str(HERE.parent)
    sys.path.insert(1, str(SRC))


def _stop_helper_processes() -> None:
    """Stop and reap every process this run started.

    Workers are joined by the workloads' teardown; this is the backstop for
    any still alive, and it stops the ``multiprocessing`` resource tracker
    that spawning workers starts.  Left alone, the tracker only notices its
    parent's exit afterwards and outlives the run, unreaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    # Unwind through the workloads' teardown instead of dying in place.
    sys.exit(128 + signum)


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #
def _outputs(phases: list[Any], setup_outputs: list[dict]) -> list[dict]:
    return list(setup_outputs) + [out for phase in phases for op in phase.ops for out in op.outputs]


def _gate(workload: Any, phases: list[Any], outputs: list[dict]) -> list[str]:
    """Every correctness problem of a run: invariants, goldens, op errors."""
    from suite.checks import golden_problems, golden_view, invariant_problems, load_golden

    problems: list[str] = []
    for phase in phases:
        problems += phase.problems
        problems += [f"op {op.index}: {op.error}" for op in phase.ops if op.error is not None]
        if not phase.ops:
            problems.append("no op completed")
    problems += invariant_problems(outputs)
    golden = load_golden(workload.name, workload.seed)
    if golden is not None:
        mismatches, compared = golden_problems(golden_view(outputs, workload.golden_ops), golden)
        problems += mismatches
        print(f"golden: {compared} outputs compared", file=sys.stderr)
    return problems


def plain_run(workload: Any, seconds: float, repeats: int) -> tuple[dict, list, list, list]:
    """Set up ``repeats`` times, measure the last set-up for ``seconds``."""
    from suite.host import peak_rss_mb
    from suite.workloads import percentile

    setups: list[float] = []
    state = None
    try:
        for _ in range(repeats):
            if state is not None:
                workload.teardown(state)
                state = None
            began = time.perf_counter()
            state = workload.setup()
            setups.append(time.perf_counter() - began)
        phase = workload.run(state, seconds=seconds)
        rss = peak_rss_mb(workload.child_pids(state))
        setup_outputs = workload.setup_outputs(state)
    finally:
        if state is not None:
            workload.teardown(state)
    latencies = [op.latency for op in phase.ops]
    completed = sum(op.units - op.failed for op in phase.ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": completed / phase.wall,
        "latency_p50_ms": percentile(latencies, 50) * 1000,
        "latency_p90_ms": percentile(latencies, 90) * 1000,
        "peak_rss_mb": rss,
    }
    outputs = _outputs([phase], setup_outputs)
    return metrics, [phase], outputs, _gate(workload, [phase], outputs)


def traced_run(name: str, seed: int, quick: bool, seconds: float) -> tuple[dict, list, list, list]:
    """Untraced phase, then a traced replay of the same ops in a fresh set-up."""
    from suite.host import host_stamp
    from suite.trace import LAYER_METRICS, Tracer, dump_spans, layer_metrics, load_spans, since
    from suite.workloads import OUT_DIR, WORKLOADS, ServiceMix

    cls = WORKLOADS[name]
    plain = cls(seed, quick)
    state = plain.setup()
    try:
        first = plain.run(state, seconds=seconds / 2)
    finally:
        plain.teardown(state)

    in_process = cls is not ServiceMix
    workload = cls(seed, quick) if in_process else ServiceMix(seed, quick, traced_server=True)
    state = workload.setup()
    tracer = Tracer()
    try:
        if in_process:
            tracer.install()
        try:
            second = workload.run(state, count=len(first.ops), tracer=tracer if in_process else None)
        finally:
            tracer.uninstall()
        setup_outputs = workload.setup_outputs(state)
    finally:
        workload.teardown(state)
    if in_process:
        spans = tracer.spans
    else:
        # The server wrote its spans on exit; keep the replay's only.
        spans = since(load_spans(str(state.span_file)), second.start)
        state.span_file.unlink()

    metrics = dict.fromkeys(LAYER_METRICS + WORKLOAD_LAYERS, 0.0)
    metrics.update(layer_metrics(spans))
    metrics.update(second.layers)
    metrics["dynamics.replans"] = float(
        sum(sum(out["replans"].values()) for op in second.ops for out in op.outputs if "replans" in out)
    )
    metrics["trace.ops"] = float(len(second.ops))
    metrics["trace.overhead"] = second.wall / first.wall - 1.0
    metrics["trace.wall_s"] = second.wall
    root_time = sum(span.end - span.start for span in spans if span.parent is None)
    metrics["trace.root_share"] = root_time / second.wall

    outputs = _outputs([first, second], setup_outputs)
    problems = _gate(workload, [first, second], outputs)
    if in_process and abs(metrics["trace.root_share"] - 1.0) > COVERAGE_TOLERANCE:
        problems.append(
            f"layer self times cover {metrics['trace.root_share']:.4f} of the wall time"
        )
    if name == "heuristic-sweep" and metrics["lp.highs.calls"]:
        problems.append(f"heuristic-sweep solved {metrics['lp.highs.calls']:.0f} LPs")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    dump_spans(
        str(path),
        spans,
        {"workload": name, "seed": seed, "host": host_stamp(), "metrics": metrics},
    )
    print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}", file=sys.stderr)
    return metrics, [first, second], outputs, problems


def run_once(args: argparse.Namespace) -> int:
    from suite.host import host_stamp, warn_if_loaded
    from suite.workloads import WORKLOADS

    stamp = host_stamp()
    print(f"host: {json.dumps(stamp)}", file=sys.stderr)
    warn_if_loaded(stamp)
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    )
    if args.trace:
        metrics, phases, _, problems = traced_run(args.workload, args.seed, args.quick, seconds)
    else:
        workload = WORKLOADS[args.workload](args.seed, args.quick)
        repeats = 1 if args.quick else SETUP_REPEATS
        metrics, phases, outputs, problems = plain_run(workload, seconds, repeats)
        if args.record_golden and not problems:
            record_golden(workload, outputs)

    attempted = sum(op.units for phase in phases for op in phase.ops)
    failed = sum(op.failed for phase in phases for op in phase.ops)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit_of(name)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if not problems else 1


def record_golden(workload: Any, outputs: list[dict]) -> None:
    from suite.checks import golden_view, write_golden

    if workload.seed != DEFAULT_SEED:
        raise SystemExit(f"goldens are recorded for the default seed {DEFAULT_SEED} only")
    view = golden_view(outputs, workload.golden_ops)
    print(f"golden: wrote {len(view)} values to {write_golden(workload.name, DEFAULT_SEED, view)}",
          file=sys.stderr)


# --------------------------------------------------------------------------- #
# Repeat, compare, quick
# --------------------------------------------------------------------------- #
def _child(name: str, seed: int, seconds: float | None, trace: int, quick: bool) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if quick:
        command.append("--quick")
    began = time.perf_counter()
    completed = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    if completed.returncode != 0 or not result["correct"]:
        sys.stderr.write(completed.stderr)
    result["exit_code"] = completed.returncode
    result["elapsed_s"] = time.perf_counter() - began
    result["seed"] = seed
    return result


def _bounds() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def summarize(runs: dict[str, list[dict]]) -> dict[str, dict]:
    """Median and quartiles of every metric, per workload."""
    summary: dict[str, dict] = {}
    for name, results in runs.items():
        per_metric: dict[str, list[float]] = {}
        for result in results:
            for metric, entry in result["metrics"].items():
                per_metric.setdefault(metric, []).append(entry["value"])
        summary[name] = {}
        for metric, values in per_metric.items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            summary[name][metric] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "n": len(values),
            }
    return summary


def repeat(args: argparse.Namespace) -> int:
    from suite.host import host_stamp, warn_if_loaded
    from suite.workloads import WORKLOADS

    stamp = host_stamp()
    warn_if_loaded(stamp)
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    healthy = True
    for r in range(args.repeat):
        # Alternate the order so drift over time does not favour a workload.
        for name in names if r % 2 == 0 else names[::-1]:
            result = _child(name, args.seed + r, args.seconds, args.trace, False)
            runs[name].append(result)
            ok = result["correct"] and result["exit_code"] == 0
            healthy &= ok
            print(f"[{r + 1}/{args.repeat}] {name} seed {result['seed']}: "
                  f"{'ok' if ok else 'FAILED'} in {result['elapsed_s']:.1f} s", file=sys.stderr)
    summary = summarize(runs)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"host": stamp, "seconds": args.seconds, "trace": args.trace,
                        "summary": summary, "runs": runs}, indent=1),
            encoding="utf-8",
        )
    bounds = _bounds()
    flagged = 0
    for name in names:
        print(f"\n{name} ({len(runs[name])} runs)")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for metric, stats in summary[name].items():
            bound = bounds.get(metric, {}).get("bound")
            mark = ""
            if bound is not None and stats["spread"] > bound:
                mark, flagged = "  EXCEEDS BOUND", flagged + 1
            elif bound is not None and stats["spread"] > bound / 3:
                mark = "  over bound/3"
            print(f"  {metric:32s} {stats['median']:12.6g} {stats['q1']:12.6g} "
                  f"{stats['q3']:12.6g} {stats['spread']:8.4f} "
                  f"{'' if bound is None else format(bound, '.2f'):>6s}{mark}")
    return 0 if healthy and not flagged else 1


def compare(old_path: str, new_path: str) -> int:
    """Median change of every end-to-end metric between two summaries."""
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))["summary"]
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))["summary"]
    bounds = _bounds()
    worse = 0
    print(f"{'workload':16s} {'metric':16s} {'old':>12s} {'new':>12s} {'worse by':>9s} {'bound':>6s}")
    for name in old:
        for metric, spec in bounds.items():
            if name not in new or metric not in old[name] or metric not in new[name]:
                continue
            a, b = old[name][metric]["median"], new[name][metric]["median"]
            change = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            verdict = ""
            if change > spec["bound"]:
                verdict, worse = "  REGRESSION", worse + 1
            elif max(old[name][metric]["spread"], new[name][metric]["spread"]) > spec["bound"]:
                verdict = "  unresolved (spread > bound)"
            print(f"{name:16s} {metric:16s} {a:12.6g} {b:12.6g} {change:+9.4f} "
                  f"{spec['bound']:6.2f}{verdict}")
    return 1 if worse else 0


def quick(args: argparse.Namespace) -> int:
    from suite.workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    failures = 0
    for name in names:
        for trace in (0, 1):
            result = _child(name, args.seed, args.seconds, trace, True)
            ok = result["correct"] and result["exit_code"] == 0
            failures += not ok
            print(f"{name:16s} trace={trace} {'ok' if ok else 'FAILED'} "
                  f"({result.get('attempted', 0)} attempted, {result['elapsed_s']:.1f} s)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (default: all, for --repeat/--quick)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per run (default {DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, metavar="K", help="K fresh runs per workload")
    parser.add_argument("--out", help="--repeat: write the summary JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--quick", action="store_true", help="small smoke runs, all checks on")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if "PYTHONHASHSEED" not in os.environ:
        # String hashing is randomized per process, and with it the layout
        # of every str-keyed dict and set: identical work then runs a few
        # percent faster or slower from one process to the next.  Fix it
        # (children inherit it) and start over.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.compare:
        return compare(*args.compare)
    _bootstrap()
    from suite.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        if args.repeat:
            return repeat(args)
        if args.quick and args.workload is None:
            return quick(args)
        if args.workload is None:
            parser.error("--workload is required for a single run")
        return run_once(args)
    finally:
        _stop_helper_processes()


if __name__ == "__main__":
    sys.exit(main())
