"""The five benchmark workloads.

Every workload is a closed loop: the next op starts only when the previous
one has completed (``pool-campaign`` keeps a fixed number of ops in flight,
``service-mix`` runs two clients).  Op ``i`` is a pure function
of ``(seed, i)``, so a run is reproducible and a traced replay of the
first ``k`` ops repeats exactly the work an untraced phase did.  The
program under test only ever receives the generated :class:`~repro.Job`
values and HTTP requests.

Each workload provides ``setup() -> state``, ``run(state, seconds=...,
count=..., tracer=...) -> Phase``, ``teardown(state)`` and
``child_pids(state)``; ``Phase.ops`` carries the per-op latencies and the
deterministic outputs the correctness gate checks.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import (
    PAPER_ONE_PORT_HEURISTICS,
    CollectiveSpec,
    DynamicJob,
    Job,
    LPSolutionCache,
    PlatformRecipe,
    Session,
    TraceSpec,
    available_heuristics,
    generate_random_platform,
)

HEURISTICS = tuple(available_heuristics())
MODELS = ("one-port", "multi-port")
SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
#: Span files and other run output (ignored by git).
OUT_DIR = SUITE / "out"


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _platform_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31 - 1))


@dataclass
class Op:
    """One completed op: latency, units of work, per-job outputs."""

    index: int
    latency: float
    units: int
    failed: int
    outputs: list[dict[str, Any]]
    error: str | None = None


@dataclass
class Phase:
    ops: list[Op]
    wall: float
    start: float
    #: Workload-specific per-layer numbers (pool counters, /statz, ...).
    layers: dict[str, float] = field(default_factory=dict)
    #: Extra correctness failures the phase itself detected.
    problems: list[str] = field(default_factory=list)


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    name = ""
    #: Ops whose outputs the golden file of the default seed pins down.
    golden_ops = 0

    def __init__(self, seed: int, quick: bool) -> None:
        """``quick`` asks for a smaller set-up (smoke runs only)."""
        self.seed = seed

    def teardown(self, state: Any) -> None:
        pass

    def child_pids(self, state: Any) -> list[int]:
        return []

    def setup_outputs(self, state: Any) -> list[dict[str, Any]]:
        """Outputs produced during set-up that the gate must check too."""
        return []


def _job_output(job: Job, result: Any, key: str) -> dict[str, Any]:
    if not result.ok:
        return {"key": key, "ok": False, "error": str(result.error)}
    return {
        "key": key,
        "ok": True,
        "heuristic": job.heuristic,
        "model": job.model,
        "kind": job.collective.kind.value,
        "lp_bound": result.lp_bound,
        "throughput": result.throughput,
    }


def _closed_loop(
    prepare: Callable[[int], Any],
    execute: Callable[[int, Any], tuple[int, list[dict[str, Any]]]],
    seconds: float | None,
    count: int | None,
    tracer: Any,
) -> Phase:
    """Run ops ``0, 1, ...`` one after another until time or count is up."""
    ops: list[Op] = []
    start = time.perf_counter()
    i = 0
    while (i < count) if count is not None else (time.perf_counter() - start < seconds):
        prepared = prepare(i)
        began = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.op(i):
                    units, outputs = execute(i, prepared)
            else:
                units, outputs = execute(i, prepared)
            failed = sum(1 for out in outputs if not out["ok"])
            ops.append(Op(i, time.perf_counter() - began, units, failed, outputs))
        except Exception as error:  # noqa: BLE001 - a failed op is data
            ops.append(
                Op(i, time.perf_counter() - began, 1, 1, [], f"{type(error).__name__}: {error}")
            )
        i += 1
    return Phase(ops, time.perf_counter() - start, start)


# --------------------------------------------------------------------------- #
# cold-solve
# --------------------------------------------------------------------------- #
#: 40 % broadcast, 25 % multicast, 15 % reduce, 20 % scatter/gather.
COLD_KINDS = (
    "broadcast", "multicast", "scatter", "broadcast", "reduce",
    "multicast", "broadcast", "gather", "broadcast", "multicast",
    "reduce", "scatter", "broadcast", "multicast", "broadcast",
    "gather", "reduce", "broadcast", "multicast", "broadcast",
)
#: Sizes of the paper's Tiers platforms (Table 3) in rotation.  Three
#: 30-node platforms to two 65-node ones puts the median latency inside the
#: tight 30-node distribution; the 65-node LPs carry most of the time.
#: Random platforms or a larger 65-node share raise the LP's share but
#: make the median swing by 7-10 % from seed to seed.
COLD_TIERS = (30, 65, 30, 65, 30)


def cold_job(seed: int, i: int) -> Job:
    """Op ``i``: every (size, kind) pairing recurs once per 100 ops."""
    rng = _rng(seed, 1, i)
    nodes = COLD_TIERS[i % len(COLD_TIERS)]
    recipe = PlatformRecipe.of("tiers", size=nodes, seed=_platform_seed(rng))
    kind = COLD_KINDS[(i // len(COLD_TIERS)) % len(COLD_KINDS)]
    source = int(rng.integers(nodes))
    targets = None
    if kind == "multicast":
        others = np.array([v for v in range(nodes) if v != source])
        targets = tuple(sorted(int(v) for v in rng.choice(others, nodes // 2, replace=False)))
    return Job(
        recipe,
        CollectiveSpec(kind, source, targets),
        heuristic=HEURISTICS[i % len(HEURISTICS)],
        model=MODELS[i % 2],
    )


class ColdSolve(Workload):
    name = "cold-solve"
    golden_ops = 20

    def setup(self) -> Session:
        session = Session()
        # Pay the first-call costs (lazy imports, solver start-up) once.
        warm = PlatformRecipe.of("random", num_nodes=8, density=0.3, seed=self.seed)
        for kind in ("broadcast", "scatter"):
            session.solve(Job(warm, CollectiveSpec(kind, 0))).materialize()
        return session

    def run(self, session: Session, *, seconds=None, count=None, tracer=None) -> Phase:
        def execute(i: int, job: Job) -> tuple[int, list[dict[str, Any]]]:
            result = session.solve(job).materialize()
            return 1, [_job_output(job, result, f"{i}:0")]

        return _closed_loop(lambda i: cold_job(self.seed, i), execute, seconds, count, tracer)


# --------------------------------------------------------------------------- #
# heuristic-sweep
# --------------------------------------------------------------------------- #
SWEEP_SIZES = (10, 20, 30)
#: Sparse enough that the pre-solved LPs cost about the same on every seed
#: (at 30 nodes and density 0.12 single solves range over 30x).
SWEEP_DENSITIES = (0.04, 0.06, 0.08)


class HeuristicSweep(Workload):
    name = "heuristic-sweep"
    golden_ops = 4

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        # Platforms are reused round-robin, each round in a fresh session,
        # so only the pool's LPs need pre-solving.
        self.pool_size = 9 if quick else 36

    def _platform(self, j: int) -> Any:
        rng = _rng(self.seed, 2, j)
        return generate_random_platform(
            num_nodes=SWEEP_SIZES[j % 3],
            density=SWEEP_DENSITIES[(j // 3) % 3],
            seed=_platform_seed(rng),
        )

    @staticmethod
    def _jobs(platform: Any, model: str) -> list[Job]:
        return [
            Job.broadcast(platform, heuristic=h, model=model, num_slices=100, simulate=True)
            for h in HEURISTICS
        ]

    def setup(self) -> tuple[list[list[Job]], LPSolutionCache]:
        lp_cache = LPSolutionCache()
        platforms = [self._platform(j) for j in range(self.pool_size)]
        presolve = Session(lp_cache=lp_cache)
        for platform in platforms:
            presolve.lp_solution_for(Job.broadcast(platform))
        warm = generate_random_platform(num_nodes=8, density=0.3, seed=self.seed)
        Session().solve_many(self._jobs(warm, "one-port"))
        # The port model alternates per platform.
        batches = [self._jobs(p, MODELS[j % 2]) for j, p in enumerate(platforms)]
        return batches, lp_cache

    def run(self, state, *, seconds=None, count=None, tracer=None) -> Phase:
        batches, lp_cache = state
        holder: dict[str, Session] = {}

        def execute(i: int, jobs: list[Job]) -> tuple[int, list[dict[str, Any]]]:
            if i % len(batches) == 0:
                # A new round: trees and simulations are computed afresh,
                # the pre-solved LPs are shared.  Dropping the last round's
                # session is part of the op.
                holder["session"] = Session(lp_cache=lp_cache)
            results = holder["session"].solve_many(jobs, on_error="collect")
            return len(jobs), [
                _job_output(job, result, f"{i}:{k}")
                for k, (job, result) in enumerate(zip(jobs, results))
            ]

        return _closed_loop(lambda i: batches[i % len(batches)], execute, seconds, count, tracer)


# --------------------------------------------------------------------------- #
# pool-campaign
# --------------------------------------------------------------------------- #
CAMPAIGN_SIZES = (20, 30, 40)
CAMPAIGN_DENSITIES = (0.04, 0.06, 0.08)
#: Platform batches kept in flight: two per worker, so neither idles
#: between batches.
CAMPAIGN_DEPTH = 4
#: Seconds between completion checks while every batch is in flight.
CAMPAIGN_POLL = 0.002


def campaign_jobs(seed: int, i: int) -> list[Job]:
    rng = _rng(seed, 3, i)
    recipe = PlatformRecipe.of(
        "random",
        num_nodes=CAMPAIGN_SIZES[i % 3],
        density=CAMPAIGN_DENSITIES[(i // 3) % 3],
        seed=_platform_seed(rng),
    )
    return [
        Job.broadcast(recipe, heuristic=h, num_slices=100, simulate=True)
        for h in PAPER_ONE_PORT_HEURISTICS
    ]


class PoolCampaign(Workload):
    name = "pool-campaign"
    golden_ops = 6

    def setup(self) -> Session:
        session = Session(jobs=2, backend="warm-pool")
        try:
            session.executor.ensure_started()
            # One small platform group per worker: imports and solver warm-up.
            warm = [
                Job.broadcast(PlatformRecipe.of("random", num_nodes=8, density=0.3, seed=s))
                for s in (self.seed, self.seed + 1)
            ]
            session.solve_many(warm)
        except BaseException:
            session.close()
            raise
        return session

    @staticmethod
    def _counters(session: Session) -> dict[str, int]:
        workers = session.cache_stats()["workers"]
        counters = {
            name: int(workers.get(name, 0))
            for name in ("groups_dispatched", "jobs_shipped", "shm_attached", "degraded_groups")
        }
        counters["respawns"] = int(workers.get("pool", {}).get("respawns", 0))
        return counters

    def run(self, session: Session, *, seconds=None, count=None, tracer=None) -> Phase:
        before = self._counters(session)
        ops: list[Op] = []
        inflight: list[tuple[int, float, list[Job], Any]] = []
        start = time.perf_counter()
        submitted = 0

        def more() -> bool:
            if count is not None:
                return submitted < count
            return time.perf_counter() - start < seconds

        def traced(op_id: Any, call: Callable[[], Any]) -> Any:
            if tracer is None:
                return call()
            with tracer.op(op_id):
                return call()

        while inflight or more():
            while len(inflight) < CAMPAIGN_DEPTH and more():
                jobs = campaign_jobs(self.seed, submitted)
                began = time.perf_counter()
                handle = traced(
                    submitted,
                    lambda: session.solve_many_async(jobs, on_error="collect"),
                )
                inflight.append((submitted, began, jobs, handle))
                submitted += 1
            finished = [entry for entry in inflight if entry[3].done()]
            if not finished:
                # Idle until a batch completes; each one is settled as soon
                # as it is done, so a slow platform delays only its own op.
                traced(inflight[0][0], lambda: inflight[0][3].wait(CAMPAIGN_POLL))
                continue
            for entry in finished:
                inflight.remove(entry)
                index, began, jobs, handle = entry
                try:
                    results = traced(index, handle.result)
                    outputs = [
                        _job_output(job, result, f"{index}:{k}")
                        for k, (job, result) in enumerate(zip(jobs, results))
                    ]
                    failed = sum(1 for out in outputs if not out["ok"])
                    ops.append(Op(index, time.perf_counter() - began, len(jobs), failed, outputs))
                except Exception as error:  # noqa: BLE001 - a failed op is data
                    ops.append(
                        Op(index, time.perf_counter() - began, len(jobs), len(jobs), [],
                           f"{type(error).__name__}: {error}")
                    )
        wall = time.perf_counter() - start
        ops.sort(key=lambda op: op.index)
        after = self._counters(session)
        delta = {name: after[name] - before[name] for name in after}
        phase = Phase(ops, wall, start, {f"pool.{name}": value for name, value in delta.items()})
        attempted = sum(op.units for op in ops)
        if delta["jobs_shipped"] != attempted:
            phase.problems.append(
                f"pool shipped {delta['jobs_shipped']} jobs for {attempted} attempted"
            )
        return phase

    def teardown(self, session: Session) -> None:
        session.close()

    def child_pids(self, session: Session) -> list[int]:
        return [child.pid for child in multiprocessing.active_children()]


# --------------------------------------------------------------------------- #
# service-mix
# --------------------------------------------------------------------------- #
HOT_PLATFORMS = 10
HOT_JOBS = 40
#: Every tenth request is a never-seen platform (a write); the rest repeat
#: a hot job (a read).  It is also the length of one client session.
COLD_EVERY = 10
CLIENTS = 2


def _service_platform(seed: int, stream: int, index: int) -> PlatformRecipe:
    rng = _rng(seed, stream, index)
    return PlatformRecipe.of(
        "random", num_nodes=16, density=0.3, seed=_platform_seed(rng)
    )


def hot_job(seed: int, h: int) -> Job:
    return Job.broadcast(
        _service_platform(seed, 4, h % HOT_PLATFORMS),
        heuristic=HEURISTICS[h % len(HEURISTICS)],
        model=MODELS[(h // HOT_PLATFORMS) % 2],
    )


def cold_request_job(seed: int, c: int) -> Job:
    return Job.broadcast(
        _service_platform(seed, 5, c),
        heuristic=HEURISTICS[c % len(HEURISTICS)],
        model=MODELS[c % 2],
    )


def service_request(seed: int, k: int) -> tuple[str, int]:
    """Request ``k``: ``("cold", c)`` for a new platform or ``("hot", h)``."""
    if k % COLD_EVERY == COLD_EVERY - 1:
        return "cold", k // COLD_EVERY
    return "hot", int(_rng(seed, 6, k).integers(HOT_JOBS))


@dataclass
class ServerState:
    process: subprocess.Popen
    port: int
    hot_bodies: list[bytes]
    hot_outputs: list[dict[str, Any]]
    span_file: Path | None


def _post(port: int, body: bytes) -> tuple[int, bytes]:
    """One ``POST /solve`` on its own connection.

    A kept-alive connection would measure a delayed-ACK stall instead of
    the service: the handler writes headers and body in two sends, so from
    the second request on Nagle's algorithm holds the body until the
    client's delayed ACK (about 40 ms).  The repository's own clients open
    a connection per request as well.
    """
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request(
            "POST", "/solve", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _get_json(port: int, path: str) -> dict[str, Any]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def _reply_output(key: str, job: Job, status: int, body: bytes) -> dict[str, Any]:
    if status != 200:
        return {"key": key, "ok": False, "error": f"HTTP {status}"}
    data = json.loads(body)
    entry = data["results"][0]
    if data.get("partial") or not entry.get("ok"):
        return {"key": key, "ok": False, "error": str(entry.get("error"))}
    metrics = entry["metrics"]
    return {
        "key": key,
        "ok": True,
        "heuristic": job.heuristic,
        "model": job.model,
        "kind": "broadcast",
        "lp_bound": metrics["lp_bound"],
        "throughput": metrics["throughput"],
    }


class ServiceMix(Workload):
    name = "service-mix"
    golden_ops = 10  # cold requests; the hot set is checked in full

    def __init__(self, seed: int, quick: bool, traced_server: bool = False) -> None:
        super().__init__(seed, quick)
        #: Start the server under the suite's tracer (serve_traced.py).
        self.traced_server = traced_server

    def setup(self) -> ServerState:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        span_file = None
        if self.traced_server:
            OUT_DIR.mkdir(exist_ok=True)
            span_file = OUT_DIR / f"server-spans-{os.getpid()}.json"
            command = [sys.executable, str(SUITE / "serve_traced.py"), str(span_file)]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        state = ServerState(process, 0, [], [], span_file)
        try:
            line = process.stdout.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"solve service did not start: {line!r}")
            state.port = int(line.rsplit(":", 1)[1])
            for h in range(HOT_JOBS):
                job = hot_job(self.seed, h)
                status, body = _post(state.port, job.to_json().encode())
                state.hot_bodies.append(body)
                state.hot_outputs.append(_reply_output(f"hot:{h}", job, status, body))
        except BaseException:
            self.teardown(state)
            raise
        return state

    def _request(self, state: ServerState, k: int) -> tuple[float, dict[str, Any]]:
        """Send request ``k``; return its latency and checked output."""
        kind, which = service_request(self.seed, k)
        job = hot_job(self.seed, which) if kind == "hot" else cold_request_job(self.seed, which)
        body = job.to_json().encode()
        began = time.perf_counter()
        try:
            status, reply = _post(state.port, body)
        except (OSError, http.client.HTTPException) as error:
            return time.perf_counter() - began, {
                "key": f"request:{k}",
                "ok": False,
                "hot": kind == "hot",
                "error": f"{type(error).__name__}: {error}",
            }
        latency = time.perf_counter() - began
        if kind == "hot":
            same = reply == state.hot_bodies[which]
            output = {"key": f"hot-repeat:{which}", "ok": same, "hot": True}
            if not same:
                output["error"] = "warm reply differs from the first reply"
        else:
            output = _reply_output(f"cold:{which}", job, status, reply)
            output["hot"] = False
        return latency, output

    def run(self, state: ServerState, *, seconds=None, count=None, tracer=None) -> Phase:
        """Each client sends sessions of ``COLD_EVERY`` requests.

        One op is one session, nine reads then one write, timed end to end.
        A single warm request takes under a millisecond, and on the same
        inputs its median moved by 10-30 % from one process to the next; a
        session's time is dominated by its cold solve and repeats.
        """
        before = _get_json(state.port, "/statz")["counters"]
        lock = threading.Lock()
        ops: list[Op] = []
        requests: list[tuple[float, dict[str, Any]]] = []
        next_session = [0]
        start = time.perf_counter()

        def client() -> None:
            while True:
                with lock:
                    b = next_session[0]
                    if count is not None and b >= count:
                        return
                    if count is None and time.perf_counter() - start >= seconds:
                        return
                    next_session[0] += 1
                session = range(b * COLD_EVERY, (b + 1) * COLD_EVERY)
                done = [self._request(state, k) for k in session]
                outputs = [output for _, output in done]
                failed = sum(1 for output in outputs if not output["ok"])
                latency = sum(latency for latency, _ in done)
                with lock:
                    requests.extend(done)
                    ops.append(Op(b, latency, COLD_EVERY, failed, outputs))

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        after = _get_json(state.port, "/statz")["counters"]
        ops.sort(key=lambda op: op.index)

        def delta(name: str) -> float:
            return float(after.get(name, 0) - before.get(name, 0))

        batches = delta("batches_solved")
        jobs = delta("jobs_solved") + delta("jobs_failed")
        layers = {
            "service.requests_total": delta("requests_total"),
            "service.requests_rejected": delta("requests_rejected"),
            "service.batches_solved": batches,
            "service.jobs_per_batch": jobs / batches if batches else 0.0,
            "service.batches_overlapped": delta("batches_overlapped"),
            "service.jobs_failed": delta("jobs_failed"),
        }
        for label, hot in (("warm", True), ("cold", False)):
            latencies = [latency for latency, output in requests if output["hot"] is hot]
            layers[f"http.{label}_p50_ms"] = percentile(latencies, 50) * 1000
            if hot:
                layers["http.warm_p90_ms"] = percentile(latencies, 90) * 1000
        layers["http.p99_ms"] = percentile([latency for latency, _ in requests], 99) * 1000
        return Phase(ops, wall, start, layers)

    def setup_outputs(self, state: ServerState) -> list[dict[str, Any]]:
        return state.hot_outputs

    def teardown(self, state: ServerState) -> None:
        process = state.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()

    def child_pids(self, state: ServerState) -> list[int]:
        return [state.process.pid]


# --------------------------------------------------------------------------- #
# dynamic-replan
# --------------------------------------------------------------------------- #
def dynamic_job(seed: int, i: int, stream: int = 7) -> DynamicJob:
    rng = _rng(seed, stream, i)
    return DynamicJob(
        PlatformRecipe.of("random", num_nodes=16, density=0.25, seed=_platform_seed(rng)),
        trace=TraceSpec(
            seed=_platform_seed(rng),
            horizon=10,
            drift=0.25,
            drift_rho=0.7,
            congestion_rate=0.2,
        ),
    )


class DynamicReplan(Workload):
    name = "dynamic-replan"
    golden_ops = 5

    def setup(self) -> None:
        # One full-size campaign warms every code path; it is the same on
        # every seed, so set-up time does not vary with the seed.
        Session().solve_dynamic(dynamic_job(0, 0, stream=8)).materialize()

    def run(self, state, *, seconds=None, count=None, tracer=None) -> Phase:
        def execute(i: int, job: DynamicJob) -> tuple[int, list[dict[str, Any]]]:
            # A fresh session per campaign: every epoch LP is a cold solve.
            result = Session().solve_dynamic(job).materialize()
            return 1, [
                {
                    "key": f"{i}:0",
                    "ok": True,
                    "replans": {p: result.replans(p) for p in job.policies},
                    "bounds": list(result.bounds),
                    "ratios": {p: list(result.ratios(p)) for p in job.policies},
                }
            ]

        return _closed_loop(lambda i: dynamic_job(self.seed, i), execute, seconds, count, tracer)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


WORKLOADS: dict[str, Any] = {
    cls.name: cls
    for cls in (ColdSolve, HeuristicSweep, PoolCampaign, ServiceMix, DynamicReplan)
}

