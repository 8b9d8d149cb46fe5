"""Deterministic, seed-driven fault injection for the fault-tolerant runtime.

The harness makes a configurable fraction of the library's failure-prone
operations misbehave — *deterministically*, so a test can predict exactly
which tasks fail and assert that every injected fault is accounted for:

* **worker tasks** raise (:class:`InjectedWorkerError`), hang past their
  timeout, or kill their worker process (breaking the pool);
* **solver calls** fail transiently under the primary ``linprog`` method,
  exercising the dual-simplex / interior-point fallback chain of
  :mod:`repro.lp.solver`;
* **cache reads** return corrupted payloads, exercising the
  quarantine-and-recompute path of :class:`~repro.runtime.ResultCache`;
* **service requests** fail inside the solve service's request handling
  (:class:`InjectedRequestError`), exercising the structured-error path of
  :mod:`repro.service` — the server must answer with a JSON error body,
  never a traceback or a dead connection.

Every decision is a pure function of the :class:`FaultPlan` seed and a
stable token (the supervised task's label, the cache key, the solver call
ordinal): runs are bit-reproducible, and serial and process-pool executions
inject the *same* faults because the plan travels in an environment
variable (:data:`~repro.runtime.FAULT_PLAN_ENV`) that worker processes
inherit.

Usage::

    from repro.faults import FaultPlan, inject_faults

    with inject_faults(FaultPlan(seed=7, task_error_rate=0.2)):
        results = session.solve_many(jobs, on_error="collect")

Injected exceptions derive from :class:`~repro.exceptions.InjectedFault`
(a :class:`~repro.exceptions.ReproError`), so the library-wide
``except ReproError`` contract holds under injection.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, fields
from typing import Any, Mapping

from .exceptions import ConfigError, InjectedFault
from .runtime import FAULT_PLAN_ENV

__all__ = [
    "FaultPlan",
    "inject_faults",
    "active_plan",
    "classify_task",
    "in_pool_worker",
    "InjectedWorkerError",
    "InjectedCrashError",
    "InjectedSolverError",
    "InjectedRequestError",
]

#: Exit code of a worker process killed by an injected crash fault.
CRASH_EXIT_CODE = 23


def in_pool_worker() -> bool:
    """Whether this process is a pool worker (has a multiprocessing parent).

    Crash faults are only allowed to genuinely kill the process here: a
    dead worker is a recoverable event for the supervisor (the warm pool
    respawns it), while killing the main process would take the whole
    campaign down.
    """
    return multiprocessing.parent_process() is not None


class InjectedWorkerError(InjectedFault):
    """A worker task made to raise by the fault plan (transient)."""


class InjectedCrashError(InjectedFault):
    """An in-process stand-in for a worker crash.

    Crash faults kill the process with :func:`os._exit` only inside pool
    workers (so the worker dies, exercising respawn and in-process
    fallback);
    in the supervising process they downgrade to this exception — a hard
    exit there would take the whole campaign down, which is exactly what
    the fault-tolerant runtime exists to prevent.
    """


class InjectedSolverError(InjectedFault):
    """A transient LP solver failure (recovered by the method fallback)."""


class InjectedRequestError(InjectedFault):
    """A solve-service request made to fail by the fault plan.

    The service answers it with a structured JSON 500 — the soak test's way
    of proving that internal errors never escape as tracebacks."""


_RATE_FIELDS = (
    "task_error_rate",
    "task_timeout_rate",
    "task_crash_rate",
    "solver_error_rate",
    "cache_corrupt_rate",
    "request_error_rate",
)


@dataclass(frozen=True)
class FaultPlan:
    """Which fraction of each operation fails, and how.

    The three task rates partition the roll space: a task's deterministic
    roll in ``[0, 1)`` selects *one* of error / hang / crash (or none), so
    ``task_error_rate=0.1, task_timeout_rate=0.05, task_crash_rate=0.05``
    makes 20% of tasks fail, each in exactly one way.

    ``persistent=False`` (the default) makes task faults *transient*: they
    fire only on a task's first attempt, so any retry budget recovers them.
    With ``persistent=True`` the fault fires on every attempt — the way to
    produce permanent failures and structured error records.
    """

    seed: int = 0
    task_error_rate: float = 0.0
    task_timeout_rate: float = 0.0
    task_crash_rate: float = 0.0
    solver_error_rate: float = 0.0
    cache_corrupt_rate: float = 0.0
    request_error_rate: float = 0.0
    hang_seconds: float = 0.5
    persistent: bool = False

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")
        total = self.task_error_rate + self.task_timeout_rate + self.task_crash_rate
        if total > 1.0:
            raise ConfigError(
                f"task fault rates must sum to <= 1, got {total!r}"
            )
        if self.hang_seconds <= 0:
            raise ConfigError(
                f"hang_seconds must be positive, got {self.hang_seconds!r}"
            )

    def to_json(self) -> str:
        """Serialise for the environment variable (worker inheritance)."""
        return json.dumps(
            {f.name: getattr(self, f.name) for f in fields(self)}, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Rebuild from :meth:`to_json` output."""
        data: Mapping[str, Any] = json.loads(text)
        known = {f.name for f in fields(cls)}
        return cls(**{name: value for name, value in data.items() if name in known})


# --------------------------------------------------------------------------- #
# Activation
# --------------------------------------------------------------------------- #
_CACHED_PLAN: tuple[str, FaultPlan] | None = None


def active_plan() -> FaultPlan | None:
    """The plan currently carried by the environment, or ``None``.

    Memoized on the raw environment string, so the hot call sites pay one
    dictionary lookup when a plan is active and the environment check alone
    when it is not.
    """
    global _CACHED_PLAN
    text = os.environ.get(FAULT_PLAN_ENV)
    if not text:
        return None
    if _CACHED_PLAN is None or _CACHED_PLAN[0] != text:
        _CACHED_PLAN = (text, FaultPlan.from_json(text))
    return _CACHED_PLAN[1]


class inject_faults:
    """Context manager installing a :class:`FaultPlan` for the duration.

    The plan is published through :data:`~repro.runtime.FAULT_PLAN_ENV`, so
    worker processes spawned inside the context inherit it; the previous
    environment value is restored on exit.  Re-entrant and nestable (the
    innermost plan wins).
    """

    def __init__(self, plan: FaultPlan | None = None, **rates: Any) -> None:
        if plan is not None and rates:
            raise ConfigError("pass either a FaultPlan or keyword rates, not both")
        self.plan = plan if plan is not None else FaultPlan(**rates)
        self._previous: str | None = None

    def __enter__(self) -> FaultPlan:
        global _CACHED_PLAN
        self._previous = os.environ.get(FAULT_PLAN_ENV)
        os.environ[FAULT_PLAN_ENV] = self.plan.to_json()
        _CACHED_PLAN = None
        return self.plan

    def __exit__(self, *exc_info: Any) -> None:
        global _CACHED_PLAN
        if self._previous is None:
            os.environ.pop(FAULT_PLAN_ENV, None)
        else:
            os.environ[FAULT_PLAN_ENV] = self._previous
        _CACHED_PLAN = None


# --------------------------------------------------------------------------- #
# Deterministic decisions
# --------------------------------------------------------------------------- #
def _uniform(seed: int, site: str, token: str) -> float:
    """A reproducible uniform draw in ``[0, 1)`` for one (site, token)."""
    digest = hashlib.sha256(f"{seed}:{site}:{token}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def classify_task(plan: FaultPlan, label: str) -> str:
    """What the plan does to the task called ``label`` on a faulting attempt.

    Returns ``"ok"``, ``"error"``, ``"timeout"`` or ``"crash"``.  Pure and
    process-independent — tests use it to predict exactly which tasks the
    harness will hit.
    """
    roll = _uniform(plan.seed, "task", label)
    if roll < plan.task_error_rate:
        return "error"
    if roll < plan.task_error_rate + plan.task_timeout_rate:
        return "timeout"
    if roll < plan.task_error_rate + plan.task_timeout_rate + plan.task_crash_rate:
        return "crash"
    return "ok"


# --------------------------------------------------------------------------- #
# Hooks (called from runtime / lp.solver when a plan is active)
# --------------------------------------------------------------------------- #
def maybe_fail_task(label: str, attempt: int) -> None:
    """Fault hook at the supervised-task boundary (see :mod:`repro.runtime`)."""
    plan = active_plan()
    if plan is None:
        return
    if attempt > 0 and not plan.persistent:
        return  # transient: retries succeed
    kind = classify_task(plan, label)
    if kind == "error":
        raise InjectedWorkerError(
            f"injected worker fault for task {label!r} (attempt {attempt})"
        )
    if kind == "timeout":
        # Overrun the supervisor's per-task timeout, then proceed normally:
        # the abandoned attempt must stay side-effect-free either way.
        time.sleep(plan.hang_seconds)
        return
    if kind == "crash":
        if in_pool_worker():
            os._exit(CRASH_EXIT_CODE)  # kill the pool worker mid-task
        raise InjectedCrashError(
            f"injected crash fault for task {label!r} (attempt {attempt}, "
            f"downgraded to an exception outside worker processes)"
        )


_SOLVER_CALLS = 0


def maybe_fail_solver(method_attempt: int) -> None:
    """Fault hook inside the LP solver's method-fallback loop.

    Fires only for the *first* method of a solve (``method_attempt == 0``)
    so the failure is transient by construction: the alternate-method chain
    must recover it.  The decision token is the per-process solver call
    ordinal, advanced only on first attempts.
    """
    plan = active_plan()
    if plan is None or plan.solver_error_rate <= 0.0:
        return
    if method_attempt > 0:
        return
    global _SOLVER_CALLS
    token = str(_SOLVER_CALLS)
    _SOLVER_CALLS += 1
    if _uniform(plan.seed, "solver", token) < plan.solver_error_rate:
        raise InjectedSolverError(
            f"injected transient solver fault (call #{token})"
        )


def maybe_fail_request(token: str) -> None:
    """Fault hook inside the solve service's request handling.

    ``token`` is a stable per-request identifier (the service uses its
    request ordinal), so a given burst always injects failures into the
    same positions — tests can predict exactly which requests get the
    structured 500.
    """
    plan = active_plan()
    if plan is None or plan.request_error_rate <= 0.0:
        return
    if _uniform(plan.seed, "request", token) < plan.request_error_rate:
        raise InjectedRequestError(f"injected request fault (request {token})")


def maybe_corrupt_cache_text(key: str, text: str) -> str:
    """Fault hook on :class:`~repro.runtime.ResultCache` disk reads."""
    plan = active_plan()
    if plan is None or plan.cache_corrupt_rate <= 0.0:
        return text
    if _uniform(plan.seed, "cache", key) < plan.cache_corrupt_rate:
        return text[: max(1, len(text) // 2)]  # truncated JSON: unparsable
    return text
