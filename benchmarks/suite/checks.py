"""Correctness gate: invariants on every seed, goldens on the default seed.

Every job output carries a ``key`` (``"<op>:<job>"``, ``"hot:<h>"`` or
``"cold:<c>"``) that names the same work in every run of a seed, so the
outputs of a run can be compared with the golden file of its workload.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: A different optimal LP vertex legitimately changes the trees of the
#: LP-guided heuristics, so their throughput is not held to a golden.
LP_GUIDED = ("lp-prune", "lp-grow-tree")
BOUND_RTOL = 1e-7
THROUGHPUT_RTOL = 1e-9
#: Slack of the ``throughput <= lp_bound`` and ``ratio <= 1`` invariants.
BOUND_SLACK = 1e-9


def invariant_problems(outputs: list[dict[str, Any]]) -> list[str]:
    """Violations of the per-output invariants, one message each.

    * every op is ``ok``;
    * under the one-port model no tree beats the LP bound (the LP is the
      bidirectional one-port program, so multi-port trees may exceed it);
    * dynamic ratios lie in [0, 1] (a tree that meets its epoch's bound
      exactly may read one rounding step above 1).
    """
    problems = []
    for out in outputs:
        if not out["ok"]:
            problems.append(f"{out['key']}: not ok ({out.get('error')})")
            continue
        if "throughput" in out and out["model"] == "one-port":
            if out["throughput"] > out["lp_bound"] * (1 + BOUND_SLACK):
                problems.append(
                    f"{out['key']}: {out['heuristic']} throughput {out['throughput']!r} "
                    f"exceeds the LP bound {out['lp_bound']!r}"
                )
        for policy, ratios in out.get("ratios", {}).items():
            if any(not 0.0 <= ratio <= 1.0 + BOUND_SLACK for ratio in ratios):
                problems.append(f"{out['key']}: {policy} ratio outside [0, 1]")
    return problems


def _covered(key: str, golden_ops: int) -> bool:
    head, _, tail = key.partition(":")
    if head == "hot":
        return True
    if head == "cold":
        return int(tail) < golden_ops
    return head.isdigit() and int(head) < golden_ops


def golden_view(outputs: list[dict[str, Any]], golden_ops: int) -> dict[str, Any]:
    """The golden-relevant values of the outputs within the golden prefix."""
    view: dict[str, Any] = {}
    for out in outputs:
        if not out["ok"] or not _covered(out["key"], golden_ops):
            continue
        if "replans" in out:
            view[out["key"]] = {"replans": out["replans"], "bounds": out["bounds"]}
        elif "lp_bound" in out:
            view[out["key"]] = {
                "heuristic": out["heuristic"],
                "lp_bound": out["lp_bound"],
                "throughput": out["throughput"],
            }
    return view


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def golden_problems(view: dict[str, Any], golden: dict[str, Any]) -> tuple[list[str], int]:
    """Mismatches between ``view`` and the golden values; plus keys compared."""
    problems = []
    compared = 0
    for key, got in view.items():
        want = golden.get(key)
        if want is None:
            continue
        compared += 1
        if "replans" in want:
            if got["replans"] != want["replans"]:
                problems.append(f"{key}: replans {got['replans']} != golden {want['replans']}")
            if len(got["bounds"]) != len(want["bounds"]) or not all(
                _close(a, b, BOUND_RTOL) for a, b in zip(got["bounds"], want["bounds"])
            ):
                problems.append(f"{key}: bound series differs from golden")
            continue
        if not _close(got["lp_bound"], want["lp_bound"], BOUND_RTOL):
            problems.append(f"{key}: lp_bound {got['lp_bound']!r} != golden {want['lp_bound']!r}")
        if want["heuristic"] not in LP_GUIDED and not _close(
            got["throughput"], want["throughput"], THROUGHPUT_RTOL
        ):
            problems.append(
                f"{key}: {want['heuristic']} throughput {got['throughput']!r} "
                f"!= golden {want['throughput']!r}"
            )
    return problems, compared


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str, seed: int) -> dict[str, Any] | None:
    """The golden values of ``workload`` if they were recorded for ``seed``."""
    path = golden_path(workload)
    if not path.is_file():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    return data["values"] if data["seed"] == seed else None


def write_golden(workload: str, seed: int, view: dict[str, Any]) -> Path:
    path = golden_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        json.dumps({"seed": seed, "values": view}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
