"""fintop benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep3|enum5|cli_docs \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Every workload runs in fresh single-threaded child processes, one at a
time, so every ``lru_cache`` starts cold as it does for a user.

``--trace 0`` runs the workload again and again, each time in a new
child, while another run still fits in ``--seconds``, and reports
end-to-end metrics.  Times are corrected for the host's speed drift
(``hostspeed.py``).  ``--trace 1`` runs it once untraced and once traced
and reports the per-layer metrics plus the tracing overhead.

The last line of stdout is one JSON object.  The exit code is 0 only if
every answer passed the correctness gate (``gate.py``, and the oracle in
``cligen.py`` for ``cli_docs``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep3", "enum5", "cli_docs")

#: Set-up-only children, and as many spawns of ``python3 -m fintop.cli
#: validate -``, per run: the medians of setup_s and cold_start_ms.
PROBES = 16
CHILD_TIMEOUT_S = 170

COLD_DOC = '{"n": 2, "opens": [[], [1], [0, 1]]}'
COLD_REPLY = {"canonical": {"n": 2, "opens": [[], [1], [0, 1]]}, "valid": True}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "cold_start_ms": "ms",
}


class Failure(Exception):
    """A child that crashed, timed out or printed no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + HERE
    env["PYTHONHASHSEED"] = "0"
    return env


def pre_factor() -> float:
    """Host-speed factor sampled in this process just before a spawn."""
    return hostspeed.factor([hostspeed.sample() for _ in range(hostspeed.BRACKET)])


def run_child(workload: str, seed: int, mode: str) -> dict:
    """Run child.py; its result gains ``child_s`` and ``pre_factor``."""
    factor = pre_factor()
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), mode, repr(spawn)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise Failure(f"{workload} {mode} child exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise Failure(f"{workload} {mode} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["child_s"] = time.monotonic() - spawn
    result["pre_factor"] = factor
    return result


def cold_start() -> tuple[float, str | None]:
    """Corrected wall time of a real CLI process validating a 2-point
    document."""
    factor = pre_factor()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "fintop.cli", "validate", "-"],
        cwd=ROOT,
        env=child_env(),
        input=COLD_DOC,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    took = (time.perf_counter() - t0) * factor
    try:
        ok = proc.returncode == 0 and json.loads(proc.stdout) == COLD_REPLY
    except ValueError:
        ok = False
    error = None if ok else f"cold start: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"
    return took, error


def probes(workload: str, seed: int, count: int) -> tuple[list, list, list]:
    """Alternate set-up-only children and CLI cold starts."""
    setups, colds, errors = [], [], []
    for _ in range(count):
        res = run_child(workload, seed, "setup")
        setups.append(res["setup_s"] * res["pre_factor"])
        took, error = cold_start()
        colds.append(took)
        errors += [error] if error else []
    return setups, colds, errors


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    run_child(workload, seed, "setup")  # compiles bytecode; not measured
    # Half the probes before the workload and half after, so that they
    # sample the machine at both ends of the run, not in one burst.
    setups, cold, cold_errors = probes(workload, seed, PROBES // 2)
    runs = []
    start = time.monotonic()
    while True:
        res = run_child(workload, seed, "run")
        runs.append(res)
        if time.monotonic() - start + res["child_s"] > seconds:
            break
    more = probes(workload, seed, PROBES - PROBES // 2)
    setups, cold, cold_errors = setups + more[0], cold + more[1], cold_errors + more[2]
    latencies = [t for r in runs for t in r["latencies_s"]]
    metrics = {
        "setup_s": statistics.median(setups + [r["setup_s"] * r["pre_factor"] for r in runs]),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "req_p50_ms": statistics.median(latencies) * 1e3,
        "req_p99_ms": nearest_rank(latencies, 0.99) * 1e3,
        "cold_start_ms": statistics.median(cold) * 1e3,
    }
    errors = [e for r in runs for e in r["errors"]] + cold_errors
    attempted = sum(r["attempted"] for r in runs) + len(cold)
    failed = sum(r["failed"] for r in runs) + len(cold_errors)
    print(f"# {workload}: {len(runs)} run(s), {len(latencies)} requests, seed {seed}")
    print(f"# uncorrected wall_s = {statistics.median(r['raw_wall_s'] for r in runs):.6g} s")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, attempted, failed, errors


def per_layer(workload: str, seed: int) -> tuple[dict, int, int, list[str]]:
    run_child(workload, seed, "setup")  # compiles bytecode; not measured
    plain = run_child(workload, seed, "run")
    traced = run_child(workload, seed, "trace")
    layer = dict(traced["layer"])
    layer["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    print(f"# {workload}: {traced['spans']} spans written under perfbench/out/")
    metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
    errors = plain["errors"] + traced["errors"]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return metrics, attempted, failed, errors


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fintop", "__init__.py")):
        print(f"no fintop sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, attempted, failed, errors = per_layer(args.workload, args.seed)
        else:
            metrics, attempted, failed, errors = end_to_end(args.workload, args.seed, args.seconds)
    except Failure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for err in errors[:10]:
        print(f"FAIL {err}", file=sys.stderr)
    correct = failed == 0 and not errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
