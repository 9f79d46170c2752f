"""Run one workload once in this fresh process and print its result.

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWN_TIME

MODE is ``setup`` (set up, then stop), ``run`` (untraced) or ``trace``
(per-layer tracing).  SPAWN_TIME is the parent's ``time.monotonic()``
just before it started this process, so ``setup_s`` covers interpreter
start, ``import fintop`` and input generation.  The package is imported
from ``PYTHONPATH``; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

import fintop
from fintop import cli, connect

import gate
from hostspeed import HostSpeed

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def timed(hs: HostSpeed, call):
    """Run ``call()``; return its result and its timing: the seconds it took
    less the reference samples taken meanwhile, its start and its end."""
    spent, t0 = hs.spent, time.perf_counter()
    out = call()
    t1 = time.perf_counter()
    return out, (t1 - t0 - (hs.spent - spent), t0, t1)


class Workload:
    """Fixed inputs by default; a workload with inputs builds them here."""

    def __init__(self, seed: int) -> None:
        pass

    def close(self) -> None:
        pass


class Sweep3(Workload):
    """``sweep_theorems(3)`` with its defaults, as ``fintop sweep --n 3``."""

    def run(self, hs, tracer=None) -> dict:
        if tracer is None:
            report, timing = timed(hs, lambda: fintop.sweep_theorems(3))
            return self._result(report, [timing], {})
        # Traced: one call per theorem, through the same public entry point,
        # so each theorem's time is its own; then the map sweep alone.
        report, layer, timings = {}, {}, []
        for name in gate.SINGLE_SPACE_THEOREMS:
            tracer.run_id += 1
            part, timing = timed(
                hs, lambda: fintop.sweep_theorems(3, theorems=[name], include_maps=False)
            )
            report.update(part)
            layer[f"enumeration.theorem.{name}_s"] = timing[0]
            timings.append(timing)
        tracer.run_id += 1
        part, timing = timed(hs, lambda: fintop.sweep_theorems(3, theorems=[], include_maps=True))
        report.update(part)
        layer["enumeration.map_sweep_s"] = timing[0]
        timings.append(timing)
        return self._result(report, timings, layer)

    @staticmethod
    def _result(report, timings, layer) -> dict:
        errors = gate.check_sweep3(report)
        return {
            "timings": timings,
            "attempted": len(set(report) | set(gate.SWEEP3_THEOREMS)),
            "failed": len(errors),
            "errors": errors,
            "layer": layer,
        }


class Enum5(Workload):
    """Labeled count, homeomorphism classes and T0 count at n = 5."""

    def run(self, hs, tracer=None) -> dict:
        steps = (
            ("labeled", lambda: fintop.count_topologies(5)),
            (
                "classes",
                lambda: sum(
                    1
                    for _ in fintop.enumerate_topologies(
                        fintop.EnumConfig(5, "up_to_homeomorphism")
                    )
                ),
            ),
            ("t0", lambda: fintop.count_topologies(5, "t0")),
        )
        counts, timings = {}, []
        for key, step in steps:
            if tracer is not None:
                tracer.run_id += 1
            counts[key], timing = timed(hs, step)
            timings.append(timing)
        errors = gate.check_enum5(counts)
        return {
            "timings": timings,
            "attempted": len(gate.ENUM5),
            "failed": len(errors),
            "errors": errors,
            "layer": {f"enumeration.enum5_{key}_s": t[0] for key, t in zip(counts, timings)},
        }


class CliDocs(Workload):
    """A closed loop of in-process ``cli_dispatch`` requests over a seeded
    corpus of space documents, each checked against a brute-force oracle."""

    def __init__(self, seed: int) -> None:
        import cligen

        self.cligen = cligen
        self.workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        self.corpus = cligen.Corpus(seed)
        self.corpus.write(self.workdir)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, hs, tracer=None) -> dict:
        dispatch = cli.cli_dispatch

        def ask(argv):
            try:
                return dispatch(argv)
            except Exception as exc:  # a crash is a failed request
                return f"{type(exc).__name__}: {exc}"

        timings, errors = [], []
        for req in self.corpus.requests:
            if tracer is not None:
                tracer.run_id += 1
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code, timing = timed(hs, lambda: ask(req.argv))
            timings.append(timing)
            # The client checks each reply before it sends the next request;
            # that time is not the server's, so wall_s sums the latencies.
            text = buf.getvalue()
            try:
                reason = self.cligen.check(req, code, json.loads(text.splitlines()[-1]))
            except (ValueError, IndexError, KeyError, TypeError) as exc:
                reason = f"unreadable reply {text[:100]!r}: {exc}"
            if reason is not None:
                errors.append(f"{req.kind} {' '.join(req.argv)[:120]}: {reason}")
        return {
            "timings": timings,
            "attempted": len(self.corpus.requests),
            "failed": len(errors),
            "errors": errors,
            "layer": {},
        }


WORKLOADS = {"sweep3": Sweep3, "enum5": Enum5, "cli_docs": CliDocs}


def layer_metrics(tracer, run_layer: dict) -> dict:
    """The per-layer metrics of one traced run (overhead is the parent's)."""
    from tracing import LAYERS

    totals = tracer.layer_totals()
    all_self = sum(t["self_s"] for t in totals.values()) or 1.0
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = totals[layer]["calls"]
        out[f"{layer}.self_s"] = totals[layer]["self_s"]
        out[f"{layer}.self_share"] = totals[layer]["self_s"] / all_self
    c = tracer.counters
    out["carrier.family_masks_reads"] = c["family_masks_reads"]
    out["carrier.family_contains_calls"] = c["family_contains_calls"]
    out["carrier.pointset_built"] = c["pointset_built"]
    out["space.validate_calls"] = tracer.calls.get("space.validate_topology", 0)
    out["space.validate_members"] = c["validate_members"]
    out["enumeration.canonical_form_calls"] = tracer.calls.get("enumeration.canonical_form", 0)
    out["enumeration.canonical_form_self_s"] = tracer.self_s.get("enumeration.canonical_form", 0.0)
    out["enumeration.topologies_minopen_self_s"] = tracer.self_s.get(
        "enumeration.topologies_minopen", 0.0
    )
    out["maps.homeo_found_ratio"] = (
        c["homeo_found"] / c["homeo_searched"] if c["homeo_searched"] else 0.0
    )
    info = connect.connected_set_masks.cache_info()
    looked = info.hits + info.misses
    out["connect.cache_hit_ratio"] = info.hits / looked if looked else 0.0
    for key in gate.ENUM5:
        out[f"enumeration.enum5_{key}_s"] = 0.0
    out["enumeration.map_sweep_s"] = 0.0
    for name in gate.SINGLE_SPACE_THEOREMS:
        out[f"enumeration.theorem.{name}_s"] = 0.0
    out.update(run_layer)
    return out


def main(argv) -> int:
    workload, seed, mode, spawn = argv[0], int(argv[1]), argv[2], float(argv[3])
    wl = WORKLOADS[workload](seed)
    try:
        result = {"setup_s": time.monotonic() - spawn}
        if mode == "run":
            with HostSpeed() as hs:
                result.update(wl.run(hs))
        elif mode == "trace":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            # No periodic samples here: they would count in the spans.
            try:
                with HostSpeed(periodic=False) as hs:
                    result.update(wl.run(hs, tracer))
            finally:
                tracer.uninstall()
            result["layer"] = layer_metrics(tracer, result["layer"])
            os.makedirs(OUT_DIR, exist_ok=True)
            result["spans"] = tracer.write_spans(
                os.path.join(OUT_DIR, f"spans-{workload}.txt")
            )
        if mode != "setup":
            timings = result.pop("timings")
            result["latencies_s"] = [hs.corrected(*t) for t in timings]
            result["wall_s"] = sum(result["latencies_s"])
            result["raw_wall_s"] = sum(t[0] for t in timings)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
