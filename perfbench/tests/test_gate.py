"""The benchmark's own gate must fail on known-bad results.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import cligen  # noqa: E402
import child  # noqa: E402
import gate  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

import fintop  # noqa: E402
from fintop import PointSet, closure, connect, docio, sweep_theorems  # noqa: E402


def off_by_one_closure(s, A):
    """The corrupted operator of acceptance criterion 9."""
    good = closure(s, A)
    full = (1 << s.n) - 1
    bits = (good.bits + 1) & full if good.bits != full else good.bits
    return PointSet(bits, s.n)


def test_sweep3_gate_rejects_corrupted_closure():
    report = sweep_theorems(3, overrides={"closure": off_by_one_closure})
    assert set(report) == set(gate.SWEEP3_THEOREMS)
    failures = gate.check_sweep3(report)
    assert any(f.startswith("closure_idempotent: ") for f in failures)
    assert len(failures) == sum(not entry["ok"] for entry in report.values())


def test_sweep3_gate_rejects_missing_and_unexpected_ids():
    good = {name: {"ok": True, "counterexample": None} for name in gate.SWEEP3_THEOREMS}
    assert gate.check_sweep3(good) == []
    bad = dict(good)
    del bad["base_laws"]
    bad["made_up"] = {"ok": True, "counterexample": None}
    assert gate.check_sweep3(bad) == [
        "base_laws: missing from the sweep report",
        "made_up: unexpected theorem id",
    ]


def test_enum5_gate_rejects_off_by_one_count():
    assert gate.check_enum5(dict(gate.ENUM5)) == []
    off = dict(gate.ENUM5, labeled=gate.ENUM5["labeled"] + 1)
    assert gate.check_enum5(off) == ["labeled: got 6943, expected 6942"]


def test_cli_oracle_rejects_wrong_replies():
    corpus = cligen.Corpus(seed=3)
    ops = next(r for r in corpus.requests if r.kind == "ops" and r.expect["doc"].n >= 4)
    d, s = ops.expect["doc"], ops.expect["set"]
    cl = cligen.closure(d.n, d.opens, s)
    it = cligen.interior(d.opens, s)
    right = {"closure": cligen.bits(cl), "interior": cligen.bits(it), "frontier": cligen.bits(cl & ~it)}
    assert cligen.check(ops, 0, right) is None
    assert cligen.check(ops, 1, right) is not None
    wrong = dict(right, closure=cligen.bits(((cl + 1) & ((1 << d.n) - 1)) or 1))
    assert cligen.check(ops, 0, wrong) is not None
    homeo = next(r for r in corpus.requests if r.kind == "homeo" and r.expect["homeomorphic"])
    n = homeo.expect["doc"].n
    assert cligen.check(homeo, 0, {"homeomorphic": True, "witness": [0] * n}) is not None


def test_known_bad_child_result_exits_nonzero(monkeypatch, capsys):
    def fake_child(workload, seed, mode):
        return {
            "setup_s": 0.1,
            "wall_s": 1.0,
            "latencies_s": [1.0],
            "attempted": 3,
            "failed": 1,
            "errors": ["labeled: got 6943, expected 6942"],
            "peak_rss_mb": 20.0,
            "child_s": 1.0,
            "pre_factor": 1.0,
            "raw_wall_s": 1.0,
        }

    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setattr(run, "cold_start", lambda: (0.2, None))
    code = run.main(["--workload", "enum5", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_rebinds_copies_and_restores():
    space_mod = sys.modules["fintop.space"]  # fintop.space is the function
    original = space_mod.validate_topology
    cache_info = connect.connected_set_masks.cache_info
    tracer = Tracer()
    tracer.install()
    try:
        assert docio.validate_topology is space_mod.validate_topology
        assert docio.validate_topology is not original
        assert fintop.validate_topology is docio.validate_topology
        assert connect.connected_set_masks.cache_info == cache_info
        docio.parse_space('{"n": 2, "opens": [[], [1], [0, 1]]}')
    finally:
        tracer.uninstall()
    assert space_mod.validate_topology is original
    assert docio.validate_topology is original
    assert fintop.validate_topology is original
    assert tracer.calls["docio.parse_space"] == 1
    assert tracer.calls["space.validate_topology"] == 1
    assert tracer.counters["validate_members"] == 3
    parse = tracer.name_id["docio.parse_space"]
    child_span = list(tracer.sp_name).index(tracer.name_id["space.validate_topology"])
    assert tracer.sp_name[tracer.sp_parent[child_span]] == parse


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])
    names = list(child.layer_metrics(Tracer(), {})) + ["trace.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corpus_shape_does_not_depend_on_seed(seed):
    corpus = cligen.Corpus(seed)
    assert len(corpus.requests) == sum(cligen.KINDS.values())
    for d in corpus.docs:
        assert d.opens == sorted(set(d.opens)) and d.opens[0] == 0
    check_docs = {r.expect["doc"].name for r in corpus.requests if r.kind == "check"}
    assert all(len(d.opens) <= cligen.CHECK_MAX_OPENS for d in corpus.all_docs() if d.name in check_docs)


def test_reference_samples_are_taken_out_of_timings():
    def busy():
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass

    with hostspeed.HostSpeed() as hs:
        t0 = time.perf_counter()
        _, (took, start, end) = child.timed(hs, busy)
        elapsed = time.perf_counter() - t0
        during = hs.spent
    assert during > 0
    assert abs(elapsed - took - during) < 0.005
    assert t0 <= start < end <= t0 + elapsed
    assert len(hs.samples) >= 2 * hostspeed.BRACKET + 2
    whole = hs.corrected(1.0, hs.starts[0], hs.starts[-1])
    assert whole == hostspeed.NOMINAL_REF_S / statistics.median(hs.samples)
    # A short interval is corrected by the samples nearest to it.
    first = hs.corrected(1.0, hs.starts[0], hs.starts[0])
    assert first == hostspeed.factor(hs.samples[: hostspeed.NEAREST])
