import contextlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fintop
from fintop import cli as cli_module
from fintop import enumeration as enum_mod
from fintop.cli import COVERAGE, cli_dispatch

SIERP = '{"n":2,"opens":[[],[1],[0,1]]}'
MIRROR = '{"n":2,"opens":[[],[0],[0,1]]}'
BAD = '{"n":2,"opens":[[],[0]]}'
THREE = '{"n":3,"opens":[[],[0],[0,1],[0,1,2]]}'
IND2 = '{"n":2,"opens":[[],[0,1]]}'
SINGLES = '{"n":2,"members":[[0],[1]]}'

FILES = {
    "sierp.json": SIERP,
    "mirror.json": MIRROR,
    "bad.json": BAD,
    "three.json": THREE,
    "ind2.json": IND2,
    "singles.json": SINGLES,
}

# The 12 fixed golden transcripts: argv -> (exact stdout line, exit code).
GOLDENS = [
    (
        ["validate", "sierp.json"],
        '{"canonical":{"n":2,"opens":[[],[1],[0,1]]},"valid":true}',
        0,
    ),
    (
        ["validate", "bad.json"],
        '{"valid":false,"violations":[{"kind":"MissingCarrier","witness":[]}]}',
        1,
    ),
    (["ops", "sierp.json", "--closure", "--set", "1"], '{"closure":[0,1]}', 0),
    (["check", "sierp.json", "--t1"], '{"t1":false}', 1),
    (
        ["generate", "--base", "singles.json"],
        '{"family":{"members":[[0],[1]],"n":2},"space":{"n":2,"opens":[[],[0],[1],[0,1]]}}',
        0,
    ),
    (
        ["subspace", "three.json", "--points", "0,2"],
        '{"inclusion":[0,2],"space":{"n":2,"opens":[[],[0],[0,1]]}}',
        0,
    ),
    (
        ["product", "sierp.json", "ind2.json"],
        '{"projection1":[0,0,1,1],"projection2":[0,1,0,1],"space":{"n":4,"opens":[[],[2,3],[0,1,2,3]]}}',
        0,
    ),
    (
        ["quotient", "sierp.json", "--blocks", "0,1"],
        '{"projection":[0,0],"space":{"n":1,"opens":[[],[0]]}}',
        0,
    ),
    (
        ["alexandroff", "ind2.json"],
        '{"space":{"n":3,"opens":[[],[0,1],[2],[0,1,2]]}}',
        0,
    ),
    (["components", "three.json"], '{"components":[[0,1,2]]}', 0),
    (
        ["homeo", "sierp.json", "mirror.json"],
        '{"homeomorphic":true,"witness":[1,0]}',
        0,
    ),
    (["enumerate", "--n", "3", "--count"], '{"count":29}', 0),
]


@pytest.fixture
def docs(tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, argv):
    code = cli_dispatch(argv)
    out = capsys.readouterr().out
    return out.rstrip("\n"), code


@pytest.mark.parametrize("argv,expected,code", GOLDENS, ids=lambda v: str(v)[:40])
def test_golden_transcripts(docs, capsys, argv, expected, code):
    out, got = run(capsys, argv)
    assert out == expected
    assert got == code
    # a second run is byte-identical
    out2, got2 = run(capsys, argv)
    assert out2 == expected and got2 == code


class TestExitCodes:
    def test_usage_unknown_subcommand(self, docs, capsys):
        out, code = run(capsys, ["frobnicate"])
        assert code == 64 and "usage_error" in out

    def test_usage_no_subcommand(self, docs, capsys):
        out, code = run(capsys, [])
        assert code == 64

    def test_usage_missing_flag(self, docs, capsys):
        out, code = run(capsys, ["ops", "sierp.json"])
        assert code == 64

    def test_input_error_bad_json(self, docs, capsys):
        (docs / "junk.json").write_text("{nope")
        out, code = run(capsys, ["validate", "junk.json"])
        assert code == 2 and "error" in json.loads(out)

    def test_input_error_carrier_too_large(self, docs, capsys):
        # The cap is checked before the point lists: the bad point after it
        # would otherwise be reported as a DocumentError.
        (docs / "huge.json").write_text(
            '{"n":%d,"opens":[[],[%d],[true]]}' % (10**8, 10**8 - 1)
        )
        out, code = run(capsys, ["validate", "huge.json"])
        assert code == 2
        assert json.loads(out)["error"].startswith("CarrierTooLarge:")

    def test_input_error_deep_nesting(self, docs, capsys):
        # Nesting past the JSON decoder's recursion limit is an input error.
        (docs / "deep.json").write_text("[" * 100_000)
        out, code = run(capsys, ["validate", "deep.json"])
        assert code == 2
        assert json.loads(out)["error"].startswith("DocumentError:")

    def test_input_error_missing_file(self, docs, capsys):
        out, code = run(capsys, ["check", "nothere.json", "--t0"])
        assert code == 2

    def test_input_error_bad_points(self, docs, capsys):
        out, code = run(capsys, ["ops", "sierp.json", "--closure", "--set", "7"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["quotient", "sierp.json", "--blocks", "0;9"],
            ["cover", "sierp.json", "--members", "0,1", "--subcover-of", "0;9"],
            ["cover", "sierp.json", "--members", "0,1", "--refines", "0,1;9"],
        ],
        ids=lambda argv: argv[-2],
    )
    def test_input_error_bad_block_points(self, docs, capsys, argv):
        # Block arguments are range-checked like --set.
        assert run(capsys, argv) == (
            '{"error":"DocumentError: point 9 outside carrier of size 2"}',
            2,
        )

    @pytest.mark.parametrize("argv", [[], *([c] for c in cli_module._HANDLERS)], ids=str)
    def test_help_returns_zero(self, capsys, argv):
        # argparse prints the help and exits; cli_dispatch returns that code.
        for flag in ("-h", "--help"):
            assert cli_dispatch([*argv, flag]) == 0
            assert capsys.readouterr().out.startswith("usage: ")

    def test_predicate_true_exit_zero(self, docs, capsys):
        out, code = run(capsys, ["check", "sierp.json", "--t0", "--connected"])
        assert code == 0
        assert json.loads(out) == {"t0": True, "connected": True}


def test_module_entry_point_runs_cli_once():
    # `python -m fintop.cli` runs cli.py only as __main__: the package does
    # not import it first, so runpy warns about nothing on stderr.
    env = dict(os.environ)
    src_root = str(Path(fintop.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fintop.cli", "validate", "-"],
        input='{"n": 2, "opens": [[], [1], [0, 1]]}',
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"canonical":{"n":2,"opens":[[],[1],[0,1]]},"valid":true}\n'
    assert proc.stderr == ""
    assert fintop.cli_dispatch is fintop.cli.cli_dispatch


def _cli_process_env():
    env = dict(os.environ)
    src_root = str(Path(fintop.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    return env


def test_reply_into_a_closed_pipe_exits_2():
    # `enumerate --n 5` writes 596,052 bytes, more than a pipe buffer holds,
    # so the write fails once the reader has closed its end.
    proc = subprocess.Popen(
        [sys.executable, "-m", "fintop.cli", "enumerate", "--n", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_process_env(),
    )
    head = proc.stdout.read(40)
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert head.startswith(b'{"count":6942,')
    assert proc.returncode == 2
    assert stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_reply_onto_a_full_device_exits_2():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "fintop.cli", "enumerate", "--n", "2", "--count"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=_cli_process_env(),
            timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr == ""


def test_validate_reads_stdin_for_a_dash(monkeypatch, capsys):
    # The cold-start probe's path (`fintop validate -`), in process.
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": 2, "opens": [[], [1], [0, 1]]}'))
    assert run(capsys, ["validate", "-"]) == (
        '{"canonical":{"n":2,"opens":[[],[1],[0,1]]},"valid":true}',
        0,
    )
    assert sys.stdin.read() == ""


_LAZY_SWEEP_SCRIPT = """
import contextlib, io, sys
# Record machinery that fintop must not load; one the interpreter loaded
# before fintop (a site hook, say) is not checked.
unloaded = [name for name in ("dataclasses", "inspect") if name not in sys.modules]
import fintop
from fintop import EnumConfig, cli_dispatch, count_topologies, enumerate_topologies

doc = sys.argv[1]
assert count_topologies(5) == 6942
assert sum(1 for _ in enumerate_topologies(EnumConfig(5, "up_to_homeomorphism"))) == 139
assert count_topologies(5, "t0") == 4231
with contextlib.redirect_stdout(io.StringIO()):
    assert cli_dispatch(["enumerate", "--n", "3", "--count"]) == 0
    assert cli_dispatch(["check", doc, "--t0"]) == 0
    assert cli_dispatch(["validate", doc]) == 0
# vars() and the enumeration module, not hasattr(fintop, ...): that would
# resolve the lazy export and import the sweep.
loaded = [name for name in ("fintop.theorems", "fintop.mapsweep") if name in sys.modules]
assert not loaded, loaded
assert "sweep_theorems" not in vars(fintop)
assert not hasattr(sys.modules["fintop.enumeration"], "sweep_theorems")

from fintop import sweep_theorems
with contextlib.redirect_stdout(io.StringIO()):
    assert cli_dispatch(["sweep", "--n", "2"]) == 0
assert sweep_theorems is sys.modules["fintop.theorems"].sweep_theorems
loaded = [name for name in unloaded if name in sys.modules]
assert not loaded, loaded
print("ok")
"""


def test_counting_and_documents_load_no_sweep_code(tmp_path):
    # The counts and the enumerate/check/validate subcommands never compile
    # the theorem sweep; `from fintop import sweep_theorems` and `fintop
    # sweep` still reach it.  None of it loads dataclasses or inspect.
    doc = tmp_path / "sierp.json"
    doc.write_text('{"n": 2, "opens": [[], [0], [0, 1]]}')
    env = dict(os.environ)
    src_root = str(Path(fintop.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SWEEP_SCRIPT, str(doc)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.stderr == ""
    assert proc.returncode == 0
    assert proc.stdout == "ok\n"


REUSE_SEQUENCE = [
    ["ops", "sierp.json"],
    ["validate", "junk.json"],
    ["validate", "bad.json"],
    ["--pretty", "check", "sierp.json", "--t0"],
    ["check", "sierp.json", "--t0"],
    ["generate", "--discrete", "2"],
    ["generate"],
    ["generate", "--discrete", "2", "--indiscrete", "2"],
    ["generate", "--indiscrete", "2"],
]


def test_parser_reuse_keeps_no_state(docs, capsys):
    # One parser serves every request in a process; replaying the same argv
    # sequence must give the same bytes and codes, and no flag may leak
    # from one request into the next.
    assert cli_module._build_parser() is cli_module._build_parser()
    (docs / "junk.json").write_text("{nope")
    first = [run(capsys, argv) for argv in REUSE_SEQUENCE]
    second = [run(capsys, argv) for argv in REUSE_SEQUENCE]
    assert first == second
    assert [code for _, code in first] == [64, 2, 1, 0, 0, 0, 64, 64, 0]
    assert first[3][0] == '{\n  "t0": true\n}'
    assert first[4][0] == '{"t0":true}'
    assert json.loads(first[8][0])["space"]["opens"] == [[], [0, 1]]


class TestMoreSubcommands:
    def test_validate_compare(self, docs, capsys):
        out, code = run(capsys, ["validate", "sierp.json", "--compare", "ind2.json"])
        obj = json.loads(out)
        assert code == 0
        assert obj["comparison"] == "strictly_finer" and obj["finer"] is True

    def test_ops_multi(self, docs, capsys):
        out, code = run(
            capsys,
            [
                "ops",
                "sierp.json",
                "--interior",
                "--frontier",
                "--set",
                "0",
                "--closed-sets",
            ],
        )
        assert json.loads(out) == {
            "interior": [],
            "frontier": [0],
            "closed_sets": [[], [0], [0, 1]],
        }

    def test_ops_roles_and_relation(self, docs, capsys):
        out, _ = run(
            capsys,
            ["ops", "sierp.json", "--roles", "--point", "0", "--set", "1"],
        )
        assert json.loads(out)["roles"]["limit"] is True
        out, _ = run(
            capsys,
            ["ops", "sierp.json", "--relation", "--set", "0", "--set2", "1"],
        )
        assert json.loads(out)["relation"] == "neither"

    def test_check_full_and_t1_minimum(self, docs, capsys):
        out, code = run(capsys, ["check", "sierp.json", "--full", "--t1-minimum"])
        obj = json.loads(out)
        assert obj["separation"]["t0"] is True
        assert obj["compactness"]["compact"] is True
        assert obj["t1_minimum"]["opens"] == [[], [0], [1], [0, 1]]

    def test_check_builds_separation_report_only_when_asked(
        self, docs, capsys, monkeypatch
    ):
        def refuse(s):
            raise AssertionError("separation_report built")

        monkeypatch.setattr(cli_module.separation_mod, "separation_report", refuse)
        out, code = run(capsys, ["check", "sierp.json", "--connected", "--compact"])
        assert json.loads(out) == {"compact": True, "connected": True}
        assert code == 0

    def test_separation_flags_go_through_the_report(self, docs, capsys, monkeypatch):
        # Each separation flag is read from separation_report, whose ladder
        # check can fail the request.
        def broken_ladder(s):
            raise fintop.CrossCheckFailure("separation ladder T2 => T1 => T0 broken")

        monkeypatch.setattr(cli_module.separation_mod, "separation_report", broken_ladder)
        for flag in fintop.SeparationReport.__slots__:
            out, code = run(capsys, ["check", "sierp.json", f"--{flag}"])
            assert code == 2 and json.loads(out)["error"].startswith("CrossCheckFailure:")

    def test_generate_variants(self, docs, capsys):
        out, code = run(capsys, ["generate", "--discrete", "2"])
        assert json.loads(out)["space"]["opens"] == [[], [0], [1], [0, 1]]
        (docs / "metric.json").write_text('{"d":[[0,1],[1,0]]}')
        out, _ = run(capsys, ["generate", "--metric", "metric.json"])
        assert json.loads(out)["space"]["opens"] == [[], [0], [1], [0, 1]]
        out, code = run(
            capsys, ["generate", "--base", "singles.json", "--is-base-for", "ind2.json"]
        )
        assert code == 1 and json.loads(out)["is_base"] is False

    def test_homeo_map_report(self, docs, capsys):
        out, code = run(
            capsys, ["homeo", "sierp.json", "sierp.json", "--map", "0,1"]
        )
        obj = json.loads(out)
        assert code == 0
        assert obj["homeomorphism"] is True and obj["continuous_at"] == [0, 1]

    def test_homeo_limits(self, docs, capsys):
        out, _ = run(
            capsys,
            [
                "homeo",
                "ind2.json",
                "ind2.json",
                "--map",
                "0,1",
                "--limit-set",
                "1",
                "--limit-point",
                "0",
            ],
        )
        assert json.loads(out)["limits"] == [0, 1]

    def test_cover(self, docs, capsys):
        out, code = run(
            capsys,
            ["cover", "three.json", "--members", "0,1,2;0", "--minimal"],
        )
        obj = json.loads(out)
        assert obj["is_cover"] and obj["minimal_subcover"] == [[0, 1, 2]]

    def test_cover_pasting(self, docs, capsys):
        (docs / "map.json").write_text(
            json.dumps(
                {
                    "dom": json.loads(SIERP),
                    "cod": json.loads(SIERP),
                    "table": [0, 1],
                }
            )
        )
        out, code = run(
            capsys,
            ["cover", "sierp.json", "--members", "0,1", "--paste", "map.json"],
        )
        assert json.loads(out)["pasting_holds"] is True

    def test_enumerate_modes(self, docs, capsys):
        out, _ = run(capsys, ["enumerate", "--n", "3", "--count", "--mode", "classes"])
        assert json.loads(out) == {"count": 9}
        out, _ = run(
            capsys,
            ["enumerate", "--n", "3", "--count", "--predicate", "t1"],
        )
        assert json.loads(out) == {"count": 1}

    def test_enumerate_listing(self, docs, capsys):
        out, _ = run(capsys, ["enumerate", "--n", "1"])
        assert json.loads(out) == {
            "count": 1,
            "spaces": [{"n": 1, "opens": [[], [0]]}],
        }

    def test_sweep(self, docs, capsys):
        out, code = run(capsys, ["sweep", "--n", "1"])
        obj = json.loads(out)
        assert code == 0 and obj["all_pass"] is True
        assert all(rec["ok"] for rec in obj["theorems"].values())

    def test_pretty(self, docs, capsys):
        out, _ = run(capsys, ["--pretty", "check", "sierp.json", "--t0"])
        assert out == '{\n  "t0": true\n}'


class TestEnumerateCount:
    @pytest.mark.parametrize("n", range(6))
    def test_count_matches_enumeration(self, docs, capsys, n):
        for mode, enum_mode in (("labeled", "labeled"), ("classes", "up_to_homeomorphism")):
            for predicate in (None, "connected"):
                argv = ["enumerate", "--n", str(n), "--count", "--mode", mode]
                if predicate is not None:
                    argv += ["--predicate", predicate]
                cfg = enum_mod.EnumConfig(n, enum_mode, predicate)
                expected = '{"count":%d}' % sum(1 for _ in enum_mod.enumerate_topologies(cfg))
                assert run(capsys, argv) == (expected, 0)

    def test_labeled_count_builds_no_space(self, docs, capsys, monkeypatch):
        def refuse(n, opens, ups):
            raise AssertionError("a space was built")

        monkeypatch.setattr(enum_mod, "_build", refuse)
        assert run(capsys, ["enumerate", "--n", "5", "--count"]) == ('{"count":6942}', 0)
        # The patched builder is the one the enumeration calls.
        with pytest.raises(AssertionError, match="^a space was built$"):
            next(enum_mod.enumerate_topologies(enum_mod.EnumConfig(1)))


def _doc24(opens):
    return json.dumps({"n": 24, "opens": opens})


def _members(*blocks):
    return ";".join(",".join(map(str, block)) for block in blocks)


LOW, HIGH, ALL = list(range(12)), list(range(12, 24)), list(range(24))
CAP_DOCS = {
    "chain24.json": _doc24([list(range(k)) for k in range(25)]),
    "indiscrete24.json": _doc24([[], ALL]),
    "blocks24.json": _doc24([[], LOW, HIGH, ALL]),
}
# (document, components, 2-member cover, its is_cover/open/closed/fundamental);
# the chain's halves overlap in point 12, which joins them transitively.
CAP_CASES = [
    ("chain24.json", [ALL], _members(range(13), HIGH), (True, False, False, True)),
    ("chain24.json", [ALL], _members(LOW, HIGH), (True, False, False, False)),
    ("indiscrete24.json", [ALL], _members(LOW, HIGH), (True, False, False, False)),
    ("blocks24.json", [LOW, HIGH], _members(LOW, HIGH), (True, True, True, True)),
]
CAP_SECONDS = 1.0


def _circulant24(offsets):
    """The height-1 circulant on 24 points: 0..11 are open singletons and
    U_{12+p} = {12+p} | {(p+o) % 12 : o in offsets}; 35,504 opens for the
    offsets used below."""
    ups = [1 << p for p in range(12)]
    ups += [1 << 12 + p | sum(1 << (p + o) % 12 for o in offsets) for p in range(12)]
    opens = {0}
    for u in ups:
        opens |= {m | u for m in opens}
    return _doc24([[p for p in ALL if m >> p & 1] for m in sorted(opens)])
_SEP_FLAGS = ("t0", "t1", "t2", "t3", "t4", "regular", "normal")


def _sep(true_flags):
    return {flag: flag in true_flags for flag in _SEP_FLAGS}


# (document, separation report, ordered pairs indistinguishable / separated)
CAP_SEPARATION = [
    ("chain24.json", _sep({"t0", "t4"}), 24, 0),
    ("indiscrete24.json", _sep({"t3", "t4"}), 576, 0),
    ("blocks24.json", _sep({"t3", "t4"}), 288, 288),
    ("discrete16.json", _sep(_SEP_FLAGS), 16, 240),
]


class TestCarrierCapBudgets:
    """Connectivity, cover and separation requests on 24-point documents,
    and separation requests on the discrete space on 16 points, finish in
    bounded time: none of them may scan the 2**24 subsets or compare
    neighborhood families."""

    @pytest.fixture
    def cap_docs(self, docs):
        for name, text in CAP_DOCS.items():
            (docs / name).write_text(text)
        return docs

    def timed(self, capsys, argv):
        start = time.perf_counter()
        out, code = run(capsys, argv)
        elapsed = time.perf_counter() - start
        assert elapsed < CAP_SECONDS, f"{argv} took {elapsed:.2f} s"
        return json.loads(out), code

    @pytest.mark.parametrize(
        "name,blocks,members,cover",
        CAP_CASES,
        ids=["chain-overlapping", "chain-halves", "indiscrete-halves", "blocks-halves"],
    )
    def test_connectivity_and_cover(self, cap_docs, capsys, name, blocks, members, cover):
        assert self.timed(capsys, ["components", name]) == ({"components": blocks}, 0)
        assert self.timed(capsys, ["check", name, "--locally-connected"]) == (
            {"locally_connected": True},
            0,
        )
        assert self.timed(capsys, ["check", name, "--totally-disconnected"]) == (
            {"totally_disconnected": False},
            1,
        )
        obj, code = self.timed(capsys, ["cover", name, "--members", members])
        got = (obj["is_cover"], obj["open_cover"], obj["closed_cover"], obj["fundamental"])
        assert (got, code) == (cover, 0)

    @pytest.mark.parametrize(
        "name,report,indistinguishable,separated",
        CAP_SEPARATION,
        ids=[case[0].removesuffix(".json") for case in CAP_SEPARATION],
    )
    def test_separation(
        self, cap_docs, capsys, name, report, indistinguishable, separated
    ):
        if name == "discrete16.json":
            # The 65,536-open document is asked all seven flags at once: its
            # parse takes 0.10-0.13 s of the budget on a 2-core x86 host.
            opens = [[p for p in range(16) if m >> p & 1] for m in range(1 << 16)]
            (cap_docs / name).write_text(json.dumps({"n": 16, "opens": opens}))
            requests = [list(report)]
        else:
            requests = [[flag] for flag in report]
        for flags in requests:
            want = {flag: report[flag] for flag in flags}
            argv = ["check", name, *(f"--{flag}" for flag in flags)]
            assert self.timed(capsys, argv) == (want, 0 if all(want.values()) else 1)
        obj, code = self.timed(capsys, ["check", name, "--full"])
        assert (obj["separation"], code) == (report, 0)
        s = fintop.parse_space((cap_docs / name).read_text())
        start = time.perf_counter()
        classes = [fintop.classify_pair(s, p, q) for p in range(s.n) for q in range(s.n)]
        assert time.perf_counter() - start < CAP_SECONDS
        assert sum(c.indistinguishable for c in classes) == indistinguishable
        assert sum(c.separated for c in classes) == separated

    def test_maps_on_circulants(self, cap_docs, capsys):
        # Every map predicate reads the 24 minimal opens, never the 35,504
        # opens of each document.
        (cap_docs / "c24.json").write_text(_circulant24((0, 1, 3)))
        (cap_docs / "c24b.json").write_text(_circulant24((0, 9, 11)))
        identity = ",".join(map(str, ALL))
        argv = ["homeo", "c24.json", "c24.json", "--map", identity]
        obj, code = self.timed(capsys, argv)
        assert code == 0 and obj["continuous_at"] == ALL
        assert obj["homeomorphism"] and obj["embedding"] and obj["closed_map"]
        fold = ",".join(str(p % 12) for p in ALL)
        obj, code = self.timed(capsys, ["homeo", "c24.json", "c24b.json", "--map", fold])
        assert code == 1 and obj["continuous_at"] == LOW
        # Every subset of the open singletons 0..11 is open.
        assert obj["open_map"] and not (obj["continuous"] or obj["embedding"])
        limit = ["--limit-set", ",".join(map(str, LOW)), "--limit-point", "12"]
        obj, code = self.timed(capsys, argv + limit)
        assert code == 0 and obj["limits"] == [12]

    def test_quotient_by_singletons(self, cap_docs, capsys):
        # The 2**24 sets of blocks are not scanned: the quotient opens are
        # the images of the 25 saturated opens.
        singletons = ";".join(str(p) for p in ALL)
        obj, code = self.timed(capsys, ["quotient", "chain24.json", "--blocks", singletons])
        assert code == 0
        assert obj == {
            "projection": ALL,
            "space": {"n": 24, "opens": [list(range(k)) for k in range(25)]},
        }


def test_check_full_budget(docs, capsys):
    # The compactness flags come from the minimal opens: no subcover search
    # over the 512 opens of the 9-point discrete space.
    opens = [[p for p in range(9) if m >> p & 1] for m in range(1 << 9)]
    (docs / "discrete9.json").write_text(json.dumps({"n": 9, "opens": opens}))
    start = time.perf_counter()
    out, code = run(capsys, ["check", "discrete9.json", "--full"])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"check --full took {elapsed:.2f} s"
    assert json.loads(out)["compactness"] == {"compact": True, "locally_compact": True}
    assert code == 0


# `cli_golden.json` holds the documents its argvs name ("files") and, per
# argv, the stdout and exit code the CLI gave when its replies were still
# copied field by field from the library's reports ("cases").  The cases
# that pass an empty path to `generate` or `validate --compare` came later,
# with the fix that reads such a path like any other (exit 2).
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.fixture
def golden_docs(tmp_path, monkeypatch):
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


def _subcommand(argv):
    return next((arg for arg in argv if arg != "--pretty"), None)


def test_golden_corpus(golden_docs):
    """Every subcommand and flag, usage and input errors included: stdout
    and exit code byte for byte."""
    mismatches = []
    for case in GOLDEN["cases"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_dispatch(case["argv"])
        if (out.getvalue(), code) != (case["stdout"], case["code"]):
            mismatches.append((case["argv"], out.getvalue(), code))
    assert not mismatches
    assert {_subcommand(case["argv"]) for case in GOLDEN["cases"]} >= set(COVERAGE)


# Operations that no subcommand computes.
UNREACHED = {
    "family_intersection": "the CLI builds no intersection of a family",
    "subsets_iter": "no subcommand lists the subsets of a carrier",
}
# Operations whose work the CLI reaches through another function.
CALLED_AS = {
    "emit_space": "docio.space_obj",
    "emit_map": "docio.map_obj",
    "emit_family": "docio.family_obj",
    "homeomorphic": "maps.find_homeomorphism",
}


def _code(name):
    module, _, attr = name.rpartition(".")
    owner = importlib.import_module(f"fintop.{module}") if module else fintop
    return inspect.unwrap(getattr(owner, attr)).__code__


class TestCoverage:
    def test_every_operation_listed(self):
        covered = {name for names in COVERAGE.values() for name in names}
        operations = set(fintop.OPERATIONS) - {"cli_dispatch"}
        assert covered.isdisjoint(UNREACHED)
        missing = operations - covered - set(UNREACHED)
        assert not missing, f"operations without a subcommand: {sorted(missing)}"
        for name in covered:
            assert hasattr(fintop, name), name

    def test_table_columns(self):
        # The module column names the module that defines the operation,
        # and the command column a subcommand or "-".
        assert len(set(fintop.OPERATIONS)) == len(fintop.OPERATION_TABLE)
        for name, module, command in fintop.OPERATION_TABLE:
            assert getattr(fintop, name).__module__ == f"fintop.{module}", name
            assert command in cli_module._HANDLERS or command == "-", name

    def test_every_operation_reachable(self, golden_docs):
        # Trace the golden argvs of each subcommand; each operation that
        # COVERAGE lists under it must run.
        called = {command: set() for command in COVERAGE}
        for case in GOLDEN["cases"]:
            seen = called.get(_subcommand(case["argv"]), set())

            def profile(frame, event, arg):
                if event == "call":
                    seen.add(frame.f_code)

            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli_dispatch(case["argv"])
            finally:
                sys.setprofile(None)
        missed = [
            (command, name)
            for command, names in COVERAGE.items()
            for name in names
            if _code(CALLED_AS.get(name, name)) not in called[command]
        ]
        assert not missed


# Arbitrary JSON values, plus space-shaped objects whose "n" and point lists
# straddle the carrier cap and the point range.
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "opens", "name", "x"]), inner, max_size=4),
    max_leaves=20,
)
_points = st.integers(-2, 26) | _json_values
_space_like = st.fixed_dictionaries(
    {
        "n": st.integers(-2, 30) | _json_values,
        "opens": st.lists(st.lists(_points, max_size=6), max_size=8) | _json_values,
    }
)
# Families that hold the empty set and the carrier, so that some are valid.
_near_valid = st.integers(0, 24).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, max(n - 1, 0)), max_size=n), max_size=6
    ).map(lambda opens: {"n": n, "opens": [[], list(range(n)), *opens]})
)
_documents = st.binary(max_size=300) | st.one_of(
    _json_values, _space_like, _near_valid
).map(lambda doc: json.dumps(doc).encode())

FUZZED_COMMANDS = [
    ["validate"],
    ["check", "--t0"],
    ["ops", "--set", "0", "--closure"],
]
PER_EXAMPLE_SECONDS = 2.0


@pytest.mark.parametrize("command", FUZZED_COMMANDS, ids=lambda c: " ".join(c))
# Only the command's own time is bounded, not the time spent drawing inputs.
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(document=_documents)
def test_exit_code_contract_on_any_input(command, document):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(document)
        argv = [command[0], path, *command[1:]]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli_dispatch(argv)
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 64)
    json.loads(out.getvalue())  # one JSON document on stdout, whatever the input
    assert elapsed < PER_EXAMPLE_SECONDS, f"{argv} took {elapsed:.2f} s"


def _parse_outcome(parse, argv):
    """What parsing ``argv`` gives: a namespace, a usage error's message,
    or the help text and exit code."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return parse(argv)
    except cli_module._UsageError as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


def _route_mismatch(argv):
    """``cli_dispatch`` parses an argv that starts with a subcommand with
    that subcommand's parser alone; the top-level parser must agree."""
    direct = _parse_outcome(cli_module._parse_args, argv)
    top = _parse_outcome(cli_module._build_parser()[0].parse_args, argv)
    return None if direct == top else (argv, direct, top)


# Abbreviations, `--` and help after a subcommand, and first words that
# are only a prefix of a subcommand's name.
ROUTE_ARGVS = [
    ["validate", "x", "--pre"],
    ["validate", "x", "--pretty"],
    ["ops", "x", "--", "--set"],
    ["generate", "--disc", "2"],
    ["check", "x", "--t"],
    ["check", "x", "-h"],
    *([name, "-h"] for name in COVERAGE),
    ["val", "sierp.json"],
    ["enum", "--n", "2"],
    ["", "sierp.json"],
    ["--pretty", "validate", "x"],
]


def test_routes_agree():
    argvs = [case["argv"] for case in GOLDEN["cases"]] + REUSE_SEQUENCE + ROUTE_ARGVS
    assert not [m for m in map(_route_mismatch, argvs) if m is not None]


_SUBPARSERS = cli_module._build_parser()[1]
# Every golden document, an empty path, and malformed numbers and point
# lists; never "-", which would read stdin.
_ARGV_VALUES = st.sampled_from(sorted(GOLDEN["files"])) | st.sampled_from(
    ["", "-1", "0,1", "0;1", "x", "99999999999999999999"]
)


def _argv_tail(command):
    """Options of ``command``, alone or with a value, and bare values."""
    option = st.sampled_from(sorted(_SUBPARSERS[command]._option_string_actions))
    token = (
        option.map(lambda o: [o])
        | _ARGV_VALUES.map(lambda v: [v])
        | st.tuples(option, _ARGV_VALUES).map(list)
    )
    return st.lists(token, max_size=5).map(
        lambda tokens: [command, *(t for pair in tokens for t in pair)]
    )


def _small_n(argv):
    """`enumerate` and `sweep` above n = 3 take too long for a fuzz."""
    values = [v for flag, v in zip(argv, argv[1:]) if flag == "--n"]
    return all(not v.lstrip("-").isdigit() or int(v) <= 3 for v in values)


_argvs = st.sampled_from(sorted(_SUBPARSERS)).flatmap(_argv_tail).filter(_small_n)


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(argv=_argvs)
# Empty paths once reached `Path(None)` and raised TypeError; drawing one of
# these takes thousands of examples.
@example(argv=["generate", "--base", ""])
@example(argv=["generate", "--metric", ""])
@example(argv=["generate", "--metric", "", "--base2", "x"])
@example(argv=["generate", "--base", "", "--is-base-for", "chain3.json"])
def test_exit_code_contract_on_any_argv(golden_docs, argv):
    assert _route_mismatch(argv) is None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_dispatch(argv)
    assert code in (0, 1, 2, 64)
    if out.getvalue().startswith("usage: "):  # -h or --help
        assert code == 0
    else:
        json.loads(out.getvalue())  # one JSON document on stdout
