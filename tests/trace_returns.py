"""Which counterexample returns of the theorem sweep do the tests run?

Run from the repository root (extra arguments go to pytest):

    PYTHONPATH=src python tests/trace_returns.py [-q ...]

It runs pytest in this process, with ``sys.settrace`` on inside each call
of ``theorems._sweep`` and line events only in frames of
``fintop.theorems``, then keys every ``return`` of a registered check
by its theorem and message (an f-string keeps its ``{...}`` fields).  A
return that never ran must be on the backlog: a row of the unreached
returns table in ``CHANGES.md`` whose status cell reads ``backlog``.  The
run fails (exit 1) on an unrun return missing from the backlog, and on a
backlog row that names no unrun return, so the backlog only shrinks.  If
the tests themselves fail, pytest's exit code is returned.  The file is
not collected by pytest (its name has no ``test_`` prefix).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"

#: A backlog row: | `theorem` | `message` | backlog | ... (pipes in a cell
#: are escaped as \|).
_CELL = re.compile(r"(?<!\\)\|")


def _message(node: ast.expr) -> str:
    """The message of a counterexample expression: the first argument of a
    ``cx`` call, or the expression itself; f-string fields as {source}."""
    if isinstance(node, ast.Call) and node.args:
        node = node.args[0]
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(
            str(part.value) if isinstance(part, ast.Constant) else "{" + ast.unparse(part.value) + "}"
            for part in node.values
        )
    return ast.unparse(node)


def counterexample_returns() -> dict[tuple[str, str], range]:
    """(theorem, message) -> the lines of that return statement."""
    from fintop import theorems

    theorem_of = {check.__name__: name for name, check, _ in theorems.SINGLE_SPACE_THEOREMS}
    out = {}
    for fn in ast.parse(Path(theorems.__file__).read_text()).body:
        if not isinstance(fn, ast.FunctionDef) or fn.name not in theorem_of:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                key = (theorem_of[fn.name], _message(node.value))
                if key in out:
                    raise ValueError(f"two returns share the key {key}")
                out[key] = range(node.lineno, node.end_lineno + 1)
    return out


def backlog() -> set[tuple[str, str]]:
    """The (theorem, message) keys of the backlog rows of CHANGES.md."""
    rows = set()
    for line in CHANGES.read_text().splitlines():
        cells = [c.strip().replace("\\|", "|") for c in _CELL.split(line)[1:-1]]
        if len(cells) >= 3 and cells[2] == "backlog":
            rows.add((cells[0].strip("`"), cells[1].strip("`")))
    return rows


def main(argv: list[str]) -> int:
    import pytest

    from fintop import theorems

    source = theorems.__file__
    ran: set[int] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == source else None

    # Traced only inside a sweep, so the rest of the suite (its budget
    # tests among them) runs at full speed.
    real = theorems._sweep

    def traced(*args, **kwargs):
        previous = sys.gettrace()
        sys.settrace(calls)
        try:
            return real(*args, **kwargs)
        finally:
            sys.settrace(previous)

    theorems._sweep = traced
    try:
        status = pytest.main(["-p", "no:cacheprovider", *argv])
    finally:
        theorems._sweep = real
    if status != 0:
        return int(status)
    unrun = {key for key, lines in counterexample_returns().items() if ran.isdisjoint(lines)}
    listed = backlog()
    new, stale = sorted(unrun - listed), sorted(listed - unrun)
    print(f"{len(unrun)} counterexample returns unrun, {len(listed)} on the backlog")
    for theorem, message in new:
        print(f"unrun, not on the backlog: {theorem}: {message}")
    for theorem, message in stale:
        print(f"on the backlog, but run or gone: {theorem}: {message}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
