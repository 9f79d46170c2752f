"""Which counterexample returns of the theorem sweep do the tests run?

Run from the repository root (extra arguments go to pytest):

    PYTHONPATH=src python tests/trace_returns.py [-q ...]

It runs pytest in this process, with ``sys.settrace`` on inside each call
of ``theorems._sweep`` and line events only in frames of
``fintop.theorems``, then keys every ``return`` of a registered check
by its theorem and message (an f-string keeps its ``{...}`` fields).  The
run fails (exit 1) if any of these returns never ran, and names each one.
If the tests themselves fail, pytest's exit code is returned.  The file is
not collected by pytest (its name has no ``test_`` prefix).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


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
    returns = counterexample_returns()
    unrun = sorted(key for key, lines in returns.items() if ran.isdisjoint(lines))
    print(f"{len(unrun)} counterexample returns unrun")
    for theorem, message in unrun:
        print(f"unrun: {theorem}: {message}")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
