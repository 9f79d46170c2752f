"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

import fintop

PACKAGE = sorted(Path(fintop.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os (line 1)"]
    assert unused_imports("from .a import b as c\nc()\n") == []


@pytest.mark.parametrize(
    "path",
    MODULES + TESTS,
    ids=lambda p: p.name if p in MODULES else f"tests/{p.name}",
)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def repeated_import_sources(source: str) -> list[str]:
    """Modules that two module-level ``from ... import`` statements both
    reach, with their lines.  ``from . import x`` and ``from .x import y``
    both reach ``.x``.  An import inside a function may be deferred on
    purpose, so it does not count."""
    lines: dict[str, list[int]] = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
            for name in names:
                lines.setdefault("." * node.level + name, []).append(node.lineno)
    return [f"{module} (lines {at})" for module, at in lines.items() if len(at) > 1]


def test_scan_flags_a_repeated_import_source():
    source = (
        "import os\n"
        "from os import path\n"
        "from . import a\n"
        "from . import b\n"
        "from .x import y\n"
        "from .a import c\n"
        "from .x import z\n"
        "def f():\n"
        "    from .a import w\n"
    )
    assert repeated_import_sources(source) == [".a (lines [3, 6])", ".x (lines [5, 7])"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_each_module_is_imported_from_once(path):
    assert repeated_import_sources(path.read_text()) == []


def carrier_cap_literals(sources: dict[str, str]) -> list[str]:
    """Places where the int literal 24, the carrier cap, is written other
    than in the definition of ``MAX_CARRIER``."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        defining = {
            id(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and [getattr(target, "id", None) for target in node.targets] == ["MAX_CARRIER"]
        }
        found.extend(
            f"{module}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and type(node.value) is int
            and node.value == 24
            and id(node) not in defining
        )
    return sorted(found)


def test_scan_flags_a_carrier_cap_literal():
    source = 'MAX_CARRIER = 24\nx = min(24, n)\ny = "exceeds 24"  # 24\nz = 24.0\n'
    assert carrier_cap_literals({"m": source}) == ["m:2"]


def test_carrier_cap_is_written_once():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert carrier_cap_literals(sources) == []


#: Module hooks that the interpreter calls by name (PEP 562).
MODULE_HOOKS = {"__getattr__"}


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level defs and classes whose name no module reads, as a name,
    an attribute or an imported name (so ``__init__`` imports count); a
    module hook counts as read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set(MODULE_HOOKS)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
    ]


def test_scan_flags_an_unread_definition():
    sources = {
        "a": "def f(): pass\ndef g(): pass\ndef h(): pass\nclass C: pass\n"
        "def __getattr__(name): pass\n",
        "b": "from . import a\nfrom .a import g\na.h()\n",
        "__init__": "from .a import C\n",
    }
    assert unread_definitions(sources) == ["a.f"]


def test_every_definition_is_read():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unread_definitions(sources) == []


def unread_locals(source: str) -> list[str]:
    """Names that a function assigns and never reads, nested functions
    included (so a closure's read counts); ``_``-prefixed names and names
    declared global or nonlocal are exempt."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read, stored = set(), {}
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
        found.extend(
            f"{fn.name}.{name} (line {line})"
            for name, line in stored.items()
            if name not in read and not name.startswith("_")
        )
    return found


def test_scan_flags_an_unread_local():
    source = (
        "def f(xs):\n"
        "    a = [x for x in xs]\n"
        "    for i in xs:\n"
        "        b = i\n"
        "    for _ in xs:\n"
        "        pass\n"
        "    def g():\n"
        "        return a\n"
        "    return g\n"
    )
    assert unread_locals(source) == ["f.b (line 4)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_local_is_read(path):
    assert unread_locals(path.read_text()) == []


#: The imports that a package function may make, each with its reason.
FUNCTION_IMPORTS = {
    "__init__.__getattr__: .cli": "PEP 562 lazy export: only a CLI export compiles cli",
    "__init__.__getattr__: .theorems": "PEP 562 lazy export: only a sweep compiles theorems",
    "cli._cmd_sweep: .theorems": "only a sweep compiles theorems",
    "theorems._sweep: .mapsweep": "only a sweep of maps compiles mapsweep",
    "separation.t1_minimum: .enumeration": "enumeration imports separation",
}


def function_imports(sources: dict[str, str]) -> list[str]:
    """Imports inside a function body, as "function: target": the function
    by its dotted path from the module, the target as written (an import
    from a bare package names each imported module)."""
    found = []

    def visit(node, scope: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = in_function or not isinstance(child, ast.ClassDef)
                visit(child, f"{scope}.{child.name}", inner)
            elif in_function and isinstance(child, ast.Import):
                found.extend(f"{scope}: {alias.name}" for alias in child.names)
            elif in_function and isinstance(child, ast.ImportFrom):
                dots = "." * child.level
                if child.module:
                    found.append(f"{scope}: {dots}{child.module}")
                else:
                    found.extend(f"{scope}: {dots}{alias.name}" for alias in child.names)
            else:
                visit(child, scope, in_function)

    for module, source in sources.items():
        visit(ast.parse(source), module, False)
    return sorted(found)


def test_scan_flags_a_function_import():
    source = (
        "import os\n"
        "if os.name:\n"
        "    from .x import y\n"
        "def f():\n"
        "    from . import a, b\n"
        "    def g():\n"
        "        import json\n"
        "class C:\n"
        "    def m(self):\n"
        "        if self:\n"
        "            from .b import c\n"
    )
    assert function_imports({"m": source}) == [
        "m.C.m: .b", "m.f.g: json", "m.f: .a", "m.f: .b"
    ]


def test_function_imports_are_listed():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert function_imports(sources) == sorted(FUNCTION_IMPORTS)


def _owners(tree: ast.AST) -> dict:
    """Each node inside a function, mapped to its innermost function's name."""
    owner = {}
    for fn in ast.walk(tree):  # breadth-first, so the innermost function wins
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(ast.walk(fn), fn.name))
    return owner


def mask_folds(source: str) -> list[str]:
    """``for`` loops over an attribute named ``masks`` whose body folds the
    loop variable in by ``x |= v`` or ``x &= v``, in line order, each with
    its innermost function (or ``<module>``): the union and intersection folds that
    ``carrier._join_bits`` and ``carrier._meet_bits`` hold.  The kernels
    themselves iterate a parameter, so they are not flagged."""
    tree = ast.parse(source)
    owner = _owners(tree)
    found = []
    for loop in ast.walk(tree):
        if not (
            isinstance(loop, ast.For)
            and isinstance(loop.iter, ast.Attribute)
            and loop.iter.attr == "masks"
            and isinstance(loop.target, ast.Name)
        ):
            continue
        if any(
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, (ast.BitOr, ast.BitAnd))
            and isinstance(node.value, ast.Name)
            and node.value.id == loop.target.id
            for stmt in loop.body
            for node in ast.walk(stmt)
        ):
            found.append((loop.lineno, owner.get(loop, "<module>")))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_scan_flags_a_mask_fold():
    source = (
        "def union(fam):\n"
        "    bits = 0\n"
        "    for m in fam.masks:\n"
        "        bits |= m\n"
        "def meet(s, a):\n"
        "    def inner():\n"
        "        for m in s.closeds.masks:\n"
        "            if a & m == a:\n"
        "                a &= m\n"
        "    return inner\n"
        "def kernel(masks, fam):\n"
        "    for m in masks:\n"
        "        bits |= m\n"
        "    for m in fam.masks:\n"
        "        bits |= m << 1\n"
        "    for m in fam.members:\n"
        "        bits |= m\n"
        "    for m in fam.masks:\n"
        "        bits ^= m\n"
        "for m in fam.masks:\n"
        "    bits &= m\n"
    )
    assert mask_folds(source) == ["union (line 3)", "inner (line 7)", "<module> (line 20)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_folds_masks_by_hand(path):
    assert mask_folds(path.read_text()) == []


def copied_carrier_checks(source: str) -> list[str]:
    """Each ``raise ValueError(...)`` whose message, a string or an
    f-string, contains "outside carrier of size", in line order, with its
    innermost function (or ``<module>``): the point and mask checks that
    ``carrier._check_point`` and ``carrier._check_bits`` hold."""
    tree = ast.parse(source)
    owner = _owners(tree)
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "ValueError"
            and node.exc.args
        ):
            continue
        message = node.exc.args[0]
        parts = message.values if isinstance(message, ast.JoinedStr) else [message]
        text = "".join(
            part.value
            for part in parts
            if isinstance(part, ast.Constant) and isinstance(part.value, str)
        )
        if "outside carrier of size" in text:
            found.append((node.lineno, owner.get(node, "<module>")))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_scan_flags_a_copied_carrier_check():
    source = (
        "def point(n, p):\n"
        "    if not 0 <= p < n:\n"
        '        raise ValueError(f"point {p} outside carrier of size {n}")\n'
        "def mask(n, m):\n"
        '    raise ValueError("mask outside carrier of size n")\n'
        "def document(n, p):\n"
        '    raise DocumentError(f"point {p} outside carrier of size {n}")\n'
        "def other(n):\n"
        '    raise ValueError(f"carrier size {n} too large")\n'
        'raise ValueError(f"bits {m:#x} outside carrier of size {n}")\n'
    )
    assert copied_carrier_checks(source) == [
        "point (line 3)", "mask (line 5)", "<module> (line 10)"
    ]


@pytest.mark.parametrize(
    "path", [path for path in PACKAGE if path.name != "carrier.py"], ids=lambda p: p.name
)
def test_point_and_mask_checks_live_in_carrier(path):
    assert copied_carrier_checks(path.read_text()) == []
