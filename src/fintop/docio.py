"""JSON-shaped interchange documents for spaces, maps, families, and metrics.

Serialization is canonical (sorted point lists, families ordered by bitmask,
compact separators, sorted keys) so emitting the same object twice is
byte-identical and round-trips are exact.
"""

from __future__ import annotations

import json
from typing import Optional, Union

from .carrier import Family, check_carrier, mask_points
from .errors import InvalidTopology
from .maps import FiniteMap
from .space import TopSpace, validate_topology


class DocumentError(ValueError):
    """Malformed document: bad JSON shape, types, or field values."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


def _load(text: Union[str, dict]) -> dict:
    if isinstance(text, dict):
        return text
    try:
        obj = json.loads(text)  # json.JSONDecodeError carries line/column
    except RecursionError:
        raise DocumentError("document nests too deeply") from None
    _require(isinstance(obj, dict), "document must be a JSON object")
    return obj


def _parse_point_lists(n: int, raw: list, field: str) -> list[int]:
    """The mask of every point list in ``raw``, the document's ``field``;
    errors name the member as ``field[i]``."""
    masks = []
    top = max(n, 1)
    for i, member in enumerate(raw):
        if not isinstance(member, list):
            raise DocumentError(f"{field}[{i}] must be a list of point indices")
        bits = 0
        for p in member:
            # bool and float fail here; int subclasses pass
            if type(p) is not int and (not isinstance(p, int) or isinstance(p, bool)):
                raise DocumentError(f"{field}[{i}]: bad point {p!r}")
            if not 0 <= p < top:
                raise DocumentError(f"{field}[{i}]: point {p} outside carrier of size {n}")
            bits |= 1 << p
        masks.append(bits)
    return masks


def _parse_n(obj: dict) -> int:
    n = obj.get("n")
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 0, "field 'n' must be a non-negative integer")
    check_carrier(n)  # before any point list is parsed or 1 << p is built
    return n


def parse_space(text: Union[str, dict]) -> TopSpace:
    """Parse and validate a space document.

    Raises json.JSONDecodeError for bad JSON, DocumentError for bad shape,
    and InvalidTopology (with the violation list) for families that fail
    the axioms.
    """
    obj = _load(text)
    n = _parse_n(obj)
    raw_opens = obj.get("opens")
    _require(isinstance(raw_opens, list), "field 'opens' must be a list")
    result = validate_topology(n, _parse_point_lists(n, raw_opens, "opens"))
    if not isinstance(result, TopSpace):
        raise InvalidTopology(result)
    return result


def space_obj(s: TopSpace, name: Optional[str] = None) -> dict:
    """The space document as a JSON object: {"n", "opens"[, "name"]}."""
    obj = {"n": s.n, "opens": [mask_points(m) for m in s.opens.masks]}
    if name is not None:
        obj["name"] = name
    return obj


def emit_space(s: TopSpace, name: Optional[str] = None) -> str:
    return canonical_json(space_obj(s, name))


def parse_map(text: Union[str, dict]) -> tuple[TopSpace, TopSpace, FiniteMap]:
    obj = _load(text)
    _require("dom" in obj and "cod" in obj and "table" in obj, "map document needs 'dom', 'cod', 'table'")
    dom = parse_space(obj["dom"])
    cod = parse_space(obj["cod"])
    raw = obj["table"]
    _require(isinstance(raw, list), "field 'table' must be a list")
    _require(len(raw) == dom.n, f"table length {len(raw)} != domain size {dom.n}")
    for v in raw:
        _require(isinstance(v, int) and not isinstance(v, bool), f"bad table entry {v!r}")
        _require(0 <= v < cod.n, f"table entry {v} outside codomain of size {cod.n}")
    return dom, cod, FiniteMap(dom.n, cod.n, tuple(raw))


def map_obj(s1: TopSpace, s2: TopSpace, f: FiniteMap) -> dict:
    """The map document as a JSON object: {"dom", "cod", "table"}."""
    return {"dom": space_obj(s1), "cod": space_obj(s2), "table": list(f.table)}


def emit_map(s1: TopSpace, s2: TopSpace, f: FiniteMap) -> str:
    return canonical_json(map_obj(s1, s2, f))


def parse_family(text: Union[str, dict]) -> tuple[int, Family]:
    """A family document: {"n": ..., "members": [[points], ...]}."""
    obj = _load(text)
    n = _parse_n(obj)
    raw = obj.get("members")
    _require(isinstance(raw, list), "field 'members' must be a list")
    return n, Family.of(n, _parse_point_lists(n, raw, "members"))


def family_obj(fam: Family) -> dict:
    """The family document as a JSON object: {"n", "members"}."""
    return {"n": fam.n, "members": [mask_points(m) for m in fam.masks]}


def emit_family(fam: Family) -> str:
    return canonical_json(family_obj(fam))


def parse_metric(text: Union[str, dict]) -> list[list[int]]:
    """A metric document: {"d": [[row], ...]} of non-negative integers."""
    obj = _load(text)
    rows = obj.get("d")
    _require(isinstance(rows, list), "field 'd' must be a list of rows")
    n = len(rows)
    out = []
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == n, f"row {i} must have {n} entries")
        for v in row:
            _require(
                isinstance(v, int) and not isinstance(v, bool) and v >= 0,
                f"row {i}: bad distance {v!r}",
            )
        out.append(list(row))
    return out
