"""Per-layer tracing of fintop from outside the package.

A layer is one module of the package.  :func:`install` wraps each public
function of each layer and rebinds the wrapper wherever the original is
bound: the defining module, every module that copied it with
``from .x import name``, the package namespace and module-level dicts
(such as ``enumeration.PREDICATES``).  ``lru_cache`` objects stay intact;
the wrapper calls them and keeps their ``cache_info``.

Every wrapped call records a span (name, start, end, parent, run id) in
flat arrays; self time is the span's duration minus the time its child
spans cover.  Hot tiny calls -- ``Family.masks``, ``Family.__contains__``
and ``PointSet`` construction -- get plain counters instead of spans, and
so do ``check_carrier`` and ``same_carrier``, which run inside every
``PointSet`` construction.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = (
    "carrier",
    "space",
    "operators",
    "construct",
    "maps",
    "covers",
    "compact",
    "connect",
    "separation",
    "enumeration",
    "docio",
    "cli",
)

# Called from inside every PointSet construction: counted by pointset_built.
_UNTRACED = {"carrier.check_carrier", "carrier.same_carrier"}


class Tracer:
    """In-memory span store plus per-function aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_run = array("i")
        self.run_id = 0
        self.stack: list[list] = []  # [span index, child time]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = {
            "family_masks_reads": 0,
            "family_contains_calls": 0,
            "pointset_built": 0,
            "validate_members": 0,
            "homeo_searched": 0,
            "homeo_found": 0,
        }
        self._undo: list = []

    def _intern(self, name: str) -> int:
        idx = self.name_id.get(name)
        if idx is None:
            idx = self.name_id[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return idx

    def _enter(self, nid: int) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        idx = len(self.sp_name)
        self.sp_name.append(nid)
        self.sp_parent.append(parent)
        self.sp_run.append(self.run_id)
        self.sp_end.append(0.0)
        frame = [idx, 0.0]
        self.stack.append(frame)
        self.sp_start.append(time.perf_counter())
        return frame

    def _exit(self, frame: list, name: str) -> None:
        end = time.perf_counter()
        idx, child = frame
        self.stack.pop()
        self.sp_end[idx] = end
        dur = end - self.sp_start[idx]
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][1] += dur

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        enter, leave = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the consumer's time between
            # items is not charged to the generator.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                frame = enter(nid)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    leave(frame, name)
                while True:
                    frame = enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, name)
                    yield item

            return gen_wrapper

        counters = self.counters
        if name == "space.validate_topology":

            @functools.wraps(fn)
            def wrapper(n, fam):
                if not hasattr(fam, "__len__"):
                    fam = list(fam)  # validate_topology iterates it once
                counters["validate_members"] += len(fam)
                frame = enter(nid)
                try:
                    return fn(n, fam)
                finally:
                    leave(frame, name)

        elif name == "maps.find_homeomorphism":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter(nid)
                try:
                    found = fn(*args, **kwargs)
                finally:
                    leave(frame, name)
                counters["homeo_searched"] += 1
                counters["homeo_found"] += found is not None
                return found

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame, name)

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _patch(self, cls, attr: str, wrap) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrap(original))
        self._undo.append(lambda: setattr(cls, attr, original))

    def install(self) -> None:
        """Wrap every public function of every layer and the carrier counters.
        The package must be imported already."""
        modules = {name: sys.modules[f"fintop.{name}"] for name in LAYERS}
        originals = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or f"{layer}.{attr}" in _UNTRACED:
                    continue
                target = getattr(value, "__wrapped__", value)
                if not inspect.isfunction(target):
                    continue
                if target.__module__ != mod.__name__:
                    continue
                originals[id(value)] = (value, self.wrap(f"{layer}.{attr}", value))
        spaces = [sys.modules["fintop"], *modules.values()]
        for mod in spaces:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append(functools.partial(setattr, mod, attr, value))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        hit = originals.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]
                            self._undo.append(
                                functools.partial(value.__setitem__, key, item)
                            )
        self._install_counters(modules["carrier"])

    def _install_counters(self, carrier) -> None:
        counters = self.counters
        Family, PointSet = carrier.Family, carrier.PointSet

        def masks_prop(prop):
            def get(obj):
                counters["family_masks_reads"] += 1
                return prop.fget(obj)

            return property(get)

        def contains(fn):
            def wrapper(obj, item):
                counters["family_contains_calls"] += 1
                return fn(obj, item)

            return wrapper

        def post_init(fn):
            def wrapper(obj):
                counters["pointset_built"] += 1
                return fn(obj)

            return wrapper

        self._patch(Family, "masks", masks_prop)
        self._patch(Family, "__contains__", contains)
        self._patch(PointSet, "__post_init__", post_init)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def layer_totals(self) -> dict:
        """Per layer: wrapped calls and self seconds."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name in self.names:
            layer = name.split(".", 1)[0]
            out[layer]["calls"] += self.calls[name]
            out[layer]["self_s"] += self.self_s[name]
        return out

    def write_spans(self, path) -> int:
        """Write a JSON header with the name table, then one line per span:
        name index, start, end, parent span index (-1 at top) and run id."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.sp_name)):
                fh.write(
                    "%d %.9f %.9f %d %d\n"
                    % (
                        self.sp_name[i],
                        self.sp_start[i],
                        self.sp_end[i],
                        self.sp_parent[i],
                        self.sp_run[i],
                    )
                )
        return len(self.sp_name)
