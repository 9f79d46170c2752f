"""Command-line front end over every module.

Outputs are canonical JSON on stdout (``--pretty`` for an indented view),
pure functions of their inputs so transcripts are golden-file testable.
Exit codes: 0 = success / predicate true, 1 = predicate false, 2 = input
error, 64 = usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import compact as compact_mod
from . import connect as connect_mod
from . import construct as construct_mod
from . import covers as covers_mod
from . import docio
from . import enumeration as enum_mod
from . import maps as maps_mod
from . import operators as operators_mod
from . import separation as separation_mod
from .carrier import Family, Partition, PointSet
from .errors import FintopError, InvalidTopology
from .space import (
    TopSpace,
    clopen_sets,
    closed_sets,
    compare,
    discrete,
    indiscrete,
    is_finer,
    minimal_open,
    neighborhoods,
    one_point_extension,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_USAGE = 64

#: Which library operations each subcommand calls, directly or through the
#: library; tests trace every subcommand's argvs to check each entry.
#: ``family_intersection`` and ``subsets_iter`` are not listed: no
#: subcommand computes them.
COVERAGE = {
    "validate": ("validate_topology", "compare", "is_finer", "parse_space", "emit_space"),
    "ops": (
        "interior",
        "closure",
        "exterior",
        "boundary",
        "limit_set",
        "isolated_set",
        "density_report",
        "point_roles",
        "pair_relation",
        "is_dense_in",
        "neighborhoods",
        "minimal_open",
        "closed_sets",
        "clopen_sets",
    ),
    "check": (
        "separation_report",
        "is_connected",
        "is_connected_set",
        "is_compact",
        "is_compact_set",
        "compactness_report",
        "is_metrizable",
        "is_locally_connected",
        "is_totally_disconnected",
        "is_locally_compact",
        "t1_minimum",
        "meet_topologies",
    ),
    "generate": (
        "check_base_conditions",
        "topology_from_base",
        "topology_from_subbase",
        "is_base_for",
        "base_generates_same",
        "metric_topology",
        "discrete",
        "indiscrete",
        "parse_family",
        "parse_metric",
        "emit_family",
    ),
    "subspace": ("subspace",),
    "product": ("product",),
    "quotient": ("quotient",),
    "alexandroff": ("alexandroff", "one_point_extension"),
    "components": ("components", "component_partition", "mcp"),
    "homeo": (
        "find_homeomorphism",
        "homeomorphic",
        "check_map",
        "is_continuous_at",
        "restrict",
        "limits_at",
        "embeddings_equivalent",
        "emit_map",
    ),
    "cover": (
        "classify_cover",
        "is_subcover",
        "is_refinement",
        "verify_pasting",
        "minimal_subcover",
        "family_union",
        "parse_map",
    ),
    "enumerate": ("enumerate_topologies", "count_topologies"),
    "sweep": (
        "sweep_theorems",
        "hausdorff_compact_checks",
        "is_locally_connected_at",
        "classify_pair",
        "connected_set_masks",
        "relative_opens",
        "space",
    ),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's 2
        raise _UsageError(message)


def _fields(report) -> dict:
    """A report record's fields by name, in ``__slots__`` order."""
    return {name: getattr(report, name) for name in report.__slots__}


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _points_arg(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw:
        return []
    try:
        return [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise docio.DocumentError(f"bad point list {raw!r}")


def _blocks_arg(n: int, raw: str) -> list[PointSet]:
    blocks = [_points_arg(block) for block in raw.split(";")]
    return [_pset(n, block) for block in blocks]


def _pset(n: int, pts: list[int]) -> PointSet:
    for p in pts:
        if not 0 <= p < max(n, 1):
            raise docio.DocumentError(f"point {p} outside carrier of size {n}")
    return PointSet.of(n, pts)


def _pl(A: PointSet) -> list[int]:
    return list(A.points())


def _load_space(path: str) -> TopSpace:
    return docio.parse_space(_read(path))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


#: The ``ops`` flags that map --set through one operator, by reply key.
_SET_OPS = {
    "interior": operators_mod.interior,
    "closure": operators_mod.closure,
    "exterior": operators_mod.exterior,
    "frontier": operators_mod.boundary,
    "limit_set": operators_mod.limit_set,
    "isolated_set": operators_mod.isolated_set,
}


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The argparse tree and its subcommand parsers by name, built on the
    first dispatch and then reused: ``parse_args`` returns a fresh
    namespace each time and keeps no state."""
    parser = _Parser(prog="fintop", description=__doc__)
    parser.add_argument("--pretty", action="store_true", help="indented output")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    p = sub.add_parser("validate", help="validate a space document")
    p.add_argument("file")
    p.add_argument("--compare", metavar="FILE2", help="compare against a second topology")

    p = sub.add_parser("ops", help="interior/closure/exterior/frontier and point roles")
    p.add_argument("file")
    p.add_argument("--set", default=None, help="comma list of points (empty = empty set)")
    p.add_argument("--set2", default=None, help="second set for pair operations")
    p.add_argument("--point", type=int, default=None)
    for name in _SET_OPS:
        p.add_argument(_flag(name), action="store_true")
    p.add_argument("--density", action="store_true", help="density report for --set")
    p.add_argument("--roles", action="store_true", help="roles of --point in --set")
    p.add_argument("--relation", action="store_true", help="pair relation of --set and --set2")
    p.add_argument("--dense-in", action="store_true", help="is --set2 dense in --set")
    p.add_argument("--neighborhoods", choices=["open", "closed"], default=None)
    p.add_argument("--min-open", action="store_true", help="minimal open set of --point")
    p.add_argument("--closed-sets", action="store_true")
    p.add_argument("--clopen-sets", action="store_true")

    p = sub.add_parser("check", help="separation / connectivity / compactness predicates")
    p.add_argument("file")
    for name in enum_mod.PREDICATES:
        p.add_argument(_flag(name), action="store_true")
    p.add_argument("--full", action="store_true", help="full separation + compactness reports")
    p.add_argument(
        "--t1-minimum",
        action="store_true",
        help="meet of all T1 topologies on this carrier size",
    )

    p = sub.add_parser("generate", help="topology from a base, sub-base, or metric")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--base", metavar="FAMILY_FILE")
    group.add_argument("--subbase", metavar="FAMILY_FILE")
    group.add_argument("--metric", metavar="METRIC_FILE")
    group.add_argument("--discrete", type=int, metavar="N")
    group.add_argument("--indiscrete", type=int, metavar="N")
    p.add_argument("--is-base-for", metavar="SPACE_FILE", help="test --base against a space")
    p.add_argument("--base2", metavar="FAMILY_FILE", help="compare generated topologies")

    p = sub.add_parser("subspace", help="subspace over a point subset")
    p.add_argument("file")
    p.add_argument("--points", required=True)

    p = sub.add_parser("product", help="binary product")
    p.add_argument("file1")
    p.add_argument("file2")

    p = sub.add_parser("quotient", help="quotient by a partition")
    p.add_argument("file")
    p.add_argument("--blocks", required=True, help='e.g. "0,1;2"')

    p = sub.add_parser("alexandroff", help="one-point extensions")
    p.add_argument("file")
    p.add_argument(
        "--simple",
        action="store_true",
        help="plain one-point extension instead of the Alexandroff extension",
    )

    p = sub.add_parser("components", help="connected components")
    p.add_argument("file")
    p.add_argument("--of", default=None, help="component of this point set")

    p = sub.add_parser("homeo", help="homeomorphism search and map analysis")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--map", dest="map_", default=None, help="comma function table")
    p.add_argument("--map2", default=None, help="second table (embedding equivalence)")
    p.add_argument("--limit-set", default=None, help="limits along this set (with --map)")
    p.add_argument("--limit-point", type=int, default=None)

    p = sub.add_parser("cover", help="cover classification, pasting, minimal subcovers")
    p.add_argument("file")
    p.add_argument("--members", required=True, help='family, e.g. "0,1;1,2"')
    p.add_argument("--target", default=None)
    p.add_argument("--minimal", action="store_true")
    p.add_argument("--subcover-of", default=None, help="second family")
    p.add_argument("--refines", default=None, help="second family")
    p.add_argument("--paste", default=None, help="map document file for pasting")

    p = sub.add_parser("enumerate", help="enumerate topologies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--mode", choices=["labeled", "classes"], default="labeled")
    p.add_argument("--predicate", default=None, choices=sorted(enum_mod.PREDICATES))

    p = sub.add_parser("sweep", help="theorem-regression sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--no-maps", dest="maps", action="store_false")
    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """An argv that starts with a subcommand's name is parsed by that
    subcommand's parser alone, the one the top-level parser would hand the
    rest to; any other argv (empty, ``--pretty`` first, ``-h``, an unknown
    name) goes through the top-level parser."""
    parser, subparsers = _build_parser()
    if argv and argv[0] in subparsers:
        args = subparsers[argv[0]].parse_args(argv[1:])
        args.command, args.pretty = argv[0], False
        return args
    return parser.parse_args(argv)


def _cmd_validate(args):
    try:
        result = docio.parse_space(_read(args.file))
    except InvalidTopology as exc:
        violations = [
            {"kind": v.kind, "witness": [_pl(w) for w in v.witness]}
            for v in exc.violations
        ]
        return {"valid": False, "violations": violations}, EXIT_FALSE
    out = {"valid": True, "canonical": docio.space_obj(result)}
    if args.compare is not None:
        other = _load_space(args.compare)
        out["comparison"] = compare(result, other)
        out["finer"] = is_finer(result, other)
    return out, EXIT_TRUE


def _cmd_ops(args):
    s = _load_space(args.file)
    out = {}
    need_set = (
        any(getattr(args, name) for name in _SET_OPS)
        or args.density
        or args.roles
        or args.relation
        or args.dense_in
        or args.neighborhoods
    )
    if need_set and args.set is None:
        raise _UsageError("--set is required for this operation")
    A = _pset(s.n, _points_arg(args.set)) if args.set is not None else None
    B = _pset(s.n, _points_arg(args.set2)) if args.set2 is not None else None
    for name, op in _SET_OPS.items():
        if getattr(args, name):
            out[name] = _pl(op(s, A))
    if args.density:
        out["density"] = _fields(operators_mod.density_report(s, A))
    if args.roles:
        if args.point is None:
            raise _UsageError("--roles requires --point")
        out["roles"] = _fields(operators_mod.point_roles(s, A, args.point))
    if args.relation:
        if B is None:
            raise _UsageError("--relation requires --set2")
        out["relation"] = operators_mod.pair_relation(s, A, B)
    if args.dense_in:
        if B is None:
            raise _UsageError("--dense-in requires --set2")
        out["dense_in"] = operators_mod.is_dense_in(s, B, A)
    if args.neighborhoods:
        fam = neighborhoods(s, A, args.neighborhoods)
        out["neighborhoods"] = [_pl(m) for m in fam]
    if args.min_open:
        if args.point is None:
            raise _UsageError("--min-open requires --point")
        out["min_open"] = _pl(minimal_open(s, args.point))
    if args.closed_sets:
        out["closed_sets"] = [_pl(m) for m in closed_sets(s)]
    if args.clopen_sets:
        out["clopen_sets"] = [_pl(m) for m in clopen_sets(s)]
    if not out:
        raise _UsageError("no operation flag given")
    return out, EXIT_TRUE


def _cmd_check(args):
    """Separation flags are read from one ``separation_report``, so its
    ladder check runs; every other flag calls its predicate."""
    s = _load_space(args.file)
    wanted = [name for name in enum_mod.PREDICATES if getattr(args, name)]
    sep = {}
    if args.full or any(name in separation_mod.SeparationReport.__slots__ for name in wanted):
        sep = _fields(separation_mod.separation_report(s))
    out = {
        name: sep[name] if name in sep else enum_mod.PREDICATES[name](s)
        for name in wanted
    }
    if args.full:
        out["separation"] = sep
        out["compactness"] = _fields(compact_mod.compactness_report(s))
    if args.t1_minimum:
        out["t1_minimum"] = docio.space_obj(separation_mod.t1_minimum(s.n))
    if not out:
        raise _UsageError("no predicate flag given")
    flags = [v for v in out.values() if isinstance(v, bool)]
    return out, EXIT_TRUE if all(flags) else EXIT_FALSE


def _cmd_generate(args):
    if args.discrete is not None:
        return {"space": docio.space_obj(discrete(args.discrete))}, EXIT_TRUE
    if args.indiscrete is not None:
        return {"space": docio.space_obj(indiscrete(args.indiscrete))}, EXIT_TRUE
    if args.metric is not None:
        rows = docio.parse_metric(_read(args.metric))
        s = construct_mod.metric_topology(construct_mod.MetricTable.of(rows))
        return {"space": docio.space_obj(s)}, EXIT_TRUE
    n, fam = docio.parse_family(_read(args.subbase if args.base is None else args.base))
    out = {"family": docio.family_obj(fam)}
    if args.subbase is not None:
        out["space"] = docio.space_obj(construct_mod.topology_from_subbase(n, fam))
        return out, EXIT_TRUE
    if args.is_base_for is not None:
        target = _load_space(args.is_base_for)
        out["is_base"] = construct_mod.is_base_for(target, fam)
        return out, EXIT_TRUE if out["is_base"] else EXIT_FALSE
    if args.base2 is not None:
        n2, fam2 = docio.parse_family(_read(args.base2))
        if n2 != n:
            raise docio.DocumentError("bases must share a carrier size")
        out["comparison"] = construct_mod.base_generates_same(n, fam, fam2)
    out["space"] = docio.space_obj(construct_mod.topology_from_base(n, fam))
    return out, EXIT_TRUE


def _cmd_subspace(args):
    s = _load_space(args.file)
    Y = _pset(s.n, _points_arg(args.points))
    sub, inclusion = construct_mod.subspace(s, Y)
    return {"space": docio.space_obj(sub), "inclusion": list(inclusion.table)}, EXIT_TRUE


def _cmd_product(args):
    s1 = _load_space(args.file1)
    s2 = _load_space(args.file2)
    prod, enc = construct_mod.product(s1, s2)
    return {
        "space": docio.space_obj(prod),
        "projection1": list(enc.projection1().table),
        "projection2": list(enc.projection2().table),
    }, EXIT_TRUE


def _cmd_quotient(args):
    s = _load_space(args.file)
    P = Partition.of(s.n, _blocks_arg(s.n, args.blocks))
    quot, projection = construct_mod.quotient(s, P)
    return {"space": docio.space_obj(quot), "projection": list(projection.table)}, EXIT_TRUE


def _cmd_alexandroff(args):
    s = _load_space(args.file)
    ext = (
        one_point_extension(s) if args.simple else construct_mod.alexandroff(s)
    )
    return {"space": docio.space_obj(ext)}, EXIT_TRUE


def _cmd_components(args):
    s = _load_space(args.file)
    P = connect_mod.component_partition(s)
    out = {"components": [_pl(b) for b in P]}
    if args.of is not None:
        A = _pset(s.n, _points_arg(args.of))
        out["component_of"] = _pl(connect_mod.mcp(s, A))
    return out, EXIT_TRUE


def _parse_table(raw: str, dom_n: int, cod_n: int) -> maps_mod.FiniteMap:
    table = _points_arg(raw)
    if len(table) != dom_n or any(not 0 <= v < max(cod_n, 1) for v in table):
        raise docio.DocumentError(f"bad function table {raw!r}")
    return maps_mod.FiniteMap(dom_n, cod_n, tuple(table))


def _cmd_homeo(args):
    s1 = _load_space(args.file1)
    s2 = _load_space(args.file2)
    if args.map_ is None:
        witness = maps_mod.find_homeomorphism(s1, s2)
        if witness is None:
            return {"homeomorphic": False}, EXIT_FALSE
        return {"homeomorphic": True, "witness": list(witness.table)}, EXIT_TRUE
    f = _parse_table(args.map_, s1.n, s2.n)
    out = _fields(maps_mod.check_map(f, s1, s2))
    out["map"] = docio.map_obj(s1, s2, f)
    out["continuous_at"] = [
        p for p in range(s1.n) if maps_mod.is_continuous_at(f, s1, s2, p)
    ]
    code = EXIT_TRUE if out["continuous"] else EXIT_FALSE
    if args.map2 is not None:
        g = _parse_table(args.map2, s1.n, s2.n)
        out["embeddings_equivalent"] = maps_mod.embeddings_equivalent(s1, s2, f, g)
    if args.limit_set is not None:
        if args.limit_point is None:
            raise _UsageError("--limit-set requires --limit-point")
        A = _pset(s1.n, _points_arg(args.limit_set))
        restricted = maps_mod.restrict(f, s1, s2, A)
        limits = maps_mod.limits_at(s1, A, restricted, s2, args.limit_point)
        out["limits"] = _pl(limits)
    return out, code


def _cmd_cover(args):
    s = _load_space(args.file)
    C = Family.of(s.n, _blocks_arg(s.n, args.members))
    target = (
        _pset(s.n, _points_arg(args.target)) if args.target is not None else None
    )
    out = _fields(covers_mod.classify_cover(s, C, target))
    if args.minimal:
        sub = covers_mod.minimal_subcover(s, C, target)
        out["minimal_subcover"] = [_pl(m) for m in sub]
    if args.subcover_of is not None:
        big = Family.of(s.n, _blocks_arg(s.n, args.subcover_of))
        tgt = target if target is not None else PointSet.full(s.n)
        out["is_subcover"] = covers_mod.is_subcover(C, big, tgt, s)
    if args.refines is not None:
        coarse = Family.of(s.n, _blocks_arg(s.n, args.refines))
        out["is_refinement"] = covers_mod.is_refinement(C, coarse, s)
    if args.paste is not None:
        s1, s2, f = docio.parse_map(_read(args.paste))
        if s1.opens.masks != s.opens.masks or s1.n != s.n:
            raise docio.DocumentError("pasting map domain must match the space")
        out["pasting_holds"] = covers_mod.verify_pasting(s1, s2, f, C)
    return out, EXIT_TRUE


def _cmd_enumerate(args):
    mode = "labeled" if args.mode == "labeled" else "up_to_homeomorphism"
    cfg = enum_mod.EnumConfig(args.n, mode, args.predicate)
    if args.count and mode == "labeled":
        return {"count": enum_mod.count_topologies(args.n, args.predicate)}, EXIT_TRUE
    if args.count:
        return {"count": sum(1 for _ in enum_mod.enumerate_topologies(cfg))}, EXIT_TRUE
    spaces = [docio.space_obj(s) for s in enum_mod.enumerate_topologies(cfg)]
    return {"count": len(spaces), "spaces": spaces}, EXIT_TRUE


def _cmd_sweep(args):
    from .theorems import sweep_theorems

    report = sweep_theorems(args.n, include_maps=args.maps)
    ok = all(entry["ok"] for entry in report.values())
    return {"all_pass": ok, "theorems": report}, EXIT_TRUE if ok else EXIT_FALSE


_HANDLERS = {
    "validate": _cmd_validate,
    "ops": _cmd_ops,
    "check": _cmd_check,
    "generate": _cmd_generate,
    "subspace": _cmd_subspace,
    "product": _cmd_product,
    "quotient": _cmd_quotient,
    "alexandroff": _cmd_alexandroff,
    "components": _cmd_components,
    "homeo": _cmd_homeo,
    "cover": _cmd_cover,
    "enumerate": _cmd_enumerate,
    "sweep": _cmd_sweep,
}


def cli_dispatch(argv) -> int:
    try:
        args = _parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        out, code = _HANDLERS[args.command](args)
    except SystemExit as exc:  # -h/--help: argparse printed the help
        return exc.code
    except _UsageError as exc:
        print(docio.canonical_json({"usage_error": str(exc)}))
        return EXIT_USAGE
    except (json.JSONDecodeError, docio.DocumentError, FintopError, OSError, ValueError) as exc:
        print(docio.canonical_json({"error": f"{type(exc).__name__}: {exc}"}))
        return EXIT_INPUT
    if args.pretty:
        print(json.dumps(out, sort_keys=True, indent=2))
    else:
        print(docio.canonical_json(out))
    return code


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
