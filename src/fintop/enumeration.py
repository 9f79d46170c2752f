"""Exhaustive generation of all topologies on a small carrier.

Two independent generators cross-validate each other: a minimal-open-set
(specialization preorder) enumerator used for production, and a naive
filter over every subset of the power set.  Enumeration correctness
anchors the entire regression suite, so both are kept.

The production generator and the orbit marking that finds the
homeomorphism classes live in :mod:`fintop.minopen`: each topology is
recorded by the code of its minimal opens, and each space is built from
that code without being validated again.  The theorem sweep over these
spaces lives in :mod:`fintop.theorems`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Optional, Union

from . import compact as compact_mod
from . import connect as connect_mod
from . import construct as construct_mod
from . import separation as separation_mod
from .carrier import _Record, _check_bits, subsets_iter
from .errors import CarrierTooLarge
from .minopen import _class_leaders, _code_shifts, _minopen_index, _perm_table
from .space import TopSpace, _build

#: Hard caps on the carrier of labeled enumeration and of the classes.
LABELED_CAP = 5
CLASS_CAP = 5

Predicate = Union[str, Callable[[TopSpace], bool], None]


class EnumConfig(_Record):
    """What to enumerate: ``n`` points, labeled or up to homeomorphism,
    optionally filtered by a predicate.  A frozen record, so the mode and
    carrier cap checked here hold for every use of it."""

    __slots__ = ("n", "mode", "predicate")

    def __init__(self, n: int, mode: str = "labeled", predicate: Predicate = None) -> None:
        if mode not in ("labeled", "up_to_homeomorphism"):
            raise ValueError(f"unknown mode {mode!r}")
        cap = LABELED_CAP if mode == "labeled" else CLASS_CAP
        if not 0 <= n <= cap:
            raise CarrierTooLarge(f"enumeration capped at n <= {cap}")
        _Record.__init__(self, n, mode, predicate)


# -- generators ---------------------------------------------------------------


def _is_topology_masks(n: int, masks: frozenset[int]) -> bool:
    """Fast boolean axiom check on a set of bitmasks (no diagnostics)."""
    full = (1 << n) - 1
    if 0 not in masks or full not in masks:
        return False
    for a in masks:
        for b in masks:
            if a < b and (a & b not in masks or a | b not in masks):
                return False
    return True


@lru_cache(maxsize=None)
def topologies_naive(n: int) -> tuple[tuple[int, ...], ...]:
    """Every subset of the power set of the carrier, filtered through the
    axioms.  Exponential in 2**n; the independent cross-check generator."""
    if n > 4:
        raise CarrierTooLarge("naive filter capped at n <= 4")
    subsets = [ps.bits for ps in subsets_iter(n)]
    found = []
    for fam_bits in range(1 << len(subsets)):
        masks = frozenset(m for i, m in enumerate(subsets) if fam_bits >> i & 1)
        if _is_topology_masks(n, masks):
            found.append(tuple(sorted(masks)))
    return tuple(sorted(found))


def topologies_minopen(n: int) -> tuple[tuple[int, ...], ...]:
    """Enumerate topologies through their per-point minimal open sets.

    An assignment p -> U_p with p in U_p and (q in U_p implies U_q
    subseteq U_p) is exactly a specialization preorder; its topology is
    the family of sets that contain the minimal open of each of their
    points.  Distinct assignments give distinct topologies.
    """
    if not 0 <= n <= LABELED_CAP:
        raise CarrierTooLarge(f"enumeration capped at n <= {LABELED_CAP}")
    return _minopen_index(n)[0]


def canonical_form(n: int, opens: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least relabeling of the opens family."""
    if not 0 <= n <= CLASS_CAP:
        raise CarrierTooLarge(f"canonical form capped at n <= {CLASS_CAP}")
    for m in opens:
        _check_bits(n, m)
    return min(tuple(sorted(row[m] for m in opens)) for row in _perm_table(n))


#: The named predicates: ``enumerate --predicate`` and the ``check`` flags,
#: which ``fintop check -h`` lists in this order.
PREDICATES: dict[str, Callable[[TopSpace], bool]] = {
    "t0": separation_mod.is_t0,
    "t1": separation_mod.is_t1,
    "t2": separation_mod.is_t2,
    "t3": separation_mod.is_t3,
    "t4": separation_mod.is_t4,
    "regular": separation_mod.is_regular,
    "normal": separation_mod.is_normal,
    "connected": connect_mod.is_connected,
    "compact": compact_mod.is_compact,
    "metrizable": construct_mod.is_metrizable,
    "locally_connected": connect_mod.is_locally_connected,
    "totally_disconnected": connect_mod.is_totally_disconnected,
    "locally_compact": compact_mod.is_locally_compact,
}


def _resolve_predicate(predicate: Predicate) -> Optional[Callable[[TopSpace], bool]]:
    if predicate is None:
        return None
    if callable(predicate):
        return predicate
    try:
        return PREDICATES[predicate]
    except KeyError:
        raise ValueError(f"unknown predicate {predicate!r}") from None


def enumerate_topologies(cfg: EnumConfig) -> Iterator[TopSpace]:
    """Yield each topology exactly once, ascending by opens family.

    In up_to_homeomorphism mode only the canonically least representative
    of each relabeling orbit is yielded.  Each space is built from its
    opens and the U_p unpacked from its code.
    """
    pred = _resolve_predicate(cfg.predicate)
    n = cfg.n
    all_opens, codes, code_at = _minopen_index(n)
    shifts = _code_shifts(n)
    width = (1 << n) - 1
    if cfg.mode == "up_to_homeomorphism":
        picks = _class_leaders(n)
    else:
        picks = range(len(all_opens))
    for i in picks:
        code = codes[code_at[i]]
        s = _build(n, all_opens[i], [code >> sh & width for sh in shifts])
        if pred is None or pred(s):
            yield s


def count_topologies(n: int, predicate: Predicate = None) -> int:
    """Labeled count.  With no predicate the generator's opens tuples are
    counted; a predicate named in ``separation.UPS_CRITERIA`` is tested on
    the U_p unpacked from each code.  Neither builds a space."""
    cfg = EnumConfig(n, predicate=predicate)
    if predicate is None:
        return len(topologies_minopen(n))
    ups_test = (
        separation_mod.UPS_CRITERIA.get(predicate) if isinstance(predicate, str) else None
    )
    if ups_test is None:
        return sum(1 for _ in enumerate_topologies(cfg))
    shifts = _code_shifts(n)
    width = (1 << n) - 1
    return sum(1 for code in _minopen_index(n)[1] if ups_test([code >> s & width for s in shifts]))


@lru_cache(maxsize=None)
def all_spaces(n: int) -> tuple[TopSpace, ...]:
    return tuple(enumerate_topologies(EnumConfig(n)))
