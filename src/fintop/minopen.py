"""Topologies by their minimal-open codes: the production generator and
the relabeling-orbit kernel behind :mod:`fintop.enumeration`.

The production generator backtracks over the points, choosing the minimal
open U_p of each point in turn and keeping a choice only if it agrees with
every U_q chosen before it (q in U_p implies U_q <= U_p, and p in U_q
implies U_p <= U_q): U_p must lie inside every earlier U_q that holds p,
and contain the up-set of its points below p.  A finite topology is
exactly its minimal-open assignment (Stong 1966), so the assignment is the
record: its code packs U_0, ..., U_{n-1} into n bits each, U_0 highest, and
the backtracking visits the codes in ascending order.  The scan fills one
array of the codes and one list of their opens tuples, the up-sets, which
it builds one point at a time; at the last point p the choices of U_p and
the new opens are read from one list per branch, the j < 2^p with
up[j] <= j | 2^p (see :func:`_minopen_scan`).  Each space is built from
its opens and the U_p unpacked from its code
(``enumeration.enumerate_topologies``), without being validated again,
and the predicates read from the U_p alone are counted on the unpacked
U_p with no space built (``enumeration.count_topologies``).

Homeomorphism classes are the relabeling orbits: a table with one row per
permutation of the carrier holds the image of every mask, and the
canonical form (``enumeration.canonical_form``) is the least sorted image
over all rows.  The classes are found by marking orbits: walking the
ascending opens tuples, an unmarked one is the least of its orbit, so it
is kept and each of its n! relabelings is marked.  A relabeling σ carries
U_p onto U'_{σ(p)} = σ(U_p), so the image's code costs one
``itemgetter`` of the U_p over the row, and marking each distinct image
one bisection in the ascending codes, not a sort of every relabeled open.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from functools import lru_cache
from operator import itemgetter, lshift

from .maps import image_bits


def _code_shifts(n: int) -> list[int]:
    """Where U_p sits in a topology's code: n bits per point, U_0 highest."""
    return [n * (n - 1 - p) for p in range(n)]


def _minopen_scan(n: int) -> tuple[array, list[tuple[int, ...]]]:
    """The codes (``array("Q")``) and the opens tuples of every
    minimal-open assignment, both ascending by code.

    Backtracks as the module docstring describes.  The opens are the
    up-sets, the masks m with up[m] = m, where up[m] is the union of the
    U_q with q in m.  A mask whose highest point is p needs only U_0..U_p,
    so choosing U_p fills up[m] for 2^p <= m < 2^(p+1) from the lower half
    (up[m] = up[m - 2^p] | U_p) and appends the new opens among them.

    At the last point the upper half is not filled.  With bit = 2^p and
    lows the j < bit with up[j] <= j | bit: U_p = bit | r agrees with the
    earlier choices iff r is in lows and U_p lies inside every earlier U_q
    holding p, and bit | j is open iff up[j] | U_p = bit | j, iff j is in
    lows and r <= j.  So lows is listed once per branch and filtered per
    U_p, in the ascending order of U_p.
    """
    codes = array("Q")
    found: list[tuple[int, ...]] = []
    if n == 0:
        codes.append(0)
        found.append((0,))
        return codes, found
    N = 1 << n
    last = n - 1
    # fits[p][i]: the masks holding p inside the mask i, ascending.
    fits = [
        [[u for u in range(N) if u >> p & 1 and not u & ~i] for i in range(N)]
        for p in range(last)
    ]
    shifts = _code_shifts(n)
    assign = [0] * n
    up = [0] * N
    opens = [0]  # the opens below 2^p on the current branch

    def extend(p: int, code: int) -> None:
        bit = 1 << p
        inside = N - 1  # the intersection of the earlier U_q holding p
        for uq in assign[:p]:
            if uq & bit:
                inside &= uq
        if p == last:
            lows = [j for j, v in enumerate(up[:bit]) if not v & ~(j | bit)]
            for r in lows:
                if r & ~inside:
                    continue
                codes.append(code | bit | r)  # U_p is the code's lowest field
                found.append(tuple(opens + [bit | j for j in lows if r & j == r]))
            return
        below = len(opens)
        for u in fits[p][inside]:
            if up[u & (bit - 1)] & ~u:
                continue  # some earlier q in u has U_q outside u
            assign[p] = u
            new = up[bit : bit << 1] = [v | u for v in up[:bit]]
            opens[below:] = [m for m, v in enumerate(new, bit) if v == m]
            extend(p + 1, code | u << shifts[p])

    extend(0, 0)
    return codes, found


@lru_cache(maxsize=None)
def _minopen_index(n: int) -> tuple[tuple[tuple[int, ...], ...], array, array]:
    """The opens tuples ascending, the codes ascending (``array("Q")``), and
    for the i-th opens tuple the index of its code (``array("I")``)."""
    codes, found = _minopen_scan(n)
    order = sorted(range(len(found)), key=found.__getitem__)
    return tuple(map(found.__getitem__, order)), codes, array("I", order)


@lru_cache(maxsize=None)
def _perm_table(n: int) -> tuple[tuple[int, ...], ...]:
    """One row per permutation of the carrier (identity first), holding the
    image of every mask under that permutation."""
    return tuple(
        tuple(image_bits(perm, m) for m in range(1 << n))
        for perm in itertools.permutations(range(n))
    )


def _class_leaders(n: int) -> list[int]:
    """The index in ``_minopen_index(n)[0]`` of the least opens tuple of
    each relabeling orbit, ascending: the tuples equal to their own
    canonical form, found by orbit marking over the codes."""
    _, codes, code_at = _minopen_index(n)
    shifts = _code_shifts(n)
    width = (1 << n) - 1
    table = _perm_table(n)
    # σ carries U_p onto U'_{σ(p)} = σ(U_p): row[U_p] moves to σ(p)'s slot.
    tos = [[shifts[q] for q in perm] for perm in itertools.permutations(range(n))]
    marked = bytearray(len(codes))
    leaders = []
    for i, at in enumerate(code_at):
        if marked[at]:
            continue
        leaders.append(i)
        ups = [codes[at] >> s & width for s in shifts]
        # itemgetter of 0 or 1 items does not return a tuple.
        pick = itemgetter(*ups) if n > 1 else lambda row: tuple(map(row.__getitem__, ups))
        # The shifted fields are disjoint, so their sum is the code; a code
        # reached by several relabelings is looked up once.
        for code in {sum(map(lshift, images, to)) for images, to in zip(map(pick, table), tos)}:
            marked[bisect_left(codes, code)] = 1
    return leaders
