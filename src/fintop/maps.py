"""Total maps between finite carriers and their topological analysis:
continuity, open/closed maps, homeomorphisms, embeddings, and limits.

Every map predicate is decided from the minimal opens U_p
(``TopSpace.ups``) and the point closures cl{p} = {q : p ∈ U_q}.  A finite
space is its specialization preorder, and its continuous maps are exactly
the order-preserving ones (Barmak 2011, LNM 2032, ch. 1).  U_p is the least
neighborhood of p, so each definition becomes one mask test per point:

- f is continuous at p iff f(U_p) ⊆ U_{f(p)}, and continuous iff that
  holds at every p;
- f is open iff every f(U_p) is open, and closed iff every f(cl{p}) is
  closed (a down-set): every open is a union of U_p, every closed set a
  union of cl{p}, and images preserve unions;
- f is an embedding iff it is injective and U_p = f⁻¹(U_{f(p)}) for every
  p: the image subspace has the minimal opens U_y ∩ f(X), and the
  corestriction then carries the preorder both ways;
- p is a limit point of A iff (U_p ∩ A) − {p} ≠ ∅, and y is a limit of f
  along A at p iff f((U_p ∩ A) − {p}) ⊆ U_y.

None of these reads the opens family, so ``fintop homeo --map`` and
``--limit-set`` answer at the 24-point cap.  The literal definitions
(preimages of opens, images of opens and closed sets, the image subspace,
neighborhood quantifiers) are the reference in ``tests/test_maps.py``.

:func:`image_bits` and :func:`preimage_bits` are the single place where a
subset mask moves along a function table: maps, the subspace, product and
quotient constructors, and the enumeration's permutation and map tables all
call them."""

from __future__ import annotations

from typing import Iterator, Optional

from .carrier import PointSet, _Record, _check_point, mask_points, same_carrier
from .errors import NotALimitPoint
from .space import TopSpace


def image_bits(table, mask: int) -> int:
    """Mask of {table[p] : p in mask}."""
    bits = 0
    p = 0
    while mask:
        if mask & 1:
            bits |= 1 << table[p]
        mask >>= 1
        p += 1
    return bits


def preimage_bits(table, mask: int) -> int:
    """Mask of {p : table[p] in mask}."""
    bits = 0
    for p, v in enumerate(table):
        if mask >> v & 1:
            bits |= 1 << p
    return bits


class FiniteMap(_Record):
    """A total function table between two carriers."""

    __slots__ = ("dom_n", "cod_n", "table")

    def __init__(self, dom_n: int, cod_n: int, table: tuple[int, ...]) -> None:
        if len(table) != dom_n:
            raise ValueError(f"table length {len(table)} != domain size {dom_n}")
        for v in table:
            if not 0 <= v < cod_n:
                raise ValueError(f"table entry {v} outside codomain of size {cod_n}")
        _set_dom_n(self, dom_n)
        _set_cod_n(self, cod_n)
        _set_table(self, table)

    @classmethod
    def of(cls, dom_n: int, cod_n: int, table) -> "FiniteMap":
        return cls(dom_n, cod_n, tuple(table))

    @classmethod
    def identity(cls, n: int) -> "FiniteMap":
        return cls(n, n, tuple(range(n)))

    @classmethod
    def constant(cls, dom_n: int, cod_n: int, value: int) -> "FiniteMap":
        return cls(dom_n, cod_n, (value,) * dom_n)

    def __call__(self, p: int) -> int:
        return self.table[p]

    def image(self, A: PointSet) -> PointSet:
        same_carrier(A.n, self.dom_n)
        return PointSet(image_bits(self.table, A.bits), self.cod_n)

    def preimage(self, B: PointSet) -> PointSet:
        same_carrier(B.n, self.cod_n)
        return PointSet(preimage_bits(self.table, B.bits), self.dom_n)

    def compose(self, inner: "FiniteMap") -> "FiniteMap":
        """self after inner."""
        same_carrier(inner.cod_n, self.dom_n)
        return FiniteMap(inner.dom_n, self.cod_n, tuple(self.table[v] for v in inner.table))

    def is_injective(self) -> bool:
        return len(set(self.table)) == self.dom_n

    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.cod_n

    def inverse(self) -> "FiniteMap":
        if not (self.is_injective() and self.is_surjective() and self.dom_n == self.cod_n):
            raise ValueError("only bijections have an inverse")
        inv = [0] * self.dom_n
        for p, v in enumerate(self.table):
            inv[v] = p
        return FiniteMap(self.cod_n, self.dom_n, tuple(inv))


_set_dom_n, _set_cod_n, _set_table = FiniteMap._setters


class MapReport(_Record):
    __slots__ = (
        "continuous",
        "open_map",
        "closed_map",
        "injective",
        "surjective",
        "homeomorphism",
        "embedding",
    )


def _check_compat(f: FiniteMap, s1: TopSpace, s2: TopSpace) -> None:
    same_carrier(f.dom_n, s1.n)
    same_carrier(f.cod_n, s2.n)


def _is_union(blocks, mask: int) -> bool:
    """Whether mask holds blocks[q] for each of its points q: an open set
    when the blocks are the U_q, a closed set when they are the cl{q}."""
    return all(blocks[q] & ~mask == 0 for q in mask_points(mask))


def check_map(f: FiniteMap, s1: TopSpace, s2: TopSpace) -> MapReport:
    """Classify f between two spaces from the minimal opens (see the module
    docstring)."""
    _check_compat(f, s1, s2)
    table = f.table
    ups1, ups2 = s1.ups, s2.ups
    images = [image_bits(table, u) for u in ups1]
    continuous = all(img & ~ups2[v] == 0 for img, v in zip(images, table))
    open_map = all(_is_union(ups2, img) for img in images)
    downs2 = s2.downs
    closed_map = all(_is_union(downs2, image_bits(table, d)) for d in s1.downs)
    injective = f.is_injective()
    surjective = f.is_surjective()
    homeomorphism = injective and surjective and continuous and open_map
    embedding = injective and all(
        preimage_bits(table, ups2[v]) == u for u, v in zip(ups1, table)
    )
    return MapReport(
        continuous, open_map, closed_map, injective, surjective, homeomorphism, embedding
    )


def is_continuous_at(f: FiniteMap, s1: TopSpace, s2: TopSpace, p: int) -> bool:
    """Local continuity: f(U_p) ⊆ U_{f(p)}, that is, every neighborhood of
    f(p) holds the image of some neighborhood of p."""
    _check_compat(f, s1, s2)
    _check_point(s1.n, p)
    return image_bits(f.table, s1.ups[p]) & ~s2.ups[f.table[p]] == 0


def restrict(f: FiniteMap, s1: TopSpace, s2: TopSpace, A: PointSet) -> FiniteMap:
    """Domain restriction of f to A, through the subspace re-indexing."""
    _check_compat(f, s1, s2)
    same_carrier(A.n, s1.n)
    return FiniteMap(len(A), s2.n, tuple(f.table[p] for p in A.points()))


def limits_at(
    s1: TopSpace, A: PointSet, f: FiniteMap, s2: TopSpace, p: int
) -> PointSet:
    """All limits of f (defined on A, indexed in ascending order of A's
    points) at the limit point p of A.

    p is a limit point of A iff (U_p & A) - {p} is not empty, and y is a
    limit iff U_y holds the image of (U_p & A) - {p}.
    """
    same_carrier(A.n, s1.n)
    same_carrier(f.cod_n, s2.n)
    points = A.points()
    if f.dom_n != len(points):
        raise ValueError("map domain must match |A|")
    _check_point(s1.n, p)
    punctured = s1.ups[p] & A.bits & ~(1 << p)
    if not punctured:
        raise NotALimitPoint(f"{p} is not a limit point of the set")
    img = image_bits(f.table, preimage_bits(points, punctured))
    return PointSet(sum(1 << y for y, u in enumerate(s2.ups) if img & ~u == 0), s2.n)


def _homeomorphisms(s1: TopSpace, s2: TopSpace) -> Iterator[tuple[int, ...]]:
    """Every homeomorphism table from s1 onto s2, in lexicographic order.

    Candidate bijections are pruned by cheap invariants first (open-set
    count, the size of each point's minimal open), then built by
    backtracking with partial minimal-open consistency.  A complete table
    carries the specialization preorder both ways, r ∈ U_p iff
    f(r) ∈ U_{f(p)}, so it maps each U_p onto U_{f(p)} and, as images
    preserve unions, the opens onto the opens: it is a homeomorphism.
    """
    if s1.n != s2.n or len(s1.opens) != len(s2.opens):
        return
    n = s1.n
    sig1 = [u.bit_count() for u in s1.ups]
    sig2 = [u.bit_count() for u in s2.ups]
    if sorted(sig1) != sorted(sig2):
        return
    assignment: list[int] = []
    used = [False] * n

    def consistent(p: int, q: int) -> bool:
        if sig1[p] != sig2[q]:
            return False
        mo1 = s1.ups[p]
        mo2 = s2.ups[q]
        for r, fr in enumerate(assignment):
            # specialization preorder must be carried both ways
            if bool(mo1 >> r & 1) != bool(mo2 >> fr & 1):
                return False
            if bool(s1.ups[r] >> p & 1) != bool(s2.ups[fr] >> q & 1):
                return False
        return True

    q = 0  # the next candidate image of point len(assignment)
    while True:
        p = len(assignment)
        if p == n:
            yield tuple(assignment)
        else:
            while q < n and (used[q] or not consistent(p, q)):
                q += 1
            if q < n:
                used[q] = True
                assignment.append(q)
                q = 0
                continue
        if not assignment:
            return
        q = assignment.pop()
        used[q] = False
        q += 1


def find_homeomorphism(s1: TopSpace, s2: TopSpace) -> Optional[FiniteMap]:
    """Search for a homeomorphism; returns the lexicographically least
    witness table, or None."""
    table = next(_homeomorphisms(s1, s2), None)
    return None if table is None else FiniteMap(s1.n, s1.n, table)


def homeomorphic(s1: TopSpace, s2: TopSpace) -> bool:
    return find_homeomorphism(s1, s2) is not None


def embeddings_equivalent(
    s1: TopSpace, s2: TopSpace, e1: FiniteMap, e2: FiniteMap
) -> bool:
    """True iff self-homeomorphisms h1 of the domain and h2 of the codomain
    exist with e1 . h1 = h2 . e2.

    Both automorphism groups come from the homeomorphism search, and the
    tables h2 . e2 are hashed once, so the cost grows with |Aut(s1)| +
    |Aut(s2)|: n! on a discrete space, one on a rigid one such as a chain.
    """
    _check_compat(e1, s1, s2)
    _check_compat(e2, s1, s2)
    rhs = {tuple(h2[v] for v in e2.table) for h2 in _homeomorphisms(s2, s2)}
    return any(
        tuple(e1.table[v] for v in h1) in rhs for h1 in _homeomorphisms(s1, s1)
    )
