"""Total maps between finite carriers and their topological analysis:
continuity, open/closed maps, homeomorphisms, embeddings, and limits.

:func:`image_bits` and :func:`preimage_bits` are the single place where a
subset mask moves along a function table: maps, the subspace, product and
quotient constructors, and the enumeration's permutation and map tables all
call them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .carrier import PointSet, same_carrier
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


@dataclass(frozen=True, slots=True)
class FiniteMap:
    """A total function table between two carriers."""

    dom_n: int
    cod_n: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.table) != self.dom_n:
            raise ValueError(
                f"table length {len(self.table)} != domain size {self.dom_n}"
            )
        for v in self.table:
            if not 0 <= v < self.cod_n:
                raise ValueError(f"table entry {v} outside codomain of size {self.cod_n}")

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


@dataclass(frozen=True, slots=True)
class MapReport:
    continuous: bool
    open_map: bool
    closed_map: bool
    injective: bool
    surjective: bool
    homeomorphism: bool
    embedding: bool


def _check_compat(f: FiniteMap, s1: TopSpace, s2: TopSpace) -> None:
    same_carrier(f.dom_n, s1.n)
    same_carrier(f.cod_n, s2.n)


def check_map(f: FiniteMap, s1: TopSpace, s2: TopSpace) -> MapReport:
    """Classify f between two spaces.

    The embedding flag is decided by explicitly constructing the image
    subspace and checking the corestriction for homeomorphism.
    """
    _check_compat(f, s1, s2)
    opens1 = s1.opens.mask_set
    opens2 = s2.opens.mask_set
    closeds1 = s1.closeds.mask_set
    closeds2 = s2.closeds.mask_set
    continuous = all(preimage_bits(f.table, w) in opens1 for w in opens2)
    open_map = all(image_bits(f.table, u) in opens2 for u in opens1)
    closed_map = all(image_bits(f.table, c) in closeds2 for c in closeds1)
    injective = f.is_injective()
    surjective = f.is_surjective()
    homeomorphism = injective and surjective and continuous and open_map
    embedding = _is_embedding(f, s1, s2, injective)
    return MapReport(
        continuous, open_map, closed_map, injective, surjective, homeomorphism, embedding
    )


def _is_embedding(f: FiniteMap, s1: TopSpace, s2: TopSpace, injective: bool) -> bool:
    if not injective:
        return False
    from .construct import subspace

    img = f.image(PointSet.full(s1.n))
    sub, inclusion = subspace(s2, img)
    reindex = {orig: i for i, orig in enumerate(inclusion.table)}
    corestricted = FiniteMap(s1.n, sub.n, tuple(reindex[v] for v in f.table))
    opens1 = s1.opens.mask_set
    opens_sub = sub.opens.mask_set
    continuous = all(preimage_bits(corestricted.table, w) in opens1 for w in opens_sub)
    open_onto = all(image_bits(corestricted.table, u) in opens_sub for u in opens1)
    return continuous and open_onto


def is_continuous_at(f: FiniteMap, s1: TopSpace, s2: TopSpace, p: int) -> bool:
    """Local continuity: every neighborhood of f(p) pulls back inside the
    image of some neighborhood of p."""
    _check_compat(f, s1, s2)
    if not 0 <= p < s1.n:
        raise ValueError(f"point {p} outside carrier of size {s1.n}")
    fp = f.table[p]
    for w in s2.opens.masks:
        if not w >> fp & 1:
            continue
        if not any(
            u >> p & 1 and image_bits(f.table, u) & ~w == 0 for u in s1.opens.masks
        ):
            return False
    return True


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

    y is a limit iff every neighborhood of y contains the image of
    (U & A) - {p} for some neighborhood U of p.
    """
    same_carrier(A.n, s1.n)
    same_carrier(f.cod_n, s2.n)
    points = A.points()
    if f.dom_n != len(points):
        raise ValueError("map domain must match |A|")
    from .operators import point_roles

    if not point_roles(s1, A, p).limit:
        raise NotALimitPoint(f"{p} is not a limit point of the set")
    pbit = 1 << p
    # Image in s2 of (U & A) - {p}, per candidate neighborhood U of p.
    images = [
        image_bits(f.table, preimage_bits(points, u & ~pbit))
        for u in s1.opens.masks
        if u & pbit
    ]
    out = 0
    for y in range(s2.n):
        ybit = 1 << y
        ok = True
        for w in s2.opens.masks:
            if not w & ybit:
                continue
            if not any(img & ~w == 0 for img in images):
                ok = False
                break
        if ok:
            out |= ybit
    return PointSet(out, s2.n)


def _point_signature(s: TopSpace, p: int) -> tuple[int, int]:
    member_count = sum(1 for m in s.opens.masks if m >> p & 1)
    return (s.ups[p].bit_count(), member_count)


def _homeomorphisms(s1: TopSpace, s2: TopSpace) -> Iterator[tuple[int, ...]]:
    """Every homeomorphism table from s1 onto s2, in lexicographic order.

    Candidate bijections are pruned by cheap invariants first (open-set
    count, per-point minimal-open/membership signatures), then built by
    backtracking with partial minimal-open consistency.  A complete table
    carries the specialization preorder both ways, r ∈ U_p iff
    f(r) ∈ U_{f(p)}, so it maps each U_p onto U_{f(p)} and, as images
    preserve unions, the opens onto the opens: it is a homeomorphism.
    """
    if s1.n != s2.n or len(s1.opens) != len(s2.opens):
        return
    n = s1.n
    sig1 = [_point_signature(s1, p) for p in range(n)]
    sig2 = [_point_signature(s2, p) for p in range(n)]
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
