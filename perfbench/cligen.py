"""The ``cli_docs`` corpus: space documents, requests and a brute-force oracle.

Everything here is plain Python over bitmask lists and never imports
fintop, so a fault in the package cannot hide in the expected answers.
An expected answer is either known by construction (a relabeled copy is
homeomorphic, the Alexandroff extension of a finite space adds ``U + inf``
for every open ``U``) or computed by brute force from the document's
opens list.

Cliffs kept out of the mix, so that no request takes much over 0.5 s (see
README.md for the measured costs): ``check`` only on spaces of at most
80 opens, ``alexandroff`` only on at most 12 opens, ``product`` only on
factors of at most 3 points, ``components`` only on at most 8 points.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
from dataclasses import dataclass, field

CHECK_MAX_OPENS = 80
ALEXANDROFF_MAX_OPENS = 12
PRODUCT_MAX_POINTS = 3
COMPONENTS_MAX_POINTS = 8

#: Requests of each kind in one pass; each kind cycles over its documents.
KINDS = {
    "validate": 120,
    "ops": 160,
    "check": 100,
    "homeo": 80,
    "cover": 100,
    "components": 60,
    "subspace": 100,
    "quotient": 80,
    "product": 60,
    "alexandroff": 60,
    "generate": 80,
}

#: Random preorder documents: (points, fewest opens, most opens).  The
#: bands are narrow so that a document's cost barely depends on the seed,
#: and the spaces ``check`` may use (at most CHECK_MAX_OPENS opens) are
#: the same slots for every seed.
PREORDER_SLOTS = [
    (4, 3, 6), (4, 7, 12),
    (5, 4, 8), (5, 12, 20),
    (6, 6, 12), (6, 20, 32),
    (7, 8, 16), (7, 28, 44),
    (8, 12, 24), (8, 96, 160),
    (9, 16, 32), (9, 128, 200),
    (10, 20, 40), (10, 200, 320),
]

#: Product factors: (points, edge density).
SMALL_SLOTS = [(2, 0.0), (2, 0.6), (3, 0.0), (3, 0.3), (3, 0.6), (3, 1.0)]

#: Documents that lose one open to make the invalid ``validate`` inputs.
INVALID_FROM = ("pre1", "pre5", "pre9", "pre13", "chain8", "disc8")


def bits(m: int) -> list[int]:
    return [p for p in range(m.bit_length()) if m >> p & 1]


def mask(points) -> int:
    out = 0
    for p in points:
        out |= 1 << p
    return out


def random_preorder(rng: random.Random, n: int, density: float) -> list[int]:
    """Minimal opens of a random preorder: random edges, transitively closed."""
    up = [1 << p for p in range(n)]
    for p in range(n):
        for q in range(n):
            if p != q and rng.random() < density:
                up[p] |= 1 << q
    changed = True
    while changed:
        changed = False
        for p in range(n):
            acc = up[p]
            for q in bits(up[p]):
                acc |= up[q]
            if acc != up[p]:
                up[p] = acc
                changed = True
    return up


def relabel(perm, m: int) -> int:
    return mask(perm[p] for p in bits(m))


@dataclass
class Doc:
    name: str
    n: int
    opens: list[int]  # ascending masks

    def obj(self) -> dict:
        return {"n": self.n, "opens": [bits(m) for m in self.opens]}

    @functools.cached_property
    def violations(self) -> set[str]:
        return violation_kinds(self.n, self.opens)


@dataclass
class Request:
    kind: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


# -- brute-force facts over an opens list ------------------------------------


def closure(n: int, opens: list[int], s: int) -> int:
    full = (1 << n) - 1
    far = 0
    for u in opens:
        if not u & s:
            far |= u
    return full & ~far


def interior(opens: list[int], s: int) -> int:
    inner = 0
    for u in opens:
        if u & ~s == 0:
            inner |= u
    return inner


def t0(n: int, opens: list[int]) -> bool:
    return all(
        any((u >> p & 1) != (u >> q & 1) for u in opens)
        for p, q in itertools.combinations(range(n), 2)
    )


def t1(n: int, opens: list[int]) -> bool:
    return all(
        any(u >> p & 1 and not u >> q & 1 for u in opens)
        for p in range(n)
        for q in range(n)
        if p != q
    )


def clopens(n: int, opens: list[int]) -> list[int]:
    full = (1 << n) - 1
    oset = set(opens)
    return [u for u in opens if full & ~u in oset]


def components(n: int, opens: list[int]) -> list[int]:
    """Components of a finite space: the atoms of its clopen algebra,
    ordered by smallest member."""
    cl = clopens(n, opens)
    blocks = []
    for p in range(n):
        acc = (1 << n) - 1
        for c in cl:
            if c >> p & 1:
                acc &= c
        if acc not in blocks:
            blocks.append(acc)
    return blocks


def union_closure(base) -> list[int]:
    found = {0}
    for b in base:
        found |= {f | b for f in found}
    return sorted(found)


def violation_kinds(n: int, fam: list[int]) -> set[str]:
    full = (1 << n) - 1
    fset = set(fam)
    kinds = set()
    if 0 not in fset:
        kinds.add("MissingEmpty")
    if full not in fset:
        kinds.add("MissingCarrier")
    pairs = itertools.combinations(sorted(fset), 2)
    if any(a & b not in fset for a, b in pairs):
        kinds.add("NotIntersectionClosed")
    pairs = itertools.combinations(sorted(fset), 2)
    if any(a | b not in fset for a, b in pairs):
        kinds.add("NotUnionClosed")
    return kinds


def min_cover_size(members: list[int], target: int) -> int:
    for k in range(1, len(members) + 1):
        for combo in itertools.combinations(members, k):
            if target & ~mask_union(combo) == 0:
                return k
    raise ValueError("members do not cover the target")


def mask_union(ms) -> int:
    out = 0
    for m in ms:
        out |= m
    return out


def space_obj(n: int, opens) -> dict:
    return {"n": n, "opens": [bits(m) for m in sorted(set(opens))]}


def pts_arg(m: int) -> str:
    return ",".join(map(str, bits(m)))


# -- corpus and requests ------------------------------------------------------


class Corpus:
    """Seeded documents plus a closed-loop request list over them.

    The seed draws the documents' contents, the request arguments and the
    request order.  The shape is fixed: every seed has the same document
    slots (carrier size and a band of open counts) and the same number of
    requests of each kind on each slot, so run time does not depend on
    which seed is drawn.
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.docs: list[Doc] = []
        self.families: dict[str, tuple[int, list[int]]] = {}
        for i, (n, lo, hi) in enumerate(PREORDER_SLOTS):
            while True:
                up = random_preorder(rng, n, rng.uniform(0.02, 0.6))
                opens = union_closure(up)
                if lo <= len(opens) <= hi:
                    break
            self.docs.append(Doc(f"pre{i}", n, opens))
        for n in (8, 9, 10):
            self.docs.append(Doc(f"disc{n}", n, list(range(1 << n))))
        for n in (4, 6, 8, 10, 11, 12):
            perm = list(range(n))
            rng.shuffle(perm)
            chain = [(1 << k) - 1 for k in range(n + 1)]
            self.docs.append(Doc(f"chain{n}", n, sorted(relabel(perm, m) for m in chain)))
        self.small = []
        for i, (n, density) in enumerate(SMALL_SLOTS):
            up = random_preorder(rng, n, density)
            self.small.append(Doc(f"small{i}", n, union_closure(up)))
        self.invalid = []
        for i, src in enumerate(d for d in self.docs if d.name in INVALID_FROM):
            drop = rng.choice(src.opens[1:-1])
            fam = [m for m in src.opens if m != drop]
            if i % 3 == 0:
                fam = fam[1:]  # drop the empty set too
            self.invalid.append(Doc(f"bad{i}", src.n, fam))
        self.copies: dict[str, Doc] = {}
        for d in self.docs:
            perm = list(range(d.n))
            rng.shuffle(perm)
            self.copies[d.name] = Doc(d.name + "_rl", d.n, sorted(relabel(perm, m) for m in d.opens))
        self.requests = [
            getattr(self, "_req_" + kind)(rng, i)
            for kind, count in KINDS.items()
            for i in range(count)
        ]
        rng.shuffle(self.requests)

    def all_docs(self) -> list[Doc]:
        return self.docs + self.small + self.invalid + list(self.copies.values())

    def write(self, workdir: str) -> None:
        """Write every document and family document the requests name."""
        os.makedirs(workdir, exist_ok=True)
        for d in self.all_docs():
            with open(os.path.join(workdir, d.name + ".json"), "w") as fh:
                json.dump(d.obj(), fh)
        for name, (n, members) in self.families.items():
            with open(os.path.join(workdir, name), "w") as fh:
                json.dump({"n": n, "members": [bits(m) for m in members]}, fh)
        for r in self.requests:
            r.argv = [
                os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in r.argv
            ]

    @staticmethod
    def _ref(d: Doc) -> str:
        return "@" + d.name + ".json"

    def _req_validate(self, rng, i):
        pool = self.invalid if i % 8 == 0 else self.docs
        d = pool[i // 8 % len(pool)] if i % 8 == 0 else pool[i % len(pool)]
        return Request("validate", ["validate", self._ref(d)], {"doc": d})

    def _req_ops(self, rng, i):
        d = self.docs[i % len(self.docs)]
        s = rng.getrandbits(d.n)
        argv = ["ops", self._ref(d), "--set", pts_arg(s), "--closure", "--interior", "--frontier"]
        return Request("ops", argv, {"doc": d, "set": s})

    def _req_check(self, rng, i):
        pool = [d for d in self.docs + self.small if len(d.opens) <= CHECK_MAX_OPENS]
        d = pool[i % len(pool)]
        return Request("check", ["check", self._ref(d), "--t0", "--t1", "--connected"], {"doc": d})

    def _req_homeo(self, rng, i):
        d = self.docs[i % len(self.docs)]
        if i % 5 == 0:
            others = [o for o in self.docs if o.n == d.n and len(o.opens) != len(d.opens)]
            if others:
                other = rng.choice(others)
                argv = ["homeo", self._ref(d), self._ref(other)]
                return Request("homeo", argv, {"doc": d, "other": other, "homeomorphic": False})
        copy = self.copies[d.name]
        argv = ["homeo", self._ref(d), self._ref(copy)]
        return Request("homeo", argv, {"doc": d, "other": copy, "homeomorphic": True})

    def _req_cover(self, rng, i):
        d = self.docs[i % len(self.docs)]
        full = (1 << d.n) - 1
        proper = [u for u in d.opens if u and u != full]
        members = set(rng.sample(proper, min(len(proper), rng.randint(2, 5))))
        for p in range(d.n):
            if not any(m >> p & 1 for m in members):
                members.add(rng.choice([u for u in d.opens if u >> p & 1 and u != full] or [full]))
        members = sorted(members)
        argv = ["cover", self._ref(d), "--members", ";".join(pts_arg(m) for m in members), "--minimal"]
        return Request("cover", argv, {"doc": d, "members": members})

    def _req_components(self, rng, i):
        pool = [d for d in self.docs if d.n <= COMPONENTS_MAX_POINTS]
        d = pool[i % len(pool)]
        return Request("components", ["components", self._ref(d)], {"doc": d})

    def _req_subspace(self, rng, i):
        d = self.docs[i % len(self.docs)]
        y = rng.getrandbits(d.n)
        return Request("subspace", ["subspace", self._ref(d), "--points", pts_arg(y)], {"doc": d, "points": y})

    def _req_quotient(self, rng, i):
        d = self.docs[i % len(self.docs)]
        k = rng.randint(1, d.n)
        label = [rng.randrange(k) for _ in range(d.n)]
        blocks = [mask(p for p in range(d.n) if label[p] == b) for b in range(k)]
        blocks = sorted((b for b in blocks if b), key=lambda b: b & -b)
        argv = ["quotient", self._ref(d), "--blocks", ";".join(pts_arg(b) for b in blocks)]
        return Request("quotient", argv, {"doc": d, "blocks": blocks})

    def _req_product(self, rng, i):
        a = self.small[i % len(self.small)]
        b = self.small[i // len(self.small) % len(self.small)]
        return Request("product", ["product", self._ref(a), self._ref(b)], {"doc": a, "other": b})

    def _req_alexandroff(self, rng, i):
        pool = [d for d in self.docs + self.small if len(d.opens) <= ALEXANDROFF_MAX_OPENS]
        d = pool[i % len(pool)]
        return Request("alexandroff", ["alexandroff", self._ref(d)], {"doc": d})

    def _req_generate(self, rng, i):
        n = 4 + i % 7
        if i % 4 == 0:
            return Request("generate", ["generate", "--discrete", str(n)], {"n": n, "opens": list(range(1 << n))})
        if i % 4 == 1:
            return Request("generate", ["generate", "--indiscrete", str(n)], {"n": n, "opens": [0, (1 << n) - 1]})
        d = self.docs[i % len(self.docs)]
        base = sorted({min_open(d.opens, d.n, p) for p in range(d.n)})
        name = d.name + "_base.json"
        self.families[name] = (d.n, base)
        return Request("generate", ["generate", "--base", "@" + name], {"n": d.n, "opens": d.opens, "base": base})


def min_open(opens: list[int], n: int, p: int) -> int:
    acc = (1 << n) - 1
    for u in opens:
        if u >> p & 1:
            acc &= u
    return acc


# -- the oracle ---------------------------------------------------------------


def check(req: Request, code: int, out: dict) -> str | None:
    """None when the reply matches the oracle, else a one-line reason."""
    e = req.expect
    want_code, want = 0, None
    if req.kind == "validate":
        d = e["doc"]
        kinds = d.violations
        if not kinds:
            want = {"valid": True, "canonical": space_obj(d.n, d.opens)}
        else:
            want_code = 1
            got = out.get("violations", [])
            if out.get("valid") is not False or {v["kind"] for v in got} != kinds:
                return f"violations {got} != kinds {sorted(kinds)}"
            fset = set(d.opens)
            for v in got:
                a, b = (mask(w) for w in v["witness"]) if len(v["witness"]) == 2 else (0, 0)
                if v["kind"] == "NotIntersectionClosed" and a & b in fset:
                    return f"bad intersection witness {v}"
                if v["kind"] == "NotUnionClosed" and a | b in fset:
                    return f"bad union witness {v}"
            want = out
    elif req.kind == "ops":
        d, s = e["doc"], e["set"]
        cl, it = closure(d.n, d.opens, s), interior(d.opens, s)
        want = {"closure": bits(cl), "interior": bits(it), "frontier": bits(cl & ~it)}
    elif req.kind == "check":
        d = e["doc"]
        full = (1 << d.n) - 1
        want = {
            "t0": t0(d.n, d.opens),
            "t1": t1(d.n, d.opens),
            "connected": set(clopens(d.n, d.opens)) == {0, full},
        }
        if want["t1"] != (len(d.opens) == 1 << d.n):
            return "oracle: T1 must hold exactly for discrete spaces"
        want_code = 0 if all(want.values()) else 1
    elif req.kind == "homeo":
        if not e["homeomorphic"]:
            want_code, want = 1, {"homeomorphic": False}
        else:
            d, other = e["doc"], e["other"]
            table = out.get("witness")
            if out.get("homeomorphic") is not True or not isinstance(table, list):
                return f"no witness: {out}"
            if sorted(table) != list(range(d.n)):
                return f"witness {table} is not a bijection"
            if sorted(relabel(table, u) for u in d.opens) != other.opens:
                return f"witness {table} does not carry opens onto opens"
            want = out
    elif req.kind == "cover":
        d, members = e["doc"], e["members"]
        full = (1 << d.n) - 1
        oset = set(d.opens)
        sub = [mask(m) for m in out.get("minimal_subcover", [])]
        if not set(sub) <= set(members) or full & ~mask_union(sub):
            return f"minimal subcover {sub} is not a subcover"
        if len(sub) != min_cover_size(members, full):
            return f"minimal subcover size {len(sub)} != {min_cover_size(members, full)}"
        want = {
            "is_cover": True,
            "open_cover": True,
            "closed_cover": all(full & ~m in oset for m in members),
            "locally_finite": True,
            "fundamental": True,
            "minimal_subcover": out.get("minimal_subcover"),
        }
    elif req.kind == "components":
        d = e["doc"]
        want = {"components": [bits(b) for b in components(d.n, d.opens)]}
    elif req.kind == "subspace":
        d, y = e["doc"], e["points"]
        pts = bits(y)
        sub = {mask(i for i, p in enumerate(pts) if u >> p & 1) for u in d.opens}
        want = {"space": space_obj(len(pts), sub), "inclusion": pts}
    elif req.kind == "quotient":
        d, blocks = e["doc"], e["blocks"]
        oset = set(d.opens)
        k = len(blocks)
        qopens = [q for q in range(1 << k) if mask_union(blocks[i] for i in bits(q)) in oset]
        index = [next(i for i, b in enumerate(blocks) if b >> p & 1) for p in range(d.n)]
        want = {"space": space_obj(k, qopens), "projection": index}
    elif req.kind == "product":
        a, b = e["doc"], e["other"]
        rects = {
            mask(i * b.n + j for i in bits(u) for j in bits(v)) for u in a.opens for v in b.opens
        }
        want = {
            "space": space_obj(a.n * b.n, union_closure(sorted(rects))),
            "projection1": [i for i in range(a.n) for _ in range(b.n)],
            "projection2": [j for _ in range(a.n) for j in range(b.n)],
        }
    elif req.kind == "alexandroff":
        d = e["doc"]
        inf = 1 << d.n
        want = {"space": space_obj(d.n + 1, d.opens + [u | inf for u in d.opens])}
    elif req.kind == "generate":
        want = {"space": space_obj(e["n"], e["opens"])}
        if "base" in e:
            want["family"] = {"n": e["n"], "members": [bits(m) for m in e["base"]]}
    else:
        return f"unknown kind {req.kind}"
    if code != want_code:
        return f"exit code {code} != {want_code}"
    if out != want:
        return f"reply {json.dumps(out)[:200]} != expected {json.dumps(want)[:200]}"
    return None
