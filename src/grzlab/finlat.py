"""Finite posets and finite Heyting algebras, linked by downset duality.

Algebras are operation tables over element indices 0..n-1.  The order is
always derived from the meet table (a <= b iff a meet b = a), so a table
that lies about its order is caught by the axiom scan rather than trusted.

Every finite distributive lattice is the downset lattice of the poset of
its join-irreducible elements; ``downset_heyting`` and
``join_irreducible_poset`` implement the two directions.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import CapExceeded, InputError

ELEMENT_CAP = 4096
POSET_POINT_CAP = 7

MODES = ("any", "injective", "surjective", "iso")


def derived(obj, build, *args):
    """``build(obj, *args)``, computed once per instance and kept in ``obj._derived``.

    The store is keyed by the function and the arguments, so each derived
    value has one slot.  A refusal raised by ``build`` is not stored: the
    next call raises again.  Callers hand out copies of mutable values,
    never the stored object.
    """
    store = obj._derived
    key = (build, *args)
    try:
        return store[key]
    except KeyError:
        value = store[key] = build(obj, *args)
        return value


@dataclass(frozen=True)
class FinitePoset:
    """A finite partially ordered set: ``leq[i, j]`` means i lies below j.

    Construction freezes the matrix but does not validate; ``validate``
    reports witnessed axiom failures so broken inputs can be examined.
    The fields cannot be rebound and the matrix is read-only, so derived
    values (the canonical key) are cached per instance.
    """

    size: int
    leq: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.array(self.leq, dtype=bool)
        if mat.shape != (self.size, self.size):
            raise InputError(
                f"leq matrix has shape {mat.shape}, expected {(self.size, self.size)}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "leq", mat)

    def validate(self) -> list[tuple[str, tuple[int, ...]]]:
        """Witnessed violations of reflexivity, antisymmetry, transitivity."""
        out: list[tuple[str, tuple[int, ...]]] = []
        leq = self.leq
        refl = np.nonzero(~np.diag(leq))[0] if self.size else np.empty(0, int)
        if refl.size:
            out.append(("reflexivity", (int(refl[0]),)))
        anti = np.nonzero(leq & leq.T & ~np.eye(self.size, dtype=bool))
        if anti[0].size:
            out.append(("antisymmetry", (int(anti[0][0]), int(anti[1][0]))))
        closure = leq @ leq
        trans = np.nonzero(closure & ~leq)
        if trans[0].size:
            i, k = int(trans[0][0]), int(trans[1][0])
            j = int(np.nonzero(leq[i] & leq[:, k])[0][0])
            out.append(("transitivity", (i, j, k)))
        return out

    def require_valid(self) -> None:
        bad = self.validate()
        if bad:
            raise InputError(f"not a partial order: {bad}")

    def down_mask(self, j: int) -> int:
        """Bitmask of points lying below point j (j included)."""
        return _mask_from_bools(self.leq[:, j])

    def is_isomorphic(self, other: "FinitePoset") -> bool:
        """Isomorphism by ``relation_isomorphisms`` at every size, once both
        relations are checked to be partial orders (``InputError`` if not)."""
        self.require_valid()
        other.require_valid()
        return next(relation_isomorphisms(self.leq, other.leq), None) is not None

    def to_record(self) -> dict:
        return {
            "kind": "poset",
            "size": self.size,
            "leq": [[bool(x) for x in row] for row in self.leq],
        }

    @classmethod
    def from_record(cls, rec: dict) -> "FinitePoset":
        _require_kind(rec, "poset")
        size = _require_int(rec, "size")
        leq = rec.get("leq")
        if not isinstance(leq, list) or len(leq) != size:
            raise InputError("poset record: leq must be a size x size matrix")
        for row in leq:
            if not isinstance(row, list) or len(row) != size:
                raise InputError("poset record: leq must be a size x size matrix")
        return cls(size, np.array(leq, dtype=bool).reshape(size, size))


def _mask_from_bools(col) -> int:
    mask = 0
    for i, v in enumerate(col):
        if v:
            mask |= 1 << i
    return mask


def _require_kind(rec: dict, kind: str) -> None:
    if not isinstance(rec, dict) or rec.get("kind") != kind:
        raise InputError(f"expected a {kind!r} record")


def _require_int(rec: dict, key: str) -> int:
    v = rec.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise InputError(f"record key {key!r} must be a nonnegative integer")
    return v


def linear_extension(poset: FinitePoset) -> list[int]:
    """Points in an order compatible with leq; least index first among minima."""
    leq = poset.leq
    remaining = set(range(poset.size))
    out: list[int] = []
    while remaining:
        for p in sorted(remaining):
            if all(q == p or q not in remaining for q in np.nonzero(leq[:, p])[0]):
                break
        else:
            raise InputError("leq is cyclic, no linear extension")
        out.append(p)
        remaining.discard(p)
    return out


def downset_masks(poset: FinitePoset, cap: int = ELEMENT_CAP) -> list[int]:
    """All downsets of the poset as point bitmasks, ascending."""
    poset.require_valid()
    if poset.size > 62:
        raise CapExceeded("downset masks need the poset to fit in 62 bits")
    downs = [poset.down_mask(j) for j in range(poset.size)]
    sets = [0]
    for p in linear_extension(poset):
        need = downs[p] & ~(1 << p)
        added = [d | (1 << p) for d in sets if d & need == need]
        sets.extend(added)
        if len(sets) > cap:
            raise CapExceeded(f"more than {cap} downsets")
    sets.sort()
    return sets


@dataclass(frozen=True)
class HeytingAlgebra:
    """A finite Heyting algebra as meet/join/imp tables over 0..size-1.

    The fields cannot be rebound and the tables are read-only, so derived
    values (order, join-irreducibles, B(H), ...) are cached per instance.
    """

    size: int
    meet: np.ndarray
    join: np.ndarray
    imp: np.ndarray
    bot: int
    top: int
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("meet", "join", "imp"):
            tab = np.array(getattr(self, name), dtype=np.int32)
            if tab.shape != (self.size, self.size):
                raise InputError(
                    f"{name} table has shape {tab.shape}, expected {(self.size, self.size)}"
                )
            tab.setflags(write=False)
            object.__setattr__(self, name, tab)

    @property
    def leq(self) -> np.ndarray:
        """Derived order: a <= b iff a meet b == a (read-only)."""
        return derived(self, _meet_order)

    def neg(self, a: int) -> int:
        return int(self.imp[a, self.bot])

    def to_record(self) -> dict:
        return {
            "kind": "heyting",
            "size": self.size,
            "meet": self.meet.tolist(),
            "join": self.join.tolist(),
            "imp": self.imp.tolist(),
            "bot": self.bot,
            "top": self.top,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "HeytingAlgebra":
        _require_kind(rec, "heyting")
        size = _require_int(rec, "size")
        if size < 1:
            raise InputError("heyting record: size must be at least 1")
        tabs = {}
        for name in ("meet", "join", "imp"):
            tab = rec.get(name)
            if not isinstance(tab, list) or len(tab) != size:
                raise InputError(f"heyting record: {name} must be a size x size matrix")
            for row in tab:
                if not isinstance(row, list) or len(row) != size:
                    raise InputError(f"heyting record: {name} must be a size x size matrix")
            tabs[name] = np.array(tab, dtype=np.int32).reshape(size, size)
        bot = _require_int(rec, "bot")
        top = _require_int(rec, "top")
        if bot >= size or top >= size:
            raise InputError("heyting record: bot/top out of range")
        return cls(size, tabs["meet"], tabs["join"], tabs["imp"], bot, top)


def _meet_order(alg: HeytingAlgebra) -> np.ndarray:
    mat = alg.meet == np.arange(alg.size, dtype=np.int32)[:, None]
    mat.setflags(write=False)
    return mat


@dataclass
class HeytingReport:
    """Outcome of validate_heyting: table problems and witnessed axiom failures."""

    ok: bool
    malformed: list[str]
    violations: list[tuple[str, tuple[int, ...]]]


def validate_heyting(alg: HeytingAlgebra) -> HeytingReport:
    """Check the lattice and residuation axioms, reporting least witnesses.

    Malformed tables (out-of-range entries) short-circuit: axiom scanning
    over garbage indices would be meaningless.
    """
    malformed: list[str] = []
    n = alg.size
    if n < 1:
        malformed.append("size must be at least 1")
    for name in ("meet", "join", "imp"):
        tab = getattr(alg, name)
        if tab.size and (tab.min() < 0 or tab.max() >= n):
            malformed.append(f"{name} table has entries outside 0..{n - 1}")
    for name in ("bot", "top"):
        v = getattr(alg, name)
        if not 0 <= v < n:
            malformed.append(f"{name} index {v} outside 0..{n - 1}")
    if malformed:
        return HeytingReport(False, malformed, [])

    violations: list[tuple[str, tuple[int, ...]]] = []
    meet, join, imp = alg.meet, alg.join, alg.imp
    idx = np.arange(n, dtype=np.int32)

    bad = np.nonzero(np.diag(meet) != idx)[0]
    if bad.size:
        violations.append(("meet-idempotent", (int(bad[0]),)))
    bad = np.nonzero(np.diag(join) != idx)[0]
    if bad.size:
        violations.append(("join-idempotent", (int(bad[0]),)))
    for name, tab in (("meet-commutative", meet), ("join-commutative", join)):
        w = np.nonzero(tab != tab.T)
        if w[0].size:
            violations.append((name, (int(w[0][0]), int(w[1][0]))))
    for name, tab in (("meet-associative", meet), ("join-associative", join)):
        w = _assoc_witness(tab)
        if w is not None:
            violations.append((name, w))
    w = _binary_witness(join[idx[:, None], meet] != idx[:, None])
    if w is not None:
        violations.append(("absorption-join-meet", w))
    w = _binary_witness(meet[idx[:, None], join] != idx[:, None])
    if w is not None:
        violations.append(("absorption-meet-join", w))

    bad = np.nonzero(meet[alg.bot] != alg.bot)[0]
    if bad.size:
        violations.append(("bot-least", (int(bad[0]),)))
    bad = np.nonzero(meet[alg.top] != idx)[0]
    if bad.size:
        violations.append(("top-greatest", (int(bad[0]),)))

    leq = (meet == idx[:, None]).astype(np.uint8)
    packed = kernels.residuation_witness(meet, imp, leq)
    if packed >= 0:
        a, rest = divmod(packed, n * n)
        b, c = divmod(rest, n)
        violations.append(("residuation", (int(a), int(b), int(c))))

    return HeytingReport(not violations, [], violations)


def _assoc_witness(tab: np.ndarray) -> tuple[int, int, int] | None:
    n = tab.shape[0]
    block = max(1, (1 << 22) // max(n * n, 1))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        left = tab[tab[lo:hi], :]  # [a, b, c] -> (a?b)?c
        right = tab[lo:hi][:, tab]  # [a, b, c] -> a?(b?c)
        w = np.nonzero(left != right)
        if w[0].size:
            return (int(w[0][0]) + lo, int(w[1][0]), int(w[2][0]))
    return None


def _binary_witness(bad: np.ndarray) -> tuple[int, int] | None:
    w = np.nonzero(bad)
    if w[0].size:
        return (int(w[0][0]), int(w[1][0]))
    return None


def downset_heyting(poset: FinitePoset) -> HeytingAlgebra:
    """The Heyting algebra of downsets, elements ordered by ascending mask."""
    masks = downset_masks(poset)
    n = len(masks)
    arr = np.array(masks, dtype=np.int64)
    index_of = {m: i for i, m in enumerate(masks)}
    downs = np.array([poset.down_mask(j) for j in range(poset.size)], dtype=np.int64)
    weights = np.int64(1) << np.arange(poset.size, dtype=np.int64)

    meet = np.searchsorted(arr, arr[:, None] & arr[None, :]).astype(np.int32)
    join = np.searchsorted(arr, arr[:, None] | arr[None, :]).astype(np.int32)
    imp = np.empty((n, n), dtype=np.int32)
    inter = downs[None, :] & arr[:, None]  # [a, x] = down(x) & a
    for b in range(n):
        holds = (inter & ~arr[b]) == 0  # x in imp(a, b)
        imp[:, b] = np.searchsorted(arr, holds @ weights)
    return HeytingAlgebra(n, meet, join, imp, 0, n - 1)


def join_irreducibles(alg: HeytingAlgebra) -> list[int]:
    """Elements that are not bot and not a join of two strictly smaller ones."""
    return list(derived(alg, _join_irreducibles))


def _join_irreducibles(alg: HeytingAlgebra) -> tuple[int, ...]:
    # A pair x, y can only witness that its own join a = x ∨ y is reducible,
    # so one pass over the join table finds every reducible element.
    n = alg.size
    below = alg.leq & ~np.eye(n, dtype=bool)  # [x, a]: x < a
    pts = np.arange(n)
    join = alg.join
    split = below[pts[:, None], join] & below[pts[None, :], join]
    reducible = np.zeros(n, dtype=bool)
    reducible[join[split]] = True
    return tuple(a for a in range(n) if a != alg.bot and not reducible[a])


def join_irreducible_poset(alg: HeytingAlgebra) -> FinitePoset:
    """The poset of join-irreducibles (points listed by ascending element index)."""
    return derived(alg, _join_irreducible_poset)


def _join_irreducible_poset(alg: HeytingAlgebra) -> FinitePoset:
    irr = join_irreducibles(alg)
    return FinitePoset(len(irr), alg.leq[np.ix_(irr, irr)])


def canonical_key(poset: FinitePoset) -> int:
    """Isomorphism-invariant key of a poset: the least row-major packed leq
    matrix over relabelings, built by the search in ``_canonical_key``.

    Keys deduplicate and order the enumeration; comparisons use
    ``FinitePoset.is_isomorphic``.  The order is checked here, while
    ``catalog._extensions`` keys candidates that are orders by construction.
    """
    if poset.size > POSET_POINT_CAP:
        raise CapExceeded(
            f"canonical key asked for {poset.size} points; POSET_POINT_CAP is "
            f"{POSET_POINT_CAP} and no flag raises it"
        )
    poset.require_valid()
    return derived(poset, _canonical_key)


def _canonical_key(poset: FinitePoset) -> int:
    # The least key comes from an order listing each point before the points
    # below it.  There row i is left[p_i] | bit i, left[p] marking the placed
    # points above p at their columns.  So, depth first, place only the maximal
    # remaining points of least left part; cut a prefix whose key is too big.
    n = poset.size
    leq = poset.leq.tolist()
    above = [sum(1 << q for q in range(n) if leq[p][q] and q != p) for p in range(n)]
    below = [tuple(q for q in range(n) if leq[q][p] and q != p) for p in range(n)]

    def place(placed: int, left: list[int], key: int, i: int, best: int) -> int:
        if i == n:
            return min(best, key)
        ready = [p for p in range(n) if not (placed >> p) & 1 and not above[p] & ~placed]
        least = min([left[p] for p in ready])
        bit = 1 << (n - 1 - i)
        key = (key << n) | least | bit
        if key > best >> (n * (n - 1 - i)):
            return best
        twins = set()
        for p in ready:
            # Tied points share their strict up-set, which is placed; those that
            # share the strict down-set too are swapped by an automorphism.
            if left[p] == least and below[p] not in twins:
                twins.add(below[p])
                bits = left.copy()
                for q in below[p]:
                    bits[q] |= bit
                best = place(placed | 1 << p, bits, key, i + 1, best)
        return best

    return place(0, [0] * n, 0, 0, 1 << (n * n))


def poset_from_key(size: int, key: int) -> FinitePoset:
    """Rebuild the leq matrix encoded by a canonical key."""
    bits = [(key >> (size * size - 1 - i)) & 1 for i in range(size * size)]
    mat = np.array(bits, dtype=bool).reshape(size, size)
    return FinitePoset(size, mat)


def relation_isomorphisms(r1: np.ndarray, r2: np.ndarray, fits=None) -> Iterator[list[int]]:
    """Every bijection img with r1[a, b] == r2[img[a], img[b]], lazily.

    Degree-pruned backtracking: point i only goes to a point of the same
    in- and out-degree that agrees with the points placed before it.  When
    given, ``fits(img)`` is asked after each placement too, with the images
    of points 0..i, and a False prunes that partial map.  The relations
    need not be orders, and the search keeps its own stack: no depth limit.
    """
    if r1.shape != r2.shape:
        return
    n = len(r1)
    rows1, rows2 = r1.tolist(), r2.tolist()
    deg1 = [(sum(col), sum(row)) for row, col in zip(rows1, zip(*rows1))]
    deg2 = [(sum(col), sum(row)) for row, col in zip(rows2, zip(*rows2))]
    if sorted(deg1) != sorted(deg2):
        return
    img: list[int] = []
    used = [False] * n
    start = 0  # the least image still to try for point len(img)
    while True:
        i = len(img)
        if i == n:
            yield list(img)
        else:
            for v in range(start, n):
                if used[v] or deg2[v] != deg1[i]:
                    continue
                img.append(v)
                if all(
                    rows1[a][i] == rows2[img[a]][v] and rows1[i][a] == rows2[v][img[a]]
                    for a in range(i + 1)
                ) and (fits is None or fits(img)):
                    break
                img.pop()
        if len(img) > i:  # point i is placed: go on to point i + 1
            used[img[i]] = True
            start = 0
        elif img:  # nothing left for point i: try the next image of point i - 1
            start = img.pop()
            used[start] = False
            start += 1
        else:
            return


@dataclass
class HeytingHom:
    """A map between Heyting algebras given by its full value table."""

    source: HeytingAlgebra
    target: HeytingAlgebra
    table: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.table[a]

    def verify(self) -> list[tuple[str, tuple[int, ...]]]:
        """Witnessed failures of the homomorphism conditions."""
        out: list[tuple[str, tuple[int, ...]]] = []
        src, tgt = self.source, self.target
        tab = np.array(self.table, dtype=np.int32)
        if tab.shape != (src.size,) or (tab.size and (tab.min() < 0 or tab.max() >= tgt.size)):
            return [("malformed", ())]
        if tab[src.bot] != tgt.bot:
            out.append(("bot", (src.bot,)))
        if tab[src.top] != tgt.top:
            out.append(("top", (src.top,)))
        for name in ("meet", "join", "imp"):
            left = tab[getattr(src, name)]
            right = getattr(tgt, name)[tab[:, None], tab[None, :]]
            w = _binary_witness(left != right)
            if w is not None:
                out.append((name, w))
        return out

    @property
    def injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    @property
    def surjective(self) -> bool:
        return len(set(self.table)) == self.target.size


def heyting_hom_search(
    source: HeytingAlgebra,
    target: HeytingAlgebra,
    constraints: dict[int, int] | None = None,
    mode: str = "any",
) -> list[HeytingHom]:
    """All homomorphisms between two valid Heyting algebras, by value table.

    By Birkhoff duality each homomorphism f is g⁻¹ for one map g from the
    target's join-irreducibles to the source's that maps the points below
    each x onto the points below g(x): f(a) is the element whose
    join-irreducibles are the x with g(x) <= a.  The search places each
    point after the points below it and keeps its own stack: no depth
    limit.  ``constraints`` pins images of elements, which narrows the
    images of the points; ``mode`` keeps injective, surjective or bijective
    maps.
    """
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}")
    smasks, tmasks = derived(source, _irreducible_masks), derived(target, _irreducible_masks)
    sdown = [smasks[a] for a in join_irreducibles(source)]
    tdown = [tmasks[b] for b in join_irreducibles(target)]
    allowed = [range(len(sdown))] * len(tdown)
    for a, b in (constraints or {}).items():
        if not (0 <= a < source.size and 0 <= b < target.size):
            raise InputError("constraint indices out of range")
        # f(a) = b: point x lies below b iff g(x) lies below a
        allowed = [
            [y for y in ys if smasks[a] >> y & 1 == tmasks[b] >> x & 1]
            for x, ys in enumerate(allowed)
        ]
    order = sorted(range(len(tdown)), key=lambda x: tdown[x].bit_count())
    below = [[z for z in order[:i] if tdown[x] >> z & 1] for i, x in enumerate(order)]
    element = {mask: b for b, mask in enumerate(tmasks)}
    g, tried, start, tables = [0] * len(order), [], 0, []
    while True:
        i = len(tried)  # tried[j]: the position of order[j]'s image in its allowed list
        if i == len(order):
            fmasks = [sum(1 << x for x, y in enumerate(g) if a >> y & 1) for a in smasks]
            try:
                tables.append(tuple(map(element.__getitem__, fmasks)))
            except KeyError:  # only a lattice that is not distributive lacks one
                mask = next(m for m in fmasks if m not in element)
                points = [b for x, b in enumerate(join_irreducibles(target)) if mask >> x & 1]
                raise InputError(
                    "target is not a Heyting algebra: no element has exactly the "
                    f"join-irreducibles {points} below it, so it is not distributive"
                ) from None
        else:
            x, reach = order[i], 0
            for z in below[i]:
                reach |= sdown[g[z]]
            for k in range(start, len(allowed[x])):
                y = allowed[x][k]
                if sdown[y] == reach | 1 << y:  # g maps the points below x onto those below y
                    g[x] = y
                    tried.append(k)
                    break
        if len(tried) > i:  # point i is placed: go on to point i + 1
            start = 0
        elif tried:  # nothing left for point i: try the next image of point i - 1
            start = tried.pop() + 1
        else:
            break
    injective, surjective = mode in ("injective", "iso"), mode in ("surjective", "iso")
    homs = [HeytingHom(source, target, table) for table in sorted(tables)]
    return [h for h in homs if (h.injective or not injective) and (h.surjective or not surjective)]


def _irreducible_masks(alg: HeytingAlgebra) -> tuple[int, ...]:
    """Per element a, the mask with bit j set when join_irreducibles[j] <= a."""
    rows = np.packbits(alg.leq[join_irreducibles(alg)].T, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in rows)


def are_isomorphic(a: HeytingAlgebra, b: HeytingAlgebra) -> bool:
    """Isomorphism of valid Heyting algebras, via their irreducible posets.

    Those are orders by construction, so they skip ``FinitePoset.validate``,
    a cubic matrix product that costs more than the search on long chains.
    """
    if a.size != b.size:
        return False
    pa, pb = join_irreducible_poset(a), join_irreducible_poset(b)
    return next(relation_isomorphisms(pa.leq, pb.leq), None) is not None


def heyting_quotient(alg: HeytingAlgebra, u: int) -> tuple[HeytingAlgebra, HeytingHom]:
    """Quotient by the congruence of the filter above u, realized on [bot, u].

    Every congruence of a finite Heyting algebra arises this way: filters
    are principal, and a ~ b iff a∧u = b∧u.  The class representatives are
    the elements below u; implication relativizes as (a→b)∧u.
    """
    if not 0 <= u < alg.size:
        raise InputError(f"element {u} outside the carrier")
    table = [int(alg.meet[a, u]) for a in range(alg.size)]
    reps = sorted(set(table))
    index = {r: i for i, r in enumerate(reps)}
    n = len(reps)
    meet = np.zeros((n, n), dtype=np.int32)
    join = np.zeros((n, n), dtype=np.int32)
    imp = np.zeros((n, n), dtype=np.int32)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            meet[i, j] = index[int(alg.meet[a, b])]
            join[i, j] = index[int(alg.join[a, b])]
            imp[i, j] = index[int(alg.meet[alg.imp[a, b], u])]
    quot = HeytingAlgebra(n, meet, join, imp, index[table[alg.bot]], index[u])
    proj = HeytingHom(alg, quot, tuple(index[t] for t in table))
    return quot, proj


def heyting_product(factors: list[HeytingAlgebra]) -> HeytingAlgebra:
    """Componentwise product; tuples enumerate with the first factor slowest."""
    if not factors:
        return trivial_heyting()
    total = 1
    for f in factors:
        total *= f.size
        if total > ELEMENT_CAP:
            raise CapExceeded(f"product would have more than {ELEMENT_CAP} elements")
    strides = []
    acc = 1
    for f in reversed(factors):
        strides.append(acc)
        acc *= f.size
    strides.reverse()
    idx = np.arange(total, dtype=np.int64)
    digits = [(idx // strides[i]) % f.size for i, f in enumerate(factors)]

    def build(name: str) -> np.ndarray:
        out = np.zeros((total, total), dtype=np.int64)
        for i, f in enumerate(factors):
            tab = getattr(f, name).astype(np.int64)
            out += tab[digits[i][:, None], digits[i][None, :]] * strides[i]
        return out.astype(np.int32)

    bot = sum(f.bot * strides[i] for i, f in enumerate(factors))
    top = sum(f.top * strides[i] for i, f in enumerate(factors))
    return HeytingAlgebra(total, build("meet"), build("join"), build("imp"), bot, top)


def trivial_heyting() -> HeytingAlgebra:
    one = np.zeros((1, 1), dtype=np.int32)
    return HeytingAlgebra(1, one, one, one, 0, 0)


def chain_heyting(n: int) -> HeytingAlgebra:
    """The n-element chain 0 < 1 < ... < n-1 with its unique Heyting structure."""
    if n < 1:
        raise InputError("a chain needs at least one element")
    idx = np.arange(n, dtype=np.int32)
    meet = np.minimum(idx[:, None], idx[None, :])
    join = np.maximum(idx[:, None], idx[None, :])
    imp = np.where(idx[:, None] <= idx[None, :], n - 1, idx[None, :]).astype(np.int32)
    return HeytingAlgebra(n, meet, join, imp, 0, n - 1)


def chain_poset(n: int) -> FinitePoset:
    idx = np.arange(n)
    return FinitePoset(n, idx[:, None] <= idx[None, :])


def antichain_poset(n: int) -> FinitePoset:
    return FinitePoset(n, np.eye(n, dtype=bool))
