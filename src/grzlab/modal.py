"""Finite modal and interior algebras on powerset carriers.

A modal algebra here is the full powerset of a finite atom set with a box
table; elements are bitmask integers, so the Boolean operations are machine
operations and only box is data.  (Every finite Boolean algebra has this
form, so nothing is lost.)  On top of that: axiom validation with least
witnesses, open filters and quotients, Boolean and modal subalgebras,
homomorphism search by atom maps, the stable-witness construction, and the
subalgebra/quotient characterization of the Grzegorczyk inequality via the
two standard small algebras.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .errors import CapExceeded, InputError, InternalCheckError
from .finlat import MODES, derived, relation_isomorphisms

ATOM_CAP = 12

# Most atom maps a homomorphism search may try; no flag raises it.
HOM_CAP = 10**7

HOM_KINDS = ("stable", "box_partial", "modal")


@dataclass(frozen=True)
class ModalAlgebra:
    """Powerset modal algebra: ``box[e]`` is the box of the mask ``e``.

    The fields cannot be rebound and the box table is read-only, so derived
    values (axiom report, opens, O(M), ...) are cached per instance.
    """

    atoms: int
    box: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.atoms < 0:
            raise InputError("atom count must be nonnegative")
        if self.atoms > ATOM_CAP:
            raise CapExceeded(f"atom count {self.atoms} exceeds the cap of {ATOM_CAP}")
        tab = np.array(self.box, dtype=np.int64)
        if tab.shape != (1 << self.atoms,):
            raise InputError(
                f"box table has {tab.shape} entries, expected {1 << self.atoms}"
            )
        tab.setflags(write=False)
        object.__setattr__(self, "box", tab)

    @property
    def size(self) -> int:
        return 1 << self.atoms

    @property
    def top(self) -> int:
        return (1 << self.atoms) - 1

    def neg(self, a: int) -> int:
        return self.top ^ a

    def imp(self, a: int, b: int) -> int:
        return (self.top ^ a) | b

    def open_elements(self) -> list[int]:
        """Elements fixed by box, in increasing order."""
        return list(derived(self, _open_elements))

    def is_open(self, a: int) -> bool:
        return int(self.box[a]) == a

    def to_record(self) -> dict:
        return {"kind": "modal", "atoms": self.atoms, "box": self.box.tolist()}

    @classmethod
    def from_record(cls, rec: dict) -> "ModalAlgebra":
        if not isinstance(rec, dict) or rec.get("kind") != "modal":
            raise InputError("expected a 'modal' record")
        atoms = rec.get("atoms")
        if not isinstance(atoms, int) or isinstance(atoms, bool) or atoms < 0:
            raise InputError("modal record: atoms must be a nonnegative integer")
        box = rec.get("box")
        if not isinstance(box, list) or len(box) != (1 << atoms):
            raise InputError("modal record: box must list 2^atoms entries")
        for v in box:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < (1 << atoms):
                raise InputError("modal record: box entries must be element masks")
        return cls(atoms, np.array(box, dtype=np.int64))


def _open_elements(alg: ModalAlgebra) -> tuple[int, ...]:
    idx = np.arange(alg.size, dtype=np.int64)
    return tuple(int(a) for a in idx[alg.box == idx])


def trivial_modal() -> ModalAlgebra:
    return ModalAlgebra(0, np.zeros(1, dtype=np.int64))


def make_standard(name: str) -> ModalAlgebra:
    """The two small interior algebras every non-Grz algebra points at.

    "S2": two atoms, box collapses everything but top to bottom.
    "S12": three atoms with atom index 2 open; box sends top to top,
    anything between the open atom and top to that atom, the rest to bottom.
    """
    if name == "S2":
        return ModalAlgebra(2, np.array([0, 0, 0, 3], dtype=np.int64))
    if name == "S12":
        box = np.zeros(8, dtype=np.int64)
        box[7] = 7
        for a in (4, 5, 6):
            box[a] = 4
        return ModalAlgebra(3, box)
    raise InputError(f"unknown standard algebra {name!r}; use 'S2' or 'S12'")


def complex_algebra(poset) -> ModalAlgebra:
    """Powerset algebra of a poset: box(S) = largest downset inside S."""
    poset.require_valid()
    if poset.size > ATOM_CAP:
        raise CapExceeded(f"poset has {poset.size} points, atom cap is {ATOM_CAP}")
    size = 1 << poset.size
    box = np.zeros(size, dtype=np.int64)
    masks = np.arange(size, dtype=np.int64)
    for j in range(poset.size):
        down = poset.down_mask(j)
        box[(masks & down) == down] |= 1 << j
    return ModalAlgebra(poset.size, box)


@dataclass
class ModalReport:
    """Axiom scan outcome with least witnesses per failed axiom."""

    k: bool
    interior: bool
    grz: bool
    grz_witness: int | None
    malformed: list[str]
    violations: list[tuple[str, tuple[int, ...]]]

    @property
    def classification(self) -> dict:
        return {
            "K": self.k,
            "interior": self.interior,
            "grz": self.grz,
            "grz_witness": self.grz_witness,
        }


def grz_violations(alg: ModalAlgebra) -> np.ndarray:
    """Elements where box(box(a -> box a) -> a) fails to sit below a."""
    masks = np.arange(alg.size, dtype=np.int64)
    top = alg.top
    t = ((top ^ alg.box[(top ^ masks) | alg.box]) | masks)
    bad = (alg.box[t] & ~masks) != 0
    return masks[bad]


def validate_modal(alg: ModalAlgebra) -> ModalReport:
    """Check K, the interior axioms, and the Grzegorczyk inequality."""
    rep = derived(alg, _validate_modal)
    return replace(rep, malformed=list(rep.malformed), violations=list(rep.violations))


def _validate_modal(alg: ModalAlgebra) -> ModalReport:
    malformed: list[str] = []
    tab = alg.box
    if tab.size and (tab.min() < 0 or tab.max() > alg.top):
        malformed.append("box entries outside the carrier")
    if malformed:
        return ModalReport(False, False, False, None, malformed, [])

    violations: list[tuple[str, tuple[int, ...]]] = []
    if int(tab[alg.top]) != alg.top:
        violations.append(("box-top", ()))
    packed = kernels.k_axiom_witness(tab)
    if packed >= 0:
        violations.append(("k", (packed // alg.size, packed % alg.size)))
    k_ok = not violations

    masks = np.arange(alg.size, dtype=np.int64)
    bad = np.nonzero((tab & ~masks) != 0)[0]
    defl_ok = bad.size == 0
    if not defl_ok:
        violations.append(("deflation", (int(bad[0]),)))
    bad = np.nonzero(tab[tab] != tab)[0]
    idem_ok = bad.size == 0
    if not idem_ok:
        violations.append(("idempotence", (int(bad[0]),)))
    interior = k_ok and defl_ok and idem_ok

    grz = False
    grz_witness = None
    if interior:
        viol = grz_violations(alg)
        if viol.size:
            grz_witness = int(viol[0])
            violations.append(("grz", (grz_witness,)))
        else:
            grz = True
    return ModalReport(k_ok, interior, grz, grz_witness, [], violations)


def require_interior(alg: ModalAlgebra) -> None:
    rep = derived(alg, _validate_modal)
    if not rep.interior:
        raise InputError(f"not an interior algebra: {rep.malformed or rep.violations}")


def require_grz(alg: ModalAlgebra) -> None:
    rep = derived(alg, _validate_modal)
    if not rep.grz:
        raise InputError(
            f"not a Grzegorczyk algebra: {rep.malformed or rep.violations}"
        )


# ---------------------------------------------------------------------------
# Filters and quotients


@dataclass(frozen=True)
class Filter:
    """An open filter, stored by its least element ``bottom``.

    Every filter of a finite algebra is principal: its members are the
    elements above ``bottom``.  It is open when box(bottom) = bottom, which
    makes it closed under box.
    """

    algebra: ModalAlgebra
    bottom: int

    def __contains__(self, b: int) -> bool:
        return b & self.bottom == self.bottom

    def validate(self) -> list[str]:
        if not 0 <= self.bottom <= self.algebra.top:
            return ["least element outside the carrier"]
        if not self.algebra.is_open(self.bottom):
            return [f"not box closed at {self.bottom}"]
        return []

    def least(self) -> int:
        return self.bottom


def open_filters(alg: ModalAlgebra) -> list[Filter]:
    """All open filters, one per open element, by increasing least element."""
    return [Filter(alg, u) for u in alg.open_elements()]


def quotient(alg: ModalAlgebra, filt: Filter) -> tuple[ModalAlgebra, "Homomorphism"]:
    """Quotient by an open filter, realized on the atoms under its least element u.

    a ~ b iff a ∧ u = b ∧ u, and box relativizes to box(a) ∧ u.
    """
    if filt.algebra is not alg:
        raise InputError("filter belongs to a different algebra")
    bad = filt.validate()
    if bad:
        raise InputError(f"invalid filter: {bad}")
    blocks = [1 << i for i in range(alg.atoms) if (filt.bottom >> i) & 1]
    q = _on_blocks(alg, blocks)
    values = {b: _encode(b, blocks) for b in range(alg.size)}
    return q, Homomorphism(alg, q, "modal", values)


# ---------------------------------------------------------------------------
# Boolean subalgebras


@dataclass
class BooleanSubalgebra:
    """A Boolean subalgebra of a powerset algebra, as its atom partition."""

    algebra: ModalAlgebra
    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(sorted(int(b) for b in self.blocks))
        union = 0
        for b in blocks:
            if b <= 0 or union & b:
                raise InputError("blocks must be disjoint nonempty atom sets")
            union |= b
        if union != self.algebra.top:
            raise InputError("blocks must cover the atom set")
        self.blocks = blocks

    @property
    def elements(self) -> tuple[int, ...]:
        """All block unions, ascending."""
        out = [0]
        for b in self.blocks:
            out.extend([x | b for x in out])
        return tuple(sorted(out))

    def contains(self, x: int) -> bool:
        for b in self.blocks:
            inter = x & b
            if inter and inter != b:
                return False
        return True

    @property
    def box_closed(self) -> bool:
        return all(self.contains(int(self.algebra.box[e])) for e in self.elements)

    def open_members(self) -> list[int]:
        return [e for e in self.elements if self.algebra.is_open(e)]


def subalgebra_from_elements(alg: ModalAlgebra, elems) -> BooleanSubalgebra:
    """The subalgebra with exactly the given elements (checked for closure)."""
    elems = sorted(set(int(e) for e in elems))
    sub = generated_subalgebra(alg, elems, "boolean")
    if list(sub.elements) != elems:
        raise InputError("element set is not closed under the Boolean operations")
    return sub


def generated_subalgebra(alg: ModalAlgebra, seeds, kind: str = "boolean") -> BooleanSubalgebra:
    """Least Boolean (or box-closed) subalgebra containing the seeds.

    One atom partition, refined: it starts as the single block top, and
    each generator splits the blocks it cuts.  For kind="modal" each round
    then splits by the boxes of the current coatoms top ^ b, one per block,
    until a round splits no block.  That suffices under K: every element is
    the meet of the coatoms above it, and box preserves meets and top.  So
    kind="modal" refuses an algebra that fails K.
    """
    if kind not in ("boolean", "modal"):
        raise InputError("kind must be 'boolean' or 'modal'")
    gens = [int(s) for s in seeds]
    for s in gens:
        if not 0 <= s <= alg.top:
            raise InputError(f"seed {s} outside the carrier")
    if kind == "modal" and not derived(alg, _validate_modal).k:
        raise InputError("the modal closure needs the K axiom, which the algebra fails")
    blocks = [alg.top] if alg.atoms else []
    for g in gens:
        blocks = _split(blocks, g)
    if kind == "modal":
        while True:
            refined = blocks
            for b in blocks:
                refined = _split(refined, int(alg.box[alg.top ^ b]))
            if len(refined) == len(blocks):
                break
            blocks = refined
    return BooleanSubalgebra(alg, tuple(blocks))


def _split(blocks: list[int], g: int) -> list[int]:
    """Each block split into its parts inside and outside g, where g cuts it."""
    return [p for b in blocks for p in (b & g, b & ~g) if p]


def all_boolean_subalgebras(alg: ModalAlgebra) -> list[BooleanSubalgebra]:
    """Every Boolean subalgebra, one per atom partition, deterministic order.

    The partitions grow an atom at a time: each atom joins each existing
    block in turn, then opens a new one.
    """
    parts = [()]
    for i in range(alg.atoms):
        bit = 1 << i
        grown = []
        for p in parts:
            grown += [p[:j] + (p[j] | bit,) + p[j + 1:] for j in range(len(p))]
            grown.append(p + (bit,))
        parts = grown
    return [BooleanSubalgebra(alg, p) for p in parts]


def all_modal_subalgebras(alg: ModalAlgebra) -> list[BooleanSubalgebra]:
    return [s for s in all_boolean_subalgebras(alg) if s.box_closed]


def subalgebra_as_algebra(
    sub: BooleanSubalgebra,
) -> tuple[ModalAlgebra, dict[int, int], list[int]]:
    """A box-closed subalgebra as a standalone algebra on its blocks.

    Returns (algebra, encode, decode): encode maps subalgebra elements of
    the ambient carrier to masks of the standalone one; decode is the
    block list, i.e. the reverse map on atoms.
    """
    if not sub.box_closed:
        raise InputError("subalgebra is not box closed")
    blocks = list(sub.blocks)
    enc = {e: _encode(e, blocks) for e in sub.elements}
    return _on_blocks(sub.algebra, blocks), enc, blocks


def _encode(e: int, blocks) -> int:
    """The blocks inside e, as a mask over block positions."""
    out = 0
    for t, b in enumerate(blocks):
        if e & b == b:
            out |= 1 << t
    return out


def _on_blocks(alg: ModalAlgebra, blocks) -> ModalAlgebra:
    """The algebra whose atoms are the given disjoint blocks of alg.

    Box is read relative to the union u of the blocks, box(e) ∧ u, which
    must be a union of them: for a partition of the atoms this is the
    subalgebra on the blocks, for blocks under an open u the quotient by
    the filter above u.
    """
    box = np.zeros(1 << len(blocks), dtype=np.int64)
    for t in range(1 << len(blocks)):
        e = 0
        for pos, b in enumerate(blocks):
            if (t >> pos) & 1:
                e |= b
        box[t] = _encode(int(alg.box[e]), blocks)
    return ModalAlgebra(len(blocks), box)


# ---------------------------------------------------------------------------
# Homomorphisms


@dataclass
class Homomorphism:
    """A map between modal algebras, possibly on a declared subalgebra only.

    ``values`` covers the full source carrier unless ``domain`` is set, in
    which case it covers exactly the subalgebra's elements.  ``kind`` says
    which preservation contract ``verify`` should hold it to.
    """

    source: ModalAlgebra
    target: ModalAlgebra
    kind: str
    values: dict[int, int]
    domain: BooleanSubalgebra | None = None

    def __call__(self, a: int) -> int:
        return self.values[a]

    def domain_elements(self) -> tuple[int, ...]:
        if self.domain is not None:
            return self.domain.elements
        return tuple(range(self.source.size))

    def verify(self) -> list[tuple[str, tuple[int, ...]]]:
        """Witnessed violations of the Boolean and box conditions."""
        out: list[tuple[str, tuple[int, ...]]] = []
        if self.kind not in HOM_KINDS:
            return [("kind", ())]
        if self.kind == "box_partial" and self.domain is None:
            return [("missing-domain", ())]
        src, tgt = self.source, self.target
        dom = self.domain_elements()
        dom_set = set(dom)
        if set(self.values) != dom_set:
            return [("malformed", ())]
        if any(not 0 <= v <= tgt.top for v in self.values.values()):
            return [("malformed", ())]
        f = self.values
        if f[0] != 0:
            out.append(("bot", ()))
        if f[src.top] != tgt.top:
            out.append(("top", ()))
        for a in dom:
            if f[src.top ^ a] != tgt.top ^ f[a]:
                out.append(("neg", (a,)))
                break
        # Meets a block of rows a at a time, b over the domain in its order,
        # so the first bad entry in row-major order is the least pair.
        dom_arr = np.array(dom, dtype=np.int64)
        img = np.array([f[a] for a in dom], dtype=np.int64)
        at = np.zeros(src.size, dtype=np.int64)
        at[dom_arr] = img
        step = max(1, (1 << 16) // len(dom))
        for lo in range(0, len(dom), step):
            rows = slice(lo, lo + step)
            bad = at[dom_arr[rows, None] & dom_arr] != (img[rows, None] & img)
            if bad.any():
                i, j = divmod(int(np.argmax(bad)), len(dom))
                out.append(("meet", (dom[lo + i], dom[j])))
                break
        if self.kind == "stable":
            for a in dom:
                ba = int(src.box[a])
                if f[ba] & ~int(tgt.box[f[a]]):
                    out.append(("stable-box", (a,)))
                    break
        elif self.kind == "modal":
            for a in dom:
                if f[int(src.box[a])] != int(tgt.box[f[a]]):
                    out.append(("box", (a,)))
                    break
        elif self.kind == "box_partial":
            for a in dom:
                ba = int(src.box[a])
                if ba in dom_set and f[ba] != int(tgt.box[f[a]]):
                    out.append(("box", (a,)))
                    break
        return out

    @property
    def injective(self) -> bool:
        vals = list(self.values.values())
        return len(set(vals)) == len(vals)

    @property
    def surjective(self) -> bool:
        return len(set(self.values.values())) == self.target.size

    def table(self) -> list[int]:
        return [self.values[e] for e in self.domain_elements()]

    def to_certificate(self) -> dict:
        cert = {"map": self.table()}
        if self.domain is not None:
            cert["domain"] = list(self.domain_elements())
        return cert


def hom_search(
    source: ModalAlgebra,
    target: ModalAlgebra,
    constraints: dict[int, int] | None = None,
    mode: str = "any",
) -> list[Homomorphism]:
    """All modal homomorphisms of the given mode, in value-table order.

    Boolean homomorphisms out of a powerset algebra correspond to functions
    from the target's atoms to the source's atoms: f(S) collects the target
    atoms sent into S.  Such an f is fixed by the images of the
    source atoms, which are disjoint and cover the target.  The first
    element on which two maps differ is the first atom whose images differ:
    the search assigns atom images in ascending order, which generates the
    maps in value-table order without sorting.  The constraints prune the
    atoms each target atom may go to; each complete map is then kept when
    it commutes with box.  Injectivity of f is surjectivity of the atom map
    and vice versa.  A search over more than ``HOM_CAP`` atom maps is
    refused before it starts.
    """
    return list(_hom_search(source, target, constraints, mode))


def _hom_search(
    source: ModalAlgebra,
    target: ModalAlgebra,
    constraints: dict[int, int] | None = None,
    mode: str = "any",
) -> Iterator[Homomorphism]:
    """hom_search's maps one at a time, lazily, in value-table order."""
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}")
    nb = source.atoms
    ka = target.atoms

    allowed: list[list[int]] = [list(range(nb)) for _ in range(ka)]
    for s, v in (constraints or {}).items():
        if not 0 <= s <= source.top:
            raise InputError(f"constraint key {s} outside the source")
        if not 0 <= v <= target.top:
            raise InputError(f"constraint value {v} outside the target")
        for y in range(ka):
            want = (v >> y) & 1
            allowed[y] = [i for i in allowed[y] if (s >> i) & 1 == want]

    count = math.prod(len(opts) for opts in allowed)
    if count > HOM_CAP:
        raise CapExceeded(
            f"homomorphism search has {count} candidate atom maps, cap is {HOM_CAP} "
            f"(HOM_CAP); no flag raises it"
        )

    # may[i]: target atoms atom i may receive; later[i]: those some atom
    # from i on may receive, so atoms outside later[i + 1] must be placed by i.
    may = [0] * nb
    for y, opts in enumerate(allowed):
        for i in opts:
            may[i] |= 1 << y
    later = [0] * (nb + 1)
    for i in range(nb - 1, -1, -1):
        later[i] = later[i + 1] | may[i]
    injective = mode in ("injective", "iso")
    surjective = mode in ("surjective", "iso")
    sbox, tbox = source.box.tolist(), target.box.tolist()
    images = [0] * nb

    def assign(i: int, rest: int):
        if i == nb:
            if rest:  # no atoms at all, and target atoms left to place
                return
            val = [0]
            for img in images:
                val += [v | img for v in val]
            if all(map(operator.eq, map(val.__getitem__, sbox), map(tbox.__getitem__, val))):
                yield Homomorphism(source, target, "modal", dict(enumerate(val)))
            return
        avail = rest & may[i]
        img = 0
        while True:
            left = rest ^ img
            if (
                not left & ~later[i + 1]
                and not (injective and img == 0)
                and not (surjective and img & (img - 1))
            ):
                images[i] = img
                yield from assign(i + 1, left)
            if img == avail:
                return
            img = (img - avail) & avail  # next subset of avail, ascending

    yield from assign(0, target.top)


def are_isomorphic(a: ModalAlgebra, b: ModalAlgebra) -> bool:
    """Modal isomorphism, searched among the isomorphisms of the atom relations.

    An isomorphism permutes the atoms and carries the accessibility relation
    R_a onto R_b, so only relation isomorphisms are candidates; on K
    algebras R determines box and the first candidate passes.  Other tables
    are pruned while the atoms are placed: atom i only goes to an atom with
    the same box profile, and each element e is checked, box_b of its image
    against the image of box_a(e), as soon as every atom of e and of box_a(e)
    is placed.  Every element is checked once on a full map, so the answer
    is decided on the whole table.
    """
    if a.atoms != b.atoms:
        return False
    prof_a, prof_b = _box_profile(a), _box_profile(b)
    if sorted(prof_a) != sorted(prof_b):
        return False
    box_a, box_b = a.box.tolist(), b.box.tolist()
    if not a.atoms:
        return box_a == box_b
    due: list[list[int]] = [[] for _ in range(a.atoms)]
    for e, be in enumerate(box_a):
        due[max((e | be).bit_length() - 1, 0)].append(e)
    moved = [0] * a.size  # moved[e]: image of e, once its atoms are placed

    def fits(img: list[int]) -> bool:
        i = len(img) - 1
        if prof_a[i] != prof_b[img[i]]:
            return False
        low, bit = 1 << i, 1 << img[i]
        for e in range(low, 2 * low):
            moved[e] = moved[e - low] | bit
        return all(box_b[moved[e]] == moved[box_a[e]] for e in due[i])

    return next(relation_isomorphisms(_accessibility(a), _accessibility(b), fits), None) is not None


def _box_profile(alg: ModalAlgebra) -> list[tuple[int, int]]:
    """Per atom x, how many elements with and without x have x in their box."""
    bits = (np.arange(alg.size, dtype=np.int64)[:, None] >> np.arange(alg.atoms)) & 1
    boxed = bits[alg.box]
    return list(zip((bits & boxed).sum(axis=0).tolist(), ((1 - bits) & boxed).sum(axis=0).tolist()))


def _accessibility(alg: ModalAlgebra) -> np.ndarray:
    """R[x, y] = x ∉ box(¬{y})."""
    points = np.arange(alg.atoms, dtype=np.int64)
    coatom_boxes = alg.box[alg.top ^ (1 << points)]
    return (coatom_boxes[None, :] >> points[:, None]) & 1 == 0


def modal_product(factors: list[ModalAlgebra]) -> ModalAlgebra:
    """Product on the disjoint atom union; factor 0 takes the low bits."""
    total = sum(f.atoms for f in factors)
    if total > ATOM_CAP:
        raise CapExceeded(f"product would have {total} atoms, cap is {ATOM_CAP}")
    if not factors:
        return trivial_modal()
    size = 1 << total
    masks = np.arange(size, dtype=np.int64)
    box = np.zeros(size, dtype=np.int64)
    off = 0
    for f in factors:
        sub = (masks >> off) & f.top
        box |= f.box[sub] << off
        off += f.atoms
    return ModalAlgebra(total, box)


# ---------------------------------------------------------------------------
# Stable witnesses and the Grzegorczyk characterization


def _grz_term(alg: ModalAlgebra, a: int) -> int:
    """t(a) = box(a -> box a) -> a."""
    return alg.imp(int(alg.box[alg.imp(a, int(alg.box[a]))]), a)


def grz_fails_at(alg: ModalAlgebra, a: int) -> bool:
    return bool(int(alg.box[_grz_term(alg, a)]) & ~a)


def _maximal_open_filter(alg: ModalAlgebra, a: int) -> Filter:
    """Largest open filter containing t(a) but not a; least witness on ties.

    Filters grow as their least elements shrink, so the maximal valid
    filters sit at the minimal opens below t(a) that are not below a.
    """
    ta = _grz_term(alg, a)
    candidates = [u for u in alg.open_elements() if u & ta == u and u & a != u]
    if not candidates:
        raise InternalCheckError("no open filter separates t(a) from a")
    minimal = [
        u for u in candidates if not any(v != u and v & u == v for v in candidates)
    ]
    return Filter(alg, min(minimal))


def stable_witness_construct(alg: ModalAlgebra, a: int) -> Homomorphism:
    """The three-stage stable surjection onto the four-element standard algebra.

    Quotient by a maximal open filter separating t(a) from a, then by the
    Boolean filter generated by the complement of box of the image of a,
    then map onto the standard algebra by the least Boolean surjection
    sending the image of a to a coatom.  Requires the Grzegorczyk
    inequality to fail at a.
    """
    require_interior(alg)
    if not 0 <= a <= alg.top:
        raise InputError(f"element {a} outside the carrier")
    if not grz_fails_at(alg, a):
        raise InputError(
            f"the Grzegorczyk inequality holds at {a}; the construction needs a failure"
        )
    s2 = make_standard("S2")

    g_filter = _maximal_open_filter(alg, a)
    m1, proj1 = quotient(alg, g_filter)
    a1 = proj1(a)

    w = m1.top ^ int(m1.box[a1])
    w_blocks = [1 << i for i in range(m1.atoms) if (w >> i) & 1]
    m = len(w_blocks)
    a2 = _encode(a1, w_blocks)
    if not (0 < a2 < (1 << m) - 1):
        raise InternalCheckError("image of a is not strictly between the bounds")

    best: list[int] | None = None
    for h0, h1 in itertools.product(range(m), repeat=2):
        if h0 == h1:
            continue
        table = [
            (((e >> h0) & 1) | (((e >> h1) & 1) << 1)) for e in range(1 << m)
        ]
        if table[a2] not in (1, 2):
            continue
        if best is None or table < best:
            best = table
    if best is None:
        raise InternalCheckError("no Boolean surjection with a coatom image exists")

    values = {b: best[_encode(proj1(b), w_blocks)] for b in range(alg.size)}
    hom = Homomorphism(alg, s2, "stable", values)
    problems = hom.verify()
    if problems or not hom.surjective or values[a] not in (1, 2):
        raise InternalCheckError(f"constructed witness fails its checks: {problems}")
    return hom


@dataclass
class BlokWitness:
    """A subalgebra-with-quotient presentation of a standard algebra inside M."""

    subalgebra: BooleanSubalgebra
    sub_algebra: ModalAlgebra
    encode: dict[int, int]
    filter: Filter
    quotient: ModalAlgebra
    projection: Homomorphism
    iso: Homomorphism
    target_name: str

    def verify(self) -> list[str]:
        out: list[str] = []
        if not self.subalgebra.box_closed:
            out.append("subalgebra not box closed")
        bad = self.filter.validate()
        if bad:
            out.append(f"filter invalid: {bad}")
        target = make_standard(self.target_name)
        if self.iso.source is not self.quotient or self.iso.target.atoms != target.atoms:
            out.append("iso endpoints wrong")
        if self.iso.verify() or not (self.iso.injective and self.iso.surjective):
            out.append("iso fails the modal isomorphism check")
        if not np.array_equal(self.iso.target.box, target.box):
            out.append("target is not the named standard algebra")
        return out


# S2's and S12's box tables under every relabelling of their atoms, by atom
# count: the algebra on the atoms taken in each order.
_STANDARD_TABLES = {
    std.atoms: frozenset(
        tuple(_on_blocks(std, [1 << j for j in order]).box.tolist())
        for order in itertools.permutations(range(std.atoms))
    )
    for std in (make_standard("S2"), make_standard("S12"))
}


def _standard_in_one_generated(alg: ModalAlgebra) -> bool:
    """Whether some ⟨a⟩ has a quotient isomorphic to S2 or S12.

    The quotient of ⟨a⟩ by the open filter above an open u is ⟨a⟩ relative
    to u (box(x ∧ u) = box x ∧ u), the algebra on the blocks of ⟨a⟩ under
    u; only the opens of two or three blocks can give a standard algebra.
    Its box table over those blocks is read off in plain ints and looked up
    among the standard tables under every relabelling of their atoms.
    Since ⟨a⟩ = ⟨¬a⟩, only the a without the top atom are visited.
    """
    box = alg.box.tolist()
    seen = set()
    for a in range(alg.size >> 1):
        sub = generated_subalgebra(alg, [a], "modal")
        if sub.blocks in seen:
            continue
        seen.add(sub.blocks)
        for k, tables in _STANDARD_TABLES.items():
            for part in itertools.combinations(sub.blocks, k):
                u = sum(part)  # the blocks are disjoint
                if box[u] != u:
                    continue
                elems = [0]
                for b in part:
                    elems += [e | b for e in elems]
                if tuple(_encode(box[e], part) for e in elems) in tables:
                    return True
    return False


@dataclass
class BlokResult:
    is_grz: bool
    witness: BlokWitness | None


def blok_characterization(alg: ModalAlgebra) -> BlokResult:
    """Decide Grz over the 1-generated subalgebras; witness by the proof route.

    The boolean answer looks for S2 or S12 among the open-filter quotients
    of the modal subalgebras ⟨a⟩ generated by one element a, which keeps it
    independent of the inequality scan in validate_modal.  That suffices
    for all of SQ(M): both standard algebras are generated by one element,
    and if N ≤ M has a quotient q: N → N/F ≅ S with q(a) generating S, then
    ⟨a⟩/(F ∩ ⟨a⟩) ≅ S.  The witness, when one is due, is built the
    constructive way: quotient by a maximal open filter, generate from the
    image of the least failing element, pull back.
    """
    require_interior(alg)
    if not _standard_in_one_generated(alg):
        return BlokResult(True, None)

    viol = grz_violations(alg)
    if viol.size == 0:
        raise InternalCheckError(
            "subalgebra/quotient search found a standard algebra but the "
            "inequality holds everywhere"
        )
    a = int(viol[0])
    g_filter = _maximal_open_filter(alg, a)
    m1, proj1 = quotient(alg, g_filter)
    a1 = proj1(a)
    p_sub = generated_subalgebra(m1, [a1], "modal")
    box_a1 = int(m1.box[a1])
    if box_a1 == 0:
        target_name = "S2"
    elif box_a1 != a1 and a1 != m1.top:
        target_name = "S12"
    else:
        raise InternalCheckError("image element does not match either proof case")

    # Pull the quotient-side subalgebra back along the projection.
    p_elems = set(p_sub.elements)
    n_elems = [b for b in range(alg.size) if proj1(b) in p_elems]
    n_sub = subalgebra_from_elements(alg, n_elems)
    n_alg, enc, _ = subalgebra_as_algebra(n_sub)
    filt = Filter(n_alg, enc[g_filter.bottom])
    q, proj = quotient(n_alg, filt)
    target = make_standard(target_name)
    isos = hom_search(q, target, mode="iso")
    if not isos:
        raise InternalCheckError(f"quotient is not isomorphic to {target_name}")
    witness = BlokWitness(n_sub, n_alg, enc, filt, q, proj, isos[0], target_name)
    problems = witness.verify()
    if problems:
        raise InternalCheckError(f"witness failed verification: {problems}")
    return BlokResult(False, witness)
