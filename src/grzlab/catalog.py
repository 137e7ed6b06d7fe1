"""Enumeration of small posets, topologies, and algebras, plus persistence.

Everything is up to isomorphism with explicit canonical forms: posets use
the least packed relation matrix over relabelings, topologies the least
family mask over point permutations.  Posets are the one enumerated
structure: a finite topology is a poset of clusters, so topologies and
their interior algebras are built from the posets.  Heyting algebras ride
on Birkhoff duality, so deduplicating them is deduplicating their
join-irreducible posets and needs no extra work.  Catalogs persist as
JSON with named, validated entries.
"""

from __future__ import annotations

import functools
import itertools
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, InputError
from .finlat import (
    POSET_POINT_CAP,
    FinitePoset,
    HeytingAlgebra,
    _canonical_key,
    downset_masks,
    downset_heyting,
    poset_from_key,
    validate_heyting,
)
from .modal import ModalAlgebra, validate_modal

FORMAT_VERSION = 1
TOPOLOGY_POINT_CAP = 6

_DATA_DIR = pathlib.Path(__file__).parent / "data"


@dataclass(frozen=True)
class AlgebraCatalog:
    """A finite homogeneous family of algebras, read as its generated class.

    The fields cannot be rebound, so derived values (the layout of a
    sentence scan) are cached per instance, as on the algebras.
    """

    kind: str  # "heyting" | "modal"
    members: tuple
    name: str = ""
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("heyting", "modal"):
            raise InputError("catalog kind must be 'heyting' or 'modal'")
        want = HeytingAlgebra if self.kind == "heyting" else ModalAlgebra
        if any(not isinstance(m, want) for m in self.members):
            raise InputError(f"catalog members must all be {self.kind} algebras")
        object.__setattr__(self, "members", tuple(self.members))


@dataclass
class CatalogFile:
    version: int
    entries: dict[str, dict]

    def decoded(self) -> dict[str, object]:
        return {name: decode_entry(rec) for name, rec in self.entries.items()}


def decode_entry(rec: dict):
    if not isinstance(rec, dict):
        raise InputError("catalog entry is not an object")
    kind = rec.get("kind")
    if kind == "poset":
        return FinitePoset.from_record(rec)
    if kind == "heyting":
        return HeytingAlgebra.from_record(rec)
    if kind == "modal":
        return ModalAlgebra.from_record(rec)
    raise InputError(f"unknown entry kind {kind!r}")


def _validate_entry(name: str, obj) -> None:
    if isinstance(obj, FinitePoset):
        bad = obj.validate()
        if bad:
            raise InputError(f"catalog entry {name!r}: invalid poset: {bad}")
    elif isinstance(obj, HeytingAlgebra):
        rep = validate_heyting(obj)
        if not rep.ok:
            raise InputError(
                f"catalog entry {name!r}: invalid Heyting algebra: "
                f"{rep.malformed or rep.violations}"
            )
    elif isinstance(obj, ModalAlgebra):
        rep = validate_modal(obj)
        if rep.malformed or not rep.k:
            raise InputError(
                f"catalog entry {name!r}: box table violates K: "
                f"{rep.malformed or rep.violations}"
            )


def save(path, entries: dict[str, object]) -> None:
    """Write named records (objects with to_record, or raw record dicts)."""
    recs = {}
    for name, obj in entries.items():
        recs[name] = obj if isinstance(obj, dict) else obj.to_record()
    doc = {"version": FORMAT_VERSION, "entries": recs}
    text = json.dumps(doc, indent=1, sort_keys=True)
    pathlib.Path(path).write_text(text + "\n")


def load(path) -> CatalogFile:
    """Read and re-validate a catalog file; errors name the offending entry."""
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read catalog {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != FORMAT_VERSION:
        raise InputError(
            f"catalog {path}: expected version {FORMAT_VERSION}, "
            f"got {doc.get('version') if isinstance(doc, dict) else 'no object'}"
        )
    entries = doc.get("entries")
    if not isinstance(entries, dict):
        raise InputError(f"catalog {path}: entries must be an object")
    out = CatalogFile(FORMAT_VERSION, entries)
    for name, obj in out.decoded().items():
        _validate_entry(name, obj)
    return out


# ---------------------------------------------------------------------------
# Posets


@functools.lru_cache(maxsize=None)
def enumerate_posets(n: int) -> tuple[FinitePoset, ...]:
    """One poset per isomorphism class on n points, in canonical-key order.

    Built inductively: every n-point poset is an (n-1)-point poset with a
    new maximal point placed over one of its downsets.  That step,
    ``_extensions``, is shared with the size-bounded growth in
    ``enumerate_heyting``; each candidate is replaced by the representative
    of its canonical key, built from its reverse linear extensions.
    """
    if n < 0:
        raise InputError("point count must be nonnegative")
    if n > POSET_POINT_CAP:
        raise CapExceeded(
            f"poset enumeration asked for {n} points; POSET_POINT_CAP is {POSET_POINT_CAP}"
        )
    if n == 0:
        return (FinitePoset(0, np.zeros((0, 0), dtype=bool)),)
    return _extensions(enumerate_posets(n - 1), n)


def _extensions(bases, n: int) -> tuple[FinitePoset, ...]:
    """The n-point posets made by adding a new maximal point over a downset
    of one of the (n-1)-point ``bases``: one per canonical key, in key order.
    Candidates are orders by construction, so they skip the order check."""
    points = np.arange(n)
    keys: set[int] = set()
    for base in bases:
        for down in downset_masks(base):
            mat = np.zeros((n, n), dtype=bool)
            mat[: n - 1, : n - 1] = base.leq
            mat[:, n - 1] = ((down | 1 << (n - 1)) >> points) & 1
            keys.add(_canonical_key(FinitePoset(n, mat)))
    return tuple(poset_from_key(n, key) for key in sorted(keys))


# ---------------------------------------------------------------------------
# Topologies and interior algebras


@functools.lru_cache(maxsize=None)
def permutation_table(n: int) -> np.ndarray:
    """Every permutation of 0..n-1 as the rows of a read-only (n!, n) array,
    built on the first use of each n for ``enumerate_topologies``."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    perms.setflags(write=False)
    return perms


@functools.lru_cache(maxsize=None)
def enumerate_topologies(k: int) -> tuple[int, ...]:
    """Topologies on k points up to homeomorphism, as canonical family masks.

    A finite topology is a preorder, a poset of clusters, so each one comes
    from a poset on m <= k points: its points become m consecutive runs of
    the k points, and the opens are the unions of clusters over its
    downsets.  A family mask has bit s set when the subset mask s is open.
    The canonical mask is the least image of the family under the point
    permutations of ``permutation_table``; at 6 points it needs all 64
    bits, so the images are ``uint64``.
    """
    if k < 0:
        raise InputError("point count must be nonnegative")
    if k > TOPOLOGY_POINT_CAP:
        raise CapExceeded(
            f"topology enumeration asked for {k} points; "
            f"TOPOLOGY_POINT_CAP is {TOPOLOGY_POINT_CAP}"
        )
    members = (np.arange(1 << k) >> np.arange(k)[:, None]) & 1  # [i, s]: i lies in s
    moved = (1 << permutation_table(k)) @ members  # [p, s]: s moved by p
    bits = np.uint64(1) << moved.astype(np.uint64)
    found = {1} if k == 0 else set()  # the empty space has one open set, the empty one
    for m in range(1, k + 1):
        cuts = itertools.combinations(range(1, k), m - 1)
        ends = np.array([(0, *cut, k) for cut in cuts])
        clusters = (1 << ends[:, 1:]) - (1 << ends[:, :-1])  # [c, j]: run j of split c
        for poset in enumerate_posets(m):
            downs = np.array(downset_masks(poset))
            opens = clusters @ ((downs[:, None] >> np.arange(m)) & 1).T  # [c, d]
            # distinct opens move to distinct subsets: the sum is the moved family
            found.update(int(f) for f in bits[:, opens].sum(axis=2).min(axis=0))
    return tuple(sorted(found))


def interior_from_topology(k: int, family: int) -> ModalAlgebra:
    """Interior algebra of a family of open sets: box(S) = largest open in S."""
    size = 1 << k
    opens = [s for s in range(size) if (family >> s) & 1]
    box = np.zeros(size, dtype=np.int64)
    masks = np.arange(size, dtype=np.int64)
    for o in opens:
        box[(masks & o) == o] |= o
    return ModalAlgebra(k, box)


def enumerate_interior(k: int) -> list[ModalAlgebra]:
    """One interior algebra per topology on k points up to homeomorphism."""
    return [interior_from_topology(k, fam) for fam in enumerate_topologies(k)]


# ---------------------------------------------------------------------------
# Heyting algebras


def enumerate_heyting(max_size: int) -> list[HeytingAlgebra]:
    """All Heyting algebras with at most max_size elements up to isomorphism.

    Downset algebras of the poset representatives, ordered by size and then
    by canonical key; distinct poset classes give non-isomorphic algebras by
    Birkhoff duality, so no deduplication is needed.  Each level of posets
    comes in key order, and every key on n + 1 points is larger than every
    key on n points, so a stable sort on size alone gives that order.

    Posets are grown one point at a time and pruned by downset count.
    Removing a maximal point x from a poset P loses at least one downset
    (the full set; the downsets without x are exactly those of P - x), so
    every poset with at most max_size downsets is a one-point extension of
    a poset with fewer than max_size.  Only those are extended, and only
    candidates with at most max_size downsets are kept.
    """
    if max_size < 1:
        raise InputError("max_size must be at least 1")
    if max_size - 1 > POSET_POINT_CAP:
        raise CapExceeded(
            f"max_size {max_size} needs posets of {max_size - 1} points; "
            f"POSET_POINT_CAP is {POSET_POINT_CAP}"
        )
    found: list[tuple[int, HeytingAlgebra]] = []
    level = enumerate_posets(0)
    while level:
        bases = []
        for poset in level:
            try:
                masks = downset_masks(poset, cap=max_size)
            except CapExceeded:
                continue
            found.append((len(masks), downset_heyting(poset)))
            if len(masks) < max_size:
                bases.append(poset)
        level = _extensions(bases, level[0].size + 1)
    found.sort(key=lambda item: item[0])
    return [alg for _, alg in found]


# ---------------------------------------------------------------------------
# The built-in catalogs the acceptance checks run over


def interior_catalog(max_points: int) -> AlgebraCatalog:
    """Interior algebras of all topologies on at most max_points points."""
    members = []
    for k in range(max_points + 1):
        members.extend(enumerate_interior(k))
    return AlgebraCatalog("modal", tuple(members), f"interior<={max_points}pts")


def heyting_catalog(max_size: int) -> AlgebraCatalog:
    return AlgebraCatalog(
        "heyting", tuple(enumerate_heyting(max_size)), f"heyting<={max_size}"
    )


def grz_members(cat: AlgebraCatalog) -> list[ModalAlgebra]:
    if cat.kind != "modal":
        raise InputError("grz_members expects a modal catalog")
    return [m for m in cat.members if validate_modal(m).grz]


# ---------------------------------------------------------------------------
# Golden files


def poset_entries(max_points: int) -> dict[str, FinitePoset]:
    out = {}
    for n in range(max_points + 1):
        for i, poset in enumerate(enumerate_posets(n)):
            out[f"poset_{n}_{i}"] = poset
    return out


def interior_entries(max_points: int) -> dict[str, ModalAlgebra]:
    out = {}
    for k in range(max_points + 1):
        for i, alg in enumerate(enumerate_interior(k)):
            out[f"interior_{k}_{i}"] = alg
    return out


def builtin_catalog(name: str) -> CatalogFile:
    """Load one of the golden files shipped with the package."""
    path = _DATA_DIR / f"{name}.json"
    if not path.exists():
        raise InputError(f"no builtin catalog named {name!r}")
    return load(path)


def write_golden_files(data_dir=None) -> list[str]:
    """Regenerate the shipped golden files; returns the paths written."""
    base = pathlib.Path(data_dir) if data_dir is not None else _DATA_DIR
    base.mkdir(parents=True, exist_ok=True)
    written = []
    for name, entries in (
        ("posets_n3", poset_entries(3)),
        ("interior_k3", interior_entries(3)),
    ):
        path = base / f"{name}.json"
        save(path, entries)
        written.append(str(path))
    return written
