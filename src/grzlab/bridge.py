"""The passage between Heyting algebras and interior algebras.

One direction reads off the opens (O); the other builds the powerset of
the join-irreducible poset (B) with the canonical embedding onto its
opens.  On top of those: the unique-extension property for homomorphisms
into opens, the two staged algorithms that repair a Boolean subalgebra
into one generated by opens, the finite reconstruction M ≅ BO(M) for
Grzegorczyk algebras, and membership of an algebra in the universal
class and the quasivariety that a finite catalog generates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .catalog import AlgebraCatalog
from .errors import CapExceeded, InputError, InternalCheckError
from .finlat import (
    HeytingAlgebra,
    HeytingHom,
    _irreducible_masks,
    derived,
    heyting_hom_search,
    join_irreducibles,
    join_irreducible_poset,
)
from .modal import (
    ATOM_CAP,
    BooleanSubalgebra,
    Homomorphism,
    ModalAlgebra,
    _hom_search,
    complex_algebra,
    generated_subalgebra,
    hom_search,
    require_grz,
    require_interior,
)


def open_algebra(M: ModalAlgebra) -> tuple[HeytingAlgebra, tuple[int, ...]]:
    """The Heyting algebra of open elements, with the mask correspondence.

    Element i of the result is opens[i].  Meets and joins restrict (opens
    are closed under both); implication is box(¬a ∨ b).  Both parts are
    immutable and built once per M.
    """
    return derived(M, _open_algebra)


def _open_algebra(M: ModalAlgebra) -> tuple[HeytingAlgebra, tuple[int, ...]]:
    require_interior(M)
    opens = M.open_elements()
    n = len(opens)
    # The opens of an interior algebra are closed under meet, join and
    # box(¬a ∨ b), so every table entry is the position of an open.
    arr = np.array(opens, dtype=np.int64)
    index = np.zeros(M.size, dtype=np.int32)
    index[arr] = np.arange(n, dtype=np.int32)
    meet = index[arr[:, None] & arr[None, :]]
    join = index[arr[:, None] | arr[None, :]]
    imp = index[M.box[(M.top ^ arr)[:, None] | arr[None, :]]]
    return HeytingAlgebra(n, meet, join, imp, 0, n - 1), tuple(opens)


def boolean_extension(H: HeytingAlgebra) -> tuple[ModalAlgebra, dict[int, int]]:
    """The interior algebra generated by H as its opens, with the embedding.

    Concretely the complex algebra of the join-irreducible poset; the
    embedding sends a to the set of join-irreducibles below it and its
    image is exactly the opens.  B is built once per H; the embedding is a
    fresh dict on every call.  A lattice whose embedding is not onto the
    opens, or not one-one, is not a Heyting algebra and is refused
    (``InputError``).
    """
    B, emb = derived(H, _boolean_extension)
    return B, dict(emb)


def _boolean_extension(H: HeytingAlgebra) -> tuple[ModalAlgebra, dict[int, int]]:
    poset = join_irreducible_poset(H)
    if poset.size > ATOM_CAP:
        raise CapExceeded(
            f"{poset.size} join-irreducibles exceed the atom cap of {ATOM_CAP}"
        )
    B = complex_algebra(poset)
    # H is the lattice of downsets of its join-irreducibles, the opens of B,
    # exactly when a -> the join-irreducibles below a is onto them and one-one.
    masks = derived(H, _irreducible_masks)
    opens, known = np.flatnonzero(B.box == np.arange(B.size)).tolist(), set(masks)
    if len(opens) != H.size or len(known) != H.size:
        missing = next((m for m in opens if m not in known), None)
        if missing is not None:
            points = [b for x, b in enumerate(join_irreducibles(H)) if missing >> x & 1]
            raise InputError(
                "not a Heyting algebra: no element has exactly the "
                f"join-irreducibles {points} below it, so it is not distributive"
            )
        raise InputError(
            f"not a Heyting algebra: {H.size} elements, but {len(opens)} downsets of its join-irreducibles"
        )
    return B, dict(enumerate(masks))


def extend_hom(H: HeytingAlgebra, M: ModalAlgebra, f) -> Homomorphism:
    """The unique box-preserving extension of f through the opens embedding.

    f maps H elements to open masks of M and must be a Heyting
    homomorphism into the opens; the result extends it from B(H) to M.
    Uniqueness is established by exhaustive search, not assumed.
    """
    O_alg, opens = open_algebra(M)
    index = {m: i for i, m in enumerate(opens)}
    values = {a: f[a] for a in range(H.size)}
    if any(v not in index for v in values.values()):
        raise InputError("map sends some element to a non-open mask")
    as_hom = HeytingHom(H, O_alg, tuple(index[values[a]] for a in range(H.size)))
    problems = as_hom.verify()
    if problems:
        raise InputError(f"not a Heyting homomorphism into the opens: {problems}")
    B, emb = boolean_extension(H)
    constraints = {emb[a]: values[a] for a in range(H.size)}
    homs = hom_search(B, M, constraints=constraints)
    if len(homs) != 1:
        raise InternalCheckError(
            f"expected exactly one extension, search found {len(homs)}"
        )
    return homs[0]


# ---------------------------------------------------------------------------
# The staged repair of a Boolean subalgebra toward the opens


@dataclass
class ExtensionTrace:
    """Everything one elimination step computed, for auditing.

    p replaces the non-open generator g.  The tables are indexed by the
    elements c of the base subalgebra C.
    """

    g: int
    p_star: int
    p_upper: int
    p_c: dict[int, int]
    p_prime_c: dict[int, int]
    u_c: dict[int, int]
    p: int
    opens_used: tuple[int, ...]

    def check(self, M: ModalAlgebra) -> list[str]:
        """Violations of the step invariants; empty when the step is sound."""
        out = []
        top = M.top
        if self.p_star & self.p != self.p_star or self.p & self.p_upper != self.p:
            out.append("p outside [p_star, p_upper]")
        for c, v in self.p_c.items():
            if v & self.g != v:
                out.append(f"p_c at c={c} not below g")
            if int(M.box[v | c]) != int(M.box[self.g | c]):
                out.append(f"(P) fails at c={c}")
        for c, v in self.p_prime_c.items():
            if v & self.g != v:
                out.append(f"p_prime_c at c={c} not below g")
            if int(M.box[(top ^ v) | c]) != int(M.box[(top ^ self.g) | c]):
                out.append(f"(P') fails at c={c}")
        for x in self.opens_used:
            if not M.is_open(x):
                out.append(f"opens_used contains the non-open {x}")
        return out


def box_hom_extension(
    M: ModalAlgebra, C: BooleanSubalgebra, g: int
) -> tuple[Homomorphism, BooleanSubalgebra, ExtensionTrace]:
    """Replace the generator g over C by an element of the open closure.

    Requires the Grzegorczyk inequality and that adjoining g to C adds no
    open elements.  Returns the Boolean homomorphism on B = ⟨C, g⟩ that
    fixes C and sends g to the computed p, the subalgebra D = ⟨C, opens
    used⟩ containing its image, and the audited trace.
    """
    require_grz(M)
    if C.algebra is not M:
        raise InputError("subalgebra belongs to a different algebra")
    if not 0 <= g <= M.top:
        raise InputError(f"element {g} outside the carrier")
    B = generated_subalgebra(M, list(C.blocks) + [g], "boolean")
    if C.open_members() != B.open_members():
        raise InputError("adjoining g changes the open elements of the subalgebra")

    top = M.top
    celems = C.elements
    p_star = 0
    p_upper = top
    for c in celems:
        if c & g == c:
            p_star |= c
        if g & c == g:
            p_upper &= c
    p_c = {}
    u_c = {}
    p_prime_c = {}
    opens_used = set()
    for c in celems:
        bgc = int(M.box[g | c])
        p_c[c] = bgc & (top ^ c)
        u = (top ^ g) | c
        u_c[c] = u
        bu = int(M.box[u])
        bstep = int(M.box[(top ^ u) | bu])
        p_prime_c[c] = bstep & (top ^ bu)
        opens_used.update((bgc, bu, bstep))
    p = p_star
    for c in celems:
        p |= p_c[c] | p_prime_c[c]

    trace = ExtensionTrace(
        g, p_star, p_upper, p_c, p_prime_c, u_c, p, tuple(sorted(opens_used))
    )
    problems = trace.check(M)
    if problems:
        raise InternalCheckError(f"extension step invariants failed: {problems}")

    values = {}
    for e in B.elements:
        out = 0
        for blk in C.blocks:
            a = blk & g
            b = blk & (top ^ g)
            if a and a & e == a:
                out |= blk & p
            if b and b & e == b:
                out |= blk & (top ^ p)
        values[e] = out
    hom = Homomorphism(M, M, "box_partial", values, B)
    bad = hom.verify()
    if bad:
        raise InternalCheckError(f"extension map fails the checker: {bad}")
    D = generated_subalgebra(M, list(C.blocks) + sorted(opens_used), "boolean")
    if any(not D.contains(v) for v in values.values()):
        raise InternalCheckError("extension image escapes the target subalgebra")
    return hom, D, trace


def box_hom_to_BO(M: ModalAlgebra, A: BooleanSubalgebra) -> Homomorphism:
    """Map A into the modal subalgebra generated by the opens, fixing opens.

    Eliminates the non-open generators of A one step at a time, most
    recently chosen first, composing the steps.
    """
    require_grz(M)
    if A.algebra is not M:
        raise InputError("subalgebra belongs to a different algebra")
    opens_A = A.open_members()
    gens: list[int] = []
    while True:
        span = generated_subalgebra(M, opens_A + gens, "boolean")
        missing = [e for e in A.elements if not span.contains(e)]
        if not missing:
            break
        gens.append(missing[0])

    f_total = Homomorphism(M, M, "box_partial", {e: e for e in A.elements}, A)
    current = A
    remaining = list(gens)
    while remaining:
        g = remaining.pop()
        opens_cur = current.open_members()
        C = generated_subalgebra(M, opens_cur + remaining, "boolean")
        step, D, _ = box_hom_extension(M, C, g)
        if set(step.domain.elements) != set(current.elements):
            raise InternalCheckError("elimination step lost track of its domain")
        f_total = Homomorphism(
            M, M, "box_partial",
            {a: step.values[v] for a, v in f_total.values.items()}, A,
        )
        current = D

    open_span = generated_subalgebra(M, M.open_elements(), "modal")
    if any(not open_span.contains(v) for v in f_total.values.values()):
        raise InternalCheckError("result does not land in the open-generated part")
    if any(f_total.values[e] != e for e in opens_A):
        raise InternalCheckError("result moves an open element")
    bad = f_total.verify()
    if bad:
        raise InternalCheckError(f"composite fails the checker: {bad}")
    return f_total


# ---------------------------------------------------------------------------
# Finite reconstruction and class membership


def finite_blok_check(M: ModalAlgebra) -> tuple[Homomorphism, list[int]]:
    """An isomorphism M ≅ BO(M) plus a maximal chain of open elements.

    Only Grzegorczyk algebras qualify.  The map is built, not searched for:
    a finite Grz algebra is the complex algebra of a poset, so atom x goes
    to the atom of BO(M) indexed by the least open containing x, which is
    join-irreducible in O(M).  Its verify(), injectivity and surjectivity
    are its certificate; a failure there, or a missing chain, is reported
    as an internal error.  Both are built once per M; each call gets a
    fresh copy of the map and the chain.
    """
    iso, chain = derived(M, _finite_blok_check)
    return replace(iso, values=dict(iso.values)), list(chain)


def _finite_blok_check(M: ModalAlgebra) -> tuple[Homomorphism, tuple[int, ...]]:
    require_grz(M)
    O_alg, opens = open_algebra(M)
    B, _ = boolean_extension(O_alg)
    if B.atoms != M.atoms:
        raise InternalCheckError(
            f"BO(M) has {B.atoms} atoms where M has {M.atoms}"
        )
    atom_of = {opens[i]: j for j, i in enumerate(join_irreducibles(O_alg))}
    table = [0]
    for x in range(M.atoms):
        least = M.top
        for u in opens:
            if (u >> x) & 1:
                least &= u
        if least not in atom_of:
            raise InternalCheckError(
                f"the least open containing atom {x} is not join-irreducible"
            )
        table += [v | (1 << atom_of[least]) for v in table]
    iso = Homomorphism(M, B, "modal", dict(enumerate(table)))
    if iso.verify() or not (iso.injective and iso.surjective):
        raise InternalCheckError("the built map M -> BO(M) is not an isomorphism")

    chain = [0]
    u = 0
    while u != M.top:
        for i in range(M.atoms):
            cand = u | (1 << i)
            if cand != u and M.is_open(cand):
                u = cand
                chain.append(u)
                break
        else:
            raise InternalCheckError("no maximal all-open chain exists")
    return iso, tuple(chain)


def sigma_catalog(K: AlgebraCatalog) -> AlgebraCatalog:
    """Member-wise boolean extension of a Heyting catalog."""
    if K.kind != "heyting":
        raise InputError("sigma expects a Heyting catalog")
    members = tuple(derived(H, _boolean_extension)[0] for H in K.members)
    return AlgebraCatalog("modal", members, f"sigma({K.name})")


def rho_catalog(Y: AlgebraCatalog) -> AlgebraCatalog:
    """Member-wise open algebra of an interior catalog."""
    if Y.kind != "modal":
        raise InputError("rho expects a modal catalog")
    members = tuple(open_algebra(M)[0] for M in Y.members)
    return AlgebraCatalog("heyting", members, f"rho({Y.name})")


def class_membership(F, K: AlgebraCatalog, mode: str) -> dict:
    """Membership of F in the class the catalog generates, with certificate.

    With finitely many finite members, ultraproducts are isomorphic to
    members, so the universal class is closed-under-substructure of the
    members and the quasivariety is separation by homomorphisms into
    members.  The universal mode takes the members in catalog order up to
    the first one F embeds into; each (F, member) answer is searched once
    and kept on F (``_first_injection``), and the certificate map is a
    fresh copy.

    The quasivariety mode searches the homomorphisms into the members and
    passes them to ``separation``.
    """
    if mode not in ("universal", "quasivariety"):
        raise InputError("mode must be universal or quasivariety")
    if isinstance(F, HeytingAlgebra) != (K.kind == "heyting"):
        raise InputError("algebra and catalog kinds differ")

    if mode == "universal":
        for i, A in enumerate(K.members):
            found = _first_injection(F, A)
            if found is not None:
                return {
                    "holds": True,
                    "mode": mode,
                    "certificate": {"member": i, "map": found},
                }
        return {"holds": False, "mode": mode, "certificate": None}

    return separation(F.size, ((i, table) for i, A in enumerate(K.members) for table in _homs(F, A)))


def separation(size: int, homs) -> dict:
    """Quasivariety membership, with certificate, of an algebra of ``size``
    elements, from its homomorphisms into the members: (member, table)
    pairs in member order and then table order.  One pass refines the
    partition of the elements by their values.  It keeps a map that splits
    a class and stops once every class is a singleton, so the certificate
    lists at most size - 1 maps, and the first listed map that separates a
    pair is the first of all that does.  If some class keeps two elements,
    the certificate is the least such pair.
    """
    # labels[a] numbers the class of a in the partition by the kept maps.
    labels = [0] * size
    count = 1
    kept = []
    for i, table in homs:
        if count == size:
            break
        split: dict[tuple[int, int], int] = {}
        refined = [split.setdefault(key, len(split)) for key in zip(labels, table)]
        if len(split) > count:
            labels, count = refined, len(split)
            kept.append({"member": i, "map": table})
    if count == size:
        return {"holds": True, "mode": "quasivariety", "certificate": kept}
    classes: dict[int, list[int]] = {}
    for a, c in enumerate(labels):
        classes.setdefault(c, []).append(a)
    pair = min(elems[:2] for elems in classes.values() if len(elems) > 1)
    return {"holds": False, "mode": "quasivariety", "certificate": {"unseparated_pair": pair}}


def _per_target(F, build, A):
    """``build(F, A)``, computed once per (F, A) and kept in F's derived store.

    Algebras do not hash (their tables are arrays), so F keeps one dict per
    ``build`` through ``derived``, keyed by ``id(A)``.  Each entry holds A
    itself, so the id cannot be reused while the entry lives.  A refusal
    raised by ``build`` is not stored.  Values are immutable; callers hand
    out copies.
    """
    kept = derived(F, _target_store, build)
    entry = kept.get(id(A))
    if entry is None:
        entry = kept[id(A)] = (A, build(F, A))
    return entry[1]


def _target_store(F, build) -> dict:
    return {}


def _first_injection(F, A) -> list[int] | None:
    """The table of the first embedding of F into A in table order, if any.

    Searched once per (F, A) pair and kept on F; each call gets a fresh
    copy of the table.
    """
    table = _per_target(F, _search_first_injection, A)
    return None if table is None else list(table)


def _search_first_injection(F, A) -> tuple[int, ...] | None:
    if isinstance(F, HeytingAlgebra):
        homs = heyting_hom_search(F, A, mode="injective")
        return homs[0].table if homs else None
    h = next(_hom_search(F, A, mode="injective"), None)
    return None if h is None else tuple(h.table())


def _homs(F, A) -> list[list[int]]:
    if isinstance(F, HeytingAlgebra):
        return [list(h.table) for h in heyting_hom_search(F, A)]
    return [h.table() for h in hom_search(F, A)]


def blok_esakia_catalog_check(K: AlgebraCatalog, M: ModalAlgebra) -> dict:
    """Three routes to 'M belongs to the image class of K'; they must agree.

    Membership of M in the universal class of the extended catalog, of the
    opens of M in the class of K, and a direct embedding of M into some
    B(H) assembled from the finite reconstruction.  The third route lifts
    the second route's certificate (member i and its embedding O(M) → H)
    to B(H) and composes it with M ≅ BO(M); the assembled map must pass
    its own checks.  Disagreement would refute the correspondence at this
    scale and raises.

    Every search is made once per pair: the first embeddings M → B(H) and
    O(M) → H are kept on M and on O(M) (``_first_injection``), and the
    assembled embedding M → B(H) is kept on M per H, as it depends only on
    (M, H).  Each call gets fresh copies of the certificate maps.
    """
    require_grz(M)
    if K.kind != "heyting":
        raise InputError("the catalog side must be Heyting algebras")
    t1 = class_membership(M, sigma_catalog(K), "universal")

    O_alg, _ = open_algebra(M)
    t2 = class_membership(O_alg, K, "universal")

    t3: dict = {"holds": False, "certificate": None}
    if t2["holds"]:
        i = t2["certificate"]["member"]
        table = _per_target(M, _embedding_into_extension, K.members[i])
        t3 = {"holds": True, "certificate": {"member": i, "map": list(table)}}

    answers = (t1["holds"], t2["holds"], t3["holds"])
    if len(set(answers)) != 1:
        raise InternalCheckError(
            f"the three membership routes disagree: {answers}"
        )
    return {
        "holds": t1["holds"],
        "tests": {
            "in_extended_universal": t1,
            "opens_in_universal": t2,
            "embeds_into_extension": t3,
        },
    }


def _embedding_into_extension(M: ModalAlgebra, H: HeytingAlgebra) -> tuple[int, ...]:
    """The first embedding O(M) → H lifted to B(H) and composed with M ≅ BO(M).

    O(M) must embed into H: the caller has found that it does (route 2).
    """
    O_alg, _ = open_algebra(M)
    f0 = _first_injection(O_alg, H)
    BH, embH = boolean_extension(H)
    lift = extend_hom(O_alg, BH, {a: embH[v] for a, v in enumerate(f0)})
    m_iso, _ = finite_blok_check(M)
    total = Homomorphism(
        M, BH, "modal",
        {a: lift.values[v] for a, v in m_iso.values.items()},
    )
    if total.verify() or not total.injective:
        raise InternalCheckError("assembled embedding fails its checks")
    return tuple(total.table())
