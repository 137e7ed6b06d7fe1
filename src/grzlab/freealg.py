"""Bounded free algebras over finite catalogs, and what they certify.

The free algebra on k generators for the class a catalog generates is cut
out inside the product of all member-assignment coordinates; every element
carries the term that produced it.  At bound k this is exact for
everything in at most k variables, and the admissibility and completeness
reports below say so explicitly rather than pretending to the unbounded
notion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bridge import boolean_extension, class_membership, extend_hom, open_algebra, sigma_catalog
from .catalog import AlgebraCatalog
from .errors import CapExceeded, InputError, InternalCheckError
from .finlat import ELEMENT_CAP, HeytingAlgebra, HeytingHom, heyting_hom_search
from .modal import ATOM_CAP, ModalAlgebra, hom_search
from .ulogic import (
    And,
    Box,
    Const,
    Formula,
    Imp,
    Not,
    Or,
    UniversalSentence,
    Var,
    assignment,
    assignment_layout,
    eval_formula,
    refutations,
    sentence_to_json,
)

COORD_CAP = 64


@dataclass
class FreeAlgebra:
    """A free algebra at generator bound k, with term provenance."""

    algebra: object  # HeytingAlgebra | ModalAlgebra
    generators: tuple[int, ...]
    terms: dict[int, Formula]
    catalog: AlgebraCatalog
    k: int


def _rows_to_keys(rows) -> list[bytes]:
    """One dictionary key per coordinate row (the last axis)."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    width = 8 * rows.shape[-1]
    buf = rows.tobytes()
    return [buf[j : j + width] for j in range(0, len(buf), width)]


def _closure(K: AlgebraCatalog, k: int, element_cap: int):
    """Semi-naive closure of bot, top and the k generators in the coordinate product.

    The coordinates are all (member, assignment) pairs, member by member,
    and ``ops`` applies an operation at all of them at once.  Elements are
    interned in the order of the naive closure, which in every round
    applies the operations to all pairs of the elements present at its
    start: Heyting op by op (all meets, then all joins, then all imps),
    modal element by element (~ and box) and then pair by pair (& and |).
    Pairs of elements already present a round earlier give only elements
    interned then, so each round pairs just the new elements with all
    elements.  Returns the interned row keys and terms, the key index, the
    ops, and the rows of bot, top and the generators.
    """
    ncoords = sum(A.size**k for A in K.members)
    ops, digits = assignment_layout(K, k, len(K.members), 0, ncoords)
    fixed = np.zeros((2 + k, ncoords), dtype=np.int64)
    fixed[0] += ops.bot
    fixed[1] += ops.top
    fixed[2:] = np.reshape(digits, (k, ncoords))

    index: dict[bytes, int] = {}
    keys: list[bytes] = []
    terms: list[Formula] = []

    def intern(rows, make_term):
        for j, key in enumerate(_rows_to_keys(rows)):
            if key not in index:
                if len(keys) == element_cap:
                    raise CapExceeded(
                        f"free algebra closure exceeds {element_cap} elements "
                        f"(ELEMENT_CAP, default {ELEMENT_CAP}); raise --element-cap or lower k"
                    )
                index[key] = len(keys)
                keys.append(key)
                terms.append(make_term(j))

    intern(fixed, lambda j: Const("bot") if j == 0 else Const("top") if j == 1 else Var(f"x{j - 2}"))
    done = 0  # every pair of the first `done` elements has been applied
    while len(keys) > done:
        n0 = len(keys)
        E = np.frombuffer(b"".join(keys), dtype=np.int64).reshape(n0, -1)
        if K.kind == "heyting":
            for op, ctor in ((ops.meet, And), (ops.join, Or), (ops.imp, Imp)):
                for i in range(n0):
                    lo = done if i < done else 0
                    intern(op(E[i], E[lo:]), lambda j, i=i, lo=lo, c=ctor: c(terms[i], terms[lo + j]))
        else:
            new = E[done:]
            intern(
                np.stack([ops.neg(new), ops.box(new)], axis=1),
                lambda j, base=done: (Not, Box)[j % 2](terms[base + j // 2]),
            )
            for i in range(n0):
                lo = done if i < done else 0
                pairs = np.stack([ops.meet(E[i], E[lo:]), ops.join(E[i], E[lo:])], axis=1)
                intern(pairs, lambda j, i=i, lo=lo: (And, Or)[j % 2](terms[i], terms[lo + j // 2]))
        done = n0
    return keys, terms, index, ops, fixed


def free_algebra(
    K: AlgebraCatalog,
    k: int,
    coord_cap: int = COORD_CAP,
    element_cap: int = ELEMENT_CAP,
) -> FreeAlgebra:
    """The free algebra on k generators for the class the catalog generates.

    Subalgebra of the product over all (member, assignment) coordinates,
    generated by the k projection tuples; each element carries a defining
    term.  Heyting elements are numbered in sorted tuple order, modal ones
    by their atom masks.  A closure that passes ``element_cap`` elements is
    refused as soon as it does.
    """
    if not K.members:
        raise InputError("free algebra needs a nonempty catalog")
    if k < 0:
        raise InputError("generator count must be nonnegative")
    ncoords = sum(A.size**k for A in K.members)
    if ncoords > coord_cap:
        raise CapExceeded(
            f"free algebra needs {ncoords} coordinates, cap is {coord_cap} "
            f"(COORD_CAP, default {COORD_CAP}); raise --coord-cap or lower k"
        )

    keys, terms, index, ops, fixed = _closure(K, k, element_cap)
    n = len(keys)
    E = np.frombuffer(b"".join(keys), dtype=np.int64).reshape(n, -1)

    def number(rows, numbering) -> list[int]:
        return [int(numbering[index[key]]) for key in _rows_to_keys(rows)]

    if K.kind == "heyting":
        order = np.lexsort(E.T[::-1])
        numbering = np.empty(n, dtype=np.int64)
        numbering[order] = np.arange(n)
        ordered = E[order]
        tables = [np.zeros((n, n), dtype=np.int32) for _ in range(3)]
        for a in range(n):
            for t, op in zip(tables, (ops.meet, ops.join, ops.imp)):
                t[a] = number(op(ordered[a], ordered), numbering)
        bot, top = number(fixed[:2], numbering)
        alg = HeytingAlgebra(n, *tables, bot, top)
    else:
        # A finite Boolean algebra of masks: its atoms are the least
        # elements containing each point (coordinate, bit) of top.
        atoms = {}
        for c, top_c in enumerate(fixed[1].tolist()):
            for bit in range(top_c.bit_length()):
                atom = np.bitwise_and.reduce(E[(E[:, c] >> bit) & 1 == 1], axis=0)
                atoms[atom.tobytes()] = atom
        natoms = len(atoms)
        if natoms > ATOM_CAP:
            raise CapExceeded(f"free algebra has {natoms} atoms, cap is {ATOM_CAP}")
        if n != 1 << natoms:
            raise InternalCheckError("closure size is not a power of two")
        atom_rows = np.array(list(atoms.values()), dtype=np.int64).reshape(natoms, E.shape[1])
        atom_rows = atom_rows[np.lexsort(atom_rows.T[::-1])]

        def masks_of(rows):
            out = np.zeros(len(rows), dtype=np.int64)
            for j, atom in enumerate(atom_rows):
                out |= np.all(ops.meet(rows, atom) == atom, axis=1).astype(np.int64) << j
            return out

        numbering = masks_of(E)
        if len(set(numbering.tolist())) != n:
            raise InternalCheckError("atom decomposition failed to separate elements")
        box = np.zeros(n, dtype=np.int64)
        box[numbering] = masks_of(ops.box(E))
        alg = ModalAlgebra(natoms, box)
    generators = tuple(number(fixed[2:], numbering))
    term_map = {int(numbering[i]): terms[i] for i in range(n)}
    return FreeAlgebra(alg, generators, term_map, K, k)


def ump_extension_count(free: FreeAlgebra, member, assignment) -> int:
    """How many homomorphisms extend one generator assignment; should be 1."""
    constraints = {free.generators[i]: assignment[i] for i in range(free.k)}
    if isinstance(free.algebra, HeytingAlgebra):
        return len(heyting_hom_search(free.algebra, member, constraints=constraints))
    return len(hom_search(free.algebra, member, kind="modal", constraints=constraints))


def verify_ump(free: FreeAlgebra, max_member_size: int = 4) -> list[str]:
    """Exhaustive unique-extension check over the small catalog members."""
    out = []
    for m_idx, member in enumerate(free.catalog.members):
        if member.size > max_member_size:
            continue
        for assignment in itertools.product(range(member.size), repeat=free.k):
            count = ump_extension_count(free, member, assignment)
            if count != 1:
                out.append(
                    f"member {m_idx}, assignment {assignment}: {count} extensions"
                )
    return out


def weakly_admissible_k(K: AlgebraCatalog, v: UniversalSentence, k: int) -> dict:
    """Does adding v change no identities in at most k variables?

    Restrict the catalog to members where v holds, then ask whether the
    k-generator free algebra lies in the quasivariety of the rest.  Sound
    and complete for identities in at most k variables only.
    """
    expected = "heyting" if K.kind == "heyting" else "modal"
    if v.signature != expected:
        raise InputError("sentence signature does not match the catalog")
    failing = {i for _, i, _ in refutations(K, (v,))}
    kept = tuple(A for i, A in enumerate(K.members) if i not in failing)
    restricted = AlgebraCatalog(K.kind, kept, f"{K.name}|v")
    free = free_algebra(K, k)
    res = class_membership(free.algebra, restricted, "quasivariety")
    return {
        "admissible_k": res["holds"],
        "k": k,
        "restricted_members": len(kept),
        "certificate": res["certificate"],
    }


def completeness_report_k(
    K: AlgebraCatalog,
    candidates: list[UniversalSentence],
    k: int,
    mode: str = "structural",
) -> dict:
    """Falsifier: admissible-but-invalid candidates at bound k.

    structural mode admits only single-conclusion candidates; universal
    mode any.  A violation pairs an admissible sentence with its failure
    in the catalog; for a complete class the list stays empty.
    """
    if mode not in ("structural", "universal"):
        raise InputError("mode must be 'structural' or 'universal'")
    free = free_algebra(K, k)
    # Structural mode refuses the first multi-conclusion candidate, after
    # the candidates before it.
    scanned = len(candidates)
    if mode == "structural":
        scanned = next((s for s, v in enumerate(candidates) if len(v.conclusions) != 1), scanned)
    failing: dict[int, list[tuple[int, int]]] = {}
    for s, i, t in refutations(K, candidates[:scanned]):
        failing.setdefault(s, []).append((i, t))
    # Whether a candidate is admissible depends only on the members it
    # fails on; only a failing candidate can be a violation.
    admissible: dict[tuple[int, ...], bool] = {}
    violations = []
    for s in sorted(failing):
        fails = failing[s]
        pattern = tuple(i for i, _ in fails)
        if pattern not in admissible:
            kept = tuple(A for i, A in enumerate(K.members) if i not in pattern)
            restricted = AlgebraCatalog(K.kind, kept, f"{K.name}|v")
            admissible[pattern] = class_membership(free.algebra, restricted, "quasivariety")["holds"]
        if admissible[pattern]:
            v = candidates[s]
            i, t = fails[0]
            record = sentence_to_json(v)
            record["failing_member"] = i
            record["counterexample"] = assignment(v.variables, t, K.members[i].size)
            violations.append(record)
    if scanned < len(candidates):
        raise InputError("structural mode admits only single-conclusion candidates")
    return {
        "mode": mode,
        "k": k,
        "checked": len(candidates),
        "violations": violations,
    }


def sigma_free_checks(K: AlgebraCatalog, k: int, k_cap: int = 1, size_cap: int = 4) -> dict:
    """Free-algebra side of the passage to interior algebras, at bound k.

    Builds F over K and F_sigma over the extended catalog, embeds B(F)
    into F_sigma along v -> box v, and places F_sigma in the quasivariety
    of B(F).  Both certified; both k-bounded statements.
    """
    if K.kind != "heyting":
        raise InputError("sigma_free_checks expects a Heyting catalog")
    if k > k_cap:
        raise CapExceeded(f"generator bound {k} exceeds the cap {k_cap}")
    if any(A.size > size_cap for A in K.members):
        raise CapExceeded(f"members must have at most {size_cap} elements")

    free = free_algebra(K, k)
    BF, _ = boolean_extension(free.algebra)
    free_sigma = free_algebra(sigma_catalog(K), k)

    O_alg, opens = open_algebra(free_sigma.algebra)
    index = {m: i for i, m in enumerate(opens)}
    env = {
        f"x{i}": index[int(free_sigma.algebra.box[free_sigma.generators[i]])]
        for i in range(k)
    }
    table = tuple(
        eval_formula(O_alg, free.terms[e], env) for e in range(free.algebra.size)
    )
    as_hom = HeytingHom(free.algebra, O_alg, table)
    bad = as_hom.verify()
    if bad:
        raise InternalCheckError(
            f"generator map fails to be a Heyting homomorphism: {bad}"
        )
    lift = extend_hom(
        free.algebra, free_sigma.algebra, {a: opens[table[a]] for a in range(free.algebra.size)}
    )
    if lift.verify() or not lift.injective:
        raise InternalCheckError("lifted map is not an embedding")

    qres = class_membership(
        free_sigma.algebra, AlgebraCatalog("modal", (BF,), "B(F)"), "quasivariety"
    )
    return {
        "k": k,
        "k_bounded": True,
        "embedding": {"map": lift.table(), "injective": lift.injective},
        "free_sigma_in_quasivariety": qres,
    }
