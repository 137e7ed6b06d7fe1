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
import math
from dataclasses import dataclass

import numpy as np

from .bridge import class_membership, extend_hom, open_algebra, separation, sigma_catalog
from .catalog import AlgebraCatalog
from .errors import CapExceeded, InputError, InternalCheckError
from .finlat import ELEMENT_CAP, HeytingAlgebra, HeytingHom, heyting_hom_search
from .modal import ATOM_CAP, ModalAlgebra, hom_search
from .ulogic import (
    EVAL_CAP,
    And,
    Box,
    Const,
    Formula,
    Imp,
    Not,
    Or,
    RuleSpace,
    UniversalSentence,
    Var,
    assignment,
    assignment_layout,
    eval_formula,
    refutations,
    rule_failures,
    sentence_to_json,
    translate,
)

COORD_CAP = 64
# An element cap is accepted when 12 bytes per pair of elements at the cap,
# the three int32 tables of a Heyting free algebra that large, fit in this
# many bytes; the same bound holds for modal catalogs.
TABLE_BYTES = 1 << 30

# Fixed bounds, raised by no flag: verify_ump takes members of at most
# UMP_MEMBER_CAP elements, and sigma_free_checks takes k <= SIGMA_K_CAP and
# members of at most SIGMA_SIZE_CAP elements.
UMP_MEMBER_CAP = 4
SIGMA_K_CAP = 1
SIGMA_SIZE_CAP = 4


@dataclass
class FreeAlgebra:
    """A free algebra at generator bound k, with term provenance."""

    algebra: object  # HeytingAlgebra | ModalAlgebra
    generators: tuple[int, ...]
    terms: dict[int, Formula]
    catalog: AlgebraCatalog
    k: int
    rows: np.ndarray  # row e: element e at each coordinate, laid out as in assignment_layout


# A block of applied pairs holds at most this many coordinate values.  At
# 2**16 the keys of a block of narrow rows raised a small closure's peak
# RSS by 0.5 MB.
_CELLS = 1 << 15


def _blocks(done: int, n0: int, width: int):
    """Rectangles (c, d, j0, j1) of rows c:d by columns j0:j1 that cover a
    round's pairs in (i, j) order: rows below ``done`` with columns
    done:n0, then rows done:n0 with all columns.  Each has at most
    ``_CELLS // width`` pairs (at least one): runs of whole rows where a
    row fits, else pieces of one row."""
    per = max(1, _CELLS // width)
    for a, b, lo in ((0, done, done), (done, n0, 0)):
        span = n0 - lo
        if span <= per:
            step = per // span
            for c in range(a, b, step):
                yield c, min(c + step, b), lo, n0
        else:
            for i in range(a, b):
                for j in range(lo, n0, per):
                    yield i, i + 1, j, min(j + per, n0)


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
    elements.  Pairs are applied a block at a time (``_blocks``), and a
    block's rows are keyed and looked up together.  Returns the rows in
    the ops' dtype, the terms, the element numbers of bot, top and the
    generators (bot and top are one element in a trivial catalog), and
    the tables in interning numbers: for a Heyting catalog the meet, join
    and imp tables, int32 arrays whose entry [a, b] is the number of
    op(a, b), each filled as its pair is applied; for a modal one the
    list of each element's box.
    """
    width = sum(A.size**k for A in K.members)
    ops, digits = assignment_layout(K, k, len(K.members), 0, width)
    fixed = np.empty((2 + k, width), dtype=ops.dtype)
    fixed[0], fixed[1] = ops.bot, ops.top
    fixed[2:] = np.reshape(digits, (k, width))
    void = np.dtype((np.void, width * ops.dtype.itemsize))
    index: dict[bytes, int] = {}
    terms: list[Formula] = []
    unseen = itertools.repeat(-1)
    fresh = []  # the rows interned since the round began, a block's at a time

    def intern(rows, make_term):
        """The element number of each row, interning the rows not seen yet;
        make_term(r) is the term of row r of the block."""
        rows = rows.astype(ops.dtype, copy=False).reshape(-1, width)
        found = rows.view(void).ravel().tolist()
        numbers = np.fromiter(map(index.get, found, unseen), dtype=np.int32, count=len(found))
        added = []
        for r in np.flatnonzero(numbers < 0).tolist():
            number = index.get(found[r])
            if number is None:
                if len(terms) == element_cap:
                    raise CapExceeded(
                        f"free algebra closure exceeds {element_cap} elements "
                        f"(ELEMENT_CAP, default {ELEMENT_CAP}); raise --element-cap or lower k"
                    )
                number = index[found[r]] = len(terms)
                terms.append(make_term(r))
                added.append(r)
            numbers[r] = number
        if added:
            fresh.append(rows[added])  # a copy, so the block itself is freed
        return numbers

    first = intern(fixed, lambda r: Const("bot") if r == 0 else Const("top") if r == 1 else Var(f"x{r - 2}"))
    E = np.concatenate(fresh)
    if K.kind == "heyting":
        tables = [np.zeros((0, 0), dtype=np.int32) for _ in range(3)]
    else:
        tables = [[]]
    done = 0  # every pair of the first `done` elements has been applied
    while len(E) > done:
        n0 = len(E)
        fresh.clear()
        if K.kind == "heyting":
            for t, (op, ctor) in enumerate(((ops.meet, And), (ops.join, Or), (ops.imp, Imp))):
                table = np.zeros((n0, n0), dtype=np.int32)  # its pages stay unmapped until written
                table[:done, :done] = tables[t]
                tables[t] = table
                for c, d, j0, j1 in _blocks(done, n0, width):
                    span = j1 - j0
                    table[c:d, j0:j1] = intern(
                        op(E[c:d, None], E[None, j0:j1]),
                        lambda r, c=c, j0=j0, span=span, f=ctor: f(terms[c + r // span], terms[j0 + r % span]),
                    ).reshape(d - c, span)
        else:
            step = max(1, _CELLS // (2 * width))
            for c in range(done, n0, step):
                new = E[c : c + step]
                numbers = intern(
                    np.stack([ops.neg(new), ops.box(new)], axis=1),
                    lambda r, c=c: (Not, Box)[r % 2](terms[c + r // 2]),
                )
                tables[0].extend(numbers[1::2].tolist())
            for c, d, j0, j1 in _blocks(done, n0, 2 * width):
                x, y, span = E[c:d, None], E[None, j0:j1], j1 - j0
                intern(
                    np.stack([ops.meet(x, y), ops.join(x, y)], axis=2),
                    lambda r, c=c, j0=j0, span=span: (And, Or)[r % 2](
                        terms[c + r // 2 // span], terms[j0 + r // 2 % span]
                    ),
                )
        done = n0
        E = np.concatenate([E, *fresh])
    return E, terms, first, tables


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
    by their atom masks.  The Heyting tables and the modal box are the
    closure's own, only renumbered: no operation is applied after the
    closure.  A closure that passes ``element_cap`` elements is refused as
    soon as it does, and an ``element_cap`` past the ``TABLE_BYTES`` bound
    at once.
    """
    if not K.members:
        raise InputError("free algebra needs a nonempty catalog")
    if k < 0:
        raise InputError("generator count must be nonnegative")
    largest = math.isqrt(TABLE_BYTES // 12)
    if element_cap > largest:
        raise CapExceeded(
            f"element cap {element_cap} is past {largest}, the largest accepted --element-cap: "
            f"12 bytes per pair of elements at the cap must fit TABLE_BYTES ({TABLE_BYTES}), "
            f"which no flag raises"
        )
    ncoords = sum(A.size**k for A in K.members)
    if ncoords > coord_cap:
        raise CapExceeded(
            f"free algebra needs {ncoords} coordinates, cap is {coord_cap} "
            f"(COORD_CAP, default {COORD_CAP}); raise --coord-cap or lower k"
        )

    E, terms, first, tables = _closure(K, k, element_cap)
    n = len(E)

    if K.kind == "heyting":
        order = np.lexsort(E.T[::-1])
        numbering = np.empty(n, dtype=np.int32)
        numbering[order] = np.arange(n)
        bot, top = numbering[first[:2]].tolist()
        for t in range(3):  # in place, so each closure table is freed once renumbered
            tables[t] = numbering[tables[t][np.ix_(order, order)]]
        alg = HeytingAlgebra(n, *tables, bot, top)
    else:
        # A finite Boolean algebra of masks: its atoms are the least
        # elements containing each point (coordinate, bit) of top.
        atoms = {}
        for c, top_c in enumerate(E[first[1]].tolist()):
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
                out |= np.all(rows & atom == atom, axis=1).astype(np.int64) << j
            return out

        numbering = masks_of(E)
        if len(set(numbering.tolist())) != n:
            raise InternalCheckError("atom decomposition failed to separate elements")
        box = np.zeros(n, dtype=np.int64)
        box[numbering] = numbering[tables[0]]
        alg = ModalAlgebra(natoms, box)
    generators = tuple(numbering[first[2:]].tolist())
    term_map = {int(numbering[i]): terms[i] for i in range(n)}
    return FreeAlgebra(alg, generators, term_map, K, k, E[np.argsort(numbering)])


def ump_extension_count(free: FreeAlgebra, member, assignment) -> int:
    """How many homomorphisms extend one generator assignment; should be 1."""
    constraints = {free.generators[i]: assignment[i] for i in range(free.k)}
    if isinstance(free.algebra, HeytingAlgebra):
        return len(heyting_hom_search(free.algebra, member, constraints=constraints))
    return len(hom_search(free.algebra, member, constraints=constraints))


def verify_ump(free: FreeAlgebra) -> list[str]:
    """Exhaustive unique-extension check over every catalog member; refuses
    at once if a member has more than ``UMP_MEMBER_CAP`` elements."""
    for m_idx, member in enumerate(free.catalog.members):
        if member.size > UMP_MEMBER_CAP:
            raise CapExceeded(
                f"member {m_idx} has {member.size} elements; verify_ump checks at most "
                f"{UMP_MEMBER_CAP} (UMP_MEMBER_CAP); no flag raises it"
            )
    out = []
    for m_idx, member in enumerate(free.catalog.members):
        for assignment in itertools.product(range(member.size), repeat=free.k):
            count = ump_extension_count(free, member, assignment)
            if count != 1:
                out.append(
                    f"member {m_idx}, assignment {assignment}: {count} extensions"
                )
    return out


def _in_quasivariety(free: FreeAlgebra, kept) -> dict:
    """``class_membership`` of F_K(k) in the quasivariety of the members
    numbered ``kept``, which its certificate numbers among themselves.

    A homomorphism from F_K(k) into a member A is fixed by the images of
    the generators: it is the projection onto a coordinate (A, a) (Burris
    & Sankappanavar, *A Course in Universal Algebra*, section II.10).  So
    A's columns of ``free.rows``, sorted, are the tables a search finds.
    """
    starts = list(itertools.accumulate((A.size**free.k for A in free.catalog.members), initial=0))

    def homs():
        for j, i in enumerate(kept):
            columns = free.rows[:, starts[i] : starts[i + 1]].T
            for table in columns[np.lexsort(columns.T[::-1])].tolist():
                yield j, table

    return separation(free.algebra.size, homs())


def weakly_admissible_k(
    K: AlgebraCatalog,
    v: UniversalSentence,
    k: int,
    coord_cap: int = COORD_CAP,
    element_cap: int = ELEMENT_CAP,
) -> dict:
    """Does adding v change no identities in at most k variables?

    Restrict the catalog to members where v holds, then ask whether the
    k-generator free algebra lies in the quasivariety of the rest.  Sound
    and complete for identities in at most k variables only.  The caps
    bound the free algebra, as in ``free_algebra``.
    """
    if v.signature != K.kind:
        raise InputError("sentence signature does not match the catalog")
    failing = {i for _, i, _ in refutations(K, (v,))}
    kept = [i for i in range(len(K.members)) if i not in failing]
    res = _in_quasivariety(free_algebra(K, k, coord_cap, element_cap), kept)
    return {
        "admissible_k": res["holds"],
        "k": k,
        "restricted_members": len(kept),
        "certificate": res["certificate"],
    }


def completeness_report_k(
    K: AlgebraCatalog,
    candidates,
    k: int,
    mode: str = "structural",
    coord_cap: int = COORD_CAP,
    element_cap: int = ELEMENT_CAP,
) -> dict:
    """Falsifier: admissible-but-invalid candidates at bound k.

    structural mode admits only single-conclusion candidates; universal
    mode any.  A violation pairs an admissible sentence with its failure
    in the catalog; for a complete class the list stays empty.

    ``candidates`` is a list of sentences or a ``RuleSpace``, whose rules
    are read as sentences by ``translate``.  Either gives a (candidate,
    member) failure matrix: a rule space of the catalog's signature whose
    members all fit ``EVAL_CAP`` at the pool's variables from the pool's
    truth rows (``rule_failures``), a list from one scan (``refutations``).
    Any other rule space is translated into a list, and scanned and refused
    where the list would be.  Only the reported violations are scanned
    again, for their counterexamples.  The caps bound the free algebra, as
    in ``free_algebra``.
    """
    if mode not in ("structural", "universal"):
        raise InputError("mode must be 'structural' or 'universal'")
    free = free_algebra(K, k, coord_cap, element_cap)
    report = {"mode": mode, "k": k, "checked": len(candidates), "violations": []}
    space, largest = isinstance(candidates, RuleSpace), max(A.size for A in K.members)
    if space and (candidates.signature != K.kind or largest ** len(candidates.variables) > EVAL_CAP):
        candidates, space = [translate(rule) for rule in candidates], False
    if space:
        fails = rule_failures(K, candidates)
    else:
        # Structural mode refuses the first multi-conclusion candidate,
        # after the candidates before it.
        multi = (s for s, v in enumerate(candidates) if mode == "structural" and len(v.conclusions) != 1)
        scanned = next(multi, len(candidates))
        fails = np.zeros((len(candidates), len(K.members)), dtype=bool)
        for s, i, _ in refutations(K, candidates[:scanned]):
            fails[s, i] = True
        if scanned < len(candidates):
            raise InputError("structural mode admits only single-conclusion candidates")
    # Whether a candidate is admissible depends only on the members it
    # fails on, and only a failing candidate can be a violation.
    # return_index makes np.unique sort stably, which is about twice as fast
    # on these rows as its default sort.
    rows, _, inverse = np.unique(fails, axis=0, return_index=True, return_inverse=True)
    flagged = [row.any() and _in_quasivariety(free, np.flatnonzero(~row).tolist())["holds"] for row in rows]
    for s in np.flatnonzero(np.array(flagged, dtype=bool)[inverse.ravel()]).tolist():
        v, want = translate(candidates[s]) if space else candidates[s], int(fails[s].argmax())
        _, i, t = next(refutations(K, (v,)), (s, None, None))
        if i != want:
            raise InternalCheckError(
                f"candidate {s} first fails on member {i} in a scan, but on member {want} by the truth rows"
            )
        counterexample = assignment(v.variables, t, K.members[i].size)
        report["violations"].append({**sentence_to_json(v), "failing_member": i, "counterexample": counterexample})
    return report


def sigma_free_checks(K: AlgebraCatalog, k: int) -> dict:
    """Free-algebra side of the passage to interior algebras, at bound k.

    Builds F over K and F_sigma over the extended catalog, embeds B(F)
    into F_sigma along v -> box v, and places the opens of F_sigma in the
    quasivariety of K, where opens take the extended catalog's.  Both
    certified; both k-bounded statements.
    """
    if K.kind != "heyting":
        raise InputError("sigma_free_checks expects a Heyting catalog")
    if k > SIGMA_K_CAP:
        raise CapExceeded(
            f"generator bound {k} exceeds the cap {SIGMA_K_CAP} (SIGMA_K_CAP); no flag raises it"
        )
    if any(A.size > SIGMA_SIZE_CAP for A in K.members):
        raise CapExceeded(
            f"members must have at most {SIGMA_SIZE_CAP} elements (SIGMA_SIZE_CAP); no flag raises it"
        )

    free = free_algebra(K, k)
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

    return {
        "k": k,
        "k_bounded": True,
        "embedding": {"map": lift.table(), "injective": lift.injective},
        "free_sigma_opens_in_quasivariety": class_membership(O_alg, K, "quasivariety"),
    }
