"""Built and first-match paths against the searches they replaced.

finite_blok_check builds M ≅ BO(M) instead of searching for it,
blok_characterization decides Grz over the 1-generated subalgebras instead
of every subalgebra, hom_search generates its maps in table order instead
of sorting them, and universal membership stops at the first embedding.
Each is compared here with a brute-force reference.
"""

import itertools
import random

import numpy as np
import pytest

from grzlab.bridge import (
    blok_esakia_catalog_check,
    boolean_extension,
    extend_hom,
    finite_blok_check,
    open_algebra,
    sigma_catalog,
)
from grzlab.catalog import (
    AlgebraCatalog,
    enumerate_heyting,
    enumerate_posets,
    grz_members,
    interior_catalog,
)
from grzlab.finlat import FinitePoset, chain_poset, heyting_hom_search
from grzlab import modal
from grzlab.modal import (
    MODES,
    BooleanSubalgebra,
    Homomorphism,
    ModalAlgebra,
    _on_blocks,
    all_modal_subalgebras,
    are_isomorphic,
    blok_characterization,
    complex_algebra,
    generated_subalgebra,
    hom_search,
    make_standard,
    modal_product,
    open_filters,
    quotient,
    subalgebra_as_algebra,
    validate_modal,
)

SEED = 20240917
S2 = make_standard("S2")
S12 = make_standard("S12")


def random_poset(rng, n):
    leq = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            leq[i, j] = rng.random() < 0.3
    for k in range(n):
        leq |= leq[:, [k]] & leq[[k], :]
    return FinitePoset(n, leq)


# ---------------------------------------------------------------------------
# The reconstruction M ≅ BO(M)


@pytest.mark.parametrize("name", ["chain", "random"])
def test_eight_atoms_pass_without_refusal(name):
    poset = chain_poset(8) if name == "chain" else random_poset(random.Random(SEED), 8)
    M = complex_algebra(poset)
    iso, chain = finite_blok_check(M)
    assert not iso.verify() and iso.injective and iso.surjective
    assert iso.target.atoms == 8 and len(chain) == 9
    assert blok_characterization(M).is_grz


def reconstruction_inputs():
    algs = list(grz_members(interior_catalog(4)))
    for n in range(6):
        algs += [complex_algebra(P) for P in enumerate_posets(n)]
    return algs


def test_built_iso_is_one_the_search_finds():
    for M in reconstruction_inputs():
        iso, _ = finite_blok_check(M)
        B, _ = boolean_extension(open_algebra(M)[0])
        assert iso.target is B
        assert not iso.verify() and iso.injective and iso.surjective
        found = [h.table() for h in hom_search(M, B, mode="iso")]
        assert iso.table() in found


# ---------------------------------------------------------------------------
# The Grz decision


def partition_scan_is_grz(M):
    """Every box-closed subalgebra, every open-filter quotient."""
    for sub in all_modal_subalgebras(M):
        N, _, _ = subalgebra_as_algebra(sub)
        for filt in open_filters(N):
            q, _ = quotient(N, filt)
            if (q.atoms == 2 and are_isomorphic(q, S2)) or (
                q.atoms == 3 and are_isomorphic(q, S12)
            ):
                return False
    return True


def test_one_generated_search_matches_the_partition_scan():
    for M in interior_catalog(4).members:
        for X in (M, modal_product([M, S2])):
            got = blok_characterization(X)
            assert got.is_grz == partition_scan_is_grz(X) == validate_modal(X).grz
            assert got.is_grz == (got.witness is None)


def searched_standard_in_one_generated(M):
    """Every ⟨a⟩, every open union of 2 or 3 of its blocks, by isomorphism search."""
    seen = set()
    for a in range(M.size):
        sub = generated_subalgebra(M, [a], "modal")
        if sub.blocks in seen:
            continue
        seen.add(sub.blocks)
        for std in (S2, S12):
            for part in itertools.combinations(sub.blocks, std.atoms):
                if M.is_open(sum(part)) and are_isomorphic(_on_blocks(M, part), std):
                    return True
    return False


def random_preorder_algebra(rng, n):
    """box(S) = the points whose successors all lie in S, for a seeded preorder."""
    rel = np.eye(n, dtype=bool) | (np.array([[rng.random() for _ in range(n)] for _ in range(n)]) < 0.25)
    for k in range(n):
        rel |= rel[:, [k]] & rel[[k], :]
    masks = np.arange(1 << n, dtype=np.int64)
    box = np.zeros(1 << n, dtype=np.int64)
    for x in range(n):
        succ = sum(1 << int(y) for y in np.flatnonzero(rel[x]))
        box[(masks & succ) == succ] |= 1 << x
    return ModalAlgebra(n, box)


def test_block_tables_match_the_isomorphism_search():
    # Poset algebras are Grz; the preorders' clusters and the products give
    # S2 and S12 quotients whose blocks come in every order.
    algebras = []
    for M in interior_catalog(4).members:
        algebras += [M, modal_product([M, S2]), modal_product([M, S12])]
    rng = random.Random(SEED)
    algebras += [complex_algebra(random_poset(rng, n)) for n in range(5, 10) for _ in range(3)]
    algebras += [random_preorder_algebra(rng, n) for n in range(3, 8) for _ in range(6)]
    found = [searched_standard_in_one_generated(M) for M in algebras]
    assert [modal._standard_in_one_generated(M) for M in algebras] == found
    assert any(found) and not all(found)


# ---------------------------------------------------------------------------
# Generated subalgebras


def whole_list_generated_subalgebra(M, seeds, kind):
    """Atoms share a block when every generator has the same bit at both;
    for kind="modal" the boxes of all elements join the generators until
    none is new."""
    gens = sorted(set(seeds))
    while True:
        masks = {}
        for i in range(M.atoms):
            sig = tuple((g >> i) & 1 for g in gens)
            masks[sig] = masks.get(sig, 0) | 1 << i
        sub = BooleanSubalgebra(M, tuple(masks.values()))
        if kind == "boolean":
            return sub
        boxes = {int(M.box[e]) for e in sub.elements}
        if all(sub.contains(b) for b in boxes):
            return sub
        gens = sorted(set(gens) | boxes)


def test_coatom_refinement_matches_the_whole_list_closure():
    algebras = []
    for M in interior_catalog(4).members:
        algebras += [M, modal_product([M, S2]), modal_product([M, S12])]
    rng = random.Random(SEED)
    algebras += [complex_algebra(random_poset(rng, n)) for n in range(5, 13)]
    algebras += [random_preorder_algebra(rng, n) for n in range(3, 9) for _ in range(3)]
    for M in algebras:
        seeds = [[a] for a in range(M.size)]
        seeds += [[rng.randrange(M.size), rng.randrange(M.size)] for _ in range(20)]
        # Up to 4 atoms, also the member of fewest blocks that holds the seeds.
        least = sorted(all_modal_subalgebras(M), key=lambda sub: len(sub.blocks)) if M.atoms <= 4 else None
        for gens in seeds:
            for kind in ("boolean", "modal"):
                want = whole_list_generated_subalgebra(M, gens, kind)
                assert generated_subalgebra(M, gens, kind).blocks == want.blocks
            assert want.box_closed
            if least:
                assert want.blocks == next(s for s in least if all(s.contains(g) for g in gens)).blocks


# ---------------------------------------------------------------------------
# hom_search's order


def brute_hom_search(source, target, mode, constraints=None):
    """Every atom map checked by Homomorphism.verify, sorted by table."""
    out = []
    for h in itertools.product(range(source.atoms), repeat=target.atoms):
        if mode in ("injective", "iso") and len(set(h)) != source.atoms:
            continue
        if mode in ("surjective", "iso") and len(set(h)) != len(h):
            continue
        values = {
            e: sum(1 << y for y, i in enumerate(h) if (e >> i) & 1)
            for e in range(source.size)
        }
        if any(values[s] != v for s, v in (constraints or {}).items()):
            continue
        if not Homomorphism(source, target, "modal", values).verify():
            out.append([values[e] for e in range(source.size)])
    return sorted(out)


def test_hom_search_generates_every_map_in_table_order():
    rng = random.Random(SEED)
    algs = list(interior_catalog(3).members) + [S2, S12]
    for _ in range(60):
        A, B = rng.choice(algs), rng.choice(algs)
        for mode in MODES:
            got = [h.table() for h in hom_search(A, B, mode=mode)]
            assert got == brute_hom_search(A, B, mode)
        # Pinned to a value some map takes, where there is one.
        homs = brute_hom_search(A, B, "any")
        a = rng.randrange(A.size)
        pin = {a: rng.choice(homs)[a] if homs else rng.randrange(B.size)}
        got = [h.table() for h in hom_search(A, B, constraints=pin)]
        assert got == brute_hom_search(A, B, "any", pin)


# ---------------------------------------------------------------------------
# Membership certificates


def all_then_first(K, M):
    """The three routes' certificates from complete searches, least table first."""
    t1 = t2 = t3 = None
    for i, B in enumerate(sigma_catalog(K).members):
        homs = hom_search(M, B, mode="injective")
        if homs:
            t1 = {"member": i, "map": min(h.table() for h in homs)}
            break
    O_alg, _ = open_algebra(M)
    for i, H in enumerate(K.members):
        homs = heyting_hom_search(O_alg, H, mode="injective")
        if homs:
            t2 = {"member": i, "map": min(list(h.table) for h in homs)}
            break
    if t2 is not None:
        BH, embH = boolean_extension(K.members[t2["member"]])
        lift = extend_hom(O_alg, BH, {a: embH[v] for a, v in enumerate(t2["map"])})
        B, _ = boolean_extension(O_alg)
        iso = min(hom_search(M, B, mode="iso"), key=Homomorphism.table)
        t3 = {"member": t2["member"], "map": [lift(iso(a)) for a in range(M.size)]}
    return t1, t2, t3


def fresh(alg):
    return type(alg).from_record(alg.to_record())


def membership_certificates(K, M):
    tests = blok_esakia_catalog_check(K, M)["tests"]
    return tuple(
        tests[key]["certificate"]
        for key in ("in_extended_universal", "opens_in_universal", "embeds_into_extension")
    )


def test_membership_certificates_match_all_then_first():
    # Members rebuilt from their records start with no kept pairs: the
    # cells run cold, then warm in reverse order, then warm again.
    rng = random.Random(SEED)
    grz = [fresh(M) for M in grz_members(interior_catalog(3))]
    pool = [fresh(H) for H in enumerate_heyting(5)]
    subsets = [
        s for r in range(1, len(pool) + 1) for s in itertools.combinations(range(len(pool)), r)
    ]
    cells = [
        (AlgebraCatalog("heyting", tuple(pool[i] for i in subset), "subset"), grz[m])
        for m, subset in rng.sample(list(itertools.product(range(len(grz)), subsets)), 60)
    ]
    want = [all_then_first(K, M) for K, M in cells]
    order = list(range(len(cells)))
    for c in order + order[::-1] + order:
        assert membership_certificates(*cells[c]) == want[c]
    # Mutating the returned maps leaves the kept answers alone.
    c = next(c for c in order if want[c][2] is not None)
    for cert in membership_certificates(*cells[c]):
        cert["map"][0] = -1
    assert membership_certificates(*cells[c]) == want[c]
