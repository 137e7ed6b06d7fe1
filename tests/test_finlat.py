"""Posets, Heyting tables, homomorphisms, quotients, products."""

import itertools
import random
import time

import networkx as nx
import numpy as np
import pytest

from grzlab.catalog import AlgebraCatalog, enumerate_heyting
from grzlab.errors import CapExceeded, InputError
from grzlab.finlat import (
    MODES,
    FinitePoset,
    HeytingAlgebra,
    HeytingHom,
    antichain_poset,
    are_isomorphic,
    canonical_key,
    chain_heyting,
    chain_poset,
    downset_heyting,
    downset_masks,
    heyting_hom_search,
    heyting_product,
    heyting_quotient,
    join_irreducible_poset,
    join_irreducibles,
    linear_extension,
    poset_from_key,
    trivial_heyting,
    validate_heyting,
)
from grzlab.freealg import free_algebra


def diamond():
    return downset_heyting(antichain_poset(2))


def test_poset_validate_catches_each_axiom():
    ok = chain_poset(3)
    assert ok.validate() == []

    broken = np.array([[0, 1], [0, 1]], dtype=bool)
    assert ("reflexivity", (0,)) in FinitePoset(2, broken).validate()

    sym = np.ones((2, 2), dtype=bool)
    assert any(k == "antisymmetry" for k, _ in FinitePoset(2, sym).validate())

    # 0 <= 1 <= 2 without 0 <= 2
    intrans = np.eye(3, dtype=bool)
    intrans[0, 1] = intrans[1, 2] = True
    assert any(k == "transitivity" for k, _ in FinitePoset(3, intrans).validate())


def test_linear_extension_respects_order():
    p = antichain_poset(3)
    assert linear_extension(p) == [0, 1, 2]
    order = linear_extension(chain_poset(4))
    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            assert not (chain_poset(4).leq[b, a] and a != b)


def test_downset_masks_of_small_posets():
    assert downset_masks(chain_poset(3)) == [0, 1, 3, 7]
    assert downset_masks(antichain_poset(2)) == [0, 1, 2, 3]
    # the 4-point diamond poset: bottom 0, middle 1 2, top 3
    leq = np.eye(4, dtype=bool)
    leq[0, :] = True
    leq[1, 3] = leq[2, 3] = True
    assert downset_masks(FinitePoset(4, leq)) == [0, 1, 3, 5, 7, 15]


def test_downset_masks_cap():
    with pytest.raises(CapExceeded):
        downset_masks(antichain_poset(5), cap=10)


def test_chain_heyting_tables():
    alg = chain_heyting(3)
    assert validate_heyting(alg).ok
    assert alg.bot == 0 and alg.top == 2
    assert alg.imp.tolist() == [[2, 2, 2], [0, 2, 2], [0, 1, 2]]
    assert alg.neg(0) == 2 and alg.neg(1) == 0 and alg.neg(2) == 0


def test_downset_heyting_is_heyting():
    for poset in (chain_poset(4), antichain_poset(3), chain_poset(1)):
        assert validate_heyting(downset_heyting(poset)).ok


def test_validate_heyting_flags_broken_tables():
    alg = chain_heyting(3)
    imp = alg.imp.copy()
    imp[1, 0] = 2
    bad = HeytingAlgebra(3, alg.meet, alg.join, imp, 0, 2)
    rep = validate_heyting(bad)
    assert not rep.ok
    assert any(k == "residuation" for k, _ in rep.violations)

    meet = alg.meet.copy()
    meet[1, 1] = 0
    rep = validate_heyting(HeytingAlgebra(3, meet, alg.join, alg.imp, 0, 2))
    assert any(k == "meet-idempotent" for k, _ in rep.violations)

    rep = validate_heyting(HeytingAlgebra(3, alg.meet, alg.join, alg.imp, 0, 1))
    assert any(k == "top-greatest" for k, _ in rep.violations)


def test_validate_heyting_short_circuits_on_garbage():
    alg = chain_heyting(2)
    imp = np.array([[9, 9], [9, 9]], dtype=np.int32)
    rep = validate_heyting(HeytingAlgebra(2, alg.meet, alg.join, imp, 0, 1))
    assert not rep.ok
    assert rep.malformed and not rep.violations


def test_join_irreducibles():
    assert join_irreducibles(chain_heyting(4)) == [1, 2, 3]
    assert join_irreducibles(diamond()) == [1, 2]
    assert join_irreducibles(trivial_heyting()) == []


def test_join_irreducible_poset_recovers_the_base():
    for poset in (chain_poset(3), antichain_poset(3)):
        back = join_irreducible_poset(downset_heyting(poset))
        assert back.size == poset.size
        assert canonical_key(back) == canonical_key(poset)


def test_canonical_key_relabeling_invariance():
    leq = np.eye(4, dtype=bool)
    leq[0, :] = True
    leq[1, 3] = leq[2, 3] = True
    p = FinitePoset(4, leq)
    key = canonical_key(p)
    perm = [2, 0, 3, 1]
    relabeled = FinitePoset(4, leq[np.ix_(perm, perm)])
    assert canonical_key(relabeled) == key
    assert canonical_key(poset_from_key(4, key)) == key


def test_canonical_key_refuses_a_relation_that_is_not_a_partial_order():
    # Not reflexive: point 0 is not below itself, so this is no poset and
    # in particular not isomorphic to the 2-chain.
    with pytest.raises(InputError, match="partial order"):
        FinitePoset(2, [[1, 1], [0, 1]]).is_isomorphic(FinitePoset(2, [[0, 1], [0, 1]]))
    # Not antisymmetric: 0 <= 1 <= 0.
    with pytest.raises(InputError, match="partial order"):
        canonical_key(FinitePoset(2, np.ones((2, 2), bool)))
    # Not transitive: 0 <= 1 <= 2 but not 0 <= 2.
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 2] = True
    with pytest.raises(InputError, match="partial order"):
        canonical_key(FinitePoset(3, leq))
    leq[0, 2] = True
    assert canonical_key(FinitePoset(3, leq)) == canonical_key(chain_poset(3))


def test_hom_search_between_chains():
    c3, c2 = chain_heyting(3), chain_heyting(2)
    homs = heyting_hom_search(c3, c2)
    assert [h.table for h in homs] == [(0, 1, 1)]
    assert homs[0].verify() == []
    assert homs[0].surjective and not homs[0].injective

    up = heyting_hom_search(c2, c3)
    assert [h.table for h in up] == [(0, 2)]
    assert up[0].injective

    # collapsing 1 to 0 breaks 1 -> 0 = 0, so it is not a hom
    assert HeytingHom(c3, c2, (0, 0, 1)).verify() != []


def test_hom_search_trivial_source():
    assert heyting_hom_search(trivial_heyting(), chain_heyting(2)) == []
    only = heyting_hom_search(chain_heyting(2), trivial_heyting())
    assert [h.table for h in only] == [(0, 0)]
    assert heyting_hom_search(trivial_heyting(), trivial_heyting())[0].table == (0,)


def test_hom_search_modes_and_constraints():
    d = diamond()
    auts = heyting_hom_search(d, d, mode="iso")
    assert [h.table for h in auts] == [(0, 1, 2, 3), (0, 2, 1, 3)]
    pinned = heyting_hom_search(d, d, constraints={1: 2}, mode="iso")
    assert [h.table for h in pinned] == [(0, 2, 1, 3)]
    assert heyting_hom_search(d, d, constraints={1: 3}, mode="iso") == []
    with pytest.raises(InputError):
        heyting_hom_search(d, d, constraints={9: 0})
    with pytest.raises(InputError):
        heyting_hom_search(d, d, mode="bogus")


def brute_heyting_homs(source, target):
    """Every value table that HeytingHom.verify passes, in table order."""
    out = []
    for table in itertools.product(range(target.size), repeat=source.size):
        # Only tables that keep bot and top go to verify, which judges the rest.
        if table[source.bot] != target.bot or table[source.top] != target.top:
            continue
        if not HeytingHom(source, target, table).verify():
            out.append(table)
    return out


def test_hom_search_generates_every_map_in_table_order():
    rng = random.Random(20261020)
    algs = enumerate_heyting(5)
    for A, B in itertools.product(algs, repeat=2):
        homs = brute_heyting_homs(A, B)
        for mode in MODES:
            got = [h.table for h in heyting_hom_search(A, B, mode=mode)]
            injective = mode in ("injective", "iso")
            surjective = mode in ("surjective", "iso")
            assert got == [
                t
                for t in homs
                if (len(set(t)) == A.size or not injective)
                and (len(set(t)) == B.size or not surjective)
            ]
        # Pinned to a value some map takes, where there is one.
        a = rng.randrange(A.size)
        b = rng.choice(homs)[a] if homs else rng.randrange(B.size)
        got = [h.table for h in heyting_hom_search(A, B, constraints={a: b})]
        assert got == [t for t in homs if t[a] == b]


@pytest.mark.parametrize("sizes", [(1100, 2), (2, 1100)])
def test_hom_search_between_a_deep_chain_and_a_short_one_within_budget(sizes):
    # The search keeps its own stack, so a 1,099-point dual poset on either
    # side is not bounded by Python's recursion limit.
    A, B = (chain_heyting(n) for n in sizes)
    start = time.perf_counter()
    homs = heyting_hom_search(A, B)
    assert time.perf_counter() - start < 3.0
    assert len(homs) == 1 and homs[0].verify() == []


def test_hom_search_out_of_a_342_element_free_algebra_within_budget():
    F = free_algebra(AlgebraCatalog("heyting", (chain_heyting(4),), "4-chain"), 2).algebra
    assert F.size == 342
    C5 = chain_heyting(5)
    start = time.perf_counter()
    homs = heyting_hom_search(F, C5)
    assert time.perf_counter() - start < 0.5
    assert len(homs) == 25


def test_quotient_of_chain():
    quot, proj = heyting_quotient(chain_heyting(3), 1)
    assert quot.size == 2
    assert proj.table == (0, 1, 1)
    assert proj.verify() == []
    assert are_isomorphic(quot, chain_heyting(2))


def test_quotient_by_top_and_bot():
    alg = diamond()
    quot, proj = heyting_quotient(alg, alg.top)
    assert quot.size == alg.size and proj.table == (0, 1, 2, 3)
    quot, proj = heyting_quotient(alg, alg.bot)
    assert quot.size == 1 and proj.table == (0, 0, 0, 0)
    with pytest.raises(InputError):
        heyting_quotient(alg, 7)


def test_quotient_maps_are_heyting():
    alg = downset_heyting(chain_poset(4))
    for u in range(alg.size):
        quot, proj = heyting_quotient(alg, u)
        assert validate_heyting(quot).ok
        assert proj.verify() == []
        assert proj.surjective


def test_product_of_two_chains_is_the_diamond():
    prod = heyting_product([chain_heyting(2), chain_heyting(2)])
    assert prod.size == 4
    assert validate_heyting(prod).ok
    assert are_isomorphic(prod, diamond())
    assert not are_isomorphic(prod, chain_heyting(4))


def test_product_corner_cases():
    assert heyting_product([]).size == 1
    one = heyting_product([chain_heyting(3)])
    assert are_isomorphic(one, chain_heyting(3))
    with pytest.raises(CapExceeded):
        heyting_product([chain_heyting(10)] * 4)  # 10,000 > ELEMENT_CAP elements


def test_record_roundtrip():
    for alg in (chain_heyting(3), diamond(), trivial_heyting()):
        rec = alg.to_record()
        back = HeytingAlgebra.from_record(rec)
        assert back.to_record() == rec

    p = chain_poset(3)
    assert FinitePoset.from_record(p.to_record()).leq.tolist() == p.leq.tolist()


def test_record_rejects_malformed_input():
    rec = chain_heyting(2).to_record()
    with pytest.raises(InputError):
        HeytingAlgebra.from_record({**rec, "kind": "poset"})
    with pytest.raises(InputError):
        HeytingAlgebra.from_record({**rec, "meet": [[0, 0]]})
    with pytest.raises(InputError):
        HeytingAlgebra.from_record({**rec, "bot": 5})
    with pytest.raises(InputError):
        HeytingAlgebra.from_record({**rec, "size": 0})


def random_poset(rng, n):
    """A seeded random poset: random upper-triangular relation, closed."""
    leq = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            leq[i, j] = rng.random() < 0.25
    for k in range(n):
        leq |= leq[:, [k]] & leq[[k], :]
    return FinitePoset(n, leq)


def crowns(*sizes):
    """Disjoint k-crowns: minimal a_i below maximal b_i and b_(i+1 mod k).

    Every point of a crown has degree 2, so crowns of equal total size share
    their degree sequences and the search has to backtrack to tell them apart.
    """
    n = 2 * sum(sizes)
    leq = np.eye(n, dtype=bool)
    base = 0
    for k in sizes:
        for i in range(k):
            leq[base + i, base + k + i] = leq[base + i, base + k + (i + 1) % k] = True
        base += 2 * k
    return FinitePoset(n, leq)


def relabeled(rng, poset):
    perm = list(range(poset.size))
    rng.shuffle(perm)
    return FinitePoset(poset.size, poset.leq[np.ix_(perm, perm)])


def test_poset_isomorphism_matches_networkx():
    # is_isomorphic backtracks over relation isomorphisms at every size;
    # networkx serves only as the oracle.
    rng = random.Random(20261022)
    pairs = []
    for _ in range(300):
        n = rng.randint(1, 9)
        a, b = (random_poset(rng, n) for _ in range(2))
        pairs.append((a, relabeled(rng, a) if rng.random() < 0.4 else b))
    # 12 and 16 points: one crown against two with the same degrees.
    for one, two in ((crowns(6), crowns(3, 3)), (crowns(8), crowns(4, 4))):
        pairs += [(one, two), (two, one), (one, relabeled(rng, one)), (two, relabeled(rng, two))]
    outcomes = set()
    for a, b in pairs:
        want = nx.is_isomorphic(nx.DiGraph(a.leq), nx.DiGraph(b.leq))
        assert a.is_isomorphic(b) == want
        outcomes.add((a.size, want))
    assert outcomes >= {(1, True)} | {(n, w) for n in range(2, 10) for w in (True, False)}


def test_are_isomorphic_on_the_2000_chain_within_budget():
    # The search keeps its own stack, so its depth is not bounded by Python's
    # recursion limit.
    a, b = chain_heyting(2000), chain_heyting(2000)
    start = time.perf_counter()
    assert are_isomorphic(a, b)
    assert time.perf_counter() - start < 3.0


def test_canonical_key_refuses_past_the_point_cap():
    with pytest.raises(CapExceeded, match="8 points; POSET_POINT_CAP is 7 and no flag raises it"):
        canonical_key(chain_poset(8))
