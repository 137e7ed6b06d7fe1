"""The two translations, staged eliminations, and the catalog correspondence."""

import itertools
import time

import numpy as np
import pytest

from grzlab.bridge import (
    blok_esakia_catalog_check,
    boolean_extension,
    box_hom_extension,
    box_hom_to_BO,
    class_membership,
    extend_hom,
    finite_blok_check,
    open_algebra,
    rho_catalog,
    sigma_catalog,
)
from grzlab.catalog import AlgebraCatalog, enumerate_heyting, grz_members, interior_catalog
from grzlab.errors import CapExceeded, InputError
from grzlab.finlat import (
    HeytingAlgebra,
    HeytingHom,
    antichain_poset,
    are_isomorphic,
    chain_heyting,
    chain_poset,
    downset_heyting,
    heyting_hom_search,
    heyting_product,
    trivial_heyting,
    validate_heyting,
)
from grzlab.freealg import free_algebra
from grzlab.modal import (
    BooleanSubalgebra,
    Homomorphism,
    complex_algebra,
    generated_subalgebra,
    hom_search,
    make_standard,
)


def three_chain_complex():
    return complex_algebra(chain_poset(3))


def test_open_algebra_of_the_standards():
    O_alg, opens = open_algebra(make_standard("S12"))
    assert opens == (0, 4, 7)
    assert are_isomorphic(O_alg, chain_heyting(3))
    O_alg, opens = open_algebra(make_standard("S2"))
    assert opens == (0, 3)
    assert are_isomorphic(O_alg, chain_heyting(2))


def test_open_algebra_requires_interior():
    bad = make_standard("S2").box.copy()
    bad[3] = 0
    from grzlab.modal import ModalAlgebra

    with pytest.raises(InputError):
        open_algebra(ModalAlgebra(2, bad))


def test_boolean_extension_of_the_three_chain():
    B, emb = boolean_extension(chain_heyting(3))
    assert B.atoms == 2
    assert emb == {0: 0, 1: 1, 2: 3}
    assert B.open_elements() == [0, 1, 3]


def test_extension_then_opens_recovers_the_algebra():
    for H in (
        trivial_heyting(),
        chain_heyting(2),
        chain_heyting(4),
        downset_heyting(antichain_poset(2)),
    ):
        B, emb = boolean_extension(H)
        O_alg, opens = open_algebra(B)
        assert list(opens) == sorted(emb[a] for a in range(H.size))
        assert are_isomorphic(O_alg, H)


def test_boolean_extension_cap():
    with pytest.raises(CapExceeded):
        boolean_extension(chain_heyting(15))


def test_extend_hom_unique_lift():
    H = chain_heyting(3)
    M = three_chain_complex()
    lift = extend_hom(H, M, {0: 0, 1: 1, 2: 7})
    assert lift.kind == "modal" and lift.verify() == []
    assert lift.values == {0: 0, 1: 1, 2: 6, 3: 7}


def test_extend_hom_rejects_bad_maps():
    H = chain_heyting(3)
    M = three_chain_complex()
    with pytest.raises(InputError, match="non-open"):
        extend_hom(H, M, {0: 0, 1: 2, 2: 7})
    with pytest.raises(InputError, match="homomorphism"):
        extend_hom(H, M, {0: 0, 1: 7, 2: 1})


def test_box_hom_extension_golden_step():
    M = three_chain_complex()
    C = BooleanSubalgebra(M, (7,))
    hom, D, trace = box_hom_extension(M, C, 2)
    assert trace.g == 2 and trace.p == 2
    assert trace.p_star == 0 and trace.p_upper == 7
    assert trace.p_c == {0: 0, 7: 0}
    assert trace.p_prime_c == {0: 2, 7: 0}
    assert trace.opens_used == (0, 1, 3, 7)
    assert trace.check(M) == []
    # p equals g here, so the repair map is the identity on its domain
    assert hom.values == {0: 0, 2: 2, 5: 5, 7: 7}
    assert D.blocks == (1, 2, 4)


def test_box_hom_extension_admissibility():
    M = three_chain_complex()
    C = BooleanSubalgebra(M, (7,))
    # adjoining the open 1 enlarges the subalgebra's opens
    with pytest.raises(InputError, match="open"):
        box_hom_extension(M, C, 1)
    with pytest.raises(InputError):
        box_hom_extension(make_standard("S2"), C, 2)


def test_box_hom_to_BO_eliminates_non_opens():
    M = three_chain_complex()
    A = generated_subalgebra(M, [5], "boolean")
    assert A.elements == (0, 2, 5, 7)
    f = box_hom_to_BO(M, A)
    assert f.verify() == []
    assert f.values == {0: 0, 2: 2, 5: 5, 7: 7}

    full = generated_subalgebra(M, [1, 2, 4], "boolean")
    g = box_hom_to_BO(M, full)
    assert g.verify() == []
    assert all(g.values[u] == u for u in M.open_elements())


def test_finite_blok_check_reconstruction():
    M = three_chain_complex()
    iso, chain = finite_blok_check(M)
    assert iso.verify() == [] and iso.injective and iso.surjective
    assert iso.values == {e: e for e in range(M.size)}
    assert chain == [0, 1, 3, 7]

    with pytest.raises(InputError):
        finite_blok_check(make_standard("S2"))


def test_finite_blok_chain_is_open_and_maximal():
    M = complex_algebra(antichain_poset(3))
    _, chain = finite_blok_check(M)
    assert chain[0] == 0 and chain[-1] == M.top
    for prev, cur in zip(chain, chain[1:]):
        step = prev ^ cur
        assert step & (step - 1) == 0  # one atom at a time
        assert M.is_open(cur)


def test_sigma_rho_on_catalogs():
    K = AlgebraCatalog("heyting", (chain_heyting(2), chain_heyting(3)))
    Y = sigma_catalog(K)
    assert Y.kind == "modal" and [m.atoms for m in Y.members] == [1, 2]
    back = rho_catalog(Y)
    for H, H2 in zip(K.members, back.members):
        assert are_isomorphic(H, H2)
    with pytest.raises(InputError):
        sigma_catalog(Y)
    with pytest.raises(InputError):
        rho_catalog(K)


def test_class_membership_universal():
    two = AlgebraCatalog("heyting", (chain_heyting(2),))
    res = class_membership(chain_heyting(2), two, "universal")
    assert res["holds"] and res["certificate"]["member"] == 0

    assert not class_membership(chain_heyting(3), two, "universal")["holds"]
    assert not class_membership(trivial_heyting(), two, "universal")["holds"]


def separates(table, a, b):
    return table[a] != table[b]


def test_class_membership_quasivariety():
    two = AlgebraCatalog("heyting", (chain_heyting(2),))
    diamond = downset_heyting(antichain_poset(2))
    res = class_membership(diamond, two, "quasivariety")
    assert res["holds"]
    maps = [w["map"] for w in res["certificate"]]
    assert all(w["member"] == 0 for w in res["certificate"])
    assert all(not HeytingHom(diamond, chain_heyting(2), tuple(t)).verify() for t in maps)
    pairs = list(itertools.combinations(range(4), 2))
    assert all(any(separates(t, a, b) for t in maps) for a, b in pairs)
    for i, t in enumerate(maps):
        # each listed map separates a pair that no earlier one does
        assert any(
            separates(t, a, b) and not any(separates(u, a, b) for u in maps[:i])
            for a, b in pairs
        )

    res = class_membership(chain_heyting(3), two, "quasivariety")
    assert not res["holds"]
    assert res["certificate"]["unseparated_pair"] == [1, 2]

    # The square of the 3-chain, relabelled so that the unseparated
    # classes include {0, 8} and {1, 2}: the least pair is (0, 8).
    square = heyting_product([chain_heyting(3)] * 2)
    new = np.array([3, 1, 2, 0, 4, 5, 8, 6, 7])
    old = np.argsort(new)
    relabelled = HeytingAlgebra(
        9, *(new[t[np.ix_(old, old)]] for t in (square.meet, square.join, square.imp)),
        int(new[square.bot]), int(new[square.top]),
    )
    assert validate_heyting(relabelled).ok
    res = class_membership(relabelled, two, "quasivariety")
    assert res["certificate"] == {"unseparated_pair": [0, 8]}

    S2 = make_standard("S2")
    M = complex_algebra(antichain_poset(2))
    res = class_membership(M, AlgebraCatalog("modal", (S2,)), "quasivariety")
    assert res["holds"] and res["certificate"]
    for w in res["certificate"]:
        assert not Homomorphism(M, S2, "modal", dict(enumerate(w["map"]))).verify()


def reference_homs(F, K):
    """Every (member, table) from F into K, in member order and then table order."""
    if isinstance(F, HeytingAlgebra):
        return [(i, list(h.table)) for i, A in enumerate(K.members) for h in heyting_hom_search(F, A)]
    return [(i, h.table()) for i, A in enumerate(K.members) for h in hom_search(F, A)]


def per_pair_membership(homs, n):
    """The quasivariety check as one scan of the homomorphisms per pair.

    Returns whether every pair of the n elements is separated, the least
    pair that is not, and for each pair the first homomorphism that
    separates it.
    """
    witnesses = {}
    for a, b in itertools.combinations(range(n), 2):
        hit = next((h for h in homs if h[1][a] != h[1][b]), None)
        if hit is None:
            return False, [a, b], None
        witnesses[a, b] = hit
    return True, None, witnesses


def agrees_with_the_per_pair_loop(F, K):
    res = class_membership(F, K, "quasivariety")
    homs = reference_homs(F, K)
    holds, pair, witnesses = per_pair_membership(homs, F.size)
    assert res["holds"] == holds
    if not holds:
        assert res["certificate"] == {"unseparated_pair": pair}
        return holds
    listed = [(w["member"], w["map"]) for w in res["certificate"]]
    for (a, b), hit in witnesses.items():
        assert next(h for h in listed if h[1][a] != h[1][b]) == hit
    # the listed maps are the distinct witnesses, in homomorphism order
    first = {id(h) for h in witnesses.values()}
    assert listed == [h for h in homs if id(h) in first]
    assert len(listed) <= F.size - 1
    return holds


def test_quasivariety_agrees_with_the_per_pair_loop_on_free_algebras():
    # F is the free algebra of S at k; K runs over S and its one-member
    # parts, the restricted catalogs that admissibility asks about.
    answers = set()
    for S in itertools.chain.from_iterable(
        itertools.combinations(enumerate_heyting(5), r) for r in (1, 2)
    ):
        for k in (0, 1, 2):
            try:
                F = free_algebra(AlgebraCatalog("heyting", S), k).algebra
            except CapExceeded:
                continue
            for T in [S] + ([S[:1], S[1:]] if len(S) == 2 else []):
                answers.add(agrees_with_the_per_pair_loop(F, AlgebraCatalog("heyting", T)))
    assert answers == {True, False}


def test_quasivariety_agrees_with_the_per_pair_loop_on_interior_algebras():
    members = interior_catalog(3).members
    answers = set()
    for M in members:
        for T in itertools.chain(
            ((A,) for A in members), itertools.combinations(members, 2)
        ):
            answers.add(agrees_with_the_per_pair_loop(M, AlgebraCatalog("modal", T)))
    assert answers == {True, False}


def test_class_membership_input_checks():
    two = AlgebraCatalog("heyting", (chain_heyting(2),))
    for mode in ("prevariety", "variety"):
        with pytest.raises(InputError):
            class_membership(chain_heyting(2), two, mode)
    with pytest.raises(InputError):
        class_membership(make_standard("S2"), two, "universal")


def test_blok_esakia_catalog_check_positive():
    K = AlgebraCatalog("heyting", (chain_heyting(3),))
    M = complex_algebra(chain_poset(2))
    res = blok_esakia_catalog_check(K, M)
    assert res["holds"]
    tests = res["tests"]
    assert tests["in_extended_universal"]["holds"]
    assert tests["opens_in_universal"]["holds"]
    assert tests["embeds_into_extension"]["holds"]
    emb = tests["embeds_into_extension"]["certificate"]
    assert emb["member"] == 0 and len(emb["map"]) == M.size


def test_blok_esakia_catalog_check_negative():
    K = AlgebraCatalog("heyting", (chain_heyting(3),))
    M = complex_algebra(antichain_poset(2))
    res = blok_esakia_catalog_check(K, M)
    assert not res["holds"]
    assert all(not t["holds"] for t in res["tests"].values())


def test_blok_esakia_catalog_check_input_errors():
    K = AlgebraCatalog("heyting", (chain_heyting(3),))
    with pytest.raises(InputError):
        blok_esakia_catalog_check(K, make_standard("S2"))
    Y = sigma_catalog(K)
    with pytest.raises(InputError):
        blok_esakia_catalog_check(Y, complex_algebra(chain_poset(2)))


def pentagon():
    """The pentagon 0 < 1 < 2 < 4, 0 < 3 < 4 with imp constant top, built
    without the CLI's check: no element lies above exactly 1 and 3."""
    return HeytingAlgebra(
        5,
        [[0, 0, 0, 0, 0], [0, 1, 1, 0, 1], [0, 1, 2, 0, 2], [0, 0, 0, 3, 3], [0, 1, 2, 3, 4]],
        [[0, 1, 2, 3, 4], [1, 1, 2, 4, 4], [2, 2, 2, 4, 4], [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]],
        [[4] * 5 for _ in range(5)],
        0,
        4,
    )


def test_boolean_extension_refuses_a_lattice_that_is_not_distributive():
    # Its three join-irreducibles 1 < 2 and 3 have six downsets, the opens
    # of B, but the pentagon has five elements.
    N5 = pentagon()
    message = r"not a Heyting algebra: no element has exactly the join-irreducibles \[1, 3\] below it"
    for _ in range(2):  # a refusal is not kept: the second call checks again
        with pytest.raises(InputError, match=message):
            boolean_extension(N5)


def test_boolean_extension_accepts_every_heyting_algebra_of_five_elements():
    for H in enumerate_heyting(5):
        B, emb = boolean_extension(H)
        assert sorted(emb.values()) == sorted(B.open_elements())


def test_hom_search_into_a_lattice_that_is_not_distributive():
    N5 = pentagon()
    message = r"not a Heyting algebra: no element has exactly the join-irreducibles \[1, 3\] below it"
    for source in chain_heyting(3), N5:
        with pytest.raises(InputError, match=message):
            heyting_hom_search(source, N5)
    with pytest.raises(InputError, match=message):
        blok_esakia_catalog_check(AlgebraCatalog("heyting", (N5,)), complex_algebra(chain_poset(2)))


def test_criterion_8_grid_within_budget():
    # Members rebuilt from their records keep no pairs yet, so the whole
    # grid runs cold even after other tests; about 0.1 s was measured.
    def fresh(alg):
        return type(alg).from_record(alg.to_record())

    grz = [fresh(M) for M in grz_members(interior_catalog(3))]
    pool = [fresh(H) for H in enumerate_heyting(5)]
    start = time.perf_counter()
    holds = [
        blok_esakia_catalog_check(AlgebraCatalog("heyting", tuple(pool[i] for i in subset)), M)["holds"]
        for M in grz
        for r in range(1, len(pool) + 1)
        for subset in itertools.combinations(range(len(pool)), r)
    ]
    assert time.perf_counter() - start < 1.0
    assert (len(holds), sum(holds)) == (2295, 1206)
