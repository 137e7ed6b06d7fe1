"""The two translations, staged eliminations, and the catalog correspondence."""

import itertools
import time

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
    antichain_poset,
    are_isomorphic,
    chain_heyting,
    chain_poset,
    downset_heyting,
    trivial_heyting,
)
from grzlab.modal import (
    BooleanSubalgebra,
    complex_algebra,
    generated_subalgebra,
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


def test_class_membership_quasivariety():
    two = AlgebraCatalog("heyting", (chain_heyting(2),))
    diamond = downset_heyting(antichain_poset(2))
    res = class_membership(diamond, two, "quasivariety")
    assert res["holds"]
    pairs = {tuple(w["pair"]) for w in res["certificate"]}
    assert pairs == {(a, b) for a in range(4) for b in range(a + 1, 4)}

    res = class_membership(chain_heyting(3), two, "quasivariety")
    assert not res["holds"]
    assert res["certificate"]["unseparated_pair"] == [1, 2]


def test_class_membership_variety_warns():
    two = AlgebraCatalog("heyting", (chain_heyting(2),))
    with pytest.warns(RuntimeWarning):
        res = class_membership(chain_heyting(2), two, "variety")
    assert res["holds"]
    assert len(res["certificate"]["map"]) == 16  # free algebra on 2 generators


def test_class_membership_input_checks():
    two = AlgebraCatalog("heyting", (chain_heyting(2),))
    with pytest.raises(InputError):
        class_membership(chain_heyting(2), two, "prevariety")
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
