"""Derived values cached on an algebra agree with a cold rebuild and stay put.

Every memoised function is called twice on one instance and once on a copy
rebuilt from its record; the warm answer must equal the cold one.  Mutating
a returned list, dict or homomorphism table must not reach the cache, the
defining fields cannot be rebound, and a refusal is raised again rather
than remembered.  Membership searches are kept per pair of instances, so
two equal copies of a target get one entry each.
"""

import copy
import random

import numpy as np
import pytest

from grzlab import bridge
from grzlab.bridge import (
    blok_esakia_catalog_check,
    boolean_extension,
    finite_blok_check,
    open_algebra,
)
from grzlab.catalog import AlgebraCatalog, enumerate_heyting, interior_catalog
from grzlab.errors import CapExceeded
from grzlab.finlat import (
    FinitePoset,
    canonical_key,
    chain_heyting,
    chain_poset,
    derived,
    heyting_hom_search,
    join_irreducible_poset,
    join_irreducibles,
)
from grzlab.modal import ATOM_CAP, complex_algebra, validate_modal

SEED = 20240611


def random_poset(rng, n):
    leq = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            leq[i, j] = rng.random() < 0.3
    for k in range(n):
        leq |= leq[:, [k]] & leq[[k], :]
    return FinitePoset(n, leq)


def fresh(alg):
    return type(alg).from_record(alg.to_record())


def seeded_posets():
    rng = random.Random(SEED)
    return [random_poset(rng, n) for n in (5, 5, 6, 6)]


MODAL = list(interior_catalog(3).members) + [complex_algebra(P) for P in seeded_posets()]
HEYTING = enumerate_heyting(6)
CHAIN3 = chain_heyting(3)


def heyting_views(H):
    """Every memoised Heyting-side value, in a comparable form."""
    B, emb = boolean_extension(H)
    irr_poset = join_irreducible_poset(H)
    return {
        "leq": H.leq.tolist(),
        "irr": join_irreducibles(H),
        "irr_poset": irr_poset.to_record(),
        "key": canonical_key(irr_poset),
        "B": (B.to_record(), emb),
        "homs": [h.table for h in heyting_hom_search(H, CHAIN3)],
    }


def modal_views(M):
    """Every memoised modal-side value, in a comparable form."""
    out = {"report": validate_modal(M), "opens": M.open_elements()}
    if out["report"].interior:
        O_alg, opens = open_algebra(M)
        out["O"] = (O_alg.to_record(), opens)
        out["O_views"] = heyting_views(O_alg)
    if out["report"].grz:
        iso, chain = finite_blok_check(M)
        out["blok"] = (iso.table(), iso.target.to_record(), chain)
    return out


@pytest.mark.parametrize("i", range(len(HEYTING)))
def test_heyting_warm_equals_cold(i):
    H = HEYTING[i]
    heyting_views(H)
    assert heyting_views(H) == heyting_views(fresh(H))


@pytest.mark.parametrize("i", range(len(MODAL)))
def test_modal_warm_equals_cold(i):
    M = MODAL[i]
    modal_views(M)
    assert modal_views(M) == modal_views(fresh(M))


def test_poset_key_warm_equals_cold():
    for P in seeded_posets():
        assert canonical_key(P) == canonical_key(P) == canonical_key(fresh(P))


def test_mutating_results_leaves_the_cache_alone():
    # Each expected value is a deep copy, so it cannot alias what is mutated.
    for H in HEYTING:
        irr = copy.deepcopy(join_irreducibles(H))
        join_irreducibles(H).append(-1)
        assert join_irreducibles(H) == irr
        emb = copy.deepcopy(boolean_extension(H)[1])
        boolean_extension(H)[1][H.top] = -1
        assert boolean_extension(H)[1] == emb
        with pytest.raises(ValueError):
            H.leq[0, 0] = not H.leq[0, 0]
    for M in MODAL:
        opens = copy.deepcopy(M.open_elements())
        M.open_elements().append(-1)
        assert M.open_elements() == opens
        rep = copy.deepcopy(validate_modal(M))
        spoiled = validate_modal(M)
        spoiled.violations.append(("planted", ()))
        spoiled.malformed.append("planted")
        assert validate_modal(M) == rep
        if rep.grz:
            iso, chain = finite_blok_check(M)
            table = iso.table()
            spoiled_iso, spoiled_chain = finite_blok_check(M)
            spoiled_iso.values[M.top] = -1
            spoiled_chain.append(-1)
            iso2, chain2 = finite_blok_check(M)
            assert iso2.table() == table and chain2 == chain
            assert not iso2.verify()


def test_tables_cannot_be_rebound():
    M = MODAL[-1]
    with pytest.raises(AttributeError):
        M.box = np.zeros_like(M.box)
    with pytest.raises(AttributeError):
        M.atoms = 0
    H = HEYTING[-1]
    with pytest.raises(AttributeError):
        H.meet = H.join
    with pytest.raises(AttributeError):
        H.top = H.bot
    P = seeded_posets()[0]
    with pytest.raises(AttributeError):
        P.leq = np.eye(P.size, dtype=bool)
    with pytest.raises(ValueError):
        M.box[0] = 1


def test_refusal_is_not_cached():
    H = chain_heyting(ATOM_CAP + 2)  # ATOM_CAP + 1 join-irreducibles
    for _ in range(2):
        with pytest.raises(CapExceeded):
            boolean_extension(H)
    # O(M) is the 3-chain and embeds into H, but B(H) is refused: the pair
    # (M, H) keeps no entry.
    M = complex_algebra(chain_poset(2))
    for _ in range(2):
        with pytest.raises(CapExceeded):
            bridge._per_target(M, bridge._embedding_into_extension, H)
    assert id(H) not in derived(M, bridge._target_store, bridge._embedding_into_extension)


def test_membership_pairs_are_kept_per_target():
    # Two equal copies of one member are two targets: each has its own
    # entry, which holds that copy, and the answers agree.
    M = fresh(complex_algebra(chain_poset(2)))
    H1, H2 = fresh(CHAIN3), fresh(CHAIN3)
    assert H1 is not H2 and H1.to_record() == H2.to_record()
    got = [blok_esakia_catalog_check(AlgebraCatalog("heyting", (H,)), M) for H in (H1, H2)]
    assert got[0] == got[1] and got[0]["holds"]
    O_alg, _ = open_algebra(M)
    B1, B2 = boolean_extension(H1)[0], boolean_extension(H2)[0]
    for F, build, targets in (
        (M, bridge._search_first_injection, (B1, B2)),
        (O_alg, bridge._search_first_injection, (H1, H2)),
        (M, bridge._embedding_into_extension, (H1, H2)),
    ):
        kept = derived(F, bridge._target_store, build)
        assert sorted(kept) == sorted(map(id, targets))
        assert all(kept[id(A)][0] is A for A in targets)
        assert kept[id(targets[0])][1] is not None
        assert kept[id(targets[0])][1] == kept[id(targets[1])][1]
