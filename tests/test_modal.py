"""Modal algebras: axioms, filters, subalgebras, homs, the two standards."""

import random

import numpy as np
import pytest

from grzlab.catalog import interior_catalog
from grzlab.errors import CapExceeded, InputError
from grzlab.finlat import antichain_poset, chain_poset
from grzlab.modal import (
    BooleanSubalgebra,
    Filter,
    Homomorphism,
    ModalAlgebra,
    all_boolean_subalgebras,
    all_modal_subalgebras,
    are_isomorphic,
    blok_characterization,
    classify_structure,
    complex_algebra,
    compose,
    generated_subalgebra,
    grz_fails_at,
    grz_violations,
    hom_search,
    identity_hom,
    make_standard,
    modal_product,
    open_filter,
    open_filters,
    quotient,
    set_partitions,
    stable_witness_construct,
    subalgebra_as_algebra,
    subalgebra_from_elements,
    trivial_modal,
    upset_filter,
    validate_modal,
)


def test_standard_algebras_shape():
    s2 = make_standard("S2")
    assert s2.atoms == 2 and s2.box.tolist() == [0, 0, 0, 3]
    s12 = make_standard("S12")
    assert s12.atoms == 3 and s12.open_elements() == [0, 4, 7]
    with pytest.raises(InputError):
        make_standard("S3")


def test_standards_are_interior_but_not_grz():
    for name, witness, failing in (("S2", 1, [1, 2]), ("S12", 5, [5, 6])):
        alg = make_standard(name)
        rep = validate_modal(alg)
        assert rep.k and rep.interior and not rep.grz
        assert rep.grz_witness == witness
        assert grz_violations(alg).tolist() == failing
        assert grz_fails_at(alg, witness)
        assert not grz_fails_at(alg, alg.top)


def test_complex_algebra_of_posets_is_grz():
    for poset in (chain_poset(1), chain_poset(3), antichain_poset(3)):
        rep = validate_modal(complex_algebra(poset))
        assert rep.grz
    m = complex_algebra(chain_poset(2))
    assert m.box.tolist() == [0, 1, 0, 3]
    assert m.open_elements() == [0, 1, 3]


def test_complex_algebra_respects_cap():
    with pytest.raises(CapExceeded):
        complex_algebra(chain_poset(5), cap=4)


def test_validate_modal_witnesses():
    # box must fix top
    rep = validate_modal(ModalAlgebra(1, np.array([0, 0], dtype=np.int64)))
    assert not rep.k and ("box-top", ()) in rep.violations
    # box above the argument breaks deflation
    rep = validate_modal(ModalAlgebra(1, np.array([1, 1], dtype=np.int64)))
    assert rep.k and not rep.interior
    assert any(k == "deflation" for k, _ in rep.violations)
    # entries outside the carrier short-circuit
    rep = validate_modal(ModalAlgebra(1, np.array([0, 9], dtype=np.int64)))
    assert rep.malformed


def test_trivial_modal_is_grz():
    rep = validate_modal(trivial_modal())
    assert rep.grz and rep.interior


def test_open_filters_and_least():
    s12 = make_standard("S12")
    filts = open_filters(s12)
    assert [f.least() for f in filts] == [0, 4, 7]
    assert all(f.validate() == [] for f in filts)
    assert open_filter(s12, 5).least() == 4
    assert upset_filter(s12, 4, "open").members == frozenset({4, 5, 6, 7})


def test_filter_validate_flags_problems():
    s2 = make_standard("S2")
    assert any(
        "box closed" in msg
        for msg in Filter(s2, frozenset({1, 3}), "open").validate()
    )
    assert any(
        "top missing" in msg for msg in Filter(s2, frozenset({1}), "bogus").validate()
    )


def test_quotient_by_open_filter():
    s12 = make_standard("S12")
    q, proj = quotient(s12, upset_filter(s12, 4, "open"))
    assert q.atoms == 1 and q.box.tolist() == [0, 1]
    assert proj.verify() == [] and proj.surjective
    assert proj(7) == 1 and proj(3) == 0

    # quotient by the improper filter collapses everything
    q, proj = quotient(s12, upset_filter(s12, 0, "open"))
    assert q.size == 1

    with pytest.raises(InputError):
        quotient(s12, upset_filter(s12, 4, "boolean"))
    with pytest.raises(InputError):
        quotient(make_standard("S2"), upset_filter(s12, 4, "open"))


def test_classify_structure():
    assert classify_structure(make_standard("S2")) == {
        "subdirectly_irreducible": True,
        "simple": True,
    }
    assert classify_structure(complex_algebra(chain_poset(2))) == {
        "subdirectly_irreducible": True,
        "simple": False,
    }
    assert classify_structure(complex_algebra(antichain_poset(2))) == {
        "subdirectly_irreducible": False,
        "simple": False,
    }


def test_subalgebra_elements_and_counts():
    s2 = make_standard("S2")
    subs = all_boolean_subalgebras(s2)
    assert [s.blocks for s in subs] == [(3,), (1, 2)]
    assert subs[0].elements == (0, 3)
    assert len(all_modal_subalgebras(s2)) == 2
    assert len(list(set_partitions(3))) == 5
    assert list(set_partitions(0)) == [()]


def test_generated_subalgebra_modal_closure():
    s12 = make_standard("S12")
    boolean = generated_subalgebra(s12, [5], "boolean")
    assert boolean.elements == (0, 2, 5, 7)
    assert not boolean.box_closed
    modal = generated_subalgebra(s12, [5], "modal")
    assert modal.blocks == (1, 2, 4)  # box 5 = 4 forces the full algebra
    assert subalgebra_from_elements(s12, [0, 2, 5, 7]).blocks == (2, 5)
    with pytest.raises(InputError):
        subalgebra_from_elements(s12, [0, 5, 7])


def test_subalgebra_as_algebra():
    s12 = make_standard("S12")
    sub = BooleanSubalgebra(s12, (3, 4))
    alg, encode, decode = subalgebra_as_algebra(sub)
    assert alg.atoms == 2 and alg.box.tolist() == [0, 0, 2, 3]
    assert encode == {0: 0, 3: 1, 4: 2, 7: 3}
    assert decode == [3, 4]
    assert are_isomorphic(alg, complex_algebra(chain_poset(2)))
    with pytest.raises(InputError):
        subalgebra_as_algebra(generated_subalgebra(s12, [5], "boolean"))


def test_hom_search_isos_of_the_small_standard():
    s2 = make_standard("S2")
    isos = hom_search(s2, s2, kind="modal", mode="iso")
    assert [h.table() for h in isos] == [[0, 1, 2, 3], [0, 2, 1, 3]]
    assert all(h.verify() == [] for h in isos)


def test_hom_search_respects_constants():
    s2 = make_standard("S2")
    assert hom_search(trivial_modal(), s2) == []
    collapse = hom_search(s2, trivial_modal())
    assert len(collapse) == 1 and collapse[0].table() == [0, 0, 0, 0]


def test_hom_search_constraint_pruning():
    s2 = make_standard("S2")
    pinned = hom_search(s2, s2, kind="modal", mode="iso", constraints={1: 2})
    assert [h.table() for h in pinned] == [[0, 2, 1, 3]]
    with pytest.raises(InputError):
        hom_search(s2, s2, constraints={17: 0})
    with pytest.raises(CapExceeded):
        hom_search(
            make_standard("S12"), make_standard("S12"), max_candidates=2
        )


def test_hom_verify_catches_each_breakage():
    s2 = make_standard("S2")
    good = identity_hom(s2)
    assert good.verify() == []
    assert compose(good, good, "modal").verify() == []
    bad = Homomorphism(s2, s2, "modal", {0: 0, 1: 1, 2: 2, 3: 2})
    assert bad.verify() != []
    missing = Homomorphism(s2, s2, "modal", {0: 0, 3: 3})
    assert missing.verify() == [("malformed", ())]


def test_modal_product():
    s2 = make_standard("S2")
    prod = modal_product([s2, s2])
    assert prod.atoms == 4
    # low bits follow factor 0: (top, bot) boxes to (top, bot)
    assert int(prod.box[0b0011]) == 0b0011 and int(prod.box[0b0101]) == 0
    assert int(prod.box[0b1111]) == 0b1111
    rep = validate_modal(prod)
    assert rep.interior and not rep.grz
    with pytest.raises(CapExceeded):
        modal_product([s2] * 7)
    assert modal_product([]).size == 1


def test_stable_witness_images():
    s12 = make_standard("S12")
    at5 = stable_witness_construct(s12, 5)
    assert at5.kind == "stable" and at5.verify() == []
    assert at5.surjective and at5(5) == 1
    assert stable_witness_construct(s12, 6)(6) == 2
    at1 = stable_witness_construct(make_standard("S2"), 1)
    assert at1(1) in (1, 2) and at1.verify() == []
    with pytest.raises(InputError):
        stable_witness_construct(make_standard("S2"), 0)


def test_blok_characterization_standards():
    for name in ("S2", "S12"):
        alg = make_standard(name)
        res = blok_characterization(alg)
        assert not res.is_grz
        w = res.witness
        assert w.verify() == []
        assert w.target_name == name
        # the standards witness through themselves: full subalgebra, top filter
        assert w.subalgebra.blocks == tuple(1 << i for i in range(alg.atoms))
        assert w.filter.least() == alg.top
        assert w.quotient.atoms == alg.atoms


def test_blok_characterization_grz_case():
    res = blok_characterization(complex_algebra(chain_poset(3)))
    assert res.is_grz and res.witness is None


def test_blok_agrees_with_inequality_scan():
    for poset in (chain_poset(2), antichain_poset(2)):
        for alg in (complex_algebra(poset), modal_product([make_standard("S2")])):
            assert blok_characterization(alg).is_grz == validate_modal(alg).grz


def test_are_isomorphic():
    s2 = make_standard("S2")
    discrete = complex_algebra(antichain_poset(2))
    assert are_isomorphic(s2, make_standard("S2"))
    assert not are_isomorphic(s2, discrete)
    assert not are_isomorphic(s2, make_standard("S12"))


def test_record_roundtrip_and_errors():
    s12 = make_standard("S12")
    assert ModalAlgebra.from_record(s12.to_record()).box.tolist() == s12.box.tolist()
    with pytest.raises(InputError):
        ModalAlgebra.from_record({"kind": "modal", "atoms": 2, "box": [0, 0, 3]})
    with pytest.raises(InputError):
        ModalAlgebra.from_record({"kind": "heyting", "atoms": 1, "box": [0, 1]})
    with pytest.raises(CapExceeded):
        ModalAlgebra(20, np.zeros(1 << 20, dtype=np.int64))


def loop_meet_witness(h):
    """The meet check as a double loop over the domain: the reference."""
    f = h.values
    dom = h.domain_elements()
    for a in dom:
        for b in dom:
            if f[a & b] != f[a] & f[b]:
                return [("meet", (a, b))]
    return []


def test_verify_meet_witness_matches_the_loop():
    rng = random.Random(20261018)
    algs = list(interior_catalog(3).members) + [
        make_standard("S2"),
        make_standard("S12"),
        complex_algebra(chain_poset(4)),
    ]
    outcomes = set()
    for _ in range(300):
        A, B = rng.choice(algs), rng.choice(algs)
        dom = None
        if rng.random() < 0.5:
            dom = generated_subalgebra(A, [rng.randrange(A.size)], "boolean")
        elems = dom.elements if dom is not None else range(A.size)
        kind = "box_partial" if dom is not None else rng.choice(["boolean", "stable", "modal"])
        homs = hom_search(A, B, kind="box_partial" if dom is not None else "boolean", domain=dom)
        if homs and rng.random() < 0.7:
            values = dict(homs[0].values)
            for _ in range(rng.randrange(3)):  # zero to two broken values
                values[rng.choice(list(elems))] = rng.randrange(B.size)
        else:
            values = {e: rng.randrange(B.size) for e in elems}
        h = Homomorphism(A, B, kind, values, dom)
        want = loop_meet_witness(h)
        assert [w for w in h.verify() if w[0] == "meet"] == want
        outcomes.add(bool(want))
    assert outcomes == {True, False}
    # 512 elements: the meet check runs over several blocks of rows
    M = complex_algebra(chain_poset(9))
    for broken in (0b110000000, 0b111111111, 0b100000001):
        values = {a: a for a in range(M.size)}
        values[broken] = 0
        h = Homomorphism(M, M, "boolean", values)
        want = loop_meet_witness(h)
        assert want and [w for w in h.verify() if w[0] == "meet"] == want
