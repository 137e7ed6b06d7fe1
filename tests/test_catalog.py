"""Enumerations, catalog files, and the shipped golden data."""

import json
import pathlib
import time

import pytest

from grzlab import catalog
from grzlab.errors import CapExceeded, InputError
from grzlab.finlat import FinitePoset, canonical_key, chain_heyting, poset_from_key
from grzlab.modal import make_standard, validate_modal


def test_poset_counts_by_point():
    # 1, 1, 2, 5, 16, 63, 318 isomorphism classes on 0..6 points
    for n, want in enumerate([1, 1, 2, 5, 16, 63, 318]):
        assert len(catalog.enumerate_posets(n)) == want


def test_posets_are_canonical_and_valid():
    for poset in catalog.enumerate_posets(4):
        assert poset.validate() == []
        key = canonical_key(poset)
        assert canonical_key(poset_from_key(poset.size, key)) == key
    keys = [canonical_key(p) for p in catalog.enumerate_posets(5)]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_poset_enumeration_caps():
    with pytest.raises(CapExceeded, match="8 points; POSET_POINT_CAP is 7"):
        catalog.enumerate_posets(8)
    with pytest.raises(InputError):
        catalog.enumerate_posets(-1)


def test_topology_counts_by_point():
    # 1, 1, 3, 9, 33 topologies on 0..4 points up to homeomorphism
    for k, want in enumerate([1, 1, 3, 9, 33]):
        assert len(catalog.enumerate_topologies(k)) == want
    with pytest.raises(CapExceeded, match="7 points; TOPOLOGY_POINT_CAP is 6"):
        catalog.enumerate_topologies(7)
    with pytest.raises(InputError):
        catalog.enumerate_topologies(-1)


def test_topologies_and_interior_catalog_at_the_cap():
    catalog.enumerate_topologies.cache_clear()
    catalog.enumerate_posets.cache_clear()
    start = time.perf_counter()
    assert len(catalog.enumerate_topologies(catalog.TOPOLOGY_POINT_CAP)) == 718
    cat = catalog.interior_catalog(catalog.TOPOLOGY_POINT_CAP)
    assert time.perf_counter() - start < 2.0
    # 1 + 1 + 3 + 9 + 33 + 139 + 718 interior algebras on 0..6 atoms
    assert len(cat.members) == 904


def test_two_point_topologies():
    # indiscrete, the one-open-point space, discrete
    assert catalog.enumerate_topologies(2) == (0b1001, 0b1011, 0b1111)
    sierpinski = catalog.interior_from_topology(2, 0b1011)
    assert sierpinski.box.tolist() == [0, 1, 0, 3]
    indiscrete = catalog.interior_from_topology(2, 0b1001)
    assert indiscrete.box.tolist() == make_standard("S2").box.tolist()


def test_interior_catalog_members_satisfy_k():
    cat = catalog.interior_catalog(2)
    assert cat.kind == "modal" and len(cat.members) == 5
    assert all(validate_modal(m).interior for m in cat.members)
    assert len(catalog.grz_members(cat)) == 4
    with pytest.raises(InputError):
        catalog.grz_members(catalog.heyting_catalog(2))


def test_interior_catalog_counts():
    assert len(catalog.interior_catalog(3).members) == 14
    assert len(catalog.grz_members(catalog.interior_catalog(3))) == 9


def test_heyting_enumeration_counts():
    assert len(catalog.enumerate_heyting(5)) == 8
    algs = catalog.enumerate_heyting(7)
    by_size: dict[int, int] = {}
    for a in algs:
        by_size[a.size] = by_size.get(a.size, 0) + 1
    assert by_size == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8}
    sizes = [a.size for a in algs]
    assert sizes == sorted(sizes)
    with pytest.raises(InputError):
        catalog.enumerate_heyting(0)
    with pytest.raises(CapExceeded):
        catalog.enumerate_heyting(10)


def test_catalog_type_checks():
    with pytest.raises(InputError):
        catalog.AlgebraCatalog("modal", (chain_heyting(2),))
    with pytest.raises(InputError):
        catalog.AlgebraCatalog("group", ())


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "cat.json"
    entries = {
        "two": chain_heyting(2),
        "std": make_standard("S2"),
        "chain": catalog.enumerate_posets(2)[0],
    }
    catalog.save(path, entries)
    first = path.read_bytes()
    back = catalog.load(path)
    assert set(back.entries) == {"two", "std", "chain"}
    decoded = back.decoded()
    assert decoded["two"].size == 2
    assert decoded["std"].box.tolist() == [0, 0, 0, 3]
    assert isinstance(decoded["chain"], FinitePoset)
    # a second save of the loaded records is byte identical
    catalog.save(path, back.entries)
    assert path.read_bytes() == first


def test_load_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(InputError):
        catalog.load(path)

    path.write_text(json.dumps({"version": 99, "entries": {}}))
    with pytest.raises(InputError, match="version"):
        catalog.load(path)

    path.write_text(json.dumps({"version": 1, "entries": []}))
    with pytest.raises(InputError, match="entries"):
        catalog.load(path)

    rec = chain_heyting(2).to_record()
    rec["imp"] = [[1, 1], [0, 0]]  # breaks residuation
    path.write_text(json.dumps({"version": 1, "entries": {"oops": rec}}))
    with pytest.raises(InputError, match="oops"):
        catalog.load(path)

    path.write_text(
        json.dumps({"version": 1, "entries": {"x": {"kind": "ring"}}})
    )
    with pytest.raises(InputError, match="kind"):
        catalog.load(path)


def test_builtin_catalogs_load():
    posets = catalog.builtin_catalog("posets_n3")
    assert len(posets.entries) == 9  # 1 + 1 + 2 + 5 posets on 0..3 points
    interiors = catalog.builtin_catalog("interior_k3")
    assert len(interiors.entries) == 14
    assert all(
        validate_modal(alg).interior for alg in interiors.decoded().values()
    )
    with pytest.raises(InputError):
        catalog.builtin_catalog("nope")


def test_golden_files_are_current(tmp_path):
    written = catalog.write_golden_files(tmp_path)
    for path in written:
        fresh = pathlib.Path(path)
        shipped = catalog._DATA_DIR / fresh.name
        assert fresh.read_bytes() == shipped.read_bytes()
