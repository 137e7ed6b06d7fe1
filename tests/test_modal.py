"""Modal algebras: axioms, filters, subalgebras, homs, the two standards."""

import itertools
import random
import time

import numpy as np
import pytest

from grzlab.catalog import interior_catalog
from grzlab.errors import CapExceeded, InputError
from grzlab.finlat import FinitePoset, antichain_poset, chain_poset
from grzlab.modal import (
    ATOM_CAP,
    HOM_CAP,
    BooleanSubalgebra,
    Filter,
    Homomorphism,
    ModalAlgebra,
    all_boolean_subalgebras,
    all_modal_subalgebras,
    are_isomorphic,
    blok_characterization,
    complex_algebra,
    generated_subalgebra,
    grz_fails_at,
    grz_violations,
    hom_search,
    make_standard,
    modal_product,
    open_filters,
    quotient,
    stable_witness_construct,
    subalgebra_as_algebra,
    subalgebra_from_elements,
    trivial_modal,
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
        complex_algebra(chain_poset(ATOM_CAP + 1))


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
    above = Filter(s12, 4)
    assert [b for b in range(s12.size) if b in above] == [4, 5, 6, 7]


def test_filter_validate_flags_problems():
    s2 = make_standard("S2")
    assert Filter(s2, 1).validate() == ["not box closed at 1"]
    assert Filter(s2, 3).validate() == []
    assert Filter(s2, 4).validate() == ["least element outside the carrier"]


def test_quotient_by_open_filter():
    s12 = make_standard("S12")
    q, proj = quotient(s12, Filter(s12, 4))
    assert q.atoms == 1 and q.box.tolist() == [0, 1]
    assert proj.verify() == [] and proj.surjective
    assert proj(7) == 1 and proj(3) == 0

    # quotient by the improper filter collapses everything
    q, proj = quotient(s12, Filter(s12, 0))
    assert q.size == 1

    with pytest.raises(InputError):
        quotient(make_standard("S2"), Filter(s12, 4))
    with pytest.raises(InputError):
        quotient(s12, Filter(s12, 5))


def test_subalgebra_elements_and_counts():
    s2 = make_standard("S2")
    subs = all_boolean_subalgebras(s2)
    assert [s.blocks for s in subs] == [(3,), (1, 2)]
    assert subs[0].elements == (0, 3)
    assert len(all_modal_subalgebras(s2)) == 2


def restricted_growth_blocks(n):
    """Atom partitions as block masks, by their restricted-growth strings
    (atom i in block c, c at most one more than the codes before it) in
    lexicographic order."""
    strings = [()]
    for _ in range(n):
        strings = [r + (c,) for r in strings for c in range(max(r, default=-1) + 2)]
    out = []
    for r in sorted(strings):
        masks = [0] * (max(r) + 1 if r else 0)
        for i, c in enumerate(r):
            masks[c] |= 1 << i
        out.append(tuple(sorted(masks)))
    return out


def test_all_boolean_subalgebras_in_restricted_growth_order():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for n, count in enumerate(bell):
        subs = all_boolean_subalgebras(complex_algebra(antichain_poset(n)))
        assert [s.blocks for s in subs] == restricted_growth_blocks(n)
        assert len(subs) == count


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


def test_modal_closure_refuses_a_table_that_fails_k():
    # Closing through the coatoms is sound only under K.
    bad = coatoms_to_top(3)
    assert not validate_modal(bad).k
    with pytest.raises(InputError, match="K axiom"):
        generated_subalgebra(bad, [1], "modal")
    assert generated_subalgebra(bad, [1], "boolean").blocks == (1, 6)


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
    isos = hom_search(s2, s2, mode="iso")
    assert [h.table() for h in isos] == [[0, 1, 2, 3], [0, 2, 1, 3]]
    assert all(h.verify() == [] for h in isos)


def test_hom_search_respects_constants():
    s2 = make_standard("S2")
    assert hom_search(trivial_modal(), s2) == []
    collapse = hom_search(s2, trivial_modal())
    assert len(collapse) == 1 and collapse[0].table() == [0, 0, 0, 0]


def test_hom_search_constraint_pruning():
    s2 = make_standard("S2")
    pinned = hom_search(s2, s2, mode="iso", constraints={1: 2})
    assert [h.table() for h in pinned] == [[0, 2, 1, 3]]
    with pytest.raises(InputError):
        hom_search(s2, s2, constraints={17: 0})
    # 12^12 atom maps of the 12-point discrete algebra: refused before any
    # is tried, with the count and the cap named.
    discrete = complex_algebra(antichain_poset(ATOM_CAP))
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded) as refusal:
        hom_search(discrete, discrete)
    assert time.perf_counter() - t0 < 0.05
    assert f"{ATOM_CAP**ATOM_CAP} candidate" in str(refusal.value)
    assert f"cap is {HOM_CAP} (HOM_CAP); no flag raises it" in str(refusal.value)


def test_hom_verify_catches_each_breakage():
    s2 = make_standard("S2")
    good = Homomorphism(s2, s2, "modal", {a: a for a in range(s2.size)})
    assert good.verify() == []
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


def random_atom_map(rng, A, B, dom):
    """A Boolean homomorphism from A (or its subalgebra dom) to B: each atom
    of B goes to a random block, and an element to the atoms whose block
    lies inside it.  None when there are atoms of B and no block."""
    blocks = dom.blocks if dom is not None else [1 << i for i in range(A.atoms)]
    elems = dom.elements if dom is not None else range(A.size)
    if B.atoms and not blocks:
        return None
    h = [rng.randrange(len(blocks)) for _ in range(B.atoms)]
    return {e: sum(1 << y for y, b in enumerate(h) if blocks[b] & e == blocks[b]) for e in elems}


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
        kind = "box_partial" if dom is not None else rng.choice(["stable", "modal"])
        hom = random_atom_map(rng, A, B, dom)
        if hom is not None and rng.random() < 0.7:
            values = hom
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
        h = Homomorphism(M, M, "modal", values)
        want = loop_meet_witness(h)
        assert want and [w for w in h.verify() if w[0] == "meet"] == want
    # No code builds a Boolean homomorphism, so "boolean" is not a kind
    identity = {a: a for a in range(M.size)}
    assert Homomorphism(M, M, "boolean", identity).verify() == [("kind", ())]


# ---------------------------------------------------------------------------
# Filters by least element, quotients on blocks and isomorphism through the
# accessibility relation, against the member-set, bit-loop and permutation
# references they replaced


def reference_filter_problems(alg, members):
    """The member-set check: top, upward, meet and box closure, by loops."""
    out = []
    if any(not 0 <= m <= alg.top for m in members):
        return out + ["member outside the carrier"]
    if alg.top not in members:
        out.append("top missing")
    if any(m & b == m and b not in members for m in members for b in range(alg.size)):
        out.append("not upward closed")
    if any(m & b not in members for m in members for b in members):
        out.append("not meet closed")
    if any(int(alg.box[m]) not in members for m in members):
        out.append("not box closed")
    return out


def reference_quotient(alg, u):
    """Box table and projection of the quotient above u, through bit loops."""
    bits = [i for i in range(alg.atoms) if (u >> i) & 1]

    def compress(b):
        return sum(1 << t for t, i in enumerate(bits) if (b >> i) & 1)

    def expand(t):
        return sum(1 << i for pos, i in enumerate(bits) if (t >> pos) & 1)

    box = [compress(int(alg.box[expand(t)]) & u) for t in range(1 << len(bits))]
    return box, [compress(b & u) for b in range(alg.size)]


def move(mask, perm):
    return sum(1 << p for i, p in enumerate(perm) if (mask >> i) & 1)


def reference_isomorphic(a, b):
    """Every atom permutation, checked on the whole box table."""
    if a.atoms != b.atoms:
        return False
    abox, bbox = a.box.tolist(), b.box.tolist()
    return any(
        all(move(abox[e], perm) == bbox[move(e, perm)] for e in range(a.size))
        for perm in itertools.permutations(range(a.atoms))
    )


def relabel(alg, perm):
    """alg with atom i renamed perm[i]."""
    box = [0] * alg.size
    for e in range(alg.size):
        box[move(e, perm)] = move(int(alg.box[e]), perm)
    return ModalAlgebra(alg.atoms, np.array(box, dtype=np.int64))


def random_poset(rng, n):
    leq = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            leq[i, j] = rng.random() < 0.3
    for k in range(n):
        leq |= leq[:, [k]] & leq[[k], :]
    return FinitePoset(n, leq)


def reference_inputs():
    """interior_catalog(4), and two seeded random posets of each size 1-8,
    alone and times S2."""
    rng = random.Random(20261019)
    algs = list(interior_catalog(4).members)
    for n in [n for n in range(1, 9) for _ in range(2)]:
        P = complex_algebra(random_poset(rng, n))
        algs += [P, modal_product([P, make_standard("S2")])]
    return algs


def test_filter_validate_matches_the_member_set_check():
    for M in interior_catalog(4).members:
        for u in range(M.size):
            members = frozenset(b for b in range(M.size) if u & b == u)
            filt = Filter(M, u)
            assert frozenset(b for b in range(M.size) if b in filt) == members
            want = reference_filter_problems(M, members)
            assert (filt.validate() == []) == (want == [])


def test_quotient_matches_the_bit_loops():
    standards = [make_standard("S2"), make_standard("S12")]
    for M in reference_inputs():
        for filt in open_filters(M):
            q, proj = quotient(M, filt)
            want_box, want_values = reference_quotient(M, filt.least())
            assert q.box.tolist() == want_box
            assert proj.table() == want_values
            if q.atoms <= 3:
                for std in standards:
                    assert are_isomorphic(q, std) == reference_isomorphic(q, std)


def test_are_isomorphic_matches_the_permutation_loop():
    small = list(interior_catalog(3).members) + [make_standard("S2"), make_standard("S12")]
    four = [M for M in interior_catalog(4).members if M.atoms == 4]
    for group in (small, four):
        for a, b in itertools.product(group, repeat=2):
            assert are_isomorphic(a, b) == reference_isomorphic(a, b)
    rng = random.Random(20261020)
    for M in reference_inputs():
        perm = list(range(M.atoms))
        rng.shuffle(perm)
        N = relabel(M, perm)
        assert are_isomorphic(M, N) and are_isomorphic(N, M)
        if M.atoms <= 5:
            assert reference_isomorphic(M, N)


def test_are_isomorphic_checks_the_whole_table_when_not_k():
    # box of the coatoms, hence the relation, is that of the discrete
    # algebra, but box of one atom is bottom: not K, and only the
    # permutations that move the killed atom onto the other one qualify
    discrete = complex_algebra(antichain_poset(3))
    kill_0 = ModalAlgebra(3, np.array([0, 0, 2, 3, 4, 5, 6, 7], dtype=np.int64))
    kill_1 = ModalAlgebra(3, np.array([0, 1, 0, 3, 4, 5, 6, 7], dtype=np.int64))
    assert not validate_modal(kill_0).k
    for a, b, want in ((kill_0, kill_1, True), (kill_0, discrete, False), (kill_1, kill_1, True)):
        assert are_isomorphic(a, b) == reference_isomorphic(a, b) == want


def preorder_algebra(n, arrows):
    """box(S) = the points whose successors all lie in S, for the preorder
    generated by the arrows (x, y): x sees y."""
    rel = np.eye(n, dtype=bool)
    for x, y in arrows:
        rel[x, y] = True
    for k in range(n):
        rel |= rel[:, [k]] & rel[[k], :]
    masks = np.arange(1 << n, dtype=np.int64)
    box = np.zeros(1 << n, dtype=np.int64)
    for x in range(n):
        succ = sum(1 << int(y) for y in np.nonzero(rel[x])[0])
        box[(masks & succ) == succ] |= 1 << x
    return ModalAlgebra(n, box)


def test_filters_quotient_and_isomorphism_at_the_atom_cap():
    def timed(fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        assert time.perf_counter() - start < 0.5, fn
        return out

    D = complex_algebra(antichain_poset(12))
    filts = timed(open_filters, D)
    assert len(filts) == D.size and filts[0].least() == 0
    assert timed(filts[0].validate) == []
    assert timed(quotient, D, filts[0])[0].size == 1
    assert timed(quotient, D, filts[-1])[0].atoms == 12

    C = complex_algebra(chain_poset(12))
    perm = list(range(12))
    random.Random(20261021).shuffle(perm)
    assert timed(are_isomorphic, C, relabel(C, perm))

    # Two-atom clusters c (atoms 2c, 2c+1) seen by the points 8 + j: point j
    # sees clusters j and j+1 around one cycle, or clusters {0, 1} and {2, 3}
    # in two blocks.  Same degrees, not isomorphic (one component or two).
    mates = [(2 * c, 2 * c + 1) for c in range(4)] + [(2 * c + 1, 2 * c) for c in range(4)]

    def seen(clusters_of):
        arrows = [(8 + j, a) for j in range(4) for c in clusters_of(j) for a in (2 * c, 2 * c + 1)]
        return preorder_algebra(12, mates + arrows)

    cycle = seen(lambda j: (j, (j + 1) % 4))
    blocks = seen(lambda j: (j & 2, (j & 2) + 1))
    assert validate_modal(cycle).interior and validate_modal(blocks).interior
    assert not timed(are_isomorphic, cycle, blocks)
    assert timed(are_isomorphic, blocks, relabel(blocks, perm))


def test_blok_characterization_at_the_atom_cap():
    # Complex algebras of three seeded 12-point posets, the 12-chain (the
    # slowest measured: 0.87 s with an isomorphism search per candidate) and
    # the 12-antichain are Grz; the 10-point discrete algebra times S2 is
    # not, and is witnessed through S2.
    algebras = [complex_algebra(random_poset(random.Random(seed), 12)) for seed in (1, 2, 3)]
    algebras += [complex_algebra(chain_poset(12)), complex_algebra(antichain_poset(12))]
    algebras.append(modal_product([complex_algebra(antichain_poset(10)), make_standard("S2")]))
    for alg in algebras:
        assert alg.atoms == ATOM_CAP
        start = time.perf_counter()
        res = blok_characterization(alg)
        assert time.perf_counter() - start < 3.0
        assert res.is_grz == validate_modal(alg).grz == (alg is not algebras[-1])
    assert res.witness.verify() == [] and res.witness.target_name == "S2"


def coatoms_to_top(n, killed=()):
    """box(e) = e, except top for every coatom and bottom for the killed
    sets: not K, and the accessibility relation is empty."""
    top = (1 << n) - 1
    box = np.arange(1 << n, dtype=np.int64)
    box[[top ^ (1 << x) for x in range(n)]] = top
    for s in killed:
        box[sum(1 << x for x in s)] = 0
    return ModalAlgebra(n, box)


def test_are_isomorphic_is_bounded_on_tables_that_are_not_k():
    def timed(fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        assert time.perf_counter() - start < 0.5
        return out

    # Same degrees everywhere; the tables differ at one singleton.
    full = coatoms_to_top(12)
    for s in (0, 11):
        one = coatoms_to_top(12, [(s,)])
        assert not timed(are_isomorphic, full, one)
        assert not timed(are_isomorphic, one, full)
    perm = list(range(12))
    random.Random(20261022).shuffle(perm)
    pair = coatoms_to_top(12, [(3, 9)])
    assert timed(are_isomorphic, pair, relabel(pair, perm))
    assert timed(are_isomorphic, full, relabel(full, perm))


def test_are_isomorphic_prunes_soundly_when_the_box_profiles_agree():
    # Killed pairs along a 6-cycle or two triangles: every atom has the
    # same box profile, so only the backtracking tells them apart.
    cycle = [(i, (i + 1) % 6) for i in range(6)]
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    for n in (6, 12):
        a, b = coatoms_to_top(n, cycle), coatoms_to_top(n, triangles)
        assert not are_isomorphic(a, b) and not are_isomorphic(b, a)
        perm = list(range(n))
        random.Random(n).shuffle(perm)
        assert are_isomorphic(a, relabel(a, perm)) and are_isomorphic(b, relabel(b, perm))
        if n == 6:
            assert not reference_isomorphic(a, b)
            assert reference_isomorphic(a, relabel(a, perm))
