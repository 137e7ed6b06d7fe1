"""Size-bounded enumeration and the canonical forms against references.

The references are deliberately naive: the unbounded poset enumeration
filtered by downset count, a minimum over every relabeling computed in pure
Python, and a per-permutation, per-subset canonicalisation of the downset
family of every labeled preorder.  Random inputs come from fixed seeds.
"""

import itertools

import numpy as np
import pytest

from grzlab import catalog
from grzlab.catalog import permutation_table
from grzlab.finlat import (
    FinitePoset,
    canonical_key,
    chain_poset,
    downset_heyting,
    downset_masks,
)


def _brute_heyting(max_size):
    found = []
    for n in range(max_size):
        for poset in catalog.enumerate_posets(n):
            masks = downset_masks(poset)
            if len(masks) <= max_size:
                found.append((len(masks), canonical_key(poset), downset_heyting(poset)))
    found.sort(key=lambda item: (item[0], item[1]))
    return found


def _tables(alg):
    return (alg.size, alg.bot, alg.top, alg.meet.tobytes(), alg.join.tobytes(), alg.imp.tobytes())


@pytest.mark.parametrize("max_size", range(1, 8))
def test_bounded_heyting_matches_filtered_posets(max_size):
    want = _brute_heyting(max_size)
    got = catalog.enumerate_heyting(max_size)
    assert [_tables(alg) for alg in got] == [_tables(alg) for _, _, alg in want]


def test_bounded_heyting_never_enumerates_all_posets(monkeypatch):
    full = catalog.enumerate_posets

    def only_the_empty_poset(n):
        assert n == 0, f"enumerate_posets({n}) was called"
        return full(0)

    monkeypatch.setattr(catalog, "enumerate_posets", only_the_empty_poset)
    by_size = [0] * 9
    for alg in catalog.enumerate_heyting(8):
        by_size[alg.size] += 1
    # OEIS A006966: Heyting algebras (distributive lattices) on 1..8 elements
    assert by_size[1:] == [1, 1, 1, 2, 3, 5, 8, 15]


def _random_poset(rng, n):
    """A random order on n points, relabeled at random."""
    rel = np.triu(rng.random((n, n)) < 0.4, 1) | np.eye(n, dtype=bool)
    for _ in range(n):
        rel = (rel.astype(int) @ rel.astype(int)) > 0
    perm = rng.permutation(n)
    return FinitePoset(n, rel[np.ix_(perm, perm)])


def _min_over_relabelings(poset):
    n = poset.size
    leq = poset.leq.tolist()
    best = None
    for perm in itertools.permutations(range(n)):
        key = 0
        for i in range(n):
            for j in range(n):
                key = (key << 1) | int(leq[perm[i]][perm[j]])
        best = key if best is None else min(best, key)
    return best


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_canonical_key_matches_all_relabelings(seed):
    rng = np.random.default_rng(seed)
    for n in range(8):
        for _ in range(4):
            poset = _random_poset(rng, n)
            assert poset.validate() == []
            assert canonical_key(poset) == _min_over_relabelings(poset)


def _sum(*parts):
    """The disjoint union of posets, each part's points after the previous."""
    n = sum(p.size for p in parts)
    leq = np.zeros((n, n), dtype=bool)
    at = 0
    for p in parts:
        leq[at : at + p.size, at : at + p.size] = p.leq
        at += p.size
    return FinitePoset(n, leq)


def _crown():
    """The 6-point crown: minimal points 0-2 and maximal points 3-5, each
    minimal point below two maximal ones, around a cycle."""
    leq = np.eye(6, dtype=bool)
    for i in range(3):
        leq[i, 3 + i] = leq[i, 3 + (i + 1) % 3] = True
    return FinitePoset(6, leq)


def _vee():
    """One point below two incomparable points."""
    return FinitePoset(3, [[1, 1, 1], [0, 1, 0], [0, 0, 1]])


def _twin_heavy():
    """Posets made mostly of twins, points with the same strict up- and
    down-sets, which the key search branches on only once."""
    yield from (_sum(*[chain_poset(1)] * n) for n in range(1, 8))
    for length, count in ((2, 2), (2, 3), (3, 2)):
        yield _sum(*[chain_poset(length)] * count)
    yield _crown()
    yield _sum(_vee(), _vee())


def test_canonical_key_matches_all_relabelings_on_twins():
    rng = np.random.default_rng(3)
    for poset in _twin_heavy():
        assert poset.validate() == []
        want = _min_over_relabelings(poset)
        assert canonical_key(poset) == want
        for _ in range(3):
            perm = rng.permutation(poset.size)
            assert canonical_key(FinitePoset(poset.size, poset.leq[np.ix_(perm, perm)])) == want


def _canonical_family(family, k):
    best = family
    for perm in itertools.permutations(range(k)):
        moved = 0
        for s in range(1 << k):
            if (family >> s) & 1:
                image = 0
                for i, p in enumerate(perm):
                    if (s >> i) & 1:
                        image |= 1 << p
                moved |= 1 << image
        best = min(best, moved)
    return best


def _labeled_topologies(k):
    """The downset family of every preorder on k labeled points, by brute force
    over all 2^(k(k-1)) relations that contain the diagonal."""
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    families = []
    for chosen in range(1 << len(pairs)):
        down = [1 << j for j in range(k)]  # down[j]: the points at or below j
        for b, (i, j) in enumerate(pairs):
            if (chosen >> b) & 1:
                down[j] |= 1 << i
        if any(down[i] & ~down[j] for j in range(k) for i in range(k) if (down[j] >> i) & 1):
            continue  # not transitive
        family = 0
        for s in range(1 << k):
            if all(down[j] & ~s == 0 for j in range(k) if (s >> j) & 1):
                family |= 1 << s
        families.append(family)
    return families


def _is_topology(family, k):
    opens = np.array([s for s in range(1 << k) if (family >> s) & 1])
    return (
        family & 1 == 1
        and (family >> ((1 << k) - 1)) & 1 == 1
        and np.isin(opens[:, None] | opens, opens).all()
        and np.isin(opens[:, None] & opens, opens).all()
    )


def test_topologies_match_pure_python_canonical_forms():
    for k in range(5):
        labeled = _labeled_topologies(k)
        # OEIS A000798: labeled topologies (preorders) on 0..4 points
        assert len(labeled) == len(set(labeled)) == [1, 1, 4, 29, 355][k]
        want = tuple(sorted({_canonical_family(f, k) for f in labeled}))
        assert catalog.enumerate_topologies(k) == want
    # OEIS A001930: topologies on 5 and 6 points up to homeomorphism
    for k, count in ((5, 139), (6, 718)):
        got = catalog.enumerate_topologies(k)
        assert len(got) == len(set(got)) == count
        assert all(0 <= f < 1 << (1 << k) for f in got)
        assert all(_is_topology(f, k) for f in got)
    assert all(_canonical_family(f, 5) == f for f in catalog.enumerate_topologies(5))


def test_permutation_table_is_shared_and_read_only():
    table = permutation_table(4)
    assert table is permutation_table(4)
    assert table.shape == (24, 4)
    assert [tuple(row) for row in table] == list(itertools.permutations(range(4)))
    with pytest.raises(ValueError):
        table[0, 0] = 3
