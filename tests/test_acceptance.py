"""The ten acceptance criteria, one test each, with pinned runtime bounds.

Each test prints a single pass/fail line.  Every enumeration cache in
``grzlab.catalog`` and ``grzlab.finlat`` (the posets, the topologies and
the shared permutation tables) is cleared before each criterion, so each
one meets its bound cold: no criterion can lean on work an earlier one
left in a cache.
"""

import time

import pytest

from grzlab import catalog, finlat
from grzlab.verify import CHECKS, RUNTIME_BOUNDS

_BY_NUM = {num: (name, fn) for num, name, fn in CHECKS}


@pytest.fixture(autouse=True)
def _cold_caches():
    for module in (catalog, finlat):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _run(num):
    name, fn = _BY_NUM[num]
    bound = RUNTIME_BOUNDS[num]
    start = time.perf_counter()
    ok, details = fn()
    elapsed = time.perf_counter() - start
    status = "PASS" if ok and elapsed < bound else "FAIL"
    print(
        f"criterion {num:2d} [{name}]: {status} "
        f"({elapsed:.2f}s, bound {bound:.0f}s) {details}"
    )
    assert ok, f"criterion {num} failed: {details}"
    assert elapsed < bound, (
        f"criterion {num} took {elapsed:.2f}s, bound is {bound:.0f}s"
    )


def test_criterion_01_standard_algebras():
    _run(1)


def test_criterion_02_structural_grz_characterization():
    _run(2)


def test_criterion_03_stable_witness_construction():
    _run(3)


def test_criterion_04_extension_and_opens_round_trip():
    _run(4)


def test_criterion_05_finite_reconstruction():
    _run(5)


def test_criterion_06_staged_elimination():
    _run(6)


def test_criterion_07_functor_commutation():
    _run(7)


def test_criterion_08_catalog_correspondence():
    _run(8)


def test_criterion_09_translation_and_evaluation():
    _run(9)


def test_criterion_10_free_algebras_and_admissibility():
    _run(10)
