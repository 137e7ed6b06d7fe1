"""Kernel-level checks: least witnesses of the numpy scans."""

import random

import numpy as np
import pytest

import grzlab
from grzlab import kernels
from grzlab.finlat import chain_heyting, downset_heyting, antichain_poset
from grzlab.modal import make_standard
from grzlab.ulogic import eval_sentence, parse_rule, translate


def test_backend_name_is_known():
    assert grzlab.backend_name() == "numpy"


def test_k_axiom_witness_clean_and_dirty():
    s12 = make_standard("S12")
    assert kernels.k_axiom_witness(s12.box) == -1
    # declaring 1 open while box 3 stays 0 breaks box(1 & 3) = box 1 & box 3
    bad = s12.box.copy()
    bad[1] = 1
    w = kernels.k_axiom_witness(bad)
    assert w >= 0
    a, b = divmod(int(w), s12.size)
    assert int(bad[a & b]) != int(bad[a]) & int(bad[b])


def brute_k_witness(box):
    """The least (a, b) breaking box(a & b) = box(a) & box(b), one pair at a time."""
    size = len(box)
    for a in range(size):
        for b in range(size):
            if box[a & b] != box[a] & box[b]:
                return a * size + b
    return -1


def random_k_table(rng, n):
    """box(S) = the points all of whose successors lie in S, for a random relation: K."""
    succ = [sum(1 << y for y in range(n) if rng.random() < 0.3) for _ in range(n)]
    return [sum(1 << x for x in range(n) if s & succ[x] == succ[x]) for s in range(1 << n)]


@pytest.mark.parametrize("rows", [1, 3, None])
def test_k_axiom_witness_is_the_least_pair(monkeypatch, rows):
    # One row per block, three rows (which divide no row count: sizes are
    # powers of two) and the default block; a changed entry x moves the
    # least witness to about row x, so witnesses fall at the first and last
    # rows of blocks.
    rng = random.Random(20261022)
    tables = []
    for n in range(10):
        for _ in range(2 if n < 9 else 1):
            box = random_k_table(rng, n)
            tables.append(box)
            for _ in range(4):
                bad = list(box)
                bad[rng.randrange(1 << n)] = rng.randrange(1 << n)
                tables.append(bad)
    witness_rows = set()
    for box in tables:
        if rows is not None:
            monkeypatch.setattr(kernels, "K_BLOCK_CELLS", rows * len(box))
        want = brute_k_witness(box)
        assert kernels.k_axiom_witness(np.array(box)) == want
        witness_rows.add(want // len(box) if want >= 0 else -1)
    assert -1 in witness_rows and {0, 1, 2, 3, 5, 6} <= witness_rows


def test_residuation_witness_on_chains():
    for n in range(1, 7):
        alg = chain_heyting(n)
        leq = alg.leq.astype(np.bool_)
        assert kernels.residuation_witness(alg.meet, alg.imp, leq) == -1


def test_residuation_witness_flags_bad_imp():
    alg = chain_heyting(3)
    bad = alg.imp.copy()
    bad[1, 0] = 2  # claims 1 -> 0 = top
    leq = alg.leq.astype(np.bool_)
    w = kernels.residuation_witness(alg.meet, bad, leq)
    assert w >= 0


def _least_index(algebra, rule_text, signature):
    """The least counterexample as an assignment index, first variable most significant."""
    sent = translate(parse_rule(rule_text, signature))
    res = eval_sentence(algebra, sent)
    if res["valid"]:
        return -1
    idx = 0
    for name in sent.variables:
        idx = idx * algebra.size + res["counterexample"][name]
    return idx


def test_scan_heyting_cases():
    alg = downset_heyting(antichain_poset(2))  # the four-element boolean algebra
    cases = {
        "/ p | ~p": -1,
        "p, p -> q / q": -1,
        # premise p <= q holds at (p, q) = (0, 1) but q <= p fails there
        "p -> q / q -> p": 1,
    }
    for rule, want in cases.items():
        assert _least_index(alg, rule, "heyting") == want


def test_scan_heyting_least_counterexample():
    # p = 1 is the least failing assignment
    assert _least_index(chain_heyting(3), "/ p | ~p", "heyting") == 1


def test_scan_modal_matches_python_reference():
    s12 = make_standard("S12")
    idx = _least_index(s12, "/ box(box(p -> box p) -> p) -> p", "modal")
    assert idx == 5  # least Grz failure of the eight-element standard algebra

