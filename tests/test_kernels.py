"""Kernel-level checks: least witnesses of the numpy scans."""

import numpy as np

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

