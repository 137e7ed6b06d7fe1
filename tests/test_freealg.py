"""Bounded free algebras, admissibility, and the completeness falsifier."""

import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grzlab import bridge, freealg, ulogic
from grzlab.bridge import class_membership
from grzlab.catalog import AlgebraCatalog, enumerate_heyting, heyting_catalog, interior_catalog
from grzlab.errors import CapExceeded, GrzlabError, InputError, InternalCheckError
from grzlab.finlat import (
    antichain_poset,
    chain_heyting,
    chain_poset,
    downset_heyting,
    trivial_heyting,
    validate_heyting,
)
from grzlab.freealg import (
    completeness_report_k,
    free_algebra,
    sigma_free_checks,
    ump_extension_count,
    verify_ump,
    weakly_admissible_k,
)
from grzlab.modal import complex_algebra, make_standard, trivial_modal, validate_modal
from grzlab.ulogic import (
    And,
    Box,
    Const,
    Imp,
    Not,
    Or,
    UniversalSentence,
    Var,
    assignment,
    enumerate_rules,
    parse_rule,
    refutations,
    sentence_to_json,
    to_text,
    translate,
)
from grzlab.verify import check_criterion_10


def two_chain_catalog():
    return AlgebraCatalog("heyting", (chain_heyting(2),), "classical")


def goedel_catalog():
    return AlgebraCatalog("heyting", (chain_heyting(2), chain_heyting(3)))


def test_free_over_the_two_chain():
    K = two_chain_catalog()
    assert free_algebra(K, 0).algebra.size == 2
    free = free_algebra(K, 1)
    assert free.algebra.size == 4
    assert validate_heyting(free.algebra).ok
    assert free.generators == (1,)
    assert {e: to_text(t) for e, t in free.terms.items()} == {
        0: "bot",
        1: "x0",
        2: "x0 -> bot",
        3: "top",
    }
    assert free_algebra(K, 2).algebra.size == 16


def test_free_terms_evaluate_to_their_element():
    from grzlab.ulogic import eval_formula

    free = free_algebra(goedel_catalog(), 1)
    env = {"x0": free.generators[0]}
    for e, term in free.terms.items():
        assert eval_formula(free.algebra, term, env) == e


def test_free_on_trivial_catalog():
    K = AlgebraCatalog("heyting", (trivial_heyting(),))
    assert free_algebra(K, 1).algebra.size == 1


def test_free_modal_catalog():
    K = AlgebraCatalog("modal", (complex_algebra(chain_poset(1)),))
    free = free_algebra(K, 1)
    assert free.algebra.size == 4
    assert free.algebra.box.tolist() == [0, 1, 2, 3]
    assert free.generators == (1,)
    assert verify_ump(free) == []

    grzk = AlgebraCatalog("modal", (make_standard("S2"),))
    free = free_algebra(grzk, 1)
    assert validate_modal(free.algebra).interior
    assert verify_ump(free) == []


def test_free_algebra_caps_and_errors():
    with pytest.raises(InputError):
        free_algebra(AlgebraCatalog("heyting", ()), 1)
    with pytest.raises(InputError):
        free_algebra(two_chain_catalog(), -1)
    with pytest.raises(CapExceeded, match="cap is 4 [(]COORD_CAP, default 64[)]; raise --coord-cap or lower k"):
        free_algebra(goedel_catalog(), 2, coord_cap=4)
    with pytest.raises(CapExceeded):
        free_algebra(two_chain_catalog(), 2, element_cap=10)


def test_unique_extension_property():
    K = goedel_catalog()
    for k in (0, 1):
        assert verify_ump(free_algebra(K, k)) == []
    assert verify_ump(free_algebra(two_chain_catalog(), 2)) == []


def test_verify_ump_refuses_a_member_past_its_cap(monkeypatch):
    free = free_algebra(AlgebraCatalog("heyting", (chain_heyting(5),)), 1)
    with pytest.raises(
        CapExceeded,
        match=r"member 0 has 5 elements; verify_ump checks at most 4 [(]UMP_MEMBER_CAP[)]; "
        "no flag raises it",
    ):
        verify_ump(free)
    # The refusal comes before any member is checked, the small ones included
    free = free_algebra(AlgebraCatalog("heyting", (chain_heyting(2), chain_heyting(5))), 1)

    def no_check(*args):
        raise AssertionError("a member was checked before the refusal")

    monkeypatch.setattr(freealg, "ump_extension_count", no_check)
    with pytest.raises(CapExceeded, match="member 1 has 5 elements"):
        verify_ump(free)


def test_ump_count_outside_the_class():
    free = free_algebra(two_chain_catalog(), 1)
    # no boolean-algebra hom lands the generator on the middle of a 3-chain
    assert ump_extension_count(free, chain_heyting(3), (1,)) == 0
    assert ump_extension_count(free, chain_heyting(2), (0,)) == 1


def test_weakly_admissible_examples():
    K = goedel_catalog()
    mp = translate(parse_rule("p, p -> q / q", "heyting"))
    res = weakly_admissible_k(K, mp, 1)
    assert res["admissible_k"] and res["restricted_members"] == 2

    # excluded middle keeps only the two-chain, which cannot separate
    # x0 from its double negation in the free algebra
    em = translate(parse_rule("/ p | ~p", "heyting"))
    res = weakly_admissible_k(K, em, 1)
    assert not res["admissible_k"] and res["restricted_members"] == 1

    absurd = translate(parse_rule("/ bot", "heyting"))
    assert not weakly_admissible_k(K, absurd, 1)["admissible_k"]

    with pytest.raises(InputError):
        weakly_admissible_k(K, translate(parse_rule("/ box p", "modal")), 1)


def test_weakly_admissible_certificate_within_budget():
    # The certificate lists each separating homomorphism once: about 11 KB
    # as JSON for the 342-element free algebra, where one witness map per
    # pair of elements took 62 MB.
    K = heyting_catalog(4)
    start = time.perf_counter()
    res = weakly_admissible_k(K, translate(parse_rule("p / p", "heyting")), 2)
    assert time.perf_counter() - start < 1.5
    assert res["admissible_k"] and res["restricted_members"] == len(K.members)
    assert len(json.dumps(res["certificate"])) < 64 * 1024


def restrictions(r):
    """Every subset of range(r), the empty one included."""
    return itertools.chain.from_iterable(itertools.combinations(range(r), n) for n in range(r + 1))


@pytest.mark.parametrize(
    "K, k",
    [(heyting_catalog(4), 1), (heyting_catalog(4), 2), (heyting_catalog(5), 1), (interior_catalog(2), 1)],
    ids=["heyting4-k1", "heyting4-k2", "heyting5-k1", "interior2-k1"],
)
def test_quasivariety_from_the_projections_matches_the_search(K, k):
    # Every 1- to 3-member subcatalog against each of its restrictions:
    # 966 pairs over the four cases.  The projection columns must give the
    # search's verdict and certificate to the byte.
    for r in (1, 2, 3):
        for sub in itertools.combinations(K.members, r):
            free = free_algebra(AlgebraCatalog(K.kind, sub), k)
            for kept in restrictions(r):
                want = class_membership(free.algebra, AlgebraCatalog(K.kind, tuple(sub[i] for i in kept)), "quasivariety")
                assert json.dumps(freealg._in_quasivariety(free, list(kept))) == json.dumps(want)


def test_admissibility_runs_no_hom_search(monkeypatch):
    K, I = goedel_catalog(), interior_catalog(2)
    rules = enumerate_rules("heyting", 1, 0, 2)
    modal_rules = [translate(r) for r in enumerate_rules("modal", 1, 0, 2)]
    want = report_one_at_a_time(K, [translate(r) for r in rules], 0)
    want_modal = report_one_at_a_time(I, modal_rules, 0, "universal")
    assert want["violations"] and want_modal["violations"]

    def no_search(F, A):
        raise AssertionError("a homomorphism search ran")

    monkeypatch.setattr(bridge, "_homs", no_search)
    assert not weakly_admissible_k(K, translate(parse_rule("/ p | ~p", "heyting")), 1)["admissible_k"]
    assert weakly_admissible_k(heyting_catalog(4), translate(parse_rule("p / p", "heyting")), 2)["admissible_k"]
    assert weakly_admissible_k(I, translate(parse_rule("box p / p", "modal")), 1)["admissible_k"]
    assert completeness_report_k(K, rules, 0) == want
    assert completeness_report_k(K, [translate(r) for r in rules], 0) == want
    assert completeness_report_k(I, modal_rules, 0, "universal") == want_modal


def test_completeness_report_clean_class():
    from grzlab.ulogic import enumerate_rules

    K = two_chain_catalog()
    candidates = [translate(r) for r in enumerate_rules("heyting", 1, 1, depth=0)]
    assert len(candidates) == 12
    rep = completeness_report_k(K, candidates, 1)
    assert rep["checked"] == 12 and rep["violations"] == []
    assert rep["mode"] == "structural" and rep["k"] == 1


def test_completeness_report_flags_underbounded_k():
    # at bound 0 the free algebra cannot see the variable, so excluded
    # middle counts as admissible and gets reported against the 3-chain
    K = goedel_catalog()
    em = translate(parse_rule("/ p | ~p", "heyting"))
    rep = completeness_report_k(K, [em], 0)
    assert len(rep["violations"]) == 1
    record = rep["violations"][0]
    assert record["failing_member"] == 1
    assert record["counterexample"] == {"p": 1}
    assert record["conclusions"] == [["p | ~p", "top"]]


def test_completeness_report_modes():
    K = two_chain_catalog()
    multi = translate(parse_rule("/ p, ~p", "heyting"))
    with pytest.raises(InputError):
        completeness_report_k(K, [multi], 1, mode="structural")
    rep = completeness_report_k(K, [multi], 1, mode="universal")
    assert rep["violations"] == []
    with pytest.raises(InputError):
        completeness_report_k(K, [], 1, mode="sound")


def report_one_at_a_time(K, candidates, k, mode="structural"):
    """The falsifier as a loop that scans each candidate on its own."""
    free = free_algebra(K, k)
    memo, violations = {}, []
    for v in candidates:
        if mode == "structural" and len(v.conclusions) != 1:
            raise InputError("structural mode admits only single-conclusion candidates")
        failing = {i: t for _, i, t in refutations(K, [v])}
        holds = tuple(i not in failing for i in range(len(K.members)))
        if holds not in memo:
            kept = AlgebraCatalog(K.kind, tuple(A for h, A in zip(holds, K.members) if h))
            memo[holds] = class_membership(free.algebra, kept, "quasivariety")["holds"]
        if memo[holds] and failing:
            i, t = next(iter(failing.items()))
            record = sentence_to_json(v)
            record["failing_member"], record["counterexample"] = i, assignment(v.variables, t, K.members[i].size)
            violations.append(record)
    return {"mode": mode, "k": k, "checked": len(candidates), "violations": violations}


def outcome(report, *args):
    try:
        return report(*args)
    except GrzlabError as exc:
        return type(exc), str(exc)


def test_completeness_report_refuses_where_the_loop_does():
    K = goedel_catalog()
    em = translate(parse_rule("/ p | ~p", "heyting"))
    lin = translate(parse_rule("/ (p -> q) | (q -> p)", "heyting"))
    multi = translate(parse_rule("/ p, ~p", "heyting"))
    # 2**24 assignments on the two-chain, past EVAL_CAP.
    wide = UniversalSentence((), ((Var("p"), Const("top")),), "heyting", ("p",) + tuple(f"x{i}" for i in range(23)))
    box = translate(parse_rule("/ box p -> p", "modal"))
    cases = [
        ([em, lin, multi, wide], "structural", InputError),
        ([em, lin, multi, wide], "universal", CapExceeded),
        ([em, wide, multi], "structural", CapExceeded),
        ([wide, multi], "structural", CapExceeded),
        ([lin, box, wide], "universal", InputError),
        ([em, lin, multi], "universal", None),  # em and multi fail on the three-chain
    ]
    for candidates, mode, refusal in cases:
        want = outcome(report_one_at_a_time, K, candidates, 0, mode)
        assert outcome(completeness_report_k, K, candidates, 0, mode) == want
        assert want[0] is refusal if refusal else len(want["violations"]) == 2
    assert outcome(completeness_report_k, K, [em, wide], 0)[1].startswith(
        "sentence needs 16777216 assignments on catalog member 0 (2 elements), cap is 10000000"
    )


def test_completeness_report_over_the_criterion_10_candidates_within_budget():
    # One batched scan of all 89,432 candidates on the two-chain.  It took
    # about 0.5 s on a 2-CPU x86_64 host, where one scan per candidate took
    # about 2 s.
    candidates = [translate(r) for r in enumerate_rules("heyting", 2, 2)]
    start = time.perf_counter()
    rep = completeness_report_k(two_chain_catalog(), candidates, 2)
    assert time.perf_counter() - start < 2.0
    assert rep["checked"] == 89432 and rep["violations"] == []


@pytest.mark.parametrize(
    "K, k, mode, space",
    [
        (two_chain_catalog(), 2, "structural", ("heyting", 2, 2, 1)),
        (heyting_catalog(4), 1, "structural", ("heyting", 2, 2, 1)),
        (heyting_catalog(4), 1, "universal", ("heyting", 2, 2, 1)),
        (interior_catalog(2), 1, "structural", ("modal", 2, 1, 1)),
        # Underbounded: each of these reports violations.
        (goedel_catalog(), 0, "structural", ("heyting", 1, 0, 2)),
        (heyting_catalog(4), 0, "universal", ("heyting", 1, 0, 2)),
        (interior_catalog(2), 0, "universal", ("modal", 1, 0, 2)),
    ],
    ids=["two-chain", "heyting4-structural", "heyting4-universal", "interior2", "goedel-k0", "heyting4-k0", "interior2-k0"],
)
def test_completeness_report_over_a_rule_space_matches_the_list(K, k, mode, space):
    rules = enumerate_rules(*space)
    want = completeness_report_k(K, [translate(r) for r in rules], k, mode)
    got = completeness_report_k(K, rules, k, mode)
    assert json.dumps(got) == json.dumps(want)
    assert got["checked"] == len(rules)
    assert (k == 0) == bool(got["violations"])


def test_completeness_report_over_a_rule_space_checks_the_failing_member(monkeypatch):
    # Truth rows that move every failure to the two-chain disagree with the
    # scan, which finds each violation failing on the three-chain.
    rules = enumerate_rules("heyting", 1, 0, 2)

    def on_the_two_chain(owner, space):
        fails = ulogic.rule_failures(owner, space)
        moved = np.zeros_like(fails)
        moved[:, 0] = fails.any(axis=1)
        return moved

    monkeypatch.setattr(freealg, "rule_failures", on_the_two_chain)
    with pytest.raises(InternalCheckError, match="first fails on member 1 in a scan, but on member 0 by the truth rows"):
        completeness_report_k(goedel_catalog(), rules, 0)


def test_completeness_report_over_a_list_checks_the_failing_member(monkeypatch):
    # The same disagreement on the list path, where the failure matrix comes
    # from one batched scan: moved to the two-chain there, each violation
    # still fails on the three-chain in a scan of its own.
    candidates = [translate(r) for r in enumerate_rules("heyting", 1, 0, 2)]
    scan = freealg.refutations

    def batched_on_the_two_chain(owner, sents):
        for s, i, t in scan(owner, sents):
            yield s, 0 if len(sents) > 1 else i, t

    monkeypatch.setattr(freealg, "refutations", batched_on_the_two_chain)
    with pytest.raises(InternalCheckError, match="first fails on member 1 in a scan, but on member 0 by the batched scan"):
        completeness_report_k(goedel_catalog(), candidates, 0)


def test_completeness_report_over_a_rule_space_refuses_where_the_list_does(monkeypatch):
    # A Heyting pool on an interior catalog is refused as the list of its
    # sentences is.  A member past EVAL_CAP at the pool's four variables
    # (57**4 assignments) sends the space to the list, which scans each
    # sentence over its own variables.
    def refuse(owner, space):
        raise AssertionError("truth rows were built")

    monkeypatch.setattr(freealg, "rule_failures", refuse)
    rules = enumerate_rules("heyting", 1, 0, 0)
    K = interior_catalog(1)
    want = outcome(completeness_report_k, K, [translate(r) for r in rules], 0)
    assert want[0] is InputError
    assert outcome(completeness_report_k, K, rules, 0) == want
    rules = enumerate_rules("heyting", 4, 0, 0)
    K = AlgebraCatalog("heyting", (chain_heyting(57),))
    want = completeness_report_k(K, [translate(r) for r in rules], 0)
    assert completeness_report_k(K, rules, 0) == want and want["checked"] == 6


def test_completeness_report_on_no_candidates_and_on_one_that_fails_everywhere():
    K = goedel_catalog()
    pool = [ulogic.parse_formula("bot", "heyting"), ulogic.parse_formula("p | ~p", "heyting")]
    assert {i for _, i, _ in refutations(K, [translate(parse_rule("/ bot", "heyting"))])} == {0, 1}
    for premise_sets in ((), ((),)):
        space = ulogic.RuleSpace("heyting", pool, premise_sets)
        sentences = [translate(r) for r in space]
        for mode in ("structural", "universal"):
            want = report_one_at_a_time(K, sentences, 0, mode)
            assert json.dumps(completeness_report_k(K, sentences, 0, mode)) == json.dumps(want)
            assert json.dumps(completeness_report_k(K, space, 0, mode)) == json.dumps(want)
            assert want["checked"] == len(space)
    # "/ bot" keeps no member, and F_K(0) has two elements, so only excluded
    # middle is reported.
    assert [v["conclusions"] for v in want["violations"]] == [[["p | ~p", "top"]]]


MEMBERS = {"heyting": heyting_catalog(4).members, "modal": interior_catalog(2).members}


def refuting_members(K, rules):
    """The (rule, member) failure matrix that scanning each rule's sentence gives."""
    want = np.zeros((len(rules), len(K.members)), dtype=bool)
    for s, i, _ in refutations(K, [translate(r) for r in rules]):
        want[s, i] = True
    return want


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(MEMBERS)),
    st.lists(st.integers(0, 63), min_size=1, max_size=2),
    st.integers(1, 2),
    st.integers(0, 1),
    st.integers(0, 1),
)
def test_rule_failures_match_refutations(signature, picks, max_vars, max_premises, depth):
    pool = MEMBERS[signature]
    K = AlgebraCatalog(signature, tuple(pool[p % len(pool)] for p in picks))
    rules = enumerate_rules(signature, max_vars, max_premises, depth)
    assert np.array_equal(ulogic.rule_failures(K, rules), refuting_members(K, rules))


@pytest.mark.parametrize("K, signature", [(heyting_catalog(5), "heyting"), (interior_catalog(2), "modal")])
def test_rule_failures_over_blocks_that_split_members(monkeypatch, K, signature):
    # Blocks of 10 or 11 coordinates, so most members span two or more
    # blocks and most blocks hold parts of two or more members.
    rules = enumerate_rules(signature, 2, 1, 1)
    monkeypatch.setattr(ulogic, "_CELLS", 40)
    assert np.array_equal(ulogic.rule_failures(K, rules), refuting_members(K, rules))


def test_criterion_10_within_budget():
    # Its candidates judged from the truth rows of their 56 pool formulas:
    # about 0.03 s was measured on a 2-CPU x86_64 host, against 0.6 s when
    # 89,432 sentences were built and scanned.
    start = time.perf_counter()
    ok, detail = check_criterion_10()
    assert time.perf_counter() - start < 0.3
    assert ok and detail == "free size 4, 89432 candidates, zero violations"


def test_sigma_free_checks_small():
    K = two_chain_catalog()
    for k in (0, 1):
        res = sigma_free_checks(K, k)
        assert res["k_bounded"] and res["k"] == k
        assert res["embedding"]["injective"]
        assert res["free_sigma_opens_in_quasivariety"]["holds"]
    assert len(sigma_free_checks(K, 1)["embedding"]["map"]) == 4


def test_sigma_free_checks_place_the_opens_in_the_quasivariety():
    # For K the 4-chain, F_K(1) (six elements) lies in the variety of the
    # 3-chain, while the 4-chain embeds into the 16 opens of F_sigmaK(1); so
    # F_sigmaK(1) does not lie in the quasivariety of B(F_K(1)), but its
    # opens lie in the quasivariety of K.
    for K in (AlgebraCatalog("heyting", (chain_heyting(4),)), heyting_catalog(4)):
        res = sigma_free_checks(K, 1)
        assert res["embedding"]["injective"]
        assert res["free_sigma_opens_in_quasivariety"]["holds"]
    assert {len(h["map"]) for h in res["free_sigma_opens_in_quasivariety"]["certificate"]} == {16}


def test_sigma_free_checks_caps():
    with pytest.raises(InputError):
        sigma_free_checks(AlgebraCatalog("modal", (make_standard("S2"),)), 1)


# ---------------------------------------------------------------------------
# The closure against the naive tuple closures it replaced


def naive_closure(members, k, modal):
    """Every round applies the operations to the elements and pairs that
    involve an element new in the round before, over Python tuples.  The
    other pairs gave only elements interned already, so skipping them keeps
    the elements, their terms and their order."""
    coords = [(A, alpha) for A in members for alpha in itertools.product(range(A.size), repeat=k)]
    elems, terms, seen = [], [], {}

    def intern(t, term):
        if t not in seen:
            seen[t] = len(elems)
            elems.append(t)
            terms.append(term)

    intern(tuple(0 if modal else A.bot for A, _ in coords), Const("bot"))
    intern(tuple(A.top for A, _ in coords), Const("top"))
    for i in range(k):
        intern(tuple(alpha[i] for _, alpha in coords), Var(f"x{i}"))
    old = 0  # the elements before the last round's new ones
    while True:
        n0 = len(elems)
        if modal:
            for i in range(old, n0):
                intern(tuple(A.top ^ x for x, (A, _) in zip(elems[i], coords)), Not(terms[i]))
                intern(tuple(int(A.box[x]) for x, (A, _) in zip(elems[i], coords)), Box(terms[i]))
            for i in range(n0):
                for j in range(old if i < old else 0, n0):
                    pairs = list(zip(elems[i], elems[j]))
                    intern(tuple(x & y for x, y in pairs), And(terms[i], terms[j]))
                    intern(tuple(x | y for x, y in pairs), Or(terms[i], terms[j]))
        else:
            for name, ctor in (("meet", And), ("join", Or), ("imp", Imp)):
                for i in range(n0):
                    for j in range(old if i < old else 0, n0):
                        t = tuple(
                            int(getattr(A, name)[x, y])
                            for x, y, (A, _) in zip(elems[i], elems[j], coords)
                        )
                        intern(t, ctor(terms[i], terms[j]))
        if len(elems) == n0:
            return elems, terms, coords
        old = n0


def naive_free(members, k, modal):
    """Tables (or box), generators and terms numbered as free_algebra numbers them."""
    elems, terms, coords = naive_closure(members, k, modal)
    gens = [tuple(alpha[i] for _, alpha in coords) for i in range(k)]
    if not modal:
        rank = {t: r for r, t in enumerate(sorted(elems))}
        ordered = sorted(elems)
        tables = {
            name: [
                [rank[tuple(int(getattr(A, name)[x, y]) for x, y, (A, _) in zip(a, b, coords))] for b in ordered]
                for a in ordered
            ]
            for name in ("meet", "join", "imp")
        }
        number = rank
    else:
        def leq(s, t):
            return all(x & y == x for x, y in zip(s, t))

        nonzero = [t for t in elems if any(t)]
        atoms = sorted(t for t in nonzero if not any(s != t and leq(s, t) for s in nonzero))
        number = {t: sum(1 << j for j, a in enumerate(atoms) if leq(a, t)) for t in elems}
        box = [0] * len(elems)
        for t in elems:
            box[number[t]] = number[tuple(int(A.box[x]) for x, (A, _) in zip(t, coords))]
        tables = {"box": box}
    terms = [(number[t], to_text(term)) for t, term in zip(elems, terms)]
    return tables, [number[g] for g in gens], terms


NAIVE_CASES = [
    ("heyting", (chain_heyting(n),), k) for n in (2, 3, 4) for k in (0, 1, 2)
] + [
    ("heyting", (chain_heyting(2), chain_heyting(3)), 1),
    ("heyting", (chain_heyting(3), downset_heyting(antichain_poset(2))), 1),
    ("modal", (make_standard("S2"),), 1),
    ("modal", (make_standard("S12"),), 1),
    ("modal", (make_standard("S2"), make_standard("S12")), 1),
    ("modal", (trivial_modal(),), 1),
    ("heyting", (trivial_heyting(),), 1),
]


@pytest.mark.parametrize("kind,members,k", NAIVE_CASES)
def test_free_algebra_matches_the_naive_closure(kind, members, k):
    free = free_algebra(AlgebraCatalog(kind, members), k)
    tables, gens, terms = naive_free(members, k, kind == "modal")
    got = {name: free.algebra.to_record()[name] for name in tables}
    assert got == tables
    assert list(free.generators) == gens
    assert [(e, to_text(t)) for e, t in free.terms.items()] == terms


@st.composite
def small_catalogs(draw):
    """A one- or two-member catalog of Heyting algebras of at most 4
    elements at k = 1 or 2, or of interior algebras on at most 2 points at
    k = 1: at most 32 coordinates.  The 4-chain is left out at k = 2, where
    the naive reference takes 4-8 s per catalog; NAIVE_CASES has it."""
    kind, k = draw(st.sampled_from([("heyting", 1), ("heyting", 2), ("modal", 1)]))
    pool = enumerate_heyting(4) if kind == "heyting" else interior_catalog(2).members
    if k == 2:
        pool = [A for A in pool if A.size < 4 or not (A.leq | A.leq.T).all()]
    members = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2)))
    return kind, members, k


@settings(max_examples=25)
@given(small_catalogs())
def test_free_algebra_matches_the_naive_closure_on_random_catalogs(catalog):
    test_free_algebra_matches_the_naive_closure(*catalog)


def test_element_cap_refuses_at_once():
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="ELEMENT_CAP"):
        free_algebra(AlgebraCatalog("modal", (make_standard("S2"),)), 2)
    assert time.perf_counter() - start < 2.0
    # exactly at the cap the closure finishes
    assert free_algebra(two_chain_catalog(), 2, element_cap=16).algebra.size == 16
    with pytest.raises(CapExceeded, match="ELEMENT_CAP"):
        free_algebra(two_chain_catalog(), 2, element_cap=15)


def test_free_algebra_cap_ladder_within_the_default_caps():
    # The largest closures the default caps admit at k = 2, on one-member
    # catalogs.  On a 2-CPU x86_64 host the 8-chain (64 coordinates, at
    # COORD_CAP) closed in 0.2-0.3 s and the refusal came after 0.2-0.3 s.
    start = time.perf_counter()
    free = free_algebra(AlgebraCatalog("heyting", (chain_heyting(8),)), 2)
    assert time.perf_counter() - start < 3.0
    assert free.algebra.size == 342
    member = heyting_catalog(5).members[6]
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="ELEMENT_CAP"):
        free_algebra(AlgebraCatalog("heyting", (member,)), 2)
    assert time.perf_counter() - start < 2.0


def test_free_algebra_within_the_table_bytes_bound():
    # An element cap past the TABLE_BYTES bound is refused before any
    # closure work, for both kinds; the largest accepted one is named and
    # accepted.
    largest = math.isqrt(freealg.TABLE_BYTES // 12)
    named = f"is past {largest}, the largest accepted --element-cap"
    for K, k in (
        (AlgebraCatalog("heyting", (chain_heyting(3),)), 3),
        (AlgebraCatalog("modal", (make_standard("S2"),)), 2),
    ):
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=f"element cap 2000000 {named}"):
            free_algebra(K, k, element_cap=2_000_000)
        assert time.perf_counter() - start < 0.05
    with pytest.raises(CapExceeded, match=f"element cap {largest + 1} {named}"):
        free_algebra(two_chain_catalog(), 1, element_cap=largest + 1)
    assert free_algebra(two_chain_catalog(), 1, element_cap=largest).algebra.size == 4
    assert free_algebra(AlgebraCatalog("modal", (make_standard("S2"),)), 1, element_cap=largest).algebra.size == 16


def test_free_algebra_past_a_raised_coord_cap_within_budget():
    # The 16-chain at k = 2 needs 256 coordinates, four times COORD_CAP.
    # On a 2-CPU x86_64 host it closed in 0.9 s.
    start = time.perf_counter()
    free = free_algebra(AlgebraCatalog("heyting", (chain_heyting(16),)), 2, coord_cap=256)
    assert time.perf_counter() - start < 5.0
    assert free.algebra.size == 342


def test_free_algebra_cap_ladder_past_the_default_caps():
    # The 24-chain (576 coordinates) and the 91-chain (8,281 coordinates)
    # at k = 2.  On a 2-CPU x86_64 host they closed in about 0.45 s and 7 s,
    # where one pair at a time took 2.1 s and 41 s.
    start = time.perf_counter()
    free = free_algebra(AlgebraCatalog("heyting", (chain_heyting(24),)), 2, coord_cap=576)
    assert time.perf_counter() - start < 2.0
    assert free.algebra.size == 342
    start = time.perf_counter()
    free = free_algebra(AlgebraCatalog("heyting", (chain_heyting(91),)), 2, coord_cap=10000)
    assert time.perf_counter() - start < 20.0
    assert free.algebra.size == 342


# ---------------------------------------------------------------------------
# The closure in blocks of pairs


@pytest.mark.parametrize(
    "cells,kind,members,k",
    [
        (1, "heyting", (chain_heyting(3),), 1),
        (1, "heyting", (chain_heyting(2), chain_heyting(3)), 1),
        (1, "heyting", (chain_heyting(2),), 2),
        (1, "modal", (make_standard("S2"),), 1),
        (1, "modal", interior_catalog(2).members[2:4], 1),
        (50, "heyting", (chain_heyting(3),), 2),
        (50, "heyting", (chain_heyting(3), downset_heyting(antichain_poset(2))), 1),
        (50, "modal", interior_catalog(2).members[2:4], 1),
        (50, "modal", (make_standard("S12"),), 1),
    ],
)
def test_free_algebra_over_blocks_of_any_size(monkeypatch, cells, kind, members, k):
    # One pair per block, and blocks that cut rows of pairs into pieces
    # (5 pairs of 9 coordinates for the 3-chain at k = 2).
    monkeypatch.setattr(freealg, "_CELLS", cells)
    test_free_algebra_matches_the_naive_closure(kind, members, k)
