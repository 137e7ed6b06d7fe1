"""Rule language: parsing, printing, evaluation, enumeration."""

import itertools
import math
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grzlab.bridge import boolean_extension
from grzlab import ulogic
from grzlab.catalog import AlgebraCatalog, heyting_catalog
from grzlab.errors import CapExceeded, GrzlabError, InputError, ParseError
from grzlab.finlat import FinitePoset, chain_heyting, downset_heyting, trivial_heyting
from grzlab.modal import ModalAlgebra, complex_algebra, make_standard, modal_product, trivial_modal
from grzlab.ulogic import (
    And,
    Box,
    Const,
    Imp,
    Not,
    Or,
    Rule,
    UniversalSentence,
    Var,
    catalog_validates,
    enumerate_formulas,
    enumerate_rules,
    eval_formula,
    eval_sentence,
    grz_formula,
    parse,
    parse_formula,
    parse_rule,
    sentence_from_json,
    sentence_to_json,
    substitute,
    to_text,
    translate,
)


def test_parse_precedence():
    f = parse_formula("p -> q -> r", "heyting")
    assert f == Imp(Var("p"), Imp(Var("q"), Var("r")))
    f = parse_formula("p | q & r", "heyting")
    assert f == Or(Var("p"), And(Var("q"), Var("r")))
    f = parse_formula("~p & q", "heyting")
    assert f == And(Not(Var("p")), Var("q"))
    f = parse_formula("box p -> p", "modal")
    assert f == Imp(Box(Var("p")), Var("p"))
    assert parse_formula("top", "heyting") == Const("top")


def test_print_parse_roundtrip():
    texts = [
        "p -> q -> r",
        "(p -> q) -> r",
        "p | q & r",
        "(p | q) & r",
        "~(p & q) | ~~r",
        "box (p | box q)",
        "bot -> top",
    ]
    for text in texts:
        f = parse_formula(text, "modal")
        assert parse_formula(to_text(f), "modal") == f
    assert to_text(parse_formula("(p -> q) -> r", "heyting")) == "(p -> q) -> r"
    assert to_text(grz_formula()) == "box (box (p -> box p) -> p) -> p"


def test_parse_rule_and_rule_text():
    rule = parse_rule("p, p -> q / q", "heyting")
    assert rule.premises == (Var("p"), Imp(Var("p"), Var("q")))
    assert rule.conclusions == (Var("q"),)
    assert rule.variables == ("p", "q")
    text = ", ".join(map(to_text, rule.premises)) + " / " + ", ".join(map(to_text, rule.conclusions))
    assert text == "p, p -> q / q"
    assert parse(text, "heyting") == rule
    assert isinstance(parse("p | ~p", "heyting"), Imp | Or | And | Var | Not)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_formula("p @ q", "heyting")
    assert info.value.pos == 2
    with pytest.raises(ParseError):
        parse_formula("p ->", "heyting")
    with pytest.raises(ParseError):
        parse_formula("p q", "heyting")
    with pytest.raises(ParseError):
        parse_formula("box p", "heyting")
    with pytest.raises(ParseError):
        parse_rule("p / q / r", "heyting")
    with pytest.raises(InputError):
        parse_formula("p", "lattice")


def test_classification():
    sig = "heyting"
    assert translate(parse_rule("/ p | ~p", sig)).classification == "identity"
    assert translate(parse_rule("p, p -> q / q", sig)).classification == "quasi-identity"
    assert translate(parse_rule("/ p, q", sig)).classification == "positive"
    assert translate(parse_rule("p / q, r", sig)).classification == "universal"
    with pytest.raises(InputError):
        translate(parse_rule("/", sig))


def test_substitute():
    f = parse_formula("p -> q", "heyting")
    g = substitute(f, {"p": parse_formula("q & r", "heyting")})
    assert g == parse_formula("(q & r) -> q", "heyting")
    assert substitute(f, {}) == f


def test_excluded_middle_on_chains():
    em = translate(parse_rule("/ p | ~p", "heyting"))
    assert eval_sentence(chain_heyting(2), em) == {
        "valid": True,
        "counterexample": None,
    }
    res = eval_sentence(chain_heyting(3), em)
    assert res == {"valid": False, "counterexample": {"p": 1}}


def test_grz_identity_on_the_standards():
    sent = translate(Rule((), (grz_formula(),), "modal"))
    assert eval_sentence(make_standard("S2"), sent)["counterexample"] == {"p": 1}
    assert eval_sentence(make_standard("S12"), sent)["counterexample"] == {"p": 5}
    B, _ = boolean_extension(chain_heyting(3))
    assert eval_sentence(B, sent)["valid"]


def test_modus_ponens_is_valid_everywhere_here():
    mp = translate(parse_rule("p, p -> q / q", "heyting"))
    for alg in heyting_catalog(5).members:
        assert eval_sentence(alg, mp)["valid"]


def test_counterexample_digit_order():
    # first variable is the most significant digit of the assignment index
    sent = translate(parse_rule("p -> q / q -> p", "heyting"))
    assert sent.variables == ("p", "q")
    res = eval_sentence(chain_heyting(2), sent)
    assert res["counterexample"] == {"p": 0, "q": 1}


def test_zero_variable_sentences():
    sent = translate(parse_rule("/ bot", "heyting"))
    assert eval_sentence(trivial_heyting(), sent)["valid"]
    res = eval_sentence(chain_heyting(2), sent)
    assert res == {"valid": False, "counterexample": {}}


def test_eval_sentence_signature_and_cap():
    em = translate(parse_rule("/ p | ~p", "heyting"))
    with pytest.raises(InputError):
        eval_sentence(make_standard("S2"), em)
    three = translate(parse_rule("/ p | (q -> r)", "heyting"))
    with pytest.raises(CapExceeded):
        eval_sentence(chain_heyting(3), three, cap=10)


def test_sentence_scans_at_the_eval_cap():
    # The largest scans EVAL_CAP admits finish within a budget: 56**4 =
    # 9,834,496 assignments on the 56-chain, 2048**2 = 4,194,304 on the
    # 11-atom discrete algebra.  The 57-chain at four variables is refused
    # at once.
    distributive = translate(parse_rule("/ (p & (q | r)) | s -> ((p & q) | (p & r)) | s", "heyting"))
    box_meet = translate(parse_rule("/ box (p & q) -> box p & box q", "modal"))
    discrete = complex_algebra(FinitePoset(11, np.eye(11, dtype=bool)))
    for alg, sent, budget in ((chain_heyting(56), distributive, 1.0), (discrete, box_meet, 0.5)):
        assert alg.size ** len(sent.variables) <= ulogic.EVAL_CAP
        start = time.perf_counter()
        assert eval_sentence(alg, sent) == {"valid": True, "counterexample": None}
        assert time.perf_counter() - start < budget
    chain57 = chain_heyting(57)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="needs 10556001 assignments on this algebra, cap is 10000000 [(]EVAL_CAP"):
        eval_sentence(chain57, distributive)
    assert time.perf_counter() - start < 0.05


def test_catalog_validates_names_the_first_failure():
    em = translate(parse_rule("/ p | ~p", "heyting"))
    res = catalog_validates(heyting_catalog(3), em)
    assert res == {
        "valid": False,
        "failing_member": 2,
        "counterexample": {"p": 1},
    }
    mp = translate(parse_rule("p, p -> q / q", "heyting"))
    assert catalog_validates(heyting_catalog(3), mp)["valid"]


def test_sentence_json_roundtrip():
    doc = {"premises": [["p", "q"]], "conclusions": [["p & q", "p"]]}
    sent = sentence_from_json(doc, "heyting")
    assert sent.classification == "quasi-identity"
    assert sentence_to_json(sent) == doc
    with pytest.raises(InputError):
        sentence_from_json({"premises": [["p"]]}, "heyting")
    with pytest.raises(InputError):
        sentence_from_json([], "heyting")


def test_eval_formula():
    assert eval_formula(chain_heyting(3), parse_formula("~p", "heyting"), {"p": 1}) == 0
    s12 = make_standard("S12")
    assert eval_formula(s12, parse_formula("box p", "modal"), {"p": 5}) == 4
    assert eval_formula(s12, parse_formula("~p & top", "modal"), {"p": 5}) == 2
    with pytest.raises(InputError):
        eval_formula(chain_heyting(2), Box(Var("p")), {"p": 0})


def test_enumerate_formulas_counts():
    assert len(enumerate_formulas("heyting", ("p", "q"), 0)) == 4
    assert len(enumerate_formulas("heyting", ("p", "q"), 1)) == 56
    assert len(enumerate_formulas("modal", ("p", "q"), 1)) == 60
    with pytest.raises(InputError):
        enumerate_formulas("lattice", ("p",), 1)


@pytest.mark.parametrize("signature, size", [("heyting", 9468), ("modal", 10924)])
def test_enumerate_formulas_refuses_a_round_past_rule_cap(monkeypatch, signature, size):
    # The size a round would reach is computed before the round is built,
    # exactly: a cap equal to it passes, one below it refuses.
    monkeypatch.setattr(ulogic, "RULE_CAP", size)
    assert len(enumerate_formulas(signature, ("p", "q"), 2)) == size
    monkeypatch.setattr(ulogic, "RULE_CAP", size - 1)
    with pytest.raises(CapExceeded, match=f"{size} formulas at depth 2"):
        enumerate_formulas(signature, ("p", "q"), 2)


def test_enumerate_rules_counts():
    rules = enumerate_rules("heyting", 1, 1, depth=0)
    # 3 formulas over one variable at depth 0; up to one premise
    assert len(rules) == (1 + 3) * 3
    assert all(len(r.conclusions) == 1 for r in rules)
    assert len(enumerate_rules("heyting", 2, 2, depth=1)) == 89432


def eager_rules(signature, max_vars, max_premises, depth):
    """Every candidate rule built at once: each premise set, by size and
    in combinations order, with each pool formula as conclusion."""
    pool = enumerate_formulas(signature, ("p", "q", "r", "s")[:max_vars], depth)
    out = []
    for n_prem in range(max_premises + 1):
        for idx in itertools.combinations(range(len(pool)), n_prem):
            for c in range(len(pool)):
                out.append(Rule(tuple(pool[i] for i in idx), (pool[c],), signature))
    return out


@pytest.mark.parametrize(
    "signature, max_vars, max_premises, depth",
    [("heyting", v, m, d) for v in (1, 2) for m in (0, 1, 2) for d in (0, 1)] + [("modal", 1, 1, 1)],
)
def test_rule_space_builds_the_eager_rules(signature, max_vars, max_premises, depth):
    want = eager_rules(signature, max_vars, max_premises, depth)
    space = enumerate_rules(signature, max_vars, max_premises, depth)
    assert len(space) == len(want)

    def same(got, rule):
        return got == rule and got.variables == rule.variables and got.signature == rule.signature

    assert all(same(got, rule) for got, rule in zip(space, want, strict=True))
    assert all(same(space[i], rule) for i, rule in enumerate(want))
    for i in (-1, -2, -len(want)):
        assert same(space[i], want[i])
    for i in (len(want), len(want) + 1, -len(want) - 1):
        with pytest.raises(IndexError):
            space[i]


def test_rule_cap_refusals_name_the_cap_its_default_and_the_flags(monkeypatch):
    with pytest.raises(CapExceeded) as exc:
        enumerate_rules("heyting", 3, 2)
    assert str(exc.value) == (
        "310760 candidate rules requested, RULE_CAP is 100000 (default 100000); "
        "lower --max-vars, --max-premises or --depth, no flag raises it"
    )
    monkeypatch.setattr(ulogic, "RULE_CAP", 1000)
    with pytest.raises(CapExceeded) as exc:
        enumerate_formulas("heyting", ("p", "q"), 2)
    assert str(exc.value) == (
        "9468 formulas at depth 2 requested, RULE_CAP is 1000 (default 100000); "
        "lower --depth or --max-vars, no flag raises it"
    )


# ---------------------------------------------------------------------------
# eval_sentence against a brute-force reference


def ref_value(alg, f, env):
    """One formula under one assignment, straight from the definitions."""
    modal = isinstance(alg, ModalAlgebra)
    bot = 0 if modal else alg.bot
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, Const):
        return bot if f.name == "bot" else alg.top
    if isinstance(f, (Not, Box)):
        x = ref_value(alg, f.arg, env)
        if isinstance(f, Box):
            return int(alg.box[x])
        return alg.top ^ x if modal else int(alg.imp[x, bot])
    x, y = ref_value(alg, f.left, env), ref_value(alg, f.right, env)
    if modal:
        return {And: x & y, Or: x | y, Imp: (alg.top ^ x) | y}[type(f)]
    return int({And: alg.meet, Or: alg.join, Imp: alg.imp}[type(f)][x, y])


def ref_eval_sentence(alg, sent):
    """Assignments in lexicographic order, first variable most significant."""
    for values in itertools.product(range(alg.size), repeat=len(sent.variables)):
        env = dict(zip(sent.variables, values))
        holds = [ref_value(alg, l, env) == ref_value(alg, r, env) for l, r in sent.premises + sent.conclusions]
        n = len(sent.premises)
        if all(holds[:n]) and not any(holds[n:]):
            return {"valid": False, "counterexample": env}
    return {"valid": True, "counterexample": None}


def random_formula(rng, signature, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Var(v) for v in names] + [Const("bot"), Const("top")])
    ctors = [Not, And, Or, Imp] + ([Box] if signature == "modal" else [])
    ctor = rng.choice(ctors)
    if ctor in (Not, Box):
        return ctor(random_formula(rng, signature, names, depth - 1))
    return ctor(random_formula(rng, signature, names, depth - 1), random_formula(rng, signature, names, depth - 1))


def random_sentence(rng, signature, names):
    def equation():
        lhs = random_formula(rng, signature, names, 3)
        rhs = Const("top") if rng.random() < 0.5 else random_formula(rng, signature, names, 2)
        return lhs, rhs

    n_concl = rng.randrange(3)
    n_prem = rng.randrange(0 if n_concl else 1, 3)  # at least one equation
    prem = tuple(equation() for _ in range(n_prem))
    concl = tuple(equation() for _ in range(n_concl))
    variables = []
    for l, r in prem + concl:
        ulogic.formula_vars(l, variables)
        ulogic.formula_vars(r, variables)
    return UniversalSentence(prem, concl, signature, tuple(variables))


def random_poset(rng, n):
    leq = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            leq[i, j] = rng.random() < 0.4
    for k in range(n):
        leq |= leq[:, [k]] & leq[[k], :]
    return FinitePoset(n, leq)


def test_eval_sentence_matches_brute_force():
    rng = random.Random(20261018)
    S2 = make_standard("S2")
    outcomes = {"heyting": set(), "modal": set()}
    for _ in range(300):
        P = random_poset(rng, rng.randrange(1, 5))
        if rng.random() < 0.5:
            alg, signature, names = downset_heyting(P), "heyting", ("p", "q", "r")
        else:
            alg = complex_algebra(P)
            if rng.random() < 0.5:
                alg = modal_product([alg, S2])
            signature, names = "modal", ("p", "q")
        sent = random_sentence(rng, signature, names)
        want = ref_eval_sentence(alg, sent)
        assert eval_sentence(alg, sent) == want
        outcomes[signature].add(want["valid"])
    assert outcomes == {"heyting": {True, False}, "modal": {True, False}}


def test_eval_sentence_least_counterexample_past_the_first_block():
    # 16 elements, 4 variables: 65,536 assignments; the least one refuting
    # p = top / q = r has p = top, so it lies far past the first block.
    alg = downset_heyting(FinitePoset(4, np.eye(4, dtype=bool)))
    sent = sentence_from_json({"premises": [["p", "top"]], "conclusions": [["q", "r"]]}, "heyting")
    sent = UniversalSentence(sent.premises, sent.conclusions, "heyting", ("p", "q", "r", "s"))
    res = eval_sentence(alg, sent)
    assert res == ref_eval_sentence(alg, sent)
    assert res["counterexample"] == {"p": alg.top, "q": 0, "r": 1, "s": 0}


# ---------------------------------------------------------------------------
# The catalog-wide scan against the per-member loop it replaced


def np_value(alg, f, env):
    """Values of f over whole assignment vectors, straight from one member's tables."""
    modal = isinstance(alg, ModalAlgebra)
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, Const):
        return (0 if modal else alg.bot) if f.name == "bot" else alg.top
    if isinstance(f, (Not, Box)):
        x = np_value(alg, f.arg, env)
        if isinstance(f, Box):
            return alg.box[x]
        return alg.top ^ x if modal else alg.imp[x, alg.bot]
    x, y = np_value(alg, f.left, env), np_value(alg, f.right, env)
    if modal:
        return {And: x & y, Or: x | y, Imp: (alg.top ^ x) | y}[type(f)]
    return {And: alg.meet, Or: alg.join, Imp: alg.imp}[type(f)][x, y]


def member_failures(members, sent, cap=ulogic.EVAL_CAP):
    """The per-member loop: each member scanned alone, all of its
    assignments at once; yields (member, least counterexample)."""
    n = len(sent.variables)
    for i, alg in enumerate(members):
        total = alg.size**n
        if total > cap:
            raise CapExceeded(
                f"sentence needs {total} assignments on catalog member {i} "
                f"({alg.size} elements), cap is {cap} "
                f"(EVAL_CAP, default {ulogic.EVAL_CAP}); raise --cap or use fewer variables"
            )
        # Row v holds variable v's value in every assignment, in lexicographic order.
        grid = np.indices((alg.size,) * n).reshape(n, total)
        env = dict(zip(sent.variables, grid))
        bad = np.ones(total, dtype=bool)
        for lhs, rhs in sent.premises:
            bad &= np_value(alg, lhs, env) == np_value(alg, rhs, env)
        for lhs, rhs in sent.conclusions:
            bad &= np_value(alg, lhs, env) != np_value(alg, rhs, env)
        if bad.any():
            j = int(np.argmax(bad))
            yield i, {v: int(env[v][j]) for v in sent.variables}


def scan(K, sent, cap=ulogic.EVAL_CAP):
    """The catalog scan of one sentence: (member, least counterexample) pairs."""
    for _, i, t in ulogic.refutations(K, [sent], cap):
        yield i, ulogic.assignment(sent.variables, t, K.members[i].size)


def first_failure(members, sent, cap=ulogic.EVAL_CAP):
    for i, cex in member_failures(members, sent, cap):
        return {"valid": False, "failing_member": i, "counterexample": cex}
    return {"valid": True, "failing_member": None, "counterexample": None}


def random_catalog(rng, signature, count):
    members = []
    for _ in range(count):
        P = random_poset(rng, rng.randrange(0, 4))
        members.append(downset_heyting(P) if signature == "heyting" else complex_algebra(P))
    return AlgebraCatalog(signature, tuple(members))


def assert_scan_matches(K, sent):
    """The catalog scan, its first failure and each member's own scan agree
    with the per-member loop; returns the loop's failures."""
    want = list(member_failures(K.members, sent))
    assert list(scan(K, sent)) == want
    first = {"valid": True, "failing_member": None, "counterexample": None}
    if want:
        first = {"valid": False, "failing_member": want[0][0], "counterexample": want[0][1]}
    assert catalog_validates(K, sent) == first
    for i, A in enumerate(K.members):
        cex = dict(want).get(i)
        assert eval_sentence(A, sent) == {"valid": cex is None, "counterexample": cex}
    return want


def test_catalog_scan_matches_the_per_member_loop():
    rng = random.Random(20261023)
    place = random.Random(20261019)
    names = ("p", "q", "r", "s")
    seen = {"heyting": set(), "modal": set()}
    for trial in range(240):
        signature = ("heyting", "modal")[trial % 2]
        K = random_catalog(rng, signature, rng.randrange(1, 6))
        nvars = trial % 5  # 0 to 4 variables
        if nvars == 4:  # keep the brute force small
            K = AlgebraCatalog(signature, tuple(A for A in K.members if A.size <= 4) or K.members[:1])
        # Now and then a member over one block, scanned alone in one
        # sub-box: an 11- or 10-chain at four variables, a 7-point complex
        # algebra at two.
        big = {4: chain_heyting(10 + trial % 20 // 10), 7: complex_algebra(random_poset(place, 7))}.get(trial % 10)
        if big is not None:
            at = place.randrange(len(K.members) + 1)
            K = AlgebraCatalog(signature, K.members[:at] + (big,) + K.members[at:])
        sent = random_sentence(rng, signature, names[: max(nvars, 1)])
        # With no variables, every formula is closed by a constant for p.
        close = {} if nvars else {"p": Const(rng.choice(("bot", "top")))}
        sent = UniversalSentence(
            tuple((substitute(l, close), substitute(r, close)) for l, r in sent.premises),
            tuple((substitute(l, close), substitute(r, close)) for l, r in sent.conclusions),
            signature,
            names[:nvars],
        )
        seen[signature].add(bool(assert_scan_matches(K, sent)))
    assert seen == {"heyting": {True, False}, "modal": {True, False}}


def test_catalog_scan_on_one_element_algebras():
    for K, sig in (
        (AlgebraCatalog("heyting", (trivial_heyting(), chain_heyting(2), trivial_heyting())), "heyting"),
        (AlgebraCatalog("modal", (trivial_modal(), make_standard("S2"))), "modal"),
    ):
        for text in ("/ bot", "/ p | ~p", "p / bot", "p -> q / q -> p", "/ p, q, r, s"):
            sent = translate(parse_rule(text, sig))
            assert list(scan(K, sent)) == list(member_failures(K.members, sent))
            assert catalog_validates(K, sent) == first_failure(K.members, sent)


def two_below_one():
    """Downsets of two points under a third: not a chain, so (p -> r) | (r -> p) fails."""
    leq = np.eye(3, dtype=bool)
    leq[1, 0] = leq[2, 0] = True
    return downset_heyting(FinitePoset(3, leq))


def lines_through_blocks():
    """A catalog whose first refutation lies past the first block boundary,
    in its third member.  Each 10-chain has more than one block of
    assignments and is scanned alone in one sub-box of 10,000 uint16
    cells; no premise holds in it, so the scan leaves it early."""
    chain10, chain3 = chain_heyting(10), chain_heyting(3)
    K = AlgebraCatalog("heyting", (chain10, chain3, two_below_one(), chain10, two_below_one()))
    doc = {"premises": [["q", "top"]], "conclusions": [["(p -> r) | (r -> p)", "top"]]}
    sent = sentence_from_json(doc, "heyting")
    return K, UniversalSentence(sent.premises, sent.conclusions, "heyting", ("q", "p", "r", "s"))


def sentence_over(K, doc, variables):
    """The sentence of a JSON document over these variables, in this order."""
    sent = sentence_from_json(doc, K.kind)
    return UniversalSentence(sent.premises, sent.conclusions, K.kind, variables)


def test_catalog_scan_across_block_boundaries():
    K, sent = lines_through_blocks()
    block = ulogic._BLOCK
    totals = [A.size**4 for A in K.members]
    assert sum(totals) > 2 * block and totals[0] > block
    # q is the first digit: q = top (9) never occurs in the first block.
    assert (block - 1) // 1000 < 9
    want = list(member_failures(K.members, sent))
    assert [i for i, _ in want] == [2, 4]
    assert sum(totals[:2]) + ulogic_index(want[0][1], sent.variables, 4) > block
    assert list(scan(K, sent)) == want
    assert catalog_validates(K, sent) == first_failure(K.members, sent)
    # A member that fails in its first sub-box, so the rest of it is
    # skipped, and a 9-chain that fails inside a flat block and runs on
    # into the next one.
    em = UniversalSentence((), ((parse_formula("p | ~p", "heyting"), Const("top")),), "heyting", ("p", "q", "r", "s"))
    chain9 = chain_heyting(9)
    K2 = AlgebraCatalog("heyting", (chain_heyting(2), chain_heyting(10), two_below_one(), chain9, chain9, chain_heyting(2)))
    assert [i for i, _ in assert_scan_matches(K2, em)] == [1, 2, 3, 4]

    # Members over one block are scanned alone, in sub-boxes of their
    # assignment product, with small members before, between and after
    # them.  A sub-box holds 32,768 uint16 values on a chain and 65,536
    # uint8 values on a complex algebra of at most 8 atoms.  At four
    # variables the 10-, 11- and 13-chains fit in one sub-box each, and on
    # the 14-chain (38,416 assignments) the first variable runs over 0-10
    # and 11-13.  On a 7-point complex algebra (128 elements) one sub-box
    # holds all 16,384 assignments at two variables; at three the first
    # variable runs four values at a time, in 32 sub-boxes.  At eight
    # variables on the 5-chain the first is fixed and the second runs over
    # 0-1, 2-3 and 4.
    chains = AlgebraCatalog(
        "heyting",
        (two_below_one(), chain_heyting(10), chain_heyting(2), chain_heyting(11), chain_heyting(11), chain9, two_below_one()),
    )
    seven = complex_algebra(random_poset(random.Random(7), 7))
    frames = AlgebraCatalog("modal", (make_standard("S2"), seven, complex_algebra(random_poset(random.Random(3), 3)), seven, trivial_modal()))
    one_seven = AlgebraCatalog("modal", (make_standard("S2"), seven, trivial_modal()))
    chains14 = AlgebraCatalog("heyting", (two_below_one(), chain_heyting(14), chain_heyting(3), chain_heyting(14)))
    pqrs, upqr, puqr = ("p", "q", "r", "s"), ("u", "p", "q", "r"), ("p", "u", "q", "r")
    late = {"premises": [["p", "top"]], "conclusions": [["q | ~q", "top"]]}
    cases = [
        (chains, late, pqrs),  # the premise empties the first sub-box
        (chains, late, upqr),  # a first variable no formula uses
        (chains, late, puqr),
        (chains, {"conclusions": [["(p -> q) | (q -> p)", "top"], ["r & s", "bot"]]}, pqrs),
        (chains, {"premises": [["p", "top"], ["s", "top"]]}, pqrs),  # no conclusion
        (chains, {"premises": [["top", "top"]], "conclusions": [["bot", "top"]]}, pqrs),  # constant sides
        (chains, {"premises": [["bot", "top"]], "conclusions": [["p", "q"]]}, pqrs),
        (chains, {"conclusions": [["(p & (q | r)) | s", "((p & q) | (p & r)) | s"]]}, pqrs),
        (frames, {"premises": [["p", "top"]], "conclusions": [["q", "box q"]]}, ("p", "q")),
        (frames, {"conclusions": [["p", "box p"], ["q", "top"]]}, ("p", "q")),
        (frames, {"conclusions": [["box (p & q)", "box p & box q"]]}, ("p", "q")),
        (frames, {"conclusions": [["p", "box p"]]}, ("u", "p")),
        (frames, {"premises": [["p | q", "top"], ["p & q", "bot"], ["box p", "p"]]}, ("p", "q")),
        (frames, {"conclusions": [["top", "bot"]]}, ("p", "q")),
        (one_seven, {"premises": [["p", "top"], ["q", "top"]], "conclusions": [["r", "box r"]]}, ("p", "q", "r")),
        (one_seven, {"conclusions": [["box (p & q) & r", "box p & box q & r"]]}, ("p", "q", "r")),
        (one_seven, {"conclusions": [["p & q", "box (p & q)"]]}, ("u", "p", "q")),
        (
            AlgebraCatalog("heyting", (chain_heyting(3), chain_heyting(13), chain_heyting(2))),
            # Refuted by s < r < q < p above bot, so first at p = 4.
            {
                "premises": [["q -> p", "top"], ["r -> q", "top"], ["s -> r", "top"]],
                "conclusions": [["p", "q"], ["q", "r"], ["r", "s"], ["s", "bot"]],
            },
            pqrs,
        ),
        (
            AlgebraCatalog("heyting", (chain_heyting(2), chain_heyting(5))),
            {"premises": [["p", "top"], ["q", "bot"]], "conclusions": [["r | ~r", "top"]]},
            ("p", "q", "r", "s", "t", "u", "v", "w"),
        ),
        (chains14, late, pqrs),  # refuted in the 14-chains' second sub-box
        (chains14, late, upqr),
        (chains14, {"conclusions": [["(p & (q | r)) | s", "((p & q) | (p & r)) | s"]]}, pqrs),
    ]
    found = []
    for K, doc, variables in cases:
        assert any(A.size ** len(variables) > block for A in K.members)
        found.append(assert_scan_matches(K, sentence_over(K, doc, variables)))
    assert found[0][:2] == [(0, {"p": 4, "q": 1, "r": 0, "s": 0}), (1, {"p": 9, "q": 1, "r": 0, "s": 0})]
    assert found[1][1] == (1, {"u": 0, "p": 9, "q": 1, "r": 0})
    assert found[4][3] == (3, {"p": 10, "q": 0, "r": 0, "s": 10})
    assert found[6] == found[7] == found[10] == found[15] == []
    assert found[8][1] == (1, {"p": seven.top, "q": 2})
    assert found[14][1] == (1, {"p": seven.top, "q": seven.top, "r": 2})
    assert found[17] == [(1, {"p": 4, "q": 3, "r": 2, "s": 1})]
    assert found[18] == [(1, {"p": 4, "q": 0, "r": 1, "s": 0, "t": 0, "u": 0, "v": 0, "w": 0})]
    # The 14-chain and the 7-point complex algebra at three variables
    # still take several sub-boxes, and their least counterexamples lie
    # past the first one.
    assert len(sub_boxes(chain_heyting(14), 4)) == 2 and len(sub_boxes(seven, 3)) == 32
    assert found[19][1:] == [(1, {"p": 13, "q": 1, "r": 0, "s": 0}), (2, {"p": 2, "q": 1, "r": 0, "s": 0}), (3, {"p": 13, "q": 1, "r": 0, "s": 0})]
    assert found[20][1] == (1, {"u": 0, "p": 13, "q": 1, "r": 0})
    assert found[21] == []
    # The brute-force reference, assignment by assignment, on the members
    # over one block where the least counterexample lies in a later block.
    for K, doc, variables in cases[:3]:
        sent = sentence_over(K, doc, variables)
        for A in K.members[1], K.members[3]:
            assert eval_sentence(A, sent) == ref_eval_sentence(A, sent)


def ulogic_index(cex, variables, size):
    idx = 0
    for v in variables:
        idx = idx * size + cex[v]
    return idx


def sub_boxes(A, nvars):
    """The sub-boxes ``box_layout`` scans A's assignments in, in order:
    (first assignment, shape, ops, variable values) each."""
    t, boxes = 0, []
    while t < A.size**nvars:
        ops, shape, digits = ulogic.box_layout(A, nvars, t)
        boxes.append((t, shape, ops, digits))
        t += math.prod(shape)
    return boxes


def test_sub_boxes_hold_one_block_of_bytes_in_the_narrowest_dtype():
    # Per member and number of variables: the values' dtype and, per
    # sub-box, how many values of the running variable it takes.
    seven, eight, nine = (complex_algebra(random_poset(random.Random(n), n)) for n in (7, 8, 9))
    cases = [
        (chain_heyting(10), 4, "uint16", [10]),  # fits in one sub-box: m = nvars - 1
        (chain_heyting(14), 4, "uint16", [11, 3]),
        (chain_heyting(256), 2, "uint16", [128, 128]),
        (chain_heyting(257), 2, "int32", [63, 63, 63, 63, 5]),
        (seven, 2, "uint8", [128]),
        (seven, 3, "uint8", [4] * 32),
        (eight, 2, "uint8", [256]),  # 65,536 assignments: exactly one sub-box
        (nine, 2, "uint16", [64] * 8),
        (chain_heyting(5), 8, "uint16", [2, 2, 1] * 5),
    ]
    for A, nvars, dtype, runs in cases:
        boxes = sub_boxes(A, nvars)
        assert [shape[0] for _, shape, _, _ in boxes] == runs
        for t, shape, ops, digits in boxes:
            cells = math.prod(shape)
            assert ops.dtype == dtype and cells * ops.dtype.itemsize <= ulogic._BLOCK * 8
            assert all(d.dtype == dtype for d in digits if isinstance(d, np.ndarray))
            # Read in C order, the sub-box is assignments t, t+1, ...
            index = 0
            for d in digits:
                index = index * A.size + np.asarray(d, dtype=np.int64)
            assert np.array_equal(np.broadcast_to(index, shape).ravel(), np.arange(t, t + cells))


def test_scan_on_both_sides_of_each_dtype_switch():
    """Each case scans valid identities and a sentence refuted first at
    p = top, so in a boxed member's last sub-box, against the per-member
    loop: uint16 and int32 Heyting tables (the 256- and 257-chains),
    uint8 and uint16 masks (8 and 9 atoms), alone and in catalogs that mix
    both sides in one flat block (one variable) or in flat blocks and
    sub-boxes (two variables)."""
    seven, eight, nine = (complex_algebra(random_poset(random.Random(n), n)) for n in (7, 8, 9))
    S2, c256, c257 = make_standard("S2"), chain_heyting(256), chain_heyting(257)
    heyting2 = (
        {"conclusions": [["p & (p -> q)", "p & q"]]},
        {"conclusions": [["~(p | q)", "~p & ~q"]]},
        {"premises": [["p", "top"]], "conclusions": [["q | ~q", "top"]]},
    )
    modal2 = (
        {"conclusions": [["box (p & q)", "box p & box q"]]},
        {"conclusions": [["box box (p -> q)", "box (p -> q)"]]},
        {"premises": [["p", "top"]], "conclusions": [["q", "box q"]]},
    )
    heyting1 = ({"conclusions": [["~~~p", "~p"]]}, {"premises": [["p", "top"]], "conclusions": [["p", "bot"]]})
    modal1 = ({"conclusions": [["box box p", "box p"]]}, {"premises": [["p", "top"]], "conclusions": [["p", "bot"]]})
    cases = [
        ((c256,), heyting2, 2),
        ((c257,), heyting2, 2),
        ((eight,), modal2, 2),
        ((nine,), modal2, 2),
        ((chain_heyting(2), chain_heyting(90), c256, chain_heyting(3), c257, two_below_one()), heyting2, 2),
        ((S2, seven, eight, trivial_modal(), nine, S2), modal2, 2),
        ((c256, two_below_one(), c257, chain_heyting(2)), heyting1, 1),
        ((c257, c256), heyting1, 1),
        ((eight, trivial_modal(), nine, S2), modal1, 1),
        ((nine, eight), modal1, 1),
    ]
    for members, docs, nvars in cases:
        K = AlgebraCatalog("modal" if isinstance(members[0], ModalAlgebra) else "heyting", members)
        sents = [sentence_over(K, doc, ("p", "q")[:nvars]) for doc in docs]
        *valid, refuted = (assert_scan_matches(K, sent) for sent in sents)
        assert all(v == [] for v in valid)
        assert {i for i, A in enumerate(members) if A.size > 2} <= {i for i, _ in refuted}
        for i, cex in refuted:
            A = members[i]
            assert cex["p"] == A.top
            if A.size**nvars > ulogic._BLOCK:
                assert ulogic_index(cex, sents[-1].variables, A.size) >= sub_boxes(A, nvars)[-1][0]
        # The sentences in one scan give the same refutations.
        want = [(len(sents) - 1, i, ulogic_index(cex, sents[-1].variables, members[i].size)) for i, cex in refuted]
        assert sorted(ulogic.refutations(K, sents)) == want


def test_catalog_scan_cap_order():
    K, sent = lines_through_blocks()
    tail = AlgebraCatalog("heyting", K.members[1:])
    # Member 1 fails before member 2 (10**4 assignments) passes the cap.
    got = catalog_validates(tail, sent, cap=5000)
    assert got == first_failure(tail.members, sent, cap=5000) and got["failing_member"] == 1
    # All members before the first one over the cap hold: the same refusal.
    holds = translate(parse_rule("p, p -> q / q", "heyting"))
    holds = UniversalSentence(holds.premises, holds.conclusions, "heyting", ("p", "q", "r", "s"))
    with pytest.raises(CapExceeded) as want:
        first_failure(tail.members, holds, cap=5000)
    with pytest.raises(CapExceeded) as got:
        catalog_validates(tail, holds, cap=5000)
    assert str(got.value) == str(want.value) == (
        "sentence needs 10000 assignments on catalog member 2 (10 elements), cap is 5000 "
        "(EVAL_CAP, default 10000000); raise --cap or use fewer variables"
    )
    with pytest.raises(CapExceeded) as got:
        eval_sentence(chain_heyting(10), holds, cap=9999)
    assert str(got.value) == (
        "sentence needs 10000 assignments on this algebra, cap is 9999 "
        "(EVAL_CAP, default 10000000); raise --cap or use fewer variables"
    )
    # A full scan for per-member verdicts refuses after the members before it.
    with pytest.raises(CapExceeded):
        dict(scan(tail, sent, cap=5000))
    # Members over one block before the refused one are scanned in sub-boxes.
    boxed = AlgebraCatalog("heyting", (chain_heyting(10), two_below_one(), chain_heyting(11), chain_heyting(3)))
    for cap in (12000, 9999):
        for s in (sent, holds):
            want = until_refused(member_failures(boxed.members, s, cap))
            assert until_refused(scan(boxed, s, cap)) == want
    assert until_refused(scan(boxed, sent, 12000)) == (
        [(1, {"q": 4, "p": 1, "r": 2, "s": 0})],
        "sentence needs 14641 assignments on catalog member 2 (11 elements), cap is 12000 "
        "(EVAL_CAP, default 10000000); raise --cap or use fewer variables",
    )


def until_refused(failures):
    """What a scan yields before it is refused, and the refusal."""
    got = []
    with pytest.raises(CapExceeded) as refusal:
        got.extend(failures)
    return got, str(refusal.value)


def test_catalog_scan_signature_mismatch():
    em = translate(parse_rule("/ p | ~p", "heyting"))
    box = translate(parse_rule("/ box p -> p", "modal"))
    with pytest.raises(InputError):
        catalog_validates(AlgebraCatalog("modal", (make_standard("S2"),)), em)
    with pytest.raises(InputError):
        catalog_validates(heyting_catalog(3), box)
    with pytest.raises(InputError):
        eval_sentence(make_standard("S12"), em)
    with pytest.raises(InputError, match="cannot evaluate on AlgebraCatalog"):
        eval_sentence(heyting_catalog(3), em)
    # An empty catalog holds everything, with nothing to check.
    assert catalog_validates(AlgebraCatalog("modal", ()), em)["valid"]


@st.composite
def downset_catalogs(draw):
    """Catalogs of the downset algebras of posets on up to three points."""
    members = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 3))
        leq = np.eye(n, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                leq[i, j] = draw(st.booleans())
        for k in range(n):
            leq |= leq[:, [k]] & leq[[k], :]
        members.append(downset_heyting(FinitePoset(n, leq)))
    return AlgebraCatalog("heyting", tuple(members))


FORMULAS = st.recursive(
    st.sampled_from([Var("p"), Var("q"), Const("bot"), Const("top")]),
    lambda inner: st.one_of(
        st.builds(Not, inner), st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Imp, inner, inner)
    ),
    max_leaves=5,
)
EQUATIONS = st.lists(st.tuples(FORMULAS, FORMULAS), max_size=2).map(tuple)
SENTENCES = (
    st.tuples(EQUATIONS, EQUATIONS)
    .filter(lambda sides: sides[0] or sides[1])
    .map(lambda sides: UniversalSentence(sides[0], sides[1], "heyting", ("p", "q")))
)


@given(downset_catalogs(), SENTENCES)
def test_catalog_validates_is_the_first_failure_of_the_per_member_loop(K, sent):
    assert catalog_validates(K, sent) == first_failure(K.members, sent)


# ---------------------------------------------------------------------------
# The batched scan of a sentence list against one scan per sentence


def per_sentence(K, sents, cap=ulogic.EVAL_CAP):
    """What scanning the sentences one at a time yields, sentence by sentence."""
    return [[(i, t) for _, i, t in ulogic.refutations(K, [s], cap)] for s in sents]


def batched(K, sents, cap=ulogic.EVAL_CAP):
    """What one scan of the whole list yields, sorted into its sentences."""
    out = [[] for _ in sents]
    for s, i, t in ulogic.refutations(K, sents, cap):
        out[s].append((i, t))
    return out


@st.composite
def sentence_lists(draw, names=("p", "q", "r")):
    """Sentences drawn from a small pool of equation objects, so that one
    object recurs within and across sentences, as premise and conclusion.
    Each sentence lists its own variables in some order, and may list
    variables that no formula uses."""
    pool = draw(st.lists(st.tuples(FORMULAS, FORMULAS), min_size=1, max_size=5))
    equations = st.lists(st.sampled_from(pool), max_size=2).map(tuple)
    sents = []
    for _ in range(draw(st.integers(1, 10))):
        sides = draw(st.sampled_from(("both", "no premises", "no conclusions")))
        prem = () if sides == "no premises" else draw(equations)
        concl = () if sides == "no conclusions" else draw(equations)
        if not prem and not concl:
            prem, concl = ((pool[0],), ()) if sides == "no conclusions" else ((), (pool[0],))
        used = []
        for lhs, rhs in prem + concl:
            ulogic.formula_vars(lhs, used)
            ulogic.formula_vars(rhs, used)
        extra = draw(st.lists(st.sampled_from(names), max_size=len(names)))
        variables = tuple(draw(st.permutations(list(dict.fromkeys(used + extra)))))
        sents.append(UniversalSentence(prem, concl, "heyting", variables))
    return sents


def assert_batch_matches(K, sents):
    want = per_sentence(K, sents)
    for cells in (ulogic._CELLS, 64, 1):  # one chunk, then chunks of a few sentences, then of one
        with mock.patch.object(ulogic, "_CELLS", cells):
            assert batched(K, sents) == want
    for s, failures in zip(sents, want):
        spelled = [(i, ulogic.assignment(s.variables, t, K.members[i].size)) for i, t in failures]
        assert spelled == list(member_failures(K.members, s))


@given(downset_catalogs(), sentence_lists())
def test_batched_scan_is_the_per_sentence_scan(K, sents):
    assert_batch_matches(K, sents)


@settings(max_examples=20)
@given(downset_catalogs(), sentence_lists(names=("p", "q", "r", "s")), st.integers(0, 4))
def test_batched_scan_with_a_member_over_one_block(K, sents, at):
    # A 10-chain at four variables has 10,000 assignments, more than one
    # block, so it is scanned alone in sub-boxes.
    four = ("p", "q", "r", "s")
    sents = [
        UniversalSentence(s.premises, s.conclusions, "heyting", s.variables + tuple(v for v in four if v not in s.variables))
        for s in sents
    ]
    at = min(at, len(K.members))
    K = AlgebraCatalog("heyting", K.members[:at] + (chain_heyting(10),) + K.members[at:])
    assert chain_heyting(10).size ** 4 > ulogic._BLOCK
    assert_batch_matches(K, sents)


def scanned_until_refused(K, sents, cap, one_at_a_time):
    """Each sentence's failures before the refusal, and the refusal."""
    got = [[] for _ in sents]
    with pytest.raises(GrzlabError) as refusal:
        if one_at_a_time:
            for s, sent in enumerate(sents):
                for _, i, t in ulogic.refutations(K, [sent], cap):
                    got[s].append((i, t))
        else:
            for s, i, t in ulogic.refutations(K, sents, cap):
                got[s].append((i, t))
    return got, type(refusal.value), str(refusal.value)


def test_batched_scan_refuses_where_the_per_sentence_loop_does():
    K, over = lines_through_blocks()  # four variables
    tail = AlgebraCatalog("heyting", K.members[1:])  # the 10-chain, member 2, needs 10,000
    em = translate(parse_rule("/ p | ~p", "heyting"))
    lin = translate(parse_rule("/ (p -> q) | (q -> p)", "heyting"))
    box = translate(parse_rule("/ box p -> p", "modal"))
    cases = [
        [em, lin, over, em, box],  # the third sentence is over the cap
        [lin, box, over, em],  # a signature mismatch before it
        [over],
        [em, over, lin, over],
        [box],
    ]
    for sents in cases:
        want = scanned_until_refused(tail, sents, 5000, True)
        assert scanned_until_refused(tail, sents, 5000, False) == want
    got, kind, text = scanned_until_refused(tail, cases[0], 5000, False)
    assert kind is CapExceeded and text == (
        "sentence needs 10000 assignments on catalog member 2 (10 elements), cap is 5000 "
        "(EVAL_CAP, default 10000000); raise --cap or use fewer variables"
    )
    # Everything before the refused sentence, its failure on member 1,
    # and nothing after it.
    assert got == [[(0, 1), (1, 1), (2, 1), (3, 1)], [(1, 7), (3, 7)], [(1, 535)], [], []]
    _, kind, text = scanned_until_refused(tail, cases[1], 5000, False)
    assert kind is InputError and text == "heyting algebra needs a heyting-signature sentence"
    with pytest.raises(InputError, match="cannot evaluate on FinitePoset"):
        list(ulogic.refutations(FinitePoset(1, np.eye(1, dtype=bool)), [em]))


# ---------------------------------------------------------------------------
# The compiled program of a scan over more than one block


def rebuilt(f):
    """A formula equal to f, made of new objects throughout."""
    if isinstance(f, (Var, Const)):
        return type(f)(f.name)
    if isinstance(f, (Not, Box)):
        return type(f)(rebuilt(f.arg))
    return type(f)(rebuilt(f.left), rebuilt(f.right))


def subterms(f, out):
    """Every subterm of f, into the set out (formulas compare by structure)."""
    out.add(f)
    for child in (f.arg,) if isinstance(f, (Not, Box)) else (f.left, f.right) if isinstance(f, (And, Or, Imp)) else ():
        subterms(child, out)


def repeating_sentence(rng, signature, names, shared, premises=()):
    """A random sentence over names whose variables are replaced by random
    formulas, so its subterms recur within and across its equations: as
    one object at every occurrence (shared), or as equal distinct objects.
    The given premise equations, over names, come first."""
    pool = {v: random_formula(rng, signature, names, 2) for v in names}
    place = (lambda f: substitute(f, pool)) if shared else (lambda f: rebuilt(substitute(f, pool)))
    sent = random_sentence(rng, signature, names)
    return UniversalSentence(
        tuple((place(l), place(r)) for l, r in premises + sent.premises),
        tuple((place(l), place(r)) for l, r in sent.conclusions),
        signature,
        names,
    )


def test_program_has_one_step_per_distinct_subterm():
    rng = random.Random(20261101)
    for trial in range(60):
        signature = ("heyting", "modal")[trial % 2]
        sents = [repeating_sentence(rng, signature, ("p", "q", "r"), trial % 4 < 2) for _ in range(1 + trial % 3)]
        equations = ulogic._equations(sents, list(range(len(sents))))
        sides, steps = ulogic._program(equations)
        distinct = set()
        for (pairs, _), (compiled, _) in zip(equations, sides):
            assert len(compiled) == len(pairs)
            for lhs, rhs in pairs:
                subterms(lhs, distinct)
                subterms(rhs, distinct)
        assert len(steps) == len(distinct)
        # Post-order: a step reads only earlier steps, and drops a value
        # only after every step and equation that reads it.
        reads = {}
        for i, (kind, x, y, _) in enumerate(steps):
            if kind not in (Var, Const):
                for child in (x,) if y is None else (x, y):
                    assert child < i
                    reads.setdefault(child, []).append(i)
        stop = 0
        for compiled, _ in sides:
            for lhs, rhs in compiled:
                stop = max(stop, lhs + 1, rhs + 1)
                reads.setdefault(lhs, []).append(stop)
                reads.setdefault(rhs, []).append(stop)
        for i, step in enumerate(steps):
            for s in step[3]:
                assert max(reads[s]) == i


def multi_block_catalogs(rng, signature):
    """Catalogs over more than one block at their number of variables:
    flat blocks that span members, and members scanned in sub-boxes."""
    if signature == "heyting":
        flat = AlgebraCatalog("heyting", tuple(chain_heyting(n) for n in (5, 6, 7, 8)) + (two_below_one(),))
        boxed = AlgebraCatalog("heyting", (chain_heyting(3), chain_heyting(10), two_below_one()))
        return [(flat, ("p", "q", "r", "s")), (boxed, ("p", "q", "r", "s"))]
    small = tuple(complex_algebra(random_poset(rng, 4)) for _ in range(3))
    flat = AlgebraCatalog("modal", small + (make_standard("S12"), make_standard("S2")))
    boxed = AlgebraCatalog("modal", (make_standard("S2"), complex_algebra(random_poset(rng, 7))))
    return [(flat, ("p", "q", "r")), (boxed, ("p", "q"))]


def test_multi_block_scan_with_repeated_subterms_matches_the_per_member_loop():
    rng = random.Random(20261102)
    seen = set()
    for signature in ("heyting", "modal"):
        for K, names in multi_block_catalogs(rng, signature):
            assert sum(A.size ** len(names) for A in K.members) > ulogic._BLOCK
            p, q = Var(names[0]), Var(names[1])
            for trial in range(8):
                shared = trial % 2 == 0
                premises = [
                    (),
                    # Meet and join of the same two subterms, and negation
                    # and box of the same subterm, as distinct steps.
                    ((And(p, q), Or(p, q)), (Not(p), Box(p) if signature == "modal" else Not(Not(p)))),
                    # Premises that no coordinate of a member with two or
                    # more elements meets: every such block is emptied.
                    ((p, Const("top")), (p, Const("bot"))),
                    (),
                ][trial // 2]
                sent = repeating_sentence(rng, signature, names, shared, premises)
                with mock.patch.object(ulogic, "_program", wraps=ulogic._program) as compiled:
                    seen.add((signature, shared, bool(assert_scan_matches(K, sent))))
                assert compiled.called
    assert {(s, shared) for s, shared, _ in seen} == {(s, b) for s in ("heyting", "modal") for b in (True, False)}
    assert {refuted for *_, refuted in seen} == {True, False}


def test_multi_block_chunks_that_share_subterms_match_the_per_sentence_scan():
    rng = random.Random(20261103)
    for signature in ("heyting", "modal"):
        for K, names in multi_block_catalogs(rng, signature):
            pool = [random_formula(rng, signature, names, 2) for _ in range(4)]
            sents = []
            for n in range(8):
                mapping = {v: rng.choice(pool) for v in names}
                if n % 2:
                    mapping = {v: rebuilt(f) for v, f in mapping.items()}
                s = random_sentence(rng, signature, names)
                sents.append(UniversalSentence(
                    tuple((substitute(l, mapping), substitute(r, mapping)) for l, r in s.premises),
                    tuple((substitute(l, mapping), substitute(r, mapping)) for l, r in s.conclusions),
                    signature,
                    names,
                ))
            with (
                mock.patch.object(ulogic, "_equations", wraps=ulogic._equations) as chunks,
                mock.patch.object(ulogic, "_program", wraps=ulogic._program) as compiled,
            ):
                assert_batch_matches(K, sents)
            assert compiled.call_count == chunks.call_count
            assert max(len(call.args[1]) for call in chunks.call_args_list) == len(sents)
