"""Ten numbered end-to-end checks over the built-in catalogs.

Each check returns (ok, details) and is written against the documented
properties only, so a regression anywhere in the construction stack
surfaces here.  run_all times every check against its advertised budget.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from .bridge import (
    blok_esakia_catalog_check,
    boolean_extension,
    box_hom_extension,
    box_hom_to_BO,
    finite_blok_check,
    open_algebra,
)
from .catalog import (
    AlgebraCatalog,
    enumerate_heyting,
    grz_members,
    heyting_catalog,
    interior_catalog,
)
from .finlat import (
    HeytingAlgebra,
    HeytingHom,
    chain_heyting,
    chain_poset,
    heyting_product,
    heyting_quotient,
)
from .finlat import are_isomorphic as heyting_isomorphic
from .freealg import completeness_report_k, free_algebra, sigma_free_checks, verify_ump
from .modal import (
    Filter,
    all_boolean_subalgebras,
    all_modal_subalgebras,
    blok_characterization,
    complex_algebra,
    generated_subalgebra,
    grz_fails_at,
    grz_violations,
    make_standard,
    modal_product,
    open_filters,
    quotient,
    stable_witness_construct,
    subalgebra_as_algebra,
    validate_modal,
)
from .modal import are_isomorphic as modal_isomorphic
from .ulogic import Rule, catalog_validates, eval_sentence, enumerate_rules, grz_formula, parse_rule, translate

# Advertised wall-clock budget per check, in seconds.
RUNTIME_BOUNDS = {
    1: 1.0,
    2: 60.0,
    3: 60.0,
    4: 60.0,
    5: 300.0,
    6: 300.0,
    7: 300.0,
    8: 300.0,
    9: 10.0,
    10: 300.0,
}


def check_criterion_1() -> tuple[bool, str]:
    """The two standard algebras have the right shape and fail Grz."""
    s2 = make_standard("S2")
    s12 = make_standard("S12")
    if s2.size != 4 or s12.size != 8:
        return False, "standard algebra sizes are wrong"
    if tuple(s2.open_elements()) != (0, 3):
        return False, f"S2 opens are {s2.open_elements()}"
    if tuple(s12.open_elements()) != (0, 4, 7):
        return False, f"S12 opens are {s12.open_elements()}"
    r2 = validate_modal(s2)
    r12 = validate_modal(s12)
    for name, rep, alg in (("S2", r2, s2), ("S12", r12, s12)):
        if not rep.interior:
            return False, f"{name} is not an interior algebra"
        if rep.grz or rep.grz_witness is None:
            return False, f"{name} should fail Grz with a witness"
        if not grz_fails_at(alg, rep.grz_witness):
            return False, f"{name} witness {rep.grz_witness} does not fail Grz"
    return True, f"witnesses: S2 at {r2.grz_witness}, S12 at {r12.grz_witness}"


def check_criterion_2() -> tuple[bool, str]:
    """Inequality scan and structural search agree on every small algebra."""
    cat = interior_catalog(4)
    n_grz = 0
    for i, M in enumerate(cat.members):
        rep = validate_modal(M)
        res = blok_characterization(M)
        if rep.grz != res.is_grz:
            return False, f"member {i}: scan says {rep.grz}, search says {res.is_grz}"
        if res.is_grz:
            n_grz += 1
            if res.witness is not None:
                return False, f"member {i}: spurious witness"
        else:
            problems = res.witness.verify()
            if problems:
                return False, f"member {i}: witness fails {problems}"
    return True, f"{len(cat.members)} algebras, {n_grz} Grzegorczyk"


def check_criterion_3() -> tuple[bool, str]:
    """Every Grz failure yields a stable surjection onto S2 with coatom image."""
    cat = interior_catalog(3)
    count = 0
    for i, M in enumerate(cat.members):
        for a in grz_violations(M):
            a = int(a)
            hom = stable_witness_construct(M, a)
            if hom.kind != "stable" or hom.verify() or not hom.surjective:
                return False, f"member {i}, element {a}: witness fails"
            if hom.values[a] not in (1, 2):
                return False, f"member {i}, element {a}: image not a coatom"
            count += 1
    if count == 0:
        return False, "catalog contains no Grz failures to witness"
    return True, f"{count} failing elements witnessed"


def check_criterion_4() -> tuple[bool, str]:
    """B lands in Grz and O undoes it, over every Heyting algebra of size <= 8."""
    algs = enumerate_heyting(8)
    for i, H in enumerate(algs):
        B, emb = boolean_extension(H)
        if not validate_modal(B).grz:
            return False, f"algebra {i}: extension is not Grzegorczyk"
        O_alg, opens = open_algebra(B)
        index = {m: j for j, m in enumerate(opens)}
        if sorted(emb.values()) != sorted(opens):
            return False, f"algebra {i}: embedding image is not the opens"
        h = HeytingHom(H, O_alg, tuple(index[emb[a]] for a in range(H.size)))
        if h.verify() or not (h.injective and h.surjective):
            return False, f"algebra {i}: embedding is not an isomorphism onto opens"
    return True, f"{len(algs)} Heyting algebras through B and back"


def check_criterion_5() -> tuple[bool, str]:
    """Reconstruction M ≅ BO(M) with a maximal all-open chain, for Grz members."""
    members = grz_members(interior_catalog(4))
    for i, M in enumerate(members):
        iso, chain = finite_blok_check(M)
        if iso.verify() or not (iso.injective and iso.surjective):
            return False, f"member {i}: isomorphism fails"
        if len(chain) != M.atoms + 1 or chain[0] != 0 or chain[-1] != M.top:
            return False, f"member {i}: chain endpoints wrong"
        for u, v in zip(chain, chain[1:]):
            step = u ^ v
            if u & v != u or step & (step - 1) or not M.is_open(v):
                return False, f"member {i}: chain step {u}->{v} invalid"
        if not M.is_open(0):
            return False, f"member {i}: bottom is not open"
    return True, f"{len(members)} Grzegorczyk algebras reconstructed"


def check_criterion_6() -> tuple[bool, str]:
    """The staged elimination algorithms on every admissible input."""
    members = grz_members(interior_catalog(3))
    steps = 0
    eliminations = 0
    for i, M in enumerate(members):
        opens = set(M.open_elements())
        nonopen = [e for e in range(M.size) if e not in opens]
        for C in all_boolean_subalgebras(M):
            if len(C.elements) > 4:
                continue
            for g in nonopen:
                B = generated_subalgebra(M, list(C.blocks) + [g], "boolean")
                if C.open_members() != B.open_members():
                    continue
                hom, _, trace = box_hom_extension(M, C, g)
                if trace.check(M) or hom.verify():
                    return False, f"member {i}: extension step fails at g={g}"
                steps += 1
        seed_sets = [[]]
        seed_sets += [[g] for g in nonopen]
        seed_sets += [list(p) for p in itertools.combinations(nonopen, 2)]
        for seeds in seed_sets:
            A = generated_subalgebra(M, seeds, "boolean")
            f = box_hom_to_BO(M, A)
            if any(f.values[e] != e for e in A.open_members()):
                return False, f"member {i}: elimination moves an open, seeds {seeds}"
            eliminations += 1

    M3 = complex_algebra(chain_poset(3))
    C0 = generated_subalgebra(M3, [], "boolean")
    _, _, tr = box_hom_extension(M3, C0, 2)
    if tr.p != 2:
        return False, f"three-chain example produced p={tr.p}, expected 2"
    return True, f"{steps} extension steps, {eliminations} eliminations, example p={tr.p}"


def check_criterion_7() -> tuple[bool, str]:
    """O and B commute with products, quotients and subalgebras."""
    members = interior_catalog(3).members
    opens_of = [open_algebra(M)[0] for M in members]
    pairs = 0
    for (M1, O1), (M2, O2) in itertools.product(zip(members, opens_of), repeat=2):
        P = modal_product([M1, M2])
        if not heyting_isomorphic(open_algebra(P)[0], heyting_product([O1, O2])):
            return False, f"product case fails at sizes {M1.size}x{M2.size}"
        pairs += 1

    quotient_cases = 0
    for M, O_alg in zip(members, opens_of):
        opens = M.open_elements()
        for filt in open_filters(M):
            Q, _ = quotient(M, filt)
            Hq, _ = heyting_quotient(O_alg, opens.index(filt.least()))
            if not heyting_isomorphic(open_algebra(Q)[0], Hq):
                return False, f"quotient case fails at filter least {filt.least()}"
            quotient_cases += 1

    sub_cases = 0
    for M, O_alg in zip(members, opens_of):
        opens = M.open_elements()
        for sub in all_modal_subalgebras(M):
            N_alg, _, _ = subalgebra_as_algebra(sub)
            S = [m for m in opens if sub.contains(m)]
            idx = {m: j for j, m in enumerate(S)}
            n = len(S)
            meet = np.zeros((n, n), dtype=np.int32)
            join = np.zeros((n, n), dtype=np.int32)
            imp = np.zeros((n, n), dtype=np.int32)
            for x, a in enumerate(S):
                for y, b in enumerate(S):
                    meet[x, y] = idx[a & b]
                    join[x, y] = idx[a | b]
                    imp[x, y] = idx[int(M.box[(M.top ^ a) | b])]
            restricted = HeytingAlgebra(n, meet, join, imp, 0, n - 1)
            if not heyting_isomorphic(open_algebra(N_alg)[0], restricted):
                return False, "subalgebra case fails"
            sub_cases += 1

    b_cases = 0
    for H in enumerate_heyting(6):
        BH, emb = boolean_extension(H)
        for u in range(H.size):
            Hq, _ = heyting_quotient(H, u)
            B1, _ = boolean_extension(Hq)
            Q, _ = quotient(BH, Filter(BH, emb[u]))
            if not modal_isomorphic(B1, Q):
                return False, f"B-quotient case fails at u={u}"
            b_cases += 1
    return True, (
        f"{pairs} products, {quotient_cases} quotients, "
        f"{sub_cases} subalgebras, {b_cases} B-quotients"
    )


def check_criterion_8() -> tuple[bool, str]:
    """Three membership routes agree for every algebra/catalog combination."""
    grz3 = grz_members(interior_catalog(3))
    pool = enumerate_heyting(5)
    combos = 0
    positives = 0
    for M in grz3:
        for r in range(1, len(pool) + 1):
            for subset in itertools.combinations(range(len(pool)), r):
                K = AlgebraCatalog(
                    "heyting", tuple(pool[i] for i in subset), "subset"
                )
                res = blok_esakia_catalog_check(K, M)
                combos += 1
                if res["holds"]:
                    positives += 1
    return True, f"{combos} combinations, {positives} positive memberships"


def check_criterion_9() -> tuple[bool, str]:
    """Translation and evaluation reproduce the known examples."""
    hey = heyting_catalog(8)
    mp = translate(parse_rule("p, p -> q / q", "heyting"))
    res = catalog_validates(hey, mp)
    if not res["valid"]:
        return False, f"modus ponens fails at member {res['failing_member']}"

    em = translate(parse_rule("/ p | ~p", "heyting"))
    if not eval_sentence(chain_heyting(2), em)["valid"]:
        return False, "excluded middle should hold on the two-chain"
    r3 = eval_sentence(chain_heyting(3), em)
    if r3["valid"] or r3["counterexample"] != {"p": 1}:
        return False, f"three-chain counterexample is {r3['counterexample']}"

    grz_id = translate(Rule((), (grz_formula(),), "modal"))
    for i, H in enumerate(hey.members):
        B, _ = boolean_extension(H)
        if not eval_sentence(B, grz_id)["valid"]:
            return False, f"Grz identity fails on the extension of member {i}"
    for name in ("S2", "S12"):
        if eval_sentence(make_standard(name), grz_id)["valid"]:
            return False, f"Grz identity should fail on {name}"
    return True, f"{len(hey.members)} members checked, counterexample p=1 on the three-chain"


def check_criterion_10() -> tuple[bool, str]:
    """Free algebras, bounded admissibility, and the free side of sigma."""
    K2 = AlgebraCatalog("heyting", (chain_heyting(2),), "two-chain")
    free1 = free_algebra(K2, 1)
    if free1.algebra.size != 4:
        return False, f"free algebra on one generator has {free1.algebra.size} elements"
    bad = verify_ump(free1)
    if bad:
        return False, f"unique extension fails: {bad[0]}"

    rules = enumerate_rules("heyting", max_vars=2, max_premises=2)
    report = completeness_report_k(K2, rules, k=2, mode="structural")
    if report["violations"]:
        return False, f"{len(report['violations'])} admissible-but-invalid candidates"

    for k in (0, 1):
        res = sigma_free_checks(K2, k)
        if not res["embedding"]["injective"]:
            return False, f"k={k}: embedding not injective"
        if not res["free_sigma_opens_in_quasivariety"]["holds"]:
            return False, f"k={k}: the opens of the free extension escape the quasivariety"
    return True, f"free size 4, {len(rules)} candidates, zero violations"


CHECKS = [
    (1, "standard algebras", check_criterion_1),
    (2, "structural Grz characterization", check_criterion_2),
    (3, "stable witness construction", check_criterion_3),
    (4, "extension and opens round trip", check_criterion_4),
    (5, "finite reconstruction", check_criterion_5),
    (6, "staged elimination", check_criterion_6),
    (7, "functor commutation", check_criterion_7),
    (8, "catalog correspondence", check_criterion_8),
    (9, "translation and evaluation", check_criterion_9),
    (10, "free algebras and admissibility", check_criterion_10),
]


def run_all(selected=None) -> dict:
    """Run the checks (all, or a collection of numbers) and time each one."""
    results = []
    for num, name, fn in CHECKS:
        if selected is not None and num not in selected:
            continue
        t0 = time.perf_counter()
        try:
            ok, details = fn()
        except Exception as exc:
            ok, details = False, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        results.append(
            {
                "criterion": num,
                "name": name,
                "ok": ok,
                "details": details,
                "seconds": round(dt, 3),
                "bound": RUNTIME_BOUNDS[num],
                "within_bound": dt < RUNTIME_BOUNDS[num],
            }
        )
    return {
        "ok": all(r["ok"] and r["within_bound"] for r in results),
        "checks": results,
    }
