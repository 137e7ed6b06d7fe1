"""The four workloads: seeded inputs, a timed body, and the checks after it.

Each workload has three parts.  ``setup(rng, quick)`` builds the inputs
from the seed.  ``body(probe, inputs)`` makes every call into grzlab
through the probe and returns the raw answers.  ``check(inputs, answers)``
runs the oracles, outside the timed body, and returns the work counts
that must repeat exactly for a fixed seed.

Each workload loads a different layer, so that an optimisation of one
layer has a workload that uses it and others that do not:

* enum-cold: ``catalog`` dominates (posets, canonical keys, topologies).
* rules-many: thousands of tiny ``ulogic`` scans, and ``freealg``
  closure; per-call overhead, not scanning, sets the time.
* scan-large: ``ulogic`` scans of 1.6*10^5 to 2*10^6 assignments each;
  ``kernels`` throughput sets the time.
* bridge-membership: ``bridge``, ``modal`` and ``finlat`` searches;
  ``ulogic`` is unused and ``catalog`` runs only in set-up.

The input sizes keep the work of a body the same for every seed, so that
seeds can be compared; the seed changes which algebras, rules and
sentences are used, and in which order.  Each body lasts a few seconds at
most, so that a run holds several processes.
"""

from __future__ import annotations

import itertools
import pathlib
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable

import numpy as np

import grzlab as g
from grzlab import bridge, catalog, finlat, freealg, modal, ulogic
from grzlab.errors import GrzlabError

import oracle
from oracle import require


def random_poset(rng, n: int) -> g.FinitePoset:
    """A poset on n points: random relations i < j for i < j, then closure."""
    leq = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            leq[i, j] = rng.random() < 0.3
    for k in range(n):
        leq |= leq[:, [k]] & leq[[k], :]
    return g.FinitePoset(n, leq)


def sentence_assignments(sent, members, res: dict) -> int:
    """Assignments a catalog scan must visit to reach this verdict."""
    fail = len(members) if res["valid"] else res["failing_member"]
    n = len(sent.variables)
    total = sum(A.size**n for A in members[:fail])
    if not res["valid"]:
        size = members[fail].size
        total += oracle.assignment_index(res["counterexample"], sent.variables, size) + 1
    return total


# ---------------------------------------------------------------------------
# enum-cold: the catalogs that criteria 2 to 9 and `enumerate` build, cold.


def enum_setup(rng, quick):
    # The inputs are two sizes, the same for every seed.
    return {"hey_size": 5, "int_points": 3} if quick else {"hey_size": 7, "int_points": 4}


def enum_body(probe, inp):
    # Seven calls, each over a whole catalog, so that the 99th percentile
    # of call time is the heyting_catalog call and the median is a call of
    # the middle size, never an edge between two kinds of call.
    hey = probe.call(catalog.heyting_catalog, inp["hey_size"])
    inter = probe.call(catalog.interior_catalog, inp["int_points"])
    sigma = probe.call(bridge.sigma_catalog, hey)
    return {
        "hey": hey.members,
        "inter": inter.members,
        "B": sigma.members,
        "OB": probe.call(bridge.rho_catalog, sigma).members,
        "grz_B": probe.call(catalog.grz_members, sigma),
        "grz": probe.call(catalog.grz_members, inter),
        "O": probe.call(bridge.rho_catalog, inter).members,
    }


def enum_check(inp, out):
    sizes = Counter(H.size for H in out["hey"])
    want = oracle.HEYTING_BY_SIZE[: inp["hey_size"]]
    require(
        tuple(sizes[n] for n in range(1, inp["hey_size"] + 1)) == want,
        f"Heyting algebras by size {dict(sizes)}, expected {want} (A006966)",
    )
    atoms = Counter(M.atoms for M in out["inter"])
    want = oracle.INTERIOR_BY_ATOMS[: inp["int_points"] + 1]
    require(
        tuple(atoms[k] for k in range(inp["int_points"] + 1)) == want,
        f"interior algebras by atoms {dict(atoms)}, expected {want} (A001930)",
    )
    shipped = oracle.shipped_entries(pathlib.Path(g.__file__).parent / "data" / "interior_k3.json")
    ours = {
        f"interior_{M.atoms}_{i}": oracle.interior_record(M)
        for k in range(4)
        for i, M in enumerate(m for m in out["inter"] if m.atoms == k)
    }
    require(ours == shipped, "enumerated interior algebras differ from interior_k3.json")
    require(
        not any(oracle.grz_fails(B) for B in out["B"]) and len(out["grz_B"]) == len(out["B"]),
        "B of some Heyting algebra is not Grz",
    )
    require(
        [O.size for O in out["OB"]] == [H.size for H in out["hey"]],
        "O(B(H)) differs in size from H",
    )
    grz = [M for M in out["inter"] if not oracle.grz_fails(M)]
    require(
        len(grz) == len(out["grz"]) and all(a is b for a, b in zip(grz, out["grz"])),
        "grz_members picks the wrong interior algebras",
    )
    by_atoms = Counter(M.atoms for M in grz)
    want = oracle.GRZ_BY_ATOMS[: inp["int_points"] + 1]
    require(
        tuple(by_atoms[k] for k in range(inp["int_points"] + 1)) == want,
        f"Grz interior algebras by atoms {dict(by_atoms)}, expected {want} (A000112)",
    )
    opens = [sum(int(M.box[a]) == a for a in range(M.size)) for M in out["inter"]]
    require([O.size for O in out["O"]] == opens, "O(M) differs in size from the opens of M")
    return {"catalog.algebras": len(out["hey"]) + len(out["inter"])}


# ---------------------------------------------------------------------------
# rules-many: criterion 10's rule space, one tiny check per call.


def rules_setup(rng, quick):
    n_rules, n_cands, k3 = (300, 1000, 1) if quick else (2500, 8000, 2)
    rules = ulogic.enumerate_rules("heyting", 2, 2)
    return {
        "hey5": catalog.heyting_catalog(5),
        "rules": [ulogic.translate(rules[i]) for i in rng.sample(range(len(rules)), n_rules)],
        "cands": [ulogic.translate(rules[i]) for i in rng.sample(range(len(rules)), n_cands)],
        "K2": g.AlgebraCatalog("heyting", (g.chain_heyting(2),), "two-chain"),
        "K3": g.AlgebraCatalog("heyting", (g.chain_heyting(3),), "three-chain"),
        "k3": k3,
        "rng": rng,
    }


def rules_body(probe, inp):
    out = {"verdicts": [], "report": None, "free": None}
    for sent in inp["rules"]:
        with suppress(GrzlabError):
            out["verdicts"].append((sent, probe.call(ulogic.catalog_validates, inp["hey5"], sent)))
    with suppress(GrzlabError):
        out["report"] = probe.call(freealg.completeness_report_k, inp["K2"], inp["cands"], 2)
    with suppress(GrzlabError):
        out["free"] = probe.call(freealg.free_algebra, inp["K3"], inp["k3"])
    return out


def rules_check(inp, out):
    members = inp["hey5"].members
    pairs = out["verdicts"]
    for sent, res in inp["rng"].sample(pairs, min(200, len(pairs))):
        oracle.check_catalog_verdict(sent, members, res)
    report = out["report"]
    if report is not None:
        require(
            report["checked"] == len(inp["cands"]) and report["violations"] == [],
            "the two-chain has admissible-but-invalid rules; Boolean algebras are structurally complete",
        )
    for k in (1, 2):
        size = freealg.free_algebra(inp["K2"], k).algebra.size
        require(size == 2 ** (2**k), f"free algebra over the two-chain at k={k} has {size} elements")
    size = 0
    if out["free"] is not None:
        want = oracle.chain_free_size(3, inp["k3"])
        size = out["free"].algebra.size
        require(size == want, f"free algebra over the three-chain has {size} elements, expected {want}")
    return {
        "ulogic.assignments": sum(
            sentence_assignments(s, members, r) for s, r in pairs
        ),
        "ulogic.valid": sum(r["valid"] for _, r in pairs),
        "freealg.elements": size,
    }


# ---------------------------------------------------------------------------
# scan-large: valid identities, so every scan visits every assignment.

# Each law equates two terms in the subformulas A, B and C that agree in
# every Heyting algebra (resp. every interior algebra).
HEYTING_LAWS = (
    ("({A} & ({A} -> {B})) | {C}", "({A} & {B}) | {C}"),
    ("{A} -> ({B} -> {C})", "({A} & {B}) -> {C}"),
    ("{A} & ({B} | {C})", "({A} & {B}) | ({A} & {C})"),
    ("({A} | {B}) -> {C}", "({A} -> {C}) & ({B} -> {C})"),
    ("{A} -> ({B} & {C})", "({A} -> {B}) & ({A} -> {C})"),
    ("~({A} | {B}) & {C}", "(~{A} & ~{B}) & {C}"),
)
MODAL_LAWS = (
    ("box ({A} & {B}) | {C}", "(box {A} & box {B}) | {C}"),
    ("(box box ({A} | {B})) & {C}", "(box ({A} | {B})) & {C}"),
    ("(box {A} & {A}) | ({B} & {C})", "box {A} | ({B} & {C})"),
    ("~({A} & {B}) | {C}", "(~{A} | ~{B}) | {C}"),
    ("{A} -> ({B} -> {C})", "({A} & {B}) -> {C}"),
    ("box ({A} -> {B}) & box {A} & {C}", "box ({A} -> {B}) & box {A} & box {B} & {C}"),
)
NON_LAW = ("{A} & {B}", "{A}")
LEAVES = 4


def random_term(rng, leaves, boxed: bool) -> str:
    if len(leaves) == 1:
        return f"box {leaves[0]}" if boxed else leaves[0]
    cut = rng.randrange(1, len(leaves))
    box_left = boxed and rng.random() < 0.5
    left = random_term(rng, leaves[:cut], box_left)
    right = random_term(rng, leaves[cut:], boxed and not box_left)
    return f"({left} {rng.choice(('&', '|', '->'))} {right})"


def random_identity(rng, law, nvars: int, signature: str):
    """Instantiate a law with three random terms that use every variable."""
    names = [f"v{i}" for i in range(nvars)]
    leaves = names + [rng.choice(names) for _ in range(3 * LEAVES - nvars)]
    rng.shuffle(leaves)
    parts = [leaves[i * LEAVES : (i + 1) * LEAVES] for i in range(3)]
    terms = dict(
        zip("ABC", (random_term(rng, p, signature == "modal") for p in parts))
    )
    lhs, rhs = (side.format(**terms) for side in law)
    return ulogic.sentence_from_json({"conclusions": [[lhs, rhs]]}, signature)


def scan_setup(rng, quick):
    S2 = g.make_standard("S2")
    if quick:
        menu = [(g.chain_heyting(4), 4), (g.complex_algebra(random_poset(rng, 5)), 2)]
        rounds = 2
    else:
        # Chains with five variables and interior algebras of 10 and 7 atoms
        # with two and three variables (three variables on 8 or more atoms
        # exceed the evaluation cap).  Four scans take about the same time,
        # a mask-algebra assignment being cheaper than a table one, and the
        # fifth about twice as long: the median call falls inside the
        # cluster and the 99th percentile inside the long scans.
        menu = [(g.chain_heyting(n), 5) for n in (11, 12)]
        menu += [
            (g.complex_algebra(random_poset(rng, 10)), 2),
            (g.modal_product([g.complex_algebra(random_poset(rng, 8)), S2]), 2),
            (g.complex_algebra(random_poset(rng, 7)), 3),
        ]
        rounds = len(HEYTING_LAWS)
    jobs = []
    for r in range(rounds):
        for alg, nvars in menu:
            signature = "modal" if isinstance(alg, g.ModalAlgebra) else "heyting"
            laws = MODAL_LAWS if signature == "modal" else HEYTING_LAWS
            jobs.append((alg, random_identity(rng, laws[r % len(laws)], nvars, signature)))
    refuted = []
    for alg, nvars in menu:
        signature = "modal" if isinstance(alg, g.ModalAlgebra) else "heyting"
        # One variable on mask algebras keeps the reference scan short.
        refuted.append((alg, random_identity(rng, NON_LAW, 1 if signature == "modal" else 2, signature)))
    return {"jobs": jobs, "refuted": refuted, "rng": rng}


def scan_body(probe, inp):
    out = []
    for alg, sent in inp["jobs"]:
        with suppress(GrzlabError):
            out.append((alg, sent, probe.call(ulogic.eval_sentence, alg, sent)))
    return out


def scan_check(inp, out):
    rng = inp["rng"]
    for alg, sent, res in out:
        require(res["valid"], f"a valid identity was refuted at {res['counterexample']}")
    for alg, sent in rng.sample(inp["jobs"], min(10, len(inp["jobs"]))):
        size = alg.size
        for _ in range(20):
            env = {v: rng.randrange(size) for v in sent.variables}
            require(oracle.holds_at(sent, alg, env), "the benchmark built an identity that is not valid")
    for alg, sent in inp["refuted"]:
        got = ulogic.eval_sentence(alg, sent)
        want = oracle.least_counterexample(sent, alg)
        require(
            got == {"valid": want is None, "counterexample": want},
            f"eval_sentence gave {got}, reference counterexample {want}",
        )
    return {
        "ulogic.assignments": sum(alg.size ** len(sent.variables) for alg, sent, _ in out)
    }


# ---------------------------------------------------------------------------
# bridge-membership: criterion 8's grid, criterion 7's commutations, and a
# ladder of finite reconstructions.


def bridge_setup(rng, quick):
    # The whole grid of criterion 8 (2,295 cells), shuffled; most calls are
    # grid cells, so that the median call is one of them.
    # The ladder starts at six points: its calls then all take longer than
    # any grid cell and stay above the 99th percentile, which falls in
    # the grid cells too.
    points, max_size, cells, npairs, ladder = (
        (2, 4, 40, 8, (5,)) if quick else (3, 5, None, 60, (6, 7))
    )
    members = g.interior_catalog(points).members
    grz = g.grz_members(g.interior_catalog(points))
    pool = g.enumerate_heyting(max_size)
    grid = [
        (m, subset, g.AlgebraCatalog("heyting", tuple(pool[i] for i in subset), "subset"))
        for m in range(len(grz))
        for r in range(1, len(pool) + 1)
        for subset in itertools.combinations(range(len(pool)), r)
    ]
    rng.shuffle(grid)
    pairs = rng.sample(list(itertools.product(range(len(members)), repeat=2)), npairs)
    return {
        "grz": grz,
        "pool": pool,
        "grid": grid[:cells],
        "members": members,
        "pairs": pairs,
        "posets": [random_poset(rng, n) for n in ladder],
        "S2": g.make_standard("S2"),
    }


def bridge_body(probe, inp):
    out = {"grid": [], "iso": [], "ladder": []}
    grz = inp["grz"]
    for m, subset, K in inp["grid"]:
        with suppress(GrzlabError):
            res = probe.call(bridge.blok_esakia_catalog_check, K, grz[m])
            out["grid"].append((m, subset, res["holds"]))
    members = inp["members"]
    opens_of = {}
    for i, M in enumerate(members):
        with suppress(GrzlabError):
            opens_of[i] = probe.call(bridge.open_algebra, M)[0]
    for i, j in inp["pairs"]:
        with suppress(GrzlabError):
            P = probe.call(modal.modal_product, [members[i], members[j]])
            O_P, _ = probe.call(bridge.open_algebra, P)
            prod = probe.call(finlat.heyting_product, [opens_of[i], opens_of[j]])
            out["iso"].append(probe.call(finlat.are_isomorphic, O_P, prod))
    for i, M in enumerate(members):
        with suppress(GrzlabError):
            O_alg = opens_of[i]
            opens = M.open_elements()
            for filt in probe.call(modal.open_filters, M):
                Q, _ = probe.call(modal.quotient, M, filt)
                Hq, _ = probe.call(finlat.heyting_quotient, O_alg, opens.index(filt.least()))
                O_Q, _ = probe.call(bridge.open_algebra, Q)
                out["iso"].append(probe.call(finlat.are_isomorphic, O_Q, Hq))
    for P in inp["posets"]:
        with suppress(GrzlabError):
            M = probe.call(modal.complex_algebra, P)
            iso, chain = probe.call(bridge.finite_blok_check, M)
            res = probe.call(modal.blok_characterization, M)
            prod = probe.call(modal.modal_product, [M, inp["S2"]])
            res_prod = probe.call(modal.blok_characterization, prod)
            out["ladder"].append((M, iso, chain, res, prod, res_prod))
    return out


def bridge_check(inp, out):
    embeds = {
        (m, h): oracle.opens_embed(M, H)
        for m, M in enumerate(inp["grz"])
        for h, H in enumerate(inp["pool"])
    }
    for m, subset, holds in out["grid"]:
        want = any(embeds[m, h] for h in subset)
        require(holds == want, f"membership of Grz member {m} in {subset}: {holds}, expected {want}")
    require(all(out["iso"]), "O does not commute with a product or a quotient")
    for M, iso, chain, res, prod, res_prod in out["ladder"]:
        require(not oracle.grz_fails(M), "a complex algebra of a poset fails Grz")
        require(
            not iso.verify() and iso.injective and iso.surjective,
            "finite_blok_check certificate is not an isomorphism",
        )
        require(
            len(chain) == M.atoms + 1
            and all(int(M.box[v]) == v and bin(u ^ v).count("1") == 1 and u & v == u
                    for u, v in zip(chain, chain[1:])),
            "finite_blok_check chain is not a maximal chain of opens",
        )
        require(res.is_grz, "blok_characterization says a complex algebra is not Grz")
        require(oracle.grz_fails(prod), "a product with S2 passes Grz")
        require(
            not res_prod.is_grz and not res_prod.witness.verify(),
            "blok_characterization misses the S2 factor or its witness fails",
        )
    return {
        "bridge.holds": sum(holds for _, _, holds in out["grid"]),
        "modal.isomorphic": sum(out["iso"]),
    }


@dataclass(frozen=True)
class Workload:
    setup: Callable
    body: Callable
    check: Callable


WORKLOADS = {
    "enum-cold": Workload(enum_setup, enum_body, enum_check),
    "rules-many": Workload(rules_setup, rules_body, rules_check),
    "scan-large": Workload(scan_setup, scan_body, scan_check),
    "bridge-membership": Workload(bridge_setup, bridge_body, bridge_check),
}
