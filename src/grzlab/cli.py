"""Command-line surface: one verb per workbench operation.

Every verb prints a single JSON report to standard output.  Exit codes:
0 for success or a holding property, 1 for a violated property, 2 for
usage and input errors, 3 for an exceeded cap, 4 for a failed internal
self-check.  Reports are rendered with sorted keys, so equal inputs give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import catalog as catalog_mod
from .bridge import (
    blok_esakia_catalog_check,
    boolean_extension,
    box_hom_extension,
    finite_blok_check,
    open_algebra,
)
from .catalog import (
    AlgebraCatalog,
    enumerate_heyting,
    enumerate_posets,
    enumerate_topologies,
    heyting_catalog,
    interior_catalog,
    interior_entries,
    poset_entries,
)
from .errors import CapExceeded, InputError, InternalCheckError, ParseError
from .finlat import HeytingAlgebra, validate_heyting
from .freealg import (
    COORD_CAP,
    ELEMENT_CAP,
    completeness_report_k,
    free_algebra,
    sigma_free_checks,
    weakly_admissible_k,
)
from .modal import BooleanSubalgebra, ModalAlgebra, blok_characterization, make_standard, stable_witness_construct, validate_modal
from .ulogic import (
    EVAL_CAP,
    Formula,
    Rule,
    catalog_validates,
    enumerate_rules,
    eval_sentence,
    parse,
    sentence_from_json,
    sentence_to_json,
    to_text,
    translate,
)
from .verify import run_all


def _jsonable(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(doc: dict, args) -> None:
    indent = None if args.json else 2
    print(json.dumps(doc, sort_keys=True, indent=indent, default=_jsonable))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _modal_input(args) -> ModalAlgebra:
    if getattr(args, "std", None):
        return make_standard(args.std)
    rec = _load_json(args.input)
    return ModalAlgebra.from_record(rec)


def _heyting_input(args) -> HeytingAlgebra:
    return _heyting_record(_load_json(args.input))


def _heyting_record(rec) -> HeytingAlgebra:
    """A Heyting record from outside, refused unless ``validate_heyting`` passes."""
    H = HeytingAlgebra.from_record(rec)
    rep = validate_heyting(H)
    if not rep.ok:
        raise InputError(f"invalid Heyting algebra: {rep.malformed or rep.violations}")
    return H


def _any_algebra(path):
    rec = _load_json(path)
    if not isinstance(rec, dict):
        raise InputError("algebra file must hold a JSON object")
    kind = rec.get("kind")
    if kind == "modal":
        return ModalAlgebra.from_record(rec)
    if kind == "heyting":
        return _heyting_record(rec)
    raise InputError(f"unsupported algebra kind {kind!r}")


def _catalog_from_args(args) -> AlgebraCatalog:
    if args.input:
        decoded = catalog_mod.load(args.input).decoded()
        members = [decoded[name] for name in sorted(decoded)]
        kinds = {type(m).__name__ for m in members}
        if kinds == {"HeytingAlgebra"}:
            return AlgebraCatalog("heyting", tuple(members), args.input)
        if kinds == {"ModalAlgebra"}:
            return AlgebraCatalog("modal", tuple(members), args.input)
        raise InputError(
            "catalog file must contain only Heyting algebras or only modal algebras"
        )
    if args.heyting is not None:
        return heyting_catalog(args.heyting)
    return interior_catalog(args.interior)


def _sentence_from_args(args, signature):
    if getattr(args, "sentence", None):
        return sentence_from_json(_load_json(args.sentence), signature)
    if not getattr(args, "rule", None):
        raise InputError("give a rule as an argument or a sentence file")
    parsed = parse(args.rule, signature)
    if isinstance(parsed, Formula):
        parsed = Rule((), (parsed,), signature)
    return translate(parsed)


# ---------------------------------------------------------------------------
# Verb handlers


def _cmd_grz_check(args) -> int:
    M = _modal_input(args)
    rep = validate_modal(M)
    _emit(
        {
            "atoms": M.atoms,
            "K": rep.k,
            "interior": rep.interior,
            "grz": rep.grz,
            "witness": rep.grz_witness,
        },
        args,
    )
    return 0 if rep.grz else 1


def _cmd_blok_char(args) -> int:
    M = _modal_input(args)
    res = blok_characterization(M)
    witness = None
    if res.witness is not None:
        w = res.witness
        witness = {
            "subalgebra": list(w.subalgebra.elements),
            "filter_least": w.filter.least(),
            "target": w.target_name,
            "projection": w.projection.table(),
            "iso": w.iso.table(),
        }
    _emit({"is_grz": res.is_grz, "witness": witness}, args)
    return 0 if res.is_grz else 1


def _cmd_stable_witness(args) -> int:
    M = _modal_input(args)
    hom = stable_witness_construct(M, args.element)
    _emit(
        {"element": args.element, "kind": hom.kind, "target": "S2", "map": hom.table()},
        args,
    )
    return 0


def _cmd_build_b(args) -> int:
    H = _heyting_input(args)
    B, emb = boolean_extension(H)
    _emit(
        {
            "algebra": B.to_record(),
            "embedding": [emb[a] for a in range(H.size)],
        },
        args,
    )
    return 0


def _cmd_build_o(args) -> int:
    M = _modal_input(args)
    O_alg, opens = open_algebra(M)
    _emit({"algebra": O_alg.to_record(), "opens": list(opens)}, args)
    return 0


def _cmd_finite_blok(args) -> int:
    M = _modal_input(args)
    iso, chain = finite_blok_check(M)
    _emit({"atoms": M.atoms, "iso": iso.table(), "chain": chain}, args)
    return 0


def _cmd_box_extend(args) -> int:
    doc = _load_json(args.input)
    if not isinstance(doc, dict):
        raise InputError("input must be a JSON object")
    M = ModalAlgebra.from_record(doc.get("algebra"))
    blocks = doc.get("blocks")
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise InputError("blocks must be a list of atom index lists")
    masks = []
    for blk in blocks:
        mask = 0
        for i in blk:
            if not isinstance(i, int) or not 0 <= i < M.atoms:
                raise InputError(f"atom index {i} out of range")
            mask |= 1 << i
        masks.append(mask)
    C = BooleanSubalgebra(M, tuple(sorted(masks)))
    g = doc.get("g")
    if not isinstance(g, int):
        raise InputError("g must be an element mask")
    hom, D, trace = box_hom_extension(M, C, g)
    _emit(
        {
            "map": hom.to_certificate(),
            "p": trace.p,
            "opens_used": list(trace.opens_used),
            "target_elements": list(D.elements),
        },
        args,
    )
    return 0


def _cmd_be_check(args) -> int:
    doc = _load_json(args.input)
    if not isinstance(doc, dict):
        raise InputError("input must be a JSON object")
    members = doc.get("catalog")
    if not isinstance(members, list) or not members:
        raise InputError("catalog must be a nonempty list of Heyting records")
    K = AlgebraCatalog(
        "heyting",
        tuple(_heyting_record(r) for r in members),
        "input",
    )
    M = ModalAlgebra.from_record(doc.get("algebra"))
    res = blok_esakia_catalog_check(K, M)
    _emit(res, args)
    return 0 if res["holds"] else 1


def _cmd_translate(args) -> int:
    parsed = parse(args.rule, args.signature)
    if isinstance(parsed, Formula):
        parsed = Rule((), (parsed,), args.signature)
    sent = translate(parsed)
    _emit(
        {
            "sentence": sentence_to_json(sent),
            "classification": sent.classification,
            "variables": list(sent.variables),
            "signature": sent.signature,
        },
        args,
    )
    return 0


def _cmd_eval(args) -> int:
    A = _any_algebra(args.input)
    signature = "modal" if isinstance(A, ModalAlgebra) else "heyting"
    sent = _sentence_from_args(args, signature)
    res = eval_sentence(A, sent, cap=args.cap)
    _emit(res, args)
    return 0 if res["valid"] else 1


def _cmd_catalog_eval(args) -> int:
    K = _catalog_from_args(args)
    sent = _sentence_from_args(args, K.kind)
    res = catalog_validates(K, sent, cap=args.cap)
    _emit(res, args)
    return 0 if res["valid"] else 1


def _cmd_free(args) -> int:
    K = _catalog_from_args(args)
    free = free_algebra(K, args.k, coord_cap=args.coord_cap, element_cap=args.element_cap)
    _emit(
        {
            "kind": K.kind,
            "k": args.k,
            "size": free.algebra.size,
            "generators": list(free.generators),
            "terms": {str(e): to_text(t) for e, t in sorted(free.terms.items())},
        },
        args,
    )
    return 0


def _cmd_admissible(args) -> int:
    K = _catalog_from_args(args)
    sent = _sentence_from_args(args, K.kind)
    res = weakly_admissible_k(K, sent, args.k, args.coord_cap, args.element_cap)
    res["sentence"] = sentence_to_json(sent)
    _emit(res, args)
    return 0 if res["admissible_k"] else 1


def _cmd_completeness_report(args) -> int:
    K = _catalog_from_args(args)
    rules = enumerate_rules(K.kind, args.max_vars, args.max_premises, depth=args.depth)
    rep = completeness_report_k(K, rules, args.k, args.mode, args.coord_cap, args.element_cap)
    _emit(rep, args)
    return 0 if not rep["violations"] else 1


def _cmd_sigma_free(args) -> int:
    K = _catalog_from_args(args)
    res = sigma_free_checks(K, args.k, args.coord_cap, args.element_cap)
    _emit(res, args)
    ok = res["embedding"]["injective"] and res["free_sigma_opens_in_quasivariety"]["holds"]
    return 0 if ok else 1


def _cmd_enumerate(args) -> int:
    n = args.n
    if args.what in ("posets", "topologies"):
        enum, entries = {
            "posets": (enumerate_posets, poset_entries),
            "topologies": (enumerate_topologies, interior_entries),
        }[args.what]
        # Largest first, so a count past its cap is refused before any work.
        counts = [len(enum(i)) for i in range(n, -1, -1)][::-1]
        if args.out:
            catalog_mod.save(args.out, entries(n))
        doc = {"what": args.what, "n": n, "counts": counts, "total": sum(counts)}
    else:
        members = enumerate_heyting(n)
        sizes: dict[int, int] = {}
        for H in members:
            sizes[H.size] = sizes.get(H.size, 0) + 1
        if args.out:
            entries = {f"heyting_{i:03d}": H for i, H in enumerate(members)}
            catalog_mod.save(args.out, entries)
        doc = {
            "what": "heyting",
            "max_size": n,
            "count": len(members),
            "by_size": {str(s): c for s, c in sorted(sizes.items())},
        }
    if args.out:
        doc["out"] = args.out
    _emit(doc, args)
    return 0


def _cmd_verify_all(args) -> int:
    selected = None
    if args.criteria:
        try:
            selected = {int(tok) for tok in args.criteria.split(",")}
        except ValueError:
            raise InputError("criteria must be a comma-separated list of numbers")
    res = run_all(selected)
    for check in res["checks"]:
        status = "ok" if check["ok"] else "FAIL"
        print(
            f"[{check['criterion']:2d}] {check['name']}: {status} "
            f"in {check['seconds']}s (bound {check['bound']}s)",
            file=sys.stderr,
        )
    _emit(res, args)
    return 0 if res["ok"] else 1


# ---------------------------------------------------------------------------
# Parser assembly


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grzlab",
        description="Finite-model workbench for Heyting and Grzegorczyk algebras.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="compact single-line JSON output"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, help_text, parents=(common,)):
        sp = sub.add_parser(name, parents=list(parents), help=help_text)
        sp.set_defaults(handler=handler)
        return sp

    def modal_source(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--input", help="modal algebra JSON file")
        g.add_argument("--std", choices=("S2", "S12"), help="a standard algebra")

    def catalog_source(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--input", help="catalog file")
        g.add_argument(
            "--heyting", type=int, metavar="N",
            help="built-in Heyting catalog of sizes up to N",
        )
        g.add_argument(
            "--interior", type=int, metavar="K",
            help="built-in interior catalog on up to K atoms",
        )

    sp = add("grz-check", _cmd_grz_check, "validate a modal algebra and test Grz")
    modal_source(sp)

    sp = add("blok-char", _cmd_blok_char, "structural Grz characterization")
    modal_source(sp)

    sp = add("stable-witness", _cmd_stable_witness, "stable surjection onto S2 at a failure")
    modal_source(sp)
    sp.add_argument("--element", type=int, required=True, help="failing element mask")

    sp = add("build-B", _cmd_build_b, "Boolean extension of a Heyting algebra")
    sp.add_argument("--input", required=True, help="Heyting algebra JSON file")

    sp = add("build-O", _cmd_build_o, "Heyting algebra of open elements")
    modal_source(sp)

    sp = add("finite-blok", _cmd_finite_blok, "isomorphism with BO(M) plus open chain")
    modal_source(sp)

    sp = add("box-extend", _cmd_box_extend, "one staged elimination step")
    sp.add_argument(
        "--input", required=True,
        help="JSON file with algebra record, blocks (atom index lists), g",
    )

    sp = add("be-check", _cmd_be_check, "three-way catalog correspondence")
    sp.add_argument(
        "--input", required=True,
        help="JSON file with a Heyting catalog list and a modal algebra record",
    )

    sp = add("translate", _cmd_translate, "rule to universal sentence")
    sp.add_argument("rule", help="rule text, e.g. 'p, p -> q / q'")
    sp.add_argument(
        "--signature", choices=("heyting", "modal"), default="heyting"
    )

    sp = add("eval", _cmd_eval, "evaluate a sentence on one algebra")
    sp.add_argument("rule", nargs="?", help="rule text")
    sp.add_argument("--input", required=True, help="algebra JSON file")
    sp.add_argument("--sentence", help="sentence JSON file instead of rule text")
    sp.add_argument("--cap", type=int, default=EVAL_CAP, help="assignment cap")

    sp = add("catalog-eval", _cmd_catalog_eval, "evaluate a sentence on a catalog")
    sp.add_argument("rule", nargs="?", help="rule text")
    catalog_source(sp)
    sp.add_argument("--sentence", help="sentence JSON file instead of rule text")
    sp.add_argument("--cap", type=int, default=EVAL_CAP, help="assignment cap")

    def free_caps(sp):
        sp.add_argument("--coord-cap", type=int, default=COORD_CAP)
        sp.add_argument("--element-cap", type=int, default=ELEMENT_CAP)

    sp = add("free", _cmd_free, "bounded free algebra over a catalog")
    catalog_source(sp)
    sp.add_argument("--k", type=int, required=True, help="generator count")
    free_caps(sp)

    sp = add("admissible", _cmd_admissible, "bounded weak admissibility of a rule")
    sp.add_argument("rule", nargs="?", help="rule text")
    catalog_source(sp)
    sp.add_argument("--sentence", help="sentence JSON file instead of rule text")
    sp.add_argument("--k", type=int, required=True, help="generator bound")
    free_caps(sp)

    sp = add("completeness-report", _cmd_completeness_report, "admissible-but-invalid candidates")
    catalog_source(sp)
    sp.add_argument("--k", type=int, required=True, help="generator bound")
    sp.add_argument("--max-vars", type=int, default=2)
    sp.add_argument("--max-premises", type=int, default=2)
    sp.add_argument("--depth", type=int, default=1, help="connective depth of candidates")
    sp.add_argument("--mode", choices=("structural", "universal"), default="structural")
    free_caps(sp)

    sp = add("sigma-free", _cmd_sigma_free, "free-algebra checks for the extension passage")
    catalog_source(sp)
    sp.add_argument("--k", type=int, required=True, help="generator bound")
    free_caps(sp)

    sp = add("enumerate", _cmd_enumerate, "catalog enumeration with counts")
    sp.add_argument("--what", choices=("posets", "topologies", "heyting"), required=True)
    sp.add_argument("--n", type=int, required=True, help="points, or maximum size")
    sp.add_argument("--out", help="write the enumerated catalog to this file")

    sp = add("verify-all", _cmd_verify_all, "run the acceptance suite")
    sp.add_argument("--criteria", help="comma-separated criterion numbers")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
