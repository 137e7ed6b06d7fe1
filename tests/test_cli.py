"""End-to-end CLI checks through main(argv)."""

import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

import grzlab
from grzlab import catalog as catalog_mod
from grzlab import cli
from grzlab.cli import main
from grzlab.finlat import chain_heyting, chain_poset, antichain_poset
from grzlab.modal import complex_algebra


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_grz_check_standard(capsys):
    code, doc, _ = run_json(capsys, "grz-check", "--std", "S2")
    assert code == 1
    assert doc == {
        "K": True,
        "atoms": 2,
        "grz": False,
        "interior": True,
        "witness": 1,
    }


def test_grz_check_grz_algebra(capsys, tmp_path):
    rec = complex_algebra(chain_poset(2)).to_record()
    path = write_json(tmp_path / "m.json", rec)
    code, doc, _ = run_json(capsys, "grz-check", "--input", path)
    assert code == 0
    assert doc["grz"] and doc["witness"] is None


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "blok-char", "--std", "S12")
    _, second, _ = run(capsys, "blok-char", "--std", "S12")
    assert first == second


def test_json_flag_compacts(capsys):
    _, out, _ = run(capsys, "grz-check", "--std", "S2", "--json")
    assert out.count("\n") == 1
    json.loads(out)


def test_blok_char_witness_fields(capsys):
    code, doc, _ = run_json(capsys, "blok-char", "--std", "S12")
    assert code == 1 and not doc["is_grz"]
    w = doc["witness"]
    assert w["target"] == "S12"
    assert w["subalgebra"] == list(range(8))
    assert w["filter_least"] == 7
    assert len(w["iso"]) == 8


def test_stable_witness(capsys):
    code, doc, _ = run_json(
        capsys, "stable-witness", "--std", "S12", "--element", "5"
    )
    assert code == 0
    assert doc["target"] == "S2" and doc["map"][5] == 1
    # a non-failing element is a usage error
    code, _, err = run(capsys, "stable-witness", "--std", "S12", "--element", "4")
    assert code == 2 and "error" in err


def test_build_b(capsys, tmp_path):
    path = write_json(tmp_path / "h.json", chain_heyting(3).to_record())
    code, doc, _ = run_json(capsys, "build-B", "--input", path)
    assert code == 0
    assert doc["embedding"] == [0, 1, 3]
    assert doc["algebra"]["atoms"] == 2
    assert doc["algebra"]["box"] == [0, 1, 0, 3]


def test_build_o(capsys):
    code, doc, _ = run_json(capsys, "build-O", "--std", "S12")
    assert code == 0
    assert doc["opens"] == [0, 4, 7]
    assert doc["algebra"]["size"] == 3


def test_build_roundtrip(capsys, tmp_path):
    path = write_json(tmp_path / "h.json", chain_heyting(3).to_record())
    _, built, _ = run_json(capsys, "build-B", "--input", path)
    bpath = write_json(tmp_path / "b.json", built["algebra"])
    code, doc, _ = run_json(capsys, "build-O", "--input", bpath)
    assert code == 0
    assert doc["opens"] == built["embedding"]


def test_finite_blok(capsys, tmp_path):
    rec = complex_algebra(chain_poset(2)).to_record()
    path = write_json(tmp_path / "m.json", rec)
    code, doc, _ = run_json(capsys, "finite-blok", "--input", path)
    assert code == 0
    assert doc["iso"] == [0, 1, 2, 3]
    assert doc["chain"] == [0, 1, 3]
    # non-Grz input is rejected up front
    code, _, err = run(capsys, "finite-blok", "--std", "S2")
    assert code == 2 and "error" in err


def test_box_extend_golden_step(capsys, tmp_path):
    doc_in = {
        "algebra": complex_algebra(chain_poset(3)).to_record(),
        "blocks": [[0, 1, 2]],
        "g": 2,
    }
    path = write_json(tmp_path / "step.json", doc_in)
    code, doc, _ = run_json(capsys, "box-extend", "--input", path)
    assert code == 0
    assert doc["p"] == 2
    assert doc["opens_used"] == [0, 1, 3, 7]
    assert doc["map"] == {"domain": [0, 2, 5, 7], "map": [0, 2, 5, 7]}
    assert doc["target_elements"] == list(range(8))

    bad = dict(doc_in, blocks=[[0, 9]])
    path = write_json(tmp_path / "bad.json", bad)
    code, _, err = run(capsys, "box-extend", "--input", path)
    assert code == 2 and "out of range" in err


def test_be_check_both_ways(capsys, tmp_path):
    catalog = [chain_heyting(3).to_record()]
    good = {
        "catalog": catalog,
        "algebra": complex_algebra(chain_poset(2)).to_record(),
    }
    path = write_json(tmp_path / "good.json", good)
    code, doc, _ = run_json(capsys, "be-check", "--input", path)
    assert code == 0 and doc["holds"]

    bad = {
        "catalog": catalog,
        "algebra": complex_algebra(antichain_poset(2)).to_record(),
    }
    path = write_json(tmp_path / "bad.json", bad)
    code, doc, _ = run_json(capsys, "be-check", "--input", path)
    assert code == 1 and not doc["holds"]


def n5_record():
    """The pentagon lattice 0 < 1 < 2 < 4, 0 < 3 < 4, with imp constant top:
    not distributive, so not a Heyting algebra."""
    return {
        "kind": "heyting",
        "size": 5,
        "meet": [[0, 0, 0, 0, 0], [0, 1, 1, 0, 1], [0, 1, 2, 0, 2], [0, 0, 0, 3, 3], [0, 1, 2, 3, 4]],
        "join": [[0, 1, 2, 3, 4], [1, 1, 2, 4, 4], [2, 2, 2, 4, 4], [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]],
        "imp": [[4] * 5 for _ in range(5)],
        "bot": 0,
        "top": 4,
    }


@pytest.mark.parametrize("verb", [("build-B",), ("eval", "/ p | ~p")])
def test_heyting_input_is_refused_unless_heyting(capsys, tmp_path, verb):
    path = write_json(tmp_path / "n5.json", n5_record())
    code, out, err = run(capsys, *verb, "--input", path)
    assert code == 2 and out == ""
    assert "invalid Heyting algebra" in err and "residuation" in err


def test_be_check_refuses_a_member_that_is_not_heyting(capsys, tmp_path):
    doc = {
        "catalog": [chain_heyting(3).to_record(), n5_record()],
        "algebra": complex_algebra(chain_poset(2)).to_record(),
    }
    path = write_json(tmp_path / "in.json", doc)
    code, out, err = run(capsys, "be-check", "--input", path)
    assert code == 2 and out == ""
    assert "invalid Heyting algebra" in err and "internal check" not in err


def test_translate(capsys):
    code, doc, _ = run_json(capsys, "translate", "p, p -> q / q")
    assert code == 0
    assert doc["classification"] == "quasi-identity"
    assert doc["variables"] == ["p", "q"]
    assert doc["sentence"]["premises"] == [["p", "top"], ["p -> q", "top"]]
    code, doc, _ = run_json(capsys, "translate", "box p -> p", "--signature", "modal")
    assert doc["classification"] == "identity"


def test_eval_on_files(capsys, tmp_path):
    path = write_json(tmp_path / "c3.json", chain_heyting(3).to_record())
    code, doc, _ = run_json(capsys, "eval", "/ p | ~p", "--input", path)
    assert code == 1
    assert doc == {"valid": False, "counterexample": {"p": 1}}

    code, doc, _ = run_json(capsys, "eval", "p, p -> q / q", "--input", path)
    assert code == 0 and doc["valid"]

    sent = write_json(
        tmp_path / "s.json",
        {"premises": [], "conclusions": [["p | ~p", "top"]]},
    )
    code, doc, _ = run_json(capsys, "eval", "--input", path, "--sentence", sent)
    assert code == 1

    code, _, err = run(capsys, "eval", "/ p | (q -> r)", "--input", path, "--cap", "10")
    assert code == 3 and "cap" in err


def test_catalog_eval(capsys):
    code, doc, _ = run_json(capsys, "catalog-eval", "/ p | ~p", "--heyting", "2")
    assert code == 0 and doc["valid"]
    code, doc, _ = run_json(capsys, "catalog-eval", "/ p | ~p", "--heyting", "3")
    assert code == 1
    assert doc["failing_member"] == 2 and doc["counterexample"] == {"p": 1}


def test_catalog_eval_from_file(capsys, tmp_path):
    from grzlab import catalog as catalog_mod

    path = tmp_path / "cat.json"
    catalog_mod.save(path, {"a": chain_heyting(2), "b": chain_heyting(3)})
    code, doc, _ = run_json(capsys, "catalog-eval", "/ p | ~p", "--input", str(path))
    assert code == 1 and doc["failing_member"] == 1


def test_free(capsys):
    code, doc, _ = run_json(capsys, "free", "--heyting", "2", "--k", "1")
    assert code == 0
    assert doc["size"] == 4 and doc["generators"] == [1]
    assert doc["terms"] == {"0": "bot", "1": "x0", "2": "x0 -> bot", "3": "top"}
    code, _, err = run(capsys, "free", "--heyting", "3", "--k", "4", "--element-cap", "64")
    assert code == 3


def test_admissible(capsys):
    code, doc, _ = run_json(capsys, "admissible", "p, p -> q / q", "--heyting", "2", "--k", "1")
    assert code == 0 and doc["admissible_k"]
    code, doc, _ = run_json(capsys, "admissible", "/ bot", "--heyting", "2", "--k", "1")
    assert code == 1 and not doc["admissible_k"]
    assert doc["sentence"]["conclusions"] == [["bot", "top"]]


def test_admissible_certificate_bytes(capsys):
    # The SHA-1 of the output as the homomorphism search gave it: reading
    # the maps off the free algebra's coordinates keeps every byte.
    code, out, _ = run(capsys, "admissible", "p / p", "--heyting", "4", "--k", "2", "--json")
    assert code == 0 and len(out) == 11696
    assert hashlib.sha1(out.encode()).hexdigest() == "ab6859198da689f068c06e4071eb40f987d7d045"


NINE_4_CHAINS = "nine-4-chains.json"


def verb_flags(verb):
    """The option strings the verb's parser accepts."""
    parser = cli._build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return set(verbs.choices[verb]._option_string_actions)


@pytest.mark.parametrize(
    "argv",
    [
        ("admissible", "p | ~p", "--heyting", "5", "--k", "2"),
        ("admissible", "p | ~p", "--heyting", "5", "--k", "2", "--coord-cap", "200"),
        ("admissible", "p | ~p", "--heyting", "3", "--k", "1", "--element-cap", "2000000"),
        ("completeness-report", "--heyting", "5", "--k", "2"),
        ("completeness-report", "--heyting", "5", "--k", "2", "--coord-cap", "200"),
        ("completeness-report", "--heyting", "3", "--k", "1", "--element-cap", "2000000"),
        ("completeness-report", "--heyting", "3", "--k", "1", "--max-vars", "3"),
        # The Boolean extensions of nine 4-chains give 72 coordinates at k = 1.
        ("sigma-free", "--input", NINE_4_CHAINS, "--k", "1"),
    ],
)
def test_refusals_name_flags_their_verb_takes(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    catalog_mod.save(NINE_4_CHAINS, {f"c{i}": chain_heyting(4) for i in range(9)})
    code, _, err = run(capsys, *argv)
    named = set(re.findall(r"--[a-z][a-z-]*", err))
    assert code == 3 and named
    assert named <= verb_flags(argv[0])


def test_admissible_and_completeness_report_take_the_free_algebra_caps(capsys):
    # The two-chain's free algebra at k = 2 has 5 coordinates and 16 elements.
    for verb in (("admissible", "p | ~p"), ("completeness-report",)):
        code, _, err = run(capsys, *verb, "--heyting", "2", "--k", "2", "--coord-cap", "4")
        assert code == 3 and "cap is 4 (COORD_CAP" in err
        code, _, err = run(capsys, *verb, "--heyting", "2", "--k", "2", "--element-cap", "15")
        assert code == 3 and "exceeds 15 elements (ELEMENT_CAP" in err
        code, _, _ = run(capsys, *verb, "--heyting", "2", "--k", "2", "--element-cap", "16")
        assert code in (0, 1)


def test_completeness_report(capsys):
    code, doc, _ = run_json(
        capsys,
        "completeness-report", "--heyting", "2", "--k", "1",
        "--max-vars", "1", "--max-premises", "1", "--depth", "0",
    )
    assert code == 0
    assert doc["checked"] == 12 and doc["violations"] == []


GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "cli_outputs.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{i}-{case['argv'][0]}" for i, case in enumerate(GOLDEN)])
def test_report_and_catalog_eval_output_is_unchanged(capsys, case):
    # Outputs recorded before candidate lists were scanned in one batch:
    # reports with and without violations, and first failures.
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


def test_completeness_report_rejects_max_vars_above_4(capsys, monkeypatch):
    from grzlab import ulogic

    def refuse(*args, **kwargs):
        raise AssertionError("formulas were enumerated")

    monkeypatch.setattr(ulogic, "enumerate_formulas", refuse)
    for bad in ("5", "0"):
        code, out, err = run(
            capsys, "completeness-report", "--heyting", "3", "--k", "1", "--max-vars", bad
        )
        assert code == 2 and out == ""
        assert "max_vars must lie in 1..4" in err


def test_completeness_report_refuses_over_rule_cap(capsys, monkeypatch):
    from grzlab import ulogic

    def refuse(*args, **kwargs):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(ulogic, "Rule", refuse)
    code, out, err = run(
        capsys, "completeness-report", "--heyting", "3", "--k", "1", "--max-vars", "3"
    )
    assert code == 3 and out == ""
    assert "310760" in err and f"RULE_CAP is {ulogic.RULE_CAP}" in err


def test_completeness_report_refuses_depth_3_before_building_it(capsys, monkeypatch):
    from grzlab import ulogic

    def refuse(*args, **kwargs):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(ulogic, "Rule", refuse)
    code, out, err = run(
        capsys, "completeness-report", "--heyting", "3", "--k", "1", "--depth", "3"
    )
    assert code == 3 and out == ""
    assert "268938544 formulas at depth 3" in err
    assert f"RULE_CAP is {ulogic.RULE_CAP}" in err


def test_completeness_report_rule_cap_refusal_names_the_flags(capsys):
    code, out, err = run(capsys, "completeness-report", "--interior", "2", "--k", "1")
    assert (code, out) == (3, "")
    assert err == (
        "error: 109860 candidate rules requested, RULE_CAP is 100000 (default 100000); "
        "lower --max-vars, --max-premises or --depth, no flag raises it\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--what", "posets", "--n", "8"),
        ("enumerate", "--what", "topologies", "--n", "7"),
        ("catalog-eval", "--interior", "7", "/ p"),
        ("free", "--interior", "7", "--k", "1"),
        ("completeness-report", "--interior", "7", "--k", "1"),
    ],
)
def test_catalog_building_verbs_refuse_past_the_enumeration_caps(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "_POINT_CAP is" in err


def test_internal_check_failure_exits_4(capsys, tmp_path, monkeypatch):
    from grzlab import bridge
    from grzlab.errors import InternalCheckError

    def broken(M):
        raise InternalCheckError("planted certificate failure")

    monkeypatch.setattr(bridge, "finite_blok_check", broken)
    doc = {
        "catalog": [chain_heyting(3).to_record()],
        "algebra": complex_algebra(chain_poset(2)).to_record(),
    }
    path = write_json(tmp_path / "in.json", doc)
    code, out, err = run(capsys, "be-check", "--input", path)
    assert code == 4 and out == ""
    assert "internal check failed" in err and "planted certificate failure" in err


def test_sigma_free(capsys, tmp_path):
    code, doc, _ = run_json(capsys, "sigma-free", "--heyting", "2", "--k", "1")
    assert code == 0
    assert doc["embedding"]["injective"]
    assert doc["free_sigma_opens_in_quasivariety"]["holds"]
    # The 4-chain's free algebra at k = 1 is the case that tells O(F_sigmaK)
    # in Q(K) apart from F_sigmaK in Q(B(F_K)), which fails there.
    code, doc, _ = run_json(capsys, "sigma-free", "--heyting", "4", "--k", "1")
    assert code == 0 and doc["free_sigma_opens_in_quasivariety"]["holds"]
    # No fixed bound refuses heyting_catalog(5) at k = 1.
    start = time.perf_counter()
    code, doc, _ = run_json(capsys, "sigma-free", "--heyting", "5", "--k", "1")
    assert time.perf_counter() - start < 3.0
    assert code == 0 and doc["free_sigma_opens_in_quasivariety"]["holds"]
    # Nine 4-chains: 36 coordinates for F_K(1), 72 for F_sigmaK(1); both
    # free algebras take the caps.
    path = str(tmp_path / NINE_4_CHAINS)
    catalog_mod.save(path, {f"c{i}": chain_heyting(4) for i in range(9)})
    code, _, err = run(capsys, "sigma-free", "--input", path, "--k", "1")
    assert code == 3 and "needs 72 coordinates, cap is 64 (COORD_CAP" in err
    code, _, err = run(capsys, "sigma-free", "--input", path, "--k", "1", "--coord-cap", "30")
    assert code == 3 and "needs 36 coordinates, cap is 30 (COORD_CAP" in err
    code, doc, _ = run_json(capsys, "sigma-free", "--input", path, "--k", "1", "--coord-cap", "72")
    assert code == 0 and doc["free_sigma_opens_in_quasivariety"]["holds"]
    code, _, err = run(capsys, "sigma-free", "--input", path, "--k", "1", "--coord-cap", "72", "--element-cap", "10")
    assert code == 3 and "exceeds 10 elements (ELEMENT_CAP" in err


def test_enumerate(capsys, tmp_path):
    code, doc, _ = run_json(capsys, "enumerate", "--what", "posets", "--n", "3")
    assert code == 0
    assert doc["counts"] == [1, 1, 2, 5] and doc["total"] == 9

    code, doc, _ = run_json(capsys, "enumerate", "--what", "topologies", "--n", "2")
    assert doc["counts"] == [1, 1, 3]

    out = tmp_path / "heyting.json"
    code, doc, _ = run_json(
        capsys, "enumerate", "--what", "heyting", "--n", "5", "--out", str(out)
    )
    assert doc["count"] == 8
    assert doc["by_size"] == {"1": 1, "2": 1, "3": 1, "4": 2, "5": 3}
    from grzlab import catalog as catalog_mod

    assert len(catalog_mod.load(out).entries) == 8

    code, _, err = run(capsys, "enumerate", "--what", "posets", "--n", "9")
    assert code == 3


def test_enumerate_posets_at_the_point_cap_within_budget():
    # A fresh process, so no enumeration level is cached: POSET_POINT_CAP
    # (7 points) from cold, well under a second on a 2-CPU x86_64 host.
    src = str(pathlib.Path(grzlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    argv = ["enumerate", "--what", "posets", "--n", "7", "--json"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "grzlab.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    seconds = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    # OEIS A000112: posets on 0..7 points up to isomorphism
    assert json.loads(proc.stdout)["counts"] == [1, 1, 2, 5, 16, 63, 318, 2045]
    assert seconds < 5.0


def test_verify_all_single_criterion(capsys):
    code, doc, err = run_json(capsys, "verify-all", "--criteria", "1")
    assert code == 0 and doc["ok"]
    assert len(doc["checks"]) == 1
    assert doc["checks"][0]["criterion"] == 1
    assert "[ 1]" in err and ": ok" in err

    code, _, err = run(capsys, "verify-all", "--criteria", "x")
    assert code == 2

    # The checks always run on their full catalogs: there is no shrink flag.
    for flag in ("--max-atoms", "--max-size"):
        with pytest.raises(SystemExit) as info:
            main(["verify-all", flag, "2"])
        assert info.value.code == 2
        capsys.readouterr()


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["grz-check"])  # a modal source is required
    assert info.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit):
        main(["no-such-verb"])
    capsys.readouterr()

    code, _, err = run(capsys, "eval", "/ p", "--input", "/no/such/file.json")
    assert code == 2 and "error" in err

    bad = "not json"
    import pathlib
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(bad)
        name = fh.name
    try:
        code, _, err = run(capsys, "eval", "/ p", "--input", name)
        assert code == 2 and "JSON" in err
    finally:
        pathlib.Path(name).unlink()
