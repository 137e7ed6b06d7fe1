"""The benchmark's own test: every workload at reduced size, every metric named.

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs with ``--quick`` in both modes, with every oracle
checked by the processes it starts; the metric names printed must be
exactly those that BENCHMARK.json declares.  The oracles themselves are
checked on answers known to be wrong.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import grzlab as g  # noqa: E402
from grzlab import ulogic  # noqa: E402

import oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_declared_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for key in ("nproc", "python", "numpy", "numba", "git_commit", "seed", "counts_per_body"):
        assert key in record
    assert record["seed"] == 7 and record["workload"] == workload


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_evaluator_catches_a_wrong_verdict():
    cat = g.heyting_catalog(4)
    em = ulogic.translate(ulogic.parse_rule("/ p | ~p", "heyting"))
    right = {"valid": False, "failing_member": 2, "counterexample": {"p": 1}}
    oracle.check_catalog_verdict(em, cat.members, right)
    for wrong in (
        {"valid": True, "failing_member": None, "counterexample": None},
        {"valid": False, "failing_member": 2, "counterexample": {"p": 0}},
        {"valid": False, "failing_member": 3, "counterexample": {"p": 1}},
    ):
        with pytest.raises(oracle.OracleError):
            oracle.check_catalog_verdict(em, cat.members, wrong)


def test_reference_grz_scan():
    assert oracle.grz_fails(g.make_standard("S2"))
    assert oracle.grz_fails(g.make_standard("S12"))
    assert not oracle.grz_fails(g.complex_algebra(g.chain_poset(3)))


def test_reference_free_sizes():
    assert [oracle.chain_free_size(2, k) for k in (0, 1, 2)] == [2, 4, 16]
    # One generator over the 3-chain: bot, x, ~x, ~~x, x | ~x and top.
    assert oracle.chain_free_size(3, 1) == 6


def test_reference_embedding():
    S2 = g.make_standard("S2")
    two = g.chain_heyting(2)
    three = g.chain_heyting(3)
    M3 = g.complex_algebra(g.chain_poset(2))
    assert oracle.opens_embed(S2, two)
    assert oracle.opens_embed(M3, three)
    assert not oracle.opens_embed(M3, two)
    assert not oracle.opens_embed(g.ModalAlgebra(1, np.array([0, 1])), g.trivial_heyting())
