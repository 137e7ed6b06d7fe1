"""Reference answers that do not come from the code under test.

Known sequence values, a table evaluator of our own for sentences, a
brute-force free-algebra closure over chains, and a brute-force Heyting
embedding test.  Every check raises OracleError on a wrong answer; the
benchmark stops rather than count it as a failed operation.
"""

from __future__ import annotations

import itertools
import json
import pathlib

import numpy as np

# Heyting algebras with n elements, n = 1.. (OEIS A006966).
HEYTING_BY_SIZE = (1, 1, 1, 2, 3, 5, 8, 15)
# Topologies on k points up to homeomorphism, k = 0.. (OEIS A001930).
INTERIOR_BY_ATOMS = (1, 1, 3, 9, 33)
# Posets on k points up to isomorphism, k = 0.. (OEIS A000112); the finite
# Grzegorczyk interior algebras are exactly the complex algebras of posets.
GRZ_BY_ATOMS = (1, 1, 2, 5, 16)


class OracleError(AssertionError):
    """A verdict of the program disagrees with the reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise OracleError(what)


# ---------------------------------------------------------------------------
# Our own evaluator.  Formulas are the program's syntax trees, read only by
# node type and field; algebras are read only through their tables.


def value(f, alg, env: dict[str, int]) -> int:
    kind = type(f).__name__
    modal = hasattr(alg, "box")
    top = (1 << alg.atoms) - 1 if modal else alg.top
    if kind == "Var":
        return env[f.name]
    if kind == "Const":
        return top if f.name == "top" else (0 if modal else alg.bot)
    if kind == "Not":
        x = value(f.arg, alg, env)
        return top ^ x if modal else int(alg.imp[x, alg.bot])
    if kind == "Box":
        return int(alg.box[value(f.arg, alg, env)])
    x = value(f.left, alg, env)
    y = value(f.right, alg, env)
    if modal:
        return {"And": x & y, "Or": x | y, "Imp": (top ^ x) | y}[kind]
    table = {"And": alg.meet, "Or": alg.join, "Imp": alg.imp}[kind]
    return int(table[x, y])


def holds_at(sent, alg, env: dict[str, int]) -> bool:
    if any(value(l, alg, env) != value(r, alg, env) for l, r in sent.premises):
        return True
    return any(value(l, alg, env) == value(r, alg, env) for l, r in sent.conclusions)


def least_counterexample(sent, alg) -> dict | None:
    """First refuting assignment, first variable most significant."""
    size = 1 << alg.atoms if hasattr(alg, "box") else alg.size
    for values in itertools.product(range(size), repeat=len(sent.variables)):
        env = dict(zip(sent.variables, values))
        if not holds_at(sent, alg, env):
            return env
    return None


def assignment_index(env: dict[str, int], variables, size: int) -> int:
    idx = 0
    for name in variables:
        idx = idx * size + env[name]
    return idx


def check_catalog_verdict(sent, members, got: dict) -> None:
    """Compare a catalog_validates result with a member-by-member scan."""
    for i, alg in enumerate(members):
        cex = least_counterexample(sent, alg)
        if cex is not None:
            require(
                got == {"valid": False, "failing_member": i, "counterexample": cex},
                f"catalog verdict {got}, reference: member {i} fails at {cex}",
            )
            return
    require(got["valid"] is True, f"catalog verdict {got}, reference: valid")


def grz_fails(alg) -> bool:
    """Our own scan of box(box(p -> box p) -> p) <= p over every element."""
    top = (1 << alg.atoms) - 1
    box = alg.box
    for p in range(top + 1):
        inner = int(box[(top ^ p) | int(box[p])])
        lhs = int(box[(top ^ inner) | p])
        if lhs & p != lhs:
            return True
    return False


# ---------------------------------------------------------------------------
# Free algebras over chains


def chain_free_size(n: int, k: int) -> int:
    """Size of the k-generated subalgebra of the n-chain to the power n^k.

    The chain 0 < 1 < ... < n-1 has meet min, join max, and a -> b equal to
    top when a <= b and b otherwise.
    """
    coords = np.array(list(itertools.product(range(n), repeat=k)), dtype=np.int64)
    top = n - 1
    elems = {tuple([0] * len(coords)), tuple([top] * len(coords))}
    elems |= {tuple(coords[:, i]) for i in range(k)}
    while True:
        arr = np.array(sorted(elems), dtype=np.int64)
        a, b = arr[:, None, :], arr[None, :, :]
        made = np.concatenate(
            [
                np.minimum(a, b).reshape(-1, len(coords)),
                np.maximum(a, b).reshape(-1, len(coords)),
                np.where(a <= b, top, b).reshape(-1, len(coords)),
            ]
        )
        grown = elems | set(map(tuple, np.unique(made, axis=0)))
        if len(grown) == len(elems):
            return len(elems)
        elems = grown


# ---------------------------------------------------------------------------
# Embeddings of the opens of an interior algebra into a Heyting algebra


def opens_embed(M, H) -> bool:
    """Is there an injective Heyting homomorphism from the opens of M into H?"""
    top = (1 << M.atoms) - 1
    opens = [a for a in range(top + 1) if int(M.box[a]) == a]
    if len(opens) > H.size:
        return False
    pairs = [(i, j) for i in range(len(opens)) for j in range(len(opens))]
    for image in itertools.permutations(range(H.size), len(opens)):
        f = dict(zip(opens, image))
        if f[0] != H.bot or f[top] != H.top:
            continue
        if all(
            f[opens[i] & opens[j]] == H.meet[image[i], image[j]]
            and f[opens[i] | opens[j]] == H.join[image[i], image[j]]
            and f[int(M.box[(top ^ opens[i]) | opens[j]])] == H.imp[image[i], image[j]]
            for i, j in pairs
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# The shipped golden file


def shipped_entries(path: pathlib.Path) -> dict:
    return json.loads(path.read_text())["entries"]


def interior_record(M) -> dict:
    return {"kind": "modal", "atoms": int(M.atoms), "box": [int(x) for x in M.box]}
