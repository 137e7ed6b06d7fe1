"""Vectorized numpy axiom scans over operation tables.

Each kernel returns the least witness in a fixed order, so callers report
the same counterexample every run.  Term evaluation lives in ``ulogic``.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# K axiom scan: first pair (a, b) with box(a & b) != box(a) & box(b)


# Cells one numpy comparison of the K scan covers: a block of rows of the
# (a, b) table, at least one row.
K_BLOCK_CELLS = 8192


def k_axiom_witness(box: np.ndarray) -> int:
    """Least (a, b) with box(a∧b) ≠ box(a)∧box(b), packed as a*size+b; -1 if none."""
    box = np.ascontiguousarray(box, dtype=np.int64)
    size = box.shape[0]
    idx = np.arange(size, dtype=np.int64)
    rows = max(1, K_BLOCK_CELLS // size)
    for start in range(0, size, rows):
        a = idx[start : start + rows, None]
        bad = np.flatnonzero(box[a & idx] != (box[a] & box))
        if bad.size:
            return int(start * size + bad[0])
    return -1


# ---------------------------------------------------------------------------
# Residuation scan: first (a, b, c) with (a meet b <= c) != (a <= b -> c)


def residuation_witness(meet: np.ndarray, imp: np.ndarray, leq: np.ndarray) -> int:
    """Least (a, b, c) violating the residuation law, packed; -1 if none."""
    meet = np.ascontiguousarray(meet, dtype=np.int64)
    imp = np.ascontiguousarray(imp, dtype=np.int64)
    leq = np.ascontiguousarray(leq, dtype=np.uint8)
    n = meet.shape[0]
    for a in range(n):
        left = leq[meet[a], :]  # left[b, c] = (a meet b) <= c
        right = leq[a][imp]  # right[b, c] = a <= (b -> c)
        bad = np.nonzero(left != right)
        if bad[0].size:
            b = int(bad[0][0])
            c = int(bad[1][0])
            return (a * n + b) * n + c
    return -1

