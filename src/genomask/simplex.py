"""Two-phase revised simplex for small equality-form problems.

Solves  minimize c @ x  subject to  A x = b, x >= 0.

Bland's rule everywhere (smallest eligible index), an explicit basis inverse
with rank-1 updates, periodic refactorization, and a Gaussian pre-pass that
removes dependent rows.  The pre-pass and the updates touch only the nonzero
rows of the pivot column and the nonzero columns of the pivot row (an exact
zero subtracts nothing, so the pivots are the dense ones).  The pre-pass
also keeps its row transform M, with A' = M A.  Pricing computes y @ A' as
(y @ M) @ A over the nonzeros of M and of the original A, indexed once per
solve; on a fig5 LP (2 nonzeros per column of A, A' 5-7% nonzero) that reads
a small fraction of A'.  It changes only the rounding of the reduced costs;
the entering column b_inv @ A'[:, j], the ratio test and refactorization
read A' as before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
REFACTOR_EVERY = 256


@dataclass
class SimplexResult:
    status: str            # optimal | infeasible | unbounded | iteration_limit
    x: np.ndarray | None
    objective: float
    iterations: int


def _eliminate(mat, rhs, r, factors):
    """Subtract ``factors[i]`` times row r of ``mat`` and ``rhs`` from every
    other row i, over the nonzero factors and the nonzero columns of row r."""
    rows = np.flatnonzero(factors)
    rows = rows[rows != r]
    f = factors[rows]
    cols = np.flatnonzero(mat[r])
    mat[np.ix_(rows, cols)] -= np.outer(f, mat[r, cols])
    if rhs is not None:
        rhs[rows] -= f * rhs[r]


def _reduce_rows(a: np.ndarray, b: np.ndarray):
    """Gaussian elimination to an equivalent full-row-rank system.

    Returns (A', b', M) or None when the system is inconsistent; A' is
    C-contiguous, and M is the row transform with A' = M A in exact
    arithmetic (it gets the same swaps, scalings and eliminations).
    """
    m, n = a.shape
    work, rhs, transform = a.astype(float), b.astype(float), np.eye(m)
    row = 0
    for col in range(n):
        if row >= m:
            break
        piv = row + int(np.argmax(np.abs(work[row:, col])))
        if abs(work[piv, col]) <= PIVOT_TOL:
            continue
        if piv != row:
            for arr in (work, rhs, transform):
                arr[[row, piv]] = arr[[piv, row]]
        scale = work[row, col]
        for arr in (work, rhs, transform):
            arr[row] /= scale
        _eliminate(transform, None, row, work[:, col])
        _eliminate(work, rhs, row, work[:, col])
        row += 1
    if np.any(np.abs(rhs[row:]) > FEAS_TOL):
        return None
    return work[:row], rhs[:row], transform[:row]


def _nonzeros(mat):
    """(rows, cols, values, number of columns) of a matrix's nonzeros."""
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols], mat.shape[1]


def _row_times(y, factors):
    """y @ A' for A' = M A, as (y @ M) @ A: ``factors`` holds `_nonzeros`
    of M and of A, and each product sums per column in row order."""
    for rows, cols, vals, n in factors:
        y = np.bincount(cols, y[rows] * vals, minlength=n)
    return y


def _pivot(basis, b_inv, x_b, w, r, entering):
    b_inv[r] /= w[r]
    x_b[r] /= w[r]
    _eliminate(b_inv, x_b, r, w)
    np.maximum(x_b, 0.0, out=x_b)
    basis[r] = entering


def _bland_ratio_row(basis, x_b, w):
    """Leaving row by minimum ratio, ties broken on smallest basis index."""
    eligible = np.flatnonzero(w > PIVOT_TOL)
    if eligible.size == 0:
        return None
    ratios = x_b[eligible] / w[eligible]
    best = ratios.min()
    near = eligible[ratios <= best + PIVOT_TOL]
    return int(near[np.argmin(basis[near])])


def _first_nonbasic(candidates, basis):
    """Bland: the smallest candidate not in the basis (cleared in place)."""
    candidates[basis[basis < candidates.size]] = False
    j = int(np.argmax(candidates))
    return j if candidates[j] else None


def _run_phase(a, factors, c_full, basis, b_inv, x_b, b, maxiter):
    """Bland-rule simplex iterations over the columns of A' = M A
    (artificials never enter); mutates basis/b_inv/x_b in place."""
    n = a.shape[1]
    iters = 0
    while True:
        if iters >= maxiter:
            return "iteration_limit", iters
        if iters and iters % REFACTOR_EVERY == 0:
            # the basis columns of [A I]
            real = basis < n
            mat = np.zeros((len(basis), len(basis)))
            mat[basis[~real] - n, np.flatnonzero(~real)] = 1.0
            mat[:, real] = a[:, basis[real]]
            b_inv[:] = np.linalg.inv(mat)
            x_b[:] = b_inv @ b
            np.maximum(x_b, 0.0, out=x_b)
        d = c_full[:n] - _row_times(c_full[basis] @ b_inv, factors)
        entering = _first_nonbasic(d < -PIVOT_TOL, basis)
        if entering is None:
            return "optimal", iters
        w = b_inv @ a[:, entering]
        r = _bland_ratio_row(basis, x_b, w)
        if r is None:
            return "unbounded", iters
        _pivot(basis, b_inv, x_b, w, r, entering)
        iters += 1


def linear_program(c, a, b) -> SimplexResult:
    """Minimize c @ x subject to A x = b, x >= 0."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    if a.shape != (b.size, c.size):
        raise ValueError("inconsistent LP dimensions")
    if not all(np.isfinite(v).all() for v in (a, b, c)):
        raise ValueError("non-finite LP data")
    reduced = _reduce_rows(a, b)
    if reduced is None:
        return SimplexResult("infeasible", None, float("nan"), 0)
    a_nz = _nonzeros(a)
    a, b, transform = reduced
    m, n = a.shape
    if m == 0:
        # no constraints: any cost below zero can be driven to -inf
        if np.any(c < -PIVOT_TOL):
            return SimplexResult("unbounded", None, float("nan"), 0)
        return SimplexResult("optimal", np.zeros(n), 0.0, 0)
    flip = b < 0
    a[flip] *= -1.0
    transform[flip] *= -1.0
    factors = (_nonzeros(transform), a_nz)
    del reduced, transform      # keep M only as its nonzeros (5-15% on fig5)
    b = np.abs(b)
    maxiter = max(20000, 60 * (m + n))

    basis = np.arange(n, n + m)
    b_inv = np.eye(m)
    x_b = b.copy()

    # Phase 1: minimize the artificial mass; artificials never re-enter
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    status, it1 = _run_phase(a, factors, c1, basis, b_inv, x_b, b, maxiter)
    if status != "optimal":
        return SimplexResult(status, None, float("nan"), it1)
    if x_b[basis >= n].sum() > FEAS_TOL:
        return SimplexResult("infeasible", None, float("nan"), it1)
    # drive leftover zero-valued artificials out of the basis
    for r in range(m):
        if basis[r] < n:
            continue
        row_r = _row_times(b_inv[r], factors)
        entering = _first_nonbasic(np.abs(row_r) > PIVOT_TOL, basis)
        if entering is None:
            # numerically dependent row that survived the pre-pass
            continue
        _pivot(basis, b_inv, x_b, b_inv @ a[:, entering], r, entering)

    # Phase 2 on the original objective, artificial columns barred
    c2 = np.concatenate([c, np.zeros(m)])
    status, it2 = _run_phase(a, factors, c2, basis, b_inv, x_b, b, maxiter)
    if status != "optimal":
        return SimplexResult(status, None, float("nan"), it1 + it2)
    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = x_b[real]
    return SimplexResult("optimal", x, float(c @ x), it1 + it2)
