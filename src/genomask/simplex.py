"""Equality-form linear programs, solved by HiGHS.

Solves  minimize c @ x  subject to  A x = b, x >= 0,  with A given by its
nonzeros.  The solver is the HiGHS extension module that scipy ships
(Huangfu & Hall, Math. Prog. Comp. 10, 2018).  It is loaded by file path on
the first solve, under its qualified name, so neither ``scipy/__init__`` nor
``scipy/optimize/__init__`` runs: importing `scipy.optimize` would more than
double the peak memory of a small solve.  A later ``import scipy.optimize``
finds the module in `sys.modules` and reuses it; a second copy under
another name would register HiGHS's types twice, which fails.

A result carries the row duals y beside x, so a caller can prove the
answer by weak duality: for every feasible x, c @ x = b @ y + d @ x with
reduced costs d = c - A.T @ y.  `bounds.lp_optimal_rate` turns this into a
certified gap (at most 1e-8 for an "optimal" answer).  HiGHS runs first
with its presolve off, which about halves its time on the fig5-grid LPs,
and once more with presolve on only when that answer is not optimal or the
caller's ``accept`` rejects it (for `bounds`, its certificate failed).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

_CORE = "scipy.optimize._highspy._core"


@dataclass
class SimplexResult:
    status: str            # optimal | infeasible | unbounded | numerical
    x: np.ndarray | None
    y: np.ndarray | None   # row duals: reduced costs are c - A.T @ y
    objective: float
    iterations: int


def _highs() -> ModuleType:
    """scipy's HiGHS module: the loaded one, else loaded now by file path
    (found without executing ``scipy/__init__``)."""
    if (core := sys.modules.get(_CORE)) is not None:
        return core
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("the LP solver needs scipy >= 1.15, which is not "
                          "installed")
    folder = Path(scipy.submodule_search_locations[0], "optimize", "_highspy")
    paths = [folder / f"_core{suffix}"
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        from importlib.metadata import version   # ~20 ms: only on failure
        raise ImportError(
            f"scipy {version('scipy')} has no "
            f"{folder / '_core'} extension; the LP solver needs scipy >= 1.15")
    spec = importlib.util.spec_from_file_location(_CORE, path)
    core = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(core)
    sys.modules[_CORE] = core
    return core


def _run(core: ModuleType, highs, presolve: bool) -> SimplexResult:
    """One HiGHS run of the model passed to ``highs``."""
    highs.setOptionValue("presolve", "on" if presolve else "off")
    highs.run()
    info = highs.getInfo()
    iterations = int(info.simplex_iteration_count)
    status = {core.HighsModelStatus.kOptimal: "optimal",
              core.HighsModelStatus.kInfeasible: "infeasible",
              core.HighsModelStatus.kUnbounded: "unbounded",
              }.get(highs.getModelStatus(), "numerical")
    if status != "optimal":
        return SimplexResult(status, None, None, float("nan"), iterations)
    solution = highs.getSolution()
    return SimplexResult(status, np.array(solution.col_value),
                         np.array(solution.row_dual),
                         float(info.objective_function_value), iterations)


def linear_program(c, a, b,
                   accept: Callable[[SimplexResult], bool] = lambda res: True,
                   ) -> SimplexResult:
    """Minimize c @ x subject to A x = b, x >= 0.

    ``a`` is A's nonzeros as (rows, cols, values), three equal-length
    arrays; values at a repeated (row, col) add up.  A has len(b) rows and
    len(c) columns.  The first run skips presolve; unless its answer is
    optimal and ``accept`` takes it, a second run with presolve follows,
    and its result is returned as it is.  ``iterations`` counts HiGHS's
    simplex iterations over both runs.  Inconsistent or non-finite data,
    and data that HiGHS refuses (a matrix value of 1e15 or more, say),
    raise `ValueError` before any run.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    rows, cols = (np.asarray(v, dtype=np.int64).reshape(-1) for v in a[:2])
    vals = np.asarray(a[2], dtype=float).reshape(-1)
    m, n = b.size, c.size
    if not (rows.size == cols.size == vals.size
            and np.all((rows >= 0) & (rows < m) & (cols >= 0) & (cols < n))):
        raise ValueError("inconsistent LP dimensions")
    if not all(np.isfinite(v).all() for v in (vals, b, c)):
        raise ValueError("non-finite LP data")
    # column-major order, duplicates summed, exact zeros dropped
    keys, where = np.unique(cols * m + rows, return_inverse=True)
    vals = np.bincount(where, weights=vals, minlength=keys.size)
    keys, vals = keys[vals != 0], vals[vals != 0]
    start = np.concatenate([[0], np.cumsum(np.bincount(keys // m,
                                                          minlength=n))])

    core = _highs()
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    # the overload that takes the arrays, in place of a HighsLp's property
    # setters; its integrality needs one entry a column (0, continuous)
    status = highs.passModel(
        n, m, keys.size, core.MatrixFormat.kColwise, core.ObjSense.kMinimize,
        0.0, c, np.zeros(n), np.full(n, np.inf), b, b,
        start.astype(np.int32), (keys % m).astype(np.int32), vals,
        np.zeros(n, dtype=np.int32))
    if status == core.HighsStatus.kError:
        raise ValueError("HiGHS rejected the LP data")
    result = _run(core, highs, presolve=False)
    if result.status == "optimal" and accept(result):
        return result
    first = result.iterations
    highs.clearSolver()     # else HiGHS restarts from the first run's basis
    result = _run(core, highs, presolve=True)
    result.iterations += first
    return result
