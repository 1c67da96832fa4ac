"""Equality-form linear programs, solved by HiGHS.

Solves  minimize c @ x  subject to  A x = b, x >= 0,  with A given by its
nonzeros.  The solver is the HiGHS extension module that scipy ships
(Huangfu & Hall, Math. Prog. Comp. 10, 2018).  It is loaded by file path on
the first solve, under its qualified name, so neither ``scipy/__init__`` nor
``scipy/optimize/__init__`` runs: importing `scipy.optimize` would more than
double the peak memory of a small solve.  A later ``import scipy.optimize``
finds the module in `sys.modules` and reuses it; a second copy under
another name would register HiGHS's types twice, which fails.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import numpy as np

_CORE = "scipy.optimize._highspy._core"


@dataclass
class SimplexResult:
    status: str            # optimal | infeasible | unbounded | numerical
    x: np.ndarray | None
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


def linear_program(c, a, b) -> SimplexResult:
    """Minimize c @ x subject to A x = b, x >= 0.

    ``a`` is A's nonzeros as (rows, cols, values), three equal-length
    arrays; values at a repeated (row, col) add up.  A has len(b) rows and
    len(c) columns.  ``iterations`` counts HiGHS's simplex iterations.
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

    core = _highs()
    lp = core.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_ = c
    lp.col_lower_, lp.col_upper_ = np.zeros(n), np.full(n, np.inf)
    lp.row_lower_ = lp.row_upper_ = b
    matrix = lp.a_matrix_
    matrix.format_ = core.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = n, m
    matrix.start_ = np.concatenate(
        [[0], np.cumsum(np.bincount(keys // m, minlength=n))])
    matrix.index_ = keys % m
    matrix.value_ = vals
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.passModel(lp)
    highs.run()
    info = highs.getInfo()
    iterations = int(info.simplex_iteration_count)
    status = {core.HighsModelStatus.kOptimal: "optimal",
              core.HighsModelStatus.kInfeasible: "infeasible",
              core.HighsModelStatus.kUnbounded: "unbounded",
              }.get(highs.getModelStatus(), "numerical")
    if status != "optimal":
        return SimplexResult(status, None, float("nan"), iterations)
    x = np.array(highs.getSolution().col_value)
    return SimplexResult(status, x, float(info.objective_function_value),
                         iterations)
