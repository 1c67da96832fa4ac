import importlib.metadata
import os
import subprocess
import sys

import numpy as np
import pytest

import genomask
from genomask import simplex
from genomask.simplex import linear_program


def coords(a):
    """The nonzeros of a dense matrix as the (rows, cols, values) that
    `linear_program` takes."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    rows, cols = np.nonzero(a)
    return rows, cols, a[rows, cols]


def test_basic_minimization():
    # min -x1 - 2*x2  s.t.  x1 + x2 + s = 4, x1 + 3*x2 + t = 6
    c = [-1.0, -2.0, 0.0, 0.0]
    a = [[1, 1, 1, 0], [1, 3, 0, 1]]
    b = [4, 6]
    res = linear_program(c, coords(a), b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-5.0)
    assert res.x[:2] == pytest.approx([3.0, 1.0])
    # the row duals prove it: b @ y meets the objective, and the reduced
    # costs c - A.T @ y are nonnegative
    assert np.dot(b, res.y) == pytest.approx(-5.0)
    assert np.all(np.subtract(c, np.transpose(a) @ res.y) >= -1e-12)


@pytest.mark.parametrize("accept, presolves", [
    (lambda res: True, [False]),
    (lambda res: False, [False, True]),
], ids=["accepted", "rejected"])
def test_accept_gates_one_presolved_retry(accept, presolves, highs_runs):
    c = [-1.0, -2.0, 0.0, 0.0]
    a = [[1, 1, 1, 0], [1, 3, 0, 1]]
    res = linear_program(c, coords(a), [4, 6], accept=accept)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-5.0)
    assert [presolve for presolve, _ in highs_runs] == presolves
    assert res.iterations == sum(count for _, count in highs_runs)


def test_equality_only_problem():
    # min x1 + x2 with x1 + x2 = 1 -> objective 1, any split
    res = linear_program([1.0, 1.0], coords([[1.0, 1.0]]), [1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0)


def test_infeasible_inconsistent_rows():
    res = linear_program([1.0, 1.0], coords([[1, 1], [1, 1]]), [1.0, 2.0])
    assert res.status == "infeasible"


def test_infeasible_sign(highs_runs):
    # x1 + x2 = -1 has no nonnegative solution; a run without an answer is
    # checked by one with presolve
    res = linear_program([1.0, 1.0], coords([[1, 1]]), [-1.0])
    assert res.status == "infeasible"
    assert [presolve for presolve, _ in highs_runs] == [False, True]


def test_unbounded():
    # min -x1 with only x2 pinned
    res = linear_program([-1.0, 0.0], coords([[0, 1]]), [1.0])
    assert res.status == "unbounded"


def test_no_rows_left_unbounded():
    # the only row is all zeros, so x1 is free to grow
    res = linear_program([-1.0, 0.0], coords([[0.0, 0.0]]), [0.0])
    assert res.status == "unbounded"
    assert res.x is None


def test_no_rows_left_optimal_at_zero():
    res = linear_program([1.0, 0.0], coords([[0.0, 0.0]]), [0.0])
    assert res.status == "optimal"
    assert res.objective == 0.0
    assert np.array_equal(res.x, [0.0, 0.0])


def test_redundant_rows_are_dropped():
    c = [0.0, 1.0]
    a = [[1, 1], [2, 2], [1, 1]]
    b = [1.0, 2.0, 1.0]
    res = linear_program(c, coords(a), b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0)
    assert res.x == pytest.approx([1.0, 0.0])


def test_repeated_coordinates_add_up():
    # x1 + x2 = 2 given as 0.5 + 0.5 on (0, 0); min x2 - x1 -> x = (2, 0)
    res = linear_program([-1.0, 1.0], ([0, 0, 0], [0, 1, 0], [0.5, 1.0, 0.5]),
                         [2.0])
    assert res.status == "optimal"
    assert res.x == pytest.approx([2.0, 0.0])


@pytest.mark.parametrize("c, a, b", [
    ([1.0, 1.0], coords([[1.0, np.inf]]), [1.0]),
    ([np.nan, 1.0], coords([[1.0, 1.0]]), [1.0]),
    ([1.0, 1.0], coords([[1.0, 1.0]]), [np.nan]),
], ids=["inf-in-a", "nan-cost", "nan-in-b"])
def test_non_finite_data_is_rejected(c, a, b):
    with pytest.raises(ValueError, match="non-finite"):
        linear_program(c, a, b)


def test_data_that_highs_rejects_raises():
    # HiGHS refuses a matrix value of 1e15 or more; the refused model used
    # to be run anyway, twice, and reported "numerical"
    with pytest.raises(ValueError, match="rejected"):
        linear_program([1.0, 1.0], ([0, 0], [0, 1], [1e16, 1.0]), [1.0])


@pytest.mark.parametrize("a", [
    ([0, 1], [0, 1], [1.0, 1.0]),          # row 1 of a 1-row A
    ([0, 0], [0, 2], [1.0, 1.0]),          # column 2 of a 2-column A
    ([0, -1], [0, 1], [1.0, 1.0]),
    ([0, 0], [0, 1], [1.0]),               # one value short
], ids=["row", "col", "negative", "lengths"])
def test_inconsistent_coordinates_are_rejected(a):
    with pytest.raises(ValueError, match="inconsistent"):
        linear_program([1.0, 1.0], a, [1.0])


def test_degenerate_problem_terminates():
    rng = np.random.default_rng(5)
    n, m = 30, 12
    a = rng.integers(0, 2, size=(m, n)).astype(float)
    x_feas = np.abs(rng.normal(size=n))
    b = a @ x_feas
    c = rng.normal(size=n)
    res = linear_program(c, coords(a), b)
    assert res.status in ("optimal", "unbounded")
    if res.status == "optimal":
        assert np.allclose(a @ res.x, b, atol=1e-7)
        assert np.all(res.x >= -1e-9)


_LP = """
from genomask import ExplicitJointModel, lp_optimal_rate
assert lp_optimal_rate(ExplicitJointModel.uniform(2, 2), [0]).status == "optimal"
"""

_LINPROG = """
res = linprog([1, 1], A_eq=[[1, 1]], b_eq=[1], method="highs")
assert res.status == 0, res
"""


@pytest.mark.parametrize("script", [
    # importing the package loads no part of scipy
    "import sys, genomask\n"
    "assert not [m for m in sys.modules if m.startswith('scipy')]",
    # a solve loads HiGHS without scipy.optimize, which scipy can still
    # import afterwards, reusing the loaded module
    "import sys" + _LP + "assert 'scipy.optimize' not in sys.modules\n"
    "from scipy.optimize import linprog" + _LINPROG,
    # and the other way round: HiGHS that scipy loaded is used as it is
    "from scipy.optimize import linprog" + _LP + _LINPROG,
], ids=["import", "solve-then-scipy", "scipy-then-solve"])
def test_highs_loads_lazily_beside_scipy(script):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(genomask.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_missing_extension_names_the_scipy_version(monkeypatch):
    monkeypatch.delitem(sys.modules, simplex._CORE, raising=False)
    monkeypatch.setattr(simplex.importlib.machinery, "EXTENSION_SUFFIXES",
                        [".absent"])
    version = importlib.metadata.version("scipy")
    with pytest.raises(ImportError, match=f"scipy {version} has no"):
        linear_program([1.0], coords([[1.0]]), [1.0])
