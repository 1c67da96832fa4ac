import hashlib

import numpy as np
import pytest

from genomask import HmmModel, bounds, lp_optimal_rate
from genomask.simplex import _reduce_rows, linear_program


def test_basic_minimization():
    # min -x1 - 2*x2  s.t.  x1 + x2 + s = 4, x1 + 3*x2 + t = 6
    c = [-1.0, -2.0, 0.0, 0.0]
    a = [[1, 1, 1, 0], [1, 3, 0, 1]]
    b = [4, 6]
    res = linear_program(c, a, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-5.0)
    assert res.x[:2] == pytest.approx([3.0, 1.0])


def test_equality_only_problem():
    # min x1 + x2 with x1 + x2 = 1 -> objective 1, any split
    res = linear_program([1.0, 1.0], [[1.0, 1.0]], [1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0)


def test_infeasible_inconsistent_rows():
    res = linear_program([1.0, 1.0], [[1, 1], [1, 1]], [1.0, 2.0])
    assert res.status == "infeasible"


def test_infeasible_sign():
    # x1 + x2 = -1 has no nonnegative solution
    res = linear_program([1.0, 1.0], [[1, 1]], [-1.0])
    assert res.status == "infeasible"


def test_unbounded():
    # min -x1 with only x2 pinned
    res = linear_program([-1.0, 0.0], [[0, 1]], [1.0])
    assert res.status == "unbounded"


def test_no_rows_left_unbounded():
    # the only row is all zeros, so x1 is free to grow
    res = linear_program([-1.0, 0.0], [[0.0, 0.0]], [0.0])
    assert res.status == "unbounded"
    assert res.x is None


def test_no_rows_left_optimal_at_zero():
    res = linear_program([1.0, 0.0], [[0.0, 0.0]], [0.0])
    assert res.status == "optimal"
    assert res.objective == 0.0
    assert np.array_equal(res.x, [0.0, 0.0])


def test_redundant_rows_are_dropped():
    c = [0.0, 1.0]
    a = [[1, 1], [2, 2], [1, 1]]
    b = [1.0, 2.0, 1.0]
    res = linear_program(c, a, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0)
    assert res.x == pytest.approx([1.0, 0.0])


def test_degenerate_problem_terminates():
    rng = np.random.default_rng(5)
    n, m = 30, 12
    a = rng.integers(0, 2, size=(m, n)).astype(float)
    x_feas = np.abs(rng.normal(size=n))
    b = a @ x_feas
    c = rng.normal(size=n)
    res = linear_program(c, a, b)
    assert res.status in ("optimal", "unbounded")
    if res.status == "optimal":
        assert np.allclose(a @ res.x, b, atol=1e-7)
        assert np.all(res.x >= -1e-9)


def _sha256(arr):
    return hashlib.sha256(arr.tobytes()).hexdigest()


def test_fig5_style_pivot_path_is_pinned(monkeypatch):
    # the LP of lp_optimal_rate on a truncated HMM; the iteration count and
    # the bytes of x are those of the dense-update solver
    solved = []

    def spy(c, a, b):
        solved.append(linear_program(c, a, b))
        return solved[-1]

    monkeypatch.setattr(bounds, "linear_program", spy)
    panel = np.random.default_rng(11).integers(2, size=(30, 30))
    sol = lp_optimal_rate(HmmModel(panel, 0.1, 0.05).truncated(4), [0])
    assert sol.status == "optimal"
    (res,) = solved
    assert res.iterations == 97
    assert _sha256(res.x) == (
        "4eb40f30fe01c9c621cceaec71bed9aadd16757f52abc8131e306d040a7f30d1")


def test_reduce_rows_is_pinned():
    # 12 sparse independent rows plus 3 planted combinations, shuffled
    rng = np.random.default_rng(3)
    base = np.zeros((12, 40))
    for j in range(40):
        base[rng.choice(12, size=3, replace=False), j] = rng.normal(size=3)
    a = np.vstack([base, base[1] + 2.0 * base[5], base[3] - base[7], -base[0]])
    a = a[rng.permutation(a.shape[0])]
    b = a @ rng.uniform(size=40)
    ra, rb = _reduce_rows(a, b)
    assert ra.shape == (12, 40)
    # values recorded from the dense elimination; + 0.0 maps -0.0 to 0.0,
    # because skipping an exact-zero update may keep a zero's sign
    assert _sha256(ra + 0.0) == (
        "1be3af851127962799ae5e40476b79329fbf5a0377c4a7de91e3ea3b271f3f5c")
    assert _sha256(rb) == (
        "be83e9eacd1e93c5baf738b70a386b19f3f28b3ae02cf0d469cc9696c35b0d5a")
