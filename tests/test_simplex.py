import hashlib

import numpy as np
import pytest

from genomask import HmmModel, bounds, lp_optimal_rate, simplex
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


@pytest.mark.parametrize("c, a, b", [
    ([1.0, 1.0], [[1.0, np.inf]], [1.0]),
    ([np.nan, 1.0], [[1.0, 1.0]], [1.0]),
    ([1.0, 1.0], [[1.0, 1.0]], [np.nan]),
], ids=["inf-in-a", "nan-cost", "nan-in-b"])
def test_non_finite_data_is_rejected(c, a, b):
    with pytest.raises(ValueError, match="non-finite"):
        linear_program(c, a, b)


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
    ra, rb, _ = _reduce_rows(a, b)
    assert ra.shape == (12, 40)
    # values recorded from the dense elimination; + 0.0 maps -0.0 to 0.0,
    # because skipping an exact-zero update may keep a zero's sign
    assert _sha256(ra + 0.0) == (
        "1be3af851127962799ae5e40476b79329fbf5a0377c4a7de91e3ea3b271f3f5c")
    assert _sha256(rb) == (
        "be83e9eacd1e93c5baf738b70a386b19f3f28b3ae02cf0d469cc9696c35b0d5a")


def _pivot_path(monkeypatch, c, a, b, dense=False):
    """(entering, leaving row) per pivot and the result; ``dense`` prices
    with c - y @ A' on the reduced (and sign-flipped) A of `_reduce_rows`."""
    path, real = [], simplex._pivot

    def recording(basis, b_inv, x_b, w, r, entering):
        path.append((entering, r))
        real(basis, b_inv, x_b, w, r, entering)

    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_pivot", recording)
        if dense:
            ra, rb, _ = _reduce_rows(np.asarray(a, float), np.asarray(b, float))
            ra[rb < 0] *= -1.0
            patch.setattr(simplex, "_row_times", lambda y, *_: y @ ra)
        return path, linear_program(c, a, b)


def _assert_same_pivots_as_dense_pricing(monkeypatch, c, a, b):
    path, res = _pivot_path(monkeypatch, c, a, b)
    dense_path, dense = _pivot_path(monkeypatch, c, a, b, dense=True)
    assert path == dense_path
    assert (res.status, res.iterations) == (dense.status, dense.iterations)
    assert res.x.tobytes() == dense.x.tobytes()
    return path


def _fig5_style_lps(monkeypatch):
    lps = []

    def spy(c, a, b):
        lps.append((c, a, b))
        return linear_program(c, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(bounds, "linear_program", spy)
        for seed in (1, 2, 3):
            panel = np.random.default_rng(seed).integers(2, size=(16, 16))
            for eps, theta in ((0.01, 0.05), (0.5, 0.01)):
                lp_optimal_rate(HmmModel(panel, eps, theta).truncated(4), [0])
    return lps


def test_sparse_pricing_follows_dense_pricing_on_fig5_style_lps(monkeypatch):
    lps = _fig5_style_lps(monkeypatch)
    assert len(lps) == 6
    for c, a, b in lps:
        assert len(_assert_same_pivots_as_dense_pricing(monkeypatch, c, a, b)) > 10


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sparse_pricing_follows_dense_pricing_with_dependent_and_flipped_rows(
        monkeypatch, seed):
    # 15 sparse mixed-sign rows, 4 planted combinations, shuffled; a
    # nonnegative planted solution keeps it feasible, costs >= 0 bounded
    rng = np.random.default_rng(seed)
    base = np.zeros((15, 60))
    for j in range(60):
        base[rng.choice(15, size=3, replace=False), j] = rng.normal(size=3)
    a = np.vstack([base, base[2] - base[9], 3.0 * base[4], base[0] + base[1],
                   -base[14]])
    a = a[rng.permutation(a.shape[0])]
    b = a @ rng.uniform(size=60)
    ra, rb, _ = _reduce_rows(a, b)
    assert ra.shape[0] == 15 and np.any(rb < 0)
    path = _assert_same_pivots_as_dense_pricing(monkeypatch, rng.uniform(size=60),
                                                a, b)
    assert len(path) >= 15


def test_sparse_pricing_follows_dense_pricing_with_a_zero_column(monkeypatch):
    rng = np.random.default_rng(7)
    a = np.where(rng.random((6, 20)) < 0.3, rng.normal(size=(6, 20)), 0.0)
    a[:, -1] = 0.0                 # bincount must still give it a cost
    b = a @ rng.uniform(size=20)
    _assert_same_pivots_as_dense_pricing(monkeypatch, rng.uniform(size=20), a, b)


def test_sparse_pricing_follows_dense_pricing_on_a_dense_matrix(monkeypatch):
    rng = np.random.default_rng(8)
    a = rng.normal(size=(8, 24))
    b = a @ rng.uniform(size=24)
    path = _assert_same_pivots_as_dense_pricing(monkeypatch,
                                                rng.uniform(size=24), a, b)
    assert len(path) >= 8
