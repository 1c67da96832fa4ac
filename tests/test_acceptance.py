"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass line per
criterion.  Randomness is pinned: instance pools and panels derive from
fixed seeds so reruns are bit-identical (criterion 7 is panel-dependent by
nature, so its panel seed is part of the contract here).
"""

import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import genomask
from genomask import (
    HmmModel,
    MarkovChainModel,
    MismatchPair,
    Ordering,
    STAR,
    achievable_rate_exact,
    achievable_rate_mc,
    exact_output_distribution,
    lp_optimal_rate,
    lp_output_distribution,
    markov_sufficient_condition_check,
    mask_sequence,
    rate_from_stepwise_minima,
    robustness_experiment,
    upper_bound_rate,
    window_leakage_sweep,
)
from genomask.baselines import sequence_kl
from genomask.hardness import (
    HittingSetInstance,
    best_ordering_exhaustive,
    min_hitting_set_bruteforce,
    random_instance,
    verify_deterministic_rule,
)
from genomask.hmm import erasure_rate_mc, mask_hmm_batch

from conftest import parity_n3, random_explicit, random_hmm, random_markov
from test_hmm import _walk_all_prefixes, session_law_tv

SEED = 20260809


def _report(num, name):
    print(f"\n[acceptance] criterion {num} ({name}): PASS")


@pytest.fixture(scope="module")
def instance_pool():
    """50 randomized instances (explicit / Markov / HMM, binary, n <= 8,
    |K| <= 2, random orderings) plus the strict-gap parity instance."""
    rng = np.random.default_rng(SEED)
    pool = []
    for idx in range(50):
        kind = ("explicit", "markov", "hmm")[idx % 3]
        if kind == "explicit":
            model = random_explicit(rng, int(rng.integers(3, 7)),
                                    sparse=(idx % 9 == 0))
        elif kind == "markov":
            model = random_markov(rng, int(rng.integers(3, 9)))
        else:
            model = random_hmm(rng, int(rng.integers(3, 9)),
                               int(rng.integers(2, 5)))
        ksize = min(1 + idx % 2, model.n)
        K = tuple(sorted(int(v) for v in
                         rng.choice(model.n, size=ksize, replace=False)))
        ordering = Ordering(tuple(int(v) for v in rng.permutation(model.n)))
        pool.append((model, K, ordering))
    pool.append((parity_n3(), (0,), Ordering.linear(3)))
    return pool


@pytest.fixture(scope="module")
def audited_pool(instance_pool):
    start = time.perf_counter()
    dists = [exact_output_distribution(model, K, ordering)
             for model, K, ordering in instance_pool]
    elapsed = time.perf_counter() - start
    return dists, elapsed


def test_criterion_1_perfect_privacy(instance_pool, audited_pool):
    dists, elapsed = audited_pool
    worst_mi = worst_dev = 0.0
    for dist in dists:
        worst_mi = max(worst_mi, abs(dist.mutual_information_bits()))
        worst_dev = max(worst_dev, dist.max_conditional_deviation())
    assert worst_mi <= 1e-10, worst_mi
    assert worst_dev <= 1e-10, worst_dev
    assert elapsed < 60.0, f"exact audits took {elapsed:.1f}s"
    _report(1, f"perfect privacy: {len(dists)} instances, "
               f"max MI {worst_mi:.2e}, max dev {worst_dev:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_2_rate_identity(instance_pool, audited_pool):
    dists, _ = audited_pool
    worst = 0.0
    for (model, K, ordering), dist in zip(instance_pool, dists):
        direct = 1.0 - dist.expected_erasure_fraction()
        stepwise = rate_from_stepwise_minima(model, K, ordering)
        worst = max(worst, abs(direct - stepwise))
    assert worst <= 1e-9, worst
    _report(2, f"rate identity: max |direct - stepwise| = {worst:.2e}")


def test_criterion_3_upper_bound_dominance(instance_pool, audited_pool):
    dists, _ = audited_pool
    worst_violation = -1.0
    strict_gap = 0.0
    for (model, K, ordering), dist in zip(instance_pool, dists):
        rate = 1.0 - dist.expected_erasure_fraction()
        bound = upper_bound_rate(model, K)
        worst_violation = max(worst_violation, rate - bound)
        if not isinstance(model, MarkovChainModel):
            strict_gap = max(strict_gap, bound - rate)
    assert worst_violation <= 1e-9, worst_violation
    assert strict_gap > 1e-3, strict_gap
    _report(3, f"bound dominance: worst rate-bound = {worst_violation:.2e}, "
               f"largest non-Markov gap = {strict_gap:.4f}")


def test_criterion_4_markov_tightness():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 9))
        chain = random_markov(rng, n)
        rate = achievable_rate_exact(chain, [0])
        bound = upper_bound_rate(chain, [0])
        worst = max(worst, abs(rate - bound))
        assert markov_sufficient_condition_check(chain, [0])
    assert worst <= 1e-9, worst
    _report(4, f"Markov tightness: 20 chains, max |rate - bound| = {worst:.2e}")


def test_criterion_4_markov_tightness_at_paper_scale():
    # n = 100 is far past enumeration: the bound and the Monte-Carlo rate
    # both run on the chain's forward/backward filter
    rng = np.random.default_rng(SEED + 40)
    for alphabet in (2, 3):
        chain = random_markov(rng, 100, alphabet)
        bound = upper_bound_rate(chain, [0])
        rate, err = achievable_rate_mc(chain, [0], runs=3000, rng=rng)
        assert 0.0 < err and abs(rate - bound) <= 6 * err, (rate, bound, err)
    _report(4, f"Markov tightness at n = 100: |rate - bound| = "
               f"{abs(rate - bound):.2e} ({abs(rate - bound) / err:.2f} stderr)")


# Times `mask_hmm_batch` on each (n, m) point of one grid, best of `reps`
# runs, with the repetitions interleaved round-robin across the points so that
# drift of the host hits every point alike.  Prints the best times as JSON.
_MASK_TIMING_SCRIPT = """
import json, sys, time
import numpy as np
from genomask import HmmModel
from genomask.hmm import mask_hmm_batch, sensitive_backward_table

seed, reps, points = json.loads(sys.argv[1])
setups = []
for n, m in points:
    local = np.random.default_rng(seed)
    model = HmmModel(local.integers(2, size=(m, n)), 0.1, 0.01)
    table = sensitive_backward_table(model, (0,))
    xs = model.sample_batch(16, local)
    mask_hmm_batch(model, xs, (0,), np.random.default_rng(1), table)
    setups.append((model, xs, table))
best = [float("inf")] * len(points)
for rep in range(reps):
    for i, (model, xs, table) in enumerate(setups):
        t0 = time.perf_counter()
        mask_hmm_batch(model, xs, (0,), np.random.default_rng(rep), table)
        best[i] = min(best[i], time.perf_counter() - t0)
print(json.dumps(best))
"""


def _time_mask_grid(points, reps):
    """Best-of-`reps` `mask_hmm_batch` times, one per (n, m) point.

    The timing runs in a child interpreter that imports this `genomask` with
    one BLAS thread, set before numpy loads.  Each grid gets its own child,
    so the 10-50 ms points are never timed between runs of the large-m ones.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.dirname(os.path.dirname(genomask.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _MASK_TIMING_SCRIPT,
         json.dumps([SEED, reps, points])],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_criterion_5_hmm_equivalence_and_complexity():
    rng = np.random.default_rng(SEED + 5)
    worst_pred = 0.0
    worst_tv = 0.0
    cases = [(n, m, k) for n in (3, 4, 5, 6) for m in (2, 3) for k in (1, 2)]
    for n, m, ksize in cases:
        model = random_hmm(rng, n, m)
        K = tuple(sorted(int(v) for v in
                         rng.choice(n, size=ksize, replace=False)))
        x_sens = [int(rng.integers(2)) for _ in K]
        worst_pred = max(worst_pred, _walk_all_prefixes(model, K, x_sens))
        worst_tv = max(worst_tv, session_law_tv(model, K))
    assert worst_pred <= 1e-10, worst_pred
    assert worst_tv <= 1e-9, worst_tv

    n_grid = (64, 128, 256)
    m_grid = (1024, 2048, 4096)
    # Timed in a child interpreter with one BLAS thread: threaded OpenBLAS
    # speeds the (m x m) product up by an m-dependent factor on a 2-core
    # host (one (1024x100)(100x100) product: 8.2 ms threaded, 0.58 ms with
    # one thread; ROADMAP aim 1), which bends the m-slope away from 2.
    # The n-grid points are cheap, so they get more repetitions.
    t_n = _time_mask_grid([(n, 96) for n in n_grid], reps=25)
    t_m = _time_mask_grid([(24, m) for m in m_grid], reps=5)
    slope_n = float(np.polyfit(np.log(n_grid), np.log(t_n), 1)[0])
    slope_m = float(np.polyfit(np.log(m_grid), np.log(t_m), 1)[0])
    assert 0.85 <= slope_n <= 1.15, (slope_n, t_n)
    assert 1.8 <= slope_m <= 2.2, (slope_m, t_m)
    _report(5, f"fast path: max predictive dev {worst_pred:.2e}, max TV "
               f"{worst_tv:.2e}, slopes n {slope_n:.2f} / m {slope_m:.2f}")


def test_criterion_6_lp_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 6)
    panel = rng.integers(2, size=(100, 100))
    grid = [(theta, eps) for theta in (0.01, 0.05)
            for eps in (0.01, 0.02, 0.05, 0.1, 0.3)]
    assert len(grid) == 10
    for theta, eps in grid:
        model = HmmModel(panel, eps, theta).truncated(6)
        rate = achievable_rate_exact(model, [0])
        bound = upper_bound_rate(model, [0])
        sol = lp_optimal_rate(model, [0])
        assert sol.status == "optimal", (theta, eps, sol.status)
        assert rate <= sol.optimal_rate + 1e-7, (theta, eps)
        assert sol.optimal_rate <= bound + 1e-7, (theta, eps)
        dist = lp_output_distribution(model, [0], sol)
        assert dist.mutual_information_bits() <= 1e-7
        assert dist.max_conditional_deviation() <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, elapsed
    _report(6, f"LP sandwich: 10 truncated instances in {elapsed:.0f}s")


@pytest.fixture(scope="module")
def paper_scale_panel():
    # panel-dependent criterion: the seed is pinned (see module docstring)
    return np.random.default_rng(2026).integers(2, size=(100, 100))


def test_criterion_7_window_tradeoff(paper_scale_panel):
    start = time.perf_counter()
    model = HmmModel(paper_scale_panel, 0.1, 0.01)
    runs = 10_000
    rate, err = erasure_rate_mc(model, (0,), runs=runs,
                                rng=np.random.default_rng(SEED + 7))
    erasure = 1.0 - rate
    assert abs(erasure - 0.12) <= 0.05, erasure
    omegas = list(range(5, 65, 5))
    leak, _ = window_leakage_sweep(model, (0,), omegas, runs,
                                   np.random.default_rng(SEED + 70))
    smallest = next(w for w, e in zip(omegas, leak) if e < 0.01)
    assert smallest / model.n >= erasure + 0.05, (smallest, erasure)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, elapsed
    _report(7, f"window trade-off: erasure {erasure:.3f}, "
               f"window needs omega/n = {smallest / model.n:.2f}, "
               f"{elapsed:.0f}s")


def test_criterion_8_parameter_trends(paper_scale_panel):
    eps_grid = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    results = {}
    for t_idx, theta in enumerate((0.01, 0.05)):
        rates, errs, bounds_ = [], [], []
        for e_idx, eps in enumerate(eps_grid):
            model = HmmModel(paper_scale_panel, eps, theta)
            r, err = erasure_rate_mc(
                model, (0,), runs=3000,
                rng=np.random.default_rng(SEED + 800 + 10 * t_idx + e_idx))
            b = upper_bound_rate(model, (0,))
            assert np.isfinite(r) and np.isfinite(b)
            rates.append(r)
            errs.append(err)
            bounds_.append(b)
        results[theta] = (np.array(rates), np.array(errs), np.array(bounds_))
    # the gap to the bound shrinks monotonically once eps passes 0.2
    for theta, (rates, errs, bounds_) in results.items():
        gaps = bounds_ - rates
        tail = [i for i, e in enumerate(eps_grid) if e >= 0.2]
        for a, b in zip(tail, tail[1:]):
            wiggle = 2.0 * float(np.hypot(errs[a], errs[b]))
            assert gaps[b] <= gaps[a] + wiggle, (theta, eps_grid[a], gaps)
    # noisier observations are freer to release: theta 0.05 beats 0.01
    r_low, e_low, _ = results[0.01]
    r_high, e_high, _ = results[0.05]
    wiggle = 2.0 * np.hypot(e_low, e_high)
    assert np.all(r_high >= r_low - wiggle)
    _report(8, "parameter trends: gap shrinks past eps 0.2; "
               "higher error probability never lowers the rate")


def test_criterion_9_robustness_bound():
    rng = np.random.default_rng(SEED + 9)
    checked = 0
    for idx in range(100):
        n = int(rng.integers(3, 6))
        if idx % 2 == 0:
            stay_p = float(rng.uniform(0.55, 0.95))
            stay_q = float(np.clip(stay_p + rng.uniform(-0.2, 0.2), 0.05, 0.95))
            pair = MismatchPair(MarkovChainModel.binary_symmetric(stay_p, n),
                                MarkovChainModel.binary_symmetric(stay_q, n))
        else:
            p_model = random_hmm(rng, n, int(rng.integers(2, 4)))
            q_model = HmmModel(
                p_model.panel,
                float(np.clip(p_model.epsilon + rng.uniform(-0.1, 0.1), 0.01, 0.6)),
                float(np.clip(p_model.theta + rng.uniform(-0.05, 0.05), 0.01, 0.5)))
            pair = MismatchPair(p_model, q_model)
        res = robustness_experiment(pair, [0])
        assert res.leakage_bits <= res.kl_bound_bits + 1e-9
        checked += 1
    assert checked == 100
    # equality branch: matched models leak exactly nothing
    chain = MarkovChainModel.binary_symmetric(0.85, 4)
    res = robustness_experiment(MismatchPair(chain, chain), [0])
    assert abs(res.leakage_bits) <= 1e-12
    assert res.kl_bound_bits <= 1e-12
    _report(9, "robustness: 100 mismatched pairs below the divergence bound; "
               "matched pair leaks zero")


def _instance_family():
    """All covering families with m <= 3, k <= 4, padded with seeded random
    instances at m in {4, 5} up to at least 200 total."""
    family = []
    for m in (2, 3):
        universe = list(range(1, m + 1))
        subsets = [frozenset(c) for r in range(1, m + 1)
                   for c in itertools.combinations(universe, r)]
        for k in range(1, 5):
            for combo in itertools.combinations(subsets, k):
                if frozenset().union(*combo) == frozenset(universe):
                    family.append(HittingSetInstance(m, tuple(combo)))
    rng = np.random.default_rng(SEED + 10)
    while len(family) < 200:
        family.append(random_instance(int(rng.integers(4, 6)),
                                      int(rng.integers(1, 5)), rng))
    return family


def test_criterion_10_ordering_reduction():
    family = _instance_family()
    assert len(family) >= 200
    for inst in family:
        e_star, _ = best_ordering_exhaustive(inst)
        h_star, _ = min_hitting_set_bruteforce(inst)
        assert e_star == h_star, inst
    rng = np.random.default_rng(SEED + 100)
    small = [inst for inst in family if len(inst.edges) <= 12]
    verified = 0
    for inst in small[:: max(1, len(small) // 12)]:
        order = tuple(int(v) for v in rng.permutation(inst.m) + 1)
        assert verify_deterministic_rule(inst, order), (inst, order)
        verified += 1
    assert verified >= 10
    _report(10, f"ordering reduction: e* = h* on {len(family)} instances; "
                f"determinism enumerated on {verified}")


def test_criterion_11_faithfulness():
    rng = np.random.default_rng(SEED + 11)
    model = HmmModel(rng.integers(2, size=(8, 20)), 0.15, 0.05)
    K = (0, 7)
    total = 0
    done = 0
    while done < 99_800:
        b = min(4096, 99_800 - done)
        xs = model.sample_batch(b, rng)
        ys = mask_hmm_batch(model, xs, K, rng)
        assert np.all((ys == xs) | (ys == STAR))
        assert np.all(ys[:, list(K)] == STAR)
        done += b
        total += b
    chain = MarkovChainModel.binary_symmetric(0.8, 5)
    for _ in range(200):
        x = chain.sample(rng)
        masked, _ = mask_sequence(chain, x, [1], rng=rng)
        assert masked.is_faithful_to(x)
        assert masked.symbols[1] == STAR
        total += 1
    assert total >= 100_000
    _report(11, f"faithfulness: {total} maskings, zero violations")
