import collections
import json

import numpy as np
import pytest

from genomask import (
    STAR,
    ExplicitJointModel,
    HmmModel,
    InputError,
    LpSolution,
    MarkovChainModel,
    Ordering,
    achievable_rate_exact,
    bounds,
    entropy,
    kl_divergence,
    lp_optimal_rate,
    lp_output_distribution,
    markov_sufficient_condition_check,
    mutual_information,
    rate_from_stepwise_minima,
    simplex,
    upper_bound_rate,
)
from genomask.bounds import LP_GAP_TOL, TIE_TOL
from genomask.distributions import row_codes
from genomask.hardness import HittingSetInstance, ParityModel
from genomask.mechanism import EnumeratedMechanism

from conftest import (
    parity_n3,
    random_explicit,
    random_hmm,
    random_markov,
    zero_transition_chain,
)
from strategies import seeded_examples, small_models


# --- information measures -----------------------------------------------------


def test_entropy_basics():
    assert entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert entropy([1.0, 0.0]) == 0.0
    with pytest.raises(InputError):
        entropy([0.5, 0.6])


def test_mutual_information_product_is_zero():
    joint = np.outer([0.3, 0.7], [0.25, 0.75])
    assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_perfect_correlation():
    assert mutual_information(np.diag([0.5, 0.5])) == pytest.approx(1.0)


def test_mutual_information_worked_value():
    joint = np.array([[0.4, 0.1], [0.1, 0.4]])
    h02 = -(0.2 * np.log2(0.2) + 0.8 * np.log2(0.8))
    assert mutual_information(joint) == pytest.approx(1 - h02, abs=1e-12)
    # brute-force definition cross-check
    brute = sum(
        joint[a, b] * np.log2(joint[a, b] / (joint[a].sum() * joint[:, b].sum()))
        for a in (0, 1) for b in (0, 1)
    )
    assert mutual_information(joint) == pytest.approx(brute, abs=1e-12)


def test_kl_properties(rng):
    for _ in range(10):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        assert kl_divergence(p, q) >= 0.0
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == float("inf")
    assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0)


def test_mi_equals_entropy_drop(rng):
    joint = rng.dirichlet(np.ones(12)).reshape(3, 4)
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    h_cond = -sum(
        joint[a, b] * np.log2(joint[a, b] / pb[b])
        for a in range(3) for b in range(4) if joint[a, b] > 0
    )
    assert mutual_information(joint) == pytest.approx(entropy(pa) - h_cond,
                                                      abs=1e-10)


# --- converse bound -----------------------------------------------------------


def test_bound_on_independent_model():
    m = ExplicitJointModel.uniform(4, 2)
    assert upper_bound_rate(m, [0]) == pytest.approx(3 / 4)


def test_bound_equals_rate_for_markov_chain():
    mc = MarkovChainModel.binary_symmetric(0.9, 3)
    assert upper_bound_rate(mc, [0]) == pytest.approx(
        achievable_rate_exact(mc, [0]), abs=1e-9)


def test_bound_dominates_rate(rng):
    for _ in range(8):
        model = random_explicit(rng, 4)
        K = sorted(int(v) for v in rng.choice(4, size=2, replace=False))
        assert upper_bound_rate(model, K) >= achievable_rate_exact(model, K) - 1e-9


def test_bound_hmm_path_equals_enumeration(rng):
    model = random_hmm(rng, 5, 3)
    K = [1, 3]
    fast = upper_bound_rate(model, K)
    eng = EnumeratedMechanism(model, K)
    total = 0.0
    for pos in range(model.n):
        cond, totals = eng.predictive(eng.q, pos)
        total += cond[totals > 0].min(axis=0).sum()
    assert fast == pytest.approx(total / model.n, abs=1e-12)


def test_bound_markov_chain_path_equals_explicit_twin(rng):
    # the chain takes the forward/backward path; its explicit twin, the same
    # law as a table, has no hidden chain and enumerates
    cases = [(random_markov(rng, 8), [0]), (random_markov(rng, 6), [1, 4]),
             (random_markov(rng, 5, alphabet=3), [2]),
             (zero_transition_chain(5), [0, 1]),
             (MarkovChainModel.binary_symmetric(1.0, 4), [3])]
    for chain, K in cases:
        twin = ExplicitJointModel(chain.joint_table()[1], chain.arities)
        assert chain.hidden_chain() is not None and twin.hidden_chain() is None
        assert upper_bound_rate(chain, K) == pytest.approx(
            upper_bound_rate(twin, K), abs=1e-12)


def _prior_minimizers(cond, totals):
    """(num_u, arity) masks of the possible assignments within ``TIE_TOL``
    of the minimum, from one node's `predictive`."""
    live = totals > 0
    mins = np.where(live[:, None], cond, np.inf).min(axis=0)
    return live[:, None] & (cond <= mins + TIE_TOL)


def test_bound_and_condition_on_mixed_arities():
    # the enumerated table pads positions of smaller arity with zeros; the
    # bound and the certificate must read only each position's own symbols
    rng = np.random.default_rng(7)
    independent = ExplicitJointModel(np.kron(np.kron(
        [0.3, 0.7], [0.2, 0.5, 0.3]), [0.6, 0.4]), arities=(2, 3, 2))
    dependent = ExplicitJointModel(rng.dirichlet(np.ones(12)), (2, 3, 2))
    probs = rng.dirichlet(np.ones(12)).reshape(2, 3, 2)
    probs[:, 2, :] = 0.0            # the middle symbol 2 has prior zero
    zero_prior = ExplicitJointModel(probs / probs.sum(), (2, 3, 2))
    parity = ParityModel(HittingSetInstance.from_lists(2, [[1], [1, 2]]))
    cases = [(independent, [1], None), (dependent, [1], Ordering((2, 0, 1))),
             (dependent, [0, 2], None), (zero_prior, [1], None),
             (zero_prior, [0], Ordering((1, 2, 0))),
             (parity, parity.K, Ordering((1, 0, 2, 3)))]
    verdicts = []
    for model, K, ordering in cases:
        eng = EnumeratedMechanism(model, K)
        total, candidates = 0.0, {}
        for pos in range(model.n):
            cond, totals = eng.predictive(eng.q, pos)
            total += cond[totals > 0].min(axis=0).sum()
            candidates[pos] = _prior_minimizers(cond, totals)
        assert upper_bound_rate(model, K) == pytest.approx(
            total / model.n, abs=1e-15)
        for batch in eng.walk(ordering or Ordering.linear(model.n)):
            if batch.pos is None:
                continue
            for cond, totals in zip(batch.cond, batch.totals):
                candidates[batch.pos] &= _prior_minimizers(cond, totals)
        expected = all(c.any(axis=0).all() for c in candidates.values())
        assert markov_sufficient_condition_check(model, K, ordering) is expected
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_strict_gap_on_parity_model():
    m = parity_n3()
    gap = upper_bound_rate(m, [0]) - achievable_rate_exact(m, [0])
    assert gap > 1e-3


# --- minimizer stability ------------------------------------------------------


def test_markov_chains_satisfy_condition(rng):
    for _ in range(5):
        mc = random_markov(rng, 5)
        assert markov_sufficient_condition_check(mc, [0])


def test_deterministic_chain_satisfies_condition():
    mc = MarkovChainModel.binary_symmetric(1.0, 4)
    assert markov_sufficient_condition_check(mc, [0])


def test_condition_check_stops_at_first_empty_candidate_set(monkeypatch):
    # three independent bits after the parity block: the certificate
    # empties a candidate set at depth 2, long before the 6 levels end
    model = ExplicitJointModel(np.kron(parity_n3().probs, np.full(8, 1 / 8)),
                               n=6, alphabet=2)
    calls = []
    real = EnumeratedMechanism._predictive

    def counting(self, pos, *args):
        calls.append(pos)
        return real(self, pos, *args)

    monkeypatch.setattr(EnumeratedMechanism, "_predictive", counting)
    linear = Ordering.linear(model.n)
    assert markov_sufficient_condition_check(model, (0,), linear) is False
    check_levels = len(calls) - model.n      # minus one prior call per position
    assert check_levels == 3
    calls.clear()
    EnumeratedMechanism(model, (0,)).stepwise_minima_rate(linear)
    assert len(calls) == 6
    assert check_levels < len(calls)


def test_parity_model_violates_condition():
    assert not markov_sufficient_condition_check(parity_n3(), [0])


def test_near_tied_prior_minimizers_satisfy_condition():
    # Rows differ by 1e-4, so at position 3 the two prior conditionals differ
    # by ~1e-12 and both count as minimizers; produced prefixes separate
    # them, yet one of them is a minimizer everywhere and the bound is met.
    mc = MarkovChainModel([0.5, 0.5], [[0.6, 0.4], [0.5999, 0.4001]], 5)
    assert markov_sufficient_condition_check(mc, [0])
    assert abs(achievable_rate_exact(mc, [0]) - upper_bound_rate(mc, [0])) <= 1e-9


def test_condition_implies_bound_is_met(rng):
    certified = 0
    for idx in range(30):
        n = int(rng.integers(3, 7))
        if idx % 3 == 0:
            model = random_explicit(rng, n)
        elif idx % 3 == 1:
            model = random_markov(rng, n)
        else:
            model = random_hmm(rng, n, int(rng.integers(2, 5)))
        K = sorted(int(v) for v in
                   rng.choice(n, size=int(rng.integers(1, 3)), replace=False))
        ordering = Ordering(tuple(int(v) for v in rng.permutation(n)))
        if markov_sufficient_condition_check(model, K, ordering):
            certified += 1
            gap = rate_from_stepwise_minima(model, K, ordering) - upper_bound_rate(model, K)
            assert abs(gap) <= 1e-9, (idx, gap)
    assert certified > 0


# --- linear program -----------------------------------------------------------


def test_lp_independent_model():
    m = ExplicitJointModel.uniform(4, 2)
    sol = lp_optimal_rate(m, [0])
    assert sol.status == "optimal"
    assert sol.optimal_rate == pytest.approx(3 / 4, abs=1e-8)


def test_lp_matches_markov_rate_and_bound():
    mc = MarkovChainModel.binary_symmetric(0.85, 4)
    sol = lp_optimal_rate(mc, [0])
    rate = achievable_rate_exact(mc, [0])
    bound = upper_bound_rate(mc, [0])
    assert sol.status == "optimal"
    assert sol.optimal_rate == pytest.approx(rate, abs=1e-7)
    assert sol.optimal_rate == pytest.approx(bound, abs=1e-7)


def assert_lp_arrays_are_a_mechanism(model, sol):
    """Every row of the LP arrays is faithful, and each sequence of the
    space has weights summing to 1 within 1e-8."""
    assert sol.xs.dtype == sol.ys.dtype == np.int64
    assert sol.xs.shape == sol.ys.shape == (sol.w.size, model.n)
    assert np.all((sol.ys == sol.xs) | (sol.ys == STAR))
    sums = np.bincount(row_codes(sol.xs, model.arities), weights=sol.w,
                       minlength=model.space_size)
    assert np.all(np.abs(sums - 1.0) < 1e-8)


def test_lp_mechanism_is_valid_and_private(rng):
    model = random_hmm(rng, 5, 3, eps=0.05, theta=0.05)
    sol = lp_optimal_rate(model, [0])
    assert sol.status == "optimal"
    assert_lp_arrays_are_a_mechanism(model, sol)
    dist = lp_output_distribution(model, [0], sol)
    assert dist.mutual_information_bits() <= 1e-7
    assert dist.max_conditional_deviation() <= 1e-7
    implied = 1.0 - dist.expected_erasure_fraction()
    assert implied == pytest.approx(sol.optimal_rate, abs=1e-8)


@seeded_examples(200)
def test_lp_sandwich_and_privacy_on_drawn_models(seed):
    # rate <= LP <= bound against the enumeration oracle, and the LP
    # mechanism is faithful with output independent of the sensitive values
    model, K, ordering = small_models(seed, max_n=4)
    sol = lp_optimal_rate(model, K)
    assert sol.status == "optimal"
    assert np.isfinite(sol.gap) and sol.gap <= LP_GAP_TOL, sol.gap
    assert_lp_arrays_are_a_mechanism(model, sol)
    rate = achievable_rate_exact(model, K, ordering)
    bound = upper_bound_rate(model, K)
    assert rate <= sol.optimal_rate + 1e-7 <= bound + 2e-7
    dist = lp_output_distribution(model, K, sol)
    assert dist.mutual_information_bits() <= 1e-7
    assert dist.max_conditional_deviation() <= 1e-7


def test_lp_solves_a_degenerate_chain_to_the_bound(highs_runs):
    # a drawn 3-symbol chain with a highly degenerate LP, always feasible
    # (erase everything); its optimum meets the converse bound.  The run
    # without presolve ends 2.2e-6 short of its certificate, so a
    # presolved run follows
    initial = np.array([0.805059, 1.0848e-05, 0.194930])
    trans = np.array([[0.311183, 0.093094, 0.595724],
                      [0.012324, 0.775753, 0.211923],
                      [0.086899, 0.913101, 0.0]])
    model = MarkovChainModel(initial / initial.sum(),
                             trans / trans.sum(axis=1, keepdims=True), 4)
    sol = lp_optimal_rate(model, [2])
    assert sol.status == "optimal" and sol.gap <= LP_GAP_TOL
    assert [presolve for presolve, _ in highs_runs] == [False, True]
    assert abs(sol.optimal_rate - upper_bound_rate(model, [2])) <= 1e-9
    dist = lp_output_distribution(model, [2], sol)
    assert dist.mutual_information_bits() <= 1e-7
    assert dist.max_conditional_deviation() <= 1e-7


def test_lp_mechanism_weights_are_distributions():
    # a drawn chain whose LP optimum, as the solver returns it, holds a
    # weight near -1.9e-8, inside the solver's feasibility tolerance
    initial = [0.39546198954297845, 0.5930180594914135, 0.01151995096560798]
    trans = [[1.3903400990358395e-03, 0.0, 9.9860965990096417e-01],
             [1.5865173381980024e-01, 1.7789920231940143e-01,
              6.6344906386079838e-01],
             [6.4820214191131020e-01, 3.5166006400659455e-01,
              1.3779408209523564e-04]]
    model = MarkovChainModel(initial, trans, 4)
    sol = lp_optimal_rate(model, [3])
    assert sol.status == "optimal"
    assert np.all(sol.w > 0)
    assert_lp_arrays_are_a_mechanism(model, sol)


def test_fig5_grid_and_criterion_6_lps_take_one_highs_run(highs_runs):
    # the run without presolve is certified on the paper's LPs (n = 6)
    rng = np.random.default_rng(3)
    models = [HmmModel(rng.integers(2, size=(100, 100)), eps,
                       theta).truncated(6)
              for theta in (0.01, 0.05) for eps in (0.01, 0.1, 0.5)]
    panel = np.random.default_rng(20260809 + 6).integers(2, size=(100, 100))
    models += [HmmModel(panel, eps, theta).truncated(6)
               for theta in (0.01, 0.05)
               for eps in (0.01, 0.02, 0.05, 0.1, 0.3)]
    for model in models:
        highs_runs.clear()
        sol = lp_optimal_rate(model, [0])
        assert sol.status == "optimal" and sol.gap <= LP_GAP_TOL
        assert [presolve for presolve, _ in highs_runs] == [False]


@pytest.mark.parametrize("mutate", [
    lambda y: y * 1.01,
    lambda y: np.concatenate([y[:1] + 1e-3, y[1:]]),     # a privacy row
    lambda y: np.concatenate([y[:-1], y[-1:] - 1e-7]),   # a sequence row
], ids=["scaled", "privacy-row", "sequence-row"])
def test_wrong_duals_fail_the_certificate(mutate, highs_runs, monkeypatch):
    model = MarkovChainModel.binary_symmetric(0.85, 4)
    sol = lp_optimal_rate(model, [0])
    assert sol.status == "optimal" and sol.gap <= LP_GAP_TOL
    run = simplex._run

    def mutated(core, highs, presolve):
        result = run(core, highs, presolve)
        result.y = mutate(result.y)
        return result

    monkeypatch.setattr(simplex, "_run", mutated)
    highs_runs.clear()
    sol = lp_optimal_rate(model, [0])
    assert sol.status == "numerical" and sol.gap > LP_GAP_TOL, sol.gap
    assert sol.w is None
    assert [presolve for presolve, _ in highs_runs] == [False, True, False, True]


def test_an_infeasible_verdict_is_numerical(monkeypatch):
    # erasing everything is a feasible mechanism, so HiGHS is wrong
    monkeypatch.setattr(simplex, "_run", lambda core, highs, presolve:
                        simplex.SimplexResult("infeasible", None, None,
                                              float("nan"), 0))
    sol = lp_optimal_rate(MarkovChainModel.binary_symmetric(0.85, 4), [0])
    assert sol.status == "numerical"


def degenerate_chains(seed, count):
    """``count`` (model, K) draws: chains of 2 or 3 symbols with
    Dirichlet(0.3) initial law and rows, so near-zero entries and highly
    degenerate LPs, and one sensitive position."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        arity = int(rng.integers(2, 4))
        n = int(rng.integers(3, 6 if arity == 2 else 5))
        initial = rng.dirichlet(np.full(arity, 0.3))
        rows = rng.dirichlet(np.full(arity, 0.3), size=arity)
        yield MarkovChainModel(initial, rows, n), [int(rng.integers(n))]


def test_lp_is_certified_on_drawn_degenerate_chains():
    # one presolved HiGHS run, uncertified, ended these 400 draws 373
    # "optimal", 13 "numerical" and 14 "infeasible"
    statuses = collections.Counter()
    for model, K in degenerate_chains(2026, 400):
        sol = lp_optimal_rate(model, K)
        statuses[sol.status] += 1
        if sol.status == "optimal":
            assert sol.gap <= LP_GAP_TOL, (K, sol.gap)
            rate = achievable_rate_exact(model, K)
            assert rate <= sol.optimal_rate + 1e-7, (K, rate, sol)
            bound = upper_bound_rate(model, K)
            assert sol.optimal_rate <= bound + 1e-7, (K, bound, sol)
    assert set(statuses) <= {"optimal", "numerical"}, statuses
    assert statuses["optimal"] >= 373, statuses


def solved_columns(model, K):
    """`lp_optimal_rate`'s answer, and the column count of each LP that it
    hands to `simplex.linear_program`."""
    columns = []
    solve = bounds.linear_program

    def counted(c, a, b, accept):
        columns.append(len(c))
        return solve(c, a, b, accept)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "linear_program", counted)
        sol = lp_optimal_rate(model, K)
    return sol, columns


def two_hypothesis_model(seed):
    """(model, K) from ``seed`` with exactly two positive-prior sensitive
    assignments: an explicit, Markov or HMM model with one binary
    sensitive position, two sensitive positions of which two assignments
    have zero mass, or a ternary sensitive position with one value of zero
    mass."""
    rng = np.random.default_rng([seed, 39])
    kind = ("explicit", "markov", "hmm")[seed % 3]
    case = ("binary", "two", "ternary")[seed // 3 % 3]
    n = int(rng.integers(2, 5 if case == "ternary" else 6))
    K = sorted(int(v) for v in rng.choice(n, size=1 + (case == "two"),
                                          replace=False))
    k = K[0]
    alphabet = 3 if case == "ternary" else 2
    if kind == "explicit":
        # binary elsewhere: ternary neighbours can make the transport the
        # larger LP
        arities = [alphabet if i == k else 2 for i in range(n)]
        size = int(np.prod(arities))
        space = ExplicitJointModel(np.full(size, 1 / size),
                                   arities).enumerate_space()
        probs = rng.dirichlet(np.full(len(space), 0.6))
        if case == "two":
            # two of the four assignments of (x_k, x_k') get no mass
            u = space[:, K[0]] * 2 + space[:, K[1]]
            probs[np.isin(u, rng.choice(4, size=2, replace=False))] = 0.0
        elif case == "ternary":
            probs[space[:, k] == rng.integers(3)] = 0.0
        return ExplicitJointModel(probs / probs.sum(), arities), K
    if kind == "markov":
        initial = rng.dirichlet(np.ones(alphabet))
        rows = rng.dirichlet(np.ones(alphabet), size=alphabet)
        if case == "two":       # x_0 is fixed, so x_k' takes both values
            K = [0, K[1]]
            initial = np.eye(2)[rng.integers(2)]
        elif case == "ternary":     # one symbol never at position k
            v = rng.integers(3)
            if k == 0:
                initial[v] = 0.0
            else:
                rows[:, v] = 0.0
            initial /= initial.sum()
            rows /= rows.sum(axis=1, keepdims=True)
        return MarkovChainModel(initial, rows, n), K
    # copying without error from a panel whose column k holds two symbols:
    # one fixed column, with "two", holds the other sensitive position
    panel = rng.integers(alphabet, size=(4, n))
    theta = float(rng.uniform(0.02, 0.4))
    if case == "two":
        panel[:, K[0]] = rng.integers(2)
        panel[:2, K[1]] = [0, 1]
        theta = 0.0
    elif case == "ternary":
        values = rng.choice(3, size=2, replace=False)
        panel[:, k] = values[rng.integers(2, size=4)]
        panel[:2, k] = values
        theta = 0.0
    return HmmModel(panel, float(rng.uniform(0.02, 0.5)), theta, alphabet), K


@seeded_examples(40)
def test_transport_lp_matches_the_subset_lp(seed):
    # with two positive-prior sensitive assignments the transport LP runs,
    # is certified on its own, and has the subset LP's optimum
    model, K = two_hypothesis_model(seed)
    t = bounds._table(model, tuple(K))
    positive = np.flatnonzero(t.p_u)
    assert positive.size == 2, (seed, t.p_u)
    sol, columns = solved_columns(model, K)
    assert sol.status == "optimal" and sol.gap <= LP_GAP_TOL, sol
    sides = [np.count_nonzero((t.p > 0) & (t.u == v)) for v in positive]
    assert columns == [sides[0] * sides[1]], (columns, sides)
    subset = bounds._solve(bounds._subset_lp(model, tuple(K), t),
                           t.space[t.p == 0])
    assert subset.status == "optimal"
    assert abs(sol.optimal_rate - subset.optimal_rate) <= 1e-9
    assert lp_output_distribution(model, K, sol
                                  ).max_conditional_deviation() <= 1e-10
    assert_lp_arrays_are_a_mechanism(model, sol)
    pairs = [(x, y) for x, y, _ in json.loads(sol.to_json())["mechanism"]]
    assert len(pairs) == len(set(pairs))


def test_a_larger_transport_leaves_the_subset_lp():
    # ternary, n = 5, x_0 never 2: the transport would pair 81 sequences
    # with 81 (6561 variables), the subset LP has 162 * 2^5 = 5184
    rows = np.random.default_rng(39).dirichlet(np.ones(3), size=3)
    model = MarkovChainModel([0.4, 0.6, 0.0], rows, 5)
    sol, columns = solved_columns(model, [0])
    assert columns == [162 * 2 ** 5]
    assert sol.status == "optimal" and sol.gap <= LP_GAP_TOL
    assert achievable_rate_exact(model, [0]) <= sol.optimal_rate + 1e-7
    assert sol.optimal_rate <= upper_bound_rate(model, [0]) + 1e-7


def test_lp_json_sorts_triples_and_erases_impossible_sequences():
    model = zero_transition_chain(3)
    sol = lp_optimal_rate(model, [0])
    assert sol.status == "optimal"
    triples = json.loads(sol.to_json())["mechanism"]
    assert triples == sorted(triples)
    impossible = {"".join(map(str, x))
                  for x in model.enumerate_space().tolist()
                  if model.joint_prob(x) == 0.0}
    assert impossible          # 0 -> 2 and 2 -> 0 never happen
    for x in impossible:
        assert [t[1:] for t in triples if t[0] == x] == [["***", 1.0]]
    # a solution that is not optimal carries no mechanism, and so no law
    capacity = LpSolution(float("nan"), "capacity")
    empty = json.loads(capacity.to_json())
    assert empty["status"] == "capacity" and empty["mechanism"] == []
    with pytest.raises(ValueError):
        lp_output_distribution(model, [0], capacity)


def test_lp_sandwich_on_truncated_hmm(rng):
    panel = rng.integers(2, size=(40, 12))
    model = HmmModel(panel, 0.02, 0.02).truncated(6)
    rate = achievable_rate_exact(model, [0])
    bound = upper_bound_rate(model, [0])
    sol = lp_optimal_rate(model, [0])
    assert sol.status == "optimal"
    assert rate <= sol.optimal_rate + 1e-7 <= bound + 2e-7
    # low crossover: the three levels separate strictly
    assert sol.optimal_rate - rate > 1e-4
    assert bound - sol.optimal_rate > 1e-4


def test_lp_capacity_status(rng):
    model = random_hmm(rng, 9, 2)
    sol = lp_optimal_rate(model, [0])
    assert sol.status == "capacity"


def test_lp_json_export():
    m = ExplicitJointModel.uniform(2, 2)
    sol = lp_optimal_rate(m, [0])
    data = json.loads(sol.to_json())
    assert data["status"] == "optimal"
    assert data["rate"] == pytest.approx(0.5)
    assert all(len(t) == 3 for t in data["mechanism"])
