import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genomask import (
    CapacityError,
    ExplicitJointModel,
    ImpossibleContextError,
    InputError,
    MarkovChainModel,
    Ordering,
    STAR,
    achievable_rate_exact,
    achievable_rate_mc,
    conditional_query,
    exact_output_distribution,
    lp_optimal_rate,
    mask_sequence,
    rate_from_stepwise_minima,
    verify_privacy_exact,
    window_leakage_exact,
)
from genomask import bounds, distributions, hmm, mechanism
from genomask.baselines import MismatchPair, robustness_experiment
from genomask.bounds import markov_sufficient_condition_check
from genomask.hardness import (
    HittingSetInstance,
    ParityModel,
    random_instance,
    verify_deterministic_rule,
)
from genomask.masking import MaskedSequence, TranscriptEntry, transcript_to_json_lines
from genomask.mechanism import EnumeratedMechanism

from conftest import (
    parity_n3,
    possible_assignments,
    random_explicit,
    random_hmm,
    random_markov,
    replayed_ratios,
)


def independent_model(n=3, p1=0.3):
    """Product of independent biased bits (position i has P(1) = p1 + i/10)."""
    probs = np.ones(2 ** n)
    for idx in range(2 ** n):
        for i in range(n):
            bit = (idx >> (n - 1 - i)) & 1
            q = p1 + i / 10.0
            probs[idx] *= q if bit else 1 - q
    return ExplicitJointModel(probs, n=n, alphabet=2)


# --- conditional_query --------------------------------------------------------


def test_conditional_of_independent_model_is_marginal():
    m = independent_model()
    d = conditional_query(m, 2, (0,), K=[0], y_prefix=[(0, STAR), (1, 1)])
    assert d == pytest.approx([0.5, 0.5])  # P(1) = 0.3 + 2/10


def test_markov_conditional_with_erased_sensitive():
    mc = MarkovChainModel.binary_symmetric(0.9, 3)
    d0 = conditional_query(mc, 1, (0,), K=[0], y_prefix=[(0, STAR)])
    d1 = conditional_query(mc, 1, (1,), K=[0], y_prefix=[(0, STAR)])
    assert d0 == pytest.approx([0.9, 0.1], abs=1e-12)
    assert d1 == pytest.approx([0.1, 0.9], abs=1e-12)


def test_conditional_sums_to_one_on_reachable_prefixes(rng):
    model = random_markov(rng, 4)
    engine = EnumeratedMechanism(model, [1])
    for u in possible_assignments(engine):
        d = engine.conditional(3, u, [(1, STAR), (0, 0)])
        assert d.sum() == pytest.approx(1.0, abs=1e-9)


def test_impossible_context_raises():
    m = ExplicitJointModel([0.5, 0.0, 0.0, 0.5], n=2, alphabet=2)
    with pytest.raises(ImpossibleContextError):
        conditional_query(m, 1, (0,), K=[0], y_prefix=[(0, 1)])  # y0=1 under u=0


def test_prefix_validation():
    m = independent_model()
    with pytest.raises(InputError):
        conditional_query(m, 1, (0,), K=[0], y_prefix=[(1, 0)])
    with pytest.raises(InputError):
        conditional_query(m, 1, (0,), K=[0], y_prefix=[(0, 5)])


# --- erasure probability -------------------------------------------------------


def test_sensitive_positions_always_erased():
    engine = EnumeratedMechanism(independent_model(), [0])
    assert 1.0 - replayed_ratios(engine, 0)[1, 1] == 1.0


def test_independent_position_never_erased():
    engine = EnumeratedMechanism(independent_model(), [0])
    assert 1.0 - replayed_ratios(engine, 2, [(0, STAR)])[1, 0] == 0.0


def test_markov_erasure_probability_value():
    engine = EnumeratedMechanism(MarkovChainModel.binary_symmetric(0.9, 3), [0])
    got = 1.0 - replayed_ratios(engine, 1, [(0, STAR)])[0, 0]
    assert got == pytest.approx(1 - 0.1 / 0.9, abs=1e-12)


# --- mask_sequence ------------------------------------------------------------


def test_independent_model_masks_only_sensitive(rng):
    m = independent_model()
    masked, transcript = mask_sequence(m, (1, 0, 1), [0], rng=rng)
    assert masked.symbols == (STAR, 0, 1)
    assert transcript[0].release_prob == 0.0
    assert all(0.0 <= e.release_prob <= 1.0 for e in transcript)


def test_markov_release_follows_release():
    # once a position is released, every later one is released too
    mc = MarkovChainModel.binary_symmetric(0.8, 4)
    dist = exact_output_distribution(mc, [0])
    for y, p in zip(dist.y_values, dist.output_marginal()):
        if p <= 0:
            continue
        seen_release = False
        for v in y:
            if seen_release:
                assert v != STAR
            seen_release = seen_release or (v != STAR)


def test_zero_probability_input_warns(rng):
    m = ExplicitJointModel([0.5, 0.0, 0.0, 0.5], n=2, alphabet=2)
    with pytest.warns(UserWarning):
        mask_sequence(m, (0, 1), [0], rng=rng)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), ksize=st.integers(1, 3))
def test_masking_is_faithful(seed, ksize):
    rng = np.random.default_rng(seed)
    model = random_markov(rng, 5)
    K = sorted(rng.choice(5, size=ksize, replace=False))
    x = model.sample(rng)
    masked, _ = mask_sequence(model, x, K, rng=rng)
    assert masked.is_faithful_to(x)
    assert all(masked.symbols[k] == STAR for k in K)


# --- exact output law ---------------------------------------------------------


def test_output_distribution_consistency(rng):
    model = random_explicit(rng, 4)
    dist = exact_output_distribution(model, [1])
    assert dist.total == pytest.approx(1.0, abs=1e-10)
    space, probs = model.joint_table()
    true_marginal = [probs[space[:, 1] == v].sum() for v in (0, 1)]
    assert dist.sensitive_marginal() == pytest.approx(true_marginal, abs=1e-10)
    # every output with mass erases the sensitive position
    for y, p in zip(dist.y_values, dist.output_marginal()):
        if p > 0:
            assert y[1] == STAR


def test_exact_and_monte_carlo_rates_agree(rng):
    model = random_markov(rng, 6)
    exact = achievable_rate_exact(model, [0])
    est, err = achievable_rate_mc(model, [0], runs=3000, rng=rng)
    assert abs(est - exact) < 4 * max(err, 1e-6)


def test_rate_identity_across_models_and_orderings(rng):
    cases = [
        (random_explicit(rng, 4), [0], None),
        (random_explicit(rng, 4, sparse=True), [2], None),
        (random_markov(rng, 5), [0], Ordering((4, 2, 0, 1, 3))),
        (random_hmm(rng, 5, 3), [1, 3], Ordering((3, 0, 4, 1, 2))),
        (parity_n3(), [0], None),
    ]
    for model, K, ordering in cases:
        direct = achievable_rate_exact(model, K, ordering)
        stepwise = rate_from_stepwise_minima(model, K, ordering)
        assert direct == pytest.approx(stepwise, abs=1e-9)


def test_deterministic_mechanism_has_zero_mc_variance(rng):
    inst = HittingSetInstance.from_lists(2, [[1, 2]])
    model = ParityModel(inst)
    est, err = achievable_rate_mc(model, model.K, runs=64, rng=rng)
    assert err == 0.0


def test_privacy_of_random_instances(rng):
    for _ in range(6):
        model = random_explicit(rng, 4)
        perm = tuple(int(v) for v in rng.permutation(4))
        audit = verify_privacy_exact(model, [0], Ordering(perm))
        assert audit.max_deviation <= 1e-10
        assert abs(audit.mutual_information_bits) <= 1e-10


def test_release_everything_leaks():
    # negative control: the identity "mechanism" on a correlated model
    mc = MarkovChainModel.binary_symmetric(0.9, 3)
    space, probs = mc.joint_table()
    from genomask.mechanism import OutputDistribution

    # output y = x: column x holds p(x) in the row of its sensitive value
    matrix = np.zeros((2, probs.size))
    matrix[space[:, 0], np.arange(probs.size)] = probs
    dist = OutputDistribution(3, (0,), [(0,), (1,)],
                              list(map(tuple, space.tolist())), matrix)
    assert dist.mutual_information_bits() > 0.1
    assert dist.max_conditional_deviation() > 0.1


def test_all_sensitive_yields_all_star():
    mc = MarkovChainModel.binary_symmetric(0.7, 3)
    dist = exact_output_distribution(mc, [0, 1, 2])
    assert dist.y_values == [(STAR, STAR, STAR)]
    assert abs(dist.mutual_information_bits()) <= 1e-12


def test_local_optimality_release_mass(rng):
    """The chance of releasing position i given any reachable prefix equals
    the summed minimum conditionals: no single step can release more."""
    model = random_markov(rng, 4)
    K = [0]
    dist = exact_output_distribution(model, K)
    engine = EnumeratedMechanism(model, K)

    def prefix_mass(prefix, extra=None):
        total = 0.0
        for y, p in zip(dist.y_values, dist.output_marginal()):
            if all(y[pos] == val for pos, val in prefix):
                if extra is None or extra(y):
                    total += p
        return total

    def walk(prefix, depth):
        base = prefix_mass(prefix)
        if base <= 0 or depth == model.n:
            return
        mins = None
        for u in possible_assignments(engine):
            try:
                d = engine.conditional(depth, u, prefix)
            except ImpossibleContextError:
                continue
            mins = d if mins is None else np.minimum(mins, d)
        expected = float(mins.sum()) if depth not in K else 0.0
        released = prefix_mass(prefix, extra=lambda y: y[depth] != STAR)
        assert released / base == pytest.approx(expected, abs=1e-10)
        for v in (0, 1, STAR):
            walk(prefix + [(depth, v)], depth + 1)

    walk([], 0)


def test_ordering_validation():
    with pytest.raises(InputError):
        Ordering((0, 0, 1))
    assert Ordering.linear(3).is_linear


def test_masked_sequence_roundtrip():
    ms = MaskedSequence((1, STAR, 0))
    assert ms.text() == "1*0"
    assert MaskedSequence.parse("1*0") == ms
    assert ms.erasure_count == 1
    assert ms.is_faithful_to((1, 1, 0))
    assert not ms.is_faithful_to((1, 1, 1))


def test_symbols_above_nine_have_no_text_form():
    # "10*1" would parse back as (1, 0, STAR, 1)
    with pytest.raises(InputError):
        MaskedSequence((10, STAR, 1)).text()
    assert MaskedSequence((9, STAR, 1)).text() == "9*1"


def test_transcript_serialization():
    entries = (TranscriptEntry(0, 0.5, STAR), TranscriptEntry(1, 1.0, 1))
    lines = transcript_to_json_lines(entries).splitlines()
    assert '"outcome": "*"' in lines[0]
    assert '"release_prob": 1.0' in lines[1]


# --- level-batched walker -------------------------------------------------------
#
# The per-node primitives (`predictive`, `release_table`, `step_factor`) are
# the oracle: replaying them along one output path must give that output's
# column of the law bit for bit, since the batched walk does the same
# arithmetic on the same rows in the same order.


def _replay(engine, ordering, y):
    """(column, entered) for output y: the sensitive-assignment weights
    after replaying `step_factor` along y's path, and whether the true
    model's weight stayed positive at every step."""
    wp, wq = engine.p.copy(), engine.q.copy()
    for pos in ordering:
        cond, totals = engine.predictive(wq, pos)
        _, ratios = engine.release_table(cond, totals, pos)
        f = engine.step_factor(pos, y[pos], ratios)
        wp, wq = wp * f, wq * f
        if not wp.max() > 0.0:
            return None, False
    return np.bincount(engine.u_codes, weights=wp, minlength=engine.num_u), True


def _assert_law_is_replay(engine, ordering, dist):
    leaves = dict(zip(dist.y_values, dist.matrix.T))
    outcomes = [(*range(a), STAR) for a in engine.arities]
    for y in itertools.product(*outcomes):
        col, entered = _replay(engine, ordering, y)
        assert entered == (y in leaves), y
        if entered:
            assert np.array_equal(leaves[y], col), y


def _tiny_models(rng):
    yield random_explicit(rng, 4, sparse=True)
    yield random_explicit(rng, 3, alphabet=3)
    yield random_markov(rng, 4, alphabet=3)
    yield random_hmm(rng, 4, 3)


def test_walk_leaves_equal_per_path_replay(rng):
    for model in _tiny_models(rng):
        for _ in range(2):
            K = sorted(int(v) for v in rng.choice(model.n, size=1 + int(rng.integers(2)),
                                                  replace=False))
            ordering = Ordering(tuple(int(v) for v in rng.permutation(model.n)))
            engine = EnumeratedMechanism(model, K)
            _assert_law_is_replay(engine, ordering, engine.output_distribution(ordering))


def test_mismatched_walk_equals_replay(rng):
    # the mechanism's model puts mass where the true model has none
    for n in (3, 4):
        p_model = random_explicit(rng, n, sparse=True)
        q_model = random_explicit(rng, n)
        assert np.any((p_model.probs == 0) & (q_model.probs > 0))
        K = [int(rng.integers(n))]
        ordering = Ordering(tuple(int(v) for v in rng.permutation(n)))
        engine = EnumeratedMechanism(p_model, K, q_model)
        dist = engine.output_distribution(ordering)
        _assert_law_is_replay(engine, ordering, dist)
        result = robustness_experiment(MismatchPair(p_model, q_model), K, ordering)
        assert result.leakage_bits == dist.mutual_information_bits()


def _walk_results(rng):
    """Output laws, stepwise rates, certificates and parity-rule checks
    over a fixed seeded mix."""
    out = []
    for model in (random_explicit(rng, 6), random_explicit(rng, 5, sparse=True),
                  random_markov(rng, 5), random_hmm(rng, 5, 3), parity_n3()):
        ordering = Ordering(tuple(int(v) for v in rng.permutation(model.n)))
        K = [ordering.perm[model.n // 2]]
        engine = EnumeratedMechanism(model, K)
        dist = engine.output_distribution(ordering)
        out.append((dist.y_values, dist.matrix,
                    engine.stepwise_minima_rate(ordering),
                    markov_sufficient_condition_check(model, [0]),
                    markov_sufficient_condition_check(model, K, ordering)))
    p_model, q_model = random_explicit(rng, 5, sparse=True), random_explicit(rng, 5)
    engine = EnumeratedMechanism(p_model, [2], q_model)
    dist = engine.output_distribution(Ordering.linear(5))
    out.append((dist.y_values, dist.matrix, None, None, None))
    inst = random_instance(4, 3, rng)
    out.append(tuple(verify_deterministic_rule(inst, order)
                     for order in itertools.permutations(range(1, 5))))
    return out


@pytest.mark.parametrize("budget", [1, 1 << 16])
def test_split_batches_give_the_same_results(monkeypatch, budget):
    batches = []
    real = EnumeratedMechanism._predictive

    def counting(self, pos, nodes, *args):
        batches.append(nodes)
        return real(self, pos, nodes, *args)

    monkeypatch.setattr(EnumeratedMechanism, "_predictive", counting)
    whole = _walk_results(np.random.default_rng(17))
    whole_batches, batches[:] = len(batches), []
    monkeypatch.setattr(hmm, "BELIEF_BUDGET_BYTES", budget)
    split = _walk_results(np.random.default_rng(17))
    assert len(batches) > whole_batches
    if budget == 1:
        assert max(batches) == 1  # every node walked alone
    else:
        assert max(batches) > 1
    for a, b in zip(whole[:-1], split[:-1]):
        assert a[0] == b[0] and np.array_equal(a[1], b[1])
        if a[2] is not None:
            assert abs(a[2] - b[2]) <= 1e-14
        assert a[3:] == b[3:]
    assert whole[-1] == split[-1]


def test_walk_stays_within_byte_budget(monkeypatch):
    rng = np.random.default_rng(3)
    model = random_explicit(rng, 10)
    ordering = Ordering(tuple(int(v) for v in rng.permutation(10)))
    engine = EnumeratedMechanism(model, [ordering.perm[5]])
    budget = 1 << 20
    monkeypatch.setattr(hmm, "BELIEF_BUDGET_BYTES", budget)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        batches = sum(1 for _ in engine.walk(ordering))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert batches > 2 * model.n  # the deep levels were split
    assert peak <= budget


# --- budgets ------------------------------------------------------------------
#
# Each budget is a module constant read at call time, so shrinking it here
# must reach every caller.


@pytest.mark.parametrize("module,name,value,call", [
    pytest.param(distributions, "ENUMERATION_BUDGET", 15,
                 lambda m: exact_output_distribution(m, [0]), id="space-law"),
    pytest.param(distributions, "ENUMERATION_BUDGET", 15,
                 lambda m: window_leakage_exact(m, [0], 1), id="space-window"),
    pytest.param(distributions, "ENUMERATION_BUDGET", 15,
                 lambda m: lp_optimal_rate(m, [0]), id="space-lp"),
    pytest.param(mechanism, "LEAF_BUDGET", 2,
                 lambda m: EnumeratedMechanism(m, [0]).output_distribution(
                     Ordering.linear(4)), id="leaves-law"),
    pytest.param(mechanism, "LEAF_BUDGET", 1,
                 lambda m: EnumeratedMechanism(m, [0]).stepwise_minima_rate(
                     Ordering.linear(4)), id="nodes-stepwise"),
])
def test_shrunken_budget_raises_capacity_error(rng, monkeypatch, module, name,
                                               value, call):
    model = random_markov(rng, 4)                 # 16 sequences
    call(model)                                   # fits the default budgets
    monkeypatch.setattr(module, name, value)
    with pytest.raises(CapacityError):
        call(model)


@pytest.mark.parametrize("name", ["LP_VAR_BUDGET", "LP_DENSE_BUDGET"])
def test_shrunken_lp_budget_reports_capacity(rng, monkeypatch, name):
    model = random_markov(rng, 3)
    assert lp_optimal_rate(model, [0]).status == "optimal"
    monkeypatch.setattr(bounds, name, 1)
    assert lp_optimal_rate(model, [0]).status == "capacity"
