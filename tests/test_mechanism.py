import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from genomask import (
    CapacityError,
    ExplicitJointModel,
    ImpossibleContextError,
    InputError,
    MarkovChainModel,
    NumericalError,
    Ordering,
    STAR,
    achievable_rate_exact,
    achievable_rate_mc,
    exact_output_distribution,
    lp_optimal_rate,
    lp_output_distribution,
    mask_sequence,
    rate_from_stepwise_minima,
    window_leakage_exact,
)
from genomask import bounds, distributions, mechanism
from genomask.baselines import (MismatchPair, robustness_experiment,
                                window_leakage_sweep)
from genomask.bounds import markov_sufficient_condition_check
from genomask.distributions import assignment_index
from genomask.hmm import erasure_rate_mc
from genomask.hardness import (
    HittingSetInstance,
    ParityModel,
    random_instance,
    verify_deterministic_rule,
)
from genomask.masking import (
    RATIO_SNAP,
    RATIO_TOL,
    MaskedSequence,
    TranscriptEntry,
    release_rule,
    transcript_to_json_lines,
)
from genomask.mechanism import EnumeratedMechanism, OutputDistribution

from conftest import (
    conditional,
    first_seen_window_leakage,
    parity_n3,
    possible_assignments,
    random_explicit,
    random_hmm,
    radius_window,
    random_markov,
    replayed_ratios,
    zero_transition_chain,
)
from strategies import seeded_examples, small_models


def independent_model(n=3, p1=0.3):
    """Product of independent biased bits (position i has P(1) = p1 + i/10)."""
    probs = np.ones(2 ** n)
    for idx in range(2 ** n):
        for i in range(n):
            bit = (idx >> (n - 1 - i)) & 1
            q = p1 + i / 10.0
            probs[idx] *= q if bit else 1 - q
    return ExplicitJointModel(probs, n=n, alphabet=2)


# --- the conditional oracle --------------------------------------------------


def test_conditional_of_independent_model_is_marginal():
    m = independent_model()
    d = conditional(EnumeratedMechanism(m, [0]), 2, (0,), [(0, STAR), (1, 1)])
    assert d == pytest.approx([0.5, 0.5])  # P(1) = 0.3 + 2/10


def test_markov_conditional_with_erased_sensitive():
    mc = MarkovChainModel.binary_symmetric(0.9, 3)
    engine = EnumeratedMechanism(mc, [0])
    d0 = conditional(engine, 1, (0,), [(0, STAR)])
    d1 = conditional(engine, 1, (1,), [(0, STAR)])
    assert d0 == pytest.approx([0.9, 0.1], abs=1e-12)
    assert d1 == pytest.approx([0.1, 0.9], abs=1e-12)


def test_conditional_sums_to_one_on_reachable_prefixes(rng):
    model = random_markov(rng, 4)
    engine = EnumeratedMechanism(model, [1])
    for u in possible_assignments(engine):
        d = conditional(engine, 3, u, [(1, STAR), (0, 0)])
        assert d.sum() == pytest.approx(1.0, abs=1e-9)


def test_impossible_context_raises():
    m = ExplicitJointModel([0.5, 0.0, 0.0, 0.5], n=2, alphabet=2)
    with pytest.raises(ImpossibleContextError):
        # y0=1 under u=0
        conditional(EnumeratedMechanism(m, [0]), 1, (0,), [(0, 1)])


def test_prefix_validation():
    engine = EnumeratedMechanism(independent_model(), [0])
    with pytest.raises(InputError):
        conditional(engine, 1, (0,), [(1, 0)])
    with pytest.raises(InputError):
        conditional(engine, 1, (0,), [(0, 5)])


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


def _full_support_mask(engine, x, ordering, rng):
    """The transcript of masking x with every support row replayed through
    `predictive`, `release_table` and `step_factor`, rows of weight zero
    included."""
    u = assignment_index([x[k] for k in engine.K], engine.arities, engine.K)
    wq = engine.q.copy()
    transcript = []
    for pos in ordering:
        cond, totals = engine.predictive(wq, pos)
        _, ratios = engine.release_table(cond, totals, pos)
        r = float(ratios[u, x[pos]])
        y = x[pos] if rng.random() < r else STAR
        wq *= engine.step_factor(pos, y, ratios)
        transcript.append(TranscriptEntry(pos, r, y))
    return tuple(transcript)


@seeded_examples(30)
def test_mask_is_the_full_support_replay(seed):
    # `mask` keeps only the rows of positive weight; a dropped zero adds
    # nothing to a bincount, so its transcripts equal the full replay
    # exactly, for a matched and a mismatched engine, and for a sequence
    # of probability zero when the draw has one
    model, K, ordering = small_models(seed)
    rng = np.random.default_rng([seed, 2])
    q_model = random_explicit(rng, model.n, model.arities[0], sparse=True)
    for engine in (EnumeratedMechanism(model, K),
                   EnumeratedMechanism(model, K, q_model)):
        xs = [model.sample(rng)]
        zero = np.flatnonzero(engine.q == 0)
        if zero.size:
            xs.append(tuple(int(v) for v in engine.space[zero[0]]))
        for x in xs:
            _, got = engine.mask(x, ordering, np.random.default_rng(seed))
            assert got == _full_support_mask(engine, x, ordering,
                                             np.random.default_rng(seed))


def test_mask_enters_a_drawn_node_that_no_row_reaches():
    # x = 111 has probability zero: after position 0 is erased every row
    # releases position 1, yet x's own ratio there is 0 and the run draws
    # the erasure, a node with no support row.  Its tables come from an
    # empty (integer) bincount; the run erases what is left instead of
    # failing in the division
    model = ExplicitJointModel([0.1, 0.1, 0.7, 0.0, 0.1, 0.0, 0.0, 0.0],
                               n=3, alphabet=2)
    with pytest.warns(UserWarning, match="probability zero"):
        masked, transcript = mask_sequence(model, (1, 1, 1), [2],
                                           rng=np.random.default_rng(0))
    assert masked.symbols == (STAR,) * 3
    assert [t.release_prob for t in transcript] == [0.0, 0.0, 0.0]


@seeded_examples(40)
def test_masking_is_faithful(seed):
    rng = np.random.default_rng(seed)
    model = random_markov(rng, 5)
    K = sorted(rng.choice(5, size=1 + seed % 3, replace=False))
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


@seeded_examples(30)
def test_rate_identity_on_drawn_models(seed):
    # the stepwise-minima rate against the rate of the walk's law
    model, K, ordering = small_models(seed, max_n=4)
    direct = achievable_rate_exact(model, K, ordering)
    assert abs(rate_from_stepwise_minima(model, K, ordering) - direct) <= 1e-9


@seeded_examples(30)
def test_monte_carlo_rate_agrees_with_exact_on_both_paths(seed):
    # the minima-sum estimate through the chain session (linear order) or
    # the enumeration (an explicit model), then through the enumeration
    # under a non-linear order, against the exact rate of that order
    model, K, ordering = small_models(seed, max_n=4)
    if ordering.is_linear:
        ordering = Ordering(ordering.perm[::-1])
    rng = np.random.default_rng(seed)
    for order in (None, ordering):
        exact = achievable_rate_exact(model, K, order)
        est, err = achievable_rate_mc(model, K, order, runs=200, rng=rng)
        assert abs(est - exact) <= 4 * max(err, 1e-9), (order, est, exact, err)


def test_deterministic_mechanism_has_zero_mc_variance(rng):
    inst = HittingSetInstance.from_lists(2, [[1, 2]])
    model = ParityModel(inst)
    est, err = achievable_rate_mc(model, model.K, runs=64, rng=rng)
    assert err == 0.0


@pytest.mark.parametrize("runs", [0, -1])
@pytest.mark.parametrize("estimator", ["erasure_rate_mc", "fallback",
                                       "window_leakage_sweep"])
def test_monte_carlo_estimators_need_a_run(rng, estimator, runs):
    # one check, in the driver that draws every estimator's runs
    chain, table = random_markov(rng, 4), random_explicit(rng, 4)
    call = {"erasure_rate_mc": lambda: erasure_rate_mc(chain, [0], runs, rng),
            "fallback": lambda: achievable_rate_mc(table, [0], runs=runs,
                                                   rng=rng),
            "window_leakage_sweep": lambda: window_leakage_sweep(
                chain, [0], [1], runs, rng)}
    with pytest.raises(InputError, match="runs must be >= 1"):
        call[estimator]()


def test_enumeration_fallback_draws_in_fixed_blocks(monkeypatch):
    # a chain in a reversed order takes the enumeration fallback: its runs
    # are counted out in `_monte_carlo`'s blocks, each block one walk on its
    # own uniforms with no sampled x, and each run scores the released mass
    # of its own path, which it also scores when walked alone
    model = MarkovChainModel([0.4, 0.6], [[0.85, 0.15], [0.3, 0.7]], 6)
    ordering = Ordering(tuple(range(5, -1, -1)))
    engine = EnumeratedMechanism(model, [1])
    rng, masses = np.random.default_rng(3), []
    for count in (512, 512, 76):
        uniforms = rng.random((model.n, count))
        for run in range(count):
            masses.append(sum(
                float(batch.mins.sum(axis=1)[0]) for batch in engine.walk(
                    ordering, lambda b: b.mins, uniforms[:, run:run + 1])
                if batch.pos is not None))
    sizes, real = [], EnumeratedMechanism.walk

    def recording(self, ordering_, law=None, uniforms=None):
        sizes.append(uniforms.shape[1])
        return real(self, ordering_, law, uniforms)

    def no_sample(*args):
        raise AssertionError("the fallback sampled an x")

    monkeypatch.setattr(EnumeratedMechanism, "walk", recording)
    monkeypatch.setattr(model, "sample_batch", no_sample)
    est, err = achievable_rate_mc(model, [1], ordering, runs=1100,
                                  rng=np.random.default_rng(3))
    assert sizes == [512, 512, 76]
    assert est == float((np.array(masses) / model.n).mean()) and err > 0


def test_engines_refuse_other_arities_and_a_mismatched_rate(rng):
    p = random_markov(rng, 4)
    for q in (random_markov(rng, 3), random_markov(rng, 4, alphabet=3)):
        with pytest.raises(InputError, match="share shape"):
            EnumeratedMechanism(p, [0], q)
    engine = EnumeratedMechanism(p, [0], random_markov(rng, 4))
    with pytest.raises(InputError, match="matched mechanism"):
        engine.stepwise_minima_rate(Ordering(tuple(range(4))))


def test_privacy_of_random_instances(rng):
    for _ in range(6):
        model = random_explicit(rng, 4)
        perm = tuple(int(v) for v in rng.permutation(4))
        dist = exact_output_distribution(model, [0], Ordering(perm))
        assert dist.max_conditional_deviation() <= 1e-10
        assert abs(dist.mutual_information_bits()) <= 1e-10


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
                d = conditional(engine, depth, u, prefix)
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
    # every exact entry point rejects an ordering shorter or longer than n
    mc = MarkovChainModel.binary_symmetric(0.8, 4)
    rng = np.random.default_rng(1)
    entry_points = [
        lambda o: exact_output_distribution(mc, [0], o),
        lambda o: achievable_rate_exact(mc, [0], o),
        lambda o: rate_from_stepwise_minima(mc, [0], o),
        lambda o: markov_sufficient_condition_check(mc, [0], o),
        lambda o: mask_sequence(mc, (0, 1, 1, 0), [0], o, rng=rng),
        lambda o: achievable_rate_mc(mc, [0], o, runs=5, rng=rng),
        lambda o: robustness_experiment(MismatchPair(mc, mc), [0], o),
    ]
    for call, size in itertools.product(entry_points, (3, 5)):
        with pytest.raises(InputError):
            call(Ordering.linear(size))
    uniform = ExplicitJointModel.uniform(3)
    with pytest.raises(InputError):
        achievable_rate_mc(uniform, [0], Ordering.linear(2), runs=5, rng=rng)


def test_masked_sequence_roundtrip():
    ms = MaskedSequence((1, STAR, 0))
    assert ms.text() == "1*0"
    assert MaskedSequence.parse("1*0") == ms
    assert ms.symbols.count(STAR) == 1
    assert ms.is_faithful_to((1, 1, 0))
    assert not ms.is_faithful_to((1, 1, 1))


def test_symbols_above_nine_have_no_text_form():
    # "10*1" would parse back as (1, 0, STAR, 1)
    with pytest.raises(InputError):
        MaskedSequence((10, STAR, 1)).text()
    assert MaskedSequence((9, STAR, 1)).text() == "9*1"


def test_masked_sequence_parse_rejects_non_decimal_digits():
    # "²" passes str.isdigit, which int() then rejects
    for text in ["1²0", "1①0", "1-0"]:
        with pytest.raises(InputError):
            MaskedSequence.parse(text)


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


@seeded_examples(10)
def test_walk_law_is_replay_for_matched_and_mismatched_engines(seed):
    # a matched engine enters children without the mismatched engine's
    # mask; both must give the replayed law, zeros and all
    model, K, ordering = small_models(seed)
    engine = EnumeratedMechanism(model, K)
    _assert_law_is_replay(engine, ordering, engine.output_distribution(ordering))
    q_model = random_explicit(np.random.default_rng([seed, 1]), model.n,
                              model.arities[0], sparse=True)
    engine = EnumeratedMechanism(model, K, q_model)
    _assert_law_is_replay(engine, ordering, engine.output_distribution(ordering))


def _pinned_walks():
    """(engine, ordering) pairs: explicit models with zero entries, a Markov
    chain with zero transitions, an HMM with theta 0, |K| of 1 and 2 under
    random orderings, a mismatched engine and two parity models."""
    rng = np.random.default_rng(1313)
    models = [random_explicit(rng, 5, sparse=True),
              random_explicit(rng, 4, alphabet=3, sparse=True),
              zero_transition_chain(5), random_hmm(rng, 6, 3, theta=0.0)]
    for model in models:
        for size in (1, 2):
            K = sorted(int(v) for v in rng.choice(model.n, size, replace=False))
            ordering = Ordering(tuple(int(v) for v in rng.permutation(model.n)))
            yield EnumeratedMechanism(model, K), ordering
    p_model, q_model = random_explicit(rng, 5, sparse=True), random_explicit(rng, 5)
    yield (EnumeratedMechanism(p_model, [1, 3], q_model),
           Ordering(tuple(int(v) for v in rng.permutation(5))))
    for _ in range(2):
        model = ParityModel(random_instance(4, 3, rng))
        order = tuple(int(v) for v in rng.permutation(4))
        yield EnumeratedMechanism(model, model.K), Ordering(order + model.K)


def test_walker_outputs_are_pinned():
    # sha256 of the walkers' outputs, recorded before the walk's per-level
    # tables were rewritten: the rewrite must move no bit
    digests = {name: hashlib.sha256() for name in
               ("ys", "matrix", "rate", "certificate", "parity_rule")}
    for engine, ordering in _pinned_walks():
        dist = engine.output_distribution(ordering)
        digests["ys"].update(dist.ys.tobytes())
        digests["matrix"].update(dist.matrix.tobytes())
        if engine.mech_model is engine.model:
            digests["rate"].update(
                repr(engine.stepwise_minima_rate(ordering)).encode())
            digests["certificate"].update(repr((
                markov_sufficient_condition_check(engine.model, [0]),
                markov_sufficient_condition_check(engine.model, engine.K,
                                                  ordering))).encode())
        if isinstance(engine.model, ParityModel):
            instance = engine.model.instance
            digests["parity_rule"].update(repr(
                [verify_deterministic_rule(instance, order) for order in
                 itertools.permutations(range(1, instance.m + 1))]).encode())
    assert {name: d.hexdigest() for name, d in digests.items()} == {
        "ys":
            "bd6a9c9eaf4ed2a516fc8f01ca272be2c24c551f5f305c0a540f9416b8598204",
        "matrix":
            "687d127bde5295ff4dd94fda3b74253868edaa5956322468a389debb77bcf430",
        "rate":
            "fc96098a0f2537a79132f4603d72cf6fbfb17ef3b0cad7688b0f410fe95e47e5",
        "certificate":
            "b3cbdc9826b7fe572438e3d395d9e7c482ce433bf54b56ac5b6a45b6129828be",
        "parity_rule":
            "2fdbb931f46d462b911599dbb287189faf31dc5b5169788c318b7d3b828b7b5f",
    }


def _walk_results(rng):
    """Output laws, stepwise rates, certificates and parity-rule checks
    over a fixed seeded mix, then a sampled rate and a mask transcript."""
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
    # the drawn rule: a sampled rate of the enumeration fallback and one
    # enumeration mask transcript
    model = random_explicit(rng, 6)
    ordering = Ordering(tuple(int(v) for v in rng.permutation(6)))
    out.append((achievable_rate_mc(model, [1, 4], ordering, runs=600,
                                   rng=np.random.default_rng(5)),
                EnumeratedMechanism(model, [1, 4]).mask(
                    model.sample(rng), ordering, np.random.default_rng(6))))
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
    monkeypatch.setattr(distributions, "BELIEF_BUDGET_BYTES", budget)
    split = _walk_results(np.random.default_rng(17))
    assert len(batches) > whole_batches
    if budget == 1:
        assert max(batches) == 1  # every node walked alone
    else:
        assert max(batches) > 1
    for a, b in zip(whole[:-2], split[:-2]):
        assert a[0] == b[0] and np.array_equal(a[1], b[1])
        if a[2] is not None:
            assert abs(a[2] - b[2]) <= 1e-14
        assert a[3:] == b[3:]
    assert whole[-2:] == split[-2:]     # drawn runs bit for bit


def test_walk_stays_within_byte_budget(monkeypatch):
    rng = np.random.default_rng(3)
    model = random_explicit(rng, 10)
    ordering = Ordering(tuple(int(v) for v in rng.permutation(10)))
    engine = EnumeratedMechanism(model, [ordering.perm[5]])
    budget = 1 << 20
    monkeypatch.setattr(distributions, "BELIEF_BUDGET_BYTES", budget)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        batches = sum(1 for _ in engine.walk(ordering))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert batches > 2 * model.n  # the deep levels were split
    assert peak <= budget


def _per_node_cut(engine, batch, share):
    """(paths, node, row, wp, wq) of each piece of ``batch`` cut node by
    node on its running cost, as `EnumeratedMechanism._split` documents."""
    counts = np.bincount(batch.node, minlength=batch.size)
    cost = counts * mechanism._ENTRY_BYTES + 8 * (
        mechanism._TABLES_PER_NODE * engine.num_u * max(engine.arities)
        + batch.depth + 1)
    piece = (np.cumsum(cost) - cost) // max(share // 2, 1)
    edges = np.concatenate([[0], np.flatnonzero(piece[1:] != piece[:-1]) + 1,
                            [batch.size]])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return [(batch.paths[a:b], batch.node[offsets[a]:offsets[b]] - a,
             *(v[offsets[a]:offsets[b]] for v in (batch.row, batch.wp, batch.wq)))
            for a, b in zip(edges[:-1], edges[1:])]


def test_split_shortcut_at_its_boundary(monkeypatch):
    rng = np.random.default_rng(5)
    model = random_explicit(rng, 6)
    ordering = Ordering(tuple(int(v) for v in rng.permutation(6)))
    engine = EnumeratedMechanism(model, [ordering.perm[3]])
    batch = next(b for b in engine.walk(ordering) if b.depth == 2)
    node_bytes = 8 * (mechanism._TABLES_PER_NODE * engine.num_u
                      * max(engine.arities) + batch.depth + 1)
    cost = batch.node.size * mechanism._ENTRY_BYTES + batch.size * node_bytes
    assert batch.size > 2
    # the batch's cost at half the share, one byte over it, and twice it
    for half in (cost, cost - 1, cost // 2):
        monkeypatch.setattr(distributions, "BELIEF_BUDGET_BYTES",
                            2 * half * (engine.n + 1))
        share = distributions.BELIEF_BUDGET_BYTES // (engine.n + 1)
        assert share // 2 == half
        pieces = engine._split(batch, share)
        want = _per_node_cut(engine, batch, share)
        assert len(pieces) == len(want) == (1 if half >= cost - 1 else 2)
        # the O(1) check returns the batch itself exactly up to the boundary
        assert (pieces[0] is batch) == (half == cost)
        for piece, fields in zip(pieces, want):
            got = (piece.paths, piece.node, piece.row, piece.wp, piece.wq)
            assert all(np.array_equal(a, b) for a, b in zip(got, fields))


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
    # the walk owns the cap, so the two walks that return a verdict raise
    # too, where they used to answer True
    pytest.param(mechanism, "LEAF_BUDGET", 1,
                 lambda m: markov_sufficient_condition_check(m, [0]),
                 id="certificate"),
    pytest.param(mechanism, "LEAF_BUDGET", 1,
                 lambda m: verify_deterministic_rule(
                     HittingSetInstance.from_lists(4, [[1, 2], [2, 3], [3, 4]]),
                     (1, 2, 3, 4)), id="parity-rule"),
])
def test_shrunken_budget_raises_capacity_error(rng, monkeypatch, module, name,
                                               value, call):
    model = random_markov(rng, 4)                 # 16 sequences
    call(model)                                   # fits the default budgets
    monkeypatch.setattr(module, name, value)
    with pytest.raises(CapacityError):
        call(model)


@pytest.mark.parametrize("name", ["LP_VAR_BUDGET"])
def test_shrunken_lp_budget_reports_capacity(rng, monkeypatch, name):
    model = random_markov(rng, 3)
    assert lp_optimal_rate(model, [0]).status == "optimal"
    monkeypatch.setattr(bounds, name, 1)
    assert lp_optimal_rate(model, [0]).status == "capacity"


# --- release_rule -------------------------------------------------------------


def test_release_rule_minimum_over_live_rows_only():
    # dead hypotheses carry NaN rows (enumeration) or zero rows (HMM filter)
    cond = np.array([[0.2, 0.8], [0.6, 0.4], [np.nan, np.nan], [0.0, 0.0]])
    mins, ratios = release_rule(cond, np.array([True, True, False, False]),
                                False)
    assert mins.tolist() == [0.2, 0.4]
    np.testing.assert_allclose(ratios, [[1.0, 0.5], [1 / 3, 1.0],
                                        [0.0, 0.0], [0.0, 0.0]], rtol=1e-15)


def test_release_rule_erases_when_sensitive_or_nothing_live():
    cond = np.array([[0.2, 0.8], [0.6, 0.4]])
    for live, sensitive in [([True, True], True), ([False, False], False)]:
        mins, ratios = release_rule(cond, np.array(live), sensitive)
        assert mins.tolist() == [0.0, 0.0]
        assert ratios.tolist() == [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("excess", [3.0, -3.0])
def test_release_rule_raises_beyond_ratio_tol(excess):
    live = np.array([True, False])
    if excess > 0:   # a dead row below the minimum: ratio 1 + 3 RATIO_TOL
        cond = np.array([[0.5, 0.5], [0.5 / (1 + excess * RATIO_TOL), 0.5]])
    else:            # a negative minimum: ratio -3 RATIO_TOL
        cond = np.array([[excess * RATIO_TOL, 1.0], [1.0, 0.0]])
    with pytest.raises(NumericalError):
        release_rule(cond, live, False)


def test_release_rule_clips_within_ratio_tol():
    live = np.array([True, False])
    cond = np.array([[0.5, 0.5], [0.5 / (1 + RATIO_TOL / 2), 0.5]])
    assert release_rule(cond, live, False)[1][1, 0] == 1.0
    cond = np.array([[-RATIO_TOL / 2, 1.0], [1.0, 0.0]])
    assert release_rule(cond, live, False)[1][1, 0] == 0.0


def test_release_rule_snaps_to_one_within_ratio_snap():
    live = np.array([True, True])
    for gap, snapped in [(RATIO_SNAP / 2, True), (10 * RATIO_SNAP, False)]:
        cond = np.array([[0.5, 0.5], [0.5 / (1 - gap), 1 - 0.5 / (1 - gap)]])
        ratio = release_rule(cond, live, False)[1][1, 0]
        assert (ratio == 1.0) == snapped
        assert 1.0 - 2 * gap <= ratio <= 1.0


@pytest.mark.parametrize("sensitive", [False, True])
def test_release_rule_batched_equals_one_node(rng, sensitive):
    cond = rng.dirichlet(np.ones(3), size=(2, 5, 4))     # (2, 5) nodes, 4 u
    live = rng.random((2, 5, 4)) < 0.6
    cond[~live] = np.nan
    mins, ratios = release_rule(cond, live, sensitive)
    assert mins.shape == (2, 5, 3) and ratios.shape == cond.shape
    for idx in np.ndindex(2, 5):
        one_mins, one_ratios = release_rule(cond[idx], live[idx], sensitive)
        assert np.array_equal(mins[idx], one_mins)
        assert np.array_equal(ratios[idx], one_ratios)


def axis_min_release_rule(cond, live, sensitive):
    """`release_rule` as a minimum over the hypothesis axis, a two-sided
    clip and the snap: the reference the slice minima must match bit for
    bit."""
    if sensitive:
        mins = np.zeros(cond.shape[:-2] + cond.shape[-1:])
    else:
        mins = np.where(live[..., None], cond, np.inf).min(axis=-2)
        mins[np.isinf(mins)] = 0.0
    ratios = np.zeros_like(cond)
    np.divide(np.broadcast_to(mins[..., None, :], cond.shape), cond,
              out=ratios, where=cond > 0)
    if np.any(ratios > 1.0 + RATIO_TOL) or np.any(ratios < -RATIO_TOL):
        raise NumericalError("release ratio outside [0, 1] beyond tolerance")
    np.clip(ratios, 0.0, 1.0, out=ratios)
    ratios[ratios > 1.0 - RATIO_SNAP] = 1.0
    return mins, ratios


@pytest.mark.parametrize("num_u", [1, 2, 3, 8])
@pytest.mark.parametrize("arity", [2, 3, 4])
def test_release_rule_matches_axis_minimum_bitwise(num_u, arity):
    rng = np.random.default_rng(100 * num_u + arity)
    cond = rng.dirichlet(np.ones(arity), size=(6, 5, num_u))
    live = rng.random((6, 5, num_u)) < 0.7
    live[0] = True
    live[1] = False                                   # nothing live
    live[3, :, -1] = False
    if num_u > 1:
        live[4, :, 0] = False
        live[4, :, 1] = True
        live[5] = True
    cond[~live] = np.nan             # dead rows as enumeration gives them
    cond[3, :, -1] = 0.0             # and as the HMM filter gives them
    if num_u > 1:
        # a dead row just below the live minimum (ratios within RATIO_TOL
        # above 1) and a live entry within RATIO_TOL below 0
        low = np.where(live[4, ..., None], cond[4], np.inf).min(axis=-2)
        cond[4, :, 0] = low / (1 + RATIO_TOL / 2)
        cond[5] = 1.0 / arity
        cond[5, :, 1, 0] = -RATIO_TOL / 8
    for shape in [(6, 5), (0, 5), ()]:
        c = cond[:shape[0]] if shape else cond[0, 0]
        l = live[:shape[0]] if shape else live[0, 0]
        for sensitive in (False, True):
            got = release_rule(c, l, sensitive)
            want = axis_min_release_rule(c, l, sensitive)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


# --- OutputDistribution.from_mechanism ----------------------------------------


def window_law(model, K, erased):
    xs = model.enumerate_space()
    ys = xs.copy()
    ys[:, sorted(erased)] = STAR
    return OutputDistribution.from_mechanism(model, K, xs, ys,
                                             np.ones(xs.shape[0]))


def assert_sorted_int_outputs(dist, n):
    assert dist.ys.dtype == np.int64
    assert dist.ys.shape == (dist.matrix.shape[1], n)
    rows = list(map(tuple, dist.ys.tolist()))
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert dist.y_values == rows


@seeded_examples(12)
def test_from_mechanism_laws(seed):
    # the 12 seeds cover each (n, kind) pair once
    n, kind = 2 + seed % 4, ("explicit", "markov", "hmm")[seed % 3]
    rng = np.random.default_rng(seed)
    model = {"explicit": lambda: random_explicit(rng, n),
             "markov": lambda: random_markov(rng, n),
             "hmm": lambda: random_hmm(rng, n, 3)}[kind]()
    for omega in range(n + 1):
        prefix = range(omega)
        assert abs(window_leakage_exact(model, [0], omega)
                   - first_seen_window_leakage(model, [0], prefix)) <= 1e-12
        assert_sorted_int_outputs(window_law(model, [0], prefix), n)
    assert_sorted_int_outputs(exact_output_distribution(model, [0]), n)
    solution = lp_optimal_rate(model, [0])
    assert solution.status == "optimal"
    assert_sorted_int_outputs(lp_output_distribution(model, [0], solution), n)


def test_from_mechanism_radius_window(rng):
    model = random_explicit(rng, 5, alphabet=3)
    for radius in range(3):
        erased = radius_window(5, [2], radius)
        assert abs(window_leakage_exact(model, [2], radius + 1)
                   - first_seen_window_leakage(model, [2], erased)) <= 1e-12
        assert_sorted_int_outputs(window_law(model, [2], erased), 5)
