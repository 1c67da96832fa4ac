import copy
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from genomask import (
    CapacityError,
    ExplicitJointModel,
    HmmModel,
    ImpossibleContextError,
    InputError,
    NumericalError,
    Ordering,
    STAR,
    achievable_rate_exact,
    achievable_rate_mc,
    exact_output_distribution,
    mask_hmm_batch,
    mask_sequence,
    sensitive_backward_table,
    sensitive_conditionals,
    upper_bound_rate,
    window_leakage_sweep,
)
from genomask.distributions import assignment_index, sensitive_assignments
from genomask.hmm import BatchMaskingSession, erasure_rate_mc
from genomask.info import sample_stderr
from genomask.mechanism import EnumeratedMechanism

from conftest import (
    conditional,
    emissions,
    possible_assignments,
    random_hmm,
    random_markov,
    zero_transition_chain,
)
from strategies import seeded_examples, small_models


def case_model(rng, n, m, eps, theta):
    """The model of a session case: a random HMM with m panel rows, or the
    Markov chain that ``m`` names (its hidden state is the symbol)."""
    if m == "markov":
        return random_markov(rng, n)
    if m == "markov-zero":
        return zero_transition_chain(n)
    return random_hmm(rng, n, m, eps=eps, theta=theta)


def path_probability_table(model, K):
    """Brute force p(x_K = u | S_0 = s) by enumerating hidden paths and
    sensitive emissions."""
    K = tuple(sorted(K))
    chain = model.hidden_chain()
    t, emis = chain.trans, emissions(chain)
    us = sensitive_assignments(model.arities, K)
    out = np.zeros((len(us), chain.m))
    for s0 in range(chain.m):
        for path in itertools.product(range(chain.m), repeat=model.n - 1):
            full = (s0,) + path
            pp = 1.0
            for i in range(1, model.n):
                pp *= t[full[i - 1], full[i]]
            for ui, u in enumerate(us):
                pe = pp
                for slot, k in enumerate(K):
                    pe *= emis[k][u[slot], full[k]]
                out[ui, s0] += pe
    return out


def reference_backward(model, K):
    """The full backward table by one recursion over all n rows, and the
    products row(i + 1) @ T.T (ones at n - 1) that the checkpointed table
    must reproduce bit for bit."""
    chain = model.hidden_chain()
    K = tuple(sorted(K))
    us = sensitive_assignments(model.arities, K)
    ucomp = np.array(us, dtype=np.int64).reshape(len(us), len(K))
    n, t, emis = model.n, chain.trans, emissions(chain)
    values = np.ones((n, ucomp.shape[0], chain.m))
    slot = {k: j for j, k in enumerate(K)}
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            values[i] = values[i + 1] @ t.T
        if i in slot:
            values[i] *= emis[i][ucomp[:, slot[i]]]
    prods = np.ones_like(values)
    for i in range(n - 1):
        prods[i] = values[i + 1] @ t.T
    return values, prods


def segment_rows(table):
    """Every backward row and product, (n, num_u, m) each, walked through
    `SensitiveBackwardTable.segment` one segment at a time."""
    n, stride = table.chain.n, table.stride
    rows, prods = np.empty((2, n, table.num_u, table.chain.m))
    for j in range(len(table.values)):
        table.segment(j, rows[j * stride:], prods[j * stride:])
    return rows, prods


def assert_segments_equal_reference(model, K):
    table = sensitive_backward_table(model, K)
    ref_rows, ref_prods = reference_backward(model, K)
    rows, prods = segment_rows(table)
    assert table.values.shape[0] == -(-model.n // table.stride)
    assert np.array_equal(table.values, ref_rows[::table.stride])
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(prods, ref_prods)
    assert np.array_equal(table.prior,
                          ref_rows[0] @ model.hidden_chain().initial)


# n in {1, 2, 3, s^2, s^2 + 1} for s = 3 and 4; K empty, on a segment
# boundary (the strides are 3, 4, 4 and 5) and at n - 1
@pytest.mark.parametrize("n,K", [
    (1, ()), (1, (0,)), (2, ()), (2, (1,)), (3, ()), (3, (0, 2)),
    (9, ()), (9, (3,)), (9, (0, 6, 8)), (10, ()), (10, (4,)),
    (10, (3, 4, 9)), (16, (8,)), (16, (4, 15)), (17, ()), (17, (5, 10)),
    (17, (16,))])
@pytest.mark.parametrize("kind", ["hmm", "markov"])
def test_backward_segments_equal_full_recursion(rng, kind, n, K):
    model = (random_hmm(rng, n, 3) if kind == "hmm"
             else random_markov(rng, n, alphabet=3))
    assert_segments_equal_reference(model, K)


@seeded_examples(30)
def test_backward_segments_equal_full_recursion_on_drawn_models(seed):
    model, K, _ = small_models(seed, kinds=("markov", "hmm"))
    assert_segments_equal_reference(model, K)


def test_backward_table_memory_at_mask_wide_shape():
    # n = 1000, m = 500 and 8 hypotheses: the full table is 30.5 MiB, its
    # 32 checkpoint rows 0.98 MiB
    mib = 2 ** 20
    panel = np.random.default_rng(3).integers(2, size=(500, 1000))
    model = HmmModel(panel, 0.05, 0.01)
    model.hidden_chain()  # T and the emissions belong to the model
    tracemalloc.start()
    try:
        table = sensitive_backward_table(model, (166, 500, 833))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * mib
    assert table.values.nbytes <= 1.1 * mib


def test_backward_table_empty_sensitive(rng):
    model = random_hmm(rng, 4, 3)
    table = sensitive_backward_table(model, [])
    assert np.all(table.values == 1.0)
    assert table.prior == pytest.approx([1.0])


def test_backward_table_last_position_not_sensitive(rng):
    model = random_hmm(rng, 4, 3)
    table = sensitive_backward_table(model, [1])
    rows, _ = segment_rows(table)
    assert np.all(rows[3] == 1.0)
    assert np.all(rows[2] == 1.0)  # past the last sensitive index
    assert table.plain_from == 2


def test_backward_table_matches_path_enumeration(rng):
    model = random_hmm(rng, 3, 2, eps=0.2, theta=0.1)
    table = sensitive_backward_table(model, [0])
    brute = path_probability_table(model, [0])
    assert table.values[0] == pytest.approx(brute, abs=1e-12)


def test_sensitive_conditionals_match_enumeration(rng):
    # the Markov chains read the same hidden-chain filter, the second one
    # with zero transitions and so with assignments of prior zero
    for model, K in [(random_hmm(rng, 5, 3), [1, 3]),
                     (random_markov(rng, 6, alphabet=3), [1, 3]),
                     (zero_transition_chain(5), [0, 1])]:
        cond = sensitive_conditionals(model, K)
        eng = EnumeratedMechanism(model, K)
        for pos in range(model.n):
            brute, totals = eng.predictive(eng.q, pos)
            assert cond[pos] == pytest.approx(brute, abs=1e-12, nan_ok=True)


def test_sensitive_conditionals_equal_enumeration_oracle():
    # the forward/backward table against the enumerated one, NaN rows (zero
    # prior) included, and the bound of each against its explicit twin
    zero_prior = []

    @seeded_examples(30)
    def check(seed):
        model, K, _ = small_models(seed, kinds=("markov", "hmm"))
        fast = sensitive_conditionals(model, K)
        oracle = EnumeratedMechanism(model, K).sensitive_conditionals()
        np.testing.assert_array_equal(np.isnan(fast), np.isnan(oracle))
        assert fast == pytest.approx(oracle, abs=1e-12, nan_ok=True)
        twin = ExplicitJointModel(model.joint_table()[1], model.arities)
        assert upper_bound_rate(model, K) == pytest.approx(
            upper_bound_rate(twin, K), abs=1e-12)
        zero_prior.append(np.isnan(oracle).any())

    check()
    # the draws keep the NaN branch covered
    assert any(zero_prior)


def test_predictive_uniform_when_emissions_are_noise(rng):
    model = HmmModel(rng.integers(2, size=(3, 4)), epsilon=0.3, theta=0.5)
    ses = BatchMaskingSession(model, [0], [[1]])
    ses.advance([STAR])
    for u in ((0,), (1,)):
        assert ses.predictive(u)[0] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_first_predictive_is_direct_marginalization(rng):
    model = random_hmm(rng, 4, 3, eps=0.2, theta=0.1)
    K = [2]
    ses = BatchMaskingSession(model, K, [[1]])
    engine = EnumeratedMechanism(model, K)
    for u in possible_assignments(engine):
        assert ses.predictive(u)[0] == pytest.approx(conditional(engine, 0, u),
                                                     abs=1e-10)


def _possible_assignment(model, K):
    """The first sensitive assignment of positive prior: the predictive and
    the output law do not depend on the true one."""
    prior = sensitive_backward_table(model, K).prior
    return sensitive_assignments(model.arities, K)[int(np.argmax(prior > 0))]


def _walk_all_prefixes(model, K, x_sensitive):
    """Compare the session's predictive with brute force on every reachable
    prefix; returns the worst absolute deviation."""
    eng = EnumeratedMechanism(model, K)
    ses0 = BatchMaskingSession(model, K, [x_sensitive])
    worst = 0.0

    def walk(depth, wq, ses):
        nonlocal worst
        if depth == model.n:
            return
        cond, totals = eng.predictive(wq, depth)
        for code, u in enumerate(eng.u_values):
            if totals[code] <= 0:
                continue
            got = ses.predictive(u)[0]
            worst = max(worst, float(np.max(np.abs(got - cond[code]))))
        mins, ratios = eng.release_table(cond, totals, depth)
        for y in (*range(model.arities[depth]), STAR):
            if y != STAR and mins[y] <= 0.0:
                continue
            wq2 = wq * eng.step_factor(depth, y, ratios)
            if wq2.max() <= 0.0:
                continue
            nxt = copy.deepcopy(ses)
            nxt.advance([y])
            walk(depth + 1, wq2, nxt)

    walk(0, eng.q.copy(), ses0)
    return worst


# epsilon = 0 or theta = 0 put exact zeros in the beliefs, the kernel
# normalizers and the hypothesis priors, so the session's zero inverses run
DEGENERATE = [pytest.param(4, 2, (0,), 0.0, None, id="4-2-eps0"),
              pytest.param(4, 3, (3,), None, 0.0, id="4-3-theta0"),
              pytest.param(5, 3, (1, 3), 0.0, 0.0, id="5-3-eps0-theta0")]

# Markov chains through the same session: K = {0, 1} on the zero-transition
# chain gives hypotheses of prior zero
MARKOV = [pytest.param(6, "markov", (0,), None, None, id="markov-6-K0"),
          pytest.param(6, "markov", (2, 4), None, None, id="markov-6-K24"),
          pytest.param(5, "markov-zero", (0, 1), None, None,
                       id="markov-zero-5-K01")]


@pytest.mark.parametrize("n,m,K,eps,theta", [
    pytest.param(4, 2, (0,), None, None, id="4-2-K0"),
    pytest.param(5, 3, (1, 3), None, None, id="5-3-K1"),
    pytest.param(4, 3, (3,), None, None, id="4-3-K2")] + DEGENERATE + MARKOV)
def test_session_predictive_matches_brute_force_everywhere(rng, n, m, K,
                                                           eps, theta):
    model = case_model(rng, n, m, eps, theta)
    assert _walk_all_prefixes(model, K, _possible_assignment(model, K)) <= 1e-10
    if eps == theta == 0.0:
        # an assignment of prior zero: its hypothesis is dead at every prefix
        # and the filter must hold it at zero throughout
        assert not np.all(sensitive_backward_table(model, K).prior > 0)


@seeded_examples(30)
def test_session_predictive_equals_oracle_on_drawn_models(seed):
    # the session runs the linear ordering, so the drawn one is unused
    model, K, _ = small_models(seed, kinds=("markov", "hmm"))
    assert _walk_all_prefixes(model, K, _possible_assignment(model, K)) <= 1e-10


#: A branch whose largest hypothesis mass p(u, prefix) is at or below this
#: is rounding noise (an erasure probability that should be 0, seen at
#: 1.1e-16); `hmm_session_joint` does not walk it.
ROUNDING_MASS = 1e-14


def hmm_session_joint(model, K):
    """Joint (sensitive, output) law computed purely from session updates."""
    table = sensitive_backward_table(model, K)
    num_u = table.num_u
    out = {}

    def walk(depth, ses, acc, probs):
        if depth == model.n:
            out[tuple(acc)] = probs * table.prior
            return
        _, px, mins, ratios = ses._position_tables()
        for y in (*range(model.arities[depth]), STAR):
            if y != STAR and mins[0, y] <= 0:
                continue
            if y == STAR:
                pr = 1.0 - (px[0] * ratios[0]).sum(axis=1)
            else:
                pr = px[0, :, y] * ratios[0, :, y]
            if np.max(table.prior * probs * pr) <= ROUNDING_MASS:
                continue
            nxt = copy.deepcopy(ses)
            nxt.advance([y])
            walk(depth + 1, nxt, acc + [y], probs * pr)

    x_sens = _possible_assignment(model, K)
    walk(0, BatchMaskingSession(model, K, [x_sens]), [], np.ones(num_u))
    return out


def session_law_tv(model, K):
    """Total variation between `hmm_session_joint` and the enumerated
    joint (sensitive, output) law."""
    dist = exact_output_distribution(model, K)
    session_joint = hmm_session_joint(model, K)
    zeros = np.zeros(len(dist.u_values))
    tv = sum(float(np.abs(dist.matrix[:, j] - session_joint.get(y, zeros)).sum())
             for j, y in enumerate(dist.y_values))
    seen = set(dist.y_values)
    tv += sum(float(v.sum()) for y, v in session_joint.items() if y not in seen)
    return tv / 2.0


@pytest.mark.parametrize("n,m,K,eps,theta", [
    pytest.param(4, 2, (0,), None, None, id="4-2-K0"),
    pytest.param(5, 3, (1, 3), None, None, id="5-3-K1")] + DEGENERATE + MARKOV)
def test_session_output_law_matches_enumeration(rng, n, m, K, eps, theta):
    model = case_model(rng, n, m, eps, theta)
    dist = exact_output_distribution(model, K)
    got = hmm_session_joint(model, K)
    num_u = len(dist.u_values)
    worst = 0.0
    seen = set()
    for j, y in enumerate(dist.y_values):
        vec = got.get(y, np.zeros(num_u))
        worst = max(worst, float(np.abs(dist.matrix[:, j] - vec).max()))
        seen.add(y)
    stray = sum(float(v.sum()) for y, v in got.items() if y not in seen)
    assert worst <= 1e-9 and stray <= 1e-12


@seeded_examples(30)
def test_session_output_law_equals_oracle_on_drawn_models(seed):
    model, K, _ = small_models(seed, kinds=("markov", "hmm"))
    assert session_law_tv(model, K) <= 1e-9


def _pinned_sessions():
    """(name, model, K) of the outcome pins: the plain kernel after
    position 0, the conditioned kernel over three spread positions, the two
    degenerate HMMs and a Markov chain."""
    rng = np.random.default_rng(1414)
    return [("plain", random_hmm(rng, 40, 12), (0,)),
            ("conditioned", random_hmm(rng, 40, 12), (6, 20, 33)),
            ("eps0", random_hmm(rng, 30, 8, eps=0.0), (0, 15)),
            ("theta0", random_hmm(rng, 30, 8, theta=0.0), (10,)),
            ("markov", random_markov(rng, 40, alphabet=3), (5,))]


def test_session_outcomes_are_pinned():
    # sha256 of seeded `mask_hmm_batch` outcomes, recorded before the
    # session's per-position step was rewritten and before the Monte-Carlo
    # rate moved to the minima sums: release probabilities may move by
    # rounding, outcomes may not
    got = {}
    for name, model, K in _pinned_sessions():
        rng = np.random.default_rng(7)
        got[name] = hashlib.sha256(mask_hmm_batch(
            model, model.sample_batch(64, rng), K, rng).tobytes()).hexdigest()
    assert got == {
        "plain":
            "066987311eb45188df5a8159e2677c619e0ba6e3a70cb53cab4409d543f86de6",
        "conditioned":
            "d664943a38dd9b0b14c9bb480a7210644d4c71c564ef626859a3bfe2f7cb4fba",
        "eps0":
            "d70bfed770a1a99e1930e796466ff3ead261287f13dff0db26dd5b15772324f2",
        "theta0":
            "6369dca89a1856d823dbb21c0ba7ba61b41b57a6bc40d0091bb8b08c103f998e",
        "markov":
            "5a62ae6e5b2ae888ef53083fbe0296758c3631234171849e76b6258c142c5f44",
    }


def test_session_rates_are_pinned():
    # sha256 of the repr of seeded `erasure_rate_mc` (rate, stderr), the
    # mean and stderr of the per-run minima sums, recorded when the runs
    # began drawing their outputs from the minima with no sampled x
    got = {}
    for name, model, K in _pinned_sessions():
        got[name] = hashlib.sha256(repr(erasure_rate_mc(
            model, K, 300, np.random.default_rng(7))).encode()).hexdigest()
    assert got == {
        "plain":
            "9621b48e9af1cffc2e83739484f62e3e4c23fe74b091de60c9d8d0fd7743da60",
        "conditioned":
            "1e4e93744232fc80adab74495e3c7d51305c4a4cae3542e541b8240920ba828a",
        "eps0":
            "edb9863d0f13843978197f18cc152d68f385d437885d3e7fa7a9bb61e75fc2bd",
        "theta0":
            "c2a922be6b17d71d7c5050e47aba84d0a328334d245fcf001a8d5ae09283a709",
        "markov":
            "0ca206809a7cd7f7adbe315428150c83a69dc2f48b86b409517172accd57716e",
    }


def test_mask_sequence_transcripts_are_pinned():
    # sha256 of the repr of seeded chain `mask_sequence` transcripts
    # (index, release_prob, outcome), recorded when the belief began to be
    # normalized through its outcome coefficients: release probabilities
    # moved by rounding (at most 4.5e-16 here), outcomes did not, and the
    # batch-of-one loop keeps the Python int and float types
    got = {}
    for name, model, K in _pinned_sessions():
        rng = np.random.default_rng(7)
        _, transcript = mask_sequence(model, model.sample(rng), K, rng=rng)
        got[name] = hashlib.sha256(repr(
            [(e.index, e.release_prob, e.outcome) for e in transcript]
        ).encode()).hexdigest()
    assert got == {
        "plain":
            "1cb39d2b94b7ade65280fa2e6eb3791461b7f9a320e76bf61c1edd3071c2c0d9",
        "conditioned":
            "5a204066b2dee310c9eb3dd7ba8b4eb73537a61d2315c3fa795be5d77241f46c",
        "eps0":
            "db6ae255cfa6069936b200c1b5ef670ec1866ea9d02594408bb784f71bcea5bc",
        "theta0":
            "11ee449e6d99941dfea5cdba33d59be50074f79198d8ca19319ee9d9c610a9ff",
        "markov":
            "846444d9e5998df14362799eb14167761dddb14dcb20378e70f3e02bea1295ed",
    }


def test_mask_sequence_on_a_chain_keeps_the_batch_budget(rng, monkeypatch):
    # a single chain sequence is a batch of one: a lockstep row over the
    # budget raises before the session is made
    import genomask.distributions as dist_mod

    model = random_hmm(rng, 5, 3)
    x = model.sample(rng)
    row = 8 * (2 * 2 * model.m + 4 * model.n)    # K = (1,): 2 hypotheses
    monkeypatch.setattr(dist_mod, "BELIEF_BUDGET_BYTES", row)
    masked, _ = mask_sequence(model, x, [1], rng=rng)
    assert masked.is_faithful_to(x)
    monkeypatch.setattr(dist_mod, "BELIEF_BUDGET_BYTES", row - 1)
    with pytest.raises(CapacityError):
        mask_sequence(model, x, [1], rng=rng)


def test_sensitive_positions_step_to_star(rng):
    model = random_hmm(rng, 4, 3)
    x = model.sample(rng)
    masked, transcript = mask_sequence(model, x, [0, 2], rng=rng)
    assert masked.symbols[0] == STAR and masked.symbols[2] == STAR
    assert transcript[0].release_prob == 0.0
    assert transcript[2].release_prob == 0.0
    assert masked.is_faithful_to(x)


@pytest.mark.parametrize("kind", ["hmm", "markov"])
def test_mask_sequence_masks_a_long_chain_as_the_batch_does(kind):
    # 2^n sequences are far past the enumeration budget: a chain in the
    # linear order goes through the session, with the outcomes and the
    # generator state of `mask_hmm_batch` at the same seed
    rng = np.random.default_rng(7)
    model = (random_hmm(rng, 200, 20, eps=0.05, theta=0.01) if kind == "hmm"
             else random_markov(rng, 120))
    x = model.sample(rng)
    one, batch = np.random.default_rng(4), np.random.default_rng(4)
    masked, transcript = mask_sequence(model, x, [0, 99], rng=one)
    ys = mask_hmm_batch(model, np.array([x]), [0, 99], batch)
    assert masked.symbols == tuple(ys[0].tolist())
    assert one.random() == batch.random()
    assert [e.index for e in transcript] == list(range(model.n))
    assert [e.outcome for e in transcript] == list(masked.symbols)
    assert masked.is_faithful_to(x)
    assert masked.symbols[0] == masked.symbols[99] == STAR


def test_mask_sequence_on_a_chain_rejects_a_prior_zero_assignment(rng):
    # the session refuses a sensitive value the model never emits, where
    # the enumeration used to warn and erase
    model = HmmModel(np.array([[0, 0], [0, 1]]), epsilon=0.2, theta=0.0)
    with pytest.raises(InputError, match="prior zero"):
        mask_sequence(model, (1, 0), [0], rng=rng)
    # an impossible x with a possible sensitive value warns and is masked
    x = (1, 0, 2, 1)                              # 0 -> 2 never happens
    with pytest.warns(UserWarning, match="probability zero"):
        masked, _ = mask_sequence(zero_transition_chain(4), x, [0], rng=rng)
    assert masked.is_faithful_to(x) and masked.symbols[0] == STAR


def test_single_reference_row_releases_everything(rng):
    model = HmmModel(np.array([[0, 1, 0, 1]]), epsilon=0.3, theta=0.2)
    ses = BatchMaskingSession(model, [0], [[1]])
    ses.advance([STAR])
    assert ses.release_probability([0])[0] == 1.0


def test_empty_sensitive_set_releases_all(rng):
    model = random_hmm(rng, 5, 3)
    x = model.sample(rng)
    masked, _ = mask_sequence(model, x, [], rng=rng)
    assert masked.symbols == x


def test_sensitive_size_guard(rng):
    model = random_hmm(rng, 14, 2)
    with pytest.raises(CapacityError):
        sensitive_backward_table(model, list(range(13)))
    # the cap counts hypotheses: 3^7 = 2187 fit under 2^12, and 3^8 = 6561
    # do not, though |K| = 8 is below 12
    model = random_markov(rng, 10, alphabet=3)
    assert sensitive_backward_table(model, range(7)).num_u == 3 ** 7
    with pytest.raises(CapacityError, match="6561 sensitive hypotheses"):
        sensitive_backward_table(model, range(8))


def test_prior_zero_sensitive_value_rejected():
    model = HmmModel(np.array([[0, 0], [0, 1]]), epsilon=0.2, theta=0.0)
    with pytest.raises(InputError):
        BatchMaskingSession(model, (0,), np.array([[1]]))


@pytest.mark.parametrize("m,K,match", [
    pytest.param(3, [0], "different model", id="same-m"),
    pytest.param(4, [0], "different model", id="other-m"),
    pytest.param(None, [1], "different K", id="other-K")])
def test_session_rejects_a_table_of_another_model(rng, m, K, match):
    # same n and K: a table of the same m was used silently, and one of
    # another m failed inside numpy; a table of the model itself built for
    # another K is refused too
    model = random_hmm(rng, 5, 3)
    table = sensitive_backward_table(
        model if m is None else random_hmm(rng, 5, m), K)
    with pytest.raises(InputError, match=match):
        BatchMaskingSession(model, [0], [[0]], table)
    for batch in (2, 0):
        with pytest.raises(InputError, match=match):
            mask_hmm_batch(model, model.sample_batch(batch, rng), [0], rng,
                           table)


def test_session_accepts_a_table_of_an_equal_chain(rng):
    # a Markov chain builds a new hidden chain on each call, so its table
    # is matched by value; an HMM's cached chain is matched by identity
    for model in (random_markov(rng, 5, alphabet=3), random_hmm(rng, 5, 3)):
        table = sensitive_backward_table(model, [0])
        xs = model.sample_batch(4, rng)
        given = mask_hmm_batch(model, xs, [0], np.random.default_rng(1), table)
        built = mask_hmm_batch(model, xs, [0], np.random.default_rng(1))
        assert np.array_equal(given, built)


def test_advance_rejects_symbols_outside_alphabet(rng):
    model = random_hmm(rng, 4, 3)
    for y in (2, -2):
        ses = BatchMaskingSession(model, [0], [[1]])
        ses.advance([STAR])
        with pytest.raises(InputError):
            ses.advance([y])


def test_session_refuses_a_sensitive_release_and_a_step_past_the_end(rng):
    model = random_hmm(rng, 3, 3)
    ses = BatchMaskingSession(model, [1], [[0]])
    ses.advance([STAR])
    with pytest.raises(InputError, match="must be erased"):
        ses.advance([0])
    ses.advance([STAR])                      # the refused step moved nothing
    ses.advance([STAR])
    assert ses.pos == model.n
    for call, col in (("release_probability", [0]), ("advance", [STAR])):
        with pytest.raises(InputError, match="whole sequence"):
            getattr(ses, call)(col)


@pytest.mark.parametrize("call,col", [
    pytest.param("release_probability", [0, STAR], id="release-minus-one"),
    pytest.param("release_probability", [2, 0], id="release-arity"),
    pytest.param("release_probability", [1], id="release-short"),
    pytest.param("advance", [0, -2], id="advance-minus-two"),
    pytest.param("advance", [2, STAR], id="advance-arity"),
    pytest.param("advance", [STAR], id="advance-short"),
    pytest.param("advance", [[STAR, STAR]], id="advance-2d")])
def test_session_rejects_malformed_columns(rng, call, col):
    # a column must have shape (batch,) and symbols in 0..arity-1 (outcomes
    # may also be STAR); -1 once read as the last symbol and stepped to an
    # erasure, the rest raised IndexError
    model = random_hmm(rng, 5, 3)
    ses = BatchMaskingSession(model, [0], [[0], [1]])
    ses.advance([STAR, STAR])
    with pytest.raises(InputError):
        getattr(ses, call)(col)
    # nothing moved: the session steps on as before
    assert ses.pos == 1 and ses.release_probability([0, 1]).shape == (2,)
    ses.advance([STAR, STAR])
    assert ses.pos == 2


def test_batch_rejects_malformed_sequences(rng):
    model = random_hmm(rng, 5, 3)
    xs = model.sample_batch(3, rng)
    for bad in (-2, 2):
        ys = xs.copy()
        ys[1, 2] = bad                            # a released position
        with pytest.raises(InputError):
            mask_hmm_batch(model, ys, [0], rng)
    for shape_bad in (xs[:, :4], xs[0]):
        with pytest.raises(InputError):
            mask_hmm_batch(model, shape_bad, [0], rng)


@pytest.mark.parametrize("bad", [-1, -2, 2])
def test_sessions_reject_sensitive_values_outside_alphabet(rng, bad):
    # a negative value would wrap to another hypothesis and mask for the
    # wrong true assignment
    model = random_hmm(rng, 5, 3)
    with pytest.raises(InputError):
        BatchMaskingSession(model, [0], [[bad]])
    with pytest.raises(InputError):
        BatchMaskingSession(model, [0, 2], [[0, 1], [1, bad]])


def test_belief_rows_stay_normalized(rng):
    model = random_hmm(rng, 6, 3)
    ses = BatchMaskingSession(model, [1], [[0]])
    x = model.sample(rng)
    for i in range(model.n):
        r = ses.release_probability([x[i]])
        ses.advance(np.where(rng.random(1) < r, x[i], STAR))
        live = ses.live[0]
        sums = ses.belief[0].sum(axis=1)
        assert sums[live] == pytest.approx(np.ones(live.sum()), abs=1e-9)


def test_plain_kernel_fast_path_equals_general(rng):
    model = random_hmm(rng, 5, 3)
    K = (1,)
    ses_a = BatchMaskingSession(model, K, [[1]])
    ses_b = BatchMaskingSession(model, K, [[1]])
    # force the general kernel in one session by pretending the sensitive
    # suffix never ends: its rows past K are recomputed from the table's
    # segments, products of T's row sums that equal 1 up to rounding
    object.__setattr__(ses_b.table, "plain_from", model.n)
    for y in (0, STAR, 1, STAR, 1):
        for u in ((0,), (1,)):
            assert ses_a.predictive(u) == pytest.approx(ses_b.predictive(u),
                                                        abs=1e-12)
        ses_a.advance([y])
        ses_b.advance([y])


def test_degenerate_parameters_still_mask_faithfully(rng):
    panel = rng.integers(2, size=(3, 5))
    for eps, theta in [(0.0, 0.1), (0.2, 0.0), (0.0, 0.0)]:
        model = HmmModel(panel, eps, theta)
        xs = model.sample_batch(64, rng)
        ys = mask_hmm_batch(model, xs, (0,), rng)
        assert np.all((ys == xs) | (ys == STAR))
        assert np.all(ys[:, 0] == STAR)


def test_degenerate_parameters_keep_privacy(rng):
    panel = np.array([[0, 1, 0], [1, 1, 0], [0, 0, 1]])
    model = HmmModel(panel, epsilon=0.0, theta=0.1)
    dist = exact_output_distribution(model, [0])
    assert dist.mutual_information_bits() <= 1e-10


def test_batch_rate_agrees_with_exact(rng):
    model = random_hmm(rng, 6, 3, eps=0.15, theta=0.05)
    exact = achievable_rate_exact(model, [0])
    est, err = erasure_rate_mc(model, [0], runs=4000, rng=rng)
    assert abs(est - exact) < 4 * max(err, 1e-6)


def test_output_process_rate_agrees_with_exact_on_drawn_chains():
    # the rate's runs draw each output from the stepwise minima with no
    # sampled x, through the chain session (a chain in the linear order)
    # or the enumeration walk (the same chain in an order that is not
    # linear, and an explicit model in a drawn order); the mean of the
    # per-run score is the exact rate of that order within 4 stderr, on
    # drawn HMMs (epsilon or theta 0 among them), Markov chains and explicit
    # tables.  On many short models every run scores the same, so the
    # draws must also keep enough with a spread on each path
    kinds, spread = set(), {"chain": 0, "walk": 0}

    @seeded_examples(40)
    def check(seed):
        chain, K_c, ordering = small_models(seed, kinds=("markov", "hmm"))
        kinds.add("markov" if not isinstance(chain, HmmModel) else
                  "degenerate" if 0.0 in (chain.epsilon, chain.theta)
                  else "hmm")
        if ordering.is_linear:
            ordering = Ordering(ordering.perm[::-1])
        explicit, K_x, order_x = small_models(seed, kinds=("explicit",))
        for model, K, order in ((chain, K_c, None), (chain, K_c, ordering),
                                (explicit, K_x, order_x)):
            exact = achievable_rate_exact(model, K, order)
            est, err = achievable_rate_mc(model, K, order, 400,
                                          rng=np.random.default_rng(seed))
            assert abs(est - exact) <= 4 * max(err, 1e-9), (
                model, K, order, est, exact, err)
            spread["chain" if order is None else "walk"] += err > 0

    check()
    assert kinds == {"markov", "degenerate", "hmm"}
    assert min(spread.values()) >= 10, spread


def test_a_session_from_a_batch_size_has_the_tables_of_one_with_truth(rng):
    # the output law does not depend on the true sensitive values, so a
    # session made from a batch size walks the same release tables as one
    # given the truth, bit for bit; it alone cannot name a true symbol
    model = random_hmm(rng, 6, 4, eps=0.2, theta=0.1)
    K, xs = (1, 4), model.sample_batch(3, rng)
    told = BatchMaskingSession(model, K, xs[:, list(K)])
    blind = BatchMaskingSession(model, K, 3)
    for i in range(model.n):
        a, b = told._position_tables(), blind._position_tables()
        assert all(np.array_equal(u, v) for u, v in zip(a[1:], b[1:]))
        y = np.where(told.release_probability(xs[:, i]) > 0.5, xs[:, i], STAR)
        told.advance(y)
        blind.advance(y)
    with pytest.raises(InputError, match="no true sensitive values"):
        BatchMaskingSession(model, K, 3).release_probability(xs[:, 0])
    with pytest.raises(InputError, match="batch size"):
        BatchMaskingSession(model, K, -1)


def test_a_skewed_release_ratio_trips_the_normalizer_check(monkeypatch):
    # non-sensitive ratios scaled by 1 - 1e-4 no longer give the minima as
    # output probabilities, so the belief normalizers miss them by far more
    # than NORM_TOL
    import genomask.hmm as hmm_mod

    real = hmm_mod.release_rule

    def skewed(cond, live, sensitive):
        mins, ratios = real(cond, live, sensitive)
        return mins, ratios if sensitive else ratios * (1 - 1e-4)

    model = random_hmm(np.random.default_rng(21), 8, 4, eps=0.2, theta=0.1)
    rng = np.random.default_rng(22)
    xs = model.sample_batch(16, rng)
    mask_hmm_batch(model, xs, [0], rng)
    monkeypatch.setattr(hmm_mod, "release_rule", skewed)
    with pytest.raises(NumericalError, match="normalizer"):
        mask_hmm_batch(model, xs, [0], rng)


def test_minima_rate_has_less_spread_than_the_release_indicators():
    # the rate draws its outputs from the minima and the indicators come
    # from masking sampled sequences, two independent sets of 400 runs with
    # one law of the output; at epsilon = 0.5 the minima sums cut the
    # per-run variance about 18x, so half the indicators' stderr leaves a
    # clear margin, an estimator that averaged the indicators again would
    # fail, and the two means differ by well under four indicator stderrs
    model = random_hmm(np.random.default_rng(100), 30, 10, eps=0.5, theta=0.05)
    rate, err = erasure_rate_mc(model, (0,), 400, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    ys = mask_hmm_batch(model, model.sample_batch(400, rng), (0,), rng)
    released = 1.0 - (ys == STAR).sum(axis=1) / model.n
    indicator_err = sample_stderr(released)
    assert 0.0 < err <= 0.5 * indicator_err
    assert abs(rate - released.mean()) <= 4 * indicator_err


def test_mc_batch_fits_belief_budget(rng, monkeypatch):
    # the 30 runs are one block, drawn at once; the budget only cuts the
    # block into sessions of at most 7 rows
    import genomask.distributions as dist_mod
    import genomask.hmm as hmm_mod

    model = random_hmm(rng, 5, 3, eps=0.15, theta=0.05)
    K = (0, 2)                                   # 4 hypotheses
    # a rate row: the session's two (4, m) buffers and its uniforms
    row = 8 * (2 * 4 * model.m + model.n)
    blocks, pieces = [], []
    real = hmm_mod._mask_in_lockstep

    def recording(*args):
        blocks.append(args[-1])
        return real(*args)

    class RecordingSession(BatchMaskingSession):
        def __init__(self, *args):
            super().__init__(*args)
            pieces.append(self.batch)

    monkeypatch.setattr(hmm_mod, "_mask_in_lockstep", recording)
    monkeypatch.setattr(hmm_mod, "BatchMaskingSession", RecordingSession)
    monkeypatch.setattr(dist_mod, "BELIEF_BUDGET_BYTES", 7 * row + 5)
    erasure_rate_mc(model, K, runs=30, rng=rng)
    assert blocks == [30]
    assert pieces == [7, 7, 7, 7, 2]
    assert all(b * row <= dist_mod.BELIEF_BUDGET_BYTES for b in pieces)
    monkeypatch.setattr(dist_mod, "BELIEF_BUDGET_BYTES", row - 1)
    with pytest.raises(CapacityError):
        erasure_rate_mc(model, K, runs=30, rng=rng)


def test_seeded_estimates_do_not_depend_on_the_budget(monkeypatch):
    # budgets that cut every block into 1-row and into 37-row pieces (the
    # 512- and 88-run rate blocks of 600 runs, a 40-row caller batch) give
    # the rate and the outcomes of the default budget bit for bit, and the
    # sweeps up to the rounding of smaller matrix products; each sweep also
    # holds its powers of T (omegas 1 and 3 around x_0, and 2 too around
    # x_2), and a sweep around x_2 stores a left filter for each distinct
    # lo (0 at omega 2, 1 at omega 1)
    import genomask.distributions as dist_mod

    rng = np.random.default_rng(1818)
    model = random_hmm(rng, 6, 4, eps=0.1, theta=0.05)
    K, omegas = (0, 3), [0, 1, 3, 6]
    xs = model.sample_batch(40, rng)
    mask_row = 8 * (2 * 4 * model.m + 4 * model.n)
    rate_row = 8 * (2 * 4 * model.m + model.n)
    sweep_row, sweep_powers = 3 * 8 * model.m, 2 * 8 * model.m ** 2
    interior_row, interior_powers = (3 + 2) * 8 * model.m, 3 * 8 * model.m ** 2

    def rate():
        return erasure_rate_mc(model, K, 600, np.random.default_rng(3))

    def sweep():
        return np.concatenate(window_leakage_sweep(
            model, [0], omegas, 600, np.random.default_rng(4)))

    def interior():
        return np.concatenate(window_leakage_sweep(
            model, [2], omegas + [2], 600, np.random.default_rng(6)))

    def outcomes():
        return mask_hmm_batch(model, xs, K, np.random.default_rng(5))

    want = rate(), sweep(), outcomes(), interior()
    assert want[0][1] > 0 and np.all(want[1][5:7] > 0)
    for rows in (1, 37):
        monkeypatch.setattr(dist_mod, "BELIEF_BUDGET_BYTES", rows * rate_row)
        assert rate() == want[0]
        monkeypatch.setattr(dist_mod, "BELIEF_BUDGET_BYTES", rows * mask_row)
        assert np.array_equal(outcomes(), want[2])
        monkeypatch.setattr(dist_mod, "BELIEF_BUDGET_BYTES",
                            rows * sweep_row + sweep_powers)
        assert np.abs(sweep() - want[1]).max() <= 1e-12
        monkeypatch.setattr(dist_mod, "BELIEF_BUDGET_BYTES",
                            rows * interior_row + interior_powers)
        assert np.abs(interior() - want[3]).max() <= 1e-12
    monkeypatch.setattr(dist_mod, "BELIEF_BUDGET_BYTES",
                        interior_row + interior_powers - 1)
    assert np.abs(sweep() - want[1]).max() <= 1e-12
    with pytest.raises(CapacityError):
        interior()
