import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from genomask import (
    Alphabet,
    ExplicitJointModel,
    HittingSetInstance,
    HmmModel,
    InputError,
    MarkovChainModel,
    ParityModel,
    load_model_config,
    load_panel,
    save_panel,
)
from genomask import STAR, distributions
from genomask.distributions import (
    assignment_index,
    parse_symbols,
    row_codes,
    sensitive_assignments,
    symbols_text,
)
from genomask.hmm import BatchMaskingSession
from genomask.mechanism import EnumeratedMechanism

from conftest import (
    conditional,
    emissions,
    random_explicit,
    random_hmm,
    random_markov,
    zero_transition_chain,
)
from strategies import seeded_examples, small_models


def test_alphabet_requires_two_symbols():
    with pytest.raises(InputError):
        Alphabet(1)
    assert list(Alphabet(3).symbols()) == [0, 1, 2]


def test_uniform_explicit_joint():
    m = ExplicitJointModel.uniform(2, 2)
    for x in itertools.product((0, 1), repeat=2):
        assert m.joint_prob(x) == pytest.approx(0.25)


def test_explicit_table_is_row_major_position0_most_significant():
    probs = np.arange(8) / 28.0
    m = ExplicitJointModel(probs, n=3, alphabet=2)
    assert m.joint_prob((1, 0, 1)) == pytest.approx(5 / 28.0)
    assert row_codes([(1, 1, 0)], m.arities)[0] == 6
    assert np.array_equal(m.joint_table()[1], probs)


def test_explicit_validation():
    with pytest.raises(InputError):
        ExplicitJointModel([0.5, 0.6], n=1, alphabet=2)
    with pytest.raises(InputError):
        ExplicitJointModel([-0.1, 1.1], n=1, alphabet=2)
    with pytest.raises(InputError):
        ExplicitJointModel([0.25] * 4, n=3, alphabet=2)
    # NaN compares False with everything, so a sum check alone lets it in
    for bad in ([np.nan, 0.25, 0.25, 0.5], [np.inf, 0.25, 0.25, 0.5]):
        with pytest.raises(InputError):
            ExplicitJointModel(bad, n=2, alphabet=2)


def test_markov_chain_hand_product(rng):
    m = MarkovChainModel.binary_symmetric(0.9, 3)
    assert m.joint_prob((0, 0, 0)) == pytest.approx(0.5 * 0.9 * 0.9)
    _, probs = m.joint_table()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # the batched law multiplies left to right, as the scalar product does
    chain = random_markov(rng, 5, alphabet=3)
    space, probs = chain.joint_table()
    for x, p in zip(space, probs):
        ref = chain.initial[x[0]]
        for a, b in zip(x, x[1:]):
            ref *= chain.transition[a, b]
        assert p == ref


def test_markov_validation():
    with pytest.raises(InputError):
        MarkovChainModel([0.7, 0.2], [[0.5, 0.5], [0.5, 0.5]], 3)
    with pytest.raises(InputError):
        MarkovChainModel([0.5, 0.5], [[0.9, 0.2], [0.5, 0.5]], 3)
    with pytest.raises(InputError):
        MarkovChainModel([np.nan, np.nan], [[0.5, 0.5], [0.5, 0.5]], 3)
    with pytest.raises(InputError):
        MarkovChainModel([0.5, 0.5], [[np.nan, 0.5], [0.5, 0.5]], 3)


def test_hmm_deterministic_copy():
    panel = np.array([[0, 1, 1, 0]])
    m = HmmModel(panel, epsilon=0.0, theta=0.0)
    assert m.joint_prob((0, 1, 1, 0)) == pytest.approx(1.0)
    assert m.joint_prob((1, 1, 1, 0)) == 0.0
    assert m.sample(np.random.default_rng(0)) == (0, 1, 1, 0)


def test_hmm_parameter_validation():
    panel = np.array([[0, 1]])
    with pytest.raises(InputError):
        HmmModel(panel, epsilon=1.5, theta=0.0)
    with pytest.raises(InputError):
        HmmModel(panel, epsilon=0.1, theta=-0.2)
    with pytest.raises(InputError):
        HmmModel(np.array([[0, 2]]), epsilon=0.1, theta=0.1, alphabet=2)


@pytest.mark.parametrize("m", [1, 4])
def test_hmm_hidden_chain_is_cached_closed_form_and_locked(rng, m):
    eps, theta, size = 0.2, 0.06, 3
    model = HmmModel(rng.integers(size, size=(m, 5)), eps, theta, size)
    chain = model.hidden_chain()
    assert model.hidden_chain() is chain
    # stay 1 - eps and switch eps / (m - 1); one row always stays
    if m == 1:
        trans = np.ones((1, 1))
    else:
        trans = np.full((m, m), eps / (m - 1))
        np.fill_diagonal(trans, 1.0 - eps)
    assert np.array_equal(chain.trans, trans)
    assert np.array_equal(chain.initial, np.full(m, 1.0 / m))
    emis = emissions(chain)
    assert emis.shape == (5, size, m)
    for i in range(5):
        for s in range(m):
            for v in range(size):
                copied = v == model.panel[s, i]
                want = 1.0 - theta if copied else theta / (size - 1)
                assert emis[i, v, s] == want
    for array in (chain.initial, chain.trans, chain.law, chain.classes):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0.5


def test_hmm_hidden_chain_holds_no_emission_stack(rng):
    # the chain keeps a (size, size) law and a view of the panel, so its
    # build traces T (1.91 MiB at m = 500) and little more; the dense
    # (n, size, m) stack it used to hold traced 9.67 MiB at this shape
    model = HmmModel(rng.integers(2, size=(500, 1000)), 0.05, 0.01)
    tracemalloc.start()
    try:
        chain = model.hidden_chain()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak
    assert np.shares_memory(chain.classes, model.panel)
    # each position's law in closed form, on a 3-symbol panel
    theta, size = 0.07, 3
    model = HmmModel(rng.integers(size, size=(4, 9)), 0.2, theta, size)
    chain = model.hidden_chain()
    for i in range(model.n):
        copied = np.arange(size)[:, None] == model.panel[:, i]
        want = np.where(copied, 1.0 - theta, theta / (size - 1))
        assert np.array_equal(chain.emission(i), want)


def test_markov_hidden_chain_emits_the_state(rng):
    chain_model = random_markov(rng, 4, alphabet=3)
    chain = chain_model.hidden_chain()
    assert chain.initial is chain_model.initial
    assert chain.trans is chain_model.transition
    assert np.array_equal(emissions(chain), np.broadcast_to(np.eye(3), (4, 3, 3)))
    space, probs = chain_model.joint_table()
    np.testing.assert_allclose(np.exp(chain.log_probs(space)), probs,
                               rtol=1e-13, atol=0)
    assert ExplicitJointModel.uniform(2).hidden_chain() is None


def _hmm_joint_by_path_enumeration(model, x):
    total = 0.0
    chain = model.hidden_chain()
    t, emis = chain.trans, emissions(chain)
    for path in itertools.product(range(chain.m), repeat=model.n):
        p = chain.initial[path[0]]
        for i in range(1, model.n):
            p *= t[path[i - 1], path[i]]
        for i, s in enumerate(path):
            p *= emis[i][x[i], s]
        total += p
    return total


@pytest.mark.parametrize("n,m,alphabet,eps,theta", [
    pytest.param(3, 2, 2, None, None, id="3-2-2"),
    pytest.param(5, 4, 2, None, None, id="5-4-2"),
    pytest.param(4, 3, 3, None, None, id="4-3-3"),
    pytest.param(4, 3, 2, 0.3, 0.0, id="4-3-2-theta0"),
    pytest.param(4, 3, 3, 0.0, 0.1, id="4-3-3-eps0"),
    pytest.param(5, 3, 2, 0.0, 0.0, id="5-3-2-eps0-theta0"),
])
def test_hmm_forward_matches_path_enumeration(rng, n, m, alphabet, eps, theta):
    model = random_hmm(rng, n, m, alphabet, eps, theta)
    space, probs = model.joint_table()
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    exact = np.array([_hmm_joint_by_path_enumeration(model, row)
                      for row in space])
    # impossible rows are exactly 0 (a forward pass dividing 0 by 0 gives
    # NaN), every other row matches to 1e-12 relative
    assert np.array_equal(probs == 0.0, exact == 0.0)
    if eps == theta == 0.0:  # at most m of the 2^n rows are possible
        assert (exact == 0.0).sum() >= 2 ** n - m
    possible = exact > 0
    np.testing.assert_allclose(probs[possible], exact[possible], rtol=1e-12,
                               atol=0)


def test_hmm_forward_pass_runs_in_budget_sized_blocks(monkeypatch, rng):
    model = random_hmm(rng, 8, 200, eps=0.1, theta=0.05)
    _, whole = model.joint_table()       # one block, and builds the chain
    m, rows = model.hidden_chain().m, 2 ** 8
    # the pass holds four (block, m) float64 arrays at once
    budget = 4 * 8 * m * 100
    block = budget // (4 * 8 * m)
    assert -(-rows // block) >= 3
    monkeypatch.setattr(distributions, "BELIEF_BUDGET_BYTES", budget)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, split = model.joint_table()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(split, whole, rtol=1e-15, atol=0)
    assert peak <= budget + 8 * m * block, peak
    # the whole pass at once would not have fit
    assert 4 * 8 * m * rows > budget + 8 * m * block


@pytest.mark.parametrize("factory", [random_explicit, random_markov])
def test_joint_tables_normalize(rng, factory):
    model = factory(rng, 5)
    _, probs = model.joint_table()
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_markov_stay_one_gives_constant_sequences(rng):
    m = MarkovChainModel.binary_symmetric(1.0, 5)
    for _ in range(20):
        x = m.sample(rng)
        assert len(set(x)) == 1


def test_sampling_matches_table_chi_square():
    m = ExplicitJointModel([0.1, 0.25, 0.35, 0.3], n=2, alphabet=2)
    rng = np.random.default_rng(7)
    draws = 1_000_000
    xs = m.sample_batch(draws, rng)
    codes = xs @ np.array([2, 1])
    counts = np.bincount(codes, minlength=4)
    for x in range(4):  # binomial 3-sigma band per cell
        sd = np.sqrt(draws * m.probs[x] * (1 - m.probs[x]))
        assert abs(counts[x] - draws * m.probs[x]) < 3 * sd
    _, pval = stats.chisquare(counts, draws * m.probs)
    assert pval > 0.001


def test_hmm_sample_batch_matches_joint(rng):
    model = random_hmm(rng, 4, 3)
    space, probs = model.joint_table()
    draws = 200_000
    xs = model.sample_batch(draws, rng)
    codes = xs @ np.array([8, 4, 2, 1])
    counts = np.bincount(codes, minlength=16)
    _, pval = stats.chisquare(counts, probs * draws)
    assert pval > 0.001


def test_panel_roundtrip(tmp_path):
    panel = np.array([[0, 1, 1], [1, 0, 2]])
    path = tmp_path / "panel.txt"
    save_panel(panel, path)
    assert np.array_equal(load_panel(path), panel)


def test_panel_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("010\n01\n")
    with pytest.raises(InputError):
        load_panel(bad)
    bad.write_text("01a\n")
    with pytest.raises(InputError):
        load_panel(bad)
    # an erasure is a symbol of the text form, but not of a panel
    bad.write_text("01\n\n0*\n")
    with pytest.raises(InputError, match=r"bad\.txt:3: "):
        load_panel(bad)


def test_symbol_text_round_trips_with_erasures():
    for row in [(0, STAR, 9), (STAR,), (STAR, STAR, 1, 0), ()]:
        assert parse_symbols(symbols_text(row), "row") == row
    assert symbols_text(np.array([3, STAR, 0])) == "3*0"
    # any script's decimal digit reads as its value; the writer is ASCII
    assert parse_symbols(" ٣*1\n", "row") == (3, STAR, 1)
    for text in ["1²0", "①", "1 0", "1a"]:
        with pytest.raises(InputError, match="^row: "):
            parse_symbols(text, "row")
    for row in [(10,), (0, -2)]:
        with pytest.raises(InputError):
            symbols_text(row)


@pytest.mark.parametrize("entry", [10, -1])
def test_save_panel_rejects_symbols_without_a_panel_digit(tmp_path, entry):
    # 10 would write "101", which reads back as three symbols; -1 as "*"
    path = tmp_path / "panel.txt"
    with pytest.raises(InputError):
        save_panel(np.array([[entry, 1], [0, 3]]), path)
    assert not path.exists()


def test_model_config_loading(tmp_path):
    panel = tmp_path / "p.txt"
    panel.write_text("0101\n1010\n")
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"epsilon": 0.1, "theta": 0.05,
                               "panel_path": "p.txt"}))
    model = load_model_config(cfg)
    assert isinstance(model, HmmModel) and model.n == 4 and model.m == 2

    markov = load_model_config({"type": "markov", "n": 3,
                                "initial": [0.5, 0.5],
                                "transition": [[0.9, 0.1], [0.1, 0.9]]})
    assert isinstance(markov, MarkovChainModel)

    explicit = load_model_config({"type": "explicit", "n": 2,
                                  "probs": [0.25] * 4})
    assert isinstance(explicit, ExplicitJointModel)

    with pytest.raises(InputError):
        load_model_config({"type": "mystery"})


def test_truncated_hmm(rng):
    model = random_hmm(rng, 8, 3)
    short = model.truncated(3)
    assert short.n == 3 and short.m == model.m
    assert np.array_equal(short.panel, model.panel[:, :3])


def test_sampler_streams_are_pinned():
    """Seeded draws as recorded before the samplers were batched: the
    Markov chain's inverse-CDF sampler reads one double per position, row
    by row, as per-position `rng.choice` calls did."""
    chain = MarkovChainModel([0.2, 0.5, 0.3], [[0.6, 0.3, 0.1],
                                               [0.2, 0.2, 0.6],
                                               [0.5, 0.25, 0.25]], 6)
    parity = ParityModel(HittingSetInstance.from_lists(3, [[1, 2], [2, 3]]))
    recorded = {
        chain: [[1, 1, 0, 0, 1, 2], [1, 2, 1, 2, 2, 0], [2, 0, 1, 0, 1, 2],
                [1, 2, 0, 0, 1, 2], [1, 1, 2, 2, 1, 2]],
        parity: [[1, 3, 0, 0, 1], [0, 0, 0, 0, 0], [0, 3, 1, 1, 0],
                 [1, 3, 1, 0, 0], [1, 3, 1, 0, 0]],
    }
    for model, rows in recorded.items():
        xs = model.sample_batch(5, np.random.default_rng(0))
        assert xs.dtype == np.int64 and xs.tolist() == rows
        assert model.sample(np.random.default_rng(0)) == tuple(rows[0])


@pytest.mark.parametrize("u", [(-1,), (2,)])
def test_out_of_range_assignments_raise_input_error(u):
    # -1 used to wrap to the assignment (1,), 2 raised a bare IndexError
    chain = MarkovChainModel.binary_symmetric(0.8, 3)
    with pytest.raises(InputError):
        conditional(EnumeratedMechanism(chain, [0]), 1, u)
    session = BatchMaskingSession(
        HmmModel(np.array([[0, 1, 1], [1, 0, 1]]), 0.1, 0.05), [0], [[0]])
    with pytest.raises(InputError):
        session.predictive(u)


def test_assignment_indexing():
    arities = (2, 3, 2)
    us = sensitive_assignments(arities, [2, 1])
    assert us == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    for i, u in enumerate(us):
        assert assignment_index(u, arities, [1, 2]) == i


@seeded_examples(40)
def test_chain_methods_equal_the_dense_fields_bitwise(seed):
    # the oracle a structured kernel is held to: forward, backward and
    # emission against the fields they read, with and without out=, on
    # the 1-, 2- and 3-D beliefs the filters pass
    model, _, _ = small_models(seed, kinds=("markov", "hmm"))
    chain = model.hidden_chain()
    emis = emissions(chain)
    assert chain.n == model.n == emis.shape[0]
    rng = np.random.default_rng(seed)
    for shape in ((chain.m,), (3, chain.m), (2, 3, chain.m)):
        b = rng.random(shape)
        for method, dense in ((chain.forward, b @ chain.trans),
                              (chain.backward, b @ chain.trans.T)):
            assert np.array_equal(method(b), dense)
            out = np.empty_like(b)
            assert method(b, out=out) is out
            assert np.array_equal(out, dense)
    for i in range(chain.n):
        assert np.array_equal(chain.emission(i), emis[i])


def test_log_probs_are_pinned():
    # sha256 of `HiddenChain.log_probs` bytes, whose HMM joint tables the
    # exact audits read: whole spaces of short HMMs (epsilon or theta 0 in
    # some, so -inf rows too) and of a chain with impossible steps, and
    # drawn rows of long HMMs and a long Markov chain
    digest = hashlib.sha256()
    for seed in range(12):
        rng = np.random.default_rng([seed, 33])
        eps, theta = [(None, None), (0.0, None), (None, 0.0),
                      (0.0, 0.0)][seed % 4]
        short = random_hmm(rng, 6, 3, 2 + seed % 2, eps, theta)
        long = random_hmm(rng, 80, 10, 2, eps, theta)
        for model, xs in ((short, short.enumerate_space()),
                          (long, long.sample_batch(40, rng))):
            digest.update(model.hidden_chain().log_probs(xs).tobytes())
    chain = zero_transition_chain(6)
    markov = random_markov(np.random.default_rng(33), 120, alphabet=3)
    drawn = markov.sample_batch(40, np.random.default_rng(3))
    for model, xs in ((chain, chain.enumerate_space()), (markov, drawn)):
        digest.update(model.hidden_chain().log_probs(xs).tobytes())
    assert digest.hexdigest() == (
        "746076ce7033ae5e38b146cd97a879ae46d8696149794951102d34b3f09e8f4b")
