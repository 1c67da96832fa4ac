import itertools
import json

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
    conditional_query,
    load_model_config,
    load_panel,
    save_panel,
)
from genomask.distributions import assignment_index, sensitive_assignments
from genomask.hmm import BatchMaskingSession

from conftest import random_explicit, random_hmm, random_markov


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
    assert m.index_of((1, 1, 0)) == 6
    assert np.array_equal(m.joint_table()[1], probs)


def test_explicit_validation():
    with pytest.raises(InputError):
        ExplicitJointModel([0.5, 0.6], n=1, alphabet=2)
    with pytest.raises(InputError):
        ExplicitJointModel([-0.1, 1.1], n=1, alphabet=2)
    with pytest.raises(InputError):
        ExplicitJointModel([0.25] * 4, n=3, alphabet=2)


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


def _hmm_joint_by_path_enumeration(model, x):
    total = 0.0
    t = model.transition_matrix
    emis = [model.emission_likelihoods(i) for i in range(model.n)]
    for path in itertools.product(range(model.m), repeat=model.n):
        p = 1.0 / model.m
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
        conditional_query(chain, 1, u, [0])
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
