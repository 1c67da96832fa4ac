import numpy as np
import pytest

from genomask import (
    CapacityError,
    DegenerateSensitiveError,
    ExplicitJointModel,
    HmmModel,
    InputError,
    MarkovChainModel,
    MismatchPair,
    STAR,
    SequenceModel,
    robustness_experiment,
    sequence_kl,
    window_erased,
    window_leakage_exact,
    window_leakage_sweep,
    window_mask,
)
from genomask.mechanism import EnumeratedMechanism

from conftest import random_hmm, random_markov
from strategies import seeded_examples, small_models


def test_window_mask_examples():
    assert window_mask((0, 1, 0, 1, 1), [0], 0).text() == "01011"
    assert window_mask((0, 1, 0), [0], 3).text() == "***"
    assert window_mask((0, 1, 0, 1, 1), [0], 3).text() == "***11"


def test_window_mask_radius_mode():
    # the old radius r is omega = r + 1: radius 1 around position 2
    assert window_mask((0, 1, 0, 1, 1), [2], 2).text() == "0***1"
    assert window_mask((0, 1, 0, 1, 1), [2], 1).text() == "01*11"
    assert window_mask((0, 1, 0, 1, 1), [0, 4], 2).text() == "**0**"


def test_window_erased_checks_omega_and_k():
    assert window_erased(5, [0], 0) == []
    assert window_erased(5, [2], 5) == [0, 1, 2, 3, 4]
    for K, omega in (([0], -1), ([0], 6), ([5], 1), ([-1], 1)):
        with pytest.raises(InputError):
            window_erased(5, K, omega)


def test_window_mask_is_faithful(rng):
    x = tuple(int(v) for v in rng.integers(2, size=6))
    masked = window_mask(x, [0], 4)
    assert masked.is_faithful_to(x)


def test_full_window_has_zero_leakage(rng):
    model = random_markov(rng, 5)
    assert window_leakage_exact(model, [0], 5) == pytest.approx(0.0, abs=1e-10)


def test_independent_model_needs_only_its_own_position():
    m = ExplicitJointModel.uniform(4, 2)
    assert window_leakage_exact(m, [0], 1) == pytest.approx(0.0, abs=1e-10)
    assert window_leakage_exact(m, [0], 0) == pytest.approx(1.0)


def test_markov_leakage_decreases_with_window():
    mc = MarkovChainModel.binary_symmetric(0.9, 6)
    vals = [window_leakage_exact(mc, [0], w) for w in range(7)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(1.0)


def test_degenerate_sensitive_raises():
    m = ExplicitJointModel([0.5, 0.0, 0.5, 0.0], n=2, alphabet=2)
    with pytest.raises(DegenerateSensitiveError):
        window_leakage_exact(m, [1], 1)


def test_constant_sensitive_symbol_raises_at_every_window():
    # x_0 = 1 on every panel row and theta = 0: the sensitive symbol is
    # constant, though the entropy of its summed marginal can round to ~1e-16
    model = HmmModel([[1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1]], 0.3, 0.0)
    for omega in range(5):
        with pytest.raises(DegenerateSensitiveError):
            window_leakage_exact(model, [0], omega)
    # the estimator's prior over five panel rows sums to 1 within round-off
    panel = np.ones((5, 6), dtype=np.int64)
    panel[:, 1:] = np.random.default_rng(5).integers(2, size=(5, 5))
    with pytest.raises(DegenerateSensitiveError):
        window_leakage_sweep(HmmModel(panel, 0.3, 0.0), [0], [0, 2], 50,
                             np.random.default_rng(1))


def test_estimator_matches_exact(rng):
    model = random_hmm(rng, 8, 4, eps=0.15, theta=0.05)
    for w in (1, 3, 6):
        exact = window_leakage_exact(model, [0], w)
        est, err = window_leakage_sweep(model, [0], [w], 4000,
                                        np.random.default_rng(5))
        assert abs(est[0] - exact) <= 4 * max(err[0], 1e-4)


@seeded_examples(60)
def test_window_sweep_matches_exact_on_drawn_chains(seed):
    # every omega of a drawn Markov chain or HMM, zero structure included;
    # a one-sided prior on x_0 leaves nothing to normalize by
    model, _, _ = small_models(seed, kinds=("markov", "hmm"))
    omegas = list(range(model.n + 1))
    rng = np.random.default_rng([seed, 3])
    if np.count_nonzero(EnumeratedMechanism(model, [0]).q_prior) < 2:
        with pytest.raises(DegenerateSensitiveError):
            window_leakage_exact(model, [0], 0)
        with pytest.raises(DegenerateSensitiveError):
            window_leakage_sweep(model, [0], omegas, 10, rng)
        return
    est, err = window_leakage_sweep(model, [0], omegas, 2000, rng)
    for w, e, s in zip(omegas, est, err):
        assert abs(e - window_leakage_exact(model, [0], w)) <= 4 * max(s, 1e-4)


@seeded_examples(40)
def test_window_sweep_around_any_position_matches_exact(seed):
    # a window around a drawn k releases both sides of it: a forward filter
    # over the left part meets the backward pass over the right one
    model, _, _ = small_models(seed, kinds=("markov", "hmm"))
    k = int(np.random.default_rng([seed, 26]).integers(model.n))
    omegas = list(range(model.n + 1))
    rng = np.random.default_rng([seed, 5])
    try:
        exact = [window_leakage_exact(model, [k], w) for w in omegas]
    except DegenerateSensitiveError:
        with pytest.raises(DegenerateSensitiveError):
            window_leakage_sweep(model, [k], omegas, 10, rng)
        return
    est, err = window_leakage_sweep(model, [k], omegas, 2000, rng)
    assert est[0] == 1.0 and err[0] == 0.0       # omega = 0 releases x_k
    for e, s, x in zip(est, err, exact):
        assert abs(e - x) <= 4 * max(s, 1e-4), (k, e, s, x)


def test_pure_noise_emissions_leak_nothing(rng):
    model = HmmModel(rng.integers(2, size=(4, 6)), epsilon=0.2, theta=0.5)
    est, err = window_leakage_sweep(model, [0], [1, 3], 3000, rng)
    assert np.all(np.abs(est) <= 4 * np.maximum(err, 1e-4))


def test_sweep_batch_fits_belief_budget(rng, monkeypatch):
    # 1100 samples are drawn in `_monte_carlo`'s blocks of 512; the 30
    # samples are one block, drawn at once; the budget holds the powers T^2
    # and T^4 and only cuts the block into pieces of at most 7 rows
    import genomask.distributions as dist_mod

    model = random_hmm(rng, 6, 3, eps=0.15, theta=0.05)
    row = 8 * model.m * 3                  # three working m-vectors
    powers = 2 * 8 * model.m ** 2
    sizes, pieces = [], []
    real, real_pieces = model.sample_batch, dist_mod.budget_pieces

    def recording(count, rng_):
        sizes.append(count)
        return real(count, rng_)

    def recording_pieces(count, row_bytes, _held=0):
        cut = real_pieces(count, row_bytes, _held)
        pieces.extend((p.stop - p.start) * row_bytes for p in cut)
        return cut

    monkeypatch.setattr(model, "sample_batch", recording)
    window_leakage_sweep(model, [0], [2], 1100, rng)
    assert sizes == [512, 512, 76]
    sizes.clear()
    monkeypatch.setattr(dist_mod, "budget_pieces", recording_pieces)
    monkeypatch.setattr(dist_mod, "BELIEF_BUDGET_BYTES", 7 * row + 5 + powers)
    window_leakage_sweep(model, [0], [0, 2, 4, 2], 30, rng)
    assert sizes == [30]
    assert pieces == [7 * row] * 4 + [2 * row]
    monkeypatch.setattr(dist_mod, "BELIEF_BUDGET_BYTES", row + powers - 1)
    with pytest.raises(CapacityError):
        window_leakage_sweep(model, [0], [0, 2, 4], 30, rng)


def test_repeated_omega_is_estimated_once():
    # a repeated omega used to append its values once per repeat, which
    # shrank its standard error by sqrt(2)
    model = random_hmm(np.random.default_rng(1), 12, 6, eps=0.1, theta=0.05)
    alone = window_leakage_sweep(model, [0], [2], 800,
                                 np.random.default_rng(1))
    est, err = window_leakage_sweep(model, [0], [2, 5, 2], 800,
                                    np.random.default_rng(1))
    assert err[0] > 0
    for i in (0, 2):
        assert (est[i], err[i]) == (alone[0][0], alone[1][0])


def test_kl_mc_is_infinite_when_q_misses_a_drawn_row():
    # q never switches symbols, so any p-row that switches has
    # q-probability 0
    p = MarkovChainModel.binary_symmetric(0.8, 4)
    q = MarkovChainModel([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], 4)
    assert sequence_kl(p, q) == float("inf")


def test_markov_sweep_and_kl_mc_match_exact(rng):
    p = random_markov(rng, 7)
    omegas = [0, 1, 3, 6]
    est, err = window_leakage_sweep(p, [0], omegas, 4000,
                                    np.random.default_rng(11))
    for w, e, s in zip(omegas, est, err):
        assert abs(e - window_leakage_exact(p, [0], w)) <= 4 * max(s, 1e-4)


def test_sweep_rejects_empty_omegas(rng):
    with pytest.raises(InputError):
        window_leakage_sweep(random_hmm(rng, 6, 3), [0], [], 10, rng)


def test_sweep_rejects_zero_samples(rng):
    with pytest.raises(InputError):
        window_leakage_sweep(random_hmm(rng, 6, 3), [0], [1, 2], 0, rng)


def test_sweep_and_kl_mc_need_a_hidden_chain(rng):
    with pytest.raises(InputError):
        window_leakage_sweep(ExplicitJointModel.uniform(4), [0], [1], 10, rng)


def test_sequence_kl_rejects_models_of_different_arities():
    # (2, 3) and (3, 2) tables have the same size: read side by side, two
    # uniform tables used to give a divergence of 0
    uniform = np.full(6, 1 / 6)
    a = ExplicitJointModel(uniform, arities=(2, 3))
    b = ExplicitJointModel(uniform, arities=(3, 2))
    for p, q in ((a, b), (b, a)):
        with pytest.raises(InputError):
            sequence_kl(p, q)


def test_window_leakage_exact_enumerates_the_space_once(rng, monkeypatch):
    calls = []
    enumerate_space = SequenceModel.enumerate_space

    def counted(model):
        calls.append(model)
        return enumerate_space(model)

    monkeypatch.setattr(SequenceModel, "enumerate_space", counted)
    for model in (random_hmm(rng, 5, 3), random_markov(rng, 4),
                  ExplicitJointModel.uniform(3)):
        for omega in (0, 2):
            calls.clear()
            window_leakage_exact(model, [0], omega)
            assert calls == [model]


def test_sweep_takes_one_sensitive_position(rng):
    # the sampled estimator joins one filter and one backward pass at a
    # single x_k; two sensitive positions stay exact-only (--runs 0)
    model = random_hmm(rng, 6, 3)
    with pytest.raises(InputError, match="one sensitive position"):
        window_leakage_sweep(model, [1, 4], [2], 100, rng)
    window_leakage_sweep(model, [4, 4], [2], 10, rng)   # one position, twice


def test_matched_models_leak_nothing():
    mc = MarkovChainModel.binary_symmetric(0.9, 4)
    res = robustness_experiment(MismatchPair(mc, mc), [0])
    assert res.leakage_bits == pytest.approx(0.0, abs=1e-10)
    assert res.kl_bound_bits == pytest.approx(0.0, abs=1e-12)


def test_mismatch_leakage_below_divergence():
    pair = MismatchPair(MarkovChainModel.binary_symmetric(0.9, 4),
                        MarkovChainModel.binary_symmetric(0.8, 4))
    res = robustness_experiment(pair, [0])
    assert 0.0 < res.leakage_bits < res.kl_bound_bits


def test_mismatch_grid(rng):
    for _ in range(15):
        stay_p = float(rng.uniform(0.55, 0.95))
        stay_q = float(np.clip(stay_p + rng.uniform(-0.2, 0.2), 0.05, 0.95))
        pair = MismatchPair(MarkovChainModel.binary_symmetric(stay_p, 4),
                            MarkovChainModel.binary_symmetric(stay_q, 4))
        res = robustness_experiment(pair, [0])
        assert res.leakage_bits <= res.kl_bound_bits + 1e-9


def test_mismatched_support_gives_infinite_bound(rng):
    p = ExplicitJointModel([0.5, 0.25, 0.25, 0.0], n=2, alphabet=2)
    q = ExplicitJointModel([0.0, 0.5, 0.25, 0.25], n=2, alphabet=2)
    res = robustness_experiment(MismatchPair(p, q), [0])
    assert res.kl_bound_bits == float("inf")


def test_q_built_mechanism_private_under_q():
    from genomask import exact_output_distribution

    q = MarkovChainModel.binary_symmetric(0.8, 4)
    dist = exact_output_distribution(q, [0])
    assert dist.mutual_information_bits() <= 1e-10
