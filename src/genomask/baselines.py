"""Deterministic window-erasure baseline and model-mismatch robustness.

The baseline erases a window of size omega, every position within omega - 1
of a sensitive position, and releases the rest; its leakage is I(sensitive;
released coordinates) / H(sensitive).  Exact values come from enumeration,
for any K.  At realistic lengths the leakage of one sensitive position k is
estimated from samples whose posteriors of x_k are exact: a scaled forward
filter over the released part left of the window and a scaled backward pass
over the part right of it, joined through the model's hidden chain.

The robustness experiment builds the mechanism from a wrong distribution q
and measures the exact leakage it incurs when inputs really follow p; the
divergence D(p || q) over whole sequences bounds that leakage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distributions
from . import hmm as _hmm
from .distributions import SequenceModel
from .errors import DegenerateSensitiveError, InputError, NumericalError
from .info import entropy, kl_divergence
from .masking import STAR, MaskedSequence, Ordering, _validate_sensitive
from .mechanism import OutputDistribution, exact_output_distribution


def window_erased(n: int, K, omega: int) -> list[int]:
    """Sorted positions a window of size omega erases: those within
    omega - 1 of a sensitive position, none at omega = 0.  Around one k it
    releases 0..k-omega and k+omega..n-1, clipped to the sequence."""
    K = _validate_sensitive(K, n)
    if not 0 <= omega <= n:
        raise InputError(f"omega {omega} outside 0..{n}")
    return sorted({i for k in K
                   for i in range(max(0, k - omega + 1), min(n, k + omega))})


def window_mask(x, K, omega: int) -> MaskedSequence:
    """Deterministically erase the window of size omega around K."""
    x = [int(v) for v in x]
    for i in window_erased(len(x), K, omega):
        x[i] = STAR
    return MaskedSequence(tuple(x))


def window_leakage_exact(model: SequenceModel, K, omega: int) -> float:
    """I(sensitive; released coordinates) / H(sensitive), by enumeration."""
    erased = window_erased(model.n, K, omega)
    xs = model.enumerate_space()
    ys = xs.copy()
    ys[:, erased] = STAR
    dist = OutputDistribution.from_mechanism(model, K, xs, ys,
                                             np.ones(xs.shape[0]))
    prior = dist.sensitive_marginal()
    if np.count_nonzero(prior) < 2:
        raise DegenerateSensitiveError("sensitive symbols carry no entropy")
    return dist.mutual_information_bits() / entropy(prior)


def window_leakage_sweep(model: SequenceModel, K, omegas, samples: int,
                         rng: np.random.Generator):
    """Normalized leakage of the window baseline around one sensitive
    position k for several omegas, on a model with a hidden chain (an HMM
    or a Markov chain): (estimates, standard errors) aligned with omegas.

    The window of omega releases 0..lo and hi..n-1 (`window_erased`); the
    two-slice identity (Rabiner 1989) scores x_k = v as sum_s left[r, s]
    e_k(v, s) right[r, s], left the `HiddenChain.filtered` row at lo times
    T^omega (initial . T^k if lo < 0), right the scaled backward row at hi
    times (T^omega)^T (ones if hi = n); each T^omega is made once through
    `HiddenChain.forward`.  Samples are drawn by `sample_batch` in
    `hmm._monte_carlo`'s blocks and scored one column per omega; the budget
    holds the powers beside rows of 3 m-vectors and 1 per distinct lo >= 0.
    """
    chain = _hmm.require_chain(model, "the sampled window estimator "
                               "(--runs 0 is exact for any model)")
    K = _validate_sensitive(K, model.n)
    if len(K) != 1:
        raise InputError("the sampled window estimator takes one sensitive "
                         "position (--runs 0 is exact for any K)")
    omegas = [int(w) for w in omegas]
    if not omegas:
        raise InputError("need a non-empty list of omegas")
    (k,), emit_k, n = K, chain.emission(K[0]), model.n
    # omega -> (lo, hi); omega = 0 erases nothing, so x_k is released
    cuts = {w: (erased[0] - 1, erased[-1] + 1) for w in omegas
            if (erased := window_erased(n, K, w))}
    lows = {lo for lo, _ in cuts.values() if lo >= 0}
    cols = {w: [j for j, v in enumerate(omegas) if v == w] for w in cuts}
    steps = {w for w, (lo, hi) in cuts.items() if lo >= 0 or hi < n}
    at_k = chain.initial                                     # p(S_k)
    for _ in range(k):
        at_k = chain.forward(at_k)
    prior = emit_k @ at_k
    if np.count_nonzero(prior) < 2:
        raise DegenerateSensitiveError("sensitive symbol carries no entropy")
    h_k = entropy(prior)
    row, held = 8 * chain.m * (3 + len(lows)), 8 * chain.m ** 2 * len(steps)
    distributions.budget_pieces(0, row, held)   # raises before any work
    powers, power = {}, np.eye(chain.m)
    for j in range(1, max(steps, default=0) + 1):
        power = chain.forward(power)
        if j in steps:
            powers[j] = power

    def score(count):
        # neglog[r, j] = -log2 p(x_k = truth | sample r's released positions
        # under omegas[j])
        xs = model.sample_batch(count, rng)
        neglog = np.zeros((len(xs), len(omegas)))
        for piece in distributions.budget_pieces(len(xs), row, held):
            rows, truth = xs[piece], xs[piece, k]
            # filters[lo][r, s] ~ p(S_lo = s | x_0 .. x_lo), beta[r, s] ~
            # p(x_i .. x_n-1 | S_i = s); per-sample scales cancel in posteriors
            filters = {i: f for i, (f, _) in zip(
                range(max(lows, default=-1) + 1), chain.filtered(rows))
                if i in lows}
            beta = np.ones((len(rows), chain.m))
            for i in range(n, min((hi for _, hi in cuts.values()),
                                  default=n) - 1, -1):
                if i < n:
                    beta = chain.backward(beta) * chain.emission(i)[rows[:, i]]
                    beta /= beta.sum(axis=1, keepdims=True)
                for w in [w for w in cuts if cuts[w][1] == i]:
                    lo = cuts[w][0]
                    left = filters[lo] @ powers[w] if lo >= 0 else at_k
                    right = beta @ powers[w].T if i < n else beta
                    scores = (left * right) @ emit_k.T
                    post = (scores[np.arange(len(rows)), truth]
                            / scores.sum(axis=1))
                    neglog[piece, cols[w]] = -np.log2(
                        np.maximum(post, 1e-300))[:, None]
        return neglog

    means, errs = _hmm._monte_carlo(samples, score)
    return (h_k - means) / h_k, errs / h_k


@dataclass(frozen=True)
class MismatchPair:
    """True distribution and the (possibly wrong) one the mechanism uses."""

    p_model: SequenceModel
    q_model: SequenceModel

    def __post_init__(self):
        if self.p_model.arities != self.q_model.arities:
            raise InputError("mismatched models must share length and arities")


@dataclass(frozen=True)
class RobustnessResult:
    leakage_bits: float
    kl_bound_bits: float


def sequence_kl(p_model: SequenceModel, q_model: SequenceModel) -> float:
    """D(p || q) over whole sequences, in bits (exact, enumerated)."""
    MismatchPair(p_model, q_model)      # InputError unless the arities match
    return kl_divergence(p_model.joint_table()[1], q_model.joint_table()[1])


def robustness_experiment(pair: MismatchPair, K,
                          ordering: Ordering | None = None) -> RobustnessResult:
    """Exact leakage of the q-built mechanism under p, and the divergence
    bound D(p || q).

    The leakage can never exceed the bound; a violation beyond round-off
    means the composition is wrong and raises.
    """
    leakage = exact_output_distribution(pair.p_model, K, ordering,
                                        pair.q_model).mutual_information_bits()
    bound = sequence_kl(pair.p_model, pair.q_model)
    if leakage > bound + 1e-9:
        raise NumericalError(
            f"mismatch leakage {leakage} exceeds the divergence bound {bound}")
    return RobustnessResult(leakage, bound)
