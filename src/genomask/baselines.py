"""Deterministic window-erasure baseline and model-mismatch robustness.

The baseline erases a window of size omega, every position within omega - 1
of a sensitive position (for K = {0}, the first omega positions), and
releases everything else; its leakage is the mutual information between
the sensitive symbols and the released coordinates, normalized by the
sensitive entropy.  Exact values come from enumeration; at realistic
lengths the leakage is estimated from sampled sequences whose sensitive
posteriors are computed exactly by constrained forward passes over the
hidden states of the model's hidden chain.

The robustness experiment builds the mechanism from a wrong distribution q
and measures the exact leakage it incurs when inputs really follow p; the
divergence D(p || q) over whole sequences bounds that leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions
from . import hmm as _hmm
from .distributions import SequenceModel
from .errors import DegenerateSensitiveError, InputError, NumericalError
from .info import entropy, kl_divergence, sample_stderr
from .masking import STAR, MaskedSequence, Ordering, _validate_sensitive
from .mechanism import OutputDistribution, exact_output_distribution


def window_erased(n: int, K, omega: int) -> list[int]:
    """Sorted positions a window of size omega erases: those within
    omega - 1 of a sensitive position, none at omega = 0.  For K = {0} the
    window is the prefix 0..omega-1."""
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
    """Normalized leakage of the prefix-window baseline for several omegas,
    on a model with a hidden chain (an HMM or a Markov chain).

    Only the paper's setting K = {first position} is supported: the
    posterior of x_0 given the released suffix is exact (hidden-state
    forward/backward).  Samples are drawn in the blocks of `hmm.mc_blocks`,
    and the budget only cuts a block's backward pass into pieces (three
    m-vectors a row).  The pass serves each distinct omega once, at the
    step where it reaches it.
    Returns (estimates, standard errors) as arrays aligned with omegas.
    """
    chain = _hmm.require_chain(model, "the sampled window estimator "
                               "(--runs 0 is exact for any model)")
    K = _validate_sensitive(K, model.n)
    if K != (0,):
        raise InputError("the prefix-window estimator requires K = {0}")
    omegas = [int(w) for w in omegas]
    if not omegas or any(w < 0 or w > model.n for w in omegas):
        raise InputError(f"omegas must be a non-empty list in 0..{model.n}")
    if samples < 1:
        raise InputError("samples must be >= 1")
    # alpha[w][v, s] = p(x_0 = v, S_w = s): sample-independent, one chain of
    # no-observation propagations; omega = 0 releases x_0 itself
    alpha, cur = {}, chain.initial[None, :] * chain.emission(0)
    prior = cur.sum(axis=1)
    if np.count_nonzero(prior) < 2:
        raise DegenerateSensitiveError("sensitive symbol carries no entropy")
    h_k = entropy(prior)
    for w in range(1, max(omegas) + 1):
        cur = chain.forward(cur)
        if w in omegas:
            alpha[w] = cur
    # neglog[w] = -log2 p(x_0 = truth | the sample's x_w .. x_n-1)
    neglog = {w: np.zeros(samples) for w in omegas}
    for block in _hmm.mc_blocks(samples):
        xs = model.sample_batch(block.stop - block.start, rng)
        for piece in distributions.budget_pieces(len(xs), 3 * 8 * chain.m):
            rows, truth = xs[piece], xs[piece, 0]
            at = slice(block.start + piece.start, block.start + piece.stop)
            # beta[r, s] = p(x_i .. x_n-1 | S_i = s), rescaled per step with
            # a per-sample scale (scales cancel in posteriors)
            beta = np.ones((rows.shape[0], chain.m))
            for i in range(model.n, min(alpha, default=model.n) - 1, -1):
                if i < model.n:
                    beta = chain.backward(beta) * chain.emission(i)[rows[:, i]]
                    scale = beta.max(axis=1, keepdims=True)
                    np.divide(beta, scale, out=beta, where=scale > 0)
                if i in alpha:
                    scores = np.einsum("vs,bs->bv", alpha[i], beta)
                    post = (scores[np.arange(rows.shape[0]), truth]
                            / scores.sum(axis=1))
                    neglog[i][at] = -np.log2(np.maximum(post, 1e-300))

    ests = np.array([(h_k - float(neglog[w].mean())) / h_k for w in omegas])
    errs = np.array([sample_stderr(neglog[w]) / h_k for w in omegas])
    return ests, errs


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


def sequence_kl_mc(p_model: SequenceModel, q_model: SequenceModel,
                   samples: int, rng: np.random.Generator):
    """Monte-Carlo estimate of D(p || q) in bits for models too long to
    enumerate, drawn in `hmm.mc_blocks`; both models need a hidden chain
    (HMMs or Markov chains), whose forward pass gives log p(x)."""
    MismatchPair(p_model, q_model)      # InputError unless the arities match
    p_chain = _hmm.require_chain(p_model, "sequence_kl_mc")
    q_chain = _hmm.require_chain(q_model, "sequence_kl_mc")
    if samples < 1:
        raise InputError("samples must be >= 1")
    vals = np.empty(samples)
    for block in _hmm.mc_blocks(samples):
        xs = p_model.sample_batch(block.stop - block.start, rng)
        lq = q_chain.log_probs(xs)
        if np.any(lq == -math.inf):
            return float("inf"), 0.0
        vals[block] = (p_chain.log_probs(xs) - lq) / math.log(2)
    return float(vals.mean()), sample_stderr(vals)


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
