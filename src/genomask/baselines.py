"""Deterministic window-erasure baseline and model-mismatch robustness.

The baseline erases a fixed window (a prefix, or a radius around each
sensitive position) and releases everything else; its leakage is the
mutual information between the sensitive symbols and the released
coordinates, normalized by the sensitive entropy.  Exact values come from
enumeration; at realistic lengths the leakage is estimated from sampled
sequences whose sensitive posteriors are computed exactly by constrained
forward passes over the hidden states.

The robustness experiment builds the mechanism from a wrong distribution q
and measures the exact leakage it incurs when inputs really follow p; the
divergence D(p || q) over whole sequences bounds that leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hmm as _hmm
from .distributions import HmmModel, SequenceModel, first_seen_ranks, row_codes
from .errors import DegenerateSensitiveError, InputError, NumericalError
from .info import entropy, kl_divergence, mutual_information, sample_stderr
from .masking import STAR, MaskedSequence, Ordering, _validate_sensitive
from .mechanism import EnumeratedMechanism


@dataclass(frozen=True)
class WindowPolicy:
    """Window-erasure policy.

    ``prefix`` mode erases positions 0..omega-1 (the classical baseline for
    a leading sensitive position); ``radius`` mode erases every position
    within omega of a sensitive index.
    """

    mode: str
    omega: int
    sensitive: tuple[int, ...] = ()

    def __post_init__(self):
        if self.mode not in ("prefix", "radius"):
            raise InputError(f"unknown window mode {self.mode!r}")
        if self.omega < 0:
            raise InputError("omega must be >= 0")
        if self.mode == "radius" and not self.sensitive:
            raise InputError("radius mode needs the sensitive positions")

    def erased_positions(self, n: int) -> set[int]:
        if self.omega > n:
            raise InputError(f"omega {self.omega} exceeds length {n}")
        if self.mode == "prefix":
            return set(range(self.omega))
        out: set[int] = set()
        for k in self.sensitive:
            out.update(range(max(0, k - self.omega),
                             min(n, k + self.omega + 1)))
        return out


def window_mask(x, policy: WindowPolicy) -> MaskedSequence:
    """Deterministically erase the policy's window."""
    x = tuple(int(v) for v in x)
    erased = policy.erased_positions(len(x))
    return MaskedSequence(tuple(STAR if i in erased else v
                                for i, v in enumerate(x)))


def window_leakage_exact(model: SequenceModel, K, omega: int,
                         mode: str = "prefix") -> float:
    """I(sensitive; released coordinates) / H(sensitive), by enumeration."""
    K = _validate_sensitive(K, model.n)
    policy = WindowPolicy(mode, omega, K)
    released = sorted(set(range(model.n)) - policy.erased_positions(model.n))
    space, p = model.joint_table()
    nonzero = p != 0
    space, p = space[nonzero], p[nonzero]
    dims = [model.arities[k] for k in K]
    ui = row_codes(space[:, list(K)], dims)
    # one column per released pattern, in order of first appearance
    ri = first_seen_ranks(row_codes(space[:, released],
                                    [model.arities[i] for i in released]))
    cols = int(ri.max()) + 1
    joint = np.bincount(ui * cols + ri, weights=p,
                        minlength=math.prod(dims) * cols).reshape(-1, cols)
    h_k = entropy(joint.sum(axis=1))
    if h_k <= 0.0:
        raise DegenerateSensitiveError("sensitive symbols carry no entropy")
    return mutual_information(joint) / h_k


def _suffix_rows(hmm: HmmModel, xs: np.ndarray, rows) -> dict[int, np.ndarray]:
    """{i: beta_i} for i in the ascending ``rows`` (each in 1..n), where
    beta_i[b, s] = p(x_i..x_{n-1} | S_i = s), renormalized per step with a
    per-sample scale (scales cancel in posteriors)."""
    t = hmm.transition_matrix
    cur = np.ones((xs.shape[0], hmm.m))
    out = {hmm.n: cur} if hmm.n in rows else {}
    for i in range(hmm.n - 1, (rows[0] if rows else hmm.n) - 1, -1):
        emis = hmm.emission_likelihoods(i)          # (arity, m)
        cur = (cur @ t.T) * emis[xs[:, i]]          # (batch, m)
        scale = cur.max(axis=1, keepdims=True)
        np.divide(cur, scale, out=cur, where=scale > 0)
        if i in rows:
            out[i] = cur
    return out


def window_leakage_sweep(hmm: HmmModel, K, omegas, samples: int,
                         rng: np.random.Generator):
    """Normalized leakage of the prefix-window baseline for several omegas.

    Only the paper's setting K = {first position} is supported: the
    posterior of x_0 given the released suffix is exact (hidden-state
    forward/backward), and one backward pass per sample serves every omega.
    Samples go in batches sized so that the suffix rows kept for the
    omegas, plus the working row, stay within ``hmm.BELIEF_BUDGET_BYTES``.
    Returns (estimates, standard errors) as arrays aligned with omegas.
    """
    if not isinstance(hmm, HmmModel):
        raise InputError("the sampled window estimator needs an HMM; "
                         "--runs 0 gives the exact leakage of any model")
    K = _validate_sensitive(K, hmm.n)
    if K != (0,):
        raise InputError("the prefix-window estimator requires K = {0}")
    omegas = [int(w) for w in omegas]
    if any(w < 0 or w > hmm.n for w in omegas):
        raise InputError("omega out of range")
    kept = sorted({w for w in omegas if w > 0})
    batch_size = _hmm.mc_batch_size(8 * hmm.m * (len(kept) + 1))
    table = _hmm.sensitive_backward_table(hmm, K)
    prior = table.prior
    h_k = entropy(prior)
    if h_k <= 0.0:
        raise DegenerateSensitiveError("sensitive symbol carries no entropy")

    arity = hmm.alphabet.size
    m = hmm.m
    t = hmm.transition_matrix
    # alpha[w, v, s] = p(x_0 = v, S_w = s): sample-independent, one chain
    # of no-observation propagations
    max_w = max(omegas)
    alpha = np.empty((max_w + 1, arity, m))
    emis0 = hmm.emission_likelihoods(0)
    alpha[0] = np.nan  # omega = 0 releases x_0 itself; handled separately
    if max_w >= 1:
        alpha[1] = (hmm.initial_state[None, :] * emis0) @ t
        for w in range(2, max_w + 1):
            alpha[w] = alpha[w - 1] @ t

    neglog = {w: [] for w in omegas}
    done = 0
    while done < samples:
        b = min(batch_size, samples - done)
        xs = hmm.sample_batch(b, rng)
        beta = _suffix_rows(hmm, xs, kept)
        truth = xs[:, 0]
        for w in omegas:
            if w == 0:
                post = np.ones(b)  # x_0 is released: posterior is certain
            else:
                scores = np.einsum("vs,bs->bv", alpha[w], beta[w])
                z = scores.sum(axis=1)
                post = scores[np.arange(b), truth] / z
            neglog[w].append(-np.log2(np.maximum(post, 1e-300)))
        done += b

    ests, errs = [], []
    for w in omegas:
        vals = np.concatenate(neglog[w])
        ests.append((h_k - float(vals.mean())) / h_k)
        errs.append(sample_stderr(vals) / h_k)
    return np.array(ests), np.array(errs)


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
    return kl_divergence(p_model.joint_table()[1], q_model.joint_table()[1])


def sequence_kl_mc(p_model: SequenceModel, q_model: SequenceModel,
                   samples: int, rng: np.random.Generator):
    """Monte-Carlo estimate of D(p || q) in bits for models too long to
    enumerate, from one batch of draws; requires models exposing
    ``log_joint_probs``."""
    xs = p_model.sample_batch(samples, rng)
    lq = q_model.log_joint_probs(xs)
    if np.any(lq == -math.inf):
        return float("inf"), 0.0
    vals = (p_model.log_joint_probs(xs) - lq) / math.log(2)
    return float(vals.mean()), sample_stderr(vals)


def robustness_experiment(pair: MismatchPair, K,
                          ordering: Ordering | None = None) -> RobustnessResult:
    """Exact leakage of the q-built mechanism under p, and the divergence
    bound D(p || q).

    The leakage can never exceed the bound; a violation beyond round-off
    means the composition is wrong and raises.
    """
    K = _validate_sensitive(K, pair.p_model.n)
    engine = EnumeratedMechanism(pair.p_model, K, pair.q_model)
    ordering = ordering or Ordering.linear(pair.p_model.n)
    dist = engine.output_distribution(ordering)
    leakage = dist.mutual_information_bits()
    bound = sequence_kl(pair.p_model, pair.q_model)
    if leakage > bound + 1e-9:
        raise NumericalError(
            f"mismatch leakage {leakage} exceeds the divergence bound {bound}")
    return RobustnessResult(leakage, bound)
