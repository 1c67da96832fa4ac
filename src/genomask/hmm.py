"""Efficient masking for the haplotype-copying HMM.

The reference mechanism needs p(x_i | sensitive = u, produced prefix) at
every step, which enumeration only delivers for toy sizes.  The HMM
structure gives it in O(n m^2) arithmetic per hypothesis:

* a backward pass over hidden states precomputes, for every position and
  sensitive assignment u, the likelihood of the not-yet-passed sensitive
  symbols given the current hidden state;
* a per-hypothesis belief over hidden states is filtered forward through
  the outputs actually produced, folding in the mechanism's own release
  randomness, not just the chain's.

The belief filter is renormalized per position per hypothesis, so long
sequences stay in the linear domain without underflow.  All state is kept
in arrays with a leading batch axis; independent Monte-Carlo runs share
the immutable backward table and advance in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    HmmModel,
    _inverse_or_zero,
    assignment_index,
    row_codes,
    sensitive_assignments,
    validate_sequence,
)
from .errors import (
    CapacityError,
    ImpossibleContextError,
    InputError,
    NumericalError,
)
from .info import sample_stderr
from .masking import (
    STAR,
    MaskedSequence,
    TranscriptEntry,
    _validate_sensitive,
    release_ratios,
)

#: Sensitive sets larger than this make the 2^|K| hypothesis loop pointless.
MAX_SENSITIVE = 12

#: Bytes the per-batch float64 arrays of a Monte-Carlo loop may take (the
#: (batch, num_u, m) beliefs of ``erasure_rate_mc``, the kept suffix rows of
#: ``baselines.window_leakage_sweep``); see `mc_batch_size`.
BELIEF_BUDGET_BYTES = 64 * 2**20
MAX_MC_BATCH = 512

#: Belief-filter normalizers must match the predicted output probability
#: to this absolute tolerance.
NORM_TOL = 1e-6


@dataclass(frozen=True)
class SensitiveBackwardTable:
    """Backward likelihoods of future sensitive symbols.

    ``values[i, u, s]`` is the probability that the sensitive positions at
    or after i carry the values assigned by u, given hidden state s at
    position i.  Positions past the last sensitive index have value 1 for
    every state, where the filter falls back to the plain chain kernel.
    """

    K: tuple[int, ...]
    values: np.ndarray            # (n, num_u, m)
    u_components: np.ndarray      # (num_u, |K|)
    prior: np.ndarray             # (num_u,) = p(sensitive = u)
    plain_from: int               # first position with no sensitive suffix

    @property
    def num_u(self) -> int:
        return self.values.shape[1]


def sensitive_backward_table(hmm: HmmModel, K) -> SensitiveBackwardTable:
    """Backward recursion over hidden states, one column per hypothesis."""
    K = _validate_sensitive(K, hmm.n)
    if len(K) > MAX_SENSITIVE:
        raise CapacityError(
            f"|K| = {len(K)} exceeds the supported maximum {MAX_SENSITIVE}")
    n, m = hmm.n, hmm.m
    us = sensitive_assignments(hmm.arities, K)
    ucomp = np.array(us, dtype=np.int64).reshape(len(us), len(K))
    num_u = ucomp.shape[0]
    t = hmm.transition_matrix
    values = np.ones((n, num_u, m))
    slot = {k: j for j, k in enumerate(K)}
    nxt = np.ones((num_u, m))
    for i in range(n - 1, -1, -1):
        cur = nxt @ t.T  # cur[u, s] = sum_s' T[s, s'] * nxt[u, s']
        if i == n - 1:
            cur = np.ones((num_u, m))
        if i in slot:
            emis = hmm.emission_likelihoods(i)           # (arity, m)
            cur = cur * emis[ucomp[:, slot[i]]]
        values[i] = cur
        nxt = cur
    prior = values[0] @ hmm.initial_state
    plain_from = (max(K) + 1) if K else 0
    return SensitiveBackwardTable(K, values, ucomp, prior, plain_from)


def sensitive_conditionals(hmm: HmmModel, K,
                           table: SensitiveBackwardTable | None = None) -> np.ndarray:
    """Prior conditionals p(x_i = v | sensitive = u), shape (n, num_u, arity).

    Positions in K get the indicator of u's component.  Assignments with
    zero prior get NaN rows.
    """
    if table is None:
        table = sensitive_backward_table(hmm, K)
    K = table.K
    n, m = hmm.n, hmm.m
    num_u = table.num_u
    arity = hmm.alphabet.size
    slot = {k: j for j, k in enumerate(K)}
    out = np.full((n, num_u, arity), np.nan)
    fwd = np.broadcast_to(hmm.initial_state, (num_u, m)).copy()
    t = hmm.transition_matrix
    for i in range(n):
        emis = hmm.emission_likelihoods(i)  # (arity, m)
        if i in slot:
            rows = np.zeros((num_u, arity))
            rows[np.arange(num_u), table.u_components[:, slot[i]]] = 1.0
            out[i] = rows
            fwd = fwd * emis[table.u_components[:, slot[i]]]
        else:
            joint = np.einsum("um,vm,um->uv", fwd, emis, table.values[i])
            z = joint.sum(axis=1)
            np.divide(joint, z[:, None], out=out[i], where=z[:, None] > 0)
            out[i][z <= 0] = np.nan
        fwd = fwd @ t
    return out


class BatchMaskingSession:
    """Lockstep masking of a batch of sequences sharing (hmm, K).

    Per position, the session computes the per-hypothesis predictive
    distribution of the next symbol, turns it into release probabilities,
    and — once the outcome is fixed — filters the hidden-state beliefs
    through the corresponding output likelihood.
    """

    def __init__(self, hmm: HmmModel, K, x_sensitive, table=None):
        self.hmm = hmm
        self.K = _validate_sensitive(K, hmm.n)
        self.table = table if table is not None else sensitive_backward_table(hmm, self.K)
        if self.table.K != self.K:
            raise InputError("backward table was built for a different K")
        self.u_true = row_codes(x_sensitive,
                                [hmm.arities[k] for k in self.K])
        self.batch = self.u_true.shape[0]
        self.trans = hmm.transition_matrix
        self.emissions = hmm.emission_stack()  # (n, arity, m)
        self.pos = 0
        self.belief = None                     # (batch, num_u, m)
        self.live = np.broadcast_to(self.table.prior > 0,
                                    (self.batch, self.table.num_u)).copy()
        if not np.all(self.live[np.arange(self.batch), self.u_true]):
            raise InputError("a supplied sensitive assignment has prior zero")
        self._slot = {k: j for j, k in enumerate(self.K)}
        self._cache: tuple | None = None

    # -- per-position quantities -------------------------------------------

    def _predicted_states(self) -> np.ndarray:
        """p(S_pos = s | u, prefix) as (batch, num_u, m)."""
        num_u, m = self.table.num_u, self.hmm.m
        if self.pos == 0:
            base = self.hmm.initial_state[None, :] * self.table.values[0]
            pred = base * _inverse_or_zero(base.sum(axis=1))[:, None]
            return np.broadcast_to(pred, (self.batch, num_u, m)).copy()
        if self.pos >= self.table.plain_from:
            # no sensitive positions remain: the plain chain kernel applies
            flat = self.belief.reshape(self.batch * num_u, m) @ self.trans
            return flat.reshape(self.batch, num_u, m)
        g = self.table.values[self.pos]                     # (num_u, m)
        zinv = _inverse_or_zero(g @ self.trans.T)           # 1 / z[u, s]
        # out[b,u,k] = sum_s belief[b,u,s] / z[u,s] * T[s,k] * g[u,k]
        pred = ((self.belief * zinv).reshape(self.batch * num_u, m)
                @ self.trans).reshape(self.batch, num_u, m)
        pred *= g
        return pred

    def _position_tables(self):
        """(pred_states, pred_symbols, mins, ratios) for the current position."""
        if self._cache is not None:
            return self._cache
        if self.pos >= self.hmm.n:
            raise InputError("session already consumed the whole sequence")
        pred = self._predicted_states()
        mass = pred.sum(axis=2)
        live = self.live & (mass > 1e-12)
        # defensive renormalization; mass is 1 for live hypotheses unless a
        # degenerate (theta or epsilon = 0) model starved some states
        pred *= _inverse_or_zero(mass, live)[:, :, None]
        arity = self.hmm.alphabet.size
        if self.pos in self._slot:
            comp = self.table.u_components[:, self._slot[self.pos]]
            px = np.where(live[:, :, None] & (comp[:, None] == np.arange(arity)),
                          1.0, 0.0)
            mins = np.zeros((self.batch, arity))  # sensitive: always erase
        else:
            px = np.matmul(pred, self.emissions[self.pos].T)
            masked = np.where(live[:, :, None], px, np.inf)
            mins = masked.min(axis=1)
            mins[~np.isfinite(mins)] = 0.0
        ratios = release_ratios(mins[:, None, :], px)
        self._cache = (pred, px, mins, ratios)
        return self._cache

    def predictive(self, u) -> np.ndarray:
        """p(x_pos | sensitive = u, prefix) for the current position,
        shape (batch, arity)."""
        code = assignment_index(u, self.hmm.arities, self.K)
        _, px, _, _ = self._position_tables()
        if not np.all(self.live[:, code]):
            raise ImpossibleContextError(
                f"assignment {tuple(u)} impossible in the current context")
        return px[:, code, :].copy()

    def release_probability(self, x_col) -> np.ndarray:
        """Probability of releasing the true symbol at the current position."""
        x_col = np.asarray(x_col, dtype=np.int64)
        _, _, _, ratios = self._position_tables()
        return ratios[np.arange(self.batch), self.u_true, x_col]

    def advance(self, y_col) -> None:
        """Filter beliefs through the produced outcomes and move on.

        The output likelihood given state s is sum_v coef[u, v] p(v | s): for
        a released y, coef is ratio(u, y) at v = y and 0 elsewhere; for an
        erasure, coef is 1 - ratio(u, v), which is right only because
        sum_v p(v | s) = 1.  Ratios lie in [0, 1], so the factor is >= 0.
        """
        y_col = np.asarray(y_col, dtype=np.int64)
        pred, px, mins, ratios = self._position_tables()
        released = y_col != STAR
        if self.pos in self._slot and released.any():
            raise InputError("sensitive positions must be erased")
        emis = self.emissions[self.pos]                     # (arity, m)
        (arity, m), num_u = emis.shape, self.table.num_u
        hit = y_col[:, None] == np.arange(arity)            # (batch, arity)
        if np.any(released & ~hit.any(axis=1)):
            raise InputError("released symbol outside the alphabet")
        coef = np.where(released[:, None, None], ratios * hit[:, None, :],
                        1.0 - ratios)
        factor = coef.reshape(self.batch * num_u, arity) @ emis
        new_belief = pred * factor.reshape(self.batch, num_u, m)
        norms = new_belief.sum(axis=2)
        expected = np.where(released, (mins * hit).sum(axis=1),
                            1.0 - mins.sum(axis=1))
        bad = self.live & (np.abs(norms - expected[:, None]) > NORM_TOL)
        if bad.any():
            raise NumericalError(
                "belief normalizer deviates from the predicted output "
                "probability beyond tolerance")
        # hypotheses whose context became impossible drop out of the minimum
        self.live = self.live & (norms > 0)
        new_belief *= _inverse_or_zero(norms, self.live)[:, :, None]
        self.belief = new_belief
        self.pos += 1
        self._cache = None

    def step(self, x_col, rng: np.random.Generator):
        """Sample outcomes for the current position; returns (y, release_prob)."""
        x_col = np.asarray(x_col, dtype=np.int64)
        r = self.release_probability(x_col)
        y = np.where(rng.random(self.batch) < r, x_col, STAR)
        self.advance(y)
        return y, r


def mask_hmm(hmm: HmmModel, x, K, rng: np.random.Generator, table=None):
    """Mask one sequence; returns (MaskedSequence, transcript)."""
    x = validate_sequence(x, hmm.arities)
    K = _validate_sensitive(K, hmm.n)
    session = BatchMaskingSession(
        hmm, K, np.array([[x[k] for k in K]], dtype=np.int64), table)
    y = []
    transcript = []
    for i in range(hmm.n):
        out, r = session.step(np.array([x[i]]), rng)
        y.append(int(out[0]))
        transcript.append(TranscriptEntry(i, float(r[0]), int(out[0])))
    return MaskedSequence(tuple(y)), tuple(transcript)


def mask_hmm_batch(hmm: HmmModel, xs, K, rng: np.random.Generator,
                   table=None) -> np.ndarray:
    """Mask a batch of sequences in lockstep; returns (batch, n) outcomes."""
    xs = np.asarray(xs, dtype=np.int64)
    if xs.ndim != 2 or xs.shape[1] != hmm.n:
        raise InputError(f"xs must have shape (batch, {hmm.n})")
    if xs.size and (xs.min() < 0 or xs.max() >= hmm.alphabet.size):
        raise InputError(f"symbols must lie in 0..{hmm.alphabet.size - 1}")
    K = _validate_sensitive(K, hmm.n)
    session = BatchMaskingSession(hmm, K, xs[:, list(K)], table)
    out = np.empty_like(xs)
    for i in range(hmm.n):
        out[:, i], _ = session.step(xs[:, i], rng)
    return out


def mc_batch_size(row_bytes: int) -> int:
    """Largest batch up to ``MAX_MC_BATCH`` whose rows of ``row_bytes``
    each fit in ``BELIEF_BUDGET_BYTES``; `CapacityError` if one does not."""
    batch_size = min(MAX_MC_BATCH, BELIEF_BUDGET_BYTES // row_bytes)
    if batch_size < 1:
        raise CapacityError(f"one {row_bytes}-byte batch row exceeds "
                            f"the {BELIEF_BUDGET_BYTES}-byte budget")
    return batch_size


def erasure_rate_mc(hmm: HmmModel, K, runs: int, rng: np.random.Generator):
    """Monte-Carlo rate of the mechanism on an HMM: (mean of 1 - e/n, stderr).

    Runs go in batches sized so that one belief array stays within
    ``BELIEF_BUDGET_BYTES``.
    """
    if runs < 1:
        raise InputError("runs must be >= 1")
    K = _validate_sensitive(K, hmm.n)
    num_u = math.prod(hmm.arities[k] for k in K)
    batch_size = mc_batch_size(8 * num_u * hmm.m)
    table = sensitive_backward_table(hmm, K)
    rates = np.empty(runs)
    done = 0
    while done < runs:
        b = min(batch_size, runs - done)
        xs = hmm.sample_batch(b, rng)
        ys = mask_hmm_batch(hmm, xs, K, rng, table)
        rates[done:done + b] = 1.0 - (ys == STAR).sum(axis=1) / hmm.n
        done += b
    return float(rates.mean()), sample_stderr(rates)
