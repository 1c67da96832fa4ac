"""Efficient masking for any model with a hidden chain.

The reference mechanism needs p(x_i | sensitive = u, produced prefix) at
every step, which enumeration only delivers for toy sizes.  A model whose
`hidden_chain()` is not None (the copying HMM with m panel rows, a Markov
chain with m symbols) gives it in O(n m^2) arithmetic per hypothesis:

* a backward pass over hidden states gives, for every position and
  sensitive assignment u, the likelihood of the not-yet-passed sensitive
  symbols given the current hidden state.  One loop,
  `SensitiveBackwardTable.segment`, makes those rows: the build runs it
  once per segment of s = ceil(sqrt(n)) rows and keeps each segment's
  first row, and the forward pass reruns it one segment at a time as it
  reaches them.  A segment that holds no sensitive position takes its
  checkpoint in one product with (T^s)^T instead, so with few sensitive
  positions the build makes O(sqrt(n)) kernel products, not n;
* a per-hypothesis filter carries the forward part of the belief over
  hidden states through the outputs actually produced, folding in the
  mechanism's own release randomness, not just the chain's; the backward
  row of each position weighs the filter's prediction into its predictive.

The forward part is renormalized per position per hypothesis, so long
sequences stay in the linear domain without underflow; the normalizers
come from (batch, num_u, arity) tables and scale the outcome coefficients,
so the (batch, num_u, m) forward part is formed once, already normalized.
All state is kept in arrays with a leading batch axis; independent
Monte-Carlo runs share the immutable backward table and advance in
lockstep.  `_monte_carlo` counts out the runs of every Monte-Carlo
estimator in fixed blocks that the memory budget only cuts into pieces,
so the budget never moves a seeded result.  The Monte-Carlo rate
(`erasure_rate_mc`) averages each run's (1/n) sum_i sum_v mins_i(v), the
release probabilities given its produced prefixes, in place of its
released fraction: the same mean by the tower property, and the stderr of
the per-run minima sums.  Since P(Y_i = v | prefix, u) = mins_i(v) for
every hypothesis u, its runs draw their outputs from the minima and need
no sampled x.
Every product with T and every emission law comes from
`HiddenChain.forward`, `backward`, `power` and `emission`, so a structured
kernel or a byte check on the chain changes that class alone; the window
sweep makes its powers T^omega through `forward`, the backward table its
T^s through `power`, and both then use them as plain products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions
from .distributions import (
    HiddenChain,
    SequenceModel,
    _inverse_or_zero,
    assignment_index,
    int_array,
    row_codes,
    sensitive_assignments,
    symbol_rows,
)
from .errors import CapacityError, ImpossibleContextError, InputError, NumericalError
from .info import sample_stderr
from .masking import STAR, _validate_sensitive, release_rule

#: The hypotheses, the product of the sensitive arities, may number at most
#: 2^MAX_SENSITIVE: |K| <= 12 on a binary model.
MAX_SENSITIVE = 12

#: Runs of one Monte-Carlo block, which draws its sequences or outputs at
#: once.
MAX_MC_BATCH = 512

#: Belief-filter normalizers must match the predicted output probability
#: to this absolute tolerance.
NORM_TOL = 1e-6


@dataclass(frozen=True)
class SensitiveBackwardTable:
    """Checkpoints of the backward likelihoods of future sensitive symbols.

    Row i of the full table, ``row(i)[u, s]``, is the probability that the
    sensitive positions at or after i carry the values assigned by u, given
    hidden state s at position i.  ``values`` stores only every
    ``stride``-th row, ``values[j] = row(j * stride)`` with stride =
    ceil(sqrt(n)) (Tarnas & Hughey, Bioinformatics 14:401, 1998).

    A free segment, ``stride`` rows with no sensitive position below the
    top segment, takes its checkpoint in one jump, ``values[j + 1] @
    (T^s).T``, when the row products it saves outweigh the 2 ceil(log2 s)
    (m, m) products of T^s and T^s's two (m, m) arrays fit
    ``BELIEF_BUDGET_BYTES``.  A jumped checkpoint equals the row-by-row
    recursion up to rounding (1.1e-12 relative at n = 1000, m = 500).  The
    build takes every other checkpoint as ``rows[0]`` of `segment`, run in a
    (stride, num_u, m) buffer the size of a session's own, so `segment`
    recomputes those bit for bit by construction.  Rows from
    ``plain_from`` on are products of T's row sums, 1 only up to rounding;
    they are computed as the others are, not set to ones.
    """

    K: tuple[int, ...]
    values: np.ndarray            # (ceil(n / stride), num_u, m) checkpoints
    u_components: np.ndarray      # (num_u, |K|)
    plain_from: int               # first position with no sensitive suffix
    chain: HiddenChain

    @property
    def num_u(self) -> int:
        return self.values.shape[1]

    @property
    def stride(self) -> int:
        """Rows per segment, ceil(sqrt(n))."""
        return _stride(self.chain.n)

    @property
    def prior(self) -> np.ndarray:
        """(num_u,) p(sensitive = u), from the first checkpoint."""
        return self.values[0] @ self.chain.initial

    def segment(self, j: int, rows: np.ndarray) -> None:
        """Recompute rows a .. b-1, a = j * stride and b = min(a + stride,
        n), into ``rows[:b - a]`` by the row-by-row recursion from the
        checkpoint above (from ones at row n - 1): the one loop that makes a
        backward row, the build's too.  On a jumped segment ``rows[0]``
        equals ``values[j]`` up to rounding."""
        n, a = self.chain.n, j * self.stride
        b = min(a + self.stride, n)
        for i in range(b - 1, a - 1, -1):
            row = rows[i - a]
            if i == n - 1:
                row[...] = 1.0
            else:
                # row(i)[u, s] = sum_s' T[s, s'] * row(i + 1)[u, s']
                self.chain.backward(rows[i - a + 1] if i < b - 1
                                    else self.values[j + 1], out=row)
            if i in self.K:
                row *= self.chain.emission(i)[
                    self.u_components[:, self.K.index(i)]]


def _stride(n: int) -> int:
    """ceil(sqrt(n)) for n >= 1."""
    return math.isqrt(n - 1) + 1


def require_chain(model: SequenceModel, what: str) -> HiddenChain:
    """``model.hidden_chain()``; `InputError` naming ``what`` if it is None."""
    if (chain := model.hidden_chain()) is None:
        raise InputError(f"{what} needs an HMM or a Markov chain, "
                         f"not {type(model).__name__}")
    return chain


def sensitive_backward_table(model: SequenceModel, K) -> SensitiveBackwardTable:
    """Backward recursion over hidden states, one column per hypothesis:
    each checkpoint by a jump or by `SensitiveBackwardTable.segment`."""
    chain = require_chain(model, "the backward table")
    K = _validate_sensitive(K, model.n)
    if (num_u := math.prod(model.arities[k] for k in K)) > 2 ** MAX_SENSITIVE:
        raise CapacityError(f"{num_u} sensitive hypotheses exceed the "
                            f"supported maximum 2^{MAX_SENSITIVE}")
    n, m = model.n, chain.m
    us = sensitive_assignments(model.arities, K)
    ucomp = np.array(us, dtype=np.int64).reshape(num_u, len(K))
    stride = _stride(n)
    segments = -(-n // stride)
    free = set(range(segments - 1)) - {k // stride for k in K}
    # the jump rule of `SensitiveBackwardTable`; T^s comes before the
    # checkpoints, so that its two (m, m) arrays are the peak
    jump = (chain.power(stride)
            if (len(free) * (stride - 1) * num_u
                > 2 * (stride - 1).bit_length() * m
                and 2 * 8 * m * m <= distributions.BELIEF_BUDGET_BYTES)
            else None)
    table = SensitiveBackwardTable(K, np.empty((segments, num_u, m)), ucomp,
                                   (max(K) + 1) if K else 0, chain)
    rows = np.empty((stride, num_u, m))
    for j in range(segments - 1, -1, -1):
        if jump is not None and j in free:
            np.matmul(table.values[j + 1], jump.T, out=table.values[j])
        else:
            table.segment(j, rows)
            table.values[j] = rows[0]
    return table


def sensitive_conditionals(model: SequenceModel, K) -> np.ndarray:
    """Prior conditionals p(x_i = v | sensitive = u), shape (n, num_u, arity).

    Positions in K get the indicator of u's component.  Assignments with
    zero prior get NaN rows.  `EnumeratedMechanism.sensitive_conditionals`
    is the enumeration oracle with this contract.

    It is a batch-of-one `BatchMaskingSession` stepped with the neutral
    outcome, coef = 1 / mass for every symbol, which every state explains
    alike: each predictive is then a prior conditional.
    """
    session = BatchMaskingSession(model, K, 1)
    table, slot = session.table, session._slot
    arity = session.chain.emission(0).shape[0]
    out = np.full((model.n, table.num_u, arity), np.nan)
    for i in range(model.n):
        raw, inv_mass, _ = session._predict()
        if i in slot:
            out[i] = np.eye(arity)[table.u_components[:, slot[i]]]
        else:
            np.multiply(raw[0], inv_mass[0, :, None], out=out[i])
        session._filter(inv_mass[:, :, None])
    out[:, table.prior <= 0] = np.nan
    return out


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis as one BLAS matrix-vector product: numpy's own
    reduction runs a short inner loop per row."""
    return (a.reshape(-1, a.shape[-1]) @ np.ones(a.shape[-1])).reshape(
        a.shape[:-1])


class BatchMaskingSession:
    """Lockstep masking of a batch of sequences sharing (model, K).

    Per position, the session computes the per-hypothesis predictive
    distribution of the next symbol, turns it into release probabilities,
    and — once the outcome is fixed — filters the forward part of the
    hidden-state beliefs through the corresponding output likelihood.
    ``x_sensitive`` holds the rows' true sensitive values, (batch, |K|), or
    is a batch size: the output law does not depend on the true values, so
    such a session can advance through any outcomes its own release tables
    allow, but it has no `release_probability`.  A given ``table`` must be
    built for K from this very model: its chain is matched by identity.

    ``belief`` (defined once the first position is advanced) is the forward
    part a: p(S_pos-1 = s | u, outputs so far) = a[s] z[s], with z =
    row(pos) @ T.T the likelihood of the sensitive symbols ahead (scaled
    forward-backward, Rabiner, Proc. IEEE 77:257, 1989).  A step makes a' =
    (coef @ emis) (a @ T), times e_pos(u_pos) at a sensitive position, and
    the predictive weighs a @ T by the backward row g = row(pos): raw[b, u,
    v] = sum_s (a @ T)[b, u, s] g[u, s] e(v, s).  Nothing divides by z, so
    this holds also where z = 0.  Position 0 reads g from the table's first
    checkpoint, later positions below ``plain_from`` from one recomputed
    segment at a time (`SensitiveBackwardTable.segment`) in a buffer of the
    session's own; from ``plain_from`` on g is ones.  ``belief`` and the
    arrays `_position_tables` returns are session-owned buffers that the
    next `advance` overwrites, and while g is read the tables leave (a @ T) g
    in ``belief``'s buffer till then.  Copy what must outlive a step.  A
    deep copy of a session owns its own buffers and advances independently.
    """

    def __init__(self, model: SequenceModel, K, x_sensitive, table=None):
        self.chain = require_chain(model, "the masking session")
        self.model = model
        self.K = _validate_sensitive(K, model.n)
        self.table = table if table is not None else sensitive_backward_table(model, self.K)
        if self.table.K != self.K:
            raise InputError("backward table was built for a different K")
        if self.table.chain is not self.chain:
            raise InputError("backward table was built for a different model")
        if isinstance(x_sensitive, (int, np.integer)):
            if x_sensitive < 0:
                raise InputError("a batch size must be >= 0")
            self.u_true, self.batch = None, int(x_sensitive)
        else:
            self.u_true = row_codes(x_sensitive,
                                    [model.arities[k] for k in self.K])
            self.batch = self.u_true.shape[0]
        self.pos = 0
        shape = (self.batch, self.table.num_u, self.chain.m)
        self.belief = np.empty(shape)
        self._pred = np.empty(shape)
        self.live = np.broadcast_to(self.table.prior > 0,
                                    (self.batch, self.table.num_u)).copy()
        if (self.u_true is not None
                and not np.all(self.live[np.arange(self.batch), self.u_true])):
            raise InputError("a supplied sensitive assignment has prior zero")
        self._slot = {k: j for j, k in enumerate(self.K)}
        self._cache: tuple | None = None
        self._inv_mass: np.ndarray | None = None
        self._px_raw: np.ndarray | None = None
        # the rows of backward segment ``_back_seg``, made on first use
        self._back: np.ndarray | None = None
        self._back_seg = -1

    # -- per-position quantities -------------------------------------------

    def _predict(self):
        """(raw, inv_mass, live), the half of `_position_tables` before the
        release rule; once a position, as it consumes ``belief``.  a @ T goes
        to ``_pred`` (initial / p(u) at position 0, so that the mass is 1 as
        later); raw is the unscaled predictive, whose row sums are the
        predicted-state mass, 1 for live hypotheses unless a degenerate
        (theta or epsilon = 0) model starved some states.  Its inverse, the
        defensive renormalization, is 0 unless the mass exceeds 1e-12."""
        if self.pos >= self.model.n:
            raise InputError("session already consumed the whole sequence")
        pred, num_u = self._pred, self.table.num_u
        emis = self._emis = self.chain.emission(self.pos)
        flat = (self.batch * num_u, self.chain.m)
        if self.pos == 0:
            np.multiply(self.chain.initial,
                        _inverse_or_zero(self.table.prior)[:, None], out=pred)
            back = self.table.values[0]
        else:
            self.chain.forward(self.belief.reshape(flat), out=pred.reshape(flat))
            back = (self._backward(self.pos)
                    if self.pos < self.table.plain_from else None)
        if back is not None:
            # a's buffer is free until `_filter`: it takes (a @ T) g
            pred = np.multiply(pred, back, out=self.belief)
        # one 2-D product: a 3-D matmul with emis.T costs twice, and one per
        # hypothesis rounds differently at another batch size
        raw = (pred.reshape(flat) @ np.ascontiguousarray(emis.T)).reshape(
            self.batch, num_u, -1)
        mass = _row_sums(raw)
        live = self.live & (mass > 1e-12)
        self._px_raw, self._inv_mass = raw, _inverse_or_zero(mass, live)
        return raw, self._inv_mass, live

    def _backward(self, i: int) -> np.ndarray:
        """Row i of the backward pass as a view of the session's segment
        buffer, recomputing i's segment unless it is the one held."""
        j, k = divmod(i, self.table.stride)
        if self._back_seg != j:
            if self._back is None:
                self._back = np.empty((self.table.stride, self.table.num_u,
                                       self.chain.m))
            self.table.segment(j, self._back)
            self._back_seg = j
        return self._back[k]

    def _position_tables(self):
        """(pred, pred_symbols, mins, ratios) for the current position: pred
        is a @ T, pred_symbols `_predict`'s raw times its inverse mass, which
        scales the outcome coefficients in `advance` too; raw stays for
        `advance`'s normalizers."""
        if self._cache is not None:
            return self._cache
        raw, inv_mass, live = self._predict()
        if self.pos in self._slot:
            comp = self.table.u_components[:, self._slot[self.pos]]
            px = np.where(live[:, :, None]
                          & (comp[:, None] == np.arange(raw.shape[2])),
                          1.0, 0.0)
        else:
            px = raw * inv_mass[:, :, None]
        mins, ratios = release_rule(px, live, self.pos in self._slot)
        self._cache = (self._pred, px, mins, ratios)
        return self._cache

    def _column(self, col, outcomes: bool) -> np.ndarray:
        """``col`` as int64 of shape (batch,); `InputError` for another shape
        or a symbol outside 0..arity-1 (STAR also allowed for outcomes)."""
        col = int_array(col, 1, "a column")
        arity = self.model.arities[self.pos]
        if col.shape != (self.batch,):
            raise InputError(f"a column must have shape ({self.batch},), "
                             f"not {col.shape}")
        if col.size and (col.min() < (STAR if outcomes else 0)
                         or col.max() >= arity):
            raise InputError(f"symbols must lie in 0..{arity - 1}"
                             + (" or be erased" if outcomes else ""))
        return col

    def predictive(self, u) -> np.ndarray:
        """p(x_pos | sensitive = u, prefix) for the current position,
        shape (batch, arity)."""
        code = assignment_index(u, self.model.arities, self.K)
        _, px, _, _ = self._position_tables()
        if not np.all(self.live[:, code]):
            raise ImpossibleContextError(
                f"assignment {tuple(u)} impossible in the current context")
        return px[:, code, :].copy()

    def release_probability(self, x_col) -> np.ndarray:
        """Probability of releasing the true symbol at the current position."""
        if self.u_true is None:
            raise InputError("a session made from a batch size has no true "
                             "sensitive values")
        _, _, _, ratios = self._position_tables()
        x_col = self._column(x_col, outcomes=False)
        return ratios[np.arange(self.batch), self.u_true, x_col]

    def advance(self, y_col) -> None:
        """Filter the forward part through the produced outcomes and move on.

        The output likelihood given state s is sum_v coef[u, v] p(v | s): for
        a released y, coef is ratio(u, y) at v = y and 0 elsewhere; for an
        erasure, coef is 1 - ratio(u, v), which is right only because
        sum_v p(v | s) = 1.  Ratios lie in [0, 1], so the factor is >= 0.

        The normalizers are sum_v coef[u, v] times the unscaled predictive,
        (batch, num_u, arity) tables, times the defensive renormalization;
        they must match the output probability.  The inverses of the
        unrenormalized ones scale coef before `_filter`, so that the new
        forward part keeps sum_s a[s] z[s] = 1.
        """
        _, _, mins, ratios = self._position_tables()
        y_col = self._column(y_col, outcomes=True)
        released = y_col != STAR
        if self.pos in self._slot and released.any():
            raise InputError("sensitive positions must be erased")
        hit = y_col[:, None] == np.arange(self._emis.shape[0])  # (batch, arity)
        coef = np.where(released[:, None, None], ratios * hit[:, None, :],
                        1.0 - ratios)
        sums = _row_sums(coef * self._px_raw)
        norms = sums * self._inv_mass
        # STAR gathers the last column, which `where` discards
        expected = np.where(released, mins[np.arange(self.batch), y_col],
                            1.0 - _row_sums(mins))
        bad = self.live & (np.abs(norms - expected[:, None]) > NORM_TOL)
        if bad.any():
            raise NumericalError(
                "belief normalizer deviates from the predicted output "
                "probability beyond tolerance")
        # hypotheses whose context became impossible drop out of the minimum
        self.live = self.live & (norms > 0)
        coef *= _inverse_or_zero(sums, self.live)[:, :, None]
        (arity, m), flat = self._emis.shape, self.batch * self.table.num_u
        np.matmul(coef.reshape(flat, arity), self._emis,
                  out=self.belief.reshape(flat, m))
        self._filter(self.belief)

    def _filter(self, weights) -> None:
        """a' = weights (a @ T), times e_pos(u_pos) at a sensitive position,
        into ``belief``; then the next position.  ``weights``, coef @ emis
        or anything that broadcasts against (batch, num_u, m), may be
        ``belief``.  Needs `_predict` at this position first."""
        np.multiply(weights, self._pred, out=self.belief)
        if self.pos in self._slot:
            self.belief *= self._emis[
                self.table.u_components[:, self._slot[self.pos]]]
        self.pos += 1
        self._cache = None


def mask_hmm_batch(model: SequenceModel, xs, K, rng: np.random.Generator,
                   table=None) -> np.ndarray:
    """Mask a batch of sequences in lockstep; returns (batch, n) outcomes.

    The release uniforms come first, one ``rng.random((n, batch))``.  Then
    each budget piece of rows (two (num_u, m) session buffers and four
    n-vectors a row: sequence, uniforms, outcomes and release probabilities)
    is masked by a session of its own over one backward table: the budget
    does not move the outcomes."""
    return _mask_in_lockstep(model, xs, K, rng, table)[0]


def _mask_in_lockstep(model, xs, K, rng, table, runs=0):
    """The one loop that drives a session.  Given (batch, n) sequences
    ``xs`` it masks them as `mask_hmm_batch` describes and returns the
    (batch, n) outcomes and probabilities of releasing the true symbol
    (`release_probability`'s).  With ``xs`` None it draws ``runs`` outputs
    from the output process, position i giving v with probability
    mins_i(v), and returns their (runs,) released masses sum_i sum_v
    mins_i(v); a row then holds one n-vector, its uniforms.

    Each position draws from one law over the symbols, the remainder being
    the erasure, with one uniform a row: the first v whose cumulative law
    exceeds the uniform.  Masking a given x puts its release probability r
    on x alone, so the draw is exactly ``uniform < r``."""
    given = xs is not None
    if given:
        xs = symbol_rows(xs, model.arities, "xs")
        rows, out, probs = len(xs), np.empty_like(xs), np.empty(xs.shape)
    else:
        rows, mass = runs, np.zeros(runs)
    K = _validate_sensitive(K, model.n)
    if table is None:
        table = sensitive_backward_table(model, K)
    num_u, m = table.values.shape[1:]
    uniforms = rng.random((model.n, rows))
    pieces = distributions.budget_pieces(
        rows, 8 * (2 * num_u * m + (4 if given else 1) * model.n))
    for piece in pieces or [slice(0, 0)]:   # an empty batch checks the table
        session = BatchMaskingSession(
            model, K, xs[piece][:, list(K)] if given
            else piece.stop - piece.start, table)
        for i in range(model.n):
            if given:
                x_col = xs[piece, i]
                r = probs[piece, i] = session.release_probability(x_col)
                law = r[:, None] * (x_col[:, None] == np.arange(
                    model.arities[i]))
            else:
                law = session._position_tables()[2]
            y, total = _draw(law, uniforms[i, piece])
            if given:
                out[piece, i] = y
            else:
                mass[piece] += total
            session.advance(y)
    return (out, probs) if given else mass


def _draw(law, uniforms):
    """Per row of ``law`` (rows, arity), the first v whose cumulative law
    exceeds the row's uniform, STAR past the last; and the law's row sums,
    as the cumulative sum leaves them.  Column by column: numpy runs a short
    inner loop per row along a short last axis.  The one categorical rule of
    both engines: `_mask_in_lockstep` and the runs of
    `mechanism.EnumeratedMechanism.walk` draw through it."""
    y, cum = np.zeros(len(uniforms), dtype=np.int64), np.zeros(len(uniforms))
    for col in law.T:
        cum = cum + col
        y += uniforms >= cum
    y[y == law.shape[1]] = STAR
    return y, cum


def _monte_carlo(runs: int, score):
    """The one place where Monte-Carlo runs are counted out: blocks of
    ``MAX_MC_BATCH``, each scored by ``score(count)``, which draws its own
    sequences or outputs and gives (rows,) or (rows, columns).  Returns
    (means, stderrs), each taken on a contiguous column."""
    if runs < 1:
        raise InputError("runs must be >= 1")
    vals = np.concatenate([score(min(MAX_MC_BATCH, runs - start))
                           for start in range(0, runs, MAX_MC_BATCH)])
    cols = map(np.ascontiguousarray, vals.reshape(runs, -1).T)
    return np.array([(c.mean(), sample_stderr(c)) for c in cols]).T


def erasure_rate_mc(model: SequenceModel, K, runs: int, rng: np.random.Generator):
    """Monte-Carlo rate of the mechanism: (mean, stderr) of the per-run
    (1/n) sum_i sum_v mins_i(v).

    Given the produced prefix and the sensitive values, position i is
    released with probability sum_v mins_i(v), the same for every value, so
    by the tower property this per-run rate has the mean of the released
    fraction 1 - e(Y)/n.  The stderr is that of the per-run minima sums,
    smaller than the released fractions' in every case measured.

    No x is drawn.  The output law is the same under every hypothesis,
    P(Y_i = v | prefix, u) = mins_i(v), so each run draws its outputs
    straight from the minima (`_mask_in_lockstep` with no sequences),
    with the law and so the mean and stderr of runs that masked a sampled x.
    The runs come in `_monte_carlo`'s blocks; the budget only cuts a block
    into pieces.
    """
    table = sensitive_backward_table(model, K)
    (mean,), (err,) = _monte_carlo(runs, lambda count: _mask_in_lockstep(
        model, None, table.K, rng, table, count) / model.n)
    return float(mean), float(err)
