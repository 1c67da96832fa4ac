"""The sequential erasure mechanism and its exact verification machinery.

Position i is released with probability

    min_u p(x_i | sensitive = u, produced prefix) / p(x_i | true sensitive, prefix)

and erased otherwise, processing positions in a configurable ordering.  The
prefix conditionals treat released entries as observed symbols and weight
erased entries by the mechanism's own erasure probability in that context,
so the composition of model and mechanism is exact.

Everything here works for any `SequenceModel` by enumerating the sequence
space, which is the authoritative (slow) reference path.  The mechanism's
belief about the data may differ from the true distribution
(``mechanism_model``), which is what the model-mismatch analysis exercises.

One walker, `EnumeratedMechanism.walk`, visits the prefix tree of produced
outputs a level at a time: every node at depth d processes the same
position, so a `NodeBatch` stores many nodes flat, one entry per (node,
support row), and the predictive, release and step tables of the whole
batch are single array operations.  The per-node `predictive`,
`release_table` and `step_factor` are their one-node case; they remain as
the one-node tables for `EnumeratedMechanism.mask`, the conditional query
(`EnumeratedMechanism.conditional`), `bounds.upper_bound_rate` and the
tests, which replay them along single paths.  The release probabilities
themselves come from one rule, `masking.release_ratios`, here and in the
HMM session alike.  A branch is entered only when its true-model weight
stays positive.  Batches are cut at node boundaries and walked depth first,
so the walk's live arrays stay within ``hmm.BELIEF_BUDGET_BYTES``.  The
output law, the stepwise-minima rate, the minimizer-stability certificate
and the parity-rule check are per-batch reductions over it.

Conventions:
  * the minimum ranges over sensitive assignments that are possible under
    the mechanism's model in the current context; positions in the
    sensitive set are erased with probability one unconditionally;
  * a zero-probability context (ratio 0/0) erases with probability one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import hmm as _hmm
from .distributions import (
    HmmModel,
    SequenceModel,
    assignment_index,
    row_codes,
    sensitive_assignments,
    validate_sequence,
)
from .errors import CapacityError, ImpossibleContextError, InputError
from .info import mutual_information, sample_stderr
from .masking import (
    STAR,
    MaskedSequence,
    Ordering,
    TranscriptEntry,
    _validate_sensitive,
    release_ratios,
)

#: Cap on the number of distinct output sequences visited by exact
#: composition walks (and, times n, on the prefix nodes of the stepwise
#: rate); read at call time.
LEAF_BUDGET = 1 << 17

#: Upper bounds on what one walk batch holds at its peak: bytes per entry
#: (its index and weight arrays, their temporaries and its children; about
#: 150 measured) and float64 tables per (node, hypothesis, symbol).
#: `EnumeratedMechanism.walk` sizes its batches from them.
_ENTRY_BYTES = 256
_TABLES_PER_NODE = 8


class EnumeratedMechanism:
    """Exact mechanism composition over an enumerated sequence space.

    Parameters
    ----------
    model : SequenceModel
        True data-generating distribution.
    K : iterable of int
        Sensitive positions (0-based).
    mechanism_model : SequenceModel, optional
        Distribution the mechanism believes in; defaults to ``model``.

    The enumerated space is capped by ``distributions.ENUMERATION_BUDGET``,
    the outputs of one walk by ``LEAF_BUDGET`` and a walk batch's arrays by
    ``hmm.BELIEF_BUDGET_BYTES``; each is read when used, so a test can
    shrink it with ``monkeypatch``.
    """

    def __init__(self, model: SequenceModel, K, mechanism_model=None):
        self.model = model
        self.mech_model = mechanism_model if mechanism_model is not None else model
        if self.mech_model.arities != model.arities:
            raise InputError("model and mechanism_model must share shape")
        self.n = model.n
        self.arities = model.arities
        self.K = _validate_sensitive(K, self.n)

        space, p = model.joint_table()
        if self.mech_model is model:
            q = p
        else:
            _, q = self.mech_model.joint_table()
        keep = (p > 0) | (q > 0)
        self.space = space[keep]
        self.p = p[keep]
        self.q = q[keep]
        self._row_lookup = np.full(space.shape[0], -1, dtype=np.int64)
        self._row_lookup[np.flatnonzero(keep)] = np.arange(self.space.shape[0])

        self.u_values = sensitive_assignments(self.arities, self.K)
        self.num_u = len(self.u_values)
        self.u_codes = row_codes(self.space[:, list(self.K)],
                                 [self.arities[k] for k in self.K])
        self.q_prior = np.bincount(self.u_codes, weights=self.q,
                                   minlength=self.num_u)
        self.p_prior = np.bincount(self.u_codes, weights=self.p,
                                   minlength=self.num_u)

    # -- per-node tables -----------------------------------------------------
    #
    # Each table is computed for a batch of nodes of the prefix tree that
    # sit at the same position, stored flat: entry e is support row
    # ``row[e]`` of node ``node[e]``.  ``row`` may be a slice; the one-node
    # primitives below pass node 0 and every row.

    def _predictive(self, pos: int, nodes: int, node, row, wq):
        """Per-node (cond, totals), shapes (nodes, num_u, arity) and
        (nodes, num_u); see `predictive`."""
        arity = self.arities[pos]
        keys = ((node * self.num_u + self.u_codes[row]) * arity
                + self.space[row, pos])
        sums = np.bincount(keys, weights=wq,
                           minlength=nodes * self.num_u * arity)
        sums = sums.reshape(nodes, self.num_u, arity)
        totals = sums.sum(axis=2)
        cond = np.full_like(sums, np.nan)
        np.divide(sums, totals[..., None], out=cond, where=totals[..., None] > 0)
        return cond, totals

    def _release(self, cond: np.ndarray, totals: np.ndarray, pos: int):
        """Per-node (mins, ratios), shapes (nodes, arity) and
        (nodes, num_u, arity); see `release_table`."""
        live = totals > 0
        if pos in self.K:
            mins = np.zeros((cond.shape[0], cond.shape[2]))
        else:
            mins = np.where(live[..., None], cond, np.inf).min(axis=1)
            mins[~live.any(axis=1)] = 0.0
        return mins, release_ratios(mins[:, None, :], cond)

    def _step_factors(self, pos: int, ratios: np.ndarray, node, row):
        """Per-entry weight multipliers (release, erase): releasing the
        entry's own symbol, and erasing it.  Releasing any other symbol
        multiplies by 0."""
        release = ratios[node, self.u_codes[row], self.space[row, pos]]
        return release, 1.0 - release

    # -- primitive queries --------------------------------------------------

    def row_of(self, x) -> int:
        """Row index of sequence x, or -1 if it was filtered out as
        impossible under both models."""
        x = validate_sequence(x, self.arities)
        return int(self._row_lookup[row_codes([x], self.arities)[0]])

    def predictive(self, wq: np.ndarray, pos: int):
        """Per-hypothesis conditional of X_pos given the current weights.

        Returns (cond, totals): ``cond[u, v]`` is the conditional probability
        of symbol v under sensitive assignment u (NaN when u is impossible in
        this context), ``totals[u]`` the unnormalized mass of u.
        """
        cond, totals = self._predictive(pos, 1, 0, slice(None), wq)
        return cond[0], totals[0]

    def release_table(self, cond: np.ndarray, totals: np.ndarray, pos: int):
        """Release probabilities for position pos.

        Returns (mins, ratios): ``mins[v]`` is the over-hypotheses minimum
        conditional of symbol v (also the marginal probability of releasing
        v), ``ratios[u, v]`` the probability of release for a holder of
        assignment u observing symbol v.
        """
        mins, ratios = self._release(cond[None], totals[None], pos)
        return mins[0], ratios[0]

    def step_factor(self, pos: int, y: int, ratios: np.ndarray) -> np.ndarray:
        """Per-sequence weight multiplier for outcome y at position pos."""
        release, erase = self._step_factors(pos, ratios[None], 0, slice(None))
        if y == STAR:
            return erase
        return np.where(self.space[:, pos] == y, release, 0.0)

    # -- single runs ---------------------------------------------------------

    def mask(self, x, ordering: Ordering, rng: np.random.Generator):
        """Mask one sequence; returns (MaskedSequence, transcript)."""
        x = validate_sequence(x, self.arities)
        row = self.row_of(x)
        if row < 0 or self.q[row] == 0.0:
            warnings.warn(
                "input sequence has probability zero under the mechanism's "
                "model; impossible contexts will be erased",
                stacklevel=3,
            )
        u_code = assignment_index([x[k] for k in self.K], self.arities, self.K)
        wq = self.q.copy()
        y = [STAR] * self.n
        transcript = []
        for pos in ordering:
            cond, totals = self.predictive(wq, pos)
            _, ratios = self.release_table(cond, totals, pos)
            r = float(ratios[u_code, x[pos]])
            y[pos] = x[pos] if rng.random() < r else STAR
            wq *= self.step_factor(pos, y[pos], ratios)
            transcript.append(TranscriptEntry(pos, r, y[pos]))
        return MaskedSequence(tuple(y)), tuple(transcript)

    def conditional(self, i: int, u, y_prefix=()) -> np.ndarray:
        """p(X_i | sensitive = u, produced prefix) under the mechanism's
        model; ``y_prefix`` is an ordered sequence of (position, outcome)
        pairs, replayed through `step_factor`.

        Raises `ImpossibleContextError` when the context has probability
        zero.
        """
        if not 0 <= i < self.n:
            raise InputError(f"position {i} out of range")
        u = tuple(int(v) for v in u)
        if len(u) != len(self.K):
            raise InputError("assignment length does not match sensitive set")
        seen = set()
        wq = self.q.copy()
        for pos, val in y_prefix:
            pos = int(pos)
            if pos == i or pos in seen or not 0 <= pos < self.n:
                raise InputError(f"invalid prefix position {pos}")
            if val != STAR and not 0 <= val < self.arities[pos]:
                raise InputError(f"invalid prefix outcome {val} at {pos}")
            seen.add(pos)
            cond, totals = self.predictive(wq, pos)
            _, ratios = self.release_table(cond, totals, pos)
            wq *= self.step_factor(pos, val, ratios)
        cond, totals = self.predictive(wq, i)
        code = assignment_index(u, self.arities, self.K)
        if totals[code] <= 0.0:
            raise ImpossibleContextError(
                f"context (sensitive={u}, prefix) has probability zero")
        return cond[code].copy()

    # -- exact composition ----------------------------------------------------

    def walk(self, ordering: Ordering):
        """Level-synchronous walk of the prefix tree of produced outputs.

        Yields `NodeBatch`es, parents before children.  Every node at depth
        d processes position ``ordering.perm[d]``, so a batch holds many
        nodes and each of its tables is one array operation for all of
        them.  An entry spawns at most two children, the erasure and the
        release of its own symbol; a child node is entered only when its
        true-model weight is positive somewhere, and a matched engine
        shares ``wp`` as ``wq``.  Leaves (depth n) come with ``pos`` and the
        tables set to None.

        Batches are cut at node boundaries and walked depth first, so the
        batch in hand with its temporaries, plus the pending batches of
        the shallower depths, stay within ``hmm.BELIEF_BUDGET_BYTES``; a
        node too large for its share of the budget is walked alone.
        """
        matched = self.mech_model is self.model
        rows = self.space.shape[0]
        share = _hmm.BELIEF_BUDGET_BYTES // (self.n + 1)
        stack = [NodeBatch(0, np.zeros((1, 0), dtype=np.int64),
                           np.zeros(rows, dtype=np.int64), np.arange(rows),
                           self.p, self.p if matched else self.q)]
        while stack:
            batch = stack.pop()
            if batch.depth < self.n:
                batch.pos = pos = ordering.perm[batch.depth]
                batch.cond, batch.totals = self._predictive(
                    pos, batch.size, batch.node, batch.row, batch.wq)
                batch.mins, batch.ratios = self._release(
                    batch.cond, batch.totals, pos)
            yield batch
            if batch.pos is not None:
                children = self._children(batch, matched)
                stack.extend(reversed(self._split(children, share)))

    def _children(self, batch: "NodeBatch", matched: bool) -> "NodeBatch":
        """The entered children of every node of ``batch``, in node order,
        symbols ascending and the erasure last within a node."""
        arity = self.arities[batch.pos]
        slots = arity + 1                      # symbols, then the erasure
        release, erase = self._step_factors(batch.pos, batch.ratios,
                                            batch.node, batch.row)
        base = batch.node * slots
        keys = np.concatenate([base + self.space[batch.row, batch.pos],
                               base + arity])
        wp = np.concatenate([batch.wp * release, batch.wp * erase])
        wq = wp if matched else np.concatenate([batch.wq * release,
                                                batch.wq * erase])
        positive = wp > 0
        entered = np.zeros(batch.size * slots, dtype=bool)
        entered[keys[positive]] = True
        # a mismatched engine carries q mass on rows where p = 0
        keep = entered[keys] & (positive if matched else positive | (wq > 0))
        order = np.flatnonzero(keep)
        order = order[np.argsort(keys[order], kind="stable")]
        keys, wp = keys[order], wp[order]
        wq = wp if matched else wq[order]
        row = np.concatenate([batch.row, batch.row])[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        parent, slot = np.divmod(keys[first], slots)
        paths = np.column_stack([batch.paths[parent],
                                 np.where(slot == arity, STAR, slot)])
        return NodeBatch(batch.depth + 1, paths, np.cumsum(first) - 1, row,
                         wp, wq)

    def _split(self, batch: "NodeBatch", share: int) -> list["NodeBatch"]:
        """``batch`` cut at node boundaries into pieces whose walk arrays
        take at most ``share`` bytes each, or one node when it alone is
        larger than half of that."""
        counts = np.bincount(batch.node, minlength=batch.size)
        cost = counts * _ENTRY_BYTES + 8 * (
            _TABLES_PER_NODE * self.num_u * max(self.arities)
            + batch.depth + 1)
        start = np.cumsum(cost) - cost
        piece = start // max(share // 2, 1)
        cuts = np.flatnonzero(piece[1:] != piece[:-1]) + 1
        if cuts.size == 0:
            return [batch] if batch.size else []
        bounds = np.concatenate([[0], cuts, [batch.size]])
        offsets = np.concatenate([[0], np.cumsum(counts)])
        pieces = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            e = slice(offsets[a], offsets[b])
            pieces.append(NodeBatch(batch.depth, batch.paths[a:b],
                                    batch.node[e] - a, batch.row[e],
                                    batch.wp[e], batch.wq[e]))
        return pieces

    def output_distribution(self, ordering: Ordering):
        """Exact joint law of (sensitive values, masked output)."""
        ys, cols, leaves = [], [], 0
        for batch in self.walk(ordering):
            if batch.pos is not None:
                continue
            leaves += batch.size
            if leaves > LEAF_BUDGET:
                raise CapacityError(
                    f"output enumeration exceeded {LEAF_BUDGET} leaves")
            y = np.empty((batch.size, self.n), dtype=np.int64)
            y[:, ordering.perm] = batch.paths
            ys.append(y)
            cols.append(np.bincount(
                batch.node * self.num_u + self.u_codes[batch.row],
                weights=batch.wp, minlength=batch.size * self.num_u,
            ).reshape(batch.size, self.num_u))
        # outputs in tuple order, each a column of a C-ordered matrix
        ys = np.concatenate(ys)
        order = np.lexsort(ys.T[::-1])
        return OutputDistribution(
            self.n, self.K, list(self.u_values),
            list(map(tuple, ys[order].tolist())),
            np.ascontiguousarray(np.concatenate(cols)[order].T))

    def stepwise_minima_rate(self, ordering: Ordering) -> float:
        """Sequential rate as the prefix-expected sum of conditional minima,
        evaluated term by term over the prefix tree.

        Only defined for a mechanism matched to the true model.
        """
        if self.mech_model is not self.model:
            raise InputError("rate identity requires a matched mechanism")
        acc = 0.0
        nodes = 0
        for batch in self.walk(ordering):
            if batch.pos is None:
                continue
            nodes += batch.size
            if nodes > LEAF_BUDGET * self.n:
                raise CapacityError(f"prefix enumeration exceeded "
                                    f"{LEAF_BUDGET * self.n} nodes")
            acc += float(batch.totals.sum(axis=1) @ batch.mins.sum(axis=1))
        return acc / self.n


@dataclass
class NodeBatch:
    """Nodes of the prefix tree at one depth, stored flat.

    Entry e is support row ``row[e]`` of node ``node[e]``, weighted ``wp[e]``
    under the true model and ``wq[e]`` under the mechanism's.  Entries are
    grouped by node and in row order within a node; one whose weights are
    both 0 is dropped.  ``paths[j]`` lists node j's outcomes in processing
    order.  The tables at ``pos`` have the node on their leading axis:
    ``cond`` and ``ratios`` (nodes, num_u, arity), ``totals`` (nodes, num_u)
    and ``mins`` (nodes, arity), as `EnumeratedMechanism.predictive` and
    `EnumeratedMechanism.release_table` give them for one node.
    """

    depth: int
    paths: np.ndarray  # (nodes, depth)
    node: np.ndarray
    row: np.ndarray
    wp: np.ndarray
    wq: np.ndarray
    pos: int | None = None
    cond: np.ndarray | None = None
    totals: np.ndarray | None = None
    mins: np.ndarray | None = None
    ratios: np.ndarray | None = None

    @property
    def size(self) -> int:
        """Number of nodes."""
        return self.paths.shape[0]


@dataclass
class OutputDistribution:
    """Exact joint table p(sensitive assignment, masked output)."""

    n: int
    K: tuple[int, ...]
    u_values: list[tuple[int, ...]]
    y_values: list[tuple[int, ...]]
    matrix: np.ndarray  # (num_u, num_y)

    @property
    def total(self) -> float:
        return float(self.matrix.sum())

    def sensitive_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def output_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=0)

    def expected_erasure_fraction(self) -> float:
        stars = np.array([sum(1 for v in y if v == STAR) for y in self.y_values],
                         dtype=float)
        return float(self.output_marginal() @ stars) / self.n

    def mutual_information_bits(self) -> float:
        return mutual_information(self.matrix / self.total)

    def max_conditional_deviation(self) -> float:
        """max over (u, y) of |p(y | u) - p(y)|, over possible u."""
        pu = self.sensitive_marginal()
        py = self.output_marginal() / self.total
        live = pu > 0
        return float(np.max(np.abs(self.matrix[live] / pu[live, None] - py),
                            initial=0.0))


@dataclass(frozen=True)
class PrivacyAudit:
    max_deviation: float
    mutual_information_bits: float


# ---------------------------------------------------------------------------
# Module-level operations


def conditional_query(model: SequenceModel, i: int, u, K, y_prefix=(),
                      mechanism_model=None) -> np.ndarray:
    """Exact p(X_i | sensitive = u, produced prefix) by enumeration."""
    return EnumeratedMechanism(model, K, mechanism_model).conditional(
        i, u, y_prefix)


def mask_sequence(model: SequenceModel, x, K, ordering: Ordering | None = None,
                  rng: np.random.Generator | None = None, mechanism_model=None):
    """Mask one sequence with the sequential mechanism (reference path)."""
    if rng is None:
        raise InputError("mask_sequence requires a random generator")
    engine = EnumeratedMechanism(model, K, mechanism_model)
    ordering = ordering or Ordering.linear(model.n)
    if len(ordering) != model.n:
        raise InputError("ordering length does not match model")
    return engine.mask(x, ordering, rng)


def exact_output_distribution(model: SequenceModel, K,
                              ordering: Ordering | None = None,
                              mechanism_model=None):
    """Exact joint law of (sensitive values, masked output)."""
    engine = EnumeratedMechanism(model, K, mechanism_model)
    ordering = ordering or Ordering.linear(model.n)
    return engine.output_distribution(ordering)


def achievable_rate_exact(model: SequenceModel, K,
                          ordering: Ordering | None = None) -> float:
    """Exact rate (released fraction) of the mechanism: 1 - E[erasures]/n."""
    dist = exact_output_distribution(model, K, ordering)
    return 1.0 - dist.expected_erasure_fraction()


def rate_from_stepwise_minima(model: SequenceModel, K,
                              ordering: Ordering | None = None) -> float:
    """The sequential-rate expression: the prefix-expected sum of minimum
    conditionals, averaged over positions.  Equals `achievable_rate_exact`."""
    engine = EnumeratedMechanism(model, K)
    ordering = ordering or Ordering.linear(model.n)
    return engine.stepwise_minima_rate(ordering)


def achievable_rate_mc(model: SequenceModel, K, ordering: Ordering | None = None,
                       runs: int = 1000, rng: np.random.Generator | None = None):
    """Monte-Carlo rate estimate: (mean of 1 - e(Y)/n, standard error)."""
    if rng is None:
        raise InputError("achievable_rate_mc requires a random generator")
    if runs < 1:
        raise InputError("runs must be >= 1")
    ordering = ordering or Ordering.linear(model.n)
    if isinstance(model, HmmModel) and ordering.is_linear:
        return _hmm.erasure_rate_mc(model, K, runs, rng)
    engine = EnumeratedMechanism(model, K)
    rates = np.empty(runs)
    for r in range(runs):
        x = model.sample(rng)
        masked, _ = engine.mask(x, ordering, rng)
        rates[r] = 1.0 - masked.erasure_rate
    return float(rates.mean()), sample_stderr(rates)


def verify_privacy_exact(model: SequenceModel, K,
                         ordering: Ordering | None = None,
                         mechanism_model=None) -> PrivacyAudit:
    """Exact privacy audit: worst-case conditional deviation and mutual
    information between sensitive values and the masked output."""
    dist = exact_output_distribution(model, K, ordering, mechanism_model)
    return PrivacyAudit(dist.max_conditional_deviation(),
                        dist.mutual_information_bits())
