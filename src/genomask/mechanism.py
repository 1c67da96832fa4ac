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
`mask_sequence` masks a chain in the linear order as a batch of one
through `hmm._mask_in_lockstep`, and any other model or order through
`EnumeratedMechanism.mask`; both draw one uniform per position.

One walker, `EnumeratedMechanism.walk`, visits the prefix tree of produced
outputs a level at a time: every node at depth d processes the same
position, so a `NodeBatch` stores many nodes flat, one entry per (node,
support row), and the predictive and release tables of the whole batch are
single array operations.  Each entry's flat cell (node, hypothesis, own
symbol) sums it into the first and reads its step factor off the second.
The per-node `predictive`, `release_table` and `step_factor` are their
one-node case, for the prior table of the converse bound
(`EnumeratedMechanism.sensitive_conditionals`) and the tests.  The release
probabilities come from one rule, `masking.release_rule`, here and in the
HMM session alike.  Batches are cut at node boundaries and walked depth
first, so the walk's live arrays stay within
``distributions.BELIEF_BUDGET_BYTES``.

The walk has two child rules.  Expanding every child whose true-model
weight stays positive gives the output law, the stepwise-minima rate, the
minimizer-stability certificate and the parity-rule check as per-batch
reductions.  Following runs, each run enters one child per node, drawn
from a law over its symbols: the minima for the sampled rate, since
P(Y_i = v | prefix, U = u) = mins_i(v) for every u, and x's own release
probability for `mask`.

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

from . import distributions
from . import hmm as _hmm
from .distributions import (
    SequenceModel,
    assignment_index,
    row_codes,
    sensitive_assignments,
    validate_sequence,
)
from .errors import CapacityError, InputError
from .info import mutual_information
from .masking import (
    STAR,
    MaskedSequence,
    Ordering,
    TranscriptEntry,
    _validate_ordering,
    _validate_sensitive,
    output_codes,
    release_rule,
)

#: Cap on the prefix-tree nodes of each depth of a walk, and so on its
#: outputs, since every entered node has an entered child; read at call time.
LEAF_BUDGET = 1 << 17

#: Upper bounds on what one walk batch holds at its peak: bytes per entry
#: (its index, cell and weight arrays, their temporaries and its children;
#: 140 measured, 152 with a mismatched engine) and float64 tables per
#: (node, hypothesis, symbol).
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
    a walk batch's arrays by ``distributions.BELIEF_BUDGET_BYTES``, and the
    walk itself caps every depth at ``LEAF_BUDGET`` nodes; each is read when
    used, so a test can shrink it with ``monkeypatch``.
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
        q = p if self.mech_model is model else self.mech_model.joint_probs(space)
        keep = (p > 0) | (q > 0)
        self.space = space[keep]
        self.p = p[keep]
        self.q = q[keep]

        self.u_values = sensitive_assignments(self.arities, self.K)
        self.num_u = len(self.u_values)
        self.u_codes = row_codes(self.space[:, list(self.K)],
                                 [self.arities[k] for k in self.K])
        self.q_prior = np.bincount(self.u_codes, weights=self.q,
                                   minlength=self.num_u)

    # -- per-node tables -----------------------------------------------------
    #
    # Each table is computed for a batch of nodes of the prefix tree that
    # sit at the same position, stored flat: entry e is support row
    # ``row[e]`` of node ``node[e]``.  ``row`` may be a slice; the one-node
    # primitives below pass node 0 and every row.

    def _cells(self, pos: int, node, row):
        """Per-entry flat index (node, hypothesis, own symbol) into the
        (nodes, num_u, arity) tables at pos."""
        arity = self.arities[pos]
        return ((node * self.num_u + self.u_codes[row]) * arity
                + self.space[:, pos][row])

    def _predictive(self, pos: int, nodes: int, cell, wq):
        """Per-node (cond, totals), shapes (nodes, num_u, arity) and
        (nodes, num_u), from the entries' `_cells`; see `predictive`."""
        arity = self.arities[pos]
        sums = np.bincount(cell, weights=wq,
                           minlength=nodes * self.num_u * arity)
        sums = sums.reshape(nodes, self.num_u, arity)
        totals = sums.sum(axis=2)
        cond = np.full(sums.shape, np.nan)    # an empty node sums to int 0
        np.divide(sums, totals[..., None], out=cond, where=totals[..., None] > 0)
        return cond, totals

    # -- primitive queries --------------------------------------------------

    def predictive(self, wq: np.ndarray, pos: int):
        """Per-hypothesis conditional of X_pos given the current weights.

        Returns (cond, totals): ``cond[u, v]`` is the conditional probability
        of symbol v under sensitive assignment u (NaN when u is impossible in
        this context), ``totals[u]`` the unnormalized mass of u.
        """
        cond, totals = self._predictive(
            pos, 1, self._cells(pos, 0, slice(None)), wq)
        return cond[0], totals[0]

    def sensitive_conditionals(self) -> np.ndarray:
        """`hmm.sensitive_conditionals` by enumeration, under the mechanism's
        model: (n, num_u, max arity), 0 past a position's arity."""
        out = np.zeros((self.n, self.num_u, max(self.arities)))
        for pos, arity in enumerate(self.arities):
            out[pos, :, :arity] = self.predictive(self.q, pos)[0]
        return out

    def release_table(self, cond: np.ndarray, totals: np.ndarray, pos: int):
        """Release probabilities for position pos.

        Returns (mins, ratios): ``mins[v]`` is the over-hypotheses minimum
        conditional of symbol v (also the marginal probability of releasing
        v), ``ratios[u, v]`` the probability of release for a holder of
        assignment u observing symbol v.
        """
        return release_rule(cond, totals > 0, pos in self.K)

    def step_factor(self, pos: int, y: int, ratios: np.ndarray) -> np.ndarray:
        """Per-sequence weight multiplier for outcome y at position pos."""
        release = ratios.reshape(-1)[self._cells(pos, 0, slice(None))]
        if y == STAR:
            return 1.0 - release
        return np.where(self.space[:, pos] == y, release, 0.0)

    # -- single runs ---------------------------------------------------------

    def mask(self, x, ordering: Ordering, rng: np.random.Generator):
        """Mask one sequence; returns (MaskedSequence, transcript).

        One run of `walk`, on the uniforms ``rng.random((n, 1))``: at each
        position the law r·1[v = x_pos], r the release probability of x's
        hypothesis, releases x_pos exactly when the uniform is below r."""
        x = validate_sequence(x, self.arities)
        u = assignment_index([x[k] for k in self.K], self.arities, self.K)

        def law(b):
            at_x = np.arange(self.arities[b.pos]) == x[b.pos]
            return b.ratios[:, u, x[b.pos], None] * at_x

        r, y = [], np.empty(self.n, dtype=np.int64)
        for batch in self.walk(ordering, law, rng.random((self.n, 1))):
            if batch.pos is None:
                y[list(ordering)] = batch.paths[0]
            else:
                r.append(float(batch.ratios[0, u, x[batch.pos]]))
        y = y.tolist()
        return MaskedSequence(tuple(y)), tuple(
            TranscriptEntry(pos, p, y[pos]) for pos, p in zip(ordering, r))

    # -- exact composition ----------------------------------------------------

    def walk(self, ordering: Ordering, law=None, uniforms=None):
        """Level-synchronous walk of the prefix tree of produced outputs.

        Yields `NodeBatch`es, parents before children.  Every node at depth
        d processes position ``ordering.perm[d]``, so a batch holds many
        nodes and each of its tables is one array operation for all of
        them.  An entry spawns at most two children, the erasure and the
        release of its own symbol; a matched engine shares ``wp`` as
        ``wq``.  Leaves (depth n) have ``pos`` and the tables None.

        Without ``law`` a child node is entered when its true-model weight
        is positive somewhere.  With ``law``, a callable giving each batch
        a (nodes, arity) law over its symbols, the walk follows the runs of
        ``uniforms`` (n, runs) instead: every run enters one child of its
        node, drawn from the node's row by `hmm._draw`'s rule on
        ``uniforms[depth, run]``, the erasure taking the mass the row
        leaves.  A drawn child is entered whatever its weights.  A batch's
        ``run`` lists its runs grouped by node, ``run_node`` their nodes.

        Batches are cut at node boundaries and walked depth first, so the
        batch in hand with its temporaries, plus the pending batches of
        the shallower depths, stay within ``distributions.BELIEF_BUDGET_BYTES``;
        a node too large for its share of the budget is walked alone.  A
        draw is indexed by (depth, run), so the cuts never move one.  A
        depth past ``LEAF_BUDGET`` nodes raises `CapacityError`.
        """
        matched = self.mech_model is self.model
        rows = self.space.shape[0]
        share = distributions.BELIEF_BUDGET_BYTES // (self.n + 1)
        run = np.arange(0 if uniforms is None else uniforms.shape[1])
        stack = [NodeBatch(0, np.zeros((1, 0), dtype=np.int64),
                           np.zeros(rows, dtype=np.int64), np.arange(rows),
                           self.p, self.p if matched else self.q,
                           run, np.zeros_like(run))]
        nodes = [0] * (self.n + 1)
        while stack:
            batch = stack.pop()
            nodes[batch.depth] += batch.size
            if nodes[batch.depth] > LEAF_BUDGET:
                raise CapacityError(f"a walk depth exceeded {LEAF_BUDGET} nodes")
            if batch.depth < self.n:
                batch.pos = pos = ordering.perm[batch.depth]
                batch.cell = self._cells(pos, batch.node, batch.row)
                batch.cond, batch.totals = self._predictive(
                    pos, batch.size, batch.cell, batch.wq)
                batch.mins, batch.ratios = release_rule(
                    batch.cond, batch.totals > 0, pos in self.K)
            yield batch
            if batch.pos is not None:
                children = self._children(batch, matched, law, uniforms)
                stack.extend(reversed(self._split(children, share)))

    def _children(self, batch: "NodeBatch", matched: bool, law,
                  uniforms) -> "NodeBatch":
        """The entered children of every node of ``batch``, or with ``law``
        the children its runs draw (see `walk`), in node order, symbols
        ascending and the erasure last within a node."""
        arity = self.arities[batch.pos]
        slots = arity + 1                      # symbols, then the erasure
        release = batch.ratios.reshape(-1)[batch.cell]
        erase = 1.0 - release
        base = batch.node * slots
        keys = np.concatenate([base + self.space[:, batch.pos][batch.row],
                               base + arity])
        wp = np.concatenate([batch.wp * release, batch.wp * erase])
        wq = wp if matched else np.concatenate([batch.wq * release,
                                                batch.wq * erase])
        keep = wp > 0
        if law is not None:
            y, _ = _hmm._draw(law(batch)[batch.run_node],
                              uniforms[batch.depth, batch.run])
            drawn = batch.run_node * slots + np.where(y == STAR, arity, y)
        if law is not None or not matched:
            # q mass on rows where p = 0 goes only into children p enters,
            # or the runs draw
            entered = np.zeros(batch.size * slots, dtype=bool)
            entered[keys[keep] if law is None else drawn] = True
            keep = entered[keys] & (keep | (wq > 0))
        order = np.flatnonzero(keep)
        order = order[np.argsort(keys[order], kind="stable")]
        keys, wp = keys[order], wp[order]
        wq = wp if matched else wq[order]
        row = np.concatenate([batch.row, batch.row])[order]
        run, run_node = batch.run, batch.run_node
        if law is None:
            first = np.ones(keys.size, dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            heads, node = keys[first], np.cumsum(first) - 1
        else:   # a drawn child may hold no entry
            heads, run_node = np.unique(drawn, return_inverse=True)
            node = np.searchsorted(heads, keys)
            by_node = np.argsort(run_node, kind="stable")
            run, run_node = run[by_node], run_node[by_node]
        parent, slot = np.divmod(heads, slots)
        paths = np.column_stack([batch.paths[parent],
                                 np.where(slot == arity, STAR, slot)])
        return NodeBatch(batch.depth + 1, paths, node, row, wp, wq, run,
                         run_node)

    def _split(self, batch: "NodeBatch", share: int) -> list["NodeBatch"]:
        """``batch`` cut at node boundaries into pieces whose walk arrays
        take at most ``share`` bytes each, or one node when it alone is
        larger than half of that; a run costs what an entry does."""
        node_bytes = 8 * (_TABLES_PER_NODE * self.num_u * max(self.arities)
                          + batch.depth + 1)
        half = max(share // 2, 1)
        if ((batch.node.size + batch.run.size) * _ENTRY_BYTES
                + batch.size * node_bytes <= half):
            return [batch] if batch.size else []   # as the cut below would
        counts = np.bincount(batch.node, minlength=batch.size)
        cost = (counts + np.bincount(batch.run_node, minlength=batch.size)
                ) * _ENTRY_BYTES + node_bytes
        piece = (np.cumsum(cost) - cost) // half
        cuts = np.flatnonzero(piece[1:] != piece[:-1]) + 1
        bounds = np.concatenate([[0], cuts, [batch.size]])
        offsets = np.concatenate([[0], np.cumsum(counts)])
        runs = np.searchsorted(batch.run_node, bounds)
        pieces = []
        for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            e, r = slice(offsets[a], offsets[b]), slice(runs[j], runs[j + 1])
            pieces.append(NodeBatch(batch.depth, batch.paths[a:b],
                                    batch.node[e] - a, batch.row[e],
                                    batch.wp[e], batch.wq[e], batch.run[r],
                                    batch.run_node[r] - a))
        return pieces

    def output_distribution(self, ordering: Ordering):
        """Exact joint law of (sensitive values, masked output)."""
        ys, cols = [], []
        for batch in self.walk(ordering):
            if batch.pos is not None:
                continue
            y = np.empty((batch.size, self.n), dtype=np.int64)
            y[:, ordering.perm] = batch.paths
            ys.append(y)
            cols.append(np.bincount(
                batch.node * self.num_u + self.u_codes[batch.row],
                weights=batch.wp, minlength=batch.size * self.num_u,
            ).reshape(batch.size, self.num_u))
        # outputs in tuple order, columns of a C matrix
        ys = np.concatenate(ys)
        order = np.argsort(output_codes(ys, self.arities))
        return OutputDistribution(
            self.n, self.K, list(self.u_values), ys[order],
            np.ascontiguousarray(np.concatenate(cols)[order].T))

    def stepwise_minima_rate(self, ordering: Ordering) -> float:
        """Sequential rate as the prefix-expected sum of conditional minima,
        evaluated term by term over the prefix tree.

        Only defined for a mechanism matched to the true model.
        """
        if self.mech_model is not self.model:
            raise InputError("rate identity requires a matched mechanism")
        acc = 0.0
        for batch in self.walk(ordering):
            if batch.pos is None:
                continue
            acc += float(batch.totals.sum(axis=1) @ batch.mins.sum(axis=1))
        return acc / self.n


@dataclass
class NodeBatch:
    """Nodes of the prefix tree at one depth, stored flat.

    Entry e is support row ``row[e]`` of node ``node[e]``, weighted ``wp[e]``
    under the true model and ``wq[e]`` under the mechanism's.  Entries are
    grouped by node and in row order within a node; one whose weights are
    both 0 is dropped.  ``paths[j]`` lists node j's outcomes in processing
    order.  A walk that follows runs lists the batch's runs in ``run``,
    grouped by node, and their nodes in ``run_node``; both are empty
    otherwise.  The tables at ``pos`` have the node on their leading axis:
    ``cond`` and ``ratios`` (nodes, num_u, arity), ``totals`` (nodes, num_u)
    and ``mins`` (nodes, arity), as `EnumeratedMechanism.predictive` and
    `EnumeratedMechanism.release_table` give them for one node.  ``cell[e]``
    is entry e's flat index into the (nodes, num_u, arity) tables: its
    node, its row's hypothesis and its row's symbol at ``pos``.
    """

    depth: int
    paths: np.ndarray  # (nodes, depth)
    node: np.ndarray
    row: np.ndarray
    wp: np.ndarray
    wq: np.ndarray
    run: np.ndarray
    run_node: np.ndarray
    pos: int | None = None
    cell: np.ndarray | None = None
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
    """Exact joint table p(sensitive assignment, masked output); column j
    of ``matrix`` is output ``ys[j]``, and ``ys`` is sorted by rows."""

    n: int
    K: tuple[int, ...]
    u_values: list[tuple[int, ...]]
    ys: np.ndarray      # (num_y, n) int64
    matrix: np.ndarray  # (num_u, num_y)

    @classmethod
    def from_mechanism(cls, model: SequenceModel, K, xs: np.ndarray,
                       ys: np.ndarray, w: np.ndarray) -> "OutputDistribution":
        """Law of a mechanism that releases sequence ``xs[j]`` as ``ys[j]``
        with probability ``w[j]``, the inputs drawn from ``model``: p(x) is
        ``model.joint_probs(xs)``, each row checked as one of its sequences."""
        K = _validate_sensitive(K, model.n)
        us = sensitive_assignments(model.arities, K)
        row_codes(xs, model.arities)        # InputError unless valid rows
        px = model.joint_probs(xs)
        keep = (px > 0) & (w > 0)
        # a 1-D unique of codes: far faster than np.unique(axis=0) on rows
        codes = output_codes(ys[keep], model.arities)
        _, first, col = np.unique(codes, return_index=True, return_inverse=True)
        ys = ys[keep][first]
        u = row_codes(xs[keep][:, list(K)], [model.arities[k] for k in K])
        num_y = ys.shape[0]
        matrix = np.bincount(u * num_y + col.reshape(-1),
                             weights=px[keep] * w[keep],
                             minlength=len(us) * num_y).reshape(len(us), num_y)
        return cls(model.n, K, us, ys, matrix)

    @property
    def y_values(self) -> list[tuple[int, ...]]:
        """The outputs as tuples."""
        return list(map(tuple, self.ys.tolist()))

    @property
    def total(self) -> float:
        return float(self.matrix.sum())

    def sensitive_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def output_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=0)

    def expected_erasure_fraction(self) -> float:
        return float(self.output_marginal() @ (self.ys == STAR).sum(axis=1)
                     / self.n)

    def mutual_information_bits(self) -> float:
        return mutual_information(self.matrix / self.total)

    def max_conditional_deviation(self) -> float:
        """max over (u, y) of |p(y | u) - p(y)|, over possible u."""
        pu = self.sensitive_marginal()
        py = self.output_marginal() / self.total
        live = pu > 0
        return float(np.max(np.abs(self.matrix[live] / pu[live, None] - py),
                            initial=0.0))


# ---------------------------------------------------------------------------
# Module-level operations


def mask_sequence(model: SequenceModel, x, K, ordering: Ordering | None = None,
                  *, rng: np.random.Generator):
    """Mask one sequence; returns (MaskedSequence, transcript).  A chain in
    the linear order is masked as a batch of one by `hmm._mask_in_lockstep`
    (`InputError` for a sensitive value of prior zero), any other model or
    order by `EnumeratedMechanism.mask`; both draw one uniform a position.
    Then an x of probability zero warns: its impossible contexts erased."""
    ordering = _validate_ordering(ordering, model.n)
    x = validate_sequence(x, model.arities)
    chain = model.hidden_chain()
    if chain is None or not ordering.is_linear:
        result = EnumeratedMechanism(model, K).mask(x, ordering, rng)
    else:
        (y,), (r,) = _hmm._mask_in_lockstep(model, [x], K, rng, None)
        result = MaskedSequence(tuple(y.tolist())), tuple(map(
            TranscriptEntry, range(model.n), r.tolist(), y.tolist()))
    # on a chain log p(x), which a long x does not underflow
    if (model.joint_prob(x) == 0.0 if chain is None
            else chain.log_probs([x])[0] == -np.inf):
        warnings.warn("input sequence has probability zero under the model; "
                      "impossible contexts will be erased", stacklevel=2)
    return result


def exact_output_distribution(model: SequenceModel, K,
                              ordering: Ordering | None = None,
                              mechanism_model=None):
    """Exact joint law of (sensitive values, masked output)."""
    engine = EnumeratedMechanism(model, K, mechanism_model)
    return engine.output_distribution(_validate_ordering(ordering, model.n))


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
    return engine.stepwise_minima_rate(_validate_ordering(ordering, model.n))


def achievable_rate_mc(model: SequenceModel, K, ordering: Ordering | None = None,
                       runs: int = 1000, *, rng: np.random.Generator):
    """Monte-Carlo rate estimate: (mean, standard error) of the per-run
    (1/n) sum_i sum_v mins_i(v), where mins_i(v) is the least conditional of
    v over the hypotheses given the run's produced prefix.

    That sum is the probability of releasing position i given the prefix
    and the sensitive values, so by the tower property the estimate has the
    mean of the released fraction 1 - e(Y)/n; its stderr is that of the
    per-run minima sums.  No x is drawn: the runs draw each output from the
    minima themselves.  A chain in the linear order goes through
    `hmm.erasure_rate_mc`; any other model or order walks each
    `hmm._monte_carlo` block as the runs of one `EnumeratedMechanism.walk`
    on ``rng.random((n, block))``.
    """
    ordering = _validate_ordering(ordering, model.n)
    if model.hidden_chain() is not None and ordering.is_linear:
        return _hmm.erasure_rate_mc(model, K, runs, rng)
    engine = EnumeratedMechanism(model, K)

    def score(count):
        mass = np.zeros(count)
        for batch in engine.walk(ordering, lambda b: b.mins,
                                 rng.random((model.n, count))):
            if batch.pos is not None:
                mass[batch.run] += batch.mins.sum(axis=1)[batch.run_node]
        return mass / model.n

    (mean,), (err,) = _hmm._monte_carlo(runs, score)
    return float(mean), float(err)
