"""Rate bounds, the minimizer-stability certificate, and the exact
linear-program optimum on tiny instances.

The converse bound averages, over positions, the total mass of each symbol
under its least favourable sensitive assignment.  For first-order Markov
chains with a single leading sensitive position the sequential mechanism
meets this bound exactly; `markov_sufficient_condition_check` verifies the
property that makes this work — some prior minimizer of each symbol's
conditional stays a minimizer under every reachable produced prefix.

The LP optimum ranges over every faithful private mechanism.  With exactly
two positive-prior sensitive assignments (one binary sensitive position, as
in the paper's Fig. 5) it is an optimal transport between the sequence's
two conditional laws under the Hamming cost, an LP with half the variables
and a fifth of the rows of the general one at n = 6; `lp_optimal_rate`
solves the transport whenever it is the smaller LP.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import hmm as _hmm
from .distributions import SequenceModel, first_seen_ranks, row_codes
from .masking import (
    STAR,
    Ordering,
    _validate_ordering,
    _validate_sensitive,
    output_codes,
    symbols_text,
)
from .mechanism import EnumeratedMechanism, OutputDistribution
from .simplex import linear_program

#: Absolute tie tolerance of `markov_sufficient_condition_check`: an
#: assignment within this of a node's minimum counts as a minimizer.
TIE_TOL = 1e-10

#: `lp_optimal_rate` returns status "capacity" when the LP it would solve
#: first has more variables than this.  Its sparse constraint matrix holds
#: at most three nonzeros per variable in the subset LP and two in the
#: transport LP.
LP_VAR_BUDGET = 20_000

#: Largest certified duality gap of an "optimal" `lp_optimal_rate` answer:
#: the tolerance of its two primal checks.
LP_GAP_TOL = 1e-8


def upper_bound_rate(model: SequenceModel, K) -> float:
    """Converse bound: (1/n) sum_i sum_v min_u p(x_i = v | sensitive = u).

    The minimum skips the NaN rows (impossible assignments) of the table:
    `hmm.sensitive_conditionals` with a hidden chain, else the enumerated one.
    """
    if model.hidden_chain() is not None:
        cond = _hmm.sensitive_conditionals(model, K)
    else:
        cond = EnumeratedMechanism(model, K).sensitive_conditionals()
    return float(np.nanmin(cond, axis=1).sum()) / model.n


def _argmin_masks(cond: np.ndarray) -> np.ndarray:
    """Entries within ``TIE_TOL`` of their minimum over axis 1; NaN never."""
    low = functools.reduce(np.fmin, np.moveaxis(cond, 1, 0))
    return cond <= low[:, None] + TIE_TOL


def markov_sufficient_condition_check(model: SequenceModel, K,
                                      ordering: Ordering | None = None) -> bool:
    """Is some prior minimizer a minimizer under every reachable produced
    prefix?

    For each (position, symbol) the candidates start as the prior argmin
    set and are intersected with the argmin set of every node of the
    prefix tree at that position, across all branches; the check fails
    only when a candidate set becomes empty, and stops at the first walk
    batch that empties one.  Ties are taken to ``TIE_TOL``.

    By privacy p(v | u) = sum_y p(y) p(v | u, y), so a common minimizer
    makes the expected minimum equal the prior minimum and the sequential
    mechanism meet the converse bound.  True for first-order Markov chains
    with K = {first position}; explicit models can violate it, which is
    exactly when the mechanism may fall short of the bound.
    """
    ordering = _validate_ordering(ordering, model.n)
    engine = EnumeratedMechanism(model, K)
    candidates = _argmin_masks(engine.sensitive_conditionals())
    for batch in engine.walk(ordering):
        if batch.pos is None:
            continue
        sets = candidates[batch.pos, :, :batch.cond.shape[2]]
        sets &= _argmin_masks(batch.cond).all(axis=0)
        if not sets.any(axis=0).all():
            return False
    return True


@dataclass
class LpSolution:
    """Optimal faithful private mechanism found by linear programming: it
    releases ``xs[j]`` as ``ys[j]`` with probability ``w[j]`` ((rows, n)
    int64, (rows,) float; None unless optimal).  Each (x, y) pair is one
    row, its weights summed: first the support's pairs of weight above
    1e-12, then all-erased rows for sequences of prior zero.  ``gap``
    bounds how far the mechanism's erased fraction is above the optimum,
    by LP duality; NaN when the solve ended without an answer or the
    answer failed a primal check."""

    optimal_rate: float
    # optimal | capacity | numerical.  Never infeasible: erasing everything
    # is a feasible mechanism, so a solver verdict of infeasible is a
    # numerical failure.
    status: str
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None
    w: np.ndarray | None = None
    gap: float = float("nan")

    def to_json(self) -> str:
        # "*" sorts before the digits, so the triples sort as the tuples
        rows = () if self.w is None else zip(self.xs, self.ys, self.w.tolist())
        triples = sorted([symbols_text(x), symbols_text(y), p]
                         for x, y, p in rows)
        return json.dumps({"rate": self.optimal_rate, "status": self.status,
                           "mechanism": triples})


class _Table(NamedTuple):
    """A model's joint table: the sequences, their probabilities, each
    sequence's sensitive assignment code u and each assignment's prior."""

    space: np.ndarray
    p: np.ndarray
    u: np.ndarray
    p_u: np.ndarray


def _table(model: SequenceModel, K: tuple[int, ...]) -> _Table:
    space, p = model.joint_table()
    dims = [model.arities[k] for k in K]
    u = row_codes(space[:, list(K)], dims)
    return _Table(space, p, u,
                  np.bincount(u, weights=p, minlength=math.prod(dims)))


@dataclass
class _Lp:
    """Minimize cost @ w subject to A w = b, w >= 0, with A's nonzeros in
    ``a`` as `linear_program` takes them.  The variables come in
    consecutive blocks of ``block``, one per sequence, and the last rows
    of b ask each block to sum to 1: the sequence's distribution over
    outputs.  ``balanced`` is a further primal check of the weights, and
    ``release`` turns certified weights into a mechanism's (xs, ys, w)."""

    cost: np.ndarray
    a: tuple[np.ndarray, np.ndarray, np.ndarray]
    b: np.ndarray
    block: int
    release: Callable[[np.ndarray], tuple[np.ndarray, ...]]
    balanced: Callable[[np.ndarray], bool] = lambda w: True


def _masks(n: int, forced: tuple[int, ...]) -> np.ndarray:
    """All erased-position subsets containing `forced`, smallest first, as
    the rows of a boolean array."""
    free = [i for i in range(n) if i not in forced]
    masks = np.zeros((2 ** len(free), n), dtype=bool)
    masks[:, list(forced)] = True
    for mask, erased in zip(masks, itertools.chain.from_iterable(
            itertools.combinations(free, r) for r in range(len(free) + 1))):
        mask[list(erased)] = True
    return masks


def _subset_lp(model: SequenceModel, K: tuple[int, ...], t: _Table) -> _Lp:
    """One variable per (support sequence, erased subset); with every
    sensitive assignment of positive prior, the subsets all contain K."""
    space, p, u_of_row, p_u = t
    u_rank = np.cumsum(p_u > 0) - 1     # rank among positive-prior u
    n_pos = int(u_rank[-1]) + 1
    rows = np.flatnonzero(p > 0)
    masks = _masks(model.n, K if n_pos == p_u.size else ())
    nvars = rows.size * len(masks)

    # variable j = (sequence rows[var_x[j]], mask var_mask[j]), sequences
    # outermost, outputs by first appearance
    var_x = np.repeat(np.arange(rows.size), len(masks))
    var_mask = np.tile(np.arange(len(masks)), rows.size)
    var_row = rows[var_x]
    ys = np.where(masks[var_mask], STAR, space[var_row])
    var_y = first_seen_ranks(output_codes(ys, model.arities))
    cost = p[var_row] * masks.sum(axis=1)[var_mask] / model.n

    n_priv = (n_pos - 1) * (int(var_y.max()) + 1)
    b = np.zeros(n_priv + rows.size)
    # consecutive positive-prior assignments t, t+1 must give each output
    # the same conditional mass: +p(x | u_t) on row t, -p(x | u_{t+1})
    rank = u_rank[u_of_row[var_row]]
    weight = p[var_row] / p_u[u_of_row[var_row]]
    cell = var_y * (n_pos - 1) + rank
    j = np.arange(nvars)
    up, down = rank < n_pos - 1, rank > 0
    a = (np.concatenate([cell[up], cell[down] - 1, n_priv + var_x]),
         np.concatenate([j[up], j[down], j]),
         np.concatenate([weight[up], -weight[down], np.ones(nvars)]))
    b[n_priv:] = 1.0

    def release(w):
        chosen = np.flatnonzero(w > 1e-12)
        return space[var_row[chosen]], ys[chosen], w[chosen]

    return _Lp(cost, a, b, len(masks), release)


def _transport_lp(model: SequenceModel, t: _Table, a_rows: np.ndarray,
                  b_rows: np.ndarray) -> _Lp:
    """Couple p(x | u_a) and p(x' | u_b), the laws of the two positive-prior
    assignments on their supports ``a_rows`` and ``b_rows``: w[i, j] is the
    chance that x_i is paired with x'_j, and a pair costs its Hamming
    distance.  Variables run i outermost; the coupling rows, one per x'_j,
    come before the sum-to-one rows, one per x_i."""
    space, p, u, p_u = t
    pa = p[a_rows] / p_u[u[a_rows[0]]]
    pb = p[b_rows] / p_u[u[b_rows[0]]]
    na, nb = a_rows.size, b_rows.size
    differ = space[a_rows][:, None, :] != space[b_rows][None, :, :]
    cost = (pa[:, None] * differ.sum(axis=2) / model.n).reshape(-1)
    j = np.arange(na * nb)
    a = (np.concatenate([j % nb, nb + j // nb]), np.concatenate([j, j]),
         np.concatenate([np.repeat(pa, nb), np.ones(j.size)]))
    b = np.concatenate([pb, np.ones(na)])

    def balanced(w):
        # x'_j releases y_ij with weight w[i, j] p(x_i | u_a) / p(x'_j | u_b)
        return bool(np.all(np.abs(pa @ w.reshape(na, nb) / pb - 1.0)
                           <= 1e-8))

    def release(w):
        # x_i and x'_j are both released as x_i with the positions where
        # they differ erased; each side keeps its weights above 1e-12,
        # rescaled to sum to 1
        side_a = w.reshape(na, nb)
        side_b = side_a * pa[:, None] / pb
        side_a, side_b = (np.where(s > 1e-12, s, 0.0)
                          for s in (side_a, side_b))
        side_a /= side_a.sum(axis=1, keepdims=True)
        side_b /= side_b.sum(axis=0)
        (ia, ja), (ib, jb) = np.nonzero(side_a), np.nonzero(side_b)
        i, j = np.concatenate([ia, ib]), np.concatenate([ja, jb])
        x_row = np.concatenate([a_rows[ia], b_rows[jb]])
        ys = np.where(differ[i, j], STAR, space[a_rows[i]])
        # one row per distinct (x, y), by x: a larger alphabet can release
        # x_i as the same y for two partners
        y_rank = first_seen_ranks(output_codes(ys, model.arities))
        _, first, pair = np.unique(x_row * (int(y_rank.max()) + 1) + y_rank,
                                   return_index=True, return_inverse=True)
        weights = np.concatenate([side_a[ia, ja], side_b[ib, jb]])
        return (space[x_row[first]], ys[first],
                np.bincount(pair.reshape(-1), weights=weights))

    return _Lp(cost, a, b, nb, release, balanced)


def _certified(lp: _Lp, res) -> tuple[np.ndarray | None, float]:
    """An optimal run's mechanism weights and their certified gap; no
    weights and a NaN gap when the run fails a primal check."""
    group = np.repeat(np.arange(lp.cost.size // lp.block), lp.block)
    sums = np.bincount(group, weights=res.x)
    if np.any(np.abs(sums - 1.0) > 1e-8):
        return None, float("nan")
    # the solver meets x >= 0 only to its feasibility tolerance (1e-7):
    # drop the small negatives and rescale each sequence's weights to sum
    # to 1, so that the mechanism is a set of distributions
    w = np.maximum(res.x, 0.0)
    w /= np.bincount(group, weights=w)[group]
    erased = float(lp.cost @ w)
    if abs(res.objective - erased) > 1e-8 or not lp.balanced(w):
        return None, float("nan")
    # each sequence's variables are consecutive, in its one row of b = 1
    d = lp.cost - np.bincount(lp.a[1], weights=lp.a[2] * res.y[lp.a[0]],
                              minlength=lp.cost.size)
    low = lp.b @ res.y + np.minimum(d.reshape(-1, lp.block).min(axis=1),
                                    0.0).sum()
    return w, erased - float(low)


def _solve(lp: _Lp, off: np.ndarray) -> LpSolution:
    """``lp`` solved by `linear_program` and certified; the sequences
    ``off`` the support are released all-erased."""
    accepted = []

    def accept(res):
        w, gap = _certified(lp, res)
        if gap <= LP_GAP_TOL:
            accepted.append((w, gap))
        return bool(accepted)

    result = linear_program(lp.cost, lp.a, lp.b, accept)
    if result.status != "optimal":
        return LpSolution(float("nan"), "numerical")
    # `linear_program` returns the run that `accept` took, if any
    w, gap = accepted[0] if accepted else _certified(lp, result)
    rate = 1.0 - result.objective
    if not gap <= LP_GAP_TOL:       # NaN too: a primal check failed
        return LpSolution(rate, "numerical", gap=gap)
    xs, ys, w = lp.release(w)
    return LpSolution(rate, "optimal", np.concatenate([xs, off]),
                      np.concatenate([ys, np.full_like(off, STAR)]),
                      np.concatenate([w, np.ones(off.shape[0])]), gap)


def lp_optimal_rate(model: SequenceModel, K) -> LpSolution:
    """Maximize the released fraction over all faithful mechanisms whose
    output is independent of the sensitive values, by HiGHS's simplex
    (`simplex.linear_program`).

    Two LPs have this optimum.  The subset LP has one variable per
    (sequence, erased subset), so faithfulness is structural, and privacy
    rows that give consecutive positive-prior sensitive assignments equal
    output laws.  When every assignment has positive prior, an output that
    reveals a sensitive position is forced to zero, so those variables are
    dropped up front.

    With exactly two positive-prior assignments u_a and u_b, privacy says
    p(y | u_a) = p(y | u_b), and the transport LP runs instead, unless it
    has more variables than the subset LP (large alphabets).  It couples
    p(x | u_a) and p(x' | u_b) at Hamming cost d_H(x, x') / n.  The optima
    agree.  Pairing, output by output, the mass each hypothesis sends to y
    couples the two laws, and each pair agrees wherever y releases, so y
    erases at least d_H positions; conversely, releasing both x and x' as
    x with the positions where they differ erased gives the two hypotheses
    the same output law, at cost d_H / n.  A transport answer that fails
    its certificate falls through to the subset LP.

    The answer is proven by weak duality.  With HiGHS's row duals y and
    reduced costs d = c - A.T @ y, every feasible x has
    c @ x = b @ y + d @ x, and each sequence's weights form a distribution
    (in the transport, each x of u_a), so
    c @ x >= b @ y + sum over sequences of min(0, min of its d): a lower
    bound on the erased fraction.  The gap is the returned mechanism's
    erased fraction minus that bound.  The transport's weights of each x'
    of u_b must also sum to 1 within 1e-8.  HiGHS runs without presolve
    first, and once more with presolve when its answer is not optimal or
    its gap exceeds ``LP_GAP_TOL``; an answer that still fails is
    "numerical".  The status is "capacity" when the LP to run first has
    more than ``LP_VAR_BUDGET`` variables.
    """
    K = _validate_sensitive(K, model.n)
    t = _table(model, K)
    off = t.space[t.p == 0]     # off the support: a fixed all-erased row
    positive = np.flatnonzero(t.p_u > 0)
    free = model.n - (len(K) if positive.size == t.p_u.size else 0)
    subset_vars = np.count_nonzero(t.p) * 2 ** free
    sol = LpSolution(float("nan"), "capacity")
    if positive.size == 2:
        a_rows, b_rows = (np.flatnonzero((t.p > 0) & (t.u == v))
                          for v in positive)
        if a_rows.size * b_rows.size <= min(subset_vars, LP_VAR_BUDGET):
            sol = _solve(_transport_lp(model, t, a_rows, b_rows), off)
    if sol.status != "optimal" and subset_vars <= LP_VAR_BUDGET:
        sol = _solve(_subset_lp(model, K, t), off)
    return sol


def lp_output_distribution(model: SequenceModel, K,
                           solution: LpSolution) -> OutputDistribution:
    """Joint law of (sensitive values, output) of an optimal LP mechanism."""
    if solution.w is None:
        raise ValueError(f"a {solution.status} LP solution has no mechanism")
    return OutputDistribution.from_mechanism(model, K, solution.xs,
                                             solution.ys, solution.w)
