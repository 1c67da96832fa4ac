"""Rate bounds, the minimizer-stability certificate, and the exact
linear-program optimum on tiny instances.

The converse bound averages, over positions, the total mass of each symbol
under its least favourable sensitive assignment.  For first-order Markov
chains with a single leading sensitive position the sequential mechanism
meets this bound exactly; `markov_sufficient_condition_check` verifies the
property that makes this work — some prior minimizer of each symbol's
conditional stays a minimizer under every reachable produced prefix.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import hmm as _hmm
from .distributions import (
    HmmModel,
    SequenceModel,
    first_seen_ranks,
    row_codes,
    sensitive_assignments,
)
from .masking import STAR, Ordering, _validate_sensitive
from .mechanism import EnumeratedMechanism, OutputDistribution
from .simplex import linear_program

#: Absolute tie tolerance of `markov_sufficient_condition_check`: an
#: assignment within this of a node's minimum counts as a minimizer.
TIE_TOL = 1e-10

#: `lp_optimal_rate` returns status "capacity" past this many variables, or
#: past this many entries of its dense constraint matrix.
LP_VAR_BUDGET = 20_000
LP_DENSE_BUDGET = 20_000_000


def upper_bound_rate(model: SequenceModel, K) -> float:
    """Converse bound: (1/n) sum_i sum_v min_u p(x_i = v | sensitive = u).

    The minimum ranges over assignments with positive prior.  HMMs use the
    forward/backward marginalization; other models enumerate.
    """
    K = _validate_sensitive(K, model.n)
    if isinstance(model, HmmModel):
        table = _hmm.sensitive_backward_table(model, K)
        cond = _hmm.sensitive_conditionals(model, K, table)
        reachable = table.prior > 0
        mins = cond[:, reachable, :].min(axis=1)  # (n, arity)
        return float(mins.sum()) / model.n
    engine = EnumeratedMechanism(model, K)
    total = 0.0
    for pos in range(model.n):
        cond, totals = engine.predictive(engine.q, pos)
        live = totals > 0
        total += float(cond[live].min(axis=0).sum())
    return total / model.n


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
    K = _validate_sensitive(K, model.n)
    engine = EnumeratedMechanism(model, K)
    ordering = ordering or Ordering.linear(model.n)

    def argmin_masks(cond, live):
        """(nodes, num_u, arity) masks of the live assignments within
        ``TIE_TOL`` of each node's minimum."""
        mins = np.where(live[..., None], cond, np.inf).min(axis=1)
        return live[..., None] & (cond <= mins[:, None, :] + TIE_TOL)

    candidates = {}
    for pos in range(model.n):
        cond, totals = engine.predictive(engine.q, pos)
        candidates[pos] = argmin_masks(cond[None], totals[None] > 0)[0]

    for batch in engine.walk(ordering):
        if batch.pos is None:
            continue
        sets = candidates[batch.pos]
        sets &= argmin_masks(batch.cond, batch.totals > 0).all(axis=0)
        if not sets.any(axis=0).all():
            return False
    return True


@dataclass
class LpSolution:
    """Optimal faithful private mechanism found by linear programming."""

    optimal_rate: float
    status: str  # optimal | infeasible | capacity | numerical
    mechanism: dict = field(default_factory=dict)  # (x, y) -> probability

    def to_json(self) -> str:
        triples = [
            ["".join(map(str, x)),
             "".join("*" if v == STAR else str(v) for v in y),
             p]
            for (x, y), p in sorted(self.mechanism.items())
        ]
        return json.dumps({"rate": self.optimal_rate, "status": self.status,
                           "mechanism": triples})


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


def lp_optimal_rate(model: SequenceModel, K) -> LpSolution:
    """Maximize the released fraction over all faithful mechanisms whose
    output is independent of the sensitive values, by dense simplex.

    Faithfulness is structural: one variable per (sequence, erased subset).
    When every sensitive assignment has positive prior, any output that
    reveals a sensitive position is forced to zero, so those variables are
    dropped up front.
    """
    K = _validate_sensitive(K, model.n)
    n = model.n
    space, p = model.joint_table()
    dims = [model.arities[k] for k in K]
    u_of_row = row_codes(space[:, list(K)], dims)
    p_u = np.bincount(u_of_row, weights=p, minlength=math.prod(dims))
    positive_u = np.flatnonzero(p_u > 0)
    full_support = positive_u.size == p_u.size

    rows = np.flatnonzero(p > 0)
    forced = K if full_support else ()
    masks = _masks(n, forced)
    nvars = rows.size * len(masks)
    if nvars > LP_VAR_BUDGET:
        return LpSolution(float("nan"), "capacity")

    # variable j = (sequence rows[var_x[j]], mask var_mask[j]), sequences
    # outermost, outputs by first appearance: Bland's rule reads this order
    var_x = np.repeat(np.arange(rows.size), len(masks))
    var_mask = np.tile(np.arange(len(masks)), rows.size)
    var_row = rows[var_x]
    ys = np.where(masks[var_mask], STAR, space[var_row])
    # symbol v codes as v + 1 and the erasure as 0
    var_y = first_seen_ranks(row_codes(ys - STAR, [a + 1 for a in model.arities]))
    cost = p[var_row] * masks.sum(axis=1)[var_mask] / n

    n_pos = positive_u.size
    n_priv = (n_pos - 1) * (int(var_y.max()) + 1)
    n_rows = n_priv + rows.size
    if n_rows * nvars > LP_DENSE_BUDGET:
        return LpSolution(float("nan"), "capacity")
    a = np.zeros((n_rows, nvars))
    b = np.zeros(n_rows)
    # consecutive positive-prior assignments t, t+1 must give each output
    # the same conditional mass: +p(x | u_t) on row t, -p(x | u_{t+1})
    u_rank = np.full(p_u.size, -1)
    u_rank[positive_u] = np.arange(n_pos)
    t = u_rank[u_of_row[var_row]]
    weight = p[var_row] / p_u[u_of_row[var_row]]
    cell = var_y * (n_pos - 1) + t
    j = np.arange(nvars)
    up, down = t < n_pos - 1, t > 0
    a[cell[up], j[up]] = weight[up]
    a[cell[down] - 1, j[down]] = -weight[down]
    a[n_priv + var_x, j] = 1.0
    b[n_priv:] = 1.0

    result = linear_program(cost, a, b)
    if result.status != "optimal":
        status = "infeasible" if result.status == "infeasible" else "numerical"
        return LpSolution(float("nan"), status)

    w = result.x
    chosen = np.flatnonzero(w > 1e-12)
    mechanism = {(tuple(x), tuple(y)): float(wj) for x, y, wj in zip(
        space[var_row[chosen]].tolist(), ys[chosen].tolist(), w[chosen])}
    sums = np.bincount(var_x, weights=w, minlength=rows.size)
    if np.any(np.abs(sums - 1.0) > 1e-8):
        return LpSolution(float("nan"), "numerical", mechanism)
    # sequences outside the model's support get a fixed all-erased row
    all_star = tuple([STAR] * n)
    for x in space[p == 0].tolist():
        mechanism[(tuple(x), all_star)] = 1.0

    rate = 1.0 - result.objective
    if abs(rate - (1.0 - float(cost @ w))) > 1e-8:
        return LpSolution(rate, "numerical", mechanism)
    return LpSolution(rate, "optimal", mechanism)


def lp_output_distribution(model: SequenceModel, K,
                           solution: LpSolution) -> OutputDistribution:
    """Joint law of (sensitive values, output) induced by an LP mechanism."""
    K = _validate_sensitive(K, model.n)
    us = sensitive_assignments(model.arities, K)
    _, p = model.joint_table()
    pairs = list(solution.mechanism)
    xs = np.array([x for x, _ in pairs], dtype=np.int64).reshape(-1, model.n)
    ys = np.array([y for _, y in pairs], dtype=np.int64).reshape(-1, model.n)
    w = np.array(list(solution.mechanism.values()), dtype=float)
    px = p[row_codes(xs, model.arities)]
    keep = (px > 0) & (w > 0)
    y_values, col = np.unique(ys[keep], axis=0, return_inverse=True)
    u = row_codes(xs[keep][:, list(K)], [model.arities[k] for k in K])
    num_y = y_values.shape[0]
    matrix = np.bincount(u * num_y + col.reshape(-1), weights=px[keep] * w[keep],
                         minlength=len(us) * num_y).reshape(len(us), num_y)
    return OutputDistribution(model.n, K, us, list(map(tuple, y_values.tolist())),
                              matrix)
