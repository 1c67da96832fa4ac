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
from dataclasses import dataclass, field

import numpy as np

from . import hmm as _hmm
from .distributions import HmmModel, SequenceModel, sensitive_assignments
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


def _masks(n: int, forced: tuple[int, ...]):
    """All erased-position subsets containing `forced`, as boolean tuples."""
    free = [i for i in range(n) if i not in forced]
    for erased_free in itertools.chain.from_iterable(
            itertools.combinations(free, r) for r in range(len(free) + 1)):
        mask = [False] * n
        for i in forced:
            mask[i] = True
        for i in erased_free:
            mask[i] = True
        yield tuple(mask)


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
    us = sensitive_assignments(model.arities, K)
    ucols = space[:, list(K)] if K else np.zeros((space.shape[0], 0), dtype=int)
    u_of_row = [tuple(r) for r in ucols]
    p_u = {}
    for row_u, prob in zip(u_of_row, p):
        p_u[row_u] = p_u.get(row_u, 0.0) + prob
    positive_u = [u for u in us if p_u.get(u, 0.0) > 0]
    full_support = len(positive_u) == len(us)

    rows = np.flatnonzero(p > 0)
    forced = K if full_support else ()
    mask_list = list(_masks(n, forced))
    nvars = rows.size * len(mask_list)
    if nvars > LP_VAR_BUDGET:
        return LpSolution(float("nan"), "capacity")

    variables = []            # (row index, mask)
    y_index: dict[tuple, int] = {}
    cost = np.empty(nvars)
    var_y = np.empty(nvars, dtype=np.int64)
    k = 0
    for ri in rows:
        x = tuple(int(v) for v in space[ri])
        for mask in mask_list:
            y = tuple(STAR if e else xv for xv, e in zip(x, mask))
            j = y_index.setdefault(y, len(y_index))
            variables.append((int(ri), mask))
            var_y[k] = j
            cost[k] = p[ri] * sum(mask) / n
            k += 1

    n_priv = (len(positive_u) - 1) * len(y_index)
    n_rows = n_priv + rows.size
    if n_rows * nvars > LP_DENSE_BUDGET:
        return LpSolution(float("nan"), "capacity")
    a = np.zeros((n_rows, nvars))
    b = np.zeros(n_rows)
    u_rank = {u: t for t, u in enumerate(positive_u)}
    for j, (ri, mask) in enumerate(variables):
        u = u_of_row[ri]
        t = u_rank.get(u)
        weight = p[ri] / p_u[u]
        base = var_y[j] * (len(positive_u) - 1)
        if t is not None and t < len(positive_u) - 1:
            a[base + t, j] += weight
        if t is not None and t > 0:
            a[base + t - 1, j] -= weight
    row_of_x = {int(ri): n_priv + i for i, ri in enumerate(rows)}
    for j, (ri, mask) in enumerate(variables):
        a[row_of_x[ri], j] = 1.0
    b[n_priv:] = 1.0

    result = linear_program(cost, a, b)
    if result.status != "optimal":
        status = "infeasible" if result.status == "infeasible" else "numerical"
        return LpSolution(float("nan"), status)

    mechanism: dict = {}
    sums: dict[int, float] = {}
    for j, (ri, mask) in enumerate(variables):
        w = float(result.x[j])
        sums[ri] = sums.get(ri, 0.0) + w
        if w > 1e-12:
            x = tuple(int(v) for v in space[ri])
            y = tuple(STAR if e else xv for xv, e in zip(x, mask))
            mechanism[(x, y)] = mechanism.get((x, y), 0.0) + w
    if any(abs(s - 1.0) > 1e-8 for s in sums.values()):
        return LpSolution(float("nan"), "numerical", mechanism)
    # sequences outside the model's support get a fixed all-erased row
    all_star = tuple([STAR] * n)
    for ri in np.flatnonzero(p == 0):
        x = tuple(int(v) for v in space[ri])
        mechanism[(x, all_star)] = 1.0

    rate = 1.0 - result.objective
    implied = 1.0 - sum(
        p[ri] * sum(m) / n * result.x[j]
        for j, (ri, m) in enumerate(variables)
    )
    if abs(rate - implied) > 1e-8:
        return LpSolution(rate, "numerical", mechanism)
    return LpSolution(rate, "optimal", mechanism)


def lp_output_distribution(model: SequenceModel, K,
                           solution: LpSolution) -> OutputDistribution:
    """Joint law of (sensitive values, output) induced by an LP mechanism."""
    K = _validate_sensitive(K, model.n)
    us = sensitive_assignments(model.arities, K)
    u_index = {u: i for i, u in enumerate(us)}
    table: dict[tuple, np.ndarray] = {}
    for (x, y), w in solution.mechanism.items():
        px = model.joint_prob(x)
        if px <= 0 or w <= 0:
            continue
        vec = table.setdefault(tuple(y), np.zeros(len(us)))
        vec[u_index[tuple(x[k] for k in K)]] += px * w
    return OutputDistribution.from_table(model.n, K, model.arities, us, table)
