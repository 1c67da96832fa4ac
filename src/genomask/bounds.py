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

import functools
import itertools
import json
import math
from dataclasses import dataclass

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

#: `lp_optimal_rate` returns status "capacity" past this many variables;
#: its sparse constraint matrix holds at most three nonzeros per variable.
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
    int64, (rows,) float; None unless optimal): the variables above 1e-12
    in variable order, then all-erased rows for sequences of prior zero.
    ``gap`` bounds how far the mechanism's erased fraction is above the
    optimum, by LP duality; NaN when the solve ended without an answer or
    the answer failed a primal check."""

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
    output is independent of the sensitive values, by HiGHS's simplex
    (`simplex.linear_program`).

    Faithfulness is structural: one variable per (sequence, erased subset).
    When every sensitive assignment has positive prior, any output that
    reveals a sensitive position is forced to zero, so those variables are
    dropped up front.

    The answer is proven by weak duality.  With HiGHS's row duals y and
    reduced costs d = c - A.T @ y, every feasible x has
    c @ x = b @ y + d @ x, and each sequence's weights form a distribution,
    so c @ x >= b @ y + sum over sequences of min(0, min of its d): a lower
    bound on the erased fraction.  The gap is the returned mechanism's
    erased fraction minus that bound.  HiGHS runs without presolve first,
    and once more with presolve when its answer is not optimal or its gap
    exceeds ``LP_GAP_TOL``; an answer that still fails is "numerical".
    """
    K = _validate_sensitive(K, model.n)
    space, p = model.joint_table()
    dims = [model.arities[k] for k in K]
    u_of_row = row_codes(space[:, list(K)], dims)
    p_u = np.bincount(u_of_row, weights=p, minlength=math.prod(dims))
    u_rank = np.cumsum(p_u > 0) - 1     # rank among positive-prior u
    n_pos = int(u_rank[-1]) + 1

    rows = np.flatnonzero(p > 0)
    masks = _masks(model.n, K if n_pos == p_u.size else ())
    nvars = rows.size * len(masks)
    if nvars > LP_VAR_BUDGET:
        return LpSolution(float("nan"), "capacity")

    # variable j = (sequence rows[var_x[j]], mask var_mask[j]), sequences
    # outermost, outputs by first appearance: the rows of `LpSolution` and
    # so `from_mechanism` follow this order
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
    t = u_rank[u_of_row[var_row]]
    weight = p[var_row] / p_u[u_of_row[var_row]]
    cell = var_y * (n_pos - 1) + t
    j = np.arange(nvars)
    up, down = t < n_pos - 1, t > 0
    a = (np.concatenate([cell[up], cell[down] - 1, n_priv + var_x]),
         np.concatenate([j[up], j[down], j]),
         np.concatenate([weight[up], -weight[down], np.ones(nvars)]))
    b[n_priv:] = 1.0

    def certified(res) -> tuple[np.ndarray | None, float]:
        """An optimal run's mechanism weights and their certified gap; no
        weights and a NaN gap when the run fails a primal check."""
        sums = np.bincount(var_x, weights=res.x, minlength=rows.size)
        if np.any(np.abs(sums - 1.0) > 1e-8):
            return None, float("nan")
        # the solver meets x >= 0 only to its feasibility tolerance (1e-7):
        # drop the small negatives and rescale each sequence's weights to
        # sum to 1, so that the mechanism is a set of distributions
        w = np.maximum(res.x, 0.0)
        w /= np.bincount(var_x, weights=w, minlength=rows.size)[var_x]
        erased = float(cost @ w)
        if abs(res.objective - erased) > 1e-8:
            return None, float("nan")
        # each sequence's variables are consecutive, in its one row of b = 1
        d = cost - np.bincount(a[1], weights=a[2] * res.y[a[0]],
                               minlength=nvars)
        low = b @ res.y + np.minimum(d.reshape(rows.size, -1).min(axis=1),
                                     0.0).sum()
        return w, erased - float(low)

    result = linear_program(
        cost, a, b, accept=lambda res: certified(res)[1] <= LP_GAP_TOL)
    if result.status != "optimal":
        return LpSolution(float("nan"), "numerical")
    w, gap = certified(result)
    rate = 1.0 - result.objective
    if not gap <= LP_GAP_TOL:       # NaN too: a primal check failed
        return LpSolution(rate, "numerical", gap=gap)
    chosen = np.flatnonzero(w > 1e-12)
    off = space[p == 0]     # off the support: a fixed all-erased row
    return LpSolution(rate, "optimal",
                      np.concatenate([space[var_row[chosen]], off]),
                      np.concatenate([ys[chosen], np.full_like(off, STAR)]),
                      np.concatenate([w[chosen], np.ones(off.shape[0])]),
                      gap)


def lp_output_distribution(model: SequenceModel, K,
                           solution: LpSolution) -> OutputDistribution:
    """Joint law of (sensitive values, output) of an optimal LP mechanism."""
    if solution.w is None:
        raise ValueError(f"a {solution.status} LP solution has no mechanism")
    return OutputDistribution.from_mechanism(model, K, solution.xs,
                                             solution.ys, solution.w)
