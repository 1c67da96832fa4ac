import numpy as np
import pytest

from genomask import ExplicitJointModel, HmmModel, MarkovChainModel, simplex
from genomask.distributions import first_seen_ranks, row_codes
from genomask.info import entropy, mutual_information


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def highs_runs(monkeypatch):
    """(presolve, iterations) of each HiGHS run, in order."""
    runs = []
    run = simplex._run

    def counted(core, highs, presolve):
        result = run(core, highs, presolve)
        runs.append((presolve, result.iterations))
        return result

    monkeypatch.setattr(simplex, "_run", counted)
    return runs


def random_explicit(rng, n, alphabet=2, sparse=False):
    probs = rng.dirichlet(np.full(alphabet ** n, 0.6))
    if sparse:
        kill = rng.random(probs.size) < 0.3
        if kill.all():
            kill[0] = False
        probs = np.where(kill, 0.0, probs)
        probs = probs / probs.sum()
    return ExplicitJointModel(probs, n=n, alphabet=alphabet)


def random_markov(rng, n, alphabet=2):
    init = rng.dirichlet(np.ones(alphabet))
    rows = rng.dirichlet(np.ones(alphabet), size=alphabet)
    return MarkovChainModel(init, rows, n)


def zero_transition_chain(n):
    """A 3-symbol Markov chain that never steps 0 -> 2 or 2 -> 0."""
    return MarkovChainModel([0.3, 0.3, 0.4], [[0.5, 0.5, 0.0],
                                              [0.2, 0.3, 0.5],
                                              [0.0, 0.6, 0.4]], n)


def random_hmm(rng, n, m, alphabet=2, eps=None, theta=None):
    panel = rng.integers(alphabet, size=(m, n))
    eps = float(rng.uniform(0.02, 0.5)) if eps is None else eps
    theta = float(rng.uniform(0.02, 0.4)) if theta is None else theta
    return HmmModel(panel, eps, theta, alphabet)


def parity_n3():
    """X2 = X0 xor X1 with X0, X1 independent uniform bits."""
    probs = np.zeros(8)
    for a in (0, 1):
        for b in (0, 1):
            probs[a * 4 + b * 2 + (a ^ b)] = 0.25
    return ExplicitJointModel(probs, n=3, alphabet=2)


def replayed_ratios(engine, i, y_prefix=()):
    """Release ratios ``ratios[u, v]`` at position i, from `release_table`
    after replaying the produced prefix (ordered (position, outcome) pairs)
    through `step_factor`: the one release rule the mechanism uses."""
    wq = engine.q.copy()
    for pos, y in y_prefix:
        cond, totals = engine.predictive(wq, pos)
        _, ratios = engine.release_table(cond, totals, pos)
        wq *= engine.step_factor(pos, y, ratios)
    cond, totals = engine.predictive(wq, i)
    return engine.release_table(cond, totals, i)[1]


def possible_assignments(engine):
    """Sensitive assignments with positive prior under the mechanism's
    model."""
    return [u for u, w in zip(engine.u_values, engine.q_prior) if w > 0]


def first_seen_window_leakage(model, K, erased):
    """The leakage of erasing ``erased`` as a bincount over released patterns
    in order of first appearance: the reference `window_leakage_exact` must
    match."""
    released = sorted(set(range(model.n)) - set(erased))
    space, p = model.joint_table()
    space, p = space[p != 0], p[p != 0]
    ui = row_codes(space[:, K], [model.arities[k] for k in K])
    ri = first_seen_ranks(row_codes(space[:, released],
                                    [model.arities[i] for i in released]))
    cols = int(ri.max()) + 1
    joint = np.bincount(ui * cols + ri, weights=p).reshape(-1, cols)
    return mutual_information(joint) / entropy(joint.sum(axis=1))


def radius_window(n, K, radius):
    """Positions within ``radius`` of a sensitive position."""
    return {i for i in range(n) if any(abs(i - k) <= radius for k in K)}
