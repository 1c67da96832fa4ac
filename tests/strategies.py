"""Seeded examples shared by the property tests.

A property runs a fixed list of examples, one per seed 0..count-1, and an
example derives everything (kind, n, alphabet, where the zeros sit, K,
ordering and the numbers) from its seed with numpy.  So a property runs
the same examples whichever test modules are collected or imported first.
"""

import numpy as np

from genomask import MarkovChainModel, Ordering

from conftest import random_explicit, random_hmm


def seeded_examples(count):
    """Run the decorated one-seed check for seeds 0..count-1, as one test
    under the check's name; a failure names its seed."""
    def wrap(check):
        def test():
            for seed in range(count):
                try:
                    check(seed)
                except Exception as exc:
                    exc.add_note(f"{check.__name__} failed at seed {seed}")
                    raise
        test.__name__ = check.__name__
        return test
    return wrap


def small_models(seed, max_n=5, kinds=("explicit", "markov", "hmm")):
    """(model, K, ordering) from ``seed``: a model of one of ``kinds``
    (explicit, Markov or HMM) with n <= ``max_n`` that has zero structure
    (zero table entries, a zero transition, or epsilon or theta 0) for
    about half the seeds, a sensitive set of one or two positions and a
    processing ordering."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    kind = kinds[int(rng.integers(len(kinds)))]
    alphabet = int(rng.integers(2, 4)) if n <= 4 else 2
    zero = bool(rng.integers(2))
    if kind == "explicit":
        model = random_explicit(rng, n, alphabet, sparse=zero)
    elif kind == "markov":
        initial = rng.dirichlet(np.ones(alphabet))
        rows = rng.dirichlet(np.ones(alphabet), size=alphabet)
        if zero:   # one impossible step, the row renormalized
            a, b = rng.integers(alphabet, size=2)
            rows[a, b] = 0.0
            rows[a] /= rows[a].sum()
        model = MarkovChainModel(initial, rows, n)
    else:
        eps, theta = ([(0.0, 0.0), (0.0, None), (None, 0.0)][int(rng.integers(3))]
                      if zero else (None, None))
        model = random_hmm(rng, n, int(rng.integers(2, 4)), alphabet,
                           eps=eps, theta=theta)
    K = sorted(int(v) for v in rng.choice(n, size=int(rng.integers(1, 3)),
                                          replace=False))
    ordering = Ordering(tuple(int(v) for v in rng.permutation(n)))
    return model, K, ordering
