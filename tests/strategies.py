"""Hypothesis strategies shared by the property tests.

Structure (kind, n, alphabet, where the zeros sit, K, ordering) is drawn by
Hypothesis; the numeric parameters come from a drawn numpy seed through the
`conftest` factories, so an example replays exactly.
"""

import numpy as np
from hypothesis import strategies as st

from genomask import MarkovChainModel, Ordering

from conftest import random_explicit, random_hmm


@st.composite
def small_models(draw, max_n=5, kinds=("explicit", "markov", "hmm")):
    """(model, K, ordering): a model of one of ``kinds`` (explicit, Markov
    or HMM) with n <= ``max_n`` that has zero structure (zero table
    entries, a zero transition, or epsilon or theta 0) when the draw asks
    for it, a sensitive set of one or two positions and a processing
    ordering."""
    n = draw(st.integers(2, max_n))
    kind = draw(st.sampled_from(kinds))
    alphabet = draw(st.sampled_from([2, 3])) if n <= 4 else 2
    zero = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "explicit":
        model = random_explicit(rng, n, alphabet, sparse=zero)
    elif kind == "markov":
        initial = rng.dirichlet(np.ones(alphabet))
        rows = rng.dirichlet(np.ones(alphabet), size=alphabet)
        if zero:   # one impossible step, the row renormalized
            a, b = draw(st.tuples(st.integers(0, alphabet - 1),
                                  st.integers(0, alphabet - 1)))
            rows[a, b] = 0.0
            rows[a] /= rows[a].sum()
        model = MarkovChainModel(initial, rows, n)
    else:
        eps, theta = draw(st.sampled_from(
            [(0.0, 0.0), (0.0, None), (None, 0.0)] if zero else [(None, None)]))
        model = random_hmm(rng, n, draw(st.integers(2, 3)), alphabet,
                           eps=eps, theta=theta)
    K = sorted(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2,
                             unique=True)))
    ordering = Ordering(tuple(draw(st.permutations(range(n)))))
    return model, K, ordering
