"""Ordering optimality as a hitting-set problem, executable at desk scale.

A hitting-set instance (universe elements 1..m, sets S_1..S_k) induces a
sequence model: one independent uniform bit per (element, set) incidence
edge, position i <= m carrying the tuple of bits on element i's edges, and
position m+j carrying the parity of set j's edges.  With the parity
positions sensitive, the mechanism's decisions become deterministic and the
minimum number of erased element positions over all processing orders
equals the minimum hitting set.

Elements are 1-based (as in instance files); sequence positions are
0-based: element v sits at position v-1, set j at position m+j.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import SequenceModel, symbol_rows
from .errors import CapacityError, InputError
from .masking import Ordering
from .mechanism import EnumeratedMechanism

MAX_ELEMENTS_EXHAUSTIVE = 8
MAX_ELEMENTS_SUBSET_SCAN = 20

#: Release probabilities within this of 0 or 1 count as deterministic in
#: `verify_deterministic_rule`.
DECISION_TOL = 1e-12


@dataclass(frozen=True)
class HittingSetInstance:
    """Universe {1..m} plus non-empty subsets covering it."""

    m: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.m < 1:
            raise InputError("universe must be non-empty")
        if not self.sets:
            raise InputError("need at least one set")
        union: set[int] = set()
        for s in self.sets:
            if not s:
                raise InputError("sets must be non-empty")
            if not all(1 <= v <= self.m for v in s):
                raise InputError("set element outside the universe")
            union |= s
        if union != set(range(1, self.m + 1)):
            raise InputError("sets must cover the universe")

    @classmethod
    def from_lists(cls, m: int, sets) -> "HittingSetInstance":
        return cls(int(m), tuple(frozenset(int(v) for v in s) for s in sets))

    @classmethod
    def from_json(cls, source: str | Path) -> "HittingSetInstance":
        """Instance from a JSON file, or from JSON text when ``source`` is
        not a readable file."""
        try:
            text = Path(source).read_text()
        except OSError:  # absent, unreadable, or a name too long: a literal
            text = str(source)
        try:
            data = json.loads(text)
            return cls.from_lists(data["m"], data["sets"])
        except json.JSONDecodeError as exc:
            raise InputError("hitting-set instance is neither a readable "
                             f"file nor JSON: {exc}") from exc
        except KeyError as exc:
            raise InputError(f"hitting-set instance missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad hitting-set instance: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps({"m": self.m,
                           "sets": [sorted(s) for s in self.sets]})

    @property
    def k(self) -> int:
        return len(self.sets)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """(element, set index) incidences, element-major."""
        return [(v, j) for v in range(1, self.m + 1)
                for j, s in enumerate(self.sets) if v in s]


class ParityModel(SequenceModel):
    """The incidence-bit sequence model of a hitting-set instance.

    Element positions carry bit tuples encoded as integers (edge bits of
    that element, in increasing set order, first edge most significant);
    parity positions carry single bits.
    """

    def __init__(self, instance: HittingSetInstance):
        self.instance = instance
        m, k = instance.m, instance.k
        self.n = m + k
        self.edges = instance.edges
        self.num_edges = len(self.edges)
        self.element_edges = [
            [j for j, s in enumerate(instance.sets) if v in s]
            for v in range(1, m + 1)
        ]
        self.arities = tuple(
            [2 ** len(self.element_edges[v - 1]) for v in range(1, m + 1)]
            + [2] * k
        )
        self.K = tuple(range(m, m + k))
        # edge t = (v, j) is bit _shift[t] of position _elem[t] = v - 1 (an
        # element's edges are consecutive, its first one most significant)
        # and a term of the parity at position m + j; bits @ _code sums both
        element, sets = np.array(self.edges, dtype=np.int64).T
        self._elem = element - 1
        self._shift = (np.cumsum(np.bincount(self._elem))[self._elem]
                       - np.arange(self.num_edges) - 1)
        self._code = np.zeros((self.num_edges, self.n), dtype=np.int64)
        self._code[np.arange(self.num_edges), self._elem] = 1 << self._shift
        self._code[np.arange(self.num_edges), m + sets] = 1

    def _encode(self, bits: np.ndarray) -> np.ndarray:
        """(N, n) sequences implied by (N, num_edges) edge bits."""
        xs = np.asarray(bits, dtype=np.int64) @ self._code
        xs[:, self.instance.m:] &= 1
        return xs

    def joint_probs(self, xs: np.ndarray) -> np.ndarray:
        xs = symbol_rows(xs, self.arities, "rows")
        # the edge bits read off the element codes must give the parities
        bits = (xs[:, self._elem] >> self._shift) & 1
        ok = np.all(self._encode(bits) == xs, axis=1)
        return np.where(ok, 2.0 ** -self.num_edges, 0.0)

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self._encode(rng.integers(2, size=(count, self.num_edges)))


def deterministic_erasure_set(instance: HittingSetInstance,
                              element_order) -> frozenset[int]:
    """Erased elements under the mechanism's deterministic rule.

    Visiting elements in the given order, an element is erased exactly when
    some set lies entirely within it plus the elements already released;
    otherwise it is released.  Parity positions are always erased and do
    not interact with the order.
    """
    order = tuple(int(v) for v in element_order)
    if sorted(order) != list(range(1, instance.m + 1)):
        raise InputError("element order must be a permutation of 1..m")
    released: set[int] = set()
    erased: set[int] = set()
    for v in order:
        if any(s <= released | {v} for s in instance.sets):
            erased.add(v)
        else:
            released.add(v)
    return frozenset(erased)


def verify_deterministic_rule(instance: HittingSetInstance,
                              element_order) -> bool:
    """Check, by full enumeration of edge bits, that the generic mechanism
    on the parity model is deterministic and erases exactly the rule's set.

    Every reachable release probability must be 0 or 1, the same for every
    consistent sequence, and the erased element set must match
    `deterministic_erasure_set`.  The parity model's space, 2^(edges +
    sets) sequences, is subject to ``distributions.ENUMERATION_BUDGET``.
    """
    model = ParityModel(instance)
    order = tuple(int(v) for v in element_order)
    ordering = Ordering(tuple(v - 1 for v in order) + model.K)
    engine = EnumeratedMechanism(model, model.K)
    expected = deterministic_erasure_set(instance, order)

    erased_elements: set[int] = set()
    for batch in engine.walk(ordering):
        if batch.pos is None or batch.pos >= instance.m:
            continue
        element = batch.pos + 1
        defined = batch.cond > 0
        vals = batch.ratios[defined]
        if np.any((vals > DECISION_TOL) & (vals < 1.0 - DECISION_TOL)):
            return False  # a genuinely random decision: rule is wrong
        erased = functools.reduce(np.maximum, batch.mins.T) <= DECISION_TOL
        if erased.any():
            if element not in expected:
                return False
            erased_elements.add(element)
        if not erased.all():
            if element in expected:
                return False
            # released: must not depend on the value or u
            if np.any((defined & (batch.ratios < 1.0 - DECISION_TOL))[~erased]):
                return False
    return erased_elements == expected


def best_ordering_exhaustive(instance: HittingSetInstance):
    """Minimum erased-element count over all element orders: (count, order)."""
    if instance.m > MAX_ELEMENTS_EXHAUSTIVE:
        raise CapacityError(
            f"m = {instance.m} exceeds the {MAX_ELEMENTS_EXHAUSTIVE}! search cap")
    best = None
    best_order = None
    for order in itertools.permutations(range(1, instance.m + 1)):
        e = len(deterministic_erasure_set(instance, order))
        if best is None or e < best:
            best, best_order = e, order
            if best == 0:
                break
    return best, best_order


def min_hitting_set_bruteforce(instance: HittingSetInstance):
    """Smallest subset meeting every set: (size, witness)."""
    if instance.m > MAX_ELEMENTS_SUBSET_SCAN:
        raise CapacityError(
            f"m = {instance.m} exceeds the 2^{MAX_ELEMENTS_SUBSET_SCAN} scan cap")
    universe = range(1, instance.m + 1)
    for size in range(instance.m + 1):
        for subset in itertools.combinations(universe, size):
            chosen = set(subset)
            if all(chosen & s for s in instance.sets):
                return size, frozenset(chosen)
    raise AssertionError("the full universe always hits every set")


def random_instance(m: int, k: int, rng: np.random.Generator) -> HittingSetInstance:
    """Random covering family of k non-empty subsets of 1..m."""
    if m < 1 or k < 1:
        raise InputError("need m >= 1 and k >= 1")
    while True:
        sets = []
        for _ in range(k):
            size = int(rng.integers(1, m + 1))
            sets.append(frozenset(
                int(v) for v in rng.choice(m, size=size, replace=False) + 1))
        if set().union(*sets) == set(range(1, m + 1)):
            return HittingSetInstance(m, tuple(sets))


def reduction_report(instance: HittingSetInstance) -> dict:
    """e* from exhaustive ordering search and h* from subset scan, with
    witnesses; JSON-friendly."""
    e_star, order = best_ordering_exhaustive(instance)
    h_star, witness = min_hitting_set_bruteforce(instance)
    return {
        "e_star": e_star,
        "h_star": h_star,
        "ordering": list(order),
        "witness": sorted(witness),
    }
