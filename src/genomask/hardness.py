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

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import SequenceModel
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
        self.edge_index = {e: t for t, e in enumerate(self.edges)}
        self.element_edges = [
            [j for j, s in enumerate(instance.sets) if v in s]
            for v in range(1, m + 1)
        ]
        self.arities = tuple(
            [2 ** len(self.element_edges[v - 1]) for v in range(1, m + 1)]
            + [2] * k
        )
        self.K = tuple(range(m, m + k))

    def joint_probs(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        m = self.instance.m
        # reconstruct every edge bit from the element codes
        bits = np.zeros((xs.shape[0], self.num_edges), dtype=np.int64)
        for v in range(1, m + 1):
            code = xs[:, v - 1]
            for back, j in enumerate(reversed(self.element_edges[v - 1])):
                bits[:, self.edge_index[(v, j)]] = (code >> back) & 1
        ok = np.ones(xs.shape[0], dtype=bool)
        for j, s in enumerate(self.instance.sets):
            parity = np.zeros(xs.shape[0], dtype=np.int64)
            for v in s:
                parity ^= bits[:, self.edge_index[(v, j)]]
            ok &= parity == xs[:, m + j]
        return np.where(ok, 2.0 ** -self.num_edges, 0.0)

    def assemble(self, bits) -> tuple[int, ...]:
        """Sequence implied by an assignment of edge bits."""
        bits = np.asarray(bits, dtype=np.int64)
        x = []
        for v in range(1, self.instance.m + 1):
            code = 0
            for j in self.element_edges[v - 1]:
                code = (code << 1) | int(bits[self.edge_index[(v, j)]])
            x.append(code)
        for j, s in enumerate(self.instance.sets):
            parity = 0
            for v in s:
                parity ^= int(bits[self.edge_index[(v, j)]])
            x.append(parity)
        return tuple(x)

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        bits = rng.integers(2, size=(count, self.num_edges))
        return np.array([self.assemble(b) for b in bits],
                        dtype=np.int64).reshape(count, self.n)


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
        with np.errstate(invalid="ignore"):
            defined = (~np.isnan(batch.cond)) & (batch.cond > 0)
        vals = batch.ratios[defined]
        if np.any((vals > DECISION_TOL) & (vals < 1.0 - DECISION_TOL)):
            return False  # a genuinely random decision: rule is wrong
        erased = batch.mins.max(axis=1) <= DECISION_TOL
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
