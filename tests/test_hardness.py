import itertools
import json

import numpy as np
import pytest

from genomask import (
    CapacityError,
    HittingSetInstance,
    InputError,
    Ordering,
    ParityModel,
    STAR,
    best_ordering_exhaustive,
    deterministic_erasure_set,
    exact_output_distribution,
    min_hitting_set_bruteforce,
    verify_deterministic_rule,
)
from genomask.hardness import random_instance, reduction_report


def chain_instance():
    return HittingSetInstance.from_lists(3, [[1, 2], [2, 3]])


def test_instance_validation():
    with pytest.raises(InputError):
        HittingSetInstance.from_lists(2, [[1]])  # union misses 2
    with pytest.raises(InputError):
        HittingSetInstance.from_lists(2, [[1], []])
    with pytest.raises(InputError):
        HittingSetInstance.from_lists(2, [[1, 3]])


def test_instance_json_roundtrip(tmp_path):
    inst = chain_instance()
    path = tmp_path / "inst.json"
    path.write_text(inst.to_json())
    assert HittingSetInstance.from_json(path) == inst
    assert HittingSetInstance.from_json(inst.to_json()) == inst


def test_single_edge_parity_model():
    inst = HittingSetInstance.from_lists(1, [[1]])
    model = ParityModel(inst)
    assert model.arities == (2, 2)
    assert model.joint_prob((0, 0)) == pytest.approx(0.5)
    assert model.joint_prob((0, 1)) == 0.0


def test_parity_bit_is_uniform_and_pairwise_independent():
    inst = HittingSetInstance.from_lists(2, [[1, 2]])
    model = ParityModel(inst)
    space, probs = model.joint_table()
    # X2 = X0 xor X1 is uniform and independent of each single Xi
    p_parity = probs[space[:, 2] == 1].sum()
    assert p_parity == pytest.approx(0.5)
    for i in (0, 1):
        joint = probs[(space[:, i] == 1) & (space[:, 2] == 1)].sum()
        assert joint == pytest.approx(0.25)


def test_parity_table_support_is_the_assembled_bit_vectors():
    model = ParityModel(HittingSetInstance.from_lists(3, [[1, 2], [2, 3],
                                                         [1, 3]]))
    space, probs = model.joint_table()
    assembled = {tuple(model._encode(np.reshape(bits, (1, -1)))[0].tolist())
                 for bits in
                 itertools.product((0, 1), repeat=model.num_edges)}
    assert len(assembled) == 2 ** model.num_edges
    assert {tuple(x) for x in space[probs > 0].tolist()} == assembled
    assert np.all(probs[probs > 0] == 2.0 ** -model.num_edges)


def test_parity_model_sampling_consistency(rng):
    inst = chain_instance()
    model = ParityModel(inst)
    for _ in range(50):
        x = model.sample(rng)
        assert model.joint_prob(x) > 0


def test_rule_worked_examples():
    assert deterministic_erasure_set(
        HittingSetInstance.from_lists(2, [[1], [2]]), (1, 2)) == {1, 2}
    assert deterministic_erasure_set(
        HittingSetInstance.from_lists(2, [[1, 2]]), (1, 2)) == {2}
    inst = chain_instance()
    assert deterministic_erasure_set(inst, (1, 3, 2)) == {2}
    assert deterministic_erasure_set(inst, (2, 1, 3)) == {1, 3}


def test_rule_matches_mechanism_on_small_instances():
    for m, k in ((2, 1), (2, 2), (3, 2)):
        for inst in _all_instances(m, k):
            for order in itertools.permutations(range(1, m + 1)):
                assert verify_deterministic_rule(inst, order), (inst, order)


def _all_instances(m, k):
    universe = list(range(1, m + 1))
    subsets = [frozenset(c) for r in range(1, m + 1)
               for c in itertools.combinations(universe, r)]
    for combo in itertools.combinations(subsets, k):
        if frozenset().union(*combo) == frozenset(universe):
            yield HittingSetInstance(m, tuple(combo))


def test_worked_reduction_values():
    assert best_ordering_exhaustive(
        HittingSetInstance.from_lists(2, [[1, 2]]))[0] == 1
    assert best_ordering_exhaustive(
        HittingSetInstance.from_lists(2, [[1], [2]]))[0] == 2
    e, order = best_ordering_exhaustive(chain_instance())
    assert e == 1
    assert min_hitting_set_bruteforce(chain_instance()) == (1, frozenset({2}))


def test_erased_set_is_always_a_hitting_set(rng):
    for _ in range(25):
        inst = random_instance(int(rng.integers(2, 6)), int(rng.integers(1, 4)), rng)
        order = tuple(int(v) for v in rng.permutation(inst.m) + 1)
        erased = deterministic_erasure_set(inst, order)
        assert all(erased & s for s in inst.sets)


def test_ordering_complement_of_hitting_set_first(rng):
    for _ in range(25):
        inst = random_instance(int(rng.integers(2, 6)), int(rng.integers(1, 4)), rng)
        h, witness = min_hitting_set_bruteforce(inst)
        rest = [v for v in range(1, inst.m + 1) if v not in witness]
        order = tuple(rest + sorted(witness))
        assert len(deterministic_erasure_set(inst, order)) <= h


def test_reduction_equivalence_small(rng):
    for _ in range(30):
        inst = random_instance(int(rng.integers(2, 5)), int(rng.integers(1, 4)), rng)
        rep = reduction_report(inst)
        assert rep["e_star"] == rep["h_star"]


def test_sensitive_placement_is_irrelevant():
    """Interleaving the parity positions anywhere in the processing order
    leaves the erased element set unchanged."""
    inst = HittingSetInstance.from_lists(2, [[1, 2]])
    model = ParityModel(inst)
    element_order = (1, 2)
    expected = deterministic_erasure_set(inst, element_order)
    n = model.n
    for perm in itertools.permutations(range(n)):
        if [p for p in perm if p < inst.m] != [v - 1 for v in element_order]:
            continue
        dist = exact_output_distribution(model, model.K, Ordering(perm))
        always_star = set(range(n))
        for y, p in zip(dist.y_values, dist.output_marginal()):
            if p > 0:
                always_star &= {i for i, v in enumerate(y) if v == STAR}
        erased_elements = {i + 1 for i in always_star if i < inst.m}
        assert erased_elements == expected, perm


def test_parity_model_is_perfectly_private():
    model = ParityModel(chain_instance())
    dist = exact_output_distribution(model, model.K)
    assert dist.mutual_information_bits() <= 1e-10


def test_capacity_guards():
    big = HittingSetInstance.from_lists(9, [[v] for v in range(1, 10)])
    with pytest.raises(CapacityError):
        best_ordering_exhaustive(big)
    wide = HittingSetInstance.from_lists(
        6, [[1, 2, 3, 4, 5, 6]] * 3)
    # 18 edges and 3 sets: a 2^21-sequence space over the enumeration budget
    with pytest.raises(CapacityError,
                       match="size 2097152 exceeds budget 131072"):
        verify_deterministic_rule(wide, tuple(range(1, 7)))


def test_reduction_report_is_json_friendly():
    rep = reduction_report(chain_instance())
    parsed = json.loads(json.dumps(rep))
    assert parsed["e_star"] == parsed["h_star"] == 1
