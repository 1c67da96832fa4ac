"""The four benchmark workloads.

Each workload makes its inputs from its seed with its own numpy code and
hands only those inputs to genomask's public API.  `setup()` builds what a
user builds once (models, panel, backward table); `op(i)` performs the i-th
unit of timed work, which depends only on the seed and on i, and checks its
outputs at the tolerances the test suite states.  A failed check is
appended to `violations`; a `GenomaskError` raised by an operation, or an
LP status other than optimal, counts as a failed operation instead.

Workload sizes are constructor arguments so that the self-test can run the
same code on tiny inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import genomask
from genomask import experiments, hardness, hmm
from genomask.errors import GenomaskError

#: Tolerances stated by the test suite (acceptance criteria 1, 2, 3, 6).
PRIVACY_TOL = 1e-10
RATE_TOL = 1e-9
LP_TOL = 1e-7


@dataclass
class OpResult:
    """Outcome of one timed unit of work."""

    work: float        # units counted by throughput_per_s
    attempted: int     # public operations attempted
    failed: int        # of which raised GenomaskError or were not optimal


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _seed_seq(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, *path])


class Workload:
    name = ""
    #: what one unit of `throughput_per_s` is
    work_unit = ""
    #: consecutive ops that together cover the workload's input mix once
    ops_per_pass = 1

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.violations: list[str] = []
        self.first_output = None

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.violations) < 20:
            self.violations.append(what)

    def record(self, output) -> None:
        if self.first_output is None:
            self.first_output = output

    def digest(self) -> str | None:
        return None if self.first_output is None else _digest(self.first_output)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def time_to_result(self, pass_seconds: list[float]) -> float:
        """Projected seconds to the workload's full result at its stated
        accuracy, from the seconds each timed pass took."""
        raise NotImplementedError


class Fig4Mc(Workload):
    """`experiments.run_experiment("fig4")`: Monte-Carlo rate vs. converse
    bound over an epsilon x theta grid on a seeded panel, K = {0}."""

    name = "fig4_mc"
    work_unit = "masked (sequence, position) pairs"

    def __init__(self, seed, n=100, m=100, runs=512,
                 epsilons=(0.01, 0.1, 0.5), thetas=(0.01, 0.05)):
        super().__init__(seed)
        self.n, self.m, self.runs = n, m, runs
        self.epsilons, self.thetas = tuple(epsilons), tuple(thetas)
        self.points = len(self.epsilons) * len(self.thetas)
        self.variance = np.zeros(self.points)   # summed per-run variances
        self.ops = 0

    def setup(self):
        rng = np.random.default_rng(_seed_seq(self.seed, 0))
        self.panel = rng.integers(2, size=(self.m, self.n))

    def op(self, i):
        config = experiments.ExperimentConfig(
            "fig4", n=self.n, m=self.m, k=(0,), epsilons=self.epsilons,
            thetas=self.thetas, runs=self.runs, panel=self.panel,
            seed=int(_seed_seq(self.seed, 1, i).generate_state(1)[0]))
        try:
            rows = experiments.run_experiment(config)
        except GenomaskError:
            return OpResult(0.0, 1, 1)
        for j, row in enumerate(rows):
            rate, err, bound = row["rate"], row["stderr"], row["bound"]
            self.check(row["status"] == "ok", f"fig4 status {row['status']}")
            self.check(0.0 <= rate <= 1.0 and np.isfinite(err),
                       f"fig4 rate {rate} stderr {err}")
            # Monte-Carlo estimate: the bound holds up to sampling error
            self.check(rate <= bound + 6.0 * err + RATE_TOL,
                       f"fig4 rate {rate} above bound {bound} (se {err})")
            self.variance[j] += err * err * self.runs
        self.ops += 1
        self.record([(r["rate"], r["stderr"], r["bound"]) for r in rows])
        return OpResult(float(self.runs * self.n * self.points), 1, 0)

    def time_to_result(self, pass_seconds):
        # wall/points * sum over points of (stderr / 1e-3)^2, with each
        # point's per-run variance pooled over every op of the run
        per_point = float(np.median(pass_seconds)) / self.points
        variance = self.variance / max(self.ops, 1)
        return per_point * float(np.sum(variance / self.runs)) / 1e-6


class MaskWide(Workload):
    """`hmm.mask_hmm_batch` on a wide panel with three sensitive positions
    spread along the sequence and the backward table built in setup."""

    name = "mask_wide"
    work_unit = "masked (sequence, position) pairs"

    def __init__(self, seed, n=1000, m=500, batch=16, epsilon=0.05,
                 theta=0.01):
        super().__init__(seed)
        self.n, self.m, self.batch = n, m, batch
        self.epsilon, self.theta = epsilon, theta
        # fixed spread: the conditioned kernel runs up to the last one
        self.K = (n // 6, n // 2, (5 * n) // 6)

    def setup(self):
        rng = np.random.default_rng(_seed_seq(self.seed, 0))
        self.panel = rng.integers(2, size=(self.m, self.n))
        self.model = genomask.HmmModel(self.panel, self.epsilon, self.theta)
        self.table = hmm.sensitive_backward_table(self.model, self.K)

    def sequences(self, i: int) -> np.ndarray:
        """Copying-model draws made without genomask: each sequence copies a
        panel row, jumps to a uniform row with probability epsilon per step,
        and flips each copied bit with probability theta."""
        rng = np.random.default_rng(_seed_seq(self.seed, 1, i))
        jumps = rng.random((self.batch, self.n)) < self.epsilon
        targets = rng.integers(self.m, size=(self.batch, self.n))
        jumps[:, 0] = True
        rows = np.maximum.accumulate(
            np.where(jumps, np.arange(self.n), 0), axis=1)
        states = np.take_along_axis(targets, rows, axis=1)
        xs = self.panel[states, np.arange(self.n)]
        flips = rng.random((self.batch, self.n)) < self.theta
        return np.where(flips, 1 - xs, xs)

    def op(self, i):
        xs = self.sequences(i)  # about a millisecond; the op takes seconds
        rng = np.random.default_rng(_seed_seq(self.seed, 2, i))
        try:
            ys = hmm.mask_hmm_batch(self.model, xs, self.K, rng, self.table)
        except GenomaskError:
            return OpResult(0.0, 1, 1)
        self.check(ys.shape == xs.shape, f"mask shape {ys.shape}")
        self.check(bool(np.all((ys == xs) | (ys == genomask.STAR))),
                   "mask not faithful to its input")
        self.check(bool(np.all(ys[:, list(self.K)] == genomask.STAR)),
                   "sensitive position released")
        self.record(ys.tobytes())
        return OpResult(float(xs.size), 1, 0)

    def time_to_result(self, pass_seconds):
        # one batch call masks the workload's request
        return float(np.median(pass_seconds))


class ExactAudit(Workload):
    """Exact audits of a seeded mixed pool; one op is one pass over it."""

    name = "exact_audit"
    work_unit = "audited instances"

    def __init__(self, seed, pool=30, deep=1, deep_n=10, parity=3,
                 parity_m=5):
        super().__init__(seed)
        self.pool_size, self.deep, self.deep_n = pool, deep, deep_n
        self.parity, self.parity_m = parity, parity_m
        self.markov_false = 0   # certificate false negatives in one pass

    def _model(self, rng, kind: int, n: int, size_index: int):
        if kind == 0:
            probs = rng.dirichlet(np.full(2 ** n, 0.6))
            if size_index % 3 == 0:  # sparse support
                kill = rng.random(probs.size) < 0.3
                kill[int(rng.integers(probs.size))] = False
                probs = np.where(kill, 0.0, probs)
                probs = probs / probs.sum()
            return genomask.ExplicitJointModel(probs, n=n, alphabet=2)
        if kind == 1:
            return genomask.MarkovChainModel(
                rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2), size=2), n)
        m = 2 + size_index % 3
        return genomask.HmmModel(rng.integers(2, size=(m, n)),
                                 float(rng.uniform(0.02, 0.5)),
                                 float(rng.uniform(0.02, 0.4)), 2)

    def setup(self):
        rng = np.random.default_rng(_seed_seq(self.seed, 0))
        self.instances = []
        # sizes follow a fixed schedule so that every seed audits the same
        # mix of lengths; the models themselves are random
        for idx in range(self.pool_size):
            kind, size_index = idx % 3, idx // 3
            n = 3 + size_index % (4 if kind == 0 else 6)
            model = self._model(rng, kind, n, size_index)
            K = tuple(sorted(int(v) for v in rng.choice(
                n, size=min(1 + idx % 2, n), replace=False)))
            self.instances.append((model, K, self._ordering(rng, n)))
        # The deep walks dominate a pass, so their cost must not depend on
        # the seed.  They use dense explicit tables, where no branch is
        # pruned, and one sensitive position, the one the random ordering
        # visits halfway: where the ordering meets K sets the tree's size.
        for idx in range(self.deep):
            model = self._model(rng, 0, self.deep_n, 1)  # dense table
            ordering = self._ordering(rng, self.deep_n)
            self.instances.append(
                (model, (ordering.perm[self.deep_n // 2],), ordering))
        # the parity walk costs 2^edges, so every instance gets the same
        # edge count
        self.parity_cases = []
        while len(self.parity_cases) < self.parity:
            inst = hardness.random_instance(
                self.parity_m, int(rng.integers(2, 4)), rng)
            if len(inst.edges) == 2 * self.parity_m:
                order = tuple(int(v) for v in rng.permutation(inst.m) + 1)
                self.parity_cases.append((inst, order))

    @staticmethod
    def _ordering(rng, n):
        return genomask.Ordering(tuple(int(v) for v in rng.permutation(n)))

    def _audit(self, model, K, ordering):
        dist = genomask.exact_output_distribution(model, K, ordering)
        dev = dist.max_conditional_deviation()
        mi = dist.mutual_information_bits()
        direct = 1.0 - dist.expected_erasure_fraction()
        stepwise = genomask.rate_from_stepwise_minima(model, K, ordering)
        bound = genomask.upper_bound_rate(model, K)
        self.check(dev <= PRIVACY_TOL, f"audit deviation {dev:.3e}")
        self.check(abs(mi) <= PRIVACY_TOL, f"audit mutual information {mi:.3e}")
        self.check(abs(direct - stepwise) <= RATE_TOL,
                   f"stepwise rate {stepwise} != direct rate {direct}")
        self.check(direct <= bound + RATE_TOL, f"rate {direct} above bound {bound}")
        certified = None
        if isinstance(model, genomask.MarkovChainModel):
            # the certificate the theory guarantees: K = {first}, linear order;
            # its known false negatives are counted, not gated
            certified = genomask.markov_sufficient_condition_check(model, (0,))
        return direct, stepwise, bound, certified

    def op(self, i):
        outputs, failed = [], 0
        for model, K, ordering in self.instances:
            try:
                outputs.append(self._audit(model, K, ordering))
            except GenomaskError:
                failed += 1
        for inst, order in self.parity_cases:
            try:
                ok = hardness.verify_deterministic_rule(inst, order)
            except GenomaskError:
                failed += 1
                continue
            self.check(ok is True, f"deterministic rule rejected {inst}")
            outputs.append(ok)
        attempted = len(self.instances) + len(self.parity_cases)
        # every pass audits the same pool, so this is a per-pass count
        self.markov_false = sum(1 for out in outputs
                                if isinstance(out, tuple) and out[3] is False)
        self.record(outputs)
        return OpResult(float(attempted - failed), attempted, failed)

    def time_to_result(self, pass_seconds):
        # one op audits the whole pool exactly
        return float(np.median(pass_seconds))


class Fig5Lp(Workload):
    """The Fig. 5 grid on instances truncated to n positions: exact rate,
    converse bound, LP optimum and the LP mechanism's privacy, per point.

    The LP's pivot count depends on the panel and on the grid point.  Each
    op takes the next grid point on the next of `panels` seeded panels, so
    a run averages over many panels, and runs end on whole passes over the
    grid, so every run weighs the grid points alike."""

    name = "fig5_lp"
    work_unit = "LP grid points"

    def __init__(self, seed, n=6, panel_n=100, m=100, panels=36,
                 epsilons=(0.01, 0.1, 0.5), thetas=(0.01, 0.05)):
        super().__init__(seed)
        self.n, self.panel_n, self.m, self.panels = n, panel_n, m, panels
        self.grid = [(t, e) for t in thetas for e in epsilons]
        self.ops_per_pass = len(self.grid)

    def setup(self):
        rng = np.random.default_rng(_seed_seq(self.seed, 0))
        self.models = []
        for p in range(self.panels):
            theta, eps = self.grid[p % len(self.grid)]
            panel = rng.integers(2, size=(self.m, self.panel_n))
            self.models.append(
                genomask.HmmModel(panel, eps, theta).truncated(self.n))

    def op(self, i):
        model = self.models[i % self.panels]
        try:
            rate = genomask.achievable_rate_exact(model, [0])
            bound = genomask.upper_bound_rate(model, [0])
            sol = genomask.lp_optimal_rate(model, [0])
            if sol.status != "optimal":
                return OpResult(0.0, 1, 1)
            dist = genomask.lp_output_distribution(model, [0], sol)
        except GenomaskError:
            return OpResult(0.0, 1, 1)
        lp = sol.optimal_rate
        self.check(rate <= lp + LP_TOL, f"rate {rate} above LP optimum {lp}")
        self.check(lp <= bound + LP_TOL, f"LP optimum {lp} above bound {bound}")
        mi = dist.mutual_information_bits()
        dev = dist.max_conditional_deviation()
        self.check(mi <= LP_TOL and dev <= LP_TOL,
                   f"LP mechanism leaks: MI {mi:.3e}, deviation {dev:.3e}")
        self.record((rate, bound, lp))
        return OpResult(1.0, 1, 0)

    def time_to_result(self, pass_seconds):
        # one pass solves every grid point once, exactly
        return float(np.median(pass_seconds))


WORKLOADS = {w.name: w for w in (Fig4Mc, MaskWide, ExactAudit, Fig5Lp)}

#: Sizes for the self-test and the digest probe.
TINY = {
    "fig4_mc": dict(n=12, m=6, runs=16, epsilons=(0.1, 0.5), thetas=(0.05,)),
    "mask_wide": dict(n=24, m=6, batch=3),
    "exact_audit": dict(pool=6, deep=1, deep_n=5, parity=1, parity_m=3),
    "fig5_lp": dict(n=3, panel_n=8, m=4, panels=2, epsilons=(0.1,),
                    thetas=(0.05,)),
}
