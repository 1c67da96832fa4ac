"""Seeded experiment sweeps over the masking mechanism, bounds and baselines.

Each runner returns one dict per grid point with a fixed column set; the
CLI writes them as CSV (or JSON lines).  A single root seed deterministically
derives one child stream per grid point, so reruns give identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import baselines, bounds, hardness, mechanism
from .distributions import HmmModel, MarkovChainModel
from .errors import GenomaskError, InputError

CSV_COLUMNS = [
    "experiment", "n", "m", "epsilon", "theta", "k", "omega", "runs", "seed",
    "erasure_rate", "rate", "stderr", "bound", "lp_rate",
    "leakage", "leakage_stderr", "kl_bound", "e_star", "h_star", "status",
]

DEFAULT_EPSILONS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
DEFAULT_THETAS = (0.01, 0.05)
DEFAULT_OMEGAS = tuple(range(0, 55, 5))

#: The enumerable lengths that the exact runners cut n down to.
TRUNCATED_N = {"fig5": 6, "robustness": 5}


@dataclass
class ExperimentConfig:
    """Grid specification for one named experiment."""

    experiment: str
    n: int = 100
    m: int = 100
    k: tuple[int, ...] = (0,)
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    thetas: tuple[float, ...] = DEFAULT_THETAS
    omegas: tuple[int, ...] | None = None    # None: DEFAULT_OMEGAS up to n
    runs: int = 2000
    seed: int = 0
    panel: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.omegas is None:
            self.omegas = tuple(w for w in DEFAULT_OMEGAS if w <= self.n)
        if self.runs < 1:
            raise InputError("runs must be >= 1")
        if not self.epsilons or not self.thetas or not self.omegas:
            raise InputError("parameter grids must be non-empty")
        if bad := [w for w in self.omegas if not 0 <= w <= self.n]:
            raise InputError(f"omega {bad[0]} outside 0..{self.n}")
        if bad := [v + 1 for v in self.k if not 0 <= v < self.length]:
            raise InputError(f"sensitive position {bad[0]} outside 1.."
                             f"{self.length}, the n that {self.experiment} masks")
        if not 0 <= self.seed < 2 ** 64:
            raise InputError("seed must fit in 64 bits")
        if self.panel is not None and np.shape(self.panel) != (self.m, self.n):
            raise InputError(f"panel of shape {np.shape(self.panel)} does not "
                             f"match (m, n) = ({self.m}, {self.n})")

    @property
    def length(self) -> int:
        """The n the runner masks: `TRUNCATED_N` cuts it for exact runners."""
        return min(self.n, TRUNCATED_N.get(self.experiment, self.n))


def _row(config: ExperimentConfig, **fields) -> dict:
    row = {c: "" for c in CSV_COLUMNS}
    row.update(experiment=config.experiment, n=config.n, m=config.m,
               k=",".join(str(v + 1) for v in config.k), seed=config.seed,
               runs=config.runs)
    row.update(fields)
    return row


def _panel(config: ExperimentConfig, root: np.random.SeedSequence) -> np.ndarray:
    if config.panel is not None:
        return np.asarray(config.panel)
    rng = np.random.default_rng(root.spawn(1)[0])
    return rng.integers(2, size=(config.m, config.n))


def run_fig3(config: ExperimentConfig) -> list[dict]:
    """Window-baseline leakage sweep next to the mechanism's erasure rate,
    for one sensitive position k anywhere (`--k`).  The window of omega
    erases the positions within omega - 1 of k; its leakage is sampled by
    `baselines.window_leakage_sweep`, which joins the chain's forward filter
    left of the window and a backward pass right of it through T^omega."""
    root = np.random.SeedSequence(config.seed)
    panel = _panel(config, root)
    eps, theta = config.epsilons[0], config.thetas[0]
    model = HmmModel(panel, eps, theta)
    streams = root.spawn(3)
    rate, err = mechanism.achievable_rate_mc(
        model, config.k, runs=config.runs,
        rng=np.random.default_rng(streams[1]))
    rows = [_row(config, epsilon=eps, theta=theta, rate=rate, stderr=err,
                 erasure_rate=1.0 - rate, status="ok")]
    leak, leak_err = baselines.window_leakage_sweep(
        model, config.k, config.omegas, config.runs,
        np.random.default_rng(streams[2]))
    for w, le, se in zip(config.omegas, leak, leak_err):
        rows.append(_row(config, epsilon=eps, theta=theta, omega=w,
                         erasure_rate=len(baselines.window_erased(
                             config.n, config.k, w)) / config.n, leakage=le,
                         leakage_stderr=se, status="ok"))
    return rows


def run_fig4(config: ExperimentConfig) -> list[dict]:
    """Mechanism rate vs. the converse bound over a parameter grid."""
    root = np.random.SeedSequence(config.seed)
    panel = _panel(config, root)
    grid = [(theta, eps) for theta in config.thetas for eps in config.epsilons]
    children = root.spawn(len(grid) + 1)[1:]
    rows = []
    for (theta, eps), child in zip(grid, children):
        model = HmmModel(panel, eps, theta)
        rate, err = mechanism.achievable_rate_mc(
            model, config.k, runs=config.runs, rng=np.random.default_rng(child))
        bound = bounds.upper_bound_rate(model, config.k)
        rows.append(_row(config, epsilon=eps, theta=theta, rate=rate,
                         stderr=err, erasure_rate=1.0 - rate, bound=bound,
                         status="ok"))
    return rows


def run_fig5(config: ExperimentConfig) -> list[dict]:
    """Mechanism vs. LP optimum vs. bound on truncated instances."""
    root = np.random.SeedSequence(config.seed)
    panel = _panel(config, root)
    rows = []
    for theta in config.thetas:
        for eps in config.epsilons:
            # parameters are kept as-is after truncation
            model = HmmModel(panel[:, :config.length], eps, theta)
            try:
                rate = mechanism.achievable_rate_exact(model, config.k)
                bound = bounds.upper_bound_rate(model, config.k)
                sol = bounds.lp_optimal_rate(model, config.k)
                rows.append(_row(config, epsilon=eps, theta=theta, rate=rate,
                                 erasure_rate=1.0 - rate, bound=bound,
                                 lp_rate=sol.optimal_rate, status=sol.status))
            except GenomaskError as exc:
                rows.append(_row(config, epsilon=eps, theta=theta,
                                 status=f"error:{type(exc).__name__}"))
    return rows


def run_robustness(config: ExperimentConfig) -> list[dict]:
    """Leakage of mechanisms built from perturbed chains vs. the divergence
    bound, on enumerable lengths."""
    root = np.random.SeedSequence(config.seed)
    n = config.length
    rows = []
    for idx, child in enumerate(root.spawn(config.runs)):
        rng = np.random.default_rng(child)
        stay_p = rng.uniform(0.55, 0.95)
        stay_q = float(np.clip(stay_p + rng.uniform(-0.15, 0.15), 0.05, 0.95))
        pair = baselines.MismatchPair(
            MarkovChainModel.binary_symmetric(stay_p, n),
            MarkovChainModel.binary_symmetric(stay_q, n))
        res = baselines.robustness_experiment(pair, config.k)
        rows.append(_row(config, epsilon=stay_p, theta=stay_q, omega=idx,
                         leakage=res.leakage_bits, kl_bound=res.kl_bound_bits,
                         status="ok"))
    return rows


def run_hardness(config: ExperimentConfig) -> list[dict]:
    """Ordering search vs. hitting-set optimum on random instances."""
    root = np.random.SeedSequence(config.seed)
    m = min(config.m, 5)
    k = min(len(config.k) if len(config.k) > 1 else 3, 4)
    rows = []
    for idx, child in enumerate(root.spawn(config.runs)):
        rng = np.random.default_rng(child)
        inst = hardness.random_instance(m, k, rng)
        report = hardness.reduction_report(inst)
        status = "ok" if report["e_star"] == report["h_star"] else "mismatch"
        rows.append(_row(config, omega=idx, m=m,
                         e_star=report["e_star"], h_star=report["h_star"],
                         status=status))
    return rows


RUNNERS = {
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "robustness": run_robustness,
    "hardness": run_hardness,
}


def run_experiment(config: ExperimentConfig) -> list[dict]:
    try:
        runner = RUNNERS[config.experiment]
    except KeyError:
        raise InputError(
            f"unknown experiment {config.experiment!r}; "
            f"choose from {sorted(RUNNERS)}") from None
    return runner(config)
