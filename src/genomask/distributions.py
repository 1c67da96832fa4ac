"""Sequence models: explicit joint tables, first-order Markov chains, and
the haplotype-copying hidden Markov model.

A model implements two batched methods, `joint_probs` (exact probabilities
of an (N, n) array of sequences) and `sample_batch`; `SequenceModel` derives
`joint_prob`, `sample` and `joint_table` from them.  Probabilities are kept
in the linear domain; the HMM forward pass renormalizes per step and
accumulates a log scale factor so that joint probabilities of long
sequences stay exact.  `row_codes` is the one row-major coding of
sequences and sensitive assignments (first position most significant).
"""

from __future__ import annotations

import abc
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CapacityError, InputError

#: Cap on the number of sequences materialized by enumeration; read at call
#: time by `SequenceModel.enumerate_space`, the one place that checks it.
ENUMERATION_BUDGET = 1 << 17

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Alphabet:
    """Symbol alphabet 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise InputError("alphabet size must be at least 2")

    def symbols(self) -> range:
        return range(self.size)


def validate_sequence(x: Sequence[int], arities: Sequence[int]) -> tuple[int, ...]:
    """Check length and per-position symbol range; return x as a tuple."""
    x = tuple(int(v) for v in x)
    if len(x) != len(arities):
        raise InputError(f"sequence length {len(x)} != model length {len(arities)}")
    for i, (v, a) in enumerate(zip(x, arities)):
        if not 0 <= v < a:
            raise InputError(f"symbol {v} at position {i} outside 0..{a - 1}")
    return x


def sensitive_assignments(arities: Sequence[int], K: Sequence[int]) -> list[tuple[int, ...]]:
    """All value assignments to the positions in sorted(K), row-major
    (first sensitive position most significant)."""
    K = sorted(K)
    return list(itertools.product(*(range(arities[k]) for k in K)))


def row_codes(rows, dims: Sequence[int]) -> np.ndarray:
    """Row-major codes of the rows of an (N, len(dims)) integer array, the
    first column most significant.  With no columns every row has code 0.
    A row of the wrong length or a value outside 0..dims[j]-1 raises
    `InputError`."""
    rows = np.asarray(rows, dtype=np.int64)
    dims = tuple(int(d) for d in dims)
    if rows.ndim != 2 or rows.shape[1] != len(dims):
        raise InputError(f"rows must have shape (N, {len(dims)})")
    if not dims:
        return np.zeros(rows.shape[0], dtype=np.int64)
    try:
        return np.ravel_multi_index(tuple(rows.T), dims)
    except ValueError as exc:
        raise InputError(f"value outside the ranges {dims}") from exc


def first_seen_ranks(codes: np.ndarray) -> np.ndarray:
    """Each code's rank among the distinct codes, numbered in order of
    first appearance."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse.reshape(-1)]


def assignment_index(u: Sequence[int], arities: Sequence[int], K: Sequence[int]) -> int:
    """Row-major index of assignment u within `sensitive_assignments`."""
    return int(row_codes(np.reshape(u, (1, -1)),
                         [arities[k] for k in sorted(K)])[0])


def _inverse_or_zero(x: np.ndarray, keep=None) -> np.ndarray:
    """1 / x where ``keep`` (default: x > 0), 0 elsewhere."""
    return np.divide(1.0, x, out=np.zeros_like(x),
                     where=x > 0 if keep is None else keep)


class SequenceModel(abc.ABC):
    """A distribution over length-n sequences with per-position arities.

    A model implements `joint_probs` and `sample_batch`; `joint_prob`,
    `sample` and `joint_table` are their one-row and whole-space cases.
    """

    n: int
    arities: tuple[int, ...]

    @abc.abstractmethod
    def joint_probs(self, xs: np.ndarray) -> np.ndarray:
        """Exact probabilities of the rows of an (N, n) array of valid
        sequences."""

    @abc.abstractmethod
    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """(count, n) array of independent draws."""

    def joint_prob(self, x: Sequence[int]) -> float:
        """Exact probability of the full sequence x."""
        x = validate_sequence(x, self.arities)
        return float(self.joint_probs(np.array([x], dtype=np.int64))[0])

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        """Draw one sequence."""
        return tuple(int(v) for v in self.sample_batch(1, rng)[0])

    @property
    def space_size(self) -> int:
        return math.prod(self.arities)

    def enumerate_space(self) -> np.ndarray:
        """All sequences as an (N, n) int array in row-major order."""
        if self.space_size > ENUMERATION_BUDGET:
            raise CapacityError(
                f"sequence space of size {self.space_size} exceeds budget "
                f"{ENUMERATION_BUDGET}"
            )
        return np.stack(np.unravel_index(np.arange(self.space_size),
                                         self.arities), axis=1)

    def joint_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(space, probs) for the full sequence space."""
        space = self.enumerate_space()
        return space, self.joint_probs(space)


class ExplicitJointModel(SequenceModel):
    """Distribution given by an explicit table over all sequences.

    The table is row-major with position 0 most significant, so
    ``probs[i]`` is the probability of ``enumerate_space()[i]``.
    """

    def __init__(self, probs, arities: Sequence[int] | None = None,
                 n: int | None = None, alphabet: int | Alphabet = 2):
        if arities is None:
            size = alphabet.size if isinstance(alphabet, Alphabet) else int(alphabet)
            if n is None:
                raise InputError("need n when arities are not given")
            arities = (size,) * n
        self.arities = tuple(int(a) for a in arities)
        if any(a < 2 for a in self.arities):
            raise InputError("every position needs arity >= 2")
        self.n = len(self.arities)
        probs = np.asarray(probs, dtype=float).reshape(-1)
        if probs.size != self.space_size:
            raise InputError(
                f"table has {probs.size} entries, expected {self.space_size}"
            )
        if np.any(probs < 0):
            raise InputError("negative probability in table")
        if abs(probs.sum() - 1.0) > _SUM_TOL:
            raise InputError(f"table sums to {probs.sum()!r}, not 1")
        self.probs = probs
        self.probs.setflags(write=False)

    @classmethod
    def uniform(cls, n: int, alphabet: int = 2) -> "ExplicitJointModel":
        size = alphabet ** n
        return cls(np.full(size, 1.0 / size), n=n, alphabet=alphabet)

    def index_of(self, x: Sequence[int]) -> int:
        return int(row_codes([validate_sequence(x, self.arities)],
                             self.arities)[0])

    def joint_probs(self, xs: np.ndarray) -> np.ndarray:
        return self.probs[row_codes(xs, self.arities)]

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(self.probs.size, size=count, p=self.probs)
        return np.stack(np.unravel_index(idx, self.arities), axis=1)


class MarkovChainModel(SequenceModel):
    """First-order homogeneous Markov chain over a shared alphabet."""

    def __init__(self, initial, transition, n: int):
        self.initial = np.asarray(initial, dtype=float)
        self.transition = np.asarray(transition, dtype=float)
        size = self.initial.size
        if size < 2:
            raise InputError("alphabet size must be at least 2")
        if self.transition.shape != (size, size):
            raise InputError("transition matrix shape mismatch")
        if np.any(self.initial < 0) or np.any(self.transition < 0):
            raise InputError("negative probability in chain parameters")
        if abs(self.initial.sum() - 1.0) > _SUM_TOL:
            raise InputError("initial distribution does not sum to 1")
        rowsum = self.transition.sum(axis=1)
        if np.any(np.abs(rowsum - 1.0) > _SUM_TOL):
            raise InputError("transition rows must sum to 1")
        if n < 1:
            raise InputError("n must be >= 1")
        self.n = int(n)
        self.alphabet = Alphabet(size)
        self.arities = (size,) * self.n
        self.initial.setflags(write=False)
        self.transition.setflags(write=False)

    @classmethod
    def binary_symmetric(cls, stay: float, n: int,
                         initial=(0.5, 0.5)) -> "MarkovChainModel":
        t = np.array([[stay, 1 - stay], [1 - stay, stay]])
        return cls(initial, t, n)

    def joint_probs(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        p = self.initial[xs[:, 0]]
        for i in range(1, self.n):
            p = p * self.transition[xs[:, i - 1], xs[:, i]]
        return p

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF draws: row r uses the r-th n doubles of the stream,
        one per position, as `rng.choice` with ``p`` would."""
        u = rng.random((count, self.n))
        first = self.initial.cumsum()
        first /= first[-1]
        cdf = self.transition.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        out = np.empty((count, self.n), dtype=np.int64)
        out[:, 0] = (first <= u[:, :1]).sum(axis=1)
        for i in range(1, self.n):
            out[:, i] = (cdf[out[:, i - 1]] <= u[:, i, None]).sum(axis=1)
        return out


class HmmModel(SequenceModel):
    """Haplotype-copying HMM.

    The hidden state S_i picks a row of the reference panel; it stays with
    probability 1-epsilon and switches to each other row with probability
    epsilon/(m-1).  The initial state is uniform.  The emitted symbol copies
    the panel entry and is corrupted with probability theta (uniformly over
    the other symbols).

    Parameters
    ----------
    panel : (m, n) integer array
        One reference sequence per row.
    epsilon : float
        Per-step switch (crossover) probability, in [0, 1].
    theta : float
        Per-position copy-error probability, in [0, 1].
    alphabet : int
        Symbol arity; panel entries must lie in 0..alphabet-1.
    """

    def __init__(self, panel, epsilon: float, theta: float, alphabet: int = 2):
        panel = np.asarray(panel, dtype=np.int64)
        if panel.ndim != 2 or panel.size == 0:
            raise InputError("panel must be a non-empty 2-D array")
        if not 0.0 <= epsilon <= 1.0:
            raise InputError("epsilon must be in [0, 1]")
        if not 0.0 <= theta <= 1.0:
            raise InputError("theta must be in [0, 1]")
        size = alphabet.size if isinstance(alphabet, Alphabet) else int(alphabet)
        if size < 2:
            raise InputError("alphabet size must be at least 2")
        if panel.min() < 0 or panel.max() >= size:
            raise InputError("panel entries outside alphabet")
        self.panel = panel
        self.panel.setflags(write=False)
        self.epsilon = float(epsilon)
        self.theta = float(theta)
        self.alphabet = Alphabet(size)
        self.m, self.n = panel.shape
        self.arities = (size,) * self.n

    @property
    def transition_matrix(self) -> np.ndarray:
        """(m, m) hidden-state kernel: stay 1-eps, switch eps/(m-1)."""
        m = self.m
        if m == 1:
            return np.ones((1, 1))
        t = np.full((m, m), self.epsilon / (m - 1))
        np.fill_diagonal(t, 1.0 - self.epsilon)
        return t

    @property
    def initial_state(self) -> np.ndarray:
        return np.full(self.m, 1.0 / self.m)

    def emission_likelihoods(self, i: int) -> np.ndarray:
        """(arity, m) matrix of p(x_i = v | S_i = s)."""
        size = self.alphabet.size
        col = self.panel[:, i]
        out = np.full((size, self.m), self.theta / (size - 1))
        out[col, np.arange(self.m)] = 1.0 - self.theta
        return out

    def emission_stack(self) -> np.ndarray:
        """(n, arity, m) stack of all emission likelihood matrices."""
        return np.stack([self.emission_likelihoods(i) for i in range(self.n)])

    def log_joint_probs(self, xs: np.ndarray) -> np.ndarray:
        """log p(x) per row by one scaled forward pass over all rows;
        -inf for impossible rows."""
        xs = np.asarray(xs, dtype=np.int64)
        emis = self.emission_stack()
        t = self.transition_matrix
        f = self.initial_state * emis[0][xs[:, 0]]         # (N, m)
        log_p = np.zeros(xs.shape[0])
        for i in range(self.n):
            if i:
                f = (f * _inverse_or_zero(total)[:, None]) @ t * emis[i][xs[:, i]]
            total = f.sum(axis=1)
            log_p += np.log(total, out=np.full_like(total, -np.inf),
                            where=total > 0)
        return log_p

    def joint_probs(self, xs: np.ndarray) -> np.ndarray:
        return np.exp(self.log_joint_probs(xs))

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """(count, n) array of independent draws."""
        m, n = self.m, self.n
        size = self.alphabet.size
        states = np.empty((count, n), dtype=np.int64)
        states[:, 0] = rng.integers(m, size=count)
        if m > 1:
            switch = rng.random((count, n - 1)) < self.epsilon
            # uniform over the other m-1 rows
            jump = rng.integers(m - 1, size=(count, n - 1))
            for i in range(1, n):
                prev = states[:, i - 1]
                nxt = jump[:, i - 1]
                nxt = nxt + (nxt >= prev)
                states[:, i] = np.where(switch[:, i - 1], nxt, prev)
        else:
            states[:, 1:] = 0
        x = self.panel[states, np.arange(n)[None, :]]
        err = rng.random((count, n)) < self.theta
        if size == 2:
            x = np.where(err, 1 - x, x)
        else:
            shift = rng.integers(1, size, size=(count, n))
            x = np.where(err, (x + shift) % size, x)
        return x

    def truncated(self, n_new: int) -> "HmmModel":
        """Model over the first n_new positions, parameters unchanged."""
        if not 1 <= n_new <= self.n:
            raise InputError("truncation length out of range")
        return HmmModel(self.panel[:, :n_new], self.epsilon, self.theta,
                        self.alphabet.size)


# ---------------------------------------------------------------------------
# File formats


def load_panel(path: str | Path) -> np.ndarray:
    """Read a panel file: one haplotype per line, one digit per symbol."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read panel {path}: {exc.strerror}") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if not line.isdigit():
            raise InputError(f"{path}:{lineno}: non-digit panel entry")
        rows.append([int(ch) for ch in line])
    if not rows:
        raise InputError(f"{path}: empty panel file")
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise InputError(f"{path}: ragged panel lines {sorted(lengths)}")
    return np.array(rows, dtype=np.int64)


def save_panel(panel: np.ndarray, path: str | Path) -> None:
    lines = ["".join(str(int(v)) for v in row) for row in np.asarray(panel)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_model_config(source: str | Path | dict) -> SequenceModel:
    """Build a model from a JSON config (path or already-parsed dict).

    Recognized forms:
      * ``{"epsilon": f, "theta": f, "panel_path": s[, "alphabet": k]}``
      * ``{"type": "markov", "n": k, "initial": [...], "transition": [[...]]}``
      * ``{"type": "explicit", "n": k, "alphabet": k, "probs": [...]}``
    """
    if isinstance(source, (str, Path)):
        base = Path(source).parent
        try:
            cfg = json.loads(Path(source).read_text())
        except OSError as exc:
            raise InputError(f"cannot read model config {source}: "
                             f"{exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"bad JSON in {source}: {exc}") from exc
    else:
        base = Path(".")
        cfg = source
    if not isinstance(cfg, dict):
        raise InputError("model config must be a JSON object")
    kind = cfg.get("type")
    if kind is None and "panel_path" in cfg:
        kind = "hmm"
    try:
        if kind == "hmm":
            panel_path = Path(cfg["panel_path"])
            if not panel_path.is_absolute():
                panel_path = base / panel_path
            panel = load_panel(panel_path)
            return HmmModel(panel, cfg["epsilon"], cfg["theta"],
                            int(cfg.get("alphabet", 2)))
        if kind == "markov":
            return MarkovChainModel(cfg["initial"], cfg["transition"], int(cfg["n"]))
        if kind == "explicit":
            return ExplicitJointModel(cfg["probs"], n=int(cfg["n"]),
                                      alphabet=int(cfg.get("alphabet", 2)))
    except KeyError as exc:
        raise InputError(f"model config missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad {kind} model config: {exc}") from exc
    raise InputError(f"unrecognized model config type {kind!r}")
