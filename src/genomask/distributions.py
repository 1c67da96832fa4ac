"""Sequence models: explicit joint tables, first-order Markov chains, and
the haplotype-copying hidden Markov model.

A model implements two batched methods, `joint_probs` (probabilities of an
(N, n) array of sequences, in the linear domain) and `sample_batch`;
`SequenceModel` derives `joint_prob`, `sample` and `joint_table` from them.
The copying HMM and the Markov chain (hidden state = symbol) return a
`hidden_chain`, whose scaled forward pass keeps log probabilities of long
sequences exact.  `row_codes` is the one row-major coding of sequences and
sensitive assignments.  This module owns `STAR` and the one text form of
symbol rows: `symbols_text` writes it and `parse_symbols` reads it.
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

#: Bytes the working arrays of one batch may take: `budget_pieces` cuts
#: `HiddenChain.log_probs`, `hmm.mask_hmm_batch` and the window sweep (its
#: powers of T held) to fit; `EnumeratedMechanism.walk` splits its batches
#: by it.  It sets how work is cut, never which draws.  Read at call time.
BELIEF_BUDGET_BYTES = 64 * 2**20

_SUM_TOL = 1e-12

STAR, STAR_CHAR = -1, "*"   # the erasure symbol (others are >= 0), its character


@dataclass(frozen=True)
class Alphabet:
    """Symbol alphabet 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise InputError("alphabet size must be at least 2")

    def symbols(self) -> range:
        return range(self.size)


def int_array(values, ndim: int, what: str) -> np.ndarray:
    """``values``, an array or any iterable, as an int64 array of ``ndim``
    axes: the one conversion of caller-given symbols and positions.
    `InputError` naming ``what`` for another nesting (ragged rows too) or a
    value that is not a finite integer within int64: a float must be
    integral, and strings, None and other objects are refused."""
    try:
        arr = np.asarray(values if isinstance(values, np.ndarray)
                         else list(values))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be a {ndim}-D array of integers") from exc
    if arr.ndim != ndim:
        raise InputError(f"{what} must be a {ndim}-D array of integers, "
                         f"not {arr.ndim}-D")
    if arr.dtype.kind == "f":
        ok = (np.isfinite(arr) & (arr == np.round(arr))
              & (np.abs(arr) < 2.0 ** 63)).all()
    else:
        ok = arr.dtype.kind in "bi" or (arr.dtype.kind == "u" and np.all(
            arr <= np.iinfo(np.int64).max))
    if not ok:
        raise InputError(f"{what} must be finite integers")
    return arr.astype(np.int64, copy=False)


def symbol_rows(xs, arities: Sequence[int], what: str) -> np.ndarray:
    """``xs`` as an (N, n) int64 array of sequences, n = len(arities): the
    one check of caller-given symbol rows.  `InputError` naming ``what``
    where `int_array` refuses them, for another column count, or for a
    symbol outside 0..arities[i]-1 in column i."""
    xs = int_array(xs, 2, what)
    if xs.shape[1] != len(arities):
        raise InputError(f"{what} must have {len(arities)} positions, "
                         f"not {xs.shape[1]}")
    # as uint64 a negative symbol is huge; the flat maximum spares most
    # rows the per-column one, about 10 times slower
    wide = xs.view(np.uint64)
    if xs.size and wide.max() >= min(arities):
        if (bad := np.flatnonzero(wide.max(axis=0) >= arities)).size:
            raise InputError(f"{what}: a symbol at position {bad[0]} lies "
                             f"outside 0..{arities[bad[0]] - 1}")
    return xs


def validate_sequence(x: Sequence[int], arities: Sequence[int]) -> tuple[int, ...]:
    """Check length and per-position symbol range; return x as a tuple."""
    x = int_array(x, 1, "a sequence")
    return tuple(symbol_rows(x[None], arities, "a sequence")[0].tolist())


def sensitive_assignments(arities: Sequence[int], K: Sequence[int]) -> list[tuple[int, ...]]:
    """All value assignments to the positions in sorted(K), row-major
    (first sensitive position most significant)."""
    K = sorted(K)
    return list(itertools.product(*(range(arities[k]) for k in K)))


def row_codes(rows, dims: Sequence[int]) -> np.ndarray:
    """Row-major codes of the rows of an (N, len(dims)) integer array, the
    first column most significant.  With no columns every row has code 0.
    Rows that `symbol_rows` refuses raise `InputError`."""
    rows = symbol_rows(rows, dims, "rows")
    if not len(dims):
        return np.zeros(rows.shape[0], dtype=np.int64)
    return np.ravel_multi_index(tuple(rows.T), tuple(dims))


def symbols_text(row) -> str:
    """Text form: a digit 0-9 per symbol, STAR_CHAR for STAR, else `InputError`."""
    for v in row:
        if not STAR <= v <= 9:
            raise InputError(f"symbol {v} has no one-character text form")
    return "".join(STAR_CHAR if v == STAR else str(int(v)) for v in row)


def parse_symbols(text: str, what: str) -> tuple[int, ...]:
    """The row of a stripped text: a `str.isdecimal` character per symbol,
    STAR_CHAR as STAR; `InputError` naming ``what`` for others, like ²."""
    for ch in text.strip():
        if ch != STAR_CHAR and not ch.isdecimal():
            raise InputError(f"{what}: {ch!r} is not a digit or {STAR_CHAR!r}")
    return tuple(STAR if ch == STAR_CHAR else int(ch) for ch in text.strip())


def first_seen_ranks(codes: np.ndarray) -> np.ndarray:
    """Each code's rank among the distinct codes, numbered in order of
    first appearance."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse.reshape(-1)]


def assignment_index(u: Sequence[int], arities: Sequence[int], K: Sequence[int]) -> int:
    """Row-major index of assignment u within `sensitive_assignments`."""
    return int(row_codes(np.reshape(u, (1, -1)),
                         [arities[k] for k in sorted(K)])[0])


def budget_pieces(count: int, row_bytes: int, _held: int = 0) -> list[slice]:
    """Slices of ``range(count)`` whose rows of ``row_bytes`` fit in
    ``BELIEF_BUDGET_BYTES`` less ``_held``; `CapacityError` if one does not."""
    size = (BELIEF_BUDGET_BYTES - _held) // row_bytes
    if size < 1:
        raise CapacityError(f"{_held} held bytes and one {row_bytes}-byte "
                            f"row exceed the {BELIEF_BUDGET_BYTES}-byte budget")
    return [slice(start, min(start + size, count))
            for start in range(0, count, size)]


def _inverse_or_zero(x: np.ndarray, keep=None) -> np.ndarray:
    """1 / x where ``keep`` (default: x > 0), 0 elsewhere."""
    return np.divide(1.0, x, out=np.zeros_like(x),
                     where=x > 0 if keep is None else keep)


@dataclass(frozen=True)
class HiddenChain:
    """A hidden Markov chain (write-locked): ``initial[s]`` = p(S_0 = s),
    ``trans[s, t]`` = p(S_i+1 = t | S_i = s), ``law[v, c]`` = p(x = v | class
    c) and ``classes[i, s]``, the class of state s at position i.  Only
    `forward`, `backward`, `power` and `emission(i)`, p(x_i = v | S_i = s)
    made one position at a time, read T and the law, so a structured T
    (copying: diagonal plus rank one) or a byte check has one site to
    change.  A model builds its chain once, so the chain's identity names
    the model: a backward table serves the sessions of its own model only."""

    initial: np.ndarray      # (m,)
    trans: np.ndarray        # (m, m)
    law: np.ndarray          # (arity, classes)
    classes: np.ndarray      # (n, m) integer

    def __post_init__(self):
        for array in vars(self).values():
            array.setflags(write=False)

    @property
    def m(self) -> int:
        return self.initial.size

    @property
    def n(self) -> int:
        return self.classes.shape[0]

    def forward(self, b: np.ndarray, out=None) -> np.ndarray:
        """b @ T: a belief over S_i carried to S_i+1."""
        return np.matmul(b, self.trans, out=out)

    def backward(self, b: np.ndarray, out=None) -> np.ndarray:
        """b @ T.T: a likelihood given S_i+1 carried back to S_i."""
        return np.matmul(b, self.trans.T, out=out)

    def power(self, k: int) -> np.ndarray:
        """T^k for k >= 1 (T itself when k = 1) by repeated squaring, left to
        right over the bits of k (Knuth, TAOCP vol. 2 §4.6.3): floor(log2 k)
        squarings and one product with T per further set bit, at most
        2 ceil(log2 k) (m, m) products.  At most two (m, m) arrays of its own
        are alive at once."""
        p = self.trans
        for bit in bin(k)[3:]:
            p = np.matmul(p, p)
            if bit == "1":
                p = self.forward(p)
        return p

    def emission(self, i: int) -> np.ndarray:
        """The (arity, m) law p(x_i = v | S_i = s), a new array per call."""
        return self.law.take(self.classes[i], axis=1)

    def filtered(self, rows: np.ndarray):
        """The scaled forward filter (Rabiner 1989) of (rows, n) symbols: per
        position i, (f, total) with f / total = p(S_i | x_0..x_i) and total =
        f.sum(1) = p(x_i | x_0..x_i-1)."""
        f = self.initial * self.emission(0)[rows[:, 0]]        # (rows, m)
        for i in range(self.n):
            if i:
                f = (self.forward(f * _inverse_or_zero(total)[:, None])
                     * self.emission(i)[rows[:, i]])
            total = f.sum(axis=1)
            yield f, total

    def log_probs(self, xs: np.ndarray) -> np.ndarray:
        """log p(x) per row, the sum of `filtered`'s log totals; -inf for
        impossible rows.  Rows go in pieces whose four live (rows, m) float64
        arrays fit in ``BELIEF_BUDGET_BYTES``; a row that does not fit goes
        alone, as a node of the walk that reaches this via `joint_table`."""
        xs = symbol_rows(xs, (self.law.shape[0],) * self.n, "rows")
        log_p = np.zeros(xs.shape[0])
        row_bytes = min(4 * 8 * self.m, BELIEF_BUDGET_BYTES)
        for piece in budget_pieces(xs.shape[0], row_bytes):
            for _, total in self.filtered(xs[piece]):
                log_p[piece] += np.log(total, out=np.full_like(total, -np.inf),
                                       where=total > 0)
        return log_p


class SequenceModel(abc.ABC):
    """A distribution over length-n sequences with per-position arities.

    A model implements `joint_probs` and `sample_batch`; `joint_prob`,
    `sample` and `joint_table` are their one-row and whole-space cases.
    """

    n: int
    arities: tuple[int, ...]

    @abc.abstractmethod
    def joint_probs(self, xs: np.ndarray) -> np.ndarray:
        """Probabilities of the rows of an (N, n) array of valid sequences,
        multiplied in the linear domain: a possible long row can read 0.0,
        and `hidden_chain().log_probs` (as `mask_sequence` reads) cannot."""

    @abc.abstractmethod
    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """(count, n) array of independent draws."""

    def hidden_chain(self) -> HiddenChain | None:
        """The model as a hidden chain (for the fast paths), or None."""
        return None

    def joint_prob(self, x: Sequence[int]) -> float:
        """Probability of the full sequence x, linear as `joint_probs`."""
        x = validate_sequence(x, self.arities)
        return float(self.joint_probs(np.array([x], dtype=np.int64))[0])

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        """Draw one sequence."""
        return tuple(int(v) for v in self.sample_batch(1, rng)[0])

    @property
    def space_size(self) -> int:
        return math.prod(self.arities)

    def enumerate_space(self) -> np.ndarray:
        """All sequences as an (N, n) int array in row-major order.  Each
        arity >= 2 at least doubles the space, so past 64 of them it is over
        any enumerable budget and its product, quadratic in n, is not formed."""
        wide = [a for a in self.arities if a > 1]
        size = math.prod(wide) if len(wide) <= 64 else None
        if size is None or size > ENUMERATION_BUDGET:
            raise CapacityError(f"sequence space of n = {self.n} positions"
                                + (f" and size {size}" if size else "")
                                + f" exceeds budget {ENUMERATION_BUDGET}")
        return np.stack(np.unravel_index(np.arange(size), self.arities),
                        axis=1)

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
                 n: int | None = None, alphabet: int = 2):
        if arities is None:
            if n is None:
                raise InputError("need n when arities are not given")
            arities = (int(alphabet),) * n
        self.arities = tuple(int(a) for a in arities)
        if any(a < 2 for a in self.arities):
            raise InputError("every position needs arity >= 2")
        self.n = len(self.arities)
        probs = np.asarray(probs, dtype=float).reshape(-1)
        # every arity >= 2: past size.bit_length() positions, 2**n > size
        if self.n > probs.size.bit_length() or probs.size != self.space_size:
            raise InputError(f"table has {probs.size} entries, not one per "
                             f"sequence of n = {self.n} positions")
        if not np.all(np.isfinite(probs) & (probs >= 0)):
            raise InputError("table entries must be finite and non-negative")
        if abs(probs.sum() - 1.0) > _SUM_TOL:
            raise InputError(f"table sums to {probs.sum()!r}, not 1")
        self.probs = probs
        self.probs.setflags(write=False)

    @classmethod
    def uniform(cls, n: int, alphabet: int = 2) -> "ExplicitJointModel":
        size = alphabet ** n
        return cls(np.full(size, 1.0 / size), n=n, alphabet=alphabet)

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
        self.alphabet = Alphabet(size)
        if self.transition.shape != (size, size):
            raise InputError("transition matrix shape mismatch")
        if not all(np.all(np.isfinite(a) & (a >= 0))
                   for a in (self.initial, self.transition)):
            raise InputError("chain parameters must be finite and non-negative")
        if abs(self.initial.sum() - 1.0) > _SUM_TOL:
            raise InputError("initial distribution does not sum to 1")
        rowsum = self.transition.sum(axis=1)
        if np.any(np.abs(rowsum - 1.0) > _SUM_TOL):
            raise InputError("transition rows must sum to 1")
        if n < 1:
            raise InputError("n must be >= 1")
        self.n = int(n)
        self.arities = (size,) * self.n
        self._chain = HiddenChain(
            self.initial, self.transition, np.eye(size),
            np.broadcast_to(np.arange(size), (self.n, size)))

    @classmethod
    def binary_symmetric(cls, stay: float, n: int,
                         initial=(0.5, 0.5)) -> "MarkovChainModel":
        t = np.array([[stay, 1 - stay], [1 - stay, stay]])
        return cls(initial, t, n)

    def hidden_chain(self) -> HiddenChain:
        """The chain itself, built once in ``__init__`` (which write-locks
        ``initial`` and ``transition``): the state is the symbol, emitted as is."""
        return self._chain

    def joint_probs(self, xs: np.ndarray) -> np.ndarray:
        xs = symbol_rows(xs, self.arities, "rows")
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
    the other symbols).  The panel is write-locked, not copied: the chain's
    ``classes`` is a view of it.  The emission law and one (alphabet, m)
    slice must fit in ``BELIEF_BUDGET_BYTES`` or the panel's bytes.

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
        size = int(alphabet)
        self.alphabet = Alphabet(size)
        if panel.min() < 0 or panel.max() >= size:
            raise InputError("panel entries outside alphabet")
        self.m, self.n = panel.shape
        if 8 * size * max(size, self.m) > max(BELIEF_BUDGET_BYTES, panel.nbytes):
            raise CapacityError(f"the emission law of alphabet {size} exceeds "
                                f"the budget on a {self.m}x{self.n} panel")
        self.panel = panel
        self.panel.setflags(write=False)
        self.epsilon = float(epsilon)
        self.theta = float(theta)
        self.arities = (size,) * self.n
        self._chain: HiddenChain | None = None

    def hidden_chain(self) -> HiddenChain:
        """The copying chain of the class docstring, built on first use."""
        if self._chain is None:
            m, size = self.m, self.alphabet.size
            trans = np.full((m, m), self.epsilon / max(m - 1, 1))
            np.fill_diagonal(trans, 1.0 - self.epsilon if m > 1 else 1.0)
            law = np.full((size, size), self.theta / (size - 1))
            np.fill_diagonal(law, 1.0 - self.theta)
            self._chain = HiddenChain(np.full(m, 1.0 / m), trans, law,
                                      self.panel.T)
        return self._chain

    def joint_probs(self, xs: np.ndarray) -> np.ndarray:
        return np.exp(self.hidden_chain().log_probs(xs))

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
        shift = rng.integers(1, size, size=(count, n))
        return np.where(err, (x + shift) % size, x)

    def truncated(self, n_new: int) -> "HmmModel":
        """Model over the first n_new positions, parameters unchanged."""
        if not 1 <= n_new <= self.n:
            raise InputError("truncation length out of range")
        return HmmModel(self.panel[:, :n_new], self.epsilon, self.theta,
                        self.alphabet.size)


# ---------------------------------------------------------------------------
# File formats


def load_panel(path: str | Path) -> np.ndarray:
    """A panel file, a `parse_symbols` row per non-blank line: `InputError`
    names the file (and line) if unreadable, empty, ragged, non-digit or STAR."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read panel {path}: {exc.strerror}") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        row = parse_symbols(line, f"{path}:{lineno}")
        if STAR in row:
            raise InputError(f"{path}:{lineno}: erasure {STAR_CHAR!r} in a panel")
        if row:
            rows.append(row)
    if not rows:
        raise InputError(f"{path}: empty panel file")
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise InputError(f"{path}: ragged panel lines {sorted(lengths)}")
    return np.array(rows, dtype=np.int64)


def save_panel(panel: np.ndarray, path: str | Path) -> None:
    """Write `load_panel`'s form; `InputError`, nothing written, outside 0..9."""
    text = "\n".join(map(symbols_text, np.asarray(panel).tolist())) + "\n"
    if STAR_CHAR in text:
        raise InputError(f"erasure {STAR_CHAR!r} in a panel")
    Path(path).write_text(text)


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
        n = int(cfg["n"]) if kind in ("markov", "explicit") else 1
        if n < 1:   # n is checked before a model builds (size,) * n
            raise InputError(f"n must be >= 1, got {n}")
        if 8 * n > BELIEF_BUDGET_BYTES:
            raise CapacityError(f"one row of n = {n} exceeds BELIEF_BUDGET_BYTES")
        if kind == "hmm":
            panel_path = Path(cfg["panel_path"])
            if not panel_path.is_absolute():
                panel_path = base / panel_path
            return HmmModel(load_panel(panel_path), cfg["epsilon"],
                            cfg["theta"], int(cfg.get("alphabet", 2)))
        if kind == "markov":
            return MarkovChainModel(cfg["initial"], cfg["transition"], n)
        if kind == "explicit":
            return ExplicitJointModel(cfg["probs"], n=n,
                                      alphabet=int(cfg.get("alphabet", 2)))
    except KeyError as exc:
        raise InputError(f"model config missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad {kind} model config: {exc}") from exc
    raise InputError(f"unrecognized model config type {kind!r}")
