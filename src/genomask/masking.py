"""Masked sequences (`STAR` and their text form are `distributions`'), their
codes, orderings and transcripts, and the one `release_rule` of every path."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distributions import (
    STAR,
    STAR_CHAR,
    int_array,
    parse_symbols,
    row_codes,
    symbols_text,
)
from .errors import InputError, NumericalError

#: Probabilities may leave [0, 1] by at most this much before it is treated
#: as a logic error rather than round-off.
RATIO_TOL = 1e-9

#: Release ratios this close to 1 are round-off residue of an exact 1 (two
#: mathematically equal conditionals summed in different orders); snapping
#: keeps certain releases certain, so impossible branches carry mass 0
#: exactly rather than ~1e-16.
RATIO_SNAP = 1e-13


def _validate_sensitive(K, n: int) -> tuple[int, ...]:
    K = tuple(sorted(set(int_array(K, 1, "sensitive positions").tolist())))
    if any(k < 0 or k >= n for k in K):
        raise InputError(f"sensitive positions {K} outside 0..{n - 1}")
    return K


def _validate_ordering(ordering, n: int) -> Ordering:
    """``ordering``, linear when None; `InputError` unless it has n places."""
    ordering = Ordering.linear(n) if ordering is None else ordering
    if len(ordering) != n:
        raise InputError(f"ordering has {len(ordering)} positions, not {n}")
    return ordering


def release_rule(cond: np.ndarray, live: np.ndarray, sensitive: bool):
    """(mins, ratios) from conditionals ``cond[..., u, v]`` and the
    hypotheses ``live[..., u]`` possible in the context, over any leading
    axes: ``mins[..., v]`` is the least live conditional (0 at a sensitive
    position or with none live) and ``ratios = mins / cond`` (0 where
    ``cond`` is not positive) the release probability of v under u.

    Ratios beyond ``RATIO_TOL`` outside [0, 1] raise `NumericalError`; the
    rest are clipped from below at 0 and snapped to 1 within
    ``RATIO_SNAP``, which also maps those within ``RATIO_TOL`` above 1 to 1.
    """
    if sensitive:
        mins = np.zeros(cond.shape[:-2] + cond.shape[-1:])
    else:
        # slice by slice: numpy reduces a short middle axis slowly
        masked = np.where(live[..., None], cond, np.inf)
        mins = functools.reduce(np.minimum, [masked[..., u, :] for u in
                                             range(cond.shape[-2])])
        mins[np.isinf(mins)] = 0.0
    ratios = np.zeros_like(cond)
    np.divide(mins[..., None, :], cond, out=ratios, where=cond > 0)
    if (ratios.max(initial=0.0) > 1.0 + RATIO_TOL
            or ratios.min(initial=0.0) < -RATIO_TOL):
        raise NumericalError("release ratio outside [0, 1] beyond tolerance")
    np.maximum(ratios, 0.0, out=ratios)
    np.putmask(ratios, ratios > 1.0 - RATIO_SNAP, 1.0)
    return mins, ratios


def output_codes(ys: np.ndarray, arities: Sequence[int]) -> np.ndarray:
    """`row_codes` of outputs, v as v + 1 and STAR as 0: in tuple order."""
    return row_codes(ys - STAR, [a + 1 for a in arities])


@dataclass(frozen=True)
class MaskedSequence:
    """A faithful masking of a source sequence: each entry is the source
    symbol or :data:`STAR`."""

    symbols: tuple[int, ...]

    def __post_init__(self):
        if any(v < 0 and v != STAR for v in self.symbols):
            raise InputError("masked symbols must be >= 0 or STAR")

    def __len__(self) -> int:
        return len(self.symbols)

    def text(self) -> str:
        """A digit per symbol, ``*`` for STAR; `InputError` above 9."""
        return symbols_text(self.symbols)

    @classmethod
    def parse(cls, text: str) -> "MaskedSequence":
        """A digit per symbol, ``*`` as STAR; `InputError` for others."""
        return cls(parse_symbols(text, "masked sequence"))

    def is_faithful_to(self, x: Sequence[int]) -> bool:
        """Every non-erased entry must equal the source symbol."""
        if len(x) != len(self.symbols):
            return False
        return all(v == STAR or v == xi for v, xi in zip(self.symbols, x))


@dataclass(frozen=True)
class Ordering:
    """Processing order over positions: a permutation of 0..n-1."""

    perm: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise InputError("ordering must be a permutation of 0..n-1")

    def __len__(self) -> int:
        return len(self.perm)

    def __iter__(self):
        return iter(self.perm)

    @classmethod
    def linear(cls, n: int) -> "Ordering":
        return cls(tuple(range(n)))

    @property
    def is_linear(self) -> bool:
        return self.perm == tuple(range(len(self.perm)))


@dataclass(frozen=True)
class TranscriptEntry:
    """One masking decision: the position processed, the probability of
    releasing the true symbol in that context, and the outcome."""

    index: int
    release_prob: float
    outcome: int  # symbol or STAR

    def to_dict(self) -> dict:
        out = STAR_CHAR if self.outcome == STAR else self.outcome
        return {"i": self.index, "release_prob": self.release_prob, "outcome": out}


def transcript_to_json_lines(entries: Iterable[TranscriptEntry]) -> str:
    return "\n".join(json.dumps(e.to_dict()) for e in entries)
