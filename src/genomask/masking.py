"""Shared vocabulary for masked sequences, orderings and transcripts, and
the release-ratio rule that both the enumeration and the HMM paths apply."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, NumericalError

#: Sentinel for the erasure symbol. Symbols are non-negative integers,
#: so -1 is safe in integer arrays.
STAR = -1

STAR_CHAR = "*"

#: Probabilities may leave [0, 1] by at most this much before it is treated
#: as a logic error rather than round-off.
RATIO_TOL = 1e-9

#: Release ratios this close to 1 are round-off residue of an exact 1 (two
#: mathematically equal conditionals summed in different orders); snapping
#: keeps certain releases certain, so impossible branches carry mass 0
#: exactly rather than ~1e-16.
RATIO_SNAP = 1e-13


def _validate_sensitive(K, n: int) -> tuple[int, ...]:
    K = tuple(sorted({int(k) for k in K}))
    if any(k < 0 or k >= n for k in K):
        raise InputError(f"sensitive positions {K} outside 0..{n - 1}")
    return K


def release_ratios(mins: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """Release probabilities ``mins / cond`` (0 where ``cond`` is not
    positive), with ``mins`` broadcast against ``cond``.

    Ratios beyond ``RATIO_TOL`` outside [0, 1] raise `NumericalError`; the
    rest are clipped into [0, 1] and snapped to 1 within ``RATIO_SNAP``.
    """
    ratios = np.zeros_like(cond)
    np.divide(np.broadcast_to(mins, cond.shape), cond, out=ratios,
              where=cond > 0)
    if np.any(ratios > 1.0 + RATIO_TOL) or np.any(ratios < -RATIO_TOL):
        raise NumericalError("release ratio outside [0, 1] beyond tolerance")
    np.clip(ratios, 0.0, 1.0, out=ratios)
    ratios[ratios > 1.0 - RATIO_SNAP] = 1.0
    return ratios


def symbol_char(v: int) -> str:
    """Single-character rendering of a symbol: the text form has one digit
    per symbol, so a symbol above 9 raises `InputError`."""
    if v > 9:
        raise InputError(f"symbol {v} has no one-digit text form")
    return STAR_CHAR if v == STAR else str(v)


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

    @property
    def erasure_count(self) -> int:
        return sum(1 for v in self.symbols if v == STAR)

    @property
    def erasure_rate(self) -> float:
        return self.erasure_count / len(self.symbols)

    def text(self) -> str:
        return "".join(symbol_char(v) for v in self.symbols)

    @classmethod
    def parse(cls, text: str) -> "MaskedSequence":
        symbols = []
        for ch in text.strip():
            if ch == STAR_CHAR:
                symbols.append(STAR)
            elif ch.isdigit():
                symbols.append(int(ch))
            else:
                raise InputError(f"invalid masked-sequence character {ch!r}")
        return cls(tuple(symbols))

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
