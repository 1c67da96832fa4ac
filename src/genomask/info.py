"""Exact information measures for small discrete distributions (base-2),
and the standard error of a Monte-Carlo mean."""

from __future__ import annotations

import numpy as np

from .errors import InputError

_NORM_TOL = 1e-9


def _check_distribution(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise InputError(f"{name} has negative entries")
    if abs(p.sum() - 1.0) > _NORM_TOL:
        raise InputError(f"{name} sums to {p.sum()!r}, not 1")
    return p


def entropy(p) -> float:
    """Shannon entropy in bits, with 0*log(0) = 0."""
    p = _check_distribution(np.ravel(p), "distribution")
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def kl_divergence(p, q) -> float:
    """D(p || q) in bits; +inf when support(p) is not within support(q)."""
    p = _check_distribution(np.ravel(p), "p")
    q = _check_distribution(np.ravel(q), "q")
    if p.shape != q.shape:
        raise InputError("p and q must have the same shape")
    mask = p > 0
    if np.any(q[mask] == 0):
        return float("inf")
    return float(np.sum(p[mask] * (np.log2(p[mask]) - np.log2(q[mask]))))


def mutual_information(joint) -> float:
    """I(A; B) in bits from a 2-D joint probability table."""
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise InputError("joint table must be 2-D")
    joint = _check_distribution(joint, "joint table").reshape(joint.shape)
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mask = joint > 0
    outer = np.outer(pa, pb)
    return float(np.sum(joint[mask] * (np.log2(joint[mask]) - np.log2(outer[mask]))))


def sample_stderr(values: np.ndarray) -> float:
    """Standard error of the mean of ``values``; 0 for fewer than two
    samples or when they are all equal."""
    if values.size < 2 or np.ptp(values) == 0.0:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(values.size))
