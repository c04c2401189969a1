"""Positive spanning sets used by the direct-search escape step.

A positive spanning set of R^m is a finite set of directions whose
nonnegative combinations fill the whole space; probing along all of them
from any point is enough to detect a descent direction when one exists.
Three standard constructions are provided.  Direction ORDER is part of
the contract: the escape step takes the first improving direction, so a
fixed order is what makes trajectories reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dcboost.core import as_count

__all__ = [
    "PositiveSpanningSet",
    "make_d1",
    "make_d2",
    "make_d3",
    "PSS_KINDS",
    "make_pss",
    "check_positive_spanning",
]


@dataclass(frozen=True)
class PositiveSpanningSet:
    """An ordered set of at least m + 1 direction vectors in R^m (fewer
    cannot positively span it).

    ``directions`` has one direction per row, in scan order.  ``kind`` is
    one of ``"d1"``, ``"d2"``, ``"d3"``, ``"custom"``.
    """

    dim: int
    directions: np.ndarray
    kind: str = "custom"

    def __post_init__(self) -> None:
        dirs = np.asarray(self.directions, dtype=float)
        if dirs.ndim != 2 or dirs.shape[1] != self.dim:
            raise ValueError(f"directions must be (r, {self.dim}), got {dirs.shape}")
        if dirs.shape[0] < self.dim + 1:
            raise ValueError(f"need at least {self.dim + 1} directions, got {dirs.shape[0]}")
        with np.errstate(over="ignore"):  # finite 1e308 has norm inf
            norms = np.linalg.norm(dirs, axis=1)
        if not np.all(np.isfinite(norms)):
            raise ValueError("directions must all be finite, with finite norms")
        if np.any(norms == 0.0):
            raise ValueError("directions must all be nonzero")
        dirs.flags.writeable = False
        object.__setattr__(self, "directions", dirs)


def make_d1(m: int) -> PositiveSpanningSet:
    """Signed coordinate directions: e1, -e1, e2, -e2, ..., em, -em (2m total)."""
    m = as_count(m, "m")
    dirs = np.zeros((2 * m, m))
    for i in range(m):
        dirs[2 * i, i] = 1.0
        dirs[2 * i + 1, i] = -1.0
    return PositiveSpanningSet(m, dirs, "d1")


def make_d2(m: int) -> PositiveSpanningSet:
    """Coordinate directions plus the all-minus-ones vector (m + 1 total)."""
    m = as_count(m, "m")
    dirs = np.vstack([np.eye(m), -np.ones((1, m))])
    return PositiveSpanningSet(m, dirs, "d2")


def make_d3(m: int) -> PositiveSpanningSet:
    """Vertices of a regular m-simplex centered at the origin (m + 1 total).

    The m + 1 unit directions satisfy ``v_i . v_j = -1/m`` for i != j, so
    they are maximally spread out.  Construction: take the standard basis
    of R^(m+1), subtract the centroid, express the result in an
    orthonormal basis of the hyperplane orthogonal to the all-ones vector,
    and normalize.
    """
    m = as_count(m, "m")
    n = m + 1
    # Basis of the hyperplane 1^T z = 0 in R^(m+1): columns e_i - e_n.
    basis = np.zeros((n, m))
    basis[:m, :] = np.eye(m)
    basis[m, :] = -1.0
    q, _ = np.linalg.qr(basis)
    # Centered basis vectors e_i - 1/n, already orthogonal to the all-ones
    # vector, expressed in the q coordinates.
    centered = np.eye(n) - 1.0 / n
    dirs = centered @ q
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return PositiveSpanningSet(m, dirs, "d3")


_FACTORIES = {"d1": make_d1, "d2": make_d2, "d3": make_d3}
PSS_KINDS = tuple(_FACTORIES)


def make_pss(kind: str, dim: int) -> PositiveSpanningSet:
    """Build the spanning set named ``kind`` (one of :data:`PSS_KINDS`)."""
    try:
        return _FACTORIES[kind](dim)
    except KeyError:
        raise ValueError(f"unknown spanning set kind {kind!r}") from None


def check_positive_spanning(
    pss: PositiveSpanningSet, n_samples: int, rng_seed: int
) -> bool:
    """Sampled necessary condition for positive spanning.

    Draws ``n_samples`` uniform random unit vectors d and verifies that for
    every one of them some direction v satisfies ``<v, d> > 0``.  A positive
    spanning set must pass; a failing sample certifies the set does not
    span.  Passing is only probabilistic evidence (this is a test utility,
    not an exact feasibility solve).
    """
    as_count(n_samples, "n_samples")
    rng = np.random.default_rng(rng_seed)
    d = rng.standard_normal((n_samples, pss.dim))
    norms = np.linalg.norm(d, axis=1, keepdims=True)
    # Degenerate zero draws are astronomically unlikely; guard anyway.
    norms[norms == 0.0] = 1.0
    d /= norms
    inner = pss.directions @ d.T
    return bool(np.all(inner.max(axis=0) > 0.0))
