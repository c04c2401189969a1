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
]


@dataclass(frozen=True, eq=False)
class PositiveSpanningSet:
    """An ordered set of at least m + 1 direction vectors in R^m (fewer
    cannot positively span it).

    ``directions`` has one direction per row, in scan order, and is a
    read-only copy, in copies of the instance too.  ``kind`` is one of
    ``"d1"``, ``"d2"``, ``"d3"``, ``"custom"``.  Instances compare and
    hash by identity.
    """

    directions: np.ndarray
    kind: str = "custom"

    def __post_init__(self) -> None:
        dirs = np.array(self.directions, dtype=float)  # the caller's array stays writeable
        if dirs.ndim != 2:
            raise ValueError(f"directions must be an (r, m) array, got shape {dirs.shape}")
        if dirs.shape[0] < dirs.shape[1] + 1:
            raise ValueError(f"need at least {dirs.shape[1] + 1} directions, got {dirs.shape[0]}")
        with np.errstate(over="ignore"):  # finite 1e308 has norm inf
            norms = np.linalg.norm(dirs, axis=1)
        if not np.all(np.isfinite(norms)):
            raise ValueError("directions must all be finite, with finite norms")
        if np.any(norms == 0.0):
            raise ValueError("directions must all be nonzero")
        dirs.flags.writeable = False
        object.__setattr__(self, "directions", dirs)

    def __reduce__(self):
        return (PositiveSpanningSet, (self.directions, self.kind))

    @property
    def dim(self) -> int:
        """The dimension m of the space the directions span."""
        return self.directions.shape[1]


def make_d1(m: int) -> PositiveSpanningSet:
    """Signed coordinate directions: e1, -e1, e2, -e2, ..., em, -em (2m total)."""
    m = as_count(m, "m")
    dirs = np.zeros((2 * m, m))
    for i in range(m):
        dirs[2 * i, i] = 1.0
        dirs[2 * i + 1, i] = -1.0
    return PositiveSpanningSet(dirs, "d1")


def make_d2(m: int) -> PositiveSpanningSet:
    """Coordinate directions plus the all-minus-ones vector (m + 1 total)."""
    m = as_count(m, "m")
    dirs = np.vstack([np.eye(m), -np.ones((1, m))])
    return PositiveSpanningSet(dirs, "d2")


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
    return PositiveSpanningSet(dirs, "d3")


_FACTORIES = {"d1": make_d1, "d2": make_d2, "d3": make_d3}
PSS_KINDS = tuple(_FACTORIES)


def make_pss(kind: str, dim: int) -> PositiveSpanningSet:
    """Build the spanning set named ``kind`` (one of :data:`PSS_KINDS`)."""
    try:
        return _FACTORIES[kind](dim)
    except KeyError:
        raise ValueError(f"unknown spanning set kind {kind!r}") from None

