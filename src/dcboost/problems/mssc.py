"""Minimum sum-of-squares clustering as a DC program.

Given data points a_1..a_n in R^s and k centroids stacked into one
decision vector X = (x_1, ..., x_k) in R^(k*s), the clustering objective

    phi(X) = (1/n) * sum_i min_j ||x_j - a_i||^2

is split into convex components

    g(X) = (1/n) * sum_i sum_j ||x_j - a_i||^2 + (rho/2) * ||X||^2
    h(X) = (1/n) * sum_i max_j sum_{t != j} ||x_t - a_i||^2
           + (rho/2) * ||X||^2

which works because the full sum minus the max-over-dropped-term equals
the min.  Any rho > 0 is valid; the default is 1/(n*k).

The inner max for data point i is attained exactly at the centroid
closest to a_i, so the subgradient selection reduces to a nearest-centroid
assignment.  Ties are broken toward the smallest centroid index to keep
runs deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from dcboost.core import DcProblem, Point

__all__ = ["ClusterData", "MsscProblem", "generate_blobs", "load_points_csv"]


@dataclass(frozen=True)
class ClusterData:
    """An immutable point cloud with its cached mean."""

    points: np.ndarray
    mean: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"points must be a nonempty (n, s) array, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("data points must all be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        mean = pts.mean(axis=0)
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim_space(self) -> int:
        return self.points.shape[1]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate (low, high) of the data."""
        return self.points.min(axis=0), self.points.max(axis=0)


def generate_blobs(
    n_blobs: int,
    points_per_blob: int,
    spread: float = 1.0,
    box: tuple[tuple[float, ...], tuple[float, ...]] = ((-10.0, -10.0), (10.0, 10.0)),
    seed: int = 0,
) -> ClusterData:
    """Synthetic isotropic Gaussian blobs, deterministic per seed.

    Blob centers are drawn uniformly in ``box`` (a (low, high) pair of
    per-coordinate bounds), then ``points_per_blob`` samples are drawn
    around each center with standard deviation ``spread``.
    """
    if n_blobs < 1 or points_per_blob < 1:
        raise ValueError("n_blobs and points_per_blob must be positive")
    if spread <= 0:
        raise ValueError("spread must be positive")
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1 or np.any(hi <= lo):
        raise ValueError("box must be (low, high) with high > low per coordinate")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(lo, hi, size=(n_blobs, lo.shape[0]))
    pts = centers.repeat(points_per_blob, axis=0)
    pts = pts + spread * rng.standard_normal(pts.shape)
    return ClusterData(pts)


def load_points_csv(path: str | os.PathLike) -> ClusterData:
    """Load planar points from a CSV file with one ``x,y`` pair per line.

    Lines starting with ``#`` and blank lines are skipped.  Anything else
    that does not parse as exactly two decimal numbers raises ValueError
    naming the offending line.
    """
    rows: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'x,y', got {line!r}"
                )
            try:
                rows.append((float(fields[0]), float(fields[1])))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: could not parse {line!r} as two numbers"
                ) from None
    if not rows:
        raise ValueError(f"{path}: no data points found")
    return ClusterData(np.array(rows))


class MsscProblem(DcProblem):
    """The clustering objective above as a :class:`DcProblem`.

    The decision vector concatenates the k centroids; ``dim`` is
    ``k * data.dim_space``.  ``rho`` defaults to ``1 / (n * k)``.

    The oracles at one point share a single n-by-k distance matrix: the
    instance keeps the matrix, the nearest-centroid labels and the row
    minima of the last point it saw, keyed by that point's float64 bytes.
    Every result is bit-identical to a fresh instance's, and the entry is
    replaced by one assignment, so a shared instance stays safe.
    """

    def __init__(self, data: ClusterData, k: int, rho: float | None = None):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.data = data
        self.k = int(k)
        self.dim = self.k * data.dim_space
        self.rho = float(rho) if rho is not None else 1.0 / (data.n * self.k)
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        self._a = data.points
        self._a_sqnorm = np.einsum("ij,ij->i", self._a, self._a)
        self._memo: tuple = (None,)

    def _centroids(self, x: Point) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(self.k, self.data.dim_space)

    def _sq_dists(self, c: np.ndarray) -> np.ndarray:
        """(n, k) matrix of squared distances data-point-to-centroid."""
        c_sqnorm = np.einsum("ij,ij->i", c, c)
        d = self._a_sqnorm[:, None] + c_sqnorm[None, :] - 2.0 * (self._a @ c.T)
        # Rounding can leave tiny negatives on exact hits.
        np.maximum(d, 0.0, out=d)
        return d

    def _at(
        self, x: Point
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Centroids, distance matrix, nearest-centroid labels and row
        minima at ``x``; the last point's are reused."""
        c = self._centroids(x)
        key = c.tobytes()
        memo = self._memo
        if memo[0] == key:
            return (c,) + memo[1:]
        d = self._sq_dists(c)
        # np.argmin takes the first hit: the smallest-index tie-break.
        labels = np.argmin(d, axis=1)
        # Picking the minimum by its index rounds nothing, so this equals
        # d.min(axis=1) bit for bit, at a fraction of the cost.
        row_min = np.take_along_axis(d, labels[:, None], 1)[:, 0]
        for arr in (d, labels, row_min):
            arr.flags.writeable = False
        self._memo = (key, d, labels, row_min)
        return c, d, labels, row_min

    def eval_g(self, x: Point) -> float:
        _, d, _, _ = self._at(x)
        x = np.asarray(x)
        return float(d.sum() / self.data.n + 0.5 * self.rho * np.dot(x, x))

    def eval_h(self, x: Point) -> float:
        _, d, _, row_min = self._at(x)
        # max_j of the sum with term j dropped = row sum - row min.
        row = d.sum(axis=1) - row_min
        x = np.asarray(x)
        return float(row.sum() / self.data.n + 0.5 * self.rho * np.dot(x, x))

    def grad_g(self, x: Point) -> Point:
        c = self._centroids(x)
        g = (2.0 + self.rho) * c - 2.0 * self.data.mean
        return g.ravel()

    def subgrad_h(self, x: Point) -> Point:
        # argmax_j of the dropped-term sum = nearest centroid.
        c, _, labels, _ = self._at(x)
        counts = np.bincount(labels, minlength=self.k).astype(float)
        sums = np.empty_like(c)
        for dim in range(c.shape[1]):
            sums[:, dim] = np.bincount(
                labels, weights=self._a[:, dim], minlength=self.k
            )
        n = float(self.data.n)
        # Every branch t != label_i contributes 2*(x_t - a_i)/n; summing
        # over i leaves the full-data term minus the own-cluster term.
        sub = (
            2.0 * c
            - 2.0 * self.data.mean
            - (2.0 / n) * (counts[:, None] * c - sums)
            + self.rho * c
        )
        return sub.ravel()

    def solve_subproblem(self, u: Point) -> Point:
        # grad_g(y) = u reads (2 + rho) * y_j - 2 * mean = u_j blockwise.
        ub = self._centroids(u)
        return ((ub + 2.0 * self.data.mean) / (2.0 + self.rho)).ravel()

    def dir_deriv_h(self, x: Point, d: Point) -> float:
        """Exact one-sided directional derivative of h.

        At ties of the inner max the derivative is the max over the tied
        smooth branches (tie detection uses exact float equality).
        """
        c, dist, _, _ = self._at(x)
        db = self._centroids(d)
        # Branch values b_ij =S_i - dist_ij; derivative of branch j for
        # point i is G_i - c_ij with the per-centroid terms below.
        block_dot = np.einsum("ij,ij->i", c, db)  # <x_j, d_j> per centroid
        cross = self._a @ db.T  # <a_i, d_j>
        per_branch = 2.0 * (block_dot[None, :] - cross)  # c_ij
        total = per_branch.sum(axis=1)  # G_i
        branch_vals = dist.sum(axis=1, keepdims=True) - dist
        ties = branch_vals == branch_vals.max(axis=1, keepdims=True)
        deriv = np.where(ties, total[:, None] - per_branch, -np.inf).max(axis=1)
        x = np.asarray(x)
        return float(deriv.sum() / self.data.n + self.rho * np.dot(x, d))

    def phi_direct(self, x: Point) -> float:
        """Mean squared distance to the nearest centroid (for cross-checks)."""
        return float(self._at(x)[3].mean())

    def sample_start(self, rng: np.random.Generator) -> Point:
        """Random centroid configuration, uniform in the data bounding box."""
        lo, hi = self.data.bounding_box()
        return rng.uniform(lo, hi, size=(self.k, self.data.dim_space)).ravel()
