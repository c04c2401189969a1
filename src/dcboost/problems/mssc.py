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

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from dcboost.core import DcProblem, Point

__all__ = ["ClusterData", "MsscProblem", "generate_blobs", "load_points_csv"]

# Distances per block of the distance pass: the block's temporaries (64 KB)
# stay in cache and under glibc's 128 KB mmap threshold, so no point maps
# and trims pages of its own.
_BLOCK = 8192


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


class _PointEval(NamedTuple):
    """What the oracles read at one point."""

    dists: np.ndarray  # (n, k) squared distances
    labels: np.ndarray  # nearest centroid per data point
    row_sums: np.ndarray  # dists.sum(axis=1)
    row_min: np.ndarray  # dists.min(axis=1)
    total: float  # dists.sum()
    reg: float  # (rho/2) * ||x||^2


class MsscProblem(DcProblem):
    """The clustering objective above as a :class:`DcProblem`.

    The decision vector concatenates the k centroids; ``dim`` is
    ``k * data.dim_space``.  ``rho`` defaults to ``1 / (n * k)``.

    The oracles at one point share one pass over the data: the instance
    keeps the n-by-k distance matrix, the nearest-centroid labels, the row
    sums and minima, the total and the regulariser of the last point it
    saw, keyed by that point's float64 bytes.  Every result is
    bit-identical to a fresh instance's, and the entry is replaced by one
    assignment, so a shared instance stays safe.

    A new point is built from the last one when the matrix spans more
    than one row block (n*k > ``_BLOCK``), the last total is finite and
    at most k/4 centroids differ by their bytes, as with the direct-search
    probes ``y +- mu*e_i``, which move one or two.  Only the moved columns
    are recomputed, with the same formula and row blocks; a single moved
    column is multiplied next to a copy of itself, because numpy sends a
    one-column product through gemv, which rounds differently from gemm.
    The labels stay exact: a row whose nearest centroid moved is scanned
    again, any other row takes a moved column only if it is smaller, or
    equal at a smaller index (argmin's first-index rule).  The row sums
    and the total are taken as in a whole pass, and a non-finite distance
    sends the point to a whole pass.
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
        # Rows [|a_i|^2, 1]; see _sq_dists.
        self._a_sq = np.ones((data.n, 2))
        self._a_sq[:, 0] = np.einsum("ij,ij->i", self._a, self._a)
        # Flat index of each row's first distance.
        self._row_start = np.arange(data.n) * self.k
        # Row blocks [lo, hi) of about _BLOCK distances.  numpy multiplies
        # a single row through another BLAS routine, whose roundings
        # differ; a lone last row joins its block.
        rows = max(2, _BLOCK // self.k)
        self._blocks: list[tuple[int, int]] = []
        lo = 0
        while lo < data.n:
            hi = data.n if lo + rows >= data.n - 1 else lo + rows
            self._blocks.append((lo, hi))
            lo = hi
        self._block_rows = max(hi - lo for lo, hi in self._blocks)
        # Below one block the numpy calls of a column update cost more
        # than the whole pass.
        self._column_updates = data.n * self.k > _BLOCK
        self._memo: tuple = (None, None)

    def _centroids(self, x: Point) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(self.k, self.data.dim_space)

    def _sq_dists(
        self, c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, k) matrix of squared distances data-point-to-centroid, with
        each row's nearest-centroid label and sum, built in one pass over
        the row blocks.

        Every element is ``|a|^2 + |c|^2 - 2 a.c`` clamped at 0 and rounded
        as that expression rounds: scaling by -2 is exact and ``s - 2m`` is
        the same operation as ``-2m + s``.  Labels and row sums depend on
        their row alone, so the block size changes no bit.
        """
        n, k = self.data.n, self.k
        d = np.empty((n, k))
        labels = np.empty(n, dtype=np.intp)
        row_sums = np.empty(n)
        c_sq = self._c_sq(c)
        ct = c.T
        sq = np.empty((self._block_rows, k))
        for lo, hi in self._blocks:
            blk = d[lo:hi]
            np.matmul(self._a[lo:hi], ct, out=blk)
            self._finish(blk, lo, hi, c_sq, sq[: hi - lo])
            # argmin takes the first hit: the smallest-index tie-break.
            blk.argmin(axis=1, out=labels[lo:hi])
            np.add.reduce(blk, axis=1, out=row_sums[lo:hi])
        return d, labels, row_sums

    @staticmethod
    def _c_sq(c: np.ndarray) -> np.ndarray:
        """Columns [1, |c_j|^2]; see :meth:`_finish`."""
        c_sq = np.ones((2, c.shape[0]))
        np.einsum("ij,ij->i", c, c, out=c_sq[1])
        return c_sq

    def _finish(
        self,
        prod: np.ndarray,
        lo: int,
        hi: int,
        c_sq: np.ndarray,
        sq: np.ndarray,
    ) -> None:
        """Turns the products ``a.c`` of data rows lo..hi into squared
        distances ``|a|^2 + |c|^2 - 2 a.c`` clamped at 0, in place, with
        ``sq`` (same shape) as scratch."""
        prod *= -2.0
        # |a|^2 + |c|^2 as the product of rows [|a|^2, 1] and columns
        # [1, |c|^2]: both products are exact, so in any order, fused or
        # not, the result is the plain sum rounded once, and the product
        # costs a quarter of a broadcast add.
        prod += np.matmul(self._a_sq[lo:hi], c_sq, out=sq)
        # Rounding can leave tiny negatives on exact hits.
        np.maximum(prod, 0.0, out=prod)

    def _update_columns(
        self, c: np.ndarray, prev: _PointEval, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float] | None:
        """The distances, labels, row sums, row minima and total at
        centroids ``c`` from the entry ``prev`` of centroids that differ
        only in rows ``cols`` (ascending), with the bits of
        :meth:`_sq_dists`; None if a distance is not finite."""
        m, js = cols.size, cols.tolist()
        old = prev.dists
        d = np.empty_like(old)
        labels = prev.labels.copy()
        row_sums = np.empty(self.data.n)
        row_min = prev.row_min.copy()
        # numpy multiplies by a single column through gemv, whose
        # roundings differ from gemm's; a duplicate keeps it in gemm.
        ct = c[cols if m > 1 else cols.repeat(2)].T
        c_sq = self._c_sq(c)[:, cols]
        # The products run over the row blocks of _sq_dists, everything
        # else over runs of blocks whose products and squared norms take
        # about _BLOCK values, so one small buffer holds both.
        w = ct.shape[1]
        block = self._blocks[0][1] - self._blocks[0][0]
        span = max(1, _BLOCK // ((w + m) * block))
        runs = [self._blocks[i : i + span] for i in range(0, len(self._blocks), span)]
        size = max(run[-1][1] - run[0][0] for run in runs)
        work = np.empty(size * (w + m))
        prod = work[: size * w].reshape(size, w)
        sq = work[size * w :].reshape(size, m)
        for run in runs:
            lo, hi = run[0][0], run[-1][1]
            for b_lo, b_hi in run:
                np.matmul(self._a[b_lo:b_hi], ct, out=prod[b_lo - lo : b_hi - lo])
            new = prod[: hi - lo, :m]
            self._finish(new, lo, hi, c_sq, sq[: hi - lo])
            blk = d[lo:hi]
            blk[...] = old[lo:hi]
            # A row keeps its nearest centroid unless a moved column is
            # smaller, or equal at a smaller index: argmin's first-index
            # rule, column by column in increasing order.
            lab, low = labels[lo:hi], row_min[lo:hi]
            for t, j in enumerate(js):
                col = new[:, t]
                blk[:, j] = col
                win = col < low
                win |= (col == low) & (lab > j)
                np.copyto(lab, j, where=win)
                np.copyto(low, col, where=win)
            # Row sums depend on their row alone, as in _sq_dists.
            np.add.reduce(blk, axis=1, out=row_sums[lo:hi])
        total = float(d.sum())
        if not math.isfinite(total):
            return None
        # A row whose nearest centroid moved is scanned again.
        stale = prev.labels == js[0]
        for j in js[1:]:
            stale |= prev.labels == j
        rows = np.flatnonzero(stale)
        labels[rows] = d[rows].argmin(axis=1)
        row_min[rows] = d.ravel()[self._row_start[rows] + labels[rows]]
        return d, labels, row_sums, row_min, total

    def _at(self, x: Point) -> tuple[np.ndarray, _PointEval]:
        """Centroids at ``x`` and everything the oracles read there; the
        last point's entry is reused, or updated column by column when
        few of its centroids moved."""
        c = self._centroids(x)
        key = c.tobytes()
        prev_key, prev = self._memo
        if prev_key == key:
            return c, prev
        built = None
        if self._column_updates and prev is not None and math.isfinite(prev.total):
            # Rows compared by their bits: -0.0 against 0.0 counts as moved.
            bits = np.frombuffer(key, np.uint64), np.frombuffer(prev_key, np.uint64)
            moved = (bits[0] != bits[1]).reshape(self.k, -1).any(axis=1)
            cols = np.flatnonzero(moved)
            if 4 * cols.size <= self.k:
                built = self._update_columns(c, prev, cols)
        if built is None:
            d, labels, row_sums = self._sq_dists(c)
            # Picking the minimum by its index rounds nothing, so this
            # equals d.min(axis=1) bit for bit, at a fraction of the cost.
            row_min = d.ravel()[self._row_start + labels]
            built = d, labels, row_sums, row_min, float(d.sum())
        for arr in built[:4]:
            arr.flags.writeable = False
        flat = c.ravel()
        entry = _PointEval(*built, 0.5 * self.rho * float(np.dot(flat, flat)))
        self._memo = (key, entry)
        return c, entry

    def eval_g(self, x: Point) -> float:
        e = self._at(x)[1]
        return e.total / self.data.n + e.reg

    def eval_h(self, x: Point) -> float:
        e = self._at(x)[1]
        # max_j of the sum with term j dropped = row sum - row min.
        row = e.row_sums - e.row_min
        return float(row.sum()) / self.data.n + e.reg

    def grad_g(self, x: Point) -> Point:
        c = self._centroids(x)
        g = (2.0 + self.rho) * c - 2.0 * self.data.mean
        return g.ravel()

    def subgrad_h(self, x: Point) -> Point:
        # argmax_j of the dropped-term sum = nearest centroid.
        c, e = self._at(x)
        counts = np.bincount(e.labels, minlength=self.k).astype(float)
        sums = np.empty_like(c)
        for dim in range(c.shape[1]):
            sums[:, dim] = np.bincount(
                e.labels, weights=self._a[:, dim], minlength=self.k
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
        c, e = self._at(x)
        db = self._centroids(d)
        # Branch values b_ij =S_i - dist_ij; derivative of branch j for
        # point i is G_i - c_ij with the per-centroid terms below.
        block_dot = np.einsum("ij,ij->i", c, db)  # <x_j, d_j> per centroid
        cross = self._a @ db.T  # <a_i, d_j>
        per_branch = 2.0 * (block_dot[None, :] - cross)  # c_ij
        total = per_branch.sum(axis=1)  # G_i
        branch_vals = e.row_sums[:, None] - e.dists
        ties = branch_vals == branch_vals.max(axis=1, keepdims=True)
        deriv = np.where(ties, total[:, None] - per_branch, -np.inf).max(axis=1)
        x = np.asarray(x)
        return float(deriv.sum() / self.data.n + self.rho * np.dot(x, d))

    def phi_direct(self, x: Point) -> float:
        """Mean squared distance to the nearest centroid (for cross-checks)."""
        return float(self._at(x)[1].row_min.mean())

    def sample_start(self, rng: np.random.Generator) -> Point:
        """Random centroid configuration, uniform in the data bounding box."""
        lo, hi = self.data.bounding_box()
        return rng.uniform(lo, hi, size=(self.k, self.data.dim_space)).ravel()
