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
import threading
from dataclasses import dataclass, field

import numpy as np

from dcboost.core import DcProblem, Point, as_count, sq_norm

__all__ = ["ClusterData", "MsscProblem", "generate_blobs", "load_points_csv"]


@dataclass(frozen=True, eq=False)
class ClusterData:
    """An immutable point cloud with its cached mean.  Both arrays are
    read-only copies, in copies of the instance too: a pickled or copied
    instance is rebuilt from its points.  Instances compare and hash by
    identity."""

    points: np.ndarray
    mean: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)  # the caller's array stays writeable
        if pts.ndim != 2 or min(pts.shape) < 1:
            raise ValueError(f"points must be an (n, s) array with n, s >= 1, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("data points must all be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        mean = pts.mean(axis=0)
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)

    def __reduce__(self):
        return (ClusterData, (self.points,))

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
    as_count(n_blobs, "n_blobs")
    as_count(points_per_blob, "points_per_blob")
    if spread <= 0:
        raise ValueError("spread must be positive")
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    # NaN passes the comparisons; an infinite box overflows the draw.
    if not (math.isfinite(spread) and np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("spread and box must be finite")
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
    that does not parse as exactly two finite decimal numbers raises
    ValueError naming the offending line.
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
                row = (float(fields[0]), float(fields[1]))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: could not parse {line!r} as two numbers"
                ) from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}: line {lineno}: {line!r} is not finite")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data points found")
    return ClusterData(np.array(rows))


def _row_sum_plan(k: int) -> list[tuple[int, int]]:
    """The additions ``np.add.reduce(d, axis=1)`` makes over a row of k
    values, in order, as (left, right) operand pairs: an operand
    0 <= j < k is column j, k + i is the result of addition i, and -1 is
    0.0.  The last addition gives the row sum.

    numpy adds each row pairwise: fewer than 8 terms in sequence; up to
    128 terms in 8 accumulators (accumulator q takes terms q, q+8, ...
    while whole groups of 8 remain), which a fixed tree adds before the
    remaining terms follow in sequence; more than 128 terms as two halves,
    the first a multiple of 8 long.  The reduction starts from 0.0.
    """
    plan: list[tuple[int, int]] = []

    def add(left: int, right: int) -> int:
        plan.append((left, right))
        return k + len(plan) - 1

    def pairwise(lo: int, n: int) -> int:
        if n < 8:
            res = lo
            for i in range(lo + 1, lo + n):
                res = add(res, i)
            return res
        if n <= 128:
            r = list(range(lo, lo + 8))
            i = 8
            while i < n - n % 8:
                r = [add(r[q], lo + i + q) for q in range(8)]
                i += 8
            res = add(
                add(add(r[0], r[1]), add(r[2], r[3])),
                add(add(r[4], r[5]), add(r[6], r[7])),
            )
            for i in range(i, n):
                res = add(res, lo + i)
            return res
        half = n // 2 - (n // 2) % 8
        return add(pairwise(lo, half), pairwise(lo + half, n - half))

    add(-1, pairwise(0, k))
    return plan


def _row_sum_paths(plan: list[tuple[int, int]], k: int) -> list[list[tuple[int, bool]]]:
    """For each column, the additions of ``plan`` on its path to the row
    sum, as (the other operand, whether the path's value is the left one)."""
    consumer = {}
    for i, (left, right) in enumerate(plan):
        consumer[left] = (k + i, right, True)
        consumer[right] = (k + i, left, False)
    paths = []
    for j in range(k):
        path, node = [], j
        while node in consumer:
            node, other, first = consumer[node]
            path.append((other, first))
        paths.append(path)
    return paths


class _Workspace:
    """One thread's buffers, rewritten in place for every new point.  The
    solve path's oracles read them at ``key`` (None while they are
    written): ``total``, ``reg`` = (rho/2)||x||^2 and row ``side`` of the
    row sums and minima; ``base_key`` is the base's (see
    :class:`MsscProblem`).  ``cols`` holds the base's distances by
    centroid; ``dists`` holds them by data point, but in column ``col``,
    where a probe wrote its own.  Row sums and minima keep the base's in
    row 0 and a probe's in row 1; ``labels`` are the point's once ``labeled``."""

    def __init__(self, n: int, k: int):
        self.key = self.base_key = self.total = self.reg = None
        self.side = 0
        self.col, self.labeled = None, False
        self.cols, self.dists = np.empty((k, n)), np.empty((n, k))
        self.labels = np.empty(n, dtype=np.intp)
        self.row_sums, self.row_min = np.empty((2, n)), np.empty((2, n))
        self.pair, self.row = np.empty((2, n)), np.empty(n)  # a probe's; eval_h's
        self.c_sq_one = np.ones((k, 2))  # a whole pass's [|c|^2, 1]
        self.mask = np.empty(n, dtype=bool)  # _nearest_other's scratch
        # By plan index (see _row_sum_plan): the base's columns, its k-2
        # partial row sums below the row sum, and 0.0 last.
        self.operands = [*self.cols, *np.empty((max(k - 2, 0), n)), 0.0]
        self.second_min, self.other_min = np.empty(n), np.empty(n)  # see _build_base


class MsscProblem(DcProblem):
    """The clustering objective above as a :class:`DcProblem`.

    The decision vector concatenates the k centroids; ``dim`` is
    ``k * data.dim_space``.  ``rho`` defaults to ``1 / (n * k)``.

    ``eval_g``, ``eval_h`` and ``subgrad_h`` at one point share one pass
    over the data; ``dir_deriv_h`` and ``phi_direct``, which check them,
    compute from the data alone.  Each thread that calls the instance
    gets its own buffers, which hold the squared distances, the row sums
    and minima and, once the subgradient asks, the nearest-centroid
    labels of the last point it saw, keyed by that point's float64
    bytes, and which every new point rewrites in place.  Every result is
    bit-identical to a fresh instance's, and threads never share a
    buffer, so a shared instance stays safe.

    A whole pass computes the distances by centroid, as k contiguous rows
    of n: the row minima by ``np.minimum.reduce`` over the rows, the row
    sums by numpy's pairwise order for ``np.add.reduce(axis=1)``
    (:func:`_row_sum_plan`), keeping the partial sums.  The n-by-k matrix
    by data point is filled from the rows because the total is
    ``dists.sum()``, which adds it in C order.  The labels have one rule,
    at a base or a probe alike: ``dists.argmin(axis=1)``, each row's first
    nearest column (a row's first NaN, if it has one), read from that
    matrix when the subgradient first asks.

    The last point a whole pass built is the thread's base; its row sums
    and minima are row 0 of the workspace's buffers.  With a finite base
    total, a probe, a point whose centroids differ from the base's by
    their bytes in one only, j (as ``y +- mu*e_i`` do), is evaluated from
    the base into row 1, values only: column j by the same formula, the
    row minima as the smaller of it and the base's nearest other column
    (kept while the probes move the same centroid), the row sums by adding
    again the path from column j from the base's partial sums, and the
    total as ``dists.sum()`` with the column written in, which touches the
    whole matrix.  Any other point, the base's own included, takes a whole
    pass, which becomes the base.
    Probes run only for 2-D data with k >= 2 and n >= 2: with more
    coordinates a probe's two-row product can round differently from the
    same row of the whole pass's.
    """

    def __init__(self, data: ClusterData, k: int, rho: float | None = None):
        self.k = as_count(k, "k")
        self.data = data
        self._shape = (self.k, data.dim_space)
        self.dim = self.k * data.dim_space
        self.rho = float(rho) if rho is not None else 1.0 / (data.n * self.k)
        if not math.isfinite(self.rho):
            raise ValueError("rho must be finite")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        self._a = data.points
        # Column j is c_j @ _a_t.  Its rows are writeable: np.bincount
        # copies a read-only array.
        self._a_t = self._a.T.copy()
        self._two_mean = 2.0 * data.mean
        self._two_plus_rho = 2.0 + self.rho
        self._a_sq = np.einsum("ij,ij->i", self._a, self._a)
        # [|c|^2, 1] @ _ones_a_sq is |c|^2 + |a|^2 (see _sq_dists).
        self._ones_a_sq = np.vstack([np.ones(data.n), self._a_sq])
        self._a_sq_finite = bool(np.all(np.isfinite(self._a_sq)))
        # numpy's row sum starts from 0.0, and 0.0 + s is s for every s but
        # -0.0, which no distance is: the plan keeps that addition at k = 1 only.
        self._sum_plan = _row_sum_plan(self.k)[:-1] or [(-1, 0)]
        self._sum_paths = _row_sum_paths(self._sum_plan, self.k)
        self._probes = self.k > 1 and data.n > 1 and data.dim_space <= 2
        self._local = threading.local()

    def __getstate__(self) -> dict:
        # The defining state only: the derived arrays are rebuilt with the
        # same bits and the per-thread buffers on first use.
        return {"data": self.data, "k": self.k, "rho": self.rho}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["data"], state["k"], state["rho"])

    def _workspace(self) -> _Workspace:
        ws = getattr(self._local, "ws", None)
        if ws is None:
            ws = self._local.ws = _Workspace(self.data.n, self.k)
        return ws

    def _centroids(self, x: Point) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(self._shape)

    def _sq_dists(self, c: np.ndarray) -> float:
        """The whole pass: squared distances data-point-to-centroid, with
        each data point's minimum and sum, built into the calling thread's
        buffers; returns their total.

        Every element is ``|a|^2 + |c|^2 - 2 a.c`` clamped at 0 and rounded
        as that expression rounds over the matrix ``a @ c.T``: scaling by
        -2 is exact and ``s - 2m`` is the same operation as ``-2m + s``.
        """
        ws = self._workspace()
        ws.key = ws.base_key = ws.col = None
        cols, row_min = ws.cols, ws.row_min[0]
        if self.k > 1 and self.data.n > 1:
            np.matmul(c, self._a_t, out=cols)  # gemm rounds each a.c as in a @ c.T
        else:
            # numpy multiplies these shapes through gemv, whose two
            # orientations round differently; a @ c.T fixes the bits.
            np.matmul(self._a, c.T, out=cols.T)
        # |a|^2 + |c|^2 by centroid, in the matrix by data point until it is filled.
        c_sq, sq = np.einsum("ij,ij->i", c, c), ws.dists.reshape(cols.shape)
        if self._a_sq_finite and math.isfinite(sum(c_sq.tolist())):
            # Each element adds two exact products, |c|^2 * 1 and 1 * |a|^2, with
            # one rounding, as the broadcast add does, and gemm is the faster.
            ws.c_sq_one[:, 0] = c_sq
            np.matmul(ws.c_sq_one, self._ones_a_sq, out=sq)
        else:  # gemm would multiply an infinity by the zeros it pads with
            np.add(c_sq[:, None], self._a_sq, out=sq)
        self._finish(cols, sq)
        # np.minimum returns one of its operands, and no distance is -0.0,
        # so any order of the reduction gives the bits of the row minima.
        np.minimum.reduce(cols, axis=0, out=row_min)
        self._row_sums(ws)
        np.copyto(ws.dists, cols.T)
        return float(ws.dists.sum())

    @staticmethod
    def _finish(prod: np.ndarray, sq: np.ndarray) -> None:
        """Turns products ``a.c`` into squared distances
        ``|a|^2 + |c|^2 - 2 a.c`` clamped at 0, in place, given
        ``sq = |a|^2 + |c|^2`` laid out as ``prod`` is."""
        prod *= -2.0
        prod += sq
        # Rounding can leave tiny negatives on exact hits.
        np.maximum(prod, 0.0, out=prod)

    def _row_sums(self, ws: _Workspace) -> None:
        """Adds the base's columns in the plan's order: the partial sums
        into their buffers and the row sums into row 0."""
        ops, out = ws.operands, ws.row_sums[0]
        for (left, right), dest in zip(self._sum_plan, [*ops[self.k : -1], out]):
            np.add(ops[left], ops[right], out=dest)

    def _update_columns(self, ws: _Workspace, c: np.ndarray, j: int) -> float:
        """Evaluates the probe ``c``, which moves centroid ``j`` of the base,
        with the bits of :meth:`_sq_dists`; returns its total."""
        # gemm forms each a.c as the whole pass does; a duplicate row keeps
        # numpy from sending a single row through gemv.
        col, sq = np.matmul(c[j : j + 1].repeat(2, axis=0), self._a_t, out=ws.pair)
        self._finish(col, np.add(self._a_sq, np.einsum("ij,ij->i", c, c)[j], out=sq))
        if ws.col != j:
            if ws.col is None:  # the first probe from this base, or after a failure
                self._build_base(ws)
            else:  # the base's values back in the last probe's column
                ws.dists[:, ws.col] = ws.cols[ws.col]
                # Cleared while _nearest_other rewrites the selection ws.col keys.
                ws.col = None
            self._nearest_other(ws, j)
            ws.col = j
        ws.dists[:, j] = col
        np.minimum(ws.other_min, col, out=ws.row_min[1])
        self._add_row_sums(ws, j, col)
        return float(ws.dists.sum())

    @staticmethod
    def _build_base(ws: _Workspace) -> None:
        """The base's second-smallest distances, counted with multiplicity,
        as a running top two over its columns (k >= 2).  np.minimum and
        np.maximum return one of their operands, and the base is finite,
        so the bits are the columns'."""
        # The running minimum borrows other_min, which _nearest_other rewrites next.
        cols, first, second, high = ws.cols, ws.other_min, ws.second_min, ws.row
        np.minimum(cols[0], cols[1], out=first)
        np.maximum(cols[0], cols[1], out=second)
        for col in cols[2:]:
            np.minimum(second, np.maximum(first, col, out=high), out=second)
            np.minimum(first, col, out=first)

    @staticmethod
    def _nearest_other(ws: _Workspace, j: int) -> None:
        """The distance to the base's nearest column other than ``j``: its
        nearest, or, where column ``j`` attains that, its second smallest,
        which equals the nearest on a tie."""
        attains = np.equal(ws.cols[j], ws.row_min[0], out=ws.mask)
        np.copyto(ws.other_min, ws.row_min[0])
        np.putmask(ws.other_min, attains, ws.second_min)

    def _add_row_sums(self, ws: _Workspace, j: int, col: np.ndarray) -> None:
        """Adds again the partial row sums on the plan's path from column
        ``j``, which holds ``col``, into the probe's row sums; every other
        operand is the base's."""
        ops, out = ws.operands, ws.row_sums[1]
        value = col
        for other, first in self._sum_paths[j]:
            pair = (value, ops[other]) if first else (ops[other], value)
            value = np.add(*pair, out=out)

    def _moved(self, key: bytes, ref: bytes) -> int | None:
        """The only centroid whose bytes differ in ``key`` and ``ref``, if one does."""
        r = len(key) // self.k
        moved = (i // r for i in range(0, len(key), r) if key[i : i + r] != ref[i : i + r])
        j = next(moved, None)
        return j if next(moved, None) is None else None

    def _at(self, x: Point, labels: bool = False) -> tuple[np.ndarray, _Workspace]:
        """Centroids at ``x`` and the calling thread's buffers, which hold
        ``x`` (until its next call at another point); the last point's
        buffers are reused, a probe is evaluated from the base, and any
        other point, the base's own included, takes a whole pass.  With
        ``labels``, the labels too, at a base or a probe alike: each row's
        first nearest column of ``dists``, which holds the point's."""
        c = self._centroids(x)
        key = c.tobytes()
        ws = self._workspace()
        if ws.key != key:
            # Cleared before any buffer is written: a call that fails midway
            # leaves no point for the next one to reuse.
            ws.key = j = None
            ws.labeled = False
            if ws.base_key is not None and self._probes:
                j = self._moved(key, ws.base_key)
            if j is None:
                total = self._sq_dists(c)
                if math.isfinite(total):
                    ws.base_key = key
            else:
                total = self._update_columns(ws, c, j)
            ws.total, ws.reg = total, 0.5 * self.rho * sq_norm(c.ravel())
            ws.side = 0 if j is None else 1
            ws.key = key
        if labels and not ws.labeled:
            ws.dists.argmin(axis=1, out=ws.labels)
            ws.labeled = True
        return c, ws

    def eval_g(self, x: Point) -> float:
        ws = self._at(x)[1]
        return ws.total / self.data.n + ws.reg

    def eval_h(self, x: Point) -> float:
        ws = self._at(x)[1]
        # max_j of the sum with term j dropped = row sum - row min.
        row = np.subtract(ws.row_sums[ws.side], ws.row_min[ws.side], out=ws.row)
        return float(row.sum()) / self.data.n + ws.reg

    def grad_g(self, x: Point) -> Point:
        c = self._centroids(x)
        g = self._two_plus_rho * c - self._two_mean
        return g.ravel()

    def subgrad_h(self, x: Point) -> Point:
        # argmax_j of the dropped-term sum = nearest centroid.
        c, ws = self._at(x, labels=True)
        labels = ws.labels  # writeable: bincount copies none
        counts = np.bincount(labels, minlength=self.k)
        sums = np.empty_like(c)
        for dim, coords in enumerate(self._a_t):
            sums[:, dim] = np.bincount(labels, weights=coords, minlength=self.k)
        n = float(self.data.n)
        # Every branch t != label_i contributes 2*(x_t - a_i)/n; summing
        # over i leaves the full-data term minus the own-cluster term.
        sub = (
            2.0 * c
            - self._two_mean
            - (2.0 / n) * (counts[:, None] * c - sums)
            + self.rho * c
        )
        return sub.ravel()

    def solve_subproblem(self, u: Point) -> Point:
        # grad_g(y) = u reads (2 + rho) * y_j - 2 * mean = u_j blockwise.
        ub = self._centroids(u)
        return ((ub + self._two_mean) / self._two_plus_rho).ravel()

    def _direct_sq_dists(self, c: np.ndarray) -> np.ndarray:
        """The n-by-k squared distances by direct differences, from the
        data alone: the checks below read none of the solve path's buffers."""
        pairs = zip(self._a.T, c.T)
        return sum(np.square(np.subtract.outer(a_t, c_t)) for a_t, c_t in pairs)

    def dir_deriv_h(self, x: Point, d: Point) -> float:
        """Exact one-sided directional derivative of h.

        At ties of the inner max the derivative is the max over the tied
        smooth branches (tie detection uses exact float equality).
        """
        c, db = self._centroids(x), self._centroids(d)
        dists = self._direct_sq_dists(c)
        # Branch j of point i (its sum with term j dropped) is active where
        # centroid j is nearest; its derivative is G_i - c_ij with the
        # per-centroid terms below.  Ties are found on the distances: the
        # branch values S_i - dist_ij round small gaps away when S_i is large.
        block_dot = np.einsum("ij,ij->i", c, db)  # <x_j, d_j> per centroid
        cross = self._a @ db.T  # <a_i, d_j>
        per_branch = 2.0 * (block_dot[None, :] - cross)  # c_ij
        total = per_branch.sum(axis=1)  # G_i
        ties = dists == dists.min(axis=1, keepdims=True)
        deriv = np.where(ties, total[:, None] - per_branch, -np.inf).max(axis=1)
        x = np.asarray(x)
        return float(deriv.sum() / self.data.n + self.rho * np.dot(x, d))

    def phi_direct(self, x: Point) -> float:
        """Mean squared distance to the nearest centroid (for cross-checks)."""
        return float(self._direct_sq_dists(self._centroids(x)).min(axis=1).mean())

    def sample_start(self, rng: np.random.Generator) -> Point:
        """Random centroid configuration, uniform in the data bounding box."""
        lo, hi = self.data.bounding_box()
        return rng.uniform(lo, hi, size=(self.k, self.data.dim_space)).ravel()
