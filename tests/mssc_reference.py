"""The clustering objective in its centred formulation, as a test-local
reference for :class:`dcboost.MsscProblem`.

With ā the data mean, b_i = a_i - ā the centred data and u_j = x_j - ā
the centred centroids,

    phi(X) = (1/n) * sum_i min_j ||u_j - b_i||^2
    g(X)   = (1 + rho/2) * sum_j ||u_j||^2 + k * var,   var = (1/n) * sum_i ||b_i||^2
    h(X)   = g(X) - phi(X)

g is (1/n) * sum_i sum_j ||x_j - a_i||^2 in closed form around ā, with
the regulariser (rho/2) * ||X - ā||^2; h is convex for the same reason as
in ``MsscProblem``.  Every term reads centred quantities only, so moving
data and centroids together by one vector changes the run only by the
rounding of the centring.  No buffer is shared with ``MsscProblem``:
phi is formed by direct differences, and the one memo holds the last
point's phi and labels.
"""

from __future__ import annotations

import numpy as np

from dcboost import ClusterData
from dcboost.core import DcProblem


class CentredMssc(DcProblem):
    def __init__(self, data: ClusterData, k: int, rho: float | None = None):
        self.k, self.data = k, data
        self.dim = k * data.dim_space
        self.rho = 1.0 / (data.n * k) if rho is None else float(rho)
        self._mean = data.mean
        self._b = data.points - data.mean
        self._var = float(np.einsum("ij,ij->", self._b, self._b)) / data.n
        self._memo = (None, 0.0, None)  # (key, phi, labels), replaced whole

    def _centred(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(self.k, -1) - self._mean

    def _sq_dists(self, u: np.ndarray) -> np.ndarray:
        """||b_i - u_j||^2 by direct differences, one row per data point."""
        pairs = zip(self._b.T, u.T)
        return sum(np.square(np.subtract.outer(b_t, u_t)) for b_t, u_t in pairs)

    def _phi_labels(self, x) -> tuple[float, np.ndarray]:
        key = np.asarray(x, dtype=float).tobytes()
        if self._memo[0] != key:
            d = self._sq_dists(self._centred(x))
            self._memo = (key, float(d.min(axis=1).mean()), d.argmin(axis=1))
        return self._memo[1:]

    def eval_g(self, x) -> float:
        u = self._centred(x)
        return (1.0 + 0.5 * self.rho) * float(np.einsum("ij,ij->", u, u)) + self.k * self._var

    def eval_h(self, x) -> float:
        return self.eval_g(x) - self._phi_labels(x)[0]

    def grad_g(self, x) -> np.ndarray:
        return ((2.0 + self.rho) * self._centred(x)).ravel()

    def subgrad_h(self, x) -> np.ndarray:
        u, labels = self._centred(x), self._phi_labels(x)[1]
        counts = np.bincount(labels, minlength=self.k)
        sums = np.stack([np.bincount(labels, b_t, self.k) for b_t in self._b.T], axis=1)
        grad_phi = (2.0 / self.data.n) * (counts[:, None] * u - sums)
        return ((2.0 + self.rho) * u - grad_phi).ravel()

    def dir_deriv_h(self, x, d) -> float:
        """h'(x; d) = g'(x; d) - phi'(x; d).  Point i's term of phi moves at
        the smallest rate 2<u_j - b_i, d_j> over its nearest centroids j,
        the ties found by exact equality of the direct distances."""
        u, du = self._centred(x), np.asarray(d, dtype=float).reshape(self.k, -1)
        dists = self._sq_dists(u)
        rates = 2.0 * (np.einsum("jt,jt->j", u, du)[None, :] - self._b @ du.T)
        ties = dists == dists.min(axis=1, keepdims=True)
        phi_prime = float(np.where(ties, rates, np.inf).min(axis=1).mean())
        return (2.0 + self.rho) * float(np.einsum("jt,jt->", u, du)) - phi_prime

    def solve_subproblem(self, v) -> np.ndarray:
        # grad_g(y) = v reads (2 + rho) * (y_j - ā) = v_j blockwise.
        v = np.asarray(v, dtype=float).reshape(self.k, -1)
        return (self._mean + v / (2.0 + self.rho)).ravel()
