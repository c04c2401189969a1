"""A 2-D nonsmooth DC test problem with four critical points.

The objective is ``phi(x, y) = x^2 + y^2 + x + y - |x| - |y|``, split as

    g(x, y) = (3/2)(x^2 + y^2) + x + y
    h(x, y) = |x| + |y| + (1/2)(x^2 + y^2)

Both components are strongly convex with common modulus rho = 1.  The
objective has exactly four critical points, (0,0), (-1,0), (0,-1) and
(-1,-1); only (-1,-1) has no descent direction, and it is the global
minimum.  This makes the problem a compact stress test for solvers that
aim beyond plain criticality.
"""

from __future__ import annotations

import numpy as np

from dcboost.core import DcProblem, Point

__all__ = ["Example2dProblem", "CRITICAL_POINTS"]

#: The four critical points, in the order used by basin-count reports.
CRITICAL_POINTS: list[tuple[str, tuple[float, float]]] = [
    ("(-1,-1)", (-1.0, -1.0)),
    ("(-1,0)", (-1.0, 0.0)),
    ("(0,-1)", (0.0, -1.0)),
    ("(0,0)", (0.0, 0.0)),
]


class Example2dProblem(DcProblem):
    """The 2-D test objective above.

    At a kink the subgradient selection takes ``d|t|/dt = +1`` at t = 0,
    which keeps the iteration from (0, 1) on the coordinate axis.
    """

    dim = 2
    rho = 1.0

    def eval_g(self, x: Point) -> float:
        a, b = x.tolist()
        return 1.5 * (a * a + b * b) + a + b

    def eval_h(self, x: Point) -> float:
        a, b = x.tolist()
        return abs(a) + abs(b) + 0.5 * (a * a + b * b)

    def grad_g(self, x: Point) -> Point:
        a, b = x.tolist()
        return np.array((3.0 * a + 1.0, 3.0 * b + 1.0))

    def subgrad_h(self, x: Point) -> Point:
        a, b = x.tolist()
        return np.array(((-1.0 if a < 0.0 else 1.0) + a, (-1.0 if b < 0.0 else 1.0) + b))

    def solve_subproblem(self, u: Point) -> Point:
        # grad_g(y) = u reads 3*y + 1 = u per coordinate.
        a, b = u.tolist()
        return np.array(((a - 1.0) / 3.0, (b - 1.0) / 3.0))

    def dir_deriv_h(self, x: Point, d: Point) -> float:
        """Exact one-sided directional derivative of h."""
        total = 0.0
        for t, s in ((float(x[0]), float(d[0])), (float(x[1]), float(d[1]))):
            if t > 0.0:
                total += s
            elif t < 0.0:
                total -= s
            else:
                total += abs(s)
            total += t * s
        return total

    def sample_start(self, rng: np.random.Generator) -> Point:
        """Random start, uniform in the square [-1.5, 1.5]^2."""
        return rng.uniform(-1.5, 1.5, self.dim)

    @staticmethod
    def phi_direct(x: Point) -> float:
        """Direct objective formula, for cross-checking only."""
        a, b = float(x[0]), float(x[1])
        return a * a + b * b + a + b - abs(a) - abs(b)
