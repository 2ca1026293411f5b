"""Closed-form Var(Y) for Y = sum_i a[i, pi(i)] under Ewens(theta).

This is the Ewens analogue of Hoeffding's (1951) variance formula for the
combinatorial CLT.  It uses only the one- and two-point constraint
probabilities theta^loops / (theta+n-1)_(m), so it is exact at every n and
shares no code with the package.  With the Ewens-weighted grand mean
removed (E[Y] = 0), G = theta*I + (1 - I) and B = A_hat o G:

    Var Y = sum(A_hat^2 o G) / (theta+n-1)
          + [ (sum B)^2 - |rowsum B|^2 - |colsum B|^2 + sum B^2
              + (theta-1) sum_{i != j} a_ij a_ji ] / ((theta+n-1)(theta+n-2))
"""

from __future__ import annotations

import numpy as np


def centered(A, theta: float) -> np.ndarray:
    """A minus its Ewens-weighted grand mean (theta tr A + off-diagonal sum) / (n (theta+n-1))."""
    a = np.asarray(A, dtype=float)
    n = a.shape[0]
    tr = np.trace(a)
    return a - (theta * tr + (a.sum() - tr)) / (n * (theta + n - 1))


def variance(A, theta: float) -> float:
    """Var(Y) in closed form; equals sigma^2 of the package's bound report."""
    a = centered(A, theta)
    n = a.shape[0]
    g = np.ones((n, n))
    np.fill_diagonal(g, theta)
    b = a * g
    one_point = (a * a * g).sum() / (theta + n - 1)
    swap = a * a.T
    two_point = (
        b.sum() ** 2
        - (b.sum(axis=1) ** 2).sum()
        - (b.sum(axis=0) ** 2).sum()
        + (b * b).sum()
        + (theta - 1.0) * (swap.sum() - np.trace(swap))
    ) / ((theta + n - 1) * (theta + n - 2))
    return float(one_point + two_point)
