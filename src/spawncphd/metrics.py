"""Evaluation metrics: order-2 OSPA between point sets and the Hellinger
distance between count distributions.

The OSPA assignment is solved in this module by the shortest augmenting path
algorithm of Crouse, "On implementing 2D rectangular assignment algorithms"
(IEEE TAES 52(4), 2016), on an m x n cost matrix with m <= n."""

from __future__ import annotations

import math

import numpy as np

from .cardinality import CardinalityDistribution
from .errors import DomainError


def _assign_columns(cost: np.ndarray) -> list[int]:
    """Column assigned to each row by a minimum-cost assignment of an m x n
    matrix of finite costs with m <= n.

    Shortest augmenting paths (Crouse 2016), one per row, with the order of
    operations and the tie-breaking of scipy's ``linear_sum_assignment``, so
    both give the same assignment: unvisited columns are scanned in reverse
    order, a taken column is replaced by the last one, and among columns of
    equal path cost a free one is preferred.
    """
    m, n = cost.shape
    c = cost.tolist()
    u = [0.0] * m
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * m
    row4col = [-1] * n
    for cur in range(m):
        spc = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        rows_seen, cols_seen = [], []
        min_val = 0.0
        i = cur
        while True:
            rows_seen.append(i)
            ci, ui = c[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            j = remaining[index]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
        u[cur] += min_val
        for k in rows_seen[1:]:  # rows_seen[0] is cur, the only unassigned row
            u[k] += min_val - spc[col4row[k]]
        for k in cols_seen:
            v[k] -= min_val - spc[k]
        while True:  # augment along the path back from the free column j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def ospa(X, Y, c: float) -> float:
    """Order-2 OSPA distance with cutoff c between two finite point sets.

    Rows are points. The smaller set gives the m rows of the cost matrix, so
    the shortest augmenting path solver of this module (Crouse 2016) sees the
    m <= n it requires; the optimal sub-assignment is exact. Both sets empty
    gives 0; one empty gives c. A NaN or infinite coordinate in either set
    raises ``DomainError``.
    """
    if not (math.isfinite(c) and c > 0.0):
        raise DomainError(f"OSPA cutoff must be positive, got {c}")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    X = X.reshape(len(X), -1) if X.size else X.reshape(0, max(X.shape[-1] if X.ndim else 0, 1))
    Y = Y.reshape(len(Y), -1) if Y.size else Y.reshape(0, max(Y.shape[-1] if Y.ndim else 0, 1))
    for name, P in (("X", X), ("Y", Y)):
        if not np.isfinite(P).all():
            raise DomainError(f"OSPA set {name} has a non-finite coordinate")
    m, n = X.shape[0], Y.shape[0]
    if m == 0 and n == 0:
        return 0.0
    if m > n:
        X, Y, m, n = Y, X, n, m
    if m == 0:
        return float(c)
    diff = X[:, None, :] - Y[None, :, :]
    D = np.minimum(np.sqrt(np.einsum("mnd,mnd->mn", diff, diff)), c)
    cols = _assign_columns(D**2)
    cost = float((D[np.arange(m), cols] ** 2).sum())
    return math.sqrt((cost + c * c * (n - m)) / n)


def _probs(p) -> np.ndarray:
    if isinstance(p, CardinalityDistribution):
        return p.probs
    return np.asarray(p, dtype=float).reshape(-1)


def hellinger(p, q) -> float:
    """Hellinger distance (in [0, 1]) between two pmfs on the same support."""
    pv, qv = _probs(p), _probs(q)
    if pv.shape != qv.shape:
        raise DomainError(f"support lengths differ: {pv.shape[0]} vs {qv.shape[0]}")
    d2 = 0.5 * float(((np.sqrt(pv) - np.sqrt(qv)) ** 2).sum())
    return math.sqrt(min(max(d2, 0.0), 1.0))


def ideal_cardinality(n_true: int, n_max: int) -> CardinalityDistribution:
    """Point mass at the true count; reference for Hellinger evaluation."""
    if not 0 <= n_true <= n_max:
        raise DomainError(f"true count {n_true} outside 0..{n_max}")
    return CardinalityDistribution.delta(n_true, n_max)
