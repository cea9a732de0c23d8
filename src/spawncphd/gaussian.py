"""Gaussian mixture algebra for intensity functions.

A mixture is stored as stacked arrays (weights, means, covariances) so the
filter recursion can stay vectorized: `transform_mixture` pushes all
components through one affine map, and `reduce_mixture` truncates, merges and
caps them.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError

log = logging.getLogger(__name__)


def _require_psd(Q: np.ndarray, what: str) -> np.ndarray:
    """Symmetrize and verify PSD via a jittered Cholesky attempt."""
    Q = np.asarray(Q, dtype=float)
    Qs = 0.5 * (Q + Q.T)
    jitter = 1e-12 * max(float(np.trace(Qs)), 1.0)
    try:
        np.linalg.cholesky(Qs + jitter * np.eye(Qs.shape[0]))
    except np.linalg.LinAlgError:
        raise InvalidModelError(f"{what} is not positive semidefinite") from None
    return Qs


class GaussianMixture:
    """Weighted Gaussian mixture stored as stacked arrays.

    w: (J,) nonnegative weights, m: (J, d) means, P: (J, d, d) covariances.
    Total weight is defined as the left-to-right accumulation of w.
    """

    __slots__ = ("w", "m", "P")

    def __init__(self, w: np.ndarray, m: np.ndarray, P: np.ndarray) -> None:
        self.w = np.asarray(w, dtype=float).reshape(-1)
        self.m = np.asarray(m, dtype=float)
        self.P = np.asarray(P, dtype=float)
        J = self.w.shape[0]
        if self.m.ndim != 2 or self.m.shape[0] != J:
            raise InvalidModelError(f"means shape {self.m.shape} does not match {J} weights")
        d = self.m.shape[1]
        if self.P.shape != (J, d, d):
            raise InvalidModelError(f"covariances shape {self.P.shape} invalid for (J={J}, d={d})")
        if J and not np.all(np.isfinite(self.w)):
            raise InvalidModelError("non-finite weight in mixture")
        if J and self.w.min() < 0.0:
            raise InvalidModelError(f"negative weight {self.w.min()} in mixture")

    @classmethod
    def empty(cls, dim: int) -> "GaussianMixture":
        return cls(np.empty(0), np.empty((0, dim)), np.empty((0, dim, dim)))

    @classmethod
    def concat(cls, mixtures) -> "GaussianMixture":
        """Stack mixtures of a common state dimension, preserving order."""
        mixtures = list(mixtures)
        if not mixtures:
            raise InvalidModelError("concat needs at least one mixture")
        d = mixtures[0].dim
        if any(mx.dim != d for mx in mixtures):
            raise InvalidModelError("cannot concatenate mixtures of different dimensions")
        return cls(
            np.concatenate([mx.w for mx in mixtures]),
            np.concatenate([mx.m for mx in mixtures]),
            np.concatenate([mx.P for mx in mixtures]),
        )

    def __len__(self) -> int:
        return self.w.shape[0]

    @property
    def dim(self) -> int:
        return self.m.shape[1]

    @property
    def total_weight(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(np.cumsum(self.w)[-1])


@dataclass(frozen=True)
class ReductionConfig:
    """Mixture reduction thresholds: truncate below trunc_threshold, merge
    within Mahalanobis merge_threshold, keep at most max_components."""

    trunc_threshold: float
    merge_threshold: float
    max_components: int

    def __post_init__(self) -> None:
        for name in ("trunc_threshold", "merge_threshold"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise InvalidModelError(f"{name} = {value!r} must be finite and >= 0")
        n = self.max_components
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise InvalidModelError(f"max_components = {n!r} must be an integer >= 1")


def transform_mixture(
    mix: GaussianMixture,
    F: np.ndarray,
    d: np.ndarray,
    Q: np.ndarray,
    scale: float,
) -> GaussianMixture:
    """Push every component through x -> F x + d with additive PSD noise Q,
    scaling its weight."""
    F = np.asarray(F, dtype=float)
    d = np.asarray(d, dtype=float).reshape(-1)
    Qs = _require_psd(Q, "process noise covariance")
    if len(mix) == 0:
        return GaussianMixture.empty(F.shape[0])
    m = mix.m @ F.T + d
    P = np.matmul(np.matmul(F, mix.P), F.T) + Qs
    P = 0.5 * (P + np.transpose(P, (0, 2, 1)))
    return GaussianMixture(scale * mix.w, m, P)


def _batched_inverses(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert a (J, d, d) stack; flags exactly-singular members instead of
    failing the whole batch. Returns (inverses, usable_mask)."""
    J = P.shape[0]
    ok = np.ones(J, dtype=bool)
    try:
        inv = np.linalg.inv(P)
        finite = np.isfinite(inv).all(axis=(1, 2))
        if finite.all():
            return inv, ok
        ok = finite
    except np.linalg.LinAlgError:
        pass
    inv = np.zeros_like(P)
    for j in range(J):
        try:
            inv[j] = np.linalg.inv(P[j])
            ok[j] = bool(np.isfinite(inv[j]).all())
        except np.linalg.LinAlgError:
            ok[j] = False
    if not ok.all():
        log.warning(
            "%d mixture component(s) have singular covariance; treated as non-mergeable",
            int((~ok).sum()),
        )
    return inv, ok


# At most this many (pivot, free row) gate distances are formed at once.
_GATE_BLOCK = 1 << 18
# Recheck band of a fast gate distance, relative to the absolute terms of its
# expansion; their rounding stays below ~1e-14 of the same sum.
_GATE_BAND = 1e-10


@functools.cache
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(d, 1)


def _merge_pass(
    w: np.ndarray, m: np.ndarray, P: np.ndarray, U: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """One greedy merge sweep; outputs come one per pivot, in pivot order.

    Pivots are taken in descending-weight order (ties by index). A pivot p
    absorbs every free component i with (m_i - m_p)' A_i (m_i - m_p) <= U,
    A_i being the candidate's own inverse covariance; singular covariances
    gate nothing. Distances of the free rows to a block of pivots are one
    GEMM of quadratic-form features, rows [x'Ax, -(A + A')x, diag A, upper
    (A + A')] against columns [1, x, x*x, x_k x_l]. Pairs within
    _GATE_BAND * (1 + sum_f |row_f| max_j |col_f|) of U are recomputed with
    the direct formula, so every gate decision is the direct one.

    The greedy is emitted without a Python iteration per pivot. A pivot of a
    block is live iff no earlier live pivot of the block gates it; array
    rounds over the (block pivot, mergeable block pivot) gates settle at
    least the earliest undecided pivot each. A free row goes to the first
    live pivot that gates it, and a live pivot always keeps itself. Groups
    are moment-matched after the last block, weights and covariance terms
    summed in ascending member order, as the sequential greedy sums them:
    the covariance terms go through one 1-D `np.add.at` on the flattened
    (groups * d * d) totals, member by member.
    """
    J, d = m.shape
    inv, mergeable = _batched_inverses(P)
    k, l = _upper_pairs(d)
    S = inv + np.transpose(inv, (0, 2, 1))
    Sm = np.matmul(S, m[:, :, None])[:, :, 0]
    rowF = np.concatenate(
        [0.5 * (Sm * m).sum(axis=1, keepdims=True), -Sm, np.diagonal(inv, 0, 1, 2), S[:, k, l]],
        axis=1,
    )
    colF = np.concatenate([np.ones((J, 1)), m, m * m, m[:, k] * m[:, l]], axis=1)
    colmax = np.abs(colF).max(axis=0)

    order = np.lexsort((np.arange(J), -w))
    rows = np.flatnonzero(mergeable)
    free = np.ones(J, dtype=bool)
    live = np.zeros(J, dtype=bool)
    owner = np.arange(J)  # the pivot whose group each component joins
    queue = order
    while queue.shape[0]:
        rows = rows[free[rows]]
        piv, queue = np.split(queue, [max(1, _GATE_BLOCK // max(rows.shape[0], 1))])
        R = rowF[rows]
        d2 = colF[piv] @ R.T  # (pivots, free rows)
        band = _GATE_BAND * (1.0 + np.abs(R) @ colmax)
        gate = d2 <= U - band
        near = ~(d2 > U + band)  # NaN counts as near
        if np.count_nonzero(near) > np.count_nonzero(gate):
            c, r = np.nonzero(near & ~gate)
            diff = m[rows[r]] - m[piv[c]]
            gate[c, r] = (np.matmul(diff[:, None, :], inv[rows[r]])[:, 0, :] * diff).sum(axis=1) <= U

        cols = np.flatnonzero(mergeable[piv])  # block pivots that are free rows
        G = gate[:, np.searchsorted(rows, piv[cols])] & (np.arange(piv.shape[0])[:, None] < cols)
        todo = np.flatnonzero(G.any(axis=0))
        alive = np.ones(piv.shape[0], dtype=bool)
        pending = np.zeros(piv.shape[0], dtype=bool)
        pending[cols[todo]] = True
        while todo.shape[0]:
            g = G[:, todo]
            dead = (g & alive[:, None] & ~pending[:, None]).any(axis=0)
            settled = dead | ~(g & pending[:, None]).any(axis=0)
            pending[cols[todo[settled]]] = False
            alive[cols[todo[dead]]] = False
            todo = todo[~settled]

        lp = piv[alive]
        gl = gate[alive]
        hit = gl.any(axis=0)
        owner[rows[hit]] = lp[gl.argmax(axis=0)[hit]]
        owner[lp] = lp
        live[lp] = True
        free[rows[hit]] = False
        free[piv] = False
        queue = queue[free[queue]]

    size = np.bincount(owner, minlength=J)
    heads = np.flatnonzero(size > 1)
    out_w, out_m, out_P = w.copy(), m.copy(), P.copy()
    if heads.shape[0]:
        mem = np.flatnonzero(size[owner] > 1)  # ascending member order
        grp = np.searchsorted(heads, owner[mem])
        tot = np.zeros(heads.shape[0])
        np.add.at(tot, grp, w[mem])
        srt, ends = mem[np.argsort(grp, kind="stable")], np.cumsum(size[heads]).tolist()
        for p, t, a, b in zip(heads, tot, [0] + ends[:-1], ends):
            out_m[p] = w[srt[a:b]] @ m[srt[a:b]] / t
        dev = out_m[owner[mem]] - m[mem]
        terms = w[mem][:, None, None] * (P[mem] + dev[:, :, None] * dev[:, None, :])
        Pbar = np.zeros(heads.shape[0] * d * d)
        np.add.at(Pbar, (grp[:, None] * (d * d) + np.arange(d * d)).ravel(), terms.ravel())
        Pbar = Pbar.reshape(-1, d, d) / tot[:, None, None]
        out_w[heads] = tot
        out_P[heads] = 0.5 * (Pbar + np.transpose(Pbar, (0, 2, 1)))
    sel = order[live[order]]
    return out_w[sel], out_m[sel], out_P[sel], bool(heads.shape[0])


def reduce_mixture(mix: GaussianMixture, cfg: ReductionConfig) -> GaussianMixture:
    """Truncate, merge, and prune a mixture.

    Components with weight < trunc_threshold are removed; survivors are merged
    greedily by descending weight using moment matching (weight conserved
    exactly), with the gate of `_merge_pass`: one blocked GEMM of distances
    for every mixture size, and an exact recheck of the pairs within its
    rounding band of merge_threshold. Merge sweeps repeat until none fires,
    which makes the operation idempotent even when moment-matched covariances
    widen enough to gate further pairs. The max_components heaviest results
    are kept.
    """
    keep = mix.w >= cfg.trunc_threshold
    w, m, P = mix.w[keep], mix.m[keep], mix.P[keep]
    while w.shape[0] > 1:
        w, m, P, merged_any = _merge_pass(w, m, P, cfg.merge_threshold)
        if not merged_any:
            break

    order = np.lexsort((np.arange(w.shape[0]), -w))
    w, m, P = w[order], m[order], P[order]
    if w.shape[0] > cfg.max_components:
        w, m, P = w[: cfg.max_components], m[: cfg.max_components], P[: cfg.max_components]
    return GaussianMixture(w, m, P)
