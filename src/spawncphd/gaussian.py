"""Gaussian mixture algebra for intensity functions.

A mixture is stored as stacked arrays (weights, means, covariances) so the
filter recursion can stay vectorized: `transform_mixture` is the one
Gaussian push, of every component through one affine map or a stack of them
(the survivors' motion, or every spawn kernel term in one call), and
`reduce_mixture` truncates, merges and caps them. Its merge sweeps do each
piece of work once: every distinct covariance is inverted once, and only
merged heads are inverted again. The sweep state is per row, its gate
features and a mergeable flag: 121 bytes a row for d = 4.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError

log = logging.getLogger(__name__)


def _require_psd(Q: np.ndarray, what: str) -> np.ndarray:
    """Symmetrize and verify PSD via a jittered Cholesky attempt; NaN or inf fails."""
    Q = np.asarray(Q, dtype=float)
    Qs = 0.5 * (Q + Q.T)
    jitter = 1e-12 * max(float(np.trace(Qs)), 1.0)
    try:
        if not np.isfinite(Qs).all():
            raise np.linalg.LinAlgError
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
        if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and n >= 1):
            raise InvalidModelError(f"max_components = {n!r} must be an integer >= 1")


def transform_mixture(
    mix: GaussianMixture,
    F: np.ndarray,
    d: np.ndarray,
    Q: np.ndarray,
    scale,
) -> GaussianMixture:
    """Push every component through x -> F_t x + d_t with noise Q_t, its weight
    scaled by scale_t, for each of T terms: F (e, dim), d (e,), Q (e, e) and
    `scale` each hold one term or a stack of T. The J * T components come out
    component-major, term-minor; each term takes a single term's matmuls,
    formed term-major. Q is not checked: the models check theirs when built.
    """
    F = np.asarray(F, dtype=float)
    e = F.shape[-2]
    F = F.reshape(-1, 1, e, F.shape[-1])
    Ft = np.swapaxes(F, -1, -2)
    d, Q, s = np.reshape(d, (-1, 1, e)), np.reshape(Q, (-1, 1, e, e)), np.reshape(scale, (-1, 1))
    J, T = len(mix), max(len(F), len(d), len(Q), len(s))
    w, m, P = np.empty((J, T)), np.empty((J, T, e)), np.empty((J, T, e, e))
    np.multiply(s, mix.w, out=w.T)
    np.add(np.matmul(mix.m, Ft[:, 0]), d, out=np.swapaxes(m, 0, 1))
    FPF = np.matmul(np.matmul(F, mix.P), Ft) + Q
    np.multiply(0.5, FPF + np.swapaxes(FPF, -1, -2), out=np.swapaxes(P, 0, 1))
    return GaussianMixture(w.reshape(-1), m.reshape(-1, e), P.reshape(-1, e, e))


def _batched_inverses(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert a (J, d, d) stack; flags members without a finite inverse
    instead of failing the whole batch. Returns (inverses, usable_mask).

    When the whole stack does not invert, the members with a finite nonzero
    determinant are inverted as one batch and the rest one at a time: a
    determinant can underflow to 0, or be NaN, for a matrix LAPACK still
    factors. Each member gets the bits of its own `inv`.
    """
    try:
        inv = np.linalg.inv(P)
        if np.isfinite(inv).all():
            return inv, np.ones(P.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    with np.errstate(invalid="ignore", over="ignore"):
        det = np.linalg.det(P)
    one = ~np.isfinite(det) | (det == 0.0)
    inv = np.zeros_like(P)
    inv[~one] = np.linalg.inv(P[~one])  # factored as det factored them: no zero pivot
    ok = np.ones(P.shape[0], dtype=bool)
    for j in np.flatnonzero(one):
        try:
            inv[j] = np.linalg.inv(P[j])
        except np.linalg.LinAlgError:
            ok[j] = False
    ok &= np.isfinite(inv).all(axis=(1, 2))
    if not ok.all():
        log.warning(
            "%d mixture covariance(s) singular; their components are treated as non-mergeable",
            int((~ok).sum()),
        )
    return inv, ok


# At most this many (pivot, free row) gate distances are formed at once. On
# the 104 reductions of a `dense_clutter` cycle 2^16 forms 165M in 2,863
# blocks, 26 pivot-to-pivot gates a block; 2^15 forms 139M in 4,655 blocks
# and runs as fast, 2^17 forms 205M in 1,910 blocks and runs 10% slower.
_GATE_BLOCK = 1 << 16
# Recheck band of a fast gate distance, relative to the absolute terms of its
# expansion; their rounding stays below ~1e-14 of the same sum.
_GATE_BAND = 1e-10


@functools.cache
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(d, 1)


@np.errstate(over="ignore", invalid="ignore")
def _row_features(m: np.ndarray, inv: np.ndarray, cid: np.ndarray) -> np.ndarray:
    """Candidate-side gate features of rows with means m and inverse
    covariances inv[cid]: [x'Ax, -(A + A')x, diag A, upper (A + A')], written
    into one (J, 1 + 2d + d(d-1)/2) array. S = A + A', diag A and upper S are
    formed once per inverse and gathered by cid."""
    J, d = m.shape
    k, l = _upper_pairs(d)
    S = inv + np.transpose(inv, (0, 2, 1))
    F = np.empty((J, 1 + 2 * d + k.shape[0]))
    Sm = np.matmul(S[cid], m[:, :, None])[:, :, 0]
    F[:, 0] = 0.5 * (Sm * m).sum(axis=1)
    np.negative(Sm, out=F[:, 1 : 1 + d])
    F[:, 1 + d : 1 + 2 * d] = np.diagonal(inv, 0, 1, 2)[cid]
    F[:, 1 + 2 * d :] = S[:, k, l][cid]
    return F


@np.errstate(over="ignore", invalid="ignore")
def _pivot_features(m: np.ndarray) -> np.ndarray:
    """Pivot-side gate features [1, x, x*x, x_k x_l]: a row's distance to
    every pivot is the dot product of its candidate-side features with these."""
    J, d = m.shape
    k, l = _upper_pairs(d)
    C = np.empty((J, 1 + 2 * d + k.shape[0]))
    C[:, 0] = 1.0
    C[:, 1 : 1 + d] = m
    np.multiply(m, m, out=C[:, 1 + d : 1 + 2 * d])
    np.multiply(m[:, k], m[:, l], out=C[:, 1 + 2 * d :])
    return C


def _merge_pass(
    w: np.ndarray, m: np.ndarray, P: np.ndarray, state: tuple, U: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple | None]:
    """One greedy merge sweep; outputs come one per pivot, in pivot order.

    Pivots are taken in descending-weight order (ties by index). A pivot p
    absorbs every free component i with (m_i - m_p)' A_i (m_i - m_p) <= U,
    A_i being the candidate's own inverse covariance; singular covariances
    gate nothing. `state` is (F, mergeable): per row its candidate-side
    features F (`_row_features`) and whether its covariance has a finite
    inverse. A sweep that merges returns the state of its outputs, unmerged
    pivots keeping their rows and merged heads getting fresh ones; a sweep
    that merges nothing returns None. Distances of the free rows to a block
    of pivots are one GEMM of F with the pivot features, formed once a sweep.
    Pairs within _GATE_BAND * (1 + sum_f |row_f| max_j |col_f|) of U, a band
    formed once a sweep, are recomputed with the direct formula, inverting
    the candidate's covariance again, so every gate decision is the direct
    one.

    A block's gated pairs form one pivot-major list. A pivot is live iff no
    earlier live pivot of its block gates it: one Python loop walks the
    list's pivot-to-pivot pairs (a, b), a < b, and kills b when a is live, a
    being settled by the pairs into it, listed first. A free row goes to the
    first live pivot that gates it; a live pivot always keeps itself. Groups
    are moment-matched after the last block, weights and covariance terms
    summed in ascending member order, as the sequential greedy sums them:
    weights through one `np.bincount`, the covariance terms through one 1-D
    `np.add.at` on the flattened (groups * d * d) totals, member by member,
    and each mean is the greedy's own `w @ m` product, on slices of the
    members gathered once a sweep. The surviving rows are gathered once and
    the heads overwritten in place.
    """
    J, d = m.shape
    rowF, mergeable = state
    colF = _pivot_features(m)
    colmax = np.abs(colF).max(axis=0)

    order = np.argsort(-w, kind="stable")
    rows = np.flatnonzero(mergeable)
    with np.errstate(over="ignore", invalid="ignore"):
        band = _GATE_BAND * (1.0 + np.abs(rowF[rows]) @ colmax)
    free = np.ones(J, dtype=bool)
    live = np.zeros(J, dtype=bool)
    owner = np.arange(J)  # the pivot whose group each component joins
    slot = np.full(J, -1)  # a pivot's place in its block
    queue = order
    while queue.shape[0]:
        still = free[rows]
        rows, band = rows[still], band[still]
        n = max(1, _GATE_BLOCK // max(rows.shape[0], 1))
        piv, queue = queue[:n], queue[n:]
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = colF[piv] @ rowF[rows].T  # (pivots, free rows)
            c, r = np.divmod(np.flatnonzero(~(d2 > U + band)), d2.shape[1])  # NaN counts as near
        sure = d2[c, r] <= U - band[r]
        near = np.flatnonzero(~sure)
        if near.shape[0]:
            diff = m[rows[r[near]]] - m[piv[c[near]]]
            Ad = np.matmul(diff[:, None, :], np.linalg.inv(P[rows[r[near]]]))[:, 0, :]
            sure[near] = (Ad * diff).sum(axis=1) <= U
        c, r = c[sure], r[sure]  # the gated pairs, pivot-major

        slot[piv] = np.arange(piv.shape[0])
        s = slot[rows[r]]
        alive = [True] * piv.shape[0]
        ab = c < s  # pivot-to-pivot gates, a before b
        for a, b in zip(c[ab].tolist(), s[ab].tolist()):
            if alive[a]:
                alive[b] = False
        alive = np.array(alive)
        c, r = c[alive[c]], r[alive[c]]
        taken, first = np.unique(rows[r], return_index=True)
        lp = piv[alive]
        owner[taken] = piv[c[first]]
        owner[lp] = lp
        live[lp] = True
        free[taken] = False
        free[piv] = False
        queue = queue[free[queue]]
    del colF, d2  # the moment step needs neither

    size = np.bincount(owner, minlength=J)
    heads = np.flatnonzero(size > 1)
    sel = order[live[order]]
    if not heads.shape[0]:
        return w[sel], m[sel], P[sel], None
    mem = np.flatnonzero(size[owner] > 1)  # ascending member order
    grp = np.searchsorted(heads, owner[mem])
    nh = heads.shape[0]
    tot = np.bincount(grp, w[mem], nh)
    srt, ends = mem[np.argsort(grp, kind="stable")], np.cumsum(size[heads]).tolist()
    ws, ms = w[srt], m[srt]
    sums = [ws[a:b] @ ms[a:b] for a, b in zip([0] + ends[:-1], ends)]
    mbar = np.array(sums) / tot[:, None]
    dev = mbar[grp] - m[mem]
    terms = dev[:, :, None] * dev[:, None, :]
    terms += P[mem]
    terms *= w[mem][:, None, None]
    Pbar = np.zeros(nh * d * d)
    np.add.at(Pbar, (grp[:, None] * (d * d) + np.arange(d * d)).ravel(), terms.ravel())
    Pbar = Pbar.reshape(-1, d, d) / tot[:, None, None]
    Pbar = 0.5 * (Pbar + np.transpose(Pbar, (0, 2, 1)))

    at = np.empty(J, dtype=np.intp)
    at[sel] = np.arange(sel.shape[0])
    at = at[heads]  # the heads' output rows
    w, m, P, rowF, mergeable = w[sel], m[sel], P[sel], rowF[sel], mergeable[sel]
    w[at], m[at], P[at] = tot, mbar, Pbar
    inv, mergeable[at] = _batched_inverses(Pbar)
    rowF[at] = _row_features(mbar, inv, np.arange(nh))
    return w, m, P, (rowF, mergeable)


def reduce_mixture(mix: GaussianMixture, cfg: ReductionConfig) -> GaussianMixture:
    """Truncate, merge, and prune a mixture.

    Components with weight < trunc_threshold are removed; survivors are merged
    greedily by descending weight using moment matching (weight conserved
    exactly), with the gate of `_merge_pass`: one blocked GEMM of distances
    for every mixture size, and an exact recheck of the pairs within its
    rounding band of merge_threshold. Merge sweeps repeat until none fires,
    which makes the operation idempotent even when moment-matched covariances
    widen enough to gate further pairs. The max_components heaviest results
    are kept. Each bitwise-distinct covariance (NaN and -0.0 entries group
    only with identical bits) is inverted once, per-matrix LAPACK giving
    every member the bits an `inv` of the whole stack would; later sweeps
    invert only merged heads and the candidates the exact recheck decides:
    88k inverses a `dense_clutter` cycle, none of them in the recheck.

    Memory: a sweep's state is 15 features and a mergeable flag per row, 121
    bytes for d = 4, and no inverse is carried from sweep to sweep; the pivot
    features, another 120 bytes a row, live for one sweep.
    A mixture with no weight below trunc_threshold is not copied.
    """
    keep = mix.w >= cfg.trunc_threshold
    w, m, P = (mix.w, mix.m, mix.P) if keep.all() else (mix.w[keep], mix.m[keep], mix.P[keep])
    # One inverse per bitwise-distinct covariance: rows sorted by a weighted
    # sum of their 32-bit words are grouped where neighbours match bit for bit;
    # einsum sums in int64 without an int64 copy of the words.
    J, d = m.shape
    bits = P.reshape(J, d * d).view(np.int64)
    srt = np.argsort(
        np.einsum("ij,j->i", bits.view(np.int32), np.arange(1, 4 * d * d, 2), dtype=np.int64)
    )
    bits = bits[srt]
    first = np.ones(J, dtype=bool)
    first[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    del bits
    cid = np.empty(J, dtype=np.intp)
    cid[srt] = np.cumsum(first) - 1
    inv, ok = _batched_inverses(P[srt[first]])
    state = _row_features(m, inv, cid), ok[cid]
    while state is not None and w.shape[0] > 1:
        w, m, P, state = _merge_pass(w, m, P, state, cfg.merge_threshold)
    # A sweep that merges nothing emits its rows sorted, in pivot order.
    n = cfg.max_components
    return GaussianMixture(w[:n], m[:n], P[:n])
