"""Distributions over target counts and their prediction under spawning.

The central operation is `predict_cardinality`: it pushes a count distribution
through one time step in which every parent independently leaves behind a
random number of successors (survivor plus spawned daughters). The paper
writes it with partial Bell polynomials of b_i = i! q_i (q the successor pmf),
but the factorials cancel: B_{n,j}(b_1, ..)/n! m!/(m-j)! b_0^(m-j) =
C(m, j) q_0^(m-j) [Q^j]_n, Q being q without its zero term. So the step thins
the parents by 1 - q_0 and adds that many i.i.d. nonempty broods, every entry
at most 1. The slower `pgf_compose_oracle` is an independent check.

One cached table C(n, j) x^(n-j) is the kernel of the prediction (x = q_0),
of survival thinning (x = 1 - p_s) and of the CPHD count update (x = 1 - p_d,
as n!/(n-j)! = j! C(n, j)). Counts stop at `MAX_COUNT`, the range the count
oracles cover; C(n, n/2) overflows float64 at n = 1030.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidModelError, NumericalError

log = logging.getLogger(__name__)

MAX_COUNT = 500  # largest n_max: the range the count oracles cover
MAX_RATE = -float(np.log(np.finfo(float).tiny))  # ~708.4: exp(-rate) stays normal


def _factorials(n: int) -> np.ndarray:
    if n > 170:
        raise DomainError(f"count {n} exceeds 170: {n}! overflows float64")
    return np.cumprod(np.append(1.0, np.arange(1.0, n + 1)))


def _pascal(n: int) -> np.ndarray:
    """Binomial coefficient table C[i, k] for i, k <= n (exact in float64)."""
    C = np.zeros((n + 1, n + 1))
    C[:, 0] = 1.0
    for i in range(1, n + 1):
        C[i, 1 : i + 1] = C[i - 1, : i] + C[i - 1, 1 : i + 1]
    return C


class CardinalityDistribution:
    """Pmf over target counts 0..n_max.

    `truncation_deficit` records probability mass that an operation pushed
    beyond n_max before renormalizing; it is informational only.
    """

    __slots__ = ("probs", "truncation_deficit")

    def __init__(self, probs, *, normalize: bool = False, deficit: float = 0.0):
        p = np.asarray(probs, dtype=float).reshape(-1)
        if p.size == 0:
            raise DomainError("cardinality distribution needs at least one entry")
        if not np.all(np.isfinite(p)):
            raise DomainError("non-finite probability entry")
        if p.min() < 0.0:
            raise DomainError(f"negative probability {p.min():.3e}")
        s = float(np.cumsum(p)[-1])
        if normalize:
            if s <= 0.0:
                raise NumericalError("cannot normalize a zero-mass count distribution")
            p = p / s
        elif abs(s - 1.0) > 1e-9:
            raise DomainError(f"probabilities sum to {s!r}, not 1")
        self.probs = p
        self.truncation_deficit = float(deficit)

    @classmethod
    def delta(cls, n: int, n_max: int) -> "CardinalityDistribution":
        if not 0 <= n <= n_max:
            raise DomainError(f"count {n} outside 0..{n_max}")
        p = np.zeros(n_max + 1)
        p[n] = 1.0
        return cls(p)

    @classmethod
    def poisson(cls, rate: float, n_max: int) -> "CardinalityDistribution":
        return cls(poisson_pmf(rate, n_max), normalize=True)

    @property
    def n_max(self) -> int:
        return self.probs.shape[0] - 1

    @property
    def mean(self) -> float:
        return float(np.arange(self.probs.shape[0]) @ self.probs)

    def __repr__(self) -> str:
        return f"CardinalityDistribution(n_max={self.n_max}, mean={self.mean:.3f})"


@dataclass
class BellCoefficients:
    """Per-parent successor pmf: pmf[i] = P(a parent leaves exactly i
    successors). `tail_mass` is the offspring probability lost to truncation
    at the vector length.
    """

    pmf: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self) -> None:
        self.pmf = np.asarray(self.pmf, dtype=float).reshape(-1)
        if self.pmf.size == 0:
            raise InvalidModelError("empty offspring coefficient vector")
        if not np.all(np.isfinite(self.pmf)) or self.pmf.min() < 0.0:
            raise InvalidModelError("offspring coefficients must be finite and nonnegative")
        self.tail_mass = float(self.tail_mass)

    @property
    def n_max(self) -> int:
        return self.pmf.shape[0] - 1

    @property
    def b(self) -> np.ndarray:
        """The paper's factorial-scaled coefficients b[i] = i! * pmf[i]."""
        return self.pmf * _factorials(self.n_max)

    def offspring_pmf(self) -> np.ndarray:
        return self.pmf


def poisson_pmf(rate: float, n_max: int) -> np.ndarray:
    """Poisson pmf on 0..n_max, unnormalized (mass beyond n_max is dropped)."""
    if not rate >= 0.0:
        raise DomainError(f"rate {rate} is negative or NaN")
    if rate > MAX_RATE:
        raise DomainError(f"rate {rate} exceeds {MAX_RATE:.1f}: exp(-rate) underflows")
    # p[n] = p[n-1] rate / n: no factorial, no exp of a large argument
    return np.multiply.accumulate(np.append(np.exp(-rate), rate / np.arange(1, n_max + 1)))


def bell_triangle(n: int, x) -> np.ndarray:
    """All partial Bell polynomial values B[m, j] for 0 <= j <= m <= n.

    x supplies x_1, x_2, ... ; entries beyond those needed by a cell are never
    read by that cell, so x is zero-padded to length n.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] < n:
        x = np.concatenate([x, np.zeros(n - x.shape[0])])
    C = _pascal(max(n - 1, 0))
    B = np.zeros((n + 1, n + 1))
    B[0, 0] = 1.0
    for m in range(1, n + 1):
        for j in range(1, m + 1):
            top = m - j + 1  # largest usable block size
            cx = C[m - 1, :top] * x[:top]
            B[m, j] = cx @ B[m - 1 : j - 2 if j >= 2 else None : -1, j - 1]
    return B


def partial_bell(n: int, j: int, x) -> float:
    """Partial Bell polynomial B_{n,j}(x_1, ..., x_{n-j+1})."""
    if n < 0 or j < 0 or j > n:
        raise DomainError(f"partial Bell polynomial undefined for (n={n}, j={j})")
    x = np.asarray(x, dtype=float).reshape(-1)
    if j >= 1 and x.shape[0] < n - j + 1:
        raise DomainError(
            f"B_({n},{j}) needs x_1..x_{n - j + 1}, got {x.shape[0]} values"
        )
    return float(bell_triangle(n, x)[n, j])


@lru_cache(maxsize=64)
def _binomial_table(N: int, x: float) -> np.ndarray:
    """Read-only B[j, n] = C(n, j) x^(n-j) for rows j = 0..N+1 and columns
    n = 0..N, 0 where j > n."""
    C = _pascal(N)
    jj, nn = np.ogrid[: N + 2, : N + 1]
    lag = np.clip(nn - jj, 0, N)
    B = np.where(nn >= jj, C[nn, np.minimum(jj, N)] * (x ** np.arange(N + 1))[lag], 0.0)
    B.flags.writeable = False
    return B


def _thinning(N: int, p: float, q: float) -> np.ndarray:
    """T[n, m] = C(m, n) p^n q^(m-n): n of m kept, each with chance p = 1 - q."""
    return _binomial_table(N, q)[: N + 1] * (p ** np.arange(N + 1))[:, None]


# The two matrices of the branching prediction depend only on the successor
# pmf, not on the prior, so they are reused across scans.
@lru_cache(maxsize=64)
def _predict_tables(q_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    q = np.frombuffer(q_bytes)
    N = q.shape[0] - 1
    q0 = float(q[0])
    # G[j, m] = P(j of m parents leave a nonempty brood)
    G = _thinning(N, 1.0 - q0, q0)
    # T[n, j] = [R^j]_n, R the pmf of a brood given it is nonempty
    r = np.append(0.0, q[1:]) / (1.0 - q0 if q0 < 1.0 else 1.0)
    T = np.zeros((N + 1, N + 1))
    T[0, 0] = 1.0
    for j in range(1, N + 1):
        T[:, j] = np.convolve(T[:, j - 1], r)[: N + 1]
    G.flags.writeable = T.flags.writeable = False
    return G, T


def predict_cardinality(
    rho: CardinalityDistribution, b: BellCoefficients
) -> CardinalityDistribution:
    """Push a count distribution through one branching step.

    Each of m i.i.d. parents leaves i successors with probability q_i; the
    predicted probability of n total successors is
    sum_m rho(m) sum_j C(m, j) q_0^(m-j) [Q^j]_n (see the module docstring).
    Output is truncated at the prior's n_max and renormalized; the truncated
    mass is reported as `truncation_deficit`.
    """
    N = rho.n_max
    q = np.pad(b.pmf[: N + 1], (0, max(0, N - b.n_max)))
    G, T = _predict_tables(q.tobytes())
    out = T @ (G @ rho.probs)
    total = float(np.cumsum(out)[-1])
    deficit = max(0.0, 1.0 - total)
    if deficit > 1e-9:
        log.debug("cardinality prediction truncated %.3e mass beyond n_max=%d", deficit, N)
    return CardinalityDistribution(out, normalize=True, deficit=deficit)


def pgf_compose_oracle(rho, offspring_pmf) -> CardinalityDistribution:
    """Same prediction via truncated power-series composition (oracle path).

    Computes sum_m rho(m) * q^(*m) with q the per-parent offspring pmf, i.e.
    the coefficients of the composed generating function, by repeated
    truncated convolution. Independent of the Bell-polynomial route.
    """
    N = rho.n_max
    q = np.asarray(offspring_pmf, dtype=float).reshape(-1)
    if q.shape[0] < N + 1:
        q = np.concatenate([q, np.zeros(N + 1 - q.shape[0])])
    else:
        q = q[: N + 1]
    out = np.zeros(N + 1)
    power = np.zeros(N + 1)
    power[0] = 1.0  # q^(*0)
    out += rho.probs[0] * power
    for m in range(1, N + 1):
        power = np.convolve(power, q)[: N + 1]
        out += rho.probs[m] * power
    total = float(np.cumsum(out)[-1])
    return CardinalityDistribution(out, normalize=True, deficit=max(0.0, 1.0 - total))


def map_estimate(rho: CardinalityDistribution) -> int:
    """Most probable count; exact ties resolve toward the smaller count."""
    return int(np.argmax(rho.probs))


def binomial_thin(rho: CardinalityDistribution, p: float) -> CardinalityDistribution:
    """Each of n individuals independently survives with probability p."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"survival probability {p} outside [0, 1]")
    p = float(p)
    return CardinalityDistribution(_thinning(rho.n_max, p, 1.0 - p) @ rho.probs, normalize=True)


def convolve_counts(rho: CardinalityDistribution, pmf) -> CardinalityDistribution:
    """Add an independent nonnegative count with the given pmf, truncated."""
    q = np.asarray(pmf, dtype=float).reshape(-1)
    if q.min() < 0.0 or not np.all(np.isfinite(q)):
        raise DomainError("pmf entries must be finite and nonnegative")
    out = np.convolve(rho.probs, q)[: rho.n_max + 1]
    total = float(np.cumsum(out)[-1])
    return CardinalityDistribution(out, normalize=True, deficit=max(0.0, 1.0 - total))


def count_update_tables(N: int, M: int, qd: float, u_c: float, s_w: float) -> tuple:
    """Tables over (order j <= min(M, N), count n) of the CPHD count update
    (Vo, Vo & Cantoni, IEEE TSP 55(7), 2007), with B the (N, qd) binomial
    table and W_j = u_c^(M-j) j! / s_w^j: C0[j] = W_j B[j], C1[j] = W_j (j+1)
    / s_w B[j+1] and Cm[j] = W_(j+1) B[j+1], 0 for j >= M; qd = 1 - p_d, u_c
    the scaled clutter count, s_w the intensity mass. Row j holds W_j / u_c^M
    (W_j if u_c = 0, where only W_M is nonzero) as a mantissa times 2^x[j],
    2^x[j+1] in Cm, so no degree over- or underflows."""
    K = min(M, N)
    B = _binomial_table(N, qd)
    j = np.arange(K + 2)
    # j! / (a s_w)^j, a = u_c or 1, by ratios (j + 1) / (a s_w): mantissas stay >= 2^-(K+1)
    (ma, ea), (mw, ew) = np.frexp(u_c if u_c > 0.0 else 1.0), np.frexp(s_w)
    r, re = np.frexp(j[1:] / (ma * mw))
    mant, x = np.frexp(np.cumprod(np.append(1.0, r)))
    x += np.append(0, np.cumsum(re)) - j * (ea + ew)
    mant = np.where((j == M) | (u_c > 0.0), mant, 0.0)
    C0 = mant[: K + 1, None] * B[: K + 1]
    C1 = (mant[: K + 1] * (j[1:] / s_w))[:, None] * B[1 : K + 2]
    return C0, C1, np.where(j[:-1] < M, mant[1:], 0.0)[:, None] * B[1 : K + 2], x
