"""Distributions over target counts and their prediction under spawning.

The central operation is `predict_cardinality`: it pushes a count distribution
through one time step in which every parent independently leaves behind a
random number of successors (survivor plus spawned daughters), using partial
Bell polynomials of the factorial-scaled offspring coefficients b_i. The
slower `pgf_compose_oracle` computes the same distribution by truncated
power-series composition and exists as an independent correctness check.

No other module scales by factorials: `BellCoefficients.from_pmf` scales an
offspring pmf, and one cached table n!/(n-j)! x^(n-j) serves the branching
prediction (x = b_0) and the CPHD count update (`count_update_tables`,
x = 1 - p_d). Counts stop at `MAX_COUNT`, since 171! overflows float64.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidModelError, NumericalError

log = logging.getLogger(__name__)

MAX_COUNT = 170  # 171! overflows float64


def _factorials(n: int) -> np.ndarray:
    if n > MAX_COUNT:
        raise DomainError(f"n_max = {n} exceeds {MAX_COUNT}: {n}! overflows float64")
    out = np.ones(n + 1)
    if n >= 1:
        out[1:] = np.cumprod(np.arange(1, n + 1, dtype=float))
    return out


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
    """Factorial-scaled per-parent offspring coefficients.

    b[i] = i! * P(a parent leaves exactly i successors); `tail_mass` is the
    offspring probability lost to truncation at the vector length.
    """

    b: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self) -> None:
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        if self.b.size == 0:
            raise InvalidModelError("empty offspring coefficient vector")
        if not np.all(np.isfinite(self.b)) or self.b.min() < 0.0:
            raise InvalidModelError("offspring coefficients must be finite and nonnegative")
        self.tail_mass = float(self.tail_mass)

    @property
    def n_max(self) -> int:
        return self.b.shape[0] - 1

    @classmethod
    def from_pmf(cls, pmf: np.ndarray) -> "BellCoefficients":
        """b[i] = i! * pmf[i]; the mass pmf lacks is the truncated tail."""
        tail = max(0.0, 1.0 - float(np.cumsum(pmf)[-1]))
        return cls(pmf * _factorials(pmf.shape[0] - 1), tail_mass=tail)

    def offspring_pmf(self) -> np.ndarray:
        return self.b / _factorials(self.n_max)


def poisson_pmf(rate: float, n_max: int) -> np.ndarray:
    """Poisson pmf on 0..n_max, unnormalized (mass beyond n_max is dropped)."""
    if rate < 0.0:
        raise DomainError(f"negative rate {rate}")
    if rate == 0.0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    n = np.arange(n_max + 1, dtype=float)
    return np.exp(-rate + n * np.log(rate) - np.log(_factorials(n_max)))


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
def _falling_table(N: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only F[j, n] = n!/(n-j)! and X[j, n] = x^(n-j), rows j = 0..N+1 and
    columns n = 0..N, both 0 where j > n."""
    fact = _factorials(N)
    jj, nn = np.ogrid[: N + 2, : N + 1]
    valid = jj <= nn
    lag = np.clip(nn - jj, 0, N)
    F = np.where(valid, fact[nn] / fact[lag], 0.0)
    X = np.where(valid, (x ** np.arange(N + 1))[lag], 0.0)
    F.flags.writeable = X.flags.writeable = False
    return F, X


# The two matrices of the branching prediction depend only on the offspring
# coefficients, not on the prior, so they are reused across scans.
@lru_cache(maxsize=64)
def _predict_tables(b_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    bv = np.frombuffer(b_bytes)
    N = bv.shape[0] - 1
    F, X = _falling_table(N, float(bv[0]))
    # G[j, m] = m!/(m-j)! * b0^(m-j) for m >= j, so A = G @ rho
    G = F[: N + 1] * X[: N + 1]
    # lower-triangular Bell values scaled so out = T @ A directly
    T = bell_triangle(N, bv[1:]) / _factorials(N)[:, None]
    G.flags.writeable = T.flags.writeable = False
    return G, T


def predict_cardinality(
    rho: CardinalityDistribution, b: BellCoefficients
) -> CardinalityDistribution:
    """Push a count distribution through one branching step.

    Each of m i.i.d. parents leaves i successors with probability b_i / i!;
    the predicted probability of n total successors combines partial Bell
    polynomials of (b_1, .., b_n) with falling-factorial sums over the prior.
    Output is truncated at the prior's n_max and renormalized; the truncated
    mass is reported as `truncation_deficit`.
    """
    N = rho.n_max
    bv = b.b
    if bv.shape[0] < N + 1:
        bv = np.concatenate([bv, np.zeros(N + 1 - bv.shape[0])])
    else:
        bv = bv[: N + 1]
    G, T = _predict_tables(bv.tobytes())
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


@lru_cache(maxsize=64)
def _thin_table(N: int, p: float) -> np.ndarray:
    C = _pascal(N)
    nn, mm = np.ogrid[: N + 1, : N + 1]
    pn = p ** np.arange(N + 1)
    qn = (1.0 - p) ** np.arange(N + 1)
    Th = np.where(mm >= nn, C[mm, nn] * qn[np.clip(mm - nn, 0, N)], 0.0)
    Th *= pn[:, None]
    Th.flags.writeable = False
    return Th


def binomial_thin(rho: CardinalityDistribution, p: float) -> CardinalityDistribution:
    """Each of n individuals independently survives with probability p."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"survival probability {p} outside [0, 1]")
    return CardinalityDistribution(_thin_table(rho.n_max, float(p)) @ rho.probs, normalize=True)


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
    (Vo, Vo & Cantoni, IEEE TSP 55(7), 2007), with F, X the (N, qd) table:
    C0[j] = u_c^(M-j) F[j] X[j] / s_w^j, C1[j] = u_c^(M-j) F[j+1] X[j+1] /
    s_w^(j+1), and Cm is C1 with u_c^(M-1-j) in front, 0 for j >= M. M is the
    measurement count, qd = 1 - p_d, u_c the scaled clutter count and s_w the
    intensity mass."""
    K = min(M, N)
    F, X = _falling_table(N, qd)
    jj = np.arange(K + 1)[:, None]
    invw_pow = (1.0 / s_w) ** np.arange(K + 2)
    C0 = u_c ** (M - jj) * F[: K + 1] * X[: K + 1] * invw_pow[jj]
    F1, X1 = F[1 : K + 2], X[1 : K + 2]
    C1 = u_c ** (M - jj) * F1 * X1 * invw_pow[jj + 1]
    Cm = np.where(jj <= M - 1, u_c ** np.clip(M - 1 - jj, 0, None), 0.0) * F1 * X1
    Cm *= invw_pow[jj + 1]
    return C0, C1, Cm
