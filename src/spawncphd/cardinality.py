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

`count_update` is the count side of the CPHD update (Vo, Vo & Cantoni, IEEE
TSP 55(7), 2007): elementary symmetric functions (ESF) e_j of the association
strengths contract with the prior through that table, beta[j] = sum_n C(n, j)
(1 - p_d)^(n-j) rho(n), and with degree weights W_j = u_c^(M-j) j! / s_w^j (u_c
the clutter count, s_w the intensity mass). All three are mantissas times
powers of two, the ESF with one power per degree; one shift 2^-c from the
largest term e_j W_j beta_j scales the counts, the miss ratio and each
detection's leave-one-out contraction (prefix and suffix tables, no deflation).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidModelError, NumericalError

log = logging.getLogger(__name__)

MAX_COUNT = 500  # largest n_max: the range the count oracles cover
MAX_RATE = -float(np.log(np.finfo(float).tiny))  # ~708.4: exp(-rate) stays normal


def _check_prob(p: float, name: str) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise InvalidModelError(f"{name} = {p} outside [0, 1]")
    return p


def _check_rate(r: float, name: str) -> float:
    r = float(r)
    if not (math.isfinite(r) and r >= 0.0):
        raise InvalidModelError(f"{name} = {r} must be a finite nonnegative rate")
    return r


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
    if not (total := float(np.cumsum(out)[-1])) > 0.0:
        raise NumericalError(f"the predicted count leaves no mass at or below n_max = {N}")
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
    p = _check_prob(p, "survival probability")
    return CardinalityDistribution(_thinning(rho.n_max, p, 1.0 - p) @ rho.probs, normalize=True)


def convolve_counts(rho: CardinalityDistribution, pmf) -> CardinalityDistribution:
    """Add an independent nonnegative count with the given pmf, truncated."""
    q = np.asarray(pmf, dtype=float).reshape(-1)
    if q.min() < 0.0 or not np.all(np.isfinite(q)):
        raise DomainError("pmf entries must be finite and nonnegative")
    out = np.convolve(rho.probs, q)[: rho.n_max + 1]
    total = float(np.cumsum(out)[-1])
    return CardinalityDistribution(out, normalize=True, deficit=max(0.0, 1.0 - total))


def _degree_weights(K: int, M: int, u_c: float, s_w: float) -> tuple[np.ndarray, np.ndarray]:
    """The count update's degree weights W_j = u_c^(M-j) j! / s_w^j for j =
    0..K+1, divided by u_c^M (W_j itself if u_c = 0, where only W_M is
    nonzero), as mantissas times 2^x[j], so no degree over- or underflows."""
    j = np.arange(K + 2)
    # j! / (a s_w)^j, a = u_c or 1, by ratios (j + 1) / (a s_w): mantissas stay >= 2^-(K+1)
    (ma, ea), (mw, ew) = np.frexp(u_c if u_c > 0.0 else 1.0), np.frexp(s_w)
    r, re = np.frexp(j[1:] / (ma * mw))
    mant, x = np.frexp(np.cumprod(np.append(1.0, r)))
    x += np.append(0, np.cumsum(re)) - j * (ea + ew)
    return np.where((j == M) | (u_c > 0.0), mant, 0.0), x


def _prefix_esf(u: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Elementary symmetric functions of prefixes, for each sequence in u,
    with one power of two per degree: entry [..., i, k] of the returned
    (..., M + 1, K + 1) table is e_k(u[..., :i]) 2^-y[k], u of shape (..., M).

    Degree by degree, e_k(u[:i+1]) = e_k(u[:i]) + u[i] e_{k-1}(u[:i]) is one
    left-to-right accumulate that rounds as the recursion does. For u >= 0,
    u is scaled to its largest entry near 1, and a degree whose largest last
    entry (its column's largest) leaves [2^-200, 2^200] is scaled back near
    1, so none overflows while the next is formed. A zero degree ends it.
    """
    t = math.frexp(float(u.max(initial=0.0)))[1]
    u = np.ldexp(u, -t)
    T = np.zeros((K + 1,) + u.shape[:-1] + (u.shape[-1] + 1,))
    T[0] = 1.0
    last = T[..., -1].reshape(K + 1, -1)  # a view: each degree's last entries
    y = t * np.arange(K + 1)
    for k in range(1, K + 1):
        np.multiply(u, T[k - 1, ..., :-1], out=T[k, ..., 1:])
        np.add.accumulate(T[k], axis=-1, out=T[k])
        top = max(last[k].tolist())
        if top == 0.0 and not T[k].any():
            break  # so is every later one
        if not 2.0**-200 <= top <= 2.0**200:
            e = max(math.frexp(top)[1], -1000)  # a subnormal top is scaled to 2^-74 or more
            T[k] *= 2.0**-e
            y[k:] += e  # later degrees are formed from this one
    return np.moveaxis(T, 0, -1).copy(), y


def count_update(
    rho: CardinalityDistribution, assoc: np.ndarray, lam_c: float, s_w: float, qd: float
) -> tuple[CardinalityDistribution, float, np.ndarray]:
    """The count side of the CPHD update (see the module docstring): `assoc`
    holds the M association strengths, `lam_c` the clutter count, `s_w` the
    intensity mass, `qd` = 1 - p_d. Returns the posterior counts, the miss
    ratio r_miss (a missed component weighs r_miss qd w_j) and g (M,):
    detection i's weights are w_j N(z_i; H m_j, S_j) p_d V g_i. Raises
    `NumericalError` for a zero likelihood, a likelihood resting on prior
    count mass below float64's normal range, or strengths spanning so many
    decades that the leave-one-out contraction overflows."""
    M, N = assoc.shape[0], rho.n_max
    K = min(M, N)
    s_w = s_w if s_w > 0.0 else 1.0  # massless: every u_i = 0, only degree 0 (free of s_w) counts
    B = _binomial_table(N, qd)
    beta = B[: K + 2] @ rho.probs  # beta[j] = sum_n C(n, j) qd^(n-j) rho(n)
    mb, eb = np.frexp(beta)
    mant, x = _degree_weights(K, M, lam_c, s_w)
    (PR, SF), y = _prefix_esf(np.stack([assoc, assoc[::-1]]), K)
    # The normalizer's terms e_j W_j beta_j as mantissas times powers of two:
    # its largest term is scaled near 1 by 2^-c.
    ew, xw = PR[M] * mant[:-1], x[:-1] + y  # e_j W_j = ew[j] 2^xw[j]
    t = ew * mb[:-1]
    te = np.frexp(t)[1] + xw + eb[:-1]
    c = te.max(where=t > 0.0, initial=te.min())  # every term may lie far below 1
    # e_k(assoc without assoc_i) = sum_a e_a(prefix) e_{k-a}(suffix), so the
    # leave-one-out contraction is one GEMM of the prefix table with
    # H[a, b] = h[a + b] 2^(y_a + y_b), h[k] = W_{k+1} beta_{k+1} 2^-c, then a
    # row-wise product with the suffix table. h is zero past degree
    # min(K, M - 1, Z), Z the nonzero strengths, as every such ESF is. No
    # polynomial is deflated, and every term is nonnegative.
    L = min(K + 1, M, np.count_nonzero(assoc) + 1)
    hm, hx = np.zeros(2 * K + 1), np.zeros(2 * K + 1, dtype=np.int64)
    hm[:L], hx[:L] = mant[1 : L + 1] * mb[1 : L + 1], x[1 : L + 1] + eb[1 : L + 1] - c
    deg = np.add.outer(np.arange(K + 1), np.arange(K + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        H = np.ldexp(hm[deg], hx[deg] + np.add.outer(y, y))
        a = np.where(mb[:-1] > 0.0, np.ldexp(ew, xw - c), 0.0)  # no prior mass at or above j: no term
        ups0 = a @ B[: K + 1]
        den = float(ups0 @ rho.probs)
        loo = ((PR[:M] @ H) * SF[::-1][1:]).sum(axis=1)
    if not math.isfinite(den):
        raise NumericalError(
            "the scan's likelihood rests on prior count mass below float64's normal range"
        )
    if not den > 0.0:
        raise NumericalError("the scan has zero likelihood under the predicted counts")
    if not np.isfinite(loo).all():
        raise NumericalError(f"{M} association strengths span too many decades for float64")
    r_miss = float(a @ (np.arange(1, K + 2) * beta[1:])) / (s_w * den)
    return CardinalityDistribution(ups0 * rho.probs, normalize=True), r_miss, loo / den
