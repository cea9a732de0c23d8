"""Count-aware Gaussian-mixture filter recursion.

State is a `FilterState`: a Gaussian-mixture intensity over target states plus
an explicit distribution over the target count. Two prediction flavors exist,
`predict_spawning` (survivors branch into daughters at their parents'
locations) and `predict_birth` (independent spontaneous appearances), sharing
the same `update` step.

The update propagates the count distribution jointly with the intensity:
elementary symmetric functions (ESF) of the per-measurement association
strengths contract with `cardinality.count_update_tables`: rows of the
binomial table C(n, j) (1 - p_d)^(n-j) that also drives both predictions (the
paper's Bell factorials cancel exactly), times degree weights
u_c^(M-j) j! / s_w^j held as mantissas and powers of two. A detection's
weight needs one contraction of its leave-one-out ESF, which prefix and
suffix tables give as one GEMM with a Hankel matrix, without the
cancellation of polynomial deflation (see `_esf_leave_one_out`). All per-measurement and per-component work is
batched over contiguous (component, measurement) tables. Innovations and the
Mahalanobis form go in blocks of whole components, at most `_PAIR_BLOCK`
pairs each, one measurement coordinate at a time (the bits of numpy's
trailing-axis sum for k <= 7 coordinates). What stays per pair is the
likelihood table, which becomes the detection weights in place: 8 bytes a
pair, released before the posterior is reduced. The exact and the reduced
posterior share one assembly path: the kept pairs, `np.nonzero` of the
transposed table against a threshold (0 for the exact posterior), come
measurement-major, as the posterior lists them, and go into posterior arrays
allocated once: 168 bytes a kept pair for d = 4. The association
strengths and the clutter count are divided by the largest of them (or 1);
the ESF and the contraction coefficients each by one power of two, which the
detection weights undo exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cardinality import (
    CardinalityDistribution,
    _binomial_table,
    binomial_thin,
    convolve_counts,
    count_update_tables,
    map_estimate,
    poisson_pmf,
    predict_cardinality,
)
from .errors import ConfigError, DomainError, InvalidModelError, NumericalError
from .gaussian import (
    GaussianMixture,
    ReductionConfig,
    _require_psd,
    reduce_mixture,
    transform_mixture,
)
from .spawning import SpawnModel, _check_prob, _check_rate, bell_coefficients, spawn_intensity

log = logging.getLogger(__name__)

DEFAULT_REDUCTION = ReductionConfig(
    trunc_threshold=1e-5, merge_threshold=4.0, max_components=100
)

# Relative mass/mean disagreement beyond which the state is flagged.
_CONSISTENCY_TOL = 0.05
# At most this many (component, measurement) innovations and quadratic-form
# terms are formed at once; a block holds whole components. On `dense_clutter`
# (about 145 components x 2,100 measurements) it keeps the update's per-pair
# memory at the 8 bytes of the likelihood table.
_PAIR_BLOCK = 1 << 15


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, used as the sensor field of view."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self) -> None:
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise InvalidModelError("rectangle bounds must satisfy min < max")

    @property
    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return (
            (p[..., 0] >= self.xmin)
            & (p[..., 0] <= self.xmax)
            & (p[..., 1] >= self.ymin)
            & (p[..., 1] <= self.ymax)
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(
            [self.xmin, self.ymin], [self.xmax, self.ymax], size=(n, 2)
        )


@dataclass(eq=False)
class MotionModel:
    """Linear-Gaussian motion: x' = F x + noise(Q), survival probability p_s."""

    F: np.ndarray
    Q: np.ndarray
    p_s: float

    def __post_init__(self) -> None:
        self.F = np.asarray(self.F, dtype=float)
        if self.F.ndim != 2 or self.F.shape[0] != self.F.shape[1]:
            raise InvalidModelError(f"transition matrix shape {self.F.shape} is not square")
        self.Q = _require_psd(np.asarray(self.Q, dtype=float), "process noise covariance")
        if self.Q.shape != self.F.shape:
            raise InvalidModelError("process noise shape does not match transition matrix")
        self.p_s = _check_prob(self.p_s, "survival probability")

    @classmethod
    def constant_velocity(cls, dt: float, accel_std: float, p_s: float) -> "MotionModel":
        """Planar constant-velocity model, state [x, y, vx, vy]."""
        dt = float(dt)
        F = np.eye(4)
        F[0, 2] = F[1, 3] = dt
        q = float(accel_std) ** 2
        a, b, c = q * dt**4 / 4.0, q * dt**3 / 2.0, q * dt**2
        Q = np.array(
            [
                [a, 0.0, b, 0.0],
                [0.0, a, 0.0, b],
                [b, 0.0, c, 0.0],
                [0.0, b, 0.0, c],
            ]
        )
        return cls(F, Q, p_s)


@dataclass(eq=False)
class SensorModel:
    """Linear position sensor with uniform clutter over a rectangular view.

    z = H x + noise(R); each target is seen with probability p_d; clutter is
    Poisson with mean clutter_rate per scan, uniform over fov.
    """

    H: np.ndarray
    R: np.ndarray
    p_d: float
    clutter_rate: float
    fov: Rect

    def __post_init__(self) -> None:
        self.H = np.asarray(self.H, dtype=float)
        if self.H.ndim != 2:
            raise InvalidModelError(f"measurement matrix shape {self.H.shape} invalid")
        self.R = _require_psd(np.asarray(self.R, dtype=float), "measurement noise covariance")
        if self.R.shape != (self.H.shape[0], self.H.shape[0]):
            raise InvalidModelError("measurement noise shape does not match H")
        self.p_d = _check_prob(self.p_d, "detection probability")
        self.clutter_rate = _check_rate(self.clutter_rate, "clutter rate")

    @classmethod
    def position_sensor(
        cls, noise_std: float, p_d: float, clutter_rate: float, fov: Rect
    ) -> "SensorModel":
        H = np.zeros((2, 4))
        H[0, 0] = H[1, 1] = 1.0
        R = float(noise_std) ** 2 * np.eye(2)
        return cls(H, R, p_d, clutter_rate, fov)

    @property
    def clutter_density(self) -> float:
        return self.clutter_rate / self.fov.area


@dataclass(eq=False)
class BirthModel:
    """Spontaneous appearances: Poisson count `rate`, states from `mixture`."""

    rate: float
    mixture: GaussianMixture

    def __post_init__(self) -> None:
        self.rate = _check_rate(self.rate, "birth rate")
        if self.rate > 0.0:
            if len(self.mixture) == 0:
                raise InvalidModelError("positive birth rate needs a nonempty state mixture")
            total = self.mixture.total_weight
            if abs(total - 1.0) > 1e-9:
                raise InvalidModelError(f"birth mixture weights sum to {total!r}, not 1")


@dataclass(eq=False)
class FilterState:
    """Intensity mixture plus count distribution."""

    intensity: GaussianMixture
    cardinality: CardinalityDistribution

    def consistency_gap(self) -> float:
        """Relative gap between intensity mass and expected count."""
        mean = self.cardinality.mean
        return abs(self.intensity.total_weight - mean) / max(mean, 1.0)


def _checked(state: FilterState) -> FilterState:
    gap = state.consistency_gap()
    if gap > _CONSISTENCY_TOL:
        log.warning(
            "intensity/count consistency gap %.1f%% (mass %.4f vs expected count %.4f)",
            100.0 * gap,
            state.intensity.total_weight,
            state.cardinality.mean,
        )
    return state


def predict_spawning(
    state: FilterState, motion: MotionModel, spawn: SpawnModel
) -> FilterState:
    """One prediction step where every target survives and/or spawns.

    Intensity: survivors (weights scaled by p_s, pushed through the motion
    model) followed by the spawned components anchored at the un-propagated
    parent states. Counts: branching prediction with the model's per-parent
    successor coefficients.
    """
    d = np.zeros(motion.F.shape[0])
    survivors = transform_mixture(state.intensity, motion.F, d, motion.Q, motion.p_s)
    spawned = spawn_intensity(state.intensity, spawn)
    intensity = GaussianMixture.concat([survivors, spawned])
    b = bell_coefficients(spawn, motion.p_s, state.cardinality.n_max)
    return FilterState(intensity, predict_cardinality(state.cardinality, b))


def predict_birth(
    state: FilterState, motion: MotionModel, birth: BirthModel
) -> FilterState:
    """One prediction step with survival plus spontaneous births.

    Counts: binomial survival thinning followed by convolution with the
    Poisson birth count (truncated at n_max).
    """
    d = np.zeros(motion.F.shape[0])
    survivors = transform_mixture(state.intensity, motion.F, d, motion.Q, motion.p_s)
    born = GaussianMixture(birth.rate * birth.mixture.w, birth.mixture.m, birth.mixture.P)
    intensity = GaussianMixture.concat([survivors, born])
    rho = binomial_thin(state.cardinality, motion.p_s)
    rho = convolve_counts(rho, poisson_pmf(birth.rate, rho.n_max))
    return FilterState(intensity, rho)


def _as_scan_array(scan, k: int) -> np.ndarray:
    z = getattr(scan, "z", scan)
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        return z.reshape(0, k)
    if z.ndim != 2 or z.shape[1] != k:
        raise DomainError(f"scan shape {z.shape} is not (M, {k})")
    if not np.all(np.isfinite(z)):
        raise DomainError("scan contains non-finite values")
    return z


def _innovation_stats(mix: GaussianMixture, H: np.ndarray, R: np.ndarray):
    """Batched innovation covariance, gain, updated covariance, and the
    Gaussian normalizers needed for measurement densities. One batched Cholesky
    factor L decides that every S is positive definite; det S = (prod diag L)^2."""
    S = np.matmul(np.matmul(H, mix.P), H.T) + R
    S = 0.5 * (S + np.transpose(S, (0, 2, 1)))
    k = H.shape[0]
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:  # failure path only: name the S with the least eigenvalue
        j = int(np.argmin(np.linalg.eigvalsh(S)[:, 0]))
        raise NumericalError(f"singular innovation covariance for component {j}") from None
    det = L.diagonal(axis1=1, axis2=2).prod(axis=1) ** 2
    if np.any(det <= 0.0):  # underflow
        j = int(np.argmax(det <= 0.0))
        raise NumericalError(f"singular innovation covariance for component {j}")
    Sinv = np.linalg.inv(S)
    K = mix.P @ H.T @ Sinv
    P_upd = mix.P - K @ S @ np.transpose(K, (0, 2, 1))
    P_upd = 0.5 * (P_upd + np.transpose(P_upd, (0, 2, 1)))
    norm = (2.0 * np.pi) ** (k / 2.0) * np.sqrt(det)
    return Sinv, K, P_upd, norm


def _prefix_esf(u: np.ndarray, K: int) -> np.ndarray:
    """Elementary symmetric functions of prefixes, for each sequence in u.

    u is (..., M); entry [..., i, k] of the (..., M + 1, K + 1) result is
    e_k(u[..., :i]). Built one degree at a time: e_k(u[:i+1]) = e_k(u[:i]) +
    u[i] e_{k-1}(u[:i]) is a running sum over i, so each degree is one
    left-to-right accumulate that rounds exactly as the recursion does.
    """
    T = np.zeros((K + 1,) + u.shape[:-1] + (u.shape[-1] + 1,))
    T[0] = 1.0
    for k in range(1, K + 1):
        np.multiply(u, T[k - 1, ..., :-1], out=T[k, ..., 1:])
        np.add.accumulate(T[k], axis=-1, out=T[k])
    return np.moveaxis(T, 0, -1).copy()


def _esf_leave_one_out(u: np.ndarray, K: int, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e_0..e_K of all of u, and sum_k c_k e_k(u without u_i) for every i.

    e_k(u without u_i) = sum_a e_a(u[:i]) e_{k-a}(u[i+1:]), so the contraction
    with c is sum_a sum_b PR[i, a] c[a + b] SF[i + 1, b]: one GEMM of the
    prefix table with the Hankel matrix c[a + b] (zero past degree K), then a
    row-wise dot with the suffix table. No leave-one-out table is formed, and
    no polynomial is deflated, which would cancel when the entries vary by
    orders of magnitude; for nonnegative u and c every term is nonnegative.
    Returns (full (K+1,), contracted (M,)).
    """
    M = u.shape[0]
    PR, SF = _prefix_esf(np.stack([u, u[::-1]]), K)
    t = np.arange(K + 1)
    deg = t[:, None] + t[None, :]
    Hc = np.where(deg <= K, c[np.minimum(deg, K)], 0.0)
    return PR[M].copy(), ((PR[:M] @ Hc) * SF[::-1][1:]).sum(axis=1)


def update(
    state: FilterState,
    scan,
    sensor: SensorModel,
    reduction: ReductionConfig | None = DEFAULT_REDUCTION,
) -> FilterState:
    """Measurement update of intensity and count distribution.

    `scan` is an (M, k) array of measurements (or any object with a `.z`
    attribute holding one). `reduction=None` keeps the exact posterior
    mixture: every weight, all >= 0, where a reduction first keeps those >=
    its trunc_threshold, through the same assembly. The quadratic forms
    round as numpy's trailing-axis sum does for k <= 7 measurement
    coordinates (pairwise from 8); every configured sensor has k = 2. A
    `NumericalError` is raised if an innovation covariance H P H^T + R is not
    positive definite, the strengths' ESF (e_K <= C(M, K)) overflow float64
    or the scan has zero likelihood under the predicted counts.

    Memory: innovations are formed in blocks of whole components, at most
    `_PAIR_BLOCK` pairs where a component allows, and the means of kept
    detections in blocks of as many pairs. The update keeps 8 bytes per
    (component, measurement) pair, the likelihood table that becomes the
    detection weights, and releases it before `reduce_mixture` runs. A kept
    pair costs its posterior row, 168 bytes for d = 4, allocated once, plus
    16 bytes of indices while the rows are filled: with `reduction=None`
    about 200 bytes a pair in all.
    """
    z = _as_scan_array(scan, sensor.H.shape[0])
    M = z.shape[0]
    p_d, lam_c = sensor.p_d, sensor.clutter_rate
    if lam_c == 0.0 and M > 0 and p_d < 1.0:
        raise ConfigError(
            "zero clutter rate with a nonempty scan requires certain detection"
        )

    rho = state.cardinality.probs
    N = state.cardinality.n_max
    mix = state.intensity
    J = len(mix)
    s_w = mix.total_weight
    qd = 1.0 - p_d
    V = sensor.fov.area

    if J == 0 or s_w <= 0.0:
        # No spatial mass: every measurement must be clutter.
        if M > 0 and lam_c == 0.0:
            raise NumericalError("measurements received but neither targets nor clutter possible")
        vals = _binomial_table(N, qd)[0] * rho  # qd^n
        if not np.cumsum(vals)[-1] > 0.0:
            raise NumericalError("the scan has zero likelihood under the predicted counts")
        post = FilterState(
            GaussianMixture.empty(mix.dim if J else sensor.H.shape[1]),
            CardinalityDistribution(vals, normalize=True),
        )
        return _checked(post)

    # Per-component innovation statistics and per-measurement densities. The
    # innovations and the quadratic form (nu Sinv) . nu go one measurement
    # coordinate at a time, left to right, in blocks of whole components that
    # each fill their own rows of the (J, M) table q.
    Sinv, Kg, P_upd, norm = _innovation_stats(mix, sensor.H, sensor.R)
    Hm = mix.m @ sensor.H.T
    k = sensor.H.shape[0]
    q = np.empty((J, M))  # quadratic form, then likelihood
    step = max(1, _PAIR_BLOCK // max(M, 1))
    for a in range(0, J, step):
        rows = slice(a, a + step)
        nu = np.empty((min(step, J - a), M, k))
        for c in range(k):
            np.subtract(z[None, :, c], Hm[rows, c, None], out=nu[:, :, c])
        X = np.matmul(nu, Sinv[rows])
        np.multiply(X[..., 0], nu[..., 0], out=q[rows])
        for c in range(1, k):
            q[rows] += X[..., c] * nu[..., c]
    del nu, X
    q *= -0.5
    np.exp(q, out=q)
    q /= norm[:, None]
    assoc = p_d * (mix.w @ q) * V  # association strength per measurement

    s = 1.0 / max(lam_c, float(assoc.max()) if M else 0.0, 1.0)
    u = s * assoc
    u_c = s * lam_c

    C0, C1, Cm, x = count_update_tables(N, M, qd, u_c, s_w)
    cm = Cm @ rho  # its largest term 2^x[j+1] cm[j] is scaled near 1 by 2^-cx
    cx = np.max(np.frexp(cm)[1] + x[1:], where=cm > 0.0, initial=0)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        e_full, loo_c = _esf_leave_one_out(u, min(M, N), np.ldexp(cm, x[1:] - cx))
    if not (np.isfinite(e_full).all() and np.isfinite(loo_c).all()):
        raise NumericalError(
            f"ESF of {M} association strengths overflow float64 (degree <= {min(M, N)})"
        )
    t = e_full * np.diagonal(C0)  # the terms e_j W_j: C0[j, j] is W_j's mantissa
    c = np.max(np.frexp(t)[1] + x[:-1], where=t > 0.0, initial=0)
    e_full = np.ldexp(e_full, x[:-1] - c)
    ups0 = e_full @ C0  # (N+1,)
    ups1 = e_full @ C1

    den = float(ups0 @ rho)
    if not den > 0.0:
        raise NumericalError("the scan has zero likelihood under the predicted counts")
    rho_new = CardinalityDistribution(ups0 * rho, normalize=True)

    r_miss = float(ups1 @ rho) / den
    w_miss = r_miss * qd * mix.w

    # One assembly path: the exact posterior keeps every weight, all >= 0.
    thr = 0.0 if reduction is None else reduction.trunc_threshold
    keep_m = w_miss >= thr
    if p_d > 0.0:  # p_d = 0: no detection rows, not even exact zero-weight ones
        # Detection weights in place: w_j q_ji, times s p_d V, times loo_c[i] / den, unshifted.
        q *= mix.w[:, None]
        q *= s * p_d * V
        dm, de = np.frexp(den)
        q *= np.ldexp(loo_c / dm, cx - c - de)
        i_meas, j_comp = np.nonzero(q.T >= thr)  # measurement-major, as listed
    else:
        i_meas = j_comp = np.empty(0, dtype=np.intp)

    # The posterior: missed detections, then the kept detections.
    nm, d = np.count_nonzero(keep_m), mix.dim
    w_post = np.empty(nm + j_comp.shape[0])
    m_post = np.empty((w_post.shape[0], d))
    P_post = np.empty((w_post.shape[0], d, d))
    w_post[:nm], m_post[:nm], P_post[:nm] = w_miss[keep_m], mix.m[keep_m], mix.P[keep_m]
    w_post[nm:] = q[j_comp, i_meas]
    del q  # no per-pair table is held during the reduction
    np.take(P_upd, j_comp, axis=0, out=P_post[nm:], mode="clip")  # unbuffered
    pairs = step * max(M, 1)  # means m_j + K_j (z_i - H m_j), a block of q at once
    for a in range(0, j_comp.shape[0], pairs):
        i, j = i_meas[a : a + pairs], j_comp[a : a + pairs]
        gain = np.matmul(Kg[j], (z[i] - Hm[j])[:, :, None])[:, :, 0]
        np.add(mix.m[j], gain, out=m_post[nm + a : nm + a + j.shape[0]])
    del i_meas, j_comp
    posterior = GaussianMixture(w_post, m_post, P_post)
    if reduction is not None:
        posterior = reduce_mixture(posterior, reduction)
    return _checked(FilterState(posterior, rho_new))


def extract_estimates(state: FilterState) -> tuple[int, np.ndarray]:
    """Most probable target count and the heaviest component means.

    Returns (count, means); means has min(count, components) rows ordered by
    descending weight (ties by component index).
    """
    n = map_estimate(state.cardinality)
    mix = state.intensity
    return n, mix.m[np.argsort(-mix.w, kind="stable")[:n]]
