"""Count-aware Gaussian-mixture filter recursion.

State is a `FilterState`: a Gaussian-mixture intensity over target states plus
an explicit distribution over the target count. Two prediction flavors exist,
`predict_spawning` (survivors branch into daughters at their parents'
locations) and `predict_birth` (independent spontaneous appearances), sharing
the same `update` step.

The update propagates the count distribution jointly with the intensity:
elementary symmetric functions (ESF) of the per-measurement association
strengths contract with `cardinality.count_update_tables`. A detection's
weight needs one contraction of its leave-one-out ESF, which prefix and
suffix tables give as one GEMM with a Hankel matrix, without the
cancellation of polynomial deflation (see `_esf_leave_one_out`). All per-measurement and per-component work is
batched over contiguous (component, measurement) tables: innovations are
filled one measurement coordinate at a time, the Mahalanobis form is summed
coordinate by coordinate (the bits of numpy's trailing-axis sum for k <= 7
coordinates), and detection weights are built measurement-major, the order
the posterior lists them in. Internally every association strength and the
expected clutter count are rescaled by a common positive factor chosen to
keep the polynomial terms in floating range. The posterior is provably
invariant to that factor, which `likelihood_scale` exposes for testing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cardinality import (
    CardinalityDistribution,
    _falling_table,
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
    if len(birth.mixture) > 0:
        born = GaussianMixture(birth.rate * birth.mixture.w, birth.mixture.m, birth.mixture.P)
        intensity = GaussianMixture.concat([survivors, born])
    else:
        intensity = survivors
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
    Gaussian normalizers needed for measurement densities."""
    S = np.matmul(np.matmul(H, mix.P), H.T) + R
    S = 0.5 * (S + np.transpose(S, (0, 2, 1)))
    k = H.shape[0]
    if k == 2:
        a, b, c = S[:, 0, 0], S[:, 0, 1], S[:, 1, 1]
        det = a * c - b * b
        if np.any(det <= 0.0) or np.any(a <= 0.0):
            j = int(np.argmax((det <= 0.0) | (a <= 0.0)))
            raise NumericalError(f"singular innovation covariance for component {j}")
        Sinv = np.empty_like(S)
        Sinv[:, 0, 0] = c
        Sinv[:, 1, 1] = a
        Sinv[:, 0, 1] = Sinv[:, 1, 0] = -b
        Sinv /= det[:, None, None]
    else:
        det = np.linalg.det(S)
        if np.any(det <= 0.0):
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
    return PR[M], ((PR[:M] @ Hc) * SF[::-1][1:]).sum(axis=1)


def update(
    state: FilterState,
    scan,
    sensor: SensorModel,
    reduction: ReductionConfig | None = DEFAULT_REDUCTION,
    likelihood_scale: float | None = None,
) -> FilterState:
    """Measurement update of intensity and count distribution.

    `scan` is an (M, k) array of measurements (or any object with a `.z`
    attribute holding one). `reduction=None` keeps the exact posterior
    mixture. `likelihood_scale` overrides the internal rescaling factor; any
    positive value yields the same posterior up to rounding. The quadratic
    forms round as numpy's trailing-axis sum does for k <= 7 measurement
    coordinates (pairwise from 8); every configured sensor has k = 2.
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

    if likelihood_scale is not None:
        s = float(likelihood_scale)
        if not s > 0.0:
            raise DomainError(f"likelihood scale {s} must be positive")
    else:
        s = None  # resolved once association strengths are known

    if J == 0 or s_w <= 0.0:
        # No spatial mass: every measurement must be clutter.
        if M > 0 and lam_c == 0.0:
            raise NumericalError("measurements received but neither targets nor clutter possible")
        vals = _falling_table(N, qd)[1][0] * rho  # qd^n
        den = float(np.cumsum(vals)[-1]) if vals.size else 0.0
        if not np.isfinite(den) or den <= 0.0:
            raise NumericalError("count update normalizer is zero or non-finite")
        post = FilterState(
            GaussianMixture.empty(mix.dim if J else sensor.H.shape[1]),
            CardinalityDistribution(vals, normalize=True),
        )
        return _checked(post)

    # Per-component innovation statistics and per-measurement densities. The
    # innovations and the quadratic form (nu Sinv) . nu go one measurement
    # coordinate at a time, left to right, over contiguous (J, M) tables.
    Sinv, Kg, P_upd, norm = _innovation_stats(mix, sensor.H, sensor.R)
    Hm = mix.m @ sensor.H.T
    k = sensor.H.shape[0]
    nu = np.empty((J, M, k))
    for c in range(k):
        np.subtract(z[None, :, c], Hm[:, c, None], out=nu[:, :, c])
    X = np.matmul(nu, Sinv)
    q = X[..., 0] * nu[..., 0]  # (J, M): quadratic form, then likelihood
    for c in range(1, k):
        q += X[..., c] * nu[..., c]
    q *= -0.5
    np.exp(q, out=q)
    q /= norm[:, None]
    assoc = p_d * (mix.w @ q) * V  # association strength per measurement

    if s is None:
        s = 1.0 / max(lam_c, float(assoc.max()) if M else 0.0, 1.0)
    u = s * assoc
    u_c = s * lam_c

    C0, C1, Cm = count_update_tables(N, M, qd, u_c, s_w)
    e_full, loo_c = _esf_leave_one_out(u, min(M, N), Cm @ rho)
    ups0 = e_full @ C0  # (N+1,)
    ups1 = e_full @ C1

    den = float(ups0 @ rho)
    if not np.isfinite(den) or den <= 0.0:
        raise NumericalError("count update normalizer is zero or non-finite")
    rho_new = CardinalityDistribution(ups0 * rho, normalize=True)

    r_miss = float(ups1 @ rho) / den
    w_miss = r_miss * qd * mix.w

    if M > 0 and p_d > 0.0:
        ratio_det = loo_c / den  # (M,)
        # Detection weights, measurement-major: row i holds measurement i.
        flat_w = np.multiply(q.T, mix.w, order="C")  # (M, J)
        flat_w *= s * p_d * V
        flat_w *= ratio_det[:, None]
        flat_w = flat_w.reshape(-1)
        if reduction is not None:
            keep = np.nonzero(flat_w >= reduction.trunc_threshold)[0]
        else:
            keep = np.arange(flat_w.shape[0])
        i_meas, j_comp = keep // J, keep % J
        m_det = mix.m[j_comp] + np.matmul(
            Kg[j_comp], nu[j_comp, i_meas][:, :, None]
        )[:, :, 0]
        det_block = (flat_w[keep], m_det, P_upd[j_comp])
    else:
        det_block = (np.empty(0), np.empty((0, mix.dim)), np.empty((0, mix.dim, mix.dim)))

    if reduction is not None:
        keep_m = w_miss >= reduction.trunc_threshold
    else:
        keep_m = np.ones(J, dtype=bool)
    posterior = GaussianMixture(
        np.concatenate([w_miss[keep_m], det_block[0]]),
        np.concatenate([mix.m[keep_m], det_block[1]]),
        np.concatenate([mix.P[keep_m], det_block[2]]),
    )
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
    J = len(mix)
    order = np.lexsort((np.arange(J), -mix.w))[: min(n, J)]
    return n, mix.m[order]
