"""Count-aware Gaussian-mixture filter recursion.

State is a `FilterState`: a Gaussian-mixture intensity over target states plus
an explicit distribution over the target count. Two prediction flavors exist,
`predict_spawning` (survivors branch into daughters at their parents'
locations) and `predict_birth` (independent spontaneous appearances), sharing
the same `update` step.

The update does the Gaussian work and hands its association strengths to
`cardinality.count_update` for the counts. Per-pair work is batched over
contiguous (component, measurement) tables: innovations and the Mahalanobis
form go in blocks of whole components, at most `_PAIR_BLOCK` pairs, one
measurement coordinate at a time (the bits of numpy's trailing-axis sum for
k <= 7). The likelihood table, 8 bytes a pair, becomes the detection weights
in place and is released before the reduction. The exact and the reduced
posterior share one assembly: the kept pairs, `np.nonzero` of the transposed
table against a threshold (0 when exact), come measurement-major and fill
posterior arrays allocated once, 168 bytes a kept pair for d = 4.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cardinality import (
    CardinalityDistribution,
    _check_prob,
    _check_rate,
    binomial_thin,
    convolve_counts,
    count_update,
    map_estimate,
    poisson_pmf,
    predict_cardinality,
)
from .errors import DomainError, InvalidModelError, NumericalError
from .gaussian import (
    GaussianMixture,
    ReductionConfig,
    _require_psd,
    reduce_mixture,
    transform_mixture,
)
from .spawning import SpawnModel, bell_coefficients, spawn_intensity

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
        if not 0.0 < self.area < np.inf:  # the clutter density is 1 / area
            raise InvalidModelError(f"rectangle area {self.area} must be finite and positive")

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
        return cls(F, np.kron([[a, b], [b, c]], np.eye(2)), p_s)


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
    z = np.asarray(scan, dtype=float)
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
    if not np.all(det > 0.0):  # underflow, or a NaN that cholesky passed on
        j = int(np.argmax(~(det > 0.0)))
        raise NumericalError(f"singular innovation covariance for component {j}")
    Sinv = np.linalg.inv(S)
    K = mix.P @ H.T @ Sinv
    P_upd = mix.P - K @ S @ np.transpose(K, (0, 2, 1))
    P_upd = 0.5 * (P_upd + np.transpose(P_upd, (0, 2, 1)))
    norm = (2.0 * np.pi) ** (k / 2.0) * np.sqrt(det)
    return Sinv, K, P_upd, norm


def update(
    state: FilterState,
    scan,
    sensor: SensorModel,
    reduction: ReductionConfig | None = DEFAULT_REDUCTION,
) -> FilterState:
    """Measurement update of intensity and count distribution.

    `scan` is an (M, k) array of measurements. `reduction=None` keeps the
    exact posterior mixture: every weight, all >= 0, where a reduction first
    keeps those >= its trunc_threshold, through the same assembly. The
    quadratic forms round as numpy's trailing-axis sum does for k <= 7
    measurement coordinates (pairwise from 8); every configured sensor has
    k = 2. An `InvalidModelError` is raised if the intensity's state
    dimension is not the sensor's; a `NumericalError` if an innovation
    covariance H P H^T + R is not positive definite, or by `count_update`.
    A scan without clutter keeps only the count update's degree-M term, at
    any p_d. An empty or massless intensity takes the same path: every
    association strength is 0, so the count pmf becomes (1 - p_d)^n rho(n),
    renormalized, and a scan without clutter to explain it has zero
    likelihood; with `reduction=None` a massless intensity of J components
    lists its J (M + 1) zero-weight rows.

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

    mix = state.intensity
    if mix.dim != sensor.H.shape[1]:
        raise InvalidModelError(
            f"intensity state dimension {mix.dim} does not match the sensor's {sensor.H.shape[1]}"
        )
    J = len(mix)
    s_w = mix.total_weight
    qd = 1.0 - p_d
    V = sensor.fov.area

    # Per-component innovation statistics and per-measurement densities. The
    # innovations and the quadratic form (nu Sinv) . nu go one measurement
    # coordinate at a time, left to right, in blocks of whole components that
    # each fill their own rows of the (J, M) table q. A form that overflows
    # to inf has the likelihood exp(-inf) = 0 that its true value rounds to.
    Sinv, Kg, P_upd, norm = _innovation_stats(mix, sensor.H, sensor.R)
    Hm = mix.m @ sensor.H.T
    k = sensor.H.shape[0]
    q = np.empty((J, M))  # quadratic form, then likelihood
    step = max(1, _PAIR_BLOCK // max(M, 1))
    with np.errstate(over="ignore"):
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

    rho_new, r_miss, g = count_update(state.cardinality, assoc, lam_c, s_w, qd)
    w_miss = r_miss * qd * mix.w

    # One assembly path: the exact posterior keeps every weight, all >= 0.
    thr = 0.0 if reduction is None else reduction.trunc_threshold
    keep_m = w_miss >= thr
    if p_d > 0.0:  # p_d = 0: no detection rows, not even exact zero-weight ones
        # Detection weights in place: w_j q_ji, times p_d V, times g_i.
        q *= mix.w[:, None]
        q *= p_d * V
        q *= g
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
