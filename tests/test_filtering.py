"""Filter recursion against Kalman oracles and count-bookkeeping identities."""

import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from spawncphd.cardinality import (
    CardinalityDistribution,
    _factorials,
    predict_cardinality,
)
from spawncphd.errors import ConfigError, DomainError, NumericalError
from spawncphd.filtering import (
    DEFAULT_REDUCTION,
    BirthModel,
    FilterState,
    MotionModel,
    Rect,
    SensorModel,
    _as_scan_array,
    _checked,
    _esf_leave_one_out,
    _innovation_stats,
    _prefix_esf,
    extract_estimates,
    predict_birth,
    predict_spawning,
    update,
)
from spawncphd.gaussian import GaussianMixture, ReductionConfig, reduce_mixture
from spawncphd.spawning import (
    BernoulliSpawn,
    PoissonSpawn,
    SpawnSpatialModel,
    bell_coefficients,
    spawn_alpha,
)

FOV = Rect(-1000.0, 1000.0, -1000.0, 1000.0)
MOTION = MotionModel.constant_velocity(dt=1.0, accel_std=5.0, p_s=0.99)
SENSOR = SensorModel.position_sensor(
    noise_std=10.0, p_d=0.95, clutter_rate=50.0, fov=FOV
)
SPAWN_KERNEL = SpawnSpatialModel.single(
    np.eye(4), np.zeros(4), np.diag([144.0, 144.0, 144.0, 144.0])
)


def two_target_state(n_max=20):
    mix = GaussianMixture(
        np.array([1.0, 1.0]),
        np.array([[-600.0, -600.0, 14.0, 11.0], [600.0, 600.0, -12.0, -14.0]]),
        np.stack([np.diag([100.0**2, 100.0**2, 10.0**2, 10.0**2])] * 2),
    )
    return FilterState(mix, CardinalityDistribution.delta(2, n_max))


class ScalarAxisKalman:
    """Independent per-axis (position, velocity) Kalman filter oracle."""

    def __init__(self, dt, accel_std, noise_std, m0, P0):
        self.F = np.array([[1.0, dt], [0.0, 1.0]])
        self.Q = accel_std**2 * np.array(
            [[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]]
        )
        self.H = np.array([[1.0, 0.0]])
        self.R = np.array([[noise_std**2]])
        self.m = np.asarray(m0, float)
        self.P = np.asarray(P0, float)

    def step(self, z):
        m, P = self.F @ self.m, self.F @ self.P @ self.F.T + self.Q
        S = self.H @ P @ self.H.T + self.R
        K = P @ self.H.T @ np.linalg.inv(S)
        self.m = m + (K @ (np.atleast_1d(z) - self.H @ m)).reshape(-1)
        self.P = P - K @ S @ K.T
        return self.m, self.P


class TestPredictSpawning:
    def test_survivor_and_spawn_components(self):
        state = two_target_state()
        model = BernoulliSpawn(0.01, SPAWN_KERNEL)
        pred = predict_spawning(state, MOTION, model)
        assert len(pred.intensity) == 4  # 2 survivors + 2 spawn terms
        # survivor block first
        np.testing.assert_allclose(pred.intensity.w[:2], 0.99, rtol=1e-14)
        np.testing.assert_allclose(
            pred.intensity.m[0], [-586.0, -589.0, 14.0, 11.0], rtol=1e-14
        )
        # spawned components sit at the un-propagated parent states
        np.testing.assert_allclose(pred.intensity.w[2:], 0.01, rtol=1e-14)
        np.testing.assert_allclose(
            pred.intensity.m[2], [-600.0, -600.0, 14.0, 11.0], rtol=1e-14
        )

    def test_cardinality_delegates_to_bell_prediction(self):
        state = two_target_state()
        model = PoissonSpawn(0.025, SPAWN_KERNEL)
        pred = predict_spawning(state, MOTION, model)
        ref = predict_cardinality(
            state.cardinality, bell_coefficients(model, MOTION.p_s, 20)
        )
        np.testing.assert_array_equal(pred.cardinality.probs, ref.probs)

    def test_growth_factor_consistency(self):
        state = two_target_state()
        for model in [BernoulliSpawn(0.3, SPAWN_KERNEL), PoissonSpawn(0.7, SPAWN_KERNEL)]:
            pred = predict_spawning(state, MOTION, model)
            g = MOTION.p_s + spawn_alpha(model)
            np.testing.assert_allclose(
                pred.intensity.total_weight, g * state.intensity.total_weight, rtol=1e-12
            )
            np.testing.assert_allclose(pred.cardinality.mean, g * 2.0, rtol=1e-6)
            assert pred.cardinality.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_input_state_not_mutated(self):
        state = two_target_state()
        w0 = state.intensity.w.copy()
        p0 = state.cardinality.probs.copy()
        predict_spawning(state, MOTION, BernoulliSpawn(0.01, SPAWN_KERNEL))
        np.testing.assert_array_equal(state.intensity.w, w0)
        np.testing.assert_array_equal(state.cardinality.probs, p0)


class TestPredictBirth:
    BIRTH = BirthModel(
        rate=0.025,
        mixture=GaussianMixture(
            np.array([1.0]),
            np.array([[0.0, 0.0, 0.0, 0.0]]),
            np.stack([np.diag([400.0**2, 400.0**2, 15.0**2, 15.0**2])]),
        ),
    )

    def test_intensity_appends_rate_scaled_birth(self):
        state = two_target_state()
        pred = predict_birth(state, MOTION, self.BIRTH)
        assert len(pred.intensity) == 3
        np.testing.assert_allclose(pred.intensity.w[:2], 0.99, rtol=1e-14)
        assert pred.intensity.w[2] == pytest.approx(0.025, rel=1e-14)
        np.testing.assert_array_equal(pred.intensity.m[2], [0.0, 0.0, 0.0, 0.0])

    def test_cardinality_matches_scipy_thin_convolve(self):
        state = two_target_state(n_max=12)
        pred = predict_birth(state, MOTION, self.BIRTH)
        n = np.arange(13)
        thinned = stats.binom.pmf(n, 2, MOTION.p_s)
        births = stats.poisson.pmf(n, 0.025)
        ref = np.convolve(thinned, births)[:13]
        np.testing.assert_allclose(pred.cardinality.probs, ref / ref.sum(), rtol=1e-10)

    def test_empty_state_births_poisson_counts(self):
        state = FilterState(GaussianMixture.empty(4), CardinalityDistribution.delta(0, 12))
        pred = predict_birth(state, MOTION, self.BIRTH)
        assert len(pred.intensity) == 1
        ref = stats.poisson.pmf(np.arange(13), 0.025)
        np.testing.assert_allclose(pred.cardinality.probs, ref / ref.sum(), rtol=1e-10)


class TestPrefixESF:
    """The last row of the prefix table is e_0..e_n of the whole input."""

    def test_hand_values(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(_prefix_esf(v, len(v))[-1], [1.0, 6.0, 11.0, 6.0])

    def test_empty(self):
        np.testing.assert_array_equal(_prefix_esf(np.array([]), 0)[-1], [1.0])

    def test_matches_bruteforce_subsets(self):
        rng = np.random.default_rng(127)
        for _ in range(30):
            n = int(rng.integers(0, 13))
            vals = rng.integers(-3, 4, size=n).astype(float)
            got = _prefix_esf(vals, n)[-1]
            for k in range(n + 1):
                expected = 0.0
                for subset in itertools.combinations(range(n), k):
                    expected += float(np.prod(vals[list(subset)])) if subset else 1.0
                assert got[k] == expected, (vals, k)

    def test_bitwise_equal_to_row_recursion(self):
        # One row per prefix, updated in place: the table's defining loop.
        def rows(u, K):
            T = np.zeros((u.shape[0] + 1, K + 1))
            row = np.zeros(K + 1)
            row[0] = 1.0
            T[0] = row
            for i in range(u.shape[0]):
                row[1:] += u[i] * row[:-1]
                T[i + 1] = row
            return T

        rng = np.random.default_rng(131)
        for M, K in [(0, 0), (3, 3), (54, 20), (54, 54), (2000, 20)]:
            for u in (rng.uniform(0.0, 3.0, M), rng.normal(0.0, 1.0, M)):
                got = _prefix_esf(np.stack([u, u[::-1]]), K)
                for g, v in zip(got, (u, u[::-1])):
                    assert g.tobytes() == rows(v, K).tobytes(), (M, K)


def loo_bruteforce(u, K, c):
    """sum_k c_k e_k(u without u_i), each from its own prefix table."""
    return np.array([_prefix_esf(np.delete(u, i), K)[-1] @ c for i in range(u.shape[0])])


@st.composite
def esf_inputs(draw):
    # Entries of 1e-4..1e3 and c of 0 or 1e-3..1 keep every product of up to
    # 60 factors clear of subnormals, where the brute force and the
    # contraction would round away different bits.
    M = draw(st.integers(0, 60))
    K = draw(st.integers(0, M))
    u = 10.0 ** np.array(draw(st.lists(st.floats(-4.0, 3.0), min_size=M, max_size=M)))
    coef = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    c = np.array(draw(st.lists(coef, min_size=K + 1, max_size=K + 1)))
    return u, K, c


class TestLeaveOneOutESF:
    """The contraction equals brute-force leave-one-out ESF dotted with c."""

    @pytest.mark.parametrize("M", [0, 1, 2, 7, 54])
    def test_matches_bruteforce(self, M):
        rng = np.random.default_rng(137 + M)
        u = 10.0 ** rng.uniform(-12.0, 3.0, M)  # entries over 15 decades
        for K in sorted({0, min(M, 20), M}):
            c = rng.uniform(0.0, 1.0, K + 1)
            full, got = _esf_leave_one_out(u, K, c)
            assert full.tobytes() == _prefix_esf(u, K)[-1].tobytes()
            assert got.shape == (M,)
            np.testing.assert_allclose(got, loo_bruteforce(u, K, c), rtol=1e-12, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(esf_inputs())
    def test_matches_bruteforce_property(self, args):
        u, K, c = args
        _, got = _esf_leave_one_out(u, K, c)
        np.testing.assert_allclose(got, loo_bruteforce(u, K, c), rtol=1e-12, atol=0.0)


class TestUpdate:
    def test_no_detection_power_leaves_state_unchanged(self):
        state = two_target_state()
        sensor = SensorModel.position_sensor(10.0, p_d=0.0, clutter_rate=50.0, fov=FOV)
        scan = np.array([[0.0, 0.0], [100.0, -50.0]])
        post = update(state, scan, sensor, reduction=None)
        np.testing.assert_allclose(post.intensity.w, state.intensity.w, rtol=1e-12)
        np.testing.assert_array_equal(post.intensity.m, state.intensity.m)
        np.testing.assert_array_equal(post.intensity.P, state.intensity.P)
        np.testing.assert_allclose(post.cardinality.probs, state.cardinality.probs, atol=1e-15)

    def test_exact_single_target_detection(self):
        m = np.array([10.0, -20.0, 1.0, 2.0])
        P = np.diag([100.0, 100.0, 25.0, 25.0])
        state = FilterState(
            GaussianMixture(np.array([1.0]), m[None], P[None]),
            CardinalityDistribution.delta(1, 10),
        )
        sensor = SensorModel.position_sensor(10.0, p_d=1.0, clutter_rate=0.0, fov=FOV)
        z = np.array([[14.0, -17.0]])
        post = update(state, z, sensor, reduction=None)
        # cardinality collapses to exactly one target
        np.testing.assert_allclose(post.cardinality.probs[1], 1.0, rtol=1e-12)
        assert post.intensity.total_weight == pytest.approx(1.0, rel=1e-12)
        # single detected component equals the Kalman update computed here
        H, R = sensor.H, sensor.R
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        m_ref = m + K @ (z[0] - H @ m)
        P_ref = P - K @ S @ K.T
        w = post.intensity.w
        top = int(np.argmax(w))
        np.testing.assert_allclose(post.intensity.m[top], m_ref, rtol=1e-10)
        np.testing.assert_allclose(post.intensity.P[top], P_ref, rtol=1e-9, atol=1e-12)

    def test_empty_scan_lowers_expected_count(self):
        # needs count uncertainty: a degenerate prior cannot shift its mean
        base = two_target_state()
        state = FilterState(base.intensity, CardinalityDistribution.poisson(2.0, 20))
        sensor = SensorModel.position_sensor(10.0, p_d=0.6, clutter_rate=50.0, fov=FOV)
        post = update(state, np.empty((0, 2)), sensor, reduction=None)
        assert post.cardinality.mean < state.cardinality.mean
        # intensity mass tracks the posterior expected count exactly
        np.testing.assert_allclose(
            post.intensity.total_weight, post.cardinality.mean, rtol=1e-12
        )

    def test_posterior_mass_equals_posterior_mean_with_clutter(self):
        rng = np.random.default_rng(401)
        state = two_target_state()
        scan = np.concatenate(
            [
                rng.uniform(-1000.0, 1000.0, size=(12, 2)),
                state.intensity.m[:, :2] + rng.normal(0.0, 10.0, size=(2, 2)),
            ]
        )
        post = update(state, scan, SENSOR, reduction=None)
        np.testing.assert_allclose(
            post.intensity.total_weight, post.cardinality.mean, rtol=1e-10
        )

    def test_likelihood_rescaling_is_invariant(self):
        rng = np.random.default_rng(409)
        state = two_target_state()
        scan = rng.uniform(-800.0, 800.0, size=(9, 2))
        a = update(state, scan, SENSOR, reduction=None, likelihood_scale=1.0)
        b = update(state, scan, SENSOR, reduction=None, likelihood_scale=13.7)
        c = update(state, scan, SENSOR, reduction=None)
        np.testing.assert_allclose(a.intensity.w, b.intensity.w, rtol=1e-11)
        np.testing.assert_allclose(a.cardinality.probs, b.cardinality.probs, rtol=1e-11, atol=1e-16)
        np.testing.assert_allclose(a.intensity.w, c.intensity.w, rtol=1e-11)
        np.testing.assert_allclose(a.cardinality.probs, c.cardinality.probs, rtol=1e-11, atol=1e-16)

    def test_zero_clutter_with_measurements_needs_full_detection(self):
        state = two_target_state()
        sensor = SensorModel.position_sensor(10.0, p_d=0.9, clutter_rate=0.0, fov=FOV)
        with pytest.raises(ConfigError):
            update(state, np.array([[0.0, 0.0]]), sensor)

    def test_empty_intensity_keeps_empty_count(self):
        state = FilterState(GaussianMixture.empty(4), CardinalityDistribution.delta(0, 10))
        scan = np.array([[10.0, 10.0], [-500.0, 250.0]])
        post = update(state, scan, SENSOR, reduction=None)
        assert len(post.intensity) == 0
        np.testing.assert_allclose(post.cardinality.probs[0], 1.0, rtol=1e-14)

    def test_underflowed_normalizer_aborts(self):
        # A count distribution pinned at 20 targets with certain detection and
        # an empty scan is impossible: the update must fail loudly, not NaN.
        mix = GaussianMixture(np.array([20.0]), np.zeros((1, 4)), np.stack([np.eye(4)]))
        state = FilterState(mix, CardinalityDistribution.delta(20, 20))
        sensor = SensorModel.position_sensor(10.0, p_d=1.0, clutter_rate=1e-12, fov=FOV)
        with pytest.raises(NumericalError):
            update(state, np.empty((0, 2)), sensor, reduction=None)

    def test_reduction_losses_trip_consistency_warning(self, caplog):
        state = two_target_state()
        scan = state.intensity.m[:, :2].copy()
        harsh = ReductionConfig(trunc_threshold=1.9, merge_threshold=4.0, max_components=100)
        with caplog.at_level(logging.WARNING, logger="spawncphd.filtering"):
            update(state, scan, SENSOR, reduction=harsh)
        assert any("consistency" in r.message for r in caplog.records)


def two_component_scene(k, rng):
    """Two prior components, one measurement near both, and a k-coordinate
    sensor. Unlike `update_scene`, the components get distinct full
    covariances, so their density normalizers differ."""
    m = np.column_stack([rng.normal(0.0, 30.0, size=(2, 2)), rng.normal(0.0, 5.0, size=(2, 2))])
    P = np.empty((2, 4, 4))
    for j in range(2):
        A = rng.normal(0.0, 1.0, size=(4, 4))
        P[j] = 20.0 * (A @ A.T) + np.eye(4)
    mix = GaussianMixture(rng.uniform(0.2, 1.0, size=2), m, P)
    state = FilterState(mix, CardinalityDistribution.poisson(1.5, 10))
    sensor = SensorModel(np.eye(k, 4), np.diag(rng.uniform(50.0, 150.0, size=k)), 0.9, 10.0, FOV)
    z = rng.normal(0.0, 30.0, size=(1, k))
    return state, z, sensor


class TestUpdateDensity:
    """Detection weights of `update` against an outside Gaussian density.

    With one measurement and `reduction=None` the posterior lists the J miss
    rows, then detection rows J + i*J + j; two detection weights of the same
    measurement share every count factor, so their ratio is the ratio of the
    prior weights times the predicted-measurement densities.
    """

    @pytest.mark.parametrize("k", [2, 3])  # closed-form and np.linalg.inv innovation inverses
    def test_detection_weight_ratio_matches_scipy(self, k):
        rng = np.random.default_rng(21 + k)
        for _ in range(50):
            state, z, sensor = two_component_scene(k, rng)
            post = update(state, z, sensor, reduction=None)
            mix, H, R = state.intensity, sensor.H, sensor.R
            dens = [
                stats.multivariate_normal.pdf(z[0], mean=H @ mix.m[j], cov=H @ mix.P[j] @ H.T + R)
                for j in range(2)
            ]
            ref = mix.w[0] * dens[0] / (mix.w[1] * dens[1])
            assert post.intensity.w[2] / post.intensity.w[3] == pytest.approx(ref, rel=1e-10)

    def test_detection_weight_ratio_closed_form(self):
        # Zero state covariance leaves the innovation covariance R = 100 I:
        # the measurement sits on the first component's mean and one standard
        # deviation from the second's, so their densities differ by exp(-1/2).
        m = np.array([[5.0, -3.0, 0.0, 0.0], [15.0, -3.0, 0.0, 0.0]])
        mix = GaussianMixture(np.array([0.4, 0.8]), m, np.zeros((2, 4, 4)))
        state = FilterState(mix, CardinalityDistribution.poisson(1.5, 10))
        sensor = SensorModel.position_sensor(10.0, p_d=0.9, clutter_rate=10.0, fov=FOV)
        post = update(state, np.array([[5.0, -3.0]]), sensor, reduction=None)
        ratio = post.intensity.w[2] / post.intensity.w[3]
        assert ratio == pytest.approx(0.5 * math.exp(0.5), rel=1e-13)

    @pytest.mark.parametrize("k", [2, 3])
    def test_singular_innovation_raises(self, k):
        mix = GaussianMixture(np.array([1.0]), np.zeros((1, 4)), np.zeros((1, 4, 4)))
        state = FilterState(mix, CardinalityDistribution.poisson(1.0, 10))
        sensor = SensorModel(np.eye(k, 4), np.zeros((k, k)), 0.9, 10.0, FOV)
        with pytest.raises(NumericalError, match="singular innovation covariance"):
            update(state, np.zeros((1, k)), sensor, reduction=None)


def reference_update(
    state: FilterState,
    scan,
    sensor: SensorModel,
    reduction: ReductionConfig | None = DEFAULT_REDUCTION,
    likelihood_scale: float | None = None,
) -> FilterState:
    """The update as first written: innovations broadcast over a trailing
    axis and summed back, component-major detection weights transposed into
    measurement order. `update` must match it bit for bit."""
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
        vals = qd ** np.arange(N + 1) * rho
        den = float(np.cumsum(vals)[-1]) if vals.size else 0.0
        if not np.isfinite(den) or den <= 0.0:
            raise NumericalError("count update normalizer is zero or non-finite")
        post = FilterState(
            GaussianMixture.empty(mix.dim if J else sensor.H.shape[1]),
            CardinalityDistribution(vals, normalize=True),
        )
        return _checked(post)

    # Per-component innovation statistics and per-measurement densities.
    Sinv, Kg, P_upd, norm = _innovation_stats(mix, sensor.H, sensor.R)
    Hm = mix.m @ sensor.H.T
    if M > 0:
        nu = z[None, :, :] - Hm[:, None, :]  # (J, M, k)
        quad = (np.matmul(nu, Sinv) * nu).sum(axis=2)
        q = np.exp(-0.5 * quad) / norm[:, None]  # (J, M)
        assoc = p_d * (mix.w @ q) * V  # association strength per measurement
    else:
        nu = np.zeros((J, 0, sensor.H.shape[0]))
        q = np.zeros((J, 0))
        assoc = np.zeros(0)

    if s is None:
        s = 1.0 / max(lam_c, float(assoc.max()) if M else 0.0, 1.0)
    u = s * assoc
    u_c = s * lam_c

    K_deg = min(M, N)

    # Coefficient tables over (order j, count n).
    fact = _factorials(N)
    jj = np.arange(K_deg + 1)[:, None]
    nn = np.arange(N + 1)[None, :]
    qd_pow = qd ** np.arange(N + 1)
    invw_pow = (1.0 / s_w) ** np.arange(K_deg + 2)

    valid0 = jj <= nn
    perm0 = np.where(valid0, fact[nn] / fact[np.clip(nn - jj, 0, N)], 0.0)
    C0 = (
        u_c ** (M - jj)
        * perm0
        * np.where(valid0, qd_pow[np.clip(nn - jj, 0, N)], 0.0)
        * invw_pow[jj]
    )

    valid1 = jj <= nn - 1
    perm1 = np.where(valid1, fact[nn] / fact[np.clip(nn - jj - 1, 0, N)], 0.0)
    qd1 = np.where(valid1, qd_pow[np.clip(nn - jj - 1, 0, N)], 0.0)
    C1 = u_c ** (M - jj) * perm1 * qd1 * invw_pow[jj + 1]
    Cm = (
        np.where(jj <= M - 1, u_c ** np.clip(M - 1 - jj, 0, None), 0.0)
        * perm1
        * qd1
        * invw_pow[jj + 1]
    )
    e_full, loo_c = _esf_leave_one_out(u, K_deg, Cm @ rho)
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
        w_det = (mix.w[:, None] * q) * (s * p_d * V) * ratio_det[None, :]  # (J, M)
        flat_w = w_det.T.reshape(-1)  # measurement-major
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


def update_scene(J, M, k, p_d, clutter_rate, seed, n_max=20):
    """A J-component prior with counts 0..n_max, and M measurements of a
    k-coordinate sensor: one per component near its mean where M allows, the
    rest uniform clutter."""
    rng = np.random.default_rng(seed)
    mix = GaussianMixture(
        rng.uniform(0.05, 1.0, size=J),
        np.column_stack([rng.uniform(-900.0, 900.0, size=(J, 2)), rng.normal(0.0, 10.0, size=(J, 2))]),
        np.stack([np.diag(rng.uniform([40.0, 40.0, 4.0, 4.0], [400.0, 400.0, 40.0, 40.0]))] * J),
    )
    state = FilterState(
        mix, CardinalityDistribution(rng.uniform(0.1, 1.0, size=n_max + 1), normalize=True)
    )
    H = np.eye(k, 4)
    sensor = SensorModel(H, np.diag(rng.uniform(50.0, 150.0, size=k)), p_d, clutter_rate, FOV)
    n_near = min(M, J)
    near = mix.m[:n_near] @ H.T + rng.normal(0.0, 10.0, size=(n_near, k))
    far = rng.uniform(-1000.0, 1000.0, size=(M - n_near, k))
    return state, rng.permutation(np.concatenate([near, far])), sensor


def assert_same_update(state, scan, sensor, reduction):
    got = update(state, scan, sensor, reduction=reduction)
    ref = reference_update(state, scan, sensor, reduction=reduction)
    assert np.array_equal(got.intensity.w, ref.intensity.w)
    assert np.array_equal(got.intensity.m, ref.intensity.m)
    assert np.array_equal(got.intensity.P, ref.intensity.P)
    assert np.array_equal(got.cardinality.probs, ref.cardinality.probs)


REDUCTIONS = pytest.mark.parametrize("reduction", [None, DEFAULT_REDUCTION], ids=["exact", "reduced"])


class TestUpdateBitIdentity:
    @REDUCTIONS
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("J", [1, 40])
    @pytest.mark.parametrize("M", [0, 1, 400])
    @pytest.mark.parametrize(
        "p_d, n_max",
        [
            pytest.param(p_d, n_max, id=f"{p_d}" + ("" if n_max == 20 else f"-n_max{n_max}"))
            for p_d in (0.9, 1.0)
            for n_max in (20, 100)
        ],
    )
    def test_matches_reference(self, reduction, k, J, M, p_d, n_max):
        state, scan, sensor = update_scene(
            J, M, k, p_d, M + 50.0, seed=J * 1000 + M + k, n_max=n_max
        )
        assert_same_update(state, scan, sensor, reduction)

    def test_interleaved_detection_probabilities_match_reference(self):
        # The count tables are cached; a key that missed p_d would hand one
        # sensor's tables to the other.
        for p_d in (0.9, 0.95, 0.9, 0.95):
            state, scan, sensor = update_scene(40, 60, 2, p_d, 110.0, seed=7)
            assert_same_update(state, scan, sensor, None)

    @REDUCTIONS
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("J", [1, 40])
    def test_clutter_free_matches_reference(self, reduction, k, J):
        state, scan, sensor = update_scene(J, min(J, 8), k, 1.0, 0.0, seed=J + k)
        assert_same_update(state, scan, sensor, reduction)


class TestKalmanEquivalence:
    def test_tracks_scalar_axis_oracle(self):
        rng = np.random.default_rng(419)
        m0 = np.array([-100.0, 50.0, 8.0, -3.0])
        P0 = np.diag([400.0, 400.0, 25.0, 25.0])
        state = FilterState(
            GaussianMixture(np.array([1.0]), m0[None], P0[None].copy()),
            CardinalityDistribution.delta(1, 10),
        )
        motion = MotionModel.constant_velocity(dt=1.0, accel_std=5.0, p_s=1.0)
        sensor = SensorModel.position_sensor(10.0, p_d=1.0, clutter_rate=0.0, fov=FOV)
        birth = BirthModel(rate=0.0, mixture=GaussianMixture.empty(4))
        ox = ScalarAxisKalman(1.0, 5.0, 10.0, m0[[0, 2]], P0[np.ix_([0, 2], [0, 2])])
        oy = ScalarAxisKalman(1.0, 5.0, 10.0, m0[[1, 3]], P0[np.ix_([1, 3], [1, 3])])

        truth = m0.copy()
        for _ in range(10):
            truth = MOTION.F @ truth
            z = truth[:2] + rng.normal(0.0, 10.0, size=2)
            state = predict_birth(state, motion, birth)
            state = update(state, z[None], sensor)
            mx, Px = ox.step(z[0])
            my, Py = oy.step(z[1])
            assert len(state.intensity) == 1
            got_m = state.intensity.m[0]
            got_P = state.intensity.P[0]
            np.testing.assert_allclose(got_m[[0, 2]], mx, rtol=0, atol=1e-9)
            np.testing.assert_allclose(got_m[[1, 3]], my, rtol=0, atol=1e-9)
            np.testing.assert_allclose(got_P[np.ix_([0, 2], [0, 2])], Px, rtol=0, atol=1e-9)
            np.testing.assert_allclose(got_P[np.ix_([1, 3], [1, 3])], Py, rtol=0, atol=1e-9)
            # cross-axis blocks stay zero for axis-separable models
            assert abs(got_P[0, 1]) < 1e-9 and abs(got_P[2, 3]) < 1e-9


class TestExtraction:
    def test_map_count_selects_top_weights(self):
        mix = GaussianMixture(
            np.array([0.2, 0.9, 0.5]),
            np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0], [3.0, 0, 0, 0]]),
            np.stack([np.eye(4)] * 3),
        )
        rho = CardinalityDistribution(np.array([0.1, 0.2, 0.7, 0.0]))
        n, means = extract_estimates(FilterState(mix, rho))
        assert n == 2
        np.testing.assert_array_equal(means[:, 0], [2.0, 3.0])

    def test_tie_breaks_by_component_index(self):
        mix = GaussianMixture(
            np.array([0.5, 0.5, 0.5]),
            np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0], [3.0, 0, 0, 0]]),
            np.stack([np.eye(4)] * 3),
        )
        rho = CardinalityDistribution(np.array([0.0, 1.0, 0.0, 0.0]))
        n, means = extract_estimates(FilterState(mix, rho))
        assert n == 1
        np.testing.assert_array_equal(means[:, 0], [1.0])

    def test_fewer_components_than_map_count(self):
        mix = GaussianMixture(np.array([0.8]), np.zeros((1, 4)), np.stack([np.eye(4)]))
        rho = CardinalityDistribution(np.array([0.0, 0.0, 0.0, 1.0]))
        n, means = extract_estimates(FilterState(mix, rho))
        assert n == 3 and means.shape == (1, 4)

    def test_empty_map_count(self):
        mix = GaussianMixture.empty(4)
        rho = CardinalityDistribution.delta(0, 5)
        n, means = extract_estimates(FilterState(mix, rho))
        assert n == 0 and means.shape == (0, 4)


class TestModels:
    def test_constant_velocity_block_structure(self):
        M = MotionModel.constant_velocity(dt=1.0, accel_std=5.0, p_s=0.99)
        np.testing.assert_array_equal(M.F[:2, 2:], np.eye(2))
        np.testing.assert_allclose(M.Q[2:, 2:], 25.0 * np.eye(2), rtol=1e-14)
        np.testing.assert_allclose(M.Q[:2, :2], 6.25 * np.eye(2), rtol=1e-14)
        np.testing.assert_allclose(M.Q[:2, 2:], 12.5 * np.eye(2), rtol=1e-14)

    def test_rect_area_and_contains(self):
        r = Rect(-1000.0, 1000.0, -500.0, 500.0)
        assert r.area == 2_000_000.0
        np.testing.assert_array_equal(
            r.contains(np.array([[0.0, 0.0], [1500.0, 0.0]])), [True, False]
        )

    def test_sensor_clutter_density(self):
        assert SENSOR.clutter_density == pytest.approx(50.0 / 4e6, rel=1e-15)

    def test_invalid_probabilities_rejected(self):
        from spawncphd.errors import InvalidModelError

        with pytest.raises(InvalidModelError):
            MotionModel.constant_velocity(1.0, 5.0, p_s=1.5)
        with pytest.raises(InvalidModelError):
            SensorModel.position_sensor(10.0, p_d=-0.1, clutter_rate=50.0, fov=FOV)
        with pytest.raises(InvalidModelError, match="clutter rate"):
            SensorModel.position_sensor(10.0, p_d=0.9, clutter_rate=math.inf, fov=FOV)
