"""Filter recursion against Kalman oracles and count-bookkeeping identities."""

import itertools
import logging
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from spawncphd import filtering
from spawncphd.cardinality import (
    CardinalityDistribution,
    _binomial_table,
    _factorials,
    _prefix_esf,
    count_update,
    predict_cardinality,
)
from spawncphd.errors import ConfigError, InvalidModelError, NumericalError
from spawncphd.filtering import (
    DEFAULT_REDUCTION,
    BirthModel,
    FilterState,
    MotionModel,
    Rect,
    SensorModel,
    _as_scan_array,
    _checked,
    _innovation_stats,
    extract_estimates,
    predict_birth,
    predict_spawning,
    update,
)
from spawncphd.gaussian import GaussianMixture, ReductionConfig, reduce_mixture, transform_mixture
from spawncphd.spawning import (
    BernoulliSpawn,
    PoissonSpawn,
    SpawnSpatialModel,
    bell_coefficients,
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
            g = MOTION.p_s + model.alpha
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

    def test_no_births_leaves_the_survivors(self):
        # Rate 0 with an empty birth mixture appends nothing.
        state = two_target_state()
        pred = predict_birth(state, MOTION, BirthModel(0.0, GaussianMixture.empty(4)))
        ref = transform_mixture(state.intensity, MOTION.F, np.zeros(4), MOTION.Q, MOTION.p_s)
        np.testing.assert_array_equal(pred.intensity.w, ref.w)
        np.testing.assert_array_equal(pred.intensity.m, ref.m)
        np.testing.assert_array_equal(pred.intensity.P, ref.P)


def esf_rows(u, K):
    """Prefix ESF table T[i, k] = e_k(u[:i]), one row per prefix, updated in
    place: the table's defining loop."""
    T = np.zeros((u.shape[0] + 1, K + 1))
    row = np.zeros(K + 1)
    row[0] = 1.0
    T[0] = row
    for i in range(u.shape[0]):
        row[1:] += u[i] * row[:-1]
        T[i + 1] = row
    return T


class TestPrefixESF:
    """The last row of the prefix table is e_0..e_n of the whole input, each
    degree times its power of two 2^-y[k]."""

    def test_hand_values(self):
        v = np.array([1.0, 2.0, 3.0])
        T, y = _prefix_esf(v, len(v))
        np.testing.assert_array_equal(np.ldexp(T[-1], y), [1.0, 6.0, 11.0, 6.0])

    def test_empty(self):
        np.testing.assert_array_equal(_prefix_esf(np.array([]), 0)[0][-1], [1.0])

    def test_matches_bruteforce_subsets(self):
        rng = np.random.default_rng(127)
        for _ in range(30):
            n = int(rng.integers(0, 13))
            vals = rng.integers(-3, 4, size=n).astype(float)
            T, y = _prefix_esf(vals, n)
            got = np.ldexp(T[-1], y)
            for k in range(n + 1):
                expected = 0.0
                for subset in itertools.combinations(range(n), k):
                    expected += float(np.prod(vals[list(subset)])) if subset else 1.0
                assert got[k] == expected, (vals, k)

    def test_bitwise_equal_to_row_recursion(self):
        # Powers of two scale exactly, so the scaled table times 2^y is the
        # unscaled recursion bit for bit while both stay normal.
        rng = np.random.default_rng(131)
        for M, K in [(0, 0), (3, 3), (54, 20), (54, 54), (2000, 20)]:
            half_zero = np.where(rng.uniform(size=M) < 0.5, 0.0, rng.uniform(0.0, 3.0, M))
            for u in (rng.uniform(0.0, 3.0, M), rng.normal(0.0, 1.0, M), 10.0 ** rng.uniform(-9.0, 9.0, M), half_zero):
                T, y = _prefix_esf(np.stack([u, u[::-1]]), K)
                for g, v in zip(T, (u, u[::-1])):
                    assert np.ldexp(g, y).tobytes() == esf_rows(v, K).tobytes(), (M, K)

    @pytest.mark.parametrize("s", [-996, -27, 27, 600])
    def test_power_of_two_strengths_shift_only_the_exponents(self, s):
        # e_K of 3,000 strengths of 0.5..1 is about C(3000, K) 2^-K, far past
        # float64 from K = 200 on; times 2^s, e_k gains exactly 2^(s k), so
        # the scaled degrees keep their bits and only y moves by s k.
        u = np.random.default_rng(139).uniform(0.5, 1.0, 3000)
        T, y = _prefix_esf(np.stack([u, u[::-1]]), 500)
        Ts, ys = _prefix_esf(np.stack([np.ldexp(u, s), np.ldexp(u[::-1], s)]), 500)
        top = Ts[:, -1].max(axis=0)
        assert np.all((top >= 2.0**-200) & (top <= 2.0**201))
        assert np.ldexp(Ts, ys - y - s * np.arange(501)).tobytes() == T.tobytes()


def loo_bruteforce(u, K, c):
    """sum_k c_k e_k(u without u_i), each from its own prefix table."""
    return np.array([esf_rows(np.delete(u, i), K)[-1] @ c for i in range(u.shape[0])])


@st.composite
def esf_inputs(draw):
    # Entries of 1e-4..1e3, lam_c and s_w of 0.7..1.5, and count priors with
    # entries 0 or 1e-3..1 keep every term of up to 60 factors in the float
    # brute force clear of subnormals and of overflow, where the brute force
    # and the contraction would round away different bits. With qd = 0 the
    # contraction's coefficients W_{k+1} beta_{k+1} are W_{k+1} rho(k + 1),
    # zero wherever the prior is.
    M = draw(st.integers(0, 60))
    K = draw(st.integers(0, M))
    u = 10.0 ** np.array(draw(st.lists(st.floats(-4.0, 3.0), min_size=M, max_size=M)))
    coef = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    probs = np.array(draw(st.lists(coef, min_size=K + 1, max_size=K + 1)))
    probs[0] += probs.sum() == 0.0  # some prior mass
    lam_c, s_w = draw(st.floats(0.7, 1.5)), draw(st.floats(0.7, 1.5))
    return u, CardinalityDistribution(probs, normalize=True), lam_c, s_w, draw(st.sampled_from([0.0, 0.3]))


def detection_factors_bruteforce(u, rho, lam_c, s_w, qd):
    """count_update's g by its definition:
    g_i = sum_k W_{k+1} beta_{k+1} e_k(u without u_i) / sum_k W_k beta_k e_k(u),
    W_j = lam_c^(M-j) j! / s_w^j and beta_j = sum_n C(n, j) qd^(n-j) rho(n),
    for K = min(M, n_max)."""
    M, K = u.shape[0], min(u.shape[0], rho.n_max)
    W = np.array([lam_c ** (M - j) * math.factorial(j) / s_w**j for j in range(K + 2)])
    beta = _binomial_table(rho.n_max, qd)[: K + 2] @ rho.probs
    return loo_bruteforce(u, K, W[1:] * beta[1:]) / (esf_rows(u, K)[-1] @ (W[:-1] * beta[:-1]))


class TestLeaveOneOutESF:
    """count_update's leave-one-out contraction equals brute-force
    leave-one-out ESF, each from its own table, contracted by definition."""

    @pytest.mark.parametrize("M", [0, 1, 2, 7, 54])
    def test_matches_bruteforce(self, M):
        rng = np.random.default_rng(137 + M)
        u = 10.0 ** rng.uniform(-12.0, 3.0, M)  # entries over 15 decades
        for K in sorted({0, min(M, 20), M}):
            for qd in (0.0, 0.3):
                rho = CardinalityDistribution(rng.uniform(0.0, 1.0, K + 1), normalize=True)
                g = count_update(rho, u, 1.2, 0.9, qd)[2]
                assert g.shape == (M,)
                np.testing.assert_allclose(g, detection_factors_bruteforce(u, rho, 1.2, 0.9, qd), rtol=1e-12, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(esf_inputs())
    def test_matches_bruteforce_property(self, args):
        u, rho, lam_c, s_w, qd = args
        got = count_update(rho, u, lam_c, s_w, qd)[2]
        np.testing.assert_allclose(got, detection_factors_bruteforce(u, rho, lam_c, s_w, qd), rtol=1e-12, atol=0.0)


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

    def test_overflowing_quadratic_form_is_zero_likelihood(self):
        # (1e160)^2 / S overflows float64; exp(-inf) = 0 is the likelihood
        # the exact form rounds to, and no RuntimeWarning leaks.
        state = two_target_state()
        sensor = SensorModel.position_sensor(10.0, 0.9, 5.0, Rect(-1000.0, 1e160, -1000.0, 1000.0))
        post = update(state, np.array([[1e160, 0.0], [-600.0, -600.0]]), sensor, reduction=None)
        assert np.all(post.intensity.w[2:4] == 0.0) and np.all(post.intensity.w[4:] > 0.0)

    def test_empty_intensity_keeps_empty_count(self):
        state = FilterState(GaussianMixture.empty(4), CardinalityDistribution.delta(0, 10))
        scan = np.array([[10.0, 10.0], [-500.0, 250.0]])
        post = update(state, scan, SENSOR, reduction=None)
        assert len(post.intensity) == 0
        np.testing.assert_allclose(post.cardinality.probs[0], 1.0, rtol=1e-14)

    def test_empty_intensity_without_clutter_has_zero_likelihood(self):
        # With no targets in the intensity and no clutter, nothing explains
        # the measurement.
        state = FilterState(GaussianMixture.empty(4), CardinalityDistribution.poisson(1.0, 10))
        sensor = SensorModel.position_sensor(10.0, p_d=1.0, clutter_rate=0.0, fov=FOV)
        with pytest.raises(NumericalError, match="^the scan has zero likelihood under the predicted counts$"):
            update(state, np.array([[10.0, 10.0]]), sensor, reduction=None)

    @pytest.mark.parametrize("M", [0, 2])
    def test_massless_intensity_updates_counts_as_an_empty_one(self, M):
        # Every association strength is 0 either way: the count pmf is
        # (1 - p_d)^n rho(n), renormalized, bit for bit, and the exact
        # posterior lists the J (M + 1) rows of the massless components.
        rho = CardinalityDistribution.poisson(2.0, 10)
        scan = np.array([[10.0, 10.0], [-500.0, 250.0]])[:M]
        empty = update(FilterState(GaussianMixture.empty(4), rho), scan, SENSOR, reduction=None)
        mix = GaussianMixture(np.zeros(3), np.zeros((3, 4)), np.stack([np.eye(4)] * 3))
        massless = update(FilterState(mix, rho), scan, SENSOR, reduction=None)
        np.testing.assert_array_equal(massless.cardinality.probs, empty.cardinality.probs)
        expected = (1.0 - SENSOR.p_d) ** np.arange(11) * rho.probs
        np.testing.assert_allclose(empty.cardinality.probs, expected / expected.sum(), rtol=1e-14)
        assert len(massless.intensity) == 3 * (M + 1) and not massless.intensity.w.any()
        reduced = update(FilterState(mix, rho), scan, SENSOR)
        assert len(reduced.intensity) == 0
        np.testing.assert_array_equal(reduced.cardinality.probs, empty.cardinality.probs)

    @pytest.mark.parametrize("J", [0, 2])
    def test_state_dimension_must_match_the_sensor(self, J):
        # A 2-d intensity under the 2 x 4 position sensor.
        mix = GaussianMixture(np.ones(J), np.zeros((J, 2)), np.tile(np.eye(2), (J, 1, 1)))
        state = FilterState(mix, CardinalityDistribution.poisson(1.0, 10))
        with pytest.raises(InvalidModelError, match="state dimension 2 does not match the sensor's 4"):
            update(state, np.array([[10.0, 10.0]]), SENSOR)

    def test_underflowed_normalizer_aborts(self):
        # A count distribution pinned at 20 targets with certain detection and
        # an empty scan is impossible: the update must fail loudly, not NaN.
        mix = GaussianMixture(np.array([20.0]), np.zeros((1, 4)), np.stack([np.eye(4)]))
        state = FilterState(mix, CardinalityDistribution.delta(20, 20))
        sensor = SensorModel.position_sensor(10.0, p_d=1.0, clutter_rate=1e-12, fov=FOV)
        with pytest.raises(NumericalError, match="zero likelihood under the predicted counts"):
            update(state, np.empty((0, 2)), sensor, reduction=None)

    def test_thousands_of_measurements_near_full_strength(self):
        # 3,000 measurements on one component's mean, all of one strength:
        # e_K is about C(3000, K) times its K-th power, past float64 from
        # K = 192 on, so the update once refused this scan as an ESF overflow.
        mix = GaussianMixture(np.array([1.0]), np.zeros((1, 4)), np.diag([100.0, 100.0, 25.0, 25.0])[None])
        state = FilterState(mix, CardinalityDistribution(np.ones(201), normalize=True))
        sensor = SensorModel.position_sensor(10.0, 0.95, 10.0, FOV)
        z = np.zeros((3000, 2))
        post = update(state, z, sensor, reduction=None)
        probs, w_miss = referee_count_update(state, z, sensor)
        assert_matches_referee(post.cardinality.probs, probs)
        np.testing.assert_allclose(post.intensity.w[:1], w_miss, rtol=1e-13, atol=0)

    def test_reduction_losses_trip_consistency_warning(self, caplog):
        state = two_target_state()
        scan = state.intensity.m[:, :2].copy()
        harsh = ReductionConfig(trunc_threshold=1.9, merge_threshold=4.0, max_components=100)
        with caplog.at_level(logging.WARNING, logger="spawncphd.filtering"):
            update(state, scan, SENSOR, reduction=harsh)
        assert any("consistency" in r.message for r in caplog.records)


def origin_target_in_clutter(clutter_rate=400.0):
    """One target at the origin and `clutter_rate` uniform clutter points,
    10 m noise."""
    state = FilterState(
        GaussianMixture(np.array([1.0]), np.zeros((1, 4)), np.diag([100.0, 100.0, 25.0, 25.0])[None]),
        CardinalityDistribution.poisson(1.0, 20),
    )
    sensor = SensorModel.position_sensor(10.0, 0.95, clutter_rate, FOV)
    clutter = np.random.default_rng(0).uniform(-1000.0, 1000.0, (int(clutter_rate), 2))
    return state, np.concatenate([[[0.0, 0.0]], clutter]), sensor


class TestCountUpdateRange:
    """Valid scenes whose count update failed while one global scale had to
    keep every degree weight u_c^(M-j) j! / s_w^j in float64 range."""

    def test_target_in_dense_clutter(self):
        # The scale 1/max(assoc) leaves u_c = 0.065: u_c ** 401 underflowed
        # the normalizer.
        post = update(*origin_target_in_clutter())
        n, means = extract_estimates(post)
        assert n == 1
        assert np.abs(means[0, :2]).max() < 10.0

    def test_target_in_clutter_2000(self):
        # The clutter rate of `dense_clutter` at 10 m noise, where that
        # workload runs 30 m: u_c = 0.66, and u_c ** 2001 underflowed. Counts 1
        # and 2 are near even here (0.378 and 0.387 by the referee), so the
        # check is the referee's pmf and the target's estimate ranked first.
        state, z, sensor = origin_target_in_clutter(2000.0)
        post = update(state, z, sensor)
        assert_matches_referee(post.cardinality.probs, referee_count_update(state, z, sensor)[0])
        assert np.abs(extract_estimates(post)[1][0, :2]).max() < 10.0

    def test_wide_count_little_mass_many_measurements(self):
        # j! / s_w^j overflowed at n_max 170 with s_w = 0.01 and 200 points.
        state = FilterState(
            GaussianMixture(np.array([0.01]), np.zeros((1, 4)), np.diag([100.0, 100.0, 25.0, 25.0])[None]),
            CardinalityDistribution.poisson(0.01, 170),
        )
        sensor = SensorModel.position_sensor(10.0, 0.95, 200.0, FOV)
        z = np.random.default_rng(0).uniform(-1000.0, 1000.0, (200, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            post = update(state, z, sensor, reduction=None)
        probs, w_miss = referee_count_update(state, z, sensor)
        assert_matches_referee(post.cardinality.probs, probs)
        np.testing.assert_allclose(post.intensity.w[0], w_miss[0], rtol=1e-13, atol=0)
        assert np.all(np.isfinite(post.intensity.w))


def measurements_on_one_mean(M):
    """One component with M measurements on its mean and a Poisson(1) count
    prior on 0..500, whose last nonzero entry is 1e-323 at n = 177."""
    mix = GaussianMixture(np.array([1.0]), np.zeros((1, 4)), np.diag([100.0, 100.0, 25.0, 25.0])[None])
    state = FilterState(mix, CardinalityDistribution.poisson(1.0, 500))
    return state, np.zeros((M, 2)), SensorModel.position_sensor(10.0, 0.95, 10.0, FOV)


class TestPriorTail:
    """Scans that favour counts far out in the prior's tail."""

    @pytest.mark.parametrize("M", [40, 100, 150])
    def test_matches_referee(self, M):
        # The posterior peaks at n = M, where the prior is 1e-49..1e-263.
        assert_update_matches_referee(*measurements_on_one_mean(M))

    @pytest.mark.parametrize("M", [170, 600])
    def test_subnormal_prior_mass_names_its_limit(self, M):
        # The referee's posterior rests on counts 170..177, whose prior mass
        # is subnormal (below 2.2e-308): refused by name, not as a zero
        # likelihood, and without an overflow warning.
        with pytest.raises(NumericalError, match="likelihood rests on prior count mass below float64's normal range"):
            update(*measurements_on_one_mean(M), reduction=None)


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

    @pytest.mark.parametrize("k", [2, 3])
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

    @pytest.mark.parametrize(
        "k, P",
        [
            (2, np.zeros((4, 4))),
            (3, np.zeros((4, 4))),
            (2, -100.0 * np.eye(4)),
            (3, -100.0 * np.eye(4)),
            (4, -100.0 * np.eye(4)),
            # Indefinite, with a positive diagonal and determinant.
            (4, 100.0 * np.kron(np.eye(2), [[1.0, 2.0], [2.0, 1.0]])),
            # Positive definite, but det S = 1e-400 underflows to 0.
            (2, 1e-200 * np.eye(4)),
            # cholesky passes a NaN on without raising.
            (2, np.full((4, 4), np.nan)),
        ],
        ids=[
            "2", "3", "2-negative", "3-negative", "4-negative", "4-indefinite", "2-underflow",
            "nan",
        ],
    )
    def test_singular_innovation_raises(self, k, P):
        # H = I and R = 0, so S = P[:k, :k]: positive definiteness is decided
        # for every measurement dimension, not only det S > 0. The failing
        # component sits between two healthy ones and is named.
        P = np.stack([100.0 * np.eye(4), P, 100.0 * np.eye(4)])
        mix = GaussianMixture(np.ones(3), np.zeros((3, 4)), P)
        state = FilterState(mix, CardinalityDistribution.poisson(1.0, 10))
        sensor = SensorModel(np.eye(k, 4), np.zeros((k, k)), 0.9, 10.0, FOV)
        with pytest.raises(NumericalError, match="^singular innovation covariance for component 1$"):
            update(state, np.zeros((1, k)), sensor, reduction=None)


def association_sum_update(state, z, sensor):
    """Posterior count pmf, miss weights and detection weights (measurement-
    major) by summing over every subset D of detected measurements and every
    ordered assignment of D to distinct targets, math.perm(n, |D|) of them.

    Given n targets drawn i.i.d. from the normalized intensity, the scan
    density is sum_D perm(n, d) p_d^d (1-p_d)^(n-d) prod_{z in D} g(z)
    times the clutter set density (M-d)! Pois(M-d) V^-(M-d); g(z) is the
    predicted-measurement density of the normalized intensity.
    """
    mix, H, R = state.intensity, sensor.H, sensor.R
    rho, p_d, V = state.cardinality.probs, sensor.p_d, sensor.fov.area
    M, J, s_w = z.shape[0], len(mix), mix.total_weight
    dens = np.array(
        [
            [stats.multivariate_normal.pdf(z[i], mean=H @ mix.m[j], cov=H @ mix.P[j] @ H.T + R)
             for j in range(J)]
            for i in range(M)
        ]
    ).reshape(M, J)
    g = dens @ mix.w / s_w
    total = 0.0
    counts = np.zeros(rho.shape[0])
    missed = 0.0  # expected number of missed targets, times total
    detected = np.zeros(M)  # probability that measurement i is a detection, times total
    for n in range(rho.shape[0]):
        for d in range(min(n, M) + 1):
            clutter = (
                math.factorial(M - d)
                * stats.poisson.pmf(M - d, sensor.clutter_rate)
                * V ** -(M - d)
            )
            for D in itertools.combinations(range(M), d):
                t = rho[n] * math.perm(n, d) * p_d**d * (1.0 - p_d) ** (n - d) * clutter
                t *= math.prod(g[i] for i in D)
                total += t
                counts[n] += t
                missed += (n - d) * t
                detected[list(D)] += t
    w_miss = mix.w * missed / (s_w * total)
    w_det = (dens * mix.w) / (s_w * g[:, None]) * (detected / total)[:, None]
    return counts / total, w_miss, w_det.reshape(-1)


class TestUpdateAssociationSum:
    """`update` against an explicit sum over measurement-to-target
    associations, an oracle that shares no arithmetic with the ESF tables."""

    @pytest.mark.parametrize("clutter_rate", [2.5, 0.0])
    @pytest.mark.parametrize("p_d", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("M", [0, 1, 2, 4])
    def test_matches_association_sum(self, M, p_d, clutter_rate):
        # Without clutter every measurement is a detection: n_max >= M, and
        # p_d = 0 leaves a nonempty scan no posterior.
        rng = np.random.default_rng(int(100 * p_d) + M)
        fov = Rect(-60.0, 60.0, -60.0, 60.0)
        for n_max in range(5) if clutter_rate else range(M, M + 5):
            J = int(rng.integers(1, 4))
            mix = GaussianMixture(
                rng.uniform(0.2, 1.5, size=J),
                np.column_stack([rng.uniform(-40.0, 40.0, size=(J, 2)), rng.normal(0.0, 3.0, size=(J, 2))]),
                np.stack([np.diag(rng.uniform([20.0, 20.0, 1.0, 1.0], [200.0, 200.0, 9.0, 9.0]))] * J),
            )
            state = FilterState(
                mix, CardinalityDistribution(rng.uniform(0.1, 1.0, size=n_max + 1), normalize=True)
            )
            sensor = SensorModel.position_sensor(8.0, p_d, clutter_rate, fov)
            z = rng.uniform(-50.0, 50.0, size=(M, 2))
            if clutter_rate == 0.0 and M > 0 and p_d == 0.0:
                with pytest.raises(NumericalError, match="zero likelihood"):
                    update(state, z, sensor, reduction=None)
                continue
            counts, w_miss, w_det = association_sum_update(state, z, sensor)
            post = update(state, z, sensor, reduction=None)
            np.testing.assert_allclose(post.cardinality.probs, counts, rtol=1e-12, atol=0)
            np.testing.assert_allclose(post.intensity.w[:J], w_miss, rtol=1e-12, atol=0)
            expected_det = w_det if p_d > 0.0 else np.empty(0)
            np.testing.assert_allclose(post.intensity.w[J:], expected_det, rtol=1e-12, atol=0)


def referee_count_update(state, z, sensor):
    """Posterior count pmf and miss weights of the CPHD update at 50 digits.

    Formed from the float inputs: Gaussian likelihoods, association strengths
    p_d V sum_j w_j g_j(z_i), their ESF e_j by the plain recursion, and the
    sums of Vo, Vo & Cantoni (IEEE TSP 55(7), 2007) over degrees j,
    ups0(n) = sum_j lam_c^(M-j) n!/(n-j)! (1-p_d)^(n-j) e_j / s_w^j and
    ups1(n) = sum_j lam_c^(M-j) n!/(n-j-1)! (1-p_d)^(n-j-1) e_j / s_w^(j+1),
    the common clutter factor exp(-lam_c) left out. Returns (probs, w_miss)
    as floats, or None when every term of the normalizer is zero.
    """
    mix, H, R = state.intensity, sensor.H, sensor.R
    rho = state.cardinality.probs
    N, M, k = rho.shape[0] - 1, z.shape[0], H.shape[0]
    K = min(M, N)
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        p_d, lam = mpf(sensor.p_d), mpf(sensor.clutter_rate)
        qd, V = 1 - p_d, mpf(sensor.fov.area)
        w = [mpf(v) for v in mix.w]
        s_w = sum(w)
        comps = []  # (w_j, H m_j, S_j^-1, normalizer) per component
        for j in range(len(mix)):
            S = mpmath.matrix(H.tolist()) * mpmath.matrix(mix.P[j].tolist()) * mpmath.matrix(H.T.tolist())
            S += mpmath.matrix(R.tolist())
            Sinv = S**-1
            comps.append((
                w[j],
                [mpmath.fsum(mpf(a) * mpf(b) for a, b in zip(row, mix.m[j])) for row in H],
                [[Sinv[a, b] for b in range(k)] for a in range(k)],
                mpmath.sqrt((2 * mpmath.pi) ** k * mpmath.det(S)),
            ))
        e = [mpf(1)] + [mpf(0)] * K
        for zi in z:
            g = 0
            for wj, Hm, Sinv, nrm in comps:
                d = [mpf(a) - b for a, b in zip(zi, Hm)]
                quad = mpmath.fsum(d[a] * Sinv[a][b] * d[b] for a in range(k) for b in range(k))
                g += wj * mpmath.exp(-quad / 2) / nrm
            x = p_d * V * g
            e = e[:1] + [a + x * b for a, b in zip(e[1:], e[:-1])]  # e_k += x e_(k-1), old e
        c = [lam ** (M - j) * e[j] / s_w**j for j in range(K + 1)]
        qd_pow = [qd**i for i in range(N + 1)]
        ups0 = [mpmath.fsum(c[j] * math.perm(n, j) * qd_pow[n - j] for j in range(min(n, K) + 1))
                for n in range(N + 1)]
        ups1 = [mpmath.fsum(c[j] * math.perm(n, j + 1) * qd_pow[n - j - 1] for j in range(min(n - 1, K) + 1))
                for n in range(N + 1)]
        rho_mp = [mpf(r) for r in rho]
        den = mpmath.fsum(r * a for r, a in zip(rho_mp, ups0))
        if den == 0:
            return None
        r_miss = mpmath.fsum(r * b for r, b in zip(rho_mp, ups1)) / (s_w * den)
        probs = np.array([float(r * a / den) for r, a in zip(rho_mp, ups0)])
        return probs, np.array([float(r_miss * qd * wj) for wj in w])


def assert_matches_referee(got, probs):
    """A count pmf within 1e-13 of the referee's. Entries below 1e-280 are
    compared absolutely: there the float ESF underflows."""
    tiny = probs < 1e-280
    np.testing.assert_allclose(got[~tiny], probs[~tiny], rtol=1e-13, atol=0)
    np.testing.assert_allclose(got[tiny], probs[tiny], rtol=0, atol=1e-280)


def referee_scene(M, n_max, p_d, clutter_rate, s_w, seed):
    """Three components of total weight s_w, a random count prior on
    0..n_max, and M measurements each drawn near a component, within reach
    of float64 likelihoods."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 1.0, 3)
    m = np.column_stack([rng.uniform(-60.0, 60.0, (3, 2)), rng.normal(0.0, 3.0, (3, 2))])
    mix = GaussianMixture(w * (s_w / w.sum()), m, np.stack([np.diag([50.0, 50.0, 4.0, 4.0])] * 3))
    rho = CardinalityDistribution(rng.uniform(0.1, 1.0, n_max + 1), normalize=True)
    sensor = SensorModel.position_sensor(8.0, p_d, clutter_rate, Rect(-100.0, 100.0, -100.0, 100.0))
    z = m[rng.integers(0, 3, M), :2] + rng.normal(0.0, 15.0, (M, 2))
    return FilterState(mix, rho), z, sensor


def assert_update_matches_referee(state, z, sensor):
    """The exact posterior's count pmf and miss weights against the referee,
    or the typed error of a scene without a posterior."""
    ref = referee_count_update(state, z, sensor)
    if ref is None:  # more measurements than counts, and no clutter
        with pytest.raises(NumericalError, match="zero likelihood"):
            update(state, z, sensor, reduction=None)
        return
    post = update(state, z, sensor, reduction=None)
    assert_matches_referee(post.cardinality.probs, ref[0])
    np.testing.assert_allclose(post.intensity.w[: ref[1].shape[0]], ref[1], rtol=1e-13, atol=0)


class TestCountReferee:
    """`update` against the 50-digit referee, over count ranges past 170,
    intensity masses from 1e-6 to 1e3, and the ends of p_d and clutter."""

    @pytest.mark.parametrize("clutter_rate", [0.0, 2.5, 2000.0])
    @pytest.mark.parametrize("p_d", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n_max", [0, 20, 171, 200])
    def test_grid(self, n_max, p_d, clutter_rate):
        for seed, (M, s_w) in enumerate(itertools.product([0, 3, 12], [1e-6, 1.0, 1e3])):
            assert_update_matches_referee(*referee_scene(M, n_max, p_d, clutter_rate, s_w, seed))

    @given(
        st.integers(0, 8),
        st.integers(0, 200),
        st.floats(0.0, 1.0),
        st.floats(0.0, 2000.0),
        st.floats(-6.0, 3.0),
        st.integers(0, 2**32 - 1),
    )
    def test_property(self, M, n_max, p_d, clutter_rate, log_s_w, seed):
        assert_update_matches_referee(*referee_scene(M, n_max, p_d, clutter_rate, 10.0**log_s_w, seed))


def referee_count_outputs(rho, assoc, lam_c, s_w, qd):
    """`count_update`'s counts, miss ratio and detection factors g_i at 50
    digits, from its inputs alone:
    with e_j the ESF of the strengths and den = sum_n rho(n) ups0(n),
    ups0(n) = sum_j lam^(M-j) n!/(n-j)! qd^(n-j) e_j / s_w^j,
    r_miss = sum_n rho(n) sum_j lam^(M-j) n!/(n-j-1)! qd^(n-j-1) e_j / s_w^(j+1) / den,
    g_i = sum_n rho(n) sum_j lam^(M-1-j) n!/(n-j-1)! qd^(n-j-1) e_j(assoc without i) / s_w^(j+1) / den.
    The sums over n are taken per degree first. Returns (probs, r_miss, g)
    as floats."""
    N, M = rho.shape[0] - 1, assoc.shape[0]
    K = min(M, N)
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        lam, qd, s_w = mpf(lam_c), mpf(qd), mpf(s_w)
        a, rho_mp = [mpf(v) for v in assoc], [mpf(r) for r in rho]

        def esf(vals):
            e = [mpf(1)] + [mpf(0)] * K
            for v in vals:
                e = e[:1] + [a + v * b for a, b in zip(e[1:], e[:-1])]  # e_k += v e_(k-1), old e
            return e

        qd_pow = [qd**i for i in range(N + 1)]
        # P1[j] = sum_n rho(n) n!/(n-j-1)! qd^(n-j-1)
        P1 = [mpmath.fsum(rho_mp[n] * math.perm(n, j + 1) * qd_pow[n - j - 1] for n in range(j + 1, N + 1))
              for j in range(K + 1)]
        e = esf(a)
        c = [lam ** (M - j) * e[j] / s_w**j for j in range(K + 1)]
        ups0 = [mpmath.fsum(c[j] * math.perm(n, j) * qd_pow[n - j] for j in range(min(n, K) + 1))
                for n in range(N + 1)]
        den = mpmath.fsum(r * u for r, u in zip(rho_mp, ups0))
        r_miss = mpmath.fsum(c[j] * P1[j] for j in range(K + 1)) / (s_w * den)
        loo = {}  # equal strengths share their leave-one-out ESF
        for i in range(M):
            if assoc[i] not in loo:
                e_i = esf(a[:i] + a[i + 1 :])
                loo[assoc[i]] = mpmath.fsum(lam ** (M - 1 - j) * e_i[j] * P1[j] / s_w ** (j + 1)
                                            for j in range(min(K, M - 1) + 1)) / den
        g = [loo[v] for v in assoc]
        probs = np.array([float(r * u / den) for r, u in zip(rho_mp, ups0)])
        return probs, float(r_miss), np.array([float(v) for v in g])


class TestCountUpdateReferee:
    """`count_update`'s posterior counts, miss ratio and detection factors
    against the 50-digit referee, past float64 factorials in n_max."""

    @pytest.mark.parametrize("lam_c", [0.0, 0.5, 5.0])
    @pytest.mark.parametrize("n_max", [20, 100, 200, 500])
    def test_grid(self, n_max, lam_c):
        rng = np.random.default_rng(n_max + int(10 * lam_c))
        for M, qd in [(0, 0.5), (1, 1.0), (7, 0.05), (20, 0.0), (20, 0.7)]:
            rho = CardinalityDistribution(rng.uniform(0.1, 1.0, n_max + 1), normalize=True)
            assoc = 10.0 ** rng.uniform(-3.0, 2.0, M)
            s_w = 10.0 ** rng.uniform(-2.0, 2.0)
            ref = referee_count_outputs(rho.probs, assoc, lam_c, s_w, qd)
            got, r_miss, g = count_update(rho, assoc, lam_c, s_w, qd)
            assert_matches_referee(got.probs, ref[0])
            assert_matches_referee(np.array([r_miss]), np.array([ref[1]]))
            assert g.shape == (M,)
            assert_matches_referee(g, ref[2])

    @pytest.mark.parametrize(
        "n_max, M, rate",
        [
            (100, 55, 8.0),
            (100, 55, 100.0),
            (500, 120, 8.0),
            (500, 120, 100.0),
        ],
    )
    def test_intensity_mass_far_below_the_count_mean(self, n_max, M, rate):
        # Strengths scale with the intensity mass s_w; the count prior does
        # not. At ratios s_w / mean of 1e-4 and below every g was once 0.
        rng = np.random.default_rng(0)
        rho = CardinalityDistribution.poisson(rate, n_max)
        base = rng.choice(10.0 ** rng.uniform(-3.0, 3.0, 4), M)  # few distinct strengths: a cheap referee
        for ratio in [1.0, 1e-2, 1e-4, 1e-6, 1e-8]:
            s_w = ratio * rho.mean
            ref = referee_count_outputs(rho.probs, ratio * base, M / 2.0, s_w, 0.05)
            got, r_miss, g = count_update(rho, ratio * base, M / 2.0, s_w, 0.05)
            assert_matches_referee(g, ref[2])
            assert_matches_referee(np.array([r_miss]), np.array([ref[1]]))
            assert_matches_referee(got.probs, ref[0])

    @pytest.mark.parametrize("assoc", [[1e-250], [1.0, 1e-250]])
    def test_strengths_hundreds_of_decades_apart(self, assoc):
        # Clutter-free with p_d = 1, so g_i = 1 / assoc_i: entries of the
        # leave-one-out Hankel matrix reach 2^830. Capped at 2^600, they once
        # gave g 1e70 times too small.
        rho, assoc = CardinalityDistribution.poisson(2.0, 10), np.array(assoc)
        ref = referee_count_outputs(rho.probs, assoc, 0.0, 1.0, 0.0)
        got, r_miss, g = count_update(rho, assoc, 0.0, 1.0, 0.0)
        assert_matches_referee(g, ref[2])
        assert_matches_referee(np.array([r_miss]), np.array([ref[1]]))
        assert_matches_referee(got.probs, ref[0])

    @pytest.mark.parametrize("assoc", [[1.0, 1e-320], [0.5, 1e-200, 1e-120]])
    def test_contraction_overflow_names_its_limit(self, assoc):
        # g_i = 1 / assoc_i again: 1e320 is past float64, and 1e200 and
        # 1e120 come from Hankel entries past it. Refused by name.
        rho = CardinalityDistribution.poisson(2.0, 10)
        with pytest.raises(NumericalError, match=f"{len(assoc)} association strengths span too many decades for float64"):
            count_update(rho, np.array(assoc), 0.0, 1.0, 0.0)


def reference_update(
    state: FilterState,
    scan,
    sensor: SensorModel,
    reduction: ReductionConfig | None = DEFAULT_REDUCTION,
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
    # Leave-one-out contraction: prefix table times the Hankel matrix of
    # Cm @ rho, dotted row-wise with the suffix table.
    PR, SF = esf_rows(u, K_deg), esf_rows(u[::-1], K_deg)[::-1]
    t = np.arange(K_deg + 1)
    deg = t[:, None] + t[None, :]
    Hc = np.where(deg <= K_deg, (Cm @ rho)[np.minimum(deg, K_deg)], 0.0)
    e_full, loo_c = PR[M], ((PR[:M] @ Hc) * SF[1:]).sum(axis=1)
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


def assert_same_weights(got, ref, gain=1.0):
    """Weights within 1e-13 of each other. Below float64's smallest normal
    times `gain` they are compared absolutely, at 16 subnormal steps times
    `gain`: a product that is subnormal keeps fewer bits, set by the order
    in which its factors are multiplied, and later factors of up to `gain`
    carry its error along."""
    tiny = ref < np.finfo(float).tiny * gain
    np.testing.assert_allclose(got[~tiny], ref[~tiny], rtol=1e-13, atol=0)
    np.testing.assert_allclose(got[tiny], ref[tiny], rtol=0, atol=16 * 2.0**-1074 * gain)


def assert_same_update(state, scan, sensor, reduction, refereed=False):
    # The count tables are rows of the binomial table times per-degree powers
    # of two where the reference forms n!/(n-j)!, so outputs agree to
    # rounding, not bit for bit. Means and covariances are compared relative
    # to each component's largest entry: merging cancels some entries to
    # rounding noise near 1e-29. A reduced posterior lists its rows by
    # weight, so rows whose weights tie to that rtol come in an order set by
    # the last bits of the count arithmetic: within each run of tied weights
    # the rows are compared in the order of their means. Where the
    # reference's count pmf is wrong (`refereed`), the referee judges both
    # at the same rtol, subnormal entries included.
    got = update(state, scan, sensor, reduction=reduction)
    ref = reference_update(state, scan, sensor, reduction=reduction)
    assert len(got.intensity) == len(ref.intensity)
    assert_same_weights(got.intensity.w, ref.intensity.w)
    if refereed:
        probs, _ = referee_count_update(state, scan, sensor)
        np.testing.assert_allclose(got.cardinality.probs, probs, rtol=1e-13, atol=0)
        with pytest.raises(AssertionError):
            np.testing.assert_allclose(ref.cardinality.probs, probs, rtol=1e-13, atol=0)
    else:
        np.testing.assert_allclose(got.cardinality.probs, ref.cardinality.probs, rtol=1e-13, atol=0)
    w = ref.intensity.w
    run = np.cumsum(~np.isclose(w, np.r_[w[:1], w[:-1]], rtol=1e-13, atol=0))
    g, r = (np.lexsort((*mix.m.T[::-1], run)) for mix in (got.intensity, ref.intensity))
    for a, b in [(got.intensity.m[g], ref.intensity.m[r]), (got.intensity.P[g], ref.intensity.P[r])]:
        scale = np.abs(b).max(axis=tuple(range(1, b.ndim)), keepdims=True, initial=0.0)
        assert np.all(np.abs(a - b) <= 1e-13 * scale)


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
            for p_d in (0.0, 0.9, 1.0)
            for n_max in (20, 100)
        ],
    )
    def test_matches_reference(self, reduction, k, J, M, p_d, n_max):
        state, scan, sensor = update_scene(
            J, M, k, p_d, M + 50.0, seed=J * 1000 + M + k, n_max=n_max
        )
        # In these scenes the reference's count terms underflow (k = 2), or
        # its pmf entry 1.6e-317 at n = 56 lands 15 subnormal steps off the
        # referee's (k = 3, J = 40), where `update` rounds it exactly.
        refereed = (p_d, n_max, M) == (1.0, 100, 400) and (k == 2 or J == 40)
        assert_same_update(state, scan, sensor, reduction, refereed)

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


class TestUpdateScaleInvariance:
    """The count pmf and the posterior intensity are homogeneous of degree 0
    in the predicted intensity's weights (Vo, Vo & Cantoni, 2007)."""

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-8.0, 8.0), st.integers(0, 2**32 - 1))
    def test_weight_scale_leaves_the_exact_update(self, log_c, seed):
        state, z, sensor = update_scene(30, 70, 2, 0.95, 70.0, seed, n_max=60)
        mix, c = state.intensity, 10.0**log_c
        scaled = FilterState(GaussianMixture(c * mix.w, mix.m, mix.P), state.cardinality)
        ref = update(state, z, sensor, reduction=None)
        got = update(scaled, z, sensor, reduction=None)
        np.testing.assert_allclose(got.cardinality.probs, ref.cardinality.probs, rtol=1e-13, atol=0)
        # A detection weight is (w_j q_ji) p_d V g_i, formed left to right,
        # with g_i <= 1 here: where w_j q_ji or c w_j q_ji is subnormal its
        # rounding depends on the scale.
        gain = sensor.p_d * sensor.fov.area / min(c, 1.0)
        assert_same_weights(got.intensity.w, ref.intensity.w, gain=gain)


class TestUpdatePairBlocks:
    @REDUCTIONS
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("p_d", [0.9, 1.0])
    @pytest.mark.parametrize("M", [0, 2000])
    def test_block_size_leaves_every_bit(self, monkeypatch, reduction, k, p_d, M):
        # J * M = 80,000 pairs: the default block holds 16 components, so the
        # last block is short; a block of 1 pair still holds one component.
        state, scan, sensor = update_scene(40, M, k, p_d, M + 50.0, seed=M + k)
        outs = []
        for block in (1, filtering._PAIR_BLOCK, 1 << 40):
            monkeypatch.setattr(filtering, "_PAIR_BLOCK", block)
            post = update(state, scan, sensor, reduction=reduction)
            outs.append((post.intensity.w, post.intensity.m, post.intensity.P, post.cardinality.probs))
        for got in outs[1:]:
            for a, b in zip(got, outs[0]):
                assert np.array_equal(a, b)

    def test_peak_memory_per_pair(self):
        # 150 components x 3,150 measurements (3,000 of them uniform clutter).
        # The update keeps the likelihood and weight tables, 16 bytes a pair,
        # and reduces the kept pairs; it measured 10.3 MB here, 21.7 bytes a
        # pair. Whole (J, M, k) innovation tables held through the reduction
        # measured 27.2 MB, above the bound.
        J, M = 150, 3150
        state, scan, sensor = update_scene(J, M, 2, 0.95, 3000.0, seed=13)
        update(state, scan, sensor)  # fill the count-table caches
        tracemalloc.start()
        try:
            update(state, scan, sensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * J * M + 6_000_000


class TestUpdateMemory:
    def test_exact_posterior_is_assembled_once(self, traced_peak):
        # 150 components x 3,150 measurements (3,000 of them uniform clutter),
        # no reduction: the returned mixture is 168 bytes a pair. The update
        # writes it into arrays allocated once and measured 94.7 MB here, 200
        # bytes a pair. Assembling the detections apart and concatenating them
        # behind the missed detections measured 175.1 MB, 371 bytes a pair.
        J, M = 150, 3150
        state, scan, sensor = update_scene(J, M, 2, 0.95, 3000.0, seed=13)
        update(state, scan, sensor, reduction=None)  # fill the count-table caches
        peak = traced_peak(update, state, scan, sensor, reduction=None)
        assert peak < 192 * J * M + 12_000_000


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

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(InvalidModelError):
            MotionModel.constant_velocity(1.0, 5.0, p_s=1.5)
        with pytest.raises(InvalidModelError):
            SensorModel.position_sensor(10.0, p_d=-0.1, clutter_rate=50.0, fov=FOV)
        with pytest.raises(InvalidModelError, match="clutter rate"):
            SensorModel.position_sensor(10.0, p_d=0.9, clutter_rate=math.inf, fov=FOV)
