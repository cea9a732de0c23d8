"""Gaussian mixture algebra against hand-derived and direct-formula oracles."""

import math

import numpy as np
import pytest

from spawncphd.errors import InvalidModelError
from spawncphd.filtering import MotionModel, Rect, SensorModel
from spawncphd.gaussian import (
    GaussianMixture,
    ReductionConfig,
    reduce_mixture,
    transform_mixture,
)
from spawncphd.spawning import SpawnSpatialModel

CV_F = np.array(
    [
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def random_mixture(rng, n, dim=4, weight_scale=1.0):
    w = rng.uniform(0.05, 1.0, size=n) * weight_scale
    m = rng.normal(0.0, 10.0, size=(n, dim))
    P = np.empty((n, dim, dim))
    for i in range(n):
        A = rng.normal(0.0, 1.0, size=(dim, dim))
        P[i] = A @ A.T + 0.5 * np.eye(dim)
    return GaussianMixture(w, m, P)


def one_component(w, m, P):
    return GaussianMixture(np.array([w]), np.asarray(m, float)[None], np.asarray(P, float)[None])


class TestAffineTransform:
    def test_constant_velocity_step_hand_values(self):
        # x' = F x with unit timestep moves position by velocity, nothing else.
        c = one_component(0.5, [1.0, 2.0, 3.0, 4.0], np.eye(4))
        out = transform_mixture(c, CV_F, np.zeros(4), np.zeros((4, 4)), scale=0.99)
        assert out.w[0] == pytest.approx(0.495, rel=1e-15)
        np.testing.assert_array_equal(out.m[0], [4.0, 6.0, 3.0, 4.0])
        expected_cov = np.array(
            [
                [2.0, 0.0, 1.0, 0.0],
                [0.0, 2.0, 0.0, 1.0],
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_allclose(out.P[0], expected_cov, atol=1e-15)

    def test_offset_and_noise(self):
        c = one_component(1.0, np.zeros(4), np.zeros((4, 4)))
        Q = np.diag([4.0, 4.0, 1.0, 1.0])
        out = transform_mixture(c, np.eye(4), np.array([1.0, 1.0, 0.0, 0.0]), Q, 1.0)
        np.testing.assert_array_equal(out.m[0], [1.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(out.P[0], Q, atol=0.0)

    def test_random_cases_match_direct_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dim = 4
            c = random_mixture(rng, 1, dim)
            F = rng.normal(size=(dim, dim))
            d = rng.normal(size=dim)
            A = rng.normal(size=(dim, dim))
            Q = A @ A.T
            s = rng.uniform(0.1, 2.0)
            out = transform_mixture(c, F, d, Q, s)
            np.testing.assert_allclose(out.w[0], s * c.w[0], rtol=1e-14)
            np.testing.assert_allclose(out.m[0], F @ c.m[0] + d, rtol=1e-12)
            np.testing.assert_allclose(out.P[0], F @ c.P[0] @ F.T + Q, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(out.P[0], out.P[0].T, atol=0.0)

    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda Q: MotionModel(np.eye(4), Q, 0.9), "process noise covariance"),
            (
                lambda Q: SpawnSpatialModel(
                    np.array([0.5, 0.5]), np.stack([np.eye(4)] * 2), np.zeros((2, 4)),
                    np.stack([np.eye(4), Q]),
                ),
                "spawn kernel covariance term 1",
            ),
            (
                lambda Q: SensorModel(np.eye(2, 4), Q[2:, 2:], 0.9, 1.0, Rect(0.0, 1.0, 0.0, 1.0)),
                "measurement noise covariance",
            ),
        ],
        ids=["motion", "spawn-kernel", "sensor"],
    )
    def test_models_refuse_non_psd_noise_when_built(self, build, what):
        # transform_mixture takes Q as given; each model that supplies one
        # checks it once, at construction. A NaN entry passes np.linalg.cholesky
        # without an error, so it is refused on its own.
        for Q in (np.diag([1.0, 1.0, 1.0, -1.0]), np.diag([1.0, 1.0, 1.0, np.nan])):
            with pytest.raises(InvalidModelError, match=f"^{what} is not positive semidefinite$"):
                build(Q)

    def test_stacked_terms_are_component_major(self):
        # F, d, Q and scale each hold one term or a stack of T; term t of the
        # stacked push is, bit for bit, the single-term push of that term.
        rng = np.random.default_rng(23)
        mix = random_mixture(rng, 5)
        B = rng.normal(size=(3, 4, 4))
        d, Q, s = rng.normal(size=(3, 4)), B @ np.transpose(B, (0, 2, 1)), rng.uniform(size=3)
        F = np.eye(4) + rng.normal(0.0, 0.2, size=(3, 4, 4))
        for Fs in (F, F[0]):
            out = transform_mixture(mix, Fs, d, Q, s)
            assert len(out) == 15
            for t in range(3):
                ref = transform_mixture(mix, F[t] if Fs.ndim == 3 else Fs, d[t], Q[t], s[t])
                np.testing.assert_array_equal(out.w[t::3], ref.w)
                np.testing.assert_array_equal(out.m[t::3], ref.m)
                np.testing.assert_array_equal(out.P[t::3], ref.P)

    def test_mixture_transform_matches_componentwise(self):
        rng = np.random.default_rng(11)
        mix = random_mixture(rng, 6)
        Q = np.diag([1.0, 1.0, 0.25, 0.25])
        out = transform_mixture(mix, CV_F, np.zeros(4), Q, 0.9)
        assert len(out) == len(mix)
        for j in range(len(mix)):
            np.testing.assert_allclose(out.w[j], 0.9 * mix.w[j], rtol=1e-14)
            np.testing.assert_allclose(out.m[j], CV_F @ mix.m[j], rtol=1e-13)
            np.testing.assert_allclose(
                out.P[j], CV_F @ mix.P[j] @ CV_F.T + Q, rtol=1e-12, atol=1e-14
            )


class TestReduce:
    def test_truncation_drops_light_components(self):
        mix = GaussianMixture(
            np.array([0.5, 1e-6]),
            np.array([[0.0] * 4, [50.0, 50.0, 0.0, 0.0]]),
            np.stack([np.eye(4)] * 2),
        )
        out = reduce_mixture(mix, ReductionConfig(1e-5, 4.0, 100))
        assert len(out) == 1
        assert out.w[0] == 0.5

    def test_merge_of_identical_components(self):
        m = np.array([1.0, 2.0, 0.5, -0.5])
        mix = GaussianMixture(
            np.array([0.3, 0.3]), np.stack([m, m]), np.stack([np.eye(4)] * 2)
        )
        out = reduce_mixture(mix, ReductionConfig(1e-5, 4.0, 100))
        assert len(out) == 1
        assert out.w[0] == pytest.approx(0.6, abs=0.0)
        np.testing.assert_allclose(out.m[0], m, atol=0.0)
        np.testing.assert_allclose(out.P[0], np.eye(4), atol=1e-15)

    def test_moment_matched_merge_hand_values(self):
        # Equal weights at +-1 around their midpoint with unit covariance merge
        # to mean 1 and covariance 1 + 1 (spread term), in a 1-d state space.
        mix = GaussianMixture(
            np.array([1.0, 1.0]),
            np.array([[0.0], [2.0]]),
            np.array([[[1.0]], [[1.0]]]),
        )
        out = reduce_mixture(mix, ReductionConfig(0.0, 10.0, 100))
        assert len(out) == 1
        assert out.w[0] == pytest.approx(2.0, abs=0.0)
        assert out.m[0, 0] == pytest.approx(1.0, abs=0.0)
        assert out.P[0, 0, 0] == pytest.approx(2.0, rel=1e-14)

    def test_cluster_merges_into_heaviest(self):
        # Three components within the merge gate of the heaviest become one.
        mix = GaussianMixture(
            np.array([0.6, 0.25, 0.15, 0.4]),
            np.array(
                [
                    [0.0, 0.0, 0.0, 0.0],
                    [1.0, 0.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 0.0],
                    [200.0, 200.0, 0.0, 0.0],
                ]
            ),
            np.stack([np.eye(4)] * 4),
        )
        out = reduce_mixture(mix, ReductionConfig(1e-5, 4.0, 100))
        assert len(out) == 2
        assert out.w[0] == pytest.approx(1.0, rel=1e-15)  # 0.6 + 0.25 + 0.15
        assert out.w[1] == pytest.approx(0.4, abs=0.0)

    def test_merge_conserves_weight(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            mix = random_mixture(rng, rng.integers(1, 40))
            out = reduce_mixture(mix, ReductionConfig(0.0, 6.0, 10_000))
            np.testing.assert_allclose(
                out.total_weight, mix.total_weight, rtol=1e-12
            )

    def test_merge_preserves_first_two_moments(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            mix = random_mixture(rng, 12)
            out = reduce_mixture(mix, ReductionConfig(0.0, 50.0, 10_000))
            np.testing.assert_allclose(
                np.einsum("j,jd->d", out.w, out.m),
                np.einsum("j,jd->d", mix.w, mix.m),
                rtol=1e-10,
                atol=1e-10,
            )
            second = lambda g: np.einsum("j,jde->de", g.w, g.P) + np.einsum(
                "j,jd,je->de", g.w, g.m, g.m
            )
            np.testing.assert_allclose(second(out), second(mix), rtol=1e-9, atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(41)
        cfg = ReductionConfig(1e-3, 4.0, 8)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            mix = random_mixture(rng, n)
            # half the cases get tight clusters to force real merging
            if rng.random() < 0.5:
                mix.m[n // 2 :] = mix.m[0] + rng.normal(0.0, 0.3, size=(n - n // 2, 4))
            once = reduce_mixture(mix, cfg)
            twice = reduce_mixture(once, cfg)
            assert np.array_equal(once.w, twice.w)
            assert np.array_equal(once.m, twice.m)
            assert np.array_equal(once.P, twice.P)

    def test_prune_keeps_heaviest(self):
        mix = GaussianMixture(
            np.array([0.1, 0.4, 0.2, 0.3]),
            np.array([[0.0, 0.0, 0.0, 0.0], [500.0, 0, 0, 0], [0, 500.0, 0, 0], [500.0, 500.0, 0, 0]]),
            np.stack([np.eye(4)] * 4),
        )
        out = reduce_mixture(mix, ReductionConfig(0.0, 4.0, 2))
        np.testing.assert_array_equal(out.w, [0.4, 0.3])

    def test_empty_input(self):
        mix = GaussianMixture.empty(4)
        out = reduce_mixture(mix, ReductionConfig(1e-5, 4.0, 100))
        assert len(out) == 0

    def test_output_covs_symmetric(self):
        rng = np.random.default_rng(43)
        mix = random_mixture(rng, 25)
        out = reduce_mixture(mix, ReductionConfig(1e-4, 10.0, 10))
        np.testing.assert_array_equal(out.P, np.transpose(out.P, (0, 2, 1)))


class TestReductionConfig:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"max_components": 0}, "max_components"),
            ({"max_components": 2.5}, "max_components"),
            ({"trunc_threshold": math.nan}, "trunc_threshold"),
            ({"trunc_threshold": -5.0}, "trunc_threshold"),
            ({"merge_threshold": -1.0}, "merge_threshold"),
            ({"merge_threshold": math.inf}, "merge_threshold"),
            ({"max_components": True}, "max_components"),
        ],
    )
    def test_out_of_range_rejected(self, kwargs, field):
        args = {"trunc_threshold": 1e-5, "merge_threshold": 4.0, "max_components": 100, **kwargs}
        with pytest.raises(InvalidModelError, match=field):
            ReductionConfig(**args)

    def test_boundary_values_accepted(self):
        cfg = ReductionConfig(0.0, 0.0, 1)
        rng = np.random.default_rng(17)
        out = reduce_mixture(random_mixture(rng, 6), cfg)
        assert len(out) == 1


class TestMixtureType:
    def test_total_weight_left_to_right(self):
        # Bitwise equal to an explicit sequential accumulation; a pairwise
        # summation would almost surely differ on 1000 random terms.
        rng = np.random.default_rng(3)
        w = rng.uniform(0.0, 1.0, size=1000)
        mix = GaussianMixture(w, np.zeros((1000, 1)), np.ones((1000, 1, 1)))
        acc = 0.0
        for v in w:
            acc += float(v)
        assert mix.total_weight == acc

    def test_concat_preserves_order_and_dim(self):
        rng = np.random.default_rng(11)
        a, b = random_mixture(rng, 3), random_mixture(rng, 2)
        cat = GaussianMixture.concat([a, GaussianMixture.empty(4), b])
        assert len(cat) == 5
        np.testing.assert_array_equal(cat.w, np.concatenate([a.w, b.w]))
        np.testing.assert_array_equal(cat.m[3:], b.m)
        with pytest.raises(InvalidModelError):
            GaussianMixture.concat([a, random_mixture(rng, 1, dim=2)])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidModelError):
            GaussianMixture(np.array([-0.1]), np.zeros((1, 4)), np.stack([np.eye(4)]))

