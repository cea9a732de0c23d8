"""Spawn models against closed-form pmf oracles built from scipy.stats.

The oracle route composes survival and brood-size laws directly:
P(i successors) = (1-p_s) P(brood = i) + p_s P(brood = i-1).
"""

import numpy as np
import pytest
from scipy import stats

from spawncphd.errors import InvalidModelError
from spawncphd.gaussian import GaussianMixture, transform_mixture
from spawncphd.spawning import (
    BernoulliSpawn,
    PoissonSpawn,
    SpawnSpatialModel,
    ZeroInflatedPoissonSpawn,
    bell_coefficients,
    spawn_intensity,
    unit_spawn_kernel,
)

KERNEL = unit_spawn_kernel(4)


def brood_pmf(model, n_max):
    """Daughter-count pmf of a spawn model, via scipy."""
    k = np.arange(n_max + 1)
    if isinstance(model, BernoulliSpawn):
        return stats.bernoulli.pmf(np.clip(k, 0, 1), model.prob) * (k <= 1)
    if isinstance(model, PoissonSpawn):
        return stats.poisson.pmf(k, model.rate)
    pmf = model.prob * stats.poisson.pmf(k, model.rate)
    pmf[0] += 1.0 - model.prob
    return pmf


def successor_pmf(model, p_s, n_max):
    brood = brood_pmf(model, n_max)
    out = (1.0 - p_s) * brood
    out[1:] += p_s * brood[:-1]
    return out


class TestBellCoefficients:
    def test_bernoulli_hand_values(self):
        b = bell_coefficients(BernoulliSpawn(0.01, KERNEL), 0.99, 20)
        np.testing.assert_allclose(b.b[0], 0.0099, rtol=1e-14)
        np.testing.assert_allclose(b.b[1], 0.9802, rtol=1e-14)
        np.testing.assert_allclose(b.b[2], 0.0198, rtol=1e-14)
        np.testing.assert_array_equal(b.b[3:], 0.0)

    def test_poisson_with_certain_death_is_pure_poisson(self):
        # p_s = 0 leaves only the brood: b_i/i! must be the Poisson pmf.
        b = bell_coefficients(PoissonSpawn(0.7, KERNEL), 0.0, 20)
        np.testing.assert_allclose(
            b.pmf, stats.poisson.pmf(np.arange(21), 0.7), rtol=1e-12
        )

    # n_max 1 cuts Bernoulli's b[2]; n_max 0 leaves only b[0].
    @pytest.mark.parametrize(
        "model, n_max",
        [
            pytest.param(model, n_max, id=f"model{i}" + ("" if n_max == 20 else f"-n_max{n_max}"))
            for i, model in enumerate(
                [
                    BernoulliSpawn(0.01, KERNEL),
                    BernoulliSpawn(0.6, KERNEL),
                    PoissonSpawn(0.025, KERNEL),
                    PoissonSpawn(1.7, KERNEL),
                    ZeroInflatedPoissonSpawn(0.01, 2.5, KERNEL),
                    ZeroInflatedPoissonSpawn(0.35, 0.9, KERNEL),
                ]
            )
            for n_max in (20, 1, 0)
        ],
    )
    @pytest.mark.parametrize("p_s", [0.0, 0.4, 0.99, 1.0])
    def test_offspring_pmf_matches_scipy_composition(self, model, n_max, p_s):
        b = bell_coefficients(model, p_s, n_max)
        ref = successor_pmf(model, p_s, n_max)
        assert b.n_max == n_max
        np.testing.assert_allclose(b.pmf, ref, rtol=1e-12, atol=1e-300)

    def test_pmf_sums_to_one_minus_tail(self):
        for model in [
            BernoulliSpawn(0.01, KERNEL),
            PoissonSpawn(0.025, KERNEL),
            ZeroInflatedPoissonSpawn(0.01, 2.5, KERNEL),
        ]:
            b = bell_coefficients(model, 0.99, 20)
            total = float(b.pmf.sum())
            assert total + b.tail_mass == pytest.approx(1.0, abs=1e-12)
            assert b.tail_mass < 1e-10  # these parameters barely truncate

    def test_tail_reported_for_heavy_rate(self):
        b = bell_coefficients(PoissonSpawn(8.0, KERNEL), 0.99, 5)
        assert b.tail_mass > 0.5

    def test_zip_with_certain_activation_equals_poisson(self):
        lam = 2.5
        zb = bell_coefficients(ZeroInflatedPoissonSpawn(1.0, lam, KERNEL), 0.99, 20)
        pb = bell_coefficients(PoissonSpawn(lam, KERNEL), 0.99, 20)
        # identical formulas after the activation collapses: bitwise for i != 1
        assert zb.b[0] == pb.b[0]
        np.testing.assert_array_equal(zb.b[2:], pb.b[2:])
        assert abs(zb.b[1] - pb.b[1]) < 5e-16

    def test_mean_offspring_closed_form(self):
        for model, alpha in [
            (BernoulliSpawn(0.01, KERNEL), 0.01),
            (PoissonSpawn(0.025, KERNEL), 0.025),
            (ZeroInflatedPoissonSpawn(0.01, 2.5, KERNEL), 0.025),
        ]:
            assert model.alpha == pytest.approx(alpha, rel=1e-15)
            pmf = bell_coefficients(model, 0.99, 20).pmf
            assert np.arange(21) @ pmf == pytest.approx(0.99 + alpha, rel=1e-10)


LAWS = pytest.mark.parametrize(
    "model",
    [
        BernoulliSpawn(0.3, KERNEL),
        PoissonSpawn(1.7, KERNEL),
        ZeroInflatedPoissonSpawn(0.35, 0.9, KERNEL),
        ZeroInflatedPoissonSpawn(0.0, 2.5, KERNEL),
        ZeroInflatedPoissonSpawn(1.0, 2.5, KERNEL),
    ],
    ids=["bernoulli", "poisson", "zip", "zip-prob0", "zip-prob1"],
)


class TestOffspringLaw:
    """Every law's `alpha`, `daughter_pmf` and `sample` describe one law."""

    @LAWS
    def test_daughter_pmf_is_a_pmf(self, model):
        d = model.daughter_pmf(60)
        assert d.shape == (61,)
        assert d.min() >= 0.0
        assert d.sum() == pytest.approx(1.0, rel=0.0, abs=1e-12)

    @LAWS
    def test_daughter_pmf_mean_is_alpha(self, model):
        mean = np.arange(61) @ model.daughter_pmf(60)
        assert mean == pytest.approx(model.alpha, rel=1e-12, abs=0.0)

    @LAWS
    def test_sample_mean_matches_alpha(self, model):
        n = 200_000
        k = np.arange(61)
        d = model.daughter_pmf(60)
        se = np.sqrt(3.0 * (k**2 @ d - (k @ d) ** 2) / n)  # three parents per draw
        kids = model.sample(np.random.default_rng(31), np.full(n, 3))
        assert kids.shape == (n,)
        assert abs(kids.mean() - 3.0 * model.alpha) <= 4.0 * se


class TestSpawnIntensity:
    def test_single_component_hand_values(self):
        Qb = np.diag([144.0, 144.0, 144.0, 144.0])
        kernel = SpawnSpatialModel.single(np.eye(4), np.zeros(4), Qb)
        model = BernoulliSpawn(0.01, kernel)
        post = GaussianMixture(
            np.array([2.0]), np.array([[5.0, -3.0, 1.0, 0.5]]), np.stack([np.eye(4)])
        )
        out = spawn_intensity(post, model)
        assert len(out) == 1
        assert out.w[0] == pytest.approx(0.02, rel=1e-15)
        np.testing.assert_array_equal(out.m[0], [5.0, -3.0, 1.0, 0.5])
        np.testing.assert_allclose(out.P[0], np.eye(4) + Qb, atol=0.0)

    def test_component_ordering_posterior_major(self):
        kernel = SpawnSpatialModel(
            np.array([0.75, 0.25]),
            np.stack([np.eye(4)] * 2),
            np.array([[0.0] * 4, [100.0, 0.0, 0.0, 0.0]]),
            np.stack([np.eye(4)] * 2),
        )
        model = PoissonSpawn(0.4, kernel)
        post = GaussianMixture(
            np.array([1.0, 3.0]),
            np.array([[0.0] * 4, [10.0, 0.0, 0.0, 0.0]]),
            np.stack([np.eye(4)] * 2),
        )
        out = spawn_intensity(post, model)
        np.testing.assert_allclose(
            out.w, [0.3, 0.1, 0.9, 0.3], rtol=1e-14
        )  # j-major, term-minor
        np.testing.assert_array_equal(
            out.m[:, 0], [0.0, 100.0, 10.0, 110.0]
        )

    def test_total_mass_is_alpha_times_input(self):
        rng = np.random.default_rng(211)
        for _ in range(25):
            J = int(rng.integers(1, 30))
            w = rng.uniform(0.01, 2.0, size=J)
            m = rng.normal(0.0, 100.0, size=(J, 4))
            P = np.stack([np.eye(4) * rng.uniform(0.5, 5.0) for _ in range(J)])
            post = GaussianMixture(w, m, P)
            model = ZeroInflatedPoissonSpawn(
                rng.uniform(0.0, 1.0), rng.uniform(0.0, 3.0), KERNEL
            )
            out = spawn_intensity(post, model)
            np.testing.assert_allclose(
                out.total_weight,
                model.alpha * post.total_weight,
                rtol=1e-13,
            )

    def test_empty_posterior(self):
        out = spawn_intensity(GaussianMixture.empty(4), PoissonSpawn(0.5, KERNEL))
        assert len(out) == 0

    @staticmethod
    def random_posterior(rng, J):
        A = rng.normal(0.0, 3.0, size=(J, 4, 4))
        return GaussianMixture(
            rng.uniform(0.01, 2.0, size=J),
            rng.normal(0.0, 500.0, size=(J, 4)),
            A @ np.transpose(A, (0, 2, 1)) + np.eye(4),
        )

    def test_terms_are_the_survivors_push_interleaved(self):
        # Each kernel term is transform_mixture of the posterior with scale
        # alpha * w_i; the terms interleave j-major, as one stacked push lists them.
        rng = np.random.default_rng(17)
        B = rng.normal(0.0, 2.0, size=(3, 4, 4))
        kernel = SpawnSpatialModel(
            np.array([0.5, 0.3, 0.2]),
            np.eye(4) + rng.normal(0.0, 0.1, size=(3, 4, 4)),
            rng.normal(0.0, 20.0, size=(3, 4)),
            B @ np.transpose(B, (0, 2, 1)),
        )
        model = ZeroInflatedPoissonSpawn(0.3, 2.5, kernel)
        post = self.random_posterior(rng, 7)
        out = spawn_intensity(post, model)
        assert len(out) == 21
        for i in range(3):
            ref = transform_mixture(
                post, kernel.transitions[i], kernel.offsets[i], kernel.covariances[i],
                model.alpha * kernel.weights[i],
            )
            np.testing.assert_array_equal(out.m[i::3], ref.m)
            np.testing.assert_array_equal(out.P[i::3], ref.P)
            np.testing.assert_array_equal(out.w[i::3], ref.w)
        stacked = transform_mixture(
            post, kernel.transitions, kernel.offsets, kernel.covariances,
            model.alpha * kernel.weights,
        )
        np.testing.assert_array_equal(stacked.w, out.w)
        np.testing.assert_array_equal(stacked.m, out.m)
        np.testing.assert_array_equal(stacked.P, out.P)

    def test_single_term_keeps_the_direct_formula(self):
        # The formula spawn_intensity used before it shared the survivors'
        # push, written out here as the reference: bit for bit.
        rng = np.random.default_rng(5)
        F = np.eye(4) + rng.normal(0.0, 0.2, size=(4, 4))
        C = rng.normal(0.0, 4.0, size=(4, 4))
        kernel = SpawnSpatialModel.single(F, rng.normal(0.0, 9.0, size=4), C @ C.T)
        model = PoissonSpawn(0.025, kernel)
        post = self.random_posterior(rng, 9)
        out = spawn_intensity(post, model)
        F_i, d_i, Q_i = kernel.transitions[0], kernel.offsets[0], kernel.covariances[0]
        w = ((model.alpha * post.w)[:, None] * kernel.weights[None, :]).reshape(-1)
        m = post.m @ F_i.T + d_i
        P = np.matmul(np.matmul(F_i, post.P), F_i.T) + Q_i
        P = 0.5 * (P + np.swapaxes(P, -1, -2))
        np.testing.assert_array_equal(out.w, w)
        np.testing.assert_array_equal(out.m, m)
        np.testing.assert_array_equal(out.P, P)


class TestValidation:
    def test_bad_probabilities_rejected(self):
        with pytest.raises(InvalidModelError):
            BernoulliSpawn(1.2, KERNEL)
        with pytest.raises(InvalidModelError):
            ZeroInflatedPoissonSpawn(-0.1, 1.0, KERNEL)
        with pytest.raises(InvalidModelError):
            PoissonSpawn(-0.5, KERNEL)

    def test_kernel_weights_must_sum_to_one(self):
        with pytest.raises(InvalidModelError):
            SpawnSpatialModel(
                np.array([0.6, 0.6]),
                np.stack([np.eye(4)] * 2),
                np.zeros((2, 4)),
                np.stack([np.eye(4)] * 2),
            )

    def test_kernel_covariance_must_be_psd(self):
        with pytest.raises(InvalidModelError):
            SpawnSpatialModel.single(np.eye(4), np.zeros(4), -np.eye(4))

    def test_dim_mismatch_rejected(self):
        post = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.stack([np.eye(2)]))
        with pytest.raises(InvalidModelError):
            spawn_intensity(post, PoissonSpawn(0.5, KERNEL))
