"""Cardinality machinery against enumeration and convolution oracles.

The oracles here are deliberately independent code paths: set partitions are
enumerated explicitly, the direct multi-index summation runs in exact rational
arithmetic, and polynomial composition is checked against repeated
np.convolve.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats

from spawncphd.cardinality import (
    MAX_RATE,
    CardinalityDistribution,
    _degree_weights,
    _factorials,
    _pascal,
    bell_triangle,
    binomial_thin,
    convolve_counts,
    map_estimate,
    partial_bell,
    pgf_compose_oracle,
    poisson_pmf,
    predict_cardinality,
)
from spawncphd.errors import DomainError, InvalidModelError, NumericalError
from spawncphd.spawning import (
    BernoulliSpawn,
    PoissonSpawn,
    ZeroInflatedPoissonSpawn,
    bell_coefficients,
    unit_spawn_kernel,
)


# ---------------------------------------------------------------- oracles


def set_partitions(elements):
    """Yield every partition of `elements` as a list of blocks."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def bell_by_partition_enumeration(n, j, x):
    """B_{n,j}(x1..) as a sum over set partitions with exactly j blocks."""
    if n == 0:
        return 1 if j == 0 else 0
    total = 0
    for part in set_partitions(list(range(n))):
        if len(part) != j:
            continue
        term = 1
        for block in part:
            term *= x[len(block) - 1]
        total += term
    return total


def bell_by_multiindex_sum(n, j, x):
    """Direct summation of the defining multi-index formula, exact rationals."""
    if n == 0:
        return Fraction(1) if j == 0 else Fraction(0)
    if j == 0:
        return Fraction(0)
    hits = []
    top = n - j + 1

    def rec(i, blocks_left, weight_left, prod):
        if blocks_left == 0 and weight_left == 0:
            hits.append(prod)
            return
        if i > top:
            return
        max_k = min(blocks_left, weight_left // i)
        for k in range(max_k + 1):
            rec(
                i + 1,
                blocks_left - k,
                weight_left - i * k,
                prod
                * Fraction(x[i - 1]) ** k
                / (math.factorial(k) * Fraction(math.factorial(i)) ** k),
            )

    rec(1, j, n, Fraction(1))
    return Fraction(math.factorial(n)) * sum(hits, Fraction(0))


def stirling2(n, j):
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for nn in range(1, n + 1):
        for jj in range(1, nn + 1):
            table[nn][jj] = jj * table[nn - 1][jj] + table[nn - 1][jj - 1]
    return table[n][j]


def stirling1_unsigned(n, j):
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for nn in range(1, n + 1):
        for jj in range(1, nn + 1):
            table[nn][jj] = (nn - 1) * table[nn - 1][jj] + table[nn - 1][jj - 1]
    return table[n][j]


# ---------------------------------------------------------------- partial Bell


class TestPartialBell:
    def test_hand_values(self):
        assert partial_bell(3, 2, [1.0, 1.0]) == 3.0
        assert partial_bell(4, 2, [1.0, 1.0, 1.0]) == 7.0
        # B_{4,2}(x) = 3 x2^2 + 4 x1 x3
        assert partial_bell(4, 2, [1.0, 2.0, 3.0]) == 3 * 4 + 4 * 3

    def test_boundary_conventions(self):
        assert partial_bell(0, 0, []) == 1.0
        assert partial_bell(5, 0, [1.0] * 5) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            partial_bell(2, 3, [1.0, 1.0])
        with pytest.raises(DomainError):
            partial_bell(3, -1, [1.0] * 3)
        with pytest.raises(DomainError):
            partial_bell(-1, 0, [])

    def test_matches_set_partition_enumeration(self):
        rng = np.random.default_rng(101)
        for n in range(0, 11):
            x = [int(v) for v in rng.integers(1, 4, size=max(n, 1))]
            for j in range(0, n + 1):
                expected = bell_by_partition_enumeration(n, j, x)
                got = partial_bell(n, j, [float(v) for v in x])
                assert got == float(expected), (n, j, x)

    def test_matches_multiindex_sum(self):
        rng = np.random.default_rng(103)
        for n in range(0, 9):
            x = [int(v) for v in rng.integers(1, 5, size=max(n, 1))]
            for j in range(0, n + 1):
                expected = bell_by_multiindex_sum(n, j, x)
                assert expected.denominator == 1
                got = partial_bell(n, j, [float(v) for v in x])
                assert got == float(expected), (n, j, x)

    def test_stirling_identities(self):
        for n in range(0, 11):
            ones = [1.0] * max(n, 1)
            facts = [float(math.factorial(i)) for i in range(max(n, 1))]
            for j in range(0, n + 1):
                assert partial_bell(n, j, ones) == float(stirling2(n, j))
                assert partial_bell(n, j, facts) == float(stirling1_unsigned(n, j))


# ---------------------------------------------------------------- prediction


PS = 0.99
KERNEL = unit_spawn_kernel(4)
MODELS = [
    BernoulliSpawn(0.01, KERNEL),
    PoissonSpawn(0.025, KERNEL),
    ZeroInflatedPoissonSpawn(0.01, 2.5, KERNEL),
]


def random_prior(rng, n_max=20, spread=6):
    """Prior concentrated on low counts so the truncation tail is negligible."""
    p = np.zeros(n_max + 1)
    k = rng.integers(1, spread)
    p[: k + 1] = rng.dirichlet(np.ones(k + 1))
    return CardinalityDistribution(p)


class TestPredictCardinality:
    def test_single_parent_bernoulli_hand_values(self):
        rho = CardinalityDistribution.delta(1, 2)
        model = BernoulliSpawn(0.01, KERNEL)
        b = bell_coefficients(model, PS, 2)
        out = predict_cardinality(rho, b)
        # One parent: P(0) = b0, P(1) = b1, P(2) = b2/2!
        np.testing.assert_allclose(
            out.probs, [0.0099, 0.9802, 0.0099], rtol=0, atol=1e-15
        )

    def test_empty_prior_stays_empty(self):
        rho = CardinalityDistribution.delta(0, 12)
        for model in MODELS:
            out = predict_cardinality(rho, bell_coefficients(model, PS, 12))
            np.testing.assert_array_equal(out.probs, rho.probs)

    def test_no_mass_within_n_max_is_named(self):
        # Two parents of 500 expected daughters each: every count <= 20 has
        # probability below 1e-160 a parent, and their product underflows.
        b = bell_coefficients(PoissonSpawn(500.0, KERNEL), PS, 20)
        with pytest.raises(NumericalError, match="^the predicted count leaves no mass at or below n_max = 20$"):
            predict_cardinality(CardinalityDistribution.delta(2, 20), b)

    def test_matches_pgf_composition_oracle(self):
        rng = np.random.default_rng(107)
        for model in MODELS:
            b = bell_coefficients(model, PS, 20)
            pmf = b.pmf
            for _ in range(6):
                rho = random_prior(rng)
                via_bell = predict_cardinality(rho, b)
                via_pgf = pgf_compose_oracle(rho, pmf)
                err = np.abs(via_bell.probs - via_pgf.probs).max()
                assert err < 1e-10, (model, err)

    @pytest.mark.parametrize("n_max", [171, 300, 500])
    def test_matches_pgf_composition_oracle_beyond_float64_factorials(self, n_max):
        rho = CardinalityDistribution(np.random.default_rng(n_max).dirichlet(np.ones(n_max + 1)))
        for p_s in (0.0, 0.5, 0.99, 1.0):
            for model in MODELS:
                b = bell_coefficients(model, p_s, n_max)
                got = predict_cardinality(rho, b).probs
                ref = pgf_compose_oracle(rho, b.pmf).probs
                assert np.abs(got - ref).max() <= 1e-12, (model, p_s)

    def test_expected_count_consistency(self):
        # The 1e-6 first-moment law applies when the truncated tail is < 1e-9.
        rng = np.random.default_rng(109)
        checked = 0
        for model in MODELS:
            b = bell_coefficients(model, PS, 20)
            growth = float(np.sum(np.arange(21) * b.pmf))
            for _ in range(8):
                rho = random_prior(rng, spread=4)
                out = predict_cardinality(rho, b)
                if out.truncation_deficit >= 1e-9:
                    continue
                checked += 1
                np.testing.assert_allclose(out.mean, rho.mean * growth, rtol=1e-6)
        assert checked >= 12  # the guard must not hollow out the test

    def test_deficit_reported_when_tail_escapes(self):
        rho = CardinalityDistribution.delta(8, 8)
        model = PoissonSpawn(2.0, KERNEL)
        out = predict_cardinality(rho, bell_coefficients(model, PS, 8))
        assert out.truncation_deficit > 1e-3
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pgf_oracle_delta_prior_is_repeated_convolution(self):
        rng = np.random.default_rng(113)
        q = rng.dirichlet(np.ones(4))
        q = np.concatenate([q, np.zeros(9)])  # support 0..3 inside n_max 12
        rho = CardinalityDistribution.delta(3, 12)
        out = pgf_compose_oracle(rho, q)
        ref = np.convolve(np.convolve(q, q), q)[:13]
        np.testing.assert_allclose(out.probs, ref / ref.sum(), rtol=1e-13)


# ---------------------------------------------------------------- referee


def referee_predict_cardinality(rho, model, p_s):
    """The predicted count pmf at 50 digits, from the law's parameters.

    The law's daughter pmf d (Bernoulli `prob`; Poisson `rate`; for the
    zero-inflated law, `prob` times the Poisson pmf plus 1 - `prob` at 0) is
    formed in mpmath, not taken from the float pmf, and composed with
    survival into q_i = (1 - p_s) d_i + p_s d_(i-1). Then
    sum_m rho(m) [q^(*m)]_n is summed by truncated convolution on 0..n_max
    and renormalized there. Returns floats.
    """
    N = rho.n_max
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        if isinstance(model, BernoulliSpawn):
            d = [1 - mpf(model.prob), mpf(model.prob)]
        else:
            rate = mpf(model.rate)
            d = [mpmath.exp(-rate) * rate**i / mpmath.factorial(i) for i in range(N + 1)]
        if isinstance(model, ZeroInflatedPoissonSpawn):
            d = [mpf(model.prob) * x for x in d]
            d[0] += 1 - mpf(model.prob)
        p_s = mpf(p_s)
        q = [(1 - p_s) * a + p_s * b for a, b in zip(d + [0], [0] + d)][: N + 1]
        power = [mpf(1)] + [mpf(0)] * N  # q^(*0)
        out = [mpf(rho.probs[0]) * x for x in power]
        for r in rho.probs[1 : np.flatnonzero(rho.probs)[-1] + 1]:
            power = [mpmath.fdot(q[: n + 1], power[n::-1]) for n in range(N + 1)]
            out = [o + mpf(r) * x for o, x in zip(out, power)]
        total = mpmath.fsum(out)
        return np.array([float(o / total) for o in out])


class TestPredictCardinalityReferee:
    # Rates up to MAX_RATE: at 708 every successor count 0..200 lies deep in
    # the lower tail, and powers beyond a few parents underflow float64.
    LAWS = [  # one row per survival probability below
        (BernoulliSpawn(0.3, KERNEL), PoissonSpawn(0.025, KERNEL),
         ZeroInflatedPoissonSpawn(0.01, 2.5, KERNEL)),
        (BernoulliSpawn(0.01, KERNEL), PoissonSpawn(708.0, KERNEL),
         ZeroInflatedPoissonSpawn(0.4, 708.0, KERNEL)),
        (BernoulliSpawn(0.9, KERNEL), PoissonSpawn(2.5, KERNEL),
         ZeroInflatedPoissonSpawn(0.9, 50.0, KERNEL)),
        (BernoulliSpawn(1.0, KERNEL), PoissonSpawn(50.0, KERNEL),
         ZeroInflatedPoissonSpawn(1.0, 708.0, KERNEL)),
    ]

    @pytest.mark.parametrize("n_max", [1, 20, 100, 200])
    def test_matches_referee(self, n_max):
        # Priors on counts 0..min(n_max, 30). The distance to the referee:
        # 1e-13 relative for entries above 1e-280, 1e-280 absolute below,
        # where float64 products underflow.
        rng = np.random.default_rng(n_max)
        top = min(n_max, 30)
        for p_s, laws in zip((0.0, 0.5, 0.99, 1.0), self.LAWS):
            probs = np.zeros(n_max + 1)
            probs[: top + 1] = rng.dirichlet(np.ones(top + 1))
            rho = CardinalityDistribution(probs)
            for model in laws:
                got = predict_cardinality(rho, bell_coefficients(model, p_s, n_max)).probs
                ref = referee_predict_cardinality(rho, model, p_s)
                np.testing.assert_allclose(
                    got, ref, rtol=1e-13, atol=1e-280, err_msg=f"{type(model).__name__} {p_s}"
                )


# ---------------------------------------------------------------- bit identity
#
# The count tables are built once per (n_max, base) and cached. These are the
# routes as first written, built in place on every call: the paper's Bell
# polynomials of factorial-scaled coefficients for the prediction, which the
# binomial route must match to 1e-15, and the thinning table and coefficient
# scaling, which the cached builders must reproduce bit for bit.


def reference_bell_coefficients(model, p_s, n_max):
    """(b, tail_mass) of `bell_coefficients`, factorial scaling done inline."""
    d = model.daughter_pmf(n_max)
    succ = (1.0 - p_s) * d
    succ[1:] += p_s * d[:-1]
    tail = max(0.0, 1.0 - float(np.cumsum(succ)[-1]))
    return succ * _factorials(n_max), tail


def reference_predict_cardinality(rho, b):
    N = rho.n_max
    bv = b.b
    if bv.shape[0] < N + 1:
        bv = np.concatenate([bv, np.zeros(N + 1 - bv.shape[0])])
    else:
        bv = bv[: N + 1]
    fact = _factorials(N)
    jj = np.arange(N + 1)[:, None]
    mm = np.arange(N + 1)[None, :]
    pow_b0 = bv[0] ** np.arange(N + 1)
    G = np.where(
        mm >= jj, fact[mm] / fact[np.clip(mm - jj, 0, N)] * pow_b0[np.clip(mm - jj, 0, N)], 0.0
    )
    T = bell_triangle(N, bv[1:]) / fact[:, None]
    out = T @ (G @ rho.probs)
    total = float(np.cumsum(out)[-1])
    deficit = max(0.0, 1.0 - total)
    return CardinalityDistribution(out, normalize=True, deficit=deficit)


def reference_binomial_thin(rho, p):
    N = rho.n_max
    C = _pascal(N)
    nn = np.arange(N + 1)[:, None]
    mm = np.arange(N + 1)[None, :]
    pn = p ** np.arange(N + 1)
    qn = (1.0 - p) ** np.arange(N + 1)
    Th = np.where(mm >= nn, C[mm, nn] * qn[np.clip(mm - nn, 0, N)], 0.0)
    Th *= pn[:, None]
    return CardinalityDistribution(Th @ rho.probs, normalize=True)


def assert_same_prediction(rho, model, p_s):
    b = bell_coefficients(model, p_s, rho.n_max)
    ref_b, ref_tail = reference_bell_coefficients(model, p_s, rho.n_max)
    assert np.array_equal(b.b, ref_b)
    assert b.tail_mass == ref_tail
    got = predict_cardinality(rho, b)
    ref = reference_predict_cardinality(rho, b)
    np.testing.assert_allclose(got.probs, ref.probs, rtol=0, atol=1e-15)
    # the deficit sums n_max + 1 entries, so it carries their rounding too
    assert got.truncation_deficit == pytest.approx(ref.truncation_deficit, rel=0, abs=1e-14)


class TestCachedTablesBitIdentity:
    @pytest.mark.parametrize("n_max", [0, 1, 2, 20, 100, 170])
    def test_matches_reference(self, n_max):
        rho = CardinalityDistribution(np.random.default_rng(n_max).dirichlet(np.ones(n_max + 1)))
        for p_s in (0.0, 0.5, 0.99, 1.0):
            for model in MODELS:
                assert_same_prediction(rho, model, p_s)
            got = binomial_thin(rho, p_s)
            assert np.array_equal(got.probs, reference_binomial_thin(rho, p_s).probs)

    def test_interleaved_laws_and_probabilities(self):
        # Repeated keys hit the caches; a key that missed the law or the
        # probability would hand one caller's tables to the other.
        rho = random_prior(np.random.default_rng(131))
        for model, p in [(MODELS[0], 0.5), (MODELS[2], 0.99)] * 2:
            assert_same_prediction(rho, model, PS)
            got = binomial_thin(rho, p)
            assert np.array_equal(got.probs, reference_binomial_thin(rho, p).probs)


# ---------------------------------------------------------------- update degree weights


class TestDegreeWeights:
    """The degree-weight step of `count_update`; the weights it forms from
    them are judged by the count-update referee in test_filtering."""

    @pytest.mark.parametrize("N, M", [(171, 171), (300, 170), (500, 600), (500, 2000)])
    def test_degrees_beyond_float64_factorials(self, N, M):
        # The degree weights reach (min(M, N) + 1)! / s_w^(K+1), past float64
        # from 171! on: each is a mantissa, x its power of two.
        K = min(M, N)
        mant, x = _degree_weights(K, M, 0.5, 3.0)
        assert mant.shape == x.shape == (K + 2,) and np.issubdtype(x.dtype, np.integer)
        assert np.all((mant >= 0.5) & (mant < 1.0))

    @pytest.mark.parametrize(
        "N, M, u_c", [(20, 12, 0.5), (20, 12, 0.0), (170, 169, 0.9), (170, 400, 0.99), (300, 169, 0.9)]
    )
    def test_weights_equal_float_weights(self, N, M, u_c):
        # The float weights W_j = u_c^(M-j) j! / s_w^j, where they are normal
        # floats, against mantissa times 2^x times the dropped u_c^M.
        s_w, tiny = 3.0, np.finfo(float).tiny
        mant, x = _degree_weights(min(M, N), M, u_c, s_w)
        common = u_c**M if u_c > 0.0 else 1.0
        for j in range(min(M, N, 170) + 1):
            want = u_c ** (M - j) * math.factorial(j) / s_w**j
            if want == 0.0 or want >= tiny:
                assert np.ldexp(mant[j], x[j]) * common == pytest.approx(want, rel=1e-13, abs=0.0), j


# ---------------------------------------------------------------- MAP


class TestCardinalityDistribution:
    def test_delta(self):
        d = CardinalityDistribution.delta(3, 6)
        assert d.probs[3] == 1.0 and d.probs.sum() == 1.0
        assert d.mean == 3.0

    def test_delta_out_of_range(self):
        with pytest.raises(DomainError):
            CardinalityDistribution.delta(7, 6)

    def test_poisson_matches_scipy(self):
        d = CardinalityDistribution.poisson(2.5, 20)
        ref = stats.poisson.pmf(np.arange(21), 2.5)
        np.testing.assert_allclose(d.probs, ref / ref.sum(), rtol=1e-12)

    def test_raw_poisson_pmf_keeps_tail_deficit(self):
        p = poisson_pmf(4.0, 6)
        np.testing.assert_allclose(p, stats.poisson.pmf(np.arange(7), 4.0), rtol=1e-12)
        assert p.sum() < 1.0  # truncated, deliberately not renormalized
        np.testing.assert_array_equal(poisson_pmf(0.0, 3), [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("rate", [0.025, 0.7, 2.5, 40.0])
    def test_raw_poisson_pmf_matches_scipy_over_range(self, rate):
        for n_max in (0, 1, 20, 170, 300, 500):
            p = poisson_pmf(rate, n_max)
            ref = stats.poisson.pmf(np.arange(n_max + 1), rate)
            normal = ref >= np.finfo(float).tiny
            np.testing.assert_allclose(p[normal], ref[normal], rtol=1e-12)

    def test_poisson_rate_limit_is_normal_exp(self):
        # exp(-708) is still a normal float64, exp(-746) underflows to zero
        # and used to surface as a zero-mass normalization failure.
        assert MAX_RATE == -math.log(np.finfo(float).tiny)
        assert 708.0 < MAX_RATE < 709.0
        d = CardinalityDistribution.poisson(708.0, 170)
        assert np.isfinite(d.probs).all() and d.probs[-1] > 0.0
        with pytest.raises(DomainError, match=r"rate 746(\.0)? exceeds 708\.4"):
            CardinalityDistribution.poisson(746.0, 170)
        with pytest.raises(DomainError, match=r"exceeds 708\.4"):
            poisson_pmf(np.nextafter(MAX_RATE, np.inf), 20)

    def test_nan_poisson_rate_rejected_by_name(self):
        with pytest.raises(DomainError, match=r"rate nan is negative or NaN"):
            poisson_pmf(math.nan, 20)

    def test_negative_probs_rejected(self):
        with pytest.raises(DomainError):
            CardinalityDistribution(np.array([0.5, -0.1, 0.6]))

    def test_unnormalized_rejected_without_flag(self):
        with pytest.raises(DomainError):
            CardinalityDistribution(np.array([0.5, 0.2]))

    def test_map_estimate_ties_take_smaller(self):
        rho = CardinalityDistribution(np.array([0.4, 0.4, 0.2]))
        assert map_estimate(rho) == 0

    def test_binomial_thin_refuses_a_non_probability(self):
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(InvalidModelError, match=r"survival probability = .* outside \[0, 1\]"):
                binomial_thin(CardinalityDistribution.delta(2, 5), p)

    def test_binomial_thin_matches_scipy(self):
        rho = CardinalityDistribution.delta(5, 8)
        out = binomial_thin(rho, 0.7)
        ref = stats.binom.pmf(np.arange(9), 5, 0.7)
        np.testing.assert_allclose(out.probs, ref, rtol=1e-12, atol=1e-15)

    def test_convolve_counts_matches_numpy(self):
        rho = CardinalityDistribution(np.array([0.3, 0.7, 0.0, 0.0, 0.0]))
        pmf = stats.poisson.pmf(np.arange(5), 0.4)
        out = convolve_counts(rho, pmf)
        ref = np.convolve(rho.probs, pmf)[:5]
        np.testing.assert_allclose(out.probs, ref / ref.sum(), rtol=1e-13)
