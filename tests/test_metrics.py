"""OSPA and Hellinger metrics against brute-force, scipy and closed-form oracles."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from spawncphd.cardinality import CardinalityDistribution
from spawncphd.errors import DomainError
from spawncphd.metrics import _assign_columns, hellinger, ideal_cardinality, ospa


def ospa_bruteforce(X, Y, c):
    """Order-2 OSPA by explicit enumeration of assignments (sets <= 6)."""
    X, Y = np.atleast_2d(np.asarray(X, float)), np.atleast_2d(np.asarray(Y, float))
    m, n = len(X), len(Y)
    if m == 0 and n == 0:
        return 0.0
    if m > n:
        X, Y, m, n = Y, X, n, m
    if m == 0:
        return c
    best = math.inf
    for assign in itertools.permutations(range(n), m):
        cost = 0.0
        for i, j in enumerate(assign):
            cost += min(c, float(np.linalg.norm(X[i] - Y[j]))) ** 2
        best = min(best, cost)
    return math.sqrt((best + c * c * (n - m)) / n)


def ospa_scipy(X, Y, c):
    """Order-2 OSPA with scipy's assignment solver, same arithmetic as ``ospa``."""
    X, Y = np.asarray(X, float), np.asarray(Y, float)
    m, n = len(X), len(Y)
    if m == 0 and n == 0:
        return 0.0
    if m > n:
        X, Y, m, n = Y, X, n, m
    if m == 0:
        return float(c)
    diff = X[:, None, :] - Y[None, :, :]
    D = np.minimum(np.sqrt(np.einsum("mnd,mnd->mn", diff, diff)), c)
    rows, cols = linear_sum_assignment(D**2)
    cost = float((D[rows, cols] ** 2).sum())
    return math.sqrt((cost + c * c * (n - m)) / n)


COST_KINDS = ("uniform", "integer", "clipped", "constant")


def random_cost(rng, kind, m, n):
    """An m x n cost matrix of one of four kinds, three of them rich in ties."""
    if kind == "uniform":
        return rng.uniform(size=(m, n))
    if kind == "integer":
        return rng.integers(0, 3, size=(m, n)).astype(float)
    if kind == "clipped":
        diff = rng.uniform(-60, 60, (m, 1, 2)) - rng.uniform(-60, 60, (1, n, 2))
        return np.minimum(np.sqrt((diff * diff).sum(axis=-1)), 30.0) ** 2
    cost = np.full((m, n), 5.0)
    idx = rng.integers(0, m * n, size=int(rng.integers(0, 4)))
    cost.flat[idx] = rng.uniform(0.0, 1.0, size=len(idx))
    return cost


def random_set(rng, max_size=6, dim=2, scale=60.0):
    k = int(rng.integers(0, max_size + 1))
    return rng.uniform(-scale, scale, size=(k, dim))


class TestOspa:
    def test_single_pair_is_plain_distance(self):
        assert ospa(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]), c=100.0) == pytest.approx(5.0)
        assert ospa(np.array([[0.0]]), np.array([[50.0]]), c=100.0) == pytest.approx(50.0)

    def test_distance_saturates_at_cutoff(self):
        assert ospa(np.array([[0.0, 0.0]]), np.array([[5000.0, 0.0]]), c=100.0) == pytest.approx(100.0)

    def test_cardinality_mismatch_hand_value(self):
        # one matched pair at distance 0 plus one unmatched: sqrt(c^2 / 2)
        X = np.array([[0.0, 0.0]])
        Y = np.array([[0.0, 0.0], [1e6, 0.0]])
        assert ospa(X, Y, c=100.0) == pytest.approx(math.sqrt(5000.0), rel=1e-13)

    def test_empty_cases(self):
        assert ospa(np.empty((0, 2)), np.empty((0, 2)), c=100.0) == 0.0
        assert ospa(np.empty((0, 2)), np.array([[1.0, 2.0]]), c=100.0) == 100.0
        assert ospa(np.array([[1.0, 2.0]]), np.empty((0, 2)), c=100.0) == 100.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(301)
        for _ in range(300):
            X, Y = random_set(rng), random_set(rng)
            c = float(rng.uniform(5.0, 150.0))
            d1, d2 = ospa(X, Y, c), ospa(Y, X, c)
            assert d1 == pytest.approx(d2, rel=1e-12)
            assert 0.0 <= d1 <= c * (1.0 + 1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(307)
        for _ in range(400):
            X, Y = random_set(rng), random_set(rng)
            c = float(rng.uniform(5.0, 150.0))
            assert ospa(X, Y, c) == pytest.approx(ospa_bruteforce(X, Y, c), rel=1e-10)

    def test_identical_sets_are_distance_zero(self):
        rng = np.random.default_rng(311)
        X = random_set(rng, max_size=5)
        if len(X) == 0:
            X = rng.uniform(-10, 10, size=(3, 2))
        assert ospa(X, X.copy(), c=50.0) == pytest.approx(0.0, abs=1e-9)

    def test_invalid_cutoff(self):
        with pytest.raises(DomainError):
            ospa(np.empty((0, 2)), np.empty((0, 2)), c=0.0)
        with pytest.raises(DomainError):
            ospa(np.empty((0, 2)), np.empty((0, 2)), c=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["X", "Y"])
    @pytest.mark.parametrize("other_size", [0, 3])
    def test_non_finite_point_is_domain_error(self, bad, which, other_size):
        P = np.array([[1.0, 2.0], [3.0, bad]])
        Q = np.arange(2.0 * other_size).reshape(other_size, 2)
        X, Y = (P, Q) if which == "X" else (Q, P)
        with pytest.raises(DomainError, match=f"set {which} "):
            ospa(X, Y, c=100.0)

    def test_matches_scipy_reference_bitwise(self):
        # Small cutoffs against a wide field: most distances saturate at c.
        rng = np.random.default_rng(337)
        for _ in range(2000):
            X, Y = random_set(rng, max_size=9), random_set(rng, max_size=9)
            c = float(rng.choice([5.0, 20.0, 40.0, rng.uniform(1.0, 150.0)]))
            assert ospa(X, Y, c) == ospa_scipy(X, Y, c)


class TestAssignColumns:
    @pytest.mark.parametrize("kind", COST_KINDS)
    def test_matches_scipy_assignment(self, kind):
        rng = np.random.default_rng(401 + COST_KINDS.index(kind))
        for _ in range(3000):
            m = int(rng.integers(1, 13))
            n = int(rng.integers(m, 13))
            cost = random_cost(rng, kind, m, n)
            rows, cols = linear_sum_assignment(cost)
            assert np.array_equal(rows, np.arange(m))
            assert np.array_equal(np.array(_assign_columns(cost)), cols), cost


def test_runtime_imports_no_scipy():
    code = (
        "import sys, spawncphd.cli, spawncphd.experiment\n"
        "bad = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not bad, bad\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


class TestHellinger:
    def test_hand_value(self):
        # H((1,0),(1/2,1/2)) = sqrt(1 - 1/sqrt(2))
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        assert hellinger(p, q) == pytest.approx(math.sqrt(1.0 - math.sqrt(0.5)), rel=1e-13)

    def test_identical_is_zero_disjoint_is_one(self):
        p = np.array([0.3, 0.7, 0.0])
        q = np.array([0.0, 0.0, 1.0])
        assert hellinger(p, p.copy()) == 0.0
        assert hellinger(p, q) == pytest.approx(1.0, rel=1e-14)

    def test_matches_bhattacharyya_form(self):
        # Compare squared distances: the 1 - BC oracle cancels near p = q.
        rng = np.random.default_rng(313)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            ref_sq = max(0.0, 1.0 - float(np.sqrt(p * q).sum()))
            assert hellinger(p, q) ** 2 == pytest.approx(ref_sq, abs=1e-12)

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(317)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            p = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 3.0))
            q = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 3.0))
            d = hellinger(p, q)
            assert 0.0 <= d <= 1.0
            assert d == pytest.approx(hellinger(q, p), rel=1e-14)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(331)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            p, q, r = (rng.dirichlet(np.ones(n)) for _ in range(3))
            assert hellinger(p, r) <= hellinger(p, q) + hellinger(q, r) + 1e-12

    def test_accepts_cardinality_distributions(self):
        p = CardinalityDistribution.delta(2, 5)
        q = CardinalityDistribution.poisson(1.5, 5)
        assert hellinger(p, q) == hellinger(p.probs, q.probs)

    def test_support_length_mismatch(self):
        with pytest.raises(DomainError):
            hellinger(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


class TestIdealCardinality:
    def test_delta_at_truth(self):
        d = ideal_cardinality(4, 10)
        assert d.probs[4] == 1.0
        assert d.probs.sum() == 1.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            ideal_cardinality(11, 10)
        with pytest.raises(DomainError):
            ideal_cardinality(-1, 10)
