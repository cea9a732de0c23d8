"""Blocked mixture merge against the dense pairwise-gate greedy.

`reference_merge_pass` evaluates every gate distance (m_i - m_p) A_i (m_i - m_p)
directly, in row chunks of one (J, J) table, and runs the greedy one pivot at
a time, emitting one output per pivot in pivot order. `_merge_pass` must agree
with it bit for bit, here on mixtures large enough to span many gate blocks.
"""

import numpy as np
import pytest

from spawncphd.gaussian import (
    GaussianMixture,
    ReductionConfig,
    _batched_inverses,
    _merge_pass,
    reduce_mixture,
)


def reference_merge_pass(w, m, P, U):
    J = w.shape[0]
    inv, mergeable = _batched_inverses(P)
    d2 = np.empty((J, J))
    for s in range(0, J, 64):  # row chunks of the (J, J, d) difference table
        diff = m[s : s + 64, None, :] - m[None, :, :]
        d2[s : s + 64] = (np.matmul(diff, inv[s : s + 64]) * diff).sum(axis=2)
    gate = (d2 <= U) & mergeable[:, None]  # rows are candidates
    used = np.zeros(J, dtype=bool)
    out_w, out_m, out_P = [], [], []
    merged_any = False
    for pivot in np.lexsort((np.arange(J), -w)):
        if used[pivot]:
            continue
        take = np.nonzero(gate[:, pivot] & ~used)[0]
        if not mergeable[pivot]:
            take = np.sort(np.concatenate(([pivot], take)))
        used[take] = True
        if take.shape[0] == 1:
            out_w.append(w[pivot])
            out_m.append(m[pivot])
            out_P.append(P[pivot])
            continue
        merged_any = True
        ws = w[take]
        tot = float(np.cumsum(ws)[-1])
        mbar = ws @ m[take] / tot
        dev = mbar - m[take]
        Pbar = (
            ws[:, None, None] * (P[take] + dev[:, :, None] * dev[:, None, :])
        ).sum(axis=0) / tot
        out_w.append(tot)
        out_m.append(mbar)
        out_P.append(0.5 * (Pbar + Pbar.T))
    return np.array(out_w), np.stack(out_m), np.stack(out_P), merged_any


def reference_reduce(mix, cfg):
    keep = mix.w >= cfg.trunc_threshold
    w, m, P = mix.w[keep], mix.m[keep], mix.P[keep]
    while w.shape[0] > 1:
        w, m, P, merged_any = reference_merge_pass(w, m, P, cfg.merge_threshold)
        if not merged_any:
            break
    order = np.lexsort((np.arange(w.shape[0]), -w))[: cfg.max_components]
    return GaussianMixture(w[order], m[order], P[order])


def assert_same_pass(w, m, P, U):
    got, ref = _merge_pass(w, m, P, U), reference_merge_pass(w, m, P, U)
    assert got[3] == ref[3]
    for a, b in zip(got[:3], ref[:3]):
        assert np.array_equal(a, b)


def assert_same_reduce(mix, cfg):
    got, ref = reduce_mixture(mix, cfg), reference_reduce(mix, cfg)
    assert np.array_equal(got.w, ref.w)
    assert np.array_equal(got.m, ref.m)
    assert np.array_equal(got.P, ref.P)


def clustered(rng, J, n_clusters, spread, pos_std, vel_std, weights=None):
    """Means scattered around cluster centres; covariances random SPD with
    the given position / velocity scales."""
    centres = rng.uniform(-1000.0, 1000.0, size=(n_clusters, 4))
    centres[:, 2:] *= 0.02
    scale = np.array([pos_std, pos_std, vel_std, vel_std])
    m = centres[rng.integers(0, n_clusters, size=J)] + rng.normal(0.0, 1.0, (J, 4)) * spread * scale
    G = rng.normal(0.0, 1.0, size=(J, 4, 4))
    P = (G @ np.transpose(G, (0, 2, 1)) / 4.0 + 0.25 * np.eye(4)) * np.outer(scale, scale)
    P = 0.5 * (P + np.transpose(P, (0, 2, 1)))
    w = rng.uniform(1e-4, 1.0, size=J) if weights is None else weights
    return GaussianMixture(w, m, P)


@pytest.mark.parametrize("J", [3, 40, 700, 2000])
def test_random_clusters_match_reference(J):
    rng = np.random.default_rng(1000 + J)
    mix = clustered(rng, J, max(1, J // 20), spread=1.5, pos_std=10.0, vel_std=3.0)
    assert_same_pass(mix.w, mix.m, mix.P, 4.0)
    assert_same_reduce(mix, ReductionConfig(1e-5, 4.0, 100))


def test_singular_covariances_match_reference():
    rng = np.random.default_rng(7)
    mix = clustered(rng, 900, 30, spread=1.0, pos_std=10.0, vel_std=3.0)
    P = mix.P.copy()
    P[::7] = 0.0  # exactly singular: pivots only
    P[3::11, 3, :] = P[3::11, :, 3] = 0.0  # rank deficient
    mix = GaussianMixture(mix.w, mix.m, P)
    assert_same_pass(mix.w, mix.m, mix.P, 4.0)
    assert_same_reduce(mix, ReductionConfig(0.0, 4.0, 10_000))


def test_tied_weights_match_reference():
    rng = np.random.default_rng(11)
    w = rng.choice([0.125, 0.25, 0.5], size=1500)
    mix = clustered(rng, 1500, 60, spread=1.0, pos_std=10.0, vel_std=3.0, weights=w)
    assert_same_pass(mix.w, mix.m, mix.P, 4.0)
    assert_same_reduce(mix, ReductionConfig(1e-5, 4.0, 100))


def test_wide_birth_components_match_reference():
    rng = np.random.default_rng(13)
    tight = clustered(rng, 1200, 80, spread=1.0, pos_std=10.0, vel_std=3.0)
    wide = clustered(rng, 300, 5, spread=0.5, pos_std=400.0, vel_std=20.0)
    mix = GaussianMixture.concat([tight, wide])
    assert_same_pass(mix.w, mix.m, mix.P, 4.0)
    assert_same_reduce(mix, ReductionConfig(1e-5, 4.0, 100))


def test_pairs_on_the_gate_boundary_match_reference():
    # Means on a 2**-20 grid near 1e3 subtract exactly but square with
    # rounding, so the fast distance of a pair at exactly U lands within the
    # rounding band and only the exact recheck decides it.
    rng = np.random.default_rng(17)
    n = 600
    base = rng.integers(0, 2**30, size=(n, 4)).astype(float) * 2.0**-20
    step = np.array([2.0, 2.0 - 2.0**-20, 2.0 + 2.0**-20])[rng.integers(0, 3, size=n)]
    axis = rng.integers(0, 4, size=n)
    std = np.array([1.0, 1.0, 0.5, 2.0])  # powers of two: exact inverses
    other = base.copy()
    other[np.arange(n), axis] += step * std[axis]
    m = np.concatenate([base, other])
    P = np.tile(np.diag(std**2), (2 * n, 1, 1))
    w = rng.uniform(0.1, 1.0, size=2 * n)
    inv, _ = _batched_inverses(P)
    diff = m[n:] - m[:n]
    d2 = (np.matmul(diff[:, None, :], inv[n:])[:, 0, :] * diff).sum(axis=1)
    assert (d2 == 4.0).sum() > n // 4  # exactly on the gate
    assert (d2 != 4.0).sum() > n // 2  # one grid step either side
    assert_same_pass(w, m, P, 4.0)
    assert_same_reduce(GaussianMixture(w, m, P), ReductionConfig(0.0, 4.0, 10_000))


def test_pivot_absorbs_only_its_own_gate():
    # 1-d, U = 4, distances in the candidate's own metric. The heaviest
    # pivot a takes b (distance 2.25) but not c (9), although b would have
    # taken c: c stays alone. d is within the gate only in a's wide metric,
    # not in its own (25), so it stays too; e is wide (64 / 25) and a takes it.
    w = np.array([1.0, 0.8, 0.6, 0.5, 0.25])
    m = np.array([[0.0], [1.5], [3.0], [-5.0], [-8.0]])
    P = np.array([[[25.0]], [[1.0]], [[1.0]], [[1.0]], [[25.0]]])
    ow, om, oP, merged_any = _merge_pass(w, m, P, 4.0)
    assert merged_any
    take = [0, 1, 4]
    tot = 1.0 + 0.8 + 0.25
    mbar = (0.8 * 1.5 - 0.25 * 8.0) / tot
    spread = sum(w[j] * (P[j, 0, 0] + (m[j, 0] - mbar) ** 2) for j in take) / tot
    np.testing.assert_array_equal(ow, [tot, 0.6, 0.5])
    np.testing.assert_allclose(om[:, 0], [mbar, 3.0, -5.0], rtol=1e-15)
    np.testing.assert_allclose(oP[:, 0, 0], [spread, 1.0, 1.0], rtol=1e-14)
    assert_same_pass(w, m, P, 4.0)


def test_chain_of_single_gates_matches_reference():
    # A staircase of unit steps, alternately along x and along y. Each
    # component's covariance is wide (1) towards its predecessor and narrow
    # (1/16) towards its successor, so in pivot order every pivot gates only
    # its successor (d2 = 1) and no other component (d2 >= 16). Liveness then
    # alternates along the chain and takes one array round per link.
    n = 301
    steps = np.where((np.arange(n - 1) % 2 == 0)[:, None], [1.0, 0.0], [0.0, 1.0])
    m = np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    P = np.tile(np.eye(2), (n, 1, 1))
    P[1::2] = np.diag([1.0, 0.0625])  # predecessor along x, successor along y
    P[2::2] = np.diag([0.0625, 1.0])
    P[0] = np.diag([0.0625, 0.0625])
    w = 1.0 - np.arange(n) / (2.0 * n)  # pivot order is chain order
    perm = np.random.default_rng(19).permutation(n)
    w, m, P = w[perm], m[perm], P[perm]
    inv, _ = _batched_inverses(P)
    diff = m[:, None, :] - m[None, :, :]
    d2 = (np.matmul(diff, inv) * diff).sum(axis=2)  # rows are candidates
    gates = np.argwhere(d2 <= 4.0)
    gates = perm[gates[gates[:, 0] != gates[:, 1]]]  # as chain positions
    np.testing.assert_array_equal(np.sort(gates[:, 0]), np.arange(1, n))
    assert (gates[:, 0] == gates[:, 1] + 1).all()
    assert_same_pass(w, m, P, 4.0)
    assert_same_reduce(GaussianMixture(w, m, P), ReductionConfig(0.0, 4.0, 10_000))


def test_few_mergeable_rows_under_many_pivots_match_reference():
    # All but 10 covariances singular: every component is a pivot of one
    # block, but only 10 are free rows, so the liveness matrix is 5000 x 10.
    rng = np.random.default_rng(23)
    mix = clustered(rng, 5000, 40, spread=1.0, pos_std=10.0, vel_std=3.0)
    P = np.zeros_like(mix.P)
    wide = rng.choice(5000, size=10, replace=False)
    P[wide] = mix.P[wide] * 25.0
    mix = GaussianMixture(mix.w, mix.m, P)
    got = _merge_pass(mix.w, mix.m, mix.P, 4.0)
    assert got[3] and got[0].shape[0] < 5000  # some wide rows were absorbed
    assert_same_pass(mix.w, mix.m, mix.P, 4.0)
    assert_same_reduce(mix, ReductionConfig(0.0, 4.0, 10_000))


def test_live_pivot_keeps_itself_outside_its_own_gate():
    # With U < 0 no pivot gates itself (d2 = 0). The negative variance of a
    # puts it inside b's gate (d2 = -4), but a is the earlier pivot: it keeps
    # itself, and b, which a does not gate (d2 = 4), stays alone too.
    w = np.array([1.0, 0.5])
    m = np.array([[0.0], [2.0]])
    P = np.array([[[-1.0]], [[1.0]]])
    ow, om, oP, merged_any = _merge_pass(w, m, P, -1.0)
    assert not merged_any
    np.testing.assert_array_equal(ow, w)
    np.testing.assert_array_equal(om, m)
    np.testing.assert_array_equal(oP, P)
