"""Blocked mixture merge against the dense pairwise-gate greedy.

`reference_merge_pass` evaluates every gate distance (m_i - m_p) A_i (m_i - m_p)
directly, in row chunks of one (J, J) table, and runs the greedy one pivot at
a time, emitting one output per pivot in pivot order. `_merge_pass` must agree
with it bit for bit, here on mixtures large enough to span many gate blocks.
`reduce_mixture` inverts each distinct covariance once and carries each
row's gate features and mergeable flag from sweep to sweep; update-shaped
mixtures, many rows sharing each covariance, exercise that.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spawncphd import gaussian
from spawncphd.gaussian import (
    _GATE_BLOCK,
    GaussianMixture,
    ReductionConfig,
    _batched_inverses,
    _merge_pass,
    _row_features,
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


def fresh_state(m, P):
    """The sweep state `reduce_mixture` starts from, computed row by row, each
    row with its own inverse."""
    inv, mergeable = _batched_inverses(P)
    return _row_features(m, inv, np.arange(m.shape[0])), mergeable


def assert_same_pass(w, m, P, U):
    got, ref = _merge_pass(w, m, P, fresh_state(m, P), U), reference_merge_pass(w, m, P, U)
    assert (got[3] is not None) == ref[3]
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


@pytest.mark.parametrize("J", [181, 256])
def test_single_tight_cluster_matches_reference(J):
    # Every pair gates, so one gate block holds all J pivots and their
    # J (J - 1) / 2 pivot-to-pivot gates, the densest liveness list a block
    # can hold: 16,290 pairs at 181 rows, 32,640 at 256.
    rng = np.random.default_rng(2000 + J)
    mix = clustered(rng, J, 1, spread=0.05, pos_std=10.0, vel_std=3.0)
    inv, _ = _batched_inverses(mix.P)
    diff = mix.m[:, None, :] - mix.m[None, :, :]
    assert ((np.matmul(diff, inv) * diff).sum(axis=2) <= 4.0).all()
    assert J * J <= _GATE_BLOCK
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
    ow, om, oP, state = _merge_pass(w, m, P, fresh_state(m, P), 4.0)
    assert state is not None
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
    # alternates along the chain: a 300-link liveness chain inside one block,
    # each link decided by the one before it.
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
    # block, but only 10 are free rows, so one block runs 5,000 pivots over
    # 10 free rows.
    rng = np.random.default_rng(23)
    mix = clustered(rng, 5000, 40, spread=1.0, pos_std=10.0, vel_std=3.0)
    P = np.zeros_like(mix.P)
    wide = rng.choice(5000, size=10, replace=False)
    P[wide] = mix.P[wide] * 25.0
    mix = GaussianMixture(mix.w, mix.m, P)
    got = _merge_pass(mix.w, mix.m, mix.P, fresh_state(mix.m, mix.P), 4.0)
    assert got[3] is not None and got[0].shape[0] < 5000  # some wide rows were absorbed
    assert_same_pass(mix.w, mix.m, mix.P, 4.0)
    assert_same_reduce(mix, ReductionConfig(0.0, 4.0, 10_000))


def test_non_finite_fast_distances_match_reference():
    # Means near 1e155 square past float64 in the pivot features, so the
    # fast distances and their band are infinite. Such pairs count as near
    # and the direct formula decides them (d2 = 0.91 in the 1e-280 I
    # inverse); no overflow warning may escape.
    m = np.array([[1e155, 1e155], [1e155 + 1e140, 1e155]])
    P = np.tile(1e280 * np.eye(2), (2, 1, 1))
    w = np.array([1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_pass(w, m, P, 4.0)
        assert_same_reduce(GaussianMixture(w, m, P), ReductionConfig(0.0, 4.0, 10))


def test_live_pivot_keeps_itself_outside_its_own_gate():
    # With U < 0 no pivot gates itself (d2 = 0). The negative variance of a
    # puts it inside b's gate (d2 = -4), but a is the earlier pivot: it keeps
    # itself, and b, which a does not gate (d2 = 4), stays alone too.
    w = np.array([1.0, 0.5])
    m = np.array([[0.0], [2.0]])
    P = np.array([[[-1.0]], [[1.0]]])
    ow, om, oP, state = _merge_pass(w, m, P, fresh_state(m, P), -1.0)
    assert state is None
    np.testing.assert_array_equal(ow, w)
    np.testing.assert_array_equal(om, m)
    np.testing.assert_array_equal(oP, P)


def test_merged_head_on_the_gate_is_rechecked_with_its_own_inverse():
    # 1-d. The first sweep merges a and b (distance 4 in b's metric) into a
    # head h of variance ~2; p gates neither (9 and 25). In the second sweep
    # p is the pivot and h a candidate exactly on the gate: U is their direct
    # distance in h's own inverse, so the fast distance lands in the rounding
    # band and the recheck decides the pair with the inverse of h's merged
    # covariance, which no row of the first sweep had.
    w = np.array([3.0, 1.0, 0.9])
    m = np.array([[0.0], [3.0], [5.0]])
    P = np.ones((3, 1, 1))
    ow, om, oP, state = _merge_pass(w, m, P, fresh_state(m, P), 5.0)
    assert state is not None and ow.tolist() == [3.0, 1.9]
    diff = om[1] - om[0]
    U = float((np.matmul(diff[None, :], np.linalg.inv(oP[1]))[0] * diff).sum())
    assert 4.0 < U < 9.0  # the first sweep gates as it does at 5
    assert len(reduce_mixture(GaussianMixture(w, m, P), ReductionConfig(0.0, U, 10))) == 1
    below = np.nextafter(U, 0.0)
    assert len(reduce_mixture(GaussianMixture(w, m, P), ReductionConfig(0.0, below, 10))) == 2
    for u in (U, below):
        assert_same_reduce(GaussianMixture(w, m, P), ReductionConfig(0.0, u, 10))


def test_singular_members_match_per_matrix_inverse(monkeypatch):
    # A stack with zero, rank-deficient, NaN, underflowing and overflowing
    # members: every member must get the bits of its own inverse, only the
    # unusable ones are flagged, no warning escapes, and only the special
    # members are inverted one at a time.
    rng = np.random.default_rng(29)
    A = rng.standard_normal((300, 4, 4))
    P = A @ np.transpose(A, (0, 2, 1)) + 0.1 * np.eye(4)
    P[7] = 0.0
    P[40] = np.outer([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    P[41, 1, 2] = np.nan
    P[42] *= 1e-80  # determinant underflows to 0 but the inverse is finite
    P[43] = np.diag([4.0, 1.0, 2.0, 0.0])
    P[44] *= 1e80  # determinant overflows but the inverse is finite
    single = []
    inner = np.linalg.inv

    def counting(a):
        single.extend([a] if a.ndim == 2 else [])
        return inner(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv, ok = _batched_inverses(P)
    monkeypatch.undo()
    assert len(single) <= 6
    ref_inv, ref_ok = np.zeros_like(P), np.ones(300, dtype=bool)
    for j in range(300):
        try:
            ref_inv[j] = np.linalg.inv(P[j])
            ref_ok[j] = np.isfinite(ref_inv[j]).all()
        except np.linalg.LinAlgError:
            ref_ok[j] = False
    assert np.array_equal(inv, ref_inv, equal_nan=True)
    assert np.array_equal(ok, ref_ok)
    assert ok[[42, 44]].all() and not ok[[7, 40, 41, 43]].any()


def update_shaped(rng, n_cov, reps, spread):
    """Rows shaped like the detection block of an update: each of n_cov
    covariances is shared by `reps` rows whose means scatter around one
    centre in that covariance's own metric, rows of all covariances
    interleaved."""
    base = clustered(rng, n_cov, max(1, n_cov // 10), spread=1.0, pos_std=10.0, vel_std=3.0)
    j = rng.permutation(np.repeat(np.arange(n_cov), reps))
    L = np.linalg.cholesky(base.P)
    m = base.m[j] + spread * np.matmul(L[j], rng.normal(size=(j.shape[0], 4, 1)))[:, :, 0]
    return GaussianMixture(rng.uniform(1e-4, 1.0, size=j.shape[0]), m, base.P[j])


def with_signed_zero_pair(mix, a, b):
    """Covariances a and b become one diagonal matrix that differs only in
    the sign of a zero off-diagonal entry."""
    P = mix.P.copy()
    cov = np.diag([100.0, 100.0, 9.0, 9.0])
    first_a, first_b = P[a].copy(), P[b].copy()
    for src, sign in ((first_a, 1.0), (first_b, -1.0)):
        hit = (P == src).all(axis=(1, 2))
        P[hit] = cov
        P[hit, 0, 1] = P[hit, 1, 0] = sign * 0.0
    return GaussianMixture(mix.w, mix.m, P)


def sweep_counter(monkeypatch, check=True):
    """Counts sweeps, and merged heads: output rows of a sweep that match no
    input row bit for bit (an unmerged pivot is emitted as it came in).
    With `check`, the state a sweep hands on must be the one computed afresh."""
    seen = {"sweeps": 0, "heads": 0}
    inner = gaussian._merge_pass

    def counting(w, m, P, state, U):
        out = inner(w, m, P, state, U)
        if check and out[3] is not None:
            for a, b in zip(out[3], fresh_state(out[1], out[2])):
                assert np.array_equal(a, b, equal_nan=True)
        rows = {(a.tobytes(), b.tobytes(), c.tobytes()) for a, b, c in zip(w, m, P)}
        seen["sweeps"] += 1
        seen["heads"] += sum(
            (a.tobytes(), b.tobytes(), c.tobytes()) not in rows for a, b, c in zip(*out[:3])
        )
        return out

    monkeypatch.setattr(gaussian, "_merge_pass", counting)
    return seen


def test_repeated_covariances_with_singular_members_match_reference():
    rng = np.random.default_rng(31)
    mix = with_signed_zero_pair(update_shaped(rng, 300, 8, spread=1.5), 5, 6)
    P = mix.P.copy()
    zero, rank1 = ((P == P[i]).all(axis=(1, 2)) for i in (0, 1))
    P[zero] = 0.0  # exactly singular on all rows of one covariance
    P[rank1] = np.outer([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    mix = GaussianMixture(mix.w, mix.m, P)
    assert zero.sum() > 1 and rank1.sum() > 1
    assert len({p.tobytes() for p in mix.P}) == 300
    assert_same_pass(mix.w, mix.m, mix.P, 4.0)
    assert_same_reduce(mix, ReductionConfig(0.0, 4.0, 10_000))


@pytest.mark.parametrize("n_cov, reps, spread, seed", [(200, 15, 1.5, 37), (300, 10, 2.0, 41)])
def test_update_shaped_mixtures_match_reference(monkeypatch, n_cov, reps, spread, seed):
    # A sweep takes many gate blocks, and moment-matched heads widen and gate
    # further rows in later sweeps, so the carried inverses and features of
    # unmerged rows are used again.
    mix = update_shaped(np.random.default_rng(seed), n_cov, reps, spread)
    assert len(mix) ** 2 > 100 * _GATE_BLOCK
    assert_same_pass(mix.w, mix.m, mix.P, 4.0)
    seen = sweep_counter(monkeypatch)
    assert_same_reduce(mix, ReductionConfig(1e-5, 4.0, 100))
    assert seen["sweeps"] >= 3


def test_inverts_each_distinct_covariance_once_and_each_merged_head(monkeypatch):
    rng = np.random.default_rng(43)
    mix = with_signed_zero_pair(update_shaped(rng, 250, 12, spread=1.5), 3, 4)
    distinct = len({p.tobytes() for p in mix.P})
    assert distinct == 250  # the signed-zero pair stays two covariances
    batches = []
    inner = np.linalg.inv

    def counting(a):
        batches.append(1 if a.ndim == 2 else a.shape[0])
        return inner(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    seen = sweep_counter(monkeypatch, check=False)  # a fresh state would count
    out = reduce_mixture(mix, ReductionConfig(0.0, 4.0, 10_000))
    assert batches[0] == distinct
    assert sum(batches) <= distinct + seen["heads"]
    assert seen["sweeps"] >= 3 and len(out) < len(mix)
    monkeypatch.undo()
    assert_same_reduce(mix, ReductionConfig(0.0, 4.0, 10_000))


def test_reduction_memory_per_row(traced_peak):
    # The largest `dense_clutter` input is 7,117 rows over about 200 distinct
    # covariances. The sweep state is 15 features and a mergeable flag a row;
    # this measured 4.28 MB, 612 bytes a row (614 with a covariance id a row
    # into a table of inverses). 46 doubles a row, each with its own inverse,
    # and a copy of the mixture in every merging sweep measured 10.16 MB,
    # 1,451 bytes a row.
    mix = update_shaped(np.random.default_rng(47), 200, 35, spread=1.5)
    cfg = ReductionConfig(1e-5, 4.0, 100)
    reduce_mixture(mix, cfg)
    assert traced_peak(reduce_mixture, mix, cfg) < 800 * len(mix)


@settings(max_examples=40, deadline=None)
@given(
    n_cov=st.integers(1, 12),
    reps=st.integers(1, 30),
    spread=st.sampled_from([0.25, 1.0, 2.0, 4.0]),
    U=st.sampled_from([0.5, 4.0, 16.0]),
    singular=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_duplicated_covariance_mixtures_match_reference(n_cov, reps, spread, U, singular, seed):
    rng = np.random.default_rng(seed)
    mix = update_shaped(rng, n_cov, reps, spread)
    if singular:
        P = mix.P.copy()
        P[(P == P[0]).all(axis=(1, 2))] = 0.0
        mix = GaussianMixture(mix.w, mix.m, P)
    assert_same_pass(mix.w, mix.m, mix.P, U)
    assert_same_reduce(mix, ReductionConfig(0.0, U, 10_000))
