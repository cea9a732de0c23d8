"""Scenario generation: frozen truth geometry, measurement statistics, and
the Monte-Carlo branching oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from spawncphd.cardinality import CardinalityDistribution, predict_cardinality
from spawncphd.errors import ConfigError
from spawncphd.sim import (
    ScenarioConfig,
    SpawnEvent,
    generate_measurements,
    generate_truth,
    mc_branching_oracle,
)
from spawncphd.spawning import (
    BernoulliSpawn,
    PoissonSpawn,
    ZeroInflatedPoissonSpawn,
    bell_coefficients,
    unit_spawn_kernel,
)

# The stock scenario: two crossing targets, a 2-daughter event at scan 15 on
# target 0 and a 3-daughter event at scan 25 on target 1, both broods living
# 60 more scans.
EXPECTED_COUNTS = [2] * 15 + [4] * 10 + [7] * 51 + [5] * 10 + [2] * 14


class TestTruth:
    def test_default_count_trajectory(self):
        truth = generate_truth(ScenarioConfig(), np.random.default_rng(1))
        assert [X.shape for X in truth] == [(n, 4) for n in EXPECTED_COUNTS]

    def test_parents_move_deterministically(self):
        truth = generate_truth(ScenarioConfig(), np.random.default_rng(1))
        p0 = np.stack([X[0] for X in truth])
        np.testing.assert_array_equal(p0[0], [-600.0, -600.0, 14.0, 11.0])
        # constant velocity: position advances linearly, velocity fixed
        np.testing.assert_allclose(p0[40, :2], [-600 + 14 * 40, -600 + 11 * 40], rtol=1e-12)
        np.testing.assert_array_equal(p0[40, 2:], [14.0, 11.0])

    def test_daughters_start_at_parent_position(self):
        # scan 15 holds both parents, then target 0's two daughters
        truth = generate_truth(ScenarioConfig(), np.random.default_rng(5))
        assert truth[14].shape[0] == 2
        parent, daughters = truth[15][0], truth[15][2:]
        assert daughters.shape[0] == 2
        for d in daughters:
            np.testing.assert_array_equal(d[:2], parent[:2])
            assert not np.array_equal(d[2:], parent[2:])

    def test_daughter_velocity_dispersion(self):
        # velocities scatter around the parent's with the configured std
        cfg = ScenarioConfig(
            spawn_events=(SpawnEvent(time=10, parent=0, count=400, lifespan=5),)
        )
        truth = generate_truth(cfg, np.random.default_rng(9))
        dv = truth[10][2:, 2:] - truth[10][0, 2:]
        assert dv.shape == (400, 2)
        assert abs(dv.mean()) < 2.0
        assert dv.std() == pytest.approx(cfg.daughter_vel_std, rel=0.15)

    def test_same_seed_reproduces(self):
        a = generate_truth(ScenarioConfig(), np.random.default_rng(33))
        b = generate_truth(ScenarioConfig(), np.random.default_rng(33))
        assert len(a) == len(b) == 100
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)

    def test_event_outside_parent_life_rejected(self):
        with pytest.raises(ConfigError, match="^n_scans = 100: no scan left for the brood at scan 150$"):
            ScenarioConfig(spawn_events=(SpawnEvent(time=150, parent=0, count=1, lifespan=10),))

    @pytest.mark.parametrize(
        "event, scan",
        [
            (SpawnEvent(time=10, parent=2, count=1, lifespan=5), 10),  # no track 2
            (SpawnEvent(time=30, parent=2, count=1, lifespan=5), 30),  # track 2 died at 25
        ],
    )
    def test_event_without_live_parent_rejected(self, event, scan):
        first = SpawnEvent(time=20, parent=0, count=1, lifespan=5)
        events = (event,) if event.time < 20 else (first, event)
        with pytest.raises(ConfigError, match=rf"^spawn_events: track 2 not alive at scan {scan}$"):
            ScenarioConfig(spawn_events=events)

    def test_schedule_lists_initial_targets_then_broods(self):
        # Lives clipped to the run; a daughter may parent a later brood.
        cfg = ScenarioConfig(
            n_scans=50,
            spawn_events=(
                SpawnEvent(time=15, parent=0, count=2, lifespan=60),
                SpawnEvent(time=20, parent=2, count=1, lifespan=3),
            ),
        )
        assert cfg.schedule() == [(None, 0, 49), (None, 0, 49), (0, 15, 49), (0, 15, 49), (2, 20, 23)]
        truth = generate_truth(cfg, np.random.default_rng(0))
        assert [X.shape[0] for X in truth] == [2] * 15 + [4] * 5 + [5] * 4 + [4] * 26
        # the brood of track 2 starts at its parent's position, the last row
        np.testing.assert_array_equal(truth[20][4, :2], truth[20][2, :2])


finite = st.floats(-1000.0, 1000.0, allow_nan=False)


@st.composite
def scenes(draw):
    """Random initial targets and broods, each event within the run and on a
    track listed before it; the parent may still be dead at the event."""
    n_scans = draw(st.integers(1, 40))
    initial = draw(st.lists(st.tuples(finite, finite, finite, finite), min_size=1, max_size=3))
    tracks = len(initial)
    events = []
    for _ in range(draw(st.integers(1, 4))):
        time, count = draw(st.integers(0, n_scans - 1)), draw(st.integers(1, 3))
        parent = draw(st.integers(0, tracks - 1))
        events.append(SpawnEvent(time, parent, count, draw(st.integers(0, 20))))
        tracks += count
    return dict(
        n_scans=n_scans,
        dt=draw(st.sampled_from([1.0, 0.37, 2.0])),
        initial_states=tuple(initial),
        spawn_events=tuple(events),
    )


@settings(max_examples=60, deadline=None)
@given(scenes(), st.integers(0, 2**32 - 1))
def test_truth_follows_the_schedule(scene, seed):
    # Per-scan arrays against `schedule()`: live counts, daughters born at
    # their parent's position, each step F @ x, and equal seeds, equal arrays.
    try:
        cfg = ScenarioConfig(**scene)
    except ConfigError:
        assume(False)
    schedule = cfg.schedule()
    truth = generate_truth(cfg, np.random.default_rng(seed))

    def row(k, t):  # track k's row at scan t: the live tracks before it
        return sum(first <= t <= last for _, first, last in schedule[:k])

    assert [len(X) for X in truth] == [row(len(schedule), t) for t in range(cfg.n_scans)]
    F = cfg.motion_model().F
    for k, (parent, first, last) in enumerate(schedule):
        x = truth[first][row(k, first)]
        if parent is None:
            np.testing.assert_array_equal(x, cfg.initial_states[k])
        else:
            np.testing.assert_array_equal(x[:2], truth[first][row(parent, first), :2])
        for t in range(first, last):
            step = truth[t + 1][row(k, t + 1)]
            np.testing.assert_array_equal(step, F @ x)
            x = step
    again = generate_truth(cfg, np.random.default_rng(seed))
    assert all(np.array_equal(a, b) for a, b in zip(truth, again, strict=True))


class TestMeasurements:
    def test_perfect_sensor_sees_exactly_the_visible_targets(self):
        # coverage stops at the region edge: a wandering daughter may leave,
        # so the reference set is the in-region subset of the truth
        cfg = ScenarioConfig(p_d=1.0, clutter_rate=0.0, noise_std=1e-9)
        truth = generate_truth(cfg, np.random.default_rng(2))
        scans = generate_measurements(truth, cfg, np.random.default_rng(3))
        assert len(scans) == cfg.n_scans
        from scipy.optimize import linear_sum_assignment

        left_region = 0
        for t, z in enumerate(scans):
            pos = truth[t][:, :2]
            visible = pos[cfg.region.contains(pos)]
            left_region += pos.shape[0] - visible.shape[0]
            assert z.shape == visible.shape
            D = np.linalg.norm(z[:, None, :] - visible[None, :, :], axis=2)
            rows, cols = linear_sum_assignment(D)
            assert D[rows, cols].max() < 1e-6
        # this seed does produce an excursion, so the gate is exercised
        assert left_region > 0

    def test_out_of_region_detections_are_dropped(self):
        # a target hugging the boundary loses the detections whose noise
        # pushes the reported point past the edge
        cfg = ScenarioConfig(
            p_d=1.0,
            clutter_rate=0.0,
            noise_std=20.0,
            initial_states=((995.0, 0.0, 0.0, 0.0),),
            spawn_events=(),
        )
        truth = generate_truth(cfg, np.random.default_rng(0))
        scans = generate_measurements(truth, cfg, np.random.default_rng(5))
        sizes = np.array([z.shape[0] for z in scans])
        assert set(sizes.tolist()) == {0, 1}
        assert 0.2 < (sizes == 0).mean() < 0.6
        pts = np.concatenate([z for z in scans if z.size])
        assert cfg.region.contains(pts).all()

    def test_exit_warning(self, caplog):
        import logging

        runaway = ScenarioConfig(
            initial_states=((900.0, 0.0, 20.0, 0.0),), spawn_events=()
        )
        with caplog.at_level(logging.WARNING, logger="spawncphd.sim"):
            generate_truth(runaway, np.random.default_rng(0))
        assert any("leave the surveillance region" in r.message for r in caplog.records)
        caplog.clear()
        contained = ScenarioConfig(spawn_events=())
        with caplog.at_level(logging.WARNING, logger="spawncphd.sim"):
            generate_truth(contained, np.random.default_rng(0))
        assert not caplog.records

    def test_clutter_only_statistics(self):
        cfg = ScenarioConfig(p_d=0.0, clutter_rate=50.0)
        truth = generate_truth(cfg, np.random.default_rng(2))
        scans = generate_measurements(truth, cfg, np.random.default_rng(4))
        counts = np.array([z.shape[0] for z in scans])
        # 100 draws of Poisson(50): mean within 5 sigma/sqrt(100)
        assert abs(counts.mean() - 50.0) < 3.5
        inside = np.concatenate(scans)
        assert cfg.region.contains(inside).all()

    def test_seeded_measurements_reproduce_bytewise(self):
        cfg = ScenarioConfig()
        truth = generate_truth(cfg, np.random.default_rng(2))
        a = generate_measurements(truth, cfg, np.random.default_rng(77))
        b = generate_measurements(truth, cfg, np.random.default_rng(77))
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa, sb)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 57, 2000])
    def test_permutation_gather_is_row_shuffle(self, n):
        # generate_measurements gathers z[rng.permutation(n)] in place of
        # rng.shuffle(z, axis=0): the same rows, and the same generator after.
        z = np.random.default_rng(n).uniform(-1000.0, 1000.0, size=(n, 2))
        a, b = np.random.default_rng(31), np.random.default_rng(31)
        swapped = z.copy()
        a.shuffle(swapped, axis=0)
        np.testing.assert_array_equal(z[b.permutation(n)], swapped)
        assert a.random() == b.random()

    def test_detections_and_clutter_interleaved(self):
        # the scan must not reveal target measurements by position in the array
        cfg = ScenarioConfig(p_d=1.0, clutter_rate=50.0, noise_std=1e-6)
        truth = generate_truth(cfg, np.random.default_rng(2))
        scans = generate_measurements(truth, cfg, np.random.default_rng(8))
        first_is_target = []
        for t, z in enumerate(scans):
            pos = truth[t][:, :2]
            d = np.abs(z[0] - pos).sum(axis=1).min()
            first_is_target.append(d < 1.0)
        # with ~50 clutter and <=7 targets, leading slot is mostly clutter
        assert 0 < sum(first_is_target) / len(first_is_target) < 0.5


class TestBranchingOracle:
    def test_single_parent_matches_offspring_pmf(self):
        rng = np.random.default_rng(100)
        kernel = unit_spawn_kernel(4)
        rho1 = CardinalityDistribution.delta(1, 10)
        for model in [
            BernoulliSpawn(0.3, kernel),
            PoissonSpawn(0.6, kernel),
            ZeroInflatedPoissonSpawn(0.4, 1.5, kernel),
        ]:
            emp = mc_branching_oracle(rho1, model, 0.9, 200_000, rng)
            ref = bell_coefficients(model, 0.9, 10).pmf
            tv = 0.5 * np.abs(emp.probs - ref / ref.sum()).sum()
            assert tv < 0.01

    def test_spread_prior_matches_bell_prediction(self):
        rng = np.random.default_rng(101)
        kernel = unit_spawn_kernel(4)
        prior = CardinalityDistribution(
            np.array([0.1, 0.15, 0.2, 0.25, 0.2, 0.1] + [0.0] * 9)
        )
        model = ZeroInflatedPoissonSpawn(0.2, 2.0, kernel)
        emp = mc_branching_oracle(prior, model, 0.95, 400_000, rng)
        ref = predict_cardinality(prior, bell_coefficients(model, 0.95, 14))
        tv = 0.5 * np.abs(emp.probs - ref.probs).sum()
        assert tv < 0.01

    def test_fully_activated_zip_is_poisson(self):
        rng = np.random.default_rng(102)
        kernel = unit_spawn_kernel(4)
        prior = CardinalityDistribution.delta(3, 12)
        a = mc_branching_oracle(prior, ZeroInflatedPoissonSpawn(1.0, 0.8, kernel), 0.9, 300_000, rng)
        b = mc_branching_oracle(prior, PoissonSpawn(0.8, kernel), 0.9, 300_000, np.random.default_rng(102))
        tv = 0.5 * np.abs(a.probs - b.probs).sum()
        assert tv < 0.01

    def test_empty_prior_stays_empty(self):
        rng = np.random.default_rng(103)
        kernel = unit_spawn_kernel(4)
        out = mc_branching_oracle(
            CardinalityDistribution.delta(0, 8), PoissonSpawn(2.0, kernel), 0.9, 1000, rng
        )
        np.testing.assert_array_equal(out.probs, CardinalityDistribution.delta(0, 8).probs)

    def test_survival_only_is_binomial(self):
        rng = np.random.default_rng(104)
        kernel = unit_spawn_kernel(4)
        out = mc_branching_oracle(
            CardinalityDistribution.delta(6, 10), BernoulliSpawn(0.0, kernel), 0.7, 300_000, rng
        )
        ref = stats.binom.pmf(np.arange(11), 6, 0.7)
        assert 0.5 * np.abs(out.probs - ref).sum() < 0.01
