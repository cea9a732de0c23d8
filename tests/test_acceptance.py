"""Release gate: one test per acceptance criterion, tolerances stated inline.

`pytest -v tests/test_acceptance.py` reads as a checklist — each criterion
produces exactly one pass/fail line. Every expected value here comes from an
independent route (enumeration, closed form, a reference filter, or direct
simulation), never from the code under test.
"""

import csv
import itertools
import math
import time

import numpy as np

from spawncphd.cardinality import (
    CardinalityDistribution,
    binomial_thin,
    convolve_counts,
    partial_bell,
    pgf_compose_oracle,
    poisson_pmf,
    predict_cardinality,
)
from spawncphd.cli import main
from spawncphd.config import load_config
from spawncphd.experiment import INIT_POS_STD, INIT_VEL_STD, run_experiment, summarize
from spawncphd.filtering import (
    BirthModel,
    FilterState,
    MotionModel,
    Rect,
    SensorModel,
    predict_birth,
    predict_spawning,
    update,
)
from spawncphd.gaussian import GaussianMixture
from spawncphd.metrics import hellinger, ospa
from spawncphd.sim import (
    ScenarioConfig,
    generate_measurements,
    generate_truth,
    mc_branching_oracle,
)
from spawncphd.spawning import (
    BernoulliSpawn,
    PoissonSpawn,
    ZeroInflatedPoissonSpawn,
    bell_coefficients,
    spawn_intensity,
    unit_spawn_kernel,
)

SPAWN_NAMES = ("bernoulli", "poisson", "zip")


def stock_models():
    kernel = unit_spawn_kernel(4)
    return [
        BernoulliSpawn(0.01, kernel),
        PoissonSpawn(0.025, kernel),
        ZeroInflatedPoissonSpawn(0.01, 2.5, kernel),
    ]


def two_target_prior(scenario):
    # Broad unit-weight component per initial target, count believed exact.
    states = np.asarray(scenario.initial_states, dtype=float)
    cov = np.diag([INIT_POS_STD**2, INIT_POS_STD**2, INIT_VEL_STD**2, INIT_VEL_STD**2])
    mix = GaussianMixture(
        np.ones(len(states)), states, np.broadcast_to(cov, (len(states), 4, 4)).copy()
    )
    return FilterState(mix, CardinalityDistribution.delta(len(states), scenario.n_max))


def test_criterion_1_oracle_equivalence():
    # The analytic one-step count prediction must agree with two independent
    # routes: truncated generating-function composition (sup-norm < 1e-10)
    # and a 1e6-sample direct simulation (total variation < 0.01), for each
    # stock model over 20 randomized priors, all in under 30 s.
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260818)
    for model in stock_models():
        b = bell_coefficients(model, 0.99, 20)
        for _ in range(20):
            raw = rng.random(21)
            rho = CardinalityDistribution(raw / raw.sum())
            analytic = predict_cardinality(rho, b)
            composed = pgf_compose_oracle(rho, b.pmf)
            sup = float(np.abs(analytic.probs - composed.probs).max())
            assert sup < 1e-10, f"{type(model).__name__}: sup-norm {sup:.3e}"
            sampled = mc_branching_oracle(
                rho, model, 0.99, 1_000_000, np.random.default_rng(7)
            )
            tv = 0.5 * float(np.abs(analytic.probs - sampled.probs).sum())
            assert tv < 0.01, f"{type(model).__name__}: TV {tv:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s"


def set_partitions(elements):
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def test_criterion_2_partial_bell_exhaustive():
    # Exact match (zero error) against brute-force enumeration of all set
    # partitions, for every n <= 10, j <= n, on integer arguments. All
    # intermediate floats stay far below 2**53, so equality is exact.
    x = [((3 * i) % 7) - 3 for i in range(1, 11)]  # 0, 3, -1, 2, -2, ...
    for n in range(11):
        by_blocks = [0] * (n + 1)
        for part in set_partitions(list(range(n))):
            term = 1
            for block in part:
                term *= x[len(block) - 1]
            by_blocks[len(part)] += term
        for j in range(n + 1):
            got = partial_bell(n, j, x)
            assert got == by_blocks[j], f"B_({n},{j}): {got} != {by_blocks[j]}"


def test_criterion_3_zip_poisson_reduction():
    # Activation probability 1 removes the zero-inflation: the model must
    # reproduce the plain Poisson model through the offspring coefficients,
    # the spawned intensity, and a complete 100-scan tracking run, within
    # 1e-12 everywhere.
    scenario = ScenarioConfig()
    kernel = scenario.spawn_kernel()
    degenerate = ZeroInflatedPoissonSpawn(1.0, 2.5, kernel)
    plain = PoissonSpawn(2.5, kernel)

    bz = bell_coefficients(degenerate, scenario.p_s, scenario.n_max)
    bp = bell_coefficients(plain, scenario.p_s, scenario.n_max)
    assert float(np.abs(bz.b - bp.b).max()) <= 1e-12

    rng = np.random.default_rng(3)
    posterior = GaussianMixture(
        rng.random(3) + 0.1,
        rng.normal(0.0, 200.0, (3, 4)),
        np.broadcast_to(np.diag([25.0, 25.0, 4.0, 4.0]), (3, 4, 4)).copy(),
    )
    sz = spawn_intensity(posterior, degenerate)
    sp = spawn_intensity(posterior, plain)
    assert float(np.abs(sz.w - sp.w).max()) <= 1e-12
    assert float(np.abs(sz.m - sp.m).max()) <= 1e-12
    assert float(np.abs(sz.P - sp.P).max()) <= 1e-12

    truth = generate_truth(scenario, np.random.default_rng(101))
    scans = generate_measurements(truth, scenario, np.random.default_rng(202))
    motion = scenario.motion_model()
    sensor = scenario.sensor_model()
    states = [two_target_prior(scenario), two_target_prior(scenario)]
    worst = 0.0
    for scan in scans:
        states = [
            update(predict_spawning(st, motion, model), scan, sensor)
            for st, model in zip(states, (degenerate, plain))
        ]
        a, b = states
        assert len(a.intensity) == len(b.intensity)
        # Covariance entries reach ~5e3 m^2, where 1e-12 absolute sits below
        # one float64 ulp; compare them in correlation-normalized units so
        # the tolerance means the same thing for every quantity.
        d = np.sqrt(1.0 + np.einsum("kii->ki", b.intensity.P))
        scale = d[:, :, None] * d[:, None, :]
        worst = max(
            worst,
            float(np.abs(a.cardinality.probs - b.cardinality.probs).max()),
            float(np.abs(a.intensity.w - b.intensity.w).max()),
            float(np.abs(a.intensity.m - b.intensity.m).max()),
            float((np.abs(a.intensity.P - b.intensity.P) / scale).max()),
        )
    assert worst <= 1e-12, f"worst per-scan divergence {worst:.3e}"


def test_criterion_4_kalman_reduction():
    # One certain-survival target, perfect detection, no clutter, no birth,
    # no spawning: the filter must collapse to a plain Kalman filter. The
    # reference below is coded straight from the textbook equations.
    region = Rect(-1000.0, 1000.0, -1000.0, 1000.0)
    motion = MotionModel.constant_velocity(1.0, 5.0, 1.0)
    sensor = SensorModel.position_sensor(10.0, 1.0, 0.0, region)
    birth = BirthModel(0.0, GaussianMixture.empty(4))
    F, Q, H, R = motion.F, motion.Q, sensor.H, sensor.R

    x0 = np.array([0.0, 0.0, 5.0, 3.0])
    P0 = np.diag([100.0**2, 100.0**2, 10.0**2, 10.0**2])
    rng = np.random.default_rng(42)
    xs = np.empty((100, 4))
    xs[0] = x0
    for t in range(1, 100):
        xs[t] = F @ xs[t - 1]
    zs = xs[:, :2] + rng.normal(0.0, 10.0, (100, 2))

    state = FilterState(
        GaussianMixture(np.ones(1), x0[None], P0[None].copy()),
        CardinalityDistribution.delta(1, 20),
    )
    km, kP = x0.copy(), P0.copy()
    worst_mean = worst_cov = 0.0
    for t in range(100):
        pred = predict_birth(state, motion, birth)
        state = update(pred, zs[t][None], sensor)

        km = F @ km
        kP = F @ kP @ F.T + Q
        S = H @ kP @ H.T + R
        K = kP @ H.T @ np.linalg.inv(S)
        km = km + K @ (zs[t] - H @ km)
        kP = (np.eye(4) - K @ H) @ kP

        assert len(state.intensity) == 1
        worst_mean = max(worst_mean, float(np.abs(state.intensity.m[0] - km).max()))
        worst_cov = max(worst_cov, float(np.abs(state.intensity.P[0] - kP).max()))
    assert worst_mean < 1e-9, f"mean drift {worst_mean:.3e}"
    assert worst_cov < 1e-9, f"covariance drift {worst_cov:.3e}"


def test_criterion_5_prediction_consistency():
    # Count/mass bookkeeping on the stock 100-scan scenario, every model.
    # Prediction scales the expected count and the intensity mass by the same
    # per-parent factor, so after each prediction |E[n] - mass| / mass < 1e-6
    # — except that the stored distribution is capped at n_max, and burst-
    # heavy offspring tails push real mass past the cap (routinely ~1e-5 for
    # the zero-inflated model). The check therefore replays every count
    # prediction on a 3x-wider support, where the tail is genuinely
    # negligible: the wide mean must satisfy the exact branching identity,
    # the wide intensity mass likewise, and the filter's capped vector must
    # be exactly the renormalized head of the wide one.
    wide_max = 60
    cfg = load_config(None)
    scenario = cfg.scenario
    truth = generate_truth(scenario, np.random.default_rng(55))
    scans = generate_measurements(truth, scenario, np.random.default_rng(56))
    motion = scenario.motion_model()
    sensor = scenario.sensor_model()
    birth = scenario.birth_model()
    for name in cfg.models:
        spawn = None if name == "birth" else cfg.spawn_model(name)
        growth = motion.p_s + (spawn.alpha if spawn is not None else 0.0)
        if name == "birth":
            state = FilterState(
                GaussianMixture.empty(4), CardinalityDistribution.delta(0, scenario.n_max)
            )
            b_wide = None
        else:
            state = two_target_prior(scenario)
            b_wide = bell_coefficients(spawn, motion.p_s, wide_max)
        for t, scan in enumerate(scans):
            e_in = state.cardinality.mean
            mass_in = state.intensity.total_weight
            pad = np.zeros(wide_max - scenario.n_max)
            rho_wide = CardinalityDistribution(np.concatenate([state.cardinality.probs, pad]))
            if spawn is not None:
                pred = predict_spawning(state, motion, spawn)
                wide = predict_cardinality(rho_wide, b_wide)
                e_exact = growth * e_in
                mass_exact = growth * mass_in
            else:
                pred = predict_birth(state, motion, birth)
                thinned = binomial_thin(rho_wide, motion.p_s)
                wide = convolve_counts(thinned, poisson_pmf(birth.rate, wide_max))
                e_exact = motion.p_s * e_in + birth.rate
                mass_exact = motion.p_s * mass_in + birth.rate
            mass_pred = pred.intensity.total_weight
            assert wide.truncation_deficit < 1e-9
            gap = abs(wide.mean - e_exact) / mass_pred
            assert gap < 1e-6, f"{name} scan {t}: count drift {gap:.3e}"
            gap = abs(mass_pred - mass_exact) / mass_pred
            assert gap < 1e-12, f"{name} scan {t}: mass drift {gap:.3e}"
            head = wide.probs[: scenario.n_max + 1]
            head = head / head.sum()
            sup = float(np.abs(pred.cardinality.probs - head).max())
            assert sup <= 1e-12, f"{name} scan {t}: capped head differs {sup:.3e}"
            assert pred.consistency_gap() < 0.05
            state = update(pred, scan, sensor, reduction=cfg.reduction)


def _mean_curves(summary_path):
    rows = list(csv.DictReader(open(summary_path)))
    cols = ("true_n", "map_n", "ospa_pos", "hellinger_pred", "hellinger_upd")
    out = {}
    for name in {r["model"] for r in rows}:
        ordered = sorted((int(r["scan"]), r) for r in rows if r["model"] == name)
        out[name] = {c: np.array([float(r[c]) for _, r in ordered]) for c in cols}
    return out


def test_criterion_6_experiment_orderings(tmp_path):
    # The stock 50-run comparison, end to end, in under 5 minutes. Checks:
    # (a) after each spawning event every spawn model's mean MAP count
    #     reaches within 0.5 of truth no later than the baseline, with the
    #     zero-inflated model no later than the other two;
    # (b) over the stable stretch (scans 30-70) the updated-Hellinger means
    #     order zip < bernoulli < poisson; the baseline's narrower count
    #     prior makes it strong on this stretch, so each spawn model must
    #     stay within 0.15 of it;
    # (c) per model, updating never hurts on average (updated <= predicted);
    # (d) every model shows a position-OSPA peak within 2 scans of each
    #     population change (15, 25, 76, 86).
    cfg = load_config(None)
    t0 = time.perf_counter()
    run_experiment(cfg, tmp_path)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"50-run comparison took {elapsed:.0f}s"

    curves = _mean_curves(summarize(tmp_path))
    true_n = curves["zip"]["true_n"]
    windows = ((15, 25), (25, 76))  # event scan .. last scan before next change

    conv = {}
    for name in cfg.models:
        mapc = curves[name]["map_n"]
        conv[name] = tuple(
            next((t for t in range(lo, hi) if abs(mapc[t] - true_n[t]) < 0.5), hi)
            for lo, hi in windows
        )
    for name in SPAWN_NAMES:
        for i in (0, 1):
            assert conv[name][i] <= conv["birth"][i], (name, conv)
    for other in ("bernoulli", "poisson"):
        for i in (0, 1):
            assert conv["zip"][i] <= conv[other][i], conv

    stable = {m: curves[m]["hellinger_upd"][30:71].mean() for m in cfg.models}
    assert stable["zip"] < stable["bernoulli"] < stable["poisson"], stable
    for name in SPAWN_NAMES:
        assert stable[name] < stable["birth"] + 0.15, stable

    for name in cfg.models:
        upd = curves[name]["hellinger_upd"].mean()
        prd = curves[name]["hellinger_pred"].mean()
        assert upd <= prd, f"{name}: updated {upd:.4f} > predicted {prd:.4f}"

    for name in cfg.models:
        v = curves[name]["ospa_pos"]
        for event in (15, 25, 76, 86):
            hit = any(
                v[s] >= v[s - 1] and v[s] >= v[s + 1]
                for s in range(event - 2, event + 3)
            )
            assert hit, f"{name}: no OSPA peak within 2 scans of {event}"


def test_criterion_7_metric_axioms():
    # 1e4 randomized cases per suite. OSPA: exact agreement with permutation
    # brute force (set sizes <= 6), symmetry, bounds, identity. Hellinger:
    # bounds, symmetry, identity, triangle inequality.
    rng = np.random.default_rng(414)
    perms = {
        k: np.array(list(itertools.permutations(range(k))), dtype=int)
        for k in range(1, 7)
    }

    def brute_ospa(X, Y, c):
        m, n = len(X), len(Y)
        if m > n:
            X, Y, m, n = Y, X, n, m
        if n == 0:
            return 0.0
        if m == 0:
            return float(c)
        D2 = np.minimum(np.linalg.norm(X[:, None] - Y[None], axis=-1), c) ** 2
        costs = D2[np.arange(m)[None, :], perms[n][:, :m]].sum(axis=1)
        return math.sqrt((float(costs.min()) + c * c * (n - m)) / n)

    for case in range(10_000):
        m, n = rng.integers(0, 7, size=2)
        X = rng.normal(0.0, 60.0, (m, 2))
        Y = rng.normal(0.0, 60.0, (n, 2))
        c = float(rng.choice([1.0, 20.0, 100.0]))
        d = ospa(X, Y, c)
        assert abs(d - brute_ospa(X, Y, c)) <= 1e-9
        assert abs(d - ospa(Y, X, c)) <= 1e-12
        assert -1e-12 <= d <= c + 1e-12
        if case % 10 == 0 and m > 0:
            assert ospa(X, X, c) <= 1e-12

    for _ in range(10_000):
        k = int(rng.integers(1, 22))
        p, q, r = (v / v.sum() for v in rng.random((3, k)) + 1e-12)
        hpq = hellinger(p, q)
        hqr = hellinger(q, r)
        hpr = hellinger(p, r)
        for h in (hpq, hqr, hpr):
            assert 0.0 <= h <= 1.0
        assert abs(hpq - hellinger(q, p)) <= 1e-15
        assert hellinger(p, p) == 0.0
        assert hpr <= hpq + hqr + 1e-12


def test_criterion_8_reproducibility(tmp_path):
    # Same config file, same seed: the CLI must produce byte-identical CSVs.
    ini = tmp_path / "small.ini"
    ini.write_text("[scenario]\nn_scans = 40\n\n[experiment]\nruns = 3\nseed = 99\n")
    outputs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
        assert main(["summarize", "--in", str(out)]) == 0
        outputs.append(
            (out / "scans.csv").read_bytes() + (out / "summary.csv").read_bytes()
        )
    assert outputs[0] == outputs[1]
