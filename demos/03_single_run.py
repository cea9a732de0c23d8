"""One full tracking run, narrated scan by scan.

Stock scenario: two targets cross a 2 km square for 100 scans; one spawns a
pair of daughters at scan 15, the other a triple at scan 25, and the broods
die off near scans 76 and 86. Detection is imperfect (p_d 0.95) and every
scan carries ~50 clutter points. The filter runs the zero-inflated offspring
model and never sees the truth.
"""

import numpy as np

from spawncphd.cardinality import CardinalityDistribution
from spawncphd.filtering import FilterState, extract_estimates, predict_spawning, update
from spawncphd.gaussian import GaussianMixture, ReductionConfig
from spawncphd.metrics import hellinger, ideal_cardinality, ospa
from spawncphd.sim import ScenarioConfig, generate_measurements, generate_truth
from spawncphd.spawning import ZeroInflatedPoissonSpawn

scenario = ScenarioConfig()
# Same streams as run 0 of the stock experiment: truth and measurement noise
# drawn from independent children of the base seed.
base = 1729
# The truth is one (n_t, 4) array of states per scan.
truth = generate_truth(
    scenario, np.random.default_rng(np.random.SeedSequence(base, spawn_key=(0,)))
)
scans = generate_measurements(
    truth, scenario, np.random.default_rng(np.random.SeedSequence(base, spawn_key=(1, 0)))
)

spawn = ZeroInflatedPoissonSpawn(0.01, 2.5, scenario.spawn_kernel())
motion = scenario.motion_model()
sensor = scenario.sensor_model()
reduction = ReductionConfig(1e-5, 4.0, 100)

# Prior: both initial targets known roughly (100 m / 10 m/s std), count exact.
init = np.asarray(scenario.initial_states, dtype=float)
cov = np.diag([100.0**2, 100.0**2, 10.0**2, 10.0**2])
state = FilterState(
    GaussianMixture(np.ones(2), init, np.broadcast_to(cov, (2, 4, 4)).copy()),
    CardinalityDistribution.delta(2, scenario.n_max),
)

print("scan  true  map  ospa_pos  hellinger  components")
show = sorted({0, 5, 10, 14, 15, 16, 20, 25, 26, 40, 60, 75, 76, 80, 86, 90, 99})
hits = 0
stable_ospa = []
for t, (scan, X) in enumerate(zip(scans, truth)):
    pred = predict_spawning(state, motion, spawn)
    state = update(pred, scan, sensor, reduction=reduction)
    n_map, est = extract_estimates(state)
    n_true = X.shape[0]
    o_pos = ospa(est[:, :2], X[:, :2], 100.0)
    h = hellinger(state.cardinality, ideal_cardinality(n_true, scenario.n_max))
    hits += n_map == n_true
    if 30 <= t <= 70:
        stable_ospa.append(o_pos)
    if t in show:
        mark = " <- spawn" if t in (15, 25) else (" <- deaths" if t in (76, 86) else "")
        print(
            f"{t:<6d}{n_true:<6d}{n_map:<5d}{o_pos:8.2f}  {h:9.4f}  "
            f"{len(state.intensity):<4d}{mark}"
        )

print(f"\nMAP count correct on {hits}/100 scans")
print(f"mean position OSPA over the stable stretch (scans 30-70): {np.mean(stable_ospa):.2f} m")
