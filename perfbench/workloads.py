"""Benchmark workloads: which spawncphd experiments one run times.

A workload is the stock experiment with a few scenario fields changed. One
cycle of a workload is `truths` paired runs, each `run_one(cfg, 0)` on its
own config whose seed is `seed + TRUTH_STRIDE * t`. The seed fixes both the
scripted truth (daughter velocities) and the measurement noise, and the
accuracy metrics vary with both, so a cycle averages over several seeds to
keep them steady from one benchmark seed to the next.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from spawncphd.config import ExperimentConfig, load_config

DEFAULT_SEED = 1729  # the stock config's seed
TRUTH_STRIDE = 10007  # keeps the configs of nearby benchmark seeds disjoint


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: dict  # ScenarioConfig fields that differ from the stock scene
    truths: int  # paired runs (configs) per cycle
    models: tuple | None = None  # None keeps the stock four


WORKLOADS = {
    w.name: w
    for w in (
        # The scene users run: mixture reduction is about half the time.
        Workload("stock", {}, truths=20),
        # ~2000 measurements a scan, more than 768 components into
        # reduce_mixture (its per-pivot path), output capped every scan, the
        # largest arrays. 26 scans is the least that keeps the brood scripted
        # at scan 25. Two models, one spawning and the birth baseline, keep
        # every layer busy while two paired runs still fit in a run.
        # At the stock noise_std of 10 m a locked-on target's measurement
        # density exceeds the clutter density, and the update's clutter term
        # u_c ** (M - j) underflows ("count update normalizer is zero or
        # non-finite") in a few percent of paired runs. At 30 m the clutter
        # density stays above it, so no paired run fails; the 10 m rung waits
        # for scaled count arithmetic (see README.md, known failing inputs).
        Workload(
            "dense_clutter",
            {"clutter_rate": 2000.0, "n_scans": 26, "noise_std": 30.0},
            truths=2,
            models=("zip", "birth"),
        ),
        # ESF degree min(M, n_max) and the count tables grow with n_max.
        Workload("wide_count", {"n_max": 100}, truths=15),
    )
}


def configs(workload: Workload, seed: int) -> list[ExperimentConfig]:
    """One config per paired run of a cycle, each with a single run (index 0)."""
    base = load_config(None)
    scenario = dataclasses.replace(base.scenario, **workload.scenario)
    models = workload.models or base.models
    return [
        dataclasses.replace(
            base, scenario=scenario, models=models, n_runs=1, seed=seed + TRUTH_STRIDE * t
        )
        for t in range(workload.truths)
    ]


def warm_up_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Two scans of the same models, counts and clutter, without broods.

    Enough to fill the count-table caches and load lazy imports, far cheaper
    than a paired run.
    """
    scenario = dataclasses.replace(cfg.scenario, n_scans=2, spawn_events=())
    return dataclasses.replace(cfg, scenario=scenario)
