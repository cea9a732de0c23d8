"""Monte-Carlo model comparison on a shared ground truth.

One experiment fixes a single truth realization (derived from the base seed)
and replays it under `n_runs` independent measurement-noise draws. Within a
run every contender filters the *same* scans, so the comparison is paired.

Output layout: each run returns its rows, and `scans.csv` holds them in run
order after one header line. Rows are therefore identical no matter how many
worker processes produced them.
"""

import csv
import math
from itertools import repeat
from pathlib import Path

import numpy as np

from .cardinality import CardinalityDistribution
from .config import CSV_HEADER, ExperimentConfig
from .errors import ConfigError
from .filtering import (
    FilterState,
    extract_estimates,
    predict_birth,
    predict_spawning,
    update,
)
from .gaussian import GaussianMixture
from .metrics import hellinger, ideal_cardinality, ospa
from .sim import generate_measurements, generate_truth

# Prior handed to the spawn-aware filters: one broad component per initial
# target, believed count exactly right.
INIT_POS_STD = 100.0
INIT_VEL_STD = 10.0


def _truth_rng(seed: int) -> np.random.Generator:
    # Truth gets its own stream so run count never changes the trajectories.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def _measurement_rng(seed: int, run: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, run)))


def _initial_state(name: str, cfg: ExperimentConfig) -> FilterState:
    scenario = cfg.scenario
    if name == "birth":
        return FilterState(
            GaussianMixture.empty(4),
            CardinalityDistribution.delta(0, scenario.n_max),
        )
    states = np.asarray(scenario.initial_states, dtype=float).reshape(-1, 4)
    n = states.shape[0]
    cov = np.diag([INIT_POS_STD**2, INIT_POS_STD**2, INIT_VEL_STD**2, INIT_VEL_STD**2])
    mix = GaussianMixture(np.ones(n), states, np.broadcast_to(cov, (n, 4, 4)).copy())
    return FilterState(mix, CardinalityDistribution.delta(n, scenario.n_max))


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def run_one(cfg: ExperimentConfig, run_idx: int) -> list:
    """All CSV rows (no header) for one measurement-noise realization."""
    scenario = cfg.scenario
    # Truth per scan, shared by the measurements and every model.
    states = generate_truth(scenario, _truth_rng(cfg.seed))
    scans = generate_measurements(states, scenario, _measurement_rng(cfg.seed, run_idx))
    motion = scenario.motion_model()
    sensor = scenario.sensor_model()
    birth = scenario.birth_model()
    ideals = [ideal_cardinality(X.shape[0], scenario.n_max) for X in states]
    rows = []
    for name in cfg.models:
        spawn = None if name == "birth" else cfg.spawn_model(name)
        state = _initial_state(name, cfg)
        for t, (scan, ideal, X) in enumerate(zip(scans, ideals, states)):
            if spawn is not None:
                pred = predict_spawning(state, motion, spawn)
            else:
                pred = predict_birth(state, motion, birth)
            h_pred = hellinger(pred.cardinality, ideal)
            state = update(pred, scan, sensor, reduction=cfg.reduction)
            h_upd = hellinger(state.cardinality, ideal)
            n_map, est = extract_estimates(state)
            o_pos = ospa(est[:, :2], X[:, :2], cfg.ospa_cutoff_pos)
            o_vel = ospa(est[:, 2:], X[:, 2:], cfg.ospa_cutoff_vel)
            rows.append(
                f"{run_idx},{t},{name},{X.shape[0]},{n_map},"
                f"{_fmt(o_pos)},{_fmt(o_vel)},{_fmt(h_pred)},{_fmt(h_upd)}"
            )
    return rows


def run_experiment(cfg: ExperimentConfig, out_dir, jobs: int = 1) -> Path:
    """Run the full comparison and return the path of the written scans.csv."""
    if jobs < 1:
        raise ConfigError(f"jobs = {jobs} must be positive")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    indices = range(cfg.n_runs)
    if jobs == 1:
        runs = [run_one(cfg, i) for i in indices]
    else:
        # Workers are fresh interpreters: fork is unsafe once BLAS threads run.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
            runs = list(pool.map(run_one, repeat(cfg), indices))
    target = out_dir / "scans.csv"
    with open(target, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rows in runs:
            fh.write("\n".join(rows) + "\n")
    return target


_HEADER_FIELDS = CSV_HEADER.split(",")


def _parse_row(row: list, where: str) -> tuple:
    if len(row) != len(_HEADER_FIELDS):
        raise ConfigError(f"{where}: expected {len(_HEADER_FIELDS)} fields, got {len(row)}")
    try:
        int(row[0])  # run index, unused by the aggregation
        scan = int(row[1])
        int(row[3]), int(row[4])  # counts must be integers
        values = [float(v) for v in row[3:]]
    except ValueError:
        raise ConfigError(f"{where}: non-numeric field in {row!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{where}: non-finite value in {row!r}")
    return row[2], scan, np.array(values)


def summarize(in_dir, out_path=None) -> Path:
    """Average every metric per (model, scan) across all scan files in a directory.

    Reads each *.csv under `in_dir` except the output file itself, so the
    results of split invocations (several scans files) aggregate together.
    """
    in_dir = Path(in_dir)
    out_path = Path(out_path) if out_path is not None else in_dir / "summary.csv"
    files = sorted(
        p
        for p in in_dir.glob("*.csv")
        if p.resolve() != out_path.resolve()
    )
    if not files:
        raise ConfigError(f"no .csv scan files found in {in_dir}")

    sums: dict = {}
    hits: dict = {}
    for path in files:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != _HEADER_FIELDS:
                raise ConfigError(f"{path}: header does not match {CSV_HEADER!r}")
            for lineno, row in enumerate(reader, start=2):
                model, scan, values = _parse_row(row, f"{path}:{lineno}")
                key = (model, scan)
                if key in sums:
                    sums[key] += values
                    hits[key] += 1
                else:
                    sums[key] = values
                    hits[key] = 1

    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write("model,scan,n_runs," + ",".join(_HEADER_FIELDS[3:]) + "\n")
        for model, scan in sorted(sums):
            mean = sums[(model, scan)] / hits[(model, scan)]
            cells = ",".join(_fmt(v) for v in mean)
            fh.write(f"{model},{scan},{hits[(model, scan)]},{cells}\n")
    return out_path
