"""Scenario simulation: scripted ground truth and noisy measurement scans.

The stock configuration puts two crossing constant-velocity targets in a
square surveillance region; each parent launches a brood of daughters at a
scripted scan, and every daughter starts at its parent's position with a
velocity scattered around the parent's. Truth motion is deterministic; all
randomness sits in daughter velocities, detection, measurement noise, and
clutter, driven by explicitly passed generators so runs reproduce exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .cardinality import MAX_COUNT, CardinalityDistribution
from .errors import ConfigError, DomainError
from .filtering import BirthModel, MotionModel, Rect, SensorModel
from .gaussian import GaussianMixture
from .spawning import SpawnModel, SpawnSpatialModel

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpawnEvent:
    """Scripted brood: `count` daughters appear at scan `time` on track
    `parent` and live `lifespan` further scans (clipped to the run)."""

    time: int
    parent: int
    count: int
    lifespan: int

    def __post_init__(self) -> None:
        if self.time < 0 or self.count < 1 or self.lifespan < 0 or self.parent < 0:
            raise ConfigError(f"invalid spawn event {self}")


_DEFAULT_INITIAL = (
    (-600.0, -600.0, 14.0, 11.0),
    (600.0, 600.0, -12.0, -14.0),
)
_DEFAULT_EVENTS = (
    SpawnEvent(time=15, parent=0, count=2, lifespan=60),
    SpawnEvent(time=25, parent=1, count=3, lifespan=60),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines the surveillance problem.

    Defaults give the stock two-parent scenario used throughout the tests:
    a 2000 m x 2000 m region watched for 100 scans at 1 s intervals.
    """

    region: Rect = Rect(-1000.0, 1000.0, -1000.0, 1000.0)
    n_scans: int = 100
    dt: float = 1.0
    p_s: float = 0.99
    accel_std: float = 5.0
    p_d: float = 0.95
    noise_std: float = 10.0
    clutter_rate: float = 50.0
    birth_rate: float = 0.025
    birth_pos_std: float = 400.0
    birth_vel_std: float = 15.0
    kernel_std: float = 12.0
    daughter_vel_std: float = 12.0
    n_max: int = 20
    initial_states: tuple = _DEFAULT_INITIAL
    spawn_events: tuple = _DEFAULT_EVENTS

    def __post_init__(self) -> None:
        if self.n_scans < 1:
            raise ConfigError(f"n_scans = {self.n_scans} must be positive")
        if not 0 <= self.n_max <= MAX_COUNT:
            raise ConfigError(f"n_max = {self.n_max} outside 0..{MAX_COUNT} (float64 n! limit)")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(f"dt = {self.dt} must be finite and positive")
        for key in ("accel_std", "noise_std", "kernel_std", "daughter_vel_std",
                    "birth_pos_std", "birth_vel_std", "clutter_rate", "birth_rate"):
            value = getattr(self, key)
            if not (np.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{key} = {value} must be finite and nonnegative")

    # Model builders used by the filter side of an experiment.

    def motion_model(self) -> MotionModel:
        return MotionModel.constant_velocity(self.dt, self.accel_std, self.p_s)

    def sensor_model(self) -> SensorModel:
        return SensorModel.position_sensor(
            self.noise_std, self.p_d, self.clutter_rate, self.region
        )

    def birth_model(self) -> BirthModel:
        center = np.array(
            [
                0.5 * (self.region.xmin + self.region.xmax),
                0.5 * (self.region.ymin + self.region.ymax),
                0.0,
                0.0,
            ]
        )
        cov = np.diag(
            [
                self.birth_pos_std**2,
                self.birth_pos_std**2,
                self.birth_vel_std**2,
                self.birth_vel_std**2,
            ]
        )
        return BirthModel(
            rate=self.birth_rate,
            mixture=GaussianMixture(np.array([1.0]), center[None], cov[None]),
        )

    def spawn_kernel(self) -> SpawnSpatialModel:
        return SpawnSpatialModel.single(
            np.eye(4), np.zeros(4), self.kernel_std**2 * np.eye(4)
        )


@dataclass
class TruthTrack:
    """One target's life: born at scan t_birth with states[i] at t_birth + i."""

    parent: int | None
    t_birth: int
    states: np.ndarray

    @property
    def t_death(self) -> int:
        return self.t_birth + self.states.shape[0] - 1

    def alive(self, t: int) -> bool:
        return self.t_birth <= t <= self.t_death

    def state_at(self, t: int) -> np.ndarray:
        if not self.alive(t):
            raise DomainError(f"track not alive at scan {t}")
        return self.states[t - self.t_birth]


@dataclass
class GroundTruth:
    tracks: list[TruthTrack] = field(default_factory=list)
    n_scans: int = 0

    @property
    def counts(self) -> np.ndarray:
        out = np.zeros(self.n_scans, dtype=int)
        for trk in self.tracks:
            out[trk.t_birth : trk.t_death + 1] += 1
        return out

    def states_at(self, t: int) -> np.ndarray:
        alive = [trk.state_at(t) for trk in self.tracks if trk.alive(t)]
        return np.stack(alive) if alive else np.empty((0, 4))


@dataclass
class MeasurementScan:
    """One scan: measurement rows are a shuffled mix of detections and clutter."""

    time: int
    z: np.ndarray

    def __post_init__(self) -> None:
        self.z = np.asarray(self.z, dtype=float)


def _propagate(x0: np.ndarray, F: np.ndarray, n: int) -> np.ndarray:
    out = np.empty((n, 4))
    out[0] = x0
    for t in range(1, n):
        out[t] = F @ out[t - 1]
    return out


def generate_truth(cfg: ScenarioConfig, rng: np.random.Generator) -> GroundTruth:
    """Build the scripted target set. Only daughter velocities consume rng."""
    F = cfg.motion_model().F
    tracks: list[TruthTrack] = []
    for x0 in cfg.initial_states:
        tracks.append(TruthTrack(None, 0, _propagate(np.asarray(x0, float), F, cfg.n_scans)))
    for ev in cfg.spawn_events:
        if ev.parent >= len(tracks):
            raise ConfigError(f"spawn event references unknown track {ev.parent}")
        parent = tracks[ev.parent]
        if ev.time >= cfg.n_scans or not parent.alive(ev.time):
            raise ConfigError(
                f"spawn event at scan {ev.time} outside parent track's life"
            )
        px = parent.state_at(ev.time)
        horizon = min(ev.lifespan, cfg.n_scans - 1 - ev.time)
        for _ in range(ev.count):
            vel = px[2:] + rng.normal(0.0, cfg.daughter_vel_std, size=2)
            x0 = np.array([px[0], px[1], vel[0], vel[1]])
            tracks.append(TruthTrack(ev.parent, ev.time, _propagate(x0, F, horizon + 1)))
    # Tracks are kept alive outside the region, but the sensor will not see
    # them there, so flag excursions: they usually indicate a config problem.
    strays = 0
    first_exit = None
    for trk in tracks:
        inside = cfg.region.contains(trk.states[:, :2])
        if not inside.all():
            strays += 1
            exit_scan = trk.t_birth + int(np.argmin(inside))
            first_exit = exit_scan if first_exit is None else min(first_exit, exit_scan)
    if strays:
        logger.warning(
            "%d of %d truth tracks leave the surveillance region (first exit at scan %d)",
            strays,
            len(tracks),
            first_exit,
        )
    return GroundTruth(tracks, cfg.n_scans)


def generate_measurements(
    truth: GroundTruth, cfg: ScenarioConfig, rng: np.random.Generator
) -> list[MeasurementScan]:
    """Noisy position detections (probability p_d each) plus uniform Poisson
    clutter, shuffled together so array order carries no information.

    The sensor only covers the configured region: targets outside it are
    never detected, and a detection whose noisy position falls outside is
    dropped, so every reported point lies within the region.
    """
    scans = []
    for t in range(truth.n_scans):
        X = truth.states_at(t)
        det = (rng.random(X.shape[0]) < cfg.p_d) & cfg.region.contains(X[:, :2])
        nd = int(det.sum())
        hits = X[det, :2] + rng.normal(0.0, cfg.noise_std, size=(nd, 2))
        hits = hits[cfg.region.contains(hits)]
        n_clutter = int(rng.poisson(cfg.clutter_rate))
        z = np.concatenate([hits, cfg.region.sample(rng, n_clutter)])
        rng.shuffle(z, axis=0)
        scans.append(MeasurementScan(t, z))
    return scans


def mc_branching_oracle(
    rho: CardinalityDistribution,
    model: SpawnModel,
    p_s: float,
    n_samples: int,
    rng: np.random.Generator,
) -> CardinalityDistribution:
    """Empirical one-step count prediction by direct simulation.

    Draws a parent count from the prior, thins it by survival, adds the
    daughters that the model's own `sample` draws for those parents, and
    histograms the totals. Samples beyond n_max are discarded so the
    histogram estimates the count law conditioned on n <= n_max — the same
    convention the analytic route's truncate-and-renormalize applies. This is
    an independent check on that prediction.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples = {n_samples}: need at least one sample")
    n_max = rho.n_max
    parents = rng.choice(n_max + 1, size=n_samples, p=rho.probs)
    survivors = rng.binomial(parents, p_s)
    totals = survivors + model.sample(rng, parents)
    keep = totals <= n_max
    if not np.any(keep):
        raise DomainError(f"every sampled total exceeded n_max = {n_max}")
    hist = np.bincount(totals[keep], minlength=n_max + 1).astype(float)
    return CardinalityDistribution(hist / hist.sum(), normalize=True)
