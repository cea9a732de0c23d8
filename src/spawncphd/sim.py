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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .cardinality import MAX_COUNT, CardinalityDistribution
from .errors import ConfigError, DomainError
from .filtering import BirthModel, MotionModel, Rect, SensorModel
from .gaussian import GaussianMixture
from .spawning import SpawnModel, SpawnSpatialModel

logger = logging.getLogger(__name__)

# Most clutter points a scan on average: 500 times dense_clutter's, and 8 MB
# a component in update's likelihood table.
MAX_CLUTTER = 1e6


@dataclass(frozen=True)
class SpawnEvent:
    """Scripted brood: `count` daughters appear at scan `time` on track
    `parent` and live `lifespan` further scans (clipped to the run)."""

    time: int
    parent: int
    count: int
    lifespan: int


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
            raise ConfigError(f"n_max = {self.n_max} outside 0..{MAX_COUNT}, the tested range")
        variances = ("accel_std", "noise_std", "kernel_std", "birth_pos_std", "birth_vel_std")
        for key in variances + ("daughter_vel_std", "clutter_rate", "birth_rate"):
            value = getattr(self, key)
            if not (np.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{key} = {value} must be finite and nonnegative")
            if key in variances and not np.isfinite(value * value):
                raise ConfigError(f"{key} = {value}: its square, a variance, overflows float64")
        if self.clutter_rate > MAX_CLUTTER:
            raise ConfigError(f"clutter_rate = {self.clutter_rate} exceeds {MAX_CLUTTER:.0e}")
        dt = self.dt  # accel_std^2 dt^4 / 4 is the largest process noise term when dt > 1
        if not (dt > 0.0 and np.isfinite(self.accel_std**2 * (dt * dt * dt * dt))):
            raise ConfigError(f"dt = {dt} must be positive, with accel_std^2 dt^4 finite")
        self.schedule()

    def schedule(self) -> list:
        """Every truth track as (parent, first scan, last scan): the initial
        targets, then each event's daughters in event order, their lives
        clipped to the run. The only reader of `spawn_events`."""
        last = self.n_scans - 1
        tracks = [(None, 0, last)] * len(self.initial_states)
        for ev in self.spawn_events:
            if ev.time > last:
                raise ConfigError(
                    f"n_scans = {self.n_scans}: no scan left for the brood at scan {ev.time}"
                )
            _, born, dies = tracks[ev.parent] if 0 <= ev.parent < len(tracks) else (None, 0, -1)
            if not born <= ev.time <= dies:
                raise ConfigError(f"spawn_events: track {ev.parent} not alive at scan {ev.time}")
            if ev.count < 1 or ev.lifespan < 0:
                raise ConfigError(f"spawn_events: {ev} needs a daughter and a lifespan >= 0")
            tracks += [(ev.parent, ev.time, min(ev.time + ev.lifespan, last))] * ev.count
        return tracks

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
        alive = [trk.states[t - trk.t_birth] for trk in self.tracks if trk.alive(t)]
        return np.stack(alive) if alive else np.empty((0, 4))

    def __iter__(self) -> Iterator[np.ndarray]:
        """Each scan's true states, in scan order."""
        return (self.states_at(t) for t in range(self.n_scans))


def _propagate(x0: np.ndarray, F: np.ndarray, n: int) -> np.ndarray:
    out = np.empty((n, 4))
    out[0] = x0
    for t in range(1, n):
        out[t] = F @ out[t - 1]
    return out


def generate_truth(cfg: ScenarioConfig, rng: np.random.Generator) -> GroundTruth:
    """Draw the tracks of `cfg.schedule()`. Only daughter velocities consume rng."""
    F = cfg.motion_model().F
    tracks = [
        TruthTrack(None, 0, _propagate(np.asarray(x0, float), F, cfg.n_scans))
        for x0 in cfg.initial_states
    ]
    for parent, first, last in cfg.schedule()[len(tracks) :]:
        px = tracks[parent].states[first - tracks[parent].t_birth]
        vel = px[2:] + rng.normal(0.0, cfg.daughter_vel_std, size=2)
        x0 = np.array([px[0], px[1], vel[0], vel[1]])
        tracks.append(TruthTrack(parent, first, _propagate(x0, F, last - first + 1)))
    # Tracks are kept alive outside the region, but the sensor will not see
    # them there, so flag excursions: they usually indicate a config problem.
    inside = [cfg.region.contains(trk.states[:, :2]) for trk in tracks]
    exits = [trk.t_birth + int(np.argmin(i)) for trk, i in zip(tracks, inside) if not i.all()]
    if exits:
        logger.warning(
            "%d of %d truth tracks leave the surveillance region (first exit at scan %d)",
            len(exits), len(tracks), min(exits),
        )
    return GroundTruth(tracks, cfg.n_scans)


def generate_measurements(
    states: Iterable[np.ndarray], cfg: ScenarioConfig, rng: np.random.Generator
) -> list[np.ndarray]:
    """Each scan's (M, 2) measurements: noisy position detections (probability
    p_d each) of its states plus uniform Poisson clutter, shuffled together so
    array order carries no information.

    The sensor only covers the configured region: targets outside it are
    never detected, and a detection whose noisy position falls outside is
    dropped, so every reported point lies within the region.
    """
    scans = []
    for X in states:
        det = (rng.random(X.shape[0]) < cfg.p_d) & cfg.region.contains(X[:, :2])
        nd = int(det.sum())
        hits = X[det, :2] + rng.normal(0.0, cfg.noise_std, size=(nd, 2))
        hits = hits[cfg.region.contains(hits)]
        n_clutter = int(rng.poisson(cfg.clutter_rate))
        z = np.concatenate([hits, cfg.region.sample(rng, n_clutter)])
        # The draws and rows of rng.shuffle(z, axis=0), without its row swaps.
        z = z[rng.permutation(z.shape[0])]
        scans.append(z)
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
