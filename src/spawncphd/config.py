"""Experiment configuration: dataclass defaults plus INI-file overrides.

The file format is deliberately flat. Each section owns a handful of scalar
keys; anything unrecognized is an error rather than a silent ignore, since a
typo in a parameter name would otherwise run the wrong experiment.
"""

import configparser
import dataclasses
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cardinality import MAX_RATE, _check_prob, _check_rate
from .errors import ConfigError, InvalidModelError
from .filtering import DEFAULT_REDUCTION, Rect
from .gaussian import ReductionConfig
from .sim import ScenarioConfig
from .spawning import (
    BernoulliSpawn,
    PoissonSpawn,
    SpawnModel,
    ZeroInflatedPoissonSpawn,
)

CSV_HEADER = "run,scan,model,true_n,map_n,ospa_pos,ospa_vel,hellinger_pred,hellinger_upd"

MODEL_NAMES = ("bernoulli", "poisson", "zip", "birth")


@dataclass(frozen=True)
class ExperimentConfig:
    """A full Monte-Carlo comparison: scenario, contenders, seeds, metrics."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    models: tuple = MODEL_NAMES
    n_runs: int = 50
    seed: int = 1729
    bernoulli_prob: float = 0.01
    poisson_rate: float = 0.025
    zip_prob: float = 0.01
    zip_rate: float = 2.5
    ospa_cutoff_pos: float = 100.0
    ospa_cutoff_vel: float = 100.0
    reduction: ReductionConfig = DEFAULT_REDUCTION

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ConfigError(f"runs = {self.n_runs} must be positive")
        if not self.models:
            raise ConfigError("at least one model is required")
        for name in self.models:
            if name not in MODEL_NAMES:
                raise ConfigError(
                    f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}"
                )
        if len(set(self.models)) != len(self.models):
            raise ConfigError("duplicate model names")
        if self.seed < 0:
            raise ConfigError(f"seed = {self.seed} must be nonnegative")
        for key in ("ospa_cutoff_pos", "ospa_cutoff_vel"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{key} = {value} must be finite and positive")
        # The Hellinger ideal is a count pmf on 0..n_max: it must hold the truth.
        counts = np.zeros(self.scenario.n_scans, dtype=int)
        for _, first, last in self.scenario.schedule():
            counts[first : last + 1] += 1
        if (peak := counts.max()) > self.scenario.n_max:
            raise ConfigError(
                f"n_max = {self.scenario.n_max}: the scripted truth holds "
                f"{peak} targets at scan {counts.argmax()}"
            )

    def spawn_model(self, name: str) -> SpawnModel:
        kernel = self.scenario.spawn_kernel()
        if name == "bernoulli":
            return BernoulliSpawn(self.bernoulli_prob, kernel)
        if name == "poisson":
            return PoissonSpawn(self.poisson_rate, kernel)
        if name == "zip":
            return ZeroInflatedPoissonSpawn(self.zip_prob, self.zip_rate, kernel)
        raise ConfigError(f"{name!r} is not a spawning model")


def _as_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{where} = {text!r} is not an integer") from None


def _as_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{where} = {text!r} is not a number") from None


def _as_prob(text: str, where: str) -> float:
    return _check_prob(_as_float(text, where), where)


def _as_rate(text: str, where: str) -> float:
    if (value := _check_rate(_as_float(text, where), where)) > MAX_RATE:
        raise ConfigError(f"{where} = {value} exceeds {MAX_RATE:.1f}: exp(-rate) underflows")
    return value


def _as_models(text: str, where: str) -> tuple:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise ConfigError(f"{where} lists no models")
    return names


# section -> key -> (destination, caster). "group.field" lands on ScenarioConfig,
# its region or the ReductionConfig; a bare field lands on ExperimentConfig.
_SCHEMA = {
    "scenario": {
        "n_scans": ("scenario.n_scans", _as_int),
        "n_max": ("scenario.n_max", _as_int),
        "xmin": ("region.xmin", _as_float),
        "xmax": ("region.xmax", _as_float),
        "ymin": ("region.ymin", _as_float),
        "ymax": ("region.ymax", _as_float),
        "daughter_vel_std": ("scenario.daughter_vel_std", _as_float),
    },
    "motion": {
        "dt": ("scenario.dt", _as_float),
        "accel_std": ("scenario.accel_std", _as_float),
        "p_s": ("scenario.p_s", _as_prob),
    },
    "sensor": {
        "p_d": ("scenario.p_d", _as_prob),
        "noise_std": ("scenario.noise_std", _as_float),
        "clutter_rate": ("scenario.clutter_rate", _as_float),
    },
    "spawn": {
        "kernel_std": ("scenario.kernel_std", _as_float),
    },
    "spawn.bernoulli": {
        "prob": ("bernoulli_prob", _as_prob),
    },
    "spawn.poisson": {
        "rate": ("poisson_rate", _as_rate),
    },
    "spawn.zip": {
        "prob": ("zip_prob", _as_prob),
        "rate": ("zip_rate", _as_rate),
    },
    "birth": {
        "rate": ("scenario.birth_rate", _as_rate),
        "pos_std": ("scenario.birth_pos_std", _as_float),
        "vel_std": ("scenario.birth_vel_std", _as_float),
    },
    "metrics": {
        "ospa_cutoff_pos": ("ospa_cutoff_pos", _as_float),
        "ospa_cutoff_vel": ("ospa_cutoff_vel", _as_float),
    },
    "experiment": {
        "runs": ("n_runs", _as_int),
        "seed": ("seed", _as_int),
        "models": ("models", _as_models),
        "trunc_threshold": ("reduction.trunc_threshold", _as_float),
        "merge_threshold": ("reduction.merge_threshold", _as_float),
        "max_components": ("reduction.max_components", _as_int),
    },
}


def load_config(path=None) -> ExperimentConfig:
    """Build an ExperimentConfig, applying INI overrides when a path is given."""
    groups: dict = {"": {}, "scenario": {}, "region": {}, "reduction": {}}

    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
        for section in parser.sections():
            keys = _SCHEMA.get(section)
            if keys is None:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in keys:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                dest, cast = keys[key]
                group, _, name = dest.rpartition(".")
                try:
                    groups[group][name] = cast(raw, f"[{section}] {key}")
                except InvalidModelError as exc:  # a model's own range check
                    raise ConfigError(str(exc)) from None

    try:
        region = dataclasses.replace(ScenarioConfig().region, **groups["region"])
    except InvalidModelError as exc:  # only keys the file set can empty the region
        keys = ", ".join(f"{key} = {value}" for key, value in groups["region"].items())
        raise ConfigError(f"[scenario] {keys}: {exc}") from None
    scenario = ScenarioConfig(region=region, **groups["scenario"])
    try:
        reduction = dataclasses.replace(DEFAULT_REDUCTION, **groups["reduction"])
    except InvalidModelError as exc:
        raise ConfigError(f"[experiment] {exc}") from None
    return ExperimentConfig(scenario=scenario, reduction=reduction, **groups[""])
