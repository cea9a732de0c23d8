"""Per-parent spawning models and their intensity / cardinality ingredients.

Three offspring laws are supported, each paired with a shared Gaussian spatial
kernel describing where a daughter appears relative to its parent:

* Bernoulli: at most one daughter, probability `prob`;
* Poisson: daughter count ~ Poisson(`rate`);
* zero-inflated Poisson: with probability `prob` the parent spawns a
  Poisson(`rate`) brood, otherwise nothing.

Each law is one class that gives its expected daughters per parent
(`alpha`), its daughter-count pmf on 0..n_max (`daughter_pmf`) and a sampler
of the daughters of an array of parent counts (`sample`).
`bell_coefficients` composes any law's pmf with survival (probability p_s)
into the successor pmf that count prediction uses as it is (the paper's
b_i = i! q_i cancel exactly, see `cardinality`); `spawn_intensity` pushes the
posterior through every kernel term in one call of `transform_mixture`, the
push that also moves the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .cardinality import BellCoefficients, _check_prob, _check_rate, poisson_pmf
from .errors import InvalidModelError
from .gaussian import GaussianMixture, _require_psd, transform_mixture


@dataclass(eq=False)
class SpawnSpatialModel:
    """Gaussian mixture kernel for a daughter state given its parent state.

    Term i maps a parent at x to N(F_i x + d_i, Q_i) with weight w_i; the
    weights must sum to one (they split a single expected daughter).
    """

    weights: np.ndarray      # (Jb,)
    transitions: np.ndarray  # (Jb, d, d)
    offsets: np.ndarray      # (Jb, d)
    covariances: np.ndarray  # (Jb, d, d)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        self.transitions = np.asarray(self.transitions, dtype=float)
        self.offsets = np.asarray(self.offsets, dtype=float)
        self.covariances = np.asarray(self.covariances, dtype=float)
        Jb = self.weights.shape[0]
        if Jb == 0:
            raise InvalidModelError("spawn kernel needs at least one term")
        d = self.transitions.shape[-1]
        if self.transitions.shape != (Jb, d, d):
            raise InvalidModelError(f"kernel transitions shape {self.transitions.shape} invalid")
        if self.offsets.shape != (Jb, d):
            raise InvalidModelError(f"kernel offsets shape {self.offsets.shape} invalid")
        if self.covariances.shape != (Jb, d, d):
            raise InvalidModelError(f"kernel covariances shape {self.covariances.shape} invalid")
        if self.weights.min() < 0.0:
            raise InvalidModelError("kernel term weights must be nonnegative")
        total = float(np.cumsum(self.weights)[-1])
        if abs(total - 1.0) > 1e-12:
            raise InvalidModelError(f"kernel term weights sum to {total!r}, not 1")
        self.covariances = np.stack(
            [_require_psd(Q, f"spawn kernel covariance term {i}")
             for i, Q in enumerate(self.covariances)]
        )

    @classmethod
    def single(cls, F: np.ndarray, d: np.ndarray, Q: np.ndarray) -> "SpawnSpatialModel":
        return cls(np.array([1.0]), np.asarray(F, float)[None], np.asarray(d, float)[None],
                   np.asarray(Q, float)[None])

    @property
    def dim(self) -> int:
        return self.transitions.shape[-1]


def unit_spawn_kernel(dim: int) -> SpawnSpatialModel:
    """Identity kernel (daughter state = parent state), for count-only uses."""
    return SpawnSpatialModel.single(np.eye(dim), np.zeros(dim), np.zeros((dim, dim)))


@dataclass(eq=False)
class BernoulliSpawn:
    """At most one daughter per parent per scan, probability `prob`."""

    prob: float
    spatial: SpawnSpatialModel

    def __post_init__(self) -> None:
        self.prob = _check_prob(self.prob, "spawn probability")

    @property
    def alpha(self) -> float:
        return self.prob

    def daughter_pmf(self, n_max: int) -> np.ndarray:
        d = np.zeros(n_max + 1)
        d[0] = 1.0 - self.prob
        if n_max >= 1:
            d[1] = self.prob
        return d

    def sample(self, rng: np.random.Generator, parents: np.ndarray) -> np.ndarray:
        return rng.binomial(parents, self.prob)


@dataclass(eq=False)
class PoissonSpawn:
    """Poisson(`rate`) daughters per parent per scan."""

    rate: float
    spatial: SpawnSpatialModel

    def __post_init__(self) -> None:
        self.rate = _check_rate(self.rate, "spawn rate")

    @property
    def alpha(self) -> float:
        return self.rate

    def daughter_pmf(self, n_max: int) -> np.ndarray:
        return poisson_pmf(self.rate, n_max)

    def sample(self, rng: np.random.Generator, parents: np.ndarray) -> np.ndarray:
        return rng.poisson(self.rate * parents)


@dataclass(eq=False)
class ZeroInflatedPoissonSpawn:
    """With probability `prob` a Poisson(`rate`) brood, otherwise nothing."""

    prob: float
    rate: float
    spatial: SpawnSpatialModel

    def __post_init__(self) -> None:
        self.prob = _check_prob(self.prob, "spawn activation probability")
        self.rate = _check_rate(self.rate, "spawn rate")

    @property
    def alpha(self) -> float:
        return self.prob * self.rate

    def daughter_pmf(self, n_max: int) -> np.ndarray:
        # The activation probability multiplies in front, so prob=1 gives the
        # Poisson pmf bit for bit.
        d = self.prob * poisson_pmf(self.rate, n_max)
        d[0] += 1.0 - self.prob
        return d

    def sample(self, rng: np.random.Generator, parents: np.ndarray) -> np.ndarray:
        return rng.poisson(self.rate * rng.binomial(parents, self.prob))


SpawnModel = Union[BernoulliSpawn, PoissonSpawn, ZeroInflatedPoissonSpawn]


def bell_coefficients(model: SpawnModel, p_s: float, n_max: int) -> BellCoefficients:
    """Successor pmf q_i = P(i successors per parent); `.b` is i! q_i.

    A successor is the surviving parent (probability p_s) or a spawned
    daughter; survival and spawning are independent. Truncated at n_max with
    the lost offspring mass reported.
    """
    p_s = _check_prob(p_s, "survival probability")
    if n_max < 0:
        raise InvalidModelError(f"n_max = {n_max} must be nonnegative")
    d = model.daughter_pmf(n_max)
    succ = (1.0 - p_s) * d
    succ[1:] += p_s * d[:-1]
    return BellCoefficients(succ, tail_mass=max(0.0, 1.0 - float(np.cumsum(succ)[-1])))


def spawn_intensity(posterior: GaussianMixture, model: SpawnModel) -> GaussianMixture:
    """Spawned part of the predicted intensity: one `transform_mixture` of the
    posterior through every kernel term i, x -> F_i x + d_i with noise Q_i,
    weights scaled by alpha w_i. Components are ordered j-major, term-minor;
    the kernel checked each Q_i when built.
    """
    sp = model.spatial
    if posterior.dim != sp.dim:
        raise InvalidModelError(
            f"kernel dim {sp.dim} does not match posterior dim {posterior.dim}"
        )
    return transform_mixture(
        posterior, sp.transitions, sp.offsets, sp.covariances, model.alpha * sp.weights
    )
