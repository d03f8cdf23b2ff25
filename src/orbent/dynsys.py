"""Canonical measure-preserving systems with exact samplers for their invariant measures.

Torus systems keep coordinates reduced into [0,1) after every step, so the
semigroup law ``apply(s, p, j + k) == apply(s, apply(s, p, j), k)`` holds
bit-for-bit.  Shift systems store a finite symbol window and fail loudly when
an orbit runs past it rather than wrapping around.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import HorizonError, ParameterError

# Badly approximable defaults: golden-mean fractional part for rotations and
# skew products, sqrt(2)-1 as the independent second torus angle.
GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2_FRAC = math.sqrt(2.0) - 1.0

# Symbol window used when a shift system is built without an explicit horizon.
DEFAULT_SHIFT_HORIZON = 128

TORUS_KINDS = ("CircleRotation", "TorusTranslation", "AnzaiSkew", "Identity")
ALL_KINDS = TORUS_KINDS + ("BernoulliShift",)

_WEIGHT_TOL = 1e-12


def _check_angle(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    if value % 1.0 == 0.0:
        raise ParameterError(f"{name} must have a nonzero fractional part, got {value!r}")
    return value


@dataclass(frozen=True)
class SystemSpec:
    """A measure-preserving transformation together with its sampling data.

    ``weights`` is the symbol distribution of a Bernoulli shift; ``horizon``
    is the number of symbols stored per sampled point.
    """

    kind: str
    alpha: Optional[float] = None
    beta: Optional[float] = None
    weights: Optional[tuple[float, ...]] = None
    horizon: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ParameterError(f"unknown system kind {self.kind!r}")
        if self.kind in ("CircleRotation", "AnzaiSkew"):
            object.__setattr__(self, "alpha", _check_angle("alpha", self.alpha))
        elif self.kind == "TorusTranslation":
            object.__setattr__(self, "alpha", _check_angle("alpha", self.alpha))
            object.__setattr__(self, "beta", _check_angle("beta", self.beta))
        elif self.kind == "BernoulliShift":
            if self.weights is None or len(self.weights) < 2:
                raise ParameterError("BernoulliShift needs at least two symbol weights")
            w = np.asarray(self.weights, dtype=float)
            if np.any(w <= 0.0):
                raise ParameterError("Bernoulli weights must be positive")
            if abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
                raise ParameterError(
                    f"Bernoulli weights must sum to 1 within {_WEIGHT_TOL}, got {w.sum()!r}"
                )
            object.__setattr__(self, "weights", tuple(float(x) for x in w))
            hor = DEFAULT_SHIFT_HORIZON if self.horizon is None else int(self.horizon)
            if hor < 1:
                raise ParameterError("shift horizon must be >= 1")
            object.__setattr__(self, "horizon", hor)

    @property
    def dim(self) -> Optional[int]:
        """Coordinate dimension, or None for symbolic systems."""
        if self.kind in ("CircleRotation", "Identity"):
            return 1
        if self.kind in ("TorusTranslation", "AnzaiSkew"):
            return 2
        return None

    @property
    def is_symbolic(self) -> bool:
        return self.kind == "BernoulliShift"

    def with_horizon(self, horizon: int) -> "SystemSpec":
        """Copy of a shift system with a different symbol window."""
        if not self.is_symbolic:
            return self
        return SystemSpec(kind=self.kind, weights=self.weights, horizon=int(horizon))

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.beta is not None:
            out["beta"] = self.beta
        if self.weights is not None:
            out["weights"] = list(self.weights)
        if self.horizon is not None:
            out["horizon"] = self.horizon
        return out

    @staticmethod
    def from_json(obj: dict) -> "SystemSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ParameterError("system JSON must be an object with a 'kind' field")
        weights = obj.get("weights")
        return SystemSpec(
            kind=obj["kind"],
            alpha=obj.get("alpha"),
            beta=obj.get("beta"),
            weights=None if weights is None else tuple(float(x) for x in weights),
            horizon=obj.get("horizon"),
        )

    def label(self) -> str:
        """Compact CSV-safe identifier."""
        if self.kind == "CircleRotation":
            return f"CircleRotation[alpha={self.alpha:.17g}]"
        if self.kind == "TorusTranslation":
            return f"TorusTranslation[alpha={self.alpha:.17g};beta={self.beta:.17g}]"
        if self.kind == "AnzaiSkew":
            return f"AnzaiSkew[alpha={self.alpha:.17g}]"
        if self.kind == "BernoulliShift":
            ws = ";".join(f"{w:.17g}" for w in self.weights)
            return f"BernoulliShift[weights={ws}]"
        return "Identity"


def circle_rotation(alpha: Optional[float] = None) -> SystemSpec:
    return SystemSpec("CircleRotation", alpha=GOLDEN_FRAC if alpha is None else alpha)


def torus_translation(alpha: Optional[float] = None, beta: Optional[float] = None) -> SystemSpec:
    return SystemSpec(
        "TorusTranslation",
        alpha=GOLDEN_FRAC if alpha is None else alpha,
        beta=SQRT2_FRAC if beta is None else beta,
    )


def anzai_skew(alpha: Optional[float] = None) -> SystemSpec:
    return SystemSpec("AnzaiSkew", alpha=GOLDEN_FRAC if alpha is None else alpha)


def bernoulli_shift(weights: Iterable[float], horizon: Optional[int] = None) -> SystemSpec:
    return SystemSpec("BernoulliShift", weights=tuple(weights), horizon=horizon)


def identity_system() -> SystemSpec:
    return SystemSpec("Identity")


@dataclass(frozen=True)
class Point:
    """One phase-space point: torus coordinates in [0,1) or a symbol window."""

    coords: Optional[np.ndarray] = None
    symbols: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if (self.coords is None) == (self.symbols is None):
            raise ParameterError("a Point carries either coords or symbols")


@dataclass(frozen=True)
class PointSample:
    """m points drawn i.i.d. from the invariant measure of ``system``.

    ``symbol_offset`` tracks how far a symbolic sample has been shifted; the
    live window of point i is ``symbols[i, symbol_offset:]``.
    """

    system: SystemSpec
    seed: int
    coords: Optional[np.ndarray] = None
    symbols: Optional[np.ndarray] = None
    symbol_offset: int = 0

    @property
    def m(self) -> int:
        arr = self.coords if self.coords is not None else self.symbols
        return int(arr.shape[0])

    @property
    def is_symbolic(self) -> bool:
        return self.symbols is not None

    @property
    def symbol_window(self) -> Optional[np.ndarray]:
        if self.symbols is None:
            return None
        return self.symbols[:, self.symbol_offset:]

    def point(self, i: int) -> Point:
        if self.coords is not None:
            return Point(coords=self.coords[i].copy())
        return Point(symbols=self.symbols[i, self.symbol_offset:].copy())

    def subsample(self, indices: np.ndarray) -> "PointSample":
        idx = np.asarray(indices, dtype=int)
        if self.coords is not None:
            return PointSample(self.system, self.seed, coords=self.coords[idx].copy())
        return PointSample(
            self.system, self.seed, symbols=self.symbols[idx],
            symbol_offset=self.symbol_offset,
        )

    def fingerprint(self) -> str:
        return f"{self.system.label()}|m={self.m}|seed={self.seed}"


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, key...); independent of thread layout."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(k) & 0xFFFFFFFFFFFFFFFF for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def sample_points(system: SystemSpec, m: int, seed: int) -> PointSample:
    """Draw m i.i.d. points from the invariant measure, reproducibly from seed."""
    if m < 1:
        raise ParameterError(f"sample size must be >= 1, got {m}")
    rng = derive_rng(seed)
    if system.is_symbolic:
        w = np.asarray(system.weights, dtype=float)
        symbols = rng.choice(len(w), size=(m, system.horizon), p=w).astype(np.int8)
        return PointSample(system, int(seed), symbols=symbols)
    coords = rng.random((m, system.dim))
    return PointSample(system, int(seed), coords=coords)


def step_coords(system: SystemSpec, coords: np.ndarray) -> np.ndarray:
    """One application of the map, vectorized over rows; reduces mod 1 per step."""
    if system.kind == "Identity":
        return coords
    if system.kind == "CircleRotation":
        return (coords + system.alpha) % 1.0
    if system.kind == "TorusTranslation":
        return (coords + np.array([system.alpha, system.beta])) % 1.0
    if system.kind == "AnzaiSkew":
        out = np.empty_like(coords)
        out[:, 0] = (coords[:, 0] + system.alpha) % 1.0
        out[:, 1] = (coords[:, 1] + coords[:, 0]) % 1.0
        return out
    raise ParameterError(f"{system.kind} has no coordinate map")


def advance_sample(
    sample: PointSample, steps: int, system: Optional[SystemSpec] = None
) -> PointSample:
    """Apply a system ``steps`` times to every point of the sample.

    ``system`` defaults to the one the sample was drawn from; pull-backs pass
    their own transformation explicitly.
    """
    if steps < 0:
        raise ParameterError("cannot iterate a transformation backwards here")
    if steps == 0:
        return sample
    acting = sample.system if system is None else system
    if acting.is_symbolic:
        if not sample.is_symbolic:
            raise ParameterError("shift systems act on symbolic samples")
        offset = sample.symbol_offset + steps
        if offset >= sample.symbols.shape[1]:
            raise HorizonError(
                f"orbit step {offset} exceeds symbol horizon {sample.symbols.shape[1]}"
            )
        return PointSample(
            sample.system, sample.seed, symbols=sample.symbols, symbol_offset=offset
        )
    if sample.coords is None:
        raise ParameterError(f"{acting.kind} acts on coordinate samples")
    if acting.kind != "Identity" and acting.dim != sample.coords.shape[1]:
        raise ParameterError(
            f"{acting.kind} acts on {acting.dim}-dimensional points, "
            f"the sample has {sample.coords.shape[1]} coordinates"
        )
    coords = sample.coords
    for _ in range(steps):
        coords = step_coords(acting, coords)
    return PointSample(sample.system, sample.seed, coords=coords)


def apply(system: SystemSpec, p: Point, k: int) -> Point:
    """Exact k-fold application of the transformation to a single point."""
    if k < 0:
        raise ParameterError("iteration count must be >= 0")
    if k == 0:
        return p
    if system.is_symbolic:
        if p.symbols is None:
            raise ParameterError("shift systems act on symbolic points")
        if k >= p.symbols.shape[0]:
            raise HorizonError(
                f"shift by {k} exceeds remaining symbol window {p.symbols.shape[0]}"
            )
        return Point(symbols=p.symbols[k:])
    if p.coords is None:
        raise ParameterError(f"{system.kind} acts on coordinate points")
    coords = p.coords.reshape(1, -1)
    for _ in range(k):
        coords = step_coords(system, coords)
    return Point(coords=coords[0])
