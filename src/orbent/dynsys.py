"""Canonical measure-preserving systems with exact samplers for their invariant measures.

Each system kind is a frozen dataclass subclassing :class:`SystemSpec`, with
JSON ``{"kind": <class name>, <field>: <value>, ...}``.  A new system is its
class plus an entry in ``_SYSTEMS``: a map of coordinates implements ``step``,
and a system with a new draw of points implements its own ``sample(m, rng)``
(the base draws uniform coordinates).  The package's one JSON codec lives here:
``fields_json`` writes dataclass fields, ``from_fields_json`` and
``from_tagged_json`` read them through ``DECODE``, one decoder per annotation.
The number decoders are strict: an ``int`` field takes only a JSON integer and
a ``float`` field only a JSON number, never a bool or a string.

Torus systems keep coordinates reduced into [0,1) after every step, so the
semigroup law ``advance_sample(advance_sample(x, j, s), k, s) ==
advance_sample(x, j + k, s)`` holds bit-for-bit.  Shift systems store a finite
symbol window, which a step slices, and fail loudly when an orbit runs past it
rather than wrapping around.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import HorizonError, ParameterError

# Badly approximable defaults: golden-mean fractional part for rotations and
# skew products, sqrt(2)-1 as the independent second torus angle.
GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2_FRAC = math.sqrt(2.0) - 1.0

# Symbol window used when a shift system is built without an explicit horizon.
DEFAULT_SHIFT_HORIZON = 128

# Symbols per row block of a shift sample: ``choice`` with ``p`` makes a
# float64 and an int64 temporary per symbol, so blocks keep them small.
_SAMPLE_BLOCK = 1 << 15

_WEIGHT_TOL = 1e-12


def _json_value(value):
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value.to_json() if hasattr(value, "to_json") else value


def fields_json(obj) -> dict:
    """The dataclass fields of ``obj`` as JSON: nested values by their own
    ``to_json``, tuples as lists."""
    return {f.name: _json_value(getattr(obj, f.name)) for f in fields(obj)}


class Record:
    """Mixin for result dataclasses whose JSON is exactly their fields."""

    def to_json(self) -> dict:
        return fields_json(self)


def from_fields_json(cls, obj: dict):
    """Dataclass ``cls`` from a JSON object of its fields.  Only an ``Optional``
    field may be missing, and takes its default; errors name the class and the
    field."""
    name = cls.__name__
    if not isinstance(obj, dict):
        raise ParameterError(f"{name} JSON must be an object, got {obj!r}")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ParameterError(f"{name} has no field {unknown[0]!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name in obj:
            decode = DECODE[f.type]
            try:
                kwargs[f.name] = decode(obj[f.name])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ParameterError(f"invalid {name} field {f.name!r}: {exc}") from exc
        elif not f.type.startswith("Optional["):
            raise ParameterError(f"{name} needs the field {f.name!r}")
    return cls(**kwargs)


def from_tagged_json(obj: dict, tag_key: str, registry: dict):
    """Decode ``{tag_key: <registry key>, <field>: <value>, ...}``."""
    tag = obj.get(tag_key) if isinstance(obj, dict) else None
    if not isinstance(tag, str) or tag not in registry:
        raise ParameterError(f"expected a JSON object with {tag_key!r} in {sorted(registry)}")
    return from_fields_json(registry[tag], {k: v for k, v in obj.items() if k != tag_key})


class SystemSpec:
    """A measure-preserving transformation.  A map of coordinates implements
    ``step(coords)``; the base checks every float field as an angle and
    samples uniform coordinates."""

    dim: ClassVar[Optional[int]] = None  # coordinate dimension; None if symbolic
    is_symbolic: ClassVar[bool] = False

    @property
    def kind(self) -> str:
        return type(self).__name__

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type != "float":
                continue
            value = float(getattr(self, f.name))
            if not np.isfinite(value) or value % 1.0 == 0.0:
                raise ParameterError(f"{f.name} must be finite and not an integer, got {value!r}")
            object.__setattr__(self, f.name, value)

    def sample(self, m: int, rng: np.random.Generator) -> PointSample:
        """m points drawn i.i.d. from the invariant measure."""
        return PointSample(coords=rng.random((m, self.dim)))

    def label(self) -> str:
        """Compact CSV-safe identifier: ``kind[field=value;...]``."""
        params = ";".join(f"{f.name}={getattr(self, f.name):.17g}" for f in fields(self))
        return f"{self.kind}[{params}]" if params else self.kind

    def to_json(self) -> dict:
        return {"kind": self.kind, **fields_json(self)}

    @staticmethod
    def from_json(obj: dict) -> "SystemSpec":
        return from_tagged_json(obj, "kind", _SYSTEMS)


@dataclass(frozen=True)
class CircleRotation(SystemSpec):
    alpha: float = GOLDEN_FRAC

    dim = 1

    def step(self, coords: np.ndarray) -> np.ndarray:
        return (coords + self.alpha) % 1.0


@dataclass(frozen=True)
class TorusTranslation(SystemSpec):
    alpha: float = GOLDEN_FRAC
    beta: float = SQRT2_FRAC

    dim = 2

    def step(self, coords: np.ndarray) -> np.ndarray:
        return (coords + np.array([self.alpha, self.beta])) % 1.0


@dataclass(frozen=True)
class AnzaiSkew(SystemSpec):
    """(x, y) -> (x + alpha, y + x) on the 2-torus."""

    alpha: float = GOLDEN_FRAC

    dim = 2

    def step(self, coords: np.ndarray) -> np.ndarray:
        out = np.empty_like(coords)
        np.add(coords[:, 0], self.alpha, out=out[:, 0])
        np.add(coords[:, 1], coords[:, 0], out=out[:, 1])
        return np.remainder(out, 1.0, out=out)


@dataclass(frozen=True)
class Identity(SystemSpec):
    """The identity map; it leaves samples of any kind alone."""

    dim = 1


@dataclass(frozen=True)
class BernoulliShift(SystemSpec):
    """Shift on i.i.d. symbols with distribution ``weights``; ``horizon`` is
    the number of symbols stored per sampled point."""

    weights: tuple[float, ...]
    horizon: Optional[int] = None

    is_symbolic = True

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if len(w) < 2 or np.any(w <= 0.0) or abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
            raise ParameterError(f"Bernoulli weights must be two or more positive numbers "
                                 f"summing to 1 within {_WEIGHT_TOL}, got {self.weights!r}")
        horizon = DEFAULT_SHIFT_HORIZON if self.horizon is None else int(self.horizon)
        if horizon < 1:
            raise ParameterError("shift horizon must be >= 1")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "horizon", horizon)

    def sample(self, m: int, rng: np.random.Generator) -> PointSample:
        """m symbol windows of ``horizon`` i.i.d. symbols, drawn in row blocks
        of about ``_SAMPLE_BLOCK`` symbols: ``choice`` takes one uniform per
        symbol in row-major order, so the blocks equal a single draw."""
        w = np.asarray(self.weights)
        symbols = np.empty((m, self.horizon), dtype=np.int8)
        rows = max(1, _SAMPLE_BLOCK // self.horizon)
        for a in range(0, m, rows):
            block = symbols[a:a + rows]
            block[...] = rng.choice(len(w), size=block.shape, p=w)
        return PointSample(symbols=symbols)

    def label(self) -> str:
        ws = ";".join(f"{w:.17g}" for w in self.weights)
        return f"BernoulliShift[weights={ws}]"


_SYSTEMS: dict[str, type[SystemSpec]] = {cls.__name__: cls for cls in (
    CircleRotation, TorusTranslation, AnzaiSkew, Identity, BernoulliShift,
)}


def _json_int(value) -> int:
    """A JSON integer; a bool or a non-integral number is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_float(value) -> float:
    """A JSON number; a bool or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


# field type annotation -> decoder of that field's JSON value; the modules
# that define further field types add their decoders
DECODE: dict[str, Callable] = {
    "float": _json_float,
    "int": _json_int,
    "str": str,
    "Optional[int]": lambda value: None if value is None else _json_int(value),
    "tuple[float, ...]": lambda values: tuple(_json_float(x) for x in values),
    "SystemSpec": SystemSpec.from_json,
}


@dataclass(frozen=True)
class PointSample:
    """m points: coordinates of shape (m, dim), or symbol windows of shape
    (m, width) whose column j is the symbol j shift steps along the orbit."""

    coords: Optional[np.ndarray] = None
    symbols: Optional[np.ndarray] = None

    @property
    def m(self) -> int:
        arr = self.coords if self.coords is not None else self.symbols
        return int(arr.shape[0])

    @property
    def is_symbolic(self) -> bool:
        return self.symbols is not None


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, key...); independent of thread layout."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(k) & 0xFFFFFFFFFFFFFFFF for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def sample_points(system: SystemSpec, m: int, seed: int) -> PointSample:
    """Draw m i.i.d. points from the invariant measure, reproducibly from seed."""
    if m < 1:
        raise ParameterError(f"sample size must be >= 1, got {m}")
    return system.sample(m, derive_rng(seed))


def advance_sample(sample: PointSample, steps: int, system: SystemSpec) -> PointSample:
    """Apply ``system`` ``steps`` times to every point of the sample.  The
    identity returns the sample; a shift returns a view of the windows
    without their first ``steps`` symbols."""
    if steps < 0:
        raise ParameterError("cannot iterate a transformation backwards here")
    if steps == 0 or isinstance(system, Identity):
        return sample
    if system.is_symbolic:
        if not sample.is_symbolic:
            raise ParameterError("shift systems act on symbolic samples")
        width = sample.symbols.shape[1]
        if steps >= width:
            raise HorizonError(f"orbit step {steps} exceeds the symbol window {width}")
        return PointSample(symbols=sample.symbols[:, steps:])
    if sample.coords is None:
        raise ParameterError(f"{system.kind} acts on coordinate samples")
    if system.dim != sample.coords.shape[1]:
        raise ParameterError(
            f"{system.kind} acts on {system.dim}-dimensional points, "
            f"the sample has {sample.coords.shape[1]} coordinates"
        )
    coords = sample.coords
    for _ in range(steps):
        coords = system.step(coords)
    return PointSample(coords=coords)
