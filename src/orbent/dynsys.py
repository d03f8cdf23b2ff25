"""Canonical measure-preserving systems with exact samplers for their invariant measures.

Each system kind is a frozen dataclass subclassing :class:`SystemSpec`, with
JSON ``{"kind": <class name>, <field>: <value>, ...}``.  A new node, system or
partition is its class: a map of coordinates implements ``step``, and a system
with a new draw of points its own ``sample(m, rng)``.  The package's one JSON
codec lives here and writes and decodes every JSON object of the package,
the ``orbent run`` config and the bundle records too: ``fields_json`` writes
dataclass fields, ``from_fields_json`` reads each by its resolved annotation,
and :class:`Tagged` adds the tag that names a class, registered when the
class is defined.  The writer has two rules beyond "each field by its own
``to_json``": a dict is written key by key with each value by the same rules,
and a field that is None is left out, so that an optional field left unset
adds nothing.  The reader has one recursive rule: ``Optional[X]`` is null or X,
``list[X]`` and ``tuple[X, ...]`` an array of X, ``dict[str, X]`` an object
of X, and a class with a ``from_json`` (a :class:`Record` or a Tagged root)
reads itself.  Its leaves are strict: an ``int`` is never a bool or a float, a
``float`` is any number but a bool, and a ``str``, ``bool`` or bare ``list``
is only itself.  A bad field, or one whose annotation the reader cannot read,
raises :class:`~orbent.errors.ConfigError`, which carries its name, and an
error inside a nested object is raised again under the outer object's field.

A sample of m points is an array, float coordinates of shape (m, dim) or
integer symbol windows of shape (m, width) whose column j is the symbol j
shift steps along the orbit; ``holds_symbols`` reads which from the dtype.

Torus systems keep coordinates reduced into [0,1) after every step, so the
semigroup law ``advance_sample(advance_sample(x, j, s), k, s) ==
advance_sample(x, j + k, s)`` holds bit-for-bit.  Shift systems store a finite
symbol window, which a step slices, and fail loudly when an orbit runs past it
rather than wrapping around.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, HorizonError, ParameterError

# Badly approximable defaults: golden-mean fractional part for rotations and
# skew products, sqrt(2)-1 as the independent second torus angle.
GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2_FRAC = math.sqrt(2.0) - 1.0

# Symbol window used when a shift system is built without an explicit horizon.
DEFAULT_SHIFT_HORIZON = 128

# Symbols a shift may have: samples store them as int8.
MAX_SHIFT_SYMBOLS = 128

# Symbols per row block of a shift sample: each block draws a float64 uniform
# per symbol, so blocks keep that temporary small.
_SAMPLE_BLOCK = 1 << 15

_WEIGHT_TOL = 1e-12


def _json_value(value):
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return value.to_json() if hasattr(value, "to_json") else value


def fields_json(obj) -> dict:
    """The dataclass fields of ``obj`` as JSON, by the rules of the module
    docstring: nested values by their own ``to_json``, tuples as lists."""
    return {f.name: _json_value(getattr(obj, f.name)) for f in fields(obj)
            if getattr(obj, f.name) is not None}


def _strict(tp: type, value):
    """``value``, if it is JSON of the leaf type ``tp`` by the module docstring."""
    if isinstance(value, bool) != (tp is bool) or \
            not isinstance(value, (int, float) if tp is float else tp):
        raise TypeError(f"expected {tp.__name__}, got {value!r}")
    return float(value) if tp is float else value


def _decoder(tp) -> Callable:
    """The decoder of a JSON value into the resolved annotation ``tp``, by the
    rule of the module docstring; a TypeError if the rule cannot read ``tp``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union and len(args) == 2 and type(None) in args:
        inner = _decoder(next(a for a in args if a is not type(None)))
        return lambda value: None if value is None else inner(value)
    if origin is list and len(args) == 1 or origin is tuple and args[1:] == (...,):
        item = _decoder(args[0])
        return lambda values: origin(item(x) for x in _strict(list, values))
    if origin is dict and args[:1] == (str,):
        item = _decoder(args[1])
        return lambda obj: {k: item(x) for k, x in _strict(dict, obj).items()}
    if tp in (int, float, bool, str, list):
        return lambda value: _strict(tp, value)
    if isinstance(tp, type) and hasattr(tp, "from_json"):
        return tp.from_json
    raise TypeError(f"the codec reads no {tp!r}")


def field_decoders(cls) -> dict[str, Callable]:
    """The decoder of each field of dataclass ``cls``; a :class:`ConfigError`
    names a field whose annotation the codec cannot read."""
    hints = get_type_hints(cls)
    decoders = {}
    for f in fields(cls):
        try:
            decoders[f.name] = _decoder(hints[f.name])
        except TypeError as exc:
            raise ConfigError(f.name, f"{cls.__name__} field {f.name!r}: {exc}") from exc
    return decoders


def from_fields_json(cls, obj: dict):
    """Dataclass ``cls`` from a JSON object of its fields, each read by its
    annotation.  A missing field reads as null, which only an ``Optional``
    field takes; a :class:`ConfigError` names the class and the field."""
    name = cls.__name__
    if not isinstance(obj, dict):
        raise ParameterError(f"{name} JSON must be an object, got {obj!r}")
    decoders = field_decoders(cls)
    unknown = sorted(set(obj) - set(decoders))
    if unknown:
        raise ConfigError(unknown[0], f"{name} has no field {unknown[0]!r}")
    kwargs = {}
    for key, decode in decoders.items():
        try:
            kwargs[key] = decode(obj.get(key))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if key not in obj:
                raise ConfigError(key, f"{name} needs the field {key!r}") from exc
            raise ConfigError(key, f"invalid {name} field {key!r}: {exc}") from exc
    return cls(**kwargs)


class Record:
    """Mixin for dataclasses whose JSON is exactly their fields."""

    to_json = fields_json
    from_json = classmethod(from_fields_json)


class Tagged:
    """A family of dataclasses with JSON ``{tag_key: <json_tag()>, <field>:
    <value>, ...}``.  The family's root sets ``tag_key`` and its own
    ``registry``; every subclass whose name does not start with ``_`` is
    registered under its ``json_tag()`` when it is defined."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "registry" not in vars(cls) and not cls.__name__.startswith("_"):
            cls.registry[cls.json_tag()] = cls

    @classmethod
    def json_tag(cls) -> str:
        return cls.__name__

    def to_json(self) -> dict:
        return {self.tag_key: self.json_tag(), **fields_json(self)}

    @classmethod
    def from_json(cls, obj: dict):
        """Decode ``{tag_key: <registry key>, <field>: <value>, ...}``."""
        key, registry = cls.tag_key, cls.registry
        tag = obj.get(key) if isinstance(obj, dict) else None
        if not isinstance(tag, str) or tag not in registry:
            raise ParameterError(f"expected a JSON object with {key!r} in {sorted(registry)}")
        return from_fields_json(registry[tag], {k: v for k, v in obj.items() if k != key})


class SystemSpec(Tagged):
    """A measure-preserving transformation.  A map of coordinates implements
    ``step(coords)``; the base checks every float field as an angle and
    samples uniform coordinates.

    A map of the torus that is affine, T p = A p + b (mod 1) with one b for
    every point, declares its linear part A in ``shear``: each pair (i, j)
    adds coordinate j, which A fixes, to coordinate i, and A fixes every
    coordinate that no pair names.  So T^k p - A^k p is one vector for all
    points.  ``()`` is a translation; None, the default, declares nothing."""

    tag_key = "kind"
    registry = {}
    dim: ClassVar[Optional[int]] = None  # coordinate dimension; None if symbolic
    is_symbolic: ClassVar[bool] = False
    shear: ClassVar[Optional[tuple[tuple[int, int], ...]]] = None

    @property
    def kind(self) -> str:
        return self.json_tag()

    def __post_init__(self) -> None:
        hints = get_type_hints(type(self))
        for name in [f.name for f in fields(self) if hints[f.name] is float]:
            value = float(getattr(self, name))
            if not np.isfinite(value) or value % 1.0 == 0.0:
                raise ParameterError(f"{name} must be finite and not an integer, got {value!r}")
            object.__setattr__(self, name, value)

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """m points drawn i.i.d. from the invariant measure."""
        return rng.random((m, self.dim))

    def label(self) -> str:
        """Compact CSV-safe identifier: ``kind[field=value;...]``."""
        params = ";".join(f"{f.name}={getattr(self, f.name):.17g}" for f in fields(self))
        return f"{self.kind}[{params}]" if params else self.kind


@dataclass(frozen=True)
class CircleRotation(SystemSpec):
    alpha: float = GOLDEN_FRAC

    dim = 1
    shear = ()

    def step(self, coords: np.ndarray) -> np.ndarray:
        return (coords + self.alpha) % 1.0


@dataclass(frozen=True)
class TorusTranslation(SystemSpec):
    alpha: float = GOLDEN_FRAC
    beta: float = SQRT2_FRAC

    dim = 2
    shear = ()

    def step(self, coords: np.ndarray) -> np.ndarray:
        return (coords + np.array([self.alpha, self.beta])) % 1.0


@dataclass(frozen=True)
class AnzaiSkew(SystemSpec):
    """(x, y) -> (x + alpha, y + x) on the 2-torus.  Its linear part
    (x, y) -> (x, y + x) fixes x and adds x to y, so T^k (x, y) is
    (x, y + k x) plus (k alpha, alpha k (k - 1) / 2), the same for all points."""

    alpha: float = GOLDEN_FRAC

    dim = 2
    shear = ((1, 0),)

    def step(self, coords: np.ndarray) -> np.ndarray:
        out = np.empty_like(coords)
        np.add(coords[..., 0], self.alpha, out=out[..., 0])
        np.add(coords[..., 1], coords[..., 0], out=out[..., 1])
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
        if len(w) < 2 or not (np.all(w > 0.0) and abs(float(w.sum()) - 1.0) <= _WEIGHT_TOL):
            raise ParameterError(f"Bernoulli weights must be two or more positive numbers "
                                 f"summing to 1 within {_WEIGHT_TOL}, got {self.weights!r}")
        if len(w) > MAX_SHIFT_SYMBOLS:
            raise ParameterError(f"a shift has at most {MAX_SHIFT_SYMBOLS} symbols, stored as "
                                 f"int8; got {len(w)} weights")
        horizon = DEFAULT_SHIFT_HORIZON if self.horizon is None else int(self.horizon)
        if horizon < 1:
            raise ParameterError("shift horizon must be >= 1")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "horizon", horizon)

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """m symbol windows of ``horizon`` i.i.d. symbols, drawn in row blocks
        of about ``_SAMPLE_BLOCK`` symbols, equal to one
        ``rng.choice(len(weights), (m, horizon), p=weights)``.  That call
        draws one uniform u per symbol in row-major order and returns the
        number of entries of the normalised cumulative weights that are
        <= u; the last entry is exactly 1 > u, so a block counts the others."""
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        symbols = np.empty((m, self.horizon), dtype=np.int8)
        rows = max(1, _SAMPLE_BLOCK // self.horizon)
        for a in range(0, m, rows):
            block = symbols[a:a + rows]
            u = rng.random(block.shape)
            block[...] = 0
            for threshold in cdf[:-1]:
                block += u >= threshold
        return symbols

    def label(self) -> str:
        ws = ";".join(f"{w:.17g}" for w in self.weights)
        return f"BernoulliShift[weights={ws}]"


def holds_symbols(sample: np.ndarray) -> bool:
    """Whether the sample holds symbol windows (an integer dtype), not coordinates."""
    return sample.dtype.kind in "iu"


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, key...); independent of thread layout."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(k) & 0xFFFFFFFFFFFFFFFF for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def sample_points(system: SystemSpec, m: int, seed: int) -> np.ndarray:
    """Draw m i.i.d. points from the invariant measure, reproducibly from seed."""
    if m < 1:
        raise ParameterError(f"sample size must be >= 1, got {m}")
    return system.sample(m, derive_rng(seed))


def advance_sample(sample: np.ndarray, steps: int, system: SystemSpec) -> np.ndarray:
    """Apply ``system`` ``steps`` times to every point of the sample.  The
    identity returns the sample; a shift returns a view of the windows
    without their first ``steps`` symbols."""
    if steps < 0:
        raise ParameterError("cannot iterate a transformation backwards here")
    if steps == 0 or isinstance(system, Identity):
        return sample
    if holds_symbols(sample) != system.is_symbolic:
        kind = "symbolic" if system.is_symbolic else "coordinate"
        raise ParameterError(f"{system.kind} acts on {kind} samples")
    if system.is_symbolic:
        if steps >= sample.shape[-1]:
            raise HorizonError(f"orbit step {steps} exceeds the symbol window {sample.shape[-1]}")
        return sample[..., steps:]
    if system.dim != sample.shape[-1]:
        raise ParameterError(
            f"{system.kind} acts on {system.dim}-dimensional points, "
            f"the sample has {sample.shape[-1]} coordinates"
        )
    for _ in range(steps):
        sample = system.step(sample)
    return sample
