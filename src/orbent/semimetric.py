"""Admissible semimetrics and the dynamical operations on them.

Every semimetric is a node of one descriptor tree, a frozen dataclass that
subclasses :class:`Semimetric`: the standard metrics, closed forms and block
semimetrics are leaves, and the cone operations (cut-off, convex combination,
pull-back, orbit average) are inner nodes.  A node's dataclass fields are its
parameters, checked in ``__post_init__``; it implements ``values(sample,
rows)`` and ``label()``, and ``symbol_horizon()`` if it reads symbols.  JSON
is generic: ``{"type": <class name>, <field>: <value>, ...}``, decoded by the
codec of :mod:`dynsys` through the registry ``_NODES``.  A new node needs its
class, an entry in ``_NODES``, and a ``DECODE`` entry only for a field type
not yet there.  Partitions of :class:`Block` follow the same pattern, with
JSON tag ``kind``: a new partition needs its class and an entry in
``_PARTITIONS``.  ``dyadic_cells`` is the one dyadic concept: it cuts the
coordinate space into dyadic boxes for :class:`DyadicIntervals` (on the first
coordinate) and for the admissibility trace curve (on all coordinates).

A cut (0 where two points' keys agree, 1 where they differ) subclasses
:class:`_Cut` and implements ``keys(sample)``, one comparable key per point,
reading at most ``symbol_horizon()`` symbols.  On a shift its orbit average
reads the keys of a chunk of steps from one sliding window and counts the
differing steps by XOR and popcount; on other systems it steps like any other
node.

Symmetry is exact by construction: ``pairwise`` and the streamed orbit
averages compute only the upper triangle of a value matrix, in row blocks of
about ``_TILE`` values (rows a..b-1 against the tail sample of points a..m-1,
so step temporaries stay block-sized), and mirror it into the lower one.  The
tail relies on a contract of ``values``: a node's value on a pair depends only
on those two points, so it is the same on the tail as on the whole sample.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Iterable, Iterator, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynsys import (
    DECODE, Identity, PointSample, SystemSpec, advance_sample, fields_json, from_tagged_json,
)
from .errors import HorizonError, MetricTypeError, ParameterError


# ---------------------------------------------------------------------------
# partitions


class Partition(ABC):
    """Total assignment of points to numbered blocks.  Each kind is a frozen
    dataclass whose JSON tag ``kind`` is a snake_case name."""

    kind: ClassVar[str]
    symbol_need: ClassVar[int] = 0  # symbols read from each point

    @abstractmethod
    def assign_indices(self, sample: PointSample) -> np.ndarray:
        """Block index of every point, shape (m,)."""

    def label(self) -> str:
        """Compact CSV-safe identifier: ``kind;field=value;...``."""
        return ";".join([self.kind] + [f"{f.name}={getattr(self, f.name)}" for f in fields(self)])

    def to_json(self) -> dict:
        return {"kind": self.kind, **fields_json(self)}

    @staticmethod
    def from_json(obj: dict) -> "Partition":
        return from_tagged_json(obj, "kind", _PARTITIONS)


@dataclass(frozen=True)
class DyadicIntervals(Partition):
    """2**level equal dyadic intervals of the first coordinate."""

    level: int

    kind = "dyadic_intervals"

    def __post_init__(self) -> None:
        if not 0 <= self.level <= 53:
            raise ParameterError("dyadic level must lie in [0, 53]: coordinates carry 53 bits")

    def assign_indices(self, sample: PointSample) -> np.ndarray:
        return dyadic_cells(_coords(sample)[:, :1], self.level)


@dataclass(frozen=True)
class FirstSymbols(Partition):
    """Cylinder partition by the first ``count`` symbols."""

    count: int
    alphabet: int = 2

    kind = "first_symbols"

    def __post_init__(self) -> None:
        if self.count < 1 or self.alphabet < 2 or self.count * math.log2(self.alphabet) > 62:
            raise ParameterError("need count >= 1, alphabet >= 2 and alphabet**count <= 2**62")

    @property
    def symbol_need(self) -> int:
        return self.count

    def assign_indices(self, sample: PointSample) -> np.ndarray:
        window = _window(sample, self.count)
        idx = np.zeros(sample.m, dtype=int)
        for i in range(self.count):
            idx = idx * self.alphabet + window[:, i].astype(int)
        return idx


@dataclass(frozen=True)
class OneBlock(Partition):
    """Every point in one block."""

    kind = "one_block"

    def assign_indices(self, sample: PointSample) -> np.ndarray:
        return np.zeros(sample.m, dtype=int)

    def label(self) -> str:
        return "one_block;blocks=1"


_PARTITIONS: dict[str, type[Partition]] = {cls.kind: cls for cls in (
    DyadicIntervals, FirstSymbols, OneBlock,
)}

# ---------------------------------------------------------------------------
# evaluation helpers


def _coords(sample: PointSample) -> np.ndarray:
    if sample.coords is None:
        raise MetricTypeError("this semimetric needs coordinate points")
    return sample.coords


def dyadic_cells(coords: np.ndarray, level: int) -> np.ndarray:
    """Dyadic box of every point at ``level``, shape (m,).

    The level's bits are dealt to the coordinates in turn, starting with the
    first, and the boxes are numbered in row-major order: in 1-D that is
    2**level intervals, in 2-D 2**ceil(level/2) x 2**floor(level/2) boxes with
    index ``ix * ny + iy``.
    """
    dim = coords.shape[1]
    cells = np.zeros(coords.shape[0], dtype=int)
    for i in range(dim):
        count = 2 ** ((level - i + dim - 1) // dim)
        idx = np.clip(np.floor(coords[:, i] * count).astype(int), 0, count - 1)
        cells = cells * count + idx
    return cells


def _window(sample: PointSample, need: int) -> np.ndarray:
    window = sample.symbols
    if window is None:
        raise MetricTypeError("this semimetric needs symbolic points")
    if window.shape[1] < need:
        raise HorizonError(
            f"evaluation needs {need} symbols, window has {window.shape[1]}"
        )
    return window


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Mirror the upper triangle into the lower one and zero the diagonal."""
    for i in range(1, matrix.shape[0]):
        matrix[i, :i] = matrix[:i, i]
    np.fill_diagonal(matrix, 0.0)
    return matrix


# ---------------------------------------------------------------------------
# the node base class


class Semimetric(ABC):
    """A symmetric nonnegative pair evaluator; every descriptor node is one.

    Nodes are frozen dataclasses, so equality and hashing compare whole trees.
    """

    # label of a parameterless node
    standard_tag: ClassVar[Optional[str]] = None

    @abstractmethod
    def values(self, sample: PointSample, rows: np.ndarray) -> np.ndarray:
        """Values rho(p_r, p_c) for r in rows and all c, shape (len(rows), m)."""

    def label(self) -> str:
        """Compact CSV-safe identifier; nodes with parameters override it."""
        return self.standard_tag

    def symbol_horizon(self) -> int:
        """Symbols needed past the orbit start to evaluate this semimetric."""
        return 0

    def pairwise(self, sample: PointSample) -> np.ndarray:
        """Full m-by-m value matrix with exact symmetry and zero diagonal,
        mirrored from its upper triangle, which is evaluated in row blocks."""
        return _symmetrize(next(_orbit_sums(self, Identity(), sample, None, [1]))[1])

    def to_json(self) -> dict:
        return {"type": type(self).__name__, **fields_json(self)}

    @staticmethod
    def from_json(obj: dict) -> "Semimetric":
        return from_tagged_json(obj, "type", _NODES)


# ---------------------------------------------------------------------------
# leaves


@dataclass(frozen=True)
class Euclidean1D(Semimetric):
    """|x - y| on the first coordinate."""

    standard_tag = "euclidean_1d"

    def values(self, sample: PointSample, rows: np.ndarray) -> np.ndarray:
        c = _coords(sample)[:, 0]
        d = np.subtract(c[rows, None], c[None, :])
        return np.abs(d, out=d)


@dataclass(frozen=True)
class CircleArc(Semimetric):
    """Arc distance min(|x-y|, 1-|x-y|) on the first coordinate."""

    standard_tag = "circle_arc"

    def values(self, sample: PointSample, rows: np.ndarray) -> np.ndarray:
        c = _coords(sample)[:, 0]
        d = np.subtract(c[rows, None], c[None, :])
        np.abs(d, out=d)
        return np.minimum(d, np.subtract(1.0, d), out=d)


@dataclass(frozen=True)
class TorusArcL1(Semimetric):
    """Sum of per-coordinate arc distances."""

    standard_tag = "torus_arc_l1"

    def values(self, sample: PointSample, rows: np.ndarray) -> np.ndarray:
        c = _coords(sample)
        acc = np.zeros((len(rows), sample.m))
        d = np.empty_like(acc)
        e = np.empty_like(acc)
        for j in range(c.shape[1]):
            np.subtract(c[rows, None, j], c[None, :, j], out=d)
            np.abs(d, out=d)
            np.subtract(1.0, d, out=e)
            acc += np.minimum(d, e, out=d)
        return acc


def _differ(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return (keys[rows, None] != keys[None, :]).astype(float)


class _Cut(Semimetric):
    """0 if two points have the same key, else 1."""

    @abstractmethod
    def keys(self, sample: PointSample) -> np.ndarray:
        """One key per point, shape (m,)."""

    def values(self, sample: PointSample, rows: np.ndarray) -> np.ndarray:
        return _differ(self.keys(sample), rows)


@dataclass(frozen=True)
class FirstSymbolCut(_Cut):
    """1 if the leading symbols differ, else 0."""

    standard_tag = "first_symbol_cut"

    def keys(self, sample: PointSample) -> np.ndarray:
        return _window(sample, 1)[:, 0]

    def symbol_horizon(self) -> int:
        return 1


@dataclass(frozen=True)
class Discrete(Semimetric):
    """1 if the points differ at all, else 0.  On symbols it reads the whole
    live window, past ``symbol_horizon()``, so it is not a cut."""

    standard_tag = "discrete"

    def values(self, sample: PointSample, rows: np.ndarray) -> np.ndarray:
        if sample.coords is not None:
            c = sample.coords
            return np.any(c[rows, None, :] != c[None, :, :], axis=2).astype(float)
        _, keys = np.unique(_window(sample, 1), axis=0, return_inverse=True)
        return _differ(keys.reshape(-1), rows)

    def symbol_horizon(self) -> int:
        return 1


@dataclass(frozen=True)
class Zero(Semimetric):
    """Identically zero."""

    standard_tag = "zero"

    def values(self, sample: PointSample, rows: np.ndarray) -> np.ndarray:
        return np.zeros((len(rows), sample.m))


def _closed_form_mean_rotated_abs_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Average of |{x+t} - {y+t}| over a full turn: 2*d*(1-d) with d = |x-y|.
    d = np.abs(a - b)
    return 2.0 * d * (1.0 - d)


def _closed_form_abs_plus_square(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) + np.abs(a * a - b * b)


def _closed_form_squared_abs_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Violates the triangle inequality; shipped as a negative control.
    return (a - b) ** 2


CLOSED_FORMS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "mean_rotated_abs_diff": _closed_form_mean_rotated_abs_diff,
    "abs_plus_square": _closed_form_abs_plus_square,
    "squared_abs_diff": _closed_form_squared_abs_diff,
}


@dataclass(frozen=True)
class ClosedForm(Semimetric):
    """A kernel of the first coordinate from ``CLOSED_FORMS``."""

    tag: str

    def __post_init__(self) -> None:
        if self.tag not in CLOSED_FORMS:
            raise ParameterError(
                f"unknown closed-form tag {self.tag!r}; known: {sorted(CLOSED_FORMS)}"
            )

    def values(self, sample: PointSample, rows: np.ndarray) -> np.ndarray:
        c = _coords(sample)[:, 0]
        return CLOSED_FORMS[self.tag](c[rows, None], c[None, :])

    def label(self) -> str:
        return f"ClosedForm[{self.tag}]"


@dataclass(frozen=True)
class Block(_Cut):
    """0 within a block of the partition, 1 across blocks."""

    partition: Partition

    def keys(self, sample: PointSample) -> np.ndarray:
        return self.partition.assign_indices(sample)

    def label(self) -> str:
        return f"Block[{self.partition.label()}]"

    def symbol_horizon(self) -> int:
        return self.partition.symbol_need


# ---------------------------------------------------------------------------
# cone operations


@dataclass(frozen=True)
class Cutoff(Semimetric):
    """Pointwise cap min(rho, level); still a semimetric."""

    inner: Semimetric
    level: float

    def __post_init__(self) -> None:
        if not (0 < self.level < math.inf):
            raise ParameterError("cut-off level must be positive and finite")

    def values(self, sample: PointSample, rows: np.ndarray) -> np.ndarray:
        return np.minimum(self.inner.values(sample, rows), self.level)

    def label(self) -> str:
        return f"Cutoff[{self.inner.label()};level={self.level:.17g}]"

    def symbol_horizon(self) -> int:
        return self.inner.symbol_horizon()


@dataclass(frozen=True)
class Mix(Semimetric):
    """Convex combination t*a + (1-t)*b; the cone is closed under it."""

    a: Semimetric
    b: Semimetric
    t: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.t <= 1.0):
            raise ParameterError("mixing weight must lie in [0, 1]")

    def values(self, sample: PointSample, rows: np.ndarray) -> np.ndarray:
        return self.t * self.a.values(sample, rows) \
            + (1.0 - self.t) * self.b.values(sample, rows)

    def label(self) -> str:
        return f"Mix[{self.a.label()};{self.b.label()};t={self.t:.17g}]"

    def symbol_horizon(self) -> int:
        return max(self.a.symbol_horizon(), self.b.symbol_horizon())


@dataclass(frozen=True)
class PullBack(Semimetric):
    """The semimetric (x, y) -> rho(T^k x, T^k y)."""

    inner: Semimetric
    system: SystemSpec
    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ParameterError("pull-back count must be >= 0")

    def values(self, sample: PointSample, rows: np.ndarray) -> np.ndarray:
        return self.inner.values(advance_sample(sample, self.k, self.system), rows)

    def label(self) -> str:
        return f"PullBack[{self.inner.label()};k={self.k};{self.system.label()}]"

    def symbol_horizon(self) -> int:
        extra = self.k if self.system.is_symbolic else 0
        return extra + self.inner.symbol_horizon()


_CUT_KEYS = 1 << 15  # keys per popcount chunk, so its temporaries stay small for any m and n
_TILE = 1 << 15  # values per row block of a whole matrix, so step temporaries stay block-sized


def _tiles(acc: np.ndarray, rows: Optional[np.ndarray]) -> list:
    """(view of ``acc``, a, rows of the tail a..m-1) of each block a pass adds
    into: all of ``acc`` for explicit ``rows``; for ``rows`` None, rows a..b-1
    of the whole matrix against points a..m-1, about ``_TILE`` values each."""
    if rows is not None:
        return [(acc, 0, rows)]
    tiles, m, a = [], acc.shape[0], 0
    while a < m:
        b = min(m, a + max(1, _TILE // (m - a)))
        tiles.append((acc[a:b, a:], a, np.arange(b - a)))
        a = b
    return tiles


def _tail(sample: PointSample, start: int) -> PointSample:
    """Points start..m-1 of ``sample``."""
    if sample.coords is not None:
        return PointSample(coords=sample.coords[start:])
    return PointSample(symbols=sample.symbols[start:])


def _window_keys(cut: _Cut, sample: PointSample, start: int, stop: int) -> np.ndarray:
    """Keys of shift steps start .. stop-1, shape (m, stop - start), without
    stepping: step k's key reads only symbols k .. k + horizon - 1."""
    width = max(cut.symbol_horizon(), 1)
    window = sample.symbols
    if window.shape[1] < stop - 1 + width:
        raise HorizonError(f"orbit step {stop - 1} exceeds symbol window {window.shape[1]}")
    steps = sliding_window_view(window, width, axis=1)[:, start:stop].reshape(-1, width)
    return cut.keys(PointSample(symbols=steps)).reshape(sample.m, stop - start)


def _add_cut_counts(tiles: list, keys: np.ndarray) -> None:
    """Add to each tile's view the number of steps (columns of ``keys``) at
    which its pairs of tail points have different keys: keys mapped
    one-to-one onto uint64 labels, then per uint64 word of 64 steps the OR over
    the labels' bit planes of their XOR, bit-counted."""
    m, steps = keys.shape
    words = -(-steps // 64)
    labels = np.zeros((m, 64 * words), np.uint64)  # the padding never differs
    if keys.dtype.kind in "iu":  # an offset modulo 2**64 is one-to-one at any key range
        np.subtract(keys, keys.min(initial=0), out=labels[:, :steps],
                    dtype=np.uint64, casting="unsafe")
    else:
        labels[:, :steps] = np.unique(keys, return_inverse=True)[1].reshape(m, steps)
    planes = [np.packbits(labels >> bit & 1, axis=1).view(np.uint64)
              for bit in range(int(labels.max(initial=0)).bit_length())]
    for view, a, rows in tiles:
        for w in range(words):
            diff = np.uint64(0)
            for plane in planes:
                tail = plane[a:, w]
                diff = diff | (tail[rows, None] ^ tail[None, :])
            view += np.bitwise_count(diff)


def _orbit_sums(
    inner: Semimetric, system: SystemSpec, sample: PointSample, rows: Optional[np.ndarray],
    schedule: Sequence[int],
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, sum of the first n pull-backs of ``inner``) along an ascending
    schedule; the sum is updated in place, so keeping it past a step needs a copy.
    ``rows`` None sums the whole matrix on and above the diagonal, block by
    block (``_tiles``); below it only a block's diagonal square is summed.
    A cut on a shift adds exact integer counts of its differing steps, chunk by
    chunk, so its sum is bit-identical to adding its 0/1 matrices step by step."""
    cut = isinstance(inner, _Cut) and system.is_symbolic and sample.is_symbolic
    acc = np.zeros((sample.m if rows is None else len(rows), sample.m))
    tiles = _tiles(acc, rows)
    state = sample
    steps = 0
    chunk = 64 * max(_CUT_KEYS // (64 * max(sample.m, 1)), 1)
    for n in schedule:
        if cut:
            for start in range(steps, n, chunk):
                _add_cut_counts(tiles, _window_keys(inner, sample, start, min(start + chunk, n)))
            steps = max(steps, n)
        while steps < n:
            if steps:
                state = advance_sample(state, 1, system)
            for view, a, tail_rows in tiles:
                view += inner.values(_tail(state, a) if a else state, tail_rows)
            steps += 1
        yield n, acc


@dataclass(frozen=True)
class Average(Semimetric):
    """Arithmetic mean of the first n pull-backs of ``inner`` along the orbit."""

    inner: Semimetric
    system: SystemSpec
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError("averaging length must be >= 1")

    def values(self, sample: PointSample, rows: np.ndarray) -> np.ndarray:
        _, acc = next(_orbit_sums(self.inner, self.system, sample, rows, [self.n]))
        acc /= self.n
        return acc

    def label(self) -> str:
        return f"Average[{self.inner.label()};n={self.n};{self.system.label()}]"

    def symbol_horizon(self) -> int:
        extra = self.n - 1 if self.system.is_symbolic else 0
        return extra + self.inner.symbol_horizon()


_NODES: dict[str, type[Semimetric]] = {cls.__name__: cls for cls in (
    Euclidean1D, CircleArc, TorusArcL1, FirstSymbolCut, Discrete, Zero,
    ClosedForm, Block, Cutoff, Mix, PullBack, Average,
)}

DECODE.update(Semimetric=Semimetric.from_json, Partition=Partition.from_json)


# ---------------------------------------------------------------------------
# constructors


def average_metric(metric: Semimetric, system: SystemSpec, n: int) -> Semimetric:
    """Arithmetic mean of the first n pull-backs of ``metric`` along the orbit.

    The identity system is an exact fixed point of averaging, so it returns
    the metric itself.
    """
    averaged = Average(metric, system, n)
    return metric if n == 1 or isinstance(system, Identity) else averaged


# ---------------------------------------------------------------------------
# distance matrices


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative value matrix of a semimetric on a point sample."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ParameterError("distance matrix must be square")
        if not np.all(np.isfinite(v)):
            raise ParameterError("distance matrix entries must be finite")
        if np.any(v < 0.0):
            raise ParameterError("distance matrix entries must be nonnegative")
        if not np.array_equal(v, v.T):
            raise ParameterError("distance matrix must be exactly symmetric")
        if np.any(np.diagonal(v) != 0.0):
            raise ParameterError("distance matrix diagonal must be exactly zero")


MatrixLike = Union[DistanceMatrix, np.ndarray]


def as_values(matrix: MatrixLike) -> np.ndarray:
    """The value array of a distance matrix or of a plain array."""
    if isinstance(matrix, DistanceMatrix):
        return matrix.values
    return np.asarray(matrix, dtype=float)


def distance_matrix(metric: Semimetric, sample: PointSample) -> DistanceMatrix:
    """Pairwise matrix of ``metric`` on the sample (symmetric, zero diagonal)."""
    if sample.m < 1:
        raise ParameterError("distance matrix needs at least one point")
    return DistanceMatrix(metric.pairwise(sample))


def streamed_average_matrices(
    metric: Semimetric, system: SystemSpec, sample: PointSample, n_values: Iterable[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, pairwise matrix of the n-step orbit average) in one orbit pass.

    Accumulation order matches ``average_metric(metric, system, n)`` exactly,
    so the yielded matrices are bit-identical to the one-shot computation.
    """
    schedule = sorted(set(int(n) for n in n_values))
    if not schedule or schedule[0] < 1:
        raise ParameterError("average lengths must be >= 1")
    if isinstance(system, Identity):
        base = metric.pairwise(sample)
        for n in schedule:
            yield n, base.copy()
        return
    for n, acc in _orbit_sums(metric, system, sample, None, schedule):
        yield n, _symmetrize(acc / n)
