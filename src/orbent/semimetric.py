"""Admissible semimetrics and the dynamical operations on them.

Every semimetric is a node of one descriptor tree, a frozen dataclass that
subclasses :class:`Semimetric`: the standard metrics, closed forms and block
semimetrics are leaves, and the cone operations (cut-off, convex combination,
pull-back, orbit average) are inner nodes.  A node's dataclass fields are its
parameters, checked in ``__post_init__``; it implements ``values(sample,
rows)`` and ``label()``, and ``symbol_horizon()`` if it reads symbols.  JSON
is generic: ``{"type": <class name>, <field>: <value>, ...}``, by the codec of
:mod:`dynsys`, which registers each node class when it is defined and reads
each field by its annotation.  A new node, system or partition is its class.
Partitions of :class:`Block` follow the same pattern: ``{"kind": <snake_case
name>, <field>: <value>, ...}``.
``dyadic_cells`` is the one dyadic concept: it cuts the coordinate space into
dyadic boxes for :class:`DyadicIntervals` (on the first coordinate) and for
the admissibility trace curve (on all coordinates).

Symmetry is exact by construction: ``pairwise`` and the streamed orbit
averages compute only the upper triangle of a value matrix, in row blocks of
about ``_TILE`` values (rows a..b-1 against the tail sample of points a..m-1,
so step temporaries stay block-sized).  The tail relies on a contract of
``values``: a node's value on a pair depends only on those two points, so it
is the same on the tail as on the whole sample.  Each block adds its orbit
steps into its own C-contiguous accumulator, since adding into a strided view
of the m x m matrix costs NumPy an iteration per row.  ``orbit_sums`` adds;
``_orbit_means`` divides, then mirrors the upper triangle into the lower.

A sample is its points array: float coordinates of shape (m, dim) or integer
symbol windows of shape (m, width), told apart by the dtype (``holds_symbols``).

The coordinate leaves form differences u_r - v_c with ``_differences``, one
matrix product of the columns [u, 1] by the rows [1, -v].  It is exact: both
products of each entry are by +-1, so each entry is the two-term sum
u_r + (-v_c), rounded once, which is IEEE subtraction.  The sign of a zero
result agrees too unless u_r is -0.0, which no sample holds.  No order of
addition that BLAS may choose, threaded or not, with beta = 0 or with fused
multiply-adds, can change it.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Iterable, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynsys import Identity, SystemSpec, Tagged, advance_sample, holds_symbols
from .errors import HorizonError, MetricTypeError, ParameterError


# ---------------------------------------------------------------------------
# partitions


class Partition(Tagged, ABC):
    """Total assignment of points to numbered blocks.  Each kind is a frozen
    dataclass whose JSON tag ``kind`` is a snake_case name."""

    tag_key = "kind"
    registry = {}
    kind: ClassVar[str]
    symbol_need: ClassVar[int] = 0  # symbols read from each point

    @classmethod
    def json_tag(cls) -> str:
        return cls.kind

    @abstractmethod
    def assign_indices(self, sample: np.ndarray) -> np.ndarray:
        """Block index of every point, shape (..., m)."""

    def label(self) -> str:
        """Compact CSV-safe identifier: ``kind;field=value;...``."""
        return ";".join([self.kind] + [f"{f.name}={getattr(self, f.name)}" for f in fields(self)])


@dataclass(frozen=True)
class DyadicIntervals(Partition):
    """2**level equal dyadic intervals of the first coordinate."""

    level: int

    kind = "dyadic_intervals"

    def __post_init__(self) -> None:
        if not 0 <= self.level <= 53:
            raise ParameterError("dyadic level must lie in [0, 53]: coordinates carry 53 bits")

    def assign_indices(self, sample: np.ndarray) -> np.ndarray:
        return dyadic_cells(_coords(sample)[..., :1], self.level)


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

    def assign_indices(self, sample: np.ndarray) -> np.ndarray:
        window = _window(sample, self.count)[..., :self.count]
        if window.size and not 0 <= window.min() <= window.max() < self.alphabet:
            raise ParameterError(f"first_symbols reads symbols in [0, {self.alphabet}), "
                                 f"got {window.min()}..{window.max()}")
        idx = np.zeros(window.shape[:-1], dtype=int)
        for i in range(self.count):
            idx = idx * self.alphabet + window[..., i].astype(int)
        return idx


@dataclass(frozen=True)
class OneBlock(Partition):
    """Every point in one block."""

    kind = "one_block"

    def assign_indices(self, sample: np.ndarray) -> np.ndarray:
        return np.zeros(sample.shape[:-1], dtype=int)

    def label(self) -> str:
        return "one_block;blocks=1"


# ---------------------------------------------------------------------------
# evaluation helpers


def _coords(sample: np.ndarray) -> np.ndarray:
    if holds_symbols(sample):
        raise MetricTypeError("this semimetric needs coordinate points")
    return sample


def dyadic_cells(coords: np.ndarray, level: int) -> np.ndarray:
    """Dyadic box of every point at ``level``, shape (..., m).

    The level's bits are dealt to the coordinates in turn, starting with the
    first, and the boxes are numbered in row-major order: in 1-D that is
    2**level intervals, in 2-D 2**ceil(level/2) x 2**floor(level/2) boxes with
    index ``ix * ny + iy``.
    """
    dim = coords.shape[-1]
    cells = np.zeros(coords.shape[:-1], dtype=int)
    for i in range(dim):
        count = 2 ** ((level - i + dim - 1) // dim)
        idx = np.clip(np.floor(coords[..., i] * count).astype(int), 0, count - 1)
        cells = cells * count + idx
    return cells


def _window(sample: np.ndarray, need: int) -> np.ndarray:
    if not holds_symbols(sample):
        raise MetricTypeError("this semimetric needs symbolic points")
    if sample.shape[-1] < need:
        raise HorizonError(
            f"evaluation needs {need} symbols, window has {sample.shape[-1]}"
        )
    return sample


def _differences(u: np.ndarray, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``u[..., :, None] - v[..., None, :]``, bit for bit, as the rank-2
    product of the columns [u, 1] and the rows [1, -v] (see the module
    docstring for why it is exact)."""
    left = np.empty(u.shape + (2,))
    left[..., 0] = u
    left[..., 1] = 1.0
    right = np.empty(v.shape[:-1] + (2, v.shape[-1]))
    right[..., 0, :] = 1.0
    np.negative(v, out=right[..., 1, :])
    return np.matmul(left, right, out=out)


def _blocks(m: int) -> Iterator[tuple[int, int]]:
    """(a, b) of the ``_MIRROR_BLOCK``-wide blocks of 0..m-1."""
    for a in range(0, m, _MIRROR_BLOCK):
        yield a, min(m, a + _MIRROR_BLOCK)


# ---------------------------------------------------------------------------
# the node base class


class Semimetric(Tagged, ABC):
    """A symmetric nonnegative pair evaluator; every descriptor node is one.

    Nodes are frozen dataclasses, so equality and hashing compare whole trees.
    """

    tag_key = "type"
    registry = {}
    # label of a parameterless node
    standard_tag: ClassVar[Optional[str]] = None

    @abstractmethod
    def values(self, sample: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Values rho(p_r, p_c) for r in rows and all c, shape (..., len(rows), m)."""

    def label(self) -> str:
        """Compact CSV-safe identifier; nodes with parameters override it."""
        return self.standard_tag

    def symbol_horizon(self) -> int:
        """Symbols needed past the orbit start to evaluate this semimetric."""
        return 0

    def orbit_sums(self, system: SystemSpec, sample: np.ndarray, tiles: list,
                   schedule: Sequence[int]) -> Iterator[tuple[int, Iterable]]:
        """At each n of the ascending ``schedule``, add the next orbit steps into
        the ``_tiles`` accumulators and yield the step count with the blocks to
        divide by it.  The identity map is a fixed point: one step, for every n."""
        state, steps = sample, 0
        for n in schedule:
            while steps < (1 if isinstance(system, Identity) else n):
                if steps:
                    state = advance_sample(state, 1, system)
                for acc, a, rows in tiles:
                    acc += self.values(state[..., a:, :], rows)
                steps += 1
            yield steps, tiles

    def pairwise(self, sample: np.ndarray) -> np.ndarray:
        """Full m-by-m value matrix with exact symmetry and zero diagonal, as
        ``_orbit_means`` finishes it from its upper triangle."""
        return next(_orbit_means(self, Identity(), sample, None, [1]))[1]


# ---------------------------------------------------------------------------
# leaves


@dataclass(frozen=True)
class Euclidean1D(Semimetric):
    """|x - y| on the first coordinate."""

    standard_tag = "euclidean_1d"

    def values(self, sample: np.ndarray, rows: np.ndarray) -> np.ndarray:
        c = _coords(sample)[..., 0]
        d = _differences(c[..., rows], c)
        return np.abs(d, out=d)


def _arc_sum(coords: np.ndarray, rows: np.ndarray, columns: Iterable[int],
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum over ``columns``, added in their order, of the arc distances
    min(|u_r - u_c|, 1 - |u_r - u_c|) of coordinate column u, for r in rows
    and all c; shape (..., len(rows), m), written into ``out`` if given."""
    total = None
    for j in columns:
        u = coords[..., j]
        arc = _differences(u[..., rows], u, out=out if total is None else None)
        np.abs(arc, out=arc)
        np.minimum(arc, np.subtract(1.0, arc), out=arc)
        total = arc if total is None else np.add(total, arc, out=total)
    return total


class _Arc(Semimetric):
    """Sum of the arc distances of the coordinates it reads.  Each arc depends
    only on the difference of two points modulo 1, so under an affine torus
    map T p = A p + b it is the same on T^k p as on A^k p."""

    @abstractmethod
    def coordinates(self, dim: int) -> Sequence[int]:
        """The coordinates of ``dim``-dimensional points that it reads."""

    def values(self, sample: np.ndarray, rows: np.ndarray) -> np.ndarray:
        c = _coords(sample)
        return _arc_sum(c, rows, self.coordinates(c.shape[-1]))

    def orbit_sums(self, system: SystemSpec, sample: np.ndarray, tiles: list,
                   schedule: Sequence[int]) -> Iterator[tuple[int, Iterable]]:
        """Under a declared linear part A (``SystemSpec.shear``), on points of the
        system's dimension, step by A alone, which leaves every arc as T does, so
        sums match full-map stepping up to rounding; where A fixes every coordinate
        read, that is the identity map's fixed point.  Each pair (i, j) of A steps
        p_i <- (p_i + p_j) mod 1; each coordinate A fixes adds base arc x steps."""
        linear = system.shear is not None and sample.shape[-1] == system.dim \
            and not holds_symbols(sample)
        read = self.coordinates(system.dim) if linear else ()
        moved = [(i, j) for i, j in system.shear or () if i in read]
        if not moved:
            yield from super().orbit_sums(Identity() if linear else system, sample, tiles, schedule)
            return
        fixed = [j for j in read if j not in dict(moved)]
        state = sample[..., [i for i, _ in moved]]
        source = sample[..., [j for _, j in moved]]
        scratch = np.empty(max((acc.size for acc, _, _ in tiles), default=0))

        def with_fixed(steps: int) -> Iterator[tuple[np.ndarray, int, np.ndarray]]:
            # (base * steps + sum) / steps once divided, one block at a time
            for acc, a, rows in tiles:
                total = scratch[:acc.size].reshape(acc.shape)
                _arc_sum(sample[..., a:, :], rows, fixed, out=total)
                total *= steps
                total += acc
                yield total, a, rows

        steps = 0
        for n in schedule:
            while steps < n:
                if steps:
                    np.remainder(np.add(state, source, out=state), 1.0, out=state)
                for acc, a, rows in tiles:
                    acc += _arc_sum(state[..., a:, :], rows, range(len(moved)))
                steps += 1
            yield steps, with_fixed(steps) if fixed else tiles


@dataclass(frozen=True)
class CircleArc(_Arc):
    """Arc distance min(|x-y|, 1-|x-y|) on the first coordinate."""

    standard_tag = "circle_arc"

    def coordinates(self, dim: int) -> Sequence[int]:
        return (0,)


@dataclass(frozen=True)
class TorusArcL1(_Arc):
    """Sum of per-coordinate arc distances."""

    standard_tag = "torus_arc_l1"

    def coordinates(self, dim: int) -> Sequence[int]:
        return range(dim)


def _differ(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return (keys[..., rows, None] != keys[..., None, :]).astype(float)


class _Cut(Semimetric):
    """0 if two points have the same integer key, else 1."""

    @abstractmethod
    def keys(self, sample: np.ndarray) -> np.ndarray:
        """One integer key per point, shape (..., m)."""

    def values(self, sample: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return _differ(self.keys(sample), rows)

    def orbit_sums(self, system: SystemSpec, sample: np.ndarray, tiles: list,
                   schedule: Sequence[int]) -> Iterator[tuple[int, Iterable]]:
        """On a shift, count each chunk of steps' differing keys, read from one
        sliding window (``_window_keys``), by XOR and popcount; else step the map."""
        if not (system.is_symbolic and holds_symbols(sample)):
            yield from super().orbit_sums(system, sample, tiles, schedule)
            return
        chunk = 64 * max(_CUT_KEYS // (64 * max(math.prod(sample.shape[:-1]), 1)), 1)
        steps = 0
        for n in schedule:
            for start in range(steps, n, chunk):
                _add_cut_counts(tiles, _window_keys(self, sample, start, min(start + chunk, n)))
            steps = max(steps, n)
            yield steps, tiles


@dataclass(frozen=True)
class FirstSymbolCut(_Cut):
    """1 if the leading symbols differ, else 0."""

    standard_tag = "first_symbol_cut"

    def keys(self, sample: np.ndarray) -> np.ndarray:
        return _window(sample, 1)[..., 0]

    def symbol_horizon(self) -> int:
        return 1


@dataclass(frozen=True)
class Discrete(Semimetric):
    """1 if the points differ at all, else 0.  On symbols it reads the whole
    live window, past ``symbol_horizon()``, so it is not a cut."""

    standard_tag = "discrete"

    def values(self, sample: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if not holds_symbols(sample):
            return np.any(sample[..., rows, None, :] != sample[..., None, :, :],
                          axis=-1).astype(float)
        window = _window(sample, 1)
        _, keys = np.unique(window.reshape(-1, window.shape[-1]), axis=0, return_inverse=True)
        return _differ(keys.reshape(window.shape[:-1]), rows)

    def symbol_horizon(self) -> int:
        return 1


@dataclass(frozen=True)
class Zero(Semimetric):
    """Identically zero."""

    standard_tag = "zero"

    def values(self, sample: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.zeros(sample.shape[:-2] + (len(rows), sample.shape[-2]))


# Each closed form takes the first coordinates u of the rows and v of all
# points and returns its values on the pairs (u_r, v_c).

def _closed_form_mean_rotated_abs_diff(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Average of |{x+t} - {y+t}| over a full turn: 2*d*(1-d) with d = |x-y|.
    d = _differences(u, v)
    np.abs(d, out=d)
    return 2.0 * d * (1.0 - d)


def _closed_form_abs_plus_square(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # |x - y| + |x*x - y*y| from two exact difference products, equal to the
    # broadcast expression bit for bit: abs drops the sign of a zero, and no
    # square is -0.0
    d = _differences(u, v)
    squares = _differences(u * u, v * v)
    return np.add(np.abs(d, out=d), np.abs(squares, out=squares), out=d)


def _closed_form_squared_abs_diff(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Violates the triangle inequality; shipped as a negative control.
    d = _differences(u, v)
    return np.square(d, out=d)


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

    def values(self, sample: np.ndarray, rows: np.ndarray) -> np.ndarray:
        c = _coords(sample)[..., 0]
        return CLOSED_FORMS[self.tag](c[..., rows], c)

    def label(self) -> str:
        return f"ClosedForm[{self.tag}]"


@dataclass(frozen=True)
class Block(_Cut):
    """0 within a block of the partition, 1 across blocks."""

    partition: Partition

    def keys(self, sample: np.ndarray) -> np.ndarray:
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

    def values(self, sample: np.ndarray, rows: np.ndarray) -> np.ndarray:
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

    def values(self, sample: np.ndarray, rows: np.ndarray) -> np.ndarray:
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

    def values(self, sample: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return self.inner.values(advance_sample(sample, self.k, self.system), rows)

    def label(self) -> str:
        return f"PullBack[{self.inner.label()};k={self.k};{self.system.label()}]"

    def symbol_horizon(self) -> int:
        extra = self.k if self.system.is_symbolic else 0
        return extra + self.inner.symbol_horizon()


_CUT_KEYS = 1 << 15  # keys per popcount chunk, so its temporaries stay small for any m and n
_TILE = 1 << 15  # values per row block of a whole matrix, so step temporaries stay block-sized
_MIRROR_BLOCK = 64  # side of the squares a mirror or symmetry check transposes within cache


def _tiles(sample: np.ndarray, rows: Optional[np.ndarray]) -> list:
    """(zeroed C-contiguous accumulator, a, rows of the tail a..m-1) of each
    block a pass adds into: one for explicit ``rows``, of shape
    (len(rows), m); for ``rows`` None, rows a..b-1 of the whole matrix
    against points a..m-1, about ``_TILE`` values each."""
    m = len(sample)
    if rows is not None:
        return [(np.zeros((len(rows), m)), 0, rows)]
    tiles, a = [], 0
    while a < m:
        b = min(m, a + max(1, _TILE // (m - a)))
        tiles.append((np.zeros((b - a, m - a)), a, np.arange(b - a)))
        a = b
    return tiles


def _window_keys(cut: _Cut, sample: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Keys of shift steps start .. stop-1, shape (..., m, stop - start),
    without stepping: step k's key reads only symbols k .. k + horizon - 1."""
    width = max(cut.symbol_horizon(), 1)
    if sample.shape[-1] < stop - 1 + width:
        raise HorizonError(f"orbit step {stop - 1} exceeds symbol window {sample.shape[-1]}")
    steps = sliding_window_view(sample, width, axis=-1)[..., start:stop, :]
    keys = cut.keys(steps.reshape(-1, width))
    return keys.reshape(steps.shape[:-1])


def _add_cut_counts(tiles: list, keys: np.ndarray) -> None:
    """Add to each tile's accumulator the number of steps (last axis of
    ``keys``) at which its pairs of tail points have different keys: integer
    keys offset onto uint64 labels, one-to-one modulo 2**64 at any key range,
    then per uint64 word of 64 steps the OR over the labels' bit planes of
    their XOR, bit-counted."""
    if keys.dtype.kind not in "iu":
        raise MetricTypeError(f"cut keys must be integers, got {keys.dtype}")
    steps = keys.shape[-1]
    words = -(-steps // 64)
    labels = np.zeros(keys.shape[:-1] + (64 * words,), np.uint64)  # the padding never differs
    np.subtract(keys, keys.min(initial=0), out=labels[..., :steps],
                dtype=np.uint64, casting="unsafe")
    planes = [np.packbits(labels >> bit & 1, axis=-1).view(np.uint64)
              for bit in range(int(labels.max(initial=0)).bit_length())]
    for acc, a, rows in tiles:
        for w in range(words):
            diff = np.uint64(0)
            for plane in planes:
                tail = plane[..., a:, w]
                diff = diff | (tail[..., rows, None] ^ tail[..., None, :])
            acc += np.bitwise_count(diff)


def _orbit_means(
    inner: Semimetric, system: SystemSpec, sample: np.ndarray, rows: Optional[np.ndarray],
    schedule: Sequence[int],
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, mean of the first n pull-backs of ``inner``) along an
    ascending schedule, each in a fresh array: the blocks ``inner.orbit_sums``
    yields, divided by its step count.  ``rows`` None averages the matrix on
    and above the diagonal and mirrors it below, one ``_MIRROR_BLOCK`` square
    at a time, with a zero diagonal.  The generator lets go of each array when
    it resumes, before the next steps are added."""
    m = len(sample)
    sums = inner.orbit_sums(system, sample, _tiles(sample, rows), schedule)
    for n, (steps, blocks) in zip(schedule, sums):
        means = np.empty((m if rows is None else len(rows), m))
        for total, a, _ in blocks:
            np.divide(total, steps, out=means[a:a + len(total), a:])
        if rows is None:
            for a, b in _blocks(m):
                for c, d in _blocks(a):
                    means[a:b, c:d] = means[c:d, a:b].T
                lower = np.tri(b - a, k=-1, dtype=bool)  # a named view would outlive del means
                means[a:b, a:b][lower] = means[a:b, a:b].T[lower]
            np.fill_diagonal(means, 0.0)
        yield n, means
        del means


@dataclass(frozen=True)
class Average(Semimetric):
    """Arithmetic mean of the first n pull-backs of ``inner`` along the orbit."""

    inner: Semimetric
    system: SystemSpec
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError("averaging length must be >= 1")

    def values(self, sample: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return next(_orbit_means(self.inner, self.system, sample, rows, [self.n]))[1]

    def label(self) -> str:
        return f"Average[{self.inner.label()};n={self.n};{self.system.label()}]"

    def symbol_horizon(self) -> int:
        extra = self.n - 1 if self.system.is_symbolic else 0
        return extra + self.inner.symbol_horizon()


# ---------------------------------------------------------------------------
# distance matrices


@dataclass(frozen=True)
class DistanceMatrix:
    """The value matrix of a semimetric on a point sample, checked once here.

    The values are a square array that is finite, nonnegative and exactly
    symmetric, with an exactly zero diagonal.  Every estimator and diagnostic
    takes its matrix as this type and reads ``values``; no other matrix type
    crosses a layer.  A float64 array is kept without a copy.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ParameterError("distance matrix must be square")
        if not np.all(np.isfinite(v)):
            raise ParameterError("distance matrix entries must be finite")
        if np.any(v < 0.0):
            raise ParameterError("distance matrix entries must be nonnegative")
        if not all(np.array_equal(v[a:b, c:d], v[c:d, a:b].T)
                   for a, b in _blocks(len(v)) for c, d in _blocks(b)):
            raise ParameterError("distance matrix must be exactly symmetric")
        if np.any(np.diagonal(v) != 0.0):
            raise ParameterError("distance matrix diagonal must be exactly zero")


def distance_matrix(metric: Semimetric, sample: np.ndarray) -> DistanceMatrix:
    """Pairwise matrix of ``metric`` on the sample (symmetric, zero diagonal)."""
    if sample.shape[-2] < 1:
        raise ParameterError("distance matrix needs at least one point")
    return DistanceMatrix(metric.pairwise(sample))


def validate_schedule(n_schedule: Iterable[int]) -> list[int]:
    """The schedule of averaging lengths as a list of ints; refused unless it
    is nonempty, each entry is >= 1 and the entries strictly increase."""
    schedule = [int(n) for n in n_schedule]
    if not schedule or any(n < 1 for n in schedule):
        raise ParameterError("n schedule must be nonempty with entries >= 1")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ParameterError("n schedule must be strictly increasing")
    return schedule


def streamed_average_matrices(
    metric: Semimetric, system: SystemSpec, sample: np.ndarray, n_schedule: Iterable[int]
) -> Iterator[tuple[int, DistanceMatrix]]:
    """Yield (n, distance matrix of the n-step orbit average) at each n of the
    schedule, in one orbit pass; the schedule must pass ``validate_schedule``.

    Accumulation order matches ``Average(metric, system, n)`` exactly,
    so the yielded values are bit-identical to the one-shot computation.
    Each is a distinct array, which the generator lets go of when it resumes:
    a caller that drops it too holds one matrix at a time.
    """
    schedule = validate_schedule(n_schedule)
    for n, means in _orbit_means(metric, system, sample, None, schedule):
        yield n, DistanceMatrix(means)
        del means
