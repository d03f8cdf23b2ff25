"""Entropy estimators for empirical metric measure spaces.

Two routes to the entropy of a sampled space at resolution eps: a greedy
covering count bracketed by a packing lower bound, and the least entropy of a
finite atomic measure within transport distance eps of the empirical measure.
Every candidate measure carries the masses of its nearest-atom cells, so its
transport distance to the sample is the mean nearest-atom distance in closed
form; no transport problem is solved on the way to an estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .admit import greedy_separated_size
from .dynsys import SystemSpec, derive_rng, sample_points
from .errors import InfeasibleError, ParameterError, SizeError
from .semimetric import (
    DistanceMatrix, MatrixLike, Semimetric, as_values, average_metric, distance_matrix,
)

_REL_TOL = 1e-12
MAX_TRANSPORT_SUPPORT = 4096
MEDOID_RESTARTS = 5

# ---------------------------------------------------------------------------
# atomic measures and transport


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported probability measure given by atom indices and weights."""

    atom_indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.atom_indices, dtype=int)
        w = np.asarray(self.weights, dtype=float)
        if idx.ndim != 1 or w.shape != idx.shape or idx.size == 0:
            raise ParameterError("atoms and weights must be matching nonempty vectors")
        if np.any(w <= 0.0):
            raise ParameterError("atomic weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ParameterError("atomic weights must sum to 1 within 1e-12")
        # canonicalize: merge duplicate atoms, sort by index
        uniq, inverse = np.unique(idx, return_inverse=True)
        merged = np.zeros(uniq.size)
        np.add.at(merged, inverse, w)
        object.__setattr__(self, "atom_indices", uniq)
        object.__setattr__(self, "weights", merged)

    @property
    def size(self) -> int:
        return int(self.atom_indices.size)

    @staticmethod
    def uniform(indices) -> "AtomicMeasure":
        idx = np.asarray(indices, dtype=int)
        return AtomicMeasure(idx, np.full(idx.size, 1.0 / idx.size))


def atomic_entropy(measure: AtomicMeasure) -> float:
    """Entropy -sum w log2 w in bits, with 0 log 0 = 0."""
    w = measure.weights
    return float(-(w * np.log2(w)).sum())


def kantorovich_distance(
    mu1: AtomicMeasure, mu2: AtomicMeasure, ground: MatrixLike,
) -> float:
    """Exact optimal transport cost between two atomic measures.

    The general solver: ``ground`` is a distance matrix indexed by the atoms,
    and the cost is solved to optimality as a transportation linear program
    (HiGHS, no regularization).  No estimator calls it; SciPy is imported
    only when it is called.
    """
    if mu1.size + mu2.size > MAX_TRANSPORT_SUPPORT:
        raise SizeError(
            f"combined support {mu1.size + mu2.size} exceeds {MAX_TRANSPORT_SUPPORT}"
        )
    cost = as_values(ground)[np.ix_(mu1.atom_indices, mu2.atom_indices)]
    if np.any(cost < 0.0):
        raise ParameterError("transport needs nonnegative distances")
    return _transport_cost(cost, mu1.weights, mu2.weights)


def _transport_cost(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> float:
    n1, n2 = cost.shape
    if n1 == 1:
        return float((cost[0] * demand).sum())
    if n2 == 1:
        return float((cost[:, 0] * supply).sum())
    from scipy import sparse
    from scipy.optimize import linprog

    # transportation LP: rows emit supply, columns absorb demand
    row_idx = np.repeat(np.arange(n1), n2)
    col_idx = n1 + np.tile(np.arange(n2), n1)
    var = np.arange(n1 * n2)
    a_eq = sparse.coo_matrix(
        (
            np.ones(2 * n1 * n2),
            (np.concatenate([row_idx, col_idx]), np.concatenate([var, var])),
        ),
        shape=(n1 + n2, n1 * n2),
    ).tocsr()
    b_eq = np.concatenate([supply, demand])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, method="highs")
    if not res.success:
        raise InfeasibleError(f"transport LP failed: {res.message}")
    return max(0.0, float(res.fun))


# ---------------------------------------------------------------------------
# estimates


@dataclass(frozen=True)
class EpsEntropyEstimate:
    """One entropy estimate at resolution eps, with provenance."""

    eps: float
    method: str
    value_bits: float
    lower_bound_bits: float
    k: int
    sample_size: int
    seed: int

    def __post_init__(self) -> None:
        if self.lower_bound_bits > self.value_bits + 1e-12:
            raise ParameterError("lower bound must not exceed the estimate")


def _discard_budget(eps: float, m: int) -> int:
    # empirical mirror of the mass-<eps exceptional set
    return int(math.floor(eps * m))


def eps_entropy_cover(matrix: MatrixLike, eps: float, seed: int = 0) -> EpsEntropyEstimate:
    """Greedy covering estimate of the eps-entropy of the sampled space.

    Greedy max-coverage with closed balls of radius eps/2 until all but
    floor(eps*m) points are covered; the count is an upper bound on the
    minimal number of diameter-<eps sets.  The lower bound comes from a
    greedy eps-separated subset: each admissible set holds at most one
    separated point and the exceptional set can absorb at most the discard
    budget of them.
    """
    values = as_values(matrix)
    m = values.shape[0]
    if m < 2:
        raise SizeError("covering entropy needs at least two points")
    if not (eps > 0):
        raise ParameterError("eps must be positive")
    discard = _discard_budget(eps, m)
    target = max(1, m - discard)

    if float(values.max()) <= eps * (1.0 + _REL_TOL):
        # the whole sample is one admissible block
        k = 1
    else:
        balls = values <= (eps / 2.0) * (1.0 + _REL_TOL)
        # gains[i]: uncovered points in ball i, exact counts kept up to date
        gains = balls.sum(axis=1)
        covered = np.zeros(m, dtype=bool)
        n_covered = 0
        k = 0
        while n_covered < target:
            best = int(np.argmax(gains))
            gain = int(gains[best])
            if gain <= 1:
                # every remaining ball adds exactly one point (its center)
                k += target - n_covered
                break
            new = balls[best] & ~covered
            covered |= new
            gains -= balls[:, new].sum(axis=1)
            n_covered += gain
            k += 1

    packing = greedy_separated_size(values > eps * (1.0 + _REL_TOL))
    lower_k = max(1, packing - discard)

    return EpsEntropyEstimate(
        eps=float(eps), method="Covering",
        value_bits=math.log2(k), lower_bound_bits=math.log2(lower_k),
        k=k, sample_size=m, seed=int(seed),
    )


def _kmedoids(
    values: np.ndarray, k: int, rng: np.random.Generator, medoid_of: dict[bytes, int],
) -> np.ndarray:
    """Alternating k-medoids (Park & Jun, Expert Syst. Appl. 2009) from k
    random points; returns sorted medoid indices.

    Each round assigns every point to its nearest medoid, then moves each
    medoid to the member with the least total distance within its cluster.
    It stops when a round leaves the medoids unchanged or after 100 rounds,
    so it may stop short of a fixed point.  A medoid depends only on the
    matrix and the exact member set: ``medoid_of`` maps each member set (its
    packed mask) to its medoid, -1 for an empty cluster, for every run on
    the matrix.
    """
    m = values.shape[0]
    medoids = np.sort(rng.choice(m, size=k, replace=False))
    for _ in range(100):
        assign = np.argmin(values[:, medoids], axis=1)
        new_medoids = medoids.copy()
        for label in range(k):
            in_cluster = assign == label
            key = np.packbits(in_cluster).tobytes()
            medoid = medoid_of.get(key)
            if medoid is None:
                members = np.where(in_cluster)[0]
                medoid = -1
                if members.size:
                    within = values.take(members, 0).take(members, 1).sum(axis=1)
                    medoid = int(members[int(np.argmin(within))])
                medoid_of[key] = medoid
            if medoid >= 0:
                new_medoids[label] = medoid
        new_medoids = np.sort(new_medoids)
        if np.array_equal(new_medoids, medoids):
            break
        medoids = new_medoids
    return medoids


def _medoid_measure(
    values: np.ndarray, k: int, seed: int, medoid_of: dict[bytes, int],
) -> tuple[AtomicMeasure, float]:
    """Best-of-restarts k-medoid quantization of the empirical measure, and
    its transport distance to the empirical measure (the mean distance to the
    nearest medoid)."""
    m = values.shape[0]
    if k >= m:
        # the identity coupling on a zero-diagonal ground
        return AtomicMeasure.uniform(np.arange(m)), 0.0
    best = None
    best_cost = math.inf
    for restart in range(MEDOID_RESTARTS):
        medoids = _kmedoids(values, k, derive_rng(seed, 211, restart), medoid_of)
        cost = float(values[:, medoids].min(axis=1).mean())
        if cost < best_cost:
            best_cost = cost
            best = medoids
    assign = np.argmin(values[:, best], axis=1)
    weights = np.bincount(assign, minlength=best.size) / m
    # every point's nearest medoid has positive weight, so dropping the
    # others leaves the cost unchanged
    keep = weights > 0
    return AtomicMeasure(best[keep], weights[keep]), best_cost


def eps_entropy_kantorovich(
    matrix: MatrixLike, eps_values: Sequence[float], seed: int = 0
) -> list[EpsEntropyEstimate]:
    """Least atomic-measure entropy within transport distance eps of the
    sample, one estimate per eps of ``eps_values``.

    Candidate measures are k-medoid quantizations with cluster-mass weights;
    for each eps, k runs through a doubling-then-bisection schedule and the
    smallest entropy among the feasible candidates is returned (an upper
    bound on the true infimum).  No covering-free lower bound is available,
    so it is 0.

    A candidate depends only on (matrix, k, seed), never on eps, so each k is
    quantized once for the whole grid, and sharing cannot change an estimate:
    each is the one its eps gets alone.

    A candidate nu = sum_j w_j delta_{c_j}, with w_j the mass of the points
    whose nearest medoid is c_j, lies at transport distance exactly
    (1/m) sum_i min_j d(i, c_j) from the uniform sample mu:

    - any coupling pi of (mu, nu) has
      sum_ij pi_ij d(i, c_j) >= sum_i mu_i min_j d(i, c_j);
    - sending each point to its nearest medoid is a coupling with exactly
      the marginals (mu, nu), and it attains that bound.

    A plain-array ``matrix`` is checked as a ``DistanceMatrix`` is.
    """
    if not isinstance(matrix, DistanceMatrix):
        matrix = DistanceMatrix(as_values(matrix))
    values = matrix.values
    m = values.shape[0]
    if m < 2:
        raise SizeError("quantization entropy needs at least two points")
    if not all(eps > 0 for eps in eps_values):
        raise ParameterError("eps must be positive")

    medoid_of: dict[bytes, int] = {}
    candidates: dict[int, tuple[float, int, float]] = {}  # k -> (entropy, size, cost)

    def try_k(k: int) -> bool:
        tried.append(k)
        if k not in candidates:
            nu, cost = _medoid_measure(values, k, seed, medoid_of)
            candidates[k] = (atomic_entropy(nu), nu.size, cost)
        return candidates[k][2] < slack

    estimates = []
    for eps in eps_values:
        slack = eps * (1.0 + _REL_TOL)
        tried: list[int] = []
        # doubling until feasible, then bisect down to the frontier; full
        # support costs 0, so it is always feasible
        k = 1
        while k < m and not try_k(k):
            k *= 2
        if k >= m:
            try_k(m)
            k = m
        lo, hi = k // 2, k
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if try_k(mid):
                hi = mid
            else:
                lo = mid
        best_h, best_size, _ = min(candidates[k] for k in tried if candidates[k][2] < slack)
        estimates.append(EpsEntropyEstimate(
            eps=float(eps), method="Kantorovich", value_bits=best_h, lower_bound_bits=0.0,
            k=best_size, sample_size=m, seed=int(seed),
        ))
    return estimates


# method name -> estimator over an eps grid; each entry looks its function up
# when called, so a replacement bound to the module name (such as a tracing
# wrapper) runs
ESTIMATORS = {
    "Covering": lambda matrix, grid, seed: [eps_entropy_cover(matrix, e, seed) for e in grid],
    "Kantorovich": lambda matrix, grid, seed: eps_entropy_kantorovich(matrix, grid, seed),
}


def entropy_estimate(
    system: SystemSpec,
    metric: Semimetric,
    n: int,
    eps: float,
    m: int,
    seed: int,
    method: str = "Covering",
) -> EpsEntropyEstimate:
    """Full pipeline: sample, average the metric n steps, estimate entropy."""
    sample = sample_points(system, m, seed)
    averaged = average_metric(metric, system, n)
    dist = distance_matrix(averaged, sample)
    return estimate_from_matrix(dist, [eps], method, seed)[0]


def estimate_from_matrix(
    matrix: MatrixLike, eps_values: Sequence[float], method: str, seed: int = 0
) -> list[EpsEntropyEstimate]:
    """One estimate per eps of ``eps_values``, in order."""
    if method not in ESTIMATORS:
        raise ParameterError(f"unknown estimator method {method!r}; known: {tuple(ESTIMATORS)}")
    return ESTIMATORS[method](matrix, eps_values, seed)
