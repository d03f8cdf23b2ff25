"""Entropy estimators for empirical metric measure spaces.

Two routes to the entropy of a sampled space at resolution eps: a greedy
covering count bracketed by a packing lower bound, and the least entropy of a
finite atomic measure within transport distance eps of the empirical measure.
Every candidate measure carries the masses of its nearest-atom cells, so its
transport distance to the sample is the mean nearest-atom distance in closed
form; no transport problem is solved on the way to an estimate.

The candidates come from alternating k-medoids whose restarts run in
lockstep.  A cluster of c members has as medoid its first member i with the
least exact sum R_i of d(i, p) over the members p, as ``values.take(members,
0).take(members, 1).sum(axis=1)`` computes it.  One BLAS product of the
clusters' 0/1 masks with the matrix gives every cluster's sums at once, S_i,
added in an order that BLAS chooses; by exact symmetry S_i adds the same c
terms as R_i, and m - c exact zeros.  The terms are nonnegative and the mask
entries exact, so any order of summing n terms (blocked, threaded, with
FMA, or NumPy's pairwise sum) lands within gamma_n * T_i of the true sum
T_i, gamma_n = n u / (1 - n u) (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., sec. 4.2).  If R_i <= R_j, then

    S_i <= T_i (1 + gamma_m) <= R_j (1 + gamma_m) / (1 - gamma_c)
        <= S_j (1 + gamma_m)(1 + gamma_c) / ((1 - gamma_m)(1 - gamma_c)),

which is below S_j + 2 (m + c) eps S_j (eps = 2u) for (m + c) eps << 1.  So
every member whose exact sum is least, the reference's medoid and each
member tied with it, has S_i <= min S + 2 (m + c) (eps min S +
smallest_subnormal).  Only the members under that limit are summed exactly
(the same rows of the same expression), and the first least of them, in
member order, is the reference's medoid, ties included.  A sum that
overflows keeps this: its exact value, and so the limit's, is past the
overflow threshold, and inf <= inf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .admit import greedy_separated_size
from .dynsys import SystemSpec, derive_rng, sample_points
from .errors import InfeasibleError, ParameterError, SizeError
from .semimetric import Average, DistanceMatrix, Semimetric, distance_matrix

_REL_TOL = 1e-12
MAX_TRANSPORT_SUPPORT = 4096
MEDOID_RESTARTS = 5
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)

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
    return float(0.0 - (w * np.log2(w)).sum())  # +0.0, not -0.0, for one atom


def kantorovich_distance(
    mu1: AtomicMeasure, mu2: AtomicMeasure, ground: DistanceMatrix,
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
    cost = ground.values[np.ix_(mu1.atom_indices, mu2.atom_indices)]
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
    # empirical mirror of the mass-<eps exceptional set; at most all m points,
    # so an eps whose eps * m overflows converts no inf
    return int(math.floor(min(eps, 1.0) * m))


def ceiling_bits(eps: float, m: int) -> float:
    """The most bits a cover at eps reads on m points, the sample ceiling."""
    return math.log2(max(1, m - _discard_budget(eps, m)))


def eps_entropy_cover(matrix: DistanceMatrix, eps: float, seed: int = 0) -> EpsEntropyEstimate:
    """Greedy covering estimate of the eps-entropy of the sampled space.

    Greedy max-coverage with closed balls of radius eps/2 until all but
    floor(eps*m) points are covered; under the triangle inequality the count
    bounds the minimal number of diameter-<eps sets from above.  The lower
    bound comes from a greedy eps-separated subset: each admissible set holds
    at most one separated point and the exceptional set can absorb at most
    the discard budget of them; a lower bound above the count is refused.
    """
    values = matrix.values
    m = values.shape[0]
    if m < 2:
        raise SizeError("covering entropy needs at least two points")
    if not (0 < eps < math.inf):
        raise ParameterError("eps must be positive and finite")
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
            # balls is exactly symmetric, so the rows of the new points,
            # contiguous, stand for their columns
            gains -= balls[new].sum(axis=0)
            n_covered += gain
            k += 1

    packing = greedy_separated_size(values > eps * (1.0 + _REL_TOL))
    lower_k = max(1, packing - discard)
    if lower_k > k:
        raise ParameterError(f"at eps {eps:g} the packing bound {lower_k} exceeds the ball cover "
                             f"{k}, so the semimetric breaks the triangle inequality")

    return EpsEntropyEstimate(
        eps=float(eps), method="Covering",
        value_bits=math.log2(k), lower_bound_bits=math.log2(lower_k),
        k=k, sample_size=m, seed=int(seed),
    )


def _screened_medoids(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Medoid of each member set (a row of the boolean ``masks``), -1 for an
    empty set, by the screen and exact check of the module docstring.

    The sets go through the product m // 4 at a time, so the product and its
    operand hold at most half an m-by-m matrix.
    """
    m = values.shape[0]
    medoids = np.full(len(masks), -1)
    sizes = masks.sum(axis=1)
    filled = np.flatnonzero(sizes)
    step = max(1, m // 4)
    for lo in range(0, filled.size, step):
        rows = filled[lo:lo + step]
        members = masks[rows]
        with np.errstate(all="ignore"):
            # silent: an overflowing sum warns only where it is summed
            # exactly, as the full block sums warn
            screened = members.astype(float) @ values
            np.copyto(screened, np.inf, where=~members)
            least = screened.min(axis=1)
            limit = least + 2 * (m + sizes[rows]) * (_EPS * least + _TINY)
        near = members & (screened <= limit[:, None])
        medoids[rows] = near.argmax(axis=1)
        for j in np.flatnonzero(near.sum(axis=1) > 1):
            candidates = np.flatnonzero(near[j])
            within = values.take(candidates, 0).take(np.flatnonzero(members[j]), 1).sum(axis=1)
            medoids[rows[j]] = candidates[np.argmin(within)]
    return medoids


def _cluster_medoids(
    values: np.ndarray, masks: np.ndarray, medoid_of: dict[bytes, int],
) -> np.ndarray:
    """Medoid of each row of ``masks`` through the medoid table: each set is
    keyed by its packed mask, and the sets missing from the table are
    screened together, once each."""
    keys = [row.tobytes() for row in np.packbits(masks, axis=1)]
    # rows with one key hold one set, so any of them can stand for it
    missing = {key: row for row, key in enumerate(keys) if key not in medoid_of}
    if missing:
        rows = np.fromiter(missing.values(), int, len(missing))
        medoid_of.update(zip(missing, _screened_medoids(values, masks[rows]).tolist()))
    return np.array([medoid_of[key] for key in keys])


def _medoid_measure(
    values: np.ndarray, k: int, seed: int, medoid_of: dict[bytes, int],
) -> tuple[AtomicMeasure, float]:
    """Best-of-restarts k-medoid quantization of the empirical measure, and
    its transport distance to the empirical measure (the mean distance to the
    nearest medoid).

    Each restart is alternating k-medoids (Park & Jun, Expert Syst. Appl.
    2009) from k random points: a round assigns every point to its nearest
    medoid (the first on ties), then moves each medoid to the member with
    the least total distance within its cluster (the first on ties; an empty
    cluster keeps its medoid).  A restart stops when a round leaves its
    sorted medoids unchanged or after 100 rounds, so it may stop short of a
    fixed point.

    The ``MEDOID_RESTARTS`` restarts run in lockstep and share the round
    cap: each round assigns the points of every restart still moving with
    one gather of columns (identical to ``argmin(values[:, medoids],
    axis=1)``), and finds all their medoids through ``medoid_of``, which
    maps each member set (its packed mask) to its medoid, -1 for an empty
    cluster, for every run on the matrix.  The sets it lacks are screened
    together (module docstring), so every medoid is the one the cluster's
    full block sum picks.  The restart with the least cost wins, the first
    on ties, and the first when every cost is inf (then no k < m is
    feasible and the estimate falls through to full support).
    """
    m = values.shape[0]
    if k >= m:
        # the identity coupling on a zero-diagonal ground
        return AtomicMeasure.uniform(np.arange(m)), 0.0
    medoids = np.stack([
        np.sort(derive_rng(seed, 211, restart).choice(m, size=k, replace=False))
        for restart in range(MEDOID_RESTARTS)
    ])
    moving = np.arange(MEDOID_RESTARTS)
    label_of = np.arange(k)[:, None]
    for _ in range(100):
        current = medoids[moving]
        # labels[i, a]: nearest medoid of point i in restart a, gathered at
        # most m * m distances at a time
        step = max(1, m * m // current.size)
        labels = np.concatenate([
            values[lo:lo + step].take(current.ravel(), 1).reshape(-1, *current.shape).argmin(axis=2)
            for lo in range(0, m, step)
        ])
        in_cluster = (labels.T[:, None, :] == label_of).reshape(-1, m)
        found = _cluster_medoids(values, in_cluster, medoid_of).reshape(current.shape)
        moved = np.sort(np.where(found >= 0, found, current), axis=1)
        medoids[moving] = moved
        moving = moving[(moved != current).any(axis=1)]
        if not moving.size:
            break
    costs = [float(values.take(row, 1).min(axis=1).mean()) for row in medoids]
    best = int(np.argmin(costs))
    weights = np.bincount(values.take(medoids[best], 1).argmin(axis=1), minlength=k) / m
    # every point's nearest medoid has positive weight, so dropping the
    # others leaves the cost unchanged
    keep = weights > 0
    return AtomicMeasure(medoids[best][keep], weights[keep]), costs[best]


def eps_entropy_kantorovich(
    matrix: DistanceMatrix, eps_values: Sequence[float], seed: int = 0
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
    """
    values = matrix.values
    m = values.shape[0]
    if m < 2:
        raise SizeError("quantization entropy needs at least two points")
    if not all(0 < eps < math.inf for eps in eps_values):
        raise ParameterError("eps must be positive and finite")

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
    dist = distance_matrix(Average(metric, system, n), sample)
    return estimate_from_matrix(dist, [eps], method, seed)[0]


def estimate_from_matrix(
    matrix: DistanceMatrix, eps_values: Sequence[float], method: str, seed: int = 0
) -> list[EpsEntropyEstimate]:
    """One estimate per eps of ``eps_values``, in order."""
    if method not in ESTIMATORS:
        raise ParameterError(f"unknown estimator method {method!r}; known: {tuple(ESTIMATORS)}")
    return ESTIMATORS[method](matrix, eps_values, seed)
