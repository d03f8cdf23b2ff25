"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's solver paths: transport costs come
from enumerating transportation-polytope vertices (spanning trees of the
complete bipartite support graph), covering counts and separated sets from
exhaustive search.  The limit-check reference recomputes the large-n average
from scratch for every seed.  The orbit-sum reference adds one value matrix
per orbit step over whole rows, and ``mirror_upper`` builds a symmetric
matrix by adding the transpose of its strict upper triangle.  The
``Discrete`` reference compares every pair of points symbol by symbol.  The
trace reference builds each box of an explicit grid as a mask and loops over
its pairs, and the axiom checker scans triples of a value matrix for triangle
defects.  The Kantorovich reference prices every k-medoid candidate with the
transport LP instead of the closed form, and its candidates come from a
k-medoid search that recomputes every cluster medoid (no medoid table).  The
covering reference recounts the uncovered points of every ball in every
greedy round.  The profile reference is the one-eps profile built from the
library's cells.  The sampler reference draws a whole sample in one call:
``rng.random`` for coordinates, ``rng.choice`` over every symbol of a shift.
"""
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from orbent import (
    AtomicMeasure, ParameterError, admissibility_report, atomic_entropy, average_metric,
    kantorovich_distance,
)
from orbent.admit import combine_verdict, greedy_separated_size
from orbent.dynsys import PointSample, advance_sample, derive_rng
from orbent.entropy import MEDOID_RESTARTS
from orbent.scaling import LimitMetricReport, assemble_profile, profile_cells


def transport_cost_by_vertex_enumeration(cost, supply, demand):
    """Minimum transport cost via basic feasible solutions.

    Every vertex of the transportation polytope is supported on a spanning
    tree of the complete bipartite graph; enumerate all of them, solve the
    (unique) tree flow by leaf elimination, and keep the cheapest
    nonnegative one.
    """
    n1, n2 = cost.shape
    if n1 == 1:
        return float((cost[0] * demand).sum())
    if n2 == 1:
        return float((cost[:, 0] * supply).sum())
    edges = [(i, j) for i in range(n1) for j in range(n2)]
    n_nodes = n1 + n2
    best = np.inf
    for tree in combinations(range(len(edges)), n_nodes - 1):
        # check connectivity via union-find
        parent = list(range(n_nodes))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for e in tree:
            i, j = edges[e]
            ra, rb = find(i), find(n1 + j)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if not ok or len({find(v) for v in range(n_nodes)}) != 1:
            continue

        # solve the tree flow by leaf elimination
        balance = np.concatenate([supply, -np.asarray(demand)]).astype(float)
        adjacency = {v: [] for v in range(n_nodes)}
        for e in tree:
            i, j = edges[e]
            adjacency[i].append((n1 + j, e))
            adjacency[n1 + j].append((i, e))
        flow = {}
        degree = {v: len(adjacency[v]) for v in range(n_nodes)}
        removed_edges = set()
        leaves = [v for v in range(n_nodes) if degree[v] == 1]
        balance = balance.copy()
        while leaves:
            v = leaves.pop()
            live = [(u, e) for u, e in adjacency[v] if e not in removed_edges]
            if not live:
                continue
            u, e = live[0]
            # flow from the supply side to the demand side on edge e
            amount = balance[v] if v < n1 else -balance[v]
            flow[e] = amount
            balance[v] = 0.0
            balance[u] += amount if u >= n1 else -amount
            # sign bookkeeping: moving v's imbalance across the edge
            removed_edges.add(e)
            degree[u] -= 1
            degree[v] -= 1
            if degree[u] == 1:
                leaves.append(u)
        if any(f < -1e-12 for f in flow.values()):
            continue
        total = sum(cost[edges[e]] * f for e, f in flow.items())
        best = min(best, total)
    return float(best)


def exact_ball_cover_count(values, eps, rel_tol=1e-12):
    """Smallest number of closed eps/2 balls centered at sample points that
    cover all but floor(eps*m) points; None if even all m balls cannot."""
    m = values.shape[0]
    target = max(1, m - int(np.floor(eps * m)))
    if float(values.max()) <= eps * (1.0 + rel_tol):
        return 1
    balls = values <= (eps / 2.0) * (1.0 + rel_tol)
    masks = []
    for i in range(m):
        mask = 0
        for j in range(m):
            if balls[i, j]:
                mask |= 1 << j
        masks.append(mask)
    for k in range(1, m + 1):
        for centers in combinations(range(m), k):
            union = 0
            for c in centers:
                union |= masks[c]
            if bin(union).count("1") >= target:
                return k
    return None


def min_entropy_quantization(values, eps, max_atoms, rel_tol=1e-12):
    """Exhaustive minimum entropy over nearest-assignment quantizations with
    up to ``max_atoms`` support points, subject to transport distance < eps.

    Transport feasibility is certified with the nearest-assignment coupling
    cost, which upper-bounds the true transport distance, and entropy uses
    the cluster masses.  Returns (best entropy in bits, best support size).
    """
    m = values.shape[0]
    best = None
    for k in range(1, max_atoms + 1):
        for support in combinations(range(m), k):
            sup = np.array(support)
            nearest = np.argmin(values[:, sup], axis=1)
            cost = float(values[np.arange(m), sup[nearest]].mean())
            if cost >= eps * (1.0 + rel_tol):
                continue
            weights = np.bincount(nearest, minlength=k) / m
            weights = weights[weights > 0]
            entropy = float(-(weights * np.log2(weights)).sum())
            if best is None or entropy < best[0]:
                best = (entropy, int(len(weights)))
    return best


def reference_kmedoids(values, k, rng):
    """Alternating k-medoids that gathers and sums every cluster's block anew
    in every round; returns sorted medoid indices."""
    m = values.shape[0]
    medoids = np.sort(rng.choice(m, size=k, replace=False))
    for _ in range(100):
        assign = np.argmin(values[:, medoids], axis=1)
        new_medoids = medoids.copy()
        for label in range(k):
            members = np.where(assign == label)[0]
            if members.size == 0:
                continue
            within = values[np.ix_(members, members)].sum(axis=1)
            new_medoids[label] = members[int(np.argmin(within))]
        new_medoids = np.sort(new_medoids)
        if np.array_equal(new_medoids, medoids):
            break
        medoids = new_medoids
    return medoids


def reference_medoid_measure(values, k, seed):
    """(measure, nearest-medoid cost) of the best of the restarts of
    ``reference_kmedoids``, with the library's restart streams."""
    m = values.shape[0]
    if k >= m:
        return AtomicMeasure.uniform(np.arange(m)), 0.0
    best = None
    best_cost = np.inf
    for restart in range(MEDOID_RESTARTS):
        medoids = reference_kmedoids(values, k, derive_rng(seed, 211, restart))
        cost = float(values[:, medoids].min(axis=1).mean())
        if cost < best_cost:
            best_cost = cost
            best = medoids
    assign = np.argmin(values[:, best], axis=1)
    weights = np.bincount(assign, minlength=best.size) / m
    keep = weights > 0
    return AtomicMeasure(best[keep], weights[keep]), best_cost


def kantorovich_entropy_by_lp(values, eps, seed=0):
    """(value_bits, k) of the Kantorovich estimate, each k-medoid candidate
    priced by the transport LP against the uniform sample measure.

    Candidates from ``reference_medoid_measure``, and the same
    doubling-then-bisection k schedule as ``eps_entropy_kantorovich``.
    """
    m = values.shape[0]
    empirical = AtomicMeasure.uniform(np.arange(m))
    slack = eps * (1.0 + 1e-12)
    feasible = {}

    def try_k(k):
        nu, _ = reference_medoid_measure(values, k, seed)
        ok = kantorovich_distance(empirical, nu, values) < slack
        if ok:
            feasible[k] = (atomic_entropy(nu), nu.size)
        return ok

    k = 1
    while k < m and not try_k(k):
        k *= 2
    if k >= m:
        if not try_k(m):
            raise ValueError("quantization infeasible even at full support")
        k = m
    lo, hi = k // 2, k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if try_k(mid):
            hi = mid
        else:
            lo = mid
    return min(feasible.values())


def scaling_profile(system, metric, eps, n_schedule, m, seeds, method="Covering"):
    """Entropy-vs-n profile at one eps, rows are medians over >= 3 seeds."""
    if len(seeds) < 3:
        raise ParameterError("a profile needs at least 3 seeds")
    cells, _ = profile_cells(system, metric, n_schedule, m, seeds, [eps], method)
    return assemble_profile(system, metric, method, eps, n_schedule, seeds, cells)


def standalone_limit_report(system, metric, n_big, m, seed, eps=0.1):
    """One seed's limit-check diagnostics with the n_big average recomputed."""
    return admissibility_report(
        system, average_metric(metric, system, n_big), m=m, seed=seed, eps=eps,
        pc_n=32, pc_trials=20,
    )


def reference_limit_check(system, metric, n_big, m, seeds, eps=0.1, profile_class=None):
    """The limit check as a recompute per seed, combined in seed order."""
    reports = [standalone_limit_report(system, metric, n_big, m, s, eps) for s in seeds]
    ball = float(np.median([r.ball_mass_fraction for r in reports]))
    pc = float(np.median([r.pc_probability for r in reports]))
    verdict = combine_verdict(ball, pc, reports[0].trace_ok)
    consistent = None
    if profile_class is not None:
        consistent = (profile_class.kind == "Bounded") == (verdict == "AdmissibleEvidence")
    return LimitMetricReport(
        n_big=n_big, ball_mass_fraction=ball, pc_probability=pc,
        trace_curve=[{"n": p.n, "trace_over_n": p.trace_over_n, "stderr": p.stderr}
                     for p in reports[0].trace_curve],
        trace_ok=reports[0].trace_ok,
        verdict=verdict, profile_class=profile_class, consistent=consistent,
        per_seed=[{"seed": s, "ball_mass_fraction": r.ball_mass_fraction,
                   "pc_probability": r.pc_probability} for s, r in zip(seeds, reports)],
    )


def stepwise_orbit_sums(inner, system, sample, rows, schedule):
    """(n, copy of the sum of the first n pull-backs), one value matrix per step."""
    state = sample
    acc = inner.values(state, rows)
    steps = 1
    for n in schedule:
        while steps < n:
            state = advance_sample(state, 1, system)
            acc += inner.values(state, rows)
            steps += 1
        yield n, acc.copy()


def mirror_upper(values):
    """The symmetric matrix with the strict upper triangle of ``values`` and a
    zero diagonal."""
    upper = np.triu(values, 1)
    return upper + upper.T


def reference_cover(values, eps, rel_tol=1e-12):
    """(k, lower_bound_bits) of the greedy covering estimate, with the gain of
    every ball recounted over the uncovered points in every round."""
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    discard = int(math.floor(eps * m))
    target = max(1, m - discard)
    if float(values.max()) <= eps * (1.0 + rel_tol):
        k = 1
    else:
        balls = values <= (eps / 2.0) * (1.0 + rel_tol)
        covered = np.zeros(m, dtype=bool)
        n_covered = 0
        k = 0
        while n_covered < target:
            gains = balls[:, ~covered].sum(axis=1)
            best = int(np.argmax(gains))
            gain = int(gains[best])
            if gain <= 1:
                k += target - n_covered
                break
            covered |= balls[best]
            n_covered = int(covered.sum())
            k += 1
    packing = greedy_separated_size(values > eps * (1.0 + rel_tol))
    return k, math.log2(max(1, packing - discard))


def reference_sample(system, m, seed):
    """The m points of ``sample_points(system, m, seed)``, drawn in one call."""
    rng = derive_rng(seed)
    if system.is_symbolic:
        w = np.asarray(system.weights, dtype=float)
        symbols = rng.choice(len(w), size=(m, system.horizon), p=w).astype(np.int8)
        return PointSample(symbols=symbols)
    return PointSample(coords=rng.random((m, system.dim)))


def discrete_by_broadcast(sample, rows):
    """``Discrete`` values as an m x m x width comparison of whole points."""
    points = sample.coords if sample.coords is not None else sample.symbols
    return np.any(points[rows, None, :] != points[None, :, :], axis=2).astype(float)


def exact_separated_size(values, c):
    """Largest subset with pairwise distances >= c, by pivoted Bron-Kerbosch
    search over the graph of separated pairs."""
    n = values.shape[0]
    if n > 24:
        raise ValueError("exact separated-set search is capped at n=24")
    adjacency = values >= c
    np.fill_diagonal(adjacency, False)
    neighbor_mask = [sum(1 << j for j in range(n) if adjacency[i, j]) for i in range(n)]
    best = 0

    def expand(size, candidates, excluded):
        nonlocal best
        if candidates == 0 and excluded == 0:
            best = max(best, size)
            return
        if size + bin(candidates).count("1") <= best:
            return
        pool = candidates | excluded
        pivot = (pool & -pool).bit_length() - 1
        rest = candidates & ~neighbor_mask[pivot]
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            expand(size + 1, candidates & neighbor_mask[v], excluded & neighbor_mask[v])
            candidates &= ~bit
            excluded |= bit
            rest &= ~bit

    expand(0, (1 << n) - 1, 0)
    return best


def reference_trace_curve(values, coords, grids):
    """Trace points (mass-weighted mean of within-box pair means) of a value
    matrix, one per ``(nx, ny)`` grid of equal boxes of the unit square.

    Each box is a mask over the points, its pair mean a loop over its pairs;
    boxes with fewer than two points are skipped and the masses renormalized.
    """
    m = values.shape[0]
    curve = []
    for nx, ny in grids:
        ix = np.minimum(np.floor(coords[:, 0] * nx), nx - 1)
        iy = np.minimum(np.floor(coords[:, 1] * ny), ny - 1)
        means, masses = [], []
        for bx in range(nx):
            for by in range(ny):
                members = np.flatnonzero((ix == bx) & (iy == by))
                if members.size < 2:
                    continue
                pairs = [values[i, j] for a, i in enumerate(members) for j in members[a + 1:]]
                means.append(sum(pairs) / len(pairs))
                masses.append(members.size / m)
        weights = np.array(masses) / sum(masses)
        curve.append(float(np.dot(weights, means)))
    return curve


@dataclass(frozen=True)
class AxiomReport:
    """Observed semimetric-axiom violations on a finite sample."""

    symmetry_violation: float
    triangle_defect: float
    triples_checked: int
    tol: float

    @property
    def ok(self):
        return self.symmetry_violation <= self.tol and self.triangle_defect <= self.tol


def check_axioms(metric, sample, tol=1e-9, seed=0, max_triples=100_000):
    """Measure symmetry and triangle defects; violations are reported, not raised.

    All m^3 triples are scanned when affordable, otherwise a seeded random
    subset of ``max_triples``.
    """
    m = sample.m
    if m < 3:
        raise ParameterError("axiom check needs at least three points")
    matrix = metric.pairwise(sample)
    sym = float(np.max(np.abs(matrix - matrix.T)))
    defect = 0.0
    if m ** 3 <= max_triples:
        for j in range(m):
            cand = matrix - matrix[:, j:j + 1] - matrix[j:j + 1, :]
            defect = max(defect, float(cand.max()))
        triples = m ** 3
    else:
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, m]))
        i, j, k = (rng.integers(0, m, size=max_triples) for _ in range(3))
        cand = matrix[i, k] - matrix[i, j] - matrix[j, k]
        defect = float(cand.max())
        triples = max_triples
    return AxiomReport(sym, max(0.0, defect), triples, tol)
