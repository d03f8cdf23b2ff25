import functools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from orbent import (
    AnzaiSkew,
    AtomicMeasure,
    BernoulliShift,
    CircleRotation,
    InfeasibleError,
    ParameterError,
    SizeError,
    atomic_entropy,
    distance_matrix,
    entropy_estimate,
    eps_entropy_cover,
    eps_entropy_kantorovich,
    kantorovich_distance,
    sample_points,
)
from orbent import entropy
from orbent.entropy import _medoid_measure, estimate_from_matrix
from orbent.semimetric import Average, DistanceMatrix, Euclidean1D, FirstSymbolCut, TorusArcL1

from conftest import matrix_from_points
from oracles import (
    kantorovich_entropy_by_lp,
    min_entropy_quantization,
    reference_cover,
    reference_medoid_measure,
    transport_cost_by_vertex_enumeration,
)


def _metric_matrix(points_1d):
    return matrix_from_points(points_1d)


def two_cluster_points(rng, per_side=12, spread=0.01, gap=1.0):
    return np.concatenate([
        rng.random(per_side) * spread,
        gap + rng.random(per_side) * spread,
    ])


class TestAtomicMeasure:
    def test_entropy_values(self):
        single = AtomicMeasure(np.array([3]), np.array([1.0]))
        assert atomic_entropy(single) == 0.0
        assert math.copysign(1.0, atomic_entropy(single)) == 1.0  # +0.0, never -0.0
        uniform4 = AtomicMeasure.uniform(np.arange(4))
        assert atomic_entropy(uniform4) == pytest.approx(2.0, abs=1e-12)
        skewed = AtomicMeasure(np.arange(3), np.array([0.5, 0.25, 0.25]))
        assert atomic_entropy(skewed) == pytest.approx(1.5, abs=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ParameterError):
            AtomicMeasure(np.array([0, 1]), np.array([0.6, 0.5]))
        with pytest.raises(ParameterError):
            AtomicMeasure(np.array([0, 1]), np.array([1.0, -0.0]))

    def test_duplicate_atoms_merge(self):
        measure = AtomicMeasure(np.array([2, 2, 5]), np.array([0.25, 0.25, 0.5]))
        assert measure.size == 2
        assert np.allclose(measure.weights, [0.5, 0.5])


class TestKantorovich:
    def test_identity_coupling(self):
        d = _metric_matrix([0.0, 0.3, 0.9])
        mu = AtomicMeasure(np.arange(3), np.array([0.2, 0.3, 0.5]))
        assert kantorovich_distance(mu, mu, d) <= 1e-12

    def test_two_deltas(self):
        d = _metric_matrix([0.0, 1.0])
        a = AtomicMeasure(np.array([0]), np.array([1.0]))
        b = AtomicMeasure(np.array([1]), np.array([1.0]))
        assert kantorovich_distance(a, b, d) == pytest.approx(1.0, abs=1e-12)

    def test_matches_vertex_enumeration(self):
        # exhaustive transport-polytope oracle on small random instances
        rng = np.random.default_rng(7)
        for _ in range(40):
            n1, n2 = rng.integers(1, 5, size=2)
            pts = rng.random(n1 + n2)
            ground = _metric_matrix(pts)
            d = ground.values
            w1 = rng.random(n1)
            w1 /= w1.sum()
            w2 = rng.random(n2)
            w2 /= w2.sum()
            mu1 = AtomicMeasure(np.arange(n1), w1)
            mu2 = AtomicMeasure(np.arange(n1, n1 + n2), w2)
            got = kantorovich_distance(mu1, mu2, ground)
            cost = d[np.ix_(np.arange(n1), np.arange(n1, n1 + n2))]
            expected = transport_cost_by_vertex_enumeration(cost, w1, w2)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_metric_axioms_on_measures(self):
        rng = np.random.default_rng(11)
        pts = rng.random(30)
        d = _metric_matrix(pts)
        for _ in range(10):
            measures = []
            for _ in range(3):
                size = int(rng.integers(1, 17))
                idx = rng.choice(30, size=size, replace=False)
                w = rng.random(size)
                measures.append(AtomicMeasure(idx, w / w.sum()))
            a, b, c = measures
            ab = kantorovich_distance(a, b, d)
            ba = kantorovich_distance(b, a, d)
            assert ab == pytest.approx(ba, abs=1e-9)
            ac = kantorovich_distance(a, c, d)
            bc = kantorovich_distance(b, c, d)
            assert ac <= ab + bc + 1e-9

    def test_support_cap(self):
        d = DistanceMatrix(np.zeros((5000, 5000)))
        mu = AtomicMeasure.uniform(np.arange(3000))
        nu = AtomicMeasure.uniform(np.arange(3000, 5000))
        with pytest.raises(SizeError):
            kantorovich_distance(mu, nu, d)

    def test_negative_distance_rejected(self):
        mu = AtomicMeasure(np.array([0]), np.array([1.0]))
        nu = AtomicMeasure(np.array([1]), np.array([1.0]))
        with pytest.raises(ParameterError):
            kantorovich_distance(mu, nu, DistanceMatrix(np.array([[0.0, -0.1], [-0.1, 0.0]])))


class TestCoveringEntropy:
    def test_two_tight_clusters(self):
        rng = np.random.default_rng(2)
        d = _metric_matrix(two_cluster_points(rng, per_side=50))
        est = eps_entropy_cover(d, 0.1)
        assert est.k == 2
        assert est.value_bits == pytest.approx(1.0, abs=1e-12)

    def test_huge_eps_is_one_block(self):
        rng = np.random.default_rng(3)
        d = _metric_matrix(rng.random(20))
        est = eps_entropy_cover(d, 1.5)
        assert est.k == 1
        assert est.value_bits == 0.0

    def test_one_block_even_when_balls_are_small(self):
        # diameter below eps but above eps/2: a single set still covers
        d = _metric_matrix([0.0, 0.45, 0.9])
        est = eps_entropy_cover(d, 1.0)
        assert est.k == 1

    def test_bracket_against_exhaustive_cover(self):
        from oracles import exact_ball_cover_count

        rng = np.random.default_rng(5)
        for _ in range(25):
            m = int(rng.integers(4, 13))
            d = _metric_matrix(rng.random(m))
            eps = float(rng.uniform(0.05, 0.9))
            est = eps_entropy_cover(d, eps)
            k_exact = exact_ball_cover_count(d.values, eps)
            assert est.lower_bound_bits <= np.log2(k_exact) + 1e-12
            assert np.log2(k_exact) <= est.value_bits + 1e-12

    def test_monotone_in_eps(self, euclid, rotation):
        sample = sample_points(rotation, 200, 17)
        d = distance_matrix(euclid, sample)
        ks = [eps_entropy_cover(d, eps).k for eps in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_lower_bound_never_exceeds_value(self, euclid, identity):
        rng = np.random.default_rng(23)
        for _ in range(10):
            sample = sample_points(identity, int(rng.integers(16, 100)), int(rng.integers(1e6)))
            d = distance_matrix(euclid, sample)
            est = eps_entropy_cover(d, float(rng.uniform(0.02, 1.0)))
            assert est.lower_bound_bits <= est.value_bits + 1e-12

    @pytest.mark.parametrize("eps, m, kept", [
        (0.25, 512, 384),
        (0.1, 512, 461),
        (0.25, 64, 48),  # eps * m is exactly 16
        (0.1, 10, 9),  # 0.1 * 10 rounds to exactly 1.0
        (0.3, 10, 7),  # 0.3 * 10 rounds to just above 3
        (1.5, 8, 1),  # the discard budget takes every point
        (1e308, 8, 1),  # eps * m overflows, and the budget still stops at m
    ])
    def test_ceiling_bits(self, eps, m, kept):
        assert entropy.ceiling_bits(eps, m) == math.log2(kept)
        # points farther than eps apart each take a set of their own, so the
        # cover reads exactly the ceiling
        cover = eps_entropy_cover(DistanceMatrix(1.0 - np.eye(m)), eps)
        assert cover.value_bits == math.log2(kept)

    def test_input_validation(self):
        d = _metric_matrix([0.1, 0.4])
        with pytest.raises(ParameterError):
            eps_entropy_cover(d, 0.0)
        with pytest.raises(SizeError):
            eps_entropy_cover(DistanceMatrix(np.zeros((1, 1))), 0.5)

    def test_stability_in_sample_size(self, euclid, arc, rotation):
        # admissible metrics: the estimate stabilizes as m grows
        for metric in (euclid, arc):
            values = {}
            for m in (256, 1024):
                sample = sample_points(rotation, m, 31)
                est = eps_entropy_cover(distance_matrix(metric, sample), 0.25)
                values[m] = est.value_bits
            assert abs(values[256] - values[1024]) <= 1.0


class TestKantorovichEntropy:
    def test_huge_eps_single_atom(self):
        rng = np.random.default_rng(4)
        d = _metric_matrix(rng.random(16))
        [est] = eps_entropy_kantorovich(d, [2.0])
        assert est.value_bits == 0.0
        assert est.k == 1

    def test_never_exceeds_full_support(self):
        rng = np.random.default_rng(6)
        d = _metric_matrix(rng.random(32))
        [est] = eps_entropy_kantorovich(d, [0.01])
        assert est.value_bits <= np.log2(32) + 1e-9

    def test_overflowing_costs_fall_through_to_full_support(self):
        # every k < m has an inf mean nearest-medoid cost, so no restart is
        # cheaper than inf; the first is kept and only full support is feasible
        values = np.full((40, 40), 1.7e308)
        np.fill_diagonal(values, 0.0)
        with np.errstate(over="ignore"):
            estimates = eps_entropy_kantorovich(DistanceMatrix(values), [0.1, 1e300])
        full = atomic_entropy(AtomicMeasure.uniform(range(40)))
        assert [(e.k, e.value_bits) for e in estimates] == [(40, full)] * 2

    def test_two_clusters_match_exhaustive(self):
        rng = np.random.default_rng(8)
        d = _metric_matrix(two_cluster_points(rng, per_side=12))
        [est] = eps_entropy_kantorovich(d, [0.1], seed=5)
        oracle = min_entropy_quantization(d.values, 0.1, max_atoms=3)
        assert oracle is not None
        best_h, _ = oracle
        # ours searches the same candidate family, so it cannot beat the
        # exhaustive minimum; the balanced two-cluster answer is ~1 bit
        assert est.value_bits >= best_h - 1e-9
        assert 0.9 <= est.value_bits <= 1.05


def _rotation_matrix():
    euclid = Euclidean1D()
    return distance_matrix(euclid, sample_points(CircleRotation(), 64, 3)).values


def _tied_cut_matrix():
    # 7-step cut average on a fair shift: every entry is j/7, with many ties
    shift = BernoulliShift([0.5, 0.5], horizon=16)
    cut = Average(FirstSymbolCut(), shift, 7)
    values = distance_matrix(cut, sample_points(shift, 64, 5)).values
    assert np.array_equal(values * 7, np.round(values * 7))
    return values


def _two_cluster_matrix():
    return _metric_matrix(two_cluster_points(np.random.default_rng(8), per_side=12)).values


GROUNDS = {
    "rotation": _rotation_matrix,
    "tied-cut": _tied_cut_matrix,
    "two-cluster": _two_cluster_matrix,
}


def _anzai_torus_matrix():
    anzai = AnzaiSkew()
    torus = Average(TorusArcL1(), anzai, 16)
    return distance_matrix(torus, sample_points(anzai, 64, 7)).values


def _duplicate_points_matrix():
    # 64 points on 6 sites: a medoid that coincides with an earlier label's
    # medoid loses every point to it and leaves an empty cluster
    return _metric_matrix(np.random.default_rng(13).integers(0, 6, 64) / 6).values


@functools.cache
def _rotation_average_matrix():
    # m = 512: clusters of hundreds of members cross NumPy's 8- and 128-term
    # pairwise summation blocks
    rotation = CircleRotation()
    average = Average(Euclidean1D(), rotation, 5)
    return distance_matrix(average, sample_points(rotation, 512, 17)).values


MEDOID_GROUNDS = {
    **GROUNDS,
    "anzai-torus": _anzai_torus_matrix,
    "duplicate-points": _duplicate_points_matrix,
    "all-zero": lambda: np.zeros((40, 40)),
    # every entry subnormal, so are the within-cluster sums
    "tied-cut-subnormal": lambda: _tied_cut_matrix() * 1e-310,
    # large clusters' sums and the small k's costs overflow to inf
    "rotation-overflow": lambda: _rotation_matrix() * 1e308,
    "rotation-average-512": _rotation_average_matrix,
}


class TestMedoidTable:
    """The lockstep k-medoid search, with its shared medoid table and its
    screened medoids, against the reference search that sums every
    cluster's whole block in every round of every restart."""

    @pytest.mark.parametrize("name", MEDOID_GROUNDS)
    def test_candidates_bit_identical_to_reference(self, name):
        values = MEDOID_GROUNDS[name]()
        m = values.shape[0]
        medoid_of = {}
        # one table for every k, as one matrix's estimate shares it
        for k in (1, 2, 3, 5, 8, m - 1, m):
            with warnings.catch_warnings(record=True) as ours:
                warnings.simplefilter("always")
                nu, cost = _medoid_measure(values, k, 11, medoid_of)
            with warnings.catch_warnings(record=True) as theirs:
                warnings.simplefilter("always")
                ref, ref_cost = reference_medoid_measure(values, k, 11)
            assert nu.atom_indices.tobytes() == ref.atom_indices.tobytes()
            assert nu.weights.tobytes() == ref.weights.tobytes()
            assert np.float64(cost).tobytes() == np.float64(ref_cost).tobytes()
            assert not np.isnan(cost)
            # the screen adds no warning that the full block sums do not give
            assert {str(w.message) for w in ours} <= {str(w.message) for w in theirs}
        if name == "duplicate-points":
            assert -1 in medoid_of.values()
        if name == "rotation-overflow":
            with np.errstate(over="ignore"):
                assert math.isinf(reference_medoid_measure(values, 1, 11)[1])

    @pytest.mark.parametrize("c", [1, 7, 8, 9, 127, 128, 129, 300, 512])
    def test_candidate_rows_sum_as_the_full_block(self, c):
        values = _rotation_average_matrix()
        rng = np.random.default_rng(c)
        members = np.sort(rng.choice(values.shape[0], size=c, replace=False))
        full = values.take(members, 0).take(members, 1).sum(axis=1)
        for picks in ([0], [c - 1], np.arange(c),
                      np.sort(rng.choice(c, size=min(c, 5), replace=False))):
            rows = values.take(members[picks], 0).take(members, 1).sum(axis=1)
            assert rows.tobytes() == full[picks].tobytes()

    def test_empty_sets_have_no_medoid(self):
        values = _rotation_matrix()
        masks = np.zeros((3, values.shape[0]), dtype=bool)
        masks[1] = True
        masks[2, [4, 9, 30]] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            medoids = entropy._screened_medoids(values, masks)
        whole = values.sum(axis=1)
        trio = values[np.ix_([4, 9, 30], [4, 9, 30])].sum(axis=1)
        assert medoids.tolist() == [-1, int(np.argmin(whole)), [4, 9, 30][int(np.argmin(trio))]]

    @pytest.mark.parametrize("name", GROUNDS)
    def test_estimate_independent_of_grid(self, name):
        values = DistanceMatrix(GROUNDS[name]())
        alone = {eps: eps_entropy_kantorovich(values, [eps], seed=11)[0]
                 for eps in (0.1, 0.25, 0.5)}
        for grid in ([0.25, 0.1], [0.1, 0.25], [0.1, 0.1, 0.5]):
            estimates = eps_entropy_kantorovich(values, grid, seed=11)
            assert estimates == [alone[eps] for eps in grid]

    @pytest.mark.parametrize("grid", [[0.0], [0.25, 0.0], [0.1, -0.5, 0.25]])
    def test_nonpositive_eps_in_grid_rejected(self, grid):
        with pytest.raises(ParameterError):
            eps_entropy_kantorovich(DistanceMatrix(_two_cluster_matrix()), grid)


class TestIncrementalCover:
    """The greedy cover with gains kept up to date against the reference that
    recounts every ball in every round."""

    @staticmethod
    def assert_matches(values, eps_values):
        matrix = DistanceMatrix(values)
        for eps in eps_values:
            k, lower_bits = reference_cover(values, eps)
            if lower_bits > np.log2(k) + 1e-12:
                # off a metric the packing may exceed the cover: both refuse
                with pytest.raises(ParameterError):
                    eps_entropy_cover(matrix, eps)
                continue
            est = eps_entropy_cover(matrix, eps)
            assert (est.k, est.lower_bound_bits) == (k, lower_bits), eps

    @pytest.mark.parametrize("name", [*GROUNDS, "anzai-torus"])
    def test_grounds(self, name):
        values = _anzai_torus_matrix() if name == "anzai-torus" else GROUNDS[name]()
        self.assert_matches(values, (0.02, 0.05, 0.1, 0.2, 0.25, 0.4, 0.5))

    def test_integer_matrices_with_heavy_ties(self):
        rng = np.random.default_rng(13)
        for m in (2, 3, 7, 16, 40, 97):
            upper = np.triu(rng.integers(0, 10, (m, m)), 1) / 10
            self.assert_matches(upper + upper.T, (0.1, 0.2, 0.25, 0.3, 0.5))

    def test_symmetric_off_metric(self):
        # a semimetric that breaks the triangle inequality: at eps 0.25 the
        # packing exceeds the cover, and both refuse
        values = np.array([[0.0, 1.0, 0.1], [1.0, 0.0, 0.1], [0.1, 0.1, 0.0]])
        k, lower_bits = reference_cover(values, 0.25)
        assert lower_bits > np.log2(k)
        self.assert_matches(values, (0.1, 0.25, 0.5, 1.5))


class TestClosedFormTransport:
    """The nearest-medoid cost of each candidate against the transport LP."""

    @pytest.mark.parametrize("name", GROUNDS)
    def test_cost_equals_lp(self, name):
        values = GROUNDS[name]()
        m = values.shape[0]
        empirical = AtomicMeasure.uniform(range(m))
        for k in (1, 2, 3, 5, m):
            nu, cost = _medoid_measure(values, k, 11, {})
            assert cost == pytest.approx(
                kantorovich_distance(empirical, nu, DistanceMatrix(values)), abs=1e-12)

    @pytest.mark.parametrize("name", GROUNDS)
    def test_estimate_equals_lp_estimate(self, name):
        values = GROUNDS[name]()
        for eps in (0.05, 0.1, 0.25, 0.5):
            [est] = eps_entropy_kantorovich(DistanceMatrix(values), [eps], seed=11)
            assert (est.value_bits, est.k) == kantorovich_entropy_by_lp(values, eps, seed=11)

    def test_no_support_cap(self, monkeypatch):
        monkeypatch.setattr(entropy, "MAX_TRANSPORT_SUPPORT", 16)
        d = _metric_matrix(np.random.default_rng(12).random(32))
        [est] = eps_entropy_kantorovich(d, [0.01])
        assert est.sample_size == 32
        uniform = AtomicMeasure.uniform(range(32))
        with pytest.raises(SizeError):
            kantorovich_distance(uniform, uniform, d)

    def test_negative_entry_rejected(self):
        with pytest.raises(ParameterError):
            eps_entropy_kantorovich(DistanceMatrix(np.array([[0.0, -0.1], [-0.1, 0.0]])), [0.5])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ParameterError):
            eps_entropy_kantorovich(DistanceMatrix(np.array([[0.1, 0.5], [0.5, 0.0]])), [0.5])

    def test_cli_import_loads_no_scipy(self):
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import orbent.cli, sys; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestEstimatePipeline:
    def test_identity_equals_base(self, euclid, identity):
        base_sample = sample_points(identity, 128, 3)
        base = eps_entropy_cover(distance_matrix(euclid, base_sample), 0.25, seed=3)
        for n in (1, 7, 64):
            est = entropy_estimate(identity, euclid, n, 0.25, 128, 3)
            assert est.k == base.k
            assert est.value_bits == base.value_bits

    def test_rotation_arc_isometry(self, arc, rotation):
        # invariant metric: the estimate is independent of n
        reference = entropy_estimate(rotation, arc, 1, 0.25, 256, 9)
        for n in (4, 64):
            est = entropy_estimate(rotation, arc, n, 0.25, 256, 9)
            assert est.k == reference.k

    def test_shift_entropy_grows(self, cut):
        # covering the sampled cube needs more blocks at n=256 than at n=16
        system = BernoulliShift([0.5, 0.5], horizon=260)
        for seed in (1, 2, 3):
            low = entropy_estimate(system, cut, 16, 0.25, 512, seed)
            high = entropy_estimate(system, cut, 256, 0.25, 512, seed)
            assert high.value_bits > low.value_bits

    def test_method_dispatch(self):
        d = _metric_matrix([0.0, 0.2, 0.9, 0.95])
        [cover] = estimate_from_matrix(d, [0.3], "Covering")
        [kant] = estimate_from_matrix(d, [0.3], "Kantorovich")
        assert cover.method == "Covering"
        assert kant.method == "Kantorovich"
        # a matrix with a NaN or a negative entry is refused where it is
        # built, before either estimator or the dispatch reads it
        nan = np.array([[0.0, np.nan], [np.nan, 0.0]])
        negative = np.array([[0.0, -0.1], [-0.1, 0.0]])
        for method in entropy.ESTIMATORS:
            for bad in (nan, negative):
                with pytest.raises(ParameterError):
                    entropy.ESTIMATORS[method](DistanceMatrix(bad), [0.5], 0)
                with pytest.raises(ParameterError):
                    estimate_from_matrix(DistanceMatrix(bad), [0.5], method)
        with pytest.raises(ParameterError):
            estimate_from_matrix(d, [0.3], "annealing")
        # names are exact here; only parse_config canonicalizes them
        with pytest.raises(ParameterError):
            estimate_from_matrix(d, [0.3], "kantorovich")

    @pytest.mark.parametrize("method", sorted(entropy.ESTIMATORS))
    @pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1.0])
    def test_eps_outside_the_open_half_line_rejected(self, method, eps):
        # the rule parse_config applies to eps_grid; an infinite eps has no
        # discard budget floor(eps * m), and no cover or quantization reads it
        with pytest.raises(ParameterError):
            entropy.ESTIMATORS[method](DistanceMatrix([[0.0, 1.0], [1.0, 0.0]]), [eps], 0)
