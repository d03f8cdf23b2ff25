import numpy as np
import pytest

from orbent import (
    BernoulliShift,
    MetricTypeError,
    ParameterError,
    TorusTranslation,
    ball_mass_test,
    distance_matrix,
    random_matrix_test,
    sample_points,
    trace_from_matrix,
)
from orbent.admit import PC_N, SEPARATION_C, TRACE_SCHEDULE, greedy_separated_size
from orbent.dynsys import GOLDEN_FRAC, AnzaiSkew, CircleRotation
from orbent.semimetric import (
    Average, Block, CircleArc, Discrete, DistanceMatrix, Euclidean1D, FirstSymbolCut,
    FirstSymbols, Mix, OneBlock, TorusArcL1, Zero,
)

from conftest import coords_sample, matrix_from_points, sample_report
from oracles import exact_separated_size, reference_random_matrix_test, reference_trace_curve


def _workload_matrices():
    """(metric, system, m) of the matrices whose separated-set test a run of
    each benchmark workload reads: the base metric and the average at the
    schedule's largest n; a biased shift's cut whose share lies strictly
    between 0 and 1; and four symbolic metrics on a fair shift."""
    workloads = {
        "anzai-orbit": (AnzaiSkew(GOLDEN_FRAC), TorusArcL1(), 128),
        "shift-cut": (BernoulliShift([0.5, 0.5], horizon=1026), FirstSymbolCut(), 1024),
        "rotation-quantize": (CircleRotation(GOLDEN_FRAC), Euclidean1D(), 16),
    }
    cases = []
    for name, (system, metric, n_big) in workloads.items():
        cases.append(pytest.param(metric, system, 96, id=f"{name}-base"))
        cases.append(pytest.param(Average(metric, system, n_big), system, 96,
                                  id=f"{name}-limit"))
    biased = BernoulliShift([0.8, 0.2], horizon=8)
    cases.append(pytest.param(Block(FirstSymbols(5)), biased, 256, id="biased-block5"))
    shift = BernoulliShift([0.5, 0.5], horizon=40)
    for name, metric in (("discrete", Discrete()), ("first_symbols", Block(FirstSymbols(3))),
                         ("one_block", Block(OneBlock())),
                         ("mix", Mix(Discrete(), FirstSymbolCut(), 0.3))):
        cases.append(pytest.param(metric, shift, 160, id=f"shift-{name}"))
    return cases


def trace(metric, sample):
    return trace_from_matrix(distance_matrix(metric, sample), sample)


class TestTraceTest:
    def test_euclidean_analytic(self, euclid, identity):
        # within-cell mean of |x-y| on an interval of length 1/n is 1/(3n)
        sample = sample_points(identity, 4096, 13)
        for point in trace(euclid, sample):
            expected = 1.0 / (3.0 * point.n)
            assert abs(point.trace_over_n - expected) <= 0.15 * expected

    def test_discrete_metric_stays_at_one(self, identity):
        sample = sample_points(identity, 2048, 3)
        disc = Discrete()
        for point in trace(disc, sample):
            assert abs(point.trace_over_n - 1.0) <= 0.02

    def test_zero_metric_is_zero(self, identity):
        sample = sample_points(identity, 512, 5)
        for point in trace(Zero(), sample):
            assert point.trace_over_n == 0.0

    def test_decreasing_for_euclidean(self, euclid, identity):
        sample = sample_points(identity, 4096, 17)
        points = trace(euclid, sample)
        for a, b in zip(points, points[1:]):
            assert b.trace_over_n <= a.trace_over_n + 2 * (a.stderr + b.stderr)

    def test_trace_at_most_twice_l1(self, identity):
        # mass-weighted within-cell means never exceed twice the global mean
        sample = sample_points(identity, 1024, 19)
        off = ~np.eye(len(sample), dtype=bool)
        for metric in (Euclidean1D(), CircleArc()):
            values = metric.pairwise(sample)
            l1 = float(values[off].mean())
            for point in trace_from_matrix(DistanceMatrix(values), sample):
                assert point.trace_over_n <= 2.0 * l1 + 5 * point.stderr

    def test_skipped_cells_flagged(self, euclid):
        # everything in [0, 0.2): most dyadic cells at n=16 are empty
        rng = np.random.default_rng(0)
        sample = coords_sample(rng.random(64) * 0.2)
        (point,) = [p for p in trace(euclid, sample) if p.n == 16]
        assert point.cells_skipped >= 12
        assert point.flagged

    def test_symbolic_points_rejected(self, cut):
        system = BernoulliShift([0.5, 0.5], horizon=8)
        sample = sample_points(system, 64, 2)
        with pytest.raises(MetricTypeError):
            trace(cut, sample)

    def test_torus_grid_matches_box_oracle(self):
        # level j cuts the square into 2^ceil(j/2) x 2^floor(j/2) boxes
        system = TorusTranslation()
        sample = sample_points(system, 512, 29)
        values = TorusArcL1().pairwise(sample)
        assert TRACE_SCHEDULE == (2, 4, 8, 16, 32)
        grids = [(2, 1), (2, 2), (4, 2), (4, 4), (8, 4)]
        got = [p.trace_over_n for p in trace_from_matrix(DistanceMatrix(values), sample)]
        expected = reference_trace_curve(values, sample, grids)
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)


class TestBallMass:
    def test_euclidean_near_one(self, euclid, identity):
        sample = sample_points(identity, 1024, 3)
        d = distance_matrix(euclid, sample)
        assert ball_mass_test(d, 0.1) >= 0.99

    def test_discrete_is_zero(self, identity):
        sample = sample_points(identity, 64, 3)
        d = distance_matrix(Discrete(), sample)
        assert ball_mass_test(d, 0.5) == 0.0

    def test_small_sample_rejected(self, euclid, identity):
        sample = sample_points(identity, 4, 3)
        d = distance_matrix(euclid, sample)
        with pytest.raises(ParameterError):
            ball_mass_test(d, 0.1)


class TestSeparatedSets:
    def test_discrete_always_succeeds(self, identity):
        matrix = distance_matrix(Discrete(), sample_points(identity, 64, 3))
        assert random_matrix_test(matrix, 16) == 1.0

    def test_euclidean_never_succeeds(self, euclid, identity):
        # at most 3 points of [0,1) can be pairwise 0.4 apart, far below 13
        matrix = distance_matrix(euclid, sample_points(identity, 256, 3))
        assert random_matrix_test(matrix, PC_N) == 0.0

    def test_three_point_case_matches_direct_mass(self, euclid, identity):
        # n=3 at c=0.4 needs two indices: first fit takes x1 or x2 beside x0
        # exactly when one of them lies 0.4 or more from x0, so the event has
        # mass 1 - E[L(x0)^2], with L(x) = |[x - 0.4, x + 0.4] & [0, 1]|, = 43/75;
        # 400 blocks of a 1200-point sample
        assert SEPARATION_C == 0.4
        freq = random_matrix_test(distance_matrix(euclid, sample_points(identity, 1200, 11)), 3)
        assert abs(freq - 43 / 75) <= 0.08

    def test_fewer_points_than_n_make_one_block(self):
        # n is m = 5, so two indices are needed; only the last point is 0.4
        # from the first, so the one block must hold all five
        matrix = matrix_from_points([0.0, 0.1, 0.2, 0.3, 0.9])
        assert random_matrix_test(matrix, PC_N) == 1.0
        assert random_matrix_test(matrix_from_points([0.0, 0.1, 0.2, 0.3, 0.35]), PC_N) == 0.0

    def test_leftover_points_are_not_read(self):
        # blocks [0, 0.5, 0.1] and [0, 0.1, 0.2]; the seventh point is left over
        matrix = matrix_from_points([0.0, 0.5, 0.1, 0.0, 0.1, 0.2, 0.9])
        assert random_matrix_test(matrix, 3) == 0.5

    def test_greedy_is_sound_and_exact_confirms(self, identity):
        rng = np.random.default_rng(13)
        for _ in range(30):
            pts = rng.random(12)
            d = np.abs(pts[:, None] - pts[None, :])
            d = np.triu(d, 1)
            d = d + d.T
            c = float(rng.uniform(0.1, 0.6))
            greedy = greedy_separated_size(d >= c)
            exact = exact_separated_size(d, c)
            assert greedy <= exact
            # a greedy certificate is confirmed by exhaustive search
            required = int(np.ceil(c * 12))
            if greedy >= required:
                assert exact >= required

    @pytest.mark.parametrize("system, metric", [
        (BernoulliShift([0.5, 0.5], horizon=8), Average(Block(FirstSymbols(2)), BernoulliShift(
            [0.5, 0.5], horizon=8), 4)),
        (AnzaiSkew(), Average(TorusArcL1(), AnzaiSkew(), 8)),
    ], ids=["shift", "anzai"])
    def test_greedy_on_symmetric_matrix_is_first_fit_by_columns(self, system, metric):
        values = metric.pairwise(sample_points(system, 96, 2))
        for separated in (values > 0.3, values >= SEPARATION_C):
            chosen = []
            for i in range(len(separated)):
                if all(separated[j, i] for j in chosen):
                    chosen.append(i)
            assert 1 < len(chosen) < len(separated)
            assert greedy_separated_size(separated) == len(chosen)

    @pytest.mark.parametrize("metric, system, m", _workload_matrices())
    def test_matches_per_block_reference(self, metric, system, m):
        values = distance_matrix(metric, sample_points(system, m, 7)).values
        for n in (PC_N, 5, 2 * m):
            assert random_matrix_test(DistanceMatrix(values), n) == \
                reference_random_matrix_test(values, n)

    def test_share_strictly_between_zero_and_one(self):
        # so the biased-block5 reference case can show a change to the test
        system = BernoulliShift([0.8, 0.2], horizon=8)
        matrix = distance_matrix(Block(FirstSymbols(5)), sample_points(system, 256, 7))
        assert 0.0 < random_matrix_test(matrix, PC_N) < 1.0

    def test_validation(self, euclid, identity):
        matrix = distance_matrix(euclid, sample_points(identity, 16, 0))
        for n in (1, 0, -3):
            with pytest.raises(ParameterError):
                random_matrix_test(matrix, n)


class TestAdmissibilityReport:
    def test_euclidean_is_admissible(self, euclid, identity):
        report = sample_report(identity, euclid, 512, 1)
        assert report.ball_mass_fraction >= 0.99
        assert report.pc_probability <= 0.05
        first, last = report.trace_curve[0].trace_over_n, report.trace_curve[-1].trace_over_n
        assert last < 0.5 * first
        assert last < 0.1 * report.empirical_l1

    def test_discrete_is_not_admissible(self, identity):
        disc = Discrete()
        report = sample_report(identity, disc, 256, 1, eps=0.25)
        assert report.ball_mass_fraction == 0.0
        assert report.pc_probability == 1.0

    def test_cut_metric_on_shift_is_admissible(self, cut):
        # no trace curve for symbolic points; ball mass and separation decide
        system = BernoulliShift([0.5, 0.5], horizon=16)
        report = sample_report(system, cut, 256, 3)
        assert report.trace_curve == []
        assert report.ball_mass_fraction >= 0.9
        assert report.pc_probability <= 0.1

    def test_json_fields(self, euclid, identity):
        report = sample_report(identity, euclid, 128, 2, eps=0.2)
        assert set(report.to_json()) == {
            "ball_mass_fraction", "pc_probability", "trace_curve", "empirical_l1", "eps", "c",
        }
