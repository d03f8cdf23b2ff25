import json

import numpy as np
import pytest

from orbent import (
    AnzaiSkew,
    BernoulliShift,
    CircleRotation,
    Identity,
    ParameterError,
    admissibility_report,
    classify_growth,
    discreteness_verdict,
    limit_metric_check,
    sample_points,
)
from orbent.entropy import ceiling_bits
from orbent.scaling import (
    BOUNDED,
    GROWING,
    GrowthClass,
    UNDETERMINED,
    ProfileRow,
    ScalingProfile,
    SpectralVerdict,
    censored_rows,
    increments,
    profile_cells,
)
from orbent.semimetric import Euclidean1D, FirstSymbolCut, TorusArcL1, distance_matrix

from conftest import sample_report
from oracles import reference_limit_check, scaling_profile, standalone_limit_report


def rows_from(pairs, seed=1, sample_size=2 ** 16):
    return [ProfileRow(n=n, value_bits=v, lower_bound_bits=0.0,
                       sample_size=sample_size, seed=seed) for n, v in pairs]


SCHEDULE = [16, 32, 64, 128, 256, 512, 1024]
# the ceiling of rows_from's default 2**16 points at EPS is about 15.85 bits,
# above every row that is not built to meet a ceiling
EPS = 0.1
# the ceiling of 128 points at eps 0.25: log2(96), about 6.58 bits
LOW_CEILING = ceiling_bits(0.25, 128)


class TestClassifyGrowth:
    @pytest.mark.parametrize("value", [
        lambda n: 0.01 * n, lambda n: np.log2(n), lambda n: 0.5 * n ** 0.4,
    ], ids=["linear", "log2", "power-0.4"])
    def test_growth_below_the_ceiling_is_growing(self, value):
        assert classify_growth(rows_from([(n, value(n)) for n in SCHEDULE]), EPS) == GROWING

    def test_constant_rows_bounded(self):
        cls = classify_growth(rows_from([(n, 3.0) for n in SCHEDULE]), EPS)
        assert cls == BOUNDED

    def test_settling_staircase_is_bounded(self):
        # quantized estimates settling one step up must not read as growth
        values = [2.32, 2.32, 2.58, 2.58, 2.58, 2.58, 2.58]
        cls = classify_growth(rows_from(list(zip(SCHEDULE, values))), EPS)
        assert cls == BOUNDED

    def test_rows_at_the_ceiling_from_the_second_row_are_undetermined(self):
        # pinned at the ceiling the rows are flat, which must not read Bounded
        values = [1.0] + [LOW_CEILING] * 6
        rows = rows_from(list(zip(SCHEDULE, values)), sample_size=128)
        assert classify_growth(rows, 0.25) == UNDETERMINED

    def test_rows_within_the_margin_are_censored(self):
        flat = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        below = rows_from(list(zip(SCHEDULE, flat + [LOW_CEILING - 0.51])), sample_size=128)
        at = rows_from(list(zip(SCHEDULE, flat + [LOW_CEILING - 0.5])), sample_size=128)
        assert censored_rows(below, 0.25) == [False] * 7
        assert censored_rows(at, 0.25) == [False] * 6 + [True]
        # flat rows below the ceiling, then a censored one: not Bounded
        assert classify_growth(at, 0.25) == UNDETERMINED

    def test_growth_read_before_the_ceiling(self):
        # a rise over four rows, then the ceiling: the rise is read, not the plateau
        values = [1.0, 2.0, 3.0, 4.0] + [LOW_CEILING] * 3
        rows = rows_from(list(zip(SCHEDULE, values)), sample_size=128)
        assert classify_growth(rows, 0.25) == GROWING
        assert classify_growth(rows[:3] + rows[4:], 0.25) == UNDETERMINED

    @pytest.mark.parametrize("tail, expected", [
        ([0.25, 0.125, 0.125], BOUNDED),
        ([0.25, 0.125, 0.125 + 2 ** -20], UNDETERMINED),
        ([0.25, 0.25, 0.25], GROWING),
        ([0.25, 0.25, 0.25 - 2 ** -20], UNDETERMINED),
    ], ids=["sum-0.5", "above-0.5", "sum-0.75", "below-0.75"])
    def test_tail_sum_thresholds(self, tail, expected):
        values = list(np.cumsum([1.0, 0.0, 0.0, 0.0] + tail))
        rows = rows_from(list(zip(SCHEDULE, values)))
        assert increments(rows)[-3:] == tail
        assert classify_growth(rows, EPS) == expected

    def test_growing_needs_every_tail_increment_positive(self):
        values = [1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 4.0]
        assert classify_growth(rows_from(list(zip(SCHEDULE, values))), EPS) == UNDETERMINED

    @pytest.mark.parametrize("rate, expected", [(0.15, BOUNDED), (0.2, UNDETERMINED)])
    def test_increments_are_per_doubling_of_n(self, rate, expected):
        # per tripling of n the rows rise by rate * log2(3); only bits per
        # doubling keep the tail at 3 * rate, inside Bounded or below Growing
        rows = rows_from([(n, rate * np.log2(n)) for n in [1, 3, 9, 27, 81]])
        assert increments(rows) == pytest.approx([rate] * 4, abs=1e-12)
        assert classify_growth(rows, EPS) == expected

    def test_needs_four_rows(self):
        assert classify_growth(rows_from([(n, 1.0) for n in SCHEDULE[:3]]), EPS) == UNDETERMINED
        assert classify_growth(rows_from([(n, 1.0) for n in SCHEDULE[:4]]), EPS) == BOUNDED

    def test_distinct_n(self):
        with pytest.raises(ParameterError):
            classify_growth(rows_from([(16, 1.0), (32, 1.0), (32, 1.0), (64, 1.0)]), EPS)

    @pytest.mark.parametrize("values, sample_size, eps, expected", [
        ([np.log2(n) for n in SCHEDULE], 2 ** 16, EPS, GROWING),
        ([1.0, 2.0, 3.0, 4.0] + [LOW_CEILING] * 3, 128, 0.25, GROWING),
        ([1.0, 2.0, 3.0] + [LOW_CEILING] * 4, 128, 0.25, UNDETERMINED),
        ([2.32, 2.32, 2.58, 2.58, 2.58, 2.58, 2.58], 2 ** 16, EPS, BOUNDED),
    ], ids=["growing", "censored-growing", "censored-early", "bounded"])
    def test_order_independent(self, values, sample_size, eps, expected):
        rows = rows_from(list(zip(SCHEDULE, values)), sample_size=sample_size)
        shuffled = [rows[i] for i in (3, 0, 6, 1, 5, 2, 4)]
        assert classify_growth(shuffled, eps) == classify_growth(rows, eps) == expected


class TestScalingProfile:
    def test_identity_profile_bounded_and_flat(self, euclid, identity):
        profile = scaling_profile(
            identity, euclid, 0.25, [4, 8, 16, 32], 128, [1, 2, 3],
        )
        values = {r.value_bits for r in profile.rows}
        assert len(values) == 1
        assert profile.growth_class == BOUNDED

    def test_needs_three_seeds(self, euclid, identity):
        with pytest.raises(ParameterError):
            scaling_profile(identity, euclid, 0.25, [4, 8, 16, 32], 64, [1, 2])

    def test_rows_are_per_seed_medians(self, euclid, rotation):
        from orbent import entropy_estimate

        schedule = [4, 8, 16, 32]
        seeds = [1, 2, 3]
        profile = scaling_profile(rotation, euclid, 0.25, schedule, 64, seeds)
        for row in profile.rows:
            per_seed = [
                entropy_estimate(rotation, euclid, row.n, 0.25, 64, s).value_bits
                for s in seeds
            ]
            assert row.value_bits == sorted(per_seed)[1]

    def test_bernoulli_growth_visible_before_saturation(self, cut):
        # with m=512 points the covering estimate resolves growth only while
        # the true entropy stays below log2(384) bits, i.e. n <= ~16
        system = BernoulliShift([0.5, 0.5], horizon=32)
        profile = scaling_profile(
            system, cut, 0.25, [2, 4, 8, 16], 512, [101, 202, 303],
        )
        assert profile.growth_class == GROWING
        assert profile.censored == [False] * 4
        assert all(step > 0 for step in profile.increments)

    def test_profile_json_roundtrip(self, euclid, identity):
        # profiles decode by Record.from_json, as every record does
        profile = scaling_profile(identity, euclid, 0.5, [4, 8, 16, 32], 64, [1, 2, 3])
        blob = json.dumps(profile.to_json())
        assert "from_json" not in vars(ScalingProfile)
        again = ScalingProfile.from_json(json.loads(blob))
        assert again.eps == profile.eps
        assert again.growth_class == profile.growth_class
        assert [r.n for r in again.rows] == [r.n for r in profile.rows]
        assert again == profile
        assert json.dumps(again.to_json()) == blob

    @pytest.mark.parametrize("growth, blob", [
        (BOUNDED, '{"kind": "Bounded"}'),
        (GROWING, '{"kind": "Growing"}'),
    ], ids=["bounded", "growing"])
    def test_growth_class_json_roundtrip(self, growth, blob):
        assert "from_json" not in vars(GrowthClass) and "to_json" not in vars(GrowthClass)
        assert json.dumps(growth.to_json()) == blob
        assert GrowthClass.from_json(json.loads(blob)) == growth


class TestVerdict:
    def _profile(self, eps, cls, censored=(False,) * 7):
        rows = rows_from([(n, 1.0) for n in SCHEDULE])
        return ScalingProfile(
            system=Identity(), metric=Euclidean1D(),
            method="Covering", eps=eps, rows=rows, growth_class=cls,
            increments=[0.0] * 6, censored=list(censored),
        )

    def test_all_bounded_is_discrete_evidence(self):
        verdict = discreteness_verdict(
            [self._profile(0.25, BOUNDED), self._profile(0.1, BOUNDED)]
        )
        assert verdict.verdict == "DiscreteSpectrumEvidence"

    def test_any_growth_blocks_discreteness(self):
        verdict = discreteness_verdict(
            [self._profile(0.25, BOUNDED), self._profile(0.1, GROWING)]
        )
        assert verdict.verdict == "NotDiscreteEvidence"

    def test_undetermined_is_conservative(self):
        verdict = discreteness_verdict(
            [self._profile(0.25, UNDETERMINED), self._profile(0.1, BOUNDED)]
        )
        assert verdict.verdict == "Undetermined"

    def test_undetermined_basis_names_saturated_and_unclassified_eps(self):
        # rows that reach the ceiling before four rows, apart from rows the
        # rule reads and finds neither Bounded nor Growing
        saturated = (False, False, True, True, True, True, True)
        unclassified = (False,) * 5 + (True, True)
        profiles = [self._profile(0.25, UNDETERMINED, saturated),
                    self._profile(0.1, UNDETERMINED, unclassified),
                    self._profile(0.05, UNDETERMINED, saturated),
                    self._profile(0.01, BOUNDED)]
        assert discreteness_verdict(profiles).basis == (
            "rows reach the sample ceiling within 4 rows at eps 0.25, 0.05; "
            "rows below the ceiling are neither Bounded nor Growing at eps 0.1; "
            "no positive call"
        )
        assert discreteness_verdict(profiles[:1] + profiles[3:]).basis == (
            "rows reach the sample ceiling within 4 rows at eps 0.25; no positive call"
        )

    def test_one_eps_is_undetermined(self):
        # the verdict stays Undetermined but still lists the one eps's class
        verdict = discreteness_verdict([self._profile(0.25, BOUNDED)])
        assert verdict.to_json() == {
            "verdict": "Undetermined", "per_eps": {"0.25": {"kind": "Bounded"}},
            "basis": "needs >= 2 eps values",
        }

    def test_verdict_json_keys_eps_by_17_digits(self):
        # the codec writes the verdict's dict of growth classes entry by entry
        verdict = discreteness_verdict(
            [self._profile(0.25, BOUNDED), self._profile(0.1, GROWING)]
        )
        assert "to_json" not in vars(SpectralVerdict)
        assert verdict.to_json() == {
            "verdict": "NotDiscreteEvidence",
            "per_eps": {"0.25": {"kind": "Bounded"},
                        "0.10000000000000001": {"kind": "Growing"}},
            "basis": "entropy of the averaged metric grows with n at some eps",
        }
        assert SpectralVerdict.from_json(json.loads(json.dumps(verdict.to_json()))) == verdict


def limit_check(system, metric, n_big, m, seeds, eps=0.1):
    """The limit check as the CLI makes it: each seed's orbit pass ends at
    n_big, and the reports are combined in seed order."""
    reports = [profile_cells(system, metric, [n_big], m, seed, [eps])[1] for seed in seeds]
    return limit_metric_check(n_big, seeds, reports)


class TestLimitMetricCheck:
    def test_rotation_average_is_admissible(self, euclid, rotation):
        report = limit_check(rotation, euclid, 1024, 128, [1, 2, 3])
        for seed_report in report.per_seed:
            assert seed_report.ball_mass_fraction >= 0.9
            assert seed_report.pc_probability <= 0.1
            curve = seed_report.trace_curve
            assert curve[-1].trace_over_n < 0.5 * curve[0].trace_over_n

    def test_bernoulli_average_concentrates(self, cut):
        # averaged cut distances pile up near 1/2: empty balls at eps=0.1
        system = BernoulliShift([0.5, 0.5], horizon=300)
        report = limit_check(system, cut, 256, 64, [1, 2, 3])
        assert all(r.ball_mass_fraction <= 0.05 for r in report.per_seed)

    def test_identity_matches_base_diagnostics(self, euclid, identity):
        report = limit_check(identity, euclid, 64, 128, [5])
        assert report.per_seed == [sample_report(identity, euclid, 128, 5)]


def as_json_text(report):
    return json.dumps(report.to_json(), sort_keys=True)


LIMIT_CASES = {
    "rotation": (CircleRotation(), Euclidean1D()),
    "anzai": (AnzaiSkew(), TorusArcL1()),
    "bernoulli": (BernoulliShift([0.5, 0.5], horizon=40), FirstSymbolCut()),
    "identity": (Identity(), Euclidean1D()),
}


class TestLimitReportsFromThePass:
    @pytest.mark.parametrize("case", sorted(LIMIT_CASES))
    @pytest.mark.parametrize("schedule", [[1], [1, 3, 8]], ids=["n1", "n8"])
    def test_seed_report_equals_standalone(self, case, schedule):
        system, metric = LIMIT_CASES[case]
        for seed in (4, 9):
            cells, report = profile_cells(system, metric, schedule, 48, seed, [0.25, 0.15])
            assert sorted(cells) == sorted((eps, n, seed)
                                           for eps in (0.25, 0.15) for n in schedule)
            expected = standalone_limit_report(system, metric, schedule[-1], 48, seed, 0.15)
            assert as_json_text(report) == as_json_text(expected)

    def test_needs_an_eps(self, euclid, rotation):
        with pytest.raises(ParameterError):
            profile_cells(rotation, euclid, [1, 2], 32, 1, [])

    @pytest.mark.parametrize("case", sorted(LIMIT_CASES))
    def test_repeated_seed_counts_again(self, case):
        system, metric = LIMIT_CASES[case]
        seeds = [6, 2, 6]
        report = limit_check(system, metric, 8, 48, seeds)
        assert report.seeds == seeds
        expected = reference_limit_check(system, metric, 8, 48, seeds)
        assert as_json_text(report) == as_json_text(expected)

    def test_needs_a_seed(self):
        with pytest.raises(ParameterError):
            limit_metric_check(8, [], [])

    def test_needs_a_positive_length(self):
        with pytest.raises(ParameterError):
            limit_metric_check(0, [1], [])

    @pytest.mark.parametrize("seeds, count", [([1], 0), ([1, 2], 1), ([1], 2)])
    def test_needs_one_report_per_seed(self, euclid, identity, seeds, count):
        report = sample_report(identity, euclid, 16, 1)
        with pytest.raises(ParameterError):
            limit_metric_check(8, seeds, [report] * count)



WORKING_SET_M = 256
# (run at m, tracemalloc peak bound in m-by-m float64 matrices above the
# start): a pass holds one matrix beside its accumulators of about half a
# matrix, and a base report holds its sample's matrix beside the trace
# curve's within-box gathers, 2.27 matrices at m = 256
WORKING_SET_CASES = {
    "covering-anzai-arc": (lambda m: profile_cells(
        AnzaiSkew(), TorusArcL1(), [1, 2, 4, 8], m, 1, [0.25, 0.1], "Covering"), 3.4),
    "kantorovich-rotation-euclid": (lambda m: profile_cells(
        CircleRotation(), Euclidean1D(), [1, 2, 4, 8], m, 1, [0.25, 0.1], "Kantorovich"), 2.5),
    "admissibility-anzai-arc": (lambda m: sample_report(AnzaiSkew(), TorusArcL1(), m, 1), 3.0),
}


def traced_peak(run) -> int:
    """Bytes of the tracemalloc peak of ``run()`` above its starting level."""
    import tracemalloc

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    @pytest.mark.parametrize("case", sorted(WORKING_SET_CASES))
    def test_one_matrix_at_a_time(self, case):
        run, bound = WORKING_SET_CASES[case]
        run(32)  # the lazy imports and caches of a first run are not the working set
        peak = traced_peak(lambda: run(WORKING_SET_M))
        assert peak < bound * 8 * WORKING_SET_M ** 2

    def test_report_copies_no_matrix(self):
        # the trace curve's within-box gathers are its largest temporaries,
        # about 0.7 of the matrix; a copy of the off-diagonal entries adds one
        sample = sample_points(AnzaiSkew(), WORKING_SET_M, 1)
        matrix = distance_matrix(TorusArcL1(), sample)
        peak = traced_peak(lambda: admissibility_report(sample, matrix, eps=0.1))
        assert peak < 1.0 * 8 * WORKING_SET_M ** 2
