import json
from dataclasses import replace

import numpy as np
import pytest

from orbent import (
    AnzaiSkew,
    BernoulliShift,
    Block,
    CircleRotation,
    ClosedForm,
    Cutoff,
    DyadicIntervals,
    FirstSymbols,
    HorizonError,
    Identity,
    MetricTypeError,
    Mix,
    OneBlock,
    ParameterError,
    PointSample,
    PullBack,
    Semimetric,
    TorusTranslation,
    average_metric,
    distance_matrix,
    sample_points,
)

from orbent import semimetric
from orbent.dynsys import advance_sample
from orbent.semimetric import (
    _NODES,
    CLOSED_FORMS,
    Average,
    CircleArc,
    Discrete,
    Euclidean1D,
    FirstSymbolCut,
    TorusArcL1,
    Zero,
    _Cut,
    _orbit_sums,
    _symmetrize,
    _window_keys,
    streamed_average_matrices,
)

from conftest import coords_sample
from oracles import check_axioms, discrete_by_broadcast, mirror_upper, stepwise_orbit_sums


def pts(*xs):
    """Sample of the 1-D points xs."""
    return coords_sample(xs)


def syms(*words):
    """Sample of the symbol windows spelled by equal-length 0/1 words."""
    symbols = np.array([[int(b) for b in word] for word in words], dtype=np.int8)
    return PointSample(symbols=symbols)


def rho(metric, sample):
    """The metric's value on the first two points of the sample."""
    return metric.pairwise(sample)[0, 1]


class TestStandardMetrics:
    def test_euclidean(self, euclid):
        assert rho(euclid, pts(0.2, 0.7)) == pytest.approx(0.5, abs=1e-15)

    def test_circle_arc(self, arc):
        assert rho(arc, pts(0.9, 0.2)) == pytest.approx(0.3, abs=1e-15)
        assert rho(arc, pts(0.1, 0.3)) == pytest.approx(0.2, abs=1e-15)

    def test_first_symbol_cut(self, cut):
        # 1 exactly when the leading symbols differ
        assert rho(cut, syms("011", "101")) == 1.0
        assert rho(cut, syms("011", "001")) == 0.0

    def test_one_block_partition_is_zero(self):
        metric = Block(OneBlock())
        sample = sample_points(Identity(), 16, 3)
        assert np.all(metric.pairwise(sample) == 0.0)

    def test_two_symbol_block(self):
        metric = Block(FirstSymbols(2, alphabet=2))
        assert rho(metric, syms("0110", "0010")) == 1.0
        assert rho(metric, syms("0110", "0111")) == 0.0

    def test_discrete_and_zero(self):
        disc = Discrete()
        zero = Zero()
        assert rho(disc, pts(0.1, 0.2)) == 1.0
        assert rho(disc, pts(0.1, 0.1)) == 0.0
        assert rho(zero, pts(0.1, 0.9)) == 0.0

    def test_point_type_mismatch(self, cut, euclid):
        sample = sample_points(Identity(), 8, 1)
        with pytest.raises(MetricTypeError):
            cut.pairwise(sample)
        shift_sample = sample_points(BernoulliShift([0.5, 0.5], horizon=8), 8, 1)
        with pytest.raises(MetricTypeError):
            euclid.pairwise(shift_sample)

    def test_symmetry_exact(self, euclid, arc):
        sample = sample_points(Identity(), 64, 5)
        for metric in (euclid, arc, ClosedForm("mean_rotated_abs_diff")):
            values = metric.pairwise(sample)
            assert np.array_equal(values, values.T)
            assert np.all(np.diagonal(values) == 0.0)
        assert rho(euclid, pts(0.7311, 0.1189)) == rho(euclid, pts(0.1189, 0.7311))


class TestPullBack:
    def test_identity_system(self, euclid, identity):
        pulled = PullBack(euclid, identity, 5)
        assert rho(pulled, pts(0.2, 0.9)) == rho(euclid, pts(0.2, 0.9))

    def test_rotation_isometry_of_arc(self, arc):
        system = CircleRotation()
        pulled = PullBack(arc, system, 3)
        rng = np.random.default_rng(1)
        for _ in range(25):
            a, b = rng.random(2)
            pair = pts(a, b)
            assert rho(pulled, pair) == pytest.approx(rho(arc, pair), abs=1e-12)

    def test_hand_evaluated_rotation_step(self, euclid):
        system = CircleRotation(0.2)
        pulled = PullBack(euclid, system, 1)
        assert rho(pulled, pts(0.9, 0.95)) == pytest.approx(0.05, abs=1e-12)


class TestAverage:
    def test_single_term_is_same_metric(self, euclid, rotation):
        assert average_metric(euclid, rotation, 1) is euclid

    def test_identity_fixed_point(self, euclid, identity):
        averaged = average_metric(euclid, identity, 9)
        sample = sample_points(identity, 32, 2)
        assert np.array_equal(averaged.pairwise(sample), euclid.pairwise(sample))

    def test_identity_acts_on_shift_samples(self, identity):
        sample = sample_points(BernoulliShift([0.5, 0.5], horizon=8), 16, 4)
        expected = FirstSymbolCut().pairwise(sample)
        for node in (Average(FirstSymbolCut(), identity, 3),
                     PullBack(FirstSymbolCut(), identity, 2)):
            assert np.array_equal(node.pairwise(sample), expected)

    def test_rotation_average_approaches_closed_form(self, euclid, rotation):
        # oracle: integral of |{x+t} - {y+t}| over a full turn is 2d(1-d)
        averaged = average_metric(euclid, rotation, 4096)
        sample = sample_points(rotation, 64, 9)
        values = averaged.pairwise(sample)
        x = sample.coords[:, 0]
        delta = np.abs(x[:, None] - x[None, :])
        limit = 2.0 * delta * (1.0 - delta)
        np.fill_diagonal(limit, 0.0)
        assert np.abs(values - limit).max() <= 0.02

    def test_quadrature_oracle_matches_closed_form(self):
        # direct numeric integration of |{x+t}-{y+t}| dt on a fine grid
        rng = np.random.default_rng(3)
        ts = (np.arange(20_000) + 0.5) / 20_000
        for _ in range(10):
            x, y = rng.random(2)
            integral = np.abs((x + ts) % 1.0 - (y + ts) % 1.0).mean()
            d = abs(x - y)
            assert integral == pytest.approx(2 * d * (1 - d), abs=1e-3)

    @pytest.mark.parametrize("n", [2, 7, 16])
    def test_arc_is_averaging_fixed_point(self, arc, rotation, n):
        averaged = average_metric(arc, rotation, n)
        sample = sample_points(rotation, 40, 4)
        assert np.abs(averaged.pairwise(sample) - arc.pairwise(sample)).max() <= 1e-12

    @pytest.mark.parametrize("system_name", ["rotation", "shift"])
    def test_telescope(self, system_name, euclid, cut):
        if system_name == "rotation":
            system, metric = CircleRotation(), euclid
            sample = pts(*np.random.default_rng(5).random(6))
        else:
            system = BernoulliShift([0.5, 0.5], horizon=64)
            sample = sample_points(system, 6, 5)
            metric = cut
        for n in (2, 5, 12):
            avg_n = average_metric(metric, system, n)
            avg_prev = average_metric(metric, system, n - 1)
            pulled = PullBack(metric, system, n - 1)
            lhs = n * avg_n.pairwise(sample)
            rhs = (n - 1) * avg_prev.pairwise(sample) + pulled.pairwise(sample)
            assert np.abs(lhs - rhs).max() <= 1e-9

    def test_shift_average_is_prefix_hamming(self, cut):
        system = BernoulliShift([0.5, 0.5], horizon=24)
        a, b = "0110100110101011", "0101001101011010"
        n = 12
        averaged = average_metric(cut, system, n)
        expected = np.mean([a[k] != b[k] for k in range(n)])
        assert rho(averaged, syms(a, b)) == pytest.approx(expected, abs=1e-12)

    def test_streamed_matrices_match_one_shot(self, euclid, rotation):
        sample = sample_points(rotation, 24, 8)
        streamed = dict(streamed_average_matrices(euclid, rotation, sample, [1, 4, 16]))
        for n, values in streamed.items():
            direct = average_metric(euclid, rotation, n).pairwise(sample)
            assert np.array_equal(values, direct)


class TestCoordinateKernels:
    """The buffered kernels against the plain broadcast expressions, bit for bit."""

    @pytest.mark.parametrize("rows", [None, [17, 0, 5, 5, 39]], ids=["all", "subset"])
    def test_match_broadcast_expressions(self, rows):
        sample = sample_points(AnzaiSkew(), 40, 11)
        c = sample.coords
        rows = np.arange(sample.m) if rows is None else np.array(rows)
        first = np.abs(c[rows, None, 0] - c[None, :, 0])
        torus = np.zeros((len(rows), sample.m))
        for j in range(c.shape[1]):
            d = np.abs(c[rows, None, j] - c[None, :, j])
            torus += np.minimum(d, 1.0 - d)
        expected = {
            Euclidean1D(): first,
            CircleArc(): np.minimum(first, 1.0 - first),
            TorusArcL1(): torus,
        }
        for metric, reference in expected.items():
            got = metric.values(sample, rows)
            assert got.shape == reference.shape
            assert got.tobytes() == reference.tobytes(), metric.label()


SHIFTS = {
    "fair": BernoulliShift([0.5, 0.5], horizon=1030),
    "biased": BernoulliShift([0.8, 0.2], horizon=1030),
    "three": BernoulliShift([0.2, 0.3, 0.5], horizon=1030),
}
CUT_CASES = (
    [(f"first_symbol_cut-{name}", system, FirstSymbolCut()) for name, system in SHIFTS.items()]
    + [(f"first_symbols-{count}-{alphabet}", SHIFTS["fair" if alphabet == 2 else "three"],
        Block(FirstSymbols(count, alphabet)))
       for count in (1, 2, 3) for alphabet in (2, 3)]
    + [(f"dyadic-{level}-{name}", system, Block(DyadicIntervals(level)))
       for level in range(5) for name, system in (("rotation", CircleRotation()),
                                                    ("anzai", AnzaiSkew()))]
    + [(f"one_block-{name}", system, Block(OneBlock()))
       for name, system in (("shift", SHIFTS["fair"]), ("rotation", CircleRotation()))]
)
SCHEDULES = {"one": [1], "word_edges": [63, 64, 65, 130],
             "doubling": [16, 32, 64, 128, 256, 512, 1024]}


class TestCutPopcount:
    """Orbit sums of cuts by XOR and popcount against the step-by-step loop, bit for bit."""

    @pytest.mark.parametrize("schedule", SCHEDULES.values(), ids=SCHEDULES)
    @pytest.mark.parametrize("system, cut", [case[1:] for case in CUT_CASES],
                             ids=[case[0] for case in CUT_CASES])
    def test_matches_stepwise_loop(self, system, cut, schedule):
        for m, subset in ((1, [0, 0]), (2, [1, 0, 1]), (13, [7, 0, 7, 12])):
            sample = sample_points(system, m, 5)
            for rows in (np.arange(m), np.array(subset)):
                expected = list(stepwise_orbit_sums(cut, system, sample, rows, schedule))
                got = [(n, acc.copy())
                       for n, acc in _orbit_sums(cut, system, sample, rows, schedule)]
                assert [n for n, _ in got] == schedule
                for (_, acc), (_, reference) in zip(got, expected):
                    assert acc.tobytes() == reference.tobytes()
                n, reference = expected[-1]
                averaged = Average(cut, system, n).values(sample, rows)
                assert averaged.tobytes() == (reference / n).tobytes()
            streamed = streamed_average_matrices(cut, system, sample, schedule)
            full = stepwise_orbit_sums(cut, system, sample, np.arange(m), schedule)
            for (n, values), (_, reference) in zip(streamed, full, strict=True):
                assert values.tobytes() == _symmetrize(reference / n).tobytes()

    @pytest.mark.parametrize("keys_per_chunk", [1, 13 * 192], ids=["64_steps", "192_steps"])
    def test_chunk_edges(self, monkeypatch, keys_per_chunk):
        monkeypatch.setattr(semimetric, "_CUT_KEYS", keys_per_chunk)
        rows = np.array([7, 0, 7, 12])
        for name, system, cut in CUT_CASES:
            if not system.is_symbolic:
                continue
            sample = sample_points(system, 13, 5)
            for schedule in ([63, 64, 65, 191, 193, 400], SCHEDULES["doubling"]):
                got = [acc.copy() for _, acc in _orbit_sums(cut, system, sample, rows, schedule)]
                expected = stepwise_orbit_sums(cut, system, sample, rows, schedule)
                assert [a.tobytes() for a in got] == [b.tobytes() for _, b in expected], name


class TestCutGuards:
    @pytest.mark.parametrize("cut", [FirstSymbolCut(), Block(FirstSymbols(3))],
                             ids=["first_symbol_cut", "first_symbols-3"])
    @pytest.mark.parametrize("schedule", [[130], [64, 130]], ids=["first", "later"])
    def test_one_symbol_short_raises_at_that_increment(self, cut, schedule):
        need = schedule[-1] - 1 + cut.symbol_horizon()
        short = BernoulliShift([0.5, 0.5], horizon=need - 1)
        sample = sample_points(short, 6, 2)
        rows = np.arange(6)
        for sums in (_orbit_sums(cut, short, sample, rows, schedule),
                     stepwise_orbit_sums(cut, short, sample, rows, schedule)):
            for n in schedule[:-1]:
                assert next(sums)[0] == n
            with pytest.raises(HorizonError):
                next(sums)
        exact = replace(short, horizon=need)
        sample = sample_points(exact, 6, 2)
        got = [acc.copy() for _, acc in _orbit_sums(cut, exact, sample, rows, schedule)]
        expected = [acc for _, acc in stepwise_orbit_sums(cut, exact, sample, rows, schedule)]
        assert [a.tobytes() for a in got] == [b.tobytes() for b in expected]

    @pytest.mark.parametrize("symbols", [
        np.arange(-100, 101, dtype=np.int8), np.arange(-7, 3),
        np.array([-2**63, -1, 0, 2**63 - 1]), np.array([-0.75, -0.5, -0.25, 0.0, 0.25, 0.5]),
    ], ids=["int8", "int64", "int64-full-range", "float64"])
    def test_negative_symbols(self, symbols):
        system = BernoulliShift([0.5, 0.5], horizon=64)
        rng = np.random.default_rng(4)
        a, b = rng.choice(symbols, 70), rng.choice(symbols, 70)
        b[::3] = a[::3]
        a[1], b[1] = symbols[0], symbols[-1]  # 2**64 - 1 apart in the full range
        n = 40
        pair = PointSample(symbols=np.stack([a, b]))
        _, reference = next(stepwise_orbit_sums(
            FirstSymbolCut(), system, pair, np.array([0]), [n]))
        assert rho(Average(FirstSymbolCut(), system, n), pair) == reference[0, 1] / n

    def test_empty_sample(self):
        system = BernoulliShift([0.5, 0.5], horizon=20)
        empty = PointSample(symbols=np.zeros((0, 20), dtype=np.int8))
        assert Average(FirstSymbolCut(), system, 8).pairwise(empty).shape == (0, 0)

    def test_long_increment_memory_is_chunked(self):
        import tracemalloc

        m, n = 32, 131072
        system = BernoulliShift([0.5, 0.5], horizon=n)
        sample = sample_points(system, m, 6)
        tracemalloc.start()
        try:
            _, acc = next(_orbit_sums(FirstSymbolCut(), system, sample, np.arange(m), [n]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one int64 key per point and step would need 8 * m * n bytes
        assert peak < m * n
        s = sample.symbols[:, :n]
        assert np.array_equal(acc, [np.count_nonzero(s[i] != s, axis=1) for i in range(m)])

    def test_window_keys_equal_stepped_keys(self):
        cuts = {
            FirstSymbolCut: [FirstSymbolCut()],
            Block: [Block(FirstSymbols(count, 3)) for count in (1, 2, 3)]
            + [Block(OneBlock())],
        }
        assert set(cuts) == {cls for cls in _NODES.values() if issubclass(cls, _Cut)}
        system = BernoulliShift([0.2, 0.3, 0.5], horizon=40)
        sample = advance_sample(sample_points(system, 9, 8), 3, system)
        for cut in (cut for group in cuts.values() for cut in group):
            for start in (0, 7):
                keys = _window_keys(cut, sample, start, 30)
                for k in range(start, 30):
                    stepped = cut.keys(advance_sample(sample, k, system))
                    assert np.array_equal(keys[:, k - start], stepped), (cut.label(), k)


def _tile_cases():
    cases = []
    for name, system in (("anzai", AnzaiSkew()), ("rotation", CircleRotation())):
        nodes = {
            "euclidean_1d": Euclidean1D(), "torus_arc_l1": TorusArcL1(),
            **{tag: ClosedForm(tag) for tag in CLOSED_FORMS},
            "mix": Mix(Euclidean1D(), CircleArc(), 0.3), "cutoff": Cutoff(TorusArcL1(), 0.2),
            "pull_back": PullBack(TorusArcL1(), system, 3),
            "average": Average(TorusArcL1(), system, 3),
            "discrete": Discrete(), "dyadic": Block(DyadicIntervals(3)),
        }
        cases += [(f"{key}-{name}", system, node) for key, node in nodes.items()]
    shift = BernoulliShift([0.5, 0.5], horizon=40)
    nodes = {
        "discrete": Discrete(), "mix_of_cuts": Mix(FirstSymbolCut(), Block(FirstSymbols(2)), 0.5),
        "first_symbol_cut": FirstSymbolCut(), "first_symbols": Block(FirstSymbols(3)),
    }
    return cases + [(f"{key}-shift", shift, node) for key, node in nodes.items()]


TILE_CASES = _tile_cases()


class TestTiles:
    """Whole matrices summed in upper-triangle row blocks against the
    step-by-step sums of whole rows, bit for bit."""

    @pytest.mark.parametrize("tile", [4, 64])
    @pytest.mark.parametrize("system, node", [case[1:] for case in TILE_CASES],
                             ids=[case[0] for case in TILE_CASES])
    def test_whole_matrix_matches_stepwise_rows(self, monkeypatch, tile, system, node):
        monkeypatch.setattr(semimetric, "_TILE", tile)
        schedule = [1, 3, 8]
        for m in (1, 2, tile - 1, tile + 1, 3 * tile + 5):
            sample = sample_points(system, m, 9)
            full = list(stepwise_orbit_sums(node, system, sample, np.arange(m), schedule))
            got = [(n, acc.copy()) for n, acc in _orbit_sums(node, system, sample, None, schedule)]
            assert [n for n, _ in got] == schedule
            for (_, acc), (_, reference) in zip(got, full):
                assert np.triu(acc).tobytes() == np.triu(reference).tobytes()
            streamed = streamed_average_matrices(node, system, sample, schedule)
            for (n, values), (_, reference) in zip(streamed, full, strict=True):
                assert values.tobytes() == mirror_upper(reference / n).tobytes()
                assert Average(node, system, n).pairwise(sample).tobytes() == values.tobytes()
            assert node.pairwise(sample).tobytes() == mirror_upper(full[0][1]).tobytes()

    def test_explicit_rows_stay_whole_rows(self, monkeypatch):
        monkeypatch.setattr(semimetric, "_TILE", 4)
        rows = np.array([22, 0, 5, 5, 17])
        anzai, shift = AnzaiSkew(), BernoulliShift([0.5, 0.5], horizon=40)
        for system, node in ((anzai, TorusArcL1()), (anzai, Average(TorusArcL1(), anzai, 3)),
                             (shift, FirstSymbolCut()), (shift, Discrete())):
            sample = sample_points(system, 23, 4)
            _, reference = next(stepwise_orbit_sums(node, system, sample, rows, [6]))
            _, acc = next(_orbit_sums(node, system, sample, rows, [6]))
            assert acc.tobytes() == reference.tobytes()
            got = Average(node, system, 6).values(sample, rows)
            assert got.shape == (5, 23)
            assert got.tobytes() == (reference / 6).tobytes()
            assert np.count_nonzero(got[0, :22]), node.label()  # row 22 below the diagonal


class TestDiscrete:
    @pytest.mark.parametrize("rows", [None, [17, 0, 5, 5, 39]], ids=["all", "subset"])
    def test_matches_broadcast_expression(self, rows):
        coords = sample_points(AnzaiSkew(), 40, 3)
        shift = BernoulliShift([0.5, 0.5], horizon=6)
        symbols = sample_points(shift, 40, 3)
        repeated = PointSample(symbols=symbols.symbols[np.arange(40) % 13])
        rows = np.arange(40) if rows is None else np.array(rows)
        for sample in (coords, symbols, repeated, advance_sample(repeated, 2, shift)):
            got = Discrete().values(sample, rows)
            assert got.tobytes() == discrete_by_broadcast(sample, rows).tobytes()

    def test_symbolic_memory_is_not_cubic(self):
        import tracemalloc

        sample = sample_points(BernoulliShift([0.5, 0.5], horizon=1026), 128, 1)
        tracemalloc.start()
        try:
            Discrete().values(sample, np.arange(128))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a broadcast comparison of whole windows needs m * m * window bytes
        assert peak < 128 * 128 * 1026 / 4


class TestCutoffAndMix:
    def test_below_cap(self, euclid):
        assert rho(Cutoff(euclid, 10.0), pts(0.2, 0.7)) == pytest.approx(0.5, abs=1e-15)

    def test_cap_enforced(self, euclid, identity):
        capped = Cutoff(euclid, 0.3)
        sample = sample_points(identity, 64, 6)
        assert capped.pairwise(sample).max() <= 0.3

    def test_monotone_in_level(self, euclid, identity):
        sample = sample_points(identity, 64, 6)
        low = Cutoff(euclid, 0.2).pairwise(sample)
        high = Cutoff(euclid, 0.5).pairwise(sample)
        full = euclid.pairwise(sample)
        assert np.all(low <= high + 1e-15)
        assert np.all(high <= full + 1e-15)

    def test_bad_level(self, euclid):
        with pytest.raises(ParameterError):
            Cutoff(euclid, 0.0)

    def test_cone_closure(self, euclid, arc, identity):
        sample = sample_points(identity, 40, 7)
        for t in (0.0, 0.25, 0.5, 0.9, 1.0):
            report = check_axioms(Mix(euclid, arc, t), sample, tol=1e-9)
            assert report.triangle_defect <= 1e-9
            assert report.symmetry_violation == 0.0


class TestCheckAxioms:
    def test_euclidean_is_metric(self, euclid, identity):
        report = check_axioms(euclid, sample_points(identity, 30, 1))
        assert report.triangle_defect <= 1e-12

    def test_mean_of_two_semimetrics(self, euclid, identity):
        blocks = Block(DyadicIntervals(2))
        report = check_axioms(Mix(euclid, blocks, 0.5), sample_points(identity, 30, 1))
        assert report.triangle_defect <= 1e-9

    def test_squared_difference_violates_triangle(self):
        squared = ClosedForm("squared_abs_diff")
        sample = coords_sample([0.0, 0.5, 0.9999])
        report = check_axioms(squared, sample, tol=1e-9)
        # 0 -> 1 directly costs ~1, via the midpoint only ~0.5
        assert report.triangle_defect >= 0.4
        assert not report.ok

    def test_large_sample_uses_random_triples(self, euclid, identity):
        report = check_axioms(euclid, sample_points(identity, 200, 2))
        assert report.triples_checked == 100_000
        assert report.triangle_defect <= 1e-12


class TestDistanceMatrix:
    def test_single_point(self, euclid):
        sample = coords_sample([0.4])
        assert distance_matrix(euclid, sample).values.shape == (1, 1)
        assert distance_matrix(euclid, sample).values[0, 0] == 0.0

    def test_hand_computed(self, euclid):
        sample = coords_sample([0.0, 0.5, 1.0])
        expected = np.array([[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]])
        assert np.allclose(distance_matrix(euclid, sample).values, expected)

    def test_average_cut_is_prefix_hamming(self, cut):
        system = BernoulliShift([0.5, 0.5], horizon=40)
        sample = sample_points(system, 6, 10)
        n = 24
        values = distance_matrix(average_metric(cut, system, n), sample).values
        window = sample.symbols[:, :n]
        for i in range(6):
            for j in range(6):
                expected = np.mean(window[i] != window[j])
                assert values[i, j] == pytest.approx(expected, abs=1e-12)


class TestSerialization:
    def test_nested_roundtrip(self, euclid):
        system = CircleRotation()
        metric = average_metric(Cutoff(euclid, 0.8), system, 16)
        blob = json.dumps(metric.to_json())
        again = Semimetric.from_json(json.loads(blob))
        assert again.label() == metric.label()
        sample = sample_points(system, 10, 4)
        assert np.array_equal(again.pairwise(sample), metric.pairwise(sample))

    def test_block_partition_roundtrip(self):
        metric = Block(FirstSymbols(2, alphabet=3))
        again = Semimetric.from_json(metric.to_json())
        assert again.label() == metric.label()


# One instance of each node type with the literal label and JSON that result
# files carry (rows.csv, estimates.csv, config.json, profile.json).
GOLDEN = [
    (lambda: Euclidean1D(), "euclidean_1d", '{"type": "Euclidean1D"}'),
    (lambda: CircleArc(), "circle_arc", '{"type": "CircleArc"}'),
    (lambda: TorusArcL1(), "torus_arc_l1", '{"type": "TorusArcL1"}'),
    (lambda: FirstSymbolCut(), "first_symbol_cut",
     '{"type": "FirstSymbolCut"}'),
    (lambda: Discrete(), "discrete", '{"type": "Discrete"}'),
    (lambda: Zero(), "zero", '{"type": "Zero"}'),
    (lambda: ClosedForm("abs_plus_square"), "ClosedForm[abs_plus_square]",
     '{"tag": "abs_plus_square", "type": "ClosedForm"}'),
    (lambda: Block(FirstSymbols(2, alphabet=3)),
     "Block[first_symbols;count=2;alphabet=3]",
     '{"partition": {"alphabet": 3, "count": 2, "kind": "first_symbols"}, "type": "Block"}'),
    (lambda: Cutoff(Euclidean1D(), 0.3),
     "Cutoff[euclidean_1d;level=0.29999999999999999]",
     '{"inner": {"type": "Euclidean1D"}, "level": 0.3, "type": "Cutoff"}'),
    (lambda: Mix(Euclidean1D(), CircleArc(), 0.25),
     "Mix[euclidean_1d;circle_arc;t=0.25]",
     '{"a": {"type": "Euclidean1D"}, "b": {"type": "CircleArc"}, "t": 0.25, "type": "Mix"}'),
    (lambda: PullBack(CircleArc(), CircleRotation(0.2), 3),
     "PullBack[circle_arc;k=3;CircleRotation[alpha=0.20000000000000001]]",
     '{"inner": {"type": "CircleArc"}, "k": 3, '
     '"system": {"alpha": 0.2, "kind": "CircleRotation"}, "type": "PullBack"}'),
    (lambda: average_metric(FirstSymbolCut(),
                            BernoulliShift([0.5, 0.5], horizon=64), 8),
     "Average[first_symbol_cut;n=8;BernoulliShift[weights=0.5;0.5]]",
     '{"inner": {"type": "FirstSymbolCut"}, "n": 8, '
     '"system": {"horizon": 64, "kind": "BernoulliShift", "weights": [0.5, 0.5]}, '
     '"type": "Average"}'),
    (lambda: Block(DyadicIntervals(3)),
     "Block[dyadic_intervals;level=3]",
     '{"partition": {"kind": "dyadic_intervals", "level": 3}, "type": "Block"}'),
    (lambda: Block(OneBlock()), "Block[one_block;blocks=1]",
     '{"partition": {"kind": "one_block"}, "type": "Block"}'),
    # and one instance of each system kind
    (lambda: CircleRotation(0.25), "CircleRotation[alpha=0.25]",
     '{"alpha": 0.25, "kind": "CircleRotation"}'),
    (lambda: TorusTranslation(0.3, 0.7),
     "TorusTranslation[alpha=0.29999999999999999;beta=0.69999999999999996]",
     '{"alpha": 0.3, "beta": 0.7, "kind": "TorusTranslation"}'),
    (lambda: AnzaiSkew(0.21), "AnzaiSkew[alpha=0.20999999999999999]",
     '{"alpha": 0.21, "kind": "AnzaiSkew"}'),
    (lambda: BernoulliShift([0.9, 0.1], horizon=64),
     "BernoulliShift[weights=0.90000000000000002;0.10000000000000001]",
     '{"horizon": 64, "kind": "BernoulliShift", "weights": [0.9, 0.1]}'),
    (lambda: Identity(), "Identity", '{"kind": "Identity"}'),
]


class TestGoldenStrings:
    @pytest.mark.parametrize("make, label, blob", GOLDEN, ids=[g[1] for g in GOLDEN])
    def test_label_and_json(self, make, label, blob):
        obj = make()
        assert obj.label() == label
        assert json.dumps(obj.to_json(), sort_keys=True) == blob
        again = type(obj).from_json(json.loads(blob))
        assert again == obj
        assert again.label() == label
