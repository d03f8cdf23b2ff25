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
    Partition,
    PullBack,
    Semimetric,
    SystemSpec,
    TorusTranslation,
    ball_mass_test,
    distance_matrix,
    eps_entropy_cover,
    sample_points,
    trace_from_matrix,
)

from orbent import semimetric
from orbent.dynsys import advance_sample
from orbent.semimetric import (
    CLOSED_FORMS,
    Average,
    CircleArc,
    Discrete,
    DistanceMatrix,
    Euclidean1D,
    FirstSymbolCut,
    TorusArcL1,
    Zero,
    _Arc,
    _Cut,
    _differences,
    _orbit_means,
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
    return np.array([[int(b) for b in word] for word in words], dtype=np.int8)


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
        sample = sample_points(rotation, 32, 2)
        assert Average(euclid, rotation, 1).pairwise(sample).tobytes() \
            == euclid.pairwise(sample).tobytes()

    def test_identity_fixed_point(self, euclid, identity):
        averaged = Average(euclid, identity, 9)
        sample = sample_points(identity, 32, 2)
        assert np.array_equal(averaged.pairwise(sample), euclid.pairwise(sample))

    @pytest.mark.parametrize("n", [3, 7])
    @pytest.mark.parametrize("metric, points", [
        (Euclidean1D(), Identity()), (CircleArc(), Identity()),
        (FirstSymbolCut(), BernoulliShift([0.5, 0.5], horizon=8)),
    ], ids=["euclid", "arc", "cut-on-shift-sample"])
    def test_identity_average_is_exact(self, metric, points, identity, n):
        sample = sample_points(points, 256, 5)
        expected = metric.pairwise(sample).tobytes()
        assert Average(metric, identity, n).pairwise(sample).tobytes() == expected
        _, streamed = next(streamed_average_matrices(metric, identity, sample, [n]))
        assert streamed.values.tobytes() == expected

    def test_identity_acts_on_shift_samples(self, identity):
        sample = sample_points(BernoulliShift([0.5, 0.5], horizon=8), 16, 4)
        expected = FirstSymbolCut().pairwise(sample)
        for node in (Average(FirstSymbolCut(), identity, 3),
                     PullBack(FirstSymbolCut(), identity, 2)):
            assert np.array_equal(node.pairwise(sample), expected)

    def test_rotation_average_approaches_closed_form(self, euclid, rotation):
        # oracle: integral of |{x+t} - {y+t}| over a full turn is 2d(1-d)
        averaged = Average(euclid, rotation, 4096)
        sample = sample_points(rotation, 64, 9)
        values = averaged.pairwise(sample)
        x = sample[:, 0]
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
        averaged = Average(arc, rotation, n)
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
            avg_n = Average(metric, system, n)
            avg_prev = Average(metric, system, n - 1)
            pulled = PullBack(metric, system, n - 1)
            lhs = n * avg_n.pairwise(sample)
            rhs = (n - 1) * avg_prev.pairwise(sample) + pulled.pairwise(sample)
            assert np.abs(lhs - rhs).max() <= 1e-9

    def test_shift_average_is_prefix_hamming(self, cut):
        system = BernoulliShift([0.5, 0.5], horizon=24)
        a, b = "0110100110101011", "0101001101011010"
        n = 12
        averaged = Average(cut, system, n)
        expected = np.mean([a[k] != b[k] for k in range(n)])
        assert rho(averaged, syms(a, b)) == pytest.approx(expected, abs=1e-12)

    def test_streamed_matrices_match_one_shot(self, euclid, rotation):
        sample = sample_points(rotation, 24, 8)
        streamed = dict(streamed_average_matrices(euclid, rotation, sample, [1, 4, 16]))
        for n, matrix in streamed.items():
            direct = Average(euclid, rotation, n).pairwise(sample)
            assert np.array_equal(matrix.values, direct)

    @pytest.mark.parametrize("schedule", [[], [0, 4], [4, 1], [1, 4, 4]],
                             ids=["empty", "zero", "descending", "repeated"])
    def test_streamed_matrices_refuse_a_bad_schedule(self, euclid, rotation, schedule):
        # the one schedule rule: nonempty, entries >= 1, strictly increasing
        sample = sample_points(rotation, 8, 8)
        with pytest.raises(ParameterError, match="n schedule"):
            next(streamed_average_matrices(euclid, rotation, sample, schedule))


class TestCoordinateKernels:
    """The buffered kernels against the plain broadcast expressions, bit for bit."""

    @pytest.mark.parametrize("rows", [None, [17, 0, 5, 5, 39]], ids=["all", "subset"])
    def test_match_broadcast_expressions(self, rows):
        c = sample_points(AnzaiSkew(), 40, 11)
        rows = np.arange(len(c)) if rows is None else np.array(rows)
        first = np.abs(c[rows, None, 0] - c[None, :, 0])
        torus = np.zeros((len(rows), len(c)))
        for j in range(c.shape[1]):
            d = np.abs(c[rows, None, j] - c[None, :, j])
            torus += np.minimum(d, 1.0 - d)
        expected = {
            Euclidean1D(): first,
            CircleArc(): np.minimum(first, 1.0 - first),
            TorusArcL1(): torus,
        }
        for metric, reference in expected.items():
            got = metric.values(c, rows)
            assert got.shape == reference.shape
            assert got.tobytes() == reference.tobytes(), metric.label()


def _difference_inputs():
    rng = np.random.default_rng(5)
    uniform = rng.random(40)
    below_one = np.nextafter(1.0, 0.0)
    return {
        "uniform": uniform,
        "cubed": rng.random(40) ** 3,
        "near_one": 1.0 - 1e-9 * rng.random(40),
        "repeated": np.repeat(rng.random(5), 8),
        "neighbours": np.concatenate([uniform[:20], np.nextafter(uniform[:20], 1.0)]),
        "zero_and_below_one": np.array([0.0, below_one, 0.0, below_one, 0.5, 1e-300]),
    }


DIFFERENCE_INPUTS = _difference_inputs()
CLOSED_FORM_INPUTS = {
    **DIFFERENCE_INPUTS,
    "signed_zero": np.array([-0.0, 0.0, 0.5, -0.0]),
    "block_64x512": np.random.default_rng(9).random(512),
}


def _mean_rotated_abs_diff(a, b):
    d = np.abs(a - b)
    return 2.0 * d * (1.0 - d)


# each closed form's values on the pairs (a, b) as a plain broadcast expression
BROADCAST_CLOSED_FORMS = {
    "mean_rotated_abs_diff": _mean_rotated_abs_diff,
    "abs_plus_square": lambda a, b: np.abs(a - b) + np.abs(a * a - b * b),
    "squared_abs_diff": lambda a, b: (a - b) ** 2,
}


class TestDifferences:
    """The rank-2 product against NumPy's broadcast subtraction, bit for bit,
    whatever order BLAS adds in: CI runs this class with one BLAS thread too."""

    @staticmethod
    def assert_exact(u, v):
        want = u[..., :, None] - v[..., None, :]
        got = _differences(u, v)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        out = np.empty_like(want)
        assert _differences(u, v, out=out) is out
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("u_name", DIFFERENCE_INPUTS)
    @pytest.mark.parametrize("v_name", DIFFERENCE_INPUTS)
    def test_one_dimensional(self, u_name, v_name):
        u, v = DIFFERENCE_INPUTS[u_name], DIFFERENCE_INPUTS[v_name]
        self.assert_exact(u, v)
        self.assert_exact(u[:1], v)  # R = 1
        self.assert_exact(u, v[-1:])  # W = 1
        self.assert_exact(u[3:7], v[::-1])

    @pytest.mark.parametrize("name", DIFFERENCE_INPUTS)
    def test_batched(self, name):
        x = DIFFERENCE_INPUTS[name]
        stacked = np.stack([x, x[::-1], np.roll(x, 3)])
        self.assert_exact(stacked, stacked)
        self.assert_exact(stacked[:, :1], stacked)
        self.assert_exact(stacked, stacked[:, 2:3])
        self.assert_exact(stacked.reshape(3, 1, -1), stacked.reshape(1, 3, -1)[:, :, ::2])

    def test_large_product(self):
        # large enough that a threaded BLAS may split the product
        rng = np.random.default_rng(8)
        self.assert_exact(rng.random(300), rng.random(700) ** 3)

    @pytest.mark.parametrize("tag", CLOSED_FORMS)
    @pytest.mark.parametrize("name", CLOSED_FORM_INPUTS)
    def test_closed_form_matches_broadcast(self, tag, name):
        # each closed form reads differences from the exact products; abs and
        # squares drop the sign of a zero, so a -0.0 coordinate changes nothing
        u = CLOSED_FORM_INPUTS[name]
        rows = np.arange(min(64, u.size))[::-1]
        for coords in (u, np.stack([u, u[::-1]])):
            want = BROADCAST_CLOSED_FORMS[tag](coords[..., rows, None], coords[..., None, :])
            got = ClosedForm(tag).values(coords[..., None], rows)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


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
                got = list(_orbit_means(cut, system, sample, rows, schedule))
                assert [n for n, _ in got] == schedule
                for (n, mean), (_, reference) in zip(got, expected):
                    assert mean.tobytes() == (reference / n).tobytes()
                n, reference = expected[-1]
                averaged = Average(cut, system, n).values(sample, rows)
                assert averaged.tobytes() == (reference / n).tobytes()
            streamed = streamed_average_matrices(cut, system, sample, schedule)
            full = stepwise_orbit_sums(cut, system, sample, np.arange(m), schedule)
            for (n, matrix), (_, reference) in zip(streamed, full, strict=True):
                assert matrix.values.tobytes() == mirror_upper(reference / n).tobytes()

    @pytest.mark.parametrize("keys_per_chunk", [1, 13 * 192], ids=["64_steps", "192_steps"])
    def test_chunk_edges(self, monkeypatch, keys_per_chunk):
        monkeypatch.setattr(semimetric, "_CUT_KEYS", keys_per_chunk)
        rows = np.array([7, 0, 7, 12])
        for name, system, cut in CUT_CASES:
            if not system.is_symbolic:
                continue
            sample = sample_points(system, 13, 5)
            for schedule in ([63, 64, 65, 191, 193, 400], SCHEDULES["doubling"]):
                got = [mean for _, mean in _orbit_means(cut, system, sample, rows, schedule)]
                expected = stepwise_orbit_sums(cut, system, sample, rows, schedule)
                assert [a.tobytes() for a in got] == [(b / n).tobytes() for n, b in expected], name


class TestCutGuards:
    @pytest.mark.parametrize("cut", [FirstSymbolCut(), Block(FirstSymbols(3))],
                             ids=["first_symbol_cut", "first_symbols-3"])
    @pytest.mark.parametrize("schedule", [[130], [64, 130]], ids=["first", "later"])
    def test_one_symbol_short_raises_at_that_increment(self, cut, schedule):
        need = schedule[-1] - 1 + cut.symbol_horizon()
        short = BernoulliShift([0.5, 0.5], horizon=need - 1)
        sample = sample_points(short, 6, 2)
        rows = np.arange(6)
        for sums in (_orbit_means(cut, short, sample, rows, schedule),
                     stepwise_orbit_sums(cut, short, sample, rows, schedule)):
            for n in schedule[:-1]:
                assert next(sums)[0] == n
            with pytest.raises(HorizonError):
                next(sums)
        exact = replace(short, horizon=need)
        sample = sample_points(exact, 6, 2)
        got = [mean for _, mean in _orbit_means(cut, exact, sample, rows, schedule)]
        expected = stepwise_orbit_sums(cut, exact, sample, rows, schedule)
        assert [a.tobytes() for a in got] == [(b / n).tobytes() for n, b in expected]

    @pytest.mark.parametrize("symbols", [
        np.arange(-100, 101, dtype=np.int8), np.arange(-7, 3),
        np.array([-2**63, -1, 0, 2**63 - 1]),
    ], ids=["int8", "int64", "int64-full-range"])
    def test_negative_symbols(self, symbols):
        system = BernoulliShift([0.5, 0.5], horizon=64)
        rng = np.random.default_rng(4)
        a, b = rng.choice(symbols, 70), rng.choice(symbols, 70)
        b[::3] = a[::3]
        a[1], b[1] = symbols[0], symbols[-1]  # 2**64 - 1 apart in the full range
        n = 40
        pair = np.stack([a, b])
        _, reference = next(stepwise_orbit_sums(
            FirstSymbolCut(), system, pair, np.array([0]), [n]))
        assert rho(Average(FirstSymbolCut(), system, n), pair) == reference[0, 1] / n

    def test_float_symbols_are_refused(self):
        # a float array is a coordinate sample, which a cut of symbols cannot read
        system = BernoulliShift([0.5, 0.5], horizon=64)
        pair = np.array([[-0.75, 0.5] * 35, [-0.5, 0.5] * 35])
        with pytest.raises(MetricTypeError, match="symbolic"):
            rho(Average(FirstSymbolCut(), system, 40), pair)

    @pytest.mark.parametrize("bad", [[0, 2], [-1, 0]], ids=["past-alphabet", "negative"])
    def test_first_symbols_refuses_symbols_outside_the_alphabet(self, bad):
        # with alphabet 2, the words [0, 2] and [1, 0] would both be block 2
        partition = FirstSymbols(2, alphabet=2)
        sample = np.array([bad, [1, 0]], dtype=np.int8)
        with pytest.raises(ParameterError, match=r"\[0, 2\)"):
            partition.assign_indices(sample)
        # symbols past the first ``count`` are not read
        unread = np.array([[0, 1, 5], [1, 0, -3]], dtype=np.int8)
        assert partition.assign_indices(unread).tolist() == [1, 2]

    def test_empty_sample(self):
        system = BernoulliShift([0.5, 0.5], horizon=20)
        empty = np.zeros((0, 20), dtype=np.int8)
        assert Average(FirstSymbolCut(), system, 8).pairwise(empty).shape == (0, 0)

    def test_long_increment_memory_is_chunked(self):
        import tracemalloc

        m, n = 32, 131072
        system = BernoulliShift([0.5, 0.5], horizon=n)
        sample = sample_points(system, m, 6)
        tracemalloc.start()
        try:
            _, mean = next(_orbit_means(FirstSymbolCut(), system, sample, np.arange(m), [n]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one int64 key per point and step would need 8 * m * n bytes
        assert peak < m * n
        s = sample[:, :n]
        counts = np.array([np.count_nonzero(s[i] != s, axis=1) for i in range(m)])
        assert mean.tobytes() == (counts / n).tobytes()

    def test_window_keys_equal_stepped_keys(self):
        cuts = {
            FirstSymbolCut: [FirstSymbolCut()],
            Block: [Block(FirstSymbols(count, 3)) for count in (1, 2, 3)]
            + [Block(OneBlock())],
        }
        assert set(cuts) == {cls for cls in Semimetric.registry.values() if issubclass(cls, _Cut)}
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
    for name, system in (("anzai", AnzaiSkew()), ("rotation", CircleRotation()),
                         ("torus", TorusTranslation())):
        nodes = {
            "euclidean_1d": Euclidean1D(), "torus_arc_l1": TorusArcL1(), "circle_arc": CircleArc(),
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


def _arc_moved(system, node):
    """Whether ``system``'s linear part moves a coordinate that the arc node
    reads: only y under the Anzai skew, which ``TorusArcL1`` reads."""
    return isinstance(system, AnzaiSkew) and isinstance(node, TorusArcL1)


def _same(got, want, exact):
    """``got`` equals ``want`` bit for bit, or within 1e-12 where not ``exact``."""
    if exact:
        return got.tobytes() == want.tobytes()
    return got.shape == want.shape and np.abs(got - want).max() <= 1e-12


class TestTiles:
    """Whole matrices summed in upper-triangle row blocks against the
    step-by-step sums of whole rows, bit for bit.  An arc node is its own
    values at every n where the map's linear part fixes what it reads, and
    within 1e-12 of the step-by-step sums, bit for bit at n = 1, where it
    moves them."""

    @pytest.mark.parametrize("tile", [4, 64])
    @pytest.mark.parametrize("system, node", [case[1:] for case in TILE_CASES],
                             ids=[case[0] for case in TILE_CASES])
    def test_whole_matrix_matches_stepwise_rows(self, monkeypatch, tile, system, node):
        monkeypatch.setattr(semimetric, "_TILE", tile)
        moved = _arc_moved(system, node)
        fixed_point = isinstance(node, _Arc) and not moved
        schedule = [1, 7, 1024] if moved else [1, 3, 8]
        for m in (1, 2, tile - 1, tile + 1, 3 * tile + 5):
            sample = sample_points(system, m, 9)
            full = list(stepwise_orbit_sums(node, system, sample, np.arange(m), schedule))
            expected = [(n, full[0][1] if fixed_point else reference / n, n == 1 or not moved)
                        for n, reference in full]
            got = list(_orbit_means(node, system, sample, None, schedule))
            assert [n for n, _ in got] == schedule
            for (n, mean), (_, want, exact) in zip(got, expected):
                assert _same(np.triu(mean), np.triu(want), exact), n
            streamed = streamed_average_matrices(node, system, sample, schedule)
            for (n, matrix), (_, want, exact) in zip(streamed, expected, strict=True):
                values = matrix.values
                assert _same(values, mirror_upper(want), exact), n
                assert Average(node, system, n).pairwise(sample).tobytes() == values.tobytes()
                if fixed_point:
                    assert values.tobytes() == node.pairwise(sample).tobytes()
            assert node.pairwise(sample).tobytes() == mirror_upper(full[0][1]).tobytes()

    def test_explicit_rows_stay_whole_rows(self, monkeypatch):
        monkeypatch.setattr(semimetric, "_TILE", 4)
        rows = np.array([22, 0, 5, 5, 17])
        anzai, shift = AnzaiSkew(), BernoulliShift([0.5, 0.5], horizon=40)
        for system, node in ((anzai, TorusArcL1()), (anzai, Average(TorusArcL1(), anzai, 3)),
                             (shift, FirstSymbolCut()), (shift, Discrete())):
            sample = sample_points(system, 23, 4)
            _, reference = next(stepwise_orbit_sums(node, system, sample, rows, [6]))
            _, mean = next(_orbit_means(node, system, sample, rows, [6]))
            assert _same(mean, reference / 6, not _arc_moved(system, node)), node.label()
            got = Average(node, system, 6).values(sample, rows)
            assert got.shape == (5, 23)
            assert got.tobytes() == mean.tobytes()
            assert np.count_nonzero(got[0, :22]), node.label()  # row 22 below the diagonal
            fixed = Average(node, Identity(), 6).values(sample, rows)
            assert fixed.tobytes() == node.values(sample, rows).tobytes(), node.label()


class TestLinearPart:
    """Arc nodes averaged along the linear part of an affine torus map.  CI
    runs this class with one BLAS thread too: its bit-for-bit claims rest on
    the exactness of ``_differences``."""

    LINEAR = {"rotation": CircleRotation(), "torus": TorusTranslation(), "anzai": AnzaiSkew()}

    def test_declared_by_the_coordinate_maps_alone(self):
        declared = {cls for cls in SystemSpec.registry.values() if cls.shear is not None}
        assert declared == {type(system) for system in self.LINEAR.values()}

    @pytest.mark.parametrize("name", LINEAR)
    def test_map_is_its_linear_part_plus_one_vector(self, name):
        # T^k p - A^k p is the same vector, modulo 1, for every point p
        system = self.LINEAR[name]
        sample = sample_points(system, 64, 3)
        for k in (1, 5, 40):
            linear = sample.copy()
            for i, j in system.shear:
                linear[:, i] += k * sample[:, j]
            offset = (advance_sample(sample, k, system) - linear) % 1.0
            d = np.abs(offset - offset[0])
            assert np.minimum(d, 1.0 - d).max() <= 1e-12, k

    @pytest.mark.parametrize("name, node", [
        ("rotation", CircleArc()), ("rotation", TorusArcL1()), ("torus", CircleArc()),
        ("torus", TorusArcL1()), ("anzai", CircleArc()),
    ])
    def test_fixed_point_is_its_values_without_a_step(self, monkeypatch, name, node):
        system = self.LINEAR[name]
        sample = sample_points(system, 128, 6)
        rows = np.array([100, 0, 7, 7, 127])
        expected = node.pairwise(sample).tobytes(), node.values(sample, rows).tobytes()
        monkeypatch.setattr(semimetric, "advance_sample", None)  # any step would fail
        for n in (1, 2, 128):
            assert Average(node, system, n).pairwise(sample).tobytes() == expected[0], n
            assert Average(node, system, n).values(sample, rows).tobytes() == expected[1], n

    def test_anzai_arc_steps_only_y_within_rounding(self, monkeypatch):
        system, node = AnzaiSkew(), TorusArcL1()
        sample = sample_points(system, 128, 6)
        rows = np.array([100, 0, 7, 7, 127])
        schedule = [1, 7, 1024]
        reference = list(stepwise_orbit_sums(node, system, sample, rows, schedule))
        monkeypatch.setattr(semimetric, "advance_sample", None)  # no full-map step
        got = list(_orbit_means(node, system, sample, rows, schedule))
        assert [n for n, _ in got] == schedule
        for (n, mean), (_, sums) in zip(got, reference):
            assert _same(mean, sums / n, n == 1), n

    @pytest.mark.parametrize("system, node", [
        (AnzaiSkew(), TorusArcL1()), (AnzaiSkew(), CircleArc()), (TorusTranslation(), CircleArc()),
    ], ids=["anzai-moved", "anzai-fixed", "torus-fixed"])
    def test_points_of_another_dimension_are_refused(self, system, node):
        with pytest.raises(ParameterError, match="2-dimensional points"):
            Average(node, system, 3).pairwise(pts(0.1, 0.4, 0.8))


class _Probe(Euclidean1D):
    """``Euclidean1D`` that records each call of its orbit sums; the leading
    underscore keeps it out of the JSON registry."""

    calls = []

    def orbit_sums(self, system, sample, tiles, schedule):
        self.calls.append((system, list(schedule)))
        yield from super().orbit_sums(system, sample, tiles, schedule)


class TestOrbitSumsExtension:
    """``orbit_sums`` is the one place a node changes how its orbit is summed."""

    def test_an_override_is_reached_by_every_average(self):
        assert "_Probe" not in Semimetric.registry
        system, probe, plain = CircleRotation(), _Probe(), Euclidean1D()
        sample = sample_points(system, 9, 3)
        rows = np.array([4, 0, 8])
        _Probe.calls.clear()
        got = Average(probe, system, 5).values(sample, rows)
        assert got.tobytes() == Average(plain, system, 5).values(sample, rows).tobytes()
        assert _Probe.calls == [(system, [5])]
        _Probe.calls.clear()
        got = Average(probe, system, 5).pairwise(sample)
        assert got.tobytes() == Average(plain, system, 5).pairwise(sample).tobytes()
        assert _Probe.calls and all(call == (system, [5]) for call in _Probe.calls)
        _Probe.calls.clear()
        schedule = [1, 3, 8]
        got = list(streamed_average_matrices(probe, system, sample, schedule))
        want = list(streamed_average_matrices(plain, system, sample, schedule))
        assert ([(n, d.values.tobytes()) for n, d in got]
                == [(n, d.values.tobytes()) for n, d in want])
        assert _Probe.calls == [(system, schedule)]

    def test_every_override_has_bit_for_bit_cases(self):
        overriding = {cls for cls in Semimetric.registry.values()
                      if cls.orbit_sums is not Semimetric.orbit_sums}
        assert overriding >= {CircleArc, TorusArcL1, FirstSymbolCut, Block}
        assert overriding <= {type(case[-1]) for case in TILE_CASES + CUT_CASES}


def _block_cases():
    shift = BernoulliShift([0.5, 0.5], horizon=90)
    extra = [("average_of_cut-shift", shift, Average(FirstSymbolCut(), shift, 70)),
             ("average_of_block-shift", shift, Average(Block(FirstSymbols(2)), shift, 5))]
    return TILE_CASES + extra


class TestConsecutiveBlocks:
    """A block of consecutive points of one sample's matrix is that block's
    own matrix, bit for bit, as the separated-set test reads it."""

    @pytest.mark.parametrize("tile", [4, 64])
    @pytest.mark.parametrize("system, node", [case[1:] for case in _block_cases()],
                             ids=[case[0] for case in _block_cases()])
    def test_block_of_pairwise_is_the_blocks_own(self, monkeypatch, tile, system, node):
        monkeypatch.setattr(semimetric, "_TILE", tile)
        blocks = [sample_points(system, 9, seed) for seed in (1, 2, 3, 4)]
        whole = node.pairwise(np.concatenate(blocks))
        assert whole.shape == (36, 36)
        for k, block in enumerate(blocks):
            own = whole[9 * k:9 * (k + 1), 9 * k:9 * (k + 1)]
            assert own.tobytes() == node.pairwise(block).tobytes(), k


class _Lopsided(Semimetric):
    """1 + x + 2y on the first coordinates: neither symmetric nor zero on the
    diagonal, so a finished matrix shows where each of its entries came from;
    the leading underscore keeps it out of the JSON registry."""

    def values(self, sample, rows):
        c = sample[:, 0]
        return 1.0 + c[rows, None] + 2.0 * c[None, :]


class TestMirror:
    """Blocked mirror and symmetry check against whole-matrix expressions."""

    @pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 130])
    def test_pairwise_matches_mirror_upper(self, monkeypatch, m):
        # row blocks of about 100 values leave most of the lower triangle
        # unset before the mirror; one default tile writes all of it at m <= 181
        sample = coords_sample(np.random.default_rng(m).random(m))
        expected = mirror_upper(_Lopsided().values(sample, np.arange(m)))
        for tile in (100, semimetric._TILE):
            monkeypatch.setattr(semimetric, "_TILE", tile)
            assert _Lopsided().pairwise(sample).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [64, 130])
    @pytest.mark.parametrize("pair", [(-1, -2), (-1, -3), (-1, 0), (0, -1)])
    def test_one_asymmetric_pair_is_refused(self, m, pair):
        values = mirror_upper(np.random.default_rng(m).random((m, m)))
        DistanceMatrix(values)
        values[pair] = np.nextafter(values[pair], 2.0)
        with pytest.raises(ParameterError, match="symmetric"):
            DistanceMatrix(values)


class TestDiscrete:
    @pytest.mark.parametrize("rows", [None, [17, 0, 5, 5, 39]], ids=["all", "subset"])
    def test_matches_broadcast_expression(self, rows):
        coords = sample_points(AnzaiSkew(), 40, 3)
        shift = BernoulliShift([0.5, 0.5], horizon=6)
        symbols = sample_points(shift, 40, 3)
        repeated = symbols[np.arange(40) % 13]
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


def _asymmetric_by_one_ulp():
    values = mirror_upper(np.random.default_rng(3).random((5, 5)))
    values[3, 1] = np.nextafter(values[3, 1], 2.0)
    return values


REFUSED = {
    "not_square": (np.zeros((2, 3)), "square"),
    "not_a_matrix": (np.zeros(4), "square"),
    "nan": (np.array([[0.0, np.nan], [np.nan, 0.0]]), "finite"),
    "inf": (np.array([[0.0, np.inf], [np.inf, 0.0]]), "finite"),
    "negative": (np.array([[0.0, -0.1], [-0.1, 0.0]]), "nonnegative"),
    "asymmetric_one_ulp": (_asymmetric_by_one_ulp(), "symmetric"),
    "nonzero_diagonal": (np.array([[0.1, 0.5], [0.5, 0.0]]), "diagonal"),
}


class TestDistanceMatrix:
    @pytest.mark.parametrize("name", REFUSED)
    def test_refused(self, name):
        values, reason = REFUSED[name]
        with pytest.raises(ParameterError, match=reason):
            DistanceMatrix(values)

    def test_float64_values_are_not_copied(self):
        values = mirror_upper(np.random.default_rng(4).random((70, 70)))
        assert DistanceMatrix(values).values is values
        assert DistanceMatrix([[0, 1], [1, 0]]).values.dtype == np.float64

    def test_arrays_that_are_no_semimetric_never_reach_a_consumer(self):
        # a consumer takes only a DistanceMatrix, so an asymmetric array or a
        # nonzero diagonal ends in the construction error, not in an answer
        rng = np.random.default_rng(6)
        sample = sample_points(Identity(), 16, 6)
        probes = [
            (lambda d: eps_entropy_cover(d, 0.5),
             np.array([[0.0, 1, 1], [0, 0, 1], [0, 0, 0]]), "symmetric"),
            (lambda d: ball_mass_test(d, 0.1), np.full((16, 16), 0.05), "diagonal"),
            (lambda d: trace_from_matrix(d, sample),
             rng.random((16, 16)) * (1 - np.eye(16)), "symmetric"),
        ]
        for consume, values, reason in probes:
            with pytest.raises(ParameterError, match=reason):
                consume(DistanceMatrix(values))

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
        values = distance_matrix(Average(cut, system, n), sample).values
        window = sample[:, :n]
        for i in range(6):
            for j in range(6):
                expected = np.mean(window[i] != window[j])
                assert values[i, j] == pytest.approx(expected, abs=1e-12)


class TestSerialization:
    def test_nested_roundtrip(self, euclid):
        system = CircleRotation()
        metric = Average(Cutoff(euclid, 0.8), system, 16)
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
    (lambda: Average(FirstSymbolCut(), BernoulliShift([0.5, 0.5], horizon=64), 8),
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


class TestRegistries:
    def test_registries_are_pinned(self):
        assert list(Semimetric.registry.items()) == [
            ("Euclidean1D", Euclidean1D), ("CircleArc", CircleArc), ("TorusArcL1", TorusArcL1),
            ("FirstSymbolCut", FirstSymbolCut), ("Discrete", Discrete), ("Zero", Zero),
            ("ClosedForm", ClosedForm), ("Block", Block), ("Cutoff", Cutoff), ("Mix", Mix),
            ("PullBack", PullBack), ("Average", Average),
        ]
        assert list(SystemSpec.registry.items()) == [
            ("CircleRotation", CircleRotation), ("TorusTranslation", TorusTranslation),
            ("AnzaiSkew", AnzaiSkew), ("Identity", Identity), ("BernoulliShift", BernoulliShift),
        ]
        assert list(Partition.registry.items()) == [
            ("dyadic_intervals", DyadicIntervals), ("first_symbols", FirstSymbols),
            ("one_block", OneBlock),
        ]
        assert _Cut not in Semimetric.registry.values()

    def test_cut_keys_are_integers(self):
        partitions = {DyadicIntervals: DyadicIntervals(2), FirstSymbols: FirstSymbols(2, 3),
                      OneBlock: OneBlock()}
        assert set(partitions) == set(Partition.registry.values())
        system = BernoulliShift([0.2, 0.3, 0.5], horizon=8)
        sample = sample_points(system, 9, 5)
        symbolic = []
        for partition in partitions.values():
            try:
                partition.assign_indices(sample)
            except MetricTypeError:  # a partition of coordinates
                continue
            symbolic.append(Block(partition))
        assert len(symbolic) == 2
        cuts = {FirstSymbolCut: [FirstSymbolCut()], Block: symbolic}
        assert set(cuts) == {cls for cls in Semimetric.registry.values() if issubclass(cls, _Cut)}
        for cut in (cut for group in cuts.values() for cut in group):
            keys = cut.keys(sample)
            assert keys.dtype.kind in "iu", cut.label()
            assert keys.shape == sample.shape[:-1]
