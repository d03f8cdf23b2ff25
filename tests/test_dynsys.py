from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

import orbent.cli  # noqa: F401  defines ExperimentConfig, a record the walk must reach
from orbent import (
    AnzaiSkew,
    BernoulliShift,
    CircleRotation,
    HorizonError,
    Identity,
    ParameterError,
    Partition,
    Semimetric,
    SystemSpec,
    TorusTranslation,
    sample_points,
)
from orbent.dynsys import Record, advance_sample, field_decoders, from_fields_json, holds_symbols
from orbent.errors import ConfigError

from oracles import reference_sample

# horizons 1026, 1000, 129, 300, 77 and 64 give row blocks of 31, 32, 254,
# 109, 425 and 512 points, so some m of each end in a partial block; 40000
# gives one point per block.  Ten equal weights and exact thirds put
# cumulative weights on rounded values, where a sampler that thresholds
# uniforms could differ from ``choice``; 128 symbols are the most an int8
# symbol holds.
SAMPLED_SYSTEMS = {
    "rotation": CircleRotation(), "torus": TorusTranslation(), "anzai": AnzaiSkew(),
    "identity": Identity(), "fair-h1026": BernoulliShift([0.5, 0.5], horizon=1026),
    "three-h1000": BernoulliShift([0.2, 0.3, 0.5], horizon=1000),
    "biased-h129": BernoulliShift([0.9, 0.1], horizon=129),
    "ten-h300": BernoulliShift([0.1] * 10, horizon=300),
    "thirds-h77": BernoulliShift([1 / 3] * 3, horizon=77),
    "w128-h64": BernoulliShift([1 / 128] * 128, horizon=64),
}
SAMPLED = [pytest.param(system, m, id=f"{name}-m{m}")
           for name, system in SAMPLED_SYSTEMS.items() for m in (1, 31, 32, 700)]
SAMPLED.append(pytest.param(BernoulliShift([0.5, 0.5], horizon=40000), 3, id="fair-h40000-m3"))


def one_point(coords):
    """Sample of one coordinate point, drawn from no system."""
    return np.asarray(coords, dtype=float).reshape(1, -1)


def moved(system, sample, k):
    """The sample's points moved k steps by the system."""
    return advance_sample(sample, k, system)


class TestSampling:
    def test_identity_sample_shape(self, identity):
        sample = sample_points(identity, 3, 7)
        assert sample.shape == (3, 1)
        assert np.all((sample >= 0.0) & (sample < 1.0))

    def test_seed_determinism(self, identity):
        a = sample_points(identity, 100, 7)
        b = sample_points(identity, 100, 7)
        assert np.array_equal(a, b)
        c = sample_points(identity, 100, 8)
        assert not np.array_equal(a, c)

    def test_bernoulli_sample_shape(self):
        system = BernoulliShift([0.5, 0.5], horizon=50)
        sample = sample_points(system, 1, 1)
        assert sample.shape == (1, 50)
        assert set(np.unique(sample)) <= {0, 1}

    def test_bernoulli_determinism(self, fair_shift):
        a = sample_points(fair_shift, 64, 3)
        b = sample_points(fair_shift, 64, 3)
        assert np.array_equal(a, b)

    def test_uniform_mean(self, identity):
        # law of large numbers on the first coordinate
        sample = sample_points(identity, 100_000, 11)
        assert abs(sample[:, 0].mean() - 0.5) <= 0.01

    @pytest.mark.parametrize("system, m", SAMPLED)
    def test_sample_equals_one_draw(self, system, m):
        got, want = sample_points(system, m, 17), reference_sample(system, m, 17)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cls", list(SystemSpec.registry.values()),
                             ids=list(SystemSpec.registry))
    def test_dtype_says_coordinates_or_symbols(self, cls):
        # a sample is its points array, so the dtype alone must say which kind it holds
        system = cls((0.3, 0.7)) if cls is BernoulliShift else cls()
        sample = sample_points(system, 8, 0)
        assert holds_symbols(sample) == system.is_symbolic
        assert advance_sample(sample, 2, system).dtype == sample.dtype

    def test_more_than_128_symbols_are_refused(self):
        # symbols are stored as int8, where symbol 128 would wrap to -128
        with pytest.raises(ParameterError, match="128"):
            BernoulliShift([1 / 129] * 129)

    def test_shift_sample_memory_is_blocked(self):
        import tracemalloc

        system = BernoulliShift([0.5, 0.5], horizon=1026)
        m = 512
        assert m * system.horizon >= 2 ** 19
        tracemalloc.start()
        try:
            sample_points(system, m, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one unblocked draw holds a float64 uniform and a bool temporary per symbol
        assert peak < 4 * m * system.horizon

    def test_bad_sample_size(self, identity):
        with pytest.raises(ParameterError):
            sample_points(identity, 0, 1)

    def test_bad_weights(self):
        with pytest.raises(ParameterError):
            BernoulliShift([0.5, 0.6])
        with pytest.raises(ParameterError):
            BernoulliShift([1.0, 0.0])
        # every comparison with NaN is False, so a NaN weight must fail a test
        # that requires it to pass, not pass one that looks for a fault
        for weights in ([float("nan"), 1.0], [0.5, 0.5, float("nan")]):
            with pytest.raises(ParameterError):
                BernoulliShift(weights)

    def test_integer_angle_rejected(self):
        with pytest.raises(ParameterError):
            CircleRotation(0.0)
        with pytest.raises(ParameterError):
            CircleRotation(2.0)


class TestApply:
    def test_rotation_two_steps(self):
        system = CircleRotation(0.2)
        q = moved(system, one_point([0.25]), 2)
        expected = ((0.25 + 0.2) % 1.0 + 0.2) % 1.0
        assert q[0, 0] == expected

    def test_anzai_one_step(self):
        system = AnzaiSkew(0.3)
        q = moved(system, one_point([0.7, 0.9]), 1)
        assert q[0, 0] == pytest.approx((0.7 + 0.3) % 1.0, abs=1e-15)
        assert q[0, 1] == pytest.approx((0.9 + 0.7) % 1.0, abs=1e-15)

    def test_shift_drops_symbols(self, fair_shift):
        p = sample_points(fair_shift, 1, 5)
        q = moved(fair_shift, p, 1)
        assert np.array_equal(q, p[:, 1:])

    def test_identity_fixed(self, identity):
        assert moved(identity, one_point([0.42]), 9)[0, 0] == 0.42

    @pytest.mark.parametrize("system", [
        CircleRotation(), TorusTranslation(), AnzaiSkew(), Identity(),
    ])
    def test_semigroup_law_exact(self, system):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = one_point(rng.random(system.dim))
            j, k = rng.integers(0, 40, size=2)
            via_composition = moved(system, moved(system, p, int(j)), int(k))
            direct = moved(system, p, int(j + k))
            assert np.array_equal(via_composition, direct)

    def test_shift_horizon_error(self):
        system = BernoulliShift([0.5, 0.5], horizon=10)
        p = sample_points(system, 1, 2)
        with pytest.raises(HorizonError):
            moved(system, p, 10)
        sample = sample_points(system, 4, 2)
        with pytest.raises(HorizonError):
            advance_sample(sample, 10, system)

    def test_sample_of_the_other_kind_rejected(self, fair_shift, rotation):
        with pytest.raises(ParameterError, match="symbolic"):
            advance_sample(sample_points(rotation, 4, 2), 1, fair_shift)
        with pytest.raises(ParameterError, match="coordinate"):
            advance_sample(sample_points(fair_shift, 4, 2), 1, rotation)

    @pytest.mark.parametrize("acting, drawn", [
        (AnzaiSkew(), CircleRotation()),
        (TorusTranslation(), CircleRotation()),
        (CircleRotation(), TorusTranslation()),
    ])
    def test_map_of_another_dimension_rejected(self, acting, drawn):
        sample = sample_points(drawn, 4, 2)
        with pytest.raises(ParameterError):
            advance_sample(sample, 1, acting)
        with pytest.raises(ParameterError):
            moved(acting, one_point(sample[0]), 1)
        # the identity leaves points of any dimension alone
        assert advance_sample(sample, 3, Identity()).shape == sample.shape


class TestMeasurePreservation:
    @pytest.mark.parametrize("system", [
        CircleRotation(), TorusTranslation(), AnzaiSkew(), Identity(),
    ])
    def test_box_frequencies(self, system):
        m = 10_000
        sample = sample_points(system, m, 13)
        pushed = advance_sample(sample, 1, system)
        if system.dim == 1:
            boxes = [(0.0, 0.5), (0.25, 0.75), (0.1, 0.2), (0.5, 1.0), (0.0, 0.125)]

            def freq(coords, box):
                lo, hi = box
                return np.mean((coords[:, 0] >= lo) & (coords[:, 0] < hi))
        else:
            boxes = [
                ((0.0, 0.5), (0.0, 0.5)), ((0.25, 0.75), (0.0, 1.0)),
                ((0.0, 0.25), (0.5, 1.0)), ((0.5, 1.0), (0.5, 1.0)),
                ((0.125, 0.875), (0.25, 0.5)),
            ]

            def freq(coords, box):
                (x0, x1), (y0, y1) = box
                inside = (
                    (coords[:, 0] >= x0) & (coords[:, 0] < x1)
                    & (coords[:, 1] >= y0) & (coords[:, 1] < y1)
                )
                return np.mean(inside)

        bound = 3.0 * (1.0 / m) ** 0.5
        for box in boxes:
            assert abs(freq(sample, box) - freq(pushed, box)) <= bound


class TestSerialization:
    @pytest.mark.parametrize("system", [
        CircleRotation(), TorusTranslation(0.3, 0.7), AnzaiSkew(0.21),
        BernoulliShift([0.9, 0.1], horizon=64), Identity(),
    ])
    def test_json_roundtrip(self, system):
        again = SystemSpec.from_json(system.to_json())
        assert again == system

    def test_json_field_names(self):
        obj = CircleRotation(0.25).to_json()
        assert obj == {"kind": "CircleRotation", "alpha": 0.25}
        obj = BernoulliShift([0.5, 0.5], horizon=16).to_json()
        assert obj["kind"] == "BernoulliShift"
        assert obj["weights"] == [0.5, 0.5]

    def test_none_fields_are_left_out(self):
        # with a None default or none at all, an unset optional field adds nothing
        @dataclass(frozen=True)
        class Holder(Record):
            count: Optional[int]
            label: Optional[str] = None

        assert Holder(None).to_json() == {}
        assert Holder.from_json({}) == Holder(None)


def _records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


# every class the codec decodes: the tagged families and the records
DECODED = [*SystemSpec.registry.values(), *Semimetric.registry.values(),
           *Partition.registry.values(), *_records()]


class TestCodecExtensionPoint:
    """Every field of every class the codec decodes is one it reads, so a new
    class with a field it cannot read fails here and not in a run."""

    def test_walk_reaches_every_bundle_record(self):
        names = {cls.__name__ for cls in DECODED}
        assert names >= {"ExperimentConfig", "ScalingProfile", "ProfileRow", "GrowthClass",
                         "SpectralVerdict", "AdmissibilityReport", "TracePoint",
                         "LimitMetricReport", "Average", "Block", "BernoulliShift"}

    @pytest.mark.parametrize("cls", DECODED, ids=lambda cls: cls.__name__)
    def test_every_field_is_readable(self, cls):
        assert set(field_decoders(cls)) == set(cls.__dataclass_fields__)

    def test_unreadable_field_is_named(self):
        @dataclass(frozen=True)
        class Holder(Record):
            count: int
            values: np.ndarray

        with pytest.raises(ConfigError) as err:
            from_fields_json(Holder, {"count": 1, "values": [0.5]})
        assert err.value.field == "values"
