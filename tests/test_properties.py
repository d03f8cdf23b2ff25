"""Property tests over random descriptor trees built from the node, system and
partition registries."""
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbent import (
    AnzaiSkew,
    BernoulliShift,
    CircleRotation,
    DyadicIntervals,
    FirstSymbols,
    Identity,
    OneBlock,
    ParameterError,
    Semimetric,
    TorusTranslation,
    sample_points,
)
from orbent.dynsys import _SYSTEMS, advance_sample
from orbent.semimetric import (
    _NODES,
    _PARTITIONS,
    CLOSED_FORMS,
    Average,
    Block,
    CircleArc,
    ClosedForm,
    Cutoff,
    Discrete,
    Euclidean1D,
    FirstSymbolCut,
    Mix,
    PullBack,
    TorusArcL1,
    Zero,
)

from oracles import check_axioms

ROTATION = CircleRotation()
TORUS = TorusTranslation()
SHIFT = BernoulliShift([0.5, 0.5], horizon=64)

ANGLES = st.floats(0.01, 0.99)
SYSTEMS = {
    "CircleRotation": ANGLES.map(CircleRotation),
    "TorusTranslation": st.tuples(ANGLES, ANGLES).map(lambda ab: TorusTranslation(*ab)),
    "AnzaiSkew": ANGLES.map(AnzaiSkew),
    "Identity": st.just(Identity()),
    "BernoulliShift": st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4).map(
        lambda w: BernoulliShift([x / sum(w) for x in w], horizon=64)
    ),
}
# partitions of coordinate points and of symbolic points
COORD_PARTITIONS = {
    "dyadic_intervals": st.integers(0, 4).map(DyadicIntervals),
    "one_block": st.just(OneBlock()),
}
SYMBOL_PARTITIONS = {
    "first_symbols": st.tuples(st.integers(1, 3), st.integers(2, 3)).map(
        lambda ca: FirstSymbols(*ca)
    ),
}

# leaves that evaluate on coordinate points and on symbolic points
COORD_LEAVES = {
    "Euclidean1D": st.just(Euclidean1D()),
    "CircleArc": st.just(CircleArc()),
    "TorusArcL1": st.just(TorusArcL1()),
    "Discrete": st.just(Discrete()),
    "Zero": st.just(Zero()),
    "ClosedForm": st.sampled_from(sorted(CLOSED_FORMS)).map(ClosedForm),
    "Block": st.one_of(*COORD_PARTITIONS.values()).map(Block),
}
SYMBOL_LEAVES = {
    "FirstSymbolCut": st.just(FirstSymbolCut()),
    "Discrete": st.just(Discrete()),
    "Zero": st.just(Zero()),
    "Block": st.one_of(*SYMBOL_PARTITIONS.values()).map(Block),
}
INNER = ("Cutoff", "Mix", "PullBack", "Average")


def trees(system, leaves):
    def extend(children):
        return st.one_of(
            st.builds(Cutoff, children, st.floats(0.01, 2.0)),
            st.builds(Mix, children, children, st.floats(0.0, 1.0)),
            st.builds(PullBack, children, st.just(system), st.integers(0, 3)),
            st.builds(Average, children, st.just(system), st.integers(1, 4)),
        )

    return st.recursive(st.one_of(*leaves.values()), extend, max_leaves=4)


any_tree = st.one_of(
    st.tuples(st.just(ROTATION), trees(ROTATION, COORD_LEAVES)),
    st.tuples(st.just(TORUS), trees(TORUS, COORD_LEAVES)),
    st.tuples(st.just(SHIFT), trees(SHIFT, SYMBOL_LEAVES)),
)


def test_strategies_cover_the_registry():
    assert set(COORD_LEAVES) | set(SYMBOL_LEAVES) | set(INNER) == set(_NODES)
    assert set(SYSTEMS) == set(_SYSTEMS)
    assert set(COORD_PARTITIONS) | set(SYMBOL_PARTITIONS) == set(_PARTITIONS)


@settings(max_examples=60, deadline=None)
@given(any_tree)
def test_json_roundtrip(drawn):
    _, tree = drawn
    again = Semimetric.from_json(json.loads(json.dumps(tree.to_json())))
    assert again == tree
    assert hash(again) == hash(tree)
    assert again.label() == tree.label()


@settings(max_examples=60, deadline=None)
@given(st.one_of(*SYSTEMS.values(), *COORD_PARTITIONS.values(), *SYMBOL_PARTITIONS.values()))
def test_system_and_partition_json_roundtrip(obj):
    again = type(obj).from_json(json.loads(json.dumps(obj.to_json())))
    assert again == obj
    assert again.label() == obj.label()


@settings(max_examples=60, deadline=None)
@given(any_tree, st.integers(0, 2 ** 16))
def test_pairwise_is_symmetric_with_zero_diagonal(drawn, seed):
    system, tree = drawn
    if system.is_symbolic:
        # the sample's symbol window is exactly what the tree reads, plus one
        system = replace(system, horizon=tree.symbol_horizon() + 1)
    values = tree.pairwise(sample_points(system, 9, seed))
    assert np.array_equal(values, values.T)
    assert np.all(np.diagonal(values) == 0.0)
    assert np.all(np.isfinite(values)) and np.all(values >= 0.0)


@settings(max_examples=60, deadline=None)
@given(any_tree.filter(lambda drawn: "squared_abs_diff" not in drawn[1].label()),
       st.integers(0, 2 ** 16))
def test_triangle_inequality(drawn, seed):
    # squared_abs_diff is the shipped negative control, so it is left out
    system, tree = drawn
    if system.is_symbolic:
        system = replace(system, horizon=tree.symbol_horizon() + 1)
    report = check_axioms(tree, sample_points(system, 9, seed), tol=1e-9)
    assert report.triples_checked == 9 ** 3
    assert report.triangle_defect <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.one_of(*SYSTEMS.values()),
       st.integers(0, 12), st.integers(0, 12), st.integers(0, 2 ** 16))
def test_advance_sample_is_a_semigroup(system, j, k, seed):
    # the single orbit pass advances one step at a time and relies on this
    sample = sample_points(TORUS if system.kind == "Identity" else system, 7, seed)
    twice = advance_sample(advance_sample(sample, j, system), k, system)
    once = advance_sample(sample, j + k, system)
    if system.is_symbolic:
        assert np.array_equal(twice.symbols, sample.symbols[:, j + k:])
        assert np.shares_memory(twice.symbols, sample.symbols)
        assert twice.symbols.tobytes() == once.symbols.tobytes()
    else:
        assert twice.coords.tobytes() == once.coords.tobytes()


def _inner():
    return {"type": "Euclidean1D"}


BAD_PARTITIONS = st.one_of(
    st.integers(),
    st.just({"kind": "spiral"}),
    st.just({"kind": "one_block", "level": 2}),
    st.builds(lambda level: {"kind": "dyadic_intervals", "level": level},
              st.one_of(st.integers(max_value=-1), st.integers(min_value=54))),
    # block indices of 2**63 and more would wrap around in int64
    st.builds(lambda count: {"kind": "first_symbols", "count": count, "alphabet": 2},
              st.one_of(st.integers(max_value=0), st.integers(min_value=63), st.just("x"))),
)
BAD_FIELDS = st.one_of(
    st.builds(lambda t: {"type": "Mix", "a": _inner(), "b": _inner(), "t": t},
              st.one_of(st.floats(max_value=-1e-9), st.floats(min_value=1.0 + 1e-9),
                        st.just(float("nan")), st.just("half"))),
    st.builds(lambda level: {"type": "Cutoff", "inner": _inner(), "level": level},
              st.one_of(st.floats(max_value=0.0), st.just(float("nan")),
                        st.just(float("inf")), st.just("abc"))),
    # a misspelt field next to the right one, and a field of another kind
    st.just({"type": "Cutoff", "inner": _inner(), "level": 0.5, "levle": 0.5}),
    st.just({"type": "PullBack", "inner": _inner(), "k": 1,
             "system": {**ROTATION.to_json(), "beta": 0.7}}),
    st.builds(lambda k: {"type": "PullBack", "inner": _inner(),
                         "system": ROTATION.to_json(), "k": k},
              st.one_of(st.integers(max_value=-1), st.just("two"))),
    st.builds(lambda n: {"type": "Average", "inner": _inner(),
                         "system": ROTATION.to_json(), "n": n},
              st.one_of(st.integers(max_value=0), st.just("four"))),
    st.builds(lambda tag: {"type": "ClosedForm", "tag": tag},
              st.text(max_size=12).filter(lambda tag: tag not in CLOSED_FORMS)),
    st.builds(lambda part: {"type": "Block", "partition": part}, BAD_PARTITIONS),
)


@settings(max_examples=80, deadline=None)
@given(BAD_FIELDS)
def test_out_of_range_fields_rejected(blob):
    with pytest.raises(ParameterError):
        Semimetric.from_json(blob)
    # the same check guards a bad node nested inside a valid one
    with pytest.raises(ParameterError):
        Semimetric.from_json({"type": "Cutoff", "level": 0.5, "inner": blob})
