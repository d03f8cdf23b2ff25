"""Workload configs for the orbent benchmark, generated from a seed.

Each workload is one ``orbent run`` config.  The benchmark seed picks only
the config's ``seeds`` list; everything else is fixed, so two seeds give the
same amount of work on different samples.  Every workload uses
eps_grid [0.25, 0.1] and runs with one worker.

Why these three:

- ``anzai-orbit``: coordinate-kernel accumulation (the profile stream and the
  n_big recompute of the limit check) dominates; no symbolic kernel runs.
- ``shift-cut``: the bernoulli-fair-cut preset as shipped when the benchmark
  was defined (frozen here, so later preset edits do not change the
  workload).  Symbolic accumulation, the separated-set test and covering
  near the sample ceiling dominate; no coordinate kernel runs.  Its rows
  sit at the ceiling, so the saturation defect stays visible.
- ``rotation-quantize``: the k-medoid + exact-LP Kantorovich estimator is
  over 90% of the run; accumulation and admissibility are small.  It is the
  only workload that needs SciPy at run time.
"""
from __future__ import annotations

import random

GOLDEN = (5 ** 0.5 - 1) / 2
EPS_GRID = [0.25, 0.1]
SEED_COUNT = 3

# Known spectrum of each workload's system, used by the verdict check:
# "discrete" (rotation), "lebesgue" (Bernoulli) or "mixed" (Anzai skew).
_BASE = {
    "anzai-orbit": ("mixed", {
        "system": {"kind": "AnzaiSkew", "alpha": GOLDEN},
        "metric": {"type": "TorusArcL1"},
        "method": "Covering",
        "m": 512,
        "n_schedule": [8, 16, 32, 64, 128],
    }),
    "shift-cut": ("lebesgue", {
        "system": {"kind": "BernoulliShift", "weights": [0.5, 0.5]},
        "metric": {"type": "FirstSymbolCut"},
        "method": "Covering",
        "m": 512,
        "n_schedule": [16, 32, 64, 128, 256, 512, 1024],
    }),
    "rotation-quantize": ("discrete", {
        "system": {"kind": "CircleRotation", "alpha": GOLDEN},
        "metric": {"type": "Euclidean1D"},
        "method": "Kantorovich",
        "m": 512,
        "n_schedule": [1, 2, 4, 8, 16],
    }),
}

NAMES = tuple(_BASE)


def spectrum(name: str) -> str:
    """Known spectral type of the workload's system."""
    return _BASE[name][0]


def make_config(name: str, seed: int) -> dict:
    """The ``orbent run`` config of workload ``name`` for benchmark seed ``seed``.

    Deterministic in (name, seed); the seed changes only ``seeds``.
    """
    if name not in _BASE:
        raise ValueError(f"unknown workload {name!r}; known: {list(NAMES)}")
    rng = random.Random(f"orbench:{name}:{int(seed)}")
    config = dict(_BASE[name][1])
    config["eps_grid"] = list(EPS_GRID)
    config["seeds"] = sorted(rng.sample(range(1, 2 ** 31), SEED_COUNT))
    config["output_dir"] = "bundle"
    return config
