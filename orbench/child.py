"""Code the benchmark runs inside its child interpreters.

Each verb is one fresh process, started from the benchmark's work directory
with the checkout's ``src`` first on ``PYTHONPATH``:

    python orbench/child.py env <out.json>
    python orbench/child.py trace <config.json> <out.json>
    python orbench/child.py recompute <config.json> <cells.json> <out.json>

``trace`` runs ``orbent run`` in process with a span around each layer's
public functions.  The spans are recorded from outside the package: each
function is replaced, under every name an ``orbent`` module bound it to, by
a wrapper, and every name is restored when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# span name -> (module, attribute); the span name's prefix is its layer
SPAN_TARGETS = {
    "cli.run_experiment": ("orbent.cli", "run_experiment"),
    "scaling.profile_cells": ("orbent.scaling", "profile_cells"),
    "scaling.assemble": ("orbent.scaling", "assemble_profile"),
    "scaling.limit_check": ("orbent.scaling", "limit_metric_check"),
    "dynsys.sample_points": ("orbent.dynsys", "sample_points"),
    "semimetric.stream": ("orbent.semimetric", "streamed_average_matrices"),
    "semimetric.distance_matrix": ("orbent.semimetric", "distance_matrix"),
    "semimetric.pairwise": ("orbent.semimetric", "Semimetric.pairwise"),
    "entropy.estimate": ("orbent.entropy", "estimate_from_matrix"),
    "entropy.cover": ("orbent.entropy", "eps_entropy_cover"),
    "entropy.kantorovich": ("orbent.entropy", "eps_entropy_kantorovich"),
    "entropy.transport": ("orbent.entropy", "kantorovich_distance"),
    "admit.report": ("orbent.admit", "admissibility_report"),
    "admit.random_matrix": ("orbent.admit", "random_matrix_test"),
    "admit.trace": ("orbent.admit", "trace_from_matrix"),
    "admit.ball_mass": ("orbent.admit", "ball_mass_test"),
}

_ORIGINAL = "__orbench_original__"


def _orbent_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "orbent" or name.startswith("orbent."))]


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` of one process.

    Not thread-safe: the traced run uses one worker.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        self.spans.append([name, time.perf_counter(), None, parent])
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # one span per next(): the time the consumer waits for an item
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    idx = self._enter(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._exit(idx)
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(idx)
        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def install(self) -> None:
        """Wrap every target under every name an orbent module bound it to."""
        for name, (module_name, attr) in SPAN_TARGETS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                # a method: looked up through its class, so patch it there
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, meth, self._wrap(name, getattr(owner, meth)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in _orbent_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)


def leftover_wrappers() -> list[str]:
    """Names in orbent modules and their classes still bound to a wrapper."""
    found = []
    for mod in _orbent_modules():
        for key, value in vars(mod).items():
            if hasattr(value, _ORIGINAL):
                found.append(f"{mod.__name__}.{key}")
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if hasattr(fn, _ORIGINAL):
                        found.append(f"{mod.__name__}.{key}.{meth}")
    return found


def _dump(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def environment(out_path: str) -> int:
    import numpy
    import scipy

    import orbent

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    _dump(out_path, {
        "orbent": orbent.__version__,
        "orbent_file": orbent.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    })
    return 0


def trace(config_path: str, out_path: str) -> int:
    import orbent.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = orbent.cli.main(
            ["run", config_path, "--workers", "1", "--output-dir", "bundle"]
        )
    finally:
        tracer.uninstall()
    _dump(out_path, {
        "exit_code": code, "spans": tracer.spans, "leftovers": leftover_wrappers(),
    })
    return code


def recompute(config_path: str, cells_path: str, out_path: str) -> int:
    """value_bits of the listed (eps, n, seed) cells from the standalone pipeline."""
    from orbent.cli import load_config
    from orbent.entropy import entropy_estimate

    config = load_config(config_path)
    with open(cells_path) as fh:
        cells = json.load(fh)
    _dump(out_path, [
        entropy_estimate(config.system, config.metric, n, eps, config.m, seed,
                         config.method).value_bits
        for eps, n, seed in cells
    ])
    return 0


if __name__ == "__main__":
    verbs = {"env": environment, "trace": trace, "recompute": recompute}
    raise SystemExit(verbs[sys.argv[1]](*sys.argv[2:]))
