"""The package surface that the benchmark's tracer (perfbench/tracing.py)
wraps and reads.  The tracer is loaded by path and only its TARGETS table is
read; no wrapper is installed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from primepoisson import poisson_pmf, product_joint

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the call arguments the tracer's work counters read, by target
COUNTED_ARGS = {
    ("factorstats", "joint_factor_counts"): {"x", "specs", "segment_size"},
    ("dist", "tv_distance_joint"): {"p", "q"},
    ("cli", "main"): {"argv"},
}


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _ in module.TARGETS]


def test_every_target_resolves():
    for mod, attr in load_targets():
        assert callable(getattr(importlib.import_module(f"primepoisson.{mod}"), attr)), (mod, attr)


@pytest.mark.parametrize("target", sorted(COUNTED_ARGS), ids=".".join)
def test_counted_arguments_exist(target):
    assert target in load_targets()
    fn = getattr(importlib.import_module(f"primepoisson.{target[0]}"), target[1])
    assert COUNTED_ARGS[target] <= set(inspect.signature(fn).parameters)


def test_product_entries_one_key_per_cell():
    a, b = poisson_pmf(1.0), poisson_pmf(2.0)
    entries = product_joint([a, b]).entries
    assert len(entries) == len(a) * len(b)
    assert set(entries.keys()) == {(i, j) for i in range(len(a)) for j in range(len(b))}
