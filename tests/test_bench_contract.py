"""The benchmark's tracer wraps gaugecg methods by looking them up in their
owners' ``vars()``: a traced method that moves off its class (to a base
class, a helper, another module) breaks the benchmark, so the unit suite checks
the lookup for every traced boundary."""

import importlib.util
import os

import pytest

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py"
)


def _traced_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._targets()


TARGETS = _traced_targets()


@pytest.mark.parametrize(
    "owner, attr, name",
    [target[:3] for target in TARGETS],
    ids=[f"{owner.__name__}.{attr}" for owner, attr, _, _ in TARGETS],
)
def test_every_traced_boundary_is_defined_on_its_owner(owner, attr, name):
    assert attr in vars(owner), f"{name}: {attr} is not defined on {owner!r}"
    assert callable(vars(owner)[attr]), name
