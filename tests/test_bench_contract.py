"""The benchmark's tracer wraps gaugecg methods by looking them up in their
owners' ``vars()``: a traced method that moves off its class (to a base
class, a helper, another module) breaks the benchmark, so the unit suite checks
the lookup for every traced boundary. Some spans also take a note from the
call's return value; the suite feeds each note function a real return value,
so a change to what a traced call returns fails here too."""

import importlib.util
import os

import numpy as np
import pytest

import gaugecg as gc
from gaugecg import screening

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py"
)


def _traced_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._targets()


TARGETS = _traced_targets()
NOTED = [target for target in TARGETS if target[3] is not None]


@pytest.mark.parametrize(
    "owner, attr, name",
    [target[:3] for target in TARGETS],
    ids=[f"{owner.__name__}.{attr}" for owner, attr, _, _ in TARGETS],
)
def test_every_traced_boundary_is_defined_on_its_owner(owner, attr, name):
    assert attr in vars(owner), f"{name}: {attr} is not defined on {owner!r}"
    assert callable(vars(owner)[attr]), name


def _outcomes():
    """{attribute: (a real return value, the note it must give)} for the
    noted boundaries: a screening pass that removes atoms, and a step."""
    aset = gc.AtomicSet.signed_basis(3)
    mask = aset.full_mask()
    ids, values = aset.dots(np.array([2.0, -1.0, 0.5]), mask)
    pruned = screening.apply_rule(mask, ids, values, float(values.max()), 0.0, 1.0, t=1)

    loss = gc.LogisticLoss(gc.gen_synthetic(0, n=20, d=3))
    state = gc.SolverState(aset)
    stepped = gc.step(state, loss, gc.Penalty.power(2.0), aset, gc.SolverConfig())
    return {
        "apply_rule": (pruned, True),
        "step": (stepped, aset.num_atoms),
    }


@pytest.mark.parametrize(
    "attr, note",
    [(target[1], target[3]) for target in NOTED],
    ids=[f"{owner.__name__}.{attr}" for owner, attr, _, _ in NOTED],
)
def test_every_span_note_reads_its_calls_return_value(attr, note):
    outcome, expected = _outcomes()[attr]
    assert note(outcome) == expected
