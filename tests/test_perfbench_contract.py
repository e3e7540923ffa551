"""The names under src/ that the benchmark in perfbench/ relies on.

The benchmark is kept fixed between its revisions, so a renamed trace
target or a changed signature would otherwise show up only when someone
runs a traced perfbench. These tests import perfbench/ and change nothing
there.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from crispdec.model import ModelConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's tracer and worker modules, sys.path left as it was."""
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer"), importlib.import_module("worker")
    finally:
        sys.path[:] = saved


def _bound(home: str, attr: str):
    """What crispdec.<home> binds to `attr` ("f" or "Class.method"), or None;
    `tracer.install` names a target that is gone."""
    mod = importlib.import_module("crispdec." + home)
    owner, _, name = attr.rpartition(".")
    return vars(getattr(mod, owner) if owner else mod).get(name)


def test_tracer_wraps_every_target_and_removes_its_wrappers(perfbench):
    tracer, _ = perfbench
    targets = [(home, attr) for home, attr, _ in tracer.TARGETS]
    targets.append(("tensor", "Tensor._from_op"))  # the tape counter
    before = {t: _bound(*t) for t in targets}
    inst = tracer.install(tracer.Tracer())
    try:
        wrapped = [t for t in targets if _bound(*t) is not before[t]]
    finally:
        inst.remove()
    assert wrapped == targets
    assert [t for t in targets if _bound(*t) is not before[t]] == []


@pytest.mark.parametrize("flags", ["A6", "U0"])
def test_worker_level_flags_build_a_model_config(perfbench, flags):
    _, worker = perfbench
    ModelConfig(**getattr(worker, flags))


def test_worker_copies_a_generated_sample(perfbench):
    _, worker = perfbench
    (sample,) = worker.make_scenes(1, 2)
    (copy,) = worker.copy_samples([sample])
    assert copy.image is sample.image and copy.gt is sample.gt
    for name in ("yhat", "valid", "seed_uncertainty"):
        a, b = getattr(copy.seed, name), getattr(sample.seed, name)
        np.testing.assert_array_equal(a, b)
        assert not np.shares_memory(a, b)  # relabeling rewrites the copy only
