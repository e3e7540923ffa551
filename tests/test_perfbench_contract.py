"""The names under src/ that the benchmark in perfbench/ relies on.

The benchmark is kept fixed between its revisions, so a renamed trace
target or a changed signature would otherwise show up only when someone
runs a traced perfbench. These tests import perfbench/ and change nothing
there.
"""

import importlib
import sys
from pathlib import Path

from dataclasses import replace

import numpy as np
import pytest

from crispdec import cli, loop
from crispdec.benchmark import benchmark_train_config
from crispdec.model import ModelConfig, SegModel
from crispdec.synthdata import export_dataset

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


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Count the calls of owner.name, which keeps working."""
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_eval_predicts_once_per_image(perfbench, monkeypatch, tmp_path):
    # eval-a6 counts its images as SegModel.predict calls
    _, worker = perfbench
    SegModel(ModelConfig(seed=0, dtype="float32", **worker.A6)).save(str(tmp_path / "ckpt"))
    export_dataset(str(tmp_path / "data"), worker.make_scenes(3, 2))
    predicts = _count_calls(monkeypatch, SegModel, "predict")
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "ckpt"),
                     "--data", str(tmp_path / "data"), "--out", str(tmp_path / "s.csv"),
                     "--dump-confidence", str(tmp_path / "conf")]) == cli.EXIT_OK
    assert len(predicts) == 3


def test_relabeling_swaps_teacher_weights_and_never_predicts(perfbench, monkeypatch):
    # traced train-a6 expects model.load_state_dict spans, and no model.predict
    _, worker = perfbench
    model = SegModel(ModelConfig(seed=0, dtype="float32", **worker.A6))
    cfg = replace(benchmark_train_config(0), epochs=2, batch_size=2, relabel_period=1)
    teacher = _count_calls(monkeypatch, loop, "teacher_predict")
    loads = _count_calls(monkeypatch, SegModel, "load_state_dict")
    predicts = _count_calls(monkeypatch, SegModel, "predict")
    loop.train(cfg, worker.copy_samples(worker.make_scenes(4, 2)), model)
    assert len(teacher) == 2  # one relabel event, two batches
    assert len(loads) == 2 * len(teacher) and predicts == []
