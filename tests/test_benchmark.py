import json

import numpy as np
import pytest

from crispdec import benchmark
from crispdec.benchmark import LEVELS, evaluate_model, run_ablation, run_level
from crispdec.model import ModelConfig, SegModel
from crispdec.synthdata import CorruptionSpec, SceneSpec, make_dataset


def test_run_ablation_reproduces_in_process_runs(monkeypatch):
    # the runs go to worker processes; their means must be those of
    # run_level in this process, as the waterfall's pins are checked to 1e-6.
    # Reporting MAX_WORKERS CPUs starts one worker per task here, whatever
    # this machine's core count.
    monkeypatch.setattr(benchmark, "_usable_cpus", lambda: benchmark.MAX_WORKERS)
    train_data = make_dataset(4, SceneSpec(seed=3), CorruptionSpec())
    eval_data = make_dataset(2, SceneSpec(seed=4), CorruptionSpec())
    results = run_ablation(levels=("A0", "A6"), seeds=(0, 1),
                           train_data=train_data, eval_data=eval_data)
    for level in ("A0", "A6"):
        runs = [run_level(level, seed, train_data, eval_data) for seed in (0, 1)]
        assert results[level]["runs"] == runs
        for metric in ("miou", "boundary_f1", "ece"):
            assert results[level][metric] == float(np.mean([r[metric] for r in runs]))


@pytest.mark.parametrize("level", ["A6", "U0"])
def test_evaluate_model_scores_do_not_depend_on_the_batch_size(level):
    # `crispdec eval` scores at batch 1, the waterfall at batch 25
    model = SegModel(ModelConfig(seed=0, dtype="float32", **LEVELS[level]))
    data = make_dataset(30, SceneSpec(seed=5), CorruptionSpec())
    assert (evaluate_model(model, data, 4, batch_size=1)
            == evaluate_model(model, data, 4, batch_size=25))


def test_calibrate_prints_each_runs_cpu_and_pins_only_the_means(monkeypatch, tmp_path, capsys):
    # a tiny waterfall: one level, two seeds, four training scenes
    train_data = make_dataset(4, SceneSpec(seed=3), CorruptionSpec())
    eval_data = make_dataset(2, SceneSpec(seed=4), CorruptionSpec())
    monkeypatch.setattr(benchmark, "WATERFALL_LEVELS", ("A0",))
    monkeypatch.setattr(benchmark, "WATERFALL_SEEDS", (0, 1))
    monkeypatch.setattr(benchmark, "make_benchmark_data", lambda: (train_data, eval_data))
    path = tmp_path / "pins.json"
    pins = benchmark.calibrate(str(path))

    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    cpu = {}
    for line in lines[:2]:
        head, _, tail = line.partition(": ")
        level, seed = head.split(" seed=")
        assert level == "A0" and tail.endswith(" s")
        cpu[int(seed)] = float(tail.rsplit("cpu=", 1)[1][:-2])
    assert sorted(cpu) == [0, 1] and all(c > 0 for c in cpu.values())
    total = lines[2].removeprefix("total cpu=").removesuffix(" s over 2 runs")
    assert abs(float(total) - sum(cpu.values())) <= 0.15  # each value rounded
    # the fixture holds the pinned means and nothing else
    assert json.loads(path.read_text()) == pins
    assert list(pins["levels"]["A0"]) == list(benchmark.PINNED_METRICS)


def test_calibrate_prints_the_margins_of_adjacent_chain_levels(monkeypatch, tmp_path, capsys):
    # two levels, two seeds: after the total CPU, one line of A1 - A0 margins
    train_data = make_dataset(4, SceneSpec(seed=3), CorruptionSpec())
    eval_data = make_dataset(2, SceneSpec(seed=4), CorruptionSpec())
    monkeypatch.setattr(benchmark, "WATERFALL_LEVELS", ("A1", "A0"))
    monkeypatch.setattr(benchmark, "WATERFALL_SEEDS", (0, 1))
    monkeypatch.setattr(benchmark, "make_benchmark_data", lambda: (train_data, eval_data))
    pins = benchmark.calibrate(str(tmp_path / "pins.json"))["levels"]

    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and lines[4].startswith("total cpu=")
    runs = {}
    for line in lines[:4]:
        head, _, tail = line.partition(": ")
        level, seed = head.split(" seed=")
        vals = dict(kv.split("=") for kv in tail.removesuffix(" s").split())
        runs[level, int(seed)] = {m: float(vals[m]) for m in ("miou", "bf1")}
    head, _, tail = lines[5].partition(": ")
    assert head == "A1 - A0"
    means, _, per_seed = tail.partition("; seeds 0 1: ")
    assert means == (f"miou={pins['A1']['miou'] - pins['A0']['miou']:+.4f} "
                     f"bf1={pins['A1']['boundary_f1'] - pins['A0']['boundary_f1']:+.4f}")
    words = per_seed.replace("=", " ").split()
    assert words[0::3] == ["miou", "bf1"]
    for i, m in ((1, "miou"), (4, "bf1")):
        got = [float(w) for w in words[i:i + 2]]
        want = [runs["A1", s][m] - runs["A0", s][m] for s in (0, 1)]
        # the run lines and the margins are each rounded to 4 decimals
        np.testing.assert_allclose(got, want, rtol=0, atol=1.6e-4)
