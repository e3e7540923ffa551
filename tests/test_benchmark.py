import json
import re

import numpy as np

from crispdec import benchmark
from crispdec.benchmark import run_ablation, run_level
from crispdec.synthdata import CorruptionSpec, SceneSpec, make_dataset


def _run_line(line: str) -> tuple[str, int, dict]:
    """Level, seed and name=value pairs of a run line, "s" units dropped."""
    head, _, tail = line.partition(": ")
    level, seed = head.split(" seed=")
    assert re.fullmatch(r"(\w+=\S+ )+cpu=\S+ s wall=\S+ s", tail)
    return level, int(seed), {k: float(v) for k, v in re.findall(r"(\w+)=(\S+)", tail)}


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
        level, seed, vals = _run_line(line)
        assert level == "A0" and vals["wall"] > 0
        cpu[seed] = vals["cpu"]
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
        level, seed, vals = _run_line(line)
        runs[level, seed] = vals
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
