import numpy as np

from crispdec import benchmark
from crispdec.benchmark import run_ablation, run_level
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
