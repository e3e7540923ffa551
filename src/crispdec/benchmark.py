"""Frozen synthetic ablation benchmark: train the component waterfall on
corrupted seeds and score mIoU / Boundary-F1 / ECE on held-out scenes.

Configuration levels mirror the cumulative component waterfall:
A0 static-fusion baseline, A1 +dynamic fusion, A4 +variance head, refiner
and boundary head, A6 +uncertainty-modulated fusion and EMA relabeling; U0
strips every uncertainty mechanism — the variance head, refinement,
modulated fusion, *and* uncertainty-gated relabeling —
keeping only dynamic fusion and the boundary head (calibration foil).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import time

import numpy as np

from .loop import TrainConfig, train
from .losses import PseudoLabelSet
from .metrics import mean_scores, score_model
from .model import ModelConfig, SegModel
from .synthdata import CorruptionSpec, Sample, SceneSpec, make_dataset

DATA_SEED = 20260823
TRAIN_SCENES = 500
EVAL_SCENES = 100

# the frozen waterfall of acceptance criteria 7-8, and where its pinned
# per-level means live (relative to the root of a checkout)
WATERFALL_LEVELS = ("A0", "A1", "A4", "A6", "U0")
WATERFALL_SEEDS = (0, 1, 2)
# the levels whose mean mIoU and boundary F1 criterion 7 asks to rise in order
WATERFALL_CHAIN = ("A0", "A1", "A4", "A6")
THRESHOLDS_PATH = os.path.join("tests", "fixtures", "benchmark_thresholds.json")
PINNED_METRICS = ("miou", "boundary_f1", "ece")

LEVELS: dict[str, dict] = {
    "A0": dict(use_dmf=False, use_var=False, use_ugr=False, use_bnd=False,
               use_udmf=False, use_ema=False),
    "A1": dict(use_dmf=True, use_var=False, use_ugr=False, use_bnd=False,
               use_udmf=False, use_ema=False),
    "A4": dict(use_dmf=True, use_var=True, use_ugr=True, use_bnd=True,
               use_udmf=False, use_ema=False),
    "A6": dict(use_dmf=True, use_var=True, use_ugr=True, use_bnd=True,
               use_udmf=True, use_ema=True),
    # calibration foil: uncertainty-gated relabeling is itself an
    # uncertainty mechanism, so the EMA loop is stripped along with the
    # variance paths; only dynamic fusion and the boundary head remain
    "U0": dict(use_dmf=True, use_var=False, use_ugr=False, use_bnd=True,
               use_udmf=False, use_ema=False),
}


def benchmark_train_config(seed: int = 0) -> TrainConfig:
    """Desk-scale schedule tuned once for the frozen benchmark; the paper's
    full-scale learning rate is far too slow for a toy encoder trained from
    scratch."""
    return TrainConfig(epochs=13, batch_size=16, lr_decoder=6e-3, q_anneal_epochs=6,
                       relabel_period=9, keep_fraction=0.95, detach_p_epochs=2,
                       ema_tau=0.98, use_sdf=False, seed=seed)


def make_benchmark_data(train_n: int = TRAIN_SCENES, eval_n: int = EVAL_SCENES,
                        data_seed: int = DATA_SEED):
    spec = SceneSpec(seed=data_seed)
    # heavy seed corruption: with the default spec the seeds are clean
    # enough that uncertainty machinery has nothing to correct
    cspec = CorruptionSpec(erode_px=3, dilate_px=3, blob_smooth_iters=2,
                           drop_thin_prob=0.8, flip_prob=0.15)
    train_data = make_dataset(train_n, spec, cspec)
    eval_spec = SceneSpec(seed=data_seed + 1)
    eval_data = make_dataset(eval_n, eval_spec, cspec)
    return train_data, eval_data


def _copy_samples(samples: list) -> list:
    out = []
    for s in samples:
        seed = PseudoLabelSet(yhat=s.seed.yhat.copy(), valid=s.seed.valid.copy(),
                              seed_uncertainty=s.seed.seed_uncertainty.copy())
        out.append(Sample(image=s.image, gt=s.gt, seed=seed))
    return out


def run_level(level: str, seed: int, train_data: list, eval_data: list) -> dict:
    """Train one level from its seed; its mean scores as `crispdec eval` scores."""
    model = SegModel(ModelConfig(seed=seed, dtype="float32", **LEVELS[level]))
    train(benchmark_train_config(seed), _copy_samples(train_data), model)
    scores = mean_scores([s for s, _ in score_model(model, eval_data)])
    scores.update(level=level, seed=seed)
    return scores


# at most this many processes share a waterfall, to bound its memory: a
# worker holds a copy of the data and one training graph and peaked at
# 720 MB over the 15 runs; four workers and the parent peaked at 2.5 GB
MAX_WORKERS = 4
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_worker_data: tuple = ()  # (train_data, eval_data) in a worker process


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _init_worker(train_data: list, eval_data: list) -> None:
    global _worker_data
    _worker_data = (train_data, eval_data)


def _run_task(task: tuple) -> tuple[dict, float, float]:
    """One run's scores and the CPU and wall seconds its worker spent on it."""
    level, seed = task
    cpu, wall = time.process_time(), time.perf_counter()
    scores = run_level(level, seed, *_worker_data)
    return scores, time.process_time() - cpu, time.perf_counter() - wall


@contextlib.contextmanager
def _single_blas_thread():
    """Processes started inside see BLAS pinned to one thread. Each worker
    runs one training, so threads of its own would only contend for the
    same cores (two 2-thread workers on 2 cores ran at half speed). The
    waterfall trains at float32, whose bytes do not depend on the thread
    count; float64 A4 and A6 training does, through OpenBLAS's float64
    GEMM."""
    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    os.environ.update({k: "1" for k in _BLAS_THREAD_VARS})
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def run_ablation(levels, seeds, train_data: list, eval_data: list,
                 verbose=False) -> dict:
    """Mean metrics per level over the given model/training seeds.

    Every (level, seed) run trains from its own seed, so the runs are
    spread over spawned worker processes, one per usable CPU (at most
    MAX_WORKERS); the scores are those that `run_level` gives in this
    process. `verbose` prints each run's scores, CPU and wall seconds as
    it ends, then the total CPU. A script that calls this must guard its
    own work with `if __name__ == "__main__":`, since spawned workers import it.
    """
    # the levels with more components train slower; start those first
    tasks = sorted(((level, seed) for level in levels for seed in seeds),
                   key=lambda t: -sum(LEVELS[t[0]].values()))
    workers = min(_usable_cpus(), MAX_WORKERS, len(tasks))

    scores: dict = {}
    total_cpu = 0.0
    ctx = multiprocessing.get_context("spawn")
    with _single_blas_thread():
        pool = ctx.Pool(workers, initializer=_init_worker,
                        initargs=(train_data, eval_data))
    with pool:
        for r, cpu_s, wall_s in pool.imap_unordered(_run_task, tasks):
            scores[r["level"], r["seed"]] = r
            total_cpu += cpu_s
            if verbose:
                print(f"{r['level']} seed={r['seed']}: miou={r['miou']:.4f} "
                      f"bf1={r['boundary_f1']:.4f} ece={r['ece']:.4f} "
                      f"cpu={cpu_s:.1f} s wall={wall_s:.1f} s", flush=True)
    if verbose:
        print(f"total cpu={total_cpu:.1f} s over {len(tasks)} runs", flush=True)

    results = {}
    for level in levels:
        per_seed = [scores[level, seed] for seed in seeds]
        results[level] = {
            "miou": float(np.mean([s["miou"] for s in per_seed])),
            "boundary_f1": float(np.mean([s["boundary_f1"] for s in per_seed])),
            "ece": float(np.mean([s["ece"] for s in per_seed])),
            "runs": per_seed,
        }
    return results


def calibrate(path: str = THRESHOLDS_PATH) -> dict:
    """Run the frozen waterfall and write its per-level means to `path`.
    After each run's scores and times and the total CPU it prints the mIoU and
    boundary F1 margins of each adjacent pair of calibrated chain levels,
    as the difference of the means and then per seed."""
    train_data, eval_data = make_benchmark_data()
    results = run_ablation(levels=WATERFALL_LEVELS, seeds=WATERFALL_SEEDS,
                           train_data=train_data, eval_data=eval_data,
                           verbose=True)
    chain = [level for level in WATERFALL_CHAIN if level in WATERFALL_LEVELS]
    for lo, hi in zip(chain, chain[1:]):
        means, seeds = [], []
        for m, name in (("miou", "miou"), ("boundary_f1", "bf1")):
            means.append(f"{name}={results[hi][m] - results[lo][m]:+.4f}")
            seeds.append(f"{name}=" + " ".join(
                f"{b[m] - a[m]:+.4f}" for a, b in zip(results[lo]["runs"], results[hi]["runs"])))
        print(f"{hi} - {lo}: {' '.join(means)}; seeds "
              f"{' '.join(map(str, WATERFALL_SEEDS))}: {' '.join(seeds)}", flush=True)
    pins = {"levels": {level: {m: results[level][m] for m in PINNED_METRICS}
                       for level in WATERFALL_LEVELS}}
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=2)
        fh.write("\n")
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m crispdec.benchmark",
        description="Run the frozen ablation waterfall (levels %s, seeds %s) "
                    "and pin its per-level means." % (
                        " ".join(WATERFALL_LEVELS),
                        " ".join(map(str, WATERFALL_SEEDS))))
    parser.add_argument("--calibrate", action="store_true", required=True,
                        help="run the waterfall and write the pinned means")
    parser.add_argument("--out", default=THRESHOLDS_PATH,
                        help="fixture to write (default: %(default)s)")
    args = parser.parse_args(argv)
    pins = calibrate(args.out)
    for level, vals in pins["levels"].items():
        print(level, " ".join(f"{m}={vals[m]:.6f}" for m in PINNED_METRICS))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
