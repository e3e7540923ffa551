"""One workload in its own process: set up, run closed-loop units, check.

``run.py`` starts this file with the BLAS thread variables already set, so
numpy loads with the pinned thread count. Progress goes to an events file
of JSON lines: ``begin`` before every unit, ``step`` after each stamped
call (an optimizer step or an eval image), ``end`` after every unit and a
``result`` at the end, so that the parent can count the steps left
unfinished when this process dies.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import crispdec  # noqa: E402
from crispdec import benchmark, cli, loop, metrics, model, synthdata  # noqa: E402
from crispdec.fileio import IGNORE  # noqa: E402

import tracer as tr  # noqa: E402

# the frozen benchmark's heavy seed corruption (crispdec.benchmark)
CORRUPTION = dict(erode_px=3, dilate_px=3, blob_smooth_iters=2,
                  drop_thin_prob=0.8, flip_prob=0.15)
HELDOUT_SEED_OFFSET = 1_000_003   # held-out scenes never share a seed with training scenes
MIN_UNITS = 4                      # medians over at least this many units, which must agree exactly
TAIL_INTERVALS = 44                # a run collects at least this many step intervals
SCORED_UNITS = 2                   # held-out scoring of this many units, outside the timed call
SCORE_BATCH = 16

A6 = dict(use_dmf=True, use_var=True, use_ugr=True, use_bnd=True, use_udmf=True,
          use_ema=True)
U0 = dict(use_dmf=True, use_var=False, use_ugr=False, use_bnd=True, use_udmf=False,
          use_ema=False)


@dataclass(frozen=True)
class TrainWorkload:
    flags: dict
    dtype: str
    batch_size: int
    use_sdf: bool
    scenes: int
    epochs: int
    relabel_period: int
    heldout: int = 32
    setup_repeats: int = 5             # setup_s is the median of this many set-ups


@dataclass(frozen=True)
class EvalWorkload:
    train_scenes: int
    train_epochs: int
    train_batch: int
    train_lr: float
    scenes: int
    setup_repeats: int = 3


# Sizes: train units are short loop.train calls, so that a run's medians
# are taken over many calls and a burst of machine noise moves few of
# them. Both train calls have 12 steps, 11 step intervals. A train-a6 call
# has 3 steps per epoch and relabels at the start of epochs 1 to 3 of 4, so
# 3 of its 11 intervals hold a relabeling: more than the 23% of intervals
# above the tail percentile, which lands on relabel intervals, and few
# enough that the median lands on plain steps. A train-u0-sdf64
# call runs 4 epochs, so every label map comes back and label-geometry
# caching has work to save. The eval checkpoint gets 48 steps at batch 4,
# enough for real foreground structure in its predictions.
WORKLOADS = {
    "train-a6": TrainWorkload(flags=A6, dtype="float32", batch_size=16, use_sdf=False,
                              scenes=48, epochs=4, relabel_period=1),
    "train-u0-sdf64": TrainWorkload(flags=U0, dtype="float64", batch_size=8, use_sdf=True,
                                    scenes=24, epochs=4, relabel_period=0),
    "eval-a6": EvalWorkload(train_scenes=24, train_epochs=8, train_batch=4, train_lr=2e-2,
                            scenes=64),
}

# --scale small: the fault-injection self-test's tiny versions
SMALL = {
    "train-a6": replace(WORKLOADS["train-a6"], scenes=16, epochs=4, relabel_period=2,
                        heldout=4),
    "train-u0-sdf64": replace(WORKLOADS["train-u0-sdf64"], scenes=16, epochs=1, heldout=4),
    "eval-a6": replace(WORKLOADS["eval-a6"], train_scenes=8, train_epochs=1, scenes=8),
}


class InjectedFault(RuntimeError):
    """Raised by the harness's own stamp wrapper in the self-test."""


class Stamps:
    """A wrapper on one method that records a single timestamp per call,
    in CPU time of this process (see ``clock``).

    It is the harness's own wrapper: the self-test makes it fail on its
    n-th call, by raising or by ending the process.
    """

    def __init__(self, cls, meth, events, fault=None):
        self.times = []
        self.fault = fault
        orig = cls.__dict__[meth]

        def stamped(obj, *args, **kwargs):
            result = orig(obj, *args, **kwargs)
            if self.fault and len(self.times) + 1 == self.fault[1]:
                if self.fault[0] == "exit":
                    os._exit(70)
                raise InjectedFault(f"injected fault at call {self.fault[1]}")
            self.times.append(process_time())
            events.emit(event="step")
            return result

        setattr(cls, meth, stamped)


@contextlib.contextmanager
def clock():
    """CPU and wall time of the block. The benchmark's times are CPU time of
    this process: the workload is one thread, so on an idle machine the two
    agree, and CPU time leaves out the time the host takes the CPU away
    (steal), which on a shared machine moves wall time by tens of percent
    from one minute to the next."""
    t = {}
    c0, w0 = process_time(), perf_counter()
    try:
        yield t
    finally:
        t["cpu_s"], t["wall_s"] = process_time() - c0, perf_counter() - w0


class Events:
    def __init__(self, path):
        self.fh = open(path, "a", encoding="utf-8")

    def emit(self, **event):
        self.fh.write(json.dumps(event) + "\n")
        self.fh.flush()

    def close(self):
        self.fh.close()


def copy_samples(samples):
    """Fresh label sets; relabeling rewrites them in place."""
    out = []
    for s in samples:
        seed = crispdec.PseudoLabelSet(yhat=s.seed.yhat.copy(), valid=s.seed.valid.copy(),
                                       seed_uncertainty=s.seed.seed_uncertainty.copy())
        out.append(synthdata.Sample(image=s.image, gt=s.gt, seed=seed))
    return out


def make_scenes(n, seed):
    return synthdata.make_dataset(n, synthdata.SceneSpec(seed=seed),
                                  synthdata.CorruptionSpec(**CORRUPTION))


def score(m, samples):
    """Mean held-out mIoU, Boundary-F1 and ECE against ground truth."""
    k = m.cfg.num_classes
    mious, bf1s, eces = [], [], []
    for lo in range(0, len(samples), SCORE_BATCH):
        batch = samples[lo:lo + SCORE_BATCH]
        pred, conf = m.predict(np.stack([s.image for s in batch]))
        for i, s in enumerate(batch):
            mious.append(metrics.miou(pred[i], s.gt, k)[1])
            bf1s.append(metrics.boundary_f1(pred[i], s.gt))
            keep = s.gt != IGNORE
            eces.append(metrics.ece(conf[i][keep], (pred[i] == s.gt)[keep]))
    return {"heldout_miou": float(np.mean(mious)), "heldout_bf1": float(np.mean(bf1s)),
            "heldout_ece": float(np.mean(eces))}


# -- train workloads ---------------------------------------------------------------------


class TrainRunner:
    window = contextlib.nullcontext   # the traced run records spans inside it

    def __init__(self, wl: TrainWorkload, seed: int, stamps: Stamps):
        self.wl, self.seed, self.stamps = wl, seed, stamps
        self.model_cfg = model.ModelConfig(seed=seed, dtype=wl.dtype, **wl.flags)
        self.cfg = replace(benchmark.benchmark_train_config(seed), epochs=wl.epochs,
                           batch_size=wl.batch_size, use_sdf=wl.use_sdf,
                           relabel_period=wl.relabel_period)
        self.steps_per_epoch = math.ceil(wl.scenes / wl.batch_size)
        self.planned = wl.epochs * self.steps_per_epoch

    def setup(self):
        """Scene generation, seed corruption and model construction."""
        self.train = make_scenes(self.wl.scenes, self.seed)
        self.heldout = make_scenes(self.wl.heldout, self.seed + HELDOUT_SEED_OFFSET)
        model.SegModel(self.model_cfg)

    def unit(self, scored=True):
        m = model.SegModel(self.model_cfg)
        data = copy_samples(self.train)
        self.stamps.times.clear()
        with self.window():
            with clock() as t:
                logs = loop.train(self.cfg, data, m)
        last = logs[-self.steps_per_epoch:]
        finite = all(math.isfinite(v) for row in logs for k, v in row.items()
                     if k.startswith("l_"))
        quality = {"final_loss": float(np.mean([r["l_total"] for r in last]))}
        if scored:
            quality.update(score(m, self.heldout))
        return {**t, "units": len(self.stamps.times),
                "images": self.wl.epochs * self.wl.scenes,
                "intervals": np.diff(self.stamps.times).tolist(),
                "quality": quality,
                "checks": {"losses finite": finite}}


# -- eval workload -------------------------------------------------------------------------


class EvalRunner:
    window = contextlib.nullcontext

    def __init__(self, wl: EvalWorkload, seed: int, stamps: Stamps, workdir: Path):
        self.wl, self.seed, self.stamps = wl, seed, stamps
        self.workdir = workdir
        self.data_dir = workdir / "eval_data"
        self.ckpt = workdir / "checkpoint"
        self.planned = wl.scenes

    def setup(self):
        """Scenes, seed corruption, model construction, a short
        deterministic training, the checkpoint save and the dataset export."""
        for d in (self.data_dir, self.ckpt):
            shutil.rmtree(d, ignore_errors=True)
        train = make_scenes(self.wl.train_scenes, self.seed)
        heldout = make_scenes(self.wl.scenes, self.seed + HELDOUT_SEED_OFFSET)
        m = model.SegModel(model.ModelConfig(seed=self.seed, dtype="float32", **A6))
        cfg = replace(benchmark.benchmark_train_config(self.seed), epochs=self.wl.train_epochs,
                      batch_size=self.wl.train_batch, lr_decoder=self.wl.train_lr,
                      relabel_period=0)
        loop.train(cfg, train, m)
        m.save(str(self.ckpt))
        synthdata.export_dataset(str(self.data_dir), heldout)

    def unit(self, scored=True):
        out = self.workdir / "eval_out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        csv_path, conf_dir = out / "scores.csv", out / "confidence"
        argv = ["eval", "--checkpoint", str(self.ckpt), "--data", str(self.data_dir),
                "--out", str(csv_path), "--dump-confidence", str(conf_dir)]
        self.stamps.times.clear()
        with self.window():
            with clock() as t:
                rc = cli.main(argv)
        checks = {"eval exit code 0": rc == 0}
        quality = {}
        if rc == 0:
            checks.update(self._check_csv(csv_path, quality))
            checks["one confidence map per scene"] = (
                len(list(conf_dir.glob("*.ctsr"))) == self.wl.scenes)
        return {**t, "units": len(self.stamps.times),
                "images": self.wl.scenes,
                "intervals": np.diff(self.stamps.times).tolist(),
                "quality": quality, "checks": checks}

    def _check_csv(self, path, quality):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        body, agg = rows[1:-1], rows[-1]
        names_ok = [r[0] for r in body] == [f"{i:05d}" for i in range(self.wl.scenes)]
        values = np.array([[float(v) for v in r[1:]] for r in body])
        agg_values = np.array([float(v) for v in agg[1:]])
        # six printed decimals on both sides: the means agree to 1e-6
        mean_ok = bool(np.all(np.abs(values.mean(axis=0) - agg_values) <= 1.0000001e-6))
        quality.update(heldout_miou=agg_values[0], heldout_bf1=agg_values[1],
                       heldout_ece=agg_values[2],
                       csv_sha256=hashlib.sha256(Path(path).read_bytes()).hexdigest())
        return {"eval CSV has one row per scene": names_ok and agg[0] == "aggregate",
                "eval CSV aggregate equals row means": mean_ok}


# -- process entry --------------------------------------------------------------------------


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "machine": platform.machine()}


def run_unit(runner, events, scored=True):
    """One closed-loop unit; a failure counts its unfinished steps."""
    events.emit(event="begin", planned=runner.planned)
    try:
        res = runner.unit(scored)
    except Exception as exc:  # the failure is reported, not raised
        done = len(runner.stamps.times)
        events.emit(event="end", completed=done, failed=runner.planned - done,
                    error=f"{type(exc).__name__}: {exc}")
        return None
    failed = runner.planned - res["units"]
    if failed:
        bad = ", ".join(name for name, ok in res["checks"].items() if not ok)
        events.emit(event="end", completed=res["units"], failed=failed,
                    error=f"unit left {failed} of {runner.planned} unfinished ({bad})")
        return None
    events.emit(event="end", completed=res["units"], failed=0)
    return res


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--events", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--scale", choices=("full", "small"), default="full")
    ap.add_argument("--inject", help="KIND@N: the harness stamp wrapper raises "
                    "(KIND=raise) or exits (KIND=exit) on its N-th call")
    args = ap.parse_args(argv)

    if not Path(crispdec.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"crispdec was imported from {crispdec.__file__}, not this checkout")
    fault = None
    if args.inject:
        kind, _, n = args.inject.partition("@")
        fault = (kind, int(n))
    wl = (SMALL if args.scale == "small" else WORKLOADS)[args.workload]
    workdir = Path(args.workdir)
    events = Events(args.events)
    if isinstance(wl, TrainWorkload):
        runner = TrainRunner(wl, args.seed, Stamps(loop.AdamW, "step", events, fault))
    else:
        runner = EvalRunner(wl, args.seed, Stamps(model.SegModel, "predict", events, fault),
                            workdir)

    result = {"environment": environment(), "units": [], "setup_s": [],
              "tail_intervals": TAIL_INTERVALS}
    if args.trace:
        result.update(trace_run(runner, events))
    else:
        def setup():
            with clock() as t:
                runner.setup()
            result["setup_s"].append(t["cpu_s"])

        timed = 0.0
        intervals = 0
        while True:
            # set-ups are spread evenly over the measured time, and so are
            # the units between them: the machine's speed shifts for tens of
            # seconds at a time, and a run's medians should span several shifts
            if (len(result["setup_s"]) < wl.setup_repeats
                    and timed >= len(result["setup_s"]) * args.seconds / wl.setup_repeats):
                setup()
            res = run_unit(runner, events, scored=len(result["units"]) < SCORED_UNITS)
            if res is None:
                break
            result["units"].append(res)
            timed += res["cpu_s"]
            intervals += len(res["intervals"])
            times = [u["cpu_s"] for u in result["units"]]
            if (len(times) >= MIN_UNITS and intervals >= TAIL_INTERVALS
                    and timed + statistics.median(times) > args.seconds):
                while len(result["setup_s"]) < wl.setup_repeats:
                    setup()
                break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    events.emit(event="result", **result)
    events.close()
    return 0


# Untraced (False) and traced (True) units of a traced run, in ABBA order
# so that warm-up and drift fall on both sides of the overhead.
TRACE_ORDER = (False, True, True, False, False, True)


def trace_run(runner, events):
    """Untraced and traced units from one traced set-up; per-layer metrics
    over the traced units, overhead as the difference of median CPU times."""
    tracer = tr.Tracer()
    inst = tr.install(tracer)
    idx = tracer.open_window("setup")
    runner.setup()
    tracer.close_window(idx)
    inst.remove()

    @contextlib.contextmanager
    def timed_window():
        idx = tracer.open_window("timed")
        try:
            yield
        finally:
            tracer.close_window(idx)

    done = {False: [], True: []}
    for traced in TRACE_ORDER:
        inst = tr.install(tracer) if traced else None
        runner.window = timed_window if traced else contextlib.nullcontext
        try:
            res = run_unit(runner, events)
        finally:
            if inst is not None:
                inst.remove()
        if res is None:
            break
        done[traced].append(res)
    out = {"units": done[False] + done[True]}
    if len(out["units"]) < len(TRACE_ORDER):
        return out
    units = sum(u["units"] for u in done[True])
    scenes = len([s for s in tracer.spans
                  if s[0] == "synthdata.generate_scene" and s[4] == "setup"])
    out["layers"] = tr.layer_metrics(tracer, units, scenes)
    out["self_time"] = tr.self_time_table(tracer, units)
    times = {k: statistics.median(u["cpu_s"] for u in v) for k, v in done.items()}
    out["trace_overhead_s"] = times[True] - times[False]
    out["untraced_cpu_s"] = times[False]
    out["spans"] = [s[:4] for s in tracer.spans if s[4] == "timed"]
    return out


if __name__ == "__main__":
    sys.exit(main())
