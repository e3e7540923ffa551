"""Weak-label training orchestration: annealed ignore masks, decoupled
weight-decay Adam with warmup+cosine schedule, an EMA teacher, periodic
uncertainty-gated relabeling, and the early detach schedule for the
refiner's probability input.
"""

from __future__ import annotations

import csv
import ctypes
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .fileio import IGNORE, read_fields
from .losses import ALPHA, PseudoLabelSet, mix_uncertainty, stack_geometry, total_loss
from .model import SegModel
from .synthdata import build_ignore_mask
from .tensor import Tensor, bilinear_upsample, log_softmax, no_grad, softmax

LOG_COLUMNS = ["step", "l_total", "l_ce", "l_dice", "l_het", "l_bnd", "l_sdf",
               "mean_w", "valid_fraction", "lr_factor", "q", "grad_norm", "clipped",
               "mean_gate", "fuse_w1", "fuse_w2", "fuse_w3", "fuse_w4"]
# one row per relabel event, in a file of this name next to the step log
RELABEL_LOG = "relabel_log.csv"
RELABEL_COLUMNS = ["epoch", "kept_fraction", "held_classes", "changed_fraction",
                   "acc_before", "acc_after"]


class TrainingDiverged(RuntimeError):
    """A non-finite loss or pre-clip gradient norm; raised before the
    optimizer step, so the parameters keep their last finite values."""

    def __init__(self, step: int, breakdown: dict):
        terms = ", ".join(f"{k}={v:.6g}" for k, v in breakdown.items())
        super().__init__(f"training diverged at step {step}: {terms}")
        self.breakdown = breakdown


# the schedule's fixed parts: the encoder learns at LR_ENCODER_SCALE times
# the decoder's rate, the seed filter masks the Q_START% most uncertain
# pixels at epoch 0 and Q_END% from q_anneal_epochs on, the learning rate
# warms up over WARMUP_EPOCHS, gradients clip to a global norm of GRAD_CLIP,
# and each image is flipped left-right with probability 1/2
LR_ENCODER_SCALE = 0.1
WEIGHT_DECAY = 1e-4
Q_START = 30.0
Q_END = 15.0
WARMUP_EPOCHS = 1
GRAD_CLIP = 5.0


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 8
    lr_decoder: float = 6e-5
    q_anneal_epochs: int = 10
    ema_tau: float = 0.999
    relabel_period: int = 3
    keep_fraction: float = 0.8
    detach_p_epochs: int = 3
    seed: int = 0
    use_sdf: bool = True   # the surface-distance term is optional

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("need batch_size >= 1 and epochs >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.lr_decoder > 0:
            raise ValueError("need lr_decoder > 0")
        if min(self.q_anneal_epochs, self.relabel_period, self.detach_p_epochs) < 0:
            raise ValueError("need q_anneal_epochs, relabel_period, detach_p_epochs >= 0")
        if not (0 < self.ema_tau < 1):
            raise ValueError("ema_tau must lie in (0,1)")
        if not (0 < self.keep_fraction < 1):
            raise ValueError("keep_fraction must lie in (0,1)")


def parse_config(path, base: TrainConfig | None = None) -> TrainConfig:
    """`base` (default TrainConfig()) with the values of a key=value file
    (`fileio.read_fields`); unknown keys and bad values are rejected with
    a ValueError that names the file."""
    values = read_fields(path, TrainConfig)
    try:
        return replace(base or TrainConfig(), **values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def anneal_q(epoch: int, cfg: TrainConfig) -> float:
    """Linear from Q_START at epoch 0 to Q_END at q_anneal_epochs, then flat."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if epoch >= cfg.q_anneal_epochs:
        return Q_END
    frac = epoch / cfg.q_anneal_epochs
    return Q_START + (Q_END - Q_START) * frac


@dataclass
class TeacherState:
    params: dict[str, np.ndarray]
    updates: int = 0


def ema_update(teacher: TeacherState, student_params: dict, tau: float) -> TeacherState:
    """theta_T <- tau * theta_T + (1 - tau) * theta_S, per parameter."""
    if set(teacher.params) != set(student_params):
        raise ValueError("teacher/student parameter manifests differ")
    for name, arr in teacher.params.items():
        s = student_params[name]
        s = s.data if isinstance(s, Tensor) else s
        arr *= tau
        arr += (1.0 - tau) * s
    teacher.updates += 1
    return teacher


def relabel(labels: np.ndarray, order: np.ndarray, keep_fraction: float) -> np.ndarray:
    """The label map [H,W] at exactly ceil(keep_fraction * HW) pixels of
    lowest `order` (ties: earlier row-major index wins), IGNORE elsewhere."""
    if not (0 < keep_fraction < 1):
        raise ValueError("keep_fraction must lie in (0,1)")
    if order.shape != labels.shape:
        raise ValueError("label/order shape mismatch")
    n_keep = int(np.ceil(keep_fraction * labels.size))
    flat = order.reshape(-1)
    # every value below the n_keep-th smallest, then its ties by index
    cut = np.partition(flat, n_keep - 1)[n_keep - 1]
    keep = flat < cut
    keep[np.flatnonzero(flat == cut)[:n_keep - np.count_nonzero(keep)]] = True
    return np.where(keep.reshape(labels.shape), labels, IGNORE)


def unconfirmed_classes(p: np.ndarray, hard: np.ndarray) -> np.ndarray:
    """The classes whose teacher argmax `hard` = p.argmax(axis=1) keeps less
    than 1/K of the probability mass the teacher puts on them in p [N,K,H,W]."""
    k = p.shape[1]
    counts = np.bincount(hard.reshape(-1), minlength=k)
    return np.flatnonzero(counts < p.sum(axis=(0, 2, 3)) / k)


def protect_classes(p: np.ndarray, u: np.ndarray, labels: np.ndarray,
                    hard: np.ndarray, held: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inputs for `relabel` that keep the teacher from erasing a class.

    p [N,K,H,W] and u [N,H,W] are the teacher's probabilities and
    uncertainty over a whole label set; labels [N,H,W] are the labels they
    replace (IGNORE allowed); `hard` = p.argmax(axis=1) and `held` =
    unconfirmed_classes(p, hard). Returns (new labels, order), both shaped
    like u, to pass to `relabel` image by image.

    The teacher cannot confirm class c when its argmax keeps less than 1/K
    of the probability mass it puts on c: it sees the class but almost never
    ranks it first, and argmax relabeling would erase it (the confirmation
    bias of pseudo-labeling, Arazo et al. 2020). Pixels labeled with such a
    class keep their label; every other pixel takes the teacher's argmax.
    `order` is u ranked within each class of the new labels and scaled to
    [0,1), plus 1 where they contradict a current label (an IGNORE pixel
    has none to contradict), so relabel's cut drops contradicted pixels
    first and takes the same share of every class (class-balanced
    selection, Zou et al. 2018) instead of most of a minority class whose
    pixels are all uncertain.
    """
    n, k = p.shape[:2]
    if u.shape != (n, *p.shape[2:]) or labels.shape != u.shape:
        raise ValueError("probability/uncertainty/label shape mismatch")
    cls = np.where(np.isin(labels, held), labels, hard).reshape(-1)
    flat_u = u.reshape(-1)
    order = np.empty(cls.size)
    for c in range(k):
        # the class's pixels ranked by u, ties by index: an unstable sort,
        # then each run of equal u put back in index order
        srt = np.flatnonzero(cls == c)
        srt = srt[np.argsort(flat_u[srt])]
        eq = flat_u[srt[1:]] == flat_u[srt[:-1]]
        tied = np.flatnonzero(np.r_[False, eq] | np.r_[eq, False])
        run = np.cumsum(np.r_[True, ~eq])[tied]
        srt[tied] = np.sort(run * cls.size + srt[tied]) % cls.size
        order[srt] = np.arange(srt.size) / srt.size
    flat = labels.reshape(-1)
    order += (cls != flat) & (flat != IGNORE)
    return cls.reshape(u.shape), order.reshape(u.shape)


def teacher_predict(model: SegModel, teacher: TeacherState,
                    images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Refined-logit probabilities p [N,K,H,W] and mixed normalized
    uncertainty u [N,H,W] of the teacher on images [N,3,H,W]; the forward
    pass records no autodiff graph."""
    student_state = model.state_dict()
    model.load_state_dict(teacher.params)
    try:
        with no_grad():
            out = model.forward(images)
            h, w = images.shape[2], images.shape[3]
            zstar_up = bilinear_upsample(out.zstar, h, w, np.float64)
            p = softmax(zstar_up, axis=1)
            u_up = None if out.u_ale is None else bilinear_upsample(out.u_ale, h, w, np.float64)
            u, _ = mix_uncertainty(u_up, p, log_softmax(zstar_up, axis=1), ALPHA)
    finally:
        model.load_state_dict(student_state)
    return p.data, u.data[:, 0]


def _label_accuracy(labels: np.ndarray, gt: np.ndarray) -> float:
    """Share of the non-IGNORE labels that equal the ground truth."""
    return float((labels == gt)[labels != IGNORE].mean())


def relabel_all(model: SegModel, teacher: TeacherState, data: list,
                keep_fraction: float, batch_size: int = TrainConfig.batch_size) -> dict:
    """Replace every sample's label set with the teacher's, guarded by
    `protect_classes`; the new sets carry the teacher's uncertainty. The
    teacher predicts `batch_size` images at a time (`train` passes its
    batch size, so relabeling peaks no higher than a step). Returns what
    changed, with label accuracies against `Sample.gt`: the
    RELABEL_COLUMNS but the epoch."""
    maps = [teacher_predict(model, teacher,
                            np.stack([s.image for s in data[lo:lo + batch_size]]))
            for lo in range(0, len(data), batch_size)]
    p = np.concatenate([p for p, _ in maps])
    u = np.concatenate([u for _, u in maps])
    before = np.concatenate([s.seed.yhat for s in data])
    hard = p.argmax(axis=1)
    held = unconfirmed_classes(p, hard)
    labels, order = protect_classes(p, u, before, hard, held)
    for s, lab, o, ui in zip(data, labels, order, u):
        yhat = relabel(lab, o, keep_fraction)
        s.seed = PseudoLabelSet(yhat=yhat, valid=yhat != IGNORE, seed_uncertainty=ui)
    after = np.concatenate([s.seed.yhat for s in data])
    gt = np.stack([s.gt for s in data])
    return {"kept_fraction": float((after != IGNORE).mean()),
            "held_classes": " ".join(str(c) for c in held),
            "changed_fraction": float((after != before).mean()),
            "acc_before": _label_accuracy(before, gt),
            "acc_after": _label_accuracy(after, gt)}


class AdamW:
    """Decoupled weight-decay adaptive moments, implemented from the
    published update rule."""

    def __init__(self, params: dict[str, Tensor], lr: dict[str, float],
                 weight_decay: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.wd = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr_factor: float = 1.0):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            mhat = self.m[name] / bc1
            vhat = self.v[name] / bc2
            lr = self.lr[name] * lr_factor
            p.data -= lr * (mhat / (np.sqrt(vhat) + self.eps) + self.wd * p.data)


def _lr_factor(step: int, warmup_steps: int, total_steps: int) -> float:
    if total_steps <= 0:
        return 1.0
    if warmup_steps > 0 and step < warmup_steps:
        return (step + 1) / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    prog = min((step - warmup_steps) / span, 1.0)
    return 0.5 * (1.0 + math.cos(math.pi * prog))


def _clip_grads(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale the gradients down to a global L2 norm of at most `max_norm`;
    returns the norm before clipping."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap():
    """Keep the heap a step frees for the next step, for the rest of the
    process. glibc's dynamic thresholds would hand it back to the OS after
    each step, and the next step would fault it in again. Arrays below
    32 MiB come from the heap, which is trimmed only past 1 GiB free at its
    top; either setting alone turns the dynamic thresholds off. A no-op
    without glibc's `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def train(cfg: TrainConfig, data: list, model: SegModel,
          log_path=None, checkpoint_dir=None) -> list[dict]:
    """Run the full loop over `data` (a list of synthdata Samples); returns
    per-step loss breakdowns. The samples' label sets are refreshed in place
    when the EMA teacher relabels. With `log_path`, each step is a row of
    that CSV and each relabel event a row of RELABEL_LOG beside it.

    Before its first step it calls `_keep_freed_heap`, which sets glibc's
    malloc thresholds for the rest of the process, not only for training:
    whatever the process runs after `train` allocates under them too."""
    rng = np.random.default_rng(cfg.seed)
    params = model.params
    lr = {k: cfg.lr_decoder * (LR_ENCODER_SCALE if k.startswith("enc.") else 1.0)
          for k in params}
    opt = AdamW(params, lr, weight_decay=WEIGHT_DECAY)
    teacher = TeacherState({k: v.copy() for k, v in model.state_dict().items()}) \
        if model.cfg.use_ema else None

    n = len(data)
    steps_per_epoch = max(1, math.ceil(n / cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = WARMUP_EPOCHS * steps_per_epoch

    logs: list[dict] = []
    writer = relabel_writer = None
    log_fh = relabel_fh = None
    step = 0
    relabeled = False
    _keep_freed_heap()
    try:
        if log_path is not None:
            log_fh = open(log_path, "w", newline="")
            writer = csv.writer(log_fh)
            writer.writerow(LOG_COLUMNS)
            relabel_fh = open(os.path.join(os.path.dirname(log_path), RELABEL_LOG),
                              "w", newline="")
            relabel_writer = csv.writer(relabel_fh)
            relabel_writer.writerow(RELABEL_COLUMNS)

        for epoch in range(cfg.epochs):
            if (teacher is not None and epoch > 0
                    and cfg.relabel_period > 0 and epoch % cfg.relabel_period == 0):
                event = {"epoch": epoch, **relabel_all(model, teacher, data,
                                                        cfg.keep_fraction, cfg.batch_size)}
                if relabel_writer is not None:
                    relabel_writer.writerow([event[c] for c in RELABEL_COLUMNS])
                relabeled = True

            q = anneal_q(epoch, cfg)
            detach_p = epoch < cfg.detach_p_epochs
            order = rng.permutation(n) if n > 1 else np.arange(n)
            for lo in range(0, n, cfg.batch_size):
                batch = [data[i] for i in order[lo:lo + cfg.batch_size]]
                images = np.stack([s.image for s in batch])
                yhat = np.concatenate([s.seed.yhat for s in batch])
                unc = np.concatenate([s.seed.seed_uncertainty for s in batch])
                flips = rng.random(len(batch)) < 0.5
                images[flips] = images[flips, :, :, ::-1]
                yhat[flips] = yhat[flips, :, ::-1]
                unc[flips] = unc[flips, :, ::-1]
                m = yhat != IGNORE
                # the seed-stage quantile filter applies only before relabeling
                if not relabeled:
                    m = build_ignore_mask(unc, q) & m
                labels = PseudoLabelSet(yhat=yhat, valid=m, seed_uncertainty=unc)
                if model.cfg.use_bnd:
                    stack_geometry(labels, [s.seed for s in batch], flips, cfg.use_sdf)

                outputs = model.forward(images, detach_p=detach_p)
                loss, breakdown = total_loss(outputs, labels, cfg.use_sdf)
                if not math.isfinite(breakdown["l_total"]):
                    raise TrainingDiverged(step, breakdown)
                model.zero_grad()
                loss.backward()
                grad_norm = _clip_grads(params, GRAD_CLIP)
                if not math.isfinite(grad_norm):
                    raise TrainingDiverged(step, {**breakdown, "grad_norm": grad_norm})
                lr_factor = _lr_factor(step, warmup_steps, total_steps)
                opt.step(lr_factor)
                if teacher is not None:
                    ema_update(teacher, params, cfg.ema_tau)

                fw, gate = outputs.weights, outputs.gate  # None (empty cells) if absent
                row = {"step": step, **breakdown, "lr_factor": lr_factor,
                       "q": 0.0 if relabeled else q, "grad_norm": grad_norm,
                       "clipped": int(grad_norm > GRAD_CLIP),
                       "mean_gate": None if gate is None else float(gate.data.mean()),
                       **{f"fuse_w{i + 1}": None if fw is None else float(fw.data[:, i].mean())
                          for i in range(4)}}
                logs.append(row)
                if writer is not None:
                    writer.writerow([row["step"]] + [row[c] for c in LOG_COLUMNS[1:]])
                step += 1
    finally:
        for fh in (log_fh, relabel_fh):
            if fh is not None:
                fh.close()

    if checkpoint_dir is not None:
        model.save(checkpoint_dir)
    return logs
