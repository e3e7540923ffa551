"""Weak-label training orchestration: annealed ignore masks, decoupled
weight-decay Adam with warmup+cosine schedule, an EMA teacher, periodic
uncertainty-gated relabeling, and the early detach schedule for the
refiner's probability input.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .fileio import IGNORE, read_fields
from .losses import ALPHA, PseudoLabelSet, mix_uncertainty, total_loss
from .model import SegModel
from .synthdata import build_ignore_mask
from .tensor import Tensor, bilinear_upsample, softmax

LOG_COLUMNS = ["step", "l_total", "l_ce", "l_dice", "l_het", "l_bnd", "l_sdf",
               "mean_w", "valid_fraction"]


class TrainingDiverged(RuntimeError):
    """A non-finite loss or pre-clip gradient norm; raised before the
    optimizer step, so the parameters keep their last finite values."""

    def __init__(self, step: int, breakdown: dict):
        terms = ", ".join(f"{k}={v:.6g}" for k, v in breakdown.items())
        super().__init__(f"training diverged at step {step}: {terms}")
        self.breakdown = breakdown


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 8
    lr_decoder: float = 6e-5
    lr_encoder_scale: float = 0.1
    weight_decay: float = 1e-4
    q_start: float = 30.0
    q_end: float = 15.0
    q_anneal_epochs: int = 10
    ema_tau: float = 0.999
    relabel_period: int = 3
    keep_fraction: float = 0.8
    detach_p_epochs: int = 3
    warmup_epochs: int = 1
    grad_clip: float = 5.0
    seed: int = 0
    flip_augment: bool = True
    use_sdf: bool = True   # the surface-distance term is optional

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("need batch_size >= 1 and epochs >= 0")
        if not (0 <= self.q_end <= self.q_start < 100):
            raise ValueError("need 0 <= q_end <= q_start < 100")
        if not (0 < self.ema_tau < 1):
            raise ValueError("ema_tau must lie in (0,1)")
        if not (0 < self.keep_fraction < 1):
            raise ValueError("keep_fraction must lie in (0,1)")


def parse_config(path, base: TrainConfig | None = None) -> TrainConfig:
    """`base` (default TrainConfig()) with the values of a key=value file
    (`fileio.read_fields`); unknown keys and bad values are rejected."""
    return replace(base or TrainConfig(), **read_fields(path, TrainConfig))


def anneal_q(epoch: int, cfg: TrainConfig) -> float:
    """Linear from q_start at epoch 0 to q_end at q_anneal_epochs, then flat."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if epoch >= cfg.q_anneal_epochs:
        return cfg.q_end
    frac = epoch / cfg.q_anneal_epochs
    return cfg.q_start + (cfg.q_end - cfg.q_start) * frac


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


def relabel(p_t: np.ndarray, u_t: np.ndarray, keep_fraction: float) -> PseudoLabelSet:
    """Keep exactly ceil(keep_fraction * HW) lowest-uncertainty pixels of one
    image (ties: earlier row-major index wins); argmax labels there, IGNORE
    elsewhere."""
    if not (0 < keep_fraction < 1):
        raise ValueError("keep_fraction must lie in (0,1)")
    k_cls, h, w = p_t.shape
    if u_t.shape != (h, w):
        raise ValueError("probability/uncertainty shape mismatch")
    n_keep = int(np.ceil(keep_fraction * h * w))
    flat = u_t.reshape(-1)
    order = np.lexsort((np.arange(flat.size), flat))  # ascending u, ties by index
    keep_idx = order[:n_keep]
    yhat = np.full(h * w, IGNORE, dtype=np.int64)
    yhat[keep_idx] = p_t.reshape(k_cls, -1).argmax(axis=0)[keep_idx]
    valid = np.zeros(h * w, dtype=np.uint8)
    valid[keep_idx] = 1
    return PseudoLabelSet(yhat=yhat.reshape(1, h, w), valid=valid.reshape(1, h, w),
                          seed_uncertainty=u_t[None].copy())


def protect_classes(p: np.ndarray, u: np.ndarray,
                    labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inputs for `relabel` that keep the teacher from erasing a class.

    p [N,K,H,W] and u [N,H,W] are the teacher's probabilities and
    uncertainty over a whole label set; labels [N,H,W] are the labels they
    replace (IGNORE allowed). Returns (scores, order), shaped like p and u,
    to pass to `relabel` image by image.

    The teacher cannot confirm class c when its argmax keeps less than 1/K
    of the probability mass it puts on c: it sees the class but almost never
    ranks it first, and argmax relabeling would erase it (the confirmation
    bias of pseudo-labeling, Arazo et al. 2020). Pixels labeled with such a
    class keep their label; every other pixel takes the teacher's argmax.
    `scores` is the one-hot of that result. `order` is u ranked within each
    class of the result and scaled to [0,1), plus 1 where the result
    contradicts a current label (an IGNORE pixel has none to contradict),
    so relabel's cut drops contradicted pixels first and takes the same
    share of every class (class-balanced selection, Zou et al. 2018)
    instead of most of a minority class whose pixels are all uncertain.
    """
    n, k = p.shape[:2]
    if u.shape != (n, *p.shape[2:]) or labels.shape != u.shape:
        raise ValueError("probability/uncertainty/label shape mismatch")
    cls = p.argmax(axis=1)
    hard = np.bincount(cls.reshape(-1), minlength=k)
    soft = p.sum(axis=(0, 2, 3))
    held = np.isin(labels, np.flatnonzero(hard < soft / k))
    cls = np.where(held, labels, cls).reshape(-1)
    idx = np.lexsort((u.reshape(-1), cls))  # by class, then u; ties by index
    counts = np.bincount(cls, minlength=k)
    pos = np.empty(cls.size)
    pos[idx] = np.arange(cls.size)
    order = (pos - (np.cumsum(counts) - counts)[cls]) / counts[cls]
    flat = labels.reshape(-1)
    order += (cls != flat) & (flat != IGNORE)
    scores = np.arange(k)[None, :, None, None] == cls.reshape(labels.shape)[:, None]
    return scores, order.reshape(u.shape)


def teacher_predict(model: SegModel, teacher: TeacherState,
                    image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Refined-logit probabilities and mixed normalized uncertainty of the
    teacher on one image."""
    student_state = model.state_dict()
    model.load_state_dict(teacher.params)
    try:
        out = model.forward(image[None])
        h, w = image.shape[1], image.shape[2]
        zstar_up = bilinear_upsample(out.zstar, h, w)
        p = softmax(zstar_up, axis=1).data[0]
        if out.u_ale is not None:
            maps = mix_uncertainty(out.u_ale, zstar_up, ALPHA)
            u = maps.u.data[0, 0]
        else:
            # entropy only when the variance head is ablated
            maps = mix_uncertainty(Tensor(np.zeros((1, 1, h // 4, w // 4))),
                                   zstar_up, 0.0)
            u = maps.u.data[0, 0]
    finally:
        model.load_state_dict(student_state)
    return p, u


def relabel_all(model: SegModel, teacher: TeacherState, data: list,
                keep_fraction: float) -> None:
    """Replace every sample's label set with the teacher's, guarded by
    `protect_classes`; the new sets carry the teacher's uncertainty."""
    maps = [teacher_predict(model, teacher, s.image) for s in data]
    u = np.stack([u for _, u in maps])
    scores, order = protect_classes(np.stack([p for p, _ in maps]), u,
                                    np.concatenate([s.seed.yhat for s in data]))
    for s, sc, o, ui in zip(data, scores, order, u):
        s.seed = replace(relabel(sc, o, keep_fraction), seed_uncertainty=ui[None])


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
    """Scale the gradients down to a global L2 norm of at most `max_norm`
    (0: no clipping); returns the norm before clipping."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def train(cfg: TrainConfig, data: list, model: SegModel,
          log_path=None, checkpoint_dir=None) -> list[dict]:
    """Run the full loop over `data` (a list of synthdata Samples); returns
    per-step loss breakdowns. The samples' label sets are refreshed in place
    when the EMA teacher relabels."""
    rng = np.random.default_rng(cfg.seed)
    params = model.params
    lr = {k: cfg.lr_decoder * (cfg.lr_encoder_scale if k.startswith("enc.") else 1.0)
          for k in params}
    opt = AdamW(params, lr, weight_decay=cfg.weight_decay)
    teacher = TeacherState({k: v.copy() for k, v in model.state_dict().items()}) \
        if model.cfg.use_ema else None

    n = len(data)
    steps_per_epoch = max(1, math.ceil(n / cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = cfg.warmup_epochs * steps_per_epoch

    logs: list[dict] = []
    writer = None
    log_fh = None
    if log_path is not None:
        log_fh = open(log_path, "w", newline="")
        writer = csv.writer(log_fh)
        writer.writerow(LOG_COLUMNS)

    step = 0
    relabeled = False
    try:
        for epoch in range(cfg.epochs):
            if (teacher is not None and epoch > 0
                    and cfg.relabel_period > 0 and epoch % cfg.relabel_period == 0):
                relabel_all(model, teacher, data, cfg.keep_fraction)
                relabeled = True

            q = anneal_q(epoch, cfg)
            detach_p = epoch < cfg.detach_p_epochs
            order = rng.permutation(n) if n > 1 else np.arange(n)
            for lo in range(0, n, cfg.batch_size):
                batch = [data[i] for i in order[lo:lo + cfg.batch_size]]
                images = np.stack([s.image for s in batch])
                yhat = np.concatenate([s.seed.yhat for s in batch])
                unc = np.concatenate([s.seed.seed_uncertainty for s in batch])
                valid = np.concatenate([s.seed.valid for s in batch])
                if cfg.flip_augment:
                    flips = rng.random(len(batch)) < 0.5
                    images[flips] = images[flips, :, :, ::-1]
                    yhat[flips] = yhat[flips, :, ::-1]
                    unc[flips] = unc[flips, :, ::-1]
                    valid[flips] = valid[flips, :, ::-1]
                # relabeling rewrites the label set *and* its validity mask;
                # the seed-stage quantile filter applies only before that
                if relabeled:
                    m = valid.astype(np.uint8)
                else:
                    m = build_ignore_mask(unc, q) & (yhat != IGNORE)
                labels = PseudoLabelSet(yhat=yhat, valid=m, seed_uncertainty=unc)

                outputs = model.forward(images, detach_p=detach_p)
                loss, breakdown = total_loss(outputs, labels, cfg.use_sdf)
                if not math.isfinite(breakdown["l_total"]):
                    raise TrainingDiverged(step, breakdown)
                model.zero_grad()
                loss.backward()
                grad_norm = _clip_grads(params, cfg.grad_clip)
                if not math.isfinite(grad_norm):
                    raise TrainingDiverged(step, {**breakdown, "grad_norm": grad_norm})
                opt.step(_lr_factor(step, warmup_steps, total_steps))
                if teacher is not None:
                    ema_update(teacher, params, cfg.ema_tau)

                row = {"step": step, **breakdown}
                logs.append(row)
                if writer is not None:
                    writer.writerow([row["step"]] + [row[c] for c in LOG_COLUMNS[1:]])
                step += 1
    finally:
        if log_fh is not None:
            log_fh.close()

    if checkpoint_dir is not None:
        model.save(checkpoint_dir)
    return logs
