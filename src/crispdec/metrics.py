"""Mask-quality metrics: mIoU, thin-band Boundary-F1, expected calibration
error, and structural scores (TV-smoothness, compactness, edge regularity).
"""

from __future__ import annotations

import csv
import os

import numpy as np
from scipy import ndimage

from .fileio import IGNORE, read_ctsr, read_pgm
from .geometry import boundary_seeds, dilate_square


def confusion_matrix(pred: np.ndarray, gt: np.ndarray, k: int) -> np.ndarray:
    """K x K counts, rows = ground truth, cols = prediction; IGNORE pixels
    in gt are excluded."""
    pred = np.asarray(pred).ravel()
    gt = np.asarray(gt).ravel()
    if pred.shape != gt.shape:
        raise ValueError("pred/gt shape mismatch")
    keep = gt != IGNORE
    pred, gt = pred[keep], gt[keep]
    if np.any((pred < 0) | (pred >= k)) or np.any((gt < 0) | (gt >= k)):
        raise ValueError(f"labels out of range for K={k}")
    return np.bincount(gt * k + pred, minlength=k * k).reshape(k, k)


def miou(pred: np.ndarray, gt: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Per-class IoU (nan where the class is absent from both maps) and the
    mean over the remaining classes."""
    cm = confusion_matrix(pred, gt, k)
    tp = np.diag(cm).astype(np.float64)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    denom = tp + fp + fn
    iou = np.where(denom > 0, tp / np.maximum(denom, 1), np.nan)
    present = denom > 0
    mean = float(np.mean(iou[present])) if present.any() else 1.0
    return iou, mean


def _chebyshev_hit(points: np.ndarray, targets: np.ndarray, band_px: int) -> np.ndarray:
    """For each True pixel in `points`, whether a True pixel of `targets`
    lies within Chebyshev distance < band_px."""
    return points & dilate_square(targets, band_px - 1)


def boundary_f1(pred: np.ndarray, gt: np.ndarray, band_px: int = 2) -> float:
    """F1 of class-agnostic boundary pixels under a Chebyshev tolerance band."""
    pb = boundary_seeds(np.asarray(pred))
    gb = boundary_seeds(np.asarray(gt))
    if not pb.any() and not gb.any():
        return 1.0
    if not pb.any() or not gb.any():
        return 0.0
    precision = _chebyshev_hit(pb, gb, band_px).sum() / pb.sum()
    recall = _chebyshev_hit(gb, pb, band_px).sum() / gb.sum()
    if precision + recall == 0:
        return 0.0
    return float(2 * precision * recall / (precision + recall))


def ece(confidences: np.ndarray, correct: np.ndarray, bins: int = 10) -> float:
    """Expected calibration error with equal-width confidence bins."""
    conf = np.asarray(confidences, dtype=np.float64).ravel()
    corr = np.asarray(correct, dtype=np.float64).ravel()
    if conf.shape != corr.shape:
        raise ValueError("confidence/correctness shape mismatch")
    if conf.size == 0:
        return 0.0
    if conf.min() < 0 or conf.max() > 1:
        raise ValueError("confidences must lie in [0,1]")
    idx = np.minimum((conf * bins).astype(int), bins - 1)
    # a stable sort by bin (a radix sort, on small unsigned keys) makes each
    # bin one slice, its elements in their original order, so each mean
    # sums what a boolean-mask gather would
    order = np.argsort(idx.astype(np.min_scalar_type(bins)), kind="stable")
    conf, corr = conf[order], corr[order]
    ends = np.cumsum(np.bincount(idx, minlength=bins)).tolist()
    total = conf.size
    score = 0.0
    for lo, hi in zip([0] + ends, ends):
        if hi > lo:
            score += ((hi - lo) / total) * abs(corr[lo:hi].mean() - conf[lo:hi].mean())
    return float(score)


def tv_smoothness(mask: np.ndarray) -> float:
    """1 - (4-neighbor transition count) / (2*H*W), clamped to [0,1]."""
    m = np.asarray(mask).astype(bool)
    h, w = m.shape
    transitions = int((m[:, 1:] != m[:, :-1]).sum() + (m[1:, :] != m[:-1, :]).sum())
    return float(np.clip(1.0 - transitions / (2.0 * h * w), 0.0, 1.0))


def _perimeter_edges(m: np.ndarray) -> int:
    """Count of foreground pixel sides exposed to background or the border."""
    per = int((m[:, 1:] != m[:, :-1]).sum() + (m[1:, :] != m[:-1, :]).sum())
    per += int(m[0, :].sum() + m[-1, :].sum() + m[:, 0].sum() + m[:, -1].sum())
    return per


def compactness(mask: np.ndarray) -> float:
    """Isoperimetric ratio 4*pi*area / perimeter^2, clamped to [0,1]."""
    m = np.asarray(mask).astype(bool)
    area = int(m.sum())
    if area == 0:
        return 0.0
    per = _perimeter_edges(m)  # >= 4 whenever area > 0
    return float(np.clip(4.0 * np.pi * area / per ** 2, 0.0, 1.0))


_MOORE = [(-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1)]
_MOORE_INDEX = {d: i for i, d in enumerate(_MOORE)}
# _TURN[i, j]: the absolute turn, in radians, of a chain that steps in Moore
# direction i and then in direction j
_TURN = np.array([[abs((np.arctan2(d_out[0], d_out[1]) - np.arctan2(d_in[0], d_in[1])
                        + np.pi) % (2 * np.pi) - np.pi) for d_out in _MOORE]
                  for d_in in _MOORE])


def _trace_boundary(comp: np.ndarray, start: tuple) -> tuple[list, list]:
    """Moore-neighbor trace of one component's outer boundary, clockwise,
    Jacob's stopping criterion. Returns the closed pixel chain and the
    Moore direction index of each of its steps."""
    h, w = comp.shape

    def fg(p):
        return 0 <= p[0] < h and 0 <= p[1] < w and comp[p]

    backtrack = (start[0], start[1] - 1)  # entered scanning from the west
    chain, dirs = [start], []
    cur = start
    first_state = None
    for _ in range(8 * comp.sum() + 8):
        bdir = (backtrack[0] - cur[0], backtrack[1] - cur[1])
        k0 = _MOORE_INDEX[bdir]
        nxt = None
        for j in range(1, 9):
            d = _MOORE[(k0 + j) % 8]
            cand = (cur[0] + d[0], cur[1] + d[1])
            if fg(cand):
                nxt = cand
                break
            backtrack_cand = cand
        if nxt is None:
            return chain, dirs  # isolated pixel
        state = (cur, nxt)
        if first_state is None:
            first_state = state
        elif state == first_state:
            break
        backtrack = backtrack_cand if j > 1 else backtrack
        chain.append(nxt)
        dirs.append((k0 + j) % 8)
        cur = nxt
    return chain, dirs


def edge_regularity(mask: np.ndarray, curvature_threshold: float = np.pi / 4) -> float:
    """Fraction of boundary pixels whose chain direction turns by more than
    the threshold. Empty boundary gives 0."""
    m = np.asarray(mask).astype(bool)
    if not m.any():
        return 0.0
    labeled, n_comp = ndimage.label(m, structure=np.ones((3, 3), dtype=bool))
    flagged: set = set()
    boundary_pixels: set = set()
    for c in range(1, n_comp + 1):
        comp = labeled == c
        rows, cols = np.nonzero(comp)
        start = (int(rows[0]), int(cols[0]))
        chain, dirs = _trace_boundary(comp, start)
        boundary_pixels.update(chain)
        if len(chain) < 3:
            continue
        # closed chain: pixel i turns from step i-1 (wrapping) into step i
        dirs = np.array(dirs)
        turn = _TURN[np.roll(dirs, 1), dirs]
        flagged.update(chain[i] for i in np.flatnonzero(turn > curvature_threshold + 1e-9))
    if not boundary_pixels:
        return 0.0
    return float(len(flagged) / len(boundary_pixels))


def structural_scores(pred: np.ndarray, k: int) -> tuple[float, float, float]:
    """TV/compactness/edge-regularity of each foreground class's binary mask,
    area-weighted over classes present in the prediction."""
    pred = np.asarray(pred)
    tv = comp = edge = 0.0
    total_area = 0
    for c in range(1, k):
        m = pred == c
        area = int(m.sum())
        if area == 0:
            continue
        tv += area * tv_smoothness(m)
        comp += area * compactness(m)
        edge += area * edge_regularity(m)
        total_area += area
    if total_area == 0:
        return 1.0, 0.0, 0.0
    return tv / total_area, comp / total_area, edge / total_area


SCORE_NAMES = ("miou", "boundary_f1", "ece", "tv_smooth", "compactness",
               "edge_regularity")


def score(pred: np.ndarray, gt: np.ndarray, k: int, conf: np.ndarray | None = None,
          band_px: int = 2, bins: int = 10) -> dict:
    """One image's scores against ground truth, keyed by SCORE_NAMES.
    ECE needs the max-softmax confidences `conf` and is None without them."""
    _, mean_iou = miou(pred, gt, k)
    bf1 = boundary_f1(pred, gt, band_px)
    e = None
    if conf is not None:
        keep = gt != IGNORE
        e = ece(conf[keep], (pred == gt)[keep], bins)
    tv, comp, edge = structural_scores(pred, k)
    return dict(zip(SCORE_NAMES, (mean_iou, bf1, e, tv, comp, edge)))


def mean_scores(scores: list) -> dict:
    """Per-name mean over images' `score` results; None where no image has
    a value (ECE without confidences)."""
    out = {}
    for name in SCORE_NAMES:
        vals = [s[name] for s in scores if s[name] is not None]
        out[name] = float(np.mean(vals)) if vals else None
    return out


def write_csv(path, rows: list) -> dict | None:
    """Write (image name, `score` result) rows and, when there are any, an
    "aggregate" row of their means; every value to six decimals, "" for a
    missing one. Returns the aggregate (None without rows)."""
    def cells(scores):
        return ["" if scores[n] is None else f"{scores[n]:.6f}" for n in SCORE_NAMES]

    agg = mean_scores([s for _, s in rows]) if rows else None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image", *SCORE_NAMES])
        for name, scores in rows:
            writer.writerow([name, *cells(scores)])
        if agg is not None:
            writer.writerow(["aggregate", *cells(agg)])
    return agg


def evaluate(pred_dir, gt_dir, k: int, band_px: int = 2, bins: int = 10,
             conf_dir=None) -> tuple[list, list]:
    """Score every PGM pair under two directories (ECE from the CTSR maps
    in `conf_dir`, when given).

    Returns (rows, errors): (name, `score` result) for each scored pair and
    (name, message) for each pair that fails to load or mismatches in
    shape, which is skipped.
    """
    names = sorted(f for f in os.listdir(gt_dir) if f.endswith(".pgm"))
    rows, errors = [], []
    for name in names:
        try:
            gt = read_pgm(os.path.join(gt_dir, name))
            pred = read_pgm(os.path.join(pred_dir, name))
            if pred.shape != gt.shape:
                raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
            conf = None
            if conf_dir is not None:
                conf = read_ctsr(os.path.join(conf_dir, name[:-4] + ".ctsr"))
            rows.append((name, score(pred, gt, k, conf, band_px, bins)))
        except Exception as exc:  # noqa: BLE001 - error rows keep the run going
            errors.append((name, str(exc)))
    return rows, errors
