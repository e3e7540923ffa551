"""Training objectives: masked uncertainty-weighted CE+Dice, heteroscedastic
likelihood on pre-refine logits, thin-band boundary loss, surface-distance
loss, and their weighted sum.

All reductions are means over contributing pixels so the scale of each term
does not depend on image size. Invalid (ignored) pixels contribute exactly
zero, including to gradients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fileio import IGNORE
from .geometry import PHI_SENTINEL, boundary_band, signed_distance
from .tensor import Tensor, bilinear_upsample, log_softmax, softmax

DICE_SMOOTH = 1.0
_MINMAX_TINY = 1e-12

# coefficients of the weighted sum in total_loss (CE has weight 1)
LAMBDA_DICE = 1.0
LAMBDA_HET = 0.5
LAMBDA_BND = 0.5
LAMBDA_SDF = 0.1
ALPHA = 0.5    # aleatoric vs entropy mixing of the uncertainty map
BETA = 2.0     # weight sharpness: w = exp(-BETA * U)
BAND_PX = 2    # half-width of the boundary band the boundary loss supervises


@dataclass
class PseudoLabelSet:
    """Per-image hard labels, a validity mask, and the seed uncertainty
    used for top-q% filtering. valid == 0 wherever yhat == IGNORE."""

    yhat: np.ndarray               # int labels [N,H,W], IGNORE allowed
    valid: np.ndarray              # {0,1} [N,H,W]
    seed_uncertainty: np.ndarray   # float [N,H,W]

    def __post_init__(self):
        self.yhat = np.asarray(self.yhat)
        self.valid = np.asarray(self.valid).astype(np.uint8)
        self.seed_uncertainty = np.asarray(self.seed_uncertainty, dtype=np.float64)
        if self.yhat.ndim == 2:
            self.yhat = self.yhat[None]
            self.valid = self.valid[None]
            self.seed_uncertainty = self.seed_uncertainty[None]
        if not (self.yhat.shape == self.valid.shape == self.seed_uncertainty.shape):
            raise ValueError("label/mask/uncertainty shapes disagree")
        if np.any(self.valid & (self.yhat == IGNORE)):
            raise ValueError("valid mask must be 0 on IGNORE pixels")


@dataclass
class UncertaintyMaps:
    u_ale_up: Tensor   # upsampled + per-image min-max normalized
    u_ent: Tensor      # normalized prediction entropy
    u: Tensor          # mixed
    w: Tensor          # exp(-beta * u)


def _check_labels(labels: PseudoLabelSet, k: int):
    lab = labels.yhat
    bad = (lab != IGNORE) & ((lab < 0) | (lab >= k))
    if np.any(bad):
        raise ValueError(f"labels out of range for K={k}")


def _one_hot(labels: PseudoLabelSet, k: int) -> np.ndarray:
    n, h, w = labels.yhat.shape
    oh = np.zeros((n, k, h, w))
    lab = np.where(labels.valid.astype(bool), labels.yhat, 0)
    np.put_along_axis(oh, lab[:, None], 1.0, axis=1)
    return oh * labels.valid[:, None]


def _as_weight(w, shape) -> Tensor:
    if w is None:
        return Tensor(np.ones(shape))
    if not isinstance(w, Tensor):
        w = Tensor(np.asarray(w, dtype=np.float64))
    return w


def masked_ce(logits_up: Tensor, labels: PseudoLabelSet, w=None) -> Tensor:
    """Mean over valid pixels of w * (-log softmax(logits)[yhat])."""
    n, k, h, wd = logits_up.shape
    _check_labels(labels, k)
    n_valid = int(labels.valid.sum())
    if n_valid == 0:
        warnings.warn("masked_ce: no valid pixels, returning 0")
        return Tensor(0.0)
    oh = Tensor(_one_hot(labels, k))
    wt = _as_weight(w, (n, 1, h, wd))
    nll = -(oh * log_softmax(logits_up, axis=1)).sum(axis=1, keepdims=True)
    vm = Tensor(labels.valid[:, None].astype(np.float64))
    return (wt * nll * vm).sum() / n_valid


def masked_dice(logits_up: Tensor, labels: PseudoLabelSet, w=None) -> Tensor:
    """Soft Dice over the valid region, averaged over classes present in the
    valid targets; the pixel weight enters both soft sums."""
    n, k, h, wd = logits_up.shape
    _check_labels(labels, k)
    if int(labels.valid.sum()) == 0:
        warnings.warn("masked_dice: no valid pixels, returning 0")
        return Tensor(0.0)
    oh_np = _one_hot(labels, k)
    present = [c for c in range(k) if oh_np[:, c].any()]
    p = softmax(logits_up, axis=1)
    vm = Tensor(labels.valid[:, None].astype(np.float64))
    wt = _as_weight(w, (n, 1, h, wd)) * vm
    loss = Tensor(0.0)
    for c in present:
        pc = p[:, c:c + 1]
        yc = Tensor(oh_np[:, c:c + 1])
        num = 2.0 * (wt * pc * yc).sum() + DICE_SMOOTH
        den = (wt * (pc + yc)).sum() + DICE_SMOOTH
        loss = loss + (1.0 - num / den)
    return loss / len(present)


def _minmax_normalize(u: Tensor) -> Tensor:
    """Per-image min-max scaling into [0,1]; a constant map maps to zeros."""
    axes = tuple(range(1, u.data.ndim))
    lo = u.min(axis=axes, keepdims=True)
    rng = u.max(axis=axes, keepdims=True) - lo
    return (u - lo) / (rng + _MINMAX_TINY)


def mix_uncertainty(u_ale: Tensor, zstar_up: Tensor, alpha: float,
                    beta: float = BETA) -> UncertaintyMaps:
    """Blend normalized aleatoric uncertainty with normalized prediction
    entropy, then map to pixel weights w = exp(-beta * U)."""
    _, _, h, w = zstar_up.shape
    u_up = _minmax_normalize(bilinear_upsample(u_ale, h, w))
    p = softmax(zstar_up, axis=1)
    ent = -(p * log_softmax(zstar_up, axis=1)).sum(axis=1, keepdims=True)
    u_ent = _minmax_normalize(ent)
    u = alpha * u_up + (1.0 - alpha) * u_ent
    return UncertaintyMaps(u_ale_up=u_up, u_ent=u_ent, u=u, w=(-beta * u).exp())


def heteroscedastic_loss(z_up: Tensor, labels: PseudoLabelSet,
                         sigma2_up: Tensor) -> Tensor:
    """Mean over valid pixels of CE/(2 sigma^2) + log(sigma^2)/2, with the
    per-pixel scalar variance (channel mean, upsampled)."""
    n, k, h, w = z_up.shape
    _check_labels(labels, k)
    if np.any(sigma2_up.data <= 0):
        raise ValueError("sigma2 must be strictly positive")
    n_valid = int(labels.valid.sum())
    if n_valid == 0:
        warnings.warn("heteroscedastic_loss: no valid pixels, returning 0")
        return Tensor(0.0)
    oh = Tensor(_one_hot(labels, k))
    nll = -(oh * log_softmax(z_up, axis=1)).sum(axis=1, keepdims=True)
    vm = Tensor(labels.valid[:, None].astype(np.float64))
    per_px = nll / (2.0 * sigma2_up) + 0.5 * sigma2_up.log()
    return (per_px * vm).sum() / n_valid


def boundary_loss(e_log_up: Tensor, band: np.ndarray, supervised=None) -> Tensor:
    """BCE (pixel mean) + soft Dice between edge logits and the thin band.

    `supervised` optionally restricts both terms to a {0,1} pixel set; the
    band is undefined near IGNORE labels, and teaching "no boundary" there
    would actively erase real edges after relabeling.
    """
    b = Tensor(np.asarray(band, dtype=np.float64).reshape(e_log_up.shape))
    if supervised is None:
        sup = Tensor(np.ones(e_log_up.shape))
        n_sup = float(np.prod(e_log_up.shape))
    else:
        sup = Tensor(np.asarray(supervised, dtype=np.float64).reshape(e_log_up.shape))
        n_sup = float(sup.data.sum())
        if n_sup == 0:
            warnings.warn("boundary_loss: no supervised pixels, returning 0")
            return Tensor(0.0)
    # stable BCE-with-logits: softplus(x) - x*b
    bce = (sup * (e_log_up.softplus() - e_log_up * b)).sum() / n_sup
    p = e_log_up.sigmoid()
    num = 2.0 * (sup * p * b).sum() + DICE_SMOOTH
    den = (sup * (p + b)).sum() + DICE_SMOOTH
    return bce + (1.0 - num / den)


def sdf_loss(pstar_up: Tensor, yhat: np.ndarray) -> Tensor:
    """Mean over pixels of ||forward-diff grad of P*||_1 weighted by the
    distance to the label boundary; images with no boundary contribute 0."""
    n, k, h, w = pstar_up.shape
    yhat = np.asarray(yhat)
    if yhat.ndim == 2:
        yhat = yhat[None]
    phi = np.empty((n, 1, h, w))
    for i in range(n):
        d = np.abs(signed_distance(yhat[i]))
        if d[0, 0] == PHI_SENTINEL and np.all(d == PHI_SENTINEL):
            d = np.zeros_like(d)
        d = np.where(yhat[i] == IGNORE, 0.0, d)  # no penalty where labels are unknown
        phi[i, 0] = d
    phi_t = Tensor(phi)
    du = (pstar_up[:, :, 1:, :] - pstar_up[:, :, :-1, :]).abs().sum(axis=1, keepdims=True)
    dv = (pstar_up[:, :, :, 1:] - pstar_up[:, :, :, :-1]).abs().sum(axis=1, keepdims=True)
    total = (du * phi_t[:, :, :-1, :]).sum() + (dv * phi_t[:, :, :, :-1]).sum()
    return total / (n * h * w)


def total_loss(outputs, labels: PseudoLabelSet, use_sdf: bool) -> tuple[Tensor, dict]:
    """Combine region, heteroscedastic, boundary, and surface terms.

    The segmentation term supervises the refined logits; the heteroscedastic
    term supervises the pre-refine logits. Terms whose inputs are absent
    (ablated heads) are skipped and reported as 0 in the breakdown; the
    surface term also needs the boundary head, and `use_sdf`.
    """
    n, h, w = labels.yhat.shape
    zstar_up = bilinear_upsample(outputs.zstar, h, w)

    if outputs.u_ale is not None:
        maps = mix_uncertainty(outputs.u_ale, zstar_up, ALPHA)
        wmap = maps.w
        mean_w = float(wmap.data.mean())
    else:
        wmap = None
        mean_w = 1.0

    l_ce = masked_ce(zstar_up, labels, wmap)
    l_dice = masked_dice(zstar_up, labels, wmap)
    total = l_ce + LAMBDA_DICE * l_dice

    l_het = Tensor(0.0)
    if outputs.sigma2 is not None:
        z_up = bilinear_upsample(outputs.z, h, w)
        sig_up = bilinear_upsample(outputs.u_ale, h, w)
        l_het = heteroscedastic_loss(z_up, labels, sig_up)
        total = total + LAMBDA_HET * l_het

    l_bnd = Tensor(0.0)
    if outputs.edge_logits is not None:
        band = boundary_band(labels.yhat, BAND_PX)
        e_up = bilinear_upsample(outputs.edge_logits, h, w)
        sup = None
        ign = labels.yhat == IGNORE
        if ign.any():
            from scipy import ndimage
            struct = np.ones((2 * BAND_PX + 1, 2 * BAND_PX + 1), dtype=bool)
            sup = np.stack([~ndimage.binary_dilation(im, structure=struct)
                            for im in ign])
            # band pixels come from observed label transitions and stay
            # supervised even near IGNORE; only "no boundary" claims are
            # unknowable next to unlabeled pixels
            sup = (sup | band.astype(bool)).astype(np.uint8)
        l_bnd = boundary_loss(e_up, band[:, None], None if sup is None else sup[:, None])
        total = total + LAMBDA_BND * l_bnd

    l_sdf = Tensor(0.0)
    if use_sdf and outputs.edge_logits is not None:
        pstar_up = softmax(zstar_up, axis=1)
        l_sdf = sdf_loss(pstar_up, labels.yhat)
        total = total + LAMBDA_SDF * l_sdf

    breakdown = {
        "l_total": float(total.data),
        "l_ce": float(l_ce.data),
        "l_dice": float(l_dice.data),
        "l_het": float(l_het.data),
        "l_bnd": float(l_bnd.data),
        "l_sdf": float(l_sdf.data),
        "mean_w": mean_w,
        "valid_fraction": float(labels.valid.mean()),
    }
    return total, breakdown
