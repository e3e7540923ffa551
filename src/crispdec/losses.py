"""Training objectives: masked uncertainty-weighted CE+Dice, heteroscedastic
likelihood on pre-refine logits, thin-band boundary loss, surface-distance
loss, and their weighted sum.

All reductions are means over contributing pixels so the scale of each term
does not depend on image size. Invalid (ignored) pixels contribute exactly
zero, including to gradients.

Each term is one tape node with a closed-form backward. `total_loss`
feeds the terms full-resolution float64 maps, so the rounding of their
backward stays far below what a float32 model's gradients keep.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .fileio import IGNORE
from .geometry import PHI_SENTINEL, boundary_band, dilate_square, signed_distance
from .tensor import Tensor, _sigmoid, bilinear_upsample, log_softmax, softmax

DICE_SMOOTH = 1.0
_MINMAX_TINY = 1e-12

# coefficients of the weighted sum in total_loss (CE and Dice have weight 1)
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
    _targets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def _targets(labels: PseudoLabelSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The one-hot [N,K,H,W] of the valid labels and the float valid mask
    [N,1,H,W], checked and built once per label set and shared by the loss
    terms."""
    if k not in labels._targets:
        lab = labels.yhat
        if np.any((lab != IGNORE) & ((lab < 0) | (lab >= k))):
            raise ValueError(f"labels out of range for K={k}")
        vm = labels.valid[:, None].astype(np.float64)
        oh = (labels.yhat[:, None] == np.arange(k)[:, None, None]) * vm
        labels._targets[k] = (oh, vm)
    return labels._targets[k]


def masked_ce(logp: Tensor, labels: PseudoLabelSet, w=None) -> Tensor:
    """Mean over valid pixels of w * (-logp[yhat]), from log-probabilities;
    `w` is a [N,1,H,W] pixel-weight Tensor, or None for unit weights."""
    oh = _targets(labels, logp.shape[1])[0]
    n_valid = int(labels.valid.sum())
    if n_valid == 0:
        warnings.warn("masked_ce: no valid pixels, returning 0")
        return Tensor(0.0)
    nll = -(oh * logp.data).sum(axis=1, keepdims=True)
    total = (nll if w is None else w.data * nll).sum()  # the one-hot is zero off the valid mask

    def bwd(g):
        g = g / n_valid
        if w is not None and w.requires_grad:
            w._accumulate(g * nll)
        if logp.requires_grad:
            logp._accumulate((-g if w is None else -g * w.data) * oh)

    return Tensor._from_op(total / n_valid, (logp,) if w is None else (logp, w), bwd)


def masked_dice(p: Tensor, labels: PseudoLabelSet, w=None) -> Tensor:
    """Soft Dice of probabilities over the valid region, averaged over the
    classes present in the valid targets; the pixel weight `w` (as in
    `masked_ce`) enters both soft sums, taken for all classes at once."""
    oh, vm = _targets(labels, p.shape[1])
    if int(labels.valid.sum()) == 0:
        warnings.warn("masked_dice: no valid pixels, returning 0")
        return Tensor(0.0)
    present = oh.any(axis=(0, 2, 3))
    wt = vm if w is None else w.data * vm
    num = 2.0 * (wt * p.data * oh).sum(axis=(0, 2, 3)) + DICE_SMOOTH
    den = (wt * (p.data + oh)).sum(axis=(0, 2, 3)) + DICE_SMOOTH
    dice = 1.0 - num / den

    def bwd(g):
        g_dice = np.where(present, g / present.sum(), 0.0)
        g_den = (g_dice * num / (den * den))[:, None, None]
        g_p = g_den - (2.0 * g_dice / den)[:, None, None] * oh  # d loss / d p, per unit weight
        if w is not None and w.requires_grad:
            w._accumulate((g_p * p.data + g_den * oh).sum(axis=1, keepdims=True) * vm)
        if p.requires_grad:
            p._accumulate(g_p * wt)

    return Tensor._from_op(dice[present].sum() / present.sum(),
                           (p,) if w is None else (p, w), bwd)


def _minmax_normalize(x: np.ndarray):
    """Per-image min-max scaling of x [N,...] into [0,1] (a constant map
    maps to zeros), and the function from its gradient to x's."""
    axes = tuple(range(1, x.ndim))
    lo, hi = x.min(axis=axes, keepdims=True), x.max(axis=axes, keepdims=True)
    num, den = x - lo, (hi - lo) + _MINMAX_TINY
    at_lo, at_hi = x == lo, x == hi
    n_lo, n_hi = at_lo.sum(axis=axes, keepdims=True), at_hi.sum(axis=axes, keepdims=True)

    def grad(g):
        g_num = g / den
        g_den = -(g * num).sum(axis=axes, keepdims=True) / (den * den)
        g_lo = -g_num.sum(axis=axes, keepdims=True) - g_den
        return g_num + at_hi * (g_den / n_hi) + at_lo * (g_lo / n_lo)

    return num / den, grad


def mix_uncertainty(u_up: Tensor | None, p: Tensor, logp: Tensor,
                    alpha: float) -> tuple[Tensor, Tensor]:
    """Blend the normalized upsampled aleatoric map `u_up` with the
    normalized entropy of the probabilities `p` (log-probabilities `logp`)
    into U, and map U to pixel weights w = exp(-BETA * U); returns (U, w).
    With `u_up` None (no variance head) U is the normalized entropy alone;
    U records no graph, as no loss term differentiates it."""
    u_ent, ent_grad = _minmax_normalize(-(p.data * logp.data).sum(axis=1, keepdims=True))
    u = u_ent
    if u_up is not None:
        u_ale, ale_grad = _minmax_normalize(u_up.data)
        u = u_ale * alpha + u_ent * (1.0 - alpha)
    w = np.exp(u * -BETA)

    def bwd(g):
        g_u = g * w * -BETA
        if u_up is not None:
            if u_up.requires_grad:
                u_up._accumulate(ale_grad(g_u * alpha))
            g_u = g_u * (1.0 - alpha)
        g_ent = -ent_grad(g_u)  # through the entropy -sum(p * logp)
        if p.requires_grad:
            p._accumulate(g_ent * logp.data)
        if logp.requires_grad:
            logp._accumulate(g_ent * p.data)

    return Tensor(u), Tensor._from_op(w, (p, logp) if u_up is None else (u_up, p, logp), bwd)


def heteroscedastic_loss(logp: Tensor, labels: PseudoLabelSet,
                         sigma2_up: Tensor) -> Tensor:
    """Mean over valid pixels of CE/(2 sigma^2) + log(sigma^2)/2, from the
    log-probabilities of the pre-refine logits and the per-pixel scalar
    variance (channel mean, upsampled)."""
    oh, vm = _targets(labels, logp.shape[1])
    s2 = sigma2_up.data
    if np.any(s2 <= 0):
        raise ValueError("sigma2 must be strictly positive")
    n_valid = int(labels.valid.sum())
    if n_valid == 0:
        warnings.warn("heteroscedastic_loss: no valid pixels, returning 0")
        return Tensor(0.0)
    nll = -(oh * logp.data).sum(axis=1, keepdims=True)
    s2_twice = s2 * 2.0
    total = ((nll / s2_twice + np.log(s2) * 0.5) * vm).sum()

    def bwd(g):
        g_px = g / n_valid * vm
        if logp.requires_grad:
            logp._accumulate(-g_px / s2_twice * oh)
        if sigma2_up.requires_grad:  # d/ds of nll / 2s + log(s) / 2
            sigma2_up._accumulate(g_px * (s2 - nll) / (s2_twice * s2))

    return Tensor._from_op(total / n_valid, (logp, sigma2_up), bwd)


def boundary_loss(e_log_up: Tensor, band: np.ndarray, supervised=None) -> Tensor:
    """BCE (pixel mean) + soft Dice between edge logits and the thin band,
    as one node.

    `supervised` optionally restricts both terms to a {0,1} pixel set; the
    band is undefined near IGNORE labels, and teaching "no boundary" there
    would actively erase real edges after relabeling.
    """
    x = e_log_up.data
    b = np.asarray(band, dtype=x.dtype).reshape(x.shape)
    sup = (np.ones(x.shape, dtype=x.dtype) if supervised is None
           else np.asarray(supervised, dtype=x.dtype).reshape(x.shape))
    n_sup = float(sup.sum())
    if n_sup == 0:
        warnings.warn("boundary_loss: no supervised pixels, returning 0")
        return Tensor(0.0)
    # stable BCE-with-logits: softplus(x) - x*b, with p = sigmoid(x)
    e = np.exp(-np.abs(x))
    p = _sigmoid(e, x)
    bce = (sup * (np.maximum(x, 0.0) + np.log1p(e) - x * b)).sum() / n_sup
    num = 2.0 * (sup * p * b).sum() + DICE_SMOOTH
    den = (sup * (p + b)).sum() + DICE_SMOOTH

    def bwd(g):
        # BCE gives (p - b) / n_sup, Dice d(1 - num/den)/dp times p(1 - p)
        g_dice = num / (den * den) - 2.0 / den * b
        e_log_up._accumulate(g * sup * ((p - b) / n_sup + g_dice * p * (1.0 - p)))

    return Tensor._from_op(bce + (1.0 - num / den), (e_log_up,), bwd)


def surface_weights(yhat: np.ndarray) -> np.ndarray:
    """|phi| [N,1,H,W], the distance to the boundary of the labels yhat
    [N,H,W]; 0 on IGNORE pixels and on images with no boundary."""
    n, h, w = yhat.shape
    phi = np.empty((n, 1, h, w))
    for i in range(n):
        d = np.abs(signed_distance(yhat[i]))
        if d[0, 0] == PHI_SENTINEL and np.all(d == PHI_SENTINEL):
            d = np.zeros_like(d)
        phi[i, 0] = np.where(yhat[i] == IGNORE, 0.0, d)
    return phi


def label_geometry(labels: PseudoLabelSet, use_sdf: bool) -> tuple:
    """The thin band and the boundary-supervision mask [N,H,W] of a label
    set and, with `use_sdf`, its `surface_weights` (else None); built once."""
    geo = labels._targets.get("geometry")
    if geo is None or (use_sdf and geo[2] is None):
        band = boundary_band(labels.yhat, BAND_PX)
        # band pixels (observed label transitions) stay supervised near
        # IGNORE; only "no boundary" claims are unknowable there
        sup = ~dilate_square(labels.yhat == IGNORE, BAND_PX) | band.astype(bool)
        geo = (band, sup, surface_weights(labels.yhat) if use_sdf else None)
        labels._targets["geometry"] = geo
    return geo if use_sdf else (*geo[:2], None)


def stack_geometry(labels: PseudoLabelSet, parts: list, flips: np.ndarray,
                   use_sdf: bool) -> None:
    """Give `labels`, the stack of the sets `parts` mirrored where `flips`,
    their geometry mirrored alike: the mirror commutes with all of it."""
    geo = [None if maps[0] is None else np.concatenate(maps)
           for maps in zip(*(label_geometry(s, use_sdf) for s in parts))]
    for a in geo if use_sdf else geo[:2]:
        a[flips] = a[flips, ..., ::-1]
    labels._targets["geometry"] = tuple(geo)


def sdf_loss(p: Tensor, phi: np.ndarray) -> Tensor:
    """Mean over pixels of ||forward-diff grad of the probabilities p||_1,
    weighted by phi [N,1,H,W] of `surface_weights`, as one node."""
    n, _, h, w = p.shape
    # down the rows, then along the columns: p's slices 1: and :-1 and their difference
    slices = ((np.s_[:, :, 1:], np.s_[:, :, :-1]), (np.s_[..., 1:], np.s_[..., :-1]))
    axes = [(hi, lo, p.data[hi] - p.data[lo]) for hi, lo in slices]
    sums = [(np.abs(d).sum(axis=1, keepdims=True) * phi[lo]).sum() for _, lo, d in axes]

    def bwd(g):
        g_p = np.zeros_like(p.data)
        for hi, lo, d in axes:
            g_d = np.sign(d) * (g / (n * h * w) * phi[lo])
            g_p[hi] += g_d
            g_p[lo] -= g_d
        p._accumulate(g_p)

    return Tensor._from_op((sums[0] + sums[1]) / (n * h * w), (p,), bwd)


def total_loss(outputs, labels: PseudoLabelSet, use_sdf: bool) -> tuple[Tensor, dict]:
    """Combine region, heteroscedastic, boundary, and surface terms.

    The segmentation term supervises the refined logits; the heteroscedastic
    term supervises the pre-refine logits. Terms whose inputs are absent
    (ablated heads) are skipped and reported as 0 in the breakdown; the
    surface term also needs the boundary head, and `use_sdf`. The
    probabilities and log-probabilities of the refined logits and the
    upsampled aleatoric map are computed once and shared by the terms.
    """
    n, h, w = labels.yhat.shape
    zstar_up = bilinear_upsample(outputs.zstar, h, w, np.float64)
    p = softmax(zstar_up, axis=1)
    logp = log_softmax(zstar_up, axis=1)

    wmap, mean_w = None, 1.0
    if outputs.u_ale is not None:
        u_up = bilinear_upsample(outputs.u_ale, h, w, np.float64)
        _, wmap = mix_uncertainty(u_up, p, logp, ALPHA)
        mean_w = float(wmap.data.mean())

    l_ce = masked_ce(logp, labels, wmap)
    l_dice = masked_dice(p, labels, wmap)
    total = l_ce + l_dice

    l_het = Tensor(0.0)
    if outputs.u_ale is not None:
        z_up = bilinear_upsample(outputs.z, h, w, np.float64)
        l_het = heteroscedastic_loss(log_softmax(z_up, axis=1), labels, u_up)
        total = total + LAMBDA_HET * l_het

    l_bnd = l_sdf = Tensor(0.0)
    if outputs.edge_logits is not None:
        band, sup, phi = label_geometry(labels, use_sdf)
        e_up = bilinear_upsample(outputs.edge_logits, h, w, np.float64)
        l_bnd = boundary_loss(e_up, band[:, None], sup[:, None])
        total = total + LAMBDA_BND * l_bnd
        if use_sdf:
            l_sdf = sdf_loss(p, phi)
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
