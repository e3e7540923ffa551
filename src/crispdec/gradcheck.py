"""Finite-difference verification of every differentiable operation and
loss term. Each entry builds a tiny random double-precision fixture,
computes analytic gradients via backward, and compares against central
differences coordinate by coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import decoder as dec
from . import losses
from .model import ModelConfig
from .synthdata import init_encoder_params, toy_encoder_forward
from .tensor import Tensor, bilinear_upsample, cat, conv2d, log_softmax, softmax

REL_TOL = 1e-4
_FLOOR = 1e-8
_ATOL = 1e-7  # below this, central differences only return roundoff noise


@dataclass
class CheckResult:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < REL_TOL


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _FLOOR)
    diff = np.abs(analytic - numeric)
    # central differences cannot resolve below their roundoff floor; a
    # discrepancy smaller than that is agreement even when the gradient
    # itself is tiny (e.g. an exactly-zero analytic grad vs ~1e-11 of noise)
    err = np.where(diff < _ATOL, 0.0, diff / denom)
    # a NaN on either side is no agreement; as inf it also survives max()
    return float(np.max(np.nan_to_num(err, nan=np.inf)))


def _check(name: str, f, inputs: list[Tensor], h: float = 1e-4,
           sample: int | None = None, rng=None) -> CheckResult:
    """Compare backward grads of scalar f(*inputs) against central
    differences for every tracked input (optionally a coordinate sample)."""
    for t in inputs:
        t.zero_grad()
    out = f(*inputs)
    out.backward()
    worst = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        if sample is None or t.size <= sample:
            coords = np.arange(t.size)
        else:
            coords = rng.choice(t.size, size=sample, replace=False)
        flat = t.data.ravel()
        numeric = np.empty(coords.size)
        for j, i in enumerate(coords):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f(*inputs).data)
            flat[i] = orig - h
            fm = float(f(*inputs).data)
            flat[i] = orig
            numeric[j] = (fp - fm) / (2 * h)
        worst = max(worst, rel_err(t.grad.ravel()[coords], numeric))
    return CheckResult(name, worst)


def _rand(rng, *shape, grad=True, scale=1.0):
    return Tensor(scale * rng.standard_normal(shape), requires_grad=grad)


def _micro_labels(rng, n, k, h, w) -> losses.PseudoLabelSet:
    yhat = rng.integers(0, k, size=(n, h, w))
    valid = (rng.random((n, h, w)) < 0.8).astype(np.uint8)
    yhat = np.where(valid, yhat, 255)
    return losses.PseudoLabelSet(yhat=yhat, valid=valid,
                                 seed_uncertainty=rng.random((n, h, w)))


def _primitive_checks(rng) -> list[CheckResult]:
    out = []
    a = _rand(rng, 3, 4)
    b = _rand(rng, 3, 4)
    c = _rand(rng, 3, 1)  # broadcast partner
    out.append(_check("add", lambda x, y: (x + y).sum(), [a, b]))
    out.append(_check("sub", lambda x, y: (x - y).sum(), [a, b]))
    out.append(_check("mul", lambda x, y: (x * y * x).sum(), [a, b]))
    out.append(_check("mul_broadcast", lambda x, y: (x * y).sum(), [a, c]))
    d = Tensor(rng.random((3, 4)) + 0.5, requires_grad=True)
    out.append(_check("div", lambda x, y: (x / y).sum(), [a, d]))
    out.append(_check("exp", lambda x: x.exp().sum(), [a]))
    out.append(_check("log", lambda x: x.log().sum(), [d]))
    out.append(_check("sqrt", lambda x: x.sqrt().sum(), [d]))
    off = Tensor(rng.standard_normal((3, 4)) + 3.0, requires_grad=True)
    out.append(_check("abs", lambda x: x.abs().sum(), [off]))
    out.append(_check("relu", lambda x: x.relu().sum(), [off]))
    out.append(_check("negate", lambda x: (-x * x).sum(), [a]))
    out.append(_check("sigmoid", lambda x: x.sigmoid().sum(), [a]))
    out.append(_check("softplus", lambda x: x.softplus().sum(), [a]))
    w = _rand(rng, 2, 5)
    wc = w.data.copy()
    out.append(_check("softmax", lambda x: (softmax(x, 1) * wc).sum(), [w]))
    out.append(_check("log_softmax", lambda x: (log_softmax(x, 1) * wc).sum(), [w]))
    out.append(_check("rsub", lambda x: ((2.0 - x) * x).sum(), [a]))
    out.append(_check("sum_axis", lambda x: (x.sum(axis=0) * x.sum(axis=0)).sum(), [a]))
    out.append(_check("mean", lambda x: (x.mean(axis=1) * 2.0).sum(), [a]))
    out.append(_check("max", lambda x: x.max(axis=1).sum(), [a]))
    out.append(_check("min", lambda x: x.min(axis=1).sum(), [a]))
    out.append(_check("cat",
                      lambda x, y: (cat([x, y], axis=1) * cat([y, x], axis=1)).sum(),
                      [a, b]))
    out.append(_check("slice", lambda x: (x[:, 1:3] * x[:, 0:2]).sum(), [a]))

    x = _rand(rng, 2, 3, 5, 5, scale=0.7)
    k1 = _rand(rng, 4, 3, 1, 1)
    b1 = _rand(rng, 4)
    out.append(_check("conv2d_1x1",
                      lambda t, kk, bb: (conv2d(t, kk, bb) * 0.3).sum(),
                      [x, k1, b1]))
    k3 = _rand(rng, 4, 3, 3, 3)
    sq = Tensor(rng.standard_normal((2, 4, 5, 5)))
    out.append(_check("conv2d_3x3",
                      lambda t, kk, bb: (conv2d(t, kk, bb, padding=1) * sq.data).sum(),
                      [x, k3, b1]))
    out.append(_check("conv2d_3x3_stride2",
                      lambda t, kk, bb: (conv2d(t, kk, bb, padding=1, stride=2)
                                         * conv2d(t, kk, bb, padding=1, stride=2)).sum(),
                      [x, k3, b1]))
    up_w = Tensor(rng.standard_normal((1, 2, 6, 8)))
    u = _rand(rng, 1, 2, 3, 4)
    out.append(_check("bilinear_upsample",
                      lambda t: (bilinear_upsample(t, 6, 8) * up_w.data).sum(), [u]))
    g = _rand(rng, 1, 3, 1, 1)
    bt = _rand(rng, 1, 3, 1, 1)
    xn = _rand(rng, 2, 3, 4, 4)
    xc = xn.data.copy()
    out.append(_check("channel_norm",
                      lambda t, gg, bb: (dec.channel_norm(t, gg, bb)
                                         * xc).sum(), [xn, g, bt], h=1e-5))
    es, sw = [_rand(rng, 2, 2, 3, 3) for _ in range(4)], rng.standard_normal((2, 2, 3, 3))
    out.append(_check("dmf_weighted_sum", lambda t, *e: (dec.weighted_sum(t, list(e)) * sw)
                      .sum(), [_rand(rng, 2, 4, 3, 3), *es]))
    return out


def _loss_checks(rng) -> list[CheckResult]:
    out = []
    n, k, h, w = 2, 3, 4, 4
    labels = _micro_labels(rng, n, k, h, w)
    logits = _rand(rng, n, k, h, w)
    wmap = Tensor(rng.random((n, 1, h, w)) + 0.2)
    out.append(_check("masked_ce",
                      lambda z: losses.masked_ce(log_softmax(z, 1), labels, wmap), [logits]))
    out.append(_check("masked_dice",
                      lambda z: losses.masked_dice(softmax(z, 1), labels, wmap), [logits]))
    sig = Tensor(rng.random((n, 1, h, w)) + 0.3, requires_grad=True)
    out.append(_check("heteroscedastic_loss",
                      lambda z, s: losses.heteroscedastic_loss(log_softmax(z, 1), labels, s),
                      [logits, sig]))
    band = (rng.random((n, 1, h, w)) < 0.3).astype(np.float64)
    elog = _rand(rng, n, 1, h, w)
    out.append(_check("boundary_loss",
                      lambda e: losses.boundary_loss(e, band), [elog]))
    sup = (rng.random((n, 1, h, w)) < 0.7).astype(np.uint8)
    out.append(_check("boundary_loss_supervised",
                      lambda e: losses.boundary_loss(e, band, sup), [elog]))
    phi = losses.surface_weights(rng.integers(0, 2, size=(n, h, w)))
    zs = _rand(rng, n, k, h, w)
    out.append(_check("sdf_loss", lambda z: losses.sdf_loss(softmax(z, 1), phi), [zs]))
    ual = Tensor(rng.random((n, 1, 2, 2)) + 0.1, requires_grad=True)
    out.append(_check("mix_uncertainty_weight",
                      lambda u, z: (losses.mix_uncertainty(
                          bilinear_upsample(u, h, w), softmax(z, 1), log_softmax(z, 1), 0.5)[1]
                          * wmap.data).sum(), [ual, logits]))
    return out


def _decoder_checks(rng) -> list[CheckResult]:
    cfg = ModelConfig(width=4, num_classes=2)
    params = dec.DecoderParams(cfg, rng, in_channels=(2, 2, 2, 2))
    # break initial symmetry so score/gate gradients are generic
    for name, t in params.tensors.items():
        t.data += 0.05 * rng.standard_normal(t.shape)
    h4 = 8
    pyr = dec.FeaturePyramid(*[
        Tensor(rng.standard_normal((1, 2, h4 >> i, h4 >> i)), requires_grad=False)
        for i in range(4)])
    labels = _micro_labels(rng, 1, 2, 4 * h4, 4 * h4)
    tracked = list(params.tensors.values())

    def full_loss(*_ts):
        out = dec.decoder_forward(pyr, params)
        loss, _ = losses.total_loss(out, labels, use_sdf=True)
        return loss

    return [_check("decoder_total_loss", full_loss, tracked, h=1e-5)]


def _encoder_checks(rng) -> list[CheckResult]:
    enc = init_encoder_params(rng)
    params = dec.DecoderParams(ModelConfig(width=4, num_classes=2, use_udmf=False), rng)
    image = Tensor(rng.standard_normal((1, 3, 32, 32)) * 0.5, requires_grad=False)
    tracked = list(enc.values())

    def f(*_ts):
        pyr = toy_encoder_forward(image, enc)
        out = dec.decoder_forward(pyr, params)
        return (out.zstar * out.zstar).sum()

    # spot-check a coordinate sample per encoder tensor; exhaustive FD over
    # thousands of conv weights would dominate the runtime budget
    return [_check("encoder_decoder_composite", f, tracked, h=1e-5,
                   sample=8, rng=rng)]


def _weight_checks(rng) -> list[CheckResult]:
    """CE and Dice with a tracked weight map; the entropy-only weights."""
    labels, z = _micro_labels(rng, 2, 3, 4, 4), _rand(rng, 2, 3, 4, 4)
    wmap = Tensor(rng.random((2, 1, 4, 4)) + 0.2, requires_grad=True)
    sw = rng.standard_normal((2, 1, 4, 4))
    return [_check("masked_ce_weight",
                   lambda t, m: losses.masked_ce(log_softmax(t, 1), labels, m), [z, wmap]),
            _check("masked_dice_weight",
                   lambda t, m: losses.masked_dice(softmax(t, 1), labels, m), [z, wmap]),
            _check("mix_uncertainty_entropy_weight", lambda t: (losses.mix_uncertainty(
                None, softmax(t, 1), log_softmax(t, 1), 0.5)[1] * sw).sum(), [z])]


def run_all(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    results += _primitive_checks(rng)
    results += _loss_checks(rng)
    results += _decoder_checks(rng)
    results += _encoder_checks(rng)
    results += _weight_checks(rng)  # last, so the earlier checks draw what they always drew
    if not results:
        raise RuntimeError("gradient-check registry is empty")
    return results


def broken_gradient_result() -> CheckResult:
    """Negative control: an op with a deliberately wrong backward closure."""
    a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)

    def bad_square(t: Tensor) -> Tensor:
        def bwd(g):
            t._accumulate(g * 3.0 * t.data)  # wrong: d(x^2)/dx is 2x

        return Tensor._from_op(t.data * t.data, (t,), bwd).sum()

    return _check("negative_control_bad_square", bad_square, [a])
