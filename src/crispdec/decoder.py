"""Segmentation head: dynamic multi-scale fusion, variance-driven gated
refinement, and a boundary branch, all operating at 1/4 resolution.

Per-pixel fusion weights come from a spatial softmax over four projected
pyramid streams; an optional uncertainty map shifts the fusion scores
before the softmax. A variance head predicts one aleatoric variance per
pixel, which both feeds the losses and gates a residual logit correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .tensor import Tensor, _unbroadcast, bilinear_upsample, cat, conv2d, softmax

if TYPE_CHECKING:
    from .model import ModelConfig

GATE_BIAS_INIT = -2.1972  # sigmoid(-2.1972) ~= 0.1: start with gentle corrections
VAR_EPS = 1e-6            # floor added to softplus'd variances
NORM_EPS = 1e-5
ENCODER_CHANNELS = (8, 16, 24, 32)  # C1..C4 of the toy encoder


@dataclass
class FeaturePyramid:
    """Encoder maps C1..C4 at strides 4/8/16/32 of the input image."""

    c1: Tensor
    c2: Tensor
    c3: Tensor
    c4: Tensor

    def __post_init__(self):
        maps = self.maps()
        n, _, h, w = maps[0].shape
        for i, m in enumerate(maps):
            if m.shape[0] != n:
                raise ValueError("pyramid levels disagree on batch size")
            expect = (h >> i, w >> i)
            if m.shape[2:] != expect:
                raise ValueError(
                    f"level {i + 1} has spatial size {m.shape[2:]}, expected {expect}"
                )

    def maps(self):
        return [self.c1, self.c2, self.c3, self.c4]


@dataclass
class DecoderOutputs:
    z: Tensor                  # pre-refine logits [N,K,H/4,W/4]
    zstar: Tensor              # refined logits (== z when refinement is off)
    weights: Tensor | None     # fusion weights [N,4,H/4,W/4]; None for static fusion
    u_ale: Tensor | None       # aleatoric variance [N,1,H/4,W/4]
    gate: Tensor | None
    delta: Tensor | None
    edge_logits: Tensor | None


class DecoderParams:
    """Named parameter tensors for the decoder head that `cfg` switches on,
    for pyramid levels with `in_channels` channels."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float64,
                 in_channels: tuple = ENCODER_CHANNELS):
        self.cfg = cfg
        self.tensors: dict[str, Tensor] = {}
        e, k = cfg.width, cfg.num_classes

        def param(name, shape, init="he", fan_in=None):
            if init == "zero":
                data = np.zeros(shape, dtype=dtype)
            elif init == "one":
                data = np.ones(shape, dtype=dtype)
            else:
                fan = fan_in if fan_in is not None else int(np.prod(shape[1:]))
                data = rng.normal(0.0, np.sqrt(2.0 / fan), size=shape).astype(dtype)
            t = Tensor(data, requires_grad=True)
            self.tensors[name] = t
            return t

        for i, cin in enumerate(in_channels, start=1):
            param(f"proj{i}.w", (e, cin, 1, 1))
            param(f"proj{i}.b", (e,), init="zero")
            param(f"norm{i}.gamma", (1, e, 1, 1), init="one")
            param(f"norm{i}.beta", (1, e, 1, 1), init="zero")
            param(f"score{i}.w", (1, e, 1, 1), init="zero")
            param(f"score{i}.b", (1,), init="zero")
        if not cfg.use_dmf:
            param("fuse.w", (e, 4 * e, 1, 1))
            param("fuse.b", (e,), init="zero")
        param("seg.w", (k, e, 1, 1))
        param("seg.b", (k,), init="zero")
        if cfg.use_var:
            # uniform initial variance: any later structure is learned, and
            # training never starts inside an init-dependent down-weighting
            param("var.w", (1, e, 1, 1), init="zero")
            param("var.b", (1,), init="zero")
        if cfg.use_ugr:
            param("phi1.w", (e, e + k + 1, 3, 3))
            param("phi1.b", (e,), init="zero")
            param("phi2.w", (k, e, 1, 1), init="zero")  # corrections start at 0
            param("phi2.b", (k,), init="zero")
            param("gate.w", (1, e + 1, 1, 1), init="zero")
            gate_b = param("gate.b", (1,), init="zero")
            gate_b.data[:] = GATE_BIAS_INIT
        if cfg.use_bnd:
            param("bnd1.w", (e, e, 3, 3))
            param("bnd1.b", (e,), init="zero")
            param("bnd2.w", (1, e, 1, 1))
            param("bnd2.b", (1,), init="zero")

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


def channel_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-sample, per-channel normalization over spatial positions with a
    learned affine (batch-size independent), as one node. The backward is
    the layer-norm gradient: with d = g * gamma, through the std, then the
    variance, then the centering, in the order of the chain of primitives."""
    c = 1.0 / (x.shape[2] * x.shape[3])
    xc = x.data - x.data.sum(axis=(2, 3), keepdims=True) * c
    std = np.sqrt((xc * xc).sum(axis=(2, 3), keepdims=True) * c + NORM_EPS)
    xhat = xc / std

    def bwd(g):
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(g * xhat, gamma.shape))
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(g, beta.shape))
        if x.requires_grad:
            d = g * gamma.data
            g_var = (-d * xc / (std * std)).sum(axis=(2, 3), keepdims=True) * 0.5 / std * c
            g_xc = d / std + g_var * xc + g_var * xc
            x._accumulate(g_xc + -g_xc.sum(axis=(2, 3), keepdims=True) * c)

    return Tensor._from_op(gamma.data * xhat + beta.data, (x, gamma, beta), bwd)


def project_and_upsample(pyramid: FeaturePyramid, params: DecoderParams) -> list[Tensor]:
    """Project each pyramid level to the common width and lift to 1/4 res."""
    _, _, h4, w4 = pyramid.c1.shape
    out = []
    for i, c in enumerate(pyramid.maps(), start=1):
        x = conv2d(c, params[f"proj{i}.w"], params[f"proj{i}.b"])
        x = channel_norm(x, params[f"norm{i}.gamma"], params[f"norm{i}.beta"]).relu()
        if x.shape[2:] != (h4, w4):
            x = bilinear_upsample(x, h4, w4)
        out.append(x)
    return out


def dmf_fuse(e_list: list[Tensor], params: DecoderParams,
             u_down: Tensor | None = None) -> tuple[Tensor, Tensor]:
    """Spatial softmax fusion. Optionally shifts every scale's score by
    -u_down; a uniform shift cancels in the softmax, so the modulation
    leaves the weights unchanged (tested behavior)."""
    if u_down is not None and u_down.shape[2:] != e_list[0].shape[2:]:
        raise ValueError("u_down must be at 1/4 resolution")
    scores = []
    for i, ei in enumerate(e_list, start=1):
        s = conv2d(ei, params[f"score{i}.w"], params[f"score{i}.b"])
        if u_down is not None:
            s = s - u_down
        scores.append(s)
    w = softmax(cat(scores, axis=1), axis=1)
    return weighted_sum(w, e_list), w


def weighted_sum(w: Tensor, e_list: list[Tensor]) -> Tensor:
    """sum_i w[:, i] * e_i, summed left to right, as one node."""
    fused = w.data[:, 0:1] * e_list[0].data
    for i in range(1, len(e_list)):
        fused = fused + w.data[:, i:i + 1] * e_list[i].data

    def bwd(g):
        if w.requires_grad:
            w._accumulate(np.concatenate(
                [(g * e.data).sum(axis=1, keepdims=True) for e in e_list], axis=1))
        for i, e in enumerate(e_list):
            if e.requires_grad:
                e._accumulate(g * w.data[:, i:i + 1])

    return Tensor._from_op(fused, (w, *e_list), bwd)


def static_fuse(e_list: list[Tensor], params: DecoderParams) -> Tensor:
    """Concat + single 1x1 conv baseline fusion (location-agnostic)."""
    x = cat(e_list, axis=1)
    return conv2d(x, params["fuse.w"], params["fuse.b"])


def variance_branch(fused: Tensor, params: DecoderParams) -> Tensor:
    """The aleatoric map: one variance per pixel (Kendall & Gal 2017)."""
    return conv2d(fused, params["var.w"], params["var.b"]).softplus() + VAR_EPS


def ugr_refine(fused: Tensor, z: Tensor, u_ale: Tensor, params: DecoderParams,
               detach_p: bool = False) -> tuple[Tensor, Tensor, Tensor]:
    """Gated residual correction: Z* = Z + G (.) Delta."""
    p = softmax(z, axis=1)
    if detach_p:
        p = p.detach()
    r = cat([fused, p, u_ale], axis=1)
    hidden = conv2d(r, params["phi1.w"], params["phi1.b"], padding=1).relu()
    delta = conv2d(hidden, params["phi2.w"], params["phi2.b"])
    gate_in = cat([fused, u_ale], axis=1)
    gate = conv2d(gate_in, params["gate.w"], params["gate.b"]).sigmoid()
    zstar = z + gate * delta
    return zstar, gate, delta


def boundary_branch(tap: Tensor, params: DecoderParams) -> Tensor:
    hidden = conv2d(tap, params["bnd1.w"], params["bnd1.b"], padding=1).relu()
    return conv2d(hidden, params["bnd2.w"], params["bnd2.b"])


def decoder_forward(pyramid: FeaturePyramid, params: DecoderParams,
                    detach_p: bool = False) -> DecoderOutputs:
    """Run the full head.

    Without use_udmf: one fuse pass. With it: a first fuse+variance pass
    produces the uncertainty map, a second fuse applies the score shift
    with it, and all heads run on the re-fused feature.
    """
    cfg = params.cfg
    e_list = project_and_upsample(pyramid, params)

    weights = None
    if not cfg.use_dmf:
        fused = static_fuse(e_list, params)
    elif cfg.use_udmf:
        fused0, _ = dmf_fuse(e_list, params)
        u0 = variance_branch(fused0, params)
        fused, weights = dmf_fuse(e_list, params, u_down=u0)
    else:
        fused, weights = dmf_fuse(e_list, params)

    z = conv2d(fused, params["seg.w"], params["seg.b"])

    u_ale = None
    if cfg.use_var:
        u_ale = variance_branch(fused, params)

    zstar, gate, delta = z, None, None
    if cfg.use_ugr:
        zstar, gate, delta = ugr_refine(fused, z, u_ale, params, detach_p=detach_p)

    edge_logits = None
    if cfg.use_bnd:
        # the boundary head taps the projected C1 stream, not the fused map
        edge_logits = boundary_branch(e_list[0], params)

    return DecoderOutputs(z=z, zstar=zstar, weights=weights, u_ale=u_ale,
                          gate=gate, delta=delta, edge_logits=edge_logits)
