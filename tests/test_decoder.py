import numpy as np
import pytest

from crispdec.decoder import (
    GATE_BIAS_INIT,
    NORM_EPS,
    VAR_EPS,
    DecoderParams,
    FeaturePyramid,
    channel_norm,
    decoder_forward,
    dmf_fuse,
    project_and_upsample,
    static_fuse,
    variance_branch,
    weighted_sum,
)
from crispdec.model import ModelConfig
from crispdec.tensor import Tensor, conv2d


def make_pyramid(rng, n=1, channels=(8, 16, 24, 32), h4=8, w4=8):
    return FeaturePyramid(*[
        Tensor(rng.standard_normal((n, c, h4 >> i, w4 >> i)))
        for i, c in enumerate(channels)])


def make_params(rng, **cfg_kwargs):
    """Decoder parameters; one fusion pass unless use_udmf=True is passed."""
    cfg = ModelConfig(**{"use_udmf": False, **cfg_kwargs})
    return DecoderParams(cfg, rng)


def test_pyramid_rejects_wrong_stride_chain():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        FeaturePyramid(Tensor(rng.standard_normal((1, 8, 8, 8))),
                       Tensor(rng.standard_normal((1, 16, 4, 4))),
                       Tensor(rng.standard_normal((1, 24, 3, 3))),  # not /2
                       Tensor(rng.standard_normal((1, 32, 1, 1))))


def test_config_refine_requires_variance():
    with pytest.raises(ValueError):
        ModelConfig(use_var=False, use_ugr=True, use_udmf=False)


def test_param_manifest_and_inits():
    rng = np.random.default_rng(1)
    p = make_params(rng)
    assert np.all(p["score1.w"].data == 0) and np.all(p["score1.b"].data == 0)
    assert np.all(p["phi2.w"].data == 0)
    np.testing.assert_allclose(p["gate.b"].data, GATE_BIAS_INIT)
    # gate starts nearly closed
    np.testing.assert_allclose(1.0 / (1.0 + np.exp(-GATE_BIAS_INIT)), 0.1, atol=1e-4)


def test_project_and_upsample_common_resolution():
    rng = np.random.default_rng(2)
    p = make_params(rng)
    e_list = project_and_upsample(make_pyramid(rng), p)
    assert len(e_list) == 4
    for e in e_list:
        assert e.shape == (1, 32, 8, 8)
        assert np.all(e.data >= 0)  # post-relu


def test_dmf_weights_sum_to_one():
    rng = np.random.default_rng(3)
    p = make_params(rng)
    for t in p.tensors.values():
        t.data += 0.1 * rng.standard_normal(t.shape)
    e_list = project_and_upsample(make_pyramid(rng), p)
    _, w = dmf_fuse(e_list, p)
    np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-12)


def test_dmf_zero_scores_give_quarter_weights():
    rng = np.random.default_rng(4)
    p = make_params(rng)  # score convs zero-initialized
    e_list = project_and_upsample(make_pyramid(rng), p)
    _, w = dmf_fuse(e_list, p)
    np.testing.assert_allclose(w.data, 0.25, atol=1e-12)


def test_dmf_fused_in_convex_hull():
    rng = np.random.default_rng(5)
    p = make_params(rng)
    for t in p.tensors.values():
        t.data += 0.2 * rng.standard_normal(t.shape)
    e_list = project_and_upsample(make_pyramid(rng), p)
    fused, _ = dmf_fuse(e_list, p)
    stack = np.stack([e.data for e in e_list])
    assert np.all(fused.data >= stack.min(axis=0) - 1e-9)
    assert np.all(fused.data <= stack.max(axis=0) + 1e-9)


def test_uniform_shift_cancels_in_weights():
    rng = np.random.default_rng(6)
    p = make_params(rng)
    for t in p.tensors.values():
        t.data += 0.2 * rng.standard_normal(t.shape)
    e_list = project_and_upsample(make_pyramid(rng), p)
    _, w0 = dmf_fuse(e_list, p)
    u = Tensor(rng.random((1, 1, 8, 8)))
    _, w1 = dmf_fuse(e_list, p, u_down=u)
    np.testing.assert_allclose(w0.data, w1.data, atol=1e-9)


def test_static_fuse_shape():
    rng = np.random.default_rng(9)
    p = make_params(rng, use_dmf=False)
    e_list = project_and_upsample(make_pyramid(rng), p)
    fused = static_fuse(e_list, p)
    assert fused.shape == (1, 32, 8, 8)


def test_variance_strictly_positive():
    """u_ale is the channel mean of the per-class variances softplus(raw) +
    VAR_EPS, so it stays at or above VAR_EPS even where raw is very negative."""
    rng = np.random.default_rng(10)
    p = make_params(rng)
    p["var.w"].data[:] = 50.0 * rng.standard_normal(p["var.w"].shape)
    fused = Tensor(rng.standard_normal((1, 32, 8, 8)))
    u_ale = variance_branch(fused, p)
    raw = conv2d(fused, p["var.w"], p["var.b"]).data
    assert raw.min() < -40.0
    assert np.all(u_ale.data >= VAR_EPS)
    np.testing.assert_allclose(u_ale.data,
                               (np.logaddexp(0.0, raw) + VAR_EPS).mean(axis=1, keepdims=True),
                               rtol=1e-12)
    out = decoder_forward(make_pyramid(rng), p)
    assert np.all(out.u_ale.data >= VAR_EPS)


def test_refine_zero_init_leaves_logits_unchanged():
    # phi2 starts at zero, so Delta = 0 and Z* == Z regardless of the gate
    rng = np.random.default_rng(11)
    p = make_params(rng)
    out = decoder_forward(make_pyramid(rng), p)
    np.testing.assert_allclose(out.zstar.data, out.z.data, atol=1e-12)


def test_gate_closed_leaves_logits_unchanged():
    rng = np.random.default_rng(12)
    p = make_params(rng)
    for t in p.tensors.values():
        t.data += 0.2 * rng.standard_normal(t.shape)
    p["gate.w"].data[:] = 0.0
    p["gate.b"].data[:] = -60.0  # sigmoid ~ 0
    out = decoder_forward(make_pyramid(rng), p)
    assert np.abs(out.zstar.data - out.z.data).max() <= 1e-6


def test_detach_p_blocks_gradient_through_probability_input():
    rng = np.random.default_rng(13)
    p = make_params(rng)
    for t in p.tensors.values():
        t.data += 0.1 * rng.standard_normal(t.shape)
    pyr = make_pyramid(rng)

    def seg_grad(detach):
        for t in p.tensors.values():
            t.zero_grad()
        out = decoder_forward(pyr, p, detach_p=detach)
        # a loss reading only Delta: its dependence on seg.w exists only
        # via the P-input of the correction tower
        (out.delta * out.delta).sum().backward()
        g = p["seg.w"].grad
        return np.zeros_like(p["seg.w"].data) if g is None else g.copy()

    assert np.all(seg_grad(True) == 0.0)
    assert np.abs(seg_grad(False)).max() > 0.0


def test_forward_output_shapes():
    rng = np.random.default_rng(14)
    p = make_params(rng, num_classes=4)
    out = decoder_forward(make_pyramid(rng), p)
    assert out.z.shape == (1, 4, 8, 8)
    assert out.zstar.shape == (1, 4, 8, 8)
    assert out.weights.shape == (1, 4, 8, 8)
    assert out.u_ale.shape == (1, 1, 8, 8)
    assert out.edge_logits.shape == (1, 1, 8, 8)


def test_ablated_forward_outputs_none():
    rng = np.random.default_rng(15)
    p = make_params(rng, use_var=False, use_ugr=False, use_bnd=False)
    out = decoder_forward(make_pyramid(rng), p)
    assert out.u_ale is None
    assert out.gate is None and out.delta is None and out.edge_logits is None
    assert out.zstar is out.z


def test_static_fusion_rejects_modulated_mode():
    with pytest.raises(ValueError):
        ModelConfig(use_dmf=False, use_udmf=True)


def test_modulated_mode_requires_variance_head():
    with pytest.raises(ValueError):
        ModelConfig(use_var=False, use_ugr=False, use_udmf=True)


def test_channel_norm_zero_mean_unit_var():
    rng = np.random.default_rng(20)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)) * 5.0 + 2.0)
    g = Tensor(np.ones((1, 3, 1, 1)))
    b = Tensor(np.zeros((1, 3, 1, 1)))
    y = channel_norm(x, g, b).data
    np.testing.assert_allclose(y.mean(axis=(2, 3)), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.var(axis=(2, 3)), 1.0, atol=1e-3)


def test_batch_independence_of_forward():
    rng = np.random.default_rng(21)
    p = make_params(rng)
    pyr2 = make_pyramid(np.random.default_rng(22), n=2)
    out2 = decoder_forward(pyr2, p)
    pyr1 = FeaturePyramid(*[Tensor(m.data[:1]) for m in pyr2.maps()])
    out1 = decoder_forward(pyr1, p)
    np.testing.assert_allclose(out2.zstar.data[:1], out1.zstar.data, atol=1e-10)


# -- fused ops against the composites they replaced ----------------------------------
# The oracles are the chains of primitives the ops used to record. A fused
# op does the same arithmetic forward, and backward replays the chain rule
# in the chain's order, so values and gradients are bit-equal.


def _channel_norm_composite(x, gamma, beta):
    mu = x.mean(axis=(2, 3), keepdims=True)
    xc = x + (-mu)
    var = (xc * xc).mean(axis=(2, 3), keepdims=True)
    return gamma * (xc / (var + NORM_EPS).sqrt()) + beta


def _weighted_sum_composite(w, e_list):
    fused = w[:, 0:1] * e_list[0]
    for i in range(1, len(e_list)):
        fused = fused + w[:, i:i + 1] * e_list[i]
    return fused


def _value_and_grads(f, leaves, weight):
    for t in leaves:
        t.zero_grad()
    out = f(*leaves)
    (out * weight).sum().backward()
    return out.data, [t.grad for t in leaves]


def _leaves(rng, shapes, dtype=np.float64):
    return [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]


@pytest.mark.parametrize("fused,composite,shapes", [
    (channel_norm, _channel_norm_composite,
     [(2, 3, 6, 5), (1, 3, 1, 1), (1, 3, 1, 1)]),
    (lambda w, *e: weighted_sum(w, list(e)), lambda w, *e: _weighted_sum_composite(w, list(e)),
     [(2, 4, 5, 5)] + [(2, 3, 5, 5)] * 4),
], ids=["channel_norm", "weighted_sum"])
def test_fused_decoder_op_equals_its_composite(fused, composite, shapes):
    rng = np.random.default_rng(23)
    leaves = _leaves(rng, shapes)
    leaves[0].data *= 3.0
    weight = rng.standard_normal(composite(*leaves).shape)
    out_f, g_f = _value_and_grads(fused, leaves, weight)
    out_c, g_c = _value_and_grads(composite, leaves, weight)
    np.testing.assert_array_equal(out_f, out_c)
    for gf, gc in zip(g_f, g_c):
        np.testing.assert_array_equal(gf, gc)


def test_dmf_fuse_is_the_weighted_sum_of_its_weights():
    rng = np.random.default_rng(24)
    p = make_params(rng)
    for t in p.tensors.values():
        t.data += 0.2 * rng.standard_normal(t.shape)
    e_list = project_and_upsample(make_pyramid(rng), p)
    fused, w = dmf_fuse(e_list, p)
    np.testing.assert_array_equal(fused.data, _weighted_sum_composite(w, e_list).data)
    assert fused._parents[0] is w  # one node over the weights and the four maps
    assert [id(t) for t in fused._parents[1:]] == [id(e) for e in e_list]


@pytest.mark.parametrize("op,shapes", [
    (channel_norm, [(2, 3, 4, 4), (1, 3, 1, 1), (1, 3, 1, 1)]),
    (lambda w, *e: weighted_sum(w, list(e)), [(2, 4, 3, 3)] + [(2, 2, 3, 3)] * 4),
], ids=["channel_norm", "weighted_sum"])
def test_fused_decoder_ops_keep_float32(op, shapes):
    leaves = _leaves(np.random.default_rng(25), shapes, dtype=np.float32)
    out = op(*leaves)
    out.sum().backward()
    assert out.data.dtype == np.float32
    assert all(t.grad.dtype == np.float32 for t in leaves)
