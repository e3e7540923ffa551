import numpy as np
import pytest

from crispdec.decoder import (
    GATE_BIAS_INIT,
    VAR_EPS,
    DecoderParams,
    FeaturePyramid,
    channel_norm,
    decoder_forward,
    dmf_fuse,
    project_and_upsample,
    static_fuse,
)
from crispdec.model import ModelConfig
from crispdec.tensor import Tensor


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
    rng = np.random.default_rng(10)
    p = make_params(rng)
    out = decoder_forward(make_pyramid(rng), p)
    assert np.all(out.sigma2.data >= VAR_EPS)
    np.testing.assert_allclose(out.u_ale.data[:, 0],
                               out.sigma2.data.mean(axis=1), atol=1e-12)


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
    assert out.sigma2.shape == (1, 4, 8, 8)
    assert out.u_ale.shape == (1, 1, 8, 8)
    assert out.edge_logits.shape == (1, 1, 8, 8)


def test_ablated_forward_outputs_none():
    rng = np.random.default_rng(15)
    p = make_params(rng, use_var=False, use_ugr=False, use_bnd=False)
    out = decoder_forward(make_pyramid(rng), p)
    assert out.sigma2 is None and out.u_ale is None
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
