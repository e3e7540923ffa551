import numpy as np
import pytest

from crispdec import losses
from crispdec.fileio import IGNORE
from crispdec.losses import (
    PseudoLabelSet,
    boundary_loss,
    heteroscedastic_loss,
    masked_ce,
    masked_dice,
    mix_uncertainty,
    label_geometry,
    sdf_loss,
    stack_geometry,
    surface_weights,
    total_loss,
)
from crispdec.tensor import Tensor, bilinear_upsample, log_softmax, softmax


def all_valid(yhat):
    yhat = np.asarray(yhat)
    return PseudoLabelSet(yhat=yhat, valid=np.ones_like(yhat, dtype=np.uint8),
                          seed_uncertainty=np.zeros(yhat.shape))


def test_labelset_rejects_valid_on_ignore():
    yhat = np.array([[0, IGNORE]])
    with pytest.raises(ValueError):
        PseudoLabelSet(yhat=yhat, valid=np.array([[1, 1]]),
                       seed_uncertainty=np.zeros((1, 2)))


def test_labelset_promotes_2d():
    s = all_valid(np.zeros((4, 4), dtype=int))
    assert s.yhat.shape == (1, 4, 4)


def test_ce_uniform_logits_is_log_k():
    # all-equal logits: softmax 1/K, CE = ln K regardless of target
    for k in (2, 3, 4, 7):
        logits = Tensor(np.zeros((1, k, 3, 3)))
        labels = all_valid(np.zeros((3, 3), dtype=int))
        np.testing.assert_allclose(float(masked_ce(log_softmax(logits, 1), labels).data),
                                   np.log(k), atol=1e-9)


def test_ce_matches_manual_nll():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((1, 3, 2, 2))
    y = rng.integers(0, 3, size=(2, 2))
    labels = all_valid(y)
    got = float(masked_ce(log_softmax(Tensor(z), 1), labels).data)
    p = softmax(Tensor(z), axis=1).data[0]
    want = np.mean([-np.log(p[y[i, j], i, j]) for i in range(2) for j in range(2)])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_ce_ignores_invalid_pixels():
    z = np.zeros((1, 2, 1, 2))
    z[0, 0, 0, 0] = 50.0   # confident class 0 at pixel 0
    yhat = np.array([[1, IGNORE]])  # wrong label, but only pixel 1 ignored
    labels = PseudoLabelSet(yhat=yhat, valid=np.array([[1, 0]]),
                            seed_uncertainty=np.zeros((1, 2)))
    loss = float(masked_ce(log_softmax(Tensor(z), 1), labels).data)
    assert loss > 10.0  # dominated by the confident wrong pixel
    labels2 = PseudoLabelSet(yhat=np.array([[IGNORE, IGNORE]]),
                             valid=np.zeros((1, 2), dtype=np.uint8),
                             seed_uncertainty=np.zeros((1, 2)))
    with pytest.warns(UserWarning):
        assert float(masked_ce(log_softmax(Tensor(z), 1), labels2).data) == 0.0


def test_ce_invalid_pixel_gradient_is_zero():
    z = Tensor(np.random.default_rng(1).standard_normal((1, 2, 1, 2)),
               requires_grad=True)
    labels = PseudoLabelSet(yhat=np.array([[0, IGNORE]]), valid=np.array([[1, 0]]),
                            seed_uncertainty=np.zeros((1, 2)))
    masked_ce(log_softmax(z, 1), labels).backward()
    np.testing.assert_array_equal(z.grad[:, :, 0, 1], 0.0)
    assert np.abs(z.grad[:, :, 0, 0]).max() > 0


def test_ce_weight_scales_linearly():
    rng = np.random.default_rng(2)
    z = Tensor(rng.standard_normal((1, 3, 2, 2)))
    labels = all_valid(rng.integers(0, 3, size=(2, 2)))
    logp = log_softmax(z, 1)
    base = float(masked_ce(logp, labels).data)
    half = float(masked_ce(logp, labels, Tensor(np.full((1, 1, 2, 2), 0.5))).data)
    np.testing.assert_allclose(half, 0.5 * base, atol=1e-12)


def test_dice_perfect_prediction_near_zero():
    y = np.zeros((4, 4), dtype=int)
    y[1:3, 1:3] = 1
    z = np.zeros((1, 2, 4, 4))
    z[0, 1] = np.where(y == 1, 60.0, -60.0)
    z[0, 0] = -z[0, 1]
    loss = float(masked_dice(softmax(Tensor(z), 1), all_valid(y)).data)
    assert loss < 1e-3


def test_dice_disjoint_prediction_near_one_per_class():
    y = np.zeros((2, 2), dtype=int)  # all background
    z = np.zeros((1, 2, 2, 2))
    z[0, 1] = 60.0  # predicts class 1 everywhere, target has only class 0
    loss = float(masked_dice(softmax(Tensor(z), 1), all_valid(y)).data)
    # only class 0 is present in targets: dice(num~1, den~5) -> ~0.8
    np.testing.assert_allclose(loss, 1.0 - 1.0 / (0.0 + 4.0 + 1.0), atol=1e-3)


def test_dice_absent_classes_excluded():
    y = np.zeros((3, 3), dtype=int)
    p = softmax(Tensor(np.random.default_rng(3).standard_normal((1, 4, 3, 3))), 1)
    # only class 0 is present: a K=4 head's Dice is the class-0 term alone
    l4 = float(masked_dice(p, all_valid(y)).data)
    p0 = p.data[0, 0]
    want = 1.0 - (2.0 * p0.sum() + 1.0) / ((p0 + 1.0).sum() + 1.0)
    np.testing.assert_allclose(l4, want, rtol=0, atol=1e-12)


def _dice_per_class_loop(p, labels, w):
    """Reference: one soft Dice term per present class, summed in a loop."""
    valid = labels.valid[:, None].astype(bool)
    oh = (labels.yhat[:, None] == np.arange(p.shape[1])[None, :, None, None]) & valid
    wt = w * valid
    terms = []
    for c in range(p.shape[1]):
        if oh[:, c].any():
            pc, yc = p[:, c:c + 1], oh[:, c:c + 1]
            num = 2.0 * (wt * pc * yc).sum() + losses.DICE_SMOOTH
            den = (wt * (pc + yc)).sum() + losses.DICE_SMOOTH
            terms.append(1.0 - num / den)
    return sum(terms) / len(terms)


def test_dice_matches_per_class_loop():
    rng = np.random.default_rng(12)
    n, k, h, w = 2, 6, 5, 7
    for absent in ((), (1,), (0, 4, 5)):
        present = [c for c in range(k) if c not in absent]
        yhat = rng.choice(present, size=(n, h, w))
        valid = (rng.random((n, h, w)) < 0.8).astype(np.uint8)
        yhat[valid == 0] = IGNORE
        labels = PseudoLabelSet(yhat=yhat, valid=valid, seed_uncertainty=np.zeros((n, h, w)))
        p = softmax(Tensor(3.0 * rng.standard_normal((n, k, h, w))), 1).data
        wmap = rng.random((n, 1, h, w)) + 0.1
        got = float(masked_dice(Tensor(p), labels, Tensor(wmap)).data)
        np.testing.assert_allclose(got, _dice_per_class_loop(p, labels, wmap),
                                   rtol=0, atol=1e-12)


def test_heteroscedastic_sigma_one_is_half_ce():
    rng = np.random.default_rng(4)
    z = Tensor(rng.standard_normal((1, 3, 2, 2)))
    labels = all_valid(rng.integers(0, 3, size=(2, 2)))
    logp = log_softmax(z, 1)
    ce = float(masked_ce(logp, labels).data)
    het = float(heteroscedastic_loss(logp, labels, Tensor(np.ones((1, 1, 2, 2)))).data)
    np.testing.assert_allclose(het, 0.5 * ce, atol=1e-9)


def test_heteroscedastic_rejects_nonpositive_sigma():
    z = Tensor(np.zeros((1, 2, 1, 1)))
    labels = all_valid(np.zeros((1, 1), dtype=int))
    with pytest.raises(ValueError):
        heteroscedastic_loss(log_softmax(z, 1), labels, Tensor(np.zeros((1, 1, 1, 1))))


def test_heteroscedastic_high_variance_discounts_ce():
    z = np.zeros((1, 2, 1, 1))
    z[0, 1] = 30.0  # very wrong vs label 0
    labels = all_valid(np.zeros((1, 1), dtype=int))
    logp = log_softmax(Tensor(z), 1)
    tight = float(heteroscedastic_loss(logp, labels, Tensor(np.full((1, 1, 1, 1), 0.5))).data)
    loose = float(heteroscedastic_loss(logp, labels, Tensor(np.full((1, 1, 1, 1), 10.0))).data)
    assert loose < tight


def test_mix_weight_closed_forms():
    # U=1 at BETA=2 -> w=e^-2; U=0 -> w=1
    u = Tensor(np.array([[[[0.0, 1.0]]]]))
    z = Tensor(np.zeros((1, 2, 1, 2)))
    _, w = mix_uncertainty(u, softmax(z, 1), log_softmax(z, 1), alpha=1.0)
    np.testing.assert_allclose(w.data[0, 0, 0], [1.0, np.exp(-2.0)], atol=1e-9)


def test_mix_degenerate_constant_maps_give_w_one():
    # uniform logits and constant aleatoric map: both normalized maps zero
    u = Tensor(np.full((1, 1, 2, 2), 3.3))
    z = Tensor(np.zeros((1, 2, 2, 2)))
    mixed, w = mix_uncertainty(u, softmax(z, 1), log_softmax(z, 1), alpha=0.5)
    np.testing.assert_array_equal(mixed.data, 0.0)
    np.testing.assert_array_equal(w.data, 1.0)


def test_mix_normalized_maps_in_unit_interval():
    rng = np.random.default_rng(5)
    u = Tensor(rng.random((2, 1, 4, 4)) * 7.0)
    z = Tensor(rng.standard_normal((2, 3, 8, 8)))
    u_up, p, logp = bilinear_upsample(u, 8, 8), softmax(z, 1), log_softmax(z, 1)
    mixed, w = mix_uncertainty(u_up, p, logp, alpha=0.5)
    # the two normalized maps that mix_uncertainty blends, and the blend
    for m in (losses._minmax_normalize(u_up.data)[0],
              losses._minmax_normalize(-(p.data * logp.data).sum(axis=1, keepdims=True))[0],
              mixed.data):
        assert m.min() >= 0.0 and m.max() <= 1.0 + 1e-9
    assert w.data.min() > 0.0 and w.data.max() <= 1.0


def test_boundary_loss_perfect_logits_small():
    band = np.zeros((1, 1, 6, 6))
    band[:, :, 2:4, :] = 1.0
    logits = np.where(band > 0, 60.0, -60.0)
    loss = float(boundary_loss(Tensor(logits), band).data)
    assert loss < 1e-3


def test_boundary_loss_inverted_logits_large():
    band = np.zeros((1, 1, 6, 6))
    band[:, :, 2:4, :] = 1.0
    logits = np.where(band > 0, -60.0, 60.0)
    loss = float(boundary_loss(Tensor(logits), band).data)
    assert loss > 10.0


def test_boundary_loss_matches_manual_bce():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, 1, 3, 3))
    band = (rng.random((1, 1, 3, 3)) < 0.5).astype(float)
    got = float(boundary_loss(Tensor(x), band).data)
    p = 1.0 / (1.0 + np.exp(-x))
    bce = -(band * np.log(p) + (1 - band) * np.log(1 - p)).mean()
    dice = 1.0 - (2 * (p * band).sum() + 1.0) / ((p + band).sum() + 1.0)
    np.testing.assert_allclose(got, bce + dice, atol=1e-9)


def test_sdf_loss_zero_for_constant_probabilities():
    y = np.zeros((1, 4, 4), dtype=int)
    y[0, :2] = 1
    p = Tensor(np.full((1, 2, 4, 4), 0.5))
    np.testing.assert_allclose(float(sdf_loss(p, surface_weights(y)).data), 0.0, atol=1e-12)


def test_sdf_loss_penalizes_variation_far_from_boundary():
    y = np.zeros((1, 8, 8), dtype=int)
    y[0, :, :4] = 1  # boundary at column 3/4
    pa = np.full((1, 2, 8, 8), 0.5)
    pb = pa.copy()
    pa[0, 0, 0, 3] = 0.9  # jump next to the boundary
    pb[0, 0, 0, 7] = 0.9  # same jump far away
    la = float(sdf_loss(Tensor(pa), surface_weights(y)).data)
    lb = float(sdf_loss(Tensor(pb), surface_weights(y)).data)
    assert lb > la


def test_sdf_loss_boundaryless_image_contributes_zero():
    y = np.zeros((1, 4, 4), dtype=int)
    p = Tensor(np.random.default_rng(7).random((1, 2, 4, 4)))
    np.testing.assert_allclose(float(sdf_loss(p, surface_weights(y)).data), 0.0, atol=1e-12)


class FakeOutputs:
    def __init__(self, z, zstar, u_ale=None, edge_logits=None):
        self.z, self.zstar, self.u_ale, self.edge_logits = z, zstar, u_ale, edge_logits


def test_total_loss_breakdown_keys_and_consistency():
    rng = np.random.default_rng(8)
    z = Tensor(rng.standard_normal((1, 3, 4, 4)))
    sig = Tensor(rng.random((1, 3, 4, 4)) + 0.5)
    u = sig.mean(axis=1, keepdims=True)
    e = Tensor(rng.standard_normal((1, 1, 4, 4)))
    out = FakeOutputs(z, z, u_ale=u, edge_logits=e)
    y = rng.integers(0, 3, size=(8, 8))
    labels = all_valid(y)
    total, br = total_loss(out, labels, use_sdf=True)
    assert set(br) == {"l_total", "l_ce", "l_dice", "l_het", "l_bnd", "l_sdf",
                       "mean_w", "valid_fraction"}
    assert br["l_sdf"] > 0
    want = (br["l_ce"] + br["l_dice"]
            + losses.LAMBDA_HET * br["l_het"] + losses.LAMBDA_BND * br["l_bnd"]
            + losses.LAMBDA_SDF * br["l_sdf"])
    np.testing.assert_allclose(br["l_total"], want, rtol=1e-12)
    assert br["valid_fraction"] == 1.0
    _, br_off = total_loss(out, labels, use_sdf=False)
    assert br_off["l_sdf"] == 0.0
    np.testing.assert_allclose(br_off["l_total"], want - losses.LAMBDA_SDF * br["l_sdf"],
                               rtol=1e-12)


def test_total_loss_skips_ablated_heads():
    rng = np.random.default_rng(9)
    z = Tensor(rng.standard_normal((1, 3, 4, 4)))
    out = FakeOutputs(z, z)
    labels = all_valid(rng.integers(0, 3, size=(8, 8)))
    _, br = total_loss(out, labels, use_sdf=True)
    # no SDF term without the boundary head, even with use_sdf
    assert br["l_het"] == 0.0 and br["l_bnd"] == 0.0 and br["l_sdf"] == 0.0
    assert br["mean_w"] == 1.0


def test_total_loss_computes_each_shared_map_once(monkeypatch):
    rng = np.random.default_rng(10)
    z = Tensor(rng.standard_normal((2, 3, 4, 4)))
    sig = Tensor(rng.random((2, 3, 4, 4)) + 0.5)
    out = FakeOutputs(z, Tensor(rng.standard_normal((2, 3, 4, 4))),
                      u_ale=sig.mean(axis=1, keepdims=True),
                      edge_logits=Tensor(rng.standard_normal((2, 1, 4, 4))))
    calls = []

    def counted(name, fn):
        def wrapper(t, *args, **kwargs):
            calls.append((name, id(t)))
            return fn(t, *args, **kwargs)
        monkeypatch.setattr(losses, name, wrapper)

    for name in ("softmax", "log_softmax", "bilinear_upsample"):
        counted(name, getattr(losses, name))
    total_loss(out, all_valid(rng.integers(0, 3, size=(2, 8, 8))), use_sdf=True)
    for name in ("softmax", "log_softmax"):
        ids = [i for n, i in calls if n == name]
        assert ids and len(ids) == len(set(ids)), name
    assert calls.count(("bilinear_upsample", id(out.u_ale))) == 1


def _assert_close(got, want):
    """Same dtype, and within 1e-13 (float64) or 1e-5 (float32) of the
    largest magnitude in `want`: a closed-form backward rounds otherwise
    than the chain rule through a composite's primitives, by about one ulp
    of the largest term."""
    assert got.dtype == want.dtype
    tol = 1e-5 if want.dtype == np.float32 else 1e-13
    np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())


# -- the fused boundary term against the composite it replaced -------------------------


def _boundary_loss_composite(x, band, supervised=None):
    """The chain of primitives boundary_loss used to record."""
    b = Tensor(np.asarray(band, dtype=np.float64).reshape(x.shape))
    if supervised is None:
        sup, n_sup = Tensor(np.ones(x.shape)), float(np.prod(x.shape))
    else:
        sup = Tensor(np.asarray(supervised, dtype=np.float64).reshape(x.shape))
        n_sup = float(sup.data.sum())
    bce = (sup * (x.softplus() + (-(x * b)))).sum() / n_sup
    p = x.sigmoid()
    num = 2.0 * (sup * p * b).sum() + losses.DICE_SMOOTH
    den = (sup * (p + b)).sum() + losses.DICE_SMOOTH
    return bce + (Tensor(np.asarray(1.0)) + (-(num / den)))


@pytest.mark.parametrize("supervised", [False, True])
def test_fused_boundary_loss_equals_its_composite(supervised):
    """Same arithmetic forward, so the value is bit-equal; the closed-form
    gradient is the composite's to rounding."""
    rng = np.random.default_rng(30)
    band = (rng.random((3, 1, 8, 8)) < 0.3).astype(np.float64)
    sup = (rng.random((3, 1, 8, 8)) < 0.7).astype(np.uint8) if supervised else None
    x = Tensor(3.0 * rng.standard_normal((3, 1, 8, 8)), requires_grad=True)
    fused = boundary_loss(x, band, sup)
    fused.backward()
    g_fused, x.grad = x.grad, None
    composite = _boundary_loss_composite(x, band, sup)
    composite.backward()
    assert fused.data == composite.data
    _assert_close(g_fused, x.grad)


def test_fused_boundary_loss_keeps_float32():
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal((2, 1, 4, 4)).astype(np.float32), requires_grad=True)
    loss = boundary_loss(x, rng.random((2, 1, 4, 4)) < 0.3)
    loss.backward()
    assert loss.data.dtype == np.float32 and x.grad.dtype == np.float32


def test_loss_targets_are_built_once_per_label_set():
    rng = np.random.default_rng(32)
    yhat = rng.integers(0, 3, size=(2, 8, 8))
    valid = (rng.random((2, 8, 8)) < 0.7).astype(np.uint8)
    labels = PseudoLabelSet(yhat=np.where(valid, yhat, IGNORE), valid=valid,
                            seed_uncertainty=np.zeros((2, 8, 8)))
    z = Tensor(rng.standard_normal((2, 3, 8, 8)))
    sig = Tensor(rng.random((2, 3, 8, 8)) + 0.5)
    out = FakeOutputs(z, z, u_ale=sig.mean(axis=1, keepdims=True))
    total_loss(out, labels, use_sdf=False)
    (oh, vm), = labels._targets.values()  # CE, Dice and het shared one build
    assert losses._targets(labels, 3)[0] is oh
    ref = np.zeros((2, 3, 8, 8))
    np.put_along_axis(ref, np.where(valid, yhat, 0)[:, None], 1.0, axis=1)
    np.testing.assert_array_equal(oh, ref * valid[:, None])
    np.testing.assert_array_equal(vm, valid[:, None])


def test_a6_float32_step_records_at_most_200_tape_nodes(monkeypatch):
    """A fused op is one node: the forward and loss of one A6 step (253
    nodes with the composite softmax, subtraction, norm, fusion sum and
    boundary term) stay within 200."""
    from crispdec.benchmark import LEVELS
    from crispdec.model import ModelConfig, SegModel

    rng = np.random.default_rng(33)
    model = SegModel(ModelConfig(dtype="float32", **LEVELS["A6"]))
    yhat = rng.integers(0, 4, size=(2, 64, 64))
    yhat[:, :4] = IGNORE
    labels = PseudoLabelSet(yhat=yhat, valid=yhat != IGNORE,
                            seed_uncertainty=rng.random((2, 64, 64)))
    from_op = Tensor.__dict__["_from_op"].__func__
    nodes = []

    def counted(cls, data, parents, backward):
        nodes.append(1)
        return from_op(cls, data, parents, backward)

    monkeypatch.setattr(Tensor, "_from_op", classmethod(counted))
    loss, _ = total_loss(model.forward(rng.standard_normal((2, 3, 64, 64))), labels,
                         use_sdf=False)
    assert loss.requires_grad
    assert len(nodes) <= 200, len(nodes)


# -- the fused surface term against the composite it replaced --------------------------


def _sdf_loss_composite(p, phi):
    """The chain of primitives sdf_loss used to record."""
    n, _, h, w = p.shape
    phi_t = Tensor(phi)
    du = (p[:, :, 1:, :] - p[:, :, :-1, :]).abs().sum(axis=1, keepdims=True)
    dv = (p[:, :, :, 1:] - p[:, :, :, :-1]).abs().sum(axis=1, keepdims=True)
    total = (du * phi_t[:, :, :-1, :]).sum() + (dv * phi_t[:, :, :, :-1]).sum()
    return total / (n * h * w)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grad_before", [False, True])
def test_fused_sdf_loss_equals_its_composite(dtype, grad_before):
    """Value bit-equal and p.grad to rounding, with ties in p (zero
    differences), a negative upstream gradient and, with `grad_before`, a
    gradient already in p that the node's must add to."""
    rng = np.random.default_rng(40)
    yhat = np.kron(rng.integers(0, 3, size=(3, 3, 4)), np.ones((4, 4), dtype=int))[:, 1:]
    yhat[0, :, :3] = IGNORE
    yhat[2] = 1  # no boundary
    phi = surface_weights(yhat)
    x = np.where(rng.random((3, 2, 11, 16)) < 0.3, 0.5, rng.random((3, 2, 11, 16)))
    p = Tensor(x.astype(dtype), requires_grad=True)
    seed = rng.standard_normal(p.shape).astype(dtype)
    grads = []
    for loss_fn in (sdf_loss, _sdf_loss_composite):
        p.grad = seed.copy() if grad_before else None
        loss = loss_fn(p, phi)
        (loss * -0.37).backward()
        grads.append((loss.data, p.grad))
    (fused, g_fused), (composite, g_composite) = grads
    assert fused.dtype == composite.dtype and fused == composite
    assert g_fused.dtype == dtype
    _assert_close(g_fused, g_composite)


# -- label geometry, once per label set and mirrored with the image ---------------------


def _label_maps(rng):
    """Random maps with IGNORE pixels, a boundaryless map and a binary map
    (whose phi is signed before the surface weights take |phi|)."""
    maps = rng.integers(0, 4, size=(4, 12, 10))
    maps[0][rng.random((12, 10)) < 0.3] = IGNORE
    maps[1] = 2
    maps[1, :, :4] = IGNORE
    maps[2] = rng.random((12, 10)) < 0.4
    maps[3] = 0
    maps[3, 3:8, 2:7] = 1
    return maps


def test_label_geometry_commutes_with_the_flip():
    rng = np.random.default_rng(41)
    for _ in range(20):
        maps = _label_maps(rng)
        plain = label_geometry(PseudoLabelSet(maps, maps != IGNORE, np.zeros(maps.shape)), True)
        flipped = label_geometry(PseudoLabelSet(maps[..., ::-1], maps[..., ::-1] != IGNORE,
                                                np.zeros(maps.shape)), True)
        for a, b in zip(plain, flipped):
            assert a.dtype == b.dtype and a[..., ::-1].tobytes() == b.tobytes()


def test_label_geometry_is_built_once_per_label_set(monkeypatch):
    maps = _label_maps(np.random.default_rng(42))
    labels = PseudoLabelSet(maps, maps != IGNORE, np.zeros(maps.shape))
    band, sup, phi = label_geometry(labels, True)
    monkeypatch.setattr(losses, "boundary_band", None)
    monkeypatch.setattr(losses, "signed_distance", None)
    assert label_geometry(labels, True) == (band, sup, phi)
    assert label_geometry(labels, False) == (band, sup, None)
    # the supervision mask: off the band, nothing within BAND_PX of IGNORE
    ign = maps == IGNORE
    near = np.array([[ign[i, max(r - 2, 0):r + 3, max(c - 2, 0):c + 3].any()
                      for c in range(10)] for i in range(4) for r in range(12)])
    np.testing.assert_array_equal(sup, ~near.reshape(4, 12, 10) | band.astype(bool))
    np.testing.assert_array_equal(phi[:, 0], np.where(ign, 0.0, phi[:, 0]))
    assert not phi[1].any() and phi[3].any()  # no boundary, no weight


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_stacked_geometry_gives_the_loss_of_a_fresh_label_set(dtype):
    """The batch fed each sample's geometry, mirrored where the image is,
    gives every breakdown value and every parameter gradient of a batch
    that builds its own."""
    from crispdec.benchmark import LEVELS
    from crispdec.model import ModelConfig, SegModel
    from crispdec.synthdata import CorruptionSpec, SceneSpec, make_dataset

    data = make_dataset(4, SceneSpec(height=32, width=32, seed=3),
                        CorruptionSpec(erode_px=3, dilate_px=3, flip_prob=0.15))
    data[1].seed = PseudoLabelSet(np.full((32, 32), 2), np.ones((32, 32)), np.zeros((32, 32)))
    flips = np.array([True, False, True, True])
    images = np.stack([s.image for s in data])
    images[flips] = images[flips, :, :, ::-1]
    yhat = np.concatenate([s.seed.yhat for s in data])
    yhat[flips] = yhat[flips, :, ::-1]
    model = SegModel(ModelConfig(width=8, dtype=dtype, **LEVELS["A4"]))
    results = []
    for stacked in (True, False):
        labels = PseudoLabelSet(yhat, yhat != IGNORE, np.zeros(yhat.shape))
        if stacked:
            stack_geometry(labels, [s.seed for s in data], flips, True)
        model.zero_grad()
        loss, breakdown = total_loss(model.forward(images), labels, use_sdf=True)
        loss.backward()
        results.append((breakdown, {k: p.grad.tobytes() for k, p in model.params.items()}))
    assert results[0][0]["l_sdf"] > 0 and results[0][0]["l_bnd"] > 0
    assert results[0] == results[1]


# -- the fused region terms against the chains of primitives they replaced -------------


def _masked_ce_composite(logp, labels, w=None):
    """The chain of primitives masked_ce used to record."""
    oh = Tensor(losses._targets(labels, logp.shape[1])[0])
    nll = -(oh * logp).sum(axis=1, keepdims=True)
    if w is not None:
        nll = w * nll
    return nll.sum() / int(labels.valid.sum())


def _masked_dice_composite(p, labels, w=None):
    """The chain of primitives masked_dice used to record."""
    oh, vm = losses._targets(labels, p.shape[1])
    present = np.flatnonzero(oh.any(axis=(0, 2, 3)))
    y, vm = Tensor(oh), Tensor(vm)
    wt = vm if w is None else w * vm
    num = 2.0 * (wt * p * y).sum(axis=(0, 2, 3)) + losses.DICE_SMOOTH
    den = (wt * (p + y)).sum(axis=(0, 2, 3)) + losses.DICE_SMOOTH
    return (1.0 - num / den)[present].sum() / len(present)


def _minmax_normalize_composite(u):
    axes = tuple(range(1, u.data.ndim))
    lo = u.min(axis=axes, keepdims=True)
    rng = u.max(axis=axes, keepdims=True) - lo
    return (u - lo) / (rng + losses._MINMAX_TINY)


def _mix_uncertainty_composite(u_up, p, logp, alpha):
    """The chain of primitives mix_uncertainty used to record."""
    u = _minmax_normalize_composite(-(p * logp).sum(axis=1, keepdims=True))
    if u_up is not None:
        u = alpha * _minmax_normalize_composite(u_up) + (1.0 - alpha) * u
    return u, (-losses.BETA * u).exp()


def _heteroscedastic_composite(logp, labels, sigma2_up):
    """The chain of primitives heteroscedastic_loss used to record."""
    oh, vm = (Tensor(a) for a in losses._targets(labels, logp.shape[1]))
    nll = -(oh * logp).sum(axis=1, keepdims=True)
    per_px = nll / (2.0 * sigma2_up) + 0.5 * sigma2_up.log()
    return (per_px * vm).sum() / int(labels.valid.sum())


def _region_fixture(dtype, seed=50):
    """Labels with IGNORE pixels and an absent class, and leaf inputs in
    `dtype`: probabilities with ties (image 0 is uniform, so its entropy
    map is constant), their logs, weights with zeros and a variance map
    with a constant image."""
    rng = np.random.default_rng(seed)
    n, k, h, w = 3, 4, 6, 7
    yhat = rng.integers(0, k - 1, size=(n, h, w))
    valid = rng.random((n, h, w)) < 0.8
    yhat[~valid] = IGNORE
    labels = PseudoLabelSet(yhat, valid, rng.random((n, h, w)))
    z = np.where(rng.random((n, k, h, w)) < 0.3, 0.0, 2.0 * rng.standard_normal((n, k, h, w)))
    z[0] = 0.0
    sigma2 = rng.random((n, 1, h, w)) + 0.2
    sigma2[1] = 0.7
    leaves = {"p": softmax(Tensor(z), 1).data, "logp": log_softmax(Tensor(z), 1).data,
              "w": np.where(rng.random((n, 1, h, w)) < 0.2, 0.0, rng.random((n, 1, h, w))),
              "u_up": sigma2, "sigma2": sigma2}
    leaves = {name: Tensor(a.astype(dtype), requires_grad=True) for name, a in leaves.items()}
    return rng, labels, leaves


def _assert_node_equals_composite(fused_fn, composite_fn, inputs, rng, grad_before):
    """The fused node and its composite give the same value, bit for bit,
    and the same gradient in every input to rounding (`_assert_close`),
    after a backward of the value times a map of signs and zeros, again
    with the signs flipped, and once times zero; with `grad_before` every
    input already holds a gradient, which the node's must add to."""
    seeds = [rng.standard_normal(t.shape).astype(t.data.dtype) for t in inputs]
    signs = None
    for flip in (1.0, -1.0, 0.0):
        results = []
        for fn in (fused_fn, composite_fn):
            for t, s in zip(inputs, seeds):
                t.grad = s.copy() if grad_before else None
            out = fn(*inputs)
            outs = out if isinstance(out, tuple) else (out,)
            if signs is None:
                r = rng.random(outs[-1].shape)
                signs = np.where(r < 0.2, 0.0, np.where(r < 0.6, -0.37, 0.61))
            (outs[-1] * (flip * signs).astype(outs[-1].data.dtype)).sum().backward()
            results.append(([o.data for o in outs], [t.grad for t in inputs]))
        (values, grads), (values_c, grads_c) = results
        for a, b in zip(values, values_c):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(grads, grads_c):
            _assert_close(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("grad_before", [False, True])
def test_fused_ce_and_dice_equal_their_composites(dtype, weighted, grad_before):
    rng, labels, t = _region_fixture(dtype)
    w = [t["w"]] if weighted else []
    _assert_node_equals_composite(lambda lp, *w: masked_ce(lp, labels, *w),
                                  lambda lp, *w: _masked_ce_composite(lp, labels, *w),
                                  [t["logp"], *w], rng, grad_before)
    _assert_node_equals_composite(lambda p, *w: masked_dice(p, labels, *w),
                                  lambda p, *w: _masked_dice_composite(p, labels, *w),
                                  [t["p"], *w], rng, grad_before)


@pytest.mark.parametrize("dtype, ale_dtype", [
    (np.float32, None), (np.float64, None), (np.float32, np.float32),
    (np.float64, np.float64), (np.float64, np.float32), (np.float32, np.float64),
])
@pytest.mark.parametrize("grad_before", [False, True])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_fused_mix_uncertainty_equals_its_composite(dtype, ale_dtype, grad_before, alpha):
    """U and w, and the gradient of w in u_up, p and logp: without an
    aleatoric map, and with one in the dtype of p or the other; ties in
    the min-max scaling and alpha = 1 (a zero entropy share) included."""
    rng, _, t = _region_fixture(dtype)
    if ale_dtype is None:
        inputs = [t["p"], t["logp"]]
        fns = [lambda p, lp, f=f: f(None, p, lp, alpha)
               for f in (mix_uncertainty, _mix_uncertainty_composite)]
    else:
        inputs = [Tensor(t["u_up"].data.astype(ale_dtype), requires_grad=True), t["p"], t["logp"]]
        fns = [lambda u, p, lp, f=f: f(u, p, lp, alpha)
               for f in (mix_uncertainty, _mix_uncertainty_composite)]
    _assert_node_equals_composite(*fns, inputs, rng, grad_before)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grad_before", [False, True])
def test_fused_heteroscedastic_loss_equals_its_composite(dtype, grad_before):
    rng, labels, t = _region_fixture(dtype)
    _assert_node_equals_composite(
        lambda lp, s: heteroscedastic_loss(lp, labels, s),
        lambda lp, s: _heteroscedastic_composite(lp, labels, s),
        [t["logp"], t["sigma2"]], rng, grad_before)


@pytest.mark.parametrize("level, dtype, use_sdf", [("A6", "float32", False),
                                                   ("A6", "float64", True),
                                                   ("U0", "float64", True),
                                                   ("A4", "float32", True),
                                                   ("U0", "float32", True),
                                                   ("A6", "float32", True)])
def test_step_gradients_equal_those_of_the_composite_terms(level, dtype, use_sdf, monkeypatch):
    """Every breakdown value and parameter gradient of a step against those
    of the step with the six loss terms recorded as chains of primitives,
    at init and with every parameter perturbed. The terms take float64 maps
    at full resolution, so a float32 model's gradients round away how
    their backward rounds and are bit-equal. Float64 ones agree to the
    rounding of the step's largest gradient: some (the biases ahead of the
    channel norm, the variance head's at init) are cancellation noise."""
    from crispdec.benchmark import LEVELS
    from crispdec.model import ModelConfig, SegModel
    from crispdec.synthdata import CorruptionSpec, SceneSpec, make_dataset

    data = make_dataset(4, SceneSpec(height=32, width=32, seed=4),
                        CorruptionSpec(erode_px=3, dilate_px=3, flip_prob=0.15))
    images = np.stack([s.image for s in data])
    rng = np.random.default_rng(51)
    yhat = np.concatenate([s.seed.yhat for s in data])
    yhat[rng.random(yhat.shape) < 0.15] = IGNORE
    labels = PseudoLabelSet(yhat, yhat != IGNORE, np.zeros(yhat.shape))
    model = SegModel(ModelConfig(width=8, dtype=dtype, **LEVELS[level]))
    composites = {"masked_ce": _masked_ce_composite, "masked_dice": _masked_dice_composite,
                  "mix_uncertainty": _mix_uncertainty_composite,
                  "heteroscedastic_loss": _heteroscedastic_composite,
                  "boundary_loss": _boundary_loss_composite, "sdf_loss": _sdf_loss_composite}
    for _ in range(2):
        results = []
        for fused in (True, False):
            with monkeypatch.context() as m:
                if not fused:
                    for name, fn in composites.items():
                        m.setattr(losses, name, fn)
                model.zero_grad()
                loss, breakdown = total_loss(model.forward(images), labels, use_sdf)
                loss.backward()
            results.append((breakdown, {k: p.grad for k, p in model.params.items()}))
        (breakdown, grads), (breakdown_c, grads_c) = results
        assert breakdown == breakdown_c
        if dtype == "float32":
            for k, g in grads.items():
                assert g.tobytes() == grads_c[k].tobytes(), k
        else:
            _assert_close(*(np.concatenate([g.ravel() for g in gs.values()])
                            for gs in (grads, grads_c)))
        for t in model.params.values():  # off the zero init of the heads
            t.data += (0.3 * rng.standard_normal(t.shape)).astype(t.data.dtype)
