import numpy as np
import pytest
from scipy import ndimage

from crispdec.fileio import IGNORE
from crispdec.synthdata import (
    ENCODER_CHANNELS,
    CorruptionSpec,
    SceneSpec,
    build_ignore_mask,
    corrupt_to_seed,
    export_dataset,
    generate_scene,
    init_encoder_params,
    load_dataset,
    make_dataset,
    toy_encoder_forward,
)
from crispdec.tensor import Tensor


def test_scene_spec_rejects_bad_canvas():
    with pytest.raises(ValueError):
        SceneSpec(height=60, width=64)


@pytest.mark.parametrize("k", [1, 5, 6])
def test_scene_spec_rejects_classes_no_shape_draws(k):
    with pytest.raises(ValueError):
        SceneSpec(num_classes=k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_scenes_draw_every_class_they_allow(k):
    spec = SceneSpec(num_classes=k, seed=5)
    seen = set()
    for i in range(40):
        seen.update(np.unique(generate_scene(spec, i)[1]).tolist())
    assert seen == set(range(k))


def test_corruption_spec_rejects_bad_probability():
    with pytest.raises(ValueError):
        CorruptionSpec(flip_prob=1.5)


def test_scene_deterministic_per_seed_index():
    spec = SceneSpec(seed=7)
    img1, gt1 = generate_scene(spec, 3)
    img2, gt2 = generate_scene(spec, 3)
    np.testing.assert_array_equal(img1, img2)
    np.testing.assert_array_equal(gt1, gt2)


def test_scene_index_changes_content():
    spec = SceneSpec(seed=7)
    _, gt1 = generate_scene(spec, 0)
    _, gt2 = generate_scene(spec, 1)
    assert not np.array_equal(gt1, gt2)


def test_scene_shapes_and_classes():
    spec = SceneSpec(seed=1)
    img, gt = generate_scene(spec, 0)
    assert img.shape == (3, 64, 64) and img.dtype == np.float32
    assert gt.shape == (64, 64)
    assert gt.max() < spec.num_classes
    assert (gt > 0).any()


def test_scene_zero_shapes_all_background():
    spec = SceneSpec(seed=1, min_shapes=0, max_shapes=0)
    _, gt = generate_scene(spec, 0)
    assert not gt.any()


def test_scene_classes_visually_distinct():
    spec = SceneSpec(seed=3)
    img, gt = generate_scene(spec, 2)
    for c in np.unique(gt):
        for d in np.unique(gt):
            if c >= d:
                continue
            mean_c = img[:, gt == c].mean(axis=1)
            mean_d = img[:, gt == d].mean(axis=1)
            assert np.abs(mean_c - mean_d).max() > 0.05


def test_disk_area_close_to_circle(tmp_path):
    # a scene dominated by one disk: area within 5% of pi r^2 is checked
    # implicitly by the rasterizer; verify directly on the raster
    yy, xx = np.mgrid[0:64, 0:64]
    for r in (6, 9, 12):
        mask = (yy - 32) ** 2 + (xx - 32) ** 2 <= r * r
        assert abs(mask.sum() - np.pi * r * r) / (np.pi * r * r) < 0.05


def test_ignore_mask_q_zero_all_valid():
    u = np.random.default_rng(0).random((4, 4))
    np.testing.assert_array_equal(build_ignore_mask(u, 0.0), np.ones((4, 4)))


def test_ignore_mask_exact_count():
    rng = np.random.default_rng(1)
    for q in (10.0, 25.0, 30.0, 50.0, 99.0):
        u = rng.random((8, 8))
        m = build_ignore_mask(u, q)
        assert (m == 0).sum() == int(np.ceil(q / 100.0 * 64))


def test_ignore_mask_masks_the_most_uncertain():
    u = np.arange(16.0).reshape(4, 4)
    m = build_ignore_mask(u, 50.0)
    np.testing.assert_array_equal(m.reshape(-1)[:8], 1)
    np.testing.assert_array_equal(m.reshape(-1)[8:], 0)


def test_ignore_mask_tie_break_later_index():
    u = np.zeros((4, 4))
    m = build_ignore_mask(u, 25.0)
    # all equal: the ceil(0.25*16)=4 masked pixels are the LAST in row-major order
    np.testing.assert_array_equal(m.reshape(-1)[-4:], 0)
    np.testing.assert_array_equal(m.reshape(-1)[:-4], 1)


def test_ignore_mask_batched():
    rng = np.random.default_rng(2)
    u = rng.random((3, 4, 4))
    m = build_ignore_mask(u, 30.0)
    assert m.shape == (3, 4, 4)
    for i in range(3):
        np.testing.assert_array_equal(m[i], build_ignore_mask(u[i], 30.0))


def test_corrupt_zero_spec_is_identity():
    spec = SceneSpec(seed=5)
    _, gt = generate_scene(spec, 0)
    cspec = CorruptionSpec(erode_px=0, dilate_px=0, blob_smooth_iters=0,
                           drop_thin_prob=0.0, flip_prob=0.0)
    seed = corrupt_to_seed(gt, cspec, np.random.default_rng(0))
    np.testing.assert_array_equal(seed.yhat[0], gt)


def test_corrupt_never_modifies_gt():
    spec = SceneSpec(seed=5)
    _, gt = generate_scene(spec, 1)
    before = gt.copy()
    corrupt_to_seed(gt, CorruptionSpec(), np.random.default_rng(0))
    np.testing.assert_array_equal(gt, before)


def test_corrupt_erode_disk_area_ratio():
    # erode 2 on a disk of radius 10: remaining area ~ (8/10)^2 of original
    yy, xx = np.mgrid[0:64, 0:64]
    gt = ((yy - 32) ** 2 + (xx - 32) ** 2 <= 100).astype(np.uint8)
    cspec = CorruptionSpec(erode_px=2, dilate_px=0, blob_smooth_iters=0,
                           drop_thin_prob=0.0, flip_prob=0.0)
    # erosion branch is chosen when rng.random() < 0.5; find such a stream
    for s in range(20):
        rng = np.random.default_rng(s)
        seed = corrupt_to_seed(gt, cspec, rng)
        ratio = (seed.yhat[0] == 1).sum() / (gt == 1).sum()
        if ratio < 1.0:
            break
    assert abs(ratio - 0.64) < 0.1


def test_corrupt_drop_thin_prob_one_removes_bars():
    gt = np.zeros((64, 64), dtype=np.uint8)
    gt[10:12, 5:40] = 3  # 2px-wide bar
    gt[30:50, 30:50] = 2  # chunky rectangle survives
    cspec = CorruptionSpec(erode_px=0, dilate_px=0, blob_smooth_iters=0,
                           drop_thin_prob=1.0, flip_prob=0.0)
    seed = corrupt_to_seed(gt, cspec, np.random.default_rng(0))
    assert not (seed.yhat[0] == 3).any()
    assert (seed.yhat[0] == 2).any()


def test_corrupt_valid_respects_q_budget():
    spec = SceneSpec(seed=6)
    _, gt = generate_scene(spec, 0)
    seed = corrupt_to_seed(gt, CorruptionSpec(), np.random.default_rng(1),
                           q_percent=30.0)
    masked = (seed.valid[0] == 0).sum()
    assert masked >= int(np.ceil(0.3 * 64 * 64))  # q mask plus any IGNORE labels


def test_corrupt_uncertainty_peaks_near_boundaries():
    spec = SceneSpec(seed=8)
    _, gt = generate_scene(spec, 0)
    seed = corrupt_to_seed(gt, CorruptionSpec(), np.random.default_rng(2))
    u = seed.seed_uncertainty[0]
    from crispdec.geometry import boundary_seeds
    b = boundary_seeds(seed.yhat[0])
    if b.any() and (~b).any():
        assert u[b].mean() > u[~b].mean()


def test_encoder_pyramid_shapes():
    rng = np.random.default_rng(0)
    params = init_encoder_params(rng)
    img = Tensor(rng.standard_normal((2, 3, 64, 64)))
    pyr = toy_encoder_forward(img, params)
    assert pyr.c1.shape == (2, 8, 16, 16)
    assert pyr.c2.shape == (2, 16, 8, 8)
    assert pyr.c3.shape == (2, 24, 4, 4)
    assert pyr.c4.shape == (2, 32, 2, 2)


def test_encoder_zero_weights_zero_pyramid():
    rng = np.random.default_rng(0)
    params = init_encoder_params(rng)
    for t in params.values():
        t.data[...] = 0.0
    pyr = toy_encoder_forward(Tensor(rng.standard_normal((1, 3, 64, 64))), params)
    for m in pyr.maps():
        np.testing.assert_array_equal(m.data, 0.0)


def test_encoder_rejects_bad_size():
    rng = np.random.default_rng(0)
    params = init_encoder_params(rng)
    with pytest.raises(ValueError):
        toy_encoder_forward(Tensor(rng.standard_normal((1, 3, 60, 64))), params)


def test_encoder_channel_constants():
    assert ENCODER_CHANNELS == (8, 16, 24, 32)


def test_dataset_roundtrip(tmp_path):
    data = make_dataset(3, SceneSpec(seed=4), CorruptionSpec())
    h1 = export_dataset(tmp_path / "d", data)
    back = load_dataset(tmp_path / "d")
    assert len(back) == 3
    for a, b in zip(data, back):
        np.testing.assert_allclose(a.image, b.image, atol=1e-7)  # f32 storage
        np.testing.assert_array_equal(a.gt, b.gt)
        np.testing.assert_array_equal(a.seed.yhat, b.seed.yhat)


def test_dataset_hash_deterministic(tmp_path):
    d1 = make_dataset(2, SceneSpec(seed=4), CorruptionSpec())
    d2 = make_dataset(2, SceneSpec(seed=4), CorruptionSpec())
    h1 = export_dataset(tmp_path / "a", d1)
    h2 = export_dataset(tmp_path / "b", d2)
    assert h1 == h2


def test_dataset_hash_sensitive_to_seed(tmp_path):
    h1 = export_dataset(tmp_path / "a", make_dataset(2, SceneSpec(seed=4),
                                                     CorruptionSpec()))
    h2 = export_dataset(tmp_path / "b", make_dataset(2, SceneSpec(seed=5),
                                                     CorruptionSpec()))
    assert h1 != h2


def test_empty_dataset_manifest(tmp_path):
    export_dataset(tmp_path / "e", [])
    assert load_dataset(tmp_path / "e") == []
