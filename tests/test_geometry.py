import numpy as np
import pytest
from scipy import ndimage

from crispdec.fileio import IGNORE
from crispdec.geometry import (
    PHI_SENTINEL,
    boundary_band,
    boundary_seeds,
    dilate_square,
    distance_to_set,
    signed_distance,
)


def brute_force_distance(mask):
    """O(n^2) exact Euclidean distance oracle."""
    pts = np.argwhere(mask)
    h, w = mask.shape
    out = np.empty((h, w))
    for i in range(h):
        for j in range(w):
            out[i, j] = np.sqrt(((pts - (i, j)) ** 2).sum(axis=1)).min()
    return out


def test_distance_matches_brute_force_random():
    rng = np.random.default_rng(0)
    for _ in range(5):
        mask = rng.random((9, 11)) < 0.15
        if not mask.any():
            mask[4, 5] = True
        np.testing.assert_allclose(distance_to_set(mask),
                                   brute_force_distance(mask), atol=1e-9)


def test_distance_matches_scipy_edt():
    rng = np.random.default_rng(1)
    mask = rng.random((32, 32)) < 0.05
    mask[10, 10] = True
    # scipy's edt measures distance to the zero set
    want = ndimage.distance_transform_edt(~mask)
    np.testing.assert_allclose(distance_to_set(mask), want, atol=1e-9)


def test_distance_single_point_is_radial():
    mask = np.zeros((7, 7), dtype=bool)
    mask[3, 3] = True
    d = distance_to_set(mask)
    assert d[3, 3] == 0.0
    np.testing.assert_allclose(d[0, 0], np.sqrt(18.0))
    np.testing.assert_allclose(d[3, 0], 3.0)


def test_distance_empty_set_is_sentinel():
    d = distance_to_set(np.zeros((4, 4), dtype=bool))
    assert np.all(d == PHI_SENTINEL)


def test_distance_full_set_is_zero():
    np.testing.assert_array_equal(distance_to_set(np.ones((3, 3), dtype=bool)),
                                  np.zeros((3, 3)))


def test_boundary_seeds_two_region_map():
    lab = np.zeros((4, 4), dtype=int)
    lab[:, 2:] = 1
    seeds = boundary_seeds(lab)
    want = np.zeros((4, 4), dtype=bool)
    want[:, 1:3] = True  # both sides of the vertical edge
    np.testing.assert_array_equal(seeds, want)


def test_boundary_seeds_constant_map_empty():
    assert not boundary_seeds(np.full((5, 5), 2)).any()


def test_boundary_seeds_ignore_transitions_excluded():
    lab = np.zeros((3, 4), dtype=int)
    lab[:, 2:] = IGNORE
    assert not boundary_seeds(lab).any()


def test_boundary_band_width_one_equals_seeds():
    lab = np.zeros((6, 6), dtype=int)
    lab[2:4, 2:4] = 1
    np.testing.assert_array_equal(boundary_band(lab, 1).astype(bool),
                                  boundary_seeds(lab))


def test_boundary_band_chebyshev_radius():
    lab = np.zeros((9, 9), dtype=int)
    lab[:, 5:] = 1
    band = boundary_band(lab, 2)
    # seeds at cols 4,5; Chebyshev < 2 adds cols 3 and 6
    assert set(np.where(band.any(axis=0))[0]) == {3, 4, 5, 6}


def test_boundary_band_batched_matches_per_image():
    rng = np.random.default_rng(2)
    labs = rng.integers(0, 3, size=(3, 8, 8))
    batched = boundary_band(labs, 2)
    for i in range(3):
        np.testing.assert_array_equal(batched[i], boundary_band(labs[i], 2))


def test_dilate_square_is_a_chebyshev_ball_per_image():
    """[N,H,W] dilates each image alone, as the brute-force Chebyshev ball."""
    rng = np.random.default_rng(3)
    masks = rng.random((3, 9, 9)) < 0.05
    masks[1] = False  # stays empty between its neighbours
    pts = [np.argwhere(m) for m in masks]
    for r in (0, 1, 2):
        out = dilate_square(masks, r)
        for m, p, o in zip(masks, pts, out):
            np.testing.assert_array_equal(o, dilate_square(m, r))
            for (i, j), hit in np.ndenumerate(o):
                assert hit == bool(len(p) and np.abs(p - (i, j)).max(axis=1).min() <= r)


def test_signed_distance_binary_disk_signs():
    lab = np.zeros((15, 15), dtype=int)
    yy, xx = np.mgrid[:15, :15]
    lab[(yy - 7) ** 2 + (xx - 7) ** 2 <= 16] = 1
    phi = signed_distance(lab)
    assert phi[7, 7] < 0          # deep inside
    assert phi[0, 0] > 0          # outside
    assert np.abs(phi).min() == 0  # zero exactly on seeds


def test_signed_distance_multiclass_unsigned():
    lab = np.zeros((6, 6), dtype=int)
    lab[:, :2] = 1
    lab[:, 4:] = 2
    phi = signed_distance(lab)
    assert np.all(phi >= 0)


def test_signed_distance_empty_boundary_sentinel():
    phi = signed_distance(np.zeros((4, 4), dtype=int))
    assert np.all(phi == PHI_SENTINEL)


def test_signed_distance_magnitude_matches_edt():
    lab = np.zeros((12, 12), dtype=int)
    lab[3:9, 3:9] = 1
    phi = signed_distance(lab)
    np.testing.assert_allclose(np.abs(phi), distance_to_set(boundary_seeds(lab)),
                               atol=1e-9)


def test_boundary_seeds_rejects_batched_input():
    with pytest.raises(ValueError):
        boundary_seeds(np.zeros((2, 4, 4), dtype=int))
