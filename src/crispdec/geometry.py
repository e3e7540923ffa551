"""Label-map geometry: boundary seeds, thin bands, Euclidean distance maps."""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .fileio import IGNORE

# |phi| value reported when a label map has no boundary at all; consumers
# must mask it out rather than feed it into a loss.
PHI_SENTINEL = 1.0e9


def boundary_seeds(labels: np.ndarray) -> np.ndarray:
    """Pixels whose label differs from any 4-neighbor, both non-IGNORE."""
    lab = np.asarray(labels)
    if lab.ndim != 2:
        raise ValueError("boundary_seeds expects a single 2-D label map")
    valid = lab != IGNORE
    seeds = np.zeros(lab.shape, dtype=bool)
    diff_h = (lab[:, 1:] != lab[:, :-1]) & valid[:, 1:] & valid[:, :-1]
    seeds[:, 1:] |= diff_h
    seeds[:, :-1] |= diff_h
    diff_v = (lab[1:, :] != lab[:-1, :]) & valid[1:, :] & valid[:-1, :]
    seeds[1:, :] |= diff_v
    seeds[:-1, :] |= diff_v
    return seeds


def dilate_square(mask: np.ndarray, r: int) -> np.ndarray:
    """Pixels within Chebyshev distance r of a True pixel of `mask`, [H,W]
    or image by image in [N,H,W], by shifted ORs along rows, then columns."""
    out = np.array(mask, dtype=bool)
    for view in (out, out.swapaxes(-1, -2)):
        src = view.copy()
        for d in range(1, r + 1):
            view[..., d:] |= src[..., :-d]
            view[..., :-d] |= src[..., d:]
    return out


def boundary_band(labels: np.ndarray, width_px: int = 2) -> np.ndarray:
    """Class-agnostic band: pixels within Chebyshev distance < width_px of
    a boundary seed. Accepts [H,W] or [N,H,W]; returns the same rank."""
    lab = np.asarray(labels)
    if lab.ndim == 3:
        return np.stack([boundary_band(im, width_px) for im in lab])
    return dilate_square(boundary_seeds(lab), width_px - 1).astype(np.uint8)


def distance_to_set(mask: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from each pixel to the True set."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return np.full(mask.shape, PHI_SENTINEL)
    return ndimage.distance_transform_edt(~mask)


def signed_distance(labels: np.ndarray) -> np.ndarray:
    """Distance map to the class-boundary set of a single label map.

    For binary maps (labels in {0,1} plus IGNORE) the interior of the
    foreground carries negative sign; multi-class maps are returned
    unsigned, which is all the surface loss consumes. An empty boundary
    set yields PHI_SENTINEL everywhere.
    """
    lab = np.asarray(labels)
    seeds = boundary_seeds(lab)
    phi = distance_to_set(seeds)
    if phi[0, 0] == PHI_SENTINEL:
        return phi
    values = np.unique(lab[lab != IGNORE])
    if values.size <= 2 and np.all(np.isin(values, (0, 1))):
        inside = (lab == 1) & ~seeds
        phi = np.where(inside, -phi, phi)
    return phi
