"""Procedural benchmark: rendered geometric scenes with ground truth, a
corruptor that degrades ground truth into CAM-like seeds (under-coverage,
leakage, blobbiness, dropped thin structures, label noise), and a tiny
stride-2 conv encoder producing the four-level feature pyramid.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .decoder import ENCODER_CHANNELS, FeaturePyramid
from .fileio import IGNORE, FormatError, write_ctsr, write_pgm
from .geometry import boundary_seeds, distance_to_set
from .losses import PseudoLabelSet
from .tensor import Tensor, conv2d

# distinct render colors per class (background first)
_PALETTE = np.array([
    [0.15, 0.15, 0.18],
    [0.85, 0.30, 0.25],
    [0.25, 0.70, 0.35],
    [0.30, 0.40, 0.85],
])


@dataclass
class SceneSpec:
    height: int = 64
    width: int = 64
    num_classes: int = 4           # background + foreground classes
    min_shapes: int = 2
    max_shapes: int = 4
    seed: int = 0
    noise_amplitude: float = 0.08

    def __post_init__(self):
        if min(self.height, self.width) < 32 or self.height % 32 or self.width % 32:
            raise ValueError("canvas height and width must be positive multiples of 32, "
                             f"got {self.height}x{self.width}")
        top = max(_SHAPE_CLASS.values()) + 1  # background + the classes shapes draw
        if not 2 <= self.num_classes <= top:
            raise ValueError(f"num_classes must lie in [2, {top}]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class CorruptionSpec:
    erode_px: int = 2
    dilate_px: int = 2
    blob_smooth_iters: int = 2
    drop_thin_prob: float = 0.5
    flip_prob: float = 0.02

    def __post_init__(self):
        if not (0 <= self.drop_thin_prob <= 1 and 0 <= self.flip_prob <= 1):
            raise ValueError("probabilities must lie in [0,1]")
        if self.erode_px < 0 or self.dilate_px < 0 or self.blob_smooth_iters < 0:
            raise ValueError("pixel counts must be >= 0")


# shape type -> foreground class (ring and bar share the thin-structure class)
_SHAPE_CLASS = {"disk": 1, "rect": 2, "ring": 3, "bar": 3}


def _draw_shape(gt: np.ndarray, kind: str, rng: np.random.Generator) -> np.ndarray | None:
    """Rasterize one shape fully inside the canvas; returns its mask."""
    h, w = gt.shape
    yy, xx = np.mgrid[0:h, 0:w]
    if kind == "disk":
        r = int(rng.integers(6, min(h, w) // 4 + 1))
        cy = int(rng.integers(r, h - r))
        cx = int(rng.integers(r, w - r))
        return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    if kind == "rect":
        rh = int(rng.integers(6, h // 3 + 1))
        rw = int(rng.integers(6, w // 3 + 1))
        top = int(rng.integers(0, h - rh))
        left = int(rng.integers(0, w - rw))
        m = np.zeros((h, w), dtype=bool)
        m[top:top + rh, left:left + rw] = True
        return m
    if kind == "ring":
        r = int(rng.integers(7, min(h, w) // 4 + 1))
        thick = int(rng.integers(2, 5))
        cy = int(rng.integers(r, h - r))
        cx = int(rng.integers(r, w - r))
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        return (d2 <= r * r) & (d2 >= (r - thick) ** 2)
    if kind == "bar":
        width = int(rng.integers(1, 4))  # 1..3 px
        length = int(rng.integers(h // 4, (3 * h) // 4))
        horizontal = bool(rng.integers(0, 2))
        m = np.zeros((h, w), dtype=bool)
        if horizontal:
            top = int(rng.integers(0, h - width))
            left = int(rng.integers(0, w - length))
            m[top:top + width, left:left + length] = True
        else:
            top = int(rng.integers(0, h - length))
            left = int(rng.integers(0, w - width))
            m[top:top + length, left:left + width] = True
        return m
    raise ValueError(kind)


def generate_scene(spec: SceneSpec, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per (seed, index): a rendered 3,H,W image and its
    ground-truth label map."""
    rng = np.random.default_rng([spec.seed, index])
    h, w = spec.height, spec.width
    gt = np.zeros((h, w), dtype=np.uint8)
    kinds = [k for k, c in _SHAPE_CLASS.items() if c < spec.num_classes]
    n_shapes = int(rng.integers(spec.min_shapes, spec.max_shapes + 1))
    for _ in range(n_shapes):
        placed = False
        for _attempt in range(20):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            mask = _draw_shape(gt, kind, rng)
            overlap = (mask & (gt > 0)).sum()
            if mask.sum() == 0 or overlap > 0.3 * mask.sum():
                continue
            gt[mask] = _SHAPE_CLASS[kind]
            placed = True
            break
        if not placed:
            break  # fewer shapes than requested; scene stays valid

    image = _PALETTE[gt].transpose(2, 0, 1).copy()
    image += spec.noise_amplitude * rng.standard_normal(image.shape)
    # per-class texture stripes so classes stay visually distinct under noise
    yy, xx = np.mgrid[0:h, 0:w]
    for c in range(1, spec.num_classes):
        sel = gt == c
        image[:, sel] += 0.05 * np.sin((xx + yy * c)[sel] / (1.5 + c))[None, :]
    return image.astype(np.float32), gt


def keep_lowest(order: np.ndarray, n_keep: int) -> np.ndarray:
    """The n_keep lowest entries of each row of order [N,M], as a bool mask
    shaped like it; ties go to the earlier index, and 0 keeps nothing."""
    keep = np.zeros(order.shape, dtype=bool)
    if n_keep:
        # every value below the n_keep-th smallest, then its ties by index
        cut = np.partition(order, n_keep - 1, axis=1)[:, n_keep - 1, None]
        below, ties = order < cut, order == cut
        need = n_keep - np.count_nonzero(below, axis=1)[:, None]
        keep = below | (ties & (np.cumsum(ties, axis=1) <= need))
    return keep


def build_ignore_mask(seed_uncertainty: np.ndarray, q_percent: float) -> np.ndarray:
    """Mask the ceil(q% * HW) most uncertain pixels per image (M=0 there);
    ties resolve to the later row-major index, deterministically."""
    if not (0 <= q_percent < 100):
        raise ValueError("q must lie in [0, 100)")
    u = np.asarray(seed_uncertainty, dtype=np.float64)
    h, w = u.shape[-2:]
    k = int(np.ceil(q_percent / 100.0 * h * w))
    return keep_lowest(u.reshape(-1, h * w), h * w - k).astype(np.uint8).reshape(u.shape)


def corrupt_to_seed(gt: np.ndarray, cspec: CorruptionSpec,
                    rng: np.random.Generator) -> PseudoLabelSet:
    """Degrade a ground-truth map into a plausible weak seed, valid wherever
    it carries a label. gt itself is never modified."""
    gt = np.asarray(gt)
    seed = gt.copy()
    h, w = gt.shape

    for c in np.unique(gt):
        if c == 0:
            continue
        labeled, n_comp = ndimage.label(gt == c)
        for j in range(1, n_comp + 1):
            comp = labeled == j
            # thin structures vanish from seeds with some probability
            if cspec.drop_thin_prob > 0:
                thin = not ndimage.binary_erosion(comp, iterations=2).any()
                if thin and rng.random() < cspec.drop_thin_prob:
                    seed[comp & (seed == c)] = 0
                    continue
            if rng.random() < 0.5 and cspec.erode_px > 0:
                shrunk = ndimage.binary_erosion(comp, iterations=cspec.erode_px)
                seed[comp & ~shrunk & (seed == c)] = 0
            elif cspec.dilate_px > 0:
                grown = ndimage.binary_dilation(comp, iterations=cspec.dilate_px)
                seed[grown] = c

    if cspec.blob_smooth_iters > 0:
        for c in np.unique(seed):
            if c == 0:
                continue
            m = seed == c
            m2 = ndimage.binary_closing(m, iterations=cspec.blob_smooth_iters)
            m2 = ndimage.binary_opening(m2, iterations=cspec.blob_smooth_iters)
            seed[m & ~m2] = 0
            seed[m2 & ~m] = c

    if cspec.flip_prob > 0:
        flips = rng.random((h, w)) < cspec.flip_prob
        noise_labels = rng.integers(0, int(gt.max()) + 1, size=(h, w))
        seed = np.where(flips, noise_labels, seed).astype(gt.dtype)

    # uncertainty rises toward seed boundaries, where corruption concentrates
    seeds_b = boundary_seeds(seed)
    if seeds_b.any():
        dist = distance_to_set(seeds_b)
    else:
        dist = np.full((h, w), max(h, w), dtype=np.float64)
    u = 1.0 / (1.0 + dist) + 0.15 * rng.random((h, w))
    u = (u - u.min()) / max(u.max() - u.min(), 1e-12)

    return PseudoLabelSet(yhat=seed[None].astype(np.int64), valid=seed[None] != IGNORE,
                          seed_uncertainty=u[None])


# -- toy encoder ---------------------------------------------------------------------

def init_encoder_params(rng: np.random.Generator, dtype=np.float64) -> dict:
    """Five stride-2 3x3 convs: two to reach stride 4 (C1), then one per
    remaining level."""
    chans = [3, ENCODER_CHANNELS[0], *ENCODER_CHANNELS]
    params = {}
    for i, (cin, cout) in enumerate(zip(chans[:-1], chans[1:])):
        fan = cin * 9
        params[f"conv{i}.w"] = Tensor(
            rng.normal(0.0, np.sqrt(2.0 / fan), size=(cout, cin, 3, 3)).astype(dtype),
            requires_grad=True)
        params[f"conv{i}.b"] = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)
    return params


def toy_encoder_forward(image: Tensor, params: dict) -> FeaturePyramid:
    if image.data.ndim != 4:
        raise ValueError("encoder expects N,3,H,W input")
    _, _, h, w = image.shape
    if h % 32 or w % 32:
        raise ValueError("input size must be divisible by 32")
    x = image
    taps = []
    for i in range(5):
        x = conv2d(x, params[f"conv{i}.w"], params[f"conv{i}.b"], padding=1,
                   stride=2).relu()
        if i >= 1:
            taps.append(x)
    return FeaturePyramid(*taps)


# -- dataset assembly ----------------------------------------------------------------


@dataclass
class Sample:
    image: np.ndarray             # float32 [3,H,W]
    gt: np.ndarray                # uint8 [H,W]
    seed: PseudoLabelSet          # single-image (leading dim 1)


def make_dataset(n: int, spec: SceneSpec, cspec: CorruptionSpec) -> list:
    rng = np.random.default_rng([spec.seed, 0xC0FFEE])
    out = []
    for i in range(n):
        image, gt = generate_scene(spec, i)
        out.append(Sample(image=image, gt=gt, seed=corrupt_to_seed(gt, cspec, rng)))
    return out


def export_dataset(directory, samples: list) -> str:
    """Write images (CTSR), gt and seed labels (PGM), seed uncertainty
    (CTSR), and a manifest; returns the dataset content hash."""
    os.makedirs(directory, exist_ok=True)
    digest = hashlib.sha256()
    lines = []
    for i, s in enumerate(samples):
        stem = f"{i:05d}"
        paths = {
            "image": f"{stem}_image.ctsr",
            "gt": f"{stem}_gt.pgm",
            "seed": f"{stem}_seed.pgm",
            "unc": f"{stem}_unc.ctsr",
        }
        write_ctsr(os.path.join(directory, paths["image"]), s.image)
        write_pgm(os.path.join(directory, paths["gt"]), s.gt)
        write_pgm(os.path.join(directory, paths["seed"]), s.seed.yhat[0])
        write_ctsr(os.path.join(directory, paths["unc"]), s.seed.seed_uncertainty[0])
        for key in ("image", "gt", "seed", "unc"):
            with open(os.path.join(directory, paths[key]), "rb") as fh:
                digest.update(fh.read())
        lines.append("\t".join([stem, paths["image"], paths["gt"],
                                paths["seed"], paths["unc"]]))
    ds_hash = digest.hexdigest()
    with open(os.path.join(directory, "manifest.txt"), "w") as fh:
        fh.write(f"# count={len(samples)} hash={ds_hash}\n")
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return ds_hash


def load_dataset(directory) -> list:
    from .fileio import read_ctsr, read_pgm

    manifest = os.path.join(directory, "manifest.txt")
    samples = []
    with open(manifest) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise FormatError(f"{manifest}:{lineno}: expected 5 tab-separated "
                                  f"fields, got {len(fields)}")
            _stem, img_f, gt_f, seed_f, unc_f = fields
            image = read_ctsr(os.path.join(directory, img_f))
            gt = read_pgm(os.path.join(directory, gt_f))
            seed_lab = read_pgm(os.path.join(directory, seed_f)).astype(np.int64)
            unc = read_ctsr(os.path.join(directory, unc_f)).astype(np.float64)
            if not np.isfinite(unc).all():  # the seed filter ranks it
                raise FormatError(f"{os.path.join(directory, unc_f)}: non-finite uncertainty")
            valid = (seed_lab != IGNORE).astype(np.uint8)
            samples.append(Sample(
                image=image, gt=gt,
                seed=PseudoLabelSet(yhat=seed_lab[None], valid=valid[None],
                                    seed_uncertainty=unc[None])))
    return samples
