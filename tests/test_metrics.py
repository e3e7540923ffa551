import numpy as np
import pytest
from scipy import ndimage

from crispdec.fileio import IGNORE, write_ctsr, write_pgm
from crispdec.metrics import (
    boundary_f1,
    compactness,
    confusion_matrix,
    ece,
    edge_regularity,
    evaluate,
    mean_scores,
    miou,
    score,
    structural_scores,
    tv_smoothness,
    write_csv,
)
from crispdec.metrics import _trace_boundary


# -- mIoU ------------------------------------------------------------------------


def brute_force_iou(pred, gt, k):
    out = []
    for c in range(k):
        p, g = pred == c, gt == c
        keep = gt != IGNORE
        inter = (p & g & keep).sum()
        union = ((p | g) & keep).sum()
        out.append(np.nan if union == 0 else inter / union)
    return np.array(out)


def test_miou_perfect_prediction():
    gt = np.random.default_rng(0).integers(0, 4, size=(16, 16))
    _, m = miou(gt, gt, 4)
    assert m == 1.0


def test_miou_matches_brute_force_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        gt = rng.integers(0, 4, size=(12, 12))
        pred = rng.integers(0, 4, size=(12, 12))
        gt[rng.random((12, 12)) < 0.1] = IGNORE
        vec, mean = miou(pred, gt, 4)
        want = brute_force_iou(pred, gt, 4)
        np.testing.assert_allclose(vec, want, atol=1e-12, equal_nan=True)
        np.testing.assert_allclose(mean, np.nanmean(want), atol=1e-12)


def test_miou_absent_class_excluded():
    gt = np.zeros((4, 4), dtype=int)
    pred = np.zeros((4, 4), dtype=int)
    vec, mean = miou(pred, gt, 3)
    assert np.isnan(vec[1]) and np.isnan(vec[2])
    assert mean == 1.0  # only class 0 counts


def test_miou_half_overlap_known_value():
    gt = np.zeros((4, 4), dtype=int)
    gt[:, :2] = 1
    pred = np.zeros((4, 4), dtype=int)
    pred[:, 1:3] = 1
    vec, _ = miou(pred, gt, 2)
    np.testing.assert_allclose(vec[1], 4.0 / 12.0)  # inter 4, union 12


def test_confusion_matrix_counts():
    gt = np.array([[0, 0, 1], [1, IGNORE, 2]])
    pred = np.array([[0, 1, 1], [1, 0, 0]])
    cm = confusion_matrix(pred, gt, 3)
    want = np.array([[1, 1, 0], [0, 2, 0], [1, 0, 0]])
    np.testing.assert_array_equal(cm, want)


def test_confusion_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        confusion_matrix(np.array([[5]]), np.array([[0]]), 3)


# -- Boundary-F1 -------------------------------------------------------------------


def vertical_split(col, h=16, w=16):
    lab = np.zeros((h, w), dtype=int)
    lab[:, col:] = 1
    return lab


def test_bf1_identical_maps_is_one():
    assert boundary_f1(vertical_split(8), vertical_split(8)) == 1.0


def test_bf1_one_px_shift_within_band():
    # band 2 tolerates a 1-px edge shift completely
    assert boundary_f1(vertical_split(8), vertical_split(9), band_px=2) == 1.0


def test_bf1_three_px_shift_outside_band():
    assert boundary_f1(vertical_split(5), vertical_split(8), band_px=2) == 0.0


def test_bf1_both_boundaryless_is_one():
    a = np.zeros((8, 8), dtype=int)
    assert boundary_f1(a, a) == 1.0


def test_bf1_one_boundaryless_is_zero():
    a = np.zeros((8, 8), dtype=int)
    assert boundary_f1(vertical_split(4, 8, 8), a) == 0.0


def test_bf1_matches_brute_force():
    rng = np.random.default_rng(2)
    from crispdec.geometry import boundary_seeds

    def brute(pred, gt, band):
        pb, gb = boundary_seeds(pred), boundary_seeds(gt)
        if not pb.any() and not gb.any():
            return 1.0
        if not pb.any() or not gb.any():
            return 0.0

        def hits(src, dst):
            n = 0
            pts = np.argwhere(dst)
            for (i, j) in np.argwhere(src):
                cheb = np.abs(pts - (i, j)).max(axis=1).min()
                n += cheb < band
            return n

        p = hits(pb, gb) / pb.sum()
        r = hits(gb, pb) / gb.sum()
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)

    for _ in range(5):
        gt = rng.integers(0, 3, size=(10, 10))
        pred = rng.integers(0, 3, size=(10, 10))
        np.testing.assert_allclose(boundary_f1(pred, gt, 2), brute(pred, gt, 2),
                                   atol=1e-12)


# -- ECE ---------------------------------------------------------------------------


def test_ece_perfectly_calibrated_bins():
    # in each bin, accuracy equals mean confidence exactly
    conf = np.array([0.25] * 4 + [0.75] * 4)
    corr = np.array([1, 0, 0, 0, 1, 1, 1, 0])
    np.testing.assert_allclose(ece(conf, corr, bins=10), 0.0, atol=1e-12)


def test_ece_maximally_miscalibrated():
    conf = np.full(10, 0.999)
    corr = np.zeros(10)
    np.testing.assert_allclose(ece(conf, corr, bins=10), 0.999, atol=1e-12)


def test_ece_matches_hand_computation():
    conf = np.array([0.1, 0.15, 0.85, 0.95])
    corr = np.array([0.0, 1.0, 1.0, 0.0])
    # bins [0.1,0.2): conf mean 0.125 acc 0.5 gap 0.375 weight 0.5
    # bin  [0.8,0.9): gap |1-0.85|=0.15 weight 0.25
    # bin  [0.9,1.0]: gap |0-0.95|=0.95 weight 0.25
    want = 0.5 * 0.375 + 0.25 * 0.15 + 0.25 * 0.95
    np.testing.assert_allclose(ece(conf, corr, bins=10), want, atol=1e-12)


def test_ece_confidence_one_lands_in_top_bin():
    np.testing.assert_allclose(ece(np.array([1.0]), np.array([1.0])), 0.0, atol=1e-12)


def test_ece_rejects_out_of_range():
    with pytest.raises(ValueError):
        ece(np.array([1.5]), np.array([1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ece_rejects_non_finite_confidences(bad):
    with pytest.raises(ValueError, match="finite"):
        ece(np.array([0.5, bad, 0.25]), np.array([1.0, 0.0, 1.0]))


@pytest.mark.parametrize("band_px", [0, -5])
def test_boundary_f1_rejects_a_band_below_one(band_px):
    with pytest.raises(ValueError, match="band_px"):
        boundary_f1(vertical_split(8), vertical_split(9), band_px=band_px)


def _ece_masked(confidences, correct, bins):
    """ECE as a boolean-mask gather per bin: the oracle of `ece`."""
    conf = np.asarray(confidences, dtype=np.float64).ravel()
    corr = np.asarray(correct, dtype=np.float64).ravel()
    idx = np.minimum((conf * bins).astype(int), bins - 1)
    score = 0.0
    for b in range(bins):
        sel = idx == b
        n_b = int(sel.sum())
        if n_b:
            score += (n_b / conf.size) * abs(corr[sel].mean() - conf[sel].mean())
    return float(score)


def test_ece_equals_the_boolean_mask_form():
    """Byte for byte, with confidences tied at the bin edges (k / bins,
    float32 and float64), bins of thousands of elements, empty bins and
    one bin."""
    rng = np.random.default_rng(12)
    for case in range(300):
        n = int(rng.integers(1, 5000))
        bins = int(rng.choice([1, 3, 10, 15]))
        conf = rng.random(n)
        if case % 3 == 0:
            conf = rng.integers(0, bins + 1, n) / bins
        elif case % 3 == 1:
            conf = np.where(rng.random(n) < 0.5, rng.integers(0, bins + 1, n) / bins,
                            0.5 + 0.5 * conf)
        if case % 4 == 0:
            conf = conf.astype(np.float32)
        corr = rng.random(n) < conf
        got, want = ece(conf, corr, bins), _ece_masked(conf, corr, bins)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# -- structural scores ---------------------------------------------------------------


def test_tv_constant_mask_is_one():
    assert tv_smoothness(np.zeros((8, 8), dtype=bool)) == 1.0


def test_tv_checkerboard_is_minimal():
    m = np.indices((8, 8)).sum(axis=0) % 2 == 0
    # every interior edge is a transition: 2*8*7 transitions over 2*64
    np.testing.assert_allclose(tv_smoothness(m), 1.0 - (2 * 8 * 7) / (2 * 64))


def test_tv_single_split_value():
    m = np.zeros((4, 4), dtype=bool)
    m[:, 2:] = True
    np.testing.assert_allclose(tv_smoothness(m), 1.0 - 4 / 32)


def test_compactness_square_is_quarter_pi():
    m = np.zeros((12, 12), dtype=bool)
    m[3:7, 3:7] = True  # 4x4 square: area 16, perimeter 16 edges
    np.testing.assert_allclose(compactness(m), np.pi / 4.0, atol=1e-6)


def test_compactness_full_canvas_square():
    # border sides count toward the perimeter
    m = np.ones((5, 5), dtype=bool)
    np.testing.assert_allclose(compactness(m), 4 * np.pi * 25 / 400, atol=1e-6)


def test_compactness_line_is_small():
    m = np.zeros((10, 10), dtype=bool)
    m[5, 1:9] = True  # 1x8 line: area 8, perimeter 18
    np.testing.assert_allclose(compactness(m), 4 * np.pi * 8 / 18 ** 2, atol=1e-6)


def test_compactness_empty_mask_zero():
    assert compactness(np.zeros((4, 4), dtype=bool)) == 0.0


def test_edge_regularity_straight_edge_low():
    m = np.zeros((10, 10), dtype=bool)
    m[2:8, 2:8] = True  # square: only 4 corner pixels turn sharply
    r = edge_regularity(m)
    assert 0.0 < r < 0.3


def test_edge_regularity_jagged_higher_than_straight():
    smooth = np.zeros((12, 12), dtype=bool)
    smooth[2:10, 2:10] = True
    jagged = smooth.copy()
    jagged[2, 3] = jagged[2, 5] = jagged[2, 7] = False  # notch the top edge
    jagged[1, 4] = jagged[1, 6] = True                  # and add bumps
    assert edge_regularity(jagged) > edge_regularity(smooth)


def test_edge_regularity_empty_mask_zero():
    assert edge_regularity(np.zeros((5, 5), dtype=bool)) == 0.0


def _edge_regularity_per_pixel(mask, curvature_threshold=np.pi / 4):
    """Edge regularity with each chain pixel's turn from a pair of
    np.arctan2 calls on its incoming and outgoing steps: the oracle of the
    turn table in `edge_regularity`."""
    m = np.asarray(mask).astype(bool)
    if not m.any():
        return 0.0
    labeled, n_comp = ndimage.label(m, structure=np.ones((3, 3), dtype=bool))
    flagged, boundary_pixels = set(), set()
    for c in range(1, n_comp + 1):
        comp = labeled == c
        rows, cols = np.nonzero(comp)
        chain, _ = _trace_boundary(comp, (int(rows[0]), int(cols[0])))
        boundary_pixels.update(chain)
        if len(chain) < 3:
            continue
        pts = chain[:-1] if chain[0] == chain[-1] else chain
        n = len(pts)
        for i in range(n):
            prev_p, p, next_p = pts[i - 1], pts[i], pts[(i + 1) % n]
            a_in = np.arctan2(p[0] - prev_p[0], p[1] - prev_p[1])
            a_out = np.arctan2(next_p[0] - p[0], next_p[1] - p[1])
            turn = abs((a_out - a_in + np.pi) % (2 * np.pi) - np.pi)
            if turn > curvature_threshold + 1e-9:
                flagged.add(p)
    return float(len(flagged) / len(boundary_pixels))


def test_edge_regularity_equals_the_per_pixel_arctan2_form():
    """Exactly, on random masks of every density, opened masks with long
    smooth runs, single pixels and two-pixel components, at three
    thresholds, one of them between the table's turn angles."""
    rng = np.random.default_rng(13)
    for case in range(300):
        h, w = (int(v) for v in rng.integers(1, 30, 2))
        m = rng.random((h, w)) < rng.random()
        if case % 2:
            m = ndimage.binary_opening(m) | (rng.random((h, w)) < 0.03)
        for threshold in (np.pi / 4, np.pi / 2, 0.3):
            assert edge_regularity(m, threshold) == _edge_regularity_per_pixel(m, threshold)


def test_structural_scores_background_only():
    assert structural_scores(np.zeros((6, 6), dtype=int), 4) == (1.0, 0.0, 0.0)


def test_structural_scores_area_weighting():
    pred = np.zeros((16, 16), dtype=int)
    pred[2:10, 2:10] = 1   # area 64
    pred[12:14, 12:14] = 2  # area 4
    tv, comp, edge = structural_scores(pred, 3)
    tv1 = tv_smoothness(pred == 1)
    tv2 = tv_smoothness(pred == 2)
    np.testing.assert_allclose(tv, (64 * tv1 + 4 * tv2) / 68, atol=1e-12)


# -- one image's scores, their means and the CSV ------------------------------


def test_score_matches_the_single_metrics():
    rng = np.random.default_rng(5)
    gt = rng.integers(0, 3, size=(16, 16))
    gt[:3] = IGNORE
    pred = rng.integers(0, 3, size=(16, 16))
    conf = rng.random((16, 16))
    got = score(pred, gt, 3, conf, band_px=3, bins=5)
    keep = gt != IGNORE
    assert got == {
        "miou": miou(pred, gt, 3)[1],
        "boundary_f1": boundary_f1(pred, gt, 3),
        "ece": ece(conf[keep], (pred == gt)[keep], 5),
        **dict(zip(("tv_smooth", "compactness", "edge_regularity"),
                   structural_scores(pred, 3))),
    }
    assert score(pred, gt, 3)["ece"] is None


def test_mean_scores_skips_missing_ece():
    a = dict.fromkeys(("miou", "boundary_f1", "tv_smooth", "compactness",
                       "edge_regularity"), 1.0)
    b = dict.fromkeys(a, 0.0)
    agg = mean_scores([{**a, "ece": 0.25}, {**b, "ece": None}])
    assert agg["miou"] == 0.5 and agg["ece"] == 0.25
    assert mean_scores([{**a, "ece": None}])["ece"] is None


# -- directory evaluation -------------------------------------------------------------


def _write_pair(tmp_path, name, pred, gt, conf=None):
    (tmp_path / "pred").mkdir(exist_ok=True)
    (tmp_path / "gt").mkdir(exist_ok=True)
    write_pgm(tmp_path / "pred" / name, pred)
    write_pgm(tmp_path / "gt" / name, gt)
    if conf is not None:
        (tmp_path / "conf").mkdir(exist_ok=True)
        write_ctsr(tmp_path / "conf" / (name[:-4] + ".ctsr"), conf)


def test_evaluate_perfect_pair(tmp_path):
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    _write_pair(tmp_path, "a.pgm", gt, gt)
    rows, errors = evaluate(tmp_path / "pred", tmp_path / "gt", 2)
    assert errors == []
    assert len(rows) == 1 and rows[0][0] == "a.pgm"
    agg = mean_scores([s for _, s in rows])
    assert agg["miou"] == 1.0 and agg["boundary_f1"] == 1.0
    assert agg["ece"] is None


def test_evaluate_with_confidence_maps(tmp_path):
    gt = np.zeros((4, 4), dtype=np.uint8)
    conf = np.full((4, 4), 1.0, dtype=np.float32)
    _write_pair(tmp_path, "a.pgm", gt, gt, conf)
    rows, errors = evaluate(tmp_path / "pred", tmp_path / "gt", 2,
                            conf_dir=tmp_path / "conf")
    assert errors == []
    assert mean_scores([s for _, s in rows])["ece"] == 0.0


def test_evaluate_shape_mismatch_becomes_error_row(tmp_path):
    _write_pair(tmp_path, "a.pgm", np.zeros((4, 4), dtype=np.uint8),
                np.zeros((4, 4), dtype=np.uint8))
    write_pgm(tmp_path / "pred" / "b.pgm", np.zeros((2, 2), dtype=np.uint8))
    write_pgm(tmp_path / "gt" / "b.pgm", np.zeros((4, 4), dtype=np.uint8))
    rows, errors = evaluate(tmp_path / "pred", tmp_path / "gt", 2)
    assert len(rows) == 1 and len(errors) == 1
    assert errors[0][0] == "b.pgm"


def test_evaluate_missing_pred_file_error_row(tmp_path):
    (tmp_path / "pred").mkdir()
    (tmp_path / "gt").mkdir()
    write_pgm(tmp_path / "gt" / "a.pgm", np.zeros((4, 4), dtype=np.uint8))
    rows, errors = evaluate(tmp_path / "pred", tmp_path / "gt", 2)
    assert rows == [] and len(errors) == 1


def test_write_csv_layout(tmp_path):
    gt = np.zeros((4, 4), dtype=np.uint8)
    _write_pair(tmp_path, "a.pgm", gt, gt)
    rows, _ = evaluate(tmp_path / "pred", tmp_path / "gt", 2)
    out = tmp_path / "r.csv"
    agg = write_csv(out, rows)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "image,miou,boundary_f1,ece,tv_smooth,compactness,edge_regularity"
    assert lines[1] == "a.pgm,1.000000,1.000000,,1.000000,0.000000,0.000000"
    assert lines[-1] == "aggregate,1.000000,1.000000,,1.000000,0.000000,0.000000"
    assert agg == mean_scores([s for _, s in rows])


def test_write_csv_without_rows_has_no_aggregate(tmp_path):
    out = tmp_path / "r.csv"
    assert write_csv(out, []) is None
    assert out.read_text().splitlines() == [
        "image,miou,boundary_f1,ece,tv_smooth,compactness,edge_regularity"]
