import csv
import dataclasses
import math
import os

import numpy as np
import pytest

from crispdec import decoder, loop, synthdata, tensor
from crispdec import model as model_module
from crispdec.fileio import IGNORE
from crispdec.loop import (
    LOG_COLUMNS,
    RELABEL_COLUMNS,
    AdamW,
    TeacherState,
    TrainConfig,
    TrainingDiverged,
    _lr_factor,
    anneal_q,
    ema_update,
    parse_config,
    protect_classes,
    relabel,
    relabel_all,
    teacher_predict,
    train,
    unconfirmed_classes,
)
from crispdec.losses import PseudoLabelSet, total_loss
from crispdec.model import ModelConfig, SegModel
from crispdec.synthdata import CorruptionSpec, SceneSpec, make_dataset
from crispdec.tensor import Tensor


def tiny_model(seed=0, **kwargs):
    return SegModel(ModelConfig(seed=seed, **kwargs))


def tiny_data(n=4, seed=11):
    return make_dataset(n, SceneSpec(seed=seed), CorruptionSpec())


def protect(p, u, labels):
    """protect_classes with the argmax and held classes relabel_all passes."""
    hard = p.argmax(axis=1)
    return protect_classes(p, u, labels, hard, unconfirmed_classes(p, hard))


# --- config ---------------------------------------------------------------

def test_config_rejects_bad_tau_and_keep():
    with pytest.raises(ValueError):
        TrainConfig(ema_tau=1.0)
    with pytest.raises(ValueError):
        TrainConfig(keep_fraction=0.0)


@pytest.mark.parametrize("lr", [0.0, -1e-3, float("inf"), float("nan")])
def test_config_rejects_a_learning_rate_that_is_not_finite_and_positive(lr):
    # an infinite rate trained to a checkpoint of NaNs
    with pytest.raises(ValueError, match="finite lr_decoder"):
        TrainConfig(lr_decoder=lr)


def test_config_accepts_zero_encoder_scale_decay_and_clip():
    # 0 epochs of annealing or detaching, and relabel_period 0 (never)
    TrainConfig(q_anneal_epochs=0, relabel_period=0, detach_p_epochs=0)


def test_parse_config_overrides_and_types(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# comment\n\nepochs = 5\nlr_decoder=1e-3\nuse_sdf=false\n")
    cfg = parse_config(p)
    assert cfg.epochs == 5 and isinstance(cfg.epochs, int)
    assert cfg.lr_decoder == 1e-3
    assert cfg.use_sdf is False
    assert cfg.batch_size == TrainConfig().batch_size  # untouched default


def test_parse_config_base_is_kept(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("epochs=2\n")
    base = TrainConfig(batch_size=3)
    cfg = parse_config(p, base=base)
    assert cfg.epochs == 2 and cfg.batch_size == 3


def test_parse_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("learning_rate=0.1\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config(p)


def test_parse_config_rejects_malformed_line(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("epochs\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config(p)


@pytest.mark.parametrize("text", ["use_sdf=TRUE", "use_sdf=yes", "use_sdf=1"])
def test_parse_config_reads_bool_words_in_any_case(tmp_path, text):
    p = tmp_path / "c.txt"
    p.write_text(text + "\n")
    assert parse_config(p, base=TrainConfig(use_sdf=False)).use_sdf is True


@pytest.mark.parametrize("text", ["use_sdf=FALSE", "use_sdf=no", "use_sdf=0"])
def test_parse_config_reads_false_words_in_any_case(tmp_path, text):
    p = tmp_path / "c.txt"
    p.write_text(text + "\n")
    assert parse_config(p).use_sdf is False


@pytest.mark.parametrize("text", ["use_sdf=on", "use_sdf=2", "epochs=2.5",
                                  "lr_decoder=nan", "lr_decoder=inf",
                                  "epochs=2\nepochs=3"])
def test_parse_config_rejects_bad_values(tmp_path, text):
    p = tmp_path / "c.txt"
    p.write_text(text + "\n")
    with pytest.raises(ValueError, match="c.txt:"):
        parse_config(p)


# --- schedules ------------------------------------------------------------

def test_anneal_q_endpoints_and_midpoint():
    cfg = TrainConfig(q_anneal_epochs=10)
    assert anneal_q(0, cfg) == loop.Q_START
    assert anneal_q(10, cfg) == loop.Q_END
    assert anneal_q(5, cfg) == pytest.approx((loop.Q_START + loop.Q_END) / 2)
    assert anneal_q(25, cfg) == loop.Q_END  # flat after the anneal window


def test_anneal_q_rejects_negative_epoch():
    with pytest.raises(ValueError):
        anneal_q(-1, TrainConfig())


def test_lr_factor_warmup_then_cosine():
    # 10 warmup steps out of 100
    assert _lr_factor(0, 10, 100) == pytest.approx(0.1)
    assert _lr_factor(9, 10, 100) == pytest.approx(1.0)
    assert _lr_factor(10, 10, 100) == pytest.approx(1.0)
    mid = _lr_factor(55, 10, 100)
    assert mid == pytest.approx(0.5, abs=1e-12)  # halfway through the cosine
    assert _lr_factor(100, 10, 100) == pytest.approx(0.0, abs=1e-12)


# --- EMA ------------------------------------------------------------------

def test_ema_closed_form_contraction():
    t0 = {"a": np.array([1.0, -2.0])}
    teacher = TeacherState({k: v.copy() for k, v in t0.items()})
    student = {"a": np.array([3.0, 5.0])}
    tau = 0.9
    for _ in range(7):
        ema_update(teacher, student, tau)
    expect = tau ** 7 * t0["a"] + (1 - tau ** 7) * student["a"]
    np.testing.assert_allclose(teacher.params["a"], expect, atol=1e-12)
    assert teacher.updates == 7


def test_ema_accepts_tensor_students():
    teacher = TeacherState({"a": np.zeros(3)})
    ema_update(teacher, {"a": Tensor(np.ones(3))}, 0.5)
    np.testing.assert_allclose(teacher.params["a"], 0.5)


def test_ema_rejects_manifest_mismatch():
    with pytest.raises(ValueError):
        ema_update(TeacherState({"a": np.zeros(2)}), {"b": np.zeros(2)}, 0.9)


# --- relabeling -----------------------------------------------------------

def test_relabel_exact_keep_count():
    rng = np.random.default_rng(0)
    p = rng.random((4, 8, 8))
    u = rng.random((8, 8))
    for keep in (0.1, 0.33, 0.8, 0.99):
        out = relabel(p.argmax(0), u, keep)
        n_keep = int(np.ceil(keep * 64))
        assert (out != IGNORE).sum() == n_keep
        assert (out == IGNORE).sum() == 64 - n_keep


def test_relabel_keeps_lowest_uncertainty():
    p = np.zeros((2, 4, 4))
    p[1] = 1.0  # argmax is class 1 everywhere
    u = np.arange(16.0).reshape(4, 4)
    out = relabel(p.argmax(0), u, 0.5)
    np.testing.assert_array_equal((out != IGNORE).reshape(-1)[:8], 1)
    np.testing.assert_array_equal((out != IGNORE).reshape(-1)[8:], 0)
    np.testing.assert_array_equal(out.reshape(-1)[:8], 1)
    np.testing.assert_array_equal(out.reshape(-1)[8:], IGNORE)


def test_relabel_ties_prefer_earlier_index():
    p = np.zeros((2, 4, 4))
    u = np.zeros((4, 4))  # all tied
    out = relabel(p.argmax(0), u, 0.25)
    n_keep = int(np.ceil(0.25 * 16))
    np.testing.assert_array_equal((out != IGNORE).reshape(-1)[:n_keep], 1)
    np.testing.assert_array_equal((out != IGNORE).reshape(-1)[n_keep:], 0)


@pytest.mark.parametrize("decimals", [0, 1, 8])
def test_relabel_and_protect_classes_equal_their_lexsort_oracles(decimals):
    """Selection by partition and ordering by two stable sorts pick what a
    full lexsort picks, ties included (rounded u makes many)."""
    rng = np.random.default_rng(decimals)
    p = rng.random((3, 4, 8, 8)) ** 3
    p /= p.sum(axis=1, keepdims=True)
    u = np.round(rng.random((3, 8, 8)), decimals)
    labels = np.where(rng.random((3, 8, 8)) < 0.2, IGNORE, rng.integers(0, 4, (3, 8, 8)))
    new, order = protect(p, u, labels)
    cls = new.reshape(-1)
    idx = np.lexsort((u.reshape(-1), cls))
    rank = np.empty(cls.size)
    rank[idx] = np.arange(cls.size)
    counts = np.bincount(cls, minlength=4)
    expect = (rank - (np.cumsum(counts) - counts)[cls]) / counts[cls]
    flat = labels.reshape(-1)
    expect += (cls != flat) & (flat != IGNORE)
    np.testing.assert_array_equal(order.reshape(-1), expect)
    for i in range(3):
        for keep in (0.1, 0.5, 0.77):
            out = relabel(p[i].argmax(0), u[i], keep)
            flat_u = u[i].reshape(-1)
            kept = np.lexsort((np.arange(flat_u.size), flat_u))[:int(np.ceil(keep * 64))]
            valid = np.zeros(64, dtype=np.uint8)
            valid[kept] = 1
            np.testing.assert_array_equal(out.reshape(-1) != IGNORE, valid)


def _protect_classes_oracle(p, u, labels, hard, held):
    """protect_classes as two stable sorts: by u, then by class."""
    k = p.shape[1]
    cls = np.where(np.isin(labels, held), labels, hard).reshape(-1)
    idx = np.argsort(u.reshape(-1), kind="stable")
    idx = idx[np.argsort(cls[idx].astype(np.min_scalar_type(k - 1)), kind="stable")]
    counts = np.bincount(cls, minlength=k)
    pos = np.empty(cls.size)
    pos[idx] = np.arange(cls.size)
    order = (pos - (np.cumsum(counts) - counts)[cls]) / counts[cls]
    flat = labels.reshape(-1)
    order += (cls != flat) & (flat != IGNORE)
    return cls.reshape(u.shape), order.reshape(u.shape)


@pytest.mark.parametrize("ties", ["none", "ends", "rounded", "constant"])
@pytest.mark.parametrize("held", [(), (2,), (0, 3)])
def test_protect_classes_equals_its_two_sort_oracle(ties, held):
    """Byte for byte, with runs of exact ties in u (0.0 and 1.0 as min-max
    scaling leaves them, rounded values, one value everywhere), held
    classes, a class no pixel takes, and IGNORE labels."""
    rng = np.random.default_rng(len(ties) + 7 * len(held))
    n, k, h, w = 5, 5, 12, 9
    p = rng.random((n, k, h, w)) ** 3
    p[:, 4] = 0.0  # class 4 is never the argmax
    p /= p.sum(axis=1, keepdims=True)
    u = rng.random((n, h, w))
    if ties == "ends":
        u[rng.random(u.shape) < 0.3] = 0.0
        u[rng.random(u.shape) < 0.3] = 1.0
        u[rng.random(u.shape) < 0.1] = -0.0
    elif ties == "rounded":
        u = np.round(u, 1)
    elif ties == "constant":
        u[:] = 0.5
    labels = np.where(rng.random((n, h, w)) < 0.2, IGNORE, rng.integers(0, 4, (n, h, w)))
    hard = p.argmax(axis=1)
    got = protect_classes(p, u, labels, hard, np.array(held, dtype=np.int64))
    want = _protect_classes_oracle(p, u, labels, hard, np.array(held, dtype=np.int64))
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()


def test_relabel_labels_are_argmax():
    rng = np.random.default_rng(1)
    p = rng.random((4, 6, 6))
    u = rng.random((6, 6))
    out = relabel(p.argmax(axis=0), u, 0.9)
    kept = out != IGNORE
    np.testing.assert_array_equal(out[kept], p.argmax(axis=0)[kept])


def test_relabel_validates_inputs():
    with pytest.raises(ValueError):
        relabel(np.zeros((4, 4), dtype=np.int64), np.zeros((3, 3)), 0.5)
    with pytest.raises(ValueError):
        relabel(np.zeros((4, 4), dtype=np.int64), np.zeros((4, 4)), 1.0)


def _minority_scene():
    """Two 8x8 images: background, a majority class 1 block and a minority
    class 2 bar that the teacher always ranks behind background."""
    labels = np.zeros((2, 8, 8), dtype=np.int64)
    labels[:, :4, :4] = 1
    labels[:, 6, 1:7] = 2
    p = np.empty((2, 3, 8, 8))
    p[:] = np.array([0.9, 0.05, 0.05])[None, :, None, None]
    p[:, :, :4, :4] = np.array([0.05, 0.9, 0.05])[None, :, None, None]
    p[:, :, 6, 1:7] = np.array([0.6, 0.1, 0.3])[None, :, None]
    u = np.random.default_rng(0).random((2, 8, 8))
    return p, u, labels


def test_protect_classes_keeps_a_class_the_teacher_never_ranks_first():
    p, u, labels = _minority_scene()
    assert not (p.argmax(axis=1) == 2).any()
    new, order = protect(p, u, labels)
    for i in range(2):
        plain = relabel(p[i].argmax(0), u[i], 0.9)
        assert not (plain == 2).any()  # argmax relabeling erases the bar
        out = relabel(new[i], order[i], 0.9)
        assert (out != IGNORE).sum() == int(np.ceil(0.9 * 64))
        kept = out != IGNORE
        np.testing.assert_array_equal(out[kept], labels[i][kept])
        assert (out == 2).sum() >= 5  # the cut may take one bar pixel


def test_protect_classes_leaves_confirmed_classes_to_the_teacher():
    p, u, labels = _minority_scene()
    labels[0, 7, 7] = 1  # a class-1 label the teacher contradicts
    u[0, 7, 7] = 0.0
    new, order = protect(p, u, labels)
    assert new[0, 7, 7] == 0
    assert order[0, 7, 7] == order.max() >= 1.0  # dropped first
    assert (order[0] < 1.0).sum() == 63  # every other pixel agrees


def test_protect_classes_does_not_count_ignore_as_a_contradiction():
    p, u, labels = _minority_scene()
    labels[0, 7, :4] = IGNORE  # dropped by an earlier relabel
    labels[0, 7, 7] = 1  # a class-1 label the teacher contradicts
    new, order = protect(p, u, labels)
    np.testing.assert_array_equal(new[0, 7, :4], 0)
    assert (order[0, 7, :4] < 1.0).all()
    assert (order >= 1.0).sum() == 1 and order[0, 7, 7] >= 1.0


def test_protect_classes_second_relabel_drops_new_contradictions_first():
    p, u, labels = _minority_scene()
    new, order = protect(p, u, labels)
    first = np.stack([relabel(new[i], order[i], 0.9) for i in range(2)])
    assert (first == IGNORE).any()
    # the teacher now contradicts one pixel that the first relabel kept
    r, c = np.argwhere(first[0] == 0)[0]
    p[0, :, r, c] = [0.05, 0.9, 0.05]
    new, order = protect(p, u, first)
    assert (order >= 1.0).sum() == 1 and order[0, r, c] >= 1.0
    outs = [relabel(new[i], order[i], 0.9) for i in range(2)]
    assert outs[0][r, c] == IGNORE
    for i, out in enumerate(outs):
        # the bar is still held: no kept pixel of it changes class
        bar = out == 2
        assert bar.sum() >= 4 and (first[i][bar] == 2).all()


def test_relabel_all_stores_the_teacher_uncertainty():
    model = tiny_model()
    data = tiny_data(2)
    teacher = TeacherState({k: v.copy() for k, v in model.state_dict().items()})
    relabel_all(model, teacher, data, 0.9, batch_size=8)
    _, u = teacher_predict(model, teacher, np.stack([s.image for s in data]))
    for s, u_i in zip(data, u):
        np.testing.assert_array_equal(s.seed.seed_uncertainty[0], u_i)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("level", ["A0", "A1", "A4", "A6", "U0"])
def test_the_decoder_computes_in_the_model_dtype(monkeypatch, level, dtype):
    """In a training step, in teacher_predict and in predict, every decoder
    output is in the model dtype and every conv2d input in its kernel's;
    the full-resolution maps stay float64 at either dtype."""
    from crispdec.benchmark import LEVELS

    convs, outputs = [], []

    def conv_spy(t, kernel, *args, **kwargs):
        convs.append((t.data.dtype, kernel.data.dtype))
        return tensor.conv2d(t, kernel, *args, **kwargs)

    def forward_spy(*args, **kwargs):
        outputs.append(decoder.decoder_forward(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(decoder, "conv2d", conv_spy)
    monkeypatch.setattr(synthdata, "conv2d", conv_spy)
    monkeypatch.setattr(model_module, "decoder_forward", forward_spy)
    model = tiny_model(dtype=dtype, **LEVELS[level])
    data = tiny_data(2)
    images = np.stack([s.image for s in data])
    train(TrainConfig(epochs=1, batch_size=2, relabel_period=0, seed=0), data, model)
    p, u = teacher_predict(model, TeacherState(model.state_dict()), images)
    _, conf = model.predict(images)

    want = np.dtype(dtype)
    assert len(outputs) == 3
    for out in outputs:
        maps = [getattr(out, f.name) for f in dataclasses.fields(out)]
        assert {m.data.dtype for m in maps if m is not None} == {want}
    assert convs and set(convs) == {(want, want)}
    assert p.dtype == u.dtype == conf.dtype == np.float64


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_teacher_predict_batch_equals_per_image_calls(dtype):
    model = tiny_model(seed=4, dtype=dtype)
    teacher = TeacherState(tiny_model(seed=5, dtype=dtype).state_dict())
    images = np.stack([s.image for s in tiny_data(3)])
    p, u = teacher_predict(model, teacher, images)
    assert p.shape == (3, 4, 64, 64) and u.shape == (3, 64, 64)
    for i in range(3):
        p_i, u_i = teacher_predict(model, teacher, images[i:i + 1])
        np.testing.assert_array_equal(p[i], p_i[0])
        np.testing.assert_array_equal(u[i], u_i[0])


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_predict_batch_equals_per_image_calls(dtype):
    model = tiny_model(seed=4, dtype=dtype)
    images = np.stack([s.image for s in tiny_data(4)])
    labels, conf = model.predict(images)
    for i in range(4):
        labels_i, conf_i = model.predict(images[i])
        np.testing.assert_array_equal(labels[i], labels_i[0])
        np.testing.assert_array_equal(conf[i], conf_i[0])


def test_relabel_all_does_not_depend_on_the_batch_size():
    model = tiny_model(seed=1)
    teacher = TeacherState(tiny_model(seed=6).state_dict())
    runs = []
    for batch_size in (1, 3, 16):  # 3: a chunk of 3, then the remaining 2
        data = tiny_data(5)
        row = relabel_all(model, teacher, data, 0.9, batch_size=batch_size)
        runs.append((row, [s.seed for s in data]))
    for row, seeds in runs[1:]:
        assert row == runs[0][0]
        for a, b in zip(seeds, runs[0][1]):
            np.testing.assert_array_equal(a.yhat, b.yhat)
            np.testing.assert_array_equal(a.valid, b.valid)
            np.testing.assert_array_equal(a.seed_uncertainty, b.seed_uncertainty)


def test_relabel_all_reports_what_changed():
    model = tiny_model(seed=1)
    teacher = TeacherState(tiny_model(seed=6).state_dict())
    data = tiny_data(3)
    before = np.concatenate([s.seed.yhat for s in data])
    row = relabel_all(model, teacher, data, 0.8, batch_size=2)
    after = np.concatenate([s.seed.yhat for s in data])
    gt = np.stack([s.gt for s in data])
    assert set(row) == set(RELABEL_COLUMNS) - {"epoch"}
    assert row["kept_fraction"] == np.ceil(0.8 * 64 * 64) / (64 * 64)
    assert row["changed_fraction"] == (after != before).mean() > 0
    for key, y in (("acc_before", before), ("acc_after", after)):
        kept = y != IGNORE
        assert row[key] == (y[kept] == gt[kept]).sum() / kept.sum()
    held = row["held_classes"].split()
    assert all(c.isdigit() and int(c) < 4 for c in held)


def test_relabel_log_leaves_the_training_bytes_alone(tmp_path):
    cfg = TrainConfig(epochs=3, batch_size=3, lr_decoder=1e-3, seed=0,
                      relabel_period=1)
    (tmp_path / "a").mkdir()
    logged = train(cfg, tiny_data(4), tiny_model(),
                   log_path=tmp_path / "a" / "train_log.csv",
                   checkpoint_dir=tmp_path / "a" / "ckpt")
    plain = train(cfg, tiny_data(4), tiny_model(), checkpoint_dir=tmp_path / "b" / "ckpt")
    assert logged == plain
    files = sorted(os.listdir(tmp_path / "a" / "ckpt"))
    assert files == sorted(os.listdir(tmp_path / "b" / "ckpt"))
    for f in files:
        assert ((tmp_path / "a" / "ckpt" / f).read_bytes()
                == (tmp_path / "b" / "ckpt" / f).read_bytes())
    # the step log of the logged run, byte for byte, from the plain run's rows
    with open(tmp_path / "b" / "train_log.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for row in plain:
            writer.writerow([row[c] for c in LOG_COLUMNS])
    assert ((tmp_path / "a" / "train_log.csv").read_bytes()
            == (tmp_path / "b" / "train_log.csv").read_bytes())
    # the seed filter masks Q_START% in epoch 0 and nothing once relabeled
    assert [r["q"] for r in plain] == [loop.Q_START] * 2 + [0.0] * 4
    with open(tmp_path / "a" / "relabel_log.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == RELABEL_COLUMNS
    assert [r[0] for r in rows[1:]] == ["1", "2"]  # one row per relabel event
    for r in rows[1:]:
        assert 0.0 <= float(r[4]) <= 1.0 and 0.0 <= float(r[5]) <= 1.0


def test_protect_classes_validates_inputs():
    p, u, labels = _minority_scene()
    with pytest.raises(ValueError):
        protect(p, u[:, :4], labels)
    with pytest.raises(ValueError):
        protect(p, u, labels[:1])


# --- AdamW ----------------------------------------------------------------

def test_adamw_first_step_matches_hand_update():
    p = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.array([0.5])
    opt = AdamW({"p": p}, {"p": 0.1}, weight_decay=0.01)
    opt.step()
    # bias-corrected mhat = g, vhat = g^2 on step 1
    expect = 2.0 - 0.1 * (0.5 / (0.5 + 1e-8) + 0.01 * 2.0)
    np.testing.assert_allclose(p.data, expect, atol=1e-12)


def test_adamw_decay_is_decoupled():
    # zero gradient: only the decay term moves the parameter
    p = Tensor(np.array([4.0]), requires_grad=True)
    p.grad = np.array([0.0])
    opt = AdamW({"p": p}, {"p": 0.5}, weight_decay=0.1)
    opt.step()
    np.testing.assert_allclose(p.data, 4.0 - 0.5 * 0.1 * 4.0, atol=1e-12)


def test_adamw_lr_factor_scales_step():
    p1 = Tensor(np.array([1.0]), requires_grad=True)
    p2 = Tensor(np.array([1.0]), requires_grad=True)
    p1.grad = p2.grad = np.array([1.0])
    AdamW({"p": p1}, {"p": 0.1}, weight_decay=0.0).step(lr_factor=1.0)
    AdamW({"p": p2}, {"p": 0.1}, weight_decay=0.0).step(lr_factor=0.5)
    np.testing.assert_allclose(1.0 - p2.data, (1.0 - p1.data) * 0.5, atol=1e-12)


# --- training loop --------------------------------------------------------

def test_train_log_structure(tmp_path):
    data = tiny_data(4)
    cfg = TrainConfig(epochs=2, batch_size=2, lr_decoder=1e-3, seed=0,
                      relabel_period=0)
    logs = train(cfg, data, tiny_model(), log_path=tmp_path / "log.csv")
    assert len(logs) == 2 * 2  # epochs * ceil(4/2)
    assert [r["step"] for r in logs] == list(range(4))
    header = (tmp_path / "log.csv").read_text().splitlines()[0]
    assert header.split(",") == LOG_COLUMNS
    with open(tmp_path / "log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        step = int(row["step"])
        assert float(row["lr_factor"]) == _lr_factor(step, 2, 4)
        assert float(row["q"]) == anneal_q(step // 2, cfg)  # no relabel: the seed filter stays
        assert row["clipped"] == str(int(float(row["grad_norm"]) > loop.GRAD_CLIP))
    assert [float(r["grad_norm"]) for r in rows] == [r["grad_norm"] for r in logs]


def test_train_log_reports_the_gate_and_fusion_weights(tmp_path):
    """mean_gate and fuse_w1..fuse_w4 are the step's mean gate and mean
    fusion weight per scale, and empty where the level has no gate or no
    dynamic fusion: absent is not zero."""
    from crispdec.benchmark import LEVELS

    cfg = TrainConfig(epochs=1, batch_size=2, lr_decoder=1e-3, seed=0, relabel_period=0)
    fuse = ["fuse_w1", "fuse_w2", "fuse_w3", "fuse_w4"]
    for level, has_gate, has_fuse in (("A6", True, True), ("A1", False, True),
                                      ("A0", False, False)):
        path = tmp_path / f"{level}.csv"
        logs = train(cfg, tiny_data(4), tiny_model(**LEVELS[level]), log_path=path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, logged in zip(rows, logs):
            assert (row["mean_gate"] != "") == has_gate
            assert all((row[c] != "") == has_fuse for c in fuse)
            assert [row[c] for c in ["mean_gate", *fuse]] == [
                "" if logged[c] is None else str(logged[c]) for c in ["mean_gate", *fuse]]
            if has_fuse:
                assert abs(sum(float(row[c]) for c in fuse) - 1.0) < 1e-6
        # at the first step the gate is its bias init and the zero-init
        # score heads weigh the four scales equally
        if has_gate:
            assert abs(logs[0]["mean_gate"] - 0.1) < 1e-4
        if has_fuse:
            assert [logs[0][c] for c in fuse] == [0.25] * 4


def test_train_zero_epochs_leaves_params_at_init():
    model = tiny_model(seed=3)
    before = model.state_dict()
    train(TrainConfig(epochs=0, seed=0), tiny_data(2), model)
    after = model.state_dict()
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


def test_train_deterministic_given_seed():
    cfg = TrainConfig(epochs=1, batch_size=2, lr_decoder=1e-3, seed=7,
                      relabel_period=0)
    m1, m2 = tiny_model(seed=5), tiny_model(seed=5)
    train(cfg, tiny_data(4), m1)
    train(cfg, tiny_data(4), m2)
    s1, s2 = m1.state_dict(), m2.state_dict()
    for k in s1:
        np.testing.assert_array_equal(s1[k], s2[k])


def test_train_reduces_loss_on_micro_dataset():
    data = tiny_data(4)
    cfg = TrainConfig(epochs=3, batch_size=4, lr_decoder=5e-3, seed=0,
                      relabel_period=0, q_anneal_epochs=0)
    logs = train(cfg, data, tiny_model())
    assert logs[-1]["l_total"] < logs[0]["l_total"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_nonfinite_loss():
    model = tiny_model()
    model.params["dec.seg.w"].data[:] = np.inf
    with pytest.raises(TrainingDiverged):
        train(TrainConfig(epochs=1, seed=0), tiny_data(2), model)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_nonfinite_gradient_norm(monkeypatch, tmp_path):
    """A finite loss with a NaN gradient stops training before the
    optimizer writes NaN into the parameters or the checkpoint."""
    model = tiny_model()
    seg_w = model.params["dec.seg.w"]
    before = model.state_dict()

    def nan_gradient_loss(outputs, labels, weights):
        loss, breakdown = total_loss(outputs, labels, weights)
        # adds 0 to the loss; its gradient is 0 * d sqrt(x)/dx at x = 0: NaN
        return loss + (seg_w * 0.0).sum().sqrt() * 0.0, breakdown

    monkeypatch.setattr(loop, "total_loss", nan_gradient_loss)
    with pytest.raises(TrainingDiverged, match="grad_norm=nan"):
        train(TrainConfig(epochs=1, batch_size=2, seed=0), tiny_data(2), model,
              checkpoint_dir=tmp_path / "ckpt")
    for k, v in model.state_dict().items():
        np.testing.assert_array_equal(v, before[k])
    assert not (tmp_path / "ckpt").exists()


def test_train_relabel_replaces_label_sets():
    data = tiny_data(4)
    keep = 0.7
    cfg = TrainConfig(epochs=3, batch_size=4, lr_decoder=1e-3, seed=0,
                      relabel_period=2, keep_fraction=keep)
    train(cfg, data, tiny_model())
    n_keep = int(np.ceil(keep * 64 * 64))
    for s in data:
        assert (s.seed.valid == 1).sum() == n_keep  # teacher-refreshed labels


def test_train_no_relabel_without_ema():
    data = tiny_data(2)
    before = [s.seed.yhat.copy() for s in data]
    cfg = TrainConfig(epochs=3, batch_size=2, lr_decoder=1e-3, seed=0,
                      relabel_period=1)
    train(cfg, data, tiny_model(use_ema=False))
    for s, y in zip(data, before):
        np.testing.assert_array_equal(s.seed.yhat, y)


@pytest.mark.parametrize("relabel_period", [0, 1])
def test_train_builds_label_geometry_once_per_label_set(monkeypatch, relabel_period):
    """Each sample's 2-D band and distance map are built once per label
    set: once in 3 epochs without relabeling, once per epoch with a
    relabel every epoch."""
    from crispdec import geometry, losses

    calls = {"band": 0, "sdf": 0}
    band, sdf = geometry.boundary_band, losses.signed_distance

    def counted_band(labels, *args):
        calls["band"] += np.ndim(labels) == 2
        return band(labels, *args)

    def counted_sdf(labels):
        calls["sdf"] += 1
        return sdf(labels)

    for mod in (geometry, losses):
        monkeypatch.setattr(mod, "boundary_band", counted_band)
    monkeypatch.setattr(losses, "signed_distance", counted_sdf)
    cfg = TrainConfig(epochs=3, batch_size=2, lr_decoder=1e-3, seed=0,
                      relabel_period=relabel_period)
    train(cfg, tiny_data(4), tiny_model(width=8))
    sets = 4 * (3 if relabel_period else 1)
    assert calls == {"band": sets, "sdf": sets}


def test_teacher_predict_without_variance_head_is_normalized_entropy():
    model = tiny_model(seed=3, use_var=False, use_ugr=False, use_udmf=False)
    teacher = TeacherState(model.state_dict())
    img = tiny_data(1)[0].image
    p, u = teacher_predict(model, teacher, img[None])
    p, u = p[0], u[0]
    ent = -(p * np.log(p)).sum(axis=0)
    want = (ent - ent.min()) / (ent.max() - ent.min() + 1e-12)
    np.testing.assert_allclose(u, want, rtol=0, atol=1e-12)
    assert u.min() == 0.0 and u.max() > 0.999


def test_teacher_predict_restores_student_state():
    model = tiny_model(seed=2)
    teacher = TeacherState({k: np.zeros_like(v)
                            for k, v in model.state_dict().items()})
    before = model.state_dict()
    img = tiny_data(1)[0].image
    p, u = teacher_predict(model, teacher, img[None])
    p, u = p[0], u[0]
    after = model.state_dict()
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])
    assert p.shape[1:] == img.shape[1:]
    np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-9)
    assert u.min() >= 0.0 and u.max() <= 1.0


def test_an_a6_step_backward_consumes_its_tape(monkeypatch):
    """After an A6 step's backward no node of the step but the parameters
    keeps a gradient, a closure or parents; every parameter keeps its
    gradient, and a second backward raises and leaves them as they were."""
    from crispdec.benchmark import LEVELS

    nodes = []
    from_op = Tensor._from_op.__func__

    def record(cls, data, parents, backward):
        nodes.append(from_op(cls, data, parents, backward))
        return nodes[-1]

    monkeypatch.setattr(Tensor, "_from_op", classmethod(record))
    data = tiny_data(2)
    model = tiny_model(dtype="float32", **LEVELS["A6"])
    yhat = np.concatenate([s.seed.yhat for s in data])
    labels = PseudoLabelSet(yhat, yhat != IGNORE,
                            np.concatenate([s.seed.seed_uncertainty for s in data]))
    loss, _ = total_loss(model.forward(np.stack([s.image for s in data])), labels, use_sdf=True)
    loss.backward()
    tracked = [t for t in nodes if t.requires_grad]
    assert len(tracked) > 50
    for t in tracked:
        assert t.grad is None and t._parents == ()
        with pytest.raises(RuntimeError):
            t._backward(np.ones_like(t.data))
    grads = {k: p.grad.tobytes() for k, p in model.params.items()}
    with pytest.raises(RuntimeError):
        loss.backward()
    assert {k: p.grad.tobytes() for k, p in model.params.items()} == grads


def test_train_sets_the_malloc_thresholds_and_skips_without_mallopt(monkeypatch):
    """`train` sets M_MMAP_THRESHOLD to 32 MiB and M_TRIM_THRESHOLD to
    1 GiB through the C library's `mallopt`, and does nothing where the
    library has no `mallopt` or cannot be loaded."""
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(loop.ctypes, "CDLL", lambda name: Libc())
    train(TrainConfig(epochs=0, seed=0), tiny_data(2), tiny_model())
    assert calls == [(-3, 32 << 20), (-1, 1 << 30)]

    monkeypatch.setattr(loop.ctypes, "CDLL", lambda name: object())
    loop._keep_freed_heap()

    def unloadable(name):
        raise OSError("no C library")

    monkeypatch.setattr(loop.ctypes, "CDLL", unloadable)
    loop._keep_freed_heap()
    assert len(calls) == 2
