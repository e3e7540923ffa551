import math

import numpy as np
import pytest

from crispdec import loop
from crispdec.fileio import IGNORE
from crispdec.loop import (
    LOG_COLUMNS,
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
)
from crispdec.losses import total_loss
from crispdec.model import ModelConfig, SegModel
from crispdec.synthdata import CorruptionSpec, SceneSpec, make_dataset
from crispdec.tensor import Tensor


def tiny_model(seed=0, **kwargs):
    return SegModel(ModelConfig(seed=seed, **kwargs))


def tiny_data(n=4, seed=11):
    return make_dataset(n, SceneSpec(seed=seed), CorruptionSpec())


# --- config ---------------------------------------------------------------

def test_config_rejects_inverted_q():
    with pytest.raises(ValueError):
        TrainConfig(q_start=10.0, q_end=20.0)


def test_config_rejects_bad_tau_and_keep():
    with pytest.raises(ValueError):
        TrainConfig(ema_tau=1.0)
    with pytest.raises(ValueError):
        TrainConfig(keep_fraction=0.0)


def test_parse_config_overrides_and_types(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# comment\n\nepochs = 5\nlr_decoder=1e-3\nflip_augment=false\n")
    cfg = parse_config(p)
    assert cfg.epochs == 5 and isinstance(cfg.epochs, int)
    assert cfg.lr_decoder == 1e-3
    assert cfg.flip_augment is False
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
    cfg = TrainConfig(q_start=30.0, q_end=15.0, q_anneal_epochs=10)
    assert anneal_q(0, cfg) == 30.0
    assert anneal_q(10, cfg) == 15.0
    assert anneal_q(5, cfg) == pytest.approx(22.5)
    assert anneal_q(25, cfg) == 15.0  # flat after the anneal window


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
        out = relabel(p, u, keep)
        n_keep = int(np.ceil(keep * 64))
        assert (out.valid == 1).sum() == n_keep
        assert (out.yhat == IGNORE).sum() == 64 - n_keep


def test_relabel_keeps_lowest_uncertainty():
    p = np.zeros((2, 4, 4))
    p[1] = 1.0  # argmax is class 1 everywhere
    u = np.arange(16.0).reshape(4, 4)
    out = relabel(p, u, 0.5)
    np.testing.assert_array_equal(out.valid.reshape(-1)[:8], 1)
    np.testing.assert_array_equal(out.valid.reshape(-1)[8:], 0)
    np.testing.assert_array_equal(out.yhat.reshape(-1)[:8], 1)
    np.testing.assert_array_equal(out.yhat.reshape(-1)[8:], IGNORE)


def test_relabel_ties_prefer_earlier_index():
    p = np.zeros((2, 4, 4))
    u = np.zeros((4, 4))  # all tied
    out = relabel(p, u, 0.25)
    n_keep = int(np.ceil(0.25 * 16))
    np.testing.assert_array_equal(out.valid.reshape(-1)[:n_keep], 1)
    np.testing.assert_array_equal(out.valid.reshape(-1)[n_keep:], 0)


def test_relabel_labels_are_argmax():
    rng = np.random.default_rng(1)
    p = rng.random((4, 6, 6))
    u = rng.random((6, 6))
    out = relabel(p, u, 0.9)
    kept = out.valid[0] == 1
    np.testing.assert_array_equal(out.yhat[0][kept], p.argmax(axis=0)[kept])


def test_relabel_validates_inputs():
    with pytest.raises(ValueError):
        relabel(np.zeros((2, 4, 4)), np.zeros((3, 3)), 0.5)
    with pytest.raises(ValueError):
        relabel(np.zeros((2, 4, 4)), np.zeros((4, 4)), 1.0)


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
    scores, order = protect_classes(p, u, labels)
    for i in range(2):
        plain = relabel(p[i], u[i], 0.9)
        assert not (plain.yhat == 2).any()  # argmax relabeling erases the bar
        out = relabel(scores[i], order[i], 0.9)
        assert (out.valid == 1).sum() == int(np.ceil(0.9 * 64))
        kept = out.valid[0] == 1
        np.testing.assert_array_equal(out.yhat[0][kept], labels[i][kept])
        assert (out.yhat[0] == 2).sum() >= 5  # the cut may take one bar pixel


def test_protect_classes_leaves_confirmed_classes_to_the_teacher():
    p, u, labels = _minority_scene()
    labels[0, 7, 7] = 1  # a class-1 label the teacher contradicts
    u[0, 7, 7] = 0.0
    scores, order = protect_classes(p, u, labels)
    assert scores[0, :, 7, 7].argmax() == 0
    assert order[0, 7, 7] == order.max() >= 1.0  # dropped first
    assert (order[0] < 1.0).sum() == 63  # every other pixel agrees


def test_protect_classes_does_not_count_ignore_as_a_contradiction():
    p, u, labels = _minority_scene()
    labels[0, 7, :4] = IGNORE  # dropped by an earlier relabel
    labels[0, 7, 7] = 1  # a class-1 label the teacher contradicts
    scores, order = protect_classes(p, u, labels)
    np.testing.assert_array_equal(scores[0, :, 7, :4].argmax(axis=0), 0)
    assert (order[0, 7, :4] < 1.0).all()
    assert (order >= 1.0).sum() == 1 and order[0, 7, 7] >= 1.0


def test_protect_classes_second_relabel_drops_new_contradictions_first():
    p, u, labels = _minority_scene()
    scores, order = protect_classes(p, u, labels)
    first = np.concatenate([relabel(scores[i], order[i], 0.9).yhat for i in range(2)])
    assert (first == IGNORE).any()
    # the teacher now contradicts one pixel that the first relabel kept
    r, c = np.argwhere(first[0] == 0)[0]
    p[0, :, r, c] = [0.05, 0.9, 0.05]
    scores, order = protect_classes(p, u, first)
    assert (order >= 1.0).sum() == 1 and order[0, r, c] >= 1.0
    outs = [relabel(scores[i], order[i], 0.9) for i in range(2)]
    assert outs[0].yhat[0, r, c] == IGNORE
    for i, out in enumerate(outs):
        # the bar is still held: no kept pixel of it changes class
        bar = out.yhat[0] == 2
        assert bar.sum() >= 4 and (first[i][bar] == 2).all()


def test_relabel_all_stores_the_teacher_uncertainty():
    model = tiny_model()
    data = tiny_data(2)
    teacher = TeacherState({k: v.copy() for k, v in model.state_dict().items()})
    relabel_all(model, teacher, data, 0.9)
    for s in data:
        _, u = teacher_predict(model, teacher, s.image)
        np.testing.assert_array_equal(s.seed.seed_uncertainty[0], u)


def test_protect_classes_validates_inputs():
    p, u, labels = _minority_scene()
    with pytest.raises(ValueError):
        protect_classes(p, u[:, :4], labels)
    with pytest.raises(ValueError):
        protect_classes(p, u, labels[:1])


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
                      relabel_period=0, flip_augment=False, q_anneal_epochs=1,
                      q_start=30.0, q_end=30.0)
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


def test_teacher_predict_restores_student_state():
    model = tiny_model(seed=2)
    teacher = TeacherState({k: np.zeros_like(v)
                            for k, v in model.state_dict().items()})
    before = model.state_dict()
    img = tiny_data(1)[0].image
    p, u = teacher_predict(model, teacher, img)
    after = model.state_dict()
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])
    assert p.shape[1:] == img.shape[1:]
    np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-9)
    assert u.min() >= 0.0 and u.max() <= 1.0
