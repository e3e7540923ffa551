import os
import shutil

import numpy as np
import pytest

from crispdec.cli import EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from crispdec.fileio import IGNORE, read_ctsr, read_pgm, write_pgm
from crispdec.loop import RELABEL_COLUMNS


def run_gen(out, n=3, seed=0, extra=()):
    return main(["gen", "--out", str(out), "--n", str(n), "--seed", str(seed),
                 *extra])


def test_gen_writes_dataset_and_hash(tmp_path, capsys):
    assert run_gen(tmp_path / "d") == EXIT_OK
    out = capsys.readouterr().out
    assert "dataset hash: " in out
    assert os.path.exists(tmp_path / "d" / "manifest.txt")
    assert os.path.exists(tmp_path / "d" / "00000_image.ctsr")


def test_gen_deterministic_hash(tmp_path, capsys):
    run_gen(tmp_path / "a")
    h1 = [l for l in capsys.readouterr().out.splitlines()
          if l.startswith("dataset hash:")]
    run_gen(tmp_path / "b")
    h2 = [l for l in capsys.readouterr().out.splitlines()
          if l.startswith("dataset hash:")]
    assert h1 and h1 == h2


def test_gen_refuses_nonempty_without_force(tmp_path, capsys):
    run_gen(tmp_path / "d")
    capsys.readouterr()
    assert run_gen(tmp_path / "d") == EXIT_DATA
    assert "--force" in capsys.readouterr().err
    assert run_gen(tmp_path / "d", extra=("--force",)) == EXIT_OK


@pytest.mark.parametrize("extra", [("--n", "0"), ("--n", "-2"), ("--classes", "5"),
                                   ("--classes", "6"), ("--height", "60"),
                                   ("--seed", "-1")],
                         ids=["n0", "n-neg", "classes5", "classes6", "height", "seed-neg"])
def test_gen_rejects_bad_flags(tmp_path, capsys, extra):
    code = main(["gen", "--out", str(tmp_path / "d"), *extra])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not os.path.exists(tmp_path / "d")


def gen_hash(out, capsys, extra=()):
    assert run_gen(out, n=3, seed=1, extra=extra) == EXIT_OK
    return capsys.readouterr().out.split("dataset hash: ")[1].split()[0]


@pytest.mark.parametrize("extra", [("--n", "4"), ("--seed", "2"), ("--height", "96"),
                                   ("--width", "96"), ("--classes", "3"),
                                   ("--erode-px", "3"), ("--dilate-px", "3"),
                                   ("--blob-smooth-iters", "1"),
                                   ("--drop-thin-prob", "1.0"), ("--flip-prob", "0.1")],
                         ids=lambda extra: extra[0])
def test_gen_every_data_flag_changes_the_dataset(tmp_path, capsys, extra):
    # run_gen passes --n 3 --seed 1 first; the flag under test comes last and wins
    assert gen_hash(tmp_path / "a", capsys, extra) != gen_hash(tmp_path / "b", capsys)


@pytest.mark.parametrize("argv", [["gen", "--out", "D", "--bogus", "1"],
                                  ["gen", "--out", "D", "--n", "abc"],
                                  ["gen", "--out", "D", "--q-start", "30"],
                                  ["train", "--data", "D"],
                                  ["eval"],
                                  ["frobnicate"]],
                         ids=["unknown-flag", "bad-int", "removed-flag", "missing-out",
                              "eval-no-flags", "unknown-command"])
def test_command_line_errors_are_usage_errors(tmp_path, capsys, argv):
    code = main([str(tmp_path / a) if a == "D" else a for a in argv])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not os.path.exists(tmp_path / "D")


def test_gradcheck_rejects_negative_seed(capsys):
    assert main(["gradcheck", "--seed", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: seed must be >= 0")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny dataset + checkpoint shared by the train/eval tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["gen", "--out", str(data), "--n", "4", "--seed", "1"]) == EXIT_OK
    code = main(["train", "--data", str(data), "--out", str(run),
                 "--epochs", "1", "--batch-size", "4", "--lr", "1e-3",
                 "--dtype", "float32"])
    assert code == EXIT_OK
    return data, run


def test_train_writes_artifacts(trained):
    _, run = trained
    assert os.path.isdir(run / "checkpoint")
    with open(run / "train_log.csv") as fh:
        assert fh.readline().strip().split(",") == [
            "step", "l_total", "l_ce", "l_dice", "l_het", "l_bnd", "l_sdf", "mean_w",
            "valid_fraction", "lr_factor", "q", "grad_norm", "clipped", "mean_gate",
            "fuse_w1", "fuse_w2", "fuse_w3", "fuse_w4"]
    manifest = (run / "run_manifest.txt").read_text()
    assert "components=dmf+var+ugr+bnd+udmf+ema" in manifest
    assert "dataset_hash=" in manifest
    assert "train.epochs=1" in manifest
    assert f"relabel_log={run / 'relabel_log.csv'}" in manifest.splitlines()
    with open(run / "relabel_log.csv") as fh:  # one epoch: no relabel event
        assert fh.read().splitlines() == [",".join(RELABEL_COLUMNS)]


def test_train_rejects_inconsistent_ablations(tmp_path, trained, capsys):
    data, _ = trained
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                 "--no-ugr"])
    assert code == EXIT_USAGE
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                 "--no-dmf"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("extra", [("--batch-size", "0"), ("--batch-size", "-8"),
                                   ("--epochs", "-1"), ("--lr", "0"), ("--lr", "-1"),
                                   ("--seed", "-1")],
                         ids=["batch0", "batch-neg", "epochs-neg", "lr0", "lr-neg",
                              "seed-neg"])
def test_train_rejects_bad_schedule_flags(tmp_path, trained, capsys, extra):
    data, _ = trained
    out = tmp_path / "r"
    code = main(["train", "--data", str(data), "--out", str(out), *extra])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("line", ["batch_size=0", "epochs=-1", "lr_decoder=0",
                                  "q_anneal_epochs=-1", "relabel_period=-1",
                                  "detach_p_epochs=-1", "seed=-3"])
def test_train_rejects_bad_schedule_config(tmp_path, trained, capsys, line):
    data, _ = trained
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                 "--config", str(cfg)])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: {cfg}: ")


# keys of older versions that are constants now, each at its constant value
@pytest.mark.parametrize("line", ["lr_encoder_scale=0.1", "weight_decay=1e-4",
                                  "q_start=30", "q_end=15", "warmup_epochs=1",
                                  "grad_clip=5", "flip_augment=true"],
                         ids=lambda line: line.split("=")[0])
def test_train_rejects_removed_config_key(tmp_path, trained, capsys, line):
    data, _ = trained
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("epochs=1\n" + line + "\n")
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                 "--config", str(cfg)])
    assert code == EXIT_DATA
    key = line.split("=")[0]
    assert capsys.readouterr().err == f"data error: {cfg}:2: unknown key {key!r}\n"
    assert not os.path.exists(tmp_path / "r")


def test_train_rejects_unknown_config_key(tmp_path, trained):
    data, _ = trained
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("momentum=0.9\n")
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                 "--config", str(cfg)])
    assert code == EXIT_DATA


# lr 1e300 overflows the weights, and the inf then meets zeros and infs
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_train_divergence_exits_with_check_failure(tmp_path, trained, capsys):
    data, _ = trained
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("lr_decoder=1e300\n")
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                 "--epochs", "2", "--batch-size", "2", "--config", str(cfg)])
    assert code == EXIT_CHECK
    assert capsys.readouterr().err.startswith("training diverged at step ")


def test_train_config_seed_seeds_the_model(tmp_path, trained):
    data, _ = trained
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=5\n")
    run = tmp_path / "r"
    assert main(["train", "--data", str(data), "--out", str(run), "--epochs", "1",
                 "--batch-size", "4", "--config", str(cfg)]) == EXIT_OK
    manifest = (run / "run_manifest.txt").read_text().splitlines()
    assert "train.seed=5" in manifest and "model.seed=5" in manifest
    assert "seed=5" in (run / "checkpoint" / "model_config.txt").read_text().splitlines()


def test_train_empty_dataset(tmp_path):
    os.makedirs(tmp_path / "empty")
    (tmp_path / "empty" / "manifest.txt").write_text("# count=0 hash=x\n")
    code = main(["train", "--data", str(tmp_path / "empty"),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_DATA


def test_eval_writes_csv_with_aggregate(tmp_path, trained, capsys):
    data, run = trained
    out = tmp_path / "scores.csv"
    code = main(["eval", "--checkpoint", str(run / "checkpoint"),
                 "--data", str(data), "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("image,miou,boundary_f1,ece")
    assert len(lines) == 1 + 4 + 1
    assert lines[-1].startswith("aggregate,")


def test_eval_deterministic_bytes(tmp_path, trained):
    data, run = trained
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                     "--data", str(data), "--out", str(out)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_eval_dumps_confidence_maps(tmp_path, trained):
    data, run = trained
    conf_dir = tmp_path / "conf"
    assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                 "--data", str(data), "--out", str(tmp_path / "s.csv"),
                 "--dump-confidence", str(conf_dir)]) == EXIT_OK
    conf = read_ctsr(conf_dir / "00000.ctsr")
    assert conf.shape == (64, 64)
    assert conf.min() >= 0.0 and conf.max() <= 1.0


def copy_dataset_with_gt(data, dest, value):
    """A copy of the dataset whose first ground-truth mask has 5 pixels of `value`."""
    shutil.copytree(data, dest)
    gt_file = (dest / "manifest.txt").read_text().splitlines()[1].split("\t")[2]
    gt = read_pgm(dest / gt_file).copy()
    gt[0, :5] = value
    write_pgm(dest / gt_file, gt)
    return dest


def test_eval_scores_ground_truth_with_ignore_pixels(tmp_path, trained):
    data, run = trained
    ign = copy_dataset_with_gt(data, tmp_path / "ign", IGNORE)
    out = tmp_path / "s.csv"
    assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                 "--data", str(ign), "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 4 + 1


def test_eval_rejects_a_class_beyond_the_checkpoint(tmp_path, trained, capsys):
    data, run = trained
    bad = copy_dataset_with_gt(data, tmp_path / "bad", 4)  # the checkpoint has K=4
    assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                 "--data", str(bad), "--out", str(tmp_path / "s.csv")]) == EXIT_DATA
    assert "exceed checkpoint class count" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_malformed_dataset_manifest_line_is_a_data_error(tmp_path, trained, capsys,
                                                         command):
    data, run = trained
    bad = tmp_path / "bad"
    shutil.copytree(data, bad)
    manifest = bad / "manifest.txt"
    lines = manifest.read_text().splitlines()
    lines[2] = lines[2].split("\t")[0] + "\tonly-two-fields"
    manifest.write_text("\n".join(lines) + "\n")
    out = ["--out", str(tmp_path / "out")]
    argv = (["train", "--data", str(bad), "--epochs", "1", *out] if command == "train"
            else ["eval", "--checkpoint", str(run / "checkpoint"), "--data", str(bad), *out])
    assert main(argv) == EXIT_DATA
    assert f"{manifest}:3: expected 5 tab-separated fields, got 2" in capsys.readouterr().err


def test_eval_missing_checkpoint(tmp_path, trained):
    data, _ = trained
    code = main(["eval", "--checkpoint", str(tmp_path / "nope"),
                 "--data", str(data), "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_DATA


@pytest.mark.parametrize("size", [0, 6, 11, 20, 40])
def test_eval_rejects_truncated_parameter_file(tmp_path, trained, capsys, size):
    data, run = trained
    ckpt = tmp_path / "ckpt"
    shutil.copytree(run / "checkpoint", ckpt)
    param = ckpt / "dec.bnd1.w.ctsr"
    param.write_bytes(param.read_bytes()[:size])
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_DATA
    assert "dec.bnd1.w.ctsr" in capsys.readouterr().err


def copy_checkpoint(run, dest, edit):
    """A copy of the run's checkpoint with `edit` applied to the text of
    its model_config.txt."""
    shutil.copytree(run / "checkpoint", dest)
    cfg = dest / "model_config.txt"
    cfg.write_text(edit(cfg.read_text()))
    return dest


@pytest.mark.parametrize("edit", [
    lambda t: t + "momentum=0.9\n",                      # unknown key
    lambda t: t + "boundary_tap=e1\n",                   # knob that is gone
    lambda t: t.replace("use_bnd=True", "use_bnd=on"),   # not a bool word
    lambda t: t.replace("width=32", "width"),            # no "="
    lambda t: t.replace("num_classes=4", "num_classes=4.0"),
    lambda t: t.replace("dtype=float32", "dtype=float16"),
    lambda t: t.replace("seed=0\n", ""),                 # missing key
    lambda t: t + "seed=1\n",                            # repeated key
    lambda t: t.replace("seed=0\n", "seed=-1\n"),
], ids=["unknown", "boundary_tap", "bool", "no-equals", "int", "dtype",
        "missing", "repeated", "seed-neg"])
def test_eval_rejects_bad_model_config(tmp_path, trained, capsys, edit):
    data, run = trained
    ckpt = copy_checkpoint(run, tmp_path / "ckpt", edit)
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_DATA
    assert "model_config.txt" in capsys.readouterr().err


def test_eval_reads_bools_in_any_spelling(tmp_path, trained):
    data, run = trained
    ckpt = copy_checkpoint(run, tmp_path / "ckpt",
                           lambda t: t.replace("=True", "=true").replace("=False", "=no"))
    assert "use_bnd=true" in (ckpt / "model_config.txt").read_text()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                 "--data", str(data), "--out", str(a)]) == EXIT_OK
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(data), "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_metrics_scores_mask_dirs(tmp_path):
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    os.makedirs(gt_dir)
    os.makedirs(pred_dir)
    m = np.zeros((16, 16), dtype=np.uint8)
    m[4:12, 4:12] = 1
    write_pgm(gt_dir / "x.pgm", m)
    write_pgm(pred_dir / "x.pgm", m)
    out = tmp_path / "m.csv"
    code = main(["metrics", "--pred", str(pred_dir), "--gt", str(gt_dir),
                 "--classes", "2", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[1] == "1.000000"  # perfect miou on identical masks


def test_metrics_reports_error_rows(tmp_path, capsys):
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    os.makedirs(gt_dir)
    os.makedirs(pred_dir)
    write_pgm(gt_dir / "x.pgm", np.zeros((8, 8), dtype=np.uint8))
    write_pgm(pred_dir / "x.pgm", np.zeros((4, 4), dtype=np.uint8))
    code = main(["metrics", "--pred", str(pred_dir), "--gt", str(gt_dir),
                 "--classes", "2", "--out", str(tmp_path / "m.csv")])
    assert code == EXIT_DATA
    assert "shape mismatch" in capsys.readouterr().err


def test_metrics_empty_dirs(tmp_path, capsys):
    os.makedirs(tmp_path / "gt")
    os.makedirs(tmp_path / "pred")
    code = main(["metrics", "--pred", str(tmp_path / "pred"),
                 "--gt", str(tmp_path / "gt"), "--classes", "2",
                 "--out", str(tmp_path / "m.csv")])
    assert code == EXIT_DATA


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_CHECK) == (0, 1, 2, 3)
