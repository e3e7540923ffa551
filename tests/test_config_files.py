"""Property tests of the two key=value files: a checkpoint's
model_config.txt and a training `--config` file. Broken files raise
ValueError, and through the command line they exit 2 without a traceback."""

import dataclasses
import string
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crispdec.cli import EXIT_DATA, EXIT_OK, main
from crispdec.loop import TrainConfig, parse_config
from crispdec.model import ModelConfig, SegModel

PROPERTY = settings(max_examples=40, deadline=None)
BOOL_WORDS = {"true", "false", "1", "0", "yes", "no"}


def kinds(cls):
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def default_lines(cfg) -> list[str]:
    return [f"{key}={val}" for key, val in vars(cfg).items()]


letters = st.text(alphabet=string.ascii_letters, min_size=1, max_size=8)


def bad_values(kind):
    """Values that no field of type `kind` accepts (for str, the only str
    field is dtype, which ModelConfig limits to float32/float64)."""
    if kind is bool:
        return st.one_of(letters.filter(lambda w: w.lower() not in BOOL_WORDS),
                         st.integers().filter(lambda i: i not in (0, 1)).map(str),
                         st.sampled_from(["", "on", "off", "1.0", "y", "True!"]))
    if kind is int:
        return st.one_of(letters, st.sampled_from(["", "1.0", "0x10", "1e3", "2.5"]))
    if kind is float:
        # letters spell at most nan/inf/infinity, which are not finite
        return st.one_of(letters, st.sampled_from(["", "1,5", "1.0.0", "-inf", "NaN"]))
    return letters


def unknown_keys(cls):
    return st.from_regex(r"[a-z_][a-z0-9_]{0,15}", fullmatch=True).filter(
        lambda k: k not in kinds(cls))


@st.composite
def broken_lines(draw, cls):
    """One line that `cls`'s file must reject: an unknown key, a bad value
    for a known key, or no "=" at all."""
    choice = draw(st.sampled_from(["unknown", "value", "no-equals"]))
    if choice == "unknown":
        return f"{draw(unknown_keys(cls))}={draw(st.text(string.printable[:94]))}"
    key, kind = draw(st.sampled_from(sorted(kinds(cls).items())))
    if choice == "value":
        return f"{key}={draw(bad_values(kind))}"
    return draw(st.sampled_from([key, key[:max(1, len(key) // 2)]]))


@st.composite
def with_line(draw, lines, bad):
    """`lines` with `bad` inserted at a drawn position; a bad line for a
    key that `lines` already holds replaces it instead."""
    lines = list(lines)
    key = bad.partition("=")[0]
    same = [i for i, line in enumerate(lines) if line.partition("=")[0] == key]
    if same and "=" in bad:
        lines[same[0]] = bad
    else:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines) + "\n"


# --- model_config.txt ----------------------------------------------------------

@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A small checkpoint and a one-scene dataset to evaluate it on."""
    root = tmp_path_factory.mktemp("config_files")
    SegModel(ModelConfig(width=4, dtype="float32")).save(str(root / "checkpoint"))
    assert main(["gen", "--out", str(root / "data"), "--n", "1"]) == EXIT_OK
    return root


def assert_rejected(root, content: bytes):
    """The checkpoint with `content` as its model_config.txt raises
    ValueError on load and makes `crispdec eval` exit 2."""
    cfg_path = root / "checkpoint" / "model_config.txt"
    good = cfg_path.read_bytes()
    cfg_path.write_bytes(content)
    try:
        with pytest.raises(ValueError):
            SegModel.from_checkpoint(str(root / "checkpoint"))
        assert main(["eval", "--checkpoint", str(root / "checkpoint"),
                     "--data", str(root / "data"),
                     "--out", str(root / "scores.csv")]) == EXIT_DATA
    finally:
        cfg_path.write_bytes(good)


def test_saved_model_config_loads(checkpoint):
    model = SegModel.from_checkpoint(str(checkpoint / "checkpoint"))
    assert model.cfg == ModelConfig(width=4, dtype="float32")
    assert main(["eval", "--checkpoint", str(checkpoint / "checkpoint"),
                 "--data", str(checkpoint / "data"),
                 "--out", str(checkpoint / "scores.csv")]) == EXIT_OK


@PROPERTY
@given(content=st.binary(max_size=300))
def test_garbage_model_config_is_rejected(checkpoint, content):
    assert_rejected(checkpoint, content)


@PROPERTY
@given(data=st.data())
def test_truncated_model_config_is_rejected(checkpoint, data):
    text = (checkpoint / "checkpoint" / "model_config.txt").read_text()
    # every cut before the final newline loses a key or part of a value
    cut = data.draw(st.integers(0, len(text) - 2))
    assert_rejected(checkpoint, text[:cut].encode())


@PROPERTY
@given(data=st.data())
def test_model_config_with_a_broken_line_is_rejected(checkpoint, data):
    lines = default_lines(ModelConfig(width=4, dtype="float32"))
    content = data.draw(with_line(lines, data.draw(broken_lines(ModelConfig))))
    assert_rejected(checkpoint, content.encode())


# --- training --config files ----------------------------------------------------

def assert_config_rejected(root, content: str):
    path = root / "train.cfg"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError):
        parse_config(path)
    assert main(["train", "--data", str(root / "data"), "--out", str(root / "run"),
                 "--config", str(path)]) == EXIT_DATA


@PROPERTY
@given(data=st.data())
def test_config_with_a_broken_line_is_rejected(checkpoint, data):
    lines = data.draw(st.lists(st.sampled_from(default_lines(TrainConfig())),
                               unique=True, max_size=6))
    content = data.draw(with_line(lines, data.draw(broken_lines(TrainConfig))))
    assert_config_rejected(checkpoint, content)


@PROPERTY
@given(data=st.data())
def test_truncated_config_is_rejected(checkpoint, data):
    lines = data.draw(st.lists(st.sampled_from(default_lines(TrainConfig())),
                               unique=True, max_size=6))
    last = data.draw(st.sampled_from(default_lines(TrainConfig())))
    # cut inside the key of the last line, before its "="
    cut = data.draw(st.integers(1, last.index("=")))
    assert_config_rejected(checkpoint, "\n".join(lines + [last[:cut]]))
