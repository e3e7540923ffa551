import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crispdec.fileio import (
    IGNORE,
    FormatError,
    load_checkpoint,
    read_ctsr,
    read_pgm,
    save_checkpoint,
    write_ctsr,
    write_pgm,
)


def test_ctsr_roundtrip_f32_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((2, 3, 4)).astype(np.float32)
    p = tmp_path / "t.ctsr"
    write_ctsr(p, arr)
    back = read_ctsr(p)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr)


def test_ctsr_header_layout(tmp_path):
    p = tmp_path / "t.ctsr"
    write_ctsr(p, np.zeros((3, 5), dtype=np.float32))
    raw = p.read_bytes()
    assert raw[:4] == b"CTSR"
    version, rank = struct.unpack("<II", raw[4:12])
    assert version == 1 and rank == 2
    assert struct.unpack("<2Q", raw[12:28]) == (3, 5)
    assert len(raw) == 28 + 4 * 15


def test_ctsr_scalar_rank0(tmp_path):
    p = tmp_path / "s.ctsr"
    write_ctsr(p, np.float32(2.5))
    back = read_ctsr(p)
    assert back.shape == () and back == np.float32(2.5)


def test_ctsr_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.ctsr"
    p.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError):
        read_ctsr(p)


def test_ctsr_bad_version_rejected(tmp_path):
    p = tmp_path / "v.ctsr"
    p.write_bytes(b"CTSR" + struct.pack("<II", 99, 0))
    with pytest.raises(FormatError):
        read_ctsr(p)


def test_ctsr_truncated_payload_rejected(tmp_path):
    p = tmp_path / "t.ctsr"
    write_ctsr(p, np.ones(10, dtype=np.float32))
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_ctsr(p)


def test_pgm_roundtrip_with_ignore(tmp_path):
    lab = np.array([[0, 1, 2], [3, IGNORE, 0]], dtype=np.uint8)
    p = tmp_path / "m.pgm"
    write_pgm(p, lab)
    back = read_pgm(p)
    np.testing.assert_array_equal(back, lab)
    assert back.dtype == np.uint8


def test_pgm_header_is_p5(tmp_path):
    p = tmp_path / "m.pgm"
    write_pgm(p, np.zeros((2, 4), dtype=np.uint8))
    assert p.read_bytes().startswith(b"P5\n4 2\n255\n")


def test_pgm_rejects_3d():
    with pytest.raises(FormatError):
        write_pgm("/dev/null", np.zeros((2, 2, 2)))


def test_pgm_rejects_out_of_range():
    with pytest.raises(FormatError):
        write_pgm("/dev/null", np.array([[300]]))


def test_pgm_read_rejects_ascii_variant(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(FormatError):
        read_pgm(p)


def test_pgm_read_rejects_truncated(tmp_path):
    p = tmp_path / "t.pgm"
    write_pgm(p, np.zeros((4, 4), dtype=np.uint8))
    p.write_bytes(p.read_bytes()[:-5])
    with pytest.raises(FormatError):
        read_pgm(p)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    params = {"a.w": rng.standard_normal((2, 3)).astype(np.float32),
              "b.b": rng.standard_normal(4).astype(np.float32)}
    d = tmp_path / "ckpt"
    save_checkpoint(d, params, {"a.w": "weight", "b.b": "bias"})
    back = load_checkpoint(d)
    assert set(back) == set(params)
    for k in params:
        np.testing.assert_array_equal(back[k], params[k])


def test_checkpoint_manifest_lists_all_params(tmp_path):
    d = tmp_path / "ckpt"
    save_checkpoint(d, {"x": np.zeros(3, dtype=np.float32)})
    lines = (d / "manifest.txt").read_text().strip().splitlines()
    assert lines == ["x\t3\tparameter"]


def test_checkpoint_missing_manifest_rejected(tmp_path):
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_parameter_rejected(tmp_path, bad):
    d = tmp_path / "ckpt"
    save_checkpoint(d, {"a": np.ones(3, dtype=np.float32),
                        "b": np.array([0.5, bad, 2.0], dtype=np.float32)})
    with pytest.raises(FormatError, match=re.escape(f"{d / 'b.ctsr'}: non-finite")):
        load_checkpoint(d)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    d = tmp_path / "ckpt"
    save_checkpoint(d, {"x": np.zeros((2, 2), dtype=np.float32)})
    write_ctsr(d / "x.ctsr", np.zeros(4, dtype=np.float32))
    with pytest.raises(FormatError):
        load_checkpoint(d)


# -- truncated and garbage input: FormatError and nothing else ------------------------

PROPERTY = settings(max_examples=60, deadline=None)
shapes = st.lists(st.integers(0, 5), max_size=4).map(tuple)
CTSR_PREFIXES = [b"", b"CTSR", b"CTSR" + struct.pack("<I", 1)] + [
    b"CTSR" + struct.pack("<II", 1, rank) for rank in (0, 1, 2, 3, 2**31)]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


def ctsr_bytes(scratch, shape):
    p = scratch / "full.ctsr"
    write_ctsr(p, np.arange(int(np.prod(shape)), dtype=np.float32).reshape(shape))
    return p.read_bytes()


def read_or_format_error(reader, path):
    """The reader's result, or None when it raised FormatError; any other
    exception propagates and fails the test."""
    try:
        return reader(path)
    except FormatError:
        return None


@PROPERTY
@given(shape=shapes, data=st.data())
def test_truncated_ctsr_raises_format_error(scratch, shape, data):
    full = ctsr_bytes(scratch, shape)
    p = scratch / "cut.ctsr"
    p.write_bytes(full[:data.draw(st.integers(0, len(full) - 1))])
    with pytest.raises(FormatError):
        read_ctsr(p)


@PROPERTY
@given(prefix=st.sampled_from(CTSR_PREFIXES), tail=st.binary(max_size=120))
def test_garbage_ctsr_raises_only_format_error(scratch, prefix, tail):
    p = scratch / "garbage.ctsr"
    p.write_bytes(prefix + tail)
    arr = read_or_format_error(read_ctsr, p)
    assert arr is None or arr.dtype == np.float32


@PROPERTY
@given(h=st.integers(1, 6), w=st.integers(1, 6), data=st.data())
def test_truncated_pgm_raises_format_error(scratch, h, w, data):
    p = scratch / "cut.pgm"
    write_pgm(p, np.ones((h, w), dtype=np.uint8))
    full = p.read_bytes()
    p.write_bytes(full[:data.draw(st.integers(0, len(full) - 1))])
    with pytest.raises(FormatError):
        read_pgm(p)


@PROPERTY
@given(prefix=st.sampled_from([b"", b"P5\n", b"P5\n3 2\n", b"P5\n3 2\n255\n",
                                b"P5\n" + b"9" * 5000 + b" 1\n255\n"]),
       tail=st.binary(max_size=60))
def test_garbage_pgm_raises_only_format_error(scratch, prefix, tail):
    p = scratch / "garbage.pgm"
    p.write_bytes(prefix + tail)
    arr = read_or_format_error(read_pgm, p)
    assert arr is None or (arr.dtype == np.uint8 and arr.ndim == 2)


@pytest.fixture(scope="module")
def ckpt(scratch):
    """A two-parameter checkpoint; its files' bytes are restored after
    each example."""
    d = scratch / "ckpt"
    save_checkpoint(d, {"enc.w": np.ones((2, 3), dtype=np.float32),
                        "dec.b": np.zeros(4, dtype=np.float32)})
    return d


def load_with(ckpt, name, content):
    """load_checkpoint with `name`'s bytes replaced by `content`, or None
    when it raised FormatError."""
    path = ckpt / name
    good = path.read_bytes()
    path.write_bytes(content)
    try:
        return read_or_format_error(load_checkpoint, ckpt)
    finally:
        path.write_bytes(good)


@PROPERTY
@given(name=st.sampled_from(["enc.w.ctsr", "dec.b.ctsr"]), data=st.data())
def test_checkpoint_with_truncated_parameter_raises_format_error(ckpt, name, data):
    full = (ckpt / name).read_bytes()
    cut = data.draw(st.integers(0, len(full) - 1))
    assert load_with(ckpt, name, full[:cut]) is None


@PROPERTY
@given(data=st.data())
def test_checkpoint_with_truncated_manifest_raises_only_format_error(ckpt, data):
    full = (ckpt / "manifest.txt").read_bytes()
    state = load_with(ckpt, "manifest.txt", full[:data.draw(st.integers(0, len(full)))])
    # a cut at a line end, or inside a role (which loading ignores), leaves
    # a valid manifest; what loads is then what was saved
    if state is not None:
        saved = {"enc.w": np.ones((2, 3)), "dec.b": np.zeros(4)}
        assert set(state) <= set(saved)
        for name, arr in state.items():
            np.testing.assert_array_equal(arr, saved[name])


@PROPERTY
@given(name=st.sampled_from(["manifest.txt", "enc.w.ctsr"]),
       content=st.one_of(st.binary(max_size=200),
                         st.text(alphabet="ab.\t\n\x00x1/", max_size=60).map(str.encode)))
def test_checkpoint_with_garbage_file_raises_only_format_error(ckpt, name, content):
    state = load_with(ckpt, name, content)
    assert state is None or isinstance(state, dict)
