"""On-disk formats: CTSR tensor files, P5 PGM masks, parameter checkpoints,
and typed key=value config files.

CTSR layout: magic "CTSR", u32 version=1, u32 rank, u64 extents[rank],
then the payload as little-endian IEEE-754 f32 in row-major order.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
import struct
import typing

import numpy as np

CTSR_MAGIC = b"CTSR"
CTSR_VERSION = 1

IGNORE = 255  # label sentinel in PGM masks and label maps


class FormatError(ValueError):
    pass


def write_ctsr(path, array: np.ndarray) -> None:
    arr = np.asarray(array, dtype="<f4", order="C")
    with open(path, "wb") as fh:
        fh.write(CTSR_MAGIC)
        fh.write(struct.pack("<II", CTSR_VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.tobytes())


def read_ctsr(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CTSR_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header")
    version, rank = struct.unpack_from("<II", data, 4)
    if version != CTSR_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    start = 12 + 8 * rank
    if len(data) < start:
        raise FormatError(f"{path}: truncated header")
    shape = struct.unpack_from(f"<{rank}Q", data, 12)
    count = math.prod(shape)
    if len(data) - start < 4 * count:
        raise FormatError(f"{path}: truncated payload")
    try:
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=start).reshape(shape)
    except ValueError as exc:  # e.g. zero-size with extents too large to index
        raise FormatError(f"{path}: shape {shape}: {exc}") from None
    return arr.copy()


def write_pgm(path, labels: np.ndarray) -> None:
    """8-bit binary PGM; pixel value = class index, 255 = IGNORE."""
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise FormatError("PGM masks are 2-D")
    if arr.min() < 0 or arr.max() > 255:
        raise FormatError("labels must fit in a byte")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(arr.astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    # at most 9 digits a number, so int() stays well inside its limits
    m = re.match(rb"P5\s+(?:#[^\n]*\n\s*)*(\d{1,9})\s+(\d{1,9})\s+(\d{1,9})\s", data)
    if not m:
        raise FormatError(f"{path}: not a binary PGM")
    w, h, maxval = (int(x) for x in m.groups())
    if maxval != 255:
        raise FormatError(f"{path}: expected maxval 255, got {maxval}")
    pixels = np.frombuffer(data[m.end():m.end() + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise FormatError(f"{path}: truncated pixel data")
    return pixels.reshape(h, w).copy()


# -- parameter checkpoints -------------------------------------------------------
#
# A checkpoint is a directory of CTSR files plus manifest.txt with one
# "name<TAB>shape<TAB>role" line per parameter. Round-trips bit-exactly
# at f32.


def save_checkpoint(directory, params: dict, roles: dict | None = None) -> None:
    os.makedirs(directory, exist_ok=True)
    lines = []
    for name in sorted(params):
        arr = params[name].data if hasattr(params[name], "data") else params[name]
        arr = np.asarray(arr)
        write_ctsr(os.path.join(directory, name + ".ctsr"), arr)
        role = (roles or {}).get(name, "parameter")
        shape = "x".join(str(s) for s in arr.shape)
        lines.append(f"{name}\t{shape}\t{role}")
    with open(os.path.join(directory, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


_MANIFEST_LINE = re.compile(r"([A-Za-z0-9_.]+)\t((?:\d{1,9}(?:x\d{1,9})*)?)\t[^\t]*")


def load_checkpoint(directory) -> dict:
    """Parameter arrays by name; a manifest or CTSR file that does not
    parse, a manifest line naming no file, or a non-finite parameter
    raises FormatError."""
    manifest = os.path.join(directory, "manifest.txt")
    if not os.path.exists(manifest):
        raise FormatError(f"{directory}: missing manifest.txt")
    out = {}
    # bytes that are not UTF-8 decode to U+FFFD, which no name or shape matches
    with open(manifest, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            m = _MANIFEST_LINE.fullmatch(line)
            if not m:
                raise FormatError(f"{manifest}:{lineno}: expected name<TAB>shape<TAB>role")
            name, shape_s = m.groups()
            path = os.path.join(directory, name + ".ctsr")
            if not os.path.isfile(path):
                raise FormatError(f"{manifest}:{lineno}: no file {name}.ctsr")
            arr = read_ctsr(path)
            expect = tuple(int(s) for s in shape_s.split("x")) if shape_s else ()
            if arr.shape != expect:
                raise FormatError(f"{name}: manifest shape {expect} != file shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise FormatError(f"{path}: non-finite parameter values")
            out[name] = arr
    return out


# -- key=value config files ------------------------------------------------------
#
# UTF-8 text, one "key=value" per line; blank lines and "#" comments are
# skipped. Training configs (`--config`) and checkpoints' model_config.txt
# use this format.

_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def _parse_value(text: str, kind):
    if kind is bool:
        if text.lower() not in _BOOL_WORDS:
            raise ValueError("expected true/false/1/0/yes/no")
        return _BOOL_WORDS[text.lower()]
    if kind is float:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("expected a finite number")
        return value
    return kind(text)  # int or str


def read_fields(path, cls) -> dict:
    """Values for fields of the dataclass `cls` from a key=value file,
    each converted by its field's type (bool, int, float or str). An
    unknown or repeated key, a line without "=", or a value that does not
    convert raises FormatError naming the file and line. Keys the file
    leaves out are absent from the result."""
    hints = typing.get_type_hints(cls)
    kinds = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        key, sep, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if not sep:
            raise FormatError(f"{where}: expected key=value")
        if key not in kinds:
            raise FormatError(f"{where}: unknown key {key!r}")
        if key in out:
            raise FormatError(f"{where}: repeated key {key!r}")
        try:
            out[key] = _parse_value(text, kinds[key])
        except ValueError as exc:
            raise FormatError(f"{where}: {key}={text!r}: {exc}") from None
    return out
