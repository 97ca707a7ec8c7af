"""Artifact files: atomic UTF-8 writes, reads that name an undecodable file,
and the exact base64 text of float64 arrays."""

import base64
import json
import math
import os
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np


@contextmanager
def atomic_write(path, newline: str | None = None):
    """A UTF-8 text handle on a temporary file beside ``path`` that replaces
    ``path`` on success; on failure ``path`` is untouched and the file removed."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # a name too long to open is too long to unlink
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            exc.filename = str(path)  # name the target, not the temporary file
        raise


def atomic_write_text(path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def read_json(path):
    """The JSON value of a UTF-8 file; text that does not parse, or nests
    deeper than the parser can recurse, is a ValueError naming the file."""
    try:
        return json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def encode_float64(values) -> str:
    """The base64 of ``values`` as C-order little-endian float64 bytes: exact,
    and about 1.35 characters per byte."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def decode_float64(text, shape, where: str) -> np.ndarray:
    """The float64 array of ``shape`` that :func:`encode_float64` wrote as
    ``text``. Anything but strict base64 (only the alphabet, padding only at
    the end) is a ValueError naming ``where``, as are bytes that do not fill
    ``shape`` and a shape numpy cannot hold. The array is a read-only view
    of the decoded bytes."""
    try:
        raw = base64.b64decode(text, validate=True)  # a list is a TypeError
    except (TypeError, ValueError):
        raise ValueError(f"{where}: values must be a strict base64 string") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{where}: {len(raw)} bytes do not fill float64 shape {shape}")
    try:  # such as a shape with a zero and a dimension past numpy's limit
        return np.frombuffer(raw, "<f8").reshape(shape)
    except ValueError:
        raise ValueError(f"{where}: numpy cannot hold shape {shape}") from None
