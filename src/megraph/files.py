"""Artifact files: atomic UTF-8 writes, and reads that name an undecodable file."""

import json
import os
from contextlib import contextmanager
from pathlib import Path


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
