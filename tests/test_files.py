"""Artifact files: atomic writes leave the old file or the whole new one,
no module writes a file any other way, and float64 text is exact and
strict."""

import ast
import base64
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import megraph.files
import megraph.landmarks
from megraph.config import ExperimentConfig, load_config, save_config
from megraph.files import (
    atomic_write,
    atomic_write_text,
    decode_float64,
    encode_float64,
    read_text,
)
from megraph.landmarks import load_samples, save_samples, synthesize_dataset
from megraph.params import read_checkpoint, write_checkpoint
from megraph.training import CURVE_COLUMNS, write_curves

SRC = Path(megraph.files.__file__).parent


class Injected(Exception):
    pass


def leftovers(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


class TestAtomicWrite:
    def test_success_replaces_the_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        atomic_write_text(path, "new é\n")
        assert path.read_bytes() == "new é\n".encode("utf-8")
        assert leftovers(tmp_path) == []

    @pytest.mark.parametrize("existed", [True, False])
    def test_failure_mid_write_keeps_the_old_file(self, tmp_path, existed):
        path = tmp_path / "out.txt"
        if existed:
            path.write_text("old\n")
        with pytest.raises(Injected):
            with atomic_write(path) as fh:
                fh.write("partial")
                fh.flush()
                assert leftovers(tmp_path)  # the write goes to a temporary file
                raise Injected
        if existed:
            assert path.read_text() == "old\n"
        else:
            assert not path.exists()
        assert leftovers(tmp_path) == []

    def test_failed_replace_removes_the_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(megraph.files.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            atomic_write_text(path, "new\n")
        assert path.read_text() == "old\n"
        assert leftovers(tmp_path) == []

    def test_a_missing_directory_names_the_target(self, tmp_path):
        path = tmp_path / "absent" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            atomic_write_text(path, "new\n")
        assert info.value.filename == str(path) and str(path) in str(info.value)

    def test_a_name_too_long_names_the_target_and_leaves_nothing(self, tmp_path):
        # the temporary ".<name>.<pid>.tmp" cannot be opened, nor unlinked;
        # the first error is the one raised, naming the target
        path = tmp_path / ("x" * 250)
        with pytest.raises(OSError) as info:
            atomic_write_text(path, "new\n")
        assert info.value.filename == str(path)
        assert list(tmp_path.iterdir()) == []

    def test_writers_fail_without_touching_their_file(self, tmp_path, monkeypatch):
        samples = synthesize_dataset(n_subjects=2, samples_per_subject=2)
        data, curves, ckpt = (tmp_path / n for n in ("d.jsonl", "c.csv", "w.json"))
        save_samples(samples, data)
        write_curves(curves, [("s01", dict.fromkeys(CURVE_COLUMNS, 1.0))])
        write_checkpoint({"w": [[1.0, 2.0]]}, ckpt)
        before = {p: p.read_bytes() for p in (data, curves, ckpt)}

        real_dumps = json.dumps
        written = []

        def fail_on_the_second_record(obj, *args, **kwargs):
            written.append(obj)
            if len(written) == 2:
                raise Injected
            return real_dumps(obj, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(megraph.landmarks.json, "dumps", fail_on_the_second_record)
            with pytest.raises(Injected):
                save_samples(samples, data)
        with pytest.raises(KeyError):  # a row without its "total" column
            write_curves(curves, [("s01", dict.fromkeys(CURVE_COLUMNS, 2.0)),
                                  ("s02", {"step": 1})])
        with pytest.raises(TypeError):
            write_checkpoint({"w": [[3.0, 4.0]], "x": object()}, ckpt)
        assert {p: p.read_bytes() for p in before} == before
        assert leftovers(tmp_path) == []


class TestUndecodableBytes:
    def test_each_reader_names_the_file(self, tmp_path):
        config, ckpt, data = (tmp_path / n for n in ("c.json", "w.json", "d.jsonl"))
        save_config(ExperimentConfig(), config)
        write_checkpoint({"w": [[1.0]]}, ckpt)
        save_samples(synthesize_dataset(n_subjects=1, samples_per_subject=2), data)
        for path in (config, ckpt, data):
            raw = path.read_bytes()
            path.write_bytes(raw[:-2] + b"\xff" + raw[-1:])
        for read, path, where in ((load_config, config, f"{config}"),
                                  (read_checkpoint, ckpt, f"{ckpt}"),
                                  (load_samples, data, f"{data}:2")):
            with pytest.raises(ValueError) as info:
                read(path)
            assert str(info.value).startswith(f"{where}: not UTF-8 text: ")

    def test_text_is_read_as_utf8(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_bytes(json.dumps({"name": "é"}, ensure_ascii=False).encode())
        assert json.loads(read_text(path)) == {"name": "é"}


class TestFloat64Text:
    def test_values_round_trip_bit_for_bit(self):
        values = np.array([[-0.0, 5e-324], [1.5, -1.7976931348623157e308]])
        text = encode_float64(values)
        assert text == base64.b64encode(values.astype("<f8").tobytes()).decode()
        back = decode_float64(text, (2, 2), "here")
        assert back.tobytes() == values.tobytes()
        # a view of the decoded bytes: callers that keep it copy it
        assert back.dtype == np.float64 and not back.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.text(alphabet="AQgw+/=\n -_é", max_size=24)
        | st.binary(max_size=24).map(lambda raw: base64.b64encode(raw).decode())
    )
    def test_decoding_is_as_strict_as_validated_b64decode(self, text):
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError:
            with pytest.raises(ValueError) as info:
                decode_float64(text, (0,), "here")
            assert str(info.value) == "here: values must be a strict base64 string"
            return
        shape = (len(raw) // 8,)
        if len(raw) % 8:
            with pytest.raises(ValueError) as info:
                decode_float64(text, shape, "here")
            assert str(info.value) == (
                f"here: {len(raw)} bytes do not fill float64 shape {shape}"
            )
        else:
            assert decode_float64(text, shape, "here").tobytes() == raw


WRITE_ATTRS = {"write_text", "write_bytes"}


def _mode(call: ast.Call, index: int):
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    return call.args[index] if len(call.args) > index else None


def direct_writes(tree: ast.AST, exempt: str | None = None) -> list[int]:
    """Line numbers of file writes that bypass ``exempt`` (a function name):
    ``open`` or ``.open`` with a write mode, ``.write_text`` or ``.write_bytes``."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == exempt:
            skip.update(id(n) for n in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skip:
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in WRITE_ATTRS:
            found.append(node.lineno)
            continue
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _mode(node, 1)
        elif isinstance(func, ast.Attribute) and func.attr in ("open", "fdopen"):
            mode = _mode(node, 1 if func.attr == "fdopen" else 0)
        else:
            continue
        if mode is None:
            continue  # read-only default
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            found.append(node.lineno)  # a mode that cannot be checked
        elif set(mode.value) & set("wax+"):
            found.append(node.lineno)
    return found


class TestNoDirectWrites:
    def test_the_scan_sees_every_form(self):
        source = """
open(p, "w"); open(p, mode="a"); open(p, "r+"); open(p, m)
p.open("wb"); os.fdopen(fd, "x"); p.write_text(s); p.write_bytes(b)
open(p); open(p, "rb"); p.open(); p.read_text()
def atomic_write(path):
    open(path, "w")
"""
        assert direct_writes(ast.parse(source), exempt="atomic_write") == (
            [2, 2, 2, 2, 3, 3, 3, 3]
        )

    def test_only_the_atomic_helper_writes_files(self):
        files = sorted(SRC.glob("*.py"))
        assert SRC / "files.py" in files
        offenders = {
            path.name: lines
            for path in files
            if (lines := direct_writes(
                ast.parse(path.read_text(encoding="utf-8")),
                exempt="atomic_write" if path.name == "files.py" else None,
            ))
        }
        assert offenders == {}
