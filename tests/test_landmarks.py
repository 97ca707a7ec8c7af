"""Keyframe samples: validation, serialization, motion ops, synthesis."""

import base64
import hashlib
import json
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import megraph.landmarks
from megraph.landmarks import (
    MOTION_PATTERNS,
    N_FRAMES,
    N_LANDMARKS,
    PATTERN_NAMES,
    SampleError,
    SampleSet,
    crop_jitter,
    finite_samples,
    load_samples,
    magnify,
    neutral_face_template,
    sample_lines,
    save_samples,
    synthesize_dataset,
)


def make_frames(seed=42):
    rng = np.random.default_rng(seed)
    return neutral_face_template() + rng.normal(0.0, 1.0, (3, 68, 2))


def make_samples(subjects=("s01",), labels=None, seed=42):
    """One sample per subject; sample i has label i % 2 and frames drawn
    from seed + i."""
    labels = [i % 2 for i in range(len(subjects))] if labels is None else labels
    frames = [make_frames(seed + i) for i in range(len(subjects))]
    return SampleSet(frames, labels, subjects)


GOOD_RECORD = {"subject": "s01", "label": 0, "frames": make_frames().tolist()}
V1_SAMPLES = Path(__file__).parent / "data" / "samples_v1.jsonl"


def b64(values) -> str:
    """base64 of C-order little-endian float64 values, as save_samples
    writes a sample's frames."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def nested_jsonl(samples) -> str:
    """JSONL text of ``samples`` with each sample's frames as nested lists."""
    columns = samples.subjects.tolist(), samples.labels.tolist(), samples.frames
    return "".join(
        json.dumps({"subject": s, "label": y, "frames": f.tolist()}) + "\n"
        for s, y, f in zip(*columns)
    )


class TestLandmarkSample:
    def test_shape_enforced(self):
        for shape in ((1, 3, 67, 2), (1, 2, 68, 2), (3, 68, 2)):
            with pytest.raises(ValueError, match="shape"):
                SampleSet(np.zeros(shape), [0], ["s01"])

    def test_columns_must_have_one_entry_per_sample(self):
        frames = np.zeros((2, 3, 68, 2))
        for labels, subjects in (([0], ["s01", "s02"]), ([0, 1], ["s01"])):
            with pytest.raises(ValueError, match="one label and one subject"):
                SampleSet(frames, labels, subjects)

    def test_non_finite_rejected(self):
        frames = np.zeros((3, 3, 68, 2))
        frames[1, 1, 5, 0] = np.nan
        with pytest.raises(SampleError, match="sample 's02': non-finite") as info:
            SampleSet(frames, [0, 0, 0], ["s01", "s02", "s03"])
        assert info.value.index == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_each_kind_of_non_finite_value_names_its_sample(self, bad):
        frames = np.zeros((4, 3, 68, 2))
        frames[2, 2, 67, 1] = bad
        frames[3, 0, 0, 0] = bad
        assert finite_samples(frames).tolist() == [True, True, False, False]
        message = "^sample 's03': non-finite coordinates$"
        with pytest.raises(SampleError, match=message) as info:
            SampleSet(frames, [0, 0, 0, 0], ["s01", "s02", "s03", "s04"])
        assert info.value.index == 2

    def test_the_finite_check_holds_no_bool_per_coordinate(self, traced_peak):
        frames = synthesize_dataset(n_subjects=10, samples_per_subject=100, seed=0).frames
        finite, peak = traced_peak(finite_samples, frames)
        assert finite.shape == (1000,) and finite.all()
        # a (1000, 3, 68, 2) bool array would take 400 KiB
        assert peak < 32 * 1024
        assert finite_samples(frames[:0]).shape == (0,)

    def test_negative_label_rejected(self):
        with pytest.raises(SampleError, match="label must be >= 0, got -1") as info:
            SampleSet(np.zeros((2, 3, 68, 2)), [0, -1], ["s01", "s01"])
        assert info.value.index == 1

    def test_frames_are_a_read_only_copy_with_a_stable_digest(self):
        frames = np.stack([make_frames(1), make_frames(2)])
        s = SampleSet(frames, np.array([0, 1]), ["s01", "s02"])
        assert s.frames is not frames and frames.flags.writeable
        assert s.labels.dtype == np.int64 and s.subjects.dtype.kind == "U"
        for column in (s.frames, s.labels, s.subjects, s[[1]].frames, s[:1].labels):
            with pytest.raises(ValueError):
                column[0] = column[-1]
        assert s.digests.tolist() == [
            hashlib.sha256(f.tobytes()).hexdigest() for f in frames
        ]

    def test_record_round_trip(self, tmp_path):
        s = make_samples(("s01",), labels=[3])
        path = tmp_path / "one.jsonl"
        save_samples(s, path)
        record = json.loads(path.read_text())
        assert record == {"subject": "s01", "label": 3, "frames": b64(s.frames[0])}
        assert len(record["frames"]) == 4 * 3 * 68 * 2 * 8 // 3
        back = load_samples(path)
        assert back.subjects.tolist() == ["s01"] and back.labels.tolist() == [3]
        np.testing.assert_array_equal(back.frames, s.frames)

    def test_digests_hash_each_sample_once(self, monkeypatch):
        samples = make_samples(("s01", "s01", "s02", "s03"))
        want = [hashlib.sha256(f.tobytes()).hexdigest() for f in samples.frames]
        calls = []
        real = hashlib.sha256

        def counting(data):
            calls.append(1)
            return real(data)

        monkeypatch.setattr(megraph.landmarks.hashlib, "sha256", counting)
        held_out = samples.subjects == "s01"
        train, test = samples[~held_out], samples[held_out]
        assert test.digests.tolist() == want[:2]
        assert train.digests.tolist() == want[2:]
        assert train.concat(test).digests.tolist() == want[2:] + want[:2]
        assert samples.digests.tolist() == want
        assert len(calls) == len(samples)

    def test_a_selection_copies_the_frames_once(self, monkeypatch, traced_peak):
        samples = synthesize_dataset(n_subjects=8, samples_per_subject=25, seed=0)
        checks = []
        checked = megraph.landmarks._checked
        monkeypatch.setattr(
            megraph.landmarks, "_checked", lambda *c: checks.append(1) or checked(*c)
        )
        keep = samples.subjects != "s01"
        picked, peak = traced_peak(samples.__getitem__, keep)
        # the fancy index makes the one copy; nothing validates it again
        assert peak < 1.5 * picked.frames.nbytes
        assert not np.shares_memory(picked.frames, samples.frames)
        assert np.shares_memory(samples[10:20].frames, samples.frames)
        joined = picked.concat(samples[:25])
        np.testing.assert_array_equal(joined.frames[-25:], samples.frames[:25])
        assert checks == []
        with pytest.raises(IndexError, match="select one sample"):
            samples[3]

    def test_rows_and_concat_keep_columns_aligned(self):
        samples = make_samples(("s01", "s02", "s03"), labels=[2, 0, 1])
        picked = samples[np.array([2, 0])]
        assert picked.subjects.tolist() == ["s03", "s01"]
        assert picked.labels.tolist() == [1, 2]
        np.testing.assert_array_equal(picked.frames[1], samples.frames[0])
        both = picked.concat(samples[1:2])
        assert len(both) == 3 and both.subjects.tolist() == ["s03", "s01", "s02"]


class TestJsonlFiles:
    def test_loading_holds_the_frames_once(self, tmp_path, traced_peak):
        samples = synthesize_dataset(n_subjects=20, samples_per_subject=25, seed=0)
        path = tmp_path / "data.jsonl"
        save_samples(samples, path)
        back, peak = traced_peak(load_samples, path)
        np.testing.assert_array_equal(back.frames, samples.frames)
        assert peak <= 1.25 * back.frames.nbytes

    @staticmethod
    def _load_through_pipe(text: bytes, traced_peak):
        """The samples loaded from ``text`` written to a pipe, and the peak
        bytes traced while loading them."""
        read_end, write_end = os.pipe()

        def write():
            with os.fdopen(write_end, "wb") as fh:
                fh.write(text)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            return traced_peak(load_samples, f"/dev/fd/{read_end}")
        finally:
            writer.join()
            os.close(read_end)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_loads_like_a_file(self, traced_peak):
        samples = synthesize_dataset(n_subjects=20, samples_per_subject=25, seed=0)
        text = nested_jsonl(samples).encode() + b"\n"
        back, peak = self._load_through_pipe(text, traced_peak)
        np.testing.assert_array_equal(back.frames, samples.frames)
        assert back.subjects.tolist() == samples.subjects.tolist()
        # a pipe is read once, so its frames are held per line and then
        # stacked: two copies, and never its text, which is 2.5x their bytes
        assert peak <= 2.5 * back.frames.nbytes < len(text)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_of_base64_frames_loads_like_a_file(self, tmp_path, traced_peak):
        samples = synthesize_dataset(n_subjects=20, samples_per_subject=25, seed=0)
        path = tmp_path / "data.jsonl"
        save_samples(samples, path)
        back, peak = self._load_through_pipe(path.read_bytes() + b"\n", traced_peak)
        np.testing.assert_array_equal(back.frames, samples.frames)
        assert back.subjects.tolist() == samples.subjects.tolist()
        # the decoded bytes of each line are dropped once its row is held
        assert peak <= 2.5 * back.frames.nbytes

    def test_the_nested_list_fixture_loads_pinned_frames(self):
        samples = load_samples(V1_SAMPLES)
        assert samples.subjects.tolist() == ["s01", "s01", "s02", "s02", "s03", "s03"]
        assert samples.labels.tolist() == [0, 1, 0, 1, 0, 1]
        # the first point is written as JSON integers, the rest as decimals
        assert samples.frames[0, 0, 0].tolist() == [45.0, 122.0]
        assert samples.frames[-1, 2, -1].tolist() == [107.437, 118.272]
        assert samples.digests.tolist() == [
            "a02e71aed0a7d9c04cb9956952937bd7321d1397470c3a3162efebc3c8f1902a",
            "168391f3ee2123c2970c82977f649feb1e8249a65b3baa613dba6a18e2d9bfb0",
            "db2ca1951b859faa7e894a3181633573bedde7934972a8454c71c90eb6f64f38",
            "05e3a2acb0e1b8f4cb57bc27a96d90f1b10ab6d2a4e493e457130ee4c596e454",
            "3fcc83eb50ad3afe0d40a2e2f43e130f04aadad6ebdb94b72c8dca96704d936b",
            "c001dcee1ac3dcc180e430ed0d06daa460f27e92122ac9da57c040188846a516",
        ]
        assert all(
            isinstance(json.loads(line)["frames"], list)
            for line in V1_SAMPLES.read_text().splitlines()
        )

    def test_nested_lists_rewrite_to_base64_bit_identically(self, tmp_path):
        nested = load_samples(V1_SAMPLES)
        path = tmp_path / "data.jsonl"
        save_samples(nested, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["frames"] for r in records] == [b64(f) for f in nested.frames]
        back = load_samples(path)
        assert back.frames.tobytes() == nested.frames.tobytes()
        assert back.digests.tolist() == nested.digests.tolist()
        assert back.subjects.tolist() == nested.subjects.tolist()
        assert back.labels.tolist() == nested.labels.tolist()

    def test_save_load_round_trip(self, tmp_path):
        samples = make_samples(("s00", "s01", "s02", "s03"))
        path = tmp_path / "data.jsonl"
        save_samples(samples, path)
        loaded = load_samples(path)
        assert len(loaded) == 4
        assert loaded.subjects.tolist() == samples.subjects.tolist()
        assert loaded.labels.tolist() == samples.labels.tolist()
        np.testing.assert_array_equal(loaded.frames, samples.frames)

    def test_each_line_is_the_json_dumps_of_its_record(self, tmp_path):
        subjects = ['say "hi"', "back\\slash", "é 田 \U0001f600", "s01"] * 9
        samples = make_samples(subjects, labels=list(range(len(subjects))))
        path = tmp_path / "data.jsonl"
        save_samples(samples, path)
        assert path.read_text(encoding="utf-8") == "".join(
            json.dumps({"subject": s, "label": y, "frames": b64(f)}) + "\n"
            for s, y, f in zip(subjects, range(len(subjects)), samples.frames)
        )

    def test_saving_holds_no_copy_of_the_file_text(self, tmp_path, traced_peak):
        samples = synthesize_dataset(n_subjects=10, samples_per_subject=100, seed=0)
        path = tmp_path / "data.jsonl"
        _, peak = traced_peak(save_samples, samples, path)
        assert peak <= path.stat().st_size / 4

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_samples(make_samples(), path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_samples(path)) == 1

    def test_empty_file_gives_an_empty_set(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("\n")
        assert len(load_samples(path)) == 0

    @pytest.mark.parametrize(
        "record, message",
        [
            ([1, 2], "expected a JSON object, got list"),
            ({"subject": "s01", "label": 0}, r"missing fields \['frames'\]"),
            ({**GOOD_RECORD, "label": 1.7}, "label must be an integer, got 1.7"),
            ({**GOOD_RECORD, "label": True}, "label must be an integer, got true"),
            ({**GOOD_RECORD, "label": "1"}, 'label must be an integer, got "1"'),
            ({**GOOD_RECORD, "frames": {"x": 1}},
             "frames must be nested lists of numbers"),
            ({**GOOD_RECORD, "label": 2**63},
             f"label does not fit in int64, got {2**63}"),
            ({**GOOD_RECORD, "frames": GOOD_RECORD["frames"][:2]},
             r"frames must have shape \(3, 68, 2\), got \(2, 68, 2\)"),
            # rows checked once the lines are stacked keep their line number
            ({**GOOD_RECORD, "label": -1}, "label must be >= 0, got -1"),
            ({**GOOD_RECORD, "subject": "s07",
              "frames": [[[float("nan"), 0.0]] * 68] * 3},
             "sample 's07': non-finite coordinates"),
            # a cast to float64 alone would read these as 1.5 and 1.0
            ({**GOOD_RECORD, "frames": [[["1.5", 0.0]] * 68] * 3},
             "frames must be nested lists of numbers"),
            ({**GOOD_RECORD, "frames": [[[True, 0.0]] * 68] * 3},
             "frames must be nested lists of numbers"),
            ({**GOOD_RECORD, "frames": [[[None, 0.0]] * 68] * 3},
             "frames must be nested lists of numbers"),
            # a regular outline with the wrong leaves keeps the nested cast's message
            ({**GOOD_RECORD, "frames": [[[[1.0], [2.0]]] * 68] * 3},
             r"frames must have shape \(3, 68, 2\), got \(3, 68, 2, 1\)"),
            ({**GOOD_RECORD, "frames": [["12"] * 68] * 3},
             r"frames must have shape \(3, 68, 2\), got \(3, 68\)"),
            ({**GOOD_RECORD, "frames": [[[0.0], [0.0, 0.0, 0.0]] * 34] * 3},
             "frames must be nested lists of numbers"),
            ({**GOOD_RECORD, "frames": [[[10**400, 0.0]] * 68] * 3},
             "frames: a value is too large for float64"),
            # lenient decoding would skip the "!" and read the same bytes
            ({**GOOD_RECORD, "frames": "!" + b64(GOOD_RECORD["frames"])},
             "frames: values must be a strict base64 string"),
            ({**GOOD_RECORD, "frames": b64(GOOD_RECORD["frames"])[:-4]},
             r"frames: 3261 bytes do not fill float64 shape \(3, 68, 2\)"),
            ({**GOOD_RECORD, "subject": "s07",
              "frames": b64([[[float("inf"), 0.0]] * 68] * 3)},
             "sample 's07': non-finite coordinates"),
        ],
    )
    def test_malformed_record_reports_line_number(self, tmp_path, record, message):
        path = tmp_path / "data.jsonl"
        save_samples(make_samples(), path)
        path.write_text(path.read_text() + json.dumps(record) + "\n"
                        + json.dumps(GOOD_RECORD) + "\n")
        with pytest.raises(ValueError, match=f"data.jsonl:2: {message}"):
            load_samples(path)

    @pytest.mark.parametrize(
        "subject", ["s" * 232, "\u00e9" * 116, "\U0001f600" * 58],
        ids=["one-byte", "two-byte", "four-byte"],
    )
    def test_a_subject_of_232_utf8_bytes_loads(self, tmp_path, subject):
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps({**GOOD_RECORD, "subject": subject}) + "\n")
        assert load_samples(path).subjects.tolist() == [subject]

    @pytest.mark.parametrize(
        "subject", ["s" * 233, "\u00e9" * 116 + "s"], ids=["one-byte", "two-byte"]
    )
    def test_a_longer_subject_reports_its_line(self, tmp_path, subject):
        # a checkpoint's temporary name for it would pass 255 bytes
        path = tmp_path / "data.jsonl"
        save_samples(make_samples(), path)
        path.write_text(path.read_text() + json.dumps({**GOOD_RECORD, "subject": subject}))
        with pytest.raises(ValueError) as info:
            load_samples(path)
        assert str(info.value) == (
            f"{path}:2: subject is 233 UTF-8 bytes, more than the 232 its run "
            "files' names can hold"
        )

    def test_a_subject_with_a_lone_surrogate_reports_its_line(self, tmp_path):
        # JSON can escape one, but no UTF-8 file name can hold it
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps({**GOOD_RECORD, "subject": "a\ud800"}) + "\n")
        with pytest.raises(ValueError) as info:
            load_samples(path)
        assert str(info.value) == f'{path}:1: subject must be Unicode text, got "a\\ud800"'

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_samples(make_samples(), path)
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(ValueError, match=":2:"):
            load_samples(path)

    def test_the_first_bad_line_in_file_order_wins(self, tmp_path):
        # a row check fails on line 3, a parse on line 9: line 3 is reported
        path = tmp_path / "data.jsonl"
        lines = [json.dumps(GOOD_RECORD)] * 10
        lines[2] = json.dumps({**GOOD_RECORD, "label": -1})
        lines[8] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            load_samples(path)
        assert str(info.value) == f"{path}:3: label must be >= 0, got -1"

    def test_a_run_of_sample_lines_loads_only_those_samples(self, tmp_path):
        samples = synthesize_dataset(n_subjects=3, samples_per_subject=4, seed=0)
        path = tmp_path / "data.jsonl"
        save_samples(samples, path)
        # blank lines, one of them Unicode whitespace, and a line that is
        # not UTF-8 after the run: only the run's lines are read
        text = path.read_bytes().splitlines(keepends=True)
        text[4:4] = [b"\n", "\u3000 \t\n".encode()]
        path.write_bytes(b"".join(text) + b"\xff\n")
        lines = sample_lines(path)
        assert [n for _, n in lines] == [1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15]
        part = load_samples(path, lines[3:7])
        np.testing.assert_array_equal(part.frames, samples.frames[3:7])
        assert part.subjects.tolist() == samples.subjects[3:7].tolist()
        with pytest.raises(ValueError, match=":15: not UTF-8 text"):
            load_samples(path)

    def test_too_deeply_nested_line_reports_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_samples(make_samples(), path)
        path.write_text(path.read_text() + "[" * 100_000 + "\n")
        with pytest.raises(ValueError, match=":2: invalid JSON: maximum recursion"):
            load_samples(path)


# Any JSON value, and records whose fields take any JSON value, a frames
# array of the wrong nesting, shape or size, or frames text that is not the
# strict base64 of 408 finite float64 values.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3)
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
NUMBERS = st.integers(min_value=-(10**400), max_value=10**400) | st.floats()
GOOD_TEXT = b64(GOOD_RECORD["frames"])


def _inserted(at_char):
    at, char = at_char
    return GOOD_TEXT[:at] + char + GOOD_TEXT[at:]


def _with_value(at_value):
    at, value = at_value
    frames = np.array(GOOD_RECORD["frames"])
    frames.flat[at] = value
    return b64(frames)


# base64 frames: any text, valid text with a character inserted (never
# strict), the base64 of too few or too many bytes, and of non-finite values
TEXT_FRAMES = (
    st.text(max_size=20)
    | st.tuples(st.integers(0, len(GOOD_TEXT)), st.sampled_from(list("!=\n -_.é\0")))
    .map(_inserted)
    | st.binary(max_size=64).map(lambda raw: base64.b64encode(raw).decode())
    | st.integers(-24, 24).map(lambda k: b64(np.resize(GOOD_RECORD["frames"], 408 + k)))
    | st.tuples(
        st.integers(0, 407), st.sampled_from([float("nan"), float("inf"), -float("inf")])
    ).map(_with_value)
)
FRAMES = (
    JSON_VALUES
    | TEXT_FRAMES
    | st.sampled_from([GOOD_RECORD["frames"], [[[float("nan"), 0.0]] * 68] * 3, GOOD_TEXT])
    | st.lists(
        st.lists(st.lists(NUMBERS, min_size=1, max_size=3), min_size=1, max_size=3),
        min_size=1, max_size=4,
    )
)
FIELDS = {
    "subject": JSON_VALUES | st.sampled_from(["", "s01"]),
    "label": JSON_VALUES
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.sampled_from([-1, 2**63 - 1, 2**63, -(2**63) - 1]),
    "frames": FRAMES,
}
RECORDS = (
    JSON_VALUES
    | st.fixed_dictionaries({}, optional=FIELDS)
    # a valid record with one field replaced
    | st.sampled_from(sorted(FIELDS)).flatmap(
        lambda key: FIELDS[key].map(lambda value: {**GOOD_RECORD, key: value})
    )
)


@settings(max_examples=150, deadline=None)
@given(record=RECORDS)
@example(record={**GOOD_RECORD, "label": 2**63})
@example(record={**GOOD_RECORD, "label": -(2**70)})
@example(record={**GOOD_RECORD, "label": True})
@example(record={**GOOD_RECORD, "subject": ""})
@example(record={**GOOD_RECORD, "frames": [[[float("nan"), 0.0]] * 68] * 3})
@example(record={**GOOD_RECORD, "frames": [[[False, 0.0]] * 68] * 3})
@example(record={**GOOD_RECORD, "frames": GOOD_TEXT})
@example(record={**GOOD_RECORD, "frames": GOOD_TEXT + "="})
@example(record={**GOOD_RECORD, "frames": GOOD_TEXT[:-2] + "=="})
@example(record={**GOOD_RECORD, "frames": GOOD_TEXT.replace("+", "-")})
@example(record={**GOOD_RECORD, "frames": b64(np.resize(GOOD_RECORD["frames"], 409))})
@example(record={**GOOD_RECORD, "frames": _with_value((7, float("nan")))})
@example(record="s01")
def test_any_malformed_record_is_a_one_line_value_error(tmp_path_factory, record):
    path = tmp_path_factory.mktemp("jsonl") / "data.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(record) + "\n")
    try:
        samples = load_samples(path)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{path}:2: ") and "\n" not in message
    else:
        # only a record that is a valid sample loads
        assert len(samples) == 2 and samples.labels[1] == record["label"]


def _finite_number(value) -> bool:
    """Whether a JSON value is an int or a float that float64 holds finitely."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


@settings(max_examples=100, deadline=None)
@given(
    at=st.integers(0, 407),
    value=st.sampled_from([True, False, None, "1.5", [], [1.0], 2**70, 10**400])
    | NUMBERS | JSON_VALUES,
)
@example(at=0, value=True)
@example(at=407, value="1.5")
def test_nested_frames_load_exactly_when_every_leaf_is_a_number(
    tmp_path_factory, at, value
):
    frames = make_frames().tolist()
    frames[at // 136][at // 2 % 68][at % 2] = value
    path = tmp_path_factory.mktemp("jsonl") / "data.jsonl"
    path.write_text(json.dumps({**GOOD_RECORD, "frames": frames}) + "\n")
    if _finite_number(value):
        loaded = load_samples(path).frames[0]
        np.testing.assert_array_equal(loaded, np.asarray(frames, dtype=np.float64))
    else:
        with pytest.raises(ValueError) as err:
            load_samples(path)
        message = str(err.value)
        assert message.startswith(f"{path}:1: ") and "\n" not in message


class TestMagnify:
    def test_onset_is_fixed_point(self):
        frames = make_frames()
        out = magnify(frames, 3.0)
        np.testing.assert_array_equal(out[0], frames[0])

    def test_displacements_scale_linearly(self):
        frames = make_frames()
        out = magnify(frames, 3.0)
        for f in (1, 2):
            np.testing.assert_allclose(
                out[f] - out[0],
                3.0 * (frames[f] - frames[0]),
                atol=1e-12,
            )

    def test_alpha_one_is_identity(self):
        frames = make_frames()
        np.testing.assert_array_equal(magnify(frames, 1.0), frames)


class TestCropJitter:
    def test_same_transform_for_all_frames(self):
        # Frame-to-frame displacement directions survive; only the shared
        # scale rescales them.
        s = make_samples()
        out = crop_jitter(s, np.random.default_rng(42))
        d_in = s.frames[0, 1] - s.frames[0, 0]
        d_out = out.frames[0, 1] - out.frames[0, 0]
        ratio = d_out / d_in
        np.testing.assert_allclose(ratio, ratio.ravel()[0], atol=1e-9)

    def test_bounds_respected(self):
        s = make_samples()
        out = crop_jitter(s, np.random.default_rng(42), copies=20,
                          max_scale=0.05, max_shift=3.0)
        d_in = s.frames[0, 2] - s.frames[0, 0]
        for frames in out.frames:
            d_out = frames[2] - frames[0]
            scale = np.linalg.norm(d_out) / np.linalg.norm(d_in)
            assert 0.95 <= scale <= 1.05
            center_shift = frames[0].mean(axis=0) - s.frames[0, 0].mean(axis=0)
            assert np.all(np.abs(center_shift) <= 3.0 * 1.05 + 1e-9)

    def test_identity_and_label_preserved(self):
        s = make_samples(("s07", "s08"), labels=[4, 1])
        out = crop_jitter(s, np.random.default_rng(0), copies=3)
        assert out.subjects.tolist() == ["s07"] * 3 + ["s08"] * 3
        assert out.labels.tolist() == [4] * 3 + [1] * 3
        for i, frames in enumerate(out.frames):
            assert not np.array_equal(frames, s.frames[i // 3])
        assert len(crop_jitter(s, np.random.default_rng(0), copies=0)) == 0


class TestTemplate:
    def test_layout_is_plausible(self):
        pts = neutral_face_template()
        assert pts.shape == (N_LANDMARKS, 2)
        assert np.all(np.isfinite(pts))
        # eyebrows above eyes above mouth (y grows downward)
        assert pts[17:27, 1].max() < pts[36:48, 1].min()
        assert pts[36:48, 1].max() < pts[48:60, 1].min()
        # left-right symmetry of the eye centers about the nose bridge
        left_eye = pts[36:42].mean(axis=0)
        right_eye = pts[42:48].mean(axis=0)
        np.testing.assert_allclose(
            (left_eye[0] + right_eye[0]) / 2, pts[27, 0], atol=1e-9
        )


class TestMotionPatterns:
    def test_each_pattern_moves_its_own_region(self):
        moved_regions = {
            "brow_raise": range(17, 27),
            "brow_furrow": range(17, 27),
            "mouth_corner_pull": range(48, 68),
            "mouth_open": range(48, 68),
            "nose_wrinkle": range(27, 36),
        }
        for name, build in MOTION_PATTERNS.items():
            d = build()
            assert d.shape == (N_LANDMARKS, 2)
            region = list(moved_regions[name])
            assert np.abs(d[region]).max() > 1.0, name

    def test_patterns_are_pairwise_distinct(self):
        mats = [MOTION_PATTERNS[n]() for n in PATTERN_NAMES]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert np.abs(mats[i] - mats[j]).max() > 1.0


class TestSynthesizeDataset:
    def test_generating_holds_the_frames_once(self, traced_peak):
        samples, peak = traced_peak(
            synthesize_dataset, n_subjects=20, samples_per_subject=25, seed=0
        )
        assert peak <= 1.25 * samples.frames.nbytes

    # sha256 of the frame bytes, fixed by the draw order the docstring states
    @pytest.mark.parametrize("spec, digest", [
        ({"seed": 0},
         "6bc9fb7cb9998a1139a3c4c9b1804d93bbd5cd1f4abedcb3b742594e8c9f02b7"),
        ({"seed": 1},
         "4bfc4a9d12f7efcd21a2f5069ebbb92a2c68bc4083d920875d06b0e9e73fd893"),
        ({"n_subjects": 50, "samples_per_subject": 20},
         "08a573a6553b9665da8591169ec0998d3167859432dcd230cd970751a3b220fd"),
        ({"noise_sigma": 0.0},
         "9a806faf229c99a0bb93501b084d3313d9ed81dc1574ee08403047ea63e71b33"),
        ({"n_subjects": 1, "samples_per_subject": 1},
         "9041acaa5ee9f0d63764029e942b68a917df12b824b4ce7aba6fb90e0ed9153e"),
    ])
    def test_frames_are_pinned_bit_for_bit(self, spec, digest):
        frames = synthesize_dataset(**spec).frames
        assert hashlib.sha256(frames.tobytes()).hexdigest() == digest

    def test_counts_subjects_and_labels(self):
        samples = synthesize_dataset(
            n_subjects=4, samples_per_subject=6, n_classes=3, seed=0
        )
        assert len(samples) == 24
        assert set(samples.subjects.tolist()) == {"s01", "s02", "s03", "s04"}
        assert samples.frames.shape == (24, N_FRAMES, N_LANDMARKS, 2)
        assert samples.labels.min() >= 0 and samples.labels.max() < 3
        # every subject sees every class
        for subject in ("s01", "s04"):
            labels = set(samples.labels[samples.subjects == subject].tolist())
            assert labels == {0, 1, 2}

    def test_deterministic_per_seed(self):
        a = synthesize_dataset(n_subjects=2, samples_per_subject=2, seed=7)
        b = synthesize_dataset(n_subjects=2, samples_per_subject=2, seed=7)
        c = synthesize_dataset(n_subjects=2, samples_per_subject=2, seed=8)
        np.testing.assert_array_equal(a.frames, b.frames)
        assert not np.array_equal(a.frames, c.frames)

    def test_class_count_bounds(self):
        with pytest.raises(ValueError):
            synthesize_dataset(n_classes=1)
        with pytest.raises(ValueError):
            synthesize_dataset(n_classes=6)

    def test_apex_motion_tracks_the_label_pattern(self):
        # With tiny noise the apex displacement should correlate far more
        # with its own class pattern than with any other class.
        samples = synthesize_dataset(
            n_subjects=3, samples_per_subject=5, n_classes=5,
            noise_sigma=0.01, seed=3,
        )
        patterns = [MOTION_PATTERNS[n]().ravel() for n in PATTERN_NAMES]
        for frames, label in zip(samples.frames, samples.labels):
            d = (frames[1] - frames[0]).ravel()
            sims = [
                float(d @ p) / (np.linalg.norm(d) * np.linalg.norm(p))
                for p in patterns
            ]
            assert int(np.argmax(sims)) == label
