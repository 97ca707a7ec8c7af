"""Keyframe samples: validation, serialization, motion ops, synthesis."""

import hashlib
import json

import numpy as np
import pytest

from megraph.landmarks import (
    MOTION_PATTERNS,
    N_FRAMES,
    N_LANDMARKS,
    PATTERN_NAMES,
    LandmarkSample,
    crop_jitter,
    load_samples,
    magnify,
    neutral_face_template,
    save_samples,
    synthesize_dataset,
)


def make_sample(subject="s01", label=0, seed=42):
    rng = np.random.default_rng(seed)
    frames = neutral_face_template() + rng.normal(0.0, 1.0, (3, 68, 2))
    return LandmarkSample(subject=subject, label=label, frames=frames)


GOOD_RECORD = make_sample().to_record()


class TestLandmarkSample:
    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="shape"):
            LandmarkSample(subject="s01", label=0, frames=np.zeros((3, 67, 2)))
        with pytest.raises(ValueError, match="shape"):
            LandmarkSample(subject="s01", label=0, frames=np.zeros((2, 68, 2)))

    def test_non_finite_rejected(self):
        frames = np.zeros((3, 68, 2))
        frames[1, 5, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            LandmarkSample(subject="s01", label=0, frames=frames)

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            LandmarkSample(subject="s01", label=-1, frames=np.zeros((3, 68, 2)))

    def test_frames_are_a_read_only_copy_with_a_stable_digest(self):
        frames = make_sample().frames.copy()
        s = LandmarkSample(subject="s01", label=0, frames=frames)
        assert s.frames is not frames and frames.flags.writeable
        with pytest.raises(ValueError):
            s.frames[0, 0, 0] = 1.0
        assert s.digest == hashlib.sha256(frames.tobytes()).hexdigest()

    def test_record_round_trip(self):
        s = make_sample(label=3)
        back = LandmarkSample.from_record(s.to_record())
        assert back.subject == s.subject
        assert back.label == s.label
        np.testing.assert_array_equal(back.frames, s.frames)


class TestJsonlFiles:
    def test_save_load_round_trip(self, tmp_path):
        samples = [make_sample(subject=f"s{i:02d}", label=i % 2, seed=i) for i in range(4)]
        path = tmp_path / "data.jsonl"
        save_samples(samples, path)
        loaded = load_samples(path)
        assert len(loaded) == 4
        for a, b in zip(samples, loaded):
            assert (a.subject, a.label) == (b.subject, b.label)
            np.testing.assert_array_equal(a.frames, b.frames)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_samples([make_sample()], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_samples(path)) == 1

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
        ],
    )
    def test_malformed_record_reports_line_number(self, tmp_path, record, message):
        path = tmp_path / "data.jsonl"
        save_samples([make_sample()], path)
        path.write_text(path.read_text() + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=f"data.jsonl:2: {message}"):
            load_samples(path)

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_samples([make_sample()], path)
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(ValueError, match=":2:"):
            load_samples(path)


class TestMagnify:
    def test_onset_is_fixed_point(self):
        s = make_sample()
        out = magnify(s.frames, 3.0)
        np.testing.assert_array_equal(out[0], s.frames[0])

    def test_displacements_scale_linearly(self):
        s = make_sample()
        out = magnify(s.frames, 3.0)
        for f in (1, 2):
            np.testing.assert_allclose(
                out[f] - out[0],
                3.0 * (s.frames[f] - s.frames[0]),
                atol=1e-12,
            )

    def test_alpha_one_is_identity(self):
        s = make_sample()
        np.testing.assert_array_equal(magnify(s.frames, 1.0), s.frames)


class TestCropJitter:
    def test_same_transform_for_all_frames(self):
        # Frame-to-frame displacement directions survive; only the shared
        # scale rescales them.
        s = make_sample()
        out = crop_jitter(s, np.random.default_rng(42))
        d_in = s.frames[1] - s.frames[0]
        d_out = out.frames[1] - out.frames[0]
        ratio = d_out / d_in
        np.testing.assert_allclose(ratio, ratio.ravel()[0], atol=1e-9)

    def test_bounds_respected(self):
        s = make_sample()
        rng = np.random.default_rng(42)
        for _ in range(20):
            out = crop_jitter(s, rng, max_scale=0.05, max_shift=3.0)
            d_in = s.frames[2] - s.frames[0]
            d_out = out.frames[2] - out.frames[0]
            scale = np.linalg.norm(d_out) / np.linalg.norm(d_in)
            assert 0.95 <= scale <= 1.05
            center_shift = out.frames[0].mean(axis=0) - s.frames[0].mean(axis=0)
            assert np.all(np.abs(center_shift) <= 3.0 * 1.05 + 1e-9)

    def test_identity_and_label_preserved(self):
        s = make_sample(subject="s07", label=4)
        out = crop_jitter(s, np.random.default_rng(0))
        assert out.subject == "s07"
        assert out.label == 4


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
    def test_counts_subjects_and_labels(self):
        samples = synthesize_dataset(
            n_subjects=4, samples_per_subject=6, n_classes=3, seed=0
        )
        assert len(samples) == 24
        assert {s.subject for s in samples} == {"s01", "s02", "s03", "s04"}
        for s in samples:
            assert 0 <= s.label < 3
            assert s.frames.shape == (N_FRAMES, N_LANDMARKS, 2)
        # every subject sees every class
        for subject in ("s01", "s04"):
            labels = {s.label for s in samples if s.subject == subject}
            assert labels == {0, 1, 2}

    def test_deterministic_per_seed(self):
        a = synthesize_dataset(n_subjects=2, samples_per_subject=2, seed=7)
        b = synthesize_dataset(n_subjects=2, samples_per_subject=2, seed=7)
        c = synthesize_dataset(n_subjects=2, samples_per_subject=2, seed=8)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.frames, y.frames)
        assert any(
            not np.array_equal(x.frames, y.frames) for x, y in zip(a, c)
        )

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
        for s in samples:
            d = (s.frames[1] - s.frames[0]).ravel()
            sims = [
                float(d @ p) / (np.linalg.norm(d) * np.linalg.norm(p))
                for p in patterns
            ]
            assert int(np.argmax(sims)) == s.label
