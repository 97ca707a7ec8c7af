"""Landmark keyframe samples: loading, motion magnification, augmentation,
and a synthetic corpus generator.

A sample is three frames of 68 facial landmarks (onset, apex, offset) in a
standard 68-point layout, plus a subject id and a class label. A dataset is
one :class:`SampleSet`, stored one JSON object per sample and line, with the
frames as base64 float64 bytes or as nested lists of numbers.
:func:`magnify` works on keyframe arrays of shape (..., 3, 68, 2), so a
stack of samples is magnified in one call.
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property
from itertools import chain, islice

import numpy as np

from .files import atomic_write, decode_float64, encode_float64

N_LANDMARKS = 68
N_FRAMES = 3
FRAME_SHAPE = (N_FRAMES, N_LANDMARKS, 2)

DEFAULT_MAGNIFICATION = 3.0


class SampleError(ValueError):
    """A sample fails validation; ``index`` is its row in the set."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


def finite_samples(frames: np.ndarray) -> np.ndarray:
    """Whether each sample's coordinates are all finite, read off the max and
    min of its row, which NaN reaches: no bool array of every coordinate."""
    flat = frames.reshape(-1, np.prod(FRAME_SHAPE))
    return np.isfinite(flat.max(axis=1)) & np.isfinite(flat.min(axis=1))


def _checked(frames: np.ndarray, labels: np.ndarray, subjects: np.ndarray):
    """The three columns of a set, once their shapes, coordinates and labels
    pass; a failing sample raises :class:`SampleError` with its row."""
    if frames.shape[1:] != FRAME_SHAPE:
        raise ValueError(f"frames must have shape (N, 3, 68, 2), got {frames.shape}")
    if not labels.shape == subjects.shape == (len(frames),):
        raise ValueError("every sample needs one label and one subject")
    finite = finite_samples(frames)
    bad = ~finite | (labels < 0)
    if bad.any():
        i = int(bad.argmax())
        if not finite[i]:
            raise SampleError(i, f"sample '{subjects[i]}': non-finite coordinates")
        raise SampleError(i, f"label must be >= 0, got {labels[i]}")
    return frames, labels, subjects


class SampleSet:
    """Labelled clips reduced to three keyframes each, as read-only columns
    ``frames`` (N, 3, 68, 2) float64, ``labels`` (N,) int64 and ``subjects``
    (N,) str. The constructor copies and validates what it is handed; the
    sets this module builds (loaded, generated, selected or joined) adopt
    the one array they fill, so each holds its frames once."""

    def __new__(cls, frames, labels, subjects):
        return cls._from_columns(*_checked(
            np.array(frames, dtype=np.float64),
            np.array(labels, dtype=np.int64),
            np.array(subjects, dtype=str),
        ))

    @classmethod
    def _from_columns(cls, frames, labels, subjects, digests=None) -> "SampleSet":
        """A set over checked columns that nothing else writes to, taken as
        they are; ``digests``, when given, computes its digests from another
        set's."""
        self = super().__new__(cls)
        for column in (frames, labels, subjects):
            column.setflags(write=False)
        self.frames, self.labels, self.subjects = frames, labels, subjects
        self._digests = digests
        return self

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, rows) -> "SampleSet":
        """The samples at ``rows``: a slice (a view of these columns), a
        boolean mask or an index array (one copy of the rows taken)."""
        columns = self.frames[rows], self.labels[rows], self.subjects[rows]
        if columns[1].ndim != 1:
            raise IndexError(f"rows {rows!r} select one sample, not a set")
        return self._from_columns(*columns, lambda: self.digests[rows])

    def concat(self, other: "SampleSet") -> "SampleSet":
        """This set's samples followed by ``other``'s."""
        return self._from_columns(
            np.concatenate([self.frames, other.frames]),
            np.concatenate([self.labels, other.labels]),
            np.concatenate([self.subjects, other.subjects]),
            lambda: np.concatenate([self.digests, other.digests]),
        )

    @cached_property
    def digests(self) -> np.ndarray:
        """sha256 hex digest of each sample's frame bytes, computed on first
        use; a set built from another set's rows reuses its digests."""
        if self._digests is not None:
            return self._digests()
        hashes = [hashlib.sha256(f.tobytes()).hexdigest() for f in self.frames]
        return np.array(hashes, dtype=str)


def save_samples(samples: SampleSet, path) -> None:
    """Write samples as JSON lines, each exactly ``json.dumps({"subject": s,
    "label": l, "frames": b64}) + "\\n"``, ``b64`` the base64 of the frames'
    C-order little-endian float64 bytes, which load back exactly. Base64
    needs no JSON escapes, so only the subject goes through json.dumps."""
    subjects, labels = samples.subjects.tolist(), samples.labels.tolist()
    quoted = {s: json.dumps(s) for s in set(subjects)}
    with atomic_write(path) as fh:
        for s, y, frames in zip(subjects, labels, samples.frames):
            fh.write(f'{{"subject": {quoted[s]}, "label": {y}, '
                     f'"frames": "{encode_float64(frames)}"}}\n')


# the longest subject, in UTF-8 bytes, whose fold checkpoint can be written:
# its temporary file ".fold_<subject>.json.<pid>.tmp", with a pid of up to
# 7 digits, must fit the 255 bytes of a file name
MAX_SUBJECT_BYTES = 255 - len(".fold_") - len(".json") - len(".1234567.tmp")


def _parse_record(record) -> tuple[str, int, np.ndarray]:
    """Subject, label and frames of one decoded JSON record. The frames are
    a strict base64 string of float64 bytes, or nested lists of JSON
    numbers; the label is a JSON integer. Neither 1.7 nor true passes as a
    class, and neither "1.5" nor true as a coordinate."""
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    missing = [k for k in ("subject", "label", "frames") if k not in record]
    if missing:
        raise ValueError(f"missing fields {missing}")
    subject = record["subject"]
    if not isinstance(subject, str) or not subject:
        raise ValueError(
            f"subject must be a non-empty string, got {json.dumps(subject)}"
        )
    if subject in (".", "..") or any(c in subject for c in "/\\\0"):
        raise ValueError(f"subject must not name a path, got {json.dumps(subject)}")
    try:
        size = len(subject.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate: no file name can hold it
        raise ValueError(
            f"subject must be Unicode text, got {json.dumps(subject)}"
        ) from None
    if size > MAX_SUBJECT_BYTES:
        raise ValueError(
            f"subject is {size} UTF-8 bytes, more than the {MAX_SUBJECT_BYTES} "
            "its run files' names can hold"
        )
    label = record["label"]
    if type(label) is not int:
        raise ValueError(f"label must be an integer, got {json.dumps(label)}")
    if label.bit_length() > 63:
        raise ValueError(f"label does not fit in int64, got {label}")
    frames = record["frames"]
    if isinstance(frames, str):
        return subject, label, decode_float64(frames, FRAME_SHAPE, "frames")
    return subject, label, _nested_frames(frames)


def _nested_frames(given) -> np.ndarray:
    """The (3, 68, 2) frames that nested lists of JSON numbers hold. A regular
    nest of ints and floats is cast as one flat list; anything else is cast
    nested only to name the fault, since that cast also reads "1.5" and true
    as numbers."""
    flat = []
    try:
        if list(map(len, given)) == [N_LANDMARKS] * N_FRAMES and set(
            map(len, chain.from_iterable(given))
        ) == {2}:
            flat = list(chain.from_iterable(chain.from_iterable(given)))
    except TypeError:  # a number where a list belongs
        pass
    try:
        if flat and set(map(type, flat)) <= {int, float}:
            return np.array(flat, dtype=np.float64).reshape(FRAME_SHAPE)
        frames = np.asarray(given, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError("frames must be nested lists of numbers") from None
    except OverflowError:
        raise ValueError("frames: a value is too large for float64") from None
    if frames.shape != FRAME_SHAPE:
        raise ValueError(f"frames must have shape (3, 68, 2), got {frames.shape}")
    raise ValueError("frames must be nested lists of numbers")


def sample_lines(path) -> list[tuple[int, int]]:
    """(byte offset, line number) of each line of file ``path`` that
    :func:`load_samples` reads as a sample: one starting "{", not blank or not UTF-8."""
    found, offset = [], 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line[:1] == b"{" or line.decode("utf-8", "replace").strip():
                found.append((offset, lineno))
            offset += len(line)
    return found


def load_samples(path, lines=None) -> SampleSet:
    """Read UTF-8 JSON-lines samples, skipping blank lines, into one frames column
    sized by :func:`sample_lines` (given ``lines``, a run of its entries, only those);
    a pipe, which can be read only once, is stacked from per-line arrays instead.
    The first malformed line in file order raises ValueError naming ``path:lineno``."""
    linenos, subjects, labels, rows = [], [], [], []  # rows: a pipe's frames

    def checked():  # the columns read so far, once every row passes
        try:
            return _checked(np.array(rows).reshape(-1, *FRAME_SHAPE) if frames is None
                            else frames[: len(linenos)], np.array(labels, dtype=np.int64),
                            np.array(subjects, dtype=str))
        except SampleError as exc:
            raise ValueError(f"{path}:{linenos[exc.index]}: {exc}") from None

    with open(path, "rb") as fh:
        if lines is None and fh.seekable():
            lines = sample_lines(path)
        frames, first, todo = None, 1, fh  # a pipe can be read only once
        if lines:  # from the first given line's offset to the last given line
            (offset, first), last = lines[0], lines[-1][1]
            fh.seek(offset)
            frames = np.empty((len(lines), *FRAME_SHAPE))
            todo = islice(fh, last + 1 - first)
        try:
            for lineno, line in enumerate(todo, start=first):
                try:
                    line = line.decode("utf-8").strip()
                    if not line:
                        continue
                    subject, label, row = _parse_record(json.loads(line))
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: not UTF-8 text: {exc}") from None
                except (json.JSONDecodeError, RecursionError) as exc:
                    raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                except ValueError as exc:  # the record's fields
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if frames is None:
                    rows.append(row)
                else:
                    frames[len(linenos)] = row
                linenos.append(lineno)
                subjects.append(subject)
                labels.append(label)
        except ValueError:
            checked()  # a bad row on an earlier line is reported first
            raise
    return SampleSet._from_columns(*checked())


def magnify(frames: np.ndarray, alpha: float = DEFAULT_MAGNIFICATION) -> np.ndarray:
    """Amplify motion relative to onset: p' = onset + alpha * (p - onset).

    ``frames`` has shape (..., 3, 68, 2): one sample's keyframes or a stack
    of them. The onset frame is a fixed point; alpha = 1 is the identity.
    Coordinates that overflow come back non-finite; the caller rejects them.
    """
    onset = frames[..., :1, :, :]
    return onset + alpha * (frames - onset)


def crop_jitter(
    samples: SampleSet,
    rng: np.random.Generator,
    copies: int = 1,
    max_scale: float = 0.05,
    max_shift: float = 3.0,
) -> SampleSet:
    """``copies`` re-cropped duplicates of each sample, next to each other.

    A copy's three frames get one scale in 1 ± max_scale about the onset
    centroid and one shift in ± max_shift per axis, as re-cropping the
    clip would. Draws follow a per-sample loop: scale, then both shifts.
    """
    frames = np.repeat(samples.frames, copies, axis=0)
    bounds = np.array([max_scale, max_shift, max_shift])
    draws = rng.uniform(-bounds, bounds, size=(len(frames), 3))
    scale = 1.0 + draws[:, :1, None, None]
    shift = draws[:, None, None, 1:]
    center = frames[:, :1].mean(axis=2, keepdims=True)
    return SampleSet._from_columns(*_checked(
        (frames - center) * scale + center + shift,
        np.repeat(samples.labels, copies),
        np.repeat(samples.subjects, copies),
    ))


def neutral_face_template() -> np.ndarray:
    """A schematic neutral face in the 68-point layout, shape (68, 2).

    Coordinates are in a nominal 200x200 pixel frame, y increasing downward.
    Only geometric plausibility matters: contours are smooth, components sit
    in natural relative positions, and the layout respects the standard
    index ranges (jaw 0-16, eyebrows 17-26, nose 27-35, eyes 36-47,
    mouth 48-67).
    """
    pts = np.zeros((N_LANDMARKS, 2))

    # jaw 0-16: open arc from left temple to right temple
    t = np.linspace(np.pi * 0.15, np.pi * 0.85, 17)
    pts[0:17, 0] = 100.0 - 62.0 * np.cos(t)
    pts[0:17, 1] = 92.0 + 66.0 * np.sin(t)

    # eyebrows 17-21 (left), 22-26 (right): shallow arches above the eyes
    bx = np.linspace(-28.0, -6.0, 5)
    arch = 4.0 * np.sin(np.linspace(0.0, np.pi, 5))
    pts[17:22, 0] = 100.0 + bx
    pts[17:22, 1] = 62.0 - arch
    pts[22:27, 0] = 100.0 - bx[::-1]
    pts[22:27, 1] = 62.0 - arch[::-1]

    # nose bridge 27-30: vertical line down the midface
    pts[27:31, 0] = 100.0
    pts[27:31, 1] = np.linspace(70.0, 94.0, 4)

    # nose base 31-35: gentle downward arc under the tip
    pts[31:36, 0] = np.linspace(90.0, 110.0, 5)
    pts[31:36, 1] = 100.0 + np.array([0.0, 1.5, 2.5, 1.5, 0.0])

    # eyes 36-41 (left), 42-47 (right): six-point loops
    ang = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    ex, ey = 9.0 * np.cos(ang), 3.5 * np.sin(ang)
    pts[36:42, 0] = 78.0 + ex
    pts[36:42, 1] = 72.0 + ey
    pts[42:48, 0] = 122.0 + ex
    pts[42:48, 1] = 72.0 + ey

    # mouth outer 48-59: twelve-point loop
    ang = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    pts[48:60, 0] = 100.0 + 18.0 * np.cos(ang)
    pts[48:60, 1] = 122.0 + 7.0 * np.sin(ang)

    # mouth inner 60-67: smaller eight-point loop
    ang = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    pts[60:68, 0] = 100.0 + 11.0 * np.cos(ang)
    pts[60:68, 1] = 122.0 + 3.5 * np.sin(ang)

    return pts


def _pattern_brow_raise() -> np.ndarray:
    """Both eyebrows translate upward, inner ends most."""
    d = np.zeros((N_LANDMARKS, 2))
    lift = np.linspace(2.0, 5.0, 5)
    d[17:22, 1] = -lift
    d[22:27, 1] = -lift[::-1]
    return d


def _pattern_brow_furrow() -> np.ndarray:
    """Inner brow ends pull together and slightly down."""
    d = np.zeros((N_LANDMARKS, 2))
    pull = np.linspace(0.5, 4.0, 5)
    d[17:22, 0] = pull
    d[17:22, 1] = np.linspace(0.0, 2.0, 5)
    d[22:27, 0] = -pull[::-1]
    d[22:27, 1] = np.linspace(2.0, 0.0, 5)
    return d


def _pattern_mouth_corner_pull() -> np.ndarray:
    """Mouth corners move outward and up, as in a suppressed smile."""
    d = np.zeros((N_LANDMARKS, 2))
    d[48] = (-4.0, -3.0)  # left corner
    d[54] = (4.0, -3.0)  # right corner
    d[49] = (-2.0, -1.5)
    d[53] = (2.0, -1.5)
    d[59] = (-2.0, -1.0)
    d[55] = (2.0, -1.0)
    d[60] = (-2.5, -1.5)
    d[64] = (2.5, -1.5)
    return d


def _pattern_mouth_open() -> np.ndarray:
    """Lower lip drops; jaw follows slightly."""
    d = np.zeros((N_LANDMARKS, 2))
    drop = np.array([1.0, 3.0, 4.5, 5.0, 4.5, 3.0, 1.0])
    d[54:60, 1] += drop[:6] * 0.8
    d[55:59, 1] += 1.5
    d[64:68, 1] += 3.0
    d[6:11, 1] += 1.5
    return d


def _pattern_nose_wrinkle() -> np.ndarray:
    """Nose base lifts and narrows; inner brows dip, as in disgust."""
    d = np.zeros((N_LANDMARKS, 2))
    d[31:36, 1] = -3.0
    d[31, 0] = 2.0
    d[35, 0] = -2.0
    d[27:31, 1] = np.linspace(-0.5, -2.0, 4)
    d[21, 1] = 2.0
    d[22, 1] = 2.0
    d[49:54, 1] = -1.5
    return d


MOTION_PATTERNS = {
    "brow_raise": _pattern_brow_raise,
    "brow_furrow": _pattern_brow_furrow,
    "mouth_corner_pull": _pattern_mouth_corner_pull,
    "mouth_open": _pattern_mouth_open,
    "nose_wrinkle": _pattern_nose_wrinkle,
}

PATTERN_NAMES = tuple(MOTION_PATTERNS)


def synthesize_dataset(
    n_subjects: int = 10,
    samples_per_subject: int = 6,
    n_classes: int = 5,
    noise_sigma: float = 1.0,
    seed: int = 0,
) -> SampleSet:
    """Generate a labelled synthetic corpus with per-subject identity.

    Each class is one motion pattern applied on top of a subject-specific
    deformation of the neutral template. The apex frame is onset plus the
    pattern plus coordinate noise; the offset frame returns roughly 60% of
    the way back to onset. Class assignment cycles so every subject sees
    every class.

    The draws are the data contract, so a seed fixes every bit. Per
    subject: a scale and an aspect offset (two uniform draws), then a
    (68, 2) normal warp. Per sample after it: a strength uniform in
    [0.8, 1.2), then (3, 68, 2) standard normals scaled by 0.3,
    noise_sigma and noise_sigma / 2 as the onset, apex and offset noise.
    """
    if not 2 <= n_classes <= len(PATTERN_NAMES):
        raise ValueError(
            f"n_classes must be in [2, {len(PATTERN_NAMES)}], got {n_classes}"
        )
    rng = np.random.default_rng(seed)
    template = neutral_face_template()
    center = template.mean(axis=0)
    labels = np.arange(samples_per_subject, dtype=np.int64) % n_classes
    patterns = np.array([MOTION_PATTERNS[name]() for name in PATTERN_NAMES])[labels]
    # numpy's normal(0, s) is 0.0 + s * z and uniform(a, b) is a + (b - a) * u,
    # so the arithmetic below gives the bits of one such call per draw
    noise_scale = np.array([0.3, noise_sigma, 0.5 * noise_sigma])[:, None, None]

    frames = np.empty((n_subjects, samples_per_subject, *FRAME_SHAPE))
    uniform = np.empty((samples_per_subject, 1, 1))
    for block in frames:
        # identity: global scale, slight aspect change, smooth per-point warp
        scale, aspect = 1.0 + rng.uniform([-0.08, -0.05], [0.08, 0.05])
        warp = rng.normal(0.0, 1.2, size=(N_LANDMARKS, 2))
        base = (template - center) * np.array([scale, scale * aspect]) + center + warp
        for k in range(samples_per_subject):
            uniform[k] = rng.random()
            rng.standard_normal(out=block[k])
        # in place, with one (samples, 68, 2) temporary; the sums group their
        # terms as (onset + motion) + n1 and (onset + 0.4 * (apex - onset)) + n2
        block *= noise_scale
        block += 0.0
        onset, apex, offset = block.swapaxes(0, 1)
        onset += base
        step = patterns * (0.8 + (1.2 - 0.8) * uniform)
        step += onset
        apex += step
        np.subtract(apex, onset, out=step)
        step *= 0.4
        step += onset
        offset += step
    subjects = [f"s{si + 1:02d}" for si in range(n_subjects)]
    return SampleSet._from_columns(*_checked(
        frames.reshape(-1, *FRAME_SHAPE),
        np.tile(labels, n_subjects),
        np.repeat(subjects, samples_per_subject),
    ))
