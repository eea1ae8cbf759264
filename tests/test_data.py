import struct
from pathlib import Path

import numpy as np
import pytest

from dpvideo import rng
from dpvideo.data import (
    DatasetFormatError,
    DatasetSpec,
    VideoSample,
    chunk_video,
    class_templates,
    generate_dataset,
    load_dataset,
    sample_clips,
    save_dataset,
)

DEFAULT = DatasetSpec(num_classes=10, videos_per_class=100, frames_per_video=32,
                      clip_length=8, feature_dim=32, noise_std=0.5, seed=0)


def test_spec_rejects_nondividing_clip_length():
    with pytest.raises(ValueError, match="does not divide"):
        DatasetSpec(num_classes=2, videos_per_class=1, frames_per_video=10,
                    clip_length=3, feature_dim=4, noise_std=0.0, seed=0)


def test_zero_noise_videos_equal_their_class_template():
    spec = DatasetSpec(num_classes=3, videos_per_class=4, frames_per_video=8,
                       clip_length=4, feature_dim=5, noise_std=0.0, seed=1)
    templates = class_templates(spec)
    for video in generate_dataset(spec):
        assert np.array_equal(video.frames, templates[video.label])


def test_generation_is_deterministic_and_balanced():
    a = generate_dataset(DEFAULT)
    b = generate_dataset(DEFAULT)
    assert len(a) == 1000
    for va, vb in zip(a, b):
        assert va.id == vb.id and va.label == vb.label
        assert np.array_equal(va.frames, vb.frames)
    counts = np.bincount([v.label for v in a])
    assert np.all(counts == 100)
    ids = [v.id for v in a]
    assert ids == sorted(set(ids))


def test_nearest_template_classifier_shows_task_is_learnable():
    # brute-force oracle: assign each video to the closest class template
    videos = generate_dataset(DEFAULT)
    templates = class_templates(DEFAULT)
    flat = templates.reshape(DEFAULT.num_classes, -1)
    hits = 0
    for v in videos:
        d = np.linalg.norm(flat - v.frames.ravel(), axis=1)
        hits += int(np.argmin(d)) == v.label
    assert hits / len(videos) > 0.95


def test_template_jitter_moves_templates_but_keeps_them_shared():
    base = DatasetSpec(num_classes=4, videos_per_class=2, frames_per_video=8,
                       clip_length=4, feature_dim=6, noise_std=0.1, seed=5)
    shifted = DatasetSpec(num_classes=4, videos_per_class=2, frames_per_video=8,
                          clip_length=4, feature_dim=6, noise_std=0.1, seed=99,
                          template_seed=5, template_jitter=0.3)
    same_templates = DatasetSpec(num_classes=4, videos_per_class=2, frames_per_video=8,
                                 clip_length=4, feature_dim=6, noise_std=0.1, seed=99,
                                 template_seed=5)
    assert np.array_equal(class_templates(base), class_templates(same_templates))
    delta = np.linalg.norm(class_templates(base) - class_templates(shifted))
    assert 0.0 < delta < np.linalg.norm(class_templates(base))


def test_chunk_single_clip_is_whole_video():
    frames = np.arange(12.0).reshape(4, 3)
    video = VideoSample(id=0, label=0, frames=frames)
    clips = chunk_video(video, 4)
    assert len(clips) == 1
    assert np.array_equal(clips[0], frames)


def test_chunks_tile_the_video_exactly():
    gen = np.random.default_rng(3)
    frames = gen.standard_normal((16, 5))
    clips = chunk_video(VideoSample(id=0, label=0, frames=frames), 4)
    assert len(clips) == 4
    assert np.array_equal(np.concatenate(clips, axis=0), frames)
    # every frame lands in exactly one clip
    seen = np.concatenate([np.arange(i * 4, (i + 1) * 4) for i in range(4)])
    assert sorted(seen.tolist()) == list(range(16))


def test_chunk_rejects_nondividing_length():
    frames = np.zeros((10, 3))
    with pytest.raises(ValueError, match="does not divide"):
        chunk_video(VideoSample(id=0, label=0, frames=frames), 4)


def test_sample_all_clips_returns_them_in_order():
    gen = rng.stream(0, rng.CLIP_SAMPLE)
    frames = np.random.default_rng(1).standard_normal((16, 3))
    video = VideoSample(id=0, label=0, frames=frames)
    picked = sample_clips(video, 4, 4, gen)
    assert [i for i, _ in picked] == [0, 1, 2, 3]
    for idx, clip in picked:
        assert np.array_equal(clip, frames[idx * 4 : (idx + 1) * 4])


def test_sampling_without_replacement_and_sorted():
    gen = rng.stream(7, rng.CLIP_SAMPLE)
    frames = np.zeros((32, 2))
    video = VideoSample(id=0, label=0, frames=frames)
    for _ in range(100_000):
        indices = [i for i, _ in sample_clips(video, 4, 3, gen)]
        assert len(set(indices)) == 3
        assert indices == sorted(indices)


def test_single_clip_sampling_is_uniform():
    from scipy.stats import chisquare

    gen = rng.stream(11, rng.CLIP_SAMPLE)
    frames = np.zeros((32, 2))
    video = VideoSample(id=0, label=0, frames=frames)
    counts = np.zeros(4, dtype=int)
    for _ in range(100_000):
        (idx, _), = sample_clips(video, 8, 1, gen)
        counts[idx] += 1
    assert chisquare(counts).pvalue > 0.01


def test_sampling_more_clips_than_available_is_rejected():
    gen = rng.stream(0, rng.CLIP_SAMPLE)
    video = VideoSample(id=0, label=0, frames=np.zeros((8, 2)))
    with pytest.raises(ValueError, match="cannot sample"):
        sample_clips(video, 4, 3, gen)


def test_fixed_stream_reproduces_selection():
    frames = np.zeros((64, 2))
    video = VideoSample(id=0, label=0, frames=frames)
    a = [i for i, _ in sample_clips(video, 8, 4, rng.stream(3, rng.CLIP_SAMPLE, 5))]
    b = [i for i, _ in sample_clips(video, 8, 4, rng.stream(3, rng.CLIP_SAMPLE, 5))]
    assert a == b


def test_dataset_roundtrip_is_bit_exact(tmp_path):
    spec = DatasetSpec(num_classes=3, videos_per_class=5, frames_per_video=8,
                       clip_length=4, feature_dim=6, noise_std=0.25, seed=9,
                       template_seed=4, template_jitter=0.1)
    videos = generate_dataset(spec)
    path = str(tmp_path / "data.dpvd")
    save_dataset(path, spec, videos)
    loaded_spec, loaded = load_dataset(path)
    assert loaded_spec == spec
    assert len(loaded) == len(videos)
    for a, b in zip(videos, loaded):
        assert a.id == b.id and a.label == b.label
        assert np.array_equal(a.frames, b.frames)
    # byte-level determinism of the writer
    other = str(tmp_path / "again.dpvd")
    save_dataset(other, spec, videos)
    assert Path(path).read_bytes() == Path(other).read_bytes()


def test_empty_dataset_roundtrip(tmp_path):
    spec = DatasetSpec(num_classes=3, videos_per_class=5, frames_per_video=8,
                       clip_length=4, feature_dim=6, noise_std=0.25, seed=9)
    path = str(tmp_path / "empty.dpvd")
    save_dataset(path, spec, [])
    loaded_spec, loaded = load_dataset(path)
    assert loaded_spec == spec
    assert loaded == []


def test_truncated_dataset_reports_byte_offset(tmp_path):
    spec = DatasetSpec(num_classes=2, videos_per_class=2, frames_per_video=4,
                       clip_length=2, feature_dim=3, noise_std=0.1, seed=2)
    path = tmp_path / "data.dpvd"
    save_dataset(str(path), spec, generate_dataset(spec))
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(DatasetFormatError, match=r"byte offset \d+"):
        load_dataset(str(path))


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "junk.dpvd"
    path.write_bytes(b"WHAT" + b"\x00" * 64)
    with pytest.raises(DatasetFormatError, match="bad magic"):
        load_dataset(str(path))


# Byte offsets in a dataset file: 4-byte magic, u32 version, the 53-byte header
# "<IIIIIdQBQd", then each video's "<QIII" record header (id, label, t, d).
CLIP_LENGTH_AT = 8 + 12
FIRST_VIDEO_AT = 8 + 53


@pytest.mark.parametrize("offset, fmt, values", [
    (FIRST_VIDEO_AT + 12, "<II", (0xFFFFFFFF, 0xFFFFFFFF)),  # t = d = 2**32 - 1
    (FIRST_VIDEO_AT + 8, "<I", (7,)),  # label 7 in a 2-class spec
    (FIRST_VIDEO_AT + 12, "<II", (2, 6)),  # frames (2, 6) under a (4, 3) spec
    (CLIP_LENGTH_AT, "<I", (0,)),  # clip_length 0
], ids=["huge_frames", "label_out_of_range", "frames_off_spec", "zero_clip_length"])
def test_corrupt_dataset_fails_with_format_error(tmp_path, offset, fmt, values):
    spec = DatasetSpec(num_classes=2, videos_per_class=2, frames_per_video=4,
                       clip_length=2, feature_dim=3, noise_std=0.1, seed=2)
    path = tmp_path / "data.dpvd"
    save_dataset(str(path), spec, generate_dataset(spec))
    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, offset, *values)
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetFormatError, match=r"byte offset \d+|dataset header"):
        load_dataset(str(path))
