import struct

import numpy as np
import pytest

from dpvideo.autodiff import backward, run_forward
from dpvideo.data import VideoSample
from dpvideo.models import (
    AdapterSpec,
    CheckpointFormatError,
    Model,
    ModelConfig,
    build_model,
    insert_adapters,
    load_checkpoint,
    load_into,
    predict_video,
    save_checkpoint,
    video_logits,
)

FIXTURE = ModelConfig(input_dim=6, frames_per_clip=4, hidden_dims=(8, 8),
                      norm_kind="layer", num_classes=5)


def test_bare_head_parameter_count():
    for dim, classes in ((6, 5), (3, 2), (10, 7)):
        config = ModelConfig(input_dim=dim, frames_per_clip=4, hidden_dims=(),
                             norm_kind="none", num_classes=classes)
        model = build_model(config, seed=0)
        assert model.params.count_trainable() == (dim + 1) * classes


def test_same_seed_same_parameters():
    a = build_model(FIXTURE, seed=42)
    b = build_model(FIXTURE, seed=42)
    c = build_model(FIXTURE, seed=43)
    for name in a.params.names():
        assert np.array_equal(a.params.value(name), b.params.value(name))
    assert any(
        not np.array_equal(a.params.value(n), c.params.value(n)) for n in a.params.names()
    )


def test_groupnorm_single_group_equals_layernorm():
    layer_cfg = FIXTURE
    group_cfg = ModelConfig(input_dim=6, frames_per_clip=4, hidden_dims=(8, 8),
                            norm_kind="group", norm_groups=1, num_classes=5)
    a = build_model(layer_cfg, seed=7)
    b = build_model(group_cfg, seed=7)
    gen = np.random.default_rng(0)
    for _ in range(20):
        clip = gen.standard_normal((4, 6))
        assert np.array_equal(a.clip_logits(clip), b.clip_logits(clip))


def test_groupnorm_divisibility_is_rejected():
    with pytest.raises(ValueError, match="does not divide"):
        ModelConfig(input_dim=6, frames_per_clip=4, hidden_dims=(9,),
                    norm_kind="group", norm_groups=2, num_classes=5)


def test_batchnorm_style_kinds_are_rejected():
    with pytest.raises(ValueError, match="batch"):
        ModelConfig(input_dim=6, frames_per_clip=4, hidden_dims=(8,),
                    norm_kind="batch", num_classes=5)


def test_layernorm_standardizes_before_affine():
    # the normalized variance is v/(v+eps), so the 1e-9 window needs input
    # variance well above the 1e-5 regularizer; probe the primitive directly
    from dpvideo.autodiff import Tape
    from dpvideo.models import NORM_EPS, ParameterStore

    gen = np.random.default_rng(1)
    for groups in (1, 2):
        tape = Tape()
        x = tape.input("x", (5, 8))
        out = tape.normalize(x, tape.param("scale"), tape.param("shift"),
                             groups=groups, eps=NORM_EPS, name="norm")
        tape.mark_outputs(out, out)
        store = ParameterStore()
        store.add("scale", np.ones(8))
        store.add("shift", np.zeros(8))
        for _ in range(50):
            data = 5000.0 * gen.standard_normal((5, 8))
            values = run_forward(tape, {"x": data}, store)
            normed = values[out].reshape(5, groups, 8 // groups)
            assert np.max(np.abs(normed.mean(axis=-1))) < 1e-9
            assert np.max(np.abs(normed.var(axis=-1) - 1.0)) < 1e-9


def test_adapter_insertion_preserves_outputs():
    model = build_model(FIXTURE, seed=3)
    gen = np.random.default_rng(2)
    probes = [gen.standard_normal((4, 6)) for _ in range(1000)]
    before = [model.clip_logits(p) for p in probes]
    insert_adapters(model, AdapterSpec(bottleneck_dim=4), seed=3)
    worst = max(
        float(np.max(np.abs(model.clip_logits(p) - b))) for p, b in zip(probes, before)
    )
    assert worst < 1e-12


def test_adapter_parameter_count():
    model = build_model(FIXTURE, seed=3)
    base = sum(model.params.value(n).size for n in model.params.names())
    insert_adapters(model, AdapterSpec(bottleneck_dim=4), seed=3)
    total = sum(model.params.value(n).size for n in model.params.names())
    h, b = 8, 4
    per_adapter = (h * b + b) + (b * h + h)
    assert total - base == 2 * per_adapter


def test_adapter_step_breaks_identity():
    model = build_model(FIXTURE, seed=3)
    gen = np.random.default_rng(4)
    clip = gen.standard_normal((4, 6))
    before = model.clip_logits(clip)
    insert_adapters(model, AdapterSpec(bottleneck_dim=4), seed=3)
    for name in model.params.names():
        model.params.set_trainable(name, name.startswith("adapter"))
    grads = backward(model.tape, {"clip": clip, "label": 1}, model.params)
    model.params.apply_delta(-0.5 * model.params.pack_gradient(grads))
    after = model.clip_logits(clip)
    assert not np.allclose(before, after, atol=1e-9)


def test_adapter_bottleneck_must_be_narrower():
    model = build_model(FIXTURE, seed=3)
    with pytest.raises(ValueError, match="smaller than hidden width"):
        insert_adapters(model, AdapterSpec(bottleneck_dim=8), seed=3)


def test_double_insertion_rejected():
    model = build_model(FIXTURE, seed=3)
    insert_adapters(model, AdapterSpec(bottleneck_dim=4), seed=3)
    with pytest.raises(ValueError, match="already inserted"):
        insert_adapters(model, AdapterSpec(bottleneck_dim=4), seed=3)


def identity_model(num_classes: int) -> Model:
    model = build_model(
        ModelConfig(input_dim=num_classes, frames_per_clip=1, hidden_dims=(),
                    norm_kind="none", num_classes=num_classes),
        seed=0,
    )
    model.params.set_value("head.weight", np.eye(num_classes))
    model.params.set_value("head.bias", np.zeros(num_classes))
    return model


def test_predict_single_clip_video_is_clip_argmax():
    model = identity_model(4)
    frames = np.array([[0.1, 2.0, -1.0, 0.5]])
    video = VideoSample(id=0, label=0, frames=frames)
    assert predict_video(model, video) == 1


def test_predict_cancelling_clips_leave_the_tiebreaker_clip():
    model = identity_model(4)
    strong = np.array([3.0, -1.0, 2.0, 0.5])
    basis = np.zeros(4)
    basis[2] = 1.0
    frames = np.vstack([strong, -strong, strong, -strong, basis])
    video = VideoSample(id=0, label=0, frames=frames)
    assert predict_video(model, video) == 2


def test_predict_ties_break_to_lowest_class():
    model = identity_model(3)
    video = VideoSample(id=0, label=0, frames=np.zeros((2, 3)))
    assert predict_video(model, video) == 0


def test_predict_matches_external_logit_average():
    model = build_model(FIXTURE, seed=11)
    gen = np.random.default_rng(12)
    frames = gen.standard_normal((12, 6))  # 3 clips of 4 frames
    video = VideoSample(id=0, label=0, frames=frames)
    expected = np.mean([model.clip_logits(frames[i * 4 : (i + 1) * 4]) for i in range(3)], axis=0)
    assert predict_video(model, video) == int(np.argmax(expected))
    assert np.allclose(video_logits(model, video), expected)


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    model = build_model(FIXTURE, seed=21)
    insert_adapters(model, AdapterSpec(bottleneck_dim=4), seed=21)
    path = str(tmp_path / "model.dpvm")
    save_checkpoint(path, model.params)
    loaded = load_checkpoint(path)
    assert list(loaded) == model.params.names()
    for name, value in loaded.items():
        assert np.array_equal(value, model.params.value(name))
        assert value.dtype == np.float64


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.dpvm"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointFormatError, match="bad magic"):
        load_checkpoint(str(path))


def test_checkpoint_truncation_reports_offset(tmp_path):
    model = build_model(FIXTURE, seed=21)
    path = tmp_path / "model.dpvm"
    save_checkpoint(str(path), model.params)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(CheckpointFormatError, match="byte offset"):
        load_checkpoint(str(path))


# The first record of a FIXTURE checkpoint, after the 8-byte magic and version:
# u32 name length, the 13-byte name "layer0.weight", u32 rank 2, two u32 dims.
FIRST_NAME_AT = 8 + 4
FIRST_DIMS_AT = FIRST_NAME_AT + 13 + 4


@pytest.mark.parametrize("offset, patch", [
    (FIRST_DIMS_AT, struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)),  # element count overflows int64
    (FIRST_NAME_AT, b"\xff"),  # name is not UTF-8
], ids=["overflowing_dims", "non_utf8_name"])
def test_corrupt_checkpoint_fails_with_format_error(tmp_path, offset, patch):
    model = build_model(FIXTURE, seed=21)
    path = tmp_path / "model.dpvm"
    save_checkpoint(str(path), model.params)
    blob = bytearray(path.read_bytes())
    assert blob[FIRST_NAME_AT : FIRST_NAME_AT + 13] == b"layer0.weight"
    blob[offset : offset + len(patch)] = patch
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match=r"byte offset \d+"):
        load_checkpoint(str(path))


def test_load_into_rejects_unknown_and_mismatched(tmp_path):
    model = build_model(FIXTURE, seed=21)
    with pytest.raises(ValueError, match="unknown parameter"):
        load_into(model.params, {"nonexistent.weight": np.zeros(3)})
    with pytest.raises(ValueError, match="shape"):
        load_into(model.params, {"head.bias": np.zeros(99)})
