import math

import numpy as np
import pytest

from dpvideo.autodiff import (
    NonFiniteLossError,
    ShapeMismatchError,
    backward,
    forward,
    gradient_of_mean_loss,
    per_sample_gradients,
)
from dpvideo.data import VideoSample
from dpvideo.models import AdapterSpec, Model, ModelConfig, build_model, insert_adapters, predict_video, video_logits
from oracles import finite_difference, grad_close


def identity_head_model(num_classes: int) -> Model:
    """Bare linear head with identity weights: logits equal the (pooled) input."""
    model = build_model(
        ModelConfig(input_dim=num_classes, frames_per_clip=1, hidden_dims=(),
                    norm_kind="none", num_classes=num_classes),
        seed=0,
    )
    model.params.set_value("head.weight", np.eye(num_classes))
    model.params.set_value("head.bias", np.zeros(num_classes))
    return model


def test_identity_network_returns_input():
    model = identity_head_model(4)
    x = np.array([0.3, -1.2, 2.5, 0.0])
    _, logits = forward(model.tape, {"clip": x.reshape(1, 1, 4), "label": np.array([0])}, model.params)
    assert np.array_equal(logits[0], x)


def test_zero_weight_head_gives_log_num_classes():
    for num_classes in (2, 5, 10):
        model = build_model(
            ModelConfig(input_dim=3, frames_per_clip=2, hidden_dims=(),
                        norm_kind="none", num_classes=num_classes),
            seed=1,
        )
        model.params.set_value("head.weight", np.zeros((3, num_classes)))
        model.params.set_value("head.bias", np.zeros(num_classes))
        clip = np.random.default_rng(7).standard_normal((2, 3))
        (loss,), _ = forward(model.tape, {"clip": clip[None], "label": np.array([1])}, model.params)
        assert loss == pytest.approx(math.log(num_classes), abs=1e-15)


def test_two_layer_net_matches_hand_computed_loss():
    # x = [1, 2]; W0 = [[1,-1],[0.5,0.5]]; b0 = [0.5,-0.5]
    # pre-activation = [1 + 1 + 0.5, -1 + 1 - 0.5] = [2.5, -0.5]; relu -> [2.5, 0]
    # head = identity + [0.25, -0.25] -> logits [2.75, -0.25]
    # label 0 loss = log(e^2.75 + e^-0.25) - 2.75 = log(1 + e^-3)
    model = build_model(
        ModelConfig(input_dim=2, frames_per_clip=1, hidden_dims=(2,),
                    norm_kind="none", num_classes=2),
        seed=0,
    )
    model.params.set_value("layer0.weight", np.array([[1.0, -1.0], [0.5, 0.5]]))
    model.params.set_value("layer0.bias", np.array([0.5, -0.5]))
    model.params.set_value("head.weight", np.eye(2))
    model.params.set_value("head.bias", np.array([0.25, -0.25]))
    (loss,), (logits,) = forward(model.tape, {"clip": np.array([[[1.0, 2.0]]]), "label": np.array([0])},
                                 model.params)
    assert np.allclose(logits, [2.75, -0.25])
    assert loss == pytest.approx(math.log(1.0 + math.exp(-3.0)), abs=1e-15)
    assert loss == pytest.approx(0.04858735157374206, abs=1e-15)


def test_forward_is_deterministic():
    model = build_model(
        ModelConfig(input_dim=5, frames_per_clip=3, hidden_dims=(6,), num_classes=4), seed=3
    )
    clip = np.random.default_rng(0).standard_normal((3, 5))
    first = forward(model.tape, {"clip": clip[None], "label": np.array([2])}, model.params)
    second = forward(model.tape, {"clip": clip[None], "label": np.array([2])}, model.params)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_shape_mismatch_names_the_offending_node():
    model = build_model(
        ModelConfig(input_dim=5, frames_per_clip=3, hidden_dims=(6,), num_classes=4), seed=3
    )
    with pytest.raises(ShapeMismatchError, match="clip"):
        forward(model.tape, {"clip": np.zeros((1, 3, 4)), "label": np.array([0])}, model.params)
    model.params.set_value("head.weight", np.zeros((6, 4)))  # fine
    bad = build_model(
        ModelConfig(input_dim=5, frames_per_clip=3, hidden_dims=(6,), num_classes=4), seed=3
    )
    bad.params._params["layer0.weight"].value = np.zeros((4, 6))  # sabotage
    with pytest.raises(ShapeMismatchError, match="layer0.matmul"):
        forward(bad.tape, {"clip": np.zeros((1, 3, 5)), "label": np.array([0])}, bad.params)


def test_label_count_must_match_clip_count():
    model = build_model(
        ModelConfig(input_dim=5, frames_per_clip=3, hidden_dims=(6,), num_classes=4), seed=3
    )
    with pytest.raises(ShapeMismatchError, match="node 'loss': 2 labels for 3 clips"):
        forward(model.tape, {"clip": np.zeros((3, 3, 5)), "label": np.array([0, 1])}, model.params)


def _random_model(gen: np.random.Generator) -> tuple[Model, dict]:
    frames = int(gen.integers(1, 4))
    dim = int(gen.integers(2, 6))
    hidden = tuple(int(gen.integers(2, 7)) * 2 for _ in range(int(gen.integers(0, 3))))
    norm = gen.choice(["layer", "group", "none"]) if hidden else "none"
    config = ModelConfig(
        input_dim=dim,
        frames_per_clip=frames,
        hidden_dims=hidden,
        norm_kind=str(norm),
        norm_groups=2 if norm == "group" else 1,
        num_classes=int(gen.integers(2, 5)),
    )
    model = build_model(config, seed=int(gen.integers(0, 1 << 31)))
    # move away from the symmetric init so gradients are generic
    for name in model.params.names():
        value = model.params.value(name)
        model.params.set_value(name, value + 0.3 * gen.standard_normal(value.shape))
    inputs = {
        "clip": gen.standard_normal((frames, dim))[None],
        "label": np.array([int(gen.integers(0, config.num_classes))]),
    }
    return model, inputs


def test_gradients_match_finite_differences_over_random_models():
    gen = np.random.default_rng(2024)
    trials = 0
    while trials < 120:
        model, inputs = _random_model(gen)
        grads = backward(model.tape, inputs, model.params)
        name = str(gen.choice(model.params.names()))
        value = model.params.value(name)
        index = tuple(int(gen.integers(0, s)) for s in value.shape)
        analytic = float(grads[name][index]) if name in grads else 0.0
        numeric = finite_difference(model.tape, inputs, model.params, name, index)
        assert grad_close(analytic, numeric), (
            f"gradient mismatch at {name}{index}: analytic={analytic}, fd={numeric}"
        )
        trials += 1


def test_per_sample_singleton_matches_lone_run():
    model = build_model(
        ModelConfig(input_dim=4, frames_per_clip=2, hidden_dims=(6,), num_classes=3), seed=9
    )
    gen = np.random.default_rng(5)
    clip = gen.standard_normal((2, 4))
    batch = {"clip": clip.reshape(1, 1, 2, 4), "label": np.array([[1.0]])}
    grads, losses = per_sample_gradients(model.tape, batch, model.params)
    inputs = {"clip": clip[None], "label": np.array([1])}
    lone = model.params.pack_gradient(backward(model.tape, inputs, model.params))
    assert len(grads) == 1
    assert np.array_equal(grads[0], lone)
    (loss,), _ = forward(model.tape, inputs, model.params)
    assert losses[0] == loss


def test_duplicated_sample_yields_identical_gradients():
    model = build_model(
        ModelConfig(input_dim=4, frames_per_clip=2, hidden_dims=(6,), num_classes=3), seed=9
    )
    gen = np.random.default_rng(6)
    clip = gen.standard_normal((2, 4))
    other = gen.standard_normal((2, 4))
    batch = {"clip": np.stack([clip, other, clip])[:, None], "label": np.array([[1.0], [0.0], [1.0]])}
    grads, _ = per_sample_gradients(model.tape, batch, model.params)
    assert np.array_equal(grads[0], grads[2])
    assert not np.array_equal(grads[0], grads[1])


def test_per_sample_order_matches_batch_order():
    model = build_model(
        ModelConfig(input_dim=3, frames_per_clip=1, hidden_dims=(), num_classes=3), seed=2
    )
    gen = np.random.default_rng(8)
    clips = gen.standard_normal((4, 1, 3))
    labels = np.array([0.0, 1.0, 2.0, 0.0])
    grads, _ = per_sample_gradients(model.tape, {"clip": clips[:, None], "label": labels[:, None]}, model.params)
    for i in range(4):
        lone = model.params.pack_gradient(
            backward(model.tape, {"clip": clips[i, None], "label": labels[i, None]}, model.params)
        )
        assert np.array_equal(grads[i], lone)


def test_sum_of_per_sample_gradients_matches_summed_loss_fd():
    model = build_model(
        ModelConfig(input_dim=4, frames_per_clip=2, hidden_dims=(4,), norm_kind="layer",
                    num_classes=3),
        seed=11,
    )
    gen = np.random.default_rng(12)
    clips = gen.standard_normal((5, 2, 4))
    labels = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    grads, _ = per_sample_gradients(model.tape, {"clip": clips[:, None], "label": labels[:, None]}, model.params)
    total = np.sum(grads, axis=0)

    def summed_loss() -> float:
        return sum(
            float(forward(model.tape, {"clip": clips[i, None], "label": labels[i, None]}, model.params)[0][0])
            for i in range(5)
        )

    flat_names = [
        (name, idx)
        for name in model.params.trainable_names()
        for idx in np.ndindex(model.params.value(name).shape)
    ]
    offset = 0
    h = 1e-5
    for name in model.params.trainable_names():
        value = model.params.value(name)
        for idx in np.ndindex(value.shape):
            original = value[idx]
            bumped = value.copy(); bumped[idx] = original + h
            model.params.set_value(name, bumped)
            up = summed_loss()
            bumped[idx] = original - h
            model.params.set_value(name, bumped)
            down = summed_loss()
            bumped[idx] = original
            model.params.set_value(name, bumped)
            numeric = (up - down) / (2 * h)
            assert grad_close(total[offset], numeric, rel=1e-4), (name, idx)
            offset += 1
    assert offset == len(flat_names)


def test_mean_gradient_consistency():
    model = build_model(
        ModelConfig(input_dim=4, frames_per_clip=2, hidden_dims=(6,), num_classes=3), seed=13
    )
    gen = np.random.default_rng(14)
    batch = {"clip": gen.standard_normal((7, 1, 2, 4)), "label": np.array([0., 1., 2., 0., 1., 2., 0.])[:, None]}
    grads, _ = per_sample_gradients(model.tape, batch, model.params)
    mean_of_grads = np.mean(np.stack(grads), axis=0)
    grad_of_mean = gradient_of_mean_loss(model.tape, batch, model.params)
    denom = max(np.linalg.norm(mean_of_grads), 1e-30)
    assert np.linalg.norm(mean_of_grads - grad_of_mean) / denom < 1e-10


def test_non_finite_loss_identifies_sample():
    model = build_model(
        ModelConfig(input_dim=3, frames_per_clip=1, hidden_dims=(), num_classes=2), seed=4
    )
    clips = np.zeros((3, 1, 1, 3))
    clips[2, 0, 0, 0] = np.inf
    with pytest.raises(NonFiniteLossError, match="sample index 2"):
        per_sample_gradients(model.tape, {"clip": clips, "label": np.zeros((3, 1))}, model.params)


def test_batch_must_be_nonempty():
    model = build_model(
        ModelConfig(input_dim=3, frames_per_clip=1, hidden_dims=(), num_classes=2), seed=4
    )
    with pytest.raises(ValueError, match="at least one sample"):
        per_sample_gradients(
            model.tape, {"clip": np.zeros((0, 1, 1, 3)), "label": np.zeros((0, 1))}, model.params
        )


@pytest.mark.parametrize("width", [64, 128])
@pytest.mark.parametrize("clips", [1, 2, 8])
@pytest.mark.parametrize("adapters", [False, True])
@pytest.mark.parametrize("norm", ["layer", "group", "none"])
def test_one_walk_over_a_video_matches_lone_clip_walks_bitwise(norm, adapters, clips, width):
    config = ModelConfig(input_dim=12, frames_per_clip=4, hidden_dims=(width,), norm_kind=norm,
                         norm_groups=4 if norm == "group" else 1, num_classes=10)
    model = build_model(config, seed=width + clips)
    if adapters:
        insert_adapters(model, AdapterSpec(16), seed=3)
    gen = np.random.default_rng(clips)
    for name in model.params.names():  # leave the init so that every product is generic
        value = model.params.value(name)
        model.params.set_value(name, value + 0.3 * gen.standard_normal(value.shape))
    stack = gen.standard_normal((clips, 4, 12))

    total = np.zeros(model.params.count_trainable())
    lone_losses = []
    lone_logits = []
    for clip in stack:
        inputs = {"clip": clip[None], "label": np.array([7])}
        total += model.params.pack_gradient(backward(model.tape, inputs, model.params))
        clip_losses, clip_logits = forward(model.tape, inputs, model.params)
        lone_losses.extend(clip_losses.tolist())
        lone_logits.append(clip_logits[0])
    grads, losses = per_sample_gradients(
        model.tape, {"clip": stack[None], "label": np.full((1, clips), 7.0)}, model.params)
    assert np.array_equal(grads[0], total / clips)
    assert losses == lone_losses

    logits = np.zeros(10)
    for clip_logits in lone_logits:
        logits += clip_logits
    video = VideoSample(id=0, label=7, frames=stack.reshape(clips * 4, 12))
    assert np.array_equal(video_logits(model, video), logits / clips)
    assert predict_video(model, video) == int(np.argmax(video_logits(model, video)))
