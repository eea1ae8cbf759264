"""The benchmark's traced run wraps dpvideo functions by name; they must stay.

perfbench/layers.py lists (owner, attribute) pairs and replaces each attribute
with a timing span. A renamed or deleted attribute makes a traced run fail, so
every pair must name an attribute defined directly on its owner, and
dpvideo's own calls must go through the attributes that the spans wrap. The
benchmark's checks also call a few functions directly; their return shapes
are pinned here.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from dpvideo import dp, finetune, models, trainer
from dpvideo.data import DatasetSpec, VideoSample, generate_dataset, save_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_point_names_an_attribute_of_its_owner():
    layers = load_perfbench("layers")
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in layers.POINTS
               if attr not in owner.__dict__]
    assert not missing


def test_functions_the_benchmark_checks_call_keep_their_shapes():
    # the ModelConfig keywords that perfbench/workloads.py passes
    config = models.ModelConfig(input_dim=3, frames_per_clip=2, hidden_dims=(4,), norm_kind="layer",
                                num_classes=5)
    model = models.build_model(config, 0)
    # the traced run counts parameters on the store that apply_scheme returns
    assert trainer.apply_scheme(model.params, finetune.Scheme("full")) is model.params
    gen = np.random.default_rng(0)
    entries = [dp.MultiClipEntry(label=1, clips=[(i, gen.standard_normal((2, 3))) for i in range(k)])
               for k in (1, 3)]
    grad, losses = dp.per_video_gradient(model.tape, model.params, entries[1])
    assert grad.shape == (model.params.count_trainable(),) and len(losses) == 3
    cfg = dp.NoiseConfig(clip_norm=1.0, noise_multiplier=0.0, seed=0)
    clipped, losses = dp.clip_video_gradients(model.tape, model.params, entries, cfg)
    assert [g.shape for g in clipped] == [grad.shape] * 2 and len(losses) == 4
    video = VideoSample(id=0, label=1, frames=gen.standard_normal((6, 3)))
    assert models.video_logits(model, video).shape == (5,)
    assert isinstance(models.predict_video(model, video), int)


def test_dpvideo_calls_reach_the_traced_spans(tmp_path):
    # a span sees only the calls made through the attribute it wraps, so a caller
    # that binds a function at import time escapes its span
    layers, spans = load_perfbench("layers"), load_perfbench("spans")
    spec = DatasetSpec(num_classes=2, videos_per_class=3, frames_per_video=8, clip_length=4,
                       feature_dim=4, noise_std=0.3, seed=5)
    data = str(tmp_path / "data.dpvd")
    videos = generate_dataset(spec)
    save_dataset(data, spec, videos)
    tracer = spans.Tracer()
    with tracer.installed(layers.POINTS):
        model, _ = trainer.pretrain(trainer.PretrainConfig(
            data=data, out=str(tmp_path / "source.dpvm"), hidden_dims=(4,), epochs=1, batch_size=4))
        trainer.train(trainer.TrainConfig(
            train_data=data, eval_data=data, hidden_dims=(4,), clips_per_video=2, noise_multiplier=1.0,
            sampling_rate=1.0, max_epochs=1.0, eval_every=1))
        trainer.evaluate(model, videos)
    calls = Counter(tracer.names)
    expected = ["autodiff.per_sample_gradients", "autodiff.run_forward", "autodiff.backward", "autodiff.forward",
                "autodiff.gradient_of_mean_loss", "dp.per_video_gradient", "dp.clip_gradient", "dp.noisy_aggregate",
                "dp.multi_clip_step", "models.predict_video", "accountant.create", "accountant.to_epsilon"]
    assert [name for name in expected if calls[name] < 1] == []
