import numpy as np
import pytest

from dpvideo.dp import (
    MultiClipEntry,
    NoiseConfig,
    clip_gradient,
    clip_video_gradients,
    dp_sgd_step,
    multi_clip_step,
    noisy_aggregate,
    per_video_gradient,
)
from dpvideo.models import ModelConfig, build_model

MODEL_CFG = ModelConfig(input_dim=4, frames_per_clip=2, hidden_dims=(6,),
                        norm_kind="layer", num_classes=3)


def fresh_model(seed=0):
    return build_model(MODEL_CFG, seed=seed)


class TestClipGradient:
    def test_norm_five_scaled_to_one(self):
        assert np.allclose(clip_gradient(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_within_bound_passes_through_bitwise(self):
        g = np.array([0.3, 0.4])
        out = clip_gradient(g, 1.0)
        assert np.array_equal(out, g)

    def test_norm_five_scaled_to_two(self):
        assert np.allclose(clip_gradient(np.array([3.0, 4.0]), 2.0), [1.2, 1.6])

    def test_zero_vector_is_fixed_point(self):
        z = np.zeros(5)
        assert np.array_equal(clip_gradient(z, 0.5), z)

    def test_bound_holds_over_random_gradients(self):
        gen = np.random.default_rng(0)
        for _ in range(500):
            dim = int(gen.integers(1, 50))
            g = gen.standard_normal(dim) * float(10.0 ** gen.uniform(-3, 3))
            for c in (0.5, 1.0, 2.0):
                clipped = clip_gradient(g, c)
                assert np.linalg.norm(clipped) <= c + 1e-9
                if np.linalg.norm(g) <= c:
                    assert np.array_equal(clipped, g)

    def test_positively_homogeneous_in_unclipped_region(self):
        gen = np.random.default_rng(1)
        g = gen.standard_normal(8)
        g /= np.linalg.norm(g) * 4.0  # norm 0.25
        for s in (0.5, 2.0, 3.9):
            lhs = clip_gradient(s * g, 1.0)
            assert np.allclose(lhs, s * clip_gradient(g, 1.0), rtol=1e-12)

    def test_rejects_nonpositive_bound(self):
        for bound in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                clip_gradient(np.ones(3), bound)


class TestNoisyAggregate:
    def test_zero_sigma_is_exact_mean(self):
        cfg = NoiseConfig(clip_norm=1.0, noise_multiplier=0.0, seed=0)
        vecs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5])]
        assert np.array_equal(noisy_aggregate(vecs, cfg, 0), np.array([0.5, 0.5]))

    def test_single_zero_vector_exposes_the_noise(self):
        cfg = NoiseConfig(clip_norm=1.0, noise_multiplier=1.0, seed=7)
        draws = noisy_aggregate([np.zeros(100_000)], cfg, 0)
        assert abs(draws.mean()) < 4.0 / np.sqrt(100_000)
        assert abs(draws.var() - 1.0) < 0.05

    def test_noise_scale_is_sigma_times_clip_norm(self):
        unit = noisy_aggregate([np.zeros(1000)], NoiseConfig(1.0, 1.0, seed=3), 5)
        scaled = noisy_aggregate([np.zeros(1000)], NoiseConfig(2.0, 1.5, seed=3), 5)
        assert np.allclose(scaled, 3.0 * unit, rtol=1e-12)

    def test_deterministic_in_seed_and_step(self):
        cfg = NoiseConfig(clip_norm=1.0, noise_multiplier=1.0, seed=11)
        a = noisy_aggregate([np.zeros(64)], cfg, 9)
        b = noisy_aggregate([np.zeros(64)], cfg, 9)
        c = noisy_aggregate([np.zeros(64)], cfg, 10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_is_independent_of_batch_contents(self):
        cfg = NoiseConfig(clip_norm=1.0, noise_multiplier=1.0, seed=5)
        z = noisy_aggregate([np.zeros(32)], cfg, 2)
        vecs = [np.full(32, 0.1), np.full(32, -0.1)]
        out = noisy_aggregate(vecs, cfg, 2)
        assert np.allclose(out, z / 2.0, atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            noisy_aggregate([], NoiseConfig(1.0, 1.0, seed=0), 0)


def random_clip_batch(gen, count):
    clips = [gen.standard_normal((2, 4)) for _ in range(count)]
    labels = [int(gen.integers(0, 3)) for _ in range(count)]
    return list(zip(clips, labels))


class TestDpSgdStep:
    def test_frozen_parameters_never_move(self):
        model = fresh_model()
        model.params.set_trainable("layer0.weight", False)
        model.params.set_trainable("layer0.norm.scale", False)
        before = model.params.snapshot(["layer0.weight", "layer0.norm.scale"])
        gen = np.random.default_rng(2)
        cfg = NoiseConfig(clip_norm=1.0, noise_multiplier=1.0, seed=0)
        for step in range(5):
            dp_sgd_step(random_clip_batch(gen, 3), model.tape, model.params, cfg, 0.1, step)
        for name, value in before.items():
            assert np.array_equal(model.params.value(name), value)

    def test_degenerates_to_plain_sgd(self):
        # sigma = 0, one sample, gradient within the bound
        model = fresh_model(seed=3)
        twin = fresh_model(seed=3)
        gen = np.random.default_rng(3)
        clip = gen.standard_normal((2, 4))
        from dpvideo.autodiff import backward

        grad = twin.params.pack_gradient(
            backward(twin.tape, {"clip": clip[None], "label": np.array([1])}, twin.params)
        )
        bound = 2.0 * float(np.linalg.norm(grad))  # comfortably unclipped
        cfg = NoiseConfig(clip_norm=bound, noise_multiplier=0.0, seed=0)
        dp_sgd_step([(clip, 1)], model.tape, model.params, cfg, 0.05, 0)
        twin.params.apply_delta(-0.05 * grad)
        for name in model.params.names():
            assert np.array_equal(model.params.value(name), twin.params.value(name))

    def test_clipped_sample_equals_sgd_with_halved_gradient(self):
        model = fresh_model(seed=4)
        twin = fresh_model(seed=4)
        gen = np.random.default_rng(4)
        clip = gen.standard_normal((2, 4))
        from dpvideo.autodiff import backward

        grad = twin.params.pack_gradient(
            backward(twin.tape, {"clip": clip[None], "label": np.array([2])}, twin.params)
        )
        half_norm = np.linalg.norm(grad) / 2.0
        cfg = NoiseConfig(clip_norm=half_norm, noise_multiplier=0.0, seed=0)
        dp_sgd_step([(clip, 2)], model.tape, model.params, cfg, 0.1, 0)
        twin.params.apply_delta(-0.1 * (grad / 2.0))
        for name in model.params.names():
            assert np.allclose(model.params.value(name), twin.params.value(name), atol=1e-15)


class TestMultiClipStep:
    def test_entry_validation(self):
        c = np.zeros((2, 4))
        with pytest.raises(ValueError, match="at least one clip"):
            MultiClipEntry(label=0, clips=[])
        with pytest.raises(ValueError, match="duplicate clip indices"):
            MultiClipEntry(label=0, clips=[(1, c), (1, c)])

    def test_single_clip_videos_match_dp_sgd_bitwise(self):
        gen = np.random.default_rng(5)
        batch = random_clip_batch(gen, 4)
        a = fresh_model(seed=6)
        b = fresh_model(seed=6)
        cfg = NoiseConfig(clip_norm=1.0, noise_multiplier=0.7, seed=21)
        dp_sgd_step(batch, a.tape, a.params, cfg, 0.1, 3)
        entries = [MultiClipEntry(label=lab, clips=[(0, clip)]) for clip, lab in batch]
        multi_clip_step(entries, b.tape, b.params, cfg, 0.1, 3)
        for name in a.params.names():
            assert np.array_equal(a.params.value(name), b.params.value(name))

    def test_identical_clips_average_to_the_same_gradient(self):
        model = fresh_model(seed=7)
        gen = np.random.default_rng(7)
        clip = gen.standard_normal((2, 4))
        entry = MultiClipEntry(label=1, clips=[(i, clip.copy()) for i in range(4)])
        avg, _ = per_video_gradient(model.tape, model.params, entry)
        from dpvideo.autodiff import backward

        single = model.params.pack_gradient(
            backward(model.tape, {"clip": clip[None], "label": np.array([1])}, model.params)
        )
        assert np.allclose(avg, single, atol=1e-15)

    def test_one_video_two_clips_updates_by_the_mean_gradient(self):
        model = fresh_model(seed=8)
        gen = np.random.default_rng(8)
        c1, c2 = gen.standard_normal((2, 2, 4))
        from dpvideo.autodiff import backward

        g1 = model.params.pack_gradient(backward(model.tape, {"clip": c1[None], "label": np.array([0])}, model.params))
        g2 = model.params.pack_gradient(backward(model.tape, {"clip": c2[None], "label": np.array([0])}, model.params))
        mean = (g1 + g2) / 2.0
        bound = 2.0 * float(np.linalg.norm(mean))
        before = model.params.snapshot()
        cfg = NoiseConfig(clip_norm=bound, noise_multiplier=0.0, seed=0)
        multi_clip_step(
            [MultiClipEntry(label=0, clips=[(0, c1), (1, c2)])],
            model.tape, model.params, cfg, 0.2, 0,
        )
        expected = before["head.weight"] - 0.2 * mean[-(3 * 6 + 3) : -3].reshape(6, 3)
        assert np.allclose(model.params.value("head.weight"), expected, atol=1e-14)

    def test_clip_order_within_a_video_does_not_matter(self):
        model = fresh_model(seed=9)
        gen = np.random.default_rng(9)
        clips = [(i, gen.standard_normal((2, 4))) for i in range(4)]
        shuffled = [clips[2], clips[0], clips[3], clips[1]]
        a, _ = per_video_gradient(model.tape, model.params, MultiClipEntry(label=2, clips=clips))
        b, _ = per_video_gradient(model.tape, model.params, MultiClipEntry(label=2, clips=shuffled))
        assert np.array_equal(a, b)

    def test_removing_any_video_shifts_the_presum_by_at_most_clip_norm(self):
        gen = np.random.default_rng(10)
        model = fresh_model(seed=10)
        cfg = NoiseConfig(clip_norm=1.0, noise_multiplier=0.0, seed=0)
        for _ in range(10):
            batch = [
                MultiClipEntry(
                    label=int(gen.integers(0, 3)),
                    clips=[(j, gen.standard_normal((2, 4))) for j in range(int(gen.integers(1, 4)))],
                )
                for _ in range(int(gen.integers(2, 5)))
            ]
            clipped, _ = clip_video_gradients(model.tape, model.params, batch, cfg)
            full_sum = np.sum(clipped, axis=0)
            for drop in range(len(batch)):
                reduced = [e for i, e in enumerate(batch) if i != drop]
                partial, _ = clip_video_gradients(model.tape, model.params, reduced, cfg)
                delta = full_sum - np.sum(partial, axis=0)
                assert np.linalg.norm(delta) <= cfg.clip_norm + 1e-9


def test_noise_config_validation():
    # a nan sigma would fail the noise branch's test, and the step would release the unnoised mean
    nan, inf = float("nan"), float("inf")
    for clip_norm, noise_multiplier in ((0.0, 1.0), (nan, 1.0), (inf, 1.0), (1.0, -0.5), (1.0, nan), (1.0, inf)):
        with pytest.raises(ValueError):
            NoiseConfig(clip_norm=clip_norm, noise_multiplier=noise_multiplier, seed=0)
