import json
import math
import os
import warnings
from pathlib import Path

import pytest

from dpvideo import trainer
from dpvideo.cli import main
from dpvideo.data import load_dataset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that fails on the NaN and Infinity tokens, which are not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not valid JSON")

    return json.loads(text, parse_constant=reject)


GEN_FLAGS = ["--classes", "3", "--videos-per-class", "4", "--frames", "8",
             "--clip-len", "4", "--dim", "6", "--noise", "0.3"]


class TestGenerateData:
    def test_output_is_loadable(self, capsys, tmp_path):
        out = str(tmp_path / "data.dpvd")
        code, stdout, _ = run_cli(capsys, "generate-data", *GEN_FLAGS, "--seed", "1", "--out", out)
        assert code == 0
        digest, path = stdout.split()
        assert len(digest) == 64 and path == out
        spec, videos = load_dataset(out)
        assert spec.num_classes == 3 and len(videos) == 12

    def test_same_flags_same_digest(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.dpvd"), str(tmp_path / "b.dpvd")
        _, out_a, _ = run_cli(capsys, "generate-data", *GEN_FLAGS, "--seed", "5", "--out", a)
        _, out_b, _ = run_cli(capsys, "generate-data", *GEN_FLAGS, "--seed", "5", "--out", b)
        assert out_a.split()[0] == out_b.split()[0]
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_nondividing_clip_length_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "generate-data", "--frames", "10", "--clip-len", "4",
            "--out", str(tmp_path / "x.dpvd"),
        )
        assert code == 2
        assert "does not divide" in err


class TestAccount:
    def test_zero_steps_zero_epsilon(self, capsys):
        code, out, _ = run_cli(capsys, "account", "--q", "0.1", "--sigma", "1.0",
                               "--steps", "0", "--delta", "1e-5")
        assert code == 0
        record = json.loads(out)
        assert record["epsilon"] == 0.0
        assert record["steps"] == 0

    def test_full_batch_single_step_matches_grid_minimum(self, capsys):
        code, out, _ = run_cli(capsys, "account", "--q", "1", "--sigma", "1",
                               "--steps", "1", "--delta", "1e-5")
        assert code == 0
        record = json.loads(out)
        # frozen from the exhaustive order scan
        assert record["epsilon"] == pytest.approx(5.302585092994046, abs=1e-12)
        assert record["best_order"] == 6
        assert record["sigma"] == 1.0

    def test_calibration_roundtrips_through_accounting(self, capsys):
        code, out, _ = run_cli(capsys, "account", "--q", "0.05", "--target-eps", "2.0",
                               "--steps", "300", "--delta", "1e-5")
        assert code == 0
        record = json.loads(out)
        assert abs(record["epsilon"] - 2.0) / 2.0 <= 1e-4
        code2, out2, _ = run_cli(capsys, "account", "--q", "0.05", "--sigma",
                                 str(record["sigma"]), "--steps", "300", "--delta", "1e-5")
        assert code2 == 0
        assert json.loads(out2)["epsilon"] == pytest.approx(record["epsilon"], rel=1e-12)

    def test_infeasible_target_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "account", "--q", "0.01", "--target-eps", "1e9",
                               "--steps", "1", "--delta", "1e-5")
        assert code == 3
        assert "achievable range" in err

    def test_target_with_zero_steps_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "account", "--q", "0.1", "--target-eps", "1",
                                 "--steps", "0", "--delta", "1e-5")
        assert code == 2
        assert "steps must be positive" in err
        assert out == ""

    @pytest.mark.parametrize("q, sigma, code", [
        ("0.1", "1e308", 0), ("1.0", "1e200", 0), ("1.0", "1e-200", 2), ("0.1", "1e-200", 2),
    ])
    def test_sigma_at_the_float_limits_gives_finite_epsilon_or_exits_2(self, capsys, q, sigma, code):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, stdout, err = run_cli(capsys, "account", "--q", q, "--sigma", sigma, "--steps", "10")
        assert got == code
        if code == 0:
            assert math.isfinite(json.loads(stdout)["epsilon"])
        else:
            assert "underflows to 0" in err and stdout == ""

    @pytest.mark.parametrize("q", ["0.1", "1.0"])
    @pytest.mark.parametrize("sigma", ["1e-155", "1e-153"])
    def test_epsilon_beyond_the_floats_is_null_and_warns_nothing(self, capsys, q, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, _ = run_cli(capsys, "account", "--q", q, "--sigma", sigma, "--steps", "10")
        assert code == 0
        epsilon = strict_json(stdout)["epsilon"]
        if sigma == "1e-155":  # sigma**2 = 1e-310: the order-2 divergence overflows
            assert epsilon is None
        else:
            assert math.isfinite(epsilon)

    def test_bad_domain_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "account", "--q", "2.0", "--sigma", "1.0",
                               "--steps", "5", "--delta", "1e-5")
        assert code == 2
        assert "sampling rate" in err


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """Datasets plus a small train config file."""
    root = tmp_path_factory.mktemp("exp")
    train_path = str(root / "train.dpvd")
    eval_path = str(root / "eval.dpvd")
    assert main(["generate-data", *GEN_FLAGS, "--seed", "10", "--out", train_path]) == 0
    assert main(["generate-data", *GEN_FLAGS, "--videos-per-class", "2", "--seed", "11",
                 "--template-seed", "10", "--out", eval_path]) == 0
    config = root / "run.ini"
    config.write_text(f"""
[data]
train = {train_path}
eval = {eval_path}

[model]
hidden = 6
norm = layer

[privacy]
target_epsilon = 4.0
delta = 1e-5
clip_norm = 1.0

[train]
scheme = full
clips_per_video = 1
sampling_rate = 0.5
max_epochs = 2
learning_rate = 0.2
seed = 0
eval_every = 2

[sweep]
clips = 1,2
""")
    return {"config": str(config), "root": root}


class TestTrain:
    def test_missing_config_exits_2_with_no_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        code, _, err = run_cli(capsys, "train", "--config", str(tmp_path / "absent.ini"),
                               "--out", str(out_dir))
        assert code == 2
        assert "not found" in err
        assert not out_dir.exists() or not list(out_dir.iterdir())

    def test_run_writes_reports_and_prints_acc_at_eps(self, capsys, experiment, tmp_path):
        out_dir = str(tmp_path / "run")
        code, stdout, _ = run_cli(capsys, "train", "--config", experiment["config"],
                                  "--out", out_dir)
        assert code == 0
        assert "accuracy@epsilon:" in stdout
        report = json.loads(Path(out_dir, "report.json").read_text())
        assert report["config"]["seed"] == 0
        assert 0.99 * 4.0 < report["final_epsilon"] <= 4.0
        lines = Path(out_dir, "report.csv").read_text().splitlines()
        assert lines[0] == "step,epsilon,accuracy"
        assert len(lines) == len(report["records"]) + 1

    def test_noiseless_run_writes_its_infinite_epsilon_as_null(self, capsys, experiment, tmp_path):
        out_dir = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, _ = run_cli(capsys, "train", "--config", experiment["config"],
                                 "--override", "privacy.target_epsilon=",
                                 "--override", "privacy.noise_multiplier=0", "--out", str(out_dir))
        assert code == 0
        report = strict_json((out_dir / "report.json").read_text())
        assert report["final_epsilon"] is None
        assert [r["epsilon"] for r in report["records"]] == [None] * len(report["records"])

    def test_rerun_reproduces_identical_files(self, capsys, experiment, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli(capsys, "train", "--config", experiment["config"], "--out", a)[0] == 0
        assert run_cli(capsys, "train", "--config", experiment["config"], "--out", b)[0] == 0
        for name in ("report.json", "report.csv"):
            assert Path(a, name).read_bytes() == Path(b, name).read_bytes()

    def test_override_changes_only_the_seed_in_the_echo(self, capsys, experiment, tmp_path):
        base_dir, over_dir = str(tmp_path / "base"), str(tmp_path / "over")
        assert run_cli(capsys, "train", "--config", experiment["config"], "--out", base_dir)[0] == 0
        assert run_cli(capsys, "train", "--config", experiment["config"],
                       "--override", "seed=7", "--out", over_dir)[0] == 0
        base = json.loads(Path(base_dir, "report.json").read_text())["config"]
        over = json.loads(Path(over_dir, "report.json").read_text())["config"]
        assert over["seed"] == 7
        diff = {k for k in base if base[k] != over[k]}
        assert diff == {"seed"}

    def test_ambiguous_or_unknown_override_exits_2(self, capsys, experiment, tmp_path):
        code, _, err = run_cli(capsys, "train", "--config", experiment["config"],
                               "--override", "nonsense=1", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "not found" in err

    @pytest.mark.parametrize("override", ["privacy.target_eps=3", "sweep.clip=4", "data.seed=1"])
    def test_unknown_override_key_exits_2_with_no_outputs(self, capsys, experiment, tmp_path, override):
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, "train", "--config", experiment["config"],
                               "--override", override, "--out", str(out_dir))
        assert code == 2
        assert f"unknown config key {override.split('=')[0]}" in err
        assert not out_dir.exists()

    def test_unknown_file_key_exits_2_with_no_outputs(self, capsys, experiment, tmp_path):
        config = tmp_path / "typo.ini"
        config.write_text(Path(experiment["config"]).read_text().replace(
            "clip_norm = 1.0", "clip_nrom = 5"))
        out_dir = tmp_path / "x"
        for command in ("train", "sweep"):
            code, _, err = run_cli(capsys, command, "--config", str(config), "--out", str(out_dir))
            assert code == 2
            assert "unknown config key privacy.clip_nrom" in err
            assert not out_dir.exists()

    def test_from_scratch_with_a_checkpoint_exits_2_with_no_outputs(self, capsys, experiment, tmp_path):
        # any existing file passes the key's check; the pair itself is the error
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, "train", "--config", experiment["config"],
                               "--override", "train.scheme=from_scratch",
                               "--override", f"checkpoint={experiment['root'] / 'train.dpvd'}",
                               "--out", str(out_dir))
        assert code == 2
        assert "takes no checkpoint" in err
        assert not out_dir.exists()

    def test_bottleneck_dim_without_the_adapter_scheme_exits_2_with_no_outputs(self, capsys, experiment, tmp_path):
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, "train", "--config", experiment["config"],
                               "--override", "train.bottleneck_dim=4", "--out", str(out_dir))
        assert code == 2
        assert "no other scheme takes it" in err
        assert not out_dir.exists()

    def test_bad_scheme_value_exits_2(self, capsys, experiment, tmp_path):
        code, _, err = run_cli(capsys, "train", "--config", experiment["config"],
                               "--override", "train.scheme=fancy", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "unknown scheme" in err


class TestSweep:
    def test_clip_count_below_one_exits_2_with_no_outputs(self, capsys, experiment, tmp_path):
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, "sweep", "--config", experiment["config"],
                               "--override", "sweep.clips=0,1", "--out", str(out_dir))
        assert code == 2
        assert "sweep.clips" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])  # a large value would start that many processes
    def test_jobs_below_one_exits_2_with_no_outputs(self, capsys, experiment, tmp_path, jobs):
        out_dir = tmp_path / "x"
        code, stdout, err = run_cli(capsys, "sweep", "--config", experiment["config"],
                                    "--jobs", jobs, "--out", str(out_dir))
        assert code == 2
        assert "--jobs must be at least 1" in err
        assert stdout == ""
        assert not out_dir.exists()

    def test_clip_count_above_the_videos_exits_1_before_any_run(self, capsys, experiment, tmp_path,
                                                                monkeypatch):
        real_train, runs = trainer.train, []
        monkeypatch.setattr(trainer, "train", lambda config: runs.append(config) or real_train(config))
        out_dir = tmp_path / "x"
        code, stdout, err = run_cli(capsys, "sweep", "--config", experiment["config"],
                                    "--override", "sweep.clips=1,3", "--out", str(out_dir))
        assert code == 1
        assert runs == []
        assert "clips_per_video 3 exceeds the 2 clips available per video" in err
        assert stdout == ""
        assert os.listdir(out_dir) == []  # the directory is made before the runs

    def test_sweep_writes_per_run_and_combined_files(self, capsys, experiment, tmp_path):
        out_dir = str(tmp_path / "sweep")
        code, stdout, _ = run_cli(capsys, "sweep", "--config", experiment["config"],
                                  "--out", out_dir)
        assert code == 0
        files = sorted(os.listdir(out_dir))
        assert "sweep.csv" in files
        for k in (1, 2):
            assert f"report_k{k}_seed0.json" in files
            assert f"report_k{k}_seed0.csv" in files
        lines = Path(out_dir, "sweep.csv").read_text().splitlines()
        assert lines[0] == "k,seed,step,epsilon,accuracy"
        report = json.loads(Path(out_dir, "report_k1_seed0.json").read_text())
        steps = {int(line.split(",")[2]) for line in lines[1:]}
        assert len(lines) - 1 == 2 * len(report["records"])
        assert stdout.count("accuracy@epsilon:") == 2

    def test_sweep_runs_share_privacy_spend(self, capsys, experiment, tmp_path):
        out_dir = str(tmp_path / "sweep2")
        assert run_cli(capsys, "sweep", "--config", experiment["config"], "--out", out_dir)[0] == 0
        eps = set()
        for k in (1, 2):
            report = json.loads(Path(out_dir, f"report_k{k}_seed0.json").read_text())
            eps.add((report["final_epsilon"], report["noise_multiplier"], report["steps"]))
        assert len(eps) == 1


@pytest.mark.parametrize("argv", [
    ["train", "--override", "privacy.target_epsilon=nan"],
    ["train", "--override", "privacy.target_epsilon=", "--override", "privacy.noise_multiplier=inf"],
    ["train", "--override", "privacy.clip_norm=inf"],
    ["train", "--override", "train.max_epochs=inf"],
    ["train", "--override", "train.learning_rate=nan"],
    ["pretrain", "--override", "pretrain.learning_rate=nan"],
    ["account", "--sigma", "inf"],
    ["account", "--target-eps", "nan"],
    ["generate-data", "--noise", "nan"],
    ["generate-data", "--noise", "inf"],
    ["generate-data", "--template-jitter", "nan"],
    ["generate-data", "--template-jitter", "inf"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_number_exits_2_with_no_outputs(capsys, experiment, tmp_path, argv):
    command, *flags = argv
    out = tmp_path / "out"
    if command == "train":
        flags += ["--config", experiment["config"], "--out", str(out)]
    elif command == "pretrain":
        config = tmp_path / "pre.ini"
        config.write_text(f"[pretrain]\ndata = {experiment['root'] / 'train.dpvd'}\nout = {out}\n")
        flags += ["--config", str(config)]
    elif command == "generate-data":
        flags = [*GEN_FLAGS, *flags, "--out", str(out)]
    else:
        flags += ["--q", "0.1", "--steps", "10"]
    code, stdout, err = run_cli(capsys, command, *flags)
    assert code == 2
    assert "finite" in err
    assert stdout == ""
    assert not out.exists()


SEED_RANGE = "must lie in [0, 2**64)"


@pytest.mark.parametrize("command, overrides, message", [
    ("train", ["model.norm=group:4"], "does not divide hidden width 6"),
    ("train", ["model.hidden=0"], "hidden widths must be positive"),
    ("train", ["train.scheme=selective", "model.norm=none"], "has none"),
    ("train", ["train.scheme=adapter", "train.bottleneck_dim=0"], "bottleneck_dim must be positive"),
    ("train", ["train.scheme=adapter", "train.bottleneck_dim=6"], "smaller than hidden width 6"),
    ("train", ["train.scheme=adapter", "train.bottleneck_dim=4", "model.hidden="], "no hidden blocks"),
    ("train", ["privacy.target_epsilon=", "privacy.noise_multiplier=1e-200"], "underflows to 0"),
    ("pretrain", ["model.norm=group:4"], "does not divide hidden width 6"),
    ("pretrain", ["model.hidden=0"], "hidden widths must be positive"),
    # rng keys its streams by 64-bit seeds, so a seed outside [0, 2**64) would alias another
    ("train", ["train.seed=18446744073709551616"], SEED_RANGE),
    ("train", ["train.seed=-1"], SEED_RANGE),
    ("pretrain", ["pretrain.seed=18446744073709551616"], SEED_RANGE),
    ("pretrain", ["pretrain.seed=-1"], SEED_RANGE),
    ("sweep", ["sweep.seeds=0,18446744073709551616"], SEED_RANGE),
    ("sweep", ["sweep.seeds=-1"], SEED_RANGE),
    ("sweep", ["sweep.clips=1,1"], "sweep.clips = '1,1': must not list a value twice"),
    ("sweep", ["sweep.seeds=3,3"], "sweep.seeds = '3,3': must not list a value twice"),
    ("pretrain", ["pretrain.out=no-such-dir/source.dpvm"], "pretrain.out = 'no-such-dir/source.dpvm': no such directory"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
def test_setting_no_run_can_use_exits_2_with_no_outputs(capsys, experiment, tmp_path, command, overrides,
                                                        message):
    out = tmp_path / "out"
    if command in ("train", "sweep"):
        config, flags = experiment["config"], ["--out", str(out)]
    else:
        config, flags = tmp_path / "pre.ini", []
        config.write_text(f"[model]\nhidden = 6\nnorm = layer\n\n"
                          f"[pretrain]\ndata = {experiment['root'] / 'train.dpvd'}\nout = {out}\n")
    for override in overrides:
        flags += ["--override", override]
    code, stdout, err = run_cli(capsys, command, "--config", str(config), *flags)
    assert code == 2
    assert message in err
    assert stdout == ""
    assert not out.exists()


def test_pretrain_cli_writes_checkpoint(capsys, experiment, tmp_path):
    ckpt = str(tmp_path / "source.dpvm")
    config = tmp_path / "pre.ini"
    config.write_text(f"""
[model]
hidden = 6
norm = layer

[pretrain]
data = {experiment['root'] / 'train.dpvd'}
out = {ckpt}
epochs = 3
batch_size = 8
learning_rate = 0.3
seed = 0
""")
    code, stdout, _ = run_cli(capsys, "pretrain", "--config", str(config))
    assert code == 0
    assert "checkpoint" in stdout
    from dpvideo.models import load_checkpoint

    assert "head.weight" in load_checkpoint(ckpt)
