"""INI loading: one key table per command, defaults from the config dataclasses."""

from dataclasses import fields

import pytest

from dpvideo.config import (
    PRETRAIN_KEYS,
    SWEEP_KEYS,
    TRAIN_KEYS,
    ConfigError,
    load_pretrain_config,
    load_sweep_lists,
    load_train_config,
)
from dpvideo.trainer import PretrainConfig, TrainConfig


@pytest.fixture
def files(tmp_path):
    for name in ("train.dpvd", "eval.dpvd", "source.dpvd"):
        (tmp_path / name).write_bytes(b"")
    return tmp_path


def write_ini(path, text):
    path.write_text(text)
    return str(path)


def minimal_train(files, extra=""):
    return write_ini(files / "run.ini", f"""
[data]
train = {files / 'train.dpvd'}
eval = {files / 'eval.dpvd'}

[privacy]
target_epsilon = 2.5
{extra}""")


def test_minimal_train_config_takes_every_default_from_the_dataclass(files):
    loaded = load_train_config(minimal_train(files))
    assert loaded == TrainConfig(train_data=str(files / "train.dpvd"),
                                 eval_data=str(files / "eval.dpvd"), target_epsilon=2.5)


def test_minimal_pretrain_config_takes_every_default_from_the_dataclass(files):
    path = write_ini(files / "pre.ini", f"""
[pretrain]
data = {files / 'source.dpvd'}
out = {files / 'source.dpvm'}
""")
    assert load_pretrain_config(path) == PretrainConfig(data=str(files / "source.dpvd"),
                                                        out=str(files / "source.dpvm"))


def test_group_norm_sets_kind_and_group_count(files):
    path = minimal_train(files, "[model]\nnorm = group:4\nhidden = 8,8\n")
    loaded = load_train_config(path)
    assert (loaded.norm_kind, loaded.norm_groups, loaded.hidden_dims) == ("group", 4, (8, 8))
    pre = write_ini(files / "pre.ini", f"""
[model]
norm = group:4

[pretrain]
data = {files / 'source.dpvd'}
out = x
""")
    loaded = load_pretrain_config(pre)
    assert (loaded.norm_kind, loaded.norm_groups) == ("group", 4)


def test_empty_value_is_unset(files):
    loaded = load_train_config(minimal_train(files, "clip_norm =\n[model]\nhidden =\n"))
    assert loaded.clip_norm == TrainConfig.clip_norm and loaded.hidden_dims == ()


@pytest.mark.parametrize("table, cls", [(TRAIN_KEYS, TrainConfig), (PRETRAIN_KEYS, PretrainConfig)])
def test_every_field_has_exactly_one_key(table, cls):
    named = [name for name, _ in table.values() if name is not None]
    assert len(named) == len(set(named))
    # model.norm is the one key that sets two fields
    assert set(named) | {"norm_kind", "norm_groups"} == {f.name for f in fields(cls)}


def test_missing_required_key_names_it(files):
    path = write_ini(files / "run.ini", f"[data]\ntrain = {files / 'train.dpvd'}\n")
    with pytest.raises(ConfigError, match="missing required config key data.eval"):
        load_train_config(path)
    with pytest.raises(ConfigError, match="missing required config key sweep.clips"):
        load_sweep_lists(minimal_train(files))


def test_unknown_default_and_pretrain_keys_are_config_errors(files):
    with pytest.raises(ConfigError, match="unknown config key DEFAULT.seed"):
        load_train_config(minimal_train(files, "[DEFAULT]\nseed = 3\n"))
    # pretrain does not read the sweep section
    pre = write_ini(files / "pre.ini", f"[pretrain]\ndata = {files / 'source.dpvd'}\nout = x\n")
    with pytest.raises(ConfigError, match="unknown config key sweep.clips"):
        load_pretrain_config(pre, ["sweep.clips=1"])


def test_sweep_keys_ride_along_in_a_train_config(files):
    path = minimal_train(files, "[sweep]\nclips = 1,2,4\nseeds = 3,5\n")
    assert load_train_config(path).clips_per_video == TrainConfig.clips_per_video
    assert load_sweep_lists(path) == ([1, 2, 4], [3, 5])
    assert load_sweep_lists(path, ["sweep.seeds="]) == ([1, 2, 4], None)


@pytest.mark.parametrize("load, line, message", [
    (load_train_config, "[model]\nhidden = 8,x\n", "model.hidden = '8,x': must be a comma-separated list of widths"),
    (load_train_config, "[model]\nnorm = batch\n", "model.norm = 'batch': must be 'layer', 'none' or 'group:<g>'"),
    (load_train_config, "[train]\nseed = two\n", "train.seed = 'two'"),
    (load_train_config, "[train]\ncheckpoint = absent.dpvm\n", "train.checkpoint = 'absent.dpvm': no such file"),
    (load_sweep_lists, "[sweep]\nclips = ,\n", "sweep.clips = ',': must list at least one integer"),
])
def test_bad_value_names_its_key(files, load, line, message):
    with pytest.raises(ConfigError) as raised:
        load(minimal_train(files, line))
    assert str(raised.value).startswith("config key " + message)


def test_bare_override_resolves_against_the_key_table(files):
    # the file has no [train] section, yet checkpoint and eval_every are train keys
    loaded = load_train_config(minimal_train(files), [f"checkpoint={files / 'source.dpvd'}",
                                                      "eval_every=7"])
    assert (loaded.checkpoint, loaded.eval_every) == (str(files / "source.dpvd"), 7)
    assert load_sweep_lists(minimal_train(files), ["clips=2,3"]) == ([2, 3], None)
    with pytest.raises(ConfigError, match="override key 'clips' not found"):
        load_pretrain_config(write_ini(files / "pre.ini", "[pretrain]\nout = x\n"), ["clips=1"])


@pytest.mark.parametrize("keys", [TRAIN_KEYS.keys() | SWEEP_KEYS.keys(), PRETRAIN_KEYS.keys()])
def test_bare_key_names_are_unique_per_command(keys):
    bare = [key.split(".", 1)[1] for key in keys]
    assert len(bare) == len(set(bare))
