"""INI-style experiment configs.

One table per command maps each "section.key" to the TrainConfig or
PretrainConfig field it sets and the converter of its text; both commands
share the [model] keys. An absent or empty key is unset, so its field keeps
the dataclass default. A key that the command's table does not list, from the
file or an override, is a config error (exit 2); a train config may also carry
the [sweep] keys, which sweep reads from the same file. Overrides look like
"section.key=value"; a bare "key=value" names the one key of that name in the
command's table, whether or not the file has its section.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import MISSING, fields

from . import rng
from .trainer import PretrainConfig, TrainConfig


class ConfigError(ValueError):
    pass


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError("must be a comma-separated list of widths") from None


def _parse_norm(text: str) -> dict:
    if text.startswith("group:"):
        try:
            return {"norm_kind": "group", "norm_groups": int(text.split(":", 1)[1])}
        except ValueError:
            raise ValueError("group count must be an integer") from None
    if text in ("layer", "none"):
        return {"norm_kind": text}
    raise ValueError("must be 'layer', 'none' or 'group:<g>'")


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError("must be a comma-separated list of integers") from None
    if not values:
        raise ValueError("must list at least one integer")
    if len(set(values)) != len(values):  # a repeat would train one run twice and write its files twice
        raise ValueError("must not list a value twice")
    return values


def _parse_clip_counts(text: str) -> list[int]:
    values = _parse_int_list(text)
    if min(values) < 1:
        raise ValueError("every clip count must be at least 1")
    return values


def _parse_seeds(text: str) -> list[int]:
    values = _parse_int_list(text)
    for seed in values:
        rng.check_seed(seed)
    return values


def _existing_file(path: str) -> str:
    if not os.path.exists(path):
        raise ValueError("no such file")
    return path


def _path_in_existing_dir(path: str) -> str:
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError("no such directory")
    return path


# section.key -> (field, converter); with field None the converter returns a dict of fields
_MODEL_KEYS = {
    "model.hidden": ("hidden_dims", _parse_hidden),
    "model.norm": (None, _parse_norm),
}

TRAIN_KEYS = {
    "data.train": ("train_data", _existing_file),
    "data.eval": ("eval_data", _existing_file),
    **_MODEL_KEYS,
    "privacy.target_epsilon": ("target_epsilon", float),
    "privacy.noise_multiplier": ("noise_multiplier", float),
    "privacy.delta": ("delta", float),
    "privacy.clip_norm": ("clip_norm", float),
    "train.scheme": ("scheme", str),
    "train.bottleneck_dim": ("bottleneck_dim", int),
    "train.clips_per_video": ("clips_per_video", int),
    "train.sampling_rate": ("sampling_rate", float),
    "train.max_epochs": ("max_epochs", float),
    "train.learning_rate": ("learning_rate", float),
    "train.seed": ("seed", int),
    "train.checkpoint": ("checkpoint", _existing_file),
    "train.eval_every": ("eval_every", int),
}

SWEEP_KEYS = {
    "sweep.clips": ("clips", _parse_clip_counts),
    "sweep.seeds": ("seeds", _parse_seeds),
}
_TRAIN_FILE_KEYS = TRAIN_KEYS.keys() | SWEEP_KEYS.keys()  # sweep reads its lists from the train config

PRETRAIN_KEYS = {
    "pretrain.data": ("data", _existing_file),
    "pretrain.out": ("out", _path_in_existing_dir),
    **_MODEL_KEYS,
    "pretrain.epochs": ("epochs", int),
    "pretrain.batch_size": ("batch_size", int),
    "pretrain.learning_rate": ("learning_rate", float),
    "pretrain.seed": ("seed", int),
}


def _locate(key: str, known_keys) -> list[str]:
    """[section, option] of an override key; a bare key is the one table key of that
    name (bare names are unique within each command's table)."""
    if "." not in key:
        homes = [k for k in known_keys if k.split(".", 1)[1] == key]
        if not homes:
            raise ConfigError(f"override key {key!r} not found among the command's keys; use section.key")
        key = homes[0]
    return key.split(".", 1)


class _Resolved:
    """Parsed config with overrides applied and typed accessors."""

    def __init__(self, path: str, overrides: list[str] | None, known_keys):
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            parser.read(path)
        except configparser.Error as e:
            raise ConfigError(f"cannot parse config {path}: {e}") from None
        self.parser = parser
        for item in overrides or []:
            if "=" not in item:
                raise ConfigError(f"override must look like key=value, got {item!r}")
            key, value = item.split("=", 1)
            section, option = _locate(key.strip(), known_keys)
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, option, value.strip())
        # DEFAULT keys show up in every section, so they are checked (and named) first
        for section in (parser.default_section, *parser.sections()):
            for option in parser[section]:
                if f"{section}.{option}" not in known_keys:
                    raise ConfigError(f"unknown config key {section}.{option}")

    def get(self, section: str, option: str) -> str | None:
        """The stripped value, or None when the key is absent or empty."""
        return self.parser.get(section, option, fallback="").strip() or None

    def get_typed(self, section: str, option: str, kind):
        raw = self.get(section, option)
        try:
            return None if raw is None else kind(raw)
        except ValueError as e:
            raise ConfigError(f"config key {section}.{option} = {raw!r}: {e}") from None


def _read(cfg: _Resolved, table: dict, required) -> dict:
    """The fields that the table's set keys give; a required field left unset is an error."""
    values = {}
    for key, (name, kind) in table.items():
        value = cfg.get_typed(*key.split("."), kind)
        if value is not None:
            values.update(value if name is None else {name: value})
        elif name in required:
            raise ConfigError(f"missing required config key {key}")
    return values


def _build(cls, cfg: _Resolved, table: dict):
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    try:
        return cls(**_read(cfg, table, required))
    except ValueError as e:
        raise ConfigError(str(e)) from None


def load_train_config(path: str, overrides: list[str] | None = None) -> TrainConfig:
    return _build(TrainConfig, _Resolved(path, overrides, _TRAIN_FILE_KEYS), TRAIN_KEYS)


def load_sweep_lists(path: str, overrides: list[str] | None = None) -> tuple[list[int], list[int] | None]:
    values = _read(_Resolved(path, overrides, _TRAIN_FILE_KEYS), SWEEP_KEYS, required={"clips"})
    return values["clips"], values.get("seeds")


def load_pretrain_config(path: str, overrides: list[str] | None = None) -> PretrainConfig:
    return _build(PretrainConfig, _Resolved(path, overrides, PRETRAIN_KEYS.keys()), PRETRAIN_KEYS)
