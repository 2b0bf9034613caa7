"""Flat key=value configuration with dotted section keys.

``model.*`` keys map onto ModelConfig, ``train.*`` onto TrainConfig and
``train.augment.*`` onto its AugmentConfig.  Unknown keys are rejected, not
ignored; command-line overrides win over file values.
"""

from __future__ import annotations

from dataclasses import replace

from .model import ModelConfig, TINY224_PRESET, TOY_PRESET
from .train import TrainConfig

__all__ = ["parse_kv_text", "build_configs", "config_to_text", "apply_overrides",
           "preset_model_config"]


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(s)


def _parse_int_tuple(s: str) -> tuple[int, ...]:
    """Comma-separated integers, spaces allowed around each; an empty value
    is the empty tuple, an empty entry an error."""
    return tuple(int(part) for part in s.split(",")) if s.strip() else ()


# each field's parser and, for the message when it refuses a value, the kind of value it takes
_INT = (int, "an integer")
_FLOAT = (float, "a number")
_INTS = (_parse_int_tuple, "comma-separated integers")


def _optional(field):
    """``field``, except that ``none`` or an empty value gives None."""
    parse, kind = field
    return (lambda s: None if s.strip().lower() in ("none", "") else parse(s)), f"{kind} or none"


_MODEL_FIELDS = {
    "base_channels": _INT, "stage_depths": _INTS, "num_classes": _INT, "input_size": _INTS,
    "kernel_set": _INTS, "decoder_block": (str, "a name"), "upsampler": (str, "a name"),
    "alpha": _FLOAT, "state_size": _INT,
}

_TRAIN_FIELDS = {
    "lr": _FLOAT, "weight_decay": _FLOAT, "batch_size": _INT, "max_epochs": _INT,
    "max_steps": _optional(_INT), "seed": _INT, "eval_every": _INT,
    "stop_dsc": _optional(_FLOAT),
}

_AUG_FIELDS = {"target_size": _optional(_INTS), "enabled": (_parse_bool, "a boolean")}


def _parse_field(fields, name: str, value: str):
    parse, kind = fields[name]
    try:
        return parse(value)
    except ValueError:
        raise ValueError(f"{name} must be {kind}, got {value!r}") from None


def parse_kv_text(text: str) -> dict[str, str]:
    """Lines of ``key=value``; blank lines and ``#`` comments are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def apply_overrides(kv: dict[str, str], overrides) -> dict[str, str]:
    merged = dict(kv)
    for item in overrides or ():
        if "=" not in item:
            raise ValueError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        merged[key.strip()] = value.strip()
    return merged


def build_configs(kv: dict[str, str],
                  model_base: ModelConfig | None = None) -> tuple[ModelConfig, TrainConfig]:
    """Apply flat keys on top of the given (or default) model config and the
    default training config; any key that does not address a known field is
    an error."""
    model = model_base if model_base is not None else ModelConfig()
    train = TrainConfig()
    aug = train.augment

    for key, value in kv.items():
        try:
            if key.startswith("train.augment."):
                name = key[len("train.augment."):]
                aug = replace(aug, **{name: _parse_field(_AUG_FIELDS, name, value)})
            elif key.startswith("train."):
                name = key[len("train."):]
                train = replace(train, **{name: _parse_field(_TRAIN_FIELDS, name, value)})
            elif key.startswith("model."):
                name = key[len("model."):]
                model = replace(model, **{name: _parse_field(_MODEL_FIELDS, name, value)})
            else:
                raise KeyError(key)
        except KeyError:
            raise ValueError(f"unknown configuration key: {key!r}") from None
    train = replace(train, augment=aug)
    model.validate()
    train.validate()
    return model, train


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def config_to_text(model: ModelConfig) -> str:
    """The ``model.*`` keys of ``model``, one per line, as checkpoints store them."""
    lines = [f"model.{name}={_fmt(getattr(model, name))}" for name in _MODEL_FIELDS]
    return "\n".join(lines) + "\n"


def preset_model_config(name: str) -> ModelConfig:
    presets = {"toy": TOY_PRESET, "tiny224": TINY224_PRESET}
    try:
        return replace(presets[name])
    except KeyError:
        raise ValueError(f"unknown preset '{name}' (choose from {sorted(presets)})") from None
