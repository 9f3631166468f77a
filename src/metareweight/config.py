"""Flat key=value experiment configs with a typed schema and a stable hash.

Format: one `key = value` per line, `#` starts a comment, blank lines and
blank values are ignored (the default applies). Unknown keys are errors, as
are values that fail their field's parser and a key given twice, even once
blank. The config hash covers every field except seed, repeat, and
output_dir, so repeats of one experiment land under one identity.
"""

import hashlib
import os
from dataclasses import dataclass, fields

from .data import ImbalanceSpec, NoiseSpec
from .errors import ConfigError
from .trainer import TrainConfig


def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in s.split(",") if part.strip())


def _parse_schedule(s: str) -> list[tuple[int, float]]:
    out = []
    for part in s.split(","):
        part = part.strip()
        if not part:
            continue
        step_s, _, mult_s = part.partition(":")
        if not mult_s:
            raise ValueError(f"schedule entry {part!r} must look like step:multiplier")
        out.append((int(step_s), float(mult_s)))
    return out


# Training fields take their defaults from TrainConfig and parse by the type
# of the default, except these.
_TRAIN_PARSERS = {"lr_schedule": _parse_schedule, "hidden_sizes": _parse_int_list, "hard_mining_k": int}


def _train_parser(key: str, default):
    return _TRAIN_PARSERS.get(key) or (_parse_bool if isinstance(default, bool) else type(default))


# field name -> (parser, default). Defaults of None mean "absent".
SCHEMA: dict = {
    **{key: (_train_parser(key, default), default) for key, default in vars(TrainConfig()).items()},
    "train_images": (str, None),
    "train_labels": (str, None),
    "test_images": (str, None),
    "test_labels": (str, None),
    "subset_total": (int, None),
    "imbalance_ratio": (float, None),
    "imbalance_total": (int, ImbalanceSpec.total),
    "minority_class": (int, ImbalanceSpec.minority_class),
    "majority_class": (int, ImbalanceSpec.majority_class),
    "noise_kind": (str, None),
    "noise_ratio": (float, 0.0),
    "background_class": (int, NoiseSpec.background_class),
    "num_classes": (int, NoiseSpec.num_classes),
    "val_per_class": (int, 5),
    "hyperval_total": (int, 0),
    "repeat": (int, 1),
    "output_dir": (str, "runs"),
}

REQUIRED_PATHS = ("train_images", "train_labels", "test_images", "test_labels")
HASH_EXCLUDED = ("seed", "repeat", "output_dir")


def parse_config_file(path: str) -> dict:
    """Read a UTF-8 key=value file into a typed dict (defaults filled in)."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e

    values = {}
    seen = set()  # every key met, a blank value's included
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config field {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate config field {key!r}")
        seen.add(key)
        if value == "":
            continue
        parser, _ = SCHEMA[key]
        try:
            values[key] = parser(value)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{path}:{lineno}: field {key!r}: {e}") from e

    full = {key: default for key, (_, default) in SCHEMA.items()}
    full.update(values)
    return full


@dataclass
class ExperimentConfig:
    """Everything one `train` invocation needs: data, bias, model, strategy.

    Fields other than train, imbalance, noise and raw are config fields."""

    train: TrainConfig
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str
    subset_total: int | None
    imbalance: ImbalanceSpec | None
    noise: NoiseSpec | None
    val_per_class: int
    hyperval_total: int
    repeat: int
    output_dir: str
    raw: dict


def build_experiment(values: dict) -> ExperimentConfig:
    """Validate a parsed config dict and assemble the dataclasses."""
    for key in REQUIRED_PATHS:
        if not values.get(key):
            raise ConfigError(f"field {key!r} is required")
        if not os.path.isfile(values[key]):
            raise ConfigError(f"field {key!r}: file not found: {values[key]}")

    train = TrainConfig(**{f.name: values[f.name] for f in fields(TrainConfig)})

    imbalance = None
    if values["imbalance_ratio"] is not None:
        imbalance = ImbalanceSpec(
            ratio=values["imbalance_ratio"],
            total=values["imbalance_total"],
            minority_class=values["minority_class"],
            majority_class=values["majority_class"],
        )
    noise = None
    if values["noise_kind"] is not None:
        noise = NoiseSpec(
            kind=values["noise_kind"],
            ratio=values["noise_ratio"],
            num_classes=values["num_classes"],
            background_class=values["background_class"],
        )
    if values["val_per_class"] < 0:
        raise ConfigError("field 'val_per_class': must be nonnegative")
    if values["hyperval_total"] < 0:
        raise ConfigError("field 'hyperval_total': must be nonnegative")
    if values["repeat"] < 1:
        raise ConfigError("field 'repeat': must be at least 1")
    if values["subset_total"] is not None and values["subset_total"] < 1:
        raise ConfigError("field 'subset_total': must be at least 1")
    if values["strategy"] == "meta_reweight" and values["val_per_class"] == 0:
        raise ConfigError("field 'val_per_class': meta_reweight needs a validation split")
    if values["early_stop_on_hyperval"] and values["hyperval_total"] == 0:
        raise ConfigError("field 'early_stop_on_hyperval': needs hyperval_total > 0")
    if noise is None and values["noise_ratio"] != 0:
        raise ConfigError("field 'noise_ratio': needs a noise_kind")

    return ExperimentConfig(
        train=train,
        imbalance=imbalance,
        noise=noise,
        raw=dict(values),
        **{f.name: values[f.name] for f in fields(ExperimentConfig) if f.name in SCHEMA},
    )


def _canonical_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], float):
        # A schedule entry (step, multiplier).
        return f"{value[0]}:{value[1]!r}"
    if isinstance(value, (list, tuple)):
        return ",".join(_canonical_value(v) for v in value)
    return str(value)


def canonical_items(values: dict) -> list[tuple[str, str]]:
    """Sorted (key, canonical string) pairs for hashing and summaries."""
    items = []
    for key in sorted(SCHEMA):
        if key in HASH_EXCLUDED:
            continue
        value = values.get(key, SCHEMA[key][1])
        if value is None:
            rendered = ""
        else:
            rendered = _canonical_value(value)
        items.append((key, rendered))
    return items


def config_hash(values: dict) -> str:
    """Hash of the experiment identity; invariant to field order in the file."""
    blob = "\n".join(f"{k}={v}" for k, v in canonical_items(values))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
