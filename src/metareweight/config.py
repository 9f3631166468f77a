"""Flat key=value experiment configs with a typed schema and a stable hash.

The schema is the defaulted fields of two frozen dataclasses: `TrainConfig`
declares the training keys and `ExperimentConfig` the rest. A key parses by
the type of its default, and each checks its own rules when it is built.

Format: one `key = value` per line, `#` starts a comment, blank lines and
blank values are ignored (the default applies). Unknown keys are errors, as
are values that fail their field's parser and a key given twice, even once
blank. The config hash and the `summary.json` config echo are read from the
built config's fields, every key except seed, repeat and output_dir, so
repeats of one experiment land under one identity.
"""

import hashlib
import os
from dataclasses import MISSING, dataclass, field, fields

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


# The canonical text of a value, by the parser of its key; any other parser's values render with str.
_CANONICAL = {
    _parse_bool: lambda v: "true" if v else "false",
    _parse_int_list: lambda v: ",".join(map(str, v)),
    _parse_schedule: lambda v: ",".join(f"{step}:{mult!r}" for step, mult in v),
    float: repr,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one `train` invocation needs: data, bias, model, strategy.

    Its defaulted fields are the config keys that `TrainConfig` does not
    declare; `imbalance` and `noise` are built from them."""

    train: TrainConfig
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    subset_total: int | None = None
    imbalance_ratio: float | None = None
    imbalance_total: int = ImbalanceSpec.total
    minority_class: int = ImbalanceSpec.minority_class
    majority_class: int = ImbalanceSpec.majority_class
    noise_kind: str | None = None
    noise_ratio: float = 0.0
    background_class: int = NoiseSpec.background_class
    num_classes: int = NoiseSpec.num_classes
    val_per_class: int = 5
    hyperval_total: int = 0
    repeat: int = 1
    output_dir: str = "runs"
    imbalance: ImbalanceSpec | None = field(init=False)
    noise: NoiseSpec | None = field(init=False)

    def __post_init__(self):
        # Built and checked here only, so dataclasses.replace builds and checks a copy again.
        imbalance = None if self.imbalance_ratio is None else ImbalanceSpec(
            self.imbalance_ratio, self.imbalance_total, self.minority_class, self.majority_class)
        noise = None if self.noise_kind is None else NoiseSpec(
            self.noise_kind, self.noise_ratio, self.num_classes, self.background_class)
        object.__setattr__(self, "imbalance", imbalance)
        object.__setattr__(self, "noise", noise)
        if self.val_per_class < 0:
            raise ConfigError("field 'val_per_class': must be nonnegative")
        if self.hyperval_total < 0:
            raise ConfigError("field 'hyperval_total': must be nonnegative")
        if self.repeat < 1:
            raise ConfigError("field 'repeat': must be at least 1")
        if self.subset_total is not None and self.subset_total < 1:
            raise ConfigError("field 'subset_total': must be at least 1")
        if self.train.strategy == "meta_reweight" and self.val_per_class == 0:
            raise ConfigError("field 'val_per_class': meta_reweight needs a validation split")
        if self.train.early_stop_on_hyperval and self.hyperval_total == 0:
            raise ConfigError("field 'early_stop_on_hyperval': needs hyperval_total > 0")
        if noise is None and self.noise_ratio != 0:
            raise ConfigError("field 'noise_ratio': needs a noise_kind")


def _defaults(cls) -> dict:
    """The config keys cls declares, its fields that have a default, with those defaults."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


# A key parses by the type of its default, except these; a default of None parses as str.
_PARSERS = {"lr_schedule": _parse_schedule, "hidden_sizes": _parse_int_list, "hard_mining_k": int,
            "subset_total": int, "imbalance_ratio": float}


def _parser(key: str, default):
    if key in _PARSERS:
        return _PARSERS[key]
    if isinstance(default, bool):
        return _parse_bool
    return str if default is None else type(default)


# key -> (parser, default). Defaults of None mean "absent".
SCHEMA: dict = {
    key: (_parser(key, default), default)
    for cls in (TrainConfig, ExperimentConfig) for key, default in _defaults(cls).items()
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


def build_experiment(values: dict) -> ExperimentConfig:
    """Check the required paths of a parsed config dict, then build the
    dataclasses, which check the other rules."""
    for key in REQUIRED_PATHS:
        if not values.get(key):
            raise ConfigError(f"field {key!r} is required")
        if not os.path.isfile(values[key]):
            raise ConfigError(f"field {key!r}: file not found: {values[key]}")
    train = TrainConfig(**{key: values[key] for key in _defaults(TrainConfig)})
    return ExperimentConfig(train, **{key: values[key] for key in _defaults(ExperimentConfig)})


def canonical_items(exp: ExperimentConfig) -> list[tuple[str, str]]:
    """Sorted (key, canonical string) pairs of a built config's fields, for hashing and summaries."""
    values = vars(exp.train) | vars(exp)
    items = []
    for key in sorted(SCHEMA):
        if key in HASH_EXCLUDED:
            continue
        value = values[key]
        items.append((key, "" if value is None else _CANONICAL.get(SCHEMA[key][0], str)(value)))
    return items


def config_hash(exp: ExperimentConfig) -> str:
    """Hash of the experiment identity; invariant to field order in the file."""
    blob = "\n".join(f"{k}={v}" for k, v in canonical_items(exp))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
