"""Line-oriented `key = value` run configuration.

Flat keys namespaced by prefix (gen., exp., plus per-method parameter groups).
Unknown keys are rejected so typos fail fast. The keys and their defaults are
the fields of GenSpec, ExperimentSpec and the method and classifier classes,
so a missing key falls back to the field default.
"""

from __future__ import annotations

import math
from dataclasses import fields
from functools import partial
from pathlib import Path

from .core import ConfigError, SkewbenchError
from .datagen import GenSpec
from .classify import CLASSIFIERS, ClassifierConfig
from .evaluation import CellKey, ExperimentSpec, _cell_gen_spec
from .resample import METHODS, MethodConfig


# GenSpec fields whose config key is not the field name.
_GEN_KEYS = {"class_ratio": "ratio", "center_box": "box"}


def _gen_key(name: str) -> str:
    return "gen." + _GEN_KEYS.get(name, name)


def _exp_key(name: str) -> str:
    return "exp." + name


def _show(value) -> str:
    if isinstance(value, tuple):  # class_ratio or center_box
        sep = ":" if isinstance(value[0], int) else ","
        return sep.join(f"{v:g}" for v in value)
    return str(value)


KNOWN_KEYS = frozenset(
    [_gen_key(f.name) for f in fields(GenSpec)]
    + [_exp_key(f.name) for f in fields(ExperimentSpec) if f.name != "template"]
    + [f"{cls.name}.{f.name}" for cls in METHODS + CLASSIFIERS for f in fields(cls)])

GEN_DEFAULTS = {_gen_key(f.name): _show(f.default) for f in fields(GenSpec)}


def parse_config_text(text: str, source: str = "config") -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source} line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{source} line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config(path) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}" if not p.exists()
                          else f"config path is not a file: {p}")
    data = p.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{p} line {line}: invalid UTF-8 byte {data[exc.start]:#04x}") from None
    return parse_config_text(text, source=str(p))


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {raw!r}")
    return value


def _parse_ratio(raw: str, key: str) -> tuple[int, int]:
    try:
        maj, minor = (int(p) for p in raw.split(":"))
    except ValueError:
        raise ConfigError(f"{key} must look like majority:minority, e.g. 5:1; "
                          f"got {raw!r}") from None
    return maj, minor


def _parse_box(raw: str, key: str) -> tuple[float, float]:
    parts = _split_list(raw)
    if len(parts) != 2:
        raise ConfigError(f"{key} must be low,high")
    return _parse_float(parts[0], key), _parse_float(parts[1], key)


def _split_list(raw: str) -> list[str]:
    items = [item.strip() for item in raw.split(",") if item.strip()]
    if not items:
        raise ConfigError(f"empty list value {raw!r}")
    return items


def _parse_as(default):
    """The parser for a field, chosen by the type of its default."""
    if isinstance(default, int):
        return _parse_int
    if isinstance(default, float):
        return _parse_float
    return lambda raw, key: raw


def _values(cls, cfg: dict[str, str], key_of, parsers=None) -> dict:
    """Parsed values of the fields of `cls` that `cfg` sets."""
    parsers = parsers or {}
    values = {}
    for f in fields(cls):
        key = key_of(f.name)
        if key in cfg:
            values[f.name] = parsers.get(f.name, _parse_as(f.default))(cfg[key], key)
    return values


def _construct(cls, values: dict):
    try:
        return cls(**values)
    except SkewbenchError as exc:
        raise ConfigError(str(exc)) from None


def build_gen_spec(cfg: dict[str, str], seed: int | None = None, **cell) -> GenSpec:
    """The GenSpec that `cfg` sets, with `cell`'s fields set by an experiment cell.

    A refusal names the config key of each field whose key is not its name,
    unless the cell set that field.
    """
    values = _values(GenSpec, cfg, _gen_key, {"class_ratio": _parse_ratio,
                                              "center_box": _parse_box})
    if seed is not None:
        values["seed"] = seed
    try:
        return GenSpec(**values | cell)
    except SkewbenchError as exc:
        message = str(exc)
        for name in _GEN_KEYS.keys() - cell.keys():
            message = message.replace(name, _gen_key(name))
        raise ConfigError(message) from None


def _build(classes, what: str, name: str, cfg: dict[str, str]):
    name = name.strip().lower()
    for cls in classes:
        if cls.name == name:
            return _construct(cls, _values(cls, cfg, lambda field: f"{name}.{field}"))
    valid = ", ".join(cls.name for cls in classes)
    raise ConfigError(f"unknown {what} {name!r}; valid {what}s: {valid}")


def build_method(name: str, cfg: dict[str, str]) -> MethodConfig:
    return _build(METHODS, "method", name, cfg)


def build_classifier(name: str, cfg: dict[str, str]) -> ClassifierConfig:
    return _build(CLASSIFIERS, "classifier", name, cfg)


def build_experiment_spec(cfg: dict[str, str], seed: int | None = None) -> ExperimentSpec:
    for name, field in CellKey.GEN_FIELDS:
        if _gen_key(name) in cfg:
            owner = "exp.seed or --seed" if name == "seed" else f"the exp.{field} axis"
            raise ConfigError(f"experiment sets {_gen_key(name)} per cell from {owner}")
    def each(parse):
        return lambda raw, key: tuple(parse(item, key) for item in _split_list(raw))

    names = each(lambda item, key: item)
    values = _values(ExperimentSpec, cfg, _exp_key, {
        "subclusters": each(_parse_int), "sizes": each(_parse_int),
        "ratios": each(_parse_ratio), "disturbances": each(_parse_float),
        "methods": names, "classifiers": names})
    for field, build in (("methods", build_method), ("classifiers", build_classifier)):
        # Default methods and classifiers also take their parameters from cfg.
        default = tuple(item.name for item in getattr(ExperimentSpec, field))
        values[field] = tuple(build(name, cfg) for name in values.get(field, default))
    if seed is not None:
        values["seed"] = seed
    # The template is cell 0's recipe, so it is refused only when cell 0 is.
    first = CellKey(*(values.get(field, getattr(ExperimentSpec, field))[0]
                      for _, field in CellKey.GEN_FIELDS[:-1]))
    values["template"] = _cell_gen_spec(partial(build_gen_spec, cfg), first, 0)
    return _construct(ExperimentSpec, values)
