"""Run configuration: one YAML document, one section per dataclass.

Each section is read straight into the dataclass that owns it (``synth`` ->
``synthgen.GenConfig``, ``embed`` -> ``Hyperparams``, ``plants`` ->
``synthgen.PlantsConfig``, ``harness`` -> ``sensitivity.HarnessConfig``,
``lifecycle`` -> ``FramePlan`` plus ``k`` and ``hr_level``, ``curve`` ->
``CurvePlan``). The keys are the
dataclass's field names, the accepted types come from its annotations and the
defaults are its defaults, so a parameter is declared once. Unknown keys, wrong
types, missing required keys and values the dataclass refuses all raise
``ConfigError`` naming the dotted key. Settings no recipe varies (the toxic
plant's size, threshold and candidate budget, the Zipf popularity exponent)
are constants of ``synthgen``, not keys.

Relative paths (``output_dir`` and the ``paths`` section) resolve against the
working directory. ``paths`` names the input files the commands read
(``sessions``, ``catalog``, ``eval``); one not listed defaults to its
well-known name inside the output directory, so a synth run feeds the
downstream commands without extra wiring.
"""

from __future__ import annotations

import functools
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path

import yaml

from .curve import CurvePlan
from .embed import Hyperparams
from .errors import ConfigError
from .lifecycle import FramePlan
from .sensitivity import HarnessConfig, SampleSpec
from .synthgen import GenConfig, PlantsConfig

DEFAULT_FILENAMES = {
    "sessions": "sessions.jsonl",
    "catalog": "catalog.jsonl",
    "eval": "eval.jsonl",
}


@dataclass(frozen=True)
class LifecycleSection:
    plan: FramePlan
    k: int = 5
    hr_level: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.hr_level is not None and self.hr_level < 0:
            raise ValueError(f"hr_level must be >= 0, got {self.hr_level}")


@dataclass(frozen=True)
class RunConfig:
    output_dir: Path | None
    paths: dict[str, Path]
    synth: GenConfig | None
    plants: PlantsConfig
    hyper: Hyperparams
    harness: HarnessConfig
    lifecycle: LifecycleSection
    curve: CurvePlan | None

    def input_path(self, name: str, out_dir: Path) -> Path:
        if name in self.paths:
            return self.paths[name]
        return out_dir / DEFAULT_FILENAMES[name]


def _key(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _mapping(value, path: str, allowed) -> dict:
    """``value`` as a mapping whose keys are all in ``allowed``; null reads as empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected a mapping, got {type(value).__name__}")
    for key in value:
        if key not in allowed:
            raise ConfigError(_key(path, key), "unknown key")
    return value


@functools.cache
def _fields(cls) -> dict[str, tuple[object, bool]]:
    """Field name -> (resolved annotation, required) of a dataclass."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    }


def _value(value, hint, path: str):
    """``value`` checked against ``hint`` (converted where the YAML form differs)."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # X | None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if value is None and not is_dataclass(hint):  # a null section reads as empty
            return None
    if hint is SampleSpec:  # the YAML value is the id list itself
        ids = _value(value, tuple[str, ...], path)
        try:
            return SampleSpec(ids)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    if is_dataclass(hint):
        return _read(hint, value, path)
    if typing.get_origin(hint) is tuple:  # tuple[T, ...]
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {type(value).__name__}")
        (item, _) = typing.get_args(hint)
        return tuple(_value(v, item, f"{path}[{i}]") for i, v in enumerate(value))
    if hint is float and type(value) is int:
        value = float(value)
    if type(value) is not hint:  # exact: a bool is not an int, an int is not a bool
        raise ConfigError(path, f"expected {hint.__name__}, got {type(value).__name__}")
    return value


def _read(cls, mapping, path: str, **given):
    """Build dataclass ``cls`` from one YAML mapping. The keys are its fields
    minus the ``given`` ones, the types its annotations, the defaults its own;
    a ``ValueError`` from its ``__post_init__`` names the key it starts with."""
    spec = _fields(cls)
    mapping = _mapping(mapping, path, spec.keys() - given.keys())
    missing = [name for name, (_, required) in spec.items()
               if required and name not in mapping and name not in given]
    if len(missing) == 1:
        raise ConfigError(_key(path, missing[0]), "required key is missing")
    if missing:
        raise ConfigError(path, f"missing required keys: {', '.join(missing)}")
    kwargs = {key: _value(value, spec[key][0], _key(path, key)) for key, value in mapping.items()}
    try:
        return cls(**kwargs, **given)
    except ValueError as exc:
        head = str(exc).split(" ", 1)[0]
        raise ConfigError(_key(path, head) if head in spec else path, str(exc)) from exc


def _read_lifecycle(section) -> LifecycleSection:
    """The flat ``lifecycle`` section: the ``FramePlan`` keys, then the rest."""
    plan_keys = _fields(FramePlan).keys()
    section = _mapping(section, "lifecycle", plan_keys | _fields(LifecycleSection).keys() - {"plan"})
    plan = _read(FramePlan, {k: v for k, v in section.items() if k in plan_keys}, "lifecycle")
    rest = {k: v for k, v in section.items() if k not in plan_keys}
    return _read(LifecycleSection, rest, "lifecycle", plan=plan)


_TOP_LEVEL = ("output_dir", "paths", "synth", "plants", "embed", "harness", "lifecycle", "curve")


def load_run_config(path: str | Path) -> RunConfig:
    config_path = Path(path)
    try:
        with open(config_path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except (yaml.YAMLError, RecursionError) as exc:  # nesting too deep for the parser
        raise ConfigError(str(config_path), f"invalid YAML ({exc})") from exc
    if not isinstance(doc, (dict, type(None))):
        raise ConfigError(str(config_path), f"expected a mapping, got {type(doc).__name__}")
    doc = _mapping(doc, "", _TOP_LEVEL)
    output_dir = _value(doc.get("output_dir"), str | None, "output_dir")
    paths = _mapping(doc.get("paths"), "paths", DEFAULT_FILENAMES)
    hyper = _read(Hyperparams, doc.get("embed"), "embed")
    return RunConfig(
        output_dir=None if output_dir is None else Path(output_dir),
        paths={name: Path(_value(raw, str, f"paths.{name}")) for name, raw in paths.items()},
        synth=_read(GenConfig, doc["synth"], "synth") if "synth" in doc else None,
        plants=_read(PlantsConfig, doc.get("plants"), "plants"),
        hyper=hyper,
        harness=_read(HarnessConfig, doc.get("harness"), "harness"),
        lifecycle=_read_lifecycle(doc.get("lifecycle")),
        curve=_read(CurvePlan, doc["curve"], "curve", hyper=hyper) if "curve" in doc else None,
    )
