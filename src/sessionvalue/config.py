"""Run configuration: one YAML document with per-experiment sections.

Unknown keys are rejected so typos fail loudly. Relative paths (``output_dir``
and the ``paths`` section) resolve against the working directory; files not
listed under ``paths`` default to well-known names inside the output
directory, so a synth run feeds the downstream commands without extra wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .embed import Hyperparams
from .errors import ConfigError
from .lifecycle import FramePlan
from .synthgen import GenConfig

DEFAULT_FILENAMES = {
    "sessions": "sessions.jsonl",
    "catalog": "catalog.jsonl",
    "eval": "eval.jsonl",
    "truth": "truth.json",
}


@dataclass(frozen=True)
class ToxicPlantConfig:
    rng_seed: int
    retries: int = 100
    min_rel_gain: float = 0.001
    verify_vr: bool = False
    repeats: int = 25


@dataclass(frozen=True)
class DuplicatePlantConfig:
    copies: int = 3
    session_id: str | None = None  # None: first brute-force-verified candidate
    max_candidates: int | None = None


@dataclass(frozen=True)
class PlantsConfig:
    toxic: ToxicPlantConfig | None = None
    duplicates: DuplicatePlantConfig | None = None


@dataclass(frozen=True)
class SampleSpec:
    """Either an explicit session-id list or a seeded random sample size."""

    ids: tuple[str, ...] | None = None
    size: int | None = None
    rng_seed: int = 0


@dataclass(frozen=True)
class HarnessSection:
    k: int = 5
    neutral_band: float = 0.0005
    revenue_base: float = 1.0
    bin_width: float = 0.001
    vr_exhaustive_limit: int = 200
    sample: SampleSpec | None = None


@dataclass(frozen=True)
class LifecycleSection:
    plan: FramePlan
    k: int = 5
    hr_level: int | None = None


@dataclass(frozen=True)
class CurveSection:
    day_grid: tuple[int, ...]
    end_day: int | None = None
    k: int = 5
    unit_value: float = 1.0
    correction_c: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    output_dir: Path | None
    paths: dict[str, Path]
    synth: GenConfig | None
    plants: PlantsConfig
    hyper: Hyperparams
    harness: HarnessSection
    lifecycle: LifecycleSection
    curve: CurveSection | None

    def input_path(self, name: str, out_dir: Path) -> Path:
        if name in self.paths:
            return self.paths[name]
        return out_dir / DEFAULT_FILENAMES[name]


def _expect_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else str(key), "unknown key")


def _scalar(mapping: dict, key: str, kinds, path: str, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}", "required key is missing")
        return default
    value = mapping[key]
    if isinstance(value, bool) and bool not in (kinds if isinstance(kinds, tuple) else (kinds,)):
        raise ConfigError(f"{path}.{key}", "expected a number, got a boolean")
    if not isinstance(value, kinds):
        names = kinds.__name__ if not isinstance(kinds, tuple) else "/".join(k.__name__ for k in kinds)
        raise ConfigError(f"{path}.{key}", f"expected {names}, got {type(value).__name__}")
    return value


def _build(path: str, factory, **kwargs):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_synth(section: dict | None) -> GenConfig | None:
    if section is None:
        return None
    path = "synth"
    allowed = {
        "n_products", "n_categories_top", "n_categories_fine", "n_train_sessions",
        "n_eval_sessions", "days", "rng_seed", "popularity_exponent",
        "intent_stickiness", "session_length_geometric_p", "order_base_rate",
    }
    _reject_unknown(section, allowed, path)
    required = ("n_products", "n_categories_top", "n_categories_fine",
                "n_train_sessions", "n_eval_sessions", "days", "rng_seed")
    missing = [key for key in required if key not in section]
    if missing:
        raise ConfigError(path, f"missing required keys: {', '.join(missing)}")
    kwargs = {}
    for key in required:
        kwargs[key] = _scalar(section, key, int, path, required=True)
    for key in ("popularity_exponent", "intent_stickiness",
                "session_length_geometric_p", "order_base_rate"):
        if key in section:
            kwargs[key] = float(_scalar(section, key, (int, float), path))
    return _build(path, GenConfig, **kwargs)


def _parse_plants(section: dict | None) -> PlantsConfig:
    if section is None:
        return PlantsConfig()
    path = "plants"
    _reject_unknown(section, {"toxic", "duplicates"}, path)
    toxic = None
    duplicates = None
    if "toxic" in section:
        tox = _expect_mapping(section["toxic"], f"{path}.toxic")
        _reject_unknown(tox, {"rng_seed", "retries", "min_rel_gain", "verify_vr", "repeats"},
                        f"{path}.toxic")
        toxic = ToxicPlantConfig(
            rng_seed=_scalar(tox, "rng_seed", int, f"{path}.toxic", required=True),
            retries=_scalar(tox, "retries", int, f"{path}.toxic", default=100),
            min_rel_gain=float(_scalar(tox, "min_rel_gain", (int, float), f"{path}.toxic",
                                       default=0.001)),
            verify_vr=_scalar(tox, "verify_vr", bool, f"{path}.toxic", default=False),
            repeats=_scalar(tox, "repeats", int, f"{path}.toxic", default=25),
        )
    if "duplicates" in section:
        dup = _expect_mapping(section["duplicates"], f"{path}.duplicates")
        _reject_unknown(dup, {"copies", "session_id", "max_candidates"}, f"{path}.duplicates")
        duplicates = DuplicatePlantConfig(
            copies=_scalar(dup, "copies", int, f"{path}.duplicates", default=3),
            session_id=_scalar(dup, "session_id", str, f"{path}.duplicates"),
            max_candidates=_scalar(dup, "max_candidates", int, f"{path}.duplicates"),
        )
    return PlantsConfig(toxic=toxic, duplicates=duplicates)


def _parse_hyper(section: dict | None) -> Hyperparams:
    if section is None:
        return Hyperparams()
    path = "embed"
    allowed = {"dimensions", "iterations", "window", "min_count",
               "initial_learning_rate", "rounding_digits", "rng_seed"}
    _reject_unknown(section, allowed, path)
    kwargs = {}
    for key in ("dimensions", "iterations", "window", "min_count", "rounding_digits", "rng_seed"):
        if key in section:
            kwargs[key] = _scalar(section, key, int, path)
    if "initial_learning_rate" in section:
        kwargs["initial_learning_rate"] = float(
            _scalar(section, "initial_learning_rate", (int, float), path)
        )
    return _build(path, Hyperparams, **kwargs)


def _parse_sample(value, path: str) -> SampleSpec:
    if isinstance(value, list):
        if not value or not all(isinstance(v, str) for v in value):
            raise ConfigError(path, "sample id list must be a non-empty list of strings")
        return SampleSpec(ids=tuple(value))
    if isinstance(value, dict):
        _reject_unknown(value, {"size", "rng_seed"}, path)
        size = _scalar(value, "size", int, path, required=True)
        if size < 1:
            raise ConfigError(f"{path}.size", "must be >= 1")
        return SampleSpec(size=size, rng_seed=_scalar(value, "rng_seed", int, path, default=0))
    raise ConfigError(path, "expected a list of session ids or a {size, rng_seed} mapping")


def _parse_harness(section: dict | None) -> HarnessSection:
    if section is None:
        return HarnessSection()
    path = "harness"
    allowed = {"k", "neutral_band", "revenue_base", "bin_width", "vr_exhaustive_limit", "sample"}
    _reject_unknown(section, allowed, path)
    sample = _parse_sample(section["sample"], f"{path}.sample") if "sample" in section else None
    return HarnessSection(
        k=_scalar(section, "k", int, path, default=5),
        neutral_band=float(_scalar(section, "neutral_band", (int, float), path, default=0.0005)),
        revenue_base=float(_scalar(section, "revenue_base", (int, float), path, default=1.0)),
        bin_width=float(_scalar(section, "bin_width", (int, float), path, default=0.001)),
        vr_exhaustive_limit=_scalar(section, "vr_exhaustive_limit", int, path, default=200),
        sample=sample,
    )


def _parse_lifecycle(section: dict | None) -> LifecycleSection:
    if section is None:
        return LifecycleSection(plan=FramePlan())
    path = "lifecycle"
    allowed = {"window_days", "n_frames", "cohort_day", "hr_level", "k"}
    _reject_unknown(section, allowed, path)
    plan = _build(
        path,
        FramePlan,
        window_days=_scalar(section, "window_days", int, path, default=51),
        n_frames=_scalar(section, "n_frames", int, path, default=50),
        cohort_day=_scalar(section, "cohort_day", int, path),
    )
    return LifecycleSection(
        plan=plan,
        k=_scalar(section, "k", int, path, default=5),
        hr_level=_scalar(section, "hr_level", int, path),
    )


def _parse_curve(section: dict | None) -> CurveSection | None:
    if section is None:
        return None
    path = "curve"
    allowed = {"day_grid", "end_day", "k", "unit_value", "correction_c"}
    _reject_unknown(section, allowed, path)
    grid = section.get("day_grid")
    if not isinstance(grid, list) or not grid or not all(isinstance(v, int) for v in grid):
        raise ConfigError(f"{path}.day_grid", "expected a non-empty list of integers")
    return CurveSection(
        day_grid=tuple(grid),
        end_day=_scalar(section, "end_day", int, path),
        k=_scalar(section, "k", int, path, default=5),
        unit_value=float(_scalar(section, "unit_value", (int, float), path, default=1.0)),
        correction_c=float(_scalar(section, "correction_c", (int, float), path, default=1.0)),
    )


def load_run_config(path: str | Path) -> RunConfig:
    config_path = Path(path)
    try:
        with open(config_path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(str(config_path), f"invalid YAML ({exc})") from exc
    doc = _expect_mapping(doc, str(config_path))
    allowed = {"output_dir", "paths", "synth", "plants", "embed", "harness", "lifecycle", "curve"}
    _reject_unknown(doc, allowed, "")

    output_dir = None
    if "output_dir" in doc:
        raw = _scalar(doc, "output_dir", str, "", required=True)
        output_dir = Path(raw)

    paths: dict[str, Path] = {}
    paths_section = _expect_mapping(doc.get("paths"), "paths")
    _reject_unknown(paths_section, set(DEFAULT_FILENAMES), "paths")
    for name, raw in paths_section.items():
        if not isinstance(raw, str):
            raise ConfigError(f"paths.{name}", "expected a path string")
        paths[name] = Path(raw)

    return RunConfig(
        output_dir=output_dir,
        paths=paths,
        synth=_parse_synth(_expect_mapping(doc.get("synth"), "synth") if "synth" in doc else None),
        plants=_parse_plants(_expect_mapping(doc.get("plants"), "plants") if "plants" in doc else None),
        hyper=_parse_hyper(_expect_mapping(doc.get("embed"), "embed") if "embed" in doc else None),
        harness=_parse_harness(_expect_mapping(doc.get("harness"), "harness") if "harness" in doc else None),
        lifecycle=_parse_lifecycle(
            _expect_mapping(doc.get("lifecycle"), "lifecycle") if "lifecycle" in doc else None
        ),
        curve=_parse_curve(_expect_mapping(doc.get("curve"), "curve") if "curve" in doc else None),
    )
