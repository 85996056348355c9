from __future__ import annotations

import pytest

from sessionvalue.config import load_run_config
from sessionvalue.errors import ConfigError
from sessionvalue.sensitivity import VrEngine, sessions_to_price
from sessionvalue.synthgen import synthesize

from conftest import CONFIG_DIR


def write(tmp_path, text):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    return path


class TestCheckedInConfigs:
    @pytest.mark.parametrize("name", ["benchmark.yaml", "smoke.yaml", "full.yaml"])
    def test_parses(self, name):
        rc = load_run_config(CONFIG_DIR / name)
        assert rc.synth is not None
        assert rc.curve is not None
        assert rc.harness.k == 5

    def test_full_recipe_grids(self):
        rc = load_run_config(CONFIG_DIR / "full.yaml")
        assert rc.lifecycle.plan.window_days == 51
        assert rc.lifecycle.plan.n_frames == 50
        assert rc.curve.day_grid == (2, 10, 30, 60, 90, 120, 150, 180, 210, 240, 270, 300)
        assert rc.hyper.dimensions == 200
        assert rc.hyper.iterations == 5
        assert rc.hyper.window == 5
        assert rc.hyper.min_count == 5

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name)
    def test_vr_value_is_accepted(self, path):
        """``value --engine vr`` takes every recipe on its own ``synth``
        output: a listed sample names only sessions that exist, and a recipe
        without one is small enough to price every session."""
        rc = load_run_config(path)
        dataset, *_ = synthesize(rc.synth, rc.plants, rc.harness.k, rc.hyper)
        ids = sessions_to_price(VrEngine(rc.hyper), dataset, rc.harness)
        assert ids is None or set(ids) <= dataset.by_id.keys()


class TestValidation:
    def test_unknown_nested_key_has_dotted_path(self, tmp_path):
        path = write(tmp_path, "harness:\n  bogus: 1\n")
        with pytest.raises(ConfigError, match="harness.bogus"):
            load_run_config(path)

    def test_boolean_is_not_a_number(self, tmp_path):
        path = write(tmp_path, "harness:\n  k: true\n")
        with pytest.raises(ConfigError, match="harness.k"):
            load_run_config(path)

    def test_sample_accepts_id_list(self, tmp_path):
        path = write(tmp_path, "harness:\n  sample: [a, b]\n")
        rc = load_run_config(path)
        assert rc.harness.sample.ids == ("a", "b")

    def test_sample_rejects_a_sized_spec(self, tmp_path):
        path = write(tmp_path, "harness:\n  sample:\n    size: 3\n    rng_seed: 2\n")
        with pytest.raises(ConfigError, match="'harness.sample': expected a list, got dict"):
            load_run_config(path)

    def test_sample_rejects_other_shapes(self, tmp_path):
        path = write(tmp_path, "harness:\n  sample: 5\n")
        with pytest.raises(ConfigError, match="harness.sample"):
            load_run_config(path)

    def test_sample_rejects_empty_id_list(self, tmp_path):
        path = write(tmp_path, "harness:\n  sample: []\n")
        with pytest.raises(ConfigError, match="non-empty"):
            load_run_config(path)

    def test_harness_correction_c_rejected(self, tmp_path):
        path = write(tmp_path, "harness:\n  correction_c: 2.0\n")
        with pytest.raises(ConfigError, match="harness.correction_c"):
            load_run_config(path)

    def test_bad_gen_value_wrapped(self, tmp_path):
        path = write(
            tmp_path,
            "synth:\n  n_products: 0\n  n_categories_top: 1\n  n_categories_fine: 1\n"
            "  n_train_sessions: 1\n  n_eval_sessions: 1\n  days: 1\n  rng_seed: 1\n",
        )
        with pytest.raises(ConfigError, match="n_products"):
            load_run_config(path)

    def test_invalid_yaml_reported(self, tmp_path):
        path = write(tmp_path, "synth: [unclosed\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_nesting_too_deep_is_invalid_yaml(self, tmp_path):
        path = write(tmp_path, "a: " + "[" * 5_000 + "\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_run_config(path)

    def test_defaults_when_sections_absent(self, tmp_path):
        path = write(tmp_path, "curve:\n  day_grid: [1, 2]\n")
        rc = load_run_config(path)
        assert rc.synth is None
        assert rc.harness.neutral_band == 0.0005
        assert rc.hyper.dimensions == 200
        assert rc.lifecycle.plan.window_days == 51

    def test_curve_end_day_left_to_the_data(self, tmp_path):
        path = write(tmp_path, "curve:\n  day_grid: [1, 2]\n")
        assert load_run_config(path).curve.end_day is None


SMOKE_YAML = (CONFIG_DIR / "smoke.yaml").read_text()


class TestOutOfRangeRejectedAtLoad:
    @pytest.mark.parametrize("old, new, key", [
        ("harness:\n  k: 5\n", "harness:\n  k: 0\n", "harness.k"),
        ("  neutral_band: 0.0005\n", "  neutral_band: -1\n", "harness.neutral_band"),
        ("  neutral_band: 0.0005\n", "  neutral_band: 0.0005\n  bin_width: 0\n", "harness.bin_width"),
        ("  revenue_base: 1000000.0\n", "  revenue_base: -1.0\n", "harness.revenue_base"),
        ("  revenue_base: 1000000.0\n", "  revenue_base: 0\n", "harness.revenue_base"),
        ("  n_frames: 2\n  k: 5\n", "  n_frames: 2\n  k: 0\n", "lifecycle.k"),
        ("lifecycle:\n", "lifecycle:\n  hr_level: -1\n", "lifecycle.hr_level"),
        ("harness:\n  k: 5\n", "harness:\n  sample: []\n  k: 5\n", "harness.sample"),
        ("  day_grid: [2, 3]\n  k: 5\n", "  day_grid: [2, 3]\n  k: 0\n", "curve.k"),
        ("  day_grid: [2, 3]\n", "  day_grid: [3, 2]\n", "curve.day_grid"),
        ("curve:\n", "plants:\n  duplicates:\n    copies: 1\ncurve:\n", "plants.duplicates.copies"),
        ("  day_grid: [2, 3]\n", "  day_grid: [2, 3]\n  unit_value: 0\n", "curve.unit_value"),
    ])
    def test_key_named(self, tmp_path, old, new, key):
        assert old in SMOKE_YAML
        path = write(tmp_path, SMOKE_YAML.replace(old, new, 1))
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            load_run_config(path)


class TestMessagesNameTheKey:
    @pytest.mark.parametrize("text, message", [
        ("harness:\n  k: true\n", "'harness.k': expected int, got bool"),
        ("harness:\n  k: '5'\n", "'harness.k': expected int, got str"),
        ("harness:\n  vr_exhaustive_limit: 10\n", "'harness.vr_exhaustive_limit': unknown key"),
        ("harness:\n  sample: [a, a]\n", "'harness.sample': session id 'a' is listed more than once"),
        ("plants:\n  toxic:\n    rng_seed: 1\n    bogus: 2\n", "'plants.toxic.bogus': unknown key"),
        ("plants:\n  toxic: {}\n", "'plants.toxic.rng_seed': required key is missing"),
        ("plants:\n  toxic:\n    rng_seed: 1\n    retries: 3\n", "'plants.toxic.retries': unknown key"),
        ("plants:\n  toxic:\n    rng_seed: 1\n    min_rel_gain: 0.01\n",
         "'plants.toxic.min_rel_gain': unknown key"),
        ("plants:\n  toxic:\n    rng_seed: 1\n    repeats: 5\n", "'plants.toxic.repeats': unknown key"),
        ("plants:\n  toxic:\n    rng_seed: 1\n    verify_vr: true\n", "'plants.toxic.verify_vr': unknown key"),
        ("plants:\n  duplicates:\n    session_id: s000001\n",
         "'plants.duplicates.session_id': unknown key"),
        ("plants:\n  duplicates:\n    max_candidates: 5\n",
         "'plants.duplicates.max_candidates': unknown key"),
        ("synth:\n  popularity_exponent: 1.0\n", "'synth.popularity_exponent': unknown key"),
        ("synth:\n  n_products: 5\n", "'synth': missing required keys: n_categories_top, .*, days, rng_seed"),
        ("output_dir: 5\n", "'output_dir': expected str, got int"),
        ("paths:\n  truth: elsewhere/truth.json\n", "'paths.truth': unknown key"),
        ("curve:\n  day_grid: [1, 2]\n  correction_c: 1.0\n", "'curve.correction_c': unknown key"),
    ])
    def test_rejected(self, tmp_path, text, message):
        with pytest.raises(ConfigError, match=message):
            load_run_config(write(tmp_path, text))

    def test_int_accepted_for_float(self, tmp_path):
        rc = load_run_config(write(tmp_path, "harness:\n  revenue_base: 3\n"))
        assert rc.harness.revenue_base == 3.0
        assert type(rc.harness.revenue_base) is float
