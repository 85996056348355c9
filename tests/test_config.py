from __future__ import annotations

import pytest

from sessionvalue.config import load_run_config
from sessionvalue.errors import ConfigError

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

    def test_sample_accepts_sized_spec(self, tmp_path):
        path = write(tmp_path, "harness:\n  sample:\n    size: 7\n    rng_seed: 1\n")
        rc = load_run_config(path)
        assert rc.harness.sample.size == 7

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

    def test_defaults_when_sections_absent(self, tmp_path):
        path = write(tmp_path, "curve:\n  day_grid: [1, 2]\n")
        rc = load_run_config(path)
        assert rc.synth is None
        assert rc.harness.neutral_band == 0.0005
        assert rc.hyper.dimensions == 200
        assert rc.lifecycle.plan.window_days == 51
