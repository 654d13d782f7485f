"""Configuration schema and validation messages."""

import os
import pathlib
import subprocess
import sys

import pytest

from pvbatsim.config import build_sim_config, default_config, load_config_file
from pvbatsim.errors import ConfigError
from pvbatsim.profiles import sample


def numeric_keys(section, path=()):
    """Dotted paths of the numeric leaves under ``section``, ``load_blocks`` excluded."""
    for key, value in section.items():
        if isinstance(value, dict):
            yield from numeric_keys(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


#: Every numeric key of the default config.
NUMERIC_KEYS = sorted(numeric_keys(default_config()))


def nested(path, value):
    """The config dict that sets the key at ``path`` to ``value``."""
    data = value
    for key in reversed(path):
        data = {key: data}
    return data


class TestDefaults:
    def test_defaults_build(self):
        config = build_sim_config()
        assert config.dt == 1.0
        assert config.t_end == 86400.0
        assert config.mppt_kind == "flc"
        assert config.panel.n_panels_series == 2
        assert config.battery.n_serial == 24
        assert config.v_bus_nominal == 48.0

    def test_default_dict_is_a_copy(self):
        d = default_config()
        d["simulation"]["dt_s"] = 99.0
        assert default_config()["simulation"]["dt_s"] == 1.0


class TestValidation:
    def test_threshold_order_names_keys(self):
        with pytest.raises(ConfigError, match="soc_min.*soc_max"):
            build_sim_config({"supervisor": {"soc_min": 0.9, "soc_max": 0.2}})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="simulation.dtt_s"):
            build_sim_config({"simulation": {"dtt_s": 1.0}})

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="inverter"):
            build_sim_config({"inverter": {}})

    def test_bad_mppt_kind(self):
        with pytest.raises(ConfigError, match="mppt"):
            build_sim_config({"simulation": {"mppt": "incond"}})

    def test_unknown_panel_preset(self):
        with pytest.raises(ConfigError, match=r"^unknown config key 'panel\.preset'$"):
            build_sim_config({"panel": {"preset": "generic_80w"}})

    def test_panel_field_override(self):
        config = build_sim_config({"panel": {"r_s": 0.2, "n_panels_parallel": 3}})
        assert config.panel.r_s == 0.2
        assert config.panel.n_panels_parallel == 3

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigError, match="dt_s"):
            build_sim_config({"simulation": {"dt_s": "fast"}})

    def test_initial_soc_range(self):
        with pytest.raises(ConfigError, match="initial_soc"):
            build_sim_config({"simulation": {"initial_soc": 1.5}})

    def test_bad_profiles_shape(self):
        with pytest.raises(ConfigError, match="profiles"):
            build_sim_config({"profiles": {"wind": {"csv": "x.csv"}}})

    @pytest.mark.parametrize("k_i,t_min,t_max,refused_at", [
        (-0.02, 15.0, 35.0, None),   # factor 0.8 at the hottest knot
        (-0.2, 15.0, 35.0, "35"),    # factor -1 at the hottest knot
        (0.2, 15.0, 35.0, "15"),     # factor -1 at the coldest knot
        (-0.2, -10.0, 20.0, None),   # the same coefficient on a cooler day
    ])
    def test_k_i_against_profile_temperatures(self, k_i, t_min, t_max, refused_at):
        data = {"panel": {"k_i": k_i},
                "profiles": {"synthetic": {"t_min_c": t_min, "t_max_c": t_max}}}
        if refused_at is None:
            assert build_sim_config(data).panel.k_i == k_i
        else:
            with pytest.raises(ConfigError, match=rf"^panel\.k_i .* at {refused_at} degC"):
                build_sim_config(data)


class TestSchema:
    """One schema: every numeric key refuses NaN and text and names itself."""

    @pytest.mark.parametrize("value", [float("nan"), "x"], ids=["nan", "text"])
    @pytest.mark.parametrize("path", NUMERIC_KEYS, ids=".".join)
    def test_bad_number_names_dotted_key(self, path, value):
        with pytest.raises(ConfigError) as exc:
            build_sim_config(nested(path, value))
        assert str(exc.value).startswith(".".join(path) + " must be ")


def key_tree(section):
    """The nested keys of a config dict, its leaf values left out."""
    return {key: key_tree(value) if isinstance(value, dict) else None
            for key, value in section.items()}


class TestShippedConfig:
    PATH = str(pathlib.Path(__file__).resolve().parents[1] / "configs" / "default.yaml")

    def test_matches_builtin_defaults(self):
        assert build_sim_config(load_config_file(self.PATH)) == build_sim_config()

    def test_names_every_key(self):
        assert key_tree(load_config_file(self.PATH)) == key_tree(default_config())


class TestYamlLoading:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "simulation:\n  t_end_s: 120\n  mppt: po\nbattery:\n  n_serial: 12\n",
            encoding="utf-8",
        )
        config = build_sim_config(load_config_file(str(path)))
        assert config.t_end == 120
        assert config.mppt_kind == "po"
        assert config.battery.n_serial == 12
        assert config.v_bus_nominal == 24.0

    def test_empty_file_is_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("", encoding="utf-8")
        config = build_sim_config(load_config_file(str(path)))
        assert config.dt == 1.0

    def test_default_run_does_not_import_yaml(self):
        # a run on the built-in config parses no YAML, so it does not pay the import
        code = ("import sys\nfrom pvbatsim import cli\n"
                "cli.build_sim_config(cli.default_config())\nprint('yaml' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=os.environ.copy())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("simulation: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError, match="YAML"):
            load_config_file(str(path))

    def test_csv_profiles(self, tmp_path):
        for name, column, rows in (
            ("irr.csv", "irradiance_wm2", "0,0\n600,800\n"),
            ("temp.csv", "temperature_c", "0,20\n600,25\n"),
            ("load.csv", "load_w", "0,100\n600,300\n"),
        ):
            (tmp_path / name).write_text(f"time_s,{column}\n{rows}", encoding="utf-8")
        config = build_sim_config(
            {
                "simulation": {"t_end_s": 600.0},
                "profiles": {
                    "irradiance": {"csv": str(tmp_path / "irr.csv")},
                    "temperature": {"csv": str(tmp_path / "temp.csv")},
                    "load": {"csv": str(tmp_path / "load.csv")},
                },
            }
        )
        assert config.irradiance.values == (0.0, 800.0)
        # load holds the earlier row between two rows
        assert sample(config.load, 300.0) == 100.0
