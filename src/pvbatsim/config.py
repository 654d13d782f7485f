"""YAML configuration: schema, defaults, validation with key-level messages.

One structured file drives a run; every section mirrors a module config.
Unknown keys are rejected so typos fail loudly instead of silently using a
default. This module is the one place that knows each parameter's default
and valid range: the records it builds carry neither and trust it.
"""

import copy
import math

import yaml

from pvbatsim import battery as bat
from pvbatsim import mppt as mp
from pvbatsim import pv
from pvbatsim import supervisor as sup
from pvbatsim.engine import SimConfig
from pvbatsim.errors import ConfigError, ProfileError
from pvbatsim.profiles import load_csv, synthetic_day

#: Panel presets selectable as ``panel.preset``.
PANEL_PRESETS = {"generic_80w": pv.GENERIC_80W}

_DEFAULTS = {
    "simulation": {
        "dt_s": 1.0,
        "t_end_s": 86400.0,
        "mppt": "flc",
        "initial_soc": 0.8,
        "v_bus_nominal_v": None,
    },
    "panel": {
        "preset": "generic_80w",
        "n_panels_series": 2,
        "n_panels_parallel": 2,
    },
    "battery": {
        "c_10_ah": 100.0,
        "n_serial": 24,
        "n_parallel": 1,
        "delta_t_c": 0.0,
        "capacity_coeff": 1.76,
        "discharge_exp": 1.3,
    },
    "converter": {
        "d_max": 0.95,
        "eta": 1.0,
    },
    "mppt": {
        "delta_d": 0.005,
        "t_mppt_s": 0.1,
        "d0": 0.4,
        "fuzzy": {
            "e_range": 40.0,
            "ce_range": 40.0,
            "dd_range": 0.01,
        },
    },
    "supervisor": {
        "soc_min": 0.20,
        "soc_min_release": 0.25,
        "soc_max": 0.90,
        "soc_max_release": 0.85,
        "p_epsilon_w": 1.0,
    },
    "profiles": {
        "synthetic": {
            "g_peak_wm2": 1000.0,
            "t_min_c": 15.0,
            "t_max_c": 35.0,
            "sunrise_h": 6.0,
            "sunset_h": 18.0,
            "temp_lag_h": 1.0,
            # illustrative consumption: morning and evening peaks over a small base
            "load_blocks": [
                [0.0, 6.0, 60.0],
                [6.0, 9.0, 150.0],
                [9.0, 18.0, 100.0],
                [18.0, 22.0, 300.0],
                [22.0, 24.0, 60.0],
            ],
        },
    },
}

#: ``PvPanelParams`` field -> bounds for ``_number``, or None for a count.
#: A preset gives every field; a key beside ``panel.preset`` overrides one.
_PANEL_FIELDS = {
    "i_ph_ref": {"minimum": 0, "exclusive_min": True},
    "i_0_ref": {"minimum": 0, "exclusive_min": True},
    "r_s": {"minimum": 0},
    "r_sh": {"minimum": 0, "exclusive_min": True},
    "a": {"minimum": 1, "maximum": 2},
    "n_s": None,
    "g_ref": {"minimum": 0, "exclusive_min": True},
    "t_ref": {"minimum": 0, "exclusive_min": True},
    "k_i": {},
    "i_0_temp_exp": {},
    "n_panels_series": None,
    "n_panels_parallel": None,
}


def default_config():
    """Deep copy of the built-in default configuration dict."""
    return copy.deepcopy(_DEFAULTS)


def load_config_file(path):
    """Parse a YAML config file into a plain dict (no validation yet)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


# sections whose keys are validated downstream, not against the defaults dict
_FREE_FORM = ("profiles", "panel")


def _merge(base, override, path=""):
    """Merge override into the defaults, refusing keys the schema lacks."""
    merged = {}
    for key, default_value in base.items():
        if key in override:
            value = override[key]
            if isinstance(default_value, dict) and key not in _FREE_FORM:
                if not isinstance(value, dict):
                    raise ConfigError(f"{path}{key} must be a mapping")
                merged[key] = _merge(default_value, value, f"{path}{key}.")
            elif key == "panel":
                if not isinstance(value, dict):
                    raise ConfigError("panel must be a mapping")
                merged[key] = {**copy.deepcopy(default_value), **value}
            else:
                merged[key] = value
        else:
            merged[key] = copy.deepcopy(default_value)
    for key in override:
        if key not in base:
            raise ConfigError(f"unknown config key '{path}{key}'")
    return merged


def _number(section, key, value, minimum=None, maximum=None,
            exclusive_min=False, exclusive_max=False):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
    if minimum is not None and (v <= minimum if exclusive_min else v < minimum):
        raise ConfigError(f"{section}.{key} must be {'>' if exclusive_min else '>='} {minimum}")
    if maximum is not None and (v >= maximum if exclusive_max else v > maximum):
        raise ConfigError(f"{section}.{key} must be {'<' if exclusive_max else '<='} {maximum}")
    return v


def _count(section, key, value):
    """A count key: a whole number >= 1, so that 24.7 is refused, not run as 24."""
    v = _number(section, key, value, minimum=1)
    if not v.is_integer():
        raise ConfigError(f"{section}.{key} must be a whole number, got {value!r}")
    return int(v)


def _build_panel(section):
    preset_name = section["preset"]
    if not isinstance(preset_name, str) or preset_name not in PANEL_PRESETS:
        raise ConfigError(
            f"panel.preset {preset_name!r} unknown; available: {sorted(PANEL_PRESETS)}"
        )
    for key in section:
        if key != "preset" and key not in _PANEL_FIELDS:
            raise ConfigError(f"unknown config key 'panel.{key}'")
    preset = PANEL_PRESETS[preset_name]
    fields = {}
    for key, bounds in _PANEL_FIELDS.items():
        value = section.get(key, getattr(preset, key))
        if bounds is None:
            fields[key] = _count("panel", key, value)
        else:
            fields[key] = _number("panel", key, value, **bounds)
    return pv.PvPanelParams(**fields)


#: ``profiles.synthetic`` key -> (``synthetic_day`` parameter, bounds for ``_number``).
#: The day's coldest value is ``t_min_c``, so its bound of absolute zero
#: covers the whole temperature profile.
_SYNTHETIC_KEYS = {
    "g_peak_wm2": ("g_peak", {"minimum": 0}),
    "t_min_c": ("t_min", {"minimum": -273.15, "exclusive_min": True}),
    "t_max_c": ("t_max", {}),
    "sunrise_h": ("sunrise_h", {"minimum": 0, "maximum": 24}),
    "sunset_h": ("sunset_h", {"minimum": 0, "maximum": 24}),
    "temp_lag_h": ("temp_lag_h", {}),
}

_PROFILE_COLUMNS = {"irradiance": "irradiance_wm2", "temperature": "temperature_c",
                    "load": "load_w"}


def _build_synthetic(syn):
    section = "profiles.synthetic"
    if not isinstance(syn, dict):
        raise ConfigError(f"{section} must be a mapping")
    kwargs = {}
    # the defaults fill in, so the cross-key check below sees both ends
    for key, value in {**_DEFAULTS["profiles"]["synthetic"], **syn}.items():
        if key == "load_blocks":
            kwargs["load_blocks"] = _load_blocks(value)
        elif key in _SYNTHETIC_KEYS:
            name, bounds = _SYNTHETIC_KEYS[key]
            kwargs[name] = _number(section, key, value, **bounds)
        else:
            raise ConfigError(f"unknown config key '{section}.{key}'")
    if kwargs["t_min"] > kwargs["t_max"]:
        raise ConfigError(f"{section}.t_min_c must be <= {section}.t_max_c, "
                          f"got {kwargs['t_min']:g} > {kwargs['t_max']:g}")
    if kwargs["sunrise_h"] >= kwargs["sunset_h"]:
        raise ConfigError(f"{section}.sunrise_h must be < {section}.sunset_h, "
                          f"got {kwargs['sunrise_h']:g} >= {kwargs['sunset_h']:g}")
    return synthetic_day(**kwargs)


def _load_blocks(value):
    key = "profiles.synthetic.load_blocks"
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of [start_h, end_h, watts]")
    blocks = []
    for i, block in enumerate(value):
        if not isinstance(block, list) or len(block) != 3:
            raise ConfigError(f"{key}[{i}] must be [start_h, end_h, watts]")
        start = _number(f"{key}[{i}]", "start_h", block[0])
        end = _number(f"{key}[{i}]", "end_h", block[1])
        watts = _number(f"{key}[{i}]", "watts", block[2], minimum=0)
        if not 0 <= start < end <= 24:
            raise ConfigError(f"{key}[{i}] must satisfy 0 <= start_h < end_h <= 24, "
                              f"got [{start:g}, {end:g}]")
        blocks.append([start, end, watts])
    by_start = sorted(range(len(blocks)), key=lambda i: blocks[i][0])
    for i, j in zip(by_start, by_start[1:]):
        if blocks[j][0] < blocks[i][1]:
            raise ConfigError(f"{key}[{j}] overlaps {key}[{i}]: it starts at "
                              f"{blocks[j][0]:g} h, before {blocks[i][1]:g} h")
    return blocks


def _load_profile_csv(name, entry):
    if not isinstance(entry, dict) or "csv" not in entry:
        raise ConfigError(f"profiles.{name} must be a mapping with a 'csv' path")
    path = entry["csv"]
    if not isinstance(path, str):
        raise ConfigError(f"profiles.{name}.csv must be a path string, got {path!r}")
    try:
        return load_csv(path, _PROFILE_COLUMNS[name])
    except (ProfileError, UnicodeDecodeError) as exc:
        raise ConfigError(f"profiles.{name}.csv: {exc}") from exc


def _build_profiles(section):
    if not isinstance(section, dict):
        raise ConfigError("profiles must be a mapping")
    if "synthetic" in section and len(section) == 1:
        return _build_synthetic(section["synthetic"])
    if set(_PROFILE_COLUMNS) <= set(section):
        for key in section:
            if key not in _PROFILE_COLUMNS:
                raise ConfigError(f"unknown config key 'profiles.{key}'")
        return tuple(_load_profile_csv(name, section[name]) for name in _PROFILE_COLUMNS)
    raise ConfigError(
        "profiles must be either {synthetic: {...}} or per-signal "
        "{irradiance: {csv: ...}, temperature: {csv: ...}, load: {csv: ...}}"
    )


#: The supervisor's SOC thresholds, each strictly above the one before.
_SOC_CHAIN = ("soc_min", "soc_min_release", "soc_max_release", "soc_max")


def build_sim_config(data=None, mppt_override=None):
    """Validate a config dict (merged over the defaults) into a SimConfig."""
    merged = _merge(_DEFAULTS, data or {})

    sim = merged["simulation"]
    dt = _number("simulation", "dt_s", sim["dt_s"], minimum=0, exclusive_min=True)
    t_end = _number("simulation", "t_end_s", sim["t_end_s"], minimum=dt)
    mppt_kind = mppt_override or sim["mppt"]
    if mppt_kind not in ("po", "flc"):
        raise ConfigError(f"simulation.mppt must be 'po' or 'flc', got {mppt_kind!r}")
    initial_soc = _number("simulation", "initial_soc", sim["initial_soc"],
                          minimum=bat.SOC_FLOOR, maximum=bat.SOC_CEILING,
                          exclusive_min=True, exclusive_max=True)

    panel = _build_panel(merged["panel"])

    b = merged["battery"]
    battery = bat.BatteryParams(
        c_10=_number("battery", "c_10_ah", b["c_10_ah"], minimum=0, exclusive_min=True),
        n_serial=_count("battery", "n_serial", b["n_serial"]),
        n_parallel=_count("battery", "n_parallel", b["n_parallel"]),
        delta_t=_number("battery", "delta_t_c", b["delta_t_c"]),
        capacity_coeff=_number("battery", "capacity_coeff", b["capacity_coeff"],
                               minimum=0, exclusive_min=True),
        discharge_exp=_number("battery", "discharge_exp", b["discharge_exp"],
                              minimum=0, exclusive_min=True),
    )
    v_bus_nominal = sim["v_bus_nominal_v"]
    if v_bus_nominal is None:
        v_bus_nominal = 2.0 * battery.n_serial
    else:
        v_bus_nominal = _number("simulation", "v_bus_nominal_v", v_bus_nominal,
                                minimum=0, exclusive_min=True)

    conv = merged["converter"]
    d_max = _number("converter", "d_max", conv["d_max"], minimum=0, maximum=1,
                    exclusive_max=True)
    eta = _number("converter", "eta", conv["eta"], minimum=0, maximum=1,
                  exclusive_min=True)

    m = merged["mppt"]
    delta_d = _number("mppt", "delta_d", m["delta_d"], minimum=0, exclusive_min=True)
    t_mppt = _number("mppt", "t_mppt_s", m["t_mppt_s"], minimum=0, exclusive_min=True)
    d0 = _number("mppt", "d0", m["d0"], minimum=0, maximum=d_max)
    f = m["fuzzy"]
    fuzzy = mp.FuzzyConfig(
        e_range=_number("mppt.fuzzy", "e_range", f["e_range"], minimum=0, exclusive_min=True),
        ce_range=_number("mppt.fuzzy", "ce_range", f["ce_range"], minimum=0, exclusive_min=True),
        dd_range=_number("mppt.fuzzy", "dd_range", f["dd_range"], minimum=0, exclusive_min=True),
    )

    s = merged["supervisor"]
    socs = {key: _number("supervisor", key, s[key], minimum=0, maximum=1,
                         exclusive_min=True, exclusive_max=True) for key in _SOC_CHAIN}
    for lower, upper in zip(_SOC_CHAIN, _SOC_CHAIN[1:]):
        if socs[upper] <= socs[lower]:
            raise ConfigError(
                f"supervisor.{upper} ({socs[upper]:g}) must be above supervisor.{lower} "
                f"({socs[lower]:g}): the thresholds must satisfy 0 < soc_min "
                "< soc_min_release < soc_max_release < soc_max < 1"
            )
    supervisor = sup.SupervisorConfig(
        **socs,
        p_epsilon=_number("supervisor", "p_epsilon_w", s["p_epsilon_w"],
                          minimum=0, exclusive_min=True),
    )

    irradiance, temperature, load = _build_profiles(merged["profiles"])

    return SimConfig(
        panel=panel,
        battery=battery,
        supervisor=supervisor,
        fuzzy=fuzzy,
        irradiance=irradiance,
        temperature=temperature,
        load=load,
        dt=dt,
        t_end=t_end,
        mppt_kind=mppt_kind,
        d0=d0,
        delta_d=delta_d,
        t_mppt=t_mppt,
        d_max=d_max,
        eta=eta,
        v_bus_nominal=v_bus_nominal,
        initial_soc=initial_soc,
    )
