"""YAML configuration: one schema table, validation with key-level messages.

One structured file drives a run; every section mirrors a module config.
Unknown keys are rejected so typos fail loudly instead of silently using a
default. Each key's default and valid range sit in one row of ``_SCHEMA``;
the records built from it carry neither and trust it.
"""

import copy
import math
import re

from pvbatsim import battery as bat
from pvbatsim import mppt as mp
from pvbatsim import pv
from pvbatsim import supervisor as sup
from pvbatsim.engine import SimConfig
from pvbatsim.errors import ConfigError
from pvbatsim.profiles import T_MAX_C, load_csv, synthetic_day

# Bounds, as keyword arguments of ``_number``.
_ANY = {}
_POSITIVE = {"minimum": 0, "exclusive_min": True}
_NON_NEGATIVE = {"minimum": 0}
_FRACTION = {"minimum": 0, "maximum": 1, "exclusive_min": True, "exclusive_max": True}
_HOUR = {"minimum": 0, "maximum": 24}
#: Bound of a count: a whole number >= 1, checked by ``_count``.
_COUNT = "count"
#: Bound of a key that is not one number: ``build_sim_config`` checks it.
_IN_CODE = None

#: The schema, one row per key: (section, YAML key, record field, default, bound).
#: A key whose default is None may be left null.
_SCHEMA = (
    ("simulation", "dt_s", "dt", 1.0, _POSITIVE),
    ("simulation", "t_end_s", "t_end", 86400.0, _ANY),  # and >= dt_s
    ("simulation", "mppt", "mppt_kind", "flc", _IN_CODE),
    ("simulation", "initial_soc", "initial_soc", 0.8,
     {"minimum": bat.SOC_FLOOR, "maximum": bat.SOC_CEILING,
      "exclusive_min": True, "exclusive_max": True}),
    # null: 2.0 V per cell of battery.n_serial
    ("simulation", "v_bus_nominal_v", "v_bus_nominal", None, _POSITIVE),
    # a generic 80 W / 36-cell panel: at 1000 W/m2 and 25 C it yields Isc 4.95 A,
    # Voc 21.7 V, Vmpp 17.7 V and Pmpp 80.4 W
    ("panel", "i_ph_ref", "i_ph_ref", 4.95, _POSITIVE),
    # and a saturation current in [I_0_MIN, I_0_MAX] over the temperature profile
    ("panel", "i_0_ref", "i_0_ref", 7.0e-8, _POSITIVE),
    ("panel", "r_s", "r_s", 0.16, _NON_NEGATIVE),
    ("panel", "r_sh", "r_sh", 200.0, _POSITIVE),
    ("panel", "a", "a", 1.3, {"minimum": 1, "maximum": 2}),
    ("panel", "n_s", "n_s", 36, _COUNT),
    # >= 1 W/m2 keeps g / g_ref <= g, finite for every finite irradiance
    ("panel", "g_ref", "g_ref", 1000.0, {"minimum": 1}),
    ("panel", "t_ref", "t_ref", 298.15, _POSITIVE),
    # and 1 + k_i * (t_j - t_ref) > 0 over the temperature profile
    ("panel", "k_i", "k_i", 0.0005, _ANY),
    # the classical saturation-current law uses 3
    ("panel", "i_0_temp_exp", "i_0_temp_exp", 0.0, {"minimum": -10, "maximum": 10}),
    ("panel", "n_panels_series", "n_panels_series", 2, _COUNT),
    ("panel", "n_panels_parallel", "n_panels_parallel", 2, _COUNT),
    # at least 1 mAh: the 10-hour current c_10_ah / 10 divides the capacity law
    ("battery", "c_10_ah", "c_10", 100.0, {"minimum": 1e-3}),
    ("battery", "n_serial", "n_serial", 24, _COUNT),
    ("battery", "n_parallel", "n_parallel", 1, _COUNT),
    # the capacity, discharge and charge laws scale by 1 + 0.005 dT, 1 - 0.007 dT
    # and 1 - 0.025 dT: all three stay positive only inside this interval
    ("battery", "delta_t_c", "delta_t", 0.0,
     {"minimum": -200, "maximum": 40, "exclusive_min": True, "exclusive_max": True}),
    ("battery", "capacity_coeff", "capacity_coeff", 1.76, _POSITIVE),
    # printed as 1.3 and as 1.8
    ("battery", "discharge_exp", "discharge_exp", 1.3,
     {"minimum": 0, "maximum": 10, "exclusive_min": True}),
    ("converter", "d_max", "d_max", 0.95, {"minimum": 0, "maximum": 1, "exclusive_max": True}),
    ("converter", "eta", "eta", 1.0, {"minimum": 0, "maximum": 1, "exclusive_min": True}),
    ("mppt", "delta_d", "delta_d", 0.005, _POSITIVE),
    ("mppt", "t_mppt_s", "t_mppt", 0.1, _POSITIVE),
    ("mppt", "d0", "d0", 0.4, _NON_NEGATIVE),  # and <= converter.d_max
    ("mppt.fuzzy", "e_range", "e_range", 40.0, _POSITIVE),
    ("mppt.fuzzy", "ce_range", "ce_range", 40.0, _POSITIVE),
    ("mppt.fuzzy", "dd_range", "dd_range", 0.01, _POSITIVE),
    # and soc_min < soc_min_release < soc_max_release < soc_max
    ("supervisor", "soc_min", "soc_min", 0.20, _FRACTION),
    ("supervisor", "soc_min_release", "soc_min_release", 0.25, _FRACTION),
    ("supervisor", "soc_max", "soc_max", 0.90, _FRACTION),
    ("supervisor", "soc_max_release", "soc_max_release", 0.85, _FRACTION),
    ("supervisor", "p_epsilon_w", "p_epsilon", 1.0, _POSITIVE),
    ("profiles.synthetic", "g_peak_wm2", "g_peak", 1000.0, _NON_NEGATIVE),
    # the day's coldest value is t_min_c, so absolute zero bounds the whole profile
    ("profiles.synthetic", "t_min_c", "t_min", 15.0, {"minimum": -273.15, "exclusive_min": True}),
    ("profiles.synthetic", "t_max_c", "t_max", 35.0, {"maximum": T_MAX_C}),  # and >= t_min_c
    ("profiles.synthetic", "sunrise_h", "sunrise_h", 6.0, _HOUR),  # and < sunset_h
    ("profiles.synthetic", "sunset_h", "sunset_h", 18.0, _HOUR),
    ("profiles.synthetic", "temp_lag_h", "temp_lag_h", 1.0, _ANY),
    # illustrative consumption: morning and evening peaks over a small base
    ("profiles.synthetic", "load_blocks", "load_blocks",
     [[0.0, 6.0, 60.0], [6.0, 9.0, 150.0], [9.0, 18.0, 100.0], [18.0, 22.0, 300.0],
      [22.0, 24.0, 60.0]], _IN_CODE),
)

_SECTIONS = tuple(dict.fromkeys(row[0] for row in _SCHEMA))
_TOP_LEVEL = {section.split(".")[0] for section in _SECTIONS}


def default_config():
    """The built-in default configuration, as a fresh nested dict."""
    config = {}
    for section, key, _, default, _ in _SCHEMA:
        node = config
        for part in section.split("."):
            node = node.setdefault(part, {})
        node[key] = copy.deepcopy(default)
    return config


def load_config_file(path):
    """Parse a YAML config file into a plain dict (no validation yet).

    YAML 1.1 reads ``1e-3`` as text and only ``1.0e-3`` as a number; here both
    are numbers, while a quoted ``"1e-3"`` stays text.
    """
    import yaml  # only a run with --config parses YAML

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?[0-9][0-9_]*(\.[0-9_]*)?[eE][-+]?[0-9]+$"), list("-+0123456789"))
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.load(fh, Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


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


def _checked(path, given):
    """The table's keys at section ``path``: record field -> checked value.

    Defaults fill in what ``given`` leaves out. A subsection such as
    ``mppt.fuzzy`` is checked by its own call.
    """
    if not isinstance(given, dict):
        raise ConfigError(f"{path} must be a mapping")
    rows = [row for row in _SCHEMA if row[0] == path]
    known = {row[1] for row in rows}
    known |= {s.rpartition(".")[2] for s in _SECTIONS if s.rpartition(".")[0] == path}
    for key in given:
        if key not in known:
            raise ConfigError(f"unknown config key '{path}.{key}'")
    values = {}
    for _, key, field, default, bound in rows:
        value = given.get(key, default)
        if bound is _COUNT:
            values[field] = _count(path, key, value)
        elif bound is _IN_CODE or (value is None and default is None):
            values[field] = value
        else:
            values[field] = _number(path, key, value, **bound)
    return values


_PROFILE_COLUMNS = {"irradiance": "irradiance_wm2", "temperature": "temperature_c",
                    "load": "load_w"}


def _build_synthetic(syn):
    section = "profiles.synthetic"
    kwargs = _checked(section, syn)
    kwargs["load_blocks"] = _load_blocks(kwargs["load_blocks"])
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
    for key in entry:
        if key != "csv":
            raise ConfigError(f"unknown config key 'profiles.{name}.{key}'")
    path = entry["csv"]
    if not isinstance(path, str):
        raise ConfigError(f"profiles.{name}.csv must be a path string, got {path!r}")
    try:
        return load_csv(path, _PROFILE_COLUMNS[name])
    except (ConfigError, UnicodeDecodeError) as exc:
        raise ConfigError(f"profiles.{name}.csv: {exc}") from exc


def _build_profiles(section):
    if not isinstance(section, dict):
        raise ConfigError("profiles must be a mapping")
    for key in section:
        if key != "synthetic" and key not in _PROFILE_COLUMNS:
            raise ConfigError(f"unknown config key 'profiles.{key}'")
    if set(section) == {"synthetic"}:
        return _build_synthetic(section["synthetic"])
    if set(section) == set(_PROFILE_COLUMNS):
        return tuple(_load_profile_csv(name, section[name]) for name in _PROFILE_COLUMNS)
    raise ConfigError(
        "profiles must be either {synthetic: {...}} or per-signal "
        "{irradiance: {csv: ...}, temperature: {csv: ...}, load: {csv: ...}}"
    )


#: Saturation currents [A] for which the diode solve and the MPP search converge
#: on the default panel from 1 to 1e6 W/m2 and -270 to 200 degC. They stall from
#: about 5e6 A, and below about 1e-230 A: i_0 * exp(600), the diode current at the
#: solver's exponent cap, no longer outweighs a 1,000-sun photocurrent there.
I_0_MIN, I_0_MAX = 1e-200, 1e6


def check_panel_temperatures(panel, temps_c, reached):
    """Refuse ``panel`` if its temperature laws fail at a temperature in ``temps_c`` [degC].

    The photocurrent factor ``1 + k_i * (t_j - t_ref)`` must be positive and
    the saturation current in ``[I_0_MIN, I_0_MAX]``. Both are monotone in
    temperature, so a run's coldest and hottest temperatures bound every one
    between. ``reached`` says in the message where the temperatures come from.
    """
    for t_c in temps_c:
        t_j = t_c + 273.15
        if 1.0 + panel.k_i * (t_j - panel.t_ref) <= 0.0:
            raise ConfigError(
                f"panel.k_i ({panel.k_i:g}) and panel.t_ref ({panel.t_ref:g} K) make the "
                f"photocurrent factor 1 + k_i * (t_j - t_ref) <= 0 at {t_c:g} degC, {reached}"
            )
        try:
            i_0 = panel.saturation_current(t_j)
        except OverflowError:
            i_0 = math.inf
        if not I_0_MIN <= i_0 <= I_0_MAX:
            # with a constant law, i_0_ref is the saturation current
            key = "t_ref" if panel.i_0_temp_exp else "i_0_ref"
            raise ConfigError(
                f"panel.{key} puts the saturation current at {i_0:g} A at {t_c:g} degC, outside "
                f"[{I_0_MIN:g}, {I_0_MAX:g}] (i_0_ref {panel.i_0_ref:g} A, t_ref {panel.t_ref:g} "
                f"K, i_0_temp_exp {panel.i_0_temp_exp:g}), {reached}"
            )


#: The supervisor's SOC thresholds, each strictly above the one before.
_SOC_CHAIN = ("soc_min", "soc_min_release", "soc_max_release", "soc_max")


def build_sim_config(data=None):
    """Validate a config dict, the table's defaults filled in, into a SimConfig."""
    data = data or {}
    for key in data:
        if key not in _TOP_LEVEL:
            raise ConfigError(f"unknown config key '{key}'")

    sim = _checked("simulation", data.get("simulation", {}))
    if sim["t_end"] < sim["dt"]:
        raise ConfigError(f"simulation.t_end_s must be >= {sim['dt']}")
    # a finite step count may be huge: the run streams, so it is what was asked for
    if not math.isfinite(sim["t_end"] / sim["dt"]):
        raise ConfigError(f"simulation.dt_s ({sim['dt']:g}) is too small: "
                          "simulation.t_end_s / dt_s must be a finite step count")
    if sim["mppt_kind"] not in ("po", "flc"):
        raise ConfigError(f"simulation.mppt must be 'po' or 'flc', got {sim['mppt_kind']!r}")

    panel = pv.PvPanelParams(**_checked("panel", data.get("panel", {})))
    battery = bat.BatteryParams(**_checked("battery", data.get("battery", {})))
    if sim["v_bus_nominal"] is None:
        sim["v_bus_nominal"] = 2.0 * battery.n_serial

    converter = _checked("converter", data.get("converter", {}))
    mppt = _checked("mppt", data.get("mppt", {}))
    if mppt["d0"] > converter["d_max"]:
        raise ConfigError(f"mppt.d0 ({mppt['d0']:g}) must be <= converter.d_max "
                          f"({converter['d_max']:g})")
    t_mppt = mppt["t_mppt"]
    if not (math.isfinite(sim["t_end"] / t_mppt) and math.isfinite(t_mppt / sim["dt"])):
        raise ConfigError(f"mppt.t_mppt_s ({t_mppt:g}) must give finite step counts: "
                          "simulation.t_end_s / t_mppt_s and t_mppt_s / simulation.dt_s")
    fuzzy = mp.FuzzyConfig(**_checked("mppt.fuzzy", data.get("mppt", {}).get("fuzzy", {})))

    socs = _checked("supervisor", data.get("supervisor", {}))
    for lower, upper in zip(_SOC_CHAIN, _SOC_CHAIN[1:]):
        if socs[upper] <= socs[lower]:
            raise ConfigError(
                f"supervisor.{upper} ({socs[upper]:g}) must be above supervisor.{lower} "
                f"({socs[lower]:g}): the thresholds must satisfy 0 < soc_min "
                "< soc_min_release < soc_max_release < soc_max < 1"
            )

    irradiance, temperature, load = _build_profiles(data.get("profiles", {"synthetic": {}}))
    # temperature samples interpolate between knots, so the extreme knots bound them
    check_panel_temperatures(panel, (min(temperature.values), max(temperature.values)),
                             "which the temperature profile reaches")

    return SimConfig(
        panel=panel,
        battery=battery,
        supervisor=sup.SupervisorConfig(**socs),
        fuzzy=fuzzy,
        irradiance=irradiance,
        temperature=temperature,
        load=load,
        **sim,
        **converter,
        **mppt,
    )
