"""Input sweep: extreme values of every numeric config key, through ``cli.main``.

Probe A sets one numeric key of the default config (all but ``dt_s`` and
``t_end_s``) to each of ``VALUES`` on a 1 h run, which is all night. Probe B
does the same for the panel, converter and MPPT keys with the sun up from
midnight, so that the lit PV is solved. A seeded sample of the cases runs
here. Each must exit 0 with a finite CSV, or exit 1 with
``config error: <section>.<key>``, and none may raise out of ``main``.

The structure sweep replaces each key and each section of a 3 s default run
with a value of the wrong shape, and adds an unknown key to each section. A
seeded sample of its cases runs here; each must exit 0, or exit 1 naming the
dotted path it changed.

The profile CSV sweep feeds each signal of the per-signal ``profiles`` form
bad values, times, files and entries on a 3 s run. Each case exits 0 with
nothing on stderr, or 1, 2 or 3 with one stderr line of that code's prefix.
"""

import copy
import random

import pytest
import yaml

from pvbatsim import cli
from pvbatsim.config import default_config

VALUES = (0, 1, -1, 3, 1e-300, 1e300, -1e300, 1e6, -1e6, 5e-324)

#: The cases that may exit 3 with an invariant violation, and why. All are
#: battery or diode solves that stall, and each names its step.
EXIT_3_ALLOWED = {
    ("battery.c_10_ah", 1): "overload: the 60 W night load exceeds the bank's peak power",
    ("battery.c_10_ah", 3): "the battery fixed point stalls below the bank's peak power",
    ("battery.n_serial", 1): "overload: the 60 W night load exceeds the bank's peak power",
    ("panel.r_s", 1e6): "the diode solve stalls",
    ("panel.n_panels_parallel", 1e6): "huge PV power stalls the battery charge solve",
    ("panel.n_panels_parallel", 1e300): "huge PV power stalls the battery charge solve",
    ("panel.i_ph_ref", 1e6): "huge PV power stalls the battery charge solve",
    ("panel.i_ph_ref", 1e300): "huge PV power stalls the battery charge solve",
}

#: Cases drawn from the sweep's 580 (38 keys in probe A, 20 in probe B), and
#: the seed that draws them.
SAMPLE_SIZE, SEED = 100, 20260


def numeric_keys(node, prefix=""):
    """Dotted paths of the numeric leaves of a nested config dict."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from numeric_keys(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + key


def all_cases():
    keys = list(numeric_keys(default_config()))
    probe_a = [k for k in keys if k not in ("simulation.dt_s", "simulation.t_end_s")]
    probe_b = [k for k in keys if k.split(".")[0] in ("panel", "converter", "mppt")]
    return ([("A", key, value) for key in probe_a for value in VALUES]
            + [("B", key, value) for key in probe_b for value in VALUES])


def case_config(probe, key, value):
    config = {"simulation": {"t_end_s": 3600}}
    if probe == "B":
        config["profiles"] = {"synthetic": {"sunrise_h": 0}}
    *sections, leaf = key.split(".")
    node = config
    for section in sections:
        node = node.setdefault(section, {})
    node[leaf] = value
    return config


SAMPLE = random.Random(SEED).sample(all_cases(), SAMPLE_SIZE)
KNOWN_KEYS = tuple(numeric_keys(default_config()))


@pytest.mark.parametrize("probe,key,value", SAMPLE,
                         ids=[f"{p}-{k}={v!r}" for p, k, v in SAMPLE])
def test_exits_cleanly(probe, key, value, tmp_path, capsys):
    cfg = tmp_path / "case.yaml"
    cfg.write_text(yaml.safe_dump(case_config(probe, key, value)), encoding="utf-8")
    out = tmp_path / "o.csv"
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        text = out.read_text()
        assert "inf" not in text and "nan" not in text
    elif code == 1:
        assert any(err.startswith(f"config error: {known}") for known in KNOWN_KEYS), err
    else:
        assert code == 3 and (key, value) in EXIT_3_ALLOWED, err
        assert err.startswith("invariant violation: step "), err


#: Values of the wrong type for most keys: a string that reads as a number, and
#: 1e400, which YAML writes as infinity.
SHAPES = (None, "x", [], {}, [1, 2], True, 1e400, "1.0")

#: Cases drawn from the structure sweep's 425, and the seed that draws them.
SHAPE_SAMPLE_SIZE, SHAPE_SEED = 200, 20261


def short_run():
    config = default_config()
    config["simulation"]["t_end_s"] = 3
    return config


def nested(path, config=None):
    """The value at a dotted path of ``config``, by default of the 3 s run."""
    node = short_run() if config is None else config
    for part in path.split("."):
        node = node[part]
    return node


def config_paths(node, prefix=""):
    """Dotted paths of every key of a nested config dict, sections included."""
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from config_paths(value, f"{prefix}{key}.")


def shape_cases():
    paths = list(config_paths(short_run()))
    sections = [""] + [f"{path}." for path in paths if isinstance(nested(path), dict)]
    cases = [(path, value) for path in paths for value in SHAPES]
    cases += [(section + "not_a_key", 1) for section in sections]
    # an empty simulation section runs the full 86,400-step day
    return [case for case in cases if case != ("simulation", {})]


SHAPE_SAMPLE = random.Random(SHAPE_SEED).sample(shape_cases(), SHAPE_SAMPLE_SIZE)


@pytest.mark.parametrize("path,value", SHAPE_SAMPLE,
                         ids=[f"{path}={value!r}" for path, value in SHAPE_SAMPLE])
def test_structure_exits_cleanly(path, value, tmp_path, capsys):
    config = short_run()
    section, _, key = path.rpartition(".")
    (nested(section, config) if section else config)[key] = copy.deepcopy(value)
    cfg = tmp_path / "case.yaml"
    cfg.write_text(yaml.safe_dump(config), encoding="utf-8")
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code in (0, 1), err
    assert code == 0 or (err.startswith("config error: ") and path in err), err


#: The CSV column of each profile signal, and a valid value of it for the
#: cases that vary the times or the file.
PROFILE_COLUMNS = {"irradiance": "irradiance_wm2", "temperature": "temperature_c",
                   "load": "load_w"}
PROFILE_VALUES = {"irradiance": "800", "temperature": "25", "load": "100"}

#: Profile CSV cases that may exit 3, and why: the battery solve for the
#: asked power overflows or stalls, and names the power and the step.
PROFILE_EXIT_3_ALLOWED = {
    ("irradiance", "value-huge"): "overload: huge PV power in the battery charge solve",
    ("load", "value-big"): "overload: the load exceeds the bank's peak power",
    ("load", "value-huge"): "overload: the load exceeds the bank's peak power",
}


def profile_files(signal):
    """Name and bytes of each profile CSV case for ``signal``."""
    header = f"time_s,{PROFILE_COLUMNS[signal]}\n"
    value = PROFILE_VALUES[signal]
    files = {f"value-{name}": f"{header}0,{v}\n10,{v}\n" for name, v in (
        ("huge", "1e300"), ("big", "1e7"), ("tiny", "1e-300"), ("negative", "-1"),
        ("nan", "nan"), ("inf", "inf"))}
    files.update({
        "times-repeated": f"{header}0,{value}\n0,{value}\n",
        "times-unsorted": f"{header}5,{value}\n0,{value}\n",
        "times-single-row": f"{header}0,{value}\n",
        "file-no-rows": header,
        "file-empty": "",
        "file-bom": f"\ufeff{header}0,{value}\n",
        "file-crlf": f"{header}0,{value}\n10,{value}\n".replace("\n", "\r\n"),
    })
    return {name: text.encode("utf-8") for name, text in files.items()}


#: Entries of a signal in the per-signal ``profiles`` form, beside the files.
PROFILE_ENTRIES = {"entry-" + repr(value): value
                   for value in (None, "x", [], {}, True, 1e400, "1.0")}
PROFILE_ENTRIES.update({"csv-null": {"csv": None}, "csv-number": {"csv": 3}})

PROFILE_CASES = [(signal, case) for signal in PROFILE_COLUMNS
                 for case in [*profile_files(signal), *PROFILE_ENTRIES, "missing", "directory"]]


@pytest.mark.parametrize("signal,case", PROFILE_CASES,
                         ids=[f"{signal}-{case}" for signal, case in PROFILE_CASES])
def test_profile_csv_exits_cleanly(signal, case, tmp_path, capsys):
    profiles = {}
    for name, column in PROFILE_COLUMNS.items():
        value = PROFILE_VALUES[name]
        path = tmp_path / f"{name}.csv"
        path.write_text(f"time_s,{column}\n0,{value}\n10,{value}\n", encoding="utf-8")
        profiles[name] = {"csv": str(path)}
    files = profile_files(signal)
    if case in files:
        (tmp_path / f"{signal}.csv").write_bytes(files[case])
    elif case in PROFILE_ENTRIES:
        profiles[signal] = copy.deepcopy(PROFILE_ENTRIES[case])
    else:
        profiles[signal] = {"csv": str(tmp_path / "missing.csv" if case == "missing" else tmp_path)}
    cfg = tmp_path / "case.yaml"
    cfg.write_text(yaml.safe_dump({"simulation": {"t_end_s": 3}, "profiles": profiles}),
                   encoding="utf-8")
    out = tmp_path / "o.csv"
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        text = out.read_text()
        assert "inf" not in text and "nan" not in text
        return
    (line,) = err.splitlines()
    if code == 1:
        assert line.startswith(f"config error: profiles.{signal}"), line
    elif code == 2:
        assert case in ("missing", "directory") and line.startswith("i/o error: "), line
        assert profiles[signal]["csv"] in line, line
    else:
        assert code == 3 and (signal, case) in PROFILE_EXIT_3_ALLOWED, line
        assert line.startswith("invariant violation: step ") and "battery solve for" in line, line
