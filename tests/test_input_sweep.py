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
