"""Seeded input generators for the benchmark workloads.

Each workload writes the files the program reads into a work directory and
says how to invoke the CLI on them. The program sees only these files: this
module does not import pvbatsim.

A seed selects one of ``VARIANTS`` input variants (``seed % VARIANTS``), so
every seed maps to inputs whose output hashes are recorded in
``golden.json``. The same seed always writes the same bytes.
"""

import math
import random
from dataclasses import dataclass

#: Number of distinct input variants per seeded workload.
VARIANTS = 32


@dataclass(frozen=True)
class Workload:
    """How to run one generated workload.

    ``argv`` follows ``pvbatsim`` on the command line and is run with the
    work directory as the current directory. ``config`` is the YAML file
    name, or None for the built-in default config. ``steps`` is the work
    counted by ``steps_per_s``: engine steps, or tracking steps of both
    controllers.
    """

    name: str
    variant: int
    argv: tuple
    config: str
    steps: int
    outputs: tuple


def variant_of(seed):
    return seed % VARIANTS


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _profile_csv(quantity, rows, fmt):
    return f"time_s,{quantity}\n" + "".join(fmt.format(t, v) for t, v in rows)


def _day_clear(workdir, variant):
    # The built-in default config: no input files, identical for every seed.
    return Workload(
        name="day_clear", variant=0,
        argv=("simulate", "--out", "run.csv"), config=None, steps=86400,
        outputs=("run.csv", "run.csv.ledger"),
    )


def _clear_sky(t, sunrise=6 * 3600.0, sunset=18 * 3600.0):
    x = (t - sunrise) / (sunset - sunrise)
    return math.sin(math.pi * x) if 0.0 < x < 1.0 else 0.0


def _day_storm(workdir, variant):
    rng = random.Random(1000 + variant)
    g_peak = rng.uniform(900.0, 1050.0)
    # Two-state Markov cloud cover, stepped every second: clear spells of
    # ~3 min mean, cloud transients of ~1 min mean with a fresh depth each.
    p_cloud, p_clear = 1.0 / 180.0, 1.0 / 60.0
    cloudy, depth = False, 1.0
    irr = []
    for t in range(86401):
        if cloudy and rng.random() < p_clear:
            cloudy = False
        elif not cloudy and rng.random() < p_cloud:
            cloudy, depth = True, rng.uniform(0.1, 0.6)
        irr.append((t, g_peak * _clear_sky(t) * (depth if cloudy else 1.0)))

    t_min, t_max = rng.uniform(8.0, 18.0), rng.uniform(26.0, 38.0)
    walk = 0.0
    temp = []
    for t in range(0, 86401, 60):
        walk = min(2.0, max(-2.0, walk + rng.gauss(0.0, 0.15)))
        temp.append((t, t_min + (t_max - t_min) * _clear_sky(t - 3600.0) + walk))

    # Five-minute load blocks around a household shape: night base,
    # morning and evening peaks, a moderate day load.
    def base(h):
        if 6 <= h < 9:
            return 220.0
        if 9 <= h < 17:
            return 140.0
        if 17 <= h < 23:
            return 320.0
        return 80.0

    load = [(t, base(t // 3600) * rng.uniform(0.5, 1.5)) for t in range(0, 86400, 300)]
    load.append((86400, load[-1][1]))

    _write(workdir / "irradiance.csv", _profile_csv("irradiance_wm2", irr, "{},{:.3f}\n"))
    _write(workdir / "temperature.csv", _profile_csv("temperature_c", temp, "{},{:.3f}\n"))
    _write(workdir / "load.csv", _profile_csv("load_w", load, "{},{:.1f}\n"))
    _write(workdir / "storm.yaml", (
        "simulation:\n"
        "  mppt: po\n"
        "  initial_soc: 0.3\n"
        "profiles:\n"
        "  irradiance: {csv: irradiance.csv}\n"
        "  temperature: {csv: temperature.csv}\n"
        "  load: {csv: load.csv}\n"
    ))
    return Workload(
        name="day_storm", variant=variant,
        argv=("simulate", "--config", "storm.yaml", "--out", "run.csv"),
        config="storm.yaml", steps=86400,
        outputs=("run.csv", "run.csv.ledger"),
    )


#: track_steps shape: plateaus of constant conditions, each held by a pair
#: of equal knots so that every controller step of a plateau samples the
#: same (g, t) and mppt-compare sees exactly one segment per plateau. A
#: linear ramp would make every step its own segment and call the oracle
#: 36,000 times.
PLATEAUS = 60
PLATEAU_S = 60.0


def _track_steps(workdir, variant):
    rng = random.Random(2000 + variant)
    irr, temp = [], []
    for k in range(PLATEAUS):
        g, t_c = rng.uniform(150.0, 1000.0), rng.uniform(10.0, 40.0)
        # the knots sit off the 0.1 s controller grid, so no step samples
        # the 0.03 s ramp between two plateaus
        start = max(0.0, k * PLATEAU_S - 0.02)
        end = k * PLATEAU_S + PLATEAU_S - 0.05
        irr += [(start, g), (end, g)]
        temp += [(start, t_c), (end, t_c)]
    t_end = PLATEAUS * PLATEAU_S
    _write(workdir / "irradiance.csv", _profile_csv("irradiance_wm2", irr, "{!r},{:.3f}\n"))
    _write(workdir / "temperature.csv", _profile_csv("temperature_c", temp, "{!r},{:.3f}\n"))
    _write(workdir / "load.csv", f"time_s,load_w\n0,100\n{t_end:g},100\n")
    _write(workdir / "track.yaml", (
        "simulation:\n"
        f"  t_end_s: {t_end:g}\n"
        "profiles:\n"
        "  irradiance: {csv: irradiance.csv}\n"
        "  temperature: {csv: temperature.csv}\n"
        "  load: {csv: load.csv}\n"
    ))
    steps_per_controller = int(t_end / 0.1)
    return Workload(
        name="track_steps", variant=variant,
        argv=("mppt-compare", "--config", "track.yaml", "--out", "cmp.csv"),
        config="track.yaml", steps=2 * steps_per_controller,
        outputs=("cmp.csv",),
    )


GENERATORS = {
    "day_clear": _day_clear,
    "day_storm": _day_storm,
    "track_steps": _track_steps,
}


def generate(name, seed, workdir):
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    return GENERATORS[name](workdir, variant_of(seed))
