"""Acceptance suite: one test per release criterion, each printing a verdict.

Every expected value is either an exact table transcription, an independent
straight-line formula, or an independently computed oracle. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from pvbatsim import cli, engine, mppt, pv
from pvbatsim import supervisor as sup
from pvbatsim.config import build_sim_config


def report(n, text):
    print(f"\n[criterion {n}] PASS: {text}")


# criterion 1 ---------------------------------------------------------------

def test_criterion_1_mode_table_exact(capsys):
    t0 = time.perf_counter()
    expected = (
        "Mode1 On On Off\n"
        "Mode2 Off On On\n"
        "Mode3 Off Off On\n"
        "Mode4 Off On Off\n"
        "Mode5 Off Off Off\n"
    )
    code = cli.main(["modes-check"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == expected
    assert time.perf_counter() - t0 < 1.0
    with capsys.disabled():
        report(1, "modes-check reproduces the five-row switch table byte for byte")


# criterion 2 ---------------------------------------------------------------

def test_criterion_2_rule_base_exact():
    t0 = time.perf_counter()
    # independent transcription: row = CE, column = E, labels NB..PB as -2..2
    table = (
        (-2, -2, -1, -1, 0),
        (-2, -1, -1, 0, 1),
        (-1, -1, 0, 1, 1),
        (-1, 0, 1, 1, 2),
        (0, 1, 1, 2, 2),
    )
    assert mppt.RULE_TABLE == table
    for i in range(5):
        for j in range(5):
            assert mppt.RULE_TABLE[i][j] == mppt.RULE_TABLE[j][i]
            assert mppt.RULE_TABLE[4 - i][4 - j] == -mppt.RULE_TABLE[i][j]
    assert time.perf_counter() - t0 < 1.0
    report(2, "25-rule base matches cell-for-cell; symmetric and sign-antisymmetric")


# criterion 3 ---------------------------------------------------------------

def test_criterion_3_mppt_tracking():
    t0 = time.perf_counter()
    config = build_sim_config()
    panel = config.panel
    _, p_mpp = pv.mpp_oracle(1000.0, 298.15, panel)
    stats = {}
    for kind in ("po", "flc"):
        samples = engine.run_tracking(kind, panel, 1000.0, 25.0, 500, 48.0,
                                      engine.init_state(config).mppt, config.fuzzy, config.eta)
        stats[kind] = engine.steady_stats(samples)
    for kind, (mean, _) in stats.items():
        assert mean >= 0.98 * p_mpp, f"{kind} steady mean {mean} below 98% of {p_mpp}"
    assert stats["flc"][1] < stats["po"][1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(
        3,
        f"po eff={stats['po'][0] / p_mpp:.4f} ripple={stats['po'][1]:.3f} W; "
        f"flc eff={stats['flc'][0] / p_mpp:.4f} ripple={stats['flc'][1]:.4f} W "
        f"(strictly smaller), {elapsed:.2f}s",
    )


# criterion 4 ---------------------------------------------------------------

def test_criterion_4_diode_fidelity():
    t0 = time.perf_counter()
    panel = build_sim_config().panel
    points = list(pv.iv_sweep(1000.0, 298.15, 1000, panel))
    vt = panel.thermal_voltage(298.15)
    worst = 0.0
    for v_pv, i_pv, _ in points:
        # per-panel residual recomputed from scratch
        v_panel = v_pv / panel.n_panels_series
        i_panel = i_pv / panel.n_panels_parallel
        arg = (v_panel + panel.r_s * i_panel) / vt
        res = (
            panel.i_ph_ref
            - panel.i_0_ref * (math.exp(arg) - 1.0)
            - (v_panel + panel.r_s * i_panel) / panel.r_sh
            - i_panel
        )
        worst = max(worst, abs(res))
    assert worst <= 1e-9
    currents = [i for _, i, _ in points]
    assert all(a > b for a, b in zip(currents, currents[1:]))
    powers = [p for _, _, p in points]
    diffs = [b - a for a, b in zip(powers, powers[1:])]
    changes = sum(1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0))
    assert changes == 1
    assert time.perf_counter() - t0 < 1.0
    report(4, f"1000-point sweep: worst residual {worst:.2e} A, I(V) strictly "
              "decreasing, P(V) unimodal")


# criterion 5 ---------------------------------------------------------------

def test_criterion_5_battery_formula_oracle():
    t0 = time.perf_counter()
    from pvbatsim import battery

    # straight-line re-implementations, written from the formulas directly
    def cap_line(i, dt, c10):
        return c10 * 1.76 * (1 + 0.005 * dt) / (1 + 0.67 * (i / (c10 / 10)))

    def dis_line(soc, i, dt, c10, n):
        return n * (1.965 + 0.12 * soc) - n * (i / c10) * (
            4 / (1 + i ** 1.3) + 0.27 / soc ** 1.5 + 0.02
        ) * (1 - 0.007 * dt)

    def chg_line(soc, i, dt, c10, n):
        return n * (2 + 0.16 * soc) + n * (i / c10) * (
            6 / (1 + i ** 0.86) + 0.48 / (1 - soc) ** 1.2 + 0.036
        ) * (1 - 0.025 * dt)

    rng = np.random.RandomState(2024)
    params = build_sim_config().battery
    # the coefficients the straight lines below are written with
    assert (params.c_10, params.n_serial, params.capacity_coeff,
            params.discharge_exp) == (100.0, 24, 1.76, 1.3)
    worst = 0.0
    for _ in range(1000):
        soc = rng.uniform(0.006, 0.994)
        i = rng.uniform(0.001, 30.0)
        dt = rng.uniform(-10.0, 25.0)
        # one string at this temperature offset: the bank current is the string's
        string = replace(params, n_parallel=1, delta_t=dt)
        discharging = battery.BatteryState(soc=soc, charging=False)
        charging = battery.BatteryState(soc=soc, charging=True)
        for got, want in (
            (battery.bank_capacity(i, string), cap_line(i, dt, 100.0)),
            (battery.terminal_voltage(discharging, i, string), dis_line(soc, i, dt, 100.0, 24)),
            (battery.terminal_voltage(charging, -i, string), chg_line(soc, i, dt, 100.0, 24)),
        ):
            rel = abs(got - want) / abs(want)
            worst = max(worst, rel)
            assert rel <= 1e-12
    assert time.perf_counter() - t0 < 1.0
    report(5, f"capacity/discharge/charge match the straight-line formulas, "
              f"worst relative error {worst:.2e} on 1000 random inputs")


# criterion 6 ---------------------------------------------------------------

def test_criterion_6_ledger_closure():
    t0 = time.perf_counter()
    config = build_sim_config()
    records, ledger = engine.run(config)
    elapsed = time.perf_counter() - t0
    assert len(records) == 86400
    assert ledger.relative_residual() <= 1e-6
    assert elapsed < 10.0
    report(6, f"24 h / 86400-step run closes the ledger at "
              f"{ledger.relative_residual():.2e} relative in {elapsed:.2f}s")


# criterion 7 ---------------------------------------------------------------

def test_criterion_7_supervisor_safety():
    t0 = time.perf_counter()
    config = build_sim_config().supervisor
    rng = np.random.RandomState(77)
    state = sup.SupervisorState()
    soc = 0.5
    upper_latched = lower_latched = False
    mode1_entries_while_latched = 0
    discharge_entries_while_latched = 0
    steps = 10000
    for _ in range(steps):
        soc = min(1.0, max(0.0, soc + rng.uniform(-0.03, 0.03)))
        p_pv = rng.choice([0.0, 0.5, 80.0, 250.0, 600.0])
        p_load = rng.choice([0.0, 60.0, 150.0, 300.0])
        mode = sup.select_mode(p_pv, p_load, soc, state, config)
        k1, _, k3 = sup.SWITCH_TABLE[mode]
        if soc <= config.soc_min:
            assert not k3, f"K3 closed at soc={soc}"
        if soc >= config.soc_max:
            assert not k1, f"K1 closed at soc={soc}"
        # hysteresis bookkeeping: once latched, re-entry before the release
        # threshold counts as chatter
        if soc >= config.soc_max:
            upper_latched = True
        elif soc <= config.soc_max_release:
            upper_latched = False
        if soc <= config.soc_min:
            lower_latched = True
        elif soc >= config.soc_min_release:
            lower_latched = False
        if upper_latched and mode == sup.MODE1:
            mode1_entries_while_latched += 1
        if lower_latched and mode in (sup.MODE2, sup.MODE3):
            discharge_entries_while_latched += 1
    assert mode1_entries_while_latched == 0
    assert discharge_entries_while_latched == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(7, f"{steps} randomized steps: protection switches never closed in "
              f"the forbidden bands, no chatter past a latch, {elapsed:.2f}s")


# criterion 8 ---------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "det.yaml"
    cfg.write_text("simulation:\n  t_end_s: 3600\n", encoding="utf-8")
    payloads = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "pvbatsim", "simulate",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ),
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes() + (tmp_path / (name + ".ledger")).read_bytes())
    assert payloads[0] == payloads[1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    report(8, f"two simulate invocations produced bit-identical CSV and ledger "
              f"files in {elapsed:.2f}s total")
