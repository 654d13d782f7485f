"""Engine step/run behavior: composition, balance, determinism, protection."""

import io
import os
import tempfile
from dataclasses import dataclass, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvbatsim import battery, converter, engine, mppt, pv, supervisor
from pvbatsim.config import build_sim_config
from pvbatsim.errors import ConvergenceError, InvariantViolation
from pvbatsim.profiles import TimeSeriesProfile, sample
from test_profiles import write_csv


def constant_profiles(g, t_c, p_load, t_end=86400.0):
    times = (0.0, t_end)
    return (
        TimeSeriesProfile(times, (g, g), "irradiance_wm2"),
        TimeSeriesProfile(times, (t_c, t_c), "temperature_c"),
        TimeSeriesProfile(times, (p_load, p_load), "load_w"),
    )


#: The built-in default run.
DEFAULTS = build_sim_config()


def make_config(g=0.0, t_c=25.0, p_load=200.0, **kwargs):
    irr, temp, load = constant_profiles(g, t_c, p_load)
    return replace(DEFAULTS, irradiance=irr, temperature=temp, load=load, **kwargs)


class TestStepComposition:
    def test_night_step_discharges(self):
        config = make_config(g=0.0, p_load=200.0, t_end=10.0, initial_soc=0.5)
        records, _ = engine.run(config)
        rec = records[-1]
        assert rec.mode == 3
        assert rec.p_pv == 0.0
        assert rec.p_bat == pytest.approx(200.0, rel=1e-9)
        assert rec.p_load_served == 200.0
        assert (rec.k1, rec.k2, rec.k3) == (0, 0, 1)

    def test_surplus_step_charges(self):
        config = make_config(g=1000.0, p_load=100.0, t_end=400.0, initial_soc=0.5)
        records, _ = engine.run(config)
        rec = records[-1]
        assert rec.mode == 1
        assert rec.p_bat < 0.0
        assert rec.p_load_served == rec.p_load_requested == 100.0
        assert (rec.k1, rec.k2, rec.k3) == (1, 1, 0)

    def test_single_step_run(self):
        config = make_config(t_end=1.0)
        records, _ = engine.run(config)
        assert len(records) == 1

    def test_record_count(self):
        config = make_config(t_end=3600.0)
        records, _ = engine.run(config)
        assert len(records) == 3600


class TestDeterminism:
    def test_bit_identical_runs(self):
        config = make_config(g=800.0, p_load=150.0, t_end=600.0)
        rec_a, led_a = engine.run(config)
        rec_b, led_b = engine.run(config)
        assert engine.records_to_csv(rec_a, "flc") == engine.records_to_csv(rec_b, "flc")
        assert led_a == led_b


class TestPowerBalance:
    def test_default_day_short_run(self):
        config = build_sim_config({"simulation": {"t_end_s": 7200.0}})
        records, ledger = engine.run(config)
        for k, rec in enumerate(records):
            scale = max(1.0, rec.p_load_requested, rec.p_pv)
            if rec.mode == 1:
                err = abs(rec.p_pv - (rec.p_load_served - rec.p_bat) - rec.p_curtailed)
            elif rec.mode in (2, 3):
                err = abs(rec.p_load_served - (rec.p_pv + rec.p_bat))
            elif rec.mode == 4:
                err = abs(rec.p_load_served - min(rec.p_pv, rec.p_load_requested))
            else:
                err = abs(rec.p_load_served) + abs(rec.p_bat)
            assert err <= 1e-6 * scale, f"step {k}"
        assert ledger.closes()

    def test_battery_setpoint_met(self):
        config = build_sim_config(
            {"simulation": {"t_end_s": 3600.0, "initial_soc": 0.6}}
        )
        records, _ = engine.run(config)
        for rec in records:
            if rec.mode == 1:
                setpoint = -(rec.p_pv - rec.p_load_served)
            elif rec.mode == 2:
                setpoint = rec.p_load_served - rec.p_pv
            elif rec.mode == 3:
                setpoint = rec.p_load_served
            else:
                setpoint = 0.0
            assert abs(rec.p_bat - setpoint) <= 1e-6 * max(1.0, abs(setpoint))

    def test_soc_step_bounded(self):
        # the per-step SOC move is the coulomb increment plus the capacity
        # re-reference that the SOC definition implies when current changes
        config = build_sim_config({"simulation": {"t_end_s": 3600.0}})
        records, _ = engine.run(config)
        params = config.battery
        prev_soc = prev_cap = None
        for rec in records:
            i_bat = rec.p_bat / rec.v_bat if rec.v_bat else 0.0
            cap = battery.bank_capacity(abs(i_bat), params)
            if prev_soc is not None:
                coulomb = abs(i_bat) * (config.dt / 3600.0) / cap
                q = (1.0 - rec.soc) * cap
                reference_shift = abs(q / cap - q / prev_cap)
                assert abs(rec.soc - prev_soc) <= coulomb + reference_shift + 1e-12
            prev_soc, prev_cap = rec.soc, cap

    def test_nan_row_stops_the_run(self, monkeypatch):
        # a NaN error fails the balance test instead of passing it
        route = supervisor.route_power
        calls = []

        def nan_from_step_2(mode, p_pv, p_load):
            calls.append(mode)
            p_bat, p_served, p_curt, p_pv_used = route(mode, p_pv, p_load)
            return p_bat, float("nan") if len(calls) > 2 else p_served, p_curt, p_pv_used

        monkeypatch.setattr(supervisor, "route_power", nan_from_step_2)
        config = make_config(g=0.0, p_load=200.0, t_end=10.0, initial_soc=0.5)
        rows = []
        with pytest.raises(InvariantViolation, match=r"^step 2 \(t=2\.0\): mode 3 power balance"):
            rows.extend(engine.steps(config, engine.EnergyLedger()))
        assert len(rows) == 2


@st.composite
def random_profile(draw, quantity, low, high):
    """A profile of 1-6 knots at strictly increasing times within about 5 minutes."""
    gaps = draw(st.lists(st.floats(0.5, 120.0), min_size=1, max_size=6))
    start = draw(st.floats(0.0, 60.0))
    times = tuple(start + sum(gaps[:k]) for k in range(len(gaps)))
    values = tuple(draw(st.floats(low, high)) for _ in times)
    return TimeSeriesProfile(times, values, quantity)


class TestLedgerClosureProperty:
    @settings(database=None, derandomize=True, deadline=None, max_examples=25)
    @given(irradiance=random_profile("irradiance_wm2", 0.0, 1200.0),
           temperature=random_profile("temperature_c", -20.0, 60.0),
           load=random_profile("load_w", 0.0, 800.0),
           t_end_s=st.integers(1, 300), mppt=st.sampled_from(["po", "flc"]),
           initial_soc=st.floats(0.1, 0.95))
    def test_random_csv_profiles_close(self, irradiance, temperature, load, t_end_s, mppt,
                                       initial_soc):
        with tempfile.TemporaryDirectory() as tmp:
            section = {}
            for name, prof in (("irradiance", irradiance), ("temperature", temperature),
                               ("load", load)):
                path = os.path.join(tmp, f"{name}.csv")
                write_csv(prof, path)
                section[name] = {"csv": path}
            config = build_sim_config({
                "simulation": {"t_end_s": t_end_s, "mppt": mppt, "initial_soc": initial_soc},
                "profiles": section,
            })
            records, ledger = engine.run(config)
        assert len(records) == config.n_steps == t_end_s
        assert ledger.closes()


class TestEfficiencyKnob:
    def test_loss_accounted(self):
        config = make_config(g=1000.0, p_load=100.0, t_end=1800.0, eta=0.9, initial_soc=0.5)
        _, ledger = engine.run(config)
        assert ledger.e_loss > 0.0
        assert ledger.closes()

    def test_lossless_default(self):
        config = make_config(g=1000.0, p_load=100.0, t_end=600.0, initial_soc=0.5)
        _, ledger = engine.run(config)
        assert ledger.e_loss == 0.0


#: A supervisor band wider than the voltage laws' SOC band, so that the step
#: loop's protective downgrade fires.
GUARD_BAND = {"soc_min": 0.001, "soc_min_release": 0.002, "soc_max_release": 0.997,
              "soc_max": 0.9992}


class TestProtectiveDowngrade:
    def test_charge_guard_downgrades_to_mode4(self):
        # supervisor band pushed past the voltage-law ceiling so the guard fires
        config = make_config(
            g=1000.0, p_load=50.0, t_end=5.0, initial_soc=0.994,
            supervisor=replace(DEFAULTS.supervisor, soc_max=0.9992, soc_max_release=0.997),
        )
        state = engine.init_state(config)
        state.bat = battery.BatteryState(soc=0.9951, q=0.5, charging=True)
        rec = engine.step(config, state, engine.EnergyLedger(), 0)
        assert rec.mode == 4
        assert rec.p_bat == 0.0
        assert rec.clamp_flags & engine.FLAG_PROTECTIVE

    def test_discharge_guard_downgrades_to_mode5(self):
        config = make_config(
            g=0.0, p_load=200.0, t_end=5.0, initial_soc=0.5,
            supervisor=replace(DEFAULTS.supervisor, soc_min=0.001, soc_min_release=0.002),
        )
        state = engine.init_state(config)
        state.bat = battery.BatteryState(soc=0.004, q=175.0)
        rec = engine.step(config, state, engine.EnergyLedger(), 0)
        assert rec.mode == 5
        assert rec.p_load_served == 0.0
        assert rec.clamp_flags & engine.FLAG_PROTECTIVE

    @pytest.mark.parametrize("g,soc,mode", [(1000.0, battery.SOC_CEILING, 4),
                                            (0.0, battery.SOC_FLOOR, 5)],
                             ids=["charge", "discharge"])
    def test_band_edges_downgrade(self, g, soc, mode):
        # the band is open: its edges are already protective
        config = make_config(
            g=g, p_load=200.0 if g == 0.0 else 50.0, t_end=5.0, initial_soc=0.5,
            supervisor=supervisor.SupervisorConfig(p_epsilon=1.0, **GUARD_BAND),
        )
        state = engine.init_state(config)
        state.bat = battery.BatteryState(soc=soc, q=(1.0 - soc) * 176.0, charging=g > 0.0)
        rec = engine.step(config, state, engine.EnergyLedger(), 0)
        assert (rec.mode, rec.p_bat) == (mode, 0.0)
        assert rec.clamp_flags & engine.FLAG_PROTECTIVE

    @pytest.mark.parametrize("g,soc,mode", [(1000.0, 0.9951, 4), (0.0, 0.004, 5)],
                             ids=["charge", "discharge"])
    def test_simulate_loop_downgrades(self, g, soc, mode):
        # the same guards, reached through the rows simulate writes
        config = make_config(
            g=g, p_load=200.0 if g == 0.0 else 50.0, t_end=5.0, initial_soc=soc,
            supervisor=supervisor.SupervisorConfig(p_epsilon=1.0, **GUARD_BAND),
        )
        out = io.StringIO()
        engine.write_records_csv(engine.steps(config, engine.EnergyLedger()), "flc", out)
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        assert len(rows) == 5
        for row in rows:
            assert int(row[12]) == mode
            assert float(row[6]) == 0.0  # p_bat
            assert int(row[17]) & engine.FLAG_PROTECTIVE


class TestMpptScheduling:
    def test_period_clamped_to_step(self):
        config = make_config(t_end=10.0)
        assert config.mppt_every == 1  # 0.1 s period, 1 s step

    def test_slower_period(self):
        config = make_config(t_end=10.0, t_mppt=5.0)
        assert config.mppt_every == 5



class TestCsvRendering:
    def test_header_and_shape(self):
        config = make_config(t_end=3.0)
        records, _ = engine.run(config)
        text = engine.records_to_csv(records, "flc")
        lines = text.splitlines()
        assert lines[0] == engine.CSV_HEADER
        assert len(lines) == 4
        assert text.endswith("\n")
        assert lines[1].endswith(",flc")

    def test_streamed_file_matches_text(self, tmp_path):
        config = make_config(g=800.0, t_end=30.0)
        records, ledger = engine.run(config)
        out = io.StringIO()
        engine.write_records_csv(engine.steps(config, engine.EnergyLedger()), "po", out)
        assert out.getvalue() == engine.records_to_csv(records, "po")

    def test_ledger_text(self):
        config = make_config(t_end=3.0)
        _, ledger = engine.run(config)
        text = engine.ledger_to_text(ledger)
        assert text.startswith("quantity,value\n")
        assert "closure_relative," in text
        assert text.endswith("\n")


def start_state(d0=DEFAULTS.d0, delta_d=DEFAULTS.delta_d):
    """The default run's controller start state with duty ``d0`` and step ``delta_d``."""
    return replace(engine.init_state(DEFAULTS).mppt, d=d0, delta_d=delta_d)


def track(kind, panel, g, t_c, n, v_bus, state=None):
    """``run_tracking`` with the default run's controller, from ``state`` or its start."""
    if state is None:
        state = start_state()
    return engine.run_tracking(kind, panel, g, t_c, n, v_bus, state, DEFAULTS.fuzzy,
                               DEFAULTS.eta)


class TestTrackingBench:
    PANEL = replace(DEFAULTS.panel, n_panels_series=1, n_panels_parallel=1)

    def test_zero_irradiance(self):
        samples = track("po", self.PANEL, 0.0, 25.0, 50, 48.0)
        assert all(p == 0.0 for _, _, p in samples)

    @pytest.mark.parametrize("kind", ["po", "flc"])
    def test_duty_path_does_not_depend_on_eta(self, kind):
        # the controllers see the array's power, as in simulate; only the
        # recorded power is the bus side's eta times it
        runs = {eta: engine.run_tracking(kind, TRACK_PANEL, 1000.0, 25.0, 300, 48.0,
                                         start_state(), DEFAULTS.fuzzy, eta)
                for eta in (1.0, 0.5)}
        assert [(d, v) for d, v, _ in runs[0.5]] == [(d, v) for d, v, _ in runs[1.0]]
        assert [p for _, _, p in runs[0.5]] == [0.5 * p for _, _, p in runs[1.0]]


def uncached_tracking(kind, panel, g_seq, t_seq, v_bus, d0=DEFAULTS.d0,
                      delta_d=DEFAULTS.delta_d, eta=DEFAULTS.eta):
    """Reference bench: one PV solve at every step, as ``run_tracking`` did before its memo.

    The controller steps on the array's power, as in ``engine.steps``; the
    samples record ``eta`` of it.
    """
    fuzzy = DEFAULTS.fuzzy
    state = start_state(d0, delta_d)
    out = []
    for g, t_c in zip(g_seq, t_seq):
        v = (1.0 - state.d) * v_bus
        _, p_pv, _ = pv.operating_point(v, g, t_c + 273.15, panel)
        out.append((state.d, v, eta * p_pv))
        if kind == "po":
            mppt.po_step(p_pv, v, state)
        else:
            mppt.flc_step(p_pv, v, state, fuzzy)
    return out


#: The array of acceptance criterion 3's 500-step bench.
TRACK_PANEL = DEFAULTS.panel

CONDITION = st.tuples(
    st.sampled_from([0.0, -0.0, 150.0, 600.0, 1000.0]) | st.floats(0.0, 1200.0),
    st.sampled_from([-0.0, 0.0, 25.0]) | st.floats(-20.0, 60.0),
)


class TestTrackingMemo:
    """``run_tracking`` solves each port voltage once per call; chained calls match uncached."""

    @settings(database=None, derandomize=True, deadline=None, max_examples=150)
    @given(
        kind=st.sampled_from(["po", "flc"]),
        plateaus=st.lists(st.tuples(CONDITION, st.integers(1, 40)), min_size=1, max_size=8),
        eta=st.floats(0.1, 1.0),
        d0=st.floats(0.0, 0.95),
        v_bus=st.floats(20.0, 60.0),
    )
    # single-step plateaus, a dark plateau, and g = -0.0 next to 0.0
    @example(kind="po", plateaus=[((1000.0, 25.0), 1), ((600.0, 25.0), 1), ((0.0, 25.0), 3),
                                  ((-0.0, 25.0), 2), ((0.0, -0.0), 1), ((800.0, 30.0), 40)],
             eta=0.9, d0=0.4, v_bus=48.0)
    # a return to earlier conditions after a different plateau
    @example(kind="flc", plateaus=[((1000.0, 25.0), 40), ((600.0, 40.0), 40),
                                   ((1000.0, 25.0), 40)],
             eta=0.95, d0=0.4, v_bus=48.0)
    def test_matches_uncached_loop(self, kind, plateaus, eta, d0, v_bus):
        state = start_state(d0)
        got = []
        for (g, t_c), n in plateaus:
            got += engine.run_tracking(kind, TRACK_PANEL, g, t_c, n, v_bus, state,
                                       DEFAULTS.fuzzy, eta)
        g = [c[0] for c, n in plateaus for _ in range(n)]
        t_c = [c[1] for c, n in plateaus for _ in range(n)]
        assert got == uncached_tracking(kind, TRACK_PANEL, g, t_c, v_bus, d0=d0, eta=eta)

    @pytest.fixture
    def solved(self, monkeypatch):
        """Port voltages handed to ``pv.operating_point``, in call order."""
        voltages = []
        solve = pv.operating_point

        def counting(v, g, t_j, params):
            voltages.append(v)
            return solve(v, g, t_j, params)

        monkeypatch.setattr(pv, "operating_point", counting)
        return voltages

    @pytest.mark.parametrize("kind", ["po", "flc"])
    def test_one_solve_per_distinct_voltage(self, kind, solved):
        samples = track(kind, TRACK_PANEL, 1000.0, 25.0, 500, 48.0)
        visited = {v for _, v, _ in samples}
        assert sorted(solved) == sorted(visited)

    def test_duties_on_one_voltage_share_a_solve(self, solved):
        # P&O steps far below the resolution of the port voltage: four duty
        # values land on three voltages. Each call solves the voltages it
        # visits once; the carried state continues the walk across calls.
        state = start_state(delta_d=6e-17)
        samples = []
        for n in (12, 8):
            plateau = track("po", TRACK_PANEL, 1000.0, 25.0, n, 48.0, state)
            assert sorted(solved) == sorted({v for _, v, _ in plateau})
            solved.clear()
            samples += plateau
        visited = {v for _, v, _ in samples}
        assert len({d for d, _, _ in samples}) > len(visited)
        assert samples == uncached_tracking("po", TRACK_PANEL, [1000.0] * 20, [25.0] * 20, 48.0,
                                            delta_d=6e-17)


@dataclass
class LaggedSchedule:
    """The reference's controller schedule: a step counter, and the last step's
    measurement, which the controller acts on at the start of the next step."""

    p_meas: float = 0.0
    v_meas: float = 0.0
    have_meas: bool = False
    steps_since_mppt: int = 0


def layered_step(config, state, schedule, t, ledger, step_index):
    """Reference step: the layered ``engine.step`` from before the flat loop.

    Every layer is a call, the step state lives in ``state``, ``schedule``
    and ``ledger``, each profile is read with ``profiles.sample`` and the
    record is checked by :func:`check_balance`. The controller acts at the
    start of a step, on the measurement ``schedule`` carries, where
    ``engine`` acts at the end of the step before.
    """
    g = sample(config.irradiance, t)
    t_amb = sample(config.temperature, t)
    p_load = sample(config.load, t)
    t_j = t_amb + 273.15
    mppt_state = state.mppt
    bat_state = state.bat
    sup_state = state.sup
    params = config.battery
    dt_h = config.dt / 3600.0

    schedule.steps_since_mppt += 1
    if schedule.have_meas and schedule.steps_since_mppt >= config.mppt_every:
        if config.mppt_kind == "po":
            mppt.po_step(schedule.p_meas, schedule.v_meas, mppt_state)
        else:
            mppt.flc_step(schedule.p_meas, schedule.v_meas, mppt_state, config.fuzzy)
        schedule.steps_since_mppt = 0

    d = mppt_state.d
    flags = engine.FLAG_DUTY_LIMIT if d == 0.0 or d == mppt_state.d_max else 0
    v_cand = converter.pv_port_voltage(state.v_bus, d)
    try:
        i_pv, p_port, pv_clamped = pv.operating_point(v_cand, g, t_j, config.panel)
    except ConvergenceError as exc:
        raise InvariantViolation(f"step {step_index} (t={t}): PV solve failed: {exc}") from exc
    if pv_clamped:
        flags |= engine.FLAG_PV_CLAMP
    p_avail = config.eta * p_port
    schedule.p_meas = p_port
    schedule.v_meas = v_cand
    schedule.have_meas = True

    mode = supervisor.select_mode(p_avail, p_load, bat_state.soc, sup_state, config.supervisor)
    p_bat_set, p_served, p_curt, p_pv_used = supervisor.route_power(mode, p_avail, p_load)
    # the voltage laws carry no discharge at or below SOC_FLOOR and no charge at
    # or above SOC_CEILING: such a power is not solved, and the mode drops to
    # the one that leaves the battery idle in that direction
    if p_bat_set > 0.0:
        protective = bat_state.soc <= battery.SOC_FLOOR
    else:
        protective = p_bat_set < 0.0 and bat_state.soc >= battery.SOC_CEILING
    if protective:
        mode = supervisor.MODE5 if p_bat_set > 0 else supervisor.MODE4
        p_bat_set, p_served, p_curt, p_pv_used = supervisor.route_power(mode, p_avail, p_load)
        flags |= engine.FLAG_PROTECTIVE
    try:
        i_bat = (
            battery.current_for_power(p_bat_set, bat_state, params) if p_bat_set != 0.0 else 0.0
        )
    except ConvergenceError as exc:
        raise InvariantViolation(
            f"step {step_index} (t={t}): battery solve failed: {exc}") from exc

    v_bat = battery.terminal_voltage(bat_state, i_bat, params)
    p_bat = i_bat * v_bat
    if battery.soc_update(bat_state, i_bat, dt_h, params):
        flags |= engine.FLAG_SOC_CLAMP

    k1, k2, k3 = supervisor.SWITCH_TABLE[mode]
    connected = k1 or k2
    state.v_bus = v_bat if (k1 or k3) else config.v_bus_nominal

    record = engine.SimRecord(
        t, g, t_amb, p_pv_used, p_load, p_served, p_bat, bat_state.soc, v_bat,
        v_cand if connected else 0.0, i_pv if connected else 0.0, d,
        mode, k1, k2, k3, p_curt, flags,
    )

    ledger.e_pv += (p_port if connected else 0.0) * dt_h
    ledger.e_load_served += p_served * dt_h
    ledger.e_load_unserved += (p_load - p_served) * dt_h
    if p_bat > 0.0:
        ledger.e_bat_out += p_bat * dt_h
    else:
        ledger.e_bat_in += -p_bat * dt_h
    ledger.e_curtailed += p_curt * dt_h
    ledger.e_loss += ((p_port - p_avail) if connected else 0.0) * dt_h

    check_balance(record, step_index)
    return record


def check_balance(rec, step_index):
    scale = max(1.0, rec.p_load_requested, rec.p_pv)
    mode = rec.mode
    if mode == 1:
        err = abs(rec.p_pv - (rec.p_load_served - rec.p_bat) - rec.p_curtailed)
    elif mode in (2, 3):
        err = abs(rec.p_load_served - (rec.p_pv + rec.p_bat))
    elif mode == 4:
        err = abs(rec.p_load_served - min(rec.p_pv, rec.p_load_requested)) + abs(rec.p_bat)
    else:
        err = abs(rec.p_load_served) + abs(rec.p_bat) + abs(rec.p_pv)
    if not err <= engine.BALANCE_TOL * scale:
        raise InvariantViolation(
            f"step {step_index} (t={rec.t}): mode {mode} power balance off by {err:.3e} W"
        )


def run_until_error(rows):
    """Drain ``rows`` into a list; also return the message of the violation that ended it."""
    out = []
    try:
        for row in rows:
            out.append(row)
    except InvariantViolation as exc:
        return out, str(exc)
    return out, None


def assert_matches_layered(config):
    """Run ``engine.steps``, ``engine.step`` and the layered reference: rows, ledger and
    failure must agree."""
    ledger = engine.EnergyLedger()
    rows, error = run_until_error(engine.steps(config, ledger))
    ref_ledger = engine.EnergyLedger()
    state = engine.init_state(config)
    schedule = LaggedSchedule()
    ref, ref_error = run_until_error(
        (layered_step(config, state, schedule, k * config.dt, ref_ledger, k)
         for k in range(config.n_steps)))
    assert rows == ref
    assert error == ref_error
    assert vars(ledger) == vars(ref_ledger)
    # the same bits too: == does not tell -0.0 from 0.0
    assert engine.records_to_csv(rows, "x") == engine.records_to_csv(ref, "x")
    assert engine.ledger_to_text(ledger) == engine.ledger_to_text(ref_ledger)
    # engine.step, one call per step, carries the state between calls
    step_ledger = engine.EnergyLedger()
    state = engine.init_state(config)
    assert run_until_error(
        engine.step(config, state, step_ledger, k)
        for k in range(config.n_steps)) == (rows, error)
    assert vars(step_ledger) == vars(ledger)
    return [engine.SimRecord(*row) for row in rows], error


#: Start SOCs next to the supervisor bands, so that the latches fire, and at
#: random. The two guard starts are outside the config's SOC range.
SOC_NEAR_BANDS = st.sampled_from([0.2005, 0.2495, 0.8505, 0.8995]) | st.floats(0.1, 0.95)
SOC_AT_GUARDS = st.sampled_from([0.004, 0.9951])


@st.composite
def flat_loop_config(draw, tmp):
    """A short run: random profiles (synthetic or CSV), controller, step and supervisor."""
    dt = draw(st.sampled_from([0.5, 1.0, 2.5, 7.0, 60.0]))
    if draw(st.booleans()):
        split = draw(st.floats(0.5, 23.5))
        profiles = {"synthetic": {
            "g_peak_wm2": draw(st.floats(0.0, 1200.0)),
            "sunrise_h": draw(st.floats(0.0, 1.0)),
            "sunset_h": draw(st.floats(1.5, 24.0)),
            "load_blocks": [[0.0, split, draw(st.floats(0.0, 600.0))],
                            [split, 24.0, draw(st.floats(0.0, 600.0))]],
        }}
    else:
        profiles = {}
        for name, prof in (("irradiance", random_profile("irradiance_wm2", 0.0, 1200.0)),
                           ("temperature", random_profile("temperature_c", -20.0, 60.0)),
                           ("load", random_profile("load_w", 0.0, 800.0))):
            path = os.path.join(tmp, f"{name}.csv")
            write_csv(draw(prof), path)
            profiles[name] = {"csv": path}
    guarded = draw(st.booleans())
    config = build_sim_config({
        "simulation": {
            "dt_s": dt, "t_end_s": dt * draw(st.integers(1, 300)),
            "mppt": draw(st.sampled_from(["po", "flc"])),
            "initial_soc": draw(SOC_NEAR_BANDS),
        },
        "mppt": {"t_mppt_s": draw(st.sampled_from([0.1, 1.0, 5.0, 13.0]))},
        "converter": {"eta": draw(st.just(1.0) | st.floats(0.5, 1.0))},
        "supervisor": GUARD_BAND if guarded else {},
        "profiles": profiles,
    })
    if guarded:
        config = replace(config, initial_soc=draw(SOC_AT_GUARDS))
    return config


def band_case(case, mppt_kind):
    """A run in 2.5 s steps that reaches a supervisor band or a voltage-law guard."""
    common = {"dt": 2.5, "t_mppt": 5.0, "eta": 0.9, "mppt_kind": mppt_kind}
    if case.endswith("guard"):
        # constant conditions from a start past the guard, which the config refuses
        charge = case == "charge-guard"
        return make_config(g=1000.0 if charge else 0.0, p_load=50.0 if charge else 200.0,
                           t_end=600.0, initial_soc=0.9951 if charge else 0.004,
                           supervisor=supervisor.SupervisorConfig(p_epsilon=1.0, **GUARD_BAND),
                           **common)
    charge = case == "soc-max-latch"
    return build_sim_config({
        "simulation": {"t_end_s": 7200.0, "dt_s": 2.5, "mppt": mppt_kind,
                       "initial_soc": 0.8995 if charge else 0.2005},
        "mppt": {"t_mppt_s": 5.0},
        "converter": {"eta": 0.9},
        "profiles": {"synthetic": {"g_peak_wm2": 1000.0 if charge else 0.0, "sunrise_h": 0.0}},
    })


class TestFlatLoopMatchesLayered:
    """``engine.steps`` gives the layered reference's rows and ledger, field for field."""

    @settings(database=None, derandomize=True, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_random_runs(self, data, tmp_path_factory):
        tmp = str(tmp_path_factory.mktemp("profiles"))
        assert_matches_layered(data.draw(flat_loop_config(tmp)))

    @pytest.mark.parametrize("mppt_kind", ["po", "flc"])
    @pytest.mark.parametrize("case", ["soc-max-latch", "soc-min-latch", "charge-guard",
                                      "discharge-guard"])
    def test_bands_and_guards(self, case, mppt_kind):
        records, error = assert_matches_layered(band_case(case, mppt_kind))
        assert error is None
        modes = [r.mode for r in records]
        if case == "soc-max-latch":
            assert 1 in modes and 4 in modes[modes.index(1):]  # charging stops at soc_max
        elif case == "soc-min-latch":
            assert 3 in modes and 5 in modes[modes.index(3):]  # discharging stops at soc_min
        else:
            assert any(r.clamp_flags & engine.FLAG_PROTECTIVE for r in records)
