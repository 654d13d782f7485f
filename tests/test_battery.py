"""Battery model tests against straight-line formula oracles.

The oracle functions below are written directly from the model formulas,
independent of the module implementation, and are also used by the
acceptance suite.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from pvbatsim import _kernels, battery
from pvbatsim.config import build_sim_config
from pvbatsim.errors import InvariantViolation


# ---------------------------------------------------------------- oracles

def capacity_line(i, dt, c10, coeff=1.76):
    return c10 * coeff * (1 + 0.005 * dt) / (1 + 0.67 * (i / (c10 / 10)))


def discharge_line(soc, i, dt, c10, n, exp=1.3):
    return n * (1.965 + 0.12 * soc) - n * (abs(i) / c10) * (
        4 / (1 + abs(i) ** exp) + 0.27 / soc ** 1.5 + 0.02
    ) * (1 - 0.007 * dt)


def charge_line(soc, i, dt, c10, n):
    return n * (2 + 0.16 * soc) + n * (abs(i) / c10) * (
        6 / (1 + abs(i) ** 0.86) + 0.48 / (1 - soc) ** 1.2 + 0.036
    ) * (1 - 0.025 * dt)


def discharge_expr(soc, i_bat, delta_t, params):
    """The discharge law as one written-out expression, apart from the kernels' coefficient form."""
    n_serial = params.n_serial
    if i_bat == 0.0:
        return n_serial * (1.965 + 0.12 * soc)
    sag = (i_bat / params.c_10) * (
        4.0 / (1.0 + i_bat**params.discharge_exp) + 0.27 / soc**1.5 + 0.02
    ) * (1.0 - 0.007 * delta_t)
    return n_serial * (1.965 + 0.12 * soc) - n_serial * sag


def charge_expr(soc, i_bat, delta_t, params):
    """The charge law as one written-out expression, apart from the kernels' coefficient form."""
    n_serial = params.n_serial
    if i_bat == 0.0:
        return n_serial * (2.0 + 0.16 * soc)
    rise = (i_bat / params.c_10) * (
        6.0 / (1.0 + i_bat**0.86) + 0.48 / (1.0 - soc) ** 1.2 + 0.036
    ) * (1.0 - 0.025 * delta_t)
    return n_serial * (2.0 + 0.16 * soc) + n_serial * rise


def outcome(law, *args):
    """The bits of ``law(*args)``, or the exception type it raises."""
    try:
        return law(*args).hex()
    except ArithmeticError as exc:
        return type(exc)


#: The default bank: c_10 100 Ah, 24 cells in series, one string.
BANK = build_sim_config().battery


def string_capacity(i, delta_t, params):
    """One string's capacity at current ``i`` [Ah]: ``bank_capacity`` of a one-string bank."""
    return battery.bank_capacity(i, replace(params, n_parallel=1, delta_t=delta_t))


def v_discharge(soc, i_bat, delta_t, params):
    """One string discharging at ``i_bat`` amps [V]: ``terminal_voltage`` of a one-string bank."""
    string = replace(params, n_parallel=1, delta_t=delta_t)
    return battery.terminal_voltage(battery.BatteryState(soc=soc), i_bat, string)


def v_charge(soc, i_bat, delta_t, params):
    """One string charging at ``i_bat`` amps (magnitude) [V]; at zero, the charge branch."""
    string = replace(params, n_parallel=1, delta_t=delta_t)
    return battery.terminal_voltage(battery.BatteryState(soc=soc, charging=True), -i_bat, string)


@pytest.fixture
def params():
    return BANK


@pytest.fixture
def cell():
    return replace(BANK, n_serial=1)


class TestCapacity:
    def test_at_ten_hour_rate(self, params):
        # direct evaluation: both correction factors explicit
        expected = 100.0 * 1.76 / 1.67
        assert string_capacity(params.c_10 / 10, 0.0, params) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(105.38922155688623, rel=1e-12)

    def test_at_rest(self, params):
        assert string_capacity(0.0, 0.0, params) == pytest.approx(176.0, rel=1e-12)

    def test_decreasing_in_current(self, params):
        assert string_capacity(2 * params.c_10 / 10, 0.0, params) < string_capacity(
            params.c_10 / 10, 0.0, params
        )

    def test_increasing_in_temperature(self, params):
        assert string_capacity(5.0, 10.0, params) > string_capacity(5.0, 0.0, params)

    def test_matches_oracle_over_domain(self, params):
        rng = np.random.RandomState(42)
        for _ in range(200):
            i = rng.uniform(0.0, 3 * params.c_10 / 10)
            dt = rng.uniform(-10.0, 25.0)
            assert string_capacity(i, dt, params) == pytest.approx(
                capacity_line(i, dt, params.c_10), rel=1e-12
            )

    @settings(database=None, derandomize=True, deadline=None, max_examples=300)
    @given(i_bank=st.sampled_from([0.0, -0.0]) | st.floats(-500.0, 500.0),
           delta_t=st.floats(-200.0, 40.0, exclude_min=True, exclude_max=True),
           c10=st.floats(1.0, 1000.0), n_parallel=st.integers(1, 4))
    def test_bank_is_strings_times_string_line(self, i_bank, delta_t, c10, n_parallel):
        # each string holds the written-out capacity at its share of the bank current
        params = replace(BANK, c_10=c10, n_parallel=n_parallel, delta_t=delta_t)
        line = capacity_line(abs(i_bank) / n_parallel, delta_t, c10, params.capacity_coeff)
        assert battery.bank_capacity(i_bank, params).hex() == (n_parallel * line).hex()


class TestDischargeVoltage:
    def test_open_circuit_full_cell(self, cell):
        # current term vanishes, leaving the affine SOC law
        assert v_discharge(1.0, 0.0, 0.0, cell) == pytest.approx(
            2.085, rel=1e-12
        )

    def test_linear_in_series_count(self, cell):
        v1 = v_discharge(0.7, 5.0, 0.0, cell)
        params12 = replace(BANK, n_serial=12)
        assert v_discharge(0.7, 5.0, 0.0, params12) == pytest.approx(
            12.0 * v1, rel=1e-12
        )

    def test_increasing_in_soc(self, params):
        v_low = v_discharge(0.9, 5.0, 0.0, params)
        v_high = v_discharge(1.0, 5.0, 0.0, params)
        assert v_low < v_high

    def test_decreasing_in_current(self, params):
        assert v_discharge(0.8, 10.0, 0.0, params) < v_discharge(
            0.8, 1.0, 0.0, params
        )

    def test_matches_oracle(self, params):
        rng = np.random.RandomState(7)
        for _ in range(200):
            soc = rng.uniform(0.01, 1.0)
            i = rng.uniform(0.0, 30.0)
            dt = rng.uniform(-10.0, 25.0)
            assert v_discharge(soc, i, dt, params) == pytest.approx(
                discharge_line(soc, i, dt, params.c_10, params.n_serial), rel=1e-12
            )

    def test_configurable_exponent(self):
        params18 = replace(BANK, n_serial=1, discharge_exp=1.8)
        assert v_discharge(0.8, 5.0, 0.0, params18) == pytest.approx(
            discharge_line(0.8, 5.0, 0.0, 100.0, 1, exp=1.8), rel=1e-12
        )


class TestChargeVoltage:
    def test_open_circuit_half_cell(self, cell):
        assert v_charge(0.5, 0.0, 0.0, cell) == pytest.approx(
            2.08, rel=1e-12
        )

    def test_linear_in_series_count(self):
        p12 = replace(BANK, n_serial=12)
        p24 = BANK
        v12 = v_charge(0.5, 5.0, 0.0, p12)
        v24 = v_charge(0.5, 5.0, 0.0, p24)
        assert v24 == pytest.approx(2.0 * v12, rel=1e-12)

    def test_increasing_in_current(self, params):
        assert v_charge(0.5, 5.0, 0.0, params) > v_charge(
            0.5, 0.0, 0.0, params
        )

    def test_matches_oracle(self, params):
        rng = np.random.RandomState(11)
        for _ in range(200):
            soc = rng.uniform(0.0, 0.99)
            i = rng.uniform(0.0, 30.0)
            dt = rng.uniform(-10.0, 25.0)
            assert v_charge(soc, i, dt, params) == pytest.approx(
                charge_line(soc, i, dt, params.c_10, params.n_serial), rel=1e-12
            )


class TestSingleLaw:
    """The voltage laws behind the kernels' one statement keep the bits of the written-out ones."""

    @settings(database=None, derandomize=True, deadline=None, max_examples=400)
    @given(soc=st.floats(0.0, 1.0, exclude_min=True),
           i_bat=st.just(0.0) | st.floats(0.0, 500.0),
           delta_t=st.floats(-200.0, 40.0, exclude_min=True, exclude_max=True),
           c10=st.floats(1.0, 1000.0), n_serial=st.sampled_from([1, 6, 24, 48]),
           discharge_exp=st.sampled_from([1.3, 1.8]))
    def test_bit_identical_to_written_out_laws(self, soc, i_bat, delta_t, c10, n_serial,
                                               discharge_exp):
        params = replace(BANK, c_10=c10, n_serial=n_serial, delta_t=delta_t,
                         discharge_exp=discharge_exp)
        args = (soc, i_bat, delta_t, params)
        assert outcome(v_discharge, *args) == outcome(discharge_expr, *args)
        assert outcome(v_charge, *args) == outcome(charge_expr, *args)

    @pytest.mark.parametrize("soc", [0.0, 1.0])
    @pytest.mark.parametrize("charging", [False, True])
    def test_open_circuit_at_soc_bounds(self, soc, charging, params):
        # the SOC terms 0.27/soc^1.5 and 0.48/(1-soc)^1.2 divide by zero here
        state = battery.BatteryState(soc=soc, charging=charging)
        expected = (charge_expr if charging else discharge_expr)(soc, 0.0, 0.0, params)
        assert battery.terminal_voltage(state, 0.0, params).hex() == expected.hex()


class TestTerminalVoltage:
    def test_positive_current_is_discharge(self, params):
        state = battery.state_for_soc(0.8, params)
        v = battery.terminal_voltage(state, 3.0, params)
        assert v == pytest.approx(discharge_line(0.8, 3.0, 0.0, 100.0, 24), rel=1e-12)

    def test_negative_current_is_charge(self, params):
        state = battery.state_for_soc(0.8, params)
        v = battery.terminal_voltage(state, -3.0, params)
        assert v == pytest.approx(charge_line(0.8, 3.0, 0.0, 100.0, 24), rel=1e-12)

    def test_zero_current_hysteresis_gap(self, cell):
        # the two open-circuit branches deliberately differ
        state = battery.state_for_soc(0.99, cell)
        v_dis = battery.terminal_voltage(
            battery.BatteryState(soc=0.99, q=state.q, charging=False), 0.0, cell
        )
        v_chg = battery.terminal_voltage(
            battery.BatteryState(soc=0.99, q=state.q, charging=True), 0.0, cell
        )
        assert v_dis == pytest.approx(1.965 + 0.12 * 0.99, rel=1e-12)
        assert v_chg == pytest.approx(2.0 + 0.16 * 0.99, rel=1e-12)
        assert v_chg > v_dis

    @settings(database=None, derandomize=True, deadline=None, max_examples=300)
    @given(soc=st.floats(battery.SOC_FLOOR, battery.SOC_CEILING, exclude_min=True,
                         exclude_max=True),
           i_bat=st.sampled_from([0.0, -0.0]) | st.floats(-500.0, 500.0),
           charging=st.booleans(), n_parallel=st.integers(1, 4))
    def test_two_branches_match_four_way_dispatch(self, soc, i_bat, charging, n_parallel):
        params = replace(BANK, n_parallel=n_parallel)
        state = battery.BatteryState(soc=soc, charging=charging)

        def four_way():
            # reference: zero current picks the last regime's open-circuit branch itself
            dt, i_str = params.delta_t, abs(i_bat) / params.n_parallel
            if i_bat > 0:
                return discharge_expr(state.soc, i_str, dt, params)
            if i_bat < 0:
                return charge_expr(state.soc, i_str, dt, params)
            if state.charging:
                return charge_expr(state.soc, 0.0, dt, params)
            return discharge_expr(state.soc, 0.0, dt, params)

        assert battery.terminal_voltage(state, i_bat, params).hex() == four_way().hex()

    def test_parallel_strings_split_current(self):
        single = BANK
        double = replace(BANK, n_parallel=2)
        state = battery.state_for_soc(0.8, single)
        v1 = battery.terminal_voltage(state, 5.0, single)
        v2 = battery.terminal_voltage(battery.state_for_soc(0.8, double), 10.0, double)
        assert v2 == pytest.approx(v1, rel=1e-12)


class TestSocUpdate:
    def test_full_battery_at_rest(self, params):
        state = battery.BatteryState(soc=1.0, q=0.0)
        battery.soc_update(state, 0.0, 1.0, params)
        assert state.soc == 1.0
        assert state.q == 0.0

    def test_charging_reduces_extracted_charge(self, params):
        state = battery.BatteryState(soc=0.9, q=5.0)
        battery.soc_update(state, -1.0, 2.0, params)
        assert state.q == pytest.approx(3.0, rel=1e-15)
        assert state.charging

    def test_full_discharge_reaches_zero(self, params):
        # oracle: fixed point of i = capacity(i) / 10 makes a 10 h discharge
        # remove exactly the available capacity
        i = params.c_10 / 10
        for _ in range(200):
            i = capacity_line(i, 0.0, params.c_10) / 10.0
        state = battery.BatteryState(soc=1.0, q=0.0)
        battery.soc_update(state, i, 10.0, params)
        assert state.soc == pytest.approx(0.0, abs=1e-9)

    def test_coulomb_symmetry(self, params):
        state = battery.BatteryState(soc=1.0, q=0.0)
        battery.soc_update(state, 4.0, 2.5, params)
        battery.soc_update(state, -4.0, 2.5, params)
        assert state.q == 0.0
        assert state.soc == 1.0

    def test_bounds_hold_over_random_walk(self, params):
        rng = np.random.RandomState(3)
        state = battery.BatteryState(soc=0.5, q=88.0)
        for _ in range(2000):
            battery.soc_update(state, rng.uniform(-50, 50), 0.25, params)
            assert 0.0 <= state.soc <= 1.0
            assert state.q >= 0.0

    def test_clamp_reported(self, params):
        state = battery.BatteryState(soc=0.9, q=5.0)
        assert battery.soc_update(state, -100.0, 1.0, params)  # overcharge past q=0
        assert state.q == 0.0
        assert not battery.soc_update(state, 1.0, 1.0, params)


class TestRegimeOrdering:
    def test_charge_above_discharge(self, params):
        rng = np.random.RandomState(5)
        for _ in range(100):
            soc = rng.uniform(0.11, 0.89)
            i = rng.uniform(0.1, 20.0)
            assert v_charge(soc, i, 0.0, params) > v_discharge(
                soc, i, 0.0, params
            )


class TestCurrentForPower:
    def test_zero_power(self, params):
        state = battery.state_for_soc(0.8, params)
        i, v = battery.current_for_power(0.0, state, params)
        assert i == 0.0
        assert v.hex() == battery.terminal_voltage(state, 0.0, params).hex()

    def test_discharge_fixed_point(self, params):
        state = battery.state_for_soc(0.6, params)
        p = 250.0
        i, v = battery.current_for_power(p, state, params)
        assert i > 0
        assert v.hex() == battery.terminal_voltage(state, i, params).hex()
        assert abs(i * v - p) <= 1e-9 * max(1.0, p)

    def test_charge_fixed_point(self, params):
        state = battery.state_for_soc(0.6, params)
        p = -300.0
        i, v = battery.current_for_power(p, state, params)
        assert i < 0
        assert v.hex() == battery.terminal_voltage(state, i, params).hex()
        assert abs(i * v - p) <= 1e-9 * max(1.0, abs(p))

    def test_undeliverable_power_raises(self, params):
        # at low SOC the sag law caps deliverable power well below this
        state = battery.BatteryState(soc=0.15, q=150.0)
        with pytest.raises(InvariantViolation):
            battery.current_for_power(5000.0, state, params)

    def test_nan_solve_raises(self, params, monkeypatch):
        # a NaN residual fails the tolerance test instead of passing it
        monkeypatch.setattr(_kernels, "battery_current_for_power",
                            lambda *args: (math.nan, math.nan, 1, math.nan))
        with pytest.raises(InvariantViolation, match="residual nan W"):
            battery.current_for_power(100.0, battery.state_for_soc(0.6, params), params)

    def test_random_powers_converge(self, params):
        rng = np.random.RandomState(9)
        state = battery.state_for_soc(0.5, params)
        for _ in range(300):
            p = rng.uniform(-2000.0, 2000.0)
            i, v = battery.current_for_power(p, state, params)
            assert v.hex() == battery.terminal_voltage(state, i, params).hex()
            if p != 0.0:
                assert abs(i * v - p) <= 1e-9 * max(1.0, abs(p))

    @settings(database=None, derandomize=True, deadline=None, max_examples=300)
    @given(soc=st.floats(battery.SOC_FLOOR, battery.SOC_CEILING, exclude_min=True,
                         exclude_max=True),
           p=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                       st.floats(-2000.0, 2000.0)),
           n_parallel=st.integers(1, 3), charging=st.booleans())
    # underflowed currents whose sign disagrees with the last current's direction
    @example(soc=0.5, p=-5e-324, n_parallel=1, charging=False)
    @example(soc=0.5, p=5e-324, n_parallel=2, charging=True)
    @example(soc=0.5, p=-0.0, n_parallel=1, charging=True)
    def test_returns_terminal_voltage_at_its_current(self, soc, p, n_parallel, charging):
        # the solve's voltage is the bank's terminal voltage at the current it
        # returns, rest voltage included; a zero current is never -0.0
        params = replace(BANK, n_parallel=n_parallel)
        state = battery.BatteryState(soc=soc, charging=charging)
        try:
            i, v = battery.current_for_power(p, state, params)
        except InvariantViolation:
            reject()  # beyond the deliverable power: nothing is returned
        assert v.hex() == battery.terminal_voltage(state, i, params).hex()
        if i == 0.0:
            assert math.copysign(1.0, i) == 1.0
