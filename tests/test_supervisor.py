"""Supervisor tests: mode selection, switch table, safety and hysteresis."""

import numpy as np
import pytest

from pvbatsim import supervisor as sup
from pvbatsim.config import build_sim_config
from pvbatsim.errors import ConfigError

# Independent transcription of the mode/switch table.
EXPECTED_SWITCHES = {
    1: (True, True, False),
    2: (False, True, True),
    3: (False, False, True),
    4: (False, True, False),
    5: (False, False, False),
}


@pytest.fixture
def config():
    return build_sim_config().supervisor


def pick(p_pv, p_load, soc, config, state=None):
    return sup.select_mode(p_pv, p_load, soc, state or sup.SupervisorState(), config)


class TestSwitchTable:
    def test_exhaustive_match(self):
        for mode, expected in EXPECTED_SWITCHES.items():
            assert sup.SWITCH_TABLE[mode] == expected

    def test_five_modes(self):
        assert (sup.MODE1, sup.MODE2, sup.MODE3, sup.MODE4, sup.MODE5) == (1, 2, 3, 4, 5)
        assert len(sup.SWITCH_TABLE) == 5


class TestSelectMode:
    def test_surplus_and_chargeable(self, config):
        assert pick(500.0, 200.0, 0.5, config) == sup.MODE1

    def test_deficit_with_battery(self, config):
        assert pick(100.0, 200.0, 0.5, config) == sup.MODE2

    def test_depleted_night(self, config):
        # below soc_min the battery may not discharge: load is shed
        assert pick(0.0, 200.0, 0.15, config) == sup.MODE5

    def test_night_with_charge(self, config):
        assert pick(0.0, 200.0, 0.5, config) == sup.MODE3

    def test_surplus_but_full(self, config):
        assert pick(500.0, 200.0, 0.95, config) == sup.MODE4

    def test_deficit_and_depleted_with_some_pv(self, config):
        assert pick(100.0, 200.0, 0.10, config) == sup.MODE5

    def test_balanced_band_serves_load_directly(self, config):
        # PV covers the load but the surplus is below p_epsilon: no battery action
        assert pick(200.5, 200.0, 0.5, config) == sup.MODE4

    def test_threshold_order_validated(self):
        # the first threshold out of order is named: soc_min_release 0.25 < soc_min
        with pytest.raises(ConfigError, match=r"^supervisor\.soc_min_release \(0\.25\) must "
                                              r"be above supervisor\.soc_min \(0\.9\)"):
            build_sim_config({"supervisor": {"soc_min": 0.9, "soc_max": 0.2}})


class TestBatteryPowerSetpoint:
    def test_mode1_charges_surplus(self):
        assert sup.route_power(sup.MODE1, 500.0, 200.0)[0] == -300.0

    def test_mode3_carries_load(self):
        assert sup.route_power(sup.MODE3, 0.0, 200.0)[0] == 200.0

    def test_mode5_idle(self):
        assert sup.route_power(sup.MODE5, 0.0, 200.0)[0] == 0.0
        assert sup.route_power(sup.MODE5, 0.0, 200.0)[1] == 0.0

    def test_setpoint_consistent_with_switches(self, config):
        rng = np.random.RandomState(19)
        state = sup.SupervisorState()
        for _ in range(2000):
            p_pv = rng.uniform(0.0, 600.0)
            p_load = rng.uniform(0.0, 400.0)
            soc = rng.uniform(0.0, 1.0)
            mode = sup.select_mode(p_pv, p_load, soc, state, config)
            k1, _, k3 = sup.SWITCH_TABLE[mode]
            p_bat = sup.route_power(mode, p_pv, p_load)[0]
            if p_bat < 0:
                assert k1  # charging requires the PV->battery path
            if p_bat > 0:
                assert k3  # discharging requires the battery->load path


class TestRoutePower:
    def test_mode4_curtails_surplus(self):
        p_bat, served, curtailed, used = sup.route_power(sup.MODE4, 500.0, 200.0)
        assert p_bat == 0.0
        assert served == 200.0
        assert curtailed == 300.0
        assert used == 500.0

    def test_mode3_ignores_trace_pv(self):
        p_bat, served, curtailed, used = sup.route_power(sup.MODE3, 0.4, 200.0)
        assert used == 0.0  # array is open-circuited, nothing generated
        assert curtailed == 0.0
        assert p_bat == 200.0 and served == 200.0


class TestSafetyProperties:
    def test_no_discharge_below_soc_min(self, config):
        rng = np.random.RandomState(29)
        state = sup.SupervisorState()
        for _ in range(10000):
            p_pv = rng.uniform(0.0, 600.0)
            p_load = rng.uniform(0.0, 400.0)
            soc = rng.uniform(0.0, 1.0)
            mode = sup.select_mode(p_pv, p_load, soc, state, config)
            k1, _, k3 = sup.SWITCH_TABLE[mode]
            if soc <= config.soc_min:
                assert not k3
            if soc >= config.soc_max:
                assert not k1

    def test_totality(self, config):
        rng = np.random.RandomState(37)
        state = sup.SupervisorState()
        for _ in range(5000):
            mode = sup.select_mode(
                rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(0, 1), state, config
            )
            assert mode in sup.SWITCH_TABLE
            assert sup.SWITCH_TABLE[mode] is not None


class TestHysteresis:
    def test_mode4_holds_until_release(self, config):
        # battery just latched full; PV surplus persists while SOC drifts
        # inside the (release, max) band: must not return to MODE1
        state = sup.SupervisorState()
        mode = sup.select_mode(500.0, 200.0, config.soc_max, state, config)
        assert mode == sup.MODE4
        for soc in (0.895, 0.885, 0.875, 0.865, 0.855):
            mode = sup.select_mode(500.0, 200.0, soc, state, config)
            assert mode == sup.MODE4
        mode = sup.select_mode(500.0, 200.0, config.soc_max_release, state, config)
        assert mode == sup.MODE1

    def test_latch_survives_pv_dips(self, config):
        # a cloud passes while latched: mode changes, the latch must not reset
        state = sup.SupervisorState()
        mode = sup.select_mode(500.0, 200.0, 0.91, state, config)
        assert mode == sup.MODE4
        mode = sup.select_mode(50.0, 200.0, 0.89, state, config)
        assert mode == sup.MODE2
        mode = sup.select_mode(500.0, 200.0, 0.88, state, config)
        assert mode == sup.MODE4  # still above release: charging stays blocked

    def test_mode5_holds_until_release(self, config):
        state = sup.SupervisorState()
        mode = sup.select_mode(0.0, 200.0, config.soc_min, state, config)
        assert mode == sup.MODE5
        for soc in (0.21, 0.22, 0.23, 0.24):
            mode = sup.select_mode(0.0, 200.0, soc, state, config)
            assert mode == sup.MODE5
        mode = sup.select_mode(0.0, 200.0, config.soc_min_release, state, config)
        assert mode == sup.MODE3

    def test_at_most_one_transition_per_crossing(self, config):
        # adversarial random walk: within any residency of the upper band
        # after latching, MODE1 must not reappear; same for the lower band
        rng = np.random.RandomState(41)
        soc = 0.5
        state = sup.SupervisorState()
        upper_latched = lower_latched = False
        for _ in range(10000):
            soc = min(1.0, max(0.0, soc + rng.uniform(-0.02, 0.02)))
            p_pv = rng.choice([0.0, 50.0, 300.0, 600.0])
            p_load = rng.choice([0.0, 100.0, 200.0, 400.0])
            mode = sup.select_mode(p_pv, p_load, soc, state, config)
            if soc >= config.soc_max:
                upper_latched = True
            elif soc <= config.soc_max_release:
                upper_latched = False
            if soc <= config.soc_min:
                lower_latched = True
            elif soc >= config.soc_min_release:
                lower_latched = False
            if upper_latched:
                assert mode != sup.MODE1
            if lower_latched:
                assert mode not in (sup.MODE2, sup.MODE3)
