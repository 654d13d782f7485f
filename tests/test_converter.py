"""Boost converter quasi-static relations."""

import pytest

from pvbatsim import converter


class TestDutyForBus:
    def test_port_voltage_inverse(self):
        assert converter.pv_port_voltage(80.0, 0.5) == pytest.approx(40.0)
