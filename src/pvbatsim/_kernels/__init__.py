"""Numeric kernels: the diode solve, the battery's voltage law and its fixed point.

The implementations live in ``_pure``. Callers look them up on this package
at call time (``_kernels.solve_diode_current``), so a tracer can rebind them.
"""

from pvbatsim._kernels._pure import (
    battery_current_for_power, battery_law, battery_ocv, battery_tolerance, battery_voltage,
    diode_residual, open_circuit_voltage, solve_diode_current,
)


def backend_name():
    """Name of the kernel implementation, reported in benchmark metadata: ``'pure'``."""
    return "pure"
