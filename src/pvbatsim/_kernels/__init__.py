"""Numeric kernels: the implicit diode solve and the battery fixed point.

The implementations live in ``_pure``. Callers look them up on this package
at call time (``_kernels.solve_diode_current``), so a tracer can rebind them.
"""

from pvbatsim._kernels._pure import (
    battery_current_for_power,
    diode_residual,
    open_circuit_voltage,
    solve_diode_current,
)


def backend_name():
    """Name of the kernel implementation, reported in benchmark metadata: ``'pure'``."""
    return "pure"
