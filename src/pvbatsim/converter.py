"""Quasi-static boost converter between the PV array and the DC bus.

Only the steady-state voltage/current ratios are modeled; switching dynamics
are out of scope. The duty cycle is clamped below 1 to keep the 1/(1-D)
ratio finite.
"""


def pv_port_voltage(v_bus, d):
    """PV-side voltage seen through the boost stage at duty ``d`` on a pinned bus."""
    return (1.0 - d) * v_bus
