"""Lead-acid battery bank model.

Each rule is stated once, on the bank and its signed current:
:func:`bank_capacity` shrinks with the current and grows with temperature;
:func:`soc_update` counts coulombs against it; :func:`terminal_voltage` is the
one voltage function, separate charge and discharge laws fitted per cell and
scaled by the series cell count. Sign convention throughout: positive battery
current = discharge.
"""

from dataclasses import dataclass

from pvbatsim import _kernels
from pvbatsim.errors import ConvergenceError

#: SOC band inside which the loaded voltage laws hold (1/SOC^1.5 and
#: 1/(1-SOC)^1.2 singularities). The step loop loads the bank only inside it,
#: and the supervisor's thresholds keep normal runs far inside it.
SOC_FLOOR = 0.005
SOC_CEILING = 0.995


@dataclass(frozen=True)
class BatteryParams:
    """Bank construction and model coefficients.

    ``c_10`` is the 10-hour rated capacity of one string [Ah]; the 10-hour
    current is ``c_10 / 10``. ``capacity_coeff`` is the printed 1.76 capacity
    factor (the classical fit uses 1.67). ``discharge_exp`` is the exponent of
    the discharge sag current term (printed as 1.3 and as 1.8). The fields are as
    :func:`pvbatsim.config.build_sim_config` checked them.
    """

    c_10: float
    n_serial: int
    n_parallel: int
    delta_t: float
    capacity_coeff: float
    discharge_exp: float


@dataclass(slots=True)
class BatteryState:
    """SOC, extracted charge and the last current's direction, updated in place.

    ``q`` is the bank-level extracted charge [Ah]. ``charging``, set by each
    non-zero current, picks the open-circuit branch of :func:`terminal_voltage`
    at zero current. :func:`soc_update` clamps what it writes.
    """

    soc: float = 1.0
    q: float = 0.0
    charging: bool = False


def state_for_soc(soc, params):
    """Initial state holding ``soc``, with ``q`` consistent with the capacity at rest."""
    cap = bank_capacity(0.0, params)
    return BatteryState(soc=soc, q=(1.0 - soc) * cap)


def bank_capacity(i_bank, params):
    """Bank capacity [Ah] at signed bank current ``i_bank``: each string's at its share.

    Maximal at rest (``capacity_coeff * c_10`` per string for ``delta_t`` = 0)
    and strictly decreasing in the current's magnitude.
    """
    c10 = params.c_10
    i10 = c10 / 10.0
    n_parallel = params.n_parallel
    return n_parallel * (c10 * params.capacity_coeff * (1.0 + 0.005 * params.delta_t)
                         / (1.0 + 0.67 * ((abs(i_bank) / n_parallel) / i10)))


def terminal_voltage(state, i_bat, params):
    """Bank terminal voltage at signed bank current ``i_bat`` [V].

    Negative current, or zero current after a charge, takes the charge law;
    the rest takes the discharge law, each at the per-string magnitude. A zero
    per-string current gives only the open-circuit part, whose two branches
    deliberately differ: the gap is the model's charge/discharge hysteresis.
    A run passes zero, for the rest voltage, or a current solved at this SOC.
    """
    charging = i_bat < 0 or (i_bat == 0 and state.charging)
    i_str = abs(i_bat) / params.n_parallel
    if i_str == 0.0:
        return _kernels.battery_ocv(state.soc, params.n_serial, charging)
    law = _kernels.battery_law(state.soc, params.delta_t, params.n_serial, params.discharge_exp,
                               charging)
    return _kernels.battery_voltage(i_str, params.c_10, law)


def soc_update(state, i_bat, dt_h, params):
    """Coulomb-counting update over ``dt_h`` hours at signed bank current ``i_bat``.

    Discharge (positive current) grows the extracted charge; charging shrinks
    it. Charge and SOC are clamped to their physical ranges. Updates ``state``
    in place and returns whether it clamped either. ``dt_h`` is positive.
    """
    q = state.q + i_bat * dt_h
    clamped = q < 0.0
    if clamped:
        q = 0.0
    soc = 1.0 - q / bank_capacity(i_bat, params)
    if soc < 0.0:
        soc = 0.0
        clamped = True
    elif soc > 1.0:
        soc = 1.0
        clamped = True
    state.soc = soc
    state.q = q
    if i_bat != 0.0:
        state.charging = i_bat < 0
    return clamped


def current_for_power(p_bat, state, params):
    """Bank operating point ``(i, v)`` delivering power ``p_bat`` (positive = discharge).

    ``i = p / v(i)`` is iterated until ``|p - i*v(i)|`` is within
    :func:`_kernels.battery_tolerance`; ``v`` is the voltage there, or at a zero current
    (``+0.0``) the rest voltage of :func:`terminal_voltage`. A discharge needs
    ``soc > SOC_FLOOR`` and a charge ``soc < SOC_CEILING`` (the step loop downgrades
    instead). Raises :class:`ConvergenceError` on a stall or a NaN residual.
    """
    if p_bat != 0.0:
        i, residual, _, v = _kernels.battery_current_for_power(
            p_bat, state.soc, params.c_10, params.delta_t, params.n_serial, params.n_parallel,
            params.discharge_exp)
        if not abs(residual) <= _kernels.battery_tolerance(p_bat):
            raise ConvergenceError(
                f"battery current fixed point stalled at residual {residual:.3e} W"
            )
        if i != 0.0:
            return i, v
    return 0.0, terminal_voltage(state, 0.0, params)
