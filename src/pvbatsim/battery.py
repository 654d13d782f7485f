"""Lead-acid battery bank model.

Capacity shrinks with discharge current and grows with temperature; state of
charge is tracked by coulomb counting; the terminal voltage follows separate
charge and discharge laws fitted per cell and scaled by the series cell
count. Sign convention throughout: positive battery current = discharge.
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


def capacity(i_bat, delta_t, params):
    """Available capacity of one string at discharge current ``i_bat`` [Ah].

    Maximal at rest (``capacity_coeff * c_10`` for ``delta_t`` = 0) and
    strictly decreasing in current. ``i_bat`` is the current magnitude.
    """
    c10 = params.c_10
    i10 = c10 / 10.0
    return c10 * params.capacity_coeff * (1.0 + 0.005 * delta_t) / (1.0 + 0.67 * (i_bat / i10))


def bank_capacity(i_bank, params):
    """Bank capacity [Ah]: per-string capacity at the per-string share of ``i_bank``."""
    return params.n_parallel * capacity(abs(i_bank) / params.n_parallel, params.delta_t, params)


def discharge_voltage(soc, i_bat, delta_t, params):
    """Terminal voltage of one string discharging at ``i_bat`` amps (magnitude) [V].

    Increasing in SOC, decreasing in current, proportional to the series cell
    count. A loaded evaluation assumes ``soc > SOC_FLOOR``, clear of the
    ``1/SOC^1.5`` singularity; at zero current only the affine open-circuit
    part remains, defined for any SOC.
    """
    n_serial = params.n_serial
    if i_bat == 0.0:
        return n_serial * (1.965 + 0.12 * soc)
    sag = (i_bat / params.c_10) * (
        4.0 / (1.0 + i_bat**params.discharge_exp) + 0.27 / soc**1.5 + 0.02
    ) * (1.0 - 0.007 * delta_t)
    return n_serial * (1.965 + 0.12 * soc) - n_serial * sag


def charge_voltage(soc, i_bat, delta_t, params):
    """Terminal voltage of one string charging at ``i_bat`` amps (magnitude) [V].

    Increasing in SOC and in current, proportional to the series cell count.
    A loaded evaluation assumes ``soc < SOC_CEILING``, clear of the
    ``1/(1-SOC)^1.2`` singularity; at zero current only the affine
    open-circuit part remains.
    """
    n_serial = params.n_serial
    if i_bat == 0.0:
        return n_serial * (2.0 + 0.16 * soc)
    rise = (i_bat / params.c_10) * (
        6.0 / (1.0 + i_bat**0.86) + 0.48 / (1.0 - soc) ** 1.2 + 0.036
    ) * (1.0 - 0.025 * delta_t)
    return n_serial * (2.0 + 0.16 * soc) + n_serial * rise


def terminal_voltage(state, i_bat, params):
    """Bank terminal voltage at signed bank current ``i_bat`` [V].

    Negative current, or zero current after a charge, takes the charge law;
    the rest takes the discharge law, each at the per-string magnitude. At
    zero current the two laws give their open-circuit branches, which
    deliberately differ: the gap is the model's charge/discharge hysteresis.
    A run passes zero or a current that :func:`current_for_power` solved at
    this SOC.
    """
    i_str = abs(i_bat) / params.n_parallel
    if i_bat < 0 or (i_bat == 0 and state.charging):
        return charge_voltage(state.soc, i_str, params.delta_t, params)
    return discharge_voltage(state.soc, i_str, params.delta_t, params)


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
    """Bank current [A] delivering power ``p_bat`` (positive = discharge).

    Terminal voltage depends on current, so ``i = p / v(i)`` is iterated to
    ``|p - i*v(i)| <= 1e-9 * max(1, |p|)``. A discharge needs ``soc > SOC_FLOOR``
    and a charge ``soc < SOC_CEILING`` (the step loop downgrades instead).
    Raises :class:`ConvergenceError` on a stall or a NaN residual.
    """
    i, residual, _ = _kernels.battery_current_for_power(
        p_bat,
        state.soc,
        params.c_10,
        params.delta_t,
        params.n_serial,
        params.n_parallel,
        params.discharge_exp,
    )
    if not abs(residual) <= 1e-9 * max(1.0, abs(p_bat)):
        raise ConvergenceError(
            f"battery current fixed point stalled at residual {residual:.3e} W"
        )
    return i
