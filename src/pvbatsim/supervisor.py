"""Five-mode power management supervisor.

Routes power among PV array, battery bank and load through three switches:
K1 = PV-to-battery charging path, K2 = PV-to-load path, K3 = battery-to-load
path. Battery protection uses latched SOC hysteresis bands. In open loop,
where SOC does not depend on the mode, a threshold crossing causes at most
one mode change; in closed loop it does not yet, because the latch reads SOC
under load, which is lower than at rest.
"""

from dataclasses import dataclass

MODE1 = 1  # PV feeds the load and recharges the battery
MODE2 = 2  # PV insufficient, battery assists
MODE3 = 3  # no usable PV, battery alone carries the load
MODE4 = 4  # battery isolated (full or idle), PV serves the load directly
MODE5 = 5  # battery depleted and PV absent/insufficient: load shed

#: Mode -> (K1, K2, K3), 1 for a closed switch: the one statement of the PMC's
#: switches. The step loop writes these ints as the record's switch columns.
SWITCH_TABLE = {
    MODE1: (1, 1, 0),
    MODE2: (0, 1, 1),
    MODE3: (0, 0, 1),
    MODE4: (0, 1, 0),
    MODE5: (0, 0, 0),
}


@dataclass(frozen=True)
class SupervisorConfig:
    """Protection thresholds. Release values de-latch the hysteresis bands.

    :func:`pvbatsim.config.build_sim_config` checks that
    ``0 < soc_min < soc_min_release < soc_max_release < soc_max < 1`` and
    ``p_epsilon > 0``.
    """

    soc_min: float
    soc_min_release: float
    soc_max: float
    soc_max_release: float
    p_epsilon: float


@dataclass(slots=True)
class SupervisorState:
    """Supervisor memory, updated in place: the two protection latches.

    The mode is not kept: :func:`select_mode` returns it. The latches carry the
    hysteresis: without them a brief PV dip inside a band would re-enable
    charging (or discharging) before the release threshold is reached.
    """

    charge_blocked: bool = False
    discharge_blocked: bool = False


def select_mode(p_pv, p_load, soc, state, config):
    """Pick the operating mode for the current power balance and SOC.

    Updates the latches of ``state`` in place and returns the mode. Protection
    outranks economics: a latched battery is never charged above the max band
    nor discharged below the min band. PV covering the load but with surplus
    below ``p_epsilon`` is served directly (MODE4) rather than cycling the
    charger on a negligible surplus. The step loop passes powers >= 0 and an
    SOC in [0, 1].
    """
    if soc >= config.soc_max:
        state.charge_blocked = True
    elif soc <= config.soc_max_release:
        state.charge_blocked = False
    if soc <= config.soc_min:
        state.discharge_blocked = True
    elif soc >= config.soc_min_release:
        state.discharge_blocked = False
    chargeable = not state.charge_blocked
    dischargeable = not state.discharge_blocked

    if p_pv >= p_load + config.p_epsilon and chargeable:
        return MODE1
    if p_pv >= p_load:
        return MODE4
    if p_pv >= config.p_epsilon and dischargeable:
        return MODE2
    if p_pv < config.p_epsilon and dischargeable:
        return MODE3
    return MODE5


def route_power(mode, p_pv, p_load):
    """Full power routing for the mode: ``(p_bat, p_served, p_curtailed, p_pv_used)``.

    ``p_bat`` is the signed battery power the mode implies (positive =
    discharge) [W]. ``p_pv_used`` is the PV power actually entering the
    system: everything in modes 1/2/4 (with mode 4 curtailing the surplus
    beyond the load), nothing in modes 3/5 where both PV switches are open
    and the array idles at open circuit.
    """
    if mode == MODE1:
        return -(p_pv - p_load), p_load, 0.0, p_pv
    if mode == MODE2:
        return p_load - p_pv, p_load, 0.0, p_pv
    if mode == MODE3:
        return p_load, p_load, 0.0, 0.0
    if mode == MODE4:
        served = p_pv if p_pv < p_load else p_load
        return 0.0, served, p_pv - served, p_pv
    return 0.0, 0.0, 0.0, 0.0
