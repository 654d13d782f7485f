"""Fixed-timestep simulation engine and the MPPT tracking bench.

Each step samples the environment, solves the PV operating point at the
controller's duty cycle against the (lagged) bus voltage, asks the
supervisor for a mode, routes power, asks the battery once for its current
and terminal voltage, updates the SOC and, when ``(k + 2) % mppt_every == 0``,
lets the MPPT controller act on step ``k``'s measured port power and voltage:
first after step ``mppt_every - 2`` (every step if ``mppt_every`` is 1), then
every ``mppt_every`` steps. One row per step; an energy ledger accumulates
alongside and must close at the end.

Bus model: the DC bus is pinned to the battery terminal voltage whenever a
battery switch is closed (modes 1-3); in modes 4/5 it sits at the constant
nominal reference. The panel junction temperature is taken as the sampled
ambient value (no cell-thermal model). Record power columns are bus-side
(converter efficiency applied); the ledger's e_pv is array-side with the
converter loss in e_loss, so the closure identity holds for any efficiency.
"""

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from pvbatsim import battery as bat
from pvbatsim import converter
from pvbatsim import mppt as mp
from pvbatsim import pv
from pvbatsim import supervisor as sup
from pvbatsim.errors import InvariantViolation
from pvbatsim.profiles import TimeSeriesProfile, cursor

#: Relative tolerance of the per-record power balance and the ledger closure.
BALANCE_TOL = 1e-6

#: clamp_flags bits.
FLAG_PV_CLAMP = 1      # blocking diode clamped a negative PV current
FLAG_SOC_CLAMP = 2     # coulomb counter hit an SOC/charge bound
FLAG_DUTY_LIMIT = 4    # duty cycle sits on a clamp bound
FLAG_PROTECTIVE = 8    # SOC outside the voltage laws' band downgraded the mode


def step_count(t_end, dt):
    """Steps of length ``dt`` in ``t_end``: the floor of the quotient.

    The 1e-9 allowance absorbs the rounding of the division, so that a
    1.2 s run of 0.1 s steps has 12 steps although 1.2 / 0.1 < 12.
    """
    return int(math.floor(t_end / dt + 1e-9))


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs, as :func:`pvbatsim.config.build_sim_config` validated it."""

    panel: pv.PvPanelParams
    battery: bat.BatteryParams
    supervisor: sup.SupervisorConfig
    fuzzy: mp.FuzzyConfig
    irradiance: TimeSeriesProfile
    temperature: TimeSeriesProfile
    load: TimeSeriesProfile
    dt: float
    t_end: float
    mppt_kind: str
    d0: float
    delta_d: float
    t_mppt: float
    d_max: float
    eta: float
    v_bus_nominal: float
    initial_soc: float

    @property
    def n_steps(self):
        return step_count(self.t_end, self.dt)

    @property
    def mppt_every(self):
        """Controller period in engine steps (at least every step)."""
        return max(1, round(self.t_mppt / self.dt))


class SimRecord(NamedTuple):
    """One output row with named fields; field order is the CSV column order."""

    t: float
    g: float
    t_amb: float
    p_pv: float
    p_load_requested: float
    p_load_served: float
    p_bat: float
    soc: float
    v_bat: float
    v_pv: float
    i_pv: float
    d: float
    mode: int
    k1: int
    k2: int
    k3: int
    p_curtailed: float
    clamp_flags: int


CSV_HEADER = (
    "t_s,g_wm2,t_amb_c,p_pv_w,p_load_requested_w,p_load_served_w,p_bat_w,"
    "soc,v_bat_v,v_pv_v,i_pv_a,d,mode,k1,k2,k3,p_curtailed_w,clamp_flags,controller"
)


@dataclass
class EnergyLedger:
    """Whole-run energy accounting [Wh]. ``e_pv`` is array-side harvest."""

    e_pv: float = 0.0
    e_load_served: float = 0.0
    e_load_unserved: float = 0.0
    e_bat_in: float = 0.0
    e_bat_out: float = 0.0
    e_curtailed: float = 0.0
    e_loss: float = 0.0

    def residual(self):
        """Signed closure error of e_pv + e_bat_out = e_served + e_bat_in + e_curtailed + e_loss."""
        return (self.e_pv + self.e_bat_out) - (
            self.e_load_served + self.e_bat_in + self.e_curtailed + self.e_loss
        )

    def relative_residual(self):
        return abs(self.residual()) / max(1.0, self.e_pv + self.e_bat_out)

    def closes(self):
        return self.relative_residual() <= BALANCE_TOL


@dataclass
class EngineState:
    """What the next step reads: the component states, which the step loop
    updates in place, and the bus voltage, which it writes back when it stops."""

    bat: bat.BatteryState
    mppt: mp.MpptState
    sup: sup.SupervisorState
    v_bus: float


def init_state(config):
    battery_state = bat.state_for_soc(config.initial_soc, config.battery)
    mppt_state = mp.MpptState(d=config.d0, delta_d=config.delta_d, d_max=config.d_max)
    sup_state = sup.SupervisorState()
    v_bus = bat.terminal_voltage(battery_state, 0.0, config.battery)
    return EngineState(bat=battery_state, mppt=mppt_state, sup=sup_state, v_bus=v_bus)


def step(config, state, ledger, k):
    """Run step ``k`` through the loop of :func:`steps`, updating ``state`` and
    ``ledger`` in place; returns the step's record."""
    (row,) = _loop(config, state, ledger, k, k + 1)
    return SimRecord(*row)


def steps(config, ledger):
    """Yield the run's rows one step at a time, accumulating energy into ``ledger``.

    Each row is a plain tuple in CSV column order (the fields of
    :class:`SimRecord`). Nothing is kept between rows, so a consumer that
    writes each row as it arrives runs in memory that does not grow with the
    step count.
    """
    return _loop(config, init_state(config), ledger, 0, config.n_steps)


def _loop(config, state, ledger, first, stop):
    """The step loop: one row for each step ``k`` in ``range(first, stop)``, at ``k * dt``.

    The loop only orchestrates: every model rule is one call into its
    module. The run's constants and the step state live in locals, and go
    back into ``state`` and ``ledger`` when the loop ends, fails or is closed.

    A charge at or above ``SOC_CEILING`` or a discharge at or below
    ``SOC_FLOOR`` is not solved: the step downgrades to protective mode 4 or
    5. Every :class:`InvariantViolation` of a step (a failed PV or battery solve,
    a row off its power balance) ends the run with the step and its time attached.
    """
    panel = config.panel
    battery = config.battery
    supervisor = config.supervisor
    fuzzy = config.fuzzy
    eta = config.eta
    v_bus_nominal = config.v_bus_nominal
    dt, dt_h = config.dt, config.dt / 3600.0
    mppt_step = mp.po_step if config.mppt_kind == "po" else mp.flc_step
    g_at = cursor(config.irradiance)
    t_amb_at = cursor(config.temperature)
    p_load_at = cursor(config.load)
    mppt_every = config.mppt_every
    switch_table = sup.SWITCH_TABLE
    bat_state, mppt_state, sup_state = state.bat, state.mppt, state.sup
    d_max = mppt_state.d_max
    soc_floor, soc_ceiling = bat.SOC_FLOOR, bat.SOC_CEILING
    v_bus = state.v_bus
    e_pv, e_served, e_unserved, e_bat_in, e_bat_out, e_curtailed, e_loss = (
        ledger.e_pv, ledger.e_load_served, ledger.e_load_unserved, ledger.e_bat_in,
        ledger.e_bat_out, ledger.e_curtailed, ledger.e_loss)
    try:
        for k in range(first, stop):
            t = k * dt
            g = g_at(t)
            t_amb = t_amb_at(t)
            p_load = p_load_at(t)

            d = mppt_state.d
            flags = FLAG_DUTY_LIMIT if d == 0.0 or d == d_max else 0
            v_cand = converter.pv_port_voltage(v_bus, d)
            i_pv, p_port, pv_clamped = pv.operating_point(v_cand, g, t_amb + 273.15, panel)
            if pv_clamped:
                flags |= FLAG_PV_CLAMP
            p_avail = eta * p_port

            soc = bat_state.soc
            mode = sup.select_mode(p_avail, p_load, soc, sup_state, supervisor)
            p_bat_set, p_served, p_curt, p_pv_used = sup.route_power(mode, p_avail, p_load)
            if (p_bat_set > 0.0 and soc <= soc_floor) or (p_bat_set < 0.0 and soc >= soc_ceiling):
                mode = sup.MODE4 if p_bat_set < 0.0 else sup.MODE5
                p_bat_set, p_served, p_curt, p_pv_used = sup.route_power(mode, p_avail, p_load)
                flags |= FLAG_PROTECTIVE
            i_bat, v_bat = bat.current_for_power(p_bat_set, bat_state, battery)
            p_bat = i_bat * v_bat
            if bat.soc_update(bat_state, i_bat, dt_h, battery):
                flags |= FLAG_SOC_CLAMP

            k1, k2, k3 = switch_table[mode]
            connected = k1 or k2
            v_bus = v_bat if (k1 or k3) else v_bus_nominal

            e_pv += (p_port if connected else 0.0) * dt_h
            e_served += p_served * dt_h
            e_unserved += (p_load - p_served) * dt_h
            if p_bat > 0.0:
                e_bat_out += p_bat * dt_h
            else:
                e_bat_in += -p_bat * dt_h
            e_curtailed += p_curt * dt_h
            e_loss += ((p_port - p_avail) if connected else 0.0) * dt_h

            # power balance of the row, by the mode's routing identity
            if mode == 1:
                err = abs(p_pv_used - (p_served - p_bat) - p_curt)
            elif mode == 2 or mode == 3:
                err = abs(p_served - (p_pv_used + p_bat))
            elif mode == 4:
                err = abs(p_served - min(p_pv_used, p_load)) + abs(p_bat)
            else:
                err = abs(p_served) + abs(p_bat) + abs(p_pv_used)
            if not err <= BALANCE_TOL * max(1.0, p_load, p_pv_used):
                raise InvariantViolation(f"mode {mode} power balance off by {err:.3e} W")

            if (k + 2) % mppt_every == 0:
                mppt_step(p_port, v_cand, mppt_state, fuzzy)

            yield (
                t, g, t_amb, p_pv_used, p_load, p_served, p_bat, bat_state.soc, v_bat,
                v_cand if connected else 0.0, i_pv if connected else 0.0, d,
                mode, k1, k2, k3, p_curt, flags,
            )
    except InvariantViolation as exc:
        raise InvariantViolation(f"step {k} (t={t}): {exc}") from exc
    finally:
        state.v_bus = v_bus
        (ledger.e_pv, ledger.e_load_served, ledger.e_load_unserved, ledger.e_bat_in,
         ledger.e_bat_out, ledger.e_curtailed, ledger.e_loss) = (
            e_pv, e_served, e_unserved, e_bat_in, e_bat_out, e_curtailed, e_loss)


def run(config):
    """Run the configured simulation; returns ``(records, ledger)``.

    Deterministic: the record count is ``floor(t_end / dt)`` and identical
    configs produce identical records.
    """
    ledger = EnergyLedger()
    return [SimRecord(*row) for row in steps(config, ledger)], ledger


#: One CSV row, controller column excluded: floats by ``repr``, ints by ``str``.
_ROW_FORMAT = "".join("%s," if t is int else "%r," for t in SimRecord.__annotations__.values())


def _row_format(controller):
    """The format string of one row, newline included, with ``controller`` filled in."""
    return _ROW_FORMAT + controller + "\n"


def records_to_csv(records, controller):
    """Render rows or records as the canonical CSV text (trailing newline included)."""
    return CSV_HEADER + "\n" + "".join(map(_row_format(controller).__mod__, records))


def write_records_csv(rows, controller, fh):
    """Write the CSV of an iterable of rows or records to text file ``fh`` as they arrive."""
    fh.write(CSV_HEADER + "\n")
    fh.writelines(map(_row_format(controller).__mod__, rows))


def ledger_to_text(ledger):
    lines = ["quantity,value"]
    lines += [f"{f.name}_wh,{getattr(ledger, f.name)!r}" for f in fields(ledger)]
    lines.append(f"closure_residual_wh,{ledger.residual()!r}")
    lines.append(f"closure_relative,{ledger.relative_residual()!r}")
    return "\n".join(lines) + "\n"


def run_tracking(kind, panel, g, t_c, n_steps, v_bus, state, fuzzy, eta):
    """Desk-scale MPPT bench: one ``"po"`` or ``"flc"`` controller against a static curve.

    The bus is held at ``v_bus`` and the conditions at ``g`` (W/m2) and
    ``t_c`` (Celsius). As in :func:`steps`, the controller acts on the array's
    power; each sample records the ``eta`` of it that the converter passes.
    ``state`` is updated in place, so a run over several plateaus carries one
    state from call to call. Returns ``n_steps`` samples ``(d, v, eta * p_pv)``.

    A settled controller revisits a few port voltages over and over, so
    each distinct voltage is solved once and its power reused:
    ``pv.operating_point`` is pure, so the samples are the ones a solve at
    every step would give.
    """
    mppt_step = mp.po_step if kind == "po" else mp.flc_step
    t_j = t_c + 273.15
    out = []
    powers = {}  # port voltage -> p_pv
    for _ in range(n_steps):
        d = state.d
        v = converter.pv_port_voltage(v_bus, d)
        p = powers.get(v)
        if p is None:
            p = powers[v] = pv.operating_point(v, g, t_j, panel)[1]
        out.append((d, v, eta * p))
        mppt_step(p, v, state, fuzzy)
    return out


def steady_stats(samples):
    """Mean power and peak-to-peak power ripple over the trailing 40 % of ``samples``."""
    n = len(samples)
    window = [p for _, _, p in samples[int(n * 0.6):]]
    mean = sum(window) / len(window)
    return mean, max(window) - min(window)
