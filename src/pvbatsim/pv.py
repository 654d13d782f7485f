"""Single-diode photovoltaic generator model.

The panel is the five-parameter equivalent circuit (photocurrent source,
diode, series and shunt resistance); the array composes identical panels in
series/parallel. The implicit current equation is solved by bracketed
bisection finished with safeguarded Newton.
"""

from dataclasses import dataclass

from pvbatsim import _kernels
from pvbatsim.errors import ConvergenceError, DomainError

#: Residual tolerance of the implicit diode equation, per returned point [A].
#: Above 1,000 A of panel photocurrent it is ``1e-12 * i_ph`` instead: a double
#: cannot resolve the residual of a larger current to 1e-9 A.
RESIDUAL_TOL = 1e-9

#: Elementary charge [C] and Boltzmann constant [J/K] (2019 SI exact values).
ELEMENTARY_CHARGE = 1.602176634e-19
BOLTZMANN = 1.380649e-23


@dataclass(frozen=True)
class PvPanelParams:
    """Electrical parameters of one panel plus the array layout.

    :func:`pvbatsim.config.build_sim_config` checks every field against its
    bounds; the record itself trusts them.

    Parameters
    ----------
    i_ph_ref : float
        Photocurrent at reference irradiance/temperature [A].
    i_0_ref : float
        Diode saturation current at reference temperature [A].
    r_s : float
        Series resistance [ohm].
    r_sh : float
        Shunt resistance [ohm].
    a : float
        Diode ideality factor, in [1, 2].
    n_s : int
        Cells in series within one panel.
    g_ref, t_ref : float
        Reference irradiance [W/m2] and cell temperature [K].
    k_i : float
        Fractional short-circuit temperature coefficient [1/K]; scales the
        photocurrent as ``1 + k_i * (t_j - t_ref)``.
    i_0_temp_exp : float
        Exponent of the optional ``(t_j / t_ref) ** exp`` saturation-current
        temperature law. 0 keeps ``i_0`` constant.
    n_panels_series, n_panels_parallel : int
        Array layout.
    """

    i_ph_ref: float
    i_0_ref: float
    r_s: float
    r_sh: float
    a: float
    n_s: int
    g_ref: float
    t_ref: float
    k_i: float
    i_0_temp_exp: float
    n_panels_series: int
    n_panels_parallel: int

    def thermal_voltage(self, t_j):
        """Modified thermal voltage ``a * n_s * k * t_j / q`` of one panel [V]."""
        return self.a * self.n_s * BOLTZMANN * t_j / ELEMENTARY_CHARGE

    def saturation_current(self, t_j):
        """Diode saturation current at junction temperature ``t_j`` [A]."""
        return self.i_0_ref * (t_j / self.t_ref) ** self.i_0_temp_exp


def _panel_terms(g, t_j, params):
    """Photocurrent, saturation current, thermal voltage and diode residual tolerance of one panel.

    Every PV solve starts here, so this is where ``t_j > 0`` is checked:
    interpolation can reach 0 K next to a knot just above absolute zero.
    """
    if t_j <= 0:
        raise DomainError(f"junction temperature must be > 0 K, got {t_j}")
    i_ph = params.i_ph_ref * (g / params.g_ref) * (1.0 + params.k_i * (t_j - params.t_ref))
    tol = 1e-12 * i_ph  # a conditional, not max(): the same value, NaN included
    return (i_ph, params.saturation_current(t_j), params.thermal_voltage(t_j),
            tol if tol > RESIDUAL_TOL else RESIDUAL_TOL)


def _array_current(v_panel, i_ph, i_0, vt, tol, params):
    """Solve one panel at ``v_panel`` and scale to the array; checks the residual (NaN fails)."""
    i_panel, residual, iters = _kernels.solve_diode_current(
        v_panel, i_ph, i_0, params.r_s, params.r_sh, vt
    )
    if not abs(residual) <= tol:
        raise ConvergenceError(
            f"diode solve stalled at residual {residual:.3e} A after {iters} iterations"
        )
    return i_panel * params.n_panels_parallel


def solve_operating_current(v_pv, g, t_j, params):
    """Array current at array voltage ``v_pv`` from the implicit diode equation.

    The residual of the returned current is within ``RESIDUAL_TOL`` (relative
    above 1,000 A of photocurrent) at panel level. Raises
    :class:`ConvergenceError` if the solver cannot reach that tolerance.
    ``v_pv`` is non-negative.
    """
    i_ph, i_0, vt, tol = _panel_terms(g, t_j, params)
    return _array_current(v_pv / params.n_panels_series, i_ph, i_0, vt, tol, params)


def operating_point(v_pv, g, t_j, params):
    """Solve the array point at ``v_pv`` and apply the blocking-diode clamp.

    Returns ``(i_pv, p_pv, clamped)``. Voltages above open circuit would
    yield a negative current; the series blocking diode prevents reverse
    flow, so the current is clamped to zero and flagged. The clamp is
    decided from the residual at zero current before any solve: the
    residual falls strictly with current, so below the solve's negated
    tolerance every root it could accept is negative and would be clamped.
    """
    i_ph, i_0, vt, tol = _panel_terms(g, t_j, params)
    v_panel = v_pv / params.n_panels_series
    f0 = _kernels.diode_residual(0.0, v_panel, i_ph, i_0, params.r_s, params.r_sh, vt)
    if f0 < -tol:
        return 0.0, v_pv * 0.0, True
    i_pv = _array_current(v_panel, i_ph, i_0, vt, tol, params)
    if i_pv < 0.0:
        return 0.0, v_pv * 0.0, True
    return i_pv, v_pv * i_pv, False


def open_circuit_voltage(g, t_j, params):
    """Array open-circuit voltage at the given conditions [V]."""
    i_ph, i_0, vt, _ = _panel_terms(g, t_j, params)
    v_panel = _kernels.open_circuit_voltage(i_ph, i_0, params.r_sh, vt)
    return v_panel * params.n_panels_series


def iv_sweep(g, t_j, n_points, params):
    """Yield ``n_points`` (at least 2) array points ``(v, i, p)``, evenly spaced on [0, Voc]."""
    v_oc = open_circuit_voltage(g, t_j, params)
    step = v_oc / (n_points - 1)
    for k in range(n_points):
        v = k * step
        i = solve_operating_current(v, g, t_j, params)
        yield v, i, v * i


_GOLDEN = 0.6180339887498949


def mpp_oracle(g, t_j, params):
    """Maximum power point ``(v_mpp, p_mpp)`` by golden-section search on [0, Voc].

    Power ``v * I(v)`` of the single-diode model is strictly concave on
    [0, Voc] (``I' < 0`` and ``I'' < 0``), so the search converges to the
    global maximum. The bracket shrinks to ``1e-10 * max(1, Voc)`` volts,
    about 50 diode solves whatever the array voltage.
    """
    v_oc = open_circuit_voltage(g, t_j, params)
    if v_oc <= 0.0:
        return 0.0, 0.0

    def power(v):
        return v * solve_operating_current(v, g, t_j, params)

    lo, hi = 0.0, v_oc
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    p1, p2 = power(x1), power(x2)
    while hi - lo > 1e-10 * max(1.0, v_oc):
        if p1 < p2:
            lo, x1, p1 = x1, x2, p2
            x2 = lo + _GOLDEN * (hi - lo)
            p2 = power(x2)
        else:
            hi, x2, p2 = x2, x1, p1
            x1 = hi - _GOLDEN * (hi - lo)
            p1 = power(x1)
    v_mpp = 0.5 * (lo + hi)
    return v_mpp, power(v_mpp)
