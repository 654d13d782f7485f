"""Pure-Python numeric kernels: the implicit diode solve, the open-circuit
voltage, the battery's loaded-voltage law and its power->current fixed point.
"""

import math

# exp() saturates here to keep the bracketing residual finite and monotone
# far outside the physical operating range.
_EXP_CAP = 600.0

#: Residual tolerance [A] and iteration budget of the diode and
#: open-circuit solves.
DIODE_TOL = 1e-12
DIODE_MAX_ITER = 200

#: Iteration budget of the battery fixed point; its tolerance is battery_tolerance().
BATTERY_MAX_ITER = 60


def diode_residual(i, v, i_ph, i_0, r_s, r_sh, vt):
    """Residual of the implicit panel equation at current ``i`` (amps)."""
    x = v + r_s * i
    arg = x / vt
    return i_ph - i_0 * (math.exp(_EXP_CAP if arg > _EXP_CAP else arg) - 1.0) - x / r_sh - i


def solve_diode_current(v, i_ph, i_0, r_s, r_sh, vt):
    """Solve the implicit diode equation for the panel current at voltage ``v``.

    Bracketed bisection narrows to 1e-3 A, then safeguarded Newton finishes.
    Returns ``(i, residual, iterations)``; the caller checks the residual
    against its contract.
    """
    # exact zero-current solution (dark panel at zero bias) short-circuits
    if diode_residual(0.0, v, i_ph, i_0, r_s, r_sh, vt) == 0.0:
        return 0.0, 0.0, 0
    lo = -10.0 * i_0
    hi = i_ph + 1.0
    # v above open-circuit pushes the root negative; widen downward.
    extend = 0
    while extend < 64 and diode_residual(lo, v, i_ph, i_0, r_s, r_sh, vt) < 0.0:
        lo = lo * 10.0 - 1.0
        extend += 1

    # The loop writes diode_residual out once, with the same operations in the
    # same order, and keeps its exp() for the Newton derivative.
    exp = math.exp
    cap = _EXP_CAP
    tol = DIODE_TOL
    rs_vt = r_s / vt
    rs_rsh = r_s / r_sh
    i = 0.5 * (lo + hi)
    for iters in range(1, DIODE_MAX_ITER + 1):
        x = v + r_s * i
        arg = x / vt
        e = exp(cap if arg > cap else arg)
        f = i_ph - i_0 * (e - 1.0) - x / r_sh - i
        if -tol <= f <= tol:
            return i, f, iters
        # bisect while the bracket is wider than 1e-3 A, then Newton
        bisect = hi - lo > 1e-3
        # the residual is strictly decreasing in i
        if f > 0.0:
            lo = i
        else:
            hi = i
        if not bisect:
            i -= f / (-i_0 * e * rs_vt - rs_rsh - 1.0)
        # a bisection pass left i on the bracket; a Newton step may leave it
        if i <= lo or i >= hi:
            i = 0.5 * (lo + hi)
    return i, diode_residual(i, v, i_ph, i_0, r_s, r_sh, vt), DIODE_MAX_ITER


def open_circuit_voltage(i_ph, i_0, r_sh, vt):
    """Panel open-circuit voltage: zero of ``i_ph - i_0*(exp(v/vt)-1) - v/r_sh``.

    That is :func:`diode_residual` at zero current, where the series
    resistance drops out.
    """
    if i_ph <= 0.0:
        return 0.0
    lo = 0.0
    hi = vt * math.log(i_ph / i_0 + 1.0) + 1.0
    v = 0.5 * (lo + hi)
    for _ in range(DIODE_MAX_ITER):
        f = diode_residual(0.0, v, i_ph, i_0, 0.0, r_sh, vt)
        if abs(f) <= DIODE_TOL:
            return v
        bisect = hi - lo > 1e-6
        if f > 0.0:
            lo = v
        else:
            hi = v
        if bisect:
            v = 0.5 * (lo + hi)
        else:
            arg = v / vt
            v_new = v - f / (-i_0 * math.exp(_EXP_CAP if arg > _EXP_CAP else arg) / vt
                             - 1.0 / r_sh)
            if v_new <= lo or v_new >= hi:
                v_new = 0.5 * (lo + hi)
            v = v_new
    return v


def battery_tolerance(p):
    """Largest residual [W] the battery fixed point accepts at power ``p``: |p| / 10^9, at least 1 nW."""
    p = abs(p)  # a conditional, not max(): the same value, NaN included, at half the cost
    return 1e-9 * (p if p > 1.0 else 1.0)


def battery_ocv(soc, n_serial, charging):
    """Open-circuit voltage of one string [V]: the voltage law at zero current, for any SOC."""
    return n_serial * (2.0 + 0.16 * soc) if charging else n_serial * (1.965 + 0.12 * soc)


def battery_law(soc, delta_t, n_serial, discharge_exp, charging):
    """The current-free terms ``(ocv, n, k, ex, c, soc_term, temp)`` of one string's voltage law.

    A discharge has ``n = -n_serial`` (adding ``-n_serial * sag`` equals subtracting
    ``n_serial * sag`` bit for bit) and needs ``soc > 0``; a charge needs ``soc < 1``.
    """
    if charging:
        return (battery_ocv(soc, n_serial, True), n_serial, 6.0, 0.86, 0.036,
                0.48 / (1.0 - soc) ** 1.2, 1.0 - 0.025 * delta_t)
    return (battery_ocv(soc, n_serial, False), -n_serial, 4.0, discharge_exp, 0.02,
            0.27 / soc**1.5, 1.0 - 0.007 * delta_t)


def battery_voltage(i_str, c10, law):
    """One string's voltage [V] at current magnitude ``i_str`` under :func:`battery_law`."""
    ocv, n, k, ex, c, soc_term, temp = law
    if i_str == 0.0:
        return ocv
    return ocv + n * ((i_str / c10) * (k / (1.0 + i_str**ex) + soc_term + c) * temp)


def battery_current_for_power(p, soc, c10, delta_t, n_serial, n_parallel, discharge_exp):
    """Solve the bank current delivering power ``p`` (positive = discharge).

    The terminal voltage depends on the current, so ``i = p / v(i)`` is
    iterated as a damped fixed point. Returns ``(i_bank, residual, iterations, v)``
    with ``residual = i*v(i) - p`` and ``v`` the string voltage at ``i_bank``.
    """
    tol = battery_tolerance(p)
    # a NaN setpoint takes the charge branch
    law = battery_law(soc, delta_t, n_serial, discharge_exp, not p > 0.0)
    voltage = battery_voltage
    i = 0.0
    v = law[0]
    residual = -p
    prev_abs = abs(residual)
    for it in range(1, BATTERY_MAX_ITER + 1):
        if v <= 0.0:
            # voltage collapsed: the setpoint exceeds deliverable power
            return i, residual, it, v
        i_next = p / v
        v = voltage(abs(i_next) / n_parallel, c10, law)
        residual = i_next * v - p
        r_abs = abs(residual)
        if r_abs >= prev_abs:
            # overshoot: damp toward the previous iterate, once
            i_next = 0.5 * (i + i_next)
            v = voltage(abs(i_next) / n_parallel, c10, law)
            residual = i_next * v - p
            r_abs = abs(residual)
        if r_abs <= tol:
            return i_next, residual, it, v
        prev_abs = r_abs
        i = i_next
    return i, residual, BATTERY_MAX_ITER, v
