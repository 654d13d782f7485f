"""Pure-Python numeric kernels: the implicit diode solve, the open-circuit
voltage and the battery power->current fixed point.
"""

import math

# exp() saturates here to keep the bracketing residual finite and monotone
# far outside the physical operating range.
_EXP_CAP = 600.0

#: Residual tolerance [A] and iteration budget of the diode and
#: open-circuit solves.
DIODE_TOL = 1e-12
DIODE_MAX_ITER = 200

#: Relative power tolerance and iteration budget of the battery fixed point.
BATTERY_TOL_REL = 1e-9
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

    # Each loop writes diode_residual out once, with the same operations in
    # the same order, and keeps its exp() for the Newton derivative.
    exp = math.exp
    cap = _EXP_CAP
    tol = DIODE_TOL
    max_iter = DIODE_MAX_ITER
    i = 0.5 * (lo + hi)
    # Bisection while the bracket is wider than 1e-3 A. The bracket only
    # shrinks, so once it is that narrow every later iteration is Newton.
    for iters in range(1, max_iter + 1):
        x = v + r_s * i
        arg = x / vt
        e = exp(cap if arg > cap else arg)
        f = i_ph - i_0 * (e - 1.0) - x / r_sh - i
        if -tol <= f <= tol:
            return i, f, iters
        if not hi - lo > 1e-3:
            break
        # the residual is strictly decreasing in i
        if f > 0.0:
            lo = i
        else:
            hi = i
        i = 0.5 * (lo + hi)
    else:
        return i, diode_residual(i, v, i_ph, i_0, r_s, r_sh, vt), max_iter
    # Newton, kept inside the bracket; this iteration is already counted.
    rs_vt = r_s / vt
    rs_rsh = r_s / r_sh
    while True:
        if f > 0.0:
            lo = i
        else:
            hi = i
        i_new = i - f / (-i_0 * e * rs_vt - rs_rsh - 1.0)
        if i_new <= lo or i_new >= hi:
            i_new = 0.5 * (lo + hi)
        i = i_new
        x = v + r_s * i
        arg = x / vt
        e = exp(cap if arg > cap else arg)
        f = i_ph - i_0 * (e - 1.0) - x / r_sh - i
        if iters >= max_iter:
            return i, f, iters
        iters += 1
        if -tol <= f <= tol:
            return i, f, iters


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


def battery_current_for_power(p, soc, c10, delta_t, n_serial, n_parallel,
                              discharge_exp):
    """Solve the bank current delivering power ``p`` (positive = discharge).

    The terminal voltage depends on the current, so ``i = p / v(i)`` is
    iterated as a damped fixed point. Returns ``(i_bank, residual, iterations)``
    with ``residual = i*v(i) - p``.
    """
    if p == 0.0:
        return 0.0, 0.0, 0
    tol = BATTERY_TOL_REL * max(1.0, abs(p))
    # The voltage law of battery.discharge_voltage or charge_voltage, written
    # out as ocv + n * (i/c10 * (k / (1 + i**ex) + soc_term + c) * temp): the
    # terms that do not depend on the current are computed once. Discharge
    # uses n = -n_serial, and ocv + (-n_serial) * sag equals
    # ocv - n_serial * sag bit for bit.
    if p > 0.0:
        ocv = n_serial * (1.965 + 0.12 * soc)
        n, k, ex, c = -n_serial, 4.0, discharge_exp, 0.02
        soc_term = 0.27 / soc**1.5
        temp = 1.0 - 0.007 * delta_t
    else:
        ocv = n_serial * (2.0 + 0.16 * soc)
        n, k, ex, c = n_serial, 6.0, 0.86, 0.036
        soc_term = 0.48 / (1.0 - soc) ** 1.2
        temp = 1.0 - 0.025 * delta_t
    i = 0.0
    v = ocv
    residual = -p
    prev_abs = abs(residual)
    for it in range(1, BATTERY_MAX_ITER + 1):
        if v <= 0.0:
            # voltage collapsed: the setpoint exceeds deliverable power
            return i, residual, it
        i_next = p / v
        damped = False
        while True:
            i_str = abs(i_next) / n_parallel
            v = ocv if i_str == 0.0 else ocv + n * (
                (i_str / c10) * (k / (1.0 + i_str**ex) + soc_term + c) * temp
            )
            residual = i_next * v - p
            r_abs = abs(residual)
            if not r_abs >= prev_abs or damped:
                break
            # overshoot: damp toward the previous iterate, once
            i_next = 0.5 * (i + i_next)
            damped = True
        if r_abs <= tol:
            return i_next, residual, it
        prev_abs = r_abs
        i = i_next
    return i, residual, BATTERY_MAX_ITER
