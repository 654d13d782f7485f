"""Solver contracts of the numeric kernels on random inputs."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvbatsim import _kernels, battery
from pvbatsim._kernels import _pure

# generic 80 W panel at 25 C
I_PH, I_0, R_S, R_SH, VT = 4.95, 7e-8, 0.16, 200.0, 1.2024
# default bank: C10 100 Ah, 24 cells in series, one string, discharge exponent 1.3
C10, N_SERIAL, N_PARALLEL, EXP = 100.0, 24.0, 1.0, 1.3

# fixed example sequence and no example database: repeatable, nothing written to disk
deterministic = settings(database=None, derandomize=True, deadline=None, max_examples=200)


def test_backend_name():
    assert _kernels.backend_name() == "pure"


def _bank(c10, delta_t, n_serial, n_parallel, discharge_exp):
    """The battery record the voltage laws read; the capacity coefficient is not one of them."""
    return battery.BatteryParams(c_10=c10, n_serial=n_serial, n_parallel=n_parallel,
                                 delta_t=delta_t, capacity_coeff=1.76,
                                 discharge_exp=discharge_exp)


BANK = _bank(C10, 0.0, N_SERIAL, N_PARALLEL, EXP)


def _capped_exp(x):
    """exp() saturated at 600, as the kernels evaluate it."""
    return math.exp(600.0 if x > 600.0 else x)


class TestDiode:
    @deterministic
    @given(v=st.floats(0.0, 22.0), g_scale=st.floats(0.05, 1.0))
    def test_solve_meets_tolerance(self, v, g_scale):
        i_ph = I_PH * g_scale
        i, residual, _ = _pure.solve_diode_current(v, i_ph, I_0, R_S, R_SH, VT)
        assert abs(residual) <= 1e-12
        assert residual == _pure.diode_residual(i, v, i_ph, I_0, R_S, R_SH, VT)

    @deterministic
    @given(i_ph=st.floats(0.0, 6.0, exclude_min=True))
    def test_voc_is_root(self, i_ph):
        v_oc = _pure.open_circuit_voltage(i_ph, I_0, R_SH, VT)
        assert v_oc > 0.0
        # at zero current the series resistance drops out of the panel equation
        assert abs(_pure.diode_residual(0.0, v_oc, i_ph, I_0, R_S, R_SH, VT)) <= 1e-12

    @deterministic
    @given(i_ph=st.floats(-6.0, 0.0))
    def test_voc_dark_is_zero(self, i_ph):
        assert _pure.open_circuit_voltage(i_ph, I_0, R_SH, VT) == 0.0


def reference_solve_diode_current(v, i_ph, i_0, r_s, r_sh, vt, tol=1e-12, max_iter=200):
    """The diode solve composed from ``diode_residual``: what the kernel inlines."""
    f0 = _pure.diode_residual(0.0, v, i_ph, i_0, r_s, r_sh, vt)
    if f0 == 0.0:
        return 0.0, 0.0, 0
    lo = -10.0 * i_0
    hi = i_ph + 1.0
    f_lo = _pure.diode_residual(lo, v, i_ph, i_0, r_s, r_sh, vt)
    extend = 0
    while f_lo < 0.0 and extend < 64:
        lo = lo * 10.0 - 1.0
        f_lo = _pure.diode_residual(lo, v, i_ph, i_0, r_s, r_sh, vt)
        extend += 1
    i = 0.5 * (lo + hi)
    f = _pure.diode_residual(i, v, i_ph, i_0, r_s, r_sh, vt)
    iters = 0
    while iters < max_iter:
        iters += 1
        if abs(f) <= tol:
            return i, f, iters
        if hi - lo > 1e-3:
            if f > 0.0:
                lo = i
            else:
                hi = i
            i = 0.5 * (lo + hi)
        else:
            if f > 0.0:
                lo = i
            else:
                hi = i
            arg = (v + r_s * i) / vt
            fp = -i_0 * _capped_exp(arg) * (r_s / vt) - r_s / r_sh - 1.0
            i_new = i - f / fp
            if i_new <= lo or i_new >= hi:
                i_new = 0.5 * (lo + hi)
            i = i_new
        f = _pure.diode_residual(i, v, i_ph, i_0, r_s, r_sh, vt)
    return i, f, iters


class TestDiodeMatchesReference:
    """The inlined solve returns exactly what the composed one does."""

    @deterministic
    @given(v=st.floats(-5.0, 60.0), g_scale=st.floats(0.0, 1.2),
           r_s=st.floats(0.01, 0.5), r_sh=st.floats(20.0, 2000.0),
           vt=st.floats(0.6, 2.5), i_0=st.floats(1e-10, 1e-6))
    @example(v=0.0, g_scale=0.0, r_s=R_S, r_sh=R_SH, vt=VT, i_0=I_0)   # dark, zero bias
    @example(v=10.0, g_scale=0.0, r_s=R_S, r_sh=R_SH, vt=VT, i_0=I_0)  # dark, forward bias
    @example(v=40.0, g_scale=1.0, r_s=R_S, r_sh=R_SH, vt=VT, i_0=I_0)  # far above Voc
    def test_bit_identical(self, v, g_scale, r_s, r_sh, vt, i_0):
        args = (v, I_PH * g_scale, i_0, r_s, r_sh, vt)
        assert _pure.solve_diode_current(*args) == reference_solve_diode_current(*args)


def reference_open_circuit_voltage(i_ph, i_0, r_sh, vt, tol=1e-12, max_iter=200):
    """The open-circuit solve with the zero-current residual written out."""
    if i_ph <= 0.0:
        return 0.0
    lo = 0.0
    hi = vt * math.log(i_ph / i_0 + 1.0) + 1.0
    v = 0.5 * (lo + hi)
    for _ in range(max_iter):
        f = i_ph - i_0 * (_capped_exp(v / vt) - 1.0) - v / r_sh
        if abs(f) <= tol:
            return v
        if hi - lo > 1e-6:
            if f > 0.0:
                lo = v
            else:
                hi = v
            v = 0.5 * (lo + hi)
        else:
            if f > 0.0:
                lo = v
            else:
                hi = v
            fp = -i_0 * _capped_exp(v / vt) / vt - 1.0 / r_sh
            v_new = v - f / fp
            if v_new <= lo or v_new >= hi:
                v_new = 0.5 * (lo + hi)
            v = v_new
    return v


class TestVocMatchesReference:
    """The open-circuit solve returns exactly what the written-out one does."""

    @deterministic
    @given(g_scale=st.floats(-0.1, 1.2), r_sh=st.floats(20.0, 2000.0),
           vt=st.floats(0.6, 2.5), i_0=st.floats(1e-10, 1e-6))
    @example(g_scale=1.0, r_sh=R_SH, vt=VT, i_0=I_0)   # the generic panel at 25 C
    @example(g_scale=0.0, r_sh=R_SH, vt=VT, i_0=I_0)   # dark
    @example(g_scale=1e-9, r_sh=R_SH, vt=VT, i_0=I_0)  # nearly dark
    def test_bit_identical(self, g_scale, r_sh, vt, i_0):
        args = (I_PH * g_scale, i_0, r_sh, vt)
        assert _pure.open_circuit_voltage(*args) == reference_open_circuit_voltage(*args)


def _bank_voltage(p, i, soc):
    i_str = abs(i) / N_PARALLEL
    if p > 0.0:
        return battery.discharge_voltage(soc, i_str, 0.0, BANK)
    return battery.charge_voltage(soc, i_str, 0.0, BANK)


def reference_battery_current_for_power(p, soc, c10, delta_t, n_serial, n_parallel,
                                        discharge_exp, tol_rel=1e-9, max_iter=60):
    """The fixed point composed from the voltage laws: what the kernel inlines."""
    if p == 0.0:
        return 0.0, 0.0, 0
    tol = tol_rel * max(1.0, abs(p))
    law = battery.discharge_voltage if p > 0.0 else battery.charge_voltage
    bank = _bank(c10, delta_t, n_serial, n_parallel, discharge_exp)

    def voltage(i_str):
        return law(soc, i_str, delta_t, bank)

    i = 0.0
    v = voltage(0.0)
    residual = -p
    prev_abs = abs(residual)
    for it in range(1, max_iter + 1):
        if v <= 0.0:
            return i, residual, it
        i_next = p / v
        v = voltage(abs(i_next) / n_parallel)
        residual = i_next * v - p
        if abs(residual) >= prev_abs:
            i_next = 0.5 * (i + i_next)
            v = voltage(abs(i_next) / n_parallel)
            residual = i_next * v - p
        if abs(residual) <= tol:
            return i_next, residual, it
        prev_abs = abs(residual)
        i = i_next
    return i, residual, max_iter


class TestBatteryMatchesReference:
    """The inlined fixed point returns exactly what the composed one does."""

    @deterministic
    @given(p=st.floats(-6000.0, 6000.0), soc=st.floats(0.006, 0.994),
           c10=st.floats(20.0, 500.0), delta_t=st.floats(-20.0, 20.0),
           n_serial=st.sampled_from([6, 12, 24, 48]), n_parallel=st.sampled_from([1, 2, 3]),
           discharge_exp=st.sampled_from([1.3, 1.8]))
    @example(p=250.0, soc=0.6, c10=C10, delta_t=0.0, n_serial=24, n_parallel=1,
             discharge_exp=EXP)
    @example(p=5000.0, soc=0.15, c10=C10, delta_t=0.0, n_serial=24, n_parallel=1,
             discharge_exp=EXP)  # stalls: beyond the deliverable maximum
    @example(p=-5e-324, soc=0.5, c10=C10, delta_t=0.0, n_serial=24, n_parallel=1,
             discharge_exp=EXP)  # the current underflows to zero
    def test_bit_identical(self, p, soc, c10, delta_t, n_serial, n_parallel, discharge_exp):
        args = (p, soc, c10, delta_t, n_serial, n_parallel, discharge_exp)
        assert (_pure.battery_current_for_power(*args)
                == reference_battery_current_for_power(*args))


class TestBatteryFixedPoint:
    @deterministic
    @given(soc=st.floats(0.1, 0.9), frac=st.floats(0.0, 1.0))
    def test_meets_tolerance_inside_envelope(self, soc, frac):
        # deliverable discharge maximum over a 0.1..60 A current grid
        p_max = max(
            i * battery.discharge_voltage(soc, i, 0.0, BANK)
            for i in (0.1 + k * 59.9 / 119 for k in range(120))
        )
        p = -2000.0 + frac * (0.9 * p_max + 2000.0)
        i, residual, _ = _pure.battery_current_for_power(
            p, soc, C10, 0.0, N_SERIAL, N_PARALLEL, EXP
        )
        tol = 1e-9 * max(1.0, abs(p))
        assert abs(residual) <= tol
        assert abs(i * _bank_voltage(p, i, soc) - p) <= tol

    def test_infeasible_setpoint_stalls(self):
        # beyond the deliverable maximum the fixed point cannot close
        _, residual, _ = _pure.battery_current_for_power(
            5000.0, 0.15, C10, 0.0, N_SERIAL, N_PARALLEL, EXP
        )
        assert abs(residual) > 1.0
