"""PV generator model tests.

Derived expectations come from independent oracles built here: outer
bisection for the open-circuit voltage, discrete sign changes for curve
shape, direct formula evaluation for the photocurrent law, a brute-force
voltage scan for the maximum power point.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvbatsim import _kernels, pv
from pvbatsim.config import build_sim_config
from pvbatsim.errors import ConfigError, InvariantViolation

T_REF = 298.15
G_REF = 1000.0


def layout(params, n_series, n_parallel):
    """Same panel, different array layout."""
    return replace(params, n_panels_series=n_series, n_panels_parallel=n_parallel)


#: One panel of the default config's 2 x 2 array.
PANEL = layout(build_sim_config().panel, 1, 1)


def brute_force_mpp(g, t_j, params):
    """Reference maximum power point that does not rely on concavity over [0, Voc].

    Scans [0, Voc] every 0.01 V, then refines the bracket around the best
    sample by golden-section search; the best sample is kept if the refined
    point is lower.
    """
    v_oc = pv.open_circuit_voltage(g, t_j, params)
    if v_oc <= 0.0:
        return 0.0, 0.0

    def power(v):
        return v * pv.solve_operating_current(v, g, t_j, params)

    n = max(2, int(v_oc / 0.01) + 1)
    step = v_oc / n
    best_k, best_p = 0, 0.0
    for k in range(n + 1):
        p = power(k * step)
        if p > best_p:
            best_k, best_p = k, p
    lo = max(0.0, (best_k - 1) * step)
    hi = min(v_oc, (best_k + 1) * step)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    p1, p2 = power(x1), power(x2)
    while hi - lo > 1e-10 * max(1.0, v_oc):
        if p1 < p2:
            lo, x1, p1 = x1, x2, p2
            x2 = lo + golden * (hi - lo)
            p2 = power(x2)
        else:
            hi, x2, p2 = x2, x1, p1
            x1 = hi - golden * (hi - lo)
            p1 = power(x1)
    v_mpp = 0.5 * (lo + hi)
    return v_mpp, max(power(v_mpp), best_p)


@pytest.fixture
def panel():
    return PANEL


@pytest.fixture
def array(panel):
    return layout(panel, 2, 2)


class TestPhotoCurrent:
    def test_reference_conditions_identity(self, panel):
        assert pv._panel_terms(G_REF, T_REF, panel)[0] == panel.i_ph_ref

    def test_zero_irradiance_zero_current(self, panel):
        assert pv._panel_terms(0.0, 310.0, panel)[0] == 0.0

    def test_linear_scaling(self, panel):
        assert pv._panel_terms(G_REF / 2, T_REF, panel)[0] == pytest.approx(
            panel.i_ph_ref / 2, rel=1e-15
        )

    def test_temperature_coefficient(self, panel):
        expected = panel.i_ph_ref * (1.0 + panel.k_i * 10.0)
        assert pv._panel_terms(G_REF, T_REF + 10.0, panel)[0] == pytest.approx(expected)

    def test_interpolated_absolute_zero_rejected(self, panel):
        # -273.15 degC, as interpolating toward a knot one ulp above it rounds
        # without the profile's clamp, is a 0 K junction
        with pytest.raises(InvariantViolation, match="junction temperature must be > 0 K"):
            pv.operating_point(10.0, G_REF, -273.15 + 273.15, panel)


class TestSolveOperatingCurrent:
    def test_short_circuit_with_zero_series_resistance(self, panel):
        flat = replace(panel, r_s=0.0)
        i_sc = pv.solve_operating_current(0.0, G_REF, T_REF, flat)
        # at v=0 and r_s=0 the diode and shunt terms vanish
        assert i_sc == pytest.approx(flat.i_ph_ref, abs=1e-9)

    def test_current_is_zero_at_outer_bisection_voc(self, panel):
        # independent oracle: bisect on v for the zero crossing of I(v)
        lo, hi = 0.0, 30.0
        assert pv.solve_operating_current(hi, G_REF, T_REF, panel) < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if pv.solve_operating_current(mid, G_REF, T_REF, panel) > 0:
                lo = mid
            else:
                hi = mid
        v_oc = 0.5 * (lo + hi)
        assert abs(pv.solve_operating_current(v_oc, G_REF, T_REF, panel)) <= 1e-9
        # the closed solver agrees with the oracle
        assert pv.open_circuit_voltage(G_REF, T_REF, panel) == pytest.approx(v_oc, abs=1e-7)

    def test_knee_curve_strictly_decreasing(self, panel):
        points = pv.iv_sweep(G_REF, T_REF, 200, panel)
        currents = [i for _, i, _ in points]
        assert all(a > b for a, b in zip(currents, currents[1:]))

    def test_residual_contract_along_sweep(self, panel):
        for v_pv, i_pv, _ in pv.iv_sweep(G_REF, T_REF, 100, panel):
            res = pv.solve_operating_current(v_pv, G_REF, T_REF, panel) - i_pv
            assert res == 0.0  # deterministic solver
            # recompute the implicit-equation residual from scratch
            vt = panel.thermal_voltage(T_REF)
            lhs = (
                panel.i_ph_ref
                - panel.i_0_ref * (math.exp((v_pv + panel.r_s * i_pv) / vt) - 1.0)
                - (v_pv + panel.r_s * i_pv) / panel.r_sh
            )
            assert abs(lhs - i_pv) <= 1e-9


class TestIvSweep:
    def test_two_points_are_the_endpoints(self, panel):
        points = list(pv.iv_sweep(G_REF, T_REF, 2, panel))
        assert len(points) == 2
        (v_0, i_0, _), (v_1, i_1, _) = points
        assert v_0 == 0.0
        i_sc = pv.solve_operating_current(0.0, G_REF, T_REF, panel)
        assert i_0 == i_sc
        assert v_1 == pytest.approx(pv.open_circuit_voltage(G_REF, T_REF, panel))
        assert abs(i_1) <= 1e-9

    def test_powers_unimodal(self, panel):
        points = pv.iv_sweep(G_REF, T_REF, 200, panel)
        powers = [p for _, _, p in points]
        diffs = [b - a for a, b in zip(powers, powers[1:])]
        sign_changes = sum(
            1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0)
        )
        assert sign_changes == 1

    def test_operating_point_invariant(self, panel):
        for v_pv, i_pv, p_pv in pv.iv_sweep(800.0, 310.0, 50, panel):
            assert p_pv == v_pv * i_pv


class TestMppOracle:
    def test_zero_irradiance(self, panel):
        assert pv.mpp_oracle(0.0, T_REF, panel) == (0.0, 0.0)

    def test_dominates_sweep(self, panel):
        _, p_mpp = pv.mpp_oracle(G_REF, T_REF, panel)
        for _, _, p_pv in pv.iv_sweep(G_REF, T_REF, 1000, panel):
            assert p_mpp + 1e-9 >= p_pv

    def test_monotone_in_irradiance(self, panel):
        powers = [pv.mpp_oracle(g, T_REF, panel)[1] for g in (1000.0, 800.0, 600.0)]
        assert powers[0] > powers[1] > powers[2]

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2)], ids=["panel", "array"])
    @pytest.mark.parametrize("t_c", [-15.0, 25.0, 65.0])
    @pytest.mark.parametrize("g", [1.0, 50.0, 200.0, 500.0, 800.0, 1000.0, 1200.0])
    def test_matches_brute_force_scan(self, panel, shape, t_c, g):
        params = layout(panel, *shape)
        t_j = t_c + 273.15
        v_ref, p_ref = brute_force_mpp(g, t_j, params)
        v_mpp, p_mpp = pv.mpp_oracle(g, t_j, params)
        assert p_mpp == pytest.approx(p_ref, rel=1e-9)
        assert v_mpp == pytest.approx(v_ref, rel=1e-6)


class TestArrayComposition:
    def test_parallel_doubles_current(self, panel):
        single = layout(panel, 1, 1)
        double = layout(panel, 1, 2)
        for v in (0.0, 5.0, 12.0, 17.0):
            i1 = pv.solve_operating_current(v, G_REF, T_REF, single)
            i2 = pv.solve_operating_current(v, G_REF, T_REF, double)
            assert i2 == pytest.approx(2.0 * i1, rel=1e-12)

    def test_series_doubles_voc(self, panel):
        v1 = pv.open_circuit_voltage(G_REF, T_REF, layout(panel, 1, 1))
        v2 = pv.open_circuit_voltage(G_REF, T_REF, layout(panel, 2, 1))
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_array_power_scales(self, array, panel):
        _, p1 = pv.mpp_oracle(G_REF, T_REF, panel)
        _, p4 = pv.mpp_oracle(G_REF, T_REF, array)
        assert p4 == pytest.approx(4.0 * p1, rel=1e-9)


def solve_then_clamp(v_pv, g, t_j, params):
    """The clamp decided from a full solve: what operating_point must return."""
    i_pv = pv.solve_operating_current(v_pv, g, t_j, params)
    clamped = i_pv < 0.0
    if clamped:
        i_pv = 0.0
    return i_pv, v_pv * i_pv, clamped


def zero_current_residual(v_pv, g, t_j, params):
    return _kernels.diode_residual(
        0.0, v_pv / params.n_panels_series, pv._panel_terms(g, t_j, params)[0],
        params.saturation_current(t_j), params.r_s, params.r_sh, params.thermal_voltage(t_j),
    )


@pytest.fixture
def diode_calls(monkeypatch):
    """Counts the calls that reach the diode kernel."""
    calls = []
    solve = _kernels.solve_diode_current

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(_kernels, "solve_diode_current", counting)
    return calls


# fixed example sequence and no example database: repeatable, nothing written to disk
deterministic = settings(database=None, derandomize=True, deadline=None, max_examples=300)


class TestBlockingDiodeClamp:
    @deterministic
    @given(shape=st.sampled_from([(1, 1), (2, 2)]), g=st.floats(0.0, 1200.0),
           t_c=st.floats(-15.0, 65.0), frac=st.floats(0.0, 3.0))
    @example(shape=(1, 1), g=0.0, t_c=25.0, frac=0.0)   # dark panel at zero bias
    @example(shape=(2, 2), g=0.0, t_c=25.0, frac=0.5)   # dark panel, forward bias
    @example(shape=(2, 2), g=1200.0, t_c=-15.0, frac=3.0)
    def test_matches_solve_then_clamp(self, shape, g, t_c, frac):
        # voltages up to 3x the open-circuit voltage of the brightest panel
        params = layout(PANEL, *shape)
        t_j = t_c + 273.15
        v_pv = frac * pv.open_circuit_voltage(1200.0, t_j, params)
        assert pv.operating_point(v_pv, g, t_j, params) == solve_then_clamp(v_pv, g, t_j, params)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2)], ids=["panel", "array"])
    @pytest.mark.parametrize("g,t_c", [(1.0, -15.0), (500.0, 25.0), (1200.0, 65.0)])
    def test_residual_at_the_tolerance(self, panel, shape, g, t_c, diode_calls):
        # bisect v onto the last float whose zero-current residual is >= -RESIDUAL_TOL
        params = layout(panel, *shape)
        t_j = t_c + 273.15
        lo, hi = 0.0, 2.0 * pv.open_circuit_voltage(g, t_j, params)
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                mid = math.nextafter(lo, hi)
            if zero_current_residual(mid, g, t_j, params) >= -pv.RESIDUAL_TOL:
                lo = mid
            else:
                hi = mid
        below = [math.nextafter(lo, 0.0), lo]  # residual just above -RESIDUAL_TOL
        above = [hi, math.nextafter(hi, math.inf)]  # residual just below it
        for v_pv in below + above:
            diode_calls.clear()
            point = pv.operating_point(v_pv, g, t_j, params)
            assert len(diode_calls) == (1 if v_pv in below else 0)
            assert point[2]  # the root is negative on both sides
            assert point == solve_then_clamp(v_pv, g, t_j, params)

    def test_clamped_point_skips_the_kernel(self, panel, diode_calls):
        v_oc = pv.open_circuit_voltage(G_REF, T_REF, panel)
        diode_calls.clear()
        assert pv.operating_point(v_oc + 1.0, G_REF, T_REF, panel)[2]
        assert diode_calls == []
        assert not pv.operating_point(10.0, G_REF, T_REF, panel)[2]
        assert len(diode_calls) == 1

    def test_above_voc_clamps_to_zero(self, panel):
        v_oc = pv.open_circuit_voltage(G_REF, T_REF, panel)
        i_pv, p_pv, clamped = pv.operating_point(v_oc + 1.0, G_REF, T_REF, panel)
        assert clamped
        assert i_pv == 0.0
        assert p_pv == 0.0

    def test_below_voc_not_clamped(self, panel):
        i_pv, _, clamped = pv.operating_point(10.0, G_REF, T_REF, panel)
        assert not clamped
        assert i_pv > 0

    def test_interpolated_negative_irradiance_clamps(self, panel):
        # an irradiance one rounding below zero, as interpolating down to a zero
        # knot rounds without the profile's clamp, gives no power
        assert pv.operating_point(10.0, -1.1102230246251565e-16, T_REF, panel) == (0.0, 0.0, True)


class TestResidualCheck:
    def test_nan_solve_raises(self, panel, monkeypatch):
        # a NaN residual fails the tolerance test instead of passing it
        monkeypatch.setattr(_kernels, "solve_diode_current", lambda *args: (math.nan, math.nan, 1))
        with pytest.raises(InvariantViolation, match="residual nan A"):
            pv.operating_point(10.0, G_REF, T_REF, panel)

    # 1e-9 A up to 1,000 A of photocurrent, 1e-12 * i_ph above it
    @pytest.mark.parametrize("i_ph_ref,accepted", [(4.95, False), (1000.0, False),
                                                   (1e4, True)])
    def test_tolerance_relative_to_photocurrent(self, panel, monkeypatch, i_ph_ref, accepted):
        monkeypatch.setattr(_kernels, "solve_diode_current", lambda *args: (1.0, 5e-9, 200))
        big = replace(panel, i_ph_ref=i_ph_ref)
        if accepted:
            assert pv.solve_operating_current(10.0, G_REF, T_REF, big) == 1.0
        else:
            with pytest.raises(InvariantViolation):
                pv.solve_operating_current(10.0, G_REF, T_REF, big)


class TestSaturationCurrentLaw:
    def test_constant_by_default(self, panel):
        assert panel.saturation_current(T_REF + 40.0) == panel.i_0_ref

    def test_optional_temperature_exponent(self, panel):
        hot = replace(panel, i_0_temp_exp=3.0)
        assert hot.saturation_current(T_REF) == panel.i_0_ref
        assert hot.saturation_current(T_REF + 40.0) > panel.i_0_ref
        # a larger saturation current pulls the open-circuit voltage down
        v_flat = pv.open_circuit_voltage(G_REF, T_REF + 40.0, panel)
        v_temp = pv.open_circuit_voltage(G_REF, T_REF + 40.0, hot)
        assert v_temp < v_flat


class TestParamValidation:
    """The panel's bounds are checked where a run's parameters come in: the config."""

    def test_invalid_ideality(self):
        with pytest.raises(ConfigError, match=r"^panel\.a must be <= 2"):
            build_sim_config({"panel": {"a": 2.5}})

    def test_negative_shunt(self):
        with pytest.raises(ConfigError, match=r"^panel\.r_sh must be > 0"):
            build_sim_config({"panel": {"r_sh": -1.0}})
