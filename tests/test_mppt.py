"""MPPT controller tests: rule base, fuzzy pipeline, tracking behavior."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvbatsim import engine, mppt, pv
from pvbatsim.config import build_sim_config

#: The built-in default run: its fuzzy universes and controller start state.
DEFAULTS = build_sim_config()


def start_state(**fields):
    """The default run's controller start state with ``fields`` replaced."""
    return replace(engine.init_state(DEFAULTS).mppt, **fields)


def track(kind, panel, n, v_bus):
    """``n`` steps of ``kind`` from the default start state at 1000 W/m2 and 25 degC."""
    return engine.run_tracking(kind, panel, 1000.0, 25.0, n, v_bus, start_state(),
                               DEFAULTS.fuzzy, DEFAULTS.eta)

# Independent transcription of the 25-rule base (row = CE, column = E,
# both ordered NB, NS, Z, PS, PB).
RULES = {
    ("NB", "NB"): "NB", ("NB", "NS"): "NB", ("NB", "Z"): "NS", ("NB", "PS"): "NS", ("NB", "PB"): "Z",
    ("NS", "NB"): "NB", ("NS", "NS"): "NS", ("NS", "Z"): "NS", ("NS", "PS"): "Z", ("NS", "PB"): "PS",
    ("Z", "NB"): "NS", ("Z", "NS"): "NS", ("Z", "Z"): "Z", ("Z", "PS"): "PS", ("Z", "PB"): "PS",
    ("PS", "NB"): "NS", ("PS", "NS"): "Z", ("PS", "Z"): "PS", ("PS", "PS"): "PS", ("PS", "PB"): "PB",
    ("PB", "NB"): "Z", ("PB", "NS"): "PS", ("PB", "Z"): "PS", ("PB", "PS"): "PB", ("PB", "PB"): "PB",
}
LABELS = ("NB", "NS", "Z", "PS", "PB")
L = {name: k - 2 for k, name in enumerate(LABELS)}


def rule_output(e_label, ce_label):
    """Consequent label int for the antecedent label ints (E, CE)."""
    return mppt.RULE_TABLE[ce_label + 2][e_label + 2]


# The fuzzy controller as separate stages: the reference composition that
# mppt.flc_step fuses and must reproduce bit for bit.

def compute_error_signals(p_now, p_prev, v_now, v_prev, e_prev):
    """Power slope E = dP/dV between samples, and its change CE.

    The slope is set to zero when the voltage moved less than ``V_EPSILON``.
    """
    dv = v_now - v_prev
    if abs(dv) < mppt.V_EPSILON:
        e = 0.0
    else:
        e = (p_now - p_prev) / dv
    return e, e - e_prev


def fuzzify(x, centers):
    """Memberships of ``x`` in the five triangular sets centered at ``centers``."""
    mu = [0.0, 0.0, 0.0, 0.0, 0.0]
    if x <= centers[0]:
        mu[0] = 1.0
        return tuple(mu)
    if x >= centers[4]:
        mu[4] = 1.0
        return tuple(mu)
    for j in range(4):
        if x <= centers[j + 1]:
            t = (x - centers[j]) / (centers[j + 1] - centers[j])
            mu[j] = 1.0 - t
            mu[j + 1] = t
            break
    return tuple(mu)


def infer(mu_e, mu_ce):
    """Activations of the five output labels: min for AND, max to aggregate."""
    act = [0.0, 0.0, 0.0, 0.0, 0.0]
    for ic in range(5):
        mc = mu_ce[ic]
        if mc == 0.0:
            continue
        row = mppt.RULE_TABLE[ic]
        for ie in range(5):
            me = mu_e[ie]
            if me == 0.0:
                continue
            w = mc if mc < me else me
            k = row[ie] + 2
            if w > act[k]:
                act[k] = w
    return tuple(act)


def defuzzify(activations, centers):
    """Center of gravity over the singleton output centers; 0 when nothing fires."""
    total = sum(activations)
    if total == 0.0:
        return 0.0
    return sum(a * c for a, c in zip(activations, centers)) / total


def reference_flc_step(p_now, v_now, state, config):
    """flc_step composed from the stages above."""
    e, ce = compute_error_signals(p_now, state.p_prev, v_now, state.v_prev, state.e_prev)
    mu_e = fuzzify(e / config.e_range, mppt.CENTERS)
    mu_ce = fuzzify(ce / config.ce_range, mppt.CENTERS)
    dd = defuzzify(infer(mu_e, mu_ce), config.out_centers)
    d = state.d + dd
    if d < 0.0:
        d = 0.0
    elif d > state.d_max:
        d = state.d_max
    state.p_prev = p_now
    state.v_prev = v_now
    state.e_prev = e
    state.d = d
    return state


class TestRuleTable:
    def test_matches_transcription_cell_for_cell(self):
        for (ce, e), out in RULES.items():
            assert rule_output(L[e], L[ce]) == L[out]

    def test_symmetric_in_e_and_ce(self):
        for i in range(5):
            for j in range(5):
                assert mppt.RULE_TABLE[i][j] == mppt.RULE_TABLE[j][i]

    def test_negation_antisymmetric(self):
        for i in range(5):
            for j in range(5):
                assert mppt.RULE_TABLE[4 - i][4 - j] == -mppt.RULE_TABLE[i][j]

    def test_corner_cells(self):
        assert rule_output(L["NB"], L["NB"]) == L["NB"]
        assert rule_output(L["PB"], L["NB"]) == L["Z"]


class TestErrorSignals:
    def test_zero_power_change(self):
        e, ce = compute_error_signals(100.0, 100.0, 40.0, 35.0, 3.0)
        assert e == 0.0
        assert ce == -3.0

    def test_slope_example(self):
        e, ce = compute_error_signals(110.0, 100.0, 41.0, 40.0, 0.0)
        assert e == pytest.approx(10.0)
        assert ce == pytest.approx(10.0)

    def test_voltage_guard(self):
        e, ce = compute_error_signals(120.0, 100.0, 40.0, 40.0, 5.0)
        assert e == 0.0
        assert ce == -5.0


class TestFuzzify:
    CENTERS = (-1.0, -0.5, 0.0, 0.5, 1.0)

    def test_center_of_z(self):
        assert fuzzify(0.0, self.CENTERS) == (0.0, 0.0, 1.0, 0.0, 0.0)

    def test_crossover_midpoint(self):
        mu = fuzzify(0.25, self.CENTERS)
        assert mu[2] == pytest.approx(0.5)
        assert mu[3] == pytest.approx(0.5)

    def test_saturation_beyond_pb(self):
        assert fuzzify(3.0, self.CENTERS) == (0.0, 0.0, 0.0, 0.0, 1.0)
        assert fuzzify(-3.0, self.CENTERS) == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_partition_of_unity(self):
        rng = np.random.RandomState(31)
        for x in rng.uniform(-1.0, 1.0, size=200):
            assert sum(fuzzify(x, self.CENTERS)) == pytest.approx(1.0)


class TestInfer:
    def test_two_active_rules(self):
        mu_e = (0.0, 0.5, 0.5, 0.0, 0.0)  # NS and Z
        mu_ce = (0.0, 0.0, 1.0, 0.0, 0.0)  # Z only
        act = infer(mu_e, mu_ce)
        # rules (E=NS, CE=Z) -> NS and (E=Z, CE=Z) -> Z
        assert act == (0.0, 0.5, 0.5, 0.0, 0.0)

    def test_crisp_corners(self):
        nb = (1.0, 0.0, 0.0, 0.0, 0.0)
        pb = (0.0, 0.0, 0.0, 0.0, 1.0)
        assert infer(nb, nb)[0] == 1.0  # output NB fully active
        act = infer(pb, nb)  # E=PB, CE=NB -> Z
        assert act[2] == 1.0
        assert sum(act) == 1.0


class TestDefuzzify:
    CENTERS = (-0.01, -0.005, 0.0, 0.005, 0.01)

    def test_symmetric_activations(self):
        assert defuzzify((0.0, 0.5, 0.0, 0.5, 0.0), self.CENTERS) == 0.0

    def test_single_label(self):
        assert defuzzify((0.0, 0.0, 0.0, 0.0, 1.0), self.CENTERS) == 0.01

    def test_two_term_mean(self):
        c = 0.006
        centers = (-2 * c, -c, 0.0, c, 2 * c)
        out = defuzzify((0.0, 0.5, 0.5, 0.0, 0.0), centers)
        assert out == pytest.approx(-c / 2)

    def test_nothing_fires(self):
        assert defuzzify((0.0,) * 5, self.CENTERS) == 0.0


# fixed example sequence and no example database: repeatable, nothing written to disk
deterministic = settings(database=None, derandomize=True, deadline=None, max_examples=400)

STEP = st.one_of(st.floats(-2e-6, 2e-6), st.floats(-5.0, 5.0))


class TestFlcStepMatchesStages:
    """The fused flc_step leaves exactly the state the staged composition does."""

    @deterministic
    @given(p_now=st.floats(0.0, 500.0), p_prev=st.floats(0.0, 500.0),
           v_prev=st.floats(0.0, 60.0), dv=STEP, e_prev=st.floats(-300.0, 300.0),
           d=st.floats(0.0, 0.95), e_range=st.floats(0.5, 100.0),
           ce_range=st.floats(0.5, 100.0), dd_range=st.floats(1e-4, 0.1))
    @example(p_now=120.0, p_prev=100.0, v_prev=30.0, dv=1.0, e_prev=0.0, d=0.4,
             e_range=40.0, ce_range=40.0, dd_range=0.01)  # on PS centers
    @example(p_now=300.0, p_prev=300.0, v_prev=35.0, dv=0.0, e_prev=0.0, d=0.3,
             e_range=40.0, ce_range=40.0, dd_range=0.01)  # on Z
    @example(p_now=500.0, p_prev=0.0, v_prev=10.0, dv=0.5, e_prev=-300.0, d=0.0,
             e_range=0.5, ce_range=0.5, dd_range=0.1)  # saturated, duty floor
    def test_bit_identical(self, p_now, p_prev, v_prev, dv, e_prev, d, e_range, ce_range,
                           dd_range):
        config = mppt.FuzzyConfig(e_range=e_range, ce_range=ce_range, dd_range=dd_range)
        fused, staged = (start_state(p_prev=p_prev, v_prev=v_prev, e_prev=e_prev, d=d)
                         for _ in range(2))
        v_now = v_prev + dv
        mppt.flc_step(p_now, v_now, fused, config)
        reference_flc_step(p_now, v_now, staged, config)
        assert fused == staged


class TestPoStep:
    """P&O reads no config: each call passes None."""

    def test_zero_delta_p_holds(self):
        state = start_state(p_prev=100.0, v_prev=40.0, d=0.3, direction=1)
        new = mppt.po_step(100.0, 41.0, state, None)
        assert new.d == 0.3
        assert new.direction == 1
        assert new.p_prev == 100.0 and new.v_prev == 41.0

    def test_rising_power_keeps_direction(self):
        state = start_state(p_prev=100.0, v_prev=40.0, d=0.3, direction=1)
        new = mppt.po_step(101.0, 40.2, state, None)
        assert new.direction == 1
        assert new.d == pytest.approx(0.3 + state.delta_d)

    def test_falling_power_reverses(self):
        state = start_state(p_prev=100.0, v_prev=40.0, d=0.3, direction=1)
        new = mppt.po_step(99.0, 40.2, state, None)
        assert new.direction == -1
        assert new.d == pytest.approx(0.3 - state.delta_d)

    def test_duty_clamped(self):
        state = start_state(p_prev=0.0, v_prev=0.0, d=0.0, direction=-1)
        new = mppt.po_step(1.0, 1.0, state, None)  # dp > 0 keeps direction -1
        assert new.d == 0.0


@pytest.fixture(scope="module")
def bench_panel():
    return DEFAULTS.panel


@pytest.fixture(scope="module")
def bench_mpp(bench_panel):
    return pv.mpp_oracle(1000.0, 298.15, bench_panel)


class TestTracking:
    V_BUS = 48.0
    N = 500

    def test_po_converges_and_cycles(self, bench_panel, bench_mpp):
        _, p_mpp = bench_mpp
        samples = track("po", bench_panel, self.N, self.V_BUS)
        mean, _ = engine.steady_stats(samples)
        assert mean >= 0.98 * p_mpp
        # steady state is a bounded cycle over at most 3 duty grid points
        tail = [round(d, 6) for d, _, _ in samples[-100:]]
        distinct = sorted(set(tail))
        assert len(distinct) <= 3
        period4 = tail[: len(tail) - 4] == tail[4:]
        period2 = tail[: len(tail) - 2] == tail[2:]
        assert period2 or period4

    def test_flc_converges(self, bench_panel, bench_mpp):
        _, p_mpp = bench_mpp
        samples = track("flc", bench_panel, self.N, self.V_BUS)
        mean, _ = engine.steady_stats(samples)
        assert mean >= 0.98 * p_mpp

    def test_flc_ripple_below_po(self, bench_panel):
        po = track("po", bench_panel, self.N, self.V_BUS)
        flc = track("flc", bench_panel, self.N, self.V_BUS)
        _, ripple_po = engine.steady_stats(po)
        _, ripple_flc = engine.steady_stats(flc)
        assert ripple_flc < ripple_po

    def test_flc_stationary_at_exact_mpp(self):
        config = DEFAULTS.fuzzy
        state = start_state(p_prev=300.0, v_prev=35.0, e_prev=0.0, d=0.3)
        new = mppt.flc_step(300.0, 35.0, state, config)
        assert new.d == 0.3

    def test_flc_correction_larger_far_from_mpp(self, bench_panel, bench_mpp):
        v_mpp, _ = bench_mpp
        config = DEFAULTS.fuzzy

        def correction(v0, v1):
            # two consecutive samples on the curve ending at v1
            p0 = v0 * pv.solve_operating_current(v0, 1000.0, 298.15, bench_panel)
            p1 = v1 * pv.solve_operating_current(v1, 1000.0, 298.15, bench_panel)
            state = start_state(p_prev=p0, v_prev=v0, e_prev=0.0, d=0.5)
            return mppt.flc_step(p1, v1, state, config).d - 0.5

        far = correction(10.0, 10.5)  # steep rising P-V slope
        near = correction(v_mpp - 0.6, v_mpp - 0.4)  # nearly flat
        # far from the peak the duty moves down (raising the panel voltage)
        # and by more than near the peak
        assert far < 0
        assert abs(far) > abs(near)

    def test_duty_bounds_random_inputs(self):
        rng = np.random.RandomState(13)
        config = DEFAULTS.fuzzy
        po = start_state(d=0.5)
        flc = start_state(d=0.5)
        for _ in range(1000):
            p = rng.uniform(0.0, 400.0)
            v = rng.uniform(0.0, 50.0)
            po = mppt.po_step(p, v, po, config)
            flc = mppt.flc_step(p, v, flc, config)
            assert 0.0 <= po.d <= po.d_max
            assert 0.0 <= flc.d <= flc.d_max

    def test_determinism(self, bench_panel):
        a = track("flc", bench_panel, 200, self.V_BUS)
        b = track("flc", bench_panel, 200, self.V_BUS)
        assert a == b
        c = track("po", bench_panel, 200, self.V_BUS)
        d = track("po", bench_panel, 200, self.V_BUS)
        assert c == d
