"""Profile ingestion, sampling and the synthetic day."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvbatsim import profiles
from pvbatsim.config import build_sim_config
from pvbatsim.errors import ConfigError, ProfileError


def write(tmp_path, text, name="profile.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_csv(profile, path):
    """Write a profile in the two-column CSV schema, each value as ``repr`` (bit-exact)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"time_s,{profile.quantity}\n")
        for t, v in zip(profile.times, profile.values):
            fh.write(f"{t!r},{v!r}\n")


class TestLoadCsv:
    def test_minimal_two_rows(self, tmp_path):
        path = write(tmp_path, "time_s,irradiance_wm2\n0,0\n3600,1000\n")
        prof = profiles.load_csv(path, "irradiance_wm2")
        assert prof.times == (0.0, 3600.0)
        assert prof.values == (0.0, 1000.0)

    def test_non_monotonic_names_row(self, tmp_path):
        path = write(tmp_path, "time_s,load_w\n10,5\n5,8\n")
        with pytest.raises(ProfileError, match="row 3"):
            profiles.load_csv(path, "load_w")

    def test_negative_irradiance_rejected(self, tmp_path):
        path = write(tmp_path, "time_s,irradiance_wm2\n0,-50\n")
        with pytest.raises(ProfileError, match="negative"):
            profiles.load_csv(path, "irradiance_wm2")

    def test_negative_temperature_allowed(self, tmp_path):
        path = write(tmp_path, "time_s,temperature_c\n0,-12.5\n")
        prof = profiles.load_csv(path, "temperature_c")
        assert prof.values == (-12.5,)

    def test_nan_rejected(self, tmp_path):
        path = write(tmp_path, "time_s,load_w\n0,nan\n")
        with pytest.raises(ProfileError, match="row 2"):
            profiles.load_csv(path, "load_w")

    def test_wrong_header(self, tmp_path):
        path = write(tmp_path, "time_s,power\n0,1\n")
        with pytest.raises(ProfileError, match="header"):
            profiles.load_csv(path, "load_w")

    def test_unparseable_row_named(self, tmp_path):
        path = write(tmp_path, "time_s,load_w\n0,1\nabc,2\n")
        with pytest.raises(ProfileError, match="row 3"):
            profiles.load_csv(path, "load_w")

    def test_round_trip_bit_exact(self, tmp_path):
        path = write(tmp_path, "time_s,load_w\n0.0,60.5\n21600.37,150.125\n86400.0,0.001\n")
        prof = profiles.load_csv(path, "load_w")
        out = str(tmp_path / "out.csv")
        write_csv(prof, out)
        again = profiles.load_csv(out, "load_w")
        assert again.times == prof.times
        assert again.values == prof.values


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def profile_rows(draw):
    """A quantity and its rows: finite, strictly increasing times, in-range values."""
    quantity = draw(st.sampled_from(profiles.QUANTITIES))
    if quantity == "temperature_c":
        values = st.floats(-273.15, profiles.T_MAX_C, exclude_min=True)
    else:
        values = st.floats(0.0, allow_infinity=False)
    rows = draw(st.lists(st.tuples(FINITE, values), min_size=1, max_size=30,
                         unique_by=lambda row: row[0]))
    return quantity, sorted(rows)


class TestCsvRoundTrip:
    # fixed example sequence and no example database: repeatable, nothing written to disk
    @settings(database=None, derandomize=True, deadline=None, max_examples=200)
    @given(case=profile_rows())
    def test_write_then_load_is_bit_identical(self, case, tmp_path_factory):
        quantity, rows = case
        times, values = (tuple(column) for column in zip(*rows))
        path = str(tmp_path_factory.mktemp("round_trip") / "profile.csv")
        write_csv(profiles.TimeSeriesProfile(times, values, quantity), path)
        again = profiles.load_csv(path, quantity)
        assert [t.hex() for t in again.times] == [t.hex() for t in times]
        assert [v.hex() for v in again.values] == [v.hex() for v in values]


class TestSample:
    def test_knot_identity(self):
        prof = profiles.TimeSeriesProfile((0.0, 100.0), (0.0, 1000.0), "irradiance_wm2")
        assert profiles.sample(prof, 100.0) == 1000.0

    def test_linear_midpoint(self):
        prof = profiles.TimeSeriesProfile((0.0, 100.0), (0.0, 1000.0), "irradiance_wm2")
        assert profiles.sample(prof, 50.0) == pytest.approx(500.0)

    def test_step_hold(self):
        prof = profiles.TimeSeriesProfile((0.0, 100.0), (0.0, 1000.0), "load_w")
        assert profiles.sample(prof, 50.0) == 0.0
        assert profiles.sample(prof, 99.999) == 0.0

    def test_step_right_continuous(self):
        prof = profiles.TimeSeriesProfile((0.0, 10.0, 20.0), (1.0, 2.0, 3.0), "load_w")
        assert profiles.sample(prof, 10.0) == 2.0
        assert profiles.sample(prof, 9.999999) == 1.0

    def test_boundary_hold(self):
        prof = profiles.TimeSeriesProfile((0.0, 10.0), (1.0, 2.0), "load_w")
        assert profiles.sample(prof, -5.0) == 1.0
        assert profiles.sample(prof, 15.0) == 2.0


@st.composite
def irregular_profile(draw):
    """1-8 knots at irregular gaps, of a held (load) or a linear quantity."""
    start = draw(st.floats(-100.0, 100.0))
    gaps = draw(st.lists(st.floats(1e-3, 100.0), max_size=7))
    times = [start]
    for gap in gaps:
        if times[-1] + gap > times[-1]:
            times.append(times[-1] + gap)
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(times), max_size=len(times)))
    quantity = draw(st.sampled_from(profiles.QUANTITIES))
    return profiles.TimeSeriesProfile(tuple(times), tuple(values), quantity)


@st.composite
def read_times(draw, times):
    """Non-decreasing read times: before, on and past the knots, some repeated."""
    lo, hi = times[0] - 50.0, times[-1] + 50.0
    reads = draw(st.lists(st.floats(lo, hi), max_size=30))
    reads += draw(st.lists(st.sampled_from(times), max_size=10))
    reads += draw(st.lists(st.sampled_from(reads or [lo]), max_size=5))  # repeats
    return sorted(reads)


def bits(values):
    """The values' exact bits: tells -0.0 from 0.0, which ``==`` does not."""
    return [v.hex() for v in values]


class TestCursor:
    """A cursor read at non-decreasing times gives ``sample``'s values bit for bit."""

    @settings(database=None, derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data(), profile=irregular_profile())
    def test_matches_sample_at_sorted_times(self, data, profile):
        reads = data.draw(read_times(profile.times))
        at = profiles.cursor(profile)
        got = [at(t) for t in reads]
        want = [profiles.sample(profile, t) for t in reads]
        assert got == want
        assert bits(got) == bits(want)

    @settings(database=None, derandomize=True, deadline=None, max_examples=200)
    @given(profile=irregular_profile(), first=st.floats(-200.0, 50.0),
           dt=st.floats(1e-2, 70.0), n=st.integers(1, 200))
    def test_matches_sample_at_fixed_steps(self, profile, first, dt, n):
        # steps k * dt that need not divide the knot spacing, as the engine reads them
        reads = [first + k * dt for k in range(n)]
        at = profiles.cursor(profile)
        got = [at(t) for t in reads]
        want = [profiles.sample(profile, t) for t in reads]
        assert got == want
        assert bits(got) == bits(want)

    def test_default_day_every_second(self):
        config = build_sim_config()
        reads = [k * 1.0 for k in range(86401)]
        for profile in (config.irradiance, config.temperature, config.load):
            at = profiles.cursor(profile)
            got = [at(t) for t in reads]
            assert bits(got) == bits([profiles.sample(profile, t) for t in reads])


class TestValidation:
    def test_non_monotone_times(self, tmp_path):
        # profiles come in through the config, which names the file's key and row
        section = {name: {"csv": write(tmp_path, f"time_s,{column}\n0,1\n60,1\n", f"{name}.csv")}
                   for name, column in (("irradiance", "irradiance_wm2"),
                                        ("temperature", "temperature_c"))}
        section["load"] = {"csv": write(tmp_path, "time_s,load_w\n0,1\n0,2\n", "load.csv")}
        with pytest.raises(ConfigError, match=r"^profiles\.load\.csv: .*row 3: non-monotonic"):
            build_sim_config({"profiles": section})


def synthetic_day(**keys):
    """``(irradiance, temperature, load)`` of the synthetic day with the given config keys."""
    config = build_sim_config({"profiles": {"synthetic": keys}})
    return config.irradiance, config.temperature, config.load


class TestSyntheticDay:
    def test_degenerate_dark_day(self):
        irr, temp, _ = synthetic_day(g_peak_wm2=0.0, t_min_c=15.0, t_max_c=35.0)
        assert all(v == 0.0 for v in irr.values)
        assert all(v == 15.0 for v in temp.values)

    def test_noon_peak(self):
        irr, _, _ = synthetic_day(g_peak_wm2=1000.0)
        assert profiles.sample(irr, 12 * 3600.0) == pytest.approx(1000.0, rel=1e-9)

    def test_night_is_dark(self):
        irr, _, _ = synthetic_day()
        for h in (0, 3, 5.9, 18.1, 23):
            assert profiles.sample(irr, h * 3600.0) == 0.0

    def test_half_sine_integral(self):
        g_peak, daylight_h = 1000.0, 12.0
        irr, _, _ = synthetic_day(g_peak_wm2=g_peak)
        # trapezoid quadrature over the knot grid vs the closed form
        total = 0.0
        for k in range(len(irr.times) - 1):
            dt = irr.times[k + 1] - irr.times[k]
            total += 0.5 * (irr.values[k] + irr.values[k + 1]) * dt / 3600.0
        expected = g_peak * daylight_h * 2.0 / math.pi
        assert total == pytest.approx(expected, rel=1e-3)

    def test_load_blocks(self):
        _, _, load = synthetic_day()
        assert profiles.sample(load, 2 * 3600.0) == 60.0
        assert profiles.sample(load, 7 * 3600.0) == 150.0
        assert profiles.sample(load, 20 * 3600.0) == 300.0

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ConfigError, match=r"^profiles\.synthetic\.load_blocks\[1\] "
                                              r"overlaps profiles\.synthetic\.load_blocks\[0\]"):
            synthetic_day(load_blocks=[[0, 8, 100], [6, 12, 200]])

    def test_temperature_range(self):
        _, temp, _ = synthetic_day(t_min_c=10.0, t_max_c=30.0)
        assert min(temp.values) == pytest.approx(10.0)
        assert max(temp.values) == pytest.approx(30.0, abs=0.1)
