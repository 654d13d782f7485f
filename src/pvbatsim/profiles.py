"""Environment and load time series: CSV ingestion, sampling, synthetic day.

CSV schema: UTF-8, comma separator, dot decimal, header ``time_s,<quantity>``
with quantity one of ``irradiance_wm2``, ``temperature_c``, ``load_w``.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

from pvbatsim.errors import ProfileError

QUANTITIES = ("irradiance_wm2", "temperature_c", "load_w")

#: Quantities that must be non-negative.
_NON_NEGATIVE = ("irradiance_wm2", "load_w")

#: Hottest temperature [degC] a profile or ``iv-curve --t`` may set: the top of
#: the range over which the diode solve and the MPP search are checked to converge.
T_MAX_C = 200.0

#: Knot spacing of the synthetic day's irradiance and temperature [s].
SYNTHETIC_KNOT_S = 60.0


@dataclass(frozen=True)
class TimeSeriesProfile:
    """Sampled signal over time; :func:`sample` reads it between the knots.

    ``quantity`` is one of :data:`QUANTITIES`; ``times`` and ``values`` are
    finite, equally long and non-empty, and ``times`` strictly increase.
    :func:`load_csv` and :func:`synthetic_day` build profiles that hold.
    """

    times: tuple
    values: tuple
    quantity: str


def sample(profile, t):
    """Value of ``profile`` at time ``t`` [s], clamped to the end values.

    Load holds the previous knot (right-continuous steps); irradiance and
    temperature are interpolated linearly.
    """
    times = profile.times
    if t < times[0] or t > times[-1]:
        return profile.values[0] if t < times[0] else profile.values[-1]
    k = bisect_right(times, t) - 1
    if k == len(times) - 1:
        return profile.values[-1]
    if profile.quantity == "load_w":
        return profile.values[k]
    t0, t1 = times[k], times[k + 1]
    v0, v1 = profile.values[k], profile.values[k + 1]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def cursor(profile):
    """:func:`sample` of ``profile`` as a function of ``t`` alone, for times that never decrease.

    The cursor keeps the knot interval of the last time it was given and
    moves forward only when ``t`` reaches the interval's end, so a run reads
    each knot once instead of bisecting at every step. Every value equals
    ``sample(profile, t)`` bit for bit.
    """
    times, values = profile.times, profile.values
    last = len(times) - 1
    held = profile.quantity == "load_w"
    # interval k holds times[k] <= t < times[k + 1]; -1 is before the first knot
    k = -1
    end = times[0]
    flat = True
    v0, dv, t0, span = values[0], 0.0, 0.0, 1.0

    def at(t):
        nonlocal k, end, flat, v0, dv, t0, span
        if t >= end:
            while k < last and times[k + 1] <= t:
                k += 1
            v0 = values[k]
            if k == last:
                end, flat = math.inf, True
            else:
                end, flat = times[k + 1], held
                dv, t0 = values[k + 1] - v0, times[k]
                span = end - t0
        if flat:
            return v0
        return v0 + dv * (t - t0) / span

    return at


def load_csv(path, column):
    """Read a two-column profile CSV with header ``time_s,<column>``.

    Validation failures (missing column, non-monotonic time, NaN, negative
    irradiance/load, temperature at or below absolute zero or above
    :data:`T_MAX_C`, unparseable rows) raise :class:`ProfileError` naming
    the offending row. ``column`` is one of :data:`QUANTITIES`.
    """
    times, values = [], []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        expected = f"time_s,{column}"
        if header != expected:
            raise ProfileError(f"{path}: expected header {expected!r}, got {header!r}")
        for row_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ProfileError(f"{path}: row {row_no}: expected 2 fields, got {len(parts)}")
            try:
                t, v = float(parts[0]), float(parts[1])
            except ValueError:
                raise ProfileError(f"{path}: row {row_no}: unparseable values {line!r}") from None
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ProfileError(f"{path}: row {row_no}: non-finite value")
            if column in _NON_NEGATIVE and v < 0:
                raise ProfileError(f"{path}: row {row_no}: negative {column} value {v}")
            # the engine takes the junction temperature as v + 273.15 K
            if column == "temperature_c" and not (v + 273.15 > 0 and v <= T_MAX_C):
                raise ProfileError(f"{path}: row {row_no}: temperature {v} degC is at or "
                                   f"below absolute zero or above {T_MAX_C:g} degC")
            if times and t <= times[-1]:
                raise ProfileError(f"{path}: row {row_no}: non-monotonic timestamp {t}")
            times.append(t)
            values.append(v)
    if not times:
        raise ProfileError(f"{path}: no data rows")
    return TimeSeriesProfile(tuple(times), tuple(values), column)


def synthetic_day(g_peak, t_min, t_max, load_blocks, sunrise_h, sunset_h, temp_lag_h):
    """Synthesize one day: half-sine irradiance, lagged temperature, block load.

    Irradiance is a half sine between sunrise and sunset peaking at ``g_peak``
    and zero at night. Temperature follows the irradiance shape delayed by
    ``temp_lag_h`` hours, spanning [t_min, t_max]. The load is the sum of
    non-overlapping ``(start_h, end_h, watts)`` blocks. Returns the triple
    ``(irradiance, temperature, load)``.

    The arguments are as :func:`pvbatsim.config.build_sim_config` checked
    them: ``g_peak >= 0``, ``0 <= sunrise_h < sunset_h <= 24`` and blocks
    with ``0 <= start_h < end_h <= 24`` and non-negative watts.
    """
    day_s = 86400.0
    sunrise, sunset = sunrise_h * 3600.0, sunset_h * 3600.0
    daylight = sunset - sunrise

    def irr_shape(t, lag=0.0):
        x = (t - lag - sunrise) / daylight
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.sin(math.pi * x)

    # temperature follows the normalized irradiance; a dark day has none
    temp_scale = 1.0 if g_peak > 0.0 else 0.0

    times = []
    g_values = []
    temp_values = []
    for k in range(int(day_s / SYNTHETIC_KNOT_S) + 1):
        t = k * SYNTHETIC_KNOT_S
        times.append(t)
        g_values.append(g_peak * irr_shape(t))
        temp_values.append(t_min + (t_max - t_min) * temp_scale * irr_shape(t, lag=temp_lag_h * 3600.0))

    irradiance = TimeSeriesProfile(tuple(times), tuple(g_values), "irradiance_wm2")
    temperature = TimeSeriesProfile(tuple(times), tuple(temp_values), "temperature_c")

    def load_at(t_h):
        for s, e, w in load_blocks:
            if s <= t_h < e:
                return w
        return 0.0

    edges = sorted({0.0, 24.0} | {h for s, e, _ in load_blocks for h in (s, e)})
    load_times, load_values = [], []
    for h in edges:
        load_times.append(h * 3600.0)
        load_values.append(load_at(h))
    load = TimeSeriesProfile(tuple(load_times), tuple(load_values), "load_w")
    return irradiance, temperature, load
