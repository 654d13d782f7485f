"""Maximum power point tracking: perturb & observe and a Mamdani fuzzy controller.

Both controllers emit duty-cycle commands for the boost stage. On that stage
the panel voltage is ``(1 - d) * v_bus``: raising the panel voltage means
LOWERING the duty cycle, which is why the fuzzy output centers run
opposite to the label order (a "positive big" power-slope correction is a
negative duty increment).
"""

from dataclasses import dataclass, field

#: Voltage difference below which the power slope is declared unmeasurable
#: and the error defaults to zero.
V_EPSILON = 1e-6

#: 25-rule base, row = CE label, column = E label, entries as label ints
#: (NB, NS, Z, PS, PB = -2..2). The matrix is symmetric in (E, CE) and
#: antisymmetric under sign negation; both properties are asserted by tests
#: against an independent transcription.
RULE_TABLE = (
    (-2, -2, -1, -1, 0),
    (-2, -1, -1, 0, 1),
    (-1, -1, 0, 1, 1),
    (-1, 0, 1, 1, 2),
    (0, 1, 1, 2, 2),
)


@dataclass(slots=True)
class MpptState:
    """Controller memory shared by both algorithms, updated in place by each step.

    The duty cycle ``d`` starts in ``[0, d_max]`` and the step functions clamp
    what they write to that range. ``p_prev``, ``v_prev``, ``e_prev`` and
    ``direction`` start at their values before the first sample.
    """

    d: float
    delta_d: float
    d_max: float
    p_prev: float = 0.0
    v_prev: float = 0.0
    e_prev: float = 0.0
    direction: int = 1


#: Membership centers of the five E and CE labels NB..PB on the normalized axis.
CENTERS = (-1.0, -0.5, 0.0, 0.5, 1.0)


@dataclass(frozen=True)
class FuzzyConfig:
    """Universes of the fuzzy controller.

    Crisp E and CE are divided by ``e_range``/``ce_range`` before
    fuzzification onto the axis of :data:`CENTERS`. ``out_centers``, derived
    from ``dd_range``, are duty increments [per label NB..PB]; they descend
    so that a positive power-slope label lowers the duty (boost topology,
    see module docstring).
    """

    e_range: float
    ce_range: float
    dd_range: float
    out_centers: tuple = field(init=False)

    def __post_init__(self):
        dd = self.dd_range
        object.__setattr__(self, "out_centers", (dd, dd / 2, 0.0, -dd / 2, -dd))


def po_step(p_now, v_now, state, config):
    """One perturb & observe decision; updates ``state`` in place and returns it.

    Power rose since the last sample: keep perturbing the same way. Power
    fell: reverse. Unchanged power leaves the duty and direction alone.
    ``config`` is not read: it gives P&O the signature of :func:`flc_step`.
    """
    dp = p_now - state.p_prev
    state.p_prev = p_now
    state.v_prev = v_now
    if dp == 0.0:
        return state
    direction = state.direction if dp > 0.0 else -state.direction
    d = state.d + direction * state.delta_d
    if d < 0.0:
        d = 0.0
    elif d > state.d_max:
        d = state.d_max
    state.d = d
    state.direction = direction
    return state


def _fire(x, centers):
    """Sets of ``x`` among the five triangles at ``centers``: ``(j, mu_j, mu_j+1)``.

    The triangles partition unity inside the universe and saturate at the
    outer labels beyond it, so at most two adjacent sets fire. A zero
    membership does not fire; NaN fires nothing.
    """
    if x <= centers[0]:
        return 0, 1.0, 0.0
    if x >= centers[4]:
        return 4, 1.0, 0.0
    for j in range(4):
        if x <= centers[j + 1]:
            t = (x - centers[j]) / (centers[j + 1] - centers[j])
            return j, 1.0 - t, t
    return 0, 0.0, 0.0


def flc_step(p_now, v_now, state, config):
    """One fuzzy decision; updates ``state`` in place and returns it.

    The power slope E = dP/dV between samples (zero when the voltage moved
    less than ``V_EPSILON``: the quotient is undefined there and zero is the
    neutral action) and its change CE are fuzzified, the rules that fire
    are combined with min for AND and max to aggregate, and the duty
    increment is the center of gravity over the singleton output centers
    (0 when nothing fires).
    """
    dv = v_now - state.v_prev
    if -V_EPSILON < dv < V_EPSILON:
        e = 0.0
    else:
        e = (p_now - state.p_prev) / dv
    ce = e - state.e_prev
    je, e_lo, e_hi = _fire(e / config.e_range, CENTERS)
    jc, c_lo, c_hi = _fire(ce / config.ce_range, CENTERS)
    act = [0.0, 0.0, 0.0, 0.0, 0.0]
    for ic, mc in ((jc, c_lo), (jc + 1, c_hi)):
        if mc == 0.0:
            continue
        row = RULE_TABLE[ic]
        for ie, me in ((je, e_lo), (je + 1, e_hi)):
            if me == 0.0:
                continue
            w = mc if mc < me else me
            k = row[ie] + 2
            if w > act[k]:
                act[k] = w
    # plain left-to-right sums in label order: the order fixes the bits of dd
    a0, a1, a2, a3, a4 = act
    total = a0 + a1 + a2 + a3 + a4
    dd = 0.0
    if total != 0.0:
        oc = config.out_centers
        dd = (0.0 + a0 * oc[0] + a1 * oc[1] + a2 * oc[2] + a3 * oc[3] + a4 * oc[4]) / total
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
