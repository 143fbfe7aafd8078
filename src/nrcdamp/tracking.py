"""Tracking-controller design and the dual closed-loop sensitivity suite.

The outer tracker is a PI stage, optional notch biquads and an optional
first-order low-pass in series. With a damping controller C_d in the inner
loop and a tracker C_t outside, the loop functions evaluated here are

    G C_d                            inner loop
    G_d    = G / (1 + G C_d)         damped plant (inner closed loop)
    C_t G_d                          outer loop
    L_D    = G (C_t + C_d)           dual loop gain
    T_yr   = G C_t / (1 + L_D)       reference -> measured output
    S_yn   = 1 / (1 + L_D)           output disturbance -> measured output
    PS_yd  = G / (1 + L_D)           input disturbance -> measured output
    S_xn   = -L_D / (1 + L_D)        output disturbance -> true position
    T'_xr  = (1 + G C_d) / (1 + L_D) reference -> real error

T_yr + T'_xr = 1 and S_yn - S_xn = 1 hold pointwise by construction; the
real-error budget combines the primed set under an uncorrelated-inputs
assumption.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .lti import (
    RationalTF,
    bode_to_csv,
    mag_db,
    tf_series,
    unwrap,
)


@dataclass(frozen=True)
class PiSpec:
    """Proportional-integral stage kp*(1 + wi/s); wi = 0 means pure P."""

    kp: float
    omega_i_rad_s: float = 0.0

    def __post_init__(self):
        if self.kp <= 0.0:
            raise ValueError("kp must be > 0")
        if self.omega_i_rad_s < 0.0:
            raise ValueError("omega_i_rad_s must be >= 0")


@dataclass(frozen=True)
class NotchSpec:
    """Biquad notch: unequal numerator/denominator quality factors."""

    omega_rad_s: float
    q_num: float
    q_den: float

    def __post_init__(self):
        if self.omega_rad_s <= 0.0:
            raise ValueError("notch omega_rad_s must be > 0")
        if self.q_num <= 0.0 or self.q_den <= 0.0:
            raise ValueError("notch quality factors must be > 0")


@dataclass(frozen=True)
class TrackerSpec:
    """PI + notches + low-pass tracker description."""

    pi: PiSpec
    notches: tuple = ()
    lowpass_corner_rad_s: float | None = None

    def __post_init__(self):
        notches = tuple(self.notches)
        freqs = [nt.omega_rad_s for nt in notches]
        if len(set(freqs)) != len(freqs):
            raise ValueError("notch frequencies must be distinct")
        object.__setattr__(self, "notches", notches)
        if self.lowpass_corner_rad_s is not None and self.lowpass_corner_rad_s <= 0.0:
            raise ValueError("lowpass_corner_rad_s must be > 0")


def build_tracker(spec: TrackerSpec) -> RationalTF:
    """Assemble the rational tracker kp(1 + wi/s) * prod(notch) * lowpass."""
    kp, wi = spec.pi.kp, spec.pi.omega_i_rad_s
    if wi > 0.0:
        ct = RationalTF.from_coeffs([kp * wi, kp], [0.0, 1.0])
    else:
        ct = RationalTF.gain(kp)
    for nt in spec.notches:
        w, qn, qd = nt.omega_rad_s, nt.q_num, nt.q_den
        num = [1.0, 1.0 / (qn * w), 1.0 / (w * w)]
        den = [1.0, 1.0 / (qd * w), 1.0 / (w * w)]
        ct = tf_series(ct, RationalTF.from_coeffs(num, den))
    if spec.lowpass_corner_rad_s is not None:
        wl = spec.lowpass_corner_rad_s
        ct = tf_series(ct, RationalTF.from_coeffs([wl], [wl, 1.0]))
    return ct


def tune_kp(g_d, omega_b: float) -> float:
    """Proportional gain from a target crossover: kp = 1/|G_d(i*w_b)|, where
    ``g_d`` evaluates the damped inner loop pointwise (omega -> complex)."""
    mag = abs(complex(np.asarray(g_d(omega_b)).reshape(())))
    if not np.isfinite(mag) or mag == 0.0:
        raise ValueError("|G_d| at omega_b must be finite and nonzero")
    return 1.0 / mag


def pm_feasibility(nu: float, n: float, exact_tan60: bool = False):
    """60-degree phase-margin feasibility of the marginal inner loop.

    For crossover ratio nu = wn/wb, the quadratic

        c*nu^2*n^2 - 2*nu^3*n + c*(1 - 2*nu^2)

    must be <= 0 for the proportional outer loop to retain about 60 degrees
    of phase margin; c is 1.75 by default (the design-rule rounding) or
    tan(60 deg) with ``exact_tan60``. Returns (value, feasible).
    """
    if nu <= 0.0 or n <= 0.0:
        raise ValueError("nu and n must be > 0")
    c = math.tan(math.radians(60.0)) if exact_tan60 else 1.75
    value = c * nu**2 * n**2 - 2.0 * nu**3 * n + c * (1.0 - 2.0 * nu**2)
    return value, value <= 0.0


class Frf:
    """G, C_d and C_t at the frequencies ``omega`` (rad/s), and the loop
    functions of the module docstring taken from them on each access. So a
    value kept on a grid holds three arrays beside omega, not twelve. The
    five closed loops over 1 + L_D are complex(inf, 0) where 1 + L_D == 0."""

    __slots__ = ("omega", "g", "cd", "ct")

    def __init__(self, omega, g, cd, ct):
        self.omega, self.g, self.cd, self.ct = omega, g, cd, ct

    # Each derived operand is named before use. From 256 KiB on, numpy
    # computes ``a * <temporary>`` in the temporary's buffer as
    # ``<temporary> * a``, and a complex product with its operands swapped
    # can differ in the last bit from the eager algebra's.

    @property
    def inner(self):
        return self.g * self.cd

    @property
    def gd(self):
        inner = self.inner
        return self.g / (1.0 + inner)

    @property
    def outer(self):
        gd = self.gd
        return self.ct * gd

    @property
    def ld(self):
        return self.g * (self.ct + self.cd)

    @staticmethod
    def _closed(num, ld):
        """num / (1 + ld), complex(inf, 0) where 1 + ld == 0. With no singular
        point it costs one ``all`` test: ``at``'s T_yr is read in every bisection."""
        one_plus = 1.0 + ld
        if one_plus.all():
            return num / one_plus
        singular = one_plus == 0.0
        return np.where(singular, complex(np.inf, 0.0), num / np.where(singular, 1.0, one_plus))

    @property
    def t_yr(self):
        return self._closed(self.g * self.ct, self.ld)

    @property
    def t_xr_comp(self):
        inner = self.inner
        return self._closed(1.0 + inner, self.ld)

    @property
    def s_yn(self):
        return self._closed(1.0, self.ld)

    @property
    def s_xn(self):
        ld = self.ld
        return self._closed(-ld, ld)

    @property
    def ps_yd(self):
        return self._closed(self.g, self.ld)


def dual_sensitivities(plant_frf, ct_frf, cd_frf, grid) -> Frf:
    """The dual closed-loop functions of aligned G, C_t and C_d arrays."""
    g = np.asarray(plant_frf, dtype=complex)
    ct = np.asarray(ct_frf, dtype=complex)
    cd = np.asarray(cd_frf, dtype=complex)
    grid = np.asarray(grid, dtype=float)
    if not (g.shape == ct.shape == cd.shape == grid.shape):
        raise ValueError("plant, controller and grid arrays must be aligned")
    return Frf(grid, g, cd, ct)


@dataclass(frozen=True)
class _Brackets:
    """Grid brackets [grid[i], grid[i + 1]] of one response, across which
    ``side`` changes.

    ``values`` is the response on ``grid``; ``side`` maps values aligned
    with ``i`` on their last axis (one row per halving) to booleans.
    ``residual`` maps them the same way to a float that is zero where the
    response crosses, such as |T| in dB less the bound; ``_bisect`` only
    predicts from it where to halve, so a residual that is None, NaN or of
    the wrong sign costs evaluator calls and never changes a bit. ``field``
    names the response among the fields of an evaluator that returns
    several (such as ``design.Design.at``); None reads the evaluator's
    value itself.
    """

    grid: np.ndarray
    values: np.ndarray
    i: np.ndarray
    side: Callable
    field: str | None = None
    residual: Callable | None = None

    def pick(self, evaluated):
        return evaluated if self.field is None else getattr(evaluated, self.field)

    def residuals(self, values):
        if self.residual is None:
            return np.full(np.shape(values), np.nan)
        return self.residual(values)


def _wide(lo: float, hi: float) -> bool:
    """The halving test, numpy's ``hi / lo >= 1 + 1e-12``, on Python floats,
    which raise where numpy divides by zero."""
    if lo:
        return hi / lo >= 1.0 + 1e-12
    return math.copysign(1.0, lo) * hi > 0.0


def _bisect(brackets, evaluator):
    """Refine the crossings inside every bracket of the ``_Brackets`` sets.

    Each bracket is halved at its geometric midpoint sqrt(lo*hi), keeping
    the half whose ends ``side`` tells apart, while hi/lo >= 1 + 1e-12 and
    for at most 80 halvings. Each pass predicts every bracket's crossing
    by regula falsi in log omega on the residuals at its ends, and forms
    the midpoints of the halvings that lead to the prediction, each as one
    halving would form it and with that halving's own stop test and cap.
    One evaluator call on a flat omega array evaluates them all. The pass
    keeps each bracket's halvings up to and including the first whose side
    test disagrees with the prediction, so each bracket ends on the lo and
    hi that one halving per call gives, and sets refined together or apart
    give the same bits; the prediction only decides how many halvings a
    pass confirms (at least one per bracket). Returns, for each set, the
    crossings and its response there.
    """
    if not brackets:
        return []
    ends = np.cumsum([0] + [b.i.size for b in brackets]).tolist()
    cuts = [slice(a, z) for a, z in zip(ends[:-1], ends[1:])]
    lo = np.concatenate([b.grid[b.i] for b in brackets]).tolist()
    hi = np.concatenate([b.grid[b.i + 1] for b in brackets]).tolist()
    left = np.concatenate([b.side(b.values[b.i]) for b in brackets]).tolist()
    r_lo, r_hi = np.concatenate(
        [b.residuals(np.stack((b.values[b.i], b.values[b.i + 1]))) for b in brackets], axis=1
    ).tolist()
    halvings = [0] * len(lo)
    todo = [k for k in range(len(lo)) if _wide(lo[k], hi[k])]
    while todo:
        # regula falsi in log omega: where the chord of the residuals
        # through the bracket's ends crosses zero
        with np.errstate(all="ignore"):
            los, his, r_los, r_his = (np.array([x[k] for k in todo]) for x in (lo, hi, r_lo, r_hi))
            guesses = (los * (his / los) ** (r_los / (r_los - r_his))).tolist()
        # each bracket's path: the midpoints of its halvings, had each side
        # test agreed with the guess (a NaN guess keeps every lower half);
        # the stop test is ``_wide``, inlined where lo is not zero
        omega, start, length, guess = [], [0] * len(lo), [0] * len(lo), [math.nan] * len(lo)
        for k, g in zip(todo, guesses):
            a, z = lo[k], hi[k]
            start[k], guess[k] = len(omega), g
            for _ in range(80 - halvings[k]):
                m = math.sqrt(a * z)
                omega.append(m)
                if m <= g:
                    a = m
                else:
                    z = m
                if not (z / a >= 1.0 + 1e-12 if a else _wide(a, z)):
                    break
            length[k] = len(omega) - start[k]
        evaluated = evaluator(np.array(omega))
        starts, lengths = np.array(start), np.array(length)
        for b, cut in zip(brackets, cuts):
            n = lengths[cut]
            if not n.any():
                continue
            # values aligned with i: row j holds each path's jth midpoint,
            # and repeats its last one past the path's end
            rows = np.minimum(np.arange(n.max())[:, None], np.maximum(n - 1, 0))
            values = b.pick(evaluated)[starts[cut] + rows]
            sides, residuals = b.side(values).T.tolist(), b.residuals(values).T.tolist()
            for k, side, residual in zip(range(cut.start, cut.stop), sides, residuals):
                if not length[k]:
                    continue
                a, z, ra, rz, g, was = lo[k], hi[k], r_lo[k], r_hi[k], guess[k], left[k]
                path = omega[start[k] : start[k] + length[k]]
                for kept, (m, s, r) in enumerate(zip(path, side, residual), 1):
                    stay = s == was
                    if stay:
                        a, ra = m, r
                    else:
                        z, rz = m, r
                    if stay != (m <= g):
                        break
                lo[k], hi[k], r_lo[k], r_hi[k] = a, z, ra, rz
                halvings[k] += kept
        todo = [k for k in todo if halvings[k] < 80 and _wide(lo[k], hi[k])]
    w = np.sqrt(np.array(lo) * np.array(hi))
    evaluated = evaluator(w)
    return [(w[cut], b.pick(evaluated)[cut]) for b, cut in zip(brackets, cuts)]


def _refine(plans, evaluator) -> list:
    """The result of each plan, refined with every other in one ``_bisect``.

    A plan is a pair (brackets, report): a list of ``_Brackets`` sets and
    the function that builds the result from their refined crossings and
    responses.
    """
    refined = iter(_bisect([b for brackets, _ in plans for b in brackets], evaluator))
    return [report([next(refined) for _ in brackets]) for brackets, report in plans]


@dataclass(frozen=True)
class BandwidthReport:
    """First departure of |T| from the +/- bound_db band.

    ``omega_c_rad_s`` is None when |T| never leaves the band on the grid
    (grid_end marker).
    """

    bound_db: float
    omega_c_rad_s: float | None
    grid_end: bool


def _bandwidth_plan(omega, values, bound_db: float, field=None):
    """``bandwidth``'s plan (see ``_refine``): the bracket of the first band
    exit, none when |T| stays in the band."""
    if bound_db <= 0.0:
        raise ValueError("bound_db must be > 0")
    omega, t = np.asarray(omega, dtype=float), np.asarray(values)
    outside = np.abs(mag_db(t)) > bound_db
    if outside[0]:
        raise ValueError("|T| already outside the band at the grid start")
    if not outside.any():
        return [], lambda _: BandwidthReport(bound_db=bound_db, omega_c_rad_s=None, grid_end=True)
    i = np.argmax(outside, keepdims=True) - 1
    band_exit = _Brackets(omega, t, i, lambda v: np.abs(mag_db(v)) > bound_db, field,
                          lambda v: np.abs(mag_db(v)) - bound_db)

    def report(refined):
        ((wc, _),) = refined
        return BandwidthReport(bound_db=bound_db, omega_c_rad_s=float(wc[0]), grid_end=False)

    return [band_exit], report


def bandwidth(omega, values, evaluator, bound_db: float) -> BandwidthReport:
    """Band-exit bandwidth of a complementary-style response.

    ``values`` is T on the grid ``omega``; ``evaluator`` maps omega to T.
    The grid must start inside the band (|T| within +/- bound_db); the
    first exit is bracketed on the grid and refined by bisection.
    """
    (report,) = _refine([_bandwidth_plan(omega, values, bound_db)], evaluator)
    return report


@dataclass(frozen=True)
class MarginsReport:
    """Unity-gain crossings with phase margins, worst gain margin, Nyquist count.

    Phase margin at each crossing follows the standard convention
    PM = (angle mod 360) - 180; an empty crossing list means |L| never
    crossed unity on the grid.
    """

    crossovers: tuple
    gain_margin_db: float | None
    nyquist_net_crossings: int


def _critical_brackets(omega, values, field, resonances=()):
    """Brackets where the grid-unwrapped phase of a loop passes
    -180 - 360k, and whether each passage runs downward.

    ``resonances`` are the (omega, zeta) of the loop's second-order poles
    that may lie on or next to the imaginary axis. Across such a pole the
    phase turns by nearly 180 degrees between two grid points, which the
    grid alone cannot tell from a turn the other way. So the phase each
    one takes, -atan2(2 zeta w omega, w^2 - omega^2), is taken out before
    unwrapping and put back after: the phase falls by 180 degrees across
    each, as along a Nyquist contour that passes an axis pole on its right.
    """
    lag = sum(np.arctan2(2.0 * z * w * omega, w * w - omega * omega) for w, z in resonances)
    phase = np.degrees(unwrap(np.angle(values) + lag) - lag)
    k = np.arange(
        math.ceil((np.max(phase) + 180.0) / -360.0),
        math.floor((np.min(phase) + 180.0) / -360.0) + 1,
    )
    targets = -180.0 - 360.0 * k
    kk, i = np.nonzero(np.diff(np.sign(phase - targets[:, None]), axis=1))
    middle, target = 0.5 * (phase[i] + phase[i + 1]), targets[kk]

    def branch(v):
        # the wrapped phase, put on its bracket's grid-unwrapped branch
        a = np.degrees(np.angle(v))
        return a + 360.0 * np.round((middle - a) / 360.0)

    brackets = _Brackets(omega, values, i, lambda v: branch(v) > target, field,
                         lambda v: branch(v) - target)
    return brackets, phase[i + 1] < phase[i]


def _margins_plan(omega, values, field=None, resonances=()):
    """``margins``' plan (see ``_refine``): the unity-gain and critical-phase
    brackets of the loop, whose lightly damped poles are ``resonances``
    (see ``_critical_brackets``)."""
    omega, values = np.asarray(omega, dtype=float), np.asarray(values)
    i = np.flatnonzero(np.diff(np.sign(np.abs(values) - 1.0)))
    unity = _Brackets(omega, values, i, lambda v: np.abs(v) > 1.0, field, mag_db)
    critical, down = _critical_brackets(omega, values, field, resonances)

    def report(refined):
        (w, lw), (_, lc) = refined
        pm = np.remainder(np.degrees(np.angle(lw)), 360.0) - 180.0
        crossings = sorted(zip(w.tolist(), pm.tolist()))
        gms = (-20.0 * np.log10(np.abs(lc))).tolist()
        gm = min(gms, key=abs) if gms else None
        net = int(np.sum(np.where(down, -1, 1)[np.abs(lc) > 1.0]))
        return MarginsReport(
            crossovers=tuple(crossings), gain_margin_db=gm, nyquist_net_crossings=net
        )

    return [unity, critical], report


def margins(omega, values, evaluator) -> MarginsReport:
    """Gain/phase margins of a loop L: ``values`` is L on the grid
    ``omega``; ``evaluator`` maps omega to L.

    Every unity-magnitude crossing on the grid is refined and reported
    with its phase margin; the gain margin is taken at the refined
    critical-phase crossing (-180 - 360k of the unwrapped phase) with the
    least |log gain|. The passages there with |L| > 1, downward negative,
    sum to the net crossings of the critical rays (-inf, -1); for an
    open-loop-stable loop a nonzero count means an unstable closed loop.
    """
    (report,) = _refine([_margins_plan(omega, values)], evaluator)
    return report


def nyquist_net_crossings(omega, values, evaluator) -> int:
    """Net signed crossings of the critical rays by the loop (see ``margins``)."""
    return margins(omega, values, evaluator).nyquist_net_crossings


# Pass thresholds of the objectives; the bandwidth target is the resonance.
TRACKER_GAIN_THRESHOLD = 10.0  # |C_t| (absolute, 10 = 20 dB) at the tracker corner
MIN_TRACKER_CORNER_RAD_S = 0.0
MIN_RESONANCE_LOOP_GAIN = 10.0
MAX_HIGHBAND_LOOP_GAIN = 1.0


@dataclass(frozen=True)
class ObjectiveResult:
    value: float | None
    target: float
    passed: bool


@dataclass(frozen=True)
class ObjectiveReport:
    """Scorecard of the four dual closed-loop shaping objectives:

    1. tracking bandwidth (+/-3 dB band-exit of T_yr),
    2. high-gain tracker corner (largest omega with |C_t| above threshold),
    3. loop gain at the resonance (damping authority),
    4. peak loop gain in the grid's top half-decade (noise feedthrough).
    """

    bandwidth: ObjectiveResult
    tracker_corner: ObjectiveResult
    resonance_loop_gain: ObjectiveResult
    highband_loop_gain: ObjectiveResult


def _corner_plan(grid, ct, field=None):
    """O2's plan (see ``_refine``): the bracket where |C_t| last falls below
    its threshold, none when it never rises above it or ends above it."""
    high = np.flatnonzero(np.abs(ct) >= TRACKER_GAIN_THRESHOLD)
    if high.size == 0:
        return [], lambda _: 0.0
    if high[-1] == grid.size - 1:
        return [], lambda _: float(grid[-1])
    corner = _Brackets(grid, ct, high[-1:], lambda v: np.abs(v) >= TRACKER_GAIN_THRESHOLD, field,
                       lambda v: mag_db(v / TRACKER_GAIN_THRESHOLD))

    def report(refined):
        ((w, _),) = refined
        return float(w[0])

    return [corner], report


def _scorecard(frf: Frf, bw3, w_ct: float, ld_res: float, omega_n: float):
    """``objective_report`` from L_D on ``frf``'s grid and the refined values:
    the tracker corner ``w_ct`` and the resonance loop gain ``ld_res``."""
    grid, ld = frf.omega, frf.ld
    wc = float(grid[-1]) if bw3.grid_end else bw3.omega_c_rad_s
    o1 = ObjectiveResult(value=wc, target=omega_n, passed=wc > omega_n)
    o2 = ObjectiveResult(
        value=w_ct,
        target=MIN_TRACKER_CORNER_RAD_S,
        passed=w_ct >= MIN_TRACKER_CORNER_RAD_S,
    )
    o3 = ObjectiveResult(
        value=ld_res,
        target=MIN_RESONANCE_LOOP_GAIN,
        passed=ld_res >= MIN_RESONANCE_LOOP_GAIN,
    )
    ld_hi = float(np.max(np.abs(ld[grid >= grid[-1] / math.sqrt(10.0)])))
    o4 = ObjectiveResult(
        value=ld_hi,
        target=MAX_HIGHBAND_LOOP_GAIN,
        passed=ld_hi < MAX_HIGHBAND_LOOP_GAIN,
    )
    return ObjectiveReport(
        bandwidth=o1, tracker_corner=o2, resonance_loop_gain=o3, highband_loop_gain=o4
    )


def objective_report(
    frf: Frf,
    bw3: BandwidthReport,
    ct_eval,
    ld_eval,
    omega_n: float,
) -> ObjectiveReport:
    """Evaluate the four shaping objectives against their targets.

    ``frf`` holds C_t and L_D on the grid and ``bw3`` is the +/-3 dB
    bandwidth of T_yr; ``ct_eval`` and ``ld_eval`` map omega to C_t and
    L_D. The tracker corner is refined where |C_t| crosses its threshold
    and the resonance loop gain is |L_D(i w_n)|; the high band is the
    grid's top half-decade.
    """
    (w_ct,) = _refine([_corner_plan(frf.omega, frf.ct)], ct_eval)
    ld_res = float(np.abs(ld_eval(omega_n)))
    return _scorecard(frf, bw3, w_ct, ld_res, omega_n)


def bundle_to_csv(frf: Frf, path) -> None:
    """Write the six dual closed-loop functions as CSV (freq in Hz, dB/deg pairs)."""
    names = ("t_yr", "t_xr_comp", "s_yn", "s_xn", "ps_yd")
    bode_to_csv(path, frf.omega, {**{n: getattr(frf, n) for n in names}, "loop_gain": frf.ld})
