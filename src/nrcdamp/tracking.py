"""Tracking-controller design and the dual closed-loop sensitivity suite.

The outer tracker is a PI stage, optional notch biquads and an optional
first-order low-pass in series. With a damping controller C_d in the inner
loop and a tracker C_t outside, the loop functions evaluated here are

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
from dataclasses import dataclass

import numpy as np

from .lti import (
    RationalTF,
    bode_to_csv,
    freq_response,
    mag_db,
    tf_series,
    unwrapped_phase_deg,
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
    """Proportional gain from a target crossover: kp = 1/|G_d(i*w_b)|.

    Accepts the damped inner loop as a RationalTF, as a pointwise
    evaluator (omega -> complex), or as an FRF pair (omega grid, complex
    values); the FRF-pair path interpolates the magnitude log-log.
    """
    if isinstance(g_d, RationalTF):
        mag = abs(freq_response(g_d, omega_b))
    elif callable(g_d):
        mag = abs(complex(np.asarray(g_d(omega_b)).reshape(())))
    else:
        omega, values = g_d
        omega = np.asarray(omega, dtype=float)
        if not (omega[0] <= omega_b <= omega[-1]):
            raise ValueError("omega_b outside the FRF grid")
        mag = float(
            np.exp(np.interp(np.log(omega_b), np.log(omega), np.log(np.abs(values))))
        )
    if not np.isfinite(mag) or mag == 0.0:
        raise ValueError("|G_d| at omega_b must be finite and nonzero")
    return 1.0 / mag


def kp_plant_inverse_approx(omega_n: float, omega_b: float) -> float:
    """Low-frequency plant-inversion shortcut |(wn^2 - wb^2)/wn^2| for kp."""
    if omega_n <= 0.0 or omega_b <= 0.0:
        raise ValueError("omega_n and omega_b must be > 0")
    return abs((omega_n**2 - omega_b**2) / omega_n**2)


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


def steady_state_error(kp: float) -> float:
    """Step-reference steady error of the proportional-only dual loop when
    the inner integrator is lost to controller-gain mismatch: 2/(2 + kp)."""
    if kp <= 0.0:
        raise ValueError("kp must be > 0")
    return 2.0 / (2.0 + kp)


@dataclass(frozen=True)
class SensitivityBundle:
    """The six dual closed-loop responses on a shared frequency grid.

    ``flagged`` marks grid points where 1 + L_D vanished (division
    singular); values there are infinite rather than raising.
    """

    grid: np.ndarray
    t_yr: np.ndarray
    t_xr_comp: np.ndarray
    s_yn: np.ndarray
    s_xn: np.ndarray
    ps_yd: np.ndarray
    loop_gain: np.ndarray
    flagged: np.ndarray


def dual_sensitivities(plant_frf, ct_frf, cd_frf, grid) -> SensitivityBundle:
    """Pointwise dual closed-loop functions from aligned FRF arrays."""
    g = np.asarray(plant_frf, dtype=complex)
    ct = np.asarray(ct_frf, dtype=complex)
    cd = np.asarray(cd_frf, dtype=complex)
    grid = np.asarray(grid, dtype=float)
    if not (g.shape == ct.shape == cd.shape == grid.shape):
        raise ValueError("plant, controller and grid arrays must be aligned")
    loop = g * (ct + cd)
    one_plus = 1.0 + loop
    flagged = one_plus == 0.0
    safe = np.where(flagged, 1.0, one_plus)
    inf = complex(np.inf, 0.0)
    t_yr = np.where(flagged, inf, g * ct / safe)
    s_yn = np.where(flagged, inf, 1.0 / safe)
    ps_yd = np.where(flagged, inf, g / safe)
    s_xn = np.where(flagged, inf, -loop / safe)
    t_xr_comp = np.where(flagged, inf, (1.0 + g * cd) / safe)
    return SensitivityBundle(
        grid=grid,
        t_yr=t_yr,
        t_xr_comp=t_xr_comp,
        s_yn=s_yn,
        s_xn=s_xn,
        ps_yd=ps_yd,
        loop_gain=loop,
        flagged=flagged,
    )


def real_error_budget(bundle: SensitivityBundle, r_amp, d_amp, n_amp) -> np.ndarray:
    """Root-sum-square real-error spectrum for uncorrelated r, d, n inputs.

    e_r = sqrt((|T'_xr| r)^2 + (|PS_yd| d)^2 + (|S_xn| n)^2), with the
    input-disturbance path to the true position equal to PS_yd.
    """
    r = np.broadcast_to(np.asarray(r_amp, dtype=float), bundle.grid.shape)
    d = np.broadcast_to(np.asarray(d_amp, dtype=float), bundle.grid.shape)
    n = np.broadcast_to(np.asarray(n_amp, dtype=float), bundle.grid.shape)
    if np.any(r < 0.0) or np.any(d < 0.0) or np.any(n < 0.0):
        raise ValueError("amplitude spectra must be >= 0")
    return np.sqrt(
        (np.abs(bundle.t_xr_comp) * r) ** 2
        + (np.abs(bundle.ps_yd) * d) ** 2
        + (np.abs(bundle.s_xn) * n) ** 2
    )


@dataclass(frozen=True)
class BandwidthReport:
    """First departure of |T| from the +/- bound_db band.

    ``omega_c_rad_s`` is None when |T| never leaves the band on the grid
    (grid_end marker).
    """

    bound_db: float
    omega_c_rad_s: float | None
    grid_end: bool


def bandwidth(omega, t_values, bound_db: float, refine=None) -> BandwidthReport:
    """Band-exit bandwidth of a complementary-style response.

    The grid must start inside the band (|T| within +/- bound_db). The exit
    point is bracketed on the grid and refined by bisection on ``refine``
    (a callable omega -> complex T) when provided, else by log-linear
    interpolation of |T| in dB.
    """
    if bound_db <= 0.0:
        raise ValueError("bound_db must be > 0")
    omega = np.asarray(omega, dtype=float)
    m = mag_db(np.asarray(t_values, dtype=complex))
    if abs(m[0]) > bound_db:
        raise ValueError("|T| already outside the band at the grid start")
    outside = np.abs(m) > bound_db
    if not outside.any():
        return BandwidthReport(bound_db=bound_db, omega_c_rad_s=None, grid_end=True)
    i = int(np.argmax(outside))
    lo, hi = omega[i - 1], omega[i]
    if refine is not None:
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if abs(mag_db(np.asarray([refine(mid)]))[0]) > bound_db:
                hi = mid
            else:
                lo = mid
            if hi / lo < 1.0 + 1e-12:
                break
        wc = math.sqrt(lo * hi)
    else:
        # log-linear interpolation of |m| in dB towards the crossed edge
        edge = bound_db if m[i] > bound_db else -bound_db
        t = (edge - m[i - 1]) / (m[i] - m[i - 1])
        wc = lo * (hi / lo) ** t
    return BandwidthReport(bound_db=bound_db, omega_c_rad_s=float(wc), grid_end=False)


@dataclass(frozen=True)
class MarginsReport:
    """Unity-gain crossings with phase margins, plus the worst gain margin.

    Phase margin at each crossing follows the standard convention
    PM = (angle mod 360) - 180; an empty crossing list means |L| never
    crossed unity on the grid.
    """

    crossovers: tuple
    gain_margin_db: float | None


def _interp_crossing(omega, values, i, refine):
    """Refine |L| = 1 between grid points i, i+1; return (w, L(w))."""
    lo, hi = omega[i], omega[i + 1]
    if refine is not None:
        flo = abs(refine(lo)) - 1.0
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            fm = abs(refine(mid)) - 1.0
            if (fm > 0.0) == (flo > 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
            if hi / lo < 1.0 + 1e-12:
                break
        w = math.sqrt(lo * hi)
        return w, refine(w)
    x0, x1 = math.log(abs(values[i])), math.log(abs(values[i + 1]))
    t = -x0 / (x1 - x0)
    w = lo * (hi / lo) ** t
    return w, values[i] + t * (values[i + 1] - values[i])


def margins(omega, loop_values, refine=None) -> MarginsReport:
    """Gain/phase margins of a loop FRF.

    Every unity-magnitude crossing is reported with its phase margin; the
    gain margin is taken at the critical-phase crossing (odd multiples of
    180 degrees of the unwrapped phase) with the least |log gain|.
    ``refine`` (omega -> complex L) sharpens crossings past grid
    resolution.
    """
    omega = np.asarray(omega, dtype=float)
    values = np.asarray(loop_values, dtype=complex)
    mag = np.abs(values)
    crossings = []
    sign = np.sign(mag - 1.0)
    for i in np.flatnonzero(np.diff(sign) != 0):
        w, lw = _interp_crossing(omega, values, i, refine)
        pm = float(np.remainder(np.degrees(np.angle(lw)), 360.0) - 180.0)
        crossings.append((float(w), pm))
    crossings.sort()

    phase = unwrapped_phase_deg(values)
    gm_candidates = []
    k_lo = int(np.ceil((np.min(phase) + 180.0) / -360.0))
    k_hi = int(np.floor((np.max(phase) + 180.0) / -360.0))
    for k in range(min(k_lo, 0), max(k_hi, 0) + 1):
        target = -180.0 - 360.0 * k
        for i in np.flatnonzero(np.diff(np.sign(phase - target)) != 0):
            t = (target - phase[i]) / (phase[i + 1] - phase[i])
            g = math.exp(
                math.log(mag[i]) + t * (math.log(mag[i + 1]) - math.log(mag[i]))
            )
            gm_candidates.append(-20.0 * math.log10(g))
    gm = min(gm_candidates, key=abs) if gm_candidates else None
    return MarginsReport(crossovers=tuple(crossings), gain_margin_db=gm)


def nyquist_net_crossings(omega, loop_values) -> int:
    """Net signed crossings of the critical rays (-inf, -1) by the loop FRF.

    Counts unwrapped-phase passages of -180 - 360k with |L| > 1 over the
    positive-frequency branch (downward negative). For an open-loop-stable
    loop a nonzero net count means the closed loop is unstable.
    """
    values = np.asarray(loop_values, dtype=complex)
    phase = unwrapped_phase_deg(values)
    mag = np.abs(values)
    net = 0
    k_lo = int(math.floor((np.min(phase) + 180.0) / 360.0))
    k_hi = int(math.ceil((np.max(phase) + 180.0) / 360.0))
    for k in range(k_lo, k_hi + 1):
        target = -180.0 + 360.0 * k
        for i in np.flatnonzero(np.diff(np.sign(phase - target)) != 0):
            t = (target - phase[i]) / (phase[i + 1] - phase[i])
            g = math.exp(
                math.log(mag[i]) + t * (math.log(mag[i + 1]) - math.log(mag[i]))
            )
            if g > 1.0:
                net += -1 if phase[i + 1] < phase[i] else 1
    return net


@dataclass(frozen=True)
class ObjectiveResult:
    value: float | None
    target: float
    passed: bool


@dataclass(frozen=True)
class ObjectiveTargets:
    """Pass thresholds for the four loop-shaping objectives.

    min_bandwidth_rad_s defaults to the plant resonance when None;
    tracker_gain_threshold is the |C_t| level (absolute, 10 = 20 dB) that
    defines the high-gain tracker corner.
    """

    min_bandwidth_rad_s: float | None = None
    tracker_gain_threshold: float = 10.0
    min_tracker_corner_rad_s: float = 0.0
    min_resonance_loop_gain: float = 10.0
    max_highband_loop_gain: float = 1.0


@dataclass(frozen=True)
class ObjectiveReport:
    """Scorecard of the four dual closed-loop shaping objectives:

    1. tracking bandwidth (+/-3 dB band-exit of T_yr),
    2. high-gain tracker corner (largest omega with |C_t| above threshold),
    3. loop gain at the resonance (damping authority),
    4. peak loop gain in the high band (noise feedthrough).
    """

    bandwidth: ObjectiveResult
    tracker_corner: ObjectiveResult
    resonance_loop_gain: ObjectiveResult
    highband_loop_gain: ObjectiveResult


def objective_report(
    bundle: SensitivityBundle,
    ct_frf,
    omega_n: float,
    hi_band,
    targets: ObjectiveTargets = ObjectiveTargets(),
    refine_t=None,
) -> ObjectiveReport:
    """Evaluate the four shaping objectives against their targets."""
    ct = np.asarray(ct_frf, dtype=complex)
    grid = bundle.grid

    bw = bandwidth(grid, bundle.t_yr, 3.0, refine=refine_t)
    wc = bw.omega_c_rad_s if not bw.grid_end else float(grid[-1])
    bw_target = (
        targets.min_bandwidth_rad_s if targets.min_bandwidth_rad_s is not None else omega_n
    )
    o1 = ObjectiveResult(value=wc, target=bw_target, passed=wc > bw_target)

    high = np.abs(ct) >= targets.tracker_gain_threshold
    w_ct = float(grid[np.flatnonzero(high)[-1]]) if high.any() else 0.0
    o2 = ObjectiveResult(
        value=w_ct,
        target=targets.min_tracker_corner_rad_s,
        passed=w_ct >= targets.min_tracker_corner_rad_s,
    )

    ld_res = float(
        np.exp(
            np.interp(
                math.log(omega_n), np.log(grid), np.log(np.abs(bundle.loop_gain))
            )
        )
    )
    o3 = ObjectiveResult(
        value=ld_res,
        target=targets.min_resonance_loop_gain,
        passed=ld_res >= targets.min_resonance_loop_gain,
    )

    lo, hi = hi_band
    sel = (grid >= lo) & (grid <= hi)
    if not sel.any():
        raise ValueError("hi_band does not intersect the grid")
    ld_hi = float(np.max(np.abs(bundle.loop_gain[sel])))
    o4 = ObjectiveResult(
        value=ld_hi,
        target=targets.max_highband_loop_gain,
        passed=ld_hi < targets.max_highband_loop_gain,
    )
    return ObjectiveReport(
        bandwidth=o1, tracker_corner=o2, resonance_loop_gain=o3, highband_loop_gain=o4
    )


def bundle_to_csv(bundle: SensitivityBundle, path) -> None:
    """Write the sensitivity bundle as CSV (freq in Hz, dB/deg pairs)."""
    names = ("t_yr", "t_xr_comp", "s_yn", "s_xn", "ps_yd", "loop_gain")
    bode_to_csv(path, bundle.grid, {n: getattr(bundle, n) for n in names})
