"""Inner damping-loop construction and analysis.

Closing the constant-gain damping controller around a resonant plant in
negative feedback yields a third-order inner loop whose pole placement is
fully characterized in closed form for the marginal tuning (gamma = 1):
one pole at the origin plus a pair that migrates left, coalesces and
bifurcates onto the real axis as the corner ratio n grows. The functions
here cover that analysis plus the delay (first-order all-pass), load
(frequency scaling), two-mode and tamed variants.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lti import Polynomial, RationalTF, dc_gain, poles_zeros, tf_feedback
from .plants import PlantSpec, build_plant, two_mode_zero
from .tracking import _Brackets, _bisect
from .lti import freq_response, write_csv

# |Im(pole)| below this times the pole scale counts as real.
REAL_POLE_REL_TOL = 1e-9


@dataclass(frozen=True)
class InnerLoopResult:
    """Damped inner loop with its pole/zero/DC summary.

    ``min_resonant_damping`` is the smallest damping ratio over complex-
    conjugate pole pairs, or None once every pole is real (complete
    damping).
    """

    g_d: RationalTF
    poles: np.ndarray
    zeros: np.ndarray
    dc: float
    min_resonant_damping: float | None


@dataclass(frozen=True)
class RouthReport:
    """First Routh column of a cubic with stability/marginality verdicts."""

    first_column: tuple
    stable: bool
    marginal: bool


@dataclass(frozen=True)
class RootLocusTrace:
    """Resonant pole pair tracked over a grid of corner ratios n."""

    n_values: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    bifurcation_n: float | None


@dataclass(frozen=True)
class SecondModePeak:
    """Damped second-mode peak location and its shift direction vs n."""

    omega_rad_s: float
    case: str  # "at" (n = alpha), "above" (n < alpha), "below" (n > alpha)


def damping_ratio(p: complex) -> float:
    """Damping ratio of a pole: -Re(p)/|p|, clipped to [-1, 1]."""
    if p == 0:
        raise ValueError("damping ratio undefined for a pole at the origin")
    return float(np.clip(-p.real / abs(p), -1.0, 1.0))


def min_resonant_damping(poles) -> float | None:
    """Smallest damping ratio over the complex pole pairs, None if all real."""
    poles = np.asarray(poles, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(poles)))) if poles.size else 1.0
    complex_poles = poles[np.abs(poles.imag) > REAL_POLE_REL_TOL * scale]
    if complex_poles.size == 0:
        return None
    return float(min(damping_ratio(p) for p in complex_poles))


def analyze_inner_loop(g_d: RationalTF) -> InnerLoopResult:
    """Pole/zero/DC report for an already-closed inner loop."""
    pz = poles_zeros(g_d)
    return InnerLoopResult(
        g_d=g_d,
        poles=pz.poles,
        zeros=pz.zeros,
        dc=dc_gain(g_d),
        min_resonant_damping=min_resonant_damping(pz.poles),
    )


def inner_closed_loop(plant: PlantSpec, nrc_tf: RationalTF) -> InnerLoopResult:
    """Close the damping loop G/(1 + G*C_d) rationally and analyze it.

    The plant must be delay-free here; delayed plants go through the
    all-pass substitution (:func:`delayed_inner_loop`) or an FRF-level
    closure instead.
    """
    g = build_plant(plant)
    return analyze_inner_loop(tf_feedback(g, nrc_tf))


def inner_charpoly(omega_n: float, zeta_n: float, gamma: float, n: float) -> Polynomial:
    """Characteristic cubic of the single-mode inner loop, ascending coeffs.

    s^3 + (n + 2*zeta)*wn*s^2 + (2*zeta*n + 1 + gamma)*wn^2*s
        + n*(1 - gamma)*wn^3

    Exact construction (no feedback arithmetic), so the gamma = 1 constant
    term is exactly zero.
    """
    return Polynomial(_charpoly_coeffs(omega_n, zeta_n, gamma, n))


def _charpoly_coeffs(omega_n, zeta_n, gamma, n) -> list:
    """Ascending coefficients of :func:`inner_charpoly`; ``n`` may be an array."""
    w = omega_n
    return [
        n * (1.0 - gamma) * w**3,
        (2.0 * zeta_n * n + 1.0 + gamma) * w**2,
        (n + 2.0 * zeta_n) * w,
        1.0,
    ]


def routh_cubic(charpoly: Polynomial) -> RouthReport:
    """Routh-Hurwitz first column for a cubic characteristic polynomial.

    Stability requires every first-column entry positive. The marginal flag
    fires when exactly the constant-term row vanishes (within 1e-12 of the
    coefficient scale) while the rest stay positive, which is the
    integrator-at-the-origin case.
    """
    if charpoly.degree != 3:
        raise ValueError("routh_cubic needs a degree-3 polynomial")
    c0, c1, c2, c3 = charpoly.coeffs
    if c3 <= 0.0:
        raise ValueError("leading coefficient must be > 0")
    if c2 == 0.0:
        raise ValueError("zero in the s^2 Routh row; not supported")
    col = tuple(float(v) for v in (c3, c2, (c2 * c1 - c3 * c0) / c2, c0))
    scale = float(np.max(np.abs(charpoly.coeffs)))
    zero_c0 = abs(c0) <= 1e-12 * scale
    stable = all(v > 0.0 for v in col) and not zero_c0
    marginal = zero_c0 and all(v > 0.0 for v in col[:3])
    return RouthReport(first_column=col, stable=bool(stable), marginal=bool(marginal))


def inner_poles_closed_form(omega_n: float, zeta_n: float, n: float):
    """The three inner-loop poles for the marginal tuning (gamma = 1).

    p1 = 0 exactly; p2, p3 solve the remaining quadratic
    s^2 + (2*zeta + n)*wn*s + (2*zeta*n + 2)*wn^2.
    """
    w = omega_n
    b = (2.0 * zeta_n + n) * w
    c = (2.0 * zeta_n * n + 2.0) * w * w
    disc = b * b - 4.0 * c
    root = cmath.sqrt(complex(disc, 0.0))
    p2 = (-b + root) / 2.0
    p3 = (-b - root) / 2.0
    return 0.0 + 0.0j, p2, p3


def _pair_discriminant(zeta_n: float, gamma: float, n):
    """Discriminant of the inner cubic (omega-normalized) over arrays of n,
    times (1 + n)^-4; < 0 means a complex pole pair survives, >= 0 means
    complete damping."""
    # a s^3 + b s^2 + c s + d with wn = 1, each coefficient over (1 + n): the
    # discriminant is quartic in them, so its sign holds and no term overflows
    a = 1.0 / (1.0 + n)
    b = (n + 2.0 * zeta_n) * a
    c = (2.0 * zeta_n * n + 1.0 + gamma) * a
    d = n * (1.0 - gamma) * a
    return (
        18.0 * a * b * c * d
        - 4.0 * b**3 * d
        + b * b * c * c
        - 4.0 * a * c**3
        - 27.0 * a * a * d * d
    )


# the ordered pairs of three roots, in itertools.permutations order
_ROOT_PAIRS = np.array(list(itertools.permutations(range(3), 2)))


def _cubic_roots(coeffs) -> np.ndarray:
    """Roots of the monic cubics with ascending coefficient arrays
    ``coeffs``, one row per cubic sorted by (real, imag): the bits of
    :func:`lti.poly_roots` on each, from one batched ``eigvals`` call on
    the companion matrices as numpy's ``polycompanion`` builds them."""
    c = np.stack(np.broadcast_arrays(*coeffs), axis=-1)
    companion = np.zeros(c.shape[:-1] + (3, 3))
    companion[..., [1, 2], [0, 1]] = 1.0
    companion[..., -1] -= c[..., :-1] / c[..., -1:]
    roots = np.linalg.eigvals(companion).astype(complex)
    order = np.lexsort((roots.imag, roots.real), axis=-1)
    return np.take_along_axis(roots, order, axis=-1)


def root_locus_n(omega_n: float, zeta_n: float, gamma: float, n_grid) -> RootLocusTrace:
    """Track the resonant pole pair of the delay-free inner loop around the
    mode (omega_n, zeta_n) over corner ratios n > 0.

    Pole branches are continued by nearest-neighbor matching between
    consecutive grid points; the bifurcation ratio (first n at which the
    characteristic cubic's discriminant is >= 0, so the pair is real) is
    refined by the geometric bisection of :func:`tracking._bisect`, to 1e-12
    relative. None is reported when the pair never bifurcates on the grid.
    """
    n_values = np.asarray(list(n_grid), dtype=float)
    if n_values.size < 2 or np.any(np.diff(n_values) <= 0.0):
        raise ValueError("n_grid must be strictly increasing with >= 2 points")
    if n_values[0] <= 0.0:
        raise ValueError("n_grid must be > 0")

    roots = _cubic_roots(_charpoly_coeffs(omega_n, zeta_n, gamma, n_values))
    p2 = np.empty(n_values.size, dtype=complex)
    p3 = np.empty(n_values.size, dtype=complex)
    # start the pair on the conjugate roots; fall back to the two
    # largest-magnitude roots when the pair is already real
    by_imag = sorted(roots[0], key=lambda r: -abs(r.imag))
    if abs(by_imag[0].imag) > REAL_POLE_REL_TOL * omega_n:
        p2[0], p3[0] = sorted(by_imag[:2], key=lambda r: -r.imag)
    else:
        p2[0], p3[0] = sorted(roots[0], key=lambda r: -abs(r))[:2]
    for i in range(1, n_values.size):
        # choose the assignment of the three new roots to (p2, p3) that
        # moves the pair the least; argmin keeps the first of equal costs
        pairs = roots[i][_ROOT_PAIRS]
        cost = np.abs(pairs[:, 0] - p2[i - 1]) + np.abs(pairs[:, 1] - p3[i - 1])
        p2[i], p3[i] = pairs[cost.argmin()]

    disc = functools.partial(_pair_discriminant, zeta_n, gamma)
    values = disc(n_values)
    hits = np.flatnonzero(values >= 0.0)
    bifurcation_n = None
    if hits.size and hits[0] > 0:
        ((n_bif, _),) = _bisect(
            [_Brackets(n_values, values, hits[:1] - 1, lambda v: v >= 0.0)], disc
        )
        bifurcation_n = float(n_bif[0])
    elif hits.size and hits[0] == 0:
        bifurcation_n = float(n_values[0])
    return RootLocusTrace(n_values=n_values, p2=p2, p3=p3, bifurcation_n=bifurcation_n)


def locus_to_csv(trace: RootLocusTrace, path) -> None:
    """Write a locus trace as CSV (n, re_p2, im_p2, re_p3, im_p3)."""
    write_csv(
        path,
        ("n", "re_p2", "im_p2", "re_p3", "im_p3"),
        (trace.n_values, trace.p2.real, trace.p2.imag, trace.p3.real, trace.p3.imag),
    )


def m_from_tau(tau_s: float, omega_n: float) -> float:
    """Normalized all-pass corner m = w_b/w_n = 2/(tau*w_n) for a delay."""
    if tau_s <= 0.0 or omega_n <= 0.0:
        raise ValueError("tau_s and omega_n must be > 0")
    return 2.0 / (tau_s * omega_n)


def m_for_phase_lag(phi_deg: float) -> float:
    """m that makes the first-order all-pass delay lag phi degrees at w_n."""
    if not (0.0 < phi_deg < 180.0):
        raise ValueError("phi_deg must lie in (0, 180)")
    return 1.0 / math.tan(math.radians(phi_deg) / 2.0)


def delayed_inner_loop(omega_n: float, n: float, m: float) -> RationalTF:
    """Inner loop for the undamped, gamma = 1, delay-bearing plant.

    The delay is replaced by the first-order all-pass with corner
    w_b = m*w_n before closure, giving the quartic

        -wn^2 (s^2 + (n-m) wn s - m n wn^2)
        -----------------------------------------------
        s(s^3 + (n+m) wn s^2 + n m wn^2 s + 2 (n+m) wn^3)

    The delay contributes the fourth pole; the constant term stays zero, so
    the marginal integrator survives the delay.
    """
    if n <= 0.0 or m <= 0.0 or omega_n <= 0.0:
        raise ValueError("omega_n, n and m must be > 0")
    w = omega_n
    num = Polynomial([m * n * w**4, -(n - m) * w**3, -(w**2)])
    den = Polynomial(
        [0.0, 2.0 * (n + m) * w**3, n * m * w**2, (n + m) * w, 1.0]
    )
    return RationalTF(num, den)


def loaded_inner_charpoly(
    omega_n: float, zeta_n: float, n: float, eta: float
) -> Polynomial:
    """Characteristic cubic when the resonance drops to eta*wn but the
    controller keeps its unloaded tuning (gamma = 1, w_a = n*wn)."""
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must lie in (0, 1]")
    w = omega_n
    wh = eta * omega_n
    return Polynomial(
        [
            0.0,
            2.0 * zeta_n * n * w * wh + 2.0 * wh * wh,
            n * w + 2.0 * zeta_n * wh,
            1.0,
        ]
    )


def loaded_damping_check(zeta_n: float, n: float, eta: float) -> bool:
    """True when the loaded inner loop is completely damped.

    Complete damping of the loaded pair requires n >= 2*eta*(sqrt(2)+zeta);
    any controller satisfying the unloaded condition (eta = 1) therefore
    keeps it for every lighter-resonance load.
    """
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must lie in (0, 1]")
    return n >= 2.0 * eta * (math.sqrt(2.0) + zeta_n)


def two_mode_inner_loop(
    alpha: float, beta: float, gamma: float, n: float, omega_n: float
) -> RationalTF:
    """Inner loop of the undamped two-mode plant with k = gamma/(1+beta).

    Built directly from the closed-form quintic coefficients; the damping
    gain divides out the raised DC gain of the two-mode sum.
    """
    if alpha <= 1.0 or beta <= 0.0:
        raise ValueError("need alpha > 1 and beta > 0")
    if omega_n <= 0.0 or n <= 0.0:
        raise ValueError("omega_n and n must be > 0")
    w = omega_n
    k = gamma / (1.0 + beta)
    x = (1.0 + alpha**2 * beta) * w**2
    y = alpha**2 * w**4 * (1.0 + beta)
    num = Polynomial([y * n * w, y, x * n * w, x])
    den = Polynomial(
        [
            alpha**2 * n * w**5 * (1.0 - k * (1.0 + beta)),
            alpha**2 * w**4 * (1.0 + k * (1.0 + beta)),
            ((1.0 + alpha**2) - k * (1.0 + alpha**2 * beta)) * n * w**3,
            ((1.0 + alpha**2) + k * (1.0 + alpha**2 * beta)) * w**2,
            n * w,
            1.0,
        ]
    )
    return RationalTF(num, den)


def damped_second_peak(
    alpha: float, beta: float, gamma: float, n: float, omega_n: float
) -> SecondModePeak:
    """Locate the damped second-mode peak of the two-mode inner loop.

    The peak is the FRF magnitude maximum on (w_z, 3*alpha*wn), refined by
    parabolic interpolation on the log-magnitude. Its shift direction
    relative to the open-loop second mode follows the corner ratio: the
    peak stays put for n = alpha, moves up for n < alpha and down for
    n > alpha.
    """
    g2d = two_mode_inner_loop(alpha, beta, gamma, n, omega_n)
    wz = two_mode_zero(alpha, beta, omega_n)
    grid = np.geomspace(wz * 1.001, 3.0 * alpha * omega_n, 4001)
    mags = np.abs(freq_response(g2d, grid))
    i = int(np.argmax(mags))
    if i == 0 or i == len(grid) - 1:
        raise ValueError("no interior magnitude peak found above the zero")
    # parabolic refinement in (log w, log |G|)
    x = np.log(grid[i - 1 : i + 2])
    y = np.log(mags[i - 1 : i + 2])
    denom = (y[0] - 2.0 * y[1] + y[2])
    shift = 0.0 if denom == 0.0 else 0.5 * (y[0] - y[2]) / denom
    w_peak = float(np.exp(x[1] + shift * (x[1] - x[0])))
    if n == alpha:
        case = "at"
    elif n < alpha:
        case = "above"
    else:
        case = "below"
    return SecondModePeak(omega_rad_s=w_peak, case=case)


def tamed_inner_loop(omega_n: float, n: float, l: float) -> RationalTF:
    """Inner loop with the tamed controller (gamma = 1, undamped plant).

        wn^2 (s^2 + (n+l) wn s + n l wn^2)
        ----------------------------------------------------
        s(s^3 + (n+l) wn s^2 + (n l + 1) wn^2 s + (n+2l) wn^3)

    The taming low-pass contributes the fourth pole; how much damping the
    resonant pair retains depends on l.
    """
    if omega_n <= 0.0 or n <= 0.0 or l <= 0.0:
        raise ValueError("omega_n, n and l must be > 0")
    w = omega_n
    num = Polynomial([n * l * w**4, (n + l) * w**3, w**2])
    den = Polynomial(
        [0.0, (n + 2.0 * l) * w**3, (n * l + 1.0) * w**2, (n + l) * w, 1.0]
    )
    return RationalTF(num, den)
