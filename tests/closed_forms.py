"""The paper's closed forms, kept as test oracles.

Each function is a hand-expanded formula that the paper states for one
case of the damped loop: the first-order all-pass delay, the interlaced
zero of a two-mode sum, the complete-damping threshold
n >= 2*eta*(sqrt(2) + zeta), the gamma = 1 inner poles, the delayed,
loaded, two-mode and tamed inner loops, the low-frequency kp shortcut and
the documented steady-state-error law. The package computes none of them:
its commands close every loop through the generic
``tf_feedback(build_plant(spec), C_d)`` or its frequency-response
equivalent, and the tests check that closure against these formulas.
``nrc_gains`` gives the damper's tuning rule (k, w_a) alone, which the
package computes only together with C_d, in ``nrc._tune``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from nrcdamp import NrcSpec, PlantSpec, Polynomial, RationalTF, build_plant, freq_response
from nrcdamp.nrc import _tune


def nrc_gains(plant: PlantSpec, spec: NrcSpec) -> tuple[float, float]:
    """Derived (k, w_a) for a plant: k = gamma / G(0), w_a = n * w_n."""
    k, omega_a, _ = _tune(build_plant(plant), plant, spec)
    return k, omega_a


def pade1(tau_s: float) -> RationalTF:
    """First-order all-pass delay approximation (wb - s)/(wb + s), wb = 2/tau."""
    if tau_s <= 0.0:
        raise ValueError("tau_s must be > 0")
    wb = 2.0 / tau_s
    return RationalTF.from_coeffs([wb, -1.0], [wb, 1.0])


def two_mode_zero(alpha: float, beta: float, omega_n: float) -> float:
    """Frequency of the interlaced zero pair of an undamped two-mode sum.

    For modes at omega_n and alpha*omega_n with relative weight beta, the
    summed response has imaginary-axis zeros at
    alpha*omega_n*sqrt((1+beta)/(1+alpha^2*beta)), strictly between the two
    mode frequencies.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must be > 1")
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    if omega_n <= 0.0:
        raise ValueError("omega_n must be > 0")
    wz = alpha * omega_n * math.sqrt((1.0 + beta) / (1.0 + alpha * alpha * beta))
    assert omega_n < wz < alpha * omega_n
    return wz


def min_damping_n(zeta_n: float, eta: float = 1.0) -> float:
    """Smallest corner ratio n that fully damps the resonant pole pair.

    For the marginal tuning (gamma = 1) the closed-loop conjugate pair
    coalesces onto the real axis once n >= 2*eta*(sqrt(2) + zeta_n), where
    eta <= 1 is the load-induced resonance scaling. Monotone in both
    arguments, so a controller tuned for the unloaded plant keeps complete
    damping under load.
    """
    if zeta_n < 0.0:
        raise ValueError("zeta_n must be >= 0")
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must lie in (0, 1]")
    return 2.0 * eta * (math.sqrt(2.0) + zeta_n)


@dataclass(frozen=True)
class SecondModePeak:
    """Damped second-mode peak location and its shift direction vs n."""

    omega_rad_s: float
    case: str  # "at" (n = alpha), "above" (n < alpha), "below" (n > alpha)


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


def kp_plant_inverse_approx(omega_n: float, omega_b: float) -> float:
    """Low-frequency plant-inversion shortcut |(wn^2 - wb^2)/wn^2| for kp."""
    if omega_n <= 0.0 or omega_b <= 0.0:
        raise ValueError("omega_n and omega_b must be > 0")
    return abs((omega_n**2 - omega_b**2) / omega_n**2)


def steady_state_error(kp: float) -> float:
    """Step-reference steady error of the proportional-only dual loop when
    the inner integrator is lost to controller-gain mismatch: 2/(2 + kp)."""
    if kp <= 0.0:
        raise ValueError("kp must be > 0")
    return 2.0 / (2.0 + kp)
