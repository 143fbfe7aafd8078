"""Plant models for lightly damped positioning stages.

A plant is a weighted sum of second-order modal sections, an optional
first-order actuator-amplifier section, an overall gain and a pure delay:

    G(s) = g * (sum_m w_m * wm^2 / (s^2 + 2*zeta_m*wm*s + wm^2))
             * (w_amp / (s + w_amp)) * exp(-tau*s)

The first mode is the dominant resonance; its weight is 1 by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lti import Polynomial, RationalTF, tf_series


@dataclass(frozen=True)
class ModeSpec:
    """One resonant mode: natural frequency [rad/s], damping ratio, weight."""

    omega_rad_s: float
    zeta: float = 0.0
    weight: float = 1.0

    def __post_init__(self):
        if self.omega_rad_s <= 0.0:
            raise ValueError("mode omega_rad_s must be > 0")
        if self.zeta < 0.0:
            raise ValueError("mode zeta must be >= 0")
        if self.weight < 0.0:
            raise ValueError("mode weight must be >= 0")


@dataclass(frozen=True)
class PlantSpec:
    """Modal plant description.

    ``amp_corner_rad_s`` is the actuator-amplifier corner (None to omit the
    amplifier section); ``delay_s`` the total loop delay. The overall gain
    multiplies the whole modal sum once.
    """

    gain: float
    modes: tuple
    amp_corner_rad_s: float | None = None
    delay_s: float = 0.0

    def __post_init__(self):
        if self.gain <= 0.0:
            raise ValueError("plant gain must be > 0")
        modes = tuple(self.modes)
        if not modes:
            raise ValueError("plant needs at least one mode")
        freqs = [m.omega_rad_s for m in modes]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("modes must be sorted by strictly increasing omega")
        object.__setattr__(self, "modes", modes)
        if self.amp_corner_rad_s is not None and self.amp_corner_rad_s <= 0.0:
            raise ValueError("amp_corner_rad_s must be > 0")
        if self.delay_s < 0.0:
            raise ValueError("delay_s must be >= 0")

    @property
    def omega_n(self) -> float:
        """Dominant (first) mode frequency [rad/s]."""
        return self.modes[0].omega_rad_s


def _mode_tf(mode: ModeSpec) -> RationalTF:
    w, z = mode.omega_rad_s, mode.zeta
    return RationalTF.from_coeffs(
        [mode.weight * w * w], [w * w, 2.0 * z * w, 1.0]
    )


def build_plant(spec: PlantSpec) -> RationalTF:
    """Assemble the rational plant from a PlantSpec (delay carried along)."""
    num = Polynomial([0.0])
    den = Polynomial([1.0])
    for mode in spec.modes:
        m = _mode_tf(mode)
        num = num * m.den + den * m.num
        den = den * m.den
    g = RationalTF(num, den)
    g = tf_series(g, RationalTF.gain(spec.gain))
    if spec.amp_corner_rad_s is not None:
        wa = spec.amp_corner_rad_s
        g = tf_series(g, RationalTF.from_coeffs([wa], [wa, 1.0]))
    return RationalTF(g.num, g.den, spec.delay_s)


def modal_state_space(spec: PlantSpec):
    """Continuous (A, B, C) of the plant without its delay, one block per mode.

    Each mode is the state pair (position, velocity / w) with block
    [[0, w], [-w, -2 zeta w]], input column (0, w) and output gain * weight
    on the position, so A + A^T <= 0 for every mode, zeta = 0 included.
    The amplifier corner, when present, is one first-order state in series
    ahead of the modes. D is zero: the plant is strictly proper.
    """
    n = 2 * len(spec.modes)
    a = np.zeros((n, n))
    b = np.zeros(n)
    c = np.zeros(n)
    for i, m in enumerate(spec.modes):
        w = m.omega_rad_s
        a[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[0.0, w], [-w, -2.0 * m.zeta * w]]
        b[2 * i + 1] = w
        c[2 * i] = spec.gain * m.weight
    if spec.amp_corner_rad_s is not None:
        wa = spec.amp_corner_rad_s
        # the amplifier state leads and drives the modes in place of the input
        a = np.block([[np.array([[-wa]]), np.zeros((1, n))], [b[:, None], a]])
        b = np.concatenate([[wa], np.zeros(n)])
        c = np.concatenate([[0.0], c])
    return a, b, c


def scale_load(spec: PlantSpec, eta: float) -> PlantSpec:
    """Loaded variant of a plant: every modal frequency scaled by eta.

    Payload mass lowers the resonances without changing DC gain or damping
    ratios, so only the omegas scale. eta must lie in (0, 1].
    """
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must lie in (0, 1]")
    modes = tuple(
        replace(m, omega_rad_s=eta * m.omega_rad_s) for m in spec.modes
    )
    return replace(spec, modes=modes)


def nanopositioner_surrogate() -> PlantSpec:
    """Desk-scale stand-in for an identified piezo nanopositioning stage.

    Two modes at 739 Hz and 983 Hz (zeta = 0.01, second-mode weight 0.3),
    overall DC gain 0.5237 and a 150 us delay (about 40 degrees of lag at
    the dominant resonance). Calibrated so that the standard damping-gain
    rule lands at k = 1.9095 for gamma = 1.
    """
    dc = 0.5237
    return PlantSpec(
        gain=dc / 1.3,
        modes=(
            ModeSpec(omega_rad_s=2.0 * math.pi * 739.0, zeta=0.01, weight=1.0),
            ModeSpec(omega_rad_s=2.0 * math.pi * 983.0, zeta=0.01, weight=0.3),
        ),
        delay_s=150e-6,
    )
