"""Synthesis of the non-minimum-phase resonant damping controller (NRC).

The controller is the first-order all-pass-like section

    C_d(s) = k * (s - w_a) / (s + w_a)

with constant magnitude k at every frequency and phase sweeping from
+/-180 deg at DC through a quarter turn at w_a towards 0 deg. The single
right-half-plane zero at +w_a is what buys the tunable phase at constant
gain. Tuning is parameterized by gamma (fraction of inverse plant DC gain)
and n (corner frequency in units of the dominant resonance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lti import RationalTF, dc_gain, tf_series
from .plants import PlantSpec, build_plant


@dataclass(frozen=True)
class NrcSpec:
    """Damping-controller tuning record.

    gamma in (0, 1] sets the loop DC gain magnitude (1.0 gives the marginal,
    integrator-like inner loop); n > 0 places the controller corner at
    n times the dominant resonance. taming_l, when present, appends a
    first-order low-pass at l times the resonance for high-frequency
    roll-off.
    """

    gamma: float
    n: float
    taming_l: float | None = None

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0,1]")
        if self.n <= 0.0:
            raise ValueError("n must be > 0")
        if self.taming_l is not None and self.taming_l <= 0.0:
            raise ValueError("taming_l must be > 0")


def nrc(k: float, omega_a: float) -> RationalTF:
    """The raw controller k*(s - w_a)/(s + w_a) from explicit gains.

    No range check on k: stability studies legitimately probe gains beyond
    the safe tuning rule.
    """
    if omega_a <= 0.0:
        raise ValueError("omega_a must be > 0")
    return RationalTF.from_coeffs([-k * omega_a, k], [omega_a, 1.0])


def synthesize_nrc(plant: PlantSpec, spec: NrcSpec) -> RationalTF:
    """Tune the damping controller against a plant.

    The gain inverts the plant DC gain scaled by gamma so that the DC loop
    magnitude is gamma; the corner sits at n times the first resonance.
    With taming_l present the tamed (strictly proper) form is returned.
    """
    return _tune(build_plant(plant), plant, spec)[2]


def _tune(g: RationalTF, plant: PlantSpec, spec: NrcSpec):
    """(k, w_a, C_d) for ``synthesize_nrc`` from ``g``, the plant's transfer
    function as ``build_plant`` gives it: k = gamma / G(0), w_a = n * w_n."""
    g0 = dc_gain(g)
    if not math.isfinite(g0) or g0 == 0.0:
        raise ValueError("plant DC gain must be finite and nonzero")
    k, omega_a = spec.gamma / g0, spec.n * plant.omega_n
    if spec.taming_l is not None:
        return k, omega_a, tame_nrc(k, omega_a, spec.taming_l * plant.omega_n)
    return k, omega_a, nrc(k, omega_a)


def tame_nrc(k: float, omega_a: float, omega_l: float) -> RationalTF:
    """Controller with first-order low-pass roll-off at omega_l.

    The constant-gain section feeds noise straight back into the loop at
    high frequency; the low-pass trades some achievable damping for
    attenuation there.
    """
    if omega_l <= 0.0:
        raise ValueError("omega_l must be > 0")
    lp = RationalTF.from_coeffs([omega_l], [omega_l, 1.0])
    return tf_series(nrc(k, omega_a), lp)
