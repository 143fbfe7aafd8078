"""Inner damping-loop construction and analysis.

Closing the constant-gain damping controller around a resonant plant in
negative feedback yields a third-order inner loop whose pole placement is
fully characterized in closed form for the marginal tuning (gamma = 1):
one pole at the origin plus a pair that migrates left, coalesces and
bifurcates onto the real axis as the corner ratio n grows. This module
holds the characteristic cubic, its Routh column and the root locus over
n, and the delay-free rational reference that the tests compare against:
G/(1 + G*C_d) of any delay-free plant, which no command runs (their
verdicts are Nyquist counts of the delayed loops). The paper's
hand-expanded closed forms (the gamma = 1 poles and the delayed, loaded,
two-mode and tamed loops) are test oracles of this closure, in
``tests/closed_forms.py``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .lti import Polynomial, RationalTF, dc_gain, poles_zeros, tf_feedback, write_csv
from .plants import PlantSpec, build_plant
from .tracking import _Brackets, _bisect

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
    """Close the damping loop G/(1 + G*C_d) rationally and analyze it: the
    delay-free rational reference the tests compare against.

    The plant must be delay-free here; a delayed plant is closed at FRF
    level, or after its delay is replaced by a first-order all-pass.
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
# grid steps per block of the pair continuation's cost table (2.4 MB)
_LOCUS_BLOCK = 4096


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
    consecutive grid points: one table holds the cost of every ordered
    root pair at each point against every one at the point before, its
    argmin over the later point's pairs is the successor of each pair, and
    the pair walks those integer successors from its start on the first
    point's conjugate roots. The bifurcation ratio (first n at which the
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
    pairs = roots[:, _ROOT_PAIRS]  # (n, pair, p2/p3): every ordered pair of roots
    # start the pair on the conjugate roots; fall back to the two
    # largest-magnitude roots when the pair is already real
    r0 = roots[0]
    by_imag = sorted(range(3), key=lambda j: -abs(r0[j].imag))
    if abs(r0[by_imag[0]].imag) > REAL_POLE_REL_TOL * omega_n:
        start = sorted(by_imag[:2], key=lambda j: -r0[j].imag)
    else:
        start = sorted(range(3), key=lambda j: -abs(r0[j]))[:2]
    # successor[i - 1, s]: the pair at i that moves pair s at i - 1 the least;
    # argmin keeps the first of equal costs. Blocks bound the (steps, 6, 6)
    # cost table.
    successor = []
    for a in range(0, n_values.size - 1, _LOCUS_BLOCK):
        z = min(a + _LOCUS_BLOCK, n_values.size - 1)
        new, old = pairs[a + 1 : z + 1, None], pairs[a:z, :, None]
        cost = np.abs(new[..., 0] - old[..., 0]) + np.abs(new[..., 1] - old[..., 1])
        successor.extend(cost.argmin(axis=-1).tolist())
    path = [_ROOT_PAIRS.tolist().index(start)]
    for row in successor:
        path.append(row[path[-1]])
    p2, p3 = pairs[np.arange(n_values.size), path].T.copy()

    disc = functools.partial(_pair_discriminant, zeta_n, gamma)
    values = disc(n_values)
    hits = np.flatnonzero(values >= 0.0)
    bifurcation_n = None
    if hits.size and hits[0] > 0:
        ((n_bif, _),) = _bisect(
            [_Brackets(n_values, values, hits[:1] - 1, lambda v: v >= 0.0, residual=lambda v: v)],
            disc,
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
