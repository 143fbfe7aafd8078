"""Polynomial and rational transfer-function algebra for SISO loop analysis.

Coefficients are stored in ascending powers of s. A :class:`RationalTF`
carries an optional pure time delay alongside the rational part; the delay
is applied exactly (as a phase factor) in frequency-response evaluation and
is never approximated implicitly. Rational feedback closure refuses delayed
loops: close those at FRF level or substitute :func:`pade1` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Leading coefficients below TRIM_REL of their per-degree reference scale
# are treated as numerical zeros produced by feedback closure and dropped.
TRIM_REL = 1e-12

# Companion-matrix rooting is only trusted up to this degree here.
MAX_ROOT_DEGREE = 12


def trim_coeffs(coeffs, ref=None) -> np.ndarray:
    """Drop zero leading (highest-order) coefficients.

    ``ref``, when given, is a per-degree magnitude reference (typically the
    summand magnitudes of an addition); leading coefficients below TRIM_REL
    of their reference are cancellation residue and dropped. Without a
    reference only exact zeros go: coefficient magnitudes are not
    comparable across degrees (they carry different powers of frequency).
    The zero polynomial collapses to ``[0.0]``; the result is always a
    nonempty float array in ascending powers.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.size == 0:
        raise ValueError("polynomial needs at least one coefficient")
    if ref is not None:
        ref = np.asarray(ref, dtype=float)
    keep = c.size
    while keep > 1:
        tol = 0.0 if ref is None else TRIM_REL * ref[keep - 1]
        if abs(c[keep - 1]) > tol:
            break
        keep -= 1
    out = c[:keep].copy()
    if keep == 1 and ref is not None and abs(out[0]) <= TRIM_REL * ref[0]:
        out[0] = 0.0
    return out


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in s, coefficients in ascending powers."""

    coeffs: np.ndarray

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", trim_coeffs(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0.0

    def __call__(self, s):
        """Evaluate at scalar or array argument (real or complex)."""
        return np.polynomial.polynomial.polyval(s, self.coeffs)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        out = np.zeros(n)
        ref = np.zeros(n)
        out[: len(self.coeffs)] += self.coeffs
        ref[: len(self.coeffs)] += np.abs(self.coeffs)
        out[: len(other.coeffs)] += other.coeffs
        ref[: len(other.coeffs)] += np.abs(other.coeffs)
        return Polynomial(trim_coeffs(out, ref=ref))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


def poly_roots(p: Polynomial) -> np.ndarray:
    """Roots of a polynomial via companion-matrix eigenvalues.

    Returns complex roots sorted by (real, imag); real-coefficient input
    yields conjugate-paired output. Degree 0 is rejected, as is anything
    beyond ``MAX_ROOT_DEGREE``.
    """
    if p.degree == 0:
        raise ValueError("constant polynomial has no roots")
    if p.degree > MAX_ROOT_DEGREE:
        raise ValueError(
            f"degree {p.degree} exceeds supported rooting degree {MAX_ROOT_DEGREE}"
        )
    r = np.polynomial.polynomial.polyroots(p.coeffs)
    r = np.asarray(r, dtype=complex)
    order = np.lexsort((r.imag, r.real))
    return r[order]


@dataclass(frozen=True)
class RationalTF:
    """Rational transfer function num/den with an exact pure delay [s].

    Properness is not required; biproper (equal-degree) functions are
    legitimate controllers here.
    """

    num: Polynomial
    den: Polynomial
    delay_s: float = 0.0

    def __post_init__(self):
        if self.den.is_zero:
            raise ValueError("denominator must not be the zero polynomial")
        if self.delay_s < 0.0:
            raise ValueError("delay_s must be >= 0")

    @staticmethod
    def from_coeffs(num, den, delay_s: float = 0.0) -> "RationalTF":
        return RationalTF(Polynomial(num), Polynomial(den), delay_s)

    @staticmethod
    def gain(value: float) -> "RationalTF":
        return RationalTF.from_coeffs([value], [1.0])

    def without_delay(self) -> "RationalTF":
        return RationalTF(self.num, self.den, 0.0)

    def __repr__(self):
        d = f", delay_s={self.delay_s}" if self.delay_s else ""
        return f"RationalTF({list(self.num.coeffs)}, {list(self.den.coeffs)}{d})"


@dataclass(frozen=True)
class PoleZeroSet:
    """Poles/zeros of the rational part plus the leading-coefficient gain."""

    poles: np.ndarray
    zeros: np.ndarray
    gain: float
    delay_s: float = 0.0


def tf_series(a: RationalTF, b: RationalTF) -> RationalTF:
    """Cascade a*b; numerators and denominators multiply, delays add."""
    return RationalTF(a.num * b.num, a.den * b.den, a.delay_s + b.delay_s)


def tf_feedback(g: RationalTF, h: RationalTF) -> RationalTF:
    """Negative-feedback closure g / (1 + g*h).

    Only exact leading-zero trims are applied; common pole/zero factors are
    kept so that marginal dynamics (for example an integrator created by
    unity DC loop gain) stay visible in the result. Delayed blocks are
    rejected: a delay inside a rational closure has no rational result.
    """
    if g.delay_s != 0.0 or h.delay_s != 0.0:
        raise ValueError("delay inside algebraic loop; use Pade or FRF closure")
    num = g.num * h.den
    den = g.den * h.den + g.num * h.num
    return RationalTF(num, den)


def freq_response(tf: RationalTF, omega) -> np.ndarray:
    """Evaluate tf at s = i*omega, including the exact delay phase.

    Samples landing on an imaginary-axis pole (denominator magnitude below
    1e-12 of its evaluation scale) are flagged with an infinite value rather
    than raising.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    s = 1j * w
    nv = tf.num(s)
    dv = tf.den(s)
    # pole-hit guard: compare |den(iw)| against the magnitude it would have
    # without cancellation between terms
    dscale = np.polynomial.polynomial.polyval(np.abs(w), np.abs(tf.den.coeffs))
    dscale = np.maximum(dscale, np.max(np.abs(tf.den.coeffs)))
    out = np.empty_like(s)
    hit = np.abs(dv) <= 1e-12 * dscale
    ok = ~hit
    out[ok] = nv[ok] / dv[ok]
    out[hit] = complex(np.inf, 0.0)
    if tf.delay_s:
        out[ok] = out[ok] * np.exp(-1j * w[ok] * tf.delay_s)
    return out if np.ndim(omega) else out[0]


def poles_zeros(tf: RationalTF) -> PoleZeroSet:
    """Root the denominator/numerator; the delay is reported, not rooted."""
    poles = poly_roots(tf.den) if tf.den.degree >= 1 else np.array([], dtype=complex)
    if tf.num.degree >= 1 and not tf.num.is_zero:
        zeros = poly_roots(tf.num)
    else:
        zeros = np.array([], dtype=complex)
    gain = tf.num.coeffs[-1] / tf.den.coeffs[-1]
    return PoleZeroSet(poles=poles, zeros=zeros, gain=gain, delay_s=tf.delay_s)


def dc_gain(tf: RationalTF):
    """num(0)/den(0); a pole at s=0 yields a signed infinity marker.

    A denominator constant term below 1e-14 of the coefficient scale counts
    as zero (feedback closure leaves such residues). An exact 0/0 is an
    error: the shared factor of s must be cancelled by the caller first.
    """
    n0 = tf.num(0.0)
    d0 = tf.den(0.0)
    dscale = np.max(np.abs(tf.den.coeffs))
    if abs(d0) <= 1e-14 * dscale:
        nscale = np.max(np.abs(tf.num.coeffs))
        if abs(n0) <= 1e-14 * nscale:
            raise ValueError("indeterminate DC gain; cancel common factor s first")
        # sign of the limit from s -> 0+ along the real axis
        lead = next(c for c in tf.den.coeffs if c != 0.0)
        return math.copysign(math.inf, n0 / lead)
    return float(n0 / d0)


def pade1(tau_s: float) -> RationalTF:
    """First-order all-pass delay approximation (wb - s)/(wb + s), wb = 2/tau."""
    if tau_s <= 0.0:
        raise ValueError("tau_s must be > 0")
    wb = 2.0 / tau_s
    return RationalTF.from_coeffs([wb, -1.0], [wb, 1.0])


def log_grid(f_min_hz: float, f_max_hz: float, pts_per_decade: int = 400) -> np.ndarray:
    """Logarithmic frequency grid in rad/s.

    Lightly damped resonances (zeta ~ 0.01) need at least ~200 points per
    decade to localize; 400 is the default used throughout.
    """
    if not (0.0 < f_min_hz < f_max_hz):
        raise ValueError("need 0 < f_min_hz < f_max_hz")
    if pts_per_decade < 2:
        raise ValueError("pts_per_decade must be >= 2")
    decades = math.log10(f_max_hz / f_min_hz)
    npts = max(2, int(round(decades * pts_per_decade)) + 1)
    return 2.0 * np.pi * np.logspace(
        math.log10(f_min_hz), math.log10(f_max_hz), npts
    )


def unwrapped_phase_deg(values: np.ndarray) -> np.ndarray:
    """Unwrapped phase along a grid, in degrees."""
    return np.degrees(np.unwrap(np.angle(values)))


def mag_db(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(np.abs(values))


def write_csv(path, names, columns) -> None:
    """Write equal-length columns as CSV under a header row of names.

    This is the one CSV format of every artifact: each value is written
    ``%.12g`` and None leaves its field empty. Columns without None are
    formatted 32 rows at a time, with one ``%`` per chunk; larger chunks
    are barely faster and raise the resident memory of a process that
    writes many tables.
    """
    chunk = 32
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        if any(not isinstance(c, np.ndarray) and None in c for c in columns):
            fh.writelines(
                ",".join(["" if v is None else "%.12g" % v for v in row]) + "\n"
                for row in zip(*columns)
            )
            return
        row_fmt = ",".join(["%.12g"] * len(columns)) + "\n"
        for start in range(0, len(columns[0]), chunk):
            block = np.column_stack(
                [np.asarray(c[start : start + chunk], dtype=float) for c in columns]
            )
            fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def bode_to_csv(path, omega, responses) -> None:
    """Write complex responses on a rad/s grid as CSV: freq_hz, then a
    ``<name>_mag_db,<name>_phase_deg`` pair (unwrapped phase) per response."""
    names = ["freq_hz"]
    columns = [np.asarray(omega, dtype=float) / (2.0 * math.pi)]
    for name, values in responses.items():
        names += [f"{name}_mag_db", f"{name}_phase_deg"]
        columns += [mag_db(values), unwrapped_phase_deg(values)]
    write_csv(path, names, columns)
