"""Polynomial and rational transfer-function algebra for SISO loop analysis.

Coefficients are stored in ascending powers of s. A :class:`RationalTF`
carries an optional pure time delay alongside the rational part; the delay
is applied exactly (as a phase factor) in frequency-response evaluation and
is never approximated implicitly. Rational feedback closure refuses delayed
loops: close those at FRF level or substitute a first-order all-pass for the
delay first.
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


# Frequencies per pass of FrfStack: for three transfer functions this keeps
# each (9, block) complex work array near 150 kB, where larger blocks run
# slower.
_FRF_BLOCK = 1024


class FrfStack:
    """Transfer functions evaluated together at s = i*omega, each including
    its exact delay phase: calling the stack on omega gives the
    (len(tfs),) + shape(omega) array whose row k is ``tfs[k]`` at omega.

    The numerators, the denominators and the denominators' coefficient
    magnitudes are zero-padded once into one ascending coefficient matrix.
    A call evaluates every row by one Horner loop in the operation order
    of numpy's ``polyval`` (``c0 = c[-1] + x*0``, then
    ``c0 = c[-i] + c0*x``), the magnitudes at |omega|; a padded zero
    leaves every bit of its row unchanged, so each row equals the
    per-polynomial ``polyval`` evaluation. The magnitudes serve the
    pole-hit guard: a sample whose |den(i*omega)| is at most 1e-12 of the
    magnitude den would have without cancellation between its terms lands
    on an imaginary-axis pole and is flagged with an infinite value rather
    than raising, and no delay phase touches it. Frequencies go
    _FRF_BLOCK at a time.
    """

    def __init__(self, tfs):
        self.tfs = tuple(tfs)
        k = len(self.tfs)
        polys = [tf.num.coeffs for tf in self.tfs] + [tf.den.coeffs for tf in self.tfs]
        polys += [np.abs(p) for p in polys[k:]]
        # complex, as numpy promotes each coefficient in polyval, so that no
        # step casts
        self._c = np.zeros((3 * k, max(p.size for p in polys)), dtype=complex)
        for r, p in enumerate(polys):
            self._c[r, : p.size] = p
        self._top = np.array([[p.max()] for p in polys[2 * k :]])
        self._delays = [(r, tf.delay_s) for r, tf in enumerate(self.tfs) if tf.delay_s]

    def __call__(self, omega) -> np.ndarray:
        c, k = self._c, len(self.tfs)
        w = np.asarray(omega, dtype=float)
        flat = w.reshape(-1)
        out = np.empty((k, flat.size), dtype=complex)
        for start in range(0, flat.size, _FRF_BLOCK):
            wb = flat[start : start + _FRF_BLOCK]
            x = np.empty((3 * k, wb.size), dtype=complex)
            x[: 2 * k] = 1j * wb
            x[2 * k :] = np.abs(wb)
            h = c[:, -1:] + x * 0
            t = np.empty_like(h)
            for i in range(c.shape[1] - 2, -1, -1):
                np.multiply(h, x, out=t)
                np.add(t, c[:, i, None], out=t)  # an add rounds alike in place or not
                h, t = t, h
            dv = h[k : 2 * k]
            ok = ~(np.abs(dv) <= 1e-12 * np.maximum(h[2 * k :].real, self._top))
            ob = out[:, start : start + _FRF_BLOCK]
            ob[...] = complex(np.inf, 0.0)
            np.divide(h[:k], dv, out=ob, where=ok)
            for r, delay_s in self._delays:
                keep = ok[r]  # not in place: numpy's in-place complex multiply rounds differently
                ob[r, keep] = ob[r, keep] * np.exp(-1j * wb[keep] * delay_s)
        return out.reshape((k,) + w.shape)


def freq_response(tf: RationalTF, omega) -> np.ndarray:
    """Evaluate tf at s = i*omega, including the exact delay phase; the
    one-row case of :class:`FrfStack` (a scalar omega gives a scalar)."""
    return FrfStack((tf,))(omega)[0]


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


def _words(strings) -> np.ndarray:
    """ASCII strings of up to 8 bytes as NUL-padded little-endian words."""
    raw = b"".join(s.encode("ascii").ljust(8, b"\0") for s in strings)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64)


def _ones(nbytes: int) -> int:
    return (1 << 8 * nbytes) - 1


# Tables of write_csv's %.12g kernel, built by broadcasting. A value's 12
# digits are three 4-digit groups g = 1000a + 100b + 10c + d; _GROUP_WORDS[g]
# holds the ASCII bytes "abcd", "a" in the lowest byte. _SIG_DIGITS[j][g] is
# how many of the 12 digits remain, trailing zeros stripped, when group j
# (0, 1, 2) is g != 0 and the groups after it are zero.
_ascii = np.arange(10, dtype=np.uint64) + np.uint64(48)
_GROUP_WORDS = (
    _ascii[:, None, None, None]
    | _ascii[:, None, None] << np.uint64(8)
    | _ascii[:, None] << np.uint64(16)
    | _ascii << np.uint64(24)
).ravel()
_nonzero = (np.arange(10) != 0).astype(np.int8)
_group_len = np.maximum(
    np.maximum(_nonzero[:, None, None, None], 2 * _nonzero[:, None, None]),
    np.maximum(3 * _nonzero[:, None], 4 * _nonzero),
).ravel()
_SIG_DIGITS = np.where(_group_len > 0, _group_len + np.array([[0], [4], [8]]), 0).astype(np.int8)
del _ascii, _nonzero, _group_len

# Masks of the first k of the 12 digit bytes, 8 in the first digit word and
# 4 in the second, for k = 0..13. Inserting "." before digit byte p = 1..12
# keeps the bytes below p and moves the rest up one byte, the top byte of
# the first word into the second; p = _NO_POINT inserts nothing.
_NO_POINT = 13
_LOW1 = np.array([_ones(min(k, 8)) for k in range(14)], dtype=np.uint64)
_LOW2 = np.array([_ones(max(k - 8, 0)) for k in range(14)], dtype=np.uint64)
_POINT1 = np.array([ord(".") << 8 * p if p < 8 else 0 for p in range(14)], dtype=np.uint64)
_POINT2 = np.array(
    [ord(".") << 8 * (p - 8) if 8 <= p < _NO_POINT else 0 for p in range(14)], dtype=np.uint64
)

# Per decimal exponent X = -11..33 of the rounded value, then one entry for
# zero and one for an empty field: where "." goes, how many integer digits
# must stay, how many zeros follow "0." and, per separator, the exponent
# word. %.12g writes -4 <= X < 12 in fixed notation, the rest as d.ddde+XX.
# Tables whose entries index other tables are intp, numpy's index type.
_EXPONENTS = np.arange(-11, 34)
_FIXED = (_EXPONENTS >= -4) & (_EXPONENTS < 12)
_ZERO_ROW, _EMPTY_ROW = _EXPONENTS.size, _EXPONENTS.size + 1
_POINT_AT = np.append(
    np.where(_FIXED, np.where(_EXPONENTS >= 0, _EXPONENTS + 1, _NO_POINT), 1), [_NO_POINT] * 2
).astype(np.intp)
_INT_DIGITS = np.append(np.where(_FIXED & (_EXPONENTS >= 0), _EXPONENTS + 1, 0), [1, 0]).astype(np.intp)
_LEAD_ZEROS = np.append(np.where(_FIXED & (_EXPONENTS < 0), -_EXPONENTS, 0), [0, 0]).astype(np.int8)
_TAILS = np.concatenate(
    [
        _words([("" if f else "e%+03d" % x) + sep for f, x in zip(_FIXED, _EXPONENTS)] + [sep] * 2)
        for sep in ",\n"
    ]
)
_HEADS = _words([sign + lead for sign in ("", "-") for lead in ("", "0.", "0.0", "0.00", "0.000")])
# 10**(11 - e) as a factor and a divisor for e = floor(log10|v|) = -12..33,
# exact except the factor 10**23 of e = -12, whose values fall back.
_SCALE_MUL = np.array([float(10 ** max(11 - e, 0)) for e in range(-12, 34)])
_SCALE_DIV = np.array([float(10 ** max(e - 11, 0)) for e in range(-12, 34)])
_TIE_GUARD = 1e-3
# Values per block. A block needs about 100 bytes of scratch per value, so
# 4096 holds it near 400 kB; larger blocks are barely faster.
_CSV_BLOCK = 4096


def _scale(v: np.ndarray):
    """Which values the kernel formats exactly, the table row of each (its
    decimal exponent + 11, else _ZERO_ROW) and its 12 correctly rounded
    significant digits as an integer (0 where it does not)."""
    a = np.abs(v)
    regular = (a >= 1e-11) & (a < 1e33)  # False for 0, subnormals, inf, nan
    a[~regular] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    m = a * _SCALE_MUL[e + 12]
    m /= _SCALE_DIV[e + 12]
    np.floor(m, out=a)  # from here a is the distance of m from a tie
    np.subtract(m, a, out=a)
    a -= 0.5
    ok = np.abs(a, out=a) > _TIE_GUARD
    # e = -12 is not exact, and m outside [1e11, 1e12) means log10 was off
    # by one next to a power of ten
    ok &= regular & (e >= -11) & (m >= 1e11) & (m < 1e12)
    np.rint(m, out=m)
    carry = m == 1e12
    m[carry] = 1e11
    e += carry
    e += 11
    e[~ok] = _ZERO_ROW
    m[~ok] = 0.0
    return ok, e, m.astype(np.int64)


def _digit_words(n: np.ndarray, row: np.ndarray):
    """The two digit words of 12-digit integers ``n`` (overwritten): trailing
    zeros that are not integer digits become NUL, and "." is inserted where
    the row's notation puts it."""
    g1 = n // 100_000_000
    n -= g1 * 100_000_000
    g2 = n // 10_000
    n -= g2 * 10_000
    sig = np.maximum(_SIG_DIGITS[0][g1], _SIG_DIGITS[1][g2])
    np.maximum(sig, _SIG_DIGITS[2][n], out=sig)
    keep = np.maximum(sig, _INT_DIGITS[row])
    w1 = _GROUP_WORDS[g2]
    w1 <<= np.uint64(32)
    w1 |= _GROUP_WORDS[g1]
    w1 &= _LOW1[keep]
    w2 = _GROUP_WORDS[n]
    w2 &= _LOW2[keep]
    p = _POINT_AT[row]
    p[p >= sig] = _NO_POINT  # no digit follows the point
    low = _LOW1[p]
    high = w1 & ~low
    w1 &= low
    carried = high >> np.uint64(56)
    high <<= np.uint64(8)
    w1 |= high
    w1 |= _POINT1[p]
    low = _LOW2[p]
    high = w2 & ~low
    w2 &= low
    high <<= np.uint64(8)
    w2 |= high
    w2 |= _POINT2[p]
    w2 |= carried
    return w1, w2


def _format_block(vals: np.ndarray, empty: np.ndarray) -> bytearray:
    """Rows of ``vals`` as CSV lines, each value ``%.12g`` and each field
    where ``empty`` is set left blank; see write_csv."""
    v = vals.ravel()
    ok, row, n = _scale(v)
    row[empty.ravel()] = _EMPTY_ROW
    w1, w2 = _digit_words(n, row)
    del n  # spent arrays go before the slots are allocated
    buf = bytearray(32 * v.size)
    slots = np.frombuffer(buf, dtype="<u8").reshape(v.size, 4)
    slots[:, 0] = _HEADS[_LEAD_ZEROS[row] + 5 * np.signbit(v)]
    slots[:, 1] = w1
    slots[:, 2] = w2
    del w1, w2
    row.reshape(vals.shape)[:, -1] += _TAILS.size // 2  # "\n" ends a row
    slots[:, 3] = _TAILS[row]
    slow = np.flatnonzero(~ok & (v != 0.0) & ~empty.ravel())
    if slow.size:
        seps = "," * (vals.shape[1] - 1) + "\n"
        raw = b"".join(
            ("%.12g%s" % (v[i], seps[i % len(seps)])).encode("ascii").ljust(32, b"\0")
            for i in slow
        )
        slots.view(np.uint8).reshape(-1, 32)[slow] = np.frombuffer(raw, np.uint8).reshape(-1, 32)
    return buf.translate(None, b"\0")


def write_csv(path, names, columns) -> None:
    """Write equal-length columns as CSV under a header row of names.

    This is the one CSV format of every artifact: each value is written
    byte for byte as ``"%.12g" % v`` and None leaves its field empty.
    Columns (arrays, or lists of numbers, bools and None) are formatted by
    one numpy kernel, _CSV_BLOCK values at a time:

    - A value of decimal exponent e = floor(log10|v|) is scaled to 12
      digits, m = |v| * 10**(11-e) in [1e11, 1e12), by one multiply or
      divide by an exact power of ten, |11 - e| <= 22. That operation is
      correctly rounded, so m is within half an ulp (under 2**-13) of the
      exact product, and ``rint(m)`` is the correctly rounded digit string
      unless the product lies near a tie.
    - A value goes to ``%``, one at a time, when m lies within 1e-3 of a
      tie, when e is outside -11..32 (where the powers of ten are exact;
      this takes subnormals) or m outside [1e11, 1e12) (log10 off by one
      next to a power of ten), or when it is nan or infinite. Zero of
      either sign and None are handled in the kernel.
    - The digits are read four at a time from a table of 10,000 words and
      laid out, with the sign, "0.000" prefix, "." and exponent, in a
      32-byte slot of four words padded with NUL bytes, which are then
      deleted; None leaves only its separator.
    """
    ncols, nrows = len(columns), len(columns[0])
    cols, blanks = [], {}
    for j, col in enumerate(columns):
        if not isinstance(col, np.ndarray):
            blanks[j] = np.array([x is None for x in col], dtype=bool)
            col = np.array([0.0 if x is None else x for x in col], dtype=float)
        cols.append(col)
    rows = max(1, _CSV_BLOCK // ncols)
    block = np.empty((min(rows, nrows), ncols))
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode("utf-8"))
        for start in range(0, nrows, rows):
            vals = block[: min(rows, nrows - start)]
            empty = np.zeros(vals.shape, dtype=bool)
            for j, col in enumerate(cols):
                vals[:, j] = col[start : start + rows]
            for j, blank in blanks.items():
                empty[:, j] = blank[start : start + rows]
            fh.write(_format_block(vals, empty))


def bode_to_csv(path, omega, responses) -> None:
    """Write complex responses on a rad/s grid as CSV: freq_hz, then a
    ``<name>_mag_db,<name>_phase_deg`` pair (unwrapped phase) per response."""
    names = ["freq_hz"]
    columns = [np.asarray(omega, dtype=float) / (2.0 * math.pi)]
    for name, values in responses.items():
        names += [f"{name}_mag_db", f"{name}_phase_deg"]
        columns += [mag_db(values), unwrapped_phase_deg(values)]
    write_csv(path, names, columns)
