"""Discrete-time simulation of the dual loop and chirp identification.

Controllers and plant are discretized by the bilinear (trapezoidal) map;
pure delays become integer sample counts. The closed dual loop is one
discrete state-space system with a strictly causal ordering (controllers
act on the previous measurement), which removes the algebraic loop the
biproper damping controller would otherwise create.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .lti import RationalTF, unwrap, write_csv
from .plants import PlantSpec, modal_state_space

SINE_SKIP_FRAC = 0.6  # share of a record sinusoid_phasor skips as start-up transient
IDENTIFY_OVERSAMPLE = 8  # open_loop_response integrates the plant this much finer than it samples


@dataclass(frozen=True)
class DiscreteSS:
    """Discrete state-space block with an input delay in whole samples."""

    a_matrix: np.ndarray
    b_matrix: np.ndarray
    c_matrix: np.ndarray
    d_matrix: np.ndarray
    ts: float
    input_delay_samples: int = 0

    @property
    def order(self) -> int:
        return self.a_matrix.shape[0]


def _controller_canonical(num: np.ndarray, den: np.ndarray):
    """(A, B, C, D) of descending num/den in controller-canonical form.

    Does the arithmetic of ``scipy.signal.tf2ss`` for one real SISO
    polynomial pair, so the matrices are bit-identical to it; importing
    ``scipy.signal`` would dominate the start-up of every command. The one
    departure: it trims only exact zeros off the numerator's lead, where
    tf2ss also trims coefficients of magnitude 1e-14 or less. Descending
    coefficients carry different powers of omega, so no threshold, absolute
    or relative, tells which is negligible; tf2ss's drops the plant's terms
    at a gain of 1e-30 and C_d's at 1e30.
    """
    den = np.trim_zeros(den, "f")
    num, den = num / den[0], den / den[0]
    lead = 0
    while lead < num.size - 1 and num[lead] == 0.0:
        lead += 1
    num = num[lead:]
    k = den.size
    if num.size > k:
        raise ValueError("improper transfer function cannot be discretized")
    num = np.concatenate([np.zeros(k - num.size), num])
    d = np.array([[num[0]]])
    if k == 1:
        return np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), d
    a = np.vstack([-den[1:], np.eye(k - 2, k - 1)])
    c = (num[1:] - num[0] * den[1:])[np.newaxis, :]
    return a, np.eye(k - 1, 1), c, d


def discretize(tf: RationalTF, ts: float) -> DiscreteSS:
    """Bilinear discretization of a proper (or biproper) RationalTF.

    The controller-canonical realization goes through the Tustin map
    s = (2/ts)(z-1)/(z+1) of ``_bilinear_state_space``, which preserves
    DC. A pure gain keeps its 1x1 zero state unmapped: mapped, that state
    would become an eigenvalue at 1. The pure delay rounds to
    input_delay_samples = round(delay_s/ts).
    """
    if ts <= 0.0:
        raise ValueError("ts must be > 0")
    if tf.num.degree > tf.den.degree:
        raise ValueError("improper transfer function cannot be discretized")
    a, b, c, d = _controller_canonical(tf.num.coeffs[::-1], tf.den.coeffs[::-1])
    if tf.den.degree:
        a, b, c, d = _bilinear_state_space(a, b, c, d, ts)
    return DiscreteSS(
        a_matrix=a,
        b_matrix=b,
        c_matrix=c,
        d_matrix=d,
        ts=ts,
        input_delay_samples=int(round(tf.delay_s / ts)),
    )


def discrete_frf(block: DiscreteSS, omega) -> np.ndarray:
    """Frequency response of a discrete block on the unit circle."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    z = np.exp(1j * w * block.ts)
    a, b, c, d = block.a_matrix, block.b_matrix, block.c_matrix, block.d_matrix
    n = a.shape[0]
    if n:
        stack = z[:, np.newaxis, np.newaxis] * np.eye(n) - a  # (points, n, n)
        x = np.linalg.solve(stack, np.broadcast_to(b, (w.size, n, 1)))
        out = (c @ x + d)[:, 0, 0]
    else:
        out = np.full(w.size, d[0, 0], dtype=complex)
    out *= np.exp(-1j * w * block.ts * block.input_delay_samples)
    return out if np.ndim(omega) else out[0]


@dataclass(frozen=True)
class SimTrace:
    """Sampled dual-loop record; y_meas = x_true + n and e = r - y_meas."""

    time_s: np.ndarray
    r: np.ndarray
    d: np.ndarray
    n: np.ndarray
    u: np.ndarray
    x_true: np.ndarray
    y_meas: np.ndarray
    e: np.ndarray


def dual_loop_state_space(
    plant_d: DiscreteSS, tracker_d: DiscreteSS, nrc_d: DiscreteSS
) -> DiscreteSS:
    """The sampled dual loop as one discrete system.

    Inputs (r, d, n), outputs (u, x_true). The state stacks the plant, the
    tracker, the damper, the plant's input-delay line as a shift register
    (oldest sample first) and the last measurement y[k-1]. Per sample:
    e = r - y[k-1]; u = tracker(e) - nrc(y[k-1]); the plant integrates
    u + d after its delay line, and y[k] = x_true + n. This strictly causal
    ordering implies one sample of measurement lag; that sample is counted
    against the plant's modeled delay, so the loop delay matches the
    continuous model whenever the plant carries at least one delay sample.
    The spectral radius of the state matrix is the exact stability verdict
    of the sampled loop.
    """
    if not (plant_d.ts == tracker_d.ts == nrc_d.ts):
        raise ValueError("all blocks must share the same sampling time")
    n_delay = max(plant_d.input_delay_samples - 1, 0)
    n_p, n_t, n_c = plant_d.order, tracker_d.order, nrc_d.order
    p = slice(0, n_p)
    t = slice(n_p, n_p + n_t)
    c = slice(n_p + n_t, n_p + n_t + n_c)
    q0 = n_p + n_t + n_c  # oldest delay-line sample
    iy = q0 + n_delay  # y[k-1]
    order = iy + 1
    d_t, d_c, d_p = (blk.d_matrix[0, 0] for blk in (tracker_d, nrc_d, plant_d))

    # each signal as a (state row, input row) pair over x and w = (r, d, n)
    u_x = np.zeros(order)  # u = C_t x_t - C_c x_c + D_t (r - y[k-1]) - D_c y[k-1]
    u_x[t] = tracker_d.c_matrix[0]
    u_x[c] = -nrc_d.c_matrix[0]
    u_x[iy] = -(d_t + d_c)
    u_w = np.array([d_t, 0.0, 0.0])
    v_w = u_w + [0.0, 1.0, 0.0]  # u + d enters the delay line
    if n_delay:  # the plant takes the oldest delay-line sample
        vd_x, vd_w = np.zeros(order), np.zeros(3)
        vd_x[q0] = 1.0
    else:
        vd_x, vd_w = u_x, v_w
    x_x = d_p * vd_x
    x_x[p] += plant_d.c_matrix[0]
    x_w = d_p * vd_w

    a = np.zeros((order, order))
    b = np.zeros((order, 3))
    a[p, p] = plant_d.a_matrix
    a[p] += np.outer(plant_d.b_matrix[:, 0], vd_x)
    b[p] = np.outer(plant_d.b_matrix[:, 0], vd_w)
    a[t, t] = tracker_d.a_matrix
    a[t, iy] = -tracker_d.b_matrix[:, 0]
    b[t, 0] = tracker_d.b_matrix[:, 0]
    a[c, c] = nrc_d.a_matrix
    a[c, iy] = nrc_d.b_matrix[:, 0]
    if n_delay:
        a[q0 : iy - 1, q0 + 1 : iy] = np.eye(n_delay - 1)
        a[iy - 1], b[iy - 1] = u_x, v_w
    a[iy], b[iy] = x_x, x_w + [0.0, 0.0, 1.0]
    return DiscreteSS(
        a_matrix=a,
        b_matrix=b,
        c_matrix=np.vstack([u_x, x_x]),
        d_matrix=np.vstack([u_w, x_w]),
        ts=plant_d.ts,
    )


def spectral_radius(block: DiscreteSS) -> float:
    """Largest eigenvalue magnitude of a block's state matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(block.a_matrix))))


BLOCK_LEN = 128  # samples per block of the blocked state-space engine
CHUNK_ROWS = 64 * BLOCK_LEN  # input rows per step of ``_blocked_stepper``


def run_state_space(block: DiscreteSS, w) -> np.ndarray:
    """Zero-state response of x+ = A x + B w, y = C x + D w to the rows of w.

    ``w`` is (samples, inputs) and the result (samples, outputs); an input
    delay of q samples puts the response to the first samples - q rows at
    row q, after q rows of zeros. The record runs through
    ``_blocked_stepper`` one chunk of CHUNK_ROWS rows at a time.
    """
    w = np.asarray(w, dtype=float)
    nsamp, _ = w.shape
    delay = min(block.input_delay_samples, nsamp)
    w = w[: nsamp - delay]
    y = np.zeros((nsamp, block.c_matrix.shape[0]))
    y_run = y[delay:]  # the rows the undelayed record reaches
    step = _blocked_stepper(block)
    for start in range(0, w.shape[0], CHUNK_ROWS):
        y_run[start : start + CHUNK_ROWS] = step(w[start : start + CHUNK_ROWS])
    return y


def _blocked_stepper(block: DiscreteSS):
    """A function that runs the next rows of input through ``block``.

    Each call returns the outputs of the rows it is given; the state
    carries from one call to the next, starting at zero. Every call but
    the last takes a whole number of blocks of L = BLOCK_LEN rows, and
    CHUNK_ROWS rows a call keep the temporaries small. The input delay is
    the caller's. Within a block the forced response is one direct product
    of the block's inputs with the strictly lower block-Toeplitz matrix of
    the Markov taps C A^(j-1) B; the free response C A^j x0 of the state
    at the block start adds to it, and that state carries on as A^L x0
    plus the block's forced end state. The feedthrough D w adds outside
    the blocks, so a block without state passes its input on exactly. The
    error relative to a per-sample run tracks the transient growth max
    ||A^k|| of the realization once balanced; a power-of-two diagonal
    similarity leaves every output bit unchanged, so balancing cannot
    help. ``discretize``'s state-space Tustin blocks and their closed loop
    (growth below 100) stay within 1e-14 of max|y|; companion forms in z
    (growth 5e3-1.5e4) lose digits, to about 2e-6.
    """
    a, b, c, d = block.a_matrix, block.b_matrix, block.c_matrix, block.d_matrix
    n, (n_out, n_in) = a.shape[0], d.shape
    block_len = BLOCK_LEN
    obs = _power_columns(a.T, c.T, block_len)  # obs[:, j, i]: (C_i A^j)^T
    taps = np.zeros((block_len, n_out, n_in))  # taps[j]: C A^(j-1) B; D stays outside
    taps[1:] = (b.T @ obs[:, :-1].reshape(n, -1)).reshape(n_in, -1, n_out).transpose(1, 2, 0)
    lag = np.arange(block_len) - np.arange(block_len)[:, np.newaxis]  # [i, j]: j - i
    toeplitz = taps[np.maximum(lag, 0)].transpose(0, 3, 1, 2)  # [i, p, j, o]: w_p[i] to y_o[j]
    ctrl = _power_columns(a, b, block_len)[:, ::-1]  # A^(L-1-i) B
    # one product per block gives its forced response and its forced end state
    gain = np.hstack([toeplitz.reshape(block_len * n_in, -1), ctrl.reshape(n, -1).T])
    obs = obs.reshape(n, -1)
    a_block = np.linalg.matrix_power(a, block_len)
    x = np.zeros(n)

    def step(seg: np.ndarray) -> np.ndarray:
        nonlocal x
        y = seg @ d.T
        nseg = seg.shape[0]
        if nseg % block_len:
            seg = np.concatenate([seg, np.zeros((block_len - nseg % block_len, n_in))])
        out = seg.reshape(-1, block_len * n_in) @ gain
        forced = out[:, block_len * n_out :]
        out = out[:, : block_len * n_out]
        starts = np.empty((out.shape[0], n))
        for k in range(out.shape[0]):
            starts[k] = x
            x = a_block @ x + forced[k]
        out += starts @ obs
        y += out.reshape(-1, n_out)[:nseg]
        return y

    return step


def _power_columns(a: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    """The (n, count, k) stack of A^j v for j = 0 .. count-1, built by doubling."""
    n, k = v.shape
    out = np.empty((n, count, k))
    out[:, 0] = v
    done, a_done = 1, a
    while done < count:
        m = min(done, count - done)
        out[:, done : done + m] = (a_done @ out[:, :m].reshape(n, -1)).reshape(n, m, k)
        done, a_done = done + m, a_done @ a_done
    return out


def simulate_dual_loop(
    plant_d: DiscreteSS, tracker_d: DiscreteSS, nrc_d: DiscreteSS, r, d, n
) -> SimTrace:
    """Run the dual loop of ``dual_loop_state_space`` on (r, d, n).

    The closed loop goes through ``run_state_space`` in one blocked pass.
    Any loop runs, a diverging one included; ``spectral_radius`` of the
    closed loop tells in advance.
    """
    r = np.asarray(r, dtype=float)
    d = np.asarray(d, dtype=float)
    n = np.asarray(n, dtype=float)
    if not (r.shape == d.shape == n.shape) or r.ndim != 1:
        raise ValueError("r, d, n must be 1-D arrays of equal length")
    loop = dual_loop_state_space(plant_d, tracker_d, nrc_d)
    u, x_true = run_state_space(loop, np.column_stack([r, d, n])).T
    y_meas = x_true + n
    time_s = np.arange(r.size) * loop.ts
    return SimTrace(
        time_s=time_s, r=r, d=d, n=n, u=u, x_true=x_true, y_meas=y_meas, e=r - y_meas
    )


def trace_to_csv(trace: SimTrace, path) -> None:
    """Write a simulation trace as CSV."""
    cols = ("time_s", "r", "d", "n", "u", "x_true", "y_meas", "e")
    write_csv(path, cols, [getattr(trace, c) for c in cols])


def make_reference(
    kind: str, amplitude: float, ts: float, duration_s: float, freq_hz: float = 0.0
) -> np.ndarray:
    """Deterministic reference signal: 'step' or 'sine'."""
    nsamp = int(round(duration_s / ts))
    t = np.arange(nsamp) * ts
    if kind == "step":
        return np.full(nsamp, amplitude)
    if kind == "sine":
        if freq_hz <= 0.0:
            raise ValueError("sine reference needs freq_hz > 0")
        return amplitude * np.sin(2.0 * np.pi * freq_hz * t)
    raise ValueError(f"unknown reference kind '{kind}'")


def make_uniform_noise(seed: int, amplitude: float, nsamples: int) -> np.ndarray:
    """Seeded uniform noise in [-amplitude, amplitude] for reproducible runs.

    Amplitude 0 gives zeros without importing ``numpy.random``: the
    Generator's -0.0 + 0.0 U is +0.0 too, so the bits are the same.
    """
    if amplitude == 0.0:
        return np.zeros(nsamples)
    rng = np.random.default_rng(seed)
    return rng.uniform(-amplitude, amplitude, nsamples)


def tracking_metrics(r, y) -> tuple[float, float]:
    """(max tracking error, rms tracking error) of y against r."""
    r = np.asarray(r, dtype=float)
    y = np.asarray(y, dtype=float)
    if r.size == 0 or r.shape != y.shape:
        raise ValueError("r and y must be nonempty arrays of equal length")
    e = y - r
    return float(np.max(np.abs(e))), float(np.sqrt(np.mean(e * e)))


def sinusoid_phasor(x, f_hz: float, ts: float) -> complex:
    """Steady-state complex amplitude of x at frequency f.

    Projects the tail of the record (after SINE_SKIP_FRAC of it) onto the
    quadrature pair at f over a whole number of cycles. Ratios of phasors
    extracted from two signals with the same arguments give the complex
    gain between them.
    """
    x = np.asarray(x, dtype=float)
    tail = x[int(x.size * SINE_SKIP_FRAC) :]
    cycles = int(math.floor(tail.size * ts * f_hz))
    if cycles < 1:
        raise ValueError("record too short for one whole cycle after skipping")
    nuse = int(round(cycles / (f_hz * ts)))
    tail = tail[-nuse:]
    t = np.arange(tail.size) * ts
    ph = 2.0 * np.pi * f_hz * t
    return complex(2.0 * np.mean(tail * np.exp(-1j * ph)))


def sinusoid_amplitude(x, f_hz: float, ts: float) -> float:
    """Steady-state amplitude of x at frequency f (see sinusoid_phasor)."""
    return abs(sinusoid_phasor(x, f_hz, ts))


def log_chirp(
    fs: float,
    duration_s: float = 10.0,
    f0: float = 10.0,
    f1: float = 5000.0,
    amplitude: float = 0.1,
    taper_frac: float = 0.05,
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """Samples [start, stop) of a logarithmic chirp with raised-cosine edge
    tapers; the whole record by default.

    The phase is 2 pi beta f0 ((f1/f0)^(t/T) - 1) with beta = T / ln(f1/f0);
    the taper is a symmetric Tukey window of width 2 * taper_frac. The
    arithmetic, and so every bit, is that of ``scipy.signal.chirp(...,
    method="logarithmic")`` times ``scipy.signal.windows.tukey``, whatever
    the range; it is filled in place, a chunk at a time, because a record
    runs to millions of samples.
    """
    if not (0.0 < f0 < f1 < fs / 2.0):
        raise ValueError("need 0 < f0 < f1 < fs/2")
    nsamp = int(round(duration_s * fs))
    stop = nsamp if stop is None else stop
    if not 0 <= start <= stop <= nsamp:
        raise ValueError(f"need 0 <= start <= stop <= {nsamp}, not [{start}, {stop})")
    u = np.empty(stop - start)
    chunk = 1 << 16
    for lo in range(0, u.size, chunk):
        seg = u[lo : lo + chunk]
        np.divide(np.arange(start + lo, start + lo + seg.size), fs, out=seg)
        seg /= duration_s
        np.power(f1 / f0, seg, out=seg)
        seg -= 1.0
        seg *= 2 * math.pi * (duration_s / math.log(f1 / f0)) * f0
        np.cos(seg, out=seg)
        seg *= amplitude
    alpha = min(2.0 * taper_frac, 1.0)
    if nsamp > 1 and alpha > 0.0:
        width = int(math.floor(alpha * (nsamp - 1) / 2.0))
        if start <= width:  # the leading taper covers samples 0 .. width
            n = np.arange(start, min(stop, width + 1), dtype=float)
            u[: n.size] *= 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * n / alpha / (nsamp - 1))))
        if stop > nsamp - width - 1:  # the trailing one the last width + 1
            n = np.arange(max(start, nsamp - width - 1), stop, dtype=float)
            u[u.size - n.size :] *= 0.5 * (
                1 + np.cos(np.pi * (-2.0 / alpha + 1 + 2.0 * n / alpha / (nsamp - 1)))
            )
    return u


def _bilinear_state_space(a: np.ndarray, b: np.ndarray, c: np.ndarray, d, ts: float):
    """Tustin map s = (2/ts)(z-1)/(z+1) of a continuous (A, B, C, D).

    Returns (A_d, B_d, C_d, D_d) whose transfer function is G(2/ts (z-1)/(z+1)),
    with D_d = D + C B_d / 2. B and C may be vectors or single-column and
    single-row matrices. A contraction A + A^T <= 0 maps to ||A_d|| <= 1.
    """
    m = np.eye(a.shape[0]) - (ts / 2.0) * a
    a_d = np.linalg.solve(m, np.eye(a.shape[0]) + (ts / 2.0) * a)
    b_d = np.linalg.solve(m, ts * b)
    c_d = np.linalg.solve(m.T, c.T).T
    return a_d, b_d, c_d, d + 0.5 * (c @ b_d)


def open_loop_response(
    plant: PlantSpec,
    fs: float,
    duration_s: float = 10.0,
    oversample: int = IDENTIFY_OVERSAMPLE,
    f1: float = 5000.0,
):
    """Run of a plant driven by ``log_chirp`` up to ``f1``, sampled at fs.

    The plant is integrated at m = ``oversample`` times the output rate
    (the excitation is evaluated directly at the fine rate, as a continuous
    drive would be) and input and output are sampled at fs, which keeps
    discretization warping far below the identification tolerances. Only
    the kept samples are computed: the plant runs lifted at fs
    (``_lifted_plant``), one row of m fine inputs per step, and only the
    lifted steps that reach a kept sample run. No record is held: the
    chirp is generated one stepper chunk (CHUNK_ROWS rows of m samples) at
    a time, every m-th sample kept, and the chunk run through the lifted
    plant, whose state carries to the next; only the row the record's end
    cuts is padded, and its tail reaches no output. Returns an iterator of
    (u, y) chunks at fs, CHUNK_ROWS samples each but the last; their
    concatenation is the record. The plant is built and ``oversample``
    checked before the first chunk is asked for.
    """
    integral = isinstance(oversample, numbers.Integral) and not isinstance(oversample, bool)
    if not integral or oversample < 1:
        raise ValueError(f"oversample must be an integer >= 1, not {oversample!r}")
    m = int(oversample)
    lifted, q = _lifted_plant(plant, fs, m)
    return _lifted_chunks(_blocked_stepper(lifted), q, fs, m, duration_s, f1)


def _lifted_chunks(step, q: int, fs: float, m: int, duration_s: float, f1: float):
    """The (u, y) chunks of ``open_loop_response``; ``step`` runs the lifted
    plant, whose outputs reach y q samples late."""
    fs_fine = fs * m
    n_fine = int(round(duration_s * fs_fine))  # as log_chirp counts the record
    n_keep = -(-n_fine // m)  # the samples of the fine record's [::m]
    steps = max(n_keep - q, 0)  # lifted steps that reach a kept sample
    late = np.zeros(min(q, n_keep))  # y from here on, not yet handed out
    for k0 in range(0, n_keep, CHUNK_ROWS):
        k1 = min(k0 + CHUNK_ROWS, n_keep)
        chunk = log_chirp(fs_fine, duration_s, f1=f1, start=k0 * m, stop=min(k1 * m, n_fine))
        nrows = min(k1, steps) - k0  # the chunk's lifted steps that reach a kept sample
        if nrows > 0:
            rows = chunk[: nrows * m]
            if rows.size < nrows * m:  # the record's end cuts the last row; no output sees its tail
                rows = np.concatenate([rows, np.zeros(nrows * m - rows.size)])
            late = np.concatenate([late, step(rows.reshape(nrows, m))[:, 0]])
        yield chunk[::m].copy(), late[: k1 - k0]
        late = late[k1 - k0 :]


def _lifted_plant(plant: PlantSpec, fs: float, m: int) -> tuple[DiscreteSS, int]:
    """The plant integrated at m fs, lifted to fs, and its delay in lifted steps.

    The fine-rate plant is the bilinear (c = 2/ts) map (A, b, c, d) of its
    modal state space, whose powers stay bounded. Lifted (Chen & Francis
    1995), its state is x[k] = x_fine[m k] and each step takes one row of m
    fine inputs, so A_L = A^m and B_L = [A^(m-1) b ... b]. The fine delay
    n_d is written m q - r with 0 <= r < m; output k is the fine output at
    phase r of lifted step k - q, so C_L = c A^r and the feedthrough row
    D_L holds c A^(r-1-i) b for i < r and d at i = r. Returns (block, q).
    """
    ts_fine = 1.0 / (fs * m)
    a, b, c, d = _bilinear_state_space(*modal_state_space(plant), 0.0, ts_fine)
    n_delay = int(round(plant.delay_s / ts_fine))
    q = -(-n_delay // m)  # n_delay = m q - r with 0 <= r < m
    r = m * q - n_delay
    powers = _power_columns(a, b[:, np.newaxis], m)[:, :, 0]  # A^j b
    d_lift = np.zeros(m)
    d_lift[:r] = (c @ powers[:, :r])[::-1]
    d_lift[r] = d
    lifted = DiscreteSS(
        a_matrix=np.linalg.matrix_power(a, m),
        b_matrix=powers[:, ::-1],
        c_matrix=(c @ np.linalg.matrix_power(a, r))[np.newaxis],
        d_matrix=d_lift[np.newaxis],
        ts=1.0 / fs,
    )
    return lifted, q


@dataclass(frozen=True)
class FrfEstimate:
    """Spectral FRF estimate with coherence."""

    freq_hz: np.ndarray
    mag_db: np.ndarray
    phase_deg: np.ndarray
    coherence: np.ndarray


def _welch_spectra(chunks, fs: float, segment_len: int):
    """One-sided Welch densities of a record streamed as (u, y) chunks.

    Periodic Hann windows on half-overlapping segments, no detrending,
    density scaling 1/(fs sum w^2), every bin doubled except DC and (for an
    even length) Nyquist, then the mean over segments (Welch 1967), as
    scipy.signal computes them. The chunks go into a ring of one segment
    for u and one for y; each segment is windowed out of its ring, then
    transformed and summed as soon as it is complete, so no record or stack
    of segments is held, and the sums and the one division keep every bit
    of the mean. y is scaled by 2^-e, e the binary exponent of its peak in
    the first segment that is not all zero (0 if none is), so its squares
    neither overflow nor underflow at any plant gain. The scaling is exact
    for every sample within some 300 decades of that peak, and the segments
    before that one are zero at any e. Returns (f, S_uu, S_yy, S_uy, e),
    S_yy and S_uy those of y 2^-e.
    """
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    step = segment_len - segment_len // 2
    ring_u, ring_y = np.empty(segment_len), np.empty(segment_len)  # sample n at n % segment_len
    windowed = np.empty(segment_len)
    sums = []

    def add_segment(lo: int) -> None:
        """Transform the segment from sample lo and add it to the sums."""
        fu = _ring_rfft(ring_u, lo % segment_len, win, windowed)
        fy = _ring_rfft(ring_y, lo % segment_len, win, windowed)
        terms = (fu.real**2 + fu.imag**2, fy.real**2 + fy.imag**2, np.conj(fu) * fy)
        if sums:  # in order, as numpy's mean over axis 0 adds the rows
            for acc, term in zip(sums, terms):
                acc += term
        else:
            sums.extend(terms)

    n = lo = 0  # samples received; the next segment's start
    e = None
    for u, y in chunks:
        u = np.asarray(u, dtype=float)
        y = np.asarray(y, dtype=float)
        if u.shape != y.shape or u.ndim != 1:
            raise ValueError("u and y must be 1-D arrays of equal length")
        i = 0
        while i < u.size:
            at = n % segment_len
            take = min(u.size - i, lo + segment_len - n, segment_len - at)
            ring_u[at : at + take] = u[i : i + take]
            np.ldexp(y[i : i + take], -(e or 0), out=ring_y[at : at + take])
            i, n = i + take, n + take
            if n == lo + segment_len:
                if e is None and ring_y.any():  # the ring holds exactly this segment
                    e = math.frexp(float(np.max(np.abs(ring_y))))[1]
                    np.ldexp(ring_y, -e, out=ring_y)
                add_segment(lo)
                lo += step
    if n < 2 * segment_len:
        raise ValueError("need at least two segments of data")
    scale = np.full(segment_len // 2 + 1, 2.0 / (fs * np.sum(win * win)))
    scale[0] /= 2.0
    if segment_len % 2 == 0:
        scale[-1] /= 2.0
    count = (n - segment_len) // step + 1
    s_uu, s_yy, s_uy = (acc / count * scale for acc in sums)
    return np.fft.rfftfreq(segment_len, 1.0 / fs), s_uu, s_yy, s_uy, e or 0


def _ring_rfft(ring: np.ndarray, start: int, win: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """rfft of the segment at ring[start:] then ring[:start], windowed into buf."""
    cut = ring.size - start
    np.multiply(ring[start:], win[:cut], out=buf[:cut])
    np.multiply(ring[:start], win[cut:], out=buf[cut:])
    return np.fft.rfft(buf)


def chirp_identify(chunks, fs: float, segment_len: int) -> FrfEstimate:
    """H1 spectral FRF estimate S_uy/S_uu from broadband input-output data.

    ``chunks`` is an iterable of (u, y) pairs of equal-length 1-D arrays
    whose concatenation is the record, such as ``open_loop_response``
    returns; it is read once, and no record is held. Hann-tapered,
    half-overlapping segments are averaged; coherence comes from the same
    segmentation. The record must cover at least two segments, and the
    input must carry power. The power-of-two scaling of y in
    ``_welch_spectra`` cancels exactly in the coherence and is undone
    exactly on H.
    """
    f, s_uu, s_yy, s_uy, e = _welch_spectra(chunks, fs, segment_len)
    if np.max(s_uu) <= 0.0:
        raise ValueError("input signal has no power")
    coh = np.abs(s_uy) ** 2 / s_uu / s_yy  # as scipy.signal.coherence computes it
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(s_uu > 0.0, s_uy / s_uu, np.nan)
        np.ldexp(h.real, e, out=h.real)
        np.ldexp(h.imag, e, out=h.imag)
        mag = 20.0 * np.log10(np.abs(h))
    phase = np.degrees(unwrap(np.angle(h)))
    return FrfEstimate(freq_hz=f, mag_db=mag, phase_deg=phase, coherence=coh)


def frf_to_csv(est: FrfEstimate, path) -> None:
    """Write an FRF estimate as CSV."""
    write_csv(
        path,
        ("freq_hz", "mag_db", "phase_deg", "coherence"),
        (est.freq_hz, est.mag_db, est.phase_deg, est.coherence),
    )
