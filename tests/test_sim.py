import warnings
from collections import deque
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closed_forms import nrc_gains, two_mode_zero
from nrcdamp import (
    DiscreteSS,
    ModeSpec,
    NrcSpec,
    PiSpec,
    PlantSpec,
    RationalTF,
    TrackerSpec,
    build_plant,
    build_tracker,
    chirp_identify,
    dc_gain,
    discrete_frf,
    discretize,
    dual_loop_state_space,
    freq_response,
    log_chirp,
    make_reference,
    make_uniform_noise,
    nanopositioner_surrogate,
    nrc,
    open_loop_response,
    run_state_space,
    simulate_dual_loop,
    sinusoid_amplitude,
    sinusoid_phasor,
    spectral_radius,
    synthesize_nrc,
    tracking_metrics,
)

TWO_PI = 2.0 * np.pi
TS = 30e-6


@pytest.fixture(scope="session")
def sps():
    """scipy.signal, the reference of the tests that take it; they skip
    where scipy is not installed."""
    return pytest.importorskip("scipy.signal")


# Polynomial coefficients with exact zeros and values either side of the
# 1e-14 threshold below which tf2ss treats a leading coefficient as zero.
COEFF = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-14, -1e-14, 1e-15, 2e-14]),
)


def single_mode(g=1.0, f_hz=100.0, zeta=0.0):
    return PlantSpec(gain=g, modes=(ModeSpec(TWO_PI * f_hz, zeta),))


# The polynomial path discretize took before it realized the continuous
# transfer function and mapped the realization, kept as the reference of
# simulate's contract against the previous release.


def _bilinear_poly(coeffs_s: np.ndarray, c: float, n_total: int) -> np.ndarray:
    """Ascending z-coefficients of sum_i a_i c^i (z-1)^i (z+1)^(n-i)."""
    out = np.zeros(n_total + 1)
    for i, a in enumerate(coeffs_s):
        term = np.array([a * c**i])
        for _ in range(i):
            term = np.convolve(term, [-1.0, 1.0])
        for _ in range(n_total - i):
            term = np.convolve(term, [1.0, 1.0])
        out[: term.size] += term
    return out


def old_discretize(sps, tf, ts):
    """num and den expanded through s = (2/ts)(z-1)/(z+1), then tf2ss."""
    n = tf.den.degree
    num_z = _bilinear_poly(tf.num.coeffs, 2.0 / ts, n)
    den_z = _bilinear_poly(tf.den.coeffs, 2.0 / ts, n)
    a, b, c, d = sps.tf2ss(num_z[::-1], den_z[::-1])
    return DiscreteSS(a, b, c, d, ts, int(round(tf.delay_s / ts)))


class TestDiscretize:
    @settings(deadline=None)
    @example(gain=2.5, wts=TWO_PI * 100.0 * TS, zeta=0.01, second=None, ts=TS)
    @example(gain=1.0, wts=TWO_PI * 50.0 * 5e-6, zeta=0.01, second=(2.0, 0.3), ts=5e-6)
    @given(
        gain=st.floats(0.1, 10.0),
        wts=st.floats(1e-3, 1.0),
        zeta=st.floats(0.005, 0.5),
        second=st.none() | st.tuples(st.floats(1.1, 3.0), st.floats(0.05, 1.0)),
        ts=st.floats(5e-6, 1e-4),
    )
    def test_dc_preserved(self, gain, wts, zeta, second, ts):
        modes = [ModeSpec(wts / ts, zeta)]
        if second is not None:
            ratio, weight = second
            modes.append(ModeSpec(wts / ts * ratio, zeta, weight))
        g = build_plant(PlantSpec(gain=gain, modes=tuple(modes)))
        blk = discretize(g, ts)
        assert abs(discrete_frf(blk, 1e-9)) == pytest.approx(dc_gain(g), rel=1e-9)

    def test_integrator_accumulates(self):
        wi = TWO_PI * 28.0
        blk = discretize(RationalTF.from_coeffs([wi], [0.0, 1.0]), TS)
        y = run_state_space(blk, np.ones((1000, 1)))[:, 0]
        growth = np.diff(y[10:])
        np.testing.assert_allclose(growth, wi * TS, rtol=1e-9)

    def test_improper_rejected(self):
        with pytest.raises(ValueError, match="improper"):
            discretize(RationalTF.from_coeffs([1.0, 2.0, 1.0], [1.0, 1.0]), TS)

    def test_delay_rounds_to_samples(self):
        g = build_plant(single_mode())
        spec = replace(single_mode(), delay_s=150e-6)
        blk = discretize(build_plant(spec), TS)
        assert blk.input_delay_samples == 5

    def test_frf_matches_continuous_below_fs_20(self):
        # trapezoidal map identity: the discrete response at w equals the
        # continuous response at the warped frequency (2/T)tan(wT/2)
        g = replace(build_plant(nanopositioner_surrogate()), delay_s=0.0)
        blk = discretize(g, TS)
        fs = 1.0 / TS
        w = TWO_PI * np.linspace(5.0, fs / 20.0, 60)
        warped = (2.0 / TS) * np.tan(w * TS / 2.0)
        np.testing.assert_allclose(
            discrete_frf(blk, w), freq_response(g, warped), rtol=1e-9
        )
        # the unwarped magnitude error is (warp) * (log-log slope); below
        # the first resonance the slope is near zero and 1% holds, while the
        # peaks and the 40 dB/dec rolloff amplify the 0.1%-level warp beyond
        # it
        f = w / TWO_PI
        flat = f < 0.9 * 739.0
        disc = np.abs(discrete_frf(blk, w[flat]))
        cont = np.abs(freq_response(g, w[flat]))
        assert np.max(np.abs(disc / cont - 1.0)) < 0.01

    @pytest.mark.parametrize("oversample", [1, 8])
    def test_surrogate_blocks_match_exact_map(self, surrogate_raw, oversample):
        # the plant, tracker and damper at the sim rate and at identify's
        # oversampled rate against G(s) at s = (2/ts)(z-1)/(z+1), which on
        # the unit circle is s = i (2/ts) tan(w ts/2), from 1 Hz to 0.49 fs
        from nrcdamp.cli import parse_config_dict

        cfg = parse_config_dict(surrogate_raw)
        ctx = cfg.design
        ts = 1.0 / ((1.0 / cfg.sim.ts_s) * oversample)
        w = TWO_PI * np.geomspace(1.0, 0.49 / ts, 500)
        warped = (2.0 / ts) * np.tan(w * ts / 2.0)
        for tf in (replace(ctx.plant_tf, delay_s=0.0), ctx.ct_tf, ctx.cd_tf):
            np.testing.assert_allclose(
                discrete_frf(discretize(tf, ts), w), freq_response(tf, warped), rtol=1e-9
            )

    @settings(max_examples=300, deadline=None)
    @given(
        num=st.lists(COEFF, min_size=1, max_size=17),
        den=st.lists(COEFF, min_size=1, max_size=17).filter(any),
    )
    def test_controller_canonical_matches_scipy_tf2ss(self, sps, num, den):
        # tf2ss trims a leading column of the numerator only if all of it is
        # 1e-14 or less after the division by den[0]: a second row, 1 there
        # where the first is not an exact zero, leaves it only the exact
        # zeros to trim, and the first row's arithmetic as it is alone
        from nrcdamp.sim import _controller_canonical

        num, den = np.array(num), np.array(den)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", sps.BadCoefficients)
            lead = np.trim_zeros(den, "f")[0]
            guard = np.where(num / lead != 0.0, lead, 0.0)
            try:
                a, b, c, d = sps.tf2ss(np.vstack([num, guard]), den)
            except ValueError:  # improper
                with pytest.raises(ValueError, match="improper"):
                    _controller_canonical(num, den)
                return
            got = _controller_canonical(num, den)
        expected = (a, b, c[:1], d[:1])
        for g, e in zip(got, expected):  # a subnormal den[0] gives the same nan
            assert g.shape == e.shape and np.array_equal(g, e, equal_nan=True)


def run_step_loop(kp, gamma=0.999, n=3.0, omega_i=0.0, duration=0.3, f_hz=100.0):
    plant = single_mode(f_hz=f_hz)
    g = build_plant(plant)
    k, wa = nrc_gains(plant, NrcSpec(gamma=gamma, n=n))
    ct = build_tracker(TrackerSpec(pi=PiSpec(kp=kp, omega_i_rad_s=omega_i)))
    r = make_reference("step", 1.0, TS, duration)
    z = np.zeros(r.size)
    return simulate_dual_loop(
        discretize(g, TS), discretize(ct, TS), discretize(nrc(k, wa), TS), r, z, z
    )


class TestDualLoop:
    def test_pi_tracker_zero_steady_state(self):
        trace = run_step_loop(kp=1.0, omega_i=TWO_PI * 10.0, duration=0.5)
        assert abs(trace.e[-1]) < 1e-4

    def test_terminal_error_follows_loop_algebra(self):
        # with gamma just below one the inner loop is a finite-gain (not
        # integrating) stage and the proportional-only terminal error is
        # (1-gamma)/(1-gamma+kp)
        gamma = 0.999
        for kp in (1.0, 10.0):
            trace = run_step_loop(kp=kp, gamma=gamma, duration=0.6)
            e_term = float(np.mean(trace.e[-200:]))
            expected = (1.0 - gamma) / (1.0 - gamma + kp)
            assert e_term == pytest.approx(expected, rel=0.01)

    def test_trace_invariants(self):
        rng = np.random.default_rng(3)
        plant = single_mode(zeta=0.01)
        g = build_plant(plant)
        ct = build_tracker(TrackerSpec(pi=PiSpec(kp=0.5)))
        cd = synthesize_nrc(plant, NrcSpec(gamma=0.9, n=3.0))
        nsamp = 2000
        r = make_reference("sine", 1.0, TS, nsamp * TS, 50.0)
        d = rng.normal(0.0, 0.1, nsamp)
        n = make_uniform_noise(5, 0.01, nsamp)
        trace = simulate_dual_loop(
            discretize(g, TS), discretize(ct, TS), discretize(cd, TS), r, d, n
        )
        np.testing.assert_allclose(trace.y_meas, trace.x_true + trace.n, atol=1e-15)
        np.testing.assert_allclose(trace.e, trace.r - trace.y_meas, atol=1e-15)

    def test_dimension_mismatch(self):
        plant = single_mode()
        blk = discretize(build_plant(plant), TS)
        with pytest.raises(ValueError, match="equal length"):
            simulate_dual_loop(blk, blk, blk, np.ones(5), np.ones(4), np.ones(5))

    def test_sine_matches_closed_loop_frf(self):
        # steady-state amplitude of the simulated loop equals the analytic
        # |T_yr| at the drive frequency
        plant = single_mode(f_hz=200.0, zeta=0.01)
        g = build_plant(plant)
        k, wa = nrc_gains(plant, NrcSpec(gamma=0.999, n=3.0))
        cd = nrc(k, wa)
        ct = build_tracker(TrackerSpec(pi=PiSpec(kp=1.0, omega_i_rad_s=TWO_PI * 5.0)))
        f = 50.0
        r = make_reference("sine", 1.0, TS, 0.4, f)
        z = np.zeros(r.size)
        trace = simulate_dual_loop(
            discretize(g, TS), discretize(ct, TS), discretize(cd, TS), r, z, z
        )
        w = TWO_PI * f
        gv = freq_response(g, w)
        cv = freq_response(ct, w)
        dv = freq_response(cd, w)
        t_yr = abs(gv * cv / (1.0 + gv * (cv + dv)))
        amp = sinusoid_amplitude(trace.y_meas, f, TS)
        assert amp == pytest.approx(t_yr, rel=0.02)

    def test_sine_gain_and_phase_match_surrogate_frf(self, surrogate_raw):
        # gain within 2% and, once the documented one-sample measurement
        # offset of the causal loop is removed, phase within 3 deg
        from nrcdamp.cli import parse_config_dict

        cfg = parse_config_dict(surrogate_raw)
        ctx = cfg.design
        ts = cfg.sim.ts_s
        blocks = (
            discretize(ctx.plant_tf, ts),
            discretize(ctx.ct_tf, ts),
            discretize(ctx.cd_tf, ts),
        )
        for f in (50.0, 100.0, 200.0, 500.0):
            r = make_reference("sine", 1.0, ts, 0.35, f)
            z = np.zeros(r.size)
            trace = simulate_dual_loop(*blocks, r, z, z)
            gain = sinusoid_phasor(trace.y_meas, f, ts) / sinusoid_phasor(
                trace.r, f, ts
            )
            target = complex(ctx.at(TWO_PI * f).t_yr)
            assert abs(gain) == pytest.approx(abs(target), rel=0.02)
            w = TWO_PI * f
            dphase = np.degrees(np.angle(gain * np.exp(-1j * w * ts) / target))
            assert abs(dphase) < 3.0


# The three-runner sample loop that simulate_dual_loop replaced, kept as the
# reference for the one-matrix closed loop.


class _ReferenceRunner:
    """One block of the reference loop, stepped a sample at a time."""

    def __init__(self, block):
        self.a = block.a_matrix
        self.b = block.b_matrix[:, 0]
        self.c = block.c_matrix[0]
        self.d = block.d_matrix[0, 0]
        self.x = np.zeros(block.order)

    def step(self, u):
        y = float(self.c @ self.x + self.d * u)
        self.x = self.a @ self.x + self.b * u
        return y


def reference_dual_loop(plant_d, tracker_d, nrc_d, r, d, n):
    """(u, x_true, y_meas) of the dual loop, block by block and sample by sample."""
    plant, tracker, damper = (_ReferenceRunner(b) for b in (plant_d, tracker_d, nrc_d))
    delay_line = deque([0.0] * max(plant_d.input_delay_samples - 1, 0))
    u, x_true, y_meas = (np.empty(r.size) for _ in range(3))
    y_prev = 0.0
    for k in range(r.size):
        u_k = tracker.step(r[k] - y_prev) - damper.step(y_prev)
        delay_line.append(u_k + d[k])
        x_k = plant.step(delay_line.popleft())
        y_prev = x_k + n[k]
        u[k], x_true[k], y_meas[k] = u_k, x_k, y_prev
    return u, x_true, y_meas


# crosses many 64-block chunks of run_state_space and ends in a ragged block
LONG_RECORD = 64 * 2048 + 3 * 2048 + 517

LOOP_VARIANTS = ("surrogate", "no_delay", "one_sample_delay", "step", "no_integrator", "p_only")


def loop_case(raw, variant, disc=discretize):
    """Blocks, by ``disc``, and (r, d, n) of one closed-loop contract case:
    the surrogate with noise and a 700 Hz disturbance, altered by variant."""
    from nrcdamp.cli import parse_config_dict

    raw["sim"].update(noise_amplitude=0.01, disturbance_amplitude=0.2,
                      disturbance_freq_hz=700.0)
    if variant == "no_delay":
        raw["plant"]["delay_us"] = 0.0
    elif variant == "one_sample_delay":
        raw["plant"]["delay_us"] = raw["sim"]["ts_us"]
    elif variant == "step":
        raw["sim"]["reference"] = {"kind": "step", "amplitude": 1.0}
    elif variant == "no_integrator":
        raw["tracker"]["omega_i_hz"] = 0.0
    elif variant == "p_only":  # a pure-gain tracker
        raw["tracker"] = {"kp": 1.0, "omega_i_hz": 0.0}
    cfg = parse_config_dict(raw)
    ctx = cfg.design
    sim = cfg.sim
    blocks = tuple(disc(tf, sim.ts_s) for tf in (ctx.plant_tf, ctx.ct_tf, ctx.cd_tf))
    ref = sim.reference
    r = make_reference(ref.kind, ref.amplitude, sim.ts_s, sim.duration_s, ref.freq_hz)
    t = np.arange(r.size) * sim.ts_s
    d = sim.disturbance_amplitude * np.sin(TWO_PI * sim.disturbance_freq_hz * t)
    n = make_uniform_noise(sim.seed, sim.noise_amplitude, r.size)
    return blocks, (r, d, n)


def closed_loop_frf(loop, omega, out, inp):
    """One input-output pair of a multi-input, multi-output DiscreteSS."""
    eye = np.eye(loop.order)
    return np.array([
        loop.c_matrix[out] @ np.linalg.solve(np.exp(1j * w * loop.ts) * eye - loop.a_matrix,
                                             loop.b_matrix[:, inp])
        + loop.d_matrix[out, inp]
        for w in omega
    ])


def assert_trace_contract(trace, want, r, variant):
    """The output contract of simulate: u, x_true, y_meas within 1e-10 of
    the max magnitude of ``want``'s (u, x_true, y_meas), the metrics within
    1e-10 relative."""
    for got, ref in zip((trace.u, trace.x_true, trace.y_meas), want):
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    y_meas = want[2]
    got, ref = tracking_metrics(r, trace.y_meas), tracking_metrics(r, y_meas)
    if variant != "step":  # metrics.json's steady-state amplitude of a sine
        got += (sinusoid_amplitude(trace.y_meas, 100.0, TS),)
        ref += (sinusoid_amplitude(y_meas, 100.0, TS),)
    np.testing.assert_allclose(got, ref, rtol=1e-10)


class TestClosedLoopStateSpace:
    @pytest.mark.parametrize("variant", LOOP_VARIANTS)
    def test_trace_matches_reference_loop(self, surrogate_raw, variant):
        # simulate's contract, and e within 1e-10 of max|y_meas|
        blocks, (r, d, n) = loop_case(surrogate_raw, variant)
        trace = simulate_dual_loop(*blocks, r, d, n)
        want = reference_dual_loop(*blocks, r, d, n)
        assert_trace_contract(trace, want, r, variant)
        y_meas = want[2]
        assert np.max(np.abs(trace.e - (r - y_meas))) <= 1e-10 * np.max(np.abs(y_meas))
        assert np.array_equal(trace.y_meas, trace.x_true + n)
        assert np.array_equal(trace.e, r - trace.y_meas)

    @pytest.mark.parametrize("variant", LOOP_VARIANTS)
    def test_trace_matches_previous_discretization(self, sps, surrogate_raw, variant):
        # simulate's contract against the previous release, a per-sample run
        # of the polynomial path's blocks, and the closed-loop spectral radius
        # within 1e-10 relative. The companion forms in z grow too much in
        # transient for a blocked run (see run_state_space), so the
        # per-sample reference loop runs them.
        blocks, (r, d, n) = loop_case(surrogate_raw, variant)
        old, _ = loop_case(surrogate_raw, variant, partial(old_discretize, sps))
        trace = simulate_dual_loop(*blocks, r, d, n)
        want = reference_dual_loop(*old, r, d, n)
        assert_trace_contract(trace, want, r, variant)
        assert spectral_radius(dual_loop_state_space(*blocks)) == pytest.approx(
            spectral_radius(dual_loop_state_space(*old)), rel=1e-10
        )

    def test_simulate_artifacts_match_reference_loop(self, tmp_path, surrogate_raw):
        import json

        from nrcdamp.cli import run_command

        blocks, (r, d, n) = loop_case(surrogate_raw, "surrogate")
        p = tmp_path / "config.json"
        p.write_text(json.dumps(surrogate_raw))
        assert run_command("simulate", p, tmp_path / "out") == 0
        u, x_true, y_meas = reference_dual_loop(*blocks, r, d, n)
        trace = np.loadtxt(tmp_path / "out" / "trace.csv", delimiter=",", skiprows=1)
        y_max = np.max(np.abs(y_meas))
        scales = (np.max(np.abs(u)), np.max(np.abs(x_true)), y_max, y_max)
        for col, want, scale in zip(trace[:, 4:].T, (u, x_true, y_meas, r - y_meas), scales):
            assert np.max(np.abs(col - want)) <= 1e-10 * scale
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        e_max, e_rms = tracking_metrics(r, y_meas)
        amp = sinusoid_amplitude(y_meas, 100.0, TS)
        for key, want in (("e_max", e_max), ("e_rms", e_rms),
                          ("steady_state_amplitude", amp), ("steady_state_gain", amp)):
            assert metrics[key] == pytest.approx(want, rel=1e-10)

    def test_state_layout(self, surrogate_raw):
        # plant 4 + tracker 6 + damper 1 + delay line 5 - 1 + y[k-1]
        blocks, _ = loop_case(surrogate_raw, "surrogate")
        loop = dual_loop_state_space(*blocks)
        assert loop.order == 16
        assert loop.b_matrix.shape == (16, 3) and loop.c_matrix.shape == (2, 16)
        assert loop.d_matrix.shape == (2, 3) and loop.input_delay_samples == 0

    @pytest.mark.parametrize("variant", ["surrogate", "no_delay", "one_sample_delay"])
    def test_frf_is_discrete_t_yr(self, surrogate_raw, variant):
        # x_true/r of the closed loop against the block algebra: the plant
        # (delay line included) acts on the tracker output, the controllers
        # on the one-sample-old measurement, and an absorbed sample of the
        # plant's delay leaves the measurement leading by one sample
        blocks, _ = loop_case(surrogate_raw, variant)
        plant_d, tracker_d, nrc_d = blocks
        loop = dual_loop_state_space(*blocks)
        w = TWO_PI * np.geomspace(1.0, 16000.0, 60)
        z = np.exp(1j * w * TS)
        p = discrete_frf(plant_d, w)
        if plant_d.input_delay_samples:
            p = p * z
        ct, cd = discrete_frf(tracker_d, w), discrete_frf(nrc_d, w)
        t_yr = p * ct / (1.0 + p * (ct + cd) / z)
        np.testing.assert_allclose(closed_loop_frf(loop, w, 1, 0), t_yr, rtol=1e-9)

    def test_spectral_radius(self, surrogate_raw):
        blocks, _ = loop_case(surrogate_raw, "surrogate")
        assert spectral_radius(dual_loop_state_space(*blocks)) == pytest.approx(
            0.99432, abs=1e-4
        )
        # a pure-gain tracker keeps its 1x1 zero state unmapped; mapped, that
        # state would put an eigenvalue at 1 into the loop
        blocks, _ = loop_case(surrogate_raw, "p_only")
        assert spectral_radius(dual_loop_state_space(*blocks)) == pytest.approx(
            0.98947, abs=1e-5
        )
        # criterion 9's proportional-only loop at kp = 298.36 diverges at 30 us
        plant = single_mode(f_hz=100.0)
        k, wa = nrc_gains(plant, NrcSpec(gamma=0.999, n=3.0))
        ct = build_tracker(TrackerSpec(pi=PiSpec(kp=298.3569)))
        loop = dual_loop_state_space(
            discretize(build_plant(plant), TS), discretize(ct, TS), discretize(nrc(k, wa), TS)
        )
        assert spectral_radius(loop) > 1.0

    def test_spectral_radius_independent_of_plant_gain(self, tmp_path, surrogate_raw):
        # k = gamma/G(0) and kp, tuned on G_d, cancel the plant's gain, so
        # its scale moves no pole of the sampled loop: the realizations keep
        # every numerator coefficient, however small against 1e-14
        import json

        from nrcdamp.cli import run_command

        def radius(gain):
            raw = json.loads(json.dumps(surrogate_raw))
            raw["plant"]["gain"] = gain
            blocks, _ = loop_case(raw, "surrogate")
            return spectral_radius(dual_loop_state_space(*blocks))

        want = radius(surrogate_raw["plant"]["gain"])
        for gain in np.logspace(-30.0, 30.0, 11):
            assert radius(gain) == pytest.approx(want, rel=1e-9), gain
        surrogate_raw["plant"]["gain"] = 1e-30
        p = tmp_path / "config.json"
        p.write_text(json.dumps(surrogate_raw))
        assert run_command("simulate", p, tmp_path / "out") == 0

    def test_runner_applies_input_delay(self):
        blk = discretize(RationalTF.from_coeffs([2.0], [1.0], delay_s=3 * TS), TS)
        u = np.arange(1.0, 8.0)
        np.testing.assert_array_equal(
            run_state_space(blk, u[:, np.newaxis])[:, 0],
            2.0 * np.concatenate([np.zeros(3), u[:-3]]),
        )

    @pytest.mark.parametrize(
        "n_in, n_out, nsamp, delay",
        [
            pytest.param(2, 2, LONG_RECORD, 3, id="2-2"),
            pytest.param(3, 2, LONG_RECORD, 3, id="3-2"),
            pytest.param(1, 3, LONG_RECORD, 3, id="1-3"),
            pytest.param(8, 1, LONG_RECORD, 3, id="lifted-8-1"),
            pytest.param(2, 2, 100, 3, id="shorter-than-a-block"),
            pytest.param(2, 2, 300, 307, id="delay-past-the-end"),
        ],
    )
    def test_runner_matches_per_sample_loop(self, n_in, n_out, nsamp, delay):
        # a stable order-4 block with an input delay against a per-sample
        # loop: on a long record, on one shorter than a block and with a
        # delay past the record's end; the non-square cases, the lifted
        # shape of open_loop_response among them, catch a transposed tap
        # or observability layout
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rot = [[0.99 * np.cos(0.3), -0.99 * np.sin(0.3), 0.0, 0.0],
               [0.99 * np.sin(0.3), 0.99 * np.cos(0.3), 0.0, 0.0],
               [0.0, 0.0, 0.95, 0.0],
               [0.0, 0.0, 0.0, -0.5]]
        a = q @ np.array(rot) @ q.T
        b, c = rng.normal(size=(4, n_in)), rng.normal(size=(n_out, 4))
        d = rng.normal(size=(n_out, n_in))
        blk = DiscreteSS(a, b, c, d, TS, input_delay_samples=delay)
        w = rng.normal(size=(nsamp, n_in))
        got = run_state_space(blk, w)

        w_late = np.concatenate([np.zeros((delay, n_in)), w])[:nsamp]
        states = np.zeros((nsamp, 4))
        x = np.zeros(4)
        for k, drive in enumerate(w_late @ b.T):
            states[k] = x
            x = a @ x + drive
        want = states @ c.T + w_late @ d.T
        assert got.shape == (nsamp, n_out)
        for i in range(n_out):
            assert np.max(np.abs(got[:, i] - want[:, i])) <= 1e-12 * np.max(np.abs(want[:, i]))

        # a power-of-two diagonal similarity scales every term of every sum
        # alike, so balancing the realization cannot change a bit
        t = 2.0 ** np.array([3.0, -5.0, 7.0, 0.0])
        scaled = DiscreteSS(a * t / t[:, np.newaxis], b / t[:, np.newaxis], c * t, d, TS, delay)
        assert np.array_equal(run_state_space(scaled, w), got)

    def test_mismatched_sampling_rejected(self):
        blk = discretize(build_plant(single_mode()), TS)
        other = discretize(build_plant(single_mode()), 2 * TS)
        with pytest.raises(ValueError, match="sampling time"):
            dual_loop_state_space(blk, blk, other)


class TestTrackingMetrics:
    def test_perfect_tracking(self):
        r = np.sin(np.linspace(0, 10, 500))
        assert tracking_metrics(r, r) == (0.0, 0.0)

    def test_constant_offset(self):
        r = np.zeros(100)
        e_max, e_rms = tracking_metrics(r, r + 0.1)
        assert e_max == pytest.approx(0.1)
        assert e_rms == pytest.approx(0.1)

    def test_rms_below_max_and_homogeneous(self):
        rng = np.random.default_rng(9)
        r = rng.normal(size=1000)
        y = r + rng.normal(scale=0.3, size=1000)
        e_max, e_rms = tracking_metrics(r, y)
        assert e_rms <= e_max
        e_max3, e_rms3 = tracking_metrics(3 * r, 3 * y)
        assert e_max3 == pytest.approx(3 * e_max, rel=1e-12)
        assert e_rms3 == pytest.approx(3 * e_rms, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tracking_metrics(np.array([]), np.array([]))


class TestChirpIdentify:
    def test_static_gain(self):
        fs = 10000.0
        u = log_chirp(fs, duration_s=4.0, f0=5.0, f1=2000.0, amplitude=0.5)
        est = chirp_identify([(u, 2.0 * u)], fs, 2048)
        band = (est.freq_hz > 10.0) & (est.freq_hz < 2000.0)
        np.testing.assert_allclose(est.mag_db[band], 20 * np.log10(2.0), atol=1e-6)
        np.testing.assert_allclose(est.phase_deg[band], 0.0, atol=1e-6)
        assert np.min(est.coherence[band]) > 0.999

    def test_known_second_order_plant(self):
        fs = 33300.0
        plant = PlantSpec(gain=1.0, modes=(ModeSpec(TWO_PI * 500.0, 0.05),))
        est = chirp_identify(open_loop_response(plant, fs=fs, duration_s=10.0), fs, 1 << 16)
        band = (est.freq_hz >= 10.0) & (est.freq_hz <= fs / 10.0)
        f = est.freq_hz[band]
        ref = freq_response(build_plant(plant), TWO_PI * f)
        dmag = est.mag_db[band] - 20 * np.log10(np.abs(ref))
        ref_ph = np.degrees(np.unwrap(np.angle(ref)))
        est_ph = est.phase_deg[band]
        est_ph = est_ph - 360.0 * round((est_ph[0] - ref_ph[0]) / 360.0)
        assert np.max(np.abs(dmag)) < 1.0
        assert np.max(np.abs(est_ph - ref_ph)) < 5.0

    def test_pure_delay_phase_slope(self):
        fs = 10000.0
        n_delay = 7
        rng = np.random.default_rng(2)
        u = rng.normal(size=60000)
        y = np.concatenate([np.zeros(n_delay), u[:-n_delay]])
        est = chirp_identify([(u, y)], fs, 4096)
        band = (est.freq_hz > 100.0) & (est.freq_hz < 3000.0)
        slope = np.polyfit(est.freq_hz[band], est.phase_deg[band], 1)[0]
        assert slope == pytest.approx(-360.0 * n_delay / fs, rel=1e-3)

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError, match="no power"):
            chirp_identify([(np.zeros(10000), np.zeros(10000))], 1000.0, 1024)

    def test_needs_two_segments(self):
        with pytest.raises(ValueError, match="two segments"):
            chirp_identify([(np.ones(100), np.ones(100))], 1000.0, 64)


class TestSurrogateRuns:
    def test_closed_loop_never_diverges(self):
        spec = nanopositioner_surrogate()
        g = build_plant(spec)
        k, wa = nrc_gains(spec, NrcSpec(gamma=0.999, n=8.0))
        ct = build_tracker(
            TrackerSpec(
                pi=PiSpec(kp=0.94, omega_i_rad_s=TWO_PI * 28.0),
                lowpass_corner_rad_s=TWO_PI * 5000.0,
            )
        )
        r = make_reference("sine", 1.0, TS, 1.0, 100.0)
        z = np.zeros(r.size)
        trace = simulate_dual_loop(
            discretize(g, TS), discretize(ct, TS), discretize(nrc(k, wa), TS), r, z, z
        )
        assert np.max(np.abs(trace.y_meas)) < 10.0

    def test_error_grows_past_the_bandwidth(self):
        # tracking error at 900 Hz (above the closed-loop band) exceeds the
        # 100 Hz error for the same reference amplitude
        spec = nanopositioner_surrogate()
        g = build_plant(spec)
        k, wa = nrc_gains(spec, NrcSpec(gamma=0.999, n=8.0))
        ct = build_tracker(
            TrackerSpec(
                pi=PiSpec(kp=0.94, omega_i_rad_s=TWO_PI * 28.0),
                lowpass_corner_rad_s=TWO_PI * 5000.0,
            )
        )
        blocks = (discretize(g, TS), discretize(ct, TS), discretize(nrc(k, wa), TS))
        rms = {}
        for f in (100.0, 900.0):
            r = make_reference("sine", 1.0, TS, 0.2, f)
            z = np.zeros(r.size)
            trace = simulate_dual_loop(*blocks, r, z, z)
            tail = slice(trace.r.size // 2, None)
            _, rms[f] = tracking_metrics(trace.r[tail], trace.y_meas[tail])
        assert rms[900.0] > rms[100.0]

    def test_identification_recovers_modes(self):
        spec = nanopositioner_surrogate()
        fs = 33300.0
        est = chirp_identify(open_loop_response(spec, fs=fs, duration_s=10.0), fs, 1 << 16)
        band = (est.freq_hz > 200.0) & (est.freq_hz < 900.0)
        peak = est.freq_hz[band][np.argmax(est.mag_db[band])]
        assert peak == pytest.approx(739.0, rel=0.005)
        # interlaced anti-resonance between the two modes
        sel = (est.freq_hz > 800.0) & (est.freq_hz < 980.0)
        dip = est.freq_hz[sel][np.argmin(est.mag_db[sel])]
        expected = two_mode_zero(983.0 / 739.0, 0.3, 739.0)
        assert dip == pytest.approx(expected, rel=0.02)


# Identification without scipy: scipy.signal, and an exact evaluation of the
# bilinear transfer function, stay the references for the numpy path.

CONTRACT_VARIANTS = ("surrogate", "undamped_mode", "amplifier", "no_delay", "no_sim")


def contract_config(raw, variant):
    """The surrogate config altered as one tolerance-contract case."""
    if variant == "undamped_mode":
        raw["plant"] = {"gain": 1.0, "modes": [{"freq_hz": 739.0, "zeta": 0.0}]}
    elif variant == "amplifier":
        raw["plant"]["amp_corner_hz"] = 4000.0
    elif variant == "no_delay":
        raw["plant"]["delay_us"] = 0.0
    elif variant == "no_sim":
        del raw["sim"]  # identify then samples at 33.3 kHz
    return raw


def identify_rates(cfg):
    """(fs, f1) of the identify command for a parsed config."""
    fs = 1.0 / cfg.sim.ts_s if cfg.sim is not None else 33300.0
    return fs, min(5000.0, 0.4 * fs)


def whole(chunks):
    """The (u, y) record of a chunked run, such as open_loop_response's."""
    u, y = zip(*chunks)
    return np.concatenate(u), np.concatenate(y)


def delay_shift(y, n_delay):
    return np.concatenate([np.zeros(n_delay), y[:-n_delay]]) if n_delay else y


def scipy_open_loop(sps, plant, fs, duration_s, f1, oversample):
    """The scipy path of open_loop_response: tf -> ss -> tf, then lfilter."""
    fs_fine = fs * oversample
    nsamp = int(round(duration_s * fs_fine))
    t = np.arange(nsamp) / fs_fine
    u = 0.1 * sps.chirp(t, f0=10.0, t1=duration_s, f1=f1, method="logarithmic")
    u = u * sps.windows.tukey(nsamp, alpha=0.1)
    blk = old_discretize(sps, replace(build_plant(plant), delay_s=0.0), 1.0 / fs_fine)
    num, den = sps.ss2tf(blk.a_matrix, blk.b_matrix, blk.c_matrix, blk.d_matrix)
    y = delay_shift(sps.lfilter(num[0], den, u), int(round(plant.delay_s * fs_fine)))
    return u[::oversample], y[::oversample]


def exact_fine_response(plant, u, ts):
    """Zero-state output of the bilinear (c = 2/ts) plant map, by the FFT.

    G is evaluated in closed form from the modal sum at s = (2/ts)(z-1)/(z+1)
    on the circle |z| = 1/rho instead of |z| = 1: with the input weighted by
    rho^k and the output by rho^-k, even an undamped mode's ringing decays
    before the zero-padded transform wraps it.
    """
    nsamp = u.size
    nfft = 1 << int(np.ceil(np.log2(4 * nsamp)))
    decay = 1e-3  # rho^nsamp; rho^nfft <= 1e-12 bounds the wrap-around
    weight = decay ** (np.arange(nsamp) / nsamp)
    z = np.exp(2j * np.pi * np.arange(nfft // 2 + 1) / nfft) / decay ** (1.0 / nsamp)
    s = (2.0 / ts) * (z - 1.0) / (z + 1.0)
    g = sum(
        m.weight * m.omega_rad_s**2 / (s * s + 2.0 * m.zeta * m.omega_rad_s * s + m.omega_rad_s**2)
        for m in plant.modes
    )
    if plant.amp_corner_rad_s is not None:
        g = g * plant.amp_corner_rad_s / (s + plant.amp_corner_rad_s)
    y = np.fft.irfft(np.fft.rfft(u * weight, nfft) * plant.gain * g, nfft)[:nsamp] / weight
    return delay_shift(y, int(round(plant.delay_s / ts)))


class TestIdentifyMatchesScipyReference:
    @pytest.mark.parametrize(
        "fs, duration_s, f1, taper",
        [(8 / 30e-6, 10.0, 5000.0, 0.05), (8 * 33300.0, 2.0, 5000.0, 0.05),
         (1000.0, 1.0, 400.0, 0.05), (333.0, 0.5, 100.0, 0.2), (500.0, 0.3, 50.0, 0.5)],
    )
    def test_log_chirp_is_scipy_bits(self, sps, fs, duration_s, f1, taper):
        nsamp = int(round(duration_s * fs))
        t = np.arange(nsamp) / fs
        want = 0.1 * sps.chirp(t, f0=10.0, t1=duration_s, f1=f1, method="logarithmic")
        want = want * sps.windows.tukey(nsamp, alpha=2.0 * taper)
        got = log_chirp(fs, duration_s, f0=10.0, f1=f1, amplitude=0.1, taper_frac=taper)
        if taper < 0.5:  # at alpha = 1 scipy switches to its Hann formula
            assert np.array_equal(got, want)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("nsamp, seg", [(333334, 65536), (60000, 4096), (5001, 1001)])
    def test_spectra_match_scipy_welch_and_csd(self, sps, nsamp, seg):
        from nrcdamp.sim import _welch_spectra

        rng = np.random.default_rng(seg)
        u = rng.normal(size=nsamp)
        y = np.convolve(u, [1.0, 0.5, -0.2], "same") + 0.1 * rng.normal(size=nsamp)
        kw = dict(fs=33300.0, window="hann", nperseg=seg, noverlap=seg // 2, detrend=False)
        f, s_uu, s_yy, s_uy, e = _welch_spectra([(u, y)], 33300.0, seg)
        y = np.ldexp(y, -e)  # the spectra are those of y 2^-e
        np.testing.assert_array_equal(f, sps.welch(u, **kw)[0])
        np.testing.assert_allclose(s_uu, sps.welch(u, **kw)[1], rtol=1e-12)
        np.testing.assert_allclose(s_yy, sps.welch(y, **kw)[1], rtol=1e-12)
        np.testing.assert_allclose(s_uy, sps.csd(u, y, **kw)[1], rtol=1e-12)

    @pytest.mark.parametrize("variant", CONTRACT_VARIANTS)
    def test_fine_rate_response(self, sps, surrogate_raw, variant):
        # identify's oversampled run, 1 s of it: exact to 1e-10 of max|y|,
        # and within 1e-5 of the scipy path it replaced
        from nrcdamp.cli import parse_config_dict

        cfg = parse_config_dict(contract_config(surrogate_raw, variant))
        plant = cfg.plant.to_spec()
        fs, f1 = identify_rates(cfg)
        u, y = whole(open_loop_response(plant, fs=8 * fs, duration_s=1.0, f1=f1, oversample=1))
        scale = np.max(np.abs(y))
        exact = exact_fine_response(plant, u, 1.0 / (8 * fs))
        assert np.max(np.abs(y - exact)) <= 1e-10 * scale
        _, y_scipy = scipy_open_loop(sps, plant, 8 * fs, 1.0, f1, oversample=1)
        assert np.max(np.abs(y - y_scipy)) <= 1e-5 * scale

    @pytest.mark.parametrize("case", CONTRACT_VARIANTS + ("delay_153us", "ragged_record"))
    def test_lifted_response(self, surrogate_raw, case):
        # identify's 8x run as it runs, lifted and sampled at fs, 1 s of it:
        # every 8th fine output within 1e-10 of max|y| of the exact
        # response, and every 8th chirp sample bit for bit; 153 us is 41
        # fine samples (phase 7 of 8), and the ragged record's fine length
        # is not a multiple of 8
        from nrcdamp.cli import parse_config_dict

        variant = {"delay_153us": "surrogate", "ragged_record": "no_sim"}.get(case, case)
        raw = contract_config(surrogate_raw, variant)
        if case == "delay_153us":
            raw["plant"]["delay_us"] = 153.0
        duration_s = 0.50001 if case == "ragged_record" else 1.0
        cfg = parse_config_dict(raw)
        plant = cfg.plant.to_spec()
        fs, f1 = identify_rates(cfg)
        u, y = whole(open_loop_response(plant, fs=fs, duration_s=duration_s, f1=f1, oversample=8))
        u_fine = log_chirp(8 * fs, duration_s, f1=f1)
        if case == "delay_153us":
            assert round(plant.delay_s * 8 * fs) == 41
        if case == "ragged_record":
            assert u_fine.size % 8
        assert np.array_equal(u, u_fine[::8])
        exact = exact_fine_response(plant, u_fine, 1.0 / (8 * fs))[::8]
        assert y.shape == exact.shape
        assert np.max(np.abs(y - exact)) <= 1e-10 * np.max(np.abs(exact))

    @pytest.mark.parametrize("oversample", [2.5, 8.0, True, 0])
    def test_oversample_must_be_a_positive_integer(self, oversample):
        # the lifted run takes whole rows of fine inputs: a float, even
        # 8.0, a bool or a rate below 1 is refused before the chirp is built
        with pytest.raises(ValueError, match="oversample"):
            open_loop_response(single_mode(), fs=1000.0, oversample=oversample, f1=400.0)

    @pytest.mark.parametrize("variant", CONTRACT_VARIANTS)
    def test_identify_frf_matches_scipy_path(self, sps, tmp_path, surrogate_raw, variant):
        import json
        import math

        from nrcdamp.cli import parse_config_dict, run_command

        raw = contract_config(surrogate_raw, variant)
        p = tmp_path / "config.json"
        p.write_text(json.dumps(raw))
        assert run_command("identify", p, tmp_path / "out") == 0
        got = np.loadtxt(tmp_path / "out" / "frf.csv", delimiter=",", skiprows=1)
        peak_hz = json.loads((tmp_path / "out" / "summary.json").read_text())["peak_freq_hz"]

        cfg = parse_config_dict(raw)
        fs, f1 = identify_rates(cfg)
        u, y = scipy_open_loop(sps, cfg.plant.to_spec(), fs, 10.0, f1, oversample=8)
        seg = min(1 << max(10, int(math.log2(u.size / 5.0))), u.size // 2)
        kw = dict(fs=fs, window="hann", nperseg=seg, noverlap=seg // 2, detrend=False)
        f, s_uu = sps.welch(u, **kw)
        s_yy = sps.welch(y, **kw)[1]
        s_uy = sps.csd(u, y, **kw)[1]
        h = s_uy / s_uu
        want = (
            20.0 * np.log10(np.abs(h)),
            np.degrees(np.unwrap(np.angle(h))),
            np.abs(s_uy) ** 2 / s_uu / s_yy,
        )
        np.testing.assert_allclose(got[:, 0], f, rtol=1e-11)  # %.12g in the CSV
        band = (f >= 10.0) & (f <= 4000.0)
        for col, ref, tol in zip(got.T[1:], want, (1e-4, 1e-3, 1e-7)):
            assert np.max(np.abs(col[band] - ref[band])) <= tol
        peak_band = (f > 50.0) & (f < f1)
        assert peak_hz == f[peak_band][np.argmax(want[0][peak_band])]

    @pytest.mark.parametrize("variant", ["surrogate", "undamped_mode", "amplifier"])
    def test_bilinear_modal_powers_stay_bounded(self, surrogate_raw, variant):
        from nrcdamp import modal_state_space
        from nrcdamp.cli import parse_config_dict
        from nrcdamp.sim import _bilinear_state_space

        plant = parse_config_dict(contract_config(surrogate_raw, variant)).plant.to_spec()
        a, _, _, _ = _bilinear_state_space(*modal_state_space(plant), 0.0, TS / 8)
        if plant.amp_corner_rad_s is None:  # a contraction: ||A^k|| <= 1 for all k
            assert np.linalg.norm(a, 2) <= 1.0 + 1e-12
        power = a
        for _ in range(22):  # k = 1, 2, 4, ..., 2^21 > identify's 2.67 M samples
            assert np.linalg.norm(power, 2) <= 1.1
            power = power @ power


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def whole_record_response(plant, fs, duration_s, f1, m=8):
    """open_loop_response's output from the whole fine record at once: the
    full chirp, then one run_state_space pass over every lifted row."""
    from nrcdamp.sim import _lifted_plant

    lifted, q = _lifted_plant(plant, fs, m)
    u_fine = log_chirp(m * fs, duration_s, f1=f1)
    n_keep = -(-u_fine.size // m)
    steps = max(n_keep - q, 0)
    rows = np.zeros(steps * m)
    rows[: min(u_fine.size, rows.size)] = u_fine[: rows.size]
    y = np.zeros(n_keep)
    y[n_keep - steps :] = run_state_space(lifted, rows.reshape(steps, m))[:, 0]
    return u_fine[::m], y


def batched_welch(u, y, fs, seg):
    """_welch_spectra with every segment stacked: one rfft over the stack and
    numpy's mean over axis 0."""
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg) / seg)

    def windowed_fft(x):
        segs = np.lib.stride_tricks.sliding_window_view(x, seg)[:: seg - seg // 2]
        return np.fft.rfft(segs * win, axis=-1)

    fu, fy = windowed_fft(u), windowed_fft(y)
    scale = np.full(seg // 2 + 1, 2.0 / (fs * np.sum(win * win)))
    scale[0] /= 2.0
    if seg % 2 == 0:
        scale[-1] /= 2.0
    return (
        np.fft.rfftfreq(seg, 1.0 / fs),
        np.mean(fu.real**2 + fu.imag**2, axis=0) * scale,
        np.mean(fy.real**2 + fy.imag**2, axis=0) * scale,
        np.mean(np.conj(fu) * fy, axis=0) * scale,
    )


class TestStreamedIdentify:
    """identify never holds its fine record, and keeps every bit of the
    whole-record computation."""

    @pytest.mark.parametrize("case", ["surrogate", "no_delay", "delay_153us", "short"])
    def test_streamed_response_is_whole_record_bits(self, surrogate_raw, case):
        # no_delay pads the ragged last lifted row (q = 0, and the fine
        # record is not a multiple of 8), 153 us is phase 7 of 8, and the
        # short record is less than one stepper chunk
        from nrcdamp.cli import parse_config_dict
        from nrcdamp.sim import CHUNK_ROWS

        if case == "no_delay":
            surrogate_raw["plant"]["delay_us"] = 0.0
        elif case == "delay_153us":
            surrogate_raw["plant"]["delay_us"] = 153.0
        duration_s = 0.2 if case == "short" else 10.0
        cfg = parse_config_dict(surrogate_raw)
        plant = cfg.plant.to_spec()
        fs, f1 = identify_rates(cfg)
        u, y = whole(open_loop_response(plant, fs=fs, duration_s=duration_s, f1=f1))
        want_u, want_y = whole_record_response(plant, fs, duration_s, f1)
        n_fine = round(duration_s * 8 * fs)
        if case == "no_delay":
            assert n_fine % 8
        if case == "short":
            assert u.size < CHUNK_ROWS
        else:
            assert u.size > 40 * CHUNK_ROWS
        assert_same_bits(u, want_u)
        assert_same_bits(y, want_y)

    @pytest.mark.parametrize("nsamp, seg", [(333334, 65536), (60000, 4096), (5001, 1001)])
    def test_welch_sums_are_the_batched_mean(self, nsamp, seg):
        from nrcdamp.sim import _welch_spectra

        rng = np.random.default_rng(seg)
        u = rng.normal(size=nsamp)
        y = np.convolve(u, [1.0, 0.5, -0.2], "same") + 0.1 * rng.normal(size=nsamp)
        *spectra, e = _welch_spectra([(u, y)], 33300.0, seg)
        want = batched_welch(u, np.ldexp(y, -e), 33300.0, seg)
        for got, ref in zip(spectra, want):
            assert_same_bits(got, ref)

    @pytest.mark.parametrize("sizes", [[1, 4095, 4097], [777], [65535, 1], [333334]])
    def test_welch_sums_do_not_depend_on_the_chunks(self, sizes):
        # the record cut into chunks of the given sizes, the last repeated
        # to its end: across the ring's end and the segments' starts
        from nrcdamp.sim import _welch_spectra

        rng = np.random.default_rng(5)
        u, y = rng.normal(size=(2, 333334))
        cuts = np.cumsum(sizes[:-1] + sizes[-1:] * (u.size // sizes[-1]))
        chunks = list(zip(np.split(u, cuts), np.split(y, cuts)))
        *spectra, e = _welch_spectra(chunks, 33300.0, 65536)
        want = batched_welch(u, np.ldexp(y, -e), 33300.0, 65536)
        for got, ref in zip(spectra, want):
            assert_same_bits(got, ref)

    @pytest.mark.parametrize(
        "case", ["surrogate", "no_delay", "delay_153us", "delay_past_a_chunk", "ts_7us"]
    )
    def test_command_estimate_is_whole_record_bits(self, tmp_path, monkeypatch, surrogate_raw, case):
        # identify's streamed spectra against the batched Welch mean of the
        # whole-record run; 0.3 s is a delay of q = 10,000 > CHUNK_ROWS
        # lifted steps, and at 7 us the record's end cuts a lifted row
        import json
        import math

        import nrcdamp.sim
        from nrcdamp.cli import parse_config_dict, run_command
        from nrcdamp.sim import CHUNK_ROWS, _lifted_plant

        edit = {"no_delay": ("plant", "delay_us", 0.0), "delay_153us": ("plant", "delay_us", 153.0),
                "delay_past_a_chunk": ("plant", "delay_us", 3e5), "ts_7us": ("sim", "ts_us", 7.0)}
        if case in edit:
            section, key, value = edit[case]
            surrogate_raw[section][key] = value
        p = tmp_path / "config.json"
        p.write_text(json.dumps(surrogate_raw))
        seen = []
        spectra = nrcdamp.sim._welch_spectra

        def recorded(*args):
            seen.append(spectra(*args))
            return seen[-1]

        monkeypatch.setattr(nrcdamp.sim, "_welch_spectra", recorded)
        assert run_command("identify", p, tmp_path / "out") == 0

        cfg = parse_config_dict(surrogate_raw)
        plant = cfg.plant.to_spec()
        fs, f1 = identify_rates(cfg)
        if case == "delay_past_a_chunk":
            assert _lifted_plant(plant, fs, 8)[1] > CHUNK_ROWS
        if case == "ts_7us":
            assert round(10.0 * 8 * fs) % 8
        u, y = whole_record_response(plant, fs, 10.0, f1)
        seg = min(1 << max(10, int(math.log2(u.size / 5.0))), u.size // 2)
        (*got, e), = seen
        for got_part, ref in zip(got, batched_welch(u, np.ldexp(y, -e), fs, seg)):
            assert_same_bits(got_part, ref)

    def test_identify_holds_no_record(self, tmp_path, surrogate_raw):
        # at 5 us, identify's bound, its two fs-rate records are 2 M samples
        # each, 32 MB together; holding both, or the 8x record, fails this
        import tracemalloc

        from nrcdamp.cli import parse_config_dict, run_identify

        surrogate_raw["sim"]["ts_us"] = 5.0
        cfg = parse_config_dict(surrogate_raw)
        fs, _ = identify_rates(cfg)
        (tmp_path / "out").mkdir()
        tracemalloc.start()
        try:
            run_identify(cfg, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * round(10.0 * fs) * 8

    @pytest.mark.parametrize(
        "fs, duration_s, f1, taper, ranges",
        [
            # 1000 samples, tapers over 0..49 and 950..999
            (1000.0, 1.0, 400.0, 0.05,
             [(0, 10), (40, 60), (45, 960), (940, 1000), (951, 952), (0, 1000), (500, 500)]),
            # 80,000 samples: ranges across log_chirp's 65,536-sample fill chunks
            (8 / 30e-6, 0.3, 5000.0, 0.05, [(65530, 65542), (3990, 70000), (70000, 80000)]),
            # 151 samples at alpha 1: the two tapers share sample 75
            (151.0, 1.0, 50.0, 0.5, [(70, 80), (75, 76), (0, 151), (76, 151)]),
        ],
    )
    def test_chirp_range_is_a_slice_of_the_record(self, fs, duration_s, f1, taper, ranges):
        kw = dict(f0=10.0, f1=f1, amplitude=0.1, taper_frac=taper)
        record = log_chirp(fs, duration_s, **kw)
        for start, stop in ranges:
            assert_same_bits(log_chirp(fs, duration_s, start=start, stop=stop, **kw),
                             record[start:stop])

    @pytest.mark.parametrize("start, stop", [(-1, 10), (10, 9), (0, 1001)])
    def test_chirp_range_outside_the_record_rejected(self, start, stop):
        with pytest.raises(ValueError, match="start <= stop"):
            log_chirp(1000.0, 1.0, f1=400.0, start=start, stop=stop)

    def test_fine_record_is_never_held(self, surrogate_raw):
        # the surrogate's 8x record is 2.67 M samples, 21 MB; holding it
        # again, or a copy of it, fails this
        import tracemalloc

        from nrcdamp.cli import parse_config_dict

        cfg = parse_config_dict(surrogate_raw)
        fs, f1 = identify_rates(cfg)
        tracemalloc.start()
        try:
            deque(open_loop_response(cfg.plant.to_spec(), fs=fs, duration_s=10.0, f1=f1), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < round(10.0 * 8 * fs) * 8


class TestIdentifyAtExtremeGains:
    """y is scaled by a power of two before its spectra are squared, so the
    plant's gain cannot overflow or underflow them."""

    @pytest.mark.parametrize("gain", [1e200, 1e-200])
    def test_extreme_gain_ends_without_warning(self, tmp_path, surrogate_raw, gain):
        import json

        from nrcdamp.cli import run_command

        surrogate_raw["plant"]["gain"] = gain
        p = tmp_path / "config.json"
        p.write_text(json.dumps(surrogate_raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_command("identify", p, tmp_path / "out") == 0
        f, mag, phase, coh = np.loadtxt(tmp_path / "out" / "frf.csv", delimiter=",", skiprows=1).T
        band = (f >= 10.0) & (f <= 5000.0)
        assert np.isfinite(mag[band]).all() and np.isfinite(phase[band]).all()
        assert np.isfinite(coh[band]).all()

    @pytest.mark.parametrize("power", [664, -664])
    def test_power_of_two_gain_scales_only_the_magnitude(self, surrogate_raw, power):
        # a gain 2^664 times the surrogate's is near 1e200, 2^-664 near 1e-200
        from nrcdamp.cli import parse_config_dict

        cfg = parse_config_dict(surrogate_raw)
        plant = cfg.plant.to_spec()
        fs, f1 = identify_rates(cfg)
        est = {}
        for p in (0, power):
            scaled = replace(plant, gain=np.ldexp(plant.gain, p))
            est[p] = chirp_identify(open_loop_response(scaled, fs=fs, f1=f1), fs, 1 << 16)
        ref, got = est[0], est[power]
        assert_same_bits(got.coherence, ref.coherence)
        band = (ref.freq_hz >= 10.0) & (ref.freq_hz <= f1)
        assert_same_bits(got.phase_deg[band], ref.phase_deg[band])
        shift = 20.0 * power * np.log10(2.0)
        assert np.max(np.abs(got.mag_db[band] - ref.mag_db[band] - shift)) < 1e-8


class TestUniformNoise:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5])
    @pytest.mark.parametrize("nsamples", [0, 1, 16667])
    def test_zero_amplitude_is_the_generator_bits(self, seed, nsamples):
        want = np.random.default_rng(seed).uniform(-0.0, 0.0, nsamples)
        assert_same_bits(make_uniform_noise(seed, 0.0, nsamples), want)
        assert not np.signbit(want).any()

    def test_noiseless_trace_keeps_its_bytes(self, tmp_path, surrogate_raw):
        # simulate on the noiseless surrogate, against the same run with
        # the Generator's zero-amplitude noise
        import json

        from nrcdamp.cli import parse_config_dict, run_command
        from nrcdamp.sim import trace_to_csv

        p = tmp_path / "config.json"
        p.write_text(json.dumps(surrogate_raw))
        assert run_command("simulate", p, tmp_path / "out") == 0
        cfg = parse_config_dict(surrogate_raw)
        ctx, sim = cfg.design, cfg.sim
        assert sim.noise_amplitude == 0.0
        blocks = tuple(discretize(tf, sim.ts_s) for tf in (ctx.plant_tf, ctx.ct_tf, ctx.cd_tf))
        ref = sim.reference
        r = make_reference(ref.kind, ref.amplitude, sim.ts_s, sim.duration_s, ref.freq_hz)
        n = np.random.default_rng(sim.seed).uniform(-0.0, 0.0, r.size)
        trace_to_csv(simulate_dual_loop(*blocks, r, np.zeros(r.size), n), tmp_path / "want.csv")
        assert (tmp_path / "out" / "trace.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_noiseless_simulate_skips_numpy_random(self, tmp_path):
        import os
        import subprocess
        import sys

        from conftest import SURROGATE_JSON

        code = (
            "import sys, numpy\n"
            "eager = 'numpy.random' in sys.modules\n"
            "from nrcdamp.cli import run_command\n"
            "assert run_command('simulate', sys.argv[1], sys.argv[2]) == 0\n"
            "print(eager, 'numpy.random' in sys.modules)\n"
        )
        argv = [sys.executable, "-c", code, str(SURROGATE_JSON), str(tmp_path / "out")]
        env = {**os.environ, "PYTHONPATH": str(SURROGATE_JSON.parent.parent / "src")}
        out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout.split()
        if out[0] == "True":
            pytest.skip("this numpy imports numpy.random with numpy")
        assert out == ["False", "False"]
