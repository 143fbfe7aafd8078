import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import kp_plant_inverse_approx, steady_state_error
from nrcdamp import (
    ModeSpec,
    NotchSpec,
    PiSpec,
    PlantSpec,
    RationalTF,
    TrackerSpec,
    bandwidth,
    build_plant,
    build_tracker,
    dual_sensitivities,
    freq_response,
    log_grid,
    margins,
    nrc,
    nyquist_net_crossings,
    objective_report,
    pm_feasibility,
    tf_feedback,
    tune_kp,
)

TWO_PI = 2.0 * np.pi
COMPLEX = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def single_mode(g=1.0, wn=1.0, zeta=0.01):
    return PlantSpec(gain=g, modes=(ModeSpec(wn, zeta),))


class TestBuildTracker:
    def test_pure_proportional_flat(self):
        ct = build_tracker(TrackerSpec(pi=PiSpec(kp=3.5)))
        w = np.logspace(-2, 4, 50)
        np.testing.assert_allclose(freq_response(ct, w), 3.5, rtol=1e-14)

    def test_notch_center_depth(self):
        # depth at the center frequency is q_den/q_num
        spec = TrackerSpec(
            pi=PiSpec(kp=1.0),
            notches=(NotchSpec(omega_rad_s=10.0, q_num=1.1, q_den=1.0),),
        )
        v = freq_response(build_tracker(spec), 10.0)
        assert abs(v) == pytest.approx(1.0 / 1.1, rel=1e-12)
        assert 20 * np.log10(abs(v)) == pytest.approx(-0.83, abs=0.01)

    def test_reference_parameter_set_assembly(self):
        # PI + two notches + low-pass evaluated against the factor product
        kp, wi = 298.3569, TWO_PI * 28.0
        wn1, wn2, wl = TWO_PI * 1000.0, TWO_PI * 2600.0, TWO_PI * 5000.0
        q1, q2, q3, q4 = 1.1, 1.0, 12.0, 10.0
        spec = TrackerSpec(
            pi=PiSpec(kp=kp, omega_i_rad_s=wi),
            notches=(
                NotchSpec(wn1, q1, q2),
                NotchSpec(wn2, q3, q4),
            ),
            lowpass_corner_rad_s=wl,
        )
        ct = build_tracker(spec)
        for f in (5.0, 100.0, 1000.0, 2600.0, 8000.0):
            s = 1j * TWO_PI * f
            manual = (
                kp
                * (1 + wi / s)
                * ((s / wn1) ** 2 + s / (q1 * wn1) + 1)
                / ((s / wn1) ** 2 + s / (q2 * wn1) + 1)
                * ((s / wn2) ** 2 + s / (q3 * wn2) + 1)
                / ((s / wn2) ** 2 + s / (q4 * wn2) + 1)
                * wl
                / (s + wl)
            )
            assert freq_response(ct, TWO_PI * f) == pytest.approx(manual, rel=1e-10)

    def test_distinct_notch_frequencies(self):
        with pytest.raises(ValueError, match="distinct"):
            TrackerSpec(
                pi=PiSpec(kp=1.0),
                notches=(NotchSpec(10.0, 1.0, 2.0), NotchSpec(10.0, 2.0, 1.0)),
            )


class TestTuneKp:
    def test_unity_magnitude(self):
        assert tune_kp(RationalTF.gain(1.0), 5.0) == pytest.approx(1.0)

    def test_rational_and_callable_paths(self):
        gd = tf_feedback(build_plant(single_mode()), nrc(1.0, 3.0))
        wb = 0.5
        direct = tune_kp(gd, wb)
        via_eval = tune_kp(lambda w: freq_response(gd, w), wb)
        assert via_eval == pytest.approx(direct, rel=1e-12)

    def test_plant_inverse_approx(self):
        assert kp_plant_inverse_approx(1.0, 0.5) == pytest.approx(0.75)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            tune_kp(lambda w: 0j, 5.0)


class TestPmFeasibility:
    def test_upper_bound_at_nu_2(self):
        # 7 n^2 - 16 n - 12.25 <= 0 has upper root (16 + sqrt(599))/14
        n_upper = (16.0 + np.sqrt(599.0)) / 14.0
        value, feasible = pm_feasibility(2.0, n_upper)
        assert value == pytest.approx(0.0, abs=1e-9)
        assert pm_feasibility(2.0, n_upper - 1e-6)[1]
        assert not pm_feasibility(2.0, n_upper + 1e-6)[1]

    def test_interior_point(self):
        value, feasible = pm_feasibility(1.0, 1.0)
        assert value == pytest.approx(-2.0, rel=1e-12)
        assert feasible

    def test_near_boundary_reference_tuning(self):
        # nu = 4/3, n = 2.2 sits just outside the feasible set
        value, feasible = pm_feasibility(4.0 / 3.0, 2.2)
        assert value == pytest.approx(0.15593, abs=1e-4)
        assert not feasible

    def test_exact_tan60_variant(self):
        v175, _ = pm_feasibility(2.0, 2.0)
        vtan, _ = pm_feasibility(2.0, 2.0, exact_tan60=True)
        assert v175 != vtan
        c = np.tan(np.radians(60.0))
        assert vtan == pytest.approx(c * 4 * 4 - 2 * 8 * 2 + c * (1 - 8), rel=1e-12)


class TestSteadyStateError:
    def test_values(self):
        assert steady_state_error(2.0) == pytest.approx(0.5)
        assert steady_state_error(1e9) < 1e-8
        assert steady_state_error(298.3569) == pytest.approx(6.658742e-3, rel=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            steady_state_error(0.0)


def bundle_for(plant_tf, ct_tf, cd_tf, grid):
    return dual_sensitivities(
        freq_response(plant_tf, grid),
        freq_response(ct_tf, grid) if ct_tf is not None else np.zeros(grid.size, complex),
        freq_response(cd_tf, grid) if cd_tf is not None else np.zeros(grid.size, complex),
        grid,
    )


class TestDualSensitivities:
    def test_open_loop_limits(self):
        grid = log_grid(0.01, 100.0, 100)
        b = bundle_for(build_plant(single_mode()), None, None, grid)
        np.testing.assert_allclose(b.s_yn, 1.0)
        np.testing.assert_allclose(b.t_yr, 0.0)

    @settings(deadline=None)
    @given(st.lists(st.tuples(COMPLEX, COMPLEX, COMPLEX), min_size=1, max_size=16))
    def test_complementarity_identities(self, points):
        # T_yr + T'_xr = 1 and S_yn - S_xn = 1 wherever 1 + L_D != 0, to
        # rounding relative to the magnitudes that cancel
        g, ct, cd = np.array(points).T
        b = dual_sensitivities(g, ct, cd, np.arange(1.0, g.size + 1.0))
        ok = ~b.flagged
        t_sum = np.abs(b.t_yr + b.t_xr_comp - 1.0)[ok]
        t_scale = (1.0 + np.abs(b.s_yn) + np.abs(b.t_yr) + np.abs(b.t_xr_comp))[ok]
        assert np.all(t_sum <= 1e-12 * t_scale)
        s_diff = np.abs(b.s_yn - b.s_xn - 1.0)[ok]
        assert np.all(s_diff <= 1e-12 * (1.0 + np.abs(b.s_yn) + np.abs(b.s_xn))[ok])

    def test_process_sensitivity_factorization(self):
        grid = log_grid(0.01, 100.0, 150)
        g = build_plant(single_mode())
        b = bundle_for(g, build_tracker(TrackerSpec(pi=PiSpec(kp=1.5))), nrc(0.8, 2.0), grid)
        np.testing.assert_allclose(
            b.ps_yd, freq_response(g, grid) * b.s_yn, rtol=1e-12
        )

    def test_low_frequency_real_error_suppressed_without_integrator(self):
        # marginal damping tuning gives |T'_xr| << 1 at low frequency even
        # with a plain proportional tracker
        grid = log_grid(1e-4, 10.0, 100)
        b = bundle_for(
            build_plant(single_mode()),
            build_tracker(TrackerSpec(pi=PiSpec(kp=1.0))),
            nrc(1.0, 3.0),
            grid,
        )
        low = grid < 1e-2
        assert np.max(np.abs(b.t_xr_comp[low])) < 0.05

    def test_alignment_required(self):
        with pytest.raises(ValueError, match="aligned"):
            dual_sensitivities(
                np.ones(3, complex), np.ones(4, complex), np.ones(3, complex), np.ones(3)
            )


class TestBandwidth:
    def test_flat_response_never_exits(self):
        grid = log_grid(0.1, 100.0, 50)
        def t_eval(w):
            return np.ones(np.shape(w), complex)

        rep = bandwidth(grid, t_eval(grid), t_eval, 3.0)
        assert rep.grid_end and rep.omega_c_rad_s is None

    def test_second_order_reference(self):
        # T = 1/(1 - w^2 + i*sqrt(2)*w) leaves the +/-3 dB band at w ~ 1
        def t_eval(w):
            return 1.0 / (1.0 - w**2 + 1j * np.sqrt(2.0) * w)

        grid = log_grid(1e-3 / TWO_PI, 10.0 / TWO_PI, 400)
        rep = bandwidth(grid, t_eval(grid), t_eval, 3.0)
        assert not rep.grid_end
        assert rep.omega_c_rad_s == pytest.approx(1.0, rel=0.02)
        # the refined point sits on the band edge
        assert 20 * np.log10(abs(t_eval(rep.omega_c_rad_s))) == pytest.approx(
            -3.0, abs=1e-6
        )

    def test_monotone_in_bound(self):
        grid = log_grid(1e-3 / TWO_PI, 10.0 / TWO_PI, 400)

        def t_eval(w):
            return 1.0 / (1.0 - w**2 + 1j * 0.8 * w)

        w1 = bandwidth(grid, t_eval(grid), t_eval, 1.0).omega_c_rad_s
        w3 = bandwidth(grid, t_eval(grid), t_eval, 3.0).omega_c_rad_s
        assert w1 <= w3

    def test_out_of_band_start_rejected(self):
        grid = log_grid(0.1, 10.0, 50)
        def t_eval(w):
            return np.full(np.shape(w), 10.0 + 0j)

        with pytest.raises(ValueError, match="outside the band"):
            bandwidth(grid, t_eval(grid), t_eval, 3.0)


class TestMargins:
    def test_integrator_loop(self):
        wb = 5.0
        grid = log_grid(0.01, 100.0, 400)
        def l_eval(w):
            return wb / (1j * w)

        rep = margins(grid, l_eval(grid), l_eval)
        assert len(rep.crossovers) == 1
        w, pm = rep.crossovers[0]
        assert w == pytest.approx(wb, rel=1e-9)
        assert pm == pytest.approx(90.0, abs=1e-6)

    def test_crossover_count_matches_frf(self):
        # marginal damping + low-bandwidth PI tracker: the integrator gives
        # a low-frequency down-crossing and the residual resonance bump two
        # more; the report must find exactly as many crossings as a dense
        # scan of |L|-1 sign changes
        grid = log_grid(1e-4 / TWO_PI, 100.0 / TWO_PI, 1000)
        g = build_plant(single_mode())
        ct = build_tracker(TrackerSpec(pi=PiSpec(kp=0.05, omega_i_rad_s=1e-3)))
        def ld_eval(w):
            return freq_response(g, w) * (
                freq_response(ct, w) + freq_response(nrc(1.0, 3.0), w)
            )

        expected = int(np.sum(np.diff(np.sign(np.abs(ld_eval(grid)) - 1.0)) != 0))
        rep = margins(grid, ld_eval(grid), ld_eval)
        assert expected >= 3
        assert len(rep.crossovers) == expected

    def test_crossover_unity_with_refine(self):
        g = build_plant(single_mode())

        def l_eval(w):
            return freq_response(g, w) * (3.0 + freq_response(nrc(1.0, 3.0), w))

        grid = log_grid(1e-3 / TWO_PI, 100.0 / TWO_PI, 400)
        rep = margins(grid, l_eval(grid), l_eval)
        for w, _ in rep.crossovers:
            assert abs(abs(complex(l_eval(w))) - 1.0) < 1e-4

    def test_gain_margin(self):
        # L = k/(s+1)^3 crosses -180 deg at w = sqrt(3) where |L| = k/8
        grid = log_grid(0.001, 100.0, 600)
        k = 4.0
        def l_eval(w):
            return k / (1j * w + 1.0) ** 3

        rep = margins(grid, l_eval(grid), l_eval)
        assert rep.gain_margin_db == pytest.approx(20 * np.log10(8.0 / k), abs=1e-9)

    def test_no_crossing_empty(self):
        grid = log_grid(0.1, 10.0, 50)
        def l_eval(w):
            return np.full(np.shape(w), 0.1 + 0j)

        rep = margins(grid, l_eval(grid), l_eval)
        assert rep.crossovers == ()


class TestNyquist:
    def test_stable_loop_no_net_crossings(self):
        grid = log_grid(0.001, 100.0, 400)
        def l_eval(w):  # GM = 2 -> stable
            return 4.0 / (1j * w + 1.0) ** 3

        assert nyquist_net_crossings(grid, l_eval(grid), l_eval) == 0

    def test_unstable_loop_detected(self):
        grid = log_grid(0.001, 100.0, 400)
        def l_eval(w):  # gain above 8 -> encirclement
            return 10.0 / (1j * w + 1.0) ** 3

        net = nyquist_net_crossings(grid, l_eval(grid), l_eval)
        assert net != 0
        # one critical-crossing pass gives the margins and the count
        assert margins(grid, l_eval(grid), l_eval).nyquist_net_crossings == net


class TestObjectives:
    @staticmethod
    def report(grid, g_tf, ct_tf, cd_tf, omega_n):
        def ct_eval(w):
            return freq_response(ct_tf, w)

        def ld_eval(w):
            cd = 0.0 if cd_tf is None else freq_response(cd_tf, w)
            return freq_response(g_tf, w) * (ct_eval(w) + cd)

        def t_yr_eval(w):
            return freq_response(g_tf, w) * ct_eval(w) / (1.0 + ld_eval(w))

        b = bundle_for(g_tf, ct_tf, cd_tf, grid)
        bw3 = bandwidth(grid, t_yr_eval(grid), t_yr_eval, 3.0)
        return objective_report(b, bw3, ct_eval(grid), ct_eval, ld_eval, omega_n)

    def test_resonance_loop_gain_value(self):
        # damping off, proportional tracker: |L_D(i wn)| = kp*g/(2 zeta)
        kp, g0, zeta = 2.0, 1.5, 0.01
        grid = log_grid(1e-2 / TWO_PI, 100.0 / TWO_PI, 400)
        g = build_plant(single_mode(g=g0, zeta=zeta))
        ct = build_tracker(TrackerSpec(pi=PiSpec(kp=kp)))
        rep = self.report(grid, g, ct, None, 1.0)
        assert rep.resonance_loop_gain.value == pytest.approx(
            kp * g0 / (2 * zeta), rel=1e-12
        )

    def test_tracker_corner_on_threshold(self):
        # |kp (1 + wi/s)| = 10 at w = wi / sqrt(99) for kp = 1
        wi = 100.0
        grid = log_grid(1e-2 / TWO_PI, 100.0 / TWO_PI, 50)
        ct = build_tracker(TrackerSpec(pi=PiSpec(kp=1.0, omega_i_rad_s=wi)))
        g = build_plant(single_mode())
        rep = self.report(grid, g, ct, nrc(0.9, 3.0), 1.0)
        assert rep.tracker_corner.value == pytest.approx(wi / np.sqrt(99.0), rel=1e-9)

    def test_highband_rolloff_objective(self):
        # tracker low-pass keeps the high band quiet
        grid = log_grid(1e-2 / TWO_PI, 1000.0 / TWO_PI, 400)
        g = build_plant(single_mode())
        ct_tf = build_tracker(
            TrackerSpec(pi=PiSpec(kp=1.0), lowpass_corner_rad_s=5.0)
        )
        rep = self.report(grid, g, ct_tf, nrc(0.9, 3.0), 1.0)
        assert rep.highband_loop_gain.value < 1.0
        assert rep.highband_loop_gain.passed
