import functools
import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closed_forms import kp_plant_inverse_approx, nrc_gains, steady_state_error
from nrcdamp import (
    Design,
    ModeSpec,
    NotchSpec,
    NrcSpec,
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
    nanopositioner_surrogate,
    nrc,
    nyquist_net_crossings,
    objective_report,
    pm_feasibility,
    tune_kp,
)
import nrcdamp.tracking
from nrcdamp.loops import _pair_discriminant
from nrcdamp.tracking import _bisect, _Brackets, _margins_plan

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
        assert tune_kp(lambda w: freq_response(RationalTF.gain(1.0), w), 5.0) == pytest.approx(1.0)

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
        ok = 1.0 + b.ld != 0.0
        t_sum = np.abs(b.t_yr + b.t_xr_comp - 1.0)[ok]
        t_scale = (1.0 + np.abs(b.s_yn) + np.abs(b.t_yr) + np.abs(b.t_xr_comp))[ok]
        assert np.all(t_sum <= 1e-12 * t_scale)
        s_diff = np.abs(b.s_yn - b.s_xn - 1.0)[ok]
        assert np.all(s_diff <= 1e-12 * (1.0 + np.abs(b.s_yn) + np.abs(b.s_xn))[ok])

    @pytest.mark.parametrize("built_by", ["dual_sensitivities", "Design.at"])
    def test_singular_points_are_infinite(self, built_by):
        # 1 + G (C_t + C_d) == 0 exactly at the odd points: the five closed
        # loops over it are complex(inf, 0) there, finite elsewhere, and no
        # numpy warning is raised
        grid = np.arange(1.0, 9.0)
        singular = grid % 2 == 1
        g = np.ones(grid.size, complex)
        ct = np.where(singular, -0.5, 0.25).astype(complex)
        cd = ct.copy()
        if built_by == "dual_sensitivities":
            frf = dual_sensitivities(g, ct, cd, grid)
        else:
            design = Design(nanopositioner_surrogate(), NrcSpec(gamma=0.999, n=8.0), grid)
            design.frfs = lambda omega: (g, cd, ct)
            frf = design.at(grid)
        assert np.array_equal(1.0 + frf.ld == 0.0, singular)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in ("t_yr", "t_xr_comp", "s_yn", "s_xn", "ps_yd"):
                value = getattr(frf, name)
                assert np.all(value.real[singular] == np.inf), name
                assert np.all(value.imag[singular] == 0.0), name
                assert np.all(np.isfinite(value[~singular])), name

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
        return objective_report(b, bw3, ct_eval, ld_eval, omega_n)

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


def sequential_bisect(brackets, evaluator):
    """Refine the crossings inside every bracket of the ``_Brackets`` sets.

    All brackets are halved together at their geometric midpoints, one
    evaluator call per step on the midpoints of every set, until
    hi/lo < 1 + 1e-12 or 80 steps. Each bracket halves by its own side
    test, so sets refined together or apart give the same bits. Returns,
    for each set, the crossings and its response there.
    """
    if not brackets:
        return []
    ends = np.cumsum([0] + [b.i.size for b in brackets]).tolist()
    cuts = [slice(a, z) for a, z in zip(ends[:-1], ends[1:])]

    def side(evaluated):
        return np.concatenate(
            [b.side(b.pick(evaluated)[cut]) for b, cut in zip(brackets, cuts)]
        )

    lo = np.concatenate([b.grid[b.i] for b in brackets])
    hi = np.concatenate([b.grid[b.i + 1] for b in brackets])
    left = np.concatenate([b.side(b.values[b.i]) for b in brackets])
    for _ in range(80):
        active = hi / lo >= 1.0 + 1e-12
        if not active.any():
            break
        mid = np.sqrt(lo * hi)
        stay = side(evaluator(mid)) == left
        lo = np.where(active & stay, mid, lo)
        hi = np.where(active & ~stay, mid, hi)
    w = np.sqrt(lo * hi)
    evaluated = evaluator(w)
    return [(w[cut], b.pick(evaluated)[cut]) for b, cut in zip(brackets, cuts)]


def one_d(evaluator, calls=None):
    """``evaluator`` that refuses anything but a 1-D omega and records the
    size of each call in ``calls``."""

    def checked(w):
        if np.ndim(w) != 1:
            raise AssertionError(f"evaluator called with a {np.ndim(w)}-D omega")
        if calls is not None:
            calls.append(np.size(w))
        return evaluator(w)

    return checked


def fields(w):
    # three responses, as ``design.Design.at`` returns several; ``line`` is
    # linear in log omega, as regula falsi assumes
    return SimpleNamespace(up=w, wave=np.sin(3.0 * np.log(w)), line=np.log(w))


# residual hints of a threshold set: the true one, and hints that predict
# nothing or the wrong place; each may cost calls and none may change a bit
RESIDUALS = {
    "true": lambda threshold: lambda v: v - threshold,
    "missing": lambda threshold: None,
    "nan": lambda threshold: lambda v: np.full(np.shape(v), np.nan),
    "negated": lambda threshold: lambda v: threshold - v,
    "one sign": lambda threshold: lambda v: np.abs(v - threshold) + 1.0,
    "inf": lambda threshold: lambda v: np.where(v > threshold, np.inf, -1.0),
}


def threshold_set(lo, ratio, cut, field="up", residual="true"):
    """One ``_Brackets`` set of brackets [lo, lo * ratio] whose side is
    whether ``field`` exceeds its value at ``cut``, a threshold omega per
    bracket (aligned with ``i``), with a ``RESIDUALS`` hint."""
    lo, ratio, cut = (np.asarray(x, dtype=float) for x in (lo, ratio, cut))
    grid = np.ravel(np.column_stack([lo, lo * ratio]))
    i = np.arange(0, grid.size, 2)
    threshold = getattr(fields(cut), field)
    return _Brackets(grid, getattr(fields(grid), field), i, lambda v: v > threshold, field,
                     RESIDUALS[residual](threshold))


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for (w, v), (w0, v0) in zip(got, want):
        assert w.tobytes() == w0.tobytes()
        assert np.asarray(v).tobytes() == np.asarray(v0).tobytes()


BRACKET = st.tuples(
    st.floats(1e-3, 1e3),  # lo
    st.floats(-12.5, 3.0),  # log10(hi/lo - 1): from no halving to about 45
    st.floats(-0.2, 1.2),  # where the threshold sits, in log units of the bracket
)


class TestTreeBisection:
    """``tracking._bisect``, which halves along predicted paths, against
    ``sequential_bisect``, its one-halving-per-call form: every bracket ends
    on the same lo and hi, bit for bit, whatever its residual hint, and in
    no more evaluator calls."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.lists(BRACKET, min_size=1, max_size=6),
                              st.sampled_from(sorted(RESIDUALS))), min_size=1, max_size=3),
           st.sampled_from(["up", "wave", "line"]))
    @example([([(1.0, -12.5, 0.5), (1.0, 0.0, 0.5), (5.0, 3.0, -0.1)], "true")], "up")
    @example([([(1.0, 0.0, 0.5)], "nan"), ([(2.0, 1.0, 0.9)], "missing"),
              ([(3.0, 2.0, 0.1)], "one sign")], "wave")
    def test_drawn_brackets_match_sequential(self, sets, field):
        brackets = []
        for drawn, residual in sets:
            lo, exp10, where = (np.array(x) for x in zip(*drawn))
            ratio = 1.0 + 10.0**exp10
            brackets.append(threshold_set(lo, ratio, lo * ratio**where, field, residual))
        calls, halvings = [], []
        got = _bisect(brackets, one_d(fields, calls))
        assert_same_bits(got, sequential_bisect(brackets, one_d(fields, halvings)))
        # together or apart, each set gets the same bits
        for b, alone in zip(brackets, got):
            assert_same_bits(_bisect([b], fields), [alone])
        assert len(calls) <= len(halvings)

    def test_brackets_stop_at_every_level(self):
        # hi/lo - 1 from 2**0 to 2**45 times 1e-12: the brackets need 0 to
        # 46 halvings, so they go inactive on every level of a path
        lo = np.full(46, 3.0)
        ratio = 1.0 + 1e-12 * 2.0 ** np.arange(46)
        ratio[0] = np.nextafter(1.0 + 1e-12, 0.0)  # inactive from the start
        sets = [threshold_set(lo, ratio, lo * ratio**0.3, "line"),
                threshold_set(lo, ratio, lo, "line")]
        calls, halvings = [], []
        got = _bisect(sets, one_d(fields, calls))
        assert_same_bits(got, sequential_bisect(sets, one_d(fields, halvings)))
        assert got[0][0][0] == np.sqrt(3.0 * 3.0 * ratio[0])  # never halved
        # a residual linear in log omega predicts every path: one call on the
        # midpoints of every halving and one at the crossings, where one
        # halving a call takes 42 and one
        assert len(calls) == 2 and calls[1] == 92
        assert len(halvings) == 43

    def test_eighty_step_cap(self):
        capped = [
            # from 0, a bracket never narrows: sqrt(0 * hi) is 0, and a
            # crossing above every midpoint keeps lo there
            (np.array([0.0, 2.0]), lambda v: v > 1e300),
            # to inf, the midpoints are inf: a crossing below them keeps hi
            (np.array([1.0, np.inf]), lambda v: v > 1.5),
        ]
        for (grid, side), residual in itertools.product(capped, ["true", "missing"]):
            b = _Brackets(grid, grid, np.array([0]), side, residual=RESIDUALS[residual](1.0))
            calls, halvings = [], []
            with np.errstate(divide="ignore", invalid="ignore"):
                got = _bisect([b], one_d(lambda w: w, calls))
                assert_same_bits(got, sequential_bisect([b], one_d(lambda w: w, halvings)))
            assert got[0][0][0] == np.sqrt(grid[0] * grid[1])
            assert len(halvings) == 81
            assert len(calls) <= 81

    def test_bracket_from_zero(self):
        # the grid's side at 0 disagrees with the evaluator's: the first
        # halving keeps the lower half, [0, 0], and stops
        b = _Brackets(np.array([0.0, 4.0]), np.array([-1.0, 4.0]), np.array([0]),
                      lambda v: v > -0.5, residual=lambda v: v)
        calls, halvings = [], []
        with np.errstate(divide="ignore", invalid="ignore"):
            got = _bisect([b], one_d(lambda w: w, calls))
            assert_same_bits(got, sequential_bisect([b], one_d(lambda w: w, halvings)))
        assert got[0][0][0] == 0.0
        assert len(calls) == len(halvings) == 2

    def test_no_brackets(self):
        empty = _Brackets(np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                          np.array([], dtype=int), lambda v: v > 1.5)
        assert _bisect([], fields) == []
        assert_same_bits(_bisect([empty], lambda w: w), sequential_bisect([empty], lambda w: w))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 0.5), st.floats(0.2, 1.0), st.integers(3, 300))
    @example(0.01, 0.999, 500)
    @example(0.0, 1.0, 2000)
    def test_bifurcation_bisection(self, zeta, gamma, points):
        n_values = np.geomspace(0.1, 10.0, points)
        disc = functools.partial(_pair_discriminant, zeta, gamma)
        values = disc(n_values)
        hits = np.flatnonzero(values >= 0.0)
        if not (hits.size and hits[0] > 0):
            return
        b = _Brackets(n_values, values, hits[:1] - 1, lambda v: v >= 0.0, residual=lambda v: v)
        assert_same_bits(_bisect([b], one_d(disc)), sequential_bisect([b], disc))

    @pytest.mark.parametrize("ppd", [50, 400, 2000])
    def test_margins_brackets_match_sequential(self, ppd):
        # the critical-phase side and residual read each bracket's own
        # branch, aligned with i, on every level of a path
        plant = nanopositioner_surrogate()
        g_tf = build_plant(plant)
        damper = nrc(*nrc_gains(plant, NrcSpec(gamma=0.999, n=8.0)))
        ct_tf = build_tracker(TrackerSpec(pi=PiSpec(kp=300.0, omega_i_rad_s=TWO_PI * 28.0)))

        def loop(w):
            return freq_response(g_tf, w) * (freq_response(ct_tf, w) + freq_response(damper, w))

        grid = log_grid(1.0, 10000.0, ppd)
        brackets, _ = _margins_plan(grid, loop(grid))
        assert sum(b.i.size for b in brackets) >= 3
        assert_same_bits(_bisect(brackets, one_d(loop)), sequential_bisect(brackets, loop))


class TestEvaluatorContract:
    """The public analyses call a user's evaluator with 1-D omega only, and
    report what the one-halving-per-call bisection reports."""

    @pytest.fixture
    def readme_loop(self):
        plant = nanopositioner_surrogate()
        k, wa = nrc_gains(plant, NrcSpec(gamma=0.999, n=8.0))
        damper = nrc(k, wa)
        g_tf = build_plant(plant)

        def gd(w):
            g = freq_response(g_tf, w)
            return g / (1.0 + g * freq_response(damper, w))

        kp = tune_kp(gd, TWO_PI * 380.0)
        ct_tf = build_tracker(TrackerSpec(
            pi=PiSpec(kp=kp, omega_i_rad_s=TWO_PI * 28.0),
            lowpass_corner_rad_s=TWO_PI * 5000.0,
        ))

        def loop(w):
            return freq_response(g_tf, w) * (freq_response(ct_tf, w) + freq_response(damper, w))

        def t_yr(w):
            return freq_response(g_tf, w) * freq_response(ct_tf, w) / (1.0 + loop(w))

        return log_grid(1.0, 10000.0, 400), loop, t_yr

    def test_reports_with_a_strict_evaluator(self, readme_loop, monkeypatch):
        grid, loop, t_yr = readme_loop
        got = (
            bandwidth(grid, t_yr(grid), one_d(t_yr), 3.0),
            bandwidth(grid, t_yr(grid), one_d(t_yr), 1.0),
            margins(grid, loop(grid), one_d(loop)),
            nyquist_net_crossings(grid, loop(grid), one_d(loop)),
        )
        monkeypatch.setattr(nrcdamp.tracking, "_bisect", sequential_bisect)
        want = (
            bandwidth(grid, t_yr(grid), t_yr, 3.0),
            bandwidth(grid, t_yr(grid), t_yr, 1.0),
            margins(grid, loop(grid), loop),
            nyquist_net_crossings(grid, loop(grid), loop),
        )
        assert got == want
        assert got[2].crossovers and got[2].gain_margin_db is not None
