import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import (
    damped_second_peak,
    delayed_inner_loop,
    inner_poles_closed_form,
    loaded_inner_charpoly,
    m_for_phase_lag,
    m_from_tau,
    min_damping_n,
    pade1,
    tamed_inner_loop,
    two_mode_inner_loop,
)
from nrcdamp import (
    ModeSpec,
    PlantSpec,
    build_plant,
    damping_ratio,
    freq_response,
    inner_charpoly,
    inner_closed_loop,
    nrc,
    poles_zeros,
    poly_roots,
    root_locus_n,
    routh_cubic,
    scale_load,
    tame_nrc,
    tf_feedback,
    tf_series,
)
import nrcdamp.loops
from nrcdamp.loops import (
    _ROOT_PAIRS,
    REAL_POLE_REL_TOL,
    _charpoly_coeffs,
    _cubic_roots,
    _pair_discriminant,
)

TWO_PI = 2.0 * np.pi


def single_mode(g=1.0, wn=1.0, zeta=0.01):
    return PlantSpec(gain=g, modes=(ModeSpec(wn, zeta),))


def freq_normalized(coeffs, w):
    """Rescale ascending coefficients to the dimensionless polynomial in
    s/w, so they are comparable across degrees."""
    c = np.asarray(coeffs, dtype=float)
    deg = c.size - 1
    return c * w ** np.arange(c.size) / w**deg


class TestInnerClosedLoop:
    def test_denominator_matches_charpoly(self):
        res = inner_closed_loop(single_mode(), nrc(0.5, 3.0))
        expected = inner_charpoly(1.0, 0.01, 0.5, 3.0)
        np.testing.assert_allclose(
            res.g_d.den.coeffs, expected.coeffs, rtol=1e-12, atol=1e-15
        )

    def test_dc_law(self):
        res = inner_closed_loop(single_mode(), nrc(0.5, 3.0))
        assert res.dc == pytest.approx(2.0, rel=1e-12)

    def test_zero_at_minus_corner(self):
        for n in (1.0, 3.0, 8.0):
            res = inner_closed_loop(single_mode(), nrc(1.0, n))
            np.testing.assert_allclose(res.zeros, [-n], atol=1e-12)
            assert np.all(res.zeros.real < 0.0)

    def test_min_resonant_damping_reported(self):
        res = inner_closed_loop(single_mode(zeta=0.0), nrc(1.0, 2.0))
        # poles -1 +/- i from the closed form -> zeta_d = 1/sqrt(2)
        assert res.min_resonant_damping == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-9)
        res = inner_closed_loop(single_mode(zeta=0.0), nrc(1.0, 3.0))
        assert res.min_resonant_damping is None


class TestRouth:
    def test_stable_below_unity_gamma(self):
        rep = routh_cubic(inner_charpoly(1.0, 0.01, 0.5, 3.0))
        assert rep.stable and not rep.marginal

    def test_marginal_at_unity(self):
        rep = routh_cubic(inner_charpoly(1.0, 0.01, 1.0, 3.0))
        assert rep.marginal and not rep.stable
        assert rep.first_column[3] == 0.0

    def test_unstable_above_unity(self):
        rep = routh_cubic(inner_charpoly(1.0, 0.01, 1.2, 3.0))
        assert not rep.stable and not rep.marginal
        assert rep.first_column[3] < 0.0

    @settings(deadline=None)
    @given(
        omega_n=st.floats(1e-1, 1e4),
        zeta=st.floats(0.0, 0.2),
        gamma=st.one_of(st.floats(0.01, 0.98), st.floats(1.02, 3.0)),
        n=st.floats(0.1, 20.0),
    )
    def test_verdict_matches_root_signs(self, omega_n, zeta, gamma, n):
        charpoly = inner_charpoly(omega_n, zeta, gamma, n)
        rep = routh_cubic(charpoly)
        assert not rep.marginal
        assert rep.stable == bool(np.all(poly_roots(charpoly).real < 0.0))

    def test_degree_check(self):
        from nrcdamp import Polynomial

        with pytest.raises(ValueError, match="degree-3"):
            routh_cubic(Polynomial([1.0, 1.0]))
        with pytest.raises(ValueError, match="leading coefficient"):
            routh_cubic(Polynomial([1.0, 1.0, 1.0, -1.0]))


class TestClosedFormPoles:
    def test_reference_case(self):
        p1, p2, p3 = inner_poles_closed_form(1.0, 0.0, 3.0)
        assert p1 == 0.0
        assert sorted((p2.real, p3.real)) == pytest.approx([-2.0, -1.0])
        assert p2.imag == p3.imag == 0.0

    def test_boundary_double_pole(self):
        # float cancellation in the discriminant limits the double root to
        # sqrt(eps)-level agreement at the exact boundary
        _, p2, p3 = inner_poles_closed_form(1.0, 0.0, 2.0 * np.sqrt(2.0))
        assert p2 == pytest.approx(p3, abs=1e-7)
        assert p2.real == pytest.approx(-np.sqrt(2.0), abs=1e-7)

    def test_underdamped_case(self):
        _, p2, p3 = inner_poles_closed_form(1.0, 0.0, 2.0)
        assert p2 == pytest.approx(-1.0 + 1.0j, abs=1e-12)
        assert p3 == pytest.approx(-1.0 - 1.0j, abs=1e-12)

    def test_agrees_with_numeric_rooting(self):
        for wn in (1.0, TWO_PI * 739.0):
            for zeta, n in ((0.0, 3.0), (0.01, 3.0), (0.05, 2.0), (0.01, 8.0)):
                numeric = poly_roots(inner_charpoly(wn, zeta, 1.0, n))
                closed = np.array(inner_poles_closed_form(wn, zeta, n))
                closed = closed[np.lexsort((closed.imag, closed.real))]
                assert np.max(np.abs(numeric - closed)) < 1e-9

    def test_damping_condition_splits_pole_structure(self):
        for zeta in (0.0, 0.01, 0.05):
            thr = min_damping_n(zeta)
            for n in (0.5, 1.5, thr - 0.05):
                _, p2, p3 = inner_poles_closed_form(1.0, zeta, n)
                assert abs(p2.imag) > 1e-9
            for n in (thr + 0.05, 5.0, 10.0):
                _, p2, p3 = inner_poles_closed_form(1.0, zeta, n)
                assert p2.imag == 0.0 and p3.imag == 0.0


class TestDampingRatio:
    def test_values(self):
        assert damping_ratio(-1.0 + 0.0j) == pytest.approx(1.0)
        assert damping_ratio(1.0j) == pytest.approx(0.0)
        assert damping_ratio(-1.0 + 1.0j) == pytest.approx(0.70711, abs=1e-5)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            damping_ratio(0.0)


def reference_locus(plant, gamma, n_values):
    """The pole pair of ``root_locus_n`` one n at a time: ``poly_roots`` of
    each cubic, then the pair that moves least by ``min`` over
    ``itertools.permutations`` (the first of equal costs)."""
    w, zeta = plant.omega_n, plant.modes[0].zeta
    p2 = np.empty(len(n_values), dtype=complex)
    p3 = np.empty(len(n_values), dtype=complex)
    prev = None
    for i, n in enumerate(n_values):
        roots = poly_roots(inner_charpoly(w, zeta, gamma, n))
        if prev is None:
            by_imag = sorted(roots, key=lambda r: -abs(r.imag))
            if abs(by_imag[0].imag) > REAL_POLE_REL_TOL * w:
                p2[i], p3[i] = sorted(by_imag[:2], key=lambda r: -r.imag)
            else:
                p2[i], p3[i] = sorted(roots, key=lambda r: -abs(r))[:2]
        else:
            p2[i], p3[i] = min(
                itertools.permutations(roots, 2),
                key=lambda pair: abs(pair[0] - prev[0]) + abs(pair[1] - prev[1]),
            )
        prev = (p2[i], p3[i])
    return p2, p3


def stepwise_locus(omega_n, zeta_n, gamma, n_values):
    """The pole pair of ``root_locus_n`` on the same batched roots, continued
    one grid point per loop iteration: the argmin of the six pair costs
    against the pair just chosen."""
    roots = _cubic_roots(_charpoly_coeffs(omega_n, zeta_n, gamma, n_values))
    p2 = np.empty(n_values.size, dtype=complex)
    p3 = np.empty(n_values.size, dtype=complex)
    # start the pair on the conjugate roots; fall back to the two
    # largest-magnitude roots when the pair is already real
    by_imag = sorted(roots[0], key=lambda r: -abs(r.imag))
    if abs(by_imag[0].imag) > REAL_POLE_REL_TOL * omega_n:
        p2[0], p3[0] = sorted(by_imag[:2], key=lambda r: -r.imag)
    else:
        p2[0], p3[0] = sorted(roots[0], key=lambda r: -abs(r))[:2]
    for i in range(1, n_values.size):
        # choose the assignment of the three new roots to (p2, p3) that
        # moves the pair the least; argmin keeps the first of equal costs
        pairs = roots[i][_ROOT_PAIRS]
        cost = np.abs(pairs[:, 0] - p2[i - 1]) + np.abs(pairs[:, 1] - p3[i - 1])
        p2[i], p3[i] = pairs[cost.argmin()]
    return p2, p3


LOCUS_CASES = [
    *[(zeta, 1.0, np.geomspace(0.5, 5.0, 120)) for zeta in (0.0, 0.01, 0.05, 0.1)],
    (0.0, 0.5, np.geomspace(0.5, 20.0, 80)),
    *[(zeta, gamma, np.geomspace(0.1, 10.0, 500))
      for zeta, gamma in ((0.01, 0.999), (0.1, 0.5), (0.0, 0.9), (0.3, 0.2))],
    (0.01, 0.999, np.geomspace(0.1, 10.0, 2000)),
]


class TestRootLocus:
    @pytest.mark.parametrize("wn", [1.0, TWO_PI * 739.0])
    @pytest.mark.parametrize("zeta, gamma, grid", LOCUS_CASES)
    def test_batched_locus_matches_reference_bits(self, wn, zeta, gamma, grid):
        plant = single_mode(wn=wn, zeta=zeta)
        trace = root_locus_n(wn, zeta, gamma, grid)
        p2, p3 = reference_locus(plant, gamma, grid)
        assert trace.p2.tobytes() == p2.tobytes()
        assert trace.p3.tobytes() == p3.tobytes()
        p2, p3 = stepwise_locus(wn, zeta, gamma, grid)
        assert trace.p2.tobytes() == p2.tobytes()
        assert trace.p3.tobytes() == p3.tobytes()

    @pytest.mark.parametrize("block", [1, 7, 499, 4096])
    @pytest.mark.parametrize(
        "zeta, gamma, grid",
        [(0.01, 0.999, np.geomspace(0.1, 10.0, 10_000)),  # blocks of 4096 and a rest
         (0.0, 1.0, np.geomspace(5.0, 10.0, 500)),  # the pair starts real
         (0.05, 0.7, np.geomspace(0.1, 10.0, 2))],
    )
    def test_continuation_blocks_match_stepwise(self, monkeypatch, block, zeta, gamma, grid):
        monkeypatch.setattr(nrcdamp.loops, "_LOCUS_BLOCK", block)
        trace = root_locus_n(TWO_PI * 739.0, zeta, gamma, grid)
        p2, p3 = stepwise_locus(TWO_PI * 739.0, zeta, gamma, grid)
        assert trace.p2.tobytes() == p2.tobytes()
        assert trace.p3.tobytes() == p3.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.0, 0.5),
        st.floats(0.01, 1.0),
        st.floats(-2.0, 1.0),
        st.floats(0.1, 3.0),
        st.integers(2, 700),
    )
    def test_drawn_loci_match_stepwise(self, zeta, gamma, log_n_min, decades, points):
        grid = np.geomspace(10.0**log_n_min, 10.0 ** (log_n_min + decades), points)
        trace = root_locus_n(1.0, zeta, gamma, grid)
        p2, p3 = stepwise_locus(1.0, zeta, gamma, grid)
        assert trace.p2.tobytes() == p2.tobytes()
        assert trace.p3.tobytes() == p3.tobytes()

    def test_one_eigvals_call(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        root_locus_n(1.0, 0.01, 0.999, np.geomspace(0.1, 10.0, 500))
        assert calls == [(500, 3, 3)]

    def test_bifurcation_thresholds(self):
        grid = np.geomspace(0.5, 5.0, 120)
        for zeta in (0.0, 0.01, 0.05, 0.1):
            trace = root_locus_n(1.0, zeta, 1.0, grid)
            assert trace.bifurcation_n == pytest.approx(
                2.0 * (np.sqrt(2.0) + zeta), rel=1e-10
            )

    def test_pair_structure_across_bifurcation(self):
        trace = root_locus_n(1.0, 0.0, 1.0, np.geomspace(0.5, 5.0, 120))
        before = trace.n_values < trace.bifurcation_n - 0.05
        after = trace.n_values > trace.bifurcation_n + 0.05
        assert np.all(np.abs(trace.p2[before].imag) > 1e-9)
        np.testing.assert_allclose(
            trace.p2[before], np.conj(trace.p3[before]), rtol=1e-9
        )
        assert np.all(np.abs(trace.p2[after].imag) < 1e-9)

    def test_no_bifurcation_for_low_gamma(self):
        trace = root_locus_n(1.0, 0.0, 0.5, np.geomspace(0.5, 20.0, 80))
        assert trace.bifurcation_n is None

    def test_pair_already_real_at_first_n(self):
        # the surrogate's first mode at its gamma: the pair is real from n = 5
        # on, so the locus starts on the two largest roots and bifurcates there
        wn = TWO_PI * 739.0
        trace = root_locus_n(wn, 0.01, 0.999, np.geomspace(5.0, 10.0, 50))
        assert trace.bifurcation_n == 5.0
        roots = poly_roots(inner_charpoly(wn, 0.01, 0.999, 5.0))
        assert np.all(roots.imag == 0.0)
        assert {trace.p2[0], trace.p3[0]} == set(sorted(roots, key=abs)[1:])

    def test_input_validation(self):
        for grid in ([0.0, 1.0], [-1.0, 1.0]):
            with pytest.raises(ValueError, match="> 0"):
                root_locus_n(1.0, 0.01, 1.0, grid)

    @pytest.mark.parametrize("zeta, gamma", [(0.01, 0.999), (0.1, 0.5)])
    def test_scaled_discriminant_finite_with_exact_sign(self, zeta, gamma):
        for n in (1.0, 2.85, 10.0, 1e14, 1e75, 1e300):
            scaled = _pair_discriminant(zeta, gamma, n)
            assert np.isfinite(scaled)
            z, g, x = Fraction(zeta), Fraction(gamma), Fraction(n)
            b, c, d = x + 2 * z, 2 * z * x + 1 + g, x * (1 - g)
            exact = 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d
            assert np.sign(scaled) == np.sign(exact)


class TestDelayedLoop:
    def test_matches_compositional_closure(self):
        for wn in (1.0, TWO_PI * 739.0):
            for n, m in ((3.0, 3.0), (2.0, 10.0), (8.0, 1.0)):
                direct = delayed_inner_loop(wn, n, m)
                tau = 2.0 / (m * wn)
                plant = tf_series(
                    build_plant(single_mode(zeta=0.0, wn=wn)), pade1(tau)
                )
                composed = tf_feedback(plant, nrc(1.0, n * wn))
                a = freq_normalized(direct.den.coeffs, wn)
                b = freq_normalized(composed.den.coeffs, wn)
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9 * np.max(np.abs(a)))
                an = freq_normalized(direct.num.coeffs, wn)
                bn = freq_normalized(composed.num.coeffs, wn)
                np.testing.assert_allclose(an, bn, rtol=1e-9, atol=1e-9 * np.max(np.abs(an)))

    def test_numerator_zeros(self):
        wn, n, m = 1.0, 3.0, 7.0
        zeros = poly_roots(delayed_inner_loop(wn, n, m).num)
        np.testing.assert_allclose(np.sort(zeros.real), [-n * wn, m * wn], atol=1e-9)

    def test_converges_to_undelayed(self):
        # magnitude convergence for vanishing delay; the residual all-pass
        # phase (2*w/(m*wn)) dominates the complex difference instead
        wn, n = 1.0, 3.0
        undelayed = tf_feedback(build_plant(single_mode(zeta=0.0)), nrc(1.0, n))
        w = np.logspace(-2, 1, 300)
        ref = np.abs(freq_response(undelayed, w))
        got = np.abs(freq_response(delayed_inner_loop(wn, n, 1e3), w))
        assert np.max(np.abs(got / ref - 1.0)) < 0.01

    def test_m_converters(self):
        assert m_from_tau(2.0, 1.0) == pytest.approx(1.0)
        # all-pass lag at wn is 2*atan(1/m)
        for phi in (10.0, 30.0, 60.0, 85.0):
            m = m_for_phase_lag(phi)
            assert np.degrees(2.0 * np.arctan(1.0 / m)) == pytest.approx(phi, rel=1e-12)


class TestLoadRobustness:
    def test_reference_checks(self):
        assert 3.0 >= min_damping_n(0.01, 1.0)
        assert 3.0 >= min_damping_n(0.01, 0.5)
        assert not 2.0 >= min_damping_n(0.0, 1.0)

    def test_formula_agrees_with_rooting(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            zeta = rng.uniform(0.0, 0.1)
            n = rng.uniform(0.5, 6.0)
            eta = rng.uniform(0.2, 1.0)
            thr = 2.0 * eta * (np.sqrt(2.0) + zeta)
            if abs(n - thr) < 1e-6:
                continue
            roots = poly_roots(loaded_inner_charpoly(1.0, zeta, n, eta))
            all_real = np.all(np.abs(roots.imag) < 1e-9)
            assert all_real == (n >= min_damping_n(zeta, eta))

    def test_unloaded_tuning_keeps_damping_under_load(self):
        # controller tuned at eta=1 with gamma=1, n=3; the loaded loops must
        # keep fully real poles (compositional path)
        wn = TWO_PI * 739.0
        plant = single_mode(wn=wn, zeta=0.01)
        controller = nrc(1.0, 3.0 * wn)
        for eta in (0.75, 0.5):
            loaded = scale_load(plant, eta)
            res = inner_closed_loop(loaded, controller)
            assert np.max(np.abs(res.poles.imag)) < 1e-6 * wn


class TestTwoModeLoop:
    def test_matches_compositional_closure(self):
        for wn in (1.0, TWO_PI * 739.0):
            for alpha, beta, gamma, n in (
                (2.0, 0.5, 1.0, 3.0),
                (1.5, 0.2, 0.5, 2.0),
                (3.0, 1.0, 1.0, 8.0),
            ):
                direct = two_mode_inner_loop(alpha, beta, gamma, n, wn)
                plant = PlantSpec(
                    gain=1.0,
                    modes=(ModeSpec(wn, 0.0), ModeSpec(alpha * wn, 0.0, weight=beta)),
                )
                k = gamma / (1.0 + beta)
                composed = tf_feedback(build_plant(plant), nrc(k, n * wn))
                a = freq_normalized(direct.den.coeffs, wn)
                b = freq_normalized(composed.den.coeffs, wn)
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9 * np.max(np.abs(a)))

    def test_damped_gain_at_second_mode(self):
        val = abs(freq_response(two_mode_inner_loop(2.0, 0.5, 1.0, 3.0, 1.0), 2.0))
        assert val == pytest.approx(1.5, rel=1e-9)

    def test_small_beta_reduces_to_single_mode(self):
        w = np.logspace(-1.5, 0.8, 200)
        ref = freq_response(
            tf_feedback(build_plant(single_mode(zeta=0.0)), nrc(1.0, 3.0)), w
        )
        got = freq_response(two_mode_inner_loop(2.0, 1e-9, 1.0, 3.0, 1.0), w)
        assert np.max(np.abs(got / ref - 1.0)) < 1e-6


class TestSecondPeak:
    def test_peak_stays_when_n_equals_alpha(self):
        peak = damped_second_peak(2.0, 0.5, 1.0, 2.0, 1.0)
        assert peak.case == "at"
        assert peak.omega_rad_s == pytest.approx(2.0, abs=0.02)

    def test_peak_above_for_small_n(self):
        peak = damped_second_peak(2.0, 0.5, 1.0, 1.5, 1.0)
        assert peak.case == "above"
        assert peak.omega_rad_s > 2.0

    def test_peak_below_for_large_n(self):
        peak = damped_second_peak(2.0, 0.5, 1.0, 3.0, 1.0)
        assert peak.case == "below"
        assert peak.omega_rad_s < 2.0


class TestTamedLoop:
    def test_matches_compositional_closure(self):
        for wn in (1.0, TWO_PI * 739.0):
            for n, l in ((3.0, 2.0), (3.0, 20.0), (4.5, 1.0)):
                direct = tamed_inner_loop(wn, n, l)
                composed = tf_feedback(
                    build_plant(single_mode(zeta=0.0, wn=wn)),
                    tame_nrc(1.0, n * wn, l * wn),
                )
                a = freq_normalized(direct.den.coeffs, wn)
                b = freq_normalized(composed.den.coeffs, wn)
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9 * np.max(np.abs(a)))

    def test_large_l_recovers_untamed_poles(self):
        l = 1e4
        roots = poly_roots(tamed_inner_loop(1.0, 3.0, l).den)
        roots = roots[np.argsort(np.abs(roots))]
        np.testing.assert_allclose(roots[0], 0.0, atol=1e-9)
        np.testing.assert_allclose(roots[1], -1.0, atol=2e-3)
        np.testing.assert_allclose(roots[2], -2.0, atol=2e-3)
        assert abs(roots[3] + l) < 0.01 * l

    def test_small_l_keeps_complex_pair(self):
        # heavy taming wrecks the complete damping that n=3 would give
        roots = poly_roots(tamed_inner_loop(1.0, 3.0, 1.0).den)
        assert np.max(np.abs(roots.imag)) > 0.1
