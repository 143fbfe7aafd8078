import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closed_forms import pade1
from nrcdamp import (
    FrfStack,
    Polynomial,
    RationalTF,
    dc_gain,
    freq_response,
    inner_charpoly,
    log_grid,
    poles_zeros,
    poly_roots,
    tf_feedback,
    tf_series,
)
from nrcdamp.lti import _CSV_BLOCK, _FRF_BLOCK, _scale, unwrap, write_csv


def tf(num, den, delay=0.0):
    return RationalTF.from_coeffs(num, den, delay)


class TestPolyRoots:
    def test_factorable_quadratic(self):
        r = poly_roots(Polynomial([2.0, 3.0, 1.0]))  # s^2+3s+2
        np.testing.assert_allclose(r, [-2.0, -1.0], atol=1e-12)

    def test_undamped_pair(self):
        r = poly_roots(Polynomial([1.0, 0.0, 1.0]))  # s^2+1
        np.testing.assert_allclose(sorted(r, key=lambda z: z.imag), [-1j, 1j], atol=1e-12)

    def test_inner_loop_cubic_matches_closed_form(self):
        # wn=1, zeta=0, gamma=1, n=3 -> s^3+3s^2+2s with roots {0,-1,-2}
        r = poly_roots(inner_charpoly(1.0, 0.0, 1.0, 3.0))
        np.testing.assert_allclose(r, [-2.0, -1.0, 0.0], atol=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant polynomial has no roots"):
            poly_roots(Polynomial([1.0]))

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="exceeds supported rooting degree"):
            poly_roots(Polynomial(np.ones(14)))

    def test_residual_bound_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            deg = rng.integers(1, 9)
            coeffs = rng.uniform(-10.0, 10.0, deg + 1)
            if abs(coeffs[-1]) < 0.1:
                coeffs[-1] = 0.5
            p = Polynomial(coeffs)
            roots = poly_roots(p)
            norm = np.linalg.norm(coeffs)
            for r in roots:
                res = abs(p(r)) / (norm * max(1.0, abs(r)) ** p.degree)
                assert res < 1e-9

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            coeffs = rng.uniform(-10.0, 10.0, rng.integers(3, 9))
            coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.1 else 1.0
            roots = poly_roots(Polynomial(coeffs))
            conj = np.conj(roots)
            for r in roots[np.abs(roots.imag) > 1e-12]:
                assert np.min(np.abs(conj - r)) < 1e-8 * max(1.0, abs(r))


class TestPolynomialCall:
    """``Polynomial.__call__`` is Horner's rule in ``polyval``'s operation
    order: the same bits and type, without numpy.polynomial."""

    @pytest.mark.parametrize("coeffs", [[2.5], [0.0], [1.0, -3.0], [2.0, 3.0, 1.0],
                                        [1e-3, -7.0, 0.5, 4e4, 1.0]])
    @pytest.mark.parametrize("s", [0.0, -1.5, 2j, 1e3 - 4e2j,
                                   np.array([0.0, 1.5, -3.0]), np.array([1j, 2.0 + 1j, -5e3j]),
                                   np.array(0.5), np.array([[1j, 2.0], [3.0, -1j]])])
    def test_same_bits_as_polyval(self, coeffs, s):
        got, want = Polynomial(coeffs)(s), np.polynomial.polynomial.polyval(s, coeffs)
        assert type(got) is type(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# phases with steps of exactly +/-pi and +/-2pi between them, beside NaN,
# +/-inf, +/-0.0 and any float
PHASES = st.one_of(
    st.sampled_from([0.0, -0.0, np.pi, -np.pi, 2.0 * np.pi, -2.0 * np.pi, 3.0 * np.pi,
                     np.nan, np.inf, -np.inf]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestUnwrap:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(PHASES, min_size=1, max_size=40))
    @example([0.0])
    @example([-0.0])
    @example([np.nan])
    @example([0.0, np.pi])
    @example([0.0, -np.pi])
    @example([np.pi, -np.pi])
    @example([-np.pi, np.pi])
    @example([0.0, 2.0 * np.pi])
    @example([-0.0, -2.0 * np.pi, -0.0, np.inf, 1.0, -np.inf, np.nan, -0.0])
    def test_same_bits_as_numpy(self, phases):
        p = np.array(phases, dtype=float)
        with np.errstate(invalid="ignore"):
            want = np.unwrap(p)
            got = unwrap(p)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_phase_along_a_grid(self, seed):
        # a long wrapped phase with a handful of jumps, as in the CSV writers
        rng = np.random.default_rng(seed)
        p = np.angle(np.exp(1j * np.cumsum(rng.normal(0.0, 0.3, 8001))))
        assert unwrap(p).tobytes() == np.unwrap(p).tobytes()


class TestSeries:
    def test_first_order_times_gain(self):
        out = tf_series(tf([1.0], [1.0, 1.0]), RationalTF.gain(2.0))
        np.testing.assert_allclose(out.num.coeffs, [2.0])
        np.testing.assert_allclose(out.den.coeffs, [1.0, 1.0])

    def test_delay_adds(self):
        carrier = tf([1.0], [1.0], delay=1e-4)
        out = tf_series(tf([1.0], [1.0, 0.02, 1.0]), carrier)
        assert out.delay_s == pytest.approx(1e-4)

    def test_two_sections_dc(self):
        # 1/(s+1) * 2/(s+2) has unity DC gain
        out = tf_series(tf([1.0], [1.0, 1.0]), tf([2.0], [2.0, 1.0]))
        assert dc_gain(out) == pytest.approx(1.0, abs=1e-15)

    def test_associative_on_grid(self):
        rng = np.random.default_rng(3)
        w = log_grid(0.01, 100.0, 50)
        for _ in range(5):
            blocks = [
                tf(rng.uniform(-2, 2, rng.integers(1, 3)), np.append(rng.uniform(-2, 2, rng.integers(1, 3)), 1.0))
                for _ in range(3)
            ]
            a, b, c = blocks
            left = freq_response(tf_series(tf_series(a, b), c), w)
            right = freq_response(tf_series(a, tf_series(b, c)), w)
            scale = np.max(np.abs(left)) or 1.0
            assert np.max(np.abs(left - right)) / scale < 1e-10


class TestFeedback:
    def test_integrator_unity(self):
        out = tf_feedback(tf([1.0], [0.0, 1.0]), RationalTF.gain(1.0))
        np.testing.assert_allclose(out.num.coeffs, [1.0])
        np.testing.assert_allclose(out.den.coeffs, [1.0, 1.0])

    def test_inner_loop_coefficients(self):
        # damped plant, marginal controller tuning: denominator must equal
        # the closed-form inner cubic
        g = tf([1.0], [1.0, 0.02, 1.0])
        h = tf([-3.0, 1.0], [3.0, 1.0])  # k=1, wa=3
        out = tf_feedback(g, h)
        expected = inner_charpoly(1.0, 0.01, 1.0, 3.0)
        np.testing.assert_allclose(out.den.coeffs, expected.coeffs, rtol=1e-12, atol=1e-15)

    def test_zero_feedback_identity(self):
        g = tf([1.0], [1.0, 0.02, 1.0])
        out = tf_feedback(g, tf([0.0], [1.0]))
        np.testing.assert_allclose(out.num.coeffs, g.num.coeffs)
        np.testing.assert_allclose(out.den.coeffs, g.den.coeffs)

    def test_delay_rejected(self):
        g = tf([1.0], [1.0, 1.0], delay=1e-4)
        with pytest.raises(ValueError, match="delay inside algebraic loop"):
            tf_feedback(g, RationalTF.gain(1.0))


class TestFreqResponse:
    def test_resonance_magnitude(self):
        # |G(i wn)| = g/(2 zeta) exactly for the single-mode plant
        g = tf([1.0], [1.0, 0.02, 1.0])
        assert abs(freq_response(g, 1.0)) == pytest.approx(50.0, rel=1e-12)

    def test_constant_controller_gain(self):
        wa = 7.0
        c = tf([-2.0 * wa, 2.0], [wa, 1.0])
        for w in (0.1 * wa, wa, 10.0 * wa):
            assert abs(freq_response(c, w)) == pytest.approx(2.0, rel=1e-12)

    def test_delay_phase(self):
        tau = 1e-3
        d = tf([1.0], [1.0], delay=tau)
        v = freq_response(d, np.pi / tau)
        assert np.degrees(np.angle(v)) == pytest.approx(-180.0, abs=1e-9) or np.degrees(
            np.angle(v)
        ) == pytest.approx(180.0, abs=1e-9)

    def test_pole_hit_flagged(self):
        g = tf([1.0], [1.0, 0.0, 1.0])
        v = freq_response(g, np.array([0.5, 1.0, 2.0]))
        assert np.isinf(np.abs(v[1]))
        assert np.all(np.isfinite(v[[0, 2]]))

    def test_matches_dc_gain_at_zero(self):
        cases = [
            tf([1.0], [1.0, 0.02, 1.0]),
            tf([2.0, 0.5], [1.0, 2.0, 1.0]),
            tf([3.0], [1.5, 1.0]),
        ]
        for g in cases:
            assert abs(freq_response(g, 0.0) - dc_gain(g)) <= 1e-12 * abs(dc_gain(g))


def polyval_frf(g, omega):
    """Oracle: one transfer function at i*omega by numpy's polyval, one
    polynomial at a time, with the pole-hit guard and delay phase of
    freq_response."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    s = 1j * w
    nv = np.polynomial.polynomial.polyval(s, g.num.coeffs)
    dv = np.polynomial.polynomial.polyval(s, g.den.coeffs)
    dscale = np.polynomial.polynomial.polyval(np.abs(w), np.abs(g.den.coeffs))
    dscale = np.maximum(dscale, np.max(np.abs(g.den.coeffs)))
    out = np.empty_like(s)
    hit = np.abs(dv) <= 1e-12 * dscale
    ok = ~hit
    out[ok] = nv[ok] / dv[ok]
    out[hit] = complex(np.inf, 0.0)
    if g.delay_s:
        out[ok] = out[ok] * np.exp(-1j * w[ok] * g.delay_s)
    return out if np.ndim(omega) else out[0]


def assert_rows_match_oracle(tfs, omega):
    rows = FrfStack(tfs)(omega)
    assert rows.shape == (len(tfs),) + np.shape(omega)
    for row, g in zip(rows, tfs):
        want = polyval_frf(g, omega)
        assert np.asarray(row).tobytes() == np.asarray(want).tobytes(), g
        assert np.asarray(freq_response(g, omega)).tobytes() == np.asarray(want).tobytes(), g


class TestFrfStack:
    """The stacked evaluator has, row by row, the bits of evaluating each
    transfer function alone with numpy's polyval."""

    MIXED = (
        tf([1.0], [1.0, 0.02, 1.0], delay=1.5e-4),  # delayed, degree 2
        tf([-7.0, 1.0], [7.0, 1.0]),  # degree 1
        tf([3.5], [1.0]),  # constant
        tf([2.0, 0.3, 1e-3, 4e-6, 1e-9], [1.0, 0.0, 2e-2, 0.0, 3e-6, 1e-10], delay=2e-5),
        tf([0.0], [1.0, 1.0]),  # zero numerator
    )

    @pytest.mark.parametrize(
        "omega",
        [
            np.geomspace(1e-3, 1e5, 41),
            np.array([0.0, 1.0, 2.0]),
            -np.geomspace(0.1, 100.0, 7),
            np.geomspace(0.1, 1e4, 2 * _FRF_BLOCK + 3),  # several blocks
            np.geomspace(1.0, 10.0, 6).reshape(2, 3),
            np.array([]),
        ],
        ids=["grid", "with_zero", "negative", "blocks", "2d", "empty"],
    )
    def test_rows_of_different_degree_and_delay(self, omega):
        assert_rows_match_oracle(self.MIXED, omega)

    @pytest.mark.parametrize("omega", [0.0, 1.0, 3.7e3, np.float64(2.5)])
    def test_scalar_in_scalar_out(self, omega):
        rows = FrfStack(self.MIXED)(omega)
        assert rows.shape == (len(self.MIXED),)
        for g in self.MIXED:
            v = freq_response(g, omega)
            assert isinstance(v, np.complex128)
            assert np.asarray(v).tobytes() == np.asarray(polyval_frf(g, omega)).tobytes()
        assert_rows_match_oracle(self.MIXED, omega)

    def test_pole_hit_between_other_rows(self):
        # the delayed row has an imaginary-axis pole on the grid point 1.0:
        # that entry alone is inf + 0j, untouched by the delay phase
        hit = tf([1.0], [1.0, 0.0, 1.0], delay=1e-3)
        tfs = (self.MIXED[1], hit, self.MIXED[0])
        omega = np.array([0.5, 1.0, 2.0])
        assert_rows_match_oracle(tfs, omega)
        rows = FrfStack(tfs)(omega)
        assert rows[1, 1] == complex(np.inf, 0.0)
        assert np.all(np.isfinite(np.delete(rows, [4])))
        assert FrfStack((hit,))(1.0)[0] == complex(np.inf, 0.0)

    def test_guard_scale_is_den_magnitude_at_abs_omega(self):
        # next to the pole at 1e4 rad/s, |den(i w)| = 1.5e-4 lies under 1e-12
        # of |den|(|w|) = 2e8 but over 1e-12 of the largest coefficient 1e8
        g = tf([1.0], [1e8, 0.0, 1.0], delay=1e-4)
        omega = np.array([1e4 + 7.5e-9, 1e4 + 2e-8])
        assert_rows_match_oracle((self.MIXED[1], g), omega)
        v = FrfStack((g,))(omega)[0]
        assert v[0] == complex(np.inf, 0.0) and np.isfinite(v[1])

    @settings(max_examples=200, deadline=None)
    @given(
        polys=st.lists(
            st.tuples(
                st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1, max_size=9),
                st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1, max_size=9),
                st.sampled_from([0.0, 1.5e-4, 0.37]),
            ),
            min_size=1,
            max_size=5,
        ),
        omega=st.lists(st.floats(0.0, 1e5), min_size=1, max_size=20),
        scalar=st.booleans(),
    )
    def test_random_coefficients(self, polys, omega, scalar):
        tfs = []
        for num, den, delay in polys:
            if not any(den):
                den = den + [1.0]
            tfs.append(tf(num, den, delay))
        assert_rows_match_oracle(tfs, omega[0] if scalar else np.array(omega))


class TestPolesZeros:
    def test_inner_loop_pz(self):
        g = tf([1.0], [1.0, 0.0, 1.0])
        h = tf([-3.0, 1.0], [3.0, 1.0])
        pz = poles_zeros(tf_feedback(g, h))
        np.testing.assert_allclose(np.sort(pz.poles.real), [-2.0, -1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(pz.zeros, [-3.0], atol=1e-12)

    def test_allpass_controller_pz(self):
        wa = 5.0
        pz = poles_zeros(tf([-wa, 1.0], [wa, 1.0]))
        np.testing.assert_allclose(pz.poles, [-wa], atol=1e-12)
        np.testing.assert_allclose(pz.zeros, [wa], atol=1e-12)

    def test_static_gain_empty(self):
        pz = poles_zeros(RationalTF.gain(4.0))
        assert pz.poles.size == 0 and pz.zeros.size == 0
        assert pz.gain == pytest.approx(4.0)


class TestDcGain:
    def test_inner_loop_dc_law(self):
        # G/(1+G*C) at DC equals g/(1-gamma)
        g = tf([1.0], [1.0, 0.02, 1.0])
        h = tf([-3.0 * 0.5, 0.5], [3.0, 1.0])  # k = 0.5 -> gamma = 0.5
        assert dc_gain(tf_feedback(g, h)) == pytest.approx(2.0, rel=1e-12)

    def test_marginal_integrator_infinite(self):
        g = tf([1.0], [1.0, 0.02, 1.0])
        h = tf([-3.0, 1.0], [3.0, 1.0])  # gamma = 1
        assert np.isinf(dc_gain(tf_feedback(g, h)))

    def test_plain_plant(self):
        assert dc_gain(tf([2.5], [1.0, 0.02, 1.0])) == pytest.approx(2.5)

    def test_indeterminate_rejected(self):
        with pytest.raises(ValueError, match="indeterminate DC gain"):
            dc_gain(tf([0.0, 1.0], [0.0, 1.0]))


class TestPade:
    def test_tau_two(self):
        p = pade1(2.0)
        np.testing.assert_allclose(p.num.coeffs, [1.0, -1.0])
        np.testing.assert_allclose(p.den.coeffs, [1.0, 1.0])

    def test_unity_dc(self):
        for tau in (1e-6, 1e-3, 2.0):
            assert dc_gain(pade1(tau)) == pytest.approx(1.0)

    def test_phase_at_corner(self):
        tau = 1e-4
        wb = 2.0 / tau
        v = freq_response(pade1(tau), wb)
        assert np.degrees(np.angle(v)) == pytest.approx(-90.0, abs=1e-9)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            pade1(0.0)

    def test_fidelity_below_half_corner(self):
        # all-pass phase within 5 degrees of the true delay up to 0.5*wb
        tau = 3e-4
        wb = 2.0 / tau
        w = np.linspace(wb * 1e-3, 0.5 * wb, 400)
        approx = np.degrees(np.angle(freq_response(pade1(tau), w)))
        exact = np.degrees(-w * tau)
        assert np.max(np.abs(approx - exact)) < 5.0


def test_log_grid_density():
    w = log_grid(1.0, 1000.0, 400)
    assert w.size == 1201
    assert w[0] == pytest.approx(2 * np.pi)
    assert w[-1] == pytest.approx(2 * np.pi * 1000.0)
    assert np.all(np.diff(w) > 0)


def rowwise_csv(path, names, columns):
    """The row-at-a-time ``%`` writer, the reference write_csv must match."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(
            ",".join(["" if v is None else "%.12g" % v for v in row]) + "\n"
            for row in zip(*columns)
        )


def assert_matches_rowwise(tmp_path, columns):
    names = [f"c{j}" for j in range(len(columns))]
    write_csv(tmp_path / "new.csv", names, columns)
    rowwise_csv(tmp_path / "old.csv", names, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _exactness_cases():
    rng = np.random.default_rng(16)
    powers = np.array([float(f"1e{j}") for j in range(-30, 31)])
    ties = np.arange(10**11, 10**12, 450_000_001) + 0.5  # 13 digits ending in 5
    special = [999999999999.5, 0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308]
    special += [1.7976931348623157e308, 1e-5, 1e-4, 1e11, 1e12, 1e16, -123456789012.0, 0.1]
    return {
        "bits": list(rng.integers(0, 2**64 - 1, (4000, 5), dtype=np.uint64, endpoint=True).view(np.float64).T),
        "ties": list((ties[:, None] * powers).T),
        "pow10_ulp": [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers],
        "special": [np.array(special)],
        "ints_bools": [[1, -7, 2**53 + 1, 10**15, 10**20, 0], [True, False, True, True, False, False]],
    }


EXACTNESS_CASES = _exactness_cases()
BLOCK_ROWS = _CSV_BLOCK // 6  # rows per block of write_csv at six columns


class TestWriteCsv:
    @pytest.mark.parametrize(
        "nrows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 4095, 4096, 9001]
    )
    def test_bytes_match_rowwise_writer(self, tmp_path, nrows):
        rng = np.random.default_rng(nrows)
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-12, -1e-12, 1e6, 123456.789012345])
        every_fallback = np.resize([np.nan, -np.inf, 5e-324, 1e-300, -1e300, 999999999999.5], nrows)
        no_fallback = np.arange(1, nrows + 1) * 0.25
        assert not _scale(every_fallback)[0].any() and _scale(no_fallback)[0].all()
        columns = [
            np.resize(special, nrows),
            rng.normal(size=nrows) * 10.0 ** rng.integers(-12, 7, nrows),
            np.arange(nrows) * 30e-6,
            np.arange(nrows),
            every_fallback,
            no_fallback,
        ]
        assert_matches_rowwise(tmp_path, columns)

    @pytest.mark.parametrize("case", sorted(EXACTNESS_CASES))
    def test_exactness_cases_match_rowwise_writer(self, tmp_path, case):
        # random bit patterns, 13-digit ties scaled by 10**j, 10**j and its
        # neighbours, and the edges of %.12g and of the kernel's range
        assert_matches_rowwise(tmp_path, EXACTNESS_CASES[case])

    @pytest.mark.parametrize("log10_error", [-0.3, 0.3])
    def test_exact_whatever_log10_error(self, tmp_path, monkeypatch, log10_error):
        # the kernel's exponent comes from floor(log10|v|); a wrong exponent
        # must send the value to % rather than write wrong digits
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + log10_error)
        rng = np.random.default_rng(7)
        assert_matches_rowwise(tmp_path, [rng.normal(size=3000) * 10.0 ** rng.integers(-9, 30, 3000)])

    @settings(max_examples=300, deadline=None)
    @given(
        ncols=st.integers(1, 13),
        values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=120),
        as_lists=st.booleans(),
    )
    def test_any_floats_match_rowwise_writer(self, tmp_path_factory, ncols, values, as_lists):
        nrows = len(values) // ncols
        columns = list(np.array(values[: nrows * ncols], dtype=float).reshape(nrows, ncols).T)
        if as_lists:
            columns = [col.tolist() for col in columns]
        assert_matches_rowwise(tmp_path_factory.mktemp("csv"), columns)

    @pytest.mark.parametrize("with_none", [True, False])
    def test_list_columns_match_rowwise_writer(self, tmp_path, with_none):
        # sweep.csv: plain lists of floats and bools, None for a value the
        # grid does not reach
        from nrcdamp.lti import write_csv

        names = ("value", "wc_3db_hz", "dual_stable")
        columns = [[4.0, 8.0, 12.5], [901.25, None if with_none else 1e3, 2.5e-7], [True, False, True]]
        write_csv(tmp_path / "new.csv", names, columns)
        rowwise_csv(tmp_path / "old.csv", names, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
