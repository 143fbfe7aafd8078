from types import SimpleNamespace

import numpy as np
import pytest

from closed_forms import min_damping_n, nrc_gains
from nrcdamp import (
    ModeSpec,
    NrcSpec,
    PlantSpec,
    dc_gain,
    freq_response,
    nanopositioner_surrogate,
    nrc,
    poles_zeros,
    synthesize_nrc,
    tame_nrc,
)
from nrcdamp.sim import _controller_canonical


def single_mode(g=1.0, wn=1.0, zeta=0.01):
    return PlantSpec(gain=g, modes=(ModeSpec(wn, zeta),))


class TestSpecValidation:
    def test_gamma_range(self):
        with pytest.raises(ValueError, match=r"gamma must lie in \(0,1\]"):
            NrcSpec(gamma=1.2, n=3.0)
        with pytest.raises(ValueError, match=r"gamma must lie in \(0,1\]"):
            NrcSpec(gamma=0.0, n=3.0)

    def test_n_positive(self):
        with pytest.raises(ValueError):
            NrcSpec(gamma=0.5, n=0.0)


class TestSynthesis:
    def test_unit_plant(self):
        k, wa = nrc_gains(single_mode(), NrcSpec(gamma=1.0, n=3.0))
        assert k == pytest.approx(1.0) and wa == pytest.approx(3.0)
        c = synthesize_nrc(single_mode(), NrcSpec(gamma=1.0, n=3.0))
        np.testing.assert_allclose(c.num.coeffs, [-3.0, 1.0])
        np.testing.assert_allclose(c.den.coeffs, [3.0, 1.0])

    def test_two_mode_gain_law(self):
        spec = PlantSpec(
            gain=1.0, modes=(ModeSpec(1.0, 0.0), ModeSpec(2.0, 0.0, weight=0.5))
        )
        k, _ = nrc_gains(spec, NrcSpec(gamma=1.0, n=3.0))
        assert k == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_surrogate_recovers_reference_gain(self):
        k, _ = nrc_gains(nanopositioner_surrogate(), NrcSpec(gamma=1.0, n=8.0))
        assert k == pytest.approx(1.9095, abs=1e-4)
        # implied DC gain = gamma/k
        assert 1.0 / k == pytest.approx(0.5237, rel=1e-9)


def canonical_realization(k, wa):
    """The controller's continuous realization as ``discretize`` builds it,
    before the Tustin map: zdot = -w_a z + y, v = -2 w_a k z + k y."""
    tf = nrc(k, wa)
    a, b, c, d = _controller_canonical(tf.num.coeffs[::-1], tf.den.coeffs[::-1])
    return SimpleNamespace(a=a.item(), b=b.item(), c=c.item(), d=d.item())


class TestStateSpace:
    def test_reference_realization(self):
        ss = canonical_realization(1.0, 1.0)
        assert (ss.a, ss.b, ss.c, ss.d) == (-1.0, 1.0, -2.0, 1.0)

    def test_scaled_realization(self):
        ss = canonical_realization(0.5, 2.0)
        assert (ss.a, ss.b, ss.c, ss.d) == (-2.0, 1.0, -2.0, 0.5)

    def test_reconstruction_identity(self):
        # c*(s-a)^-1*b + d == (d*s + (c*b - d*a)) / (s - a), must equal the
        # rational controller exactly
        k, wa = 1.7, 4.2
        ss = canonical_realization(k, wa)
        num = np.array([ss.c * ss.b - ss.d * ss.a, ss.d])
        den = np.array([-ss.a, 1.0])
        ref = nrc(k, wa)
        np.testing.assert_allclose(num, ref.num.coeffs, rtol=1e-15)
        np.testing.assert_allclose(den, ref.den.coeffs, rtol=1e-15)

    def test_frf_matches_rational(self):
        rng = np.random.default_rng(21)
        w = np.logspace(-2, 4, 200)
        for _ in range(10):
            k = rng.uniform(0.1, 5.0)
            wa = rng.uniform(0.5, 100.0)
            ss = canonical_realization(k, wa)
            ss_frf = ss.c / (1j * w - ss.a) * ss.b + ss.d
            rat_frf = freq_response(nrc(k, wa), w)
            np.testing.assert_allclose(ss_frf, rat_frf, rtol=1e-12)


class TestConstantGainPhase:
    def test_flat_magnitude(self):
        k, wa = 2.0, 7.0
        w = np.logspace(-3, 3, 331) * wa
        mags = np.abs(freq_response(nrc(k, wa), w))
        np.testing.assert_allclose(mags, k, rtol=1e-12)

    def test_quarter_turn_at_corner(self):
        k, wa = 1.0, 5.0
        c = nrc(k, wa)
        at_wa = freq_response(c, wa)
        # exactly i*k: +90 principal, i.e. -90 relative to the DC value -k
        assert at_wa == pytest.approx(1j * k, abs=1e-14)
        rel = np.degrees(np.angle(at_wa / freq_response(c, 0.0)))
        assert rel == pytest.approx(-90.0, abs=1e-9)

    def test_phase_extremes(self):
        # -> +/-180 deg towards DC and 0 deg at high frequency; at the
        # 1e-3/1e3 grid extremes the residual is 2*atan(1e-3) = 0.115 deg
        k, wa = 1.0, 5.0
        c = nrc(k, wa)
        lo = np.degrees(np.angle(freq_response(c, 1e-3 * wa)))
        hi = np.degrees(np.angle(freq_response(c, 1e3 * wa)))
        assert abs(lo) == pytest.approx(180.0, abs=0.15)
        assert abs(hi) == pytest.approx(0.0, abs=0.15)

    def test_rhp_zero_lhp_pole(self):
        pz = poles_zeros(nrc(1.3, 9.0))
        assert pz.zeros.size == 1 and pz.zeros[0].real == pytest.approx(9.0)
        assert pz.poles.size == 1 and pz.poles[0].real == pytest.approx(-9.0)


class TestTaming:
    def test_strictly_proper(self):
        c = tame_nrc(2.0, 3.0, 30.0)
        assert c.num.degree < c.den.degree
        assert abs(freq_response(c, 1e6)) < 1e-4

    def test_large_l_matches_untamed_below_resonance(self):
        wn = 1.0
        k, wa = 1.0, 3.0
        tamed = tame_nrc(k, wa, 100.0 * wn)
        plain = nrc(k, wa)
        w = np.logspace(-3, 0, 200) * wn
        ratio = np.abs(freq_response(tamed, w)) / np.abs(freq_response(plain, w))
        assert np.all(np.abs(ratio - 1.0) < 0.01)

    def test_dc_value(self):
        k = 1.7
        c = tame_nrc(k, 3.0, 10.0)
        v = dc_gain(c)
        assert v == pytest.approx(-k, rel=1e-12)
        assert abs(v) == pytest.approx(k)

    def test_synthesize_with_taming(self):
        plant = single_mode()
        c = synthesize_nrc(plant, NrcSpec(gamma=1.0, n=3.0, taming_l=5.0))
        assert c.num.degree == 1 and c.den.degree == 2


class TestMinDampingN:
    def test_reference_values(self):
        assert min_damping_n(0.0) == pytest.approx(2.828427, abs=1e-6)
        assert min_damping_n(0.01) == pytest.approx(2.848427, abs=1e-6)
        assert min_damping_n(0.0, eta=0.5) == pytest.approx(1.414214, abs=1e-6)

    def test_monotone(self):
        zetas = np.linspace(0.0, 0.2, 9)
        vals = [min_damping_n(z) for z in zetas]
        assert np.all(np.diff(vals) > 0)
        etas = np.linspace(0.1, 1.0, 9)
        vals = [min_damping_n(0.05, eta=e) for e in etas]
        assert np.all(np.diff(vals) > 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            min_damping_n(-0.1)
        with pytest.raises(ValueError):
            min_damping_n(0.0, eta=1.5)
