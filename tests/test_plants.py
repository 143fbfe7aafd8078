from dataclasses import replace

import numpy as np
import pytest

from closed_forms import nrc_gains, two_mode_zero
from nrcdamp import (
    ModeSpec,
    PlantSpec,
    build_plant,
    dc_gain,
    freq_response,
    modal_state_space,
    nanopositioner_surrogate,
    NrcSpec,
    poles_zeros,
    scale_load,
)
from nrcdamp.cli import parse_config_dict

TWO_PI = 2.0 * np.pi


def single_mode(g=1.0, wn=1.0, zeta=0.01, **kw):
    return PlantSpec(gain=g, modes=(ModeSpec(wn, zeta),), **kw)


class TestBuildPlant:
    def test_single_mode_coefficients(self):
        g = build_plant(single_mode())
        np.testing.assert_allclose(g.num.coeffs, [1.0])
        np.testing.assert_allclose(g.den.coeffs, [1.0, 0.02, 1.0])

    def test_two_mode_dc(self):
        spec = PlantSpec(
            gain=1.0, modes=(ModeSpec(1.0, 0.0), ModeSpec(2.0, 0.0, weight=0.5))
        )
        assert dc_gain(build_plant(spec)) == pytest.approx(1.5, rel=1e-12)

    def test_amplifier_keeps_dc(self):
        spec = PlantSpec(
            gain=2.0,
            modes=(ModeSpec(1.0, 0.0), ModeSpec(2.0, 0.0, weight=0.5)),
            amp_corner_rad_s=10.0,
        )
        assert dc_gain(build_plant(spec)) == pytest.approx(3.0, rel=1e-12)

    def test_delay_carried(self):
        g = build_plant(single_mode(delay_s=1.5e-4))
        assert g.delay_s == pytest.approx(1.5e-4)

    def test_needs_modes(self):
        with pytest.raises(ValueError):
            PlantSpec(gain=1.0, modes=())

    def test_mode_order_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            PlantSpec(gain=1.0, modes=(ModeSpec(2.0, 0.0), ModeSpec(1.0, 0.0)))

    def test_undamped_poles_on_axis(self):
        wn = TWO_PI * 739.0
        pz = poles_zeros(build_plant(single_mode(wn=wn, zeta=0.0)))
        np.testing.assert_allclose(
            np.sort_complex(pz.poles), [-1j * wn, 1j * wn], atol=1e-10 * wn
        )

    def test_interlaced_zeros_between_modes(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            wn = rng.uniform(0.5, 5.0)
            alpha = rng.uniform(1.2, 4.0)
            beta = rng.uniform(0.05, 1.0)
            spec = PlantSpec(
                gain=1.0,
                modes=(ModeSpec(wn, 0.0), ModeSpec(alpha * wn, 0.0, weight=beta)),
            )
            pz = poles_zeros(build_plant(spec))
            mags = np.abs(pz.zeros)
            assert np.all(mags > wn) and np.all(mags < alpha * wn)

    def test_highband_rolloff(self):
        # >= 40 dB/decade past the modes, 60 with the amplifier section
        spec = PlantSpec(
            gain=1.0, modes=(ModeSpec(1.0, 0.01), ModeSpec(2.0, 0.01, weight=0.5))
        )
        for amp, min_slope in ((None, 40.0), (5.0, 60.0)):
            s = PlantSpec(
                gain=1.0, modes=spec.modes, amp_corner_rad_s=amp
            )
            g = build_plant(s)
            m1 = abs(freq_response(g, 1e3))
            m2 = abs(freq_response(g, 1e4))
            slope = 20.0 * np.log10(m1 / m2)
            assert slope > min_slope - 1e-3


class TestModalStateSpace:
    PLANTS = {
        "surrogate": nanopositioner_surrogate(),
        "undamped": PlantSpec(
            gain=2.0, modes=(ModeSpec(TWO_PI * 739.0, 0.0), ModeSpec(TWO_PI * 983.0, 0.0, 0.3))
        ),
        "amplifier": PlantSpec(
            gain=0.4,
            modes=(ModeSpec(TWO_PI * 739.0, 0.0), ModeSpec(TWO_PI * 1500.0, 0.05, 0.5)),
            amp_corner_rad_s=TWO_PI * 4000.0,
            delay_s=1e-4,
        ),
    }

    @pytest.mark.parametrize("name", PLANTS)
    def test_matches_build_plant(self, name):
        spec = self.PLANTS[name]
        a, b, c = modal_state_space(spec)
        w = TWO_PI * np.array([0.1, 10.0, 500.0, 739.5, 983.5, 4000.0, 1e5])
        got = [c @ np.linalg.solve(1j * wi * np.eye(b.size) - a, b) for wi in w]
        want = freq_response(replace(build_plant(spec), delay_s=0.0), w)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("name", ["surrogate", "undamped"])
    def test_modes_are_dissipative(self, name):
        # A + A^T <= 0, also at zeta = 0: no state norm can grow
        a, _, _ = modal_state_space(self.PLANTS[name])
        assert np.max(np.linalg.eigvalsh(a + a.T)) <= 1e-9 * np.max(np.abs(a))


class TestScaleLoad:
    def test_identity_at_one(self):
        spec = single_mode()
        assert scale_load(spec, 1.0) == spec

    def test_frequency_scaling(self):
        spec = single_mode(wn=TWO_PI * 739.0)
        loaded = scale_load(spec, 0.5)
        assert loaded.modes[0].omega_rad_s == pytest.approx(TWO_PI * 369.5)

    def test_dc_unchanged(self):
        spec = PlantSpec(
            gain=0.7, modes=(ModeSpec(1.0, 0.01), ModeSpec(2.4, 0.02, weight=0.4))
        )
        for eta in (0.9, 0.5, 0.25):
            assert dc_gain(build_plant(scale_load(spec, eta))) == pytest.approx(
                dc_gain(build_plant(spec)), rel=1e-12
            )

    def test_commutes_with_frf_scaling(self):
        # loaded plant at eta*w equals the unloaded plant at w (modal sums
        # scale rigidly in frequency)
        spec = PlantSpec(
            gain=1.3, modes=(ModeSpec(1.0, 0.02), ModeSpec(3.0, 0.01, weight=0.6))
        )
        eta = 0.6
        w = np.logspace(-2, 1, 200)
        base = freq_response(build_plant(spec), w)
        loaded = freq_response(build_plant(scale_load(spec, eta)), eta * w)
        np.testing.assert_allclose(loaded, base, rtol=1e-10)

    def test_range_check(self):
        for eta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                scale_load(single_mode(), eta)


class TestTwoModeZero:
    def test_reference_value(self):
        assert two_mode_zero(2.0, 1.0, 1.0) == pytest.approx(
            2.0 * np.sqrt(2.0 / 5.0), rel=1e-12
        )

    def test_small_beta_limit(self):
        assert two_mode_zero(2.0, 1e-9, 1.0) == pytest.approx(2.0, rel=1e-6)

    def test_large_beta_limit(self):
        assert two_mode_zero(2.0, 1e9, 1.0) == pytest.approx(1.0, rel=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            two_mode_zero(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            two_mode_zero(2.0, 0.0, 1.0)


class TestSurrogate:
    def test_dc_and_damping_gain(self):
        spec = nanopositioner_surrogate()
        assert dc_gain(build_plant(spec)) == pytest.approx(0.5237, rel=1e-9)
        k, wa = nrc_gains(spec, NrcSpec(gamma=1.0, n=8.0))
        assert k == pytest.approx(1.9095, abs=1e-4)
        assert wa == pytest.approx(8.0 * TWO_PI * 739.0, rel=1e-12)

    def test_is_the_config_file_plant(self, surrogate_raw):
        # an installed package ships no configs/, so the surrogate keeps a
        # copy in code; it must stay the plant of configs/surrogate.json
        assert nanopositioner_surrogate() == parse_config_dict(surrogate_raw).plant.to_spec()

    def test_delay_lag_near_40_degrees(self):
        spec = nanopositioner_surrogate()
        lag = np.degrees(spec.delay_s * spec.omega_n)
        assert lag == pytest.approx(40.0, abs=0.5)
