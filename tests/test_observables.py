"""Homodyne variance and Mandel Q for the squeezed coherent input."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptbilayer import media, noise, observables, scattering
from ptbilayer.media import TRAD
from ptbilayer.observables import DegenerateDenominator, SqueezedCoherentInput

W1 = 1000.0 * TRAD
XI, PHI_XI, WEIGHT = 0.2, 5.0, 25.0


def channel(alpha):
    bil = media.preset("set1", alpha)
    s = scattering.transfer_chain(bil, W1).s
    fx = noise.noise_flux(bil, W1)
    return s, fx["s_right"]


class TestInputReference:
    def test_default_identity_values(self):
        # independent recomputation with the default squeezed coherent state
        ref = observables.input_reference()
        sh2 = math.sinh(XI) ** 2
        s2x = math.sinh(2 * XI)
        v_in = 1.0 + 2.0 * sh2 - math.cos(PHI_XI) * s2x
        assert ref["variance_in"] == pytest.approx(v_in, rel=1e-12)
        assert ref["variance_in"] == pytest.approx(0.964557, abs=1e-6)

        ch2 = math.cosh(XI) ** 2
        nbar = sh2 + WEIGHT
        num = sh2 * ch2 + sh2 * sh2 + WEIGHT * (2 * sh2 - s2x)
        assert ref["q_in"] == pytest.approx(num / nbar, rel=1e-12)
        assert ref["q_in"] == pytest.approx(-0.327396, abs=1e-6)

    def test_coherent_limit(self):
        inp = SqueezedCoherentInput(xi=0.0, phi_xi=0.0, coherent_weight=9.0,
                                    phi_rho=0.0)
        ref = observables.input_reference(inp)
        assert ref["variance_in"] == 1.0
        assert ref["q_in"] == 0.0


class TestVariance:
    def test_identity_channel(self):
        ref = observables.input_reference()
        v = observables.homodyne_variance(1.0 + 0j, 0.0)
        assert v == pytest.approx(ref["variance_in"], rel=1e-12)

    def test_mirror_gives_shot_noise_plus_flux(self):
        # T = 0 blocks the input; only the added noise remains
        v = observables.homodyne_variance(0.0 + 0j, 0.7)
        assert v == pytest.approx(1.0 + 2 * 0.7, rel=1e-12)

    def test_flux_shifts_variance_linearly(self):
        s, fx = channel(24.0)
        v0 = observables.homodyne_variance(s, fx)
        v1 = observables.homodyne_variance(s, fx + 0.25)
        assert v1 - v0 == pytest.approx(0.5, rel=1e-12)

    @given(phi=st.floats(-10.0, 10.0))
    def test_periodicity(self, phi):
        s, fx = channel(24.0)
        inp = SqueezedCoherentInput(xi=XI, phi_xi=phi, coherent_weight=WEIGHT,
                                    phi_rho=0.0)
        inp2 = SqueezedCoherentInput(xi=XI, phi_xi=phi + 2 * math.pi,
                                     coherent_weight=WEIGHT, phi_rho=0.0)
        a = observables.homodyne_variance(s, fx, inp)
        b = observables.homodyne_variance(s, fx, inp2)
        assert a == pytest.approx(b, abs=1e-12)

    @given(phi_lo=st.floats(-6.0, 6.0))
    def test_local_oscillator_half_period(self, phi_lo):
        s, fx = channel(24.0)
        a = observables.homodyne_variance(s, fx, phi_lo=phi_lo)
        b = observables.homodyne_variance(s, fx, phi_lo=phi_lo + math.pi)
        assert a == pytest.approx(b, abs=1e-12)

    def test_quadrature_extremes_bracket_shot_noise(self):
        # squeezing below, antisqueezing above, for a transparent channel
        inp = SqueezedCoherentInput(xi=XI, phi_xi=PHI_XI, coherent_weight=0.0,
                                    phi_rho=0.0)
        lo_min = PHI_XI / 2              # cos term +1
        lo_max = (PHI_XI - math.pi) / 2  # cos term -1
        v_min = observables.homodyne_variance(1.0 + 0j, 0.0, inp, lo_min)
        v_max = observables.homodyne_variance(1.0 + 0j, 0.0, inp, lo_max)
        assert v_min == pytest.approx(math.exp(-2 * XI), rel=1e-12)
        assert v_max == pytest.approx(math.exp(2 * XI), rel=1e-12)
        for k in range(32):
            v = observables.homodyne_variance(1.0 + 0j, 0.0, inp, k * math.pi / 32)
            assert v_min - 1e-12 <= v <= v_max + 1e-12


class TestMandelQ:
    def test_identity_channel(self):
        ref = observables.input_reference()
        q = observables.mandel_q(1.0 + 0j, 0.0)
        assert q == pytest.approx(ref["q_in"], rel=1e-12)

    def test_beamsplitter_scaling(self):
        # a lossless attenuator scales Q by its transmission, exactly
        ref = observables.input_reference()
        for t in (0.9, 0.5, 0.1):
            q = observables.mandel_q(complex(math.sqrt(t)), 0.0)
            assert q == pytest.approx(t * ref["q_in"], rel=1e-12)

    def test_coherent_input_stays_poissonian(self):
        inp = SqueezedCoherentInput(xi=0.0, phi_xi=0.0, coherent_weight=4.0,
                                    phi_rho=0.0)
        q = observables.mandel_q(0.8 + 0.1j, 0.0, inp)
        assert q == pytest.approx(0.0, abs=1e-15)

    def test_added_flux_drives_q_positive(self):
        s, fx = channel(100.0)
        assert observables.mandel_q(s, fx) > 0.0

    def test_degenerate_denominator(self):
        inp = SqueezedCoherentInput(xi=0.0, phi_xi=0.0, coherent_weight=0.0,
                                    phi_rho=0.0)
        with pytest.raises(DegenerateDenominator):
            observables.mandel_q(0.5 + 0j, 0.0, inp)

    @given(phi_rho=st.floats(-5.0, 5.0))
    def test_pump_phase_half_period(self, phi_rho):
        s, fx = channel(24.0)
        a = observables.mandel_q(s, fx, SqueezedCoherentInput(
            xi=XI, phi_xi=PHI_XI, coherent_weight=WEIGHT, phi_rho=phi_rho))
        b = observables.mandel_q(s, fx, SqueezedCoherentInput(
            xi=XI, phi_xi=PHI_XI, coherent_weight=WEIGHT,
            phi_rho=phi_rho + math.pi))
        assert a == pytest.approx(b, abs=1e-12)
