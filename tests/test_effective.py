"""Bloch index of the fine-period stack and homogeneous-slab closed forms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptbilayer import effective, media, noise, scattering
from ptbilayer.effective import BranchAmbiguity, LasingPole
from ptbilayer.media import TRAD, Bilayer, LorentzMedium

W1 = 1000.0 * TRAD
W2 = media.set2_operating_frequency()
# layer indices as media.refractive_index gives them: Re n >= 0
INDICES = st.builds(complex, st.floats(0.0, 4.0), st.floats(-4.0, 4.0))


# the effective medium of a Bilayer, from its layer indices and permittivities at omega
def bloch_index(bil, omega):
    return effective.bloch_index(scattering.layer_indices(bil, omega), omega,
                                 bil.layer_thickness)


def effective_noise(bil, omega):
    eps = (media.permittivity(bil.gain, omega), media.permittivity(bil.loss, omega))
    n, l = bloch_index(bil, omega), bil.layer_thickness
    return effective.effective_noise(n, effective.effective_amplitudes(n, omega, l), eps, omega, l)


def uniform_bilayer(eps_b, alpha, w0_trad=1000.0, g_trad=67.0,
                    thickness=10e-9):
    m = LorentzMedium(eps_b=eps_b, alpha=alpha, omega0=w0_trad * TRAD,
                      gamma=g_trad * TRAD)
    return Bilayer(gain=m, loss=m, layer_thickness=thickness)


class TestBlochIndex:
    def test_homogeneous_stack_recovers_the_index(self):
        # both layers identical: the stack IS the medium
        for alpha in (-3.0, 0.0, 0.5, 5.0):
            bil = uniform_bilayer(2.5, alpha)
            n = media.refractive_index(media.permittivity(bil.gain, W1))
            n_eff = bloch_index(bil, W1)
            assert n_eff == pytest.approx(n, rel=1e-12)

    def test_long_wavelength_mixing(self):
        # kl << 1: n_eff^2 approaches the mean permittivity
        bil = media.preset("set1", 5.0)
        n_eff = bloch_index(bil, W1)
        eps_mean = 0.5 * (media.permittivity(bil.gain, W1)
                          + media.permittivity(bil.loss, W1))
        # residual is O((kl)^2) ~ 1e-3 from quartic dispersion terms
        assert n_eff ** 2 == pytest.approx(eps_mean, rel=5e-3)

    def test_underflowed_cell_phase_gives_the_long_wavelength_limit(self):
        # 2 k l underflows to 0 at a subnormal frequency: n_eff is the root of the
        # mean permittivity, which a small but representable frequency approaches
        bil = media.preset("set1", 5.0)
        w = 5e-324
        eps = (media.permittivity(bil.gain, w), media.permittivity(bil.loss, w))
        assert 2 * (w / media.C_VACUUM) * bil.layer_thickness == 0.0
        n_eff = bloch_index(bil, w)
        assert n_eff == cmath.sqrt((eps[0] + eps[1]) / 2)
        assert n_eff == pytest.approx(bloch_index(bil, 1.0 * TRAD), rel=1e-5)

    def test_overflowed_cell_phase_is_a_branch_ambiguity(self):
        # 2 k l overflows to inf, far above pi/2: a real index times it would
        # give a nan part (0 * inf), so no branch is trusted
        bil = media.preset("set1", 5.0)
        w, l = 1e6 * TRAD, 1e308 * media.NM
        assert 2 * (w / media.C_VACUUM) * l == math.inf
        with pytest.raises(BranchAmbiguity, match="overflows"):
            effective.bloch_index(scattering.layer_indices(bil, w), w, l)

    def test_amplifying_branch_beyond_coalescence(self):
        # deep in the broken regime the Bloch index turns imaginary;
        # the physical branch amplifies (gain present, so Im n_eff < 0
        # would be pure decay and the wrong sheet)
        n_eff = bloch_index(media.preset("set1", 950.0), W1)
        assert abs(n_eff.real) < 1e-9 * abs(n_eff)
        assert n_eff.imag < 0.0

    def test_thick_layers_are_rejected(self):
        bil = media.preset("set1", 500.0, layer_thickness=2000e-9)
        with pytest.raises(BranchAmbiguity):
            bloch_index(bil, W1)

    def test_balanced_point_yields_real_index(self):
        n_eff = bloch_index(media.preset("set1", 50.0), W1)
        assert abs(n_eff.imag) < 1e-12

    @given(ng=INDICES, nl=st.one_of(st.none(), INDICES), log_omega=st.floats(9.0, 17.0),
           log_l=st.floats(-10.0, -6.0))
    def test_the_index_is_on_the_principal_sheet_or_an_evanescent_tie(
            self, ng, nl, log_omega, log_l):
        # Re acos lies in [0, pi] and 2 k l > 0, so Re n_eff >= 0 with no sign
        # flip; only the evanescent tie, with gain present, takes the other
        # sheet. nl None is ng's balanced partner, whose broken phase has ties.
        indices = (ng, ng.conjugate() if nl is None else nl)
        try:
            n = effective.bloch_index(indices, 10.0 ** log_omega, 10.0 ** log_l)
        except (BranchAmbiguity, OverflowError):
            return
        tie = (abs(n.real) < effective.TIE_TOL * abs(n)
               and min(indices[0].imag, indices[1].imag) < 0 and n.imag < 0)
        assert n.real >= 0 or tie


class TestSlabClosedForms:
    @given(nre=st.floats(0.2, 3.5), nim=st.floats(-0.8, 0.8))
    def test_closed_form_matches_transfer_chain(self, nre, nim):
        # a uniform slab evaluated as two identical layers must reproduce
        # the textbook Fabry-Perot amplitudes
        n = complex(nre, nim)
        l = 10e-9
        s_closed = effective.effective_amplitudes(n, W1, l)
        total = np.eye(2, dtype=complex)
        for mat in (scattering.interface_matrix(1.0, n, W1, -l),
                    np.diag(scattering.propagation_factors(n, W1, l)),
                    np.diag(scattering.propagation_factors(n, W1, l)),
                    scattering.interface_matrix(n, 1.0, W1, l)):
            total = mat @ total
        s_chain = scattering.scattering_from_transfer(total)
        assert s_closed.t == pytest.approx(s_chain.t, rel=1e-10, abs=1e-12)
        assert s_closed.r_left == pytest.approx(s_chain.r_left, rel=1e-10,
                                                abs=1e-12)
        assert s_closed.r_right == pytest.approx(s_chain.r_right, rel=1e-10,
                                                 abs=1e-12)

    def test_homogeneous_pipeline_oracle(self):
        # uniform absorber and uniform amplifier: effective theory collapses
        # to exact theory identically
        for alpha in (5.0, -0.2):
            bil = uniform_bilayer(2.0, alpha)
            n_eff = bloch_index(bil, W1)
            s_eff = effective.effective_amplitudes(n_eff, W1,
                                                   bil.layer_thickness)
            s_exact = scattering.transfer_chain(bil, W1).s
            assert abs(s_eff.t - s_exact.t) < 1e-10
            assert abs(s_eff.r_left - s_exact.r_left) < 1e-10
            assert abs(s_eff.r_right - s_exact.r_right) < 1e-10

    def test_lasing_pole_raises(self):
        # scan a strongly amplifying slab for a root of the denominator,
        # then confirm the closed form refuses to evaluate there
        from scipy.optimize import fsolve

        def den(v):
            n = complex(v[0], v[1])
            d = ((n + 1) ** 2
                 - (n - 1) ** 2 * cmath.exp(4j * n * W1 * 10e-9
                                            / media.C_VACUUM))
            return [d.real, d.imag]

        root = fsolve(den, [0.05, -48.0], full_output=False)
        n_pole = complex(root[0], root[1])
        assert max(map(abs, den(root))) < 1e-9
        with pytest.raises(LasingPole):
            effective.effective_amplitudes(n_pole, W1, 10e-9)


class TestRoundTrip:
    def test_threshold_location(self):
        bil_lo = media.preset("set1", 100.0)
        bil_hi = media.preset("set1", 147.5)
        eta_lo = effective.round_trip(bloch_index(bil_lo, W1), W1,
                                      bil_lo.layer_thickness)
        eta_hi = effective.round_trip(bloch_index(bil_hi, W1), W1,
                                      bil_hi.layer_thickness)
        assert abs(eta_lo) < 1.0
        assert abs(eta_hi) >= 1.0

    def test_second_set_stays_below_unity(self):
        worst = 0.0
        for alpha in np.linspace(1.0, 1000.0, 120):
            bil = media.preset("set2", alpha)
            eta = effective.round_trip(bloch_index(bil, W2), W2,
                                       bil.layer_thickness)
            worst = max(worst, abs(eta))
        assert worst < 1.0


class TestEffectiveNoise:
    def test_symmetric_slab_fluxes_match(self):
        out = effective_noise(media.preset("set1", 30.0), W1)
        assert out["s_left"] == out["s_right"]

    def test_guarded_limit_is_continuous(self):
        # the balanced point sits on a 0/0 limit; the finite-difference
        # fallback has to join smoothly with the generic formula
        w = W2
        vals = []
        for alpha in (1.9, 1.99, 2.0, 2.01, 2.1):
            bil = media.preset("set2", alpha)
            vals.append(effective_noise(bil, w)["s_right"])
        spread = max(vals) - min(vals)
        assert spread < 0.05 * max(abs(v) for v in vals)

    def test_balanced_point_occupation_is_nan(self):
        out = effective_noise(media.preset("set1", 40.0), W1)
        assert np.isnan(out["occupation"])

    def test_detuned_occupation_is_finite(self):
        out = effective_noise(media.preset("set2", 40.0), W2)
        assert np.isfinite(out["occupation"])

    @pytest.mark.parametrize("preset, alpha_l, omega, temperature, flux, occupation", [
        ("set1", 24.0, 900.0 * TRAD, 0.0, "0x1.2b0665f2d6e61p-4", "0x1.b01f510c8c1e9p+8"),
        ("set1", 24.0, 900.0 * TRAD, 300.0, "0x1.2b0665f3f64a0p-4", "0x1.b01f510e2b6dcp+8"),
        ("set2", 40.0, W2, 0.0, "0x1.a9e86811082c6p-9", "0x1.b5e58da7b1590p-5"),
    ], ids=["set1-0K", "set1-300K", "set2-0K"])
    def test_off_balance_flux_keeps_its_rounding(self, preset, alpha_l, omega, temperature,
                                                 flux, occupation):
        # off balance the flux is the deficit times the occupation; the kernel
        # calls the same formula, so only stored bits hold its rounding (an
        # algebraically equal deficit * S / (2 Im n^2) - deficit / 2 moves them)
        bil = media.preset(preset, alpha_l)
        eps = (media.permittivity(bil.gain, omega), media.permittivity(bil.loss, omega))
        n, l = bloch_index(bil, omega), bil.layer_thickness
        out = effective.effective_noise(n, effective.effective_amplitudes(n, omega, l), eps,
                                        omega, l, temperature)
        assert (out["s_right"].hex(), out["occupation"].hex()) == (flux, occupation)

    def test_tracks_exact_flux_at_moderate_coupling(self):
        bil = media.preset("set1", 50.0)
        eff = effective_noise(bil, W1)["s_right"]
        exact = noise.noise_flux(bil, W1)["s_right"]
        assert eff == pytest.approx(exact, rel=0.05)
