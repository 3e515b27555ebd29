"""Material models, index branch, and the balance solver."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptbilayer import media, scattering
from ptbilayer.media import TRAD, Bilayer, LorentzMedium
from ptbilayer.observables import SqueezedCoherentInput
from ptbilayer.scattering import SingularTransfer


def lorentz(eps_b, alpha, omega0_trad, gamma_trad):
    return LorentzMedium(eps_b=eps_b, alpha=alpha,
                         omega0=omega0_trad * TRAD, gamma=gamma_trad * TRAD)


SET2_LOSS = lorentz(3.22, 2.0, 1200.0, 140.0)
SET1_LOSS = lorentz(2.0, 2.0, 1000.0, 67.0)
SET1_GAIN = lorentz(2.0, -2.0, 1000.0, 67.0)


class TestPermittivity:
    def test_set2_loss_value_oracle(self):
        # independent recomputation of eps_b - a*w0*g/(w^2 - w0^2 + i*w*g)
        w = 1580.0 * TRAD
        w0, g = 1200.0 * TRAD, 140.0 * TRAD
        expected = 3.22 - 2.0 * w0 * g / (w * w - w0 * w0 + 1j * w * g)
        got = media.permittivity(SET2_LOSS, w)
        assert got == pytest.approx(expected, rel=0, abs=1e-15)
        assert got.real == pytest.approx(2.9153, abs=5e-4)
        assert got.imag == pytest.approx(0.0638, abs=5e-4)

    def test_resonance_value(self):
        # at w = w0 the denominator collapses to i*w0*gamma
        for m in (SET1_LOSS, SET2_LOSS, lorentz(5.0, -17.0, 333.0, 21.0)):
            got = media.permittivity(m, m.omega0)
            assert got == pytest.approx(m.eps_b + 1j * m.alpha, rel=1e-15)

    @given(alpha=st.floats(-50, 50).filter(lambda a: abs(a) > 1e-12),
           w_rel=st.floats(0.05, 20.0))
    def test_imag_sign_follows_alpha(self, alpha, w_rel):
        m = lorentz(2.5, alpha, 900.0, 80.0)
        eps = media.permittivity(m, w_rel * m.omega0)
        assert math.copysign(1.0, eps.imag) == math.copysign(1.0, alpha)

    def test_libm_square_equals_python_square(self):
        # Python floats square through pow, which for about 1 input in 10^3
        # rounds differently from x * x (at 0.9827323782383632 on glibc)
        x = np.random.default_rng(5).uniform(0.5, 2.0, 20000)
        x[0] = 0.9827323782383632
        assert media.libm_square(x).tolist() == [v ** 2 for v in x.tolist()]
        assert media.libm_square(1.5) == 2.25

    def test_vectorized_matches_scalar(self):
        # the grid kernel's array permittivity against the scalar one
        ws = np.linspace(100, 3000, 17) * TRAD
        m = SET2_LOSS
        batch = media.lorentz_permittivity(m.eps_b, m.alpha, m.omega0, m.gamma, ws)
        singles = np.array([media.permittivity(m, w) for w in ws])
        np.testing.assert_allclose(batch, singles, rtol=0, atol=0)

    @settings(max_examples=300)
    @given(eps_b=st.floats(1.0, 5.0), w0=st.floats(300.0, 2000.0), gamma=st.floats(10.0, 300.0),
           alphas=st.lists(st.one_of(st.floats(-50.0, 50.0), st.sampled_from([0.0, -0.0])),
                           min_size=1, max_size=4),
           omegas=st.lists(st.floats(100.0, 3000.0), min_size=1, max_size=4),
           resonant=st.booleans())
    @example(eps_b=2.0, w0=1000.0, gamma=67.0, alphas=[-24.0, 0.0, 24.0], omegas=[1000.0],
             resonant=True)   # set1 at 1000 Trad/s, where w w - w0^2 is exactly 0
    def test_a_number_omega_gives_each_row_of_the_arrays_bits(self, eps_b, w0, gamma, alphas,
                                                              omegas, resonant):
        # a number omega takes Python's 1j w gamma and numpy's division; each
        # row of the array form must get the same bits, signed zeros included,
        # over omega, and over an array of amplitudes at one omega (set2's gain
        # is a number beside an array of loss amplitudes)
        def bits(z):
            return [(v.real.hex(), v.imag.hex()) for v in np.atleast_1d(z).tolist()]

        w0, gamma = w0 * TRAD, gamma * TRAD
        ws = [w0] * resonant + [w * TRAD for w in omegas]
        for alpha in alphas:
            rows = media.lorentz_permittivity(eps_b, alpha, w0, gamma, np.array(ws))
            assert bits(rows) == [bits(media.lorentz_permittivity(eps_b, alpha, w0, gamma, w))[0]
                                  for w in ws]
        for w in ws:
            rows = media.lorentz_permittivity(eps_b, np.array(alphas), w0, gamma,
                                              np.full(len(alphas), w))
            assert bits(media.lorentz_permittivity(eps_b, np.array(alphas), w0, gamma, w)) \
                == bits(rows) == [bits(media.lorentz_permittivity(eps_b, a, w0, gamma, w))[0]
                                  for a in alphas]

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            media.permittivity(SET1_LOSS, 0.0)
        with pytest.raises(ValueError):
            media.permittivity(SET1_LOSS, -1e12)

    def test_high_frequency_limit_is_background(self):
        eps = media.permittivity(SET2_LOSS, 1e6 * TRAD)
        assert eps.real == pytest.approx(3.22, rel=1e-6)
        assert abs(eps.imag) < 1e-6


class TestRefractiveIndex:
    def test_known_value(self):
        n = media.refractive_index(2 + 2j)
        assert n == pytest.approx(1.5537739740300374 + 0.6435942529055826j,
                                  rel=1e-15)

    @given(re=st.floats(-10, 10), im=st.floats(-10, 10))
    def test_round_trip_and_branch(self, re, im):
        eps = complex(re, im)
        if abs(eps) < 1e-12:
            return
        n = media.refractive_index(eps)
        assert n * n == pytest.approx(eps, rel=1e-12)
        assert n.real >= 0.0

    def test_vectorized_round_trip(self):
        # the grid kernel's array index, numpy's square root, equals
        # refractive_index bit for bit, on random values, purely imaginary
        # ones (where cmath.sqrt would differ in the last bit) and IEEE
        # special values; being the principal root, no index has a negative
        # real part, so neither form needs a sign flip
        rng = np.random.default_rng(7)
        uniform = rng.uniform(-5, 5, 64) + 1j * rng.uniform(-5, 5, 64)
        n = np.sqrt(uniform)
        np.testing.assert_allclose(n * n, uniform, rtol=1e-12)
        tiny = 5e-324
        parts = [0.0, -0.0, 1.0, -3.7, math.inf, -math.inf, math.nan, 1e308, -1e308,
                 tiny, -tiny, 2.2e-308 / 3]
        eps = np.array([complex(re, im) for re in parts for im in parts]
                       + [1j, -1j, -3.7j, 2.5j, -1e-300j])
        eps = np.concatenate([eps, rng.normal(size=2000) * 10.0 ** rng.integers(-300, 300, 2000)
                              + 1j * rng.normal(size=2000) * 10.0 ** rng.integers(-300, 300, 2000)])
        eps = np.concatenate([uniform, eps])
        with np.errstate(all="ignore"):
            batch = np.sqrt(eps)
            singles = np.array([media.refractive_index(e) for e in eps.tolist()])
        assert batch.view(np.uint64).tolist() == singles.view(np.uint64).tolist()
        assert not (batch.real < 0).any()

    def test_zero_is_an_index_at_which_the_chain_is_singular(self):
        # set1's gain permittivity is exactly 0 at this alpha_l and frequency
        assert media.refractive_index(0j) == 0
        bilayer = media.preset("set1", 29.85074626865672, 10e-9)
        assert scattering.layer_indices(bilayer, 1e-310)[0] == 0
        for mode in (scattering.MODE_FULL, scattering.MODE_PAPER):
            with pytest.raises(SingularTransfer):
                scattering.transfer_chain(bilayer, 1e-310, mode)


class TestBalance:
    def test_identical_resonators_balance_is_negation(self):
        # same (w0, gamma) on both sides: balanced gain is -alpha_l everywhere
        for w_rel in (0.3, 1.0, 2.7):
            got = media.pt_balanced_gain(SET1_LOSS, SET1_GAIN,
                                         w_rel * SET1_LOSS.omega0)
            assert got == pytest.approx(-2.0, rel=1e-14)

    @given(alpha_l=st.floats(0.01, 500.0))
    def test_balanced_gain_linear_in_loss(self, alpha_l):
        loss = lorentz(3.22, alpha_l, 1200.0, 140.0)
        w = 1500.0 * TRAD
        base = media.pt_balanced_gain(lorentz(3.22, 1.0, 1200.0, 140.0),
                                      SET1_GAIN, w)
        got = media.pt_balanced_gain(loss, SET1_GAIN, w)
        assert got == pytest.approx(alpha_l * base, rel=1e-12)

    def test_set2_gain_ratio(self):
        w = media.set2_operating_frequency()
        ratio = media.pt_balanced_gain(SET2_LOSS, SET1_GAIN, w) / (-2.0)
        assert ratio == pytest.approx(10.1732, abs=2e-4)

    def test_balance_cancels_imaginary_parts(self):
        w = 1700.0 * TRAD
        ag = media.pt_balanced_gain(SET2_LOSS, SET1_GAIN, w)
        gain = lorentz(2.0, ag, 1000.0, 67.0)
        el = media.permittivity(SET2_LOSS, w)
        eg = media.permittivity(gain, w)
        assert eg.imag == pytest.approx(-el.imag, rel=1e-12)


class TestPtFrequency:
    def test_set1_root_is_resonance_exactly(self):
        roots = media.pt_frequency(SET1_LOSS, SET1_GAIN)
        assert len(roots) == 1
        assert roots[0] == SET1_LOSS.omega0  # bit exact, closed form

    def test_equal_background_closed_form(self):
        # equal eps_b, different resonators: w^2 = (gg*w0l^2 + gl*w0g^2)/(gg+gl)
        loss = lorentz(2.0, 1.0, 1200.0, 140.0)
        gain = lorentz(2.0, -1.0, 1000.0, 67.0)
        gg, gl = gain.gamma, loss.gamma
        expected = math.sqrt((gg * loss.omega0 ** 2 + gl * gain.omega0 ** 2)
                             / (gg + gl))
        roots = media.pt_frequency(loss, gain)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(expected, rel=1e-14)
        assert expected / TRAD == pytest.approx(1068.8, abs=0.5)

    def test_set2_has_two_roots(self):
        roots = media.pt_frequency(SET2_LOSS, SET1_GAIN)
        assert len(roots) == 2
        assert roots[0] / SET1_GAIN.omega0 == pytest.approx(1.1068, abs=1e-4)
        assert roots[1] / SET1_GAIN.omega0 == pytest.approx(1.5768073, abs=1e-6)

    def test_roots_really_balance(self):
        for w in media.pt_frequency(SET2_LOSS, SET1_GAIN):
            # real-part mismatch after gain rebalancing vanishes at a root
            assert abs(media.pt_delta_epsilon(SET2_LOSS, SET1_GAIN, w)) < 1e-9
            ag = media.pt_balanced_gain(SET2_LOSS, SET1_GAIN, w)
            bil = Bilayer(gain=lorentz(2.0, ag, 1000.0, 67.0),
                          loss=SET2_LOSS)
            assert media.verify_pt(bil, w)

    def test_zero_loss_rejected(self):
        with pytest.raises(ValueError):
            media.pt_frequency(lorentz(3.22, 0.0, 1200.0, 140.0), SET1_GAIN)

    @pytest.mark.parametrize("loss,gain", [
        (SET2_LOSS, SET1_GAIN),
        (lorentz(3.22, 7.5, 1200.0, 140.0), lorentz(2.0, -1.0, 1000.0, 67.0)),
        (lorentz(1.3, 0.4, 700.0, 35.0), lorentz(4.1, -2.0, 1500.0, 260.0)),
    ])
    def test_array_scan_equals_pointwise_scan(self, loss, gain):
        # the scan is one array evaluation; a point-by-point scan with the
        # same bisection must give the same values and roots, bit for bit
        wmax = max(loss.omega0, gain.omega0)
        grid = np.logspace(math.log10(0.01 * wmax), math.log10(100 * wmax), 2048)
        vals = [media.pt_delta_epsilon(loss, gain, w) for w in grid]
        roots = []
        for i in range(len(grid) - 1):
            if (vals[i] < 0) == (vals[i + 1] < 0):
                continue
            lo, hi, flo = grid[i], grid[i + 1], vals[i]
            while hi - lo > 1e-12 * hi:
                mid = 0.5 * (lo + hi)
                fmid = media.pt_delta_epsilon(loss, gain, mid)
                if (fmid < 0) == (flo < 0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
        assert media._delta_epsilon(loss, gain, grid).tolist() == vals
        assert roots and media.pt_frequency(loss, gain) == sorted(roots)
        # closed-form oracle: with x = w^2 the mismatch vanishes where
        # d gg [(x - wl)^2 + gl^2 x] = al w0l gl [gg (x - wl) + gl (x - wg)]
        d, al = loss.eps_b - gain.eps_b, loss.alpha
        gl, gg = loss.gamma, gain.gamma
        wl, wg = loss.omega0 ** 2, gain.omega0 ** 2
        a = d * gg
        b = d * gg * (gl ** 2 - 2 * wl) - al * loss.omega0 * gl * (gg + gl)
        c = d * gg * wl ** 2 + al * loss.omega0 * gl * (gg * wl + gl * wg)
        q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4 * a * c), b))
        closed = sorted(math.sqrt(x) for x in (q / a, c / q) if x > 0)
        assert len(closed) == len(roots)
        for w, want in zip(sorted(roots), closed):
            assert w == pytest.approx(want, rel=1e-12)


class TestPresets:
    def test_set1_mirrors_alpha(self):
        for a in (0.1, 2.0, 147.0, 890.0):
            bil = media.preset("set1", a)
            assert bil.loss.alpha == a
            assert bil.gain.alpha == -a
            assert media.verify_pt(bil, 1000.0 * TRAD)

    def test_set2_gain_is_pinned(self):
        # the gain side stays at its balance value while loss is swept
        alphas = [media.preset("set2", a).gain.alpha
                  for a in (0.01, 2.0, 50.0, 1000.0)]
        assert len(set(alphas)) == 1
        assert alphas[0] == pytest.approx(-20.3464, abs=1e-3)

    def test_set2_balanced_only_at_design_loss(self):
        w = media.set2_operating_frequency()
        assert media.PT_TOL == 1e-9
        assert media.verify_pt(media.preset("set2", 2.0), w)
        off = media.preset("set2", 50.0)
        assert not media.verify_pt(off, w)
        # and far off: the mismatch exceeds 1e-3 of the permittivity scale
        el, eg = media.permittivity(off.loss, w), media.permittivity(off.gain, w)
        assert abs(el - np.conj(eg)) > 1e-3 * max(1.0, abs(el), abs(eg))

    def test_default_thickness(self):
        bil = media.preset("set1", 1.0)
        assert bil.layer_thickness == pytest.approx(10e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="unknown preset"):
            media.preset("set3", 1.0)
        for set_id in ("set1", "set2", "set3"):   # the amplitude is checked first
            with pytest.raises(ValueError, match="alpha_l must be nonnegative"):
                media.preset(set_id, -1.0)

    def test_default_omegas(self):
        assert media.preset_default_omega("set1") == 1000.0 * TRAD
        assert (media.preset_default_omega("set2")
                == media.set2_operating_frequency())


class TestValidation:
    def test_medium_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            lorentz(-1.0, 1.0, 1000.0, 67.0)
        with pytest.raises(ValueError):
            lorentz(2.0, 1.0, -5.0, 67.0)
        with pytest.raises(ValueError):
            lorentz(2.0, 1.0, 1000.0, 0.0)
        with pytest.raises(ValueError):
            lorentz(2.0, math.inf, 1000.0, 67.0)

    def test_bilayer_rejects_bad_thickness(self):
        with pytest.raises(ValueError):
            Bilayer(gain=SET1_GAIN, loss=SET1_LOSS, layer_thickness=0.0)

    @pytest.mark.parametrize("gain, loss", [("x", None), (SET1_GAIN, None), (None, SET1_LOSS),
                                            (SET1_GAIN, (2.0, 1.0, 1000.0, 67.0))],
                             ids=["neither", "no_loss", "no_gain", "loss_tuple"])
    def test_bilayer_rejects_a_layer_that_is_not_a_medium(self, gain, loss):
        # not later, as an AttributeError where the chain first reads the layer
        with pytest.raises(ValueError, match="LorentzMedium"):
            Bilayer(gain=gain, loss=loss)

    def test_coherent_weight_beyond_the_float_range_is_a_bad_value(self):
        # the observables compute with the weight as a float; an infinite one
        # is a float and is kept, and a nan is no nonnegative weight
        with pytest.raises(ValueError, match="beyond the float range"):
            SqueezedCoherentInput(coherent_weight=10 ** 400)
        with pytest.raises(ValueError, match="must be nonnegative"):
            SqueezedCoherentInput(coherent_weight=-10 ** 400)
        with pytest.raises(ValueError, match="must be nonnegative"):
            SqueezedCoherentInput(coherent_weight=math.nan)
        with pytest.raises(ValueError, match="must be nonnegative"):
            SqueezedCoherentInput(coherent_weight="25")
        assert SqueezedCoherentInput(coherent_weight=math.inf).coherent_weight == math.inf

    @pytest.mark.parametrize("valid, field, bad", [
        (SET1_LOSS, "eps_b", -1.0), (SET1_LOSS, "alpha", math.inf),
        (SET1_LOSS, "omega0", -5.0), (SET1_LOSS, "gamma", 0.0),
        (Bilayer(SET1_GAIN, SET1_LOSS), "layer_thickness", 0.0),
        (SqueezedCoherentInput(), "xi", -1.0), (SqueezedCoherentInput(), "phi_xi", math.inf),
        (SqueezedCoherentInput(), "coherent_weight", -1.0),
        (SqueezedCoherentInput(), "phi_rho", math.nan),
    ], ids=["eps_b", "alpha", "omega0", "gamma", "layer_thickness", "xi", "phi_xi",
            "coherent_weight", "phi_rho"])
    @pytest.mark.parametrize("value", ["2", None, 2j], ids=["str", "None", "complex"])
    def test_a_field_that_is_not_a_number_is_a_bad_value(self, valid, field, bad, value):
        # it raises the ValueError of the field's other bad values, with their
        # message, where comparing it raised TypeError
        with pytest.raises(ValueError) as want:
            dataclasses.replace(valid, **{field: bad})
        with pytest.raises(ValueError) as got:
            dataclasses.replace(valid, **{field: value})
        assert str(got.value) == str(want.value)
