"""Thermal occupation, commutator blocks, noise flux, and the sum rule."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ptbilayer import media, noise, scattering
from ptbilayer.media import HBAR, K_BOLTZMANN, NM, TRAD, Bilayer, LorentzMedium
from ptbilayer.scattering import MODE_FULL, MODE_PAPER, SingularTransfer
from test_grid import medium

W1 = 1000.0 * TRAD


class TestThermalOccupation:
    def test_zero_temperature_is_exactly_zero(self):
        assert noise.thermal_occupation(W1, 0.0) == 0.0

    def test_ln2_crossover(self):
        # hw/kT = ln 2 gives exactly one quantum
        theta = HBAR * W1 / (K_BOLTZMANN * math.log(2.0))
        assert noise.thermal_occupation(W1, theta) == pytest.approx(1.0,
                                                                    rel=1e-14)

    def test_room_temperature_values(self):
        assert noise.thermal_occupation(1000.0 * TRAD, 300.0) == pytest.approx(
            8.7e-12, abs=0.1e-12)
        assert noise.thermal_occupation(500.0 * TRAD, 300.0) == pytest.approx(
            2.96e-6, abs=0.02e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            noise.thermal_occupation(0.0, 300.0)
        with pytest.raises(ValueError):
            noise.thermal_occupation(W1, -1.0)

    @given(theta=st.floats(100.0, 2000.0), w_trad=st.floats(100.0, 3000.0))
    def test_monotone_in_temperature(self, theta, w_trad):
        w = w_trad * TRAD
        assert (noise.thermal_occupation(w, theta * 1.01)
                > noise.thermal_occupation(w, theta))

    def test_deep_quantum_tail_does_not_overflow(self):
        n = noise.thermal_occupation(3000.0 * TRAD, 1.0)
        assert 0.0 <= n < 1e-300

    def test_underflowed_ratio_gives_the_classical_limit(self):
        # hbar w / kT underflows to 0 here, and to a subnormal one step up;
        # the occupation's limit, inf, is the result of both
        assert HBAR * 1e-12 / (K_BOLTZMANN * 1e308) == 0.0
        assert noise.thermal_occupation(1e-12, 1e308) == math.inf
        assert 0.0 < HBAR * 1e-12 / (K_BOLTZMANN * 1e300) < 2.3e-308
        assert noise.thermal_occupation(1e-12, 1e300) == math.inf

    @pytest.mark.parametrize("theta", [5e-324, 1e-310])
    def test_underflowed_thermal_energy_gives_the_zero_temperature_limit(self, theta):
        # k_B T underflows to 0, so hbar w / kT is +inf and the occupation is 0
        assert K_BOLTZMANN * theta == 0.0
        assert noise.thermal_occupation(W1, theta) == 0.0


class TestCommutatorBlocks:
    def test_same_side_value(self):
        # 2 e^{-u} sinh u with u = n'' w l / c for the set1 loss layer; the
        # paper_real_part scale is 1, so the entry is the bare coefficient
        bil = media.preset("set1", 50.0)
        nl = scattering.layer_indices(bil, W1)[1]
        u = nl.imag * W1 * bil.layer_thickness / media.C_VACUUM
        same_side = noise.layer_commutator(nl, W1, bil.layer_thickness,
                                           layer=2, mode=MODE_PAPER)[0, 0]
        assert same_side == pytest.approx(2 * math.exp(-u) * math.sinh(u),
                                          rel=1e-12)
        assert same_side == pytest.approx(1.0 - math.exp(-2 * u), rel=1e-12)

    def test_cross_terms_conjugate_between_layers(self):
        bil = media.preset("set1", 50.0)
        nl = scattering.layer_indices(bil, W1)[1]
        q2 = noise.layer_commutator(nl, W1, bil.layer_thickness, layer=2,
                                    mode=MODE_PAPER)[0, 1]
        q3 = noise.layer_commutator(nl, W1, bil.layer_thickness, layer=3,
                                    mode=MODE_PAPER)[0, 1]
        assert q3 == pytest.approx(q2.conjugate(), rel=1e-12)

    def test_commutator_matrix_is_hermitian(self):
        bil = media.preset("set2", 7.0)
        w = media.set2_operating_frequency()
        for layer, n in zip((2, 3), scattering.layer_indices(bil, w)):
            k = noise.layer_commutator(n, w, bil.layer_thickness, layer)
            np.testing.assert_allclose(k, k.conj().T, atol=1e-14)

    @pytest.mark.parametrize("layer", [2, 3])
    def test_overflowing_index_ratio_takes_the_evanescent_limit(self, layer):
        # a subnormal real part overflows n''/n' to inf; the coupling is the
        # n' = 0 limit -2 n'' k l, not inf * sin(n' k l)
        n, l = complex(2e-312, -1.16), 1e-6
        assert np.all(np.isfinite(noise.layer_commutator(n, W1, l, layer)))
        q = noise.layer_commutator(n, W1, l, layer, MODE_PAPER)[0, 1]
        limit = noise.layer_commutator(complex(0.0, n.imag), W1, l, layer, MODE_PAPER)[0, 1]
        assert q == pytest.approx(limit, rel=1e-12) and abs(limit) > 1.0

    def test_invalid_layer_rejected(self):
        with pytest.raises(ValueError):
            noise.layer_commutator(1.5 + 0.1j, W1, 10e-9, layer=1)

    @pytest.mark.parametrize("n", [0j, np.complex128(0)], ids=["complex", "complex128"])
    @pytest.mark.parametrize("mode", [MODE_FULL, MODE_PAPER])
    def test_zero_index_rejected(self, n, mode):
        # K divides by n' and |n|; a chain refuses a zero index first, and a
        # library caller gets the refusal from the commutator itself
        with pytest.raises(ValueError, match=r"^layer index n = 0j must be nonzero$"):
            noise.layer_commutator(n, W1, 10e-9, 2, mode)


class TestSumRule:
    def test_random_configurations(self):
        # the full-mode factorization must close the unitarity deficit
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(10_000):
            gain = LorentzMedium(eps_b=rng.uniform(0.5, 5.0),
                                 alpha=-rng.uniform(0.01, 5.0),
                                 omega0=rng.uniform(300, 2000) * TRAD,
                                 gamma=rng.uniform(10, 300) * TRAD)
            loss = LorentzMedium(eps_b=rng.uniform(0.5, 5.0),
                                 alpha=rng.uniform(0.01, 5.0),
                                 omega0=rng.uniform(300, 2000) * TRAD,
                                 gamma=rng.uniform(10, 300) * TRAD)
            bil = Bilayer(gain=gain, loss=loss)
            w = rng.uniform(100, 3000) * TRAD
            worst = max(worst, noise.sum_rule_residual(bil, w))
        assert worst < 1e-10

    def test_paper_mode_is_only_approximate(self):
        bil = media.preset("set1", 50.0)
        full = noise.sum_rule_residual(bil, W1, MODE_FULL)
        paper = noise.sum_rule_residual(bil, W1, MODE_PAPER)
        assert full < 1e-12
        assert paper > 1e-4  # real-part kinematics do not close exactly

    def test_check_flag_raises_on_breach(self, monkeypatch):
        bil = media.preset("set1", 5.0)
        chain = scattering.transfer_chain(bil, W1)
        terms = noise.layer_terms(chain)
        monkeypatch.setattr(noise, "sum_rule_residuals", lambda *a: 1.0)
        with pytest.raises(noise.SumRuleViolation):
            noise.enforce_sum_rule(terms, scattering.scattering_from_transfer(chain).matrix())

    @pytest.mark.parametrize("alpha", [0.0, 5.0, 24.0, 900.0])
    def test_checked_flux_builds_the_layer_terms_once(self, alpha, monkeypatch):
        # the check and the flux share one list of (n, D, K): a checked flux
        # builds each layer's commutator once, and its flux and residual are
        # the stand-alone flux and residual bit for bit
        bil = media.preset("set1", alpha)
        standalone = noise.sum_rule_residual(bil, W1), noise.noise_flux(bil, W1)
        commutator, calls = noise.layer_commutator, []
        monkeypatch.setattr(noise, "layer_commutator",
                            lambda *a, **k: calls.append(a) or commutator(*a, **k))
        chain = scattering.transfer_chain(bil, W1)
        terms = noise.layer_terms(chain)
        s = scattering.scattering_from_transfer(chain).matrix()
        noise.enforce_sum_rule(terms, s)
        checked = float(noise.sum_rule_residuals(terms, s)), noise.noise_flux(bil, W1, terms=terms)
        assert len(calls) == 2
        assert checked == standalone

    def test_paper_chain_gives_paper_commutators(self):
        # layer_terms reads the mode off the chain: paper-mode K has scale 1
        bil = media.preset("set1", 24.0)
        l = bil.layer_thickness
        terms = noise.layer_terms(scattering.transfer_chain(bil, W1, "paper"))
        for (n, _, k), layer in zip(terms, (2, 3)):
            paper = noise.layer_commutator(n, W1, l, layer, MODE_PAPER)
            assert k.tobytes() == paper.tobytes()
            assert not np.array_equal(k, noise.layer_commutator(n, W1, l, layer, MODE_FULL))


class TestNoiseFlux:
    def test_lossless_slab_has_no_noise(self):
        bil = media.preset("set1", 0.0)
        fx = noise.noise_flux(bil, W1)
        assert fx["s_left"] == 0.0
        assert fx["s_right"] == 0.0
        s = scattering.transfer_chain(bil, W1).s
        deficit = noise.unitarity_deficit(s)
        assert abs(deficit["left"]) < 1e-10
        assert abs(deficit["right"]) < 1e-10

    def test_pure_amplifier_matches_deficit(self):
        # loss layer switched off: at zero temperature the right-going noise
        # equals the unitarity deficit T + R_R - 1 of the gain slab
        gain = LorentzMedium(eps_b=2.0, alpha=-5.0, omega0=1000 * TRAD,
                             gamma=67 * TRAD)
        passive = LorentzMedium(eps_b=2.0, alpha=1e-300, omega0=1000 * TRAD,
                                gamma=67 * TRAD)
        bil = Bilayer(gain=gain, loss=passive)
        s = scattering.transfer_chain(bil, W1).s
        fx = noise.noise_flux(bil, W1)
        assert fx["s_right"] == pytest.approx(s.T + s.R_right - 1.0, abs=1e-12)

    @given(alpha=st.floats(0.5, 1000.0))
    def test_flux_never_negative(self, alpha):
        fx = noise.noise_flux(media.preset("set1", alpha), W1)
        assert fx["s_right"] > -1e-12
        assert fx["s_left"] > -1e-12

    def test_monotone_in_weak_coupling_window(self):
        grid = np.linspace(1.0, 100.0, 200)
        vals = [noise.noise_flux(media.preset("set1", a), W1)["s_right"]
                for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_thermal_contribution_vanishes_at_high_frequency(self):
        bil = media.preset("set1", 50.0)
        cold = noise.noise_flux(bil, W1, temperature=0.0)
        warm = noise.noise_flux(bil, W1, temperature=300.0)
        assert abs(warm["s_right"] - cold["s_right"]) < 1e-9
        assert abs(warm["s_left"] - cold["s_left"]) < 1e-9

    @given(gain=medium(st.floats(-5.0, 5.0)), loss=medium(st.just(1.0)),
           alpha_l=st.floats(0.0, 50.0), thickness=st.floats(5.0, 150.0),
           omega=st.floats(100.0, 3000.0), mode=st.sampled_from([MODE_FULL, MODE_PAPER]),
           temperature=st.sampled_from([0.0, 300.0]))
    def test_fluxes_round_as_the_per_row_loop(self, gain, loss, alpha_l, thickness,
                                              omega, mode, temperature):
        # the contraction's rounding is part of the tables: fluxes must equal,
        # bit for bit, flux_0 + N_th E built by this per-layer, per-row loop
        # (the diagonal of the full product D K D^dagger rounds differently)
        bil = Bilayer(gain=gain, loss=replace(loss, alpha=alpha_l),
                      layer_thickness=thickness * NM)
        w = omega * TRAD
        try:
            chain = scattering.transfer_chain(bil, w, mode)
            chain.s
        except SingularTransfer:
            assume(False)
        terms = noise.layer_terms(chain)
        nth = noise.thermal_occupation(w, temperature)
        flux0, e = np.zeros(2), np.zeros(2)
        for n, d, k in terms:
            for row in range(2):
                q = float(np.real(d[row] @ k @ d[row].conj()))
                flux0[row] += 0.0 if n.imag >= 0 else -q
                e[row] += q if n.imag >= 0 else -q
        want = flux0 + nth * e
        parts = noise.flux_parts(terms)
        assert np.array(parts).tobytes() == np.array([flux0, e]).tobytes()
        assert np.array(noise.fluxes(parts, nth)).tobytes() == want.tobytes()
