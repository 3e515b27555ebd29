"""Transfer chain, S-matrix, eigenvalue phases, conservation residuals."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptbilayer import grid, media, scattering
from ptbilayer.media import TRAD
from ptbilayer.scattering import (
    MODE_FULL,
    MODE_PAPER,
    InconsistentEigenvalues,
    ScatteringAmplitudes,
    SingularTransfer,
)

W1 = 1000.0 * TRAD
W2 = media.set2_operating_frequency()


def chain(set_id, alpha, mode=MODE_FULL):
    w = W1 if set_id == "set1" else W2
    return scattering.transfer_chain(media.preset(set_id, alpha), w, mode)


def smat(set_id, alpha, mode=MODE_FULL):
    return scattering.scattering_from_transfer(chain(set_id, alpha, mode))


class TestInterface:
    def test_vacuum_to_vacuum_is_identity(self):
        m = scattering.interface_matrix(1.0, 1.0, W1, 0.0)
        np.testing.assert_allclose(m, np.eye(2), atol=1e-15)

    def test_index_one_to_two_at_origin(self):
        # flux-normalized Fresnel blocks: sqrt(n1/n2)*(n2 +- n1)/(2 n1)
        m = scattering.interface_matrix(1.0, 2.0, W1, 0.0)
        pre = math.sqrt(0.5)
        np.testing.assert_allclose(
            m, pre * np.array([[1.5, 0.5], [0.5, 1.5]]), atol=1e-15)

    @given(n1re=st.floats(0.3, 4.0), n1im=st.floats(-1.5, 1.5),
           n2re=st.floats(0.3, 4.0), n2im=st.floats(-1.5, 1.5),
           z_nm=st.floats(-30.0, 30.0))
    def test_full_mode_interface_has_unit_determinant(self, n1re, n1im,
                                                      n2re, n2im, z_nm):
        m = scattering.interface_matrix(complex(n1re, n1im),
                                        complex(n2re, n2im),
                                        W1, z_nm * 1e-9, MODE_FULL)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)

    def test_real_index_hyperbolic_identity(self):
        # for real indices t11^2 - t12^2 = 1 at z = 0
        m = scattering.interface_matrix(1.3, 2.6, W1, 0.0)
        assert m[0, 0] ** 2 - m[0, 1] ** 2 == pytest.approx(1.0, abs=1e-12)


class TestChainAndSmatrix:
    @given(alpha=st.floats(0.01, 1000.0))
    def test_total_transfer_is_unimodular_full_mode(self, alpha):
        det = np.linalg.det(chain("set1", alpha).total)
        assert det == pytest.approx(1.0, abs=1e-9)

    def test_transmission_consistency_cross_check(self):
        # 1/A22 and det/A22 must agree; exercised across both presets
        for set_id, alpha in (("set1", 2.0), ("set1", 890.0), ("set2", 7.0)):
            s = smat(set_id, alpha)
            assert np.isfinite(s.t.real)

    def test_lossless_slab_is_unitary(self):
        # alpha = 0 on both layers: plain dielectric, T + R = 1 both sides
        bil = media.preset("set1", 0.0)
        s = scattering.scattering_amplitudes(bil, W1)
        assert s.T + s.R_left == pytest.approx(1.0, abs=1e-10)
        assert s.T + s.R_right == pytest.approx(1.0, abs=1e-10)

    def test_singular_transfer_raises(self):
        with pytest.raises(SingularTransfer):
            scattering.scattering_from_transfer(
                np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))

    def test_matrix_layout(self):
        s = smat("set1", 5.0)
        m = s.matrix()
        assert m[0, 0] == s.r_left and m[1, 1] == s.r_right
        assert m[0, 1] == s.t and m[1, 0] == s.t

    def test_partial_chains_compose(self):
        ch = chain("set1", 33.0)
        # from_loss is the last factor of from_gain, which ends the total
        assert ch.total.shape == ch.from_gain.shape == ch.from_loss.shape == (2, 2)

    def test_mode_aliases(self):
        assert scattering.canonical_mode("full-complex") == MODE_FULL
        assert scattering.canonical_mode("exact") == MODE_FULL
        assert scattering.canonical_mode("paper") == MODE_PAPER
        assert scattering.canonical_mode("paper-real-part") == MODE_PAPER
        with pytest.raises(ValueError):
            scattering.canonical_mode("approximate")

    def test_modes_agree_where_dispersion_is_mild(self):
        # second parameter set at its balance point: weakly dispersive
        s_full = smat("set2", 2.0, MODE_FULL)
        s_paper = smat("set2", 2.0, MODE_PAPER)
        for a, b in ((s_full.t, s_paper.t), (s_full.r_left, s_paper.r_left)):
            assert abs(a - b) < 2e-4


class TestEigenvalues:
    def test_sorted_by_modulus(self):
        lam = scattering.eigenvalues(chain("set1", 1000.0))
        assert abs(lam[0]) > 1.0 > abs(lam[1])
        assert abs(lam[0]) >= abs(lam[1])

    def test_product_is_unity_in_broken_phase(self):
        lam = scattering.eigenvalues(chain("set1", 950.0))
        assert abs(lam[0] * lam[1]) == pytest.approx(1.0, abs=1e-6)

    def test_closed_form_agreement(self):
        # eigenvalues of [[A12, A11],[A22, A21]]-style pencil via the trace
        ch = chain("set1", 123.0).total
        a11, a12 = ch[0, 0], ch[0, 1]
        a21, a22 = ch[1, 0], ch[1, 1]
        disc = cmath.sqrt((a12 - a21) ** 2 + 4 * a11 * a22)
        closed = {((a12 - a21) + disc) / (2 * a22),
                  ((a12 - a21) - disc) / (2 * a22)}
        lam = scattering.eigenvalues(ch)
        for value in lam:
            assert min(abs(value - c) for c in closed) < 1e-10

    def test_classify_synthetic_pairs(self):
        ex = (cmath.exp(0.3j), cmath.exp(-0.3j))
        assert scattering.classify_phase(ex) == "exact"
        br = (1.5 * cmath.exp(0.2j), cmath.exp(0.2j) / 1.5)
        assert scattering.classify_phase(br) == "broken"
        ep = (cmath.exp(0.1j), cmath.exp(0.1j))
        assert scattering.classify_phase(ep) == "exceptional"
        with pytest.raises(InconsistentEigenvalues):
            scattering.classify_phase((2.0 * cmath.exp(0.4j),
                                       3.0 * cmath.exp(0.4j)))


class TestConservation:
    def test_generalized_relation_above_unity(self):
        s = smat("set1", 50.0)  # T > 1 here
        assert s.T > 1.0
        res = scattering.conservation_residuals(s)
        assert res["generalized"] < 1e-12
        assert res["phase"] < 1e-12

    def test_generalized_relation_below_unity(self):
        s = smat("set1", 5.0)  # T < 1 here
        assert s.T < 1.0
        res = scattering.conservation_residuals(s)
        assert res["generalized"] < 1e-12
        assert res["phase"] < 1e-12

    def test_phase_none_when_reflection_vanishes(self):
        from ptbilayer.scattering import ScatteringAmplitudes
        s = ScatteringAmplitudes(r_left=0.0, t=1.0, r_right=0.0)
        assert scattering.conservation_residuals(s)["phase"] is None

    @given(alpha=st.floats(1.0, 1000.0))
    def test_generalized_relation_everywhere(self, alpha):
        res = scattering.conservation_residuals(smat("set1", alpha))
        assert res["generalized"] < 1e-8


def same(a, b):
    """Equal bit for bit, nan equal to nan."""
    return np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                          equal_nan=True)


class TestElementwiseRules:
    """The kernel calls phase_classes and conservation_parts on whole columns;
    each element must be what one scalar call gives."""

    TOL = scattering.PHASE_TOL
    NAN = complex(math.nan, math.nan)

    def pairs(self):
        up, down = math.nextafter(1 + self.TOL, 2), math.nextafter(1 + self.TOL, 0)
        edge = 1 / (1 - self.TOL)    # |1 - edge| = PHASE_TOL * edge
        return [
            (cmath.exp(0.3j), cmath.exp(-0.3j)),                    # exact
            (1.5 * cmath.exp(0.2j), cmath.exp(0.2j) / 1.5),          # broken
            (cmath.exp(0.1j), cmath.exp(0.1j)),                      # exceptional
            (2.0 * cmath.exp(0.4j), 3.0 * cmath.exp(0.4j)),          # inconsistent
            # ties at PHASE_TOL: the moduli's, the pair distance's and the product's
            (up * cmath.exp(0.5j), cmath.exp(-0.5j)), (down * cmath.exp(0.5j), cmath.exp(-0.5j)),
            (1.0 + 0j, complex(edge)), (1.0 + 0j, complex(math.nextafter(edge, 2))),
            (2.0 + 0j, complex(0.5 * up)), (2.0 + 0j, complex(0.5 * down)),
            (self.NAN, 1.0 + 0j), (complex(math.inf, 0.0), 0j), (0j, 0j),
        ]

    def test_phase_classes_over_an_array_match_each_pair(self):
        pairs = self.pairs()
        got = scattering.phase_classes(*map(np.array, zip(*pairs)))
        assert got.dtype == object
        assert set(got) == {"exact", "broken", "exceptional", "inconsistent"}
        for i, (l1, l2) in enumerate(pairs):
            assert got[i] == scattering.phase_classes(l1, l2).item()
            try:
                want = scattering.classify_phase((l1, l2))
            except InconsistentEigenvalues:
                want = "inconsistent"
            assert got[i] == want, (l1, l2)

    def test_conservation_parts_over_an_array_match_each_point(self):
        t_tie = math.sqrt(1 + 1e-14)
        rows = (smat("set1", 5.0), smat("set1", 50.0), smat("set1", 950.0)) + tuple(
            ScatteringAmplitudes(*row) for row in [
            (0.3j, 1.0 + 0j, 0.3j),                                  # T = 1
            (1e-15 + 0j, 0.9 + 0j, 0.4j), (0.4j, 1e-15j, 0.4j),      # an amplitude below 1e-14
            (0.1 + 0j, complex(t_tie), -0.1 + 0j),                   # |T - 1| at 1e-14
            (0.1 + 0j, complex(math.nextafter(t_tie, 2)), 0.1j),
            (self.NAN, self.NAN, self.NAN), (0.5 + 0j, self.NAN, 0.5 + 0j),
        ])
        s = grid.Amplitudes(*(np.array([getattr(r, name) for r in rows])
                              for name in ("r_left", "t", "r_right")))
        gen, phase = scattering.conservation_parts(s)
        assert np.isnan(phase).sum() >= 5
        for i, row in enumerate(rows):
            assert same([gen[i], phase[i]], scattering.conservation_parts(row))
            res = scattering.conservation_residuals(row)
            assert same(res["generalized"], gen[i])
            assert same(math.nan if res["phase"] is None else res["phase"], phase[i])
