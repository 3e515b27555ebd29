"""Physical invariants of the scalar library over random non-preset stacks.

The materials come from the strategy the grid-kernel tests use. Each bound
is the largest residual measured over about 3*10^4 uniform and
Hypothesis-targeted draws, times the margin stated next to it.
"""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from ptbilayer import media, noise, scattering
from ptbilayer.media import NM, TRAD, Bilayer
from ptbilayer.scattering import SingularTransfer
from test_grid import medium

# measured maxima: sum rule 4.2e-14, |det A - 1| relative to max(1, |A11 A22|)
# 1.5e-14, generalized conservation relative to max(1, T) 1.2e-10
SUM_RULE_BOUND = 1e-12        # 24x the measured maximum
DET_BOUND = 1e-12             # 65x
CONSERVATION_BOUND = 1e-9     # 8x

stacks = dict(gain=medium(st.floats(-5.0, 5.0)), loss=medium(st.just(1.0)),
              alpha_l=st.floats(0.0, 50.0), thickness=st.floats(5.0, 150.0),
              omega=st.floats(100.0, 3000.0))


def bilayer(gain, loss, alpha_l, thickness):
    return Bilayer(gain=gain, loss=replace(loss, alpha=alpha_l),
                   layer_thickness=thickness * NM)


@given(**stacks)
def test_sum_rule_closes_in_full_mode(gain, loss, alpha_l, thickness, omega):
    bil, w = bilayer(gain, loss, alpha_l, thickness), omega * TRAD
    chain = scattering.transfer_chain(bil, w, scattering.MODE_FULL)
    try:
        scattering.scattering_from_transfer(chain)
    except SingularTransfer:
        assume(False)
    assert noise.sum_rule_residual(bil, w) <= SUM_RULE_BOUND


@given(**stacks, mode=st.sampled_from([scattering.MODE_FULL, scattering.MODE_PAPER]))
def test_transfer_matrix_is_unimodular(gain, loss, alpha_l, thickness, omega, mode):
    a = scattering.transfer_chain(bilayer(gain, loss, alpha_l, thickness),
                                  omega * TRAD, mode).total
    scale = max(1.0, abs(a[0, 0] * a[1, 1]))
    assert abs(np.linalg.det(a) - 1.0) <= DET_BOUND * scale


@given(gain=medium(st.floats(-5.0, 5.0)), loss=medium(st.floats(0.01, 50.0)),
       thickness=st.floats(5.0, 150.0))
def test_generalized_conservation_on_balanced_pairs(gain, loss, thickness):
    # the gain is rebalanced at each balance frequency of the pair
    roots = media.pt_frequency(loss, gain)
    assume(roots)
    for w in roots:
        bil = Bilayer(gain=replace(gain, alpha=media.pt_balanced_gain(loss, gain, w)),
                      loss=loss, layer_thickness=thickness * NM)
        try:
            s = scattering.scattering_amplitudes(bil, w)
        except SingularTransfer:
            continue
        gen = scattering.conservation_residuals(s)["generalized"]
        assert gen <= CONSERVATION_BOUND * max(1.0, s.T)
        assert media.verify_pt(bil, w)
