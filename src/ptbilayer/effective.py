"""Effective-medium description of the bilayer.

A Bloch dispersion relation over one gain/loss cell yields a single complex
effective index; the stack is then a homogeneous slab of thickness 2l with
textbook closed-form amplitudes, a round-trip amplitude eta, and an effective
noise flux built from an equal-weight mix of the two layers' dissipation.
The description is a long-wavelength theory: it holds while the cell is
optically thin and degrades as the stack approaches its lasing threshold.
"""

from __future__ import annotations

import cmath
import math

from .media import C_VACUUM
from .noise import thermal_occupation, unitarity_deficit
from .scattering import ScatteringAmplitudes


# The slab's bounds, stated once for the scalar functions and the grid kernel.
CELL_PHASE_MAX = math.pi / 2   # BranchAmbiguity above this |2 n_eff k l|
TIE_TOL = 1e-9          # |Re n_eff| this small (relative) is an evanescent tie
POLE_MIN = 1e-12        # LasingPole below this |den|
BALANCE_TOL = 1e-12     # |Im n_eff^2| below this (relative to the larger |Im eps|) is balance
DIFFERENCE_STEP = 1e-7  # the balance limit's central-difference step (same scale)


class BranchAmbiguity(Exception):
    """Cell phase too large for the principal Bloch branch."""


class LasingPole(Exception):
    """Effective slab is at (or numerically on top of) a lasing pole."""


def bloch_index(indices: tuple[complex, complex], omega: float,
                layer_thickness: float) -> complex:
    """Effective index at omega of the cell whose layer indices are (n_gain, n_loss)."""
    ng, nl = indices
    k = omega / C_VACUUM
    two_kl = 2 * k * layer_thickness
    if two_kl == 0:   # k l underflowed: the long-wavelength limit, sqrt of the mean permittivity
        return cmath.sqrt((ng * ng + nl * nl) / 2)
    if not math.isfinite(two_kl):   # k l overflowed: the cell phase is far above pi/2
        raise BranchAmbiguity(f"cell phase overflows (2 k l = {two_kl})")
    x = ng * k * layer_thickness
    y = nl * k * layer_thickness
    cos_xy = cmath.cos(x) * cmath.cos(y)
    if ng == 0 or nl == 0:   # the ratios below divide by zero; the kernel's phase is nan
        raise BranchAmbiguity("a layer index vanishes; the cell phase is undefined")
    rhs = cos_xy - 0.5 * (ng / nl + nl / ng) * cmath.sin(x) * cmath.sin(y)
    n = cmath.acos(rhs) / two_kl   # Re acos is in [0, pi], so Re n >= 0
    if abs(n.real) < TIE_TOL * abs(n) and min(ng.imag, nl.imag) < 0 and n.imag > 0:
        # evanescent tie: with gain present take the amplifying branch
        n = -n
    if not abs(2 * n * k * layer_thickness) <= CELL_PHASE_MAX:   # nan fails too
        raise BranchAmbiguity(
            f"cell phase {abs(2 * n * k * layer_thickness):.3f} exceeds pi/2; "
            "principal branch is not trustworthy")
    return n


def effective_amplitudes(n_eff: complex, omega: float,
                         layer_thickness: float) -> ScatteringAmplitudes:
    """Closed-form slab amplitudes for the effective medium.

    The slab spans [-l, l] (thickness 2 * layer_thickness) with vacuum phase
    references at its faces:

        den = (n+1)^2 - (n-1)^2 e^{4 i n k l}
        t   = 4 n e^{2 i (n - 1) k l} / den
        r   = (n^2 - 1)(e^{4 i n k l} - 1) e^{-2 i k l} / den

    identical to the left/right symmetric two-port of the exact chain with
    both layers set to n_eff. Raises LasingPole when |den| < POLE_MIN or den
    is not a number.
    """
    n = complex(n_eff)
    kl = (omega / C_VACUUM) * layer_thickness
    den = (n + 1) ** 2 - (n - 1) ** 2 * cmath.exp(4j * n * kl)
    if not abs(den) >= POLE_MIN:
        raise LasingPole(f"pole denominator modulus {abs(den):.3e}")
    t = 4 * n * cmath.exp(2j * (n - 1) * kl) / den
    r = (n * n - 1) * (cmath.exp(4j * n * kl) - 1) * cmath.exp(-2j * kl) / den
    return ScatteringAmplitudes(r_left=r, t=t, r_right=r)


def round_trip(n_eff: complex, omega: float, layer_thickness: float) -> complex:
    """One-round-trip amplitude eta = ((n-1)/(n+1))^2 e^{4 i n k l}.

    |eta| >= 1 with vanishing phase marks a lasing pole; |eta| < 1 is the
    linear regime. Note den = (n+1)^2 (1 - eta).
    """
    n = complex(n_eff)
    kl = (omega / C_VACUUM) * layer_thickness
    return ((n - 1) / (n + 1)) ** 2 * cmath.exp(4j * n * kl)


def effective_noise(n_eff: complex, s: ScatteringAmplitudes,
                    eps: tuple[complex, complex], omega: float,
                    layer_thickness: float, temperature: float = 0.0) -> dict:
    """Noise flux of the effective slab, {"s_left", "s_right", "occupation"}.

    s is effective_amplitudes(n_eff, omega, layer_thickness), as the caller
    built it, and eps is (eps_gain, eps_loss) at omega. The flux is the slab's
    unitarity deficit times the occupation S / (2 Im n_eff^2) - 1/2, with the
    pump strength S = (|Im eps_gain| + |Im eps_loss|) (2 N_th + 1) / 2 (equal
    layer weights). At balance (|Im n_eff^2| below BALANCE_TOL of the larger
    |Im eps|) deficit and Im n_eff^2 both vanish: the occupation is nan, and the
    flux's limit takes a central difference of the deficit with respect to
    Im n_eff^2, with the step DIFFERENCE_STEP on the same scale.
    """
    eg, el = eps
    nth = thermal_occupation(omega, temperature)
    pump = 0.5 * (abs(eg.imag) + abs(el.imag)) * (2.0 * nth + 1.0)
    im_eff = (n_eff * n_eff).imag
    deficit = unitarity_deficit(s)["right"]
    scale = max(abs(eg.imag), abs(el.imag), 1e-300)
    if abs(im_eff) < BALANCE_TOL * scale:
        h = DIFFERENCE_STEP * scale
        dplus, dminus = (unitarity_deficit(effective_amplitudes(cmath.sqrt(
            n_eff * n_eff + d), omega, layer_thickness))["right"] for d in (1j * h, -1j * h))
        slope = (dplus - dminus) / (2 * h)
        flux = pump * slope / 2.0 - 0.5 * deficit
        occupation = math.nan
    else:
        occupation = pump / (2.0 * im_eff) - 0.5
        flux = deficit * occupation
    # symmetric slab: both outputs see the same deficit, hence the same flux
    return {"s_left": float(flux), "s_right": float(flux),
            "occupation": float(occupation)}
