"""Effective-medium description of the bilayer.

A Bloch dispersion relation over one gain/loss cell yields a single complex
effective index; the stack is then a homogeneous slab of thickness 2l with
textbook closed-form amplitudes, a round-trip amplitude eta, and an effective
noise flux built from an equal-weight mix of the two layers' dissipation.
The description is a long-wavelength theory: it holds while the cell is
optically thin and degrades as the stack approaches its lasing threshold.

Each slab formula is written once, on Python numbers, and raises where the
slab fails: bloch (the Bloch index), eta (the round trip), slab (the
amplitudes (r, t)) and slab_flux (the flux's parts that do not read N_th,
which slab_flux_of combines with N_th, elementwise). The public functions
call them for one point, and the grid kernel for each row of its stack.
"""

from __future__ import annotations

import cmath
import math

from .media import C_VACUUM
from .noise import thermal_occupation
from .scattering import ScatteringAmplitudes, _where


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


def bloch(ng, nl, k, l):
    """bloch_index of the layer indices ng and nl at the wavenumber k and layer thickness l."""
    two_kl = 2 * k * l
    if two_kl == 0:   # k l underflowed: the long-wavelength limit, sqrt of the mean permittivity
        return cmath.sqrt((ng * ng + nl * nl) / 2)
    if not abs(two_kl) < math.inf:   # k l overflowed
        raise BranchAmbiguity(f"cell phase overflows (2 k l = {two_kl})")
    x, y = ng * k * l, nl * k * l
    cos_xy = cmath.cos(x) * cmath.cos(y)
    if ng == 0 or nl == 0:   # the ratios below divide by zero
        raise BranchAmbiguity("a layer index vanishes; the cell phase is undefined")
    rhs = cos_xy - 0.5 * (ng / nl + nl / ng) * cmath.sin(x) * cmath.sin(y)
    n = cmath.acos(rhs) / two_kl   # Re acos is in [0, pi], so Re n >= 0
    # evanescent tie: with gain present take the amplifying branch
    if abs(n.real) < TIE_TOL * abs(n) and (ng.imag < 0 or nl.imag < 0) and n.imag > 0:
        n = -n
    phase = abs(2 * n * k * l)
    if not phase <= CELL_PHASE_MAX:
        raise BranchAmbiguity(
            f"cell phase {phase:.3f} exceeds pi/2; principal branch is not trustworthy")
    return n


def eta(n, kl):
    """round_trip of the slab of index n at k l = kl."""
    return ((n - 1) / (n + 1)) ** 2 * cmath.exp(4j * n * kl)


def slab(n, kl):
    """effective_amplitudes' (r, t) of the slab of index n at k l = kl."""
    plus, minus = (n + 1) ** 2, (n - 1) ** 2
    round_trip = cmath.exp(4j * n * kl)
    den = plus - minus * round_trip
    modulus = abs(den)
    if not modulus >= POLE_MIN:
        raise LasingPole(f"pole denominator modulus {modulus:.3e}")
    t = 4 * n * cmath.exp(2j * (n - 1) * kl) / den
    r = (n * n - 1) * (round_trip - 1) * cmath.exp(-2j * kl) / den
    return r, t


def _deficit(r, t):
    """noise.unitarity_deficit of the symmetric slab (r, t), 1 - T - R."""
    return 1.0 - abs(t) ** 2 - abs(r) ** 2


def slab_flux(n, r, t, eps, kl):
    """The parts of effective_noise's flux that do not read N_th, of the slab
    of index n and amplitudes (r, t) at k l = kl and the permittivities eps:
    (balance, the mean |Im eps|, the deficit, 2 Im n^2, slope). At balance
    2 Im n^2 is nan and slope is the central difference of the deficit,
    whose two slabs are taken only there; elsewhere slope is nan."""
    eg, el = abs(eps[0].imag), abs(eps[1].imag)
    mean, square, deficit = 0.5 * (eg + el), n * n, _deficit(r, t)
    scale = max(eg, el, 1e-300)
    if not abs(square.imag) < BALANCE_TOL * scale:
        return False, mean, deficit, 2.0 * square.imag, math.nan
    h = DIFFERENCE_STEP * scale
    dplus, dminus = (_deficit(*slab(cmath.sqrt(square + d * h), kl)) for d in (1j, -1j))
    return True, mean, deficit, math.nan, (dplus - dminus) / (2 * h)


def slab_flux_of(parts, nth):
    """effective_noise's (flux, occupation) from parts = slab_flux(...) and the
    thermal occupation nth: numbers, or arrays that broadcast against each
    other (a stack's rows against a grid's)."""
    balance, mean, deficit, twice_im, slope = parts
    pump = mean * (2.0 * nth + 1.0)
    occupation = _where(balance, math.nan, pump / twice_im - 0.5)
    return _where(balance, pump * slope / 2.0 - 0.5 * deficit, deficit * occupation), occupation


def bloch_index(indices: tuple[complex, complex], omega: float,
                layer_thickness: float) -> complex:
    """Effective index at omega of the cell whose layer indices are (n_gain, n_loss)."""
    ng, nl = indices
    return bloch(ng, nl, omega / C_VACUUM, layer_thickness)


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
    r, t = slab(complex(n_eff), (omega / C_VACUUM) * layer_thickness)
    return ScatteringAmplitudes(r_left=r, t=t, r_right=r)


def round_trip(n_eff: complex, omega: float, layer_thickness: float) -> complex:
    """One-round-trip amplitude eta = ((n-1)/(n+1))^2 e^{4 i n k l}.

    |eta| >= 1 with vanishing phase marks a lasing pole; |eta| < 1 is the
    linear regime. Note den = (n+1)^2 (1 - eta).
    """
    return eta(complex(n_eff), (omega / C_VACUUM) * layer_thickness)


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
    parts = slab_flux(n_eff, s.r_right, s.t, eps, (omega / C_VACUUM) * layer_thickness)
    flux, occupation = slab_flux_of(parts, thermal_occupation(omega, temperature))
    # symmetric slab: both outputs see the same deficit, hence the same flux
    return {"s_left": float(flux), "s_right": float(flux),
            "occupation": float(occupation)}
