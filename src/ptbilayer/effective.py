"""Effective-medium description of the bilayer.

A Bloch dispersion relation over one gain/loss cell yields a single complex
effective index; the stack is then a homogeneous slab of thickness 2l with
textbook closed-form amplitudes, a round-trip amplitude eta, and an effective
noise flux built from an equal-weight mix of the two layers' dissipation.
The description is a long-wavelength theory: it holds while the cell is
optically thin and degrades as the stack approaches its lasing threshold.

Each slab formula (bloch, eta, slab, slab_flux) is written once and takes
an evaluation context `on`: SCALAR, on Python numbers and their arithmetic,
or grid.Rows on the kernel's arrays. on.exp, cos, sin, acos and sqrt are
cmath's; on.max is max; on.value(x) is a real x as a complex operand;
on.where(cond, then, otherwise) takes then() where cond holds, else
otherwise(); on.require(ok, error, message, *args) stops where ok does not
hold (nor does a nan comparison), and SCALAR raises there; on.amplitudes(r,
t) is the slab's (r, t, r) and on.deficit(s) its unitarity deficit. The
public functions are the formulas on SCALAR.
"""

from __future__ import annotations

import cmath
import math
from types import SimpleNamespace

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


def _require(ok, error: type, message: str, *args) -> None:
    if not ok:
        raise error(message.format(*args))


SCALAR = SimpleNamespace(
    exp=cmath.exp, cos=cmath.cos, sin=cmath.sin, acos=cmath.acos, sqrt=cmath.sqrt, max=max,
    value=lambda x: x, where=lambda cond, then, otherwise: then() if cond else otherwise(),
    require=_require, amplitudes=lambda r, t: ScatteringAmplitudes(r_left=r, t=t, r_right=r),
    deficit=lambda s: unitarity_deficit(s)["right"])


def bloch(on, ng, nl, k, l):
    """bloch_index of the layer indices ng and nl at the wavenumber k and layer thickness l."""
    two_kl = 2 * k * l

    def cell():
        on.require(abs(two_kl) < math.inf, BranchAmbiguity,   # k l overflowed
                   "cell phase overflows (2 k l = {})", two_kl)
        x, y = ng * k * l, nl * k * l
        cos_xy = on.cos(x) * on.cos(y)
        on.require((ng != 0) & (nl != 0), BranchAmbiguity,   # the ratios below divide by zero
                   "a layer index vanishes; the cell phase is undefined")
        rhs = cos_xy - 0.5 * (ng / nl + nl / ng) * on.sin(x) * on.sin(y)
        n = on.acos(rhs) / two_kl   # Re acos is in [0, pi], so Re n >= 0
        # evanescent tie: with gain present take the amplifying branch
        tie = (abs(n.real) < TIE_TOL * abs(n)) & ((ng.imag < 0) | (nl.imag < 0)) & (n.imag > 0)
        n = on.where(tie, lambda: -n, lambda: n)
        phase = abs(2 * n * k * l)
        on.require(phase <= CELL_PHASE_MAX, BranchAmbiguity,
                   "cell phase {:.3f} exceeds pi/2; principal branch is not trustworthy", phase)
        return n

    # k l underflowed: the long-wavelength limit, sqrt of the mean permittivity
    return on.where(two_kl == 0, lambda: on.sqrt((ng * ng + nl * nl) / 2), cell)


def eta(on, n, kl):
    """round_trip of the slab of index n at k l = kl."""
    return ((n - 1) / (n + 1)) ** 2 * on.exp(4j * n * kl)


def slab(on, n, kl):
    """effective_amplitudes of the slab of index n at k l = kl."""
    plus, minus = (n + 1) ** 2, (n - 1) ** 2
    round_trip = on.exp(4j * n * kl)
    den = plus - minus * round_trip
    modulus = abs(den)
    on.require(modulus >= POLE_MIN, LasingPole, "pole denominator modulus {:.3e}", modulus)
    t = 4 * n * on.exp(2j * (n - 1) * kl) / den
    r = (n * n - 1) * (round_trip - 1) * on.exp(-2j * on.value(kl)) / den
    return on.amplitudes(r, t)


def slab_flux(on, n, s, eps, kl, nth):
    """effective_noise's (flux, occupation) of the slab of index n and
    amplitudes s at k l = kl, the permittivities eps and the thermal
    occupation nth; the central difference's two slabs are taken only at
    balance."""
    eg, el = abs(eps[0].imag), abs(eps[1].imag)
    pump = 0.5 * (eg + el) * (2.0 * nth + 1.0)
    square = n * n
    deficit = on.deficit(s)
    scale = on.max(eg, el, 1e-300)
    balance = abs(square.imag) < BALANCE_TOL * scale

    def difference():
        h = DIFFERENCE_STEP * scale
        dplus, dminus = (on.deficit(slab(on, on.sqrt(square + d * on.value(h)), kl))
                         for d in (1j, -1j))
        slope = (dplus - dminus) / (2 * h)
        return pump * slope / 2.0 - 0.5 * deficit

    occupation = on.where(balance, lambda: math.nan, lambda: pump / (2.0 * square.imag) - 0.5)
    return on.where(balance, difference, lambda: deficit * occupation), occupation


def bloch_index(indices: tuple[complex, complex], omega: float,
                layer_thickness: float) -> complex:
    """Effective index at omega of the cell whose layer indices are (n_gain, n_loss)."""
    ng, nl = indices
    return bloch(SCALAR, ng, nl, omega / C_VACUUM, layer_thickness)


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
    return slab(SCALAR, complex(n_eff), (omega / C_VACUUM) * layer_thickness)


def round_trip(n_eff: complex, omega: float, layer_thickness: float) -> complex:
    """One-round-trip amplitude eta = ((n-1)/(n+1))^2 e^{4 i n k l}.

    |eta| >= 1 with vanishing phase marks a lasing pole; |eta| < 1 is the
    linear regime. Note den = (n+1)^2 (1 - eta).
    """
    return eta(SCALAR, complex(n_eff), (omega / C_VACUUM) * layer_thickness)


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
    flux, occupation = slab_flux(SCALAR, n_eff, s, eps, (omega / C_VACUUM) * layer_thickness,
                                 thermal_occupation(omega, temperature))
    # symmetric slab: both outputs see the same deficit, hence the same flux
    return {"s_left": float(flux), "s_right": float(flux),
            "occupation": float(occupation)}
