"""Dispersive gain/loss media and the balanced bilayer.

Single-resonance Lorentz media with a signed oscillator amplitude: a positive
amplitude absorbs, a negative one amplifies. A bilayer stacks a gain slab on
[-l, 0] and a loss slab on [0, l] between vacuum half-spaces. The balance
condition eps_loss(w) == conj(eps_gain(w)) (equal real parts, opposite
imaginary parts) defines the operating frequency of the stack.

Internal units are SI throughout (rad/s, meters); the CLI converts from
Trad/s and nm at its boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

C_VACUUM = 2.99792458e8       # m/s
HBAR = 1.054571817e-34        # J s
K_BOLTZMANN = 1.380649e-23    # J/K
TRAD = 1e12                   # rad/s per Trad/s
NM = 1e-9                     # m per nm

DEFAULT_LAYER_THICKNESS = 10.0 * NM


def require(holds, message: str) -> None:
    """ValueError(message) unless holds(), which fails where it cannot compare or convert."""
    try:
        if holds():
            return
    except (TypeError, OverflowError):
        pass
    raise ValueError(message)


@dataclass(frozen=True)
class LorentzMedium:
    """Single-resonance dispersive medium.

    eps(w) = eps_b - alpha * w0 * gamma / (w^2 - w0^2 + i w gamma)

    alpha > 0 gives absorption (Im eps > 0), alpha < 0 gain. At resonance
    eps(w0) = eps_b + i alpha exactly.
    """

    eps_b: float
    alpha: float
    omega0: float   # rad/s
    gamma: float    # rad/s

    def __post_init__(self):
        for name in ("eps_b", "omega0", "gamma"):
            value = getattr(self, name)
            require(lambda: value > 0 and math.isfinite(value),
                    f"{name} must be positive and finite")
        require(lambda: math.isfinite(self.alpha), "alpha must be finite")


@dataclass(frozen=True)
class Bilayer:
    """Gain slab on [-l, 0], loss slab on [0, l], vacuum outside."""

    gain: LorentzMedium
    loss: LorentzMedium
    layer_thickness: float = DEFAULT_LAYER_THICKNESS   # m, per layer

    def __post_init__(self):
        l = self.layer_thickness
        require(lambda: l > 0 and math.isfinite(l), "layer_thickness must be positive and finite")


def lorentz_permittivity(eps_b, alpha, omega0, gamma, omega):
    """eps_b - alpha w0 gamma / (w^2 - w0^2 + i w gamma), elementwise.

    alpha and omega may be arrays. The arithmetic is numpy's for scalars and
    arrays alike, so an array evaluation equals the pointwise one bit for bit.
    No argument checks.
    """
    w = np.asarray(omega, dtype=float)
    return eps_b - alpha * omega0 * gamma / (w * w - omega0 ** 2 + 1j * w * gamma)


def permittivity(medium: LorentzMedium, omega: float) -> complex:
    """Complex permittivity at angular frequency omega (rad/s)."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return complex(lorentz_permittivity(medium.eps_b, medium.alpha, medium.omega0,
                                        medium.gamma, omega))


def refractive_index(eps: complex) -> complex:
    """Principal square root, which has Re n >= 0 (C99 csqrt's branch).

    eps == 0 gives n == 0, at which the transfer chain is singular. The root is
    numpy's, as the grid kernel's over arrays (cmath's differs in the last bit).
    """
    return complex(np.sqrt(complex(eps)))


def libm_square(x):
    """x ** 2 as a Python float computes it, elementwise over arrays.

    Python and numpy scalars square through the C library's pow, which
    differs from x * x (numpy's array square) in the last bit for about one
    input in 10^3; this keeps array results equal to scalar ones.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return float(x) ** 2
    out = x * x
    finite = np.isfinite(out)
    out[finite] = [v ** 2 for v in x[finite].tolist()]
    return out


def _lineshape(medium: LorentzMedium, omega):
    # Im eps per unit alpha: w0 gamma^2 w / D(w), always positive; elementwise.
    w = np.asarray(omega, dtype=float)
    d = libm_square(w * w - medium.omega0 ** 2) + medium.gamma ** 2 * w * w
    return medium.omega0 * medium.gamma ** 2 * w / d


def _delta_epsilon(loss: LorentzMedium, gain: LorentzMedium, omega):
    # pt_delta_epsilon without the argument check, elementwise over omega.
    ag = -loss.alpha * _lineshape(loss, omega) / _lineshape(gain, omega)
    el = lorentz_permittivity(loss.eps_b, loss.alpha, loss.omega0, loss.gamma, omega)
    eg = lorentz_permittivity(gain.eps_b, ag, gain.omega0, gain.gamma, omega)
    return el.real - eg.real


def pt_balanced_gain(loss: LorentzMedium, gain: LorentzMedium, omega: float) -> float:
    """Gain amplitude that cancels the loss medium's Im eps at omega.

    Returns the (negative) alpha for the gain medium such that
    Im eps_gain(omega) = -Im eps_loss(omega). Linear in loss.alpha.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    return float(-loss.alpha * _lineshape(loss, omega) / _lineshape(gain, omega))


def pt_delta_epsilon(loss: LorentzMedium, gain: LorentzMedium, omega: float) -> float:
    """Real-part mismatch Re eps_loss - Re eps_gain with the gain rebalanced.

    The gain amplitude is set by pt_balanced_gain at each omega, so a root of
    this function is a frequency where the bilayer is exactly balanced.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    return float(_delta_epsilon(loss, gain, omega))


_BALANCE_REL_TOL = 1e-12   # relative width at which bisection stops
BALANCE_SCAN = (0.01, 100)  # pt_frequency's scan range, in units of max(w0)
PT_TOL = 1e-9              # relative mismatch balanced accepts


def pt_frequency(loss: LorentzMedium, gain: LorentzMedium) -> list[float]:
    """All balance frequencies of the pair, ascending (rad/s).

    Equal backgrounds admit a closed form independent of the amplitudes:
    w^2 = (gamma_g w0l^2 + gamma_l w0g^2) / (gamma_g + gamma_l), and no root
    where w underflows to 0. Otherwise a 2048-point logarithmic scan over
    BALANCE_SCAN * max(w0), evaluated as one array, brackets every sign change
    of the real-part mismatch and bisection refines each root; with no sign
    change the list is empty.
    """
    if loss.alpha == 0:
        raise ValueError("loss amplitude must be nonzero")
    if loss.eps_b == gain.eps_b:
        w = math.sqrt((gain.gamma * loss.omega0 ** 2 + loss.gamma * gain.omega0 ** 2)
                      / (gain.gamma + loss.gamma))
        return [w] if w > 0 else []

    wmax = max(loss.omega0, gain.omega0)
    grid = np.logspace(*(math.log10(f * wmax) for f in BALANCE_SCAN), 2048)
    vals = _delta_epsilon(loss, gain, grid)
    roots = []
    for i in np.flatnonzero((vals[:-1] < 0) != (vals[1:] < 0)).tolist():
        lo, hi = grid[i], grid[i + 1]
        flo = vals[i]
        while hi - lo > _BALANCE_REL_TOL * hi:
            mid = 0.5 * (lo + hi)
            fmid = pt_delta_epsilon(loss, gain, mid)
            if (fmid < 0) == (flo < 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return sorted(roots)


def balanced(eps_loss, eps_gain):
    """|eps_loss - conj eps_gain| <= PT_TOL max(1, |eps_loss|, |eps_gain|), elementwise."""
    scale = np.maximum(1.0, np.maximum(np.abs(eps_loss), np.abs(eps_gain)))
    return np.abs(eps_loss - np.conj(eps_gain)) <= PT_TOL * scale


def verify_pt(bilayer: Bilayer, omega: float) -> bool:
    """True when eps_loss(omega) == conj(eps_gain(omega)) within PT_TOL (balanced)."""
    return bool(balanced(permittivity(bilayer.loss, omega), permittivity(bilayer.gain, omega)))


# Preset material families. The first family uses identical resonances for
# gain and loss, so balance holds at w0 for any amplitude. The second pairs
# dissimilar media; its gain amplitude is pinned to the balanced value at
# loss amplitude 2, the reference configuration for the family (the balance
# then holds solely at that amplitude).

_SET1_LOSS = _SET1_GAIN = dict(eps_b=2.0, omega0=1000 * TRAD, gamma=67 * TRAD)
_SET2_LOSS = dict(eps_b=3.22, omega0=1200 * TRAD, gamma=140 * TRAD)
_SET2_GAIN = dict(eps_b=2.0, omega0=1000 * TRAD, gamma=67 * TRAD)

PRESET_IDS = ("set1", "set2")
_PRESET_MEDIA = {"set1": (_SET1_GAIN, _SET1_LOSS), "set2": (_SET2_GAIN, _SET2_LOSS)}
# set2's (loss, gain) pair at its reference loss amplitude 2
_SET2_REFERENCE = (LorentzMedium(alpha=2.0, **_SET2_LOSS), LorentzMedium(alpha=-1.0, **_SET2_GAIN))


@lru_cache(maxsize=1)
def set2_operating_frequency() -> float:
    """Largest balance root of the second family at loss amplitude 2 (rad/s)."""
    return pt_frequency(*_SET2_REFERENCE)[-1]


@lru_cache(maxsize=1)
def set2_gain_alpha() -> float:
    """Fixed gain amplitude of the second family (balanced at alpha_l = 2)."""
    return pt_balanced_gain(*_SET2_REFERENCE, set2_operating_frequency())


def preset_amplitudes(set_id: str, alpha_l):
    """(gain, loss) oscillator amplitudes of a preset at loss amplitude alpha_l.

    Elementwise over an array of loss amplitudes; the set2 gain amplitude is
    a scalar for every alpha_l. The rule only: callers check that alpha_l is
    nonnegative.
    """
    if set_id == "set1":
        return -alpha_l, alpha_l
    if set_id == "set2":
        return set2_gain_alpha(), alpha_l
    raise ValueError(f"unknown preset {set_id!r}; expected one of {PRESET_IDS}")


def preset(set_id: str, alpha_l: float,
           layer_thickness: float = DEFAULT_LAYER_THICKNESS) -> Bilayer:
    """Bilayer from a named material family at the given loss amplitude.

    "set1": symmetric resonances, gain amplitude -alpha_l (balanced at w0 for
    every alpha_l). "set2": detuned pair with the gain amplitude held at its
    reference value for all alpha_l; only alpha_l = 2 is balanced.
    """
    if alpha_l < 0:
        raise ValueError("alpha_l must be nonnegative")
    gain_alpha, loss_alpha = preset_amplitudes(set_id, alpha_l)
    gain, loss = _PRESET_MEDIA[set_id]
    return Bilayer(gain=LorentzMedium(alpha=gain_alpha, **gain),
                   loss=LorentzMedium(alpha=loss_alpha, **loss),
                   layer_thickness=layer_thickness)


def preset_default_omega(set_id: str) -> float:
    """Default operating frequency of a preset (rad/s)."""
    if set_id == "set1":
        return _SET1_GAIN["omega0"]
    if set_id == "set2":
        return set2_operating_frequency()
    raise ValueError(f"unknown preset {set_id!r}; expected one of {PRESET_IDS}")
