"""Quantum-optical observables at the stack outputs.

The left input carries a squeezed coherent state (squeeze strength xi, squeeze
phase phi_xi, coherent weight w = |rho|^2 normalized by sinh^2 xi units,
coherent phase phi_rho); the right input is vacuum. Homodyne detection of the
right output gives a quadrature variance; direct photocounting gives a
normalized Mandel parameter. Both depend on the stack only through the
transmission amplitude t and the right-output noise flux.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .media import require
from .scattering import ScatteringAmplitudes

DENOMINATOR_MIN = 1e-30   # a smaller |mean photocount| raises DegenerateDenominator


class DegenerateDenominator(Exception):
    """Mean photocount vanishes; the normalized Mandel parameter is undefined."""


@dataclass(frozen=True)
class SqueezedCoherentInput:
    # The defaults reproduce the reference figure settings: xi = 0.2 with a
    # 5 rad offset between the squeeze phase and twice the local-oscillator
    # phase, and a coherent phase locked so that cos(2 phi_rho - phi_xi) = -1.
    xi: float = 0.2
    phi_xi: float = 5.0
    coherent_weight: float = 25.0
    phi_rho: float = (5.0 - math.pi) / 2.0

    def __post_init__(self):
        require(lambda: not self.xi < 0, "xi must be nonnegative")
        require(lambda: not self.coherent_weight < 0, "coherent_weight must be nonnegative")
        # the observables read sinh(2 xi), sinh^2 xi and cos(2 phi_rho - phi_xi)
        require(lambda: math.isfinite(math.sinh(2.0 * self.xi))
                and math.isfinite(math.sinh(self.xi) ** 2),
                f"sinh(2 xi) or sinh(xi)^2 is not finite at xi={self.xi!r}")
        require(lambda: math.isfinite(2.0 * self.phi_rho - self.phi_xi),
                "2 phi_rho - phi_xi is not finite")


def homodyne_variance(s, flux_right: float, inp: SqueezedCoherentInput = None,
                      phi_lo: float = 0.0) -> float:
    """Vacuum-normalized quadrature variance of the right output.

    V = 1 + 2 f + T (2 sinh^2 xi - sinh(2 xi) cos(phi_xi - 2 phi_lo - 2 arg t))

    phi_lo is the local-oscillator phase (the LO frequency tracks the
    signal). Values below 1 indicate surviving squeezing; the noise flux
    enters with weight 2 and is never negative in aggregate.
    """
    inp = inp or SqueezedCoherentInput()
    t = complex(getattr(s, "t", s))   # s is ScatteringAmplitudes or t itself
    offset = inp.phi_xi - 2.0 * phi_lo
    return variance_from(abs(t) ** 2, math.cos(offset - 2.0 * np.angle(t)), flux_right, inp)


def variance_from(T, cos, flux_right, inp: SqueezedCoherentInput):
    """V from T, the cosine above and f; elementwise over arrays."""
    squeeze = 2.0 * math.sinh(inp.xi) ** 2 - math.sinh(2.0 * inp.xi) * cos
    return 1.0 + 2.0 * flux_right + T * squeeze


def mandel_q(s, flux_right: float, inp: SqueezedCoherentInput = None) -> float:
    """Normalized Mandel parameter of the right output.

    With T = |t|^2, nbar = T sinh^2 xi + f, w the coherent weight:

        num = nbar^2 + T^2 sinh^2 xi cosh^2 xi + 2 T w nbar
              + T^2 w sinh(2 xi) cos(2 phi_rho - phi_xi)
        Q   = num / (T (sinh^2 xi + w) + f)

    Negative values are sub-Poissonian. For a lossless beamsplitter
    (real t, zero flux) this reduces exactly to T times the input value.
    """
    inp = inp or SqueezedCoherentInput()
    num, den = mandel_parts(abs(complex(getattr(s, "t", s))) ** 2, flux_right, inp)
    if abs(den) < DENOMINATOR_MIN:
        raise DegenerateDenominator("mean photocount vanishes")
    return num / den


def mandel_parts(T, flux_right, inp: SqueezedCoherentInput):
    """(num, den) of Q from T and f; elementwise over arrays."""
    sh2 = math.sinh(inp.xi) ** 2
    ch2 = math.cosh(inp.xi) ** 2
    w = inp.coherent_weight
    nbar = T * sh2 + flux_right
    num = nbar * nbar + T * T * sh2 * ch2 + 2.0 * T * w * nbar \
        + T * T * w * math.sinh(2.0 * inp.xi) * math.cos(2.0 * inp.phi_rho - inp.phi_xi)
    return num, T * (sh2 + w) + flux_right


def input_reference(inp: SqueezedCoherentInput = None) -> dict:
    """Observables of the input state itself (identity channel, no noise, LO phase 0)."""
    inp = inp or SqueezedCoherentInput()
    ident = ScatteringAmplitudes(r_left=0.0, t=1.0, r_right=0.0)
    return {"variance_in": homodyne_variance(ident, 0.0, inp),
            "q_in": mandel_q(ident, 0.0, inp)}
