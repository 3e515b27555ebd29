"""Langevin noise bookkeeping for the amplifying/absorbing stack.

Each dissipative layer injects quantum noise whose strength is fixed by the
canonical commutators of the output operators. The per-layer commutator
matrix K has the closed form (u = n'' w l / c, v = n' w l / c)

    K = scale * [[1 - e^{-2u}, q], [conj(q), e^{2u} - 1]],
    q = -2 (n''/n') sin(v) e^{+iv}   for the first slab (z in [-l, 0]),
        -2 (n''/n') sin(v) e^{-iv}   for the second slab (z in [0, l]),

with scale = n'/|n| in full_complex mode and 1 in paper_real_part mode. The
coupling of layer noise into the outputs is a 2x2 matrix D built from the
partial transfer products, and the exact sum rule

    sum_layers D K D^dagger = 1 - S S^dagger

closes to machine precision in full_complex mode. In paper_real_part mode the
rule holds only to O(n''/n') by construction, so the optional consistency
check is restricted to full_complex mode.

Observable noise fluxes weight each layer by its thermal occupation: N_th for
an absorbing layer and -(N_th + 1) for an amplifying one.
"""

from __future__ import annotations

import math

import numpy as np

from .media import C_VACUUM, HBAR, K_BOLTZMANN, Bilayer
from .scattering import (MODE_FULL, TransferChain, canonical_mode,
                         scattering_from_transfer, transfer_chain)


SUM_RULE_TOL = 1e-10   # largest sum-rule residual a check accepts


class SumRuleViolation(Exception):
    """Commutator sum rule residual exceeded tolerance with checks enabled."""


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation; exactly 0 at zero temperature."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    if temperature < 0:
        raise ValueError("temperature must be nonnegative")
    kt = K_BOLTZMANN * temperature
    if kt == 0.0:   # zero temperature, or k_B T underflowed: the T -> 0 limit
        return 0.0
    x = HBAR * omega / kt
    if x > 700.0:  # expm1 would overflow; the tail underflows cleanly
        return math.exp(-x)
    if x == 0.0:   # hbar w / kT underflowed: the occupation's limit
        return math.inf
    return 1.0 / math.expm1(x)


def layer_commutator(n: complex, omega: float, thickness: float,
                     layer: int = 2, mode: str = MODE_FULL) -> np.ndarray:
    """Full 2x2 commutator matrix of one layer (Hermitian).

    The co-propagating entries are 1 - e^{-2u} (equal to 2 e^{-u} sinh u) and
    e^{2u} - 1; the counter-propagating coupling is q. The layer index is 2
    for the first slab and 3 for the second, matching the four-region stack
    labeling (1 and 4 are the vacuum half-spaces).
    """
    mode = canonical_mode(mode)
    if layer not in (2, 3):
        raise ValueError("layer must be 2 (first slab) or 3 (second slab)")
    n = complex(n)
    k = omega / C_VACUUM
    u = n.imag * k * thickness
    v = n.real * k * thickness
    phase = np.exp(1j * v) if layer == 2 else np.exp(-1j * v)
    if n.real == 0.0:
        # evanescent limit of (n''/n') sin(n' k l): n'' k l
        q = complex(-2.0 * n.imag * k * thickness * phase)
    else:
        q = complex(-2.0 * (n.imag / n.real) * np.sin(v) * phase)
    scale = n.real / abs(n) if mode == MODE_FULL else 1.0
    return scale * np.array([[1.0 - math.exp(-2 * u), q],
                             [np.conj(q), math.exp(2 * u) - 1.0]])


def _coupling(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    a12, a22 = A[0, 1], A[1, 1]
    b11, b12, b21, b22 = B[0, 0], B[0, 1], B[1, 0], B[1, 1]
    return (1.0 / a22) * np.array(
        [[-b21, -b22],
         [b11 * a22 - a12 * b21, b12 * a22 - a12 * b22]])


def _layer_terms(bilayer: Bilayer, omega: float, mode: str, chain: TransferChain):
    """(n, D, K) of the gain layer, then of the loss layer."""
    l = bilayer.layer_thickness
    for n, layer, partial in zip(chain.indices, (2, 3),
                                 (chain.from_gain, chain.from_loss)):
        yield (n, _coupling(chain.total, partial),
               layer_commutator(n, omega, l, layer, mode))


def noise_couplings(bilayer: Bilayer, omega: float,
                    mode: str = MODE_FULL) -> dict:
    """Output coupling matrices of the two layer noise sources.

    Row 0 of each matrix feeds the left output, row 1 the right output.
    """
    chain = transfer_chain(bilayer, omega, canonical_mode(mode))
    return {"d_gain": _coupling(chain.total, chain.from_gain),
            "d_loss": _coupling(chain.total, chain.from_loss)}


def _sum_rule_residual(chain: TransferChain, terms) -> float:
    # sum_rule_residual from the chain and the list of its _layer_terms
    lhs = sum(d @ k @ d.conj().T for _, d, k in terms)
    s = scattering_from_transfer(chain).matrix()
    rhs = np.eye(2) - s @ s.conj().T
    return float(np.max(np.abs(lhs - rhs)))


def sum_rule_residual(bilayer: Bilayer, omega: float, mode: str = MODE_FULL) -> float:
    """Max-entry residual of sum_layers D K D^dagger = 1 - S S^dagger."""
    mode = canonical_mode(mode)
    chain = transfer_chain(bilayer, omega, mode)
    return _sum_rule_residual(chain, _layer_terms(bilayer, omega, mode, chain))


def noise_flux(bilayer: Bilayer, omega: float, mode: str = MODE_FULL,
               temperature: float = 0.0, check_sum_rule: bool = False,
               chain: TransferChain = None) -> dict:
    """Noise photon flux into each output, {"s_left", "s_right"}.

    With check_sum_rule the commutator sum rule is validated at this
    configuration first (residual at most SUM_RULE_TOL); that requires
    full_complex mode (the approximate paper_real_part bookkeeping does not
    close the rule). chain, when given, is transfer_chain(bilayer, omega,
    mode) built by the caller.
    """
    mode = canonical_mode(mode)
    if chain is None:
        chain = transfer_chain(bilayer, omega, mode)
    terms = list(_layer_terms(bilayer, omega, mode, chain))
    if check_sum_rule:
        if mode != MODE_FULL:
            raise ValueError("sum rule check requires full_complex mode")
        res = _sum_rule_residual(chain, terms)
        if not (res <= SUM_RULE_TOL):
            raise SumRuleViolation(
                f"sum rule residual {res:.3e} exceeds {SUM_RULE_TOL:.1e}")

    nth = thermal_occupation(omega, temperature)
    out = np.zeros(2)
    for n, d, k in terms:
        weight = nth if n.imag >= 0 else -(nth + 1.0)
        for row in (0, 1):
            out[row] += weight * float(np.real(d[row] @ k @ d[row].conj()))
    return {"s_left": float(out[0]), "s_right": float(out[1])}


def unitarity_deficit(s) -> dict:
    """1 - T - R per side; positive for net absorption, negative for gain."""
    return {"left": 1.0 - s.T - s.R_left, "right": 1.0 - s.T - s.R_right}
