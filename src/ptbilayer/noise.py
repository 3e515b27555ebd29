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
rule holds only to O(n''/n') by construction, so enforce_sum_rule, the
consistency check, applies to full_complex terms only.

The noise flux into output j is linear in the thermal occupation N_th,
flux_0 + N_th E (fluxes). With Q the layer's (D K D^dagger)_jj, the
zero-temperature part flux_0 sums -Q over the amplifying layers, and E sums
+Q over the absorbing layers and -Q over the amplifying ones (flux_parts).
A stack's flux_0 and E are taken once and serve every temperature.

D, K and the flux serve one point (locate, the scalar library) and the grid
kernel's stack rows, bit for bit alike. The rows take scattering's
elementwise helpers; one point, chosen by the input's type, takes Python
numbers instead: math.sin and cmath.exp for K (numpy's loops agree with
them at every dispatch level), Python's complex products for D, with
numpy's division for 1/a22, taken once for both layers, and its array
multiply for D's scaling, which Python's operators do not repeat. Both
contract D K D^dagger with @ (BLAS's rounding); a point does only the sign
bookkeeping on the contracted floats, in the rows' order, and its flux_0,
E and fluxes are [left, right] lists of floats. One point's layer terms
take about 11 us against 18.5 us through the helpers, measured together.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from . import scattering
from .media import C_VACUUM, HBAR, K_BOLTZMANN, Bilayer
from .scattering import (MODE_FULL, TransferChain, _cis, _entries, _modulus, _mul, _stack,
                         _where, canonical_mode, transfer_chain)


SUM_RULE_TOL = 1e-10   # largest sum-rule residual a check accepts
_EXP_MAX = math.log(sys.float_info.max)   # math.exp(x) overflows for x above it


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


def layer_commutator(n, omega, thickness: float, layer: int = 2,
                     mode: str = MODE_FULL) -> np.ndarray:
    """Full 2x2 commutator matrix of one layer (Hermitian); (N, 2, 2) over arrays n and omega.

    The co-propagating entries are 1 - e^{-2u} (equal to 2 e^{-u} sinh u) and
    e^{2u} - 1; the counter-propagating coupling is q. The layer index is 2
    for the first slab and 3 for the second, matching the four-region stack
    labeling (1 and 4 are the vacuum half-spaces).
    """
    mode = canonical_mode(mode)
    if layer not in (2, 3):
        raise ValueError("layer must be 2 (first slab) or 3 (second slab)")
    k = omega / C_VACUUM
    if not isinstance(n, np.ndarray):   # one point, on Python numbers
        n = complex(n)
        if n == 0:   # n''/n' and n'/|n| are undefined
            raise ValueError(f"layer index n = {n} must be nonzero")
        nr, ni = n.real, n.imag
        u, v = ni * k * thickness, nr * k * thickness
        # the evanescent limit of (n''/n') sin(v), n'' k l, where n' = 0 or n''/n' overflows
        if nr == 0.0 or abs(ni / nr) == math.inf:
            x = -2.0 * ni * k * thickness
        else:
            x = -2.0 * (ni / nr) * math.sin(v)
        q = x * cmath.exp(1j * (v if layer == 2 else -v))
        scale = nr / abs(n) if mode == MODE_FULL else 1.0
        return np.array([[scale * (1.0 - math.exp(-2 * u)), scale * q],
                         [scale * q.conjugate(), scale * (math.exp(2 * u) - 1.0)]])
    nr, ni = n.real, n.imag
    u, v = ni * k * thickness, nr * k * thickness
    # the same limit; where n' = 0 the ratio divides by 1, not by zero
    limit = (nr == 0.0) | (abs(ni / (nr + (nr == 0.0))) == math.inf)
    x = _where(limit, -2.0 * ni * k * thickness, -2.0 * (ni / (nr + limit)) * np.sin(v))
    q = _mul(x, _cis(v if layer == 2 else -v))
    scale = nr / _modulus(n) if mode == MODE_FULL else 1.0
    same = 1.0 - scattering._each(math.exp, -2 * u)
    counter = scattering._each(math.exp, 2 * u) - 1.0
    return _stack(scale * same, _mul(scale, q), _mul(scale, q.conjugate()), scale * counter)


def exp_overflow(chain: TransferChain) -> np.ndarray:
    """The rows of a stack's chain where layer_commutator's math.exp(+-2u)
    overflows, so that layer_terms would raise OverflowError."""
    ng, nl = chain.indices
    n_imag = np.maximum(np.abs(ng.imag), np.abs(nl.imag))
    return 2 * (n_imag * (chain.omega / C_VACUUM) * chain.layer_thickness) > _EXP_MAX


def layer_coupling(total: np.ndarray, partial: np.ndarray) -> np.ndarray:
    """D of the layer whose partial product into the outputs is partial, in the
    chain whose total is total: (2, 2) matrices, or (N, 2, 2) rows of them."""
    if total.ndim == 2:
        return _point_coupling(_point_total(total), partial)
    _, a12, _, a22 = _entries(total)
    b11, b12, b21, b22 = _entries(partial)
    return (1.0 / a22)[..., None, None] * _stack(
        -b21, -b22, _mul(b11, a22) - _mul(a12, b21), _mul(b12, a22) - _mul(a12, b22))


def _point_total(total):
    """(a12, a22, 1/a22) of one point's (2, 2) total, which each layer's D reads."""
    (_, a12), (_, a22) = total.tolist()
    return a12, a22, 1.0 / np.complex128(a22)


def _point_coupling(read, partial):
    """layer_coupling on one point, from read = _point_total(total): Python's
    products, numpy's 1/a22 and its array multiply for the scaling."""
    a12, a22, inverse = read
    (b11, b12), (b21, b22) = partial.tolist()
    return inverse[..., None, None] * np.array(
        [[-b21, -b22], [b11 * a22 - a12 * b21, b12 * a22 - a12 * b22]])


def layer_terms(chain: TransferChain) -> list:
    """[(n, D, K)] of the gain layer, then of the loss layer, read off chain:
    numbers, or arrays over rows for a chain whose fields hold a stack's rows;
    one point reads its total once for both layers."""
    l, total, partials = chain.layer_thickness, chain.total, (chain.from_gain, chain.from_loss)
    if total.ndim == 2:
        read = _point_total(total)
        couplings = [_point_coupling(read, partial) for partial in partials]
    else:
        couplings = [layer_coupling(total, partial) for partial in partials]
    return [(n, d, layer_commutator(n, chain.omega, l, layer, chain.mode))
            for n, layer, d in zip(chain.indices, (2, 3), couplings)]


def sum_rule_residuals(terms, s):
    """Max-entry residual of sum_layers D K D^dagger = 1 - S S^dagger over the
    last two axes: terms are the layers' (n, D, K) and s is S's matrix, for
    one point (2, 2) or a stack of rows (N, 2, 2)."""
    lhs = sum(d @ k @ np.swapaxes(d, -1, -2).conj() for _, d, k in terms)
    return np.max(np.abs(lhs - (np.eye(2) - s @ np.swapaxes(s, -1, -2).conj())), axis=(-2, -1))


def enforce_sum_rule(terms, s) -> None:
    """Raise SumRuleViolation at the first row whose sum_rule_residuals
    exceeds SUM_RULE_TOL (a nan residual exceeds it too)."""
    res = np.atleast_1d(sum_rule_residuals(terms, s))
    bad = np.flatnonzero(~(res <= SUM_RULE_TOL))
    if bad.size:
        raise SumRuleViolation(f"sum rule residual {res[bad[0]]:.3e} "
                               f"exceeds {SUM_RULE_TOL:.1e}")


def sum_rule_residual(bilayer: Bilayer, omega: float, mode: str = MODE_FULL) -> float:
    """Max-entry residual of sum_layers D K D^dagger = 1 - S S^dagger."""
    chain = transfer_chain(bilayer, omega, mode)
    return float(sum_rule_residuals(layer_terms(chain), chain.s.matrix()))


def flux_parts(terms):
    """(flux_0, E) over the outputs (left, right), of one point's terms
    [(n, D (2, 2), K (2, 2))], as two [left, right] lists of floats, or of a
    stack's [(n (N,), D (N, 2, 2), K (N, 2, 2))], as two (2, N) arrays, rounded
    alike; only Im n >= 0 absorbs. One point adds up each output's contracted
    Q on Python floats, in the steps and order of a stack's arrays."""
    if terms[0][1].ndim == 2:
        flux0, e = [0.0, 0.0], [0.0, 0.0]
        for n, d, k in terms:
            absorbs = n.imag >= 0
            for j, q in enumerate(_contract(d, k).tolist()):
                signed = q * (2.0 * absorbs - 1.0)
                flux0[j] += signed * (1.0 - absorbs)
                e[j] += signed
        return flux0, e
    flux0 = e = 0.0
    for n, d, k in terms:
        q = _contract(d, k)
        absorbs = np.imag(n) >= 0
        signed = q * (2.0 * absorbs - 1.0)   # +Q where the layer absorbs, -Q where it amplifies
        flux0 = flux0 + signed * (1.0 - absorbs)   # an absorbing layer adds 0 Q
        e = e + signed
    return flux0, e


def _contract(d, k):
    """Q = (D K D^dagger)_jj of (left, right) on the first axis, by @ (BLAS's
    rounding, which Python's formula does not repeat) for a point and a stack."""
    q = (d[..., :, None, :] @ k[..., None, :, :]) @ np.conj(d)[..., :, :, None]
    return q[..., 0, 0].real.T


def fluxes(parts, nth):
    """(s_left, s_right) = flux_0 + nth E from parts = flux_parts(terms): a
    [left, right] list of floats for one point's lists, where nth is a float,
    or the two rows of an array for a stack's, where nth is a float or an
    array that broadcasts against the rows. Each output takes one multiply
    and one add in both forms, so inf and nan propagate alike."""
    flux0, e = parts
    if isinstance(flux0, list):
        return [f + nth * x for f, x in zip(flux0, e)]
    return flux0 + nth * e


def noise_flux(bilayer: Bilayer, omega: float, mode: str = MODE_FULL,
               temperature: float = 0.0, terms: list = None) -> dict:
    """Noise photon flux into each output, {"s_left", "s_right"}.

    terms, when given, is layer_terms(transfer_chain(bilayer, omega, mode))
    built by the caller, who may check its sum rule (enforce_sum_rule) first;
    the bilayer is then not read.
    """
    if terms is None:
        terms = layer_terms(transfer_chain(bilayer, omega, mode))
    left, right = fluxes(flux_parts(terms), thermal_occupation(omega, temperature))
    return {"s_left": left, "s_right": right}


def unitarity_deficit(s) -> dict:
    """1 - T - R per side; positive for net absorption, negative for gain."""
    return {"left": 1.0 - s.T - s.R_left, "right": 1.0 - s.T - s.R_right}
