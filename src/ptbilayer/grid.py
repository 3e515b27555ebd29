"""Batched evaluation of a sweep grid, and the table schema.

evaluate_grid computes every table cell of a SweepSpec over a whole grid of
(alpha_l, omega, temperature) in one pass of array operations: the layer
permittivities and indices, the five chain factors as stacked (N, 2, 2)
arrays, S, the eigenpair, each layer's noise coupling and commutator (built
once for both the flux and the sum rule check), the flux and the table
cells. Each is evaluated once per distinct value of the parameters it
reads, so a temperature sweep builds one stack. A row stops at its first
failure, one of ROW_ERRORS, and keeps the cells filled before it: the rule
that fails rows calls _Cells.fail(where, error), where picking them as a
numpy index does. The columns come out in table order, so this module is the
one place that names them.

The kernel restates only what its array form would round differently from
the scalar library (transfer_chain, scattering_from_transfer, eigenvalues'
closed-form check, layer_terms, and effective's bloch_index, round_trip,
effective_amplitudes and effective_noise), the public API and the tests'
reference; each other rule is the scalar modules' own, called on arrays:
the layer index (np.sqrt, as in media.refractive_index), propagation_factors,
flux_parts and fluxes among them. To repeat the scalar rounding:

- complex products that the scalar path forms on scalars are written out in
  real arithmetic, because numpy's SIMD complex multiply fuses multiply-adds
  and scalar multiplication does not; Python multiplies a complex by a float
  x as by x + 0j, and takes z ** 2 as 1 * (z * z);
- Python complex divisions use Python's algorithm, which divides by the
  denominator where numpy multiplies by its reciprocal;
- moduli are np.hypot, squares go through the C library's pow, and the
  math-module exponentials, cosines and thermal occupations are taken
  element by element;
- the effective slab's cmath functions are the scalar path's own, taken
  element by element (numpy's complex arccos, for one, differs from
  cmath.acos in the last bits), and a row fails where Python raises:
  OverflowError from cmath, from z ** 2 or abs(z), BranchAmbiguity and
  LasingPole where the scalar tests raise them, at the bounds that effective
  names.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import replace

import numpy as np

from . import effective, media, noise, observables, scattering
from .media import C_VACUUM, NM, TRAD, Bilayer

OBSERVABLE_ORDER = ("scattering", "eigenvalues", "noise", "variance", "mandel", "eta")
EXACT_FAMILIES = frozenset(OBSERVABLE_ORDER) - {"eta"}
FLUX_FAMILIES = frozenset({"noise", "variance", "mandel"})
VARIABLE_COLUMNS = {"alpha_l": "alpha_l", "omega": "omega_trad", "temperature": "temperature_k"}
# The columns of each family that theory="both" sets side by side: each gets
# an _effective column, and after those a _rel_dev column.
COMPARED = {"scattering": ("T", "R_left", "R_right"), "noise": ("s_right", "s_left"),
            "variance": ("variance",), "mandel": ("mandel_q",)}
# the exceptions that end a table row (its status is the name) and not the run
ROW_ERRORS = (scattering.SingularTransfer, OverflowError, scattering.InconsistentEigenvalues,
              effective.BranchAmbiguity, effective.LasingPole, observables.DegenerateDenominator)
_EXP_MAX = math.log(sys.float_info.max)   # math.exp(x) overflows for x above it
_abs = scattering._modulus   # np.hypot of the parts, as the scalar rules take moduli


# ---------------------------------------------------------------------------
# what a spec means at a grid value


def fixed_values(spec) -> dict:
    """{"alpha_l", "omega", "temperature"} as the spec fixes them, omega in
    Trad/s; the swept variable is None. A default frequency is looked up only
    when omega is not swept."""
    values = {"alpha_l": spec.fixed_alpha_l, "omega": spec.fixed_omega_trad,
              "temperature": spec.temperature_k, spec.variable: None}
    if spec.variable != "omega" and values["omega"] is None:
        values["omega"] = (media.preset_default_omega(spec.preset) if spec.preset is not None
                           else spec.materials[0].omega0) / TRAD
    return values


def grid_parameters(spec, x):
    """(alpha_l, omega_rad_s, temperature_k) at grid value x: a float, or an
    array of grid values (the fixed parameters stay floats)."""
    values = fixed_values(spec) | {spec.variable: x}
    return values["alpha_l"], values["omega"] * TRAD, values["temperature"]


def bilayer_at(spec, alpha_l: float) -> Bilayer:
    thickness = spec.thickness_nm * NM
    if spec.preset is not None:
        return media.preset(spec.preset, alpha_l, thickness)
    gain, loss = spec.materials
    return Bilayer(gain=gain, loss=replace(loss, alpha=alpha_l),
                   layer_thickness=thickness)


# ---------------------------------------------------------------------------
# elementwise arithmetic with the scalar path's rounding


def _cx(re, im) -> np.ndarray:
    """re + i im, part by part; one of re and im may be a scalar."""
    re, im = np.asarray(re), np.asarray(im)
    z = np.empty(re.shape if re.ndim >= im.ndim else im.shape, dtype=complex)
    z.real = re
    z.imag = im
    return z


def _mul(a, b) -> np.ndarray:
    """a * b as scalar complex multiplication rounds it (no fused multiply-add)."""
    return _cx(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _py_div(a, b) -> np.ndarray:
    """a / b with Python's complex-division algorithm."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):   # both branches are computed everywhere
        ratio = np.where(by_real, bi / br, br / bi)
        re = np.where(by_real, (ar + ai * ratio) / (br + bi * ratio),
                      (ar * ratio + ai) / (br * ratio + bi))
        im = np.where(by_real, (ai - ar * ratio) / (br + bi * ratio),
                      (ai * ratio - ar) / (br * ratio + bi))
    return _cx(re, im)


def _cis(theta) -> np.ndarray:
    return np.exp(_cx(0.0, theta))


def _each(fn, x) -> np.ndarray:
    """fn (a math-module function) applied element by element."""
    return np.array([fn(v) for v in np.asarray(x).tolist()], dtype=float)


def _stack(m00, m01, m10, m11) -> np.ndarray:
    m = np.empty((len(m00), 2, 2), dtype=complex)
    m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1] = m00, m01, m10, m11
    return m


# ---------------------------------------------------------------------------
# exact theory: chain, S, eigenpair, noise


def layer_arrays(spec, alpha_l, omega):
    """((eps_gain, eps_loss), (n_gain, n_loss)) arrays, n = np.sqrt(eps) as in
    media.refractive_index; raises ValueError where the scalar path would."""
    if np.any(omega <= 0):
        raise ValueError("omega must be positive")
    template = bilayer_at(spec, 0.0)
    if spec.preset is not None:
        if np.any(alpha_l < 0):
            raise ValueError("alpha_l must be nonnegative")
        gain_alpha, loss_alpha = media.preset_amplitudes(spec.preset, alpha_l)
    else:
        gain_alpha, loss_alpha = template.gain.alpha, alpha_l
    if not np.all(np.isfinite(loss_alpha)):
        raise ValueError("alpha must be finite")
    eps = tuple(media.lorentz_permittivity(m.eps_b, a, m.omega0, m.gamma, omega)
                for m, a in ((template.gain, gain_alpha), (template.loss, loss_alpha)))
    return eps, tuple(map(np.sqrt, eps))


def _interface(n_from, n_to, k, z, paper: bool) -> np.ndarray:
    """scattering.interface_matrix over arrays."""
    ar, br = n_from.real, n_to.real
    a, b = (_cx(ar, 0.0), _cx(br, 0.0)) if paper else (n_from, n_to)
    pre = np.sqrt(_py_div(a, b))
    t11 = _mul(_mul(pre, b + a) / (2 * a), _cis((ar - br) * k * z))
    t12 = _mul(_mul(pre, b - a) / (2 * a), _cis(-(ar + br) * k * z))
    t21 = _mul(t12, _cis(2 * (ar + br) * k * z))
    t22 = _mul(t11, _cis(-2 * (ar - br) * k * z))
    return _stack(t11, t12, t21, t22)


class ExactStack:
    """Chain and S of every stack row from its layer indices (n_gain, n_loss)
    (scattering.transfer_chain and scattering_from_transfer over arrays)."""

    def __init__(self, spec, indices, omega):
        self.paper = scattering.canonical_mode(spec.mode) == scattering.MODE_PAPER
        self.ng, self.nl = indices
        self.k = omega / C_VACUUM
        self.l = spec.thickness_nm * NM
        l, k = self.l, self.k
        vac = np.full(len(omega), 1.0 + 0j)
        t1 = _interface(vac, self.ng, k, -l, self.paper)
        # the (N, 1, 2) factors scale the columns of each row's matrix
        r2 = scattering.propagation_factors(self.ng, omega, l).T[:, None, :]
        t2 = _interface(self.ng, self.nl, k, 0.0, self.paper)
        r3 = scattering.propagation_factors(self.nl, omega, l).T[:, None, :]
        self.from_loss = _interface(self.nl, vac, k, l, self.paper)
        self.from_gain = (self.from_loss * r3) @ t2
        self.total = (self.from_gain * r2) @ t1

        A = self.total
        a22 = A[:, 1, 1]
        t = 1.0 / a22
        t_alt = (_mul(A[:, 0, 0], a22) - _mul(A[:, 0, 1], A[:, 1, 0])) / a22
        # written so that a chain that overflowed to inf or nan is singular
        self.singular = ~((_abs(a22) >= scattering.A22_MIN)
                          & (_abs(t - t_alt)
                             <= scattering.TRANSMISSION_TOL * np.maximum(_abs(t), 1e-300)))
        self.s = Amplitudes(-A[:, 1, 0] / a22, t, A[:, 0, 1] / a22)
        # rows where noise.layer_commutator's math.exp(+-2u) overflows
        n_imag = np.maximum(np.abs(self.ng.imag), np.abs(self.nl.imag))
        self.exp_overflow = 2 * (n_imag * k * l) > _EXP_MAX

    def inconsistent(self, rows: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Where lam, S's eigenvalues at rows, misses scattering.eigenvalues' closed form."""
        A = self.total[rows]
        b = A[:, 0, 1] - A[:, 1, 0]
        root = np.sqrt(_mul(b, b) + _mul(4 * A[:, 0, 0], A[:, 1, 1]))
        two_a22 = 2 * A[:, 1, 1]
        c1, c2 = (b + root) / two_a22, (b - root) / two_a22
        l1, l2 = lam[:, 0], lam[:, 1]
        scale = np.maximum(np.maximum(_abs(l1), _abs(l2)), 1e-300)
        mismatch = np.maximum(np.minimum(_abs(l1 - c1), _abs(l1 - c2)),
                              np.minimum(_abs(l2 - c1), _abs(l2 - c2)))
        return mismatch > scattering.EIGENVALUE_TOL * scale

    def layer_terms(self, rows: np.ndarray):
        """[(n, D, K)] at rows for the gain layer, then the loss layer, as
        noise.layer_terms builds them (_coupling and layer_commutator)."""
        A = self.total[rows]
        a12, a22 = A[:, 0, 1], A[:, 1, 1]
        inv = 1.0 / a22
        k, l = self.k[rows], self.l
        terms = []
        for n, B, sign in ((self.ng[rows], self.from_gain[rows], 1.0),
                           (self.nl[rows], self.from_loss[rows], -1.0)):
            d = inv[:, None, None] * _stack(-B[:, 1, 0], -B[:, 1, 1],
                                            _mul(B[:, 0, 0], a22) - _mul(a12, B[:, 1, 0]),
                                            _mul(B[:, 0, 1], a22) - _mul(a12, B[:, 1, 1]))
            nr, ni = n.real, n.imag
            u, v = ni * k * l, nr * k * l
            phase = _cis(sign * v)
            ratio = ni / nr   # the evanescent limit where it overflows, as in the scalar
            x = np.where((nr == 0.0) | np.isinf(ratio), -2.0 * ni * k * l,
                         -2.0 * ratio * np.sin(v))
            q = _mul(_cx(x, 0.0), phase)
            scale = 1.0 if self.paper else nr / _abs(n)
            same = 1.0 - _each(math.exp, -2 * u)
            counter = _each(math.exp, 2 * u) - 1.0
            kmat = _stack(_cx(scale * same, 0.0), _cx(scale * q.real, scale * q.imag),
                          _cx(scale * q.real, scale * -q.imag), _cx(scale * counter, 0.0))
            terms.append((n, d, kmat))
        return terms


# ---------------------------------------------------------------------------
# scattering amplitudes and observables, for either theory


class Amplitudes:
    """(r_left, t, r_right) arrays, and T, R_left and R_right derived from them
    once, named and rounded as ScatteringAmplitudes' properties."""

    def __init__(self, r_left, t, r_right):
        self.r_left, self.t, self.r_right = r_left, t, r_right
        self.T, self.R_left, self.R_right = (media.libm_square(_abs(a))
                                             for a in (t, r_left, r_right))

    def matrices(self) -> np.ndarray:
        return _stack(self.r_left, self.t, self.t, self.r_right)


def _family_cells(family: str, s: Amplitudes, flux, spec, cells: _Cells) -> dict:
    """The cells of a family in COMPARED for one theory, whose amplitudes and
    noise flux (s_left, s_right) are s and flux; mandel fails its rows with
    DegenerateDenominator. The cell rules are the scalar library's.
    """
    inp = spec.input_state
    if family == "scattering":
        pl, pr, pt = np.angle(s.r_left), np.angle(s.r_right), np.angle(s.t)
        # phase_t unwrapped over the rows whose phase_t cell gets filled
        valid = cells.live & ~np.isnan(pt)
        unwrapped = np.full_like(pt, np.nan)
        unwrapped[valid] = np.unwrap(pt[valid])
        gen, phase = scattering.conservation_parts(s)
        return {"T": s.T, "R_left": s.R_left, "R_right": s.R_right, "phase_t": pt,
                "phase_r_left": pl, "phase_r_right": pr, "phase_t_unwrapped": unwrapped,
                "conservation_generalized": gen, "conservation_phase": phase}
    if family == "noise":
        deficit = noise.unitarity_deficit(s)
        return {"s_right": flux[1], "s_left": flux[0], "deficit_left": deficit["left"],
                "deficit_right": deficit["right"]}
    if family == "variance":
        cos = _each(math.cos, inp.phi_xi - 2.0 * spec.phi_lo - 2.0 * np.angle(s.t))
        return {"variance": observables.variance_from(s.T, cos, flux[1], inp)}
    num, den = observables.mandel_parts(s.T, flux[1], inp)
    cells.fail(np.abs(den) < observables.DENOMINATOR_MIN, observables.DegenerateDenominator)
    return {"mandel_q": num / den}


def _rel_dev(eff, exact):
    return np.abs(eff - exact) / np.maximum(np.abs(exact), 1e-300)


# ---------------------------------------------------------------------------
# the grid


class _Cells:
    """Column arrays by family, statuses and the rows still being evaluated:
    the rows of a stack, or of the grid."""

    def __init__(self, n: int):
        self.n = n
        self.families: dict[str, dict[str, np.ndarray]] = {}
        self.status = np.full(n, "ok", dtype=object)
        self.live = np.ones(n, dtype=bool)

    def rows(self) -> np.ndarray:
        return np.flatnonzero(self.live)

    def put(self, family: str, rows: np.ndarray, values: dict) -> None:
        """Write values (arrays with one entry per row in rows, or one entry
        for them all) where rows are live."""
        columns = self.families.setdefault(family, {})
        keep = self.live[rows]
        for name, v in values.items():
            if v.shape != rows.shape:
                v = np.broadcast_to(v, rows.shape)
            col = columns.get(name)
            if col is None:
                col = columns[name] = np.full(self.n, np.nan, dtype=v.dtype)
            col[rows[keep]] = v[keep]

    def fail(self, where, error: type) -> None:
        """The live rows among where (a mask or row indices) stop with status error.__name__."""
        hit = np.zeros_like(self.live)
        hit[where] = self.live[where]
        self.status[hit] = error.__name__
        self.live[hit] = False

    def spread(self, n: int) -> "_Cells":
        """These cells over n grid rows: themselves when they have n rows, else
        their one row repeated."""
        if self.n == n:
            return self
        out = _Cells(n)
        out.status, out.live = np.repeat(self.status, n), np.repeat(self.live, n)
        out.families = {family: {name: np.repeat(v, n) for name, v in columns.items()}
                        for family, columns in self.families.items()}
        return out


def _eigenvalue_cells(cells: _Cells, exact, s: Amplitudes) -> None:
    """The eigenvalues family: S's eigenvalues, checked against the exact stack's
    closed form when there is one, and for either theory ordered as
    scattering.eigenvalues orders them (ties in modulus by ascending argument)."""
    rows = cells.rows()
    lam = np.linalg.eigvals(s.matrices()[rows])
    if exact is not None:
        cells.fail(rows[exact.inconsistent(rows, lam)], scattering.InconsistentEigenvalues)
    a, b = lam[:, 0], lam[:, 1]
    ma, mb = _abs(a), _abs(b)
    tie = np.abs(ma - mb) <= scattering.MODULUS_TIE_TOL * np.maximum(np.maximum(ma, mb), 1e-300)
    swap = np.where(tie, np.angle(a) > np.angle(b), ma < mb)
    l1, l2 = np.where(swap, b, a), np.where(swap, a, b)
    m1, m2 = _abs(l1), _abs(l2)
    cells.put("eigenvalues", rows, {
        "lambda1_mod": m1, "lambda1_arg": np.angle(l1),
        "lambda2_mod": m2, "lambda2_arg": np.angle(l2),
        "unimodularity_dev": np.maximum(np.abs(m1 - 1), np.abs(m2 - 1)),
        "phase_class": scattering.phase_classes(l1, l2)})


def _cmath_each(fn, z, cells: _Cells, where=True) -> np.ndarray:
    """fn (a cmath function) element by element at the live rows of where,
    nan elsewhere; a row where fn raises OverflowError fails with it."""
    out = np.full(len(z), np.nan, dtype=complex)
    rows = np.flatnonzero(cells.live & where)
    args = z[rows].tolist()
    try:
        out[rows] = [fn(v) for v in args]
    except OverflowError:
        for i, v in zip(rows.tolist(), args):
            try:
                out[i] = fn(v)
            except OverflowError:
                cells.fail(i, OverflowError)
    return out


def _scale(z, x) -> np.ndarray:
    """z * x for a float x, as Python multiplies a complex by x + 0j."""
    return _mul(z, _cx(x, 0.0))


def _square(z, cells: _Cells, where=True) -> np.ndarray:
    """z ** 2 as Python takes it, 1 * (z * z); a row of where fails with
    OverflowError where a part is infinite, as Python raises there."""
    p = _mul(1 + 0j, _mul(z, z))
    cells.fail(where & (np.isinf(p.real) | np.isinf(p.imag)), OverflowError)
    return p


def _py_abs(z, cells: _Cells, where=True) -> np.ndarray:
    """abs(z); a row of where fails with OverflowError where Python raises,
    where the parts are finite and the modulus is not."""
    m = _abs(z)
    cells.fail(where & np.isinf(m) & np.isfinite(z), OverflowError)
    return m


def _bloch_index(cells: _Cells, indices, k, l) -> np.ndarray:
    """effective.bloch_index at the live rows; a row fails where it raises."""
    ng, nl = indices
    two_kl = 2 * k * l
    limit = two_kl == 0   # k l underflowed: sqrt of the mean permittivity
    cells.fail(~np.isfinite(two_kl), effective.BranchAmbiguity)
    x, y = (_scale(_scale(n, k), l) for n in indices)
    cos_x, cos_y, sin_x, sin_y = (_cmath_each(fn, z, cells, ~limit) for fn, z in
                                  ((cmath.cos, x), (cmath.cos, y), (cmath.sin, x), (cmath.sin, y)))
    mix = _mul(0.5 + 0j, _py_div(ng, nl) + _py_div(nl, ng))
    rhs = _mul(cos_x, cos_y) - _mul(_mul(mix, sin_x), sin_y)
    n = _py_div(_cmath_each(cmath.acos, rhs, cells, ~limit), _cx(two_kl, 0.0))
    modulus = _py_abs(n, cells, ~limit)
    lower = np.where(nl.imag < ng.imag, nl.imag, ng.imag)   # min(ng.imag, nl.imag)
    n = np.where((np.abs(n.real) < effective.TIE_TOL * modulus) & (lower < 0) & (n.imag > 0),
                 -n, n)
    phase = _py_abs(_scale(_scale(_mul(2 + 0j, n), k), l), cells, ~limit)
    cells.fail(~(phase <= effective.CELL_PHASE_MAX) & ~limit, effective.BranchAmbiguity)
    mean = _py_div(_mul(ng, ng) + _mul(nl, nl), _cx(2.0, 0.0))
    return np.where(limit, _cmath_each(cmath.sqrt, mean, cells, limit), n)


def _round_trip(cells: _Cells, n, kl) -> np.ndarray:
    """effective.round_trip at the live rows; a row fails where it raises."""
    ratio = _square(_py_div(n - 1, n + 1), cells)
    return _mul(ratio, _cmath_each(cmath.exp, _scale(_mul(4j, n), kl), cells))


def _slab(cells: _Cells, n, kl, where=True) -> Amplitudes:
    """effective.effective_amplitudes at the live rows of where; a row fails
    with LasingPole or OverflowError where it raises."""
    plus, minus = _square(n + 1, cells, where), _square(n - 1, cells, where)
    round_trip = _cmath_each(cmath.exp, _scale(_mul(4j, n), kl), cells, where)
    den = plus - _mul(minus, round_trip)
    modulus = _py_abs(den, cells, where)
    cells.fail(where & ~(modulus >= effective.POLE_MIN), effective.LasingPole)
    forward = _cmath_each(cmath.exp, _scale(_mul(2j, n - 1), kl), cells, where)
    back = _cmath_each(cmath.exp, _scale(-2j, kl), cells, where)
    t = _py_div(_mul(_mul(4 + 0j, n), forward), den)
    r = _py_div(_mul(_mul(_mul(n, n) - 1, round_trip - 1), back), den)
    return Amplitudes(r, t, r)


def _deficit(cells: _Cells, s: Amplitudes, where=True) -> np.ndarray:
    """noise.unitarity_deficit(s)["right"]; a row fails with OverflowError
    where Python's abs(.) ** 2 of t or r raises."""
    overflow = ((np.isinf(s.T) & np.isfinite(s.t))
                | (np.isinf(s.R_right) & np.isfinite(s.r_right)))
    cells.fail(where & overflow, OverflowError)
    return noise.unitarity_deficit(s)["right"]


def _slab_flux(cells: _Cells, n, s: Amplitudes, eps, kl, nth) -> np.ndarray:
    """effective.effective_noise's flux (s_left = s_right) at the live rows of
    the stack, at the thermal occupations nth: the stack gives the slope and
    the deficit, and the pump broadcasts over nth. A row fails where it
    raises, in either slab of the central difference."""
    eg, el = (np.abs(e.imag) for e in eps)
    pump = 0.5 * (eg + el) * (2.0 * nth + 1.0)
    square = _mul(n, n)
    deficit = _deficit(cells, s)
    larger = np.where(el > eg, el, eg)   # max(eg, el, 1e-300), nan as Python orders it
    scale = np.where(1e-300 > larger, 1e-300, larger)
    balance = np.abs(square.imag) < effective.BALANCE_TOL * scale
    h = effective.DIFFERENCE_STEP * scale
    dplus, dminus = (_deficit(cells, _slab(cells, _cmath_each(
        cmath.sqrt, square + _scale(d, h), cells, balance), kl, balance), balance)
        for d in (1j, -1j))
    slope = (dplus - dminus) / (2 * h)
    return np.where(balance, pump * slope / 2.0 - 0.5 * deficit,
                    deficit * (pump / (2.0 * square.imag) - 0.5))


def _occupations(omega, temperature) -> np.ndarray:
    """noise.thermal_occupation element by element over the broadcast of omega
    and temperature, a number or an array each."""
    omega, temperature = np.broadcast_arrays(omega, temperature)
    return np.array([noise.thermal_occupation(w, t) for w, t in
                     zip(omega.ravel().tolist(), temperature.ravel().tolist())])


def _effective_rows(spec, wants, omega, nth, eps, indices, cells: _Cells):
    """Effective-medium cells over the live rows of the stack: the scalar
    library's slab, step by step over arrays, each row stopping at its first
    failure.

    omega is the stack's frequency array, as layer_arrays took it, and eps and
    indices are the stack's (gain, loss) pairs from layer_arrays; nth holds the
    grid's thermal occupations (_occupations). Puts the eta family's cells, and
    returns the slab's Amplitudes and its (s_left, s_right) flux over the grid,
    or (None, None) when the spec needs no effective slab.
    """
    want_s = spec.theory != "exact" and bool(wants & EXACT_FAMILIES)
    l = spec.thickness_nm * NM
    k = omega / C_VACUUM
    kl = k * l
    n_eff = _bloch_index(cells, indices, k, l)
    every = np.arange(cells.n)
    if "eta" in wants:
        eta = _round_trip(cells, n_eff, kl)
        eta_mod = _py_abs(eta, cells)
        # written before the effective slab can fail
        cells.put("eta", every, {"n_eff_re": n_eff.real, "n_eff_im": n_eff.imag,
                                 "eta_mod": eta_mod, "eta_arg": np.angle(eta)})
    if not want_s:
        return None, None
    s = _slab(cells, n_eff, kl)
    if not wants & FLUX_FAMILIES:
        return s, None
    flux = _slab_flux(cells, n_eff, s, eps, kl, nth)
    return s, (flux, flux)


# Rows that overflow or divide by zero carry inf and nan into their cells and
# statuses, as the scalar path's rows do; numpy need not warn about them.
@np.errstate(all="ignore")
def evaluate_grid(spec, xs):
    """Every column of the spec's table except status, at every grid value.

    Returns (columns, status). columns maps each column name, in table order,
    to an array with one entry per grid value (nan where that row never
    filled the cell): the grid variable, then each requested family in
    OBSERVABLE_ORDER, and within a family its columns for the main theory
    and, with theory="both", the _effective and _rel_dev columns of what
    COMPARED names. status is "ok" or the name of the row's first failure,
    one of ROW_ERRORS, met in the order the scalar evaluation meets them: exact
    scattering, the layer commutators (OverflowError), the sum rule
    (SumRuleViolation is raised, not recorded), the effective medium
    (OverflowError too where cmath overflows), the eigenpair, the Mandel
    denominator. spec.check_sum_rule checks every row of the exact chain.

    Each stage runs once per distinct value of what it reads: the stack (chain,
    S, eigenpair, layer terms with the flux's flux_0 and E, sum rule, effective
    slab, scattering and eigenvalues cells) per (alpha_l, omega), so one row on
    a temperature sweep; the thermal occupation per (omega, temperature); the
    flux flux_0 + N_th E and the noise, variance and mandel cells per grid row.
    """
    xs = np.asarray(xs, dtype=float)
    alpha_l, omega, temperature = grid_parameters(spec, xs)
    wants = frozenset(spec.observables)
    use_exact = spec.theory in ("exact", "both")
    both = spec.theory == "both"

    nth = _occupations(omega, temperature) if wants & FLUX_FAMILIES else None
    alpha_s, omega_s = np.atleast_1d(*np.broadcast_arrays(alpha_l, omega))
    cells = _Cells(len(alpha_s))
    eps, indices = layer_arrays(spec, alpha_s, omega_s)
    exact = s_main = flux_main = None
    if use_exact and wants & EXACT_FAMILIES:
        exact = ExactStack(spec, indices, omega_s)
        cells.fail(exact.singular, scattering.SingularTransfer)
        s_main = exact.s
        if wants & FLUX_FAMILIES or spec.check_sum_rule:
            cells.fail(exact.exp_overflow, OverflowError)
            rows = cells.rows()
            terms = exact.layer_terms(rows)
            if spec.check_sum_rule:
                noise.enforce_sum_rule(terms, s_main.matrices()[rows])
            if wants & FLUX_FAMILIES:
                parts = np.full((2, 2, cells.n), np.nan)
                parts[..., rows] = noise.flux_parts(terms)
                flux_main = noise.fluxes(parts, nth)

    s_eff = flux_eff = None
    if spec.theory != "exact" or "eta" in wants:
        s_eff, flux_eff = _effective_rows(spec, wants, omega_s, nth, eps, indices, cells)
    if not use_exact:
        s_main, flux_main = s_eff, flux_eff

    # s_main (and, with both theories, s_eff) exists for every exact family,
    # flux_main (and flux_eff) for every flux family; the families before the
    # flux families are the stack's, whose cells then spread over the grid
    for family in OBSERVABLE_ORDER:
        if family in FLUX_FAMILIES:
            cells = cells.spread(len(xs))
        if family not in wants or family == "eta":   # eta is filled with the slab
            continue
        if family == "eigenvalues":
            _eigenvalue_cells(cells, exact, s_main)
            continue
        every = np.arange(cells.n)
        main = _family_cells(family, s_main, flux_main, spec, cells)
        cells.put(family, every, main)
        if both:
            eff = _family_cells(family, s_eff, flux_eff, spec, cells)
            names = COMPARED[family]
            cells.put(family, every, {f"{c}_effective": eff[c] for c in names})
            cells.put(family, every, {f"{c}_rel_dev": _rel_dev(eff[c], main[c])
                                      for c in names})

    columns = {VARIABLE_COLUMNS[spec.variable]: xs}
    for family in OBSERVABLE_ORDER:
        columns.update(cells.families.get(family, {}))
    return columns, cells.status
