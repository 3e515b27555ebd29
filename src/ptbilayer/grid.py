"""Batched evaluation of a sweep grid, and the table schema.

evaluate_grid computes every table cell of a SweepSpec over a whole grid of
(alpha_l, omega, temperature) in one pass of array operations: the layer
permittivities and indices; for the exact theory the five chain factors as
stacked (N, 2, 2) arrays, S, the eigenpair, each layer's noise coupling and
commutator (built once for both the flux and the sum rule check) and the
flux; for the effective theory and eta, beside it and row by row, the Bloch
index, the round trip, the slab and its central-difference flux; then the
table cells.
Each is evaluated once per distinct value of the parameters it reads, so a
temperature sweep builds one stack. A row stops at its first failure, one
of ROW_ERRORS, and keeps the cells filled before it: the rule that fails
rows calls _Cells.fail(where, error), where picking them as a numpy index
does. The columns come out in table order, so this module is the one place
that names them.

The kernel restates only the eigenpair ordering, unimodularity_dev and the
variance cosine, which shared would cost locate time. It calls each other
rule of the scalar modules on arrays: the layer index (np.sqrt, as in
media.refractive_index), the chain (scattering.transfer_chain over the
stack's indices and frequencies), S (scattering_rows, the rows' form of
scattering_from_transfer), D and K (noise.layer_terms of the rows' chain),
misses_closed_form, T and R (ScatteringAmplitudes), flux_parts and fluxes;
and effective's slab formulas (bloch, eta, slab and slab_flux, each written
once on Python numbers) on each live stack row's numbers, which
slab_flux_of then combines with the grid's thermal occupations. The
interface matrix, S, D, K and flux_parts's sign bookkeeping also have a
form for one point on Python numbers, which locate calls and the kernel
does not, chosen by the input's type; each row of their array forms equals
it bit for bit. A point gains no numpy call from the rows' forms: sending
its arithmetic through them made each exact locate evaluation 15-19%
slower in a prototype. The array forms follow the scalar rounding with
scattering's helpers (_cx, _mul, _py_div, _cis, _each, _stack):

- complex products that the scalar path forms on scalars are written out in
  real arithmetic, because numpy's SIMD complex multiply fuses multiply-adds
  and scalar multiplication does not; Python multiplies a complex by a float
  x as by x + 0j (the tests check this rule, which Python 3.14's C99 mixed
  arithmetic may change);
- Python complex divisions use Python's algorithm, which divides by the
  denominator where numpy multiplies by its reciprocal;
- moduli are np.hypot, squares go through the C library's pow, and the
  math-module exponentials, cosines and thermal occupations are taken
  element by element.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import effective, media, noise, observables, scattering
from .media import C_VACUUM, K_BOLTZMANN, NM, TRAD, Bilayer
from .scattering import ScatteringAmplitudes, _each

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


def grid_parameters(spec, x, fixed: dict | None = None):
    """(alpha_l, omega_rad_s, temperature_k) at grid value x: a float, or an
    array of grid values (the fixed parameters stay floats). fixed is
    fixed_values(spec), when the caller has read it once for many x."""
    values = (fixed_values(spec) if fixed is None else fixed) | {spec.variable: x}
    return values["alpha_l"], values["omega"] * TRAD, values["temperature"]


def bilayer_at(spec, alpha_l: float) -> Bilayer:
    thickness = spec.thickness_nm * NM
    if spec.preset is not None:
        return media.preset(spec.preset, alpha_l, thickness)
    gain, loss = spec.materials
    return Bilayer(gain=gain, loss=replace(loss, alpha=alpha_l),
                   layer_thickness=thickness)


def layer_values(spec, template: Bilayer, alpha_l, omega):
    """((eps_gain, eps_loss), (n_gain, n_loss)) at alpha_l and omega, numbers
    or arrays, n = np.sqrt(eps) as in media.refractive_index. The media are
    template's, bilayer_at(spec, 0.0), with the amplitudes at alpha_l; raises
    ValueError where the scalar path would."""
    if _anywhere(omega <= 0):
        raise ValueError("omega must be positive")
    if spec.preset is not None:
        if _anywhere(alpha_l < 0):
            raise ValueError("alpha_l must be nonnegative")
        gain_alpha, loss_alpha = media.preset_amplitudes(spec.preset, alpha_l)
    else:
        gain_alpha, loss_alpha = template.gain.alpha, alpha_l
    if not _everywhere(abs(loss_alpha) < math.inf):   # a nan fails the test too
        raise ValueError("alpha must be finite")
    gain, loss = template.gain, template.loss
    eps = (media.lorentz_permittivity(gain.eps_b, gain_alpha, gain.omega0, gain.gamma, omega),
           media.lorentz_permittivity(loss.eps_b, loss_alpha, loss.omega0, loss.gamma, omega))
    return eps, (np.sqrt(eps[0]), np.sqrt(eps[1]))


# np.any and np.all take microseconds over one number, which each locate
# evaluation would pay
def _anywhere(test) -> bool:
    """test, a bool or a bool array, holds somewhere."""
    return test.any() if isinstance(test, np.ndarray) else test


def _everywhere(test) -> bool:
    """test, a bool or a bool array, holds everywhere."""
    return test.all() if isinstance(test, np.ndarray) else test


# ---------------------------------------------------------------------------
# scattering amplitudes and observables, for either theory


def _family_cells(family: str, s: ScatteringAmplitudes, flux, spec, cells: _Cells) -> dict:
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


def _eigenvalue_cells(cells: _Cells, chain, s: ScatteringAmplitudes) -> None:
    """The eigenvalues family: S's eigenvalues, checked against the closed form
    of the exact stack's chain when there is one, and for either theory ordered
    as scattering.eigenvalues orders them (ties in modulus by ascending argument)."""
    rows = cells.rows()
    lam = np.linalg.eigvals(s.matrix()[rows])
    if chain is not None:
        cells.fail(rows[scattering.misses_closed_form(chain.total[rows], lam)],
                   scattering.InconsistentEigenvalues)
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


def _slab_rows(cells: _Cells, indices, eps, k, l: float, eta: bool, slab: bool, flux: bool):
    """effective's formulas on the Python numbers of each live stack row: the
    Bloch index; with eta the round trip, whose cells are written before the
    row's slab can fail; with slab the amplitudes and, with flux, the flux
    parts. A row stops at its first failure, one of ROW_ERRORS. Returns the
    slab's ScatteringAmplitudes and effective.slab_flux's parts as arrays
    over the stack's rows, nan where a row stopped."""
    nan = complex(math.nan, math.nan)
    ng, nl, eg, el, k = (a.tolist() for a in (*indices, *eps, k))
    n_eff, round_trip, r, t = ([nan] * cells.n for _ in range(4))
    modulus, failed = [math.nan] * cells.n, []
    parts = [[False] * cells.n] + [[math.nan] * cells.n for _ in range(4)]
    for i in cells.rows().tolist():
        kl = k[i] * l
        try:
            n = effective.bloch(ng[i], nl[i], k[i], l)
            if eta:
                z = effective.eta(n, kl)
                modulus[i], round_trip[i], n_eff[i] = abs(z), z, n
            if slab:
                r[i], t[i] = effective.slab(n, kl)
                if flux:
                    for column, part in zip(parts, effective.slab_flux(
                            n, r[i], t[i], (eg[i], el[i]), kl)):
                        column[i] = part
        except ROW_ERRORS as exc:
            failed.append((i, type(exc)))
    if eta:   # the rows that fail after the round trip keep these cells
        n_eff, round_trip = np.array(n_eff), np.array(round_trip)
        cells.put("eta", np.arange(cells.n), {
            "n_eff_re": n_eff.real, "n_eff_im": n_eff.imag,
            "eta_mod": np.array(modulus), "eta_arg": np.angle(round_trip)})
    for i, error in failed:
        cells.fail(i, error)
    r = np.array(r, dtype=complex)
    return ScatteringAmplitudes(r, np.array(t, dtype=complex), r), tuple(map(np.array, parts))


def _occupations(omega, temperature) -> np.ndarray:
    """noise.thermal_occupation element by element over the broadcast of omega
    and temperature, a number or an array each. Where k_B T is 0 (and omega
    and T are valid) it is 0, as thermal_occupation states, without a call."""
    omega, temperature = (a.ravel() for a in np.broadcast_arrays(omega, temperature))
    nth = np.zeros(omega.shape)
    warm = ~((omega > 0) & (temperature >= 0) & (K_BOLTZMANN * temperature == 0))
    nth[warm] = [noise.thermal_occupation(w, t) for w, t in
                 zip(omega[warm].tolist(), temperature[warm].tolist())]
    return nth


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
    flux_wanted = bool(wants & FLUX_FAMILIES)
    # the theories whose S (and flux) the families read, the main one first
    theories = [t for t in ("exact", "effective")
                if spec.theory in (t, "both") and wants & EXACT_FAMILIES]

    nth = _occupations(omega, temperature) if flux_wanted else None
    alpha_s, omega_s = np.atleast_1d(*np.broadcast_arrays(alpha_l, omega))
    cells = _Cells(len(alpha_s))
    template = bilayer_at(spec, 0.0)
    eps, indices = layer_values(spec, template, alpha_s, omega_s)
    s, flux = {}, {}   # by theory
    chain = None
    if "exact" in theories:
        chain = scattering.transfer_chain(template, omega_s, spec.mode, indices)
        s["exact"], singular = scattering.scattering_rows(chain.total)
        cells.fail(singular, scattering.SingularTransfer)
        if flux_wanted or spec.check_sum_rule:
            cells.fail(noise.exp_overflow(chain), OverflowError)
            rows = cells.rows()
            terms = noise.layer_terms(chain.at(rows))
            if spec.check_sum_rule:
                noise.enforce_sum_rule(terms, s["exact"].matrix()[rows])
            if flux_wanted:
                parts = np.full((2, 2, cells.n), np.nan)
                parts[..., rows] = noise.flux_parts(terms)
                flux["exact"] = noise.fluxes(parts, nth)

    # the effective slab, row by row over the live rows of the stack
    if "effective" in theories or "eta" in wants:
        s_eff, parts = _slab_rows(cells, indices, eps, omega_s / C_VACUUM, spec.thickness_nm * NM,
                                  "eta" in wants, "effective" in theories, flux_wanted)
        if "effective" in theories:
            s["effective"] = s_eff
            if flux_wanted:   # s_left = s_right
                flux["effective"] = (effective.slab_flux_of(parts, nth)[0],) * 2

    # the families before the flux families are the stack's, whose cells then
    # spread over the grid
    for family in OBSERVABLE_ORDER:
        if family in FLUX_FAMILIES:
            cells = cells.spread(len(xs))
        if family not in wants or family == "eta":   # eta is filled with the slab
            continue
        main, *compared = theories
        if family == "eigenvalues":
            _eigenvalue_cells(cells, chain, s[main])
            continue
        every = np.arange(cells.n)
        cols = _family_cells(family, s[main], flux.get(main), spec, cells)
        cells.put(family, every, cols)
        for theory in compared:   # the effective theory beside the exact
            eff = _family_cells(family, s[theory], flux.get(theory), spec, cells)
            names = COMPARED[family]
            cells.put(family, every, {f"{c}_effective": eff[c] for c in names})
            cells.put(family, every, {f"{c}_rel_dev": _rel_dev(eff[c], cols[c])
                                      for c in names})

    columns = {VARIABLE_COLUMNS[spec.variable]: xs}
    for family in OBSERVABLE_ORDER:
        columns.update(cells.families.get(family, {}))
    return columns, cells.status
