"""Batched grid kernel against the scalar library it reproduces."""

import cmath
import collections
import json
import math
import operator
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ptbilayer
from ptbilayer import effective, grid, media, noise, observables, scattering, sweep_cli
from ptbilayer.media import TRAD, LorentzMedium
from ptbilayer.observables import SqueezedCoherentInput
from ptbilayer.scattering import InconsistentEigenvalues
from ptbilayer.sweep_cli import ResultTable, SweepSpec, grid_values, run_sweep

EXACT = ("scattering", "eigenvalues", "noise", "variance", "mandel")
STATUSES = {"ok", *(e.__name__ for e in grid.ROW_ERRORS)}


def medium(alpha):
    return st.builds(lambda eps_b, a, w0, g: LorentzMedium(eps_b, a, w0 * TRAD, g * TRAD),
                     st.floats(1.0, 5.0), alpha, st.floats(300.0, 2000.0),
                     st.floats(10.0, 300.0))


def ordered(lam):
    """An eigenvalue pair as scattering.eigenvalues orders it: by descending
    modulus, ties within 1e-12 relative by ascending argument."""
    l1, l2 = lam
    m1, m2 = abs(l1), abs(l2)
    if abs(m1 - m2) <= 1e-12 * max(m1, m2, 1e-300):
        return (l2, l1) if np.angle(l1) > np.angle(l2) else (l1, l2)
    return (l2, l1) if m1 < m2 else (l1, l2)


def stack_chain(spec, xs):
    """The chain of the stack rows that evaluate_grid builds over the grid values
    xs of an alpha_l or omega sweep, or of a temperature sweep's repeated stack."""
    alpha_ls, omega, _ = np.broadcast_arrays(*grid.grid_parameters(spec, xs))
    template = grid.bilayer_at(spec, 0.0)
    indices = grid.layer_values(spec, template, alpha_ls, omega)[1]
    return scattering.transfer_chain(template, omega, spec.mode, indices)


def scalar_row(spec, x):
    """Status and values of one row, from the scalar library, in the order a
    table row meets its failures; s and flux are the main theory's."""
    alpha_l, omega, theta = grid.grid_parameters(spec, float(x))
    bil = grid.bilayer_at(spec, alpha_l)
    l = bil.layer_thickness
    eps = (media.permittivity(bil.gain, omega), media.permittivity(bil.loss, omega))
    exact = spec.theory != "effective"
    out = {}
    try:
        if exact:
            chain = out["chain"] = scattering.transfer_chain(bil, omega, spec.mode)
            s = out["s"] = scattering.scattering_from_transfer(chain)
            flux = out["flux"] = noise.noise_flux(bil, omega, spec.mode, theta)
            out["residual"] = noise.sum_rule_residual(bil, omega, spec.mode)
        if spec.theory != "exact" or "eta" in spec.observables:
            n_eff = out["n_eff"] = effective.bloch_index(
                scattering.layer_indices(bil, omega), omega, l)
            out["round_trip"] = effective.round_trip(n_eff, omega, l)
        if spec.theory != "exact":
            s_eff = out["s_eff"] = effective.effective_amplitudes(n_eff, omega, l)
            flux_eff = out["flux_eff"] = effective.effective_noise(
                n_eff, s_eff, eps, omega, l, theta)
        if not exact:
            s, flux = out["s"], out["flux"] = s_eff, flux_eff
        out["scattering_cells"] = True
        out["eigenvalues"] = (scattering.eigenvalues(chain) if exact else
                              ordered(np.linalg.eigvals(s.matrix())))
        out["variance"] = observables.homodyne_variance(
            s, flux["s_right"], spec.input_state, spec.phi_lo)
        if spec.theory == "both":
            out["variance_effective"] = observables.homodyne_variance(
                s_eff, flux_eff["s_right"], spec.input_state, spec.phi_lo)
        out["mandel_q"] = observables.mandel_q(s, flux["s_right"], spec.input_state)
        if spec.theory == "both":
            out["mandel_q_effective"] = observables.mandel_q(
                s_eff, flux_eff["s_right"], spec.input_state)
        out["status"] = "ok"
    except grid.ROW_ERRORS as exc:
        out["status"] = type(exc).__name__
    return out


def same(a, b):
    """Equal bit for bit, nan equal to nan."""
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@settings(max_examples=400)   # about half the draws are temperature sweeps
@given(gain=medium(st.floats(-5.0, 5.0)), loss=medium(st.just(1.0)),
       alpha_l=st.floats(0.0, 50.0), thickness=st.floats(5.0, 150.0),
       mode=st.sampled_from([scattering.MODE_FULL, scattering.MODE_PAPER]),
       theory=st.sampled_from(["exact", "both", "effective"]), eta=st.booleans(),
       check=st.booleans(), variable=st.sampled_from(["omega", "temperature"]),
       temperature=st.sampled_from([0.0, 300.0]), omega_trad=st.floats(100.0, 3000.0),
       omegas=st.lists(st.floats(100.0, 3000.0), min_size=1, max_size=6),
       temperatures=st.lists(st.floats(0.0, 600.0), min_size=1, max_size=6))
def test_kernel_reproduces_scalar_library(gain, loss, alpha_l, thickness, mode, theory, eta,
                                          check, variable, temperature, omega_trad, omegas,
                                          temperatures):
    # an omega sweep evaluates one stack per row; a temperature sweep one stack
    # for all its rows, and the flux per row from that stack's flux_0 and E
    sweep = variable == "omega"
    spec = SweepSpec(preset=None, materials=(gain, loss), variable=variable,
                     fixed_alpha_l=alpha_l, fixed_omega_trad=None if sweep else omega_trad,
                     thickness_nm=thickness, mode=mode, theory=theory,
                     temperature_k=temperature, observables=EXACT + ("eta",) * eta,
                     check_sum_rule=check and mode == scattering.MODE_FULL)
    xs = np.array(omegas if sweep else temperatures)
    chain = stack_chain(spec, xs)
    s_rows, singular = scattering.scattering_rows(chain.total)
    ok = np.flatnonzero(~singular)
    residuals = dict(zip(ok.tolist(), noise.sum_rule_residuals(
        noise.layer_terms(chain.at(ok)), s_rows.matrix()[ok]).tolist()))
    violated = (spec.check_sum_rule and theory != "effective"
                and not all(r <= noise.SUM_RULE_TOL for r in residuals.values()))
    if violated:
        with pytest.raises(noise.SumRuleViolation):
            grid.evaluate_grid(spec, xs)
        return
    cells, status = grid.evaluate_grid(spec, xs)
    assert set(status) <= STATUSES
    for i, x in enumerate(xs.tolist()):
        ref = scalar_row(spec, x)
        assert status[i] == ref["status"]
        if "chain" in ref:
            point = ref["chain"]
            assert same(chain.total[i], point.total)
            assert same(chain.from_gain[i], point.from_gain)
            assert same(chain.from_loss[i], point.from_loss)
            assert singular[i] == (ref["status"] == "SingularTransfer")
        if "s" not in ref:
            continue
        s = ref["s"]
        if "chain" in ref:
            assert same(s_rows.matrix()[i], s.matrix())
            want = ref["residual"]
            assert abs(residuals[i] - want) <= 1e-14 * max(abs(want), 1e-300)
        if eta and "n_eff" in ref:
            n_eff, round_trip = ref["n_eff"], ref["round_trip"]
            assert same([cells[c][i] for c in ("n_eff_re", "n_eff_im", "eta_mod", "eta_arg")],
                        [n_eff.real, n_eff.imag, abs(round_trip), np.angle(round_trip)])
        if "scattering_cells" not in ref:
            continue
        cons = scattering.conservation_residuals(s)
        for col, want in (("T", s.T), ("R_left", s.R_left), ("R_right", s.R_right),
                          ("phase_t", np.angle(s.t)), ("phase_r_left", np.angle(s.r_left)),
                          ("phase_r_right", np.angle(s.r_right)),
                          ("conservation_generalized", cons["generalized"]),
                          ("conservation_phase",
                           np.nan if cons["phase"] is None else cons["phase"])):
            assert same(cells[col][i], want), col
        if "eigenvalues" not in ref:
            continue
        l1, l2 = ref["eigenvalues"]
        assert same([cells["lambda1_mod"][i], cells["lambda1_arg"][i],
                     cells["lambda2_mod"][i], cells["lambda2_arg"][i],
                     cells["unimodularity_dev"][i]],
                    [abs(l1), np.angle(l1), abs(l2), np.angle(l2),
                     max(abs(abs(l1) - 1), abs(abs(l2) - 1))])
        try:
            phase_class = scattering.classify_phase((l1, l2))
        except InconsistentEigenvalues:
            phase_class = "inconsistent"
        assert cells["phase_class"][i] == phase_class
        for col in ("s_left", "s_right"):
            want = ref["flux"][col]
            assert same(cells[col][i], want), col
        deficit = noise.unitarity_deficit(s)
        assert same([cells["deficit_left"][i], cells["deficit_right"][i]],
                    [deficit["left"], deficit["right"]])
        assert same(cells["variance"][i], ref["variance"])
        if "mandel_q" in ref:
            assert same(cells["mandel_q"][i], ref["mandel_q"])
        if theory != "both":
            continue
        s_eff, flux_eff = ref["s_eff"], ref["flux_eff"]
        effective_cells = {"T": s_eff.T, "R_left": s_eff.R_left, "R_right": s_eff.R_right,
                           "s_right": flux_eff["s_right"], "s_left": flux_eff["s_left"],
                           "variance": ref["variance_effective"]}
        if "mandel_q_effective" in ref:
            effective_cells["mandel_q"] = ref["mandel_q_effective"]
        for col, want in effective_cells.items():
            main = cells[col][i]
            assert same(cells[f"{col}_effective"][i], want), col
            assert same(cells[f"{col}_rel_dev"][i], abs(want - main) / max(abs(main), 1e-300)), col


@given(gain=medium(st.floats(-5.0, 5.0)), loss=medium(st.just(1.0)),
       alpha_l=st.floats(0.0, 50.0), thickness=st.floats(5.0, 150.0),
       mode=st.sampled_from([scattering.MODE_FULL, scattering.MODE_PAPER]),
       temperature=st.sampled_from([0.0, 300.0]),
       omegas=st.lists(st.floats(100.0, 3000.0), min_size=1, max_size=6))
def test_the_flux_of_a_stack_is_the_flux_of_each_row(gain, loss, alpha_l, thickness, mode,
                                                    temperature, omegas):
    # noise.flux_parts contracts a stack's rows as it contracts one point, and
    # noise.fluxes weights them alike, bit for bit, so noise_flux and the grid
    # kernel share them; a point's parts and fluxes are Python floats. Four
    # more rows copy
    # row 0 with a nan in D, an inf in K, an infinite occupation and a nan index
    spec = SweepSpec(preset=None, materials=(gain, loss), variable="omega",
                     fixed_alpha_l=alpha_l, thickness_nm=thickness, mode=mode)
    xs = np.array(omegas)
    chain = stack_chain(spec, xs)
    omega = chain.omega
    n_rows = len(xs)
    copies = np.r_[np.arange(n_rows), 0, 0, 0, 0]
    terms = [(n[copies], d[copies], k[copies]) for n, d, k in noise.layer_terms(chain)]
    (n_gain, d_gain, _), (_, _, k_loss) = terms
    d_gain[n_rows, 0, 1] = np.nan
    k_loss[n_rows + 1, 1, 1] = np.inf
    n_gain[n_rows + 3] = complex(1.0, np.nan)
    nth = [noise.thermal_occupation(w, temperature) for w in omega.tolist()]
    nth = np.array(nth + [nth[0], nth[0], np.inf, nth[0]])
    with np.errstate(all="ignore"):   # the inf rows make nans, as overflowed rows do
        left, right = noise.fluxes(noise.flux_parts(terms), nth)
        assert left.shape == right.shape == (n_rows + 4,)
        for i in range(n_rows + 4):
            point = [(complex(n[i]), d[i].copy(), k[i].copy()) for n, d, k in terms]
            parts = noise.flux_parts(point)
            flux = noise.fluxes(parts, float(nth[i]))
            assert same([left[i], right[i]], flux)
            assert [[type(v) for v in part] for part in (*parts, flux)] == [[float, float]] * 3


# stacks whose effective slab takes the branches the property above never
# draws, with the statuses they give
EFFECTIVE_BRANCHES = {
    "pole": ({"theory": "both", "fixed_omega_trad": 1e-310, "start": 1.0, "stop": 2.0,
              "count": 2}, {"LasingPole": 2}),
    "pole-omega": ({"theory": "effective", "variable": "omega", "start": 1e-300,
                    "stop": 1e-290, "count": 5}, {"LasingPole": 5}),
    "thick": ({"theory": "effective", "fixed_omega_trad": 1000.0, "thickness_nm": 1e5,
               "start": 1.0, "stop": 1000.0, "count": 12},
              {"BranchAmbiguity": 4, "OverflowError": 8}),
    "underflowed-2kl": ({"theory": "both", "fixed_omega_trad": 5e-324, "start": 1.0,
                         "stop": 2.0, "count": 2}, {"ok": 2}),
    # set1's gain permittivity is exactly 0 at the last alpha_l: a zero index
    "zero-index": ({"theory": "effective", "fixed_omega_trad": 1e-322, "thickness_nm": 1e290,
                    "start": 1.0, "stop": 29.85074626865672, "count": 2},
                   {"LasingPole": 1, "BranchAmbiguity": 1}),
    "zero-index-both": ({"theory": "both", "fixed_omega_trad": 1e-322, "thickness_nm": 1e290,
                         "start": 1.0, "stop": 29.85074626865672, "count": 2},
                        {"LasingPole": 1, "SingularTransfer": 1}),
}


@pytest.mark.parametrize("stack, statuses", EFFECTIVE_BRANCHES.values(), ids=EFFECTIVE_BRANCHES)
def test_kernel_takes_every_effective_branch_as_the_scalar_library(stack, statuses):
    spec = SweepSpec(preset="set1", observables=EXACT + ("eta",), **stack)
    xs = grid_values(spec)
    cells, status = grid.evaluate_grid(spec, xs)
    assert collections.Counter(status) == statuses
    suffix = "_effective" if spec.theory == "both" else ""
    for i, x in enumerate(xs):
        ref = scalar_row(spec, x)
        assert status[i] == ref["status"]
        want = dict.fromkeys(["n_eff_re", "n_eff_im", "eta_mod", "eta_arg", "T" + suffix,
                              "R_right" + suffix, "s_right" + suffix], np.nan)
        if "round_trip" in ref:
            n_eff, round_trip = ref["n_eff"], ref["round_trip"]
            want.update(n_eff_re=n_eff.real, n_eff_im=n_eff.imag, eta_mod=abs(round_trip),
                        eta_arg=np.angle(round_trip))
        if ref["status"] == "ok":
            s_eff, flux_eff = ref["s_eff"], ref["flux_eff"]
            want.update({"T" + suffix: s_eff.T, "R_right" + suffix: s_eff.R_right,
                         "s_right" + suffix: flux_eff["s_right"]})
        for col, value in want.items():
            assert same(cells[col][i], value), col


def lasing_pole(kl, turns):
    """An index n at which ((n - 1)/(n + 1))^2 e^{4 i n kl} = 1, with 2 Re(n) kl
    near turns * pi / 2, by fixed-point iteration."""
    n = complex(math.pi * turns / (2 * kl))
    for _ in range(200):
        n = (1j * math.pi * turns + cmath.log((n + 1) / (n - 1))) / (2j * kl)
    return n


@st.composite
def slab_rows(draw):
    """A row of layer indices (ng, nl) and k l for the Bloch index, and a slab
    index n, its k l, permittivities (eps_gain, eps_loss) and N_th for the rest.
    Each index has |.| from 1e-8 to 1e3 and each k l is from 1e-12 to 1e2; nl
    may be ng's balanced partner and ng may vanish, the Bloch k l may be 0 or
    inf, and n may be real (the flux's balance) or a lasing pole."""
    def index():
        return cmath.rect(10.0 ** draw(st.floats(-8.0, 3.0)), draw(st.floats(-math.pi, math.pi)))

    def kl():
        return 10.0 ** draw(st.floats(-12.0, 2.0))

    ng = index() if draw(st.integers(0, 9)) else 0j
    nl = ng.conjugate() if draw(st.booleans()) else index()
    kl_cell = draw(st.one_of(st.builds(kl), st.sampled_from([0.0, math.inf])))
    kind = draw(st.sampled_from(["drawn", "real", "pole"]))
    if kind == "pole":
        kl_slab = draw(st.floats(0.2, 1.0))
        n = lasing_pole(kl_slab, draw(st.sampled_from([1, 2])))
    else:
        kl_slab, n = kl(), index()
        if kind == "real":
            n = complex(abs(n), 0.0)
    eps = (complex(draw(st.floats(1.0, 5.0)), -(10.0 ** draw(st.floats(-3.0, 2.0)))),
           complex(draw(st.floats(1.0, 5.0)), 10.0 ** draw(st.floats(-3.0, 2.0))))
    return ng, nl, kl_cell, n, kl_slab, eps, draw(st.sampled_from([0.0, 0.3, 1e3]))


def scalar_slab(ng, nl, k, l, eps, nth):
    """effective's formulas on one row's numbers, in the kernel's order: the
    Bloch index, the round trip and its modulus, the slab and its flux. The
    values until one raises, and the status."""
    out = {}
    try:
        n = out["n_eff"] = effective.bloch(ng, nl, k, l)
        z = effective.eta(n, k * l)
        out["eta_mod"], out["eta"] = abs(z), z
        r, t = out["s"] = effective.slab(n, k * l)
        out["flux"] = effective.slab_flux_of(effective.slab_flux(n, r, t, eps, k * l), nth)[0]
        return out, "ok"
    except grid.ROW_ERRORS as exc:
        return out, type(exc).__name__


def check_slab_rows(ng, nl, k, l, eps, nth):
    """The kernel's row loop over these rows holds to scalar_slab on each row's
    numbers bit for bit: statuses, the eta cells of each row that got through
    the round trip, the slab and the flux."""
    cells = grid._Cells(len(ng))
    with np.errstate(all="ignore"):   # as in evaluate_grid: stopped rows carry nan
        s, parts = grid._slab_rows(cells, (ng, nl), eps, k, l, True, True, True)
        flux = effective.slab_flux_of(parts, nth)[0]
    eta = cells.families["eta"]
    for i in range(len(ng)):
        ref, status = scalar_slab(complex(ng[i]), complex(nl[i]), float(k[i]), l,
                                 (complex(eps[0][i]), complex(eps[1][i])), float(nth[i]))
        assert cells.status[i] == status
        if "eta_mod" in ref:
            n, z, modulus = ref["n_eff"], ref["eta"], ref["eta_mod"]
        else:   # the row stopped before its eta cells, which stay nan
            n = z = complex(math.nan, math.nan)
            modulus = math.nan
        assert same([eta[c][i] for c in ("n_eff_re", "n_eff_im", "eta_mod", "eta_arg")],
                    [n.real, n.imag, modulus, np.angle(z)])
        if "s" in ref:
            r, t = ref["s"]
            assert same([s.r_left[i], s.t[i], s.r_right[i]], [r, t, r])
        if "flux" in ref:
            assert same(flux[i], ref["flux"])


@settings(max_examples=300)
@given(rows=st.lists(slab_rows(), min_size=1, max_size=8), l=st.floats(1e-9, 1e-6))
def test_the_row_loop_evaluates_each_slab_formula_as_the_scalar_functions(rows, l):
    # the kernel's effective stage holds to effective's formulas on numbers,
    # statuses included, where no media draw reaches: OverflowError,
    # LasingPole and BranchAmbiguity rows among them. The slab index is drawn
    # apart from the cell, so Bloch is made to hand it over for the slab rows
    ng, nl, kl_cell, n, kl, eps, nth = (np.array(c) for c in zip(*rows))
    eps = (eps[:, 0], eps[:, 1])
    check_slab_rows(ng, nl, kl_cell / l, l, eps, nth)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(effective, "bloch", lambda ng, nl, k, l: ng)
        check_slab_rows(n, n, kl / l, l, eps, nth)


def test_a_finite_value_whose_modulus_overflows_ends_its_row(monkeypatch):
    # both parts of this slab's round trip are finite, but its modulus is not:
    # Python's abs raises OverflowError there, which ends the row in the kernel
    n, kl = 1000 - 1j, 177.4600135
    eta = effective.eta(n, kl)
    assert math.isfinite(eta.real) and math.isfinite(eta.imag)
    with pytest.raises(OverflowError):
        abs(eta)
    monkeypatch.setattr(effective, "bloch", lambda ng, nl, k, l: ng)   # the slab index is n
    cells = grid._Cells(2)
    indices, eps = np.array([n, 1.5 + 0j]), np.array([2.0 - 0.1j, 2.0 + 0.1j])
    grid._slab_rows(cells, (indices, indices), (eps, eps), np.array([kl, 0.1]), 1.0,
                    True, False, False)
    assert list(cells.status) == ["OverflowError", "ok"]
    modulus = cells.families["eta"]["eta_mod"]
    assert same(modulus, [math.nan, abs(effective.eta(1.5 + 0j, 0.1))])


def parts(values):
    """The bits of both parts of each entry, signed zeros included."""
    return bits(np.asarray(values, dtype=complex).ravel().tolist())


@st.composite
def shared_rule_rows(draw):
    """A row for each rule that the scalar library and the kernel share: a
    nonzero layer index (|n| from 1e-8 to 1e2, its real part as drawn, exactly
    0, or so small that n''/n' overflows) and a frequency for K; a transfer matrix A
    with det A = 1 and a partial product B for D; S's eigenpair, off the
    closed form by 1e-6 on some rows, for the closed-form check."""
    n = cmath.rect(10.0 ** draw(st.floats(-8.0, 2.0)), draw(st.floats(-math.pi, math.pi)))
    n = complex(draw(st.sampled_from([n.real, 0.0, 5e-324])), n.imag)
    assume(n != 0)   # a zero index makes the chain singular before K is taken
    entry = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3)
    a11, a12, a21 = draw(entry), draw(entry), draw(entry)
    a22 = (1 + a12 * a21) / a11
    assume(a22 != 0)
    A = np.array([[a11, a12], [a21, a22]])
    B = np.array([[draw(entry), draw(entry)], [draw(entry), draw(entry)]])
    lam = np.linalg.eigvals(scattering.ScatteringAmplitudes(
        -A[1, 0] / A[1, 1], 1 / A[1, 1], A[0, 1] / A[1, 1]).matrix())
    lam[0] *= draw(st.sampled_from([1.0, 1.0 + 1e-6]))
    return n, draw(st.floats(100.0, 3000.0)) * TRAD, A, B, lam


def overflowing_rows():
    """Two shared_rule_rows rows at A = 1 whose partial products have entries of
    1e200, so that every Q of D K D^dagger overflows: to +-inf on the first row,
    whose B is diagonal, and to nan on the second."""
    A = np.eye(2, dtype=complex)
    lam = np.linalg.eigvals(np.array([[0, 1], [1, 0]], dtype=complex))   # S of A
    return [(1.5 + 0.1j, 1000.0 * TRAD, A, np.diag([1e200, 1e200]).astype(complex), lam),
            (1.5 - 0.1j, 1000.0 * TRAD, A, np.full((2, 2), 1e200, dtype=complex), lam)]


@settings(max_examples=300)
@given(rows=st.lists(shared_rule_rows(), min_size=1, max_size=6), l=st.floats(1e-9, 1e-7),
       layer=st.sampled_from([2, 3]), mode=st.sampled_from(sorted(scattering._MODE_ALIASES)))
@example(rows=overflowing_rows(), l=1e-7, layer=2, mode=scattering.MODE_FULL)
@example(rows=overflowing_rows(), l=1e-7, layer=3, mode=scattering.MODE_PAPER)
def test_each_shared_rule_rounds_a_row_of_arrays_as_its_numbers(rows, l, layer, mode):
    # each rule that the scalar library and the kernel share gives a row of
    # the kernel's arrays the bits it gives the row's numbers. The closed-form
    # check and T and R are written once; the chain's interface matrices, S,
    # D, K and the flux's sign bookkeeping have a number form and an array
    # form, and each canonicalizes the mode, drawn from every alias. The flux
    # adds a second layer, of the conjugate index (so that one of the two
    # amplifies) and with B's rows swapped; where Q is inf or nan, an
    # absorbing layer's 0 Q makes flux_0 nan in both forms. The interface
    # matrix and the chain take the same two layers, and a row of them is
    # inf or nan, or singular, exactly where the point raises SingularTransfer
    n, omega, A, B, lam = (np.array(c) for c in zip(*rows))
    bilayer = media.preset("set1", 2.0, l)   # the chain reads only its thickness
    amplitudes = (-A[:, 1, 0] / A[:, 1, 1], 1 / A[:, 1, 1], A[:, 0, 1] / A[:, 1, 1])
    other = 5 - layer
    # n''/n' and 2 n''/n' overflow where n' is tiny, which numpy warns about
    with np.errstate(all="ignore"):
        K = noise.layer_commutator(n, omega, l, layer, mode)
        D = noise.layer_coupling(A, B)
        flux = noise.flux_parts([(n, D, K), (n.conj(), noise.layer_coupling(A, B[:, ::-1]),
                                             noise.layer_commutator(n.conj(), omega, l, other,
                                                                    mode))])
        missed = scattering.misses_closed_form(A, lam)
        s = scattering.ScatteringAmplitudes(*amplitudes)
        interface = scattering.interface_matrix(n, n.conj(), omega, l, mode)
        chain = scattering.transfer_chain(bilayer, omega, mode, (n, n.conj()))
        s_rows, singular = scattering.scattering_rows(chain.total)
        for i in range(len(rows)):
            try:
                point = scattering.interface_matrix(complex(n[i]), complex(n[i]).conjugate(),
                                                    float(omega[i]), l, mode)
            except scattering.SingularTransfer:
                assert not np.isfinite(interface[i]).all()
            else:
                assert parts(interface[i]) == parts(point)
            try:
                point = scattering.transfer_chain(bilayer, float(omega[i]), mode,
                                                  (complex(n[i]), complex(n[i]).conjugate()))
                assert parts([point.total, point.from_gain, point.from_loss]) == parts(
                    [chain.total[i], chain.from_gain[i], chain.from_loss[i]])
                s_point = point.s
            except scattering.SingularTransfer:
                assert singular[i]
            else:
                assert not singular[i]
                assert parts([s_rows.r_left[i], s_rows.t[i], s_rows.r_right[i]]) == parts(
                    [s_point.r_left, s_point.t, s_point.r_right])
            k = noise.layer_commutator(complex(n[i]), float(omega[i]), l, layer, mode)
            d = noise.layer_coupling(A[i], B[i])
            assert parts(K[i]) == parts(k)
            assert parts(D[i]) == parts(d)
            conj = complex(n[i]).conjugate()
            point = [(complex(n[i]), d, k),
                     (conj, noise.layer_coupling(A[i], B[i, ::-1]),
                      noise.layer_commutator(conj, float(omega[i]), l, other, mode))]
            assert parts([f[:, i] for f in flux]) == parts(noise.flux_parts(point))
            assert missed[i] == scattering.misses_closed_form(A[i], lam[i])
            point = scattering.ScatteringAmplitudes(*(a[i] for a in amplitudes))
            assert parts([s.T[i], s.R_left[i], s.R_right[i]]) == parts(
                [point.T, point.R_left, point.R_right])


@pytest.mark.parametrize("op, z, x", [
    (operator.mul, complex(math.inf, 1.0), 2.0),   # 0 * inf is nan in the product with x + 0j
    (operator.mul, complex(1.0, -0.0), 2.0),   # -0.0 + 0.0 is +0.0
    (operator.mul, complex(-0.0, 3.0), -0.0),
    (operator.mul, complex(1.5, -2.5), 4),
    (operator.truediv, complex(math.inf, 1.0), 2.0),
    (operator.truediv, complex(1.0, -0.0), 2.0),
    (operator.truediv, complex(1.5, -2.5), 2),
    (operator.add, complex(1.0, -0.0), 2.0),
    (operator.sub, complex(1.0, -0.0), 1),
], ids=["mul-inf", "mul-signed-zero", "mul-zero", "mul-int", "div-inf", "div-signed-zero",
        "div-int", "add-signed-zero", "sub-int"])
def test_python_takes_a_real_operand_of_complex_arithmetic_as_x_plus_0j(op, z, x):
    # K's number form multiplies its real factors with the interpreter's own
    # operators, and scattering._mul repeats this rule of the interpreter for
    # K's array form; C99 mixed real/complex arithmetic (Python 3.14,
    # gh-69639) may change it at an infinite part and at a signed zero, which
    # is unverified on 3.14
    got, rule = op(z, x), op(z, complex(x, 0.0))
    assert struct.pack("<dd", got.real, got.imag) == struct.pack("<dd", rule.real, rule.imag), (
        f"Python no longer takes z {op.__name__} x for a real x as z {op.__name__} (x + 0j): "
        f"{got!r} against {rule!r}; K's number form (noise.layer_commutator) now rounds "
        f"by the new rule and its array form by scattering._mul, which must follow it")


def test_an_inconsistent_eigenpair_ends_its_row(monkeypatch):
    # no stack drawn above misses the closed form, so the solver is made to
    # miss it by 1e-6 relative on every other row; S is the same matrix in
    # the kernel and in scattering.eigenvalues, so both miss at those rows
    spec = SweepSpec(preset="set1", count=5, fixed_omega_trad=1000.0, observables=EXACT)
    xs = grid_values(spec)
    clean, _ = grid.evaluate_grid(spec, xs)
    chains = []
    for x in xs.tolist():
        alpha_l, omega, _ = grid.grid_parameters(spec, x)
        chains.append(scattering.transfer_chain(grid.bilayer_at(spec, alpha_l), omega))
    missed = {tuple(scattering.scattering_from_transfer(chain).matrix().ravel().tolist())
              for chain in chains[::2]}
    eigvals = np.linalg.eigvals

    def missing(a):
        lam = eigvals(a)
        for m, pair in zip(np.reshape(a, (-1, 4)), np.reshape(lam, (-1, 2))):
            if tuple(m.tolist()) in missed:
                pair[0] *= 1 + 1e-6
        return lam

    monkeypatch.setattr(np.linalg, "eigvals", missing)
    cells, status = grid.evaluate_grid(spec, xs)
    assert list(status) == ["InconsistentEigenvalues", "ok"] * 2 + ["InconsistentEigenvalues"]
    assert list(status) == [scalar_row(spec, x)["status"] for x in xs]
    names = list(cells)
    first = names.index("lambda1_mod")   # the columns after the scattering family's
    for i in range(0, len(xs), 2):
        with pytest.raises(InconsistentEigenvalues):
            scattering.eigenvalues(chains[i])
        assert same([cells[c][i] for c in names[:first]], [clean[c][i] for c in names[:first]])
        assert all(math.isnan(cells[c][i]) for c in names[first:])


MATERIALS = (LorentzMedium(2.0, -3.0, 1000.0 * TRAD, 67.0 * TRAD),
             LorentzMedium(2.5, 3.0, 1100.0 * TRAD, 90.0 * TRAD))


@pytest.mark.parametrize("stack", [{"preset": "set2"},
                                   {"preset": None, "materials": MATERIALS}])
@pytest.mark.parametrize("variable, start, stop", [("alpha_l", 0.5, 60.0),
                                                   ("omega", 300.0, 2000.0),
                                                   ("temperature", 0.0, 600.0)])
def test_one_mapping_serves_a_point_and_the_grid(stack, variable, start, stop):
    # grid_parameters at one float is row i of the kernel's broadcast arrays
    spec = SweepSpec(**stack, variable=variable, start=start, stop=stop, count=7,
                     fixed_alpha_l=5.0, temperature_k=30.0)
    xs = grid_values(spec)
    rows = np.broadcast_arrays(*grid.grid_parameters(spec, xs))
    assert all(r.shape == xs.shape and r.dtype == float for r in rows)
    for i, x in enumerate(xs.tolist()):
        point = grid.grid_parameters(spec, x)
        assert all(isinstance(v, float) for v in point)
        assert same([r[i] for r in rows], point)
    fixed = grid.fixed_values(spec)
    assert fixed[variable] is None
    assert sorted(fixed) == ["alpha_l", "omega", "temperature"]


def test_negative_preset_amplitude_is_refused_on_a_grid():
    spec = SweepSpec(preset="set1", start=0.0, stop=2.0, count=3, fixed_omega_trad=1000.0)
    with pytest.raises(ValueError, match="alpha_l must be nonnegative"):
        grid.evaluate_grid(spec, np.array([1.0, -1.0, 2.0]))


def test_layer_terms_are_derived_once_per_grid(monkeypatch):
    # every permittivity, under whichever name it is called, evaluates through
    # media.lorentz_permittivity: once per layer for the whole grid, not per row
    calls = collections.Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((media, "lorentz_permittivity"), (media, "permittivity"),
                         (scattering, "layer_indices"), (grid, "bilayer_at")):
        count(module, name)
    spec = SweepSpec(preset="set1", start=0.0, stop=200.0, count=50, fixed_omega_trad=1000.0,
                     theory="both", observables=grid.OBSERVABLE_ORDER)
    _, status = grid.evaluate_grid(spec, grid_values(spec))
    assert list(status) == ["ok"] * 50
    assert calls == {"lorentz_permittivity": 2, "bilayer_at": 1}


def bits(values):
    """Each complex number's type and the bits of its parts (-0.0 and nan included)."""
    return [(type(z), z.real.hex(), z.imag.hex()) for z in values]


@given(materials=st.one_of(st.sampled_from(["set1", "set2"]),
                           st.tuples(medium(st.floats(-50.0, 50.0)), medium(st.just(1.0)))),
       alpha_l=st.floats(0.0, 1000.0), omega_trad=st.floats(100.0, 3000.0),
       mode=st.sampled_from([scattering.MODE_FULL, scattering.MODE_PAPER]))
def test_a_locate_evaluation_reads_the_layer_values_of_the_stack_at_x(materials, alpha_l,
                                                                       omega_trad, mode):
    # a locate evaluation takes its permittivities and indices off the query's
    # template; they are the Python complex numbers that the stack built at x
    # gives, bit for bit, and so is the chain built from them
    preset = materials if isinstance(materials, str) else None
    spec = SweepSpec(preset=preset, materials=None if preset else materials,
                     fixed_omega_trad=omega_trad, mode=mode, theory="effective")
    seen = {}
    with pytest.MonkeyPatch.context() as m, np.errstate(all="ignore"):
        for name, arg in (("bloch_index", 0), ("effective_noise", 2)):
            fn = getattr(effective, name)
            m.setattr(effective, name, lambda *a, fn=fn, name=name, arg=arg, **k:
                      seen.update({name: a[arg]}) or fn(*a, **k))
        try:
            sweep_cli._threshold_scalar(spec, "squeeze_crossing")(alpha_l)
        except sweep_cli.EvaluationFailed:
            pass
    assume("effective_noise" in seen)   # the slab failed before its flux
    bil = grid.bilayer_at(spec, alpha_l)
    omega = grid.grid_parameters(spec, alpha_l)[1]
    eps = (media.permittivity(bil.gain, omega), media.permittivity(bil.loss, omega))
    indices = scattering.layer_indices(bil, omega)
    assert bits(seen["effective_noise"]) == bits(eps)
    assert bits(seen["bloch_index"]) == bits(indices)
    assert {type(z) for z in (*seen["effective_noise"], *seen["bloch_index"])} == {complex}

    def total(*args):
        try:
            return scattering.transfer_chain(*args).total.tobytes()
        except scattering.SingularTransfer:
            return "SingularTransfer"
    with np.errstate(all="ignore"):
        assert (total(grid.bilayer_at(spec, 0.0), omega, mode, seen["bloch_index"])
                == total(bil, omega, mode))


def test_checked_grid_builds_the_layer_terms_once(monkeypatch):
    # each layer's commutator takes math.exp over the rows twice (e^{-2u} and
    # e^{2u}); the flux and the sum-rule check share one list of terms
    passes, each = [], scattering._each
    monkeypatch.setattr(scattering, "_each", lambda fn, x: passes.append(fn) or each(fn, x))
    spec = SweepSpec(preset="set1", start=1.0, stop=200.0, count=20, fixed_omega_trad=1000.0,
                     observables=("noise",), check_sum_rule=True)
    _, status = grid.evaluate_grid(spec, grid_values(spec))
    assert list(status) == ["ok"] * 20
    assert passes.count(math.exp) == 4


def test_each_stage_runs_once_per_distinct_value_of_what_it_reads(monkeypatch):
    # the stack reads (alpha_l, omega) and the thermal occupation (omega, T): a
    # temperature sweep builds one stack row and takes one eigenpair for its
    # 500 rows, and an occupation for each but its T = 0 row, whose occupation
    # is 0 without a call; an alpha_l sweep at fixed omega and T takes one
    # occupation, which the exact and the effective flux share
    stack_rows, eigvals_shapes, occupations = [], [], []
    chain, eigvals, occupation = (scattering.transfer_chain, np.linalg.eigvals,
                                  noise.thermal_occupation)
    monkeypatch.setattr(scattering, "transfer_chain",
                        lambda bilayer, omega, *a: stack_rows.append(len(omega))
                        or chain(bilayer, omega, *a))
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: eigvals_shapes.append(a.shape) or eigvals(a))
    monkeypatch.setattr(noise, "thermal_occupation",
                        lambda w, t: occupations.append((w, t)) or occupation(w, t))
    spec = SweepSpec(preset="set1", variable="temperature", start=0.0, stop=600.0, count=500,
                     fixed_omega_trad=500.0, fixed_alpha_l=24.0, theory="both",
                     observables=grid.OBSERVABLE_ORDER, check_sum_rule=True)
    _, status = grid.evaluate_grid(spec, grid_values(spec))
    assert list(status) == ["ok"] * 500
    assert (stack_rows, eigvals_shapes, len(occupations)) == ([1], [(1, 2, 2)], 499)
    del stack_rows[:], eigvals_shapes[:], occupations[:]
    spec = SweepSpec(preset="set1", start=1.0, stop=200.0, count=50, fixed_omega_trad=1000.0,
                     temperature_k=300.0, theory="both", observables=grid.OBSERVABLE_ORDER)
    _, status = grid.evaluate_grid(spec, grid_values(spec))
    assert list(status) == ["ok"] * 50
    assert (stack_rows, occupations) == ([50], [(1000.0 * TRAD, 300.0)])


_SET1 = media.preset("set1", 2.0)


@pytest.mark.parametrize("call, message", [
    (lambda: media.pt_balanced_gain(_SET1.loss, _SET1.gain, 0.0), "omega must be positive"),
    (lambda: media.pt_delta_epsilon(_SET1.loss, _SET1.gain, -1.0), "omega must be positive"),
    (lambda: media.preset_default_omega("set9"),
     "unknown preset 'set9'; expected one of ('set1', 'set2')"),
    (lambda: grid.evaluate_grid(SweepSpec(variable="omega", start=1.0, stop=2.0, count=2),
                                np.array([0.0])), "omega must be positive"),
    (lambda: grid.evaluate_grid(SweepSpec(preset=None, materials=(_SET1.gain, _SET1.loss),
                                          start=1.0, stop=2.0, count=2),
                                np.array([math.inf])), "alpha must be finite"),
    # the thermal occupation refuses these even where k_B T is 0
    (lambda: grid.evaluate_grid(SweepSpec(variable="omega", start=1.0, stop=2.0, count=2,
                                          observables=("noise",)),
                                np.array([1.0, 0.0])), "omega must be positive"),
    (lambda: grid.evaluate_grid(SweepSpec(variable="temperature", start=0.0, stop=1.0, count=2,
                                          fixed_omega_trad=1000.0, observables=("noise",)),
                                np.array([0.0, -1e-320])), "temperature must be nonnegative"),
], ids=["balanced-gain", "delta-epsilon", "default-omega", "grid-omega", "grid-alpha",
        "grid-occupation-omega", "grid-occupation-temperature"])
def test_each_library_input_error_raises_its_value_error(call, message):
    # a library caller meets these where the CLI refuses the input first
    with pytest.raises(ValueError) as err:
        call()
    assert (err.type, str(err.value)) == (ValueError, message)


@pytest.mark.parametrize("theory", ["exact", "effective", "both"])
@pytest.mark.parametrize("families, eta", [
    ((), True), (("scattering", "eigenvalues"), False), (("scattering", "eigenvalues"), True),
    (("variance",), False), (("variance",), True),
], ids=["eta", "stack", "stack_eta", "flux", "flux_eta"])
def test_each_theory_runs_only_its_own_stages(monkeypatch, theory, eta, families):
    # the exact stage builds the stack for the exact families of an exact
    # theory; the effective one takes the Bloch index for its families or
    # eta, the round trip only for eta, and the slab (and the two slabs of
    # the flux's central difference) only for its families
    calls = collections.Counter()
    for owner, name in ((scattering, "transfer_chain"), (effective, "bloch"), (effective, "eta"),
                        (effective, "slab"), (effective, "slab_flux"),
                        (effective, "slab_flux_of")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, fn=fn, name=name:
                            calls.update([name]) or fn(*a))
    spec = SweepSpec(preset="set1", start=1.0, stop=200.0, count=5, fixed_omega_trad=1000.0,
                     theory=theory, observables=families + ("eta",) * eta)
    _, status = grid.evaluate_grid(spec, grid_values(spec))
    assert list(status) == ["ok"] * 5
    exact = bool(families) and theory != "effective"
    slab = bool(families) and theory != "exact"
    flux = "variance" in families
    # the slab's formulas run per stack row (5 here, each at set1's balance,
    # so a flux takes 3 slabs), and its flux parts meet N_th once per grid
    assert calls == collections.Counter(
        transfer_chain=exact, bloch=5 * (slab or eta), eta=5 * eta,
        slab=5 * slab * (1 + 2 * flux), slab_flux=5 * (slab and flux),
        slab_flux_of=slab and flux)


def test_an_overflowing_index_ratio_gives_the_scalar_flux():
    # at this frequency the set1 gain index is -1.16i plus a subnormal real
    # part, so n''/n' overflows: kernel and scalar library both take the
    # commutator's evanescent limit, and the checked sum rule closes
    spec = SweepSpec(preset="set1", start=1.0, stop=100.0, count=2, spacing="linear",
                     fixed_omega_trad=2.2250738585072014e-308, observables=("noise",),
                     check_sum_rule=True)
    cells, status = grid.evaluate_grid(spec, grid_values(spec))
    assert list(status) == ["ok"] * 2
    for i, alpha_l in enumerate(grid_values(spec)):
        flux = noise.noise_flux(grid.bilayer_at(spec, alpha_l), 2.2250738585072014e-308 * TRAD)
        assert same([cells["s_left"][i], cells["s_right"][i]], [flux["s_left"], flux["s_right"]])
        assert math.isfinite(flux["s_right"])


def test_effective_eigenvalues_break_ties_by_argument():
    # at set1's balance the effective slab is lossless: both moduli are 1 to
    # rounding, so the argument decides the order, as in the exact theory
    table = run_sweep(SweepSpec(preset="set1", start=1.0, stop=140.0, count=8,
                                spacing="linear", fixed_omega_trad=1000.0,
                                theory="effective", observables=("eigenvalues",),
                                reproducible=True))
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    tied = [r for r in rows
            if abs(r["lambda1_mod"] - r["lambda2_mod"]) <= 1e-12 * r["lambda1_mod"]]
    assert len(tied) == 8
    assert all(r["lambda1_arg"] <= r["lambda2_arg"] for r in tied)


def test_failing_row_keeps_earlier_cells():
    # alpha_l = 0 with no squeezing and no coherent light: the lossless slab
    # emits no noise, so the mean photocount vanishes and only mandel_q is
    # missing from the row
    spec = SweepSpec(preset="set1", start=0.0, stop=2.0, count=3, spacing="linear",
                     fixed_omega_trad=1000.0, observables=EXACT,
                     input_state=SqueezedCoherentInput(xi=0.0, coherent_weight=0.0),
                     reproducible=True)
    table = run_sweep(spec)
    assert table.column("status") == ["DegenerateDenominator", "ok", "ok"]
    row = dict(zip(table.columns, table.rows[0]))
    missing = [c for c, v in row.items() if isinstance(v, float) and math.isnan(v)]
    assert missing == ["mandel_q"]


def test_json_writes_infinities_as_null():
    table = ResultTable({"x": [1.0, -math.inf, 2.0], "y": [math.inf, math.nan, 3.0]},
                        metadata={})
    text = json.dumps(table.to_json_obj(), allow_nan=False)
    assert json.loads(text)["rows"] == [[1.0, None], [None, None], [2.0, 3.0]]


def test_module_entry_point_runs_the_cli():
    src = str(Path(ptbilayer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "ptbilayer", "presets"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert set(json.loads(proc.stdout)) == {"set1", "set2"}
