"""Batched grid kernel against the scalar library it reproduces."""

import collections
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptbilayer
from ptbilayer import effective, grid, media, noise, observables, scattering
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
    alpha_ls, omega, _ = np.broadcast_arrays(*grid.grid_parameters(spec, xs))
    stack = grid.ExactStack(spec, grid.layer_arrays(spec, alpha_ls, omega)[1], omega)
    ok = np.flatnonzero(~stack.singular)
    residuals = dict(zip(ok.tolist(), noise.sum_rule_residuals(
        stack.layer_terms(ok), stack.s.matrices()[ok]).tolist()))
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
            chain = ref["chain"]
            assert same(stack.total[i], chain.total)
            assert same(stack.from_gain[i], chain.from_gain)
            assert same(stack.from_loss[i], chain.from_loss)
            assert stack.singular[i] == (ref["status"] == "SingularTransfer")
        if "s" not in ref:
            continue
        s = ref["s"]
        if "chain" in ref:
            assert same(stack.s.matrices()[i], s.matrix())
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
    # kernel share them; four more rows copy
    # row 0 with a nan in D, an inf in K, an infinite occupation and a nan index
    spec = SweepSpec(preset=None, materials=(gain, loss), variable="omega",
                     fixed_alpha_l=alpha_l, thickness_nm=thickness, mode=mode)
    xs = np.array(omegas)
    alpha_ls, omega, _ = np.broadcast_arrays(*grid.grid_parameters(spec, xs))
    stack = grid.ExactStack(spec, grid.layer_arrays(spec, alpha_ls, omega)[1], omega)
    n_rows = len(xs)
    copies = np.r_[np.arange(n_rows), 0, 0, 0, 0]
    terms = [(n[copies], d[copies], k[copies])
             for n, d, k in stack.layer_terms(np.arange(n_rows))]
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
            assert same([left[i], right[i]],
                        noise.fluxes(noise.flux_parts(point), float(nth[i])))


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


def test_checked_grid_builds_the_layer_terms_once(monkeypatch):
    # each layer's commutator takes math.exp over the rows twice (e^{-2u} and
    # e^{2u}); the flux and the sum-rule check share one list of terms
    passes, each = [], grid._each
    monkeypatch.setattr(grid, "_each", lambda fn, x: passes.append(fn) or each(fn, x))
    spec = SweepSpec(preset="set1", start=1.0, stop=200.0, count=20, fixed_omega_trad=1000.0,
                     observables=("noise",), check_sum_rule=True)
    _, status = grid.evaluate_grid(spec, grid_values(spec))
    assert list(status) == ["ok"] * 20
    assert passes.count(math.exp) == 4


def test_each_stage_runs_once_per_distinct_value_of_what_it_reads(monkeypatch):
    # the stack reads (alpha_l, omega) and the thermal occupation (omega, T): a
    # temperature sweep builds one stack row and takes one eigenpair for its
    # 500 rows, and an alpha_l sweep at fixed omega and T takes one occupation,
    # which the exact and the effective flux share
    stack_rows, eigvals_shapes, occupations = [], [], []
    stack, eigvals, occupation = grid.ExactStack, np.linalg.eigvals, noise.thermal_occupation

    class CountedStack(stack):
        def __init__(self, spec, indices, omega):
            stack_rows.append(len(omega))
            super().__init__(spec, indices, omega)

    monkeypatch.setattr(grid, "ExactStack", CountedStack)
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: eigvals_shapes.append(a.shape) or eigvals(a))
    monkeypatch.setattr(noise, "thermal_occupation",
                        lambda w, t: occupations.append((w, t)) or occupation(w, t))
    spec = SweepSpec(preset="set1", variable="temperature", start=0.0, stop=600.0, count=500,
                     fixed_omega_trad=500.0, fixed_alpha_l=24.0, theory="both",
                     observables=grid.OBSERVABLE_ORDER, check_sum_rule=True)
    _, status = grid.evaluate_grid(spec, grid_values(spec))
    assert list(status) == ["ok"] * 500
    assert (stack_rows, eigvals_shapes, len(occupations)) == ([1], [(1, 2, 2)], 500)
    del stack_rows[:], eigvals_shapes[:], occupations[:]
    spec = SweepSpec(preset="set1", start=1.0, stop=200.0, count=50, fixed_omega_trad=1000.0,
                     temperature_k=300.0, theory="both", observables=grid.OBSERVABLE_ORDER)
    _, status = grid.evaluate_grid(spec, grid_values(spec))
    assert list(status) == ["ok"] * 50
    assert (stack_rows, occupations) == ([50], [(1000.0 * TRAD, 300.0)])


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
