"""Full-figure acceptance gates.

Each test prints exactly one line

    CRITERION {k}: PASS/FAIL — {detail}

collected by conftest's terminal-summary hook so the verdicts survive pytest's
output capture. Every clause prints its measured value next to its bound.

Criteria 1-4 and 8-10 pass. Four clauses fail, each an unsettled reference
value kept with its target and tolerance unchanged (see the README's "Known
deviations" and known_gaps_report.json, which criterion 10 checks against
what this suite computes):

- criterion 5: the set1 mirror limit |V-1| <= 0.05 at alpha_l=1000;
- criterion 6: the alpha_l=52 upper photocount crossing, 1.100 +- 0.005;
- criterion 7: the set2 exact-vs-effective statistic deviation (<= 5%);
- criterion 7: the effective-theory breakdown growth 100 -> 160 (>= 10x).
"""
from __future__ import annotations

import json
import math
import pathlib

import numpy as np
import pytest

import ptbilayer as p
from ptbilayer.sweep_cli import SweepSpec, ThresholdQuery, locate_threshold

T = p.TRAD
W0 = 1000.0 * T                      # set 1 resonance, rad/s
WPT2 = p.set2_operating_frequency()  # set 2 balanced frequency, rad/s

ACCEPTANCE_LINES: list[str] = []

REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent / "known_gaps_report.json"


def criterion(k: int, clauses: list[tuple[bool, str]]) -> None:
    ok = all(c[0] for c in clauses)
    detail = "; ".join(("" if c[0] else "[FAIL] ") + c[1] for c in clauses)
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} — {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def smat(preset_id, alpha, omega):
    return p.scattering_from_transfer(
        p.transfer_chain(p.preset(preset_id, alpha), omega))


def flux_right(preset_id, alpha, omega, theta=0.0):
    return p.noise_flux(p.preset(preset_id, alpha), omega,
                        temperature=theta)["s_right"]


def variance(preset_id, alpha, omega, theta=0.0):
    return p.homodyne_variance(smat(preset_id, alpha, omega),
                               flux_right(preset_id, alpha, omega, theta))


def mandel(preset_id, alpha, omega, theta=0.0):
    return p.mandel_q(smat(preset_id, alpha, omega),
                      flux_right(preset_id, alpha, omega, theta))


def spec1(**kw):
    return SweepSpec(preset="set1", variable="alpha_l",
                     start=1.0, stop=1000.0, count=2, **kw)


def bisect(f, lo, hi, iters=60):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sign_changes(values):
    """Indices i at which values[i] and values[i + 1] have opposite signs."""
    sgn = np.sign(values)
    return np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]


def q_zero_crossings(preset_id, alpha, w_lo=300.0, w_hi=1900.0, n=481):
    """All zero crossings of the photocount statistic vs frequency, in w/W0."""
    ws = np.linspace(w_lo, w_hi, n)
    qs = np.array([mandel(preset_id, alpha, w * T) for w in ws])
    return [bisect(lambda w: mandel(preset_id, alpha, w * T), ws[i], ws[i + 1])
            / 1000.0 for i in sign_changes(qs)]


def exact_vq(preset_id, a, w):
    s = smat(preset_id, a, w)
    fr = flux_right(preset_id, a, w)
    return p.homodyne_variance(s, fr), p.mandel_q(s, fr)


def eff_vq(preset_id, a, w):
    b = p.preset(preset_id, a)
    eps = (p.permittivity(b.gain, w), p.permittivity(b.loss, w))
    n = p.bloch_index(tuple(map(p.refractive_index, eps)), w, b.layer_thickness)
    s = p.effective_amplitudes(n, w, b.layer_thickness)
    fr = p.effective_noise(n, s, eps, w, b.layer_thickness)["s_right"]
    return p.homodyne_variance(s, fr), p.mandel_q(s, fr)


def theory_deviations(preset_id, w, amax, n=401):
    """Exact vs effective observables over alpha_l in linspace(0, amax, n).

    Returns (grid, exact (V, Q) rows, effective (V, Q) rows, largest relative
    variance deviation, largest relative statistic deviation). A relative
    deviation has no bound where the statistic passes through zero, so the
    statistic deviation leaves out the two grid points that bracket each sign
    change of the exact statistic; those crossings are compared by location.
    """
    grid = np.linspace(0.0, amax, n)
    ex = np.array([exact_vq(preset_id, a, w) for a in grid])
    ef = np.array([eff_vq(preset_id, a, w) for a in grid])
    rel = np.abs(ef - ex) / np.abs(ex)
    away = np.ones(n, dtype=bool)
    flips = sign_changes(ex[:, 1])
    away[flips] = away[flips + 1] = False
    return grid, ex, ef, float(rel[:, 0].max()), float(rel[away, 1].max())


def breakdown_growth():
    """Growth of the set1 relative (variance, statistic) deviation 100 -> 160."""
    devs = {}
    for a in (100.0, 160.0):
        ve, qe = exact_vq("set1", a, W0)
        vf, qf = eff_vq("set1", a, W0)
        devs[a] = (abs(vf - ve) / abs(ve), abs(qf - qe) / abs(qe))
    return (devs[160.0][0] / devs[100.0][0], devs[160.0][1] / devs[100.0][1])


def test_criterion_01_balance_solver():
    clauses = []
    b = p.preset("set1", 7.0)
    roots = p.pt_frequency(b.loss, b.gain)
    exact_root = len(roots) == 1 and roots[0] == W0
    exact_gain = all(
        p.pt_balanced_gain(bb.loss, bb.gain, W0) == -a
        for a in (0.5, 2.0, 7.0, 123.456)
        for bb in (p.preset("set1", a),))
    clauses.append((exact_root and exact_gain,
                    f"set1 balance root {roots[0] / T:.1f} Trad/s bit-exact at "
                    f"resonance, gain magnitude equals loss exactly"))
    ratio = WPT2 / W0
    ag = p.set2_gain_alpha()
    gap = abs(abs(ag) - 20.86) / 20.86
    clauses.append((abs(ratio - 1.58) <= 0.01,
                    f"set2 frequency ratio {ratio:.7f} (target 1.58±0.01)"))
    clauses.append((gap <= 0.05,
                    f"set2 gain strength {abs(ag):.4f} within 5% of 20.86 "
                    f"(gap {gap:.2%}, documented in known_gaps_report.json)"))
    criterion(1, clauses)


def test_criterion_02_round_trip_linearity():
    thr = locate_threshold(ThresholdQuery("eta_unity", (100.0, 200.0)), spec1())
    clauses = [(abs(thr - 147.0) <= 3.0,
                f"set1 first unit round-trip at alpha_l={thr:.3f} (147±3)")]

    def eta(alpha):
        bl = p.preset("set2", alpha)
        n = p.bloch_index(p.scattering.layer_indices(bl, WPT2), WPT2, bl.layer_thickness)
        return abs(p.round_trip(n, WPT2, bl.layer_thickness))

    m = max(eta(a) for a in np.linspace(0.0, 1000.0, 1001))
    clauses.append((m < 1.0, f"set2 round-trip stays linear, max |eta| {m:.4f}"))
    criterion(2, clauses)


def test_criterion_03_eigenvalue_phases():
    def devs(preset_id, alpha, omega):
        lam = p.eigenvalues(p.transfer_chain(p.preset(preset_id, alpha), omega))
        return abs(abs(lam[0]) - 1.0), abs(abs(lam[1]) - 1.0), lam

    m = max(max(devs("set1", a, W0)[:2]) for a in np.linspace(1.0, 850.0, 850))
    clauses = [(m <= 1e-4, f"set1 unimodular through alpha_l=850 (max dev {m:.2e})")]

    ep = locate_threshold(ThresholdQuery("exceptional_point", (850.0, 950.0)),
                          spec1())
    clauses.append((abs(ep - 890.0) <= 10.0,
                    f"bifurcation at alpha_l={ep:.2f} (890±10)"))

    broken_ok, worst = True, 0.0
    for a in (895.0, 920.0, 950.0, 1000.0):
        d1, d2, lam = devs("set1", a, W0)
        prod = abs(abs(lam[0]) * abs(lam[1]) - 1.0)
        worst = max(worst, prod)
        broken_ok &= prod <= 1e-6 and abs(lam[0]) > 1.0
    clauses.append((broken_ok,
                    f"broken phase inverse-moduli pair (worst product dev "
                    f"{worst:.2e}, amplified branch > 1)"))

    d2 = max(devs("set2", 2.0, WPT2)[:2])
    others = {a: max(devs("set2", a, WPT2)[:2])
              for a in (0.5, 1.0, 5.0, 10.0, 100.0, 1000.0)}
    excl = d2 <= 1e-3 and all(v > 1e-3 for v in others.values())
    clauses.append((excl,
                    f"set2 unimodular only at the design point (dev(2)="
                    f"{d2:.1e}; elsewhere min {min(others.values()):.1e})"))
    criterion(3, clauses)


def test_criterion_04_conservation_and_atr():
    grid = np.linspace(1.0, 1000.0, 1000)
    gmax = max(p.conservation_residuals(smat("set1", a, W0))["generalized"]
               for a in grid)
    clauses = [(gmax <= 1e-8, f"generalized conservation residual {gmax:.2e}")]

    a1 = locate_threshold(ThresholdQuery("atr", (5.0, 50.0)), spec1())
    a2 = locate_threshold(ThresholdQuery("atr", (80.0, 130.0)), spec1())
    ad = locate_threshold(ThresholdQuery("accidental_degeneracy", (30.0, 80.0)),
                          spec1())
    clauses.append((abs(a1 - 24.0) <= 1.0 and abs(a2 - 114.0) <= 3.0,
                    f"unit-transmittance crossings at {a1:.3f} (24±1) and "
                    f"{a2:.3f} (114±3)"))
    clauses.append((abs(ad - 52.0) <= 2.0,
                    f"equal reflectances at {ad:.3f} (52±2)"))

    violations = 0
    for a in np.linspace(1.0, 1000.0, 2000):
        if min(abs(a - a1), abs(a - a2)) < 0.5:
            continue
        t2 = abs(smat("set1", a, W0).t) ** 2
        if (a1 < a < a2) != (t2 > 1.0):
            violations += 1
    clauses.append((violations == 0,
                    "transmittance exceeds unity exactly between the crossings"))

    pmax = 0.0
    for a in np.linspace(1.0, 1000.0, 2000):
        s = smat("set1", a, W0)
        if abs(abs(s.t) ** 2 - 1.0) < 1e-3:
            continue
        if min(abs(s.r_left), abs(s.r_right), abs(s.t)) < 1e-7:
            continue
        pmax = max(pmax, p.conservation_residuals(s)["phase"])
    clauses.append((pmax <= 1e-6,
                    f"phase-relation residual {pmax:.2e} away from crossings"))

    t2max = max(abs(smat("set2", a, WPT2).t) ** 2
                for a in np.linspace(0.0, 1000.0, 1001))
    clauses.append((t2max < 1.0, f"set2 transmittance stays below unity "
                                 f"(max {t2max:.4f})"))
    criterion(4, clauses)


def test_criterion_05_homodyne_variance():
    clauses = []

    # At alpha_l = 0 both layers are lossless eps = 2 dielectric and emit no
    # noise, so the squeezed input passes a passive slab and keeps part of its
    # squeezing (V < 1). V is continuous in alpha_l: it must cross the vacuum
    # level once, at weak extinction, and stay above it from there on.
    v0 = variance("set1", 0.0, W0)
    l1 = p.preset("set1", 0.0).layer_thickness
    v_slab = p.homodyne_variance(p.effective_amplitudes(np.sqrt(2.0), W0, l1),
                                 0.0)
    clauses.append((abs(v0 - v_slab) <= 1e-12,
                    f"set1 lossless limit V(0)={v0:.16f} equals the passive "
                    f"eps=2 slab {v_slab:.16f} (|diff| {abs(v0 - v_slab):.1e} "
                    f"≤1e-12)"))

    als = np.logspace(-3, 3, 601)
    vs = np.array([variance("set1", a, W0) for a in als])
    flips = sign_changes(vs - 1.0)
    if len(flips) == 1:
        i = flips[0]
        once_ok = als[i + 1] < 1.0 and bool(np.all(vs[i + 1:] > 1.0))
        txt = (f"crosses once, in alpha_l ({als[i]:.4g},{als[i + 1]:.4g}) "
               f"(<1), min V-1 above it {vs[i + 1:].min() - 1.0:.2e} (>0)")
    else:
        once_ok, txt = False, f"{len(flips)} crossings (1 demanded)"
    clauses.append((once_ok, "set1 variance vs vacuum on alpha_l in "
                             "[1e-3,1e3]: " + txt))

    sp2 = SweepSpec(preset="set2", variable="alpha_l", start=1.0, stop=1000.0,
                    count=2, fixed_omega_trad=WPT2 / T)
    x = locate_threshold(ThresholdQuery("squeeze_crossing", (10.0, 30.0)), sp2)
    clauses.append((abs(x - 18.0) <= 1.0,
                    f"set2 variance crosses vacuum at alpha_l={x:.3f} (18±1)"))

    m1 = abs(variance("set1", 1000.0, W0) - 1.0)
    m2 = abs(variance("set2", 1000.0, WPT2) - 1.0)
    t1 = smat("set1", 1000.0, W0).T
    clauses.append((m1 <= 0.05 and m2 <= 0.05,
                    f"mirror limit |V-1| at alpha_l=1000: set1 {m1:.4f}, "
                    f"set2 {m2:.4f} (each ≤0.05; set1 is not yet a mirror "
                    f"there, T={t1:.1e}, open reference gap)"))

    targets = [(24.0, 0.73), (52.0, 0.64), (114.0, 0.55), (147.0, 0.52),
               (890.0, 0.29)]
    meas, ok6a = [], True
    for a, tgt in targets:
        sp = SweepSpec(preset="set1", variable="omega", start=1.0, stop=2000.0,
                       count=2, fixed_alpha_l=a)
        w = locate_threshold(
            ThresholdQuery("squeeze_crossing",
                           ((tgt - 0.08) * 1000.0, (tgt + 0.08) * 1000.0)), sp)
        meas.append(w / 1000.0)
        ok6a &= abs(w / 1000.0 - tgt) <= 0.01
    clauses.append((ok6a,
                    "squeezing-threshold frequencies "
                    + "/".join(f"{m:.4f}" for m in meas)
                    + " vs 0.73/0.64/0.55/0.52/0.29 (±0.01)"))

    sp = SweepSpec(preset="set2", variable="omega", start=1.0, stop=2000.0,
                   count=2, fixed_alpha_l=2.0)
    w = locate_threshold(ThresholdQuery("squeeze_crossing", (750.0, 900.0)), sp)
    clauses.append((abs(w / 1000.0 - 0.83) <= 0.01,
                    f"set2 squeezing threshold {w / 1000.0:.4f} (0.83±0.01)"))
    criterion(5, clauses)


def test_criterion_06_photocount_statistics():
    q_in = p.input_reference()["q_in"]
    clauses = [(abs(q_in - (-0.33)) <= 0.01,
                f"identity-channel statistic {q_in:.6f} (-0.33±0.01)")]

    x = locate_threshold(ThresholdQuery("mandel_crossing", (1.0, 10.0)), spec1())
    clauses.append((abs(x - 4.9) <= 0.2,
                    f"set1 sub-to-super crossing at alpha_l={x:.4f} (4.9±0.2)"))

    qmax = max(mandel("set2", a, WPT2) for a in np.linspace(0.0, 1000.0, 1001))
    clauses.append((qmax < 0.0,
                    f"set2 sub-Poissonian throughout (max {qmax:.5f})"))

    table = {24.0: (0.936, 1.068), 52.0: (0.902, 1.100), 114.0: (0.854, 1.168),
             147.0: (0.836, 1.196), 890.0: (0.645, 1.534)}
    rows_ok, rows_txt = True, []
    for a, (lo_t, hi_t) in table.items():
        roots = q_zero_crossings("set1", a)
        if len(roots) != 2:
            rows_ok = False
            rows_txt.append(f"a={a:g}: {len(roots)} crossings")
            continue
        d_lo, d_hi = roots[0] - lo_t, roots[1] - hi_t
        rows_ok &= abs(d_lo) <= 0.005 and abs(d_hi) <= 0.005
        rows_txt.append(f"a={a:g}: ({roots[0]:.4f},{roots[1]:.4f})")
    clauses.append((rows_ok,
                    "crossing-frequency pairs " + " ".join(rows_txt)
                    + " vs table values ±0.005 (alpha_l=52 upper measured "
                      "1.1089 vs 1.100)"))

    roots2 = q_zero_crossings("set2", 2.0)
    win_ok = (len(roots2) == 2 and abs(roots2[0] - 0.943) <= 0.005
              and abs(roots2[1] - 1.061) <= 0.005)
    clauses.append((win_ok,
                    f"set2 super-Poissonian window "
                    f"({roots2[0]:.4f},{roots2[1]:.4f}) vs (0.943,1.061)±0.005"
                    if len(roots2) == 2 else
                    f"set2 window: {len(roots2)} crossings found"))
    criterion(6, clauses)


def test_criterion_07_effective_theory_agreement():
    clauses = []
    for preset_id, w, amax, label in (("set1", W0, 100.0, "set1 alpha_l≤100"),
                                      ("set2", WPT2, 1000.0,
                                       "set2 alpha_l≤1000")):
        grid, ex, ef, rv, rq = theory_deviations(preset_id, w, amax)
        clauses.append((rv <= 0.05, f"{label}: variance dev {rv:.2%} (≤5%)"))
        clauses.append((rq <= 0.05,
                        f"{label}: statistic dev {rq:.2%} away from its zero "
                        f"crossings (≤5%)"))

        flips, flips_eff = sign_changes(ex[:, 1]), sign_changes(ef[:, 1])
        if len(flips) or len(flips_eff):
            xe = [bisect(lambda a: exact_vq(preset_id, a, w)[1],
                         grid[i], grid[i + 1]) for i in flips]
            xf = [bisect(lambda a: eff_vq(preset_id, a, w)[1],
                         grid[i], grid[i + 1]) for i in flips_eff]
            ok = len(xe) == len(xf) and all(
                abs(f - e) <= 0.05 * abs(e) for e, f in zip(xe, xf))
            clauses.append((ok,
                            f"{label}: statistic zero crossings exact "
                            + "/".join(f"{x:.4f}" for x in xe) + " vs effective "
                            + "/".join(f"{x:.4f}" for x in xf)
                            + " (same count, each within 5%)"))

    gv, gq = breakdown_growth()
    clauses.append((gv >= 10.0 and gq >= 10.0,
                    f"breakdown growth 100→160: variance {gv:.2f}x, "
                    f"statistic {gq:.2f}x (each ≥10x)"))
    criterion(7, clauses)


def thermal_weights(bilayer, omega):
    """E_j = sum over layers of |(D K D^dagger)_jj| for outputs j = left, right."""
    terms = p.layer_terms(p.transfer_chain(bilayer, omega))
    e = np.zeros(2)
    for (_, d, _), medium, layer in zip(terms, (bilayer.gain, bilayer.loss), (2, 3)):
        n = p.refractive_index(p.permittivity(medium, omega))
        k = p.layer_commutator(n, omega, bilayer.layer_thickness, layer)
        e += np.abs(np.real(np.diag(d @ k @ d.conj().T)))
    return e


def test_criterion_08_thermal_insensitivity():
    # Each layer's commutator matrix K is semidefinite with the sign of its
    # loss or gain, so heating shifts the flux into output j by exactly
    # N_th * E_j, and the sum rule gives E_j >= |1 - T - R_j|. No
    # commutator-preserving noise model can keep the shift below
    # N_th * |1 - T - R_j|, which exceeds 1e-9 at 500 Trad/s and 300 K. The
    # shift is checked against N_th * E_j over the whole grid; the 1e-9
    # insensitivity is demanded at the operating frequencies.
    amplitudes = (2.0, 24.0, 52.0, 114.0, 147.0, 890.0, 950.0)

    def observables(preset_id, a, w, theta):
        s = smat(preset_id, a, w)
        fl = p.noise_flux(p.preset(preset_id, a), w, temperature=theta)
        return (fl["s_left"], fl["s_right"],
                p.homodyne_variance(s, fl["s_right"]),
                p.mandel_q(s, fl["s_right"]))

    points, shift_ok, worst_ratio = 0, True, 0.0
    margin, floor_max = np.inf, 0.0
    for preset_id in ("set1", "set2"):
        for a in amplitudes:
            b = p.preset(preset_id, a)
            for w in np.linspace(500.0, 2000.0, 31) * T:
                f0 = p.noise_flux(b, w)
                e = thermal_weights(b, w)
                s = p.transfer_chain(b, w).s
                floor = np.abs([1.0 - s.T - s.R_left, 1.0 - s.T - s.R_right])
                margin = min(margin, float(np.min(e - floor)))
                floor_max = max(floor_max, p.thermal_occupation(w, 300.0)
                                * float(floor.max()))
                for theta in (300.0, 600.0):
                    nth = p.thermal_occupation(w, theta)
                    ft = p.noise_flux(b, w, temperature=theta)
                    for j, key in enumerate(("s_left", "s_right")):
                        err = abs(ft[key] - f0[key] - nth * e[j])
                        tol = 1e-9 * nth * e[j] + 4 * np.spacing(abs(f0[key]))
                        shift_ok &= err <= tol
                        worst_ratio = max(worst_ratio, err / tol)
                points += 1
    clauses = [(shift_ok,
                f"flux shift equals N_th*E_j at 300 K and 600 K on {points} "
                f"grid points (worst error/tolerance {worst_ratio:.2f}, ≤1; "
                f"tolerance 1e-9 N_th E_j + 4 ulp)"),
               (margin >= -1e-10,
                f"E_j - |1-T-R_j| ≥ {margin:.1e} (≥-1e-10, the sum-rule "
                f"tolerance; the 300 K floor N_th|1-T-R_j| reaches "
                f"{floor_max:.2e})")]

    at = {}
    for preset_id, w in (("set1", W0), ("set2", WPT2)):
        at[preset_id] = max(
            max(abs(x - y) for x, y in zip(observables(preset_id, a, w, 0.0),
                                           observables(preset_id, a, w, 300.0)))
            for a in amplitudes)
    clauses.append((max(at.values()) < 1e-9,
                    f"room-temperature shift at the operating frequencies "
                    f"{at['set1']:.2e} (set1) / {at['set2']:.2e} (set2) (<1e-9)"))
    criterion(8, clauses)


def test_criterion_09_property_suites():
    clauses = []

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10_000):
        gain = p.LorentzMedium(eps_b=rng.uniform(1.5, 4.0),
                               alpha=-rng.uniform(0.01, 50.0),
                               omega0=rng.uniform(800.0, 1400.0) * T,
                               gamma=rng.uniform(30.0, 200.0) * T)
        loss = p.LorentzMedium(eps_b=rng.uniform(1.5, 4.0),
                               alpha=rng.uniform(0.01, 50.0),
                               omega0=rng.uniform(800.0, 1400.0) * T,
                               gamma=rng.uniform(30.0, 200.0) * T)
        b = p.Bilayer(gain=gain, loss=loss,
                      layer_thickness=rng.uniform(2.0, 40.0) * 1e-9)
        w = rng.uniform(500.0, 2000.0) * T
        worst = max(worst, p.sum_rule_residual(b, w))
    clauses.append((worst <= 1e-10,
                    f"commutator sum rule over 1e4 random stacks: {worst:.2e}"))

    worst = 0.0
    for alpha in (5.0, 1.0, 0.1, -0.2, -2.0):
        med = p.LorentzMedium(eps_b=2.0, alpha=alpha, omega0=W0, gamma=67.0 * T)
        b = p.Bilayer(gain=med, loss=med, layer_thickness=1e-8)
        eps = (p.permittivity(b.gain, W0), p.permittivity(b.loss, W0))
        n = p.bloch_index(tuple(map(p.refractive_index, eps)), W0, b.layer_thickness)
        fx = p.noise_flux(b, W0)
        fe = p.effective_noise(n, p.effective_amplitudes(n, W0, b.layer_thickness), eps, W0,
                               b.layer_thickness)
        worst = max(worst, abs(fx["s_right"] - fe["s_right"]),
                    abs(fx["s_left"] - fe["s_left"]))
    clauses.append((worst <= 1e-10,
                    f"uniform-slab effective noise matches exact: {worst:.2e}"))

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        eps = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if eps == 0:
            continue
        n = p.refractive_index(eps)
        worst = max(worst, abs(n * n - eps) / abs(eps))
    clauses.append((worst <= 1e-12,
                    f"index branch round-trip residual: {worst:.2e}"))

    worst = 0.0
    for eb in (1.5, 2.0, 3.22):
        med = p.LorentzMedium(eps_b=eb, alpha=0.0, omega0=W0, gamma=67.0 * T)
        b = p.Bilayer(gain=med, loss=med, layer_thickness=1e-8)
        for w in np.linspace(500.0, 2000.0, 16):
            fl = p.noise_flux(b, w * T)
            worst = max(worst, abs(fl["s_left"]), abs(fl["s_right"]))
    clauses.append((worst <= 1e-10, f"lossless stacks emit no noise: {worst:.2e}"))

    def sdev(preset_id, a, w):
        """Relative deviation of paper_real_part from full_complex amplitudes."""
        f, q = (p.scattering_from_transfer(
            p.transfer_chain(p.preset(preset_id, a), w, mode=mode))
            for mode in ("full_complex", "paper_real_part"))
        f, q = (np.array([x.r_left, x.t, x.r_right]) for x in (f, q))
        return np.linalg.norm(f - q) / np.linalg.norm(f)

    def kappa(preset_id, a, w):
        b = p.preset(preset_id, a)
        return max(abs(n.imag) / n.real
                   for n in (p.refractive_index(p.permittivity(m, w))
                             for m in (b.gain, b.loss)))

    # paper_real_part is a small-absorption approximation, accurate to first
    # order in kappa = max over layers of n''/n'; it is checked where that
    # order is small, not across the strong-extinction range.
    small = np.logspace(-4.0, -1.0, 31)
    first_order, points, worst = True, 0, 0.0
    for preset_id, w in (("set1", W0), ("set2", WPT2)):
        for a in np.concatenate([np.linspace(0.0, 1000.0, 501), small]):
            k = kappa(preset_id, a, w)
            if k > 0.1:
                continue
            d = sdev(preset_id, a, w)
            first_order &= d <= k
            worst = max(worst, d / k if k > 0 else (0.0 if d == 0 else np.inf))
            points += 1
    clauses.append((first_order,
                    f"real-part mode deviation ≤ kappa at all {points} points "
                    f"with kappa≤0.1 on both presets (max dev/kappa "
                    f"{worst:.4f}, ≤1)"))

    d1 = np.array([sdev("set1", a, W0) for a in small])
    fall = d1[10:] / d1[:-10]
    clauses.append((bool(np.all(np.abs(fall - 10.0) <= 1.0))
                    and d1.max() < 1e-3,
                    f"set1 real-part deviation falls {fall.min():.4f}-"
                    f"{fall.max():.4f}x per decade of alpha_l in [1e-4,0.1] "
                    f"(10x±10%), max {d1.max():.2e} (<1e-3)"))
    criterion(9, clauses)


def same_record(a, b, rel_tol=1e-12):
    """Equal JSON values, with floats compared to rel_tol."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_record(a[k], b[k], rel_tol)
                                            for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_record(x, y, rel_tol)
                                        for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=rel_tol))
    return a == b


def test_criterion_10_known_gaps_report(tmp_path):
    ref = p.input_reference()
    ag = p.set2_gain_alpha()
    pair52 = [round(x, 4) for x in q_zero_crossings("set1", 52.0)]
    mirror = variance("set1", 1000.0, W0)
    t_mirror = smat("set1", 1000.0, W0).T
    q_dev2 = theory_deviations("set2", WPT2, 1000.0)[4]
    growth_v = breakdown_growth()[0]
    report = {
        "input_variance": {
            "computed": ref["variance_in"],
            "quoted": 0.926,
            "note": "identity-channel quadrature variance at the default "
                    "squeezed-coherent input; the quoted plot level is not "
                    "reproducible from the stated parameters",
        },
        "set2_gain_strength": {
            "computed": abs(ag),
            "quoted": 20.86,
            "note": "balanced gain magnitude for set 2 at its operating "
                    "frequency; computed from the balance condition, 2.46% "
                    "below the quoted value",
        },
        "set1_crossing_pair_52": {
            "computed": pair52,
            "quoted": [0.902, 1.100],
            "note": "photocount-statistic zero crossings at alpha_l=52; the "
                    "upper frequency differs by +0.0089 while the other nine "
                    "tabulated frequencies agree within ±0.005. The quoted "
                    "row is the only one whose lower+upper sum breaks the "
                    "rise with alpha_l (quoted 2.004, 2.002, 2.022, 2.032, "
                    "2.179; computed 2.0041, 2.0101, 2.0233, 2.0304, 2.1793). "
                    "The source table is not in the repository, so the "
                    "quoted entry stands",
        },
        "set1_mirror_limit": {
            "computed": round(mirror, 4),
            "quoted": 1.0,
            "note": f"set1 variance at alpha_l=1000, where set1 is not yet a "
                    f"mirror (T={t_mirror:.1e}); the variance does return to "
                    f"vacuum further in (1.0198 at alpha_l=3000, 1.0009 at "
                    f"1e4), so amplified emission dies out. Whether the "
                    f"reference meant another set1 or another amplitude is "
                    f"not settled",
        },
        "set2_effective_statistic": {
            "computed": round(q_dev2, 4),
            "quoted": 0.05,
            "note": "largest relative deviation of the effective-medium "
                    "photocount statistic from the exact one for set2, "
                    "alpha_l in [0,1000], at alpha_l=1000 (exact -0.0150, "
                    "effective -0.0105; the statistic does not cross zero "
                    "there). The effective occupation S/(2 Im n_eff^2) - 1/2 "
                    "with equal layer weights subtracts two nearly equal "
                    "numbers where the metallic loss layer dominates; "
                    "whether the reference uses another effective noise is "
                    "not settled",
        },
        "set1_breakdown_growth": {
            "computed": round(growth_v, 2),
            "quoted": 10.0,
            "note": "growth of the set1 relative variance deviation between "
                    "the effective and exact theories from alpha_l=100 to "
                    "160; the statistic's growth meets the 10x threshold, "
                    "the variance's falls short of it",
        },
    }
    out = tmp_path / REPORT_PATH.name
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    data = json.loads(out.read_text())
    ok_var = (data["input_variance"]["quoted"] == 0.926
              and abs(data["input_variance"]["computed"]
                      - 0.9645574694171251) < 1e-12)
    ok_gain = (data["set2_gain_strength"]["quoted"] == 20.86
               and abs(data["set2_gain_strength"]["computed"]
                       - 20.346415349080726) < 1e-12)
    recorded = json.loads(REPORT_PATH.read_text())
    drift = sorted(k for k in data.keys() | recorded.keys()
                   if not same_record(data.get(k), recorded.get(k)))
    criterion(10, [(ok_var and ok_gain,
                    f"report written with self-consistent values (variance "
                    f"{data['input_variance']['computed']:.6f} vs 0.926; gain "
                    f"{data['set2_gain_strength']['computed']:.4f} vs 20.86)"),
                   (not drift,
                    f"checked-in {REPORT_PATH.name} matches the "
                    f"{len(data)} computed entries to 1e-12 relative "
                    f"(entries that differ: {', '.join(drift) or 'none'})")])
